"""Feature records and predictions, plus schema conformance and identity keys.

A record has two identity keys: canonical_key's text (split's order) and
value_key's hashable triple (lookups). One walk, _value_tokens, turns a
value into shape tokens and numbers and raises for what no record holds;
value_key packs those, and canonical_key renders them as text for every
record its templates do not take."""
from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Callable, Mapping, Optional

from ..errors import FormatError
from ..speclang.schema import Schema, is_number, value_errors, value_guard


@dataclass(frozen=True)
class FeatureRecord:
    """One classifier input: field name -> value, with an optional id."""

    fields: dict[str, Any] = field(default_factory=dict)
    id: Optional[str] = None


@dataclass(frozen=True)
class Prediction:
    """A classifier output: a label and an optional confidence in [0, 1]."""

    label: str
    confidence: Optional[float] = None


def record_ref(rid: Optional[str], index: int) -> str:
    """How reports name a record: its id, or "#<index>" (its 0-based
    position in its sequence) when it has none."""
    return rid if rid is not None else f"#{index}"


def conformance_errors(fields: Mapping[str, Any], schema: Schema) -> list[str]:
    """Every way the record fails its schema: missing fields, unknown fields,
    and per-field type violations. Empty when the record conforms."""
    errors: list[str] = []
    for name in schema.fields:
        if name not in fields:
            errors.append(f"missing field {name!r}")
    for name in fields:
        if name not in schema.fields:
            errors.append(f"unknown field {name!r}")
    for name, ftype in schema.fields.items():
        if name in fields:
            errors.extend(value_errors(name, ftype, fields[name]))
    return errors


def prediction_errors(prediction: Prediction, schema: Schema) -> list[str]:
    """Check a prediction against the schema's label alphabet."""
    errors: list[str] = []
    if prediction.label not in schema.labels:
        errors.append(f"label {prediction.label!r} is not in the alphabet {list(schema.labels)}")
    if prediction.confidence is not None:
        if not is_number(prediction.confidence) or not 0.0 <= float(prediction.confidence) <= 1.0:
            errors.append(f"confidence {prediction.confidence!r} is not in [0, 1]")
    return errors


def conformance_guard(
    schema: Schema, names: Mapping[str, str], constant: Callable[[Any], str]
) -> list[str]:
    """Python source lines, for a generated function whose first parameter
    is fields, that return None or raise unless fields is a dict of exact
    builtin types on which conformance_errors finds nothing.

    Afterwards the local names[f] holds field f's value (see value_guard).
    """
    lines = [
        f"if fields.__class__ is not dict or len(fields) != {len(schema.fields)}:",
        "    return None",
    ]
    for name, ftype in schema.fields.items():
        # With the length checked, a missing field raises KeyError here.
        lines.append(f"{names[name]} = fields[{constant(name)}]")
        lines += value_guard(ftype, names[name], constant)
    return lines


def prediction_guard(
    schema: Schema, constant: Callable[[Any], str], label: str, confidence: str
) -> list[str]:
    """Python source lines, for a generated function, that return None or
    raise unless the prediction read by the source expressions label and
    confidence has a str label on which prediction_errors finds nothing and
    a float confidence.

    Afterwards the locals label and confidence hold the prediction's.
    """
    return [
        f"label = {label}",
        f"if label.__class__ is not str or label not in {constant(frozenset(schema.labels))}:",
        "    return None",
        f"confidence = {confidence}",
        "if confidence.__class__ is not float or not 0.0 <= confidence <= 1.0:",
        "    return None",
    ]


_quote = json.encoder.encode_basestring_ascii


# Per tuple of field names, in insertion order: the names sorted, the
# picker that puts the values into that order, and canonical_key's text as
# a list with a None slot for each value (odd positions). Both keys read
# it. Cleared when full, so any number of distinct name tuples costs
# bounded memory. An entry depends on the names alone, so threads that race
# here only rebuild one.
_ORDER_CAP = 256
_orders: dict[tuple, tuple[tuple, Callable[[Any], Any], list]] = {}


def _order(names: tuple) -> Optional[tuple[tuple, Callable[[Any], Any], list]]:
    if not all(isinstance(name, str) for name in names):
        return None  # the caller names the first bad name or value
    order = sorted(range(len(names)), key=names.__getitem__)
    parts: list = []
    for n, i in enumerate(order):
        parts += ("," if n else "{") + _quote(names[i]) + ":", None
    parts.append("}" if order else "{}")
    pick = itemgetter(*order) if len(order) > 1 else tuple
    entry = tuple(names[i] for i in order), pick, parts
    if len(_orders) >= _ORDER_CAP:
        _orders.clear()
    _orders[names] = entry
    return entry


# Per grid cell value: its piece of a key. A lookup collapses exactly what
# the key collapses (3 and 3.0, 0.0 and -0.0 are equal dict keys), and only
# exact ints and floats are looked up, so a bool never meets its equal int.
# Filled while it holds fewer than _CELL_CAP entries, a row at a time, and
# never cleared (see canonical_key). An entry depends on its value alone, so
# threads that race here only write the same piece twice.
_CELL_CAP = 4096
_NUMBERS = frozenset((int, float))
_cells: dict[Any, str] = {}


def _grid(rows: list) -> Optional[str]:
    """The piece of a list of lists of exact ints and floats, else None."""
    joined = []  # each row's cell pieces, comma-joined
    for row in rows:
        if row.__class__ is not list or not _NUMBERS.issuperset(map(type, row)):
            return None
        try:
            joined.append(",".join(map(_cells.__getitem__, row)))
        except KeyError:
            pieces = ['["n","%.17g"]' % (v + 0.0) for v in row]
            if len(_cells) < _CELL_CAP:
                _cells.update(zip(row, pieces))
            joined.append(",".join(pieces))
    if not joined:
        return '["l",[]]'
    # Rows joined straight into the grid piece, not %-formatted one by one:
    # fewer strings per key, and a grid piece built by % read about 0.3 MB
    # more peak RSS on the grid_uncertainty benchmark workload (about 31 MB).
    return "".join(('["l",[["l",[', ']],["l",['.join(joined), "]]]]"))


def canonical_key(fields: Mapping[str, Any]) -> str:
    """A stable text identity for a record's input fields.

    Two field maps get the same key exactly when they hold the same values
    (3 and 3.0 collapse, -0.0 and 0.0 collapse, key order never matters).
    Used for split's order and uncertainty reachability; value_key is its
    hashable twin for lookups.

    The key is compact JSON: an object whose names are the field names,
    sorted, and whose values are tagged lists. A number (int or float, bool
    excepted) is ``["n","<%.17g of the value as a float>"]``, a bool is
    ``["b",true]`` or ``["b",false]``, a string is ``["s","<text>"]`` and a
    list is ``["l",[<each item's tagged list>]]``. Names and strings are
    escaped as ``json.dumps`` escapes them with ``ensure_ascii``, so the key
    equals ``json.dumps`` of that object with ``sort_keys=True`` and
    ``separators=(",", ":")``. For example ``{"img": [[1, 0.5]], "h": -0.0}``
    gives ``{"h":["n","0"],"img":["l",[["l",[["n","1"],["n","0.5"]]]]]}``.
    ``split`` orders records by this string, so it must never change.

    A record whose values are all exactly float, int, str or bool, or grids
    (exact lists of exact lists of exact ints and floats, ragged or empty
    ones included), is keyed from a template: the sorted, quoted names with
    a slot for each value, cached per tuple of field names in insertion
    order. The cache holds at most _ORDER_CAP (256) name tuples and is
    emptied when full. A grid's cells are read from a memo of cell pieces
    keyed by value, where equal values (3 and 3.0, 0.0 and -0.0) share the
    one piece the key gives them both. A row with a cell the memo lacks is
    formatted inline and added whole while the memo holds fewer than
    _CELL_CAP (4096) entries; the memo is never cleared, so once full it
    serves the values it holds and a stream of distinct values costs an
    inline format per row. Every other record (a subclass of str, int or
    float, any other list, a bad value or name) is rendered from the shape
    tokens and numbers value_key is built from, so keys and exceptions do
    not depend on the path taken.

    Raises FormatError for a field name that is not a string and for a value
    that is none of the above (a dict, None, ...); fields are walked in
    insertion order, so the error names the first such field or value. A
    huge int that no float can hold raises OverflowError. Lists of any depth
    are keyed; a list nested in itself raises FormatError.
    """
    names = tuple(fields)
    entry = _orders.get(names) or _order(names)
    if entry is None:
        return _render_key(fields)
    values = []
    for value in fields.values():
        kind = value.__class__
        if kind is float or kind is int:
            # %.17g round-trips every float; +0.0 so -0.0 and 0.0 collapse.
            values.append('["n","%.17g"]' % (value + 0.0))
        elif kind is str:
            values.append('["s",%s]' % _quote(value))
        elif kind is bool:
            values.append('["b",true]' if value else '["b",false]')
        elif kind is list and (grid := _grid(value)) is not None:
            values.append(grid)
        else:
            return _render_key(fields)
    # join, not %-formatting: a key built by % keeps the spare room its
    # buffer grew, about 1.2 MB more RSS over the 50k keys of the
    # gated_simulate benchmark's oracle.
    _, pick, parts = entry
    parts = parts.copy()
    parts[1::2] = pick(values)
    return "".join(parts)


class _Token:
    """A shape token that no str or None equals; see value_key. It
    pickles as a reference to its module-level name, so a key keeps its
    meaning in another process."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return self.name

    def __reduce__(self) -> str:
        return self.name


_TRUE = _Token("_TRUE")
_FALSE = _Token("_FALSE")
_OPEN = _Token("_OPEN")
_CLOSE = _Token("_CLOSE")
_BOOLS = {_TRUE: True, _FALSE: False}
_NAN = float("nan")

# Per shape: the one tuple every key with that shape shares. Cleared when
# full, so any stream of records costs bounded memory; an entry depends on
# its key alone, so threads that race here only build an equal one twice.
_SHAPE_CAP = 1024
_shapes: dict[tuple, tuple] = {}


def _scalar_tokens(value: Any, shape: list, numbers: list) -> None:
    """Add the tokens of a value that is not a list; FormatError for a
    value no record holds."""
    kind = type(value)
    if kind is float or kind is int:
        shape.append(None)
        numbers.append(value + 0.0)
    elif kind is str:
        shape.append(value)
    elif kind is bool:
        shape.append(_TRUE if value else _FALSE)
    elif isinstance(value, (int, float)):
        shape.append(None)
        numbers.append(float(value) + 0.0)
    elif isinstance(value, str):
        shape.append(str.__str__(value))  # the exact str of equal text
    else:
        raise FormatError(f"value {value!r} cannot appear in a record")


def _value_tokens(value: Any, shape: list, numbers: list) -> None:
    """Add one value's shape tokens and numbers; see value_key. Both keys
    raise their value errors here.

    Nested lists are walked with an explicit stack of item iterators, not
    by recursion, so a list nested as deeply as the JSON decoder allows is
    keyed too. A list met again inside itself raises FormatError.
    """
    if not isinstance(value, list):
        _scalar_tokens(value, shape, numbers)
        return
    stack = [(id(value), iter(value))]
    walking = {id(value)}  # the lists on the stack; one met again is a cycle
    shape.append(_OPEN)
    while stack:
        for item in stack[-1][1]:
            if isinstance(item, list):
                if id(item) in walking:
                    raise FormatError("a list that contains itself cannot appear in a record")
                walking.add(id(item))
                stack.append((id(item), iter(item)))
                shape.append(_OPEN)
                break
            _scalar_tokens(item, shape, numbers)
        else:
            walking.discard(stack.pop()[0])
            shape.append(_CLOSE)


_PIECES = {_TRUE: '["b",true]', _FALSE: '["b",false]', _OPEN: '["l",['}


def _render_key(fields: Mapping[str, Any]) -> str:
    """canonical_key rendered from each value's tokens and numbers. The
    fields are walked in insertion order, so the first bad name or value
    raises."""
    keyed = []
    for name, value in fields.items():
        if not isinstance(name, str):
            raise FormatError(f"field name {name!r} is not a string")
        shape: list = []
        numbers: list = []
        _value_tokens(value, shape, numbers)
        number = iter(numbers).__next__
        parts: list = []
        for token in shape:
            if token is _CLOSE:
                parts.append("]]")
                continue
            if parts and parts[-1] != '["l",[':
                parts.append(",")  # after an item or a closed list
            if token is None:
                parts.append('["n","%.17g"]' % number())
            elif token.__class__ is str:
                parts.append('["s",%s]' % _quote(token))
            else:
                parts.append(_PIECES[token])
        keyed.append((name, "".join(parts)))
    keyed.sort()
    return "{%s}" % ",".join([_quote(name) + ":" + text for name, text in keyed])


def value_key(fields: Mapping[str, Any]) -> tuple[tuple, tuple, bytes]:
    """A hashable identity for a record's input fields, equal for two field
    maps exactly when their canonical_key strings are equal. Table
    classifiers are keyed by it.

    The key is the flat triple (names, shape, numbers). names holds the
    field names, sorted. numbers packs every number of the record (int or
    float, bool excepted), walked in that order and depth first, as
    doubles: each is v + 0.0, so 3 and 3.0 pack alike and -0.0 packs as
    0.0, and every NaN packs as one bit pattern. shape holds one token per
    value, in the same order: None for a number, a string's own text, a
    sentinel for true and one for false, and a list as an open sentinel,
    its items' tokens and a close sentinel. The shape holds no tuple, so
    hashing it never recurses however deep the lists; keys of one shape
    share one shape tuple from a memo of at most _SHAPE_CAP (1024) shapes,
    emptied when full. The names come from canonical_key's names-order
    cache.

    A record no key holds raises what canonical_key raises, with the same
    text, because both raise from the same walk: when a name is not a
    string or a value fails, the record is walked again in insertion order
    by canonical_key's renderer, which raises for the first offender.
    That is FormatError for a name that is not a string, a value that is
    no number, string, bool or list, and a list nested in itself;
    OverflowError for an int no float can hold. key_input turns a key back
    into fields.
    """
    entry = _orders.get(tuple(fields)) or _order(tuple(fields))
    if entry is None:  # a name is not a string
        _render_key(fields)
    names, pick, _ = entry
    shape: list = []
    numbers: list = []
    try:
        for value in pick(tuple(fields.values())):
            kind = value.__class__
            if kind is float or kind is int:
                shape.append(None)
                numbers.append(value + 0.0)
            elif kind is str:
                shape.append(value)
            else:
                _value_tokens(value, shape, numbers)
    except (FormatError, OverflowError):
        # The values were walked in name order; walk them in insertion order
        # to raise for the first one that fails.
        _render_key(fields)
        raise
    total = sum(numbers)
    if total != total:  # a NaN, or inf and -inf
        numbers = [_NAN if v != v else v for v in numbers]
    shape_key = tuple(shape)
    shared = _shapes.get(shape_key)
    if shared is None:
        if len(_shapes) >= _SHAPE_CAP:
            _shapes.clear()
        shared = _shapes[shape_key] = shape_key
    return names, shared, struct.pack(f"{len(numbers)}d", *numbers)


def _json_number(value: float) -> Any:
    return int(value) if value.is_integer() and abs(value) < 1e15 else value


def key_input(key: tuple[tuple, tuple, bytes]) -> dict[str, Any]:
    """The input fields a value_key stands for, in name order, as a table
    file writes them: a number is an int when it is integral and below 1e15
    in magnitude, else a float."""
    names, shape, packed = key
    numbers = map(_json_number, struct.unpack(f"{len(packed) // 8}d", packed))
    values: list = []
    stack = [values]
    for token in shape:
        if token is None:
            stack[-1].append(next(numbers))
        elif token.__class__ is str:
            stack[-1].append(token)
        elif token is _OPEN:
            stack.append([])
            stack[-2].append(stack[-1])
        elif token is _CLOSE:
            stack.pop()
        else:
            stack[-1].append(_BOOLS[token])
    return dict(zip(names, values))


def record_from_json_dict(data: Any) -> FeatureRecord:
    """Read {"id"?: str, <field>: value, ...} or {"id"?, "input": {...}}."""
    if not isinstance(data, dict):
        raise FormatError(f"record must be a JSON object, got {type(data).__name__}")
    rid = data.get("id")
    if rid is not None and not isinstance(rid, str):
        raise FormatError(f"record id must be a string, got {rid!r}")
    if "input" in data:
        inner = data["input"]
        if not isinstance(inner, dict):
            raise FormatError("record key 'input' must be an object")
        return FeatureRecord(dict(inner), rid)
    fields = {k: v for k, v in data.items() if k != "id"}
    return FeatureRecord(fields, rid)


def record_to_json_dict(record: FeatureRecord) -> dict:
    data: dict[str, Any] = {"input": dict(record.fields)}
    if record.id is not None:
        data["id"] = record.id
    return data
