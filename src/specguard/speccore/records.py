"""Feature records and predictions, plus schema conformance and identity keys."""
from __future__ import annotations

import json
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


def prediction_guard(schema: Schema, constant: Callable[[Any], str]) -> list[str]:
    """Python source lines, for a generated function with a parameter
    prediction, that return None or raise unless the prediction has a str
    label on which prediction_errors finds nothing and a float confidence.

    Afterwards the locals label and confidence hold the prediction's.
    """
    return [
        "label = prediction.label",
        f"if label.__class__ is not str or label not in {constant(frozenset(schema.labels))}:",
        "    return None",
        "confidence = prediction.confidence",
        "if confidence.__class__ is not float or not 0.0 <= confidence <= 1.0:",
        "    return None",
    ]


_quote = json.encoder.encode_basestring_ascii


def _items(values: list) -> list[str]:
    """The pieces of a list's items; grid cells are encoded without a call."""
    return [
        '["n","%.17g"]' % (v + 0.0) if type(v) is float or type(v) is int else _encode(v)
        for v in values
    ]


def _encode(value: Any) -> str:
    """One value's piece of a canonical key; see canonical_key."""
    kind = type(value)
    if kind is float or kind is int:
        # %.17g round-trips every float; +0.0 so -0.0 and 0.0 collapse.
        return '["n","%.17g"]' % (value + 0.0)
    if kind is str:
        return '["s",%s]' % _quote(value)
    if kind is bool:
        return '["b",true]' if value else '["b",false]'
    if isinstance(value, list):
        return '["l",[%s]]' % ",".join(_items(value))
    if isinstance(value, (int, float)):
        return '["n","%.17g"]' % (float(value) + 0.0)
    if isinstance(value, str):
        return '["s",%s]' % _quote(value)
    raise FormatError(f"value {value!r} cannot appear in a record")


# Per tuple of field names, in insertion order: the key's text as a list
# with a None slot for each value (odd positions), and the picker that puts
# the values into name order. Cleared when full, so any number of distinct
# name tuples costs bounded memory. An entry depends on the names alone, so
# threads that race here only rebuild one.
_TEMPLATE_CAP = 256
_templates: dict[tuple, tuple[list, Callable[[list], Any]]] = {}


def _template(names: tuple) -> Optional[tuple[list, Callable[[list], Any]]]:
    if not all(isinstance(name, str) for name in names):
        return None  # the spliced path names the first bad name or value
    order = sorted(range(len(names)), key=names.__getitem__)
    parts: list = []
    for n, i in enumerate(order):
        parts += ("," if n else "{") + _quote(names[i]) + ":", None
    parts.append("}" if order else "{}")
    entry = parts, itemgetter(*order) if len(order) > 1 else tuple
    if len(_templates) >= _TEMPLATE_CAP:
        _templates.clear()
    _templates[names] = entry
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
    Used for deduplication and reachability memoization.

    The key is compact JSON: an object whose names are the field names,
    sorted, and whose values are tagged lists. A number (int or float, bool
    excepted) is ``["n","<%.17g of the value as a float>"]``, a bool is
    ``["b",true]`` or ``["b",false]``, a string is ``["s","<text>"]`` and a
    list is ``["l",[<each item's tagged list>]]``. Names and strings are
    escaped as ``json.dumps`` escapes them with ``ensure_ascii``, so the key
    equals ``json.dumps`` of that object with ``sort_keys=True`` and
    ``separators=(",", ":")``. For example ``{"img": [[1, 0.5]], "h": -0.0}``
    gives ``{"h":["n","0"],"img":["l",[["l",[["n","1"],["n","0.5"]]]]]}``.
    ``split`` orders records by this string and table-classifier entries are
    looked up by it, so it must never change.

    A record whose values are all exactly float, int, str or bool, or grids
    (exact lists of exact lists of exact ints and floats, ragged or empty
    ones included), is keyed from a template: the sorted, quoted names with
    a slot for each value, cached per tuple of field names in insertion
    order. The cache holds at most _TEMPLATE_CAP (256) name tuples and is
    emptied when full. A grid's cells are read from a memo of cell pieces
    keyed by value, where equal values (3 and 3.0, 0.0 and -0.0) share the
    one piece the key gives them both. A row with a cell the memo lacks is
    formatted inline and added whole while the memo holds fewer than
    _CELL_CAP (4096) entries; the memo is never cleared, so once full it
    serves the values it holds and a stream of distinct values costs an
    inline format per row. Every other record (any other list, a subclass,
    a bad value or name) is spliced together piece by piece, so keys and
    exceptions do not depend on the path taken.

    Raises FormatError for a field name that is not a string and for a value
    that is none of the above (a dict, None, ...); fields are encoded in
    insertion order, so the error names the first such field or value. A
    huge int that no float can hold raises OverflowError.
    """
    names = tuple(fields)
    entry = _templates.get(names) or _template(names)
    if entry is None:
        return _spliced_key(fields)
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
            return _spliced_key(fields)
    # join, not %-formatting: a key built by % keeps the spare room its
    # buffer grew, about 1.2 MB more RSS over the 50k keys of the
    # gated_simulate benchmark's oracle.
    parts, pick = entry
    parts = parts.copy()
    parts[1::2] = pick(values)
    return "".join(parts)


def _spliced_key(fields: Mapping[str, Any]) -> str:
    """canonical_key, one piece at a time."""
    encoded = []
    for name, value in fields.items():
        if not isinstance(name, str):
            raise FormatError(f"field name {name!r} is not a string")
        encoded.append((name, _items(value) if isinstance(value, list) else _encode(value)))
    encoded.sort()
    # A list field's item pieces are joined only into the key itself. Joining
    # them first makes a short-lived key-sized string per call, and between
    # the keys a closure keeps those fragment the heap: about 1 MB more peak
    # RSS on the grid_uncertainty benchmark workload (about 30 MB).
    parts = []
    for name, piece in encoded:
        parts += (",", _quote(name), ":")
        if isinstance(piece, list):
            parts.append('["l",[')
            parts += [s for item in piece for s in (item, ",")][:-1]
            parts.append("]]")
        else:
            parts.append(piece)
    parts[:1] = ["{"]  # the leading comma, if any, becomes the opening brace
    parts.append("}")
    return "".join(parts)


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
