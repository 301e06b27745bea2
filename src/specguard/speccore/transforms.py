"""Input transformations and output transforms for metamorphic relations.

A Transformation rewrites an input record (shift a grid, scale a field,
remap fields through expressions). An OutputTransform says what the expected
prediction becomes: unchanged (invariant) or relabeled (equivariant).
"""
from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any, Mapping, Optional, Union

from ..errors import FormatError, TransformError, TypeCheckError
from ..speclang.ast import Expression, to_source
from ..speclang.evaluate import evaluate
from ..speclang.parser import parse
from ..speclang.schema import (
    BooleanType,
    CategoryType,
    GridType,
    IntegerType,
    NumberType,
    Schema,
    is_number,
    value_errors,
)
# type_errors is not called here; it stays a module attribute because
# bench/tracer.py times the typecheck layer under both names in this module.
from ..speclang.typecheck import BOOLEAN, NUMBER, STRING, type_errors, typecheck  # noqa: F401
from .records import FeatureRecord, Prediction

# --------------------------------------------------------------------------
# input transformations


@dataclass(frozen=True)
class ShiftGrid:
    """Translate a grid by (dx, dy): dx columns rightward, dy rows downward.
    Cells shifted in from outside take the fill value."""

    field: str
    dx: int = 0
    dy: int = 0
    fill: float = 0.0


@dataclass(frozen=True)
class Scale:
    field: str
    k: float = 1.0


@dataclass(frozen=True)
class AddOffset:
    field: str
    c: float = 0.0


@dataclass(frozen=True)
class SetField:
    field: str
    value: Any = None


@dataclass(frozen=True)
class FieldMap:
    """field -> input-only expression, all evaluated against the original
    record, then written at once."""

    assignments: tuple[tuple[str, Expression], ...]


Op = Union[ShiftGrid, Scale, AddOffset, SetField, FieldMap]


@dataclass(frozen=True)
class Transformation:
    name: str
    op: Op


_TAG_OF_FIELD = {
    NumberType: NUMBER,
    IntegerType: NUMBER,
    BooleanType: BOOLEAN,
    CategoryType: STRING,
}


def _is_pairs(items: Any, second: type) -> bool:
    """True for a tuple or list of (str, second) pairs, each a tuple or a
    list."""
    return isinstance(items, (tuple, list)) and all(
        isinstance(pair, (tuple, list))
        and len(pair) == 2
        and isinstance(pair[0], str)
        and isinstance(pair[1], second)
        for pair in items
    )


def _shape_error(t: Transformation) -> Optional[str]:
    """What makes t no transformation at all (a Python-built one whose
    parts have the wrong types), or None. transformation_from_json_dict
    never builds one."""
    op = t.op
    if not isinstance(t.name, str):
        return f"transformation {t.name!r}: name must be a string"
    if isinstance(op, FieldMap):
        if not _is_pairs(op.assignments, object):
            return (
                f"transformation {t.name!r}: field_map must be a tuple of "
                "(field, expression) pairs"
            )
        return None
    if not isinstance(op, (ShiftGrid, Scale, AddOffset, SetField)):
        return (
            f"transformation {t.name!r}: op must be a ShiftGrid, Scale, AddOffset, SetField "
            f"or FieldMap, not {type(op).__name__}"
        )
    if not isinstance(op.field, str):
        return f"transformation {t.name!r}: field must be a string, not {op.field!r}"
    if isinstance(op, ShiftGrid) and not all(
        isinstance(d, int) and not isinstance(d, bool) for d in (op.dx, op.dy)
    ):
        return f"shift_grid in {t.name!r} needs integer dx and dy"
    return None


def validate_transformation(t: Transformation, schema: Schema) -> list[str]:
    """Every way t fails to fit schema; empty when valid."""
    shape = _shape_error(t)
    if shape is not None:
        return [shape]
    errors: list[str] = []
    op = t.op
    if isinstance(op, (ShiftGrid, Scale, AddOffset, SetField)):
        ftype = schema.fields.get(op.field)
        if ftype is None:
            errors.append(f"transformation {t.name!r} references unknown field {op.field!r}")
            return errors
        if isinstance(op, ShiftGrid):
            if not isinstance(ftype, GridType):
                errors.append(f"shift_grid in {t.name!r} needs a grid field, {op.field!r} is not")
            if not is_number(op.fill):
                errors.append(f"shift_grid fill in {t.name!r} must be a number")
        elif isinstance(op, (Scale, AddOffset)):
            if not isinstance(ftype, (NumberType, IntegerType, GridType)):
                errors.append(
                    f"transformation {t.name!r} needs a numeric or grid field, "
                    f"{op.field!r} is not"
                )
            amount = op.k if isinstance(op, Scale) else op.c
            if not is_number(amount):
                errors.append(f"transformation {t.name!r} amount must be a number")
        else:  # SetField
            errors.extend(
                f"transformation {t.name!r}: {e}" for e in value_errors(op.field, ftype, op.value)
            )
        return errors
    # FieldMap
    for field, expr in op.assignments:
        ftype = schema.fields.get(field)
        if ftype is None:
            errors.append(f"transformation {t.name!r} assigns unknown field {field!r}")
            continue
        if isinstance(ftype, GridType):
            errors.append(f"transformation {t.name!r}: field_map cannot assign grid {field!r}")
            continue
        try:
            tag = typecheck(expr, schema, output_allowed=False)
        except TypeCheckError as exc:
            errors.extend(f"transformation {t.name!r}, field {field!r}: {e}" for e in exc.errors)
            continue
        want = _TAG_OF_FIELD[type(ftype)]
        if tag != want:
            errors.append(
                f"transformation {t.name!r} assigns a {tag} to {field!r}, which holds a {want}"
            )
    return errors


def _require_integral(t: Transformation, field: str, value: float) -> float:
    if float(value) != int(value):
        raise TransformError(
            f"transformation {t.name!r} produced non-integer {value!r} "
            f"for integer field {field!r}"
        )
    return float(value)


_NUMBER_TYPES = frozenset((int, float))


def _transform_grid(
    t: Transformation, op: Union[ShiftGrid, Scale, AddOffset], grid: list
) -> list:
    """The fresh grid op makes of grid.

    The pass that builds each new row also checks the old one: a grid must be
    a list of equally long lists of ints and floats (bools are not numbers).
    """
    width = len(grid[0]) if grid and isinstance(grid[0], list) else 0
    rows = []
    for r, row in enumerate(grid):
        if not isinstance(row, list):
            raise TransformError(
                f"transformation {t.name!r}: {op.field!r} is not a grid: row {r} is {row!r}"
            )
        if len(row) != width:
            raise TransformError(
                f"transformation {t.name!r}: grid {op.field!r} is not rectangular: "
                f"row {r} has {len(row)} cells, row 0 has {width}"
            )
        # Exact ints and floats pass at C speed; subclasses get the full test.
        if not _NUMBER_TYPES.issuperset(map(type, row)):
            for col, cell in enumerate(row):
                if not isinstance(cell, (int, float)) or type(cell) is bool:
                    raise TransformError(
                        f"transformation {t.name!r}: grid {op.field!r} cell [{r}][{col}] "
                        f"is {cell!r}, not a number"
                    )
        if isinstance(op, Scale):
            k = op.k
            rows.append([x * k for x in row])
        elif isinstance(op, AddOffset):
            offset = op.c
            rows.append([x + offset for x in row])
        else:
            rows.append(row)  # the shift below slices it into a fresh list
    if not isinstance(op, ShiftGrid):
        return rows
    # Cells shifted in from outside the grid take the fill value.
    fill = op.fill
    dx = max(-width, min(width, op.dx))
    if dx >= 0:
        rows = [[fill] * dx + row[: width - dx] for row in rows]
    else:
        rows = [row[-dx:] + [fill] * -dx for row in rows]
    n_rows = len(rows)
    return [
        rows[r - op.dy] if 0 <= r - op.dy < n_rows else [fill] * width for r in range(n_rows)
    ]


def apply_transformation(
    t: Transformation, record: FeatureRecord, schema: Schema
) -> FeatureRecord:
    """Apply t to a record, returning a fresh record (no id, original untouched).

    The result shares no mutable value with the original: ShiftGrid, Scale,
    AddOffset and SetField build a fresh value for their field and deep-copy
    the others, FieldMap deep-copies the record and evaluates its assignments
    on the copy.

    Raises TransformError when the record's shape defeats the operation (a
    missing field, a grid that is not rectangular or holds a cell that is
    not an int or float, a non-numeric value to scale) or an integer field
    would receive a non-integer value.
    """
    op = t.op
    if isinstance(op, FieldMap):
        fields = copy.deepcopy(dict(record.fields))
        updates: dict[str, Any] = {}
        for field, expr in op.assignments:
            try:
                result = evaluate(expr, fields)
            except Exception as exc:
                raise TransformError(
                    f"transformation {t.name!r}, field {field!r}: {exc}"
                ) from exc
            if isinstance(schema.fields.get(field), IntegerType):
                result = _require_integral(t, field, result)
            updates[field] = result
        fields.update(updates)
        return FeatureRecord(fields, id=None)
    if op.field not in record.fields:
        raise TransformError(f"transformation {t.name!r}: record has no field {op.field!r}")
    value = record.fields[op.field]
    if isinstance(op, SetField):
        new_value = copy.deepcopy(op.value)
    elif isinstance(value, list):
        new_value = _transform_grid(t, op, value)
    elif isinstance(op, ShiftGrid):
        raise TransformError(f"transformation {t.name!r}: {op.field!r} is not a grid")
    else:
        if not is_number(value):
            raise TransformError(f"transformation {t.name!r}: {op.field!r} is not numeric")
        new_value = float(value) * op.k if isinstance(op, Scale) else float(value) + op.c
        if isinstance(schema.fields.get(op.field), IntegerType):
            new_value = _require_integral(t, op.field, new_value)
    memo: dict = {}
    fields = {
        name: new_value if name == op.field else copy.deepcopy(v, memo)
        for name, v in record.fields.items()
    }
    return FeatureRecord(fields, id=None)


# --------------------------------------------------------------------------
# output transforms


@dataclass(frozen=True)
class IdentityOutput:
    pass


@dataclass(frozen=True)
class LabelMap:
    mapping: tuple[tuple[str, str], ...]


OutputTransform = Union[IdentityOutput, LabelMap]


def validate_output_transform(g: OutputTransform, schema: Schema) -> list[str]:
    if isinstance(g, IdentityOutput):
        return []
    pairs = list(g.mapping.items()) if isinstance(g.mapping, Mapping) else g.mapping
    if not _is_pairs(pairs, str):
        return ["label_map must map labels to labels"]
    errors = []
    mapping = dict(pairs)
    for label in schema.labels:
        if label not in mapping:
            errors.append(f"label_map misses label {label!r}")
    for src, dst in mapping.items():
        if src not in schema.labels:
            errors.append(f"label_map maps unknown label {src!r}")
        if dst not in schema.labels:
            errors.append(f"label_map targets unknown label {dst!r}")
    return errors


def apply_output_transform(g: OutputTransform, prediction: Prediction) -> Prediction:
    if isinstance(g, IdentityOutput):
        return prediction
    mapping = dict(g.mapping)
    if prediction.label not in mapping:
        raise TransformError(f"label_map has no entry for label {prediction.label!r}")
    return Prediction(mapping[prediction.label], prediction.confidence)


# --------------------------------------------------------------------------
# JSON forms


def transformation_from_json_dict(data: Any) -> Transformation:
    if not isinstance(data, dict):
        raise FormatError("transformation must be a JSON object")
    name = data.get("name")
    if not isinstance(name, str) or not name:
        raise FormatError("transformation needs a non-empty string 'name'")
    kind = data.get("kind")

    def num(key: str, default: float | None = None) -> float:
        value = data.get(key, default)
        if not is_number(value):
            raise FormatError(f"transformation {name!r} key {key!r} must be a number")
        return float(value)

    def field_name() -> str:
        field = data.get("field")
        if not isinstance(field, str):
            raise FormatError(f"transformation {name!r} needs a string 'field'")
        return field

    if kind == "shift_grid":
        return Transformation(
            name,
            ShiftGrid(field_name(), int(num("dx", 0)), int(num("dy", 0)), num("fill", 0.0)),
        )
    if kind == "scale":
        return Transformation(name, Scale(field_name(), num("k")))
    if kind == "add":
        return Transformation(name, AddOffset(field_name(), num("c")))
    if kind == "set":
        if "value" not in data:
            raise FormatError(f"transformation {name!r} needs a 'value'")
        return Transformation(name, SetField(field_name(), data["value"]))
    if kind == "field_map":
        raw = data.get("map")
        if not isinstance(raw, dict) or not raw:
            raise FormatError(f"transformation {name!r} needs a non-empty 'map' object")
        assignments = []
        for field, source in sorted(raw.items()):
            if not isinstance(source, str):
                raise FormatError(f"transformation {name!r} field {field!r} must map to a string")
            assignments.append((field, parse(source)))
        return Transformation(name, FieldMap(tuple(assignments)))
    raise FormatError(f"transformation {name!r} has unknown kind {kind!r}")


def transformation_to_json_dict(t: Transformation) -> dict:
    op = t.op
    if isinstance(op, ShiftGrid):
        return {
            "name": t.name,
            "kind": "shift_grid",
            "field": op.field,
            "dx": op.dx,
            "dy": op.dy,
            "fill": op.fill,
        }
    if isinstance(op, Scale):
        return {"name": t.name, "kind": "scale", "field": op.field, "k": op.k}
    if isinstance(op, AddOffset):
        return {"name": t.name, "kind": "add", "field": op.field, "c": op.c}
    if isinstance(op, SetField):
        return {"name": t.name, "kind": "set", "field": op.field, "value": op.value}
    return {
        "name": t.name,
        "kind": "field_map",
        "map": {field: to_source(expr) for field, expr in op.assignments},
    }


def output_transform_from_json_dict(data: Any) -> OutputTransform:
    if not isinstance(data, dict):
        raise FormatError("output transform must be a JSON object")
    kind = data.get("kind")
    if kind == "identity":
        return IdentityOutput()
    if kind == "label_map":
        raw = data.get("map")
        if not isinstance(raw, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in raw.items()
        ):
            raise FormatError("label_map needs a 'map' of string to string")
        return LabelMap(tuple(sorted(raw.items())))
    raise FormatError(f"output transform has unknown kind {kind!r}")


def output_transform_to_json_dict(g: OutputTransform) -> dict:
    if isinstance(g, IdentityOutput):
        return {"kind": "identity"}
    return {"kind": "label_map", "map": dict(g.mapping)}
