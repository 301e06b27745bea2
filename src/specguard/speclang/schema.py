"""Input schemas: named, typed fields plus the output label alphabet."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Union

from ..errors import FormatError


@dataclass(frozen=True)
class NumberType:
    pass


@dataclass(frozen=True)
class IntegerType:
    pass


@dataclass(frozen=True)
class BooleanType:
    pass


@dataclass(frozen=True)
class CategoryType:
    values: tuple[str, ...]


@dataclass(frozen=True)
class GridType:
    rows: int
    cols: int


FieldType = Union[NumberType, IntegerType, BooleanType, CategoryType, GridType]

_TYPE_NAMES = {
    NumberType: "number",
    IntegerType: "integer",
    BooleanType: "boolean",
    CategoryType: "category",
    GridType: "grid",
}


@dataclass(frozen=True)
class Schema:
    """Field name -> type, plus the label alphabet. Immutable once built."""

    fields: dict[str, FieldType] = field(default_factory=dict)
    labels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        errors = []
        if not self.labels:
            errors.append("label alphabet is empty")
        if len(set(self.labels)) != len(self.labels):
            errors.append("label alphabet contains duplicates")
        for name, ftype in self.fields.items():
            if isinstance(ftype, GridType) and (ftype.rows < 1 or ftype.cols < 1):
                errors.append(f"grid field {name!r} has dimensions < 1")
            if isinstance(ftype, CategoryType):
                if not ftype.values:
                    errors.append(f"category field {name!r} has no values")
                elif len(set(ftype.values)) != len(ftype.values):
                    errors.append(f"category field {name!r} has duplicate values")
        if errors:
            raise FormatError("invalid schema", errors)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self.fields == other.fields and self.labels == other.labels

    def __hash__(self) -> int:
        return hash((tuple(sorted(self.fields.items(), key=lambda kv: kv[0])), self.labels))


def is_number(value: Any) -> bool:
    """True for finite floats and for ints a float can hold; bools do not
    count as numbers."""
    if isinstance(value, bool):
        return False
    if isinstance(value, int):
        try:
            float(value)
        except OverflowError:
            return False
        return True
    return isinstance(value, float) and math.isfinite(value)


def value_errors(name: str, ftype: FieldType, value: Any) -> list[str]:
    """Describe every way value fails to fit ftype; empty when it conforms."""
    if isinstance(ftype, NumberType):
        if not is_number(value):
            return [f"field {name!r} must be a finite number, got {value!r}"]
        return []
    if isinstance(ftype, IntegerType):
        if not is_number(value) or float(value) != int(value):
            return [f"field {name!r} must be an integer, got {value!r}"]
        return []
    if isinstance(ftype, BooleanType):
        if not isinstance(value, bool):
            return [f"field {name!r} must be a boolean, got {value!r}"]
        return []
    if isinstance(ftype, CategoryType):
        if not isinstance(value, str):
            return [f"field {name!r} must be a category string, got {value!r}"]
        if value not in ftype.values:
            return [f"field {name!r} has value {value!r} outside {list(ftype.values)}"]
        return []
    if isinstance(ftype, GridType):
        if not isinstance(value, list) or len(value) != ftype.rows:
            return [f"field {name!r} must be a grid with {ftype.rows} rows"]
        errors = []
        for r, row in enumerate(value):
            if not isinstance(row, list) or len(row) != ftype.cols:
                errors.append(f"field {name!r} row {r} must have {ftype.cols} cells")
                continue
            for c, cell in enumerate(row):
                if not is_number(cell):
                    errors.append(
                        f"field {name!r} cell [{r}][{c}] must be a finite number, got {cell!r}"
                    )
        return errors
    raise TypeError(f"unknown field type: {ftype!r}")


def value_guard(ftype: FieldType, x: str, constant: Callable[[Any], str]) -> list[str]:
    """Python source lines, for a generated function, that return None
    unless the local x holds a value of an exact builtin type (float, int,
    bool, str, lists of rows) that value_errors accepts.

    They never let through a value value_errors rejects; they may reject or
    raise (OverflowError for an int no float can hold) on one it accepts,
    such as an int subclass. Afterwards a number or integer field's local
    holds its value as a float; a grid's lines also use the locals row and
    cell. constant(value) names a value (a category set, a grid size) for
    the source, so no spec data enters it as text.
    """

    def finite(v: str) -> str:
        return f"{constant(-math.inf)} < {v} < {constant(math.inf)}"

    if isinstance(ftype, NumberType):
        return [
            f"if {x}.__class__ is int:",
            f"    {x} = float({x})",
            f"elif {x}.__class__ is not float or not {finite(x)}:",
            "    return None",
        ]
    if isinstance(ftype, IntegerType):
        # value_errors compares float(value) with the int exactly.
        return [
            f"if {x}.__class__ is int:",
            f"    if float({x}) != {x}:",
            "        return None",
            f"    {x} = float({x})",
            f"elif {x}.__class__ is not float or not {x}.is_integer():",
            "    return None",
        ]
    if isinstance(ftype, BooleanType):
        return [f"if {x}.__class__ is not bool:", "    return None"]
    if isinstance(ftype, CategoryType):
        values = constant(frozenset(ftype.values))
        return [f"if {x}.__class__ is not str or {x} not in {values}:", "    return None"]
    if isinstance(ftype, GridType):
        rows, cols = constant(ftype.rows), constant(ftype.cols)
        return [
            f"if {x}.__class__ is not list or len({x}) != {rows}:",
            "    return None",
            f"for row in {x}:",
            f"    if row.__class__ is not list or len(row) != {cols}:",
            "        return None",
            "    for cell in row:",
            "        if cell.__class__ is int:",
            "            cell = float(cell)",
            f"        elif cell.__class__ is not float or not {finite('cell')}:",
            "            return None",
        ]
    raise TypeError(f"unknown field type: {ftype!r}")


def schema_to_json_dict(schema: Schema) -> dict:
    fields = {}
    for name, ftype in schema.fields.items():
        entry: dict[str, Any] = {"type": _TYPE_NAMES[type(ftype)]}
        if isinstance(ftype, CategoryType):
            entry["values"] = list(ftype.values)
        elif isinstance(ftype, GridType):
            entry["rows"] = ftype.rows
            entry["cols"] = ftype.cols
        fields[name] = entry
    return {"fields": fields, "labels": list(schema.labels)}


def schema_from_json_dict(data: Any) -> Schema:
    """Build a Schema from its JSON form. Raises FormatError on bad shape."""
    if not isinstance(data, dict):
        raise FormatError("schema must be a JSON object")
    errors: list[str] = []
    raw_fields = data.get("fields")
    raw_labels = data.get("labels")
    if not isinstance(raw_fields, dict):
        errors.append("schema key 'fields' must be an object")
        raw_fields = {}
    if not isinstance(raw_labels, list) or not all(isinstance(x, str) for x in raw_labels):
        errors.append("schema key 'labels' must be a list of strings")
        raw_labels = ["__invalid__"]
    fields: dict[str, FieldType] = {}
    for name, entry in raw_fields.items():
        if not isinstance(entry, dict):
            errors.append(f"field {name!r} must be an object")
            continue
        kind = entry.get("type")
        if kind == "number":
            fields[name] = NumberType()
        elif kind == "integer":
            fields[name] = IntegerType()
        elif kind == "boolean":
            fields[name] = BooleanType()
        elif kind == "category":
            values = entry.get("values")
            if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
                errors.append(f"category field {name!r} needs a 'values' list of strings")
                continue
            fields[name] = CategoryType(tuple(values))
        elif kind == "grid":
            rows, cols = entry.get("rows"), entry.get("cols")
            if not isinstance(rows, int) or not isinstance(cols, int):
                errors.append(f"grid field {name!r} needs integer 'rows' and 'cols'")
                continue
            fields[name] = GridType(rows, cols)
        else:
            errors.append(f"field {name!r} has unknown type {kind!r}")
    if errors:
        raise FormatError("invalid schema", errors)
    return Schema(fields, tuple(raw_labels))
