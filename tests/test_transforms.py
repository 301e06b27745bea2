"""Input transformations: golden shift cases, a shift round-trip property,
numeric ops, field maps, validation, and the JSON forms."""
from __future__ import annotations

import copy
import enum

import pytest
from hypothesis import given
from hypothesis import strategies as st

from specguard.errors import FormatError, TransformError
from specguard.speccore.records import FeatureRecord, Prediction, conformance_errors
from specguard.speccore.transforms import (
    AddOffset,
    FieldMap,
    IdentityOutput,
    LabelMap,
    Scale,
    SetField,
    ShiftGrid,
    Transformation,
    apply_output_transform,
    apply_transformation,
    output_transform_from_json_dict,
    output_transform_to_json_dict,
    transformation_from_json_dict,
    transformation_to_json_dict,
    validate_output_transform,
    validate_transformation,
)
from specguard.speclang.parser import parse
from specguard.speclang.schema import GridType, IntegerType, NumberType, Schema

SCHEMA = Schema(
    {"img": GridType(3, 3), "height": NumberType(), "count": IntegerType()},
    ("yes", "no"),
)

GRID = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]


def rec(**overrides):
    fields = {"img": [list(r) for r in GRID], "height": 5.0, "count": 4}
    fields.update(overrides)
    return FeatureRecord(fields, "r0")


class TestShiftGrid:
    def test_right_shift_fills_left_column(self):
        t = Transformation("right", ShiftGrid("img", dx=1))
        out = apply_transformation(t, rec(), SCHEMA)
        assert out.fields["img"] == [[0.0, 1, 2], [0.0, 4, 5], [0.0, 7, 8]]

    def test_down_shift_fills_top_row(self):
        t = Transformation("down", ShiftGrid("img", dy=1))
        out = apply_transformation(t, rec(), SCHEMA)
        assert out.fields["img"] == [[0.0, 0.0, 0.0], [1, 2, 3], [4, 5, 6]]

    def test_diagonal_shift_with_custom_fill(self):
        t = Transformation("diag", ShiftGrid("img", dx=-1, dy=-1, fill=9.0))
        out = apply_transformation(t, rec(), SCHEMA)
        assert out.fields["img"] == [[5, 6, 9.0], [8, 9, 9.0], [9.0, 9.0, 9.0]]

    def test_shift_by_zero_is_identity(self):
        t = Transformation("none", ShiftGrid("img"))
        assert apply_transformation(t, rec(), SCHEMA).fields["img"] == GRID

    def test_shift_beyond_extent_is_all_fill(self):
        t = Transformation("far", ShiftGrid("img", dx=3))
        out = apply_transformation(t, rec(), SCHEMA)
        assert out.fields["img"] == [[0.0] * 3] * 3

    def test_original_record_is_untouched(self):
        record = rec()
        apply_transformation(Transformation("right", ShiftGrid("img", dx=1)), record, SCHEMA)
        assert record.fields["img"] == GRID

    def test_result_has_no_id(self):
        out = apply_transformation(Transformation("r", ShiftGrid("img", dx=1)), rec(), SCHEMA)
        assert out.id is None

    def test_non_grid_value_raises(self):
        t = Transformation("right", ShiftGrid("img", dx=1))
        with pytest.raises(TransformError, match="not a grid"):
            apply_transformation(t, FeatureRecord({"img": 5}), SCHEMA)

    @given(st.integers(-3, 3), st.integers(-3, 3))
    def test_shift_then_opposite_shift_restores_interior(self, dx, dy):
        # cells that stay in range through both moves come back exactly
        there = Transformation("t", ShiftGrid("img", dx=dx, dy=dy))
        back = Transformation("b", ShiftGrid("img", dx=-dx, dy=-dy))
        out = apply_transformation(back, apply_transformation(there, rec(), SCHEMA), SCHEMA)
        grid = out.fields["img"]
        for r in range(3):
            for c in range(3):
                if 0 <= r + dy < 3 and 0 <= c + dx < 3:
                    assert grid[r][c] == GRID[r][c]


class TestNumericOps:
    def test_scale_number_field(self):
        out = apply_transformation(Transformation("x2", Scale("height", 2.0)), rec(), SCHEMA)
        assert out.fields["height"] == 10.0

    def test_scale_applies_to_every_grid_cell(self):
        out = apply_transformation(Transformation("x10", Scale("img", 10.0)), rec(), SCHEMA)
        assert out.fields["img"][2][2] == 90.0

    def test_add_offset(self):
        out = apply_transformation(Transformation("+1", AddOffset("height", 1.5)), rec(), SCHEMA)
        assert out.fields["height"] == 6.5

    def test_integer_field_rejects_fractional_result(self):
        with pytest.raises(TransformError, match="non-integer"):
            apply_transformation(Transformation("+half", AddOffset("count", 0.5)), rec(), SCHEMA)

    def test_integer_field_accepts_integral_result(self):
        out = apply_transformation(Transformation("x3", Scale("count", 3.0)), rec(), SCHEMA)
        assert out.fields["count"] == 12.0

    @pytest.mark.parametrize(
        "op, record",
        [
            (Scale("count", 1e308), rec()),
            (AddOffset("count", 1e308), rec(count=10**308)),
            (Scale("height", 1e308), rec()),
            (AddOffset("height", -1e308), rec(height=-1e308)),
        ],
        ids=["scaled_integer", "offset_integer", "scaled_number", "offset_number"],
    )
    def test_a_result_past_float_range_is_a_transform_error(self, op, record):
        with pytest.raises(TransformError, match="inf for field .*, not a finite number"):
            apply_transformation(Transformation("big", op), record, SCHEMA)

    @pytest.mark.parametrize(
        "op, grid, cell",
        [
            (Scale("img", 1e308), GRID, "inf for grid 'img' cell [0][1]"),
            (Scale("img", -1e308), GRID, "-inf for grid 'img' cell [0][1]"),
            (AddOffset("img", 1e308), [[1, 2, 3], [4, 1e308, 6], [7, 8, 9]],
             "inf for grid 'img' cell [1][1]"),
            (Scale("img", 10**300), [[1, 2, 3], [4, 5, 10**10], [7, 8, 9]],
             "an int of 311 digits for grid 'img' cell [1][2]"),
        ],
        ids=["scaled", "scaled_negative", "offset", "int_past_float_range"],
    )
    def test_a_grid_cell_past_float_range_is_a_transform_error(self, op, grid, cell):
        with pytest.raises(TransformError) as raised:
            apply_transformation(Transformation("big", op), rec(img=grid), SCHEMA)
        assert str(raised.value) == f"transformation 'big' produced {cell}, not a finite number"

    @pytest.mark.parametrize(
        "op, shown",
        [
            (Scale("count", 10**300), "an int of 311 digits"),
            (AddOffset("count", -(10**400)), "a negative int of 400 digits"),
            (Scale("count", 2 * 10**298), "an int of 309 digits"),  # 2e308
        ],
        ids=["scaled", "offset_negative", "just_past_float_range"],
    )
    def test_a_scalar_int_past_float_range_is_named_by_its_digits(self, op, shown):
        with pytest.raises(TransformError) as raised:
            apply_transformation(Transformation("big", op), rec(count=10**10), SCHEMA)
        assert str(raised.value) == (
            f"transformation 'big' produced {shown} for field 'count', not a finite number"
        )

    def test_a_row_whose_sum_overflows_keeps_its_finite_cells(self):
        out = apply_transformation(Transformation("x", Scale("img", 1e307)), rec(), SCHEMA)
        assert out.fields["img"][2] == [7e307, 8e307, 9e307]

    def test_missing_field_raises(self):
        with pytest.raises(TransformError, match="no field"):
            apply_transformation(
                Transformation("x", Scale("height", 2.0)), FeatureRecord({"count": 1}), SCHEMA
            )

    def test_set_field(self):
        out = apply_transformation(Transformation("reset", SetField("height", 0.0)), rec(), SCHEMA)
        assert out.fields["height"] == 0.0


class TestGridShape:
    """A grid that is not a rectangle of numbers is a TransformError naming
    the transformation and the field, for every grid operation."""

    OPS = [ShiftGrid("img", dx=1), Scale("img", 2), AddOffset("img", 1.0)]

    @pytest.mark.parametrize("op", OPS, ids=lambda op: type(op).__name__)
    @pytest.mark.parametrize(
        ("grid", "message"),
        [
            ([[1, 2, 3], [4, 5], [7, 8, 9]], r"'img' is not rectangular: row 1 has 2 cells"),
            ([[1, 2, 3], [4, 5, 6], [7, 8, 9, 10]], r"'img' is not rectangular: row 2 has 4"),
            ([[1, 2, 3], 4, [7, 8, 9]], r"'img' is not a grid: row 1 is 4"),
            ([[1, 2, 3], [4, "x", 6], [7, 8, 9]], r"'img' cell \[1\]\[1\] is 'x', not a number"),
            ([[1, 2, 3], [4, 5, 6], [7, 8, True]], r"'img' cell \[2\]\[2\] is True"),
            ([[None, 2, 3], [4, 5, 6], [7, 8, 9]], r"'img' cell \[0\]\[0\] is None"),
        ],
        ids=["short_row", "long_row", "row_not_list", "str_cell", "bool_cell", "none_cell"],
    )
    def test_bad_grid_raises_transform_error(self, op, grid, message):
        with pytest.raises(TransformError, match=r"transformation 'bad': (grid )?" + message):
            apply_transformation(Transformation("bad", op), rec(img=grid), SCHEMA)

    def test_int_factor_never_repeats_a_string_cell(self):
        grid = [["x", 2, 3], [4, 5, 6], [7, 8, 9]]
        with pytest.raises(TransformError, match="is 'x', not a number"):
            apply_transformation(Transformation("x2", Scale("img", 2)), rec(img=grid), SCHEMA)

    def test_number_subclasses_are_numbers(self):
        class Level(enum.IntEnum):
            LOW = 1

        class Reading(float):
            pass

        grid = [[Level.LOW, Reading(2.5), 3], [4, 5, 6], [7, 8, 9]]
        out = apply_transformation(Transformation("x2", Scale("img", 2)), rec(img=grid), SCHEMA)
        assert out.fields["img"][0] == [2, 5.0, 6]
        t = Transformation("r", ShiftGrid("img", dx=1))
        out = apply_transformation(t, rec(img=grid), SCHEMA)
        assert out.fields["img"][0] == [0.0, Level.LOW, Reading(2.5)]

    def test_empty_grid_stays_empty(self):
        for op in self.OPS:
            out = apply_transformation(Transformation("t", op), rec(img=[]), SCHEMA)
            assert out.fields["img"] == []


_FINITE = st.floats(-1e308, 1e308)
_CELL = st.one_of(_FINITE, st.integers(-(10**6), 10**6))
_FACTOR = st.one_of(_FINITE, st.sampled_from([1e308, -1e308, 1e307, 2, -1]))


@st.composite
def record_and_transformation(draw):
    """A schema with a drawn grid, a conforming record of it, and a
    Scale, AddOffset or ShiftGrid of any field with factors up to ±1e308."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    schema = Schema(
        {"g": GridType(rows, cols), "x": NumberType(), "n": IntegerType()}, ("yes", "no")
    )
    grid = draw(st.lists(st.lists(_CELL, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    fields = {"g": grid, "x": draw(_FINITE), "n": draw(st.integers(-(10**6), 10**6))}
    field = draw(st.sampled_from(sorted(fields)))
    op = draw(st.one_of(
        st.builds(Scale, st.just(field), _FACTOR),
        st.builds(AddOffset, st.just(field), _FACTOR),
        st.builds(ShiftGrid, st.just(field), st.integers(-3, 3), st.integers(-3, 3), _FINITE),
    ))
    return schema, FeatureRecord(fields, "r"), Transformation("t", op)


@given(record_and_transformation())
def test_every_transformed_record_conforms_to_its_schema(drawn):
    schema, record, t = drawn
    assert conformance_errors(record.fields, schema) == []
    try:
        out = apply_transformation(t, record, schema)
    except TransformError:
        return
    assert conformance_errors(out.fields, schema) == []


COPY_SCHEMA = Schema(
    {"a": GridType(2, 3), "b": GridType(2, 3), "h": NumberType()},
    ("yes", "no"),
)


def copy_record():
    return FeatureRecord(
        {"a": [[1, 2.5, -3], [4, 0.0, 6]], "b": [[7, 8, 9], [10, 11, 12]], "h": 2.0}, "r"
    )


def lists_in(value):
    if isinstance(value, list):
        yield value
        for item in value:
            yield from lists_in(item)


class TestCopyContract:
    """apply_transformation leaves the original alone and shares no list with
    it. Each expected repr (types and field order included) is what the
    deep-copy-everything implementation returned."""

    CASES = [
        (
            ShiftGrid("a", dx=1, dy=-1, fill=0.5),
            "{'a': [[0.5, 4, 0.0], [0.5, 0.5, 0.5]], 'b': [[7, 8, 9], [10, 11, 12]], 'h': 2.0}",
        ),
        (
            Scale("a", 2.0),
            "{'a': [[2.0, 5.0, -6.0], [8.0, 0.0, 12.0]], 'b': [[7, 8, 9], [10, 11, 12]], "
            "'h': 2.0}",
        ),
        (
            AddOffset("b", -1.5),
            "{'a': [[1, 2.5, -3], [4, 0.0, 6]], 'b': [[5.5, 6.5, 7.5], [8.5, 9.5, 10.5]], "
            "'h': 2.0}",
        ),
        (
            AddOffset("h", 1.5),
            "{'a': [[1, 2.5, -3], [4, 0.0, 6]], 'b': [[7, 8, 9], [10, 11, 12]], 'h': 3.5}",
        ),
        (
            SetField("b", [[0, 0, 0], [0, 0, 0]]),
            "{'a': [[1, 2.5, -3], [4, 0.0, 6]], 'b': [[0, 0, 0], [0, 0, 0]], 'h': 2.0}",
        ),
        (
            FieldMap((("h", parse("input.h * 3")),)),
            "{'a': [[1, 2.5, -3], [4, 0.0, 6]], 'b': [[7, 8, 9], [10, 11, 12]], 'h': 6.0}",
        ),
    ]

    @pytest.mark.parametrize(
        ("op", "expected"),
        CASES,
        ids=["shift_grid", "scale_grid", "add_grid", "add_number", "set", "field_map"],
    )
    def test_result_is_fresh_and_original_untouched(self, op, expected):
        record = copy_record()
        snapshot = copy.deepcopy(record.fields)
        op_snapshot = copy.deepcopy(op)
        out = apply_transformation(Transformation("t", op), record, COPY_SCHEMA)
        assert repr(out.fields) == expected
        assert record.fields == snapshot
        for lst in list(lists_in(list(out.fields.values()))):
            lst.append("mutated")
        assert record.fields == snapshot
        assert op == op_snapshot


class TestFieldMap:
    def test_assignments_read_the_original_record(self):
        # both targets read pre-update values, so a swap works
        t = Transformation(
            "swap",
            FieldMap(
                (
                    ("height", parse("input.count * 1")),
                    ("count", parse("input.height * 1")),
                )
            ),
        )
        record = FeatureRecord({"img": GRID, "height": 6.0, "count": 2})
        out = apply_transformation(t, record, SCHEMA)
        assert out.fields["height"] == 2.0
        assert out.fields["count"] == 6.0

    def test_expression_failure_is_a_transform_error(self):
        t = Transformation("bad", FieldMap((("height", parse("input.height / 0")),)))
        with pytest.raises(TransformError, match="division by zero"):
            apply_transformation(t, rec(), SCHEMA)

    @pytest.mark.parametrize("field", ["count", "height"])
    @pytest.mark.parametrize(
        "source, value",
        [
            ("input.height * 1e308", "inf"),
            ("input.height * 1e308 - input.height * 1e308", "nan"),
        ],
        ids=["inf", "nan"],
    )
    def test_a_non_finite_result_is_a_transform_error(self, field, source, value):
        t = Transformation("huge", FieldMap(((field, parse(source)),)))
        with pytest.raises(TransformError, match=f"produced {value} for field '{field}'"):
            apply_transformation(t, rec(), SCHEMA)

    def test_integer_target_enforced(self):
        t = Transformation("frac", FieldMap((("count", parse("input.count / 8")),)))
        with pytest.raises(TransformError, match="non-integer"):
            apply_transformation(t, rec(), SCHEMA)


class TestValidation:
    def test_valid_transformations_have_no_errors(self):
        for t in (
            Transformation("a", ShiftGrid("img", 1, 0)),
            Transformation("b", Scale("height", 2.0)),
            Transformation("c", AddOffset("count", 1)),
            Transformation("d", SetField("height", 3.5)),
            Transformation("e", FieldMap((("height", parse("input.height + 1")),))),
        ):
            assert validate_transformation(t, SCHEMA) == []

    def test_unknown_field(self):
        errors = validate_transformation(Transformation("a", Scale("nope", 2.0)), SCHEMA)
        assert any("unknown field" in e for e in errors)

    def test_shift_needs_grid_field(self):
        errors = validate_transformation(Transformation("a", ShiftGrid("height", 1)), SCHEMA)
        assert any("needs a grid field" in e for e in errors)

    def test_set_value_must_fit_field_type(self):
        errors = validate_transformation(Transformation("a", SetField("count", 1.5)), SCHEMA)
        assert any("integer" in e for e in errors)

    def test_field_map_rejects_grid_targets(self):
        errors = validate_transformation(
            Transformation("a", FieldMap((("img", parse("1")),))), SCHEMA
        )
        assert any("cannot assign grid" in e for e in errors)

    def test_field_map_rejects_output_refs(self):
        errors = validate_transformation(
            Transformation("a", FieldMap((("height", parse("output.confidence")),))), SCHEMA
        )
        assert any("not allowed" in e for e in errors)

    def test_field_map_type_mismatch(self):
        errors = validate_transformation(
            Transformation("a", FieldMap((("height", parse('"tall"')),))), SCHEMA
        )
        assert any("assigns a string" in e for e in errors)


class TestOutputTransforms:
    def test_identity_returns_prediction_unchanged(self):
        p = Prediction("yes", 0.7)
        assert apply_output_transform(IdentityOutput(), p) is p

    def test_label_map_swaps_and_keeps_confidence(self):
        g = LabelMap((("yes", "no"), ("no", "yes")))
        assert apply_output_transform(g, Prediction("yes", 0.7)) == Prediction("no", 0.7)

    def test_label_map_missing_entry_raises(self):
        with pytest.raises(TransformError, match="no entry"):
            apply_output_transform(LabelMap((("yes", "no"),)), Prediction("no", None))

    def test_validate_label_map_must_cover_alphabet(self):
        errors = validate_output_transform(LabelMap((("yes", "no"),)), SCHEMA)
        assert any("misses label 'no'" in e for e in errors)

    def test_validate_label_map_rejects_foreign_labels(self):
        errors = validate_output_transform(
            LabelMap((("yes", "maybe"), ("no", "yes"), ("maybe", "no"))), SCHEMA
        )
        assert any("targets unknown label 'maybe'" in e for e in errors)
        assert any("maps unknown label 'maybe'" in e for e in errors)


class TestJsonForms:
    @pytest.mark.parametrize(
        "data",
        [
            {"name": "right", "kind": "shift_grid", "field": "img", "dx": 1, "dy": 0, "fill": 0.0},
            {"name": "x2", "kind": "scale", "field": "height", "k": 2.0},
            {"name": "+1", "kind": "add", "field": "height", "c": 1.0},
            {"name": "reset", "kind": "set", "field": "height", "value": 0.0},
            {"name": "m", "kind": "field_map", "map": {"height": "input.height + 1"}},
        ],
        ids=lambda d: d["kind"],
    )
    def test_round_trip(self, data):
        t = transformation_from_json_dict(data)
        assert transformation_to_json_dict(t) == data

    def test_unknown_kind_rejected(self):
        with pytest.raises(FormatError, match="unknown kind"):
            transformation_from_json_dict({"name": "x", "kind": "rotate"})

    def test_name_required(self):
        with pytest.raises(FormatError, match="non-empty string 'name'"):
            transformation_from_json_dict({"kind": "scale", "field": "h", "k": 2})

    def test_scale_requires_numeric_k(self):
        with pytest.raises(FormatError, match="'k' must be a number"):
            transformation_from_json_dict({"name": "x", "kind": "scale", "field": "h", "k": "2"})

    def test_set_requires_value_key(self):
        with pytest.raises(FormatError, match="needs a 'value'"):
            transformation_from_json_dict({"name": "x", "kind": "set", "field": "h"})

    def test_field_map_sources_must_be_strings(self):
        with pytest.raises(FormatError, match="must map to a string"):
            transformation_from_json_dict({"name": "x", "kind": "field_map", "map": {"h": 1}})

    def test_output_transform_round_trip(self):
        for data in ({"kind": "identity"}, {"kind": "label_map", "map": {"yes": "no", "no": "yes"}}):
            assert output_transform_to_json_dict(output_transform_from_json_dict(data)) == data

    def test_output_transform_unknown_kind(self):
        with pytest.raises(FormatError, match="unknown kind"):
            output_transform_from_json_dict({"kind": "negate"})
