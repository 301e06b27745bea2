"""Schema construction rules, record conformance, and canonical identity keys."""
from __future__ import annotations

import enum
import json
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import canonical_oracle as oracle
from specguard.errors import FormatError
from specguard.speccore import records
from specguard.speccore.records import (
    FeatureRecord,
    Prediction,
    canonical_key,
    conformance_errors,
    prediction_errors,
    record_from_json_dict,
    record_to_json_dict,
)
from specguard.speclang.schema import (
    BooleanType,
    CategoryType,
    GridType,
    IntegerType,
    NumberType,
    Schema,
    schema_from_json_dict,
    schema_to_json_dict,
)


def make_schema():
    return Schema(
        {
            "height": NumberType(),
            "count": IntegerType(),
            "flag": BooleanType(),
            "kind": CategoryType(("car", "bike")),
            "img": GridType(2, 2),
        },
        ("yes", "no"),
    )


class TestSchemaValidation:
    def test_empty_labels_rejected(self):
        with pytest.raises(FormatError, match="label alphabet is empty"):
            Schema({"x": NumberType()}, ())

    def test_duplicate_labels_rejected(self):
        with pytest.raises(FormatError, match="duplicates"):
            Schema({}, ("a", "a"))

    def test_zero_sized_grid_rejected(self):
        with pytest.raises(FormatError, match="dimensions < 1"):
            Schema({"g": GridType(0, 3)}, ("a",))

    def test_empty_category_rejected(self):
        with pytest.raises(FormatError, match="has no values"):
            Schema({"k": CategoryType(())}, ("a",))

    def test_duplicate_category_values_rejected(self):
        with pytest.raises(FormatError, match="duplicate values"):
            Schema({"k": CategoryType(("x", "x"))}, ("a",))

    def test_json_round_trip(self):
        schema = make_schema()
        assert schema_from_json_dict(schema_to_json_dict(schema)) == schema

    def test_unknown_field_type_rejected(self):
        with pytest.raises(FormatError, match="unknown type"):
            schema_from_json_dict({"fields": {"x": {"type": "complex"}}, "labels": ["a"]})

    def test_grid_needs_integer_dimensions(self):
        with pytest.raises(FormatError, match="integer 'rows' and 'cols'"):
            schema_from_json_dict(
                {"fields": {"g": {"type": "grid", "rows": "2", "cols": 2}}, "labels": ["a"]}
            )


class TestConformance:
    def test_conforming_record(self):
        fields = {
            "height": 1.5,
            "count": 3,
            "flag": True,
            "kind": "car",
            "img": [[0, 1], [2, 3]],
        }
        assert conformance_errors(fields, make_schema()) == []

    def test_missing_and_unknown_fields(self):
        errors = conformance_errors({"height": 1.0, "extra": 2}, make_schema())
        assert any("missing field 'count'" in e for e in errors)
        assert any("unknown field 'extra'" in e for e in errors)

    @pytest.mark.parametrize(
        "field,value,fragment",
        [
            ("height", "tall", "finite number"),
            ("height", float("nan"), "finite number"),
            ("height", float("inf"), "finite number"),
            ("height", True, "finite number"),  # bools are not numbers
            ("count", 2.5, "must be an integer"),
            ("flag", 1, "must be a boolean"),
            ("kind", "plane", "outside"),
            ("kind", 7, "category string"),
            ("img", [[0, 1]], "2 rows"),
            ("img", [[0], [1]], "2 cells"),
            ("img", [[0, "x"], [1, 2]], "finite number"),
        ],
    )
    def test_bad_field_values(self, field, value, fragment):
        fields = {
            "height": 1.5,
            "count": 3,
            "flag": True,
            "kind": "car",
            "img": [[0, 1], [2, 3]],
        }
        fields[field] = value
        errors = conformance_errors(fields, make_schema())
        assert any(fragment in e for e in errors), errors

    def test_integer_valued_float_conforms_to_integer(self):
        assert conformance_errors(
            {"height": 1, "count": 3.0, "flag": False, "kind": "bike", "img": [[0, 0], [0, 0]]},
            make_schema(),
        ) == []


class TestPredictionErrors:
    def test_good(self):
        assert prediction_errors(Prediction("yes", 0.5), make_schema()) == []
        assert prediction_errors(Prediction("no"), make_schema()) == []

    def test_unknown_label(self):
        errors = prediction_errors(Prediction("maybe", 0.5), make_schema())
        assert any("not in the alphabet" in e for e in errors)

    @pytest.mark.parametrize("confidence", [-0.1, 1.1, float("nan")])
    def test_confidence_out_of_range(self, confidence):
        errors = prediction_errors(Prediction("yes", confidence), make_schema())
        assert any("not in [0, 1]" in e for e in errors)

    def test_confidence_boundaries_are_included(self):
        assert prediction_errors(Prediction("yes", 0.0), make_schema()) == []
        assert prediction_errors(Prediction("yes", 1.0), make_schema()) == []


class TestCanonicalKey:
    def test_field_order_never_matters(self):
        assert canonical_key({"a": 1, "b": 2}) == canonical_key({"b": 2, "a": 1})

    def test_int_and_equal_float_collapse(self):
        assert canonical_key({"x": 3}) == canonical_key({"x": 3.0})

    def test_negative_zero_collapses(self):
        assert canonical_key({"x": -0.0}) == canonical_key({"x": 0.0})

    def test_bool_never_collapses_with_number(self):
        assert canonical_key({"x": True}) != canonical_key({"x": 1})
        assert canonical_key({"x": False}) != canonical_key({"x": 0})

    def test_string_never_collapses_with_number(self):
        assert canonical_key({"x": "1"}) != canonical_key({"x": 1})

    def test_different_values_differ(self):
        assert canonical_key({"x": [[0, 1]]}) != canonical_key({"x": [[1, 0]]})

    def test_rejects_unrepresentable_values(self):
        with pytest.raises(FormatError):
            canonical_key({"x": {"nested": 1}})

    @settings(suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.dictionaries(
            st.sampled_from(["a", "b", "c"]),
            st.one_of(
                st.booleans(),
                st.integers(-1000, 1000),
                st.floats(allow_nan=False, allow_infinity=False),
                st.text(max_size=5),
            ),
            max_size=3,
        )
    )
    def test_key_is_deterministic_and_order_free(self, fields):
        key = canonical_key(fields)
        assert key == canonical_key(dict(reversed(list(fields.items()))))
        assert key == canonical_key(fields)

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_distinct_floats_get_distinct_keys(self, x):
        # +0.0/-0.0 collapse by design; everything else must stay apart
        if x != 0.0:
            assert canonical_key({"v": x}) != canonical_key({"v": x + abs(x) * 1e-3 + 1.0})

    def test_rejects_non_string_field_names(self):
        with pytest.raises(FormatError, match="field name 1 is not a string"):
            canonical_key({"a": 1, 1: 2})


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Tag(str):
    pass


class Reading(float):
    pass


KEY_NAMES = st.one_of(
    st.text(max_size=6),
    st.sampled_from(['"', "\\", "\n", "\x00", "\x7f", "é", "名前", "\u2028", "\ud800", "a b"]),
    st.sampled_from(["%", "%s", "%%", "{", "}", "%(a)s"]),  # template syntax
)
KEY_LEAVES = st.one_of(
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**1024),  # beyond float range: OverflowError
    st.floats(),  # nan, ±inf and -0.0 included
    st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf")]),
    st.text(max_size=5),
    st.sampled_from([Level.LOW, Level.HIGH, Tag("t"), Tag('q"\u00e9'), Reading(-0.0)]),
    st.sampled_from([None, {}, {"k": 1}]),
)
KEY_VALUES = st.recursive(KEY_LEAVES, lambda inner: st.lists(inner, max_size=4), max_leaves=12)


EXACT_CELLS = st.one_of(
    st.integers(-3, 3),
    st.floats(-3, 3),
    st.floats(),
    st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf"), 2**53 + 1, 2**1024]),
)
GRID_CELLS = st.one_of(
    EXACT_CELLS,
    # Off the template path: the whole record is spliced.
    st.sampled_from([True, False, Level.LOW, Reading(-0.0), Reading(2.5), "s", [1.0], None]),
)
GRID_ROWS = st.one_of(
    st.lists(GRID_CELLS, max_size=4),
    st.sampled_from([(1, 2), 3, "row", None]),  # not a list
)
GRIDS = st.one_of(
    st.integers(0, 4).flatmap(  # rectangular, of exact numbers
        lambda cols: st.lists(st.lists(EXACT_CELLS, min_size=cols, max_size=cols), max_size=4)
    ),
    st.lists(GRID_ROWS, max_size=4),  # ragged or empty rows, any cell or row
)


def key_outcome(key_fn, fields):
    try:
        return key_fn(fields)
    except Exception as exc:  # the exception itself is the outcome compared
        return type(exc), str(exc)


class TestCanonicalKeyOracle:
    """canonical_key against the tagged-list-then-json.dumps encoder it
    replaced (tests/canonical_oracle.py): the same string, or the same
    exception with the same message."""

    @settings(max_examples=400, suppress_health_check=[HealthCheck.too_slow])
    @given(st.dictionaries(KEY_NAMES, KEY_VALUES, max_size=4))
    def test_matches_the_oracle(self, fields):
        want = key_outcome(oracle.canonical_key, fields)
        records._templates.clear()
        assert key_outcome(canonical_key, fields) == want  # cold template cache
        assert key_outcome(canonical_key, fields) == want  # warm

    @settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow])
    @given(st.dictionaries(KEY_NAMES, KEY_LEAVES, max_size=5), st.randoms())
    def test_one_key_whatever_the_insertion_order(self, fields, rnd):
        items = list(fields.items())
        rnd.shuffle(items)
        want = key_outcome(oracle.canonical_key, fields)
        if isinstance(want, tuple):  # a bad value: the first one inserted is named
            return
        assert key_outcome(canonical_key, fields) == want
        assert key_outcome(canonical_key, dict(items)) == want

    def test_keys_past_the_template_cache_cap_match_the_oracle(self):
        records._templates.clear()
        cap = records._TEMPLATE_CAP
        maps = [{f"f{i}": i, "%s": "x", f"g{i % 7}": i / 3} for i in range(2 * cap + 5)]
        for fields in maps + maps[::-1]:
            assert canonical_key(fields) == oracle.canonical_key(fields)
        assert 0 < len(records._templates) <= cap

    @settings(max_examples=400, suppress_health_check=[HealthCheck.too_slow])
    @given(st.dictionaries(KEY_NAMES, st.one_of(GRIDS, KEY_LEAVES), max_size=4))
    def test_grids_match_the_oracle(self, fields):
        for order in (fields, dict(reversed(fields.items()))):
            want = key_outcome(oracle.canonical_key, order)
            records._templates.clear()
            records._cells.clear()
            assert key_outcome(canonical_key, order) == want  # cold memos
            assert key_outcome(canonical_key, order) == want  # warm

    def test_cell_memo_serves_equal_values_of_either_type(self):
        records._cells.clear()
        canonical_key({"g": [[0, 3, 2**53 + 1]]})
        for grid in ([[-0.0, 3.0, 2.0**53]], [[0.0, 3, 2**53 + 1]], [[False, True]]):
            assert canonical_key({"g": grid}) == oracle.canonical_key({"g": grid})

    def test_cell_memo_stops_filling_at_its_cap(self):
        records._cells.clear()
        cap = records._CELL_CAP
        rng = random.Random(3)
        grids = [[[rng.random() for _ in range(8)] for _ in range(8)] for _ in range(cap // 32)]
        for grid in grids:  # 2 * cap distinct cell values
            fields = {"img": grid, "n": 1}
            assert canonical_key(fields) == oracle.canonical_key(fields)
            assert len(records._cells) <= cap + 8
        full = dict(records._cells)
        for grid in grids[::-1] + [[[0.5, -0.0, 7]], [[rng.random()]]]:
            fields = {"img": grid}
            assert canonical_key(fields) == oracle.canonical_key(fields)
        assert records._cells == full

    def test_two_bad_values_name_the_first_inserted(self):
        fields = {"z": None, "a": {"k": 1}}
        with pytest.raises(FormatError, match="value None cannot"):
            canonical_key(fields)
        assert key_outcome(canonical_key, fields) == key_outcome(oracle.canonical_key, fields)


@st.composite
def deep_lists(draw, max_depth=200):
    """A list nested up to max_depth levels, built from the inside out: each
    level holds the deeper list among siblings (leaves, small lists, empty
    lists), so the nesting is ragged at every level."""
    value = draw(st.one_of(KEY_LEAVES, st.just([])))
    for _ in range(draw(st.integers(1, max_depth))):
        left = draw(st.lists(st.one_of(KEY_LEAVES, st.lists(KEY_LEAVES, max_size=2)), max_size=2))
        right = draw(st.lists(st.one_of(KEY_LEAVES, st.just([[]])), max_size=2))
        value = [*left, value, *right]
    return value


class TestDeepLists:
    """canonical_key walks nested lists with an explicit stack: any depth
    is keyed, with the oracle's key or exception."""

    @settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow])
    @given(st.dictionaries(KEY_NAMES, st.one_of(deep_lists(), KEY_LEAVES), max_size=3))
    def test_deep_and_ragged_lists_match_the_oracle(self, fields):
        want = key_outcome(oracle.canonical_key, fields)
        records._templates.clear()
        assert key_outcome(canonical_key, fields) == want
        assert key_outcome(canonical_key, fields) == want

    @pytest.mark.parametrize("depth", [700, 100_000])
    def test_nesting_past_the_recursion_limit_is_keyed(self, depth):
        value = [2.5]
        for _ in range(depth - 1):
            value = [value]
        want = "{" + '"zone":' + '["l",[' * depth + '["n","2.5"]' + "]]" * depth + "}"
        assert canonical_key({"zone": value}) == want

    def test_a_shared_list_is_not_a_cycle(self):
        row = [1, [2]]
        fields = {"g": [row, [row, row], "s"]}
        assert canonical_key(fields) == oracle.canonical_key(fields)

    def test_a_list_that_contains_itself_is_refused(self):
        loop: list = [1]
        loop.append([loop])
        with pytest.raises(FormatError, match="a list that contains itself"):
            canonical_key({"x": loop})


class TestRecordJson:
    def test_round_trip(self):
        record = FeatureRecord({"height": 1.5}, "r1")
        assert record_from_json_dict(record_to_json_dict(record)) == record

    def test_flat_form_without_input_wrapper(self):
        record = record_from_json_dict({"id": "r2", "height": 2.0})
        assert record == FeatureRecord({"height": 2.0}, "r2")

    def test_id_is_optional(self):
        assert record_from_json_dict({"height": 1.0}).id is None

    def test_non_object_rejected(self):
        with pytest.raises(FormatError, match="JSON object"):
            record_from_json_dict([1, 2])

    def test_non_string_id_rejected(self):
        with pytest.raises(FormatError, match="id must be a string"):
            record_from_json_dict({"id": 7, "height": 1.0})

    def test_json_dict_is_json_serializable(self):
        json.dumps(record_to_json_dict(FeatureRecord({"img": [[0, 1]]}, "r")))
