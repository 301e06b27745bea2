"""Schema construction rules, record conformance, and identity keys."""
from __future__ import annotations

import enum
import json
import math
import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import canonical_oracle as oracle
from specguard.errors import FormatError
from specguard.speccore import records
from specguard.speccore.classifiers import TableClassifier
from specguard.speccore.records import (
    FeatureRecord,
    Prediction,
    canonical_key,
    conformance_errors,
    key_input,
    prediction_errors,
    record_from_json_dict,
    record_to_json_dict,
    schema_key_input,
    value_key,
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
        records._orders.clear()
        assert key_outcome(canonical_key, fields) == want  # cold template cache
        assert key_outcome(canonical_key, fields) == want  # warm
        assert key_outcome(records._render_key, fields) == want  # no template

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
        assert key_outcome(records._render_key, dict(items)) == want

    def test_keys_past_the_template_cache_cap_match_the_oracle(self):
        records._orders.clear()
        cap = records._ORDER_CAP
        maps = [{f"f{i}": i, "%s": "x", f"g{i % 7}": i / 3} for i in range(2 * cap + 5)]
        for fields in maps + maps[::-1]:
            assert canonical_key(fields) == oracle.canonical_key(fields)
        assert 0 < len(records._orders) <= cap

    @settings(max_examples=400, suppress_health_check=[HealthCheck.too_slow])
    @given(st.dictionaries(KEY_NAMES, st.one_of(GRIDS, KEY_LEAVES), max_size=4))
    def test_grids_match_the_oracle(self, fields):
        for order in (fields, dict(reversed(fields.items()))):
            want = key_outcome(oracle.canonical_key, order)
            records._orders.clear()
            records._cells.clear()
            assert key_outcome(canonical_key, order) == want  # cold memos
            assert key_outcome(canonical_key, order) == want  # warm
            assert key_outcome(records._render_key, order) == want  # no template

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
def deep_lists(draw, max_depth=200, leaves=KEY_LEAVES):
    """A list nested up to max_depth levels, built from the inside out: each
    level holds the deeper list among siblings (leaves, small lists, empty
    lists), so the nesting is ragged at every level."""
    value = draw(st.one_of(leaves, st.just([])))
    for _ in range(draw(st.integers(1, max_depth))):
        left = draw(st.lists(st.one_of(leaves, st.lists(leaves, max_size=2)), max_size=2))
        right = draw(st.lists(st.one_of(leaves, st.just([[]])), max_size=2))
        value = [*left, value, *right]
    return value


class TestDeepLists:
    """canonical_key walks nested lists with an explicit stack: any depth
    is keyed, with the oracle's key or exception."""

    @settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow])
    @given(st.dictionaries(KEY_NAMES, st.one_of(deep_lists(), KEY_LEAVES), max_size=3))
    def test_deep_and_ragged_lists_match_the_oracle(self, fields):
        want = key_outcome(oracle.canonical_key, fields)
        records._orders.clear()
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


def _loop() -> list:
    loop: list = [0.5]
    loop.append([loop])
    return loop


def _twin(value, rnd):
    """A value canonical_key cannot tell from value: ints as floats, zeros
    of the other sign, fresh NaNs, strs and numbers of a subclass, lists
    copied."""
    if isinstance(value, list):
        return [_twin(item, rnd) for item in value]
    if isinstance(value, bool) or rnd.random() < 0.3:
        return value
    if isinstance(value, str):
        return Tag(value)
    if isinstance(value, (int, float)):
        try:
            number = float(value)
        except OverflowError:
            return value
        if number != number:
            return rnd.choice([float("nan"), -math.nan])
        if number == 0.0:
            return rnd.choice([0.0, -0.0, 0, Reading(-0.0)])
        return rnd.choice([number, Reading(number)])
    return value


# Few names and leaves, so that two drawn maps often hold equal values.
SMALL_LEAVES = st.sampled_from(
    [0, 0.0, -0.0, 1, 1.0, True, False, math.nan, -math.nan]
    + ["0", "", "t", Tag("t"), Level.LOW, Reading(-0.0), Reading(1.0)]
)
SMALL_MAPS = st.dictionaries(
    st.sampled_from(["a", "b"]),
    st.recursive(SMALL_LEAVES, lambda inner: st.lists(inner, max_size=2), max_leaves=4),
    max_size=2,
)
# KEY_LEAVES less the values no record holds.
VALID_LEAVES = st.one_of(
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(),  # nan, ±inf and -0.0 included
    st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 2**53 + 1]),
    st.text(max_size=5),
    st.sampled_from([Level.LOW, Level.HIGH, Tag("t"), Tag('q"\u00e9'), Reading(-0.0)]),
)
VALID_VALUES = st.one_of(
    st.recursive(VALID_LEAVES, lambda inner: st.lists(inner, max_size=4), max_leaves=12),
    st.lists(st.lists(VALID_LEAVES, max_size=4), max_size=4),  # grids, ragged or not
    deep_lists(max_depth=60, leaves=VALID_LEAVES),
)
BAD_ITEMS = {
    "valid": ("m", 1.5),
    "non-str name": (1, 2.5),
    "dict": ("d", {"k": 1}),
    "None": ("n", None),
    "huge int": ("h", 10**400),
    "huge int in a list": ("g", [[0.5], [1, 10**400]]),
    "list that contains itself": ("c", _loop()),
}


class TestValueKey:
    """value_key against canonical_key: equal keys exactly when the texts
    are equal, and the same exception with the same text where the text
    cannot be made."""

    @settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.dictionaries(
            st.one_of(KEY_NAMES, st.sampled_from([1, 2.5, None, ("t",)])),
            st.one_of(KEY_VALUES, GRIDS, deep_lists(max_depth=60)),
            max_size=4,
        )
    )
    def test_fails_where_canonical_key_fails_with_its_error(self, fields):
        want = key_outcome(canonical_key, fields)
        records._orders.clear()
        got = key_outcome(value_key, fields)
        assert key_outcome(value_key, fields) == got  # warm caches
        if not isinstance(want, str):
            assert got == want

    @settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow])
    @given(st.dictionaries(KEY_NAMES, VALID_VALUES, max_size=4), st.randoms())
    def test_twins_get_one_key_and_it_gives_the_values_back(self, fields, rnd):
        want = canonical_key(fields)
        key = value_key(fields)
        items = [(name, _twin(value, rnd)) for name, value in fields.items()]
        rnd.shuffle(items)
        twin = dict(items)
        assert canonical_key(twin) == want
        assert value_key(twin) == key and hash(value_key(twin)) == hash(key)
        assert canonical_key(key_input(key)) == want

    @settings(max_examples=500)
    @given(SMALL_MAPS, SMALL_MAPS)
    @example({"a": math.nan}, {"a": -math.nan})
    @example({"a": [-0.0, Level.LOW]}, {"a": [0, 1.0]})
    @example({"a": [[Reading(1.0)], "t"]}, {"a": [[1], Tag("t")]})
    @example({"a": True}, {"a": 1})
    def test_keys_are_equal_exactly_when_canonical_keys_are(self, a, b):
        assert (value_key(a) == value_key(b)) == (canonical_key(a) == canonical_key(b))

    @pytest.mark.parametrize(
        "first,second", [(a, b) for a in BAD_ITEMS for b in BAD_ITEMS if a != "valid" or b != a]
    )
    def test_the_first_offender_inserted_is_named(self, first, second):
        fields = dict([BAD_ITEMS[first], BAD_ITEMS[second]])
        want = key_outcome(canonical_key, fields)
        assert isinstance(want, tuple)
        assert key_outcome(value_key, fields) == want

    def test_a_huge_int_raises_overflow_error_not_a_struct_error(self):
        with pytest.raises(OverflowError, match="int too large to convert to float"):
            value_key({"a": 1.0, "b": [2, 10**400]})

    def test_a_list_100000_deep_is_keyed_and_hashed(self):
        def deep(leaf):
            value = [leaf]
            for _ in range(99_999):
                value = [value]
            return value

        key = value_key({"zone": deep(2.5)})
        assert key == value_key({"zone": deep(Reading(2.5))})
        assert hash(key) == hash(value_key({"zone": deep(Reading(2.5))}))
        assert key != value_key({"zone": deep(True)})
        assert len(key[1]) == 2 * 100_000 + 1  # an open and a close per list, and the leaf

    def test_memos_stay_within_their_caps(self):
        records._shapes.clear()
        for i in range(10_000):
            value_key({"zone": f"z{i}", "x": 1.0})
        assert 0 < len(records._shapes) <= records._SHAPE_CAP
        for i in range(2 * records._ORDER_CAP):
            value_key({f"f{i}": 1, "g": [0.5] * i})
        assert 0 < len(records._orders) <= records._ORDER_CAP


class Fields(dict):
    pass


SCHEMA_FIELDS = st.dictionaries(
    st.sampled_from(["a", "b", "c"]),
    st.sampled_from(
        [
            NumberType(),
            IntegerType(),
            BooleanType(),
            CategoryType(("x", "y")),
            GridType(1, 2),
            GridType(2, 1),
        ]
    ),
    max_size=3,
)
# Per field type: values that conform, their twins of another type, and
# values that meet them in canonical_key (2**53 + 1 keys as 2**53).
_NUMBERS = [0, 0.0, -0.0, 1, 1.0, 2.5, 2**53, float(2**53), 2**53 + 1, Level.LOW, Reading(-0.0)]
_FITTING = {
    NumberType: st.sampled_from(_NUMBERS + [Reading(2.5)]),
    IntegerType: st.sampled_from(_NUMBERS),
    BooleanType: st.booleans(),
    CategoryType: st.sampled_from(["x", "y", Tag("x")]),
}
# Values off every schema, or off most: no key holds the last two.
_ANY = st.sampled_from(
    [True, 1, -0.0, 2.5, "x", "z", Tag("z"), math.nan, math.inf]
    + [[1, 2.5], [[1], [-0.0]], None, 2**1024]
)


@st.composite
def schema_records(draw, schema):
    """A field map for the schema: mostly conforming, or its twin, and now
    and then off it (a field missing or unknown, a value of another type)."""
    items = []
    for name, ftype in schema.fields.items():
        if draw(st.integers(0, 9)) == 0:
            continue  # missing
        if draw(st.integers(0, 4)) == 0:
            value = draw(_ANY)
        elif isinstance(ftype, GridType):
            cell = st.sampled_from([0, -0.0, 1, 1.0, 2.5, Level.LOW, Reading(2.5)])
            row = st.lists(cell, min_size=ftype.cols, max_size=ftype.cols)
            value = draw(st.lists(row, min_size=ftype.rows, max_size=ftype.rows))
        else:
            value = draw(_FITTING[type(ftype)])
        items.append((name, value))
    if draw(st.integers(0, 9)) == 0:
        items.append(("d", draw(_ANY)))  # unknown
    items = draw(st.permutations(items))
    return draw(st.sampled_from([dict, Fields]))(items)


class TestSchemaKey:
    """A table's key for a schema (classifiers.table_key_function) against
    the reference canonical_key: equal keys exactly when the texts are
    equal, a schema key (bytes) for every record a conforming one equals,
    and value_key's exceptions where no key holds the record."""

    @settings(max_examples=400, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_keys_are_equal_exactly_when_canonical_keys_are(self, data):
        schema = Schema(data.draw(SCHEMA_FIELDS), ("yes",))
        self.check(schema, data.draw(schema_records(schema)), data.draw(schema_records(schema)))

    @pytest.mark.parametrize(
        "ftype,a,b",
        [
            (IntegerType(), 2**53 + 1, 2**53),
            (NumberType(), 2**53 + 1, float(2**53)),
            (NumberType(), -0.0, Reading(0.0)),
            (IntegerType(), Level.LOW, 1.0),
            (BooleanType(), True, 1),
            (CategoryType(("x", "y")), Tag("y"), "y"),
            (GridType(1, 2), [[1, -0.0]], [[Reading(1.0), 0]]),
            (NumberType(), math.nan, math.nan),
        ],
    )
    def test_examples(self, ftype, a, b):
        schema = Schema({"a": ftype, "b": BooleanType()}, ("yes",))
        self.check(schema, {"a": a, "b": False}, Fields(b=False, a=b))

    def check(self, schema, a, b):
        key = TableClassifier(schema=schema)._key
        outcomes = []
        for record in (a, b):
            got = key_outcome(key, record)
            want = key_outcome(oracle.canonical_key, record)
            if isinstance(want, tuple):  # no key holds it
                assert got == key_outcome(value_key, record)
                return
            if got.__class__ is bytes:
                fitting = schema_key_input(got, schema)
                assert not conformance_errors(fitting, schema)
                assert oracle.canonical_key(fitting) == want
            else:
                assert got == value_key(record)
                assert conformance_errors(record, schema)
            outcomes.append((got, want))
        (key_a, text_a), (key_b, text_b) = outcomes
        assert (key_a == key_b) == (text_a == text_b)


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
