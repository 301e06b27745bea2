"""Data set requirements: coverage cells, boundary cases, augmentation,
uncertainty categories, deterministic splitting, and the file formats."""
from __future__ import annotations

import json
import math
import operator
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from uncertainty_oracle import closure_levels, oracle_uncertainty

import specguard.dataset as dataset_module

from specguard.dataset import (
    AUGMENTED,
    COLLECTED,
    DataSetRequirements,
    LabeledRecord,
    Partition,
    Partitioning,
    Provenance,
    SplitSpec,
    augment,
    boundary_cases,
    categorize_uncertainty,
    coverage_report,
    labeled_record_from_json_dict,
    labeled_record_to_json_dict,
    load_partitioning,
    load_requirements,
    read_dataset,
    split,
    verify_dataset,
)
from specguard.errors import FormatError
from specguard.speccore.records import FeatureRecord
from specguard.speccore.spec import PartialSpec
from specguard.speccore.transforms import (
    AddOffset,
    FieldMap,
    LabelMap,
    Scale,
    ShiftGrid,
    Transformation,
)
from specguard.speclang.parser import parse
from specguard.speclang.schema import GridType, IntegerType, NumberType, Schema

SCHEMA = Schema({"x": NumberType(), "y": NumberType()}, ("yes", "no"))


def lrec(x, y, label="yes", id=None, provenance=None):
    return LabeledRecord(
        FeatureRecord({"x": float(x), "y": float(y)}, id),
        label,
        provenance or Provenance(),
    )


def part(name, predicate, risk=1):
    return Partition(name, parse(predicate), risk)


AB = Partitioning("ab", (part("low", "input.x < 5"), part("high", "input.x >= 5", risk=2)))
YS = Partitioning(
    "ys",
    (
        part("a", "input.y < 1"),
        part("b", "input.y >= 1 && input.y < 2"),
        part("c", "input.y >= 2"),
    ),
)


def reqs(**overrides):
    base = dict(schema=SCHEMA, partitionings=(AB, YS))
    base.update(overrides)
    return DataSetRequirements(**base)


class TestCoverage:
    def test_two_by_three_fixture_covers_half_the_cells(self):
        data = [lrec(1, 0, id="r1"), lrec(7, 1.5, id="r2"), lrec(1, 5, id="r3")]
        report = coverage_report(data, reqs())
        assert len(report.cells) == 6
        assert report.cell_coverage == pytest.approx(3 / 6)
        assert not report.passed
        by_status = {}
        for cell in report.cells:
            by_status.setdefault(cell["status"], []).append(tuple(cell["cell"]))
        assert sorted(by_status["satisfied"]) == [("high", "b"), ("low", "a"), ("low", "c")]
        assert len(by_status["insufficient"]) == 3

    def test_full_coverage_passes(self):
        data = [
            lrec(x, y, id=f"{x}-{y}")
            for x in (1, 7)
            for y in (0, 1.5, 5)
        ]
        report = coverage_report(data, reqs())
        assert report.passed
        assert report.cell_coverage == 1.0

    def test_risk_scales_the_requirement(self):
        requirements = reqs(base_min_samples=2, risk_multiplier=2.0)
        # high-risk cells (risk 2) need 2 * 2^(2-1) = 4 samples
        data = [lrec(7, 0, id=f"h{i}") for i in range(3)]
        report = coverage_report(data, requirements)
        high_a = next(c for c in report.cells if c["cell"] == ["high", "a"])
        assert high_a["required"] == 4.0
        assert high_a["count"] == 3
        assert high_a["status"] == "insufficient"
        low_a = next(c for c in report.cells if c["cell"] == ["low", "a"])
        assert low_a["required"] == 2.0

    def test_record_outside_every_partition_is_a_cover_failure(self):
        gaps = Partitioning("gap", (part("neg", "input.x < 0"),))
        data = [lrec(3, 0, id="stray")]
        report = coverage_report(data, reqs(partitionings=(gaps,)))
        assert report.cover_failures == [{"record": "stray", "partitioning": "gap"}]
        assert not report.passed
        # the record counts toward no cell
        assert all(c["count"] == 0 for c in report.cells)

    def test_overlapping_partitions_count_everywhere(self):
        overlapping = Partitioning(
            "fuzzy", (part("small", "input.x < 5"), part("tiny", "input.x < 2"))
        )
        data = [lrec(1, 0, id="both")]
        report = coverage_report(data, reqs(partitionings=(overlapping,)))
        assert report.overlaps == [
            {"record": "both", "partitioning": "fuzzy", "partitions": ["small", "tiny"]}
        ]
        assert {tuple(c["cell"]): c["count"] for c in report.cells} == {
            ("small",): 1,
            ("tiny",): 1,
        }

    def test_eval_error_excludes_the_record_entirely(self):
        data = [LabeledRecord(FeatureRecord({"x": 1.0}, "broken"), "yes")]
        report = coverage_report(data, reqs())
        assert report.eval_errors and report.eval_errors[0]["record"] == "broken"
        assert report.records_counted == 0

    def test_infeasible_cells_are_unwitnessed_and_leave_the_ratio(self):
        requirements = reqs(
            infeasible_cells=frozenset(
                {("high", "a"), ("high", "b"), ("high", "c")}
            )
        )
        data = [lrec(1, 0), lrec(1, 1.5), lrec(1, 5)]
        report = coverage_report(data, requirements)
        assert report.passed
        assert report.cell_coverage == 1.0
        assert sum(1 for c in report.cells if c["status"] == "unwitnessed") == 3

    def test_witnessed_infeasible_cell_gets_a_note(self):
        requirements = reqs(infeasible_cells=frozenset({("low", "a")}))
        report = coverage_report([lrec(1, 0)], requirements)
        cell = next(c for c in report.cells if c["cell"] == ["low", "a"])
        assert cell["note"] == "marked infeasible but witnessed"
        assert cell["status"] == "satisfied"

    def test_requirements_validation(self):
        with pytest.raises(FormatError, match="base_min_samples"):
            reqs(base_min_samples=0)
        with pytest.raises(FormatError, match="risk_multiplier"):
            reqs(risk_multiplier=0.5)
        for multiplier in (math.nan, math.inf):
            with pytest.raises(FormatError, match="risk_multiplier must be a finite number >= 1"):
                reqs(risk_multiplier=multiplier)
        with pytest.raises(FormatError, match=r"risk_multiplier\^1 \(risk weight 2\) is too large"):
            reqs(risk_multiplier=10**400)
        assert reqs(risk_multiplier=10**300).required_for(2) == 10**300
        with pytest.raises(FormatError, match="risk_weight"):
            part("bad", "true", risk=5)
        with pytest.raises(FormatError, match="no partitions"):
            Partitioning("empty", ())
        with pytest.raises(FormatError, match="duplicate partition names"):
            Partitioning("dup", (part("p", "true"), part("p", "false")))


class TestBoundaryCases:
    def test_records_near_a_threshold_are_found(self):
        data = [lrec(4.8, 0, id="close"), lrec(1.0, 0, id="far"), lrec(7.0, 0, id="other")]
        cases, notices = boundary_cases(AB, data, epsilon=0.5)
        assert {(c["record"], c["partition"]) for c in cases} == {
            ("close", "low"),
            ("close", "high"),
        }
        assert notices == []

    def test_distance_is_reported(self):
        cases, _ = boundary_cases(AB, [lrec(4.75, 0, id="r")], epsilon=0.25)
        assert cases[0]["distance"] == pytest.approx(0.25)

    def test_mirrored_comparisons_count(self):
        mirrored = Partitioning("m", (part("low", "5 > input.x"),))
        cases, notices = boundary_cases(mirrored, [lrec(4.9, 0, id="r")], epsilon=0.2)
        assert len(cases) == 1
        assert notices == []

    def test_compound_predicates_are_skipped_with_notice(self):
        cases, notices = boundary_cases(YS, [lrec(0, 1.05, id="r")], epsilon=0.1)
        # partition "b" is a conjunction, so it cannot participate
        assert any("'b' skipped" in n for n in notices)
        assert {c["partition"] for c in cases} == {"a"}


def aug_spec():
    return PartialSpec(
        schema=SCHEMA,
        precondition=parse("true"),
        invariants=(Transformation("nudge", AddOffset("y", 1.0)),),
        equivariants=(
            (
                Transformation("negate", Scale("x", -1.0)),
                LabelMap((("yes", "no"), ("no", "yes"))),
            ),
        ),
    )


class TestAugment:
    def test_originals_come_first_unchanged(self):
        data = [lrec(1, 0, id="r0"), lrec(2, 0, id="r1")]
        result = augment(data, aug_spec())
        assert result.records[:2] == data
        assert result.errors == []

    def test_invariant_keeps_the_label(self):
        result = augment([lrec(1, 0, "yes", id="r0")], aug_spec())
        nudged = next(r for r in result.records if r.input.id == "r0~nudge")
        assert nudged.label == "yes"
        assert nudged.input.fields == {"x": 1.0, "y": 1.0}
        assert nudged.provenance == Provenance(AUGMENTED, "nudge", "r0")

    def test_equivariant_maps_the_label(self):
        result = augment([lrec(1, 0, "yes", id="r0")], aug_spec())
        negated = next(r for r in result.records if r.input.id == "r0~negate")
        assert negated.label == "no"
        assert negated.input.fields == {"x": -1.0, "y": 0.0}

    def test_duplicates_of_existing_inputs_are_dropped(self):
        # r1 is exactly what nudging r0 would produce
        data = [lrec(1, 0, id="r0"), lrec(1, 1, id="r1")]
        result = augment(data, aug_spec())
        ids = [r.input.id for r in result.records]
        assert "r0~nudge" not in ids
        assert "r1~nudge" in ids

    def test_augmented_records_are_not_retransformed(self):
        first = augment([lrec(1, 0, id="r0")], aug_spec())
        second = augment(first.records, aug_spec())
        assert [r.input.id for r in second.records] == [r.input.id for r in first.records]

    def test_unnamed_records_get_positional_sources(self):
        result = augment([lrec(1, 0)], aug_spec())
        augmented = [r for r in result.records if r.provenance.kind == AUGMENTED]
        assert {r.provenance.source for r in augmented} == {"#0"}
        assert augmented[0].input.id.startswith("#0~")

    def test_transform_failure_is_reported_and_skipped(self):
        spec = PartialSpec(
            schema=SCHEMA,
            precondition=parse("true"),
            invariants=(
                Transformation("boom", FieldMap((("x", parse("input.x / 0")),))),
                Transformation("fine", AddOffset("x", 1.0)),
            ),
        )
        result = augment([lrec(1, 0, id="r0")], spec)
        assert result.errors == [
            {
                "record": "r0",
                "transform": "boom",
                "error": result.errors[0]["error"],
            }
        ]
        assert "division by zero" in result.errors[0]["error"]
        assert [r.input.id for r in result.records] == ["r0", "r0~fine"]


_UNCERTAINTY_SCHEMA = Schema(
    {"x": NumberType(), "n": IntegerType(), "g": GridType(2, 2)}, ("yes", "no")
)
_UNCERTAINTY_FIELDS = st.fixed_dictionaries(
    {
        "x": st.sampled_from([0.0, 1.0, -1.0, 2.0]),
        "n": st.integers(-2, 3),
        "g": st.lists(
            st.lists(st.sampled_from([0.0, 1.0, 2.0]), min_size=2, max_size=2),
            min_size=2,
            max_size=2,
        ),
    }
)
# Some of these fail on some records: a shift of x (not a grid), a halved
# odd n, or a scalar pushed past float range.
_UNCERTAINTY_OPS = st.one_of(
    st.builds(
        ShiftGrid, st.sampled_from(["g", "x"]), st.integers(-1, 1), st.integers(-1, 1)
    ),
    st.builds(Scale, st.sampled_from(["x", "n", "g"]), st.sampled_from([2.0, 0.5, -1.0, 1e308])),
    st.builds(AddOffset, st.sampled_from(["x", "n", "g"]), st.sampled_from([1.0, -1.0, 0.5])),
)


class TestUncertainty:
    def transforms(self):
        return [Transformation("right", AddOffset("x", 1.0))]

    def probes(self, *xs):
        return [FeatureRecord({"x": float(x), "y": 0.0}, f"p{x}") for x in xs]

    def known(self, *xs):
        return [lrec(x, 0, id=f"k{x}") for x in xs]

    def test_categories_and_paths(self):
        report = categorize_uncertainty(
            self.known(0), self.probes(0, 2, 9), self.transforms(), 3, SCHEMA
        )
        by_probe = {e["probe"]: e for e in report.per_probe}
        assert by_probe["p0"]["category"] == "KNOWN"
        assert by_probe["p2"]["category"] == "KNOWN_UNKNOWN"
        assert by_probe["p2"]["depth"] == 2
        assert by_probe["p2"]["path"] == ["right", "right"]
        assert by_probe["p9"]["category"] == "UNKNOWN_UNKNOWN"
        assert report.fractions == {
            "known": pytest.approx(1 / 3),
            "known_unknown": pytest.approx(1 / 3),
            "unknown_unknown": pytest.approx(1 / 3),
        }

    def test_shortest_path_wins(self):
        transforms = [
            Transformation("right", AddOffset("x", 1.0)),
            Transformation("jump", AddOffset("x", 2.0)),
        ]
        report = categorize_uncertainty(
            self.known(0), self.probes(2), transforms, 4, SCHEMA
        )
        assert report.per_probe[0]["depth"] == 1
        assert report.per_probe[0]["path"] == ["jump"]

    def test_depth_monotonicity(self):
        for depth in range(4):
            shallow = categorize_uncertainty(
                self.known(0), self.probes(0, 1, 2, 3, 4), self.transforms(), depth, SCHEMA
            )
            deep = categorize_uncertainty(
                self.known(0), self.probes(0, 1, 2, 3, 4), self.transforms(), depth + 1, SCHEMA
            )
            assert (
                deep.fractions["unknown_unknown"] <= shallow.fractions["unknown_unknown"]
            )

    def test_depth_zero_only_marks_known(self):
        report = categorize_uncertainty(
            self.known(0), self.probes(0, 1), self.transforms(), 0, SCHEMA
        )
        categories = [e["category"] for e in report.per_probe]
        assert categories == ["KNOWN", "UNKNOWN_UNKNOWN"]

    def test_depth_cap(self):
        with pytest.raises(FormatError, match="capped at 4"):
            categorize_uncertainty([], [], [], 5, SCHEMA)
        with pytest.raises(FormatError, match=">= 0"):
            categorize_uncertainty([], [], [], -1, SCHEMA)

    def test_no_probes_gives_zero_fractions(self):
        report = categorize_uncertainty(self.known(0), [], self.transforms(), 1, SCHEMA)
        assert report.fractions == {"known": 0.0, "known_unknown": 0.0, "unknown_unknown": 0.0}

    def test_the_search_holds_only_the_records_still_to_be_expanded(self, monkeypatch):
        known = self.known(0, 10)
        transforms = [
            Transformation("right", AddOffset("x", 1.0)),
            Transformation("not_a_grid", ShiftGrid("x", dx=1)),
            Transformation("jump", AddOffset("x", 3.0)),
        ]
        probes = self.probes(0, 4, 99)
        max_depth = 3
        real_apply = dataset_module.apply_transformation
        real_key = dataset_module.canonical_key
        results: list[tuple[weakref.ref, int]] = []  # each record returned, its depth
        pending: list[weakref.ref] = []  # the last record returned, until it is keyed
        expanded: list[weakref.ref] = []  # the last record transformed, if one returned
        keyed_outside: list[dict] = []  # fields keyed other than right after a transform
        applied_after: list[int] = []  # len(keyed_outside) at each transformation
        order = (
            "bench/tracer.py counts the closure's states from the call order: each "
            "dataset.apply_transformation result goes to dataset.canonical_key before "
            "the next transformation, the known inputs are keyed first and the probes last"
        )

        def apply(t, record, schema):
            assert not pending, order
            applied_after.append(len(keyed_outside))
            if expanded and expanded[-1]() is not record:
                assert expanded.pop()() is None, "an expanded frontier record outlived its expansion"
            depth = next((d for ref, d in results if ref() is record), 0) + 1
            if depth > 1 and not expanded:
                expanded.append(weakref.ref(record))
            out = real_apply(t, record, schema)
            results.append((weakref.ref(out), depth))
            pending.append(weakref.ref(out))
            return out

        def key(fields):
            if not pending:
                keyed_outside.append(fields)
            else:
                assert fields is pending.pop()().fields, order
                for ref, depth in results[:-1]:
                    assert depth <= max_depth
                    if depth == max_depth:
                        assert ref() is None, "a record of the last depth outlived its keying"
            return real_key(fields)

        monkeypatch.setattr(dataset_module, "apply_transformation", apply)
        monkeypatch.setattr(dataset_module, "canonical_key", key)
        report = categorize_uncertainty(known, probes, transforms, max_depth, SCHEMA)
        expected = [k.input.fields for k in known] + [p.fields for p in probes]
        assert set(applied_after) == {len(known)}, order
        assert len(keyed_outside) == len(expected), order
        assert all(map(operator.is_, keyed_outside, expected)), order
        assert sum(depth == max_depth for _, depth in results) > 1
        assert [e.get("path") for e in report.per_probe] == [None, ["right", "jump"], None]

    @settings(max_examples=150, deadline=None)
    @given(
        known=st.lists(_UNCERTAINTY_FIELDS, max_size=3),
        random_probes=st.lists(_UNCERTAINTY_FIELDS, max_size=3),
        ops=st.lists(_UNCERTAINTY_OPS, max_size=4),
        max_depth=st.integers(0, 4),
        data=st.data(),
    )
    def test_equals_a_plain_breadth_first_search(
        self, known, random_probes, ops, max_depth, data
    ):
        schema = _UNCERTAINTY_SCHEMA
        known = [LabeledRecord(FeatureRecord(f, f"k{i}"), "yes") for i, f in enumerate(known)]
        transforms = [Transformation(f"t{i}", op) for i, op in enumerate(ops)]
        # Probes drawn also from the states reached within one step more than
        # max_depth, so that paths and the depth bound get compared.
        reached = [
            record
            for level in closure_levels(known, transforms, max_depth + 1, schema)
            for _, record, _ in level
        ]
        drawn = data.draw(st.lists(st.sampled_from(reached), max_size=4)) if reached else []
        probes = [FeatureRecord(f) for f in random_probes] + [
            FeatureRecord(r.fields) for r in drawn
        ]
        report = categorize_uncertainty(known, probes, transforms, max_depth, schema)
        assert report.to_json_dict() == oracle_uncertainty(
            known, probes, transforms, max_depth, schema
        )


class TestSplit:
    def data(self, n=10):
        return [lrec(i, i % 3, "yes" if i % 2 else "no", id=f"r{i}") for i in range(n)]

    def ids(self, result):
        return {
            "train": [r.input.id for r in result.train],
            "validation": [r.input.id for r in result.validation],
            "test": [r.input.id for r in result.test],
        }

    def test_six_two_two(self):
        result = split(self.data(10), SplitSpec((0.6, 0.2, 0.2), seed=7))
        assert result.sizes() == (6, 2, 2)

    def test_same_seed_is_byte_identical(self):
        a = split(self.data(), SplitSpec((0.6, 0.2, 0.2), seed=42))
        b = split(self.data(), SplitSpec((0.6, 0.2, 0.2), seed=42))
        assert json.dumps(self.ids(a)) == json.dumps(self.ids(b))

    def test_different_seeds_usually_differ(self):
        a = split(self.data(), SplitSpec((0.6, 0.2, 0.2), seed=1))
        b = split(self.data(), SplitSpec((0.6, 0.2, 0.2), seed=2))
        assert self.ids(a) != self.ids(b)

    def test_input_order_never_matters(self):
        data = self.data()
        forward = split(data, SplitSpec((0.6, 0.2, 0.2), seed=9))
        backward = split(list(reversed(data)), SplitSpec((0.6, 0.2, 0.2), seed=9))
        assert self.ids(forward) == self.ids(backward)

    def test_every_record_lands_exactly_once(self):
        data = self.data(11)
        result = split(data, SplitSpec((0.5, 0.25, 0.25), seed=3))
        landed = sorted(
            r.input.id for bucket in (result.train, result.validation, result.test) for r in bucket
        )
        assert landed == sorted(r.input.id for r in data)

    def test_largest_remainder_tie_favors_train(self):
        # 4 records at (0.5, 0.25, 0.25): exact 2/1/1, no tie. 5 records at
        # (0.4, 0.4, 0.2): exact 2.0/2.0/1.0, no remainder. 3 at equal thirds:
        # exact 1/1/1. Use 2 records at equal thirds: remainders tie at 2/3,
        # train and validation win by position.
        result = split(self.data(2), SplitSpec((1 / 3, 1 / 3, 1 / 3), seed=0))
        assert result.sizes() == (1, 1, 0)

    def test_stratified_split_keeps_strata_proportions(self):
        strata = Partitioning(
            "band", (part("low", "input.x < 5"), part("high", "input.x >= 5"))
        )
        result = split(self.data(20), SplitSpec((0.5, 0.25, 0.25), seed=5, stratify_by=strata))
        assert result.sizes() == (10, 5, 5)

        def lows(bucket):
            return sum(1 for r in bucket if r.input.fields["x"] < 5)

        # the low stratum has 5 records: 2.5/1.25/1.25 rounds to 3/1/1
        assert lows(result.train) == 3
        assert lows(result.validation) == 1
        assert lows(result.test) == 1

    def test_unmatched_records_form_a_catch_all_stratum(self):
        strata = Partitioning("band", (part("low", "input.x < 2"),))
        result = split(self.data(4), SplitSpec((0.5, 0.25, 0.25), seed=5, stratify_by=strata))
        landed = sorted(
            r.input.id for bucket in (result.train, result.validation, result.test) for r in bucket
        )
        assert landed == ["r0", "r1", "r2", "r3"]

    def test_small_stratum_notice(self):
        result = split(self.data(2), SplitSpec((0.6, 0.2, 0.2), seed=0))
        assert any("empty split" in n for n in result.notices)

    def test_ratio_validation(self):
        with pytest.raises(FormatError, match="sum"):
            SplitSpec((0.5, 0.2, 0.2))
        with pytest.raises(FormatError, match="three ratios"):
            SplitSpec((0.5, 0.5, -0.0001, 0.0001))  # wrong arity
        with pytest.raises(FormatError, match="each in"):
            SplitSpec((1.5, -0.5, 0.0))

    @given(st.integers(0, 60), st.integers(0, 2**16))
    def test_sizes_always_sum_to_n(self, n, seed):
        result = split(self.data(n), SplitSpec((0.6, 0.2, 0.2), seed=seed))
        assert sum(result.sizes()) == n


class TestVerifyDataset:
    def spec(self):
        return PartialSpec(
            schema=SCHEMA,
            precondition=parse("true"),
            sufficient={"yes": (parse("input.x > 8"),)},
            necessary={"yes": (parse("input.x > 0"),)},
        )

    def full_data(self):
        return [
            lrec(x, y, "yes" if x > 0 else "no", id=f"{x}-{y}")
            for x in (1, 7)
            for y in (0, 1.5, 5)
        ]

    def test_clean_dataset_passes(self):
        report = verify_dataset(self.full_data(), reqs(), self.spec())
        assert report.passed

    def test_sufficient_conflict_fails_the_label_check(self):
        data = self.full_data() + [lrec(9, 0, "no", id="conflict")]
        report = verify_dataset(data, reqs(), self.spec())
        assert not report.passed
        assert any(
            f["record"] == "conflict" and f["kind"] == "sufficient_conflict"
            for f in report.label_failures
        )

    def test_necessary_violation_fails_the_label_check(self):
        data = self.full_data() + [lrec(-1, 0, "yes", id="bad-label")]
        report = verify_dataset(data, reqs(), self.spec())
        assert any(
            f["record"] == "bad-label" and f["kind"] == "necessary_violated"
            for f in report.label_failures
        )

    def test_label_outside_alphabet_is_a_schema_failure(self):
        data = self.full_data() + [lrec(1, 0, "maybe", id="alien")]
        report = verify_dataset(data, reqs(), self.spec())
        assert any(f["record"] == "alien" for f in report.schema_failures)

    def test_json_shape(self):
        json.dumps(verify_dataset(self.full_data(), reqs(), self.spec()).to_json_dict())


class TestFileFormats:
    def test_labeled_record_round_trip(self):
        record = LabeledRecord(
            FeatureRecord({"x": 1.0, "y": 2.0}, "r1"),
            "yes",
            Provenance(AUGMENTED, "nudge", "r0"),
        )
        assert labeled_record_from_json_dict(labeled_record_to_json_dict(record)) == record

    def test_collected_provenance_is_implicit(self):
        data = labeled_record_to_json_dict(lrec(1, 2, id="r"))
        assert "provenance" not in data
        assert labeled_record_from_json_dict(data).provenance == Provenance()

    def test_augmented_provenance_needs_transform_and_source(self):
        with pytest.raises(FormatError, match="needs 'transform' and 'source'"):
            Provenance(AUGMENTED)

    @pytest.mark.parametrize("transform,source", [(5, None), ("t", b"r0"), (None, 1.0)])
    def test_provenance_names_are_strings(self, transform, source):
        with pytest.raises(FormatError, match="must be a string, got"):
            Provenance(AUGMENTED, transform, source)

    def test_unknown_provenance_kind(self):
        with pytest.raises(FormatError, match="unknown provenance kind"):
            Provenance("FOUND")

    def test_read_dataset_is_strict(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text(
            json.dumps({"id": "r", "input": {"x": 1}, "label": "yes"}) + "\n{bad\n",
            encoding="utf-8",
        )
        with pytest.raises(FormatError, match=r"data\.jsonl:2"):
            read_dataset(path)

    def test_read_dataset_reports_missing_label_with_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text(json.dumps({"id": "r", "input": {"x": 1}}), encoding="utf-8")
        with pytest.raises(FormatError, match="needs a string 'label'"):
            read_dataset(path)

    def test_load_requirements(self, tmp_path):
        path = tmp_path / "reqs.json"
        path.write_text(
            json.dumps(
                {
                    "schema": {
                        "fields": {"x": {"type": "number"}, "y": {"type": "number"}},
                        "labels": ["yes", "no"],
                    },
                    "partitionings": [
                        {
                            "name": "ab",
                            "partitions": [
                                {"name": "low", "predicate": "input.x < 5"},
                                {"name": "high", "predicate": "input.x >= 5", "risk_weight": 2},
                            ],
                        }
                    ],
                    "base_min_samples": 2,
                    "risk_multiplier": 3.0,
                    "infeasible_cells": [["high"]],
                }
            ),
            encoding="utf-8",
        )
        loaded = load_requirements(path)
        assert loaded.base_min_samples == 2
        assert loaded.risk_multiplier == 3.0
        assert loaded.infeasible_cells == frozenset({("high",)})
        assert loaded.partitionings[0].partitions[1].risk_weight == 2

    def test_load_requirements_typechecks_predicates(self, tmp_path):
        path = tmp_path / "reqs.json"
        path.write_text(
            json.dumps(
                {
                    "schema": {"fields": {"x": {"type": "number"}}, "labels": ["yes"]},
                    "partitionings": [
                        {
                            "name": "p",
                            "partitions": [{"name": "q", "predicate": "input.ghost > 0"}],
                        }
                    ],
                }
            ),
            encoding="utf-8",
        )
        with pytest.raises(FormatError, match="unknown input field"):
            load_requirements(path)

    def test_load_partitioning_standalone(self, tmp_path):
        path = tmp_path / "bands.json"
        path.write_text(
            json.dumps(
                {
                    "name": "bands",
                    "partitions": [{"name": "all", "predicate": "true"}],
                }
            ),
            encoding="utf-8",
        )
        loaded = load_partitioning(path)
        assert loaded.name == "bands"
        assert loaded.partitions[0].name == "all"
