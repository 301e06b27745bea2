"""Fault-tolerance patterns: fusion, simplex arbitration, spec gating, the
safety envelope, harvesting, and the simulation harness."""
from __future__ import annotations

import json

import pytest

from specguard.errors import FormatError, PatternConfigError, PatternError
from specguard.monitor import TraceRecord
from specguard.patterns import (
    DecisionSource,
    EnsembleConfig,
    EnvelopeConfig,
    FusionMode,
    GatedConfig,
    HarvestStore,
    SimplexConfig,
    decide,
    ensemble_fuse,
    envelope_route,
    gated_classify,
    harvest,
    load_harness,
    simplex_decide,
    simulate,
)
from specguard.speccore.classifiers import ExpressionClassifier, TableClassifier
from specguard.speccore.records import FeatureRecord, Prediction
from specguard.speccore.spec import PartialSpec
from specguard.speclang.parser import parse
from specguard.speclang.schema import NumberType, Schema

SCHEMA = Schema({"height": NumberType()}, ("pedestrian", "not_pedestrian"))


def constant(label, confidence=None):
    return ExpressionClassifier((), default=Prediction(label, confidence))


def height_rule(threshold=8.0):
    """Programmed classifier: pedestrians are shorter than the threshold."""
    return ExpressionClassifier(
        ((parse(f"input.height < {threshold}"), "pedestrian", 1.0),),
        default=Prediction("not_pedestrian", 1.0),
    )


class TestEnsemble:
    def test_majority_picks_the_most_voted_label(self):
        config = EnsembleConfig(
            (constant("pedestrian"), constant("pedestrian"), constant("not_pedestrian"))
        )
        decision = ensemble_fuse(config, {"height": 1.0})
        assert decision.prediction.label == "pedestrian"
        assert decision.prediction.confidence == pytest.approx(2 / 3)
        assert not decision.tie
        assert decision.mass == {"pedestrian": 2.0, "not_pedestrian": 1.0}

    def test_tie_goes_to_smallest_label_and_is_flagged(self):
        config = EnsembleConfig((constant("pedestrian"), constant("not_pedestrian")))
        decision = ensemble_fuse(config, {})
        assert decision.tie
        assert decision.prediction.label == "not_pedestrian"  # lexicographic

    def test_single_member_ensemble_is_transparent(self):
        config = EnsembleConfig((height_rule(),))
        decision = ensemble_fuse(config, {"height": 3.0})
        assert decision.prediction.label == "pedestrian"
        assert decision.prediction.confidence == 1.0

    def test_identical_members_act_like_one(self):
        member = height_rule()
        solo = EnsembleConfig((member,))
        trio = EnsembleConfig((member, member, member))
        for height in (1.0, 7.9, 8.0, 12.0):
            assert (
                ensemble_fuse(solo, {"height": height}).prediction.label
                == ensemble_fuse(trio, {"height": height}).prediction.label
            )

    def test_confidence_weighted_fusion(self):
        config = EnsembleConfig(
            (
                constant("pedestrian", 0.9),
                constant("not_pedestrian", 0.2),
                constant("not_pedestrian", 0.3),
            ),
            FusionMode.CONFIDENCE_WEIGHTED,
        )
        decision = ensemble_fuse(config, {})
        # 0.9 beats 0.2 + 0.3 even though the label is outvoted 2 to 1
        assert decision.prediction.label == "pedestrian"
        assert decision.prediction.confidence == pytest.approx(0.9 / 1.4)

    def test_confidence_weighted_missing_confidence_counts_one(self):
        config = EnsembleConfig(
            (constant("pedestrian"), constant("not_pedestrian", 0.5)),
            FusionMode.CONFIDENCE_WEIGHTED,
        )
        assert ensemble_fuse(config, {}).prediction.label == "pedestrian"

    def test_member_failure_is_a_pattern_error(self):
        config = EnsembleConfig((ExpressionClassifier(()),))
        with pytest.raises(PatternError, match="member 0 failed"):
            ensemble_fuse(config, {})

    def test_empty_ensemble_rejected(self):
        with pytest.raises(PatternConfigError, match="at least one member"):
            EnsembleConfig(())

    def test_majority_correct_implies_fused_correct(self):
        # exhaustive vote patterns for k in 1, 3, 5
        right, wrong = constant("pedestrian"), constant("not_pedestrian")
        for k in (1, 3, 5):
            for pattern in range(2**k):
                members = tuple(
                    right if (pattern >> i) & 1 else wrong for i in range(k)
                )
                correct_votes = sum((pattern >> i) & 1 for i in range(k))
                decision = ensemble_fuse(EnsembleConfig(members), {})
                if correct_votes * 2 > k:
                    assert decision.prediction.label == "pedestrian"


class TestSimplex:
    def test_confident_primary_is_used(self):
        config = SimplexConfig(constant("pedestrian", 0.8), height_rule(), threshold=0.5)
        decision = simplex_decide(config, {"height": 9.0})
        assert decision.source is DecisionSource.PRIMARY
        assert decision.prediction.label == "pedestrian"

    def test_unconfident_primary_falls_back(self):
        config = SimplexConfig(constant("pedestrian", 0.3), height_rule(), threshold=0.5)
        for height, expected in ((7.5, "pedestrian"), (9.0, "not_pedestrian")):
            decision = simplex_decide(config, {"height": height})
            assert decision.source is DecisionSource.FALLBACK
            assert decision.prediction.label == expected

    def test_threshold_zero_always_trusts_the_primary(self):
        config = SimplexConfig(constant("pedestrian", 0.0), height_rule(), threshold=0.0)
        assert simplex_decide(config, {"height": 9.0}).source is DecisionSource.PRIMARY

    def test_threshold_one_distrusts_everything_below_full_confidence(self):
        config = SimplexConfig(constant("pedestrian", 0.999), height_rule(), threshold=1.0)
        assert simplex_decide(config, {"height": 9.0}).source is DecisionSource.FALLBACK
        config = SimplexConfig(constant("pedestrian", 1.0), height_rule(), threshold=1.0)
        assert simplex_decide(config, {"height": 9.0}).source is DecisionSource.PRIMARY

    def test_boundary_confidence_clears_the_threshold(self):
        config = SimplexConfig(constant("pedestrian", 0.5), height_rule(), threshold=0.5)
        assert simplex_decide(config, {"height": 9.0}).source is DecisionSource.PRIMARY

    def test_primary_without_confidence_is_a_config_error(self):
        config = SimplexConfig(constant("pedestrian", None), height_rule())
        with pytest.raises(PatternConfigError, match="no confidence"):
            simplex_decide(config, {"height": 1.0})

    def test_threshold_outside_unit_interval_rejected(self):
        with pytest.raises(PatternConfigError, match="must be in"):
            SimplexConfig(constant("x", 0.5), constant("y"), threshold=1.5)


def gated_spec(**overrides):
    base = dict(
        schema=SCHEMA,
        precondition=parse("true"),
        sufficient={"pedestrian": (parse("input.height < 3"),)},
        necessary={"pedestrian": (parse("input.height < 8"),)},
    )
    base.update(overrides)
    return PartialSpec(**base)


class TestGated:
    def test_sufficient_condition_decides_outright(self):
        config = GatedConfig(gated_spec(), constant("not_pedestrian", 0.5))
        decision = gated_classify(config, {"height": 2.0})
        assert decision.source is DecisionSource.SPEC
        assert decision.mode == "sufficient"
        assert decision.prediction == Prediction("pedestrian", 1.0)

    def test_elimination_when_one_label_survives(self):
        # height 9 violates pedestrian's necessary condition, leaving only
        # not_pedestrian; the ML component is never consulted
        config = GatedConfig(gated_spec(), constant("pedestrian", 0.9))
        decision = gated_classify(config, {"height": 9.0})
        assert decision.source is DecisionSource.SPEC
        assert decision.mode == "elimination"
        assert decision.prediction.label == "not_pedestrian"

    def test_undecided_inputs_go_to_the_ml_component(self):
        config = GatedConfig(gated_spec(), constant("not_pedestrian", 0.7))
        decision = gated_classify(config, {"height": 5.0})
        assert decision.source is DecisionSource.ML
        assert decision.prediction.label == "not_pedestrian"
        assert decision.note is None

    def test_conflicting_sufficient_conditions_raise(self):
        spec = gated_spec(
            sufficient={
                "pedestrian": (parse("input.height < 3"),),
                "not_pedestrian": (parse("input.height < 4"),),
            }
        )
        config = GatedConfig(spec, constant("pedestrian"))
        with pytest.raises(PatternError, match="inconsistent"):
            gated_classify(config, {"height": 2.0})

    def test_all_labels_eliminated_is_noted_and_ml_answers(self):
        spec = gated_spec(
            sufficient={},
            necessary={
                "pedestrian": (parse("input.height < 8"),),
                "not_pedestrian": (parse("input.height > 12"),),
            },
        )
        config = GatedConfig(spec, constant("pedestrian", 0.6))
        decision = gated_classify(config, {"height": 10.0})
        assert decision.source is DecisionSource.ML
        assert "all labels eliminated" in decision.note

    @pytest.mark.parametrize("stage", ["sufficient", "necessary"])
    def test_spec_evaluation_failure_is_a_pattern_error_naming_the_stage(self, stage):
        conditions = {"sufficient": {}, "necessary": {}}
        conditions[stage] = {"pedestrian": (parse("1 / input.height > 1"),)}
        spec = gated_spec(**conditions)
        config = GatedConfig(spec, constant("pedestrian", 0.6))
        with pytest.raises(PatternError, match=f"gated {stage} condition failed: division by zero"):
            gated_classify(config, {"height": 0.0})


class TestEnvelope:
    def test_routes_both_channels(self):
        config = EnvelopeConfig(height_rule(), constant("not_pedestrian", 0.4))
        decision = envelope_route(config, {"height": 2.0})
        assert decision.safety_prediction.label == "pedestrian"
        assert decision.advisory_prediction.label == "not_pedestrian"
        assert decision.advisory_error is None

    def test_advisory_failure_is_isolated(self):
        config = EnvelopeConfig(height_rule(), ExpressionClassifier(()))
        decision = envelope_route(config, {"height": 2.0})
        assert decision.safety_prediction.label == "pedestrian"
        assert decision.advisory_prediction is None
        assert "no rule matched" in decision.advisory_error

    def test_safety_failure_raises(self):
        config = EnvelopeConfig(ExpressionClassifier(()), constant("x"))
        with pytest.raises(PatternError, match="safety classifier failed"):
            envelope_route(config, {"height": 2.0})

    def test_safety_must_be_expression_driven(self):
        with pytest.raises(PatternConfigError, match="expression-driven"):
            EnvelopeConfig(TableClassifier({}, Prediction("x")), constant("y"))


class TestHarvest:
    def test_low_confidence_is_stored(self):
        store = HarvestStore(threshold=0.5)
        record = TraceRecord("r", FeatureRecord({"height": 1.0}, "r"), Prediction("x", 0.2))
        assert harvest(store, record) is True
        assert len(store.entries) == 1
        assert "0.2 < 0.5" in store.entries[0][1]

    def test_confident_records_pass(self):
        store = HarvestStore(threshold=0.5)
        record = TraceRecord("r", FeatureRecord({}, "r"), Prediction("x", 0.9))
        assert harvest(store, record) is False
        assert store.entries == []

    def test_boundary_confidence_is_kept_out(self):
        store = HarvestStore(threshold=0.5)
        record = TraceRecord("r", FeatureRecord({}, "r"), Prediction("x", 0.5))
        assert harvest(store, record) is False

    def test_missing_confidence_is_always_stored(self):
        store = HarvestStore(threshold=0.0)
        record = TraceRecord("r", FeatureRecord({}, "r"), Prediction("x", None))
        assert harvest(store, record) is True
        assert store.entries[0][1] == "no confidence"

    def test_bad_threshold_rejected(self):
        with pytest.raises(PatternConfigError):
            HarvestStore(threshold=-0.1)


class TestSimulate:
    def domain(self):
        return [FeatureRecord({"height": float(h)}, f"h{h}") for h in range(12)]

    def test_perfect_subject_has_zero_error_rate(self):
        report = simulate(self.domain(), height_rule(), height_rule())
        assert report.error_rate == 0.0
        assert report.mismatches == []
        assert report.per_source["CLASSIFIER"]["records"] == 12

    def test_mismatches_are_listed_with_both_labels(self):
        report = simulate(self.domain(), height_rule(8.0), height_rule(6.0))
        # heights 6 and 7: oracle says pedestrian, subject says not_pedestrian
        assert report.error_rate == pytest.approx(2 / 12)
        assert {m["record"] for m in report.mismatches} == {"h6", "h7"}
        assert report.mismatches[0]["expected"] == "pedestrian"

    def test_pattern_sources_are_bucketed(self):
        config = SimplexConfig(constant("pedestrian", 0.3), height_rule(), 0.5)
        report = simulate(self.domain(), height_rule(), config)
        assert report.per_source["FALLBACK"]["records"] == 12
        assert report.error_rate == 0.0

    def test_subject_failure_counts_as_mismatch(self):
        report = simulate(self.domain(), height_rule(), ExpressionClassifier(()))
        assert report.error_rate == 1.0
        assert len(report.errors) == 12
        assert report.per_source["ERROR"]["mismatches"] == 12

    def test_spec_evaluation_failure_in_gating_counts_as_mismatch(self):
        # 1 / input.height fails on the record of height 0 only; the run goes on.
        spec = gated_spec(sufficient={"pedestrian": (parse("1 / input.height > 0.2"),)})
        report = simulate(self.domain(), height_rule(), GatedConfig(spec, height_rule()))
        assert report.errors == [
            {"record": "h0", "error": "gated sufficient condition failed: division by zero"}
        ]
        assert report.mismatches == [{"record": "h0", "source": "ERROR", "expected": "pedestrian"}]
        assert report.per_source["ERROR"] == {"records": 1, "mismatches": 1}
        assert sum(bucket["records"] for bucket in report.per_source.values()) == 12

    def test_oracle_failure_aborts(self):
        with pytest.raises(PatternError, match="oracle failed"):
            simulate(self.domain(), ExpressionClassifier(()), height_rule())

    def test_report_json_shape(self):
        report = simulate(self.domain(), height_rule(), height_rule(6.0))
        json.dumps(report.to_json_dict())

    def test_a_generator_is_read_one_record_at_a_time(self):
        events = []

        def domain():
            for record in self.domain():
                events.append(("pulled", record.id))
                yield record

        class Oracle:
            def classify(self, fields):
                events.append(("oracle", f"h{fields['height']:.0f}"))
                return height_rule().classify(fields)

        report = simulate(domain(), Oracle(), height_rule(6.0))
        ids = [f"h{h}" for h in range(12)]
        assert events == [event for rid in ids for event in (("pulled", rid), ("oracle", rid))]
        assert report.total == 12
        assert report.to_json_dict() == simulate(
            self.domain(), height_rule(), height_rule(6.0)
        ).to_json_dict()


class TestLoadHarness:
    def write(self, tmp_path, name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data), encoding="utf-8")
        return path

    def classifier_file(self, tmp_path, name="clf.json"):
        return self.write(
            tmp_path,
            name,
            {
                "kind": "expression",
                "rules": [{"condition": "input.height < 8", "label": "pedestrian", "confidence": 1.0}],
                "default": {"label": "not_pedestrian", "confidence": 1.0},
            },
        )

    def test_simplex_harness(self, tmp_path):
        self.classifier_file(tmp_path)
        harness = self.write(
            tmp_path,
            "harness.json",
            {"pattern": "simplex", "primary": "clf.json", "fallback": "clf.json", "threshold": 0.7},
        )
        subject = load_harness(harness)
        assert isinstance(subject, SimplexConfig)
        assert subject.threshold == 0.7

    def test_ensemble_harness(self, tmp_path):
        self.classifier_file(tmp_path)
        harness = self.write(
            tmp_path,
            "harness.json",
            {"pattern": "ensemble", "members": ["clf.json", "clf.json"], "fusion": "confidence_weighted"},
        )
        subject = load_harness(harness)
        assert isinstance(subject, EnsembleConfig)
        assert subject.fusion is FusionMode.CONFIDENCE_WEIGHTED

    def test_bare_classifier_harness(self, tmp_path):
        self.classifier_file(tmp_path)
        harness = self.write(tmp_path, "harness.json", {"pattern": "classifier", "classifier": "clf.json"})
        prediction, source = decide(load_harness(harness), {"height": 2.0})
        assert prediction.label == "pedestrian"
        assert source is DecisionSource.CLASSIFIER

    def test_envelope_harness_rejects_table_safety(self, tmp_path):
        self.classifier_file(tmp_path)
        self.write(tmp_path, "table.json", {"kind": "table", "entries": []})
        harness = self.write(
            tmp_path,
            "harness.json",
            {"pattern": "envelope", "safety": "table.json", "advisory": "clf.json"},
        )
        with pytest.raises(FormatError, match="expression classifier"):
            load_harness(harness)

    def test_unknown_pattern(self, tmp_path):
        harness = self.write(tmp_path, "harness.json", {"pattern": "voting"})
        with pytest.raises(FormatError, match="unknown pattern"):
            load_harness(harness)

    def test_unknown_fusion_mode(self, tmp_path):
        self.classifier_file(tmp_path)
        harness = self.write(
            tmp_path,
            "harness.json",
            {"pattern": "ensemble", "members": ["clf.json"], "fusion": "median"},
        )
        with pytest.raises(FormatError, match="unknown fusion mode"):
            load_harness(harness)
