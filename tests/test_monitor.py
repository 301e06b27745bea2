"""Monitor: per-sample checks, policy-driven state machine, tumbling windows,
trace reading, and concatenation behaviour."""
from __future__ import annotations

import copy
import dataclasses
import gc
import json
import pickle
import random
import runpy
import sys
import tracemalloc
from pathlib import Path

import pytest

from specguard.cli import main
from specguard.errors import FormatError
from specguard.monitor import (
    MalformedLine,
    MonitorPolicy,
    MonitorState,
    PolicyAction,
    TraceRecord,
    Violation,
    ViolationKind,
    check_batch_probabilistic,
    check_sample,
    read_trace,
    run_trace,
)
from specguard.speccore.records import FeatureRecord, Prediction
from specguard.speccore.spec import (
    MeanConstraint,
    PartialSpec,
    RangeConstraint,
    spec_to_json_dict,
)
from specguard.speccore.spec import load_spec
from specguard.speclang.parser import parse
from specguard.speclang.schema import NumberType, Schema

# The benchmark's generators, imported read-only, as bench/tests does.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from workloads import WORKLOADS  # noqa: E402

SCHEMA = Schema({"height": NumberType()}, ("pedestrian", "not_pedestrian"))


def make_spec(**overrides):
    base = dict(
        schema=SCHEMA,
        precondition=parse("input.height > 0"),
        postcondition=parse("output.confidence > 0.1"),
        sufficient={"pedestrian": (parse("input.height > 6"),)},
        necessary={"pedestrian": (parse("input.height < 8"),)},
    )
    base.update(overrides)
    return PartialSpec(**base)


def tr(rid, height, label="not_pedestrian", confidence=0.9):
    return TraceRecord(rid, FeatureRecord({"height": height}, rid), Prediction(label, confidence))


def kinds(violations):
    return [v.kind for v in violations]


class TestCheckSample:
    def test_clean_record(self):
        assert check_sample(make_spec(), tr("a", 5.0), MonitorPolicy()) == []

    def test_pre_violation_short_circuits_everything_else(self):
        # height -1 also breaks the sufficient/necessary conditions' spirit,
        # but a failed precondition suspends all later checks
        violations = check_sample(make_spec(), tr("a", -1.0, "pedestrian", 0.05), MonitorPolicy())
        assert kinds(violations) == [ViolationKind.PRE]
        assert violations[0].detail["output_untrusted"] is True

    def test_post_violation(self):
        violations = check_sample(make_spec(), tr("a", 5.0, confidence=0.05), MonitorPolicy())
        assert kinds(violations) == [ViolationKind.POST]

    def test_sufficient_violation(self):
        violations = check_sample(make_spec(), tr("a", 7.0, "not_pedestrian"), MonitorPolicy())
        assert kinds(violations) == [ViolationKind.SUFFICIENT]
        assert violations[0].detail["label"] == "pedestrian"

    def test_necessary_violation(self):
        violations = check_sample(make_spec(), tr("a", 9.0, "pedestrian"), MonitorPolicy())
        assert kinds(violations) == [ViolationKind.NECESSARY]

    def test_one_record_can_break_several_checks(self):
        violations = check_sample(
            make_spec(), tr("a", 9.0, "pedestrian", 0.05), MonitorPolicy()
        )
        assert kinds(violations) == [ViolationKind.POST, ViolationKind.NECESSARY]

    def test_eval_error_in_pre_suspends_the_sample(self):
        record = TraceRecord("a", FeatureRecord({}, "a"), Prediction("pedestrian", 0.9))
        violations = check_sample(make_spec(), record, MonitorPolicy())
        assert kinds(violations) == [ViolationKind.EVAL_ERROR]
        assert violations[0].detail["stage"] == "pre"


class TestViolation:
    """A run keeps every violation, so a Violation is slotted: it costs its
    fields alone, and behaves as the plain dataclass did."""

    @staticmethod
    def violation(**changes):
        fields = dict(
            record_id="r1",
            kind=ViolationKind.POST,
            detail={"condition": "output.confidence > 0.1", "predicted": "pedestrian"},
        )
        return Violation(**{**fields, **changes})

    def test_it_has_no_instance_dict(self):
        violation = self.violation()
        assert not hasattr(violation, "__dict__")
        with pytest.raises(AttributeError):
            violation.note = "anything"

    @pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
    def test_it_pickles_by_its_fields(self, protocol):
        violation = self.violation(post_failsafe=True)
        copy = pickle.loads(pickle.dumps(violation, protocol))
        assert copy == violation and copy is not violation
        assert copy.to_json_dict() == violation.to_json_dict()

    def test_replace_equality_and_repr_read_its_fields(self):
        violation = self.violation()
        moved = dataclasses.replace(violation, record_id="r2")
        assert moved.detail is violation.detail and moved.kind is ViolationKind.POST
        assert moved == self.violation(record_id="r2") and moved != violation
        assert violation != self.violation(post_failsafe=True)
        assert repr(violation) == (
            "Violation(record_id='r1', kind=<ViolationKind.POST: 'POST'>, "
            "detail={'condition': 'output.confidence > 0.1', 'predicted': 'pedestrian'}, "
            "post_failsafe=False)"
        )
        with pytest.raises(TypeError):
            hash(violation)  # mutable, as before

    def test_post_failsafe_can_still_be_set(self):
        violation = self.violation()
        violation.post_failsafe = True
        assert violation.to_json_dict()["post_failsafe"] is True
        policy = MonitorPolicy(on_post_class_violation=PolicyAction.FAILSAFE)
        report = run_trace(make_spec(), [tr("a", 9.0, "pedestrian"), tr("b", 9.0, "pedestrian")],
                           policy)
        assert [v.post_failsafe for v in report.violations] == [False, True]


class TestSharedDetails:
    """The fast path gives all violations of one check on one predicted
    label one read-only detail; check_sample gives each a fresh dict."""

    TRACE = [
        tr("a", 9.0, "pedestrian", 0.05),  # POST and NECESSARY
        tr("b", 9.0, "pedestrian", 0.05),
        tr("c", 5.0, "not_pedestrian", 0.05),  # POST on another label
    ]

    def violations(self):
        return run_trace(make_spec(), self.TRACE).violations

    def test_one_check_on_one_label_shares_one_detail(self):
        a_post, a_necessary, b_post, b_necessary, c_post = self.violations()
        assert a_post.detail is b_post.detail and a_necessary.detail is b_necessary.detail
        assert c_post.detail is not a_post.detail
        assert a_post.detail == {"condition": "output.confidence > 0.1", "predicted": "pedestrian"}
        assert c_post.detail["predicted"] == "not_pedestrian"
        exact = [
            v.detail for record in self.TRACE
            for v in check_sample(make_spec(), record, MonitorPolicy())
        ]
        assert [v.detail for v in self.violations()] == exact

    @pytest.mark.parametrize(
        "write",
        [
            lambda d: d.__setitem__("condition", "true"),
            lambda d: d.update(condition="true"),
            lambda d: d.setdefault("window", 0),
            lambda d: d.pop("condition"),
            lambda d: d.popitem(),
            lambda d: d.clear(),
            lambda d: d.__delitem__("condition"),
            lambda d: d.__ior__({"condition": "true"}),
        ],
        ids=["setitem", "update", "setdefault", "pop", "popitem", "clear", "del", "ior"],
    )
    def test_a_shared_detail_refuses_every_write(self, write):
        violation = self.violations()[0]
        before = dict(violation.detail)
        with pytest.raises(TypeError, match="read-only"):
            write(violation.detail)
        assert violation.detail == before

    @pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
    def test_a_pickled_report_keeps_its_details_shared_and_read_only(self, protocol):
        violations = self.violations()
        copies = pickle.loads(pickle.dumps(violations, protocol))
        assert copies == violations
        assert copies[0].detail is copies[2].detail  # still shared, and still read-only
        with pytest.raises(TypeError):
            copies[0].detail["condition"] = "true"

    def test_copies_and_dataclass_helpers_give_equal_values(self):
        violation = self.violations()[0]
        assert copy.deepcopy(violation) == violation
        assert copy.copy(violation.detail) == violation.detail
        assert dataclasses.replace(violation, record_id="z").detail is violation.detail
        assert dataclasses.asdict(violation)["detail"] == violation.detail
        plain = violation.detail.copy()
        plain["window"] = 0  # a plain copy is a dict of its own
        assert type(plain) is dict and "window" not in violation.detail

    def test_it_prints_and_encodes_as_a_plain_dict(self):
        violation = self.violations()[0]
        plain = dict(violation.detail)
        assert repr(violation.detail) == repr(plain) and f"{violation.detail}" == f"{plain}"
        assert json.dumps(violation.detail) == json.dumps(plain)
        assert json.dumps(violation.detail, indent=2, sort_keys=True) == json.dumps(
            plain, indent=2, sort_keys=True
        )

    def test_check_sample_builds_fresh_plain_details(self):
        record = self.TRACE[0]
        first, second = (check_sample(make_spec(), record, MonitorPolicy()) for _ in range(2))
        for one, other in zip(first, second):
            assert type(one.detail) is dict and one.detail == other.detail
            assert one.detail is not other.detail
        first[0].detail["window"] = 0  # its own dict to change

    def test_a_mostly_failing_run_keeps_under_200_bytes_a_violation(self, tmp_path):
        """Every violation is kept, so what each costs bounds a long run's
        memory: its slots, its record id and its share of the report's
        list. Copying the detail for each violation cost 184 B more."""
        WORKLOADS["monitor_trace"].generate(7, tmp_path, lines=20000)
        path = tmp_path / "spec.json"
        data = json.loads(path.read_text(encoding="utf-8"))
        data["postcondition"] = "output.confidence >= 0.999"
        path.write_text(json.dumps(data), encoding="utf-8")
        spec = load_spec(path)
        trace = tmp_path / "trace.jsonl"
        run_trace(spec, trace)  # whatever a first run compiles or caches
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            report = run_trace(spec, trace)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert report.counts["POST"] > 19000
        assert retained / len(report.violations) < 200


class TestPolicyValidation:
    def test_post_action_cannot_be_mark_untrusted(self):
        with pytest.raises(FormatError, match="DEGRADE or FAILSAFE"):
            MonitorPolicy(on_post_class_violation=PolicyAction.MARK_UNTRUSTED)

    @pytest.mark.parametrize(
        "action", [{"on_pre_violation": "DEGRADE"}, {"on_post_class_violation": "MARK_UNTRUSTED"}]
    )
    def test_an_action_must_be_a_policy_action(self, action):
        # a str would fail only at the first violation, or slip past the
        # MARK_UNTRUSTED rule
        with pytest.raises(FormatError, match="must be a PolicyAction"):
            MonitorPolicy(**action)

    def test_window_must_be_positive(self):
        with pytest.raises(FormatError, match=">= 1"):
            MonitorPolicy(probabilistic_window=0)

    @pytest.mark.parametrize("window", ["5", 2.5, True, False, None, 5.0])
    def test_window_must_be_an_int(self, window):
        with pytest.raises(FormatError, match="must be an integer >= 1"):
            MonitorPolicy(probabilistic_window=window)


GOLDEN_TRACE = [
    tr("r1", 5.0),
    tr("r2", 4.0),
    tr("r3", -1.0),  # PRE: height must be positive
    tr("r4", 5.0),
    tr("r5", 3.0),
    tr("r6", 5.0, confidence=0.05),  # POST: confidence too low
    tr("r7", 2.0),
    tr("r8", 7.0, "pedestrian"),
    tr("r9", 9.0, "pedestrian"),  # NECESSARY: pedestrians are under 8
    tr("r10", 4.0),
]


class TestStateMachine:
    def run(self, **policy):
        return run_trace(make_spec(), GOLDEN_TRACE, MonitorPolicy(**policy))

    def test_golden_trace_violation_set(self):
        report = self.run()
        assert [(v.record_id, v.kind) for v in report.violations] == [
            ("r3", ViolationKind.PRE),
            ("r6", ViolationKind.POST),
            ("r9", ViolationKind.NECESSARY),
        ]
        assert report.records_processed == 10
        assert report.counts["PRE"] == 1
        assert report.counts["POST"] == 1
        assert report.counts["NECESSARY"] == 1

    def test_a_violation_kind_hashes_in_c(self):
        """Every absorbed violation looks its kind up in the run's
        escalation table; Enum.__hash__ would make that a Python call."""
        assert ViolationKind.__hash__ is object.__hash__
        assert {kind: kind.value for kind in ViolationKind}[ViolationKind.POST] == "POST"

    @pytest.mark.parametrize(
        "pre,post,expected",
        [
            (PolicyAction.MARK_UNTRUSTED, PolicyAction.DEGRADE, MonitorState.DEGRADED),
            (PolicyAction.MARK_UNTRUSTED, PolicyAction.FAILSAFE, MonitorState.FAILSAFE),
            (PolicyAction.DEGRADE, PolicyAction.DEGRADE, MonitorState.DEGRADED),
            (PolicyAction.DEGRADE, PolicyAction.FAILSAFE, MonitorState.FAILSAFE),
            (PolicyAction.FAILSAFE, PolicyAction.DEGRADE, MonitorState.FAILSAFE),
            (PolicyAction.FAILSAFE, PolicyAction.FAILSAFE, MonitorState.FAILSAFE),
        ],
    )
    def test_final_state_under_every_policy_combination(self, pre, post, expected):
        report = self.run(on_pre_violation=pre, on_post_class_violation=post)
        assert report.final_state is expected

    def test_state_never_goes_backward(self):
        # FAILSAFE at r3; later DEGRADE-grade violations must not lower it
        report = self.run(on_pre_violation=PolicyAction.FAILSAFE)
        assert report.final_state is MonitorState.FAILSAFE

    def test_post_failsafe_flags_only_later_violations(self):
        report = self.run(on_pre_violation=PolicyAction.FAILSAFE)
        flags = {v.record_id: v.post_failsafe for v in report.violations}
        assert flags == {"r3": False, "r6": True, "r9": True}

    def test_mark_untrusted_leaves_state_nominal(self):
        report = run_trace(
            make_spec(), [tr("r1", -1.0)], MonitorPolicy(on_pre_violation=PolicyAction.MARK_UNTRUSTED)
        )
        assert report.final_state is MonitorState.NOMINAL
        assert kinds(report.violations) == [ViolationKind.PRE]

    def test_conformance_failure_gates_the_sample_checks(self):
        bad = TraceRecord(
            "weird",
            FeatureRecord({"height": 5.0, "bonus": 1}, "weird"),
            Prediction("pedestrian", 0.9),
        )
        report = run_trace(make_spec(), [bad])
        assert kinds(report.violations) == [ViolationKind.EVAL_ERROR]
        assert report.violations[0].detail["stage"] == "conformance"
        assert report.final_state is MonitorState.DEGRADED

    def test_unknown_label_is_a_conformance_violation(self):
        bad = tr("x", 5.0, label="bicycle")
        report = run_trace(make_spec(), [bad])
        assert report.violations[0].detail["stage"] == "conformance"

    def test_malformed_lines_degrade(self):
        report = run_trace(make_spec(), [tr("r1", 5.0), MalformedLine(2, "boom")])
        assert report.final_state is MonitorState.DEGRADED
        assert report.records_processed == 2
        assert report.violations[0].detail["stage"] == "trace"


class TestProbabilisticWindows:
    def make(self):
        return make_spec(
            postcondition=None,
            probabilistic=(RangeConstraint("height", 0.0, 6.0, max_violation_fraction=0.25),),
        )

    def test_full_window_fires(self):
        trace = [tr(f"r{i}", 7.0) for i in range(4)]
        report = run_trace(self.make(), trace, MonitorPolicy(probabilistic_window=4))
        prob = [v for v in report.violations if v.kind is ViolationKind.PROBABILISTIC]
        assert len(prob) == 1
        assert prob[0].detail["window"] == 0
        assert prob[0].detail["observed_fraction"] == 1.0
        assert report.final_state is MonitorState.DEGRADED

    def test_partial_trailing_window_never_fires(self):
        trace = [tr(f"r{i}", 7.0) for i in range(3)]
        report = run_trace(self.make(), trace, MonitorPolicy(probabilistic_window=4))
        assert all(v.kind is not ViolationKind.PROBABILISTIC for v in report.violations)

    def test_windows_tumble_without_overlap(self):
        # first window all high, second window all fine
        trace = [tr(f"a{i}", 7.0) for i in range(4)] + [tr(f"b{i}", 3.0) for i in range(4)]
        report = run_trace(self.make(), trace, MonitorPolicy(probabilistic_window=4))
        prob = [v for v in report.violations if v.kind is ViolationKind.PROBABILISTIC]
        assert [v.detail["window"] for v in prob] == [0]

    def test_fraction_at_the_limit_does_not_fire(self):
        trace = [tr("a", 7.0)] + [tr(f"b{i}", 3.0) for i in range(3)]
        report = run_trace(self.make(), trace, MonitorPolicy(probabilistic_window=4))
        assert all(v.kind is not ViolationKind.PROBABILISTIC for v in report.violations)

    def test_mean_constraint(self):
        spec = make_spec(
            postcondition=None,
            probabilistic=(MeanConstraint("height", 4.0, 0.5),),
        )
        violations = check_batch_probabilistic(
            spec, [FeatureRecord({"height": h}) for h in (7.0, 8.0)]
        )
        assert len(violations) == 1
        assert violations[0].detail["observed_mean"] == 7.5

    def test_missing_field_is_an_eval_error_and_excluded(self):
        spec = self.make()
        violations = check_batch_probabilistic(
            spec, [FeatureRecord({"height": 3.0}, "ok"), FeatureRecord({}, "gone")]
        )
        assert kinds(violations) == [ViolationKind.EVAL_ERROR]
        assert violations[0].record_id == "gone"

    def test_demo_03_spec_has_no_eval_errors_on_full_windows(self, capsys):
        demo = runpy.run_path(str(Path(__file__).parent.parent / "demos" / "03_trace_monitor.py"))
        capsys.readouterr()
        report = run_trace(demo["spec"], demo["trace"], MonitorPolicy(probabilistic_window=10))
        assert ViolationKind.EVAL_ERROR not in kinds(report.violations)


class TestConcatenation:
    def test_concatenated_traces_report_the_same_violations(self):
        # without probabilistic constraints the monitor is per-record, so
        # running two halves separately finds the same (id, kind) multiset
        rng = random.Random(7)
        trace = [
            tr(
                f"r{i}",
                rng.uniform(-2, 10),
                rng.choice(["pedestrian", "not_pedestrian"]),
                rng.uniform(0, 1),
            )
            for i in range(60)
        ]
        spec = make_spec()
        whole = run_trace(spec, trace)
        first = run_trace(spec, trace[:30])
        second = run_trace(spec, trace[30:])
        key = lambda report: sorted(
            (v.record_id, v.kind.value) for v in report.violations
        )
        assert key(whole) == sorted(key(first) + key(second))
        assert whole.records_processed == first.records_processed + second.records_processed


class TestReadTrace:
    def test_reads_records_and_flags_bad_lines(self, tmp_path):
        lines = [
            json.dumps(
                {"id": "r1", "input": {"height": 5.0}, "output": {"label": "pedestrian"}}
            ),
            "{not json",
            json.dumps({"id": "r2", "input": {"height": 2.0}, "output": {"label": "x"}}),
            json.dumps({"input": {}, "output": {"label": "x"}}),  # id missing
            "",
        ]
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join(lines), encoding="utf-8")
        items = list(read_trace(path))
        assert isinstance(items[0], TraceRecord) and items[0].id == "r1"
        assert isinstance(items[1], MalformedLine) and items[1].line == 2
        assert isinstance(items[2], TraceRecord)
        assert isinstance(items[3], MalformedLine) and "id" in items[3].error
        assert len(items) == 4  # blank line skipped

    def test_confidence_is_optional(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            json.dumps({"id": "r", "input": {"height": 1}, "output": {"label": "pedestrian"}}),
            encoding="utf-8",
        )
        (record,) = read_trace(path)
        assert record.output.confidence is None

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FormatError, match="cannot read"):
            list(read_trace(tmp_path / "absent.jsonl"))

    def test_crlf_and_lf_files_give_identical_reports(self, tmp_path):
        output = {"label": "pedestrian", "confidence": 0.9}
        lines = [
            json.dumps({"id": "r1", "input": {"height": 5.0}, "output": output}),
            '{"id": "r2", "input": {"height": 9.0}, "output": {"label": "pedestrian"',
            "",
            json.dumps({"id": "r3", "input": {"height": -1.0}, "output": output}),
            json.dumps({"id": "r4", "input": {"height": 9.0}, "output": output}),
        ]
        reports = []
        for newline in ("\n", "\r\n"):
            path = tmp_path / "trace.jsonl"
            path.write_bytes(newline.join(lines).encode("utf-8") + newline.encode("utf-8"))
            reports.append(json.dumps(run_trace(make_spec(), read_trace(path)).to_json_dict()))
        assert reports[0] == reports[1]
        report = json.loads(reports[0])
        assert [(v["record_id"], v["kind"]) for v in report["violations"]] == [
            (None, "EVAL_ERROR"),
            ("r3", "PRE"),
            ("r4", "NECESSARY"),
        ]
        # The JSON error names the line's own column, not a later line.
        assert report["violations"][0]["detail"]["line"] == 2
        assert "line 1 column" in report["violations"][0]["detail"]["error"]

    def test_a_line_that_is_not_utf8_is_malformed_and_the_rest_is_read(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        good = json.dumps({"id": "r1", "input": {"height": 5.0}, "output": {"label": "pedestrian"}})
        path.write_bytes(
            good.encode("utf-8") + b"\n" + b'{"id": "r\xc3\x28"}\n' + good.encode("utf-8") + b"\n"
        )
        items = list(read_trace(path))
        assert [type(item) for item in items] == [TraceRecord, MalformedLine, TraceRecord]
        assert items[1].line == 2
        assert "not UTF-8" in items[1].error

    def test_only_a_newline_ends_a_line(self, tmp_path):
        # U+2028 and a lone \r are characters inside a line, not line ends.
        path = tmp_path / "trace.jsonl"
        record = {"id": "a\u2028b", "input": {"height": 5.0}, "output": {"label": "pedestrian"}}
        text = json.dumps(record, ensure_ascii=False) + "\n" + json.dumps(record) + "\r\r\n"
        path.write_bytes(text.encode("utf-8"))
        items = list(read_trace(path))
        assert [item.id for item in items] == ["a\u2028b", "a\u2028b"]

    def _golden_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            "".join(
                json.dumps(
                    {
                        "id": r.id,
                        "input": r.input.fields,
                        "output": {"label": r.output.label, "confidence": r.output.confidence},
                    }
                )
                + "\n"
                for r in GOLDEN_TRACE
            ),
            encoding="utf-8",
        )
        return path

    def test_a_str_path_and_a_path_give_the_report_of_the_items(self, tmp_path):
        path = self._golden_file(tmp_path)
        policy = MonitorPolicy(on_pre_violation=PolicyAction.FAILSAFE)
        want = run_trace(make_spec(), GOLDEN_TRACE, policy).to_json_dict()
        for trace in (path, str(path), read_trace(path), iter(GOLDEN_TRACE)):
            assert run_trace(make_spec(), trace, policy).to_json_dict() == want

    @pytest.mark.parametrize("case", ["missing", "directory"])
    def test_an_unreadable_path_raises_the_readers_error(self, tmp_path, case):
        path = tmp_path / "trace.jsonl"
        if case == "directory":
            path.mkdir()
        with pytest.raises(FormatError) as from_items:
            run_trace(make_spec(), read_trace(path))
        for trace in (path, str(path)):
            with pytest.raises(FormatError) as from_path:
                run_trace(make_spec(), trace)
            assert str(from_path.value) == str(from_items.value)
        assert str(from_items.value).startswith(f"cannot read trace file {path}: ")

    @pytest.mark.parametrize("case", ["missing", "directory"])
    def test_monitor_run_on_an_unreadable_trace_exits_two(self, tmp_path, capsys, case):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(spec_to_json_dict(make_spec())), encoding="utf-8")
        path = tmp_path / "trace.jsonl"
        if case == "directory":
            path.mkdir()
        code = main(["monitor", "run", "--spec", str(spec), "--trace", str(path)])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "Traceback" not in err
        error = json.loads(err)
        assert error["error"] == "FormatError"
        assert error["detail"].startswith(f"cannot read trace file {path}: ")

    def test_report_json_shape(self):
        report = run_trace(make_spec(), GOLDEN_TRACE)
        data = report.to_json_dict()
        assert data["final_state"] == "DEGRADED"
        assert data["records_processed"] == 10
        assert len(data["violations"]) == 3
        json.dumps(data)
