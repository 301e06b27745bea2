"""Trace-level runtime verification with a fail-safe state machine.

Feed a recorded (or live) sequence of input/prediction pairs through a
PartialSpec. Per-sample checks produce violations; a policy maps violation
kinds to state transitions NOMINAL -> DEGRADED -> FAILSAFE (never backward).
Probabilistic constraints run on tumbling windows of inputs.

Fast path. run_trace first hands each record to one Python function
generated for the spec (clean_record_function). It answers True only when
the exact checks would find nothing: the record conforms to the schema and
the prediction to the label alphabet, and check_sample reports no
violation. Such a record only joins the probabilistic window. It answers
False only when the record and prediction conform but a condition may
fail: such a record goes to check_sample, which reports what fails. Every
other record, including one on which the generated function raises, goes
through conformance_errors, prediction_errors and check_sample exactly as
it would without the fast path. So every violation, its detail, its error
text and the order of the checks come from those functions alone. A spec
the generator does not take (one that fails static_errors, or holds a
literal that is not exactly an int a float can hold, a float, a str or a
bool) has no fast path.

How much the fast path saves depends on the share of records it decides:
about 91% on the benchmark's monitor_trace workload. A record it does not
decide pays for the generated call and the exact checks; one that conforms
skips conformance_errors and prediction_errors, which pays the call back.

Reading. read_trace streams the file a line at a time. Each line is decoded
by one call of the JSON scanner (errors.json_line), which falls back to
json.loads, and so to its exact value and error text, on any line the
scanner does not take whole. A value that passes the record checks is
built without the frozen dataclasses' __init__ (see _built_trace_record);
the checks name what is wrong with any other value. With the fast path
deciding most records, decoding and building a line cost more than
checking it, so each is kept to one call per line.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence, Union

from .errors import EvalError, FormatError, json_line
from .speccore.records import (
    FeatureRecord,
    Prediction,
    conformance_errors,
    prediction_errors,
    prediction_guard,
    record_ref,
)
from .speccore.spec import (
    MeanConstraint,
    PartialSpec,
    RangeConstraint,
    check_necessary,
    check_post,
    check_pre,
    check_sufficient,
    require_well_formed,
    spec_function,
)
from .speclang.ast import to_source
from .speclang.codegen import Emitter
from .speclang.schema import is_number


class MonitorState(Enum):
    NOMINAL = "NOMINAL"
    DEGRADED = "DEGRADED"
    FAILSAFE = "FAILSAFE"


_STATE_RANK = {MonitorState.NOMINAL: 0, MonitorState.DEGRADED: 1, MonitorState.FAILSAFE: 2}


class ViolationKind(Enum):
    PRE = "PRE"
    POST = "POST"
    SUFFICIENT = "SUFFICIENT"
    NECESSARY = "NECESSARY"
    PROBABILISTIC = "PROBABILISTIC"
    EVAL_ERROR = "EVAL_ERROR"


class PolicyAction(Enum):
    MARK_UNTRUSTED = "MARK_UNTRUSTED"
    DEGRADE = "DEGRADE"
    FAILSAFE = "FAILSAFE"


_ACTION_STATE = {
    PolicyAction.MARK_UNTRUSTED: MonitorState.NOMINAL,
    PolicyAction.DEGRADE: MonitorState.DEGRADED,
    PolicyAction.FAILSAFE: MonitorState.FAILSAFE,
}


@dataclass(frozen=True)
class MonitorPolicy:
    """How violations escalate.

    A precondition violation only says the output cannot be trusted, so its
    default action is MARK_UNTRUSTED; postcondition and class-condition
    violations are real contract breaches and at least degrade. Probabilistic
    violations and evaluation errors always degrade (not configurable).
    """

    on_pre_violation: PolicyAction = PolicyAction.MARK_UNTRUSTED
    on_post_class_violation: PolicyAction = PolicyAction.DEGRADE
    probabilistic_window: int = 100

    def __post_init__(self) -> None:
        window = self.probabilistic_window
        if not isinstance(window, int) or isinstance(window, bool) or window < 1:
            raise FormatError(f"probabilistic_window must be an integer >= 1, got {window!r}")
        if self.on_post_class_violation is PolicyAction.MARK_UNTRUSTED:
            raise FormatError(
                "on_post_class_violation must be DEGRADE or FAILSAFE; "
                "a broken postcondition or class condition is a real fault"
            )


@dataclass(frozen=True)
class TraceRecord:
    id: str
    input: FeatureRecord
    output: Prediction


@dataclass(frozen=True)
class MalformedLine:
    """A trace line that could not be parsed; stands in for a TraceRecord."""

    line: int
    error: str


@dataclass
class Violation:
    record_id: Optional[str]
    kind: ViolationKind
    detail: dict
    post_failsafe: bool = False

    def to_json_dict(self) -> dict:
        return {
            "record_id": self.record_id,
            "kind": self.kind.value,
            "detail": self.detail,
            "post_failsafe": self.post_failsafe,
        }


@dataclass
class MonitorReport:
    violations: list[Violation]
    final_state: MonitorState
    records_processed: int

    @property
    def counts(self) -> dict[str, int]:
        out = {kind.value: 0 for kind in ViolationKind}
        for violation in self.violations:
            out[violation.kind.value] += 1
        return out

    def to_json_dict(self) -> dict:
        return {
            "final_state": self.final_state.value,
            "records_processed": self.records_processed,
            "counts": self.counts,
            "violations": [v.to_json_dict() for v in self.violations],
        }


def check_sample(spec: PartialSpec, record: TraceRecord, policy: MonitorPolicy) -> list[Violation]:
    """All violations of one record, in check order: PRE, then (only when the
    precondition holds) POST, SUFFICIENT, NECESSARY.

    An evaluation error in the precondition stops the sample's remaining
    checks: their semantics are conditional on a precondition verdict that
    does not exist. Errors in later checks do not stop their siblings.
    """
    rid, fields, predicted = record.id, record.input.fields, record.output
    try:
        pre_holds = check_pre(spec, fields)
    except EvalError as exc:
        return [_eval_error(rid, "pre", exc)]
    if not pre_holds:
        detail = {"condition": to_source(spec.precondition), "output_untrusted": True}
        return [Violation(rid, ViolationKind.PRE, detail)]
    violations: list[Violation] = []
    try:
        if not check_post(spec, fields, predicted):
            detail = {"condition": to_source(spec.postcondition), "predicted": predicted.label}
            violations.append(Violation(rid, ViolationKind.POST, detail))
    except EvalError as exc:
        violations.append(_eval_error(rid, "post", exc))
    try:
        for label, index in check_sufficient(spec, fields, predicted):
            detail = {
                "label": label,
                "index": index,
                "condition": to_source(spec.sufficient[label][index]),
                "predicted": predicted.label,
            }
            violations.append(Violation(rid, ViolationKind.SUFFICIENT, detail))
    except EvalError as exc:
        violations.append(_eval_error(rid, "sufficient", exc))
    try:
        for label, index in check_necessary(spec, fields, predicted):
            detail = {
                "label": label,
                "index": index,
                "condition": to_source(spec.necessary[label][index]),
            }
            violations.append(Violation(rid, ViolationKind.NECESSARY, detail))
    except EvalError as exc:
        violations.append(_eval_error(rid, "necessary", exc))
    return violations


def _eval_error(rid: Optional[str], stage: str, exc: EvalError) -> Violation:
    return Violation(rid, ViolationKind.EVAL_ERROR, {"stage": stage, "error": str(exc)})


def clean_record_function(spec: PartialSpec) -> Optional[Callable[[Any, Any], Optional[bool]]]:
    """One generated function clean(fields, prediction) for the spec, or
    None when the spec has no fast path (see the module docstring).

    clean returns True only when the fields are a dict that conforms to the
    schema with exact builtin types (float, int, str, bool, lists of rows),
    the label is a str in the alphabet, the confidence is a float in [0, 1],
    the precondition and postcondition hold, no sufficient condition of
    another label holds and every necessary condition of the predicted
    label holds. It returns False when the record and prediction conform
    that way but a condition fails, and None (or raises) otherwise. It
    never returns True where the exact checks find something, nor False
    where conformance_errors or prediction_errors do; it may return None
    or raise on a record that conforms. The spec is read once, here: build
    a new function after changing it.

    The conformance part is written by records.conformance_guard,
    records.prediction_guard and schema.value_guard, next to the exact
    rules it must agree with; the conditions' part by speclang.codegen.
    """

    def write(emit: Emitter) -> list[str]:
        body = prediction_guard(spec.schema, emit.constant)
        conditions = [spec.precondition]
        if spec.postcondition is not None:
            conditions.append(spec.postcondition)
        tests = [f"not {emit.condition(c)}" for c in conditions]
        for label, exprs in spec.sufficient.items():
            if exprs:
                tests.append(f"label != {emit.constant(label)} and {emit.any_of(exprs)}")
        for label, exprs in spec.necessary.items():
            if exprs:
                tests.append(f"label == {emit.constant(label)} and not {emit.all_of(exprs)}")
        for test in tests:
            body += [f"if {test}:", "    return False"]
        return body + ["return True"]

    return spec_function(spec, "clean", "fields, prediction", write)


def check_batch_probabilistic(
    spec: PartialSpec, inputs: Sequence[FeatureRecord]
) -> list[Violation]:
    """Evaluate the spec's probabilistic constraints on one batch of inputs.

    Records missing the constrained field (or holding a non-number) yield
    EVAL_ERROR violations and are excluded from the statistics.
    """
    violations: list[Violation] = []
    for constraint in spec.probabilistic:
        values: list[float] = []
        for index, record in enumerate(inputs):
            value = record.fields.get(constraint.field)
            if value is None or not is_number(value):
                violations.append(
                    Violation(
                        record_ref(record.id, index),
                        ViolationKind.EVAL_ERROR,
                        {
                            "stage": "probabilistic",
                            "field": constraint.field,
                            "error": f"field {constraint.field!r} missing or not a number",
                        },
                    )
                )
                continue
            values.append(float(value))
        if not values:
            continue
        if isinstance(constraint, RangeConstraint):
            outside = sum(1 for v in values if not constraint.lo <= v <= constraint.hi)
            fraction = outside / len(values)
            if fraction > constraint.max_violation_fraction:
                violations.append(
                    Violation(
                        None,
                        ViolationKind.PROBABILISTIC,
                        {
                            "field": constraint.field,
                            "constraint": "range",
                            "lo": constraint.lo,
                            "hi": constraint.hi,
                            "observed_fraction": fraction,
                            "allowed_fraction": constraint.max_violation_fraction,
                            "samples": len(values),
                        },
                    )
                )
        else:
            assert isinstance(constraint, MeanConstraint)
            mean = sum(values) / len(values)
            if abs(mean - constraint.expected) > constraint.tolerance:
                violations.append(
                    Violation(
                        None,
                        ViolationKind.PROBABILISTIC,
                        {
                            "field": constraint.field,
                            "constraint": "mean",
                            "expected": constraint.expected,
                            "tolerance": constraint.tolerance,
                            "observed_mean": mean,
                            "samples": len(values),
                        },
                    )
                )
    return violations


def _action_for(kind: ViolationKind, policy: MonitorPolicy) -> PolicyAction:
    if kind is ViolationKind.PRE:
        return policy.on_pre_violation
    if kind in (ViolationKind.POST, ViolationKind.SUFFICIENT, ViolationKind.NECESSARY):
        return policy.on_post_class_violation
    # PROBABILISTIC and EVAL_ERROR: fixed escalation, see MonitorPolicy docs.
    return PolicyAction.DEGRADE


def run_trace(
    spec: PartialSpec,
    trace: Iterable[Union[TraceRecord, MalformedLine]],
    policy: MonitorPolicy = MonitorPolicy(),
) -> MonitorReport:
    """Run the monitor over a whole trace.

    Records arriving after the state machine reached FAILSAFE are still
    checked and logged, flagged post_failsafe (the violations that caused the
    transition are not flagged). Probabilistic constraints fire on each full
    tumbling window of probabilistic_window records; a trailing partial
    window is not checked.

    The spec's fast-path function is generated once per call, before the
    first record; a record it calls clean skips the exact checks, one it
    has shown to conform skips the conformance checks, every other record
    gets them all (see the module docstring). The report is the one the
    exact checks alone would give.

    A spec that static_errors rejects raises FormatError before the first
    record is read (spec.require_well_formed).
    """
    require_well_formed(spec)
    clean = clean_record_function(spec)
    all_violations: list[Violation] = []
    state = MonitorState.NOMINAL
    processed = 0
    window: list[FeatureRecord] = []
    window_index = 0

    def absorb(violations: list[Violation], window_label: Optional[int] = None) -> None:
        nonlocal state
        already_failsafe = state is MonitorState.FAILSAFE
        for violation in violations:
            if already_failsafe:
                violation.post_failsafe = True
            if window_label is not None:
                violation.detail.setdefault("window", window_label)
            next_state = _ACTION_STATE[_action_for(violation.kind, policy)]
            if _STATE_RANK[next_state] > _STATE_RANK[state]:
                state = next_state
            all_violations.append(violation)

    for item in trace:
        processed += 1
        if isinstance(item, MalformedLine):
            absorb(
                [
                    Violation(
                        None,
                        ViolationKind.EVAL_ERROR,
                        {"stage": "trace", "line": item.line, "error": item.error},
                    )
                ]
            )
            continue
        try:
            verdict = None if clean is None else clean(item.input.fields, item.output)
        except Exception:  # the exact checks below say what is wrong
            verdict = None
        if verdict is not True:
            structural: list[str] = []
            if verdict is None:
                structural = conformance_errors(item.input.fields, spec.schema)
                structural += prediction_errors(item.output, spec.schema)
            if structural:
                absorb(
                    [
                        Violation(
                            item.id,
                            ViolationKind.EVAL_ERROR,
                            {"stage": "conformance", "errors": structural},
                        )
                    ]
                )
                continue
            absorb(check_sample(spec, item, policy))
        window.append(item.input)
        if len(window) == policy.probabilistic_window:
            absorb(check_batch_probabilistic(spec, window), window_label=window_index)
            window = []
            window_index += 1
    return MonitorReport(all_violations, state, processed)


def read_trace(path: Union[str, Path]) -> Iterator[Union[TraceRecord, MalformedLine]]:
    """Read a JSON Lines trace file: one record per line,
    {"id": "...", "input": {...}, "output": {"label": "...", "confidence": c}}.

    The file is read one line at a time. Lines end at "\n" (a "\r" before
    it is dropped too), as JSON Lines defines; no other character ends a
    line. Blank lines are skipped. A line that is not UTF-8 or not a valid
    record comes back as a MalformedLine, so the monitor can log it and keep
    going. An unreadable file raises FormatError.

    Each line is decoded by errors.json_line: one call of the JSON scanner,
    or json.loads where the scanner does not take the whole line, so every
    value and error text is json.loads's, and a value nested too deeply for
    the decoder is a MalformedLine too. A value that passes the record
    checks is built without the dataclasses' __init__ and keeps the decoded
    input dict; the items are equal to what the constructors would build.
    """
    path = Path(path)
    try:
        handle = path.open("rb")
    except OSError as exc:
        raise FormatError(f"cannot read trace file {path}: {exc}") from exc
    with handle:
        for line_no, raw in enumerate(handle, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                yield MalformedLine(line_no, f"line is not UTF-8: {exc}")
                continue
            if line.endswith("\n"):
                line = line[:-2] if line.endswith("\r\n") else line[:-1]
            if not line.strip():
                continue
            try:
                yield _trace_record_from_json(json_line(line))
            except (ValueError, FormatError) as exc:
                # ValueError: not JSON, an int with too many digits, or a
                # value nested too deeply (see errors.json_line)
                yield MalformedLine(line_no, str(exc))


def _trace_record_from_json(data: Any) -> TraceRecord:
    """The TraceRecord of one freshly decoded trace line; FormatError says
    what is wrong with any other value."""
    if not isinstance(data, dict):
        raise FormatError("trace record must be a JSON object")
    rid = data.get("id")
    if not isinstance(rid, str):
        raise FormatError("trace record needs a string 'id'")
    raw_input = data.get("input")
    if not isinstance(raw_input, dict):
        raise FormatError(f"trace record {rid!r} needs an 'input' object")
    raw_output = data.get("output")
    if not isinstance(raw_output, dict) or not isinstance(raw_output.get("label"), str):
        raise FormatError(f"trace record {rid!r} needs an 'output' object with a 'label'")
    confidence = raw_output.get("confidence")
    if confidence is not None and not is_number(confidence):
        raise FormatError(f"trace record {rid!r} confidence must be a number")
    return _built_trace_record(
        rid, raw_input, raw_output["label"], None if confidence is None else float(confidence)
    )


def _built_trace_record(
    rid: str, fields: dict, label: str, confidence: Optional[float]
) -> TraceRecord:
    """TraceRecord(rid, FeatureRecord(fields, rid), Prediction(label,
    confidence)), built without the dataclasses' frozen __init__.

    That __init__ sets each field through object.__setattr__, which costs
    about as much per trace line as decoding the line; none of the three
    classes has a __post_init__ to skip. Each __dict__ is filled in declared
    field order, so the records are equal and repr-equal to the
    constructor-built ones, hash as they do, and refuse assignment as they
    do. The caller has checked every value; fields is the freshly decoded
    dict, which nothing else holds, so it is kept uncopied.
    """
    record, features, prediction = (
        object.__new__(TraceRecord),
        object.__new__(FeatureRecord),
        object.__new__(Prediction),
    )
    features.__dict__.update(fields=fields, id=rid)
    prediction.__dict__.update(label=label, confidence=confidence)
    record.__dict__.update(id=rid, input=features, output=prediction)
    return record
