"""Trace-level runtime verification with a fail-safe state machine.

Feed a recorded (or live) sequence of input/prediction pairs through a
PartialSpec. Per-sample checks produce violations; a policy maps violation
kinds to state transitions NOMINAL -> DEGRADED -> FAILSAFE (never backward).
Probabilistic constraints run on tumbling windows of inputs.

Fast path. run_trace generates two Python functions for the spec, from one
static_errors pass and one compile (clean_functions). clean takes a
record's fields and prediction. It answers True only when the exact checks
would find nothing: the record conforms to the schema and the prediction
to the label alphabet, and check_sample reports no violation. Such a
record only joins the probabilistic window. It answers False only when the
record and prediction conform but a condition may fail: such a record goes
to check_sample, which reports what fails. Every other record, including
one on which the generated function raises, goes through
conformance_errors, prediction_errors and check_sample exactly as it would
without the fast path. clean_line runs the same tests on a trace line's
decoded JSON value. Where clean would answer True on the record read_trace
builds from the line, it returns the floats the window needs, and the line
never becomes a TraceRecord. Any other line becomes read_trace's item and
takes the record step above. So every violation, its detail, its error
text and the order of the checks come from the exact functions alone. A
spec the generator does not take (one that fails static_errors, or holds a
literal that is not exactly an int a float can hold, a float, a str or a
bool) has no fast path.

How much the fast path saves depends on the share of records it decides:
about 91% on the benchmark's monitor_trace workload. A record it does not
decide pays for the generated call and the exact checks; one that conforms
skips conformance_errors and prediction_errors, which pays the call back.

Reading. run_trace takes either the path of a JSON Lines trace file or an
iterable of items, such as read_trace(path) gives. Both read the file a
line at a time. Each line is decoded by one call of the JSON scanner
(errors.json_line), which falls back to json.loads, and so to its exact
value and error text, on any line the scanner does not take whole. From a
path, the decoded value goes to clean_line first. read_trace, and the path
form for a line clean_line does not decide, build a value that passes the
record checks without the frozen dataclasses' __init__ (see
_built_trace_record); the checks name what is wrong with any other value.
With the fast path deciding most lines, decoding a line costs more than
checking it, so it is kept to one call per line, and a clean line read
from a path costs no record at all.
"""
from __future__ import annotations

import os
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
    spec_functions,
)
from .speclang.ast import Binary, OutputRef, Str, Unary, to_source
from .speclang.codegen import Emitter, all_of, any_of
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


def clean_functions(
    spec: PartialSpec,
) -> tuple[Optional[Callable[..., Any]], Optional[Callable[..., Any]]]:
    """The generated functions (clean, clean_line) of the spec, built from
    one static_errors pass and one compile, or (None, None) when the spec
    has no fast path (see the module docstring).

    clean(fields, prediction) returns True only when the fields are a dict
    that conforms to the schema with exact builtin types (float, int, str,
    bool, lists of rows), the label is a str in the alphabet, the confidence
    is a float in [0, 1], the precondition and postcondition hold, no
    sufficient condition of another label holds and every necessary
    condition of the predicted label holds. It returns False when the record
    and prediction conform that way but a condition fails, and None (or
    raises) otherwise. It never returns True where the exact checks find
    something, nor False where conformance_errors or prediction_errors do;
    it may return None or raise on a record that conforms.

    clean_line(data) takes the decoded JSON value of one trace line and runs
    the same tests on its "input" and its "output" object's "label" and
    "confidence". Where clean would return True on the TraceRecord that
    read_trace builds from the line, and the value is an object with a str
    "id", it returns a tuple: the floats of the probabilistic constraints'
    fields, in constraint order (an empty tuple, still not None or False,
    for a spec with none). Any other answer, or an exception, leaves the
    line to the exact path.

    The spec is read once, here: build new functions after changing it. The
    conformance part is written by records.conformance_guard,
    records.prediction_guard and schema.value_guard, next to the exact rules
    it must agree with; the conditions' part by speclang.codegen.
    """

    def write(emit: Emitter, guard: list[str]) -> dict[str, list[str]]:
        conditions = [spec.precondition]
        if spec.postcondition is not None:
            conditions.append(spec.postcondition)
        fails = [(c, "not ") for c in conditions]  # (test, negation) that fail the record
        predicted = OutputRef("label")
        for label, exprs in spec.sufficient.items():
            if exprs:
                other = Binary("!=", predicted, Str(label))
                fails.append((Binary("&&", other, any_of(exprs)), ""))
        for label, exprs in spec.necessary.items():
            if exprs:
                this = Binary("==", predicted, Str(label))
                fails.append((Binary("&&", this, Unary("!", all_of(exprs))), ""))
        checks: list[str] = []
        for test, negation in fails:
            held = emit.condition(test, checks)
            checks.append(f"if {negation}{held}: return False")
        floats = "".join(f"{emit.names[c.field]}, " for c in spec.probabilistic)
        schema = spec.schema
        record = guard + prediction_guard(
            schema, emit.constant, "prediction.label", "prediction.confidence"
        )
        line = [
            "if data.__class__ is not dict or data['id'].__class__ is not str:",
            "    return None",
            "fields, output = data['input'], data['output']",
            "if output.__class__ is not dict:",
            "    return None",
            *guard,
        ]
        line += prediction_guard(schema, emit.constant, "output['label']", "output['confidence']")
        return {
            "clean(fields, prediction)": record + checks + ["return True"],
            "clean_line(data)": line + checks + [f"return ({floats})"],
        }

    functions = spec_functions(spec, write)
    return (None, None) if functions is None else functions


def clean_record_function(spec: PartialSpec) -> Optional[Callable[[Any, Any], Optional[bool]]]:
    """clean of clean_functions(spec): the record form of the fast path."""
    return clean_functions(spec)[0]


def _statistic(
    constraint: Union[RangeConstraint, MeanConstraint], values: list[float]
) -> Optional[Violation]:
    """The PROBABILISTIC violation of one constraint over a window's floats
    of its field, in record order, or None when it holds or has no values."""
    if not values:
        return None
    if isinstance(constraint, RangeConstraint):
        outside = sum(1 for v in values if not constraint.lo <= v <= constraint.hi)
        fraction = outside / len(values)
        if fraction <= constraint.max_violation_fraction:
            return None
        detail = {
            "field": constraint.field,
            "constraint": "range",
            "lo": constraint.lo,
            "hi": constraint.hi,
            "observed_fraction": fraction,
            "allowed_fraction": constraint.max_violation_fraction,
            "samples": len(values),
        }
    else:
        assert isinstance(constraint, MeanConstraint)
        mean = sum(values) / len(values)
        if abs(mean - constraint.expected) <= constraint.tolerance:
            return None
        detail = {
            "field": constraint.field,
            "constraint": "mean",
            "expected": constraint.expected,
            "tolerance": constraint.tolerance,
            "observed_mean": mean,
            "samples": len(values),
        }
    return Violation(None, ViolationKind.PROBABILISTIC, detail)


def check_batch_probabilistic(
    spec: PartialSpec, inputs: Sequence[FeatureRecord]
) -> list[Violation]:
    """Evaluate the spec's probabilistic constraints on one batch of inputs.

    Constraint by constraint: an EVAL_ERROR for each record missing the
    constrained field (or holding a non-number), which is excluded from the
    statistic, then the statistic's violation over the remaining records.
    """
    violations: list[Violation] = []
    for constraint in spec.probabilistic:
        values: list[float] = []
        for index, record in enumerate(inputs):
            value = record.fields.get(constraint.field)
            if value is None or not is_number(value):
                detail = {
                    "stage": "probabilistic",
                    "field": constraint.field,
                    "error": f"field {constraint.field!r} missing or not a number",
                }
                ref = record_ref(record.id, index)
                violations.append(Violation(ref, ViolationKind.EVAL_ERROR, detail))
            else:
                values.append(float(value))
        found = _statistic(constraint, values)
        if found is not None:
            violations.append(found)
    return violations


def _action_for(kind: ViolationKind, policy: MonitorPolicy) -> PolicyAction:
    if kind is ViolationKind.PRE:
        return policy.on_pre_violation
    if kind in (ViolationKind.POST, ViolationKind.SUFFICIENT, ViolationKind.NECESSARY):
        return policy.on_post_class_violation
    # PROBABILISTIC and EVAL_ERROR: fixed escalation, see MonitorPolicy docs.
    return PolicyAction.DEGRADE


class _Run:
    """One run of the monitor: the spec's fast paths, the state machine, the
    tumbling window and every violation so far. run_trace drives it over an
    iterable of trace items (take) or over the lines of a trace file
    (take_lines); a line clean_line does not decide becomes the item
    read_trace gives and takes the same step."""

    def __init__(self, spec: PartialSpec, policy: MonitorPolicy) -> None:
        require_well_formed(spec)
        self.spec, self.policy = spec, policy
        self.clean, self.clean_line = clean_functions(spec)
        self.violations: list[Violation] = []
        self.state = MonitorState.NOMINAL
        self.processed = 0
        # The tumbling window: one row per record, the floats of the
        # constraints' fields in constraint order (a clean line's row is
        # clean_line's tuple). A record reaches it only once it conforms,
        # and static_errors makes every constrained field a number.
        self.rows: list[tuple[float, ...]] = []
        self.window_index = 0

    def report(self) -> MonitorReport:
        return MonitorReport(self.violations, self.state, self.processed)

    def absorb(self, violations: list[Violation], window_label: Optional[int] = None) -> None:
        already_failsafe = self.state is MonitorState.FAILSAFE
        for violation in violations:
            if already_failsafe:
                violation.post_failsafe = True
            if window_label is not None:
                violation.detail.setdefault("window", window_label)
            next_state = _ACTION_STATE[_action_for(violation.kind, self.policy)]
            if _STATE_RANK[next_state] > _STATE_RANK[self.state]:
                self.state = next_state
            self.violations.append(violation)

    def take(self, item: Union[TraceRecord, MalformedLine]) -> None:
        """The record step: check one item, then add its input to the window."""
        self.processed += 1
        if isinstance(item, MalformedLine):
            detail = {"stage": "trace", "line": item.line, "error": item.error}
            self.absorb([Violation(None, ViolationKind.EVAL_ERROR, detail)])
            return
        try:
            verdict = None if self.clean is None else self.clean(item.input.fields, item.output)
        except Exception:  # the exact checks below say what is wrong
            verdict = None
        if verdict is not True:
            structural: list[str] = []
            if verdict is None:
                structural = conformance_errors(item.input.fields, self.spec.schema)
                structural += prediction_errors(item.output, self.spec.schema)
            if structural:
                detail = {"stage": "conformance", "errors": structural}
                self.absorb([Violation(item.id, ViolationKind.EVAL_ERROR, detail)])
                return
            self.absorb(check_sample(self.spec, item, self.policy))
        fields = item.input.fields
        self.rows.append(tuple([float(fields[c.field]) for c in self.spec.probabilistic]))
        self._tumble()

    def take_lines(self, path: Union[str, os.PathLike]) -> None:
        """Each line of the trace file at path, in order. A line clean_line
        decides clean only adds its floats to the window; every other line
        takes the record step as the item read_trace gives for it."""
        clean_line, rows = self.clean_line, self.rows
        full = self.policy.probabilistic_window
        for line_no, data in _decoded_lines(path):
            try:
                floats = None if clean_line is None else clean_line(data)
            except Exception:  # the record step says what is wrong
                floats = None
            if floats.__class__ is tuple:
                self.processed += 1
                rows.append(floats)
                if len(rows) == full:
                    self._tumble()
            else:
                self.take(_trace_item(line_no, data))

    def _tumble(self) -> None:
        """Check and empty the window once it is full."""
        rows = self.rows
        if len(rows) == self.policy.probabilistic_window:
            found = [
                _statistic(constraint, list(column))
                for constraint, column in zip(self.spec.probabilistic, zip(*rows))
            ]
            rows.clear()
            self.absorb([v for v in found if v is not None], window_label=self.window_index)
            self.window_index += 1


def run_trace(
    spec: PartialSpec,
    trace: Union[str, os.PathLike, Iterable[Union[TraceRecord, MalformedLine]]],
    policy: MonitorPolicy = MonitorPolicy(),
) -> MonitorReport:
    """Run the monitor over a whole trace: the path of a JSON Lines trace
    file (a str or os.PathLike, read as read_trace reads it), or an
    iterable of TraceRecord and MalformedLine items.

    Records arriving after the state machine reached FAILSAFE are still
    checked and logged, flagged post_failsafe (the violations that caused the
    transition are not flagged). Probabilistic constraints fire on each full
    tumbling window of probabilistic_window records; a trailing partial
    window is not checked.

    The spec's fast-path functions are generated once per call, before the
    first record (see the module docstring). From a file, a line clean_line
    calls clean never becomes a TraceRecord; every other line becomes the
    item read_trace gives for it. An item clean calls clean skips the exact
    checks, one it has shown to conform skips the conformance checks, every
    other item gets them all. The report is the one the exact checks alone
    would give on read_trace's items, and the same for a path and for
    read_trace(path).

    A spec that static_errors rejects raises FormatError before the first
    record is read (spec.require_well_formed); an unreadable trace file
    raises read_trace's FormatError.
    """
    run = _Run(spec, policy)
    if isinstance(trace, (str, os.PathLike)):
        run.take_lines(trace)
    else:
        take = run.take
        for item in trace:
            take(item)
    return run.report()


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
    for line_no, data in _decoded_lines(path):
        yield _trace_item(line_no, data)


def _decoded_lines(path: Union[str, os.PathLike]) -> Iterator[tuple[int, Any]]:
    """(line number, decoded JSON value) of each non-blank line of the trace
    file, read as read_trace describes; a MalformedLine stands in for the
    value of a line that is not UTF-8 JSON."""
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
                yield line_no, MalformedLine(line_no, f"line is not UTF-8: {exc}")
                continue
            if line.endswith("\n"):
                line = line[:-2] if line.endswith("\r\n") else line[:-1]
            if not line.strip():
                continue
            try:
                data = json_line(line)
            except ValueError as exc:  # not JSON, an int with too many digits,
                # or a value nested too deeply (see errors.json_line)
                data = MalformedLine(line_no, str(exc))
            yield line_no, data


def _trace_item(line_no: int, data: Any) -> Union[TraceRecord, MalformedLine]:
    """read_trace's item for one line's decoded value (or MalformedLine)."""
    if isinstance(data, MalformedLine):
        return data
    try:
        return _trace_record_from_json(data)
    except FormatError as exc:
        return MalformedLine(line_no, str(exc))


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
