"""Trace-level runtime verification with a fail-safe state machine.

Feed a recorded (or live) sequence of input/prediction pairs through a
PartialSpec. Per-sample checks produce violations; a policy maps violation
kinds to state transitions NOMINAL -> DEGRADED -> FAILSAFE (never backward).
Probabilistic constraints run on tumbling windows of inputs.

Fast path. run_trace generates one Python function for the spec,
clean_line (clean_line_function), and asks it first about every item of
either input form: a trace line's decoded JSON value, or the view
{"id", "input": fields, "output": {"label", "confidence"}} of an in-memory
TraceRecord (_views). It answers only when the value is an object with a
str "id", its input conforms to the schema and its prediction to the label
alphabet, with a float confidence (or none, for a spec whose conditions
never read output.confidence). It then evaluates each check on its
own, in check_sample's order, in one pass. Its answer is the row, the
floats the probabilistic window needs, when check_sample would report
nothing: the item only adds the row to the window, and a line never
becomes a TraceRecord. When checks fail, it answers with the row and the
numbers of the failing checks (_checks). The run builds each Violation
from the item's id and a table made once per run, with each check's kind
and detail (its label, index and condition text), and absorbs them as any
other violations: again no TraceRecord is built and check_sample is not
called. All violations of one check on one predicted label share one
read-only detail (_SharedDetail), made on first use, so a run keeps at
most one detail per check and label. Every other item, including one on
which the generated function raises (a condition that cannot be
evaluated, even one after a check that already failed), goes through
conformance_errors, prediction_errors and check_sample exactly as it
would without the fast path, and gets fresh details. So every violation,
its detail's content, its error text and the order of the checks are the
exact functions'. A spec that holds a literal that is not exactly an int
a float can hold, a float, a str or a bool has no fast path; one that
fails static_errors is refused first. The private switch of
specguard._exact turns the fast path off.

How much the fast path saves depends on the share of records it answers:
about 98% on the benchmark's monitor_trace workload, whose other lines are
malformed, off the schema or without a confidence. A line it answers
costs about as much whether it is clean or fails checks.

Reading. run_trace takes either the path of a JSON Lines trace file or an
iterable of items, such as read_trace(path) gives. Both read the file a
line at a time and decode each line by one call of the JSON scanner
(errors.json_line), which falls back to json.loads, and so to its exact
value and error text, on any line the scanner does not take whole. From a
path, the decoded value goes to clean_line first. Every line read_trace
reads, and a line clean_line does not answer, becomes a TraceRecord built
by the constructors, or a MalformedLine that says what is wrong with it.
Decoding a line costs more than checking it, so a line clean_line answers
costs no record at all.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from enum import Enum
from itertools import groupby
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence, Union

from .errors import JSON_SPACE, EvalError, FormatError, line_decoder
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
from .speclang.ast import Expression, reads_output, to_source
from .speclang.codegen import Emitter
from .speclang.schema import is_number


class MonitorState(Enum):
    NOMINAL = "NOMINAL"
    DEGRADED = "DEGRADED"
    FAILSAFE = "FAILSAFE"


# The states in the order the monitor moves through them: a state's rank
# is its place here.
_STATES = tuple(MonitorState)
_FAILSAFE = _STATES.index(MonitorState.FAILSAFE)


class ViolationKind(Enum):
    PRE = "PRE"
    POST = "POST"
    SUFFICIENT = "SUFFICIENT"
    NECESSARY = "NECESSARY"
    PROBABILISTIC = "PROBABILISTIC"
    EVAL_ERROR = "EVAL_ERROR"

    # Members compare by identity, so they may hash by it: object's hash is
    # a C slot, where Enum.__hash__ is a Python call on every lookup of
    # _Run.moves_to (about 23 against 100 ns).
    __hash__ = object.__hash__


class PolicyAction(Enum):
    MARK_UNTRUSTED = "MARK_UNTRUSTED"
    DEGRADE = "DEGRADE"
    FAILSAFE = "FAILSAFE"


# The rank of the state each action moves the monitor to, at least.
_ACTION_RANK = {
    PolicyAction.MARK_UNTRUSTED: _STATES.index(MonitorState.NOMINAL),
    PolicyAction.DEGRADE: _STATES.index(MonitorState.DEGRADED),
    PolicyAction.FAILSAFE: _FAILSAFE,
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
        for name in ("on_pre_violation", "on_post_class_violation"):
            action = getattr(self, name)
            if not isinstance(action, PolicyAction):
                raise FormatError(f"{name} must be a PolicyAction, got {action!r}")
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


class _SharedDetail(dict):
    """A violation detail that many violations of one run share: a dict
    that refuses every write with TypeError, so that no violation can
    change its siblings' detail. It compares, prints, encodes as JSON and
    copies (dict(detail), detail.copy()) as the plain dict it holds;
    pickle, copy and deepcopy rebuild it read-only."""

    __slots__ = ()

    def _read_only(self, *args: Any, **kwargs: Any) -> None:
        raise TypeError("a shared violation detail is read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self) -> tuple:
        return _SharedDetail, (dict(self),)


@dataclass(slots=True)
class Violation:
    """One finding of the monitor. Slotted: a run keeps every violation, so
    each costs its four fields and no __dict__. A violation the fast path
    builds shares its read-only detail (_SharedDetail) with every other
    violation of its check on its predicted label; every other violation
    holds a fresh dict of its own."""

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
        return self.json_members([v.to_json_dict() for v in self.violations])

    def json_members(self, violations: list) -> dict:
        """The report's JSON object, with violations as its "violations"
        member: the violations' JSON values in order, or the violations
        themselves, which cli._write_json writes as those values."""
        return {
            "final_state": self.final_state.value,
            "records_processed": self.records_processed,
            "counts": self.counts,
            "violations": violations,
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
        detail = _check_detail(ViolationKind.PRE, None, 0, spec.precondition, predicted.label)
        return [Violation(rid, ViolationKind.PRE, detail)]
    violations: list[Violation] = []
    try:
        if not check_post(spec, fields, predicted):
            detail = _check_detail(ViolationKind.POST, None, 0, spec.postcondition, predicted.label)
            violations.append(Violation(rid, ViolationKind.POST, detail))
    except EvalError as exc:
        violations.append(_eval_error(rid, "post", exc))
    for kind, stage, failing, conditions in (
        (ViolationKind.SUFFICIENT, "sufficient", check_sufficient, spec.sufficient),
        (ViolationKind.NECESSARY, "necessary", check_necessary, spec.necessary),
    ):
        try:
            for label, index in failing(spec, fields, predicted):
                condition = conditions[label][index]
                detail = _check_detail(kind, label, index, condition, predicted.label)
                violations.append(Violation(rid, kind, detail))
        except EvalError as exc:
            violations.append(_eval_error(rid, stage, exc))
    return violations


def _check_detail(
    kind: ViolationKind, label: Optional[str], index: int, condition: Expression,
    predicted: Optional[str],
) -> dict:
    """The detail of the violation of a failing check, as _checks numbers
    them, on a record with the predicted label: the label and index of a
    class condition, the condition's text, and the predicted label where
    the kind reports it (POST, SUFFICIENT), in that key order."""
    detail: dict[str, Any] = {"condition": to_source(condition)}
    if kind is ViolationKind.PRE:
        detail["output_untrusted"] = True
    elif kind is not ViolationKind.POST:
        detail = {"label": label, "index": index, **detail}
    if kind is ViolationKind.POST or kind is ViolationKind.SUFFICIENT:
        detail["predicted"] = predicted
    return detail


def _eval_error(rid: Optional[str], stage: str, exc: EvalError) -> Violation:
    return Violation(rid, ViolationKind.EVAL_ERROR, {"stage": stage, "error": str(exc)})


def _checks(spec: PartialSpec) -> list[tuple[ViolationKind, Optional[str], int, Expression]]:
    """check_sample's checks in its order, each numbered by its place here:
    the precondition, the postcondition when there is one, every
    sufficient condition of every label, then every necessary condition of
    every label, in spec order. Each is (kind, label, index, condition);
    label and index are None and 0 for PRE and POST."""
    checks = [(ViolationKind.PRE, None, 0, spec.precondition)]
    if spec.postcondition is not None:
        checks.append((ViolationKind.POST, None, 0, spec.postcondition))
    for kind, conditions in (
        (ViolationKind.SUFFICIENT, spec.sufficient),
        (ViolationKind.NECESSARY, spec.necessary),
    ):
        for label, exprs in conditions.items():
            for index, expr in enumerate(exprs):
                checks.append((kind, label, index, expr))
    return checks


def clean_line_function(spec: PartialSpec) -> Optional[Callable[[Any], Any]]:
    """The generated function clean_line(data) of a spec that has passed
    require_well_formed, or None when the spec has no fast path (see the
    module docstring).

    data is a trace line's decoded JSON value or an in-memory record's view
    (_views). clean_line answers only when data is a dict with a str "id",
    its "input" is a dict that conforms to the schema with exact builtin
    types (float, int, str, bool, lists of rows), and its "output" is a
    dict whose "label" is a str in the alphabet and whose "confidence" is a
    float in [0, 1], or missing or None where no condition reads
    output.confidence. It then evaluates each check check_sample makes on
    its own, in its order: the precondition, and when it holds the
    postcondition, every sufficient condition of every label but the
    predicted one and every necessary condition of the predicted label.
    Its answer is the row, the tuple of the floats of the probabilistic
    constraints' fields in constraint order (an empty tuple for a spec with
    none), when every check passes. When one fails, it answers with a list:
    the row, then the numbers (places in _checks(spec)) of the failing
    checks in check order; a failing precondition is the only number then.
    On any other data it returns None or raises, and it may raise on data
    that conforms, wherever a condition cannot be evaluated. So a tuple
    means the exact checks find nothing on the item, and a list means
    check_sample reports exactly those checks, with no EVAL_ERROR, and
    conformance_errors and prediction_errors find nothing.

    The spec is read once, here: build a new function after changing it.
    The conformance part is written by records.conformance_guard,
    records.prediction_guard and schema.value_guard, next to the exact rules
    it must agree with; the conditions' part by speclang.codegen.
    """
    checks = list(enumerate(_checks(spec)))
    confidence_read = any(reads_output(check[3], "confidence") for _, check in checks)

    def write(emit: Emitter, guard: list[str]) -> list[str]:
        floats = "".join(f"{emit.names[c.field]}, " for c in spec.probabilistic)
        line = [
            "if data.__class__ is not dict or data['id'].__class__ is not str:",
            "    return None",
            "fields, output = data['input'], data['output']",
            "if output.__class__ is not dict:",
            "    return None",
            *guard,
        ]
        line += prediction_guard(spec.schema, emit.constant, "output", confidence_read)
        line.append(f"row = ({floats})")
        held = emit.condition(spec.precondition, line)
        line += [f"if not {held}: return [row, 0]", "failing = ()"]
        # Each other check on its own; a label's conditions run under one
        # test of the predicted label, as check_sufficient and
        # check_necessary choose them. Only the predicted label's necessary
        # conditions run, so their tests form one if/elif chain.
        head = "if"
        for (kind, label), group in groupby(checks[1:], key=lambda check: check[1][:2]):
            block = []
            for number, (_, _, _, expr) in group:
                held = emit.condition(expr, block)
                negation = "" if kind is ViolationKind.SUFFICIENT else "not "
                block.append(f"if {negation}{held}: failing += ({number},)")
            if kind is ViolationKind.POST:
                line += block
            else:
                op = "!=" if kind is ViolationKind.SUFFICIENT else "=="
                line.append(f"{head} label {op} {emit.constant(label)}:")
                line += [f"    {statement}" for statement in block]
                head = "elif" if kind is ViolationKind.NECESSARY else "if"
        return line + ["return [row, *failing] if failing else row"]

    return spec_function(spec.schema, "clean_line(data)", write)


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


class _Run:
    """One run of the monitor: the spec's fast path, the state machine, the
    tumbling window and every violation so far. run_trace drives it over
    the decoded lines of a trace file or the views of in-memory items
    (take): an item clean_line answers with failing checks takes failed,
    and one it does not answer takes the record step (step)."""

    def __init__(self, spec: PartialSpec, policy: MonitorPolicy) -> None:
        require_well_formed(spec)
        self.spec, self.policy = spec, policy
        self.clean_line = clean_line_function(spec)
        # Per violation kind, the rank of the state its policy action moves
        # to; PROBABILISTIC and EVAL_ERROR always degrade (see MonitorPolicy).
        post = _ACTION_RANK[policy.on_post_class_violation]
        degrade = _ACTION_RANK[PolicyAction.DEGRADE]
        self.moves_to = {
            ViolationKind.PRE: _ACTION_RANK[policy.on_pre_violation],
            ViolationKind.POST: post,
            ViolationKind.SUFFICIENT: post,
            ViolationKind.NECESSARY: post,
            ViolationKind.PROBABILISTIC: degrade,
            ViolationKind.EVAL_ERROR: degrade,
        }
        # Per check number of clean_line's answers: its kind, and either its
        # violations' shared detail and None, or, where the detail holds the
        # predicted label (POST, SUFFICIENT), the detail with that label None
        # and the shared details made from it so far, by predicted label.
        # clean_line answers only labels of the schema, so the table stays
        # within checks x labels.
        self.table: list[tuple[ViolationKind, dict, Optional[dict[str, dict]]]] = []
        if self.clean_line is not None:
            for kind, label, index, expr in _checks(spec):
                detail = _check_detail(kind, label, index, expr, None)
                if "predicted" in detail:
                    self.table.append((kind, detail, {}))
                else:
                    self.table.append((kind, _SharedDetail(detail), None))
        self.violations: list[Violation] = []
        self.rank = 0  # of the state so far; the machine never moves back
        self.processed = 0
        # The tumbling window: one row per record, the floats of the
        # constraints' fields in constraint order (clean_line's row for an
        # item it answers). A record reaches it only once it conforms, and
        # static_errors makes every constrained field a number.
        self.rows: list[tuple[float, ...]] = []
        self.window_index = 0

    def report(self) -> MonitorReport:
        return MonitorReport(self.violations, _STATES[self.rank], self.processed)

    def absorb(self, violations: list[Violation], window_label: Optional[int] = None) -> None:
        already_failsafe = self.rank == _FAILSAFE
        for violation in violations:
            if already_failsafe:
                violation.post_failsafe = True
            if window_label is not None:
                violation.detail.setdefault("window", window_label)
            rank = self.moves_to[violation.kind]
            if rank > self.rank:
                self.rank = rank
            self.violations.append(violation)

    def take(
        self,
        pairs: Iterable[tuple[Any, Any]],
        item: Callable[[Any, Any], Union[TraceRecord, MalformedLine]],
    ) -> None:
        """Each (key, data) of pairs, in order: data is what clean_line
        reads, and item(key, data) the trace item it stands for. An item
        clean_line answers adds its row to the window, once failed has
        absorbed the violations of its failing checks, if any; every other
        item takes the record step."""
        clean_line, rows = self.clean_line, self.rows
        full = self.policy.probabilistic_window
        for key, data in pairs:
            try:
                answer = None if clean_line is None else clean_line(data)
            except Exception:  # the record step says what is wrong
                answer = None
            if answer is None:
                self.step(item(key, data))
                continue
            self.processed += 1
            if answer.__class__ is list:
                self.failed(data["id"], data["output"]["label"], answer)
                answer = answer[0]
            rows.append(answer)
            if len(rows) == full:
                self._tumble()

    def failed(self, rid: str, predicted: str, answer: list) -> None:
        """Absorb check_sample's violations of a conforming item on which
        the checks numbered answer[1:] fail, built from the table: each
        holds the shared detail of its check on the predicted label, made
        on the first violation that needs it."""
        violations = []
        for number in answer[1:]:
            kind, detail, by_label = self.table[number]
            if by_label is not None:
                shared = by_label.get(predicted)
                if shared is None:
                    shared = by_label[predicted] = _SharedDetail(detail, predicted=predicted)
                detail = shared
            violations.append(Violation(rid, kind, detail))
        self.absorb(violations)

    def step(self, item: Union[TraceRecord, MalformedLine]) -> None:
        """The record step: check one item, then add its input to the window."""
        self.processed += 1
        if isinstance(item, MalformedLine):
            detail = {"stage": "trace", "line": item.line, "error": item.error}
            self.absorb([Violation(None, ViolationKind.EVAL_ERROR, detail)])
            return
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

    The spec's fast-path function is generated once per call, before the
    first record (see the module docstring). It reads each line of a file
    and the view of each in-memory record. An item it answers, clean or
    with failing checks, never becomes a TraceRecord (a line) and skips the
    exact checks: its violations come from the run's table of checks. Every
    other item gets the exact checks. The report is the one the exact
    checks alone would give on read_trace's items, and the same for a path
    and for read_trace(path).

    A spec that static_errors rejects raises FormatError before the first
    record is read (spec.require_well_formed); an unreadable trace file
    raises read_trace's FormatError.
    """
    run = _Run(spec, policy)
    if isinstance(trace, (str, os.PathLike)):
        run.take(_decoded_lines(trace), _trace_item)
    else:
        run.take(_views(trace), lambda item, view: item)
    return run.report()


def _views(trace: Iterable[Union[TraceRecord, MalformedLine]]) -> Iterator[tuple[Any, Any]]:
    """(item, its view) for each in-memory item: a TraceRecord's view is the
    decoded trace line it would come from, keeping its input dict and its
    prediction's confidence as they are; a MalformedLine is its own view,
    which clean_line never calls clean."""
    for item in trace:
        if isinstance(item, MalformedLine):
            yield item, item
        else:
            output = item.output
            prediction = {"label": output.label, "confidence": output.confidence}
            yield item, {"id": item.id, "input": item.input.fields, "output": prediction}


def read_trace(path: Union[str, Path]) -> Iterator[Union[TraceRecord, MalformedLine]]:
    """Read a JSON Lines trace file: one record per line,
    {"id": "...", "input": {...}, "output": {"label": "...", "confidence": c}}.

    The file is read one line at a time. Lines end at "\n" (a "\r" before
    it is dropped too), as JSON Lines defines; no other character ends a
    line. A blank line, empty or holding only spaces, tabs and carriage
    returns (errors.JSON_SPACE), is skipped; one of any other whitespace
    is not JSON. A line that is not UTF-8 or not a valid record comes back
    as a MalformedLine, so the monitor can log it and keep going. An
    unreadable file raises FormatError.

    Each line is decoded by errors.json_line: one call of the JSON scanner,
    or json.loads where the scanner does not take the whole line, so every
    value and error text is json.loads's, and a value nested too deeply for
    the decoder is a MalformedLine too. A record keeps the decoded input
    dict as its fields. With the fast paths off (see specguard._exact), each
    line is decoded by json.loads.
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
    decode = line_decoder()
    with handle:
        for line_no, raw in enumerate(handle, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                yield line_no, MalformedLine(line_no, f"line is not UTF-8: {exc}")
                continue
            if line.endswith("\n"):
                line = line[:-2] if line.endswith("\r\n") else line[:-1]
            if not line.strip(JSON_SPACE):
                continue
            try:
                data = decode(line)
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
    prediction = Prediction(raw_output["label"], None if confidence is None else float(confidence))
    return TraceRecord(rid, FeatureRecord(raw_input, rid), prediction)
