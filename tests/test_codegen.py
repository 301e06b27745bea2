"""The generated fast paths of the monitor (monitor.clean_line_function)
and of the gated pattern (patterns.gated_decide_function), and the
expression emitter behind both (speclang.codegen).

The monitor's contract under test: when the generated function says a
record's view is clean (a tuple), the exact checks (conformance_errors,
prediction_errors, check_sample) find nothing; when it says False,
conformance_errors and prediction_errors find nothing; on records of exact
builtin types the converse holds too, so the fast path is not vacuous; and
run_trace reports the same with and without it, from a trace file's path,
from read_trace's items, and from the reference reader's items with no
generated function at all. The gated pattern's:
gated_classify gives the same decision or the same PatternError with and
without its generated function, which decides every conforming record of
exact builtin types on which the exact path decides."""
from __future__ import annotations

import dataclasses
import enum
import json
import math
import pickle
import runpy
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import jsonl_oracle
import tree_walk
from test_evaluate import _cells, _typed_booleans, _typed_inputs, _typed_numbers, _untyped
from test_jsonl import DEEP
from specguard import monitor, patterns
from specguard.errors import EvalError, FormatError
from specguard.monitor import (
    MalformedLine,
    MonitorPolicy,
    PolicyAction,
    TraceRecord,
    ViolationKind,
    check_sample,
    clean_line_function,
    read_trace,
    run_trace,
)
from specguard.patterns import GatedConfig, GatedDecision, gated_classify
from specguard.speccore.classifiers import ExpressionClassifier
from specguard.speccore.records import (
    FeatureRecord,
    Prediction,
    conformance_errors,
    prediction_errors,
)
from specguard.speccore import spec as spec_module
from specguard.speccore.spec import (
    MeanConstraint,
    PartialSpec,
    RangeConstraint,
    static_errors,
)
from specguard.speclang import codegen
from specguard.speclang.ast import (
    Binary,
    Bool,
    Call,
    InputRef,
    Num,
    OutputRef,
    Str,
    Unary,
    reads_output,
)
from specguard.speclang.codegen import Emitter
from specguard.speclang.parser import parse
from specguard.speclang.schema import (
    BooleanType,
    CategoryType,
    GridType,
    IntegerType,
    NumberType,
    Schema,
    value_errors,
    value_guard,
)

LABELS = ("pedestrian", "cyclist")
# The fields the expression strategies of test_evaluate.py refer to.
SCHEMA = Schema(
    {
        "height": NumberType(),
        "count": IntegerType(),
        "flag": BooleanType(),
        "zone": CategoryType(("", "lane", "walkway")),
        "img": GridType(2, 2),
    },
    LABELS,
)


class Level(enum.IntEnum):
    ONE = 1


def _input_only(expr):
    """expr with output.confidence read as input.height and output.label as
    input.zone, so it may stand in a precondition or class condition."""
    if isinstance(expr, OutputRef):
        return InputRef("height") if expr.attr == "confidence" else InputRef("zone")
    if isinstance(expr, Unary):
        return Unary(expr.op, _input_only(expr.operand))
    if isinstance(expr, Binary):
        return Binary(expr.op, _input_only(expr.left), _input_only(expr.right))
    if isinstance(expr, Call):
        return Call(expr.func, tuple(_input_only(arg) for arg in expr.args))
    return expr


_conditions = _typed_booleans.map(_input_only)
_class_conditions = st.dictionaries(
    st.sampled_from(LABELS), st.lists(_conditions, max_size=2).map(tuple), max_size=2
)
_specs = st.builds(
    PartialSpec,
    schema=st.just(SCHEMA),
    precondition=st.one_of(st.just(Bool(True)), _conditions),
    postcondition=st.one_of(st.none(), _typed_booleans),
    sufficient=_class_conditions,
    necessary=_class_conditions,
)

# Values no conforming record holds in a number field or grid cell.
_hostile = st.sampled_from(
    [True, False, math.nan, math.inf, -math.inf, 10**400, -(10**400), Level.ONE, None, "lane", 2.5]
)
# Ints at and beyond the edge of a float's exact range: a number field or
# grid cell takes every one a float holds, an integer field only those a
# float holds exactly.
_big_ints = st.sampled_from([2**53 - 1, 2**53, 2**53 + 1, -(2**53 + 1), 2**63 + 1, 2**1000])


@st.composite
def _fields(draw):
    fields = draw(_typed_inputs)
    change = draw(
        st.sampled_from(["none", "none", "none", "field", "cell", "big", "missing", "extra"])
    )
    if change == "field":
        fields[draw(st.sampled_from(sorted(fields)))] = draw(_hostile)
    elif change == "big":
        fields[draw(st.sampled_from(["height", "count"]))] = draw(_big_ints)
    elif change == "cell":
        fields["img"][draw(st.integers(0, 1))][draw(st.integers(0, 1))] = draw(_hostile)
    elif change == "missing":
        del fields[draw(st.sampled_from(sorted(fields)))]
    elif change == "extra":
        fields["bonus"] = draw(_cells)
    return fields


_predictions = st.builds(
    Prediction,
    st.sampled_from(LABELS + ("bicycle",)),
    st.one_of(
        st.floats(0, 1),
        st.none(),
        st.sampled_from([math.nan, 1.5, -0.25, 10**400, 1, True, Level.ONE]),
    ),
)


def _structural(spec, fields, prediction):
    return conformance_errors(fields, spec.schema) + prediction_errors(prediction, spec.schema)


def _exact_findings(spec, fields, prediction):
    """What run_trace's exact path reports for the record, as a list."""
    structural = _structural(spec, fields, prediction)
    if structural:
        return structural
    record = TraceRecord("r", FeatureRecord(fields, "r"), prediction)
    return check_sample(spec, record, MonitorPolicy())


def _view(fields, prediction):
    """The view of the record TraceRecord("r", FeatureRecord(fields), prediction)
    that clean_line reads: the trace line it would be read from."""
    output = {"label": prediction.label, "confidence": prediction.confidence}
    return {"id": "r", "input": fields, "output": output}


def _kind(answer):
    """True for clean_line's row (clean), False for its list of failing
    checks, else None."""
    assert answer is None or answer.__class__ is tuple or answer.__class__ is list
    return None if answer is None else answer.__class__ is tuple


def _answer(clean_line, fields, prediction):
    """_kind of clean_line's answer on the record's view; an exception
    propagates."""
    return _kind(clean_line(_view(fields, prediction)))


def _verdict(clean_line, fields, prediction):
    """_answer, with None for an exception (the exact path decides)."""
    try:
        answer = clean_line(_view(fields, prediction))
    except Exception:
        return None
    return _kind(answer)


def _exact_types(fields, prediction):
    def plain(value):
        if type(value) is list:
            return all(type(row) is list and all(plain(cell) for cell in row) for row in value)
        return type(value) in (float, int, str, bool)

    return (
        all(plain(value) for value in fields.values())
        and type(prediction.label) is str
        and type(prediction.confidence) is float
    )


@settings(max_examples=400, deadline=None)
@given(_specs, _fields(), _predictions)
def test_clean_means_the_exact_checks_find_nothing(spec, fields, prediction):
    refused = static_errors(spec)
    if refused:
        with pytest.raises(FormatError) as gate:
            run_trace(spec, [])
        assert gate.value.errors == refused
        return
    clean_line = clean_line_function(spec)
    assert clean_line is not None
    decided = _verdict(clean_line, fields, prediction)
    structural = _structural(spec, fields, prediction)
    findings = _exact_findings(spec, fields, prediction)
    if decided is True:
        assert findings == []
    if decided is False:
        assert structural == []
    # The generated conditions raise only where an evaluation error stops
    # the exact checks too, so without one a conforming record is decided.
    if not structural and _exact_types(fields, prediction):
        if not any(v.kind is ViolationKind.EVAL_ERROR for v in findings):
            assert decided is (not findings)


def _without_fast_paths():
    """No generated function at all: every item takes the exact checks."""
    return mock.patch.object(monitor, "clean_line_function", lambda spec: None)


_constraints = st.lists(
    st.sampled_from(
        [
            RangeConstraint("height", -1.0, 1.0),
            RangeConstraint("count", 0, 2, 0.5),
            MeanConstraint("height", 0.0, 1.0),
            MeanConstraint("count", 1.0, 0.5),
        ]
    ),
    max_size=3,
).map(tuple)


@settings(max_examples=150, deadline=None)
@given(_specs, _constraints, st.lists(st.tuples(_fields(), _predictions), max_size=8))
def test_run_trace_reports_the_same_without_the_fast_path(spec, constraints, rows):
    spec = dataclasses.replace(spec, probabilistic=constraints)
    trace = [
        TraceRecord(f"r{i}", FeatureRecord(fields, f"r{i}"), prediction)
        for i, (fields, prediction) in enumerate(rows)
    ]
    policy = MonitorPolicy(probabilistic_window=3)
    fast = run_trace(spec, trace, policy).to_json_dict()
    with _without_fast_paths():
        exact = run_trace(spec, trace, policy).to_json_dict()
    assert json.dumps(fast, sort_keys=True) == json.dumps(exact, sort_keys=True)


_confidences = st.one_of(
    st.floats(0, 1),
    st.floats(0, 1),
    st.sampled_from([0, 1, math.nan, 1.5, -0.25, True, None, "0.5"]),
)
# What a trace line can get wrong besides its fields: a key missing, a key
# of the wrong type, or one too many.
_OFF_RECORD = {
    "no id": lambda r: r.pop("id"),
    "int id": lambda r: r.update(id=7),
    "no input": lambda r: r.pop("input"),
    "input list": lambda r: r.update(input=[1.0]),
    "output str": lambda r: r.update(output="pedestrian"),
    "no label": lambda r: r["output"].pop("label"),
    "no confidence": lambda r: r["output"].pop("confidence"),
    "extra key": lambda r: r.update(extra=1),
    "extra output key": lambda r: r["output"].update(extra=[1]),
}
_NOT_RECORDS = [b"[1, 2]", b'"r"', b"3", b"null", b"{", b"not json", b'{"id": "r\xff"}', DEEP]


@st.composite
def _trace_line(draw) -> bytes:
    kind = draw(st.sampled_from(["record"] * 8 + ["blank", "not a record"]))
    if kind == "blank":
        return draw(st.sampled_from([b"", b"  ", b"\t"]))
    if kind == "not a record":
        return draw(st.sampled_from(_NOT_RECORDS))
    fields = draw(st.one_of(_typed_inputs, _fields()))
    if "height" in fields and draw(st.booleans()):
        fields["height"] = draw(st.integers(-3, 3))  # an int in a number field
    if "count" in fields and draw(st.integers(0, 9)) == 0:
        fields["count"] = draw(st.booleans())
    record = {
        "id": draw(st.sampled_from(["a", "b", "r1"])),
        "input": fields,
        "output": {
            "label": draw(st.sampled_from(LABELS + ("bicycle",))),
            "confidence": draw(_confidences),
        },
    }
    if draw(st.integers(0, 4)) == 0:
        _OFF_RECORD[draw(st.sampled_from(sorted(_OFF_RECORD)))](record)
    return json.dumps(record).encode("utf-8")


_trace_files = st.tuples(
    st.lists(st.tuples(_trace_line(), st.sampled_from([b"\n", b"\r\n"])), max_size=12),
    st.sampled_from([b"", b"\n"]),
).map(lambda parts: b"".join(line + end for line, end in parts[0]) + parts[1])
_policies = st.builds(
    MonitorPolicy,
    on_pre_violation=st.sampled_from(list(PolicyAction)),
    on_post_class_violation=st.sampled_from([PolicyAction.DEGRADE, PolicyAction.FAILSAFE]),
    probabilistic_window=st.integers(1, 5),
)


def _outcome(spec, trace, policy):
    try:
        return json.dumps(run_trace(spec, trace, policy).to_json_dict(), sort_keys=True)
    except FormatError as exc:  # a spec the gate refuses, on every path alike
        return str(exc)


def _and(condition, source):
    return Binary("&&", condition, parse(source))


# Specs on which most lines conform but fail a condition, so clean_line
# answers with the failing checks and the run builds their violations: the
# precondition holds only for the tallest inputs, or the postcondition only
# for the most confident predictions.
_mostly_failing = st.one_of(
    _specs.map(
        lambda spec: dataclasses.replace(
            spec, precondition=_and(spec.precondition, "input.height > 2")
        )
    ),
    _specs.map(
        lambda spec: dataclasses.replace(
            spec,
            postcondition=_and(spec.postcondition or Bool(True), "output.confidence >= 0.95"),
        )
    ),
)


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    st.one_of(st.just(PartialSpec(schema=SCHEMA)), _specs, _mostly_failing),
    _constraints,
    _trace_files,
    _policies,
)
def test_a_trace_file_reports_the_same_on_every_path(tmp_path, spec, constraints, data, policy):
    spec = dataclasses.replace(spec, probabilistic=constraints)
    path = tmp_path / "trace.jsonl"
    path.write_bytes(data)
    from_lines = _outcome(spec, path, policy)
    assert _outcome(spec, read_trace(path), policy) == from_lines
    with _without_fast_paths():
        assert _outcome(spec, jsonl_oracle.read_trace(path), policy) == from_lines


@pytest.mark.parametrize("off", sorted(_OFF_RECORD))
def test_a_line_off_the_record_shape_is_never_decided_clean(tmp_path, off):
    # clean on every count but one key of the record around its fields
    output = {"label": "cyclist", "confidence": 0.5}
    record = {"id": "r", "input": dict(CONFORMING), "output": output}
    _OFF_RECORD[off](record)
    path = tmp_path / "trace.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    spec = PartialSpec(schema=SCHEMA, probabilistic=(MeanConstraint("height", 1.0, 0.0),))
    policy = MonitorPolicy(probabilistic_window=1)
    from_lines = _outcome(spec, path, policy)
    assert _outcome(spec, read_trace(path), policy) == from_lines
    with _without_fast_paths():
        assert _outcome(spec, jsonl_oracle.read_trace(path), policy) == from_lines


def _answered_violations(spec, fields, prediction, policy):
    """The violations run_trace builds from clean_line's answer on the
    record's view, or None when clean_line raises or does not answer."""
    run = monitor._Run(spec, policy)
    try:
        answer = run.clean_line(_view(fields, prediction))
    except Exception:
        return None
    if answer is None or answer.__class__ is tuple:
        return None if answer is None else []
    run.failed("r", prediction.label, answer)
    return run.violations


_conforming_predictions = st.builds(Prediction, st.sampled_from(LABELS), st.floats(0, 1))


@settings(max_examples=300, deadline=None)
@given(st.one_of(_specs, _mostly_failing), _typed_inputs, _conforming_predictions, _policies)
def test_failing_checks_build_the_violations_check_sample_reports(
    spec, fields, prediction, policy
):
    assume(not static_errors(spec))
    record = TraceRecord("r", FeatureRecord(fields, "r"), prediction)
    exact = check_sample(spec, record, policy)
    fast = _answered_violations(spec, fields, prediction, policy)
    if any(v.kind is ViolationKind.EVAL_ERROR for v in exact):
        assert fast is None
    else:
        assert fast is not None
        assert [v.to_json_dict() for v in fast] == [v.to_json_dict() for v in exact]


def test_a_condition_that_fails_after_one_that_holds_takes_the_exact_path(tmp_path):
    spec = PartialSpec(
        schema=SCHEMA,
        sufficient={
            "cyclist": (parse("input.height > 0"), parse("1 / (input.height - input.height) > 0"))
        },
    )
    with pytest.raises(EvalError):
        clean_line_function(spec)(_view(CONFORMING, Prediction("pedestrian", 0.5)))
    report = run_trace(spec, _one_line_trace(tmp_path, CONFORMING))
    assert [v.to_json_dict() for v in report.violations] == [
        {
            "record_id": "r",
            "kind": "EVAL_ERROR",
            "detail": {"stage": "sufficient", "error": "division by zero"},
            "post_failsafe": False,
        }
    ]


def _one_line_trace(tmp_path, fields):
    path = tmp_path / "trace.jsonl"
    output = {"label": "pedestrian", "confidence": 0.5}
    path.write_text(json.dumps({"id": "r", "input": fields, "output": output}) + "\n")
    return path


@pytest.mark.parametrize("form", ["list", "str", "Path"])
def test_one_run_checks_the_spec_once_in_every_form(tmp_path, form):
    # at the gate; the generated function trusts it
    path = _one_line_trace(tmp_path, CONFORMING)
    trace = {"list": list(read_trace(path)), "str": str(path), "Path": path}[form]
    spec = PartialSpec(schema=SCHEMA, probabilistic=(RangeConstraint("height", -1.0, 1.0),))
    with mock.patch.object(spec_module, "static_errors", wraps=static_errors) as checked:
        assert run_trace(spec, trace).violations == []
    assert checked.call_count == 1


def test_a_gated_config_checks_the_spec_once():
    spec = PartialSpec(schema=SCHEMA, sufficient={"pedestrian": (parse("input.flag"),)})
    with mock.patch.object(spec_module, "static_errors", wraps=static_errors) as checked:
        assert GatedConfig(spec, ML)._decide is not None
    assert checked.call_count == 1


@pytest.mark.parametrize("probabilistic", [(), (MeanConstraint("count", 1.0, 0.0),) * 2])
def test_a_clean_line_never_becomes_a_trace_record(tmp_path, probabilistic):
    spec = PartialSpec(
        schema=SCHEMA, precondition=parse("input.height > 0"), probabilistic=probabilistic
    )
    clean_line = clean_line_function(spec)
    assert clean_line(json.loads(_one_line_trace(tmp_path, CONFORMING).read_text())) == (
        (1.0,) * len(probabilistic)
    )
    for fields, kinds in [(CONFORMING, []), ({**CONFORMING, "height": -1.0}, ["PRE"])]:
        path = _one_line_trace(tmp_path, fields)
        with mock.patch.object(
            monitor, "_trace_record_from_json", wraps=monitor._trace_record_from_json
        ) as record:
            report = run_trace(spec, path, MonitorPolicy(probabilistic_window=1))
        assert record.call_count == 0
        assert report.records_processed == 1
        assert [v.kind.value for v in report.violations] == kinds


def test_a_clean_line_that_raises_takes_the_exact_path(tmp_path):
    spec = PartialSpec(schema=SCHEMA, necessary={"pedestrian": (parse("input.height > 2"),)})

    def raising(data):
        raise RuntimeError("not decided here")

    output = {"label": "pedestrian", "confidence": 0.5}
    lines = [
        json.dumps({"id": f"r{i}", "input": {**CONFORMING, "height": height}, "output": output})
        for i, height in enumerate((1.0, 3.0))
    ]
    path = tmp_path / "trace.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with mock.patch.object(monitor, "clean_line_function", lambda spec: raising):
        report = run_trace(spec, path)
        from_items = run_trace(spec, read_trace(path))
    assert [(v.record_id, v.kind.value) for v in report.violations] == [("r0", "NECESSARY")]
    assert report.to_json_dict() == from_items.to_json_dict()
    assert report.to_json_dict() == run_trace(spec, read_trace(path)).to_json_dict()


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(_typed_booleans, _typed_numbers),
    _typed_inputs,
    st.builds(Prediction, st.sampled_from(LABELS), st.floats(0, 1)),
)
def test_emitted_expression_matches_tree_walk(expr, inputs, output):
    names = {name: f"v_{name}" for name in SCHEMA.fields}
    emit = Emitter(SCHEMA, names)
    lines = []
    held, _ = emit.expression(expr, lines)
    params = ", ".join([*names.values(), "label", "confidence"])
    run = emit.function(f"run({params})", lines + [f"return {held}"])
    numbers = ("height", "count")
    args = [float(inputs[n]) if n in numbers else inputs[n] for n in SCHEMA.fields]
    args += [output.label, output.confidence]
    try:
        want = tree_walk.evaluate(expr, inputs, output)
    except EvalError:
        with pytest.raises((EvalError, ZeroDivisionError)):
            run(*args)
        return
    got = run(*args)
    assert type(got) is type(want)
    assert got == want or (math.isnan(got) and math.isnan(want))


@pytest.mark.parametrize(
    "source,expected",
    [
        ("0.1 + 0.2 == 0.3", True),
        ("0.1 + 0.2 != 0.3", False),
        ("1 == 1.0000001", False),
        ("input.height * 3 == 0.3", True),
        ("input.count / 3 > 0.66 && -input.count < -1.5", True),
        ("min(input.img[0][1], input.img[1][0]) == 0.5 || input.flag", True),
        ("sum(input.img) == 3.5 && len(input.img) == 4 && rows(input.img) == 2", True),
        ('len(input.zone) == 4 && input.zone != "walkway" && !input.flag', True),
        ('output.label == "cyclist" && output.confidence < 0.25', True),
    ],
)
def test_emitted_examples(source, expected):
    names = {name: f"v_{name}" for name in SCHEMA.fields}
    emit = Emitter(SCHEMA, names)
    params = ", ".join([*names.values(), "label", "confidence"])
    lines = []
    held = emit.condition(parse(source), lines)
    run = emit.function(f"run({params})", lines + [f"return {held}"])
    assert run(0.1, 2.0, False, "lane", [[1, 0.5], [2, 0]], "cyclist", 0.2) is expected


CONFORMING = {"height": 1.0, "count": 1, "flag": True, "zone": "", "img": [[0, 0.5], [1, 2]]}


def _variants():
    for name in CONFORMING:
        yield f"{name} missing", {k: v for k, v in CONFORMING.items() if k != name}, None
    yield "extra field", {**CONFORMING, "bonus": 1.0}, None
    values = [True, math.nan, math.inf, 10**400, 2**53 + 1, Level.ONE, None, "lane", 2.5, [[0, 0]]]
    for value in values:
        for name in CONFORMING:
            fields = {**CONFORMING, name: value}
            if conformance_errors(fields, SCHEMA):
                yield f"{name}={value!r}", fields, None
        fields = {**CONFORMING, "img": [[0, 0], [value, 0]]}
        if conformance_errors(fields, SCHEMA):
            yield f"cell={value!r}", fields, None
    yield "short row", {**CONFORMING, "img": [[0, 0], [0]]}, None
    yield "long grid", {**CONFORMING, "img": [[0, 0], [0, 0], [0, 0]]}, None
    yield "tuple row", {**CONFORMING, "img": [[0, 0], (0, 0)]}, None
    for confidence in [math.nan, 1.5, -0.25, 10**400, None, 1, True]:
        yield f"confidence={confidence!r}", CONFORMING, Prediction("cyclist", confidence)
    yield "label outside the alphabet", CONFORMING, Prediction("bicycle", 0.5)


@pytest.mark.parametrize(
    "fields,prediction", [v[1:] for v in _variants()], ids=[v[0] for v in _variants()]
)
def test_a_record_off_the_schema_is_never_decided_clean(fields, prediction):
    # The postcondition reads the confidence, so a missing one is off too.
    clean_line = clean_line_function(
        PartialSpec(schema=SCHEMA, postcondition=parse("output.confidence >= 0"))
    )
    prediction = prediction or Prediction("pedestrian", 0.5)
    assert _answer(clean_line, CONFORMING, Prediction("pedestrian", 0.5)) is True
    assert _verdict(clean_line, fields, prediction) is None


def test_reads_output_finds_a_reference_anywhere_in_a_chain_of_any_length():
    chain = codegen.any_of([parse("input.height > 0")] * 20_000 + [parse("output.confidence > 0")])
    assert reads_output(chain, "confidence") and not reads_output(chain, "label")
    nested = parse('!(rows(input.img) > 1 && -input.height < 0 || output.label == "cyclist")')
    assert reads_output(nested, "label") and not reads_output(nested, "confidence")
    assert reads_output(parse("max(1, output.confidence) > 0"), "confidence")


class Real(float):
    pass


EDGE_VALUES = [
    0, 0.0, -0.0, 0.5, -3, 2**53 - 1, 2**53, 2**53 + 1, -(2**53 + 1), 2**63 + 1, 10**400,
    -(10**400), 1e300, -1e300, 1e16 + 1, math.nan, math.inf, -math.inf, True, False, Level.ONE,
    Real(1.0), None, "", "lane", "Lane", [[0, 0.5], [1, 2]], [[2**53 + 1, 0], [0, 0]],
    [[10**400, 0], [0, 0]], [[math.nan, 0], [0, 0]], [[True, 0], [0, 0]], [[0, 0], [0]],
    [[0, 0], (0, 0)], [[0, 0]], ((0, 0), (0, 0)),
]
FIELD_TYPES = [NumberType(), IntegerType(), BooleanType(), CategoryType(("", "lane")), GridType(2, 2)]


@pytest.mark.parametrize("ftype", FIELD_TYPES, ids=repr)
@pytest.mark.parametrize("value", EDGE_VALUES, ids=repr)
def test_value_guard_agrees_with_value_errors(ftype, value):
    emit = Emitter(Schema({}, LABELS), {})
    lines = value_guard(ftype, "x", emit.constant) + ["return [x]"]
    guard = emit.function("guard(x)", lines)
    try:
        kept = guard(value)
    except Exception:  # the record falls back to the exact path
        kept = None
    errors = value_errors("f", ftype, value)
    if kept:
        assert errors == []
        if isinstance(ftype, (NumberType, IntegerType)):
            assert type(kept[0]) is float and kept[0] == float(value)
    elif not errors and _exact_types({"f": value}, Prediction("a", 0.5)):
        pytest.fail(f"a conforming value is turned away: {kept!r}")


@pytest.mark.parametrize("label", ["pedestrian", "bicycle", "", Real(1.0)], ids=repr)
@pytest.mark.parametrize(
    "confidence",
    [0.0, -0.0, 1.0, 0.5, 1.0000001, -1e-300, 0, 1, True, Level.ONE, Real(0.5), math.nan, None],
    ids=repr,
)
def test_conformance_guard_agrees_with_prediction_errors(label, confidence):
    clean_line = clean_line_function(PartialSpec(schema=SCHEMA))
    prediction = Prediction(label, confidence)
    decided = _verdict(clean_line, CONFORMING, prediction)
    errors = prediction_errors(prediction, SCHEMA)
    if decided is True:
        assert errors == []
    elif not errors and _exact_types(CONFORMING, prediction):
        pytest.fail(f"a conforming prediction is turned away: {decided!r}")


def test_benchmark_style_spec_decides_clean_records_and_only_those():
    schema = Schema(
        {"height": NumberType(), "lane": IntegerType(), "zone": CategoryType(("urban", "rural"))},
        LABELS,
    )
    spec = PartialSpec(
        schema=schema,
        precondition=parse("input.height > 0 && input.lane <= 3"),
        postcondition=parse("output.confidence >= 0.3"),
        sufficient={
            "pedestrian": (
                parse('input.zone == "rural"'),
                parse("input.height > 1.2 && input.height < 2.1"),
            )
        },
        necessary={
            "cyclist": (parse("input.height > 1"),),
            "pedestrian": (parse("input.lane < 3"), parse("input.lane < 2")),
        },
    )
    clean_line = clean_line_function(spec)
    ok = {"height": 1.7, "lane": 1, "zone": "urban"}
    assert _answer(clean_line, ok, Prediction("pedestrian", 0.9)) is True
    assert _answer(clean_line, {**ok, "lane": 1.0}, Prediction("pedestrian", 0.9)) is True
    assert _answer(clean_line, {**ok, "height": 3}, Prediction("cyclist", 0.9)) is True
    # check numbers: 0 PRE, 1 POST, 2 and 3 the sufficient conditions of
    # pedestrian, 4 the necessary one of cyclist, 5 and 6 those of pedestrian
    for fields, prediction, failing in [
        ({**ok, "height": -1.0}, Prediction("pedestrian", 0.1), [0]),  # PRE alone
        (ok, Prediction("pedestrian", 0.1), [1]),
        ({**ok, "height": 3, "zone": "rural"}, Prediction("cyclist", 0.9), [2]),
        (ok, Prediction("cyclist", 0.9), [3]),
        ({**ok, "height": 1.5, "zone": "rural"}, Prediction("cyclist", 0.1), [1, 2, 3]),
        ({**ok, "lane": 2}, Prediction("pedestrian", 0.9), [6]),
        ({**ok, "lane": 3}, Prediction("pedestrian", 0.9), [5, 6]),
        ({**ok, "height": 0.5}, Prediction("cyclist", 0.9), [4]),
    ]:
        assert clean_line(_view(fields, prediction)) == [(), *failing]
    for fields, prediction in [
        ({**ok, "lane": 1.5}, Prediction("pedestrian", 0.9)),  # not an integer
        ({**ok, "lane": 2**53 + 1}, Prediction("pedestrian", 0.9)),  # float() rounds it
        ({**ok, "zone": "tunnel"}, Prediction("pedestrian", 0.9)),  # not a category value
        ({**ok, "lane": True}, Prediction("pedestrian", 0.9)),  # bool is no number
        ({**ok, "lane": Level.ONE}, Prediction("pedestrian", 0.9)),  # not exactly an int
        (ok, Prediction("pedestrian", None)),  # no confidence
        (ok, Prediction("truck", 0.9)),  # not in the alphabet
        ({"height": 1.7, "lane": 1, "colour": "red"}, Prediction("pedestrian", 0.9)),
    ]:
        assert _verdict(clean_line, fields, prediction) is None


def test_comparing_an_int_literal_with_a_float_falls_back_like_the_evaluator_fails():
    spec = PartialSpec(schema=SCHEMA, precondition=Binary("==", Num(1), InputRef("height")))
    fields = CONFORMING
    prediction = Prediction("pedestrian", 0.5)
    with pytest.raises(EvalError):
        _answer(clean_line_function(spec), fields, prediction)
    assert [v.detail["stage"] for v in _exact_findings(spec, fields, prediction)] == ["pre"]
    same_type = PartialSpec(schema=SCHEMA, precondition=Binary("==", Num(1), Num(1)))
    assert _answer(clean_line_function(same_type), fields, prediction) is True


HOSTILE = ['a"b', "c'd", "line\nbreak", "__import__('os')", "x) or (True", "\\", "k0"]


def test_hostile_names_values_and_labels_give_the_exact_verdicts(monkeypatch):
    sources = []

    def capture(source, *args):
        sources.append(source)
        return compile(source, *args)

    monkeypatch.setattr(codegen, "compile", capture, raising=False)
    number, category = HOSTILE[3], HOSTILE[0]
    schema = Schema(
        {number: NumberType(), category: CategoryType(tuple(HOSTILE)), HOSTILE[2]: BooleanType()},
        (HOSTILE[1], HOSTILE[4], HOSTILE[5]),
    )
    spec = PartialSpec(
        schema=schema,
        precondition=Binary(">", InputRef(number), Num(0.0)),
        postcondition=Binary("!=", OutputRef("label"), Str(HOSTILE[5])),
        sufficient={HOSTILE[4]: (Binary("==", InputRef(category), Str(HOSTILE[6])),)},
        necessary={HOSTILE[1]: (InputRef(HOSTILE[2]),)},
    )
    clean_line = clean_line_function(spec)
    (source,) = sources
    for text in HOSTILE[:6]:
        assert text not in source
    for value in HOSTILE:
        for label in schema.labels + ("other",):
            for flag in (True, False):
                fields = {number: 1.5, category: value, HOSTILE[2]: flag}
                prediction = Prediction(label, 0.5)
                if _structural(spec, fields, prediction):
                    want = None
                else:
                    want = not _exact_findings(spec, fields, prediction)
                assert _answer(clean_line, fields, prediction) is want, (value, label, flag)


@pytest.mark.parametrize(
    "spec",
    [
        PartialSpec(schema=SCHEMA, precondition=Binary(">", InputRef("height"), Num(10**400))),
        PartialSpec(schema=SCHEMA, precondition=Binary(">", InputRef("height"), Num(True))),
        PartialSpec(schema=SCHEMA, precondition=Binary("==", InputRef("zone"), Str(5))),
        PartialSpec(schema=SCHEMA, precondition=Binary(">", InputRef("absent"), Num(0.0))),
        PartialSpec(schema=SCHEMA, precondition=Binary(">", Call("abs", ()), Num(0.0))),
        PartialSpec(schema=SCHEMA, precondition=parse("input.height + 1")),
        PartialSpec(schema=SCHEMA, precondition=parse("output.label == \"cyclist\"")),
        PartialSpec(schema=SCHEMA, sufficient={"bicycle": (parse("input.flag"),)}),
        PartialSpec(schema=SCHEMA, precondition=Binary("&&", Bool(True), 5)),
        PartialSpec(schema=SCHEMA, precondition=Binary("%", Num(1.0), Str("a"))),
    ],
    ids=repr,
)
def test_no_function_for_a_spec_that_fails_the_gate_or_holds_an_odd_literal(spec):
    refused = static_errors(spec)
    if refused:  # the gate stops the run before any code is generated
        with mock.patch.object(monitor, "clean_line_function") as generate:
            with pytest.raises(FormatError) as gate:
                run_trace(spec, [])
        assert gate.value.errors == refused
        generate.assert_not_called()
    else:
        assert clean_line_function(spec) is None


def _double_negation(levels):
    expr = parse("input.height > 0")
    for _ in range(levels):
        expr = Unary("!", Unary("!", expr))
    return expr


def _sum_chain(terms):
    expr = InputRef("height")
    for i in range(1, terms):
        expr = Binary("+", expr, InputRef("count" if i % 2 else "height"))
    return Binary("<", expr, Num(100))


@pytest.mark.parametrize(
    "precondition", [_double_negation(120), _sum_chain(250)], ids=["120 !!", "250 + terms"]
)
def test_a_condition_nested_deeper_than_python_parses_gets_a_fast_path(precondition):
    spec = PartialSpec(schema=SCHEMA, precondition=precondition)
    assert static_errors(spec) == []
    clean_line = clean_line_function(spec)
    assert clean_line is not None
    prediction = Prediction("pedestrian", 0.5)
    verdicts = set()
    for height, count in [(-1.0, 0), (0.5, 0), (0.5, 1), (0.25, -1), (2.0, 3)]:
        fields = {**CONFORMING, "height": height, "count": count}
        verdict = _answer(clean_line, fields, prediction)
        assert verdict is (not _exact_findings(spec, fields, prediction)), (height, count)
        verdicts.add(verdict)
    assert verdicts == {True, False}
    fields = {**CONFORMING, "height": -1.0, "count": 3}
    trace = [TraceRecord("r", FeatureRecord(fields), prediction)]
    assert [v.kind.value for v in run_trace(spec, trace).violations] == ["PRE"]


def test_the_function_is_built_per_run_so_a_changed_spec_is_seen():
    spec = PartialSpec(schema=SCHEMA, necessary={"pedestrian": ()})
    record = TraceRecord(
        "r",
        FeatureRecord(CONFORMING),
        Prediction("pedestrian", 0.5),
    )
    assert run_trace(spec, [record]).violations == []
    spec.necessary["pedestrian"] = (parse("input.height > 2"),)
    assert [v.kind.value for v in run_trace(spec, [record]).violations] == ["NECESSARY"]


def test_malformed_lines_and_fallback_records_keep_their_order():
    spec = PartialSpec(schema=SCHEMA, precondition=parse("input.height > 0"))
    good = CONFORMING
    trace = [
        TraceRecord("a", FeatureRecord(good), Prediction("pedestrian", 0.5)),
        MalformedLine(2, "boom"),
        TraceRecord("c", FeatureRecord({**good, "height": -1.0}), Prediction("pedestrian", 0.5)),
        TraceRecord("d", FeatureRecord({**good, "height": 10**400}), Prediction("pedestrian", 0.5)),
        TraceRecord("e", FeatureRecord({**good, "count": 2**53 + 1}), Prediction("pedestrian", 0.5)),
        TraceRecord("f", FeatureRecord({**good, "height": 2**53 + 1}), Prediction("pedestrian", 0.5)),
    ]
    report = run_trace(spec, trace)
    assert [(v.record_id, v.kind.value) for v in report.violations] == [
        (None, "EVAL_ERROR"),
        ("c", "PRE"),
        ("d", "EVAL_ERROR"),
        ("e", "EVAL_ERROR"),
    ]
    assert report.violations[2].detail["stage"] == "conformance"
    assert report.violations[3].detail["errors"] == [
        "field 'count' must be an integer, got 9007199254740993"
    ]


# --------------------------------------------------------------------------
# the gated pattern's generated decision

ML = ExpressionClassifier(((parse("input.flag"), "cyclist", 0.9),), Prediction("pedestrian", 0.5))


def _gated_outcome(config, fields):
    try:
        return gated_classify(config, fields)
    except Exception as exc:  # the property compares failures too
        return type(exc), str(exc)


def _exact_config(spec, ml=ML):
    with mock.patch.object(patterns, "gated_decide_function", lambda spec: None):
        config = GatedConfig(spec, ml)
    assert config._decide is None
    return config


_gated_specs = st.builds(
    PartialSpec,
    schema=st.just(SCHEMA),
    sufficient=st.one_of(
        _class_conditions,
        # one condition for both labels: where it holds, the spec is inconsistent
        _conditions.map(lambda c: {label: (c,) for label in LABELS}),
        st.dictionaries(
            st.sampled_from(LABELS), st.lists(_untyped, max_size=2).map(tuple), max_size=2
        ),
    ),
    necessary=_class_conditions,
)


@settings(max_examples=400, deadline=None)
@given(_gated_specs, _fields())
def test_gated_decision_is_the_exact_one(spec, fields):
    findings = static_errors(spec)  # never raises, even on the untyped conditions
    if findings:
        with pytest.raises(FormatError) as refused:
            GatedConfig(spec, ML)
        assert refused.value.errors == findings
        return
    fast = GatedConfig(spec, ML)
    want = _gated_outcome(_exact_config(spec), fields)
    assert _gated_outcome(fast, fields) == want
    if fast._decide is not None and isinstance(want, GatedDecision):
        conforming = not conformance_errors(fields, SCHEMA)
        if conforming and _exact_types(fields, Prediction("a", 0.5)):
            assert fast._decide(fields) is not None


def test_gated_decisions_cover_every_branch():
    spec = PartialSpec(
        schema=SCHEMA,
        sufficient={
            "pedestrian": (parse("input.height < 0"),),
            "cyclist": (parse("input.count > 2"),),
        },
        necessary={"pedestrian": (parse("input.height < 2"),), "cyclist": (parse("input.flag"),)},
    )
    fast, exact = GatedConfig(spec, ML), _exact_config(spec)
    cases = {
        "sufficient": {**CONFORMING, "height": -1.0},
        "elimination": {**CONFORMING, "height": 1.0, "flag": False},
        "ml": {**CONFORMING, "height": 1.0},
        "all eliminated": {**CONFORMING, "height": 3.0, "flag": False},
        "inconsistent": {**CONFORMING, "height": -1.0, "count": 3},
        "off the schema": {"height": -1.0},
    }
    outcomes = {name: _gated_outcome(fast, fields) for name, fields in cases.items()}
    for name, fields in cases.items():
        assert outcomes[name] == _gated_outcome(exact, fields), name
    assert outcomes["sufficient"].mode == "sufficient"
    assert outcomes["elimination"].mode == "elimination"
    assert outcomes["ml"].prediction == Prediction("cyclist", 0.9)
    assert outcomes["all eliminated"].note == "all labels eliminated by necessary conditions"
    assert "inconsistent" in outcomes["inconsistent"][1]
    assert fast._decide(cases["inconsistent"]) is None
    assert fast._decide(cases["off the schema"]) is None


def test_gated_condition_errors_keep_the_exact_text():
    spec = PartialSpec(
        schema=SCHEMA,
        sufficient={"pedestrian": (parse("1 / input.height > 1"),)},
        necessary={"cyclist": (Binary("==", Num(1), InputRef("height")),)},
    )
    fast, exact = GatedConfig(spec, ML), _exact_config(spec)
    for height in (0.0, 0.5):
        fields = {**CONFORMING, "height": height}
        assert _gated_outcome(fast, fields) == _gated_outcome(exact, fields)
    assert _gated_outcome(fast, {**CONFORMING, "height": 0.0})[1] == (
        "gated sufficient condition failed: division by zero"
    )


def test_gated_hostile_names_values_and_labels_give_the_exact_decisions(monkeypatch):
    sources = []

    def capture(source, *args):
        sources.append(source)
        return compile(source, *args)

    monkeypatch.setattr(codegen, "compile", capture, raising=False)
    number, category = HOSTILE[3], HOSTILE[0]
    labels = (HOSTILE[1], HOSTILE[4], HOSTILE[5])
    schema = Schema(
        {number: NumberType(), category: CategoryType(tuple(HOSTILE)), HOSTILE[2]: BooleanType()},
        labels,
    )
    spec = PartialSpec(
        schema=schema,
        sufficient={HOSTILE[4]: (Binary("==", InputRef(category), Str(HOSTILE[6])),)},
        necessary={
            HOSTILE[1]: (InputRef(HOSTILE[2]),),
            HOSTILE[5]: (Binary(">", InputRef(number), Num(1.0)),),
        },
    )
    ml = ExpressionClassifier((), Prediction(HOSTILE[5], 0.5))
    fast = GatedConfig(spec, ml)
    (source,) = sources
    for text in HOSTILE[:6]:
        assert text not in source
    exact = _exact_config(spec, ml)
    for value in HOSTILE + ["off the category"]:
        for height in (0.5, 1.5):
            for flag in (True, False):
                fields = {number: height, category: value, HOSTILE[2]: flag}
                want = _gated_outcome(exact, fields)
                assert _gated_outcome(fast, fields) == want, (value, height, flag)
                if not conformance_errors(fields, schema):
                    assert fast._decide(fields) is not None


def test_demo_04_grid_spec_takes_the_fast_path(capsys):
    demo = Path(__file__).resolve().parent.parent / "demos" / "04_architecture_patterns.py"
    names = runpy.run_path(str(demo))
    capsys.readouterr()
    spec, faulty = names["spec"], names["faulty"]
    fast = GatedConfig(spec, faulty)
    assert fast._decide is not None
    exact = _exact_config(spec, faulty)
    for record in names["domain"]:
        assert fast._decide(record.fields) is not None
        assert gated_classify(fast, record.fields) == gated_classify(exact, record.fields)


def test_gated_config_keeps_equality_repr_and_pickling():
    spec = PartialSpec(schema=SCHEMA, sufficient={"pedestrian": (parse("input.flag"),)})
    fast, exact = GatedConfig(spec, ML), _exact_config(spec)
    assert fast == exact and repr(fast) == repr(exact)
    assert "_decide" not in repr(fast)
    copy = pickle.loads(pickle.dumps(fast))
    assert copy == fast and copy._decide is not None
    assert gated_classify(copy, CONFORMING) == gated_classify(fast, CONFORMING)
