"""One owner per concept at the program's edges: the JSON file readers, the
record reference, the sufficient/necessary kernel, the well-formedness gate
at every entry point that evaluates a spec, and the schema check on data
set inputs."""
from __future__ import annotations

import json
import math
import re
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specguard import patterns
from specguard.cli import main
from specguard.dataset import (
    DataSetRequirements,
    LabeledRecord,
    Partition,
    Partitioning,
    augment,
    categorize_uncertainty,
    read_dataset,
    verify_dataset,
)
from specguard.errors import EvalError, FormatError, PatternError
from specguard.monitor import MonitorPolicy, TraceRecord, ViolationKind, run_trace
from specguard.patterns import GatedConfig, GatedDecision, _consult_ml, gated_classify
from specguard.speccore.classifiers import TableClassifier
from specguard.speccore.records import FeatureRecord, Prediction, record_ref
from specguard.speccore.spec import (
    MeanConstraint,
    PartialSpec,
    RangeConstraint,
    check_necessary,
    check_sufficient,
    necessary_fails,
    static_errors,
    sufficient_holds,
    validate_spec,
)
from specguard.speccore.transforms import (
    AddOffset,
    FieldMap,
    LabelMap,
    ShiftGrid,
    Transformation,
    apply_transformation,
)
from specguard.speclang.ast import Binary, Bool, Call, InputRef, Num
from specguard.speclang.evaluate import evaluate_condition
from specguard.speclang.parser import parse
from specguard.speclang.schema import GridType, NumberType, Schema

SRC = Path(__file__).resolve().parent.parent / "src" / "specguard"
LABELS = ("a", "b", "c")
SCHEMA = Schema({"x": NumberType()}, LABELS)
ML = TableClassifier({}, Prediction("c", 0.5))
EVERYTHING = DataSetRequirements(
    SCHEMA, (Partitioning("all", (Partition("any", Bool(True)),)),)
)


# --------------------------------------------------------------------------
# the record reference


def test_record_ref_is_the_id_or_the_position():
    assert record_ref("r7", 3) == "r7"
    assert record_ref("", 3) == ""
    assert record_ref(None, 3) == "#3"


# --------------------------------------------------------------------------
# the sufficient/necessary kernel


def test_the_kernel_yields_indices_in_declaration_order_and_lazily():
    spec = PartialSpec(
        SCHEMA,
        sufficient={"a": tuple(map(parse, ("input.x >= 0", "input.x > 5", "1 / input.x > 0")))},
        necessary={"a": tuple(map(parse, ("input.x > 0", "input.x < 5", "1 / input.x > 0")))},
    )
    assert list(sufficient_holds(spec, "a", {"x": 9.0})) == [0, 1, 2]
    assert list(necessary_fails(spec, "a", {"x": 9.0})) == [1]
    assert list(sufficient_holds(spec, "b", {"x": 9.0})) == []
    assert list(necessary_fails(spec, "b", {"x": 9.0})) == []
    # Index 0 is falsy, so "any holds" is next(gen, None) is not None. The
    # condition that divides by zero is reached only by asking for more.
    assert next(sufficient_holds(spec, "a", {"x": 0.0}), None) == 0
    assert next(necessary_fails(spec, "a", {"x": 0.0}), None) == 0
    for kernel in (sufficient_holds, necessary_fails):
        with pytest.raises(EvalError):
            list(kernel(spec, "a", {"x": 0.0}))


# The kernel's callers before it existed, spelled out: each must keep its
# verdicts, its partial results and its error texts.


def _old_check_sufficient(spec, fields, prediction):
    violated = []
    for label in spec.sufficient:
        if label == prediction.label:
            continue
        for j, expr in enumerate(spec.sufficient[label]):
            if evaluate_condition(expr, fields):
                violated.append((label, j))
    return violated


def _old_check_necessary(spec, fields, prediction):
    violated = []
    for j, expr in enumerate(spec.necessary.get(prediction.label, ())):
        if not evaluate_condition(expr, fields):
            violated.append((prediction.label, j))
    return violated


def _old_validate(spec, fields):
    conflicts, admits_no_output = [], []
    try:
        if not evaluate_condition(spec.precondition, fields):
            return conflicts, admits_no_output, None
        satisfied = [
            label
            for label, exprs in spec.sufficient.items()
            if any(evaluate_condition(e, fields) for e in exprs)
        ]
        for i in range(len(satisfied)):
            for j in range(i + 1, len(satisfied)):
                pair = sorted([satisfied[i], satisfied[j]])
                conflicts.append({"record": "r", "labels": pair})
        for label in satisfied:
            for j, expr in enumerate(spec.necessary.get(label, ())):
                if not evaluate_condition(expr, fields):
                    entry = {"record": "r", "label": label, "necessary_index": j}
                    admits_no_output.append(entry)
    except EvalError as exc:
        return conflicts, admits_no_output, str(exc)
    return conflicts, admits_no_output, None


def _old_label_failures(spec, fields, given_label):
    failures = []
    try:
        if not evaluate_condition(spec.precondition, fields):
            return failures, None
        for label, exprs in spec.sufficient.items():
            if label == given_label:
                continue
            for j, expr in enumerate(exprs):
                if evaluate_condition(expr, fields):
                    failures.append(("sufficient_conflict", label, j))
        for j, expr in enumerate(spec.necessary.get(given_label, ())):
            if not evaluate_condition(expr, fields):
                failures.append(("necessary_violated", given_label, j))
    except EvalError as exc:
        return failures, str(exc)
    return failures, None


def _old_gated(config, fields):
    spec = config.spec
    satisfied = []
    try:
        for label, exprs in spec.sufficient.items():
            if any(evaluate_condition(e, fields) for e in exprs):
                satisfied.append(label)
    except EvalError as exc:
        raise PatternError(f"gated sufficient condition failed: {exc}") from exc
    if len(satisfied) > 1:
        raise PatternError(
            "sufficient conditions of labels "
            + ", ".join(repr(l) for l in sorted(satisfied))
            + " all hold on this input; the spec is inconsistent (see validate_spec)"
        )
    if len(satisfied) == 1:
        return GatedDecision(Prediction(satisfied[0], 1.0), "SPEC", mode="sufficient")
    remaining = []
    try:
        for label in spec.schema.labels:
            exprs = spec.necessary.get(label, ())
            if not any(not evaluate_condition(e, fields) for e in exprs):
                remaining.append(label)
    except EvalError as exc:
        raise PatternError(f"gated necessary condition failed: {exc}") from exc
    if len(remaining) == 1:
        return GatedDecision(Prediction(remaining[0], 1.0), "SPEC", mode="elimination")
    note = None if remaining else "all labels eliminated by necessary conditions"
    return _consult_ml(config, fields, note)


def _outcome(call, *args):
    try:
        result = call(*args)
    except Exception as exc:  # the property compares failures too
        return type(exc).__name__, str(exc)
    if isinstance(result, GatedDecision):  # the reference tags its source as a str
        source = getattr(result.source, "value", result.source)
        return result.prediction, source, result.mode, result.note
    return result


_CONDITIONS = st.sampled_from(
    ["input.x > 0", "input.x < 3", "input.x == 2", "1 / input.x > 0.4", "input.x != 6"]
).map(parse)
_CLASS_CONDITIONS = st.dictionaries(
    st.sampled_from(LABELS), st.lists(_CONDITIONS, max_size=3).map(tuple), max_size=3
)
_SPECS = st.builds(
    PartialSpec,
    schema=st.just(SCHEMA),
    precondition=st.sampled_from(["input.x > -5", "1 / input.x != 0"]).map(parse),
    sufficient=_CLASS_CONDITIONS,
    necessary=_CLASS_CONDITIONS,
)
_FIELDS = st.sampled_from([-1.0, 0.0, 1.0, 2.0, 3.0, 6.0]).map(lambda x: {"x": x})


@settings(max_examples=300, deadline=None)
@given(_SPECS, _FIELDS, st.sampled_from(LABELS))
def test_every_caller_of_the_kernel_keeps_its_verdicts_and_errors(spec, fields, label):
    prediction = Prediction(label, 0.5)
    assert _outcome(check_sufficient, spec, fields, prediction) == _outcome(
        _old_check_sufficient, spec, fields, prediction
    )
    assert _outcome(check_necessary, spec, fields, prediction) == _outcome(
        _old_check_necessary, spec, fields, prediction
    )

    report = validate_spec(spec, [FeatureRecord(fields, "r")])
    conflicts, admits_no_output, error = _old_validate(spec, fields)
    assert list(report.conflicts) == conflicts
    assert list(report.admits_no_output) == admits_no_output
    assert [e["error"] for e in report.eval_errors] == ([error] if error else [])

    record = LabeledRecord(FeatureRecord(fields, "r"), label)
    compliance = verify_dataset([record], EVERYTHING, spec)
    failures, error = _old_label_failures(spec, fields, label)
    got = [
        (f["kind"], f.get("conflicting_label", f["label"]), f["index"])
        for f in compliance.label_failures
    ]
    assert got == failures
    assert [e["error"] for e in compliance.eval_errors] == ([error] if error else [])

    fast = GatedConfig(spec, ML)
    with mock.patch.object(patterns, "gated_decide_function", lambda spec: None):
        exact = GatedConfig(spec, ML)
    want = _outcome(_old_gated, exact, fields)
    assert _outcome(gated_classify, exact, fields) == want
    assert _outcome(gated_classify, fast, fields) == want


# --------------------------------------------------------------------------
# the well-formedness gate

FOUND = {
    "abs()": Binary(">", Call("abs", ()), Num(0.0)),
    "min()": Binary(">", Call("min", ()), Num(0.0)),
    "unknown operator": Binary("%", InputRef("x"), Num(2.0)),
    "non-node child": Binary(">", "input.x", Num(0.0)),
}


def _trace_never_read():
    raise AssertionError("the gate must refuse the spec before the first record")
    yield  # pragma: no cover


def _record():
    return LabeledRecord(FeatureRecord({"x": 1.0}, "r"), "a")


ENTRY_POINTS = {
    "run_trace": lambda spec: run_trace(spec, _trace_never_read()),
    "GatedConfig": lambda spec: GatedConfig(spec, ML),
    "verify_dataset": lambda spec: verify_dataset([_record()], EVERYTHING, spec),
    "augment": lambda spec: augment([_record()], spec),
}


@pytest.mark.parametrize("where", ["precondition", "sufficient", "necessary"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("condition", sorted(FOUND))
def test_every_entry_point_refuses_a_spec_static_errors_rejects(condition, entry, where):
    expr = FOUND[condition]
    if where == "precondition":
        spec = PartialSpec(SCHEMA, precondition=expr)
    else:
        spec = PartialSpec(SCHEMA, **{where: {"a": (expr,)}})
    findings = static_errors(spec)
    assert findings
    with pytest.raises(FormatError) as refused:
        ENTRY_POINTS[entry](spec)
    assert refused.value.errors == findings
    assert str(refused.value) == "spec is not well-formed: " + "; ".join(findings)


NUDGE = Transformation("nudge", AddOffset("x", 1.0))
# A Python-built spec whose containers are not the declared ones, and the
# finding static_errors reports for it.
MALFORMED = {
    "sufficient: bare expression": (
        {"sufficient": {"a": parse("input.x > 0")}},
        "sufficient['a']: must be a tuple of expressions",
    ),
    "necessary: bare expression": (
        {"necessary": {"b": parse("input.x > 0")}},
        "necessary['b']: must be a tuple of expressions",
    ),
    "sufficient: not a dict": (
        {"sufficient": [("a", parse("input.x > 0"))]},
        "sufficient: must be a dict from label to a tuple of expressions",
    ),
    "invariants: bare expression": (
        {"invariants": parse("input.x > 0")},
        "invariants: must be a tuple of transformations",
    ),
    "invariants: not a transformation": (
        {"invariants": (NUDGE, AddOffset("x", 2.0))},
        "invariants[1]: must be a transformation, not AddOffset",
    ),
    "equivariants: unpaired": (
        {"equivariants": (NUDGE,)},
        "equivariants[0]: must be a (transformation, output transform) pair, "
        "not Transformation",
    ),
    "equivariants: not an output transform": (
        {"equivariants": ((NUDGE, 3),)},
        "equivariants[0]: must be a (transformation, output transform) pair, not tuple",
    ),
    "probabilistic: int": (
        {"probabilistic": 3},
        "probabilistic: must be a tuple of probabilistic constraints",
    ),
    "probabilistic: not a constraint": (
        {"probabilistic": ("x",)},
        "probabilistic[0]: must be a probabilistic constraint, not str",
    ),
    "invariants: op is no transformation kind": (
        {"invariants": (Transformation("n", parse("input.x")),)},
        "transformation 'n': op must be a ShiftGrid, Scale, AddOffset, SetField or FieldMap, "
        "not InputRef",
    ),
    "invariants: field_map of an int": (
        {"invariants": (Transformation("n", FieldMap(3)),)},
        "transformation 'n': field_map must be a tuple of (field, expression) pairs",
    ),
    "invariants: field_map of a non-pair": (
        {"invariants": (Transformation("n", FieldMap((("x",),))),)},
        "transformation 'n': field_map must be a tuple of (field, expression) pairs",
    ),
    "invariants: name not a string": (
        {"invariants": (Transformation(["n"], AddOffset("x", 1.0)),)},
        "transformation ['n']: name must be a string",
    ),
    "invariants: field not a string": (
        {"invariants": (Transformation("n", AddOffset(["x"], 1.0)),)},
        "transformation 'n': field must be a string, not ['x']",
    ),
    "invariants: shift_grid by a string": (
        {"invariants": (Transformation("n", ShiftGrid("x", "1")),)},
        "shift_grid in 'n' needs integer dx and dy",
    ),
    "equivariants: label_map of an int": (
        {"equivariants": ((NUDGE, LabelMap(3)),)},
        "label_map must map labels to labels",
    ),
    "probabilistic: range bound not a number": (
        {"probabilistic": (RangeConstraint("x", "a", 1.0),)},
        "probabilistic constraint on 'x': lo, hi and max_violation_fraction must be numbers",
    ),
    "probabilistic: mean not a number": (
        {"probabilistic": (MeanConstraint("x", "a", 1.0),)},
        "probabilistic constraint on 'x': expected and tolerance must be numbers",
    ),
    "probabilistic: mean too large for a float": (
        {"probabilistic": (MeanConstraint("x", 10**400, 1.0),)},
        "probabilistic constraint on 'x': expected and tolerance must be numbers",
    ),
    "probabilistic: bool bound": (
        {"probabilistic": (RangeConstraint("x", 0.0, 1.0, False),)},
        "probabilistic constraint on 'x': lo, hi and max_violation_fraction must be numbers",
    ),
    "probabilistic: field not a string": (
        {"probabilistic": (RangeConstraint(["x"], 0.0, 1.0),)},
        "probabilistic constraint on ['x']: field must be a string",
    ),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("container", sorted(MALFORMED))
def test_every_entry_point_refuses_a_malformed_container(container, entry):
    fields, finding = MALFORMED[container]
    spec = PartialSpec(SCHEMA, **fields)
    assert static_errors(spec) == [finding]
    with pytest.raises(FormatError) as refused:
        ENTRY_POINTS[entry](spec)
    assert refused.value.errors == [finding]
    assert validate_spec(spec, [FeatureRecord({"x": 1.0})]).static_errors == (finding,)


def test_a_list_container_is_checked_like_a_tuple():
    spec = PartialSpec(
        SCHEMA,
        sufficient={"a": [parse("input.x > 0"), parse("input.x")]},
        invariants=[NUDGE, NUDGE],
        probabilistic=[],
    )
    assert static_errors(spec) == [
        "sufficient['a'][1]: must be boolean, is number ('input.x')",
        "duplicate transformation name 'nudge'",
    ]


@pytest.mark.parametrize("condition", sorted(FOUND))
def test_validate_spec_reports_static_errors_and_evaluates_no_sample(condition):
    spec = PartialSpec(SCHEMA, sufficient={"a": (FOUND[condition],), "b": (parse("true"),)})
    report = validate_spec(spec, [FeatureRecord({"x": 1.0}), FeatureRecord({"x": 2.0})])
    assert report.static_errors == tuple(static_errors(spec))
    assert (report.conflicts, report.admits_no_output, report.eval_errors) == ((), (), ())
    assert report.samples_checked == 0
    assert not report.ok


def test_a_well_formed_python_spec_passes_every_gate():
    spec = PartialSpec(
        SCHEMA,
        sufficient={"a": (parse("abs(input.x) > 0"),)},
        invariants=(Transformation("nudge", AddOffset("x", 1.0)),),
    )
    trace = [TraceRecord("t", FeatureRecord({"x": 1.0}, "t"), Prediction("a", 0.9))]
    assert run_trace(spec, trace).violations == []
    assert gated_classify(GatedConfig(spec, ML), {"x": 1.0}).mode == "sufficient"
    assert verify_dataset([_record()], EVERYTHING, spec).passed
    assert len(augment([_record()], spec).records) == 2


def _outcomes(spec):
    trace = [
        TraceRecord(rid, FeatureRecord({"x": x}, rid), Prediction("a", 0.9))
        for rid, x in (("t", 1.0), ("u", 2.0))
    ]
    report = run_trace(spec, trace, MonitorPolicy(probabilistic_window=2))
    return {
        # a violation's detail repeats the bounds, which differ by design
        "run_trace": [(v.kind, v.record_id) for v in report.violations],
        "GatedConfig": gated_classify(GatedConfig(spec, ML), {"x": 1.0}),
        "verify_dataset": verify_dataset([_record()], EVERYTHING, spec).to_json_dict(),
        "augment": augment([_record()], spec),
    }


# A Python-built spec the gate lets through although it is not spelt as
# declared, and one spelt as declared that every entry point treats alike.
LOOSE = {
    "field_map of list pairs": (
        {"invariants": (Transformation("n", FieldMap([["x", parse("input.x + 1")]])),)},
        {"invariants": (Transformation("n", FieldMap((("x", parse("input.x + 1")),))),)},
    ),
    "label_map of list pairs": (
        {"equivariants": ((NUDGE, LabelMap([["a", "b"], ["b", "a"], ["c", "c"]])),)},
        {"equivariants": ((NUDGE, LabelMap((("a", "b"), ("b", "a"), ("c", "c")))),)},
    ),
    "one-sided range": (
        {"probabilistic": (RangeConstraint("x", 0.0, math.inf, 0.0),)},
        {"probabilistic": (RangeConstraint("x", 0.0, 3.0, 0.0),)},
    ),
    "range below minus infinity": (
        {"probabilistic": (RangeConstraint("x", -math.inf, 1.5, 0.0),)},
        {"probabilistic": (RangeConstraint("x", -3.0, 1.5, 0.0),)},
    ),
    "int mean bounds": (
        {"probabilistic": (MeanConstraint("x", 1, 2),)},
        {"probabilistic": (MeanConstraint("x", 1.0, 2.0),)},
    ),
}


@pytest.mark.parametrize("loose", sorted(LOOSE))
def test_list_pairs_and_infinite_bounds_pass_every_gate(loose):
    fields, declared = LOOSE[loose]
    spec = PartialSpec(SCHEMA, **fields)
    assert static_errors(spec) == []
    assert validate_spec(spec, [FeatureRecord({"x": 1.0})]).static_errors == ()
    outcomes = _outcomes(spec)
    assert outcomes == _outcomes(PartialSpec(SCHEMA, **declared))
    assert outcomes["run_trace"] == (
        [(ViolationKind.PROBABILISTIC, None)] if loose == "range below minus infinity" else []
    )


# --------------------------------------------------------------------------
# data set inputs against the schema

GRID_SCHEMA = Schema({"img": GridType(8, 8)}, ("clear", "obstacle"))
SHIFT = Transformation("nudge", AddOffset("x", 1.0))


def _grid(short_row=None):
    grid = [[0] * 8 for _ in range(8)]
    if short_row is not None:
        grid[short_row] = [0, 0, 0]
    return grid


def test_uncertainty_refuses_a_known_record_off_the_schema():
    known = [
        LabeledRecord(FeatureRecord({"img": _grid()}, "fine"), "clear"),
        LabeledRecord(FeatureRecord({"img": _grid(short_row=2)}), "clear"),
    ]
    with pytest.raises(FormatError) as refused:
        categorize_uncertainty(known, [], [], 1, GRID_SCHEMA)
    assert str(refused.value) == (
        "known record #1 does not conform to the schema: field 'img' row 2 must have 8 cells"
    )


def test_uncertainty_refuses_a_probe_off_the_schema():
    known = [LabeledRecord(FeatureRecord({"img": _grid()}, "fine"), "clear")]
    probes = [FeatureRecord({"img": _grid()}), FeatureRecord({"img": _grid(short_row=2)}, "p")]
    with pytest.raises(FormatError) as refused:
        categorize_uncertainty(known, probes, [], 1, GRID_SCHEMA)
    assert str(refused.value) == (
        "probe p does not conform to the schema: field 'img' row 2 must have 8 cells"
    )


def test_augment_refuses_a_record_off_the_schema():
    data = [_record(), LabeledRecord(FeatureRecord({"x": 1.0, "y": "?"}), "a")]
    with pytest.raises(FormatError) as refused:
        augment(data, PartialSpec(SCHEMA, invariants=(SHIFT,)))
    assert str(refused.value) == "record #1 does not conform to the schema: unknown field 'y'"


def test_a_conforming_value_of_a_subclass_is_judged_by_conformance_errors():
    class Height(float):
        pass

    known = [LabeledRecord(FeatureRecord({"x": Height(1.0)}, "k"), "a")]
    report = categorize_uncertainty(known, [FeatureRecord({"x": 2})], [SHIFT], 1, SCHEMA)
    assert report.per_probe == [
        {"probe": "#0", "category": "KNOWN_UNKNOWN", "depth": 1, "path": ["nudge"]}
    ]
    assert len(augment(known, PartialSpec(SCHEMA, invariants=(SHIFT,))).records) == 2


# --------------------------------------------------------------------------
# transformations


def test_a_field_map_result_shares_nothing_with_the_original():
    schema = Schema({"a": GridType(1, 2), "b": GridType(1, 2)}, ("l",))
    record = FeatureRecord({"a": [[1.0, 2.0]], "b": [[0.0, 0.0]]})
    t = Transformation("copy", FieldMap((("b", parse("input.a")),)))
    out = apply_transformation(t, record, schema)
    assert out.fields == {"a": [[1.0, 2.0]], "b": [[1.0, 2.0]]}
    assert out.fields["b"] is not record.fields["a"]
    assert out.fields["b"][0] is not record.fields["a"][0]
    out.fields["b"][0][0] = 9.0
    assert record.fields == {"a": [[1.0, 2.0]], "b": [[0.0, 0.0]]}


# --------------------------------------------------------------------------
# JSON Lines: lines end at "\n" only

SEPARATOR = "\u2028"  # LINE SEPARATOR, a line break to str.splitlines


def test_read_dataset_keeps_a_line_separator_inside_a_string(tmp_path):
    path = tmp_path / "data.jsonl"
    rows = [
        {"input": {"height": 1.0}, "label": "a", "id": f"x{SEPARATOR}y"},
        {"input": {"height": 2.0}, "label": "b"},
    ]
    text = "\r\n".join(json.dumps(r, ensure_ascii=False) for r in rows) + "\n\n"
    path.write_text(text, encoding="utf-8")
    records = read_dataset(path)
    assert [(r.input.id, r.label) for r in records] == [(f"x{SEPARATOR}y", "a"), (None, "b")]


def test_the_cli_records_reader_keeps_a_line_separator_inside_a_string(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            {
                "schema": {"fields": {"height": {"type": "number"}}, "labels": ["a", "b"]},
                "precondition": "input.height > 0",
                "sufficient": {"a": ["input.height > 0"], "b": ["input.height > 0"]},
                "necessary": {},
                "invariants": [],
                "equivariants": [],
                "probabilistic": [],
            }
        ),
        encoding="utf-8",
    )
    samples = tmp_path / "samples.jsonl"
    samples.write_text(
        json.dumps({"id": f"x{SEPARATOR}y", "height": 1.0}, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )
    code = main(["spec", "validate", str(spec), "--samples", str(samples)])
    out, err = capsys.readouterr()
    assert (code, err) == (1, "")
    report = json.loads(out)["samples_report"]
    assert report["samples_checked"] == 1
    assert report["conflicts"] == [{"record": f"x{SEPARATOR}y", "labels": ["a", "b"]}]


def test_a_line_that_is_not_utf8_names_its_line(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_bytes(b'{"input": {"height": 1.0}, "label": "a"}\n\xff\n')
    with pytest.raises(FormatError) as refused:
        read_dataset(path)
    assert str(refused.value).startswith(f"{path}:2: not valid JSON: 'utf-8' codec can't decode")


# --------------------------------------------------------------------------
# one error contract for every file loader

PED_SPEC = {
    "schema": {"fields": {"height": {"type": "number"}}, "labels": ["pedestrian", "other"]},
    "precondition": "input.height > 0",
    "sufficient": {},
    "necessary": {},
    "invariants": [],
    "equivariants": [],
    "probabilistic": [],
}
GOOD = {
    "spec.json": json.dumps(PED_SPEC),
    "trace.jsonl": json.dumps(
        {"id": "t", "input": {"height": 1.0}, "output": {"label": "other", "confidence": 0.5}}
    )
    + "\n",
    "records.jsonl": json.dumps({"id": "r", "height": 1.0}) + "\n",
    "data.jsonl": json.dumps({"id": "d", "input": {"height": 1.0}, "label": "other"}) + "\n",
    "reqs.json": json.dumps(
        {
            "schema": PED_SPEC["schema"],
            "partitionings": [
                {"name": "all", "partitions": [{"name": "any", "predicate": "true"}]}
            ],
        }
    ),
    "oracle.json": json.dumps(
        {"kind": "table", "entries": [], "default": {"label": "other", "confidence": 1.0}}
    ),
    "harness.json": json.dumps({"pattern": "classifier", "classifier": "oracle.json"}),
}

# loader noun (None: a JSON Lines reader, whose line errors name no noun),
# then the command with BAD where the bad file goes
LOADERS = {
    "spec file": ("spec file", ["spec", "validate", "BAD"]),
    "policy": (
        "policy",
        ["monitor", "run", "--spec", "spec.json", "--trace", "trace.jsonl", "--policy", "BAD"],
    ),
    "records": (None, ["spec", "validate", "spec.json", "--samples", "BAD"]),
    "data set": (None, ["dataset", "coverage", "--data", "BAD", "--requirements", "reqs.json"]),
    "requirements file": (
        "requirements file",
        ["dataset", "coverage", "--data", "data.jsonl", "--requirements", "BAD"],
    ),
    "partitioning file": (
        "partitioning file",
        ["dataset", "split", "--data", "data.jsonl", "--ratios", "1,0,0", "--stratify", "BAD"],
    ),
    "harness file": (
        "harness file",
        ["patterns", "simulate", "--harness", "BAD", "--domain", "records.jsonl",
         "--oracle", "oracle.json"],
    ),
    "classifier file": (
        "classifier file",
        ["patterns", "simulate", "--harness", "harness.json", "--domain", "records.jsonl",
         "--oracle", "BAD"],
    ),
    "catalog": ("catalog", ["catalog", "score", "--catalog", "BAD", "--condition", "no-spec"]),
    "questionnaire": ("questionnaire", ["gate", "assess", "--questionnaire", "BAD"]),
    "failure record": ("failure record", ["diagnose", "--failure", "BAD"]),
    "safety case graph": ("safety case graph", ["safetycase", "check", "--graph", "BAD"]),
}
CASES = {
    "missing": None,
    "directory": None,
    "not utf-8": b'{"a": "\xff"}\n',
    "broken json": b'{"a": \n',
    "5000-digit int": b"1" * 5000 + b"\n",
    "deep nesting": b"[" * 100_000 + b"\n",
    # what a reader that walks a table file's entries one at a time must refuse too
    "bom": b'\xef\xbb\xbf{"kind": "table", "entries": []}\n',
    "trailing comma in a list": b'{"kind": "table", "entries": [{"input": {}, "label": "a"},]}\n',
    "trailing comma in an object": b'{"kind": "table", "entries": [],}\n',
    "extra data": b'{"kind": "table", "entries": []} {}\n',
    "cut in an entry": b'{"kind": "table", "entries": [{"input": {"x": 1}, "label": "a"}\n',
    "5000-digit int in an entry": b'{"kind": "table", "entries": [{"input": {"x": '
    + b"1" * 5000
    + b'}, "label": "a"}]}\n',
    "deep nesting in an entry": b'{"kind": "table", "entries": [{"input": {"x": '
    + b"[" * 100_000
    + b"\n",
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("loader", sorted(LOADERS))
def test_every_file_loader_fails_with_one_json_error_line(tmp_path, capsys, loader, case):
    for name, text in GOOD.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    bad = tmp_path / "bad_input"
    if case == "directory":
        bad.mkdir()
    elif CASES[case] is not None:
        bad.write_bytes(CASES[case])
    noun, argv = LOADERS[loader]
    argv = [str(bad) if a == "BAD" else str(tmp_path / a) if a in GOOD else a for a in argv]
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "Traceback" not in err
    error = json.loads(err)
    assert error["error"] == "FormatError"
    if case in ("missing", "directory"):
        assert error["detail"].startswith(f"cannot read {noun or loader} {bad}: ")
    elif noun is None:
        assert error["detail"].startswith(f"{bad}:1: not valid JSON: ")
    else:
        assert error["detail"].startswith(f"{noun} {bad} is not valid JSON: ")
    if case.startswith("deep nesting"):
        assert "JSON value nests too deeply: maximum recursion depth" in error["detail"]


# --------------------------------------------------------------------------
# layout: each concept has one owner


def _sources(*excluding: str):
    for path in sorted(SRC.rglob("*.py")):
        if str(path.relative_to(SRC)) not in excluding:
            yield path.relative_to(SRC), path.read_text(encoding="utf-8")


def test_only_the_reader_module_reads_whole_files():
    offenders = [
        str(name)
        for name, text in _sources("errors.py")
        if re.search(r"\.read_(text|bytes)\(|\.splitlines\(", text)
    ]
    assert offenders == []


def test_only_the_reader_module_decodes_json_text():
    calls = [
        (str(name), call)
        for name, text in _sources("errors.py")
        for call in re.findall(r"json\.loads?\([^)]*\)|JSONDecoder|scan_once", text)
    ]
    assert calls == []


def test_only_record_ref_spells_a_positional_reference():
    offenders = [str(name) for name, text in _sources("speccore/records.py") if '"#{' in text]
    assert offenders == []


def test_each_record_value_error_is_spelled_once():
    # one walk (records._value_tokens) decides what a record value may be,
    # and one renderer (records._render_key) names a bad field name
    for text in (
        "value {value!r} cannot appear in a record",
        "a list that contains itself cannot appear in a record",
        "field name {name!r} is not a string",
    ):
        assert sum(source.count(text) for _, source in _sources()) == 1, text


def test_only_the_spec_module_runs_the_static_checks():
    # one gate: the entry points call require_well_formed, load_spec and
    # validate_spec report the findings, and nothing else checks a spec again
    offenders = [
        str(name) for name, text in _sources("speccore/spec.py") if "static_errors(" in text
    ]
    assert offenders == []


def test_only_the_compiler_entries_build_an_emitter():
    # one compiler entry each for the exact mode (speclang.evaluate) and the
    # typed fast paths (speccore.spec.spec_function)
    allowed = ("speclang/codegen.py", "speccore/spec.py", "speclang/evaluate.py")
    offenders = [str(name) for name, text in _sources(*allowed) if "Emitter(" in text]
    assert offenders == []
