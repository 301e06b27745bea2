"""Partial behavioural specifications and their executable checks.

A PartialSpec constrains a classifier without fully determining it: a
precondition over inputs, an optional postcondition over input/output pairs,
per-label sufficient and necessary conditions, metamorphic invariants and
equivariants, and probabilistic constraints over batches of inputs.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Optional, Sequence, Union

from ..errors import EvalError, FormatError, SpecSyntaxError, TypeCheckError, read_json_file
from ..speclang.ast import Bool, Expression, to_source
from ..speclang.codegen import Emitter, Unsupported
from ..speclang.evaluate import evaluate_condition
from ..speclang.parser import parse
from ..speclang.schema import (
    IntegerType,
    NumberType,
    Schema,
    is_number,
    schema_from_json_dict,
    schema_to_json_dict,
)
# type_errors is not called here; it stays a module attribute because
# bench/tracer.py times the typecheck layer under both names in this module.
from ..speclang.typecheck import BOOLEAN, type_errors, typecheck  # noqa: F401
from .classifiers import Classifier, classify
from .records import FeatureRecord, Prediction, conformance_guard, record_ref
from .transforms import (
    IdentityOutput,
    LabelMap,
    OutputTransform,
    Transformation,
    apply_output_transform,
    apply_transformation,
    output_transform_from_json_dict,
    output_transform_to_json_dict,
    transformation_from_json_dict,
    transformation_to_json_dict,
    validate_output_transform,
    validate_transformation,
)


@dataclass(frozen=True)
class RangeConstraint:
    """At most max_violation_fraction of a batch may fall outside [lo, hi]."""

    field: str
    lo: float
    hi: float
    max_violation_fraction: float = 0.0


@dataclass(frozen=True)
class MeanConstraint:
    """The batch mean of a field must stay within tolerance of expected."""

    field: str
    expected: float
    tolerance: float


ProbConstraint = Union[RangeConstraint, MeanConstraint]


@dataclass(frozen=True)
class PartialSpec:
    """The behavioural contract of a classifier, as far as it can be stated."""

    schema: Schema
    precondition: Expression = Bool(True)
    postcondition: Optional[Expression] = None
    sufficient: dict[str, tuple[Expression, ...]] = field(default_factory=dict)
    necessary: dict[str, tuple[Expression, ...]] = field(default_factory=dict)
    invariants: tuple[Transformation, ...] = ()
    equivariants: tuple[tuple[Transformation, OutputTransform], ...] = ()
    probabilistic: tuple[ProbConstraint, ...] = ()

    def transformations(self) -> list[Transformation]:
        """All declared transformations: invariants, then equivariant inputs."""
        return list(self.invariants) + [t for t, _ in self.equivariants]


def _members(
    items: Any, where: str, noun: str, fits: Callable[[Any], bool], errors: list[str]
) -> list:
    """The items of a tuple or list that fit, with a finding in errors for
    each one that does not; none, and one finding, for any other container."""
    if not isinstance(items, (tuple, list)):
        errors.append(f"{where}: must be a tuple of {noun}s")
        return []
    kept = []
    for i, item in enumerate(items):
        if fits(item):
            kept.append(item)
        else:
            errors.append(f"{where}[{i}]: must be a {noun}, not {type(item).__name__}")
    return kept


def _is_transformation(item: Any) -> bool:
    return isinstance(item, Transformation)


def _is_equivariant(item: Any) -> bool:
    return (
        isinstance(item, tuple)
        and len(item) == 2
        and isinstance(item[0], Transformation)
        and isinstance(item[1], (IdentityOutput, LabelMap))
    )


def _is_constraint(item: Any) -> bool:
    return isinstance(item, (RangeConstraint, MeanConstraint))


def static_errors(spec: PartialSpec) -> list[str]:
    """Everything statically wrong with a spec; empty when well-formed.

    A spec built in Python whose containers are not the declared ones (a
    label mapped to a bare expression, invariants that are not a tuple of
    transformations, ...) gets a finding for each, not an exception."""
    errors: list[str] = []

    def check_boolean(expr: Expression, where: str, output_allowed: bool) -> None:
        try:
            tag = typecheck(expr, spec.schema, output_allowed)
        except TypeCheckError as exc:
            errors.extend(f"{where}: {p}" for p in exc.errors)
            return
        if tag != BOOLEAN:
            errors.append(f"{where}: must be boolean, is {tag} ({to_source(expr)!r})")

    check_boolean(spec.precondition, "precondition", output_allowed=False)
    if spec.postcondition is not None:
        check_boolean(spec.postcondition, "postcondition", output_allowed=True)
    for role, conditions in (("sufficient", spec.sufficient), ("necessary", spec.necessary)):
        if not isinstance(conditions, Mapping):
            errors.append(f"{role}: must be a dict from label to a tuple of expressions")
            continue
        for label, exprs in conditions.items():
            if label not in spec.schema.labels:
                errors.append(f"{role} label {label!r} is not in the alphabet")
            if not isinstance(exprs, (tuple, list)):
                errors.append(f"{role}[{label!r}]: must be a tuple of expressions")
                continue
            for j, expr in enumerate(exprs):
                check_boolean(expr, f"{role}[{label!r}][{j}]", output_allowed=False)
    invariants = _members(
        spec.invariants, "invariants", "transformation", _is_transformation, errors
    )
    equivariants = _members(
        spec.equivariants,
        "equivariants",
        "(transformation, output transform) pair",
        _is_equivariant,
        errors,
    )
    names: set[str] = set()
    for t in invariants + [t for t, _ in equivariants]:
        if isinstance(t.name, str):
            if t.name in names:
                errors.append(f"duplicate transformation name {t.name!r}")
            names.add(t.name)
        errors.extend(validate_transformation(t, spec.schema))
    for _, g in equivariants:
        errors.extend(validate_output_transform(g, spec.schema))
    probabilistic = _members(
        spec.probabilistic, "probabilistic", "probabilistic constraint", _is_constraint, errors
    )
    for constraint in probabilistic:
        where = f"probabilistic constraint on {constraint.field!r}"
        if not isinstance(constraint.field, str):
            errors.append(f"{where}: field must be a string")
            continue
        if isinstance(constraint, RangeConstraint):
            numbers = (constraint.lo, constraint.hi, constraint.max_violation_fraction)
            named = "lo, hi and max_violation_fraction"
        else:
            numbers, named = (constraint.expected, constraint.tolerance), "expected and tolerance"
        if not all(map(_is_real, numbers)):
            errors.append(f"{where}: {named} must be numbers")
            continue
        ftype = spec.schema.fields.get(constraint.field)
        if ftype is None:
            errors.append(f"{where}: unknown field")
        elif not isinstance(ftype, (NumberType, IntegerType)):
            errors.append(f"{where}: field is not numeric")
        if isinstance(constraint, RangeConstraint):
            if constraint.lo > constraint.hi:
                errors.append(f"{where}: lo > hi")
            if not 0.0 <= constraint.max_violation_fraction <= 1.0:
                errors.append(f"{where}: max_violation_fraction outside [0, 1]")
        else:
            if constraint.tolerance < 0:
                errors.append(f"{where}: tolerance < 0")
    return errors


def _is_real(value: Any) -> bool:
    """True for any float and for an int a float can hold, bool excluded.
    An infinite bound, as in a one-sided range built in Python, counts;
    load_spec's is_number refuses one in a spec file."""
    return isinstance(value, float) or is_number(value)


def require_well_formed(spec: PartialSpec) -> None:
    """FormatError("spec is not well-formed", findings) when static_errors
    finds anything: every entry point that evaluates a spec it is handed
    checks a spec built in Python as load_spec checks a file."""
    findings = static_errors(spec)
    if findings:
        raise FormatError("spec is not well-formed", findings)


def spec_function(
    spec: PartialSpec, name: str, params: str, write: Callable[[Emitter], list[str]]
) -> Optional[Callable[..., Any]]:
    """Compile ``def name(params)``, a fast path over the spec's records, or
    return None when the spec has none: it fails static_errors (or is too
    malformed to check), or holds what the Emitter does not translate (a
    literal that is not exactly an int a float can hold, a float, a str or
    a bool; nesting deeper than Python compiles).

    The body opens with records.conformance_guard, so the function returns
    None or raises unless its parameter fields is a dict that conforms to
    the schema with exact builtin types. write(emit) gives the lines after
    that guard; emit knows the local that holds each field's value.
    """
    try:
        if static_errors(spec):
            return None
    except Exception:  # a spec too malformed to check keeps the exact path
        return None
    names = {field_name: f"x{i}" for i, field_name in enumerate(spec.schema.fields)}
    emit = Emitter(spec.schema, names)
    try:
        body = conformance_guard(spec.schema, names, emit.constant)
        return emit.function(name, params, body + write(emit))
    except (Unsupported, TypeError, RecursionError, SyntaxError):
        # TypeError: a field type value_guard does not know
        return None


# --------------------------------------------------------------------------
# per-sample checks


def check_pre(spec: PartialSpec, fields: Mapping[str, Any]) -> bool:
    """Does the input satisfy the precondition? EvalError propagates."""
    return evaluate_condition(spec.precondition, fields)


def check_post(spec: PartialSpec, fields: Mapping[str, Any], prediction: Prediction) -> bool:
    """Does the (input, prediction) pair satisfy the postcondition?
    Vacuously true when no postcondition is declared. Only meaningful when
    check_pre holds; callers enforce that ordering."""
    if spec.postcondition is None:
        return True
    return evaluate_condition(spec.postcondition, fields, prediction)


def sufficient_holds(spec: PartialSpec, label: str, fields: Mapping[str, Any]) -> Iterator[int]:
    """Indices of the label's sufficient conditions that hold on the fields,
    in declaration order. Lazy: a condition is evaluated only when the next
    index is asked for, so ``next(gen, None) is not None`` stops at the
    first that holds. EvalError propagates."""
    for j, expr in enumerate(spec.sufficient.get(label, ())):
        if evaluate_condition(expr, fields):
            yield j


def necessary_fails(spec: PartialSpec, label: str, fields: Mapping[str, Any]) -> Iterator[int]:
    """Indices of the label's necessary conditions that fail on the fields,
    in declaration order; lazy like sufficient_holds."""
    for j, expr in enumerate(spec.necessary.get(label, ())):
        if not evaluate_condition(expr, fields):
            yield j


def check_sufficient(
    spec: PartialSpec, fields: Mapping[str, Any], prediction: Prediction
) -> list[tuple[str, int]]:
    """(label, index) for every satisfied sufficient condition of a label the
    classifier did not predict: the input is definitely in that class."""
    return [
        (label, j)
        for label in spec.sufficient
        if label != prediction.label
        for j in sufficient_holds(spec, label, fields)
    ]


def check_necessary(
    spec: PartialSpec, fields: Mapping[str, Any], prediction: Prediction
) -> list[tuple[str, int]]:
    """(label, index) for every violated necessary condition of the predicted
    label: the input is definitely not in the class the classifier chose."""
    label = prediction.label
    return [(label, j) for j in necessary_fails(spec, label, fields)]


# --------------------------------------------------------------------------
# metamorphic checks


@dataclass(frozen=True)
class MetamorphicResult:
    """lhs = classify(t(input)); rhs = expected prediction. Labels only."""

    holds: bool
    lhs: Prediction
    rhs: Prediction


def check_invariant(
    classifier: Classifier,
    t: Transformation,
    record: FeatureRecord,
    schema: Schema,
) -> MetamorphicResult:
    """Does classify(t(input)).label equal classify(input).label?
    Confidences are ignored: the relation is over labels. Classifier and
    transformation failures propagate (ClassifierError / TransformError)."""
    transformed = apply_transformation(t, record, schema)
    lhs = classify(classifier, transformed)
    rhs = classify(classifier, record)
    return MetamorphicResult(lhs.label == rhs.label, lhs, rhs)


def check_equivariant(
    classifier: Classifier,
    pair: tuple[Transformation, OutputTransform],
    record: FeatureRecord,
    schema: Schema,
) -> MetamorphicResult:
    """Does classify(t(input)).label equal g(classify(input)).label?"""
    t, g = pair
    transformed = apply_transformation(t, record, schema)
    lhs = classify(classifier, transformed)
    rhs = apply_output_transform(g, classify(classifier, record))
    return MetamorphicResult(lhs.label == rhs.label, lhs, rhs)


# --------------------------------------------------------------------------
# spec well-formedness against samples


@dataclass(frozen=True)
class WellFormednessReport:
    """validate_spec output: static problems plus sample-based findings."""

    static_errors: tuple[str, ...]
    conflicts: tuple[dict, ...]  # two labels' sufficient conditions both hold
    admits_no_output: tuple[dict, ...]  # sufficient holds but necessary fails
    eval_errors: tuple[dict, ...]
    samples_checked: int

    @property
    def ok(self) -> bool:
        return not (
            self.static_errors or self.conflicts or self.admits_no_output or self.eval_errors
        )

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "static_errors": list(self.static_errors),
            "conflicts": [dict(c) for c in self.conflicts],
            "admits_no_output": [dict(c) for c in self.admits_no_output],
            "eval_errors": [dict(e) for e in self.eval_errors],
            "samples_checked": self.samples_checked,
        }


def validate_spec(spec: PartialSpec, samples: Sequence[FeatureRecord] = ()) -> WellFormednessReport:
    """Check the spec statically and against sample inputs.

    Per sample satisfying the precondition: report label pairs whose
    sufficient conditions both hold (the spec forces two outputs at once) and
    labels whose sufficient condition holds while one of their own necessary
    conditions fails (the spec admits no output at all). A spec with static
    errors is not evaluated: no sample is checked.
    """
    statics = tuple(static_errors(spec))
    if statics:
        return WellFormednessReport(statics, (), (), (), 0)
    conflicts: list[dict] = []
    admits_no_output: list[dict] = []
    eval_errors: list[dict] = []
    checked = 0
    for index, sample in enumerate(samples):
        checked += 1
        ref = record_ref(sample.id, index)
        fields = sample.fields
        try:
            if not check_pre(spec, fields):
                continue
            satisfied = [
                label
                for label in spec.sufficient
                if next(sufficient_holds(spec, label, fields), None) is not None
            ]
            for i in range(len(satisfied)):
                for j in range(i + 1, len(satisfied)):
                    conflicts.append(
                        {"record": ref, "labels": sorted([satisfied[i], satisfied[j]])}
                    )
            for label in satisfied:
                for j in necessary_fails(spec, label, fields):
                    admits_no_output.append(
                        {"record": ref, "label": label, "necessary_index": j}
                    )
        except EvalError as exc:
            eval_errors.append({"record": ref, "error": str(exc)})
    return WellFormednessReport(
        (), tuple(conflicts), tuple(admits_no_output), tuple(eval_errors), checked
    )


# --------------------------------------------------------------------------
# JSON form

_REQUIRED_KEYS = (
    "schema",
    "precondition",
    "sufficient",
    "necessary",
    "invariants",
    "equivariants",
    "probabilistic",
)


def _parse_expr(source: Any, where: str, errors: list[str]) -> Optional[Expression]:
    if not isinstance(source, str):
        raise FormatError(f"{where} must be an expression string, got {source!r}")
    try:
        return parse(source)
    except SpecSyntaxError as exc:
        errors.append(f"{where}: {exc}")
        return None


def spec_from_json_dict(data: Any) -> tuple[Optional[PartialSpec], list[str]]:
    """Build a spec from its JSON form.

    Structural problems (wrong shapes, missing keys) raise FormatError.
    Expression-level problems (syntax errors, type errors, bad labels) are
    findings: they come back as the error list, with the spec None when the
    expressions could not even be parsed.
    """
    if not isinstance(data, dict):
        raise FormatError("spec must be a JSON object")
    missing = [k for k in _REQUIRED_KEYS if k not in data]
    if missing:
        raise FormatError("spec is missing keys: " + ", ".join(sorted(missing)))
    schema = schema_from_json_dict(data["schema"])
    findings: list[str] = []
    precondition = _parse_expr(data["precondition"], "precondition", findings)
    postcondition: Optional[Expression] = None
    if data.get("postcondition") is not None:
        postcondition = _parse_expr(data["postcondition"], "postcondition", findings)

    def condition_map(key: str) -> dict[str, tuple[Expression, ...]]:
        raw = data[key]
        if not isinstance(raw, dict):
            raise FormatError(f"spec key {key!r} must be an object of label -> list")
        out: dict[str, tuple[Expression, ...]] = {}
        for label, sources in raw.items():
            if not isinstance(sources, list):
                raise FormatError(f"{key}[{label!r}] must be a list of expression strings")
            exprs = []
            for j, source in enumerate(sources):
                expr = _parse_expr(source, f"{key}[{label!r}][{j}]", findings)
                if expr is not None:
                    exprs.append(expr)
            out[label] = tuple(exprs)
        return out

    sufficient = condition_map("sufficient")
    necessary = condition_map("necessary")
    if not isinstance(data["invariants"], list):
        raise FormatError("spec key 'invariants' must be a list")
    invariants = tuple(transformation_from_json_dict(t) for t in data["invariants"])
    if not isinstance(data["equivariants"], list):
        raise FormatError("spec key 'equivariants' must be a list")
    equivariants = []
    for i, item in enumerate(data["equivariants"]):
        if not isinstance(item, dict) or "transform" not in item or "output" not in item:
            raise FormatError(f"equivariant {i} needs 'transform' and 'output' objects")
        equivariants.append(
            (
                transformation_from_json_dict(item["transform"]),
                output_transform_from_json_dict(item["output"]),
            )
        )
    if not isinstance(data["probabilistic"], list):
        raise FormatError("spec key 'probabilistic' must be a list")
    probabilistic = tuple(
        _prob_constraint_from_json(i, item) for i, item in enumerate(data["probabilistic"])
    )
    if precondition is None or (data.get("postcondition") is not None and postcondition is None):
        return None, findings
    spec = PartialSpec(
        schema=schema,
        precondition=precondition,
        postcondition=postcondition,
        sufficient=sufficient,
        necessary=necessary,
        invariants=invariants,
        equivariants=tuple(equivariants),
        probabilistic=probabilistic,
    )
    findings.extend(static_errors(spec))
    if findings:
        return None, findings
    return spec, []


def _prob_constraint_from_json(index: int, item: Any) -> ProbConstraint:
    if not isinstance(item, dict) or not isinstance(item.get("field"), str):
        raise FormatError(f"probabilistic constraint {index} needs a string 'field'")
    kind = item.get("kind")
    if kind == "range":
        for key in ("lo", "hi"):
            if not is_number(item.get(key)):
                raise FormatError(f"probabilistic constraint {index} needs number {key!r}")
        fraction = item.get("max_violation_fraction", 0.0)
        if not is_number(fraction):
            raise FormatError(
                f"probabilistic constraint {index} max_violation_fraction must be a number"
            )
        return RangeConstraint(
            item["field"], float(item["lo"]), float(item["hi"]), float(fraction)
        )
    if kind == "mean":
        for key in ("expected", "tolerance"):
            if not is_number(item.get(key)):
                raise FormatError(f"probabilistic constraint {index} needs number {key!r}")
        return MeanConstraint(item["field"], float(item["expected"]), float(item["tolerance"]))
    raise FormatError(f"probabilistic constraint {index} has unknown kind {kind!r}")


def spec_to_json_dict(spec: PartialSpec) -> dict:
    data: dict[str, Any] = {
        "schema": schema_to_json_dict(spec.schema),
        "precondition": to_source(spec.precondition),
        "sufficient": {
            label: [to_source(e) for e in exprs] for label, exprs in spec.sufficient.items()
        },
        "necessary": {
            label: [to_source(e) for e in exprs] for label, exprs in spec.necessary.items()
        },
        "invariants": [transformation_to_json_dict(t) for t in spec.invariants],
        "equivariants": [
            {
                "transform": transformation_to_json_dict(t),
                "output": output_transform_to_json_dict(g),
            }
            for t, g in spec.equivariants
        ],
        "probabilistic": [_prob_constraint_to_json(c) for c in spec.probabilistic],
    }
    if spec.postcondition is not None:
        data["postcondition"] = to_source(spec.postcondition)
    return data


def _prob_constraint_to_json(constraint: ProbConstraint) -> dict:
    if isinstance(constraint, RangeConstraint):
        return {
            "field": constraint.field,
            "kind": "range",
            "lo": constraint.lo,
            "hi": constraint.hi,
            "max_violation_fraction": constraint.max_violation_fraction,
        }
    return {
        "field": constraint.field,
        "kind": "mean",
        "expected": constraint.expected,
        "tolerance": constraint.tolerance,
    }


def load_spec_lenient(path: Union[str, Path]) -> tuple[Optional[PartialSpec], list[str]]:
    """Read a spec file, returning (spec, findings). Structural problems
    (unreadable file, bad JSON, wrong shapes) raise FormatError; expression
    and typing problems are returned as findings instead."""
    return spec_from_json_dict(read_json_file(Path(path), "spec file"))


def load_spec(path: Union[str, Path]) -> PartialSpec:
    """Read a spec file, raising FormatError on any structural or static error."""
    spec, findings = load_spec_lenient(path)
    if findings or spec is None:
        raise FormatError(f"spec file {path} is not well-formed", findings)
    return spec
