"""Fault-tolerance architecture patterns around classifiers.

Six composable wrappers: ensembles with vote fusion, a simplex fallback on
low confidence, spec-gated classification, a safety envelope splitting
safety-critical from advisory output, low-confidence input harvesting, and an
exhaustive simulation harness measuring each pattern's effect on error rate.

Gated fast path. A GatedConfig builds one Python function for its spec
when it is made (gated_decide_function); gated_classify asks it first. On
a field dict of exact builtin types that conforms to the spec's schema, it
evaluates every condition the exact path evaluates, in the same order, and
answers with the GatedDecision the exact path would give ("sufficient" or
"elimination"), or leaves the record to the ML member with the exact
path's note. On every other record it returns None or raises: a record off
the schema, one on which two sufficient conditions hold, one on which a
condition fails to evaluate (division by zero, comparing an int literal
with a float). Such a record goes through the exact path, so every
PatternError text comes from it alone. A GatedConfig refuses a spec that
fails static_errors; one that holds a literal that is not exactly an int a
float can hold, a float, a str or a bool has no fast path, and neither has
a config made while the fast paths are off (see specguard._exact). The spec
is read once: after changing it, make a new config.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Optional, Union

from .errors import (
    ClassifierError,
    EvalError,
    FormatError,
    PatternConfigError,
    PatternError,
    read_json_file,
)
from .monitor import TraceRecord
from .speccore.classifiers import (
    Classifier,
    ExpressionClassifier,
    load_classifier,
)
from .speccore.records import FeatureRecord, Prediction, record_ref
from .speccore.spec import (
    PartialSpec,
    load_spec,
    necessary_fails,
    require_well_formed,
    spec_function,
    sufficient_holds,
)
from .speclang.codegen import Emitter, all_of, any_of
# evaluate_condition is not called here; it stays a module attribute because
# bench/tracer.py times the evaluation layer under this name in this module.
from .speclang.evaluate import evaluate_condition  # noqa: F401
from .speclang.schema import Schema, is_number


class FusionMode(Enum):
    MAJORITY = "MAJORITY"
    CONFIDENCE_WEIGHTED = "CONFIDENCE_WEIGHTED"


class DecisionSource(Enum):
    PRIMARY = "PRIMARY"
    FALLBACK = "FALLBACK"
    SPEC = "SPEC"
    ML = "ML"
    ENSEMBLE = "ENSEMBLE"
    SAFETY = "SAFETY"
    CLASSIFIER = "CLASSIFIER"


# --------------------------------------------------------------------------
# configs


@dataclass(frozen=True)
class EnsembleConfig:
    members: tuple[Classifier, ...]
    fusion: FusionMode = FusionMode.MAJORITY

    def __post_init__(self) -> None:
        if not self.members:
            raise PatternConfigError("an ensemble needs at least one member")


@dataclass(frozen=True)
class SimplexConfig:
    primary: Classifier
    fallback: Classifier
    threshold: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.threshold <= 1.0:
            raise PatternConfigError("simplex threshold must be in [0, 1]")


@dataclass(frozen=True)
class GatedConfig:
    """The spec decides when it can, the ML member otherwise. The spec is
    checked (spec.require_well_formed) and its fast-path function built
    here, once (see the module docstring)."""

    spec: PartialSpec
    ml: Classifier

    def __post_init__(self) -> None:
        require_well_formed(self.spec)
        # Outside the dataclass fields: ==, hash and repr never see it.
        object.__setattr__(self, "_decide", gated_decide_function(self.spec))

    def __getstate__(self) -> dict:
        return {"spec": self.spec, "ml": self.ml}  # generated code does not pickle

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)
        self.__post_init__()


@dataclass(frozen=True)
class EnvelopeConfig:
    """safety must be a programmed (expression) classifier: the guarantee is
    that the safety-critical output never comes from a learned component."""

    safety: ExpressionClassifier
    advisory: Classifier

    def __post_init__(self) -> None:
        if not isinstance(self.safety, ExpressionClassifier):
            raise PatternConfigError("the envelope safety classifier must be expression-driven")


Pattern = Union[EnsembleConfig, SimplexConfig, GatedConfig, EnvelopeConfig]
Subject = Union[Pattern, Classifier]


# --------------------------------------------------------------------------
# decisions


@dataclass(frozen=True)
class EnsembleDecision:
    prediction: Prediction
    tie: bool
    mass: dict[str, float]  # per-label vote mass


@dataclass(frozen=True)
class SimplexDecision:
    prediction: Prediction
    source: DecisionSource  # PRIMARY | FALLBACK


@dataclass(frozen=True)
class GatedDecision:
    prediction: Prediction
    source: DecisionSource  # SPEC | ML
    mode: Optional[str] = None  # "sufficient" | "elimination" for SPEC
    note: Optional[str] = None


@dataclass(frozen=True)
class EnvelopeDecision:
    safety_prediction: Prediction
    advisory_prediction: Optional[Prediction]
    advisory_error: Optional[str] = None


# --------------------------------------------------------------------------
# pattern operations


def ensemble_fuse(config: EnsembleConfig, fields: Mapping[str, Any]) -> EnsembleDecision:
    """Fuse member predictions into one.

    MAJORITY gives each member one vote; CONFIDENCE_WEIGHTED weights a vote
    by its confidence (missing confidence counts 1.0). The fused confidence
    is winning mass / total mass. Ties go to the lexicographically smallest
    label and are flagged.
    """
    mass: dict[str, float] = {}
    total = 0.0
    for index, member in enumerate(config.members):
        try:
            prediction = member.classify(fields)
        except (ClassifierError, EvalError) as exc:
            raise PatternError(f"ensemble member {index} failed: {exc}") from exc
        if config.fusion is FusionMode.MAJORITY:
            weight = 1.0
        else:
            weight = 1.0 if prediction.confidence is None else float(prediction.confidence)
        mass[prediction.label] = mass.get(prediction.label, 0.0) + weight
        total += weight
    best = max(mass.values())
    winners = sorted(label for label, m in mass.items() if m == best)
    label = winners[0]
    confidence = (best / total) if total > 0 else 0.0
    return EnsembleDecision(Prediction(label, confidence), len(winners) > 1, mass)


def simplex_decide(config: SimplexConfig, fields: Mapping[str, Any]) -> SimplexDecision:
    """Use the primary when its confidence clears the threshold, otherwise
    fall back to the (verified, conservative) fallback classifier."""
    try:
        primary = config.primary.classify(fields)
    except (ClassifierError, EvalError) as exc:
        raise PatternError(f"simplex primary failed: {exc}") from exc
    if primary.confidence is None:
        raise PatternConfigError(
            "simplex primary produced no confidence; the pattern cannot arbitrate"
        )
    if primary.confidence >= config.threshold:
        return SimplexDecision(primary, DecisionSource.PRIMARY)
    try:
        fallback = config.fallback.classify(fields)
    except (ClassifierError, EvalError) as exc:
        raise PatternError(f"simplex fallback failed: {exc}") from exc
    return SimplexDecision(fallback, DecisionSource.FALLBACK)


@dataclass(frozen=True)
class _LeaveToML:
    """The generated decision's answer when the spec leaves the record to
    the ML member; note is the GatedDecision's note."""

    note: Optional[str]


_ALL_ELIMINATED = "all labels eliminated by necessary conditions"


def gated_decide_function(spec: PartialSpec) -> Optional[Callable[[Any], Any]]:
    """One generated function decide(fields) for a spec that has passed
    require_well_formed (GatedConfig checks it first), or None when the
    spec has no fast path (see the module docstring).

    decide returns the GatedDecision of a spec decision, a _LeaveToML when
    the ML member must answer, and None (or raises) when the exact path
    must decide.
    """

    def write(emit: Emitter, guard: list[str]) -> list[str]:
        lines = list(guard)
        sufficient = list(spec.sufficient.items())
        for i, (_, exprs) in enumerate(sufficient):
            held = emit.condition(any_of(exprs), lines)
            lines.append(f"s{i} = {held}")
        if len(sufficient) > 1:
            # The exact path reports the inconsistent spec.
            count = " + ".join(f"s{i}" for i in range(len(sufficient)))
            lines += [f"if {count} > 1:", "    return None"]
        for i, (label, _) in enumerate(sufficient):
            won = GatedDecision(Prediction(label, 1.0), DecisionSource.SPEC, mode="sufficient")
            lines += [f"if s{i}:", f"    return {emit.constant(won)}"]
        labels = spec.schema.labels
        for i, label in enumerate(labels):
            held = emit.condition(all_of(spec.necessary.get(label, ())), lines)
            lines.append(f"n{i} = {held}")
        lines.append("kept = " + " + ".join(["0"] + [f"n{i}" for i in range(len(labels))]))
        lines.append("if kept == 1:")
        for i, label in enumerate(labels):
            left = GatedDecision(Prediction(label, 1.0), DecisionSource.SPEC, mode="elimination")
            lines += [f"    if n{i}:", f"        return {emit.constant(left)}"]
        ml, none_left = emit.constant(_LeaveToML(None)), emit.constant(_LeaveToML(_ALL_ELIMINATED))
        return lines + [f"return {ml} if kept else {none_left}"]

    return spec_function(spec.schema, "decide(fields)", write)


def gated_classify(config: GatedConfig, fields: Mapping[str, Any]) -> GatedDecision:
    """Let the spec decide when it can; consult the ML component otherwise.

    A label with a satisfied sufficient condition wins outright. Failing
    that, labels whose necessary conditions are violated are eliminated; if
    exactly one label survives, it wins (mode "elimination" marks this
    extension). Everything else passes through to the ML classifier. A spec
    condition that fails to evaluate raises PatternError naming its stage
    (sufficient or necessary), as a failing ML member does.

    The config's generated function decides first; a record it does not
    decide takes the exact path below (see the module docstring).
    """
    decide = config._decide  # type: ignore[attr-defined]
    try:
        decided = None if decide is None else decide(fields)
    except Exception:  # the exact path below says what is wrong
        decided = None
    if decided is not None:
        if decided.__class__ is _LeaveToML:
            return _consult_ml(config, fields, decided.note)
        return decided
    spec = config.spec
    try:
        satisfied = [
            label
            for label in spec.sufficient
            if next(sufficient_holds(spec, label, fields), None) is not None
        ]
    except EvalError as exc:
        raise PatternError(f"gated sufficient condition failed: {exc}") from exc
    if len(satisfied) > 1:
        raise PatternError(
            "sufficient conditions of labels "
            + ", ".join(repr(l) for l in sorted(satisfied))
            + " all hold on this input; the spec is inconsistent (see validate_spec)"
        )
    if len(satisfied) == 1:
        return GatedDecision(
            Prediction(satisfied[0], 1.0), DecisionSource.SPEC, mode="sufficient"
        )
    try:
        remaining = [
            label
            for label in spec.schema.labels
            if next(necessary_fails(spec, label, fields), None) is None
        ]
    except EvalError as exc:
        raise PatternError(f"gated necessary condition failed: {exc}") from exc
    if len(remaining) == 1:
        return GatedDecision(
            Prediction(remaining[0], 1.0), DecisionSource.SPEC, mode="elimination"
        )
    return _consult_ml(config, fields, _ALL_ELIMINATED if not remaining else None)


def _consult_ml(
    config: GatedConfig, fields: Mapping[str, Any], note: Optional[str]
) -> GatedDecision:
    try:
        prediction = config.ml.classify(fields)
    except (ClassifierError, EvalError) as exc:
        raise PatternError(f"gated ML member failed: {exc}") from exc
    return GatedDecision(prediction, DecisionSource.ML, note=note)


def envelope_route(config: EnvelopeConfig, fields: Mapping[str, Any]) -> EnvelopeDecision:
    """Run the programmed safety classifier and the ML advisory component
    side by side; never fuse them. Advisory failure is reported, not raised."""
    try:
        safety = config.safety.classify(fields)
    except (ClassifierError, EvalError) as exc:
        raise PatternError(f"envelope safety classifier failed: {exc}") from exc
    try:
        advisory: Optional[Prediction] = config.advisory.classify(fields)
        advisory_error = None
    except (ClassifierError, EvalError) as exc:
        advisory = None
        advisory_error = str(exc)
    return EnvelopeDecision(safety, advisory, advisory_error)


# --------------------------------------------------------------------------
# data harvesting


@dataclass
class HarvestStore:
    """Append-only store of inputs the classifier was unsure about."""

    threshold: float = 0.5
    entries: list[tuple[TraceRecord, str]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not 0.0 <= self.threshold <= 1.0:
            raise PatternConfigError("harvest threshold must be in [0, 1]")


def harvest(store: HarvestStore, record: TraceRecord) -> bool:
    """Store the record iff its confidence is below the threshold or absent."""
    confidence = record.output.confidence
    if confidence is None:
        store.entries.append((record, "no confidence"))
        return True
    if confidence < store.threshold:
        store.entries.append((record, f"confidence {confidence} < {store.threshold}"))
        return True
    return False


# --------------------------------------------------------------------------
# simulation harness


def decide(subject: Subject, fields: Mapping[str, Any]) -> tuple[Prediction, DecisionSource]:
    """One prediction plus its source tag, for any pattern or bare classifier.
    The envelope's subject output is its safety prediction (the safety
    channel is the one carrying guarantees)."""
    if isinstance(subject, EnsembleConfig):
        return ensemble_fuse(subject, fields).prediction, DecisionSource.ENSEMBLE
    if isinstance(subject, SimplexConfig):
        decision = simplex_decide(subject, fields)
        return decision.prediction, decision.source
    if isinstance(subject, GatedConfig):
        gated = gated_classify(subject, fields)
        return gated.prediction, gated.source
    if isinstance(subject, EnvelopeConfig):
        return envelope_route(subject, fields).safety_prediction, DecisionSource.SAFETY
    try:
        return subject.classify(fields), DecisionSource.CLASSIFIER
    except (ClassifierError, EvalError) as exc:
        raise PatternError(f"classifier failed: {exc}") from exc


@dataclass
class ErrorReport:
    """simulate() output: how often the subject disagrees with the oracle."""

    total: int
    mismatches: list[dict]
    per_source: dict[str, dict[str, int]]
    errors: list[dict]

    @property
    def error_rate(self) -> float:
        if self.total == 0:
            return 0.0
        return len(self.mismatches) / self.total

    def to_json_dict(self) -> dict:
        return {
            "total": self.total,
            "error_rate": self.error_rate,
            "mismatch_count": len(self.mismatches),
            "mismatches": self.mismatches,
            "per_source": self.per_source,
            "errors": self.errors,
        }


def simulate(
    domain: Iterable[FeatureRecord], oracle: Classifier, subject: Subject
) -> ErrorReport:
    """Compare the subject against the oracle on every record of the domain.

    The domain may be any iterable, a generator included. It is read once,
    in order, and no record is kept once it is classified, so a streamed
    domain costs the memory of one record; total counts the records read.

    The oracle is ground truth: its failure on any record aborts the run. A
    subject failure counts as a mismatch (a wrong answer is a wrong answer)
    and is additionally listed under errors.
    """
    mismatches: list[dict] = []
    errors: list[dict] = []
    per_source: dict[str, dict[str, int]] = {}
    total = 0
    for index, record in enumerate(domain):
        total += 1
        ref = record_ref(record.id, index)
        try:
            expected = oracle.classify(record.fields)
        except (ClassifierError, EvalError) as exc:
            raise PatternError(f"oracle failed on record {ref}: {exc}") from exc
        try:
            prediction, source = decide(subject, record.fields)
        except (PatternError, PatternConfigError) as exc:
            errors.append({"record": ref, "error": str(exc)})
            mismatches.append(
                {"record": ref, "source": "ERROR", "expected": expected.label}
            )
            bucket = per_source.setdefault("ERROR", {"records": 0, "mismatches": 0})
            bucket["records"] += 1
            bucket["mismatches"] += 1
            continue
        bucket = per_source.setdefault(source.value, {"records": 0, "mismatches": 0})
        bucket["records"] += 1
        if prediction.label != expected.label:
            bucket["mismatches"] += 1
            mismatches.append(
                {
                    "record": ref,
                    "source": source.value,
                    "predicted": prediction.label,
                    "expected": expected.label,
                }
            )
    return ErrorReport(total, mismatches, per_source, errors)


# --------------------------------------------------------------------------
# harness files


def load_harness(path: Union[str, Path]) -> Subject:
    """Read a pattern harness: JSON naming the pattern and its parts, with
    classifier and spec files referenced relative to the harness file.

    {"pattern": "ensemble", "members": [...], "fusion": "majority"}
    {"pattern": "simplex", "primary": p, "fallback": f, "threshold": 0.5}
    {"pattern": "gated", "spec": s, "ml": m}
    {"pattern": "envelope", "safety": s, "advisory": a}
    {"pattern": "classifier", "classifier": c}
    """
    path = Path(path)
    data = read_json_file(path, "harness file")
    if not isinstance(data, dict):
        raise FormatError("harness must be a JSON object")
    base = path.parent

    def sub_classifier(key: str, schema: Optional[Schema] = None) -> Classifier:
        ref = data.get(key)
        if not isinstance(ref, str):
            raise FormatError(f"harness key {key!r} must be a classifier file path")
        return load_classifier(base / ref, schema)

    kind = data.get("pattern")
    if kind == "ensemble":
        refs = data.get("members")
        if not isinstance(refs, list) or not refs or not all(isinstance(r, str) for r in refs):
            raise FormatError("ensemble harness needs a non-empty 'members' list of paths")
        fusion_name = data.get("fusion", "majority")
        try:
            fusion = FusionMode[str(fusion_name).upper()]
        except KeyError:
            raise FormatError(f"unknown fusion mode {fusion_name!r}") from None
        return EnsembleConfig(tuple(load_classifier(base / r) for r in refs), fusion)
    if kind == "simplex":
        threshold = data.get("threshold", 0.5)
        if not is_number(threshold):
            raise FormatError("simplex threshold must be a number")
        return SimplexConfig(
            sub_classifier("primary"), sub_classifier("fallback"), float(threshold)
        )
    if kind == "gated":
        ref = data.get("spec")
        if not isinstance(ref, str):
            raise FormatError("gated harness needs a 'spec' file path")
        spec = load_spec(base / ref)
        return GatedConfig(spec, sub_classifier("ml", spec.schema))
    if kind == "envelope":
        safety = sub_classifier("safety")
        if not isinstance(safety, ExpressionClassifier):
            raise FormatError("envelope 'safety' must be an expression classifier")
        return EnvelopeConfig(safety, sub_classifier("advisory"))
    if kind == "classifier":
        return sub_classifier("classifier")
    raise FormatError(f"harness has unknown pattern {kind!r}")
