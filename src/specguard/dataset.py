"""Data-set requirements and their verification.

Partition the input domain, condition per-cell sample requirements on risk,
check coverage and spec consistency of labeled data sets, augment them
through declared invariants/equivariants, categorize probe inputs by how far
they sit from known data, and produce deterministic stratified splits.
"""
from __future__ import annotations

import itertools
import math
import random
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Optional, Sequence, Union

from .errors import (
    EvalError,
    FormatError,
    TransformError,
    TypeCheckError,
    read_json_file,
    read_json_lines,
)
from .speccore.classifiers import table_key_function
from .speccore.records import (
    FeatureRecord,
    Prediction,
    canonical_key,
    conformance_errors,
    record_ref,
)
from .speccore.spec import (
    PartialSpec,
    check_pre,
    necessary_fails,
    require_well_formed,
    spec_function,
    sufficient_holds,
)
from .speccore.transforms import (
    Transformation,
    apply_output_transform,
    apply_transformation,
)
from .speclang.ast import Binary, Expression, InputRef, Num, to_source
from .speclang.evaluate import evaluate_condition
from .speclang.parser import parse
from .speclang.schema import Schema, is_number, schema_from_json_dict
# type_errors is not called here; it stays a module attribute because
# bench/tracer.py times the typecheck layer under both names in this module.
from .speclang.typecheck import BOOLEAN, type_errors, typecheck  # noqa: F401

COLLECTED = "COLLECTED"
AUGMENTED = "AUGMENTED"


@dataclass(frozen=True)
class Provenance:
    kind: str = COLLECTED  # COLLECTED | AUGMENTED
    transform: Optional[str] = None  # AUGMENTED: generating transformation name
    source: Optional[str] = None  # AUGMENTED: source record reference

    def __post_init__(self) -> None:
        if self.kind not in (COLLECTED, AUGMENTED):
            raise FormatError(f"unknown provenance kind {self.kind!r}")
        for name, value in (("transform", self.transform), ("source", self.source)):
            if value is not None and not isinstance(value, str):
                raise FormatError(f"provenance {name!r} must be a string, got {value!r}")
        if self.kind == AUGMENTED and (self.transform is None or self.source is None):
            raise FormatError("AUGMENTED provenance needs 'transform' and 'source'")


@dataclass(frozen=True)
class LabeledRecord:
    input: FeatureRecord
    label: str
    provenance: Provenance = Provenance()


@dataclass(frozen=True)
class Partition:
    name: str
    predicate: Expression
    risk_weight: int = 1

    def __post_init__(self) -> None:
        if not 1 <= self.risk_weight <= 4:
            raise FormatError(f"partition {self.name!r} risk_weight must be in 1..4")


@dataclass(frozen=True)
class Partitioning:
    name: str
    partitions: tuple[Partition, ...]

    def __post_init__(self) -> None:
        if not self.partitions:
            raise FormatError(f"partitioning {self.name!r} has no partitions")
        names = [p.name for p in self.partitions]
        if len(set(names)) != len(names):
            raise FormatError(f"partitioning {self.name!r} has duplicate partition names")


@dataclass(frozen=True)
class DataSetRequirements:
    """Coverage requirements: every cell of the Cartesian product of
    partitionings needs base_min_samples x risk_multiplier^(risk-1) samples,
    where a cell's risk is the highest risk weight among its partitions."""

    schema: Schema
    partitionings: tuple[Partitioning, ...]
    base_min_samples: int = 1
    risk_multiplier: float = 1.0
    infeasible_cells: frozenset[tuple[str, ...]] = frozenset()

    def __post_init__(self) -> None:
        if self.base_min_samples < 1:
            raise FormatError("base_min_samples must be >= 1")
        if not 1.0 <= self.risk_multiplier < math.inf:  # NaN fails too
            raise FormatError("risk_multiplier must be a finite number >= 1")
        risk = max((p.risk_weight for pt in self.partitionings for p in pt.partitions), default=1)
        try:
            finite = math.isfinite(self.required_for(risk))
        except OverflowError:  # an int too large for a float
            finite = False
        if not finite:
            raise FormatError(
                f"base_min_samples x risk_multiplier^{risk - 1} (risk weight {risk}) "
                "is too large for a float"
            )

    def required_for(self, risk: int) -> float:
        return self.base_min_samples * self.risk_multiplier ** (risk - 1)


@dataclass(frozen=True)
class SplitSpec:
    ratios: tuple[float, float, float]  # train, validation, test
    seed: int = 0
    stratify_by: Optional[Partitioning] = None

    def __post_init__(self) -> None:
        if len(self.ratios) != 3 or any(not 0.0 <= r <= 1.0 for r in self.ratios):
            raise FormatError("split needs three ratios, each in [0, 1]")
        if abs(sum(self.ratios) - 1.0) > 1e-9:
            raise FormatError(f"split ratios sum to {sum(self.ratios)}, not 1")


def _require_conforming(records: Sequence[FeatureRecord], schema: Schema, what: str) -> None:
    """FormatError with the conformance_errors of the first record off the
    schema. A generated guard passes records of exact builtin types first."""
    guard = spec_function(schema, "conforms(fields)", lambda emit, guard: guard + ["return True"])
    for index, record in enumerate(records):
        try:
            if guard is not None and guard(record.fields):
                continue
        except Exception:  # conformance_errors below says what is wrong
            pass
        errors = conformance_errors(record.fields, schema)
        if errors:
            raise FormatError(
                f"{what} {record_ref(record.id, index)} does not conform to the schema", errors
            )


# --------------------------------------------------------------------------
# coverage


@dataclass
class CoverageReport:
    cells: list[dict]
    cover_failures: list[dict]
    overlaps: list[dict]
    eval_errors: list[dict]
    records_counted: int
    cell_coverage: float
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "cell_coverage": self.cell_coverage,
            "records_counted": self.records_counted,
            "cells": self.cells,
            "cover_failures": self.cover_failures,
            "overlaps": self.overlaps,
            "eval_errors": self.eval_errors,
        }


def coverage_report(
    data: Iterable[LabeledRecord], reqs: DataSetRequirements
) -> CoverageReport:
    """Count samples per coverage cell and judge each cell's requirement,
    in one pass over data, which may be an iterator.

    A record in no partition of some partitioning is a cover failure and
    counts toward no cell; a record in several partitions of one partitioning
    is flagged as an overlap and counts toward every cell it touches. A
    record that fails to evaluate is excluded from all counts. Empty cells
    fail unless listed as infeasible, in which case they are UNWITNESSED and
    leave both the numerator and denominator of cell coverage.
    """
    counts: dict[tuple[str, ...], int] = {}
    cover_failures: list[dict] = []
    overlaps: list[dict] = []
    eval_errors: list[dict] = []
    counted = 0
    for index, record in enumerate(data):
        ref = record_ref(record.input.id, index)
        memberships: list[list[str]] = []
        try:
            failed = False
            for partitioning in reqs.partitionings:
                hits = [
                    p.name
                    for p in partitioning.partitions
                    if evaluate_condition(p.predicate, record.input.fields)
                ]
                if not hits:
                    cover_failures.append({"record": ref, "partitioning": partitioning.name})
                    failed = True
                if len(hits) > 1:
                    overlaps.append(
                        {"record": ref, "partitioning": partitioning.name, "partitions": hits}
                    )
                memberships.append(hits)
        except EvalError as exc:
            eval_errors.append({"record": ref, "error": str(exc)})
            continue
        counted += 1
        if failed:
            continue
        for cell in itertools.product(*memberships):
            counts[cell] = counts.get(cell, 0) + 1
    cells = []
    satisfied = 0
    unwitnessed = 0
    all_cells = list(
        itertools.product(*[[p for p in pg.partitions] for pg in reqs.partitionings])
    )
    for cell_partitions in all_cells:
        cell_names = tuple(p.name for p in cell_partitions)
        risk = max(p.risk_weight for p in cell_partitions)
        required = reqs.required_for(risk)
        count = counts.get(cell_names, 0)
        if count == 0 and cell_names in reqs.infeasible_cells:
            status = "unwitnessed"
            unwitnessed += 1
        elif count >= required:
            status = "satisfied"
            satisfied += 1
        else:
            status = "insufficient"
        entry = {
            "cell": list(cell_names),
            "count": count,
            "required": required,
            "risk": risk,
            "status": status,
        }
        if count > 0 and cell_names in reqs.infeasible_cells:
            entry["note"] = "marked infeasible but witnessed"
        cells.append(entry)
    denominator = len(all_cells) - unwitnessed
    cell_coverage = (satisfied / denominator) if denominator else 1.0
    passed = not cover_failures and satisfied == denominator
    return CoverageReport(
        cells, cover_failures, overlaps, eval_errors, counted, cell_coverage, passed
    )


# --------------------------------------------------------------------------
# boundary cases

_MIRROR = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _single_comparison(expr: Expression) -> Optional[tuple[str, str, float]]:
    """(field, op, constant) when expr is `input.f OP k` or `k OP input.f`."""
    if not isinstance(expr, Binary) or expr.op not in ("<", "<=", ">", ">=", "==", "!="):
        return None
    left, right = expr.left, expr.right
    if isinstance(left, InputRef) and left.row is None and isinstance(right, Num):
        return left.field, expr.op, right.value
    if isinstance(left, Num) and isinstance(right, InputRef) and right.row is None:
        return right.field, _MIRROR.get(expr.op, expr.op), left.value
    return None


def boundary_cases(
    partitioning: Partitioning,
    data: Sequence[LabeledRecord],
    epsilon: float,
) -> tuple[list[dict], list[str]]:
    """Records whose field value sits within epsilon of a partition boundary.

    Only partitions whose predicate is a single comparison against a constant
    participate; others are skipped with a notice (their boundary is not a
    single number).
    """
    cases: list[dict] = []
    notices: list[str] = []
    for partition in partitioning.partitions:
        comparison = _single_comparison(partition.predicate)
        if comparison is None:
            notices.append(
                f"partition {partition.name!r} skipped: predicate "
                f"{to_source(partition.predicate)!r} is not a single comparison"
            )
            continue
        fname, _, constant = comparison
        for index, record in enumerate(data):
            value = record.input.fields.get(fname)
            if not is_number(value):
                continue
            distance = abs(float(value) - constant)
            if distance <= epsilon:
                cases.append(
                    {
                        "record": record_ref(record.input.id, index),
                        "partition": partition.name,
                        "distance": distance,
                    }
                )
    return cases, notices


# --------------------------------------------------------------------------
# augmentation


@dataclass
class AugmentResult:
    records: list[LabeledRecord]
    errors: list[dict]


def augment(data: Sequence[LabeledRecord], spec: PartialSpec) -> AugmentResult:
    """Grow a data set through the spec's invariants and equivariants.

    Originals come first, unchanged. Each COLLECTED record is pushed through
    every invariant (same label) and equivariant (transformed label); results
    whose input duplicates an original or an earlier augmentation (equal
    keys, as a table for the spec's schema keys inputs: see
    classifiers.table_key_function) are dropped. AUGMENTED records are not
    transformed again, which makes augmenting an already-augmented set
    idempotent. A transformation failure on a record is reported and that
    pair skipped.

    A spec that static_errors rejects, or a record whose input does not
    conform to the spec's schema, raises FormatError before anything is
    transformed.
    """
    require_well_formed(spec)
    _require_conforming([r.input for r in data], spec.schema, "record")
    out = list(data)
    key = table_key_function(spec.schema)
    seen = {key(r.input.fields) for r in data}
    errors: list[dict] = []
    relations: list[tuple[Transformation, Optional[Any]]] = [
        (t, None) for t in spec.invariants
    ]
    relations += [(t, g) for t, g in spec.equivariants]
    for index, record in enumerate(data):
        if record.provenance.kind != COLLECTED:
            continue
        ref = record_ref(record.input.id, index)
        for t, g in relations:
            try:
                new_input = apply_transformation(t, record.input, spec.schema)
                if g is None:
                    new_label = record.label
                else:
                    new_label = apply_output_transform(g, Prediction(record.label)).label
            except (TransformError, EvalError) as exc:
                errors.append({"record": ref, "transform": t.name, "error": str(exc)})
                continue
            new_key = key(new_input.fields)
            if new_key in seen:
                continue
            seen.add(new_key)
            out.append(
                LabeledRecord(
                    FeatureRecord(new_input.fields, id=f"{ref}~{t.name}"),
                    new_label,
                    Provenance(AUGMENTED, transform=t.name, source=ref),
                )
            )
    return AugmentResult(out, errors)


# --------------------------------------------------------------------------
# uncertainty categorization

MAX_UNCERTAINTY_DEPTH = 4

KNOWN = "KNOWN"
KNOWN_UNKNOWN = "KNOWN_UNKNOWN"
UNKNOWN_UNKNOWN = "UNKNOWN_UNKNOWN"


@dataclass
class UncertaintyReport:
    per_probe: list[dict]
    fractions: dict[str, float]

    def to_json_dict(self) -> dict:
        return {"per_probe": self.per_probe, "fractions": self.fractions}


def categorize_uncertainty(
    known: Sequence[LabeledRecord],
    probes: Sequence[FeatureRecord],
    transforms: Sequence[Transformation],
    max_depth: int,
    schema: Schema,
) -> UncertaintyReport:
    """Sort probe inputs by their relation to the known data.

    KNOWN: canonically equal to a known input. KNOWN_UNKNOWN: reachable from
    a known input by at most max_depth transform applications (breadth-first;
    the shortest transform path is reported). UNKNOWN_UNKNOWN: neither.
    Transform failures prune that branch of the search. max_depth is capped
    at 4: the closure grows exponentially in depth. The search holds a key
    and path for every state reached, but a record only for the states still
    to be expanded: a state first reached at max_depth is keyed and never
    kept, and each frontier record is dropped once every transform has been
    applied to it. A known input or probe that does not conform to the schema
    raises FormatError before the search.
    """
    if max_depth < 0:
        raise FormatError("max_depth must be >= 0")
    if max_depth > MAX_UNCERTAINTY_DEPTH:
        raise FormatError(f"max_depth is capped at {MAX_UNCERTAINTY_DEPTH}")
    _require_conforming([r.input for r in known], schema, "known record")
    _require_conforming(probes, schema, "probe")
    # Keyed by canonical_key, not the schema key: the benchmark's tracer
    # counts the closure's states from the keys this module's canonical_key
    # returns. It can move to classifiers.table_key_function once that count
    # no longer depends on how the keys are made (ROADMAP item 6, after
    # item 2).
    # Each state reached, with the transform path that first reached it; its
    # depth is the path's length.
    reached: dict[str, tuple[str, ...]] = {}
    # The states still to be expanded, in breadth-first order.
    frontier: deque[tuple[FeatureRecord, tuple[str, ...]]] = deque()
    for record in known:
        key = canonical_key(record.input.fields)
        if key not in reached:
            reached[key] = ()
            if max_depth:
                frontier.append((record.input, ()))
    while frontier:
        record, base_path = frontier.popleft()
        for t in transforms:
            try:
                new_record = apply_transformation(t, record, schema)
            except (TransformError, EvalError):
                continue
            key = canonical_key(new_record.fields)
            if key in reached:
                continue
            path = base_path + (t.name,)
            reached[key] = path
            if len(path) < max_depth:
                frontier.append((new_record, path))
    per_probe: list[dict] = []
    tally = {KNOWN: 0, KNOWN_UNKNOWN: 0, UNKNOWN_UNKNOWN: 0}
    for index, probe in enumerate(probes):
        ref = record_ref(probe.id, index)
        path = reached.get(canonical_key(probe.fields))
        if path is None:
            entry = {"probe": ref, "category": UNKNOWN_UNKNOWN}
        elif not path:
            entry = {"probe": ref, "category": KNOWN}
        else:
            entry = {
                "probe": ref,
                "category": KNOWN_UNKNOWN,
                "depth": len(path),
                "path": list(path),
            }
        tally[entry["category"]] += 1
        per_probe.append(entry)
    total = len(probes)
    fractions = {
        category.lower(): (count / total if total else 0.0)
        for category, count in tally.items()
    }
    return UncertaintyReport(per_probe, fractions)


# --------------------------------------------------------------------------
# splitting

_SPLIT_NAMES = ("train", "validation", "test")
_UNMATCHED = "__unmatched__"


@dataclass
class SplitResult:
    train: list[LabeledRecord]
    validation: list[LabeledRecord]
    test: list[LabeledRecord]
    notices: list[str]

    def sizes(self) -> tuple[int, int, int]:
        return len(self.train), len(self.validation), len(self.test)


def _largest_remainder(n: int, ratios: Sequence[float]) -> list[int]:
    """Integer counts summing to n; ties favor earlier entries
    (train > validation > test)."""
    exact = [r * n for r in ratios]
    counts = [math.floor(x) for x in exact]
    remainders = [x - c for x, c in zip(exact, counts)]
    leftover = n - sum(counts)
    order = sorted(range(len(ratios)), key=lambda i: (-remainders[i], i))
    for i in order[:leftover]:
        counts[i] += 1
    return counts


def _canonical_sort_key(record: LabeledRecord) -> tuple:
    return (
        canonical_key(record.input.fields),
        record.label,
        record.provenance.kind,
        record.provenance.transform or "",
        record.provenance.source or "",
        record.input.id or "",
    )


def split(data: Sequence[LabeledRecord], spec: SplitSpec) -> SplitResult:
    """Deterministic (seeded) three-way split, stratified when requested.

    Records are canonically sorted, grouped into strata (first matching
    partition of stratify_by; records matching none go to a final catch-all
    stratum), shuffled per stratum by one shared seeded Fisher-Yates stream,
    and cut by largest-remainder rounding per stratum. Strata too small to
    populate every split leave the smaller splits empty, with a notice.
    """
    ordered = sorted(data, key=_canonical_sort_key)
    strata: dict[str, list[LabeledRecord]] = {}
    if spec.stratify_by is None:
        strata["__all__"] = list(ordered)
        stratum_order = ["__all__"]
    else:
        stratum_order = [p.name for p in spec.stratify_by.partitions] + [_UNMATCHED]
        strata = {name: [] for name in stratum_order}
        for record in ordered:
            home = _UNMATCHED
            for partition in spec.stratify_by.partitions:
                try:
                    if evaluate_condition(partition.predicate, record.input.fields):
                        home = partition.name
                        break
                except EvalError:
                    continue
            strata[home].append(record)
    rng = random.Random(spec.seed)
    splits: tuple[list[LabeledRecord], ...] = ([], [], [])
    notices: list[str] = []
    nonzero = sum(1 for r in spec.ratios if r > 0)
    for name in stratum_order:
        records = strata.get(name, [])
        if not records:
            continue
        # Fisher-Yates, spelled out so the byte layout never shifts under us.
        shuffled = list(records)
        for i in range(len(shuffled) - 1, 0, -1):
            j = rng.randrange(i + 1)
            shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
        counts = _largest_remainder(len(shuffled), spec.ratios)
        if len(records) < nonzero:
            empty = [n for n, c in zip(_SPLIT_NAMES, counts) if c == 0]
            notices.append(
                f"stratum {name!r} has {len(records)} record(s); "
                f"empty split(s): {', '.join(empty)}"
            )
        start = 0
        for bucket, count in zip(splits, counts):
            bucket.extend(shuffled[start : start + count])
            start += count
    return SplitResult(splits[0], splits[1], splits[2], notices)


# --------------------------------------------------------------------------
# combined verification


@dataclass
class ComplianceReport:
    coverage: CoverageReport
    schema_failures: list[dict]
    label_failures: list[dict]
    eval_errors: list[dict]
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "coverage": self.coverage.to_json_dict(),
            "schema_failures": self.schema_failures,
            "label_failures": self.label_failures,
            "eval_errors": self.eval_errors,
        }


def verify_dataset(
    data: Sequence[LabeledRecord], reqs: DataSetRequirements, spec: PartialSpec
) -> ComplianceReport:
    """Coverage, schema conformance, and spec/label consistency in one pass.

    A record's label is inconsistent when (under a satisfied precondition)
    a different label's sufficient condition holds for its input, or one of
    its own label's necessary conditions fails. Passing requires every
    sub-check to pass and no evaluation errors anywhere. A spec that
    static_errors rejects raises FormatError.
    """
    require_well_formed(spec)
    coverage = coverage_report(data, reqs)
    schema_failures: list[dict] = []
    label_failures: list[dict] = []
    eval_errors: list[dict] = []
    for index, record in enumerate(data):
        ref = record_ref(record.input.id, index)
        problems = conformance_errors(record.input.fields, spec.schema)
        if record.label not in spec.schema.labels:
            problems = problems + [f"label {record.label!r} is not in the alphabet"]
        if problems:
            schema_failures.append({"record": ref, "errors": problems})
            continue
        fields = record.input.fields
        try:
            if not check_pre(spec, fields):
                continue
            # Entries are kept as found: an EvalError ends the record, not them.
            for label in spec.sufficient:
                if label == record.label:
                    continue
                for j in sufficient_holds(spec, label, fields):
                    failure = {"record": ref, "kind": "sufficient_conflict", "label": record.label}
                    label_failures.append({**failure, "conflicting_label": label, "index": j})
            for j in necessary_fails(spec, record.label, fields):
                failure = {"record": ref, "kind": "necessary_violated", "label": record.label}
                label_failures.append({**failure, "index": j})
        except EvalError as exc:
            eval_errors.append({"record": ref, "error": str(exc)})
    passed = (
        coverage.passed
        and not schema_failures
        and not label_failures
        and not eval_errors
        and not coverage.eval_errors
    )
    return ComplianceReport(coverage, schema_failures, label_failures, eval_errors, passed)


# --------------------------------------------------------------------------
# file formats


def labeled_record_from_json_dict(data: Any) -> LabeledRecord:
    if not isinstance(data, dict):
        raise FormatError("data set record must be a JSON object")
    rid = data.get("id")
    if rid is not None and not isinstance(rid, str):
        raise FormatError(f"record id must be a string, got {rid!r}")
    raw_input = data.get("input")
    if not isinstance(raw_input, dict):
        raise FormatError(f"record {rid!r} needs an 'input' object")
    label = data.get("label")
    if not isinstance(label, str):
        raise FormatError(f"record {rid!r} needs a string 'label'")
    raw_prov = data.get("provenance")
    if raw_prov is None:
        provenance = Provenance()
    elif isinstance(raw_prov, dict):
        provenance = Provenance(
            raw_prov.get("kind", COLLECTED),
            raw_prov.get("transform"),
            raw_prov.get("source"),
        )
    else:
        raise FormatError(f"record {rid!r} provenance must be an object")
    return LabeledRecord(FeatureRecord(dict(raw_input), rid), label, provenance)


def labeled_record_to_json_dict(record: LabeledRecord) -> dict:
    data: dict[str, Any] = {}
    if record.input.id is not None:
        data["id"] = record.input.id
    data["input"] = dict(record.input.fields)
    data["label"] = record.label
    if record.provenance.kind != COLLECTED:
        data["provenance"] = {
            "kind": record.provenance.kind,
            "transform": record.provenance.transform,
            "source": record.provenance.source,
        }
    return data


def read_dataset(path: Union[str, Path]) -> list[LabeledRecord]:
    """Read a JSON Lines data set. Data sets are curated artifacts, so any
    malformed line fails the whole read (unlike traces, which tolerate
    malformed lines as runtime evidence)."""
    return read_json_lines(Path(path), "data set", labeled_record_from_json_dict)


def _partition_from_json(data: Any, schema: Optional[Schema]) -> Partition:
    if not isinstance(data, dict) or not isinstance(data.get("name"), str):
        raise FormatError("partition needs a string 'name'")
    predicate = data.get("predicate")
    if not isinstance(predicate, str):
        raise FormatError(f"partition {data['name']!r} needs a 'predicate' string")
    expr = parse(predicate)
    if schema is not None:
        try:
            tag = typecheck(expr, schema, output_allowed=False)
        except TypeCheckError as exc:
            raise FormatError(f"partition {data['name']!r}", exc.errors) from exc
        if tag != BOOLEAN:
            raise FormatError(f"partition {data['name']!r}", ["predicate is not boolean"])
    weight = data.get("risk_weight", 1)
    if not isinstance(weight, int) or isinstance(weight, bool):
        raise FormatError(f"partition {data['name']!r} risk_weight must be an integer")
    return Partition(data["name"], expr, weight)


def _partitioning_from_json(data: Any, schema: Optional[Schema]) -> Partitioning:
    if not isinstance(data, dict) or not isinstance(data.get("name"), str):
        raise FormatError("partitioning needs a string 'name'")
    raw = data.get("partitions")
    if not isinstance(raw, list):
        raise FormatError(f"partitioning {data['name']!r} needs a 'partitions' list")
    return Partitioning(data["name"], tuple(_partition_from_json(p, schema) for p in raw))


def load_requirements(path: Union[str, Path]) -> DataSetRequirements:
    """Read a requirements file:
    {"schema": {...}, "partitionings": [...], "base_min_samples": n,
     "risk_multiplier": x, "infeasible_cells": [["p", "q"], ...]}"""
    data = read_json_file(Path(path), "requirements file")
    if not isinstance(data, dict) or "schema" not in data:
        raise FormatError("requirements file needs a 'schema'")
    schema = schema_from_json_dict(data["schema"])
    raw_partitionings = data.get("partitionings")
    if not isinstance(raw_partitionings, list) or not raw_partitionings:
        raise FormatError("requirements file needs a non-empty 'partitionings' list")
    partitionings = tuple(_partitioning_from_json(p, schema) for p in raw_partitionings)
    base = data.get("base_min_samples", 1)
    if not isinstance(base, int) or isinstance(base, bool):
        raise FormatError("base_min_samples must be an integer")
    multiplier = data.get("risk_multiplier", 1.0)
    if not is_number(multiplier):
        raise FormatError("risk_multiplier must be a number")
    raw_infeasible = data.get("infeasible_cells", [])
    if not isinstance(raw_infeasible, list):
        raise FormatError("infeasible_cells must be a list of cell name lists")
    infeasible = set()
    for cell in raw_infeasible:
        if not isinstance(cell, list) or not all(isinstance(n, str) for n in cell):
            raise FormatError(f"infeasible cell {cell!r} must be a list of partition names")
        infeasible.add(tuple(cell))
    return DataSetRequirements(
        schema, partitionings, base, float(multiplier), frozenset(infeasible)
    )


def load_partitioning(path: Union[str, Path]) -> Partitioning:
    """Read a standalone partitioning file:
    {"schema": {...}, "name": "...", "partitions": [...]}"""
    data = read_json_file(Path(path), "partitioning file")
    if not isinstance(data, dict):
        raise FormatError("partitioning file must be a JSON object")
    schema = schema_from_json_dict(data["schema"]) if "schema" in data else None
    return _partitioning_from_json(data, schema)
