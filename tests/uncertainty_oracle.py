"""Reference closure for specguard.dataset.categorize_uncertainty.

A plain breadth-first search written for clarity and not for memory: it
keeps every level of the search, each state with its record and the
transform path that first reached it, and keys states with the reference
encoder of canonical_oracle. Within a level, states are expanded in the
order they were reached, each by the transformations in their given order,
so the first path to reach a state is the shortest one with the earliest
tie-break. A state outside the input domain is never reached: the oracle
prunes a result that fails conformance_errors itself, beside every
transformation that raises. test_dataset.py checks categorize_uncertainty
against it on random records and transformations.
"""
from __future__ import annotations

from typing import Sequence

from canonical_oracle import canonical_key

from specguard.dataset import LabeledRecord
from specguard.errors import EvalError, TransformError
from specguard.speccore.records import FeatureRecord, conformance_errors, record_ref
from specguard.speccore.transforms import Transformation, apply_transformation
from specguard.speclang.schema import Schema


def closure_levels(
    known: Sequence[LabeledRecord],
    transforms: Sequence[Transformation],
    max_depth: int,
    schema: Schema,
) -> list[list[tuple[str, FeatureRecord, tuple[str, ...]]]]:
    """levels[d]: the (key, record, path) of every state first reached at
    depth d, in the order it was reached."""
    seen: set[str] = set()
    first: list[tuple[str, FeatureRecord, tuple[str, ...]]] = []
    for labeled in known:
        key = canonical_key(labeled.input.fields)
        if key not in seen:
            seen.add(key)
            first.append((key, labeled.input, ()))
    levels = [first]
    for _ in range(max_depth):
        level = []
        for _, record, path in levels[-1]:
            for t in transforms:
                try:
                    new = apply_transformation(t, record, schema)
                except (TransformError, EvalError):
                    continue
                if conformance_errors(new.fields, schema):
                    continue
                key = canonical_key(new.fields)
                if key not in seen:
                    seen.add(key)
                    level.append((key, new, path + (t.name,)))
        levels.append(level)
    return levels


def oracle_uncertainty(
    known: Sequence[LabeledRecord],
    probes: Sequence[FeatureRecord],
    transforms: Sequence[Transformation],
    max_depth: int,
    schema: Schema,
) -> dict:
    """What UncertaintyReport.to_json_dict should give for these inputs."""
    reached = {
        key: (depth, path)
        for depth, level in enumerate(closure_levels(known, transforms, max_depth, schema))
        for key, _, path in level
    }
    per_probe = []
    for index, probe in enumerate(probes):
        ref = record_ref(probe.id, index)
        hit = reached.get(canonical_key(probe.fields))
        if hit is None:
            per_probe.append({"probe": ref, "category": "UNKNOWN_UNKNOWN"})
        elif hit[0] == 0:
            per_probe.append({"probe": ref, "category": "KNOWN"})
        else:
            per_probe.append(
                {"probe": ref, "category": "KNOWN_UNKNOWN", "depth": hit[0], "path": list(hit[1])}
            )
    fractions = {}
    for category in ("KNOWN", "KNOWN_UNKNOWN", "UNKNOWN_UNKNOWN"):
        count = sum(entry["category"] == category for entry in per_probe)
        fractions[category.lower()] = count / len(probes) if probes else 0.0
    return {"per_probe": per_probe, "fractions": fractions}
