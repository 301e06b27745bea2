"""Failure diagnosis walk across the adapted Part 6 lifecycle.

When a deployed or tested ML component exhibits a failure, work backwards
through the lifecycle phases and ask, per process requirement, whether a
change at that point would remove the failure. The canonical walk starts at
the initiation gate and ends at verification; a phase hint promotes that
phase's questions to the front without reordering the rest.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from ..errors import FormatError, read_json_file


class LifecyclePhase(enum.Enum):
    INITIATION = "initiation"
    REQUIREMENTS = "requirements"
    ARCHITECTURE = "architecture"
    UNIT_DESIGN = "unit_design"
    TESTING = "testing"
    VERIFICATION = "verification"


@dataclass(frozen=True)
class QuestionGroup:
    requirement_ids: tuple[str, ...]
    phase: LifecyclePhase
    topic: str
    questions: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "requirement_ids": list(self.requirement_ids),
            "phase": self.phase.value,
            "topic": self.topic,
            "questions": list(self.questions),
        }


# Canonical diagnosis walk, one group per process-requirement cluster,
# ordered by lifecycle phase (initiation first, verification last).
CANONICAL_PLAN: tuple[QuestionGroup, ...] = (
    QuestionGroup(
        ("MLIN1",),
        LifecyclePhase.INITIATION,
        "decision gate review",
        (
            "Would a conventionally programmed implementation of this safety "
            "requirement avoid the failure? Re-run the decision gate.",
        ),
    ),
    QuestionGroup(
        ("6.4.1ML",),
        LifecyclePhase.REQUIREMENTS,
        "partial specifications",
        (
            "Does any domain knowledge exist that could be captured as a new "
            "or tightened partial specification ruling out the failing "
            "behaviour?",
        ),
    ),
    QuestionGroup(
        ("6.4.1ML", "8.4.3", "9.4.4"),
        LifecyclePhase.REQUIREMENTS,
        "data set requirements",
        (
            "Would extending the training data prevent this failure, and "
            "which partitions, quantities, or provenance constraints describe "
            "the needed extension?",
        ),
    ),
    QuestionGroup(
        ("7.4.14", "7.4.15"),
        LifecyclePhase.ARCHITECTURE,
        "fault tolerance measures",
        (
            "Could an architectural error-detection or error-handling "
            "mechanism (redundancy, monitoring, degradation) contain this "
            "failure?",
        ),
    ),
    QuestionGroup(
        ("MLDS1", "MLDS2", "MLDS3"),
        LifecyclePhase.UNIT_DESIGN,
        "data collection and augmentation",
        (
            "How would the additional samples implied by the failure be "
            "collected and verified?",
            "Could declared invariant or equivariant transformations "
            "synthesize those samples instead?",
        ),
    ),
    QuestionGroup(
        ("MLMS1", "MLMS2"),
        LifecyclePhase.UNIT_DESIGN,
        "model selection",
        ("Would a different model family or capacity remove the failure?",),
    ),
    QuestionGroup(
        ("MLFS1",),
        LifecyclePhase.UNIT_DESIGN,
        "feature selection",
        ("Would a different choice of input features remove the failure?",),
    ),
    QuestionGroup(
        ("MLTR1", "MLTR2"),
        LifecyclePhase.UNIT_DESIGN,
        "training procedure",
        (
            "Would a change to the training procedure or learning algorithm "
            "remove the failure?",
            "Can the updated partial specification be enforced during "
            "training?",
        ),
    ),
    QuestionGroup(
        ("MLVT1",),
        LifecyclePhase.UNIT_DESIGN,
        "data set splitting",
        (
            "Would a different train/validation/test split (ratios, "
            "stratification, seed discipline) avoid the failure?",
        ),
    ),
    QuestionGroup(
        ("MLVT2",),
        LifecyclePhase.UNIT_DESIGN,
        "hyper-parameter validation",
        ("Would different hyper-parameter choices avoid the failure?",),
    ),
    QuestionGroup(
        ("9.4.6",),
        LifecyclePhase.TESTING,
        "test environment fidelity",
        (
            "Does the test environment diverge from the operating environment "
            "in a way that hides or causes the failure?",
        ),
    ),
    QuestionGroup(
        ("MLTE1",),
        LifecyclePhase.TESTING,
        "failure interpretability",
        (
            "Can techniques that expose the model's internal reasoning locate "
            "the cause of the failure?",
        ),
    ),
    QuestionGroup(
        ("8.4.5",),
        LifecyclePhase.VERIFICATION,
        "re-verification against the spec",
        (
            "After the fix, can the retrained model be checked against the "
            "updated partial specification?",
        ),
    ),
)


@dataclass(frozen=True)
class FailureRecord:
    description: str
    phase_hint: Optional[str] = None
    failing_record_ids: tuple[str, ...] = ()


@dataclass(frozen=True)
class DiagnosisPlan:
    groups: tuple[QuestionGroup, ...]
    failure: FailureRecord

    def to_json_dict(self) -> dict:
        return {
            "failure": {
                "description": self.failure.description,
                "phase_hint": self.failure.phase_hint,
                "failing_record_ids": list(self.failure.failing_record_ids),
            },
            "groups": [g.to_json_dict() for g in self.groups],
        }


def diagnose(failure: FailureRecord) -> DiagnosisPlan:
    """Ordered question plan for a failure.

    Without a hint, the canonical phase order. With a hint, that phase's
    groups move to the front; everything else keeps its canonical order.
    """
    if failure.phase_hint is None:
        return DiagnosisPlan(CANONICAL_PLAN, failure)
    try:
        phase = LifecyclePhase(failure.phase_hint.lower())
    except ValueError:
        valid = ", ".join(p.value for p in LifecyclePhase)
        raise FormatError(
            f"unknown phase hint {failure.phase_hint!r} (valid phases: {valid})"
        ) from None
    promoted = tuple(g for g in CANONICAL_PLAN if g.phase is phase)
    rest = tuple(g for g in CANONICAL_PLAN if g.phase is not phase)
    return DiagnosisPlan(promoted + rest, failure)


def failure_from_json_dict(data: object) -> FailureRecord:
    if not isinstance(data, dict):
        raise FormatError("failure record must be a JSON object")
    description = data.get("description")
    if not isinstance(description, str) or not description:
        raise FormatError("failure record needs a non-empty 'description'")
    hint = data.get("phase_hint")
    if hint is not None and not isinstance(hint, str):
        raise FormatError("phase_hint must be a string")
    raw_ids = data.get("failing_record_ids", [])
    if not isinstance(raw_ids, list) or not all(isinstance(i, str) for i in raw_ids):
        raise FormatError("failing_record_ids must be a list of strings")
    unknown = set(data) - {"description", "phase_hint", "failing_record_ids"}
    if unknown:
        raise FormatError(f"unknown failure record key(s): {', '.join(sorted(unknown))}")
    return FailureRecord(description, hint, tuple(raw_ids))


def load_failure(path: Union[str, Path]) -> FailureRecord:
    return failure_from_json_dict(read_json_file(Path(path), "failure record"))
