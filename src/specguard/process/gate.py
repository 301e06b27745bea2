"""Decision gate for choosing between programming and ML.

ISO-style initiation question (requirement MLIN1 territory): before an ML
component is adopted for a safety requirement, check whether a conventional
programmed implementation would do, whether the requirement can be
strengthened into something completely specifiable, or whether the component
can be split so that only a smaller part needs ML.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional, Union

from ..errors import FormatError, read_json_file


class GateVerdict(enum.Enum):
    USE_PROGRAMMING = "USE_PROGRAMMING"
    STRENGTHEN_REQUIREMENT = "STRENGTHEN_REQUIREMENT"
    SPLIT_COMPONENT = "SPLIT_COMPONENT"
    USE_ML_WITH_MEASURES = "USE_ML_WITH_MEASURES"


_QUESTIONS = (
    "completely_specifiable",
    "strengthenable",
    "strengthened_functionality_acceptable",
    "splittable",
)


@dataclass(frozen=True)
class GateQuestionnaire:
    """Four yes/no answers, each with an optional free-text rationale.

    completely_specifiable: the requirement's behaviour can be written down
    in full, so it can be programmed and verified conventionally.
    strengthenable: a more conservative requirement that IS completely
    specifiable would still mitigate the hazard.
    strengthened_functionality_acceptable: the functional cost of that more
    conservative requirement is acceptable.
    splittable: the component divides into a programmable part and a smaller
    ML part with its own requirement.
    """

    completely_specifiable: Optional[bool] = None
    strengthenable: Optional[bool] = None
    strengthened_functionality_acceptable: Optional[bool] = None
    splittable: Optional[bool] = None
    rationales: Mapping[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class GateDecision:
    verdict: GateVerdict
    rationale: str
    questionnaire: GateQuestionnaire

    def to_json_dict(self) -> dict:
        answers = {q: getattr(self.questionnaire, q) for q in _QUESTIONS}
        return {
            "verdict": self.verdict.value,
            "rationale": self.rationale,
            "answers": answers,
            "answer_rationales": dict(self.questionnaire.rationales),
        }


def gate_assess(questionnaire: GateQuestionnaire) -> GateDecision:
    """Deterministic verdict from the four answers.

    completely_specifiable -> USE_PROGRAMMING. Otherwise, strengthenable and
    acceptable -> STRENGTHEN_REQUIREMENT. Otherwise splittable ->
    SPLIT_COMPONENT. Otherwise USE_ML_WITH_MEASURES. Every question must be
    answered: the verdict record is safety-case evidence and must not rest on
    defaults.
    """
    unanswered = [q for q in _QUESTIONS if getattr(questionnaire, q) is None]
    if unanswered:
        raise FormatError(f"unanswered gate question(s): {', '.join(unanswered)}")
    extra = set(questionnaire.rationales) - set(_QUESTIONS)
    if extra:
        raise FormatError(f"rationales for unknown question(s): {', '.join(sorted(extra))}")
    if questionnaire.completely_specifiable:
        verdict = GateVerdict.USE_PROGRAMMING
        rationale = (
            "the requirement is completely specifiable, so a programmed "
            "implementation is required instead of ML"
        )
    elif (
        questionnaire.strengthenable
        and questionnaire.strengthened_functionality_acceptable
    ):
        verdict = GateVerdict.STRENGTHEN_REQUIREMENT
        rationale = (
            "a more conservative, completely specifiable requirement mitigates "
            "the hazard at an acceptable functional cost; strengthen and program it"
        )
    elif questionnaire.splittable:
        verdict = GateVerdict.SPLIT_COMPONENT
        rationale = (
            "the component divides into a programmable part and a smaller ML "
            "part; split it and gate the ML part separately"
        )
    else:
        verdict = GateVerdict.USE_ML_WITH_MEASURES
        rationale = (
            "no programmed alternative exists; ML may be used together with "
            "the partial-specification, monitoring, and fault-tolerance measures"
        )
    noted = [
        f"{q}: {questionnaire.rationales[q]}"
        for q in _QUESTIONS
        if questionnaire.rationales.get(q)
    ]
    if noted:
        rationale = rationale + " [" + "; ".join(noted) + "]"
    return GateDecision(verdict, rationale, questionnaire)


def questionnaire_from_json_dict(data: object) -> GateQuestionnaire:
    if not isinstance(data, dict):
        raise FormatError("questionnaire must be a JSON object")
    unknown = set(data) - set(_QUESTIONS) - {"rationales"}
    if unknown:
        raise FormatError(f"unknown questionnaire key(s): {', '.join(sorted(unknown))}")
    answers = {}
    for q in _QUESTIONS:
        value = data.get(q)
        if value is not None and not isinstance(value, bool):
            raise FormatError(f"questionnaire answer {q!r} must be true or false")
        answers[q] = value
    rationales = data.get("rationales", {})
    if not isinstance(rationales, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in rationales.items()
    ):
        raise FormatError("questionnaire rationales must map question names to strings")
    return GateQuestionnaire(rationales=rationales, **answers)


def load_questionnaire(path: Union[str, Path]) -> GateQuestionnaire:
    return questionnaire_from_json_dict(read_json_file(Path(path), "questionnaire"))
