"""Method catalogs with per-ASIL recommendations and applicability scoring.

A catalog lists software-safety methods (ISO 26262 Part 6 style), each with a
recommendation per ASIL: "o" (no recommendation), "+" (recommended), or "++"
(highly recommended). Scoring asks: if a working condition removes some
methods from play, what weighted fraction of the recommended methods
survives? Conditions model ML development realities: no complete behavioural
specification to verify against, or a model too opaque to inspect.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence, Union

from ..errors import CatalogError, FormatError, read_json_file


class Asil(enum.Enum):
    A = "A"
    B = "B"
    C = "C"
    D = "D"


class Recommendation(enum.Enum):
    """Recommendation strength: o (none), + (recommended), ++ (highly)."""

    O = "o"
    R = "+"
    HR = "++"

    @property
    def weight(self) -> int:
        return {"o": 0, "+": 1, "++": 2}[self.value]

    @classmethod
    def from_symbol(cls, symbol: str) -> "Recommendation":
        for member in cls:
            if member.value == symbol:
                return member
        raise FormatError(f"unknown recommendation symbol {symbol!r} (use o, +, ++)")


class MethodType(enum.Enum):
    BEST_PRACTICE = "BEST_PRACTICE"
    VERIFICATION = "VERIFICATION"
    TESTING = "TESTING"
    FAULT_TOLERANCE = "FAULT_TOLERANCE"


# The sixteen method categories of the adapted Part 6 process.
CATEGORIES = (
    "Coding guidelines",
    "Architecture notations",
    "Architecture design",
    "Architecture error detection",
    "Architecture error handling",
    "Architecture verification",
    "Unit design notations",
    "Unit design and implementation",
    "Unit design and implementation verification",
    "Unit testing",
    "Unit deriving test cases",
    "Unit testing coverage metrics",
    "Integration testing",
    "Integration deriving test cases",
    "Integration testing coverage metrics",
    "Verification of software safety requirements",
)


@dataclass(frozen=True)
class Method:
    id: str
    name: str
    category: str
    method_type: MethodType
    recommendations: Mapping[Asil, Recommendation]
    requires_specification: bool = False
    requires_interpretability: bool = False
    notes: str = ""

    def __post_init__(self) -> None:
        missing = [a.value for a in Asil if a not in self.recommendations]
        if missing:
            raise FormatError(
                f"method {self.id!r} lacks recommendations for ASIL {', '.join(missing)}"
            )


class ScoringCondition(enum.Enum):
    """Working condition that disables part of the catalog.

    NO_SPECIFICATION: a complete behavioural specification is unavailable, so
    methods that need one to apply drop out. NO_INTERPRETABILITY: the
    implementation cannot be understood by inspection, so methods that need
    white-box insight drop out.
    """

    NO_SPECIFICATION = "no-spec"
    NO_INTERPRETABILITY = "no-interp"

    def applicable(self, method: Method) -> bool:
        if self is ScoringCondition.NO_SPECIFICATION:
            return not method.requires_specification
        return not method.requires_interpretability


def score(catalog: Sequence[Method], condition: ScoringCondition, asil: Asil) -> Fraction:
    """Weighted fraction of recommended methods still applicable: the sum of
    recommendation weights over surviving methods divided by the sum over all
    methods, at one ASIL. Exact rational arithmetic."""
    denominator = sum(m.recommendations[asil].weight for m in catalog)
    if denominator == 0:
        raise CatalogError(f"no recommended methods for ASIL {asil.value}")
    numerator = sum(
        m.recommendations[asil].weight for m in catalog if condition.applicable(m)
    )
    return Fraction(numerator, denominator)


def render_score(value: Fraction, digits: int = 12) -> str:
    """Decimal rendering with `digits` places (round half up), e.g. 0.600000000000."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    sign = "-" if value < 0 else ""
    scaled = abs(value) * 10**digits
    quantized = (scaled.numerator * 2 + scaled.denominator) // (scaled.denominator * 2)
    text = str(quantized).rjust(digits + 1, "0")
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


def mean_and_std(scores: Sequence[Fraction]) -> tuple[Fraction, float]:
    """Arithmetic mean (exact) and population standard deviation (float)."""
    if not scores:
        raise CatalogError("cannot summarize an empty score list")
    mean = sum(scores, Fraction(0)) / len(scores)
    variance = sum((s - mean) ** 2 for s in scores) / len(scores)
    return mean, math.sqrt(variance)


@dataclass(frozen=True)
class ImpactCell:
    condition: ScoringCondition
    method_type: MethodType
    scores: Mapping[Asil, Fraction]
    mean: Fraction
    std: float

    def to_json_dict(self) -> dict:
        return {
            "condition": self.condition.value,
            "method_type": self.method_type.value,
            "scores": {a.value: render_score(s) for a, s in self.scores.items()},
            "mean": render_score(self.mean),
            "std": f"{self.std:.12f}",
            "mean_2dp": f"{float(self.mean):.2f}",
            "std_2dp": f"{self.std:.2f}",
        }


def impact_table(
    catalog: Sequence[Method],
    method_types: Sequence[MethodType] = (MethodType.VERIFICATION, MethodType.TESTING),
    conditions: Sequence[ScoringCondition] = (
        ScoringCondition.NO_SPECIFICATION,
        ScoringCondition.NO_INTERPRETABILITY,
    ),
) -> list[ImpactCell]:
    """Per (condition, method type): the four per-ASIL scores plus their mean
    and population standard deviation."""
    cells = []
    for condition in conditions:
        for method_type in method_types:
            subset = [m for m in catalog if m.method_type is method_type]
            if not subset:
                raise CatalogError(f"catalog has no methods of type {method_type.value}")
            scores = {a: score(subset, condition, a) for a in Asil}
            mean, std = mean_and_std(list(scores.values()))
            cells.append(ImpactCell(condition, method_type, scores, mean, std))
    return cells


def render_impact_text(cells: Sequence[ImpactCell]) -> str:
    """Two-decimal plain-text table, std in parentheses next to the mean."""
    header = (
        f"{'condition':<10} {'method type':<14} "
        f"{'A':>6} {'B':>6} {'C':>6} {'D':>6}  {'mean (std)':>12}"
    )
    lines = [header, "-" * len(header)]
    for cell in cells:
        row = " ".join(f"{float(cell.scores[a]):>6.2f}" for a in Asil)
        summary = f"{float(cell.mean):.2f} ({cell.std:.2f})"
        lines.append(
            f"{cell.condition.value:<10} {cell.method_type.value:<14} {row}  {summary:>12}"
        )
    return "\n".join(lines)


def filter_catalog(
    catalog: Sequence[Method],
    method_type: Optional[MethodType] = None,
    category: Optional[str] = None,
) -> list[Method]:
    out = list(catalog)
    if method_type is not None:
        out = [m for m in out if m.method_type is method_type]
    if category is not None:
        out = [m for m in out if m.category == category]
    return out


def method_from_json_dict(data: object) -> Method:
    if not isinstance(data, dict):
        raise FormatError("catalog method must be a JSON object")
    for key in ("id", "name", "category", "method_type", "recommendations"):
        if key not in data:
            raise FormatError(f"catalog method {data.get('id')!r} lacks {key!r}")
    raw_type = data["method_type"]
    try:
        method_type = MethodType(raw_type)
    except ValueError:
        valid = ", ".join(t.value for t in MethodType)
        raise FormatError(
            f"method {data['id']!r}: unknown method_type {raw_type!r} (use {valid})"
        ) from None
    raw_recs = data["recommendations"]
    if not isinstance(raw_recs, dict):
        raise FormatError(f"method {data['id']!r}: recommendations must be an object")
    recommendations = {}
    for asil in Asil:
        if asil.value not in raw_recs:
            raise FormatError(f"method {data['id']!r}: no recommendation for ASIL {asil.value}")
        recommendations[asil] = Recommendation.from_symbol(raw_recs[asil.value])
    extra = set(raw_recs) - {a.value for a in Asil}
    if extra:
        raise FormatError(f"method {data['id']!r}: unknown ASIL {sorted(extra)}")
    return Method(
        id=str(data["id"]),
        name=str(data["name"]),
        category=str(data["category"]),
        method_type=method_type,
        recommendations=recommendations,
        requires_specification=bool(data.get("requires_specification", False)),
        requires_interpretability=bool(data.get("requires_interpretability", False)),
        notes=str(data.get("notes", "")),
    )


def method_to_json_dict(method: Method) -> dict:
    data = {
        "id": method.id,
        "name": method.name,
        "category": method.category,
        "method_type": method.method_type.value,
        "recommendations": {a.value: method.recommendations[a].value for a in Asil},
        "requires_specification": method.requires_specification,
        "requires_interpretability": method.requires_interpretability,
    }
    if method.notes:
        data["notes"] = method.notes
    return data


def catalog_from_json(data: object) -> tuple[Method, ...]:
    if not isinstance(data, list):
        raise FormatError("catalog file must be a JSON array of methods")
    methods = tuple(method_from_json_dict(m) for m in data)
    ids = [m.id for m in methods]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise FormatError(f"catalog has duplicate method ids: {', '.join(dupes)}")
    return methods


def load_catalog(path: Union[str, Path]) -> tuple[Method, ...]:
    return catalog_from_json(read_json_file(Path(path), "catalog"))


def packaged_catalog_path(name: str) -> Path:
    """Path of a catalog shipped with the package: "error-handling" (the
    four-method error-handling table) or "full" (an 83-method starter
    catalog whose condition flags are illustrative and user-editable)."""
    filenames = {
        "error-handling": "error_handling_catalog.json",
        "full": "full_method_catalog.json",
    }
    if name not in filenames:
        raise FormatError(f"unknown packaged catalog {name!r} (use error-handling, full)")
    return Path(__file__).resolve().parent / "data" / filenames[name]
