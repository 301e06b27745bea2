"""Shared fixtures: small exhaustive domains and a pedestrian-style spec."""
from __future__ import annotations

import pytest

from specguard.speccore.records import FeatureRecord, Prediction, value_key
from specguard.speccore.classifiers import TableClassifier
from specguard.speclang.schema import GridType, NumberType, Schema


@pytest.fixture(scope="session")
def grid_schema() -> Schema:
    return Schema({"img": GridType(3, 3)}, ("dark", "bright"))


def grid_from_bits(bits: int) -> list[list[float]]:
    """3x3 grid from the low 9 bits, row-major."""
    return [[float((bits >> (r * 3 + c)) & 1) for c in range(3)] for r in range(3)]


@pytest.fixture(scope="session")
def grid_domain() -> list[FeatureRecord]:
    """All 512 binary 3x3 grids."""
    return [FeatureRecord({"img": grid_from_bits(b)}, id=f"g{b}") for b in range(512)]


def grid_sum(record: FeatureRecord) -> float:
    return sum(sum(row) for row in record.fields["img"])


@pytest.fixture(scope="session")
def grid_oracle() -> TableClassifier:
    """bright iff at least five cells are set; exhaustive over the domain."""
    entries = {}
    for b in range(512):
        fields = {"img": grid_from_bits(b)}
        label = "bright" if bin(b).count("1") >= 5 else "dark"
        entries[value_key(fields)] = Prediction(label, 1.0)
    return TableClassifier(entries)


@pytest.fixture(scope="session")
def ped_schema() -> Schema:
    return Schema({"height": NumberType()}, ("pedestrian", "not_pedestrian"))
