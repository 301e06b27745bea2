"""A fixed piece of pure-Python work that measures the host's speed.

The host's speed wanders: from one minute to the next the same call can take
20-50% longer, and the process's CPU time moves with its wall time. The
benchmark times this block right next to every measurement and scales the
measurement to the speed at which the block takes REFERENCE_S. The block uses
only the standard library and never imports specguard, so no change to the
program can change it.

The work is of the kinds specguard does: JSON decode and encode, dicts and
tuples built from records, a small tree-walking evaluator, deep copies.
"""
from __future__ import annotations

import copy
import json
import time

# About the block's time on the machine the first baseline was measured on
# (2-vCPU x86_64 VM, CPython 3.11.7) in its fast state: a scaled time reads
# as a time on that machine at that speed.
REFERENCE_S = 0.025

_RECORDS = [
    {
        "id": f"r{i:04d}",
        "input": {"height": 0.5 + (i % 17) / 10, "width": 0.3 + (i % 5) / 4, "zone": "urban"},
        "grid": [[(i + r * c) % 9 for c in range(6)] for r in range(3)],
    }
    for i in range(120)
]
_TEXT = json.dumps(_RECORDS)
_TREE = ("and", ("gt", "height", 1.0), ("or", ("lt", "width", 0.9), ("eq", "zone", "rural")))


def _key(value):
    if isinstance(value, dict):
        return tuple(sorted((k, _key(v)) for k, v in value.items()))
    if isinstance(value, list):
        return tuple(_key(v) for v in value)
    return value


def _evaluate(node, fields):
    op = node[0]
    if op == "and":
        return all(_evaluate(child, fields) for child in node[1:])
    if op == "or":
        return any(_evaluate(child, fields) for child in node[1:])
    value = fields[node[1]]
    if op == "gt":
        return value > node[2]
    if op == "lt":
        return value < node[2]
    return value == node[2]


def _block() -> int:
    records = json.loads(_TEXT)
    seen = {}
    for record in records:
        seen[_key(record)] = _evaluate(_TREE, record["input"])
    copies = copy.deepcopy(records[:40])
    return len(json.dumps(copies)) + sum(seen.values())


def host_time() -> float:
    """Seconds one calibration block takes now."""
    start = time.perf_counter()
    for _ in range(10):
        _block()
    return time.perf_counter() - start


def scaled(seconds: float, host_s: float) -> float:
    """A time measured while the block took host_s, at the reference speed."""
    return seconds * REFERENCE_S / host_s
