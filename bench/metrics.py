"""The benchmark's metric definitions.

BENCHMARK.json at the repository root declares every metric's name, unit,
direction and bound; run.py and the tests read them from there. This module
adds only what BENCHMARK.json has no room for: for each per-layer metric,
the end-to-end metric and workloads it should move.
"""
from __future__ import annotations

import json
from pathlib import Path

DECLARATION = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

MONITOR = ("monitor_trace",)
GATED = ("gated_simulate",)
GRID = ("grid_uncertainty",)
SAFETYCASE = ("deep_safetycase",)
EVALUATING = MONITOR + GATED
SPEC_LOADING = MONITOR + GATED + GRID
ALL = SPEC_LOADING + SAFETYCASE

_RATE = "records_per_s"
_SETUP = "setup_s"
_RSS = "peak_rss_mb"

# per-layer metric -> ((end-to-end metric, workloads it should move there), ...)
MOVES: dict[str, tuple[tuple[str, tuple[str, ...]], ...]] = {
    "speclang.parse.calls": ((_SETUP, SPEC_LOADING),),
    "speclang.parse.us_per_call": ((_SETUP, SPEC_LOADING),),
    "speclang.typecheck.calls": ((_SETUP, SPEC_LOADING),),
    "speclang.typecheck.us_per_call": ((_SETUP, SPEC_LOADING),),
    "speclang.evaluate_condition.calls": ((_RATE, EVALUATING),),
    "speclang.evaluate_condition.evals_per_s": ((_RATE, EVALUATING),),
    "speclang.evaluate_condition.self_s": ((_RATE, EVALUATING),),
    "speclang.to_source.calls": ((_RATE, MONITOR),),
    "speclang.to_source.self_s": ((_RATE, MONITOR),),
    "speccore.load_spec.s": ((_SETUP, SPEC_LOADING),),
    "speccore.conformance_errors.self_s": ((_RATE, MONITOR),),
    "speccore.check_sufficient.self_s": ((_RATE, MONITOR),),
    "speccore.check_necessary.self_s": ((_RATE, MONITOR),),
    "speccore.canonical_key.calls": ((_RATE, GRID + GATED), (_SETUP, GATED)),
    "speccore.canonical_key.keys_per_s": ((_RATE, GRID + GATED), (_SETUP, GATED)),
    "speccore.canonical_key.self_s": ((_RATE, GRID + GATED), (_SETUP, GATED)),
    "speccore.apply_transformation.calls": ((_RATE, GRID),),
    "speccore.apply_transformation.self_s": ((_RATE, GRID),),
    "speccore.classify.table.calls": ((_RATE, GATED),),
    "speccore.classify.table.self_s": ((_RATE, GATED),),
    "speccore.classify.expression.calls": ((_RATE, GATED),),
    "speccore.classify.expression.self_s": ((_RATE, GATED),),
    "speccore.load_classifier.s": ((_SETUP, GATED),),
    "monitor.read_trace.records_per_s": ((_RATE, MONITOR), (_RSS, MONITOR)),
    "monitor.read_trace.self_s": ((_RATE, MONITOR), (_RSS, MONITOR)),
    "monitor.check_sample.calls": ((_RATE, MONITOR),),
    "monitor.check_sample.p50_us": ((_RATE, MONITOR),),
    "monitor.check_sample.tail_us": ((_RATE, MONITOR),),
    "monitor.check_sample.self_s": ((_RATE, MONITOR),),
    "monitor.check_batch_probabilistic.self_s": ((_RATE, MONITOR),),
    "monitor.run_trace.self_s": ((_RATE, MONITOR),),
    "monitor.report_serialize.s": ((_RATE, MONITOR),),
    "cli.output_bytes": ((_RSS, MONITOR),),
    "monitor.violations": ((_RATE, MONITOR),),
    "monitor.checked_ratio": ((_RATE, MONITOR),),
    "patterns.decide.calls": ((_RATE, GATED),),
    "patterns.gated_classify.self_s": ((_RATE, GATED),),
    "patterns.spec_decided_ratio": ((_RATE, GATED),),
    "patterns.load_harness.s": ((_SETUP, GATED),),
    "dataset.read_dataset.s": ((_SETUP, GRID),),
    "dataset.categorize_uncertainty.self_s": ((_RATE, GRID),),
    "dataset.closure_states": ((_RATE, GRID),),
    "dataset.new_state_ratio": ((_RATE, GRID),),
    "safetycase.load_graph.s": ((_SETUP, SAFETYCASE),),
    "safetycase.trace_check.s": ((_RATE, SAFETYCASE),),
    "safetycase.node.calls": ((_RATE, SAFETYCASE),),
    "heap.peak_mb": ((_RSS, ALL),),
    "trace.overhead_ratio": ((_RATE, ALL),),
}


def declared() -> dict:
    """BENCHMARK.json: the command, workloads and metrics."""
    return json.loads(DECLARATION.read_text(encoding="utf-8"))
