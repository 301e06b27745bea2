"""Tests for the benchmark itself: seeded generation, the output checks, the
tracer, the host-speed calibration and the metric definitions.
Run with: python3 -m pytest bench/tests"""
from __future__ import annotations

import contextlib
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import calibrate  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer, install  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from specguard import cli  # noqa: E402

# Small sizes keep the tests fast; every planted scenario still occurs.
SMALL = {
    "monitor_trace": {"lines": 3000},
    "gated_simulate": {"records": 600},
    "grid_uncertainty": {"known_count": 10, "probe_count": 120},
    "deep_safetycase": {"hazards": 10, "goals": 12, "chains": 25},
}

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _generate(name: str, seed: int, directory: Path):
    directory.mkdir()
    return WORKLOADS[name].generate(seed, directory, **SMALL[name])


def _files(directory: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(directory)): p.read_bytes()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


def _run_cli(argv: list[str]) -> tuple[int, str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_files_other_seed_other_files(name, tmp_path):
    _generate(name, 5, tmp_path / "a")
    _generate(name, 5, tmp_path / "b")
    _generate(name, 6, tmp_path / "c")
    first, again, other = (_files(tmp_path / d) for d in "abc")
    assert first == again
    assert first.keys() == other.keys()
    assert first != other


def _corrupt_monitor(payload: dict) -> None:
    payload["violations"].pop(3)


def _corrupt_gated(payload: dict) -> None:
    payload["mismatches"][0]["source"] = "SPEC" if payload["mismatches"][0]["source"] == "ML" else "ML"


def _corrupt_grid(payload: dict) -> None:
    probe = next(p for p in payload["per_probe"] if p["category"] == "KNOWN_UNKNOWN")
    probe["depth"] += 1


def _corrupt_safetycase(payload: dict) -> None:
    payload["gaps"].pop()


CORRUPTIONS = {
    "monitor_trace": _corrupt_monitor,
    "gated_simulate": _corrupt_gated,
    "grid_uncertainty": _corrupt_grid,
    "deep_safetycase": _corrupt_safetycase,
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_check_accepts_the_program_and_rejects_a_corrupted_report(name, tmp_path):
    workload = WORKLOADS[name]
    prepared = _generate(name, 3, tmp_path / "w")
    code, out = _run_cli(prepared.argv)
    assert code == prepared.expected_code
    assert workload.check(prepared.expected, json.loads(out)) == []
    corrupted = json.loads(out)
    CORRUPTIONS[name](corrupted)
    assert workload.check(prepared.expected, corrupted) != []


def _reword_condition(violation: dict) -> None:
    violation["detail"]["condition"] = violation["detail"]["condition"].replace("<", "<=", 1)


def _swap_prediction(violation: dict) -> None:
    detail = violation["detail"]
    detail["predicted"] = "pedestrian" if detail["predicted"] != "pedestrian" else "vehicle"


def _shift_window_mean(violation: dict) -> None:
    violation["detail"]["observed_mean"] += 0.01


def _drop_error_text(violation: dict) -> None:
    violation["detail"]["error"] = ""


@pytest.mark.parametrize(
    "kind, corrupt",
    [
        ("NECESSARY", _reword_condition),
        ("SUFFICIENT", _swap_prediction),
        ("PROBABILISTIC", _shift_window_mean),
        ("EVAL_ERROR", _drop_error_text),
    ],
)
def test_monitor_check_reads_each_violation_detail(kind, corrupt, tmp_path):
    workload = WORKLOADS["monitor_trace"]
    prepared = _generate("monitor_trace", 3, tmp_path / "w")
    _, out = _run_cli(prepared.argv)
    payload = json.loads(out)
    for violation in payload["violations"]:
        if violation["kind"] == kind and (
            kind != "PROBABILISTIC" or violation["detail"]["constraint"] == "mean"
        ) and (kind != "EVAL_ERROR" or "error" in violation["detail"]):
            corrupt(violation)
            break
    else:
        pytest.fail(f"no {kind} violation to corrupt")
    assert workload.check(prepared.expected, payload) != []


def test_output_check_counts_a_differing_or_wrong_run_as_failed(tmp_path):
    name = "deep_safetycase"
    prepared = _generate(name, 4, tmp_path / "w")
    code, out = _run_cli(prepared.argv)
    check = run._OutputCheck(WORKLOADS[name], prepared)
    target = tmp_path / "out.json"
    for text in (out, out, out.replace('"ok": false', '"ok": true')):
        target.write_text(text, encoding="utf-8")
        check(code, target)
    target.write_text(out, encoding="utf-8")
    check(code + 1, target)
    assert check.failed == 2

    wrong = run._OutputCheck(WORKLOADS[name], prepared)
    corrupted = json.loads(out)
    _corrupt_safetycase(corrupted)
    for _ in range(2):
        target.write_text(json.dumps(corrupted), encoding="utf-8")
        wrong(code, target)
    assert wrong.failed == 2


def test_worker_peak_rss_is_its_own_not_its_parents(tmp_path):
    prepared = _generate("deep_safetycase", 1, tmp_path / "w")
    ballast = b"x" * (160 * 2**20)  # resident in this process while the worker runs
    result = run._worker({"mode": "main", "argv": prepared.argv, "out": str(tmp_path / "o.json")})
    del ballast
    assert result["code"] == prepared.expected_code
    assert 5 < result["peak_rss_mb"] < 100
    assert len(result["host_s"]) == 2 * worker.HOST_BLOCKS
    assert all(h > 0 for h in result["host_s"])


def test_calibration_is_independent_of_the_program():
    # A change to specguard must not change the yardstick it is measured by.
    probe = "import sys, calibrate; calibrate.host_time(); print(sorted(sys.modules))"
    done = subprocess.run(
        [sys.executable, "-c", probe], cwd=BENCH, capture_output=True, text=True, check=True
    )
    assert "specguard" not in done.stdout


def test_times_are_scaled_to_the_reference_host_speed():
    assert calibrate.scaled(2.0, calibrate.REFERENCE_S) == 2.0
    # On a host half as fast the block takes twice as long, and so does the call.
    assert calibrate.scaled(4.0, 2 * calibrate.REFERENCE_S) == pytest.approx(2.0)


def test_benchmark_json_fits_the_contract():
    spec = metrics.declared()
    assert spec["command"] == ["python3", "bench/run.py"]
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    e2e = [m["name"] for m in spec["end_to_end"]]
    layer = [m["name"] for m in spec["per_layer"]]
    assert 1 <= len(e2e) <= 16 and 1 <= len(layer) <= 128
    names = e2e + layer + list(WORKLOADS)
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(n) for n in names)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_every_layer_metric_names_what_it_should_move():
    spec = metrics.declared()
    e2e = {m["name"] for m in spec["end_to_end"]}
    assert list(metrics.MOVES) == [m["name"] for m in spec["per_layer"]]
    for name, moves in metrics.MOVES.items():
        assert moves, name
        for target, workloads in moves:
            assert target in e2e, name
            assert workloads and set(workloads) <= set(WORKLOADS), name


def test_self_time_is_span_time_minus_child_spans():
    tracer = Tracer()
    clock = iter([0.0, 1.0, 3.0, 10.0])
    import tracer as tracer_module

    real = tracer_module.time.perf_counter
    tracer_module.time.perf_counter = lambda: next(clock)
    try:
        inner = tracer.wrap("inner", lambda: None)
        outer = tracer.wrap("outer", lambda: inner())
    finally:
        tracer_module.time.perf_counter = real
    # The wrappers bound the clock when they were made.
    outer()
    summary = tracer.summary()
    assert summary["outer"] == (1, 10.0, 8.0)
    assert summary["inner"] == (1, 2.0, 2.0)


@pytest.mark.parametrize("name", ["monitor_trace", "gated_simulate", "grid_uncertainty"])
def test_traced_run_reports_every_layer_metric_and_restores_the_program(name, tmp_path):
    prepared = _generate(name, 2, tmp_path / "w")
    original = cli.read_trace, cli.main, cli.json
    tracer = Tracer()
    with install(tracer):
        code, traced_out = _run_cli(prepared.argv)
    assert (cli.read_trace, cli.main, cli.json) == original
    plain_code, plain_out = _run_cli(prepared.argv)
    assert (code, traced_out) == (plain_code, plain_out)
    values = tracer.layer_metrics()
    # The rest are measured around the traced call, not by spans inside it.
    around = {"cli.output_bytes", "heap.peak_mb", "trace.overhead_ratio"}
    assert set(values) | around == set(metrics.MOVES)
    for layer, (_, total, own) in tracer.summary().items():
        assert 0 <= own <= total + 1e-9, layer
    if name == "monitor_trace":
        assert values["monitor.check_sample.calls"] > 0
        assert values["monitor.violations"] == len(json.loads(plain_out)["violations"])
    if name == "gated_simulate":
        assert values["patterns.decide.calls"] == SMALL[name]["records"]
    if name == "grid_uncertainty":
        assert values["dataset.closure_states"] > SMALL[name]["known_count"]
        assert 0 < values["dataset.new_state_ratio"] <= 1
