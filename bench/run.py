"""Seeded end-to-end and per-layer benchmark for specguard.

    python3 bench/run.py                      # all workloads, summary table
    python3 bench/run.py --workload monitor_trace --seed 3 --seconds 25 --trace 0

With --workload, the last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics; --trace 1 makes a separate traced run and reports the
per-layer metrics. Without --workload every workload runs in turn and the
command fails when any output check fails. See bench/README.md.

Every measurement runs in a fresh interpreter (worker.py) on files generated
from the seed; the generator's own answer checks every output.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
WORKER = BENCH / "worker.py"

sys.path.insert(0, str(BENCH))
import metrics  # noqa: E402
from calibrate import scaled  # noqa: E402
from workloads import WORKLOADS, Prepared, Workload  # noqa: E402

SETUP_SHARE = 0.15  # set-up timing per call, as a share of the call's length
SETUP_MIN_LOADS = 2  # load_classifier takes ~1.2 s: still two loads per call
SETUP_BLOCK_S = 0.025  # one set-up sample averages loads over at least this long
MIN_CALLS = 4  # the monitor_trace calls take ~5 s; a median needs at least four
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark could not run (as opposed to the program answering wrong)."""


def _worker(job: dict) -> dict:
    job = {"src": str(SRC), **job}
    try:
        done = subprocess.run(
            [sys.executable, str(WORKER), json.dumps(job)],
            capture_output=True,
            text=True,
            timeout=WORKER_TIMEOUT_S,
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {job['mode']} timed out after {exc.timeout} s") from None
    if done.returncode != 0:
        raise BenchError(f"worker {job['mode']} failed:\n{done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


class _OutputCheck:
    """Checks each call's exit code and stdout: the first output against the
    generator's answer, every later one byte for byte against the first."""

    def __init__(self, workload: Workload, prepared: Prepared) -> None:
        self.workload = workload
        self.prepared = prepared
        self.reference: bytes | None = None
        self.content_ok = False
        self.problems: list[str] = []
        self.failed = 0

    def __call__(self, code: int, out: Path) -> None:
        data = out.read_bytes()
        out.unlink()
        found = []
        if code != self.prepared.expected_code:
            found.append(f"exit code {code}, expected {self.prepared.expected_code}")
        if self.reference is None:
            self.reference = data
            try:
                found += self.workload.check(self.prepared.expected, json.loads(data))
            except (ValueError, KeyError, TypeError) as exc:
                found.append(f"output is not the expected report: {exc!r}")
            self.content_ok = not found
        elif data != self.reference:
            found.append("stdout differs from the first run's")
        elif not self.content_ok:
            found.append("stdout repeats the first run's wrong output")
        if found:
            self.failed += 1
            self.problems += found


def _reported(values: dict, declared: list[dict]) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def measure(
    workload: Workload, prepared: Prepared, work: Path, seconds: float, declared: list[dict]
) -> dict:
    """Untraced run: whole cli.main calls, each in its own process, until the
    time is up. Before each call a set-up process times the loaders for
    SETUP_SHARE of the previous call's length (at least SETUP_MIN_LOADS
    samples), so set-up samples are spread over the same stretch of time as
    the calls. Every time is scaled to the reference host speed by the
    calibration blocks timed next to it (calibrate.py): the host's speed
    wanders by 20-50% over minutes, longer than a run."""
    began = time.perf_counter()
    check = _OutputCheck(workload, prepared)
    rates, raw_rates, peaks, setup_times = [], [], [], []
    longest, last_wall = 0.0, SETUP_BLOCK_S
    while len(rates) < MIN_CALLS or time.perf_counter() - began + longest <= seconds:
        call_began = time.perf_counter()
        setup = _worker(
            {
                "mode": "setup",
                "setup": prepared.setup,
                "budget_s": SETUP_SHARE * last_wall,
                "block_s": SETUP_BLOCK_S,
                "min_reps": SETUP_MIN_LOADS,
            }
        )
        hosts = setup["host_s"]
        setup_times += [
            scaled(t, (hosts[i] + hosts[i + 1]) / 2) for i, t in enumerate(setup["times"])
        ]
        out = work / f"out-{len(rates)}.json"
        result = _worker({"mode": "main", "argv": prepared.argv, "out": str(out)})
        check(result["code"], out)
        last_wall = result["wall_s"]
        raw_rates.append(prepared.records / last_wall)
        rates.append(prepared.records / scaled(last_wall, statistics.mean(result["host_s"])))
        peaks.append(result["peak_rss_mb"])
        longest = max(longest, time.perf_counter() - call_began)
    print(
        f"{workload.name}: unscaled records_per_s {statistics.median(raw_rates):.6g}",
        file=sys.stderr,
    )
    values = {
        "records_per_s": statistics.median(rates),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": statistics.median(peaks),
    }
    return {
        "correct": check.failed == 0,
        "attempted": len(rates),
        "failed": check.failed,
        "metrics": _reported(values, declared),
        "problems": check.problems,
    }


def measure_traced(
    workload: Workload, prepared: Prepared, work: Path, declared: list[dict]
) -> dict:
    """Traced run: one untraced call for the baseline wall time, one call with
    spans for the per-layer metrics, one under tracemalloc for the heap."""
    check = _OutputCheck(workload, prepared)
    out = work / "out-plain.json"
    plain = _worker({"mode": "main", "argv": prepared.argv, "out": str(out)})
    output_bytes = out.stat().st_size
    check(plain["code"], out)
    out = work / "out-traced.json"
    spans = WORK / f"spans-{workload.name}.bin"
    traced = _worker(
        {"mode": "trace", "argv": prepared.argv, "out": str(out), "spans": str(spans)}
    )
    check(traced["code"], out)
    out = work / "out-heap.json"
    heap = _worker({"mode": "heap", "argv": prepared.argv, "out": str(out)})
    check(heap["code"], out)
    values = dict(traced["metrics"])
    values["cli.output_bytes"] = output_bytes
    values["heap.peak_mb"] = heap["heap_peak_mb"]
    values["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
    return {
        "correct": check.failed == 0,
        "attempted": 3,
        "failed": check.failed,
        "metrics": _reported(values, declared),
        "problems": check.problems,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (SRC / "specguard" / "cli.py").is_file():
        raise BenchError(f"no specguard sources under {SRC}")
    try:
        declared = metrics.declared()["per_layer" if trace else "end_to_end"]
    except (OSError, ValueError, KeyError) as exc:
        raise BenchError(f"cannot read the metrics from {metrics.DECLARATION}: {exc}") from None
    workload = WORKLOADS[name]
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        prepared = workload.generate(seed, work)
        if trace:
            return measure_traced(workload, prepared, work, declared)
        return measure(workload, prepared, work, seconds, declared)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = [args.workload] if args.workload else list(WORKLOADS)
    results: dict[str, Any] = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for name, result in results.items():
        for problem in result.pop("problems")[:10]:
            print(f"{name}: {problem}", file=sys.stderr)
    if args.workload:
        print(json.dumps(results[args.workload]))
    else:
        for name, result in results.items():
            shown = "  ".join(
                f"{metric}={entry['value']:.6g} {entry['unit']}"
                for metric, entry in result["metrics"].items()
            )
            status = "ok" if result["correct"] else f"FAILED {result['failed']}/{result['attempted']}"
            print(f"{name:18s} {status:8s} {shown}  (records: {WORKLOADS[name].unit})")
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
