"""One measured job in a fresh interpreter, so that every measurement sees a
process that ran nothing but specguard.

Usage: python3 worker.py '<job JSON>'

The job names the repository's src directory and a mode:

- main:  run specguard.cli.main(argv) once with stdout sent to a file, with
         the host's speed (calibrate.host_time) taken just before and after.
- setup: call the public loaders on the workload's files over and over for
         budget_s seconds (at least min_reps times), timing each round and
         the host's speed between rounds.
- trace: like main, with spans recorded around each layer (see tracer.py).
- heap:  like main, under tracemalloc, for the peak traced heap.

Interpreter start-up and imports are never timed. The result is one JSON
object on the real stdout.
"""
from __future__ import annotations

import contextlib
import json
import sys
import time

from calibrate import host_time

HOST_BLOCKS = 3  # calibration blocks timed on each side of a cli.main call


def _run_main(argv: list[str], out_path: str) -> tuple[int, float]:
    from specguard import cli

    with open(out_path, "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
        start = time.perf_counter()
        code = cli.main(argv)
        out.flush()
        wall = time.perf_counter() - start
    return code, wall


def _peak_rss_mb() -> float:
    """This process's peak resident set size. It comes from VmHWM, not from
    getrusage: on Linux, ru_maxrss also carries the parent's high-water mark
    across fork and exec, so a child of a large parent would read large."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("/proc/self/status has no VmHWM line")


def _loaders() -> dict:
    from specguard.dataset import read_dataset
    from specguard.patterns import load_harness
    from specguard.process.safetycase import load_graph
    from specguard.speccore.classifiers import load_classifier
    from specguard.speccore.spec import load_spec

    return {
        "load_spec": load_spec,
        "load_harness": load_harness,
        "load_classifier": load_classifier,
        "read_dataset": read_dataset,
        "load_graph": load_graph,
    }


def run_job(job: dict) -> dict:
    sys.path.insert(0, job["src"])
    mode = job["mode"]
    if mode == "main":
        host_time()  # warm-up: the first block in a process runs cold
        before = [host_time() for _ in range(HOST_BLOCKS)]
        code, wall = _run_main(job["argv"], job["out"])
        peak = _peak_rss_mb()
        after = [host_time() for _ in range(HOST_BLOCKS)]
        return {"code": code, "wall_s": wall, "peak_rss_mb": peak, "host_s": before + after}
    if mode == "setup":
        loaders = _loaders()
        steps = [(loaders[name], path) for name, path in job["setup"]]
        times: list[float] = []
        host_time()  # warm-up, as in main
        hosts = [host_time()]
        began = time.perf_counter()
        while len(times) < job["min_reps"] or time.perf_counter() - began < job["budget_s"]:
            # One sample is the mean over a block of loads lasting at least
            # block_s, so that the collector's share of loading is counted
            # evenly instead of landing on a few unlucky samples.
            start, loads = time.perf_counter(), 0
            while not loads or time.perf_counter() - start < job["block_s"]:
                for load, path in steps:
                    load(path)
                loads += 1
            times.append((time.perf_counter() - start) / loads)
            hosts.append(host_time())
        return {"times": times, "host_s": hosts}
    if mode == "trace":
        from tracer import Tracer, install

        tracer = Tracer()
        with install(tracer):
            code, wall = _run_main(job["argv"], job["out"])
        tracer.write(job["spans"])
        return {"code": code, "wall_s": wall, "metrics": tracer.layer_metrics()}
    if mode == "heap":
        import tracemalloc

        tracemalloc.start()
        code, _ = _run_main(job["argv"], job["out"])
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return {"code": code, "heap_peak_mb": peak / 2**20}
    raise ValueError(f"unknown worker mode {mode!r}")


if __name__ == "__main__":
    print(json.dumps(run_job(json.loads(sys.argv[1]))))
