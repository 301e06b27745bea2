"""Spans around specguard's layers, recorded from outside the program.

install() replaces each layer's public functions with timed wrappers at the
place where their caller looks them up (a module attribute, or a method on
a class) and puts the originals back afterwards; nothing under src/ changes.
Every call becomes a span (name, start, end, parent) kept in flat arrays in
memory and written out at the end. A layer's self time is its spans'
duration minus the part covered by their child spans.

The wrappers cost about a microsecond per call, and that cost lands in the
parent span's self time; trace.overhead_ratio reports the total.
"""
from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time
import types
from array import array
from typing import Any, Callable, Iterator, Optional


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._open = [-1]
        self.counters: dict[str, int] = {}

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, counter: str, n: int = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + n

    def wrap(
        self, name: str, fn: Callable, on_result: Optional[Callable[[Any], None]] = None
    ) -> Callable:
        nid = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def wrap_iterator(self, name: str, fn: Callable, counter: str) -> Callable:
        """A generator function whose every next() is a span of its own."""
        nid = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Iterator:
            inner = fn(*args, **kwargs)
            while True:
                index = len(starts)
                names.append(nid)
                parents.append(stack[-1])
                ends.append(0.0)
                stack.append(index)
                starts.append(clock())
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    ends[index] = clock()
                    stack.pop()
                self.count(counter)
                yield item

        return traced

    def summary(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds)."""
        n = len(self.span_start)
        child = array("d", bytes(8 * n))
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        starts, ends, parents, ids = self.span_start, self.span_end, self.span_parent, self.span_name
        # A child span always has a higher index than its parent, so walking
        # backwards sees every child before its parent.
        for i in range(n - 1, -1, -1):
            duration = ends[i] - starts[i]
            nid = ids[i]
            calls[nid] += 1
            total[nid] += duration
            own[nid] += duration - child[i]
            parent = parents[i]
            if parent >= 0:
                child[parent] += duration
        return {name: (calls[i], total[i], own[i]) for i, name in enumerate(self.names)}

    def durations(self, name: str) -> list[float]:
        nid = self._ids.get(name)
        if nid is None:
            return []
        ids, starts, ends = self.span_name, self.span_start, self.span_end
        return [ends[i] - starts[i] for i in range(len(ids)) if ids[i] == nid]

    def write(self, path: str) -> None:
        """One JSON header line, then the name, parent, start and end arrays."""
        header = {
            "names": self.names,
            "spans": len(self.span_start),
            "arrays": ["name:i32", "parent:i32", "start:f64", "end:f64"],
            "counters": self.counters,
        }
        with open(path, "wb") as out:
            out.write((json.dumps(header) + "\n").encode("utf-8"))
            for column in (self.span_name, self.span_parent, self.span_start, self.span_end):
                column.tofile(out)

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics that spans and counters give (all of
        BENCHMARK.json's but the three measured around the traced call); a
        layer the workload never reached reads 0."""
        summary = self.summary()

        def calls(name: str) -> int:
            return summary.get(name, (0, 0.0, 0.0))[0]

        def total(name: str) -> float:
            return summary.get(name, (0, 0.0, 0.0))[1]

        def own(name: str) -> float:
            return summary.get(name, (0, 0.0, 0.0))[2]

        def ratio(part: float, whole: float) -> float:
            return part / whole if whole > 0 else 0.0

        counters = self.counters
        samples = sorted(self.durations("monitor.check_sample"))
        # The highest percentile with at least ten samples beyond it.
        tail = samples[-11] if len(samples) >= 11 else (samples[-1] if samples else 0.0)
        lines = counters.get("monitor.read_trace.records", 0)
        serialized = total("monitor.to_json_dict")
        if calls("monitor.to_json_dict"):
            serialized += total("cli.json_dumps")
        metrics = {
            "speclang.parse.calls": calls("speclang.parse"),
            "speclang.parse.us_per_call": 1e6 * ratio(total("speclang.parse"), calls("speclang.parse")),
            "speclang.typecheck.calls": calls("speclang.typecheck"),
            "speclang.typecheck.us_per_call": 1e6
            * ratio(total("speclang.typecheck"), calls("speclang.typecheck")),
            "speclang.evaluate_condition.calls": calls("speclang.evaluate_condition"),
            "speclang.evaluate_condition.evals_per_s": ratio(
                calls("speclang.evaluate_condition"), total("speclang.evaluate_condition")
            ),
            "speclang.evaluate_condition.self_s": own("speclang.evaluate_condition"),
            "speclang.to_source.calls": calls("speclang.to_source"),
            "speclang.to_source.self_s": own("speclang.to_source"),
            "speccore.load_spec.s": total("speccore.load_spec"),
            "speccore.conformance_errors.self_s": own("speccore.conformance_errors"),
            "speccore.check_sufficient.self_s": own("speccore.check_sufficient"),
            "speccore.check_necessary.self_s": own("speccore.check_necessary"),
            "speccore.canonical_key.calls": calls("speccore.canonical_key"),
            "speccore.canonical_key.keys_per_s": ratio(
                calls("speccore.canonical_key"), total("speccore.canonical_key")
            ),
            "speccore.canonical_key.self_s": own("speccore.canonical_key"),
            "speccore.apply_transformation.calls": calls("speccore.apply_transformation"),
            "speccore.apply_transformation.self_s": own("speccore.apply_transformation"),
            "speccore.classify.table.calls": calls("speccore.classify.table"),
            "speccore.classify.table.self_s": own("speccore.classify.table"),
            "speccore.classify.expression.calls": calls("speccore.classify.expression"),
            "speccore.classify.expression.self_s": own("speccore.classify.expression"),
            "speccore.load_classifier.s": total("speccore.load_classifier"),
            "monitor.read_trace.records_per_s": ratio(lines, total("monitor.read_trace")),
            "monitor.read_trace.self_s": own("monitor.read_trace"),
            "monitor.check_sample.calls": len(samples),
            "monitor.check_sample.p50_us": 1e6 * statistics.median(samples) if samples else 0.0,
            "monitor.check_sample.tail_us": 1e6 * tail,
            "monitor.check_sample.self_s": own("monitor.check_sample"),
            "monitor.check_batch_probabilistic.self_s": own("monitor.check_batch_probabilistic"),
            "monitor.run_trace.self_s": own("monitor.run_trace"),
            "monitor.report_serialize.s": serialized,
            "monitor.violations": counters.get("monitor.violations", 0),
            "monitor.checked_ratio": ratio(len(samples), lines),
            "patterns.decide.calls": calls("patterns.decide"),
            "patterns.gated_classify.self_s": own("patterns.gated_classify"),
            "patterns.spec_decided_ratio": ratio(
                counters.get("patterns.spec_decided", 0), calls("patterns.decide")
            ),
            "patterns.load_harness.s": total("patterns.load_harness"),
            "dataset.read_dataset.s": total("dataset.read_dataset"),
            "dataset.categorize_uncertainty.self_s": own("dataset.categorize_uncertainty"),
            "dataset.closure_states": counters.get("dataset.closure_states", 0),
            "dataset.new_state_ratio": ratio(
                counters.get("dataset.new_states", 0), calls("speccore.apply_transformation")
            ),
            "safetycase.load_graph.s": total("safetycase.load_graph"),
            "safetycase.trace_check.s": total("safetycase.trace_check"),
            "safetycase.node.calls": calls("safetycase.node"),
        }
        return metrics


class _ClosureCounter:
    """Counts the states dataset.categorize_uncertainty's closure reaches,
    from the keys canonical_key returns: the known inputs' keys come before
    the first transformation, a key computed right after a transformation
    is a new state when it was never seen before, and the probes are keyed
    only once the closure is complete."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.seen: set[str] = set()
        self.after_transform = False

    def transformed(self, _record: Any) -> None:
        self.after_transform = True

    def keyed(self, key: str) -> None:
        if self.after_transform:
            self.after_transform = False
            if key not in self.seen:
                self.tracer.count("dataset.new_states")
            self.seen.add(key)
            self.tracer.counters["dataset.closure_states"] = len(self.seen)
        else:
            self.seen.add(key)


@contextlib.contextmanager
def install(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every layer boundary for the duration of the block."""
    import specguard.cli as cli
    import specguard.dataset as dataset
    import specguard.monitor as monitor
    import specguard.patterns as patterns
    import specguard.speccore.classifiers as classifiers
    import specguard.speccore.spec as spec
    import specguard.speccore.transforms as transforms
    from specguard.process import safetycase

    closure = _ClosureCounter(tracer)

    def count_violations(report: Any) -> None:
        tracer.count("monitor.violations", len(report.violations))

    def count_spec_decided(result: Any) -> None:
        if result[1].value == "SPEC":
            tracer.count("patterns.spec_decided")

    # (owner, attribute, span name, result hook); the owner is where the
    # caller looks the function up.
    targets = [(cli, "main", "cli.main", None)]
    targets += [(m, "load_spec", "speccore.load_spec", None) for m in (cli, patterns)]
    targets += [(m, "load_classifier", "speccore.load_classifier", None) for m in (cli, patterns)]
    targets += [
        (cli, "load_harness", "patterns.load_harness", None),
        (dataset, "read_dataset", "dataset.read_dataset", None),
        (cli, "load_graph", "safetycase.load_graph", None),
    ]
    targets += [(m, "parse", "speclang.parse", None) for m in (spec, classifiers, transforms, dataset)]
    targets += [
        (m, attr, "speclang.typecheck", None)
        for m in (spec, transforms, dataset)
        for attr in ("type_errors", "typecheck")
    ]
    targets += [
        (m, "evaluate_condition", "speclang.evaluate_condition", None)
        for m in (spec, classifiers, patterns, dataset)
    ]
    targets += [
        (m, "to_source", "speclang.to_source", None)
        for m in (monitor, spec, classifiers, transforms, dataset)
    ]
    targets += [
        (monitor, "conformance_errors", "speccore.conformance_errors", None),
        (monitor, "check_sufficient", "speccore.check_sufficient", None),
        (monitor, "check_necessary", "speccore.check_necessary", None),
        (classifiers, "canonical_key", "speccore.canonical_key", None),
        (dataset, "canonical_key", "speccore.canonical_key", closure.keyed),
        (dataset, "apply_transformation", "speccore.apply_transformation", closure.transformed),
        (classifiers.TableClassifier, "classify", "speccore.classify.table", None),
        (classifiers.ExpressionClassifier, "classify", "speccore.classify.expression", None),
        (cli, "run_trace", "monitor.run_trace", count_violations),
        (monitor, "check_sample", "monitor.check_sample", None),
        (monitor, "check_batch_probabilistic", "monitor.check_batch_probabilistic", None),
        (monitor.MonitorReport, "to_json_dict", "monitor.to_json_dict", None),
        (cli, "simulate", "patterns.simulate", None),
        (patterns, "decide", "patterns.decide", count_spec_decided),
        (patterns, "gated_classify", "patterns.gated_classify", None),
        (dataset, "categorize_uncertainty", "dataset.categorize_uncertainty", None),
        (cli, "trace_check", "safetycase.trace_check", None),
        (safetycase.SafetyCaseGraph, "node", "safetycase.node", None),
    ]
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in targets]
    saved += [(cli, "read_trace", cli.read_trace), (cli, "json", cli.json)]
    try:
        for owner, attr, name, hook in targets:
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), hook))
        cli.read_trace = tracer.wrap_iterator(
            "monitor.read_trace", cli.read_trace, "monitor.read_trace.records"
        )
        # The CLI's own json.dumps is the report serialisation; canonical_key's
        # json.dumps goes through the real module and stays untouched.
        json_view = types.SimpleNamespace(**{k: getattr(json, k) for k in json.__all__})
        json_view.dumps = tracer.wrap("cli.json_dumps", json.dumps)
        cli.json = json_view
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
