"""Seeded input generators and independent output checks, one per workload.

Each generator writes a workload's input files into a directory from a seed
(the same seed gives byte-identical files) and returns the answer the
program must give. The answer comes from the generator's own construction:
it plants every violation, decision, category and gap on purpose and works
out the expected result with plain-Python mirrors of the spec's conditions,
never by calling specguard. Each condition below is therefore written twice,
once as spec source for the program and once as the predicate the generator
uses; the generator also asserts that every planted record lands in the
scenario it was planted for.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable


@dataclass
class Prepared:
    """One generated workload, ready to run."""

    argv: list[str]  # arguments for specguard.cli.main
    records: int  # input size in the workload's record unit
    setup: list[list[str]]  # [loader, path] pairs whose loading is set-up work
    expected_code: int
    expected: Any  # the workload's own answer, read by its check function


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str  # the record unit of records_per_s
    generate: Callable[..., Prepared]
    check: Callable[[Any, dict], list[str]]  # problems found; empty when correct


def _write_json(path: Path, data: Any) -> None:
    path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")


def _mismatch(what: str, got: Any, want: Any) -> str:
    return f"{what}: got {got!r}, expected {want!r}"


# --------------------------------------------------------------------------
# pedestrian-style spec shared by monitor_trace and gated_simulate

LABELS = ("pedestrian", "cyclist", "vehicle")
ZONES = ("urban", "rural", "highway")

PED_SCHEMA = {
    "fields": {
        "height": {"type": "number"},
        "width": {"type": "number"},
        "speed": {"type": "number"},
        "distance": {"type": "number"},
        "brightness": {"type": "number"},
        "lane": {"type": "integer"},
        "zone": {"type": "category", "values": list(ZONES)},
    },
    "labels": list(LABELS),
}

PRECONDITION = (
    "input.distance > 0.5 && input.distance < 60 && max(input.width, input.height) < 6"
    " && input.lane <= 3",
    lambda f: 0.5 < f["distance"] < 60 and max(f["width"], f["height"]) < 6 and f["lane"] <= 3,
)
POSTCONDITION = ("output.confidence >= 0.3", lambda confidence: confidence >= 0.3)
SUFFICIENT = {
    "pedestrian": [
        (
            "input.height > 1.2 && input.height < 2.1 && input.width < 0.8 && input.speed < 3",
            lambda f: 1.2 < f["height"] < 2.1 and f["width"] < 0.8 and f["speed"] < 3,
        )
    ],
    "cyclist": [
        (
            "input.speed >= 4 && input.speed < 9 && input.width < 1 && input.height > 1.4",
            lambda f: 4 <= f["speed"] < 9 and f["width"] < 1 and f["height"] > 1.4,
        )
    ],
    "vehicle": [
        ("input.width > 1.5", lambda f: f["width"] > 1.5),
        ("input.speed > 12", lambda f: f["speed"] > 12),
    ],
}
NECESSARY = {
    "pedestrian": [
        ("input.speed < 4", lambda f: f["speed"] < 4),
        ("input.width < 1.2", lambda f: f["width"] < 1.2),
    ],
    "cyclist": [("input.speed < 12", lambda f: f["speed"] < 12)],
    "vehicle": [("input.width > 0.6", lambda f: f["width"] > 0.6)],
}
RANGE = {"field": "distance", "kind": "range", "lo": 0.5, "hi": 60, "max_violation_fraction": 0.2}
MEAN = {"field": "brightness", "kind": "mean", "expected": 0.5, "tolerance": 0.15}


def _ped_spec_json() -> dict:
    return {
        "schema": PED_SCHEMA,
        "precondition": PRECONDITION[0],
        "postcondition": POSTCONDITION[0],
        "sufficient": {label: [c[0] for c in conds] for label, conds in SUFFICIENT.items()},
        "necessary": {label: [c[0] for c in conds] for label, conds in NECESSARY.items()},
        "invariants": [],
        "equivariants": [],
        "probabilistic": [RANGE, MEAN],
    }


def _pick(rng: random.Random, mix: tuple, rest: str) -> str:
    """A name drawn from (name, share) pairs; rest takes the remaining share."""
    draw = rng.random()
    for name, share in mix:
        if draw < share:
            return name
        draw -= share
    return rest


def _u(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 3)


# Value ranges per class that satisfy that class's own sufficient condition
# and nothing that contradicts it.
_CLASS_SHAPES = {
    "pedestrian": {"height": (1.3, 2.0), "width": (0.3, 0.7), "speed": (0.0, 2.5)},
    "cyclist": {"height": (1.5, 1.9), "width": (0.4, 0.9), "speed": (4.5, 8.5)},
    "vehicle": {"height": (1.2, 3.5), "width": (1.6, 2.5), "speed": (0.0, 30.0)},
}


def _ped_fields(rng: random.Random, shape: dict, brightness: tuple[float, float]) -> dict:
    fields = {name: _u(rng, lo, hi) for name, (lo, hi) in shape.items()}
    fields["distance"] = _u(rng, 1.0, 55.0)
    fields["brightness"] = _u(rng, *brightness)
    fields["lane"] = rng.randint(0, 3)
    fields["zone"] = rng.choice(ZONES)
    return fields


# --------------------------------------------------------------------------
# monitor_trace

MONITOR_LINES = 100_000
MONITOR_WINDOW = 100
MONITOR_POLICY = {"on_post_class_violation": "FAILSAFE", "probabilistic_window": MONITOR_WINDOW}

# Planted share of trace lines per scenario; the rest are clean records.
_MONITOR_RATES = (
    ("malformed", 0.005),
    ("conformance", 0.010),
    ("pre", 0.020),
    ("post", 0.015),
    ("no_confidence", 0.005),
    ("sufficient", 0.015),
    ("necessary", 0.015),
)
# Inside a range-burst window, precondition failures (out-of-range
# distances) are common enough to break the range constraint.
_BURST_RATES = tuple((name, 0.35 if name == "pre" else rate) for name, rate in _MONITOR_RATES)


def _range_burst(window: int) -> bool:
    return window % 40 == 7


def _mean_shift(window: int) -> bool:
    return window % 60 == 23


# Stands for a program-written error message in an expected violation
# detail: any non-empty text, or a non-empty list of texts.
SOME_TEXT = "<some text>"


def _sample_violations(fields: dict, label: str, confidence: Any) -> list[tuple[str, dict]]:
    """Mirror of monitor.check_sample: (kind, detail) per violation, in order."""
    if not PRECONDITION[1](fields):
        return [("PRE", {"condition": PRECONDITION[0], "output_untrusted": True})]
    found = []
    if confidence is None:
        found.append(("EVAL_ERROR", {"stage": "post", "error": SOME_TEXT}))
    elif not POSTCONDITION[1](confidence):
        found.append(("POST", {"condition": POSTCONDITION[0], "predicted": label}))
    for other, conds in SUFFICIENT.items():
        if other == label:
            continue
        for j, (source, holds) in enumerate(conds):
            if holds(fields):
                detail = {"label": other, "index": j, "condition": source, "predicted": label}
                found.append(("SUFFICIENT", detail))
    for j, (source, holds) in enumerate(NECESSARY.get(label, ())):
        if not holds(fields):
            found.append(("NECESSARY", {"label": label, "index": j, "condition": source}))
    return found


def _window_violations(window: list[dict], index: int) -> list[tuple[str, dict]]:
    """Mirror of monitor.check_batch_probabilistic for one full window."""
    found = []
    values = [float(f[RANGE["field"]]) for f in window]
    outside = sum(1 for v in values if not RANGE["lo"] <= v <= RANGE["hi"])
    if outside / len(values) > RANGE["max_violation_fraction"]:
        detail = {
            "field": RANGE["field"],
            "constraint": "range",
            "lo": RANGE["lo"],
            "hi": RANGE["hi"],
            "observed_fraction": outside / len(values),
            "allowed_fraction": RANGE["max_violation_fraction"],
            "samples": len(values),
            "window": index,
        }
        found.append(("PROBABILISTIC", detail))
    values = [float(f[MEAN["field"]]) for f in window]
    mean = sum(values) / len(values)
    if abs(mean - MEAN["expected"]) > MEAN["tolerance"]:
        detail = {
            "field": MEAN["field"],
            "constraint": "mean",
            "expected": MEAN["expected"],
            "tolerance": MEAN["tolerance"],
            "observed_mean": mean,
            "samples": len(values),
            "window": index,
        }
        found.append(("PROBABILISTIC", detail))
    return found


_STATE_RANK = {"NOMINAL": 0, "DEGRADED": 1, "FAILSAFE": 2}
_KIND_STATE = {
    "PRE": "NOMINAL",  # MARK_UNTRUSTED, the default
    "POST": "FAILSAFE",
    "SUFFICIENT": "FAILSAFE",
    "NECESSARY": "FAILSAFE",
    "PROBABILISTIC": "DEGRADED",
    "EVAL_ERROR": "DEGRADED",
}


def _malformed_line(rng: random.Random, rid: str) -> str:
    good_input = {"height": 1.5, "width": 0.5, "speed": 1.0}
    variants = (
        lambda: '{"id": "%s", "input": {"height": 1.5, "width"' % rid,
        lambda: "[1, 2, 3]",
        lambda: json.dumps({"input": good_input, "output": {"label": "pedestrian"}}),
        lambda: json.dumps({"id": rid, "input": good_input, "output": {"confidence": 0.9}}),
        lambda: json.dumps(
            {"id": rid, "input": good_input, "output": {"label": "vehicle", "confidence": "high"}}
        ),
        lambda: json.dumps({"id": rid, "input": [1, 2], "output": {"label": "cyclist"}}),
    )
    return rng.choice(variants)()


def _break_conformance(rng: random.Random, fields: dict, output: dict) -> None:
    variant = rng.randrange(7)
    if variant == 0:
        del fields["brightness"]
    elif variant == 1:
        fields["colour"] = "red"
    elif variant == 2:
        fields["speed"] = "fast"
    elif variant == 3:
        fields["zone"] = "tunnel"
    elif variant == 4:
        fields["lane"] = 1.5
    elif variant == 5:
        output["label"] = "truck"
    else:
        output["confidence"] = 1.4


def _planted_record(rng: random.Random, scenario: str, brightness: tuple) -> tuple[dict, str]:
    """Input fields and predicted label for one conforming record."""
    if scenario == "sufficient":
        if rng.random() < 0.5:
            shape = dict(_CLASS_SHAPES["cyclist"], width=(0.65, 0.9))
            return _ped_fields(rng, shape, brightness), "vehicle"
        return _ped_fields(rng, _CLASS_SHAPES["pedestrian"], brightness), "cyclist"
    if scenario == "necessary":
        shape = {"height": (1.0, 1.8), "width": (1.0, 1.15), "speed": (5.0, 11.0)}
        return _ped_fields(rng, shape, brightness), "pedestrian"
    label = rng.choice(LABELS)
    fields = _ped_fields(rng, _CLASS_SHAPES[label], brightness)
    if scenario == "pre":
        fields["distance"] = _u(rng, 61.0, 79.0)
    return fields, label


_PLANTED_KIND = {
    "clean": None,
    "pre": "PRE",
    "post": "POST",
    "no_confidence": "EVAL_ERROR",
    "sufficient": "SUFFICIENT",
    "necessary": "NECESSARY",
}


def generate_monitor_trace(seed: int, directory: Path, lines: int = MONITOR_LINES) -> Prepared:
    rng = random.Random(f"monitor_trace:{seed}")
    spec_path, trace_path, policy_path = (
        directory / "spec.json",
        directory / "trace.jsonl",
        directory / "policy.json",
    )
    _write_json(spec_path, _ped_spec_json())
    _write_json(policy_path, MONITOR_POLICY)

    state = "NOMINAL"
    violations: list[tuple] = []

    def absorb(rid: Any, found: list[tuple[str, dict]]) -> None:
        nonlocal state
        already_failsafe = state == "FAILSAFE"
        for kind, detail in found:
            if _STATE_RANK[_KIND_STATE[kind]] > _STATE_RANK[state]:
                state = _KIND_STATE[kind]
            violations.append((rid, kind, already_failsafe, detail))

    window: list[dict] = []
    window_index = 0
    out = []
    for n in range(1, lines + 1):
        rid = f"r{n:06d}"
        mix = _BURST_RATES if _range_burst(window_index) else _MONITOR_RATES
        scenario = _pick(rng, mix, "clean")
        if scenario == "malformed":
            out.append(_malformed_line(rng, rid))
            absorb(None, [("EVAL_ERROR", {"stage": "trace", "line": n, "error": SOME_TEXT})])
            continue
        brightness = (0.75, 0.95) if _mean_shift(window_index) else (0.3, 0.7)
        fields, label = _planted_record(rng, scenario, brightness)
        output: dict = {"label": label}
        if scenario == "post":
            output["confidence"] = _u(rng, 0.05, 0.25)
        elif scenario != "no_confidence":
            output["confidence"] = _u(rng, 0.5, 0.99)
        if scenario == "conformance":
            _break_conformance(rng, fields, output)
            absorb(rid, [("EVAL_ERROR", {"stage": "conformance", "errors": SOME_TEXT})])
        else:
            found = _sample_violations(fields, label, output.get("confidence"))
            want = _PLANTED_KIND[scenario]
            if [kind for kind, _ in found] != ([want] if want else []):
                raise RuntimeError(f"generator planted {scenario} on {rid} but built {found}")
            absorb(rid, found)
            window.append(fields)
            if len(window) == MONITOR_WINDOW:
                absorb(None, _window_violations(window, window_index))
                window = []
                window_index += 1
        out.append(json.dumps({"id": rid, "input": fields, "output": output}))
    trace_path.write_text("\n".join(out) + "\n", encoding="utf-8")

    counts = {kind: 0 for kind in _KIND_STATE}
    for violation in violations:
        counts[violation[1]] += 1
    expected = {
        "final_state": state,
        "records_processed": lines,
        "counts": counts,
        "violations": violations,
    }
    return Prepared(
        argv=[
            "monitor", "run",
            "--spec", str(spec_path),
            "--trace", str(trace_path),
            "--policy", str(policy_path),
        ],
        records=lines,
        setup=[["load_spec", str(spec_path)]],
        expected_code=1 if violations else 0,
        expected=expected,
    )


def _same_value(got: Any, want: Any, key: str) -> bool:
    if want == SOME_TEXT:
        texts = got if isinstance(got, list) else [got]
        return bool(got) and all(isinstance(t, str) and t for t in texts)
    if key == "condition":
        # to_source's rendering, compared up to whitespace
        return isinstance(got, str) and got.split() == want.split()
    if isinstance(want, bool) or isinstance(got, bool):
        return got is want
    if isinstance(want, (int, float)):
        return isinstance(got, (int, float)) and math.isclose(got, want, rel_tol=1e-9)
    return got == want


def _violation_matches(got: Any, want: tuple) -> bool:
    rid, kind, post_failsafe, detail = want
    if not isinstance(got, dict) or (
        got.get("record_id"), got.get("kind"), got.get("post_failsafe")
    ) != (rid, kind, post_failsafe):
        return False
    have = got.get("detail")
    return (
        isinstance(have, dict)
        and have.keys() == detail.keys()
        and all(_same_value(have[key], value, key) for key, value in detail.items())
    )


def check_monitor_trace(expected: dict, payload: dict) -> list[str]:
    problems = []
    for key in ("final_state", "records_processed", "counts"):
        if payload.get(key) != expected[key]:
            problems.append(_mismatch(key, payload.get(key), expected[key]))
    got = payload.get("violations", [])
    want = expected["violations"]
    first = next(
        (i for i, (g, w) in enumerate(zip(got, want)) if not _violation_matches(g, w)),
        min(len(got), len(want)),
    )
    if first < len(got) or first < len(want):
        shown = got[first] if first < len(got) else None
        problems.append(
            f"violations differ from position {first} ({len(got)} reported, "
            f"{len(want)} expected): got {shown!r}, expected {want[first] if first < len(want) else None!r}"
        )
    return problems


# --------------------------------------------------------------------------
# gated_simulate

GATED_RECORDS = 50_000
ML_RULES = (
    ("input.width > 1.3", "vehicle", 0.8, lambda f: f["width"] > 1.3),
    ("input.speed > 3.5", "cyclist", 0.7, lambda f: f["speed"] > 3.5),
)
ML_DEFAULT = ("pedestrian", 0.6)

# Domain scenarios: which part of gated_classify decides the record.
_GATED_SHAPES = {
    "sufficient": None,  # a class shape: exactly one sufficient condition holds
    "elimination": {"height": (0.9, 1.3), "width": (0.35, 0.55), "speed": (4.2, 11.5)},
    "ml": {"height": (0.8, 1.15), "width": (0.65, 1.45), "speed": (0.0, 3.8)},
}
_GATED_MIX = (("sufficient", 0.40), ("elimination", 0.25), ("ml", 0.35))
_ORACLE_FLIP = 0.01  # share of spec-decided records whose true label disagrees


def _gated_decision(fields: dict) -> tuple[str, str, str]:
    """Mirror of patterns.gated_classify: (label, source, deciding step)."""
    satisfied = [
        label for label, conds in SUFFICIENT.items() if any(holds(fields) for _, holds in conds)
    ]
    if len(satisfied) > 1:
        raise RuntimeError(f"generator built an input on which {satisfied} all hold")
    if satisfied:
        return satisfied[0], "SPEC", "sufficient"
    remaining = [
        label
        for label in LABELS
        if all(holds(fields) for _, holds in NECESSARY.get(label, ()))
    ]
    if len(remaining) == 1:
        return remaining[0], "SPEC", "elimination"
    for _, label, _, holds in ML_RULES:
        if holds(fields):
            return label, "ML", "ml"
    return ML_DEFAULT[0], "ML", "ml"


def _true_label(fields: dict) -> str:
    """The oracle's ground truth on an ML-decided input: close to the ML
    rules, with different thresholds so the ML component is sometimes wrong."""
    if fields["width"] > 1.25:
        return "vehicle"
    if fields["speed"] > 3.0:
        return "cyclist"
    return "pedestrian"


def generate_gated_simulate(seed: int, directory: Path, records: int = GATED_RECORDS) -> Prepared:
    rng = random.Random(f"gated_simulate:{seed}")
    _write_json(directory / "spec.json", _ped_spec_json())
    _write_json(
        directory / "ml.json",
        {
            "kind": "expression",
            "rules": [
                {"condition": c, "label": label, "confidence": conf} for c, label, conf, _ in ML_RULES
            ],
            "default": {"label": ML_DEFAULT[0], "confidence": ML_DEFAULT[1]},
        },
    )
    harness_path = directory / "harness.json"
    _write_json(harness_path, {"pattern": "gated", "spec": "spec.json", "ml": "ml.json"})

    seen: set = set()
    domain_lines, entries = [], []
    per_source: dict[str, dict[str, int]] = {}
    mismatches = []
    for n in range(1, records + 1):
        rid = f"d{n:06d}"
        scenario = _pick(rng, _GATED_MIX, "ml")
        while True:
            shape = _GATED_SHAPES[scenario]
            if shape is None:
                shape = _CLASS_SHAPES[rng.choice(LABELS)]
            fields = _ped_fields(rng, shape, (0.3, 0.7))
            identity = tuple(sorted(fields.items()))
            if identity not in seen:
                seen.add(identity)
                break
        label, source, step = _gated_decision(fields)
        if step != scenario:
            raise RuntimeError(f"generator planted {scenario} on {rid} but built {step}")
        if source == "ML":
            truth = _true_label(fields)
        elif rng.random() < _ORACLE_FLIP:
            truth = rng.choice([other for other in LABELS if other != label])
        else:
            truth = label
        bucket = per_source.setdefault(source, {"records": 0, "mismatches": 0})
        bucket["records"] += 1
        if truth != label:
            bucket["mismatches"] += 1
            mismatches.append((rid, source))
        domain_lines.append(json.dumps({"id": rid, "input": fields}))
        entries.append({"input": fields, "label": truth})
    domain_path = directory / "domain.jsonl"
    domain_path.write_text("\n".join(domain_lines) + "\n", encoding="utf-8")
    oracle_path = directory / "oracle.json"
    oracle_path.write_text(json.dumps({"kind": "table", "entries": entries}) + "\n", "utf-8")
    return Prepared(
        argv=[
            "patterns", "simulate",
            "--harness", str(harness_path),
            "--domain", str(domain_path),
            "--oracle", str(oracle_path),
        ],
        records=records,
        setup=[["load_harness", str(harness_path)], ["load_classifier", str(oracle_path)]],
        expected_code=1 if mismatches else 0,
        expected={"total": records, "per_source": per_source, "mismatches": mismatches},
    )


def check_gated_simulate(expected: dict, payload: dict) -> list[str]:
    problems = []
    if payload.get("total") != expected["total"]:
        problems.append(_mismatch("total", payload.get("total"), expected["total"]))
    if payload.get("per_source") != expected["per_source"]:
        problems.append(
            _mismatch("per_source", payload.get("per_source"), expected["per_source"])
        )
    if payload.get("errors") != []:
        problems.append(_mismatch("errors", payload.get("errors"), []))
    got = [(m["record"], m["source"]) for m in payload.get("mismatches", [])]
    if got != expected["mismatches"]:
        problems.append(
            f"mismatch list differs ({len(got)} reported, {len(expected['mismatches'])} expected)"
        )
    if payload.get("mismatch_count") != len(expected["mismatches"]):
        problems.append(
            _mismatch("mismatch_count", payload.get("mismatch_count"), len(expected["mismatches"]))
        )
    return problems


# --------------------------------------------------------------------------
# grid_uncertainty

GRID_SIZE = 8
GRID_KNOWN = 60
GRID_PROBES = 2000
GRID_DEPTH = 3
GRID_TRANSFORMS = (
    {"name": "shift_right", "kind": "shift_grid", "field": "img", "dx": 1, "dy": 0, "fill": 0},
    {"name": "shift_down", "kind": "shift_grid", "field": "img", "dx": 0, "dy": 1, "fill": 0},
    {"name": "shift_left", "kind": "shift_grid", "field": "img", "dx": -1, "dy": 0, "fill": 0},
    {"name": "scale_up", "kind": "scale", "field": "img", "k": 2},
    {"name": "scale_down", "kind": "scale", "field": "img", "k": 0.5},
)
# Probe mix: exact known inputs, known inputs moved by 1-3 transforms, fresh grids.
_PROBE_MIX = (("known", 0.15), ("reached", 0.55), ("fresh", 0.30))

Grid = tuple[tuple[float, ...], ...]


def _apply(t: dict, grid: Grid) -> Grid:
    """Mirror of apply_transformation for the shift and scale kinds above."""
    if t["kind"] == "scale":
        return tuple(tuple(cell * t["k"] for cell in row) for row in grid)
    n = len(grid)
    return tuple(
        tuple(
            grid[r - t["dy"]][c - t["dx"]]
            if 0 <= r - t["dy"] < n and 0 <= c - t["dx"] < n
            else float(t["fill"])
            for c in range(n)
        )
        for r in range(n)
    )


def _grid_key(grid: Grid) -> Grid:
    # canonical_key identity: equal as floats, -0.0 folded into 0.0.
    return tuple(tuple(float(cell) + 0.0 for cell in row) for row in grid)


def _random_grid(rng: random.Random) -> Grid:
    cells = [[0] * GRID_SIZE for _ in range(GRID_SIZE)]
    for _ in range(rng.randint(1, 3)):
        r0, c0 = rng.randint(1, GRID_SIZE - 4), rng.randint(1, GRID_SIZE - 4)
        for r in range(r0, r0 + rng.randint(1, 3)):
            for c in range(c0, c0 + rng.randint(1, 3)):
                cells[r][c] = rng.randint(1, 9)
    return tuple(tuple(row) for row in cells)


def _closure(known: list[Grid]) -> dict[Grid, int]:
    """Mirror of the breadth-first closure in dataset.categorize_uncertainty:
    canonical grid -> shortest transform depth from a known input."""
    reached: dict[Grid, int] = {}
    frontier = []
    for grid in known:
        key = _grid_key(grid)
        if key not in reached:
            reached[key] = 0
            frontier.append(grid)
    for depth in range(1, GRID_DEPTH + 1):
        next_frontier = []
        for grid in frontier:
            for t in GRID_TRANSFORMS:
                new = _apply(t, grid)
                key = _grid_key(new)
                if key not in reached:
                    reached[key] = depth
                    next_frontier.append(new)
        frontier = next_frontier
    return reached


def _grid_json(grid: Grid) -> list:
    return [list(row) for row in grid]


def generate_grid_uncertainty(
    seed: int, directory: Path, known_count: int = GRID_KNOWN, probe_count: int = GRID_PROBES
) -> Prepared:
    rng = random.Random(f"grid_uncertainty:{seed}")
    spec_path = directory / "spec.json"
    _write_json(
        spec_path,
        {
            "schema": {
                "fields": {"img": {"type": "grid", "rows": GRID_SIZE, "cols": GRID_SIZE}},
                "labels": ["clear", "obstacle"],
            },
            "precondition": "sum(input.img) >= 0",
            "sufficient": {"obstacle": ["sum(input.img) > 40"]},
            "necessary": {"clear": ["sum(input.img) < 80"]},
            "invariants": list(GRID_TRANSFORMS),
            "equivariants": [],
            "probabilistic": [],
        },
    )
    known: list[Grid] = []
    keys: set = set()
    while len(known) < known_count:
        grid = _random_grid(rng)
        if _grid_key(grid) not in keys:
            keys.add(_grid_key(grid))
            known.append(grid)
    known_path = directory / "known.jsonl"
    known_path.write_text(
        "".join(
            json.dumps(
                {
                    "id": f"k{i:03d}",
                    "input": {"img": _grid_json(g)},
                    "label": "obstacle" if sum(map(sum, g)) > 40 else "clear",
                }
            )
            + "\n"
            for i, g in enumerate(known)
        ),
        encoding="utf-8",
    )
    reached = _closure(known)
    probe_lines, categories = [], []
    for n in range(probe_count):
        kind = _pick(rng, _PROBE_MIX, "fresh")
        if kind == "fresh":
            grid = _random_grid(rng)
        else:
            grid = rng.choice(known)
            if kind == "reached":
                for _ in range(rng.randint(1, GRID_DEPTH)):
                    grid = _apply(rng.choice(GRID_TRANSFORMS), grid)
        depth = reached.get(_grid_key(grid))
        if depth is None:
            categories.append(("UNKNOWN_UNKNOWN", None))
        elif depth == 0:
            categories.append(("KNOWN", None))
        else:
            categories.append(("KNOWN_UNKNOWN", depth))
        probe_lines.append(json.dumps({"id": f"p{n:05d}", "input": {"img": _grid_json(grid)}}))
    probes_path = directory / "probes.jsonl"
    probes_path.write_text("\n".join(probe_lines) + "\n", encoding="utf-8")
    unknown = sum(1 for category, _ in categories if category == "UNKNOWN_UNKNOWN")
    return Prepared(
        argv=[
            "dataset", "uncertainty",
            "--known", str(known_path),
            "--probes", str(probes_path),
            "--spec", str(spec_path),
            "--depth", str(GRID_DEPTH),
        ],
        records=known_count + probe_count,
        setup=[["read_dataset", str(known_path)], ["load_spec", str(spec_path)]],
        expected_code=1 if unknown else 0,
        expected={"categories": categories},
    )


def check_grid_uncertainty(expected: dict, payload: dict) -> list[str]:
    names = {t["name"] for t in GRID_TRANSFORMS}
    want = expected["categories"]
    per_probe = payload.get("per_probe", [])
    got = [(p["category"], p.get("depth")) for p in per_probe]
    problems = []
    if got != want:
        problems.append(f"probe categories differ ({len(got)} reported, {len(want)} expected)")
    for p in per_probe:
        if p["category"] == "KNOWN_UNKNOWN" and (
            len(p["path"]) != p["depth"] or not set(p["path"]) <= names
        ):
            problems.append(f"probe {p['probe']} has path {p['path']} for depth {p['depth']}")
            break
    tally = {"known": 0, "known_unknown": 0, "unknown_unknown": 0}
    for category, _ in want:
        tally[category.lower()] += 1
    fractions = {k: v / len(want) for k, v in tally.items()}
    if payload.get("fractions") != fractions:
        problems.append(_mismatch("fractions", payload.get("fractions"), fractions))
    return problems


# --------------------------------------------------------------------------
# deep_safetycase

SAFETY_HAZARDS = 50
SAFETY_GOALS = 60
SAFETY_CHAINS = 170
ASILS = ("A", "B", "C", "D")


def _chain_lengths(rng: random.Random, chains: int) -> list[int]:
    """A fixed mix of chain lengths in seeded order, so that every seed asks
    trace_check for the same amount of walking: 70% of chains hold 1-5
    requirements, 24% hold 6-14 and the rest 20-30."""
    short, middle = chains * 70 // 100, chains * 24 // 100
    lengths = [1 + i % 5 for i in range(short)] + [6 + i % 9 for i in range(middle)]
    lengths += [20 + i % 11 for i in range(chains - short - middle)]
    rng.shuffle(lengths)
    return lengths


def generate_deep_safetycase(
    seed: int, directory: Path, hazards: int = SAFETY_HAZARDS, goals: int = SAFETY_GOALS,
    chains: int = SAFETY_CHAINS,
) -> Prepared:
    """Hazards mitigated by goals, goals refined by requirement chains (every
    seventh requirement of a chain is a side branch, and a few chain roots
    refine two goals), evidence on most chain leaves and some inner
    requirements. Gaps of every kind are planted.

    ASIL_MISMATCH is not checked on requirements that reach more than one
    goal: which goal's ASIL applies there is still undecided.
    """
    rng = random.Random(f"deep_safetycase:{seed}")
    artifacts = directory / "artifacts"
    artifacts.mkdir()
    present = [f"artifacts/report_{i}.json" for i in range(8)]
    for rel in present:
        (directory / rel).write_text("{}\n", encoding="utf-8")

    nodes: list[dict] = []
    edges: list[dict] = []
    gaps: set[tuple[str, str]] = set()
    multi_goal: set[str] = set()

    hazard_ids = [f"H{i:03d}" for i in range(hazards)]
    for hid in hazard_ids:
        nodes.append({"id": hid, "kind": "HAZARD", "text": f"hazard {hid}"})
    mitigated = hazard_ids[: hazards - max(1, hazards // 10)]
    for hid in hazard_ids:
        if hid not in mitigated:
            gaps.add(("UNMITIGATED_HAZARD", hid))

    goal_asil = {}
    goal_ids = [f"G{i:03d}" for i in range(goals)]
    for i, gid in enumerate(goal_ids):
        goal_asil[gid] = rng.choice(ASILS)
        nodes.append({"id": gid, "kind": "SAFETY_GOAL", "asil": goal_asil[gid]})
        hazard = mitigated[i] if i < len(mitigated) else rng.choice(mitigated)
        edges.append({"kind": "mitigates", "source": gid, "target": hazard})
    refined_goals = goal_ids[: goals - max(1, goals // 10)]
    for gid in goal_ids:
        if gid not in refined_goals:
            gaps.add(("MISSING_REQUIREMENT", gid))

    req_count = 0
    evidence_count = 0
    refined_reqs: set[str] = set()
    supported: set[str] = set()

    def new_requirement(goal: str, single_goal: bool) -> str:
        nonlocal req_count
        rid = f"R{req_count:04d}"
        req_count += 1
        asil = goal_asil[goal]
        if rng.random() < 0.05:
            asil = rng.choice([a for a in ASILS if a != asil])
            if single_goal:
                gaps.add(("ASIL_MISMATCH", rid))
        nodes.append(
            {"id": rid, "kind": "REQUIREMENT", "asil": asil, "requirement_kind": "behavioural-spec"}
        )
        if not single_goal:
            multi_goal.add(rid)
        return rid

    def add_evidence(rid: str) -> None:
        nonlocal evidence_count
        eid = f"E{evidence_count:04d}"
        evidence_count += 1
        node = {"id": eid, "kind": "EVIDENCE", "evidence_kind": "monitor-report"}
        draw = rng.random()
        if draw < 0.85:
            node["artifact"] = rng.choice(present)
        elif draw < 0.95:
            node["artifact"] = f"artifacts/missing_{eid}.json"
            gaps.add(("MISSING_ARTIFACT", eid))
        nodes.append(node)
        edges.append({"kind": "supports", "source": eid, "target": rid})
        supported.add(rid)

    for c, length in enumerate(_chain_lengths(rng, chains)):
        goal = refined_goals[c] if c < len(refined_goals) else rng.choice(refined_goals)
        second = None
        if rng.random() < 0.04:
            second = rng.choice([g for g in refined_goals if g != goal])
        chain = [new_requirement(goal, second is None)]
        edges.append({"kind": "refines", "source": chain[0], "target": goal})
        if second is not None:
            edges.append({"kind": "refines", "source": chain[0], "target": second})
        tip, parent_of = chain[0], {}
        for k in range(1, length):
            parent = parent_of[tip] if k % 7 == 0 else tip
            rid = new_requirement(goal, second is None)
            edges.append({"kind": "refines", "source": rid, "target": parent})
            refined_reqs.add(parent)
            parent_of[rid] = parent
            chain.append(rid)
            if k % 7:
                tip = rid
        for rid in chain:
            is_leaf = rid not in refined_reqs
            if (is_leaf and rng.random() < 0.9) or (not is_leaf and rng.random() < 0.15):
                add_evidence(rid)
    for node in nodes:
        rid = node["id"]
        if node["kind"] == "REQUIREMENT" and rid not in refined_reqs and rid not in supported:
            gaps.add(("MISSING_EVIDENCE", rid))

    rng.shuffle(nodes)
    rng.shuffle(edges)
    graph_path = directory / "graph.json"
    graph_path.write_text(json.dumps({"nodes": nodes, "edges": edges}) + "\n", encoding="utf-8")
    return Prepared(
        argv=["safetycase", "check", "--graph", str(graph_path)],
        records=len(nodes),
        setup=[["load_graph", str(graph_path)]],
        expected_code=1 if gaps else 0,
        expected={"gaps": sorted(gaps), "multi_goal": multi_goal},
    )


def check_deep_safetycase(expected: dict, payload: dict) -> list[str]:
    multi_goal = expected["multi_goal"]
    got = [
        (g["kind"], g["node"])
        for g in payload.get("gaps", [])
        if not (g["kind"] == "ASIL_MISMATCH" and g["node"] in multi_goal)
    ]
    problems = []
    if got != expected["gaps"]:
        missing = sorted(set(expected["gaps"]) - set(got))[:3]
        extra = sorted(set(got) - set(expected["gaps"]))[:3]
        problems.append(f"gaps differ: missing {missing}, unexpected {extra}")
    if payload.get("ok") is not (not expected["gaps"]):
        problems.append(_mismatch("ok", payload.get("ok"), not expected["gaps"]))
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload("monitor_trace", "trace lines", generate_monitor_trace,
                 check_monitor_trace),
        Workload("gated_simulate", "domain records", generate_gated_simulate,
                 check_gated_simulate),
        Workload("grid_uncertainty", "known plus probe records",
                 generate_grid_uncertainty, check_grid_uncertainty),
        Workload("deep_safetycase", "graph nodes", generate_deep_safetycase,
                 check_deep_safetycase),
    )
}
