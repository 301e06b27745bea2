"""The private switch that turns every fast path off (specguard._exact).

Each command is run on small inputs from the benchmark's generators, and
each demo as __main__, once with the fast paths on and once with them off,
and must give the same stdout and stderr, and a command the same exit
code, byte for byte (differential testing:
McKeeman, "Differential testing for software", Digital Technical Journal
10(1), 1998). The generators are imported read-only, as bench/tests does.
"""
from __future__ import annotations

import contextlib
import io
import json
import re
import runpy
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

from workloads import WORKLOADS  # noqa: E402

from specguard import _exact, cli, errors, monitor, patterns  # noqa: E402
from specguard.speccore import classifiers, records  # noqa: E402
from specguard.speccore.spec import PartialSpec  # noqa: E402
from specguard.speclang.parser import parse  # noqa: E402
from specguard.speclang.schema import GridType, NumberType, Schema  # noqa: E402

SMALL = {
    "monitor_trace": {"lines": 2000},
    "gated_simulate": {"records": 400},
    "grid_uncertainty": {"known_count": 8, "probe_count": 60},
}


@contextlib.contextmanager
def _exact_paths():
    _exact.set_exact(True)
    try:
        yield
    finally:
        _exact.set_exact(False)


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _commands(seed: int, directory: Path) -> dict[str, list[str]]:
    prepared = {}
    for name, sizes in SMALL.items():
        (directory / name).mkdir()
        prepared[name] = WORKLOADS[name].generate(seed, directory / name, **sizes)
    grid = directory / "grid_uncertainty"
    known, spec = str(grid / "known.jsonl"), str(grid / "spec.json")
    monitor_run = prepared["monitor_trace"].argv
    # Most lines fail the postcondition, so most violations come from the
    # generated check's failing-check answers, and the report writer
    # converts a violation for nearly every line.
    failing = _monitor_run_with(
        monitor_run, directory / "failing.json", postcondition="output.confidence >= 0.999"
    )
    return {
        "monitor run json": ["--format", "json", *monitor_run],
        "monitor run text": ["--format", "text", *monitor_run],
        "monitor run mostly failing": ["--format", "json", *failing],
        "patterns simulate": prepared["gated_simulate"].argv,
        "dataset uncertainty": prepared["grid_uncertainty"].argv,
        "dataset split": ["dataset", "split", "--data", known, "--ratios", "0.5,0.25,0.25"],
        "dataset augment": ["dataset", "augment", "--spec", spec, "--data", known],
    }


def _monitor_run_with(argv: list[str], path: Path, **changes) -> list[str]:
    """argv of a monitor run whose spec is argv's with the changes made (a
    None value deletes its key), written to path."""
    at = argv.index("--spec") + 1
    spec = json.loads(Path(argv[at]).read_text(encoding="utf-8"))
    spec.update(changes)
    path.write_text(json.dumps({k: v for k, v in spec.items() if v is not None}), encoding="utf-8")
    return [*argv[:at], str(path), *argv[at + 1:]]


@pytest.mark.parametrize("seed", [7, 11])
def test_every_command_gives_the_same_bytes_with_the_fast_paths_off(tmp_path, seed):
    for name, argv in _commands(seed, tmp_path).items():
        fast = _run(argv)
        with _exact_paths():
            exact = _run(argv)
        assert fast[1], name  # each command reports something
        assert exact == fast, name


def test_lines_without_a_confidence_skip_the_exact_checks_where_none_reads_it(tmp_path):
    """The benchmark trace, with a spec whose conditions never read
    output.confidence: a line without one, or with a null one, is then
    answered by the generated check like any other conforming line."""
    argv = WORKLOADS["monitor_trace"].generate(7, tmp_path, lines=2000).argv
    argv = _monitor_run_with(argv, tmp_path / "no_confidence.json", postcondition=None)
    path = tmp_path / "trace.jsonl"
    # Five lines with a float confidence again, each with a null one.
    lines = path.read_text(encoding="utf-8").splitlines()
    nulls = [json.loads(line) for line in lines if '"confidence": 0.' in line][:5]
    for record in nulls:
        record["output"]["confidence"] = None
    lines += [json.dumps(record) for record in nulls]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert len(nulls) == 5 and sum('"confidence"' not in line for line in lines) >= 5
    with mock.patch.object(monitor, "check_sample", wraps=monitor.check_sample) as checked:
        fast = _run(argv)
        assert checked.call_count == 0
        with _exact_paths():
            exact = _run(argv)
        assert checked.call_count > 0
    assert fast[0] == 1 and '"kind": "NECESSARY"' in fast[1]
    assert exact == fast


def test_every_fast_path_declines_with_the_switch_set(tmp_path):
    spec = PartialSpec(
        schema=Schema({"x": NumberType(), "g": GridType(1, 2)}, ("a", "b")),
        sufficient={"a": (parse("input.x > 0"),)},
    )
    table = tmp_path / "table.json"
    table.write_text('{"kind": "table", "entries": []}', encoding="utf-8")
    fields = {"x": 1.5, "g": [[1, 2.5]]}
    names = tuple(fields)
    with _exact_paths():
        assert monitor.clean_line_function(spec) is None
        assert patterns.gated_decide_function(spec) is None
        assert classifiers.table_key_function(spec.schema) is records.value_key
        assert errors.read_json_streamed(table, "entries", print) is None
        assert errors.line_decoder() is not errors.json_line
        with mock.patch.object(records, "_grid", side_effect=AssertionError):
            exact_key = records.canonical_key(fields)
        assert records._orders[names][2] is None  # no template
    assert records.canonical_key(fields) == exact_key
    assert records._orders[names][2] is not None
    assert monitor.clean_line_function(spec) is not None
    assert classifiers.table_key_function(spec.schema) is not records.value_key
    assert errors.line_decoder() is errors.json_line


def test_a_table_with_off_schema_entries_answers_the_same(tmp_path):
    """patterns simulate with an oracle that holds entries off the gated
    spec's schema, and their records in the domain, beside conforming ones:
    one table then holds schema keys and value_key triples."""
    prepared = WORKLOADS["gated_simulate"].generate(7, tmp_path, records=60)
    oracle = json.loads((tmp_path / "oracle.json").read_text(encoding="utf-8"))
    domain = (tmp_path / "domain.jsonl").read_text(encoding="utf-8").splitlines()
    variants = [
        {"zone": "moon"},  # a category value off the schema
        {"lane": 1.5},  # an integer field that holds no integer
        {"lane": 2**53 + 1},  # off the schema, keyed as 2**53
        {"lane": True},
        {"extra": 1.0},
    ]
    for n, change in enumerate(variants):
        fields = {**json.loads(domain[n])["input"], **change}
        oracle["entries"].append({"input": fields, "label": "cyclist"})
        domain.append(json.dumps({"id": f"off{n}", "input": fields}))
    (tmp_path / "oracle.json").write_text(json.dumps(oracle), encoding="utf-8")
    (tmp_path / "domain.jsonl").write_text("\n".join(domain) + "\n", encoding="utf-8")
    fast = _run(prepared.argv)
    with _exact_paths():
        exact = _run(prepared.argv)
    assert '"off4"' in fast[1]
    assert exact == fast


def test_augment_drops_the_same_duplicates(tmp_path):
    """dataset augment whose transformations lead onto records equal to
    others: 0.0 and -0.0, 1 and 1.0, one value set on every record."""
    spec = {
        "schema": {
            "fields": {"lane": {"type": "integer"}, "x": {"type": "number"}},
            "labels": ["a", "b"],
        },
        "precondition": "true",
        "sufficient": {},
        "necessary": {},
        "invariants": [
            {"name": "up", "kind": "add", "field": "lane", "c": 1},
            {"name": "flip", "kind": "scale", "field": "x", "k": -1.0},
            {"name": "zero", "kind": "set", "field": "x", "value": 0},
        ],
        "equivariants": [],
        "probabilistic": [],
    }
    rows = [
        {"lane": 1, "x": 0.0}, {"lane": 1, "x": 2.5}, {"lane": 2, "x": -0.0}, {"lane": 1.0, "x": 5}
    ]
    (tmp_path / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    (tmp_path / "data.jsonl").write_text(
        "".join(json.dumps({"input": row, "label": "a"}) + "\n" for row in rows), encoding="utf-8"
    )
    argv = ["dataset", "augment", "--spec", str(tmp_path / "spec.json")]
    argv += ["--data", str(tmp_path / "data.jsonl")]
    fast = _run(argv)
    with _exact_paths():
        exact = _run(argv)
    assert fast[0] == 0 and fast[1].count('"transform": "') == 5  # of 12 results
    assert exact == fast


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.stem)
def test_every_demo_prints_the_same_with_the_fast_paths_off(tmp_path, monkeypatch, demo):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    # a demo's scratch directory has a random name
    scratch = re.escape(str(tmp_path)) + r"/[^/\s]+"

    def run() -> tuple[str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            runpy.run_path(str(demo), run_name="__main__")
        return re.sub(scratch, "<tmp>", out.getvalue()), err.getvalue()

    fast = run()
    with _exact_paths():
        exact = run()
    assert fast[0]  # each demo prints something
    assert exact == fast
