"""End-to-end command-line checks: exit codes, JSON output discipline, and
the error channel."""
from __future__ import annotations

import contextlib
import errno
import importlib.metadata
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
import types
from enum import Enum, IntEnum
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cli_help_golden
import specguard
from specguard import _exact, cli
from specguard.cli import main
from specguard.monitor import MonitorReport, Violation, ViolationKind, _SharedDetail, run_trace
from specguard.speccore.spec import load_spec

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"
# The benchmark's generators, imported read-only, as bench/tests does.
sys.path.insert(0, str(ROOT / "bench"))

from workloads import WORKLOADS  # noqa: E402

PED_SPEC = {
    "schema": {
        "fields": {"height": {"type": "number"}},
        "labels": ["pedestrian", "not_pedestrian"],
    },
    "precondition": "input.height > 0",
    "sufficient": {},
    "necessary": {"pedestrian": ["input.height < 8"]},
    "invariants": [],
    "equivariants": [],
    "probabilistic": [],
}

GRID_SPEC = {
    "schema": {
        "fields": {"img": {"type": "grid", "rows": 8, "cols": 8}},
        "labels": ["clear", "obstacle"],
    },
    "precondition": "sum(input.img) >= 0",
    "sufficient": {},
    "necessary": {},
    "invariants": [
        {"name": "shift_right", "kind": "shift_grid", "field": "img", "dx": 1, "fill": 0},
        {"name": "scale_up", "kind": "scale", "field": "img", "k": 2},
    ],
    "equivariants": [],
    "probabilistic": [],
}

TRACE = [
    {"id": "t1", "input": {"height": 5.0}, "output": {"label": "pedestrian", "confidence": 0.9}},
    {"id": "t2", "input": {"height": 9.0}, "output": {"label": "pedestrian", "confidence": 0.8}},
    {"id": "t3", "input": {"height": 9.0}, "output": {"label": "not_pedestrian", "confidence": 0.7}},
]

DATA = [
    {"id": f"r{i}", "input": {"height": float(i + 1)}, "label": "pedestrian" if i < 7 else "not_pedestrian"}
    for i in range(10)
]

REQS = {
    "schema": PED_SPEC["schema"],
    "partitionings": [
        {
            "name": "size",
            "partitions": [
                {"name": "short", "predicate": "input.height < 8", "risk_weight": 2},
                {"name": "tall", "predicate": "input.height >= 8", "risk_weight": 1},
            ],
        }
    ],
    "base_min_samples": 2,
    "risk_multiplier": 2.0,
    "infeasible_cells": [],
}


@pytest.fixture
def files(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        if name.endswith(".jsonl"):
            path.write_text(
                "".join(json.dumps(row) + "\n" for row in payload), encoding="utf-8"
            )
        else:
            path.write_text(json.dumps(payload, indent=2), encoding="utf-8")
        return str(path)

    return type(
        "Files",
        (),
        {
            "write": staticmethod(write),
            "spec": write("ped_spec.json", PED_SPEC),
            "trace": write("trace.jsonl", TRACE),
            "clean_trace": write("trace_clean.jsonl", [TRACE[0], TRACE[2]]),
            "data": write("data.jsonl", DATA),
            "reqs": write("reqs.json", REQS),
            "dir": tmp_path,
        },
    )


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


def declared_console_script():
    """The ``specguard`` entry point as ``pyproject.toml`` declares it."""
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        value = tomllib.load(fh)["project"]["scripts"]["specguard"]
    return importlib.metadata.EntryPoint(
        name="specguard", value=value, group="console_scripts"
    )


def run_declared_console_script(*argv):
    """Run the wrapper pip generates for the declared console script.

    The child imports ``specguard`` from the same directory as this process,
    so it runs the code under test whether that is the source tree or an
    install, whatever the working directory.
    """
    ep = declared_console_script()
    wrapper = (
        f"import sys; from {ep.module} import {ep.attr}; "
        f"sys.argv[0] = {ep.name!r}; sys.exit({ep.attr}())"
    )
    package_root = str(Path(specguard.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-c", wrapper, *argv],
        capture_output=True,
        text=True,
        timeout=30,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )


class TestSpecValidate:
    def test_clean_spec_exits_zero(self, capsys, files):
        code, payload = run_json(capsys, "spec", "validate", files.spec)
        assert code == 0
        assert payload["ok"] is True
        assert payload["findings"] == []

    def test_findings_exit_one(self, capsys, files):
        bad = dict(PED_SPEC, precondition="input.height <")
        path = files.write("bad_spec.json", bad)
        code, payload = run_json(capsys, "spec", "validate", path)
        assert code == 1
        assert payload["ok"] is False
        assert payload["findings"]

    def test_sample_conflicts_exit_one(self, capsys, files):
        # at height 9 the sufficient condition forces "pedestrian" while its
        # own necessary condition excludes it, so the spec admits no output
        overconstrained = dict(
            PED_SPEC,
            sufficient={"pedestrian": ["input.height > 8.5"]},
            necessary={"pedestrian": ["input.height < 8"]},
        )
        spec_path = files.write("overconstrained.json", overconstrained)
        samples = files.write("samples.jsonl", [{"id": "s1", "input": {"height": 9.0}}])
        code, payload = run_json(
            capsys, "spec", "validate", spec_path, "--samples", samples
        )
        assert code == 1
        assert any("admits no output" in f for f in payload["findings"])

    def test_env_var_supplies_the_spec(self, capsys, files, monkeypatch):
        monkeypatch.setenv("SPECGUARD_SPEC", files.spec)
        code, payload = run_json(capsys, "spec", "validate")
        assert code == 0
        assert payload["spec"] == files.spec

    def test_no_spec_anywhere_is_a_usage_error(self, capsys, files, monkeypatch):
        monkeypatch.delenv("SPECGUARD_SPEC", raising=False)
        code, out, err = run(capsys, "spec", "validate")
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "usage"


class TestDeepNesting:
    """A precondition nested past the parser's cap is a syntax error: a
    finding of `spec validate`, a usage error of every command that loads
    the spec; never a RecursionError traceback."""

    @pytest.mark.parametrize("levels", [150, 10_000])
    def test_spec_validate_reports_the_cap(self, capsys, files, levels):
        deep = "(" * levels + "input.height > 0" + ")" * levels
        path = files.write("deep.json", dict(PED_SPEC, precondition=deep))
        code, payload = run_json(capsys, "spec", "validate", path)
        assert code == 1
        assert payload["findings"] == [
            "precondition: syntax error at 1:65: expression nests deeper than 64 levels"
        ]

    @pytest.mark.parametrize("levels", [150, 10_000])
    def test_a_command_loading_the_spec_exits_two(self, capsys, files, levels):
        deep = "!" * levels + "true"
        path = files.write("deep.json", dict(PED_SPEC, precondition=deep))
        code, out, err = run(capsys, "monitor", "run", "--spec", path, "--trace", files.trace)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {
            "error": "FormatError",
            "detail": f"spec file {path} is not well-formed: precondition: "
            "syntax error at 1:65: expression nests deeper than 64 levels",
        }


    def test_a_chain_too_long_for_a_recursive_pass_exits_two(self, capsys, files):
        # typecheck still recurses down a chain's left spine, so cli.main's
        # last resort turns the RecursionError into an invocation error.
        chain = " && ".join(["input.height > 0"] * 600)
        path = files.write("chain.json", dict(PED_SPEC, precondition=chain))
        code, out, err = run(capsys, "spec", "validate", path)
        assert (code, out) == (2, "")
        (line,) = err.splitlines()
        assert json.loads(line)["error"] == "RecursionError"


class TestMonitorRun:
    def test_violating_trace_exits_one(self, capsys, files):
        code, payload = run_json(
            capsys, "monitor", "run", "--spec", files.spec, "--trace", files.trace
        )
        assert code == 1
        assert payload["records_processed"] == 3
        kinds = [v["kind"] for v in payload["violations"]]
        assert kinds == ["NECESSARY"]

    def test_clean_trace_exits_zero(self, capsys, files):
        code, payload = run_json(
            capsys, "monitor", "run", "--spec", files.spec, "--trace", files.clean_trace
        )
        assert code == 0
        assert payload["violations"] == []
        assert payload["final_state"] == "NOMINAL"

    def test_policy_file_changes_the_final_state(self, capsys, files):
        policy = files.write("policy.json", {"on_post_class_violation": "FAILSAFE"})
        code, payload = run_json(
            capsys,
            "monitor",
            "run",
            "--spec",
            files.spec,
            "--trace",
            files.trace,
            "--policy",
            policy,
        )
        assert code == 1
        assert payload["final_state"] == "FAILSAFE"

    def test_bad_policy_value_is_an_invocation_error(self, capsys, files):
        policy = files.write("policy.json", {"on_pre_violation": "EXPLODE"})
        code, out, err = run(
            capsys,
            "monitor",
            "run",
            "--spec",
            files.spec,
            "--trace",
            files.trace,
            "--policy",
            policy,
        )
        assert code == 2
        assert "must be one of" in json.loads(err)["detail"]

    def test_unknown_policy_key_is_an_invocation_error(self, capsys, files):
        policy = files.write("policy.json", {"on_timeout": "FAILSAFE"})
        code, out, err = run(
            capsys,
            "monitor",
            "run",
            "--spec",
            files.spec,
            "--trace",
            files.trace,
            "--policy",
            policy,
        )
        assert code == 2
        assert json.loads(err)["error"] == "FormatError"


    @pytest.mark.parametrize(
        "field,expected_stage",
        [("height", "conformance"), ("lanes", "conformance"), ("confidence", "trace")],
    )
    def test_an_int_no_float_holds_is_a_violation_not_a_crash(
        self, capsys, files, field, expected_stage
    ):
        spec = dict(
            PED_SPEC,
            schema={
                "fields": {"height": {"type": "number"}, "lanes": {"type": "integer"}},
                "labels": ["pedestrian", "not_pedestrian"],
            },
            precondition="input.height > 0 && input.lanes >= 0",
        )
        record = {
            "id": "t1",
            "input": {"height": 5.0, "lanes": 2},
            "output": {"label": "pedestrian", "confidence": 0.9},
        }
        if field == "confidence":
            record["output"]["confidence"] = 10**400
        else:
            record["input"][field] = 10**400
        code, payload = run_json(
            capsys,
            "monitor",
            "run",
            "--spec",
            files.write("huge_spec.json", spec),
            "--trace",
            files.write("huge.jsonl", [record]),
        )
        assert code == 1
        assert [(v["kind"], v["detail"]["stage"]) for v in payload["violations"]] == [
            ("EVAL_ERROR", expected_stage)
        ]

    @pytest.mark.parametrize("window", ["5", 2.5, True, 0, None])
    def test_a_window_that_is_not_a_positive_int_is_an_invocation_error(
        self, capsys, files, window
    ):
        policy = files.write("policy.json", {"probabilistic_window": window})
        code, out, err = run(
            capsys,
            "monitor",
            "run",
            "--spec",
            files.spec,
            "--trace",
            files.trace,
            "--policy",
            policy,
        )
        assert code == 2
        assert out == ""
        error = json.loads(err)
        assert error["error"] == "FormatError"
        assert "probabilistic_window must be an integer >= 1" in error["detail"]

    def test_a_line_that_is_not_utf8_is_a_logged_violation(self, capsys, files):
        path = files.dir / "binary.jsonl"
        lines = [json.dumps(row).encode("utf-8") for row in TRACE]
        lines[1] = b'{"id": "t2", "input": {"height": 9.0}, "output": {"label": "\xff"}}'
        path.write_bytes(b"\n".join(lines) + b"\n")
        code, payload = run_json(
            capsys, "monitor", "run", "--spec", files.spec, "--trace", str(path)
        )
        assert code == 1
        assert payload["records_processed"] == 3
        (violation,) = payload["violations"]
        assert violation["detail"]["stage"] == "trace"
        assert violation["detail"]["line"] == 2
        assert "UTF-8" in violation["detail"]["error"]

    def test_a_text_report_builds_no_json_payload(self, capsys, files, monkeypatch):
        argv = ["monitor", "run", "--spec", files.spec, "--trace", files.trace]
        text = run(capsys, *argv, "--format", "text")

        def refuse(report, violations):
            raise AssertionError("json_members called")

        monkeypatch.setattr(MonitorReport, "json_members", refuse)
        assert run(capsys, *argv, "--format", "text") == text
        assert text[0] == 1 and text[1].startswith("final state: ")
        with pytest.raises(AssertionError, match="json_members called"):
            main(argv)

    def test_a_text_report_is_printed_line_by_line(self, capsys, files, monkeypatch):
        argv = ["monitor", "run", "--spec", files.spec, "--trace", files.trace]
        report = run_trace(load_spec(files.spec), files.trace)
        want = [
            f"final state: {report.final_state.value}",
            f"records: {report.records_processed}",
            f"violations: {len(report.violations)}",
        ]
        want += [f"  {v.kind.value} record={v.record_id} {v.detail}" for v in report.violations]
        assert len(want) > 3
        printed = []
        monkeypatch.setattr(cli, "print", lambda *args: printed.append(args) or print(*args),
                            raising=False)
        code, out, err = run(capsys, *argv, "--format", "text")
        assert (code, err) == (1, "")
        assert out == "\n".join(want) + "\n"
        assert printed == [(line,) for line in want]


class TestMonitorReportWriter:
    """monitor run writes its JSON report without a dict per violation; the
    text is still the indented dump of MonitorReport.to_json_dict()."""

    @pytest.mark.parametrize("seed", [7, 11])
    def test_the_report_is_the_dump_of_to_json_dict(self, capsys, tmp_path, seed):
        argv = WORKLOADS["monitor_trace"].generate(seed, tmp_path, lines=3000).argv
        code, out, err = run(capsys, *argv)
        options = dict(zip(argv[2::2], argv[3::2]))
        policy = cli._policy_from_file(options["--policy"])
        report = run_trace(load_spec(options["--spec"]), options["--trace"], policy)
        assert (code, err) == (1, "")
        assert out == json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n"
        details = [v.detail for v in report.violations]
        assert any("window" in d for d in details)
        assert {"conformance", "trace"} <= {d.get("stage") for d in details}

    def test_a_report_without_violations_is_the_dump_too(self, capsys, files):
        code, out, err = run(
            capsys, "monitor", "run", "--spec", files.spec, "--trace", files.clean_trace
        )
        report = run_trace(load_spec(files.spec), files.clean_trace)
        assert (code, err) == (0, "")
        assert out == json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n"
        assert '"violations": []' in out

    def test_writing_the_report_does_not_grow_with_the_violations(self, files, monkeypatch):
        """From the end of the run to the last byte written, the traced heap
        peaks no higher for 20k violations than for 2k: the report never
        holds the violations' JSON values at once."""
        spec = files.write("spec.json", PED_SPEC)
        peaks = {}

        def measured_run(*args):
            report = run_trace(*args)
            tracemalloc.reset_peak()
            peaks["start"] = tracemalloc.get_traced_memory()[0]
            return report

        monkeypatch.setattr(cli, "run_trace", measured_run)
        for size in (2_000, 2_000, 20_000):  # the first run warms one-time caches
            trace = files.write(
                f"failing{size}.jsonl",
                [{"id": f"r{i}", "input": {"height": -1.0}, "output": {"label": "pedestrian"}}
                 for i in range(size)],
            )
            sink = CountingSink()
            tracemalloc.start()
            try:
                with contextlib.redirect_stdout(sink):
                    assert main(["monitor", "run", "--spec", spec, "--trace", trace]) == 1
                peaks[size] = tracemalloc.get_traced_memory()[1] - peaks["start"]
            finally:
                tracemalloc.stop()
            assert sink.chars > 150 * size  # one PRE violation a line
        assert peaks[20_000] < peaks[2_000] + 64 * 1024


class TestDatasetCommands:
    def test_coverage_pass_exits_zero(self, capsys, files):
        code, payload = run_json(
            capsys, "dataset", "coverage", "--data", files.data, "--requirements", files.reqs
        )
        assert code == 0
        assert payload["passed"] is True

    def test_coverage_shortfall_exits_one(self, capsys, files):
        tight = dict(REQS, base_min_samples=4)
        path = files.write("tight.json", tight)
        code, payload = run_json(
            capsys, "dataset", "coverage", "--data", files.data, "--requirements", path
        )
        assert code == 1
        assert payload["passed"] is False
        # tall cell: 3 records against a requirement of 4
        tall = next(c for c in payload["cells"] if c["cell"] == ["tall"])
        assert tall["status"] == "insufficient"

    @pytest.mark.parametrize("data", ["good", "malformed", "missing"])
    @pytest.mark.parametrize("reqs", ["good", "bad"])
    def test_a_data_error_is_reported_before_a_requirements_error(
        self, capsys, files, data, reqs
    ):
        """The data set is streamed after the requirements are loaded, but a
        bad data file is still the error reported, as when it is read first."""
        lines = [json.dumps(row) for row in DATA]
        lines[6] = "{not json"
        malformed = files.dir / "malformed.jsonl"
        malformed.write_text("\n".join(lines) + "\n", encoding="utf-8")
        paths = {
            "good": files.data,
            "malformed": str(malformed),
            "missing": str(files.dir / "no_data.jsonl"),
        }
        reqs_path = files.reqs if reqs == "good" else files.write("bad_reqs.json", {"schema": 3})
        code, out, err = run(
            capsys, "dataset", "coverage", "--data", paths[data], "--requirements", reqs_path
        )
        if (data, reqs) == ("good", "good"):
            assert (code, err) == (0, "")
            assert json.loads(out)["passed"] is True
            return
        assert (code, out) == (2, "")
        error = json.loads(err)
        assert error["error"] == "FormatError"
        if data == "malformed":
            assert error["detail"].startswith(f"{paths[data]}:7: not valid JSON: ")
        elif data == "missing":
            assert error["detail"].startswith(f"cannot read data set {paths[data]}: ")
        else:
            assert error["detail"] == "schema must be a JSON object"

    def test_augment_without_transforms_adds_nothing(self, capsys, files):
        code, payload = run_json(
            capsys, "dataset", "augment", "--spec", files.spec, "--data", files.data
        )
        assert code == 0
        assert payload["added"] == 0
        assert len(payload["records"]) == 10

    def test_augment_with_an_invariant_adds_records(self, capsys, files):
        spec = dict(
            PED_SPEC,
            invariants=[
                {"name": "taller", "kind": "add", "field": "height", "c": 100.0}
            ],
        )
        path = files.write("aug_spec.json", spec)
        code, payload = run_json(
            capsys, "dataset", "augment", "--spec", path, "--data", files.data
        )
        assert code == 0
        assert payload["added"] == 10
        assert payload["records"][10]["provenance"]["transform"] == "taller"

    @pytest.mark.parametrize("ftype, value", [("integer", 5), ("number", 5.5)])
    def test_augment_lists_a_transform_past_float_range_as_an_error(
        self, capsys, files, ftype, value
    ):
        spec = files.write("big_spec.json", dict(
            PED_SPEC,
            schema={"fields": {"n": {"type": ftype}}, "labels": ["a", "b"]},
            precondition="true",
            necessary={},
            invariants=[{"name": "big", "kind": "scale", "field": "n", "k": 1e308}],
        ))
        data = files.write("big.jsonl", [{"id": "r0", "input": {"n": value}, "label": "a"}])
        code, out, err = run(capsys, "dataset", "augment", "--spec", spec, "--data", data)
        assert (code, err) == (1, "")

        def refuse(constant):
            raise AssertionError(f"{constant} is not JSON")

        payload = json.loads(out, parse_constant=refuse)
        assert payload["added"] == 0
        assert [r["id"] for r in payload["records"]] == ["r0"]
        assert payload["errors"] == [
            {
                "record": "r0",
                "transform": "big",
                "error": "transformation 'big' produced inf for field 'n', not a finite number",
            }
        ]

    def test_augment_lists_a_grid_cell_past_float_range_as_an_error(self, capsys, files):
        spec = files.write("grid_spec.json", dict(
            PED_SPEC,
            schema={"fields": {"g": {"type": "grid", "rows": 1, "cols": 2}}, "labels": ["a", "b"]},
            precondition="true",
            necessary={},
            invariants=[{"name": "scale", "kind": "scale", "field": "g", "k": 1e308}],
        ))
        data = files.write("grid.jsonl", [{"id": "r0", "input": {"g": [[5, 0]]}, "label": "a"}])
        code, out, err = run(capsys, "dataset", "augment", "--spec", spec, "--data", data)
        assert (code, err) == (1, "")
        assert "Infinity" not in out
        payload = json.loads(out)
        assert payload["added"] == 0
        assert payload["errors"] == [
            {
                "record": "r0",
                "transform": "scale",
                "error": "transformation 'scale' produced inf for grid 'g' cell [0][0], "
                "not a finite number",
            }
        ]

    def test_split_sizes_and_determinism(self, capsys, files):
        argv = ("dataset", "split", "--data", files.data, "--ratios", "0.6,0.2,0.2")
        code, out_a, _ = run(capsys, *argv)
        assert code == 0
        code, out_b, _ = run(capsys, *argv)
        assert out_a == out_b
        payload = json.loads(out_a)
        assert payload["sizes"] == {"train": 6, "validation": 2, "test": 2}
        assert payload["seed"] == 0

    def test_seed_flag_is_position_independent(self, capsys, files):
        before = run(
            capsys, "--seed", "5", "dataset", "split", "--data", files.data,
            "--ratios", "0.6,0.2,0.2",
        )
        after = run(
            capsys, "dataset", "split", "--data", files.data,
            "--ratios", "0.6,0.2,0.2", "--seed", "5",
        )
        assert before == after
        default = run(
            capsys, "dataset", "split", "--data", files.data, "--ratios", "0.6,0.2,0.2"
        )
        assert default != before

    def test_bad_ratios_are_a_usage_error(self, capsys, files):
        code, out, err = run(
            capsys, "dataset", "split", "--data", files.data, "--ratios", "0.6,0.4"
        )
        assert code == 2
        assert json.loads(err)["error"] == "usage"

    def test_split_with_stratification_file(self, capsys, files):
        partitioning = files.write(
            "bands.json",
            {
                "name": "size",
                "partitions": [
                    {"name": "short", "predicate": "input.height < 8"},
                    {"name": "tall", "predicate": "input.height >= 8"},
                ],
            },
        )
        code, payload = run_json(
            capsys, "dataset", "split", "--data", files.data,
            "--ratios", "0.6,0.2,0.2", "--stratify", partitioning,
        )
        assert code == 0
        # rounding happens per stratum: short (7) gives 4/2/1, tall (3) gives 2/1/0
        assert payload["sizes"] == {"train": 6, "validation": 3, "test": 1}
        landed = sorted(
            r["id"] for bucket in ("train", "validation", "test") for r in payload[bucket]
        )
        assert landed == sorted(r["id"] for r in DATA)

    def test_uncertainty_known_probe_exits_zero(self, capsys, files):
        probes = files.write("probes.jsonl", [{"id": "p", "input": {"height": 3.0}}])
        code, payload = run_json(
            capsys, "dataset", "uncertainty", "--known", files.data,
            "--probes", probes, "--spec", files.spec,
        )
        assert code == 0
        assert payload["per_probe"][0]["category"] == "KNOWN"

    def test_uncertainty_unreachable_probe_exits_one(self, capsys, files):
        probes = files.write("probes.jsonl", [{"id": "p", "input": {"height": 99.0}}])
        code, payload = run_json(
            capsys, "dataset", "uncertainty", "--known", files.data,
            "--probes", probes, "--spec", files.spec,
        )
        assert code == 1
        assert payload["fractions"]["unknown_unknown"] == 1.0


    def test_uncertainty_prunes_a_transform_past_float_range(self, capsys, files):
        spec = files.write("big_spec.json", dict(
            PED_SPEC,
            schema={"fields": {"n": {"type": "integer"}}, "labels": ["a", "b"]},
            precondition="true",
            necessary={},
            invariants=[
                {"name": "big", "kind": "scale", "field": "n", "k": 1e308},
                {"name": "next", "kind": "add", "field": "n", "c": 1},
            ],
        ))
        known = files.write("big.jsonl", [{"id": "r0", "input": {"n": 5}, "label": "a"}])
        probes = files.write("big_probes.jsonl", [{"id": "p", "input": {"n": 7}}])
        code, payload = run_json(
            capsys, "dataset", "uncertainty", "--known", known,
            "--probes", probes, "--spec", spec, "--depth", "2",
        )
        assert code == 0
        assert payload["per_probe"] == [
            {"probe": "p", "category": "KNOWN_UNKNOWN", "depth": 2, "path": ["next", "next"]}
        ]

    def test_uncertainty_never_reaches_through_a_grid_cell_past_float_range(
        self, capsys, files
    ):
        """The probe is one shift from scale(known), whose first cell is
        inf: outside the input domain, and so not a path."""
        spec = files.write("big_grid_spec.json", dict(
            PED_SPEC,
            schema={"fields": {"g": {"type": "grid", "rows": 1, "cols": 2}}, "labels": ["a", "b"]},
            precondition="true",
            necessary={},
            invariants=[
                {"name": "big", "kind": "scale", "field": "g", "k": 1e308},
                {"name": "left", "kind": "shift_grid", "field": "g", "dx": -1, "fill": 1},
            ],
        ))
        known = files.write(
            "big_grid.jsonl", [{"id": "r0", "input": {"g": [[5, 1]]}, "label": "a"}]
        )
        probes = files.write("big_grid_probes.jsonl", [{"id": "p", "input": {"g": [[1e308, 1]]}}])
        code, payload = run_json(
            capsys, "dataset", "uncertainty", "--known", known,
            "--probes", probes, "--spec", spec, "--depth", "2",
        )
        assert payload["per_probe"][0]["category"] == "UNKNOWN_UNKNOWN"
        assert code == 1

    @pytest.mark.parametrize(
        "bad_row, error",
        [
            ([1, 1, 1], "row 5 must have 8 cells"),
            ([0] * 7 + ["x"], "cell [5][7] must be a finite number"),
        ],
        ids=["short_row", "string_cell"],
    )
    def test_uncertainty_refuses_a_malformed_known_grid_or_probe(
        self, capsys, files, bad_row, error
    ):
        spec = files.write("grid_spec.json", GRID_SPEC)
        good = [[0] * 8 for _ in range(8)]
        good[3][3] = 1
        bad = [[0] * 8 for _ in range(8)]
        bad[5] = bad_row
        known = files.write(
            "known.jsonl", [{"id": "good", "input": {"img": good}, "label": "clear"}]
        )
        probes = [
            {"id": "p1", "input": {"img": [[0] + row[:7] for row in good]}},
            {"id": "p2", "input": {"img": [[9] * 8 for _ in range(8)]}},
        ]

        def uncertainty(known, probes):
            return run(
                capsys, "dataset", "uncertainty", "--known", known,
                "--probes", files.write("grid_probes.jsonl", probes),
                "--spec", spec, "--depth", "2",
            )

        code, out, err = uncertainty(known, probes)
        assert code == 1 and err == ""
        assert [(p["probe"], p["category"]) for p in json.loads(out)["per_probe"]] == [
            ("p1", "KNOWN_UNKNOWN"),
            ("p2", "UNKNOWN_UNKNOWN"),
        ]
        bad_known = files.write(
            "bad_known.jsonl",
            [
                {"id": "good", "input": {"img": good}, "label": "clear"},
                {"id": "bad", "input": {"img": bad}, "label": "clear"},
            ],
        )
        for args, ref in (
            ((bad_known, probes), "known record bad"),
            ((known, probes + [{"id": "p3", "input": {"img": bad}}]), "probe p3"),
        ):
            code, out, err = uncertainty(*args)
            assert code == 2 and out == ""
            detail = json.loads(err)
            assert detail["error"] == "FormatError"
            assert detail["detail"].startswith(f"{ref} does not conform to the schema: ")
            assert error in detail["detail"]

    @pytest.mark.parametrize(
        "overrides,risk",
        [
            ({"risk_multiplier": 1e308}, 4),
            ({"base_min_samples": 10**400}, 2),
            ({"base_min_samples": 10**300, "risk_multiplier": 1e10}, 2),
        ],
        ids=["multiplier", "base", "product"],
    )
    def test_a_requirement_too_large_for_a_float_exits_two(
        self, capsys, files, overrides, risk
    ):
        (partitioning,) = REQS["partitionings"]
        short, tall = partitioning["partitions"]
        reqs = dict(
            REQS,
            partitionings=[{**partitioning, "partitions": [{**short, "risk_weight": risk}, tall]}],
            **overrides,
        )
        code, out, err = run(
            capsys, "dataset", "coverage", "--data", files.data,
            "--requirements", files.write("huge.json", reqs),
        )
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "FormatError",
            "detail": f"base_min_samples x risk_multiplier^{risk - 1} (risk weight {risk}) "
            "is too large for a float",
        }

    @pytest.mark.parametrize("command", ["split", "augment"])
    @pytest.mark.parametrize(
        "provenances,name,value",
        [
            ([{"transform": 5}, {"transform": "t"}], "transform", 5),
            ([{"transform": "t"}, {"transform": "t", "source": ["r0"]}], "source", ["r0"]),
        ],
        ids=["int-transform", "list-source"],
    )
    def test_a_provenance_name_that_is_not_a_string_exits_two(
        self, capsys, files, command, provenances, name, value
    ):
        """Two records that differ only in provenance, so split has to
        order them by it; the reader stops at the line of the bad one."""
        rows = [
            {**DATA[0], "provenance": {"kind": "AUGMENTED", "source": "r0", **provenance}}
            for provenance in provenances
        ]
        data = files.write("provenance.jsonl", DATA[1:] + rows)
        argv = {
            "split": ["--data", data, "--ratios", "0.6,0.2,0.2"],
            "augment": ["--spec", files.spec, "--data", data],
        }[command]
        code, out, err = run(capsys, "dataset", command, *argv)
        assert (code, out) == (2, "")
        line = len(DATA) + [p.get(name) for p in provenances].index(value)  # DATA[1:], then rows
        assert json.loads(err) == {
            "error": "FormatError",
            "detail": f"{data}:{line}: provenance {name!r} must be a string, got {value!r}",
        }


class TestPatternsSimulate:
    def classifier(self, files, name, threshold):
        return files.write(
            name,
            {
                "kind": "expression",
                "rules": [
                    {
                        "condition": f"input.height < {threshold}",
                        "label": "pedestrian",
                        "confidence": 1.0,
                    }
                ],
                "default": {"label": "not_pedestrian", "confidence": 1.0},
            },
        )

    def test_matching_subject_exits_zero(self, capsys, files):
        oracle = self.classifier(files, "oracle.json", 8)
        self.classifier(files, "subject.json", 8)
        harness = files.write(
            "harness.json", {"pattern": "classifier", "classifier": "subject.json"}
        )
        code, payload = run_json(
            capsys, "patterns", "simulate", "--harness", harness,
            "--domain", files.data, "--oracle", oracle,
        )
        assert code == 0
        assert payload["error_rate"] == 0.0

    def test_mismatching_subject_exits_one(self, capsys, files):
        oracle = self.classifier(files, "oracle.json", 8)
        self.classifier(files, "subject.json", 6)
        harness = files.write(
            "harness.json", {"pattern": "classifier", "classifier": "subject.json"}
        )
        code, payload = run_json(
            capsys, "patterns", "simulate", "--harness", harness,
            "--domain", files.data, "--oracle", oracle,
        )
        assert code == 1
        assert [m["record"] for m in payload["mismatches"]] == ["r5", "r6"]
        assert payload["error_rate"] == pytest.approx(0.2)


    def gated_files(self, files):
        """A gated harness over PED_SPEC with a table oracle, and a domain."""
        files.write("spec.json", PED_SPEC)
        self.classifier(files, "ml.json", 8)
        harness = files.write(
            "harness.json", {"pattern": "gated", "spec": "spec.json", "ml": "ml.json"}
        )
        entries = [{"input": row["input"], "label": row["label"]} for row in DATA]
        oracle = files.write("oracle.json", {"kind": "table", "entries": entries})
        return harness, files.data, oracle

    def test_a_gated_simulate_builds_the_schema_key_once(self, capsys, files, monkeypatch):
        """The table oracle builds it; the gated ML member is an expression
        file, loaded with the spec's schema, and builds none."""
        from specguard.speccore import spec

        built = spec.schema_key_function
        calls = []
        monkeypatch.setattr(
            spec, "schema_key_function", lambda schema: calls.append(schema) or built(schema)
        )
        harness, domain, oracle = self.gated_files(files)
        code, payload = run_json(
            capsys, "patterns", "simulate", "--harness", harness,
            "--domain", domain, "--oracle", oracle,
        )
        assert (code, payload["total"], len(calls)) == (0, len(DATA), 1)

    @pytest.mark.parametrize("where", ["domain", "oracle", "harness", "spec"])
    def test_an_int_of_over_4300_digits_is_an_invocation_error(self, capsys, files, where):
        harness, domain, oracle = self.gated_files(files)
        target = {"domain": domain, "oracle": oracle, "harness": harness}.get(
            where, str(files.dir / "spec.json")
        )
        text = Path(target).read_text(encoding="utf-8")
        huge = "7" * 5000
        if where == "domain":
            text = text.replace('"height": 1.0', '"height": ' + huge, 1)
        else:  # one more key holding the int; the JSON is read before the keys are
            text = text.replace("{", '{"huge": ' + huge + ", ", 1)
        assert huge in text
        Path(target).write_text(text, encoding="utf-8")
        code, out, err = run(
            capsys, "patterns", "simulate", "--harness", harness,
            "--domain", domain, "--oracle", oracle,
        )
        assert code == 2 and out == ""
        (line,) = err.splitlines()
        assert json.loads(line)["error"] == "FormatError"
        assert "4300" in line and "Traceback" not in err

    def test_an_int_no_float_holds_aborts_an_oracle_lookup(self, capsys, files):
        harness, _, oracle = self.gated_files(files)
        domain = files.write("huge.jsonl", [{"id": "h", "input": {"height": 10**400}}])
        code, out, err = run(
            capsys, "patterns", "simulate", "--harness", harness,
            "--domain", domain, "--oracle", oracle,
        )
        assert code == 2 and out == ""
        error = json.loads(err)
        assert error["error"] == "PatternError"
        assert "oracle failed on record h: table classifier cannot key this input" in (
            error["detail"]
        )

    @pytest.mark.parametrize("value", [10**400, None], ids=["int-no-float-holds", "null"])
    def test_a_value_no_key_holds_is_a_subject_error_mismatch(self, capsys, files, value):
        oracle = files.write("oracle.json", {"kind": "expression", "rules": [], "default": "a"})
        files.write("subject.json", {"kind": "table", "entries": [], "default": "a"})
        harness = files.write(
            "harness.json", {"pattern": "classifier", "classifier": "subject.json"}
        )
        domain = files.write(
            "huge.jsonl", [{"id": "ok", "input": {"x": 1}}, {"id": "h", "input": {"x": value}}]
        )
        code, payload = run_json(
            capsys, "patterns", "simulate", "--harness", harness,
            "--domain", domain, "--oracle", oracle,
        )
        assert code == 1
        assert payload["mismatches"] == [{"record": "h", "source": "ERROR", "expected": "a"}]
        assert payload["errors"][0]["error"].startswith(
            "classifier failed: table classifier cannot key this input"
        )

    def test_an_oracle_entry_no_float_holds_is_an_invocation_error(self, capsys, files):
        harness, domain, _ = self.gated_files(files)
        entries = [
            {"input": {"height": 1.0}, "label": "a"},
            {"input": {"height": 10**400}, "label": "b"},
        ]
        oracle = files.write("huge_oracle.json", {"kind": "table", "entries": entries})
        code, out, err = run(
            capsys, "patterns", "simulate", "--harness", harness,
            "--domain", domain, "--oracle", oracle,
        )
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "FormatError"
        assert "table entry 1 input cannot be keyed" in err


    def test_a_list_nested_past_the_recursion_limit_is_keyed(self, capsys, files):
        harness, _, oracle = self.gated_files(files)
        zone = 1.0
        for _ in range(700):
            zone = [zone]
        domain = files.write("deep.jsonl", [{"id": "deep", "input": {"height": 1.0, "zone": zone}}])
        code, out, err = run(
            capsys, "patterns", "simulate", "--harness", harness,
            "--domain", domain, "--oracle", oracle,
        )
        assert (code, out) == (2, "")
        (line,) = err.splitlines()
        assert json.loads(line) == {
            "error": "PatternError",
            "detail": "oracle failed on record deep: "
            "table classifier has no entry for this input and no default",
        }

    def test_memory_stays_flat_as_the_domain_grows(self, capsys, files):
        """The domain is streamed: 18k more records cost under 1 MB of peak
        traced heap. The subject is the oracle, so the report stays small."""
        oracle = self.classifier(files, "oracle.json", 8)
        self.classifier(files, "subject.json", 8)
        harness = files.write(
            "harness.json", {"pattern": "classifier", "classifier": "subject.json"}
        )
        peaks = {}
        for size in (2_000, 2_000, 20_000):  # the first run warms one-time caches
            domain = files.dir / f"domain{size}.jsonl"
            domain.write_text(
                "".join(
                    json.dumps({"id": f"r{i}", "input": {"height": i % 16 + 0.5}}) + "\n"
                    for i in range(size)
                ),
                encoding="utf-8",
            )
            argv = ["patterns", "simulate", "--harness", harness,
                    "--domain", str(domain), "--oracle", oracle]
            tracemalloc.start()
            try:
                code = main(argv)
                peaks[size] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert (code, capsys.readouterr().err) == (0, "")
        assert peaks[20_000] < peaks[2_000] + 2**20


class TestSimulateErrorOrder:
    """patterns simulate streams its domain but reports errors in the order
    of reading everything first: harness, domain file, oracle file, then the
    oracle on a record. Each case pins the file or record named and the exit
    code."""

    SIZE = 60

    @pytest.fixture
    def case(self, files):
        good = [{"id": f"d{i}", "input": {"height": float(i)}} for i in range(self.SIZE)]
        entries = [
            {"input": r["input"], "label": "low" if r["input"]["height"] < 30 else "high"}
            for r in good
        ]
        rule = {"condition": "input.height < 30", "label": "low"}
        files.write("subject.json", {"kind": "expression", "rules": [rule], "default": "high"})
        lines = [json.dumps(r) for r in good]
        malformed = lines.copy()
        malformed[50] = "{not json"  # line 51
        unknown = [json.dumps({"id": "u", "input": {"height": -1.0}})] + lines
        paths = {
            ("harness", "good"): files.write(
                "harness.json", {"pattern": "classifier", "classifier": "subject.json"}
            ),
            ("harness", "bad"): files.write("bad_harness.json", {"pattern": "nope"}),
            ("oracle", "good"): files.write("oracle.json", {"kind": "table", "entries": entries}),
            ("oracle", "short"): files.write(
                "short.json", {"kind": "table", "entries": entries[:20]}
            ),
            ("oracle", "missing"): str(files.dir / "no_oracle.json"),
            ("domain", "missing"): str(files.dir / "no_domain.jsonl"),
        }
        for name, text in [("malformed", malformed), ("good", lines), ("unknown", unknown)]:
            path = files.dir / f"{name}.jsonl"
            path.write_text("\n".join(text) + "\n", encoding="utf-8")
            paths["domain", name] = str(path)
        path = files.dir / "malformed_oracle.json"
        path.write_text('{"kind": "table", "entries": [', encoding="utf-8")
        paths["oracle", "malformed"] = str(path)
        return paths

    @staticmethod
    def expected(paths, harness, domain, oracle):
        """(error kind, start of its detail) by the read-everything-first order."""
        if harness == "bad":
            return "FormatError", "harness has unknown pattern 'nope'"
        if domain == "missing":
            return "FormatError", f"cannot read records {paths['domain', domain]}: "
        if domain == "malformed":
            return "FormatError", f"{paths['domain', domain]}:51: not valid JSON: "
        if oracle == "missing":
            return "FormatError", f"cannot read classifier file {paths['oracle', oracle]}: "
        if oracle == "malformed":
            return "FormatError", f"classifier file {paths['oracle', oracle]} is not valid JSON: "
        missing_entry = ": table classifier has no entry for this input and no default"
        if domain == "unknown":
            return "PatternError", "oracle failed on record u" + missing_entry
        if oracle == "short":
            return "PatternError", "oracle failed on record d20" + missing_entry
        return None

    @pytest.mark.parametrize("harness", ["good", "bad"])
    @pytest.mark.parametrize("domain", ["good", "malformed", "unknown", "missing"])
    @pytest.mark.parametrize("oracle", ["good", "malformed", "short", "missing"])
    def test_the_first_error_in_reading_order_is_reported(
        self, capsys, case, harness, domain, oracle
    ):
        code, out, err = run(
            capsys, "patterns", "simulate", "--harness", case["harness", harness],
            "--domain", case["domain", domain], "--oracle", case["oracle", oracle],
        )
        want = self.expected(case, harness, domain, oracle)
        if want is None:
            assert (code, err) == (0, "")
            assert json.loads(out)["total"] == self.SIZE
            return
        assert (code, out) == (2, "")
        (line,) = err.splitlines()
        error = json.loads(line)
        assert error["error"] == want[0]
        assert error["detail"].startswith(want[1])


class TestProcessCommands:
    def test_catalog_score_all_asils(self, capsys):
        from specguard.process.catalog import packaged_catalog_path

        code, payload = run_json(
            capsys, "catalog", "score",
            "--catalog", str(packaged_catalog_path("error-handling")),
            "--condition", "no-spec",
        )
        assert code == 0
        assert payload["scores"] == {
            "A": "0.666666666667",
            "B": "0.666666666667",
            "C": "0.600000000000",
            "D": "0.500000000000",
        }
        assert payload["mean"] == "0.608333333333"

    def test_catalog_score_single_asil_has_no_mean(self, capsys):
        from specguard.process.catalog import packaged_catalog_path

        code, payload = run_json(
            capsys, "catalog", "score",
            "--catalog", str(packaged_catalog_path("error-handling")),
            "--condition", "no-spec", "--asil", "C",
        )
        assert code == 0
        assert payload["scores"] == {"C": "0.600000000000"}
        assert "mean" not in payload

    def test_catalog_impact_text_table(self, capsys):
        from specguard.process.catalog import packaged_catalog_path

        code, out, err = run(
            capsys, "catalog", "impact",
            "--catalog", str(packaged_catalog_path("full")),
            "--format", "text",
        )
        assert code == 0
        assert "condition" in out
        assert "0.50" in out and "0.97" in out

    def test_gate_assess(self, capsys, files):
        questionnaire = files.write(
            "gate.json",
            {
                "completely_specifiable": False,
                "strengthenable": True,
                "strengthened_functionality_acceptable": True,
                "splittable": False,
            },
        )
        code, payload = run_json(capsys, "gate", "assess", "--questionnaire", questionnaire)
        assert code == 0
        assert payload["verdict"] == "STRENGTHEN_REQUIREMENT"

    def test_diagnose_canonical_plan(self, capsys, files):
        failure = files.write("failure.json", {"description": "missed pedestrian"})
        code, payload = run_json(capsys, "diagnose", "--failure", failure)
        assert code == 0
        assert len(payload["groups"]) == 13
        assert payload["groups"][0]["requirement_ids"] == ["MLIN1"]

    def test_diagnose_bad_hint_exits_two(self, capsys, files):
        failure = files.write(
            "failure.json", {"description": "x", "phase_hint": "bogus"}
        )
        code, out, err = run(capsys, "diagnose", "--failure", failure)
        assert code == 2
        assert json.loads(err)["error"] == "FormatError"

    def test_safetycase_gap_exits_one(self, capsys, files):
        graph = files.write(
            "case.json",
            {
                "nodes": [
                    {"id": "H1", "kind": "HAZARD"},
                    {"id": "G1", "kind": "SAFETY_GOAL", "asil": "D"},
                    {"id": "R1", "kind": "REQUIREMENT", "asil": "D"},
                ],
                "edges": [
                    {"kind": "mitigates", "source": "G1", "target": "H1"},
                    {"kind": "refines", "source": "R1", "target": "G1"},
                ],
            },
        )
        code, payload = run_json(capsys, "safetycase", "check", "--graph", graph)
        assert code == 1
        assert [g["kind"] for g in payload["gaps"]] == ["MISSING_EVIDENCE"]

    def test_safetycase_complete_exits_zero(self, capsys, files):
        (files.dir / "report.json").write_text("{}", encoding="utf-8")
        graph = files.write(
            "case.json",
            {
                "nodes": [
                    {"id": "H1", "kind": "HAZARD"},
                    {"id": "G1", "kind": "SAFETY_GOAL", "asil": "D"},
                    {"id": "R1", "kind": "REQUIREMENT", "asil": "D"},
                    {
                        "id": "E1",
                        "kind": "EVIDENCE",
                        "evidence_kind": "monitor-report",
                        "artifact": "report.json",
                    },
                ],
                "edges": [
                    {"kind": "mitigates", "source": "G1", "target": "H1"},
                    {"kind": "refines", "source": "R1", "target": "G1"},
                    {"kind": "supports", "source": "E1", "target": "R1"},
                ],
            },
        )
        code, payload = run_json(capsys, "safetycase", "check", "--graph", graph)
        assert code == 0
        assert payload == {"ok": True, "gaps": []}

    def test_safetycase_text_report_does_not_depend_on_edge_order(self, capsys, files):
        nodes = [
            {"id": "H1", "kind": "HAZARD"},
            {"id": "G1", "kind": "SAFETY_GOAL", "asil": "A"},
            {"id": "G2", "kind": "SAFETY_GOAL", "asil": "D"},
            {"id": "R1", "kind": "REQUIREMENT", "asil": "A"},
            {"id": "R2", "kind": "REQUIREMENT", "asil": "A"},
        ]
        edges = [
            {"kind": "mitigates", "source": "G1", "target": "H1"},
            {"kind": "mitigates", "source": "G2", "target": "H1"},
            {"kind": "refines", "source": "R1", "target": "G1"},
            {"kind": "refines", "source": "R1", "target": "G2"},
            {"kind": "refines", "source": "R2", "target": "R1"},
        ]
        outputs = []
        for name, order in (("forward.json", edges), ("reversed.json", edges[::-1])):
            graph = files.write(name, {"nodes": nodes, "edges": order})
            code, out, err = run(
                capsys, "safetycase", "check", "--graph", graph, "--format", "text"
            )
            assert (code, err) == (1, "")
            outputs.append(out)
        assert outputs[0] == outputs[1]
        assert outputs[0] == (
            "ASIL_MISMATCH R1: requirement ASIL A differs from goal 'G2' ASIL D "
            "(ASIL is inherited)\n"
            "ASIL_MISMATCH R2: requirement ASIL A differs from goal 'G2' ASIL D "
            "(ASIL is inherited)\n"
            "MISSING_EVIDENCE R2: no evidence supports this requirement (and no "
            "derived requirement refines it)\n"
        )

    def test_safetycase_cycle_exits_two(self, capsys, files):
        graph = files.write(
            "cycle.json",
            {
                "nodes": [
                    {"id": "R1", "kind": "REQUIREMENT"},
                    {"id": "R2", "kind": "REQUIREMENT"},
                ],
                "edges": [
                    {"kind": "refines", "source": "R1", "target": "R2"},
                    {"kind": "refines", "source": "R2", "target": "R1"},
                ],
            },
        )
        code, out, err = run(capsys, "safetycase", "check", "--graph", graph)
        assert code == 2
        assert json.loads(err)["error"] == "CycleError"

    @pytest.mark.parametrize(
        "node",
        [
            {"id": "E1", "kind": "EVIDENCE", "evidence_kind": "document", "artifact": 5},
            {"id": "R1", "kind": "REQUIREMENT", "requirement_ref": ["spec.json"]},
        ],
        ids=["artifact", "requirement_ref"],
    )
    def test_safetycase_non_string_path_exits_two(self, capsys, files, node):
        """A path that is not a string is refused while loading, naming the
        node, not left to fail as a traceback in the gap analysis."""
        graph = files.write("case.json", {"nodes": [node], "edges": []})
        code, out, err = run(capsys, "safetycase", "check", "--graph", graph)
        assert (code, out) == (2, "")
        field = "artifact" if "artifact" in node else "requirement_ref"
        assert json.loads(err) == {
            "error": "FormatError",
            "detail": f"node {node['id']!r}: {field!r} must be a string path",
        }


def table_commands() -> list[tuple[str, object]]:
    """Each (command, subcommand) of cli._COMMANDS, in its order; the
    subcommand is None for a command that takes its arguments itself."""
    return [(command, sub) for command, (_, subs) in cli._COMMANDS.items() for sub in subs]


def every_command(files):
    """One argv per command main dispatches: each (command, subcommand) of
    cli._COMMANDS."""
    from specguard.process.catalog import packaged_catalog_path

    subject = {
        "kind": "expression",
        "rules": [{"condition": "input.height < 8", "label": "pedestrian", "confidence": 1.0}],
        "default": {"label": "not_pedestrian", "confidence": 1.0},
    }
    files.write("subject.json", subject)
    gate = {
        "completely_specifiable": False,
        "strengthenable": True,
        "strengthened_functionality_acceptable": True,
        "splittable": False,
    }
    graph = {
        "nodes": [
            {"id": "H1", "kind": "HAZARD"},
            {"id": "G1", "kind": "SAFETY_GOAL", "asil": "D"},
            {"id": "R1", "kind": "REQUIREMENT", "asil": "D"},
        ],
        "edges": [
            {"kind": "mitigates", "source": "G1", "target": "H1"},
            {"kind": "refines", "source": "R1", "target": "G1"},
        ],
    }
    probes = [{"id": "p", "input": {"height": 3.0}}, {"id": "q", "input": {"height": 99.0}}]
    catalog = str(packaged_catalog_path("full"))
    return {
        ("spec", "validate"): ["spec", "validate", files.spec],
        ("monitor", "run"): ["monitor", "run", "--spec", files.spec, "--trace", files.trace],
        ("dataset", "coverage"): [
            "dataset", "coverage", "--data", files.data, "--requirements", files.reqs,
        ],
        ("dataset", "augment"): ["dataset", "augment", "--spec", files.spec, "--data", files.data],
        ("dataset", "uncertainty"): [
            "dataset", "uncertainty", "--known", files.data,
            "--probes", files.write("probes.jsonl", probes), "--spec", files.spec,
        ],
        ("dataset", "split"): ["dataset", "split", "--data", files.data, "--ratios", "0.6,0.2,0.2"],
        ("patterns", "simulate"): [
            "patterns", "simulate",
            "--harness", files.write(
                "harness.json", {"pattern": "classifier", "classifier": "subject.json"}
            ),
            "--domain", files.data, "--oracle", files.write("oracle.json", subject),
        ],
        ("catalog", "score"): ["catalog", "score", "--catalog", catalog, "--condition", "no-spec"],
        ("catalog", "impact"): ["catalog", "impact", "--catalog", catalog],
        ("gate", "assess"): [
            "gate", "assess", "--questionnaire", files.write("gate.json", gate),
        ],
        ("safetycase", "check"): [
            "safetycase", "check", "--graph", files.write("case.json", graph),
        ],
        ("diagnose", None): [
            "diagnose", "--failure", files.write("failure.json", {"description": "missed"}),
        ],
    }


class FailingStdout(io.StringIO):
    """A stdout whose write (or flush) fails as on a full disk."""

    def __init__(self, failing: str) -> None:
        super().__init__()
        self.failing = failing

    def write(self, text):
        if self.failing == "write":
            raise OSError(errno.ENOSPC, "No space left on device")
        return super().write(text)

    def flush(self):
        if self.failing == "flush":
            raise OSError(errno.ENOSPC, "No space left on device")


class TestOutputDiscipline:
    def test_no_command_is_a_usage_error(self, capsys):
        code, out, err = run(capsys)
        assert code == 2
        assert json.loads(err) == {
            "error": "usage",
            "detail": "a command is required (see --help)",
        }

    def test_missing_subcommand_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "dataset")
        assert code == 2
        assert "subcommand is required" in json.loads(err)["detail"]

    def test_unknown_flag_is_a_usage_error(self, capsys, files):
        code, out, err = run(capsys, "spec", "validate", files.spec, "--frobnicate")
        assert code == 2
        assert json.loads(err)["error"] == "usage"

    def test_missing_file_is_an_invocation_error(self, capsys):
        code, out, err = run(capsys, "gate", "assess", "--questionnaire", "/nope.json")
        assert code == 2
        report = json.loads(err)
        assert report["error"] == "FormatError"
        assert "/nope.json" in report["detail"]

    def test_json_output_is_canonical(self, capsys, files):
        commands = every_command(files)
        assert set(commands) == set(table_commands())
        for command, argv in commands.items():
            for extra in ([], ["--timestamps"]):
                code, out, err = run(capsys, *extra, *argv)
                assert (code in (0, 1), err) == (True, ""), command
                payload = json.loads(out)
                assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n", command

    @pytest.mark.parametrize("failing", ["write", "flush"])
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_a_report_that_cannot_be_written_exits_two(
        self, capsys, files, monkeypatch, fmt, failing
    ):
        argv = ["--format", fmt, *every_command(files)["safetycase", "check"]]
        monkeypatch.setattr(sys, "stdout", FailingStdout(failing))
        code = main(argv)
        monkeypatch.undo()
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1
        assert json.loads(err) == {
            "error": "io",
            "detail": "cannot write the report: [Errno 28] No space left on device",
        }

    def test_text_format(self, capsys, files):
        code, out, err = run(capsys, "--format", "text", "spec", "validate", files.spec)
        assert code == 0
        assert out == "ok\n"

    def test_timestamps_flag_adds_generated_at(self, capsys, files):
        code, payload = run_json(
            capsys, "--timestamps", "spec", "validate", files.spec
        )
        assert "generated_at" in payload
        code, payload = run_json(capsys, "spec", "validate", files.spec)
        assert "generated_at" not in payload

    def test_console_script_is_installed(self, files):
        proc = run_declared_console_script("spec", "validate", files.spec)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["ok"] is True

        # the wrapper's sys.exit(main()) must carry a failure code to the shell
        proc = run_declared_console_script("spec", "validate", "/nope.json")
        assert proc.returncode == 2
        assert proc.stdout == ""
        report = json.loads(proc.stderr)
        assert report["error"] == "FormatError"
        assert "/nope.json" in report["detail"]

    @pytest.mark.skipif(
        shutil.which("specguard") is None,
        reason="specguard console script is not installed",
    )
    def test_installed_console_script_matches_declaration(self, files):
        installed = importlib.metadata.entry_points(
            group="console_scripts", name="specguard"
        )
        assert {ep.value for ep in installed} == {declared_console_script().value}
        exe = shutil.which("specguard")
        proc = subprocess.run(
            [exe, "spec", "validate", files.spec],
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["ok"] is True


def parser_run(capsys, argv, build):
    """(exit code, stdout, stderr) of main(argv) with cli.build_parser
    replaced by build; --help exits through SystemExit."""
    original = cli.build_parser
    cli.build_parser = build
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    finally:
        cli.build_parser = original
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestNarrowedParser:
    """main builds only the running command's parser (build_parser(argv));
    what it prints must be what the full parser prints."""

    @staticmethod
    def argvs(command, subcommand):
        named = [command] if subcommand is None else [command, subcommand]
        yield ["--help"]
        yield [command, "--help"]
        yield [*named, "--help"]
        yield named  # a missing required argument (spec validate has none)
        yield [command, "bogus"]
        yield ["--format", "text", *named, "--help"]
        yield ["--seed", "3", *named]
        yield ["--seed", command, *named]
        yield ["--format", command, *named]
        yield ["--timestamps", command]

    @pytest.mark.parametrize("command,subcommand", table_commands(), ids=str)
    def test_it_prints_what_the_full_parser_prints(
        self, capsys, monkeypatch, command, subcommand
    ):
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.delenv("SPECGUARD_SPEC", raising=False)
        full = cli.build_parser
        for argv in self.argvs(command, subcommand):
            narrowed = parser_run(capsys, argv, full)
            whole = parser_run(capsys, argv, lambda argv=None: full())
            assert narrowed == whole, argv
            assert narrowed[0] in (0, 2), argv

    def test_only_the_running_command_is_filled_in(self, capsys, files, monkeypatch):
        import argparse

        init = argparse.ArgumentParser.__init__
        parsers = []

        def counted(self, *args, **kwargs):
            parsers.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        argv = every_command(files)["safetycase", "check"]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (1, "")
        # specguard, its eight commands, and safetycase's one subcommand
        assert len(parsers) == 10
        parsers.clear()
        cli.build_parser()
        assert len(parsers) == 20


GOLDEN_HELP = json.loads(cli_help_golden.GOLDEN.read_text(encoding="utf-8"))


class TestHelpGolden:
    """What --help, no argument, an unknown subcommand and an unknown option
    print at every level, against tests/golden/cli_help.json. The narrowed
    and the full parser come from the same table, so only a golden file
    written from an independent list of names catches a slip in it."""

    @pytest.mark.skipif(
        GOLDEN_HELP["python"] != "{}.{}".format(*sys.version_info[:2]),
        reason="the golden help was written by another Python's argparse",
    )
    @pytest.mark.parametrize(
        "case", GOLDEN_HELP["cases"], ids=lambda case: " ".join(case["argv"]) or "-"
    )
    def test_it_prints_the_golden_output(self, case):
        assert cli_help_golden.capture(case["argv"]) == case

    def test_the_golden_file_names_every_command_of_the_table(self):
        table = [(c, [s for s in subs if s is not None]) for c, (_, subs) in cli._COMMANDS.items()]
        assert table == list(cli_help_golden.COMMANDS.items())
        assert [case["argv"] for case in GOLDEN_HELP["cases"]] == cli_help_golden.cases()


class CountingSink:
    """A text sink that keeps only the number and the largest size of writes."""

    def __init__(self) -> None:
        self.chars = self.writes = self.largest = 0

    def write(self, text: str) -> None:
        self.chars += len(text)
        self.writes += 1
        self.largest = max(self.largest, len(text))

    def flush(self) -> None:
        pass


BATCH = cli._JSON_BATCH
# A list of n strings of 26 characters writes as pieces of 32 characters,
# one per item, the first with the "[": with the closing "]" and the
# newline, 32 * n + 3 characters, so these lists straddle one and two
# batches.
ITEM = 32
BATCH_EDGE_SIZES = [BATCH // ITEM - 1, BATCH // ITEM, 2 * BATCH // ITEM + 1]
# Past the writer's depth limit, where json's encoder takes over.
DEEP = cli._JSON_MAX_PAD // 2 + 3


class Level(IntEnum):
    LOW = 1
    HIGH = 2


class Tag(str, Enum):
    PLAIN = "plain"
    ODD = "a\nb"


class Bag(dict):
    pass


class Row(list):
    pass


_json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64 - 2, max_value=2**70),
    st.floats(),  # NaN, infinities and -0.0 among them
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
    st.text(),
    st.sampled_from(["", "\x00\x1f\x7f", "\u00e9\u2028\U0001f600", '"\\/\b\f\n\r\t']),
    st.sampled_from([*Level, *Tag]),
)


def _containers(inner):
    """Each container json encodes, its subclasses, and dicts of every key
    type json takes (a dict's keys must be comparable, so None keys stand
    alone); a shared detail twice, once inside a list one level deeper."""
    dicts = st.dictionaries(st.text(max_size=8), inner, max_size=6)
    return st.one_of(
        st.lists(inner, max_size=6),
        dicts,
        st.lists(inner, max_size=4).map(tuple),
        st.lists(inner, max_size=4).map(Row),
        dicts.map(Bag),
        st.dictionaries(st.one_of(st.integers(), st.floats(), st.booleans()), inner, max_size=4),
        st.dictionaries(st.none(), inner, max_size=1),
        st.dictionaries(st.sampled_from([*Tag]), inner, max_size=2),
        dicts.map(_SharedDetail).map(lambda shared: [shared, [shared]]),
    )


_json_values = st.recursive(_json_leaves, _containers, max_leaves=40)


def _nested(depth: int):
    value: object = {}
    for level in range(depth):
        value = [value] if level % 2 else {"k": value, "": []}
    return value


def _wrapped(depth: int, value):
    """value inside depth lists and dicts, by turns."""
    for level in range(depth):
        value = [value, 0] if level % 2 else {"v": value}
    return value


_payloads = st.one_of(
    _json_values,
    st.integers(min_value=0, max_value=300).map(_nested),
    st.builds(_wrapped, st.integers(min_value=DEEP - 4, max_value=DEEP), _json_values),
)


def _violations(details):
    return st.builds(
        Violation,
        st.one_of(st.none(), st.text(max_size=6), st.integers()),
        st.sampled_from(ViolationKind),
        details,
        st.booleans(),
    )


def _with_violations(inner):
    """Lists and tuples of violations. A violation with a shared detail is
    written twice, and its detail once more a level deeper."""
    shared = st.dictionaries(st.text(max_size=4), _json_leaves, max_size=3).map(_SharedDetail)
    violations = st.one_of(
        _violations(st.one_of(shared, _json_values)),
        _violations(shared).map(lambda v: [v, [v.detail], v]),
    )
    return st.one_of(violations, st.lists(inner, max_size=4), st.tuples(inner, violations))


_report_payloads = st.one_of(
    st.recursive(_violations(_json_values), _with_violations, max_leaves=12),
    st.builds(_wrapped, st.integers(min_value=DEEP - 4, max_value=DEEP), _violations(_json_values)),
)


def _dump(payload) -> str:
    """The text _write_json must write for payload."""
    return json.dumps(payload, sort_keys=True, indent=2, default=Violation.to_json_dict) + "\n"


def _written(payload) -> str:
    out = io.StringIO()
    cli._write_json(payload, out)
    return out.getvalue()


class SizeSink:
    """A text sink that keeps the size of each write."""

    def __init__(self) -> None:
        self.sizes: list[int] = []

    def write(self, text: str) -> None:
        self.sizes.append(len(text))


@contextlib.contextmanager
def _exact_paths():
    _exact.set_exact(True)
    try:
        yield
    finally:
        _exact.set_exact(False)


class TestJsonWriter:
    @settings(max_examples=200, deadline=None)
    @given(_payloads)
    def test_the_text_is_the_indented_dump(self, payload):
        out = io.StringIO()
        cli._write_json(payload, out)
        assert out.getvalue() == json.dumps(payload, sort_keys=True, indent=2) + "\n"

    @settings(max_examples=200, deadline=None)
    @given(_report_payloads)
    def test_a_violation_is_written_as_its_json_dict(self, payload):
        want = _dump(payload)
        assert _written(payload) == want
        with _exact_paths():
            assert _written(payload) == want

    def test_a_cycle_raises_json_s_error(self):
        listed: list = [1]
        listed.append({"again": listed})
        held = {"k": [listed]}
        through = [(listed,)]
        bagged = Bag(k=None)
        bagged["k"] = [bagged]
        for payload in (listed, held, through, {"top": bagged}):
            with pytest.raises(ValueError) as want:
                json.dumps(payload, sort_keys=True, indent=2)
            with pytest.raises(ValueError) as got:
                cli._write_json(payload, CountingSink())
            assert str(got.value) == str(want.value) == "Circular reference detected"

    def test_an_unencodable_value_raises_json_s_error(self):
        for payload in ({"k": [object()]}, [{(1, 2): 3}], {"k": {1: 2, "a": 3}}):
            with pytest.raises(TypeError) as want:
                json.dumps(payload, sort_keys=True, indent=2)
            with pytest.raises(TypeError) as got:
                cli._write_json(payload, CountingSink())
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("items", BATCH_EDGE_SIZES)
    @pytest.mark.parametrize("in_dict", [False, True])
    def test_writes_are_batched_by_size(self, items, in_dict):
        """Each write but the last holds a batch and at most one list item
        more; the last holds the rest, the newline included."""
        payload = ["x" * (ITEM - 6)] * items
        piece = ITEM
        if in_dict:  # each item's piece is indented two columns more
            payload, piece = {"a": 1, "items": payload}, ITEM + 2
        sink = SizeSink()
        cli._write_json(payload, sink)
        chars = sum(sink.sizes)
        assert chars == len(_dump(payload))
        assert all(BATCH <= size < BATCH + piece for size in sink.sizes[:-1])
        assert 0 < sink.sizes[-1] <= BATCH
        assert chars // BATCH <= len(sink.sizes) <= chars // BATCH + 1

    def test_the_fast_paths_off_write_in_batches_too(self):
        payload = ["x" * (ITEM - 6)] * BATCH_EDGE_SIZES[-1]
        sink = SizeSink()
        with _exact_paths():
            cli._write_json(payload, sink)
        assert sum(sink.sizes) == len(_dump(payload))
        assert all(BATCH <= size < BATCH + ITEM for size in sink.sizes[:-1])

    def test_the_benchmark_tracer_s_json_view_writes_the_same(self, monkeypatch):
        """bench/tracer.py replaces cli's json name with a namespace of
        json.__all__ alone, which has no json.encoder."""
        shared = _SharedDetail(condition="input.x > 0", label="a")
        payload = {
            "violations": [
                Violation("r1", ViolationKind.POST, shared),
                Violation(None, ViolationKind.PRE, {"line": 3}, post_failsafe=True),
            ],
            "other": [(1, Level.HIGH), Bag(k=Tag.ODD), shared, {2: None}],
        }
        want = _dump(payload)
        view = types.SimpleNamespace(**{name: getattr(json, name) for name in json.__all__})
        monkeypatch.setattr(cli, "json", view)
        assert _written(payload) == want
        with _exact_paths():
            assert _written(payload) == want

    def test_memory_stays_bounded_by_one_batch(self):
        payload = [
            {"id": f"r{i}", "kind": "EVAL_ERROR", "detail": {"line": i, "stage": "trace"}}
            for i in range(50_000)
        ]
        sink = CountingSink()
        tracemalloc.start()
        try:
            cli._write_json(payload, sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sink.chars > 5_000_000
        assert peak < sink.chars / 10
        assert sink.largest < 256 * 1024

    def test_a_mostly_failing_monitor_report_is_never_held_whole(self, tmp_path):
        """monitor run's report over 20,000 lines, nearly every one a
        violation: the write holds one batch and the shared details' text."""
        WORKLOADS["monitor_trace"].generate(7, tmp_path, lines=20000)
        path = tmp_path / "spec.json"
        data = json.loads(path.read_text(encoding="utf-8"))
        data["postcondition"] = "output.confidence >= 0.999"
        path.write_text(json.dumps(data), encoding="utf-8")
        report = run_trace(load_spec(path), tmp_path / "trace.jsonl")
        payload = report.json_members(report.violations)
        sink = CountingSink()
        tracemalloc.start()
        try:
            cli._write_json(payload, sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.counts["POST"] > 19000
        assert sink.chars > 4_000_000
        assert peak < sink.chars / 10
