"""Command-line entry point.

One executable, `specguard`, exposing every capability as a subcommand with
machine-readable JSON output on stdout. Exit codes separate findings from
failures: 0 means the check ran and found nothing, 1 means the check ran and
found something (violations, gaps, insufficient coverage), 2 means the
invocation itself failed (usage, missing file, parse error). All errors go
to stderr as a JSON object {"error", "detail"}. Output is byte-identical
across identical invocations unless --timestamps is given.

A JSON report is written as json.dumps(payload, sort_keys=True, indent=2)
and a newline would give it, but in batches of the encoder's chunks, so the
whole report text never exists at once. A report that cannot be written
(an OSError from stdout, such as a full disk) exits 2 with an "io" error;
part of the report may then already be on stdout.
"""
from __future__ import annotations

import argparse
import contextlib
import datetime
import itertools
import json
import os
import sys
from typing import Iterable, Iterator, Optional, Sequence, Union

from . import dataset as ds
from .errors import FormatError, SpecGuardError, iter_json_lines, read_json_file, read_json_lines
from .monitor import (
    MonitorPolicy,
    PolicyAction,
    run_trace,
)
# read_trace is not called here; bench/tracer.py wraps it under this name in
# this module, as it wraps run_trace and json.
from .monitor import read_trace  # noqa: F401
from .patterns import GatedConfig, load_harness, simulate
from .process.catalog import (
    Asil,
    MethodType,
    ScoringCondition,
    filter_catalog,
    impact_table,
    load_catalog,
    mean_and_std,
    render_impact_text,
    render_score,
    score,
)
from .process.diagnosis import diagnose, load_failure
from .process.gate import gate_assess, load_questionnaire
from .process.safetycase import load_graph, trace_check
from .speccore.classifiers import load_classifier
from .speccore.records import record_from_json_dict
from .speccore.spec import load_spec, load_spec_lenient, validate_spec


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _add_globals(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=["json", "text"],
        default=argparse.SUPPRESS,
        help="output format (default json)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=argparse.SUPPRESS,
        help="random seed where applicable (default 0)",
    )
    parser.add_argument(
        "--timestamps",
        action="store_true",
        default=argparse.SUPPRESS,
        help="include a generation timestamp in JSON output",
    )


def _wants_text(args: argparse.Namespace) -> bool:
    """True when the command's output is printed as text, not JSON."""
    return getattr(args, "format", "json") == "text"


def _build_spec(p_spec: argparse.ArgumentParser) -> None:
    spec_sub = p_spec.add_subparsers(dest="subcommand", metavar="subcommand")
    p_validate = spec_sub.add_parser("validate", help="well-formedness of a spec file")
    p_validate.add_argument(
        "spec",
        nargs="?",
        default=None,
        help="spec file (default: $SPECGUARD_SPEC)",
    )
    p_validate.add_argument("--samples", help="JSON Lines records for conflict search")
    _add_globals(p_validate)


def _build_monitor(p_monitor: argparse.ArgumentParser) -> None:
    monitor_sub = p_monitor.add_subparsers(dest="subcommand", metavar="subcommand")
    p_run = monitor_sub.add_parser("run", help="replay a trace against a spec")
    p_run.add_argument("--spec", required=True)
    p_run.add_argument("--trace", required=True, help="JSON Lines trace file")
    p_run.add_argument("--policy", help="policy JSON file")
    _add_globals(p_run)


def _build_dataset(p_dataset: argparse.ArgumentParser) -> None:
    dataset_sub = p_dataset.add_subparsers(dest="subcommand", metavar="subcommand")
    p_coverage = dataset_sub.add_parser("coverage", help="coverage vs requirements")
    p_coverage.add_argument("--data", required=True)
    p_coverage.add_argument("--requirements", required=True)
    _add_globals(p_coverage)
    p_augment = dataset_sub.add_parser("augment", help="grow a set via spec transforms")
    p_augment.add_argument("--spec", required=True)
    p_augment.add_argument("--data", required=True)
    _add_globals(p_augment)
    p_split = dataset_sub.add_parser("split", help="deterministic three-way split")
    p_split.add_argument("--data", required=True)
    p_split.add_argument("--ratios", required=True, help="train,validation,test")
    p_split.add_argument("--stratify", help="partitioning JSON file")
    _add_globals(p_split)
    p_uncertainty = dataset_sub.add_parser(
        "uncertainty", help="categorize probes by distance from known data"
    )
    p_uncertainty.add_argument("--known", required=True, help="labeled JSON Lines")
    p_uncertainty.add_argument("--probes", required=True, help="JSON Lines inputs")
    p_uncertainty.add_argument("--spec", required=True)
    p_uncertainty.add_argument("--depth", type=int, default=1)
    _add_globals(p_uncertainty)


def _build_patterns(p_patterns: argparse.ArgumentParser) -> None:
    patterns_sub = p_patterns.add_subparsers(dest="subcommand", metavar="subcommand")
    p_simulate = patterns_sub.add_parser("simulate", help="error rate vs an oracle")
    p_simulate.add_argument("--harness", required=True)
    p_simulate.add_argument("--domain", required=True, help="JSON Lines inputs")
    p_simulate.add_argument("--oracle", required=True, help="classifier JSON file")
    _add_globals(p_simulate)


def _build_catalog(p_catalog: argparse.ArgumentParser) -> None:
    catalog_sub = p_catalog.add_subparsers(dest="subcommand", metavar="subcommand")
    p_score = catalog_sub.add_parser("score", help="applicability score per ASIL")
    p_score.add_argument("--catalog", required=True)
    p_score.add_argument("--condition", required=True, choices=["no-spec", "no-interp"])
    p_score.add_argument("--asil", choices=["A", "B", "C", "D"])
    p_score.add_argument(
        "--method-type",
        choices=[t.value for t in MethodType],
        help="score only methods of this type",
    )
    _add_globals(p_score)
    p_impact = catalog_sub.add_parser("impact", help="mean/std per condition and type")
    p_impact.add_argument("--catalog", required=True)
    _add_globals(p_impact)


def _build_gate(p_gate: argparse.ArgumentParser) -> None:
    gate_sub = p_gate.add_subparsers(dest="subcommand", metavar="subcommand")
    p_assess = gate_sub.add_parser("assess", help="verdict from a questionnaire")
    p_assess.add_argument("--questionnaire", required=True)
    _add_globals(p_assess)


def _build_diagnose(p_diagnose: argparse.ArgumentParser) -> None:
    p_diagnose.add_argument("--failure", required=True)
    _add_globals(p_diagnose)


def _build_safetycase(p_safetycase: argparse.ArgumentParser) -> None:
    safetycase_sub = p_safetycase.add_subparsers(dest="subcommand", metavar="subcommand")
    p_check = safetycase_sub.add_parser("check", help="gap analysis of a graph")
    p_check.add_argument("--graph", required=True)
    _add_globals(p_check)


# Each command's help and what fills in its parser, in the order --help lists them.
_COMMANDS = {
    "spec": ("behavioural specification checks", _build_spec),
    "monitor": ("trace monitoring", _build_monitor),
    "dataset": ("data set checks and tools", _build_dataset),
    "patterns": ("architecture patterns", _build_patterns),
    "catalog": ("method catalog scoring", _build_catalog),
    "gate": ("ML decision gate", _build_gate),
    "diagnose": ("failure diagnosis plan", _build_diagnose),
    "safetycase": ("traceability checks", _build_safetycase),
}


def build_parser(argv: Optional[Sequence[str]] = None) -> _Parser:
    """The command-line parser. Without argv, every command's parser is
    filled in. With argv, every command is still registered with its help,
    so top-level --help and an unknown command read the same, but only the
    command argv runs gets its subcommands and arguments: the first token
    of argv that names a command. A token before the command is an option
    or the value of --format or --seed, and a command name there fails at
    the top level whichever parser is built."""
    parser = _Parser(prog="specguard", description=__doc__)
    _add_globals(parser)
    commands = parser.add_subparsers(dest="command", metavar="command")
    chosen = None if argv is None else next((t for t in argv if t in _COMMANDS), None)
    for name, (help_text, fill) in _COMMANDS.items():
        command = commands.add_parser(name, help=help_text)
        if argv is None or name == chosen:
            fill(command)
    return parser


# ----------------------------------------------------------------------
# handlers: each returns (payload dict, text rendering, exit code); a
# handler may return no payload under --format text


@contextlib.contextmanager
def _read_first(lines: Iterator) -> Iterator[None]:
    """On a SpecGuardError in the block, read the rest of the streamed file
    lines before raising it, so a bad line there is reported instead, as
    reading the whole file before the block would."""
    try:
        yield
    except SpecGuardError:
        for _ in lines:
            pass
        raise


def _cmd_spec_validate(args) -> tuple[dict, str, int]:
    spec_path = args.spec or os.environ.get("SPECGUARD_SPEC")
    if not spec_path:
        raise _UsageError("spec path required (argument or SPECGUARD_SPEC)")
    spec, findings = load_spec_lenient(spec_path)
    payload: dict = {"spec": str(spec_path), "findings": list(findings)}
    if spec is not None and args.samples:
        samples = read_json_lines(args.samples, "records", record_from_json_dict)
        report = validate_spec(spec, samples)
        payload["samples_report"] = report.to_json_dict()
        findings = findings + [
            f"conflict: {c}" for c in report.conflicts
        ] + [
            f"admits no output: {c}" for c in report.admits_no_output
        ] + [
            f"evaluation error: {e}" for e in report.eval_errors
        ]
        payload["findings"] = list(findings)
    payload["ok"] = not findings
    text = "ok" if not findings else "\n".join(str(f) for f in findings)
    return payload, text, 0 if not findings else 1


def _policy_from_file(path: str) -> MonitorPolicy:
    data = read_json_file(path, "policy")
    if not isinstance(data, dict):
        raise FormatError("policy file must be a JSON object")
    kwargs = {}
    for key in ("on_pre_violation", "on_post_class_violation"):
        if key in data:
            try:
                kwargs[key] = PolicyAction(data[key])
            except ValueError:
                valid = ", ".join(a.value for a in PolicyAction)
                raise FormatError(f"policy {key} must be one of: {valid}") from None
    if "probabilistic_window" in data:
        kwargs["probabilistic_window"] = data["probabilistic_window"]
    unknown = set(data) - {"on_pre_violation", "on_post_class_violation", "probabilistic_window"}
    if unknown:
        raise FormatError(f"unknown policy key(s): {', '.join(sorted(unknown))}")
    return MonitorPolicy(**kwargs)


def _cmd_monitor_run(args) -> tuple[Optional[dict], Iterable[str], int]:
    spec = load_spec(args.spec)
    policy = _policy_from_file(args.policy) if args.policy else MonitorPolicy()
    report = run_trace(spec, args.trace, policy)
    payload = None if _wants_text(args) else report.to_json_dict()
    summary = [
        f"final state: {report.final_state.value}",
        f"records: {report.records_processed}",
        f"violations: {len(report.violations)}",
    ]
    violations = (f"  {v.kind.value} record={v.record_id} {v.detail}" for v in report.violations)
    return payload, itertools.chain(summary, violations), 1 if report.violations else 0


def _cmd_dataset_coverage(args) -> tuple[dict, str, int]:
    """Loads the requirements, then streams the data set into the report.
    Errors keep the order of reading the data set first (see _read_first)."""
    data = iter_json_lines(args.data, "data set", ds.labeled_record_from_json_dict)
    with _read_first(data):
        report = ds.coverage_report(data, ds.load_requirements(args.requirements))
    payload = report.to_json_dict()
    lines = [
        f"passed: {report.passed}",
        f"cell coverage: {report.cell_coverage:.4f}",
        f"cover failures: {len(report.cover_failures)}",
        f"eval errors: {len(report.eval_errors)}",
    ]
    lines += [
        f"  cell {'/'.join(c['cell'])}: {c['count']}/{c['required']:g} {c['status']}"
        for c in report.cells
    ]
    code = 0 if report.passed and not report.eval_errors else 1
    return payload, "\n".join(lines), code


def _cmd_dataset_augment(args) -> tuple[dict, str, int]:
    spec = load_spec(args.spec)
    data = ds.read_dataset(args.data)
    result = ds.augment(data, spec)
    payload = {
        "records": [ds.labeled_record_to_json_dict(r) for r in result.records],
        "added": len(result.records) - len(data),
        "errors": result.errors,
    }
    text = f"{payload['added']} added, {len(result.errors)} transform errors"
    return payload, text, 1 if result.errors else 0


def _cmd_dataset_split(args, seed: int) -> tuple[dict, str, int]:
    data = ds.read_dataset(args.data)
    try:
        ratios = tuple(float(r) for r in args.ratios.split(","))
    except ValueError:
        raise _UsageError(f"--ratios must be three comma-separated numbers, got {args.ratios!r}")
    if len(ratios) != 3:
        raise _UsageError("--ratios must name exactly three numbers (train,validation,test)")
    stratify = ds.load_partitioning(args.stratify) if args.stratify else None
    result = ds.split(data, ds.SplitSpec(ratios, seed=seed, stratify_by=stratify))
    payload = {
        "train": [ds.labeled_record_to_json_dict(r) for r in result.train],
        "validation": [ds.labeled_record_to_json_dict(r) for r in result.validation],
        "test": [ds.labeled_record_to_json_dict(r) for r in result.test],
        "sizes": dict(zip(("train", "validation", "test"), result.sizes())),
        "notices": result.notices,
        "seed": seed,
    }
    text = "sizes: {}/{}/{}".format(*result.sizes())
    if result.notices:
        text += "\n" + "\n".join(result.notices)
    return payload, text, 0


def _cmd_dataset_uncertainty(args) -> tuple[dict, str, int]:
    known = ds.read_dataset(args.known)
    probes = read_json_lines(args.probes, "records", record_from_json_dict)
    spec = load_spec(args.spec)
    report = ds.categorize_uncertainty(
        known, probes, spec.transformations(), args.depth, spec.schema
    )
    payload = report.to_json_dict()
    unknown = sum(
        1 for p in report.per_probe if p["category"] == ds.UNKNOWN_UNKNOWN
    )
    text = " ".join(f"{k}={v:.4f}" for k, v in sorted(report.fractions.items()))
    return payload, text, 1 if unknown else 0


def _cmd_patterns_simulate(args) -> tuple[dict, str, int]:
    """Loads the oracle, then streams the domain into simulate, so the
    domain never sits in memory beside the oracle.

    Errors keep the order of reading everything first: harness, domain
    file, oracle file, the oracle on a record (see _read_first).
    """
    subject = load_harness(args.harness)
    # A gated subject's spec says what the domain's records are, so the
    # oracle keys them by its schema.
    schema = subject.spec.schema if isinstance(subject, GatedConfig) else None
    domain = iter_json_lines(args.domain, "records", record_from_json_dict)
    with _read_first(domain):
        report = simulate(domain, load_classifier(args.oracle, schema), subject)
    payload = report.to_json_dict()
    text = (
        f"records: {report.total}  mismatches: {len(report.mismatches)}  "
        f"error rate: {report.error_rate:.4f}"
    )
    return payload, text, 1 if report.mismatches else 0


def _cmd_catalog_score(args) -> tuple[dict, str, int]:
    catalog = load_catalog(args.catalog)
    if args.method_type:
        catalog = tuple(filter_catalog(catalog, method_type=MethodType(args.method_type)))
    condition = ScoringCondition(args.condition)
    asils = [Asil(args.asil)] if args.asil else list(Asil)
    scores = {a: score(catalog, condition, a) for a in asils}
    payload = {
        "catalog": str(args.catalog),
        "condition": condition.value,
        "scores": {a.value: render_score(s) for a, s in scores.items()},
    }
    if len(scores) > 1:
        mean, std = mean_and_std(list(scores.values()))
        payload["mean"] = render_score(mean)
        payload["std"] = f"{std:.12f}"
    lines = [f"{a.value}: {render_score(s)}" for a, s in scores.items()]
    if "mean" in payload:
        lines.append(f"mean: {payload['mean']}  std: {payload['std']}")
    return payload, "\n".join(lines), 0


def _cmd_catalog_impact(args) -> tuple[dict, str, int]:
    catalog = load_catalog(args.catalog)
    cells = impact_table(catalog)
    payload = {"cells": [c.to_json_dict() for c in cells]}
    return payload, render_impact_text(cells), 0


def _cmd_gate_assess(args) -> tuple[dict, str, int]:
    decision = gate_assess(load_questionnaire(args.questionnaire))
    payload = decision.to_json_dict()
    return payload, f"{decision.verdict.value}: {decision.rationale}", 0


def _cmd_diagnose(args) -> tuple[dict, str, int]:
    plan = diagnose(load_failure(args.failure))
    payload = plan.to_json_dict()
    lines = []
    for i, group in enumerate(plan.groups, start=1):
        ids = ", ".join(group.requirement_ids)
        lines.append(f"{i}. [{ids}] ({group.phase.value}) {group.topic}")
        lines += [f"   - {q}" for q in group.questions]
    return payload, "\n".join(lines), 0


def _cmd_safetycase_check(args) -> tuple[dict, str, int]:
    graph = load_graph(args.graph)
    report = trace_check(graph)
    payload = report.to_json_dict()
    if report.ok:
        text = "ok"
    else:
        text = "\n".join(f"{g.kind.value} {g.node_id}: {g.detail}" for g in report.gaps)
    return payload, text, 0 if report.ok else 1


_HANDLERS = {
    ("spec", "validate"): _cmd_spec_validate,
    ("monitor", "run"): _cmd_monitor_run,
    ("dataset", "coverage"): _cmd_dataset_coverage,
    ("dataset", "augment"): _cmd_dataset_augment,
    ("dataset", "uncertainty"): _cmd_dataset_uncertainty,
    ("patterns", "simulate"): _cmd_patterns_simulate,
    ("catalog", "score"): _cmd_catalog_score,
    ("catalog", "impact"): _cmd_catalog_impact,
    ("gate", "assess"): _cmd_gate_assess,
    ("safetycase", "check"): _cmd_safetycase_check,
}


def _dispatch(args) -> tuple[Optional[dict], Union[str, Iterable[str]], int]:
    """(JSON payload, text, exit code) of the command; the text is a str or
    its lines, printed one at a time."""
    seed = getattr(args, "seed", 0)
    command = getattr(args, "command", None)
    subcommand = getattr(args, "subcommand", None)
    if command is None:
        raise _UsageError("a command is required (see --help)")
    if command == "diagnose":
        return _cmd_diagnose(args)
    if command == "dataset" and subcommand == "split":
        return _cmd_dataset_split(args, seed)
    handler = _HANDLERS.get((command, subcommand))
    if handler is None:
        raise _UsageError(f"a {command} subcommand is required (see '{command} --help')")
    return handler(args)


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
        payload, text, code = _dispatch(args)
    except _UsageError as exc:
        _emit_error("usage", str(exc))
        return 2
    except SpecGuardError as exc:
        _emit_error(type(exc).__name__, str(exc))
        return 2
    except OSError as exc:
        _emit_error("io", str(exc))
        return 2
    except RecursionError as exc:
        # Last resort for an input chained or nested too deeply for a pass
        # that still recurses: exit 1 would read as a verdict.
        _emit_error("RecursionError", f"input nests or chains too deeply: {exc}")
        return 2
    try:
        if _wants_text(args):
            for line in [text] if isinstance(text, str) else text:
                print(line)
        else:
            if getattr(args, "timestamps", False):
                payload = {
                    **payload,
                    "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
                }
            _write_json(payload, sys.stdout)
        sys.stdout.flush()
    except OSError as exc:
        _emit_error("io", f"cannot write the report: {exc}")
        return 2
    return code


# Encoder chunks joined per write: a few tens of kB of text at a time.
_JSON_BATCH = 4096


def _write_json(payload, out) -> None:
    """Write json.dumps(payload, sort_keys=True, indent=2) and a newline to
    out, joined in batches of _JSON_BATCH encoder chunks.

    With indent set, json.dumps runs the same pure-Python iterencode and
    joins the list of all its chunks, so the text is identical; only one
    batch is held here at a time. The encoder is reached as cli.json's
    JSONEncoder because the benchmark's tracer replaces the json name of
    this module with a view of json.__all__.
    """
    chunks = json.JSONEncoder(sort_keys=True, indent=2).iterencode(payload)
    for chunk in chunks:
        out.write(chunk + "".join(itertools.islice(chunks, _JSON_BATCH - 1)))
    out.write("\n")


def _emit_error(kind: str, detail: str) -> None:
    print(json.dumps({"error": kind, "detail": detail}), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
