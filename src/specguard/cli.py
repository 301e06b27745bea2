"""Command-line entry point.

One executable, `specguard`, exposing every capability as a subcommand with
machine-readable JSON output on stdout. Exit codes separate findings from
failures: 0 means the check ran and found nothing, 1 means the check ran and
found something (violations, gaps, insufficient coverage), 2 means the
invocation itself failed (usage, missing file, parse error). All errors go
to stderr as a JSON object {"error", "detail"}. Output is byte-identical
across identical invocations unless --timestamps is given.

A JSON report is written as json.dumps(payload, sort_keys=True, indent=2)
and a newline would give it, but in batches of a few tens of kB, so the
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
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterable, Iterator, Optional, Sequence, Union

from . import dataset as ds
from ._exact import exact
from .errors import FormatError, SpecGuardError, iter_json_lines, read_json_file, read_json_lines
from .monitor import (
    MonitorPolicy,
    PolicyAction,
    Violation,
    _SharedDetail,
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


# The options that the top level and every subcommand take, written as
# _COMMANDS writes arguments.
_GLOBALS = [
    ("--format", {
        "choices": ["json", "text"], "default": argparse.SUPPRESS,
        "help": "output format (default json)",
    }),
    ("--seed", {
        "type": int, "default": argparse.SUPPRESS,
        "help": "random seed where applicable (default 0)",
    }),
    ("--timestamps", {
        "action": "store_true", "default": argparse.SUPPRESS,
        "help": "include a generation timestamp in JSON output",
    }),
]


def _wants_text(args: argparse.Namespace) -> bool:
    """True when the command's output is printed as text, not JSON."""
    return getattr(args, "format", "json") == "text"


def build_parser(argv: Optional[Sequence[str]] = None) -> _Parser:
    """The command-line parser, filled in from _COMMANDS. Without argv,
    every command's parser is filled in. With argv, every command is still
    registered with its help, so top-level --help and an unknown command
    read the same, but only the command argv runs gets its subcommands and
    arguments: the first token of argv that names a command. A token
    before the command is an option or the value of --format or --seed,
    and a command name there fails at the top level whichever parser is
    built."""
    parser = _Parser(prog="specguard", description=__doc__)
    _add_arguments(parser, [])
    commands = parser.add_subparsers(dest="command", metavar="command")
    chosen = None if argv is None else next((t for t in argv if t in _COMMANDS), None)
    for name, (help_text, subcommands) in _COMMANDS.items():
        command = commands.add_parser(name, help=help_text)
        if argv is not None and name != chosen:
            continue
        if None in subcommands:
            _add_arguments(command, subcommands[None][2])
            continue
        sub = command.add_subparsers(dest="subcommand", metavar="subcommand")
        for sub_name, (sub_help, _, arguments) in subcommands.items():
            _add_arguments(sub.add_parser(sub_name, help=sub_help), arguments)
    return parser


def _add_arguments(parser: argparse.ArgumentParser, arguments: list) -> None:
    """Add each (flag, add_argument keywords) of arguments, then _GLOBALS."""
    for flag, keywords in (*arguments, *_GLOBALS):
        parser.add_argument(flag, **keywords)


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
    payload = None if _wants_text(args) else report.json_members(report.violations)
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


def _cmd_dataset_split(args) -> tuple[dict, str, int]:
    seed = getattr(args, "seed", 0)
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


# The command set, in the order --help lists it: each command's help and
# its subcommands. Each subcommand is (help, handler, arguments), and each
# argument a (flag, add_argument keywords) pair in the order usage lists
# them; a command that takes its arguments itself has one subcommand,
# keyed None.
_COMMANDS: dict[str, tuple[str, dict]] = {
    "spec": ("behavioural specification checks", {
        "validate": ("well-formedness of a spec file", _cmd_spec_validate, [
            ("spec", {
                "nargs": "?", "default": None, "help": "spec file (default: $SPECGUARD_SPEC)",
            }),
            ("--samples", {"help": "JSON Lines records for conflict search"}),
        ]),
    }),
    "monitor": ("trace monitoring", {
        "run": ("replay a trace against a spec", _cmd_monitor_run, [
            ("--spec", {"required": True}),
            ("--trace", {"required": True, "help": "JSON Lines trace file"}),
            ("--policy", {"help": "policy JSON file"}),
        ]),
    }),
    "dataset": ("data set checks and tools", {
        "coverage": ("coverage vs requirements", _cmd_dataset_coverage, [
            ("--data", {"required": True}),
            ("--requirements", {"required": True}),
        ]),
        "augment": ("grow a set via spec transforms", _cmd_dataset_augment, [
            ("--spec", {"required": True}),
            ("--data", {"required": True}),
        ]),
        "split": ("deterministic three-way split", _cmd_dataset_split, [
            ("--data", {"required": True}),
            ("--ratios", {"required": True, "help": "train,validation,test"}),
            ("--stratify", {"help": "partitioning JSON file"}),
        ]),
        "uncertainty": (
            "categorize probes by distance from known data", _cmd_dataset_uncertainty, [
                ("--known", {"required": True, "help": "labeled JSON Lines"}),
                ("--probes", {"required": True, "help": "JSON Lines inputs"}),
                ("--spec", {"required": True}),
                ("--depth", {"type": int, "default": 1}),
            ],
        ),
    }),
    "patterns": ("architecture patterns", {
        "simulate": ("error rate vs an oracle", _cmd_patterns_simulate, [
            ("--harness", {"required": True}),
            ("--domain", {"required": True, "help": "JSON Lines inputs"}),
            ("--oracle", {"required": True, "help": "classifier JSON file"}),
        ]),
    }),
    "catalog": ("method catalog scoring", {
        "score": ("applicability score per ASIL", _cmd_catalog_score, [
            ("--catalog", {"required": True}),
            ("--condition", {"required": True, "choices": ["no-spec", "no-interp"]}),
            ("--asil", {"choices": ["A", "B", "C", "D"]}),
            ("--method-type", {
                "choices": [t.value for t in MethodType],
                "help": "score only methods of this type",
            }),
        ]),
        "impact": ("mean/std per condition and type", _cmd_catalog_impact, [
            ("--catalog", {"required": True}),
        ]),
    }),
    "gate": ("ML decision gate", {
        "assess": ("verdict from a questionnaire", _cmd_gate_assess, [
            ("--questionnaire", {"required": True}),
        ]),
    }),
    "diagnose": ("failure diagnosis plan", {
        None: (None, _cmd_diagnose, [("--failure", {"required": True})]),
    }),
    "safetycase": ("traceability checks", {
        "check": ("gap analysis of a graph", _cmd_safetycase_check, [
            ("--graph", {"required": True}),
        ]),
    }),
}


def _dispatch(args) -> tuple[Optional[dict], Union[str, Iterable[str]], int]:
    """(JSON payload, text, exit code) of the command; the text is a str or
    its lines, printed one at a time."""
    command = getattr(args, "command", None)
    if command is None:
        raise _UsageError("a command is required (see --help)")
    subcommand = _COMMANDS[command][1].get(getattr(args, "subcommand", None))
    if subcommand is None:
        raise _UsageError(f"a {command} subcommand is required (see '{command} --help')")
    return subcommand[1](args)


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


# A write ends at the first piece of text that brings it to this many
# characters, so no write is longer than a batch and one list item.
_JSON_BATCH = 1 << 16
# Containers nested deeper than this many columns of indent (32 levels) are
# written by json's own encoder, which spots a cycle there.
_JSON_MAX_PAD = 64
_INF = float("inf")


class _ReportEncoder(json.JSONEncoder):
    """json's encoder, which also writes a Violation as its to_json_dict()."""

    def default(self, o):
        if isinstance(o, Violation):
            return o.to_json_dict()
        return super().default(o)


# Made at import, as _quote is bound: bench/tracer.py replaces this module's
# json name with a view of json.__all__, which has no json.encoder.
_ENCODER = _ReportEncoder(sort_keys=True, indent=2)


def _write_json(payload, out) -> None:
    """Write json.dumps(payload, sort_keys=True, indent=2) and a newline to
    out, in writes of about _JSON_BATCH characters, so the whole text is
    never held. A Violation in payload is written as its to_json_dict().

    Dicts are written member by member and lists item by item, each item's
    text made whole by _text. It encodes the exact builtin types itself,
    each shared detail once per write and indent, and each Violation from
    its fields, so no dict is made per violation. Any other value, such as
    a subclass, a tuple, a dict with a key that is not a str or a container
    nested past _JSON_MAX_PAD, is _ReportEncoder's, with its errors. With
    the fast paths off (specguard._exact), _ReportEncoder writes it all.
    """
    pieces = _ENCODER.iterencode(payload) if exact() else _pieces(payload, "", {})
    batch: list[str] = []
    size = 0
    for piece in pieces:
        batch.append(piece)
        size += len(piece)
        if size >= _JSON_BATCH:
            out.write("".join(batch))
            batch.clear()
            size = 0
    batch.append("\n")
    out.write("".join(batch))


def _pieces(value, pad: str, memo: dict) -> Iterator[str]:
    """value's JSON text at indent pad in pieces: a dict member by member, a
    list item by item."""
    kind = type(value)
    if (kind is list or kind is dict) and value and len(pad) < _JSON_MAX_PAD:
        inner = pad + "  "
        if kind is list:
            opening = "[\n" + inner
            for item in value:
                yield opening + _text(item, inner, memo)
                opening = ",\n" + inner
            yield "\n" + pad + "]"
            return
        if all(type(key) is str for key in value):
            opening = "{\n" + inner
            for key, member in sorted(value.items()):
                yield opening + _quote(key) + ": "
                yield from _pieces(member, inner, memo)
                opening = ",\n" + inner
            yield "\n" + pad + "}"
            return
    yield _text(value, pad, memo)


def _text(value, pad: str, memo: dict) -> str:
    """value's JSON text, its lines after the first indented by pad.

    memo maps (id, len(pad)) of each shared detail written so far to the
    detail, which keeps the id from being reused, and its text."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is Violation:
        inner = pad + "  "
        return (
            f'{{\n{inner}"detail": {_text(value.detail, inner, memo)},\n'
            f'{inner}"kind": {_text(value.kind.value, inner, memo)},\n'
            f'{inner}"post_failsafe": {_text(value.post_failsafe, inner, memo)},\n'
            f'{inner}"record_id": {_text(value.record_id, inner, memo)}\n{pad}}}'
        )
    if kind is _SharedDetail:
        key = (id(value), len(pad))
        known = memo.get(key)
        if known is None:
            known = memo[key] = (value, _dict_text(value, pad, memo))
        return known[1]
    if kind is dict:
        return _dict_text(value, pad, memo)
    if kind is int:
        return int.__repr__(value)
    if kind is float:
        return _float_text(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if kind is list and len(pad) < _JSON_MAX_PAD:
        if not value:
            return "[]"
        inner = pad + "  "
        items = map(_text, value, itertools.repeat(inner), itertools.repeat(memo))
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    return _encoded(value, pad)


def _float_text(value: float) -> str:
    if value != value:
        return "NaN"
    if value == _INF:
        return "Infinity"
    return "-Infinity" if value == -_INF else float.__repr__(value)


def _dict_text(value: dict, pad: str, memo: dict) -> str:
    """_text of a dict or a shared detail."""
    if not value:
        return "{}"
    if len(pad) >= _JSON_MAX_PAD:
        return _encoded(value, pad)
    inner = pad + "  "
    members = []
    for key, member in sorted(value.items()):
        if type(key) is not str:
            return _encoded(value, pad)
        members.append(f"{_quote(key)}: {_text(member, inner, memo)}")
    return "{\n" + inner + (",\n" + inner).join(members) + "\n" + pad + "}"


def _encoded(value, pad: str) -> str:
    """_text of any value, by json's encoder: its text holds a newline only
    as layout, since a string's newline is escaped."""
    return _ENCODER.encode(value).replace("\n", "\n" + pad)


def _emit_error(kind: str, detail: str) -> None:
    print(json.dumps({"error": kind, "detail": detail}), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
