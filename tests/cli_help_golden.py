"""The command-line surface as a golden file: what specguard prints for
--help, for no further argument, for an unknown subcommand and for an
unknown option, at the top level, at each command and at each subcommand.

The command names below are written out here, not read from cli, so a
name, a help text or an argument that changes in cli's command table
shows as a difference from the golden file.

    PYTHONPATH=src python tests/cli_help_golden.py

rewrites tests/golden/cli_help.json from the current code. Do that only
for a change to the command-line surface made on purpose, and review the
difference.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_help.json"

# Each command and its subcommands, in the order --help lists them;
# diagnose takes its arguments itself.
COMMANDS = {
    "spec": ["validate"],
    "monitor": ["run"],
    "dataset": ["coverage", "augment", "split", "uncertainty"],
    "patterns": ["simulate"],
    "catalog": ["score", "impact"],
    "gate": ["assess"],
    "diagnose": [],
    "safetycase": ["check"],
}


def cases() -> list[list[str]]:
    """Every argv of the golden file, level by level."""
    levels = [[]]
    for command, subcommands in COMMANDS.items():
        levels.append([command])
        levels += [[command, sub] for sub in subcommands]
    return [
        argv
        for named in levels
        for argv in ([*named, "--help"], named, [*named, "bogus"], [*named, "--bogus"])
    ]


def capture(argv: list[str]) -> dict:
    """main(argv)'s exit code, stdout and stderr, with help wrapped at 80
    columns and no SPECGUARD_SPEC in the environment."""
    from specguard.cli import main

    saved = {name: os.environ.get(name) for name in ("COLUMNS", "SPECGUARD_SPEC")}
    os.environ["COLUMNS"] = "80"
    os.environ.pop("SPECGUARD_SPEC", None)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:  # --help
                code = exc.code
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def golden() -> dict:
    """The file's content for the current code: the Python version whose
    argparse wrote the help, and one entry per case."""
    version = "{}.{}".format(*sys.version_info[:2])
    return {"python": version, "cases": [capture(argv) for argv in cases()]}


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden(), indent=2) + "\n", encoding="utf-8")
