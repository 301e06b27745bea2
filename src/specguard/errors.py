"""Exception hierarchy shared by every specguard module, and the JSON file
readers that turn an unreadable or malformed file into a FormatError."""
from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, TypeVar, Union

T = TypeVar("T")


class SpecGuardError(Exception):
    """Base class for all errors raised by this package."""


class SpecSyntaxError(SpecGuardError):
    """Expression source text fails to lex or parse.

    Attributes:
        line: 1-based line of the offending token.
        column: 1-based column of the offending token.
        token: the offending token text ("" at end of input).
    """

    def __init__(self, message: str, line: int, column: int, token: str = ""):
        super().__init__(f"syntax error at {line}:{column}: {message}")
        self.line = line
        self.column = column
        self.token = token


class TypeCheckError(SpecGuardError):
    """An expression fails the type rules. Carries every error found."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = list(errors)


class EvalError(SpecGuardError):
    """Expression evaluation failed (division by zero, missing field, ...)."""


class FormatError(SpecGuardError):
    """An input file or object does not match its documented format."""

    def __init__(self, message: str, errors: list[str] | None = None):
        detail = message
        if errors:
            detail = message + ": " + "; ".join(errors)
        super().__init__(detail)
        self.errors = list(errors or [])


class TransformError(SpecGuardError):
    """A transformation could not be applied to a record."""


class ClassifierError(SpecGuardError):
    """A classifier failed to produce a prediction."""


class PatternError(SpecGuardError):
    """A fault-tolerance pattern could not produce a decision."""


class PatternConfigError(PatternError):
    """A pattern is misconfigured (for example a primary with no confidence)."""


class CatalogError(SpecGuardError):
    """Method-catalog scoring failed (for example a zero denominator)."""


class CycleError(SpecGuardError):
    """A safety-case graph contains a cycle.

    Attributes:
        cycle: node ids forming the cycle, in traversal order.
    """

    def __init__(self, cycle: list[str]):
        super().__init__("cycle detected: " + " -> ".join(cycle))
        self.cycle = list(cycle)


def read_json_file(path: Union[str, Path], what: str) -> Any:
    """The JSON value in the file at path. FormatError names the file as
    "{what} {path}", path as given, when it cannot be read or is not UTF-8
    JSON (an int of over 4300 digits included)."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise FormatError(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:  # also not UTF-8, or a huge int
        raise FormatError(f"{what} {path} is not valid JSON: {exc}") from exc


def read_json_lines(path: Union[str, Path], what: str, build: Callable[[Any], T]) -> list[T]:
    """build(value) for the JSON value on each non-blank line, in order.

    Lines end at "\\n" (a "\\r" before it is dropped too), as JSON Lines
    defines. A line that is not UTF-8 JSON, or on which build raises
    FormatError, fails the whole read with a FormatError "{path}:{line}: ...";
    an unreadable file as read_json_file's does.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise FormatError(f"cannot read {what} {path}: {exc}") from exc
    values = []
    for line_no, raw in enumerate(data.split(b"\n"), start=1):
        try:
            line = raw.removesuffix(b"\r").decode("utf-8")
            if line.strip():
                values.append(build(json.loads(line)))
        except ValueError as exc:  # also not UTF-8, or a huge int
            raise FormatError(f"{path}:{line_no}: not valid JSON: {exc}") from exc
        except FormatError as exc:
            raise FormatError(f"{path}:{line_no}: {exc}") from exc
    return values
