"""Exception hierarchy shared by every specguard module, and the JSON file
readers that turn an unreadable or malformed file into a FormatError."""
from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Iterator, TypeVar, Union

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


_scan_once = json.JSONDecoder().scan_once


def _loads(text: str) -> Any:
    """json.loads(text), with a value nested too deeply for the decoder
    refused by a ValueError instead of a RecursionError."""
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise ValueError(f"JSON value nests too deeply: {exc}") from None


def json_line(line: str) -> Any:
    """The JSON value of one line of text, as json.loads gives it.

    A line holding exactly one value, with nothing before or after it, is
    decoded by a single call of the decoder's scanner, without json.loads's
    Python wrapper and its two whitespace matches. Any other line (blank,
    padded, with a BOM or extra data, or not JSON at all), and a value the
    scanner refuses, is decoded again by json.loads, so the value and every
    error message are json.loads's. A ValueError says why the line is not
    JSON; a value nested too deeply for the decoder is one too.
    """
    try:
        value, end = _scan_once(line, 0)
        if end == len(line):
            return value
    except (StopIteration, ValueError, RecursionError):
        pass
    return _loads(line)


def read_json_file(path: Union[str, Path], what: str) -> Any:
    """The JSON value in the file at path. FormatError names the file as
    "{what} {path}", path as given, when it cannot be read or is not UTF-8
    JSON (an int of over 4300 digits, or a value nested too deeply for the
    decoder, included)."""
    try:
        return _loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise FormatError(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:  # also not UTF-8, a huge int or too deep a nesting
        raise FormatError(f"{what} {path} is not valid JSON: {exc}") from exc


def iter_json_lines(path: Union[str, Path], what: str, build: Callable[[Any], T]) -> Iterator[T]:
    """build(value) for the JSON value on each non-blank line, in order,
    read one line at a time: the file is opened on the first next() and
    only the current line and its value are held.

    Lines end at "\\n" (a "\\r" before it is dropped too), as JSON Lines
    defines. A line that is not UTF-8 JSON, or on which build raises
    FormatError, stops the read with a FormatError "{path}:{line}: ...";
    an unreadable file raises read_json_file's FormatError. The values of
    the lines before a bad one have been yielded by then.
    """
    try:
        with Path(path).open("rb") as handle:
            for line_no, raw in enumerate(handle, start=1):
                try:
                    line = raw.removesuffix(b"\n").removesuffix(b"\r").decode("utf-8")
                    if not line.strip():
                        continue
                    value = build(json_line(line))
                except ValueError as exc:  # also not UTF-8, a huge int or too deep a nesting
                    raise FormatError(f"{path}:{line_no}: not valid JSON: {exc}") from exc
                except FormatError as exc:
                    raise FormatError(f"{path}:{line_no}: {exc}") from exc
                yield value
    except OSError as exc:
        raise FormatError(f"cannot read {what} {path}: {exc}") from exc


def read_json_lines(path: Union[str, Path], what: str, build: Callable[[Any], T]) -> list[T]:
    """Every value iter_json_lines yields, as a list; a bad line or an
    unreadable file fails the whole read with its FormatError."""
    return list(iter_json_lines(path, what, build))
