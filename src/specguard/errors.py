"""Exception hierarchy shared by every specguard module, and the JSON file
readers that turn an unreadable or malformed file into a FormatError (or,
read_json_streamed, hand such a file back to read_json_file)."""
from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Any, Callable, Iterator, Optional, TypeVar, Union

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


_whitespace = json.decoder.WHITESPACE.match
# What may follow a list item: a comma and the whitespace after it, or the
# closing bracket; one match, where two whitespace matches would cost twice.
_separator = re.compile(r"[ \t\n\r]*(?:,[ \t\n\r]*|\])").match
# A value whose text is shorter than twice this, or holds fewer brackets,
# nests less deeply than this. json.loads decodes the same value a few
# recursion levels deeper than read_json_streamed (its own frames, the
# object and the list), so a value nested near the limit could pass here
# and fail there: a deeper value is left to json.loads's own verdict.
_SHALLOW = 100


def _shallow(text: str, start: int, end: int) -> bool:
    return end - start < 2 * _SHALLOW or (
        text.count("[", start, end) + text.count("{", start, end) < _SHALLOW
    )


def _stream_items(text: str, end: int, each: Callable[[Any], None]) -> Optional[int]:
    """Where the JSON list at text[end:] ends, after each(item) was called
    on its items in order; None when it is no list, an item nests deeply or
    each raises. Scanner errors propagate."""
    if text[end:end + 1] != "[":
        return None
    end = _whitespace(text, end + 1).end()
    if text[end:end + 1] == "]":
        return end + 1
    while True:
        item, stop = _scan_once(text, end)
        if stop - end >= 2 * _SHALLOW and not _shallow(text, end, stop):  # short: no call
            return None
        try:
            each(item)
        except Exception:  # the whole-file read raises it again, in its place
            return None
        end = stop + 2
        # json.dumps's ", " with no more whitespace after it is taken without a call
        if text[stop:end] != ", " or text[end:end + 1] in " \t\n\r":
            separator = _separator(text, stop)
            if separator is None:
                return None
            end = separator.end()
            if text[end - 1] == "]":
                return end


def read_json_streamed(
    path: Union[str, Path], member: str, each: Callable[[Any], None]
) -> Optional[dict]:
    """The JSON object in the file at path, with its member member's list
    emptied after each(item) was called on that list's items, in order, one
    decoded item at a time: the list itself is never built. An object with
    no member member comes back whole.

    None when the text is not one json.loads decodes to an object holding
    member at most once, as a list (a BOM, a trailing comma, extra data, a
    huge int or an unreadable file included), when a value nests deeply,
    or when each raises. Nothing is decided then: read_json_file gives the
    file's value or its error. So this accepts no text that json.loads
    rejects, and gives up whenever it is unsure. Another member that is
    repeated keeps its last value, as with json.loads.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError):
        return None
    members: dict = {}
    streamed = False
    try:
        end = _whitespace(text, 0).end()
        if text[end:end + 1] != "{":
            return None
        end = _whitespace(text, end + 1).end()
        while True:
            if text[end:end + 1] != '"':
                return None
            name, end = json.decoder.scanstring(text, end + 1)
            end = _whitespace(text, end).end()
            if text[end:end + 1] != ":" or (name == member and streamed):
                return None
            start = _whitespace(text, end + 1).end()
            if name == member:
                stop = _stream_items(text, start, each)
                if stop is None:
                    return None
                streamed = True
            else:
                members[name], stop = _scan_once(text, start)
                if not _shallow(text, start, stop):
                    return None
            end = _whitespace(text, stop).end()
            if text[end:end + 1] == "}":
                break
            if text[end:end + 1] != ",":
                return None
            end = _whitespace(text, end + 1).end()
    except (StopIteration, ValueError, RecursionError):
        return None
    if _whitespace(text, end + 1).end() != len(text):
        return None
    if streamed:
        members[member] = []
    return members


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
