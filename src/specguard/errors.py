"""Exception hierarchy shared by every specguard module, and the JSON file
readers that turn an unreadable or malformed file into a FormatError (or,
read_json_streamed, hand such a file back to read_json_file).

read_json_streamed holds one chunk of its file and the item being decoded,
never the file's text or its decoded value whole. A step of its decoding
that fails or meets the end of the text read so far is decoded again from
its start once at least as much text again is appended, so nothing cut
at a chunk's edge is taken half read, and no step is retried more than a
logarithmic number of times."""
from __future__ import annotations

import codecs
import json
import re
from pathlib import Path
from typing import IO, Any, Callable, Iterator, Optional, TypeVar, Union

from ._exact import exact

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


def line_decoder() -> Callable[[str], Any]:
    """json_line, or json.loads (with json_line's error for a value nested
    too deeply) when the fast paths are off (see specguard._exact). Ask
    once per file, not once per line."""
    return _loads if exact() else json_line


# The characters a blank line of a JSON Lines file may hold once its line
# end is removed: JSON's whitespace. A line of other whitespace (U+00A0,
# U+2028, a form feed) is not blank; json.loads rejects it.
JSON_SPACE = " \t\r"


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
_CHUNK = 1 << 16  # bytes read_json_streamed reads at a time


def _shallow(text: str, start: int, end: int) -> bool:
    return end - start < 2 * _SHALLOW or (
        text.count("[", start, end) + text.count("{", start, end) < _SHALLOW
    )


class _Chunks:
    """The text of a UTF-8 file that is not consumed yet, read _CHUNK bytes
    at a time, or as many as are pending when that is more."""

    def __init__(self, handle: IO[bytes]) -> None:
        self.read = handle.read
        self.decode = codecs.getincrementaldecoder("utf-8")().decode
        self.text = ""
        self.eof = False

    def more(self, start: int) -> bool:
        """Drop text[:start] and append the next chunk, at least as long as
        the text kept; False at end of file. A byte that is not UTF-8
        raises UnicodeDecodeError."""
        if self.eof:
            return False
        data = self.read(max(_CHUNK, len(self.text) - start))
        self.eof = not data
        self.text = self.text[start:] + self.decode(data, self.eof)
        return True

    def step(self, parse: Callable[..., Optional[tuple]], end: int, *args: Any) -> Optional[tuple]:
        """parse(text, end, *args), a tuple whose last item is where the step
        ends. It counts once that is before the end of the text held, or at
        end of file. When parse fails (None, or the scanner's errors) or
        reaches that edge first, more text is appended (see more) and parse
        retried from its start; None when it fails at end of file."""
        while True:
            try:
                done = parse(self.text, end, *args)
                if done is not None and (done[-1] < len(self.text) or self.eof):
                    return done
            except (StopIteration, ValueError, RecursionError):
                pass
            if not self.more(end):
                return None
            end = 0


def _mark(text: str, end: int, marks: str) -> Optional[tuple]:
    """Which of marks follows the whitespace at text[end:], and where the
    whitespace after it ends; None when another character follows."""
    end = _whitespace(text, end).end()
    mark = text[end:end + 1]
    if not mark or mark not in marks:
        return None
    return mark, _whitespace(text, end + 1).end()


def _member_name(text: str, end: int) -> Optional[tuple]:
    if text[end:end + 1] != '"':
        return None
    name, end = json.decoder.scanstring(text, end + 1)
    end = _whitespace(text, end).end()
    if text[end:end + 1] != ":":
        return None
    return name, _whitespace(text, end + 1).end()


def _member_value(text: str, end: int) -> Optional[tuple]:
    """A member's value, where its text starts and stops, and the "," or
    "}" after it as _mark gives it."""
    value, stop = _scan_once(text, end)
    after = _mark(text, stop, ",}")
    return after and (value, end, stop, *after)


def _stream_items(chunks: _Chunks, end: int, each: Callable[[Any], None]) -> Optional[int]:
    """Where the JSON list at chunks.text[end:] ends, after each(item) was
    called on its items in order; None when it is no list, an item nests
    deeply, each raises or the text fails at end of file.

    One step is an item and the separator after it, as in _Chunks.step,
    with the loop over the items of a chunk written out."""
    opened = chunks.step(_mark, end, "[")
    if opened is None:
        return None
    end = opened[1]
    if chunks.text[end:end + 1] == "]":
        return end + 1
    while True:
        text = chunks.text
        edge = len(text) + chunks.eof  # a step counts when it ends before this
        while True:
            try:
                item, stop = _scan_once(text, end)
            except (StopIteration, ValueError, RecursionError):
                break
            after = stop + 2
            # json.dumps's ", " with no more whitespace after it is taken without a call
            if text[stop:after] != ", " or text[after:after + 1] in " \t\n\r":
                separator = _separator(text, stop)
                if separator is None:
                    break
                after = separator.end()
            if after >= edge:
                break
            if stop - end >= 2 * _SHALLOW and not _shallow(text, end, stop):  # short: no call
                return None
            try:
                each(item)
            except Exception:  # the whole-file read raises it again, in its place
                return None
            if text[after - 1] == "]":
                return after
            end = after
        if not chunks.more(end):
            return None
        end = 0


def read_json_streamed(
    path: Union[str, Path], member: str, each: Callable[[Any], None]
) -> Optional[dict]:
    """The JSON object in the file at path, with its member member's list
    emptied after each(item) was called on that list's items, in order, one
    decoded item at a time: the list itself is never built. An object with
    no member member comes back whole.

    The file is read _CHUNK bytes at a time and decoded as UTF-8 as it
    comes, so what is held at once is one chunk, the text of the step being
    decoded and that step's value: neither the file's text nor its decoded
    value. A step is the opening "{", a member's name, a member's value
    with the "," or "}" after it, the "[" of member's list, or one of its
    items with the "," or "]" after it. It counts only when it ends before
    the end of the text read so far, or at end of file; when it fails or
    reaches that edge first, the next chunk, or as much text as the step
    holds when that is more, is appended and the step is decoded again from
    its start. So an item is handed to each only once the separator after
    it is read, and no number, literal, escape or character cut at a
    chunk's edge is taken half read. A step that spans many chunks, or
    fails before the end of the file, doubles its text at each retry; a
    table whose entries are shorter than a chunk is read a chunk at a time.

    None when the text is not one json.loads decodes to an object holding
    member at most once, as a list (a BOM, a trailing comma, extra data, a
    huge int or an unreadable file included), when a value nests deeply,
    or when each raises. Nothing is decided then: read_json_file gives the
    file's value or its error. So this accepts no text that json.loads
    rejects, and gives up whenever it is unsure. Another member that is
    repeated keeps its last value, as with json.loads. None too when the
    fast paths are off (see specguard._exact).
    """
    if exact():
        return None
    try:
        with Path(path).open("rb") as handle:
            return _read_object(_Chunks(handle), member, each)
    except (OSError, ValueError):  # ValueError: not UTF-8
        return None


def _read_object(chunks: _Chunks, member: str, each: Callable[[Any], None]) -> Optional[dict]:
    """read_json_streamed on the chunks of an open file."""
    after = chunks.step(_mark, 0, "{")
    members: dict = {}
    streamed = False
    while after is not None and after[0] != "}":
        named = chunks.step(_member_name, after[1])
        if named is None:
            return None
        name, end = named
        if name != member:
            value = chunks.step(_member_value, end)
            if value is None or not _shallow(chunks.text, value[1], value[2]):
                return None
            members[name], after = value[0], value[3:]
        elif not streamed:
            end = _stream_items(chunks, end, each)
            after = None if end is None else chunks.step(_mark, end, ",}")
            streamed = True
        else:
            return None
    # after "}" and the whitespace after it: extra data, or the end of file
    if after is None or after[1] < len(chunks.text):
        return None
    if streamed:
        members[member] = []
    return members


def iter_json_lines(path: Union[str, Path], what: str, build: Callable[[Any], T]) -> Iterator[T]:
    """build(value) for the JSON value on each line that is not blank (see
    JSON_SPACE), in order, read one line at a time: the file is opened on the
    first next() and only the current line and its value are held.

    Lines end at "\\n" (a "\\r" before it is dropped too), as JSON Lines
    defines, and each is decoded by line_decoder()'s function, chosen once
    per file. A line that is not UTF-8 JSON, or on which build raises
    FormatError, stops the read with a FormatError "{path}:{line}: ...";
    an unreadable file raises read_json_file's FormatError. The values of
    the lines before a bad one have been yielded by then.
    """
    decode = line_decoder()
    try:
        with Path(path).open("rb") as handle:
            for line_no, raw in enumerate(handle, start=1):
                try:
                    line = raw.removesuffix(b"\n").removesuffix(b"\r").decode("utf-8")
                    if not line.strip(JSON_SPACE):
                        continue
                    value = build(decode(line))
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
