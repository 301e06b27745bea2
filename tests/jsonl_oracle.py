"""Reference readers for specguard's JSON Lines files.

monitor.read_trace and errors.iter_json_lines decode a line with one call
of the JSON scanner and stream the file. These readers do neither: the
whole file read and split, and json.loads on every line; a trace record's
input dict is copied. They define the items, values and error texts the
fast readers must keep, a value nested too deeply for the decoder
included. test_jsonl.py checks the two against each other on random
files.
"""
from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Iterator, TypeVar, Union

from specguard.errors import FormatError
from specguard.monitor import MalformedLine, TraceRecord
from specguard.speccore.records import FeatureRecord, Prediction
from specguard.speclang.schema import is_number

T = TypeVar("T")


def loads(line: str) -> Any:
    try:
        return json.loads(line)
    except RecursionError as exc:
        raise ValueError(f"JSON value nests too deeply: {exc}") from None


def trace_record_from_json(data: Any) -> TraceRecord:
    if not isinstance(data, dict):
        raise FormatError("trace record must be a JSON object")
    rid = data.get("id")
    if not isinstance(rid, str):
        raise FormatError("trace record needs a string 'id'")
    raw_input = data.get("input")
    if not isinstance(raw_input, dict):
        raise FormatError(f"trace record {rid!r} needs an 'input' object")
    raw_output = data.get("output")
    if not isinstance(raw_output, dict) or not isinstance(raw_output.get("label"), str):
        raise FormatError(f"trace record {rid!r} needs an 'output' object with a 'label'")
    confidence = raw_output.get("confidence")
    if confidence is not None and not is_number(confidence):
        raise FormatError(f"trace record {rid!r} confidence must be a number")
    return TraceRecord(
        rid,
        FeatureRecord(dict(raw_input), rid),
        Prediction(raw_output["label"], None if confidence is None else float(confidence)),
    )


def read_trace(path: Union[str, Path]) -> list[Union[TraceRecord, MalformedLine]]:
    items: list[Union[TraceRecord, MalformedLine]] = []
    with open(path, "rb") as handle:
        for line_no, raw in enumerate(handle, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                items.append(MalformedLine(line_no, f"line is not UTF-8: {exc}"))
                continue
            if line.endswith("\n"):
                line = line[:-2] if line.endswith("\r\n") else line[:-1]
            if not line.strip(" \t\r"):  # JSON whitespace only
                continue
            try:
                items.append(trace_record_from_json(loads(line)))
            except (ValueError, FormatError) as exc:
                items.append(MalformedLine(line_no, str(exc)))
    return items


def iter_json_lines(path: Union[str, Path], what: str, build: Callable[[Any], T]) -> Iterator[T]:
    for line_no, raw in enumerate(Path(path).read_bytes().split(b"\n"), start=1):
        try:
            line = raw.removesuffix(b"\r").decode("utf-8")
            if not line.strip(" \t\r"):  # JSON whitespace only
                continue
            value = build(loads(line))
        except ValueError as exc:
            raise FormatError(f"{path}:{line_no}: not valid JSON: {exc}") from exc
        except FormatError as exc:
            raise FormatError(f"{path}:{line_no}: {exc}") from exc
        yield value


def read_json_lines(path: Union[str, Path], what: str, build: Callable[[Any], T]) -> list[T]:
    return list(iter_json_lines(path, what, build))
