"""Classifier realizations: table-driven, expression-driven, and subprocess.

Table and expression classifiers are immutable and safe to share between
threads. A subprocess classifier owns a child process and requires exclusive
access per handle; callers must serialize requests on it.
"""
from __future__ import annotations

import json
import os
import select
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Hashable, Mapping, Optional, Sequence, Union

from ..errors import (
    ClassifierError,
    FormatError,
    line_decoder,
    read_json_file,
    read_json_streamed,
)
from ..speclang.ast import Expression, to_source
from ..speclang.evaluate import evaluate_condition
from ..speclang.parser import parse
from ..speclang.schema import Schema, is_number
from .records import (
    FeatureRecord,
    Prediction,
    key_input,
    schema_key_input,
    schema_width,
    value_key,
)

# The benchmark's tracer wraps the canonical_key it finds in this module.
from .records import canonical_key  # noqa: F401

_LINE_CAP = 16 << 20  # bytes a subprocess classifier's pending response line may hold


def table_key_function(schema: Optional[Schema]) -> Callable[[Mapping[str, Any]], Hashable]:
    """The key of an input in a table for records of the schema: value_key
    without a schema or while the fast paths are off (specguard._exact).
    Otherwise the input's schema key (spec.schema_key_function), else that
    of its value_key's fields (key_input), so a twin of another type (an
    IntEnum, a float, str or dict subclass) finds its exact twin's entry,
    else the value_key triple. Keys are equal exactly when canonical_key
    texts are."""
    if schema is None:
        return value_key
    from .spec import schema_key_function  # spec imports this module

    packed = schema_key_function(schema)
    if packed is None:
        return value_key

    def table_key(fields: Mapping[str, Any]) -> Hashable:
        try:
            key = packed(fields)
        except Exception:  # an input off the schema; value_key says what is wrong
            key = None
        if key is not None:
            return key
        triple = value_key(fields)
        try:
            key = packed(key_input(triple))
        except Exception:
            key = None
        return triple if key is None else key

    return table_key


@dataclass(frozen=True)
class TableClassifier:
    """Explicit input -> prediction map keyed by value, with a default.

    Each entry is keyed by table_key_function(schema) of its input: a
    value_key() triple (sorted names, value shape, numbers packed as
    doubles) or, with a schema, a conforming input's schema key (its values
    packed in schema order). An input finds its entry whenever its
    canonical_key text equals the entry's (3 and 3.0, -0.0 and 0.0 alike,
    any field order), so lookups survive reserialization. A key of any
    other form, or bytes of other than the schema's length, raises
    TypeError: it would never be found.
    In a table built from JSON (load_classifier streams a file's entries
    into it), entries with equal label and confidence share one Prediction.
    The key function is kept outside the dataclass fields; pickling drops
    and rebuilds it.
    """

    entries: dict[Hashable, Prediction] = field(default_factory=dict)
    default: Optional[Prediction] = None
    schema: Optional[Schema] = None

    def __post_init__(self) -> None:
        key_of = table_key_function(self.schema)
        object.__setattr__(self, "_key", key_of)
        size = None if key_of is value_key else 8 * schema_width(self.schema)
        for key in self.entries:
            if key.__class__ is bytes:
                if len(key) != size:
                    raise TypeError(f"table classifier key {key!r} is not a schema key here")
            elif key.__class__ is not tuple or len(key) != 3:
                raise TypeError(
                    f"table classifier key {key!r} is not a value_key triple "
                    "(build keys with value_key, not canonical_key)"
                )

    def __getstate__(self) -> dict:
        return {"entries": self.entries, "default": self.default, "schema": self.schema}

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)
        self.__post_init__()

    def classify(self, fields: Mapping[str, Any]) -> Prediction:
        try:
            key = self._key(fields)  # type: ignore[attr-defined]
        except (FormatError, OverflowError) as exc:  # a value no key holds
            raise ClassifierError(f"table classifier cannot key this input: {exc}") from exc
        hit = self.entries.get(key)
        if hit is not None:
            return hit
        if self.default is not None:
            return self.default
        raise ClassifierError("table classifier has no entry for this input and no default")


@dataclass(frozen=True)
class ExpressionClassifier:
    """Ordered (condition, label, confidence) rules; first match wins,
    otherwise the default prediction."""

    rules: tuple[tuple[Expression, str, Optional[float]], ...] = ()
    default: Optional[Prediction] = None

    def classify(self, fields: Mapping[str, Any]) -> Prediction:
        for condition, label, confidence in self.rules:
            try:
                if evaluate_condition(condition, fields):
                    return Prediction(label, confidence)
            except Exception as exc:
                raise ClassifierError(
                    f"rule {to_source(condition)!r} failed to evaluate: {exc}"
                ) from exc
        if self.default is not None:
            return self.default
        raise ClassifierError("no rule matched and the classifier has no default")


class SubprocessClassifier:
    """Child process speaking one JSON object per line on stdin/stdout.

    Request:  {"input": {...fields...}}
    Response: {"label": "...", "confidence": 0.93}   (confidence optional)

    The child starts lazily on the first classify() and is killed on close().
    A timeout, a response line longer than 16 MiB or a protocol error kills
    the child; the next call restarts it.
    """

    def __init__(self, command: Sequence[str], timeout: float = 5.0):
        if not command:
            raise FormatError("subprocess classifier needs a non-empty command")
        self.command = list(command)
        self.timeout = float(timeout)
        self._proc: subprocess.Popen | None = None
        self._buffer = bytearray()
        self._decode = line_decoder()

    def _start(self) -> None:
        try:
            self._proc = subprocess.Popen(
                self.command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
            )
        except OSError as exc:
            raise ClassifierError(f"could not start {self.command[0]!r}: {exc}") from exc
        self._buffer = bytearray()

    def _read_line(self) -> bytes:
        assert self._proc is not None and self._proc.stdout is not None
        fd = self._proc.stdout.fileno()
        deadline = time.monotonic() + self.timeout
        newline = self._buffer.find(b"\n")
        while newline < 0:
            if len(self._buffer) > _LINE_CAP:
                self.close()
                raise ClassifierError(f"subprocess response line exceeds {_LINE_CAP} bytes")
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self.close()
                raise ClassifierError(f"subprocess timed out after {self.timeout} s")
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                self.close()
                raise ClassifierError(f"subprocess timed out after {self.timeout} s")
            chunk = os.read(fd, 65536)
            if not chunk:
                self.close()
                raise ClassifierError("subprocess closed its output stream")
            newline = chunk.find(b"\n")
            if newline >= 0:
                newline += len(self._buffer)
            self._buffer += chunk
        line = bytes(self._buffer[:newline])
        del self._buffer[:newline + 1]
        return line

    def classify(self, fields: Mapping[str, Any]) -> Prediction:
        if self._proc is None or self._proc.poll() is not None:
            self._start()
        assert self._proc is not None and self._proc.stdin is not None
        request = json.dumps({"input": dict(fields)}, sort_keys=True) + "\n"
        try:
            self._proc.stdin.write(request.encode("utf-8"))
            self._proc.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            self.close()
            raise ClassifierError(f"subprocess refused the request: {exc}") from exc
        line = self._read_line()
        try:
            data = self._decode(line.decode("utf-8"))
        except ValueError as exc:  # also not UTF-8, a huge int or too deep a nesting
            self.close()
            raise ClassifierError(f"subprocess sent malformed JSON: {exc}") from exc
        if not isinstance(data, dict) or not isinstance(data.get("label"), str):
            self.close()
            raise ClassifierError(f"subprocess response needs a string 'label': {data!r}")
        confidence = data.get("confidence")
        if confidence is not None and not is_number(confidence):
            self.close()
            raise ClassifierError(f"subprocess confidence must be a number: {confidence!r}")
        return Prediction(data["label"], None if confidence is None else float(confidence))

    def close(self) -> None:
        proc, self._proc = self._proc, None
        self._buffer = bytearray()
        if proc is None:
            return
        try:
            if proc.stdin:
                proc.stdin.close()
            proc.terminate()
            try:
                proc.wait(timeout=1.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        except OSError:
            pass

    def __enter__(self) -> "SubprocessClassifier":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass


Classifier = Union[TableClassifier, ExpressionClassifier, SubprocessClassifier]


def classify(classifier: Classifier, record: Union[FeatureRecord, Mapping[str, Any]]) -> Prediction:
    """Run a classifier on a record or bare field mapping."""
    fields = record.fields if isinstance(record, FeatureRecord) else record
    return classifier.classify(fields)


def _prediction_from_json(
    data: Any, context: str, shared: Optional[dict[tuple, Prediction]] = None
) -> Prediction:
    """The prediction data names. With shared, the one shared already holds
    for an equal label and confidence, which a new one is added to."""
    if isinstance(data, str):
        label, confidence = data, None
    else:
        if not isinstance(data, dict) or not isinstance(data.get("label"), str):
            raise FormatError(f"{context} must be a label string or an object with 'label'")
        label, confidence = data["label"], data.get("confidence")
        if confidence is not None:
            if not is_number(confidence):
                raise FormatError(f"{context} confidence must be a number")
            confidence = float(confidence)
    if shared is None:
        return Prediction(label, confidence)
    # is_number let no NaN through. No confidence and a zero are keyed by
    # their text, so -0.0 and 0.0 stay apart.
    answer = (label, confidence or repr(confidence))
    prediction = shared.get(answer)
    if prediction is None:
        prediction = shared[answer] = Prediction(label, confidence)
    return prediction


class _Table:
    """A table classifier for records of the schema (see TableClassifier),
    built one entry at a time, in file order; entries with equal answers
    share one Prediction."""

    def __init__(self, schema: Optional[Schema] = None) -> None:
        self.schema = schema
        self.key = table_key_function(schema)
        self.entries: dict[Hashable, Prediction] = {}
        self.shared: dict[tuple, Prediction] = {}
        self.count = 0

    def add(self, entry: Any) -> None:
        i = self.count
        if not isinstance(entry, dict) or not isinstance(entry.get("input"), dict):
            raise FormatError(f"table entry {i} needs an 'input' object")
        try:
            key = self.key(entry["input"])
        except (FormatError, OverflowError) as exc:
            raise FormatError(f"table entry {i} input cannot be keyed: {exc}") from exc
        self.entries[key] = _prediction_from_json(entry, f"table entry {i}", self.shared)
        self.count = i + 1

    def classifier(self, default: Any) -> TableClassifier:
        return TableClassifier(
            self.entries,
            None if default is None else _prediction_from_json(default, "table default"),
            self.schema,
        )


def classifier_from_json_dict(data: Any, base_dir: Union[str, Path, None] = None) -> Classifier:
    """Build a classifier from its JSON form; data is not changed.

    base_dir resolves relative subprocess command paths (harness files refer
    to scripts that live next to them).
    """
    if isinstance(data, dict) and isinstance(data.get("entries"), list):
        data = {**data, "entries": data["entries"].copy()}
    return _classifier_from_owned_json(data, base_dir)


def _classifier_from_owned_json(
    data: Any, base_dir: Union[str, Path, None], schema: Optional[Schema] = None
) -> Classifier:
    """classifier_from_json_dict on a value the caller gives up: each item
    of a table's entries list is set to None once it is keyed, so the
    decoded entries are freed while the table grows."""
    if not isinstance(data, dict):
        raise FormatError("classifier must be a JSON object")
    kind = data.get("kind")
    if kind == "table":
        raw_entries = data.get("entries")
        if not isinstance(raw_entries, list):
            raise FormatError("table classifier needs an 'entries' list")
        table = _Table(schema)
        for i, entry in enumerate(raw_entries):
            table.add(entry)
            raw_entries[i] = None
        return table.classifier(data.get("default"))
    if kind == "expression":
        raw_rules = data.get("rules")
        if not isinstance(raw_rules, list):
            raise FormatError("expression classifier needs a 'rules' list")
        rules = []
        for i, rule in enumerate(raw_rules):
            if (
                not isinstance(rule, dict)
                or not isinstance(rule.get("condition"), str)
                or not isinstance(rule.get("label"), str)
            ):
                raise FormatError(f"expression rule {i} needs 'condition' and 'label' strings")
            confidence = rule.get("confidence")
            if confidence is not None and not is_number(confidence):
                raise FormatError(f"expression rule {i} confidence must be a number")
            rules.append(
                (
                    parse(rule["condition"]),
                    rule["label"],
                    None if confidence is None else float(confidence),
                )
            )
        default = data.get("default")
        return ExpressionClassifier(
            tuple(rules),
            None if default is None else _prediction_from_json(default, "expression default"),
        )
    if kind == "subprocess":
        command = data.get("command")
        if (
            not isinstance(command, list)
            or not command
            or not all(isinstance(c, str) for c in command)
        ):
            raise FormatError("subprocess classifier needs a non-empty 'command' list of strings")
        timeout = data.get("timeout", 5.0)
        if not is_number(timeout) or float(timeout) <= 0:
            raise FormatError("subprocess timeout must be a positive number")
        if base_dir is not None:
            # Arguments naming files next to the JSON resolve against it, so a
            # harness can say ["python3", "model.py"] portably.
            base = Path(base_dir)
            command = [
                str(base / c) if not Path(c).is_absolute() and (base / c).is_file() else c
                for c in command
            ]
        return SubprocessClassifier(command, float(timeout))
    raise FormatError(f"classifier has unknown kind {kind!r}")


def classifier_to_json_dict(classifier: Classifier) -> dict:
    if isinstance(classifier, TableClassifier):
        entries = []
        schema = classifier.schema
        for key, prediction in classifier.entries.items():
            fields = schema_key_input(key, schema) if key.__class__ is bytes else key_input(key)
            entry: dict[str, Any] = {"input": fields, "label": prediction.label}
            if prediction.confidence is not None:
                entry["confidence"] = prediction.confidence
            entries.append(entry)
        data: dict[str, Any] = {"kind": "table", "entries": entries}
        if classifier.default is not None:
            data["default"] = _prediction_json(classifier.default)
        return data
    if isinstance(classifier, ExpressionClassifier):
        rules = []
        for condition, label, confidence in classifier.rules:
            rule: dict[str, Any] = {"condition": to_source(condition), "label": label}
            if confidence is not None:
                rule["confidence"] = confidence
            rules.append(rule)
        data = {"kind": "expression", "rules": rules}
        if classifier.default is not None:
            data["default"] = _prediction_json(classifier.default)
        return data
    return {
        "kind": "subprocess",
        "command": list(classifier.command),
        "timeout": classifier.timeout,
    }


def _prediction_json(prediction: Prediction) -> dict:
    data: dict[str, Any] = {"label": prediction.label}
    if prediction.confidence is not None:
        data["confidence"] = prediction.confidence
    return data


def load_classifier(path: Union[str, Path], schema: Optional[Schema] = None) -> Classifier:
    """Read a classifier JSON file; subprocess commands resolve relative to it.

    The file is decoded by one stream (errors.read_json_streamed). A
    table's entries are keyed as they are decoded, so neither the file's
    text nor its decoded value exists at once, and entries with equal
    answers share one Prediction. A
    file the stream does not take is read again whole, which gives every
    error and the order they are checked in: JSON syntax, then the kind,
    then the entries in order.

    With a schema, a table keys its entries for that schema's records (see
    TableClassifier), so its entries hold bytes keys beside triples.
    """
    path = Path(path)
    table = _Table(schema)
    data = read_json_streamed(path, "entries", table.add)
    if data is not None and data.get("kind") == "table" and "entries" in data:
        return table.classifier(data.get("default"))
    del table  # entries keyed before the stream gave up, or of another kind
    if data is None:
        data = read_json_file(path, "classifier file")
    return _classifier_from_owned_json(data, path.parent, schema)
