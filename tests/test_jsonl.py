"""The JSON Lines read path: errors.json_line, monitor.read_trace and
errors.read_json_lines against the reference readers in jsonl_oracle.py,
and the trace records read_trace builds without their __init__."""
from __future__ import annotations

import dataclasses
import json
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import jsonl_oracle
from specguard import monitor
from specguard.cli import main
from specguard.errors import FormatError, json_line, read_json_lines
from specguard.monitor import TraceRecord, _built_trace_record, read_trace
from specguard.speccore.records import FeatureRecord, Prediction, record_from_json_dict

GOOD = b'{"id": "r", "input": {"x": 1.5}, "output": {"label": "a", "confidence": 0.5}}'
DEEP = b"[" * 100_000

# Lines a trace or records file may hold that are not a plain well-formed
# record; each is read the same way by the fast readers and the oracle.
ADVERSARIAL = [
    b"",
    b"   ",
    b"\t",
    b"\xef\xbb\xbf" + GOOD,  # a UTF-8 BOM
    b"  " + GOOD + b"  ",
    b"\t" + GOOD,
    GOOD + b" " + GOOD,  # extra data
    GOOD + b"x",
    GOOD + b"\r" + GOOD,  # a lone \r inside a line
    GOOD + b"\r",
    b'{"id": ',
    b"{not json",
    b"\xff" + GOOD,  # not UTF-8
    b'{"id": "r\xc3\x28"}',
    b'{"id": "r", "input": {"x": ' + b"1" * 5000 + b'}, "output": {"label": "a"}}',
    b'{"id": "r", "input": {"x": 1}, "output": {"label": "a", "confidence": ' + b"7" * 5000
    + b"}}",
    DEEP,
    b'{"id": "r", "input": {"x": ' + b"[" * 100_000,
    b"[" * 50 + b"]" * 50,
    b"[1, 2]",
    b'"s"',
    b"3",
    b"null",
    b'{"id": 3, "input": {}, "output": {"label": "a", "confidence": 0.5}}',
    b'{"input": {}, "output": {"label": "a", "confidence": 0.5}}',
    b'{"id": "r", "input": [], "output": {"label": "a", "confidence": 0.5}}',
    b'{"id": "r", "output": {"label": "a", "confidence": 0.5}}',
    b'{"id": "r", "input": {}, "output": {"label": 1, "confidence": 0.5}}',
    b'{"id": "r", "input": {}, "output": {"confidence": 0.5}}',
    b'{"id": "r", "input": {}, "output": []}',
    b'{"id": "a", "id": "b", "input": {"x": 1}, "input": {"y": 2}, '
    b'"output": {"label": "a", "label": "b", "confidence": 0.1, "confidence": 0.2}}',
    b'{"id": "r", "input": {"x": NaN, "y": -Infinity, "z": 1e400}, '
    b'"output": {"label": "a", "confidence": 0.5}}',
]
ADVERSARIAL += [
    b'{"id": "r", "input": {"x": 1}, "output": {"label": "a", "confidence": %s}}' % confidence
    for confidence in [b"NaN", b"Infinity", b"-Infinity", b"1e400", b"true", b"false",
                       b'"0.5"', b"1", b"0", b"-0.0", b"null", b"{}"]
]
ADVERSARIAL.append(b'{"id": "r", "input": {"x": 1}, "output": {"label": "a"}}')

_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6) | st.sampled_from(
    ["a\u2028b", "\u2029", "\r", "\n", "\ufeff", '"', "\\"]
)
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=True, allow_infinity=True)
    | _TEXT
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_TEXT, inner, max_size=3),
    max_leaves=8,
)


@st.composite
def _record_lines(draw) -> bytes:
    record = {
        "id": draw(_TEXT),
        "input": draw(st.dictionaries(_TEXT, _VALUES, max_size=4)),
        "output": {
            "label": draw(_TEXT),
            "confidence": draw(st.floats(allow_nan=True, allow_infinity=True) | _SCALARS),
        },
    }
    if draw(st.booleans()):
        record = dict(draw(st.permutations(list(record.items()))))
    text = json.dumps(record, ensure_ascii=draw(st.booleans()))
    return text.encode("utf-8")


_LINES = _record_lines() | st.sampled_from(ADVERSARIAL)
_FILES = st.tuples(
    st.lists(st.tuples(_LINES, st.sampled_from([b"\n", b"\r\n"])), max_size=8),
    st.sampled_from([b"", b"\n", b"\r", b"\r\n"]),
).map(lambda parts: b"".join(line + end for line, end in parts[0]) + parts[1])

_SETTINGS = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@_SETTINGS
@given(data=_FILES)
def test_read_trace_yields_the_oracles_items(tmp_path, data):
    path = tmp_path / "trace.jsonl"
    path.write_bytes(data)
    items, expected = list(read_trace(path)), jsonl_oracle.read_trace(path)
    # repr, not ==: a NaN inside a record is unequal to itself
    assert [type(i) for i in items] == [type(i) for i in expected]
    assert repr(items) == repr(expected)


def _outcome(read, path, build):
    try:
        return repr(read(path, "records", build))
    except FormatError as exc:
        return f"FormatError: {exc}"


@_SETTINGS
@given(data=_FILES, build=st.sampled_from([lambda value: value, record_from_json_dict]))
def test_read_json_lines_gives_the_oracles_values_or_error(tmp_path, data, build):
    path = tmp_path / "records.jsonl"
    path.write_bytes(data)
    assert _outcome(read_json_lines, path, build) == _outcome(
        jsonl_oracle.read_json_lines, path, build
    )


@pytest.mark.parametrize("line", ADVERSARIAL, ids=range(len(ADVERSARIAL)))
def test_each_adversarial_line_is_read_as_the_oracle_reads_it(tmp_path, line):
    path = tmp_path / "lines.jsonl"
    path.write_bytes(line + b"\n")
    assert repr(list(read_trace(path))) == repr(jsonl_oracle.read_trace(path))
    assert _outcome(read_json_lines, path, record_from_json_dict) == _outcome(
        jsonl_oracle.read_json_lines, path, record_from_json_dict
    )
    try:
        text = line.decode("utf-8")
    except UnicodeDecodeError:
        return
    try:
        expected = repr(jsonl_oracle.loads(text))
    except ValueError as exc:
        with pytest.raises(ValueError) as refused:
            json_line(text)
        assert (type(refused.value), str(refused.value)) == (type(exc), str(exc))
    else:
        assert repr(json_line(text)) == expected


def test_a_deep_value_is_refused_with_a_value_error():
    with pytest.raises(ValueError, match="^JSON value nests too deeply: maximum recursion"):
        json_line(DEEP.decode())


def test_a_fast_built_record_is_the_constructor_built_one():
    fields = {"x": 1.5, "g": [[1, 2]]}
    fast = _built_trace_record("r", fields, "a", 0.5)
    slow = TraceRecord("r", FeatureRecord(dict(fields), "r"), Prediction("a", 0.5))
    assert fast == slow and repr(fast) == repr(slow)
    assert fast.input.fields is fields
    for one, other in [(fast, slow), (fast.input, slow.input), (fast.output, slow.output)]:
        assert type(one) is type(other)
        assert list(vars(one)) == list(vars(other))
    assert hash(fast.output) == hash(slow.output)
    for record in (fast, slow):
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(record)
    for obj, name in [(fast, "id"), (fast.input, "fields"), (fast.output, "confidence")]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, None)
    relabelled = dataclasses.replace(fast, output=dataclasses.replace(fast.output, label="b"))
    assert relabelled == TraceRecord("r", slow.input, Prediction("b", 0.5))
    assert fast.output.label == "a"


def test_every_well_formed_line_takes_the_built_record(tmp_path):
    path = tmp_path / "trace.jsonl"
    lines = [GOOD, GOOD.replace(b"0.5}", b"1}"), GOOD.replace(b', "confidence": 0.5', b"")]
    assert len(set(lines)) == 3
    path.write_bytes(b"\n".join(lines + [b"[1]"]) + b"\n")
    with mock.patch.object(monitor, "_built_trace_record", wraps=_built_trace_record) as built:
        items = list(read_trace(path))
    assert built.call_count == 3  # the int and the missing confidence too
    assert items == jsonl_oracle.read_trace(path)
    assert [type(item.output.confidence) for item in items[:3]] == [float, float, type(None)]


SPEC = {
    "schema": {"fields": {"x": {"type": "number"}}, "labels": ["a", "b"]},
    "precondition": "input.x > 0",
    "sufficient": {},
    "necessary": {},
    "invariants": [],
    "equivariants": [],
    "probabilistic": [],
}


@pytest.mark.parametrize("lines", [[DEEP], [GOOD, DEEP, GOOD]])
def test_monitor_run_reports_a_deep_line_and_reads_on(tmp_path, capsys, lines):
    spec, trace = tmp_path / "spec.json", tmp_path / "trace.jsonl"
    spec.write_text(json.dumps(SPEC), encoding="utf-8")
    trace.write_bytes(b"\n".join(lines) + b"\n")
    assert main(["monitor", "run", "--spec", str(spec), "--trace", str(trace)]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    report = json.loads(out)
    assert report["records_processed"] == len(lines)
    (violation,) = report["violations"]
    assert violation["detail"]["line"] == lines.index(DEEP) + 1
    assert violation["detail"]["error"].startswith("JSON value nests too deeply: ")
