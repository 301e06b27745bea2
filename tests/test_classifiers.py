"""Table, expression, and subprocess classifiers, plus their JSON forms."""
from __future__ import annotations

import copy
import json
import math
import pickle
import sys
import tempfile
import textwrap
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specguard import errors
from specguard.errors import ClassifierError, FormatError, read_json_file
from specguard.speccore import classifiers
from specguard.speccore.classifiers import (
    ExpressionClassifier,
    SubprocessClassifier,
    TableClassifier,
    classifier_from_json_dict,
    classifier_to_json_dict,
    classify,
    load_classifier,
)
from specguard.speccore.records import FeatureRecord, Prediction, canonical_key, value_key
from specguard.speclang.parser import parse
from specguard.speclang.schema import (
    BooleanType,
    CategoryType,
    GridType,
    IntegerType,
    NumberType,
    Schema,
)


class TestTableClassifier:
    def test_hit_returns_the_stored_prediction(self):
        table = TableClassifier({value_key({"x": 1}): Prediction("yes", 0.9)})
        assert table.classify({"x": 1}) == Prediction("yes", 0.9)

    def test_lookup_is_by_value_not_representation(self):
        table = TableClassifier({value_key({"x": 1}): Prediction("yes")})
        assert table.classify({"x": 1.0}) == Prediction("yes")

    def test_miss_falls_back_to_default(self):
        table = TableClassifier({}, default=Prediction("no", 0.5))
        assert table.classify({"x": 2}) == Prediction("no", 0.5)

    def test_miss_without_default_raises(self):
        with pytest.raises(ClassifierError, match="no entry"):
            TableClassifier({}).classify({"x": 2})

    @pytest.mark.parametrize(
        "value,message",
        [(10**400, "int too large to convert to float"), (None, "value None cannot appear")],
        ids=["int-no-float-holds", "null"],
    )
    def test_a_value_no_key_holds_is_a_classifier_error(self, value, message):
        table = TableClassifier({}, default=Prediction("no", 0.5))
        with pytest.raises(ClassifierError, match=f"cannot key this input: {message}"):
            table.classify({"x": value})

    @pytest.mark.parametrize(
        "key", [canonical_key({"x": 1}), ("x",), (("x",), (None,))], ids=["text", "short", "pair"]
    )
    def test_a_key_that_is_no_value_key_is_refused(self, key):
        with pytest.raises(TypeError, match="not a value_key triple"):
            TableClassifier({value_key({"x": 2}): Prediction("no"), key: Prediction("yes")})

    def test_classify_helper_accepts_records_and_mappings(self):
        table = TableClassifier({value_key({"x": 1}): Prediction("yes")})
        assert classify(table, FeatureRecord({"x": 1}, "r")) == Prediction("yes")
        assert classify(table, {"x": 1}) == Prediction("yes")


class TestExpressionClassifier:
    def make(self):
        return ExpressionClassifier(
            (
                (parse("input.height > 7"), "tall", 0.9),
                (parse("input.height > 3"), "medium", 0.6),
            ),
            default=Prediction("short", 0.5),
        )

    def test_first_matching_rule_wins(self):
        clf = self.make()
        assert clf.classify({"height": 9.0}) == Prediction("tall", 0.9)
        assert clf.classify({"height": 5.0}) == Prediction("medium", 0.6)

    def test_no_match_uses_default(self):
        assert self.make().classify({"height": 1.0}) == Prediction("short", 0.5)

    def test_no_match_no_default_raises(self):
        clf = ExpressionClassifier(((parse("input.height > 7"), "tall", None),))
        with pytest.raises(ClassifierError, match="no rule matched"):
            clf.classify({"height": 1.0})

    def test_rule_evaluation_failure_is_wrapped(self):
        clf = ExpressionClassifier(((parse("input.missing > 0"), "x", None),))
        with pytest.raises(ClassifierError, match="failed to evaluate"):
            clf.classify({"height": 1.0})


ECHO_SCRIPT = textwrap.dedent(
    """\
    import json, sys
    for line in sys.stdin:
        request = json.loads(line)
        height = request["input"].get("height", 0)
        label = "tall" if height > 5 else "short"
        print(json.dumps({"label": label, "confidence": 0.75}))
        sys.stdout.flush()
    """
)


@pytest.fixture()
def echo_script(tmp_path):
    path = tmp_path / "model.py"
    path.write_text(ECHO_SCRIPT, encoding="utf-8")
    return path


class TestSubprocessClassifier:
    def test_round_trips_requests(self, echo_script):
        with SubprocessClassifier([sys.executable, str(echo_script)]) as clf:
            assert clf.classify({"height": 9}) == Prediction("tall", 0.75)
            assert clf.classify({"height": 2}) == Prediction("short", 0.75)

    def test_timeout_kills_and_reports(self, tmp_path):
        stall = tmp_path / "stall.py"
        stall.write_text("import time\ntime.sleep(30)\n", encoding="utf-8")
        with SubprocessClassifier([sys.executable, str(stall)], timeout=0.2) as clf:
            with pytest.raises(ClassifierError, match="timed out"):
                clf.classify({"height": 1})

    def test_restarts_after_child_death(self, tmp_path, echo_script):
        one_shot = tmp_path / "one.py"
        one_shot.write_text(
            "import json,sys\n"
            "line = sys.stdin.readline()\n"
            'print(json.dumps({"label": "once"}))\n',
            encoding="utf-8",
        )
        with SubprocessClassifier([sys.executable, str(one_shot)]) as clf:
            assert clf.classify({"x": 1}).label == "once"
            # restart applies to children that are dead at call time, so wait
            clf._proc.wait(timeout=5)
            assert clf.classify({"x": 2}).label == "once"

    def test_malformed_json_is_reported(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text('print("not json", flush=True)\nimport time\ntime.sleep(5)\n', "utf-8")
        with SubprocessClassifier([sys.executable, str(bad)], timeout=2.0) as clf:
            with pytest.raises(ClassifierError, match="malformed JSON"):
                clf.classify({"x": 1})

    def test_a_reply_nested_too_deeply_is_malformed_json(self, tmp_path):
        deep = tmp_path / "deep.py"
        deep.write_text(
            'import sys\nsys.stdin.readline()\nprint("[" * 100000, flush=True)\n'
            "import time\ntime.sleep(5)\n",
            "utf-8",
        )
        with SubprocessClassifier([sys.executable, str(deep)], timeout=2.0) as clf:
            with pytest.raises(ClassifierError) as refused:
                clf.classify({"x": 1})
        assert str(refused.value).startswith(
            "subprocess sent malformed JSON: JSON value nests too deeply: "
        )

    def test_missing_label_is_reported(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(
            'import json,sys\nsys.stdin.readline()\nprint(json.dumps({"confidence": 1}), flush=True)\n'
            "import time\ntime.sleep(5)\n",
            "utf-8",
        )
        with SubprocessClassifier([sys.executable, str(bad)], timeout=2.0) as clf:
            with pytest.raises(ClassifierError, match="string 'label'"):
                clf.classify({"x": 1})

    def test_a_response_line_past_the_cap_kills_the_child(self, tmp_path, monkeypatch):
        flood = tmp_path / "flood.py"
        flood.write_text(
            "import sys\nsys.stdin.readline()\n"
            "while True:\n    sys.stdout.buffer.write(b'x' * 65536)\n",
            "utf-8",
        )
        monkeypatch.setattr(classifiers, "_LINE_CAP", 1 << 20)
        with SubprocessClassifier([sys.executable, str(flood)], timeout=30.0) as clf:
            started = time.monotonic()
            with pytest.raises(ClassifierError) as refused:
                clf.classify({"x": 1})
            assert time.monotonic() - started < 20
            assert clf._proc is None and len(clf._buffer) == 0
        assert str(refused.value) == "subprocess response line exceeds 1048576 bytes"

    def test_responses_split_or_joined_across_reads_are_kept(self, tmp_path):
        # The first reply comes in pieces, then two replies come in one write:
        # the second is kept for the next call.
        script = tmp_path / "pieces.py"
        script.write_text(
            "import sys, time\nout = sys.stdout.buffer\nsys.stdin.readline()\n"
            "for piece in (b'{\"label\": ', b'\"a\", \"confid', b'ence\": 0.5}'):\n"
            "    out.write(piece); out.flush(); time.sleep(0.05)\n"
            "out.write(b'\\n{\"label\": \"b\"}\\n'); out.flush()\n"
            "sys.stdin.readline()\ntime.sleep(5)\n",
            "utf-8",
        )
        with SubprocessClassifier([sys.executable, str(script)], timeout=5.0) as clf:
            assert clf.classify({"x": 1}) == Prediction("a", 0.5)
            assert clf.classify({"x": 2}) == Prediction("b")

    def test_unstartable_command(self):
        with SubprocessClassifier(["/nonexistent/binary"]) as clf:
            with pytest.raises(ClassifierError, match="could not start"):
                clf.classify({"x": 1})

    def test_empty_command_rejected(self):
        with pytest.raises(FormatError, match="non-empty command"):
            SubprocessClassifier([])


class Reading(float):
    pass


class Fields(dict):
    pass


SCHEMA = Schema(
    {
        "n": IntegerType(),
        "x": NumberType(),
        "on": BooleanType(),
        "k": CategoryType(("a", "b")),
        "g": GridType(1, 2),
    },
    ("yes", "no"),
)
FITTING = {"n": 3, "x": -0.0, "on": True, "k": "b", "g": [[1, 2.5]]}
MIXED = {
    "kind": "table",
    "entries": [
        {"input": FITTING, "label": "yes", "confidence": 0.9},
        {"input": {**FITTING, "k": "c"}, "label": "no"},  # off the schema
        {"input": {**FITTING, "n": 2**53 + 1}, "label": "no"},  # keyed as 2**53
        {"input": {"x": 1.5}, "label": "no", "confidence": 0.25},
    ],
    "default": {"label": "no", "confidence": 0.5},
}


def schema_table(directory: Path, data: dict) -> TableClassifier:
    path = directory / "table.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return load_classifier(path, SCHEMA)


class TestSchemaKeyedTable:
    """A table given the schema of its inputs keys a conforming one by its
    schema key (bytes) and any other by its value_key triple."""

    def test_one_table_holds_both_kinds_and_finds_each_entry(self, tmp_path):
        table = schema_table(tmp_path, MIXED)
        assert sorted(type(key).__name__ for key in table.entries) == [
            "bytes", "bytes", "tuple", "tuple"
        ]
        twin = Fields(g=[[Reading(1.0), 2.5]], k="b", on=True, x=0, n=3.0)
        assert table.classify(twin) == table.classify(FITTING) == Prediction("yes", 0.9)
        assert table.classify({**FITTING, "k": "c"}) == Prediction("no")
        assert table.classify({**FITTING, "n": 2**53}) == Prediction("no")
        assert table.classify({"x": Reading(1.5)}) == Prediction("no", 0.25)
        assert table.classify({**FITTING, "k": "a"}) == Prediction("no", 0.5)  # the default
        with pytest.raises(ClassifierError, match="value None cannot appear"):
            table.classify({**FITTING, "x": None})

    def test_it_pickles_compares_and_prints_by_its_fields(self, tmp_path):
        table = schema_table(tmp_path, MIXED)
        same = TableClassifier(dict(table.entries), table.default, SCHEMA)
        assert same == table
        assert repr(same) == repr(table) and "schema=Schema(" in repr(table)
        assert "_key" not in repr(table)
        for copied in (pickle.loads(pickle.dumps(table)), copy.deepcopy(table)):
            assert copied == table
            assert copied.classify(dict(reversed(FITTING.items()))) == Prediction("yes", 0.9)
        assert table != classifier_from_json_dict(MIXED)  # no schema, triples only

    def test_its_json_form_is_the_unkeyed_tables(self, tmp_path):
        table = schema_table(tmp_path, MIXED)
        data = classifier_to_json_dict(table)
        assert data == classifier_to_json_dict(classifier_from_json_dict(MIXED))
        written = {"g": [[1, 2.5]], "k": "b", "n": 3, "on": True, "x": 0}
        assert data["entries"][0]["input"] == written
        assert schema_table(tmp_path, data) == table

    def test_a_table_the_stream_does_not_take_is_keyed_alike(self, tmp_path):
        streamed = schema_table(tmp_path, MIXED)
        with mock.patch.object(classifiers, "read_json_streamed", return_value=None):
            assert load_classifier(tmp_path / "table.json", SCHEMA) == streamed

    def test_a_key_it_would_never_find_is_refused(self, tmp_path):
        good = schema_table(tmp_path, MIXED)
        packed = next(key for key in good.entries if type(key) is bytes)
        with pytest.raises(TypeError, match="not a schema key here"):
            TableClassifier({packed[:-8]: Prediction("no")}, schema=SCHEMA)
        with pytest.raises(TypeError, match="not a schema key here"):
            TableClassifier({packed: Prediction("no")})
        off = value_key({"x": 1.5})
        assert TableClassifier({off: Prediction("no")}, schema=SCHEMA).classify({"x": 1.5})


class TestJsonForms:
    def test_table_round_trip(self):
        data = {
            "kind": "table",
            "entries": [
                {"input": {"x": 1}, "label": "yes", "confidence": 0.9},
                {"input": {"x": 2}, "label": "no"},
            ],
            "default": {"label": "no", "confidence": 0.5},
        }
        clf = classifier_from_json_dict(data)
        assert classifier_to_json_dict(clf) == data
        assert clf.classify({"x": 1}) == Prediction("yes", 0.9)

    def test_table_entry_label_shorthand(self):
        clf = classifier_from_json_dict(
            {"kind": "table", "entries": [{"input": {"x": 1}, "label": "yes"}]}
        )
        assert clf.classify({"x": 1}) == Prediction("yes", None)

    def test_table_json_form_is_pinned(self):
        """Inputs are written back from their keys: names sorted, an integral
        number below 1e15 as an int, -0.0 as 0, NaN and infinities as Python's
        json writes them. The bytes were written by the text-keyed table
        (canonical_key strings, decoded by json.loads) that value keys
        replaced."""
        data = {
            "kind": "table",
            "entries": [
                {
                    "input": {
                        "n": 3, "neg": -7, "half": 2.5, "below": 999999999999999.0,
                        "big": 1e15, "huge": 12345678901234567,
                    },
                    "label": "numbers",
                    "confidence": 0.5,
                },
                {
                    "input": {"z": -0.0, "nan": math.nan, "inf": math.inf, "minf": -math.inf},
                    "label": "specials",
                },
                {"input": {"t": True, "f": False, "one": 1, "zero": 0.0}, "label": "bools"},
                {
                    "input": {"s": 'tab\t "q" \\ \u00e9 \u540d \u2028 \x00 \ud800 /', "empty": ""},
                    "label": "text",
                },
                {
                    "input": {
                        "g": [[1, 2.5], [], [[-0.0, "x", True], [1e15]], 3],
                        "h": [],
                        "r": [[], [[]], [0.5, [1, [2]]]],
                    },
                    "label": "lists",
                    "confidence": 1.0,
                },
            ],
            "default": {"label": "none", "confidence": 0.25},
        }
        assert json.dumps(classifier_to_json_dict(classifier_from_json_dict(data))) == (
            '{"kind": "table", "entries": [{"input": {"below": 999999999999999, "big": 1000000000000000.0, '
            '"half": 2.5, "huge": 1.2345678901234568e+16, "n": 3, "neg": -7}, "label": "numbers", '
            '"confidence": 0.5}, {"input": {"inf": Infinity, "minf": -Infinity, "nan": NaN, "z": 0}, '
            '"label": "specials"}, {"input": {"f": false, "one": 1, "t": true, "zero": 0}, "label": "bools"}, '
            '{"input": {"empty": "", "s": "tab\\t \\"q\\" \\\\ \\u00e9 \\u540d \\u2028 \\u0000 \\ud800 /"}, '
            '"label": "text"}, {"input": {"g": [[1, 2.5], [], [[0, "x", true], [1000000000000000.0]], '
            '3], "h": [], "r": [[], [[]], [0.5, [1, [2]]]]}, "label": "lists", "confidence": 1.0}], '
            '"default": {"label": "none", "confidence": 0.25}}'
        )

    def test_a_pickled_table_finds_its_entries(self):
        data = {
            "kind": "table",
            "entries": [{"input": {"b": True, "g": [[1, "s"], [False], []]}, "label": "yes"}],
        }
        table = pickle.loads(pickle.dumps(classifier_from_json_dict(data)))
        assert table.classify({"g": [[1.0, "s"], [False], []], "b": True}) == Prediction("yes")

    def test_expression_round_trip(self):
        data = {
            "kind": "expression",
            "rules": [{"condition": "input.height > 7", "label": "tall", "confidence": 0.9}],
            "default": {"label": "short"},
        }
        assert classifier_to_json_dict(classifier_from_json_dict(data)) == data

    def test_unknown_kind(self):
        with pytest.raises(FormatError, match="unknown kind"):
            classifier_from_json_dict({"kind": "neural"})

    def test_subprocess_command_validation(self):
        with pytest.raises(FormatError, match="'command' list"):
            classifier_from_json_dict({"kind": "subprocess", "command": "model.py"})
        with pytest.raises(FormatError, match="timeout"):
            classifier_from_json_dict(
                {"kind": "subprocess", "command": ["x"], "timeout": -1}
            )

    def test_load_resolves_subprocess_paths_next_to_the_file(self, tmp_path, echo_script):
        config = tmp_path / "clf.json"
        config.write_text(
            json.dumps({"kind": "subprocess", "command": [sys.executable, "model.py"]}),
            encoding="utf-8",
        )
        clf = load_classifier(config)
        assert clf.command[1] == str(tmp_path / "model.py")
        with clf:
            assert clf.classify({"height": 9}).label == "tall"

    @pytest.mark.parametrize(
        "value,message",
        [(10**400, "int too large to convert to float"), (None, "value None cannot appear")],
        ids=["int-no-float-holds", "null"],
    )
    def test_an_entry_that_cannot_be_keyed_is_named(self, value, message):
        entries = [{"input": {"x": 1}, "label": "a"}, {"input": {"x": value}, "label": "b"}]
        with pytest.raises(FormatError, match=f"table entry 1 input cannot be keyed: {message}"):
            classifier_from_json_dict({"kind": "table", "entries": entries})

    def test_table_from_a_dict_leaves_it_unchanged_and_equals_the_loaded_one(self, tmp_path):
        data = {
            "kind": "table",
            "entries": [
                {"input": {"x": 1, "g": [[0.5, -0.0]]}, "label": "yes", "confidence": 0.9},
                {"input": {"x": 2.0, "s": "a"}, "label": "no"},
                {"input": {"x": 3}, "label": "yes"},
            ],
            "default": "no",
        }
        path = tmp_path / "clf.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        before = copy.deepcopy(data)
        built = classifier_from_json_dict(data)
        assert data == before
        loaded = load_classifier(path)
        assert built == loaded
        assert list(built.entries) == list(loaded.entries)

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "clf.json"
        path.write_text("{nope", encoding="utf-8")
        with pytest.raises(FormatError, match="not valid JSON"):
            load_classifier(path)

    def test_table_round_trip_with_non_finite_and_huge_inputs(self, tmp_path):
        values = [math.nan, math.inf, -math.inf, 1e300]
        data = {
            "kind": "table",
            "entries": [{"input": {"x": v}, "label": f"l{i}"} for i, v in enumerate(values)],
        }
        built = classifier_from_json_dict(data)
        dumped = classifier_to_json_dict(built)
        out = [entry["input"]["x"] for entry in dumped["entries"]]
        assert math.isnan(out[0]) and out[1:] == [math.inf, -math.inf, 1e300]
        assert type(out[3]) is float
        again = classifier_from_json_dict(dumped)
        assert list(again.entries.items()) == list(built.entries.items())
        path = tmp_path / "clf.json"
        path.write_text(json.dumps(dumped), encoding="utf-8")
        loaded = load_classifier(path)
        assert list(loaded.entries.items()) == list(built.entries.items())
        for i, value in enumerate(values):
            assert loaded.classify({"x": value}) == Prediction(f"l{i}")


def _whole_file(path: Path):
    """The classifier in the file, read whole and decoded by json.loads."""
    return classifier_from_json_dict(read_json_file(path, "classifier file"), path.parent)


def _outcome(load, path: Path, probes: list):
    """What load makes of the file: the classifier's entries in order, its
    default and its answers on probes (confidence signs included), or the
    exception's type and text."""
    try:
        clf = load(path)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    if not isinstance(clf, TableClassifier):
        return repr(clf)

    def answer(prediction):
        return prediction and (prediction.label, repr(prediction.confidence))

    def classified(fields):
        try:
            return answer(clf.classify(fields))
        except ClassifierError as exc:
            return str(exc)

    return (
        [(key, answer(prediction)) for key, prediction in clf.entries.items()],
        answer(clf.default),
        [classified(fields) for fields in probes],
    )


_VALUES = ["1", "1.0", "2", "-0.0", "0", "1e2", "NaN", "Infinity", '"s"', "[1, [2.5]]", "true"]
_CONFIDENCES = ["0.5", "1", "0", "-0.0", "0.0"]
_DEFAULTS = ['"a"', '{"label": "b", "confidence": -0.0}', '{"label": "a", "note": DEEP}', "null"]
# Each file has at most two flaws, so that they decide what load makes of it.
_FLAWS = {
    "value": ["null", "1" * 400, "1" * 5000],
    "confidence": ["NaN", "Infinity", "true", '"x"', "1e400"],
    "label": ["5", "null"],
    "entry": ["[]", '{"input": 3}', '{"input": {"x": 1}}', "7"],
    "kind": ['"expression"', '"tab"', "3"],
    "entries": ["{}", "3", '"entries"', "null"],
    "default": ['{"label": 3}', '{"label": "a", "confidence": true}'],
    "list comma": [","],
    "object comma": [","],
    "repeat": ['"entries": [{"input": {"x": 1}, "label": "b"}]', '"entries": []', '"kind": "tab"',
               '"kind": "table"', '"default": "b"'],
    "bom": ["\ufeff"],
    "extra": ["{}", "x", "]", "}", '"a"'],
    "cut": [""],
}


@st.composite
def _table_texts(draw):
    """The text of a table classifier file, well-formed or with one or two
    of the flaws a hand-written or truncated file can have. DEEP stands for a nested list
    (see test_a_streamed_table_equals_the_whole_file_one)."""
    ws = st.sampled_from(["", " ", "\n", "\r\n", "\t", " \r\n  "])
    flaws = st.lists(st.sampled_from(sorted(_FLAWS)), min_size=1, max_size=2, unique=True)
    bad = {flaw: draw(st.sampled_from(_FLAWS[flaw])) for flaw in draw(st.just([]) | flaws)}
    count = draw(st.integers(0, 6))
    flawed = draw(st.integers(0, max(count - 1, 0)))

    def entry(i):
        if "entry" in bad and i == flawed:
            return bad["entry"]
        names = draw(st.lists(st.sampled_from("xyz"), max_size=2, unique=True))
        values = [draw(st.sampled_from(_VALUES + ["DEEP"])) for _ in names]
        if "value" in bad and i == flawed:
            names, values = names + ["w"], values + [bad["value"]]
        fields = [f'"{name}":{draw(ws)}{value}' for name, value in zip(names, values)]
        members = ['"input": {' + ", ".join(fields) + "}"]
        if "label" in bad and i == flawed:
            members.append('"label": ' + bad["label"])
        else:
            members.append('"label": ' + draw(st.sampled_from(['"a"', '"b"'])))
        if "confidence" in bad and i == flawed:
            members.append('"confidence": ' + bad["confidence"])
        elif draw(st.booleans()):
            members.append('"confidence": ' + draw(st.sampled_from(_CONFIDENCES)))
        if draw(st.booleans()):
            members.reverse()
        return "{" + f",{draw(ws)}".join(members) + "}"

    items = [entry(i) for i in range(count)]
    entries = "[" + draw(ws) + f"{draw(ws)},{draw(ws)}".join(items)
    if "list comma" in bad and items:
        entries += ","
    entries += draw(ws) + "]"
    members = [
        '"kind": ' + bad.get("kind", '"table"'),
        '"entries":' + draw(ws) + bad.get("entries", entries),
    ]
    if "default" in bad:
        members.append('"default": ' + bad["default"])
    elif draw(st.booleans()):
        members.append('"default": ' + draw(st.sampled_from(_DEFAULTS)))
    if "repeat" in bad:
        members.append(bad["repeat"])
    members = draw(st.permutations(members))
    text = draw(ws) + "{" + draw(ws) + f"{draw(ws)},{draw(ws)}".join(members)
    if "object comma" in bad:
        text += ","
    text += draw(ws) + "}" + draw(ws)
    text = bad.get("bom", "") + text + bad.get("extra", "")
    if "cut" in bad:
        text = text[: draw(st.integers(0, len(text) - 1))]
    return text


# A byte offset that is a chunk edge for every chunk size the tests patch in
# (1, 2, 3, 7 and 64), though not for the default.
_EDGE = 3 * 7 * 64
_ENTRIES = '{"kind": "table", "entries": ['


def _cut(before: str, after: str, into: int = 0) -> str:
    """before + after, with spaces after the file's opening "{" (before's
    first character) so that a chunk edge falls into bytes into after."""
    pad = _EDGE - len(before.encode("utf-8")) - into
    return "{" + " " * pad + before[1:] + after


def _json_depth_limit() -> int:
    """The most nested lists json.loads decodes when called from here."""
    low, high = 1, 5000
    while low < high:
        mid = (low + high + 1) // 2
        try:
            json.loads("[" * mid + "]" * mid)
            low = mid
        except RecursionError:
            high = mid - 1
    return low


class TestStreamedTable:
    """load_classifier streams a table file's entries into the table; the
    file read whole by json.loads is the reference it must match."""

    PROBES = [{"x": 1}, {"x": 0}, {"x": "s"}, {"y": 2, "x": 1.0}, {"z": 1}]

    # The file is read in chunks of chunk bytes. With 1 byte, every step is
    # decoded from every cut of its text; the examples put a chunk edge
    # inside a token (at _EDGE, an edge for chunks of 1, 2, 3, 7 and 64).
    @settings(max_examples=400, deadline=None)
    @given(
        _table_texts(),
        st.sampled_from([1, 49, 50, 51, 99, 100, 101]),
        st.integers(-4, 24),
        st.sampled_from([1, 2, 3, 7, 64, errors._CHUNK]),
    )
    @example('{"entries": [{"input": {"x": 2}, "label": "a"}], "kind": "table", "entries": []}',
             1, 1, errors._CHUNK)
    @example('{"kind": "tab", "entries": [], "default": "a", "kind": "table", "default": "b"}',
             1, 1, errors._CHUNK)
    @example('{"kind": "table", "default": {"label": "a"}}', 1, 1, errors._CHUNK)
    @example('{"kind": "expression", "rules": [], "entries": [{"input": {"x": 1}}]}',
             1, 1, errors._CHUNK)
    @example(_cut(_ENTRIES + '{"input": {"x": 1}, "label": "', 'é"}]}', 1), 1, 1, 7)
    @example(_cut(_ENTRIES + '{"input": {"x": 1}, "label": "', '😀"}]}', 2), 1, 1, 1)
    @example(_cut(_ENTRIES + '{"input": {"x": "\\ud83d', '\\ude00"}, "label": "a"}]}'), 1, 1, 7)
    @example(_cut(_ENTRIES + '{"input": {"x": "\\ud8', '3d\\ude00"}, "label": "a"}]}'), 1, 1, 3)
    @example(_cut('{"kind": "table", "default": {"label": "', 'é"}, "entries": []}', 1), 1, 1, 64)
    @example(_cut(_ENTRIES + '{"input": {"x": tr', 'ue}, "label": "a"}]}'), 1, 1, 7)
    @example(_cut(_ENTRIES + '{"input": {"x": fal', 'se}, "label": "a"}]}'), 1, 1, 3)
    @example(_cut(_ENTRIES + '{"input": {"x": n', 'ull}, "label": "a"}]}'), 1, 1, 7)
    @example(_cut(_ENTRIES + '{"input": {"x": Na', 'N}, "label": "a"}]}'), 1, 1, 7)
    @example(_cut(_ENTRIES + '{"input": {"x": -Inf', 'inity}, "label": "a"}]}'), 1, 1, 2)
    @example(_cut(_ENTRIES + '{"input": {"x": -', '12.5e-3}, "label": "a"}]}'), 1, 1, 7)
    @example(_cut(_ENTRIES + '{"input": {"x": 12', '.5e-3}, "label": "a"}]}'), 1, 1, 1)
    @example(_cut(_ENTRIES + '{"input": {"x": 12.', '5e-3}, "label": "a"}]}'), 1, 1, 7)
    @example(_cut(_ENTRIES + '{"input": {"x": 12.5e', '-3}, "label": "a"}]}'), 1, 1, 3)
    @example(_cut(_ENTRIES + '{"input": {"x": 12.5e-', '3}, "label": "a"}]}'), 1, 1, 7)
    @example(_cut('{"kind": "table", "default": {"label": "a", "confidence": 12',
                  '.5}, "entries": []}'), 1, 1, 64)
    @example(_cut(_ENTRIES + '{"input": {"x": 1}, "label": "a"},  ',
                  '  {"input": {"x": 2}, "label": "b"}]}'), 1, 1, 7)
    @example(_cut(_ENTRIES + '{"input": {"x": 1}, "label": "a"}', ']}'), 1, 1, 7)
    @example(_cut(_ENTRIES + '{"input": {"x": 1}, "label": "a"}]', '}'), 1, 1, 3)
    @example(_cut(_ENTRIES + '{"input": {"x": 1}, "label": "a"}]}  ', '  '), 1, 1, 7)
    @example(_cut(_ENTRIES + '{"input": {"x": 1}, "label": "a"}]}  ', '  x'), 1, 1, 64)
    def test_a_streamed_table_equals_the_whole_file_one(self, text, shallow, below_limit, chunk):
        # DEEP is either shallow or a little above or below the nesting
        # json.loads refuses at this stack depth, where a reader that scans
        # items at a smaller depth than json.loads could wrongly accept it.
        depth = shallow if below_limit % 2 else _json_depth_limit() - below_limit
        text = text.replace("DEEP", "[" * depth + "]" * depth)
        with tempfile.TemporaryDirectory() as folder, mock.patch.object(errors, "_CHUNK", chunk):
            path = Path(folder) / "clf.json"
            path.write_text(text, encoding="utf-8", newline="")
            assert _outcome(load_classifier, path, self.PROBES) == _outcome(
                _whole_file, path, self.PROBES
            )

    @pytest.mark.parametrize(
        "text, chunk, message",
        [
            ("\ufeff" + '{"kind": "table", "entries": []}', 2,
             "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
            (_cut(_ENTRIES + '{"input": {"x": 1}, "label": "', "\udce2\udc82(\"}]}", 1), 7,
             "'utf-8' codec can't decode bytes in position 1343-1344: invalid continuation byte"),
            (_cut(_ENTRIES + '{"input": {"x": 12', ".5"), 7,
             "Expecting ',' delimiter: line 1 column 1347 (char 1346)"),
            (_cut('{"kind": "table", "entries": []}  ', "  x"), 64,
             "Extra data: line 1 column 1347 (char 1346)"),
            (_ENTRIES + '{"input": {"x": ' + "1" * 5000 + '}, "label": "a"}]}', 64,
             "Exceeds the limit (4300 digits) for integer string conversion: value has 5000 "
             "digits; use sys.set_int_max_str_digits() to increase the limit"),
            (_ENTRIES + '{"input": {"x": ' + "[" * 5000 + "]" * 5000 + '}, "label": "a"}]}', 64,
             "JSON value nests too deeply: maximum recursion depth exceeded while decoding a "
             "JSON array from a unicode string"),
        ],
        ids=["bom", "not-utf-8", "cut-number", "extra-data", "huge-int", "too-deep"],
    )
    def test_a_fault_at_a_chunk_edge_keeps_its_error(self, tmp_path, text, chunk, message):
        # The texts are the ones the whole-file read gave before the file
        # was read in chunks.
        path = tmp_path / "clf.json"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        with mock.patch.object(errors, "_CHUNK", chunk), pytest.raises(FormatError) as refused:
            load_classifier(path)
        assert str(refused.value) == f"classifier file {path} is not valid JSON: {message}"

    @pytest.mark.parametrize("size", [1 << 12, 1 << 16])
    def test_a_long_or_failing_step_takes_a_logarithmic_number_of_reads(
        self, tmp_path, monkeypatch, size
    ):
        # each retry reads at least the text pending, so the text doubles:
        # about log2(size / chunk) reads, not one per chunk
        monkeypatch.setattr(errors, "_CHUNK", 16)
        reads = []
        more = errors._Chunks.more

        def counted(chunks, start):
            reads.append(start)
            return more(chunks, start)

        monkeypatch.setattr(errors._Chunks, "more", counted)
        # measured: 11 and 15 reads for the long item, 12 and 16 for the BOM
        bound = math.log2(size / 16) + 5
        path = tmp_path / "long.json"
        long_item = "x" * size
        path.write_text('{"entries": ["%s", 1]}' % long_item, encoding="utf-8")
        handed = []
        assert errors.read_json_streamed(path, "entries", handed.append) == {"entries": []}
        assert handed == [long_item, 1]
        assert len(reads) <= bound
        reads.clear()
        path = tmp_path / "clf.json"
        path.write_text("\ufeff" + '{"kind": "table", "entries": [%s]}' % ", ".join(
            ['{"input": {"x": 1}, "label": "a"}'] * (size // 32)
        ), encoding="utf-8")
        with pytest.raises(FormatError) as refused:
            load_classifier(path)
        assert str(refused.value) == (
            f"classifier file {path} is not valid JSON: "
            "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"
        )
        assert len(reads) <= bound

    @pytest.mark.parametrize("separator", [", ", ",\n  ", " ,"])
    @pytest.mark.parametrize("chunk", [1, 2, 3, 7])
    def test_each_item_is_handed_over_once_and_whole(self, tmp_path, chunk, separator):
        items = ["-12.5e-3", "12", "true", "false", "null", "NaN", "-Infinity",
                 '"\\ud83d\\ude00"', '"\u00e9\U0001f600"', "[1, 2.5]", '{"a": 1}']
        text = '{"kind": 1, "entries": [' + separator.join(items) + '], "rest": [0]}  '
        path = tmp_path / "list.json"
        path.write_text(text, encoding="utf-8")
        handed = []
        with mock.patch.object(errors, "_CHUNK", chunk):
            members = errors.read_json_streamed(path, "entries", handed.append)
        expected = json.loads(text)
        assert repr(handed) == repr(expected["entries"])  # NaN included
        assert members == {**expected, "entries": []}

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_a_stream_that_gives_up_leaves_no_entries_behind(self, tmp_path, chunk):
        path = tmp_path / "clf.json"
        entries = ", ".join(f'{{"input": {{"x": {i}}}, "label": "a"}}' for i in range(40))
        path.write_text(_cut(_ENTRIES + entries + '], "entri', 'es": []}'), encoding="utf-8")
        with mock.patch.object(errors, "_CHUNK", chunk):
            assert load_classifier(path).entries == {}
        deep = "[" * 150 + "]" * 150
        path.write_text(
            _cut(_ENTRIES + entries + ', {"input": {"x": ' + deep[:60],
                 deep[60:] + '}, "label": "b"}]}'),
            encoding="utf-8",
        )
        with mock.patch.object(errors, "_CHUNK", chunk):
            loaded = load_classifier(path)
        assert list(loaded.entries.items()) == list(_whole_file(path).entries.items())
        assert len(loaded.entries) == 41

    @staticmethod
    def write_table(path: Path, count: int, zone: str = "rural", **layout) -> None:
        entries = [
            {
                "input": {"height": i / 7, "width": i % 13 / 3, "lane": i % 4, "zone": zone},
                "label": "abc"[i % 3],
                "confidence": 0.5,
            }
            for i in range(count)
        ]
        text = json.dumps({"kind": "table", "entries": entries}, **layout)
        path.write_text(text, encoding="utf-8")

    def test_loading_peaks_well_below_the_decoded_file(self, tmp_path):
        path = tmp_path / "clf.json"
        self.write_table(path, 20_000)
        text = path.read_text(encoding="utf-8")
        tracemalloc.start()
        try:
            tree = json.loads(text)
            decoded = tracemalloc.get_traced_memory()[0]
            del tree, text
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            clf = load_classifier(path)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(clf.entries) == 20_000
        # the file's text and the finished table; json.loads alone makes
        # about 10 MB of dicts and floats here
        assert peak < 0.6 * decoded

    @pytest.mark.parametrize("count", [16_000, 64_000])
    def test_loading_holds_a_few_chunks_beyond_the_table(self, tmp_path, count):
        # about 2 MB and 8 MB of file: what loading holds beyond the table
        # it builds does not grow with the file
        path = tmp_path / "clf.json"
        self.write_table(path, count)
        tracemalloc.start()
        try:
            clf = load_classifier(path)
            table, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(clf.entries) == count
        assert peak - table < 8 * errors._CHUNK  # measured: about 3 and 4

    def test_equal_answers_share_one_prediction(self, tmp_path):
        path = tmp_path / "clf.json"
        self.write_table(path, 300)
        data = json.loads(path.read_text(encoding="utf-8"))
        data["entries"][1]["confidence"] = -0.0
        data["entries"][2]["confidence"] = 0.0
        data["entries"][4]["confidence"] = 0
        data["entries"][5]["confidence"] = 1
        data["entries"][6]["confidence"] = 1.0
        path.write_text(json.dumps(data), encoding="utf-8")
        answers = {(e["label"], repr(float(e["confidence"]))) for e in data["entries"]}
        for clf in (load_classifier(path), classifier_from_json_dict(data)):
            predictions = list(clf.entries.values())
            assert len({id(p) for p in predictions}) == len(answers) == 8
            assert {(p.label, repr(p.confidence)) for p in predictions} == answers

    def test_a_file_of_another_kind_is_read_once(self, tmp_path, monkeypatch):
        path = tmp_path / "clf.json"
        rules = [{"condition": f"input.x > {i}", "label": "abc"[i]} for i in range(3)]
        path.write_text(json.dumps({"kind": "expression", "rules": rules}), encoding="utf-8")
        opens = []
        open_path = Path.open

        def counted(self, *args, **kwargs):
            opens.append(self)
            return open_path(self, *args, **kwargs)

        monkeypatch.setattr(Path, "open", counted)
        clf = load_classifier(path)
        assert opens == [path]
        assert [label for _, label, _ in clf.rules] == ["a", "b", "c"]

    def test_a_table_without_entries_keeps_its_error(self, tmp_path):
        path = tmp_path / "clf.json"
        path.write_text('{"kind": "table", "default": {"label": "a"}}', encoding="utf-8")
        with pytest.raises(FormatError, match="^table classifier needs an 'entries' list$"):
            load_classifier(path)

    @pytest.mark.parametrize("chunk", [1, 7, 64, errors._CHUNK])
    @pytest.mark.parametrize(
        "layout",
        [{}, {"separators": (",", ":")}, {"indent": 2}, {"indent": "\t"},
         {"separators": (", \n ", ": ")}, {"ensure_ascii": False}],
        ids=["default", "compact", "indent", "tabs", "comma-newline", "raw-utf-8"],
    )
    def test_a_well_formed_table_is_never_decoded_whole(self, tmp_path, monkeypatch, layout, chunk):
        # at every chunk size, whatever a chunk's edge cuts: whitespace runs,
        # numbers, \u escapes and raw UTF-8 characters among them
        path = tmp_path / "clf.json"
        self.write_table(path, 50, zone="z\u00f6ne \U0001f600", **layout)
        monkeypatch.setattr(errors, "_CHUNK", chunk)

        def refuse(text):
            raise AssertionError("the table file was decoded whole")

        monkeypatch.setattr(errors, "_loads", refuse)
        assert len(load_classifier(path).entries) == 50
