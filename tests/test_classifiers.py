"""Table, expression, and subprocess classifiers, plus their JSON forms."""
from __future__ import annotations

import copy
import json
import math
import sys
import tempfile
import textwrap
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specguard import errors
from specguard.errors import ClassifierError, FormatError, read_json_file
from specguard.speccore.classifiers import (
    ExpressionClassifier,
    SubprocessClassifier,
    TableClassifier,
    classifier_from_json_dict,
    classifier_to_json_dict,
    classify,
    load_classifier,
)
from specguard.speccore.records import FeatureRecord, Prediction, canonical_key
from specguard.speclang.parser import parse


class TestTableClassifier:
    def test_hit_returns_the_stored_prediction(self):
        table = TableClassifier({canonical_key({"x": 1}): Prediction("yes", 0.9)})
        assert table.classify({"x": 1}) == Prediction("yes", 0.9)

    def test_lookup_is_by_value_not_representation(self):
        table = TableClassifier({canonical_key({"x": 1}): Prediction("yes")})
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

    def test_classify_helper_accepts_records_and_mappings(self):
        table = TableClassifier({canonical_key({"x": 1}): Prediction("yes")})
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

    def test_unstartable_command(self):
        with SubprocessClassifier(["/nonexistent/binary"]) as clf:
            with pytest.raises(ClassifierError, match="could not start"):
                clf.classify({"x": 1})

    def test_empty_command_rejected(self):
        with pytest.raises(FormatError, match="non-empty command"):
            SubprocessClassifier([])


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

    @settings(max_examples=400, deadline=None)
    @given(_table_texts(), st.sampled_from([1, 49, 50, 51, 99, 100, 101]), st.integers(-4, 24))
    @example('{"entries": [{"input": {"x": 2}, "label": "a"}], "kind": "table", "entries": []}', 1, 1)
    @example('{"kind": "tab", "entries": [], "default": "a", "kind": "table", "default": "b"}', 1, 1)
    def test_a_streamed_table_equals_the_whole_file_one(self, text, shallow, below_limit):
        # DEEP is either shallow or a little above or below the nesting
        # json.loads refuses at this stack depth, where a reader that scans
        # items at a smaller depth than json.loads could wrongly accept it.
        depth = shallow if below_limit % 2 else _json_depth_limit() - below_limit
        text = text.replace("DEEP", "[" * depth + "]" * depth)
        with tempfile.TemporaryDirectory() as folder:
            path = Path(folder) / "clf.json"
            path.write_text(text, encoding="utf-8", newline="")
            assert _outcome(load_classifier, path, self.PROBES) == _outcome(
                _whole_file, path, self.PROBES
            )

    @staticmethod
    def write_table(path: Path, count: int, **layout) -> None:
        entries = [
            {
                "input": {"height": i / 7, "width": i % 13 / 3, "lane": i % 4, "zone": "rural"},
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

    @pytest.mark.parametrize(
        "layout",
        [{}, {"separators": (",", ":")}, {"indent": 2}, {"indent": "\t"},
         {"separators": (", \n ", ": ")}],
        ids=["default", "compact", "indent", "tabs", "comma-newline"],
    )
    def test_a_well_formed_table_is_never_decoded_whole(self, tmp_path, monkeypatch, layout):
        path = tmp_path / "clf.json"
        self.write_table(path, 50, **layout)

        def refuse(text):
            raise AssertionError("the table file was decoded whole")

        monkeypatch.setattr(errors, "_loads", refuse)
        assert len(load_classifier(path).entries) == 50
