"""Table, expression, and subprocess classifiers, plus their JSON forms."""
from __future__ import annotations

import copy
import json
import sys
import textwrap

import pytest

from specguard.errors import ClassifierError, FormatError
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
