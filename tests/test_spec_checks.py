"""Partial specifications: per-sample checks, metamorphic relations,
well-formedness validation, and the JSON form."""
from __future__ import annotations

import importlib
import json

import pytest

from specguard.errors import EvalError, FormatError
from specguard.speccore.classifiers import ExpressionClassifier, TableClassifier
from specguard.speccore.records import FeatureRecord, Prediction, value_key
from specguard.speccore.spec import (
    MeanConstraint,
    PartialSpec,
    RangeConstraint,
    check_equivariant,
    check_invariant,
    check_necessary,
    check_post,
    check_pre,
    check_sufficient,
    load_spec,
    load_spec_lenient,
    spec_from_json_dict,
    spec_to_json_dict,
    static_errors,
    validate_spec,
)
from specguard.speccore.transforms import (
    LabelMap,
    Scale,
    ShiftGrid,
    Transformation,
)
from specguard.speclang.ast import Binary, Bool, Call, InputRef, Num, Str, Unary, to_source
from specguard.speclang.parser import parse
from specguard.speclang.schema import GridType, NumberType, Schema

SCHEMA = Schema(
    {"height": NumberType(), "img": GridType(2, 2)},
    ("pedestrian", "not_pedestrian"),
)


def make_spec(**overrides):
    base = dict(
        schema=SCHEMA,
        precondition=parse("input.height > 0"),
        postcondition=parse("output.confidence >= 0.1"),
        sufficient={"pedestrian": (parse("input.height > 6"),)},
        necessary={"pedestrian": (parse("input.height < 8"),)},
    )
    base.update(overrides)
    return PartialSpec(**base)


def rec(height, img=None, id=None):
    return FeatureRecord({"height": height, "img": img or [[0, 0], [0, 0]]}, id)


class TestPerSampleChecks:
    def test_precondition(self):
        spec = make_spec()
        assert check_pre(spec, rec(5.0).fields) is True
        assert check_pre(spec, rec(-1.0).fields) is False

    def test_precondition_eval_error_propagates(self):
        with pytest.raises(EvalError):
            check_pre(make_spec(), {"img": [[0, 0], [0, 0]]})

    def test_postcondition(self):
        spec = make_spec()
        assert check_post(spec, rec(5.0).fields, Prediction("pedestrian", 0.9)) is True
        assert check_post(spec, rec(5.0).fields, Prediction("pedestrian", 0.05)) is False

    def test_missing_postcondition_is_vacuously_true(self):
        spec = make_spec(postcondition=None)
        assert check_post(spec, rec(5.0).fields, Prediction("pedestrian", 0.0)) is True

    def test_sufficient_flags_only_unpredicted_labels(self):
        spec = make_spec()
        # height 7 satisfies pedestrian's sufficient condition
        assert check_sufficient(spec, rec(7.0).fields, Prediction("not_pedestrian")) == [
            ("pedestrian", 0)
        ]
        assert check_sufficient(spec, rec(7.0).fields, Prediction("pedestrian")) == []
        assert check_sufficient(spec, rec(5.0).fields, Prediction("not_pedestrian")) == []

    def test_necessary_applies_to_the_predicted_label_only(self):
        spec = make_spec()
        # height 9 violates pedestrian's necessary condition
        assert check_necessary(spec, rec(9.0).fields, Prediction("pedestrian")) == [
            ("pedestrian", 0)
        ]
        assert check_necessary(spec, rec(9.0).fields, Prediction("not_pedestrian")) == []
        assert check_necessary(spec, rec(7.0).fields, Prediction("pedestrian")) == []

    def test_multiple_conditions_report_every_index(self):
        spec = make_spec(
            necessary={
                "pedestrian": (parse("input.height < 8"), parse("input.height < 6")),
            }
        )
        assert check_necessary(spec, rec(9.0).fields, Prediction("pedestrian")) == [
            ("pedestrian", 0),
            ("pedestrian", 1),
        ]


class TestMetamorphicChecks:
    def test_invariant_holds_for_a_sum_based_classifier(self):
        clf = ExpressionClassifier(
            ((parse("sum(input.img) > 2"), "pedestrian", None),),
            default=Prediction("not_pedestrian"),
        )
        # scaling every cell by 1 never changes the sum
        t = Transformation("same", Scale("img", 1.0))
        result = check_invariant(clf, t, rec(5.0, [[1, 2], [0, 0]]), SCHEMA)
        assert result.holds
        assert result.lhs.label == result.rhs.label

    def test_invariant_violation_reports_both_labels(self):
        clf = ExpressionClassifier(
            ((parse("input.img[0][0] > 0"), "pedestrian", None),),
            default=Prediction("not_pedestrian"),
        )
        t = Transformation("shift", ShiftGrid("img", dx=1))
        result = check_invariant(clf, t, rec(5.0, [[1, 0], [0, 0]]), SCHEMA)
        assert not result.holds
        assert result.rhs.label == "pedestrian"
        assert result.lhs.label == "not_pedestrian"

    def test_invariant_compares_labels_not_confidences(self):
        key_a = value_key({"height": 2.0, "img": [[1, 1], [1, 1]]})
        key_b = value_key({"height": 4.0, "img": [[1, 1], [1, 1]]})
        clf = TableClassifier(
            {key_a: Prediction("pedestrian", 0.2), key_b: Prediction("pedestrian", 0.9)}
        )
        t = Transformation("x2", Scale("height", 2.0))
        result = check_invariant(clf, t, rec(2.0, [[1, 1], [1, 1]]), SCHEMA)
        assert result.holds

    def test_equivariant_with_label_swap(self):
        clf = ExpressionClassifier(
            ((parse("input.height > 5"), "pedestrian", None),),
            default=Prediction("not_pedestrian"),
        )
        swap = LabelMap((("pedestrian", "not_pedestrian"), ("not_pedestrian", "pedestrian")))
        # negating height flips the classifier's answer, matching the swap
        t = Transformation("flip", Scale("height", -1.0))
        result = check_equivariant(clf, (t, swap), rec(7.0), SCHEMA)
        assert result.holds


class TestValidateSpec:
    def test_clean_spec_and_samples(self):
        report = validate_spec(make_spec(), [rec(5.0, id="a"), rec(-2.0, id="b")])
        assert report.ok
        assert report.samples_checked == 2

    def test_conflict_between_two_labels(self):
        spec = make_spec(
            sufficient={
                "pedestrian": (parse("input.height > 6"),),
                "not_pedestrian": (parse("input.height > 5"),),
            }
        )
        report = validate_spec(spec, [rec(7.0, id="sample-7")])
        assert not report.ok
        assert report.conflicts == (
            {"record": "sample-7", "labels": ["not_pedestrian", "pedestrian"]},
        )

    def test_admits_no_output(self):
        spec = make_spec(
            sufficient={"pedestrian": (parse("input.height > 6"),)},
            necessary={"pedestrian": (parse("input.height < 7"),)},
        )
        report = validate_spec(spec, [rec(7.5, id="x")])
        assert report.admits_no_output == (
            {"record": "x", "label": "pedestrian", "necessary_index": 0},
        )

    def test_samples_failing_the_precondition_are_skipped(self):
        spec = make_spec(
            sufficient={
                "pedestrian": (parse("input.height > 6"),),
                "not_pedestrian": (parse("input.height > 5"),),
            }
        )
        assert validate_spec(spec, [rec(-7.0)]).ok  # pre fails, conflicts unreachable

    def test_eval_errors_are_collected_not_raised(self):
        report = validate_spec(make_spec(), [FeatureRecord({"img": [[0, 0], [0, 0]]}, "bad")])
        assert report.eval_errors and report.eval_errors[0]["record"] == "bad"
        assert not report.ok

    def test_unnamed_records_get_positional_refs(self):
        report = validate_spec(make_spec(), [FeatureRecord({"img": []})])
        assert report.eval_errors[0]["record"] == "#0"

    def test_static_errors_surface_in_the_report(self):
        spec = make_spec(sufficient={"ghost": (parse("input.height > 6"),)})
        report = validate_spec(spec)
        assert any("not in the alphabet" in e for e in report.static_errors)

    def test_to_json_dict_shape(self):
        data = validate_spec(make_spec(), [rec(5.0)]).to_json_dict()
        assert data["ok"] is True
        assert data["samples_checked"] == 1
        json.dumps(data)


class TestStaticErrors:
    def test_non_boolean_precondition(self):
        errors = static_errors(make_spec(precondition=parse("input.height + 1")))
        assert any("must be boolean" in e for e in errors)

    def test_output_refs_forbidden_outside_postcondition(self):
        errors = static_errors(
            make_spec(sufficient={"pedestrian": (parse('output.label == "pedestrian"'),)})
        )
        assert any("not allowed" in e for e in errors)

    def test_duplicate_transformation_names(self):
        t = Transformation("t", Scale("height", 2.0))
        errors = static_errors(make_spec(invariants=(t, t)))
        assert any("duplicate transformation name" in e for e in errors)

    def test_probabilistic_constraint_validation(self):
        spec = make_spec(
            probabilistic=(
                RangeConstraint("missing", 0, 1),
                RangeConstraint("height", 5, 1),
                RangeConstraint("height", 0, 1, max_violation_fraction=2.0),
                MeanConstraint("height", 5.0, -0.1),
            )
        )
        errors = static_errors(spec)
        assert any("unknown field" in e for e in errors)
        assert any("lo > hi" in e for e in errors)
        assert any("max_violation_fraction outside" in e for e in errors)
        assert any("tolerance < 0" in e for e in errors)

    def test_findings_text_and_order(self):
        spec = make_spec(
            precondition=parse("input.height + 1"),
            postcondition=parse("output.label == 3 && input.nope > 0"),
            sufficient={
                "pedestrian": (parse("max(input.height) > true"), parse("len(input.height) < 2")),
                "ghost": (parse("input.height > 6"),),
            },
            necessary={
                "pedestrian": (parse("output.confidence > 0.5"), parse("abs(input.img, 1) > 0"))
            },
        )
        assert static_errors(spec) == [
            "precondition: must be boolean, is number ('input.height + 1')",
            "postcondition: cannot compare string with number in 'output.label == 3'",
            "postcondition: unknown input field 'nope'",
            "sufficient['pedestrian'][0]: max() needs at least two arguments "
            "in 'max(input.height)'",
            "sufficient['pedestrian'][0]: operator '>' needs numbers, right side is boolean "
            "in 'max(input.height) > true'",
            "sufficient['pedestrian'][1]: len() takes a grid or string, got number "
            "in 'len(input.height)'",
            "sufficient label 'ghost' is not in the alphabet",
            "necessary['pedestrian'][0]: output.confidence is not allowed in an input-only "
            "expression",
            "necessary['pedestrian'][1]: abs() takes 1 argument(s), got 2 in 'abs(input.img, 1)'",
        ]

    @pytest.mark.parametrize(
        "condition,finding",
        [
            (Binary("%", Num(1.0), Str("a")), "unknown operator '%'"),
            (Binary("&&", Binary("%", Num(1.0), Num(2.0)), Num(3.0)), "unknown operator '%'"),
            (Binary("&&", Bool(True), 5), "not an expression node: 5"),
            (Unary("!", None), "not an expression node: None"),
            (Unary("~", Bool(False)), "unknown operator '~'"),
            (Binary(">", Call("abs", (Num(1.0), [1])), Num(0.0)), "not an expression node: [1]"),
            (Binary(">", Num("1"), Num(0.0)), "number literal holds '1'"),
            (Binary("==", Str(5), Str("a")), "string literal holds 5"),
            (Binary(">", Call("abs", None), Num(0.0)), "abs() arguments are not a sequence"),
            (Binary(">", InputRef("img", 0, None), Num(0.0)), "malformed field reference"),
            (Binary(">", InputRef("img", "0", 1), Num(0.0)), "malformed field reference"),
            (Binary(">", InputRef(["height"]), Num(0.0)), "malformed field reference"),
        ],
        ids=repr,
    )
    def test_a_malformed_python_built_tree_is_a_finding_not_an_exception(
        self, condition, finding
    ):
        for role in ("precondition", "postcondition"):
            errors = static_errors(make_spec(**{role: condition}))
            assert len(errors) == 1 and errors[0].startswith(f"{role}: {finding}")
        errors = static_errors(make_spec(necessary={"pedestrian": (condition,)}))
        assert errors[0].startswith(f"necessary['pedestrian'][0]: {finding}")

    def test_an_infinite_literal_renders_in_findings(self):
        errors = static_errors(make_spec(precondition=parse("1e999 + true")))
        assert errors == [
            "precondition: operator '+' needs numbers, right side is boolean in '1e999 + true'"
        ]
        assert parse("-1e999 < 1e999") == parse(to_source(parse("-1e999 < 1e999")))

    def test_each_expression_is_type_checked_in_one_pass(self, monkeypatch):
        # The module, not the function that speclang exports under its name.
        checker = importlib.import_module("specguard.speclang.typecheck")._Checker
        passes = []
        start = checker.__init__

        def counting(self, *args):
            passes.append(args)
            start(self, *args)

        monkeypatch.setattr(checker, "__init__", counting)
        static_errors(make_spec())  # precondition, postcondition, one sufficient, one necessary
        assert len(passes) == 4


SPEC_JSON = {
    "schema": {
        "fields": {
            "height": {"type": "number"},
            "img": {"type": "grid", "rows": 2, "cols": 2},
        },
        "labels": ["pedestrian", "not_pedestrian"],
    },
    "precondition": "input.height > 0",
    "postcondition": "output.confidence >= 0.1",
    "sufficient": {"pedestrian": ["input.height > 6"]},
    "necessary": {"pedestrian": ["input.height < 8"]},
    "invariants": [
        {"name": "nudge", "kind": "shift_grid", "field": "img", "dx": 1, "dy": 0, "fill": 0.0}
    ],
    "equivariants": [
        {
            "transform": {"name": "negate", "kind": "scale", "field": "height", "k": -1.0},
            "output": {
                "kind": "label_map",
                "map": {"pedestrian": "not_pedestrian", "not_pedestrian": "pedestrian"},
            },
        }
    ],
    "probabilistic": [
        {"field": "height", "kind": "range", "lo": 0.0, "hi": 10.0, "max_violation_fraction": 0.1}
    ],
}


class TestJsonForm:
    def test_round_trip(self):
        spec, findings = spec_from_json_dict(SPEC_JSON)
        assert findings == []
        assert spec_to_json_dict(spec) == SPEC_JSON

    def test_missing_keys_is_structural(self):
        with pytest.raises(FormatError, match="missing keys"):
            spec_from_json_dict({"schema": SPEC_JSON["schema"]})

    def test_postcondition_is_optional(self):
        data = {k: v for k, v in SPEC_JSON.items() if k != "postcondition"}
        spec, findings = spec_from_json_dict(data)
        assert findings == []
        assert spec.postcondition is None

    def test_syntax_problems_are_findings_not_exceptions(self):
        data = dict(SPEC_JSON, precondition="input.height >")
        spec, findings = spec_from_json_dict(data)
        assert spec is None
        assert any("precondition" in f and "syntax error" in f for f in findings)

    def test_type_problems_are_findings(self):
        data = dict(SPEC_JSON, sufficient={"pedestrian": ["input.height + 1"]})
        spec, findings = spec_from_json_dict(data)
        assert spec is None
        assert any("must be boolean" in f for f in findings)

    def test_unknown_label_is_a_finding(self):
        data = dict(SPEC_JSON, sufficient={"ghost": ["input.height > 6"]})
        spec, findings = spec_from_json_dict(data)
        assert spec is None
        assert any("not in the alphabet" in f for f in findings)

    def test_load_spec_strict_vs_lenient(self, tmp_path):
        good = tmp_path / "good.json"
        good.write_text(json.dumps(SPEC_JSON), encoding="utf-8")
        assert load_spec(good).schema == load_spec_lenient(good)[0].schema

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(SPEC_JSON, precondition="1 +")), encoding="utf-8")
        spec, findings = load_spec_lenient(bad)
        assert spec is None and findings
        with pytest.raises(FormatError, match="not well-formed"):
            load_spec(bad)

    def test_load_rejects_unparseable_files(self, tmp_path):
        path = tmp_path / "nope.json"
        path.write_text("{", encoding="utf-8")
        with pytest.raises(FormatError, match="not valid JSON"):
            load_spec(path)
        with pytest.raises(FormatError, match="cannot read"):
            load_spec(tmp_path / "missing.json")

    def test_unknown_probabilistic_kind_is_structural(self):
        data = dict(SPEC_JSON, probabilistic=[{"field": "height", "kind": "median"}])
        with pytest.raises(FormatError, match="unknown kind"):
            spec_from_json_dict(data)
