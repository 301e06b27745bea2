"""Process support: catalog scoring, the programming-vs-ML gate, the failure
diagnosis walk, and safety-case gap analysis."""
from __future__ import annotations

import dataclasses
import itertools
import json
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specguard.errors import CatalogError, CycleError, FormatError
from specguard.process.catalog import (
    CATEGORIES,
    Asil,
    ImpactCell,
    Method,
    MethodType,
    Recommendation,
    ScoringCondition,
    catalog_from_json,
    filter_catalog,
    impact_table,
    load_catalog,
    mean_and_std,
    method_from_json_dict,
    method_to_json_dict,
    packaged_catalog_path,
    render_impact_text,
    render_score,
    score,
)
from specguard.process.diagnosis import (
    CANONICAL_PLAN,
    FailureRecord,
    LifecyclePhase,
    diagnose,
    failure_from_json_dict,
)
from specguard.process.gate import (
    GateQuestionnaire,
    GateVerdict,
    gate_assess,
    load_questionnaire,
    questionnaire_from_json_dict,
)
from specguard.process.safetycase import (
    Edge,
    EdgeKind,
    EvidenceKind,
    GapKind,
    Node,
    NodeKind,
    RequirementKind,
    SafetyCaseGraph,
    graph_from_json_dict,
    load_graph,
    trace_check,
)
from safetycase_oracle import oracle_gaps


def method(id, symbols, spec=False, interp=False, method_type=MethodType.TESTING):
    recommendations = {
        asil: Recommendation.from_symbol(symbol)
        for asil, symbol in zip(Asil, symbols)
    }
    return Method(
        id=id,
        name=id,
        category="Unit testing",
        method_type=method_type,
        recommendations=recommendations,
        requires_specification=spec,
        requires_interpretability=interp,
    )


class TestScore:
    def test_weighted_fraction(self):
        catalog = [
            method("a", ("+", "+", "+", "+")),
            method("b", ("++", "++", "++", "++"), spec=True),
        ]
        assert score(catalog, ScoringCondition.NO_SPECIFICATION, Asil.A) == Fraction(1, 3)
        assert score(catalog, ScoringCondition.NO_INTERPRETABILITY, Asil.A) == Fraction(1)

    def test_zero_weight_methods_do_not_matter(self):
        catalog = [method("a", ("+", "+", "+", "+"))]
        padded = catalog + [method("z", ("o", "o", "o", "o"), spec=True)]
        for asil in Asil:
            assert score(catalog, ScoringCondition.NO_SPECIFICATION, asil) == score(
                padded, ScoringCondition.NO_SPECIFICATION, asil
            )

    def test_no_recommended_methods_raises(self):
        catalog = [method("a", ("+", "+", "+", "o"))]
        with pytest.raises(CatalogError, match="no recommended methods for ASIL D"):
            score(catalog, ScoringCondition.NO_SPECIFICATION, Asil.D)

    @given(
        st.lists(
            st.tuples(st.sampled_from([0, 1, 2]), st.booleans()),
            min_size=1,
            max_size=12,
        )
    )
    def test_matches_integer_oracle(self, rows):
        symbols = {0: "o", 1: "+", 2: "++"}
        catalog = [
            method(f"m{i}", (symbols[w],) * 4, spec=flag)
            for i, (w, flag) in enumerate(rows)
        ]
        total = sum(w for w, _ in rows)
        surviving = sum(w for w, flag in rows if not flag)
        if total == 0:
            with pytest.raises(CatalogError):
                score(catalog, ScoringCondition.NO_SPECIFICATION, Asil.B)
        else:
            value = score(catalog, ScoringCondition.NO_SPECIFICATION, Asil.B)
            assert value == Fraction(surviving, total)
            assert 0 <= value <= 1

    @given(
        st.lists(
            st.tuples(st.sampled_from([0, 1, 2]), st.booleans()),
            min_size=1,
            max_size=12,
        ),
        st.randoms(use_true_random=False),
    )
    def test_order_never_matters(self, rows, rng):
        symbols = {0: "o", 1: "+", 2: "++"}
        catalog = [
            method(f"m{i}", (symbols[w],) * 4, interp=flag)
            for i, (w, flag) in enumerate(rows)
        ]
        if sum(w for w, _ in rows) == 0:
            return
        shuffled = list(catalog)
        rng.shuffle(shuffled)
        condition = ScoringCondition.NO_INTERPRETABILITY
        assert score(shuffled, condition, Asil.C) == score(catalog, condition, Asil.C)

    @given(
        st.lists(
            st.tuples(st.sampled_from([0, 1, 2]), st.booleans()),
            min_size=1,
            max_size=12,
        ),
        st.data(),
    )
    def test_disabling_one_more_method_never_raises_the_score(self, rows, data):
        symbols = {0: "o", 1: "+", 2: "++"}
        if sum(w for w, _ in rows) == 0:
            return
        index = data.draw(st.integers(0, len(rows) - 1))
        before = [
            method(f"m{i}", (symbols[w],) * 4, spec=flag)
            for i, (w, flag) in enumerate(rows)
        ]
        after = [
            method(f"m{i}", (symbols[w],) * 4, spec=flag or i == index)
            for i, (w, flag) in enumerate(rows)
        ]
        condition = ScoringCondition.NO_SPECIFICATION
        for asil in Asil:
            assert score(after, condition, asil) <= score(before, condition, asil)


class TestRenderScore:
    @pytest.mark.parametrize(
        "value, digits, text",
        [
            (Fraction(2, 3), 12, "0.666666666667"),
            (Fraction(1, 3), 12, "0.333333333333"),
            (Fraction(73, 120), 12, "0.608333333333"),
            (Fraction(1), 12, "1.000000000000"),
            (Fraction(0), 12, "0.000000000000"),
            (Fraction(1, 2), 1, "0.5"),
            (Fraction(1, 8), 2, "0.13"),  # ties round up
            (Fraction(-1, 8), 2, "-0.13"),
            (Fraction(25, 2), 1, "12.5"),
        ],
    )
    def test_golden(self, value, digits, text):
        assert render_score(value, digits) == text

    def test_digits_must_be_positive(self):
        with pytest.raises(ValueError):
            render_score(Fraction(1), 0)


class TestMeanAndStd:
    def test_population_std(self):
        mean, std = mean_and_std([Fraction(1, 2), Fraction(1, 2)])
        assert mean == Fraction(1, 2)
        assert std == 0.0

    def test_empty_rejected(self):
        with pytest.raises(CatalogError, match="empty"):
            mean_and_std([])


@pytest.fixture(scope="module")
def error_handling_catalog():
    return load_catalog(packaged_catalog_path("error-handling"))


@pytest.fixture(scope="module")
def full_catalog():
    return load_catalog(packaged_catalog_path("full"))


class TestErrorHandlingCatalog:
    @pytest.fixture
    def catalog(self, error_handling_catalog):
        return error_handling_catalog

    def test_table_contents(self, catalog):
        assert [m.id for m in catalog] == ["1a", "1b", "1c", "1d"]
        by_id = {m.id: m for m in catalog}
        assert [m for m in catalog if m.requires_specification] == [
            by_id["1c"],
            by_id["1d"],
        ]
        assert not any(m.requires_interpretability for m in catalog)
        assert all(m.method_type is MethodType.FAULT_TOLERANCE for m in catalog)
        symbols = {
            m.id: tuple(m.recommendations[a].value for a in Asil) for m in catalog
        }
        assert symbols == {
            "1a": ("+", "+", "+", "+"),
            "1b": ("+", "+", "++", "++"),
            "1c": ("o", "o", "+", "++"),
            "1d": ("+", "+", "+", "+"),
        }

    def test_no_spec_scores(self, catalog):
        condition = ScoringCondition.NO_SPECIFICATION
        expected = {
            Asil.A: Fraction(2, 3),
            Asil.B: Fraction(2, 3),
            Asil.C: Fraction(3, 5),
            Asil.D: Fraction(1, 2),
        }
        assert {a: score(catalog, condition, a) for a in Asil} == expected
        mean, std = mean_and_std(list(expected.values()))
        assert mean == Fraction(73, 120)
        assert std == pytest.approx(0.06821127309893708, abs=1e-15)

    def test_no_interp_leaves_everything(self, catalog):
        for asil in Asil:
            assert score(catalog, ScoringCondition.NO_INTERPRETABILITY, asil) == 1


class TestFullCatalog:
    @pytest.fixture
    def catalog(self, full_catalog):
        return full_catalog

    def test_shape(self, catalog):
        assert len(catalog) == 83
        assert {m.category for m in catalog} == set(CATEGORIES)
        counts = {}
        for m in catalog:
            counts[m.method_type] = counts.get(m.method_type, 0) + 1
        assert counts == {
            MethodType.BEST_PRACTICE: 32,
            MethodType.FAULT_TOLERANCE: 10,
            MethodType.VERIFICATION: 15,
            MethodType.TESTING: 26,
        }

    def test_verification_scores(self, catalog):
        subset = filter_catalog(catalog, MethodType.VERIFICATION)
        totals = {
            a: sum(m.recommendations[a].weight for m in subset) for a in Asil
        }
        assert totals == {Asil.A: 14, Asil.B: 22, Asil.C: 21, Asil.D: 25}
        no_spec = {a: score(subset, ScoringCondition.NO_SPECIFICATION, a) for a in Asil}
        assert no_spec == {
            Asil.A: Fraction(8, 14),
            Asil.B: Fraction(11, 22),
            Asil.C: Fraction(10, 21),
            Asil.D: Fraction(11, 25),
        }
        no_interp = {
            a: score(subset, ScoringCondition.NO_INTERPRETABILITY, a) for a in Asil
        }
        assert no_interp == {
            Asil.A: Fraction(3, 14),
            Asil.B: Fraction(5, 22),
            Asil.C: Fraction(6, 21),
            Asil.D: Fraction(8, 25),
        }

    def test_testing_scores(self, catalog):
        subset = filter_catalog(catalog, MethodType.TESTING)
        totals = {
            a: sum(m.recommendations[a].weight for m in subset) for a in Asil
        }
        assert totals == {Asil.A: 33, Asil.B: 38, Asil.C: 43, Asil.D: 48}
        no_spec = {a: score(subset, ScoringCondition.NO_SPECIFICATION, a) for a in Asil}
        assert no_spec == {
            Asil.A: Fraction(16, 33),
            Asil.B: Fraction(19, 38),
            Asil.C: Fraction(23, 43),
            Asil.D: Fraction(27, 48),
        }
        no_interp = {
            a: score(subset, ScoringCondition.NO_INTERPRETABILITY, a) for a in Asil
        }
        assert no_interp == {
            Asil.A: Fraction(32, 33),
            Asil.B: Fraction(37, 38),
            Asil.C: Fraction(42, 43),
            Asil.D: Fraction(46, 48),
        }

    def test_impact_table_two_decimal_means(self, catalog):
        cells = impact_table(catalog)
        layout = [
            (c.condition.value, c.method_type.value, f"{float(c.mean):.2f}")
            for c in cells
        ]
        assert layout == [
            ("no-spec", "VERIFICATION", "0.50"),
            ("no-spec", "TESTING", "0.52"),
            ("no-interp", "VERIFICATION", "0.26"),
            ("no-interp", "TESTING", "0.97"),
        ]

    def test_impact_cell_json(self, catalog):
        cell = impact_table(catalog)[0]
        data = cell.to_json_dict()
        assert data["condition"] == "no-spec"
        assert data["method_type"] == "VERIFICATION"
        assert set(data["scores"]) == {"A", "B", "C", "D"}
        assert data["mean_2dp"] == "0.50"
        json.dumps(data)

    def test_render_impact_text(self, catalog):
        text = render_impact_text(impact_table(catalog))
        lines = text.splitlines()
        assert "condition" in lines[0]
        assert len(lines) == 6
        assert "0.50" in lines[2] and "0.97" in lines[5]

    def test_impact_table_needs_every_requested_type(self, catalog):
        subset = filter_catalog(catalog, MethodType.VERIFICATION)
        with pytest.raises(CatalogError, match="no methods of type TESTING"):
            impact_table(subset)

    def test_filter_by_category(self, catalog):
        unit_tests = filter_catalog(catalog, category="Unit testing")
        assert unit_tests
        assert all(m.category == "Unit testing" for m in unit_tests)

    def test_json_round_trip(self, catalog):
        for m in catalog:
            assert method_from_json_dict(method_to_json_dict(m)) == m


class TestCatalogFormat:
    def test_missing_key(self):
        with pytest.raises(FormatError, match="lacks 'recommendations'"):
            method_from_json_dict(
                {"id": "x", "name": "x", "category": "c", "method_type": "TESTING"}
            )

    def test_unknown_method_type(self):
        with pytest.raises(FormatError, match="unknown method_type"):
            method_from_json_dict(
                {
                    "id": "x",
                    "name": "x",
                    "category": "c",
                    "method_type": "MAGIC",
                    "recommendations": {"A": "+", "B": "+", "C": "+", "D": "+"},
                }
            )

    def test_missing_asil(self):
        with pytest.raises(FormatError, match="no recommendation for ASIL D"):
            method_from_json_dict(
                {
                    "id": "x",
                    "name": "x",
                    "category": "c",
                    "method_type": "TESTING",
                    "recommendations": {"A": "+", "B": "+", "C": "+"},
                }
            )

    def test_unknown_symbol(self):
        with pytest.raises(FormatError, match="unknown recommendation symbol"):
            Recommendation.from_symbol("+++")

    def test_duplicate_ids(self):
        entry = method_to_json_dict(method("dup", ("+", "+", "+", "+")))
        with pytest.raises(FormatError, match="duplicate method ids: dup"):
            catalog_from_json([entry, entry])

    def test_unknown_packaged_name(self):
        with pytest.raises(FormatError, match="unknown packaged catalog"):
            packaged_catalog_path("imaginary")

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "catalog.json"
        path.write_text("{nope", encoding="utf-8")
        with pytest.raises(FormatError, match="not valid JSON"):
            load_catalog(path)


class TestGate:
    @pytest.mark.parametrize(
        "answers", list(itertools.product([True, False], repeat=4))
    )
    def test_all_sixteen_combinations(self, answers):
        specifiable, strengthenable, acceptable, splittable = answers
        decision = gate_assess(
            GateQuestionnaire(specifiable, strengthenable, acceptable, splittable)
        )
        if specifiable:
            expected = GateVerdict.USE_PROGRAMMING
        elif strengthenable and acceptable:
            expected = GateVerdict.STRENGTHEN_REQUIREMENT
        elif splittable:
            expected = GateVerdict.SPLIT_COMPONENT
        else:
            expected = GateVerdict.USE_ML_WITH_MEASURES
        assert decision.verdict is expected
        assert decision.rationale

    def test_unanswered_question_rejected(self):
        with pytest.raises(FormatError, match="unanswered gate question"):
            gate_assess(GateQuestionnaire(True, None, False, False))

    def test_unknown_rationale_key_rejected(self):
        questionnaire = GateQuestionnaire(
            True, False, False, False, rationales={"typo": "oops"}
        )
        with pytest.raises(FormatError, match="unknown question"):
            gate_assess(questionnaire)

    def test_rationales_are_quoted_in_the_decision(self):
        decision = gate_assess(
            GateQuestionnaire(
                False,
                False,
                False,
                True,
                rationales={"splittable": "projection is classical geometry"},
            )
        )
        assert "splittable: projection is classical geometry" in decision.rationale

    def test_json_shape(self):
        decision = gate_assess(GateQuestionnaire(False, False, False, False))
        data = decision.to_json_dict()
        assert data["verdict"] == "USE_ML_WITH_MEASURES"
        assert data["answers"] == {
            "completely_specifiable": False,
            "strengthenable": False,
            "strengthened_functionality_acceptable": False,
            "splittable": False,
        }

    def test_questionnaire_validation(self):
        with pytest.raises(FormatError, match="unknown questionnaire key"):
            questionnaire_from_json_dict({"splitable": True})
        with pytest.raises(FormatError, match="must be true or false"):
            questionnaire_from_json_dict({"splittable": "yes"})
        with pytest.raises(FormatError, match="map question names to strings"):
            questionnaire_from_json_dict({"rationales": {"splittable": 3}})

    def test_load_questionnaire(self, tmp_path):
        path = tmp_path / "gate.json"
        path.write_text(
            json.dumps(
                {
                    "completely_specifiable": False,
                    "strengthenable": True,
                    "strengthened_functionality_acceptable": True,
                    "splittable": False,
                }
            ),
            encoding="utf-8",
        )
        decision = gate_assess(load_questionnaire(path))
        assert decision.verdict is GateVerdict.STRENGTHEN_REQUIREMENT


class TestDiagnosis:
    def test_canonical_plan_shape(self):
        assert len(CANONICAL_PLAN) == 13
        ids = [g.requirement_ids for g in CANONICAL_PLAN]
        assert ids == [
            ("MLIN1",),
            ("6.4.1ML",),
            ("6.4.1ML", "8.4.3", "9.4.4"),
            ("7.4.14", "7.4.15"),
            ("MLDS1", "MLDS2", "MLDS3"),
            ("MLMS1", "MLMS2"),
            ("MLFS1",),
            ("MLTR1", "MLTR2"),
            ("MLVT1",),
            ("MLVT2",),
            ("9.4.6",),
            ("MLTE1",),
            ("8.4.5",),
        ]

    def test_phases_run_initiation_to_verification(self):
        phases = [g.phase for g in CANONICAL_PLAN]
        counts = {p: phases.count(p) for p in LifecyclePhase}
        assert counts == {
            LifecyclePhase.INITIATION: 1,
            LifecyclePhase.REQUIREMENTS: 2,
            LifecyclePhase.ARCHITECTURE: 1,
            LifecyclePhase.UNIT_DESIGN: 6,
            LifecyclePhase.TESTING: 2,
            LifecyclePhase.VERIFICATION: 1,
        }
        order = [p.value for p in phases]
        boundary = [
            "initiation",
            "requirements",
            "architecture",
            "unit_design",
            "testing",
            "verification",
        ]
        assert sorted(order, key=boundary.index) == order

    def test_every_group_has_questions(self):
        assert all(g.questions and g.topic for g in CANONICAL_PLAN)

    def test_no_hint_gives_canonical_order(self):
        plan = diagnose(FailureRecord("late braking"))
        assert plan.groups == CANONICAL_PLAN

    def test_hint_promotes_without_reordering(self):
        plan = diagnose(FailureRecord("late braking", phase_hint="unit_design"))
        promoted = [g for g in CANONICAL_PLAN if g.phase is LifecyclePhase.UNIT_DESIGN]
        rest = [g for g in CANONICAL_PLAN if g.phase is not LifecyclePhase.UNIT_DESIGN]
        assert list(plan.groups) == promoted + rest

    def test_hint_is_case_insensitive(self):
        plan = diagnose(FailureRecord("x", phase_hint="TESTING"))
        assert plan.groups[0].requirement_ids == ("9.4.6",)
        assert plan.groups[1].requirement_ids == ("MLTE1",)

    def test_unknown_hint_lists_valid_phases(self):
        with pytest.raises(FormatError, match="valid phases: initiation, requirements"):
            diagnose(FailureRecord("x", phase_hint="deployment"))

    def test_plan_json_shape(self):
        plan = diagnose(
            FailureRecord("x", phase_hint="testing", failing_record_ids=("r1",))
        )
        data = plan.to_json_dict()
        assert data["failure"]["failing_record_ids"] == ["r1"]
        assert len(data["groups"]) == 13
        json.dumps(data)

    def test_failure_record_validation(self):
        with pytest.raises(FormatError, match="non-empty 'description'"):
            failure_from_json_dict({"description": ""})
        with pytest.raises(FormatError, match="list of strings"):
            failure_from_json_dict({"description": "x", "failing_record_ids": [1]})
        with pytest.raises(FormatError, match="unknown failure record key"):
            failure_from_json_dict({"description": "x", "severity": "high"})


def nodes_and_edges(tmp_path=None):
    artifact = None
    if tmp_path is not None:
        artifact_file = tmp_path / "monitor_report.json"
        artifact_file.write_text("{}", encoding="utf-8")
        artifact = artifact_file.name
    nodes = [
        Node("H1", NodeKind.HAZARD, "collision with pedestrian"),
        Node("G1", NodeKind.SAFETY_GOAL, "brake for pedestrians", asil="C"),
        Node("R1", NodeKind.REQUIREMENT, "detect pedestrians", asil="C"),
        Node(
            "E1",
            NodeKind.EVIDENCE,
            "monitor run",
            evidence_kind=EvidenceKind.MONITOR_REPORT,
            artifact=artifact,
        ),
    ]
    edges = [
        Edge(EdgeKind.MITIGATES, "G1", "H1"),
        Edge(EdgeKind.REFINES, "R1", "G1"),
        Edge(EdgeKind.SUPPORTS, "E1", "R1"),
    ]
    return nodes, edges


class TestSafetyCase:
    def test_complete_chain_has_no_gaps(self, tmp_path):
        nodes, edges = nodes_and_edges(tmp_path)
        graph = SafetyCaseGraph(tuple(nodes), tuple(edges), base_dir=tmp_path)
        report = trace_check(graph)
        assert report.ok
        assert report.to_json_dict() == {"ok": True, "gaps": []}

    def test_unmitigated_hazard(self):
        graph = SafetyCaseGraph((Node("H1", NodeKind.HAZARD),), ())
        gaps = trace_check(graph).gaps
        assert [(g.kind, g.node_id) for g in gaps] == [(GapKind.UNMITIGATED_HAZARD, "H1")]

    def test_goal_without_requirement(self):
        nodes = (
            Node("H1", NodeKind.HAZARD),
            Node("G1", NodeKind.SAFETY_GOAL, asil="B"),
        )
        edges = (Edge(EdgeKind.MITIGATES, "G1", "H1"),)
        gaps = trace_check(SafetyCaseGraph(nodes, edges)).gaps
        assert [(g.kind, g.node_id) for g in gaps] == [(GapKind.MISSING_REQUIREMENT, "G1")]

    def test_requirement_without_evidence(self, tmp_path):
        nodes, edges = nodes_and_edges(tmp_path)
        graph = SafetyCaseGraph(tuple(nodes[:3]), tuple(edges[:2]))
        gaps = trace_check(graph).gaps
        assert [(g.kind, g.node_id) for g in gaps] == [(GapKind.MISSING_EVIDENCE, "R1")]

    def test_missing_artifact_file(self, tmp_path):
        nodes, edges = nodes_and_edges(tmp_path)
        nodes[3] = Node(
            "E1",
            NodeKind.EVIDENCE,
            evidence_kind=EvidenceKind.MONITOR_REPORT,
            artifact="vanished.json",
        )
        graph = SafetyCaseGraph(tuple(nodes), tuple(edges), base_dir=tmp_path)
        gaps = trace_check(graph).gaps
        assert [(g.kind, g.node_id) for g in gaps] == [(GapKind.MISSING_ARTIFACT, "E1")]
        assert str(tmp_path / "vanished.json") in gaps[0].detail

    def test_asil_mismatch(self, tmp_path):
        nodes, edges = nodes_and_edges(tmp_path)
        nodes[2] = Node("R1", NodeKind.REQUIREMENT, asil="A")
        graph = SafetyCaseGraph(tuple(nodes), tuple(edges), base_dir=tmp_path)
        gaps = trace_check(graph).gaps
        assert [(g.kind, g.node_id) for g in gaps] == [(GapKind.ASIL_MISMATCH, "R1")]
        assert "inherited" in gaps[0].detail

    def test_refining_requirement_discharges_the_parent(self, tmp_path):
        nodes, edges = nodes_and_edges(tmp_path)
        nodes.append(Node("R2", NodeKind.REQUIREMENT, "classify pedestrians", asil="C"))
        edges = [
            Edge(EdgeKind.MITIGATES, "G1", "H1"),
            Edge(EdgeKind.REFINES, "R1", "G1"),
            Edge(EdgeKind.REFINES, "R2", "R1"),
            Edge(EdgeKind.SUPPORTS, "E1", "R2"),
        ]
        graph = SafetyCaseGraph(tuple(nodes), tuple(edges), base_dir=tmp_path)
        assert trace_check(graph).ok

    def test_asil_inheritance_follows_the_refinement_chain(self, tmp_path):
        nodes, edges = nodes_and_edges(tmp_path)
        nodes.append(Node("R2", NodeKind.REQUIREMENT, asil="D"))
        edges = [
            Edge(EdgeKind.MITIGATES, "G1", "H1"),
            Edge(EdgeKind.REFINES, "R1", "G1"),
            Edge(EdgeKind.REFINES, "R2", "R1"),
            Edge(EdgeKind.SUPPORTS, "E1", "R2"),
        ]
        graph = SafetyCaseGraph(tuple(nodes), tuple(edges), base_dir=tmp_path)
        gaps = trace_check(graph).gaps
        assert [(g.kind, g.node_id) for g in gaps] == [(GapKind.ASIL_MISMATCH, "R2")]
        assert "'G1'" in gaps[0].detail

    def test_gaps_sort_by_kind_then_node(self):
        nodes = (
            Node("H2", NodeKind.HAZARD),
            Node("H1", NodeKind.HAZARD),
            Node("G1", NodeKind.SAFETY_GOAL),
        )
        edges = (Edge(EdgeKind.MITIGATES, "G1", "H1"),)
        gaps = trace_check(SafetyCaseGraph(nodes, edges)).gaps
        assert [(g.kind, g.node_id) for g in gaps] == [
            (GapKind.MISSING_REQUIREMENT, "G1"),
            (GapKind.UNMITIGATED_HAZARD, "H2"),
        ]

    def test_report_is_insertion_order_invariant(self, tmp_path):
        nodes, edges = nodes_and_edges(tmp_path)
        nodes[2] = Node("R1", NodeKind.REQUIREMENT, asil="A")
        forward = trace_check(SafetyCaseGraph(tuple(nodes), tuple(edges), tmp_path))
        backward = trace_check(
            SafetyCaseGraph(tuple(reversed(nodes)), tuple(reversed(edges)), tmp_path)
        )
        assert forward.to_json_dict() == backward.to_json_dict()

    def test_refinement_cycle_is_an_error(self):
        nodes = (
            Node("R1", NodeKind.REQUIREMENT),
            Node("R2", NodeKind.REQUIREMENT),
        )
        edges = (
            Edge(EdgeKind.REFINES, "R1", "R2"),
            Edge(EdgeKind.REFINES, "R2", "R1"),
        )
        with pytest.raises(CycleError) as exc_info:
            trace_check(SafetyCaseGraph(nodes, edges))
        cycle = exc_info.value.cycle
        assert cycle[0] == cycle[-1]
        assert set(cycle) == {"R1", "R2"}

    def test_edge_typing_is_enforced(self):
        nodes = (
            Node("H1", NodeKind.HAZARD),
            Node(
                "E1",
                NodeKind.EVIDENCE,
                evidence_kind=EvidenceKind.DOCUMENT,
            ),
        )
        with pytest.raises(FormatError, match="not allowed"):
            SafetyCaseGraph(nodes, (Edge(EdgeKind.MITIGATES, "E1", "H1"),))

    def test_node_validation(self):
        with pytest.raises(FormatError, match="ASIL must be A, B, C or D"):
            Node("G1", NodeKind.SAFETY_GOAL, asil="E")
        with pytest.raises(FormatError, match="needs an evidence kind"):
            Node("E1", NodeKind.EVIDENCE)
        with pytest.raises(FormatError, match="only evidence nodes carry artifacts"):
            Node("R1", NodeKind.REQUIREMENT, artifact="x.json")

    def test_graph_validation(self):
        with pytest.raises(FormatError, match="duplicate node id"):
            SafetyCaseGraph(
                (Node("H1", NodeKind.HAZARD), Node("H1", NodeKind.HAZARD)), ()
            )
        with pytest.raises(FormatError, match="unknown node 'ghost'"):
            SafetyCaseGraph(
                (Node("H1", NodeKind.HAZARD), Node("G1", NodeKind.SAFETY_GOAL)),
                (Edge(EdgeKind.MITIGATES, "G1", "ghost"),),
            )
        with pytest.raises(FormatError, match="non-empty 'nodes'"):
            graph_from_json_dict({"nodes": []})

    def test_load_graph_resolves_artifacts_beside_the_file(self, tmp_path):
        (tmp_path / "coverage.json").write_text("{}", encoding="utf-8")
        graph_file = tmp_path / "case.json"
        graph_file.write_text(
            json.dumps(
                {
                    "nodes": [
                        {"id": "H1", "kind": "HAZARD"},
                        {"id": "G1", "kind": "SAFETY_GOAL", "asil": "B"},
                        {"id": "R1", "kind": "REQUIREMENT", "asil": "B"},
                        {
                            "id": "E1",
                            "kind": "EVIDENCE",
                            "evidence_kind": "coverage-report",
                            "artifact": "coverage.json",
                        },
                    ],
                    "edges": [
                        {"kind": "mitigates", "source": "G1", "target": "H1"},
                        {"kind": "refines", "source": "R1", "target": "G1"},
                        {"kind": "supports", "source": "E1", "target": "R1"},
                    ],
                }
            ),
            encoding="utf-8",
        )
        graph = load_graph(graph_file)
        assert trace_check(graph).ok


def asil_graph(requirement_asil, goal_asils, reversed_edges=False):
    """One requirement refining one goal per entry of goal_asils, with the
    goal ids in that order (G1, G2, ...)."""
    goals = [
        Node(f"G{i}", NodeKind.SAFETY_GOAL, asil=asil)
        for i, asil in enumerate(goal_asils, start=1)
    ]
    nodes = (Node("R1", NodeKind.REQUIREMENT, asil=requirement_asil), *goals)
    edges = [Edge(EdgeKind.REFINES, "R1", goal.id) for goal in goals]
    if reversed_edges:
        edges.reverse()
    return SafetyCaseGraph(nodes, tuple(edges))


def asil_gaps(graph):
    return [
        (g.node_id, g.detail)
        for g in trace_check(graph).gaps
        if g.kind is GapKind.ASIL_MISMATCH
    ]


class TestSafetyCaseAsilRule:
    @pytest.mark.parametrize("reversed_edges", [False, True])
    def test_highest_goal_asil_is_inherited(self, reversed_edges):
        graph = asil_graph("A", ["D", "A"], reversed_edges)
        assert asil_gaps(graph) == [
            ("R1", "requirement ASIL A differs from goal 'G1' ASIL D (ASIL is inherited)")
        ]

    @pytest.mark.parametrize("reversed_edges", [False, True])
    def test_inherited_asil_reaches_through_derived_requirements(self, reversed_edges):
        nodes = (
            Node("G1", NodeKind.SAFETY_GOAL, asil="A"),
            Node("G2", NodeKind.SAFETY_GOAL, asil="C"),
            Node("R1", NodeKind.REQUIREMENT, asil="A"),
            Node("R2", NodeKind.REQUIREMENT, asil="C"),
            Node("R3", NodeKind.REQUIREMENT, asil="C"),
        )
        edges = [
            Edge(EdgeKind.REFINES, "R1", "G1"),
            Edge(EdgeKind.REFINES, "R2", "G2"),
            Edge(EdgeKind.REFINES, "R3", "R1"),
            Edge(EdgeKind.REFINES, "R3", "R2"),
        ]
        if reversed_edges:
            edges.reverse()
        assert asil_gaps(SafetyCaseGraph(nodes, tuple(edges))) == []

    def test_equal_goal_asils_give_no_gap(self):
        assert asil_gaps(asil_graph("B", ["B", "B"])) == []

    @pytest.mark.parametrize("reversed_edges", [False, True])
    def test_ties_name_the_smallest_goal_id(self, reversed_edges):
        graph = asil_graph("A", ["C", "B", "C"], reversed_edges)
        assert asil_gaps(graph) == [
            ("R1", "requirement ASIL A differs from goal 'G1' ASIL C (ASIL is inherited)")
        ]

    def test_goal_without_asil_is_ignored(self):
        assert asil_gaps(asil_graph("A", [None, "A"])) == []
        assert asil_gaps(asil_graph("A", [None])) == []
        assert asil_gaps(asil_graph("A", ["B", None])) == [
            ("R1", "requirement ASIL A differs from goal 'G1' ASIL B (ASIL is inherited)")
        ]

    def test_requirement_without_asil_has_no_gap(self):
        assert asil_gaps(asil_graph(None, ["D", "A"])) == []

    def test_long_chain_is_checked_without_recursion(self, monkeypatch):
        length = 5000
        ids = [f"R{i:04d}" for i in range(length)]
        mismatched = set(ids[::997])
        nodes = [
            Node("H1", NodeKind.HAZARD),
            Node("G1", NodeKind.SAFETY_GOAL, asil="B"),
            *(
                Node(rid, NodeKind.REQUIREMENT, asil="D" if rid in mismatched else "B")
                for rid in ids
            ),
        ]
        edges = [Edge(EdgeKind.MITIGATES, "G1", "H1"), Edge(EdgeKind.REFINES, ids[0], "G1")]
        edges += [Edge(EdgeKind.REFINES, child, parent) for parent, child in zip(ids, ids[1:])]
        graph = SafetyCaseGraph(tuple(nodes), tuple(edges))
        calls = 0
        lookup = SafetyCaseGraph.node

        def counted(self, node_id):
            nonlocal calls
            calls += 1
            return lookup(self, node_id)

        monkeypatch.setattr(SafetyCaseGraph, "node", counted)
        gaps = trace_check(graph).gaps
        assert [(g.kind, g.node_id) for g in gaps] == [
            *((GapKind.ASIL_MISMATCH, rid) for rid in sorted(mismatched)),
            (GapKind.MISSING_EVIDENCE, ids[-1]),
        ]
        assert gaps[0].detail == (
            "requirement ASIL D differs from goal 'G1' ASIL B (ASIL is inherited)"
        )
        assert calls <= len(edges)

    def test_node_lookup_keeps_key_error(self):
        graph = SafetyCaseGraph((Node("H1", NodeKind.HAZARD),), ())
        assert graph.node("H1") == Node("H1", NodeKind.HAZARD)
        with pytest.raises(KeyError):
            graph.node("H2")


_ASILS = st.sampled_from([None, "A", "B", "C", "D"])


@pytest.fixture(scope="module")
def artifact_dir(tmp_path_factory):
    """A base directory holding present.json and sub/present.json."""
    base = tmp_path_factory.mktemp("artifacts")
    (base / "sub").mkdir()
    for rel in ("present.json", "sub/present.json"):
        (base / rel).write_text("{}", encoding="utf-8")
    return base


@st.composite
def acyclic_graphs(draw, base_dir):
    """Hazards, goals, requirement DAGs (a requirement may refine several
    goals and earlier requirements; ids are a random permutation, so id
    order and refinement order differ) and evidence with present, missing
    and absent artifacts."""
    artifacts = st.sampled_from(
        [
            None,
            "present.json",
            "./present.json",
            "sub/present.json",
            "gone.json",
            "sub//gone.json",
            str(base_dir / "present.json"),
            str(base_dir / "absent.json"),
        ]
    )
    hazards = [Node(f"H{i}", NodeKind.HAZARD) for i in range(draw(st.integers(0, 3)))]
    goals = [
        Node(f"G{i}", NodeKind.SAFETY_GOAL, asil=draw(_ASILS))
        for i in range(draw(st.integers(0, 4)))
    ]
    names = draw(st.permutations(range(draw(st.integers(0, 8)))))
    requirements = [Node(f"R{n}", NodeKind.REQUIREMENT, asil=draw(_ASILS)) for n in names]
    evidence = [
        Node(f"E{i}", NodeKind.EVIDENCE, evidence_kind=EvidenceKind.DOCUMENT,
             artifact=draw(artifacts))
        for i in range(draw(st.integers(0, 5)))
    ]

    def some(candidates, max_size):
        if not candidates:
            return []
        return draw(st.lists(st.sampled_from(candidates), max_size=max_size))

    edges = [
        Edge(EdgeKind.MITIGATES, goal.id, hazard.id)
        for goal in goals
        for hazard in some(hazards, 2)
    ]
    for i, requirement in enumerate(requirements):
        edges += [
            Edge(EdgeKind.REFINES, requirement.id, parent.id)
            for parent in some(goals + requirements[:i], 3)
        ]
    edges += [
        Edge(EdgeKind.SUPPORTS, item.id, requirement.id)
        for item in evidence
        for requirement in some(requirements, 2)
    ]
    return SafetyCaseGraph(
        tuple(hazards + goals + requirements + evidence), tuple(edges), base_dir
    )


class TestSafetyCaseProperties:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_report_does_not_depend_on_node_or_edge_order(self, artifact_dir, data):
        graph = data.draw(acyclic_graphs(artifact_dir))
        nodes = data.draw(st.permutations(graph.nodes))
        edges = data.draw(st.permutations(graph.edges))
        shuffled = SafetyCaseGraph(tuple(nodes), tuple(edges), graph.base_dir)
        assert trace_check(shuffled).to_json_dict() == trace_check(graph).to_json_dict()

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_gaps_match_the_brute_force_oracle(self, artifact_dir, data):
        graph = data.draw(acyclic_graphs(artifact_dir))
        assert trace_check(graph).gaps == oracle_gaps(graph)


def constructed_graph(data):
    """The graph the constructors build from valid graph JSON, with each
    kind decoded by Enum(value) and the loader's error texts for a kind
    that has none."""

    def member(kinds, value, error):
        try:
            return kinds(value)
        except ValueError:
            raise FormatError(error) from None

    nodes = []
    for node in data["nodes"]:
        where = f"node {node['id']!r}"
        kind = member(
            NodeKind,
            node["kind"],
            f"{where}: unknown kind {node['kind']!r} "
            "(use HAZARD, SAFETY_GOAL, REQUIREMENT, EVIDENCE)",
        )
        optional = {}
        for field, kinds, valid in (
            ("requirement_kind", RequirementKind, "behavioural-spec, data-requirements, other"),
            (
                "evidence_kind",
                EvidenceKind,
                "monitor-report, coverage-report, simulation-report, document",
            ),
        ):
            if node.get(field) is not None:
                name = field.replace("_", " ")
                optional[field] = member(
                    kinds, node[field], f"{where}: unknown {name} (use {valid})"
                )
        nodes.append(
            Node(
                id=node["id"],
                kind=kind,
                text=node.get("text", ""),
                asil=node.get("asil"),
                requirement_ref=node.get("requirement_ref"),
                artifact=node.get("artifact"),
                **optional,
            )
        )
    edges = [
        Edge(
            member(
                EdgeKind,
                edge["kind"],
                f"unknown edge kind {edge['kind']!r} (use mitigates, refines, supports)",
            ),
            edge["source"],
            edge["target"],
        )
        for edge in data["edges"]
    ]
    return SafetyCaseGraph(tuple(nodes), tuple(edges))


_BAD_KINDS = st.one_of(
    st.text(max_size=4),
    st.integers(-2, 2),
    st.lists(st.integers(0, 1), max_size=2),
    st.dictionaries(st.sampled_from(["kind", "HAZARD"]), st.integers(0, 1), max_size=1),
    st.sampled_from([*NodeKind, *RequirementKind, *EvidenceKind, *EdgeKind, None, True]),
)


@st.composite
def kinds_of(draw, kinds, clean):
    """A kind's value or the member itself; a bad kind a quarter of the
    time unless clean."""
    if not clean and draw(st.integers(0, 3)) == 0:
        return draw(_BAD_KINDS)
    return draw(st.sampled_from([*(k.value for k in kinds), *kinds]))


_ALLOWED_EDGES = [
    (EdgeKind.MITIGATES, NodeKind.SAFETY_GOAL, NodeKind.HAZARD),
    (EdgeKind.REFINES, NodeKind.REQUIREMENT, NodeKind.SAFETY_GOAL),
    (EdgeKind.REFINES, NodeKind.REQUIREMENT, NodeKind.REQUIREMENT),
    (EdgeKind.SUPPORTS, NodeKind.EVIDENCE, NodeKind.REQUIREMENT),
]


@st.composite
def graph_json(draw):
    """Graph JSON with every node kind, optional field and edge kind. Half
    the graphs are clean: valid kinds, fields that fit the node's kind and
    edges of allowed kinds. The others may hold bad kinds, misplaced fields
    and edges of any kinds."""
    clean = draw(st.booleans())
    nodes = []
    for i in range(draw(st.integers(1, 6))):
        node = {"id": f"N{i}", "kind": draw(kinds_of(NodeKind, clean))}
        evidence = node["kind"] in (NodeKind.EVIDENCE, "EVIDENCE")
        for field, values in (
            ("text", st.text(max_size=3)),
            ("asil", st.sampled_from([None, "A", "B", "C", "D"])),
            ("requirement_kind", kinds_of(RequirementKind, clean)),
            ("requirement_ref", st.sampled_from([None, "spec.json"])),
            ("evidence_kind", kinds_of(EvidenceKind, clean)),
            ("artifact", st.sampled_from([None, "report.json"])),
        ):
            if clean and field in ("evidence_kind", "artifact"):
                present = evidence and (field == "evidence_kind" or draw(st.booleans()))
            else:
                present = draw(st.booleans())
            if present:
                node[field] = draw(values)
        nodes.append(node)
    if clean:
        kind_of = {node["id"]: NodeKind(node["kind"]) for node in nodes}
        candidates = [
            (kind, source, target)
            for kind, source_kind, target_kind in _ALLOWED_EDGES
            for source in kind_of
            for target in kind_of
            if (kind_of[source], kind_of[target]) == (source_kind, target_kind)
        ]
        picked = draw(st.lists(st.sampled_from(candidates), max_size=6)) if candidates else []
        edges = [
            {"kind": draw(st.sampled_from([kind, kind.value])), "source": s, "target": t}
            for kind, s, t in picked
        ]
    else:
        ids = st.sampled_from([node["id"] for node in nodes])
        edges = [
            {"kind": draw(kinds_of(EdgeKind, clean)), "source": draw(ids), "target": draw(ids)}
            for _ in range(draw(st.integers(0, 6)))
        ]
    return {"nodes": nodes, "edges": edges}


class TestSafetyCaseLoader:
    @settings(max_examples=300, deadline=None)
    @given(graph_json())
    def test_it_builds_what_the_constructors_build(self, data):
        """Kinds decoded through the value maps give the graph, or the error
        text, of decoding them with Enum(value)."""
        try:
            expected = constructed_graph(data)
        except FormatError as exc:
            with pytest.raises(FormatError) as got:
                graph_from_json_dict(data)
            assert str(got.value) == str(exc)
        else:
            assert graph_from_json_dict(data) == expected

    def test_the_kinds_hash_by_identity(self):
        """The edge typing check and the id lookups hash kinds; Enum.__hash__
        would make each a Python call."""
        for kinds in (NodeKind, RequirementKind, EvidenceKind, EdgeKind):
            assert kinds.__hash__ is object.__hash__
            for kind in kinds:
                assert hash(kind) == object.__hash__(kind)

    def test_nodes_edges_and_gaps_are_slotted_and_frozen(self, tmp_path):
        node = Node("E1", NodeKind.EVIDENCE, evidence_kind=EvidenceKind.DOCUMENT,
                    artifact="gone.json")
        edge = Edge(EdgeKind.SUPPORTS, "E1", "R1")
        (gap,) = trace_check(SafetyCaseGraph((node,), (), tmp_path)).gaps
        for item in (node, edge, gap):
            assert not hasattr(item, "__dict__")
            with pytest.raises(dataclasses.FrozenInstanceError):
                item.kind = None
            assert pickle.loads(pickle.dumps(item)) == item
        assert dataclasses.replace(node, text="x") == Node(
            "E1", NodeKind.EVIDENCE, "x", evidence_kind=EvidenceKind.DOCUMENT,
            artifact="gone.json",
        )
        assert repr(edge) == (
            "Edge(kind=<EdgeKind.SUPPORTS: 'supports'>, source='E1', target='R1')"
        )
        with pytest.raises(FormatError, match="only evidence nodes carry artifacts"):
            dataclasses.replace(node, kind=NodeKind.HAZARD)
