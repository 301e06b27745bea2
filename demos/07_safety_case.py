"""Safety-case traceability: hazard -> goal -> requirement -> evidence.

trace_check walks the argument graph and reports every break in the chain:
hazards nobody mitigates, goals without requirements, requirements without
evidence, evidence whose artifact file is missing, and requirements whose
ASIL falls short of the goal they serve. The demo starts from a gappy graph
and repairs it one finding at a time.
"""
import os
import tempfile
from pathlib import Path

from specguard.process.safetycase import (
    Edge,
    EdgeKind,
    EvidenceKind,
    Node,
    NodeKind,
    RequirementKind,
    SafetyCaseGraph,
    trace_check,
)

with tempfile.TemporaryDirectory(prefix="safetycase_") as tmp:
    workdir = Path(tmp)

    hazard = Node("H1", NodeKind.HAZARD, "vehicle fails to brake for a pedestrian")
    goal = Node("G1", NodeKind.SAFETY_GOAL, "detect pedestrians within 30 m", asil="C")
    requirement = Node(
        "R1",
        NodeKind.REQUIREMENT,
        "classifier satisfies the pedestrian partial specification",
        asil="A",
        requirement_kind=RequirementKind.BEHAVIOURAL_SPEC,
        requirement_ref="pedestrian_spec.json",
    )
    evidence = Node(
        "E1",
        NodeKind.EVIDENCE,
        "monitor run over the road-test trace",
        evidence_kind=EvidenceKind.MONITOR_REPORT,
        artifact="monitor_report.json",
    )

    graph = SafetyCaseGraph(
        nodes=(hazard, goal, requirement, evidence),
        edges=(
            Edge(EdgeKind.MITIGATES, "G1", "H1"),
            Edge(EdgeKind.REFINES, "R1", "G1"),
            Edge(EdgeKind.SUPPORTS, "E1", "R1"),
        ),
        base_dir=workdir,
    )

    report = trace_check(graph)
    print("complete:", report.ok)
    for gap in report.gaps:
        # A path is shown relative to the work directory, whose name differs
        # on every run.
        detail = gap.detail.replace(f"{workdir}{os.sep}", "")
        print(f"  {gap.kind.value:<18} {gap.node_id}: {detail}")

    # Repair 1: write the artifact the evidence node points at.
    (workdir / "monitor_report.json").write_text('{"final_state": "NOMINAL"}\n')

    # Repair 2: the requirement inherits ASIL C from G1, so restate it at C.
    requirement_c = Node(
        "R1",
        NodeKind.REQUIREMENT,
        requirement.text,
        asil="C",
        requirement_kind=requirement.requirement_kind,
        requirement_ref=requirement.requirement_ref,
    )
    graph = SafetyCaseGraph(
        nodes=(hazard, goal, requirement_c, evidence), edges=graph.edges, base_dir=workdir
    )
    report = trace_check(graph)
    print("after repairs, complete:", report.ok)

    # Derived requirements chain through refines edges: the data requirement
    # below needs no direct goal link, and its evidence discharges only itself.
    data_req = Node(
        "R2",
        NodeKind.REQUIREMENT,
        "training data covers the pedestrian stature/range cells",
        asil="C",
        requirement_kind=RequirementKind.DATA_REQUIREMENTS,
    )
    coverage = Node(
        "E2",
        NodeKind.EVIDENCE,
        "coverage report for the training set",
        evidence_kind=EvidenceKind.COVERAGE_REPORT,
        artifact="coverage.json",
    )
    (workdir / "coverage.json").write_text('{"passed": true}\n')
    graph = SafetyCaseGraph(
        nodes=graph.nodes + (data_req, coverage),
        edges=graph.edges
        + (
            Edge(EdgeKind.REFINES, "R2", "R1"),
            Edge(EdgeKind.SUPPORTS, "E2", "R2"),
        ),
        base_dir=workdir,
    )
    report = trace_check(graph)
    print("with derived data requirement, complete:", report.ok)

    # The checker refuses edges that break the argument's shape.
    try:
        SafetyCaseGraph(
            nodes=(hazard, evidence),
            edges=(Edge(EdgeKind.SUPPORTS, "E1", "H1"),),
            base_dir=workdir,
        )
    except Exception as exc:
        print("rejected:", exc)
