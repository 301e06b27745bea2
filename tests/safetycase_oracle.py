"""Reference gap analysis for specguard.process.safetycase.trace_check.

A brute-force restatement of the documented checks, written for clarity
and not for speed: every lookup scans the node or edge list, and each
requirement's goals come from a naive reachability walk over REFINES edges.
The ASIL rule is applied to the full set of goals reached: the requirement
inherits the highest ASIL among them (goals without an ASIL are ignored),
the smallest goal id carrying it is named, and a differing requirement
ASIL is one ASIL_MISMATCH gap. test_process.py checks trace_check against
it on random acyclic graphs.
"""
from __future__ import annotations

from pathlib import Path

from specguard.process.safetycase import (
    EdgeKind,
    Gap,
    GapKind,
    Node,
    NodeKind,
    SafetyCaseGraph,
)


def _node(graph: SafetyCaseGraph, node_id: str) -> Node:
    return next(n for n in graph.nodes if n.id == node_id)


def _targets(graph: SafetyCaseGraph, kind: EdgeKind) -> set[str]:
    return {e.target for e in graph.edges if e.kind is kind}


def reachable_goals(graph: SafetyCaseGraph, requirement_id: str) -> set[str]:
    """Ids of every safety goal reachable from the requirement over REFINES
    edges."""
    seen: set[str] = set()
    frontier = [requirement_id]
    while frontier:
        current = frontier.pop()
        for edge in graph.edges:
            if edge.kind is EdgeKind.REFINES and edge.source == current:
                if edge.target not in seen:
                    seen.add(edge.target)
                    frontier.append(edge.target)
    return {i for i in seen if _node(graph, i).kind is NodeKind.SAFETY_GOAL}


def oracle_gaps(graph: SafetyCaseGraph) -> list[Gap]:
    mitigated = _targets(graph, EdgeKind.MITIGATES)
    refined = _targets(graph, EdgeKind.REFINES)
    supported = _targets(graph, EdgeKind.SUPPORTS)
    gaps = []
    for node in graph.nodes:
        if node.kind is NodeKind.HAZARD and node.id not in mitigated:
            gaps.append(
                Gap(GapKind.UNMITIGATED_HAZARD, node.id, "no safety goal mitigates this hazard")
            )
        if node.kind is NodeKind.SAFETY_GOAL and node.id not in refined:
            gaps.append(
                Gap(GapKind.MISSING_REQUIREMENT, node.id, "no requirement refines this goal")
            )
        if node.kind is NodeKind.REQUIREMENT:
            if node.id not in refined | supported:
                gaps.append(
                    Gap(
                        GapKind.MISSING_EVIDENCE,
                        node.id,
                        "no evidence supports this requirement (and no derived "
                        "requirement refines it)",
                    )
                )
            goals = [_node(graph, i) for i in reachable_goals(graph, node.id)]
            rated = [g for g in goals if g.asil is not None]
            if node.asil is not None and rated:
                highest = max(g.asil for g in rated)
                goal = min((g for g in rated if g.asil == highest), key=lambda g: g.id)
                if node.asil != highest:
                    gaps.append(
                        Gap(
                            GapKind.ASIL_MISMATCH,
                            node.id,
                            f"requirement ASIL {node.asil} differs from goal "
                            f"{goal.id!r} ASIL {highest} (ASIL is inherited)",
                        )
                    )
        if node.kind is NodeKind.EVIDENCE and node.artifact is not None:
            artifact = Path(node.artifact)
            if not artifact.is_absolute():
                artifact = graph.base_dir / artifact
            if not artifact.is_file():
                gaps.append(
                    Gap(GapKind.MISSING_ARTIFACT, node.id, f"artifact file not found: {artifact}")
                )
    return sorted(gaps, key=lambda g: (g.kind.value, g.node_id))
