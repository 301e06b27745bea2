"""Safety-case traceability graph and gap analysis.

The graph records the argument chain: hazards are mitigated by safety goals,
goals are refined into requirements (behavioural partial specs or data-set
requirements), and requirements are supported by evidence artifacts (monitor
reports, coverage reports, simulation reports, documents). The checker walks
the chain and reports every break: unmitigated hazards, goals without
requirements, requirements without evidence, evidence whose artifact file is
missing, and requirements whose ASIL does not match their goal's (the ASIL
is inherited down from the hazard's goal).

ASIL rule: a requirement inherits the highest ASIL among all the safety
goals it reaches through REFINES edges, directly or through other
requirements; goals without an ASIL are ignored. When the requirement's own
ASIL differs from that one, it gets a single ASIL_MISMATCH gap naming the
goal that carries the inherited ASIL (the smallest goal id on ties). The
verdict does not depend on node or edge order.
"""
from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

from ..errors import CycleError, FormatError


class NodeKind(enum.Enum):
    HAZARD = "HAZARD"
    SAFETY_GOAL = "SAFETY_GOAL"
    REQUIREMENT = "REQUIREMENT"
    EVIDENCE = "EVIDENCE"


class RequirementKind(enum.Enum):
    BEHAVIOURAL_SPEC = "behavioural-spec"
    DATA_REQUIREMENTS = "data-requirements"
    OTHER = "other"


class EvidenceKind(enum.Enum):
    MONITOR_REPORT = "monitor-report"
    COVERAGE_REPORT = "coverage-report"
    SIMULATION_REPORT = "simulation-report"
    DOCUMENT = "document"


class EdgeKind(enum.Enum):
    MITIGATES = "mitigates"  # goal -> hazard
    REFINES = "refines"  # requirement -> goal | requirement -> requirement
    SUPPORTS = "supports"  # evidence -> requirement


class GapKind(enum.Enum):
    UNMITIGATED_HAZARD = "UNMITIGATED_HAZARD"
    MISSING_REQUIREMENT = "MISSING_REQUIREMENT"
    MISSING_EVIDENCE = "MISSING_EVIDENCE"
    MISSING_ARTIFACT = "MISSING_ARTIFACT"
    ASIL_MISMATCH = "ASIL_MISMATCH"


@dataclass(frozen=True)
class Node:
    id: str
    kind: NodeKind
    text: str = ""
    asil: Optional[str] = None  # A|B|C|D where applicable
    requirement_kind: Optional[RequirementKind] = None
    requirement_ref: Optional[str] = None  # path of the spec/requirements file
    evidence_kind: Optional[EvidenceKind] = None
    artifact: Optional[str] = None  # path of the evidence artifact

    def __post_init__(self) -> None:
        if self.asil is not None and self.asil not in ("A", "B", "C", "D"):
            raise FormatError(f"node {self.id!r}: ASIL must be A, B, C or D")
        if self.kind is NodeKind.EVIDENCE and self.evidence_kind is None:
            raise FormatError(f"evidence node {self.id!r} needs an evidence kind")
        if self.kind is not NodeKind.EVIDENCE and self.artifact is not None:
            raise FormatError(f"node {self.id!r}: only evidence nodes carry artifacts")


@dataclass(frozen=True)
class Edge:
    kind: EdgeKind
    source: str
    target: str


# Allowed (edge kind, source kind, target kind) triples. A requirement may
# refine another requirement so that derived requirements keep a chain back
# to their goal; evidence discharges only the requirement it supports.
_ALLOWED = {
    (EdgeKind.MITIGATES, NodeKind.SAFETY_GOAL, NodeKind.HAZARD),
    (EdgeKind.REFINES, NodeKind.REQUIREMENT, NodeKind.SAFETY_GOAL),
    (EdgeKind.REFINES, NodeKind.REQUIREMENT, NodeKind.REQUIREMENT),
    (EdgeKind.SUPPORTS, NodeKind.EVIDENCE, NodeKind.REQUIREMENT),
}


@dataclass(frozen=True)
class SafetyCaseGraph:
    nodes: tuple[Node, ...]
    edges: tuple[Edge, ...]
    base_dir: Path = Path(".")  # artifact paths resolve relative to this

    def __post_init__(self) -> None:
        by_id: dict[str, Node] = {}
        for node in self.nodes:
            if node.id in by_id:
                raise FormatError(f"duplicate node id {node.id!r}")
            by_id[node.id] = node
        for edge in self.edges:
            for end in (edge.source, edge.target):
                if end not in by_id:
                    raise FormatError(f"edge references unknown node {end!r}")
            triple = (edge.kind, by_id[edge.source].kind, by_id[edge.target].kind)
            if triple not in _ALLOWED:
                raise FormatError(
                    f"edge {edge.source!r} -{edge.kind.value}-> {edge.target!r} "
                    f"connects {by_id[edge.source].kind.value} to "
                    f"{by_id[edge.target].kind.value}, which is not allowed"
                )
        # The id index is not a field, so ==, hash and repr are unchanged.
        object.__setattr__(self, "_by_id", by_id)

    def node(self, node_id: str) -> Node:
        return self._by_id[node_id]


@dataclass(frozen=True)
class Gap:
    kind: GapKind
    node_id: str
    detail: str

    def to_json_dict(self) -> dict:
        return {"kind": self.kind.value, "node": self.node_id, "detail": self.detail}


@dataclass
class GapReport:
    gaps: list[Gap]

    @property
    def ok(self) -> bool:
        return not self.gaps

    def to_json_dict(self) -> dict:
        return {"ok": self.ok, "gaps": [g.to_json_dict() for g in self.gaps]}


def _higher_goal(a: Optional[Node], b: Optional[Node]) -> Optional[Node]:
    """Of two goals (None meaning no ASIL-carrying goal), the one whose ASIL
    is inherited: the higher ASIL, then the smaller id."""
    if a is None or b is None:
        return a if b is None else b
    if a.asil != b.asil:  # the letters A < B < C < D sort in ASIL order
        return a if a.asil > b.asil else b
    return a if a.id < b.id else b


def _inherited_goals(
    graph: SafetyCaseGraph,
    adjacency: dict[str, list[str]],
    refines: dict[str, list[str]],
) -> dict[str, Optional[Node]]:
    """One iterative depth-first pass over every edge. It raises CycleError
    on a cycle and, in post-order, maps each requirement that refines
    something to the goal whose ASIL it inherits (None when it reaches no
    goal with an ASIL). A requirement's refinement targets are all finished
    before it is, so each REFINES edge is looked at once."""
    inherited: dict[str, Optional[Node]] = {}
    WHITE, GREY, BLACK = 0, 1, 2
    colour = dict.fromkeys(adjacency, WHITE)
    for start in adjacency:
        if colour[start] != WHITE:
            continue
        stack: list[tuple[str, int]] = [(start, 0)]
        path = [start]
        colour[start] = GREY
        while stack:
            node, i = stack[-1]
            if i < len(adjacency[node]):
                stack[-1] = (node, i + 1)
                child = adjacency[node][i]
                if colour[child] == GREY:
                    cycle = path[path.index(child):] + [child]
                    raise CycleError(cycle)
                if colour[child] == WHITE:
                    colour[child] = GREY
                    stack.append((child, 0))
                    path.append(child)
                continue
            colour[node] = BLACK
            stack.pop()
            path.pop()
            if node not in refines:
                continue
            goal = None
            for target_id in refines[node]:
                target = graph.node(target_id)
                if target.kind is NodeKind.SAFETY_GOAL:
                    reached = target if target.asil is not None else None
                else:
                    reached = inherited.get(target_id)
                goal = _higher_goal(goal, reached)
            inherited[node] = goal
    return inherited


def trace_check(graph: SafetyCaseGraph) -> GapReport:
    """Gap analysis over the whole argument chain in time linear in the
    graph's size. Gaps are sorted by (kind, node id) so reports do not
    depend on node or edge order."""
    adjacency: dict[str, list[str]] = {n.id: [] for n in graph.nodes}
    refines: dict[str, list[str]] = {}
    mitigated, refined, supported = set(), set(), set()
    for edge in graph.edges:
        adjacency[edge.source].append(edge.target)
        if edge.kind is EdgeKind.REFINES:
            refines.setdefault(edge.source, []).append(edge.target)
            refined.add(edge.target)
        elif edge.kind is EdgeKind.MITIGATES:
            mitigated.add(edge.target)
        else:
            supported.add(edge.target)
    inherited = _inherited_goals(graph, adjacency, refines)
    missing_artifact: dict[str, Optional[str]] = {}  # artifact -> detail path
    gaps: list[Gap] = []
    for node in graph.nodes:
        if node.kind is NodeKind.HAZARD and node.id not in mitigated:
            gaps.append(
                Gap(GapKind.UNMITIGATED_HAZARD, node.id, "no safety goal mitigates this hazard")
            )
        elif node.kind is NodeKind.SAFETY_GOAL and node.id not in refined:
            gaps.append(
                Gap(GapKind.MISSING_REQUIREMENT, node.id, "no requirement refines this goal")
            )
        elif node.kind is NodeKind.REQUIREMENT:
            if node.id not in refined and node.id not in supported:
                gaps.append(
                    Gap(
                        GapKind.MISSING_EVIDENCE,
                        node.id,
                        "no evidence supports this requirement (and no derived "
                        "requirement refines it)",
                    )
                )
            goal = inherited.get(node.id)
            if goal is not None and node.asil is not None and node.asil != goal.asil:
                gaps.append(
                    Gap(
                        GapKind.ASIL_MISMATCH,
                        node.id,
                        f"requirement ASIL {node.asil} differs from goal "
                        f"{goal.id!r} ASIL {goal.asil} (ASIL is inherited)",
                    )
                )
        elif node.kind is NodeKind.EVIDENCE and node.artifact is not None:
            if node.artifact not in missing_artifact:
                artifact = Path(node.artifact)
                if not artifact.is_absolute():
                    artifact = graph.base_dir / artifact
                missing_artifact[node.artifact] = None if artifact.is_file() else str(artifact)
            path = missing_artifact[node.artifact]
            if path is not None:
                gaps.append(
                    Gap(GapKind.MISSING_ARTIFACT, node.id, f"artifact file not found: {path}")
                )
    gaps.sort(key=lambda g: (g.kind.value, g.node_id))
    return GapReport(gaps)


def _node_from_json(data: object) -> Node:
    if not isinstance(data, dict) or not isinstance(data.get("id"), str):
        raise FormatError("graph node needs a string 'id'")
    raw_kind = data.get("kind")
    try:
        kind = NodeKind(raw_kind)
    except ValueError:
        valid = ", ".join(k.value for k in NodeKind)
        raise FormatError(
            f"node {data['id']!r}: unknown kind {raw_kind!r} (use {valid})"
        ) from None
    requirement_kind = None
    if data.get("requirement_kind") is not None:
        try:
            requirement_kind = RequirementKind(data["requirement_kind"])
        except ValueError:
            valid = ", ".join(k.value for k in RequirementKind)
            raise FormatError(
                f"node {data['id']!r}: unknown requirement kind (use {valid})"
            ) from None
    evidence_kind = None
    if data.get("evidence_kind") is not None:
        try:
            evidence_kind = EvidenceKind(data["evidence_kind"])
        except ValueError:
            valid = ", ".join(k.value for k in EvidenceKind)
            raise FormatError(
                f"node {data['id']!r}: unknown evidence kind (use {valid})"
            ) from None
    return Node(
        id=data["id"],
        kind=kind,
        text=str(data.get("text", "")),
        asil=data.get("asil"),
        requirement_kind=requirement_kind,
        requirement_ref=data.get("requirement_ref"),
        evidence_kind=evidence_kind,
        artifact=data.get("artifact"),
    )


def _edge_from_json(data: object) -> Edge:
    if not isinstance(data, dict):
        raise FormatError("graph edge must be a JSON object")
    raw_kind = data.get("kind")
    try:
        kind = EdgeKind(raw_kind)
    except ValueError:
        valid = ", ".join(k.value for k in EdgeKind)
        raise FormatError(f"unknown edge kind {raw_kind!r} (use {valid})") from None
    source, target = data.get("source"), data.get("target")
    if not isinstance(source, str) or not isinstance(target, str):
        raise FormatError("graph edge needs string 'source' and 'target'")
    return Edge(kind, source, target)


def graph_from_json_dict(data: object, base_dir: Union[str, Path] = ".") -> SafetyCaseGraph:
    if not isinstance(data, dict):
        raise FormatError("safety case graph must be a JSON object")
    raw_nodes = data.get("nodes")
    raw_edges = data.get("edges", [])
    if not isinstance(raw_nodes, list) or not raw_nodes:
        raise FormatError("safety case graph needs a non-empty 'nodes' list")
    if not isinstance(raw_edges, list):
        raise FormatError("safety case graph 'edges' must be a list")
    nodes = tuple(_node_from_json(n) for n in raw_nodes)
    edges = tuple(_edge_from_json(e) for e in raw_edges)
    return SafetyCaseGraph(nodes, edges, Path(base_dir))


def load_graph(path: Union[str, Path]) -> SafetyCaseGraph:
    """Read a graph file; evidence artifact paths resolve relative to the
    file's own directory."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise FormatError(f"cannot read safety case graph {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"safety case graph {path} is not valid JSON: {exc}") from exc
    return graph_from_json_dict(data, base_dir=path.resolve().parent)
