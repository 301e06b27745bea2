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

Loading a graph costs a few microseconds a node. A kind in the JSON is
looked up in its enum's value map, and only a value the map does not hold
(an unknown or unhashable value, or a member given itself) goes through
Enum(value), so results and error texts are those of Enum(value). The four
kinds hash by identity, so the edge typing check and the id lookups hash
in C; no set of kinds is iterated to make output. Node, Edge and Gap are
slotted; Node and Edge have hand-written constructors that set their slots
directly, past the frozen __setattr__.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional, Sequence, Union

from ..errors import CycleError, FormatError, read_json_file


class NodeKind(enum.Enum):
    HAZARD = "HAZARD"
    SAFETY_GOAL = "SAFETY_GOAL"
    REQUIREMENT = "REQUIREMENT"
    EVIDENCE = "EVIDENCE"

    # Members compare by identity, so they may hash by it: object's hash is
    # a C slot, where Enum.__hash__ is a Python call. The same holds for the
    # three kinds below.
    __hash__ = object.__hash__


class RequirementKind(enum.Enum):
    BEHAVIOURAL_SPEC = "behavioural-spec"
    DATA_REQUIREMENTS = "data-requirements"
    OTHER = "other"

    __hash__ = object.__hash__


class EvidenceKind(enum.Enum):
    MONITOR_REPORT = "monitor-report"
    COVERAGE_REPORT = "coverage-report"
    SIMULATION_REPORT = "simulation-report"
    DOCUMENT = "document"

    __hash__ = object.__hash__


class EdgeKind(enum.Enum):
    MITIGATES = "mitigates"  # goal -> hazard
    REFINES = "refines"  # requirement -> goal | requirement -> requirement
    SUPPORTS = "supports"  # evidence -> requirement

    __hash__ = object.__hash__


class GapKind(enum.Enum):
    UNMITIGATED_HAZARD = "UNMITIGATED_HAZARD"
    MISSING_REQUIREMENT = "MISSING_REQUIREMENT"
    MISSING_EVIDENCE = "MISSING_EVIDENCE"
    MISSING_ARTIFACT = "MISSING_ARTIFACT"
    ASIL_MISMATCH = "ASIL_MISMATCH"


@dataclass(frozen=True, slots=True, init=False)
class Node:
    id: str
    kind: NodeKind
    text: str = ""
    asil: Optional[str] = None  # A|B|C|D where applicable
    requirement_kind: Optional[RequirementKind] = None
    requirement_ref: Optional[str] = None  # path of the spec/requirements file
    evidence_kind: Optional[EvidenceKind] = None
    artifact: Optional[str] = None  # path of the evidence artifact

    def __init__(
        self,
        id: str,
        kind: NodeKind,
        text: str = "",
        asil: Optional[str] = None,
        requirement_kind: Optional[RequirementKind] = None,
        requirement_ref: Optional[str] = None,
        evidence_kind: Optional[EvidenceKind] = None,
        artifact: Optional[str] = None,
    ) -> None:
        if asil is not None and asil not in ("A", "B", "C", "D"):
            raise FormatError(f"node {id!r}: ASIL must be A, B, C or D")
        if kind is NodeKind.EVIDENCE:
            if evidence_kind is None:
                raise FormatError(f"evidence node {id!r} needs an evidence kind")
        elif artifact is not None:
            raise FormatError(f"node {id!r}: only evidence nodes carry artifacts")
        set_id, set_kind, set_text, set_asil, set_rkind, set_ref, set_ekind, set_artifact = (
            _NODE_SLOTS
        )
        set_id(self, id)
        set_kind(self, kind)
        set_text(self, text)
        set_asil(self, asil)
        set_rkind(self, requirement_kind)
        set_ref(self, requirement_ref)
        set_ekind(self, evidence_kind)
        set_artifact(self, artifact)


@dataclass(frozen=True, slots=True, init=False)
class Edge:
    kind: EdgeKind
    source: str
    target: str

    def __init__(self, kind: EdgeKind, source: str, target: str) -> None:
        set_kind, set_source, set_target = _EDGE_SLOTS
        set_kind(self, kind)
        set_source(self, source)
        set_target(self, target)


# The slot descriptors' setters, in field order: a frozen class's own
# __setattr__ refuses every write, and object.__setattr__ finds the same
# setter by name on each call.
_NODE_SLOTS = tuple(getattr(Node, f.name).__set__ for f in fields(Node))
_EDGE_SLOTS = tuple(getattr(Edge, f.name).__set__ for f in fields(Edge))


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
        by_id = {node.id: node for node in self.nodes}
        if len(by_id) != len(self.nodes):
            seen: set[str] = set()
            for node in self.nodes:
                if node.id in seen:
                    raise FormatError(f"duplicate node id {node.id!r}")
                seen.add(node.id)
        lookup = by_id.get
        for edge in self.edges:
            source, target = lookup(edge.source), lookup(edge.target)
            if source is None or target is None:
                end = edge.source if source is None else edge.target
                raise FormatError(f"edge references unknown node {end!r}")
            if (edge.kind, source.kind, target.kind) not in _ALLOWED:
                raise FormatError(
                    f"edge {edge.source!r} -{edge.kind.value}-> {edge.target!r} "
                    f"connects {source.kind.value} to {target.kind.value}, "
                    "which is not allowed"
                )
        # The id index is not a field, so ==, hash and repr are unchanged.
        object.__setattr__(self, "_by_id", by_id)

    def node(self, node_id: str) -> Node:
        return self._by_id[node_id]


@dataclass(frozen=True, slots=True)
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


def _kind(kinds: type[enum.Enum], value: object) -> Optional[enum.Enum]:
    """The member of kinds that Enum(value) gives, or None where it raises
    ValueError. The value map holds every member by its value; a value it
    does not hold, cannot hash or that is a member itself is left to
    Enum(value)."""
    try:
        return kinds._value2member_map_[value]
    except (KeyError, TypeError):
        try:
            return kinds(value)
        except ValueError:
            return None


def _valid(kinds: type[enum.Enum]) -> str:
    return ", ".join(k.value for k in kinds)


def _node_from_json(data: object) -> Node:
    if not isinstance(data, dict) or not isinstance(data.get("id"), str):
        raise FormatError("graph node needs a string 'id'")
    get = data.get
    node_id = data["id"]
    raw_kind = get("kind")
    kind = _kind(NodeKind, raw_kind)
    if kind is None:
        raise FormatError(
            f"node {node_id!r}: unknown kind {raw_kind!r} (use {_valid(NodeKind)})"
        )
    requirement_kind = get("requirement_kind")
    if requirement_kind is not None:
        requirement_kind = _kind(RequirementKind, requirement_kind)
        if requirement_kind is None:
            raise FormatError(
                f"node {node_id!r}: unknown requirement kind (use {_valid(RequirementKind)})"
            )
    evidence_kind = get("evidence_kind")
    if evidence_kind is not None:
        evidence_kind = _kind(EvidenceKind, evidence_kind)
        if evidence_kind is None:
            raise FormatError(
                f"node {node_id!r}: unknown evidence kind (use {_valid(EvidenceKind)})"
            )
    requirement_ref, artifact = get("requirement_ref"), get("artifact")
    for name, path in (("requirement_ref", requirement_ref), ("artifact", artifact)):
        if path is not None and not isinstance(path, str):
            raise FormatError(f"node {node_id!r}: {name!r} must be a string path")
    return Node(
        node_id,
        kind,
        str(get("text", "")),
        get("asil"),
        requirement_kind,
        requirement_ref,
        evidence_kind,
        artifact,
    )


def _edge_from_json(data: object) -> Edge:
    if not isinstance(data, dict):
        raise FormatError("graph edge must be a JSON object")
    get = data.get
    raw_kind = get("kind")
    kind = _kind(EdgeKind, raw_kind)
    if kind is None:
        raise FormatError(f"unknown edge kind {raw_kind!r} (use {_valid(EdgeKind)})")
    source, target = get("source"), get("target")
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
    nodes = tuple(map(_node_from_json, raw_nodes))
    edges = tuple(map(_edge_from_json, raw_edges))
    return SafetyCaseGraph(nodes, edges, Path(base_dir))


def load_graph(path: Union[str, Path]) -> SafetyCaseGraph:
    """Read a graph file; evidence artifact paths resolve relative to the
    file's own directory."""
    path = Path(path)
    data = read_json_file(path, "safety case graph")
    return graph_from_json_dict(data, base_dir=path.resolve().parent)
