"""Compact metric graphs with a distinguished Dirichlet vertex set.

A graph is a finite multigraph (loops and parallel edges allowed) whose edges
carry positive lengths and whose vertices carry a boundary tag, either
"dirichlet" or "natural".  Validation enforces the standing assumptions:
connected, at least one edge, at least one Dirichlet vertex, every length a
positive finite real.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from .errors import (
    DisconnectedGraph,
    DuplicateId,
    EmptyDirichletSet,
    NonPositiveLength,
    UnknownEdge,
    UnknownVertex,
    ValidationError,
)

DIRICHLET = "dirichlet"
NATURAL = "natural"


@dataclass(frozen=True)
class Vertex:
    id: str
    bc: str

    def __post_init__(self) -> None:
        if not isinstance(self.id, str) or not self.id:
            raise ValidationError(f"vertex id must be a nonempty string, got {self.id!r}")
        if self.bc not in (DIRICHLET, NATURAL):
            raise ValidationError(f"vertex {self.id!r}: bc must be {DIRICHLET!r} or {NATURAL!r}, got {self.bc!r}")


@dataclass(frozen=True)
class Edge:
    id: str
    tail: str
    head: str
    length: float

    def __post_init__(self) -> None:
        if not isinstance(self.id, str) or not self.id:
            raise ValidationError(f"edge id must be a nonempty string, got {self.id!r}")
        ln = self.length
        if isinstance(ln, bool) or not isinstance(ln, (int, float)):
            raise NonPositiveLength(f"edge {self.id!r}: length must be a number, got {ln!r}")
        if not math.isfinite(ln) or ln <= 0:
            raise NonPositiveLength(f"edge {self.id!r}: length must be positive and finite, got {ln!r}")
        object.__setattr__(self, "length", float(ln))

    @property
    def is_loop(self) -> bool:
        return self.tail == self.head


@dataclass(frozen=True)
class MetricGraph:
    """Validated metric graph.  Construction raises on any malformed input."""

    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "edges", tuple(self.edges))
        self._check()

    # -- validation ------------------------------------------------------

    def _check(self) -> None:
        seen: set[str] = set()
        for v in self.vertices:
            if v.id in seen:
                raise DuplicateId(f"duplicate vertex id {v.id!r}")
            seen.add(v.id)
        eseen: set[str] = set()
        vids = {v.id for v in self.vertices}
        for e in self.edges:
            if e.id in eseen:
                raise DuplicateId(f"duplicate edge id {e.id!r}")
            eseen.add(e.id)
            for end in (e.tail, e.head):
                if end not in vids:
                    raise UnknownVertex(f"edge {e.id!r} references unknown vertex {end!r}")
        if not any(v.bc == DIRICHLET for v in self.vertices):
            raise EmptyDirichletSet("graph has no Dirichlet vertex")
        if not self.edges:
            raise DisconnectedGraph("graph has no edges; a compact metric graph needs at least one")
        # connectivity over the skeleton, isolated vertices included
        adj: dict[str, list[str]] = {v.id: [] for v in self.vertices}
        for e in self.edges:
            adj[e.tail].append(e.head)
            adj[e.head].append(e.tail)
        start = self.vertices[0].id
        stack, reached = [start], {start}
        while stack:
            for w in adj[stack.pop()]:
                if w not in reached:
                    reached.add(w)
                    stack.append(w)
        if len(reached) != len(self.vertices):
            missing = sorted(vids - reached)
            raise DisconnectedGraph(f"graph is not connected; unreachable vertices {missing}")

    # -- indexes ---------------------------------------------------------

    @cached_property
    def _vmap(self) -> dict[str, Vertex]:
        return {v.id: v for v in self.vertices}

    @cached_property
    def _emap(self) -> dict[str, Edge]:
        return {e.id: e for e in self.edges}

    @cached_property
    def arrays(self) -> "EdgeArrays":
        """The edges as arrays over vertex indices (positions in ``vertices``)."""
        index = {v.id: i for i, v in enumerate(self.vertices)}
        return EdgeArrays(
            tail=np.array([index[e.tail] for e in self.edges], dtype=np.int64),
            head=np.array([index[e.head] for e in self.edges], dtype=np.int64),
            length=np.array([e.length for e in self.edges], dtype=np.float64),
            dirichlet=np.array([v.bc == DIRICHLET for v in self.vertices], dtype=bool),
        )

    @cached_property
    def _incidence(self) -> dict[str, tuple[Edge, ...]]:
        inc: dict[str, list[Edge]] = {v.id: [] for v in self.vertices}
        for e in self.edges:
            inc[e.tail].append(e)
            if not e.is_loop:
                inc[e.head].append(e)
        return {k: tuple(v) for k, v in inc.items()}

    # -- queries ---------------------------------------------------------

    def vertex(self, vid: str) -> Vertex:
        try:
            return self._vmap[vid]
        except KeyError:
            raise UnknownVertex(f"no vertex {vid!r}") from None

    def edge(self, eid: str) -> Edge:
        try:
            return self._emap[eid]
        except KeyError:
            raise UnknownEdge(f"no edge {eid!r}") from None

    @cached_property
    def dirichlet_vertices(self) -> tuple[str, ...]:
        return tuple(v.id for v in self.vertices if v.bc == DIRICHLET)

    @cached_property
    def natural_vertices(self) -> tuple[str, ...]:
        return tuple(v.id for v in self.vertices if v.bc == NATURAL)

    def is_dirichlet(self, vid: str) -> bool:
        return self.vertex(vid).bc == DIRICHLET

    def total_length(self) -> float:
        return math.fsum(e.length for e in self.edges)

    def degree(self, vid: str) -> int:
        """Combinatorial degree; a loop counts twice."""
        self.vertex(vid)
        return sum(2 if e.is_loop else 1 for e in self._incidence[vid])

    def metric_degree(self, vid: str) -> float:
        """Sum of incident edge lengths; a loop counts twice."""
        self.vertex(vid)
        return math.fsum((2.0 if e.is_loop else 1.0) * e.length for e in self._incidence[vid])

    def is_tree(self) -> bool:
        # connected already; a connected multigraph is a tree iff |E| = |V| - 1
        # (a loop or parallel edge would force fewer than |V| - 1 remaining edges)
        return len(self.edges) == len(self.vertices) - 1

    def is_equilateral(self, rel_tol: float = 1e-12) -> bool:
        lengths = [e.length for e in self.edges]
        lo, hi = min(lengths), max(lengths)
        return hi - lo <= rel_tol * hi

    # -- distances and inradius -----------------------------------------

    def _dijkstra(self, sources: Iterable[str], target: str | None = None) -> dict[str, float]:
        """Shortest-path distance from the nearest source to every vertex.

        With a target, the search stops once the target's distance is final.
        """
        import heapq

        dist = {v.id: math.inf for v in self.vertices}
        heap: list[tuple[float, str]] = []
        for vid in sources:
            dist[vid] = 0.0
            heap.append((0.0, vid))
        heapq.heapify(heap)
        while heap:
            d, u = heapq.heappop(heap)
            if u == target:
                break
            if d > dist[u]:
                continue
            for e in self._incidence[u]:
                w = e.head if e.tail == u else e.tail
                nd = d + e.length
                if nd < dist[w]:
                    dist[w] = nd
                    heapq.heappush(heap, (nd, w))
        return dist

    def dirichlet_distances(self) -> "DistanceField":
        """Exact multi-source shortest-path distance from every vertex to the Dirichlet set."""
        return DistanceField(graph=self, values=self._dijkstra(self.dirichlet_vertices))

    def distance_between(self, u: str, w: str) -> float:
        """Exact shortest-path distance between two vertices."""
        self.vertex(u)
        self.vertex(w)
        return self._dijkstra([u], target=w)[w]

    def inradius(self) -> "PointWitness":
        """Largest distance to the Dirichlet set, with a witness point."""
        dist = self.dirichlet_distances().values
        d = np.array([dist[v.id] for v in self.vertices])
        arr = self.arrays
        du, dw, ln = d[arr.tail], d[arr.head], arr.length
        peak = 0.5 * (du + dw + ln)
        k = int(np.argmax(peak))
        offset = min(max(0.5 * (dw[k] - du[k] + ln[k]), 0.0), ln[k])
        return PointWitness(value=float(peak[k]), edge=self.edges[k].id, offset=float(offset))

    # -- Dirichlet gluing and 2-edge-connectivity ------------------------

    def glue_dirichlet(self) -> "MetricGraph":
        """Identify all Dirichlet vertices into one.  Total length is unchanged."""
        dset = set(self.dirichlet_vertices)
        keep = self.dirichlet_vertices[0]
        rep = {vid: (keep if vid in dset else vid) for vid in self._vmap}
        verts = tuple(v for v in self.vertices if v.bc == NATURAL or v.id == keep)
        edges = tuple(Edge(e.id, rep[e.tail], rep[e.head], e.length) for e in self.edges)
        return MetricGraph(verts, edges)

    def is_doubly_connected_after_glue(self) -> bool:
        """True when the graph, with V_D identified to a point, has no bridges."""
        arr = self.arrays
        rep = np.arange(len(self.vertices))
        rep[arr.dirichlet] = np.argmax(arr.dirichlet)  # every Dirichlet vertex onto the first
        return not _has_bridge_in(rep[arr.tail], rep[arr.head], len(self.vertices))

    # -- serialization ---------------------------------------------------

    def to_payload(self) -> dict:
        return {
            "vertices": [{"id": v.id, "bc": v.bc} for v in self.vertices],
            "edges": [
                {"id": e.id, "from": e.tail, "to": e.head, "length": e.length}
                for e in self.edges
            ],
        }

    def dumps(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_payload(), indent=indent)


@dataclass(frozen=True)
class DistanceField:
    """Distances from each vertex to the Dirichlet set of a fixed graph."""

    graph: MetricGraph
    values: Mapping[str, float]

    def at(self, edge_id: str, offset: float) -> float:
        """Distance to V_D of the point at the given offset from the edge tail."""
        e = self.graph.edge(edge_id)
        x = min(max(offset, 0.0), e.length)
        return min(self.values[e.tail] + x, self.values[e.head] + e.length - x)


@dataclass(frozen=True)
class EdgeArrays:
    """Edge k runs from vertex tail[k] to vertex head[k] and has length length[k];
    dirichlet[i] tells whether vertex i is a Dirichlet vertex."""

    tail: np.ndarray
    head: np.ndarray
    length: np.ndarray
    dirichlet: np.ndarray


@dataclass(frozen=True)
class PointWitness:
    """A value (an inradius, a supremum) attained at ``offset`` along edge ``edge``."""

    value: float
    edge: str
    offset: float


def _has_bridge(g: MetricGraph) -> bool:
    """Bridge detection on the multigraph skeleton; loops are never bridges."""
    arr = g.arrays
    return _has_bridge_in(arr.tail, arr.head, len(g.vertices))


def _has_bridge_in(tail: np.ndarray, head: np.ndarray, n_vertices: int) -> bool:
    """Whether the multigraph on vertices 0..n_vertices-1 with edges k = (tail[k],
    head[k]) has a bridge.  Loops are skipped; a parallel edge closes a cycle."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n_vertices)]
    for k, (a, b) in enumerate(zip(tail.tolist(), head.tolist())):
        if a != b:
            adj[a].append((b, k))
            adj[b].append((a, k))
    index = [-1] * n_vertices
    low = [0] * n_vertices
    counter = 0
    # iterative DFS, entering edge tracked by index so parallel edges work
    for root in range(n_vertices):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack = [(root, -1, iter(adj[root]))]
        while stack:
            u, in_edge, it = stack[-1]
            for w, k in it:
                if k == in_edge:
                    continue
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append((w, k, iter(adj[w])))
                    break
                # back edge: fold in and keep consuming this frame
                low[u] = min(low[u], index[w])
            else:
                stack.pop()
                if stack:
                    parent = stack[-1][0]
                    low[parent] = min(low[parent], low[u])
                    if low[u] > index[parent]:
                        return True
    return False


# -- construction helpers -------------------------------------------------


def make_graph(
    vertices: Iterable[tuple[str, str]],
    edges: Iterable[tuple[str, str, str, float]],
) -> MetricGraph:
    """Build a graph from (id, bc) and (id, tail, head, length) tuples."""
    return MetricGraph(
        tuple(Vertex(i, bc) for i, bc in vertices),
        tuple(Edge(i, t, h, ln) for i, t, h, ln in edges),
    )


def reorient(g: MetricGraph, edge_ids: Iterable[str]) -> MetricGraph:
    """Flip tail/head of the named edges.  The metric object is unchanged."""
    flip = set(edge_ids)
    for eid in flip:
        g.edge(eid)
    edges = tuple(
        Edge(e.id, e.head, e.tail, e.length) if e.id in flip else e for e in g.edges
    )
    return MetricGraph(g.vertices, edges)


def from_payload(payload: dict) -> MetricGraph:
    """Parse the JSON interchange form, rejecting malformed entries."""
    if not isinstance(payload, dict):
        raise ValidationError("graph payload must be an object")
    for key in ("vertices", "edges"):
        if key not in payload or not isinstance(payload[key], list):
            raise ValidationError(f"graph payload needs a {key!r} list")
    verts = []
    for i, item in enumerate(payload["vertices"]):
        if not isinstance(item, dict) or "id" not in item or "bc" not in item:
            raise ValidationError(f"vertex entry {i} must be an object with 'id' and 'bc'")
        verts.append(Vertex(item["id"], item["bc"]))
    edges = []
    for i, item in enumerate(payload["edges"]):
        if not isinstance(item, dict):
            raise ValidationError(f"edge entry {i} must be an object")
        for key in ("id", "from", "to", "length"):
            if key not in item:
                raise ValidationError(f"edge entry {i} is missing {key!r}")
        edges.append(Edge(item["id"], item["from"], item["to"], item["length"]))
    return MetricGraph(tuple(verts), tuple(edges))


def loads(text: str) -> MetricGraph:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid JSON: {exc}") from None
    return from_payload(payload)


def load(path) -> MetricGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())
