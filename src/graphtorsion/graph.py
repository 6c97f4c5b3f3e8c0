"""Compact metric graphs with a distinguished Dirichlet vertex set.

A graph is a finite multigraph (loops and parallel edges allowed) whose edges
carry positive lengths and whose vertices carry a boundary tag, either
"dirichlet" or "natural".  Validation enforces the standing assumptions:
connected, at least one edge, at least one Dirichlet vertex, every length a
positive number.  The number, count and id rules (is_number, is_count, is_id)
that every module judges a caller's values by live here.

Ids plus index arrays are the primary form: ``vertex_ids``, ``edge_ids`` and
``arrays`` (tail, head, length, Dirichlet mask).  ``MetricGraph(...)``, ``make_graph``
(so every family) and ``loads`` check and build from lists by one route, and every
graph derived is built from arrays, so no library path builds a Vertex or Edge
object: those in ``vertices`` and ``edges`` are a view built on first access.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import (
    BadParameters,
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
        _check_vertex(self.id, self.bc)


@dataclass(frozen=True)
class Edge:
    id: str
    tail: str
    head: str
    length: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "length", _checked_edge(self.id, self.length))

    @property
    def is_loop(self) -> bool:
        return self.tail == self.head


def is_count(x) -> bool:
    """The count rule: an int, not a bool."""
    return isinstance(x, int) and not isinstance(x, bool)


def is_number(x) -> bool:
    """The number rule: an int or a float, not a bool, and finite (an int too big for a float is not)."""
    try:
        return (isinstance(x, float) or is_count(x)) and math.isfinite(x)
    except OverflowError:
        return False


def is_id(x) -> bool:
    """The id rule: a nonempty str."""
    return isinstance(x, str) and x != ""


def _check_vertex(vid, bc) -> None:
    """The Vertex rules: an id and a known boundary tag."""
    if not is_id(vid):
        raise ValidationError(f"vertex id must be a nonempty string, got {vid!r}")
    if bc not in (DIRICHLET, NATURAL):
        raise ValidationError(f"vertex {vid!r}: bc must be {DIRICHLET!r} or {NATURAL!r}, got {bc!r}")


def _checked_edge(eid, ln) -> float:
    """The Edge rules: an id and a positive number as length, returned as a float."""
    if not is_id(eid):
        raise ValidationError(f"edge id must be a nonempty string, got {eid!r}")
    if not (isinstance(ln, float) or is_count(ln)):
        raise NonPositiveLength(f"edge {eid!r}: length must be a number, got {ln!r}")
    if not (is_number(ln) and ln > 0):
        raise NonPositiveLength(f"edge {eid!r}: length must be positive and finite, got {ln!r}")
    return float(ln)


class MetricGraph:
    """Validated metric graph.  Construction raises on any malformed input."""

    def __init__(self, vertices: Iterable[Vertex], edges: Iterable[Edge]) -> None:
        """Read the objects' ids, tags, ends and lengths into _build; the objects are not kept."""
        vertices, edges = tuple(vertices), tuple(edges)
        try:
            lists = ([v.id for v in vertices], [v.bc for v in vertices], [e.id for e in edges],
                     [e.tail for e in edges], [e.head for e in edges], [e.length for e in edges])
        except AttributeError:
            _first_bad_row(vertices, edges, tuples=False)
            raise
        self._build(*lists)

    # -- validation ------------------------------------------------------

    def _build(self, vids: list, bcs: list, eids: list, tails: list, heads: list,
               lengths: list) -> "MetricGraph":
        """The one checked route from lists into a graph: a set-wide check of the entries,
        ids and ends, then _take; the first error is looked for only when the set-wide
        check fails, and the graph is built when there is none (it was too strict)."""
        try:
            index = dict(zip(vids, range(len(vids))))
            tail, head = [index[t] for t in tails], [index[h] for h in heads]
            good = (set(map(type, vids + eids)) <= {str} and "" not in index and "" not in eids
                    and len(index) == len(vids) and len(set(eids)) == len(eids)
                    and set(bcs) <= {DIRICHLET, NATURAL} and set(map(type, lengths)) <= {int, float}
                    and (not lengths or min(lengths) > 0 and sum(lengths, 0.0) < math.inf))  # NaN fails
        except (KeyError, TypeError, OverflowError):
            good = False
        if not good:  # with no error found, every id is a string and every end known
            _first_error(vids, bcs, eids, tails, heads, lengths)
            tail, head = [index[t] for t in tails], [index[h] for h in heads]
        dirichlet = np.array([bc == DIRICHLET for bc in bcs], dtype=bool)
        return self._take(index, eids, EdgeArrays(np.array(tail, dtype=np.int64), np.array(head, dtype=np.int64),
                                                 np.array(lengths, dtype=np.float64), dirichlet))

    def _take(self, index: dict[str, int], edge_ids, arrays: "EdgeArrays") -> "MetricGraph":
        """Hold vertex positions by id, edge ids and valid index arrays after the checks
        of a whole graph: a Dirichlet vertex, an edge, connectivity (isolated vertices too)."""
        if not arrays.dirichlet.any():
            raise EmptyDirichletSet("graph has no Dirichlet vertex")
        if not edge_ids:
            raise DisconnectedGraph("graph has no edges; a compact metric graph needs at least one")
        reached = _reached(arrays.tail.tolist(), arrays.head.tolist(), len(index), 0)
        if not all(reached):
            missing = sorted(v for v, r in zip(index, reached) if not r)
            raise DisconnectedGraph(f"graph is not connected; unreachable vertices {missing}")
        self.vertex_ids: tuple[str, ...] = tuple(index)
        self.edge_ids: tuple[str, ...] = tuple(edge_ids)
        self.arrays = arrays
        self._index = index
        return self

    def with_edge_lengths(self, lengths: list[float]) -> "MetricGraph":
        """The same ids, ends and boundary tags with edge k of length lengths[k].

        lengths is a list, a tuple or a 1-d array of one length per edge, else
        BadParameters; each is checked in edge order as Edge checks it."""
        if not (isinstance(lengths, (list, tuple)) or isinstance(lengths, np.ndarray) and lengths.ndim == 1):
            raise BadParameters(f"lengths must be a sequence of one length per edge, got {lengths!r}")
        if len(lengths) != len(self.edge_ids):
            raise BadParameters(f"need one length per edge: {len(self.edge_ids)} edges, got {len(lengths)} lengths")
        length = np.array([_checked_edge(eid, ln) for eid, ln in zip(self.edge_ids, lengths)], dtype=np.float64)
        g = MetricGraph.__new__(MetricGraph)
        g.vertex_ids, g.edge_ids, g._index = self.vertex_ids, self.edge_ids, self._index
        g.arrays = EdgeArrays(self.arrays.tail, self.arrays.head, length, self.arrays.dirichlet)
        return g

    # -- objects, built on demand ----------------------------------------

    @cached_property
    def vertices(self) -> tuple[Vertex, ...]:
        return tuple(map(Vertex, self.vertex_ids, [DIRICHLET if d else NATURAL for d in self.arrays.dirichlet.tolist()]))

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        a, vids = self.arrays, self.vertex_ids
        return tuple(map(Edge, self.edge_ids, [vids[t] for t in a.tail.tolist()], [vids[h] for h in a.head.tolist()],
                         a.length.tolist()))

    def __eq__(self, other: object) -> bool:
        """Same ids, boundary tags, ends and lengths in the same order."""
        return self.to_payload() == other.to_payload() if isinstance(other, MetricGraph) else NotImplemented

    def __hash__(self) -> int:
        return hash((self.vertex_ids, self.edge_ids))

    # -- queries ---------------------------------------------------------

    def _position(self, vid: str) -> int:
        try:
            return self._index[vid]
        except (KeyError, TypeError):
            raise UnknownVertex(f"no vertex {vid!r}") from None

    @cached_property
    def _edge_index(self) -> dict[str, int]:
        return dict(zip(self.edge_ids, range(len(self.edge_ids))))

    def _edge_position(self, eid: str) -> int:
        try:
            return self._edge_index[eid]
        except (KeyError, TypeError):
            raise UnknownEdge(f"no edge {eid!r}") from None

    def vertex(self, vid: str) -> Vertex:
        return self.vertices[self._position(vid)]

    def edge(self, eid: str) -> Edge:
        return self.edges[self._edge_position(eid)]

    @cached_property
    def dirichlet_vertices(self) -> tuple[str, ...]:
        return tuple(v for v, d in zip(self.vertex_ids, self.arrays.dirichlet.tolist()) if d)

    @cached_property
    def natural_vertices(self) -> tuple[str, ...]:
        return tuple(v for v, d in zip(self.vertex_ids, self.arrays.dirichlet.tolist()) if not d)

    def is_dirichlet(self, vid: str) -> bool:
        return bool(self.arrays.dirichlet[self._position(vid)])

    def total_length(self) -> float:
        return math.fsum(self.arrays.length.tolist())

    def _end_lengths(self, vid: str) -> np.ndarray:
        """Lengths of the edges at a vertex, one entry per end there (a loop has two)."""
        i, a = self._position(vid), self.arrays
        return np.concatenate((a.length[a.tail == i], a.length[a.head == i]))

    def degree(self, vid: str) -> int:
        """Combinatorial degree; a loop counts twice."""
        return len(self._end_lengths(vid))

    def metric_degree(self, vid: str) -> float:
        """Sum of incident edge lengths; a loop counts twice."""
        return math.fsum(self._end_lengths(vid).tolist())

    def is_tree(self) -> bool:
        # connected already; a connected multigraph is a tree iff |E| = |V| - 1
        # (a loop or parallel edge would force fewer than |V| - 1 remaining edges)
        return len(self.edge_ids) == len(self.vertex_ids) - 1

    def is_equilateral(self) -> bool:
        """Every edge length within 1e-9 relative of the longest."""
        lengths = self.arrays.length.tolist()
        lo, hi = min(lengths), max(lengths)
        return hi - lo <= 1e-9 * hi

    # -- distances and inradius -----------------------------------------

    def _dijkstra(self, sources: Iterable[int] | None = None, target: int = -1) -> list[float]:
        """Shortest-path distance from the nearest source, by default the nearest
        Dirichlet vertex, to every vertex, by index.

        With a target, the search stops once the target's distance is final.
        """
        a = self.arrays
        adj, ends = _adjacency(a.tail.tolist(), a.head.tolist(), len(self.vertex_ids))
        length = a.length.tolist()
        dist = [math.inf] * len(adj)
        heap: list[tuple[float, int]] = []
        for s in a.dirichlet.nonzero()[0].tolist() if sources is None else sources:
            dist[s] = 0.0
            heap.append((0.0, s))
        heapq.heapify(heap)
        while heap:
            d, u = heapq.heappop(heap)
            if u == target:
                break
            if d > dist[u]:
                continue
            for k in adj[u]:
                w, nd = ends[k] - u, d + length[k]
                if nd < dist[w]:
                    dist[w] = nd
                    heapq.heappush(heap, (nd, w))
        return dist

    def dirichlet_distances(self) -> dict[str, float]:
        """Exact multi-source shortest-path distance from every vertex to the Dirichlet set,
        by vertex id."""
        return dict(zip(self.vertex_ids, self._dijkstra()))

    def distance_between(self, u: str, w: str) -> float:
        """Exact shortest-path distance between two vertices."""
        i, j = self._position(u), self._position(w)
        return self._dijkstra([i], target=j)[j]

    def inradius(self) -> "PointWitness":
        """Largest distance to the Dirichlet set, with a witness point."""
        arr, d = self.arrays, np.array(self._dijkstra())
        du, dw, ln = d[arr.tail], d[arr.head], arr.length
        peak = 0.5 * (du + dw + ln)
        k = int(np.argmax(peak))
        offset = min(max(0.5 * (dw[k] - du[k] + ln[k]), 0.0), ln[k])
        return PointWitness(value=float(peak[k]), edge=self.edge_ids[k], offset=float(offset))

    # -- Dirichlet gluing and 2-edge-connectivity ------------------------

    def _quotient(self, rep: np.ndarray) -> "MetricGraph":
        """Vertex i identified with vertex rep[i], where rep[rep[i]] = rep[i].  Kept
        vertices keep their order and tags; edges keep their ids, order and lengths."""
        a, keep = self.arrays, rep == np.arange(len(rep))
        pos = np.cumsum(keep) - 1  # a kept vertex's position in the quotient
        index = {v: j for j, v in enumerate(v for v, k in zip(self.vertex_ids, keep.tolist()) if k)}
        return MetricGraph.__new__(MetricGraph)._take(
            index, self.edge_ids, EdgeArrays(pos[rep[a.tail]], pos[rep[a.head]], a.length, a.dirichlet[keep]))

    def _dirichlet_rep(self) -> np.ndarray:
        """Every Dirichlet vertex onto the first, every natural vertex onto itself."""
        d = self.arrays.dirichlet
        return np.where(d, np.argmax(d), np.arange(len(d)))

    def glue_dirichlet(self) -> "MetricGraph":
        """Identify all Dirichlet vertices into one.  Total length is unchanged."""
        return self._quotient(self._dirichlet_rep())

    def is_doubly_connected_after_glue(self) -> bool:
        """True when the graph, with V_D identified to a point, has no bridges."""
        arr, rep = self.arrays, self._dirichlet_rep()
        return not _has_bridge_in(rep[arr.tail], rep[arr.head], len(self.vertex_ids))

    # -- serialization ---------------------------------------------------

    def to_payload(self) -> dict:
        a, vids = self.arrays, self.vertex_ids
        return {
            "vertices": [{"id": v, "bc": DIRICHLET if d else NATURAL}
                         for v, d in zip(vids, a.dirichlet.tolist())],
            "edges": [
                {"id": e, "from": vids[t], "to": vids[h], "length": ln}
                for e, t, h, ln in zip(self.edge_ids, a.tail.tolist(), a.head.tolist(), a.length.tolist())
            ],
        }

    def dumps(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_payload(), indent=indent)


def _first_error(vids: list, bcs: list, eids: list, tails: list, heads: list, lengths: list) -> None:
    """Raise for the first bad entry: by the Vertex rules vertex by vertex, then by the
    Edge rules edge by edge, then a duplicate vertex id, then edge by edge a duplicate
    edge id or an unknown end."""
    for vid, bc in zip(vids, bcs):
        _check_vertex(vid, bc)
    for eid, ln in zip(eids, lengths):
        _checked_edge(eid, ln)
    known: set[str] = set()
    for vid in vids:
        if vid in known:
            raise DuplicateId(f"duplicate vertex id {vid!r}")
        known.add(vid)
    seen: set[str] = set()
    for eid, tail, head in zip(eids, tails, heads):
        if eid in seen:
            raise DuplicateId(f"duplicate edge id {eid!r}")
        seen.add(eid)
        for end in (tail, head):
            if not is_id(end) or end not in known:
                raise UnknownVertex(f"edge {eid!r} references unknown vertex {end!r}")


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


def _adjacency(tail: list[int], head: list[int], n_vertices: int) -> tuple[list[list[int]], list[int]]:
    """adj[u] lists, in edge order, each edge k that joins vertex u to another
    vertex, which is ends[k] - u.  Loops are left out."""
    adj: list[list[int]] = [[] for _ in range(n_vertices)]
    for k, (a, b) in enumerate(zip(tail, head)):
        if a != b:
            adj[a].append(k)
            adj[b].append(k)
    return adj, [a + b for a, b in zip(tail, head)]


def _reached(tail: list[int], head: list[int], n_vertices: int, start: int) -> list[bool]:
    """reached[i]: whether the edges k = (tail[k], head[k]) join vertex i to vertex start."""
    near: list[list[int]] = [[] for _ in range(n_vertices)]
    for a, b in zip(tail, head):
        near[a].append(b)
        near[b].append(a)
    reached, stack = [False] * n_vertices, [start]
    while stack:
        u = stack.pop()
        if not reached[u]:
            reached[u] = True
            stack.extend(near[u])
    return reached


def _has_bridge_in(tail: np.ndarray, head: np.ndarray, n_vertices: int) -> bool:
    """Whether the multigraph on vertices 0..n_vertices-1 with edges k = (tail[k],
    head[k]) has a bridge.  Loops are skipped; a parallel edge closes a cycle."""
    adj, ends = _adjacency(tail.tolist(), head.tolist(), n_vertices)
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
            for k in it:
                if k == in_edge:
                    continue
                w = ends[k] - u
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
    """Build a graph from (id, bc) and (id, tail, head, length) tuples, checked as
    from_payload checks its lists; no Vertex or Edge object is made."""
    vertices, edges = list(vertices), list(edges)
    try:
        vertices, edges = [(i, bc) for i, bc in vertices], [(i, t, h, ln) for i, t, h, ln in edges]
    except (TypeError, ValueError):  # an entry that does not unpack
        _first_bad_row(vertices, edges, tuples=True)
        raise
    vids, bcs = [v[0] for v in vertices], [v[1] for v in vertices]
    eids, tails, heads, lengths = ([e[k] for e in edges] for k in range(4))
    return MetricGraph.__new__(MetricGraph)._build(vids, bcs, eids, tails, heads, lengths)


def reorient(g: MetricGraph, edge_ids: Iterable[str]) -> MetricGraph:
    """Flip tail/head of the named edges.  The metric object is unchanged.  A str in
    place of the iterable of ids raises BadParameters, an unknown id UnknownEdge."""
    if isinstance(edge_ids, str):
        raise BadParameters(f"edge_ids must be an iterable of edge ids, got the string {edge_ids!r}")
    flip, a = [g._edge_position(eid) for eid in edge_ids], g.arrays
    tail, head = a.tail.copy(), a.head.copy()
    tail[flip], head[flip] = a.head[flip], a.tail[flip]
    return MetricGraph.__new__(MetricGraph)._take(g._index, g.edge_ids, EdgeArrays(tail, head, a.length, a.dirichlet))


def _first_malformed(verts: list, edges: list) -> None:
    """Raise for the first entry not an object with its keys, or with values the Vertex
    or Edge rules reject, in entry order."""
    for i, item in enumerate(verts):
        if not isinstance(item, dict) or "id" not in item or "bc" not in item:
            raise ValidationError(f"vertex entry {i} must be an object with 'id' and 'bc'")
        _check_vertex(item["id"], item["bc"])
    for i, item in enumerate(edges):
        if not isinstance(item, dict):
            raise ValidationError(f"edge entry {i} must be an object")
        for key in ("id", "from", "to", "length"):
            if key not in item:
                raise ValidationError(f"edge entry {i} is missing {key!r}")
        _checked_edge(item["id"], item["length"])


def _first_bad_row(vertices: list, edges: list, tuples: bool) -> None:
    """Raise for the first vertex, then edge, that is not a tuple of its fields (tuples)
    or an object with them as attributes, in entry order."""
    for what, rows, fields in (("vertex", vertices, ("id", "bc")), ("edge", edges, ("id", "tail", "head", "length"))):
        shape = f"{'a tuple' if tuples else 'an object with'} ({', '.join(fields)})"
        for i, row in enumerate(rows):
            if tuples:
                try:
                    ok = len(tuple(row)) == len(fields)
                except TypeError:  # not iterable
                    ok = False
            else:
                ok = all(hasattr(row, f) for f in fields)
            if not ok:
                raise ValidationError(f"{what} entry {i} must be {shape}, got {row!r}")


def from_payload(payload: dict) -> MetricGraph:
    """Parse the JSON interchange form, rejecting malformed entries."""
    if not isinstance(payload, dict):
        raise ValidationError("graph payload must be an object")
    for key in ("vertices", "edges"):
        if key not in payload or not isinstance(payload[key], list):
            raise ValidationError(f"graph payload needs a {key!r} list")
    verts, edges = payload["vertices"], payload["edges"]
    try:
        vids, bcs = [v["id"] for v in verts], [v["bc"] for v in verts]
        eids, tails, heads, lengths = ([e[key] for e in edges] for key in ("id", "from", "to", "length"))
    except (KeyError, TypeError):
        _first_malformed(verts, edges)
        raise
    return MetricGraph.__new__(MetricGraph)._build(vids, bcs, eids, tails, heads, lengths)


def loads(text: str) -> MetricGraph:
    try:
        payload = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer too long to parse
        raise ValidationError(f"invalid JSON: {exc}") from None
    return from_payload(payload)


def load(path) -> MetricGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())
