"""Graph surgery operations with their predicted effect on torsional rigidity.

Each operation is a small frozen dataclass; apply() validates the operation's
precondition against the concrete graph's ids and arrays and builds a new graph
from ids and arrays, never mutating the input.  predicted_direction() reports
which way the rigidity is guaranteed to move.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Union

import numpy as np

from .errors import BadParameters, DuplicateId, NonPositiveLength, PreconditionViolated, UnknownEdge, ValidationError
from .graph import (DIRICHLET, NATURAL, EdgeArrays, MetricGraph, _checked_edge, _first_bad_row, _reached, is_id,
                    is_number)
from .torsion import TorsionSolution, _solved


@dataclass(frozen=True)
class Glue:
    """Identify two vertices carrying the same condition kind."""

    v: str
    w: str


@dataclass(frozen=True)
class AddDirichlet:
    v: str


@dataclass(frozen=True)
class AttachPendant:
    """Graft a purely natural subgraph onto one natural vertex of the host.

    vertices lists the pendant's vertex ids (all natural), edges its
    (id, tail, head, length) tuples over those ids; the pendant vertex
    named by join is identified with the host vertex named by at.  The other
    pendant vertices, then the pendant edges, follow the host's in this order.
    """

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str, str, float], ...]
    join: str
    at: str


@dataclass(frozen=True)
class AddEdge:
    u: str
    w: str
    length: float
    edge_id: str | None = None


@dataclass(frozen=True)
class Lengthen:
    edge: str
    delta: float


@dataclass(frozen=True)
class Scale:
    factor: float


@dataclass(frozen=True)
class UnfoldParallel:
    """Replace two parallel edges by the first, in its place, carrying their total length."""

    first: str
    second: str


SurgeryOp = Union[Glue, AddDirichlet, AttachPendant, AddEdge, Lengthen, Scale, UnfoldParallel]


class Direction(str, Enum):
    NON_INCREASING = "non_increasing"
    NON_DECREASING = "non_decreasing"
    STRICT_INCREASE = "strict_increase"
    STRICT_DECREASE = "strict_decrease"
    EXACT_SCALE = "exact_scale"


@dataclass(frozen=True)
class Prediction:
    direction: Direction
    factor: float | None = None


def _need_vertices(g: MetricGraph, *vids: str) -> None:
    for vid in vids:
        if not (is_id(vid) and vid in g._index):
            raise PreconditionViolated(f"vertex {vid!r} does not exist")


def _need_edge(g: MetricGraph, eid: str) -> int:
    try:
        return g._edge_position(eid)
    except UnknownEdge:
        raise PreconditionViolated(f"edge {eid!r} does not exist") from None


def apply(g: MetricGraph, op: SurgeryOp) -> MetricGraph:
    try:
        build, check, _ = _OPS[type(op)]
    except KeyError:
        raise PreconditionViolated(f"unknown operation {op!r}") from None
    check(g, op)
    return build(g, op)


def predicted_direction(
    op: SurgeryOp,
    g: MetricGraph | None = None,
    solution: TorsionSolution | None = None,
) -> Prediction | None:
    """Guaranteed direction of the rigidity change, or None when uncertified.

    None also where apply() refuses op: a bad AddEdge length, Lengthen delta
    or Scale factor always, anything else when the graph is known (g or the
    solution's), by apply()'s own check.  AddEdge only carries a guarantee
    when the torsion takes equal values at the two endpoints, to 1e-9 of
    max(1, sup v); pass the graph (or a solved torsion) to certify that.  A
    solution given with a graph must be of that graph or of an equal one; one
    of another graph raises BadParameters.
    """
    try:
        _, check, direction = _OPS[type(op)]
    except KeyError:
        return None
    graph = solution.graph if g is None and solution is not None else g
    try:
        if type(op) in _AMOUNT:
            _check_amount(op)
        if graph is not None:
            check(graph, op)
    except (PreconditionViolated, ValidationError):
        return None
    if isinstance(op, Scale):
        return Prediction(direction, op.factor ** 3)
    if isinstance(op, AddEdge) and op.u != op.w:
        if graph is None:
            return None
        solution = _solved(graph, solution)
        vu, vw = solution.values[graph._position(op.u)], solution.values[graph._position(op.w)]
        if not abs(vu - vw) <= 1e-9 * max(1.0, solution.sup.value):
            return None
    return Prediction(direction)


# -- the individual operations --------------------------------------------
# Each has a check, which raises where apply() refuses the operation and
# builds no graph, and a builder for graphs that passed it.


def _check_glue(g: MetricGraph, op: Glue) -> None:
    if op.v == op.w:
        raise PreconditionViolated("glue needs two distinct vertices")
    _need_vertices(g, op.v, op.w)
    if g.is_dirichlet(op.v) != g.is_dirichlet(op.w):
        bcs = (DIRICHLET, NATURAL) if g.is_dirichlet(op.v) else (NATURAL, DIRICHLET)
        raise PreconditionViolated(f"glue needs matching conditions, got {bcs[0]} and {bcs[1]}")


def _glue(g: MetricGraph, op: Glue) -> MetricGraph:
    rep = np.arange(len(g.vertex_ids))
    rep[g._position(op.w)] = g._position(op.v)
    return g._quotient(rep)


def _check_dirichlet(g: MetricGraph, op: AddDirichlet) -> None:
    _need_vertices(g, op.v)
    if g.is_dirichlet(op.v):
        raise PreconditionViolated(f"vertex {op.v!r} is already Dirichlet")


def _add_dirichlet(g: MetricGraph, op: AddDirichlet) -> MetricGraph:
    a, d = g.arrays, g.arrays.dirichlet.copy()
    d[g._position(op.v)] = True
    return MetricGraph.__new__(MetricGraph)._take(g._index, g.edge_ids, EdgeArrays(a.tail, a.head, a.length, d))


def _pendant_entries(op: AttachPendant) -> None:
    """ValidationError naming the first pendant vertex that is not an id, or the
    first edge that is not a tuple (id, tail, head, length) with ids at its
    ends (graph._first_bad_row), before any rule unpacks or hashes them."""
    try:
        vertices, edges = list(op.vertices), list(op.edges)
    except TypeError:  # not iterable
        raise ValidationError(f"pendant vertices and edges must be lists, got {op.vertices!r} and {op.edges!r}"
                              ) from None
    for i, vid in enumerate(vertices):
        if not is_id(vid):
            raise ValidationError(f"pendant vertex entry {i} must be a nonempty string, got {vid!r}")
    _first_bad_row([], edges, tuples=True)
    for i, (_, tail, head, _) in enumerate(edges):
        if not (is_id(tail) and is_id(head)):
            raise ValidationError(f"pendant edge entry {i} must join two vertex ids, got {edges[i]!r}")


def _check_pendant(g: MetricGraph, op: AttachPendant) -> None:
    _pendant_entries(op)
    _need_vertices(g, op.at)
    if g.is_dirichlet(op.at):
        raise PreconditionViolated("pendant must meet the host at a natural vertex")
    if op.join not in op.vertices:
        raise PreconditionViolated(f"join vertex {op.join!r} is not a pendant vertex")
    local, eids = {x: i for i, x in enumerate(op.vertices)}, [e[0] for e in op.edges]  # pendant positions
    if not all(map(is_id, eids)):
        raise ValidationError(f"pendant edge ids must be nonempty strings, got {eids!r}")
    if len(local) < len(op.vertices) or len(set(eids)) < len(eids):
        raise DuplicateId(f"pendant ids repeat: vertices {list(op.vertices)}, edges {eids}")
    clash = ((local.keys() - {op.join}) & g._index.keys()) | (set(eids) & g._edge_index.keys())
    if clash:
        raise PreconditionViolated(f"pendant ids collide with host ids: {sorted(clash)}")
    for eid, t, h, length in op.edges:
        if t not in local or h not in local:
            raise PreconditionViolated(f"pendant edge {eid!r} leaves the pendant vertex set")
        _checked_edge(eid, length)
    # the host is connected, so the new graph is when every pendant vertex reaches join
    tail, head = [local[e[1]] for e in op.edges], [local[e[2]] for e in op.edges]
    if not all(_reached(tail, head, len(local), local[op.join])):
        raise PreconditionViolated("pendant subgraph is not connected to its join vertex")


def _attach_pendant(g: MetricGraph, op: AttachPendant) -> MetricGraph:
    a, n, new = g.arrays, len(g.vertex_ids), [x for x in op.vertices if x != op.join]
    index = {**g._index, **dict(zip(new, range(n, n + len(new))))}
    pos = lambda x: g._position(op.at) if x == op.join else index[x]  # the join may share a host vertex's id
    tail, head = (np.array([pos(e[k]) for e in op.edges], dtype=np.int64) for k in (1, 2))
    arrays = EdgeArrays(np.concatenate((a.tail, tail)), np.concatenate((a.head, head)),
                        np.concatenate((a.length, [_checked_edge(e[0], e[3]) for e in op.edges])),
                        np.concatenate((a.dirichlet, np.zeros(len(new), dtype=bool))))
    return MetricGraph.__new__(MetricGraph)._take(index, g.edge_ids + tuple(e[0] for e in op.edges), arrays)


def _check_add_edge(g: MetricGraph, op: AddEdge) -> None:
    _need_vertices(g, op.u, op.w)
    _check_amount(op)
    if op.edge_id is not None:
        if not is_id(op.edge_id):
            raise ValidationError(f"edge id must be a nonempty string, got {op.edge_id!r}")
        if op.edge_id in g._edge_index:
            raise PreconditionViolated(f"edge id {op.edge_id!r} already in use")


def _add_edge(g: MetricGraph, op: AddEdge) -> MetricGraph:
    eid = op.edge_id
    if eid is None:
        k = len(g.edge_ids)
        while f"added{k}" in g._edge_index:
            k += 1
        eid = f"added{k}"
    a = g.arrays
    arrays = EdgeArrays(np.append(a.tail, g._position(op.u)), np.append(a.head, g._position(op.w)),
                        np.append(a.length, _checked_edge(eid, op.length)), a.dirichlet)
    return MetricGraph.__new__(MetricGraph)._take(g._index, g.edge_ids + (eid,), arrays)


def _check_lengthen(g: MetricGraph, op: Lengthen) -> None:
    k = _need_edge(g, op.edge)
    _check_amount(op)
    if not math.isfinite(float(g.arrays.length[k]) + op.delta):
        raise NonPositiveLength(f"edge {op.edge!r}: lengthening by {op.delta!r} overflows its length")


def _lengthen(g: MetricGraph, op: Lengthen) -> MetricGraph:
    length = g.arrays.length.copy()
    length[g._edge_position(op.edge)] += op.delta
    return g.with_edge_lengths(length.tolist())


def _check_scale(g: MetricGraph, op: Scale) -> None:
    _check_amount(op)
    c, length = op.factor, g.arrays.length
    if not (math.isfinite(c * float(length.max())) and c * float(length.min()) > 0.0):
        raise NonPositiveLength(f"scaling by {op.factor!r} takes an edge length out of the positive floats")


def _scale(g: MetricGraph, op: Scale) -> MetricGraph:
    return g.with_edge_lengths((op.factor * g.arrays.length).tolist())


def _check_unfold(g: MetricGraph, op: UnfoldParallel) -> None:
    if op.first == op.second:
        raise PreconditionViolated("unfold needs two distinct edges")
    i, j, a = _need_edge(g, op.first), _need_edge(g, op.second), g.arrays
    if {a.tail[i], a.head[i]} != {a.tail[j], a.head[j]}:
        raise PreconditionViolated(f"edges {op.first!r} and {op.second!r} do not share both endpoints")
    if not math.isfinite(float(a.length[i]) + float(a.length[j])):
        raise NonPositiveLength(f"edges {op.first!r} and {op.second!r}: their total length overflows")


def _unfold(g: MetricGraph, op: UnfoldParallel) -> MetricGraph:
    i, j, a = g._edge_position(op.first), g._edge_position(op.second), g.arrays
    length = a.length.copy()
    length[i] += length[j]
    arrays = EdgeArrays(np.delete(a.tail, j), np.delete(a.head, j), np.delete(length, j), a.dirichlet)
    return MetricGraph.__new__(MetricGraph)._take(g._index, g.edge_ids[:j] + g.edge_ids[j + 1:], arrays)


# builder, check and rigidity direction per operation; AddEdge's direction
# holds only when certified
_OPS = {
    Glue: (_glue, _check_glue, Direction.NON_INCREASING),
    AddDirichlet: (_add_dirichlet, _check_dirichlet, Direction.STRICT_DECREASE),
    AttachPendant: (_attach_pendant, _check_pendant, Direction.NON_DECREASING),
    AddEdge: (_add_edge, _check_add_edge, Direction.NON_DECREASING),
    Lengthen: (_lengthen, _check_lengthen, Direction.STRICT_INCREASE),
    Scale: (_scale, _check_scale, Direction.EXACT_SCALE),
    UnfoldParallel: (_unfold, _check_unfold, Direction.STRICT_INCREASE),
}
# the numeric field of each operation that has one
_AMOUNT = {AddEdge: "length", Lengthen: "delta", Scale: "factor"}


def _check_amount(op: AddEdge | Lengthen | Scale) -> None:
    """PreconditionViolated unless the operation's amount is a positive number (graph.is_number)."""
    name = _AMOUNT[type(op)]
    if not (is_number(getattr(op, name)) and getattr(op, name) > 0):
        raise PreconditionViolated(f"{type(op).__name__} needs a positive finite {name}, got {getattr(op, name)!r}")


# -- reduction to a pumpkin chain -----------------------------------------

# Largest chain reduce_to_pumpkin_chain builds, the budget of spectral.MAX_MESH_NODES:
# star(2000) with distinct lengths needs 4,000,000 edges, 11 s to build; star(4000) runs out of memory.
MAX_CHAIN_EDGES = 2_000_000


def reduce_to_pumpkin_chain(g: MetricGraph) -> MetricGraph:
    """Collapse the graph onto a pumpkin chain with one Dirichlet endpoint.

    All Dirichlet vertices are glued to a single vertex, then every level set
    of the distance function at a vertex distance or an edge interior peak is
    glued to a point.  Every edge piece between consecutive levels is monotone
    in distance, so the quotient is a genuine pumpkin chain; the inradius and
    the total length are preserved and the rigidity can only drop.  The
    chain's edges are counted first: more than MAX_CHAIN_EDGES raises
    BadParameters (a star of k distinct lengths needs about k^2).
    """
    arr, nv = g.arrays, len(g.vertex_ids)
    dist = np.array(g._dijkstra())  # gluing the Dirichlet set changes none
    values = np.concatenate((dist, 0.5 * (dist[arr.tail] + dist[arr.head] + arr.length)))
    raw = np.sort(values).tolist()
    tol = 1e-9 * max(raw[-1], 1e-300)
    levels: list[float] = []
    for x in raw:
        if not levels or x - levels[-1] > tol:
            levels.append(x)
    grid = np.array(levels)
    at = np.minimum(np.searchsorted(grid, values - tol), len(levels) - 1)
    if (np.abs(grid[at] - values) > tol).any():
        raise AssertionError("distance value missed the level grid")
    # each edge runs up from both ends to its peak: one strand per level gap crossed
    peak, steps = at[nv:], np.zeros(len(levels), dtype=np.int64)
    for lo in (at[arr.tail], at[arr.head]):
        np.add.at(steps, lo, 1)
        np.add.at(steps, np.maximum(peak, lo), -1)
    mult = np.cumsum(steps)[:-1].tolist()
    if sum(mult) > MAX_CHAIN_EDGES:
        raise BadParameters(
            f"pumpkin chain needs {sum(mult)} edges, more than the {MAX_CHAIN_EDGES} allowed"
        )
    tail = np.repeat(np.arange(len(mult)), mult)
    arrays = EdgeArrays(tail, tail + 1, np.repeat(np.diff(grid), mult), np.arange(len(levels)) == 0)
    eids = [f"r{j}_{k}" for j, m in enumerate(mult) for k in range(m)]
    return MetricGraph.__new__(MetricGraph)._take({f"q{j}": j for j in range(len(levels))}, eids, arrays)
