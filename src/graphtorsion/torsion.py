"""Torsion function and torsional rigidity of a metric graph.

The torsion function solves -v'' = 1 on every edge, vanishes at Dirichlet
vertices and satisfies continuity plus a zero-sum condition on inward
derivatives at natural vertices.  Its values at natural vertices come from a
small symmetric positive-definite vertex system; edgewise the function is the
quadratic v(x) = -x^2/2 + b x + c in the offset x from the edge tail.

Rigidity is computed two independent ways (vertex-system identity and exact
edgewise integration) and the two must agree to 1e-10 relative; a mismatch
raises rather than returning a number of unknown quality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

import numpy as np
import scipy.linalg

from .errors import (
    BadParameters,
    CrossCheckMismatch,
    SingularSystem,
    UnknownEdge,
    ValidationError,
    ZeroEnergy,
)
from .graph import DIRICHLET, MetricGraph

REL_TOL = 1e-10


@dataclass(frozen=True)
class DiscreteSystem:
    """Vertex system over the natural vertices.

    matrix is symmetric positive definite; solving matrix @ g = weight gives
    the vertex unknowns.  weight[v] is the metric degree (loops twice).  Each
    edge adds 1/length to the weighted graph Laplacian restricted to the
    natural vertices; a loop couples a vertex to itself and cancels.
    """

    order: tuple[str, ...]
    matrix: np.ndarray
    weight: np.ndarray


@dataclass(frozen=True)
class DiscreteTorsion:
    system: DiscreteSystem
    values: dict[str, float]
    discrete_rigidity: float


@dataclass(frozen=True)
class EdgePoly:
    """v(x) = -x^2/2 + b x + c for offsets x in [0, length] from the tail."""

    edge: str
    tail: str
    head: str
    length: float
    b: float
    c: float

    def value(self, x: float) -> float:
        return -0.5 * x * x + self.b * x + self.c

    def derivative(self, x: float) -> float:
        return self.b - x

    def integral(self) -> float:
        l = self.length
        return -(l ** 3) / 6.0 + 0.5 * self.b * l * l + self.c * l

    def energy(self) -> float:
        # integral of (b - x)^2 over [0, length]
        l = self.length
        return (self.b ** 3 - (self.b - l) ** 3) / 3.0


@dataclass(frozen=True)
class SupWitness:
    value: float
    edge: str
    offset: float


@dataclass(frozen=True)
class TorsionSolution:
    vertex_values: dict[str, float]
    edge_polys: tuple[EdgePoly, ...]
    rigidity: float
    sup: SupWitness
    kirchhoff_residual: float = 0.0
    discrete: DiscreteTorsion | None = field(default=None, compare=False)

    @cached_property
    def _poly_by_edge(self) -> dict[str, EdgePoly]:
        return {p.edge: p for p in self.edge_polys}

    def poly(self, edge_id: str) -> EdgePoly:
        try:
            return self._poly_by_edge[edge_id]
        except KeyError:
            raise UnknownEdge(f"no edge {edge_id!r} in solution") from None

    def value_at(self, edge_id: str, offset: float) -> float:
        return self.poly(edge_id).value(offset)


def assemble_discrete_system(g: MetricGraph) -> DiscreteSystem:
    arr = g.arrays
    order = g.natural_vertices
    n = len(order)
    unknown = np.full(len(g.vertices), n)  # n marks a Dirichlet end
    unknown[~arr.dirichlet] = np.arange(n)
    proper = arr.tail != arr.head  # a loop cancels from the matrix
    i, j = unknown[arr.tail[proper]], unknown[arr.head[proper]]
    mu = 1.0 / arr.length[proper]
    # entries (i,i), (j,j), (i,j), (j,i) edge by edge, so each entry sums its terms
    # in edge order; those on a Dirichlet end are dropped
    rows = np.array([i, j, i, j]).T.ravel()
    cols = np.array([i, j, j, i]).T.ravel()
    vals = np.array([mu, mu, -mu, -mu]).T.ravel()
    keep = (rows < n) & (cols < n)
    mat = np.zeros((n, n))
    np.add.at(mat, (rows[keep], cols[keep]), vals[keep])
    weight = np.array([g.metric_degree(v) for v in order])
    return DiscreteSystem(order, mat, weight)


def solve_discrete_torsion(g: MetricGraph) -> DiscreteTorsion:
    sys = assemble_discrete_system(g)
    n = len(sys.order)
    if n == 0:
        return DiscreteTorsion(sys, {}, 0.0)
    try:
        cho = scipy.linalg.cho_factor(sys.matrix)
        sol = scipy.linalg.cho_solve(cho, sys.weight)
    except scipy.linalg.LinAlgError as exc:
        raise SingularSystem(f"vertex system not positive definite: {exc}") from None
    if not np.all(np.isfinite(sol)):
        raise SingularSystem("vertex system produced non-finite values")
    values = {vid: float(sol[i]) for i, vid in enumerate(sys.order)}
    return DiscreteTorsion(sys, values, float(sys.weight @ sol))


def torsion_function(g: MetricGraph) -> TorsionSolution:
    """Solve for the torsion function and package the edgewise quadratics."""
    disc = solve_discrete_torsion(g)
    arr = g.arrays
    ln = arr.length
    v = np.zeros(len(g.vertices))
    v[~arr.dirichlet] = [0.5 * disc.values[vid] for vid in g.natural_vertices]
    vt, vh = v[arr.tail], v[arr.head]
    b = 0.5 * ln + (vh - vt) / ln
    polys = tuple(
        EdgePoly(e.id, e.tail, e.head, e.length, bk, ck)
        for e, bk, ck in zip(g.edges, b.tolist(), vt.tolist())
    )
    vv = dict(zip([vtx.id for vtx in g.vertices], v.tolist()))

    # inward derivative sums, added edge by edge: v'(0) = b at the tail, -v'(l) at the head
    flux = np.bincount(np.array([arr.tail, arr.head]).T.ravel(), np.array([b, ln - b]).T.ravel(),
                       minlength=len(v))
    residual = float(np.abs(flux[~arr.dirichlet]).max(initial=0.0))

    # v peaks on each edge at the vertex x = b of the parabola, clamped to [0, l]
    x = np.minimum(np.maximum(b, 0.0), ln)
    peak = -0.5 * x * x + b * x + vt
    k = int(np.argmax(peak))
    best = SupWitness(float(peak[k]), polys[k].edge, float(x[k]))

    t_edge = math.fsum(p.integral() for p in polys)
    t_formula = math.fsum(e.length ** 3 for e in g.edges) / 12.0 + 0.25 * disc.discrete_rigidity
    _require_close("rigidity (edgewise integral)", t_edge, "rigidity (vertex identity)", t_formula)
    scale = max(1.0, best.value)
    if residual > REL_TOL * scale:
        raise CrossCheckMismatch(
            f"Kirchhoff residual {residual:.3e} exceeds {REL_TOL * scale:.3e}"
        )
    return TorsionSolution(vv, polys, t_edge, best, residual, disc)


def _require_close(name_a: str, a: float, name_b: str, b: float) -> None:
    if abs(a - b) > REL_TOL * max(1.0, abs(a), abs(b)):
        raise CrossCheckMismatch(f"{name_a} = {a!r} disagrees with {name_b} = {b!r}")


def rigidity(sol: TorsionSolution) -> float:
    """Total integral of the torsion function, cross-checked along every route."""
    t_edge = math.fsum(p.integral() for p in sol.edge_polys)
    t_energy = math.fsum(p.energy() for p in sol.edge_polys)
    _require_close("rigidity (integral of v)", t_edge, "rigidity (energy of v)", t_energy)
    if sol.discrete is not None:
        t_formula = (
            math.fsum(p.length ** 3 for p in sol.edge_polys) / 12.0
            + 0.25 * sol.discrete.discrete_rigidity
        )
        _require_close("rigidity (integral of v)", t_edge, "rigidity (vertex identity)", t_formula)
    _require_close("rigidity (integral of v)", t_edge, "stored rigidity", sol.rigidity)
    return sol.rigidity


def dirichlet_energy(sol: TorsionSolution) -> float:
    return math.fsum(p.energy() for p in sol.edge_polys)


# -- piecewise-quadratic test functions -----------------------------------


@dataclass(frozen=True)
class PiecewiseQuadratic:
    """Edgewise u(x) = a x^2 + b x + c, keyed by edge id, offsets from the tail."""

    coeffs: Mapping[str, tuple[float, float, float]]

    def value(self, g: MetricGraph, edge_id: str, x: float) -> float:
        a, b, c = self.coeffs[edge_id]
        return a * x * x + b * x + c

    @staticmethod
    def from_vertex_values(
        g: MetricGraph,
        values: Mapping[str, float],
        curvature: Mapping[str, float] | None = None,
    ) -> "PiecewiseQuadratic":
        """Continuous function matching the given vertex values, with optional
        per-edge quadratic coefficient (default 0, i.e. edgewise linear)."""
        coeffs = {}
        for e in g.edges:
            a = 0.0 if curvature is None else float(curvature.get(e.id, 0.0))
            vt, vh = values[e.tail], values[e.head]
            b = (vh - vt) / e.length - a * e.length
            coeffs[e.id] = (a, b, vt)
        return PiecewiseQuadratic(coeffs)


def polya_quotient(g: MetricGraph, u: PiecewiseQuadratic) -> float:
    """(integral of u)^2 / (integral of u'^2); maximized by the torsion function.

    The test function must be continuous across vertices and vanish at the
    Dirichlet set, both checked here to 1e-9 of its endpoint scale.
    """
    ends: dict[str, list[float]] = {v.id: [] for v in g.vertices}
    for e in g.edges:
        if e.id not in u.coeffs:
            raise BadParameters(f"test function has no coefficients for edge {e.id!r}")
        a, b, c = u.coeffs[e.id]
        ends[e.tail].append(c)
        ends[e.head].append(a * e.length * e.length + b * e.length + c)
    scale = max(1.0, max(abs(x) for vals in ends.values() for x in vals))
    for v in g.vertices:
        vals = ends[v.id]
        if v.bc == DIRICHLET:
            vals = vals + [0.0]
        if max(vals) - min(vals) > 1e-9 * scale:
            raise ValidationError(
                f"test function discontinuous or nonzero on Dirichlet vertex {v.id!r}"
            )
    total = 0.0
    energy = 0.0
    for e in g.edges:
        a, b, c = u.coeffs[e.id]
        l = e.length
        total += a * l ** 3 / 3.0 + b * l * l / 2.0 + c * l
        energy += 4.0 * a * a * l ** 3 / 3.0 + 2.0 * a * b * l * l + b * b * l
    if energy <= 0.0 or energy < 1e-28 * scale * scale:
        raise ZeroEnergy("test function has (numerically) zero Dirichlet energy")
    return total * total / energy


def edgewise_dirichlet_quadratics(g: MetricGraph) -> PiecewiseQuadratic:
    """The test function vanishing at every vertex that solves -u'' = 1 edgewise."""
    return PiecewiseQuadratic({e.id: (-0.5, 0.5 * e.length, 0.0) for e in g.edges})


# -- serialization --------------------------------------------------------


def solution_to_payload(sol: TorsionSolution) -> dict:
    return {
        "vertex_values": dict(sol.vertex_values),
        "edges": [
            {
                "id": p.edge,
                "tail": p.tail,
                "head": p.head,
                "length": p.length,
                "b": p.b,
                "c": p.c,
            }
            for p in sol.edge_polys
        ],
        "rigidity": sol.rigidity,
        "sup": {"value": sol.sup.value, "edge": sol.sup.edge, "offset": sol.sup.offset},
        "kirchhoff_residual": sol.kirchhoff_residual,
    }


def solution_from_payload(payload: dict) -> TorsionSolution:
    try:
        polys = tuple(
            EdgePoly(d["id"], d["tail"], d["head"], d["length"], d["b"], d["c"])
            for d in payload["edges"]
        )
        sup = SupWitness(**payload["sup"])
        return TorsionSolution(
            dict(payload["vertex_values"]),
            polys,
            payload["rigidity"],
            sup,
            payload.get("kirchhoff_residual", 0.0),
        )
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed torsion solution payload: {exc}") from None
