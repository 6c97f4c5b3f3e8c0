"""Torsion function and torsional rigidity of a metric graph.

The torsion function solves -v'' = 1 on every edge, vanishes at Dirichlet
vertices and satisfies continuity plus a zero-sum condition on inward
derivatives at natural vertices.  Edgewise it is the quadratic
v(x) = -x^2/2 + b x + c in the offset x from the edge tail; its values at the
natural vertices come from one symmetric positive-definite vertex system, the
weighted graph Laplacian over the natural vertices, held as a sparse matrix.

The vertex system is factored once by a sparse LU in symmetric mode: a
minimum-degree ordering of A + A^T and no pivoting, in effect a
minimum-degree LDL^T, so memory is linear in |V| on tree-like graphs.  The
first solve is then refined with the same factor.  Each step takes the
residual edge by edge from the fluxes (x_t - x_h)/l, which subtract nearby
values before dividing, where A @ x would add terms of widely different
lengths and lose the small ones; it solves for the correction and adds it.
Refinement stops once a correction no longer changes the float64 solution
(max|d| <= 2^-52 max|x|) or after MAX_REFINE steps.

Rigidity has three independent routes: exact edgewise integration of v, the
vertex-system identity, and the Dirichlet energy of v.  torsion_function checks
the integral against the vertex identity and the Kirchhoff residual;
rigidity() adds the energy route.  Each check holds to REL_TOL relative, and a
mismatch raises rather than returning a number of unknown quality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .errors import (
    BadParameters,
    CrossCheckMismatch,
    SingularSystem,
    UnknownEdge,
    ValidationError,
    ZeroEnergy,
)
from .graph import DIRICHLET, MetricGraph, PointWitness

REL_TOL = 1e-10
MAX_REFINE = 4  # refinement steps after the first solve; past them the cross-checks decide
EPS = 2.0 ** -52  # float64 machine epsilon: a smaller relative correction changes nothing


@dataclass(frozen=True)
class SymPattern:
    """Sparsity pattern of symmetric n x n CSC matrices summed over pairs (i[k], j[k]).

    Pair k adds diag[k] at (i,i) and (j,j) and off[k] at (i,j) and (j,i);
    index n marks an eliminated end, whose entries are dropped.  The entries
    are keyed by (column, row), sorted once with a stable argsort, and each
    fill sums them with np.add.reduceat, so every matrix built on the pattern
    has sorted indices, no duplicates and the same structure.
    """

    n: int
    src: np.ndarray  # pair term of each kept entry, in (column, row) order
    first: np.ndarray  # where each distinct entry opens in src
    indices: np.ndarray
    indptr: np.ndarray

    @classmethod
    def build(cls, n: int, i: np.ndarray, j: np.ndarray) -> "SymPattern":
        rows = np.concatenate((i, j, i, j))
        cols = np.concatenate((i, j, j, i))
        keep = ((rows < n) & (cols < n)).nonzero()[0]
        key = cols[keep] * n + rows[keep]
        del rows, cols
        perm = key.argsort(kind="stable")
        key = key[perm]
        src = keep[perm]
        opens = np.empty(len(key), dtype=bool)  # where a new (column, row) entry begins
        opens[:1] = True
        np.not_equal(key[1:], key[:-1], out=opens[1:])
        first = opens.nonzero()[0]
        key = key[first]
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.bincount(key // n, minlength=n).cumsum(out=indptr[1:])
        indices = (key % n).astype(np.int32)
        return cls(n, src, first, indices, indptr)

    def fill(self, diag: np.ndarray, off: np.ndarray) -> np.ndarray:
        """The data array of the matrix with pair terms diag and off."""
        return np.add.reduceat(np.concatenate((diag, diag, off, off))[self.src], self.first)

    def matrix(self, diag: np.ndarray, off: np.ndarray) -> scipy.sparse.csc_array:
        return scipy.sparse.csc_array((self.fill(diag, off), self.indices, self.indptr),
                                      shape=(self.n, self.n), copy=False)

    @cached_property
    def diagonal(self) -> np.ndarray:
        """Position in the data array of entry (c, c), for each column c."""
        cols = np.repeat(np.arange(self.n, dtype=np.int32), np.diff(self.indptr))
        return (self.indices == cols).nonzero()[0]


@dataclass(frozen=True)
class DiscreteSystem:
    """Vertex system over the natural vertices.

    matrix is symmetric positive definite, in CSC form with sorted indices and
    no duplicates; solving matrix @ g = weight gives the vertex unknowns.
    weight[v] is the metric degree (loops twice).  Each edge adds 1/length to
    the weighted graph Laplacian restricted to the natural vertices; a loop
    couples a vertex to itself and cancels.  tail[k] and head[k] are the
    unknowns at the ends of edge k, len(order) at a Dirichlet end, and
    length[k] its length.  pattern holds the matrix's structure over the
    non-loop edges, for other matrices of the same graph (the secular matrix).
    """

    order: tuple[str, ...]
    matrix: scipy.sparse.csc_array
    weight: np.ndarray
    tail: np.ndarray
    head: np.ndarray
    length: np.ndarray
    pattern: SymPattern

    def residual(self, x: np.ndarray) -> np.ndarray:
        """weight - matrix @ x[:n], summed from the edge fluxes; x[n] must be 0."""
        n = len(self.order)
        f = (x[self.tail] - x[self.head]) / self.length
        flux = np.bincount(self.tail, f, minlength=n + 1) - np.bincount(self.head, f, minlength=n + 1)
        return self.weight - flux[:n]


@dataclass(frozen=True)
class DiscreteTorsion:
    """values solves system.matrix @ values = system.weight (float64, indexed like
    system.order); the torsion function takes half of it at each natural vertex."""

    system: DiscreteSystem
    values: np.ndarray
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
class TorsionSolution:
    vertex_values: dict[str, float]
    edge_polys: tuple[EdgePoly, ...]
    rigidity: float
    sup: PointWitness
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


def assemble_discrete_system(g: MetricGraph) -> DiscreteSystem:
    arr = g.arrays
    order = g.natural_vertices
    n = len(order)
    unknown = np.full(len(g.vertices), n)  # n marks a Dirichlet end
    unknown[~arr.dirichlet] = np.arange(n)
    tail, head = unknown[arr.tail], unknown[arr.head]
    weight = (np.bincount(tail, arr.length, minlength=n + 1)
              + np.bincount(head, arr.length, minlength=n + 1))[:n]
    proper = tail != head  # a loop cancels from the matrix
    pattern = SymPattern.build(n, tail[proper], head[proper])
    mu = 1.0 / arr.length[proper]
    return DiscreteSystem(order, pattern.matrix(mu, -mu), weight, tail, head, arr.length, pattern)


def symmetric_lu(matrix: scipy.sparse.csc_array) -> scipy.sparse.linalg.SuperLU:
    """splu in symmetric mode: a minimum-degree ordering of A + A^T and
    diagonal pivots, in effect LDL^T.  Only an exactly zero diagonal pivot
    moves off the diagonal (perm_r then differs from perm_c); RuntimeError
    when the matrix is exactly singular."""
    return scipy.sparse.linalg.splu(matrix, permc_spec="MMD_AT_PLUS_A",
                                   diag_pivot_thresh=0.0, options={"SymmetricMode": True})


def solve_discrete_torsion(g: MetricGraph) -> DiscreteTorsion:
    sys = assemble_discrete_system(g)
    n = len(sys.order)
    if n == 0:
        return DiscreteTorsion(sys, np.zeros(0), 0.0)
    try:
        lu = symmetric_lu(sys.matrix)
    except RuntimeError as exc:
        raise SingularSystem(f"vertex system is singular: {exc}") from None
    x = np.zeros(n + 1)  # x[n] = 0 is the value at every Dirichlet end
    sol = x[:n]
    sol += lu.solve(sys.weight)
    negligible = EPS * np.abs(sol).max()
    for _ in range(MAX_REFINE):
        d = lu.solve(sys.residual(x))
        sol += d
        if not np.abs(d).max() > negligible:  # a NaN stops here too
            break
    if not np.isfinite(sol).all():
        raise SingularSystem("vertex system produced non-finite values")
    return DiscreteTorsion(sys, sol, float(sys.weight @ sol))


def torsion_function(g: MetricGraph) -> TorsionSolution:
    """Solve for the torsion function and package the edgewise quadratics."""
    disc = solve_discrete_torsion(g)
    sys = disc.system
    n = len(sys.order)
    arr = g.arrays
    ln = arr.length
    v = np.zeros(len(g.vertices))
    v[~arr.dirichlet] = 0.5 * disc.values
    vt, vh = v[arr.tail], v[arr.head]
    b = 0.5 * ln + (vh - vt) / ln
    polys = tuple(
        EdgePoly(e.id, e.tail, e.head, e.length, bk, ck)
        for e, bk, ck in zip(g.edges, b.tolist(), vt.tolist())
    )
    vv = dict(zip([vtx.id for vtx in g.vertices], v.tolist()))

    # inward derivative sums at the natural vertices: v'(0) = b at the tail, -v'(l) at the head
    flux = np.bincount(sys.tail, b, minlength=n + 1) + np.bincount(sys.head, ln - b, minlength=n + 1)
    residual = float(np.abs(flux[:n]).max(initial=0.0))

    # v peaks on each edge at the vertex x = b of the parabola, clamped to [0, l]
    x = np.minimum(np.maximum(b, 0.0), ln)
    peak = -0.5 * x * x + b * x + vt
    k = int(np.argmax(peak))
    best = PointWitness(float(peak[k]), polys[k].edge, float(x[k]))

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
        sup = PointWitness(**payload["sup"])
        return TorsionSolution(
            dict(payload["vertex_values"]),
            polys,
            payload["rigidity"],
            sup,
            payload.get("kirchhoff_residual", 0.0),
        )
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed torsion solution payload: {exc}") from None
