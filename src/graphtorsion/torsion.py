"""Torsion function and torsional rigidity of a metric graph.

The torsion function solves -v'' = 1 on every edge, vanishes at Dirichlet
vertices and satisfies continuity plus a zero-sum condition on inward
derivatives at natural vertices.  Edgewise it is the quadratic
v(x) = -x^2/2 + b x + c in the offset x from the edge tail; its values at the
natural vertices come from one symmetric positive-definite vertex system, the
weighted graph Laplacian over the natural vertices.

The system is held in a Storage, as every vertex-sized matrix is: the n x n
array up to DENSE_MAX unknowns, CSC data past it.  One bincount of the edge
terms fills it, and the storage's kernel factors it (SymmetricFactor):
LAPACK's Bunch-Kaufman LDL^T for the array, SuperLU's minimum-degree LDL^T
for the CSC matrix, whose memory is linear in |V| on tree-like graphs.
lu_solver does the same for spectral's bounded system, which is not
symmetric.  The first solve is then refined with the same factor.
Each step takes the residual edge by edge from the fluxes (x_t - x_h)/l,
which subtract nearby values before dividing, where A @ x would add terms of
widely different lengths and lose the small ones; it solves for the
correction and adds it.  Refinement stops once a correction no longer
changes the float64 solution (max|d| <= 2^-52 max|x|) or after MAX_REFINE
steps.

Rigidity has three independent routes: exact edgewise integration of v, the
vertex-system identity T = sum l^3/12 + weight.x/4, and the Dirichlet energy
of v.  torsion_function checks the integral against the vertex identity and
the Kirchhoff residual; rigidity() checks it against the energy.  Each check
holds to REL_TOL relative, and a mismatch raises rather than returning a
number of unknown quality.

A TorsionSolution holds its graph, the vertex values and the coefficients b
and c as float64 arrays in the order of the graph's ids and arrays, and the
vertex system that gave them.  Every route is evaluated on those arrays,
each summed with math.fsum over .tolist() (an fsum over an ndarray is slower
on small graphs).  Only its vertex_values dict is built on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping

import numpy as np
import scipy.sparse
import scipy.sparse.linalg
from scipy.linalg.lapack import dgetrf, dgetrs, dsytrf, dsytrs

from .errors import (
    BadParameters,
    CrossCheckMismatch,
    SingularSystem,
    ValidationError,
    ZeroEnergy,
)
from .graph import MetricGraph, PointWitness, is_number

REL_TOL = 1e-10
MAX_REFINE = 4  # refinement steps after the first solve; past them the cross-checks decide
EPS = 2.0 ** -52  # float64 machine epsilon: a smaller relative correction changes nothing
# Largest vertex-sized matrix stored as its n x n array (Storage) and factored
# by LAPACK (SymmetricFactor, lu_solver); a larger one is stored as CSC data
# and factored by SuperLU.  One cut serves the torsion system, the secular
# matrices of spectral (which add DENSE_RATIO) and its bounded system.  Times
# in us, array / CSC, on perfbench's multigraph_payload graphs (numpy 2.4.6,
# scipy 1.17.1, one BLAS thread, best of 9): the torsion solve (assembly,
# factor, refinement), one count (fill, factor and inertia of A(k) at
# k = pi/(2 l_max), or of A_h(lambda) below the band edge) and the bounded
# system's fill, factor and three solves.
#
#   unknowns           7       70      112      160      182      196      210      252
#   torsion solve  42/134  84/174  117/245  159/303  249/383  290/430  608/412 1021/527
#   lambda_1 count 30/118  34/138   54/165   79/201  148/300  209/294  474/312  767/372
#   P1 count       47/134  62/168   93/207  153/259  209/353  274/358  578/373  972/443
#
#   unknowns          22      88      132      154      160      176      198      220
#   bounded        64/150 120/237  221/269  291/334  295/298  350/365  449/345  560/403
#
# The array is no slower up to the cut; the crossing lies between 196 and 210
# unknowns for the symmetric matrices, between 176 and 198 for the bounded
# system.  On random_graph seeds 0..149 at length ranges (1e-7, 1e7) and
# (1e-4, 1e4), the rigidity of the refined dense solve meets the exact
# rational one to 8.8e-16 relative, SuperLU's to 3.3e-15.
DENSE_MAX = 160


@dataclass(frozen=True)
class Storage:
    """Storage of the n x n matrices summed from terms at (rows[k], cols[k]).

    A term with a row or column n (an eliminated unknown) goes to a slot past
    the stored entries and is dropped.  A fill is one np.bincount of the terms
    over their slots, which adds an entry's terms in term order.  Up to the
    dense_max given to build (else DENSE_MAX, read when build runs), the
    storage is the n x n array itself, flat and column-major, entry (r, c)
    at c n + r, so the build sorts nothing; past it, the data of a CSC
    matrix, its entries keyed by (column, row) and sorted once by argsort.
    The kernels go by the storage: LAPACK factors the array (indices None),
    SuperLU the CSC matrix.
    """

    n: int
    size: int  # stored entries: n * n, or the CSC matrix's
    pos: np.ndarray  # slot of each term; size for a dropped one
    indices: np.ndarray | None  # the CSC structure, None for the dense storage
    indptr: np.ndarray | None

    @classmethod
    def build(cls, n: int, rows: np.ndarray, cols: np.ndarray, dense_max: int | None = None) -> "Storage":
        keep = (rows < n) & (cols < n)
        if n <= (DENSE_MAX if dense_max is None else dense_max):
            return cls(n, n * n, np.where(keep, cols * n + rows, n * n), None, None)
        keep = keep.nonzero()[0]
        key = cols[keep] * n + rows[keep]
        perm = key.argsort()
        key = key[perm]
        opens = np.empty(len(key), dtype=bool)  # where a new (column, row) entry begins
        opens[:1] = True
        np.not_equal(key[1:], key[:-1], out=opens[1:])
        col, row = np.divmod(key[opens], n)
        pos = np.full(len(rows), len(col))
        pos[keep[perm]] = opens.cumsum() - 1
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.bincount(col, minlength=n).cumsum(out=indptr[1:])
        return cls(n, len(col), pos, row.astype(np.int32), indptr)

    def fill(self, terms: np.ndarray) -> np.ndarray:
        """The stored entries of the matrix with the given terms, in the build's order."""
        data = np.bincount(self.pos, terms, self.size + 1)[:self.size]
        return data.astype(float, copy=False)  # bincount of no terms counts in int64

    @cached_property
    def diagonal(self) -> np.ndarray:
        """Slot of entry (c, c), for each column c."""
        if self.indices is None:
            return np.arange(self.n) * (self.n + 1)
        return (self.indices == np.repeat(np.arange(self.n), np.diff(self.indptr))).nonzero()[0]

    def array(self, data: np.ndarray) -> np.ndarray:
        """The n x n array of the dense storage's entries data, a view."""
        return data.reshape(self.n, self.n).T

    def matrix(self, data: np.ndarray) -> scipy.sparse.csc_array:
        """The matrix of the stored entries data in CSC form."""
        if self.indices is None:
            return scipy.sparse.csc_array(self.array(data))
        return scipy.sparse.csc_array((data, self.indices, self.indptr), shape=(self.n, self.n), copy=False)


def laplacian_terms(n: int, tail: np.ndarray, head: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of the terms of a weighted Laplacian over n unknowns,
    edge k joining unknowns tail[k] and head[k] (n at an eliminated end): its
    weight at (t, t) and (h, h), then minus it at (t, h) and (h, t).  A loop
    adds weight + weight - weight - weight = 0 at (t, t), so its terms go to
    row n and are dropped."""
    loop = tail == head
    t, h = np.where(loop, n, tail), np.where(loop, n, head)
    return np.concatenate((t, h, t, h)), np.concatenate((t, h, h, t))


class SymmetricFactor:
    """LDL^T of the symmetric matrix with the given data on a Storage.

    On the dense storage (up to DENSE_MAX unknowns), LAPACK's Bunch-Kaufman
    dsytrf on a copy of the n x n array (its upper triangle), solved by
    dsytrs.  D has 1x1 blocks and 2x2 blocks [[a, b], [b, c]], the latter
    only where |a c| < 0.41 b^2, so each holds one negative eigenvalue.  On
    the CSC storage, SuperLU in symmetric mode: a minimum-degree ordering of
    A + A^T and diagonal pivots, in effect LDL^T, whose pivots are U's
    diagonal; only an exactly zero diagonal pivot moves off the diagonal
    (perm_r then differs from perm_c).
    SingularSystem when the matrix is exactly singular: a zero pivot in
    either kernel.
    """

    def __init__(self, storage: Storage, data: np.ndarray):
        self.lu = None
        if storage.indices is None:
            # dsytrf factors a copy of the stored array, which must survive, from
            # its upper triangle (the transpose's lower): where parallel edges
            # run both ways the two triangles' sums can differ in the last bit
            self.ldu, self.ipiv, info = dsytrf(storage.array(data).T, lower=1)
            if info > 0:
                raise SingularSystem(f"matrix is exactly singular: zero pivot in row {info}")
        else:
            try:
                self.lu = scipy.sparse.linalg.splu(storage.matrix(data), permc_spec="MMD_AT_PLUS_A",
                                                   diag_pivot_thresh=0.0, options={"SymmetricMode": True})
            except RuntimeError as exc:
                raise SingularSystem(f"matrix is exactly singular: {exc}") from None

    def solve(self, b: np.ndarray) -> np.ndarray:
        if self.lu is not None:
            return self.lu.solve(b)
        return dsytrs(self.ldu, self.ipiv, b, lower=1)[0]

    def inertia(self) -> tuple[int | None, float]:
        """The number of negative eigenvalues, by Sylvester's law from the
        blocks of D, and log |det|; (None, nan) when SuperLU moved a pivot off
        the diagonal, so that its factor shows no congruence."""
        if self.lu is not None:
            if not np.array_equal(self.lu.perm_r, self.lu.perm_c):
                return None, math.nan
            pivots = self.lu.U.diagonal()
            return int(np.count_nonzero(pivots < 0.0)), float(np.log(np.abs(pivots)).sum())
        pivots = self.ldu.diagonal()
        pairs = (self.ipiv < 0).nonzero()[0]  # the two rows of each 2x2 block, block after block
        if not len(pairs):  # the common case, without the empty-array calls below
            return int(np.count_nonzero(pivots < 0.0)), float(np.log(np.abs(pivots)).sum())
        first = pairs[::2]
        det = pivots[first] * pivots[first + 1] - self.ldu[first + 1, first] ** 2
        single = np.delete(pivots, pairs)
        return (int(np.count_nonzero(single < 0.0)) + len(first),
                float(np.log(np.abs(single)).sum() + np.log(-det).sum()))


def lu_solver(storage: Storage, data: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The solve of the LU factor, with partial pivoting, of the matrix with
    the given data on a Storage.

    On the dense storage (up to DENSE_MAX unknowns), LAPACK's dgetrf on the
    n x n array itself, in place (data is overwritten), solved by dgetrs; on
    the CSC storage, SuperLU.  SingularSystem when the matrix is exactly
    singular: a zero pivot in either kernel.
    """
    try:
        if storage.indices is None:
            lu, piv, info = dgetrf(storage.array(data), overwrite_a=1)
            if info > 0:
                raise RuntimeError(f"zero pivot in row {info}")
            return lambda b: dgetrs(lu, piv, b)[0]
        return scipy.sparse.linalg.splu(storage.matrix(data)).solve
    except RuntimeError as exc:
        raise SingularSystem(f"matrix is exactly singular: {exc}") from None


@dataclass(frozen=True)
class DiscreteSystem:
    """Vertex system over the natural vertices.

    data holds the entries of a symmetric positive definite matrix on
    storage, the array or CSC data as DENSE_MAX says; matrix returns it in
    CSC form.  Solving matrix @ g = weight gives the vertex unknowns.
    weight[v] is the metric degree (loops twice).  Each edge adds 1/length to
    the weighted graph Laplacian restricted to the natural vertices
    (laplacian_terms); a loop couples a vertex to itself and cancels.  tail[k] and head[k] are the
    unknowns at the ends of edge k, len(order) at a Dirichlet end, and
    length[k] its length; unknown[v] is vertex v's, len(order) at a Dirichlet
    vertex.  The secular matrix of the same graph reuses storage.
    """

    order: tuple[str, ...]
    data: np.ndarray
    weight: np.ndarray
    tail: np.ndarray
    head: np.ndarray
    length: np.ndarray
    storage: Storage
    unknown: np.ndarray

    @property
    def matrix(self) -> scipy.sparse.csc_array:
        return self.storage.matrix(self.data)

    def residual(self, x: np.ndarray) -> np.ndarray:
        """weight - matrix @ x[:n], summed from the edge fluxes; x[n] must be 0."""
        n = len(self.order)
        f = (x[self.tail] - x[self.head]) / self.length
        flux = np.bincount(self.tail, f, minlength=n + 1) - np.bincount(self.head, f, minlength=n + 1)
        return self.weight - flux[:n]


@dataclass(frozen=True, eq=False)
class TorsionSolution:
    """v(x) = -x^2/2 + b[k] x + c[k] on edge k of graph, in the offset x from
    its tail; values[i] is v at vertex i.  Both follow graph's ids and arrays.
    system is the vertex system whose solution x gave them: v = x/2 at the
    natural vertices, in system.order."""

    graph: MetricGraph
    values: np.ndarray
    b: np.ndarray
    c: np.ndarray
    rigidity: float
    sup: PointWitness
    kirchhoff_residual: float
    system: DiscreteSystem

    @cached_property
    def vertex_values(self) -> dict[str, float]:
        return dict(zip(self.graph.vertex_ids, self.values.tolist()))


def assemble_discrete_system(g: MetricGraph) -> DiscreteSystem:
    arr = g.arrays
    order = g.natural_vertices
    n = len(order)
    unknown = np.full(len(g.vertex_ids), n)  # n marks a Dirichlet end
    unknown[~arr.dirichlet] = np.arange(n)
    tail, head = unknown[arr.tail], unknown[arr.head]
    weight = (np.bincount(tail, arr.length, minlength=n + 1)
              + np.bincount(head, arr.length, minlength=n + 1))[:n]
    storage = Storage.build(n, *laplacian_terms(n, tail, head))
    mu = 1.0 / arr.length
    return DiscreteSystem(order, storage.fill(np.concatenate((mu, mu, -mu, -mu))), weight, tail, head, arr.length,
                          storage, unknown)


def solve_discrete_torsion(g: MetricGraph) -> tuple[DiscreteSystem, np.ndarray]:
    """The vertex system of g and its solution x of matrix @ x = weight, in system.order."""
    sys = assemble_discrete_system(g)
    n = len(sys.order)
    if n == 0:
        return sys, np.zeros(0)
    try:
        lu = SymmetricFactor(sys.storage, sys.data)
    except SingularSystem as exc:
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
    return sys, sol


def torsion_function(g: MetricGraph) -> TorsionSolution:
    """Solve for the torsion function as edgewise quadratics over the graph's arrays."""
    sys, xv = solve_discrete_torsion(g)
    n = len(sys.order)
    arr = g.arrays
    ln = arr.length
    v = np.zeros(len(g.vertex_ids))
    v[~arr.dirichlet] = 0.5 * xv
    vt, vh = v[arr.tail], v[arr.head]
    b = 0.5 * ln + (vh - vt) / ln

    # inward derivative sums at the natural vertices: v'(0) = b at the tail, -v'(l) at the head
    flux = np.bincount(sys.tail, b, minlength=n + 1) + np.bincount(sys.head, ln - b, minlength=n + 1)
    residual = float(np.abs(flux[:n]).max(initial=0.0))

    # v peaks on each edge at the vertex x = b of the parabola, clamped to [0, l]
    x = np.minimum(np.maximum(b, 0.0), ln)
    peak = -0.5 * x * x + b * x + vt
    k = int(np.argmax(peak))
    best = PointWitness(float(peak[k]), g.edge_ids[k], float(x[k]))

    cube = ln ** 3
    t_edge = math.fsum((-cube / 6.0 + 0.5 * b * ln * ln + vt * ln).tolist())  # sum of int_0^l v
    t_formula = math.fsum(cube.tolist()) / 12.0 + 0.25 * float(sys.weight @ xv)
    _require_close("rigidity (edgewise integral)", t_edge, "rigidity (vertex identity)", t_formula)
    scale = max(1.0, best.value)
    if residual > REL_TOL * scale:
        raise CrossCheckMismatch(
            f"Kirchhoff residual {residual:.3e} exceeds {REL_TOL * scale:.3e}"
        )
    return TorsionSolution(g, v, b, vt, t_edge, best, residual, sys)


def _require_graph(g: MetricGraph, other: MetricGraph, what: str) -> None:
    """BadParameters unless other is g or an equal graph."""
    if not (other is g or other == g):
        raise BadParameters(f"the {what} given is of another graph than the one asked about")


def _solved(g: MetricGraph, solution: TorsionSolution | None) -> TorsionSolution:
    """solution, which must be of g, or the torsion function of g when it is None."""
    if solution is None:
        return torsion_function(g)
    _require_graph(g, solution.graph, "torsion solution")
    return solution


def _require_close(name_a: str, a: float, name_b: str, b: float) -> None:
    if abs(a - b) > REL_TOL * max(1.0, abs(a), abs(b)):
        raise CrossCheckMismatch(f"{name_a} = {a!r} disagrees with {name_b} = {b!r}")


def rigidity(sol: TorsionSolution) -> float:
    """Total integral of the torsion function, cross-checked against its
    Dirichlet energy; torsion_function checked the vertex identity."""
    _require_close("rigidity (integral of v)", sol.rigidity, "rigidity (energy of v)", dirichlet_energy(sol))
    return sol.rigidity


def dirichlet_energy(sol: TorsionSolution) -> float:
    """Sum of the integrals of v'^2 = (b - x)^2 over [0, l]."""
    return math.fsum(((sol.b ** 3 - (sol.b - sol.graph.arrays.length) ** 3) / 3.0).tolist())


# -- piecewise-quadratic test functions -----------------------------------


def _three_numbers(coefficients) -> bool:
    try:
        return len(coefficients) == 3 and all(map(is_number, coefficients))
    except TypeError:  # no length
        return False


def polya_quotient(g: MetricGraph, coeffs: Mapping[str, tuple[float, float, float]]) -> float:
    """(integral of u)^2 / (integral of u'^2); maximized by the torsion function.

    The test function is u(x) = a x^2 + b x + c on each edge, in the offset x
    from its tail, given as coeffs[edge id] = (a, b, c).  It must cover every
    edge (BadParameters), be continuous across vertices and vanish at the Dirichlet
    set to 1e-9 of the terms end values sum, max(1, |a| l^2 + |b| l + |c|) over the
    edges (ValidationError), and have positive Dirichlet energy (ZeroEnergy).
    Coefficients that are not three numbers (graph.is_number: ints or floats, not
    bools, finite) raise ValidationError naming the first such edge.
    """
    missing = [e for e in g.edge_ids if e not in coeffs]
    if missing:
        raise BadParameters(f"test function has no coefficients for edge {missing[0]!r}")
    malformed = [e for e in g.edge_ids if not _three_numbers(coeffs[e])]
    if malformed:
        e = malformed[0]
        raise ValidationError(f"test function needs three numbers (a, b, c) on edge {e!r}, got {coeffs[e]!r}")
    arr = g.arrays
    (a, b, c), l = np.array([coeffs[e] for e in g.edge_ids], dtype=np.float64).T, arr.length
    scale = max(1.0, float((np.abs(a) * l * l + np.abs(b) * l + np.abs(c)).max()))
    hi, lo = np.where(arr.dirichlet, 0.0, -np.inf), np.where(arr.dirichlet, 0.0, np.inf)
    at, ends = np.concatenate((arr.tail, arr.head)), np.concatenate((c, a * l * l + b * l + c))
    np.maximum.at(hi, at, ends)
    np.minimum.at(lo, at, ends)
    gap = (hi - lo > 1e-9 * scale).nonzero()[0]
    if len(gap):
        raise ValidationError(
            f"test function discontinuous or nonzero on Dirichlet vertex {g.vertex_ids[gap[0]]!r}"
        )
    total = math.fsum((a * l ** 3 / 3.0 + b * l * l / 2.0 + c * l).tolist())
    energy = math.fsum((4.0 * a * a * l ** 3 / 3.0 + 2.0 * a * b * l * l + b * b * l).tolist())
    if energy <= 0.0 or energy < 1e-28 * scale * scale:
        raise ZeroEnergy("test function has (numerically) zero Dirichlet energy")
    return total * total / energy


# -- serialization --------------------------------------------------------


def solution_to_payload(sol: TorsionSolution) -> dict:
    vids, arr = sol.graph.vertex_ids, sol.graph.arrays
    return {
        "vertex_values": dict(sol.vertex_values),
        "edges": [
            {"id": e, "tail": vids[t], "head": vids[h], "length": ln, "b": b, "c": c}
            for e, t, h, ln, b, c in zip(sol.graph.edge_ids, arr.tail.tolist(), arr.head.tolist(),
                                         arr.length.tolist(), sol.b.tolist(), sol.c.tolist())
        ],
        "rigidity": sol.rigidity,
        "sup": {"value": sol.sup.value, "edge": sol.sup.edge, "offset": sol.sup.offset},
        "kirchhoff_residual": sol.kirchhoff_residual,
    }
