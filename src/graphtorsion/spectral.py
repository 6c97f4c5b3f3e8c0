"""Spectra of metric graphs: the exact lambda_1 from the secular matrix, and P1
finite elements for higher modes, heat content and landscape checks.

secular_lambda1 returns the exact lowest Dirichlet eigenvalue from the
secular matrix A(k) over the natural vertices, the torsion system's size and
sparsity pattern, by Rayleigh functional iteration from the torsion function;
the pivot signs of one LDL^T of A(k (1 - DELTA)) certify it (Sylvester's law
of inertia).  No mesh is built, so lambda_1 carries no discretization error
and costs a few vertex-sized factorizations.  The audit takes lambda_1 from
here; spectrum, heat-check and landscape_check use the finite elements below.

Each edge is subdivided uniformly, hat functions live on the subdivision
nodes, Dirichlet nodes are eliminated, and eigenpairs of the stiffness/mass
pencil (K0, M0) come out of block inverse subspace iteration with
Rayleigh-Ritz (Parlett, The Symmetric Eigenvalue Problem, ch. 14) on one
sparse factorization of K0.  A seeded random block of k + GUARD columns moves
as a whole, so a cluster, or a ground state the start barely touches,
converges with the rest; iteration stops once each of the k lowest Ritz
values moves by at most tol relative.  Eigenvalue error decays like h^2.

The start block comes from nested iteration (Hackbusch, Multi-Grid Methods and
Applications, ch. 5).  On a mesh of more than NESTED_MIN_FREE free nodes whose
COARSEN times coarser mesh has at most a quarter of its free nodes and at
least k + GUARD of them, the same block problem is first solved on that coarser
mesh, recursively, and its Ritz vectors, interpolated linearly along each
edge, start the fine iteration; they already hold the low modes up to the
coarse discretization error, so the fine mesh settles in about two
iterations where a random start needs eight to twelve.  The smallest mesh of
the chain, and every mesh of at most NESTED_MIN_FREE free nodes, starts from
a seeded random block.

The mesh is held as arrays.  Node i < |V| is the graph vertex vertices[i];
the interior nodes follow edge by edge, tail to head.  Segments run edge by
edge too, so the stiffness and mass matrices, the trapezoid weights and the
node list of the JSON payload are all built from the same arrays without a
per-node loop.  K0 and M0 come straight over the free nodes from the CSC
builder of the torsion vertex system, one sorted pattern for both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .errors import BadParameters, NoConvergence
from .graph import MetricGraph
from .torsion import EPS, DiscreteSystem, SymPattern, TorsionSolution, symmetric_lu, torsion_function

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10000
GUARD = 3  # block columns beyond the k wanted modes; they speed up a cluster at mode k
COARSEN = 16  # the nested start solves on a mesh of COARSEN times the target width
NESTED_MIN_FREE = 2000  # meshes of at most this many free nodes start from a random block
# Largest mesh build_mesh makes.  Assembly, splu and one solve take about
# 700 bytes per node (measured on star(3) at 500k nodes), so the 16M nodes of
# star(2, [1e-6, 1]) at the default h would need about 11 GB, more than an
# 8 GB machine has.
MAX_MESH_NODES = 2_000_000


def default_h(g: MetricGraph) -> float:
    return float(g.arrays.length.min()) / 16.0


def check_controls(h_target: float | None, tol: float = DEFAULT_TOL,
                   max_iter: int = DEFAULT_MAX_ITER) -> None:
    """Raise BadParameters for a mesh width, tolerance or iteration cap no solve can use."""
    if h_target is not None and not (h_target > 0 and math.isfinite(h_target)):
        raise BadParameters(f"h_target must be positive, got {h_target!r}")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise BadParameters(f"tol must be finite and non-negative, got {tol!r}")
    if max_iter < 1:
        raise BadParameters(f"max_iter must be at least 1, got {max_iter!r}")


@dataclass(frozen=True)
class Mesh:
    """Uniform P1 mesh of a graph, held as arrays.

    Nodes 0..|V|-1 are the vertices in ``graph.vertex_ids`` order; the interior
    nodes follow edge by edge, node_edge holding the edge index (-1 on a
    vertex node) and node_offset the distance k*h from the edge tail.  Edge e
    is cut into segments_per_edge[e] segments of width l/n; segment s joins
    seg_tail[s] to seg_head[s], edge by edge from tail to head.
    """

    graph: MetricGraph
    h_target: float
    segments_per_edge: np.ndarray
    node_edge: np.ndarray
    node_offset: np.ndarray
    seg_tail: np.ndarray
    seg_head: np.ndarray
    seg_width: np.ndarray
    free: np.ndarray
    h_eff: float

    @property
    def n_nodes(self) -> int:
        return len(self.node_edge)

    def trapezoid_weights(self) -> np.ndarray:
        """Row sums of the consistent mass matrix: exact integrals of the hats."""
        ends = np.array([self.seg_tail, self.seg_head]).T.ravel()
        return np.bincount(ends, weights=np.repeat(0.5 * self.seg_width, 2), minlength=self.n_nodes)


def build_mesh(g: MetricGraph, h_target: float | None = None) -> Mesh:
    """Uniform per-edge subdivision with ceil(length/h_target) segments, at least 2."""
    check_controls(h_target)
    if h_target is None:
        h_target = default_h(g)
    arr = g.arrays
    nv = len(g.vertex_ids)
    counts = np.maximum(2.0, np.ceil(arr.length / h_target - 1e-12))
    needed = nv + float(np.sum(counts - 1.0))
    if needed > MAX_MESH_NODES:
        raise BadParameters(
            f"mesh at h_target={h_target!r} needs {needed:.0f} nodes, "
            f"more than the {MAX_MESH_NODES} allowed"
        )
    counts = counts.astype(np.int64)
    inner = counts - 1
    widths = arr.length / counts
    edge_of_node = np.repeat(np.arange(len(counts)), inner)
    first = np.cumsum(inner) - inner  # first interior node of each edge, counted from nv
    k = np.arange(len(edge_of_node)) - first[edge_of_node] + 1
    node_edge = np.concatenate([np.full(nv, -1), edge_of_node])
    node_offset = np.concatenate([np.zeros(nv), k * widths[edge_of_node]])

    edge_of_seg = np.repeat(np.arange(len(counts)), counts)
    s = np.arange(len(edge_of_seg)) - (np.cumsum(counts) - counts)[edge_of_seg]
    inside = nv + first[edge_of_seg] + s  # interior node after segment s
    seg_tail = np.where(s == 0, arr.tail[edge_of_seg], inside - 1)
    seg_head = np.where(s == counts[edge_of_seg] - 1, arr.head[edge_of_seg], inside)
    free = np.concatenate([np.flatnonzero(~arr.dirichlet), np.arange(nv, len(node_edge))])
    return Mesh(g, h_target, counts, node_edge, node_offset, seg_tail, seg_head,
                widths[edge_of_seg], free, float(widths.max()))


def _pencil(mesh: Mesh) -> list[scipy.sparse.csc_array]:
    """Stiffness K0 and consistent mass M0 over the free nodes, in mesh.free order."""
    nf = len(mesh.free)
    unknown = np.full(mesh.n_nodes, nf)  # nf marks a Dirichlet node
    unknown[mesh.free] = np.arange(nf)
    w = mesh.seg_width
    pattern = SymPattern.build(nf, unknown[mesh.seg_tail], unknown[mesh.seg_head])
    return [pattern.matrix(1.0 / w, -1.0 / w), pattern.matrix(w / 3.0, w / 6.0)]


@dataclass(frozen=True)
class SpectralResult:
    """Lowest eigenpairs of the Dirichlet pencil on a fixed mesh.

    values holds one row per mode over all mesh nodes (zeros at Dirichlet
    nodes), each mass-normalized.  The modes share one block iteration, so
    iterations repeats its count once per mode; it counts the block
    iterations on the returned, finest mesh only, not those of the coarser
    meshes that made its start block.
    """

    mesh: Mesh
    eigenvalues: tuple[float, ...]
    values: np.ndarray
    residuals: tuple[float, ...]
    iterations: tuple[int, ...]

    @property
    def h_eff(self) -> float:
        return self.mesh.h_eff

    def to_payload(self) -> dict:
        mesh = self.mesh
        vertex_ids, edge_ids = mesh.graph.vertex_ids, mesh.graph.edge_ids
        nv = len(vertex_ids)
        nodes = [{"edge": None, "offset": 0.0, "vertex": v} for v in vertex_ids]
        nodes += [
            {"edge": edge_ids[e], "offset": x, "vertex": None}
            for e, x in zip(mesh.node_edge[nv:].tolist(), mesh.node_offset[nv:].tolist())
        ]
        return {
            "h_target": mesh.h_target,
            "h_eff": mesh.h_eff,
            "eigenvalues": list(self.eigenvalues),
            "residuals": list(self.residuals),
            "iterations": list(self.iterations),
            "nodes": nodes,
            "values": [list(map(float, row)) for row in self.values],
        }


def lowest_eigenpairs(
    g: MetricGraph,
    k: int = 1,
    h_target: float | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    mesh: Mesh | None = None,
) -> SpectralResult:
    check_controls(h_target, tol, max_iter)
    if mesh is None:
        mesh = build_mesh(g, h_target)
    if k < 1:
        raise BadParameters("need at least one mode")
    free = mesh.free
    nf = len(free)
    if k > nf:
        raise BadParameters(f"asked for {k} modes but the mesh has only {nf} free nodes")
    lams, x, it, K0, M0 = _subspace_iteration(mesh, k, min(k + GUARD, nf), tol, max_iter)
    x = x[:, :k]
    lams = lams[:k]
    resids = np.linalg.norm(K0 @ x - (M0 @ x) * lams, axis=0)

    values = np.zeros((k, mesh.n_nodes))
    values[:, free] = x.T
    # fix the ground-state sign so its integral is positive
    w = mesh.trapezoid_weights()
    if w @ values[0] < 0:
        values[0] = -values[0]
    return SpectralResult(mesh, tuple(lams.tolist()), values, tuple(resids.tolist()), (it,) * k)


def _subspace_iteration(mesh: Mesh, k: int, p: int, tol: float, max_iter: int
                        ) -> tuple[np.ndarray, np.ndarray, int, scipy.sparse.csc_array, scipy.sparse.csc_array]:
    """Block inverse subspace iteration with p columns on mesh until its k lowest
    Ritz values settle: the Ritz values, the block over mesh.free, the iteration
    count and the pencil (K0, M0)."""
    x = _start_block(mesh, k, p, tol, max_iter)
    K0, M0 = _pencil(mesh)
    lu = scipy.sparse.linalg.splu(K0)
    prev = None
    for it in range(1, max_iter + 1):
        y = lu.solve(M0 @ x)
        lam, v = scipy.linalg.eigh(y.T @ (K0 @ y), y.T @ (M0 @ y))  # Rayleigh-Ritz on span(y)
        x = y @ v
        if prev is not None and (np.abs(lam[:k] - prev[:k]) <= tol * np.abs(lam[:k])).all():
            return lam, x, it, K0, M0
        prev = lam
    raise NoConvergence(f"Ritz values not settled after {max_iter} iterations")


def _start_block(mesh: Mesh, k: int, p: int, tol: float, max_iter: int) -> np.ndarray:
    """p start columns over mesh.free: the Ritz vectors of the same problem on the
    mesh COARSEN times coarser, interpolated, when that mesh is small enough to
    be cheap and large enough to hold p columns; else a seeded random block."""
    nf = len(mesh.free)
    if nf > NESTED_MIN_FREE:
        coarse = build_mesh(mesh.graph, COARSEN * mesh.h_target)
        if p <= len(coarse.free) <= nf // 4:
            return _prolong(coarse, mesh, _subspace_iteration(coarse, k, p, tol, max_iter)[1])
    return np.random.default_rng(0).standard_normal((nf, p))


def _prolong(coarse: Mesh, fine: Mesh, x: np.ndarray) -> np.ndarray:
    """Columns over coarse.free, interpolated linearly along each edge onto
    fine.free: vertex nodes are copied, Dirichlet nodes are 0, and an interior
    node takes the values at the ends of the coarse segment holding its offset."""
    u = np.zeros((coarse.n_nodes, x.shape[1]))
    u[coarse.free] = x
    nv = len(fine.graph.vertex_ids)
    edge = fine.node_edge[nv:]
    n = coarse.segments_per_edge[edge]
    t = fine.node_offset[nv:] * n / fine.graph.arrays.length[edge]  # in coarse segments
    s = np.minimum(t.astype(np.int64), n - 1)
    frac = (t - s)[:, None]
    seg = (np.cumsum(coarse.segments_per_edge) - coarse.segments_per_edge)[edge] + s
    out = np.empty((fine.n_nodes, x.shape[1]))
    out[:nv] = u[:nv]
    out[nv:] = (1.0 - frac) * u[coarse.seg_tail[seg]] + frac * u[coarse.seg_head[seg]]
    return out[fine.free]


# -- exact lambda_1 from the secular matrix ------------------------------------

DELTA = 1e-9  # the certificate factors A(k (1 - DELTA)) below the returned k
# Smallest relative move of k that the iteration resolves: q is a sum of terms
# that cancel at its root, so its rounding moves the root by some 1e-15
# relative, more on graphs of many edges.
K_FLOOR = 1e-13
NEWTON_TOL = 64 * EPS  # a bracket this narrow (relative) ends the root search
NEWTON_LAST = 1e-8  # a Newton step this small (relative) is the last one


def _slopes(z: np.ndarray, s: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The k-derivatives of c = k/sin z and d = k tan(z/2) at z = k l, given
    s = sin z and t = tan(z/2): (s - z cos z)/s^2 and t + z (1 + t^2)/2.
    s - z cos z cancels for small z, but its error, some ulps of z, meets
    (x_t - x_h)^2, which is small on a short edge; and the slopes steer only
    the iteration, not where it stops (q = 0, A(k) x = 0)."""
    return (s - z * np.cos(z)) / (s * s), t + 0.5 * z * (1.0 + t * t)


class _Secular:
    """The secular matrix A(k) of a graph, on its torsion system's pattern.

    A(k) is the weighted Laplacian over the natural vertices with conductance
    c = k/sin(kl) on each non-loop edge, less d = k tan(kl/2) on the diagonal
    at each edge end on a natural vertex (a loop counts both ends), so A(0) is
    the torsion matrix.  For x over the natural vertices (0 at Dirichlet ends)
    q(k; x) = x.A(k)x = sum c (x_t - x_h)^2 - d (x_t^2 + x_h^2) equals
    int u'^2 - k^2 int u^2 for u = (x_t sin(k(l-s)) + x_h sin(ks)) / sin(kl)
    edge by edge, and dq/dk = -2k int u^2 < 0.  On (0, pi/l_max) A(k) has no
    pole, and its negative eigenvalues count the Dirichlet eigenvalues below
    k^2 (Berkolaiko and Kuchment, Introduction to Quantum Graphs, 2013).
    """

    def __init__(self, sys: DiscreteSystem, k_lo: float, k_hi: float, max_iter: int):
        self.n = len(sys.order)
        self.tail, self.head, self.length = sys.tail, sys.head, sys.length
        self.proper = (sys.tail != sys.head).nonzero()[0]
        self.pattern = sys.pattern
        self.matrix = sys.matrix.copy()  # refilled in place for each k
        self.k_lo, self.k_hi = k_lo, k_hi
        self.left = max_iter - 1  # iterations after the first quotient
        self.max_iter = max_iter

    def spend(self) -> None:
        if self.left < 1:
            raise NoConvergence(f"secular lambda_1 not settled after {self.max_iter} iterations")
        self.left -= 1

    def _ends(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        xp = np.append(x, 0.0)  # index n is every Dirichlet end
        return xp[self.tail], xp[self.head]

    def factor(self, k: float) -> scipy.sparse.linalg.SuperLU:
        """LDL^T of A(k) with the torsion solve's options; RuntimeError if exactly singular."""
        z = k * self.length
        c = k / np.sin(z)[self.proper]
        d = k * np.tan(0.5 * z)
        data = self.pattern.fill(c, -c)
        ends = np.bincount(self.tail, d, minlength=self.n + 1) + np.bincount(self.head, d, minlength=self.n + 1)
        data[self.pattern.diagonal] -= ends[:self.n]
        self.matrix.data[:] = data
        return symmetric_lu(self.matrix)

    def negatives(self, lu: scipy.sparse.linalg.SuperLU) -> int | None:
        """Negative eigenvalues of the factored A(k), by Sylvester's law from the
        pivots of its LDL^T; None if the factorization pivoted off the diagonal."""
        if not np.array_equal(lu.perm_r, lu.perm_c):
            return None
        return int(np.count_nonzero(lu.U.diagonal() < 0.0))

    def inertia(self, k: float) -> tuple[int | None, scipy.sparse.linalg.SuperLU | None]:
        """negatives() of A(k) and its factor; (None, None) when A(k) is exactly singular."""
        try:
            lu = self.factor(k)
        except RuntimeError:
            return None, None
        count = self.negatives(lu)
        if count is None:
            raise NoConvergence(f"the factor of A({k!r}) pivoted, so its inertia cannot be read")
        return count, lu

    def slope(self, k: float, x: np.ndarray) -> np.ndarray:
        """A'(k) x, summed edge by edge from c' (x_t - x_h) and d' x."""
        z = k * self.length
        dc, dd = _slopes(z, np.sin(z), np.tan(0.5 * z))
        xt, xh = self._ends(x)
        f = dc * (xt - xh)
        out = np.bincount(self.tail, f - dd * xt, minlength=self.n + 1)
        out += np.bincount(self.head, -f - dd * xh, minlength=self.n + 1)
        return out[:self.n]

    def step(self, lu: scipy.sparse.linalg.SuperLU, k: float, x: np.ndarray) -> np.ndarray | None:
        """A(k)^-1 A'(k) x from the factor lu of A(k), scaled to max |.| = 1;
        None when the solve overflowed."""
        y = lu.solve(self.slope(k, x))
        scale = float(np.abs(y).max())
        return y / scale if 0.0 < scale < math.inf else None

    def rayleigh(self, x: np.ndarray, k: float | None = None) -> float | None:
        """p(x), the root of q(.; x) on [k_lo, k_hi), by Newton's method kept
        inside a bracket by bisection, from k (default: the quotient of the
        piecewise-linear interpolant, the small-k limit of q).  k_lo when q is
        already negative there (rounding on a graph where k_lo is exact), None
        when q stays positive up to k_hi.  p(x)^2 >= lambda_1."""
        xt, xh = self._ends(x)
        diff, both = (xt - xh) ** 2, xt * xt + xh * xh
        live = both > 0.0  # an edge between Dirichlet ends adds nothing
        diff, both, ln = diff[live], both[live], self.length[live]

        def q(k: float) -> tuple[float, float]:
            """q(k; x) and dq/dk, edge by edge from c, d, c' and d'."""
            z = k * ln
            s, t = np.sin(z), np.tan(0.5 * z)
            dc, dd = _slopes(z, s, t)
            return k * float(diff @ (1.0 / s) - both @ t), float(dc @ diff - dd @ both)

        if k is None:
            k = math.sqrt(float(diff @ (1.0 / ln)) / float(ln @ (0.5 * both - diff / 6.0)))
        lo, hi = self.k_lo, self.k_hi
        if not lo < k < hi:
            k = 0.5 * (lo + hi)
        for _ in range(100):
            val, der = q(k)
            if val > 0.0:
                lo = k
            elif val < 0.0:
                hi = k
            else:
                return k
            step = k - val / der if der < 0.0 else math.nan
            if lo <= step <= hi and abs(step - k) <= NEWTON_LAST * k:
                return step  # the step's own error is of the order of its square
            if step >= hi == self.k_hi:  # past the open end: look for a sign change below k_hi
                hi *= 1.0 - 4.0 * EPS
                if q(hi)[0] > 0.0:
                    return None
            if not lo < step < hi:  # also a NaN step
                step = 0.5 * (lo + hi)
            if hi - lo <= NEWTON_TOL * hi:
                return lo
            k = step
        return k

    def settle(self, x: np.ndarray, k: float, tol: float) -> tuple[float | None, np.ndarray, bool]:
        """Rayleigh functional iteration x <- A(s)^-1 A'(s) x, k <- p(x) (Ruhe,
        SIAM J. Numer. Anal. 10, 1973) with s = k (1 - DELTA), until k moves by
        at most tol relative.  The shift costs nothing in the limit, where x
        still tends to the null vector of A(k), and makes the last factor the
        certificate: True when it has no negative pivot, so no eigenvalue lies
        below s^2 while p(x) >= k_1."""
        while True:
            self.spend()
            shift = k * (1.0 - DELTA)
            try:
                lu = self.factor(shift)
            except RuntimeError:
                return shift, x, False  # A(shift) exactly singular: an eigenvalue sits there
            y = self.step(lu, shift, x)
            if y is None:
                return k, x, False
            x, prev = y, k
            k = self.rayleigh(x, prev)
            if k is None:
                return None, x, False
            if abs(k - prev) <= max(tol, K_FLOOR) * k:
                return k, x, self.negatives(lu) == 0


def secular_lambda1(
    g: MetricGraph,
    solution: TorsionSolution | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> float:
    """Exact lowest Dirichlet eigenvalue, from the secular matrix A(k) over the
    natural vertices (the torsion system's size), certified by its inertia.

    Rayleigh functional iteration, shifted to s = k (1 - DELTA), starts from
    the torsion function's vertex values and stops once k moves by at most
    tol relative.  Its last factor is the certificate (else one more factor
    at the final k (1 - DELTA)): no negative pivot means no eigenvalue below
    s^2, and p(x)^2 >= lambda_1, so lambda_1 is bracketed to about 2 DELTA
    relative.  When the iteration settled on a higher eigenvalue, bisection on
    the pivot count isolates lambda_1 and the iteration restarts from an
    inverse-iteration step at the midpoint of the isolating interval; a
    multiple lambda_1 that bisection cannot split ends the bisection.  When q
    has no root below pi/l_max and A stays positive definite there,
    lambda_1 = (pi/l_max)^2.  The result is at least pi^2/(4 L^2) (Nicaise).
    Every factorization after the first quotient counts against max_iter,
    the extra certificate aside; NoConvergence when they run out.
    """
    check_controls(None, tol, max_iter)
    if solution is None or solution.discrete is None:
        solution = torsion_function(g)
    sys = solution.discrete.system
    k_lo = math.pi / (2.0 * math.fsum(sys.length.tolist()))
    k_hi = math.pi / float(sys.length.max())
    if not sys.order:  # every vertex Dirichlet: the edges are separate intervals
        return k_hi * k_hi
    sec = _Secular(sys, k_lo, k_hi, max_iter)
    start = solution.discrete.values
    x, k = start, sec.rayleigh(start)
    lo, hi, hi_count = k_lo, k_hi, None  # no eigenvalue below lo; hi_count below hi
    tight = min(max(tol, K_FLOOR), DELTA)
    while True:
        certified = False
        if k is not None:
            k, x, certified = sec.settle(x, k, tol)
        top = k_hi if k is None else k
        if not certified:
            below, _ = sec.inertia(top * (1.0 - DELTA))
            certified = below == 0
        if certified:
            return max(top * top, k_lo * k_lo)
        if top * (1.0 - DELTA) < hi:
            hi, hi_count = top * (1.0 - DELTA), below
        # settled above lambda_1: bisect on the count until one eigenvalue is alone
        x = None
        while x is None:
            if hi - lo <= tight * hi:
                return max(hi * hi, k_lo * k_lo)  # count(lo) = 0 certifies hi
            isolated = hi_count == 1
            sec.spend()
            mid = 0.5 * (lo + hi)
            count, lu = sec.inertia(mid)
            if count == 0:
                lo = mid
            else:
                hi, hi_count = mid, count
            if isolated and lu is not None:
                # mid is nearer lambda_1 than lambda_2: restart from the torsion function
                x = sec.step(lu, mid, start)
        k = sec.rayleigh(x, mid)


# -- integrated heat content ----------------------------------------------


@dataclass(frozen=True)
class HeatContent:
    """Spectral partial sums of the time-integrated heat content, against rigidity."""

    eigenvalues: tuple[float, ...]
    terms: tuple[float, ...]
    partial_sums: tuple[float, ...]
    rigidity: float
    h_eff: float

    def to_payload(self) -> dict:
        return {
            "eigenvalues": list(self.eigenvalues),
            "terms": list(self.terms),
            "partial_sums": list(self.partial_sums),
            "rigidity": self.rigidity,
            "h_eff": self.h_eff,
        }


def integrated_heat_content(
    g: MetricGraph,
    modes: int,
    h_target: float | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    spectral: SpectralResult | None = None,
    solution: TorsionSolution | None = None,
) -> HeatContent:
    """Sum (integral of phi_k)^2 / lambda_k over the lowest modes.

    The full series equals the rigidity; partial sums increase toward it.
    """
    if spectral is None:
        spectral = lowest_eigenpairs(g, modes, h_target, tol, max_iter)
    if solution is None:
        solution = torsion_function(g)
    w = spectral.mesh.trapezoid_weights()
    terms = []
    for lam, phi in zip(spectral.eigenvalues, spectral.values):
        mass = float(w @ phi)
        terms.append(mass * mass / lam)
    sums = list(np.cumsum(terms))
    return HeatContent(
        spectral.eigenvalues,
        tuple(terms),
        tuple(float(s) for s in sums),
        solution.rigidity,
        spectral.h_eff,
    )


# -- landscape check ------------------------------------------------------


@dataclass(frozen=True)
class LandscapeRatio:
    mode: int
    eigenvalue: float
    max_ratio: float
    edge: str
    offset: float


def landscape_check(
    g: MetricGraph,
    modes: int = 3,
    h_target: float | None = None,
    samples_per_edge: int = 64,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    spectral: SpectralResult | None = None,
    solution: TorsionSolution | None = None,
) -> tuple[list[LandscapeRatio], float]:
    """Largest sampled |phi_k| / (lambda_k * sup|phi_k| * v) per mode.

    Sampling interpolates the P1 eigenfunction at equispaced points per edge
    and skips points closer than h_eff to the Dirichlet set, where both
    numerator and denominator vanish.
    """
    if samples_per_edge < 2:
        raise BadParameters("need at least 2 samples per edge")
    if spectral is None:
        spectral = lowest_eigenpairs(g, modes, h_target, tol, max_iter)
    if solution is None:
        solution = torsion_function(g)
    field = g.dirichlet_distances()
    mesh = spectral.mesh
    h = spectral.h_eff
    seg_start = np.cumsum(mesh.segments_per_edge) - mesh.segments_per_edge
    out: list[LandscapeRatio] = []
    for mode, (lam, phi) in enumerate(zip(spectral.eigenvalues, spectral.values)):
        sup_phi = float(np.max(np.abs(phi)))
        phi_tail, phi_head = phi[mesh.seg_tail], phi[mesh.seg_head]
        best = None
        for e, n, first in zip(g.edges, mesh.segments_per_edge.tolist(), seg_start.tolist()):
            he = e.length / n
            poly = solution.poly(e.id)
            for t in range(samples_per_edge + 1):
                x = e.length * t / samples_per_edge
                if field.at(e.id, x) < h:
                    continue
                s = min(int(x / he), n - 1)
                frac = x / he - s
                phix = (1.0 - frac) * phi_tail[first + s] + frac * phi_head[first + s]
                ratio = abs(phix) / (lam * sup_phi * poly.value(x))
                if best is None or ratio > best[0]:
                    best = (ratio, e.id, x)
        if best is None:
            raise BadParameters("every sample point fell inside the Dirichlet exclusion radius")
        out.append(LandscapeRatio(mode, lam, best[0], best[1], best[2]))
    return out, h
