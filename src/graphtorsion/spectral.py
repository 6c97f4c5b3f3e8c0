"""Spectra of metric graphs from the vertex-sized secular matrix: the exact
lambda_1, and the P1 finite element eigenpairs behind spectrum, heat content
and landscape checks.

secular_lambda1 returns the exact lowest Dirichlet eigenvalue from the
secular matrix A(k) over the natural vertices, the torsion system's size and
sparsity pattern, by Rayleigh functional iteration from the
torsion function (its vertex values, and the first shift one Newton step
below its Rayleigh quotient), one continuum law evaluation per shift serving
the fill, A'(s) x and the next root's first Newton step; the pivot signs of one LDL^T of
A(k (1 - DELTA)) certify it (Sylvester's law of inertia), or the count
search of the P1 modes (_brackets) brackets it.
No mesh is built, so lambda_1 carries no discretization error and costs a
few vertex-sized factorizations.  The audit takes lambda_1 from here.

lowest_eigenpairs returns eigenpairs of the P1 stiffness/mass pencil (K0, M0)
of a uniform subdivision of each edge, without a matrix of the mesh's size.
The pencil condenses exactly onto a secular matrix A_h(lambda) on the torsion
system's pattern (_P1Law), whose negative pivots plus the Dirichlet modes
inside the edges count the eigenvalues below lambda (Wittrick and Williams,
Q. J. Mech. Appl. Math. 24, 1971).  The count brackets the modes, from the
Nicaise bound up, counting first at bounds on each mode from the edges as
separate intervals, pinned and cut (_P1Law.bounds); the same factor gives
the determinant of the pencil up to a slowly varying factor, and regula
falsi on it picks the next point to count.  Null vectors of a bounded system
over the vertices and edges, and one Rayleigh-Ritz step, give the
eigenpairs.  Eigenvalue error against the graph's spectrum decays like h^2.
What does not change with the point is built once per solve: the storages
of the secular matrix and of the bounded system (torsion.Storage, the array
or CSC data as torsion.DENSE_MAX says, and CSC for a secular matrix past
DENSE_RATIO), and the start blocks of the null vectors, so a count or a
null vector takes the law at its point, one bincount and the factor its
storage goes to (torsion.SymmetricFactor, torsion.lu_solver).

The mesh is held as a count of segments per edge.  Node i < |V| is the
graph vertex vertices[i]; the interior points j = 1..n-1 of each edge
follow, edge by edge, tail to head, as in the node list of the JSON payload.
A mode is held as its vertex values and, on each edge, an amplitude and a
continuity miss (_Modes): x_t P[j] + b Q[j] + miss j/n at point j, with P
and Q the discrete cosine and sine at its bracket's angle.  The Rayleigh-Ritz
Gram matrices, the mode integrals and the signs come from closed-form sums
over each edge's points, so a solve allocates nothing of the mesh's size.
The rows in node order, and their residuals, are written when first read:
a simple mode at one sine per point, a cluster of m modes from one pair
cos(j theta), sin(j theta).

One call factors a vertex-sized matrix at most MAX_COUNTS - 1 times in its
count search and Rayleigh iteration (secular_lambda1's last certificate
aside) and raises NoConvergence past that; SpectralResult.iterations reports
the factorizations spent.
"""

from __future__ import annotations

import bisect
import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import BadParameters, NoConvergence, SingularSystem
from .graph import MetricGraph, is_count, is_number
from .torsion import (EPS, DiscreteSystem, Storage, SymmetricFactor, TorsionSolution, _require_graph, _solved,
                      assemble_discrete_system, laplacian_terms, lu_solver, torsion_function)

DEFAULT_TOL = 1e-10
MAX_COUNTS = 10000
# Largest mesh build_mesh makes.  A solve allocates nothing of the mesh's
# size; reading the rows and their residuals (spectrum --json,
# landscape_check) peaks at about 64 bytes per node for one mode and 80 for
# three (numpy allocations by tracemalloc, star(3) at 500k nodes), so the 16M
# nodes of star(2, [1e-6, 1]) at the default h would need about 1.3 GB before
# the JSON payload of spectrum --json, which takes several times more.
MAX_MESH_NODES = 2_000_000
# Interior points per block when one mode's row is scanned for its sign.
ROW_BLOCK = 8192
# Rounding of the Rayleigh-Ritz products moves a Ritz value by some 1e-15
# relative (at most 3.5e-15 above its bracket at tol = 0 on 160 test solves).
RITZ_ROUND = 1e-12


def default_h(g: MetricGraph) -> float:
    return float(g.arrays.length.min()) / 16.0


def check_controls(h_target: float | None, tol: float = DEFAULT_TOL) -> None:
    """Raise BadParameters for a mesh width or tolerance no solve can use: each
    must be a number (graph.is_number), h_target positive and tol non-negative."""
    if h_target is not None and not (is_number(h_target) and h_target > 0):
        raise BadParameters(f"h_target must be a positive finite number, got {h_target!r}")
    if not (is_number(tol) and tol >= 0.0):
        raise BadParameters(f"tol must be a finite non-negative number, got {tol!r}")


@dataclass(frozen=True)
class Mesh:
    """Uniform P1 mesh of a graph, held as its count of segments per edge.

    Edge e is cut into n = segments_per_edge[e] segments of width l/n, with
    points j = 0..n from its tail (j = 0) to its head (j = n).  Nodes
    0..|V|-1 are the vertices in ``graph.vertex_ids`` order; the interior
    points j = 1..n-1 follow edge by edge.  No array lists the nodes one by
    one: the solver works from the counts, and nodes() writes the payload's
    node list when asked.
    """

    graph: MetricGraph
    h_target: float
    segments_per_edge: np.ndarray
    h_eff: float

    @property
    def n_nodes(self) -> int:
        return len(self.graph.vertex_ids) + int(self.segments_per_edge.sum()) - len(self.segments_per_edge)

    @property
    def free(self) -> np.ndarray:
        """The nodes off the Dirichlet vertices."""
        nv = len(self.graph.vertex_ids)
        return np.concatenate([np.flatnonzero(~self.graph.arrays.dirichlet), np.arange(nv, self.n_nodes)])

    def nodes(self) -> list[dict]:
        """The nodes in order, as the JSON payload lists them: each vertex, then
        each interior point as its edge and its distance j l/n from the tail."""
        g, n = self.graph, self.segments_per_edge
        nodes = [{"edge": None, "offset": 0.0, "vertex": v} for v in g.vertex_ids]
        nodes += [{"edge": e, "offset": j * w, "vertex": None}
                  for e, count, w in zip(g.edge_ids, n.tolist(), (g.arrays.length / n).tolist())
                  for j in range(1, count)]
        return nodes

    def trapezoid_weights(self) -> np.ndarray:
        """Row sums of the consistent mass matrix: exact integrals of the hats."""
        arr, n = self.graph.arrays, self.segments_per_edge
        w = arr.length / n
        ends = np.bincount(np.concatenate([arr.tail, arr.head]), np.tile(0.5 * w, 2), len(self.graph.vertex_ids))
        return np.concatenate([ends, np.repeat(w, n - 1)])


def build_mesh(g: MetricGraph, h_target: float | None = None) -> Mesh:
    """Uniform per-edge subdivision with ceil(length/h_target) segments, at least 2."""
    check_controls(h_target)
    if h_target is None:
        h_target = default_h(g)
    length = g.arrays.length
    counts = np.maximum(2.0, np.ceil(length / h_target - 1e-12))
    needed = len(g.vertex_ids) + float(np.sum(counts - 1.0))
    if needed > MAX_MESH_NODES:
        raise BadParameters(
            f"mesh at h_target={h_target!r} needs {needed:.0f} nodes, "
            f"more than the {MAX_MESH_NODES} allowed"
        )
    return Mesh(g, h_target, counts.astype(np.int64), float((length / counts).max()))


@dataclass(frozen=True)
class SpectralResult:
    """Lowest eigenpairs of the Dirichlet pencil on a fixed mesh.

    eigenvalues, iterations and integrals are computed by the solve.  The
    modes share one bracketing search, so iterations repeats its count once
    per mode: the number of eigenvalue counts, each one factorization of the
    vertex-sized secular matrix.  integrals holds each mode's integral over
    the graph.  values and residuals are written on first read, from the
    modes' vertex values and edge amplitudes: values holds one row per mode
    over all mesh nodes in the mesh's node order, the vertices and then the
    interior points of each edge in turn (zeros at Dirichlet nodes), each
    mass-normalized and signed as lowest_eigenpairs says; within a multiple
    eigenvalue the first carries the whole integral and the rest integrate
    to 0.  residuals holds ||K0 x - lambda M0 x|| over the free nodes of each
    row.
    """

    mesh: Mesh
    eigenvalues: tuple[float, ...]
    iterations: tuple[int, ...]
    integrals: tuple[float, ...]
    modes: _Modes = field(repr=False, compare=False)

    @property
    def h_eff(self) -> float:
        return self.mesh.h_eff

    @functools.cached_property
    def values(self) -> np.ndarray:
        return self.modes.values()

    @functools.cached_property
    def residuals(self) -> tuple[float, ...]:
        # each flux (x_t - x_h)/w, then each segment's share at its tail and at
        # its head, summed at an interior point, and by a bincount over the edge
        # ends at a vertex; the pairs of interior points that join two edges
        # have w = 0
        arr, n, nv = self.mesh.graph.arrays, self.mesh.segments_per_edge, len(self.mesh.graph.vertex_ids)
        last = nv - 1 + np.cumsum(n - 1)
        first = last - n + 2
        we = arr.length / n
        w = np.repeat(we, n - 1)[:-1]
        w[last[:-1] - nv] = 0.0
        inv = np.divide(1.0, w, out=np.zeros_like(w), where=w > 0.0)
        seg_t, seg_h, we = np.concatenate((arr.tail, last)), np.concatenate((first, arr.head)), np.tile(we, 2)
        resids, w6, we6, natural, ne = [], w / 6.0, we / 6.0, ~arr.dirichlet, len(n)
        f, m, s, r = np.empty_like(w), np.empty_like(w), np.empty_like(w), np.empty(len(w) + 1)
        for x, lam in zip(self.values, self.eigenvalues):
            y0, y1, xt, xh = x[nv:-1], x[nv + 1:], x[seg_t], x[seg_h]
            np.subtract(y0, y1, out=f)
            f *= inv
            np.multiply(w6, lam, out=m)
            np.multiply(y0, 2.0, out=s)
            s += y1
            s *= m
            np.subtract(f, s, out=r[:-1])  # f - m (2 y0 + y1)
            r[-1] = 0.0
            np.multiply(y1, 2.0, out=s)
            s += y0
            s *= m
            s += f
            r[1:] -= s  # f + m (y0 + 2 y1)
            f_end, m_end = (xt - xh) / we, lam * we6
            at_tail, at_head = f_end - m_end * (2.0 * xt + xh), -f_end - m_end * (xt + 2.0 * xh)
            r[first - nv] += at_head[:ne]
            r[last - nv] += at_tail[ne:]
            ends = (np.bincount(arr.tail, at_tail[:ne], nv) + np.bincount(arr.head, at_head[ne:], nv))[natural]
            resids.append(math.sqrt(r @ r + ends @ ends))
        return tuple(resids)

    def to_payload(self) -> dict:
        mesh = self.mesh
        return {
            "h_target": mesh.h_target,
            "h_eff": mesh.h_eff,
            "eigenvalues": list(self.eigenvalues),
            "residuals": list(self.residuals),
            "iterations": list(self.iterations),
            "nodes": mesh.nodes(),
            "values": [row.tolist() for row in self.values],
        }


def lowest_eigenpairs(
    g: MetricGraph,
    k: int = 1,
    h_target: float | None = None,
    tol: float = DEFAULT_TOL,
) -> SpectralResult:
    """The k lowest eigenpairs of the P1 pencil at mesh width h_target.

    Brackets on the count isolate the modes (_brackets); a bracket holding m
    of them gives m null vectors of the bounded system, and Rayleigh-Ritz on
    the k vectors gives the eigenvalues, from Gram matrices summed edge by
    edge in closed form (_Modes.gram), so the solve writes no array of the
    mesh's size; the result writes the rows and their residuals when they are
    first read.  NoConvergence when a Ritz value lies above its bracket: its
    null vector was poor, and the value would be off by more than tol.  Each
    simple mode and each multiple eigenvalue's first mode integrate to a
    positive number; a simple mode with |int phi| <= 1e-10 sqrt(L) (0 up to
    rounding) has instead its first value in node order within 1e-8 of its
    largest magnitude positive, read from its own row, written block by block.
    """
    check_controls(h_target, tol)
    mesh = build_mesh(g, h_target)
    if not is_count(k):
        raise BadParameters(f"the number of modes must be an int, got {k!r}")
    if k < 1:
        raise BadParameters("need at least one mode")
    arr, n = g.arrays, mesh.segments_per_edge
    law, sys = _P1Law(mesh), assemble_discrete_system(g)
    nf = len(sys.order) + int((n - 1).sum())
    if k > nf:
        raise BadParameters(f"asked for {k} modes but the mesh has only {nf} free nodes")
    sec = _Secular(sys, 0.0, math.inf, law)
    floor = (math.pi / (2.0 * math.fsum(sys.length.tolist()))) ** 2  # Nicaise: below every P1 eigenvalue
    parts, lams, sizes, tops, starts = [], [], [], [], {}
    storage = _bounded_storage(sys)
    for lo, hi, m in _brackets(sec, k, tol, floor, 12.0 / float(law.width.min()) ** 2, nf, *law.bounds(k)):
        lams.append(0.5 * (lo + hi))
        if m not in starts:  # the seeded start block of each width, drawn once per solve
            starts[m] = np.random.default_rng(0).standard_normal((storage.n, m))
        x, b, miss = _null_space(sys, storage, law, lams[-1], starts[m])
        parts.append((x[sys.unknown], b, miss))
        sizes.append(m)
        tops += [hi] * m
    modes = _Modes(law, arr, lams, sizes, *(np.hstack(p) for p in zip(*parts)))
    stiff, mass, basis_integrals = modes.gram()
    ritz, v = scipy.linalg.eigh(stiff, mass)
    # each Ritz value lies above its eigenvalue, so above the bracket's bottom;
    # one above the top comes from a poor null vector
    above = np.flatnonzero(ritz > np.array(tops) * (1.0 + RITZ_ROUND))
    if len(above):
        i = int(above[0])
        raise NoConvergence(f"Ritz value {ritz[i]!r} of mode {i + 1} lies above its bracket, whose top is {tops[i]!r}")
    # a basis of each multiple eigenvalue that the graph defines: an orthogonal
    # change of basis, so still M-orthonormal, whose first vector carries the
    # whole integral and the rest integrate to 0
    firsts = np.cumsum(sizes) - sizes
    for first_mode, m in zip(firsts, sizes):
        if m > 1:
            block = v[:, first_mode:first_mode + m]
            block[:] = block @ np.linalg.qr((basis_integrals @ block)[:, None], mode="complete")[0]
    integrals = basis_integrals @ v
    # the signs, on v where the integral decides; rounding leaves some 1e-11 on
    # the integral of a mode odd about an edge's midpoint, whose values decide
    zero = 1e-10 * math.sqrt(math.fsum(arr.length.tolist()))
    ties = [f for f, m in zip(firsts.tolist(), sizes) if m == 1 and abs(integrals[f]) <= zero]
    flip = [f for f in firsts.tolist() if integrals[f] < 0.0 and f not in ties]
    flip += [f for f in ties if modes.first_peak(v[:, f]) < 0.0]
    v[:, flip], integrals[flip] = -v[:, flip], -integrals[flip]
    modes.rotation = v
    return SpectralResult(mesh, tuple(ritz.tolist()), (sec.counts,) * k, tuple(integrals.tolist()), modes)


def _brackets(sec: _Secular, k: int, tol: float, floor: float, top: float, total: int,
              lower: Sequence[float] = (), upper: Sequence[float] = ()) -> list[tuple[float, float, int]]:
    """(lo, hi, m): modes count(lo)+1 .. count(hi) lie in [lo, hi), m of them
    among the lowest k, and hi - lo <= tol hi or no float lies between; m is
    at most the bounded system's size, which bounds a multiplicity.  A point
    x is lambda when law = sec.law is a _P1Law, k for _Continuum; count(x)
    is A(x)'s negative pivots plus law.inside, each one sec.spend().
    Brackets share their points, from count(top) = total and a floor below
    the lowest eigenvalue, counted once (0 instead if rounding counts a mode
    below it).

    The count alone fixes each bracket; the next point only makes it shrink
    faster.  Bounds lower[j] <= lambda_(j+1) <= upper[j], when given, are
    counted first where they fall inside mode j + 1's bracket, at lower[j]
    (1 - tol/4) and upper[j] (1 + tol/4), so that each lands on its side of
    the mode when the bound is the eigenvalue.  A bracket wider than a
    factor 2 splits at its geometric mean.  Then each count is also a value
    of f = det A exp(law.log_q), continuous across A's poles and zero exactly
    at the eigenvalues, read off the pivots and the law; the next point is
    regula falsi on g = |f|^(1/j) for a count jump j, the side taken from the
    count and not from a sign of f, kept tol hi / 2 from both ends.  When the
    same end moves twice running, g at the other end is scaled by 1 -
    g_new/g_old, or by 1/2 when that is not positive (Anderson and Bjorck,
    BIT 13, 1973); the midpoint follows three steps that did not halve the
    bracket (Dekker, Brent).  Where A is exactly singular, x is an eigenvalue
    to rounding: the points x (1 + tol/4) and then x (1 - tol/4) close a
    bracket around it (at tol = 0 the point moves halfway to hi instead).  A
    second exactly singular count in a row, in a bracket still wider than tol
    (tol > 0), raises NoConvergence: float64 cannot place the eigenvalue
    there, and stepping on by tol/4 either spends the factorizations or
    leaves the bracket at a point the counts do not support.  A count outside
    its neighbours' (rounding at an eigenvalue) is clamped."""
    law = sec.law
    unknowns = len(sec.sys.order) + len(sec.sys.length)

    def count(x: float) -> tuple[int | None, float]:
        """count(x) and log |f(x)|; None when A(x) is exactly singular."""
        sec.spend()
        negatives, log_det = sec.inertia(x)
        return None if negatives is None else negatives + law.inside, log_det + law.log_q

    lams, counts, logs = [0.0, top], [0, total], [None, None]
    c, f = count(floor)
    if c == 0:
        lams[0], logs[0] = floor, f
    out, mode, seen, pole = [], 1, 0, math.nan
    while mode <= k:
        i = bisect.bisect_left(counts, mode)
        lo, hi, m = lams[i - 1], lams[i], min(counts[i], k) - counts[i - 1]
        if seen != mode:  # a new mode: no scaling, no widths yet
            seen, side, scale, widths = mode, None, [0.0, 0.0], []
            below = lower[mode - 1] * (1.0 - 0.25 * tol) if mode <= len(lower) else 0.0
            above = upper[mode - 1] * (1.0 + 0.25 * tol) if mode <= len(upper) else math.inf
        x, delta = 0.5 * (lo + hi), 0.5 * tol * hi
        if hi - lo <= tol * hi and m <= unknowns:
            x = lo  # done: nothing to count
        elif lo < pole * (1.0 - 0.25 * tol) < pole < hi:
            x = pole * (1.0 - 0.25 * tol)
        elif lo < below < hi:
            x = below
        elif lo < above < hi:
            x = above
        elif lo > 0.0 and hi > 2.0 * lo:
            x = math.sqrt(lo * hi)
        elif logs[i - 1] is not None and logs[i] is not None:
            widths.append(hi - lo)
            if len(widths) < 4 or widths[-1] <= 0.5 * widths[-4]:
                # z = log(g_hi / g_lo), g = |f|^(1/j) scaled: x = lo + (hi - lo) g_lo / (g_lo + g_hi)
                z = (logs[i] - logs[i - 1]) / (counts[i] - counts[i - 1]) + scale[1] - scale[0]
                e = math.exp(-abs(z))
                x = min(max(lo + (hi - lo) * (e if z > 0.0 else 1.0) / (1.0 + e), lo + delta), hi - delta)
                if not lo < x < hi or hi - lo <= 2.0 * delta:  # also a NaN step
                    x = 0.5 * (lo + hi)
        c, at, start = None, lo, x
        while c is None and at < x < hi:
            (c, f), at = count(x), x
            if c is None:  # exactly singular: close a bracket around at
                if at != start and tol > 0.0 and hi - lo > tol * hi:  # twice running: no bracket closes
                    raise NoConvergence(f"A({pole!r}) and A({at!r}) are both exactly singular in [{lo!r}, {hi!r})")
                pole, x = at, at * (1.0 + 0.25 * tol)
                if not at < x < hi:
                    x = 0.5 * (at + hi)
        if c is None:
            out.append((lo, hi, m))
            mode = counts[i] + 1
            continue
        c = min(max(c, counts[i - 1]), counts[i])
        lams.insert(i, at)
        counts.insert(i, c)
        logs.insert(i, f)
        moved = int(c >= mode)  # the end at replaced: 0 lo, 1 hi
        if side == moved:  # the same end twice: Anderson-Bjorck scales g at the other
            z = (f - logs[i + 2 * moved - 1]) / (counts[i + 1 - moved] - counts[i - moved])  # log(g_new / g_old)
            shrink = -math.expm1(z) if z < 0.0 else 0.0
            scale[1 - moved] += math.log(shrink) if shrink > 0.0 else -math.log(2.0)
        scale[moved] = 0.0
        side = moved
    return out


def _bounded_storage(sys: DiscreteSystem) -> Storage:
    """The storage of the bounded system B of _null_space, the array or CSC
    data as torsion.DENSE_MAX says, its terms in the order _null_space lists
    them.  Unknown i < n is natural vertex i of sys, n + e the amplitude b_e,
    whose row is edge e's continuity; a Dirichlet end (n + |E|) drops its
    terms."""
    n, ne = len(sys.order), len(sys.tail)
    size = n + ne
    tail, head = (np.where(ends < n, ends, size) for ends in (sys.tail, sys.head))
    amp, diag = n + np.arange(ne), np.arange(size)  # b_e, and the shift on every unknown
    rows = np.concatenate((tail, tail, head, head, amp, amp, amp, diag))
    cols = np.concatenate((tail, amp, tail, amp, tail, amp, head, diag))
    return Storage.build(size, rows, cols)


def _null_space(sys: DiscreteSystem, storage: Storage, law: _P1Law, lam: float,
                start: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orthonormal natural-vertex values x (with a row of zeros for the
    Dirichlet ends) and edge amplitudes b spanning the near-null space of the
    bounded system B at lam, by inverse iteration from the block start, and
    each edge's miss x_h - u[n].  Kirchhoff at each natural vertex sums
    a (c1 u[0] - u[1]) and a (c1 u[n] - u[n-1]) over the edge ends there;
    continuity is u[n] = x_h.  Off its eigenvalue by d, the null vector misses
    continuity by O(d), a kink K0 would magnify by 1/h^2; the caller spreads
    the miss linearly along the edge, which changes the flux at both ends by
    miss/l.  So the continuity row of an edge is divided by its length l, and
    every row measures a flux: with unscaled rows inverse iteration put the
    miss on short edges, and the sixth mode of random_graph(29, length_range=
    (1e-3, 1)) came out 2.9e-4 above its bracket at tol = 1e-6.

    B's storage = _bounded_storage(sys) is built once per solve; each call
    evaluates the law's ends at lam, fills B with one bincount of its terms
    and factors it by its storage's kernel (torsion.lu_solver); an exactly
    singular B raises NoConvergence.  A block of one column is normalized, a
    wider one orthonormalized by QR."""
    n, ne = len(sys.order), len(sys.tail)
    a, c1, p, q = law.ends(lam)
    vals = np.concatenate((a * (c1 - p[0]), -a * q[0], a * (c1 * p[2] - p[1]), a * (c1 * q[2] - q[1]),
                           *(np.stack((p[2], q[2], -np.ones(ne))) / sys.length)))
    # B + s I, s = sqrt(EPS) max|B|, has B's eigenvectors and a factor even where
    # lam is an eigenvalue to the last bit; a step shrinks the rest by s / |mu_2|.
    vals = np.append(vals, np.full(storage.n, math.sqrt(EPS) * np.abs(vals).max()))
    try:
        solve = lu_solver(storage, storage.fill(vals))
    except SingularSystem:
        raise NoConvergence(f"the bounded system is exactly singular at lambda = {lam!r}") from None
    y, width = start, start.shape[1]  # solve() leaves start as it is
    for _ in range(3):
        y = solve(y)
        if width == 1:
            y /= math.sqrt(float(y[:, 0] @ y[:, 0]))
        else:
            y = np.linalg.qr(y)[0]
    x, b = np.vstack((y[:n], np.zeros(width))), y[n:]
    return x, b, x[sys.head] - x[sys.tail] * p[2][:, None] - b * q[2][:, None]


class _P1Law:
    """The P1 pencil K0 - lam M0 on the uniformly cut edges of a mesh.

    On an edge of n segments of width w its interior rows are -a times
    u[j-1] + u[j+1] = 2 c1 u[j], a = 1/w + lam w/6, c1 = 1 - 2 s2,
    s2 = (lam w^2/4) / (1 + lam w^2/6), so u[j] = x_t P[j] + b Q[j] from
    u[0] = x_t.  Below the band edge, lam w^2 < 12, s2 = sin(theta/2)^2,
    P = cos(j theta) and Q = sin(j theta).  Past it theta = pi + i eta,
    P = (-1)^j sinh((n-j) eta)/sinh(n eta), Q = (-1)^(n-j) sinh(j eta)/sinh(n eta)
    and b = x_h.  Both bases lie in [-1, 1].  Eliminating b leaves _Secular's
    form: c = a Q[1]/Q[n] and d = c - a (c1 - P[1]) - c P[n], below the band
    edge beta/sin(n theta) and beta tan(n theta/2), beta = a sin(theta).
    """

    def __init__(self, mesh: Mesh):
        self.n = mesh.segments_per_edge
        self.width = mesh.graph.arrays.length / self.n
        self.square, self.inverse, self.sixth = self.width ** 2, 1.0 / self.width, self.width / 6.0
        self.j = np.stack((np.ones_like(self.n), self.n - 1, self.n))  # the points ends() takes
        arr = mesh.graph.arrays
        self.dirichlet_ends = arr.dirichlet[arr.tail].astype(int) + arr.dirichlet[arr.head]  # 0, 1 or 2 per edge
        self.half_edges = 0.5 * len(self.n)
        # below this lam, lam w^2 < 11 on every edge: s2 < 1 with room for rounding
        self.below_band = 11.0 / float(self.square.max())

    def angles(self, lam: float) -> tuple[np.ndarray, np.ndarray]:
        """s2 and theta, pi past the band edge, on every edge."""
        x = lam * self.square
        s2 = 0.25 * x / (1.0 + x / 6.0)
        return s2, 2.0 * np.arcsin(np.sqrt(np.minimum(s2, 1.0)))

    @staticmethod
    def past(s2: np.ndarray, n: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """P[j] and Q[j] at points j of edges of n segments past the band edge,
        from angles(lam)'s s2 there."""
        eta = np.maximum(2.0 * np.arccosh(np.sqrt(s2)), np.finfo(float).tiny)  # the limit at 0

        def ratio(m):  # sinh(m eta) / sinh(n eta), 0 <= m <= n, without overflow
            return np.exp((m - n) * eta) * np.expm1(-2.0 * m * eta) / np.expm1(-2.0 * n * eta)

        return (1 - 2 * (j % 2)) * ratio(n - j), (1 - 2 * ((n - j) % 2)) * ratio(j)

    def bounds(self, k: int) -> tuple[list[float], list[float]]:
        """Lower and upper bounds on each of the k lowest eigenvalues, from
        the edges as separate intervals (Courant-Fischer): with every natural
        vertex cut into free ends the P1 space grows, so its j-th eigenvalue
        is at most lambda_j; with every vertex pinned it shrinks, so its j-th
        is at least lambda_j.  On an edge of n segments of width w these are
        (12/w^2) s/(3 - 2 s), s = sin(theta/2)^2, at theta = j pi/n: 0 < j < n
        pinned; cut, 0 < j < n between two Dirichlet ends, 0 <= j <= n
        between two free ones, and theta = (j - 1/2) pi/n, 0 < j <= n, with
        one of each.  A list is shorter than k when the intervals have fewer
        eigenvalues."""
        j, n, ends = np.arange(min(k, int(self.n.max())) + 1)[:, None], self.n, self.dirichlet_ends
        s = np.sin(np.stack((j, j - 0.5)) * (0.5 * math.pi / n)) ** 2
        whole, half = 12.0 / self.square * s / (3.0 - 2.0 * s)  # at theta = j pi/n and (j - 1/2) pi/n
        inner = (0 < j) & (j < n)
        kept = np.where(ends == 2, inner, np.where(ends == 1, (0 < j) & (j <= n), j <= n))
        return np.sort(np.where(ends == 1, half, whole)[kept])[:k].tolist(), np.sort(whole[inner])[:k].tolist()

    def bases(self, lam: float, j: np.ndarray) -> tuple[np.ndarray, ...]:
        """s2, j theta and the bases P[j] and Q[j] at the points j, rows over
        the edges: cos and sin of j theta, with the sinh form on the edges
        past the band edge."""
        s2, theta = self.angles(lam)
        z = j * theta
        p, q = np.cos(z), np.sin(z)
        if lam >= self.below_band:
            s2_j, n_j = np.broadcast_to(s2, j.shape), np.broadcast_to(self.n, j.shape)
            past = (s2_j >= 1.0).nonzero()
            p[past], q[past] = self.past(s2_j[past], n_j[past], j[past])
        return s2, z, p, q

    def ends(self, lam: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """a, c1 and the bases at j = 1, n - 1, n (rows of p and q) on every edge."""
        s2, _, p, q = self.bases(lam, self.j)
        return self.inverse + lam * self.sixth, 1.0 - 2.0 * s2, p, q

    def __call__(self, lam: float) -> tuple[np.ndarray, np.ndarray]:
        """Conductance c and end term d of every edge in A_h(lam).  The same
        angles leave on the law, for lam, inside: the eigenvalues below lam with
        both ends of an edge pinned, min(n - 1, ceil(n theta / pi) - 1) each;
        and log_q: log |Q[n]| summed over the edges, less (|E|/2) log lam.
        det A_h(lam) exp(log_q) is then the determinant of the pencil K0 - lam
        M0 up to a factor that varies slowly with lam: the eliminated interior
        of each edge has determinant a^(n-1) Q[n]/Q[1], and Q[1] = sin(theta)
        grows like w sqrt(lam).

        The counts call this once per point, so it takes the bases at j = 1
        and n only (the first and last rows of ends'); c, d, inside and log_q
        are those of ends(lam) to the bit.  The widths, their squares,
        inverses and sixths, and the lam below which no edge is past the band
        edge, are taken once per solve, when the law is made."""
        s2, z, (p1, pn), (q1, qn) = self.bases(lam, self.j[::2])  # z: theta and n theta
        a = self.inverse + lam * self.sixth
        # min(n - 1, ceil(n theta / pi) - 1) summed, the 1 taken once per edge
        self.inside = int(np.minimum(self.n, np.ceil(z[1] / math.pi)).sum()) - len(self.n)
        self.log_q = float(np.log(np.abs(qn)).sum()) - self.half_edges * math.log(lam)
        c = a * q1 / qn
        return c, c - a * (1.0 - 2.0 * s2 - p1) - c * pn


class _Modes:
    """The modes of one solve, held as vertex values and edge amplitudes.

    Basis mode i (the brackets' null vectors, in order) has the values
    vertex_values[:, i] at the vertices (0 at a Dirichlet vertex) and, at
    point j of edge e, cut into n segments, x_t P[j] + b Q[j] + gap j with
    x_t = xt[i, e], b = b[i, e] and gap = miss/n, P and Q at its bracket's
    lam (_P1Law).  Mode f of the result is sum_i rotation[i, f] basis_i.
    Nothing here is of the mesh's size until rows are written.
    """

    def __init__(self, law: _P1Law, arr, lams: list[float], sizes: list[int],
                 vertex_values: np.ndarray, b: np.ndarray, miss: np.ndarray):
        self.law, self.lams = law, np.repeat(lams, sizes)
        self.vertex_values = vertex_values
        self.xt, self.b, self.gap = vertex_values[arr.tail].T, b.T, miss.T / law.n
        # per bracket: its angles and the x_t, b and gap of its modes
        self.terms = [(law.angles(lam), self.xt[lo:hi], self.b[lo:hi], self.gap[lo:hi])
                      for lam, lo, hi in zip(lams, np.cumsum(sizes) - sizes, np.cumsum(sizes))]
        self.inner = np.cumsum(law.n - 1)  # interior points up to each edge's last
        self.rotation: np.ndarray | None = None

    def points(self, edges: np.ndarray, counts: np.ndarray, j: np.ndarray, terms: list) -> np.ndarray:
        """The rows of terms (as self.terms: angles, x_t, b, gap) at the points
        j of runs of counts[r] points on the edges edges[r]."""
        def spread(a):  # a value of every edge at each point of its runs
            return np.repeat(a[..., edges], counts, axis=-1)

        n, u, hi = self.law.n, np.empty((sum(len(t[1]) for t in terms), len(j))), 0
        for (s2, theta), xt, b, gap in terms:
            lo, hi = hi, hi + len(xt)
            z = spread(theta)
            z *= j
            if hi - lo == 1:
                # x_t cos(j theta) + b sin(j theta) = r sin(j theta + phi): one sine,
                # with |phi| <= pi/2 so that the phase adds little to z's rounding
                sign = np.where(b[0] < 0.0, -1.0, 1.0)
                z += spread(np.arctan2(sign * xt[0], sign * b[0]))
                np.sin(z, out=u[lo])
                u[lo] *= spread(sign * np.hypot(xt[0], b[0]))
            else:
                np.multiply(spread(xt), np.cos(z), out=u[lo:hi])
                np.sin(z, out=z)
                z = spread(b) * z
                u[lo:hi] += z
            if s2[edges].max() >= 1.0:
                past = spread(s2 >= 1.0).nonzero()[0]
                p, q = self.law.past(spread(s2)[past], spread(n)[past], j[past])
                e = spread(np.arange(len(n)))[past]
                u[lo:hi, past] = xt[:, e] * p + b[:, e] * q
            z = spread(gap)
            z *= j
            u[lo:hi] += z
        return u

    def edges(self, lo: int, hi: int) -> np.ndarray:
        """The edges holding the interior points lo .. hi - 1, counted edge by
        edge from 0 as in the mesh's node order after the vertices."""
        return np.arange(np.searchsorted(self.inner, lo, side="right"),
                         np.searchsorted(self.inner, hi - 1, side="right") + 1)

    def interior(self, lo: int, hi: int, terms: list) -> np.ndarray:
        """points() at the interior points lo .. hi - 1 (as in edges())."""
        edges = self.edges(lo, hi)
        first = self.inner[edges] - self.law.n[edges] + 1
        counts = np.minimum(self.inner[edges], hi) - np.maximum(first, lo)
        return self.points(edges, counts, np.arange(lo + 1.0, hi + 1.0) - np.repeat(first, counts), terms)

    def values(self) -> np.ndarray:
        """The modes' rows over every mesh node, in the mesh's node order."""
        nv, r, total = len(self.vertex_values), self.rotation, int(self.inner[-1])
        out = np.empty((r.shape[1], nv + total))
        out[:, :nv] = (self.vertex_values @ r).T
        for lo in range(0, total, ROW_BLOCK):
            hi = min(lo + ROW_BLOCK, total)
            np.matmul(r.T, self.interior(lo, hi, self.terms), out=out[:, nv + lo:nv + hi])
        return out

    def first_peak(self, f: np.ndarray) -> float:
        """Of the combination f of the basis, the first value in node order
        within 1e-8 of its largest magnitude: the 1e-8 keeps rounding from
        choosing between two peaks.  Its row is written ROW_BLOCK interior
        points at a time, at one sine per bracket, leaving out a bracket whose
        share is below the row's rounding (EPS of the largest share), and
        only in the blocks whose edges could reach that magnitude, by a bound
        of each bracket's term on each edge, taken in descending order."""
        terms, reach, at = [], [], 0
        for angles, *coeffs in self.terms:
            c, at = f[at:at + len(coeffs[0])], at + len(coeffs[0])
            xt, b, gap = ((c @ a)[None] for a in coeffs)
            terms.append((angles, xt, b, gap))
            # |x_t P + b Q + gap j| on each edge: r below the band edge, |P|, |Q| <= 1 past it
            amplitude = np.where(angles[0] < 1.0, np.hypot(xt[0], b[0]), np.abs(xt[0]) + np.abs(b[0]))
            reach.append(amplitude + np.abs(gap[0]) * self.law.n)
        share = [float(r.max()) for r in reach]
        keep = [i for i, s in enumerate(share) if s > EPS * max(share)]
        terms = [terms[i] for i in keep]
        bound = (1.0 + 1e-12) * sum(reach[i] for i in keep)  # with room for the row's rounding
        total = int(self.inner[-1])
        block_bound = [float(bound[self.edges(lo, min(lo + ROW_BLOCK, total))].max())
                       for lo in range(0, total, ROW_BLOCK)]

        def row(i):  # the vertices (None), or block i of interior points
            if i is None:
                return self.vertex_values @ f
            return self.interior(i * ROW_BLOCK, min((i + 1) * ROW_BLOCK, total), terms).sum(axis=0)

        peaks = {None: float(np.abs(row(None)).max())}
        for i in np.argsort([-b for b in block_bound], kind="stable").tolist():
            if block_bound[i] < (1.0 - 1e-8) * max(peaks.values()):
                break  # neither this block nor any after it reaches the peak
            peaks[i] = float(np.abs(row(i)).max())
        top = (1.0 - 1e-8) * max(peaks.values())
        x = row(None if peaks[None] >= top else min(i for i in peaks if i is not None and peaks[i] >= top))
        return float(x[np.argmax(np.abs(x) >= top)])

    def gram(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The basis's stiffness and mass Gram matrices u^T K0 u, u^T M0 u and
        integrals, summed edge by edge.

        On each segment s = 0..n-1 of an edge, with differences d[s] =
        u[s+1] - u[s] and sums m[s] = u[s] + u[s+1], K0 gives d d'/w and M0
        (2 u u' + 2 u[s+1] u'[s+1] + u u'[s+1] + u[s+1] u') w/6 = m m' w/4 +
        d d' w/12; the integral is m w/2.  Below the band edge d and m are
        p cos(t theta) + q sin(t theta) + r + g t in t = s - (n-1)/2, from
        H = (x_t - i b) exp(i n theta/2) and gam = miss/n: d has p, q =
        -2 sin(theta/2) (Im H, Re H), r = gam, g = 0; m has p, q =
        2 cos(theta/2) (Re H, -Im H), r = n gam, g = 2 gam.  Their products
        sum over t in closed form (Dirichlet kernels D(phi) = sin(n phi/2) /
        sin(phi/2) and the sum of t sin(t theta)), with (theta_a - theta_b)/2
        from lam_a - lam_b rather than from the two angles, and D(0) = n,
        which a cluster's shared angle meets.  An edge past the band edge at
        some bracket's lam has all its n - 1 pinned sines below lam, so fewer
        interior points than the eigenvalues below lam, and its points are
        summed one by one."""
        law, lams = self.law, self.lams
        s2, theta = law.angles(lams[:, None])
        summed = (s2 >= 1.0).any(axis=0)
        e = (~summed).nonzero()[0]
        n, w = law.n[e].astype(float), law.width[e]
        half = 0.5 * theta[:, e]
        sh, ch, sn, cn = np.sin(half), np.cos(half), np.sin(n * half), np.cos(n * half)
        xt, b, gam = self.xt[:, e], self.b[:, e], self.gap[:, e]
        re, im = xt * cn + b * sn, xt * sn - b * cn
        d1 = sn / sh  # sum of cos(t theta)
        e1 = 0.5 * (sn * ch - n * cn * sh) / (sh * sh)  # sum of t sin(t theta)
        x = lams[:, None] * w * w
        ds2 = 0.25 * w * w * (lams[:, None, None] - lams[None, :, None]) / ((1.0 + x / 6.0)[:, None] * (1.0 + x / 6.0))
        across = half[:, None] + half  # (theta_a + theta_b)/2
        below = np.arcsin(np.clip(ds2 / np.sin(across), -1.0, 1.0))  # (theta_a - theta_b)/2
        minus = np.divide(np.sin(n * below), np.sin(below), out=np.broadcast_to(n, below.shape).copy(),
                          where=below != 0.0)
        plus = np.sin(n * across) / np.sin(across)
        cc, ss = 0.5 * (minus + plus), 0.5 * (minus - plus)

        def products(p, q, r, g):  # sum over t of the products of two modes' sequences, per edge
            pr, qg = (p * d1)[:, None] * r, (q * e1)[:, None] * g
            return (p[:, None] * p * cc + q[:, None] * q * ss + pr + pr.swapaxes(0, 1) + qg + qg.swapaxes(0, 1)
                    + n * r[:, None] * r + n * (n * n - 1.0) / 12.0 * g[:, None] * g)

        dd = products(-2.0 * sh * im, -2.0 * sh * re, gam, np.zeros_like(gam))
        stiff, mass = dd @ (1.0 / w), products(2.0 * ch * re, -2.0 * ch * im, n * gam, 2.0 * gam) @ (0.25 * w)
        mass += dd @ (w / 12.0)
        integrals = (2.0 * ch * re * d1 + n * n * gam) @ (0.5 * w)
        e = summed.nonzero()[0]
        if len(e):
            count = law.n[e] + 1
            j = np.arange(count.sum(), dtype=float) - np.repeat(np.cumsum(count) - count, count)
            u = self.points(e, count, j, self.terms)
            seg = j[1:] > 0  # points j - 1 and j of one edge
            d, m = (u[:, 1:] - u[:, :-1])[:, seg], (u[:, 1:] + u[:, :-1])[:, seg]
            w = np.repeat(law.width[e], count)[1:][seg]
            stiff += (d / w) @ d.T
            mass += (m * (0.25 * w)) @ m.T + (d * (w / 12.0)) @ d.T
            integrals += m @ (0.5 * w)
        return stiff, mass, integrals


# -- exact lambda_1 from the secular matrix ------------------------------------

DELTA = 1e-9  # the certificate factors A(k (1 - DELTA)) below the returned k
# Smallest relative move of k that the iteration resolves: q is a sum of terms
# that cancel at its root, so its rounding moves the root by some 1e-15
# relative, more on graphs of many edges.
K_FLOOR = 1e-13
NEWTON_TOL = 64 * EPS  # a bracket this narrow (relative) ends the root search
# Widest length ratio (max/min) at which a secular matrix may go to the dense
# kernel; past it the matrix is stored as CSC data and goes to SuperLU
# whatever its size.  On random_graph seeds 0..199 the dense and
# SuperLU kernels' lambda_1 agree to 7e-16 at ratios up to 1e6.  Past that,
# against a 60-digit count (lambda_1 wrong unless within 1e-12) on those
# seeds at lengths (1e-7, 1e7), this routing is wrong on 64, 113 and 170 and
# raises on 75 (A exactly singular twice running), 132 and 161, the dense
# kernel alone is wrong on 9, 113, 161 (2.4e-4 low) and 170 and raises on 64;
# at (1e-5, 1e5) the routing raises on 64 and 72 (twice singular), dense is
# wrong on 64; at (1e-4, 1e4) both are wrong on 64, dense on 75, and the
# routing raises on 75 (twice singular).  SuperLU stays past the ratio: it
# turns the worst silent error into a typed one.
DENSE_RATIO = 1e6


class _Continuum:
    """c = k/sin(kl) and d = k tan(kl/2) of every edge in A(k), from one
    t = tan(h) per edge, h = kl/2, and 1/sin(kl) = (1 + t^2)/(2t), returned and
    kept as terms with c' = (1 - h (1 - t^2)/t)/sin(kl) and d' = t + h (1 + t^2).
    c' cancels for small kl, but its error, some ulps of 1/(kl), meets
    (x_t - x_h)^2, small on a short edge; and the slopes steer only the
    iteration, not where it stops (q = 0, A(k) x = 0).  For the k of the last
    call it also gives, when read, inside: the eigenvalues below k^2 with both
    ends of an edge pinned, max(0, ceil(kl/pi) - 1) each; and log_q:
    log |sin(kl)/k| summed over the edges, which clears the poles of c and d
    from det A(k).  Only _brackets reads them."""

    def __init__(self, length: np.ndarray):
        self.length, self.half = length, 0.5 * length

    def __call__(self, k: float) -> tuple[np.ndarray, ...]:
        self.k, h = k, k * self.half
        t = np.tan(h)
        u = t * t
        s = (1.0 + u) / (t + t)
        self.terms = k * s, k * t, s - s * h * (1.0 - u) / t, t + h + h * u
        return self.terms

    @property
    def inside(self) -> int:
        return int(np.maximum(np.ceil(self.k * self.length / math.pi) - 1.0, 0.0).sum())

    @property
    def log_q(self) -> float:
        return float(np.log(np.abs(np.sin(self.k * self.length) / self.k)).sum())


def _q(terms: tuple, diff: np.ndarray, both: np.ndarray) -> tuple[float, float]:
    """q(k; x) and dq/dk from the law's c, d, c', d' at k and x's (x_t - x_h)^2 and x_t^2 + x_h^2."""
    c, d, dc, dd = terms
    return float(c @ diff - d @ both), float(dc @ diff - dd @ both)


class _Secular:
    """The secular matrix A(k) of a graph, on its torsion system's storage
    (CSC past DENSE_RATIO).

    A(k) is the weighted Laplacian over the natural vertices with conductance
    c = k/sin(kl) on each non-loop edge, less d = k tan(kl/2) on the diagonal
    at each edge end on a natural vertex (a loop counts both ends), so A(0) is
    the torsion matrix.  For x over the natural vertices (0 at Dirichlet ends)
    q(k; x) = x.A(k)x = sum c (x_t - x_h)^2 - d (x_t^2 + x_h^2) equals
    int u'^2 - k^2 int u^2 for u = (x_t sin(k(l-s)) + x_h sin(ks)) / sin(kl)
    edge by edge, and dq/dk = -2k int u^2 < 0.  On (0, pi/l_max) A(k) has no
    pole, and its negative eigenvalues count the Dirichlet eigenvalues below
    k^2 (Berkolaiko and Kuchment, Introduction to Quantum Graphs, 2013).
    law(k) gives c and d of every edge first: by default the continuum law
    (_Continuum), whose slopes rayleigh and settle read; _P1Law's, at
    lambda, for the P1 pencil.
    """

    def __init__(self, sys: DiscreteSystem, k_lo: float, k_hi: float, law=None):
        self.sys, s = sys, sys.storage
        if s.indices is None and float(sys.length.max()) > DENSE_RATIO * float(sys.length.min()):
            s = Storage.build(s.n, *laplacian_terms(s.n, sys.tail, sys.head), -1)
        # the storage's terms (c at (t, t), (h, h) and -c at (t, h), (h, t) of
        # each edge), then -d at (t, t) and (h, h), dropped at a Dirichlet end
        diagonal = np.append(s.diagonal, s.size)
        self.storage = Storage(s.n, s.size, np.concatenate((s.pos, diagonal[sys.tail], diagonal[sys.head])),
                               s.indices, s.indptr)
        self.k_lo, self.k_hi = k_lo, k_hi
        self.counts = 0  # factorizations spent after the first quotient
        self.law = law or _Continuum(sys.length)

    def spend(self) -> None:
        if self.counts >= MAX_COUNTS - 1:
            raise NoConvergence(f"secular matrix not settled after {MAX_COUNTS} factorizations")
        self.counts += 1

    def fill(self, k: float) -> np.ndarray:
        """The stored entries of A(k): one bincount of the law's c and d at k."""
        c, d = self.law(k)[:2]
        off, end = -c, -d
        return self.storage.fill(np.concatenate((c, c, off, off, end, end)))

    def factor(self, k: float) -> SymmetricFactor:
        """LDL^T of A(k) by its storage's kernel; SingularSystem if exactly singular."""
        return SymmetricFactor(self.storage, self.fill(k))

    def inertia(self, k: float) -> tuple[int | None, float]:
        """The negative eigenvalues of A(k) and log |det A(k)| from the same
        pivots; (None, 0.0) when A(k) is exactly singular."""
        try:
            negatives, log_det = self.factor(k).inertia()
        except SingularSystem:
            return None, 0.0
        if negatives is None:
            raise NoConvergence(f"the factor of A({k!r}) pivoted, so its inertia cannot be read")
        return negatives, log_det

    def rayleigh(self, x: np.ndarray, k: float | None = None, terms: tuple | None = None) -> float | None:
        """p(x), the root of q(.; x) on [k_lo, k_hi) for x over the natural
        vertices and a last 0 at the Dirichlet ends, by Newton's method on
        (k_hi - k) q (q's roots without its pole at k_hi) kept inside a bracket
        by bisection, from k and the law's terms there when given (default k:
        the piecewise-linear interpolant's quotient, the small-k limit of q).  A
        step e is the root when e^2 <= K_FLOOR k min(k, k_hi - k), since it
        misses by about e^2 q''/(2q') and q is even in k with its nearest pole
        at k_hi.  k_lo when q is already negative there (rounding on a graph
        where k_lo is exact), None when q stays positive up to k_hi.
        p(x)^2 >= lambda_1."""
        xt, xh = x[self.sys.tail], x[self.sys.head]
        diff, both = (xt - xh) ** 2, xt * xt + xh * xh
        if k is None:
            ln = self.sys.length
            k = math.sqrt(float(diff @ (1.0 / ln)) / float(ln @ (0.5 * both - diff / 6.0)))
        lo, hi = self.k_lo, self.k_hi
        if not lo < k < hi:
            k, terms = 0.5 * (lo + hi), None
        for _ in range(100):
            val, der = _q(terms or self.law(k), diff, both)
            terms = None
            if val > 0.0:
                lo = k
            elif val < 0.0:
                hi = k
            else:
                return k
            slope = der - val / (self.k_hi - k)  # of (k_hi - k) q, over k_hi - k
            step = k - val / slope if slope < 0.0 else math.nan
            if hi == self.k_hi and step - k >= 0.5 * (hi - k):  # toward the open end: a sign change below k_hi?
                hi *= 1.0 - 4.0 * EPS
                if _q(self.law(hi), diff, both)[0] > 0.0:
                    return None
            if lo <= step <= hi and (step - k) ** 2 <= K_FLOOR * k * min(k, self.k_hi - k):
                return step
            if not lo < step < hi:  # also a NaN step
                step = 0.5 * (lo + hi)
            if hi - lo <= NEWTON_TOL * hi:
                return lo
            k = step
        return k

    def settle(self, x: np.ndarray, k: float, tol: float) -> tuple[float | None, bool]:
        """Rayleigh functional iteration x <- A(s)^-1 A'(s) x, k <- p(x) (Ruhe,
        SIAM J. Numer. Anal. 10, 1973) with s = k (1 - DELTA), until k moves by
        at most tol relative.  One law evaluation at s serves the fill of A(s),
        the right side A'(s) x and the first Newton step of p(x), from s.  The
        shift costs nothing in the limit, where x still tends to the null
        vector of A(k), and makes the last factor the certificate: True when it
        has no negative pivot, so no eigenvalue lies below s^2 while p(x) >= k_1."""
        sys, n, x = self.sys, len(self.sys.order), x.copy()
        while True:
            self.spend()
            shift = k * (1.0 - DELTA)
            try:
                lu = self.factor(shift)
            except SingularSystem:
                return shift, False  # A(shift) exactly singular: an eigenvalue sits there
            _, _, dc, dd = terms = self.law.terms
            xt, xh = x[sys.tail], x[sys.head]
            f = dc * (xt - xh)
            y = lu.solve((np.bincount(sys.tail, f - dd * xt, n + 1) - np.bincount(sys.head, f + dd * xh, n + 1))[:n])
            scale = float(np.abs(y).max())
            if not 0.0 < scale < math.inf:
                return k, False
            np.divide(y, scale, out=x[:n])
            prev, k = k, self.rayleigh(x, shift, terms)
            if k is None:
                return None, False
            if abs(k - prev) <= max(tol, K_FLOOR) * k:
                return k, lu.inertia()[0] == 0


def secular_lambda1(
    g: MetricGraph,
    solution: TorsionSolution | None = None,
    tol: float = DEFAULT_TOL,
) -> float:
    """Exact lowest Dirichlet eigenvalue, from the secular matrix A(k) over the
    natural vertices (the torsion system's size), certified by its inertia.

    Rayleigh functional iteration, shifted to s = k (1 - DELTA), starts from
    the torsion function v: its vertex values x, and k_T^2 = T / int v^2 >=
    p(x)^2 >= lambda_1, v's own Rayleigh quotient (int v'^2 = T, and the
    edgewise k-harmonic extension of x minimizes int u'^2 - k^2 int u^2).
    When k_T < pi/l_max, the first shift is k_T less the first Newton step of
    the root search for p(x) (rayleigh's), one law evaluation where the whole
    search took about four; else k = p(x) searched from the quotient of x's
    piecewise-linear interpolant.  One continuum law evaluation per shift
    serves the fill, A'(s) x and the first Newton step of the next root.  The
    iteration stops once k moves by at most tol relative.  Its last factor is
    the certificate (else one more factor at the final k (1 - DELTA)): no
    negative pivot means no eigenvalue below s^2, and p(x)^2 >= lambda_1, so
    lambda_1 is bracketed to about 2 DELTA relative, as far as the float64
    pivot signs are right.  A 60-digit count confirms the bracket on
    random_graph seeds 0..199 at length ratios (max/min) up to 1e6; at wider
    ratios the signs can be wrong (seed 64 at (1e-4, 1e4), ratio 4.1e7,
    returns a k with no eigenvalue below k (1 + 1e-12)).  When the iteration
    settled on a higher eigenvalue, the count search of the P1 modes
    (_brackets) on the continuum law brackets sqrt(lambda_1) to K_FLOOR =
    1e-13 in [(sup v)^(-1/2), s), by the landscape bound lambda_1 sup v >= 1,
    and returns the top; an exactly singular A(s) counts as one eigenvalue
    there.  When q has no root below pi/l_max and A stays positive definite
    there, lambda_1 = (pi/l_max)^2.  The result is at least pi^2/(4 L^2)
    (Nicaise).  A given solution must be of g or of an equal graph; one of
    another graph raises BadParameters.
    """
    check_controls(None, tol)
    solution = _solved(g, solution)
    sys = solution.system
    k_lo = math.pi / (2.0 * math.fsum(sys.length.tolist()))
    k_hi = math.pi / float(sys.length.max())
    if not sys.order:  # every vertex Dirichlet: the edges are separate intervals
        return k_hi * k_hi
    arr = solution.graph.arrays  # int v^2, v being its end values' interpolant plus s (l - s)/2
    vt, vh, ln = solution.values[arr.tail], solution.values[arr.head], arr.length
    square = ln @ ((vt * vt + vt * vh + vh * vh) / 3.0 + (vt + vh) * ln * ln / 12.0 + ln ** 4 / 120.0)
    k = math.sqrt(solution.rigidity / float(square))
    sec, x = _Secular(sys, k_lo, k_hi), np.append(solution.values[~arr.dirichlet], 0.0)
    if k >= k_hi:
        k = sec.rayleigh(x)
    else:  # rayleigh's first Newton step on (k_hi - k) q(.; x), from k_T toward p(x)
        val, der = _q(sec.law(k), (vt - vh) ** 2, vt * vt + vh * vh)
        step = k - val / (der - val / (k_hi - k))
        k = step if k_lo < step < k else k
    certified = False
    if k is not None:
        k, certified = sec.settle(x, k, tol)
    top = k_hi if k is None else k
    if not certified:
        s = top * (1.0 - DELTA)
        below = sec.inertia(s)[0]
        if below != 0:  # settled above lambda_1, or exactly on an eigenvalue at s (None)
            floor = max(k_lo, solution.sup.value ** -0.5)
            top = _brackets(sec, 1, K_FLOOR, floor, s, 1 if below is None else below)[0][1]
    return max(top * top, k_lo * k_lo)


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
) -> HeatContent:
    """Sum (integral of phi_k)^2 / lambda_k over the lowest modes.

    The full series equals the rigidity; partial sums increase toward it.
    """
    spectral = lowest_eigenpairs(g, modes, h_target, tol)
    solution = torsion_function(g)
    terms = [mass * mass / lam for mass, lam in zip(spectral.integrals, spectral.eigenvalues)]
    sums = list(np.cumsum(terms))
    return HeatContent(
        spectral.eigenvalues,
        tuple(terms),
        tuple(float(s) for s in sums),
        solution.rigidity,
        spectral.h_eff,
    )


# -- landscape check ------------------------------------------------------

SAMPLES = 64  # segments between the sample points of an edge


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
    tol: float = DEFAULT_TOL,
    spectral: SpectralResult | None = None,
    solution: TorsionSolution | None = None,
) -> tuple[list[LandscapeRatio], float]:
    """Largest sampled |phi_k| / (lambda_k * sup|phi_k| * v) per mode.

    Sampling interpolates the P1 eigenfunction at SAMPLES + 1 equispaced
    points per edge and skips points closer than h_eff to the Dirichlet set,
    where both numerator and denominator vanish.  A given spectral result or
    solution must be of g or of an equal graph; one of another graph raises
    BadParameters.
    """
    if spectral is None:
        spectral = lowest_eigenpairs(g, modes, h_target, tol)
    _require_graph(g, spectral.mesh.graph, "spectrum")
    solution = _solved(g, solution)
    arr, mesh, h = g.arrays, spectral.mesh, spectral.h_eff
    dist = np.array(g._dijkstra())
    # sample t of edge e at x = l t / SAMPLES, as edge-major flat arrays
    e = np.repeat(np.arange(len(arr.length)), SAMPLES + 1)
    ln = arr.length[e]
    x = ln * np.tile(np.arange(SAMPLES + 1), len(arr.length)) / SAMPLES
    keep = (np.minimum(dist[arr.tail[e]] + x, dist[arr.head[e]] + ln - x) >= h).nonzero()[0]
    if not len(keep):
        raise BadParameters("every sample point fell inside the Dirichlet exclusion radius")
    e, x, n = e[keep], x[keep], mesh.segments_per_edge[e[keep]]
    he = arr.length[e] / n
    s = np.minimum((x / he).astype(np.int64), n - 1)
    frac = x / he - s
    # segment s of edge e joins nodes at and at + 1, or its tail at s = 0 and its head at s = n - 1
    inner = mesh.segments_per_edge - 1
    at = (len(g.vertex_ids) - 1 + np.cumsum(inner) - inner)[e] + s
    v = -0.5 * x * x + solution.b[e] * x + solution.c[e]
    phi, lams = spectral.values, np.array(spectral.eigenvalues)[:, None]
    ratio = np.abs((1.0 - frac) * phi[:, np.where(s == 0, arr.tail[e], at)]
                   + frac * phi[:, np.where(s == n - 1, arr.head[e], at + 1)])
    ratio /= lams * np.abs(phi).max(axis=1)[:, None] * v
    best = ratio.argmax(axis=1)  # the first maximum in edge-then-sample order
    out = [LandscapeRatio(m, float(lams[m, 0]), float(ratio[m, i]), g.edge_ids[e[i]], float(x[i]))
           for m, i in enumerate(best.tolist())]
    return out, h
