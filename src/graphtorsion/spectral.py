"""P1 finite elements on metric graphs: ground states, heat content, landscape checks.

Each edge is subdivided uniformly, hat functions live on the subdivision
nodes, Dirichlet nodes are eliminated, and eigenpairs of the stiffness/mass
pencil (K0, M0) come out of block inverse subspace iteration with
Rayleigh-Ritz (Parlett, The Symmetric Eigenvalue Problem, ch. 14) on one
sparse factorization of K0.  A seeded random block of k + GUARD columns moves
as a whole, so a cluster, or a ground state the start barely touches,
converges with the rest; iteration stops once each of the k lowest Ritz
values moves by at most tol relative.  Eigenvalue error decays like h^2.

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
from .torsion import TorsionSolution, _sym_csc, torsion_function

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10000
GUARD = 3  # block columns beyond the k wanted modes; they speed up a cluster at mode k
# Largest mesh build_mesh makes.  Assembly, splu and one solve take about
# 700 bytes per node (measured on star(3) at 500k nodes), so the 16M nodes of
# star(2, [1e-6, 1]) at the default h would need about 11 GB, more than an
# 8 GB machine has.
MAX_MESH_NODES = 2_000_000


def default_h(g: MetricGraph) -> float:
    return min(e.length for e in g.edges) / 16.0


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

    Nodes 0..|V|-1 are the vertices in ``graph.vertices`` order; the interior
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
    nv = len(g.vertices)
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
    return _sym_csc(nf, unknown[mesh.seg_tail], unknown[mesh.seg_head],
                    (1.0 / w, -1.0 / w), (w / 3.0, w / 6.0))


@dataclass(frozen=True)
class SpectralResult:
    """Lowest eigenpairs of the Dirichlet pencil on a fixed mesh.

    values holds one row per mode over all mesh nodes (zeros at Dirichlet
    nodes), each mass-normalized.  The modes share one block iteration, so
    iterations repeats its count once per mode.
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
        mesh, nv = self.mesh, len(self.mesh.graph.vertices)
        edge_ids = [e.id for e in mesh.graph.edges]
        nodes = [{"edge": None, "offset": 0.0, "vertex": v.id} for v in mesh.graph.vertices]
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
    K0, M0 = _pencil(mesh)
    lu = scipy.sparse.linalg.splu(K0)
    x = np.random.default_rng(0).standard_normal((nf, min(k + GUARD, nf)))
    prev = None
    for it in range(1, max_iter + 1):
        y = lu.solve(M0 @ x)
        lam, v = scipy.linalg.eigh(y.T @ (K0 @ y), y.T @ (M0 @ y))  # Rayleigh-Ritz on span(y)
        x = y @ v
        if prev is not None and (np.abs(lam[:k] - prev[:k]) <= tol * np.abs(lam[:k])).all():
            break
        prev = lam
    else:
        raise NoConvergence(f"Ritz values not settled after {max_iter} iterations")
    x = x[:, :k]
    lams = lam[:k]
    resids = np.linalg.norm(K0 @ x - (M0 @ x) * lams, axis=0)

    values = np.zeros((k, mesh.n_nodes))
    values[:, free] = x.T
    # fix the ground-state sign so its integral is positive
    w = mesh.trapezoid_weights()
    if w @ values[0] < 0:
        values[0] = -values[0]
    return SpectralResult(mesh, tuple(lams.tolist()), values, tuple(resids.tolist()), (it,) * k)


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
