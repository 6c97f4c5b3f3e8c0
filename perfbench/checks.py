"""Reference computations the benchmark compares graphtorsion's outputs against.

Nothing here imports graphtorsion.  A graph is anything with ``vertices``
(each with ``id`` and ``bc``) and ``edges`` (each with ``id``, ``tail``,
``head`` and ``length``), which is what ``MetricGraph`` exposes; the tests
in this directory pass plain namespaces.  Each function derives its answer
from first principles and says which fact it rests on.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import scipy.sparse
import scipy.sparse.csgraph
import scipy.sparse.linalg

DIRICHLET = "dirichlet"

# The accuracy graphtorsion states for its torsion solve and its rigidity
# cross-checks (REL_TOL in torsion.py); a result off by more is wrong.
REL_TOL = 1e-10


def rel_gap(a: float, b: float) -> float:
    """|a - b| relative to max(1, |a|, |b|), the scale graphtorsion uses."""
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _natural_index(g) -> dict[str, int]:
    natural = [v.id for v in g.vertices if v.bc != DIRICHLET]
    return {vid: i for i, vid in enumerate(natural)}


# -- torsion -------------------------------------------------------------------
#
# On an edge of length l the torsion function is -x^2/2 + b x + c, so its
# integral is l^3/12 + l (v_t + v_h)/2.  Kirchhoff at a natural vertex v reads
# sum over edge ends at v of (v_v - v_other)/l = (metric degree of v)/2, i.e.
# A v = w/2 with A the weighted Laplacian over the natural vertices (edges to
# the Dirichlet set on the diagonal, loops cancel) and w the metric degrees
# with loops counted twice.  Hence T = sum l^3/12 + w.A^-1 w / 4.


def torsion_sparse(g) -> tuple[float, dict[str, float]]:
    """Rigidity and natural-vertex torsion values from a scipy.sparse LU solve."""
    idx = _natural_index(g)
    n = len(idx)
    rows, cols, vals = [], [], []
    w = np.zeros(n)
    for e in g.edges:
        i, j = idx.get(e.tail), idx.get(e.head)
        for k in (i, j):
            if k is not None:
                w[k] += e.length
        if e.tail == e.head:
            continue
        mu = 1.0 / e.length
        for k in (i, j):
            if k is not None:
                rows.append(k)
                cols.append(k)
                vals.append(mu)
        if i is not None and j is not None:
            rows += [i, j]
            cols += [j, i]
            vals += [-mu, -mu]
    cubes = math.fsum(e.length ** 3 for e in g.edges) / 12.0
    if n == 0:
        return cubes, {}
    a = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsc()
    x = scipy.sparse.linalg.splu(a).solve(w)
    values = {vid: 0.5 * float(x[i]) for vid, i in idx.items()}
    return cubes + math.fsum(w * x) / 4.0, values


def torsion_exact(g) -> Fraction:
    """The same rigidity in exact rational arithmetic on the float lengths."""
    idx = _natural_index(g)
    n = len(idx)
    a = [[Fraction(0)] * n for _ in range(n)]
    w = [Fraction(0)] * n
    cubes = Fraction(0)
    for e in g.edges:
        ln = Fraction(e.length)
        cubes += ln ** 3
        i, j = idx.get(e.tail), idx.get(e.head)
        for k in (i, j):
            if k is not None:
                w[k] += ln
        if e.tail == e.head:
            continue
        mu = 1 / ln
        for k in (i, j):
            if k is not None:
                a[k][k] += mu
        if i is not None and j is not None:
            a[i][j] -= mu
            a[j][i] -= mu
    rows = [row + [w[r]] for r, row in enumerate(a)]
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        for r in range(c + 1, n):
            f = rows[r][c] / rows[c][c]
            if f:
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    x = [Fraction(0)] * n
    for c in reversed(range(n)):
        x[c] = (rows[c][n] - sum(rows[c][k] * x[k] for k in range(c + 1, n))) / rows[c][c]
    return cubes / 12 + sum(p * q for p, q in zip(w, x)) / 4


def rigidity_bracket(g) -> tuple[float, float]:
    """sum l^3/12 <= T <= L^3/3: edges pinned at both ends, and the DN interval."""
    total = math.fsum(e.length for e in g.edges)
    return math.fsum(e.length ** 3 for e in g.edges) / 12.0, total ** 3 / 3.0


def euler_gap(g, rigidity: float, grad: dict[str, float]) -> float:
    """Relative gap in sum l dT/dl = 3T; T is homogeneous of degree 3 in the lengths."""
    lhs = math.fsum(e.length * grad[e.id] for e in g.edges)
    return abs(lhs - 3.0 * rigidity) / (3.0 * rigidity)


# -- inradius ------------------------------------------------------------------


def inradius_dijkstra(g) -> float:
    """Largest distance to the Dirichlet set, from scipy.sparse.csgraph.dijkstra.

    On an edge with end distances d_t, d_h the farthest point sits at
    (d_t + d_h + l)/2; it lies inside the edge because |d_t - d_h| <= l.
    """
    ids = {v.id: i for i, v in enumerate(g.vertices)}
    shortest: dict[tuple[int, int], float] = {}
    for e in g.edges:
        if e.tail == e.head:
            continue
        key = tuple(sorted((ids[e.tail], ids[e.head])))
        shortest[key] = min(shortest.get(key, math.inf), e.length)
    n = len(ids)
    ends = np.array(list(shortest), dtype=int).reshape(-1, 2)
    mat = scipy.sparse.coo_matrix(
        (list(shortest.values()), (ends[:, 0], ends[:, 1])), shape=(n, n)
    ).tocsr()
    sources = [ids[v.id] for v in g.vertices if v.bc == DIRICHLET]
    dist = scipy.sparse.csgraph.dijkstra(mat, directed=False, indices=sources, min_only=True)
    return max(0.5 * (dist[ids[e.tail]] + dist[ids[e.head]] + e.length) for e in g.edges)


# -- eigenvalues ---------------------------------------------------------------


def p1_interval_eigenvalue(length: float, h: float) -> float:
    """Lowest P1 Dirichlet eigenvalue of an interval cut into segments of width h.

    The discrete sine is exact on the uniform grid, so the value is
    (6/h^2)(1 - cos(pi h/l))/(2 + cos(pi h/l)), increasing in h.
    """
    c = math.cos(math.pi * h / length)
    return 6.0 / (h * h) * (1.0 - c) / (2.0 + c)


def lambda1_bracket(g, h_target: float) -> tuple[float, float]:
    """Interval that must hold the P1 ground-state energy at mesh width <= h_target.

    Below: the exact lambda_1 >= pi^2/(4 L^2) (Nicaise), and P1 only raises
    eigenvalues.  Above: the discrete sine on the longest edge vanishes at
    both its ends, so it is a test function on any graph; its energy is the
    P1 interval eigenvalue at that edge's width, at most min(h_target, l/2).
    """
    total = math.fsum(e.length for e in g.edges)
    longest = max(e.length for e in g.edges)
    lo = math.pi ** 2 / (4.0 * total * total)
    return lo, p1_interval_eigenvalue(longest, min(h_target, longest / 2.0))


def eigenvalue_count(g, lam: float) -> int:
    """Number of exact Dirichlet eigenvalues below lam, for lam with
    sqrt(lam) l / pi not an integer on any edge.

    An eigenfunction either vanishes at every natural vertex, and then is a
    Dirichlet mode of single edges, or is fixed by its vertex values through
    the secular matrix A(k), k = sqrt(lam): k cot(k l) on the diagonal for each
    end of each edge at a natural vertex, -k csc(k l) between the two ends,
    -2k tan(k l / 2) for a loop.  The count is the edges' Dirichlet modes below
    lam plus the negative eigenvalues of A(k) (Friedlander; Berkolaiko and
    Kuchment, Introduction to Quantum Graphs, 2013).
    """
    if lam <= 0.0:
        return 0
    k = math.sqrt(lam)
    idx = _natural_index(g)
    a = np.zeros((len(idx), len(idx)))
    count = 0
    for e in g.edges:
        kl = k * e.length
        count += math.ceil(kl / math.pi) - 1
        i, j = idx.get(e.tail), idx.get(e.head)
        if e.tail == e.head:
            if i is not None:
                a[i, i] -= 2.0 * k * math.tan(kl / 2.0)
            continue
        for x in (i, j):
            if x is not None:
                a[x, x] += k / math.tan(kl)
        if i is not None and j is not None:
            a[i, j] -= k / math.sin(kl)
            a[j, i] -= k / math.sin(kl)
    return count + int(np.sum(np.linalg.eigvalsh(a) < 0.0)) if len(idx) else count


def star_eigenvalues(k: int, length: float, count: int) -> list[float]:
    """Equilateral star, Dirichlet leaves, natural center.

    Modes equal on every edge satisfy a Neumann center: ((m + 1/2) pi / l)^2,
    simple.  Modes summing to zero at the center vanish there:
    (m pi / l)^2 with multiplicity k - 1.
    """
    out = []
    m = 0
    while len(out) < count + k:
        out.append(((m + 0.5) * math.pi / length) ** 2)
        if m:
            out += [(m * math.pi / length) ** 2] * (k - 1)
        m += 1
    return sorted(out)[:count]


def flower_eigenvalues(k: int, length: float, count: int) -> list[float]:
    """k loops at one Dirichlet vertex: k intervals pinned at both ends."""
    out = []
    m = 1
    while len(out) < count:
        out += [(m * math.pi / length) ** 2] * k
        m += 1
    return out[:count]


def path_dn_eigenvalues(length: float, count: int) -> list[float]:
    """Interval, Dirichlet at one end, natural at the other."""
    return [((m - 0.5) * math.pi / length) ** 2 for m in range(1, count + 1)]


def pumpkin_chain_2_3_eigenvalues(count: int) -> list[float]:
    """Unit pumpkin chain [2, 3]: u0 (Dirichlet) =2= u1 =3= u2 (natural).

    Modes equal on parallel edges solve the weighted path: A sin(kx) on the
    first pumpkin, B cos(k(2 - x)) on the second, continuity and
    2 u'(1-) = 3 u'(1+) give tan(k)^2 = 2/3.  Modes summing to zero on a
    pumpkin vanish at its ends: (m pi)^2 with multiplicity 1 + 2.
    """
    a = math.atan(math.sqrt(2.0 / 3.0))
    out = []
    for m in range(count + 1):
        out += [(a + m * math.pi) ** 2, (math.pi - a + m * math.pi) ** 2]
        if m:
            out += [(m * math.pi) ** 2] * 3
    return sorted(out)[:count]


def path_dn_heat_partial_sums(length: float, count: int) -> list[float]:
    """Partial sums of (integral phi_m)^2 / lambda_m on the DN interval.

    phi_m = sqrt(2/l) sin(q x) with q = (m - 1/2) pi / l gives
    (integral phi_m)^2 = 2 / (l q^2), so each term is 2 / (l q^4); the
    series sums to the rigidity l^3/3.
    """
    sums, acc = [], 0.0
    for m in range(1, count + 1):
        q = (m - 0.5) * math.pi / length
        acc += 2.0 / (length * q ** 4)
        sums.append(acc)
    return sums


def p1_upper(exact: float, h: float) -> float:
    """P1 eigenvalue error bound on uniform segments of width at most h.

    On an interval the P1 eigenvalue is lambda + lambda^2 h^2 / 12 + O(h^4);
    the factor 2 covers the O(h^4) terms at the widths used here.
    """
    return exact + exact * exact * h * h / 6.0


# -- P1 matrices the benchmark builds itself -------------------------------------


def p1_matrices(g, nodes: list[dict]):
    """Stiffness and mass over the mesh nodes that graphtorsion reports.

    nodes is the ``nodes`` list of the spectrum JSON payload: each entry is an
    original vertex ({"vertex": id}) or an interior point ({"edge": id,
    "offset": x}).  Each edge is chained tail, interior points by offset,
    head, with segment widths taken from the offsets.  Returns K, M, the
    indices of the nodes not on a Dirichlet vertex and the widest segment.
    """
    vertex_node = {nd["vertex"]: i for i, nd in enumerate(nodes) if nd["vertex"] is not None}
    interior: dict[str, list[tuple[float, int]]] = {}
    for i, nd in enumerate(nodes):
        if nd["vertex"] is None:
            interior.setdefault(nd["edge"], []).append((nd["offset"], i))
    a_idx, b_idx, width = [], [], []
    for e in g.edges:
        inner = sorted(interior.get(e.id, []))
        chain = [vertex_node[e.tail]] + [i for _, i in inner] + [vertex_node[e.head]]
        pos = np.array([0.0] + [x for x, _ in inner] + [e.length])
        a_idx += chain[:-1]
        b_idx += chain[1:]
        width.append(np.diff(pos))
    a_idx = np.array(a_idx)
    b_idx = np.array(b_idx)
    h = np.concatenate(width)
    rows = np.concatenate([a_idx, a_idx, b_idx, b_idx])
    cols = np.concatenate([a_idx, b_idx, a_idx, b_idx])
    k = np.concatenate([1 / h, -1 / h, -1 / h, 1 / h])
    m = np.concatenate([h / 3, h / 6, h / 6, h / 3])
    n = len(nodes)
    stiff = scipy.sparse.coo_matrix((k, (rows, cols)), shape=(n, n)).tocsr()
    mass = scipy.sparse.coo_matrix((m, (rows, cols)), shape=(n, n)).tocsr()
    dirichlet = {v.id for v in g.vertices if v.bc == DIRICHLET}
    free = np.array([i for i, nd in enumerate(nodes) if nd["vertex"] not in dirichlet])
    return stiff, mass, free, float(h.max())


def pencil_report(stiff, mass, free, eigenvalues, vectors) -> tuple[list[float], list[float], float]:
    """Absolute and relative residuals ||K x - lam M x|| and max |X^T M X - I|.

    vectors holds one row per mode over all mesh nodes; only free nodes enter.
    """
    k0 = stiff[free][:, free]
    m0 = mass[free][:, free]
    x = np.asarray(vectors)[:, free]
    absolute, relative = [], []
    for lam, v in zip(eigenvalues, x):
        mv = m0 @ v
        r = float(np.linalg.norm(k0 @ v - lam * mv))
        absolute.append(r)
        relative.append(r / (lam * float(np.linalg.norm(mv))))
    gram = x @ (m0 @ x.T)
    return absolute, relative, float(np.max(np.abs(gram - np.eye(len(x)))))
