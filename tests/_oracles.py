"""Independent reference implementations the tests compare the library against.

Everything here is written from scratch on purpose: dense numpy, no reuse of
the package's assembly or traversal code.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import scipy.linalg


def brute_has_bridge(g) -> bool:
    """Remove each non-loop edge in turn and test connectivity."""
    ids = [v.id for v in g.vertices]
    for e in g.edges:
        if e.tail == e.head:
            continue
        adj = {i: set() for i in ids}
        for f in g.edges:
            if f.id == e.id or f.tail == f.head:
                continue
            adj[f.tail].add(f.head)
            adj[f.head].add(f.tail)
        seen = {ids[0]}
        todo = [ids[0]]
        while todo:
            u = todo.pop()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        if len(seen) != len(ids):
            return True
    return False


def exact_rigidity(g) -> Fraction:
    """Torsional rigidity in exact rational arithmetic on the float lengths.

    T = sum l^3/12 + w.x/4 where A x = w: A is the weighted Laplacian over the
    natural vertices (1/l per non-loop edge, edges to the Dirichlet set on the
    diagonal) and w the metric degrees, loops counted twice.  A is symmetric
    positive definite, so elimination without pivoting never meets a zero pivot.
    """
    pos = {v.id: k for k, v in enumerate(v for v in g.vertices if v.bc == "natural")}
    n = len(pos)
    a = [[Fraction(0)] * n for _ in range(n)]
    w = [Fraction(0)] * n
    cubes = Fraction(0)
    for e in g.edges:
        ln = Fraction(e.length)
        cubes += ln ** 3
        ends = [pos[vid] for vid in (e.tail, e.head) if vid in pos]
        for k in ends:
            w[k] += ln
        if e.tail == e.head:
            continue
        for k in ends:
            a[k][k] += 1 / ln
        if len(ends) == 2:
            i, j = ends
            a[i][j] -= 1 / ln
            a[j][i] -= 1 / ln
    x = list(w)
    for c in range(n):
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                for k in range(c, n):
                    a[r][k] -= f * a[c][k]
                x[r] -= f * x[c]
    for c in reversed(range(n)):
        x[c] = (x[c] - sum(a[c][k] * x[k] for k in range(c + 1, n))) / a[c][c]
    return cubes / 12 + sum(p * q for p, q in zip(w, x)) / 4


def bellman_ford_dirichlet(g) -> dict[str, float]:
    """Vertex distances to the Dirichlet set by plain edge relaxation."""
    dist = {v.id: (0.0 if v.bc == "dirichlet" else math.inf) for v in g.vertices}
    for _ in range(len(g.vertices)):
        changed = False
        for e in g.edges:
            if dist[e.tail] + e.length < dist[e.head]:
                dist[e.head] = dist[e.tail] + e.length
                changed = True
            if dist[e.head] + e.length < dist[e.tail]:
                dist[e.tail] = dist[e.head] + e.length
                changed = True
        if not changed:
            break
    return dist


def _dense_fem(g, h: float):
    """P1 stiffness K, consistent mass M, free-node index map, node list.

    Nodes are (edge_id, grid index) pairs; shared endpoints are merged by
    vertex id.  Dirichlet vertices are excluded from the free set.
    """
    node_of_vertex = {}
    nodes = []

    def vertex_node(vid):
        if vid not in node_of_vertex:
            node_of_vertex[vid] = len(nodes)
            nodes.append(("vertex", vid))
        return node_of_vertex[vid]

    segments = []
    for e in g.edges:
        n = max(2, math.ceil(e.length / h - 1e-12))
        step = e.length / n
        prev = vertex_node(e.tail)
        for i in range(1, n):
            idx = len(nodes)
            nodes.append((e.id, i))
            segments.append((prev, idx, step))
            prev = idx
        segments.append((prev, vertex_node(e.head), step))

    size = len(nodes)
    K = np.zeros((size, size))
    M = np.zeros((size, size))
    for a, b, s in segments:
        K[a, a] += 1.0 / s
        K[b, b] += 1.0 / s
        K[a, b] -= 1.0 / s
        K[b, a] -= 1.0 / s
        M[a, a] += s / 3.0
        M[b, b] += s / 3.0
        M[a, b] += s / 6.0
        M[b, a] += s / 6.0

    dirichlet = {v.id for v in g.vertices if v.bc == "dirichlet"}
    free = [
        i for i, tag in enumerate(nodes)
        if not (tag[0] == "vertex" and tag[1] in dirichlet)
    ]
    return K, M, free


def fem_rigidity(g, h: float) -> float:
    """Torsional rigidity from a dense finite element solve of -u'' = 1."""
    K, M, free = _dense_fem(g, h)
    ones = np.ones(len(K))
    Kf = K[np.ix_(free, free)]
    rhs = (M @ ones)[free]
    u = np.linalg.solve(Kf, rhs)
    return float(rhs @ u)


def fem_eigenvalues(g, h: float, k: int) -> list[float]:
    """Lowest k Dirichlet eigenvalues from a dense generalized solve."""
    K, M, free = _dense_fem(g, h)
    Kf = K[np.ix_(free, free)]
    Mf = M[np.ix_(free, free)]
    vals = scipy.linalg.eigh(Kf, Mf, eigvals_only=True)
    return [float(v) for v in vals[:k]]


def secular_count(g, k: float) -> int:
    """Dirichlet eigenvalues below k^2, for k > 0 with k l / pi not an integer.

    An eigenfunction vanishing at every natural vertex is a Dirichlet mode of
    single edges: ceil(k l / pi) - 1 of them lie below k^2 on an edge of
    length l.  The others are fixed by their vertex values through the dense
    secular matrix: k cot(k l) on the diagonal for each edge end at a natural
    vertex, -k / sin(k l) between the two ends, -2k tan(k l / 2) for a loop;
    its negative eigenvalues count them.
    """
    pos = {v.id: i for i, v in enumerate(v for v in g.vertices if v.bc == "natural")}
    a = np.zeros((len(pos), len(pos)))
    count = 0
    for e in g.edges:
        kl = k * e.length
        count += math.ceil(kl / math.pi) - 1
        i, j = pos.get(e.tail), pos.get(e.head)
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
    if pos:
        count += int(np.sum(np.linalg.eigvalsh(a) < 0.0))
    return count


def secular_lambda1(g) -> float:
    """Lowest Dirichlet eigenvalue by bisection on secular_count.

    The sine on the longest edge is a test function, so lambda_1 <= (pi /
    l_max)^2, and the count is at least 1 just above pi / l_max; bisection on
    k runs down to a few ulps.
    """
    lo, hi = 0.0, math.pi / max(e.length for e in g.edges) * (1.0 + 1e-12)
    while hi - lo > 4.0 * np.spacing(hi):
        mid = 0.5 * (lo + hi)
        if secular_count(g, mid) >= 1:
            hi = mid
        else:
            lo = mid
    return hi * hi


def sampled_sup(sol, per_edge: int = 600) -> float:
    """Max of the torsion polynomials over a dense sample grid."""
    best = 0.0
    for p in sol.edge_polys:
        for x in np.linspace(0.0, p.length, per_edge):
            best = max(best, p.value(float(x)))
    return best


def lasso_rigidity(l1: float, l2: float) -> float:
    """Closed form for a pendant edge l1 ending in a loop l2."""
    return (l1 ** 3 + l2 ** 3) / 12.0 + l1 * (l1 + 2.0 * l2) ** 2 / 4.0


def stower_rigidity(leaf_lengths, petal_lengths) -> float:
    """Closed form for leaves and petals joined at one natural center."""
    cubes = math.fsum(x ** 3 for x in leaf_lengths) + math.fsum(
        x ** 3 for x in petal_lengths
    )
    s = math.fsum(leaf_lengths) + 2.0 * math.fsum(petal_lengths)
    c = math.fsum(1.0 / x for x in leaf_lengths)
    return cubes / 12.0 + s * s / (4.0 * c)


def stower_rigidity_equilateral(leaves: int, petals: int, total: float) -> float:
    """Equilateral closed form in terms of the counts and total length."""
    e = leaves + 2 * petals
    edges = leaves + petals
    return total ** 3 / (4.0 * edges ** 3) * (edges / 3.0 + e * e / leaves)


def random_surgery_op(rng, g):
    """Sample one applicable surgery operation for the given graph."""
    from graphtorsion.surgery import (
        AddDirichlet,
        AddEdge,
        AttachPendant,
        Glue,
        Lengthen,
        Scale,
        UnfoldParallel,
    )

    choices = []
    naturals = [v.id for v in g.vertices if v.bc == "natural"]
    dirichlets = [v.id for v in g.vertices if v.bc == "dirichlet"]
    if len(naturals) >= 2 or len(dirichlets) >= 2:
        pool = naturals if len(naturals) >= 2 else dirichlets
        if rng.random() < 0.5 and len(dirichlets) >= 2:
            pool = dirichlets
        pair = rng.choice(len(pool), 2, replace=False)
        choices.append(Glue(pool[pair[0]], pool[pair[1]]))
    if naturals:
        choices.append(AddDirichlet(naturals[rng.integers(len(naturals))]))
        host = naturals[rng.integers(len(naturals))]
        choices.append(
            AttachPendant(
                vertices=("p0", "p1"),
                edges=(("pe0", "p0", "p1", float(rng.uniform(0.2, 1.0))),),
                join="p0",
                at=host,
            )
        )
    all_ids = [v.id for v in g.vertices]
    u = all_ids[rng.integers(len(all_ids))]
    if rng.random() < 0.5:
        choices.append(AddEdge(u, u, float(rng.uniform(0.2, 1.0))))
    else:
        w = all_ids[rng.integers(len(all_ids))]
        choices.append(AddEdge(u, w, float(rng.uniform(0.2, 1.0))))
    eid = g.edges[rng.integers(len(g.edges))].id
    choices.append(Lengthen(eid, float(rng.uniform(0.1, 1.0))))
    choices.append(Scale(float(rng.uniform(0.5, 2.0))))
    seen = {}
    for e in g.edges:
        if e.tail == e.head:
            continue
        key = tuple(sorted((e.tail, e.head)))
        if key in seen:
            choices.append(UnfoldParallel(seen[key], e.id))
            break
        seen[key] = e.id
    return choices[rng.integers(len(choices))]
