"""Named graph families and the random graphs used by the test batteries."""

from __future__ import annotations

import math

import numpy as np

from .errors import BadParameters
from .graph import DIRICHLET, NATURAL, MetricGraph, make_graph


def _expand(lengths, n: int, what: str) -> list[float]:
    if lengths is None:
        return [1.0] * n
    if isinstance(lengths, (int, float)):
        return [float(lengths)] * n
    vals = [float(x) for x in lengths]
    if len(vals) == 1:
        return vals * n
    if len(vals) != n:
        raise BadParameters(f"{what} needs {n} lengths, got {len(vals)}")
    return vals


def _path(lengths, last_bc: str) -> MetricGraph:
    """Path v0 - v1 - ... - vn with a Dirichlet v0, vn tagged last_bc, natural between."""
    if lengths is None:
        lengths = [1.0]
    vals = [float(x) for x in lengths] if not isinstance(lengths, (int, float)) else [float(lengths)]
    n = len(vals)
    if n == 0:
        raise BadParameters("a path needs at least one edge")
    verts = [("v0", DIRICHLET)] + [(f"v{i}", NATURAL) for i in range(1, n)] + [(f"v{n}", last_bc)]
    edges = [(f"e{i}", f"v{i - 1}", f"v{i}", vals[i - 1]) for i in range(1, n + 1)]
    return make_graph(verts, edges)


def path_dn(lengths=None) -> MetricGraph:
    """Path with a Dirichlet first vertex and natural vertices elsewhere."""
    return _path(lengths, NATURAL)


def path_dd(lengths=None) -> MetricGraph:
    """Path with Dirichlet conditions at both endpoints."""
    return _path(lengths, DIRICHLET)


def star(k: int, lengths=None) -> MetricGraph:
    """k edges from a natural center to Dirichlet leaves; edges run leaf to center."""
    if k < 1:
        raise BadParameters("star needs k >= 1")
    vals = _expand(lengths, k, "star")
    verts = [("c", NATURAL)] + [(f"v{i}", DIRICHLET) for i in range(1, k + 1)]
    edges = [(f"e{i}", f"v{i}", "c", vals[i - 1]) for i in range(1, k + 1)]
    return make_graph(verts, edges)


def flower(k: int, lengths=None) -> MetricGraph:
    """k loops at a single Dirichlet vertex."""
    if k < 1:
        raise BadParameters("flower needs k >= 1")
    vals = _expand(lengths, k, "flower")
    verts = [("c", DIRICHLET)]
    edges = [(f"e{i}", "c", "c", vals[i - 1]) for i in range(1, k + 1)]
    return make_graph(verts, edges)


def stower(leaves: int, petals: int, lengths=None) -> MetricGraph:
    """Star with extra petals: natural center, Dirichlet leaf ends, loops at the center.

    lengths lists the leaf edges first, then the petals.
    """
    if leaves < 1:
        raise BadParameters("stower needs at least one leaf (the Dirichlet set lives there)")
    if petals < 0:
        raise BadParameters("stower needs petals >= 0")
    vals = _expand(lengths, leaves + petals, "stower")
    verts = [("c", NATURAL)] + [(f"v{i}", DIRICHLET) for i in range(1, leaves + 1)]
    edges = [(f"e{i}", f"v{i}", "c", vals[i - 1]) for i in range(1, leaves + 1)]
    edges += [(f"p{j}", "c", "c", vals[leaves + j - 1]) for j in range(1, petals + 1)]
    return make_graph(verts, edges)


def lasso(pendant: float = 1.0, loop: float = 1.0) -> MetricGraph:
    """One pendant edge from a Dirichlet vertex to a junction carrying one loop."""
    return make_graph(
        [("v0", DIRICHLET), ("v1", NATURAL)],
        [("e1", "v0", "v1", float(pendant)), ("e2", "v1", "v1", float(loop))],
    )


def pumpkin_chain(multiplicities, lengths=None) -> MetricGraph:
    """Chain of pumpkins (banks of parallel edges); first outer vertex Dirichlet.

    lengths may be one value, one value per pumpkin, or one value per edge
    (pumpkin by pumpkin).
    """
    mults = [int(m) for m in multiplicities]
    if not mults or any(m < 1 for m in mults):
        raise BadParameters("pumpkin chain needs positive multiplicities")
    total = sum(mults)
    if lengths is None or isinstance(lengths, (int, float)):
        per_edge = _expand(lengths, total, "pumpkin chain")
    else:
        vals = [float(x) for x in lengths]
        if len(vals) == len(mults):
            per_edge = [v for v, m in zip(vals, mults) for _ in range(m)]
        else:
            per_edge = _expand(vals, total, "pumpkin chain")
    verts = [("u0", DIRICHLET)] + [(f"u{j}", NATURAL) for j in range(1, len(mults) + 1)]
    edges = []
    pos = 0
    for j, m in enumerate(mults, start=1):
        for k in range(m):
            edges.append((f"s{j}_{k}", f"u{j - 1}", f"u{j}", per_edge[pos]))
            pos += 1
    return make_graph(verts, edges)


def caterpillar(pumpkins: int, lengths=None) -> MetricGraph:
    """2-regular pumpkin chain with one Dirichlet endpoint."""
    if pumpkins < 1:
        raise BadParameters("caterpillar needs at least one pumpkin")
    return pumpkin_chain([2] * pumpkins, lengths)


def family_examples() -> list[tuple[str, MetricGraph]]:
    """Canonical representative of every generator, used by the audit batteries."""
    return [
        ("path_DN", path_dn([1.0])),
        ("path_DD", path_dd([1.0])),
        ("star:3", star(3)),
        ("flower:3", flower(3)),
        ("stower:2,2", stower(2, 2)),
        ("lasso", lasso(1.0, 1.0)),
        ("pumpkin_chain:2,3", pumpkin_chain([2, 3])),
        ("caterpillar:3", caterpillar(3)),
    ]


def random_graph(
    rng,
    max_vertices: int = 12,
    max_edges: int = 20,
    length_range: tuple[float, float] = (0.1, 10.0),
    dirichlet_p: float = 0.3,
) -> MetricGraph:
    """Random connected multigraph with log-uniform lengths and a nonempty Dirichlet set.

    Loops and parallel edges appear with noticeable frequency.  rng is a seed or
    a numpy Generator.
    """
    rng = np.random.default_rng(rng)
    lo, hi = length_range
    n = int(rng.integers(2, max_vertices + 1))
    ends: list[tuple[int, int]] = []
    for i in range(1, n):
        ends.append((int(rng.integers(0, i)), i))
    extra = int(rng.integers(0, max_edges - (n - 1) + 1))
    for _ in range(extra):
        ends.append((int(rng.integers(0, n)), int(rng.integers(0, n))))
    lengths = np.exp(rng.uniform(math.log(lo), math.log(hi), size=len(ends)))
    tags = rng.random(n) < dirichlet_p
    if not tags.any():
        tags[int(rng.integers(0, n))] = True
    verts = [(f"v{i}", DIRICHLET if tags[i] else NATURAL) for i in range(n)]
    edges = [
        (f"e{k}", f"v{a}", f"v{b}", float(lengths[k])) for k, (a, b) in enumerate(ends)
    ]
    return make_graph(verts, edges)


_FAMILY_HELP = "path_DN, path_DD, star:K, flower:K, stower:L,P, lasso, pumpkin_chain:M1,M2,..., caterpillar:N, random"


def family_generator(spec: str, lengths=None, seed: int | None = None) -> MetricGraph:
    """Build a family graph from a CLI-style spec string like 'star:3'."""
    name, _, arg = spec.partition(":")
    try:
        if name == "path_DN":
            return path_dn(lengths)
        if name == "path_DD":
            return path_dd(lengths)
        if name == "star":
            return star(int(arg), lengths)
        if name == "flower":
            return flower(int(arg), lengths)
        if name == "stower":
            l, p = (int(x) for x in arg.split(","))
            return stower(l, p, lengths)
        if name == "lasso":
            vals = _expand(lengths, 2, "lasso")
            return lasso(*vals)
        if name == "pumpkin_chain":
            return pumpkin_chain([int(x) for x in arg.split(",")], lengths)
        if name == "caterpillar":
            return caterpillar(int(arg), lengths)
        if name == "random":
            return random_graph(seed)
    except (ValueError, TypeError) as exc:
        raise BadParameters(f"bad family spec {spec!r}: {exc}") from None
    raise BadParameters(f"unknown family {name!r}; known: {_FAMILY_HELP}")
