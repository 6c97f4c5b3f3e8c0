"""Named graph families and the random graphs used by the test batteries.

A count outside 1..MAX_EDGES (0..MAX_EDGES for petals) or not an int by
graph.is_count raises BadParameters.  Lengths, one value or an iterable of values
(a str is one of one-character values), go unconverted to make_graph's Edge rule.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BadParameters
from .graph import DIRICHLET, NATURAL, MetricGraph, is_count, is_number, make_graph

# Largest count a family takes: make_graph holds about 0.8 kB of Python objects
# per edge (tracemalloc peak of star(10**5): 79 MB).
MAX_EDGES = 10**6


def _check_count(what: str, k, least: int = 1) -> None:
    if not (is_count(k) and least <= k <= MAX_EDGES):
        raise BadParameters(f"{what} must be an int from {least} to {MAX_EDGES}, got {k!r}")


def _expand(lengths, n: int | None, what: str) -> list:
    """[1.0] for None, the values of an iterable, else [the one value given]; with
    n, a single value is repeated n times, and other than n values is BadParameters."""
    try:
        vals = [1.0] if lengths is None else list(lengths)
    except TypeError:  # one value
        vals = [lengths]
    if n is None or len(vals) == n:
        return vals
    if len(vals) != 1:
        raise BadParameters(f"{what} needs {n} lengths, got {len(vals)}")
    return vals * n


def _path(lengths, last_bc: str) -> MetricGraph:
    """Path v0 - v1 - ... - vn with a Dirichlet v0, vn tagged last_bc, natural between."""
    vals = _expand(lengths, None, "a path")
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
    _check_count("star's k", k)
    vals = _expand(lengths, k, "star")
    verts = [("c", NATURAL)] + [(f"v{i}", DIRICHLET) for i in range(1, k + 1)]
    edges = [(f"e{i}", f"v{i}", "c", vals[i - 1]) for i in range(1, k + 1)]
    return make_graph(verts, edges)


def flower(k: int, lengths=None) -> MetricGraph:
    """k loops at a single Dirichlet vertex."""
    _check_count("flower's k", k)
    vals = _expand(lengths, k, "flower")
    verts = [("c", DIRICHLET)]
    edges = [(f"e{i}", "c", "c", vals[i - 1]) for i in range(1, k + 1)]
    return make_graph(verts, edges)


def stower(leaves: int, petals: int, lengths=None) -> MetricGraph:
    """Star with extra petals: natural center, Dirichlet leaf ends, loops at the center.

    lengths lists the leaf edges first, then the petals.  At least one leaf: the
    Dirichlet set lives there.
    """
    _check_count("stower's leaves", leaves)
    _check_count("stower's petals", petals, 0)
    vals = _expand(lengths, leaves + petals, "stower")
    verts = [("c", NATURAL)] + [(f"v{i}", DIRICHLET) for i in range(1, leaves + 1)]
    edges = [(f"e{i}", f"v{i}", "c", vals[i - 1]) for i in range(1, leaves + 1)]
    edges += [(f"p{j}", "c", "c", vals[leaves + j - 1]) for j in range(1, petals + 1)]
    return make_graph(verts, edges)


def lasso(pendant: float = 1.0, loop: float = 1.0) -> MetricGraph:
    """One pendant edge from a Dirichlet vertex to a junction carrying one loop."""
    return make_graph(
        [("v0", DIRICHLET), ("v1", NATURAL)],
        [("e1", "v0", "v1", pendant), ("e2", "v1", "v1", loop)],
    )


def pumpkin_chain(multiplicities, lengths=None) -> MetricGraph:
    """Chain of pumpkins (banks of parallel edges); first outer vertex Dirichlet.

    lengths may be one value, one value per pumpkin, or one value per edge
    (pumpkin by pumpkin).  At least one pumpkin, and at most MAX_EDGES edges in all.
    """
    mults = list(multiplicities)
    for m in mults:
        _check_count("a pumpkin's multiplicity", m)
    _check_count("a pumpkin chain's edge count", sum(mults))
    vals = _expand(lengths, None, "pumpkin chain")
    if len(vals) == len(mults):
        per_edge = [v for v, m in zip(vals, mults) for _ in range(m)]
    else:
        per_edge = _expand(vals, sum(mults), "pumpkin chain")
    verts = [("u0", DIRICHLET)] + [(f"u{j}", NATURAL) for j in range(1, len(mults) + 1)]
    ends = [(f"s{j}_{k}", f"u{j - 1}", f"u{j}") for j, m in enumerate(mults, start=1) for k in range(m)]
    return make_graph(verts, [(*e, ln) for e, ln in zip(ends, per_edge)])


def caterpillar(pumpkins: int, lengths=None) -> MetricGraph:
    """2-regular pumpkin chain with one Dirichlet endpoint."""
    _check_count("caterpillar's pumpkins", pumpkins)
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
) -> MetricGraph:
    """Random connected multigraph with log-uniform lengths and a nonempty Dirichlet set.

    Loops and parallel edges appear with noticeable frequency; each vertex is
    Dirichlet with probability 0.3.  BadParameters unless rng is a seed (a
    count by graph.is_count, at least 0) or a numpy Generator, max_vertices and
    max_edges are counts with 2 <= max_vertices <= max_edges + 1 <= MAX_EDGES +
    1, and length_range is two positive numbers (graph.is_number).
    """
    if not (isinstance(rng, np.random.Generator) or (is_count(rng) and rng >= 0)):
        raise BadParameters(f"rng must be a seed (an int from 0) or a numpy Generator, got {rng!r}")
    if not (is_count(max_vertices) and is_count(max_edges) and 2 <= max_vertices <= max_edges + 1 <= MAX_EDGES + 1):
        raise BadParameters(f"need counts 2 <= max_vertices <= max_edges + 1 <= {MAX_EDGES + 1}, "
                            f"got {max_vertices!r} and {max_edges!r}")
    lo, hi = length_range
    if not (is_number(lo) and is_number(hi) and lo > 0 and hi > 0):
        raise BadParameters(f"length_range must be two positive numbers, got {length_range!r}")
    rng = np.random.default_rng(rng)
    n = int(rng.integers(2, max_vertices + 1))
    ends: list[tuple[int, int]] = []
    for i in range(1, n):
        ends.append((int(rng.integers(0, i)), i))
    extra = int(rng.integers(0, max_edges - (n - 1) + 1))
    for _ in range(extra):
        ends.append((int(rng.integers(0, n)), int(rng.integers(0, n))))
    lengths = np.exp(rng.uniform(math.log(lo), math.log(hi), size=len(ends)))
    tags = rng.random(n) < 0.3
    if not tags.any():
        tags[int(rng.integers(0, n))] = True
    verts = [(f"v{i}", DIRICHLET if tags[i] else NATURAL) for i in range(n)]
    edges = [(f"e{k}", f"v{a}", f"v{b}", ln) for k, ((a, b), ln) in enumerate(zip(ends, lengths.tolist()))]
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
            return lasso(*_expand(lengths, 2, "lasso"))
        if name == "pumpkin_chain":
            return pumpkin_chain([int(x) for x in arg.split(",")], lengths)
        if name == "caterpillar":
            return caterpillar(int(arg), lengths)
        if name == "random":
            return random_graph(np.random.default_rng() if seed is None else seed)  # fresh entropy without a seed
    except (ValueError, TypeError) as exc:
        raise BadParameters(f"bad family spec {spec!r}: {exc}") from None
    raise BadParameters(f"unknown family {name!r}; known: {_FAMILY_HELP}")
