"""Length derivatives of rigidity and projected-gradient length optimization."""

import dataclasses
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from graphtorsion import (
    BadParameters,
    Edge,
    InconsistentInvariant,
    MetricGraph,
    NonPositiveLength,
    grad_check,
    gradient,
    loads,
    optimize,
    rigidity,
    torsion_function,
    with_lengths,
)
from graphtorsion.families import caterpillar, lasso, path_dd, path_dn, random_graph, star
from graphtorsion.shape_opt import (
    FLOOR_REACHED,
    MAX_ITERS_EXCEEDED,
    STATIONARY,
)


# -- derivative values ----------------------------------------------------


def test_known_derivatives():
    assert gradient(lasso(1.0, 1.0))["e1"] == pytest.approx(4.0, rel=1e-12)
    assert gradient(path_dn([1.0]))["e1"] == pytest.approx(1.0, rel=1e-12)
    assert gradient(path_dd([1.0]))["e1"] == pytest.approx(0.25, rel=1e-12)


def test_gradient_positive_everywhere():
    rng = np.random.default_rng(271)
    for _ in range(100):
        g = random_graph(rng)
        grads = gradient(g)
        assert set(grads) == {e.id for e in g.edges}
        assert all(v > 0 for v in grads.values())


def test_derivative_point_independent():
    rng = np.random.default_rng(9)
    for _ in range(20):
        g = random_graph(rng)
        sol = torsion_function(g)
        for e, b, c in zip(g.edges, sol.b.tolist(), sol.c.tolist()):
            # v'(x)^2 + 2 v(x) for v(x) = -x^2/2 + b x + c
            vals = [(b - x) ** 2 + 2.0 * (-0.5 * x * x + b * x + c) for x in rng.uniform(0, e.length, 5)]
            spread = max(vals) - min(vals)
            assert spread <= 1e-10 * max(1.0, abs(vals[0]))


def test_grad_check_error_profile():
    # rigidity of the one-Dirichlet interval is cubic, so the central
    # difference misses by exactly step^2 / 3
    (row,) = grad_check(path_dn([1.0]), ["e1"], 1e-3)
    analytic, fd, err = row["analytic"], row["fd"], row["abs_error"]
    assert analytic == pytest.approx(1.0, rel=1e-12)
    assert err == pytest.approx(1e-6 / 3.0, rel=1e-3)
    assert abs(fd - analytic) == pytest.approx(err, abs=1e-15)
    (half,) = grad_check(path_dn([1.0]), ["e1"], 5e-4)
    err_half = half["abs_error"]
    assert 3.5 <= err / err_half <= 4.5
    assert row["step"] == 1e-3 and row["halving_ratio"] == err / err_half


def test_grad_check_matches_fd_on_families():
    for g in (lasso(), star(3, [0.5, 1.0, 2.0]), path_dd([1.0, 2.0])):
        rows = grad_check(g)  # the step defaults to 1e-3 of each edge length
        assert [r["edge"] for r in rows] == [e.id for e in g.edges]
        assert [r["step"] for r in rows] == [1e-3 * e.length for e in g.edges]
        for r in rows:
            analytic, fd, err = r["analytic"], r["fd"], r["abs_error"]
            assert err <= 1e-5 * max(1.0, abs(analytic))
            assert fd == pytest.approx(analytic, rel=1e-4)


def test_grad_check_rejects_bad_step():
    with pytest.raises(BadParameters):
        grad_check(lasso(), ["e1"], 0.0)
    with pytest.raises(BadParameters):
        grad_check(lasso(), ["e1"], 0.5)


def test_with_lengths_replaces_only_lengths():
    g = lasso(1.0, 1.0)
    h = with_lengths(g, {"e1": 2.0, "e2": 3.0})
    assert h.edge("e1").length == 2.0
    assert h.edge("e2").length == 3.0
    assert {v.id for v in h.vertices} == {v.id for v in g.vertices}
    partial = with_lengths(g, {"e1": 2.0})
    assert partial.edge("e2").length == 1.0
    with pytest.raises(NonPositiveLength):
        with_lengths(g, {"e1": 2.0, "e2": -1.0})


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_with_lengths_rejects_bad_length(bad):
    g = lasso(1.0, 1.0)
    with pytest.raises(NonPositiveLength) as got:
        with_lengths(g, {"e2": bad})
    with pytest.raises(NonPositiveLength) as want:
        Edge("e2", "v1", "v1", bad)
    assert str(got.value) == str(want.value)


def _multigraph_text(rng, n, m):
    """A random connected multigraph with n vertices and m edges, loops and
    parallel edges allowed, as JSON: a random recursive tree plus extra edges."""
    ends = [(int(rng.integers(0, i)), i) for i in range(1, n)]
    ends += [tuple(p) for p in rng.integers(0, n, size=(m - n + 1, 2)).tolist()]
    lengths = np.exp(rng.uniform(math.log(0.1), math.log(10.0), size=m)).tolist()
    dirichlet = set(rng.choice(n, size=round(0.3 * n), replace=False).tolist())
    return json.dumps({
        "vertices": [{"id": f"v{i}", "bc": "dirichlet" if i in dirichlet else "natural"}
                     for i in range(n)],
        "edges": [{"id": f"e{k}", "from": f"v{a}", "to": f"v{b}", "length": ln}
                  for k, ((a, b), ln) in enumerate(zip(ends, lengths))],
    })


def test_with_lengths_builds_no_edges(monkeypatch):
    g = loads(_multigraph_text(np.random.default_rng(1), 2000, 3000))
    new = {eid: 1.5 * e.length for eid, e in zip(g.edge_ids[::3], g.edges[::3])}
    copy = MetricGraph(g.vertices, [Edge(e.id, e.tail, e.head, new.get(e.id, e.length))
                                    for e in g.edges])
    calls = Counter()

    def counting(self, *args, _init=Edge.__init__, **kwargs):
        calls["Edge"] += 1
        _init(self, *args, **kwargs)

    monkeypatch.setattr(Edge, "__init__", counting)
    h = with_lengths(g, new)
    t = rigidity(torsion_function(h))
    assert calls == Counter()
    assert t == rigidity(torsion_function(copy))
    assert h == copy


# -- optimizer ------------------------------------------------------------


def test_equilateral_two_star_is_stationary():
    traj = optimize(star(2, [1.0, 1.0]))
    assert traj.stop_reason == STATIONARY
    assert len(traj.points) == 1
    assert traj.final().lengths == {"e1": 1.0, "e2": 1.0}


def test_three_star_max_concentrates_length():
    g = with_lengths(star(3, [1.0, 1.0, 1.0]), {"e1": 0.5, "e2": 0.5, "e3": 2.0})
    traj = optimize(g, objective="max", max_iters=500)
    assert traj.stop_reason == FLOOR_REACHED
    f = traj.floor
    lengths = traj.final().lengths
    ordered = sorted(lengths.values())
    assert ordered[0] == pytest.approx(f, rel=1e-6)
    assert ordered[1] == pytest.approx(f, rel=1e-6)
    assert ordered[2] == pytest.approx(3.0 - ordered[0] - ordered[1], rel=1e-12)

    long = ordered[2]
    expect = (long**3 + 2 * f**3) / 12.0 + 9.0 / (4.0 * (1.0 / long + 2.0 / f))
    assert traj.final().rigidity == pytest.approx(expect, rel=1e-9)

    # Saint-Venant ceiling, monotone ascent, conserved total length
    prev = -1.0
    for p in traj.points:
        assert p.rigidity <= 27.0 / 3.0
        assert p.rigidity >= prev * (1.0 - 1e-12)
        prev = p.rigidity
        assert sum(p.lengths.values()) == pytest.approx(3.0, abs=1e-12 * 3.0)


def test_minimize_descends():
    traj = optimize(lasso(1.0, 1.0), objective="min", max_iters=60)
    rigs = [p.rigidity for p in traj.points]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(rigs, rigs[1:]))
    assert rigs[-1] < rigs[0]


def test_max_iters_flagged():
    g = with_lengths(star(3, [1.0, 1.0, 1.0]), {"e1": 0.5, "e2": 0.5, "e3": 2.0})
    traj = optimize(g, max_iters=2)
    assert traj.stop_reason == MAX_ITERS_EXCEEDED
    assert traj.final().iteration == 2


def test_optimize_rejects_bad_parameters():
    with pytest.raises(BadParameters):
        optimize(lasso(), objective="sideways")
    with pytest.raises(BadParameters):
        optimize(lasso(), floor=-1.0)
    with pytest.raises(BadParameters):
        optimize(lasso(), floor=5.0)
    for kwargs in ({"floor": float("nan")}, {"floor": float("inf")}, {"max_iters": 0}, {"max_iters": 2.5},
                   {"max_iters": True}):
        with pytest.raises(BadParameters):
            optimize(lasso(), **kwargs)


def test_trajectory_json_lines():
    traj = optimize(lasso(1.0, 1.0), objective="min", max_iters=5)
    lines = traj.to_json_lines().splitlines()
    rows = [json.loads(line) for line in lines]
    assert rows[-1]["stop_reason"] == traj.stop_reason
    assert rows[-1]["iterations"] == traj.final().iteration
    for row in rows[:-1]:
        assert set(row) == {"iteration", "lengths", "T"}
    assert rows[0]["T"] == pytest.approx(traj.points[0].rigidity, rel=1e-15)


def test_optimize_lines_are_pinned():
    # every T and length of eight trajectories, as printed
    pinned = json.loads((Path(__file__).parent / "data" / "optimize_lines.json").read_text())
    graphs = {"star:3,[0.5,0.5,2.0]": star(3, [0.5, 0.5, 2.0]), "random_graph(3)": random_graph(3),
              "caterpillar(3)": caterpillar(3), "lasso(1,3)": lasso(1, 3)}
    runs = {f"{name} {objective}": optimize(g, objective).to_json_lines()
            for name, g in graphs.items() for objective in ("max", "min")}
    assert runs == pinned


def test_gradient_names_the_first_edge_that_drifts():
    sol = torsion_function(lasso(1.0, 1.0))
    # on a long edge with small b and c the midpoint value cancels terms of size
    # 1e11, which leaves a rounding error far above the tail value
    arrays = {"b": 0.004117208484213602, "c": -8.470192870522257e-06}
    bad = dataclasses.replace(sol, graph=lasso(1.0, 962511.6760188427),
                              **{k: np.array([getattr(sol, k)[0], v]) for k, v in arrays.items()})
    with pytest.raises(InconsistentInvariant, match="^dT/dl on edge 'e2' drifts along the edge"):
        gradient(bad.graph, bad)


def test_gradient_refuses_a_solution_of_another_graph():
    with pytest.raises(BadParameters):
        gradient(star(3), torsion_function(lasso()))
    sol = torsion_function(star(3))
    assert gradient(star(3), sol) == gradient(sol.graph, sol)
