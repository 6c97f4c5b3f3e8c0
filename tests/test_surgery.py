"""Surgery operations: rewiring, direction predictions, chain reduction."""

import json
import math
import time
from collections import Counter

import numpy as np
import pytest

from _oracles import pumpkin_multiplicities, random_surgery_op
from graphtorsion import (
    AddDirichlet,
    AddEdge,
    AttachPendant,
    BadParameters,
    Direction,
    Glue,
    Lengthen,
    PreconditionViolated,
    Scale,
    UnfoldParallel,
    ValidationError,
    apply,
    audit,
    grad_check,
    landscape_check,
    lowest_eigenpairs,
    make_graph,
    optimize,
    polya_quotient,
    predicted_direction,
    reduce_to_pumpkin_chain,
    reorient,
    surgery,
    torsion_function,
)
from graphtorsion.graph import Edge, Vertex, loads
from graphtorsion.families import caterpillar, flower, lasso, random_graph, star


def T(g):
    return torsion_function(g).rigidity


# -- op mechanics ---------------------------------------------------------


def test_glue_merges_vertices():
    g = star(3)
    glued = apply(g, Glue("v1", "v2"))
    ids = {v.id for v in glued.vertices}
    assert "v1" in ids and "v2" not in ids
    assert glued.total_length() == pytest.approx(g.total_length(), rel=1e-15)


def test_glue_requires_matching_conditions():
    with pytest.raises(PreconditionViolated):
        apply(star(3), Glue("c", "v1"))
    with pytest.raises(PreconditionViolated):
        apply(star(3), Glue("v1", "v1"))


def test_add_dirichlet_flips_condition():
    g = apply(lasso(), AddDirichlet("v1"))
    assert g.vertex("v1").bc == "dirichlet"
    with pytest.raises(PreconditionViolated):
        apply(g, AddDirichlet("v1"))


def test_attach_pendant_grafts():
    op = AttachPendant(
        vertices=("p0", "p1"),
        edges=(("pe0", "p0", "p1", 0.5),),
        join="p0",
        at="v1",
    )
    g = apply(lasso(), op)
    assert g.vertex("p1").bc == "natural"
    assert g.edge("pe0").length == 0.5
    assert g.total_length() == pytest.approx(2.5, rel=1e-15)


def test_attach_pendant_rejects_dirichlet_host():
    op = AttachPendant(("p0",), (), "p0", "v0")
    with pytest.raises(PreconditionViolated):
        apply(lasso(), op)


def test_attach_pendant_rejects_disconnected_pendant():
    op = AttachPendant(
        vertices=("p0", "p1", "p2"),
        edges=(("pe0", "p1", "p2", 0.5),),
        join="p0",
        at="v1",
    )
    with pytest.raises(PreconditionViolated):
        apply(lasso(), op)


def test_add_edge_auto_id_and_loop():
    g = apply(lasso(), AddEdge("v1", "v1", 0.7))
    added = [e for e in g.edges if e.id not in ("e1", "e2")]
    assert len(added) == 1 and added[0].is_loop


def test_lengthen_and_scale():
    g = apply(lasso(1.0, 1.0), Lengthen("e1", 0.25))
    assert g.edge("e1").length == pytest.approx(1.25, rel=1e-15)
    s = apply(lasso(1.0, 2.0), Scale(3.0))
    assert s.edge("e2").length == pytest.approx(6.0, rel=1e-15)
    with pytest.raises(PreconditionViolated):
        apply(g, Lengthen("e1", 0.0))
    with pytest.raises(PreconditionViolated):
        apply(g, Scale(-1.0))


def test_unfold_parallel():
    g = caterpillar(1)
    first, second = (e.id for e in g.edges)
    u = apply(g, UnfoldParallel(first, second))
    assert len(u.edges) == 1
    assert u.edges[0].length == pytest.approx(2.0, rel=1e-15)
    with pytest.raises(PreconditionViolated):
        apply(lasso(), UnfoldParallel("e1", "e2"))


# -- predicted directions -------------------------------------------------


def test_direction_battery():
    rng = np.random.default_rng(99)
    checked = 0
    for _ in range(200):
        g = random_graph(rng)
        sol = torsion_function(g)
        op = random_surgery_op(rng, g)
        pred = predicted_direction(op, g, sol)
        after = T(apply(g, op))
        before = sol.rigidity
        tol = 1e-9 * max(before, after)
        if pred is None:
            assert isinstance(op, AddEdge)
            continue
        checked += 1
        if pred.direction is Direction.NON_INCREASING:
            assert after <= before + tol
        elif pred.direction is Direction.NON_DECREASING:
            assert after >= before - tol
        elif pred.direction is Direction.STRICT_INCREASE:
            assert after > before + tol
        elif pred.direction is Direction.STRICT_DECREASE:
            assert after < before - tol
        elif pred.direction is Direction.EXACT_SCALE:
            want = pred.factor * before
            assert abs(after - want) <= 1e-9 * want
        else:
            raise AssertionError(pred.direction)
    assert checked > 100


def test_scale_prediction_factor():
    pred = predicted_direction(Scale(2.0))
    assert pred.direction is Direction.EXACT_SCALE
    assert pred.factor == pytest.approx(8.0, rel=1e-15)


def test_glue_equal_values_keeps_rigidity():
    g = make_graph(
        [("a", "dirichlet"), ("b", "natural"), ("c", "natural")],
        [("e1", "a", "b", 1.0), ("e2", "a", "c", 1.0)],
    )
    before = T(g)
    after = T(apply(g, Glue("b", "c")))
    assert after == pytest.approx(before, rel=1e-9)


def test_add_edge_certification():
    g = star(2, [1.0, 1.0])
    sol = torsion_function(g)
    # both endpoints Dirichlet, equal values, certified
    pred = predicted_direction(AddEdge("v1", "v2", 1.0), g, sol)
    assert pred is not None and pred.direction is Direction.NON_DECREASING
    # unequal values, no guarantee
    l = lasso(1.0, 1.0)
    sol_l = torsion_function(l)
    assert predicted_direction(AddEdge("v0", "v1", 1.0), l, sol_l) is None
    # a loop is always certified
    assert (
        predicted_direction(AddEdge("v1", "v1", 1.0), l, sol_l).direction
        is Direction.NON_DECREASING
    )


# Edge rejects a bool length, so no operation takes a bool as a number
@pytest.mark.parametrize("op", [Lengthen("e1", -1.0), Lengthen("e1", math.inf), Scale(0.0), Scale(math.nan),
                                Scale(-2.0), AddEdge("v1", "v1", -2.0), AddEdge("v0", "v1", 0.0),
                                AddEdge("v0", "v1", True), AddEdge("v1", "v1", True), Lengthen("e1", True),
                                Scale(True)])
def test_no_prediction_for_refused_amounts(op):
    with pytest.raises(PreconditionViolated):
        apply(lasso(), op)
    assert predicted_direction(op, lasso()) is None
    assert predicted_direction(op) is None


# one operation per precondition apply() checks, each refused on lasso(): v0
# Dirichlet, v1 natural, e1 from v0 to v1 and the loop e2 at v1
_PENDANT = (("p0", "p1"), (("pe0", "p0", "p1", 0.5),), "p0", "v1")


@pytest.mark.parametrize("op", [
    Glue("v1", "v1"), Glue("zz", "v1"), Glue("v1", "zz"), Glue("v0", "v1"),
    AddDirichlet("zz"), AddDirichlet("v0"),
    AttachPendant(*_PENDANT[:3], "zz"), AttachPendant(*_PENDANT[:3], "v0"),
    AttachPendant(*_PENDANT[:2], "px", "v1"), AttachPendant(("p0", "v0"), (), "p0", "v1"),
    AttachPendant(_PENDANT[0], (("e1", "p0", "p1", 0.5),), "p0", "v1"),
    AttachPendant(_PENDANT[0], (("pe0", "p0", "v1", 0.5),), "p0", "v1"),
    AttachPendant(("p0", "p1", "p2"), (("pe0", "p1", "p2", 0.5),), "p0", "v1"),
    AddEdge("zz", "zz", 1.0), AddEdge("zz", "v1", 1.0), AddEdge("v1", "zz", 1.0), AddEdge("v0", "v1", 1.0, "e2"),
    Lengthen("nope", 1.0),
    UnfoldParallel("e1", "e1"), UnfoldParallel("nope", "e2"), UnfoldParallel("e1", "nope"), UnfoldParallel("e1", "e2"),
])
def test_no_prediction_for_refused_operations(op):
    g = lasso()
    with pytest.raises(PreconditionViolated):
        apply(g, op)
    assert predicted_direction(op, g) is None
    assert predicted_direction(op, None, torsion_function(g)) is None


# apply() refuses these where it builds the graph, with the graph's own errors
_HUGE = make_graph([("v0", "dirichlet"), ("v1", "natural")], [("e1", "v0", "v1", 1e308), ("e2", "v0", "v1", 1e308)])


@pytest.mark.parametrize("g, op", [
    (lasso(), AttachPendant(_PENDANT[0], (("pe0", "p0", "p1", 0.0),), "p0", "v1")),
    (lasso(), AttachPendant(_PENDANT[0], (("pe0", "p0", "p1", math.inf),), "p0", "v1")),
    (lasso(), AttachPendant(("p0", "p1", "p1"), _PENDANT[1], "p0", "v1")),
    (lasso(), AttachPendant(_PENDANT[0], _PENDANT[1] + (("pe0", "p1", "p0", 0.5),), "p0", "v1")),
    (lasso(), AttachPendant(("p0", ""), (("pe0", "p0", "", 0.5),), "p0", "v1")),
    (lasso(), AttachPendant(_PENDANT[0], (("", "p0", "p1", 0.5),), "p0", "v1")),
    (lasso(), AddEdge("v0", "v1", 1.0, "")),
    (_HUGE, Lengthen("e1", 1e308)), (_HUGE, Scale(1e300)), (_HUGE, UnfoldParallel("e1", "e2")),
])
def test_no_prediction_where_the_new_graph_is_invalid(g, op):
    with pytest.raises(ValidationError):
        apply(g, op)
    assert predicted_direction(op, g) is None


@pytest.mark.parametrize("op, entry", [
    (AttachPendant(_PENDANT[0], (("pe0", "p0", "p1"),), "p0", "v1"), "^edge entry 0 must be a tuple"),
    (AttachPendant(("p0", ["p1"]), _PENDANT[1], "p0", "v1"), "^pendant vertex entry 1 must be"),
    (AttachPendant(_PENDANT[0], _PENDANT[1] + (("pe1", "p1", ["p0"], 0.5),), "p0", "v1"), "^pendant edge entry 1 must"),
    (AttachPendant(_PENDANT[0], 5, "p0", "v1"), "^pendant vertices and edges must be lists"),
], ids=["three-fields", "unhashable-vertex", "unhashable-end", "not-iterable"])
def test_malformed_pendant_entries_are_named(op, entry):
    # a 3-field edge gave a bare ValueError and an unhashable id a bare TypeError,
    # both from unpacking the rows before any rule
    with pytest.raises(ValidationError, match=entry):
        apply(lasso(), op)
    assert predicted_direction(op, lasso()) is None


def test_pendant_edges_in_any_order():
    # a path of four pendant edges listed from its far end toward join
    edges = tuple((f"pe{k}", f"p{k}", f"p{k + 1}", 0.5) for k in reversed(range(4)))
    op = AttachPendant(tuple(f"p{k}" for k in range(5)), edges, "p0", "v1")
    assert predicted_direction(op, lasso()).direction == Direction.NON_DECREASING
    assert apply(lasso(), op).edge_ids == ("e1", "e2", "pe3", "pe2", "pe1", "pe0")


def test_prediction_checks_build_no_graph(monkeypatch):
    # every graph is built through __init__, from ids and arrays through _take, or,
    # with its ids and ends kept, through with_edge_lengths
    g, built = lasso(), []
    for name in ("__init__", "_take"):
        real = getattr(surgery.MetricGraph, name)
        monkeypatch.setattr(surgery.MetricGraph, name,
                            lambda self, *a, real=real, name=name: built.append(name) or real(self, *a))
    ops = [Glue("v0", "v1"), AddDirichlet("v1"), AttachPendant(*_PENDANT), AddEdge("v1", "v1", 1.0),
           Lengthen("e1", 1.0), Scale(2.0), UnfoldParallel("e1", "e2")]
    assert [predicted_direction(op, g) is None for op in ops] == [True] + [False] * 5 + [True]
    assert built == []
    apply(g, AddDirichlet("v1"))  # the spies do see a build
    assert built == ["_take"]


def test_library_builds_no_vertex_or_edge_objects(monkeypatch):
    # objects are a view for callers; no library path builds one from a graph it was given
    made = []
    for cls in (Vertex, Edge):
        monkeypatch.setattr(cls, "__post_init__", lambda self, cls=cls: made.append(cls.__name__))
    g = loads(json.dumps({
        "vertices": [{"id": v, "bc": bc} for v, bc in
                     (("v0", "dirichlet"), ("v1", "natural"), ("v2", "natural"), ("v3", "dirichlet"))],
        "edges": [{"id": e, "from": t, "to": h, "length": ln} for e, t, h, ln in
                  (("e1", "v0", "v1", 1.0), ("e2", "v1", "v2", 0.7), ("e3", "v2", "v1", 1.3),
                   ("e4", "v2", "v3", 0.9), ("e5", "v2", "v2", 0.5))],
    }))
    ops = [Glue("v1", "v2"), Glue("v0", "v3"), AddDirichlet("v1"), AttachPendant(*_PENDANT),
           AddEdge("v0", "v3", 1.0), AddEdge("v1", "v2", 1.0, "new"), AddEdge("v1", "v1", 1.0),
           Lengthen("e1", 0.5), Scale(2.0), UnfoldParallel("e2", "e3"), UnfoldParallel("e3", "e2")]
    for op in ops:
        apply(g, op)
        predicted_direction(op, g)
    predicted_direction(Glue("v0", "v1"), g)  # refused, with the two conditions named
    reorient(g, ["e1", "e5"])
    grad_check(g)
    optimize(g, max_iters=1)
    sol = torsion_function(g)
    polya_quotient(g, {e: (-0.5, b, c) for e, b, c in zip(g.edge_ids, sol.b.tolist(), sol.c.tolist())})
    audit(g, h_target=0.05)
    lowest_eigenpairs(g, 2, h_target=0.05)
    landscape_check(g, modes=2, h_target=0.05)
    reduce_to_pumpkin_chain(g)
    assert made == []
    assert (len(g.vertices), len(g.edges)) == (4, 5)  # the spies do see the view built
    assert made == ["Vertex"] * 4 + ["Edge"] * 5


def test_add_edge_prediction_needs_the_solution_of_its_graph():
    g, op = star(2, [1.0, 1.0]), AddEdge("v1", "v2", 1.0)
    with pytest.raises(BadParameters):
        predicted_direction(op, g, torsion_function(lasso()))
    # an equal graph built apart is the same graph
    assert predicted_direction(op, g, torsion_function(star(2, [1.0, 1.0]))) is not None
    assert predicted_direction(op, None, torsion_function(g)) is not None


def test_add_dirichlet_strictly_decreases():
    g = lasso(1.0, 1.0)
    assert T(apply(g, AddDirichlet("v1"))) < T(g) - 1e-9


def test_lengthen_strictly_increases():
    g = star(3)
    assert T(apply(g, Lengthen("e1", 0.5))) > T(g) + 1e-9


def test_unfold_parallel_strictly_increases():
    g = caterpillar(1)
    first, second = (e.id for e in g.edges)
    assert T(apply(g, UnfoldParallel(first, second))) > T(g) + 1e-9


# -- chain reduction ------------------------------------------------------


def chain_profile(chain):
    """(distance, multiplicity, strand length) per pumpkin, sorted outward."""
    dist = chain.dirichlet_distances()
    level_of = {}
    for e in chain.edges:
        du, dw = dist[e.tail], dist[e.head]
        lo, hi = min(du, dw), max(du, dw)
        assert hi - lo == pytest.approx(e.length, rel=1e-9), "edge not monotone"
        key = round(lo, 9)
        level_of.setdefault(key, []).append(e.length)
    out = []
    for key in sorted(level_of):
        lens = level_of[key]
        assert max(lens) - min(lens) <= 1e-9 * max(lens)
        out.append((key, len(lens), lens[0]))
    return out


def test_reduce_lasso():
    chain = reduce_to_pumpkin_chain(lasso(1.0, 1.0))
    prof = chain_profile(chain)
    assert [(m, pytest.approx(l, rel=1e-9)) for _, m, l in prof] == [
        (1, pytest.approx(1.0, rel=1e-9)),
        (2, pytest.approx(0.5, rel=1e-9)),
    ]
    assert T(chain) == pytest.approx(T(lasso(1.0, 1.0)), rel=1e-9)


def test_reduce_glued_star_is_single_pumpkin():
    g = star(3, [1.0, 1.0, 1.0]).glue_dirichlet()
    chain = reduce_to_pumpkin_chain(g)
    prof = chain_profile(chain)
    assert len(prof) == 1 and prof[0][1] == 3
    assert T(chain) == pytest.approx(T(g), rel=1e-9)


def test_reduce_flower_orders_peaks():
    chain = reduce_to_pumpkin_chain(flower(3, [0.6, 1.0, 1.4]))
    prof = chain_profile(chain)
    assert [m for _, m, _ in prof] == [6, 4, 2]


def test_reduction_invariants_battery():
    rng = np.random.default_rng(17)
    for _ in range(60):
        g = random_graph(rng)
        chain = reduce_to_pumpkin_chain(g)

        dir_vertices = chain.dirichlet_vertices
        assert len(dir_vertices) == 1
        # degree of the glued Dirichlet end, loops counted twice
        want_deg = sum(
            (e.tail in set(g.dirichlet_vertices))
            + (e.head in set(g.dirichlet_vertices))
            for e in g.edges
        )
        d0 = dir_vertices[0]
        got_deg = sum((e.tail == d0) + (e.head == d0) for e in chain.edges)
        assert got_deg == want_deg

        assert chain.total_length() == pytest.approx(g.total_length(), rel=1e-9)
        assert chain.inradius().value == pytest.approx(
            g.inradius().value, rel=1e-9
        )
        assert T(chain) <= T(g) * (1.0 + 1e-9)

        # vertex budget: one per level; interior peaks add levels
        dist = g.dirichlet_distances()
        vertex_levels = set(round(v, 9) for v in dist.values())
        peaks = set()
        for e in g.edges:
            du, dw = dist[e.tail], dist[e.head]
            peak = (du + dw + e.length) / 2.0
            if peak > max(du, dw) + 1e-12:
                peaks.add(round(peak, 9))
        extra = len(peaks - vertex_levels)
        n_nat = len(g.natural_vertices)
        assert len(chain.natural_vertices) <= n_nat + 1 + extra
        if not peaks - vertex_levels:
            assert len(chain.natural_vertices) <= n_nat + 1

        chain_profile(chain)
        strands = Counter(int(e.tail[1:]) for e in chain.edges)
        assert [strands[j] for j in range(len(chain.vertices) - 1)] == pumpkin_multiplicities(g)


def test_reduction_of_peak_free_tree_keeps_vertex_budget():
    # equal arms: the distance field peaks only at the center vertex
    g = star(3, [1.0, 1.0, 1.0])
    chain = reduce_to_pumpkin_chain(g)
    assert len(chain.natural_vertices) <= len(g.natural_vertices) + 1
    assert T(chain) <= T(g) * (1.0 + 1e-9)


def test_reduction_with_interior_peaks_adds_levels():
    # arms 0.5/1.0/2.0: the two longer arms peak mid-edge, adding two levels
    g = star(3, [0.5, 1.0, 2.0])
    chain = reduce_to_pumpkin_chain(g)
    assert len(chain.natural_vertices) <= len(g.natural_vertices) + 1 + 2
    assert T(chain) <= T(g) * (1.0 + 1e-9)
    assert chain.inradius().value == pytest.approx(g.inradius().value, rel=1e-9)


def test_reduction_refuses_a_chain_past_the_edge_budget():
    # star(k) with distinct lengths reduces to about k^2 edges: 2,250,000 here
    g = star(1500, np.linspace(1.0, 2.0, 1500).tolist())
    t0 = time.perf_counter()
    with pytest.raises(BadParameters, match="2250000 edges"):
        reduce_to_pumpkin_chain(g)
    assert time.perf_counter() - t0 < 1.0
