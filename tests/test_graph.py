"""Graph model: validation, metrics, distances, gluing, serialization."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import bellman_ford_dirichlet, brute_has_bridge
from graphtorsion import (
    BadParameters,
    DisconnectedGraph,
    DuplicateId,
    Edge,
    EmptyDirichletSet,
    MetricGraph,
    NonPositiveLength,
    UnknownVertex,
    ValidationError,
    Vertex,
    from_payload,
    loads,
    make_graph,
    reorient,
)
from graphtorsion.families import (
    caterpillar,
    flower,
    lasso,
    path_dd,
    path_dn,
    random_graph,
    star,
)
from graphtorsion.graph import _has_bridge


def triangle():
    return make_graph(
        [("a", "dirichlet"), ("b", "natural"), ("c", "natural")],
        [("e1", "a", "b", 1.0), ("e2", "b", "c", 2.0), ("e3", "c", "a", 3.0)],
    )


# -- validation -----------------------------------------------------------


def test_duplicate_vertex_id_rejected():
    with pytest.raises(DuplicateId):
        make_graph([("a", "dirichlet"), ("a", "natural")], [("e", "a", "a", 1.0)])


def test_duplicate_edge_id_rejected():
    with pytest.raises(DuplicateId):
        make_graph(
            [("a", "dirichlet"), ("b", "natural")],
            [("e", "a", "b", 1.0), ("e", "a", "b", 2.0)],
        )


def test_unknown_endpoint_rejected():
    with pytest.raises(UnknownVertex):
        make_graph([("a", "dirichlet")], [("e", "a", "zz", 1.0)])


def test_nonpositive_and_nonfinite_lengths_rejected():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(NonPositiveLength):
            Edge("e", "a", "b", bad)


def test_bool_length_rejected():
    with pytest.raises(NonPositiveLength):
        Edge("e", "a", "b", True)


def test_bad_bc_rejected():
    with pytest.raises(ValidationError):
        Vertex("a", "robin")


def test_empty_dirichlet_rejected():
    with pytest.raises(EmptyDirichletSet):
        make_graph([("a", "natural"), ("b", "natural")], [("e", "a", "b", 1.0)])


def test_zero_edges_rejected():
    with pytest.raises(DisconnectedGraph):
        MetricGraph((Vertex("a", "dirichlet"),), ())


def test_disconnected_rejected():
    with pytest.raises(DisconnectedGraph):
        make_graph(
            [("a", "dirichlet"), ("b", "natural"), ("c", "natural"), ("d", "natural")],
            [("e1", "a", "b", 1.0), ("e2", "c", "d", 1.0)],
        )


def test_isolated_vertex_rejected():
    with pytest.raises(DisconnectedGraph):
        make_graph(
            [("a", "dirichlet"), ("b", "natural"), ("c", "natural")],
            [("e1", "a", "b", 1.0)],
        )


@pytest.mark.parametrize("family", [path_dn, path_dd])
def test_empty_path_rejected(family):
    with pytest.raises(BadParameters, match="a path needs at least one edge"):
        family([])


# -- basic metrics --------------------------------------------------------


def test_total_length_and_degrees():
    g = lasso(1.5, 2.0)
    assert g.total_length() == pytest.approx(3.5, rel=1e-15)
    # pendant end: one edge; loop vertex: pendant plus loop twice
    assert g.degree("v0") == 1
    assert g.degree("v1") == 3
    assert g.metric_degree("v1") == pytest.approx(1.5 + 2.0 * 2.0, rel=1e-15)


def test_tree_and_equilateral_predicates():
    assert star(3).is_tree()
    assert not lasso().is_tree()
    assert star(3, [1.0, 1.0, 1.0]).is_equilateral(1e-9)
    assert not star(3, [1.0, 1.0, 1.5]).is_equilateral(1e-9)


# -- distances and inradius -----------------------------------------------


def test_dirichlet_distances_match_relaxation_oracle():
    rng = np.random.default_rng(11)
    for _ in range(40):
        g = random_graph(rng)
        field = g.dirichlet_distances()
        want = bellman_ford_dirichlet(g)
        for vid, d in field.values.items():
            assert d == pytest.approx(want[vid], rel=1e-12, abs=1e-12)


def test_distance_field_interior_point():
    g = lasso(1.0, 1.0)
    field = g.dirichlet_distances()
    # walking around the loop, the far side is reached the short way
    assert field.at("e2", 0.25) == pytest.approx(1.25, rel=1e-15)
    assert field.at("e2", 0.75) == pytest.approx(1.25, rel=1e-15)


def test_inradius_lasso_loop_midpoint():
    w = lasso(1.0, 1.0).inradius()
    assert w.value == pytest.approx(1.5, rel=1e-15)
    assert w.edge == "e2"
    assert w.offset == pytest.approx(0.5, rel=1e-12)


def test_inradius_path():
    w = path_dn([1.0, 2.0]).inradius()
    assert w.value == pytest.approx(3.0, rel=1e-15)


def test_distance_between():
    g = triangle()
    assert g.distance_between("a", "c") == pytest.approx(3.0, rel=1e-15)
    assert g.distance_between("b", "b") == 0.0


# -- gluing and bridges ---------------------------------------------------


def test_glue_dirichlet_merges_all():
    g = star(3)
    glued = g.glue_dirichlet()
    assert len(glued.dirichlet_vertices) == 1
    assert glued.total_length() == pytest.approx(g.total_length(), rel=1e-15)
    # the three leaf edges become parallel strands
    kept = glued.dirichlet_vertices[0]
    assert all(kept in (e.tail, e.head) for e in glued.edges)


def test_glue_dirichlet_makes_loops_from_dd_edges():
    g = make_graph(
        [("a", "dirichlet"), ("b", "dirichlet")], [("e", "a", "b", 1.0)]
    )
    glued = g.glue_dirichlet()
    assert glued.edges[0].is_loop


def test_bridge_known_cases():
    assert _has_bridge(lasso())
    assert not _has_bridge(caterpillar(3).glue_dirichlet())
    assert not _has_bridge(flower(3))
    assert not _has_bridge(star(3).glue_dirichlet())


def test_bridge_matches_brute_force_on_battery():
    rng = np.random.default_rng(7)
    for _ in range(120):
        g = random_graph(rng).glue_dirichlet()
        assert _has_bridge(g) == brute_has_bridge(g)


def test_doubly_connected_classification():
    assert caterpillar(2).is_doubly_connected_after_glue()
    assert flower(2).is_doubly_connected_after_glue()
    # gluing the leaves turns a star into a parallel bank
    assert star(3).is_doubly_connected_after_glue()
    assert not lasso().is_doubly_connected_after_glue()
    assert not path_dn([1.0, 1.0]).is_doubly_connected_after_glue()


def test_doubly_connected_matches_brute_force_on_glued_graph():
    # the bridge test runs on the index arrays without building the glued graph
    for seed in range(200):
        g = random_graph(seed)
        assert g.is_doubly_connected_after_glue() == (not brute_has_bridge(g.glue_dirichlet()))


# -- serialization --------------------------------------------------------


def test_payload_round_trip_identity():
    g = lasso(1.25, 0.75)
    assert from_payload(g.to_payload()) == g


def test_dumps_loads_bit_faithful():
    g = random_graph(np.random.default_rng(5))
    text = g.dumps()
    assert loads(text).dumps() == text


def test_from_payload_rejects_malformed():
    for payload in (
        {},
        {"vertices": [], "edges": []},
        {"vertices": [{"id": "a"}], "edges": []},
        {"vertices": [{"id": "a", "bc": "dirichlet"}], "edges": [{"id": "e"}]},
        {"vertices": "nope", "edges": []},
    ):
        with pytest.raises(ValidationError):
            from_payload(payload)


def test_reorient_flips_named_edges_only():
    g = triangle()
    r = reorient(g, ["e2"])
    assert r.edge("e2").tail == "c" and r.edge("e2").head == "b"
    assert r.edge("e1").tail == "a" and r.edge("e1").head == "b"


# -- random generator properties ------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_graph_always_valid(seed):
    g = random_graph(seed)
    assert g.dirichlet_vertices
    assert len(g.vertices) <= 12 and len(g.edges) <= 20
    assert all(0.1 <= e.length <= 10.0 for e in g.edges)
    # construction already enforces connectivity; gluing preserves length
    assert g.glue_dirichlet().total_length() == pytest.approx(
        g.total_length(), rel=1e-12
    )
