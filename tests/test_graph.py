"""Graph model: validation, metrics, distances, gluing, serialization."""

import itertools
import json
import math
from types import SimpleNamespace

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
    UnknownEdge,
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
    family_examples,
    flower,
    lasso,
    path_dd,
    path_dn,
    random_graph,
    star,
)
from graphtorsion import audit, graph


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


def _v(vid, bc="natural"):
    return {"id": vid, "bc": bc}


def _e(eid, tail="a", head="b", length=1.0):
    return {"id": eid, "from": tail, "to": head, "length": length}


def _text(vertices, edges):
    return json.dumps({"vertices": vertices, "edges": edges})


AB = [_v("a", "dirichlet"), _v("b")]

# (text, error type, exact message) for each kind of malformed entry, and for
# which error wins when there are two: an earlier entry beats a later one, and
# every per-entry check (vertices, then edges) comes before duplicate ids,
# unknown ends, the Dirichlet set and connectivity.
MALFORMED = {
    "invalid json": ("{", ValidationError,
                     "invalid JSON: Expecting property name enclosed in double quotes: "
                     "line 1 column 2 (char 1)"),
    "payload not an object": ("null", ValidationError, "graph payload must be an object"),
    "no edge list": ('{"vertices": []}', ValidationError, "graph payload needs a 'edges' list"),
    "vertex not an object": (_text(["a", _v("b")], [_e("e")]), ValidationError,
                             "vertex entry 0 must be an object with 'id' and 'bc'"),
    "vertex missing bc": (_text([_v("a", "dirichlet"), {"id": "b"}], [_e("e")]), ValidationError,
                          "vertex entry 1 must be an object with 'id' and 'bc'"),
    "edge not an object": (_text(AB, [_e("e"), 1]), ValidationError,
                           "edge entry 1 must be an object"),
    "edge missing length": (_text(AB, [{"id": "e", "from": "a", "to": "b"}]), ValidationError,
                            "edge entry 0 is missing 'length'"),
    "empty vertex id": (_text([_v("a", "dirichlet"), _v("")], [_e("e")]), ValidationError,
                        "vertex id must be a nonempty string, got ''"),
    "non-string vertex id": (_text([_v(7, "dirichlet"), _v("b")], [_e("e")]), ValidationError,
                             "vertex id must be a nonempty string, got 7"),
    "bad bc": (_text([_v("a", "dirichlet"), _v("b", "robin")], [_e("e")]), ValidationError,
               "vertex 'b': bc must be 'dirichlet' or 'natural', got 'robin'"),
    "empty edge id": (_text(AB, [_e("")]), ValidationError,
                      "edge id must be a nonempty string, got ''"),
    "non-string edge id": (_text(AB, [_e(None)]), ValidationError,
                           "edge id must be a nonempty string, got None"),
    "length true": (_text(AB, [_e("e", length=True)]), NonPositiveLength,
                    "edge 'e': length must be a number, got True"),
    "length string": (_text(AB, [_e("e", length="1.0")]), NonPositiveLength,
                      "edge 'e': length must be a number, got '1.0'"),
    "length nan": (_text(AB, [_e("e", length=math.nan)]), NonPositiveLength,
                   "edge 'e': length must be positive and finite, got nan"),
    "length inf": (_text(AB, [_e("e", length=math.inf)]), NonPositiveLength,
                   "edge 'e': length must be positive and finite, got inf"),
    "length -inf": (_text(AB, [_e("e", length=-math.inf)]), NonPositiveLength,
                    "edge 'e': length must be positive and finite, got -inf"),
    "length zero": (_text(AB, [_e("e", length=0)]), NonPositiveLength,
                    "edge 'e': length must be positive and finite, got 0"),
    "length negative": (_text(AB, [_e("e", length=-1.5)]), NonPositiveLength,
                        "edge 'e': length must be positive and finite, got -1.5"),
    "duplicate vertex id": (_text(AB + [_v("a")], [_e("e")]), DuplicateId,
                            "duplicate vertex id 'a'"),
    "duplicate edge id": (_text(AB, [_e("e"), _e("e", "b", "a")]), DuplicateId,
                          "duplicate edge id 'e'"),
    "unknown end": (_text(AB, [_e("e", "a", "zz")]), UnknownVertex,
                    "edge 'e' references unknown vertex 'zz'"),
    "no dirichlet vertex": (_text([_v("a"), _v("b")], [_e("e")]), EmptyDirichletSet,
                            "graph has no Dirichlet vertex"),
    "no edges": (_text(AB, []), DisconnectedGraph,
                 "graph has no edges; a compact metric graph needs at least one"),
    "disconnected": (_text(AB + [_v("d"), _v("c")], [_e("e"), _e("f", "d", "c")]),
                     DisconnectedGraph, "graph is not connected; unreachable vertices ['c', 'd']"),
    # which error wins
    "earlier vertex entry wins": (_text([_v("a", "robin"), _v("")], [_e("e")]), ValidationError,
                                  "vertex 'a': bc must be 'dirichlet' or 'natural', got 'robin'"),
    "vertex entry before edge entry": (_text([_v("a", "dirichlet"), _v("b", 1)], [_e("", length=0)]),
                                       ValidationError,
                                       "vertex 'b': bc must be 'dirichlet' or 'natural', got 1"),
    "earlier edge entry wins": (_text(AB, [_e("e", length=-1), {"id": "f"}]), NonPositiveLength,
                                "edge 'e': length must be positive and finite, got -1"),
    "edge entry before duplicate vertex": (_text(AB + [_v("a")], [_e("e", length=0)]),
                                           NonPositiveLength,
                                           "edge 'e': length must be positive and finite, got 0"),
    "duplicate vertex before unknown end": (_text(AB + [_v("b")], [_e("e", "zz")]), DuplicateId,
                                            "duplicate vertex id 'b'"),
    "earlier unknown end wins": (_text(AB, [_e("e", "a", "y"), _e("f", "x", "b")]), UnknownVertex,
                                 "edge 'e' references unknown vertex 'y'"),
    "unknown end before later duplicate edge": (_text(AB, [_e("e"), _e("f", "zz"), _e("e")]),
                                                UnknownVertex,
                                                "edge 'f' references unknown vertex 'zz'"),
    "unknown end before no dirichlet": (_text([_v("a"), _v("b")], [_e("e", "a", "zz")]),
                                        UnknownVertex, "edge 'e' references unknown vertex 'zz'"),
    "no dirichlet before no edges": (_text([_v("a")], []), EmptyDirichletSet,
                                     "graph has no Dirichlet vertex"),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_loads_error_type_and_message(case):
    text, kind, message = MALFORMED[case]
    with pytest.raises(ValidationError) as info:
        loads(text)
    assert type(info.value) is kind
    assert str(info.value) == message


def test_huge_integer_length_is_nonpositive_length():
    # a JSON integer too large for a float, not an OverflowError
    text = _text(AB, [_e("e", length=1)]).replace('"length": 1', '"length": 1' + "0" * 400)
    with pytest.raises(NonPositiveLength, match="^edge 'e': length must be positive and finite"):
        loads(text)


def test_overlong_integer_is_a_validation_error():
    # json.loads itself refuses integers of more than 4300 digits with a ValueError
    text = _text(AB, [_e("e", length=1)]).replace('"length": 1', '"length": 1' + "0" * 5000)
    with pytest.raises(ValidationError):
        loads(text)


def test_unhashable_end_is_unknown_vertex():
    with pytest.raises(UnknownVertex, match=r"^edge 'e' references unknown vertex \['a'\]$"):
        loads(_text(AB, [_e("e", ["a"], "b")]))


@pytest.mark.parametrize("family", [path_dn, path_dd])
def test_empty_path_rejected(family):
    with pytest.raises(BadParameters, match="a path needs at least one edge"):
        family([])


# Fifteen faults on separate entries of one valid graph, each with the error it raises
# alone, in the order in which the checks look: the Vertex rules vertex by vertex, the
# Edge rules edge by edge, a duplicate vertex id, then edge by edge a duplicate edge id
# or an unknown end, then the Dirichlet set and connectivity.  With two faults, the
# earlier one's error is raised.
FAULTS = [
    ("empty vertex id", lambda v, e: v[1].update(id=""), ValidationError,
     "vertex id must be a nonempty string, got ''"),
    ("int vertex id", lambda v, e: v[2].update(id=7), ValidationError,
     "vertex id must be a nonempty string, got 7"),
    ("bad bc", lambda v, e: v[3].update(bc="robin"), ValidationError,
     "vertex 'd': bc must be 'dirichlet' or 'natural', got 'robin'"),
    ("negative length", lambda v, e: e[0].update(length=-1.0), NonPositiveLength,
     "edge 'e1': length must be positive and finite, got -1.0"),
    ("nan length", lambda v, e: e[1].update(length=math.nan), NonPositiveLength,
     "edge 'e2': length must be positive and finite, got nan"),
    ("bool length", lambda v, e: e[2].update(length=True), NonPositiveLength,
     "edge 'e3': length must be a number, got True"),
    ("str length", lambda v, e: e[3].update(length="1.0"), NonPositiveLength,
     "edge 'e4': length must be a number, got '1.0'"),
    ("huge length", lambda v, e: e[4].update(length=10 ** 400), NonPositiveLength,
     f"edge 'e5': length must be positive and finite, got {10 ** 400}"),
    ("empty edge id", lambda v, e: e[5].update(id=""), ValidationError,
     "edge id must be a nonempty string, got ''"),
    ("duplicate vertex id", lambda v, e: v.append(dict(id="b", bc="natural")), DuplicateId,
     "duplicate vertex id 'b'"),
    ("duplicate edge id", lambda v, e: e[6].update(id="e1"), DuplicateId, "duplicate edge id 'e1'"),
    ("unknown end", lambda v, e: e[7].update(head="zz"), UnknownVertex,
     "edge 'e8' references unknown vertex 'zz'"),
    ("int end", lambda v, e: e[8].update(head=9), UnknownVertex, "edge 'e9' references unknown vertex 9"),
    ("no dirichlet vertex", lambda v, e: v[0].update(bc="natural"), EmptyDirichletSet,
     "graph has no Dirichlet vertex"),
    ("disconnected", lambda v, e: v.append(dict(id="iso", bc="natural")), DisconnectedGraph,
     "graph is not connected; unreachable vertices ['iso']"),
]
FAULT_CASES = [(f,) for f in range(len(FAULTS))] + list(itertools.combinations(range(len(FAULTS)), 2))


def _faulty(faults):
    """The vertex and edge entries of a valid graph with the named faults put in."""
    v = [dict(id=i, bc="dirichlet" if i == "a" else "natural") for i in "abcd"]
    ends = ("ab", "bc", "cd", "da", "ac", "bd", "ab", "bc", "cd")
    e = [dict(id=f"e{k + 1}", tail=t, head=h, length=1.0) for k, (t, h) in enumerate(ends)]
    for f in faults:
        FAULTS[f][1](v, e)
    return v, e


ROUTES = {
    "from_payload": lambda v, e: from_payload({"vertices": v, "edges": [
        {"id": d["id"], "from": d["tail"], "to": d["head"], "length": d["length"]} for d in e]}),
    "make_graph": lambda v, e: make_graph([(d["id"], d["bc"]) for d in v],
                                          [(d["id"], d["tail"], d["head"], d["length"]) for d in e]),
    "objects": lambda v, e: MetricGraph([Vertex(**d) for d in v], [Edge(**d) for d in e]),
    "duck-typed objects": lambda v, e: MetricGraph([SimpleNamespace(**d) for d in v],
                                                   [SimpleNamespace(**d) for d in e]),
}


def test_fault_battery_base_graph_is_valid():
    graphs = [route(*_faulty(())) for route in ROUTES.values()]
    assert all(g == graphs[0] for g in graphs) and graphs[0].total_length() == 9.0


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("faults", FAULT_CASES, ids=lambda fs: " + ".join(FAULTS[f][0] for f in fs))
def test_every_route_raises_the_first_fault(route, faults):
    _, _, kind, message = FAULTS[faults[0]]
    with pytest.raises(ValidationError) as info:
        ROUTES[route](*_faulty(faults))
    assert (type(info.value), str(info.value)) == (kind, message)


def test_duck_typed_objects_are_checked():
    # objects the library did not build are read as lists and checked as a payload is
    n = SimpleNamespace
    with pytest.raises(ValidationError, match="^vertex id must be a nonempty string, got ''$"):
        MetricGraph([n(id="a", bc="dirichlet"), n(id="", bc="robin")], [n(id="e", tail="a", head="", length=-1.0)])


@pytest.mark.parametrize("build, message", [
    (lambda: MetricGraph([("a", "dirichlet")], []),
     "vertex entry 0 must be an object with (id, bc), got ('a', 'dirichlet')"),
    (lambda: MetricGraph([Vertex("a", "dirichlet"), Vertex("b", "natural")],
                         [Edge("e", "a", "b", 1.0), ("f", "a", "b", 1.0)]),
     "edge entry 1 must be an object with (id, tail, head, length), got ('f', 'a', 'b', 1.0)"),
    (lambda: make_graph([("a", "dirichlet"), ("b", "natural", "x")], []),
     "vertex entry 1 must be a tuple (id, bc), got ('b', 'natural', 'x')"),
    (lambda: make_graph([("a", "dirichlet"), ("b", "natural")], [("e", "a", "b", 1.0), ("f", "a", "b")]),
     "edge entry 1 must be a tuple (id, tail, head, length), got ('f', 'a', 'b')"),
    (lambda: make_graph([("a", "dirichlet"), 7], []), "vertex entry 1 must be a tuple (id, bc), got 7"),
], ids=["object-vertex-tuple", "object-edge-tuple", "vertex-3-tuple", "edge-3-tuple", "vertex-int"])
def test_malformed_rows_name_their_entry(build, message):
    # a row that is not the tuple or object a route reads is a ValidationError
    # naming it, not an AttributeError or an unpacking ValueError
    with pytest.raises(ValidationError) as info:
        build()
    assert (type(info.value), str(info.value)) == (ValidationError, message)


def test_construction_builds_no_vertex_or_edge_objects(monkeypatch):
    vertices = (Vertex("a", "dirichlet"), Vertex("b", "natural"))
    edges = (Edge("e1", "a", "b", 1.0), Edge("e2", "b", "b", 0.5))
    made = []
    for cls in (Vertex, Edge):
        monkeypatch.setattr(cls, "__post_init__", lambda self, cls=cls: made.append(cls.__name__))
    family_examples()
    random_graph(3)
    path_dd([1e-5] * 1000)
    make_graph([("a", "dirichlet"), ("b", "natural")], [("e1", "a", "b", 1.0)])
    g = MetricGraph(vertices, edges)
    assert made == []
    assert g.edges == edges and made == ["Edge"] * 2  # the view is built, once, on first access
    assert g.edges == edges and made == ["Edge"] * 2


def test_with_edge_lengths_checks_count_and_entries():
    g = star(3, [1, 2, 3])
    with pytest.raises(BadParameters, match="^need one length per edge: 3 edges, got 1 lengths$"):
        g.with_edge_lengths([2.0])
    for bad in (["1", "2", "3"], [True, 2.0, 3.0]):
        with pytest.raises(NonPositiveLength) as got:
            g.with_edge_lengths(bad)
        with pytest.raises(NonPositiveLength) as want:
            Edge("e1", "v1", "c", bad[0])
        assert str(got.value) == str(want.value)
    assert g.with_edge_lengths([2, 2.0, np.float64(3.0)]).arrays.length.tolist() == [2.0, 2.0, 3.0]


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
    assert star(3, [1.0, 1.0, 1.0]).is_equilateral()
    assert star(3, [1.0, 1.0, 1.0 + 1e-10]).is_equilateral()
    assert not star(3, [1.0, 1.0, 1.0 + 1e-8]).is_equilateral()
    assert not star(3, [1.0, 1.0, 1.5]).is_equilateral()


# -- distances and inradius -----------------------------------------------


def test_dirichlet_distances_match_relaxation_oracle():
    rng = np.random.default_rng(11)
    for _ in range(40):
        g = random_graph(rng)
        want = bellman_ford_dirichlet(g)
        for vid, d in g.dirichlet_distances().items():
            assert d == pytest.approx(want[vid], rel=1e-12, abs=1e-12)


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


def test_dijkstra_on_multigraph():
    # parallel edges of lengths 5 and 1 and a loop: the shortest of each pair counts
    g = make_graph(
        [("a", "dirichlet"), ("b", "natural")],
        [("long", "a", "b", 5.0), ("short", "a", "b", 1.0), ("loop", "b", "b", 3.0)],
    )
    assert g.dirichlet_distances() == {"a": 0.0, "b": 1.0}
    w = g.inradius()
    assert (w.value, w.edge, w.offset) == (3.0, "long", 3.0)
    assert g.distance_between("a", "b") == 1.0
    assert g.degree("b") == 4


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
    for g, bridged in [(lasso(), True), (caterpillar(3), False), (flower(3), False), (star(3), False)]:
        assert g.is_doubly_connected_after_glue() is not bridged
        assert brute_has_bridge(g.glue_dirichlet()) is bridged


def test_bridge_matches_brute_force_on_battery():
    rng = np.random.default_rng(7)
    for _ in range(120):
        g = random_graph(rng)
        assert g.is_doubly_connected_after_glue() == (not brute_has_bridge(g.glue_dirichlet()))


def test_edges_between_dirichlet_vertices_are_no_bridges_after_gluing():
    # each a-b edge is a bridge of the graph but a loop once a and b are glued
    cases = [
        (path_dd([1.0]), True),
        (make_graph([("a", "dirichlet"), ("b", "dirichlet"), ("c", "dirichlet")],
                    [("e1", "a", "b", 1.0), ("e2", "b", "c", 2.0)]), True),
        (make_graph([("a", "dirichlet"), ("b", "dirichlet"), ("c", "natural"), ("d", "natural")],
                    [("e1", "a", "b", 1.0), ("e2", "b", "c", 1.0), ("e3", "c", "d", 1.0), ("e4", "d", "b", 1.0)]),
         True),
        # a natural pendant at b stays a bridge
        (make_graph([("a", "dirichlet"), ("b", "dirichlet"), ("c", "natural")],
                    [("e1", "a", "b", 1.0), ("e2", "b", "c", 1.0)]), False),
        # a natural vertex first: the search starts inside the pendant
        (make_graph([("c", "natural"), ("a", "dirichlet"), ("b", "dirichlet")],
                    [("e1", "a", "b", 1.0), ("e2", "c", "b", 1.0), ("e3", "a", "a", 1.0)]), False),
    ]
    for g, doubly in cases:
        assert g.is_doubly_connected_after_glue() is doubly
        assert brute_has_bridge(g.glue_dirichlet()) is not doubly


def test_bridge_test_on_deep_paths():
    # 10^5 edges: the search keeps its own stack, so depth is no limit
    assert path_dd([1e-5] * 10**5).is_doubly_connected_after_glue()
    assert not path_dn([1e-5] * 10**5).is_doubly_connected_after_glue()


def _relabelled(g, rng):
    """g with its vertices and edges in a random order and about half its edges
    reversed; ids, tags and lengths kept."""
    vs, es = g.vertices, g.edges
    out = make_graph([(vs[i].id, vs[i].bc) for i in rng.permutation(len(vs))],
                     [(es[k].id, es[k].tail, es[k].head, es[k].length) for k in rng.permutation(len(es))])
    return reorient(out, [e for e in out.edge_ids if rng.random() < 0.5])


@pytest.mark.parametrize("length_range", [(0.1, 10.0), (1e-7, 1e7)])
def test_bridges_and_distances_do_not_depend_on_labels(length_range):
    rng, new_root = np.random.default_rng(11), 0
    for seed in range(200):
        g = random_graph(seed, length_range=length_range)
        h = _relabelled(g, rng)
        new_root += h.vertex_ids[0] != g.vertex_ids[0]  # the bridge search starts elsewhere
        assert h.is_doubly_connected_after_glue() == g.is_doubly_connected_after_glue()
        assert h.inradius().value == pytest.approx(g.inradius().value, rel=1e-14)
        want, got = g.dirichlet_distances(), h.dirichlet_distances()
        assert got.keys() == want.keys()
        for v, d in want.items():
            assert got[v] == pytest.approx(d, rel=1e-14, abs=0.0)
    assert new_root > 100


def test_neighbour_lists_are_built_once_per_graph(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args[2])
        return adjacency(*args)

    adjacency, text = graph._adjacency, caterpillar(3).dumps()
    monkeypatch.setattr(graph, "_adjacency", counted)
    g = loads(text)
    assert len(calls) == 1
    audit(g)
    g.inradius()
    g.distance_between(*g.vertex_ids[:2])
    longer = g.with_edge_lengths([2.0] * len(g.edge_ids))
    longer.inradius()
    assert longer.is_doubly_connected_after_glue()
    assert len(calls) == 1


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
    assert reorient(g, ["e2", "e2"]) == r  # a repeated id flips its edge once


def test_reorient_names_the_first_unknown_edge():
    for ids, first in ((["e1", "x1", "x2", "x3"], "x1"), (["x3", "x2", "x1"], "x3")):
        with pytest.raises(UnknownEdge, match=f"'{first}'"):
            reorient(triangle(), ids)


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
