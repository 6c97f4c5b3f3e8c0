"""Every public number, count and id parameter against bad values.

The rules live in graph.py: a number is an int or a float, not a bool, and
finite (an int too large for a float is not); a count is an int, not a bool;
an id is a nonempty str.  Each call raises its own class for a value that
breaks them: BadParameters for controls, counts, floors and steps,
NonPositiveLength for lengths, PreconditionViolated for surgery amounts (whose
predicted_direction is None) and ValidationError for Polya coefficients.
"""

import hashlib
import math

import numpy as np
import pytest

from graphtorsion import (AddEdge, AttachPendant, BadParameters, GraphToolError, Lengthen, NonPositiveLength,
                          PreconditionViolated, Scale, ValidationError, apply, audit, integrated_heat_content,
                          landscape_check, lowest_eigenpairs, optimize, polya_quotient, predicted_direction,
                          reorient, secular_lambda1)
from graphtorsion.families import (caterpillar, family_examples, flower, lasso, path_dd, path_dn, pumpkin_chain,
                                   random_graph, star, stower)
from graphtorsion.graph import make_graph
from graphtorsion.shape_opt import grad_check, with_lengths

BAD = {"True": True, "'1'": "1", "None": None, "nan": math.nan, "inf": math.inf, "-1": -1, "0": 0,
       "10**400": 10**400}
G, H = lasso(), 0.25  # v0 Dirichlet, v1 natural, e1 from v0 to v1 and the loop e2 at v1


def _amount(op):
    """apply() refuses op and predicted_direction() certifies nothing, with or without the graph."""
    assert predicted_direction(op) is None and predicted_direction(op, G) is None
    apply(G, op)


def _pendant(length):
    op = AttachPendant(("p0", "p1"), (("pe", "p0", "p1", length),), "p0", "v1")
    assert predicted_direction(op, G) is None
    apply(G, op)


# parameter: (call with the value, class raised, labels of BAD that are valid there)
PARAMETERS = {
    "lowest_eigenpairs k": (lambda x: lowest_eigenpairs(G, x, h_target=H), BadParameters, ()),
    "lowest_eigenpairs h_target": (lambda x: lowest_eigenpairs(G, 1, h_target=x), BadParameters, ("None",)),
    "lowest_eigenpairs tol": (lambda x: lowest_eigenpairs(G, 1, h_target=H, tol=x), BadParameters, ("0",)),
    "integrated_heat_content modes": (lambda x: integrated_heat_content(G, x, h_target=H), BadParameters, ()),
    "integrated_heat_content h_target": (lambda x: integrated_heat_content(G, 1, h_target=x), BadParameters,
                                         ("None",)),
    "integrated_heat_content tol": (lambda x: integrated_heat_content(G, 1, h_target=H, tol=x), BadParameters,
                                    ("0",)),
    "landscape_check modes": (lambda x: landscape_check(G, x, h_target=H), BadParameters, ()),
    "landscape_check h_target": (lambda x: landscape_check(G, 1, h_target=x), BadParameters, ("None",)),
    "landscape_check tol": (lambda x: landscape_check(G, 1, h_target=H, tol=x), BadParameters, ("0",)),
    "secular_lambda1 tol": (lambda x: secular_lambda1(G, tol=x), BadParameters, ("0",)),
    "audit h_target": (lambda x: audit(G, h_target=x), BadParameters, ("None",)),
    "audit tol": (lambda x: audit(G, tol=x), BadParameters, ("0",)),
    "optimize floor": (lambda x: optimize(G, floor=x, max_iters=1), BadParameters, ("None",)),
    "optimize max_iters": (lambda x: optimize(G, max_iters=x), BadParameters, ("10**400",)),
    "grad_check step": (lambda x: grad_check(G, ["e1"], x), BadParameters, ("None",)),
    "with_lengths": (lambda x: with_lengths(G, {"e2": x}), NonPositiveLength, ()),
    "with_edge_lengths": (lambda x: G.with_edge_lengths([1.0, x]), NonPositiveLength, ()),
    "Scale factor": (lambda x: _amount(Scale(x)), PreconditionViolated, ()),
    "Lengthen delta": (lambda x: _amount(Lengthen("e1", x)), PreconditionViolated, ()),
    "AddEdge length": (lambda x: _amount(AddEdge("v1", "v1", x)), PreconditionViolated, ()),
    "AttachPendant length": (_pendant, NonPositiveLength, ()),
    "polya_quotient": (lambda x: polya_quotient(path_dd([1.0]), {"e1": (-0.5, x, 0.0)}), ValidationError, ()),
    "star k": (lambda x: star(x), BadParameters, ()),
    "flower k": (lambda x: flower(x), BadParameters, ()),
    "stower leaves": (lambda x: stower(x, 1), BadParameters, ()),
    "stower petals": (lambda x: stower(1, x), BadParameters, ("0",)),
    "pumpkin_chain multiplicity": (lambda x: pumpkin_chain([2, x]), BadParameters, ()),
    "caterpillar pumpkins": (lambda x: caterpillar(x), BadParameters, ()),
    "path_dn lengths": (lambda x: path_dn(x), NonPositiveLength, ("None",)),
    "path_dd lengths": (lambda x: path_dd([1.0, x]), NonPositiveLength, ()),
    "star lengths": (lambda x: star(3, x), NonPositiveLength, ("None",)),
    "flower lengths": (lambda x: flower(2, [x, 1.0]), NonPositiveLength, ()),
    "stower lengths": (lambda x: stower(1, 1, x), NonPositiveLength, ("None",)),
    "lasso pendant": (lambda x: lasso(x, 1.0), NonPositiveLength, ()),
    "lasso loop": (lambda x: lasso(1.0, x), NonPositiveLength, ()),
    "pumpkin_chain lengths": (lambda x: pumpkin_chain([2, 3], x), NonPositiveLength, ("None",)),
    "caterpillar lengths": (lambda x: caterpillar(2, [1.0, x]), NonPositiveLength, ()),
    "random_graph max_vertices": (lambda x: random_graph(0, max_vertices=x), BadParameters, ()),
    "random_graph max_edges": (lambda x: random_graph(0, max_edges=x), BadParameters, ()),
    "random_graph length_range low": (lambda x: random_graph(0, length_range=(x, 1.0)), BadParameters, ()),
    "random_graph length_range high": (lambda x: random_graph(0, length_range=(1.0, x)), BadParameters, ()),
    "random_graph rng": (lambda x: random_graph(x), BadParameters, ("0", "10**400")),
}


@pytest.mark.parametrize("param, bad", [(p, b) for p in PARAMETERS for b in BAD if b not in PARAMETERS[p][2]])
def test_bad_value_raises_the_parameters_class(param, bad):
    # a bool or a str taken as a number, or a bare OverflowError, TypeError or
    # ValueError (as from 10**400 through float()), fails here
    call, kind, _ = PARAMETERS[param]
    with pytest.raises(GraphToolError) as info:
        call(BAD[bad])
    assert type(info.value) is kind


def test_a_string_is_not_a_list_of_ids():
    # a str was read as its one-character ids: reorient(g, "ab") flipped edges a and b
    g = make_graph([("x", "dirichlet"), ("y", "natural")], [("a", "x", "y", 1.0), ("b", "y", "y", 1.0)])
    for call in (lambda: reorient(g, "ab"), lambda: reorient(star(3), "e1"), lambda: grad_check(G, "e1")):
        with pytest.raises(BadParameters, match="^edge_ids must be an iterable of edge ids, got the string"):
            call()
    assert reorient(g, ("a", "b")) == reorient(reorient(g, ["a"]), iter(["b"]))
    assert [row["edge"] for row in grad_check(G, ("e2",))] == ["e2"]


def test_random_graph_takes_a_seed_or_a_generator():
    # -1 raised numpy's ValueError, "1" and 1.5 its TypeError
    for bad in (-1, "1", 1.5, np.int64(3), None):
        with pytest.raises(BadParameters, match="^rng must be a seed"):
            random_graph(bad)
    assert random_graph(np.random.default_rng(7)) == random_graph(7)


@pytest.mark.parametrize("call", [lambda: G.with_edge_lengths(None), lambda: G.with_edge_lengths("12"),
                                  lambda: G.with_edge_lengths({"e1": 1.0, "e2": 2.0}),
                                  lambda: G.with_edge_lengths(np.float64(1.0)), lambda: with_lengths(G, [1.0, 2.0]),
                                  lambda: with_lengths(G, None)],
                         ids=["None", "str", "dict", "scalar", "list", "None-mapping"])
def test_length_containers_are_judged_first(call):
    # with_edge_lengths(None) raised a bare TypeError, with_lengths of a list a bare AttributeError
    with pytest.raises(BadParameters, match="^lengths must be a"):
        call()


def test_random_graph_bounds():
    # max_vertices = 1 raised numpy's ValueError; more vertices than a tree on max_edges
    # edges failed on the seeds that drew them
    for kwargs in ({"max_vertices": 1}, {"max_vertices": 3, "max_edges": 1}, {"max_edges": 10**6 + 1},
                   {"length_range": (1.0, -1.0)}):
        with pytest.raises(BadParameters):
            random_graph(0, **kwargs)
    g = random_graph(0, max_vertices=2, max_edges=1, length_range=(2.0, 2.0))
    assert len(g.vertex_ids) == 2 and g.arrays.length.tolist() == [2.0]


# sha256 of dumps() by the call each key names (or family_examples' entry), as
# built when each family converted its own values: ints, numpy floats, one value,
# per-pumpkin values and iterators build the same graphs
DUMPS = {
    "star(700, np.linspace(1, 2, 700))": "7b79188a21f6b77b",
    "star(3, [1, 2, 3])": "78fcc23eebcd5521",
    "star(3, 2)": "6bc03744ce240b7b",
    "star(2, np.float64(0.5))": "03da3626f0b6e697",
    "flower(2, [0.5, 1.5])": "967d53243a246a38",
    "stower(2, 2, [1, 2, 3, 4])": "d04b434efb42dd18",
    "stower(1, 0)": "7ba42f8ac06a942d",
    "lasso(1, 3)": "131c46cc6dca4461",
    "pumpkin_chain([2, 3], [0.5, 2])": "667c5c93783f41b1",
    "pumpkin_chain([2, 3], 0.7)": "a03971e40c787ba7",
    "pumpkin_chain((1, 2), [1, 2, 3])": "fbafdd718a0853d9",
    "caterpillar(3, np.arange(1.0, 7.0))": "0d84dfd38fb141ea",
    "path_dn(2)": "0b7964a1d086f472",
    "path_dd(iter([1, 2.5]))": "a447951d88f943df",
    "random_graph(0, max_vertices=40, max_edges=60)": "856b0a635c6d1fea",
    "random_graph(3, length_range=(2.0, 2.0))": "103989ac6ab9c746",
    "path_DN": "9a5817c6102dbd84",
    "path_DD": "3c02c311a47109cf",
    "star:3": "9778687b45f5d0a3",
    "flower:3": "ee5c98ee7b6c97f4",
    "stower:2,2": "4a1d1df24723bc8d",
    "lasso": "8d21926bb27379c8",
    "pumpkin_chain:2,3": "8d989f0a9868e5e4",
    "caterpillar:3": "db54582e0d53b43e",
}


def test_family_builds_are_unchanged():
    examples = dict(family_examples())
    for name, digest in DUMPS.items():
        g = examples[name] if name in examples else eval(name)
        assert hashlib.sha256(g.dumps().encode()).hexdigest()[:16] == digest, name
