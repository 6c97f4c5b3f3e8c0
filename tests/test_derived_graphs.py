"""Graphs derived by vertex identification and by surgery, pinned byte for byte.

For the family examples, the equality witnesses, the first 20 graphs of the
criterion-6 battery (random_graph draws from default_rng(6)) and
random_graph(seed, (1e-7, 1e7)) for seeds 0..9, tests/data/derived_graphs.json
holds dumps(indent=None) of glue_dirichlet(), of apply(Glue) in both orders on
the first two natural and on the first two Dirichlet vertices where they
exist, and of reduce_to_pumpkin_chain, plus is_doubly_connected_after_glue().
It holds the same of apply(AddDirichlet) and of a two-vertex AttachPendant at
the first natural vertex, of AddEdge from the first to the last vertex with and
without an edge id, of UnfoldParallel in both orders on the first parallel pair
where these exist, and of reorient of the first and last edges.
A change to any id, order, tag, end or length bit of these graphs shows here.

Run this file as a script to write the data file again.
"""

import json
from functools import cache
from pathlib import Path

import numpy as np
import pytest

from graphtorsion import (AddDirichlet, AddEdge, AttachPendant, Glue, UnfoldParallel, apply, equality_witnesses,
                          reduce_to_pumpkin_chain, reorient)
from graphtorsion.families import family_examples, random_graph

DATA = Path(__file__).parent / "data" / "derived_graphs.json"


@cache
def _graphs() -> dict:
    battery = np.random.default_rng(6)
    return {
        "families": dict(family_examples()),
        "witnesses": {name: g for name, g, _ in equality_witnesses()},
        "battery": {str(k): random_graph(battery) for k in range(20)},
        "random": {str(s): random_graph(s, length_range=(1e-7, 1e7)) for s in range(10)},
    }


def derived(g) -> dict:
    out = {
        "glue_dirichlet": g.glue_dirichlet().dumps(indent=None),
        "doubly_connected_after_glue": g.is_doubly_connected_after_glue(),
        "pumpkin_chain": reduce_to_pumpkin_chain(g).dumps(indent=None),
    }
    for kind, ids in (("natural", g.natural_vertices), ("dirichlet", g.dirichlet_vertices)):
        if len(ids) >= 2:
            v, w = ids[:2]
            out[f"glue_two_{kind}"] = [apply(g, Glue(v, w)).dumps(indent=None),
                                   apply(g, Glue(w, v)).dumps(indent=None)]
    first, last = g.vertex_ids[0], g.vertex_ids[-1]
    out["add_edge"] = [apply(g, AddEdge(first, last, 0.5)).dumps(indent=None),
                       apply(g, AddEdge(first, last, 0.5, "new")).dumps(indent=None)]
    out["reorient"] = reorient(g, [g.edge_ids[0], g.edge_ids[-1]]).dumps(indent=None)
    if g.natural_vertices:
        at = g.natural_vertices[0]
        out["add_dirichlet"] = apply(g, AddDirichlet(at)).dumps(indent=None)
        pendant = AttachPendant(("w0", "w1"), (("we", "w1", "w0", 0.75),), "w1", at)
        out["attach_pendant"] = apply(g, pendant).dumps(indent=None)
    a = g.arrays
    ends = [frozenset(e) for e in zip(a.tail.tolist(), a.head.tolist())]
    pairs = [(i, j) for j in range(len(ends)) for i in range(j) if ends[i] == ends[j]]
    if pairs:
        e1, e2 = (g.edge_ids[k] for k in min(pairs))
        out["unfold"] = [apply(g, UnfoldParallel(e1, e2)).dumps(indent=None),
                         apply(g, UnfoldParallel(e2, e1)).dumps(indent=None)]
    return out


PINNED = json.loads(DATA.read_text()) if DATA.exists() else {}


@pytest.mark.parametrize("group, name", [(group, name) for group in PINNED for name in PINNED[group]])
def test_derived_graphs_match_pinned(group, name):
    assert derived(_graphs()[group][name]) == PINNED[group][name]


def test_every_group_is_pinned():
    assert {group: list(graphs) for group, graphs in _graphs().items()} == \
        {group: list(entries) for group, entries in PINNED.items()}


if __name__ == "__main__":
    table = {group: {name: derived(g) for name, g in graphs.items()} for group, graphs in _graphs().items()}
    DATA.write_text(json.dumps(table, indent=1) + "\n")
