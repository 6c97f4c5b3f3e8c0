"""The benchmark's reference computations against closed forms.

    python -m pytest perfbench -q

Graphs here are plain namespaces, so these tests do not import graphtorsion.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import SimpleNamespace as NS

import numpy as np
import pytest
import scipy.linalg

import checks

PI2 = math.pi ** 2


def make(vertices, edges):
    """vertices: {id: bc}; edges: [(tail, head, length)] with ids e0, e1, ..."""
    return NS(
        vertices=[NS(id=v, bc=bc) for v, bc in vertices.items()],
        edges=[NS(id=f"e{k}", tail=t, head=h, length=ln) for k, (t, h, ln) in enumerate(edges)],
    )


def path_dn(length=1.0):
    return make({"a": "dirichlet", "b": "natural"}, [("a", "b", length)])


def lasso(pendant=1.0, loop=1.0):
    return make({"a": "dirichlet", "b": "natural"}, [("a", "b", pendant), ("b", "b", loop)])


def star(k, length=1.0):
    verts = {"c": "natural", **{f"v{i}": "dirichlet" for i in range(k)}}
    return make(verts, [(f"v{i}", "c", length) for i in range(k)])


def flower(k, length=1.0):
    return make({"c": "dirichlet"}, [("c", "c", length)] * k)


def pumpkin_chain_2_3():
    return make({"u0": "dirichlet", "u1": "natural", "u2": "natural"},
                [("u0", "u1", 1.0)] * 2 + [("u1", "u2", 1.0)] * 3)


def mesh_nodes(g, h):
    """Nodes in the spectrum payload's form: vertices first, then edge interiors."""
    nodes = [{"vertex": v.id, "edge": None, "offset": 0.0} for v in g.vertices]
    for e in g.edges:
        n = max(2, math.ceil(e.length / h - 1e-12))
        nodes += [{"vertex": None, "edge": e.id, "offset": k * e.length / n} for k in range(1, n)]
    return nodes


def dense_pencil(g, h, count):
    stiff, mass, free, width = checks.p1_matrices(g, mesh_nodes(g, h))
    k0 = stiff[free][:, free].toarray()
    m0 = mass[free][:, free].toarray()
    vals, vecs = scipy.linalg.eigh(k0, m0)
    return vals[:count], vecs[:, :count], stiff, mass, free, width


@pytest.mark.parametrize(
    "g, exact",
    [
        (path_dn(), Fraction(1, 3)),
        (path_dn(2.0), Fraction(8, 3)),
        (lasso(), Fraction(29, 12)),
        (star(3), Fraction(1)),  # k l^3 / 3
        (flower(3, 0.5), Fraction(3, 96)),  # k l^3 / 12
    ],
)
def test_rigidity_closed_forms(g, exact):
    assert checks.torsion_exact(g) == exact
    value, _ = checks.torsion_sparse(g)
    assert value == pytest.approx(float(exact), rel=1e-14)
    lo, hi = checks.rigidity_bracket(g)
    assert lo <= value <= hi * (1 + 1e-15)


def test_vertex_values_and_exact_wide_lasso():
    # lasso values: v(junction) = l1 (l1 + 2 l2) / 2
    _, values = checks.torsion_sparse(lasso(1.0, 2.0))
    assert values["b"] == pytest.approx(2.5, rel=1e-14)
    l1, l2 = 1e-7, 1e7
    f1, f2 = Fraction(l1), Fraction(l2)
    closed = (f1 ** 3 + f2 ** 3) / 12 + f1 * (f1 + 2 * f2) ** 2 / 4
    assert checks.torsion_exact(lasso(l1, l2)) == closed


def test_euler_identity_on_the_interval():
    # T = l^3/3 on the DN interval, dT/dl = l^2
    g = path_dn(1.5)
    assert checks.euler_gap(g, 1.5 ** 3 / 3, {"e0": 1.5 ** 2}) == pytest.approx(0.0, abs=1e-15)
    assert checks.euler_gap(g, 1.5 ** 3 / 3, {"e0": 1.01 * 1.5 ** 2}) > 1e-3


def test_inradius():
    assert checks.inradius_dijkstra(path_dn(2.0)) == 2.0
    assert checks.inradius_dijkstra(lasso(1.0, 1.0)) == 1.5
    # parallel edges: the short one sets the vertex distance, the long one peaks
    g = make({"a": "dirichlet", "b": "natural"}, [("a", "b", 1.0), ("a", "b", 3.0)])
    assert checks.inradius_dijkstra(g) == 2.0  # (0 + 1 + 3)/2


@pytest.mark.parametrize(
    "g, exact",
    [
        (path_dn(), checks.path_dn_eigenvalues(1.0, 4)),
        (star(3), checks.star_eigenvalues(3, 1.0, 4)),
        (flower(3), checks.flower_eigenvalues(3, 1.0, 4)),
        (pumpkin_chain_2_3(), checks.pumpkin_chain_2_3_eigenvalues(4)),
    ],
)
def test_p1_spectra_bracket_closed_forms(g, exact):
    vals, _, _, _, _, width = dense_pencil(g, 1 / 32, 4)
    for lam, ref in zip(vals, exact):
        assert ref * (1 - 1e-12) <= lam <= checks.p1_upper(ref, width)
        assert lam - ref > 0.25 * (checks.p1_upper(ref, width) - ref)  # the bound is not loose


def test_closed_form_spectra_values():
    assert checks.star_eigenvalues(3, 1.0, 4) == pytest.approx([PI2 / 4, PI2, PI2, 9 * PI2 / 4])
    assert checks.flower_eigenvalues(3, 1.0, 4) == pytest.approx([PI2, PI2, PI2, 4 * PI2])
    k = math.sqrt(checks.pumpkin_chain_2_3_eigenvalues(1)[0])
    assert math.tan(k) ** 2 == pytest.approx(2 / 3)


def test_p1_interval_eigenvalue_is_the_dense_one():
    g = make({"a": "dirichlet", "b": "dirichlet"}, [("a", "b", 2.0)])
    vals, *_ = dense_pencil(g, 0.1, 1)
    assert checks.p1_interval_eigenvalue(2.0, 0.1) == pytest.approx(vals[0], rel=1e-12)


def test_lambda1_bracket_holds_p1_ground_states():
    for g in (lasso(1.0, 2.0), star(3), pumpkin_chain_2_3(), flower(2, 0.7)):
        h = min(e.length for e in g.edges) / 4
        vals, *_ = dense_pencil(g, h, 1)
        lo, hi = checks.lambda1_bracket(g, h)
        assert lo < vals[0] <= hi * (1 + 1e-12)


def test_pencil_report_on_dense_eigenpairs():
    vals, vecs, stiff, mass, free, _ = dense_pencil(star(3), 1 / 16, 3)
    full = np.zeros((3, stiff.shape[0]))
    full[:, free] = vecs.T
    absolute, relative, orth = checks.pencil_report(stiff, mass, free, vals, full)
    assert max(relative) < 1e-10 and orth < 1e-10
    full[1] = full[1] + 1e-3 * full[0]
    _, relative, orth = checks.pencil_report(stiff, mass, free, vals, full)
    assert relative[1] > 1e-4 and orth > 1e-4


def test_heat_partial_sums_reach_the_rigidity():
    sums = checks.path_dn_heat_partial_sums(1.0, 2000)
    assert all(b > a for a, b in zip(sums, sums[1:]))
    assert sums[-1] == pytest.approx(1 / 3, rel=1e-9)
    assert sums[-1] < 1 / 3


@pytest.mark.parametrize(
    "g, exact",
    [
        (path_dn(), checks.path_dn_eigenvalues(1.0, 6)),
        (star(3), checks.star_eigenvalues(3, 1.0, 6)),
        (flower(3), checks.flower_eigenvalues(3, 1.0, 6)),
        (pumpkin_chain_2_3(), checks.pumpkin_chain_2_3_eigenvalues(6)),
    ],
)
def test_eigenvalue_count_matches_closed_forms(g, exact):
    # probe between distinct eigenvalues, away from the edges' Dirichlet modes
    levels = sorted(set(round(x, 9) for x in exact))
    for lo, hi in zip(levels, levels[1:]):
        probe = lo + 0.37 * (hi - lo)
        assert checks.eigenvalue_count(g, probe) == sum(x < probe for x in exact)
    assert checks.eigenvalue_count(g, 0.5 * exact[0]) == 0


def test_eigenvalue_count_against_dense_p1():
    # lasso with incommensurate lengths: every FEM eigenvalue lam_j has exactly
    # j - 1 exact eigenvalues below lam_j minus the P1 error and j up to lam_j
    g = lasso(1.0, math.sqrt(2.0))
    h = 1 / 64
    vals, *_, width = dense_pencil(g, h, 8)
    for j, lam in enumerate(vals, 1):
        assert checks.eigenvalue_count(g, lam * (1 + 1e-12)) == j
        assert checks.eigenvalue_count(g, lam - lam * lam * width * width / 6) == j - 1
