"""Finite element spectra: meshes, eigenpairs, heat content, landscape bound;
the exact lambda_1 from the secular matrix."""

import json
import math

import numpy as np
import pytest

from _oracles import fem_eigenvalues, secular_count
from _oracles import secular_lambda1 as dense_secular_lambda1
from graphtorsion import (
    BadParameters,
    NoConvergence,
    integrated_heat_content,
    landscape_check,
    lowest_eigenpairs,
    make_graph,
    secular_lambda1,
    torsion_function,
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
from graphtorsion.spectral import DELTA, _pencil, _Secular, build_mesh


# -- meshes ---------------------------------------------------------------


def test_mesh_subdivision_rule():
    mesh = build_mesh(lasso(1.5, 2.0), h_target=0.3)
    assert mesh.segments_per_edge[0] == 5  # e1
    assert mesh.segments_per_edge[1] == 7  # e2
    # e1 splits at exactly 0.3, e2 at 2/7; the coarser one wins
    assert mesh.h_eff == pytest.approx(0.3, rel=1e-12)


def test_mesh_minimum_two_segments():
    mesh = build_mesh(lasso(), h_target=10.0)
    assert all(n == 2 for n in mesh.segments_per_edge)


def test_mesh_weights_integrate_one():
    g = star(3, [0.4, 1.1, 2.3])
    mesh = build_mesh(g, h_target=0.25)
    assert mesh.trapezoid_weights().sum() == pytest.approx(
        g.total_length(), rel=1e-12
    )


def test_mesh_rejects_bad_target():
    for h in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(BadParameters):
            build_mesh(lasso(), h_target=h)


def test_mesh_dirichlet_nodes_pinned():
    g = path_dn([1.0])
    mesh = build_mesh(g, h_target=0.5)
    pinned = set(range(mesh.n_nodes)) - set(mesh.free)
    assert pinned == {[v.id for v in g.vertices].index("v0")}


def test_mesh_layout_vertices_then_edge_interiors():
    # the node order spectrum --json reports and the benchmark's P1 check rebuild
    g = lasso(1.5, 2.0)
    nodes = lowest_eigenpairs(g, h_target=0.3).to_payload()["nodes"]
    expected = [{"edge": None, "offset": 0.0, "vertex": v.id} for v in g.vertices]
    for e, n in zip(g.edges, (5, 7)):
        expected += [
            {"edge": e.id, "offset": k * (e.length / n), "vertex": None} for k in range(1, n)
        ]
    assert nodes == expected


def test_mesh_node_budget():
    # the default h = l_min/16 cuts the unit edge into 16,000,000 segments
    with pytest.raises(BadParameters, match="16000017"):
        build_mesh(star(2, [1e-6, 1.0]))


# -- eigenvalues on intervals ---------------------------------------------


def interval_errors(g, exact, h_values, k):
    errs = []
    for h in h_values:
        res = lowest_eigenpairs(g, k=k, h_target=h)
        errs.append([abs(lam - ex) for lam, ex in zip(res.eigenvalues, exact)])
    return errs


def test_interval_one_dirichlet_end():
    exact = [((2 * k - 1) * math.pi / 2.0) ** 2 for k in (1, 2, 3)]
    errs = interval_errors(path_dn([1.0]), exact, [1 / 16, 1 / 32, 1 / 64], 3)
    for mode in range(3):
        assert errs[-1][mode] <= 1e-2 * exact[mode]
        for coarse, fine in zip(errs, errs[1:]):
            assert 3.5 <= coarse[mode] / fine[mode] <= 4.5


def test_interval_both_dirichlet_ends():
    exact = [(k * math.pi) ** 2 for k in (1, 2, 3)]
    errs = interval_errors(path_dd([1.0]), exact, [1 / 16, 1 / 32, 1 / 64], 3)
    for mode in range(3):
        assert errs[-1][mode] <= 1e-2 * exact[mode]
        for coarse, fine in zip(errs, errs[1:]):
            assert 3.5 <= coarse[mode] / fine[mode] <= 4.5


def test_galerkin_overestimates():
    res = lowest_eigenpairs(path_dd([1.0]), k=2, h_target=1 / 32)
    assert res.eigenvalues[0] >= math.pi**2 - 1e-12
    assert res.eigenvalues[1] >= 4 * math.pi**2 - 1e-12


def test_star_ground_state():
    res = lowest_eigenpairs(star(3, [1.0, 1.0, 1.0]), 1, h_target=1 / 64)
    assert abs(res.eigenvalues[0] - (math.pi / 2.0) ** 2) <= 1e-3


def test_loop_with_dirichlet_point_matches_interval():
    g = flower(1, [1.0])
    exact = [(k * math.pi) ** 2 for k in (1, 2, 3)]
    res = lowest_eigenpairs(g, k=3, h_target=1 / 64)
    for lam, ex in zip(res.eigenvalues, exact):
        assert abs(lam - ex) <= 1e-2 * ex


def test_degenerate_pair_resolved():
    # equilateral 3-star: modes 2 and 3 share an eigenvalue; the pair must
    # come back mass-orthonormal, not as one vector twice
    g = star(3, [1.0, 1.0, 1.0])
    res = lowest_eigenpairs(g, k=3, h_target=1 / 32)
    assert abs(res.eigenvalues[1] - res.eigenvalues[2]) <= 1e-6 * res.eigenvalues[1]
    _, M0 = _pencil(res.mesh)
    x = res.values[:, res.mesh.free]
    gram = x @ (M0 @ x.T)
    assert np.max(np.abs(gram - np.eye(3))) <= 1e-8


def test_eigenvalues_sorted():
    res = lowest_eigenpairs(caterpillar(2), k=5, h_target=1 / 16)
    lams = res.eigenvalues
    assert all(a <= b * (1 + 1e-9) for a, b in zip(lams, lams[1:]))


def _found_graph():
    # lambda_1 is the sine on the 4.1975 edge between two Dirichlet vertices;
    # a start vector with little overlap once returned lambda_2 = 0.570010 here
    ends = [("v0", "v1", 2.5116), ("v1", "v2", 1.9216), ("v1", "v3", 0.5612),
            ("v1", "v3", 0.2009), ("v3", "v2", 0.1677), ("v0", "v3", 0.1771),
            ("v2", "v3", 1.7306), ("v1", "v1", 0.128), ("v3", "v0", 4.1975),
            ("v2", "v3", 0.7644), ("v3", "v0", 2.2651), ("v0", "v2", 4.028),
            ("v2", "v0", 1.4094), ("v2", "v2", 0.5588)]
    return make_graph(
        [("v0", "dirichlet"), ("v1", "dirichlet"), ("v2", "natural"), ("v3", "dirichlet")],
        [(f"e{i}", a, b, length) for i, (a, b, length) in enumerate(ends)],
    )


def _dense_cases():
    rng = np.random.default_rng(5)
    cases = [pytest.param(g, 3, min(e.length for e in g.edges) / 8.0, id=f"random{i}")
             for i, g in enumerate(random_graph(rng) for _ in range(5))]
    return cases + [
        pytest.param(_found_graph(), 1, 0.128 / 4.0, id="fourteen_edges"),
        pytest.param(star(3, [1.0, 1.0 + 1e-7, 1.0 - 1e-7]), 3, 1 / 16, id="star_1e-7"),
        pytest.param(star(3, [1.0, 1.0 + 1e-4, 1.0 - 1e-4]), 3, 1 / 16, id="star_1e-4"),
        pytest.param(star(5), 5, 1 / 16, id="star5_equilateral"),
    ]


@pytest.mark.parametrize("g, k, h", _dense_cases())
def test_matches_dense_solver(g, k, h):
    res = lowest_eigenpairs(g, k=k, h_target=h)
    dense = fem_eigenvalues(g, h, k)
    assert res.eigenvalues == pytest.approx(dense, rel=1e-9)


def test_residuals_small():
    res = lowest_eigenpairs(lasso(), k=3, h_target=1 / 32)
    for r, lam in zip(res.residuals, res.eigenvalues):
        assert r <= 1e-5 * lam


def test_solver_rejects_bad_requests():
    with pytest.raises(BadParameters):
        lowest_eigenpairs(lasso(), k=0)
    with pytest.raises(BadParameters):
        lowest_eigenpairs(path_dn([1.0]), k=50, h_target=0.5)
    with pytest.raises(NoConvergence):
        lowest_eigenpairs(lasso(), k=1, h_target=1 / 16, max_iter=1)


@pytest.mark.parametrize("tol, max_iter", [
    (math.nan, 10000), (math.inf, 10000), (-1e-10, 10000), (1e-10, 0),
])
def test_solver_rejects_bad_iteration_controls(tol, max_iter):
    # raised before any iteration, not as NoConvergence after max_iter of them
    with pytest.raises(BadParameters):
        lowest_eigenpairs(lasso(), k=1, h_target=1 / 16, tol=tol, max_iter=max_iter)


def test_ground_state_sign_and_payload():
    res = lowest_eigenpairs(star(3, [1.0, 1.0, 1.0]), 1, h_target=1 / 16)
    w = res.mesh.trapezoid_weights()
    phi = res.values[0]
    assert w @ phi > 0
    assert phi.min() >= -1e-6 * phi.max()
    payload = res.to_payload()
    json.dumps(payload)
    assert payload["eigenvalues"] == list(res.eigenvalues)
    assert len(payload["values"][0]) == res.mesh.n_nodes


# -- heat content ---------------------------------------------------------


def test_heat_terms_on_interval():
    # closed form: (integral of mode k)^2 / lambda_k = 8 / (k pi)^4 for odd
    # k and zero for even k
    hc = integrated_heat_content(path_dd([1.0]), modes=4, h_target=1 / 128)
    for idx, term in enumerate(hc.terms):
        k = idx + 1
        if k % 2 == 1:
            assert term == pytest.approx(8.0 / (k * math.pi) ** 4, rel=1e-3)
        else:
            assert abs(term) <= 1e-10


def test_heat_coverage_interval():
    # mode 9 has nine half-waves; h = 1/128 resolves its mean accurately
    hc = integrated_heat_content(path_dd([1.0]), modes=9, h_target=1 / 128)
    assert hc.rigidity == pytest.approx(1.0 / 12.0, rel=1e-12)
    assert hc.partial_sums[-1] >= 0.999 / 12.0


def test_heat_partial_sums_bounded_by_rigidity():
    rng = np.random.default_rng(31)
    for _ in range(10):
        g = random_graph(rng)
        h = min(e.length for e in g.edges) / 8.0
        hc = integrated_heat_content(g, modes=6, h_target=h)
        sums = hc.partial_sums
        assert all(b >= a - 1e-12 for a, b in zip(sums, sums[1:]))
        ceiling = hc.rigidity * (1.0 + 10.0 * hc.h_eff**2)
        assert sums[-1] <= ceiling


def test_heat_payload():
    hc = integrated_heat_content(path_dd([1.0]), modes=2, h_target=1 / 16)
    payload = hc.to_payload()
    json.dumps(payload)
    assert len(payload["terms"]) == 2
    assert payload["partial_sums"][-1] == pytest.approx(
        sum(payload["terms"]), rel=1e-12
    )


# -- landscape bound ------------------------------------------------------


def test_landscape_ratio_families():
    h = 1 / 32
    for g in (lasso(), star(3, [1.0, 1.0, 1.0]), flower(2), caterpillar(2)):
        ratios, h_eff = landscape_check(g, modes=3, h_target=h)
        assert len(ratios) == 3
        assert h_eff <= h * (1 + 1e-12)
        for r in ratios:
            assert r.max_ratio <= 1.0 + 5.0 * h_eff
            assert r.max_ratio > 0
            assert g.edge(r.edge) is not None


def test_landscape_reuses_precomputed():
    g = lasso()
    spec = lowest_eigenpairs(g, k=2, h_target=1 / 32)
    sol = torsion_function(g)
    ratios, h_eff = landscape_check(g, modes=2, spectral=spec, solution=sol)
    assert [r.eigenvalue for r in ratios] == list(spec.eigenvalues)
    assert h_eff == spec.h_eff


def test_landscape_rejects_bad_sampling():
    with pytest.raises(BadParameters):
        landscape_check(lasso(), samples_per_edge=1)


def test_landscape_mode_metadata():
    g = make_graph(
        [("a", "dirichlet"), ("b", "natural")],
        [("e1", "a", "b", 1.0)],
    )
    ratios, _ = landscape_check(g, modes=2, h_target=1 / 32)
    assert [r.mode for r in ratios] == [0, 1]
    assert all(0.0 <= r.offset <= 1.0 for r in ratios)


# -- exact lambda_1 from the secular matrix ---------------------------------


def _battery(seed, count):
    rng = np.random.default_rng(seed)
    return [random_graph(rng) for _ in range(count)]


def assert_exact_lambda1(g, lam):
    """lam matches the dense secular oracle to 1e-12, and the oracle's own count
    finds no eigenvalue below the bracket lam (1 - DELTA)^2 and one below lam."""
    assert lam == pytest.approx(dense_secular_lambda1(g), rel=1e-12)
    k = math.sqrt(lam)
    assert secular_count(g, k * (1.0 - DELTA)) == 0
    assert secular_count(g, k * (1.0 + 1e-12)) >= 1


def test_secular_matches_dense_oracle_on_battery():
    for g in _battery(2024, 120):
        assert_exact_lambda1(g, secular_lambda1(g, torsion_function(g)))


@pytest.mark.parametrize("index", [
    43,  # the iteration from the torsion start first settles on lambda_2 = 0.0782157
    309,  # the Dirichlet-Neumann path: the root sits ulps below the Nicaise bound
])
def test_secular_on_criterion6_battery_graphs(index):
    g = _battery(6, index + 1)[index]
    lam = secular_lambda1(g)
    assert_exact_lambda1(g, lam)
    assert lam >= (math.pi / (2.0 * g.total_length())) ** 2


def test_secular_fourteen_edge_graph():
    g = _found_graph()
    lam = secular_lambda1(g)
    assert lam == pytest.approx((math.pi / 4.1975) ** 2, rel=1e-12)
    assert_exact_lambda1(g, lam)


def test_secular_long_fine_path():
    # 10^5 edges: a P1 mesh at the default h would need 1.6M nodes
    lam = secular_lambda1(path_dd([1e-5] * 10 ** 5))
    assert lam == pytest.approx(math.pi ** 2, rel=1e-10)


def test_secular_double_ground_state():
    # two equal Dirichlet-Neumann edges at one Dirichlet vertex: lambda_1 is double
    g = make_graph([("c", "dirichlet"), ("a", "natural"), ("b", "natural")],
                   [("e0", "c", "a", 1.0), ("e1", "c", "b", 1.0)])
    assert secular_lambda1(g, max_iter=50) == pytest.approx((math.pi / 2.0) ** 2, rel=1e-12)


@pytest.mark.parametrize("g, exact", [
    (star(3), (math.pi / 2.0) ** 2),
    (path_dn([2.0]), (math.pi / 4.0) ** 2),
    (path_dd([1.0, 3.0]), (math.pi / 4.0) ** 2),
    (flower(2, [1.0, 2.0]), (math.pi / 2.0) ** 2),
])
def test_secular_closed_forms(g, exact):
    assert secular_lambda1(g) == pytest.approx(exact, rel=1e-12)


def test_secular_tol_zero_terminates():
    assert secular_lambda1(lasso(), tol=0.0) == pytest.approx(dense_secular_lambda1(lasso()), rel=1e-12)


def test_secular_rejects_bad_controls_and_runs_out():
    with pytest.raises(BadParameters):
        secular_lambda1(lasso(), tol=math.nan)
    with pytest.raises(BadParameters):
        secular_lambda1(lasso(), max_iter=0)
    with pytest.raises(NoConvergence, match="not settled"):
        secular_lambda1(lasso(), max_iter=1)


def test_secular_matrix_tends_to_torsion_matrix():
    # A(k) refills the torsion matrix's pattern; c -> 1/l and d -> 0 as k -> 0
    sys = torsion_function(random_graph(5)).discrete.system
    sec = _Secular(sys, 0.0, math.inf, 1)
    sec.factor(1e-9)
    assert np.array_equal(sec.matrix.indices, sys.matrix.indices)
    assert np.array_equal(sec.matrix.indptr, sys.matrix.indptr)
    assert sec.matrix.data == pytest.approx(sys.matrix.data, rel=1e-15)
