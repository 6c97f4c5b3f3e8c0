"""Torsion solver: closed forms, identities, witnesses, serialization."""

import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    exact_rigidity,
    fem_rigidity,
    lasso_rigidity,
    sampled_sup,
    stower_rigidity,
    stower_rigidity_equilateral,
)
from graphtorsion import (
    BadParameters,
    CrossCheckMismatch,
    Edge,
    ValidationError,
    Vertex,
    ZeroEnergy,
    dirichlet_energy,
    equality_witnesses,
    gradient,
    loads,
    make_graph,
    polya_quotient,
    reorient,
    rigidity,
    solution_to_payload,
    solve_discrete_torsion,
    torsion_function,
)
from graphtorsion.families import (
    caterpillar,
    family_examples,
    flower,
    lasso,
    path_dd,
    path_dn,
    pumpkin_chain,
    random_graph,
    star,
    stower,
)
from graphtorsion import torsion
from graphtorsion.errors import SingularSystem
from graphtorsion.spectral import _Secular
from graphtorsion.torsion import (REL_TOL, Storage, SymmetricFactor, _require_close, assemble_discrete_system,
                                  laplacian_terms)

REL = 1e-10


def T(g):
    return torsion_function(g).rigidity


def edge_quadratics(sol):
    """(edge id, length, b, c) of v(x) = -x^2/2 + b x + c on each edge, as floats."""
    g = sol.graph
    return zip(g.edge_ids, g.arrays.length.tolist(), sol.b.tolist(), sol.c.tolist())


# -- closed forms ---------------------------------------------------------


def test_interval_one_dirichlet_end():
    for a in (0.3, 1.0, 2.7):
        assert T(path_dn([a])) == pytest.approx(a ** 3 / 3.0, rel=REL)


def test_interval_two_dirichlet_ends():
    for a in (0.3, 1.0, 2.7):
        assert T(path_dd([a])) == pytest.approx(a ** 3 / 12.0, rel=REL)


def test_interval_sup_values():
    assert torsion_function(path_dn([1.0])).sup.value == pytest.approx(0.5, rel=REL)
    assert torsion_function(path_dd([1.0])).sup.value == pytest.approx(0.125, rel=REL)


def test_star_closed_form():
    for k in (1, 2, 3, 5):
        for total in (1.0, 3.0):
            g = star(k, [total / k] * k)
            assert T(g) == pytest.approx(total ** 3 / (3.0 * k * k), rel=REL)


def test_star_arbitrary_lengths():
    lengths = [0.4, 1.1, 2.3]
    g = star(3, lengths)
    want = math.fsum(x ** 3 for x in lengths) / 12.0 + math.fsum(
        lengths
    ) ** 2 / (4.0 * math.fsum(1.0 / x for x in lengths))
    assert T(g) == pytest.approx(want, rel=REL)


def test_lasso_values():
    sol = torsion_function(lasso(1.0, 1.0))
    assert sol.rigidity == pytest.approx(29.0 / 12.0, rel=REL)
    assert sol.sup.value == pytest.approx(13.0 / 8.0, rel=REL)
    # the maximum sits at the loop midpoint
    assert sol.sup.edge == "e2"
    assert sol.sup.offset == pytest.approx(0.5, rel=1e-9)


def test_lasso_random_parameters():
    rng = np.random.default_rng(21)
    for _ in range(20):
        l1, l2 = rng.uniform(0.2, 3.0, 2)
        assert T(lasso(l1, l2)) == pytest.approx(lasso_rigidity(l1, l2), rel=REL)


def test_stower_random_parameters():
    rng = np.random.default_rng(22)
    for _ in range(20):
        leaves = int(rng.integers(1, 4))
        petals = int(rng.integers(0, 4))
        lengths = rng.uniform(0.2, 3.0, leaves + petals)
        g = stower(leaves, petals, list(lengths))
        want = stower_rigidity(lengths[:leaves], lengths[leaves:])
        assert T(g) == pytest.approx(want, rel=REL)


def test_stower_equilateral_count_form():
    for leaves, petals in ((1, 1), (2, 2), (3, 1)):
        g = stower(leaves, petals, [1.0] * (leaves + petals))
        want = stower_rigidity_equilateral(leaves, petals, float(leaves + petals))
        assert T(g) == pytest.approx(want, rel=REL)


def test_flower_is_sum_of_loop_cubes():
    lengths = [0.5, 1.0, 2.0]
    assert T(flower(3, lengths)) == pytest.approx(
        math.fsum(x ** 3 for x in lengths) / 12.0, rel=REL
    )


def test_caterpillar_arbitrary_lengths():
    # T depends only on the total length, strands included
    g = pumpkin_chain([2, 2, 2], [0.3, 0.3, 1.0, 1.0, 0.7, 0.7])
    assert T(g) == pytest.approx(g.total_length() ** 3 / 12.0, rel=REL)
    c4 = caterpillar(4)
    assert T(c4) == pytest.approx(c4.total_length() ** 3 / 12.0, rel=REL)


# -- identities and invariants --------------------------------------------


def test_triple_identity_on_random_battery():
    rng = np.random.default_rng(42)
    for _ in range(120):
        g = random_graph(rng)
        sol = torsion_function(g)
        t_int = math.fsum(-(l ** 3) / 6.0 + 0.5 * b * l * l + c * l for _, l, b, c in edge_quadratics(sol))
        t_energy = dirichlet_energy(sol)
        cubes = math.fsum(e.length ** 3 for e in g.edges) / 12.0
        t_formula = cubes + sol.system.weight @ sol.values[~g.arrays.dirichlet] / 2.0
        scale = max(abs(t_int), abs(t_energy), abs(t_formula))
        assert abs(t_int - t_energy) <= REL * scale
        assert abs(t_int - t_formula) <= REL * scale
        assert rigidity(sol) == pytest.approx(t_int, rel=REL)


def test_vertex_values_are_half_discrete():
    g = lasso(1.0, 1.0)
    sys, x = solve_discrete_torsion(g)
    sol = torsion_function(g)
    assert x[sys.order.index("v1")] == pytest.approx(3.0, rel=REL)
    assert sol.vertex_values["v1"] == pytest.approx(1.5, rel=REL)
    assert sol.vertex_values["v0"] == 0.0


def test_kirchhoff_residual_small():
    rng = np.random.default_rng(43)
    for _ in range(25):
        sol = torsion_function(random_graph(rng))
        assert sol.kirchhoff_residual <= 1e-10 * max(1.0, sol.sup.value)


def test_positivity_inside():
    rng = np.random.default_rng(44)
    for _ in range(25):
        g = random_graph(rng)
        sol = torsion_function(g)
        for _, l, b, c in edge_quadratics(sol):
            for x in np.linspace(0.0, l, 7)[1:-1].tolist():
                assert -0.5 * x * x + b * x + c > 0.0


def test_sup_witness_matches_dense_sampling():
    rng = np.random.default_rng(45)
    for _ in range(15):
        sol = torsion_function(random_graph(rng))
        dense = sampled_sup(sol)
        assert sol.sup.value >= dense - 1e-12 * max(1.0, dense)
        assert sol.sup.value <= dense + 1e-4 * max(1.0, dense)


def test_orientation_invariance():
    g = lasso(1.3, 0.9)
    flipped = reorient(g, ["e1", "e2"])
    a, b = torsion_function(g), torsion_function(flipped)
    assert b.rigidity == pytest.approx(a.rigidity, rel=REL)
    assert b.sup.value == pytest.approx(a.sup.value, rel=REL)
    for vid, val in a.vertex_values.items():
        assert b.vertex_values[vid] == pytest.approx(val, rel=REL, abs=1e-15)


def test_cubic_scaling():
    g = random_graph(np.random.default_rng(46))
    c = 1.7
    scaled = make_graph(
        [(v.id, v.bc) for v in g.vertices],
        [(e.id, e.tail, e.head, c * e.length) for e in g.edges],
    )
    assert T(scaled) == pytest.approx(c ** 3 * T(g), rel=REL)


def test_degree_two_natural_vertex_is_invisible():
    # splitting an edge with a natural vertex changes nothing
    whole = path_dd([2.0])
    split = path_dd([0.6, 1.4])
    assert T(split) == pytest.approx(T(whole), rel=REL)


def test_fem_oracle_agreement():
    rng = np.random.default_rng(47)
    for _ in range(5):
        g = random_graph(rng, max_vertices=6, max_edges=8)
        h = min(e.length for e in g.edges) / 24.0
        exact = T(g)
        approx = fem_rigidity(g, h)
        assert approx == pytest.approx(exact, rel=5e-3)


def test_wide_length_ratios_never_raise():
    # lengths log-uniform over 14 decades; every rigidity route must still agree
    for seed in range(300):
        g = random_graph(seed, length_range=(1e-7, 1e7))
        rigidity(torsion_function(g))


def test_wide_length_ratios_match_exact_solve():
    for seed in (44, 53, 64, 72, 75):
        g = random_graph(seed, length_range=(1e-7, 1e7))
        want = float(exact_rigidity(g))
        assert rigidity(torsion_function(g)) == pytest.approx(want, rel=REL_TOL)


def test_long_path_stays_sparse():
    # 30,001 vertices: the dense vertex matrix alone would need about 7 GB
    n = 30_000
    g = path_dd([1.0 / n] * n)
    sol = torsion_function(g)
    assert sol.rigidity == pytest.approx(1.0 / 12.0, rel=1e-12)
    matrix = sol.system.matrix
    assert scipy.sparse.issparse(matrix)
    assert matrix.nnz <= 3 * len(g.natural_vertices)


# -- the two LDL^T kernels --------------------------------------------------


def _factor(m: np.ndarray, dense: bool) -> SymmetricFactor:
    """SymmetricFactor of the symmetric array m, on a storage holding every
    entry: the array itself (LAPACK) when dense, else CSC data (SuperLU)."""
    rows, cols = np.indices(m.shape).reshape(2, -1)
    storage = Storage.build(len(m), rows, cols, len(m) if dense else -1)
    assert (storage.indices is None) is dense
    return SymmetricFactor(storage, storage.fill(m[rows, cols]))


@pytest.mark.parametrize("m", [[[0.0, 1.0], [1.0, 0.0]], [[1e-3, 1.0], [1.0, 1e-3]]])
def test_dense_inertia_of_a_2x2_pivot(m):
    m = np.array(m)
    lu = _factor(m, dense=True)
    assert (lu.ipiv < 0).all()  # one 2x2 block of D
    negatives, log_det = lu.inertia()
    assert negatives == 1
    assert log_det == pytest.approx(np.linalg.slogdet(m)[1], rel=1e-14, abs=1e-15)
    assert lu.solve(np.array([1.0, 2.0])) == pytest.approx(np.linalg.solve(m, [1.0, 2.0]), rel=1e-14)


def test_dense_inertia_matches_the_eigenvalues():
    # symmetric indefinite matrices of every order the dense kernel takes
    rng = np.random.default_rng(14)
    blocks = 0
    for n in range(1, torsion.DENSE_MAX + 1):
        a = rng.standard_normal((n, n))
        m = a + a.T
        lu = _factor(m, dense=True)
        negatives, log_det = lu.inertia()
        assert negatives == np.count_nonzero(np.linalg.eigvalsh(m) < 0.0)
        assert log_det == pytest.approx(np.linalg.slogdet(m)[1], rel=1e-12, abs=1e-12)
        b = rng.standard_normal(n)
        assert np.abs(m @ lu.solve(b) - b).max() <= 1e-9 * np.abs(b).max()
        blocks += int(np.count_nonzero(lu.ipiv < 0)) // 2
    assert blocks > 0


def test_inertia_of_both_kernels_on_a_vertex_system():
    sys = assemble_discrete_system(random_graph(3))
    n, mu = len(sys.order), 1.0 / sys.length
    want = np.count_nonzero(np.linalg.eigvalsh(sys.matrix.toarray() - 1.5 * np.eye(len(sys.order))) < 0.0)
    assert 0 < want < len(sys.order)
    for dense_max in (n, -1):  # the n x n array for LAPACK, CSC data for SuperLU
        storage = Storage.build(n, *laplacian_terms(n, sys.tail, sys.head), dense_max)
        data = storage.fill(np.concatenate((mu, mu, -mu, -mu)))
        data[storage.diagonal] -= 1.5  # indefinite, still diagonally pivotable
        negatives, log_det = SymmetricFactor(storage, data).inertia()
        assert negatives == want
        assert log_det == pytest.approx(np.linalg.slogdet(storage.matrix(data).toarray())[1], rel=1e-12)


@pytest.mark.parametrize("dense", [True, False])
@pytest.mark.parametrize("m", [[[1.0, 1.0], [1.0, 1.0]], [[0.0]], np.zeros((3, 3))])
def test_exactly_singular_matrix_in_both_kernels(m, dense):
    with pytest.raises(SingularSystem, match="exactly singular"):
        _factor(np.array(m), dense)


def test_kernel_selection_rule(monkeypatch):
    # the solve kernel is chosen by size, the count kernel (dense) by size and length ratio
    made, real = [], torsion.SymmetricFactor
    monkeypatch.setattr(torsion, "SymmetricFactor", lambda *args: made.append(args[0].indices is None) or real(*args))
    for lengths, solve, count in [([1.0, 1e6], True, True), ([1.0, 2e6], True, False),
                                  ([1.0] * 161, True, True), ([1.0] * 162, False, False)]:  # 160 and 161 unknowns
        g = path_dd(lengths)
        assert (_Secular(assemble_discrete_system(g), 0.0, math.inf).storage.indices is None) is count
        made.clear()
        solve_discrete_torsion(g)
        assert made == [solve]


def test_dense_and_csc_storage_of_one_term_list_agree():
    # a non-symmetric list of terms, with repeated entries and terms dropped at
    # row or column n: each storage gives the matrix the COO assembly gives
    rng = np.random.default_rng(15)
    n = 6
    rows, cols = rng.integers(0, n + 1, size=(2, 60))
    terms = rng.standard_normal(60)
    keep = (rows < n) & (cols < n)
    want = scipy.sparse.coo_array((terms[keep], (rows[keep], cols[keep])), shape=(n, n)).toarray()
    assert not np.array_equal(want, want.T)
    for dense_max in (n, -1):
        storage = Storage.build(n, rows, cols, dense_max)
        assert (storage.indices is None) is (dense_max == n)
        assert np.array_equal(storage.matrix(storage.fill(terms)).toarray(), want)


# -- variational characterization -----------------------------------------


def test_polya_quotient_maximized_by_torsion():
    g = lasso(1.0, 1.0)
    sol = torsion_function(g)
    coeffs = {e: (-0.5, b, c) for e, _, b, c in edge_quadratics(sol)}
    q = polya_quotient(g, coeffs)
    assert q == pytest.approx(sol.rigidity, rel=REL)


@pytest.mark.parametrize("length_range", [(1e-4, 1e4), (1e-7, 1e7)])
def test_polya_quotient_accepts_the_torsion_function_at_wide_length_ranges(length_range):
    # an end value a l^2 + b l + c that cancels terms far above sup v misses 0 by their
    # rounding (3.8e-9 on seed 37 at (1e-4, 1e4)), so continuity is judged on their scale
    for seed in range(60):
        g = random_graph(seed, length_range=length_range)
        sol = torsion_function(g)
        q = polya_quotient(g, {e: (-0.5, b, c) for e, _, b, c in edge_quadratics(sol)})
        assert q == pytest.approx(sol.rigidity, rel=1e-12, abs=0), seed


def test_polya_quotient_other_functions_smaller():
    g = star(3, [1.0, 0.7, 1.5])
    t = T(g)
    # vanishes at every vertex and solves -u'' = 1 edgewise
    base = {e.id: (-0.5, 0.5 * e.length, 0.0) for e in g.edges}
    q = polya_quotient(g, base)
    assert q < t
    # small admissible perturbations stay below the maximum
    sol = torsion_function(g)
    for bump in (0.9, 1.1):
        coeffs = {e: (-0.5 * bump, b * bump, c * bump) for e, _, b, c in edge_quadratics(sol)}
        assert polya_quotient(g, coeffs) <= t + 1e-9 * t


def test_polya_quotient_rejects_discontinuous():
    g = path_dn([1.0, 1.0])
    coeffs = {"e1": (0.0, 0.0, 1.0), "e2": (0.0, 0.0, 5.0)}
    with pytest.raises(ValidationError):
        polya_quotient(g, coeffs)


def test_polya_quotient_rejects_nonvanishing_dirichlet():
    g = path_dn([1.0])
    coeffs = {"e1": (0.0, 0.0, 2.0)}
    with pytest.raises(ValidationError):
        polya_quotient(g, coeffs)


def test_polya_quotient_zero_function():
    g = path_dn([1.0])
    coeffs = {"e1": (0.0, 0.0, 0.0)}
    with pytest.raises(ZeroEnergy):
        polya_quotient(g, coeffs)


@pytest.mark.parametrize("which, value", [(0, math.nan), (1, math.inf), (2, math.nan)], ids=["a", "b", "c"])
def test_polya_quotient_rejects_non_finite_coefficients(which, value):
    # nan or inf in one edge's a, b or c made the quotient nan, with no error
    g = star(3, [1.0, 0.7, 1.5])
    coeffs = {e: [-0.5, b, c] for e, _, b, c in edge_quadratics(torsion_function(g))}
    coeffs["e2"][which] = value
    with pytest.raises(ValidationError, match="'e2'"):
        polya_quotient(g, coeffs)


@pytest.mark.parametrize("bad", [(1.0, 2.0), "abc", ("x", 0.0, 0.0), 1.0])
def test_polya_quotient_rejects_coefficients_not_three_numbers(bad):
    # a pair or a string raised numpy's untyped ValueError
    g = star(3, [1.0, 0.7, 1.5])
    coeffs = {e: (-0.5, b, c) for e, _, b, c in edge_quadratics(torsion_function(g))}
    coeffs["e2"] = coeffs["e3"] = bad
    with pytest.raises(ValidationError, match=r"^test function needs three numbers \(a, b, c\) on edge 'e2'"):
        polya_quotient(g, coeffs)
    with pytest.raises(ValidationError, match="'e1'"):  # one number per edge of three edges was read as a, b, c
        polya_quotient(g, dict.fromkeys(g.edge_ids, 1.0))


def test_polya_quotient_rejects_missing_edge():
    g = path_dn([1.0, 1.0])
    with pytest.raises(BadParameters, match="'e2'"):
        polya_quotient(g, {"e1": (-0.5, 1.0, 0.0)})


# -- plumbing -------------------------------------------------------------


def test_require_close_raises_on_gap():
    with pytest.raises(CrossCheckMismatch):
        _require_close("a", 1.0, "b", 1.0 + 1e-6)


# solution_to_payload(torsion_function(g)) of the family examples, the
# equality witnesses and random_graph(seed, (1e-4, 1e4)) for seeds 0..9: a
# change to any id, key or value of a torsion solution shows here
PINNED = json.loads((Path(__file__).parent / "data" / "torsion_payloads.json").read_text())


def _pinned_graph(group: str, name: str):
    if group == "families":
        return dict(family_examples())[name]
    if group == "witnesses":
        return {n: g for n, g, _ in equality_witnesses()}[name]
    return random_graph(int(name), length_range=(1e-4, 1e4))


def assert_payload_matches(got: dict, want: dict) -> None:
    """Ids and keys exactly, floats to 1e-12 relative; b also to 1e-12 of the
    edge length, since it cancels l/2 against (v_h - v_t)/l, and the Kirchhoff
    residual, a rounding-level sum, to 1e-12 of max(1, sup v)."""
    assert got.keys() == want.keys()
    assert list(got["vertex_values"]) == list(want["vertex_values"])
    assert list(got["vertex_values"].values()) == pytest.approx(list(want["vertex_values"].values()),
                                                                rel=1e-12)
    assert [list(e.items())[:3] for e in got["edges"]] == [list(e.items())[:3] for e in want["edges"]]
    for g, w in zip(got["edges"], want["edges"]):
        assert g.keys() == w.keys()
        assert g["length"] == pytest.approx(w["length"], rel=1e-12), w["id"]
        assert g["b"] == pytest.approx(w["b"], rel=1e-12, abs=1e-12 * w["length"]), w["id"]
        assert g["c"] == pytest.approx(w["c"], rel=1e-12), w["id"]
    assert got["rigidity"] == pytest.approx(want["rigidity"], rel=1e-12)
    assert got["sup"].keys() == want["sup"].keys() and got["sup"]["edge"] == want["sup"]["edge"]
    assert [got["sup"]["value"], got["sup"]["offset"]] == pytest.approx(
        [want["sup"]["value"], want["sup"]["offset"]], rel=1e-12)
    assert got["kirchhoff_residual"] == pytest.approx(
        want["kirchhoff_residual"], rel=1e-12, abs=1e-12 * max(1.0, want["sup"]["value"]))


@pytest.mark.parametrize("group, name", [(group, name) for group in PINNED for name in PINNED[group]])
def test_torsion_matches_pinned_payload(group, name):
    assert_payload_matches(solution_to_payload(torsion_function(_pinned_graph(group, name))),
                           PINNED[group][name])


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_rigidity_positive_and_bounded(seed):
    g = random_graph(seed)
    t = T(g)
    total = g.total_length()
    assert 0.0 < t < total ** 3 / 3.0 + 1e-12 * total ** 3


def test_path_of_100000_edges_builds_no_graph_objects(monkeypatch):
    # correctness at size, not time: the DD interval of length 1 cut into 10^5 edges
    g0 = path_dd([1e-5] * 10**5)
    calls = Counter()
    for cls in (Vertex, Edge):
        def counting(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            calls[_name] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counting)

    g = loads(g0.dumps(indent=None))
    sol = torsion_function(g)
    t = rigidity(sol)
    grad = gradient(g, sol)
    inr = g.inradius()
    payload = solution_to_payload(sol)
    assert calls == Counter()

    assert abs(t - 1.0 / 12.0) <= 1e-12
    assert inr.value == pytest.approx(0.5, rel=1e-12)
    assert max(abs(d - 0.25) for d in grad.values()) <= 1e-9
    # T is homogeneous of degree 3 in the lengths
    assert math.fsum(1e-5 * d for d in grad.values()) == pytest.approx(3.0 * t, rel=1e-9)
    assert len(payload["edges"]) == 10**5 and payload["rigidity"] == t
