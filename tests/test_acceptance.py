"""Acceptance gate: nine numbered criteria, one pass/fail line each.

Each test prints "PASS criterion N: ..." when its assertions hold and
"FAIL criterion N: ..." before re-raising when they do not, so the run log
carries one line per criterion alongside the pytest verdicts.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from _oracles import (
    lasso_rigidity,
    random_surgery_op,
    stower_rigidity,
    stower_rigidity_equilateral,
)
from graphtorsion import (
    AddEdge,
    Direction,
    apply,
    audit,
    dirichlet_energy,
    equality_witnesses,
    grad_check,
    integrated_heat_content,
    landscape_check,
    lowest_eigenpairs,
    predicted_direction,
    torsion_function,
)
from graphtorsion.bounds import EQUALITY, EXACT_VIOLATION_TOL
from graphtorsion.families import (
    family_examples,
    flower,
    lasso,
    path_dd,
    path_dn,
    random_graph,
    star,
    stower,
)


@contextmanager
def criterion(n, description):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {n}: {description}")
        raise
    print(f"PASS criterion {n}: {description}")


def rel_err(got, want):
    return abs(got - want) / abs(want)


def test_criterion_1_closed_form_rigidity():
    with criterion(1, "closed-form rigidity exact to 1e-10 relative in under 1 s"):
        t0 = time.perf_counter()
        for a in (0.3, 1.0, 2.7):
            assert rel_err(torsion_function(path_dn([a])).rigidity, a**3 / 3.0) <= 1e-10
            assert rel_err(torsion_function(path_dd([a])).rigidity, a**3 / 12.0) <= 1e-10
        for k in (2, 3, 5):
            for L in (1.0, 3.1):
                g = star(k, [L / k] * k)
                assert rel_err(torsion_function(g).rigidity, L**3 / (3.0 * k * k)) <= 1e-10
        rng = np.random.default_rng(11)
        for _ in range(20):
            l1, l2 = rng.uniform(0.2, 2.0, 2)
            got = torsion_function(lasso(l1, l2)).rigidity
            assert rel_err(got, lasso_rigidity(l1, l2)) <= 1e-10
        for _ in range(20):
            leaves = int(rng.integers(1, 5))
            petals = int(rng.integers(0, 4))
            leaf_lengths = list(rng.uniform(0.2, 2.0, leaves))
            petal_lengths = list(rng.uniform(0.2, 2.0, petals))
            g = stower(leaves, petals, leaf_lengths + petal_lengths)
            got = torsion_function(g).rigidity
            assert rel_err(got, stower_rigidity(leaf_lengths, petal_lengths)) <= 1e-10
            L = float(rng.uniform(0.5, 4.0))
            eq = stower(leaves, petals, [L / (leaves + petals)] * (leaves + petals))
            want = stower_rigidity_equilateral(leaves, petals, L)
            assert rel_err(torsion_function(eq).rigidity, want) <= 1e-10
        assert time.perf_counter() - t0 < 1.0


def test_criterion_2_rigidity_identity_battery():
    with criterion(2, "formula = integral = energy to 1e-10 on 500 random graphs in under 30 s"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(2)
        for _ in range(500):
            g = random_graph(rng)
            assert len(g.vertices) <= 12 and len(g.edges) <= 20
            sol = torsion_function(g)
            T = sol.rigidity
            assert rel_err(dirichlet_energy(sol), T) <= 1e-10
            cubes = math.fsum(e.length**3 for e in g.edges) / 12.0
            formula = cubes + sol.system.weight @ sol.values[~g.arrays.dirichlet] / 2.0
            assert rel_err(formula, T) <= 1e-10
        assert time.perf_counter() - t0 < 30.0


def test_criterion_3_surgery_battery():
    with criterion(3, "500 surgery pairs follow predicted direction, Scale exact to 1e-9"):
        rng = np.random.default_rng(3)
        certified = 0
        scaled = 0
        for _ in range(500):
            g = random_graph(rng)
            sol = torsion_function(g)
            op = random_surgery_op(rng, g)
            pred = predicted_direction(op, g, sol)
            before = sol.rigidity
            after = torsion_function(apply(g, op)).rigidity
            tol = 1e-9 * max(before, after)
            if pred is None:
                assert isinstance(op, AddEdge)
                continue
            certified += 1
            if pred.direction is Direction.NON_INCREASING:
                assert after <= before + tol
            elif pred.direction is Direction.NON_DECREASING:
                assert after >= before - tol
            elif pred.direction is Direction.STRICT_INCREASE:
                assert after > before + tol
            elif pred.direction is Direction.STRICT_DECREASE:
                assert after < before - tol
            elif pred.direction is Direction.EXACT_SCALE:
                scaled += 1
                want = pred.factor * before
                assert abs(after - want) <= 1e-9 * want
            else:
                raise AssertionError(pred.direction)
        assert certified >= 300 and scaled >= 20


def test_criterion_4_spectral_convergence():
    with criterion(4, "lambda_1 halving ratios in [3.5, 4.5]; star lambda_1 within 1e-3 at h=1/64"):
        cases = [
            (path_dn([1.0]), (math.pi / 2.0) ** 2),
            (path_dd([1.0]), math.pi**2),
        ]
        for g, exact in cases:
            errs = []
            for h in (1 / 16, 1 / 32, 1 / 64):
                lam = lowest_eigenpairs(g, k=1, h_target=h).eigenvalues[0]
                errs.append(abs(lam - exact))
            for coarse, fine in zip(errs, errs[1:]):
                assert 3.5 <= coarse / fine <= 4.5
        lam = lowest_eigenpairs(star(3, [1.0] * 3), k=1, h_target=1 / 64).eigenvalues[0]
        assert rel_err(lam, (math.pi / 2.0) ** 2) <= 1e-3


def test_criterion_5_star_product_law():
    with criterion(5, "lambda_1 * T = pi^2 L / 12 for equilateral stars in under 20 s"):
        t0 = time.perf_counter()
        h = 1 / 64
        for k in (1, 2, 3, 5):
            g = star(k, [1.0] * k)
            res = lowest_eigenpairs(g, k=1, h_target=h)
            product = res.eigenvalues[0] * torsion_function(g).rigidity
            want = math.pi**2 * g.total_length() / 12.0
            assert rel_err(product, want) <= 2.0 * 10.0 * res.h_eff**2
        assert time.perf_counter() - t0 < 20.0


def test_criterion_6_bounds_audit():
    with criterion(6, "no proven violations on 500 graphs; witnesses hit equality"):
        rng = np.random.default_rng(6)
        for _ in range(500):
            g = random_graph(rng)
            h = min(e.length for e in g.edges) / 4.0
            report = audit(g, h_target=h)
            assert report.violated() == [], report.table()
            assert report.errored() == []
        for name, g, expected in equality_witnesses():
            h = min(e.length for e in g.edges) / 16.0
            report = audit(g, h_target=h)
            assert report.violated() == [], name
            for rec_name in expected:
                r = report.record(rec_name)
                assert r.status == EQUALITY, (name, rec_name, r)
                scale = max(abs(r.lhs), abs(r.rhs), 1.0)
                if r.tolerance == EXACT_VIOLATION_TOL:
                    assert abs(r.slack) <= 1e-6 * scale, (name, rec_name)
                else:
                    assert abs(r.slack) <= 10.0 * report.h_eff**2 * scale, (name, rec_name)


def test_criterion_7_hadamard_derivative():
    with criterion(7, "FD ratio in [3.5, 4.5] on every family edge; point-independent to 1e-10"):
        rng = np.random.default_rng(7)
        for _, g in family_examples():
            for row in grad_check(g):  # steps of 1e-3 of each edge length
                assert 3.5 <= row["halving_ratio"] <= 4.5, row
            sol = torsion_function(g)
            for e, b, c in zip(g.edges, sol.b.tolist(), sol.c.tolist()):
                # v'(x)^2 + 2 v(x) for v(x) = -x^2/2 + b x + c
                vals = [(b - x) ** 2 + 2.0 * (-0.5 * x * x + b * x + c) for x in rng.uniform(0.0, e.length, 5)]
                spread = max(vals) - min(vals)
                assert spread <= 1e-10 * max(1.0, abs(vals[0]))


def test_criterion_8_integrated_heat_content():
    with criterion(8, "9 interval modes reach 99.9% of 1/12; partial sums stay below rigidity"):
        hc = integrated_heat_content(path_dd([1.0]), modes=9, h_target=1 / 128)
        assert hc.partial_sums[-1] >= 0.999 / 12.0
        rng = np.random.default_rng(8)
        for _ in range(20):
            g = random_graph(rng)
            h = min(e.length for e in g.edges) / 8.0
            hc = integrated_heat_content(g, modes=6, h_target=h)
            sums = hc.partial_sums
            assert all(b >= a - 1e-12 for a, b in zip(sums, sums[1:]))
            assert sums[-1] <= hc.rigidity * (1.0 + 10.0 * hc.h_eff**2)


def test_criterion_9_landscape_suite():
    with criterion(9, "eigenfunction/torsion ratio at most 1 + 5h on all family graphs"):
        h = 1 / 64
        for name, g in family_examples():
            ratios, h_eff = landscape_check(g, modes=3, h_target=h)
            assert len(ratios) == 3
            for r in ratios:
                assert r.max_ratio <= 1.0 + 5.0 * h, (name, r)
