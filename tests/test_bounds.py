"""Inequality audit: classification, applicability, equality witnesses."""

import json
import math

import numpy as np
import pytest

import graphtorsion.bounds as bounds_mod
from graphtorsion import BadParameters, Scale, apply, audit, equality_witnesses
from graphtorsion.bounds import (
    EQUALITY,
    ERROR,
    EXACT_EQUALITY_TOL,
    EXACT_VIOLATION_TOL,
    HOLDS,
    NOT_APPLICABLE,
    VIOLATED,
    BoundRecord,
    BoundsReport,
    _classify,
    _star_closed_form_cheeger,
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

ALL_RECORDS = [
    "saint_venant",
    "saint_venant_doubly",
    "edge_cubes_lower",
    "flower_lower",
    "stower_lower",
    "inradius_vertex_lower",
    "tree_one_dirichlet",
    "tree_two_dirichlet",
    "polya_product",
    "landscape_inf",
    "kohler_jobin",
    "kohler_jobin_doubly",
    "heat_sandwich",
    "cheeger_product",
    "equilateral_chain",
    "makai_probe",
]


# -- classification -------------------------------------------------------


def test_classify_boundaries():
    slack, status = _classify(1.0, 2.0, 1e-8, 1e-6)
    assert status == HOLDS and slack == 1.0
    _, status = _classify(2.0, 2.0 + 1e-7, 1e-8, 1e-6)
    assert status == EQUALITY
    _, status = _classify(2.0 + 1e-9, 2.0, 1e-8, 1e-6)
    assert status == EQUALITY
    # violation check runs first: a deficit past its band never reads as a tie
    _, status = _classify(2.0 + 1e-7, 2.0, 1e-8, 1e-6)
    assert status == VIOLATED
    _, status = _classify(2.0 + 1e-5, 2.0, 1e-8, 1e-6)
    assert status == VIOLATED
    # scale-relative: huge numbers with tiny relative slack still tie
    _, status = _classify(1e12, 1e12 * (1 + 1e-8), 1e-8, 1e-6)
    assert status == EQUALITY


def test_star_cheeger_closed_form():
    assert _star_closed_form_cheeger(star(3, [1.0, 1.0, 1.0])) == pytest.approx(1.0)
    assert _star_closed_form_cheeger(star(3, [1.0, 1.0, 2.0])) is None
    assert _star_closed_form_cheeger(flower(2)) is None
    assert _star_closed_form_cheeger(lasso()) is None


# -- full audit on one graph ----------------------------------------------


def test_audit_covers_every_record():
    report = audit(star(3, [1.0, 1.0, 1.0]), h_target=1 / 16)
    assert [r.name for r in report.records] == ALL_RECORDS
    assert report.violated() == []
    assert report.errored() == []
    assert report.lambda1 is not None and report.h_eff is None
    assert report.lambda1 == pytest.approx((math.pi / 2.0) ** 2, rel=1e-12)


LAMBDA_RECORDS = ["polya_product", "landscape_inf", "kohler_jobin", "kohler_jobin_doubly",
                  "heat_sandwich"]


def test_lambda_records_do_not_depend_on_units():
    # lambda_1 is exact, so its records are judged at the unitless exact tolerances
    base = audit(star(3))
    for f in (1.0, 10.0, 100.0):
        report = audit(apply(star(3), Scale(f)))
        assert report.lambda1 * f * f == pytest.approx(base.lambda1, rel=1e-12), f
        for name in LAMBDA_RECORDS:
            r = report.record(name)
            assert r.status == base.record(name).status, (f, name)
            assert r.tolerance == EXACT_VIOLATION_TOL, (f, name)


def test_audit_without_spectrum():
    report = audit(lasso(), spectral=False)
    assert report.lambda1 is None and report.h_eff is None
    for name in ("polya_product", "landscape_inf", "kohler_jobin", "heat_sandwich"):
        r = report.record(name)
        assert r.status == NOT_APPLICABLE
        assert "disabled" in r.note
    assert report.record("saint_venant").status == HOLDS
    assert report.violated() == []


@pytest.mark.parametrize("kwargs", [
    {"h_target": 0.0}, {"h_target": math.inf}, {"h_target": math.nan},
    {"tol": math.nan}, {"tol": -1e-10}, {"max_iter": 0},
])
def test_audit_rejects_bad_controls_before_solving(kwargs, monkeypatch):
    def no_solve(g):
        raise AssertionError("audit solved before checking its arguments")

    monkeypatch.setattr(bounds_mod, "torsion_function", no_solve)
    with pytest.raises(BadParameters):
        audit(lasso(), **kwargs)


def test_audit_solve_failure_is_error_record():
    # one iteration cannot show the Ritz values settling: NoConvergence, not a usage error
    report = audit(lasso(), h_target=1 / 16, max_iter=1)
    assert report.lambda1 is None
    assert report.record("polya_product").status == ERROR
    assert "not settled" in report.record("polya_product").note


def test_applicability_gating():
    # uneven lasso: not a tree, bridged, not a star, not equilateral
    report = audit(lasso(1.0, 2.0), h_target=1 / 16)
    assert report.record("tree_one_dirichlet").status == NOT_APPLICABLE
    assert report.record("saint_venant_doubly").status == NOT_APPLICABLE
    assert report.record("kohler_jobin_doubly").status == NOT_APPLICABLE
    assert report.record("cheeger_product").status == NOT_APPLICABLE
    assert report.record("equilateral_chain").status == NOT_APPLICABLE

    # the unit lasso is itself a pumpkin chain, so the chain bound is tight
    assert audit(lasso(), spectral=False).record("equilateral_chain").status == EQUALITY

    tree = audit(path_dd([1.0, 1.0]), h_target=1 / 16)
    assert tree.record("tree_two_dirichlet").status in (HOLDS, EQUALITY)
    assert tree.record("tree_one_dirichlet").status == NOT_APPLICABLE

    one = audit(path_dn([1.0]), h_target=1 / 16)
    assert one.record("tree_one_dirichlet").status == EQUALITY


def test_strict_relations_keep_positive_slack():
    report = audit(lasso(), h_target=1 / 32)
    for name in ("saint_venant", "polya_product", "cheeger_product"):
        r = report.record(name)
        if r.status == NOT_APPLICABLE:
            continue
        assert r.slack > 0, name


def test_flower_lower_strict_when_uneven():
    report = audit(flower(2, [1.0, 2.0]), spectral=False)
    assert report.record("flower_lower").status == HOLDS


def test_unproven_probe_never_counts_as_violation():
    report = audit(lasso(), spectral=False)
    probe = report.record("makai_probe")
    assert probe.proven is False
    fake = BoundRecord(
        "makai_probe", "", "<", 2.0, 1.0, -1.0, VIOLATED, "always", 1e-8, False, ""
    )
    synthetic = BoundsReport((fake,), 1.0, 1, 1.0, 1.0, None, None)
    assert synthetic.violated() == []
    assert "(probe)" in synthetic.table()


# -- equality witnesses ---------------------------------------------------


def test_equality_witnesses():
    for name, g, expected in equality_witnesses():
        report = audit(g, h_target=min(e.length for e in g.edges) / 16.0)
        assert report.violated() == [], name
        for rec_name in expected:
            r = report.record(rec_name)
            assert r.status == EQUALITY, (name, rec_name, r)
            scale = max(abs(r.lhs), abs(r.rhs), 1.0)
            limit = EXACT_EQUALITY_TOL if r.tolerance == EXACT_VIOLATION_TOL else r.tolerance
            assert abs(r.slack) <= limit * scale, (name, rec_name, r.slack)


def test_witness_list_shape():
    names = [name for name, _, _ in equality_witnesses()]
    assert len(names) == len(set(names))
    assert "interval_DN" in names and "interval_DD" in names


# -- random battery -------------------------------------------------------


def test_battery_no_proven_violations():
    rng = np.random.default_rng(2024)
    for _ in range(120):
        g = random_graph(rng)
        h = min(e.length for e in g.edges) / 4.0
        report = audit(g, h_target=h)
        assert report.violated() == [], report.table()
        assert report.errored() == []


# -- report plumbing ------------------------------------------------------


def test_record_lookup_and_payload():
    report = audit(caterpillar(2), h_target=1 / 8)
    with pytest.raises(KeyError):
        report.record("no_such_record")
    payload = json.loads(report.dumps())
    assert payload["rigidity"] == pytest.approx(report.rigidity, rel=1e-15)
    assert [r["name"] for r in payload["records"]] == ALL_RECORDS
    text = report.table()
    for name in ALL_RECORDS:
        assert name in text
    assert "L=" in text and "lambda1=" in text
