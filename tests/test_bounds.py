"""Inequality audit: classification, applicability, equality witnesses."""

import json
import math
import re
from pathlib import Path

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
from graphtorsion import spectral
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
    # the cases below sit on either side of these bands
    assert (EXACT_VIOLATION_TOL, EXACT_EQUALITY_TOL) == (1e-8, 1e-6)
    slack, status = _classify(1.0, 2.0)
    assert status == HOLDS and slack == 1.0
    _, status = _classify(2.0, 2.0 + 1e-7)
    assert status == EQUALITY
    _, status = _classify(2.0 + 1e-9, 2.0)
    assert status == EQUALITY
    # violation check runs first: a deficit past its band never reads as a tie
    _, status = _classify(2.0 + 1e-7, 2.0)
    assert status == VIOLATED
    _, status = _classify(2.0 + 1e-5, 2.0)
    assert status == VIOLATED
    # scale-relative: huge numbers with tiny relative slack still tie
    _, status = _classify(1e12, 1e12 * (1 + 1e-8))
    assert status == EQUALITY


def test_star_cheeger_closed_form():
    def cheeger(g):
        return _star_closed_form_cheeger(g, g.is_equilateral())

    assert cheeger(star(3, [1.0, 1.0, 1.0])) == pytest.approx(1.0)
    assert cheeger(star(3, [1.0, 1.0, 2.0])) is None
    assert cheeger(flower(2)) is None
    assert cheeger(lasso()) is None


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


@pytest.mark.parametrize("kwargs", [
    {"h_target": 0.0}, {"h_target": math.inf}, {"h_target": math.nan},
    {"tol": math.nan}, {"tol": -1e-10},
])
def test_audit_rejects_bad_controls_before_solving(kwargs, monkeypatch):
    def no_solve(g):
        raise AssertionError("audit solved before checking its arguments")

    monkeypatch.setattr(bounds_mod, "torsion_function", no_solve)
    with pytest.raises(BadParameters):
        audit(lasso(), **kwargs)


def test_audit_solve_failure_is_error_record(monkeypatch):
    # one iteration cannot show the Ritz values settling: NoConvergence, not a usage error
    monkeypatch.setattr(spectral, "MAX_COUNTS", 1)
    report = audit(lasso(), h_target=1 / 16)
    assert report.lambda1 is None
    assert report.record("polya_product").status == ERROR
    assert "not settled" in report.record("polya_product").note


@pytest.mark.parametrize("seed", [132, 161])
def test_audit_unreadable_pivots_are_error_records(seed):
    # lambda_1 raises NoConvergence: SuperLU pivoted off the diagonal of A(k)
    report = audit(random_graph(seed, length_range=(1e-7, 1e7)))
    assert report.lambda1 is None
    assert [r.name for r in report.errored()] == ["polya_product", "landscape_inf", "kohler_jobin",
                                                  "heat_sandwich"]
    assert all("inertia cannot be read" in r.note for r in report.errored())


def test_applicability_gating():
    # uneven lasso: not a tree, bridged, not a star, not equilateral
    report = audit(lasso(1.0, 2.0), h_target=1 / 16)
    assert report.record("tree_one_dirichlet").status == NOT_APPLICABLE
    assert report.record("saint_venant_doubly").status == NOT_APPLICABLE
    assert report.record("kohler_jobin_doubly").status == NOT_APPLICABLE
    assert report.record("cheeger_product").status == NOT_APPLICABLE
    assert report.record("equilateral_chain").status == NOT_APPLICABLE

    # the unit lasso is itself a pumpkin chain, so the chain bound is tight
    assert audit(lasso()).record("equilateral_chain").status == EQUALITY

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
    report = audit(flower(2, [1.0, 2.0]))
    assert report.record("flower_lower").status == HOLDS


def test_unproven_probe_never_counts_as_violation():
    report = audit(lasso())
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


# -- pinned output --------------------------------------------------------

# audit(g).to_payload() of the family examples and the equality witnesses,
# and of the lasso with a budget of one count: a change to any record's
# order, label, relation, status, note or value shows here
PINNED = json.loads((Path(__file__).parent / "data" / "audit_payloads.json").read_text())
NUMBER = re.compile(r"(-?\d+(?:\.\d+)?(?:e[-+]?\d+)?)")


def assert_matches_pinned(got: dict, want: dict) -> None:
    """Strings, statuses and None exactly; floats to 1e-12 relative, a slack
    relative to its record's larger side, and the numbers in a note as floats."""
    assert got.keys() == want.keys()
    assert [r["name"] for r in got["records"]] == [r["name"] for r in want["records"]]
    pairs = [(got, want, "report")] + [(g, w, w["name"]) for g, w in zip(got["records"], want["records"])]
    for g, w, where in pairs:
        assert g.keys() == w.keys(), where
        for key, value in w.items():
            if key == "records":
                continue
            if isinstance(value, float):
                scale = max(abs(w["lhs"]), abs(w["rhs"])) if key == "slack" else 0.0
                assert g[key] == pytest.approx(value, rel=1e-12, abs=1e-12 * scale), (where, key)
            elif key == "note":
                have, pinned = NUMBER.split(g[key]), NUMBER.split(value)
                assert have[::2] == pinned[::2], where
                assert [float(x) for x in have[1::2]] == pytest.approx([float(x) for x in pinned[1::2]],
                                                                       rel=1e-12), where
            else:
                assert g[key] == value, (where, key)


@pytest.mark.parametrize("group, name", [(group, name) for group in ("families", "witnesses")
                                         for name in PINNED[group]])
def test_audit_matches_pinned_payload(group, name):
    graphs = dict(family_examples()) if group == "families" else {n: g for n, g, _ in equality_witnesses()}
    assert_matches_pinned(audit(graphs[name]).to_payload(), PINNED[group][name])


def test_audit_error_records_match_pinned_payload(monkeypatch):
    monkeypatch.setattr(spectral, "MAX_COUNTS", 1)
    assert_matches_pinned(audit(lasso()).to_payload(), PINNED["error"]["lasso"])
