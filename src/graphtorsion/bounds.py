"""Audit of rigidity and ground-state inequalities on a concrete graph.

Every inequality the library knows is evaluated as a record with explicit
left/right values, slack and a status.  lambda_1 comes from the secular
matrix over the natural vertices (spectral.secular_lambda1), started from the
torsion solution and certified by inertia to 2e-9 relative, or bracketed by
the pivot count to 2e-13 where the iteration settled above it (at the length
ratios where secular_lambda1 says its pivot signs hold), so every record,
with or without lambda_1, is judged at the same unitless tolerances: violated
below -1e-8 relative, equality within 1e-6.  No mesh is built: h_target is
validated and otherwise unused, and the report's h_eff is None.  Strict
inequalities are audited as non-strict with the slack reported, so a
borderline case shows up as equality rather than a false violation.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import GraphToolError
from .graph import MetricGraph
from .spectral import check_controls, secular_lambda1
from .torsion import rigidity, torsion_function

EXACT_VIOLATION_TOL = 1e-8
EXACT_EQUALITY_TOL = 1e-6

HOLDS = "holds"
EQUALITY = "equality"
VIOLATED = "violated"
NOT_APPLICABLE = "not_applicable"
ERROR = "error"

ALWAYS = "always"
TREE_ONLY = "tree_only"
DOUBLY_CONNECTED_ONLY = "doubly_connected_only"
ONE_DIRICHLET_ONLY = "one_dirichlet_only"
TWO_DIRICHLET_ONLY = "two_dirichlet_only"
EQUILATERAL_ONLY = "equilateral_only"
CLOSED_FORM_CHEEGER_ONLY = "closed_form_cheeger_only"


@dataclass(frozen=True)
class BoundRecord:
    name: str
    label: str
    relation: str
    lhs: float | None
    rhs: float | None
    slack: float | None
    status: str
    applicability: str
    tolerance: float | None
    proven: bool = True
    note: str = ""

    def to_payload(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class BoundsReport:
    records: tuple[BoundRecord, ...]
    total_length: float
    n_edges: int
    rigidity: float
    inradius: float
    lambda1: float | None
    h_eff: float | None

    def record(self, name: str) -> BoundRecord:
        for r in self.records:
            if r.name == name:
                return r
        raise KeyError(name)

    def violated(self) -> list[BoundRecord]:
        return [r for r in self.records if r.proven and r.status == VIOLATED]

    def errored(self) -> list[BoundRecord]:
        return [r for r in self.records if r.status == ERROR]

    def to_payload(self) -> dict:
        return {
            "total_length": self.total_length,
            "n_edges": self.n_edges,
            "rigidity": self.rigidity,
            "inradius": self.inradius,
            "lambda1": self.lambda1,
            "h_eff": self.h_eff,
            "records": [r.to_payload() for r in self.records],
        }

    def dumps(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_payload(), indent=indent)

    def table(self) -> str:
        def num(x):
            return "-" if x is None else f"{x:.9g}"

        head = f"{'record':<26} {'rel':<8} {'lhs':>14} {'rhs':>14} {'slack':>12} status"
        lines = [head, "-" * len(head)]
        for r in self.records:
            lines.append(
                f"{r.name:<26} {r.relation:<8} {num(r.lhs):>14} {num(r.rhs):>14} "
                f"{num(r.slack):>12} {r.status}{'' if r.proven else ' (probe)'}"
            )
        lines.append(
            f"L={self.total_length:.9g}  |E|={self.n_edges}  T={self.rigidity:.9g}  "
            f"Inr={self.inradius:.9g}  lambda1={num(self.lambda1)}  h_eff={num(self.h_eff)}"
        )
        return "\n".join(lines)


def _status(slack: float, scale: float) -> str:
    if slack < -EXACT_VIOLATION_TOL * scale:
        return VIOLATED
    if abs(slack) <= EXACT_EQUALITY_TOL * scale:
        return EQUALITY
    return HOLDS


def _classify(lhs: float, rhs: float) -> tuple[float, str]:
    """Slack and status for the relation lhs <= rhs."""
    slack = rhs - lhs
    return slack, _status(slack, max(abs(lhs), abs(rhs), 1e-300))


def _star_closed_form_cheeger(g: MetricGraph, equilateral: bool) -> float | None:
    """Closed-form Cheeger constant k/L of an equilateral star with natural
    center and Dirichlet leaves, told whether g is equilateral; else None."""
    arr = g.arrays
    if not equilateral or (arr.tail == arr.head).any():
        return None
    n_edges, n_vertices = len(g.edge_ids), len(g.vertex_ids)
    if n_vertices != n_edges + 1:
        return None
    degree = np.bincount(arr.tail, minlength=n_vertices) + np.bincount(arr.head, minlength=n_vertices)
    # without loops, a vertex of degree |E| lies on every edge; the first such
    # center whose other vertices are all leaves decides
    for c in np.flatnonzero(degree == n_edges).tolist():
        if (np.delete(degree, c) != 1).any():
            continue
        if arr.dirichlet[c] or not np.delete(arr.dirichlet, c).all():
            return None
        return n_edges / g.total_length()
    return None


def audit(g: MetricGraph, h_target: float | None = None, tol: float = 1e-10) -> BoundsReport:
    """Evaluate every applicable inequality record on the graph.

    Bad mesh or tolerance controls raise BadParameters before any solve; a
    failure of the lambda_1 solve itself becomes error records.  tol steers
    the lambda_1 iteration; h_target is only validated.
    """
    check_controls(h_target, tol)
    sol = torsion_function(g)
    T = rigidity(sol)
    L = g.total_length()
    arr = g.arrays
    E = len(g.edge_ids)
    sum_cubes = math.fsum(x ** 3 for x in arr.length.tolist())
    inr = g.inradius().value
    doubly = g.is_doubly_connected_after_glue()
    tree = g.is_tree()
    dirichlet = g.dirichlet_vertices
    n_free_vertices = len(g.vertex_ids) - len(dirichlet)
    equilateral = g.is_equilateral()
    sup = sol.sup.value

    try:
        lam, lam_error = secular_lambda1(g, sol, tol), ""
    except GraphToolError as exc:
        lam, lam_error = None, str(exc)

    records: list[BoundRecord] = []

    def record(name, label, relation, applicability, pair, why="", proven=True, note="") -> None:
        """pair is (lhs, rhs) of lhs <= rhs, a function of lambda_1 giving them,
        or None where the record does not apply, which why explains."""
        if pair is None:
            rest = None, None, None, NOT_APPLICABLE, applicability, None, True, why
        elif callable(pair) and lam is None:
            rest = None, None, None, ERROR, applicability, None, True, lam_error
        else:
            lhs, rhs = pair(lam) if callable(pair) else pair
            slack, status = _classify(lhs, rhs)
            rest = lhs, rhs, slack, status, applicability, EXACT_VIOLATION_TOL, proven, note
        records.append(BoundRecord(name, label, relation, *rest))

    bridged = "graph has a bridge after gluing the Dirichlet set"

    # upper bounds by total length
    record("saint_venant", "T <= L^3/3, equality only for the Dirichlet-Neumann interval",
           "<=", ALWAYS, (T, L ** 3 / 3.0))
    record("saint_venant_doubly",
           "T <= L^3/12 when Dirichlet-glued and bridgeless, equality for caterpillars",
           "<=", DOUBLY_CONNECTED_ONLY, (T, L ** 3 / 12.0) if doubly else None, bridged)

    # lower bounds
    record("edge_cubes_lower", "sum of length^3 / 12 <= T", "<=", ALWAYS, (sum_cubes / 12.0, T))
    record("flower_lower", "L^3/(12 |E|^2) <= T, equality for equilateral flowers",
           "<=", ALWAYS, (L ** 3 / (12.0 * E * E), T))

    # split by how many endpoints are Dirichlet; a loop counts its vertex twice
    ends_d = arr.dirichlet[arr.tail].astype(int) + arr.dirichlet[arr.head]
    len_dn, len_nn = arr.length[ends_d == 1], arr.length[ends_d == 0]
    n_dn, n_nn = len(len_dn), len(len_nn)
    s_dn, s_nn = math.fsum(len_dn), math.fsum(len_nn)
    if n_dn:
        c_dn = math.fsum(1.0 / len_dn)
        stower_bound = sum_cubes / 12.0 + (s_dn + 2.0 * s_nn) ** 2 / (4.0 * c_dn)
    else:
        # no natural vertex survives gluing, only the cubes term remains
        stower_bound = sum_cubes / 12.0
    record("stower_lower", "stower comparison lower bound, equality for stowers",
           "<=", ALWAYS, (stower_bound, T),
           note=f"{n_dn} edges with one Dirichlet endpoint, {n_nn} with none")

    record("inradius_vertex_lower", "Inr^3 / (3 (|V|-|V_D|+1)^3) <= T",
           "<=", ALWAYS, (inr ** 3 / (3.0 * (n_free_vertices + 1) ** 3), T),
           note=f"non-Dirichlet vertex count {n_free_vertices}; unchanged by Dirichlet gluing")

    one, two = tree and len(dirichlet) == 1, tree and len(dirichlet) == 2
    record("tree_one_dirichlet", "Inr^3/3 <= T on trees with one Dirichlet vertex",
           "<=", ONE_DIRICHLET_ONLY, (inr ** 3 / 3.0, T) if one else None,
           "needs a tree with exactly one Dirichlet vertex")
    record("tree_two_dirichlet", "dist(v,w)^3/12 <= T on trees with two Dirichlet vertices",
           "<=", TWO_DIRICHLET_ONLY, (g.distance_between(*dirichlet) ** 3 / 12.0, T) if two else None,
           "needs a tree with exactly two Dirichlet vertices")

    # products with the ground-state energy
    record("polya_product", "lambda_1 * T < L", "<", ALWAYS, lambda l: (l * T, L))
    record("landscape_inf", "1 <= lambda_1 * sup v", "<=", ALWAYS, lambda l: (1.0, l * sup))
    kj = (math.pi / 24.0 ** (1.0 / 3.0)) ** 2
    record("kohler_jobin", "(pi/24^(1/3))^2 <= lambda_1 * T^(2/3)", "<=", ALWAYS,
           lambda l: (kj, l * T ** (2.0 / 3.0)))
    kj2 = (math.pi / 12.0 ** (1.0 / 3.0)) ** 2
    record("kohler_jobin_doubly",
           "(pi/12^(1/3))^2 <= lambda_1 * T^(2/3) when Dirichlet-glued and bridgeless",
           "<=", DOUBLY_CONNECTED_ONLY, (lambda l: (kj2, l * T ** (2.0 / 3.0))) if doubly else None, bridged)

    # two-sided, so judged on the nearer side relative to lambda_1
    sandwich = ("heat_sandwich", "(pi^2/(24T)^(2/3)) <= lambda_1 <= L/T via |p|_L1 = T",
                "sandwich", ALWAYS)
    lo, hi = math.pi ** 2 / (24.0 * T) ** (2.0 / 3.0), L / T
    if lam is None:
        record(*sandwich, lambda l: (lo, hi))
    else:
        slack = min(lam - lo, hi - lam)
        status = _status(slack, max(abs(lam), 1e-300))
        records.append(BoundRecord(*sandwich[:3], lo, hi, slack, status, ALWAYS, EXACT_VIOLATION_TOL,
                                   True, f"lambda_1 = {lam!r}"))

    h_star = _star_closed_form_cheeger(g, equilateral)
    record("cheeger_product", "h^2 * T < L with the closed-form star Cheeger constant h = k/L",
           "<", CLOSED_FORM_CHEEGER_ONLY, None if h_star is None else (h_star * h_star * T, L),
           "closed-form Cheeger constant known only for equilateral stars with Dirichlet leaves",
           note=f"h = {h_star!r}")

    if n_dn:
        chain = 12.0 * n_dn * E ** 3 / (L * L * (E * n_dn + 3.0 * (n_dn + 2 * n_nn) ** 2))
    else:
        chain = 12.0 * E * E / (L * L)
    record("equilateral_chain", "L/T bounded by the equilateral stower comparison",
           "<=", EQUILATERAL_ONLY, (L / T, chain) if equilateral else None, "graph is not equilateral")

    # experimental probe, never a failure
    record("makai_probe", "probe: T < 4 L Inr^2 (open whether it always holds here)",
           "<", ALWAYS, (T, 4.0 * L * inr * inr), proven=False)

    return BoundsReport(tuple(records), L, E, T, inr, lam, None)


def equality_witnesses() -> list[tuple[str, MetricGraph, list[str]]]:
    """Graphs that realize equality, with the record names they pin to zero slack."""
    from . import families

    return [
        ("interval_DN", families.path_dn([1.0]),
         ["saint_venant", "kohler_jobin", "tree_one_dirichlet"]),
        ("interval_DD", families.path_dd([1.0]),
         ["saint_venant_doubly", "kohler_jobin_doubly", "tree_two_dirichlet",
          "edge_cubes_lower", "flower_lower", "stower_lower", "equilateral_chain"]),
        ("flower_3", families.flower(3, [0.8]),
         ["flower_lower", "edge_cubes_lower", "stower_lower", "equilateral_chain"]),
        ("caterpillar_3", families.caterpillar(3),
         ["saint_venant_doubly", "kohler_jobin_doubly"]),
        ("star_3", families.star(3, [1.0, 1.0, 1.0]),
         ["stower_lower", "equilateral_chain"]),
        ("star_uneven", families.star(3, [0.5, 1.0, 2.0]),
         ["stower_lower"]),
        ("stower_2_2", families.stower(2, 2),
         ["stower_lower", "equilateral_chain"]),
        ("star_1_chain", families.star(1, [2.0]),
         ["equilateral_chain", "saint_venant", "kohler_jobin"]),
    ]
