"""Audit of rigidity and ground-state inequalities on a concrete graph.

Every inequality the library knows is evaluated as a record with explicit
left/right values, slack and a status.  lambda_1 comes from the secular
matrix over the natural vertices (spectral.secular_lambda1), started from the
torsion solution and certified by inertia to 2e-9 relative, so every record,
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


def _status(slack: float, scale: float, violation_tol: float, equality_tol: float) -> str:
    if slack < -violation_tol * scale:
        return VIOLATED
    if abs(slack) <= equality_tol * scale:
        return EQUALITY
    return HOLDS


def _classify(lhs: float, rhs: float, violation_tol: float, equality_tol: float) -> tuple[float, str]:
    """Slack and status for the relation lhs <= rhs."""
    slack = rhs - lhs
    return slack, _status(slack, max(abs(lhs), abs(rhs), 1e-300), violation_tol, equality_tol)


def _star_closed_form_cheeger(g: MetricGraph) -> float | None:
    """Closed-form Cheeger constant k/L for an equilateral star with natural
    center and Dirichlet leaves; None when the graph is not of that shape."""
    if not g.is_equilateral(1e-9):
        return None
    if any(e.is_loop for e in g.edges):
        return None
    for c in g.vertices:
        if g.degree(c.id) != len(g.edges):
            continue
        if not all(c.id in (e.tail, e.head) for e in g.edges):
            continue
        others = [v for v in g.vertices if v.id != c.id]
        if len(others) != len(g.edges):
            continue
        if any(g.degree(v.id) != 1 for v in others):
            continue
        if c.bc != "natural":
            return None
        if not all(v.bc == "dirichlet" for v in others):
            return None
        return len(g.edges) / g.total_length()
    return None


def audit(
    g: MetricGraph,
    h_target: float | None = None,
    tol: float = 1e-10,
    max_iter: int = 10000,
    spectral: bool = True,
) -> BoundsReport:
    """Evaluate every applicable inequality record on the graph.

    Bad mesh or iteration controls raise BadParameters before any solve; a
    failure of the lambda_1 solve itself becomes error records.  tol and
    max_iter steer the lambda_1 iteration; h_target is only validated.
    """
    check_controls(h_target, tol, max_iter)
    sol = torsion_function(g)
    T = rigidity(sol)
    L = g.total_length()
    E = len(g.edges)
    sum_cubes = math.fsum(e.length ** 3 for e in g.edges)
    inr = g.inradius().value
    doubly = g.is_doubly_connected_after_glue()
    tree = g.is_tree()
    dirichlet = g.dirichlet_vertices
    n_free_vertices = len(g.vertices) - len(dirichlet)
    sup = sol.sup.value

    lam: float | None = None
    lam_error: str | None = None
    if spectral:
        try:
            lam = secular_lambda1(g, sol, tol, max_iter)
        except GraphToolError as exc:
            lam_error = str(exc)

    records: list[BoundRecord] = []

    def exact(name, label, relation, lhs, rhs, applicability, proven=True, note="") -> None:
        slack, status = _classify(lhs, rhs, EXACT_VIOLATION_TOL, EXACT_EQUALITY_TOL)
        records.append(
            BoundRecord(name, label, relation, lhs, rhs, slack, status, applicability,
                        EXACT_VIOLATION_TOL, proven, note)
        )

    def skipped(name, label, relation, applicability, why) -> None:
        records.append(
            BoundRecord(name, label, relation, None, None, None, NOT_APPLICABLE,
                        applicability, None, True, why)
        )

    def no_lambda(name, label, relation, applicability) -> None:
        records.append(
            BoundRecord(name, label, relation, None, None, None,
                        ERROR if lam_error else NOT_APPLICABLE, applicability, None, True,
                        lam_error or "spectral solve disabled")
        )

    def with_lambda(name, label, relation, applicability, build) -> None:
        if lam is None:
            no_lambda(name, label, relation, applicability)
        else:
            exact(name, label, relation, *build(lam), applicability)

    # upper bounds by total length
    exact("saint_venant", "T <= L^3/3, equality only for the Dirichlet-Neumann interval",
          "<=", T, L ** 3 / 3.0, ALWAYS)
    if doubly:
        exact("saint_venant_doubly",
              "T <= L^3/12 when Dirichlet-glued and bridgeless, equality for caterpillars",
              "<=", T, L ** 3 / 12.0, DOUBLY_CONNECTED_ONLY)
    else:
        skipped("saint_venant_doubly",
                "T <= L^3/12 when Dirichlet-glued and bridgeless, equality for caterpillars",
                "<=", DOUBLY_CONNECTED_ONLY, "graph has a bridge after gluing the Dirichlet set")

    # lower bounds
    exact("edge_cubes_lower", "sum of length^3 / 12 <= T", "<=", sum_cubes / 12.0, T, ALWAYS)
    exact("flower_lower", "L^3/(12 |E|^2) <= T, equality for equilateral flowers",
          "<=", L ** 3 / (12.0 * E * E), T, ALWAYS)

    # split by how many endpoints are Dirichlet; a loop counts its vertex twice
    arr = g.arrays
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
    exact("stower_lower", "stower comparison lower bound, equality for stowers",
          "<=", stower_bound, T, ALWAYS,
          note=f"{n_dn} edges with one Dirichlet endpoint, {n_nn} with none")

    exact("inradius_vertex_lower", "Inr^3 / (3 (|V|-|V_D|+1)^3) <= T",
          "<=", inr ** 3 / (3.0 * (n_free_vertices + 1) ** 3), T, ALWAYS,
          note=f"non-Dirichlet vertex count {n_free_vertices}; unchanged by Dirichlet gluing")

    if tree and len(dirichlet) == 1:
        exact("tree_one_dirichlet", "Inr^3/3 <= T on trees with one Dirichlet vertex",
              "<=", inr ** 3 / 3.0, T, ONE_DIRICHLET_ONLY)
    else:
        skipped("tree_one_dirichlet", "Inr^3/3 <= T on trees with one Dirichlet vertex",
                "<=", ONE_DIRICHLET_ONLY,
                "needs a tree with exactly one Dirichlet vertex")
    if tree and len(dirichlet) == 2:
        d12 = g.distance_between(dirichlet[0], dirichlet[1])
        exact("tree_two_dirichlet", "dist(v,w)^3/12 <= T on trees with two Dirichlet vertices",
              "<=", d12 ** 3 / 12.0, T, TWO_DIRICHLET_ONLY)
    else:
        skipped("tree_two_dirichlet", "dist(v,w)^3/12 <= T on trees with two Dirichlet vertices",
                "<=", TWO_DIRICHLET_ONLY,
                "needs a tree with exactly two Dirichlet vertices")

    # products with the ground-state energy
    with_lambda("polya_product", "lambda_1 * T < L", "<", ALWAYS,
                lambda l: (l * T, L))
    with_lambda("landscape_inf", "1 <= lambda_1 * sup v", "<=", ALWAYS,
                lambda l: (1.0, l * sup))
    kj = (math.pi / 24.0 ** (1.0 / 3.0)) ** 2
    with_lambda("kohler_jobin", "(pi/24^(1/3))^2 <= lambda_1 * T^(2/3)", "<=", ALWAYS,
                lambda l: (kj, l * T ** (2.0 / 3.0)))
    kj2 = (math.pi / 12.0 ** (1.0 / 3.0)) ** 2
    if doubly:
        with_lambda("kohler_jobin_doubly",
                    "(pi/12^(1/3))^2 <= lambda_1 * T^(2/3) when Dirichlet-glued and bridgeless",
                    "<=", DOUBLY_CONNECTED_ONLY, lambda l: (kj2, l * T ** (2.0 / 3.0)))
    else:
        skipped("kohler_jobin_doubly",
                "(pi/12^(1/3))^2 <= lambda_1 * T^(2/3) when Dirichlet-glued and bridgeless",
                "<=", DOUBLY_CONNECTED_ONLY, "graph has a bridge after gluing the Dirichlet set")

    sandwich = ("heat_sandwich", "(pi^2/(24T)^(2/3)) <= lambda_1 <= L/T via |p|_L1 = T",
                "sandwich")
    if lam is None:
        no_lambda(*sandwich, ALWAYS)
    else:
        lo = math.pi ** 2 / (24.0 * T) ** (2.0 / 3.0)
        hi = L / T
        slack = min(lam - lo, hi - lam)
        status = _status(slack, max(abs(lam), 1e-300), EXACT_VIOLATION_TOL, EXACT_EQUALITY_TOL)
        records.append(BoundRecord(*sandwich, lo, hi, slack, status, ALWAYS, EXACT_VIOLATION_TOL,
                                   True, f"lambda_1 = {lam!r}"))

    h_star = _star_closed_form_cheeger(g)
    if h_star is not None:
        exact("cheeger_product", "h^2 * T < L with the closed-form star Cheeger constant h = k/L",
              "<", h_star * h_star * T, L, CLOSED_FORM_CHEEGER_ONLY,
              note=f"h = {h_star!r}")
    else:
        skipped("cheeger_product",
                "h^2 * T < L with the closed-form star Cheeger constant h = k/L", "<",
                CLOSED_FORM_CHEEGER_ONLY,
                "closed-form Cheeger constant known only for equilateral stars with Dirichlet leaves")

    if g.is_equilateral(1e-9):
        if n_dn:
            s_count = n_dn + 2 * n_nn
            rhs = 12.0 * n_dn * E ** 3 / (L * L * (E * n_dn + 3.0 * s_count ** 2))
        else:
            rhs = 12.0 * E * E / (L * L)
        exact("equilateral_chain", "L/T bounded by the equilateral stower comparison",
              "<=", L / T, rhs, EQUILATERAL_ONLY)
    else:
        skipped("equilateral_chain", "L/T bounded by the equilateral stower comparison",
                "<=", EQUILATERAL_ONLY, "graph is not equilateral")

    # experimental probe, never a failure
    exact("makai_probe", "probe: T < 4 L Inr^2 (open whether it always holds here)",
          "<", T, 4.0 * L * inr * inr, ALWAYS, proven=False)

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
