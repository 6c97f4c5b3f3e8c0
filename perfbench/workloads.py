"""The three workloads: inputs built from the seed, timed items, and their checks.

Each workload's ``setup(seed, span)`` returns a list of Items, one round of
work.  ``Item.run`` makes only the calls a user of graphtorsion makes and is
the only code timed; ``Item.check`` compares its output with checks.py or with
a property the method must have and returns a list of problems; ``Item.digest``
is a short tuple that later rounds must reproduce.  ``fault`` names the error
an item raises on every run because of a known fault; it is counted as failed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
import scipy.linalg

import checks
from checks import REL_TOL, rel_gap

from graphtorsion import bounds, families, graph, shape_opt, spectral, surgery, torsion
from graphtorsion.errors import CrossCheckMismatch, NoConvergence


@dataclass
class Item:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    digest: Callable[[Any], tuple]
    fault: type | None = None


def _close(problems: list[str], label: str, what: str, got: float, want: float, tol: float) -> None:
    if not rel_gap(got, want) <= tol:
        problems.append(f"{label}: {what} {got!r} vs reference {want!r} (tolerance {tol:g})")


def _within(problems: list[str], label: str, what: str, lo: float, x: float, hi: float) -> None:
    if not lo <= x <= hi:
        problems.append(f"{label}: {what} {x!r} outside [{lo!r}, {hi!r}]")


def _rigidity_checks(problems: list[str], label: str, g, rigidity: float, reference: float) -> None:
    _close(problems, label, "rigidity", rigidity, reference, REL_TOL)
    lo, hi = checks.rigidity_bracket(g)
    _within(problems, label, "rigidity", lo * (1 - REL_TOL), rigidity, hi * (1 + REL_TOL))


def multigraph_payload(rng: np.random.Generator, n: int, m: int) -> dict:
    """Random connected multigraph in the JSON interchange form.

    A random recursive tree on n vertices plus m - n + 1 uniform extra edges
    (loops and parallel edges allowed), lengths log-uniform on [0.1, 10], and
    exactly 30% of the vertices Dirichlet, so the vertex system has the same
    size for every seed.
    """
    tails = rng.integers(0, np.arange(1, n)).tolist()
    ends = list(zip(tails, range(1, n)))
    extra = rng.integers(0, n, size=(m - n + 1, 2)).tolist()
    ends += [tuple(p) for p in extra]
    lengths = np.exp(rng.uniform(math.log(0.1), math.log(10.0), size=len(ends)))
    dirichlet = set(rng.choice(n, size=max(1, round(0.3 * n)), replace=False).tolist())
    return {
        "vertices": [
            {"id": f"v{i}", "bc": "dirichlet" if i in dirichlet else "natural"} for i in range(n)
        ],
        "edges": [
            {"id": f"e{k}", "from": f"v{a}", "to": f"v{b}", "length": float(lengths[k])}
            for k, (a, b) in enumerate(ends)
        ],
    }


# -- audit_battery ---------------------------------------------------------------


def random_surgery_op(pick: np.random.Generator, rng: np.random.Generator, g):
    """One applicable surgery operation for g.

    pick makes every discrete choice (which operation, which vertices or
    edges), rng draws the lengths and factors.  With pick fixed, the work
    predicted_direction does (a torsion solve for each AddEdge between two
    distinct vertices) is the same for every seed.
    """
    naturals = [v.id for v in g.vertices if v.bc == "natural"]
    dirichlets = [v.id for v in g.vertices if v.bc == "dirichlet"]
    length = float(rng.uniform(0.2, 1.0))
    choices = []
    if len(naturals) >= 2 or len(dirichlets) >= 2:
        pool = naturals if len(naturals) >= 2 else dirichlets
        if len(dirichlets) >= 2 and pick.random() < 0.5:
            pool = dirichlets
        a, b = pick.choice(len(pool), 2, replace=False)
        choices.append(surgery.Glue(pool[a], pool[b]))
    if naturals:
        choices.append(surgery.AddDirichlet(naturals[pick.integers(len(naturals))]))
        choices.append(surgery.AttachPendant(
            vertices=("p0", "p1"),
            edges=(("pe0", "p0", "p1", length),),
            join="p0",
            at=naturals[pick.integers(len(naturals))],
        ))
    ids = [v.id for v in g.vertices]
    u = ids[pick.integers(len(ids))]
    w = u if pick.random() < 0.5 else ids[pick.integers(len(ids))]
    choices.append(surgery.AddEdge(u, w, length))
    choices.append(surgery.Lengthen(g.edges[pick.integers(len(g.edges))].id,
                                    float(rng.uniform(0.1, 1.0))))
    choices.append(surgery.Scale(float(rng.uniform(0.5, 2.0))))
    seen: dict[tuple[str, str], str] = {}
    for e in g.edges:
        if e.tail == e.head:
            continue
        key = tuple(sorted((e.tail, e.head)))
        if key in seen:
            choices.append(surgery.UnfoldParallel(seen[key], e.id))
            break
        seen[key] = e.id
    return choices[pick.integers(len(choices))]


def _surgery_problems(label: str, before: float, after: float, prediction) -> list[str]:
    """Rigidity must move the way predicted_direction says (1e-9 relative slack)."""
    if prediction is None:
        return []
    d = surgery.Direction
    tol = 1e-9 * max(before, after)
    ok = {
        d.NON_INCREASING: after <= before + tol,
        d.NON_DECREASING: after >= before - tol,
        d.STRICT_INCREASE: after > before + tol,
        d.STRICT_DECREASE: after < before - tol,
        d.EXACT_SCALE: prediction.factor is not None
        and abs(after - prediction.factor * before) <= tol,
    }[prediction.direction]
    if ok:
        return []
    return [f"{label}: rigidity {before!r} -> {after!r} against prediction {prediction}"]


# Inverse iteration stops when the Rayleigh quotient changes by less than
# tol = 1e-10 relative, which leaves an error of up to tol / (1 - r^2) with r
# the ratio of the sought eigenvalue to the next.  Within the 10000-iteration
# cap r^2 stays below about 1 - 2e-3, so the error stays below 5e-8 (4.4e-8
# seen on a random battery graph).  Eigenvalue checks allow 1e-6 relative.
SOLVER_SLACK = 1e-6


def _count_problems(label: str, g, lams, width: float) -> list[str]:
    """The j-th exact eigenvalue lies in [lam_j - P1 error, lam_j] for each FEM lam_j.

    P1 never lowers an eigenvalue, and raises it by at most lam^2 h^2/6
    (checks.p1_upper); a mode the solver skipped leaves one more exact
    eigenvalue below lam_j - P1 error.  Exact counts come from the secular matrix.
    """
    out = []
    for j, lam in enumerate(lams, 1):
        above = checks.eigenvalue_count(g, lam * (1 + SOLVER_SLACK))
        below = checks.eigenvalue_count(g, lam - lam * lam * width * width / 6.0 - SOLVER_SLACK * lam)
        if above < j or below >= j:
            out.append(f"{label}: {above} exact eigenvalues up to lambda_{j} = {lam!r}, "
                       f"{below} below it less the P1 error")
    return out


def _audit_problems(label: str, g, report, h_target: float) -> list[str]:
    problems: list[str] = []
    reference, _ = checks.torsion_sparse(g)
    _rigidity_checks(problems, label, g, report.rigidity, reference)
    _close(problems, label, "inradius", report.inradius, checks.inradius_dijkstra(g), 1e-12)
    lo, hi = checks.lambda1_bracket(g, h_target)
    lam = report.lambda1 or math.nan
    _within(problems, label, "lambda_1", lo, lam, hi * (1 + SOLVER_SLACK))
    problems += _count_problems(label, g, [lam], h_target)
    problems += [f"{label}: proven record {r.name} violated" for r in report.violated()]
    problems += [f"{label}: record {r.name} errored: {r.note}" for r in report.errored()]
    return problems


def _audit_digest(report) -> tuple:
    return (report.rigidity, report.inradius, report.lambda1, tuple(r.status for r in report.records))


def _battery_item(k: int, g, op) -> Item:
    label = f"battery[{k}]"
    h = min(e.length for e in g.edges) / 4.0

    def run():
        report = bounds.audit(g, h_target=h)
        after = surgery.apply(g, op)
        return report, after, surgery.predicted_direction(op, g)

    def check(out):
        report, after, prediction = out
        problems = _audit_problems(label, g, report, h)
        before_ref, _ = checks.torsion_sparse(g)
        after_ref, _ = checks.torsion_sparse(after)
        return problems + _surgery_problems(f"{label} {op}", before_ref, after_ref, prediction)

    def digest(out):
        report, after, prediction = out
        return _audit_digest(report) + (len(after.edges), after.total_length(), str(prediction))

    return Item(label, run, check, digest)


def _witness_item(name: str, g, expected: list[str]) -> Item:
    label = f"witness[{name}]"
    h = min(e.length for e in g.edges) / 16.0

    def check(report):
        problems = _audit_problems(label, g, report, h)
        for rec in (report.record(n) for n in expected):
            scale = max(abs(rec.lhs), abs(rec.rhs), 1.0)
            if rec.tolerance == bounds.EXACT_VIOLATION_TOL:
                tol = bounds.EXACT_EQUALITY_TOL
            else:
                # a lambda record: P1 raises lambda by at most lambda h^2/6 relative
                tol = report.lambda1 * h * h / 6.0 + SOLVER_SLACK
            if rec.status != bounds.EQUALITY or abs(rec.rhs - rec.lhs) > tol * scale:
                problems.append(f"{label}: {rec.name} should reach equality, got {rec}")
        return problems

    return Item(label, lambda: bounds.audit(g, h_target=h), check, _audit_digest)


# The criterion-6 battery of tests/test_acceptance.py: random_graph draws from
# default_rng(6).  Other random batteries can hold a graph on which
# lowest_eigenpairs returns the second eigenvalue as lambda_1 (three of fifteen
# other 500-graph batteries held one each), which the lambda_1 checks reject; a
# failure on some seeds only cannot be a steady failed share, so the graphs
# stay fixed.  The surgery operations pick their targets from a fixed stream
# too and take their lengths and factors from the seed.
BATTERY_SEED = 6
SURGERY_PICK_SEED = 3


def audit_battery(seed: int, span) -> list[Item]:
    """The 500-graph criterion-6 battery audited at h = l_min/4 with one surgery
    op each, then the 8 equality witnesses at l_min/16."""
    battery = np.random.default_rng(BATTERY_SEED)
    graphs = [families.random_graph(battery) for _ in range(500)]
    pick, rng = np.random.default_rng(SURGERY_PICK_SEED), np.random.default_rng(seed)
    items = [_battery_item(k, g, random_surgery_op(pick, rng, g)) for k, g in enumerate(graphs)]
    items += [_witness_item(n, g, exp) for n, g, exp in bounds.equality_witnesses()]
    return items


# -- torsion_large ---------------------------------------------------------------

# random_graph(seed, length_range=(1e-7, 1e7)) for these seeds: the first five
# of seeds 0-299 whose rigidity routes disagree by at least 100 times the 1e-10
# tolerance (CrossCheckMismatch on every run), and the first five whose routes
# agree to within 1/100 of it with a length ratio above 1e8.
WIDE_FAILING = (44, 53, 64, 72, 75)
WIDE_PASSING = (1, 2, 3, 4, 5)


def _torsion_item(label: str, text: str, span, exact: bool, fault=None) -> Item:
    def run():
        g = graph.loads(text)
        sol = torsion.torsion_function(g)
        t = torsion.rigidity(sol)
        grad = shape_opt.gradient(g, sol)
        inr = g.inradius()
        with span("cli.dump"):
            dumped = json.dumps(torsion.solution_to_payload(sol), indent=2)
        return g, sol, t, grad, inr, dumped

    def check(out):
        g, sol, t, grad, inr, dumped = out
        problems: list[str] = []
        if exact:
            _rigidity_checks(problems, label, g, t, float(checks.torsion_exact(g)))
        else:
            reference, values = checks.torsion_sparse(g)
            _rigidity_checks(problems, label, g, t, reference)
            scale = max(1.0, max(abs(x) for x in values.values()))
            worst = max(abs(sol.vertex_values[v] - x) for v, x in values.items())
            if worst > REL_TOL * scale:
                problems.append(f"{label}: vertex values off by {worst:.3e} (scale {scale:.3e})")
        gap = checks.euler_gap(g, t, grad)
        if not gap <= REL_TOL:
            problems.append(f"{label}: sum l dT/dl differs from 3T by {gap:.3e} relative")
        _close(problems, label, "inradius", inr.value, checks.inradius_dijkstra(g), 1e-12)
        payload = json.loads(dumped)
        if payload["rigidity"] != t or len(payload["edges"]) != len(g.edges):
            problems.append(f"{label}: torsion payload does not carry the solution")
        return problems

    def digest(out):
        g, sol, t, grad, inr, dumped = out
        return (t, inr.value, math.fsum(grad.values()), len(dumped))

    return Item(label, run, check, digest, fault)


def torsion_large(seed: int, span) -> list[Item]:
    """Random multigraphs with |V| = 1000, 2000, 4000 and |E| = 1.5 |V| read from
    JSON, then the wide-ratio slice, through the `torsion` CLI's calls."""
    rng = np.random.default_rng(seed)
    items = []
    for n in (1000, 2000, 4000):
        text = json.dumps(multigraph_payload(rng, n, round(1.5 * n)), indent=2)
        items.append(_torsion_item(f"multigraph[{n}]", text, span, exact=False))
    wide = (1e-7, 1e7)
    for s in WIDE_FAILING:
        text = families.random_graph(s, length_range=wide).dumps()
        items.append(_torsion_item(f"wide[{s}]", text, span, exact=True, fault=CrossCheckMismatch))
    for s in WIDE_PASSING:
        text = families.random_graph(s, length_range=wide).dumps()
        items.append(_torsion_item(f"wide[{s}]", text, span, exact=True))
    return items


# -- spectrum_fine ---------------------------------------------------------------

MESH_NODES = 60_000
MODES = 3


def _spectrum_item(label: str, g, h: float, exact: list[float] | None) -> Item:
    def check(res):
        problems: list[str] = []
        lams = list(res.eigenvalues)
        stiff, mass, free, width = checks.p1_matrices(g, res.to_payload()["nodes"])
        absolute, relative, orth = checks.pencil_report(stiff, mass, free, lams, res.values)
        for j, (mine, theirs) in enumerate(zip(absolute, res.residuals)):
            if abs(mine - theirs) > 1e-6 * theirs + 1e-8:
                problems.append(f"{label}: mode {j} residual {theirs!r}, recomputed {mine!r}")
        # inverse iteration stopped at a 1e-10 change of the Rayleigh quotient
        # leaves eigenvector errors of order sqrt(1e-10)
        if max(relative) > 1e-4:
            problems.append(f"{label}: relative pencil residuals {relative}")
        if orth > 1e-9:
            problems.append(f"{label}: eigenvectors M-orthonormal only to {orth:.3e}")
        if exact is None:
            lo, hi = checks.lambda1_bracket(g, h)
            _within(problems, label, "lambda_1", lo, lams[0], hi * (1 + SOLVER_SLACK))
            problems += _count_problems(label, g, lams, width)
        else:
            for j, (lam, ref) in enumerate(zip(lams, exact)):
                # P1 never lowers an eigenvalue; the solver may miss by SOLVER_SLACK
                _within(problems, label, f"lambda_{j + 1}", ref * (1 - SOLVER_SLACK), lam,
                        checks.p1_upper(ref, width) * (1 + SOLVER_SLACK))
        return problems

    def run():
        return spectral.lowest_eigenpairs(g, MODES, h_target=h)

    return Item(label, run, check, lambda res: tuple(res.eigenvalues))


def _heat_item(g, h: float) -> Item:
    label = "heat[path_DN]"
    exact_sums = checks.path_dn_heat_partial_sums(g.total_length(), MODES)

    def check(hc):
        problems: list[str] = []
        rigidity, _ = checks.torsion_sparse(g)
        _close(problems, label, "rigidity", hc.rigidity, rigidity, REL_TOL)
        sums = list(hc.partial_sums)
        if any(b < a for a, b in zip(sums, sums[1:])) or sums[-1] > rigidity:
            problems.append(f"{label}: partial sums {sums} not increasing up to T = {rigidity!r}")
        for j, (got, want) in enumerate(zip(sums, exact_sums)):
            # each term moves by O(lambda h^2) relative under P1
            _close(problems, label, f"partial sum {j + 1}", got, want, 1e-6)
        return problems

    return Item(label, lambda: spectral.integrated_heat_content(g, MODES, h_target=h),
                check, lambda hc: tuple(hc.partial_sums))


def _near_degenerate_star() -> Item:
    """star(3, [1, 1+1e-7, 1-1e-7]) at h = 1/16: inverse iteration with deflation
    does not settle lambda_2 within 10000 iterations (NoConvergence)."""
    g = families.star(3, [1.0, 1.0 + 1e-7, 1.0 - 1e-7])
    label = "star_near_degenerate"

    def check(res):
        stiff, mass, free, _ = checks.p1_matrices(g, res.to_payload()["nodes"])
        dense = scipy.linalg.eigh(stiff[free][:, free].toarray(), mass[free][:, free].toarray(),
                                  eigvals_only=True)[:MODES]
        return [f"{label}: lambda_{j + 1} {got!r} vs dense {want!r}"
                for j, (got, want) in enumerate(zip(res.eigenvalues, dense))
                if rel_gap(got, want) > SOLVER_SLACK]

    def run():
        return spectral.lowest_eigenpairs(g, MODES, h_target=1 / 16)

    return Item(label, run, check, lambda res: tuple(res.eigenvalues), NoConvergence)


def spectrum_fine(seed: int, span) -> list[Item]:
    """Three modes on five graphs at ~60k mesh nodes, heat content on the DN
    interval, and the near-degenerate star.

    The graphs do not depend on the seed.  The cost of inverse iteration on a
    random graph follows its eigenvalue gaps: on ten 40-vertex draws it took
    1.1 s to 6.1 s, a spread that would hide any change in the program.  The
    40-vertex graph is therefore one fixed draw.
    """
    del seed
    graphs = [
        ("path_DN", families.path_dn(), checks.path_dn_eigenvalues(1.0, MODES)),
        ("star:3", families.star(3), checks.star_eigenvalues(3, 1.0, MODES)),
        ("flower:3", families.flower(3), checks.flower_eigenvalues(3, 1.0, MODES)),
        ("pumpkin_chain:2,3", families.pumpkin_chain([2, 3]),
         checks.pumpkin_chain_2_3_eigenvalues(MODES)),
        ("random:40", graph.from_payload(multigraph_payload(np.random.default_rng(0), 40, 60)), None),
    ]
    items = [_spectrum_item(f"spectrum[{name}]", g, g.total_length() / MESH_NODES, exact)
             for name, g, exact in graphs]
    path = graphs[0][1]
    items.append(_heat_item(path, path.total_length() / MESH_NODES))
    items.append(_near_degenerate_star())
    return items


WORKLOADS = {
    "audit_battery": audit_battery,
    "torsion_large": torsion_large,
    "spectrum_fine": spectrum_fine,
}
