"""Edge-length derivatives of the torsional rigidity and a simplex optimizer.

The derivative of T with respect to one edge length equals v'(x)^2 + 2 v(x)
at any point x of that edge; the combination is constant along the edge
because v'' = -1.  The optimizer moves edge lengths along the projected
gradient while keeping the total length fixed and every length above a floor.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import BadParameters, InconsistentInvariant
from .graph import MetricGraph, is_count, is_number
from .torsion import TorsionSolution, _solved, torsion_function

POINT_TOL = 1e-10

STATIONARY = "stationary"
FLOOR_REACHED = "floor_reached"
LINE_SEARCH_FAILED = "line_search_failed"
MAX_ITERS_EXCEEDED = "max_iters_exceeded"


def gradient(
    g: MetricGraph, solution: TorsionSolution | None = None
) -> dict[str, float]:
    """Per-edge dT/dl as a dict keyed by edge id, taken at each edge tail.  The
    midpoint value must agree to POINT_TOL relative; disagreement signals a
    solver bug and raises InconsistentInvariant naming the first edge that drifts.
    A given solution must be of g or of an equal graph; one of another graph
    raises BadParameters."""
    sol = _solved(g, solution)
    b, c, x = sol.b, sol.c, sol.graph.arrays.length / 2.0
    at_tail, at_mid = b * b + 2.0 * c, (b - x) ** 2 + 2.0 * (-0.5 * x * x + b * x + c)
    scale = np.maximum(1.0, np.maximum(np.abs(at_tail), np.abs(at_mid)))
    drift = (np.abs(at_tail - at_mid) > POINT_TOL * scale).nonzero()[0]
    if len(drift):
        k = drift[0]
        raise InconsistentInvariant(
            f"dT/dl on edge {sol.graph.edge_ids[k]!r} drifts along the edge: "
            f"tail {float(at_tail[k])!r} vs midpoint {float(at_mid[k])!r}"
        )
    return dict(zip(sol.graph.edge_ids, at_tail.tolist()))


def with_lengths(g: MetricGraph, lengths: Mapping[str, float]) -> MetricGraph:
    """Copy of the graph with edge lengths replaced where the mapping says so, each value
    unconverted to with_edge_lengths (NonPositiveLength unless a positive number).
    BadParameters unless lengths is a mapping of edge ids to lengths."""
    if not isinstance(lengths, Mapping):
        raise BadParameters(f"lengths must be a mapping of edge ids to lengths, got {lengths!r}")
    old = g.arrays.length.tolist()
    return g.with_edge_lengths([lengths.get(e, x) for e, x in zip(g.edge_ids, old)])


def grad_check(
    g: MetricGraph, edge_ids: Sequence[str] | None = None, step: float | None = None
) -> list[dict]:
    """Analytic derivative vs central finite difference, one row per edge
    (default: every edge, in order).

    Each row holds the edge, the analytic dT/dl from one gradient() of g, the
    finite difference fd at the step (default: 1e-3 of the edge's length),
    abs_error = |fd - analytic|, the step, and halving_ratio: abs_error over
    the error at half the step, about 4 for a second-order difference (inf
    when the latter is 0).  The step must be a number (graph.is_number) with
    0 < step < length/2, so both perturbed graphs stay valid, else BadParameters,
    as for a str in place of the iterable of edge ids.
    """
    if isinstance(edge_ids, str):
        raise BadParameters(f"edge_ids must be an iterable of edge ids, got the string {edge_ids!r}")
    eids = list(g.edge_ids if edge_ids is None else edge_ids)
    lengths = g.arrays.length[[g._edge_position(eid) for eid in eids]].tolist()
    steps = [1e-3 * ln if step is None else step for ln in lengths]
    for eid, ln, h in zip(eids, lengths, steps):
        if not (is_number(h) and 0.0 < h < ln / 2.0):
            raise BadParameters(f"step {h!r} outside (0, {ln / 2.0!r}) for edge {eid!r}")
    grad = gradient(g)

    def error(eid: str, ln: float, h: float) -> tuple[float, float]:
        plus = torsion_function(with_lengths(g, {eid: ln + h})).rigidity
        minus = torsion_function(with_lengths(g, {eid: ln - h})).rigidity
        fd = (plus - minus) / (2.0 * h)
        return fd, abs(fd - grad[eid])

    rows = []
    for eid, ln, h in zip(eids, lengths, steps):
        fd, err = error(eid, ln, h)
        err_half = error(eid, ln, h / 2.0)[1]
        rows.append({"edge": eid, "analytic": grad[eid], "fd": fd, "abs_error": err, "step": h,
                     "halving_ratio": err / err_half if err_half > 0.0 else math.inf})
    return rows


@dataclass(frozen=True)
class TrajectoryPoint:
    iteration: int
    lengths: dict[str, float]
    rigidity: float
    step: float


@dataclass(frozen=True)
class OptimizationTrajectory:
    points: tuple[TrajectoryPoint, ...]
    stop_reason: str
    objective: str
    floor: float

    def final(self) -> TrajectoryPoint:
        return self.points[-1]

    def to_json_lines(self) -> str:
        lines = [
            json.dumps(
                {"iteration": p.iteration, "lengths": p.lengths, "T": p.rigidity}
            )
            for p in self.points
        ]
        lines.append(
            json.dumps(
                {
                    "stop_reason": self.stop_reason,
                    "objective": self.objective,
                    "floor": self.floor,
                    "iterations": len(self.points) - 1,
                }
            )
        )
        return "\n".join(lines) + "\n"


def optimize(
    g: MetricGraph,
    objective: str = "max",
    floor: float | None = None,
    max_iters: int = 100,
) -> OptimizationTrajectory:
    """Projected-gradient ascent or descent of T over edge lengths.

    The feasible set is {lengths >= floor, total length fixed}.  Each
    iteration projects the gradient onto the zero-sum hyperplane, caps the
    step at the nearest floor face, and backtracks (factor 0.5, at most 40
    halvings) until T improves in the chosen direction.  Stops when the
    projected gradient drops below 1e-8, a length reaches the floor,
    a line search fails to improve, or max_iters runs out.  BadParameters
    unless floor is a positive number (graph.is_number) no edge is below and
    max_iters a count (graph.is_count) of at least 1.
    """
    if objective not in ("max", "min"):
        raise BadParameters(f"objective must be 'max' or 'min', got {objective!r}")
    sign = 1.0 if objective == "max" else -1.0
    total = g.total_length()
    n = len(g.edge_ids)
    if floor is None:
        floor = 1e-4 * total / n
    if not (is_number(floor) and floor > 0.0):
        raise BadParameters(f"floor must be positive and finite, got {floor!r}")
    if not (is_count(max_iters) and max_iters >= 1):
        raise BadParameters(f"max_iters must be an int of at least 1, got {max_iters!r}")
    lengths = g.arrays.length
    if (lengths < floor).any():
        raise BadParameters("an edge is already below the floor")

    sol = torsion_function(g)
    value = sol.rigidity
    points = [TrajectoryPoint(0, dict(zip(g.edge_ids, lengths.tolist())), value, 0.0)]

    reason = MAX_ITERS_EXCEEDED
    for it in range(1, max_iters + 1):
        grad = np.fromiter(gradient(sol.graph, sol).values(), float, n)
        direction = sign * (grad - math.fsum(grad.tolist()) / n)
        norm = math.sqrt(math.fsum((direction * direction).tolist()))
        if norm < 1e-8:
            reason = STATIONARY
            break

        # cap the step where the first length would cross the floor
        down = direction < 0.0
        t = float(((lengths[down] - floor) / -direction[down]).min(initial=0.1 * total / norm))
        if t <= 0.0:
            reason = FLOOR_REACHED
            break

        improved = False
        for _ in range(41):
            trial = np.maximum(lengths + t * direction, floor)
            trial_sol = torsion_function(g.with_edge_lengths(trial.tolist()))
            if sign * (trial_sol.rigidity - value) > 0.0:
                improved = True
                break
            t *= 0.5
        if not improved:
            reason = LINE_SEARCH_FAILED
            break

        lengths, sol, value = trial, trial_sol, trial_sol.rigidity
        points.append(TrajectoryPoint(it, dict(zip(g.edge_ids, lengths.tolist())), value, t))
        if lengths.min() <= floor * (1.0 + 1e-9):
            reason = FLOOR_REACHED
            break

    return OptimizationTrajectory(tuple(points), reason, objective, floor)
