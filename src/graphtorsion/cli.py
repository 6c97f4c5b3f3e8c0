"""Command line front end: load or generate graphs, run solves, emit reports.

Exit codes: 0 success, 1 usage or input error, 2 solver failure, 3 a proven
bound came back violated.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import families
from .bounds import audit
from .errors import BadParameters, GraphToolError, ValidationError
from .graph import MetricGraph, load, loads
from .shape_opt import grad_check, optimize
from .spectral import integrated_heat_content, lowest_eigenpairs
from .torsion import rigidity, solution_to_payload, torsion_function

USAGE_ERROR = 1
SOLVER_ERROR = 2
BOUND_VIOLATED = 3


class _Parser(argparse.ArgumentParser):
    """Parser whose usage failures exit with code 1 instead of argparse's 2."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _read_graph(arg: str) -> MetricGraph:
    if arg == "-":
        return loads(sys.stdin.read())
    return load(arg)


def _fmt(value: float, precision: int) -> str:
    return f"{value:.{precision}g}"


def _parse_lengths(text: str | None):
    if text is None:
        return None
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise BadParameters(f"bad --lengths value {text!r}") from None


def _cmd_torsion(args) -> tuple[str, int]:
    sol = torsion_function(_read_graph(args.graph))
    rigidity(sol)  # raises unless the energy route agrees
    return json.dumps(solution_to_payload(sol), indent=2), 0


def _cmd_rigidity(args) -> tuple[str, int]:
    t = rigidity(torsion_function(_read_graph(args.graph)))
    if args.json:
        return json.dumps({"rigidity": t}), 0
    return _fmt(t, args.precision), 0


def _cmd_spectrum(args) -> tuple[str, int]:
    res = lowest_eigenpairs(
        _read_graph(args.graph), k=args.modes, h_target=args.h, tol=args.tol
    )
    if args.json:
        return json.dumps(res.to_payload(), indent=2), 0
    lines = [
        f"lambda_{i + 1} = {_fmt(lam, args.precision)}"
        for i, lam in enumerate(res.eigenvalues)
    ]
    lines.append(f"h_eff = {_fmt(res.h_eff, args.precision)}")
    return "\n".join(lines), 0


def _audit_one(g: MetricGraph, args):
    rep = audit(g, h_target=args.h, tol=args.tol)
    text = rep.dumps() if args.json else rep.table()
    code = 0
    for r in rep.errored():
        print(f"graphtorsion: solver error in record {r.name}: {r.note}",
              file=sys.stderr)
        code = SOLVER_ERROR
    violated = rep.violated()
    for r in violated:
        print(f"graphtorsion: violated bound {r.name}: "
              f"lhs {r.lhs!r} rhs {r.rhs!r} slack {r.slack!r}", file=sys.stderr)
    if violated:
        code = BOUND_VIOLATED
    return text, code


def _cmd_bounds(args) -> tuple[str, int]:
    if args.batch is not None:
        paths = sorted(Path(args.batch).glob("*.json"))
        if not paths:
            raise BadParameters(f"no .json files under {args.batch!r}")
        chunks = []
        worst = 0
        for p in paths:
            text, code = _audit_one(load(p), args)
            chunks.append(f"== {p} ==\n{text}")
            worst = max(worst, code)
        return "\n\n".join(chunks), worst
    return _audit_one(_read_graph(args.graph), args)


def _cmd_grad_check(args) -> tuple[str, int]:
    g = _read_graph(args.graph)
    edge_ids = [args.edge] if args.edge else [e.id for e in g.edges]
    rows = []
    for eid in edge_ids:
        length = g.edge(eid).length
        step = args.step if args.step is not None else 1e-3 * length
        analytic, fd, err = grad_check(g, eid, step)
        _, _, err_half = grad_check(g, eid, step / 2.0)
        ratio = err / err_half if err_half > 0.0 else math.inf
        rows.append(
            {"edge": eid, "analytic": analytic, "fd": fd,
             "abs_error": err, "step": step, "halving_ratio": ratio}
        )
    if args.json:
        return json.dumps(rows, indent=2), 0
    p = args.precision
    lines = [
        f"{r['edge']}: analytic {_fmt(r['analytic'], p)}  "
        f"fd {_fmt(r['fd'], p)}  error {_fmt(r['abs_error'], p)}  "
        f"ratio {_fmt(r['halving_ratio'], p)}"
        for r in rows
    ]
    return "\n".join(lines), 0


def _cmd_optimize(args) -> tuple[str, int]:
    traj = optimize(
        _read_graph(args.graph),
        objective=args.objective,
        floor=args.floor,
        max_iters=args.iters,
    )
    return traj.to_json_lines().rstrip("\n"), 0


def _cmd_gen(args) -> tuple[str, int]:
    g = families.family_generator(
        args.family, lengths=_parse_lengths(args.lengths), seed=args.seed
    )
    return g.dumps(), 0


def _cmd_heat_check(args) -> tuple[str, int]:
    hc = integrated_heat_content(
        _read_graph(args.graph), modes=args.modes, h_target=args.h, tol=args.tol
    )
    if args.json:
        return json.dumps(hc.to_payload(), indent=2), 0
    p = args.precision
    lines = [
        f"K={i + 1}  partial {_fmt(s, p)}  coverage {_fmt(s / hc.rigidity, p)}"
        for i, s in enumerate(hc.partial_sums)
    ]
    lines.append(f"rigidity = {_fmt(hc.rigidity, p)}")
    lines.append(f"h_eff = {_fmt(hc.h_eff, p)}")
    return "\n".join(lines), 0


def _add_common(p: argparse.ArgumentParser, graph_arg: bool = True) -> None:
    if graph_arg:
        p.add_argument("graph", help="graph JSON file, or - for stdin")
    p.add_argument("--out", metavar="FILE", help="write output here instead of stdout")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--precision", type=int, default=12, metavar="N",
                   help="significant digits for text output (default 12)")


def _add_mesh(p: argparse.ArgumentParser,
              h_help: str = "target mesh width (default: min edge length / 16)") -> None:
    p.add_argument("--h", type=float, default=None, metavar="H", help=h_help)
    p.add_argument("--tol", type=float, default=1e-10, metavar="T",
                   help="iteration tolerance (default 1e-10)")


def build_parser() -> _Parser:
    parser = _Parser(prog="graphtorsion",
                     description="Torsion and spectra of metric graphs "
                                 "with Dirichlet vertices.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("torsion", help="solve the torsion problem, emit JSON")
    _add_common(p)
    p.set_defaults(run=_cmd_torsion)

    p = sub.add_parser("rigidity", help="print the torsional rigidity")
    _add_common(p)
    p.set_defaults(run=_cmd_rigidity)

    p = sub.add_parser("spectrum", help="lowest Laplacian eigenvalues")
    _add_common(p)
    _add_mesh(p)
    p.add_argument("--modes", type=int, default=1, metavar="K",
                   help="number of eigenvalues (default 1)")
    p.set_defaults(run=_cmd_spectrum)

    p = sub.add_parser("bounds", help="audit the inequality records")
    p.add_argument("graph", nargs="?", default=None,
                   help="graph JSON file, or - for stdin; optional with --batch")
    _add_common(p, graph_arg=False)
    _add_mesh(p, "accepted and checked; the exact lambda_1 needs no mesh")
    p.add_argument("--batch", metavar="DIR", default=None,
                   help="audit every .json file in a directory")
    p.set_defaults(run=_cmd_bounds)

    p = sub.add_parser("grad-check", help="analytic vs finite-difference dT/dl")
    _add_common(p)
    p.add_argument("--edge", metavar="ID", default=None,
                   help="check one edge (default: all)")
    p.add_argument("--step", type=float, default=None, metavar="S",
                   help="FD step (default: 1e-3 of each edge length)")
    p.set_defaults(run=_cmd_grad_check)

    p = sub.add_parser("optimize", help="projected-gradient length optimization")
    _add_common(p)
    p.add_argument("--objective", choices=("max", "min"), default="max")
    p.add_argument("--floor", type=float, default=None, metavar="E",
                   help="length floor (default 1e-4 L/|E|)")
    p.add_argument("--iters", type=int, default=100, metavar="N")
    p.set_defaults(run=_cmd_optimize)

    p = sub.add_parser("gen", help="generate a family graph as JSON")
    _add_common(p, graph_arg=False)
    p.add_argument("family",
                   help="path_DN | path_DD | star:K | flower:K | stower:L,P | "
                        "lasso | pumpkin_chain:SPEC | caterpillar:N | random")
    p.add_argument("--lengths", metavar="CSV", default=None,
                   help="comma-separated edge lengths")
    p.add_argument("--seed", type=int, default=None, help="for family 'random'")
    p.set_defaults(run=_cmd_gen)

    p = sub.add_parser("heat-check", help="heat-content partial sums vs rigidity")
    _add_common(p)
    _add_mesh(p)
    p.add_argument("--modes", type=int, default=9, metavar="K",
                   help="number of spectral terms (default 9)")
    p.set_defaults(run=_cmd_heat_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "bounds" and args.graph is None and args.batch is None:
        parser.error("bounds needs a graph file or --batch DIR")
    if args.precision < 0:
        parser.error(f"--precision must be non-negative, got {args.precision}")
    try:
        text, code = args.run(args)
    except (ValidationError, BadParameters) as exc:
        print(f"graphtorsion: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except OSError as exc:
        print(f"graphtorsion: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except GraphToolError as exc:
        print(f"graphtorsion: solver failure: {exc}", file=sys.stderr)
        return SOLVER_ERROR
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
