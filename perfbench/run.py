"""Benchmark for graphtorsion: one workload per process, timed end to end or traced.

    python3 perfbench/run.py --workload audit_battery --seed 1 --seconds 20 --trace 0

Runs whole rounds of the workload's items until the timed work reaches
--seconds, checks every output of the first round against checks.py (later
rounds must reproduce it), and prints one JSON object as the last line of
stdout.  --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
metrics from spans around graphtorsion's public functions, and writes the
spans to perfbench/out/.  See README.md.
"""

from __future__ import annotations

import os

# One BLAS thread in this process and in every process it starts; this must
# happen before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

SETUP_REPEATS = 5

PER_LAYER = {
    # metric: (span name, "self" or "total", unit)
    "graph.load_ms": ("graph.load", "self", "ms"),
    "graph.inradius_ms": ("graph.inradius", "self", "ms"),
    "graph.bridges_ms": ("graph.bridges", "self", "ms"),
    "torsion.assemble_ms": ("torsion.assemble", "self", "ms"),
    "torsion.factor_ms": ("torsion.factor", "self", "ms"),
    "torsion.polys_ms": ("torsion.polys", "self", "ms"),
    "torsion.rigidity_ms": ("torsion.rigidity", "self", "ms"),
    "shape_opt.gradient_ms": ("shape_opt.gradient", "self", "ms"),
    "cli.dump_ms": ("cli.dump", "self", "ms"),
    "spectral.mesh_ms": ("spectral.mesh", "self", "ms"),
    "spectral.eigen_ms": ("spectral.eigen", "self", "ms"),
    "spectral.weights_ms": ("spectral.weights", "self", "ms"),
    "spectral.heat_ms": ("spectral.heat", "self", "ms"),
    "bounds.audit_ms": ("bounds.audit", "total", "ms"),
    "bounds.self_ms": ("bounds.audit", "self", "ms"),
    "surgery.apply_ms": ("surgery.apply", "self", "ms"),
}
COUNTS = {
    "torsion.unknowns": "count",
    "torsion.system_bytes": "bytes",
    "spectral.mesh_nodes": "count",
    "spectral.iterations": "count",
    "bounds.records": "count",
}


def no_span(name: str):
    return nullcontext()


def setup(workload: str, seed: int, span):
    """Import graphtorsion and build the workload's inputs: what setup_s times."""
    import workloads

    return workloads.WORKLOADS[workload](seed, span)


def setup_seconds(workload: str, seed: int) -> float:
    """Median over fresh processes of the time from process start to inputs ready."""
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            check=True, capture_output=True, text=True, timeout=120,
        )
        samples.append(float(out.stdout.split()[-1]) - start)
    return statistics.median(samples)


def run_round(items, span, check: bool):
    """Run every item once.  Returns item seconds (None if it raised), outputs' digests,
    errors and the problems found by the checks (only when check is set)."""
    from graphtorsion.errors import GraphToolError

    times, digests, errors, problems = [], [], [], []
    for item in items:
        with span("item"):
            t0 = time.perf_counter()
            try:
                out, err = item.run(), None
            except GraphToolError as exc:
                out, err = None, exc
            elapsed = time.perf_counter() - t0
        errors.append(err)
        if err is not None:
            times.append(None)
            digests.append(type(err).__name__)
            if item.fault is None or not isinstance(err, item.fault):
                problems.append(f"{item.label}: unexpected {type(err).__name__}: {err}")
            continue
        times.append(elapsed)
        digests.append(item.digest(out))
        if check:
            problems += item.check(out)
        del out
    return times, digests, errors, problems


def _same(a, b) -> bool:
    """Digests agree: equal, floats to the eigensolver accuracy the checks allow."""
    from workloads import SOLVER_SLACK

    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float):
        return a == b or abs(a - b) <= SOLVER_SLACK * max(abs(a), abs(b))
    return a == b


def measure(items, seconds: float, span, tracer):
    """Whole rounds until the timed work reaches `seconds`; the first round is checked."""
    gc.collect()
    run_round(items[:1], span, check=False)  # warm-up item
    gc.collect()
    gc.freeze()
    rounds, layer_rounds, problems = [], [], []
    reference = None
    attempted = failed = 0
    while not rounds or sum(sum(t for t in r if t is not None) for r in rounds) < seconds:
        gc.collect()
        first_span = len(tracer.spans) if tracer is not None else 0
        counts_before = dict(tracer.counts) if tracer is not None else {}
        times, digests, errors, found = run_round(items, span, check=reference is None)
        problems += found
        if reference is None:
            reference = digests
        else:
            problems += [f"{item.label}: output changed between rounds: {a} vs {b}"
                         for item, a, b in zip(items, reference, digests) if not _same(a, b)]
        attempted += len(items)
        failed += sum(e is not None for e in errors)
        rounds.append(times)
        if tracer is not None:
            layer_rounds.append(_layer_round(tracer, first_span, counts_before))
    return rounds, layer_rounds, problems, attempted, failed


def _layer_round(tracer, first_span: int, counts_before: dict) -> dict:
    own, total = tracer.self_times(first_span), tracer.total_times(first_span)
    out = {}
    for metric, (name, kind, _unit) in PER_LAYER.items():
        out[metric] = 1e3 * (own if kind == "self" else total)[name]
    for metric in COUNTS:
        out[metric] = tracer.counts[metric] - counts_before.get(metric, 0)
    return out


def end_to_end(rounds, setup_s: float) -> dict:
    item_times = [t for r in rounds for t in r if t is not None]
    round_times = [sum(t for t in r if t is not None) for r in rounds]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "run_s": {"value": statistics.median(round_times), "unit": "s"},
        "item_p50_ms": {"value": 1e3 * statistics.median(item_times), "unit": "ms"},
        "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


def per_layer(layer_rounds) -> dict:
    out = {}
    for metric, (_name, _kind, unit) in PER_LAYER.items():
        out[metric] = {"value": statistics.median(r[metric] for r in layer_rounds), "unit": unit}
    for metric, unit in COUNTS.items():
        values = {r[metric] for r in layer_rounds}
        if len(values) != 1:
            raise RuntimeError(f"{metric} differs between rounds: {sorted(values)}")
        out[metric] = {"value": values.pop(), "unit": unit}
    return out


def main(argv=None) -> int:
    import workloads

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if args.setup_probe:
        setup(args.workload, args.seed, no_span)
        print(time.monotonic())
        return 0

    setup_s = setup_seconds(args.workload, args.seed) if not args.trace else None
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    span = tracer.span if tracer is not None else no_span
    items = setup(args.workload, args.seed, span)
    rounds, layer_rounds, problems, attempted, failed = measure(items, args.seconds, span, tracer)

    if tracer is not None:
        tracer.uninstall()
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                          "fields": ["name", "start", "end", "parent"],
                                          "spans": tracer.spans}))
        metrics = per_layer(layer_rounds)
    else:
        metrics = end_to_end(rounds, setup_s)

    for msg in problems[:50]:
        print(f"CHECK FAILED {msg}", file=sys.stderr)
    round_s = " ".join(f"{sum(t for t in r if t is not None):.3f}" for r in rounds)
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds of {len(items)} items, "
          f"{failed} failed, {len(problems)} check failures, "
          f"{'traced ' if tracer is not None else ''}round seconds {round_s}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:24s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
