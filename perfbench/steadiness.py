"""Run the benchmark on one workload with several seeds and report the spread.

    python3 perfbench/steadiness.py --workload spectrum_fine --seeds 1-10 --seconds 20

Runs are sequential, each in a fresh process.  For every metric it prints the
median, the first and third quartiles (statistics.quantiles, n=4) and their
distance as a share of the median, plus the failed share of operations, and
writes the raw results to perfbench/out/steadiness-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    results = []
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            check=True, capture_output=True, text=True, timeout=180,
        )
        result = json.loads(out.stdout.strip().splitlines()[-1])
        results.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} "
              + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)

    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed share: {sorted(shares)}; correct in every run: {all(r['correct'] for r in results)}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        spread = f"{(q3 - q1) / q2:.2%}" if q2 else "-"
        print(f"{name:24s} median {q2:.5g}  q1 {q1:.5g}  q3 {q3:.5g}  spread {spread}")
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"steadiness-{args.workload}.json").write_text(json.dumps(results, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
