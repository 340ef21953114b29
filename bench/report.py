"""Run every workload of the benchmark and print its end-to-end metrics.

    python3 bench/report.py [--seeds 1,2,3] [--seconds 20] [--workloads a,b]

Run from the root of a source checkout.  For each workload it runs
``bench/run.py`` once per seed (tracing off) and prints, per end-to-end
metric, the median over seeds, the quartiles, and their distance as a share
of the median, plus fail_frac over every operation attempted.  With one
seed the quartiles collapse onto the single value.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
from workloads import WORKLOADS  # noqa: E402


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and (q3 - q1) / median."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1", help="comma list of workload seeds")
    ap.add_argument("--seconds", type=float,
                    default=json.loads(Path("BENCHMARK.json").read_text())["run_seconds"])
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    rc = 0
    for w in args.workloads.split(","):
        results = []
        for seed in seeds:
            p = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", w,
                                "--seed", str(seed), "--seconds", str(args.seconds),
                                "--trace", "0"], capture_output=True, text=True)
            if p.returncode != 0:
                print(f"{w} seed {seed}: exit {p.returncode}\n{p.stderr}", file=sys.stderr)
                rc = 1
                continue
            results.append(json.loads(p.stdout.strip().splitlines()[-1]))
        if not results:
            continue
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"{w}: {len(results)} runs, seeds {args.seeds}")
        for name, m in results[0]["metrics"].items():
            med, q1, q3, sp = spread([r["metrics"][name]["value"] for r in results])
            print(f"  {name:12s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {sp:6.2%}  {m['unit']}")
        print(f"  {'fail_frac':12s} {failed / attempted:.6g} ratio ({failed}/{attempted})")
    return rc


if __name__ == "__main__":
    sys.exit(main())
