"""One benchmark run of one workload, in its own process.

``run.py`` starts this script so that the workload process's peak resident
set is not mixed with the set-up probes.
It prints one JSON object on its last line of standard output.

    PYTHONPATH=src python3 bench/worker.py --workload NAME --seed N \
        --seconds S --trace 0|1 --outdir DIR
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import control
import workloads
from tracing import Tracer, hooks, layer_metrics, pool_counter

MIN_ROUNDS = 3
TRACE_PAIRS = 2


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def peak_rss_mb() -> float:
    """Largest resident set of this process so far; untraced solves run in it."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_solve(w: workloads.Workload, seed: int, workers: int, outdir: Path):
    t0 = time.perf_counter()
    out = workloads.solve(w, seed, workers, outdir)
    return time.perf_counter() - t0, out


def measure(w: workloads.Workload, seed: int, seconds: float, outdir: Path) -> dict:
    """Untraced run on the run's ``w.inputs`` inputs (solve seeds).

    Solves every input once per round, serially in this process, in rounds
    until ``seconds`` have passed (at least MIN_ROUNDS rounds).  The control
    (control.py) runs before the first solve and after every solve, so each
    solve sits between two control runs on the same CPU.  A solve's relative
    time is its time over the mean of those two; an input's is the median
    over its rounds.  ``wall_s`` is the mean over inputs, in seconds at the
    control's nominal speed.  Every solve is checked, and the repeats of one
    input must write byte-identical data files.
    """
    seeds = [workloads.rep_seed(seed, i) for i in range(w.inputs)]
    times: dict = {s: [] for s in seeds}
    relative: dict = {s: [] for s in seeds}
    digests: dict = {s: set() for s in seeds}
    outcomes = []
    controls = [control.control_s()]
    start = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
        for s in seeds:
            wall, out = timed_solve(w, s, 1, outdir)
            controls.append(control.control_s())
            times[s].append(wall)
            relative[s].append(wall / statistics.mean(controls[-2:]))
            digests[s].add(tuple(sha256(f) for f in out.files))
            outcomes.append(out)
        rounds += 1
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    reasons = [r for o in outcomes for r in o.reasons]
    for s in seeds:
        if len(digests[s]) != 1:
            failed += 1
            reasons.append(f"solve seed {s}: data files differ between repeats")
    wall = control.NOMINAL_S * statistics.mean(statistics.median(relative[s]) for s in seeds)
    work = sum(o.work for o in outcomes[:len(seeds)])
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "wall_s": wall,
            "peak_rss_mb": peak_rss_mb(),
            "ok_frac": (attempted - failed) / attempted,
        },
        "solves": len(outcomes),
        "rounds": rounds,
        "median_s": [statistics.median(times[s]) for s in seeds],
        "control_median_s": statistics.median(controls),
        "rate": f"{work / (wall * len(seeds)):.6g} {w.work_unit}/s",
        "reasons": reasons[:20],
        "files": {f.name: sha256(f) for o in outcomes[:len(seeds)] for f in o.files},
    }


def measure_traced(w: workloads.Workload, seed: int, outdir: Path) -> dict:
    """Traced run on solve 0's seed.

    One untraced solve with the workload's workers gives the Pool counts and
    the efficiency baseline.  Then TRACE_PAIRS pairs of an untraced and a
    traced serial solve: the difference of their medians is the tracing
    overhead, and the traced solves must repeat every count exactly.
    """
    s = workloads.rep_seed(seed, 0)
    runs = []

    def run(name: str, workers: int) -> None:
        (outdir / name).mkdir(parents=True, exist_ok=True)
        wall, out = timed_solve(w, s, workers, outdir / name)
        runs.append((name, wall, out, [sha256(f) for f in out.files]))

    pools: dict = {}
    if w.workers > 1:
        with pool_counter(pools):
            run("parallel", w.workers)
    tracers = []
    for i in range(TRACE_PAIRS):
        run("serial", 1)
        tracers.append(Tracer(run_id=f"{w.name}-{s}-{i}"))
        with hooks(tracers[-1]):
            run("traced", 1)
    walls = {k: statistics.median(r[1] for r in runs if r[0] == k)
             for k in dict.fromkeys(r[0] for r in runs)}
    outs = [r[2] for r in runs]
    attempted = sum(o.attempted for o in outs)
    failed = sum(o.failed for o in outs)
    reasons = [r for o in outs for r in o.reasons]
    if len({tuple(r[3]) for r in runs}) != 1:
        failed += 1
        reasons.append("data files differ between solves: "
                       + "; ".join(f"{r[0]} {r[3]}" for r in runs))
    if any(t.counts() != tracers[0].counts() for t in tracers):
        failed += 1
        reasons.append("counts differ between identical traced solves")
    data_bytes = sum(f.stat().st_size for f in outs[-1].files)
    metrics = layer_metrics(tracers[0], w.workers, walls["serial"], walls.get("parallel", 0.0),
                            pools, data_bytes, walls["traced"] - walls["serial"])
    spans_file = outdir / "spans.jsonl"
    tracers[0].write_spans(spans_file)
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "walls": walls,
        "self_times": tracers[0].self_times(),
        "spans_file": str(spans_file),
        "reasons": reasons[:20],
        "files": {r[0]: r[3] for r in runs},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--outdir", type=Path, required=True)
    args = ap.parse_args(argv)

    import numpy
    import scipy
    import zhangpile

    w = workloads.WORKLOADS[args.workload]
    if args.trace:
        res = measure_traced(w, args.seed, args.outdir)
    else:
        res = measure(w, args.seed, args.seconds, args.outdir)
    res["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                       "scipy": scipy.__version__, "zhangpile": zhangpile.__version__,
                       "zhangpile_file": zhangpile.__file__}
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
