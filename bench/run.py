"""zhangpile benchmark: one run of one workload, from the root of a source checkout.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

It imports the package from ``src/`` of the current directory and exits 2
without a result when that tree is missing.  With ``--trace 0`` it measures
the end-to-end metrics declared in BENCHMARK.json (set-up time, then the
workload's fixed spec repeated for S seconds in a worker process); with
``--trace 1`` it makes the traced serial run and reports the per-layer
metrics.  Outputs, spans and a provenance record go to
``.bench_out/<workload>-seed<N>-trace<T>/``.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import control
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
SETUP_RUNS = 3          # before and again after the workload
WORKER_TIMEOUT_S = 150.0
SETUP_TIMEOUT_S = 30.0


class BenchError(RuntimeError):
    pass


def run_bounded(cmd: list[str], env: dict, timeout: float) -> tuple[int, str, str]:
    """Run ``cmd`` in its own process group; kill the whole group on timeout."""
    p = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True, start_new_session=True)
    try:
        out, err = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{cmd[1]} exceeded {timeout:.0f}s") from None
    finally:
        if p.poll() is None:    # timed out, or this process is being stopped
            os.killpg(p.pid, signal.SIGKILL)
            p.communicate()
    return p.returncode, out, err


def source_env(root: Path) -> dict:
    """Environment that imports zhangpile from ``root/src``, and only from there."""
    if not (root / "src" / "zhangpile" / "__init__.py").is_file():
        raise BenchError(f"no zhangpile source tree under {root / 'src'}")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def setup_times(env: dict, runs: int) -> list[tuple[float, float]]:
    """(control, probe) time pairs.  A probe is a fresh interpreter getting
    ``zhangpile.cli`` imported and answering (``python3 -m zhangpile.cli
    --version``); its control, run just before it, imports numpy and
    scipy.sparse in a fresh interpreter."""
    probe = [sys.executable, "-m", "zhangpile.cli", "--version"]
    pairs = []
    for _ in range(runs):
        pair = []
        for cmd in ([sys.executable, *control.SETUP_CONTROL], probe):
            t0 = time.perf_counter()
            rc, out, err = run_bounded(cmd, env, SETUP_TIMEOUT_S)
            if rc != 0:
                raise BenchError(f"{' '.join(cmd[1:])} exit {rc}: {err.strip()}")
            pair.append(time.perf_counter() - t0)
        pairs.append(tuple(pair))
    return pairs


def git_commit(root: Path, env: dict) -> str:
    """HEAD commit of ``root``; 'unknown' outside a git checkout."""
    cmd = ["git", "--git-dir", str(root / ".git"), "rev-parse", "HEAD"]
    try:
        rc, out, _ = run_bounded(cmd, env, SETUP_TIMEOUT_S)
    except (OSError, BenchError):
        return "unknown"
    return out.strip() if rc == 0 else "unknown"


def source_digest(root: Path) -> str:
    """sha256 over the package sources, naming the code even without git."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def provenance(root: Path, env: dict, args, versions: dict) -> dict:
    return {"commit": git_commit(root, env), "source_sha256": source_digest(root),
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu_model(), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, **versions}


def declared_units(root: Path, trace: int) -> dict[str, str]:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def with_units(values: dict, units: dict) -> dict:
    if set(values) != set(units):
        raise BenchError(f"metrics {sorted(set(values) ^ set(units))} emitted "
                         "and declared differently")
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def run(args) -> dict:
    root = Path.cwd()
    env = source_env(root)
    units = declared_units(root, args.trace)
    outdir = root / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    setup = []
    if not args.trace:
        setup_times(env, 1)     # warm-up: writes the bytecode caches
        setup += setup_times(env, SETUP_RUNS)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--outdir", str(outdir)]
    rc, out, err = run_bounded(cmd, env, WORKER_TIMEOUT_S)
    lines = out.strip().splitlines()
    if rc != 0 or not lines:
        raise BenchError(f"worker exit {rc}: {err.strip()[-2000:]}")
    res = json.loads(lines[-1])
    values = {}
    if not args.trace:
        # probes on both sides of the workload, each next to its control
        setup += setup_times(env, SETUP_RUNS)
        res["setup_pairs_s"] = setup
        values["setup_s"] = control.SETUP_NOMINAL_S * statistics.median(
            probe / ctl for ctl, probe in setup)
    if not res["versions"]["zhangpile_file"].startswith(str(root / "src")):
        raise BenchError(f"zhangpile imported from {res['versions']['zhangpile_file']}")
    values.update(res.pop("metrics"))
    res["provenance"] = provenance(root, env, args, res.pop("versions"))
    res["metrics"] = with_units(values, units)
    (outdir / "result.json").write_text(json.dumps(res, indent=1) + "\n")
    return res


def summary(args, res: dict) -> list[str]:
    """Human-readable lines printed above the result line."""
    m = res["metrics"]
    fail_frac = res["failed"] / res["attempted"]
    lines = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}"]
    if args.trace:
        w = res["walls"]
        lines.append("walls: " + "  ".join(f"{k} {v:.3f} s" for k, v in w.items()))
        lines.append(f"{'span':22s} {'calls':>7s} {'total_s':>10s} {'self_s':>10s}")
        for name, d in sorted(res["self_times"].items()):
            lines.append(f"{name:22s} {d['calls']:7d} {d['total_s']:10.4f} {d['self_s']:10.4f}")
        lines.append(f"spans: {res['spans_file']}")
    else:
        lines.append(f"solves {res['solves']} in {res['rounds']} rounds  raw median per "
                     "input " + " ".join(f"{t:.4f}" for t in res["median_s"])
                     + f" s  rate {res['rate']}")
        lines.append(f"control median {res['control_median_s']:.4f} s (nominal "
                     f"{control.NOMINAL_S} s); set-up (control, probe) pairs "
                     + " ".join(f"({c:.3f}, {p:.3f})" for c, p in res["setup_pairs_s"]))
    lines += [f"  {k:28s} {v['value']:.6g} {v['unit']}" for k, v in m.items()]
    lines.append(f"  {'fail_frac':28s} {fail_frac:.6g} ratio "
                 f"({res['failed']}/{res['attempted']} operations)")
    lines += [f"  failure: {r}" for r in res["reasons"]]
    lines.append("provenance: " + json.dumps(res["provenance"], sort_keys=True))
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so run_bounded stops the worker and its pool
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        res = run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print("\n".join(summary(args, res)))
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": res["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
