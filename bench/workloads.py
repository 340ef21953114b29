"""Workloads of the zhangpile benchmark: fixed specs, one solve each, output checks.

A *solve* runs one workload's fixed spec end to end and checks its output.
It is made of *operations*, the units that can fail: one chain run, one
coupling seed, or one lattice replica.  An operation fails on a non-zero
exit, a broken invariant gate, or a result outside its envelope.

Every bound is written ``not (x <= tol)`` so that a NaN counts as a failure.
The program's own gates use ``>`` and let NaN through; the benchmark must not
inherit that hole.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import traceback
from dataclasses import dataclass, field
from pathlib import Path

CHAIN_MEAN = 0.7          # stationary site mean at a=0.6, b=0.8 (criterion 09)
CHAIN_MEAN_TOL = 0.05     # its mean clause only; the variance clause is unreachable
RESIDUAL_TOL = 1e-9       # the CLI's torus conservation tolerance


def rep_seed(seed: int, rep: int) -> int:
    """Seed of solve number ``rep`` in a benchmark run started with ``seed``."""
    return seed * 10_000 + rep


@dataclass
class Outcome:
    """What one solve did: operations attempted and failed, work done, files written."""

    attempted: int
    failed: int
    work: float
    files: list = field(default_factory=list)
    reasons: list = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str             # chain | couple | lattice
    params: dict
    work_unit: str        # unit of Outcome.work, for the printed rate
    workers: int = 1      # pool width of the traced run's parallel solve
    inputs: int = 1       # solve seeds per untraced run, each solved once a round


# ---------------------------------------------------------------------------
# output checks (NaN-safe)
# ---------------------------------------------------------------------------

def check_chain_means(means, n: int) -> list[str]:
    """Reasons the chain run's site means leave the envelope; empty if none."""
    if len(means) != n:
        return [f"expected {n} site rows, got {len(means)}"]
    return [f"site {i + 1}: mean {m!r} not within {CHAIN_MEAN_TOL} of {CHAIN_MEAN}"
            for i, m in enumerate(means)
            if not (abs(m - CHAIN_MEAN) <= CHAIN_MEAN_TOL)]


def check_coupling_result(r, window: int) -> list[str]:
    """Reasons one coupling seed failed: not merged, diverged after merging,
    or merged outside the ``(n-1)*ceil(1/(a+b))`` window."""
    if not r.merged:
        return [f"seed {r.seed}: did not merge"]
    out = []
    if r.post_merge_identical is not True:
        out.append(f"seed {r.seed}: not identical after merging")
    if r.final_merging_steps is None or not (r.final_merging_steps <= window):
        out.append(f"seed {r.seed}: merge took {r.final_merging_steps} steps > {window}")
    return out


def check_verdict_row(row: dict, outcome: str) -> list[str]:
    """Reasons one lattice replica row failed its expected outcome or its
    mass residual gate.  The CLI gates the residual on tori only; the
    identity holds on boxes too, so the benchmark gates both."""
    out = []
    if row.get("outcome") != outcome:
        out.append(f"replica {row.get('replica')}: outcome {row.get('outcome')!r} != {outcome!r}")
    try:
        resid = float(row.get("mass_residual"))
    except (TypeError, ValueError):
        resid = math.nan
    if not (resid <= RESIDUAL_TOL):
        out.append(f"replica {row.get('replica')}: mass residual {resid!r} > {RESIDUAL_TOL}")
    return out


def tally(attempted: int, per_op_reasons: list[list[str]]) -> tuple[int, list[str]]:
    """Failed operations and their reasons; missing operations count as failed."""
    failed = sum(1 for r in per_op_reasons if r) + max(0, attempted - len(per_op_reasons))
    reasons = [msg for r in per_op_reasons for msg in r]
    if len(per_op_reasons) < attempted:
        reasons.append(f"{attempted - len(per_op_reasons)} operations produced no result")
    return failed, reasons


# ---------------------------------------------------------------------------
# solves
# ---------------------------------------------------------------------------

def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run ``zhangpile.cli.main`` in-process; returns (exit code, stderr text)."""
    from zhangpile import cli

    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, err.getvalue()


def read_rows(path: Path) -> list[dict]:
    """Rows of a CSV data file, after its spec-echo line."""
    with open(path, newline="") as f:
        f.readline()
        return list(csv.DictReader(f))


def solve_chain(p: dict, seed: int, workers: int, outdir: Path) -> Outcome:
    out = outdir / f"chain-{seed}.csv"
    argv = ["finite-run", "--n", str(p["n"]), "--a", str(p["a"]), "--b", str(p["b"]),
            "--burn-in", str(p["burn_in"]), "--samples", str(p["samples"]),
            "--seed", str(seed), "--out", str(out)]
    rc, err = run_cli(argv)
    if rc != 0:
        return Outcome(1, 1, 0.0, [], [f"finite-run exit {rc}: {err.strip()}"])
    reasons = check_chain_means([float(r["mean"]) for r in read_rows(out)], p["n"])
    return Outcome(1, int(bool(reasons)), float(p["burn_in"] + p["samples"]), [out], reasons)


def solve_couple(p: dict, seed: int, workers: int, outdir: Path) -> Outcome:
    # Driven through the library: the CLI's couple command has no post-merge
    # check.  The records go through RunRecord as the CLI writes them.
    import zhangpile
    from zhangpile import coupling, runio

    k = p["seeds"]
    seeds = range(seed * k, seed * k + k)
    out = outdir / f"couple-{seed}.jsonl"
    try:
        results = coupling.coupling_sweep(
            p["n"], p["a"], p["b"], seeds, p["max_steps"], workers=workers,
            post_merge_steps=p["post_merge_steps"])
    except Exception as exc:  # any crash fails every seed of the solve
        return Outcome(k, k, 0.0, [], [traceback.format_exception_only(exc)[-1].strip()])
    spec = runio.make_spec("couple", n=p["n"], a=p["a"], b=p["b"], seed0=seeds.start,
                           seeds=k, max_steps=p["max_steps"], init_a="random",
                           init_b="random", post_merge_steps=p["post_merge_steps"])
    records = [dict(r.to_record(), final_merging_steps=r.final_merging_steps,
                    post_merge_identical=r.post_merge_identical) for r in results]
    with open(out, "w", newline="") as f:
        runio.RunRecord(spec=spec, version=zhangpile.__version__, seed=seeds.start,
                        records=records).write(f, "jsonl")
    window = (p["n"] - 1) * math.ceil(1 / (p["a"] + p["b"]))
    failed, reasons = tally(k, [check_coupling_result(r, window) for r in results])
    return Outcome(k, failed, float(k - failed), [out], reasons)


def solve_lattice(p: dict, seed: int, workers: int, outdir: Path) -> Outcome:
    gens = p["gens"]
    rhos = p["rhos"]
    grid = len(gens) * len(rhos)
    attempted = grid * p["replicas"]
    out = outdir / f"{p['command']}-{seed}.csv"
    argv = [p["command"], "--d", str(p["d"]), "--side", str(p["side"]),
            "--boundary", p["boundary"], "--gen", ",".join(gens),
            "--rho", ",".join(str(r) for r in rhos), "--tmax", str(p["tmax"]),
            "--replicas", str(p["replicas"]), "--workers", str(workers),
            "--seed", str(seed), "--out", str(out)]
    rc, err = run_cli(argv)
    if rc != 0:
        return Outcome(attempted, attempted, 0.0, [],
                       [f"{p['command']} exit {rc}: {err.strip()}"])
    rows = read_rows(out)
    failed, reasons = tally(attempted, [check_verdict_row(r, p["outcome"]) for r in rows])
    # simulated site*time: a stabilized replica ends at t_stab, an active one at tmax
    sites = p["side"] ** p["d"]
    work = sum(sites * (float(r["t_stab"]) if r["t_stab"] else p["tmax"]) for r in rows)
    return Outcome(attempted, failed, work, [out], reasons)


SOLVERS = {"chain": solve_chain, "couple": solve_couple, "lattice": solve_lattice}


def solve(w: Workload, seed: int, workers: int, outdir: Path) -> Outcome:
    """Run one solve of ``w`` with the given seed and worker count."""
    return SOLVERS[w.kind](w.params, seed, workers, outdir)


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------

WORKLOADS = {w.name: w for w in [
    Workload(
        "chain-stationary",
        "finite-run at N=30: core relaxation (mean avalanche ~83 topplings) and "
        "MarginalStats in one single-process CLI run",
        "chain",
        {"n": 30, "a": 0.6, "b": 0.8, "burn_in": 1_000, "samples": 6_000},
        "chain steps", inputs=4),
    Workload(
        "couple-verify",
        "coupling_sweep n=3, 2 seeds x 1e5 post-merge steps: per-step Python "
        "overhead, restarts and the post-merge check over heavy-tailed merge times",
        "couple",
        {"n": 3, "a": 0.2, "b": 0.9, "seeds": 2, "max_steps": 1_000_000,
         "post_merge_steps": 100_000},
        "verified merges", workers=2, inputs=8),
    Workload(
        "lattice-settle",
        "infinite on a 48^2 box at iid rho=0.6: every replica stabilizes and ~98% "
        "of rings hit stable sites",
        "lattice",
        {"command": "infinite", "d": 2, "side": 48, "boundary": "box",
         "gens": ["iid"], "rhos": [0.6], "tmax": 1000.0, "replicas": 2,
         "outcome": "stabilized"},
        "site*time", workers=2, inputs=16),
    Workload(
        "lattice-active",
        "sweep on a 32^2 torus, 2 generators x 2 supercritical densities: dense "
        "unstable set, conservation gate and snapshots on every replica",
        "lattice",
        {"command": "sweep", "d": 2, "side": 32, "boundary": "torus",
         "gens": ["constant", "iid"], "rhos": [1.05, 1.1], "tmax": 50.0,
         "replicas": 2, "outcome": "active-at-cutoff"},
        "site*time", workers=2, inputs=4),
]}
