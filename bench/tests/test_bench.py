"""Tests of the benchmark itself: every declared metric is emitted with its
unit, and every output check can fail.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

import control  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from zhangpile import chain, coupling, lattice  # noqa: E402

TINY = {
    "chain-stationary": {"burn_in": 1_000, "samples": 5_000},
    "couple-verify": {"seeds": 2, "post_merge_steps": 200},
    "lattice-settle": {"side": 16, "replicas": 2},
    "lattice-active": {"side": 8, "tmax": 5.0, "replicas": 2},
}


def tiny(name: str) -> workloads.Workload:
    w = workloads.WORKLOADS[name]
    return dataclasses.replace(w, params={**w.params, **TINY[name]}, inputs=2)


def test_workloads_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in workloads.WORKLOADS.values()]


@pytest.mark.parametrize("name", list(TINY))
def test_every_metric_emitted_with_unit(name, tmp_path):
    w = tiny(name)
    (tmp_path / "untraced").mkdir()
    untraced = worker.measure(w, seed=1, seconds=0.0, outdir=tmp_path / "untraced")
    traced = worker.measure_traced(w, seed=1, outdir=tmp_path / "traced")
    assert untraced["failed"] == 0 and traced["failed"] == 0, \
        untraced["reasons"] + traced["reasons"]
    for trace, res, extra in ((0, untraced, {"setup_s": 1.0}), (1, traced, {})):
        metrics = run.with_units({**extra, **res["metrics"]}, run.declared_units(ROOT, trace))
        for m in metrics.values():
            assert m["unit"] and math.isfinite(m["value"])
    assert (tmp_path / "traced" / "spans.jsonl").stat().st_size > 0


def test_wall_is_the_median_time_relative_to_the_controls_around_each_solve(tmp_path):
    walls = iter([3.0, 5.0, 1.0, 4.0, 2.0, 6.0])   # rounds of (input 0, input 1)
    controls = iter([1.0, 3.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    out = workloads.Outcome(1, 0, 1.0)
    with mock.patch.object(worker, "timed_solve", lambda *args: (next(walls), out)), \
            mock.patch.object(control, "control_s", lambda: next(controls) * control.NOMINAL_S):
        res = worker.measure(tiny("chain-stationary"), seed=1, seconds=0.0, outdir=tmp_path)
    # in units of the control's nominal time, the relative times are
    # input 0 (3/2, 1, 2) and input 1 (5/2, 4, 6), with medians 1.5 and 4
    assert res["rounds"] == 3 and res["median_s"] == [2.0, 5.0]
    assert res["metrics"]["wall_s"] == pytest.approx(2.75)


def test_setup_seconds_times_the_cli_import_next_to_its_control():
    [(ctl, probe)] = run.setup_times(run.source_env(ROOT), runs=1)
    assert ctl > 0 and probe > 0


def test_run_fails_without_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run([sys.executable, "bench/run.py", "--workload", "couple-verify",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0 and p.stdout == ""


# -- every check can fail, and each failure counts in fail_frac ----------------

def test_nan_residual_fails_its_replica(tmp_path):
    real = lattice.mass_identity_check
    calls = []

    def first_nan(*args):
        calls.append(1)
        return math.nan if len(calls) == 1 else real(*args)

    # the CLI's own torus gate uses '>' and lets this NaN through
    with mock.patch.object(lattice, "mass_identity_check", first_nan):
        out = workloads.solve(tiny("lattice-active"), 1, 1, tmp_path)
    assert out.attempted == 8 and out.failed == 1
    assert "mass residual nan" in out.reasons[0]


def test_unmerged_seed_fails(tmp_path):
    real = coupling.coupling_sweep

    def one_unmerged(*args, **kwargs):
        res = real(*args, **kwargs)
        res[0] = dataclasses.replace(res[0], merged=False)
        return res

    with mock.patch.object(coupling, "coupling_sweep", one_unmerged):
        out = workloads.solve(tiny("couple-verify"), 1, 1, tmp_path)
    assert out.attempted == 2 and out.failed == 1
    assert "did not merge" in out.reasons[0]


def test_chain_mean_off_by_a_tenth_fails(tmp_path):
    real = chain.MarginalStats.mean

    def shifted(self):
        m = real.fget(self).copy()
        m[3] += 0.1
        return m

    with mock.patch.object(chain.MarginalStats, "mean", property(shifted)):
        out = workloads.solve(tiny("chain-stationary"), 1, 1, tmp_path)
    assert out.attempted == 1 and out.failed == 1
    assert out.reasons[0].startswith("site 4:")


def test_repeats_that_differ_fail(tmp_path):
    digests = iter(range(100))
    with mock.patch.object(worker, "sha256", lambda path: str(next(digests))):
        res = worker.measure(tiny("chain-stationary"), seed=1, seconds=0.0, outdir=tmp_path)
    assert res["attempted"] == 6 and res["failed"] == 2
    assert all("differ between repeats" in r for r in res["reasons"])


@pytest.mark.parametrize("bad", [math.nan, 0.7 + 0.051, 0.7 - 0.1])
def test_chain_mean_check(bad):
    assert workloads.check_chain_means([0.7] * 29 + [bad], 30)
    assert not workloads.check_chain_means([0.7] * 30, 30)
    assert workloads.check_chain_means([0.7] * 29, 30)


def test_coupling_checks():
    ok = coupling.CouplingResult(seed=1, merged=True, merge_time=10, restarts=0,
                                 phase_times=[1, 2, 3], steps=10, final_merging_steps=2,
                                 post_merge_identical=True)
    assert not workloads.check_coupling_result(ok, window=2)
    for change in ({"post_merge_identical": False}, {"post_merge_identical": None},
                   {"final_merging_steps": 3}, {"final_merging_steps": None},
                   {"final_merging_steps": math.nan}):
        assert workloads.check_coupling_result(dataclasses.replace(ok, **change), window=2)


def test_verdict_checks_and_tally():
    good = {"replica": 0, "outcome": "stabilized", "mass_residual": "1e-15"}
    bad = [dict(good, outcome="active-at-cutoff"), dict(good, mass_residual="nan"),
           dict(good, mass_residual="2e-9"), dict(good, mass_residual="")]
    per_op = [workloads.check_verdict_row(r, "stabilized") for r in [good] + bad]
    assert per_op[0] == [] and all(per_op[1:])
    failed, reasons = workloads.tally(6, per_op)
    assert failed == 5 and "1 operations produced no result" in reasons[-1]
