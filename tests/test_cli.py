import argparse
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import zhangpile
import zhangpile.chain as chain
import zhangpile.cli as cli
import zhangpile.core as core
import zhangpile.coupling as coupling
import zhangpile.lattice as lattice
from zhangpile.cli import main
from zhangpile.runio import (
    _fmt_cell,
    echo_line,
    make_spec,
    parse_echo,
    write_csv,
)

TABLE1 = "0,0,1.4,1.2,0,0"


def _parse_stabilize_line(path):
    heights_str, counts_str = path.read_text().strip().split(" / ")
    return ([float(v) for v in heights_str.split(",")],
            [int(v) for v in counts_str.split(",")])


def test_stabilize_table1_rows(tmp_path):
    cases = {
        "left": ([0, 0.7, 0.95, 0, 0.95, 0], [0, 0, 1, 1, 0, 0]),
        "right": ([0.5, 0.5, 0.525, 0, 0.525, 0.55], [0, 1, 2, 3, 1, 0]),
        "parallel": ([0, 0.7, 0.6, 0.7, 0.6, 0], [0, 0, 1, 1, 0, 0]),
    }
    for policy, (want_h, want_c) in cases.items():
        out = tmp_path / f"{policy}.txt"
        rc = main(["stabilize", "--chain", TABLE1, "--policy", policy,
                   "--out", str(out)])
        assert rc == 0
        heights, counts = _parse_stabilize_line(out)
        assert np.allclose(heights, want_h, atol=1e-12)
        assert counts == want_c


def test_stabilize_from_file(tmp_path):
    infile = tmp_path / "config.txt"
    infile.write_text("0.2 0.9 1.3\n")
    out = tmp_path / "out.txt"
    assert main(["stabilize", "--infile", str(infile), "--out", str(out)]) == 0
    heights, counts = _parse_stabilize_line(out)
    assert np.allclose(heights, [0.2, 1.55, 0.0], atol=1e-12) or counts[2] >= 1


def test_stabilize_parse_error_exits_1(tmp_path):
    assert main(["stabilize", "--chain", "0.2,oops"]) == 1
    assert main(["stabilize"]) == 1                      # neither source given
    assert main(["stabilize", "--chain", "0.5", "--policy", "bogus"]) == 1


def test_unknown_flag_exits_1():
    assert main(["stabilize", "--chain", "0.1", "--frobnicate"]) == 1


def test_missing_required_exits_1():
    assert main(["finite-run", "--a", "0.2", "--b", "0.9"]) == 1


def test_finite_run_header_only_when_no_samples(tmp_path):
    out = tmp_path / "stats.csv"
    rc = main(["finite-run", "--n", "3", "--a", "0.2", "--b", "0.9",
               "--samples", "0", "--out", str(out), "--seed", "5"])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 2                               # echo + column header
    assert lines[0].startswith("# ")
    assert lines[1].startswith("site,mean,var,hist_bin_0")


def test_finite_run_reproducible_and_echo_roundtrip(tmp_path):
    args = ["finite-run", "--n", "4", "--a", "0.3", "--b", "0.8",
            "--burn-in", "50", "--samples", "500", "--bins", "16",
            "--seed", "7"]
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = parse_echo(out1.read_text().split("\n", 1)[0])
    assert payload["spec"]["subcommand"] == "finite-run"
    assert payload["spec"]["params"]["n"] == 4
    assert payload["spec"]["params"]["seed"] == 7
    assert "version" in payload
    lines = out1.read_text().strip().split("\n")
    assert len(lines) == 2 + 4                           # echo, header, 4 sites
    first = lines[2].split(",")
    assert first[0] == "1"
    hist_total = sum(int(v) for v in first[3:])
    assert hist_total == 500


def test_finite_run_events_out(tmp_path):
    out = tmp_path / "stats.csv"
    events = tmp_path / "events.jsonl"
    rc = main(["finite-run", "--n", "3", "--a", "0.2", "--b", "0.9",
               "--burn-in", "100", "--samples", "50", "--seed", "3",
               "--out", str(out), "--events-out", str(events)])
    assert rc == 0
    lines = events.read_text().strip().split("\n")
    header = json.loads(lines[0])
    assert header["spec"]["subcommand"] == "finite-run"
    recs = [json.loads(line) for line in lines[1:]]
    assert len(recs) == 150                    # burn-in plus sampling events
    assert [r["t"] for r in recs] == list(range(1, 151))
    assert all({"t", "site", "amount", "avalanche_size"} <= set(r) for r in recs)
    for r in recs:
        assert 1 <= r["site"] <= 3
        assert 0.2 <= r["amount"] <= 0.9
        assert r["avalanche_size"] >= 0


def test_finite_run_events_file_opens_after_the_allocation(tmp_path, monkeypatch, capsys):
    # the events file and its echo line were written before the statistics
    # were allocated, so a run too large to allocate left them behind
    def no_memory(*args, **kwargs):
        raise MemoryError

    argv = ["finite-run", "--n", "3", "--a", "0.2", "--b", "0.9",
            "--events-out", str(tmp_path / "events.jsonl"), "--out", str(tmp_path / "out")]
    with monkeypatch.context() as m:
        m.setattr(chain, "MarginalStats", no_memory)
        assert main(argv + ["--samples", "10"]) == 1
    assert "out of memory" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == []
    # a run of no steps still writes the echo line
    assert main(argv + ["--samples", "0"]) == 0
    lines = (tmp_path / "events.jsonl").read_text().splitlines()
    assert len(lines) == 1 and parse_echo(lines[0])["spec"]["params"]["samples"] == 0


def test_couple_identical_starts(tmp_path):
    out = tmp_path / "couple.jsonl"
    rc = main(["couple", "--n", "3", "--a", "0.2", "--b", "0.9",
               "--seeds", "3", "--max-steps", "100",
               "--init-a", "0.1,0.5,0.6", "--init-b", "0.1,0.5,0.6",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    header = json.loads(lines[0])
    assert header["spec"]["subcommand"] == "couple"
    recs = [json.loads(line) for line in lines[1:]]
    assert len(recs) == 3
    for rec in recs:
        assert set(rec) == {"seed", "merged", "merge_time", "restarts",
                            "phase_times"}
        assert rec["merged"] is True and rec["merge_time"] == 0


def test_couple_reproducible_bytes(tmp_path):
    args = ["couple", "--n", "3", "--a", "0.2", "--b", "0.9", "--seeds", "4",
            "--max-steps", "5000", "--seed0", "20"]
    out1, out2 = tmp_path / "c1.jsonl", tmp_path / "c2.jsonl"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2), "--workers", "2"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("argv, jobs", [
    (["couple", "--n", "3", "--a", "0.2", "--b", "0.9", "--seeds", "2",
      "--max-steps", "5000"], 2),
    (["infinite", "--d", "1", "--side", "8", "--gen", "iid", "--rho", "0.5",
      "--tmax", "5", "--replicas", "2"], 2),
    (["sweep", "--d", "1", "--side", "8", "--gen", "iid", "--rho", "0.5,0.6",
      "--tmax", "5", "--replicas", "2"], 4),
])
def test_pool_is_no_wider_than_its_jobs(tmp_path, monkeypatch, argv, jobs):
    # a pool opens one worker per job at most; a recording stand-in for Pool
    # runs the jobs in this process, and the bytes are those of one worker
    opened = []

    class RecordingPool:
        def __init__(self, processes):
            self.processes = processes

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=None):
            opened.append((self.processes, len(items), chunksize))
            return [fn(x) for x in items]

    monkeypatch.setattr(coupling, "Pool", RecordingPool)
    monkeypatch.setattr(lattice, "Pool", RecordingPool)
    serial, pooled = tmp_path / "serial", tmp_path / "pooled"
    assert main(argv + ["--out", str(serial)]) == 0
    assert opened == []
    for workers in (3, 8):
        assert main(argv + ["--out", str(pooled), "--workers", str(workers)]) == 0
        assert pooled.read_bytes() == serial.read_bytes()
    # coupling_sweep sizes its chunks from the width; stabilizability_sweep leaves
    # it to map
    chunk = 1 if argv[0] == "couple" else None
    assert opened == [(min(3, jobs), jobs, chunk), (jobs, jobs, chunk)]


def test_finite_run_jsonl_format(tmp_path):
    out = tmp_path / "stats.jsonl"
    rc = main(["finite-run", "--n", "2", "--a", "0.2", "--b", "0.9",
               "--samples", "100", "--bins", "4", "--seed", "3",
               "--format", "jsonl", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    recs = [json.loads(line) for line in lines]
    assert recs[0]["spec"]["params"]["bins"] == 4
    assert recs[1]["site"] == 1 and recs[2]["site"] == 2
    assert sum(recs[1][f"hist_bin_{i}"] for i in range(4)) == 100


def test_couple_csv_format(tmp_path):
    out = tmp_path / "couple.csv"
    rc = main(["couple", "--n", "2", "--a", "0.5", "--b", "1.0",
               "--seeds", "2", "--max-steps", "2000", "--format", "csv",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[1].startswith("seed,merged,merge_time")
    assert len(lines) == 4


def test_infinite_stabilized_iid(tmp_path):
    out = tmp_path / "verdicts.csv"
    rc = main(["infinite", "--d", "1", "--side", "64", "--gen", "iid",
               "--rho", "0.4", "--tmax", "100", "--replicas", "3",
               "--seed", "11", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 2 + 3
    for line in lines[2:]:
        cells = line.split(",")
        assert cells[0] == "iid-uniform(0.4)"
        assert cells[1] == "torus:64"
        assert cells[4] == "stabilized"


def test_infinite_active_constant(tmp_path):
    out = tmp_path / "verdicts.csv"
    rc = main(["infinite", "--d", "1", "--side", "32", "--gen", "constant",
               "--rho", "1.1", "--tmax", "20", "--replicas", "2",
               "--seed", "13", "--out", str(out)])
    assert rc == 0
    for line in out.read_text().strip().split("\n")[2:]:
        assert line.split(",")[4] == "active-at-cutoff"


def test_infinite_reproducible_bytes(tmp_path):
    args = ["infinite", "--d", "2", "--side", "8", "--gen", "near-full",
            "--rho", "0.9", "--boundary", "box", "--tmax", "10",
            "--replicas", "2", "--seed", "17"]
    out1, out2 = tmp_path / "v1.csv", tmp_path / "v2.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2), "--workers", "2"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_infinite_save_final(tmp_path):
    out = tmp_path / "verdicts.csv"
    snap = tmp_path / "final.txt"
    rc = main(["infinite", "--d", "1", "--side", "16", "--gen", "constant",
               "--rho", "0.8", "--tmax", "5", "--seed", "19",
               "--out", str(out), "--save-final", str(snap)])
    assert rc == 0
    lines = snap.read_text().strip().split("\n")
    header = json.loads(lines[0].lstrip("# "))
    assert header["dim"] == 1 and header["sides"] == [16]
    values = [float(v) for v in lines[1:]]
    assert len(values) == 16
    assert values == [0.8] * 16                          # stable, never topples
    # a toppling run: the file holds replica 0's own final state and end time
    rc = main(["infinite", "--d", "1", "--side", "24", "--boundary", "box",
               "--gen", "iid", "--rho", "0.6", "--tmax", "50", "--replicas", "3",
               "--seed", "8", "--out", str(out), "--save-final", str(snap)])
    assert rc == 0
    lines = snap.read_text().strip().split("\n")
    header = json.loads(lines[0].lstrip("# "))
    values = np.array([float(v) for v in lines[1:]])
    # replica 0 of the one grid point: spawn key (0, 0)
    rng = np.random.default_rng(np.random.SeedSequence(8).spawn(1)[0].spawn(3)[0])
    config = lattice.generate(lattice.DensitySpec("iid", 0.6), (24,), "box", rng=rng)
    verdict, final, ledger = lattice.markov_run(config, t_max=50, rng=rng)
    assert verdict.events > 0                            # it did topple
    assert header["t"] == verdict.t_end
    assert np.array_equal(values, final.heights)


def test_infinite_jsonl_format(tmp_path):
    out = tmp_path / "verdicts.jsonl"
    rc = main(["infinite", "--d", "1", "--side", "32", "--gen", "iid",
               "--rho", "0.3", "--tmax", "10", "--replicas", "2",
               "--seed", "23", "--format", "jsonl", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    recs = [json.loads(line) for line in lines]
    assert recs[0]["spec"]["params"]["gen"]["kind"] == "iid-uniform"
    assert recs[1]["outcome"] == "stabilized"


def test_infinite_bad_params_exit_1(tmp_path):
    # checkerboard needs even torus sides
    assert main(["infinite", "--d", "2", "--side", "9", "--gen",
                 "checkerboard", "--rho", "0.55", "--tmax", "5"]) == 1
    assert main(["infinite", "--d", "1", "--side", "8", "--gen", "near-full",
                 "--rho", "0.2", "--tmax", "5"]) == 1


def test_sweep_single_point(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--d", "1", "--side", "32", "--gen", "iid",
               "--rho", "0.25", "--tmax", "20", "--replicas", "1",
               "--seed", "29", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 3                               # echo, header, 1 row
    payload = parse_echo(lines[0])
    assert payload["spec"]["params"]["rhos"] == [0.25]
    assert payload["spec"]["params"]["gens"] == ["iid"]


@pytest.mark.parametrize("spec", [
    "--d 1 --side 24 --boundary box --gen iid --rho 0.6 --tmax 50 --replicas 3 --seed 8",
    "--d 2 --side 6 --gen constant --rho 1.1 --tmax 5 --replicas 2 --seed 3",
])
def test_infinite_is_the_one_point_sweep(tmp_path, spec):
    # infinite seeded replica i with the spawn key (i,), a sweep with (0, i),
    # so the two drew other replicas from the same spec and seed
    rows = {}
    for cmd in ("infinite", "sweep"):
        out = tmp_path / f"{cmd}.jsonl"
        assert main([cmd, *spec.split(), "--format", "jsonl", "--out", str(out)]) == 0
        rows[cmd] = [json.loads(line) for line in out.read_text().splitlines()[1:]]
    shared = ["seed", "replica", "outcome", "t_stab", "min_M", "max_M", "dissipated",
              "min_m_slope", "mass_residual"]
    assert set(shared) == set(cli._LATTICE_COLUMNS["infinite"]) & set(
        cli._LATTICE_COLUMNS["sweep"])
    assert [[r[c] for c in shared] for r in rows["infinite"]] == \
        [[r[c] for c in shared] for r in rows["sweep"]]


def test_sweep_grid_rows_and_stabilized_fraction(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--d", "1", "--side", "32", "--gen", "iid",
               "--rho", "0.1,0.2,0.3,0.4,0.45", "--tmax", "50",
               "--replicas", "3", "--seed", "31", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 15
    assert all(r[7] == "stabilized" for r in rows)
    # deterministic row order: rho-major, replica-minor
    assert [float(r[1]) for r in rows[:4]] == [0.1, 0.1, 0.1, 0.2]


def test_conservation_gate_exits_2(tmp_path, monkeypatch, capsys, redirected_table):
    # force the torus conservation tolerance to an impossible value: the gate
    # must trip and the command must exit with the invariant-violation code
    monkeypatch.setattr(cli, "CONSERVATION_TOL", -1.0)
    rc = main(["infinite", "--d", "1", "--side", "16", "--gen", "constant",
               "--rho", "1.1", "--tmax", "2", "--seed", "37",
               "--out", str(tmp_path / "v.csv")])
    assert rc == 2
    # a box gates too: a wrong slot in the neighbour table both backends read
    monkeypatch.undo()
    monkeypatch.setattr(lattice, "_neighbor_arrays", redirected_table)
    for kernel in (None, core.chain_kernel()):
        monkeypatch.setattr(core, "_kernel", [kernel])
        capsys.readouterr()
        rc = main(["infinite", "--d", "2", "--side", "16", "--boundary", "box",
                   "--gen", "near-full", "--rho", "0.95", "--tmax", "20", "--seed", "3",
                   "--out", str(tmp_path / "v.csv")])
        assert rc == 2
        assert "dissipative-box conservation violated" in capsys.readouterr().err


def test_conservation_gate_trips_on_nan(tmp_path, monkeypatch):
    ok = {"mass_residual": 0.0, "mass_drift": 0.0, "mass": 1.0, "replica": 0}
    cli._check_conservation([ok], lattice.TORUS)
    for key in ("mass_residual", "mass_drift", "mass"):
        with pytest.raises(cli.ConservationError):
            cli._check_conservation([ok, dict(ok, replica=1, **{key: math.nan})],
                                    lattice.TORUS)
    # end to end: a NaN residual from the identity check exits 2, on the
    # Python loop and on the compiled kernel alike
    monkeypatch.setattr(lattice, "mass_identity_check", lambda *a: math.nan)
    for kernel in (None, core.chain_kernel()):
        monkeypatch.setattr(core, "_kernel", [kernel])
        rc = main(["infinite", "--d", "1", "--side", "16", "--gen", "constant",
                   "--rho", "1.1", "--tmax", "2", "--seed", "37",
                   "--out", str(tmp_path / "v.csv")])
        assert rc == 2


_HEAVY_TORUS = ["infinite", "--d", "2", "--side", "4", "--gen", "iid", "--rho", "1e7",
                "--tmax", "5", "--seed", "0"]


def test_conservation_gate_scales_with_the_mass(tmp_path, monkeypatch):
    # a mass of ~1.6e8 leaves rounding residuals near 1e-8, above the absolute
    # 1e-9 but far below 1e-9 of the mass; a residual of 1e-6 of the mass, or
    # one that is not finite, must still trip the gate
    argv = _HEAVY_TORUS + ["--out", str(tmp_path / "v.csv")]
    for kernel in (None, core.chain_kernel()):
        monkeypatch.setattr(core, "_kernel", [kernel])
        assert main(argv) == 0
    for scale, rc in ((math.nan, 2), (math.inf, 2), (1e-6, 2), (2e-9, 2), (0.5e-9, 0)):
        monkeypatch.setattr(lattice, "mass_identity_check",
                            lambda init, *rest, scale=scale: scale * init.total_mass())
        assert main(argv) == rc


def test_sweep_gate_names_the_first_failure_in_grid_order(tmp_path, monkeypatch, capsys):
    # the whole grid runs before the gate; it must still report the first
    # failing replica of the first failing grid point
    real = lattice._replica_worker
    failing = {(1, 1), (1, 2), (2, 0)}      # spawn keys (grid point, replica)

    def worker(args):
        row = real(args)
        if args[6] in failing:
            row["mass_residual"] = math.nan
        return row

    monkeypatch.setattr(lattice, "_replica_worker", worker)
    rc = main(["sweep", "--d", "1", "--side", "8", "--gen", "constant",
               "--rho", "0.5,1.1,1.2", "--tmax", "2", "--replicas", "3",
               "--out", str(tmp_path / "s.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "torus conservation violated: residual=nan" in err
    assert err.endswith("(replica 1)\n")


def _run_cli(tmp_path, argv, preexec_fn=None):
    src = str(Path(zhangpile.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    cmd = [sys.executable, "-m", "zhangpile.cli", *argv,
           "--out", str(tmp_path / "out.txt")]
    return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60,
                          preexec_fn=preexec_fn)


def _one_gib_of_address_space():
    # so that an oversized allocation fails at once whatever the host's
    # overcommit policy
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


@pytest.mark.parametrize("size", [["--n", "3", "--bins", "1000000000000"],
                                  ["--n", "100000000000", "--bins", "4"]])
def test_oversized_finite_run_exits_1(tmp_path, size):
    # both ended with a MemoryError traceback
    proc = _run_cli(tmp_path, ["finite-run", "--a", "0.6", "--b", "0.8", "--samples",
                               "10", *size], preexec_fn=_one_gib_of_address_space)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("zhangpile: error: out of memory: ")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("cmd", [["infinite", "--rho", "0.5"],
                                 ["sweep", "--rho", "0.5,0.6", "--workers", "2"]])
def test_oversized_lattice_exits_1(tmp_path, cmd):
    # the neighbour table holds int32 ids; the check needs no allocation
    proc = _run_cli(tmp_path, [*cmd, "--d", "2", "--side", "65536,32768", "--gen", "iid"],
                    preexec_fn=_one_gib_of_address_space)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == ("zhangpile: error: a lattice of 2147483648 sites is too large: "
                           "at most 2^31 - 1\n")


@pytest.mark.parametrize("argv", [
    ["infinite", "--gen", "constant", "--rho", "1.1", "--tmax", "nan"],
    ["infinite", "--gen", "iid", "--rho", "nan"],
    ["infinite", "--gen", "iid", "--rho", "inf"],
    ["sweep", "--gen", "iid", "--rho", "0.3,nan"],
])
def test_nonfinite_lattice_inputs_exit_1(tmp_path, argv):
    # before the input checks, --tmax nan never ended the run and a NaN rho
    # wrote a "stabilized" verdict; a bounded subprocess catches the hang
    proc = _run_cli(tmp_path, [*argv, "--d", "1", "--side", "16"])
    assert proc.returncode == 1, proc.stderr
    assert "error" in proc.stderr


_BAD_INPUTS = [
    (["stabilize", "--chain", "nan,0.5"], "heights must be finite"),
    (["stabilize", "--chain", "inf,0.5"], "heights must be finite"),
    (["infinite", "--d", "2", "--side", "0", "--boundary", "box", "--gen", "iid",
      "--rho", "0.3"], "every lattice side must be >= 1"),
    (["infinite", "--d", "1", "--side", "16", "--gen", "constant", "--rho", "1.1",
      "--tmax", "inf"], "t_max=inf needs max_events"),
    (["sweep", "--d", "1", "--side", "16", "--gen", "constant", "--rho", "1.1",
      "--tmax", "inf"], "t_max=inf needs max_events"),
    (["couple", "--n", "3", "--a", "0", "--b", "1", "--init-a=-0.5,0.2,0.1",
      "--init-b", "zeros", "--max-steps", "2000"], "heights must be nonnegative"),
    (["couple", "--n", "3", "--a", "0", "--b", "1", "--init-a", "zeros",
      "--init-b=0.2,-inf,0.1", "--max-steps", "2000"], "heights must be finite"),
    (["infinite", "--d", "1", "--side", "-4", "--gen", "iid", "--rho", "0.3"],
     "every lattice side must be >= 1"),
    (["infinite", "--d", "0", "--side", "16", "--gen", "iid", "--rho", "0.3"],
     "argument --d: must be >= 1, got 0"),
    (["sweep", "--d", "-2", "--side", "16", "--gen", "iid", "--rho", "0.3"],
     "argument --d: must be >= 1, got -2"),
    (["infinite", "--d", "1", "--side", "8x", "--gen", "iid", "--rho", "0.3"],
     "--side: invalid literal for int()"),
    (["sweep", "--d", "1", "--side", "8", "--gen", "iid", "--rho", "0.5,abc"],
     "--rho: could not convert string to float: 'abc'"),
    (["stabilize", "--chain", "1,abc"], "--chain: could not convert string to float: 'abc'"),
    (["couple", "--n", "3", "--a", "0", "--b", "1", "--init-a", "0.5,x,0.1",
      "--max-steps", "2000"], "--init-a: could not convert string to float: 'x'"),
]


@pytest.mark.parametrize("argv, message", _BAD_INPUTS,
                         ids=[f"argv{i}" for i in range(len(_BAD_INPUTS))])
def test_bad_heights_and_unbounded_runs_exit_1(tmp_path, argv, message):
    # a NaN height was printed as a result, an inf one toppled until the cap,
    # a zero side raised a traceback, --tmax inf without --max-events never
    # ended, a negative literal coupling start ran and exited 0, and a
    # negative side showed numpy's "negative dimensions are not allowed",
    # --d 0 or -2 blamed the heights or --side, and a value of a comma list
    # that did not parse did not name its option; each must now exit 1 within
    # the subprocess timeout, with its own message
    proc = _run_cli(tmp_path, argv)
    assert proc.returncode == 1, proc.stderr
    # the parser's own errors name the subcommand
    prog = f"zhangpile {argv[0]}" if message.startswith("argument ") else "zhangpile"
    assert proc.stderr.startswith(f"{prog}: error: {message}"), proc.stderr
    assert "Traceback" not in proc.stderr


_LINE = ["--d", "1", "--side", "16", "--gen", "constant", "--rho", "1.1", "--tmax", "5"]
_COUPLE = ["couple", "--n", "3", "--a", "0.2", "--b", "0.9"]


_BAD_COUNTS = [
    (["infinite", *_LINE, "--snap-every", "0"], "snapshot_every must be positive, got 0.0"),
    (["infinite", *_LINE, "--snap-every", "-1"], "snapshot_every must be positive, got -1.0"),
    (["infinite", *_LINE, "--snap-every", "nan"], "snapshot_every must be positive, got nan"),
    (["sweep", *_LINE, "--snap-every", "0"], "snapshot_every must be positive, got 0.0"),
    (["infinite", *_LINE, "--max-events", "-3"], "max_events must be >= 0, got -3"),
    ([*_COUPLE, "--max-steps", "-1"], "max_steps must be >= 0, got -1"),
    ([*_COUPLE, "--seeds", "-1"], "argument --seeds: must be >= 1, got -1"),
    ([*_COUPLE, "--seeds", "0"], "argument --seeds: must be >= 1, got 0"),
    (["infinite", *_LINE, "--min-m-threshold", "-1"],
     "argument --min-m-threshold: must be >= 0, got -1"),
    (["stabilize", "--chain", "0.5", "--seed", "-1"], "argument --seed: must be >= 0, got -1"),
    (["finite-run", "--n", "3", "--a", "0.2", "--b", "0.9", "--samples", "10", "--seed", "-1"],
     "argument --seed: must be >= 0, got -1"),
    (["infinite", *_LINE, "--seed", "-1"], "argument --seed: must be >= 0, got -1"),
    (["sweep", *_LINE, "--seed", "-1"], "argument --seed: must be >= 0, got -1"),
    ([*_COUPLE, "--workers", "0"], "argument --workers: must be >= 1, got 0"),
    (["infinite", *_LINE, "--workers", "0"], "argument --workers: must be >= 1, got 0"),
    (["sweep", *_LINE, "--workers", "0"], "argument --workers: must be >= 1, got 0"),
    ([*_COUPLE, "--seed", "5"], "ambiguous option: --seed could match"),
    (["stabilize", "--chain", "0.5", "--format", "jsonl"], "unrecognized arguments: --format"),
    (["finite-run", "--n", "3", "--a", "0.2", "--b", "0.9", "--bins", "0",
      "--events-out", "{tmp}/events.jsonl"], "argument --bins: must be >= 1, got 0"),
]


@pytest.mark.parametrize("argv, message", _BAD_COUNTS,
                         ids=[f"argv{i}" for i in range(len(_BAD_COUNTS))])
def test_bad_intervals_and_counts_exit_1(tmp_path, argv, message):
    # --snap-every 0 raised ZeroDivisionError, nan a conversion error and -1
    # never ended; the negative counts exited 0 having done nothing, and a
    # negative --min-m-threshold called a run without a toppling strong
    # evidence; a negative --seed showed numpy's "expected non-negative
    # integer", --workers 0 ran serially, and couple's --seed and
    # stabilize's --format were parsed and never read; --bins 0 left an
    # --events-out file holding only the echo line
    proc = _run_cli(tmp_path, [a.format(tmp=tmp_path) for a in argv])
    assert proc.returncode == 1, proc.stderr
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == []


def test_couple_max_steps_past_int64_ends_at_the_merge(tmp_path):
    # 2**63 wrapped to -2**63 in the kernel's int64 step limit, and the run
    # never ended; the subprocess timeout turns that hang into a failure
    proc = _run_cli(tmp_path, [*_COUPLE, "--max-steps", str(2**63)])
    assert proc.returncode == 0, proc.stderr
    record = json.loads((tmp_path / "out.txt").read_text().splitlines()[1])
    assert (record["merged"], record["merge_time"]) == (True, 9838)


def _evidence(tmp_path, argv, threshold):
    """(outcome, min_M, evidence_strong) of each row of an ``infinite`` run."""
    out = tmp_path / "verdicts.jsonl"
    assert main(["infinite", *argv, "--min-m-threshold", str(threshold), "--replicas", "2",
                 "--format", "jsonl", "--out", str(out)]) == 0
    cols = ["outcome", "min_M", "evidence_strong"]
    return [tuple(json.loads(line)[c] for c in cols)
            for line in out.read_text().splitlines()[1:]]


def test_evidence_strong_is_an_active_min_m_at_the_threshold(tmp_path):
    active = _evidence(tmp_path, _LINE, 0)
    assert {o for o, _, _ in active} == {"active-at-cutoff"}
    low = min(m for _, m, _ in active)
    assert low > 0
    for threshold in (low - 1, low, low + 1):
        rows = _evidence(tmp_path, _LINE, threshold)
        assert [(o, m) for o, m, _ in rows] == [(o, m) for o, m, _ in active]
        assert [e for _, m, e in rows] == [m >= threshold for _, m, _ in rows]
    # a stabilized replica is never strong evidence, whatever its min M
    settled = _evidence(tmp_path, ["--d", "1", "--side", "16", "--boundary", "box", "--gen",
                                   "iid", "--rho", "0.6", "--tmax", "50"], 0)
    assert {o for o, _, _ in settled} == {"stabilized"}
    assert [e for _, _, e in settled] == [False, False]


@pytest.mark.parametrize("backend", ["python", "compiled"])
@pytest.mark.parametrize("gen", [["--gen", "iid"], ["--gen", "near-full"],
                                 ["--gen", "checkerboard"],
                                 ["--gen", "constant", "--boundary", "box"]])
def test_huge_density_exits_1(tmp_path, monkeypatch, capsys, backend, gen):
    # iid and near-full raised numpy's OverflowError while drawing, and
    # constant built heights whose total is inf; each escaped as a traceback
    kernel = core.chain_kernel() if backend == "compiled" else None
    if backend == "compiled" and kernel is None:
        pytest.skip("needs the compiled kernel")
    monkeypatch.setattr(core, "_kernel", [kernel])
    argv = ["infinite", "--d", "2", "--side", "4", *gen, "--rho", "1e308",
            "--out", str(tmp_path / "out.csv")]
    assert main(argv) == 1
    assert "rho=1e+308 is too large" in capsys.readouterr().err


def test_overflow_in_a_run_exits_1(tmp_path, monkeypatch, capsys):
    def overflow(*args, **kwargs):
        raise OverflowError("cannot convert float infinity to integer")

    monkeypatch.setattr(lattice.MarkovToppling, "run", overflow)
    argv = ["infinite", *_LINE, "--out", str(tmp_path / "out.csv")]
    assert main(argv) == 1
    assert "error: cannot convert float infinity to integer" in capsys.readouterr().err


def test_heights_with_an_infinite_total_exit_1_at_once(tmp_path, capsys):
    # each height is finite but their total is not: the chain toppled inf
    # 10^7 times, for seconds, and then exited 2 at the topple cap
    t0 = time.perf_counter()
    rc = main(["stabilize", "--chain", "1.6e308,1.5e308", "--out", str(tmp_path / "o")])
    elapsed = time.perf_counter() - t0
    assert rc == 1
    assert capsys.readouterr().err == (
        "zhangpile: error: the total of the heights must be finite\n")
    assert elapsed < 1.0


def test_finite_run_negative_counts_exit_1(tmp_path):
    # with --events-out the run exited 0 and wrote a header-only file, while
    # the same run without it exited 1
    events = tmp_path / "e.jsonl"
    argv = ["finite-run", "--n", "3", "--a", "0.2", "--b", "0.9", "--burn-in", "-5",
            "--samples", "-3"]
    for extra in ([], ["--events-out", str(events)]):
        proc = _run_cli(tmp_path, argv + extra)
        assert proc.returncode == 1, proc.stderr
        assert "argument --burn-in: must be >= 0, got -5" in proc.stderr
    assert not events.exists()


@pytest.mark.parametrize("command", ["infinite", "sweep"])
def test_unbounded_tmax_with_max_events_runs(tmp_path, command):
    proc = _run_cli(tmp_path, [command, "--d", "1", "--side", "16", "--gen", "constant",
                               "--rho", "1.1", "--tmax", "inf", "--max-events", "500"])
    assert proc.returncode == 0, proc.stderr
    rows = (tmp_path / "out.txt").read_text().strip().split("\n")[2:]
    assert len(rows) == 1 and "active-at-cutoff" in rows[0]


def test_spec_echo_roundtrips_to_equal_spec(tmp_path):
    out = tmp_path / "stats.csv"
    assert main(["finite-run", "--n", "2", "--a", "0.25", "--b", "0.75",
                 "--samples", "5", "--seed", "9", "--bins", "8",
                 "--out", str(out)]) == 0
    payload = parse_echo(out.read_text().split("\n", 1)[0])
    want = make_spec("finite-run", n=2, a=0.25, b=0.75, seed=9,
                     burn_in=0, samples=5, bins=8)
    assert payload["spec"] == want


def test_config_file_defaults_and_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n=3\na=0.2\nb=0.9\nsamples=10\nseed=5\n# comment\n")
    out1 = tmp_path / "c1.csv"
    rc = main(["finite-run", "--config", str(cfg), "--out", str(out1)])
    assert rc == 0
    payload = parse_echo(out1.read_text().split("\n", 1)[0])
    assert payload["spec"]["params"]["n"] == 3
    assert payload["spec"]["params"]["samples"] == 10
    out2 = tmp_path / "c2.csv"
    rc = main(["finite-run", "--config", str(cfg), "--samples", "20",
               "--out", str(out2)])
    assert rc == 0
    payload = parse_echo(out2.read_text().split("\n", 1)[0])
    assert payload["spec"]["params"]["samples"] == 20    # flag wins
    assert main(["finite-run", "--config", str(tmp_path / "nope.cfg")]) == 1


@pytest.mark.parametrize("content", [b"n=3\nsamples 10\n", b"n=3\n\xff\xfe=1\n"])
def test_bad_config_file_exits_1_without_a_traceback(tmp_path, content):
    # a line without "=", or bytes that do not decode, is a bad parameter:
    # one error line, not a traceback
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(content)
    proc = _run_cli(tmp_path, ["finite-run", "--config", str(cfg), "--a", "0.2", "--b", "0.9"])
    assert proc.returncode == 1
    assert proc.stderr.startswith("zhangpile: error: --config: ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


# sha256 of each output file, then (infinite) of its --save-final file, as
# version 0.4.0 writes them on both backends (the echo line carries the version)
_PINNED = {
    "infinite-d1-torus-csv": (
        "infinite --d 1 --side 32 --gen iid --rho 0.8 --tmax 30 --replicas 3 --seed 5",
        "cd015efa9c5336fddf016678c30a9f5bac5e9e145d795909b49ebbdae10d4977"),
    "infinite-d2-box-jsonl": (
        "infinite --d 2 --side 10 --boundary box --gen near-full --rho 0.95 --tmax 20 "
        "--replicas 2 --seed 7 --format jsonl",
        "5ce1cb93505f727d4aef1e3267ee6683ef9f3d8b42c1e04ef6a501823f3b9f79"),
    "infinite-d3-torus-csv": (
        "infinite --d 3 --side 4 --gen checkerboard --rho 0.7 --tmax 15 --replicas 2 "
        "--seed 3 --snap-every 0.5",
        "d4f0261c344fce04d45b543651be4a2943810d484cf57f3a359b0d791740f761"),
    "sweep-d1-box-jsonl": (
        "sweep --d 1 --side 24 --boundary box --gen iid,constant --rho 0.6,1.1 --tmax 20 "
        "--replicas 2 --seed 11 --format jsonl",
        "7faeb91c3d4def61fa60c557a61c172c4b1b58ff8261d3105a5033ad5341c8b1"),
    "sweep-d2-torus-csv": (
        "sweep --d 2 --side 8 --gen iid,near-full --rho 0.9 --tmax 10 --replicas 2 "
        "--seed 2 --max-events 2000",
        "5f86e565145c61c9508436fa324733acf36ccafea622aea1cac5e7e598bc0229"),
    "sweep-d3-box-jsonl": (
        "sweep --d 3 --side 4,3,5 --boundary box --gen constant,iid --rho 1.05,0.7 "
        "--tmax 10 --replicas 2 --seed 4 --format jsonl",
        "778ef05ead10a2222397568f5f28ab40bf7f0aa20659cbe06b04fe55c2609211"),
}


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_lattice_outputs_match_pinned_hashes(tmp_path, monkeypatch, name):
    argv, want = _PINNED[name]
    argv = argv.split() + ["--out", str(tmp_path / "out")]
    if argv[0] == "infinite":
        argv += ["--save-final", str(tmp_path / "final")]
    for kernel in (None, core.chain_kernel()):
        monkeypatch.setattr(core, "_kernel", [kernel])
        assert main(argv) == 0
        digest = hashlib.sha256((tmp_path / "out").read_bytes())
        if argv[0] == "infinite":
            digest.update((tmp_path / "final").read_bytes())
        assert digest.hexdigest() == want


# sha256 of each finite-run output file, the same on both backends; the n=1
# run takes the row-block route, whose sums are numpy's pairwise ones
_FINITE_PINNED = {
    "finite-run-n30-csv": (
        "finite-run --n 30 --a 0.6 --b 0.8 --burn-in 1000 --samples 6000 --seed 10000",
        "49c7f445f92a3c6dfc1541346a2a9db49b4f73e145a0e0cd0ed5d0d32de9a619"),
    "finite-run-n1-jsonl": (
        "finite-run --n 1 --a 0.3 --b 0.9 --burn-in 100 --samples 4500 --bins 7 --seed 11 "
        "--format jsonl",
        "4115354de7fc50a672b9169f7c5078ecb78d0bffb59f7d653c8ece577277e779"),
    "finite-run-n7-csv": (
        "finite-run --n 7 --a 0.0 --b 1.0 --burn-in 0 --samples 9000 --bins 3 --seed 12",
        "0bf14ecef80b5e65d3f67e2820fd02e74d7dbb14d5a94c071d3a297b38e0fdb0"),
}


@pytest.mark.parametrize("name", sorted(_FINITE_PINNED))
def test_finite_run_outputs_match_pinned_hashes(tmp_path, monkeypatch, name):
    argv, want = _FINITE_PINNED[name]
    argv = argv.split() + ["--out", str(tmp_path / "out")]
    for kernel in (None, core.chain_kernel()):
        monkeypatch.setattr(core, "_kernel", [kernel])
        assert main(argv) == 0
        assert hashlib.sha256((tmp_path / "out").read_bytes()).hexdigest() == want


def test_write_csv_matches_the_per_cell_format():
    # runs of exact ints are printed in one call; every cell must still read
    # as _fmt_cell prints it on its own
    rows = [
        [True, False, None, -3, 2**70, np.int64(-7), math.nan, math.inf, -math.inf, -0.0,
         0.1, "x,y", "", 0, -1, 12],
        [1, 2.5, 0.1 + 0.2] + list(range(-5, 300)),
        list(range(256)) + [True] + list(range(40)),
        list(range(256)) + [0.5] + list(range(40)),
        [np.int64(3), 4, np.float64(0.25), 5, 2**64, None],
        [7],
        [],
    ]
    buf = io.StringIO()
    spec = make_spec("finite-run", n=1)
    write_csv(buf, spec, "0.0", ["c"], rows)
    want = [echo_line(spec, "0.0"), "c"] + [",".join(map(_fmt_cell, r)) for r in rows]
    assert buf.getvalue() == "\n".join(want) + "\n"
    assert buf.getvalue().split("\n")[4].split(",")[256:258] == ["true", "0"]


def _no_run(*args, **kwargs):
    raise AssertionError("the run started before its inputs or output paths were checked")


@pytest.mark.parametrize("argv", [
    ["finite-run", "--n", "3", "--a", "0.2", "--b", "0.9", "--samples", "1000000",
     "--out", "{missing}/x.csv"],
    ["finite-run", "--n", "3", "--a", "0.2", "--b", "0.9", "--samples", "10",
     "--out", "{tmp}"],
    ["infinite", "--d", "1", "--side", "8", "--gen", "iid", "--rho", "0.5",
     "--out", "{tmp}/out.csv", "--save-final", "{missing}/final"],
    ["sweep", "--d", "1", "--side", "8", "--gen", "iid", "--rho", "0.5",
     "--out", "{missing}/out.csv"],
])
def test_bad_output_path_exits_1_before_the_run(tmp_path, monkeypatch, capsys, argv):
    # an unwritable path fails before any simulation, not after it (a
    # million finite-run samples take ~0.8 s)
    monkeypatch.setattr(chain, "drive", _no_run)
    monkeypatch.setattr(chain, "run_stationary", _no_run)
    monkeypatch.setattr(cli, "stabilizability_experiment", _no_run)
    monkeypatch.setattr(lattice, "stabilizability_sweep", _no_run)
    argv = [a.format(missing=tmp_path / "missing", tmp=tmp_path) for a in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("zhangpile: error: --") and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == []


@pytest.mark.parametrize("bins", ["0", "-3"])
def test_bad_bins_exit_1_before_the_burn_in(tmp_path, monkeypatch, capsys, bins):
    # the stats that check --bins were built after the burn-in, which ran in
    # full; the parser checks it before any run
    monkeypatch.setattr(chain, "drive", _no_run)
    argv = ["finite-run", "--n", "30", "--a", "0.6", "--b", "0.8", "--burn-in", "2000000",
            "--samples", "10", "--bins", bins, "--out", str(tmp_path / "out.csv")]
    assert main(argv) == 1
    assert capsys.readouterr().err.endswith(f"argument --bins: must be >= 1, got {bins}\n")


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("argv, message", [
    (["--n", "3", "--a", "0.9", "--b", "0.2"], "need 0 <= a < b <= 1"),
    (["--n", "1", "--a", "0.2", "--b", "0.9"], "coupling constants need n >= 2"),
    (["--n", "3", "--a", "0.2", "--b", "0.9", "--init-a", "0.1,0.2"],
     "heights length 2 != n=3"),
    (["--n", "3", "--a", "0.2", "--b", "0.9", "--init-b", "0.1,1.2,0.3"],
     "initial configuration must be stable"),
    (["--n", "3", "--a", "0.2", "--b", "0.9", "--seed0", "-1"], "seeds must be >= 0, got -1"),
])
def test_bad_coupling_inputs_exit_1_before_any_job(tmp_path, monkeypatch, capsys, workers,
                                                   argv, message):
    # each job checked them, so a pool was forked and every job in it failed
    monkeypatch.setattr(coupling, "Pool", _no_run)
    monkeypatch.setattr(coupling, "_sweep_one", _no_run)
    argv = ["couple", *argv, "--seeds", "20000", "--workers", workers,
            "--out", str(tmp_path / "out.jsonl")]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"zhangpile: error: {message}")


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("grid, message", [
    (["--side", "8", "--gen", "constant,near-full", "--rho", "1.2,0.6"],
     "near-full needs rho > 0.75 in dimension 2"),
    (["--side", "9", "--gen", "iid,checkerboard", "--rho", "0.6"],
     "checkerboard on a torus needs even side lengths"),
    (["--side", "8,1", "--gen", "iid", "--rho", "0.6"], "torus sides must be >= 2"),
    (["--side", "8", "--gen", "iid", "--rho", "0.6", "--snap-every", "0"],
     "snapshot_every must be positive"),
])
def test_bad_sweep_point_exits_1_before_any_replica(tmp_path, monkeypatch, capsys, workers,
                                                    grid, message):
    # each replica checked its own point, so a sweep whose last point is bad
    # ran the points before it first, forking a pool to do so
    monkeypatch.setattr(lattice, "Pool", _no_run)
    monkeypatch.setattr(lattice, "_replica_worker", _no_run)
    argv = ["sweep", "--d", "2", *grid, "--tmax", "1000", "--replicas", "2",
            "--workers", workers, "--out", str(tmp_path / "out.csv")]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"zhangpile: error: {message}")


def test_writable_output_paths_pass_the_check(tmp_path, monkeypatch):
    # an existing writable file (even one whose directory is not writable,
    # as /dev/null) and a new file in a writable directory pass; no file is
    # created by the check
    existing = tmp_path / "old.csv"
    existing.write_text("x")
    for path in ("-", str(existing), str(tmp_path / "new.csv"), os.devnull, "rel.csv"):
        args = argparse.Namespace(out=path, save_final=str(tmp_path / "f"))
        monkeypatch.chdir(tmp_path)
        cli._check_out_paths(args)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["old.csv"]


def test_subcommand_parser_matches_the_full_parser():
    # main builds the arguments of the invoked subcommand only (of none for
    # --help and --version); its help, and so its arguments, must be those of
    # the parser of every subcommand
    full = cli.build_parser()
    assert cli.build_parser("").format_help() == full.format_help()
    for name in ("stabilize", "finite-run", "couple", "infinite", "sweep"):
        one = cli.build_parser(name)
        assert one.format_help() == full.format_help()
        helps = [p._subparsers._group_actions[0].choices[name].format_help()
                 for p in (one, full)]
        assert helps[0] == helps[1]


def test_infinite_and_sweep_share_one_command():
    subs = cli.build_parser()._subparsers._group_actions[0].choices
    assert subs["infinite"].get_default("func") is subs["sweep"].get_default("func")


# every option of each subcommand, in help order; a run of each argv below
# reads all of them but --config, which main reads from the argv itself
_LATTICE_OPTIONS = ["--d", "--side", "--boundary", "--tmax", "--replicas", "--snap-every",
                    "--max-events", "--workers", "--seed", "--out", "--format", "--config"]
_OPTIONS = {
    "stabilize": (["--chain", "--infile", "--policy", "--seed", "--out", "--config"],
                  "--infile {tmp}/chain.txt --policy random"),
    "finite-run": (["--n", "--a", "--b", "--burn-in", "--samples", "--bins", "--events-out",
                    "--seed", "--out", "--format", "--config"],
                   "--n 3 --a 0.2 --b 0.9 --samples 5 --events-out {tmp}/events.jsonl"),
    "couple": (["--n", "--a", "--b", "--seeds", "--seed0", "--max-steps", "--init-a",
                "--init-b", "--workers", "--out", "--format", "--config"],
               "--n 3 --a 0.2 --b 0.9 --max-steps 50"),
    "infinite": (["--gen", "--rho", "--save-final", "--min-m-threshold", *_LATTICE_OPTIONS],
                 "--d 1 --side 4 --gen iid --rho 0.5 --tmax 1 --save-final {tmp}/final"),
    "sweep": (["--gen", "--rho", *_LATTICE_OPTIONS], "--d 1 --side 4 --gen iid --rho 0.5,0.6"),
}


def test_subcommand_options_are_pinned_and_read(tmp_path):
    # an option that its command never reads (as couple's --seed and
    # stabilize's --format were) fails here
    read = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            read.add(name)
            return super().__getattribute__(name)

    (tmp_path / "chain.txt").write_text("0.5 1.2\n")
    parser = cli.build_parser()
    subs = parser._subparsers._group_actions[0].choices
    assert sorted(subs) == sorted(_OPTIONS)
    for name, (options, argv) in _OPTIONS.items():
        actions = [a for a in subs[name]._actions if a.option_strings != ["-h", "--help"]]
        assert [s for a in actions for s in a.option_strings] == options
        args = parser.parse_args([name, *argv.format(tmp=tmp_path).split(),
                                  "--out", str(tmp_path / "out")], namespace=Recording())
        read.clear()
        assert args.func(args) == 0
        assert {a.dest for a in actions} - read == {"config"}, name


def _fresh_cli(argv, columns):
    """Exit code and stdout bytes of ``argv`` run in a new process."""
    src = str(Path(zhangpile.__file__).resolve().parents[1])
    env = dict(os.environ, COLUMNS=str(columns), PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-m", "zhangpile.cli", *argv], env=env,
                          capture_output=True, timeout=60)
    return proc.returncode, proc.stdout


def test_main_builds_one_parser_per_subcommand(tmp_path, monkeypatch):
    made = []
    init = cli._Parser.__init__

    def counting(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting)
    cli.build_parser.cache_clear()
    argv = ["finite-run", "--n", "3", "--a", "0.2", "--b", "0.9", "--samples", "10"]
    assert main(argv + ["--out", str(tmp_path / "1.csv")]) == 0
    first = len(made)
    assert first > 0
    assert main(argv + ["--out", str(tmp_path / "2.csv")]) == 0
    assert len(made) == first
    info = cli.build_parser.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    cli.build_parser.cache_clear()


@pytest.mark.parametrize("columns", [80, 200])
def test_main_calls_share_no_state(tmp_path, monkeypatch, capsys, columns):
    # one process's main calls on the parsers it keeps: each call's output is
    # that of the same call in a new process, help formatted at the width of
    # the moment
    monkeypatch.setenv("COLUMNS", str(columns))
    base = ["finite-run", "--n", "3", "--a", "0.2", "--b", "0.9"]
    run = base + ["--samples", "50", "--seed", "4"]
    assert main(run + ["--frobnicate"]) == 1
    out = tmp_path / "run.csv"
    assert main(run + ["--out", str(out)]) == 0
    assert _fresh_cli(run, columns) == (0, out.read_bytes())
    capsys.readouterr()
    for argv in (["--help"], ["infinite", "--help"], ["--version"]):
        want = _fresh_cli(argv, columns)
        for _ in range(2):
            assert (main(argv), capsys.readouterr().out.encode()) == want
    cfg = tmp_path / "run.cfg"
    cfg.write_text("samples=10\nseed=5\n")
    assert main(base + ["--config", str(cfg), "--out", str(tmp_path / "cfg.csv")]) == 0
    assert main(base + ["--out", str(out)]) == 0
    assert _fresh_cli(base, columns) == (0, out.read_bytes())
    assert parse_echo(out.read_text().split("\n", 1)[0])["spec"]["params"]["samples"] == 0
