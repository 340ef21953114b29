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
    ExperimentSpec,
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
    # coupling_sweep sizes its chunks from the width; _summaries leaves it to map
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
    rng = np.random.default_rng(np.random.SeedSequence(8).spawn(3)[0])
    config = lattice.generate(lattice.DensitySpec("iid", 0.6), (24,), "box", rng=rng)
    verdict, final, ledger = lattice.markov_run(config, t_max=50, rng=rng)
    assert ledger.events > 0                             # it did topple
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


def test_conservation_gate_exits_2(tmp_path, monkeypatch):
    # force the torus conservation tolerance to an impossible value: the gate
    # must trip and the command must exit with the invariant-violation code
    monkeypatch.setattr(cli, "CONSERVATION_TOL", -1.0)
    rc = main(["infinite", "--d", "1", "--side", "16", "--gen", "constant",
               "--rho", "1.1", "--tmax", "2", "--seed", "37",
               "--out", str(tmp_path / "v.csv")])
    assert rc == 2


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


@pytest.mark.parametrize("argv", [
    ["stabilize", "--chain", "nan,0.5"],
    ["stabilize", "--chain", "inf,0.5"],
    ["infinite", "--d", "2", "--side", "0", "--boundary", "box", "--gen", "iid",
     "--rho", "0.3"],
    ["infinite", "--d", "1", "--side", "16", "--gen", "constant", "--rho", "1.1",
     "--tmax", "inf"],
    ["sweep", "--d", "1", "--side", "16", "--gen", "constant", "--rho", "1.1",
     "--tmax", "inf"],
    ["couple", "--n", "3", "--a", "0", "--b", "1", "--init-a=-0.5,0.2,0.1",
     "--init-b", "zeros", "--max-steps", "2000"],
    ["couple", "--n", "3", "--a", "0", "--b", "1", "--init-a", "zeros",
     "--init-b=0.2,-inf,0.1", "--max-steps", "2000"],
])
def test_bad_heights_and_unbounded_runs_exit_1(tmp_path, argv):
    # a NaN height was printed as a result, an inf one toppled until the cap,
    # a zero side raised a traceback, --tmax inf without --max-events never
    # ended, and a negative literal coupling start ran and exited 0; each
    # must now exit 1 within the subprocess timeout
    proc = _run_cli(tmp_path, argv)
    assert proc.returncode == 1, proc.stderr
    assert "error" in proc.stderr
    assert "Traceback" not in proc.stderr


_LINE = ["--d", "1", "--side", "16", "--gen", "constant", "--rho", "1.1", "--tmax", "5"]
_COUPLE = ["couple", "--n", "3", "--a", "0.2", "--b", "0.9"]


@pytest.mark.parametrize("argv", [
    ["infinite", *_LINE, "--snap-every", "0"],
    ["infinite", *_LINE, "--snap-every", "-1"],
    ["infinite", *_LINE, "--snap-every", "nan"],
    ["sweep", *_LINE, "--snap-every", "0"],
    ["infinite", *_LINE, "--max-events", "-3"],
    [*_COUPLE, "--max-steps", "-1"],
    [*_COUPLE, "--seeds", "-1"],
    [*_COUPLE, "--seeds", "0"],
])
def test_bad_intervals_and_counts_exit_1(tmp_path, argv):
    # --snap-every 0 raised ZeroDivisionError, nan a conversion error and -1
    # never ended; the negative counts exited 0 having done nothing
    proc = _run_cli(tmp_path, argv)
    assert proc.returncode == 1, proc.stderr
    assert "error" in proc.stderr
    assert "Traceback" not in proc.stderr



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
        assert "--burn-in and --samples must be >= 0" in proc.stderr
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
    assert ExperimentSpec.from_dict(payload["spec"]) == want


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
# the list-based lattice engine wrote them on both backends
_PINNED = {
    "infinite-d1-torus-csv": (
        "infinite --d 1 --side 32 --gen iid --rho 0.8 --tmax 30 --replicas 3 --seed 5",
        "37d6878d623018caade5551e330025d72f34b90716dbb4387dcd1e205413cd55"),
    "infinite-d2-box-jsonl": (
        "infinite --d 2 --side 10 --boundary box --gen near-full --rho 0.95 --tmax 20 "
        "--replicas 2 --seed 7 --format jsonl",
        "284b825eaf911ef1ded06e87c87d741c32509c920feae82bc4a9b93fe324b337"),
    "infinite-d3-torus-csv": (
        "infinite --d 3 --side 4 --gen checkerboard --rho 0.7 --tmax 15 --replicas 2 "
        "--seed 3 --snap-every 0.5",
        "29126573bfffd22387b57508f452642d1ab72ecc1298ef0d692bad894233136a"),
    "sweep-d1-box-jsonl": (
        "sweep --d 1 --side 24 --boundary box --gen iid,constant --rho 0.6,1.1 --tmax 20 "
        "--replicas 2 --seed 11 --format jsonl",
        "8a7e108c1997e4f92a43c931f7cee6d9042378401b5ac2ba2f58923f64981d75"),
    "sweep-d2-torus-csv": (
        "sweep --d 2 --side 8 --gen iid,near-full --rho 0.9 --tmax 10 --replicas 2 "
        "--seed 2 --max-events 2000",
        "3adc6b79030bb34b24f5235b4481311673960b2d132107422e44c16b1d10b0fa"),
    "sweep-d3-box-jsonl": (
        "sweep --d 3 --side 4,3,5 --boundary box --gen constant,iid --rho 1.05,0.7 "
        "--tmax 10 --replicas 2 --seed 4 --format jsonl",
        "241b7fbd20a22202eae2ca66fb1dc3549997f9f91aba185cda1b2a909e9117bf"),
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
        "ef14246dffc0e0c88729a43df5ec2fbae00625c62e20fd39b4e6ccfed61a6d11"),
    "finite-run-n1-jsonl": (
        "finite-run --n 1 --a 0.3 --b 0.9 --burn-in 100 --samples 4500 --bins 7 --seed 11 "
        "--format jsonl",
        "14bfc773a5a350c33a6936bc6268d2b9993d2a843580b7c41ff598c611549c64"),
    "finite-run-n7-csv": (
        "finite-run --n 7 --a 0.0 --b 1.0 --burn-in 0 --samples 9000 --bins 3 --seed 12",
        "33134382e630762c6ecce7895986ece064f0a72cce958115916f27ea09be1c8f"),
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
    raise AssertionError("the run started before the output path was checked")


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
