import dataclasses
import hashlib
import math
import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sstats

import zhangpile
import zhangpile.core as core
import zhangpile.lattice as lattice
from zhangpile.lattice import (
    BOX,
    TORUS,
    DensitySpec,
    LatticeConfig,
    MarkovToppling,
    MassLedger,
    _check_geometry,
    _neighbor_arrays,
    _replica_jobs,
    _replica_worker,
    bond_bound_check,
    count_internal_bonds,
    generate,
    markov_run,
    mass_identity_check,
    min_m_slope,
    near_full_bands,
    parallel_round,
    stabilizability_sweep,
    topple_lattice,
)


def _line(vals, boundary=BOX):
    return LatticeConfig(np.array(vals, dtype=float), boundary)


def _backends():
    """The Python loop, and the compiled kernel when it builds."""
    lib = core.chain_kernel()
    return [None] if lib is None else [None, lib]


@contextmanager
def _kernel_set(kernel):
    """Run the block on ``kernel`` (None: the Python loop)."""
    saved = core._kernel[:]
    core._kernel[:] = [kernel]
    try:
        yield
    finally:
        core._kernel[:] = saved


# ---------------------------------------------------------------------------
# single topplings
# ---------------------------------------------------------------------------

def test_topple_d2_four_neighbors():
    h = np.zeros((5, 5))
    h[2, 2] = 1.2
    out, led = topple_lattice(LatticeConfig(h, TORUS), (2, 2))
    assert out.heights[2, 2] == 0.0
    for nb in ((1, 2), (3, 2), (2, 1), (2, 3)):
        assert abs(out.heights[nb] - 0.3) < 1e-12
    assert led.M[2, 2] == 1
    assert abs(led.L[2, 2] - 1.2) < 1e-12
    assert led.dissipated == 0.0


def test_topple_stable_is_noop():
    cfg = _line([0.2, 0.9, 0.0], TORUS)
    led0 = MassLedger(cfg.sides)
    out, led = topple_lattice(cfg, 1, led0)
    assert np.array_equal(out.heights, cfg.heights)
    assert led.M.sum() == 0 and led.L.sum() == 0.0


def test_topple_out_of_range():
    cfg = _line([0.2, 0.9, 0.0])
    with pytest.raises(ValueError):
        topple_lattice(cfg, 5)
    with pytest.raises(ValueError):
        topple_lattice(LatticeConfig(np.zeros((3, 3)), TORUS), (1,))


def test_box_boundary_dissipates():
    cfg = _line([1.2, 0.1, 0.0], BOX)
    out, led = topple_lattice(cfg, 0)
    assert np.allclose(out.heights, [0.0, 0.7, 0.0], atol=1e-12)
    assert abs(led.dissipated - 0.6) < 1e-12


def test_table1_rows_on_torus():
    # the chain example embedded in a size-6 torus: no toppling touches the
    # wrap bond, so the sequences reproduce the finite-chain rows exactly
    start = [0, 0, 1.4, 1.2, 0, 0]
    cfg, led = _line(start, TORUS), None
    for x in (2, 3):
        cfg, led = topple_lattice(cfg, x, led)
    assert np.allclose(cfg.heights, [0, 0.7, 0.95, 0, 0.95, 0], atol=1e-12)
    assert led.M.tolist() == [0, 0, 1, 1, 0, 0]

    cfg, led = _line(start, TORUS), None
    for x in (3, 2, 3, 4, 1, 2, 3):
        cfg, led = topple_lattice(cfg, x, led)
    assert np.allclose(cfg.heights, [0.5, 0.5, 0.525, 0, 0.525, 0.55], atol=1e-12)
    assert led.M.tolist() == [0, 1, 2, 3, 1, 0]

    cfg = parallel_round(_line(start, TORUS))
    assert np.allclose(cfg.heights, [0, 0.7, 0.6, 0.7, 0.6, 0], atol=1e-12)


def test_order_dependence_witness():
    # stabilizes if the left unstable site topples first; two right-first
    # topplings reach a state that can never stabilize
    base = [0.9, 0.9, 0.9, 0.0, 1.4, 1.2, 0.0, 0.9, 0.9, 0.9]
    cfg, led = _line(base, BOX), None
    cfg, led = topple_lattice(cfg, 4, led)
    cfg, led = topple_lattice(cfg, 5, led)
    want = [0.9, 0.9, 0.9, 0.7, 0.95, 0.0, 0.95, 0.9, 0.9, 0.9]
    assert np.allclose(cfg.heights, want, atol=1e-12)
    assert cfg.is_stable()

    cfg, led = _line(base, BOX), None
    cfg, led = topple_lattice(cfg, 5, led)
    cfg, led = topple_lattice(cfg, 4, led)
    want = [0.9, 0.9, 0.9, 1.0, 0.0, 1.0, 0.6, 0.9, 0.9, 0.9]
    assert np.allclose(cfg.heights, want, atol=1e-12)
    assert not cfg.is_stable()
    assert led.M.tolist() == [0, 0, 0, 0, 1, 1, 0, 0, 0, 0]


# ---------------------------------------------------------------------------
# Markov toppling runs
# ---------------------------------------------------------------------------

def test_stable_start_is_stabilized_at_zero():
    cfg = _line([0.1, 0.5, 0.9], TORUS)
    verdict, final, ledger = markov_run(cfg, t_max=10.0, seed=0)
    assert verdict.outcome == "stabilized"
    assert verdict.t_stab == 0.0
    assert ledger.M.sum() == 0
    assert np.array_equal(final.heights, cfg.heights)


def test_config_rejects_heights_whose_total_is_not_finite():
    # every height is finite, but the box would topple inf, and no gate
    # checks a box's mass
    with pytest.raises(ValueError, match="total of the heights must be finite"):
        LatticeConfig(np.array([1.6e308, 0.0, 1.5e308]), BOX)
    LatticeConfig(np.array([1.6e308, 0.0, 1.0e307]), BOX)


def test_markov_run_rejects_bad_tmax():
    with pytest.raises(ValueError):
        markov_run(_line([0.5, 0.5]), t_max=0.0, seed=0)
    for bad in (math.nan, -math.inf):
        with pytest.raises(ValueError):
            markov_run(_line([0.5, 1.5]), t_max=bad, seed=0)
    # an infinite horizon stays legal: the run ends when the lattice stabilizes
    verdict, _, _ = markov_run(_line([0.5, 1.5]), t_max=math.inf, seed=0)
    assert verdict.outcome == "stabilized"


def test_engine_run_rejects_bad_arguments():
    # snapshot_every=0 raised ZeroDivisionError and -1 never ended; the run
    # sits in a bounded subprocess so that such a hang fails the test
    bad = {"t_max=0": "t_max must be positive",
           "t_max=math.nan": "t_max must be positive",
           "t_max=10**400": "t_max must fit in a float",
           "t_max=5, snapshot_every=0": "snapshot_every must be positive",
           "t_max=5, snapshot_every=-1": "snapshot_every must be positive",
           "t_max=5, snapshot_every=math.nan": "snapshot_every must be positive",
           "t_max=5, snapshot_every=10**400": "snapshot_every must fit in a float",
           "t_max=5, max_events=-1": "max_events must be >= 0"}
    code = ["import math",
            "from zhangpile.lattice import DensitySpec, MarkovToppling, generate",
            "cfg = generate(DensitySpec('constant', 1.1), (16,), 'torus', seed=1)"]
    for kwargs in bad:
        code += ["try:", f"    MarkovToppling(cfg, seed=2).run({kwargs})",
                 "except ValueError as exc:", "    print(exc)"]
    src = str(Path(zhangpile.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", "\n".join(code)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == len(bad)
    for line, message in zip(lines, bad.values()):
        assert line.startswith(message), (line, message)


def test_non_integral_max_events_are_rejected_on_both_backends():
    # max_events=1.5 raised ctypes' TypeError on the kernel, while the Python
    # loop ran 2 topplings; a whole float runs as its int on both backends
    cfg = generate(DensitySpec("constant", 1.1), (16,), TORUS, seed=1)
    ends = set()
    for kernel in _backends():
        with _kernel_set(kernel):
            for bad in (1.5, -0.5, math.nan, math.inf, "3"):
                eng = MarkovToppling(cfg, seed=2)
                with pytest.raises(ValueError, match="max_events must be an integer"):
                    eng.run(5.0, max_events=bad)
                assert eng.events == 0 and not len(eng._wait_buf)
            eng = MarkovToppling(cfg, seed=2)
            eng.run(5.0, max_events=2.0)
        assert eng.events == 2 and type(eng.events) is int
        ends.add((eng.t, eng.h.tobytes()))
    assert len(ends) == 1
    with pytest.raises(ValueError, match="max_events must be an integer"):
        stabilizability_sweep([DensitySpec("constant", 1.1)], (16,), TORUS, 5.0, 1,
                              max_events=1.5)


def test_snapshot_rows_stop_at_the_row_cap(monkeypatch):
    # run(0.5, snapshot_every=1e-300) doubled its row array until it was
    # stopped.  A finite t_max over more rows than the cap is rejected before
    # the run, and a run to t_max = inf stops at the cap, with the same rows
    # and state on both backends
    monkeypatch.setattr(lattice, "_MAX_ROWS", 100)
    cfg = generate(DensitySpec("constant", 1.1), (16,), TORUS, seed=1)
    every = 2.0**-8                     # exact multiples: no rounding at t_max
    eng = MarkovToppling(cfg, seed=2)
    with pytest.raises(ValueError, match="t_max / snapshot_every must be at most 100"):
        eng.run(101 * every, snapshot_every=every)
    assert eng.events == 0
    ends = set()
    for kernel in _backends():
        with _kernel_set(kernel):
            eng = MarkovToppling(cfg, seed=2)
            eng.run(100 * every, snapshot_every=every)
            assert eng.snapshots.shape == eng._rows.shape == (100, 5)
            eng = MarkovToppling(cfg, seed=2)
            with pytest.raises(ValueError, match="more than 100 snapshot rows"):
                eng.run(math.inf, max_events=10, snapshot_every=1e-300)
        assert eng.snapshots.shape == (100, 5) and eng.events == 0
        ends.add((eng.t, eng._clock.pos, eng.snapshots.tobytes()))
    assert len(ends) == 1


def test_single_unstable_site_stabilizes():
    cfg = _line([0.0, 1.3, 0.0, 0.0], BOX)
    verdict, final, ledger = markov_run(cfg, t_max=100.0, seed=1)
    assert verdict.outcome == "stabilized"
    assert final.is_stable()
    assert ledger.M.sum() >= 1


def test_constant_overloaded_torus_never_stabilizes():
    # total mass 1.1 * n cannot fit below height 1 on a conserving torus
    cfg = generate(DensitySpec("constant", 1.1), (64,), TORUS, seed=3)
    verdict, final, ledger = markov_run(cfg, t_max=50.0, seed=5, snapshot_every=1.0)
    assert verdict.outcome == "active-at-cutoff"
    assert verdict.min_m >= 10          # the CLI's default strong-evidence threshold
    assert min_m_slope(verdict.snapshots) > 0
    assert abs(final.total_mass() - cfg.total_mass()) < 1e-9


def test_stabilized_output_is_fixed_point():
    cfg = generate(DensitySpec("iid-uniform", 0.45), (32,), BOX, seed=4)
    cfg.heights[7] = 1.4          # guarantee at least one toppling
    verdict, final, _ = markov_run(cfg, t_max=500.0, seed=6)
    assert verdict.outcome == "stabilized"
    again, _, ledger2 = markov_run(final, t_max=50.0, seed=7)
    assert again.outcome == "stabilized" and again.t_stab == 0.0
    assert ledger2.M.sum() == 0


def test_markov_run_deterministic():
    cfg = generate(DensitySpec("constant", 1.1), (16, 16), TORUS, seed=9)
    v1, f1, l1 = markov_run(cfg, t_max=5.0, seed=123)
    v2, f2, l2 = markov_run(cfg, t_max=5.0, seed=123)
    assert np.array_equal(f1.heights, f2.heights)
    assert v1.events == v2.events and v1.t_end == v2.t_end
    assert np.array_equal(l1.M, l2.M)


def test_snapshots_schedule():
    cfg = generate(DensitySpec("constant", 1.2), (32,), TORUS, seed=2)
    verdict, _, _ = markov_run(cfg, t_max=10.0, seed=3, snapshot_every=1.0)
    rows = verdict.snapshots
    assert rows[:, 0].tolist() == [float(k) for k in range(1, 11)]
    assert ((0 <= rows[:, 1]) & (rows[:, 1] <= cfg.n_sites)).all()


def test_box_snapshots_track_dissipation():
    cfg = generate(DensitySpec("near-full", 0.9), (8, 8), BOX, seed=5)
    verdict, _, ledger = markov_run(cfg, t_max=10.0, seed=6, snapshot_every=1.0)
    diss = verdict.snapshots[:, 4].tolist()
    assert diss == sorted(diss) and 0.0 < diss[-1] <= ledger.dissipated


def test_resumable_engine_and_event_budget():
    cfg = generate(DensitySpec("constant", 1.1), (32,), TORUS, seed=11)
    eng = MarkovToppling(cfg, seed=13)
    eng.run(max_events=500)
    assert eng.events == 500
    t_mid = eng.t
    eng.run(max_events=500)
    assert eng.events == 1000 and eng.t > t_mid


@pytest.mark.parametrize("t_max", [5.0, 10.0])
def test_resumed_run_to_an_earlier_time_is_a_no_op(t_max):
    # the clock never runs backwards: no draw, no toppling, no snapshot
    cfg = generate(DensitySpec("constant", 1.1), (16,), TORUS, seed=1)
    for kernel in _backends():
        eng = MarkovToppling(cfg, seed=2)
        with _kernel_set(kernel):
            eng.run(t_max=10.0)
            before = (eng.t, eng._clock.pos, eng.events, eng.h.tolist())
            assert before[:3] == (10.0, 79, 78)
            eng.run(t_max=t_max, snapshot_every=1.0)
        assert (eng.t, eng._clock.pos, eng.events, eng.h.tolist()) == before
        assert eng.snapshots.shape == (0, 5)


def test_integer_t_max_leaves_a_float_clock():
    # both backends keep the clock a float, whatever number t_max is given as
    cfg = generate(DensitySpec("constant", 1.1), (16,), TORUS, seed=1)
    for kernel in _backends():
        eng = MarkovToppling(cfg, seed=2)
        with _kernel_set(kernel):
            eng.run(t_max=10)
        assert len(eng.unstable) and eng.t == 10.0
        assert type(eng.t) is float
        assert type(eng.verdict().t_end) is float


def _builtin(x) -> bool:
    if isinstance(x, list):
        return all(_builtin(v) for v in x)
    return type(x) in (int, float, str, bool, type(None))


def test_replica_rows_and_verdicts_hold_builtin_types():
    # the rows' scalars go through json.dumps for --format jsonl, which
    # rejects numpy scalars; the final heights stay a flat float64 array,
    # which only --save-final turns into text.  One replica stabilizes, the
    # other is active at the cutoff
    cases = [(DensitySpec("iid", 0.6), (8, 8), BOX), (DensitySpec("constant", 1.1), (16,), TORUS)]
    for kernel in _backends():
        for spec, sides, boundary in cases:
            job = _replica_jobs(spec, sides, boundary, 20.0, 1, 3, 1.0, None, ())[0]
            eng = MarkovToppling(generate(spec, sides, boundary, seed=3), seed=4)
            with _kernel_set(kernel):
                row = _replica_worker(job)
                eng.run(t_max=20.0, snapshot_every=1.0)
            heights = row.pop("heights")
            assert (heights.dtype, heights.shape) == (np.float64, (math.prod(sides),))
            assert all(_builtin(v) for v in row.values()), row
            verdict = eng.verdict()
            assert verdict.snapshots.dtype == np.float64 and len(verdict.snapshots)
            fields = [getattr(verdict, f.name) for f in dataclasses.fields(verdict)
                      if f.name != "snapshots"]
            assert all(_builtin(v) for v in fields), verdict


def test_resumed_run_keeps_the_engine_arrays():
    # the kernel works in place on the engine's own arrays, and the Python
    # loop writes its lists back into them: no run replaces one
    cfg = generate(DensitySpec("constant", 1.1), (6, 6), TORUS, seed=1)
    for kernel in _backends():
        eng = MarkovToppling(cfg, seed=2)
        led = eng.ledger
        arrays = (eng.h, eng._unstable, eng._where, led._m, led._lv, led._lc, led._diss,
                  eng._clock)
        with _kernel_set(kernel):
            eng.run(max_events=100)
            eng.run(max_events=100, snapshot_every=1.0)
        assert eng.events == 200 and len(eng.unstable)
        assert all(a is b for a, b in zip(arrays, (eng.h, eng._unstable, eng._where,
                                                   led._m, led._lv, led._lc, led._diss,
                                                   eng._clock)))


def test_runs_keep_the_engine_clock(monkeypatch):
    # the engine builds its one LatticeClock up front; no run builds another,
    # and its time and topplings are the clock's on both backends
    def refuse(*args, **kwargs):
        raise AssertionError("a LatticeClock was built during a run")

    cfg = generate(DensitySpec("iid", 0.7), (12, 12), BOX, seed=4)
    for kernel in _backends():
        eng = MarkovToppling(cfg, seed=5)
        with monkeypatch.context() as mp, _kernel_set(kernel):
            mp.setattr(lattice, "LatticeClock", refuse)
            eng.run(t_max=3.0, snapshot_every=0.5)
            eng.run(max_events=50, snapshot_every=1.0)
        clock = eng._clock
        assert (eng.t, eng.events) == (clock.t, clock.events) and clock.events > 0
        assert eng.snapshots.shape == (clock.n_rows, 5) and clock.n_rows >= 6
        assert len(eng.unstable) == clock.k
        dissipated = eng.ledger.dissipated
        assert type(dissipated) is float and dissipated == eng.ledger._diss[0] > 0
        assert eng.verdict().dissipated == dissipated


# sha256 of the snapshot rows' bytes and repr(min_m_slope(rows)) as the
# engine wrote them when it also kept a list of Snapshot objects, which the
# rows then equalled (the same on both backends); repr tells a numpy scalar
# from a Python one, and gives every float's bits
_SNAPSHOT_LISTS = {
    "box-48": (("iid", 0.65, (48, 48), BOX, 11),
               [(20.0, None, 0.05), (15.5, 3000, 0.31), (None, 100_000, 0.12)], 1582,
               "3bee89587f5132dd9e1e914a5bc7891125227c5e37fe21675c893cfe8f6e0b7b", "0.0"),
    "torus-16": (("constant", 1.05, (16, 16), TORUS, 3),
                 [(6.5, None, 0.1), (None, 20000, 1.0)], 242,
                 "1ed922088a7e870ba16eeeb274dbdf2a0c2fb58074c6e1cbed194be0ccca30cd",
                 "0.3934565757720257"),
    "line-40": (("iid", 0.8, (40,), BOX, 5), [(30.0, None, 1.0)], 30,
                "3b147437c0ff098770f4930dd0bd7a8b5a6a7c7a743bb579ec65410fabcd3191",
                "0.04649610678531703"),
}


def _resumed_engine(case):
    (kind, rho, sides, boundary, seed), runs = case
    eng = MarkovToppling(generate(DensitySpec(kind, rho), sides, boundary, seed=seed),
                         seed=seed)
    for dt, max_events, every in runs:
        t_max = math.inf if dt is None else eng.t + dt
        eng.run(t_max=t_max, max_events=max_events, snapshot_every=every)
    return eng


@pytest.mark.parametrize("name", sorted(_SNAPSHOT_LISTS))
def test_snapshot_rows_give_the_old_snapshot_lists(name):
    # the rows cross the first array's 64 rows (box-48, torus-16) and
    # 8192-draw chunk ends, over resumed runs that change snapshot_every
    *case, count, digest, slope = _SNAPSHOT_LISTS[name]
    for kernel in _backends():
        with _kernel_set(kernel):
            eng = _resumed_engine(case)
        rows = eng.snapshots
        assert (rows.dtype, rows.shape) == (np.float64, (count, 5))
        verdict = eng.verdict()
        assert verdict.snapshots is not rows
        for snaps in (rows, verdict.snapshots):
            assert hashlib.sha256(snaps.tobytes()).hexdigest() == digest
        assert repr(min_m_slope(rows)) == repr(min_m_slope(verdict.snapshots)) == slope


def test_snapshot_rows_do_not_depend_on_where_runs_resume():
    # snapshot_every 0.125 puts every snapshot time on the same float whether
    # a run resumes or not, so a run cut by max_events anywhere (within the
    # first rows, across array doublings and 8192-draw chunk ends) appends the
    # rows of the uncut run
    cfg = generate(DensitySpec("constant", 1.05), (16, 16), TORUS, seed=3)
    rows = {}
    for kernel in _backends():
        with _kernel_set(kernel):
            whole = MarkovToppling(cfg, seed=4)
            whole.run(max_events=20_000, snapshot_every=0.125)
            cut = MarkovToppling(cfg, seed=4)
            for events in (1, 63, 700, 5000, 8192, 6044):
                cut.run(max_events=events, snapshot_every=0.125)
        assert cut.events == whole.events == 20_000
        assert len(whole.snapshots) > 512
        assert whole.snapshots.tobytes() == cut.snapshots.tobytes()
        rows[kernel] = whole.snapshots.tobytes()
    assert len(set(rows.values())) == 1


def test_min_m_slope_of_a_zero_min_m_column_is_polyfits_bits():
    # min_m_slope skips the least-squares solve when min M stayed 0, as on
    # every lattice-settle replica; the solve gives +0.0 there
    for every, first in ((1.0, 1.0), (0.125, 3.0), (0.3, 0.3)):
        for n in range(2, 2001):
            rows = np.zeros((n, 5))
            rows[:, 0] = first + every * np.arange(n)
            want = float(np.polyfit(rows[:, 0], rows[:, 2], 1)[0])
            got = min_m_slope(rows)
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), (every, n)


def test_no_snapshots_give_an_empty_row_array():
    cfg = generate(DensitySpec("constant", 1.1), (16,), TORUS, seed=1)
    for kernel in _backends():
        eng = MarkovToppling(cfg, seed=2)
        assert eng.snapshots.shape == (0, 5)
        with _kernel_set(kernel):
            eng.run(max_events=500)
        verdict = eng.verdict()
        for rows in (eng.snapshots, verdict.snapshots):
            assert (rows.dtype, rows.shape) == (np.float64, (0, 5))
        assert min_m_slope(verdict.snapshots) is None


def _ring_loop_reference(config, rng, t_max):
    """The rate-n ring loop the rejection-free clock replaces.

    Every site rings at rate 1: the next ring comes after an Exp(n) wait at a
    uniform site, and a ring at a stable site does nothing.  Returns
    (t_stab or None at the cutoff, topplings).
    """
    h = config.heights.ravel().tolist()
    n = len(h)
    nbrs = [[nb for nb in row if nb >= 0]
            for row in _neighbor_arrays(config.sides, config.boundary)[0].tolist()]
    twod = 2 * config.dim
    unstable = {i for i, v in enumerate(h) if v >= 1.0}
    t = 0.0
    topplings = 0
    while unstable:
        for w, s in zip(rng.exponential(1.0 / n, 4096).tolist(),
                        rng.integers(0, n, 4096).tolist()):
            t += w
            if t > t_max:
                return None, topplings
            hx = h[s]
            if hx < 1.0:
                continue
            h[s] = 0.0
            topplings += 1
            for nb in nbrs[s]:
                h[nb] += hx / twod
                if h[nb] >= 1.0:
                    unstable.add(nb)
            unstable.discard(s)
            if not unstable:
                return t, topplings
    return 0.0, 0


def test_rejection_free_clock_matches_ring_loop():
    # Poisson thinning: drawing only the topplings (Exp(|U|) waits at uniform
    # unstable sites) gives the same process as ringing every site at rate 1.
    # Same 200 initial boxes for both engines, independent clock streams; the
    # cutoff sits near the median t_stab so the stabilized fraction is informative.
    # Each backend is tested, with clock streams of its own.
    t_max = 16.0
    ref = []
    configs = [generate(DensitySpec("iid", 0.6), (12, 12), BOX, seed=i) for i in range(200)]
    for i, cfg in enumerate(configs):
        ref.append(_ring_loop_reference(cfg, np.random.default_rng([1, i]), t_max))
    t_ref = [t for t, _ in ref if t is not None]
    assert 40 < len(t_ref) < 160
    for b, kernel in enumerate(_backends()):
        new = []
        with _kernel_set(kernel):
            for i, cfg in enumerate(configs):
                eng = MarkovToppling(cfg, rng=np.random.default_rng([2 + b, i]))
                eng.run(t_max=t_max)
                new.append((eng.t_stab, eng.events))
        t_new = [t for t, _ in new if t is not None]
        assert 40 < len(t_new) < 160
        p_frac = sstats.fisher_exact([[len(t_ref), 200 - len(t_ref)],
                                      [len(t_new), 200 - len(t_new)]]).pvalue
        p_t = sstats.ks_2samp(t_ref, t_new).pvalue
        p_top = sstats.ks_2samp([k for _, k in ref], [k for _, k in new]).pvalue
        assert min(p_frac, p_t, p_top) > 0.01, (kernel, p_frac, p_t, p_top)


def test_first_toppling_is_uniform_over_unstable_sites():
    # with |U| = 10 unstable sites the first event comes after an Exp(10)
    # wait, at each unstable site with probability 1/10
    h = np.full((8, 8), 0.2)
    sites = [(0, 0), (0, 3), (1, 6), (2, 2), (3, 5), (4, 0), (5, 3), (6, 6), (7, 1), (7, 4)]
    for x in sites:
        h[x] = 1.5
    cfg = LatticeConfig(h, TORUS)
    flat = [int(np.ravel_multi_index(x, h.shape)) for x in sites]
    counts = dict.fromkeys(flat, 0)
    waits = []
    for seed in range(2000):
        eng = MarkovToppling(cfg, seed=seed)
        eng.run(max_events=1)
        (hit,) = np.flatnonzero(eng.ledger.M.ravel())
        counts[int(hit)] += 1
        waits.append(eng.t)
    assert sstats.chisquare(list(counts.values())).pvalue > 0.01, counts
    assert sstats.kstest(waits, "expon", args=(0, 0.1)).pvalue > 0.01


@st.composite
def _small_lattices(draw):
    d = draw(st.integers(1, 3))
    boundary = draw(st.sampled_from([TORUS, BOX]))
    low = 2 if boundary == TORUS else 1
    sides = tuple(draw(st.lists(st.integers(low, 6 if d < 3 else 4),
                                min_size=d, max_size=d)))
    rho = draw(st.floats(0.3, 1.3))
    seed = draw(st.integers(0, 2**32 - 1))
    return generate(DensitySpec("iid", rho), sides, boundary, seed=seed), seed


@settings(max_examples=60, deadline=None)
@given(_small_lattices(), st.lists(st.integers(0, 3000), min_size=1, max_size=3))
def test_unstable_index_tracks_heights(lattice, budgets):
    cfg, seed = lattice
    for kernel in _backends():
        eng = MarkovToppling(cfg, seed=seed)
        for budget in budgets:
            before = eng.events
            with _kernel_set(kernel):
                eng.run(max_events=budget)
            assert eng.events - before == budget or not len(eng.unstable)
            assert sorted(eng.unstable.tolist()) == [i for i, v in enumerate(eng.h.tolist())
                                                     if v >= 1.0]
            assert all(eng._where[i] == k for k, i in enumerate(eng.unstable.tolist()))
            assert sum(w >= 0 for w in eng._where.tolist()) == len(eng.unstable)
            assert eng.ledger.M.sum() == eng.events
            assert mass_identity_check(cfg, eng.config(), eng.ledger) <= 1e-9


# ---------------------------------------------------------------------------
# parallel rounds
# ---------------------------------------------------------------------------

def test_parallel_round_shifts_odd_checkerboard():
    cfg = _line([1.2, 0, 1.2, 0, 1.2, 0], TORUS)
    out = parallel_round(cfg)
    assert out.heights.tolist() == [0, 1.2, 0, 1.2, 0, 1.2]


def test_parallel_round_identity_on_stable():
    cfg = _line([0.3, 0.9, 0.0], TORUS)
    out = parallel_round(cfg)
    assert np.array_equal(out.heights, cfg.heights)


@pytest.mark.parametrize("rho", [0.5, 0.6, 0.9])
@pytest.mark.parametrize("shape", [(32,), (12, 12)])
def test_checkerboard_period_two_exact(rho, shape):
    cfg = generate(DensitySpec("checkerboard", rho), shape, TORUS, seed=23)
    c0 = cfg.heights.copy()
    c1 = parallel_round(cfg).heights.copy()
    assert not np.array_equal(c0, c1)
    c = cfg
    for r in range(200):
        c = parallel_round(c)
        want = c1 if r % 2 == 0 else c0
        assert np.array_equal(c.heights, want)


def test_parallel_round_conserves_on_torus():
    rng = np.random.default_rng(29)
    cfg = LatticeConfig(rng.uniform(0, 1.6, (8, 8)), TORUS)
    out = parallel_round(cfg)
    assert abs(out.total_mass() - cfg.total_mass()) < 1e-12


# sha256 of the heights' bytes after three rounds from uniform [0, 2) heights
# (seed d), as parallel_round wrote them when it summed the neighbours itself
_ROUND_HEIGHTS = {
    ((9,), TORUS): "be63a5c5f331200a6bdcc0a61f0121230d2ff4912b802eb1617002e73a42d440",
    ((9,), BOX): "9e1940d70c93ec7ef0aea27c051cb4b9a35e3ce169c4bdb17fff3ca3f462c173",
    ((6, 7), TORUS): "41150481aa01467aa85d175c3aa8b136d97e4627cdc0c1101e728c2004db16ef",
    ((6, 7), BOX): "ed3bcec8502fef72c6be468bd27625423d3507b3fa18b3e5a7651ef85dea2b29",
    ((4, 5, 3), TORUS): "8984b1dabd1de0d5b51ac0893744c6d818bd012e4f740966b497ef12174e692b",
    ((4, 5, 3), BOX): "bf090bb1ee7c411b42e3ebaeb6fbbe3c3f8b3c3a088f16a5ab8ca7e92ac04f79",
}


@pytest.mark.parametrize("sides, boundary", sorted(_ROUND_HEIGHTS),
                         ids=[f"d{len(s)}-{b}" for s, b in sorted(_ROUND_HEIGHTS)])
def test_parallel_round_bits_are_pinned(sides, boundary):
    rng = np.random.default_rng(len(sides))
    cfg = LatticeConfig(rng.uniform(0.0, 2.0, sides), boundary)
    for _ in range(3):
        cfg = parallel_round(cfg)
    digest = hashlib.sha256(cfg.heights.tobytes()).hexdigest()
    assert digest == _ROUND_HEIGHTS[sides, boundary]


# ---------------------------------------------------------------------------
# conservation identities
# ---------------------------------------------------------------------------

def test_mass_identity_trivial_before_events():
    cfg = generate(DensitySpec("iid-uniform", 0.3), (6, 6), TORUS, seed=31)
    ledger = MassLedger(cfg.sides)
    assert mass_identity_check(cfg, cfg, ledger) == 0.0


def _redirected_residual(monkeypatch, table, cfg, seed, max_events):
    """The identity's residual after a run on each backend whose neighbour
    table is ``table``."""
    monkeypatch.setattr(lattice, "_neighbor_arrays", table)
    out = []
    for kernel in _backends():
        with _kernel_set(kernel):
            eng = MarkovToppling(cfg, seed=seed)
            eng.run(max_events=max_events)
        out.append(mass_identity_check(cfg, eng.config(), eng.ledger))
    return out


def test_mass_identity_on_torus_run(monkeypatch, redirected_table):
    cfg = generate(DensitySpec("constant", 1.1), (16, 16), TORUS, seed=37)
    eng = MarkovToppling(cfg, seed=41)
    for _ in range(20):
        eng.run(max_events=5000)
        resid = mass_identity_check(cfg, eng.config(), eng.ledger)
        assert resid < 1e-9
        drift = abs(eng.config().total_mass() - cfg.total_mass())
        assert drift < 1e-9
    # the check reads no neighbour table, so a wrong slot in the engine's shows
    resids = _redirected_residual(monkeypatch, redirected_table, cfg, 41, 5000)
    assert all(r > 1e-9 for r in resids), resids


def test_mass_identity_on_box_with_dissipation(monkeypatch, redirected_table):
    cfg = generate(DensitySpec("near-full", 0.9), (12, 12), BOX, seed=43)
    eng = MarkovToppling(cfg, seed=47)
    eng.run(max_events=100_000)
    resid = mass_identity_check(cfg, eng.config(), eng.ledger)
    assert resid < 1e-9
    balance = abs(eng.config().total_mass()
                  - (cfg.total_mass() - eng.ledger.dissipated))
    assert balance < 1e-9
    assert eng.ledger.dissipated > 0
    resids = _redirected_residual(monkeypatch, redirected_table, cfg, 47, 100_000)
    assert all(r > 1e-9 for r in resids), resids


def test_mass_identity_geometry_mismatch():
    a = generate(DensitySpec("constant", 0.5), (4, 4), TORUS, seed=1)
    b = generate(DensitySpec("constant", 0.5), (4, 5), TORUS, seed=1)
    with pytest.raises(ValueError):
        mass_identity_check(a, b, MassLedger((4, 4)))
    with pytest.raises(ValueError):
        mass_identity_check(a, a, MassLedger((5, 5)))


_WIDE_FLOATS = st.one_of(
    st.floats(-1e300, 1e300), st.floats(-1e-3, 1e-3),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324]))


@st.composite
def _geometry(draw, min_torus_side=1):
    boundary = draw(st.sampled_from([TORUS, BOX]))
    low = min_torus_side if boundary == TORUS else 1
    d = draw(st.integers(1, 3))
    shape = tuple(draw(st.lists(st.integers(low, 6), min_size=d, max_size=d)))
    return shape, boundary


def _neighbor_sum_loop(L, boundary):
    out = np.zeros_like(L)
    for x in np.ndindex(L.shape):
        acc = 0.0
        for ax, side in enumerate(L.shape):
            pair = []
            for step in (-1, 1):
                y = list(x)
                y[ax] += step
                if boundary == TORUS:
                    y[ax] %= side
                pair.append(L[tuple(y)] if 0 <= y[ax] < side else 0.0)
            acc += pair[0] + pair[1]
        out[x] = acc
    return out


def _shifted_reference(arr, ax, off, torus):
    """``arr`` shifted by ``off`` along ``ax``: rolled on a torus, zero-filled
    on a box (the shifts ``lattice._neighbor_sum`` summed before it sliced)."""
    if torus:
        return np.roll(arr, off, axis=ax)
    out = np.zeros_like(arr)
    src = [slice(None)] * arr.ndim
    dst = [slice(None)] * arr.ndim
    if off == 1:
        src[ax], dst[ax] = slice(0, -1), slice(1, None)
    else:
        src[ax], dst[ax] = slice(1, None), slice(0, -1)
    out[tuple(dst)] = arr[tuple(src)]
    return out


def _neighbor_sum_reference(arr, boundary):
    torus = boundary == TORUS
    out = np.zeros_like(arr)
    for ax in range(arr.ndim):
        out += _shifted_reference(arr, ax, 1, torus) + _shifted_reference(arr, ax, -1, torus)
    return out


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_neighbor_sum_by_slices_keeps_the_shifts_bits(data):
    # sides from 2 on tori and from 1 on boxes, with signed zeros, NaNs and
    # infinities among the values
    shape, boundary = data.draw(_geometry(min_torus_side=2))
    n = int(np.prod(shape))
    arr = np.reshape(data.draw(st.lists(_WIDE_FLOATS, min_size=n, max_size=n)), shape)
    with np.errstate(all="ignore"):
        got = lattice._neighbor_sum(arr, boundary)
        want = _neighbor_sum_reference(arr, boundary)
    assert got.tobytes() == want.tobytes()


def test_neighbor_sum_by_slices_on_the_smallest_sides():
    rng = np.random.default_rng(0)
    for shape in [(1,), (2,), (3,), (1, 1), (2, 1), (2, 2), (1, 2, 3), (2, 2, 2)]:
        for boundary in (TORUS, BOX):
            if boundary == TORUS and min(shape) < 2:
                continue
            arr = rng.uniform(-2.0, 2.0, shape)
            arr.flat[0] = -0.0
            got = lattice._neighbor_sum(arr, boundary)
            assert got.tobytes() == _neighbor_sum_reference(arr, boundary).tobytes()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_mass_identity_check_is_the_direct_neighbour_sum(data):
    # the residual with each site's neighbours summed by a coordinate loop,
    # axis by axis as the slices sum them
    shape, boundary = data.draw(_geometry(min_torus_side=2))
    n = int(np.prod(shape))
    heights = st.lists(st.floats(0.0, 1e6), min_size=n, max_size=n)
    initial = LatticeConfig(np.reshape(data.draw(heights), shape), boundary)
    current = LatticeConfig(np.reshape(data.draw(heights), shape), boundary)
    ledger = MassLedger(shape)
    ledger._lv = np.array(data.draw(st.lists(_WIDE_FLOATS, min_size=n, max_size=n)))
    L = ledger.L
    with np.errstate(all="ignore"):
        pred = initial.heights - L + _neighbor_sum_loop(L, boundary) / (2 * len(shape))
        want = float(np.abs(current.heights - pred).max())
        got = mass_identity_check(initial, current, ledger)
    assert got == want or (math.isnan(got) and math.isnan(want))


# ---------------------------------------------------------------------------
# internal bonds
# ---------------------------------------------------------------------------

def test_bond_counts():
    assert count_internal_bonds([(i,) for i in range(5)], (12,), BOX) == 4
    assert count_internal_bonds([(0, 0), (0, 1), (1, 0), (1, 1)], (8, 8), TORUS) == 4
    sq9 = [(i, j) for i in range(3) for j in range(3)]
    assert count_internal_bonds(sq9, (8, 8), TORUS) == 12
    # a full torus ring closes the wrap bond
    assert count_internal_bonds([(i,) for i in range(12)], (12,), TORUS) == 12
    assert count_internal_bonds([(i,) for i in range(12)], (12,), BOX) == 11


def test_bond_count_mask_input():
    mask = np.zeros((6, 6), dtype=bool)
    mask[1:4, 2:4] = True        # 3x2 block: 3*1 + 2*2 = 7 bonds
    assert count_internal_bonds(mask, (6, 6), TORUS) == 7


@pytest.mark.parametrize("region, shape, message", [
    ({0}, (1,), "torus sides must be >= 2"),        # a side-1 torus: a self-loop bond
    ((0,), (0,), r"every lattice side must be >= 1, got \(0,\)"),
])
def test_bond_count_rejects_a_bad_geometry(region, shape, message):
    with pytest.raises(ValueError, match=message):
        count_internal_bonds(region, shape, TORUS)


def test_bond_bound_precondition_reported():
    cfg = generate(DensitySpec("constant", 0.9), (6, 6), TORUS, seed=53)
    report = bond_bound_check(cfg, [(0, 0), (0, 1)], MassLedger(cfg.sides))
    assert report.precondition_met is False
    assert report.holds is None
    assert report.beta == 1


def test_bond_bound_holds_during_active_run():
    cfg = generate(DensitySpec("constant", 1.1), (12, 12), TORUS, seed=59)
    eng = MarkovToppling(cfg, seed=61)
    region = [(i, j) for i in range(4, 8) for j in range(4, 8)]
    eng.run(max_events=20_000)
    checked = 0
    for _ in range(30):
        eng.run(max_events=1000)
        report = bond_bound_check(eng.config(), region, eng.ledger)
        if report.precondition_met:
            checked += 1
            assert report.holds, (report.region_mass, report.bound)
    assert checked >= 25


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def test_generate_constant():
    cfg = generate(DensitySpec("constant", 0.3), (10, 10), TORUS, seed=1)
    assert np.array_equal(cfg.heights, np.full((10, 10), 0.3))


def test_generate_iid_mean():
    rho = 0.35
    cfg = generate(DensitySpec("iid", rho), (64, 64), TORUS, seed=2)
    se = 2 * rho / math.sqrt(12 * cfg.n_sites)
    assert abs(cfg.heights.mean() - rho) < 3 * se
    assert cfg.heights.max() < 2 * rho


def test_generate_checkerboard():
    cfg = generate(DensitySpec("checkerboard", 0.55), (32, 32), TORUS, seed=3)
    vals = np.unique(cfg.heights)
    assert set(np.round(vals, 12)) == {0.0, 1.1}
    assert cfg.heights.mean() == pytest.approx(0.55, abs=1e-12)
    assert (cfg.heights == 1.1).sum() == cfg.n_sites // 2
    with pytest.raises(ValueError):
        generate(DensitySpec("checkerboard", 0.55), (31, 32), TORUS, seed=3)


def test_generate_checkerboard_parity_randomized():
    parities = set()
    for seed in range(12):
        cfg = generate(DensitySpec("checkerboard", 0.6), (4, 4), TORUS, seed=seed)
        parities.add(float(cfg.heights[0, 0]))
    assert parities == {0.0, 1.2}


def test_generate_near_full_interval_form():
    # rho high enough that the symmetric interval already contains unstable mass
    bands = near_full_bands(0.95, 2)
    assert bands["form"] == "interval"
    cfg = generate(DensitySpec("near-full", 0.95), (48, 48), TORUS, seed=5)
    assert cfg.heights.min() >= 0.75
    assert cfg.heights.max() <= 1.15
    assert (cfg.heights >= 1.0).any()
    assert abs(cfg.heights.mean() - 0.95) < 0.01


def test_generate_near_full_two_band_form():
    bands = near_full_bands(0.8, 2)
    assert bands["form"] == "two-band"
    cfg = generate(DensitySpec("near-full", 0.8), (48, 48), TORUS, seed=7)
    assert cfg.heights.min() >= 0.75
    assert (cfg.heights >= 1.0).mean() > 0.02
    assert abs(cfg.heights.mean() - 0.8) < 0.01


def test_generate_near_full_thin_band_branch():
    # just above the feasibility floor the band width shrinks to fit
    bands = near_full_bands(0.76, 2)
    assert bands["form"] == "two-band"
    assert bands["band_width"] == pytest.approx(0.01)
    cfg = generate(DensitySpec("near-full", 0.76), (64, 64), TORUS, seed=11)
    assert cfg.heights.min() >= 0.75
    assert (cfg.heights >= 1.0).any()
    assert abs(cfg.heights.mean() - 0.76) < 0.005


def test_generate_near_full_rejects_low_rho():
    with pytest.raises(ValueError):
        near_full_bands(0.7, 2)      # below (2d-1)/(2d) = 0.75
    with pytest.raises(ValueError):
        generate(DensitySpec("near-full", 0.5), (8,), TORUS, seed=1)


def test_check_size_rejects_2_31_sites():
    for sides in [(65536, 32768), (2**31,), (1024, 1024, 2048), (2**40, 2**40)]:
        with pytest.raises(ValueError, match="too large"):
            _check_geometry(sides, TORUS)
    _check_geometry((2**31 - 1,), TORUS)
    _check_geometry((65536, 32767), TORUS)


# 1 GiB of address space, so that a check that came after an allocation of
# the lattice would end in a MemoryError, whatever the host's overcommit
_OVERSIZED = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
import numpy as np
from zhangpile.lattice import DensitySpec, LatticeConfig, generate
for make in (lambda: generate(DensitySpec("iid", 0.5), (65536, 32768)),
             lambda: LatticeConfig(np.broadcast_to(0.0, (65536, 32768)))):
    try:
        make()
    except ValueError as exc:
        print(exc)
"""


def test_oversized_lattice_is_rejected_before_allocation():
    src = str(Path(zhangpile.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _OVERSIZED], capture_output=True,
                          text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["a lattice of 2147483648 sites is too large: "
                                        "at most 2^31 - 1"] * 2


def test_density_spec_validation():
    with pytest.raises(ValueError):
        DensitySpec("mystery", 0.5)
    for bad in (-0.1, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            DensitySpec("iid", bad)
    assert DensitySpec("iid", 0.4).kind == "iid-uniform"
    d = DensitySpec("near-full", 0.8).describe(2)
    assert d["form"] == "two-band"


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def test_three_dimensional_lattice():
    # six neighbours, conservation, and the identity all hold for d=3
    h = np.zeros((4, 4, 4))
    h[1, 2, 3] = 1.5
    out, led = topple_lattice(LatticeConfig(h, TORUS), (1, 2, 3))
    nbrs = [(0, 2, 3), (2, 2, 3), (1, 1, 3), (1, 3, 3), (1, 2, 2), (1, 2, 0)]
    for nb in nbrs:
        assert out.heights[nb] == pytest.approx(0.25, abs=1e-12)
    assert out.heights[1, 2, 3] == 0.0

    cfg = generate(DensitySpec("near-full", 0.95), (4, 4, 4), TORUS, seed=77)
    eng = MarkovToppling(cfg, seed=78)
    eng.run(max_events=30_000)
    assert mass_identity_check(cfg, eng.config(), eng.ledger) < 1e-9
    assert abs(eng.config().total_mass() - cfg.total_mass()) < 1e-9
    bands = near_full_bands(0.9, 3)
    assert bands["low"] == pytest.approx(1 - 1 / 6)


def _plain(rows):
    # replica rows with their final heights as lists, so that == compares them
    return [dict(r, heights=r["heights"].tolist()) for r in rows]


def test_experiment_summary_and_determinism():
    spec = DensitySpec("iid", 0.3)
    s1 = stabilizability_sweep([spec], (32,), TORUS, t_max=50.0, replicas=4, seed=71)[0]
    s2 = stabilizability_sweep([spec], (32,), TORUS, t_max=50.0, replicas=4, seed=71,
                               workers=2)[0]
    assert _plain(s1.rows) == _plain(s2.rows)
    assert s1.fraction_stabilized == 1.0
    assert all(r["mass_residual"] < 1e-9 for r in s1.rows)


def test_sweep_is_one_experiment_per_grid_point(monkeypatch):
    # one pool for the whole grid; grid point g holds the runs of the jobs
    # whose replicas carry the spawn keys (g, i)
    specs = [DensitySpec("iid", 0.3), DensitySpec("constant", 1.1),
             DensitySpec("iid", 0.9)]
    kw = dict(sides=(12,), boundary=TORUS, t_max=20.0, replicas=3, seed=79)
    opened = []
    real_pool = zhangpile.lattice.Pool

    def counting_pool(*args):
        opened.append(args)
        return real_pool(*args)

    monkeypatch.setattr(zhangpile.lattice, "Pool", counting_pool)
    swept = stabilizability_sweep(specs, **kw, workers=2)
    assert len(opened) == 1
    serial = stabilizability_sweep(specs, **kw)
    for g, spec in enumerate(specs):
        jobs = _replica_jobs(spec, kw["sides"], kw["boundary"], kw["t_max"], kw["replicas"],
                             kw["seed"], 1.0, None, g)
        assert [job[6] for job in jobs] == [(g, i) for i in range(kw["replicas"])]
        alone = [dict(_replica_worker(job), replica=i) for i, job in enumerate(jobs)]
        stabilized = sum(r["outcome"] == "stabilized" for r in alone) / len(alone)
        for s in (swept[g], serial[g]):
            assert _plain(s.rows) == _plain(alone)
            assert s.fraction_stabilized == stabilized
    assert len(opened) == 1


def test_experiment_active_case():
    spec = DensitySpec("constant", 1.1)
    s = stabilizability_sweep([spec], (32,), TORUS, t_max=30.0, replicas=3, seed=73)[0]
    assert s.fraction_stabilized == 0.0
    assert all(r["min_m_slope"] is not None and r["min_m_slope"] > 0 for r in s.rows)
    assert all(r["outcome"] == "active-at-cutoff" for r in s.rows)
