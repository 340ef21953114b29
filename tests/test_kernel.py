"""The compiled chain and lattice kernels against the Python reference loops.

Every check runs both backends on the same inputs and requires bit-equal
results, or shows that a kernel gate fails where the Python one does.
"""

import copy
import ctypes
import dataclasses
import math
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import zhangpile
import zhangpile.core as core
from zhangpile import coupling
from zhangpile.chain import (
    ChainProcess,
    MarginalStats,
    _drive_compiled,
    _drive_python,
    drive,
)
from zhangpile.cli import main
from zhangpile.core import InvariantViolation, ToppleCapError, _relax_leftmost
from zhangpile.coupling import PHASE_CONTRACTION, Coupling
from zhangpile.lattice import BOX, TORUS, DensitySpec, LatticeConfig, MarkovToppling, generate

pytestmark = pytest.mark.skipif(shutil.which("gcc") is None, reason="needs gcc")


@pytest.fixture
def lib():
    kernel = core.chain_kernel()
    assert kernel is not None, "gcc is present but the kernel did not build"
    return kernel


@pytest.fixture(params=["python", "compiled"])
def backend(request, lib, monkeypatch):
    """Run the test on each backend; ``python`` is what a failed build leaves."""
    monkeypatch.setattr(core, "_kernel", [lib if request.param == "compiled" else None])
    return request.param


def _bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


@contextmanager
def _kernel_set(kernel):
    """Run the block on ``kernel`` (None: the Python loops), for hypothesis
    tests, which cannot take the function-scoped ``backend`` fixture."""
    saved = core._kernel[:]
    core._kernel[:] = [kernel]
    try:
        yield
    finally:
        core._kernel[:] = saved


# ---------------------------------------------------------------------------
# chain: differential test
# ---------------------------------------------------------------------------

@st.composite
def chains(draw):
    n = draw(st.integers(1, 40))
    a, b = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2,
                                unique=True)))
    start = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=n,
                          max_size=n))
    burn = draw(st.integers(0, 3000))
    # the sampled run always crosses the 4096-addition chunk boundary
    samples = 4097 - burn + draw(st.integers(0, 2500))
    # 256 is finite-run's default; 1 and a prime number of bins test the
    # clip and the truncation of the bin index
    bins = draw(st.sampled_from([1, 3, 7, 256]))
    seed = draw(st.integers(0, 2**32 - 1))
    return n, a, b, start, burn, samples, bins, seed


@settings(max_examples=25, deadline=None)
@given(chains())
@example((1, 0.3, 0.9, [0.5], 100, 4500, 7, 11))      # numpy sums one site pairwise
@example((1, 0.0, 1.0, [0.0], 0, 5000, 1, 12))
@example((30, 0.6, 0.8, [0.0] * 30, 1000, 6000, 256, 13))
def test_kernel_drive_matches_python_reference(spec):
    n, a, b, start, burn, samples, bins, seed = spec
    lib = core.chain_kernel()
    assert lib is not None
    out = []
    for backend in ("python", "compiled"):
        p = ChainProcess(n, a, b, heights=start, seed=seed)
        stats = MarginalStats(n, bins=bins)
        events = []
        for steps, st_ in ((burn, None), (samples, stats)):
            if backend == "python":
                _drive_python(p, steps, st_, events.append)
            else:
                _drive_compiled(lib, p, steps, st_, events.append)
        out.append((_bits(p.heights), p.t, p._additions.pos, stats.count,
                    _bits(stats._sum), _bits(stats._sumsq), stats.hist.tobytes(),
                    events))
    assert out[0] == out[1]


def test_drive_uses_the_kernel_and_matches_fallback(lib, monkeypatch):
    # the public drive picks the kernel when it loads; the fallback agrees
    runs = []
    for kernel in (lib, None):
        monkeypatch.setattr(core, "_kernel", [kernel])
        p = ChainProcess(30, 0.6, 0.8, seed=7919)
        stats = MarginalStats(30)
        drive(p, 1000)
        drive(p, 5000, stats=stats)
        runs.append((_bits(p.heights), p.t, _bits(stats._sum), stats.hist.tobytes()))
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# chain: the gates fail on both backends
# ---------------------------------------------------------------------------

def _force_additions(add, sites, amts):
    """Make the next additions of the stream ``add`` the given ones."""
    add.site_array = np.array(sites, dtype=np.int64)
    add.amt_array = np.array(amts, dtype=np.float64)
    add._sites = add._amts = None
    add.pos = 0


def test_topple_cap_raises_through_drive(backend):
    # any addition to [0.95, 0.95] topples its site and then the neighbour
    p = ChainProcess(2, 0.5, 1.0, heights=[0.95, 0.95], seed=3, cap=1)
    with pytest.raises(ToppleCapError, match="exceeded 1 topplings; finite chains "
                                              "must stabilize"):
        drive(p, 10, stats=MarginalStats(2))
    assert (p.t, p._additions.pos, p.heights) == (0, 1, [0.0, 0.0])


def test_heavy_gate_raises_through_drive(backend):
    # a >= 1/2 makes every addition to a full site topple; a crafted 0.3
    # addition to the full site 1 does not, which the gate must catch at t=2
    p = ChainProcess(2, 0.5, 1.0, heights=[0.6, 0.2], seed=3)
    _force_additions(p._additions, [1, 0, 1], [0.6, 0.3, 0.6])
    events = []
    with pytest.raises(InvariantViolation,
                       match=r"a=0.5 >= 1/2: addition to a full site must topple \(t=2\)"):
        drive(p, 3, event_sink=events.append)
    assert (p.t, p._additions.pos, p.heights) == (2, 2, [0.6 + 0.3, 0.2 + 0.6])
    assert [e["t"] for e in events] == [1]


def _stream_with(n, a, b, seed, at, site, amount):
    """The first chunk of the additions of ``ChainProcess(n, a, b, seed=seed)``,
    with addition ``at`` replaced by (``site``, ``amount``)."""
    add = ChainProcess(n, a, b, seed=seed)._additions
    add.refill()
    sites, amts = add.site_array.copy(), add.amt_array.copy()
    sites[at], amts[at] = site, amount
    return sites, amts


def _stats_after_trip(n, a, b, seed, sites, amts, cap, error):
    # both backends run into the same gate in the middle of the second
    # statistics block; the first block is folded, the second is not
    out = []
    for kernel in (None, core.chain_kernel()):
        with _kernel_set(kernel):
            p = ChainProcess(n, a, b, seed=seed, cap=cap)
            _force_additions(p._additions, sites, amts)
            stats = MarginalStats(n, bins=7)
            with pytest.raises(error):
                drive(p, 4000, stats=stats)
        out.append((p.t, p._additions.pos, _bits(p.heights), stats.count,
                    _bits(stats._sum), _bits(stats._sumsq), stats.hist.tobytes()))
    assert out[0] == out[1]
    assert out[0][3] == 2048
    return out[0]


def test_topple_cap_mid_block_leaves_stats_alike(lib):
    # natural avalanches at n=30 stay far below the cap; the crafted addition
    # of 1e6 at step 2101 does not
    sites, amts = _stream_with(30, 0.6, 0.8, 5, 2100, 15, 1e6)
    t = _stats_after_trip(30, 0.6, 0.8, 5, sites, amts, 10_000, ToppleCapError)[0]
    assert t == 2100


def test_heavy_gate_mid_block_leaves_stats_alike(lib):
    # with a = 1/2 every natural addition to a full site topples; a crafted
    # zero addition to a full site at step 2101 does not
    p = ChainProcess(4, 0.5, 1.0, seed=6)
    _drive_python(p, 2100, None, None)
    full = int(np.argmax(p.heights))
    assert p.heights[full] >= 0.5
    sites, amts = _stream_with(4, 0.5, 1.0, 6, 2100, full, 0.0)
    t = _stats_after_trip(4, 0.5, 1.0, 6, sites, amts, core.DEFAULT_TOPPLE_CAP,
                          InvariantViolation)[0]
    assert t == 2101


def test_kernel_entry_reports_heavy_violation(lib):
    h = np.array([0.6, 0.2])
    sites = np.array([1, 0, 1], dtype=np.int64)
    amts = np.array([0.6, 0.3, 0.6])
    tops = np.full(3, -1, dtype=np.int64)
    assert core.kernel_drive(lib, h, sites, amts, 100, True, tops=tops) == (1, 2)
    assert tops.tolist() == [0, -1, -1]
    h = np.array([0.6, 0.2])
    assert core.kernel_drive(lib, h, sites, amts, 100, False) == (3, 0)


@pytest.mark.parametrize("bad", [
    {"h": np.array([0.1, 0.2], dtype=np.float32)},
    {"h": np.array([0.1, 0.0, 0.2, 0.0])[::2]},
    {"sites": np.array([0, 1], dtype=np.int32)},
    {"sites": np.array([0, 2], dtype=np.int64)},
    {"sites": np.array([-1, 0], dtype=np.int64)},
    {"amts": np.array([0.5])},
    {"amts": [0.5, 0.5]},
    {"rows": np.empty((1, 2))},
    {"tops": np.empty(2, dtype=np.float64)},
    {"counts": np.zeros((2, 4))},
    {"counts": np.zeros((2, 4), dtype=np.int32)},
    {"counts": np.zeros(8, dtype=np.int64)},
    {"counts": np.zeros((4, 2), dtype=np.int64)},
    {"counts": np.zeros((2, 0), dtype=np.int64)},
    {"counts": np.zeros((2, 8), dtype=np.int64)[:, ::2]},
    {"counts": np.zeros((4, 2), dtype=np.int64).T},
    {"counts": np.zeros((2, 4), dtype=np.int64)[None]},
    {"counts": np.frombuffer(bytes(64), dtype=np.int64).reshape(2, 4)},   # read-only
])
def test_kernel_entry_checks_its_arrays(lib, bad):
    args = {"h": np.array([0.1, 0.2]), "sites": np.array([0, 1], dtype=np.int64),
            "amts": np.array([0.5, 0.5]), "rows": None, "tops": None, "counts": None}
    args.update(bad)
    with pytest.raises(ValueError, match="kernel argument"):
        core.kernel_drive(lib, args["h"], args["sites"], args["amts"], 100, False,
                          rows=args["rows"], tops=args["tops"], counts=args["counts"])


def test_kernel_entry_bins_like_marginal_stats(lib):
    # heights at and next to the edges of 3 bins, and (the kernel relaxes only
    # the site it adds to) heights outside [0, 1), which both backends send
    # to the first or the last bin: NaN to the first, and 1e300, whose bin
    # index is past 2^63, to the last
    h = np.array([0.0, 1 / 3, 2 / 3, 1 - 2**-53, 0.5 - 2**-54, -0.0, -0.5, 1.5, 4.0,
                  1e300, math.nan])
    n = h.size
    rows = np.empty((1, n))
    counts = np.zeros((n, 3), dtype=np.int64)
    core.kernel_drive(lib, h, np.array([0], dtype=np.int64), np.array([0.0]), 100, False,
                      rows=rows, counts=counts)
    stats = MarginalStats(n, bins=3)
    with np.errstate(over="ignore"):        # the second moment of 1e300 is inf
        stats.add_batch(rows)
    assert counts.tolist() == stats.hist.tolist()
    assert counts.argmax(axis=1).tolist() == [0, 1, 2, 2, 1, 0, 0, 2, 2, 2, 0]


# ---------------------------------------------------------------------------
# merged coupling
# ---------------------------------------------------------------------------

def _merged_pair(record=False):
    c = Coupling([0.1, 0.2, 0.3], [0.8, 0.6, 0.4], 0.2, 0.9, seed=1,
                 record_streams=record)
    c.run(100_000)
    assert c.phase == "merged"
    return c


def test_merged_kernel_matches_python_steps(lib, monkeypatch):
    runs = []
    for kernel in (lib, None):
        monkeypatch.setattr(core, "_kernel", [kernel])
        c = _merged_pair(record=True)
        assert c.run_steps(20_000, require_equal=True)
        runs.append((c.hA, c.hB, c.t, c.phase_steps, c.streamA, c.streamB,
                     c._addC.pos))
    assert runs[0] == runs[1]


def test_perturbed_merged_pair_fails_the_check(backend):
    c = _merged_pair()
    c.hB[1] = np.nextafter(c.hB[1], 0.0)
    assert c.run_steps(1000, require_equal=True) is False
    assert c.run_steps(1000) is True            # the check is off


def test_pair_kernel_counts_unequal_steps(lib):
    hA = np.array([0.5, 0.5, 0.5])
    hB = hA.copy()
    hB[2] = 0.25
    sites = np.array([0, 0, 1], dtype=np.int64)
    amts = np.array([0.2, 0.2, 0.2])
    done, status, differed = core.kernel_drive_pair(lib, hA, hB, sites, amts, 100)
    assert (done, status, differed) == (3, 0, 3)
    ref = [0.5, 0.5, 0.5]
    for x, u in zip(sites.tolist(), amts.tolist()):
        ref[x] += u
        if ref[x] >= 1.0:
            _relax_leftmost(ref, x)
    assert hA.tolist() == ref


def test_topple_cap_raises_in_merged_pair(backend):
    c = Coupling([0.95, 0.95], [0.95, 0.95], 0.5, 1.0, seed=2, cap=1)
    with pytest.raises(ToppleCapError, match="exceeded 1 topplings"):
        c.run_steps(5, require_equal=True)
    assert c.t == 0 and c._addC.pos == 1


# ---------------------------------------------------------------------------
# coupling to the merge: differential test
# ---------------------------------------------------------------------------

@st.composite
def couplings(draw):
    # n = 2 and 3 merge within the budgets, larger n stop in earlier phases
    n = draw(st.sampled_from([3, 2, 3, 4, 5, 6, 7, 8]))
    a = draw(st.floats(0.0, 0.95))
    b = draw(st.floats(a + 0.01, 1.0))
    # random stable starts, E_b starts (either side) or one start twice
    kind = draw(st.sampled_from(["random", "E_b", "equal"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    starts = []
    for _ in range(2):
        if kind == "E_b":
            h = rng.uniform(0.5, 1.0, n)
            h[rng.choice([0, n - 1])] = 0.0
        else:
            h = rng.uniform(0.0, 1.0, n)
        starts.append(h.tolist())
    eta_a, eta_b = starts[0], starts[kind != "equal"]
    # run() to budgets that cut phases and chunks anywhere, run() to a clock
    # inside the merging phase, and step()s; the last run() alone passes the
    # first 8192-addition chunks of streams A, B
    plan = draw(st.lists(st.one_of(st.tuples(st.just("run"), st.integers(0, 20_000)),
                                   st.tuples(st.just("merging"), st.integers(1, 40)),
                                   st.tuples(st.just("step"), st.integers(1, 300))),
                         max_size=4))
    plan.append(("run", 8193 + draw(st.integers(0, 12_000))))
    # short stream chunks and recording blocks make every kernel call end
    # at many chunk ends and block ends
    sizes = draw(st.sampled_from([(8192, 16384), (64, 16384), (5, 3)]))
    return (n, a, b, eta_a, eta_b, draw(st.integers(0, 2**32 - 1)), draw(st.booleans()),
            plan, sizes)


def _coupling_state(c):
    streams = (c._addA, c._addB, c._addC)
    return (_bits(c.hA), _bits(c.hB), c.t, c.restarts, c.restarts_by_cause, c.phase_steps,
            c.phase, c.flip, c._k_aval, c._targetL, c._ebA, c._ebB, c.merge_time,
            c.final_merging_steps, c._mk, c._merging_steps,
            _bits([c._Dk, c._between_hi, c._av_lo, c._av_hi, c._thresh]),
            [(s.pos, s.site_array.tobytes()) for s in streams], c.streamA, c.streamB)


def _merging_clock(c, merging_steps, limit=20_000):
    """The first clock at which a copy of ``c``, driven by the Python loops, is
    in the merging phase after ``merging_steps`` more merging-phase steps; the
    last clock tried if there is none."""
    ref = copy.deepcopy(c)
    goal = ref.phase_steps["merging"] + merging_steps
    stop = c.t + limit
    with _kernel_set(None):
        while ref.t < stop and ref.phase != "merged":
            if ref.phase == "independent":
                ref._run_independent(stop)      # to the next coupled phase
            else:
                ref.step()
            if ref.phase == "merging" and ref.phase_steps["merging"] >= goal:
                break
    return ref.t


@settings(max_examples=40, deadline=None)
@given(couplings())
def test_coupling_kernel_matches_python_reference(spec):
    n, a, b, eta_a, eta_b, seed, record, plan, (chunk, rec_rows) = spec
    lib = core.chain_kernel()
    assert lib is not None
    with mock.patch.object(coupling, "_CHUNK", chunk), \
            mock.patch.object(coupling, "_REC_ROWS", rec_rows):
        pairs = {kernel: Coupling(eta_a, eta_b, a, b, seed=seed, record_streams=record)
                 for kernel in (None, lib)}
        for how, count in plan:
            if how == "merging":
                # run() stops inside a merging attempt (if one begins soon)
                how, count = "run", _merging_clock(pairs[None], count) - pairs[None].t
            for kernel, c in pairs.items():
                with _kernel_set(kernel):
                    if how == "run":
                        c.run(c.t + count)
                    else:
                        for _ in range(count):
                            c.step()
            assert _coupling_state(pairs[lib]) == _coupling_state(pairs[None])


def _merge_draws(c):
    """The shared additions that take the merging pair ``c`` (a copy of it)
    to the merge without a restart: each at logical site 1, in the middle of
    the window its stage asks for."""
    ref = copy.deepcopy(c)
    draws = []
    with _kernel_set(None):
        while ref.phase == "merging":
            p1 = ref._phys(1)
            if max(ref.hA[p1], ref.hB[p1]) > ref._thresh:
                u = 0.5 * (ref._av_lo + ref._av_hi)
            else:
                u = 0.5 * (ref._half + ref._between_hi)
            draws.append((p1, u))
            _force_additions(ref._addC, [p1], [u])
            ref.step()
    assert ref.phase == "merged" and ref.restarts == 0
    return draws


@pytest.mark.parametrize("record", [False, True])
@pytest.mark.parametrize("n", range(2, 9))
def test_coupling_kernel_merges_like_python(lib, n, record):
    # two E_b starts on either side, closer than eps1, enter the merging
    # phase at once; forced draws take them through all n-1 stages
    a, b = 0.2, 0.9
    eps1 = coupling.epsilon_abn(a, b, n)
    rng = np.random.default_rng(n)
    eta_a = rng.uniform(0.5, 0.95, n)
    eta_a[(n - 1) * (n % 2)] = 0.0
    eta_b = eta_a + rng.uniform(-0.2, 0.2, n) * eps1 / n
    eta_b[eta_a == 0.0] = 0.0
    pairs = {kernel: Coupling(eta_a, eta_b, a, b, seed=n, record_streams=record)
             for kernel in (None, lib)}
    draws = _merge_draws(pairs[None])
    assert len(draws) >= n - 1
    for kernel, c in pairs.items():
        assert c.phase == "merging" and c.flip == (n % 2 == 0)
        _force_additions(c._addC, *zip(*draws))
        with _kernel_set(kernel):
            # run() stops inside the merging phase, step() takes over from
            # its state, and run() resumes from step()'s
            c.run(len(draws) // 2)
            assert c.phase == "merging"
            c.step()
            c.run(10 * len(draws))
        assert c.phase == "merged" and c.hA == c.hB
        assert (c.merge_time, c.final_merging_steps) == (len(draws), len(draws))
    assert _coupling_state(pairs[lib]) == _coupling_state(pairs[None])


def test_one_kernel_call_per_stream_chunk(lib, monkeypatch):
    # a couple-verify seed: every restart of the merging phase stays inside
    # zp_couple, so only a stream refill starts another call
    calls = []
    refill = coupling.AdditionStream.refill
    monkeypatch.setattr(coupling.AdditionStream, "refill",
                        lambda add: (calls.append("refill"), refill(add))[1])

    class Counting:
        def __getattr__(self, name):
            return getattr(lib, name)

        def zp_couple(self, *args):
            calls.append("zp_couple")
            return lib.zp_couple(*args)

    monkeypatch.setattr(core, "_kernel", [Counting()])
    r = coupling.coupling_sweep(3, 0.2, 0.9, [1], 1_000_000)[0]
    assert r.merged and r.restarts > 100
    assert 1 <= calls.count("zp_couple") <= 1 + calls.count("refill")


# ---------------------------------------------------------------------------
# coupling to the merge: crafted gates, restarts and phase entries, on both backends
# ---------------------------------------------------------------------------

def _contraction_pair(eta_a, eta_b, k_aval, target, cap=100):
    # a pair put straight into the contraction phase (n=3, a=0.2, b=0.9: a
    # draw of at least 0.55 at the target site keeps it there)
    c = Coupling(eta_a, eta_b, 0.2, 0.9, seed=4, record_streams=True, cap=cap)
    assert c.phase == "independent"
    c.phase = PHASE_CONTRACTION
    c._k_aval = k_aval
    c._targetL = target
    return c


def _after_gate(c):
    return (c.hA, c.hB, c.t, c.phase_steps, c.restarts, c._addA.pos, c._addB.pos,
            c._addC.pos, c.streamA, c.streamB)


def test_contraction_desync_gate_raises(backend):
    # one chain topples at the target, the other does not
    c = _contraction_pair([0.1, 0.1, 0.9], [0.1, 0.1, 0.1], 0, 3)
    _force_additions(c._addC, [2], [0.6])
    with pytest.raises(InvariantViolation, match="^contraction avalanches desynchronized$"):
        c.run(10)
    assert _after_gate(c) == ([0.1, 0.1 + 0.75, 0.0], [0.1, 0.1, 0.7], 0,
                              dict.fromkeys(c.phase_steps, 0), 0, 0, 0, 1, [(2, 0.6)],
                              [(2, 0.6)])


def test_contraction_lands_outside_E_N_gate_raises(backend):
    # the second sweep leaves an anomalous site 3, so neither chain is in E_3
    c = _contraction_pair([0.9, 0.1, 0.1], [0.8, 0.2, 0.1], 1, 1)
    _force_additions(c._addC, [0], [0.6])
    with pytest.raises(InvariantViolation,
                       match="^contraction avalanche did not land in E_N$"):
        c.run(10)
    assert _after_gate(c)[:8] == ([0.0, 0.1 + 0.75, 0.1], [0.0, 0.2 + 0.7, 0.1], 0,
                                  dict.fromkeys(c.phase_steps, 0), 0, 0, 0, 1)
    assert (c._k_aval, c._targetL) == (2, 3)


@pytest.mark.parametrize("where", ["contraction", "restart", "independent-A",
                                   "independent-B"])
def test_topple_cap_raises_before_the_merge(backend, where):
    # site 3 at 0.9 next to 0.9: a 0.6 there topples twice, past a cap of 1
    c = _contraction_pair([0.1, 0.9, 0.9], [0.1, 0.9, 0.9 - 1e-3], 0, 3, cap=1)
    if where == "restart":
        c._targetL = 1                          # a draw off the target restarts
    if where.startswith("independent"):
        c.phase = "independent"
        first, second = (c._addA, c._addB) if where.endswith("A") else (c._addB, c._addA)
        _force_additions(first, [2], [0.6])
        _force_additions(second, [0], [0.3])
    else:
        _force_additions(c._addC, [2], [0.6])
    with pytest.raises(ToppleCapError, match="^exceeded 1 topplings; finite chains "
                                             "must stabilize$"):
        c.run(10)
    pos = {"contraction": (0, 0, 1), "restart": (0, 0, 1), "independent-A": (1, 0, 0),
           "independent-B": (1, 1, 0)}[where]
    failing = [0.1, 0.0, 0.0]
    other = [0.1 + (where == "independent-B") * 0.3, 0.9, 0.9]
    hA, hB = (other, failing) if where == "independent-B" else (failing, [0.1, 0.9, 0.9 - 1e-3])
    assert _after_gate(c) == (hA, hB, 0, dict.fromkeys(c.phase_steps, 0), 0, *pos, [], [])


def test_entering_E_b_close_together_starts_merging(backend):
    # equal additions take two chains 1e-13 apart into E_1 together: the
    # independent phase hands over to merging, not to contraction
    c = Coupling([0.6, 0.7, 0.3], [0.6, 0.7, 0.3 + 1e-13], 0.2, 0.9, seed=4)
    for add in (c._addA, c._addB):
        _force_additions(add, [2], [0.8])
    c.run(1)
    assert (c.phase, c.flip, c.t, c.phase_steps["independent"], c._addC.pos) == (
        "merging", True, 1, 1, 0)


def test_contraction_sweep_close_together_starts_merging(backend):
    # the second sweep ends with both chains in E_3 and 1e-12 apart: the
    # contraction step that did it is counted, then merging begins
    c = _contraction_pair([0.9, 0.6, 0.6], [0.9, 0.6, 0.6 + 1e-12], 1, 1)
    _force_additions(c._addC, [0], [0.6])
    c.run(1)
    assert (c.phase, c.t, c.phase_steps["contraction"], c._k_aval, c._addC.pos) == (
        "merging", 1, 1, 2, 1)
    assert c.hA[2] == c.hB[2] == 0.0


def _craft_unequal_completion(c):
    # the last stage: sites 2 and 3 end equal, site 1 ends 1e-3 apart
    c.hA[:] = [0.6, 0.7, 0.1]
    c.hB[:] = [0.6, 0.698, 0.101]
    c._mk = 2
    c._stage_init()


def _craft_mirrored_nan(c):
    # in the mirrored frame the avalanche runs leftwards and stops short of a
    # NaN at logical site 3, which a comparison by > lets through all stages
    # to a merge that overwrites it
    c.hA.reverse()
    c.hB.reverse()
    c.flip = True
    c._stage_init()
    c.hB[0] = math.nan


# (how to break a merging pair, the message of the gate that must then fire)
_MERGING_GATES = {
    "ill-formed": (lambda c: setattr(c, "constants", dataclasses.replace(
        c.constants, eps_schedule=[c.eps1, 1.0, 1.0])),
        r"merge-phase addition intervals are ill-formed"),
    "D-bound": (lambda c: setattr(c, "constants", dataclasses.replace(
        c.constants, d_bounds=[c.constants.d_bounds[0], -1.0])),
        r"\|D_2\|=\d\.\d{3}e[+-]\d\d exceeds its bound -1\.000e\+00"),
    "no-fire": (lambda c: c.hB.__setitem__(0, 0.1),
                r"scheduled merge avalanche failed to fire"),
    # site 1 of chain A alone sets the leader, as in Python's max
    "no-fire-NaN": (lambda c: c.hB.__setitem__(0, math.nan),
                    r"scheduled merge avalanche failed to fire"),
    # both chains topple the NaN on to site 1, which D_2 then reads
    "D-bound-NaN": (lambda c: (c.hA.__setitem__(1, math.nan), c.hB.__setitem__(1, math.nan)),
                    r"\|D_2\|=nan exceeds its bound \d\.\d{3}e-02"),
    "count": (lambda c: setattr(c, "_mk", 3), r"merge avalanche count exceeded n-1"),
    "site": (lambda c: c.hB.__setitem__(1, 0.8), r"merge avalanche 1 left site 3 unequal"),
    "site-NaN": (_craft_mirrored_nan, r"merge avalanche 1 left site 3 unequal"),
    "completion": (_craft_unequal_completion,
                   r"merge completed with unequal configurations"),
}


@pytest.mark.parametrize("gate", _MERGING_GATES)
def test_merging_gates_raise_alike(lib, gate):
    # a pair in E_3 a hair apart starts in the merging phase with site 1
    # above the threshold, so a draw of 0.75 there is the scheduled avalanche
    craft, message = _MERGING_GATES[gate]
    after = {}
    for kernel in (None, lib):
        c = Coupling([0.6, 0.7, 0.0], [0.6, 0.7 + 1e-6, 0.0], 0.2, 0.9, seed=4,
                     record_streams=True)
        assert (c.phase, c._mk, c.flip) == ("merging", 1, False)
        craft(c)
        p1 = c._phys(1)
        _force_additions(c._addC, [p1], [0.75])
        with _kernel_set(kernel), pytest.raises(InvariantViolation) as err:
            c.run(10)
        assert re.fullmatch(message, str(err.value))
        assert (c.t, c.phase_steps["merging"], c.restarts, c._addC.pos) == (0, 0, 0, 1)
        assert c.streamA == [(p1, 0.75)] and c._merging_steps == 1
        after[kernel] = (str(err.value), _coupling_state(c))
    assert after[lib] == after[None]


@pytest.mark.parametrize("stage", ["between", "avalanche"])
@pytest.mark.parametrize("edge", ["lo", "hi"])
@pytest.mark.parametrize("outside", [False, True])
def test_merging_window_edges_alike(lib, stage, edge, outside):
    # a draw on a window's closed edge is taken, the next double out restarts
    after = {}
    for kernel in (None, lib):
        c = Coupling([0.6, 0.7, 0.0], [0.6, 0.7 + 1e-6, 0.0], 0.2, 0.9, seed=4)
        if stage == "between":
            c.hA[0] = c.hB[0] = 0.3             # below the threshold
            lo, hi = c._half, c._between_hi
        else:
            lo, hi = c._av_lo, c._av_hi
        u = lo if edge == "lo" else hi
        if outside:
            u = math.nextafter(u, -math.inf if edge == "lo" else math.inf)
        _force_additions(c._addC, [0], [u])
        with _kernel_set(kernel):
            c.run(1)
        assert c.restarts_by_cause["merging-window"] == outside
        assert c._mk == 1 + (stage == "avalanche" and not outside)
        after[kernel] = _coupling_state(c)
    assert after[lib] == after[None]


# offsets D_k for a draw of 0.65 at a=0.25, b=0.75: a remainder above zero,
# below zero, exactly zero, -0.0, one that rounds up to b - a (a + (b - a) is
# b, so the result steps back below b), and NaN
@pytest.mark.parametrize("Dk", [0.3, -0.6, -0.4, 0.1, -0.9, -0.4000000000000001, math.nan])
def test_kernel_coupled_amount_is_pythons(lib, Dk):
    after = {}
    for kernel in (None, lib):
        c = Coupling([0.6, 0.7, 0.0], [0.6, 0.7 + 1e-6, 0.0], 0.25, 0.75, seed=4,
                     record_streams=True)
        assert c.phase == "merging"
        c._Dk = Dk
        _force_additions(c._addC, [0], [0.65])
        message = None
        with _kernel_set(kernel):
            try:
                c.run(1)
            except InvariantViolation as exc:     # chain B's amount may not fire
                message = str(exc)
        assert _bits(c.streamB[0][1]) == _bits(coupling.coupled_amount(0.65, Dk, 0.25, 0.75))
        after[kernel] = (message, _coupling_state(c))
    assert after[lib] == after[None]


@pytest.mark.parametrize("cause, draw", [
    ("contraction-site", (1, 0.6)), ("contraction-light", (2, 0.3)),
    ("merging-site", (2, 0.3)), ("merging-window", (0, 0.9)),
    ("merging-topple", (0, 0.56))])
def test_restart_causes_alike(lib, cause, draw):
    # one draw that breaks the running phase, counted in its own bin
    after = {}
    for kernel in (None, lib):
        if cause.startswith("contraction"):
            c = _contraction_pair([0.1, 0.1, 0.1], [0.1, 0.2, 0.1], 0, 3)
        else:
            c = Coupling([0.6, 0.7, 0.0], [0.6, 0.7 + 1e-6, 0.0], 0.2, 0.9, seed=4,
                         record_streams=True)
            if cause == "merging-topple":
                c._thresh = 0.9         # site 1 (0.6) then reads as below it
        _force_additions(c._addC, *zip(draw))
        with _kernel_set(kernel):
            c.run(1)
        assert c.restarts_by_cause == {k: int(k == cause) for k in coupling.RESTART_CAUSES}
        assert (c.t, c.restarts, c.phase, c.streamA) == (1, 1, "independent", [draw])
        after[kernel] = _coupling_state(c)
    assert after[lib] == after[None]


def test_coupling_kernel_rejects_sites_out_of_range(lib, monkeypatch):
    monkeypatch.setattr(core, "_kernel", [lib])
    c = _contraction_pair([0.1, 0.1, 0.9], [0.1, 0.1, 0.1], 0, 3)
    _force_additions(c._addC, [3], [0.6])
    with pytest.raises(ValueError, match="kernel argument sites"):
        c.run(10)


# ---------------------------------------------------------------------------
# lattice clock
# ---------------------------------------------------------------------------

@st.composite
def lattice_runs(draw):
    d = draw(st.integers(1, 3))
    boundary = draw(st.sampled_from([TORUS, BOX]))
    kind = draw(st.sampled_from(["iid", "constant", "checkerboard"]))
    top = {1: 64, 2: 12, 3: 4}[d]
    if boundary == TORUS and kind == "checkerboard":
        side = st.integers(1, top // 2).map(lambda s: 2 * s)
    else:
        side = st.integers(2 if boundary == TORUS else 1, top)
    sides = tuple(draw(st.lists(side, min_size=d, max_size=d)))
    # a constant start below 1 is stable and would not run
    rho = draw(st.floats(1.0 if kind == "constant" else 0.55, 1.4))
    seed = draw(st.integers(0, 2**32 - 1))
    # (time to add to t_max or None for inf, max_events, snapshot_every).  The
    # runs cut the 8192-draw chunks anywhere, and the last one crosses a chunk
    # end unless the lattice stabilizes first.  Whole times make snapshots
    # fall exactly on t_max.  A run without a time limit snapshots at most
    # once per time unit, which bounds the snapshots on the smallest lattices.
    runs = []
    for last in [False] * draw(st.integers(1, 3)) + [True]:
        dt = None if last else draw(st.one_of(st.none(), st.floats(0.01, 100.0),
                                              st.integers(1, 20).map(float)))
        max_events = 9000 if last else draw(st.one_of(st.none(), st.integers(0, 20_000)))
        low = 0.05 if dt is not None else 1.0
        every = draw(st.one_of(st.none(), st.floats(low, 4.0), st.sampled_from([1.0, 2.0])))
        runs.append((dt, max_events, every))
    return generate(DensitySpec(kind, rho), sides, boundary, seed=seed), seed, runs


def _engine_state(eng):
    led = eng.ledger
    snaps = [(_bits([s.t, s.total_mass, s.frac_unstable, s.dissipated]),
              s.n_unstable, s.min_m, s.max_m) for s in eng.snapshots]
    return (_bits(eng.h), eng.unstable.tolist(), eng._where.tolist(), led._m.tolist(),
            _bits(led._lv),
            _bits(led._lc), _bits([led._diss, led._diss_c, eng.t, led.t]),
            eng.t_stab, eng.events, led.events, eng._bufpos, _bits(eng._wait_buf),
            _bits(eng._pick_buf), snaps)


_SENTINEL = -12345


def _differential(cfg, seed, runs, lib=None, sentinel=False):
    """Run ``cfg`` on the Python loop and on ``lib`` (the loaded kernel by
    default) through the same resumed runs, checking the engines bit for bit
    after each; returns the snapshots each run took.  With ``sentinel`` the
    kernel's engine gets an unstable buffer one slot longer than the lattice,
    whose last slot must stay untouched."""
    lib = lib or core.chain_kernel()
    assert lib is not None
    engines = {kernel: MarkovToppling(cfg, seed=seed) for kernel in (None, lib)}
    if sentinel:
        eng = engines[lib]
        spare = np.append(eng._unstable, _SENTINEL)
        eng._unstable = spare[:eng.n]
    taken = []
    for dt, max_events, every in runs:
        if dt is None and max_events is None:
            max_events = 5000                   # an unbounded run may never end
        t_max = math.inf if dt is None else engines[None].t + dt
        before = len(engines[None].snapshots)
        for kernel, eng in engines.items():
            with _kernel_set(kernel):
                eng.run(t_max=t_max, max_events=max_events, snapshot_every=every)
        assert _engine_state(engines[lib]) == _engine_state(engines[None])
        if sentinel:
            assert spare[-1] == _SENTINEL
        taken.append(len(engines[None].snapshots) - before)
    return engines[None], taken


@settings(max_examples=30, deadline=None)
@given(lattice_runs())
def test_lattice_kernel_matches_python_reference(spec):
    _differential(*spec)


@st.composite
def settling_boxes(draw):
    # a snapshot updates the previous sum over the sites toppled since the
    # last one when fewer than n / (2 (2d+1)) toppled, which a settling box
    # at these densities does almost every time unit
    sides = (draw(st.integers(24, 48)), draw(st.integers(24, 48)))
    rho = draw(st.floats(0.55, 0.7))
    seed = draw(st.integers(0, 2**32 - 1))
    every = st.floats(0.05, 1.0)
    runs = [(draw(st.floats(0.5, 40.0)), draw(st.one_of(st.none(), st.integers(0, 5000))),
             draw(every)) for _ in range(draw(st.integers(0, 2)))]
    runs.append((None, 100_000, draw(every)))
    return generate(DensitySpec("iid", rho), sides, BOX, seed=seed), seed, runs


@settings(max_examples=25, deadline=None)
@given(settling_boxes())
def test_incremental_snapshot_sums_match_python_reference(spec):
    _differential(*spec)


SNAPSHOT_CASES = [
    # settling boxes: resumed runs that change snapshot_every, each over
    # more than 64 snapshot rows, and more than one 8192-draw chunk in all
    ("iid", 0.65, (48, 48), BOX, [(20.0, None, 0.05), (15.5, 3000, 0.31),
                                  (None, 100_000, 0.12)]),
    ("iid", 0.7, (32, 40), BOX, [(None, 500, 1.0), (9.0, None, 0.07),
                                 (None, 100_000, 0.5)]),
    # dense tori: most snapshots follow more topplings than the update
    # covers and take the full pass
    ("iid", 1.1, (32, 32), TORUS, [(8.0, None, 0.1), (12.0, None, 1.0)]),
    ("constant", 1.05, (32, 32), TORUS, [(6.5, None, 0.05), (30.0, None, 0.2)]),
]


def _snapshot_case(kind, rho, sides, boundary, runs, lib=None):
    cfg = generate(DensitySpec(kind, rho), sides, boundary, seed=11)
    eng, taken = _differential(cfg, 11, runs, lib)
    assert max(taken) > 64
    assert eng.events > 8192


@pytest.mark.parametrize("case", SNAPSHOT_CASES,
                         ids=["box-48", "box-32x40", "torus-iid", "torus-constant"])
def test_snapshot_sums_cross_row_and_chunk_ends(case):
    _snapshot_case(*case)


# The kernel writes the unstable buffer's slot k on every neighbour visit,
# inserted or not.  Side-2 tori list one neighbour twice, a dense box inserts
# on most visits, and a start with all sites but one unstable keeps k next to
# n; the snapshots and a resumed run cross an 8192-draw chunk end.
SENTINEL_CASES = {
    "ring-2": (generate(DensitySpec("constant", 1.1), (2,), TORUS, seed=3), 3,
               [(5.0, None, 0.5), (None, 9000, 1.0)]),
    "torus-2x2": (generate(DensitySpec("iid", 1.05), (2, 2), TORUS, seed=4), 4,
                  [(3.0, None, 0.25), (None, 9000, 1.0)]),
    "torus-2x2x2": (generate(DensitySpec("iid", 1.2), (2, 2, 2), TORUS, seed=5), 5,
                    [(2.0, 100, 0.5), (None, 9000, 1.0)]),
    "dense-box": (generate(DensitySpec("iid", 1.05), (32, 32), BOX, seed=6), 6,
                  [(3.0, None, 0.5), (None, 20_000, 1.0)]),
    "all-but-one": (LatticeConfig(np.where(np.arange(144) == 7, 0.3, 1.05).reshape(12, 12),
                                  TORUS), 7,
                    [(2.0, None, 0.25), (None, 9000, 1.0)]),
}


@pytest.mark.parametrize("name", SENTINEL_CASES)
def test_unstable_slots_past_k_are_scratch(name):
    cfg, seed, runs = SENTINEL_CASES[name]
    _differential(cfg, seed, runs, sentinel=True)


def _check_fsum(lib, values):
    x = np.array(values, dtype=np.float64)
    out = ctypes.c_double()
    status = lib.zp_fsum(x.ctypes.data, x.size, ctypes.byref(out))
    try:
        want = math.fsum(values)
    except (OverflowError, ValueError) as exc:
        assert core.FSUM_ERRORS[status] == (type(exc), str(exc))
        return
    assert status == 0 and _bits(out.value) == _bits(want)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=60)
       | st.lists(st.floats(-1e308, 1e308), max_size=60)
       | st.lists(st.floats(0.0, 4.0), max_size=3000))
# two NaNs with different payloads, a signalling one among them: fsum keeps
# the newest, quieted
@example(np.array([0x7FF8000000000000, 0x7FF8000000000001, 0x7FF0000000000003,
                   0x7FF0000000000000], dtype=np.uint64).view(np.float64).tolist())
def test_kernel_fsum_matches_math_fsum(values):
    _check_fsum(core.chain_kernel(), values)


_BELOW_2_961 = math.nextafter(2.0**961, 0.0)
_TINY = 5e-324                                  # 2^-1074, the least subnormal

# zp_fsum sums finite values below 2^961 in the fixed-point accumulator and
# everything else by fsum's partials; both must give fsum's double
FSUM_EDGES = {
    "below-2^961": [_BELOW_2_961, 1.0, _BELOW_2_961, -0.5],
    "at-2^961": [2.0**961, 1.0, -3.0],
    "both-sides-of-2^961": [_BELOW_2_961, 2.0**961, -_BELOW_2_961, 1e-300],
    "intermediate-overflow": [1.7e308, 1.7e308, -1.7e308],
    "large-cancel": [2.0**960, 1.0, -2.0**960],
    "large-cancel-tiny": [2.0**960, _TINY, -2.0**960],
    "max-below-2^961": [_BELOW_2_961] * 8 + [-_BELOW_2_961] * 7,
    # more additions to one limb than it takes before its carries move up
    "one-limb-5000": [0.1] * 5000,
    "one-limb-mixed-sign": [0.7] * 9000 + [-0.3] * 9001,
    "one-limb-all-ones": [float(2**32 - 1)] * 10_000,
    "carry-through-limbs": [2.0**31] * 4097 + [-1.0] + [2.0**-1000] * 4100,
    # ties at the last place of 1.0, and a sticky bit far below either way
    "tie-to-even-down": [1.0, 2.0**-53],
    "tie-to-even-up": [1.0 + 2.0**-52, 2.0**-53],
    "tie-sticky-up": [1.0, 2.0**-53, _TINY],
    "tie-sticky-down": [1.0, 2.0**-53, -_TINY],
    "tie-large": [2.0**900, 2.0**847],
    "tie-negative": [-(1.0 + 2.0**-52), -(2.0**-53)],
    "tie-sticky-large": [2.0**960, 2.0**907, 2.0**847],
    "subnormals": [_TINY] * 3 + [2.0**-1060, -(2.0**-1070)],
    "subnormal-to-normal": [2.0**-1022 - _TINY, _TINY],
    "subnormal-cancel": [-_TINY, 2.0**-1022, -(2.0**-1022)],
    "negative-zeros": [-0.0],
    "many-negative-zeros": [-0.0] * 17,
    "zeros-and-cancel": [-0.0, 1.5, -1.5, -0.0],
    "empty": [],
}


@pytest.mark.parametrize("name", FSUM_EDGES)
def test_kernel_fsum_edge_cases(lib, name):
    _check_fsum(lib, FSUM_EDGES[name])


def test_snapshot_sum_overflow_raises_on_both_backends(backend):
    # the heights add up past the largest double, so the exact sum of the
    # first snapshot overflows, as math.fsum does
    cfg = LatticeConfig(np.array([1.6e308, 0.0, 1.5e308]), BOX)
    eng = MarkovToppling(cfg, seed=1)
    with pytest.raises(OverflowError, match="intermediate overflow in fsum"):
        eng.run(t_max=1.0, snapshot_every=1e-9)


def test_lattice_kernel_checks_engine_state(lib):
    cfg = generate(DensitySpec("constant", 1.1), (4, 4), TORUS, seed=1)
    # k one too high and one too low, a wrong slot, a short h; then buffers
    # of the right length but of the wrong type, strided, or read-only
    for corrupt in (lambda e: setattr(e, "_k", e._k + 1),
                    lambda e: setattr(e, "_k", e._k - 1),
                    lambda e: e._where.__setitem__(e.unstable[0], 3),
                    lambda e: setattr(e, "h", e.h[:-1]),
                    lambda e: setattr(e.ledger, "_m", e.ledger._m.astype(np.int32)),
                    lambda e: setattr(e, "_where", e._where.astype(np.float64)),
                    lambda e: setattr(e, "h", np.repeat(e.h, 2)[::2]),
                    lambda e: e.ledger._lc.setflags(write=False)):
        eng = MarkovToppling(cfg, seed=2)
        corrupt(eng)
        with _kernel_set(lib), pytest.raises(ValueError, match="engine state"):
            eng.run(max_events=10)


# ---------------------------------------------------------------------------
# building and loading
# ---------------------------------------------------------------------------

def _build_and_check(cache, barrier):
    # a worker of the concurrent-build test: exit 0 iff the kernel it built
    # (or found) relaxes like the Python reference
    barrier.wait(timeout=60)
    lib = core._build_kernel(Path(cache))
    if lib is None:
        sys.exit(1)
    h = np.array([0.9, 0.7, 0.95, 0.6])
    done, status = core.kernel_drive(lib, h, np.array([1], dtype=np.int64),
                                     np.array([0.45]), 100, False)
    ref = [0.9, 0.7 + 0.45, 0.95, 0.6]
    _relax_leftmost(ref, 1)
    sys.exit(0 if (done, status, h.tolist()) == (1, 0, ref) else 2)


def test_concurrent_builds_share_one_cache(tmp_path):
    cache = tmp_path / "cache"
    ctx = multiprocessing.get_context("spawn")
    barrier = ctx.Barrier(4)
    procs = [ctx.Process(target=_build_and_check, args=(str(cache), barrier))
             for _ in range(4)]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=120)
    for p in procs:
        if p.is_alive():
            p.kill()
    assert [p.exitcode for p in procs] == [0, 0, 0, 0]
    names = sorted(os.listdir(cache))
    assert len(names) == 1 and names[0].startswith("_drive-") and names[0].endswith(".so")


@pytest.mark.parametrize("where", ["missing-compiler", "failing-compiler",
                                   "unwritable-cache"])
def test_failed_build_falls_back_to_python(where, lib, tmp_path, monkeypatch, capsys):
    cache = tmp_path / "cache"
    cc = "gcc"
    if where == "missing-compiler":
        cc = str(tmp_path / "no-such-cc")
    elif where == "failing-compiler":
        cc = shutil.which("false")
    else:
        (tmp_path / "file").write_text("")
        cache = tmp_path / "file" / "cache"      # a file cannot hold a directory
    assert core._build_kernel(cache, cc=cc) is None
    if cache.is_dir():
        assert os.listdir(cache) == []            # no partial library left
    argv = ["finite-run", "--n", "12", "--a", "0.6", "--b", "0.8",
            "--burn-in", "500", "--samples", "5000", "--seed", "7919"]
    lattice = ["--d", "2", "--side", "12", "--gen", "iid", "--tmax", "20",
               "--snap-every", "0.37", "--replicas", "2", "--seed", "7919"]
    outs = {}
    for name, kernel in (("compiled", lib), ("python", None)):
        monkeypatch.setattr(core, "_kernel", [kernel])
        files = [tmp_path / f"{name}.{ext}"
                 for ext in ("csv", "jsonl", "inf", "final", "sweep", "couple")]
        out, events, verdicts, final, swept, coupled = files
        capsys.readouterr()
        assert main(argv + ["--out", str(out), "--events-out", str(events)]) == 0
        assert f"chain backend {name}" in capsys.readouterr().err
        assert main(["infinite", *lattice, "--rho", "1.05", "--boundary", "box",
                     "--out", str(verdicts), "--save-final", str(final)]) == 0
        assert f"lattice backend {name}" in capsys.readouterr().err
        assert main(["sweep", *lattice, "--rho", "0.9,1.1", "--out", str(swept)]) == 0
        assert f"lattice backend {name}" in capsys.readouterr().err
        assert main(["couple", "--n", "4", "--a", "0.3", "--b", "0.8", "--seeds", "3",
                     "--max-steps", "30000", "--seed0", "7919", "--out", str(coupled)]) == 0
        assert capsys.readouterr().err.endswith(f"coupling backend {name}\n")
        outs[name] = [f.read_bytes() for f in files]
    assert outs["compiled"] == outs["python"]


def test_kernel_compiles_without_warnings(tmp_path):
    cmd = ["gcc", "-o", str(tmp_path / "k.so"), str(core._KERNEL_SOURCE),
           *core._KERNEL_FLAGS, "-Wall", "-Wextra", "-Werror"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# builds the kernel with the undefined-behaviour sanitizer, which aborts on
# the first finding, and runs the exact-sum examples and one differential
# lattice case on it
_UBSAN_CHECK = """
import sys
from pathlib import Path
import zhangpile.core as core
core._KERNEL_FLAGS += ("-fsanitize=undefined", "-fno-sanitize-recover=all")
lib = core._build_kernel(Path(sys.argv[1]))
if lib is None:
    sys.exit("the sanitized kernel did not build")
sys.path.insert(0, sys.argv[2])
import test_kernel as tk
for values in tk.FSUM_EDGES.values():
    tk._check_fsum(lib, values)
tk._snapshot_case(*tk.SNAPSHOT_CASES[0], lib=lib)
p = tk.ChainProcess(30, 0.6, 0.8, seed=1)
tk._drive_compiled(lib, p, 3000, tk.MarginalStats(30, bins=7), None)
print("ok")
"""


def test_kernel_is_clean_under_ubsan(tmp_path):
    src = str(Path(zhangpile.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _UBSAN_CHECK, str(tmp_path),
                           str(Path(__file__).parent)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0 and proc.stdout.split() == ["ok"], proc.stderr


# builds the kernel with the address and undefined-behaviour sanitizers and
# runs the sentinel lattice cases on plain n-slot buffers, whose ends ASAN
# guards, plus a chain drive and a coupling up to its merge
_ASAN_CHECK = """
import sys
from pathlib import Path
import zhangpile.core as core
core._KERNEL_FLAGS += ("-fsanitize=address,undefined", "-fno-sanitize-recover=all", "-g")
lib = core._build_kernel(Path(sys.argv[1]))
if lib is None:
    sys.exit("the sanitized kernel did not build")
core._kernel[:] = [lib]
sys.path.insert(0, sys.argv[2])
import test_kernel as tk
for cfg, seed, runs in tk.SENTINEL_CASES.values():
    tk._differential(cfg, seed, runs, lib=lib)
p = tk.ChainProcess(30, 0.6, 0.8, seed=1)
tk._drive_compiled(lib, p, 3000, tk.MarginalStats(30, bins=7), None)
tk._merged_pair()
print("ok")
"""


def _libasan():
    path = subprocess.run(["gcc", "-print-file-name=libasan.so"], capture_output=True,
                          text=True).stdout.strip()
    return path if os.path.isabs(path) and os.path.exists(path) else None


@pytest.mark.skipif(shutil.which("gcc") is None or _libasan() is None,
                    reason="needs gcc and libasan")
def test_kernel_is_clean_under_asan(tmp_path):
    src = str(Path(zhangpile.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, LD_PRELOAD=_libasan(),
               ASAN_OPTIONS="detect_leaks=0")
    proc = subprocess.run([sys.executable, "-c", _ASAN_CHECK, str(tmp_path),
                           str(Path(__file__).parent)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0 and proc.stdout.split() == ["ok"], proc.stderr[-4000:]


def test_import_and_version_build_nothing():
    src = str(Path(zhangpile.__file__).resolve().parents[1])
    code = ("import zhangpile.cli as cli, zhangpile.core as core\n"
            "cli.main(['--version'])\n"
            "print(core._kernel)\n")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [zhangpile.__version__, "[]"]
