"""The compiled chain and lattice kernels against the Python reference loops.

Every check runs both backends on the same inputs and requires bit-equal
results, or shows that a kernel gate fails where the Python one does.
"""

import copy
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
    run_stationary,
)
from zhangpile.cli import main
from zhangpile.core import InvariantViolation, ToppleCapError, _relax_leftmost
from zhangpile.coupling import Coupling
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
    {"sums": np.zeros(2)},
    {"sumsq": np.zeros(2)},
    {"sums": np.zeros(3), "sumsq": np.zeros(3)},
    {"sums": np.zeros(2, dtype=np.float32), "sumsq": np.zeros(2)},
    {"sums": np.zeros(2), "sumsq": np.zeros(4)[::2]},
])
def test_kernel_entry_checks_its_arrays(lib, bad):
    args = {"h": np.array([0.1, 0.2]), "sites": np.array([0, 1], dtype=np.int64),
            "amts": np.array([0.5, 0.5]), "rows": None, "tops": None, "counts": None,
            "sums": None, "sumsq": None}
    args.update(bad)
    with pytest.raises(ValueError, match="kernel argument"):
        core.kernel_drive(lib, args["h"], args["sites"], args["amts"], 100, False,
                          rows=args["rows"], tops=args["tops"], counts=args["counts"],
                          sums=args["sums"], sumsq=args["sumsq"])


@pytest.mark.parametrize("n", [2, 3, 7, 30])
def test_kernel_sums_are_numpys_block_sums(lib, n):
    # the kernel adds each step's heights and their squares in step order,
    # the order in which numpy sums a C-contiguous block of two or more
    # columns over its first axis
    add = ChainProcess(n, 0.2, 0.9, seed=n)._additions
    add.refill()
    h = np.zeros(n)
    rows = np.empty((2048, n))
    sums, sumsq = np.zeros(n), np.zeros(n)
    assert core.kernel_drive(lib, h, add.site_array[:2048], add.amt_array[:2048], 10**6,
                             False, rows=rows, sums=sums, sumsq=sumsq) == (2048, 0)
    assert _bits(sums) == _bits(rows.sum(axis=0))
    assert _bits(sumsq) == _bits((rows * rows).sum(axis=0))


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

def _merged_pair():
    c = Coupling([0.1, 0.2, 0.3], [0.8, 0.6, 0.4], 0.2, 0.9, seed=1)
    c.run(100_000)
    assert c.phase == "merged"
    return c


def test_merged_kernel_matches_python_steps(lib, monkeypatch):
    runs = []
    for kernel in (lib, None):
        monkeypatch.setattr(core, "_kernel", [kernel])
        c = _merged_pair()
        assert c.run_steps(20_000, require_equal=True)
        runs.append(_coupling_state(c))
    assert runs[0] == runs[1]


def test_perturbed_merged_pair_fails_the_check(backend):
    c = _merged_pair()
    c.hB[1] = np.nextafter(c.hB[1], 0.0)
    assert c.run_steps(1000, require_equal=True) is False
    assert c.run_steps(1000) is True            # the check is off


def _split_merged_pair(sites, amts):
    # a merged pair whose chain B differs at one site that no addition reaches
    c = Coupling([0.5, 0.5, 0.5], [0.5, 0.5, 0.5], 0.2, 0.9, seed=2)
    assert c.phase == "merged"
    c.hB[2] = 0.25
    _force_additions(c._addC, sites, amts)
    return c


def test_merged_pair_counts_every_unequal_step(backend):
    sites, amts = [0, 0, 1], [0.2, 0.2, 0.2]
    c = _split_merged_pair(sites, amts)
    for _ in sites:
        assert c.run_steps(1, require_equal=True) is False
    ref = [0.5, 0.5, 0.5]
    for x, u in zip(sites, amts):
        ref[x] += u
        if ref[x] >= 1.0:
            _relax_leftmost(ref, x)
    assert (c.hA, c.hB[2], c.t, c.phase_steps["merged"], c._addC.pos) == (ref, 0.25, 3, 3, 3)


def test_merged_kernel_counts_unequal_steps(lib):
    c = _split_merged_pair([0, 0, 1], [0.2, 0.2, 0.2])
    assert c._run_coupled(lib, 3) == 3


def test_run_steps_through_the_merge_alike(lib):
    # one run_steps takes an unmerged pair through its merge (t=30709) and
    # past it, on the kernel as step() does it
    after = {}
    for kernel in (None, lib):
        c = Coupling([0.1, 0.2, 0.3], [0.8, 0.6, 0.4], 0.2, 0.9, seed=1)
        with _kernel_set(kernel):
            assert c.run_steps(40_000, require_equal=True) is False
        assert (c.phase, c.merge_time, c.phase_steps["merged"]) == ("merged", 30709, 9291)
        after[kernel] = _coupling_state(c)
    assert after[lib] == after[None]


def test_topple_cap_raises_in_merged_pair(backend):
    c = Coupling([0.95, 0.95], [0.95, 0.95], 0.5, 1.0, seed=2, cap=1)
    with pytest.raises(ToppleCapError, match="exceeded 1 topplings"):
        c.run_steps(5, require_equal=True)
    assert c.t == 0 and c._addC.pos == 1


def test_limits_past_int64_are_clamped(backend):
    # ctypes stores a Python int modulo 2**64 in an int64 slot: a step limit
    # of 2**63 read -2**63, so the kernel never advanced and run() looped
    # forever, and a topple cap of 2**63 read -2**63, so every avalanche
    # exceeded it
    runs = []
    for stop, cap in ((2**63, 2**63), (2**63 - 1, core.DEFAULT_TOPPLE_CAP)):
        c = Coupling([0.1, 0.2, 0.3], [0.8, 0.6, 0.4], 0.2, 0.9, seed=1, cap=cap)
        c.run(stop)
        assert (c.phase, c.merge_time) == ("merged", 30709)
        runs.append(_coupling_state(c))
    assert runs[0] == runs[1]
    chains = [ChainProcess(5, 0.6, 0.8, seed=1, cap=cap)
              for cap in (2**63, core.DEFAULT_TOPPLE_CAP)]
    for p in chains:
        run_stationary(p, 0, 100)
    assert chains[0].heights == chains[1].heights


def test_run_steps_rejects_a_negative_count(backend):
    c = Coupling([0.1, 0.2, 0.3], [0.8, 0.6, 0.4], 0.2, 0.9, seed=1)
    with pytest.raises(ValueError, match="^steps must be >= 0, got -5$"):
        c.run_steps(-5, require_equal=True)
    assert (c.t, c.phase, c._addA.pos, c._addC.pos) == (0, "independent", 0, 0)


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
    # inside the merging phase, step()s and run_steps(); the last run() alone
    # passes the first 8192-addition chunks of streams A, B
    plan = draw(st.lists(st.one_of(st.tuples(st.just("run"), st.integers(0, 20_000)),
                                   st.tuples(st.just("merging"), st.integers(1, 40)),
                                   st.tuples(st.just("step"), st.integers(1, 300)),
                                   st.tuples(st.just("run_steps"), st.integers(0, 3000),
                                             st.booleans())),
                         max_size=4))
    plan.append(("run", 8193 + draw(st.integers(0, 12_000))))
    # run_steps from wherever that left the pair: mostly past the merge
    plan.append(("run_steps", draw(st.integers(0, 10_000)), draw(st.booleans())))
    # short stream chunks make every kernel call end at many chunk ends
    chunk = draw(st.sampled_from([8192, 64, 5]))
    return n, a, b, eta_a, eta_b, draw(st.integers(0, 2**32 - 1)), plan, chunk


def _pair_state(c):
    """The bytes of ``c``'s CouplingState but for what only a kernel call
    sets: t_stop, differed and the stream positions (the streams keep them)."""
    st = core.CouplingState.from_buffer_copy(c._st)
    st.t_stop = st.differed = st.posA = st.posB = st.posC = 0
    return bytes(st)


def _coupling_state(c):
    """The whole state of the pair ``c``; its recorded streams come last."""
    streams = (c._addA, c._addB, c._addC)
    return (_bits(c.hA), _bits(c.hB), c.t, c.restarts_by_cause, c.phase_steps, c.phase,
            c.merge_time, c.final_merging_steps, _pair_state(c),
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
    n, a, b, eta_a, eta_b, seed, plan, chunk = spec
    lib = core.chain_kernel()
    assert lib is not None
    with mock.patch.object(coupling, "_CHUNK", chunk):
        pairs = {kernel: Coupling(eta_a, eta_b, a, b, seed=seed) for kernel in (None, lib)}
        for how, count, *require_equal in plan:
            if how == "merging":
                # run() stops inside a merging attempt (if one begins soon)
                how, count = "run", _merging_clock(pairs[None], count) - pairs[None].t
            returned = {}
            for kernel, c in pairs.items():
                with _kernel_set(kernel):
                    if how == "run":
                        c.run(c.t + count)
                    elif how == "run_steps":
                        returned[kernel] = c.run_steps(count, *require_equal)
                    else:
                        for _ in range(count):
                            c.step()
            assert _coupling_state(pairs[lib]) == _coupling_state(pairs[None])
            assert returned.get(lib) is returned.get(None)


def _merge_draws(c):
    """The shared additions that take the merging pair ``c`` (a copy of it)
    to the merge without a restart: each at logical site 1, in the middle of
    the window its stage asks for."""
    ref = copy.deepcopy(c)
    draws = []
    with _kernel_set(None):
        while ref.phase == "merging":
            p1 = ref._phys(1)
            st_ = ref._st
            if max(ref.hA[p1], ref.hB[p1]) > st_.thresh:
                u = 0.5 * (st_.av_lo + st_.av_hi)
            else:
                u = 0.5 * (st_.half + st_.between_hi)
            draws.append((p1, u))
            _force_additions(ref._addC, [p1], [u])
            ref.step()
    assert ref.phase == "merged" and ref.restarts == 0
    return draws


@pytest.mark.parametrize("record", [False, True])
@pytest.mark.parametrize("n", range(2, 9))
def test_coupling_kernel_merges_like_python(lib, n, record):
    # two E_b starts on either side, closer than eps1, enter the merging
    # phase at once; forced draws take them through all n-1 stages.  With
    # record, the Python pair records its streams, which must not change
    # its path.
    a, b = 0.2, 0.9
    eps1 = coupling.epsilon_abn(a, b, n)
    rng = np.random.default_rng(n)
    eta_a = rng.uniform(0.5, 0.95, n)
    eta_a[(n - 1) * (n % 2)] = 0.0
    eta_b = eta_a + rng.uniform(-0.2, 0.2, n) * eps1 / n
    eta_b[eta_a == 0.0] = 0.0
    pairs = {kernel: Coupling(eta_a, eta_b, a, b, seed=n,
                              record_streams=record and kernel is None)
             for kernel in (None, lib)}
    draws = _merge_draws(pairs[None])
    assert len(draws) >= n - 1
    for kernel, c in pairs.items():
        assert c.phase == "merging" and c.flip == (n % 2 == 0)
        _force_additions(c._addC, *zip(*draws))
        with _kernel_set(kernel):
            # run() stops inside the merging phase, step() takes over from
            # its state, and run() resumes from step()'s; n=2 merges in one
            # draw, which run() takes, so that the kernel runs it too
            c.run(len(draws) // 2)
            assert c.phase == "merging"
            if len(draws) > 1:
                c.step()
            c.run(10 * len(draws))
        assert c.phase == "merged" and c.hA == c.hB
        assert (c.merge_time, c.final_merging_steps) == (len(draws), len(draws))
    assert _coupling_state(pairs[lib])[:-2] == _coupling_state(pairs[None])[:-2]
    assert len(pairs[None].streamA) == len(draws) * record


def test_one_kernel_call_per_stream_chunk(lib, monkeypatch):
    # a couple-verify seed: every restart of the merging phase stays inside
    # zp_couple, so only a stream refill starts another call
    calls = []
    refill = coupling.AdditionStream.refill
    monkeypatch.setattr(coupling.AdditionStream, "refill",
                        lambda add: (calls.append("refill"), refill(add))[1])
    step = Coupling.step
    monkeypatch.setattr(Coupling, "step", lambda c: (calls.append("step"), step(c))[1])

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
    # run_steps from t=0 to the merge, then a 1e5-step post-merge check: one
    # more call past the merge, and no step() in Python
    calls.clear()
    gens = coupling.substreams(1, 5)
    c = Coupling(*(coupling._init_config("random", 3, g) for g in gens[:2]), 0.2, 0.9,
                 _streams=gens[2:])
    assert c.run_steps(r.merge_time, require_equal=True) is False   # unequal until merged
    assert c.phase == "merged"
    assert c.run_steps(100_000, require_equal=True) is True
    assert (c.merge_time, c.restarts, c.phase_steps["merged"]) == (
        r.merge_time, r.restarts, 100_000)
    assert "step" not in calls
    assert 2 <= calls.count("zp_couple") <= 2 + calls.count("refill")
    # a pair that records its streams runs on the Python reference alone
    calls.clear()
    gens = coupling.substreams(1, 5)
    c = Coupling(*(coupling._init_config("random", 3, g) for g in gens[:2]), 0.2, 0.9,
                 record_streams=True, _streams=gens[2:])
    c.run(r.merge_time)
    assert c.run_steps(1000, require_equal=True) is True
    assert (c.merge_time, c.restarts, len(c.streamA)) == (r.merge_time, r.restarts,
                                                          r.merge_time + 1000)
    assert "zp_couple" not in calls and "step" in calls


def test_kernel_declares_every_entry_point(lib, monkeypatch):
    # _build_kernel gives argtypes and restype to exactly the non-static zp_*
    # functions of _drive.c: ctypes would call an undeclared one with int
    # arguments, truncating int64 values, and a leftover declaration names a
    # function that no longer exists
    source = core._KERNEL_SOURCE.read_text()
    defined = set(re.findall(r"^(?!static\b)\w+\s+\**(zp_\w+)\(", source, re.M))
    assert {"zp_drive", "zp_couple", "zp_lattice"} <= defined
    declared = {}

    class Library:
        def __init__(self, path):
            pass

        def __getattr__(self, name):
            return declared.setdefault(name, type(name, (), {})())

    monkeypatch.setattr(core.ctypes, "CDLL", Library)
    core._build_kernel(core._KERNEL_SOURCE.parent / "__pycache__")   # cached by lib
    assert set(declared) == defined
    for name, entry in declared.items():
        assert {"argtypes", "restype"} <= set(vars(entry)), name


# ---------------------------------------------------------------------------
# coupling to the merge: crafted gates, restarts and phase entries, on both backends
# ---------------------------------------------------------------------------

def _contraction_pair(eta_a, eta_b, k_aval, target, cap=100):
    # a pair put straight into the contraction phase (n=3, a=0.2, b=0.9: a
    # draw of at least 0.55 at the target site keeps it there)
    c = Coupling(eta_a, eta_b, 0.2, 0.9, seed=4, cap=cap)
    assert c.phase == "independent"
    c._st.phase = coupling._CONTRACTION
    c._st.k_aval = k_aval
    c._st.target = target
    return c


def _after_gate(c):
    return (c.hA, c.hB, c.t, c.phase_steps, c.restarts, c._addA.pos, c._addB.pos,
            c._addC.pos)


def test_contraction_desync_gate_raises(backend):
    # one chain topples at the target, the other does not
    c = _contraction_pair([0.1, 0.1, 0.9], [0.1, 0.1, 0.1], 0, 3)
    _force_additions(c._addC, [2], [0.6])
    with pytest.raises(InvariantViolation, match="^contraction avalanches desynchronized$"):
        c.run(10)
    assert _after_gate(c) == ([0.1, 0.1 + 0.75, 0.0], [0.1, 0.1, 0.7], 0,
                              dict.fromkeys(c.phase_steps, 0), 0, 0, 0, 1)


def test_contraction_lands_outside_E_N_gate_raises(backend):
    # the second sweep leaves an anomalous site 3, so neither chain is in E_3
    c = _contraction_pair([0.9, 0.1, 0.1], [0.8, 0.2, 0.1], 1, 1)
    _force_additions(c._addC, [0], [0.6])
    with pytest.raises(InvariantViolation,
                       match="^contraction avalanche did not land in E_N$"):
        c.run(10)
    assert _after_gate(c) == ([0.0, 0.1 + 0.75, 0.1], [0.0, 0.2 + 0.7, 0.1], 0,
                              dict.fromkeys(c.phase_steps, 0), 0, 0, 0, 1)
    assert (c._st.k_aval, c._st.target) == (2, 3)


@pytest.mark.parametrize("where", ["contraction", "restart", "independent-A",
                                   "independent-B"])
def test_topple_cap_raises_before_the_merge(backend, where):
    # site 3 at 0.9 next to 0.9: a 0.6 there topples twice, past a cap of 1
    c = _contraction_pair([0.1, 0.9, 0.9], [0.1, 0.9, 0.9 - 1e-3], 0, 3, cap=1)
    if where == "restart":
        c._st.target = 1                        # a draw off the target restarts
    if where.startswith("independent"):
        c._st.phase = coupling._INDEPENDENT
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
    assert _after_gate(c) == (hA, hB, 0, dict.fromkeys(c.phase_steps, 0), 0, *pos)


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
    assert (c.phase, c.t, c.phase_steps["contraction"], c._st.k_aval, c._addC.pos) == (
        "merging", 1, 1, 2, 1)
    assert c.hA[2] == c.hB[2] == 0.0


def _craft_unequal_completion(c):
    # the last stage: sites 2 and 3 end equal, site 1 ends 1e-3 apart
    c.hA[:] = [0.6, 0.7, 0.1]
    c.hB[:] = [0.6, 0.698, 0.101]
    c._st.mk = 2
    c._stage_init()


def _craft_mirrored_nan(c):
    # in the mirrored frame the avalanche runs leftwards and stops short of a
    # NaN at logical site 3, which a comparison by > lets through all stages
    # to a merge that overwrites it
    c.hA.reverse()
    c.hB.reverse()
    c._st.flip = True
    c._stage_init()
    c.hB[0] = math.nan


# (how to break a merging pair, the message of the gate that must then fire)
_MERGING_GATES = {
    "ill-formed": (lambda c: c._eps.__setitem__(1, 1.0),
                   r"merge-phase addition intervals are ill-formed"),
    "D-bound": (lambda c: c._dbound.__setitem__(1, -1.0),
                r"\|D_2\|=\d\.\d{3}e[+-]\d\d exceeds its bound -1\.000e\+00"),
    "no-fire": (lambda c: c.hB.__setitem__(0, 0.1),
                r"scheduled merge avalanche failed to fire"),
    # site 1 of chain A alone sets the leader, as in Python's max
    "no-fire-NaN": (lambda c: c.hB.__setitem__(0, math.nan),
                    r"scheduled merge avalanche failed to fire"),
    # both chains topple the NaN on to site 1, which D_2 then reads
    "D-bound-NaN": (lambda c: (c.hA.__setitem__(1, math.nan), c.hB.__setitem__(1, math.nan)),
                    r"\|D_2\|=nan exceeds its bound \d\.\d{3}e-02"),
    "count": (lambda c: setattr(c._st, "mk", 3), r"merge avalanche count exceeded n-1"),
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
        c = Coupling([0.6, 0.7, 0.0], [0.6, 0.7 + 1e-6, 0.0], 0.2, 0.9, seed=4)
        assert (c.phase, c._st.mk, c.flip) == ("merging", 1, False)
        craft(c)
        p1 = c._phys(1)
        _force_additions(c._addC, [p1], [0.75])
        with _kernel_set(kernel), pytest.raises(InvariantViolation) as err:
            c.run(10)
        assert re.fullmatch(message, str(err.value))
        assert (c.t, c.phase_steps["merging"], c.restarts, c._addC.pos) == (0, 0, 0, 1)
        assert c._st.merging_steps == 1
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
            lo, hi = c._st.half, c._st.between_hi
        else:
            lo, hi = c._st.av_lo, c._st.av_hi
        u = lo if edge == "lo" else hi
        if outside:
            u = math.nextafter(u, -math.inf if edge == "lo" else math.inf)
        _force_additions(c._addC, [0], [u])
        with _kernel_set(kernel):
            c.run(1)
        assert c.restarts_by_cause["merging-window"] == outside
        assert c._st.mk == 1 + (stage == "avalanche" and not outside)
        after[kernel] = _coupling_state(c)
    assert after[lib] == after[None]


# offsets D_k for a draw of 0.65 at a=0.25, b=0.75: a remainder above zero,
# below zero, exactly zero, -0.0, one that rounds up to b - a (a + (b - a) is
# b, so the result steps back below b), and NaN
@pytest.mark.parametrize("Dk", [0.3, -0.6, -0.4, 0.1, -0.9, -0.4000000000000001, math.nan])
def test_kernel_coupled_amount_is_pythons(lib, Dk):
    after = {}
    for kernel in (None, lib):
        c = Coupling([0.6, 0.7, 0.0], [0.6, 0.7 + 1e-6, 0.0], 0.25, 0.75, seed=4)
        assert c.phase == "merging"
        c._st.Dk = Dk
        _force_additions(c._addC, [0], [0.65])
        message = None
        with _kernel_set(kernel):
            try:
                c.run(1)
            except InvariantViolation as exc:     # chain B's amount may not fire
                message = str(exc)
        # chain B took the Python amount at site 1, whatever gate fired after
        want = [0.6 + coupling.coupled_amount(0.65, Dk, 0.25, 0.75), 0.7 + 1e-6, 0.0]
        if want[0] >= 1.0:
            _relax_leftmost(want, 0)
        assert _bits(c.hB) == _bits(want)
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
            c = Coupling([0.6, 0.7, 0.0], [0.6, 0.7 + 1e-6, 0.0], 0.2, 0.9, seed=4)
            if cause == "merging-topple":
                c._st.thresh = 0.9      # site 1 (0.6) then reads as below it
        _force_additions(c._addC, *zip(draw))
        with _kernel_set(kernel):
            c.run(1)
        assert c.restarts_by_cause == {k: int(k == cause) for k in coupling.RESTART_CAUSES}
        assert (c.t, c.restarts, c.phase, c._addC.pos) == (1, 1, "independent", 1)
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
    return (_bits(eng.h), eng.unstable.tolist(), eng._where.tolist(), led._m.tolist(),
            _bits(led._lv),
            _bits(led._lc), _bits(led._diss), _bits([eng.t]),
            eng.t_stab, eng.events, eng._clock.pos, _bits(eng._wait_buf),
            _bits(eng._pick_buf), _bits(eng.snapshots))


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
    # a snapshot rescans min M only once no site is left at the minimum, so
    # a settling box at these densities, which topples few sites a time unit,
    # reuses the previous minimum and its count at most snapshots
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
    # dense tori: most snapshots follow enough topplings to lift every
    # site off the minimum, and rescan it
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


def test_lattice_kernel_checks_engine_state(lib):
    cfg = generate(DensitySpec("constant", 1.1), (4, 4), TORUS, seed=1)
    # k one too high and one too low, a wrong slot, a short h; then buffers
    # of the right length but of the wrong type, strided, or read-only; a
    # row count past the row array, and a one-slot dissipation array
    for corrupt in (lambda e: setattr(e._clock, "k", e._clock.k + 1),
                    lambda e: setattr(e._clock, "k", e._clock.k - 1),
                    lambda e: e._where.__setitem__(e.unstable[0], 3),
                    lambda e: setattr(e, "h", e.h[:-1]),
                    lambda e: setattr(e.ledger, "_m", e.ledger._m.astype(np.int32)),
                    lambda e: setattr(e, "_where", e._where.astype(np.float64)),
                    lambda e: setattr(e, "h", np.repeat(e.h, 2)[::2]),
                    lambda e: e.ledger._lc.setflags(write=False),
                    lambda e: setattr(e._clock, "n_rows", 1),
                    lambda e: setattr(e.ledger, "_diss", np.zeros(1))):
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


def test_build_removes_stale_libraries(tmp_path):
    # a loaded build deletes the other builds in its cache, and only them;
    # a failed build deletes nothing
    cache = tmp_path / "cache"
    cache.mkdir()
    keep = ["_drive-inflight.tmp", "drive-other.so", "_drive-notes.txt"]
    for name in keep + ["_drive-0123456789abcdef.so", "_drive-fedcba9876543210.so"]:
        (cache / name).write_text("")
    assert core._build_kernel(cache, cc=str(tmp_path / "no-such-cc")) is None
    assert len(os.listdir(cache)) == 5
    assert core._build_kernel(cache) is not None
    built = [n for n in os.listdir(cache) if n not in keep]
    assert len(built) == 1 and built[0].startswith("_drive-") and built[0].endswith(".so")
    assert core._build_kernel(cache) is not None
    assert sorted(os.listdir(cache)) == sorted(keep + built)


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
# the first finding, and runs one differential lattice case and a chain drive
# on it
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
# guards, plus chain drives at n=30 and n=1 and a coupling through its merge
# and 20,000 merged steps
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
p = tk.ChainProcess(1, 0.3, 0.9, seed=2)     # one site: the row block
tk._drive_compiled(lib, p, 3000, tk.MarginalStats(1, bins=7), None)
assert tk._merged_pair().run_steps(20_000, require_equal=True)
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
