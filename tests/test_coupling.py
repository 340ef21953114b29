import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sstats

from zhangpile.core import CouplingState, InvariantViolation, _relax_leftmost, in_class_E
from zhangpile.coupling import (
    CoefficientTracker,
    Coupling,
    contraction_base,
    coupled_amount,
    coupling_constants,
    coupling_sweep,
    correction_D,
    d_bounds,
    epsilon_abn,
    epsilon_schedule,
    k_epsilon,
    t_epsilon,
    verify_contraction,
)
from zhangpile.seeding import substreams


# ---------------------------------------------------------------------------
# closed-form constants, cross-checked against exact rational arithmetic
# ---------------------------------------------------------------------------

def eps_exact(a: Fraction, b: Fraction, n: int) -> Fraction:
    prod = Fraction(1)
    for l in range(1, n):
        prod *= 1 + Fraction(2) ** (n - 2 - l)
    return (b - a) / (6 + 16 * prod)


def test_epsilon_values():
    assert abs(epsilon_abn(0.0, 1.0, 2) - 1.0 / 30.0) < 1e-15
    assert abs(epsilon_abn(0.2, 0.9, 3) - 0.7 / 54.0) < 1e-15


def test_epsilon_matches_rational_oracle():
    rng = np.random.default_rng(1)
    for _ in range(25):
        n = int(rng.integers(2, 12))
        a = Fraction(int(rng.integers(0, 50)), 100)
        b = a + Fraction(int(rng.integers(1, 50)), 100)
        want = float(eps_exact(a, b, n))
        got = epsilon_abn(float(a), float(b), n)
        assert abs(got - want) < 1e-14


def test_epsilon_scales_linearly_in_width():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(2, 10))
        a, w = rng.uniform(0, 0.5), rng.uniform(0.01, 0.5)
        assert abs(epsilon_abn(a, a + w, n) - w * epsilon_abn(0, 1, n)) < 1e-15


def test_epsilon_validation():
    with pytest.raises(ValueError):
        epsilon_abn(0.0, 1.0, 1)
    with pytest.raises(ValueError):
        epsilon_abn(0.5, 0.5, 3)
    with pytest.raises(ValueError):
        epsilon_abn(0.9, 0.5, 3)


def test_epsilon_schedule_recursion():
    for n in (2, 3, 5, 8):
        eps = epsilon_schedule(0.1, 0.8, n)
        assert len(eps) == n
        assert eps[0] == epsilon_abn(0.1, 0.8, n)
        for k in range(1, n):
            assert abs(eps[k] - (1 + 2.0 ** (n - k - 2)) * eps[k - 1]) < 1e-15
        assert all(e2 > e1 for e1, e2 in zip(eps, eps[1:]))


def test_d_bounds_match_rational_oracle():
    for n in (2, 3, 4, 6):
        a, b = Fraction(1, 5), Fraction(9, 10)
        eps1 = eps_exact(a, b, n)
        got = d_bounds(float(a), float(b), n)
        assert len(got) == n - 1
        for k in range(1, n):
            prod = Fraction(1)
            for l in range(1, k):
                prod *= 1 + Fraction(2) ** (n - l - 2)
            want = float(Fraction(2) ** (n - k) * prod * eps1)
            assert abs(got[k - 1] - want) < 1e-14


def test_t_epsilon_reference_value():
    assert t_epsilon(0.2, 0.9, 3, 0.7 / 54) == 600


def test_t_epsilon_log_of_own_base():
    # 2*eps/n equal to the base itself makes the inner ceiling exactly one
    n = 4
    base = contraction_base(n)
    eps = (n / 2) * base
    assert t_epsilon(0.2, 0.9, n, eps) == 2 * math.ceil(2 / 1.1)


def test_t_epsilon_monotone_in_eps():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(2, 8))
        hi = rng.uniform(1e-6, n / 2 * 0.99)
        lo = hi * rng.uniform(0.01, 1.0)
        assert t_epsilon(0.1, 0.9, n, lo) >= t_epsilon(0.1, 0.9, n, hi)


def test_t_epsilon_validation():
    with pytest.raises(ValueError):
        t_epsilon(0.2, 0.9, 3, 2.0)      # 2*eps/n >= 1
    with pytest.raises(ValueError):
        t_epsilon(0.2, 0.9, 3, 0.0)


@pytest.mark.parametrize("n", [-1, 0, 1])
def test_k_epsilon_needs_two_sites(n):
    # k_epsilon(0, 0.1) divided by zero and k_epsilon(1, 0.1) returned 12
    with pytest.raises(ValueError, match="coupling constants need n >= 2"):
        k_epsilon(n, 0.1)


def test_coupling_constants_bundle():
    c = coupling_constants(0.2, 0.9, 3)
    assert c.eps1 == epsilon_abn(0.2, 0.9, 3)
    assert c.t_eps == 600
    assert len(c.eps_schedule) == 3 and len(c.d_bounds) == 2


# ---------------------------------------------------------------------------
# merge corrections
# ---------------------------------------------------------------------------

def test_correction_D_examples():
    assert correction_D([0.0, 0.0, 0.0], 1, 3) == 0.0
    assert abs(correction_D([0.01, -0.01, 0.0], 1, 3) - (-0.01)) < 1e-15
    d = 1e-3
    assert abs(correction_D([d, d], 2, 4) - 3 * d) < 1e-18
    with pytest.raises(ValueError):
        correction_D([0.1], 0, 3)
    with pytest.raises(ValueError):
        correction_D([0.1], 3, 3)
    with pytest.raises(ValueError):
        correction_D([0.1], 1, 3)       # needs n-k = 2 entries


def test_correction_D_bound():
    rng = np.random.default_rng(4)
    for _ in range(100):
        n = int(rng.integers(2, 10))
        k = int(rng.integers(1, n))
        diff = rng.uniform(-1, 1, n)
        d = correction_D(diff, k, n)
        assert abs(d) <= 2.0 ** (n - k) * np.abs(diff).max() + 1e-12


def test_coupled_amount_examples():
    assert abs(coupled_amount(0.9, 0.3, 0.0, 1.0) - 0.2) < 1e-12
    rng = np.random.default_rng(5)
    for _ in range(100):
        a, b = 0.2, 0.9
        u = rng.uniform(a, b)
        assert abs(coupled_amount(u, 0.0, a, b) - u) < 1e-12


def test_coupled_amount_stays_in_range():
    rng = np.random.default_rng(6)
    for _ in range(2000):
        a = rng.uniform(0, 0.5)
        b = a + rng.uniform(0.05, 0.5)
        u = rng.uniform(a, b)
        D = rng.uniform(-2, 2)
        v = coupled_amount(u, D, a, b)
        assert a <= v <= b


@st.composite
def translations(draw):
    a = draw(st.floats(0.0, 0.99))
    b = draw(st.floats(a, 1.0, exclude_min=True))
    u = draw(st.floats(a, b, exclude_max=True))
    return a, b, u, draw(st.floats(-2.0, 2.0))


@settings(max_examples=500, deadline=None)
@given(translations())
def test_coupled_amount_is_a_translation_mod_the_window(spec):
    # [a, b) into [a, b), and the offset -D undoes D up to 1e-12 on the
    # circle of circumference b - a
    a, b, u, D = spec
    v = coupled_amount(u, D, a, b)
    assert a <= v < b
    back = coupled_amount(v, -D, a, b)
    assert a <= back < b
    gap = abs(back - u)
    assert min(gap, (b - a) - gap) <= 1e-12


def test_coupled_amount_preserves_uniformity():
    # Kolmogorov-Smirnov on 1e5 mapped uniforms, fixed offset
    rng = np.random.default_rng(7)
    a, b = 0.2, 0.9
    u = rng.uniform(a, b, 100_000)
    for D in (0.17, -0.42, 3.3):
        v = np.array([coupled_amount(x, D, a, b) for x in u[:100_000]])
        p = sstats.kstest(v, "uniform", args=(a, b - a)).pvalue
        assert p > 0.01, f"D={D}: KS p={p}"


# ---------------------------------------------------------------------------
# linear shadow of contraction avalanches
# ---------------------------------------------------------------------------

def _forced_sweeps(n, k_max, seed):
    """Brute-force full-sweep avalanches for tracker cross-checking."""
    rng = np.random.default_rng(seed)
    eta0 = rng.uniform(0.5, 1.0, n)
    eta0[-1] = 0.0
    h = eta0.tolist()
    side = "N"
    records = []
    for _ in range(k_max):
        target = n - 1 if side == "N" else 0
        while h[target] < 1.0:
            u = float(rng.uniform(0.5, 1.0))
            h[target] += u
        s_k = h[target]
        ntop = _relax_leftmost(h, target)
        assert ntop == n
        records.append((side, s_k, list(h)))
        side = "1" if side == "N" else "N"
    return eta0, records


def test_tracker_identity_before_avalanches():
    tr = CoefficientTracker(5)
    assert tr.n_avalanches == 0
    assert np.array_equal(tr.B, np.eye(5))
    assert tr.max_b <= 1.0


def test_tracker_matches_bruteforce_sweeps():
    for n in (2, 3, 5, 7):
        eta0, records = _forced_sweeps(n, 12, seed=n)
        tr = CoefficientTracker(n)
        s_vals = []
        for k, (side, s_k, h_after) in enumerate(records, start=1):
            tr.apply_avalanche(side)
            s_vals.append(s_k)
            pred = tr.predict(eta0, s_vals)
            assert np.abs(pred - np.array(h_after)).max() < 1e-9
            assert tr.max_b <= contraction_base(n) ** k + 1e-12
            # parity: odd avalanches land empty-at-1, even empty-at-N
            want_empty = 1 if k % 2 == 1 else n
            assert in_class_E(h_after, want_empty)


def test_tracker_bound_n4_k10():
    eta0, records = _forced_sweeps(4, 10, seed=11)
    tr = CoefficientTracker(4)
    for side, _, _ in records:
        tr.apply_avalanche(side)
    assert tr.max_b <= (1 - 2.0 ** -6) ** 10 + 1e-12
    assert tr.A.shape == (10, 4)


# sha256 of coef's bytes after the sweeps "N11N1N11", as the tracker wrote it
# when each side had its own sweep loop; two "1"s in a row compose a
# rightmost-first sweep with itself
_TRACKER_COEF = {
    2: "841c9ecd560f8fc49e0467468af36c46e39bd327c6f4688e9c9a215aa6ac69ea",
    3: "b45844853ea0a984cbd15b0bebff0708b8d13d95bfa48cae0d9e651dda8cae92",
    4: "8a240d919949ac3a04d292c65f176f1686ccb63cb3155f2eab0dbb73408b3d19",
    5: "92895cb4259e3b93c064266ae1d140fb20dd0faa23290f3698b9746956ea04a9",
    6: "3640b8c5268549709bbafa19887070610afb6b0c371e2c91a440450b8707ddc9",
}


@pytest.mark.parametrize("n", sorted(_TRACKER_COEF))
def test_tracker_coef_bits_are_pinned(n):
    tr = CoefficientTracker(n)
    for side in "N11N1N11":
        tr.apply_avalanche(side)
    # predict's matrix product reads coef in C order
    assert tr.coef.flags.c_contiguous
    assert hashlib.sha256(tr.coef.tobytes()).hexdigest() == _TRACKER_COEF[n]


def test_merging_avalanche_closed_form():
    # one scheduled avalanche from an all-full-empty-at-N state: additions to
    # site 1 (equal total R, trigger U), then the cascade; every site must
    # match the closed-form linear combination
    rng = np.random.default_rng(12)
    for n in (3, 4, 6, 9):
        eta = rng.uniform(0.5, 1.0, n)
        eta[-1] = 0.0
        h = eta.tolist()
        R = 0.0
        while h[0] + 0.55 < 1.0:
            u = float(rng.uniform(0.1, 0.2))
            h[0] += u
            R += u
        U = 0.55
        h[0] += U
        assert h[0] >= 1.0
        ntop = _relax_leftmost(h, 0)
        assert ntop == n - 1
        head = eta[0] + R + U
        for x in range(1, n - 1):           # 1-based site x, x <= n-2
            want = head / 2.0 ** (x + 1)
            for j in range(2, x + 2):
                want += eta[j - 1] / 2.0 ** (x + 2 - j)
            assert abs(h[x - 1] - want) < 1e-9
        assert h[n - 2] == 0.0
        assert abs(h[n - 1] - h[n - 3]) < 1e-9


def test_verify_contraction_small_sizes():
    rng = np.random.default_rng(13)
    for n in (2, 3, 4, 6):
        rep = verify_contraction(n, 20, rng)
        assert rep.max_residual < 1e-9
        assert rep.max_gap_steps <= rep.gap_bound
        assert all(m <= b + 1e-12 for m, b in
                   zip(rep.max_b_per_avalanche, rep.b_bounds))


def test_verify_contraction_reaches_eps_target():
    # after k_eps forced avalanches the two-chain gap is below eps
    n, a, b = 4, 0.2, 0.9
    eps = epsilon_abn(a, b, n)
    k = k_epsilon(n, eps)
    rep = verify_contraction(n, k, np.random.default_rng(14), a=a, b=b)
    assert k % 2 == 0
    assert rep.max_diff_per_avalanche[-1] < eps


def test_verify_contraction_validation():
    with pytest.raises(ValueError):
        verify_contraction(1, 5, np.random.default_rng(0))


def test_verify_contraction_nondefault_interval():
    rep = verify_contraction(5, 14, np.random.default_rng(15), a=0.5, b=1.0)
    assert rep.gap_bound == math.ceil(2 / 1.5)
    assert rep.max_gap_steps <= rep.gap_bound


# ---------------------------------------------------------------------------
# the full coupling
# ---------------------------------------------------------------------------

def test_equal_starts_merge_immediately():
    c = Coupling([0.3, 0.6, 0.2], [0.3, 0.6, 0.2], 0.2, 0.9, seed=0)
    c.run(10)
    r = c.result(0)
    assert r.merged and r.merge_time == 0
    assert r.restarts == 0


def test_coupling_rejects_bad_inputs():
    with pytest.raises(ValueError):
        Coupling([0.5], [0.5], 0.2, 0.9)               # n < 2
    with pytest.raises(ValueError):
        Coupling([0.5, 0.5], [0.5], 0.2, 0.9)          # length mismatch
    with pytest.raises(ValueError):
        Coupling([0.5, 1.2], [0.5, 0.5], 0.2, 0.9)     # unstable start


def test_coupling_merges_and_stays_identical():
    res = coupling_sweep(3, 0.2, 0.9, range(8), 200_000, post_merge_steps=5000)
    merged = [r for r in res if r.merged]
    assert merged, "no seed merged within 2e5 steps"
    for r in merged:
        assert r.post_merge_identical is True
        assert r.merge_time is not None and r.merge_time <= 200_000
        assert sum(r.phase_times) == r.merge_time
        assert r.final_merging_steps is not None
        assert r.final_merging_steps <= 2 * math.ceil(1 / (0.2 + 0.9))
        assert r.restarts >= 0


def test_sweep_rejects_negative_post_merge_steps():
    # a negative count ran no check, yet reported the merge as holding
    with pytest.raises(ValueError, match="post_merge_steps must be >= 0, got -5"):
        coupling_sweep(3, 0.2, 0.9, [0], 10**6, post_merge_steps=-5)


def test_merge_time_bookkeeping_unmerged():
    # tiny budget: nothing merges, cutoff is reported as such
    res = coupling_sweep(3, 0.2, 0.9, range(3), 50)
    for r in res:
        if not r.merged:
            assert r.merge_time is None
            assert r.steps == 50
            assert sum(r.phase_times) == 50


def test_result_record_schema():
    c = Coupling([0.1, 0.2], [0.3, 0.4], 0.5, 1.0, seed=5)
    c.run(1000)
    r = c.result(5)
    rec = r.to_record()
    assert set(rec) == {"seed", "merged", "merge_time", "restarts", "phase_times"}
    assert isinstance(rec["phase_times"], list) and len(rec["phase_times"]) == 3


def test_n2_merge_times_geometric_tail():
    res = coupling_sweep(2, 0.5, 1.0, range(200), 100_000)
    times = np.array([r.merge_time for r in res if r.merged])
    assert len(times) >= 198        # merging is effectively certain here
    # geometric decay shows as a straight log-survival curve
    times = np.sort(times)
    n = len(times)
    lo, hi = int(0.1 * n), int(0.9 * n)
    t = times[lo:hi].astype(float)
    logsurv = np.log(1.0 - (np.arange(lo, hi) / n))
    r2 = np.corrcoef(t, logsurv)[0, 1] ** 2
    assert r2 > 0.9, f"log-survival not linear enough: R^2={r2:.3f}"


def test_marginal_streams_uniform():
    # sites chi-square uniform, amounts KS uniform, across phase transitions
    c = Coupling([0.0, 0.0, 0.0], [0.9, 0.8, 0.7], 0.2, 0.9, seed=21,
                 record_streams=True)
    c.run(30_000)
    c.run_steps(5_000)
    for stream in (c.streamA, c.streamB):
        sites = np.array([s for s, _ in stream])
        amts = np.array([u for _, u in stream])
        counts = np.bincount(sites, minlength=3)
        p_sites = sstats.chisquare(counts).pvalue
        p_amts = sstats.kstest(amts, "uniform", args=(0.2, 0.7)).pvalue
        assert p_sites > 0.01, f"site chi2 p={p_sites}"
        assert p_amts > 0.01, f"amount KS p={p_amts}"
    assert len(c.streamA) == len(c.streamB) == c.t


def test_sweep_deterministic_across_workers():
    r1 = coupling_sweep(3, 0.2, 0.9, range(6), 20_000, workers=1)
    r2 = coupling_sweep(3, 0.2, 0.9, range(6), 20_000, workers=2)
    assert [r.to_record() for r in r1] == [r.to_record() for r in r2]


def test_fast_and_recording_paths_agree():
    # recording the streams, and driving by step() alone instead of run(),
    # must consume the exact same draws and produce the same trajectory
    kw = dict(seed=99)
    c1 = Coupling([0.1, 0.2, 0.3], [0.8, 0.6, 0.4], 0.2, 0.9,
                  record_streams=False, **kw)
    c2 = Coupling([0.1, 0.2, 0.3], [0.8, 0.6, 0.4], 0.2, 0.9,
                  record_streams=True, **kw)
    c1.run(50_000)
    c2.run(50_000)
    c3 = Coupling([0.1, 0.2, 0.3], [0.8, 0.6, 0.4], 0.2, 0.9,
                  record_streams=True, **kw)
    while c3.t < c1.t:
        c3.step()
    for c in (c2, c3):
        assert c1.t == c.t
        assert c1.phase == c.phase
        assert c1.restarts == c.restarts
        assert c1.merge_time == c.merge_time
        assert c1.phase_steps == c.phase_steps
        assert c1.hA == c.hA and c1.hB == c.hB
    assert c2.streamA == c3.streamA and c2.streamB == c3.streamB
    # run_steps through the merge and past it: a recorded pair, which steps
    # the Python reference, and an unrecorded one, which runs on the kernel
    # if it loads, end in the same state
    pairs = [Coupling([0.1, 0.2, 0.3], [0.8, 0.6, 0.4], 0.2, 0.9, record_streams=record, **kw)
             for record in (True, False)]
    for c in pairs:
        assert c.run_steps(c1.merge_time + 3000, require_equal=True) is False
        assert c.phase_steps["merged"] == 3000
    assert _full_state(pairs[0]) == _full_state(pairs[1])
    assert len(pairs[0].streamA) == len(pairs[0].streamB) == pairs[0].t


def _full_state(c):
    # the CouplingState bytes but for what only a kernel call sets (t_stop,
    # differed and the stream positions, which the streams keep)
    st = CouplingState.from_buffer_copy(c._st)
    st.t_stop = st.differed = st.posA = st.posB = st.posC = 0
    return (c.hA, c.hB, bytes(st), c.merge_time, c.final_merging_steps,
            [(s.pos, s.site_array.tobytes()) for s in (c._addA, c._addB, c._addC)])


def _addition_chunks(gen, n, a, b, chunk, count):
    out = []
    while len(out) < count:
        sites = gen.integers(0, n, chunk).tolist()
        amts = gen.uniform(a, b, chunk).tolist()
        out += zip(sites, amts)
    return out


def test_addition_stream_layout():
    # independent steps draw from seed children 2 (chain A) and 3 (chain B),
    # coupled steps from child 4; each stream draws 8192 sites, then 8192
    # amounts.  Consuming past two refills catches a wrong order or chunk.
    n, a, b, chunk = 3, 0.2, 0.9, 8192
    need = 2 * chunk + 5
    c = Coupling([0.1, 0.2, 0.3], [0.8, 0.6, 0.4], a, b, seed=1,
                 record_streams=True)
    c.run(100_000)
    assert c.phase == "merged" and c.phase_steps["independent"] >= need
    c.run_steps(need)
    wantA, wantB, wantC = (_addition_chunks(g, n, a, b, chunk, c.t)
                           for g in substreams(1, 5)[2:])
    i = k = 0
    for (xA, uA), (xB, uB) in zip(c.streamA, c.streamB, strict=True):
        if (xA, uA) == wantA[i]:            # independent step: own streams
            assert (xB, uB) == wantB[i]
            i += 1
        else:                               # coupled step: the shared stream
            assert (xA, uA) == wantC[k]
            assert xB == wantC[k][0]        # B's amount is offset when merging
            k += 1
    assert i == c.phase_steps["independent"] >= need
    assert k == c.t - i >= need


def test_mirror_frame_entry_and_true_equality():
    # both chains empty at site 1: coupled phases run in the mirrored frame
    c = Coupling([0.0, 0.9, 0.6], [0.0, 0.55, 0.95], 0.2, 0.9, seed=5)
    assert c.phase == "contraction"
    assert c.flip is True
    c.run(300_000)
    assert c.phase == "merged"
    # merged means equal configurations, not mirror images
    assert c.hA == c.hB
    c.run_steps(2_000, require_equal=True)


def test_mirror_frame_direct_merge_entry():
    # same-side entry with a tiny gap goes straight to merging, mirrored
    eps = epsilon_abn(0.2, 0.9, 3)
    d = eps / 4
    c = Coupling([0.0, 0.9, 0.6], [0.0, 0.9 - d, 0.6 + d], 0.2, 0.9, seed=6)
    assert c.phase == "merging"
    assert c.flip is True


def test_opposite_side_E_b_stays_independent():
    # chain A empty at site 1, chain B empty at site N: no shared frame exists
    c = Coupling([0.0, 0.9, 0.6], [0.6, 0.9, 0.0], 0.2, 0.9, seed=7)
    assert c.phase == "independent"


def test_maxdiff_is_nan_if_a_difference_is():
    # the merge-completion gate compares it with `not (d <= tol)`
    c = Coupling([0.1, 0.2, 0.3], [0.8, 0.6, 0.4], 0.2, 0.9, seed=1)
    assert c._maxdiff() == abs(0.1 - 0.8)
    c.hB[2] = math.nan
    assert math.isnan(c._maxdiff())
