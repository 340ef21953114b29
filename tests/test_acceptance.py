"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the verdict lines
live; each criterion is also a separate test, so plain ``pytest -v`` shows
the same pass/fail picture per criterion.
"""

import math
import time
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from scipy import stats as sstats

from zhangpile.chain import ChainProcess, MarginalStats, empirical_tv_distance, run_stationary
from zhangpile.cli import main
from zhangpile.core import stabilize_chain
from zhangpile.coupling import (
    Coupling,
    coupling_sweep,
    epsilon_abn,
    t_epsilon,
    verify_contraction,
)
from zhangpile.lattice import (
    BOX,
    TORUS,
    DensitySpec,
    LatticeConfig,
    MarkovToppling,
    bond_bound_check,
    generate,
    mass_identity_check,
    parallel_round,
    stabilizability_sweep,
    topple_lattice,
)

WORKERS = 2


def _verdict(num: int, ok: bool, desc: str, detail: str = "") -> None:
    print(f"\nACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {desc}"
          + (f" [{detail}]" if detail else ""))
    assert ok, f"criterion {num}: {desc} {detail}"


def test_criterion_01_table1_exactness(tmp_path):
    t0 = time.perf_counter()
    cases = {
        "left": ([0, 0.7, 0.95, 0, 0.95, 0], [0, 0, 1, 1, 0, 0]),
        "right": ([0.5, 0.5, 0.525, 0, 0.525, 0.55], [0, 1, 2, 3, 1, 0]),
        "parallel": ([0, 0.7, 0.6, 0.7, 0.6, 0], [0, 0, 1, 1, 0, 0]),
    }
    worst = 0.0
    for policy, (want_h, want_c) in cases.items():
        out = tmp_path / f"{policy}.txt"
        rc = main(["stabilize", "--chain", "0,0,1.4,1.2,0,0",
                   "--policy", policy, "--out", str(out)])
        assert rc == 0
        hs, cs = out.read_text().strip().split(" / ")
        heights = [float(v) for v in hs.split(",")]
        counts = [int(v) for v in cs.split(",")]
        worst = max(worst, max(abs(g - w) for g, w in zip(heights, want_h)))
        assert counts == want_c, f"{policy}: counts {counts} != {want_c}"
    _verdict(1, worst <= 1e-12, "Table rows reproduced by the stabilize command",
             f"max|err|={worst:.2e}, {time.perf_counter()-t0:.2f}s")


def test_criterion_02_order_dependence_witness():
    base = [0.9, 0.9, 0.9, 0.0, 1.4, 1.2, 0.0, 0.9, 0.9, 0.9]
    cfg, led = LatticeConfig(np.array(base), BOX), None
    cfg, led = topple_lattice(cfg, 4, led)
    cfg, led = topple_lattice(cfg, 5, led)
    left_want = [0.9, 0.9, 0.9, 0.7, 0.95, 0.0, 0.95, 0.9, 0.9, 0.9]
    err_left = float(np.abs(cfg.heights - left_want).max())
    assert cfg.is_stable()

    cfg2, led2 = LatticeConfig(np.array(base), BOX), None
    cfg2, led2 = topple_lattice(cfg2, 5, led2)
    cfg2, led2 = topple_lattice(cfg2, 4, led2)
    right_want = [0.9, 0.9, 0.9, 1.0, 0.0, 1.0, 0.6, 0.9, 0.9, 0.9]
    err_right = float(np.abs(cfg2.heights - right_want).max())
    assert int(led2.M.sum()) == 2
    assert not cfg2.is_stable()
    worst = max(err_left, err_right)
    _verdict(2, worst <= 1e-12, "order-dependence example reproduced both ways",
             f"max|err|={worst:.2e}")


def test_criterion_03_single_addition_abelian():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3003)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        h = rng.uniform(0, 1, n)
        h[int(rng.integers(n))] += rng.uniform(0, 1)
        fl, ll = stabilize_chain(h, "left")
        fr, lr = stabilize_chain(h, "right")
        fu, lu = stabilize_chain(h, "random", rng=rng)
        worst = max(worst, float(np.abs(fl - fr).max()), float(np.abs(fl - fu).max()))
        assert ll.counts.tolist() == lr.counts.tolist() == lu.counts.tolist()
    _verdict(3, worst <= 1e-12, "1000 single-addition trials are policy-independent",
             f"max|err|={worst:.2e}, {time.perf_counter()-t0:.2f}s")


def test_criterion_04_closed_form_constants():
    # independent re-derivations: exact rationals for the tolerance formula,
    # 60-digit arithmetic for the step-budget formula
    e1 = epsilon_abn(0.0, 1.0, 2)
    e2 = epsilon_abn(0.2, 0.9, 3)
    err1 = abs(e1 - float(Fraction(1, 30)))
    err2 = abs(e2 - float(Fraction(7, 540)))
    mp.mp.dps = 60
    base = 1 - mp.mpf(2) ** -5
    inner = int(mp.ceil(mp.log(2 * mp.mpf("0.7") / 54 / 3) / mp.log(base)))
    t_ref = 2 * math.ceil(2 / 1.1) * inner
    got_t = t_epsilon(0.2, 0.9, 3, 0.7 / 54)
    ok = err1 < 1e-15 and err2 < 1e-15 and got_t == t_ref == 600
    _verdict(4, ok, "closed-form constants match independent derivations",
             f"eps errs {err1:.1e}/{err2:.1e}, t_eps={got_t}")


def test_criterion_05_contraction_bound():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5005)
    worst_resid = 0.0
    for n in (2, 3, 4, 6):
        rep = verify_contraction(n, 20, rng)
        worst_resid = max(worst_resid, rep.max_residual)
        assert all(m <= b + 1e-12 for m, b in
                   zip(rep.max_b_per_avalanche, rep.b_bounds))
    el = time.perf_counter() - t0
    ok = worst_resid <= 1e-9 and el < 60
    _verdict(5, ok, "geometric coefficient bound and linear shadow hold to k=20",
             f"max resid={worst_resid:.2e}, {el:.2f}s")


def test_criterion_06_coupling_success():
    t0 = time.perf_counter()
    n, a, b = 3, 0.2, 0.9
    res = coupling_sweep(n, a, b, range(500), 1_000_000, workers=WORKERS,
                         post_merge_steps=100_000)
    merged = [r for r in res if r.merged]
    frac = len(merged) / len(res)
    stay_identical = all(r.post_merge_identical for r in merged)
    window = (n - 1) * math.ceil(1 / (a + b))
    within_window = all(r.final_merging_steps is not None
                        and r.final_merging_steps <= window for r in merged)
    el = time.perf_counter() - t0
    ok = frac > 0 and stay_identical and within_window
    _verdict(6, ok, "coupling merges; merged pairs stay identical 1e5 steps",
             f"merged {len(merged)}/500, window<={window}, {el:.1f}s")


def test_criterion_07_marginal_fidelity():
    t0 = time.perf_counter()
    c = Coupling([0.0] * 3, [0.99, 0.5, 0.8], 0.2, 0.9, seed=7007,
                 record_streams=True)
    c.run(120_000)
    if c.t < 120_000:
        c.run_steps(120_000 - c.t)
    assert c.restarts > 0          # phase transitions really happened
    pvals = []
    for stream in (c.streamA, c.streamB):
        sites = np.bincount([s for s, _ in stream], minlength=3)
        amts = np.array([u for _, u in stream])
        pvals.append(sstats.chisquare(sites).pvalue)
        pvals.append(sstats.kstest(amts, "uniform", args=(0.2, 0.7)).pvalue)
    ok = all(p > 0.01 for p in pvals)
    _verdict(7, ok, "per-chain addition streams uniform across phase transitions",
             f"min p={min(pvals):.3f} over 1.2e5 steps, {time.perf_counter()-t0:.1f}s")


def test_criterion_08_empirical_uniqueness_convergence():
    t0 = time.perf_counter()
    n, a, b = 5, 0.3, 0.9
    p1 = ChainProcess(n, a, b, seed=8001, heights=[0.0] * n)
    s1 = run_stationary(p1, 100_000, 1_000_000)
    p2 = ChainProcess(n, a, b, seed=8002, heights=[0.99] * n)
    s2 = run_stationary(p2, 100_000, 1_000_000)
    tvs = [empirical_tv_distance(s1, s2, site) for site in range(1, n + 1)]

    # time-t law estimates from two deterministic starts, log-spaced times
    grid = [1, 2, 4, 8, 16, 32]
    replicas = 3000
    ens = {ic: {t: MarginalStats(n, bins=32) for t in grid}
           for ic in (0.0, 0.99)}
    for ic, seed0 in ((0.0, 80_000), (0.99, 90_000)):
        for r in range(replicas):
            p = ChainProcess(n, a, b, seed=seed0 + r, heights=[ic] * n)
            k = 0
            for t in range(1, grid[-1] + 1):
                p.step_fast()
                if t == grid[k]:
                    ens[ic][t].add(p.heights)
                    k += 1
    curve = [float(np.mean([empirical_tv_distance(ens[0.0][t], ens[0.99][t], s)
                            for s in range(1, n + 1)])) for t in grid]
    monotone = all(curve[i + 1] <= curve[i] + 0.005 for i in range(len(curve) - 1))
    decayed = curve[-1] < 0.1 * curve[0]
    el = time.perf_counter() - t0
    ok = max(tvs) < 0.02 and monotone and decayed
    _verdict(8, ok, "stationary marginals agree across starts; law distance decays",
             f"max TV={max(tvs):.4f}, curve={['%.3f' % v for v in curve]}, {el:.1f}s")


def test_criterion_09_quasi_units():
    t0 = time.perf_counter()
    p = ChainProcess(30, 0.6, 0.8, seed=9009)
    stats = run_stationary(p, 10_000, 1_000_000)
    mean_err = float(np.abs(stats.mean - 0.7).max())
    max_var = float(stats.var.max())
    el = time.perf_counter() - t0
    ok = mean_err < 0.05 and max_var < 0.01
    # Note: the stationary chain at these parameters keeps exactly one empty
    # site at a time (weight ~0.97/N per site, no anomalous mass), which
    # forces per-site variance >= ~0.49 * 0.97/30 ~ 0.0153 at N=30 no matter
    # how many samples are drawn.  The mean clause holds with a wide margin;
    # the variance clause is unattainable at N=30 (it passes for N >= ~50).
    _verdict(9, ok, "site means within 0.05 of 0.7 and site variance < 0.01",
             f"max|mean-0.7|={mean_err:.4f}, max var={max_var:.4f}, {el:.1f}s")


@pytest.mark.parametrize("shape", [(64,), (32, 32)])
def test_criterion_10_torus_conservation(shape):
    t0 = time.perf_counter()
    cfg = generate(DensitySpec("constant", 1.1), shape, TORUS, seed=1010)
    eng = MarkovToppling(cfg, seed=1011)
    total0 = cfg.total_mass()
    worst_resid = 0.0
    worst_drift = 0.0
    for _ in range(100):
        eng.run(max_events=10_000)
        worst_resid = max(worst_resid,
                          mass_identity_check(cfg, eng.config(), eng.ledger))
        worst_drift = max(worst_drift, abs(eng.config().total_mass() - total0))
    assert eng.events == 1_000_000
    el = time.perf_counter() - t0
    ok = worst_resid <= 1e-9 and worst_drift <= 1e-9
    _verdict(10, ok, f"1e6-event torus run conserves mass exactly {shape}",
             f"resid={worst_resid:.2e}, drift={worst_drift:.2e}, {el:.1f}s")


def test_criterion_11_internal_bond_bound():
    t0 = time.perf_counter()
    cfg = generate(DensitySpec("constant", 1.1), (16, 16), TORUS, seed=1110)
    eng = MarkovToppling(cfg, seed=1111)
    region = [(i, j) for i in range(5, 11) for j in range(5, 11)]
    eng.run(max_events=20_000)       # warm up until every region site toppled
    checked = 0
    for _ in range(100):
        eng.run(max_events=1000)
        rep = bond_bound_check(eng.config(), region, eng.ledger)
        assert rep.precondition_met, "region site never toppled after warmup"
        assert rep.holds, (rep.region_mass, rep.bound)
        checked += 1
    el = time.perf_counter() - t0
    _verdict(11, checked == 100, "region mass dominates internal-bond bound",
             f"100 sampled times, beta/(2d)={rep.bound}, {el:.1f}s")


def test_criterion_12_density_thresholds():
    t0 = time.perf_counter()
    details = []
    ok = True

    # (a) low-density iid starts stabilize everywhere (trivially: both laws
    # place all heights below 1, so the verdict is immediate)
    for rho in (0.2, 0.4):
        for sides in ((64,), (32, 32)):
            s = stabilizability_sweep([DensitySpec("iid", rho)], sides,
                                      TORUS, t_max=200.0, replicas=20,
                                      seed=1201, workers=WORKERS)[0]
            ok &= s.fraction_stabilized == 1.0
    details.append("iid 0.2/0.4 all stabilized")

    # (b) supercritical constant density on a conserving torus never settles
    for sides in ((64,), (32, 32)):
        s = stabilizability_sweep([DensitySpec("constant", 1.1)], sides,
                                  TORUS, t_max=200.0, replicas=20,
                                  seed=1202, workers=WORKERS)[0]
        ok &= s.fraction_stabilized == 0.0
        slopes = [r["min_m_slope"] for r in s.rows]
        ok &= all(sl is not None and sl > 0 for sl in slopes)
    details.append("constant 1.1 never stabilized, min-M growing")

    # (c) checkerboard at rho=0.55 in d=2
    s = stabilizability_sweep([DensitySpec("checkerboard", 0.55)], (32, 32),
                              TORUS, t_max=200.0, replicas=20,
                              seed=1203, workers=WORKERS)[0]
    ok &= s.fraction_stabilized == 0.0
    details.append("checkerboard 0.55 active at cutoff")

    # (d) near-full at rho=0.8 in d=2
    s = stabilizability_sweep([DensitySpec("near-full", 0.8)], (32, 32),
                              TORUS, t_max=200.0, replicas=20,
                              seed=1204, workers=WORKERS)[0]
    ok &= s.fraction_stabilized == 0.0
    details.append("near-full 0.8 active at cutoff")

    el = time.perf_counter() - t0
    assert el < 600
    _verdict(12, ok, "desk-scale density thresholds", f"{'; '.join(details)}, {el:.1f}s")


def test_criterion_13_checkerboard_period_two():
    t0 = time.perf_counter()
    ok = True
    for shape in ((32,), (16, 16)):
        for rho in (0.5, 0.6, 0.9):
            cfg = generate(DensitySpec("checkerboard", rho), shape, TORUS,
                           seed=1313)
            c0 = cfg.heights.copy()
            c1 = parallel_round(cfg).heights.copy()
            c = cfg
            for r in range(1, 1001):
                c = parallel_round(c)
                want = c1 if r % 2 == 1 else c0
                if not np.array_equal(c.heights, want):
                    ok = False
                    break
    el = time.perf_counter() - t0
    _verdict(13, ok, "parallel checkerboard has exact period two for 1000 rounds",
             f"rho in (0.5,0.6,0.9), d in (1,2), {el:.1f}s")
