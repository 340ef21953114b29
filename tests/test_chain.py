import math

import numpy as np
import pytest

from zhangpile.chain import (
    ChainProcess,
    MarginalStats,
    empirical_tv_distance,
    run_stationary,
    scripted_run,
)
from zhangpile.core import in_class_E, in_E_b, is_stable, stabilize_chain


def test_parameter_validation():
    with pytest.raises(ValueError):
        ChainProcess(0, 0.0, 1.0)
    with pytest.raises(ValueError):
        ChainProcess(3, 0.5, 0.5)      # a = b excluded
    with pytest.raises(ValueError):
        ChainProcess(3, 0.6, 0.4)
    with pytest.raises(ValueError):
        ChainProcess(3, -0.1, 0.5)
    with pytest.raises(ValueError):
        ChainProcess(2, 0.0, 1.0, heights=[0.5, 1.2])


def test_forced_step_single_site_no_topple():
    p = ChainProcess(1, 0.0, 1.0, heights=[0.3])
    _, log = p.apply_addition(1, 0.5)
    assert np.allclose(p.config, [0.8], atol=1e-12)
    assert log.total == 0


def test_forced_step_single_site_loses_all():
    # in one dimension a lone site is both boundaries: both halves dissipate
    p = ChainProcess(1, 0.0, 1.0, heights=[0.8])
    _, log = p.apply_addition(1, 0.4)
    assert p.config.tolist() == [0.0]
    assert log.counts.tolist() == [1]


def test_forced_step_two_site_cascade():
    p = ChainProcess(2, 0.0, 1.0, heights=[0.9, 0.9])
    _, log = p.apply_addition(1, 0.2)
    assert np.allclose(p.config, [0.725, 0.0], atol=1e-12)
    assert log.counts.tolist() == [1, 1]
    assert log.sequence == [1, 2]


def test_state_stays_stable():
    p = ChainProcess(6, 0.0, 1.0, seed=11)
    for _ in range(2000):
        p.step_fast()
        assert max(p.heights) < 1.0


def test_determinism_bitwise():
    def stream(seed):
        p = ChainProcess(5, 0.25, 0.75, seed=seed)
        return [(x, u, k) for x, u, k in (p.step_fast() for _ in range(3000))]

    assert stream(42) == stream(42)
    assert stream(42) != stream(43)


def test_step_and_step_fast_agree():
    # the logging step and the buffered fast step must apply identical
    # relaxations given identical draws
    p1 = ChainProcess(7, 0.2, 0.9, seed=77)
    p2 = ChainProcess(7, 0.2, 0.9, seed=77)
    for _ in range(4000):
        _, log = p1.step()
        _, _, ntop = p2.step_fast()
        assert log.total == ntop
        assert p1.heights == p2.heights
    assert p1.t == p2.t


# ---------------------------------------------------------------------------
# scripted runs
# ---------------------------------------------------------------------------

def test_scripted_empty():
    p = ChainProcess(4, 0.0, 1.0, heights=[0.1, 0.2, 0.3, 0.4])
    configs, logs = scripted_run(p, [])
    assert len(configs) == 1 and logs == []
    assert np.allclose(configs[0], [0.1, 0.2, 0.3, 0.4], atol=0)


def test_scripted_rejects_out_of_range_amount():
    p = ChainProcess(3, 0.2, 0.8)
    with pytest.raises(ValueError):
        scripted_run(p, [(1, 0.9)])


def test_scripted_reaches_table1_final_state():
    # direct additions onto zeros land exactly on the leftmost-first
    # stabilization of (0,0,1.4,1.2,0,0)
    p = ChainProcess(6, 0.0, 1.0)
    configs, logs = scripted_run(p, [(2, 0.7), (3, 0.95), (5, 0.95)])
    want, _ = stabilize_chain([0, 0, 1.4, 1.2, 0, 0], "left")
    assert np.allclose(configs[-1], want, atol=1e-12)
    assert all(log.total == 0 for log in logs)


def test_heavy_addition_next_to_empty_boundary_sweeps():
    # all-full chain with empty right boundary: one heavy addition beside the
    # empty site topples every full site once and flips the empty side
    for n in range(3, 21):
        a, b = 0.5, 1.0
        heights = [0.9] * (n - 1) + [0.0]
        p = ChainProcess(n, a, b, heights=heights)
        _, log = p.apply_addition(n - 1, (a + b) / 2)
        assert log.counts.tolist() == [1] * (n - 1) + [0]
        assert in_class_E(p.config, 1)


def test_boundary_avalanche_from_E_N_lands_in_E_1():
    rng = np.random.default_rng(7)
    for n in range(2, 21):
        heights = rng.uniform(0.5, 1.0, n)
        heights[-1] = 0.0
        p = ChainProcess(n, 0.3, 0.9, heights=heights)
        assert in_class_E(p.config, n)
        total = 0
        while True:               # heavy additions onto the empty boundary
            _, log = p.apply_addition(n, 0.6)
            total += 1
            if log.total:
                break
        assert total <= math.ceil(2 / (0.3 + 0.9))
        assert log.counts.tolist() == [1] * n
        assert in_class_E(p.config, 1)


def test_visits_E_N_within_lemma_budget():
    # constructive drive: heavy additions at site 1, then just right of the
    # leftmost empty site, reach the all-full-but-right-boundary state within
    # (n+1) * ceil(1/(a+b)) heavy additions
    rng = np.random.default_rng(8)
    a, b = 0.3, 0.8
    heavy = (a + b) / 2
    for trial in range(30):
        n = int(rng.integers(2, 11))
        p = ChainProcess(n, a, b, heights=rng.uniform(0, 1, n))
        budget = (n + 1) * math.ceil(1 / (a + b))
        used = 0
        target = 1
        while used < budget and not in_class_E(p.config, n):
            _, log = p.apply_addition(target, heavy)
            used += 1
            if log.total:
                h = p.config
                empties = [i + 1 for i in range(n) if h[i] == 0.0]
                assert empties, "avalanche must leave an empty site"
                if empties[0] == n:
                    break
                target = empties[0] + 1
        assert in_class_E(p.config, n), f"E_N not reached in {budget} additions (n={n})"
        assert used <= budget


def test_in_E_b_after_full_sweeps():
    p = ChainProcess(5, 0.5, 1.0, heights=[0.9, 0.9, 0.9, 0.9, 0.0])
    p.apply_addition(4, 0.9)
    assert in_E_b(p.config)


# ---------------------------------------------------------------------------
# stationary statistics
# ---------------------------------------------------------------------------

def test_run_stationary_zero_samples():
    p = ChainProcess(3, 0.0, 1.0, seed=0)
    stats = run_stationary(p, burn_in=10, samples=0)
    assert stats.count == 0
    assert stats.hist.sum() == 0


def test_stats_histogram_mass_and_mean_range():
    p = ChainProcess(4, 0.1, 0.9, seed=5)
    stats = run_stationary(p, 100, 5000, bins=64)
    assert stats.count == 5000
    assert (stats.hist.sum(axis=1) == 5000).all()
    assert ((stats.mean >= 0) & (stats.mean < 1)).all()
    assert (stats.var >= -1e-12).all()


def test_single_site_stationary_mean_reproducible():
    # two independent long runs agree within three standard errors
    means = []
    ses = []
    for seed in (101, 202):
        p = ChainProcess(1, 0.0, 1.0, seed=seed)
        stats = run_stationary(p, 2000, 200_000)
        means.append(float(stats.mean[0]))
        ses.append(float(np.sqrt(stats.var[0] / stats.count)))
    # serial correlation inflates the error of the naive SE; stay conservative
    tol = 3 * math.sqrt(ses[0] ** 2 + ses[1] ** 2) * 5
    assert abs(means[0] - means[1]) < tol


def test_tv_distance_basics():
    s1 = MarginalStats(2, bins=8)
    s2 = MarginalStats(2, bins=8)
    s1.add([0.1, 0.6])
    s2.add([0.1, 0.6])
    assert empirical_tv_distance(s1, s2, 1) == 0.0
    assert empirical_tv_distance(s1, s2, 2) == 0.0
    s3 = MarginalStats(2, bins=8)
    s3.add([0.9, 0.1])        # disjoint support from s1
    assert empirical_tv_distance(s1, s3, 1) == 1.0
    s4 = MarginalStats(2, bins=16)
    s4.add([0.1, 0.6])
    with pytest.raises(ValueError):
        empirical_tv_distance(s1, s4, 1)
    empty = MarginalStats(2, bins=8)
    with pytest.raises(ValueError):
        empirical_tv_distance(s1, empty, 1)


def test_tv_distance_two_seeds_same_model():
    stats = []
    for seed in (31, 32):
        p = ChainProcess(3, 0.2, 0.9, seed=seed)
        stats.append(run_stationary(p, 5000, 100_000, bins=32))
    for site in (1, 2, 3):
        assert empirical_tv_distance(stats[0], stats[1], site) < 0.05


def test_addition_stream_layout():
    # sites chunk, then amounts chunk, 4096 per chunk, from default_rng(seed);
    # step() and step_fast() share the stream.  Crossing two refills catches
    # a wrong draw order or chunk size.
    n, a, b, seed, chunk = 5, 0.2, 0.9, 41, 4096
    rng = np.random.default_rng(seed)
    want = []
    for _ in range(3):
        sites = rng.integers(0, n, chunk).tolist()
        amts = rng.uniform(a, b, chunk).tolist()
        want += zip(sites, amts)
    p = ChainProcess(n, a, b, seed=seed)
    got = []
    for t in range(2 * chunk + 5):
        if t % 3:
            got.append(p.step_fast()[:2])
        else:
            ev, _ = p.step()
            got.append((ev.site - 1, ev.amount))
    assert got == want[:2 * chunk + 5]


def test_heavy_regime_every_full_addition_topples():
    # the a >= 1/2 invariant check must stay silent on a legal run
    p = ChainProcess(8, 0.5, 1.0, seed=13)
    for _ in range(5000):
        p.step_fast()
    assert is_stable(p.config)
