import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zhangpile.core import (
    SiteLabel,
    ToppleCapError,
    TopplingPolicy,
    classify_site,
    in_class_E,
    in_E_b,
    is_stable,
    parse_policy,
    stabilize_chain,
    topple_chain,
)

TABLE1 = [0.0, 0.0, 1.4, 1.2, 0.0, 0.0]


def reference_stabilize(heights, order):
    """Independent oracle: repeatedly topple per the bare definition.

    ``order`` picks the next unstable site from the sorted unstable list.
    Kept deliberately naive (full rescans) so it shares no code with the
    library implementation.
    """
    h = [float(v) for v in heights]
    counts = [0] * len(h)
    sequence = []
    while True:
        unstable = [i for i, v in enumerate(h) if v >= 1.0]
        if not unstable:
            return h, counts, sequence
        x = order(unstable)
        counts[x] += 1
        sequence.append(x + 1)
        hx = h[x]
        h[x] = 0.0
        if x > 0:
            h[x - 1] += hx / 2
        if x < len(h) - 1:
            h[x + 1] += hx / 2


# ---------------------------------------------------------------------------
# site classification
# ---------------------------------------------------------------------------

def test_classify_examples():
    assert classify_site(0.0) is SiteLabel.EMPTY
    assert classify_site(0.5) is SiteLabel.FULL
    assert classify_site(1.4) is SiteLabel.UNSTABLE
    assert classify_site(0.25) is SiteLabel.ANOMALOUS
    assert classify_site(1.0) is SiteLabel.UNSTABLE


def test_classify_rejects_negative():
    with pytest.raises(ValueError):
        classify_site(-0.1)


def test_classify_partitions_halfline():
    rng = np.random.default_rng(0)
    for h in rng.uniform(0, 3, 500):
        label = classify_site(h)
        expected = (SiteLabel.EMPTY if h == 0 else
                    SiteLabel.ANOMALOUS if h < 0.5 else
                    SiteLabel.FULL if h < 1.0 else SiteLabel.UNSTABLE)
        assert label is expected


# ---------------------------------------------------------------------------
# single topplings
# ---------------------------------------------------------------------------

def test_topple_table1_first_step():
    out = topple_chain(TABLE1, 3)
    assert np.allclose(out, [0, 0.7, 0, 1.9, 0, 0], atol=1e-12)


def test_topple_stable_site_is_identity():
    out = topple_chain([0.2, 0.3, 0.4], 2)
    assert np.allclose(out, [0.2, 0.3, 0.4], atol=0)


def test_topple_boundary_dissipates_half():
    before = [1.2, 0.1, 0.0]
    out = topple_chain(before, 1)
    assert np.allclose(out, [0.0, 0.7, 0.0], atol=1e-12)
    assert abs((sum(before) - out.sum()) - 1.2 / 2) < 1e-12


def test_topple_single_site_loses_everything():
    out = topple_chain([1.7], 1)
    assert out.tolist() == [0.0]


def test_topple_index_out_of_range():
    with pytest.raises(ValueError):
        topple_chain([0.5, 0.5], 3)
    with pytest.raises(ValueError):
        topple_chain([0.5, 0.5], 0)


def test_topple_mass_bookkeeping():
    # dissipation is h/2 per missing neighbour, zero in the interior
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        h = rng.uniform(0, 2, n)
        x = int(rng.integers(1, n + 1))
        out = topple_chain(h, x)
        if h[x - 1] < 1.0:
            expected_loss = 0.0
        else:
            missing = (x == 1) + (x == n)
            expected_loss = missing * h[x - 1] / 2
        assert abs((h.sum() - out.sum()) - expected_loss) < 1e-12


# ---------------------------------------------------------------------------
# stabilization and Table 1
# ---------------------------------------------------------------------------

def test_stabilize_table1_leftmost():
    final, log = stabilize_chain(TABLE1, "left")
    assert np.allclose(final, [0, 0.7, 0.95, 0, 0.95, 0], atol=1e-12)
    assert log.counts.tolist() == [0, 0, 1, 1, 0, 0]
    assert log.sequence == [3, 4]


def test_stabilize_table1_rightmost():
    final, log = stabilize_chain(TABLE1, "right")
    assert np.allclose(final, [0.5, 0.5, 0.525, 0, 0.525, 0.55], atol=1e-12)
    assert log.counts.tolist() == [0, 1, 2, 3, 1, 0]


def test_stabilize_table1_parallel():
    final, log = stabilize_chain(TABLE1, "parallel")
    assert np.allclose(final, [0, 0.7, 0.6, 0.7, 0.6, 0], atol=1e-12)
    assert log.counts.tolist() == [0, 0, 1, 1, 0, 0]
    assert log.sequence == []
    assert log.rounds == [[3, 4]]


def test_log_counts_match_sequence():
    rng = np.random.default_rng(2)
    for _ in range(50):
        h = rng.uniform(0, 1.6, 8)
        final, log = stabilize_chain(h, "right")
        assert log.total == len(log.sequence)
        assert is_stable(final)


def assert_matches_oracle(h):
    # the same bits, per-site counts and toppling order as the naive oracle
    for policy, order in (("left", lambda u: u[0]), ("right", lambda u: u[-1])):
        got, log = stabilize_chain(h, policy)
        want, want_counts, want_sequence = reference_stabilize(h, order)
        assert got.view(np.int64).tolist() == np.array(want).view(np.int64).tolist()
        assert log.counts.tolist() == want_counts
        assert log.sequence == want_sequence


def test_stabilize_matches_reference_oracle():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(2, 10))
        assert_matches_oracle(rng.uniform(0, 1.8, n))


@st.composite
def oracle_inputs(draw):
    # any heights, a stable chain, or a stable chain with one loaded site
    n = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["any", "stable", "loaded"]))
    top = 2.5 if kind == "any" else 1.0
    h = draw(st.lists(st.floats(0.0, top, exclude_max=True), min_size=n, max_size=n))
    if kind == "loaded":
        h[draw(st.integers(0, n - 1))] += draw(st.floats(0.0, 3.0))
    return h


@settings(max_examples=300, deadline=None)
@given(oracle_inputs())
def test_stabilize_matches_reference_oracle_on_any_chain(h):
    assert_matches_oracle(h)


def test_single_addition_is_abelian_seeded():
    # stable start + one addition: final state and counts are policy-free
    rng = np.random.default_rng(4)
    for _ in range(300):
        n = int(rng.integers(1, 13))
        h = rng.uniform(0, 1, n)
        x = int(rng.integers(n))
        h[x] += rng.uniform(0, 1)
        fl, ll = stabilize_chain(h, "left")
        fr, lr = stabilize_chain(h, "right")
        fu, lu = stabilize_chain(h, "random", seed=rng)
        assert np.allclose(fl, fr, atol=1e-12)
        assert np.allclose(fl, fu, atol=1e-12)
        assert ll.counts.tolist() == lr.counts.tolist() == lu.counts.tolist()


def test_adjacent_unstable_is_not_abelian():
    fl, _ = stabilize_chain(TABLE1, "left")
    fr, _ = stabilize_chain(TABLE1, "right")
    fp, _ = stabilize_chain(TABLE1, "parallel")
    assert not np.allclose(fl, fr, atol=1e-6)
    assert not np.allclose(fl, fp, atol=1e-6)


def test_stabilize_accepts_stable_input():
    final, log = stabilize_chain([0.1, 0.9, 0.0], "left")
    assert np.allclose(final, [0.1, 0.9, 0.0], atol=0)
    assert log.total == 0


def test_topple_cap_raises():
    with pytest.raises(ToppleCapError):
        stabilize_chain([1.9] * 50, "left", cap=5)


def test_random_policy_needs_rng():
    with pytest.raises(ValueError):
        stabilize_chain(TABLE1, "random")


def test_policy_aliases():
    assert parse_policy("left") is TopplingPolicy.LEFTMOST
    assert parse_policy("rightmost-first") is TopplingPolicy.RIGHTMOST
    assert parse_policy("parallel") is TopplingPolicy.PARALLEL
    assert parse_policy(TopplingPolicy.RANDOM) is TopplingPolicy.RANDOM
    with pytest.raises(ValueError):
        parse_policy("sideways")


# ---------------------------------------------------------------------------
# E classes
# ---------------------------------------------------------------------------

def test_in_class_E_examples():
    assert in_class_E([0.6, 0.7, 0.0], 3)
    assert in_E_b([0.6, 0.7, 0.0])
    assert not in_class_E([0.0, 0.4, 0.9], 1)      # site 2 anomalous
    assert not in_E_b([0.9, 0.0, 0.9])             # empty site interior
    assert in_class_E([0.9, 0.0, 0.9], 2)


def test_empty_site_of_E_class():
    assert in_class_E([0.0, 0.5, 0.99], 1)
    assert in_class_E([0.5, 0.5, 0.0], 3)
    # two empty sites, none, and an anomalous full site: in no E_x
    for config in ([0.0, 0.5, 0.0], [0.5, 0.5, 0.5], [0.3, 0.0, 0.9]):
        assert not any(in_class_E(config, x) for x in (1, 2, 3))


@st.composite
def single_additions(draw):
    n = draw(st.integers(1, 40))
    h = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=n, max_size=n))
    h[draw(st.integers(0, n - 1))] += draw(st.floats(0.0, 1.0))
    return h, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(single_additions())
def test_single_addition_is_abelian(spec):
    # one addition to a stable chain: every sequential order topples each site
    # equally often and ends within criterion 03's 1e-12 of the others
    h, seed = spec
    runs = [stabilize_chain(h, policy, seed=seed)
            for policy in ("leftmost", "rightmost", "random")]
    for final, log in runs[1:]:
        assert log.counts.tolist() == runs[0][1].counts.tolist()
        assert np.abs(final - runs[0][0]).max() <= 1e-12
