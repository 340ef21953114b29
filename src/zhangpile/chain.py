"""The (N,[a,b]) discrete-time Markov process.

Each step adds a uniform [a,b] amount to a uniformly chosen site of a stable
chain and relaxes the result.  Because every step starts from a stable
configuration plus one addition, topplings are abelian and the relaxation
order does not matter; leftmost-first is used internally.  ``drive`` runs
its steps on the compiled chain kernel when it loads (see ``core``) and on
the Python loop otherwise; both give bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOPPLE_CAP,
    InvariantViolation,
    TopplingLog,
    _relax_leftmost,
    cap_error,
    chain_kernel,
    check_window,
    kernel_drive,
    stable_heights,
)
from .seeding import AdditionStream

_CHUNK = 4096
_STATS_BLOCK = 2048     # configurations per statistics block


@dataclass(frozen=True)
class AdditionEvent:
    t: int
    site: int       # 1-based
    amount: float


class ChainProcess:
    """Mutable state of one (N,[a,b]) run.

    The state space is the stable configurations [0,1)^N; the process is
    undefined for a >= b (the degenerate fixed-amount model is out of scope).
    """

    def __init__(self, n: int, a: float, b: float, heights=None,
                 seed: int | None = None, rng: np.random.Generator | None = None,
                 cap: int = DEFAULT_TOPPLE_CAP):
        if n < 1:
            raise ValueError("n must be >= 1")
        check_window(a, b)
        self.n = n
        self.a = a
        self.b = b
        self.cap = cap
        self.heights = [0.0] * n if heights is None else stable_heights(heights, n)
        self.t = 0
        if rng is None:
            rng = np.random.default_rng(seed)
        self._additions = AdditionStream(rng, n, a, b, _CHUNK)
        # With a >= 1/2 an addition to a full site must topple; checked per step.
        self._check_heavy = a >= 0.5

    @property
    def config(self) -> np.ndarray:
        return np.array(self.heights)

    def step_fast(self) -> tuple[int, float, int]:
        """One step without building a log; returns (site0, amount, topplings)."""
        x, u = self._additions.draw()
        return x, u, self._add(x, u)

    def _add(self, i: int, u: float, counts: np.ndarray | None = None,
             sequence: list | None = None) -> int:
        # add u at 0-based site i, relax, and count the step; the one body
        # behind step_fast and _apply
        h = self.heights
        was_full = h[i] >= 0.5
        h[i] += u
        ntop = _relax_leftmost(h, i, self.cap, counts, sequence) if h[i] >= 1.0 else 0
        self.t += 1
        if self._check_heavy and was_full and ntop == 0:
            raise self._heavy_violation()
        return ntop

    def _heavy_violation(self) -> InvariantViolation:
        return InvariantViolation(
            f"a={self.a} >= 1/2: addition to a full site must topple (t={self.t})")

    def step(self) -> tuple[AdditionEvent, TopplingLog]:
        """One step with a full toppling log."""
        x, u = self._additions.draw()
        return self._apply(x + 1, u)

    def apply_addition(self, site: int, amount: float) -> tuple[AdditionEvent, TopplingLog]:
        """Apply a forced addition (1-based site); bypasses the RNG."""
        if not 1 <= site <= self.n:
            raise ValueError(f"site {site} out of range 1..{self.n}")
        return self._apply(site, float(amount))

    def _apply(self, site: int, amount: float) -> tuple[AdditionEvent, TopplingLog]:
        log = TopplingLog(counts=np.zeros(self.n, dtype=np.int64))
        self._add(site - 1, amount, log.counts, log.sequence)
        return AdditionEvent(t=self.t, site=site, amount=amount), log


def scripted_run(proc: ChainProcess, script) -> tuple[list[np.ndarray], list[TopplingLog]]:
    """Replay a fixed list of (site, amount) additions.

    Amounts must lie in [a,b].  Returns the trajectory of stable
    configurations, starting with the initial one, plus the logs.
    """
    configs = [proc.config]
    logs: list[TopplingLog] = []
    for site, amount in script:
        if not proc.a <= amount <= proc.b:
            raise ValueError(f"scripted amount {amount} outside [{proc.a}, {proc.b}]")
        _, log = proc.apply_addition(site, amount)
        configs.append(proc.config)
        logs.append(log)
    return configs, logs


class MarginalStats:
    """Per-site running mean, second moment and histogram over [0,1)."""

    def __init__(self, n_sites: int, bins: int = 256):
        if n_sites < 1 or bins < 1:
            raise ValueError("n_sites and bins must be positive")
        self.n_sites = n_sites
        self.bins = bins
        self.count = 0
        self._sum = np.zeros(n_sites)
        self._sumsq = np.zeros(n_sites)
        self.hist = np.zeros((n_sites, bins), dtype=np.int64)
        self._offsets = np.arange(n_sites, dtype=np.int64) * bins

    def add_batch(self, block: np.ndarray) -> None:
        """Accumulate a (samples, n_sites) block of stable configurations."""
        block = np.asarray(block, dtype=float)
        if block.ndim != 2 or block.shape[1] != self.n_sites:
            raise ValueError("block must have shape (samples, n_sites)")
        # clipped in float, as the kernel bins: a product past 2^63 would
        # cast to INT64_MIN, and NaN goes to bin 0
        v = block * self.bins
        idx = np.where(v >= 0, np.minimum(v, self.bins - 1), 0).astype(np.int64)
        flat = (idx + self._offsets).ravel()
        counts = np.bincount(flat, minlength=self.n_sites * self.bins) \
                   .reshape(self.n_sites, self.bins)
        self._fold(block.shape[0], block.sum(axis=0), (block * block).sum(axis=0), counts)

    def _fold(self, count: int, sums: np.ndarray, sumsq: np.ndarray,
              counts: np.ndarray) -> None:
        # a block of ``count`` configurations, given by its per-site sums,
        # sums of squares and (n_sites, bins) histogram
        self.count += count
        self._sum += sums
        self._sumsq += sumsq
        self.hist += counts

    def add(self, heights) -> None:
        self.add_batch(np.asarray(heights, dtype=float)[None, :])

    @property
    def mean(self) -> np.ndarray:
        if self.count == 0:
            return np.full(self.n_sites, np.nan)
        return self._sum / self.count

    @property
    def second_moment(self) -> np.ndarray:
        if self.count == 0:
            return np.full(self.n_sites, np.nan)
        return self._sumsq / self.count

    @property
    def var(self) -> np.ndarray:
        return self.second_moment - self.mean ** 2


def drive(proc: ChainProcess, steps: int, stats: MarginalStats | None = None,
          event_sink=None) -> None:
    """Advance ``steps`` steps, optionally accumulating statistics and/or
    passing one JSON-ready event record per step to ``event_sink``."""
    lib = chain_kernel()
    if lib is None:
        _drive_python(proc, steps, stats, event_sink)
    else:
        _drive_compiled(lib, proc, steps, stats, event_sink)


def _drive_python(proc: ChainProcess, steps: int, stats: MarginalStats | None,
                  event_sink) -> None:
    # the reference loop: the fallback, and the oracle of the kernel's tests
    buf: list[list[float]] = []
    for _ in range(steps):
        x, u, ntop = proc.step_fast()
        if event_sink is not None:
            event_sink({"t": proc.t, "site": x + 1, "amount": u,
                        "avalanche_size": ntop})
        if stats is not None:
            buf.append(proc.heights.copy())
            if len(buf) >= _STATS_BLOCK:
                stats.add_batch(np.array(buf))
                buf.clear()
    if stats is not None and buf:
        stats.add_batch(np.array(buf))


def _drive_compiled(lib, proc: ChainProcess, steps: int, stats: MarginalStats | None,
                    event_sink) -> None:
    # Kernel calls end at stream chunks and at stats blocks, so the stream,
    # the statistics blocks and the event records are those of the Python loop.
    add = proc._additions
    h = np.array(proc.heights)
    rows = sums = sumsq = counts = None
    if stats is not None:
        # with two or more sites the kernel bins each block and sums it as
        # numpy would; numpy sums a one-site block pairwise, so there the
        # block's rows go to add_batch, which bins them
        if proc.n == 1:
            rows = np.empty((_STATS_BLOCK, 1))
        else:
            counts = np.zeros((proc.n, stats.bins), dtype=np.int64)
            sums, sumsq = np.zeros(proc.n), np.zeros(proc.n)
    tops = None if event_sink is None else np.empty(_STATS_BLOCK, dtype=np.int64)
    filled = 0
    try:
        while steps > 0:
            if add.pos >= add.site_array.size:
                add.refill()
            p = add.pos
            k = min(steps, add.site_array.size - p, _STATS_BLOCK - filled)
            done, status = kernel_drive(
                lib, h, add.site_array[p:p + k], add.amt_array[p:p + k], proc.cap,
                proc._check_heavy, None if rows is None else rows[filled:filled + k],
                None if tops is None else tops[:k], counts, sums, sumsq)
            if event_sink is not None:
                for i, (x, u, ntop) in enumerate(zip(add.site_array[p:p + done].tolist(),
                                                     add.amt_array[p:p + done].tolist(),
                                                     tops[:done].tolist())):
                    event_sink({"t": proc.t + i + 1, "site": x + 1, "amount": u,
                                "avalanche_size": ntop})
            proc.t += done
            add.pos = p + done
            steps -= done
            filled += done
            if status:
                # the failing step drew its addition; a heavy violation counts it
                add.pos += 1
                if status == 1:
                    raise cap_error(proc.cap)
                proc.t += 1
                raise proc._heavy_violation()
            if filled == _STATS_BLOCK:
                if stats is not None:
                    _flush_block(stats, filled, rows, sums, sumsq, counts)
                filled = 0
        if stats is not None and filled:
            _flush_block(stats, filled, rows, sums, sumsq, counts)
    finally:
        proc.heights[:] = h.tolist()


def _flush_block(stats: MarginalStats, filled: int, rows, sums, sumsq, counts) -> None:
    # fold the kernel's outputs for one block of ``filled`` steps into stats
    # and clear them for the next block
    if rows is not None:
        stats.add_batch(rows[:filled])
    else:
        stats._fold(filled, sums, sumsq, counts)
        sums.fill(0.0)
        sumsq.fill(0.0)
        counts.fill(0)


def run_stationary(proc: ChainProcess, burn_in: int, samples: int,
                   bins: int = 256, event_sink=None) -> MarginalStats:
    """Advance ``burn_in`` steps, then record the configuration for ``samples``
    steps; ``event_sink``, if given, takes the event record of every step of
    both phases, as in ``drive``."""
    if burn_in < 0 or samples < 0:
        raise ValueError("burn_in and samples must be >= 0")
    stats = MarginalStats(proc.n, bins=bins)     # checks bins before the burn-in
    drive(proc, burn_in, event_sink=event_sink)
    drive(proc, samples, stats=stats, event_sink=event_sink)
    return stats


def empirical_tv_distance(stats1: MarginalStats, stats2: MarginalStats, site: int) -> float:
    """Half L1 distance between the per-site empirical height histograms.

    ``site`` is 1-based.  Both statistics must use the same binning and hold
    at least one sample each.
    """
    if stats1.bins != stats2.bins or stats1.n_sites != stats2.n_sites:
        raise ValueError("histogram binning mismatch")
    if not 1 <= site <= stats1.n_sites:
        raise ValueError(f"site {site} out of range 1..{stats1.n_sites}")
    if stats1.count == 0 or stats2.count == 0:
        raise ValueError("empirical TV distance needs at least one sample on each side")
    p = stats1.hist[site - 1] / stats1.count
    q = stats2.hist[site - 1] / stats2.count
    return 0.5 * float(np.abs(p - q).sum())
