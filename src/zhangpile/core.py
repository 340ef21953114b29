"""Zhang sandpile primitives on a finite chain.

Heights are nonnegative reals.  A site with height >= 1 is unstable; toppling
it resets the site to zero and sends half of its height to each existing
neighbour.  At a chain boundary the missing neighbour's share leaves the
system.  Stabilization repeats topplings, in an order fixed by a policy,
until every height is below 1.  The model is not abelian in general (two
adjacent unstable sites make the outcome order-dependent), but it is abelian
when starting from a stable configuration plus a single addition.

Sites are numbered 1..N to match the usual convention for this model.
"""

from __future__ import annotations

import enum
from bisect import insort
from dataclasses import dataclass, field

import numpy as np

DEFAULT_TOPPLE_CAP = 10_000_000


class ToppleCapError(RuntimeError):
    """Raised when a stabilization exceeds the toppling cap.

    Finite chains always stabilize after finitely many topplings, so hitting
    the cap signals an implementation bug, not a physical outcome.
    """


class InvariantViolation(RuntimeError):
    """An internal consistency check failed; this signals a bug."""


class SiteLabel(enum.Enum):
    EMPTY = "empty"
    ANOMALOUS = "anomalous"
    FULL = "full"
    UNSTABLE = "unstable"


class TopplingPolicy(str, enum.Enum):
    LEFTMOST = "leftmost-first"
    RIGHTMOST = "rightmost-first"
    PARALLEL = "parallel-rounds"
    RANDOM = "uniform-random"


_POLICY_ALIASES = {
    "left": TopplingPolicy.LEFTMOST,
    "leftmost": TopplingPolicy.LEFTMOST,
    "leftmost-first": TopplingPolicy.LEFTMOST,
    "right": TopplingPolicy.RIGHTMOST,
    "rightmost": TopplingPolicy.RIGHTMOST,
    "rightmost-first": TopplingPolicy.RIGHTMOST,
    "parallel": TopplingPolicy.PARALLEL,
    "parallel-rounds": TopplingPolicy.PARALLEL,
    "random": TopplingPolicy.RANDOM,
    "uniform-random": TopplingPolicy.RANDOM,
}


def parse_policy(name: str | TopplingPolicy) -> TopplingPolicy:
    if isinstance(name, TopplingPolicy):
        return name
    try:
        return _POLICY_ALIASES[str(name).lower()]
    except KeyError:
        raise ValueError(f"unknown toppling policy: {name!r}") from None


@dataclass
class TopplingLog:
    """Record of one stabilization.

    ``counts`` holds per-site toppling numbers.  Sequential policies fill
    ``sequence`` with the 1-based site order; parallel rounds leave it empty
    and record round membership in ``rounds`` instead.
    """

    counts: np.ndarray
    sequence: list[int] = field(default_factory=list)
    rounds: list[list[int]] = field(default_factory=list)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def classify_site(h: float) -> SiteLabel:
    """Label a height: empty (0), anomalous (0,1/2), full [1/2,1), unstable [1,inf)."""
    if h < 0:
        raise ValueError(f"height must be nonnegative, got {h}")
    if h == 0.0:
        return SiteLabel.EMPTY
    if h < 0.5:
        return SiteLabel.ANOMALOUS
    if h < 1.0:
        return SiteLabel.FULL
    return SiteLabel.UNSTABLE


def check_heights(arr: np.ndarray) -> None:
    """Raise ValueError unless every height is finite and nonnegative."""
    if not np.isfinite(arr).all():
        raise ValueError("heights must be finite")
    if (arr < 0).any():
        raise ValueError("heights must be nonnegative")


def _as_heights(config) -> np.ndarray:
    arr = np.array(config, dtype=float, copy=True).ravel()
    if arr.size < 1:
        raise ValueError("configuration needs at least one site")
    check_heights(arr)
    return arr


def is_stable(config) -> bool:
    """True iff every height is below 1."""
    return bool((np.asarray(config, dtype=float) < 1.0).all())


def topple_chain(config, x: int) -> np.ndarray:
    """Apply the toppling operator at 1-based site ``x``; returns a new array.

    Stable sites are left untouched (the operator is the identity there).
    An unstable site resets to 0 and each existing neighbour gains half its
    height; at the boundary the missing share dissipates.
    """
    h = _as_heights(config)
    n = h.size
    if not 1 <= x <= n:
        raise ValueError(f"site index {x} out of range 1..{n}")
    i = x - 1
    if h[i] < 1.0:
        return h
    half = h[i] * 0.5
    h[i] = 0.0
    if i > 0:
        h[i - 1] += half
    if i < n - 1:
        h[i + 1] += half
    return h


def _relax_leftmost(h: list, start: int, cap: int = DEFAULT_TOPPLE_CAP) -> int:
    """In-place leftmost-first relaxation after a single site was loaded.

    ``h`` is a plain list of floats (hot path for the Markov process and the
    coupling engine).  Returns the number of topplings.
    """
    if h[start] < 1.0:
        return 0
    n = len(h)
    active = [start]
    total = 0
    while active:
        x = active[0]
        del active[0]
        hx = h[x]
        h[x] = 0.0
        total += 1
        if total > cap:
            raise ToppleCapError(f"exceeded {cap} topplings; finite chains must stabilize")
        half = hx * 0.5
        if x > 0:
            v = h[x - 1] + half
            h[x - 1] = v
            if v >= 1.0 and x - 1 not in active:
                insort(active, x - 1)
        if x < n - 1:
            v = h[x + 1] + half
            h[x + 1] = v
            if v >= 1.0 and x + 1 not in active:
                insort(active, x + 1)
    return total


def _relax_sequential(h: list, policy: TopplingPolicy, rng, cap: int,
                      counts: np.ndarray, sequence: list) -> int:
    # Sites already queued stay unstable until they topple (neighbour updates
    # only add mass), so the queue never holds stale entries.
    active = sorted(i for i, v in enumerate(h) if v >= 1.0)
    n = len(h)
    total = 0
    while active:
        if policy is TopplingPolicy.LEFTMOST:
            x = active.pop(0)
        elif policy is TopplingPolicy.RIGHTMOST:
            x = active.pop()
        else:  # uniform-random
            x = active.pop(int(rng.integers(len(active))))
        hx = h[x]
        h[x] = 0.0
        total += 1
        if total > cap:
            raise ToppleCapError(f"exceeded {cap} topplings; finite chains must stabilize")
        counts[x] += 1
        sequence.append(x + 1)
        half = hx * 0.5
        if x > 0:
            v = h[x - 1] + half
            h[x - 1] = v
            if v >= 1.0 and x - 1 not in active:
                insort(active, x - 1)
        if x < n - 1:
            v = h[x + 1] + half
            h[x + 1] = v
            if v >= 1.0 and x + 1 not in active:
                insort(active, x + 1)
    return total


def _relax_parallel(h: list, cap: int, counts: np.ndarray, rounds: list) -> int:
    # All sites unstable at round start topple together using round-start
    # heights; sites that only become unstable mid-round wait for the next one.
    n = len(h)
    total = 0
    while True:
        round_sites = [i for i in range(n) if h[i] >= 1.0]
        if not round_sites:
            return total
        total += len(round_sites)
        if total > cap:
            raise ToppleCapError(f"exceeded {cap} topplings; finite chains must stabilize")
        shares = [h[i] * 0.5 for i in round_sites]
        for i in round_sites:
            h[i] = 0.0
            counts[i] += 1
        for i, s in zip(round_sites, shares):
            if i > 0:
                h[i - 1] += s
            if i < n - 1:
                h[i + 1] += s
        rounds.append([i + 1 for i in round_sites])


def stabilize_chain(config, policy: str | TopplingPolicy = TopplingPolicy.LEFTMOST,
                    rng: np.random.Generator | None = None,
                    cap: int = DEFAULT_TOPPLE_CAP) -> tuple[np.ndarray, TopplingLog]:
    """Topple until stable; returns (stable config, log).

    ``policy`` picks the order among unstable sites.  The uniform-random
    policy needs ``rng``.  ``cap`` bounds the total number of topplings.
    """
    pol = parse_policy(policy)
    if pol is TopplingPolicy.RANDOM and rng is None:
        raise ValueError("uniform-random policy requires an rng")
    arr = _as_heights(config)
    h = arr.tolist()
    counts = np.zeros(len(h), dtype=np.int64)
    log = TopplingLog(counts=counts)
    if pol is TopplingPolicy.PARALLEL:
        _relax_parallel(h, cap, counts, log.rounds)
    else:
        _relax_sequential(h, pol, rng, cap, counts, log.sequence)
    return np.array(h), log


def in_class_E(config, x: int) -> bool:
    """True iff the config is empty at 1-based site ``x`` and full everywhere else."""
    h = np.asarray(config, dtype=float)
    n = h.size
    if not 1 <= x <= n:
        raise ValueError(f"site index {x} out of range 1..{n}")
    i = x - 1
    if h[i] != 0.0:
        return False
    others = np.delete(h, i)
    return bool(((others >= 0.5) & (others < 1.0)).all())


def empty_site_of_E_class(config) -> int | None:
    """The 1-based site x with config in E_x, or None if not in any E_x."""
    h = np.asarray(config, dtype=float)
    empty = None
    for i, v in enumerate(h):
        if v == 0.0:
            if empty is not None:
                return None
            empty = i
        elif not 0.5 <= v < 1.0:
            return None
    return None if empty is None else empty + 1


def in_E_b(config) -> bool:
    """True iff the config is empty at exactly one boundary site and full elsewhere."""
    n = np.asarray(config, dtype=float).size
    x = empty_site_of_E_class(config)
    return x is not None and (x == 1 or x == n)
