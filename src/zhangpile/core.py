"""Zhang sandpile primitives on a finite chain.

Heights are nonnegative reals.  A site with height >= 1 is unstable; toppling
it resets the site to zero and sends half of its height to each existing
neighbour.  At a chain boundary the missing neighbour's share leaves the
system.  Stabilization repeats topplings, in an order fixed by a policy,
until every height is below 1.  The model is not abelian in general (two
adjacent unstable sites make the outcome order-dependent), but it is abelian
when starting from a stable configuration plus a single addition.

Sites are numbered 1..N to match the usual convention for this model.
One routine, ``_relax_leftmost``, relaxes leftmost-first for every caller:
``stabilize_chain``, the chain process, the coupling engine and the
contraction check.  It runs the step-back scan of ``relax`` in the compiled
kernel (``_drive.c``), which ``chain_kernel`` builds and loads, so the two
backends topple in the same order with the same float operations.
Rightmost-first relaxation is leftmost-first on the mirrored chain.  The same
library holds the coupling, its merged pair included, and the lattice clock
of ``lattice.MarkovToppling``.
"""

from __future__ import annotations

import ctypes
import enum
import hashlib
import os
from bisect import insort
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DEFAULT_TOPPLE_CAP = 10_000_000
# the largest int64: the kernels take their step, event and toppling limits as
# int64, where a larger Python int would wrap, so limits are clamped to it
_NO_LIMIT = 2**63 - 1


class ToppleCapError(RuntimeError):
    """Raised when a stabilization exceeds the toppling cap.

    Finite chains always stabilize after finitely many topplings, so hitting
    the cap signals an implementation bug, not a physical outcome.
    """


class InvariantViolation(RuntimeError):
    """An internal consistency check failed; this signals a bug."""


def cap_error(cap: int) -> ToppleCapError:
    return ToppleCapError(f"exceeded {cap} topplings; finite chains must stabilize")


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


def check_window(a: float, b: float) -> None:
    """Raise ValueError unless 0 <= a < b <= 1, the addition window of an
    (N,[a,b]) chain."""
    if not (0.0 <= a < b <= 1.0):
        raise ValueError(f"need 0 <= a < b <= 1, got a={a}, b={b}")


def check_heights(arr: np.ndarray) -> None:
    """Raise ValueError unless every height is finite and nonnegative, and so
    is their total, which bounds every height a toppling can make."""
    if not np.isfinite(arr).all():
        raise ValueError("heights must be finite")
    if (arr < 0).any():
        raise ValueError("heights must be nonnegative")
    with np.errstate(over="ignore"):
        total = arr.sum()
    if not np.isfinite(total):
        raise ValueError("the total of the heights must be finite")


def _as_heights(config) -> np.ndarray:
    arr = np.array(config, dtype=float, copy=True).ravel()
    if arr.size < 1:
        raise ValueError("configuration needs at least one site")
    check_heights(arr)
    return arr


def is_stable(config) -> bool:
    """True iff every height is below 1."""
    return bool((np.asarray(config, dtype=float) < 1.0).all())


def stable_heights(config, n: int | None = None) -> list[float]:
    """``config`` as a list of floats, once it is checked to be a stable chain:
    ``n`` heights (if ``n`` is given), each finite, nonnegative and below 1."""
    arr = _as_heights(config)
    if n is not None and arr.size != n:
        raise ValueError(f"heights length {arr.size} != n={n}")
    if not is_stable(arr):
        raise ValueError("initial configuration must be stable (all heights < 1)")
    return arr.tolist()


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


def _relax_leftmost(h: list, start: int, cap: int = DEFAULT_TOPPLE_CAP,
                    counts: np.ndarray | None = None, sequence: list | None = None) -> int:
    """In-place leftmost-first relaxation of the plain float list ``h``, by the
    step-back scan of ``relax`` in ``_drive.c``.

    The scan topples the site under the cursor if its height is at least 1,
    steps back to x-1 if that site became unstable, and otherwise moves right,
    up to the chain end.  Every site left of the cursor stays stable, so each
    toppling is at the leftmost unstable site.  Started at site 0 it
    stabilizes any configuration; after a single addition to a stable chain
    it starts at the loaded site.  ``counts`` and ``sequence``, if given,
    receive the per-site topplings and the 1-based toppling order.  Returns
    the number of topplings.
    """
    n = len(h)
    x = start
    total = 0
    while x < n:
        hx = h[x]
        if hx < 1.0:
            x += 1
            continue
        h[x] = 0.0
        total += 1
        if total > cap:
            raise cap_error(cap)
        if counts is not None:
            counts[x] += 1
        if sequence is not None:
            sequence.append(x + 1)
        half = hx * 0.5
        if x < n - 1:
            h[x + 1] += half
        if x > 0:
            v = h[x - 1] + half
            h[x - 1] = v
            if v >= 1.0:
                x -= 1
                continue
        x += 1
    return total


# ---------------------------------------------------------------------------
# compiled kernel
# ---------------------------------------------------------------------------
# _drive.c does the float operations of _relax_leftmost (the same step-back
# scan), of the coupling in all four phases and of the lattice clock in the
# same order, so both backends give bit-identical results.  It is compiled
# with gcc on first use and cached next to the bytecode; wherever the build
# or the load fails, the callers run their Python loops instead.

_KERNEL_SOURCE = Path(__file__).with_name("_drive.c")
# after the source file, so that the linker keeps libm, which the merging
# phase calls, among the library's dependencies
_KERNEL_FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC", "-lm")
_kernel: list = []      # the one load result of this process (CDLL or None), once tried


def _build_kernel(cache: Path, cc: str = "gcc") -> ctypes.CDLL | None:
    """Compile the kernel into ``cache`` (once per source and flags) and load it.

    Returns None if the compiler is missing, the build fails or ``cache`` is
    not writable.  Once the load succeeds, the other ``_drive-*.so`` files in
    ``cache``, builds of an older source or other flags, are deleted; the
    ``.tmp`` files of builds in flight are left alone.
    """
    try:
        tag = hashlib.sha256(_KERNEL_SOURCE.read_bytes()
                             + " ".join(_KERNEL_FLAGS).encode()).hexdigest()[:16]
        path = cache / f"_drive-{tag}.so"
        if not path.exists():
            # imported here: a process that finds the library built never needs them
            import subprocess
            import tempfile

            cache.mkdir(parents=True, exist_ok=True)
            # build into a private file and move it into place whole, so that
            # concurrent processes never load a partial library
            fd, tmp = tempfile.mkstemp(prefix="_drive-", suffix=".tmp", dir=cache)
            os.close(fd)
            try:
                subprocess.run([cc, "-o", tmp, str(_KERNEL_SOURCE), *_KERNEL_FLAGS],
                               check=True, capture_output=True)
                os.replace(tmp, path)
            except subprocess.CalledProcessError:
                return None
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        lib = ctypes.CDLL(str(path))
    except OSError:
        return None
    for old in cache.glob("_drive-*.so"):
        if old != path:
            try:
                old.unlink()
            except OSError:
                pass
    ptr = ctypes.c_void_p
    i64 = ctypes.c_int64
    lib.zp_drive.argtypes = [ptr, i64, ptr, ptr, i64, i64, ctypes.c_int32, ptr, ptr, ptr,
                             i64, ptr, ptr, ctypes.POINTER(ctypes.c_int32)]
    lib.zp_drive.restype = i64
    lib.zp_lattice.argtypes = [ptr, i64, i64, ptr, ptr, ptr, ptr, ptr, ptr, ptr, ptr, ptr,
                               ptr, i64, ctypes.POINTER(LatticeClock), ptr, i64]
    lib.zp_lattice.restype = ctypes.c_int32
    lib.zp_couple.argtypes = [ptr, ptr, i64, i64, ptr, ptr, i64, ptr, ptr, i64, ptr, ptr, i64,
                              ptr, ptr, ctypes.POINTER(CouplingState)]
    lib.zp_couple.restype = ctypes.c_int32
    return lib


class LatticeClock(ctypes.Structure):
    """The scalars of a ``lattice.MarkovToppling`` for its whole life, which
    ``zp_lattice`` and the Python loop both update (``zp_clock`` in _drive.c): ``t``,
    ``events``, the unstable count ``k``, the draw position ``pos`` and the snapshot
    row count ``n_rows``; the other fields are set before each run."""

    _fields_ = ([(f, ctypes.c_double) for f in ("t", "t_max", "next_snap",
                                                 "snapshot_every")]
                + [(f, ctypes.c_int64) for f in ("k", "events", "events_stop", "pos",
                                                  "n_rows", "min_m", "n_min", "max_m")])


class CouplingState(ctypes.Structure):
    """The state of a ``coupling.Coupling`` pair, which ``zp_couple`` and the
    Python reference both update (``zp_pair`` in _drive.c)."""

    _fields_ = ([(f, ctypes.c_double) for f in ("half", "eps1", "tol", "a", "b", "Dk",
                                                 "between_hi", "av_lo", "av_hi", "thresh")]
                + [(f, ctypes.c_int64) for f in ("t", "t_stop", "phase", "flip", "k_aval",
                                                  "target", "ebA", "ebB", "posA", "posB",
                                                  "posC", "mk", "merging_steps", "differed")]
                + [("steps", ctypes.c_int64 * 4), ("causes", ctypes.c_int64 * 5)])


def chain_kernel() -> ctypes.CDLL | None:
    """The compiled kernel (chain, coupling and lattice entry points), built on
    the first call; None if unavailable."""
    if not _kernel:
        _kernel.append(_build_kernel(_KERNEL_SOURCE.parent / "__pycache__"))
    return _kernel[0]


def kernel_buffer_ok(arr, dtype, size: int, out: bool = False) -> bool:
    """Whether the kernel can take ``arr``: a C-contiguous ``dtype`` array of
    ``size`` values, writable if the kernel writes it."""
    return (isinstance(arr, np.ndarray) and arr.dtype == dtype and arr.size == size
            and arr.flags.c_contiguous and (arr.flags.writeable or not out))


def _c_array(arr, dtype, size: int, name: str, out: bool = False) -> int:
    """Address of ``arr`` once ``kernel_buffer_ok`` holds for it."""
    if not kernel_buffer_ok(arr, dtype, size, out):
        raise ValueError(f"kernel argument {name}: need a C-contiguous "
                         f"{np.dtype(dtype)} array of {size} values")
    return arr.ctypes.data


def kernel_drive(lib, h: np.ndarray, sites: np.ndarray, amts: np.ndarray, cap: int,
                 check_heavy: bool, rows: np.ndarray | None = None,
                 tops: np.ndarray | None = None, counts: np.ndarray | None = None,
                 sums: np.ndarray | None = None,
                 sumsq: np.ndarray | None = None) -> tuple[int, int]:
    """Add ``amts[i]`` at 0-based site ``sites[i]`` of the stable heights ``h``
    and relax, step after step, in place.

    ``rows`` (steps x n) and ``tops`` (steps), if given, receive each
    completed step's heights and topplings.  ``counts`` (n x bins), if
    given, gains each completed step's heights binned as
    ``MarginalStats.add_batch`` bins them.  ``sums`` and ``sumsq`` (n each,
    both or neither) gain each completed step's heights and their squares,
    added in step order: with two or more sites, the order in which numpy
    sums a block of rows over its first axis, so the same bits.  Returns
    (steps completed, status).  Status 1: the next step exceeded ``cap``
    topplings.  Status 2 (only with ``check_heavy``): the next step added to
    a full site, which then did not topple; that step's addition stays in
    ``h``.
    """
    n = np.size(h)
    ph = _c_array(h, np.float64, n, "h", out=True)
    steps = np.size(sites)
    ps = _c_array(sites, np.int64, steps, "sites")
    pa = _c_array(amts, np.float64, steps, "amts")
    if steps and not (sites.min() >= 0 and sites.max() < n):
        raise ValueError(f"kernel argument sites: need values in 0..{n - 1}")
    pr = None if rows is None else _c_array(rows, np.float64, steps * n, "rows", out=True)
    pt = None if tops is None else _c_array(tops, np.int64, steps, "tops", out=True)
    pc, bins = None, 0
    if counts is not None:
        if np.ndim(counts) != 2 or np.shape(counts)[0] != n or not np.size(counts):
            raise ValueError(f"kernel argument counts: need shape ({n}, bins >= 1)")
        bins = np.shape(counts)[1]
        pc = _c_array(counts, np.int64, n * bins, "counts", out=True)
    if (sums is None) != (sumsq is None):
        raise ValueError("kernel argument sums: need sums and sumsq, or neither")
    pm = None if sums is None else _c_array(sums, np.float64, n, "sums", out=True)
    pq = None if sumsq is None else _c_array(sumsq, np.float64, n, "sumsq", out=True)
    status = ctypes.c_int32()
    done = lib.zp_drive(ph, n, ps, pa, steps, min(cap, _NO_LIMIT), int(check_heavy), pr, pt,
                        pc, bins, pm, pq, ctypes.byref(status))
    return done, status.value


def _relax_random(h: list, rng, cap: int, counts: np.ndarray, sequence: list) -> None:
    # The rng draw indexes the sorted list of unstable sites.  Sites already
    # queued stay unstable until they topple (neighbour updates only add
    # mass), so the list never holds stale entries.
    active = [i for i, v in enumerate(h) if v >= 1.0]
    n = len(h)
    total = 0
    while active:
        x = active.pop(int(rng.integers(len(active))))
        hx = h[x]
        h[x] = 0.0
        total += 1
        if total > cap:
            raise cap_error(cap)
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
            raise cap_error(cap)
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
    elif pol is TopplingPolicy.RANDOM:
        _relax_random(h, rng, cap, counts, log.sequence)
    elif pol is TopplingPolicy.LEFTMOST:
        _relax_leftmost(h, 0, cap, counts, log.sequence)
    else:
        # rightmost-first is leftmost-first on the mirrored chain
        h.reverse()
        _relax_leftmost(h, 0, cap, counts, log.sequence)
        h.reverse()
        n = len(h)
        log.counts = counts[::-1].copy()
        log.sequence = [n + 1 - s for s in log.sequence]
    return np.array(h), log


def _e_class_0(h: list) -> int:
    """0-based empty site if the list is in some E_x, else -1."""
    empty = -1
    for i, v in enumerate(h):
        if v == 0.0:
            if empty >= 0:
                return -1
            empty = i
        elif not 0.5 <= v < 1.0:
            return -1
    return empty


def _eb_side(h: list) -> int:
    """0-based empty boundary site if the list is in E_b, else -1."""
    e = _e_class_0(h)
    return e if e == 0 or e == len(h) - 1 else -1


def in_class_E(config, x: int) -> bool:
    """True iff the config is empty at 1-based site ``x`` and full everywhere else."""
    h = np.asarray(config, dtype=float).tolist()
    if not 1 <= x <= len(h):
        raise ValueError(f"site index {x} out of range 1..{len(h)}")
    return _e_class_0(h) == x - 1


def in_E_b(config) -> bool:
    """True iff the config is empty at exactly one boundary site and full elsewhere."""
    return _eb_side(np.asarray(config, dtype=float).tolist()) >= 0
