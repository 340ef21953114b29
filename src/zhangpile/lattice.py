"""Finite d-dimensional proxies for the infinite-volume Zhang model.

A configuration lives on a torus (mass-conserving, closest to the
infinite-volume conservation identities) or on a dissipative box (open
boundary, mass leaks when edge sites topple).  Toppling sends 1/(2d) of the
site's height to each existing neighbour.

Dynamics: every site carries an independent rate-1 Poisson clock; at a ring
the site topples if unstable, else nothing happens.  A ring at a stable site
changes nothing, so by Poisson thinning the engine draws only the effective
events (the n-fold way of Bortz, Kalos and Lebowitz, J. Comput. Phys. 17,
1975; Gillespie's direct method, 1977): with U the current unstable set, the
next toppling comes after an Exp(|U|) wait at a uniformly chosen site of U.
U is kept exactly as an indexable array with swap-remove, so stabilization is
detected without scanning.  ``events`` and ``max_events`` count topplings.
A finite run can only collect evidence about stabilizability:
``active-at-cutoff`` is evidence, never proof.

The clock loop runs in the compiled kernel (``zp_lattice`` in ``_drive.c``)
whenever ``core.chain_kernel`` loads it, snapshots included, and otherwise in
Python.  The Python loop is the reference: the kernel does its float
operations in the same order, visits neighbours in the same order and reads
the same prefetched draws, so both backends give bit-identical runs.

Per-site toppling counts M and emitted mass L feed the exact bookkeeping
identity  eta(t) = eta(0) - L + (1/2d) * sum of neighbour L,  checked both
directly and through the toppling matrix (diagonal -1, neighbours 1/(2d)).
The check applies that matrix from a numpy table, summing each row in the
order of scipy's CSR product, without importing scipy.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import InitVar, dataclass
from functools import lru_cache
from multiprocessing import Pool

import numpy as np

from .core import (
    LatticeClock,
    chain_kernel,
    check_heights,
    kernel_buffer_ok,
)

TORUS = "torus"
BOX = "dissipative-box"

_BOUNDARY_ALIASES = {"torus": TORUS, "box": BOX, "dissipative-box": BOX,
                     "dissipative": BOX}

_CHUNK = 8192           # exponential waits and uniform picks drawn per refill
_SNAP_ROWS = 64         # snapshot rows of an engine's first row array
_NO_LIMIT = 2**63 - 1   # event budget of a run without max_events
_MAX_SITES = 2**31 - 1  # the neighbour table holds int32 site ids

# zp_lattice return statuses (enum in _drive.c)
_EVENTS, _T_MAX, _STABLE, _REFILL, _ROWS_FULL = range(5)


def parse_boundary(name: str) -> str:
    try:
        return _BOUNDARY_ALIASES[str(name).lower()]
    except KeyError:
        raise ValueError(f"unknown boundary mode: {name!r}") from None


def _check_size(sides) -> None:
    """Raise ValueError for a lattice of more than ``_MAX_SITES`` sites, which
    the int32 neighbour table cannot index; it needs only the sides, so it
    runs before any array of the lattice is allocated."""
    n = math.prod(sides)
    if n > _MAX_SITES:
        raise ValueError(f"a lattice of {n} sites is too large: at most 2^31 - 1")


@dataclass
class LatticeConfig:
    """d-dimensional height array plus boundary mode."""

    heights: np.ndarray
    boundary: str = TORUS

    def __post_init__(self):
        _check_size(np.shape(self.heights))
        self.heights = np.array(self.heights, dtype=float)
        self.boundary = parse_boundary(self.boundary)
        if self.heights.ndim < 1:
            raise ValueError("heights must be at least 1-dimensional")
        if any(s < 1 for s in self.heights.shape):
            raise ValueError(f"every lattice side must be >= 1, got {self.heights.shape}")
        check_heights(self.heights)
        if self.boundary == TORUS and any(s < 2 for s in self.heights.shape):
            raise ValueError("torus sides must be >= 2")

    @property
    def dim(self) -> int:
        return self.heights.ndim

    @property
    def sides(self) -> tuple[int, ...]:
        return self.heights.shape

    @property
    def n_sites(self) -> int:
        return self.heights.size

    def copy(self) -> "LatticeConfig":
        return LatticeConfig(self.heights.copy(), self.boundary)

    def is_stable(self) -> bool:
        return bool((self.heights < 1.0).all())

    def total_mass(self) -> float:
        return float(self.heights.sum())


@lru_cache(maxsize=32)
def _neighbor_arrays(shape: tuple, boundary: str):
    """Flat int32 neighbour ids, shape (n, 2d), with -1 in the slots off the
    box, and per site the int64 count of those missing neighbours."""
    idx = np.arange(math.prod(shape), dtype=np.int32).reshape(shape)
    d = len(shape)
    cols = []
    for ax in range(d):
        for off in (1, -1):
            col = np.roll(idx, off, axis=ax)
            if boundary != TORUS:
                sl = [slice(None)] * d
                sl[ax] = 0 if off == 1 else shape[ax] - 1
                col[tuple(sl)] = -1
            cols.append(col.ravel())
    nbr = np.stack(cols, axis=1)
    missing = (nbr < 0).sum(axis=1, dtype=np.int64)
    nbr.flags.writeable = False
    missing.flags.writeable = False
    return nbr, missing


@lru_cache(maxsize=32)
def _neighbor_table(shape: tuple, boundary: str):
    """Flat neighbour ids per site plus the count of missing (off-box) ones.

    Neighbours keep their slot order, and a side-2 torus lists one neighbour
    twice; the toppling loops visit them in this order.
    """
    nbr, missing = _neighbor_arrays(shape, boundary)
    neighbors = tuple(tuple(c for c in row if c >= 0) for row in nbr.tolist())
    return neighbors, tuple(missing.tolist())


class MassLedger:
    """Per-site toppling counts M, emitted mass L, and dissipated mass.

    L is accumulated with compensated summation so the conservation
    identities stay far below the 1e-9 tolerance over long runs.
    """

    def __init__(self, shape):
        self.shape = tuple(int(s) for s in shape)
        n = int(np.prod(self.shape))
        self._m = np.zeros(n, dtype=np.int64)
        self._lv = np.zeros(n)
        self._lc = np.zeros(n)
        self._diss = 0.0
        self._diss_c = 0.0
        self.t = 0.0
        self.events = 0

    @property
    def M(self) -> np.ndarray:
        return self._m.reshape(self.shape).copy()

    @property
    def L(self) -> np.ndarray:
        return self._lv.reshape(self.shape).copy()

    @property
    def dissipated(self) -> float:
        return self._diss

    def copy(self) -> "MassLedger":
        out = MassLedger(self.shape)
        out._m = self._m.copy()
        out._lv = self._lv.copy()
        out._lc = self._lc.copy()
        out._diss = self._diss
        out._diss_c = self._diss_c
        out.t = self.t
        out.events = self.events
        return out


def topple_lattice(config: LatticeConfig, x, ledger: MassLedger | None = None
                   ) -> tuple[LatticeConfig, MassLedger]:
    """Topple one site (no-op if stable); returns updated copies.

    ``x`` is a coordinate tuple (an int works in one dimension).
    """
    if isinstance(x, (int, np.integer)):
        x = (int(x),)
    x = tuple(int(c) for c in x)
    if len(x) != config.dim or any(not 0 <= c < s for c, s in zip(x, config.sides)):
        raise ValueError(f"site {x} outside lattice of shape {config.sides}")
    out = config.copy()
    led = ledger.copy() if ledger is not None else MassLedger(config.sides)
    if led.shape != config.sides:
        raise ValueError("ledger geometry does not match the configuration")
    flat = int(np.ravel_multi_index(x, config.sides))
    h = out.heights.ravel()
    hx = float(h[flat])
    if hx < 1.0:
        return out, led
    neighbors, missing = _neighbor_table(config.sides, config.boundary)
    share = hx / (2 * config.dim)
    h[flat] = 0.0
    for nb in neighbors[flat]:
        h[nb] += share
    led._m[flat] += 1
    led._lv[flat] += hx
    led._diss += share * missing[flat]
    return out, led


# ---------------------------------------------------------------------------
# Markov toppling engine
# ---------------------------------------------------------------------------

@dataclass
class Snapshot:
    t: float
    n_unstable: int
    frac_unstable: float
    min_m: int
    max_m: int
    dissipated: float


def _snapshots(rows: np.ndarray, n: int) -> list[Snapshot]:
    """The ``Snapshot`` of each snapshot row (t, unstable count, min M, max M,
    dissipated) of ``rows`` on a lattice of ``n`` sites."""
    return [Snapshot(t=t, n_unstable=int(k), frac_unstable=int(k) / n, min_m=int(lo),
                     max_m=int(hi), dissipated=diss)
            for t, k, lo, hi, diss in rows.tolist()]


@dataclass
class StabilizabilityVerdict:
    outcome: str                # "stabilized" | "active-at-cutoff"
    t_stab: float | None
    t_end: float
    events: int
    min_m: int
    max_m: int
    dissipated: float
    evidence_strong: bool       # active verdicts: min M reached the threshold
    # init-only, so that the fields stay scalars: the run's snapshot rows
    # (a copy of MarkovToppling.snapshot_rows) and the lattice's site count
    snapshot_rows: InitVar[np.ndarray]
    n_sites: InitVar[int]

    def __post_init__(self, snapshot_rows, n_sites):
        self.snapshot_rows = snapshot_rows
        self._n_sites = n_sites

    @property
    def snapshots(self) -> list[Snapshot]:
        """The snapshot rows as ``Snapshot`` objects, built on each read."""
        return _snapshots(self.snapshot_rows, self._n_sites)


class MarkovToppling:
    """Resumable rejection-free toppling run on one lattice configuration.

    The state is numpy arrays for the engine's whole life, which the compiled
    kernel updates in place: the heights ``h``, the ledger's arrays, and the
    unstable set, whose ``_k`` sites fill the first slots of the n-slot buffer
    ``_unstable`` in no particular order (``unstable`` is a view of them);
    ``_where[i]`` is the slot of site ``i``, -1 if stable.  The slots from
    ``_k`` on are scratch: the kernel writes them and never reads them.
    The snapshots of every run so far are the first ``_n_rows`` rows of the
    float64 array ``_rows`` (``snapshot_rows``), which doubles when full.
    """

    def __init__(self, config: LatticeConfig, seed: int | None = None,
                 rng: np.random.Generator | None = None,
                 min_m_threshold: int = 10):
        self.boundary = config.boundary
        self.shape = config.sides
        self.d = config.dim
        self.n = config.n_sites
        self.h = config.heights.astype(np.float64).ravel()
        self.ledger = MassLedger(self.shape)
        self.rng = rng if rng is not None else np.random.default_rng(seed)
        first = np.flatnonzero(self.h >= 1.0)
        self._k = first.size
        self._unstable = np.zeros(self.n, dtype=np.int64)
        self._unstable[:self._k] = first
        self._where = np.full(self.n, -1, dtype=np.int64)
        self._where[first] = np.arange(self._k)
        self.t = 0.0
        self.events = 0
        self.t_stab: float | None = 0.0 if not self._k else None
        self.min_m_threshold = min_m_threshold
        self._rows = np.empty((0, 5))
        self._n_rows = 0
        # the current chunk of exponential waits and uniform picks
        self._wait_buf = np.empty(0)
        self._pick_buf = np.empty(0)
        self._bufpos = _CHUNK

    @property
    def unstable(self) -> np.ndarray:
        return self._unstable[:self._k]

    @property
    def snapshot_rows(self) -> np.ndarray:
        """One row per snapshot taken: t, unstable count, min M, max M and
        dissipated, as float64 (a view, shape (rows, 5))."""
        return self._rows[:self._n_rows]

    @property
    def snapshots(self) -> list[Snapshot]:
        """``snapshot_rows`` as ``Snapshot`` objects, built on each read."""
        return _snapshots(self.snapshot_rows, self.n)

    def _grow_rows(self, need: int) -> None:
        """Make room for ``need`` snapshot rows, keeping the filled ones."""
        rows = np.empty((max(need, 2 * len(self._rows), _SNAP_ROWS), 5))
        rows[:self._n_rows] = self.snapshot_rows
        self._rows = rows

    def _refill(self) -> None:
        self._wait_buf = self.rng.standard_exponential(_CHUNK)
        self._pick_buf = self.rng.random(_CHUNK)
        self._bufpos = 0

    def run(self, t_max: float = math.inf, max_events: int | None = None,
            snapshot_every: float | None = None) -> None:
        """Advance until stabilized, ``t_max``, or ``max_events`` further topplings.

        A snapshot row is appended to ``snapshot_rows`` at each multiple of
        ``snapshot_every`` that the run passes; no ``Snapshot`` object is
        made unless ``snapshots`` is read.  The compiled kernel runs the
        loop when it loads, the Python loop otherwise; both give the same
        bits, and a resumed run continues the same draws.  A ``t_max`` at or
        below the engine's time leaves the engine as it is.
        """
        if not t_max > 0:                   # also rejects NaN
            raise ValueError(f"t_max must be positive, got {t_max!r}")
        if snapshot_every is not None and not snapshot_every > 0:
            raise ValueError(f"snapshot_every must be positive, got {snapshot_every!r}")
        if max_events is not None and max_events < 0:
            raise ValueError(f"max_events must be >= 0, got {max_events}")
        try:
            t_max = float(t_max)            # an int t_max would leave an int clock
        except OverflowError:
            raise ValueError("t_max must fit in a float") from None
        if not self._k or t_max <= self.t:
            return
        next_snap = math.inf                # no snapshot is due while it is inf
        if snapshot_every is not None:
            next_snap = (math.floor(self.t / snapshot_every) + 1) * snapshot_every
        events_stop = _NO_LIMIT
        if max_events is not None:
            events_stop = min(self.events + max_events, _NO_LIMIT)
        lib = chain_kernel()
        if lib is None:
            self._run_python(t_max, events_stop, next_snap, snapshot_every)
        else:
            self._run_compiled(lib, t_max, events_stop, next_snap, snapshot_every)

    def _run_python(self, t_max, events_stop, next_snap, snapshot_every) -> None:
        """The reference loop, which ``zp_lattice`` follows operation by
        operation.  It runs on lists of the state and writes them back, the
        snapshot rows it took included."""
        h, unstable, where = self.h.tolist(), self.unstable.tolist(), self._where.tolist()
        nbrs, missing = _neighbor_table(self.shape, self.boundary)
        led = self.ledger
        m, lv, lc = led._m.tolist(), led._lv.tolist(), led._lc.tolist()
        diss, diss_c = led._diss, led._diss_c
        twod = 2 * self.d
        t = self.t
        events = self.events
        chunk = _CHUNK
        pos = self._bufpos
        waits, picks = self._wait_buf.tolist(), self._pick_buf.tolist()
        snaps = []
        try:
            while events < events_stop:
                if pos >= chunk:
                    self._refill()
                    waits, picks = self._wait_buf.tolist(), self._pick_buf.tolist()
                    pos = 0
                k = len(unstable)
                te = t + waits[pos] / k
                while next_snap < te:
                    if next_snap > t_max:
                        next_snap = math.inf
                        break
                    snaps.append((next_snap, k, min(m), max(m), diss))
                    next_snap += snapshot_every
                if te > t_max:
                    # discard the crossing draw: by memorylessness a resumed run
                    # correctly starts from a fresh exponential wait at t_max
                    pos += 1
                    t = t_max
                    break
                # u < 1 keeps int(u * k) < k for every k < 2**52
                s = unstable[int(picks[pos] * k)]
                pos += 1
                t = te
                events += 1
                # swap-remove s from the unstable list
                last = unstable.pop()
                if last != s:
                    i = where[s]
                    unstable[i] = last
                    where[last] = i
                where[s] = -1
                hx = h[s]
                h[s] = 0.0
                m[s] += 1
                # compensated: L[s] += hx
                y = hx - lc[s]
                tt = lv[s] + y
                lc[s] = (tt - lv[s]) - y
                lv[s] = tt
                share = hx / twod
                for nb in nbrs[s]:
                    v = h[nb] + share
                    h[nb] = v
                    if v >= 1.0 and where[nb] < 0:
                        where[nb] = len(unstable)
                        unstable.append(nb)
                if missing[s]:
                    y = share * missing[s] - diss_c
                    tt = diss + y
                    diss_c = (tt - diss) - y
                    diss = tt
                if not unstable:
                    self.t_stab = t
                    break
        finally:
            self.h[:] = h
            self._k = len(unstable)
            self._unstable[:self._k] = unstable
            self._where[:] = where
            led._m[:], led._lv[:], led._lc[:] = m, lv, lc
            self._bufpos = pos
            self.t = led.t = t
            self.events = led.events = events
            led._diss, led._diss_c = diss, diss_c
            if snaps:
                end = self._n_rows + len(snaps)
                if end > len(self._rows):
                    self._grow_rows(end)
                self._rows[self._n_rows:end] = snaps
                self._n_rows = end

    def _run_compiled(self, lib, t_max, events_stop, next_snap, snapshot_every) -> None:
        """``_run_python`` in ``zp_lattice``, in place on the engine's arrays.

        The kernel appends snapshot rows to ``_rows`` from row ``_n_rows`` on
        and returns when the array is full, which then doubles.
        """
        n = self.n
        led = self.ledger
        nbr, missing = _neighbor_arrays(self.shape, self.boundary)
        h, unstable, where, k = self.h, self._unstable, self._where, self._k
        m, lv, lc = led._m, led._lv, led._lc
        # the kernel writes these buffers and indexes with the sites they
        # hold, so they must be this lattice's, of the types it reads
        buffers = {np.float64: (h, lv, lc), np.int64: (unstable, where, m)}
        ok = (0 < k <= n and all(kernel_buffer_ok(a, dtype, n, out=True)
                                 for dtype, arrays in buffers.items() for a in arrays)
              and kernel_buffer_ok(nbr, np.int32, n * 2 * self.d)
              and kernel_buffer_ok(missing, np.int64, n)
              and kernel_buffer_ok(self._rows, np.float64, self._rows.size, out=True)
              and 0 <= self._n_rows <= len(self._rows) and self._rows.shape[1:] == (5,))
        if ok:
            u = unstable[:k]
            ok = (u.min() >= 0 and u.max() < n
                  and np.array_equal(where[u], np.arange(k))
                  and np.count_nonzero(where >= 0) == k)
        if not ok:
            raise ValueError("engine state does not match its lattice")
        # the snapshot state of the run (zp_clock in _drive.c): the kernel
        # keeps max M from here on, and rescans min M at the first snapshot
        clock = LatticeClock(t=self.t, t_max=t_max, next_snap=next_snap,
                             snapshot_every=snapshot_every or 0.0, diss=led._diss,
                             diss_c=led._diss_c, k=k, events=self.events,
                             events_stop=events_stop, pos=self._bufpos,
                             n_rows=self._n_rows,
                             min_m=-1, n_min=0, max_m=int(m.max()))
        head = (h.ctypes.data, n, 2 * self.d, nbr.ctypes.data, missing.ctypes.data,
                unstable.ctypes.data, where.ctypes.data, m.ctypes.data, lv.ctypes.data,
                lc.ctypes.data)
        try:
            while True:
                status = lib.zp_lattice(*head, self._wait_buf.ctypes.data,
                                        self._pick_buf.ctypes.data, _CHUNK,
                                        ctypes.byref(clock), self._rows.ctypes.data,
                                        len(self._rows))
                if status == _REFILL:
                    self._refill()
                    clock.pos = 0
                elif status == _ROWS_FULL:
                    self._n_rows = clock.n_rows
                    self._grow_rows(self._n_rows + 1)
                else:
                    break
        finally:
            self._n_rows = clock.n_rows
            self._k = clock.k
            self.t = led.t = clock.t
            self.events = led.events = clock.events
            led._diss, led._diss_c = clock.diss, clock.diss_c
            self._bufpos = clock.pos
        if status == _STABLE:
            self.t_stab = clock.t

    def config(self) -> LatticeConfig:
        return LatticeConfig(self.h.reshape(self.shape), self.boundary)

    def verdict(self) -> StabilizabilityVerdict:
        m = self.ledger._m
        stabilized = not self._k
        min_m = int(m.min())
        return StabilizabilityVerdict(
            outcome="stabilized" if stabilized else "active-at-cutoff",
            t_stab=self.t_stab if stabilized else None,
            t_end=self.t, events=self.events,
            min_m=min_m, max_m=int(m.max()), dissipated=self.ledger._diss,
            evidence_strong=(not stabilized) and min_m >= self.min_m_threshold,
            snapshot_rows=self.snapshot_rows.copy(), n_sites=self.n)


def markov_run(config: LatticeConfig, t_max: float, seed: int | None = None,
               rng: np.random.Generator | None = None,
               snapshot_every: float | None = 1.0,
               max_events: int | None = None, min_m_threshold: int = 10
               ) -> tuple[StabilizabilityVerdict, LatticeConfig, MassLedger]:
    """One-shot Markov toppling run; returns (verdict, final config, ledger)."""
    eng = MarkovToppling(config, seed=seed, rng=rng, min_m_threshold=min_m_threshold)
    eng.run(t_max=t_max, max_events=max_events, snapshot_every=snapshot_every)
    return eng.verdict(), eng.config(), eng.ledger


def min_m_slope(snapshots) -> float | None:
    """Least-squares slope of min per-site toppling count against time.

    ``snapshots`` is a snapshot row array (``MarkovToppling.snapshot_rows``)
    or a list of ``Snapshot``; both give the same float64 t and min M, and so
    the same bits.
    """
    if isinstance(snapshots, np.ndarray):
        t, y = snapshots[:, 0], snapshots[:, 2]
    else:
        t = np.array([s.t for s in snapshots], dtype=float)
        y = np.array([s.min_m for s in snapshots], dtype=float)
    if len(t) < 2 or np.ptp(t) == 0:
        return None
    return float(np.polyfit(t, y, 1)[0])


# ---------------------------------------------------------------------------
# parallel rounds
# ---------------------------------------------------------------------------

def _shifted(arr: np.ndarray, ax: int, off: int, torus: bool) -> np.ndarray:
    if torus:
        return np.roll(arr, off, axis=ax)
    out = np.zeros_like(arr)
    src = [slice(None)] * arr.ndim
    dst = [slice(None)] * arr.ndim
    if off == 1:
        src[ax] = slice(0, -1)
        dst[ax] = slice(1, None)
    else:
        src[ax] = slice(1, None)
        dst[ax] = slice(0, -1)
    out[tuple(dst)] = arr[tuple(src)]
    return out


def parallel_round(config: LatticeConfig) -> LatticeConfig:
    """Topple every currently unstable site simultaneously (round-start heights).

    Neighbour contributions are paired per axis before the single division by
    2d, so uniform patterns (e.g. checkerboards) are mapped exactly in floating
    point for d <= 2.
    """
    h = config.heights
    unstable = h >= 1.0
    if not unstable.any():
        return config.copy()
    torus = config.boundary == TORUS
    contrib = np.where(unstable, h, 0.0)
    received = None
    for ax in range(config.dim):
        pair = _shifted(contrib, ax, 1, torus) + _shifted(contrib, ax, -1, torus)
        received = pair if received is None else received + pair
    new = np.where(unstable, 0.0, h) + received / (2 * config.dim)
    return LatticeConfig(new, config.boundary)


# ---------------------------------------------------------------------------
# conservation identities
# ---------------------------------------------------------------------------

def _neighbor_sum(arr: np.ndarray, boundary: str) -> np.ndarray:
    torus = boundary == TORUS
    out = np.zeros_like(arr)
    for ax in range(arr.ndim):
        out += _shifted(arr, ax, 1, torus) + _shifted(arr, ax, -1, torus)
    return out


@lru_cache(maxsize=32)
def _delta_table(shape: tuple, boundary: str) -> tuple[np.ndarray, np.ndarray]:
    """The toppling matrix as (cols, vals), each of shape (2d+1, n), built once
    per geometry and shared, hence read-only.

    Column y of the table is row y of the matrix in canonical CSR form:
    ascending column ids, duplicate (row, column) pairs summed left to right
    (both neighbours along a side-2 torus axis, or a site that is its own
    neighbour), then padding slots with column id n and value 0.0.
    """
    nbr, _ = _neighbor_arrays(shape, boundary)
    n, twod = nbr.shape
    # row y: the diagonal first, then a 1/(2d) bond to each neighbour of y in
    # slot order; missing neighbours become padding
    cols = np.concatenate([np.arange(n)[:, None], np.where(nbr >= 0, nbr, n)], axis=1)
    vals = np.concatenate([np.full((n, 1), -1.0), np.where(nbr >= 0, 1.0 / twod, 0.0)],
                          axis=1)
    order = np.argsort(cols, axis=1, kind="stable")
    cols = np.take_along_axis(cols, order, axis=1)
    vals = np.take_along_axis(vals, order, axis=1)
    for k in range(1, twod + 1):
        dup = cols[:, k] == cols[:, k - 1]
        vals[dup, k] += vals[dup, k - 1]
    # keep the last entry of each run of equal columns, padding after the rest
    keep = cols < n
    keep[:, :-1] &= cols[:, 1:] != cols[:, :-1]
    cols = np.where(keep, cols, n)
    vals = np.where(keep, vals, 0.0)
    order = np.argsort(cols, axis=1, kind="stable")
    cols = np.ascontiguousarray(np.take_along_axis(cols, order, axis=1).T)
    vals = np.ascontiguousarray(np.take_along_axis(vals, order, axis=1).T)
    cols.flags.writeable = False
    vals.flags.writeable = False
    return cols, vals


def _delta_apply(shape: tuple, boundary: str, v: np.ndarray) -> np.ndarray:
    """The toppling matrix times the flat vector ``v``, bit for bit as scipy's
    product with the matrix in canonical CSR form: that sums each row from
    0.0 entry by entry, and so does this, slot by slot.  Padding adds
    0.0 * 0.0 (a stored 0.0 at column n), which changes no sum."""
    cols, vals = _delta_table(shape, boundary)
    terms = np.append(v, 0.0)[cols]
    out = np.zeros(v.size)
    with np.errstate(over="ignore", invalid="ignore"):     # as quiet as scipy
        terms *= vals
        for slot in terms:
            out += slot
    return out


def mass_identity_check(initial: LatticeConfig, current: LatticeConfig,
                        ledger: MassLedger) -> float:
    """Max residual of eta(t) = eta(0) - L + (1/2d) sum_nbr L, both routes.

    Route one evaluates the neighbour sum directly; route two applies the
    explicit toppling matrix.  Returns the worse of the two max residuals.
    """
    if initial.sides != current.sides or initial.boundary != current.boundary:
        raise ValueError("initial and current geometries differ")
    if ledger.shape != initial.sides:
        raise ValueError("ledger geometry does not match the configurations")
    L = ledger._lv.reshape(ledger.shape)     # a view: nothing below writes it
    d = initial.dim
    pred = initial.heights - L + _neighbor_sum(L, initial.boundary) / (2 * d)
    r1 = float(np.abs(current.heights - pred).max())
    dl = _delta_apply(initial.sides, initial.boundary, L.ravel())
    pred2 = initial.heights.ravel() + dl
    r2 = float(np.abs(current.heights.ravel() - pred2).max())
    return max(r1, r2)


# ---------------------------------------------------------------------------
# internal bonds
# ---------------------------------------------------------------------------

def _region_flat(region, shape) -> set[int]:
    """Region sites as flat indices; accepts a bool mask, coordinate tuples,
    or bare ints (already-flat indices)."""
    shape = tuple(int(s) for s in shape)
    n = int(np.prod(shape))
    if isinstance(region, np.ndarray) and region.dtype == bool:
        if region.shape != shape:
            raise ValueError("region mask shape does not match the lattice")
        return {int(i) for i in np.flatnonzero(region.ravel())}
    flat = set()
    for x in region:
        if isinstance(x, (int, np.integer)):
            i = int(x)
            if not 0 <= i < n:
                raise ValueError(f"flat site index {i} outside lattice of size {n}")
            flat.add(i)
        else:
            flat.add(int(np.ravel_multi_index(tuple(int(c) for c in x), shape)))
    return flat


def count_internal_bonds(region, shape, boundary: str = TORUS) -> int:
    """Number of lattice bonds with both endpoints inside the region."""
    boundary = parse_boundary(boundary)
    flat = _region_flat(region, shape)
    neighbors, _ = _neighbor_table(tuple(int(s) for s in shape), boundary)
    twice = sum(1 for x in flat for y in neighbors[x] if y in flat)
    return twice // 2


@dataclass
class BondBoundReport:
    precondition_met: bool      # every region site toppled at least once
    holds: bool | None          # inequality verdict; None when precondition fails
    region_mass: float
    bound: float
    beta: int


def bond_bound_check(config: LatticeConfig, region, ledger: MassLedger) -> BondBoundReport:
    """Check region mass >= (internal bonds)/(2d) once every region site toppled."""
    if ledger.shape != config.sides:
        raise ValueError("ledger geometry does not match the configuration")
    flat = _region_flat(region, config.sides)
    if not flat:
        raise ValueError("region is empty")
    beta = count_internal_bonds(flat, config.sides, config.boundary)
    h = config.heights.ravel()
    mass = float(sum(h[i] for i in flat))
    bound = beta / (2 * config.dim)
    pre = all(ledger._m[i] >= 1 for i in flat)
    return BondBoundReport(precondition_met=pre,
                           holds=(mass >= bound) if pre else None,
                           region_mass=mass, bound=bound, beta=beta)


# ---------------------------------------------------------------------------
# initial-density generators
# ---------------------------------------------------------------------------

_KIND_ALIASES = {"iid": "iid-uniform", "iid-uniform": "iid-uniform",
                 "constant": "constant", "checkerboard": "checkerboard",
                 "near-full": "near-full", "near_full": "near-full",
                 "nearfull": "near-full"}


def near_full_bands(rho: float, d: int) -> dict:
    """Parameters of the near-full generator at density rho in dimension d.

    The base construction draws iid uniform heights on the symmetric interval
    [1 - 1/(2d), 2 rho - 1 + 1/(2d)], which contains unstable values only for
    rho > 1 - 1/(4d).  For (2d-1)/(2d) < rho <= 1 - 1/(4d) that interval shuts
    out unstable sites entirely, so a two-band mixture is used instead: a thin
    band at the floor 1 - 1/(2d) plus a thin unstable band starting at 1, with
    the mixture weight chosen so the mean is exactly rho.  Every variant keeps
    all heights >= 1 - 1/(2d) and places unstable sites with positive density.
    """
    lo = 1.0 - 1.0 / (2 * d)
    hi = 2.0 * rho - 1.0 + 1.0 / (2 * d)
    if hi > 1.0:
        return {"form": "interval", "low": lo, "high": hi}
    floor_gap = rho - (2 * d - 1) / (2 * d)
    if floor_gap <= 0:
        raise ValueError(
            f"near-full needs rho > {(2 * d - 1) / (2 * d)} in dimension {d}, got {rho}")
    s = min(0.05, floor_gap)
    p = 2 * d * (rho - lo - 0.5 * s)
    if not 0.0 < p <= 1.0:
        raise ValueError(f"near-full band weight out of range for rho={rho}, d={d}")
    return {"form": "two-band", "low": lo, "band_width": s, "p_unstable": p}


@dataclass
class DensitySpec:
    """Initial-measure generator: kind plus target density rho."""

    kind: str
    rho: float

    def __post_init__(self):
        try:
            self.kind = _KIND_ALIASES[str(self.kind).lower()]
        except KeyError:
            raise ValueError(f"unknown generator kind: {self.kind!r}") from None
        if not (math.isfinite(self.rho) and self.rho >= 0):
            raise ValueError(f"rho must be finite and nonnegative, got {self.rho!r}")

    def describe(self, d: int | None = None) -> dict:
        out = {"kind": self.kind, "rho": self.rho}
        if self.kind == "near-full" and d is not None:
            out.update(near_full_bands(self.rho, d))
        return out


def generate(spec: DensitySpec, sides, boundary: str = TORUS,
             rng: np.random.Generator | None = None,
             seed: int | None = None) -> LatticeConfig:
    """Draw an initial configuration of the requested density."""
    sides = tuple(int(s) for s in sides)
    _check_size(sides)
    boundary = parse_boundary(boundary)
    d = len(sides)
    if rng is None:
        rng = np.random.default_rng(seed)
    rho = spec.rho
    # every generator draws heights of at most 2 rho (constant: rho)
    top = rho if spec.kind == "constant" else 2.0 * rho
    if not math.isfinite(top * math.prod(sides)):
        raise ValueError(f"rho={rho!r} is too large: the heights on {sides} or their "
                         "total would not be finite")
    if spec.kind == "constant":
        h = np.full(sides, rho)
    elif spec.kind == "iid-uniform":
        h = rng.uniform(0.0, 2.0 * rho, sides)
    elif spec.kind == "checkerboard":
        if boundary == TORUS and any(s % 2 for s in sides):
            raise ValueError("checkerboard on a torus needs even side lengths")
        parity = int(rng.integers(2))
        grids = np.indices(sides).sum(axis=0)
        h = np.where((grids + parity) % 2 == 0, 2.0 * rho, 0.0)
    elif spec.kind == "near-full":
        bands = near_full_bands(rho, d)
        if bands["form"] == "interval":
            h = rng.uniform(bands["low"], bands["high"], sides)
        else:
            lo = bands["low"]
            s = bands["band_width"]
            pick = rng.random(sides) < bands["p_unstable"]
            h = np.where(pick, rng.uniform(1.0, 1.0 + s, sides),
                         rng.uniform(lo, lo + s, sides))
    else:  # unreachable, kinds normalized in DensitySpec
        raise ValueError(spec.kind)
    return LatticeConfig(h, boundary)


# ---------------------------------------------------------------------------
# stabilizability experiments
# ---------------------------------------------------------------------------

@dataclass
class ExperimentSummary:
    rows: list
    fraction_stabilized: float
    median_t_stab: float
    mean_min_m_slope: float


def _replica_worker(args) -> dict:
    kind, rho, sides, boundary, t_max, entropy, spawn_key, snapshot_every, \
        min_m_threshold, max_events = args
    # identical to np.random.SeedSequence(seed).spawn(k)[i] (nested for sweeps)
    child = np.random.SeedSequence(entropy=entropy, spawn_key=spawn_key)
    rng = np.random.default_rng(child)
    spec = DensitySpec(kind, rho)
    config = generate(spec, sides, boundary, rng=rng)
    total0 = config.total_mass()
    verdict, final, ledger = markov_run(config, t_max=t_max, rng=rng,
                                        snapshot_every=snapshot_every,
                                        max_events=max_events,
                                        min_m_threshold=min_m_threshold)
    residual = mass_identity_check(config, final, ledger)
    drift = abs(final.total_mass() - (total0 - ledger.dissipated))
    return {
        "outcome": verdict.outcome,
        "t_stab": verdict.t_stab,
        "t_end": verdict.t_end,
        "events": verdict.events,
        "min_m": verdict.min_m,
        "max_m": verdict.max_m,
        "dissipated": verdict.dissipated,
        "evidence_strong": verdict.evidence_strong,
        "min_m_slope": min_m_slope(verdict.snapshot_rows),
        "mass_residual": residual,
        "mass_drift": drift,
        "mass": total0,
        "heights": final.heights.ravel(),    # flat float64, C order
    }


def _replica_jobs(spec: DensitySpec, sides, boundary: str, t_max: float, replicas: int,
                  seed, snapshot_every, min_m_threshold, max_events,
                  spawn_prefix: tuple) -> list:
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    if t_max == math.inf and max_events is None:
        # a replica that never stabilizes would never end
        raise ValueError("t_max=inf needs max_events")
    entropy = np.random.SeedSequence(seed).entropy
    return [(spec.kind, spec.rho, tuple(sides), parse_boundary(boundary), t_max,
             entropy, spawn_prefix + (i,), snapshot_every, min_m_threshold,
             max_events)
            for i in range(replicas)]


def _summaries(grid: list, workers: int) -> list[ExperimentSummary]:
    """Run every job of every grid point, through one ``Pool`` if
    ``workers`` > 1, and summarize each grid point's rows."""
    jobs = [job for point in grid for job in point]
    if workers > 1 and len(jobs) > 1:
        chain_kernel()      # build and load once, before the workers fork
        # no idle workers to fork; map sizes its chunks from the pool's width
        with Pool(min(workers, len(jobs))) as pool:
            rows = pool.map(_replica_worker, jobs)
    else:
        rows = [_replica_worker(j) for j in jobs]
    out = []
    for point in grid:
        mine, rows = rows[:len(point)], rows[len(point):]
        for i, row in enumerate(mine):
            row["replica"] = i
        stabilized = [r for r in mine if r["outcome"] == "stabilized"]
        med = (float(np.median([r["t_stab"] for r in stabilized])) if stabilized
               else math.nan)
        active_slopes = [r["min_m_slope"] for r in mine
                         if r["outcome"] != "stabilized" and r["min_m_slope"] is not None]
        slope = float(np.mean(active_slopes)) if active_slopes else math.nan
        out.append(ExperimentSummary(rows=mine,
                                     fraction_stabilized=len(stabilized) / len(mine),
                                     median_t_stab=med, mean_min_m_slope=slope))
    return out


def stabilizability_experiment(spec: DensitySpec, sides, boundary: str,
                               t_max: float, replicas: int,
                               seed: int | None = None,
                               snapshot_every: float | None = 1.0,
                               min_m_threshold: int = 10,
                               max_events: int | None = None,
                               workers: int = 1) -> ExperimentSummary:
    """Replicated Markov runs from one density spec; replicas use split seeds."""
    jobs = _replica_jobs(spec, sides, boundary, t_max, replicas, seed, snapshot_every,
                         min_m_threshold, max_events, ())
    return _summaries([jobs], workers)[0]


def stabilizability_sweep(specs, sides, boundary: str, t_max: float, replicas: int,
                          seed: int | None = None,
                          snapshot_every: float | None = 1.0,
                          min_m_threshold: int = 10,
                          max_events: int | None = None,
                          workers: int = 1) -> list[ExperimentSummary]:
    """``stabilizability_experiment`` at each density spec of a grid, in
    order; grid point ``g`` seeds replica ``i`` with the spawn key (g, i).  All
    replicas of the grid share one ``Pool``."""
    grid = [_replica_jobs(spec, sides, boundary, t_max, replicas, seed, snapshot_every,
                          min_m_threshold, max_events, (g,))
            for g, spec in enumerate(specs)]
    return _summaries(grid, workers)
