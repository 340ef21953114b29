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
identity  eta(t) = eta(0) - L + (1/2d) * sum of neighbour L.  The check sums
the neighbours by slices of L along each axis, so it reads no neighbour table
and a wrong slot in the one the engine reads cannot cancel out of it.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from functools import lru_cache
from multiprocessing import Pool

import numpy as np

from .core import (
    _NO_LIMIT,
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
_MAX_SITES = 2**31 - 1  # the neighbour table holds int32 site ids
_MAX_ROWS = 2**24       # snapshot rows of one engine: 640 MiB, t = 1.7e7 by unit steps

# zp_lattice return statuses (enum in _drive.c)
_EVENTS, _T_MAX, _STABLE, _REFILL, _ROWS_FULL = range(5)


def parse_boundary(name: str) -> str:
    try:
        return _BOUNDARY_ALIASES[str(name).lower()]
    except KeyError:
        raise ValueError(f"unknown boundary mode: {name!r}") from None


def _check_geometry(sides: tuple, boundary: str) -> None:
    """Raise ValueError unless ``sides`` make a lattice of the parsed ``boundary`` of at
    most ``_MAX_SITES`` sites; it reads no array, so it runs before any is allocated."""
    if not sides:
        raise ValueError("heights must be at least 1-dimensional")
    if any(s < 1 for s in sides):
        raise ValueError(f"every lattice side must be >= 1, got {sides}")
    if boundary == TORUS and any(s < 2 for s in sides):
        raise ValueError("torus sides must be >= 2")
    n = math.prod(sides)
    if n > _MAX_SITES:
        raise ValueError(f"a lattice of {n} sites is too large: at most 2^31 - 1")


@dataclass
class LatticeConfig:
    """d-dimensional height array plus boundary mode."""

    heights: np.ndarray
    boundary: str = TORUS

    def __post_init__(self):
        self.boundary = parse_boundary(self.boundary)
        _check_geometry(np.shape(self.heights), self.boundary)
        self.heights = np.array(self.heights, dtype=float)
        check_heights(self.heights)

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
    box, and per site the int64 count of those missing neighbours.  The loops
    visit the slots in order and skip the -1s; a side-2 torus lists one
    neighbour twice."""
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


class MassLedger:
    """Per-site toppling counts M, emitted mass L, and dissipated mass.

    L and the dissipated mass are accumulated with compensated summation so
    the conservation identities stay far below the 1e-9 tolerance over long
    runs; ``_diss`` holds the dissipated sum and its compensation.
    """

    def __init__(self, shape):
        self.shape = tuple(int(s) for s in shape)
        n = int(np.prod(self.shape))
        self._m = np.zeros(n, dtype=np.int64)
        self._lv = np.zeros(n)
        self._lc = np.zeros(n)
        self._diss = np.zeros(2)

    @property
    def M(self) -> np.ndarray:
        return self._m.reshape(self.shape).copy()

    @property
    def L(self) -> np.ndarray:
        return self._lv.reshape(self.shape).copy()

    @property
    def dissipated(self) -> float:
        return float(self._diss[0])

    def copy(self) -> "MassLedger":
        out = MassLedger(self.shape)
        out._m = self._m.copy()
        out._lv = self._lv.copy()
        out._lc = self._lc.copy()
        out._diss = self._diss.copy()
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
    nbr, missing = _neighbor_arrays(config.sides, config.boundary)
    share = hx / (2 * config.dim)
    h[flat] = 0.0
    nbs = nbr[flat]
    np.add.at(h, nbs[nbs >= 0], share)     # in slot order, a repeat added twice
    led._m[flat] += 1
    led._lv[flat] += hx
    led._diss[0] += share * int(missing[flat])
    return out, led


# ---------------------------------------------------------------------------
# Markov toppling engine
# ---------------------------------------------------------------------------

@dataclass
class StabilizabilityVerdict:
    outcome: str                # "stabilized" | "active-at-cutoff"
    t_stab: float | None
    t_end: float
    events: int
    min_m: int
    max_m: int
    dissipated: float
    snapshots: np.ndarray       # a copy of MarkovToppling.snapshots


def _check_run(t_max, snapshot_every, max_events) -> tuple[float, float | None, int | None]:
    """``t_max`` and ``snapshot_every`` as floats (an int would leave an int
    clock) and ``max_events`` as an int (the kernel's limit is an int64) once a
    run's limits pass."""
    if not t_max > 0:                   # also rejects NaN
        raise ValueError(f"t_max must be positive, got {t_max!r}")
    if snapshot_every is not None and not snapshot_every > 0:
        raise ValueError(f"snapshot_every must be positive, got {snapshot_every!r}")
    if max_events is not None:
        try:
            whole = int(max_events) == max_events
        except (TypeError, ValueError, OverflowError):     # a string, NaN or inf
            whole = False
        if not whole:
            raise ValueError(f"max_events must be an integer, got {max_events!r}")
        if max_events < 0:
            raise ValueError(f"max_events must be >= 0, got {max_events}")
        max_events = int(max_events)
    try:
        t_max = float(t_max)
    except OverflowError:
        raise ValueError("t_max must fit in a float") from None
    try:
        snapshot_every = None if snapshot_every is None else float(snapshot_every)
    except OverflowError:
        raise ValueError("snapshot_every must fit in a float") from None
    # a run to t_max = inf meets the same cap in _check_rows
    if snapshot_every is not None and t_max < math.inf and t_max / snapshot_every > _MAX_ROWS:
        raise ValueError(f"t_max / snapshot_every must be at most {_MAX_ROWS} "
                         f"snapshot rows, got {t_max / snapshot_every:g}")
    return t_max, snapshot_every, max_events


def _check_rows(need: int) -> None:
    """Raise ValueError if an engine's snapshots would need more than ``_MAX_ROWS`` rows."""
    if need > _MAX_ROWS:
        raise ValueError(f"a run of more than {_MAX_ROWS} snapshot rows is too "
                         "large: raise snapshot_every")


class MarkovToppling:
    """Resumable rejection-free toppling run on one lattice configuration.

    The state is numpy arrays and one ``core.LatticeClock`` ``_clock`` for the
    engine's whole life, which the compiled kernel updates in place: the
    heights ``h``, the ledger's arrays, the clock's ``t`` and ``events``, and
    the unstable set, whose ``_clock.k`` sites fill the first slots of the
    n-slot buffer ``_unstable`` in no particular order (``unstable`` is a view
    of them); ``_where[i]`` is the slot of site ``i``, -1 if stable.  The slots
    from ``k`` on are scratch: the kernel writes them and never reads them.
    The snapshots of every run so far are the first ``_clock.n_rows`` rows of
    the float64 array ``_rows`` (``snapshots``), which starts at ``_SNAP_ROWS``
    rows and doubles when full, up to ``_MAX_ROWS``.
    """

    def __init__(self, config: LatticeConfig, seed: int | None = None,
                 rng: np.random.Generator | None = None):
        self.boundary = config.boundary
        self.shape = config.sides
        self.d = config.dim
        self.n = config.n_sites
        self.h = config.heights.astype(np.float64).ravel()
        self.ledger = MassLedger(self.shape)
        self.rng = rng if rng is not None else np.random.default_rng(seed)
        first = np.flatnonzero(self.h >= 1.0)
        k = first.size
        self._unstable = np.zeros(self.n, dtype=np.int64)
        self._unstable[:k] = first
        self._where = np.full(self.n, -1, dtype=np.int64)
        self._where[first] = np.arange(k)
        self.t_stab: float | None = 0.0 if not k else None
        self._rows = np.empty((_SNAP_ROWS, 5))
        # the current chunk of exponential waits and uniform picks, from clock.pos on
        self._wait_buf = np.empty(0)
        self._pick_buf = np.empty(0)
        self._clock = LatticeClock(k=k, pos=_CHUNK)

    @property
    def t(self) -> float:
        return self._clock.t

    @property
    def events(self) -> int:
        return self._clock.events

    @property
    def unstable(self) -> np.ndarray:
        return self._unstable[:self._clock.k]

    @property
    def snapshots(self) -> np.ndarray:
        """One row per snapshot taken: t, unstable count, min M, max M and
        dissipated, as float64 (a view, shape (rows, 5))."""
        return self._rows[:self._clock.n_rows]

    def _grow_rows(self, need: int) -> None:
        """Make room for ``need`` snapshot rows, keeping the filled ones."""
        _check_rows(need)
        rows = np.empty((min(max(need, 2 * len(self._rows)), _MAX_ROWS), 5))
        rows[:self._clock.n_rows] = self.snapshots
        self._rows = rows

    def _refill(self) -> None:
        self._wait_buf = self.rng.standard_exponential(_CHUNK)
        self._pick_buf = self.rng.random(_CHUNK)
        self._clock.pos = 0

    def run(self, t_max: float = math.inf, max_events: int | None = None,
            snapshot_every: float | None = None) -> None:
        """Advance until stabilized, ``t_max``, or ``max_events`` further topplings.

        A snapshot row is appended to ``snapshots`` at each multiple of
        ``snapshot_every`` that the run passes.  The compiled kernel runs the
        loop when it loads, the Python loop otherwise; both give the same
        bits, and a resumed run continues the same draws.  A ``t_max`` at or
        below the engine's time leaves the engine as it is.
        """
        t_max, snapshot_every, max_events = _check_run(t_max, snapshot_every, max_events)
        if not self._clock.k or t_max <= self.t:
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
        operation.  It runs on lists of the state and locals of the clock and
        writes them back, the snapshot rows it took included."""
        h, unstable, where = self.h.tolist(), self.unstable.tolist(), self._where.tolist()
        nbrs, missing = (a.tolist() for a in _neighbor_arrays(self.shape, self.boundary))
        led, clock = self.ledger, self._clock
        m, lv, lc = led._m.tolist(), led._lv.tolist(), led._lc.tolist()
        diss, diss_c = led._diss.tolist()
        twod = 2 * self.d
        t, events, pos = clock.t, clock.events, clock.pos
        chunk = _CHUNK
        waits, picks = self._wait_buf.tolist(), self._pick_buf.tolist()
        snaps = []
        room = _MAX_ROWS - clock.n_rows     # snapshot rows left under the cap
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
                    if len(snaps) >= room:
                        _check_rows(clock.n_rows + len(snaps) + 1)
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
                    if nb < 0:
                        continue
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
            clock.k = len(unstable)
            self._unstable[:clock.k] = unstable
            self._where[:] = where
            led._m[:], led._lv[:], led._lc[:] = m, lv, lc
            led._diss[:] = diss, diss_c
            clock.t, clock.events, clock.pos = t, events, pos
            if snaps:
                end = clock.n_rows + len(snaps)
                if end > len(self._rows):
                    self._grow_rows(end)
                self._rows[clock.n_rows:end] = snaps
                clock.n_rows = end

    def _run_compiled(self, lib, t_max, events_stop, next_snap, snapshot_every) -> None:
        """``_run_python`` in ``zp_lattice``, in place on the engine's arrays
        and its clock.

        The kernel appends snapshot rows to ``_rows`` from row ``n_rows`` on
        and returns when the array is full, which then doubles.  The first
        chunk of draws is taken here, before the first call, which would
        return at once for it; so, with the engine's first rows, a run that
        needs no more draws and rows is one call.
        """
        n = self.n
        led, clock = self.ledger, self._clock
        nbr, missing = _neighbor_arrays(self.shape, self.boundary)
        h, unstable, where, k = self.h, self._unstable, self._where, clock.k
        m, lv, lc = led._m, led._lv, led._lc
        # the kernel writes these buffers and indexes with the sites they
        # hold, so they must be this lattice's, of the types it reads
        buffers = {np.float64: (h, lv, lc), np.int64: (unstable, where, m)}
        ok = (0 < k <= n and all(kernel_buffer_ok(a, dtype, n, out=True)
                                 for dtype, arrays in buffers.items() for a in arrays)
              and kernel_buffer_ok(led._diss, np.float64, 2, out=True)
              and kernel_buffer_ok(nbr, np.int32, n * 2 * self.d)
              and kernel_buffer_ok(missing, np.int64, n)
              and kernel_buffer_ok(self._rows, np.float64, self._rows.size, out=True)
              and 0 <= clock.n_rows <= len(self._rows) and self._rows.shape[1:] == (5,))
        if ok:
            u = unstable[:k]
            ok = (u.min() >= 0 and u.max() < n
                  and np.array_equal(where[u], np.arange(k))
                  and np.count_nonzero(where >= 0) == k)
        if not ok:
            raise ValueError("engine state does not match its lattice")
        # this run's limits and snapshot state (zp_clock in _drive.c): the
        # kernel keeps max M from here on, and rescans min M at the first snapshot
        clock.t_max, clock.events_stop = t_max, events_stop
        clock.next_snap, clock.snapshot_every = next_snap, snapshot_every or 0.0
        clock.min_m, clock.n_min, clock.max_m = -1, 0, int(m.max())
        if clock.pos >= _CHUNK and clock.events < events_stop:
            self._refill()
        head = (h.ctypes.data, n, 2 * self.d, nbr.ctypes.data, missing.ctypes.data,
                unstable.ctypes.data, where.ctypes.data, m.ctypes.data, lv.ctypes.data,
                lc.ctypes.data, led._diss.ctypes.data)
        while True:
            status = lib.zp_lattice(*head, self._wait_buf.ctypes.data,
                                    self._pick_buf.ctypes.data, _CHUNK, ctypes.byref(clock),
                                    self._rows.ctypes.data, len(self._rows))
            if status == _REFILL:
                self._refill()
            elif status == _ROWS_FULL:
                self._grow_rows(clock.n_rows + 1)
            else:
                break
        if status == _STABLE:
            self.t_stab = clock.t

    def config(self) -> LatticeConfig:
        return LatticeConfig(self.h.reshape(self.shape), self.boundary)

    def verdict(self) -> StabilizabilityVerdict:
        m = self.ledger._m
        stabilized = not self._clock.k
        return StabilizabilityVerdict(
            outcome="stabilized" if stabilized else "active-at-cutoff",
            t_stab=self.t_stab if stabilized else None,
            t_end=self.t, events=self.events,
            min_m=int(m.min()), max_m=int(m.max()), dissipated=self.ledger.dissipated,
            snapshots=self.snapshots.copy())


def markov_run(config: LatticeConfig, t_max: float, seed: int | None = None,
               rng: np.random.Generator | None = None,
               snapshot_every: float | None = 1.0,
               max_events: int | None = None
               ) -> tuple[StabilizabilityVerdict, LatticeConfig, MassLedger]:
    """One-shot Markov toppling run; returns (verdict, final config, ledger)."""
    eng = MarkovToppling(config, seed=seed, rng=rng)
    eng.run(t_max=t_max, max_events=max_events, snapshot_every=snapshot_every)
    return eng.verdict(), eng.config(), eng.ledger


def min_m_slope(snapshots: np.ndarray) -> float | None:
    """Least-squares slope of min per-site toppling count against time, over
    a snapshot row array (``MarkovToppling.snapshots``)."""
    t, y = snapshots[:, 0], snapshots[:, 2]
    if len(t) < 2 or np.ptp(t) == 0:
        return None
    if not y.any():
        return 0.0      # np.polyfit's least-squares solve gives +0.0 on a zero series
    return float(np.polyfit(t, y, 1)[0])


# ---------------------------------------------------------------------------
# parallel rounds
# ---------------------------------------------------------------------------

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
    received = _neighbor_sum(np.where(unstable, h, 0.0), config.boundary)
    new = np.where(unstable, 0.0, h) + received / (2 * config.dim)
    return LatticeConfig(new, config.boundary)


def _neighbor_sum(arr: np.ndarray, boundary: str) -> np.ndarray:
    """Per site, the sum of ``arr`` over its neighbours, by slices.  Per axis the
    lower neighbour goes into a pair buffer and the upper one is added to it (a
    box's missing neighbour is a 0.0), and then the pair joins the sum."""
    torus = boundary == TORUS
    out = np.zeros_like(arr)
    pair = np.empty_like(arr)
    for ax in range(arr.ndim):
        a, p = np.swapaxes(arr, 0, ax), np.swapaxes(pair, 0, ax)    # views
        p[1:] = a[:-1]
        p[0] = a[-1] if torus else 0.0
        p[:-1] += a[1:]
        p[-1] += a[0] if torus else 0.0
        out += pair
    return out


# ---------------------------------------------------------------------------
# conservation identities
# ---------------------------------------------------------------------------

def mass_identity_check(initial: LatticeConfig, current: LatticeConfig,
                        ledger: MassLedger) -> float:
    """Max residual of eta(t) = eta(0) - L + (1/2d) sum_nbr L, with the
    neighbour sum taken by slices of L (``_neighbor_sum``), not from the
    engine's neighbour table."""
    if initial.sides != current.sides or initial.boundary != current.boundary:
        raise ValueError("initial and current geometries differ")
    if ledger.shape != initial.sides:
        raise ValueError("ledger geometry does not match the configurations")
    L = ledger._lv.reshape(ledger.shape)     # a view: nothing below writes it
    received = _neighbor_sum(L, initial.boundary)
    received /= 2 * initial.dim
    pred = initial.heights - L
    pred += received
    res = np.subtract(current.heights, pred, out=pred)
    return float(np.abs(res, out=res).max())


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
    shape, boundary = tuple(int(s) for s in shape), parse_boundary(boundary)
    _check_geometry(shape, boundary)
    flat = _region_flat(region, shape)
    nbr, _ = _neighbor_arrays(shape, boundary)
    # a missing neighbour's -1 is in no region
    twice = sum(1 for x in flat for y in nbr[x].tolist() if y in flat)
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


def _check_density(spec: DensitySpec, sides, boundary: str) -> tuple[tuple, str]:
    """``sides`` and ``boundary`` parsed, once ``generate`` can draw ``spec`` on them:
    finite heights, even torus sides for a checkerboard, reachable near-full bands."""
    sides = tuple(int(s) for s in sides)
    boundary = parse_boundary(boundary)
    _check_geometry(sides, boundary)
    # every generator draws heights of at most 2 rho (constant: rho)
    top = spec.rho if spec.kind == "constant" else 2.0 * spec.rho
    if not math.isfinite(top * math.prod(sides)):
        raise ValueError(f"rho={spec.rho!r} is too large: the heights on {sides} or "
                         "their total would not be finite")
    if spec.kind == "checkerboard" and boundary == TORUS and any(s % 2 for s in sides):
        raise ValueError("checkerboard on a torus needs even side lengths")
    if spec.kind == "near-full":
        near_full_bands(spec.rho, len(sides))
    return sides, boundary


def generate(spec: DensitySpec, sides, boundary: str = TORUS,
             rng: np.random.Generator | None = None,
             seed: int | None = None) -> LatticeConfig:
    """Draw an initial configuration of the requested density."""
    sides, boundary = _check_density(spec, sides, boundary)
    if rng is None:
        rng = np.random.default_rng(seed)
    rho = spec.rho
    if spec.kind == "constant":
        h = np.full(sides, rho)
    elif spec.kind == "iid-uniform":
        h = rng.uniform(0.0, 2.0 * rho, sides)
    elif spec.kind == "checkerboard":
        parity = int(rng.integers(2))
        grids = np.indices(sides).sum(axis=0)
        h = np.where((grids + parity) % 2 == 0, 2.0 * rho, 0.0)
    elif spec.kind == "near-full":
        bands = near_full_bands(rho, len(sides))
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


def _replica_worker(args) -> dict:
    kind, rho, sides, boundary, t_max, entropy, spawn_key, snapshot_every, \
        max_events = args
    # identical to np.random.SeedSequence(seed).spawn(points)[g].spawn(replicas)[i]
    child = np.random.SeedSequence(entropy=entropy, spawn_key=spawn_key)
    rng = np.random.default_rng(child)
    spec = DensitySpec(kind, rho)
    config = generate(spec, sides, boundary, rng=rng)
    total0 = config.total_mass()
    verdict, final, ledger = markov_run(config, t_max=t_max, rng=rng,
                                        snapshot_every=snapshot_every,
                                        max_events=max_events)
    residual = mass_identity_check(config, final, ledger)
    drift = abs(final.total_mass() - (total0 - ledger.dissipated))
    row = dict(vars(verdict), min_m_slope=min_m_slope(verdict.snapshots),
               mass_residual=residual, mass_drift=drift, mass=total0,
               heights=final.heights.ravel())      # flat float64, C order
    del row["snapshots"]
    return row


def _replica_jobs(spec: DensitySpec, sides, boundary: str, t_max: float, replicas: int,
                  seed, snapshot_every, max_events, g: int) -> list:
    # every check a replica meets runs here first, before any replica or worker starts
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    if t_max == math.inf and max_events is None:
        # a replica that never stabilizes would never end
        raise ValueError("t_max=inf needs max_events")
    _check_run(t_max, snapshot_every, max_events)
    sides, boundary = _check_density(spec, sides, boundary)
    entropy = np.random.SeedSequence(seed).entropy
    return [(spec.kind, spec.rho, sides, boundary, t_max,
             entropy, (g, i), snapshot_every, max_events)
            for i in range(replicas)]


def stabilizability_sweep(specs, sides, boundary: str, t_max: float, replicas: int,
                          seed: int | None = None,
                          snapshot_every: float | None = 1.0,
                          max_events: int | None = None,
                          workers: int = 1) -> list[ExperimentSummary]:
    """Replicated Markov runs at each density spec of a grid, in order; grid point
    ``g`` seeds replica ``i`` with the spawn key (g, i).  Every point is checked
    before any replica runs, and all replicas of the grid share one ``Pool`` if
    ``workers`` > 1."""
    grid = [_replica_jobs(spec, sides, boundary, t_max, replicas, seed, snapshot_every,
                          max_events, g)
            for g, spec in enumerate(specs)]
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
        stabilized = sum(r["outcome"] == "stabilized" for r in mine)
        out.append(ExperimentSummary(rows=mine, fraction_stabilized=stabilized / len(mine)))
    return out
