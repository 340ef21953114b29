"""Three-phase coupling of two (N,[a,b]) chains.

Two copies of the process are driven so that they become identical after an
almost-surely finite time (a successful coupling, which is what pins down
the stationary distribution and total-variation convergence):

1. independent phase: both chains evolve on their own streams until they sit
   in a boundary-empty-all-full configuration simultaneously, on the same
   side; by reflection symmetry both are then treated as empty at site N.
2. contraction phase: both receive the same site and amount.  The driving
   event is heavy additions aimed at the empty boundary, alternating sides
   after each full-sweep avalanche; after each avalanche the dependence on
   the initial heights shrinks geometrically.
3. merging phase: additions go to site 1 with amounts from a narrow
   schedule; at each avalanche chain B's amount is offset by a correction D_k
   that forces exact equality at one more site.  After N-1 avalanches the
   chains agree everywhere.

Any draw that violates the running phase's requirements sends the coupling
back to phase 1 (the chains keep their current configurations).  In every
phase each chain's marginal stream of (site, amount) pairs is exactly that
of the unconditioned process, so the construction is a genuine coupling.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from multiprocessing import Pool

import numpy as np

from .core import (
    DEFAULT_TOPPLE_CAP,
    _NO_LIMIT,
    CouplingState,
    InvariantViolation,
    _c_array,
    _e_class_0,
    _eb_side,
    _relax_leftmost,
    cap_error,
    chain_kernel,
    check_count,
    check_window,
    stable_heights,
)
from .seeding import AdditionStream, substreams

_CHUNK = 8192
_EQ_TOL = 1e-9      # float slack on mathematically exact equalities

# why a draw sent the pair back to the independent phase (Coupling.restarts_by_cause)
RESTART_CAUSES = ("contraction-site", "contraction-light", "merging-site",
                  "merging-window", "merging-topple")

# the phase numbers and restart causes of CouplingState, and zp_couple's
# return statuses (_drive.c)
_PHASES = ("independent", "contraction", "merging", "merged")
_INDEPENDENT, _CONTRACTION, _MERGING, _MERGED = range(4)
_CON_SITE, _CON_LIGHT, _MER_SITE, _MER_WINDOW, _MER_TOPPLE = range(5)
(_ZC_DONE, _ZC_REFILL, _ZC_CAP, _ZC_DESYNC, _ZC_NOT_EN, _ZC_BAD_SITE, _ZC_STAGE,
 _ZC_NO_FIRE, _ZC_COUNT, _ZC_SITE, _ZC_UNEQUAL) = range(11)
_DESYNC = "contraction avalanches desynchronized"
_NOT_EN = "contraction avalanche did not land in E_N"
_NO_FIRE = "scheduled merge avalanche failed to fire"
_COUNT = "merge avalanche count exceeded n-1"
_UNEQUAL = "merge completed with unequal configurations"
_GATE_MESSAGES = {_ZC_DESYNC: _DESYNC, _ZC_NOT_EN: _NOT_EN, _ZC_NO_FIRE: _NO_FIRE,
                  _ZC_COUNT: _COUNT, _ZC_UNEQUAL: _UNEQUAL}


# ---------------------------------------------------------------------------
# closed-form constants
# ---------------------------------------------------------------------------

def _check_n(n: int) -> None:
    if n < 2:
        raise ValueError("coupling constants need n >= 2")


def _validate_abn(a: float, b: float, n: int) -> None:
    _check_n(n)
    check_window(a, b)


def epsilon_abn(a: float, b: float, n: int) -> float:
    """Merge-phase entry tolerance: (b-a) / (6 + 16 * prod_{l=1}^{n-1} (1 + 2^(n-2-l)))."""
    _validate_abn(a, b, n)
    prod = 1.0
    for l in range(1, n):
        prod *= 1.0 + 2.0 ** (n - 2 - l)
    return (b - a) / (6.0 + 16.0 * prod)


def epsilon_schedule(a: float, b: float, n: int) -> list[float]:
    """eps_1..eps_n with eps_{k+1} = (1 + 2^(n-k-2)) eps_k, eps_1 = epsilon_abn."""
    eps = [epsilon_abn(a, b, n)]
    for k in range(1, n):
        eps.append((1.0 + 2.0 ** (n - k - 2)) * eps[-1])
    return eps


def d_bounds(a: float, b: float, n: int) -> list[float]:
    """Bounds d_1..d_{n-1} on the merge corrections: d_k = 2^(n-k) eps_k."""
    eps = epsilon_schedule(a, b, n)
    return [2.0 ** (n - k) * eps[k - 1] for k in range(1, n)]


def contraction_base(n: int) -> float:
    """Per-avalanche geometric factor 1 - 2^(-ceil(3n/2))."""
    return 1.0 - 2.0 ** (-math.ceil(1.5 * n))


def t_epsilon(a: float, b: float, n: int, eps: float) -> int:
    """Forced-contraction step budget to shrink the max height gap below eps."""
    _validate_abn(a, b, n)
    return math.ceil(2.0 / (a + b)) * k_epsilon(n, eps)


def k_epsilon(n: int, eps: float) -> int:
    """Even number of forced avalanches after which the gap is below eps."""
    _check_n(n)
    ratio = 2.0 * eps / n
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"need 0 < 2*eps/n < 1, got {ratio}")
    return 2 * math.ceil(math.log(ratio) / math.log(contraction_base(n)))


@dataclass(frozen=True)
class CouplingConstants:
    a: float
    b: float
    n: int
    eps1: float
    eps_schedule: list[float]
    t_eps: int
    d_bounds: list[float]


def coupling_constants(a: float, b: float, n: int) -> CouplingConstants:
    eps = epsilon_schedule(a, b, n)
    return CouplingConstants(a=a, b=b, n=n, eps1=eps[0], eps_schedule=eps,
                             t_eps=t_epsilon(a, b, n, eps[0]),
                             d_bounds=d_bounds(a, b, n))


def correction_D(diff, k: int, n: int) -> float:
    """Merge correction D_k = sum_{y=1}^{n-k} 2^(y-1) * diff[y-1].

    ``diff`` holds per-site height differences (chain A minus chain B) from
    site 1 upward; only the first n-k entries enter.
    """
    if not 1 <= k <= n - 1:
        raise ValueError(f"avalanche index k={k} out of range 1..{n - 1}")
    if len(diff) < n - k:
        raise ValueError(f"need at least {n - k} difference entries, got {len(diff)}")
    total = 0.0
    w = 1.0
    for y in range(n - k):
        total += w * float(diff[y])
        w *= 2.0
    return total


def coupled_amount(u_eta: float, D: float, a: float, b: float) -> float:
    """Chain B's addition a + (u_eta + D - a) mod (b-a); uniform in, uniform out.

    Where rounding lands the sum on b itself, the largest double below b
    stands in for it, so the result always lies in [a, b).
    """
    v = a + (u_eta + D - a) % (b - a)
    return v if v < b else math.nextafter(b, a)


# ---------------------------------------------------------------------------
# linear shadow of the contraction dynamics
# ---------------------------------------------------------------------------

class CoefficientTracker:
    """Exact linear bookkeeping of full-sweep avalanches.

    After k avalanches the height vector equals A(k)^T S + B(k)^T eta(0)
    where S collects the per-avalanche boundary addition totals.  The columns
    of ``coef`` are [eta_1..eta_n | S_1..S_k].
    """

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("tracker needs n >= 2")
        self.n = n
        self.coef = np.eye(n)

    @property
    def n_avalanches(self) -> int:
        return self.coef.shape[1] - self.n

    @property
    def B(self) -> np.ndarray:
        return self.coef[:, :self.n].copy()

    @property
    def A(self) -> np.ndarray:
        return self.coef[:, self.n:].T.copy()

    @property
    def max_b(self) -> float:
        return float(np.abs(self.coef[:, :self.n]).max())

    def apply_avalanche(self, side: str) -> None:
        """Compose one full sweep: side 'N' sweeps N->1, side '1' sweeps 1->N.

        Side '1' is the side-'N' sweep on the mirrored rows, flipped back
        into a C-contiguous array, so that ``predict`` keeps its bits.
        """
        if side not in ("N", "1"):
            raise ValueError(f"side must be 'N' or '1', got {side!r}")
        n = self.n
        m = np.hstack([self.coef, np.zeros((n, 1))])
        if side == "1":
            m = m[::-1]
        h = np.empty(m.shape)
        h[n - 1] = m[n - 1]
        h[n - 1, -1] += 1.0
        for j in range(n - 2, -1, -1):
            h[j] = m[j] + 0.5 * h[j + 1]
        new = np.zeros(m.shape)
        new[1:] = 0.5 * h[:-1]
        self.coef = new if side == "N" else np.ascontiguousarray(new[::-1])

    def predict(self, eta0, s_values) -> np.ndarray:
        if len(s_values) != self.n_avalanches:
            raise ValueError("need one S value per tracked avalanche")
        vec = np.concatenate([np.asarray(eta0, dtype=float),
                              np.asarray(s_values, dtype=float)])
        return self.coef @ vec


# ---------------------------------------------------------------------------
# the coupling engine
# ---------------------------------------------------------------------------

@dataclass
class CouplingResult:
    seed: int | None
    merged: bool
    merge_time: int | None
    restarts: int
    phase_times: list[int]      # steps spent in [independent, contraction, merging]
    steps: int
    final_merging_steps: int | None = None   # length of the successful merge attempt
    post_merge_identical: bool | None = None

    def to_record(self) -> dict:
        return {"seed": self.seed, "merged": self.merged,
                "merge_time": self.merge_time, "restarts": self.restarts,
                "phase_times": self.phase_times}


class Coupling:
    """Coupled pair of (N,[a,b]) chains plus the three-phase bookkeeping.

    The pair's state, all but the heights and the stream positions, is one
    ``core.CouplingState`` for the pair's whole life.  The compiled kernel
    (``zp_couple``) updates it in place, and the Python reference (``step``
    and the methods it calls) reads and writes the same fields with the
    kernel's conventions: phase numbers, -1 for a chain not in E_b, and the
    step and restart counts as arrays.  The heights ``hA`` and ``hB`` stay
    lists, on which the reference relaxes; a kernel call copies them in and
    out.  With ``record_streams`` every step runs on the Python reference,
    which appends each chain's (site, amount) to ``streamA`` and ``streamB``.
    """

    def __init__(self, eta_a, eta_b, a: float, b: float, seed: int | None = None,
                 record_streams: bool = False, cap: int = DEFAULT_TOPPLE_CAP):
        eta_a = stable_heights(eta_a)
        n = len(eta_a)
        eta_b = stable_heights(eta_b, n)
        _validate_abn(a, b, n)
        self.n = n
        self.a = a
        self.b = b
        self.cap = cap
        self.hA = eta_a
        self.hB = eta_b
        # chain A's and chain B's own additions, and the shared coupled stream;
        # children 0 and 1 are reserved for initial-configuration draws (see
        # _sweep_one) so seed layouts match across entry points
        self._addA, self._addB, self._addC = (AdditionStream(g, n, a, b, _CHUNK)
                                              for g in substreams(seed, 5)[2:])
        self._chunk_args: list = [None] * 3
        consts = coupling_constants(a, b, n)
        # zp_couple's arrays: the eps schedule and the bounds d_k, which the
        # Python reference reads too, the heights of a call and the merged
        # pair's scratch copy of chain B
        self._eps = (ctypes.c_double * (n - 1))(*consts.eps_schedule[:n - 1])
        self._dbound = (ctypes.c_double * (n - 1))(*consts.d_bounds)
        self._cA = (ctypes.c_double * n)()
        self._cB = (ctypes.c_double * n)()
        self._cS = (ctypes.c_double * n)()
        self._st = st = CouplingState(half=0.5 * (a + b), eps1=consts.eps1, tol=_EQ_TOL,
                                      a=a, b=b, target=n, ebA=_eb_side(self.hA),
                                      ebB=_eb_side(self.hB))
        self.merge_time: int | None = None
        self.final_merging_steps: int | None = None
        self.record_streams = record_streams
        self.streamA: list[tuple[int, float]] = []
        self.streamB: list[tuple[int, float]] = []
        if self.hA == self.hB:
            st.phase = _MERGED
            self.merge_time = 0
        else:
            self._maybe_enter_coupled()

    # -- the public view of the state ------------------------------------------

    @property
    def t(self) -> int:
        return self._st.t

    @property
    def phase(self) -> str:
        return _PHASES[self._st.phase]

    @property
    def flip(self) -> bool:
        """Whether the coupled phases run in the mirrored frame (empty boundary at site 1)."""
        return bool(self._st.flip)

    @property
    def phase_steps(self) -> dict[str, int]:
        return dict(zip(_PHASES, self._st.steps))

    @property
    def restarts_by_cause(self) -> dict[str, int]:
        return dict(zip(RESTART_CAUSES, self._st.causes))

    @property
    def restarts(self) -> int:
        """Restarts so far: the sum of ``restarts_by_cause``."""
        return sum(self._st.causes)

    # -- geometry helpers ---------------------------------------------------

    def _phys(self, s: int) -> int:
        """Physical 0-based index of 1-based logical site s."""
        return self.n - s if self._st.flip else s - 1

    def _apply(self, h: list, x: int, u: float) -> int:
        h[x] += u
        if h[x] >= 1.0:
            return _relax_leftmost(h, x, self.cap)
        return 0

    def _add(self, x: int, u: float, uB: float) -> tuple[int, int]:
        """Add ``u`` to chain A and ``uB`` to chain B at site ``x`` and relax
        both, recording the pair if asked; the topplings of each."""
        nA = self._apply(self.hA, x, u)
        nB = self._apply(self.hB, x, uB)
        if self.record_streams:
            self.streamA.append((x, u))
            self.streamB.append((x, uB))
        return nA, nB

    def _maxdiff(self) -> float:
        """The largest |hA - hB| over the sites; NaN if some difference is NaN."""
        d = 0.0
        for x, y in zip(self.hA, self.hB):
            v = abs(x - y)
            if v > d or v != v:
                d = v
        return d

    # -- phase transitions ----------------------------------------------------

    def _maybe_enter_coupled(self) -> None:
        st = self._st
        if st.ebA >= 0 and st.ebA == st.ebB:
            # shared frame flip so the empty boundary reads as logical site N
            st.flip = st.ebA == 0
            if self._maxdiff() < st.eps1:
                self._enter_merging()
            else:
                st.phase = _CONTRACTION
                st.k_aval = 0
                st.target = self.n

    def _enter_merging(self) -> None:
        st = self._st
        st.phase = _MERGING
        st.mk = 1
        st.merging_steps = 0
        self._stage_init()

    def _stage_init(self) -> None:
        st = self._st
        k = st.mk
        n = self.n
        eps_k = self._eps[k - 1]
        a2 = st.half
        ap = a2 + 3.0 * eps_k
        if not (ap < self.b and a2 + 2.0 * eps_k <= self.b):
            raise InvariantViolation("merge-phase addition intervals are ill-formed")
        st.between_hi = a2 + 2.0 * eps_k
        q = 0.25 * (self.b - ap)
        st.av_lo = ap + q
        st.av_hi = self.b - q
        st.thresh = 1.0 - a2 - 2.0 * eps_k
        diff = [self.hA[self._phys(y)] - self.hB[self._phys(y)] for y in range(1, n - k + 1)]
        D = correction_D(diff, k, n)
        dk = self._dbound[k - 1]
        if not abs(D) <= dk + _EQ_TOL:
            raise InvariantViolation(f"|D_{k}|={abs(D):.3e} exceeds its bound {dk:.3e}")
        st.Dk = D

    def _check_stage_sites(self, k: int) -> None:
        # after merge avalanche k, logical sites n-k+1..n must agree
        for s in range(self.n - k + 1, self.n + 1):
            p = self._phys(s)
            if not abs(self.hA[p] - self.hB[p]) <= _EQ_TOL:
                raise InvariantViolation(f"merge avalanche {k} left site {s} unequal")

    def _restart(self, x: int, u: float, cause: int, applied: bool = False) -> None:
        # a draw broke the running phase's requirements: both chains still
        # take the (equal) step, then everything returns to phase 1
        st = self._st
        if not applied:
            self._add(x, u, u)
        st.ebA = _eb_side(self.hA)
        st.ebB = _eb_side(self.hB)
        st.causes[cause] += 1
        st.phase = _INDEPENDENT
        self._maybe_enter_coupled()

    # -- stepping ------------------------------------------------------------

    def step(self) -> None:
        """Advance the coupled pair by one time step."""
        st = self._st
        phase = st.phase
        if phase == _INDEPENDENT:
            self._run_independent(st.t + 1)     # keeps t and the step counts itself
            return
        if phase == _CONTRACTION:
            self._step_contraction()
        elif phase == _MERGING:
            self._step_merging()
        else:
            self._step_merged()
        st.steps[phase] += 1
        st.t += 1
        if st.phase == _MERGED and self.merge_time is None:
            self.merge_time = st.t

    def _step_contraction(self) -> None:
        st = self._st
        x, u = self._addC.draw()
        target = self._phys(st.target)
        if x != target or u < st.half:
            self._restart(x, u, _CON_SITE if x != target else _CON_LIGHT)
            return
        nA, nB = self._add(x, u, u)
        if (nA > 0) != (nB > 0):
            raise InvariantViolation(_DESYNC)
        if nA:
            st.k_aval += 1
            st.target = 1 if st.target == self.n else self.n
            if st.k_aval % 2 == 0:
                # after an even number of full sweeps both sit in logical E_N
                pN = self._phys(self.n)
                if _e_class_0(self.hA) != pN or _e_class_0(self.hB) != pN:
                    raise InvariantViolation(_NOT_EN)
                if self._maxdiff() < st.eps1:
                    self._enter_merging()

    def _step_merging(self) -> None:
        st = self._st
        x, u = self._addC.draw()
        st.merging_steps += 1
        p1 = self._phys(1)
        leader = max(self.hA[p1], self.hB[p1])
        if leader > st.thresh:
            # this draw must trigger avalanche number mk in both chains
            if x != p1 or not st.av_lo <= u <= st.av_hi:
                self._restart(x, u, _MER_SITE if x != p1 else _MER_WINDOW)
                return
            nA, nB = self._add(x, u, coupled_amount(u, st.Dk, self.a, self.b))
            if nA == 0 or nB == 0:
                raise InvariantViolation(_NO_FIRE)
            k = st.mk
            if k > self.n - 1:
                raise InvariantViolation(_COUNT)
            self._check_stage_sites(k)
            st.mk += 1
            if st.mk > self.n - 1:
                if not self._maxdiff() <= _EQ_TOL:
                    raise InvariantViolation(_UNEQUAL)
                # mathematically exact equality; drop the float dust so the
                # merged pair is bitwise identical from here on
                self.hB = self.hA.copy()
                self.final_merging_steps = st.merging_steps
                st.phase = _MERGED
            else:
                self._stage_init()
        else:
            if x != p1 or not st.half <= u <= st.between_hi:
                self._restart(x, u, _MER_SITE if x != p1 else _MER_WINDOW)
                return
            nA, nB = self._add(x, u, u)
            if nA or nB:
                # sub-threshold addition toppled (exact-boundary edge); retry
                self._restart(x, u, _MER_TOPPLE, applied=True)

    def _step_merged(self) -> None:
        x, u = self._addC.draw()
        self._add(x, u, u)

    # -- driving ---------------------------------------------------------------

    def run(self, max_steps: int) -> None:
        """Step until merged or ``max_steps`` total steps, a whole number >= 0.

        The whole coupling up to the merge, restarts included, runs on the
        compiled kernel if it loads and the streams are not recorded, in one
        ``zp_couple`` call per stream chunk; the call that reaches the merge
        returns there.  Otherwise the Python reference steps the pair.
        """
        self._drive(check_count(max_steps, "max_steps"), past_merge=False)

    def run_steps(self, steps: int) -> bool:
        """Advance ``steps`` steps, a whole number >= 0, in whatever phases
        they fall.

        Returns whether the chains were equal after every step; on a merged
        pair that is the check that the merge holds.  Every phase runs on the
        compiled kernel if it loads and the streams are not recorded, in one
        ``zp_couple`` call per stream chunk and one more past the merge;
        otherwise on the Python reference.
        """
        return not self._drive(self.t + check_count(steps, "steps"), past_merge=True)

    def _drive(self, stop: int, past_merge: bool) -> int:
        # run's and run_steps's loop, on the backend picked once: until the
        # clock reaches stop or, unless past_merge, the pair merges.  Returns
        # the steps after which hA != hB, which run ignores: its Python loop
        # batches the independent phase and leaves those steps uncounted.
        lib = None if self.record_streams else chain_kernel()
        st = self._st
        differed = 0
        while st.t < stop and (past_merge or st.phase != _MERGED):
            if lib is not None:
                differed += self._run_coupled(lib, stop)
            elif not past_merge and st.phase == _INDEPENDENT:
                self._run_independent(stop)
            else:
                self.step()
                differed += self.hA != self.hB
        return differed

    def _own_step(self, h: list, add: AdditionStream, eb: int) -> tuple[int, float, int]:
        # one chain's half of an independent step, as own_step in _drive.c:
        # the chain's next own addition, relaxed.  eb, its E_b side, is
        # recomputed after an avalanche; an addition that does not topple
        # only clears it when it lands on the empty site.
        x, u = add.draw()
        if self._apply(h, x, u):
            eb = _eb_side(h)
        elif x == eb:
            eb = -1
        return x, u, eb

    def _run_independent(self, max_steps: int) -> None:
        # the independent phase dominates every run, so its loop keeps the
        # E_b sides and the step count in locals until the chains enter a
        # coupled phase or the clock reaches max_steps
        st = self._st
        hA, hB = self.hA, self.hB
        addA, addB = self._addA, self._addB
        own_step = self._own_step
        record = self.record_streams
        ebA, ebB = st.ebA, st.ebB
        steps = 0
        budget = max_steps - st.t
        try:
            while steps < budget:
                xA, uA, ebA = own_step(hA, addA, ebA)
                xB, uB, ebB = own_step(hB, addB, ebB)
                if record:
                    self.streamA.append((xA, uA))
                    self.streamB.append((xB, uB))
                steps += 1
                if ebA >= 0 and ebA == ebB:
                    break
        finally:
            # a topple-cap error keeps the completed steps and the failing
            # step's draws, as zp_couple does
            st.t += steps
            st.steps[_INDEPENDENT] += steps
            st.ebA = ebA
            st.ebB = ebB
        self._maybe_enter_coupled()

    def _run_coupled(self, lib, stop: int) -> int:
        # the pair on zp_couple, restarts included, until it merges (if it has
        # not yet), the clock reaches stop or a gate trips; kernel calls end
        # where a stream chunk the running phase needs runs out.  Only the
        # heights and the stream positions are copied in and out.  Returns
        # the steps after which hA != hB.
        n = self.n
        st = self._st
        was_merged = st.phase == _MERGED
        streams = (self._addA, self._addB, self._addC)
        hA, hB = self._cA, self._cB
        hA[:] = self.hA
        hB[:] = self.hB
        st.t_stop = min(stop, _NO_LIMIT)
        st.differed = 0
        st.posA, st.posB, st.posC = (add.pos for add in streams)
        try:
            while True:
                status = lib.zp_couple(hA, hB, self._cS, n, min(self.cap, _NO_LIMIT),
                                       *self._kernel_chunks(streams),
                                       self._eps, self._dbound, ctypes.byref(st))
                if status == _ZC_REFILL:
                    if st.phase == _INDEPENDENT:
                        if st.posA >= streams[0].site_array.size:
                            streams[0].refill()
                            st.posA = 0
                        if st.posB >= streams[1].site_array.size:
                            streams[1].refill()
                            st.posB = 0
                    else:
                        streams[2].refill()
                        st.posC = 0
                elif (status != _ZC_DONE or st.t >= stop
                      or (not was_merged and st.phase == _MERGED)):
                    break
        finally:
            self.hA[:] = hA
            self.hB[:] = hB
            streams[0].pos, streams[1].pos, streams[2].pos = st.posA, st.posB, st.posC
        if st.phase == _MERGED and not was_merged:
            self.merge_time = st.t
            self.final_merging_steps = st.merging_steps
        if status == _ZC_CAP:
            raise cap_error(self.cap)
        elif status == _ZC_BAD_SITE:
            raise ValueError(f"kernel argument sites: need values in 0..{n - 1}")
        elif status in (_ZC_STAGE, _ZC_SITE):
            # the Python check reruns on the same bits and raises with its message
            if status == _ZC_STAGE:
                self._stage_init()
            else:
                self._check_stage_sites(st.mk)
            raise InvariantViolation(f"zp_couple gate {status} did not recur in Python")
        elif status in _GATE_MESSAGES:
            raise InvariantViolation(_GATE_MESSAGES[status])
        return st.differed

    def _kernel_chunks(self, streams) -> list:
        # zp_couple's (sites, amts, length) arguments of the stream chunks; a
        # chunk's arrays are checked and their addresses taken once
        args = []
        for i, add in enumerate(streams):
            held = self._chunk_args[i]
            if held is None or held[0] is not add.site_array or held[1] is not add.amt_array:
                m = add.site_array.size
                held = self._chunk_args[i] = (
                    add.site_array, add.amt_array,
                    _c_array(add.site_array, np.int64, m, "sites"),
                    _c_array(add.amt_array, np.float64, m, "amts"), m)
            args += held[2:]
        return args

    def result(self, seed: int | None = None,
               post_merge_identical: bool | None = None) -> CouplingResult:
        return CouplingResult(
            seed=seed,
            merged=self._st.phase == _MERGED,
            merge_time=self.merge_time,
            restarts=self.restarts,
            phase_times=self._st.steps[:3],
            steps=self._st.t,
            final_merging_steps=self.final_merging_steps,
            post_merge_identical=post_merge_identical,
        )


# ---------------------------------------------------------------------------
# seed sweeps
# ---------------------------------------------------------------------------

def _check_init(mode, n: int):
    """"zeros", "random", or ``mode`` as a checked stable chain of ``n`` heights."""
    if isinstance(mode, str):
        if mode not in ("zeros", "random"):
            raise ValueError(f"unknown init mode {mode!r}")
        return mode
    return stable_heights(mode, n)


def _init_config(mode, n: int, gen: np.random.Generator) -> list:
    """The start that ``mode``, checked by ``_check_init``, names."""
    if mode == "zeros":
        return [0.0] * n
    if mode == "random":
        return gen.uniform(0.0, 1.0, n).tolist()
    return mode


def _sweep_one(args) -> CouplingResult:
    n, a, b, seed, max_steps, init_a, init_b, post_merge_steps = args
    # children 0 and 1 of the seed draw the starts; Coupling spawns 2-4 itself
    gen_a, gen_b = substreams(seed, 2)
    c = Coupling(_init_config(init_a, n, gen_a), _init_config(init_b, n, gen_b), a, b, seed)
    c.run(max_steps)
    post_ok = None
    if post_merge_steps and c.phase == "merged":
        post_ok = c.run_steps(post_merge_steps)
    return c.result(seed, post_merge_identical=post_ok)


def coupling_sweep(n: int, a: float, b: float, seeds, max_steps: int,
                   init_a="random", init_b="random", workers: int = 1,
                   post_merge_steps: int = 0) -> list[CouplingResult]:
    """One coupling run per seed; results in seed order regardless of workers.

    With ``post_merge_steps`` > 0, merged pairs are driven that many further
    steps while checking that they stay identical.  Both step counts are
    whole numbers >= 0.
    """
    max_steps = check_count(max_steps, "max_steps")
    post_merge_steps = check_count(post_merge_steps, "post_merge_steps")
    init_a, init_b = _check_init(init_a, n), _check_init(init_b, n)
    _validate_abn(a, b, n)
    seeds = [int(s) for s in seeds]
    if seeds and min(seeds) < 0:
        raise ValueError(f"seeds must be >= 0, got {min(seeds)}")
    jobs = [(n, a, b, s, max_steps, init_a, init_b, post_merge_steps) for s in seeds]
    if workers > 1 and len(jobs) > 1:
        chain_kernel()      # build and load once, before the workers fork
        width = min(workers, len(jobs))     # no idle workers to fork
        with Pool(width) as pool:
            return pool.map(_sweep_one, jobs, chunksize=max(1, len(jobs) // (4 * width)))
    return [_sweep_one(j) for j in jobs]


# ---------------------------------------------------------------------------
# forced-contraction verification
# ---------------------------------------------------------------------------

@dataclass
class ContractionReport:
    n: int
    k_max: int
    base: float
    max_residual: float
    max_b_per_avalanche: list[float]
    b_bounds: list[float]
    max_diff_per_avalanche: list[float]
    diff_bounds: list[float]
    max_gap_steps: int
    gap_bound: int


def verify_contraction(n: int, k_max: int, seed, a: float = 0.0,
                       b: float = 1.0) -> ContractionReport:
    """Run the forced contraction dynamics against the linear shadow.

    Two random boundary-empty-all-full chains receive identical heavy
    additions aimed at the empty boundary.  At every avalanche the tracked
    coefficient matrix must obey the geometric bound and reproduce the
    simulated heights to ``_EQ_TOL``; the height gap must obey the matching
    (n/2) * base^k bound.  Violations, NaN included, raise, since they
    falsify either the implementation or the bookkeeping.
    """
    _validate_abn(a, b, n)
    rng = np.random.default_rng(seed)
    base = contraction_base(n)
    half = 0.5 * (a + b)
    eta_a0 = rng.uniform(0.5, 1.0, n)
    eta_b0 = rng.uniform(0.5, 1.0, n)
    eta_a0[n - 1] = 0.0
    eta_b0[n - 1] = 0.0
    hA = eta_a0.tolist()
    hB = eta_b0.tolist()
    tracker = CoefficientTracker(n)
    s_values: list[float] = []
    side = "N"
    max_resid = 0.0
    max_gap = 0
    gap_bound = math.ceil(2.0 / (a + b))
    max_bs, b_bnds, max_diffs, diff_bnds = [], [], [], []
    for k in range(1, k_max + 1):
        target = n - 1 if side == "N" else 0
        adds = 0
        while hA[target] < 1.0:
            u = float(rng.uniform(half, b))
            hA[target] += u
            hB[target] += u
            adds += 1
        max_gap = max(max_gap, adds)
        if adds > gap_bound:
            raise InvariantViolation(
                f"avalanche {k} needed {adds} heavy additions (> {gap_bound})")
        s_k = hA[target]
        if hB[target] != s_k:
            raise InvariantViolation("boundary accumulations diverged")
        nA = _relax_leftmost(hA, target)
        nB = _relax_leftmost(hB, target)
        if nA != n or nB != n:
            raise InvariantViolation("contraction avalanche was not a full sweep")
        tracker.apply_avalanche(side)
        s_values.append(s_k)
        for h, eta0 in ((hA, eta_a0), (hB, eta_b0)):
            resid = float(np.abs(np.array(h) - tracker.predict(eta0, s_values)).max())
            max_resid = max(max_resid, resid)
            if not resid <= _EQ_TOL:
                raise InvariantViolation(
                    f"linear shadow residual {resid:.3e} > {_EQ_TOL} at avalanche {k}")
        bound = base ** k
        max_b = tracker.max_b
        max_bs.append(max_b)
        b_bnds.append(bound)
        if not max_b <= bound + 1e-12:
            raise InvariantViolation(
                f"B entry {max_b:.6f} exceeds bound {bound:.6f} at avalanche {k}")
        diff = float(np.abs(np.subtract(hA, hB)).max())     # NaN if a difference is
        dbound = 0.5 * n * bound
        max_diffs.append(diff)
        diff_bnds.append(dbound)
        if not diff <= dbound + _EQ_TOL:
            raise InvariantViolation(
                f"height gap {diff:.6f} exceeds bound {dbound:.6f} at avalanche {k}")
        side = "1" if side == "N" else "N"
    return ContractionReport(n=n, k_max=k_max, base=base, max_residual=max_resid,
                             max_b_per_avalanche=max_bs, b_bounds=b_bnds,
                             max_diff_per_avalanche=max_diffs, diff_bounds=diff_bnds,
                             max_gap_steps=max_gap, gap_bound=gap_bound)
