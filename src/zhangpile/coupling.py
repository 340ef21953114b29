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
    CouplingState,
    InvariantViolation,
    _c_array,
    _e_class_0,
    _eb_side,
    _relax_leftmost,
    cap_error,
    chain_kernel,
    check_window,
    stable_heights,
)
from .seeding import AdditionStream, substreams

PHASE_INDEPENDENT = "independent"
PHASE_CONTRACTION = "contraction"
PHASE_MERGING = "merging"
PHASE_MERGED = "merged"

_CHUNK = 8192
_EQ_TOL = 1e-9      # float slack on mathematically exact equalities
_REC_ROWS = 2 * _CHUNK  # steps per zp_couple call while recording streams

# why a draw sent the pair back to the independent phase (Coupling.restarts_by_cause)
RESTART_CAUSES = ("contraction-site", "contraction-light", "merging-site",
                  "merging-window", "merging-topple")

# zp_couple's phase numbers and return statuses (_drive.c)
_KERNEL_PHASES = (PHASE_INDEPENDENT, PHASE_CONTRACTION, PHASE_MERGING, PHASE_MERGED)
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

def _validate_abn(a: float, b: float, n: int) -> None:
    if n < 2:
        raise ValueError("coupling constants need n >= 2")
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
    ratio = 2.0 * eps / n
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"need 0 < 2*eps/n < 1, got {ratio}")
    inner = math.ceil(math.log(ratio) / math.log(contraction_base(n)))
    return 2 * math.ceil(2.0 / (a + b)) * inner


def k_epsilon(n: int, eps: float) -> int:
    """Even number of forced avalanches after which the gap is below eps."""
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
        """Compose one full sweep: side 'N' sweeps N->1, side '1' sweeps 1->N."""
        n = self.n
        m = np.hstack([self.coef, np.zeros((n, 1))])
        h = np.empty_like(m)
        new = np.zeros_like(m)
        if side == "N":
            h[n - 1] = m[n - 1]
            h[n - 1, -1] += 1.0
            for j in range(n - 2, -1, -1):
                h[j] = m[j] + 0.5 * h[j + 1]
            for j in range(1, n):
                new[j] = 0.5 * h[j - 1]
        elif side == "1":
            h[0] = m[0]
            h[0, -1] += 1.0
            for j in range(1, n):
                h[j] = m[j] + 0.5 * h[j - 1]
            for j in range(n - 1):
                new[j] = 0.5 * h[j + 1]
        else:
            raise ValueError(f"side must be 'N' or '1', got {side!r}")
        self.coef = new

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
    """Coupled pair of (N,[a,b]) chains plus the three-phase bookkeeping."""

    def __init__(self, eta_a, eta_b, a: float, b: float, seed: int | None = None,
                 record_streams: bool = False, cap: int = DEFAULT_TOPPLE_CAP,
                 _streams=None):
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
        if _streams is None:
            # children 0 and 1 are reserved for initial-configuration draws
            # (see coupling_sweep) so seed layouts match across entry points
            _streams = substreams(seed, 5)[2:]
        # chain A's and chain B's own additions, and the shared coupled stream
        self._addA, self._addB, self._addC = (AdditionStream(g, n, a, b, _CHUNK)
                                              for g in _streams)
        self._chunk_args: list = [None] * 3
        consts = coupling_constants(a, b, n)
        self.constants = consts
        self.eps1 = consts.eps1
        self._half = 0.5 * (a + b)
        self.t = 0
        self.restarts_by_cause = dict.fromkeys(RESTART_CAUSES, 0)
        self.merge_time: int | None = None
        self.phase_steps = {PHASE_INDEPENDENT: 0, PHASE_CONTRACTION: 0,
                            PHASE_MERGING: 0, PHASE_MERGED: 0}
        self.flip = False
        self._k_aval = 0            # contraction avalanches, and the next
        self._targetL = n           # logical target site of the contraction
        # the merging stage: avalanche number, steps of this attempt, the
        # correction D_k and the addition windows (_stage_init)
        self._mk = 0
        self._merging_steps = 0
        self._Dk = self._between_hi = self._av_lo = self._av_hi = self._thresh = 0.0
        self.final_merging_steps: int | None = None
        self.record_streams = record_streams
        self.streamA: list[tuple[int, float]] = []
        self.streamB: list[tuple[int, float]] = []
        self._ebA = _eb_side(self.hA)
        self._ebB = _eb_side(self.hB)
        if self.hA == self.hB:
            self.phase = PHASE_MERGED
            self.merge_time = 0
        else:
            self.phase = PHASE_INDEPENDENT
            self._maybe_enter_coupled()

    # -- geometry helpers ---------------------------------------------------

    def _phys(self, s: int) -> int:
        """Physical 0-based index of 1-based logical site s."""
        return self.n - s if self.flip else s - 1

    def _apply(self, h: list, x: int, u: float) -> int:
        h[x] += u
        if h[x] >= 1.0:
            return _relax_leftmost(h, x, self.cap)
        return 0

    @property
    def restarts(self) -> int:
        """Restarts so far: the sum of ``restarts_by_cause``."""
        return sum(self.restarts_by_cause.values())

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
        if self._ebA is not None and self._ebA == self._ebB:
            # shared frame flip so the empty boundary reads as logical site N
            self.flip = self._ebA == 0
            if self._maxdiff() < self.eps1:
                self._enter_merging()
            else:
                self.phase = PHASE_CONTRACTION
                self._k_aval = 0
                self._targetL = self.n

    def _enter_merging(self) -> None:
        self.phase = PHASE_MERGING
        self._mk = 1
        self._merging_steps = 0
        self._stage_init()

    def _stage_init(self) -> None:
        k = self._mk
        n = self.n
        eps_k = self.constants.eps_schedule[k - 1]
        a2 = self._half
        ap = a2 + 3.0 * eps_k
        if not (ap < self.b and a2 + 2.0 * eps_k <= self.b):
            raise InvariantViolation("merge-phase addition intervals are ill-formed")
        self._between_hi = a2 + 2.0 * eps_k
        q = 0.25 * (self.b - ap)
        self._av_lo = ap + q
        self._av_hi = self.b - q
        self._thresh = 1.0 - a2 - 2.0 * eps_k
        diff = [self.hA[self._phys(y)] - self.hB[self._phys(y)] for y in range(1, n - k + 1)]
        D = correction_D(diff, k, n)
        dk = self.constants.d_bounds[k - 1]
        if not abs(D) <= dk + _EQ_TOL:
            raise InvariantViolation(f"|D_{k}|={abs(D):.3e} exceeds its bound {dk:.3e}")
        self._Dk = D

    def _check_stage_sites(self, k: int) -> None:
        # after merge avalanche k, logical sites n-k+1..n must agree
        for s in range(self.n - k + 1, self.n + 1):
            p = self._phys(s)
            if not abs(self.hA[p] - self.hB[p]) <= _EQ_TOL:
                raise InvariantViolation(f"merge avalanche {k} left site {s} unequal")

    def _restart(self, x: int, u: float, cause: str, applied: bool = False) -> None:
        # a draw broke the running phase's requirements: both chains still
        # take the (equal) step, then everything returns to phase 1
        if not applied:
            self._apply(self.hA, x, u)
            self._apply(self.hB, x, u)
            if self.record_streams:
                self.streamA.append((x, u))
                self.streamB.append((x, u))
        self._ebA = _eb_side(self.hA)
        self._ebB = _eb_side(self.hB)
        self.restarts_by_cause[cause] += 1
        self.phase = PHASE_INDEPENDENT
        self._maybe_enter_coupled()

    # -- stepping ------------------------------------------------------------

    def step(self) -> None:
        """Advance the coupled pair by one time step."""
        phase = self.phase
        if phase == PHASE_INDEPENDENT:
            self._run_independent(self.t + 1)    # keeps t and phase_steps itself
            return
        if phase == PHASE_CONTRACTION:
            self._step_contraction()
        elif phase == PHASE_MERGING:
            self._step_merging()
        else:
            self._step_merged()
        self.phase_steps[phase] += 1
        self.t += 1
        if self.phase == PHASE_MERGED and self.merge_time is None:
            self.merge_time = self.t

    def _step_contraction(self) -> None:
        x, u = self._addC.draw()
        target = self._phys(self._targetL)
        if x != target or u < self._half:
            self._restart(x, u, "contraction-site" if x != target else "contraction-light")
            return
        nA = self._apply(self.hA, x, u)
        nB = self._apply(self.hB, x, u)
        if self.record_streams:
            self.streamA.append((x, u))
            self.streamB.append((x, u))
        if (nA > 0) != (nB > 0):
            raise InvariantViolation(_DESYNC)
        if nA:
            self._k_aval += 1
            self._targetL = 1 if self._targetL == self.n else self.n
            if self._k_aval % 2 == 0:
                # after an even number of full sweeps both sit in logical E_N
                pN = self._phys(self.n)
                if _e_class_0(self.hA) != pN or _e_class_0(self.hB) != pN:
                    raise InvariantViolation(_NOT_EN)
                if self._maxdiff() < self.eps1:
                    self._enter_merging()

    def _step_merging(self) -> None:
        x, u = self._addC.draw()
        self._merging_steps += 1
        p1 = self._phys(1)
        leader = max(self.hA[p1], self.hB[p1])
        if leader > self._thresh:
            # this draw must trigger avalanche number _mk in both chains
            if x != p1 or not self._av_lo <= u <= self._av_hi:
                self._restart(x, u, "merging-site" if x != p1 else "merging-window")
                return
            uB = coupled_amount(u, self._Dk, self.a, self.b)
            nA = self._apply(self.hA, x, u)
            nB = self._apply(self.hB, x, uB)
            if self.record_streams:
                self.streamA.append((x, u))
                self.streamB.append((x, uB))
            if nA == 0 or nB == 0:
                raise InvariantViolation(_NO_FIRE)
            k = self._mk
            if k > self.n - 1:
                raise InvariantViolation(_COUNT)
            self._check_stage_sites(k)
            self._mk += 1
            if self._mk > self.n - 1:
                if not self._maxdiff() <= _EQ_TOL:
                    raise InvariantViolation(_UNEQUAL)
                # mathematically exact equality; drop the float dust so the
                # merged pair is bitwise identical from here on
                self.hB = self.hA.copy()
                self.final_merging_steps = self._merging_steps
                self.phase = PHASE_MERGED
            else:
                self._stage_init()
        else:
            if x != p1 or not self._half <= u <= self._between_hi:
                self._restart(x, u, "merging-site" if x != p1 else "merging-window")
                return
            nA = self._apply(self.hA, x, u)
            nB = self._apply(self.hB, x, u)
            if self.record_streams:
                self.streamA.append((x, u))
                self.streamB.append((x, u))
            if nA or nB:
                # sub-threshold addition toppled (exact-boundary edge); retry
                self._restart(x, u, "merging-topple", applied=True)

    def _step_merged(self) -> None:
        x, u = self._addC.draw()
        self._apply(self.hA, x, u)
        self._apply(self.hB, x, u)
        if self.record_streams:
            self.streamA.append((x, u))
            self.streamB.append((x, u))

    # -- driving ---------------------------------------------------------------

    def run(self, max_steps: int) -> None:
        """Step until merged or ``max_steps`` total steps.

        The whole coupling up to the merge, restarts included, runs on the
        compiled kernel if it loads, in one ``zp_couple`` call per stream
        chunk; the call that reaches the merge returns there.
        """
        while self.t < max_steps and self.phase != PHASE_MERGED:
            if (lib := chain_kernel()) is not None:
                self._run_coupled(lib, max_steps)
            elif self.phase == PHASE_INDEPENDENT:
                self._run_independent(max_steps)
            else:
                self.step()

    def _run_independent(self, max_steps: int) -> None:
        # hot loop: the independent phase dominates every run, so buffers and
        # state live in locals until the chains enter a coupled phase or the
        # clock reaches max_steps
        hA = self.hA
        hB = self.hB
        cap = self.cap
        addA = self._addA
        addB = self._addB
        sitesA, amtsA, pA = addA.sites, addA.amts, addA.pos
        sitesB, amtsB, pB = addB.sites, addB.amts, addB.pos
        lenA = len(sitesA)
        lenB = len(sitesB)
        record = self.record_streams
        streamA = self.streamA
        streamB = self.streamB
        ebA = self._ebA
        ebB = self._ebB
        steps = 0
        budget = max_steps - self.t
        relax = _relax_leftmost
        eb_side = _eb_side
        try:
            while steps < budget:
                if pA >= lenA:
                    addA.refill()
                    sitesA, amtsA, pA = addA.sites, addA.amts, 0
                    lenA = len(sitesA)
                if pB >= lenB:
                    addB.refill()
                    sitesB, amtsB, pB = addB.sites, addB.amts, 0
                    lenB = len(sitesB)
                xA = sitesA[pA]
                uA = amtsA[pA]
                pA += 1
                v = hA[xA] + uA
                hA[xA] = v
                if v >= 1.0:
                    relax(hA, xA, cap)
                    ebA = eb_side(hA)
                elif xA == ebA:
                    ebA = None
                xB = sitesB[pB]
                uB = amtsB[pB]
                pB += 1
                v = hB[xB] + uB
                hB[xB] = v
                if v >= 1.0:
                    relax(hB, xB, cap)
                    ebB = eb_side(hB)
                elif xB == ebB:
                    ebB = None
                if record:
                    streamA.append((xA, uA))
                    streamB.append((xB, uB))
                steps += 1
                if ebA is not None and ebA == ebB:
                    break
        finally:
            # a topple-cap error keeps the completed steps and the failing
            # step's draws, as zp_couple does
            addA.pos = pA
            addB.pos = pB
            self.t += steps
            self.phase_steps[PHASE_INDEPENDENT] += steps
            self._ebA = ebA
            self._ebB = ebB
        self._maybe_enter_coupled()

    def _run_coupled(self, lib, max_steps: int) -> int:
        # _run_independent, _step_contraction, _step_merging and _step_merged
        # in zp_couple, restarts included, until the pair merges (if it has
        # not yet), max_steps or a gate; kernel calls end where a stream chunk
        # the running phase needs runs out.  Returns the steps after which
        # hA != hB.
        n = self.n
        was_merged = self.phase == PHASE_MERGED
        consts = self.constants
        streams = (self._addA, self._addB, self._addC)
        hA = (ctypes.c_double * n)(*self.hA)
        hB = (ctypes.c_double * n)(*self.hB)
        eps = (ctypes.c_double * (n - 1))(*consts.eps_schedule[:n - 1])
        dbound = (ctypes.c_double * (n - 1))(*consts.d_bounds)
        st = CouplingState(
            half=self._half, eps1=self.eps1, tol=_EQ_TOL, a=self.a, b=self.b, Dk=self._Dk,
            between_hi=self._between_hi, av_lo=self._av_lo, av_hi=self._av_hi,
            thresh=self._thresh, t=self.t, phase=_KERNEL_PHASES.index(self.phase),
            steps_ind=self.phase_steps[PHASE_INDEPENDENT],
            steps_con=self.phase_steps[PHASE_CONTRACTION],
            steps_mer=self.phase_steps[PHASE_MERGING],
            steps_mgd=self.phase_steps[PHASE_MERGED], flip=self.flip,
            k_aval=self._k_aval, target=self._targetL,
            ebA=-1 if self._ebA is None else self._ebA,
            ebB=-1 if self._ebB is None else self._ebB,
            posA=streams[0].pos, posB=streams[1].pos, posC=streams[2].pos,
            mk=self._mk, merging_steps=self._merging_steps,
            causes=(ctypes.c_int64 * len(RESTART_CAUSES))(*self.restarts_by_cause.values()))
        rec_sites = rec_amts = None
        if self.record_streams:
            # a gate can record the step it fails on, one row past the budget
            rec_sites = np.empty((_REC_ROWS + 1, 2), dtype=np.int64)
            rec_amts = np.empty((_REC_ROWS + 1, 2))
        try:
            while True:
                st.t_stop = max_steps if rec_sites is None else min(max_steps,
                                                                     st.t + _REC_ROWS)
                st.n_rec = 0
                status = lib.zp_couple(
                    hA, hB, n, self.cap, *self._kernel_chunks(streams), eps, dbound,
                    ctypes.byref(st), None if rec_sites is None else rec_sites.ctypes.data,
                    None if rec_amts is None else rec_amts.ctypes.data)
                if rec_sites is not None and st.n_rec:
                    sites = rec_sites[:st.n_rec].T.tolist()
                    amts = rec_amts[:st.n_rec].T.tolist()
                    self.streamA.extend(zip(sites[0], amts[0]))
                    self.streamB.extend(zip(sites[1], amts[1]))
                if status == _ZC_REFILL:
                    if _KERNEL_PHASES[st.phase] == PHASE_INDEPENDENT:
                        if st.posA >= streams[0].site_array.size:
                            streams[0].refill()
                            st.posA = 0
                        if st.posB >= streams[1].site_array.size:
                            streams[1].refill()
                            st.posB = 0
                    else:
                        streams[2].refill()
                        st.posC = 0
                elif (status != _ZC_DONE or st.t >= max_steps
                      or (not was_merged and _KERNEL_PHASES[st.phase] == PHASE_MERGED)):
                    break
        finally:
            self.hA[:] = hA
            self.hB[:] = hB
            streams[0].pos, streams[1].pos, streams[2].pos = st.posA, st.posB, st.posC
            self.t = st.t
            self.restarts_by_cause = dict(zip(RESTART_CAUSES, st.causes))
            self.phase_steps[PHASE_INDEPENDENT] = st.steps_ind
            self.phase_steps[PHASE_CONTRACTION] = st.steps_con
            self.phase_steps[PHASE_MERGING] = st.steps_mer
            self.phase_steps[PHASE_MERGED] = st.steps_mgd
            self.phase = _KERNEL_PHASES[st.phase]
            self.flip = bool(st.flip)
            self._k_aval = st.k_aval
            self._targetL = st.target
            self._ebA = None if st.ebA < 0 else st.ebA
            self._ebB = None if st.ebB < 0 else st.ebB
            self._mk = st.mk
            self._merging_steps = st.merging_steps
            self._Dk = st.Dk
            self._between_hi, self._av_lo = st.between_hi, st.av_lo
            self._av_hi, self._thresh = st.av_hi, st.thresh
        if self.phase == PHASE_MERGED and not was_merged:
            self.merge_time = self.t
            self.final_merging_steps = self._merging_steps
        if status == _ZC_CAP:
            raise cap_error(self.cap)
        elif status == _ZC_BAD_SITE:
            raise ValueError(f"kernel argument sites: need values in 0..{n - 1}")
        elif status in (_ZC_STAGE, _ZC_SITE):
            # the Python check reruns on the same bits and raises with its message
            if status == _ZC_STAGE:
                self._stage_init()
            else:
                self._check_stage_sites(self._mk)
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

    def run_steps(self, steps: int, require_equal: bool = False) -> bool:
        """Advance ``steps`` steps, in whatever phases they fall.

        Returns False if ``require_equal`` is set and the chains differed
        after some step, else True; on a merged pair that is the check that
        the merge holds.  Every phase runs on the compiled kernel if it
        loads, in one ``zp_couple`` call per stream chunk and one more past
        the merge.
        """
        stop = self.t + steps
        differed = 0
        while self.t < stop:
            if (lib := chain_kernel()) is not None:
                differed += self._run_coupled(lib, stop)
            else:
                self.step()
                differed += self.hA != self.hB
        return not (require_equal and differed)

    def result(self, seed: int | None = None,
               post_merge_identical: bool | None = None) -> CouplingResult:
        return CouplingResult(
            seed=seed,
            merged=self.phase == PHASE_MERGED,
            merge_time=self.merge_time,
            restarts=self.restarts,
            phase_times=[self.phase_steps[PHASE_INDEPENDENT],
                         self.phase_steps[PHASE_CONTRACTION],
                         self.phase_steps[PHASE_MERGING]],
            steps=self.t,
            final_merging_steps=self.final_merging_steps,
            post_merge_identical=post_merge_identical,
        )


def run_coupling(eta_a, eta_b, a: float, b: float, seed: int | None = None,
                 max_steps: int = 1_000_000) -> CouplingResult:
    """Couple two stable configurations until merged or cut off."""
    c = Coupling(eta_a, eta_b, a, b, seed=seed)
    c.run(max_steps)
    return c.result(seed)


# ---------------------------------------------------------------------------
# seed sweeps
# ---------------------------------------------------------------------------

def _init_config(mode, n: int, gen: np.random.Generator) -> list:
    if isinstance(mode, str):
        if mode == "zeros":
            return [0.0] * n
        if mode == "random":
            return gen.uniform(0.0, 1.0, n).tolist()
        raise ValueError(f"unknown init mode {mode!r}")
    return stable_heights(mode, n)


def _sweep_one(args) -> CouplingResult:
    n, a, b, seed, max_steps, init_a, init_b, cap, post_merge_steps = args
    gens = substreams(seed, 5)
    eta_a = _init_config(init_a, n, gens[0])
    eta_b = _init_config(init_b, n, gens[1])
    c = Coupling(eta_a, eta_b, a, b, cap=cap, _streams=gens[2:])
    c.run(max_steps)
    post_ok = None
    if post_merge_steps and c.phase == PHASE_MERGED:
        post_ok = c.run_steps(post_merge_steps, require_equal=True)
    return c.result(seed, post_merge_identical=post_ok)


def coupling_sweep(n: int, a: float, b: float, seeds, max_steps: int,
                   init_a="random", init_b="random", workers: int = 1,
                   cap: int = DEFAULT_TOPPLE_CAP,
                   post_merge_steps: int = 0) -> list[CouplingResult]:
    """One coupling run per seed; results in seed order regardless of workers.

    With ``post_merge_steps`` > 0, merged pairs are driven that many further
    steps while checking that they stay identical.
    """
    if max_steps < 0:
        raise ValueError(f"max_steps must be >= 0, got {max_steps}")
    if post_merge_steps < 0:
        raise ValueError(f"post_merge_steps must be >= 0, got {post_merge_steps}")
    jobs = [(n, a, b, int(s), max_steps, init_a, init_b, cap, post_merge_steps)
            for s in seeds]
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


def verify_contraction(n: int, k_max: int, rng: np.random.Generator,
                       a: float = 0.0, b: float = 1.0,
                       tol: float = 1e-9) -> ContractionReport:
    """Run the forced contraction dynamics against the linear shadow.

    Two random boundary-empty-all-full chains receive identical heavy
    additions aimed at the empty boundary.  At every avalanche the tracked
    coefficient matrix must obey the geometric bound and reproduce the
    simulated heights to ``tol``; the height gap must obey the matching
    (n/2) * base^k bound.  Violations raise, since they falsify either the
    implementation or the bookkeeping.
    """
    if n < 2:
        raise ValueError("verify_contraction needs n >= 2")
    _validate_abn(a, b, n)
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
            if resid > tol:
                raise InvariantViolation(
                    f"linear shadow residual {resid:.3e} > {tol} at avalanche {k}")
        bound = base ** k
        max_bs.append(tracker.max_b)
        b_bnds.append(bound)
        if tracker.max_b > bound + 1e-12:
            raise InvariantViolation(
                f"B entry {tracker.max_b:.6f} exceeds bound {bound:.6f} at avalanche {k}")
        diff = max(abs(x - y) for x, y in zip(hA, hB))
        dbound = 0.5 * n * bound
        max_diffs.append(diff)
        diff_bnds.append(dbound)
        if diff > dbound + tol:
            raise InvariantViolation(
                f"height gap {diff:.6f} exceeds bound {dbound:.6f} at avalanche {k}")
        side = "1" if side == "N" else "N"
    return ContractionReport(n=n, k_max=k_max, base=base, max_residual=max_resid,
                             max_b_per_avalanche=max_bs, b_bounds=b_bnds,
                             max_diff_per_avalanche=max_diffs, diff_bounds=diff_bnds,
                             max_gap_steps=max_gap, gap_bound=gap_bound)
