/* Compiled loops of the chain, coupling and lattice engines; loaded with ctypes by core.py.
 *
 * zp_drive and zp_drive_pair step the (N,[a,b]) chain: each step adds amts[i] to site sites[i] (0-based) of a stable chain and
 * relaxes it leftmost-first.  relax below is the step-back scan that
 * core._relax_leftmost, the one Python relaxation, runs line for line, so
 * heights stay bit-identical to the Python reference.
 * Status codes: 0 done, 1 topple cap exceeded, 2 a full site failed to topple.
 * zp_couple runs the coupling's three phases, from the first step to the
 * merge; it calls fmod and nextafter from libm.
 * zp_lattice runs the lattice clock of lattice.MarkovToppling.run, snapshots
 * included.  zp_fsum returns math.fsum's correctly rounded sum: finite values
 * below 2^961 in magnitude go through an exact fixed-point accumulator, other
 * inputs through a port of fsum's partials algorithm, which keeps its NaN,
 * inf and overflow results.  A lattice snapshot updates the accumulator of
 * the previous one over the sites toppled since then and their neighbours,
 * or makes a full pass after many topplings; max M is kept per toppling and
 * min M with the count of sites at it.
 */
#include <stdint.h>
#include <math.h>
#include <string.h>

/* The step-back scan of core._relax_leftmost: topple the site under the
 * cursor if h >= 1, step back to x-1 if that site became unstable, otherwise
 * move right.  Returns the topplings, or -1 past cap. */
static int64_t relax(double *h, int64_t n, int64_t x, int64_t cap)
{
    int64_t total = 0;
    while (x < n) {
        if (h[x] < 1.0) {
            x++;
            continue;
        }
        double half = h[x] * 0.5;
        h[x] = 0.0;
        if (++total > cap)
            return -1;
        if (x < n - 1)
            h[x + 1] += half;
        if (x > 0) {
            h[x - 1] += half;
            if (h[x - 1] >= 1.0) {
                x--;
                continue;
            }
        }
        x++;
    }
    return total;
}

/* One chain.  rows (steps x n heights), tops (steps topplings) and counts
 * (n x bins) may be NULL.  counts adds one to bin (int64)(h*bins), clipped to
 * 0..bins-1, of each site after each completed step, as MarginalStats does.
 * With check_heavy, an addition to a full site must topple.  Returns the
 * steps completed; on an error, the index of the failing step. */
int64_t zp_drive(double *h, int64_t n, const int64_t *sites, const double *amts,
                 int64_t steps, int64_t cap, int32_t check_heavy,
                 double *rows, int64_t *tops, int64_t *counts, int64_t bins,
                 int32_t *status)
{
    *status = 0;
    for (int64_t i = 0; i < steps; i++) {
        int64_t x = sites[i];
        int full = h[x] >= 0.5;
        int64_t top = 0;
        h[x] += amts[i];
        if (h[x] >= 1.0 && (top = relax(h, n, x, cap)) < 0) {
            *status = 1;
            return i;
        }
        if (check_heavy && full && top == 0) {
            *status = 2;
            return i;
        }
        if (tops)
            tops[i] = top;
        if (rows)
            memcpy(rows + i * n, h, (size_t)n * sizeof(double));
        if (counts)
            for (int64_t j = 0; j < n; j++) {
                /* clipped before the cast, as in MarginalStats.add_batch:
                 * NaN and negatives go to bin 0 */
                double v = h[j] * (double)bins;
                counts[j * bins + (v >= 0 ? (v < bins ? (int64_t)v : bins - 1) : 0)]++;
            }
    }
    return steps;
}

/* A merged pair: hA and hB each take the same additions and are relaxed
 * separately.  *differed counts the steps after which they were unequal. */
int64_t zp_drive_pair(double *hA, double *hB, int64_t n, const int64_t *sites,
                      const double *amts, int64_t steps, int64_t cap,
                      int64_t *differed, int32_t *status)
{
    *status = 0;
    *differed = 0;
    for (int64_t i = 0; i < steps; i++) {
        int64_t x = sites[i];
        hA[x] += amts[i];
        if (hA[x] >= 1.0 && relax(hA, n, x, cap) < 0) {
            *status = 1;
            return i;
        }
        hB[x] += amts[i];
        if (hB[x] >= 1.0 && relax(hB, n, x, cap) < 0) {
            *status = 1;
            return i;
        }
        for (int64_t j = 0; j < n; j++) {
            if (hA[j] != hB[j]) {
                ++*differed;
                break;
            }
        }
    }
    return steps;
}

/* Add u at site x and relax: the count of topplings, or -1 past cap. */
static int64_t add(double *h, int64_t n, int64_t x, double u, int64_t cap)
{
    h[x] += u;
    return h[x] >= 1.0 ? relax(h, n, x, cap) : 0;
}

/* core._e_class_0: the empty site if h is in some E_x, else -1. */
static int64_t e_class(const double *h, int64_t n)
{
    int64_t empty = -1;
    for (int64_t i = 0; i < n; i++) {
        if (h[i] == 0.0) {
            if (empty >= 0)
                return -1;
            empty = i;
        } else if (!(0.5 <= h[i] && h[i] < 1.0)) {
            return -1;
        }
    }
    return empty;
}

/* core._eb_side: the empty boundary site if h is in E_b, else -1. */
static int64_t eb_side(const double *h, int64_t n)
{
    int64_t e = e_class(h, n);
    return e == 0 || e == n - 1 ? e : -1;
}

/* The state of coupling.Coupling (core.CouplingState).  ebA, ebB use -1 for
 * None; posA, posB, posC index the stream chunks; n_rec counts the rows
 * written to the recording arrays.  mk, merging_steps, Dk and the windows
 * between_hi, av_lo, av_hi and thresh are the merging stage that
 * Coupling._stage_init set up.  causes counts the restarts by cause. */
typedef struct {
    double half, eps1, tol, a, b, Dk, between_hi, av_lo, av_hi, thresh;
    int64_t t, t_stop, phase, steps_ind, steps_con, steps_mer, flip, k_aval, target,
        ebA, ebB, posA, posB, posC, n_rec, mk, merging_steps;
    int64_t causes[5];
} zp_pair;

/* Phases; restart causes, in the order of coupling.RESTART_CAUSES; and why
 * zp_couple returned.  ZC_DONE: t reached t_stop or the pair merged.  Past
 * ZC_BAD_SITE the statuses are the merging gates: an ill-formed stage or a
 * |D_k| past its bound, an avalanche that failed to fire, more than n-1
 * avalanches, a site left unequal, unequal at completion.  The gates leave
 * the failing step uncounted, as Coupling.step does. */
enum { ZC_INDEPENDENT, ZC_CONTRACTION, ZC_MERGING, ZC_MERGED };
enum { ZC_CON_SITE, ZC_CON_LIGHT, ZC_MER_SITE, ZC_MER_WINDOW, ZC_MER_TOPPLE };
enum { ZC_DONE, ZC_REFILL, ZC_CAP, ZC_DESYNC, ZC_NOT_EN, ZC_BAD_SITE, ZC_STAGE,
       ZC_NO_FIRE, ZC_COUNT, ZC_SITE, ZC_UNEQUAL };

/* The arrays of one zp_couple call: the heights, the eps schedule and the
 * bounds d_k (n-1 values each), and the recording arrays (or NULL). */
typedef struct {
    double *hA, *hB;
    int64_t n, cap;
    const double *eps, *dbound;
    int64_t *rec_sites;
    double *rec_amts;
} pair_arrays;

/* coupling.Coupling._phys: the 0-based index of the 1-based logical site s */
static int64_t phys(const zp_pair *st, int64_t n, int64_t s)
{
    return st->flip ? n - s : s - 1;
}

/* coupling.Coupling._maxdiff, NaN if some difference is NaN */
static double maxdiff(const double *hA, const double *hB, int64_t n)
{
    double d = 0.0;
    for (int64_t i = 0; i < n; i++) {
        double v = fabs(hA[i] - hB[i]);
        if (v > d || v != v)
            d = v;
    }
    return d;
}

/* coupling.coupled_amount: a + (u + D - a) mod (b - a), with the float % of
 * CPython (fmod, then the divisor's sign), and the largest double below b
 * where rounding lands on b itself. */
static double coupled_amount(double u, double D, double a, double b)
{
    double w = b - a;
    double m = fmod(u + D - a, w);
    if (m != 0.0) {
        if ((w < 0.0) != (m < 0.0))
            m += w;
    } else {
        m = copysign(0.0, w);
    }
    double v = a + m;
    return v < b ? v : nextafter(b, a);
}

/* Hand one consumed pair of additions to the recording arrays. */
static void record(const pair_arrays *c, zp_pair *st, int64_t xA, double uA, int64_t xB,
                   double uB)
{
    if (!c->rec_sites)
        return;
    c->rec_sites[2 * st->n_rec] = xA;
    c->rec_sites[2 * st->n_rec + 1] = xB;
    c->rec_amts[2 * st->n_rec] = uA;
    c->rec_amts[2 * st->n_rec + 1] = uB;
    st->n_rec++;
}

/* coupling.Coupling._stage_init: the windows of merging stage mk and its
 * correction D_mk = sum_{y=1}^{n-mk} 2^(y-1) (hA - hB) at logical site y. */
static int32_t stage_init(const pair_arrays *c, zp_pair *st)
{
    int64_t k = st->mk, n = c->n;
    double eps_k = c->eps[k - 1];
    double a2 = st->half;
    double ap = a2 + 3.0 * eps_k;
    if (!(ap < st->b && a2 + 2.0 * eps_k <= st->b))
        return ZC_STAGE;
    st->between_hi = a2 + 2.0 * eps_k;
    double q = 0.25 * (st->b - ap);
    st->av_lo = ap + q;
    st->av_hi = st->b - q;
    st->thresh = 1.0 - a2 - 2.0 * eps_k;
    double D = 0.0, w = 1.0;
    for (int64_t y = 1; y <= n - k; y++) {
        int64_t p = phys(st, n, y);
        D += w * (c->hA[p] - c->hB[p]);
        w *= 2.0;
    }
    if (!(fabs(D) <= c->dbound[k - 1] + st->tol))
        return ZC_STAGE;
    st->Dk = D;
    return ZC_DONE;
}

/* coupling.Coupling._enter_merging */
static int32_t enter_merging(const pair_arrays *c, zp_pair *st)
{
    st->phase = ZC_MERGING;
    st->mk = 1;
    st->merging_steps = 0;
    return stage_init(c, st);
}

/* coupling.Coupling._maybe_enter_coupled: once both chains sit in E_b on the
 * same side, the contraction phase begins, or the merging phase if they are
 * already within eps1. */
static int32_t maybe_enter_coupled(const pair_arrays *c, zp_pair *st)
{
    if (st->ebA < 0 || st->ebA != st->ebB)
        return ZC_DONE;
    st->flip = st->ebA == 0;
    if (maxdiff(c->hA, c->hB, c->n) < st->eps1)
        return enter_merging(c, st);
    st->phase = ZC_CONTRACTION;
    st->k_aval = 0;
    st->target = c->n;
    return ZC_DONE;
}

/* coupling.Coupling._restart: a draw broke the running phase's requirements,
 * so both chains take it (unless applied), then the pair returns to the
 * independent phase. */
static int32_t restart(const pair_arrays *c, zp_pair *st, int64_t x, double u, int applied,
                       int cause)
{
    if (!applied) {
        if (add(c->hA, c->n, x, u, c->cap) < 0 || add(c->hB, c->n, x, u, c->cap) < 0)
            return ZC_CAP;
        record(c, st, x, u, x, u);
    }
    st->ebA = eb_side(c->hA, c->n);
    st->ebB = eb_side(c->hB, c->n);
    st->causes[cause]++;
    st->phase = ZC_INDEPENDENT;
    return maybe_enter_coupled(c, st);
}

/* coupling.Coupling._step_contraction */
static int32_t contraction_step(const pair_arrays *c, zp_pair *st, int64_t x, double u)
{
    double *hA = c->hA, *hB = c->hB;
    int64_t n = c->n, nA, nB = 0;
    int64_t target = phys(st, n, st->target);
    if (x != target || u < st->half)
        return restart(c, st, x, u, 0, x != target ? ZC_CON_SITE : ZC_CON_LIGHT);
    if ((nA = add(hA, n, x, u, c->cap)) < 0 || (nB = add(hB, n, x, u, c->cap)) < 0)
        return ZC_CAP;
    record(c, st, x, u, x, u);
    if ((nA > 0) != (nB > 0))
        return ZC_DESYNC;
    if (nA) {
        st->k_aval++;
        st->target = st->target == n ? 1 : n;
        if (st->k_aval % 2 == 0) {
            /* after an even number of full sweeps both sit in logical E_N */
            int64_t pN = phys(st, n, n);
            if (e_class(hA, n) != pN || e_class(hB, n) != pN)
                return ZC_NOT_EN;
            if (maxdiff(hA, hB, n) < st->eps1)
                return enter_merging(c, st);
        }
    }
    return ZC_DONE;
}

/* coupling.Coupling._step_merging */
static int32_t merging_step(const pair_arrays *c, zp_pair *st, int64_t x, double u)
{
    double *hA = c->hA, *hB = c->hB;
    int64_t n = c->n, nA, nB = 0;
    st->merging_steps++;
    int64_t p1 = phys(st, n, 1);
    /* Python's max(hA[p1], hB[p1]) */
    double leader = hB[p1] > hA[p1] ? hB[p1] : hA[p1];
    if (!(leader > st->thresh)) {
        if (x != p1 || !(st->half <= u && u <= st->between_hi))
            return restart(c, st, x, u, 0, x != p1 ? ZC_MER_SITE : ZC_MER_WINDOW);
        if ((nA = add(hA, n, x, u, c->cap)) < 0 || (nB = add(hB, n, x, u, c->cap)) < 0)
            return ZC_CAP;
        record(c, st, x, u, x, u);
        /* a sub-threshold addition toppled (exact-boundary edge): retry */
        return nA || nB ? restart(c, st, x, u, 1, ZC_MER_TOPPLE) : ZC_DONE;
    }
    /* this draw must trigger avalanche number mk in both chains */
    if (x != p1 || !(st->av_lo <= u && u <= st->av_hi))
        return restart(c, st, x, u, 0, x != p1 ? ZC_MER_SITE : ZC_MER_WINDOW);
    double uB = coupled_amount(u, st->Dk, st->a, st->b);
    if ((nA = add(hA, n, x, u, c->cap)) < 0 || (nB = add(hB, n, x, uB, c->cap)) < 0)
        return ZC_CAP;
    record(c, st, x, u, x, uB);
    if (nA == 0 || nB == 0)
        return ZC_NO_FIRE;
    int64_t k = st->mk;
    if (k > n - 1)
        return ZC_COUNT;
    for (int64_t s = n - k + 1; s <= n; s++) {
        int64_t p = phys(st, n, s);
        if (!(fabs(hA[p] - hB[p]) <= st->tol))
            return ZC_SITE;
    }
    if (++st->mk <= n - 1)
        return stage_init(c, st);
    if (!(maxdiff(hA, hB, n) <= st->tol))
        return ZC_UNEQUAL;
    /* exact equality in theory: drop the float dust, as the Python path does */
    memcpy(hB, hA, (size_t)n * sizeof(double));
    st->phase = ZC_MERGED;
    return ZC_DONE;
}

/* The coupling of coupling.Coupling from its current phase to the merge,
 * restarts included, with the float operations of Coupling._run_independent,
 * _step_contraction and _step_merging in the same order.  Chains A and B read
 * the chunks (sitesA, amtsA) and (sitesB, amtsB) in the independent phase;
 * both read (sitesC, amtsC) in the contraction and merging phases.  Each
 * consumed pair of additions becomes one row of rec_sites and rec_amts (two
 * columns: A, B) unless they are NULL.  Runs until t reaches t_stop, the pair
 * merges, a chunk the running phase needs is used up or a gate trips. */
int32_t zp_couple(double *hA, double *hB, int64_t n, int64_t cap,
                  const int64_t *sitesA, const double *amtsA, int64_t lenA,
                  const int64_t *sitesB, const double *amtsB, int64_t lenB,
                  const int64_t *sitesC, const double *amtsC, int64_t lenC,
                  const double *eps, const double *dbound, zp_pair *st,
                  int64_t *rec_sites, double *rec_amts)
{
    const pair_arrays c = {hA, hB, n, cap, eps, dbound, rec_sites, rec_amts};
    int32_t status = ZC_DONE;
    while (st->t < st->t_stop && st->phase != ZC_MERGED) {
        if (st->phase == ZC_INDEPENDENT) {
            if (st->posA >= lenA || st->posB >= lenB) {
                status = ZC_REFILL;
                break;
            }
            int64_t xA = sitesA[st->posA];
            double uA = amtsA[st->posA++];
            if (xA < 0 || xA >= n) {
                status = ZC_BAD_SITE;
                break;
            }
            hA[xA] += uA;
            if (hA[xA] >= 1.0) {
                if (relax(hA, n, xA, cap) < 0) {
                    status = ZC_CAP;
                    break;
                }
                st->ebA = eb_side(hA, n);
            } else if (xA == st->ebA) {
                st->ebA = -1;
            }
            int64_t xB = sitesB[st->posB];
            double uB = amtsB[st->posB++];
            if (xB < 0 || xB >= n) {
                status = ZC_BAD_SITE;
                break;
            }
            hB[xB] += uB;
            if (hB[xB] >= 1.0) {
                if (relax(hB, n, xB, cap) < 0) {
                    status = ZC_CAP;
                    break;
                }
                st->ebB = eb_side(hB, n);
            } else if (xB == st->ebB) {
                st->ebB = -1;
            }
            record(&c, st, xA, uA, xB, uB);
            st->steps_ind++;
            st->t++;
            if ((status = maybe_enter_coupled(&c, st)))
                break;
            continue;
        }
        if (st->posC >= lenC) {
            status = ZC_REFILL;
            break;
        }
        int64_t x = sitesC[st->posC];
        double u = amtsC[st->posC++];
        if (x < 0 || x >= n) {
            status = ZC_BAD_SITE;
            break;
        }
        /* the step counts in the phase it began in, as in Coupling.step */
        if (st->phase == ZC_CONTRACTION) {
            if ((status = contraction_step(&c, st, x, u)))
                break;
            st->steps_con++;
        } else {
            if ((status = merging_step(&c, st, x, u)))
                break;
            st->steps_mer++;
        }
        st->t++;
    }
    return status;
}

/* An exact sum of doubles, the fixed-point superaccumulator of Neal
 * (arXiv:1505.05571): limb i holds signed 32-bit digits of weight
 * 2^(32 i - 1074), so every finite double is a whole number of units and one
 * addition or subtraction touches three adjacent limbs.  The int64 limbs
 * absorb ACC_FLUSH such updates before acc_norm moves their carries up; the
 * top limb keeps the sign.  acc_add accepts finite values below 2^961 in
 * magnitude (biased exponent below ACC_EXP_LIMIT): the sum of fewer than
 * 2^62 of them stays below 2^1023 at every step, so no intermediate sum can
 * overflow and the value acc_round returns is the correctly rounded sum, the
 * one math.fsum returns. */
#define ACC_LIMBS 68
#define ACC_FLUSH 4096
#define ACC_EXP_LIMIT (961 + 1023)
#define DIGIT UINT64_C(0xFFFFFFFF)

/* Move the carries up so that limbs below the top hold digits in [0, 2^32). */
static void acc_norm(int64_t *limb)
{
    int64_t carry = 0;
    for (int i = 0; i < ACC_LIMBS - 1; i++) {
        int64_t v = limb[i] + carry;
        int64_t digit = (int64_t)((uint64_t)v & DIGIT);
        carry = (v - digit) / (INT64_C(1) << 32);
        limb[i] = digit;
    }
    limb[ACC_LIMBS - 1] += carry;
}

/* limb += x; 1 (and limb unchanged) if x is outside the domain.  The caller
 * calls acc_norm at least every ACC_FLUSH updates. */
static inline int acc_add(int64_t *limb, double x)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    uint64_t e = (bits >> 52) & 0x7FF;
    if (e >= ACC_EXP_LIMIT)
        return 1;
    uint64_t mant = bits & ((UINT64_C(1) << 52) - 1);
    if (e)
        mant |= UINT64_C(1) << 52;
    else
        e = 1;                      /* subnormals share the unit 2^-1074 */
    uint64_t shift = e - 1, r = shift & 31;
    int64_t *l = limb + (shift >> 5);
    int64_t d0 = (int64_t)((mant << r) & DIGIT);
    int64_t d1 = (int64_t)(((mant << r) >> 32) & DIGIT);
    int64_t d2 = (int64_t)(mant >> 32 >> (32 - r));
    if (bits >> 63) {
        l[0] -= d0;
        l[1] -= d1;
        l[2] -= d2;
    } else {
        l[0] += d0;
        l[1] += d1;
        l[2] += d2;
    }
    return 0;
}

/* limb += x[0..n); 1 if some x[i] is outside the domain.  limb starts and
 * ends normalized. */
static int acc_sum(int64_t *limb, const double *x, int64_t n)
{
    for (int64_t i = 0; i < n; i++) {
        if (acc_add(limb, x[i]))
            return 1;
        if ((i & (ACC_FLUSH - 1)) == ACC_FLUSH - 1)
            acc_norm(limb);
    }
    acc_norm(limb);
    return 0;
}

/* Bits p .. p+63 of the digits u[0..top]. */
static uint64_t acc_window(const uint64_t *u, int64_t top, int64_t p)
{
    int64_t i = p >> 5;
    uint64_t r = (uint64_t)p & 31;
    uint64_t w = u[i] >> r;
    if (i + 1 <= top)
        w |= u[i + 1] << (32 - r);
    if (i + 2 <= top && r)
        w |= u[i + 2] << (64 - r);
    return w;
}

/* The normalized sum rounded half-even to a double; +0.0 for an exact zero,
 * as fsum. */
static double acc_round(const int64_t *limb)
{
    int64_t v[ACC_LIMBS];
    uint64_t u[ACC_LIMBS];
    int neg = limb[ACC_LIMBS - 1] < 0;
    for (int i = 0; i < ACC_LIMBS; i++)
        v[i] = neg ? -limb[i] : limb[i];
    if (neg)
        acc_norm(v);
    int64_t top = -1;
    for (int i = 0; i < ACC_LIMBS; i++) {
        u[i] = (uint64_t)v[i];
        if (u[i])
            top = i;
    }
    double mag;
    if (top < 0) {
        return 0.0;
    } else if (top <= 1 && (top == 0 || u[1] < (UINT64_C(1) << 21))) {
        /* below 2^53 units: exact, a subnormal or one of the smallest normals */
        mag = ldexp((double)(u[0] | (top ? u[1] << 32 : 0)), -1074);
    } else {
        /* keep 53 bits from the top one; p is the position of the round bit */
        int64_t bitlen = 32 * top + 64 - __builtin_clzll(u[top]);
        int64_t p = bitlen - 54;
        uint64_t w = acc_window(u, top, p);
        uint64_t q = w >> 1;
        int sticky = (u[p >> 5] & ((UINT64_C(1) << (p & 31)) - 1)) != 0;
        for (int64_t i = 0; i < p >> 5 && !sticky; i++)
            sticky = u[i] != 0;
        if ((w & 1) && (sticky || (q & 1)))
            q++;
        mag = ldexp((double)q, (int)(p + 1 - 1074));
    }
    return neg ? -mag : mag;
}

/* fsum's special_sum += x as CPython's build does it: when x is a NaN the
 * result is x, quieted, whatever special holds.  Which NaN an addition of two
 * NaNs returns hangs on the operand order the compiler picks, so the choice
 * is spelled out to keep the payload bit for bit. */
static double add_special(double special, double x)
{
    if (!isnan(x))
        return special + x;
    uint64_t u;
    memcpy(&u, &x, sizeof u);
    u |= UINT64_C(0x0008000000000000);
    memcpy(&x, &u, sizeof u);
    return x;
}

/* fsum's partials algorithm (Shewchuk's exact accumulation with its final
 * half-even fix-up), ported from CPython's math.fsum for the inputs the
 * accumulator does not take, so that NaNs, infinities and sums that overflow
 * end as they do in fsum.  Status: 0 ok, 1 an intermediate overflow, 2
 * -inf + inf; fsum raises on both.  Nonoverlapping partials occupy distinct
 * bits of the 2098 a finite double can hold, so the fixed array never
 * fills. */
static int32_t fsum_partials(const double *x, int64_t n, double *out)
{
    double p[2112];
    int64_t np = 0;
    double special = 0.0, inf_sum = 0.0;
    for (int64_t k = 0; k < n; k++) {
        double v = x[k], xsave = v;
        int64_t i = 0;
        for (int64_t j = 0; j < np; j++) {
            double y = p[j];
            if (fabs(v) < fabs(y)) {
                double t = v;
                v = y;
                y = t;
            }
            double hi = v + y;
            double lo = y - (hi - v);
            if (lo != 0.0)
                p[i++] = lo;
            v = hi;
        }
        np = i;
        if (v != 0.0) {
            if (!isfinite(v)) {
                if (isfinite(xsave))
                    return 1;
                if (isinf(xsave))
                    inf_sum += xsave;
                special = add_special(special, xsave);
                np = 0;
            } else {
                p[np++] = v;
            }
        }
    }
    if (special != 0.0) {
        if (isnan(inf_sum))
            return 2;
        *out = special;
        return 0;
    }
    double hi = 0.0;
    if (np > 0) {
        double lo = 0.0;
        hi = p[--np];
        while (np > 0) {
            double v = hi, y = p[--np];
            hi = v + y;
            lo = y - (hi - v);
            if (lo != 0.0)
                break;
        }
        if (np > 0 && ((lo < 0.0 && p[np - 1] < 0.0) || (lo > 0.0 && p[np - 1] > 0.0))) {
            double y = lo * 2.0;
            double v = hi + y;
            if (y == v - hi)
                hi = v;
        }
    }
    *out = hi;
    return 0;
}

/* The correctly rounded sum of x[0..n), the double math.fsum returns, with
 * fsum_partials' statuses where it fails. */
int32_t zp_fsum(const double *x, int64_t n, double *out)
{
    int64_t limb[ACC_LIMBS] = {0};
    if (acc_sum(limb, x, n))
        return fsum_partials(x, n, out);
    *out = acc_round(limb);
    return 0;
}

/* The rejection-free lattice clock of lattice.MarkovToppling.run, with its
 * float operations in the same order, so both backends give the same bits.
 *
 * Sites 0..n-1 have twod int32 neighbour slots each in nbr (-1 off the box,
 * in the order of lattice._neighbor_table); missing counts the -1 slots.  The
 * first k = st->k entries of unstable are the unstable sites, where[i] is the
 * position of site i there or -1; entries from k on are scratch, which the
 * insertion writes.  waits and picks are the chunk of
 * exponential and uniform draws, read from st->pos on.  A due snapshot fills
 * one row of rows (t, total mass, unstable count, min M, max M, dissipated);
 * no snapshot is due while next_snap is +inf.
 *
 * The snapshot state lasts for one run() (several calls): acc holds the
 * exact sum of held, a copy of h at the last snapshot, and the first n_top
 * entries of toppled list the sites toppled since then.  n_top past top_cap
 * asks for a full pass instead, as does a fresh state.  max_m is kept per
 * toppling, since M only grows, and min_m with n_min, the count of sites at
 * the minimum; a count of 0 asks for a rescan.  A full pass rescans both. */
typedef struct {
    double t, t_max, next_snap, snapshot_every, diss, diss_c;
    int64_t k, events, events_stop, pos, n_rows;
    int64_t n_top, top_cap, min_m, n_min, max_m;
    int64_t acc[ACC_LIMBS];
} zp_clock;

/* Why zp_lattice returned.  Past ZP_ROWS_FULL, the status less ZP_ROWS_FULL
 * is the failing fsum_partials status of a due snapshot. */
enum { ZP_EVENTS, ZP_T_MAX, ZP_STABLE, ZP_REFILL, ZP_ROWS_FULL };

/* Bring acc and held up to h over the toppled sites and their neighbours:
 * each site whose height changed trades its held value for the current one.
 * 1 if a height is outside the accumulator's domain. */
static int update_sum(const double *h, int64_t twod, const int32_t *nbr, double *held,
                      const int64_t *toppled, zp_clock *st)
{
    int64_t ops = 0;
    for (int64_t j = 0; j < st->n_top; j++) {
        int64_t s = toppled[j];
        for (int64_t q = -1; q < twod; q++) {
            int64_t i = q < 0 ? s : nbr[s * twod + q];
            if (i < 0 || h[i] == held[i])
                continue;
            if (acc_add(st->acc, h[i]))
                return 1;
            acc_add(st->acc, -held[i]);
            held[i] = h[i];
            if ((ops += 2) >= ACC_FLUSH) {
                acc_norm(st->acc);
                ops = 0;
            }
        }
    }
    acc_norm(st->acc);
    return 0;
}

/* Total mass, min M and max M of a due snapshot into row[1], row[3] and
 * row[4]: by update_sum when few sites toppled since the last snapshot, by a
 * full pass otherwise, and by fsum_partials outside the accumulator's
 * domain.  Returns 0 or the failing fsum_partials status. */
static int32_t snapshot_sums(const double *h, int64_t n, int64_t twod, const int32_t *nbr,
                             const int64_t *m, double *held, const int64_t *toppled,
                             zp_clock *st, double *row)
{
    int full = st->n_top > st->top_cap || update_sum(h, twod, nbr, held, toppled, st);
    st->n_top = 0;
    if (full) {
        memset(st->acc, 0, sizeof st->acc);
        memcpy(held, h, (size_t)n * sizeof(double));
        if (acc_sum(st->acc, h, n)) {
            int32_t err = fsum_partials(h, n, &row[1]);
            if (err)
                return err;
            st->n_top = st->top_cap + 1;
        }
        st->max_m = m[0];
        for (int64_t i = 1; i < n; i++)
            if (m[i] > st->max_m)
                st->max_m = m[i];
        st->n_min = 0;
    }
    if (st->n_top == 0)
        row[1] = acc_round(st->acc);
    if (st->n_min == 0) {
        st->min_m = m[0];
        for (int64_t i = 0; i < n; i++) {
            if (m[i] < st->min_m) {
                st->min_m = m[i];
                st->n_min = 0;
            }
            st->n_min += m[i] == st->min_m;
        }
    }
    row[3] = (double)st->min_m;
    row[4] = (double)st->max_m;
    return 0;
}

int32_t zp_lattice(double *h, int64_t n, int64_t twod, const int32_t *nbr,
                   const int64_t *missing, int64_t *unstable, int64_t *where,
                   int64_t *m, double *lv, double *lc, const double *waits,
                   const double *picks, int64_t chunk, zp_clock *st, double *rows,
                   int64_t rows_cap, double *held, int64_t *toppled)
{
    double t = st->t, diss = st->diss, diss_c = st->diss_c;
    int64_t k = st->k, events = st->events, pos = st->pos;
    int track = st->next_snap < INFINITY;
    int32_t status = ZP_EVENTS;
    while (events < st->events_stop) {
        if (pos >= chunk) {
            status = ZP_REFILL;
            break;
        }
        double te = t + waits[pos] / (double)k;
        while (st->next_snap < te) {
            if (st->next_snap > st->t_max) {
                st->next_snap = INFINITY;
                break;
            }
            if (st->n_rows == rows_cap) {
                status = ZP_ROWS_FULL;
                goto out;
            }
            double *row = rows + 6 * st->n_rows;
            int32_t err = snapshot_sums(h, n, twod, nbr, m, held, toppled, st, row);
            if (err) {
                status = ZP_ROWS_FULL + err;
                goto out;
            }
            row[0] = st->next_snap;
            row[2] = (double)k;
            row[5] = diss;
            st->n_rows++;
            st->next_snap += st->snapshot_every;
        }
        if (te > st->t_max) {
            /* the crossing draw is discarded, as in the Python loop */
            pos++;
            t = st->t_max;
            status = ZP_T_MAX;
            break;
        }
        int64_t s = unstable[(int64_t)(picks[pos] * (double)k)];
        pos++;
        t = te;
        events++;
        int64_t last = unstable[--k];
        if (last != s) {
            int64_t i = where[s];
            unstable[i] = last;
            where[last] = i;
        }
        where[s] = -1;
        double hx = h[s];
        h[s] = 0.0;
        m[s]++;
        if (track) {
            if (m[s] > st->max_m)
                st->max_m = m[s];
            st->n_min -= m[s] - 1 == st->min_m;
            if (st->n_top < st->top_cap)
                toppled[st->n_top++] = s;
            else
                st->n_top = st->top_cap + 1;
        }
        double y = hx - lc[s];
        double tt = lv[s] + y;
        lc[s] = (tt - lv[s]) - y;
        lv[s] = tt;
        double share = hx / (double)twod;
        const int32_t *row = nbr + s * twod;
        for (int64_t j = 0; j < twod; j++) {
            int64_t nb = row[j];
            if (nb < 0)
                continue;
            double v = h[nb] + share;
            h[nb] = v;
            /* insert nb if it became unstable, without a branch on the
             * outcome, which dense lattices mispredict: slot k lies past
             * the live set, so writing it always is harmless, and reading
             * it back would cost more than the store.  s is out of the set,
             * so k < n here; the test keeps the store in the buffer even
             * for a state that breaks that */
            int64_t w = where[nb];
            int64_t add = (v >= 1.0) & (w < 0);
            where[nb] = add ? k : w;
            if (k < n)
                unstable[k] = nb;
            k += add;
        }
        if (missing[s]) {
            y = share * (double)missing[s] - diss_c;
            tt = diss + y;
            diss_c = (tt - diss) - y;
            diss = tt;
        }
        if (k == 0) {
            status = ZP_STABLE;
            break;
        }
    }
out:
    st->t = t;
    st->diss = diss;
    st->diss_c = diss_c;
    st->k = k;
    st->events = events;
    st->pos = pos;
    return status;
}
