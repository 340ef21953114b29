/* Compiled loops of the chain, coupling and lattice engines, loaded by core.py.
 *
 * zp_drive steps the (N,[a,b]) chain: each step adds amts[i] to site sites[i]
 * (0-based) of a stable chain and relaxes it leftmost-first.  relax below is
 * the step-back scan that core._relax_leftmost, the one Python relaxation,
 * runs line for line, so heights stay bit-identical to the Python reference.
 * For MarginalStats it bins each completed step's heights and adds them and
 * their squares to per-site sums.
 * Status codes: 0 done, 1 topple cap exceeded, 2 a full site failed to topple.
 * zp_couple runs the coupling's phases: the three that lead to the merge,
 * and the merged pair after it; it calls fmod and nextafter from libm.  It
 * updates the pair's one state in place, which the Python reference also
 * runs on; a pair that records its streams never calls it.
 * zp_lattice runs the lattice clock of lattice.MarkovToppling.run, snapshots
 * included: max M is kept per toppling and min M with the count of sites at
 * it, so a snapshot makes no pass over the lattice unless that count drops
 * to 0.
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

/* One chain.  rows (steps x n heights), tops (steps topplings), counts
 * (n x bins), and sums with sumsq (n each) may be NULL.  After each completed step
 * counts adds one to bin (int64)(h*bins), clipped to 0..bins-1, of each site,
 * as MarginalStats does, and sums and sumsq add h and h*h of each site, in
 * step order: the order of numpy's sum over axis 0 of a C-contiguous block
 * with two or more columns.  With check_heavy, an addition to a full site
 * must topple.  Returns the steps completed; on an error, the index of the
 * failing step. */
int64_t zp_drive(double *h, int64_t n, const int64_t *sites, const double *amts,
                 int64_t steps, int64_t cap, int32_t check_heavy,
                 double *rows, int64_t *tops, int64_t *counts, int64_t bins,
                 double *sums, double *sumsq, int32_t *status)
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
        if (sums)
            for (int64_t j = 0; j < n; j++) {
                sums[j] += h[j];
                sumsq[j] += h[j] * h[j];
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

/* core._eb_side: the empty boundary site if h is in E_b, else -1.  Kept out
 * of line: inlined into both chains' own_step, it grew zp_couple and slowed
 * the couple-verify benchmark by 3-5 % (2-vCPU VM). */
static __attribute__((noinline)) int64_t eb_side(const double *h, int64_t n)
{
    int64_t e = e_class(h, n);
    return e == 0 || e == n - 1 ? e : -1;
}

/* The state of a coupling.Coupling pair for its whole life
 * (core.CouplingState), which the Python reference reads and writes too.
 * ebA, ebB are the E_b side of each chain, -1 if it is not in E_b; posA,
 * posB, posC index the stream chunks.  mk, merging_steps, Dk and the windows
 * between_hi, av_lo, av_hi and thresh are the merging stage that stage_init
 * set up.  steps counts the steps by phase, causes the restarts by cause, and
 * differed the steps, in any phase, after which hA != hB since the caller
 * last zeroed it. */
typedef struct {
    double half, eps1, tol, a, b, Dk, between_hi, av_lo, av_hi, thresh;
    int64_t t, t_stop, phase, flip, k_aval, target, ebA, ebB, posA, posB, posC, mk,
        merging_steps, differed;
    int64_t steps[4], causes[5];
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

/* The arrays of one zp_couple call: the heights, and the eps schedule and
 * the bounds d_k (n-1 values each). */
typedef struct {
    double *hA, *hB;
    int64_t n, cap;
    const double *eps, *dbound;
} pair_arrays;

/* coupling.Coupling._phys: the 0-based index of the 1-based logical site s */
static int64_t phys(const zp_pair *st, int64_t n, int64_t s)
{
    return st->flip ? n - s : s - 1;
}

/* Whether hA and hB differ at some site, as Python's hA != hB on two lists
 * of floats */
static int differ(const double *hA, const double *hB, int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        if (hA[i] != hB[i])
            return 1;
    return 0;
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
        /* a sub-threshold addition toppled (exact-boundary edge): retry */
        return nA || nB ? restart(c, st, x, u, 1, ZC_MER_TOPPLE) : ZC_DONE;
    }
    /* this draw must trigger avalanche number mk in both chains */
    if (x != p1 || !(st->av_lo <= u && u <= st->av_hi))
        return restart(c, st, x, u, 0, x != p1 ? ZC_MER_SITE : ZC_MER_WINDOW);
    double uB = coupled_amount(u, st->Dk, st->a, st->b);
    if ((nA = add(hA, n, x, u, c->cap)) < 0 || (nB = add(hB, n, x, uB, c->cap)) < 0)
        return ZC_CAP;
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

/* coupling.Coupling._step_merged, step after step, until t reaches t_stop,
 * the chunk ends or the topple cap trips: both chains take the same addition
 * and relax on their own, so a broken merge still counts in differed. */
static int32_t merged_steps(const pair_arrays *c, zp_pair *st, const int64_t *sites,
                            const double *amts, int64_t len)
{
    double *hA = c->hA, *hB = c->hB;
    int64_t n = c->n, cap = c->cap, left = st->t_stop - st->t, differed = 0, i;
    int64_t k = left < len - st->posC ? left : len - st->posC;
    int32_t status = ZC_DONE;
    sites += st->posC;
    amts += st->posC;
    for (i = 0; i < k; i++) {
        int64_t x = sites[i];
        if (x < 0 || x >= n) {
            status = ZC_BAD_SITE;
            break;
        }
        if (add(hA, n, x, amts[i], cap) < 0 || add(hB, n, x, amts[i], cap) < 0) {
            status = ZC_CAP;
            break;
        }
        differed += differ(hA, hB, n);
    }
    st->steps[ZC_MERGED] += i;
    st->differed += differed;
    st->t += i;
    st->posC += i + (status != ZC_DONE);
    return status == ZC_DONE && i < left ? ZC_REFILL : status;
}

/* One chain's half of an independent step, as coupling.Coupling._own_step,
 * which Coupling._run_independent calls for both chains: the next addition
 * of its own chunk at *pos, relaxed.  eb, the chain's E_b side, is recomputed
 * after an avalanche; an addition that does not topple only clears it when it
 * lands on the empty site. */
static inline int32_t own_step(double *h, int64_t n, int64_t cap, const int64_t *sites,
                               const double *amts, int64_t *pos, int64_t *eb)
{
    int64_t x = sites[*pos];
    double u = amts[(*pos)++];
    if (x < 0 || x >= n)
        return ZC_BAD_SITE;
    h[x] += u;
    if (h[x] >= 1.0) {
        if (relax(h, n, x, cap) < 0)
            return ZC_CAP;
        *eb = eb_side(h, n);
    } else if (x == *eb) {
        *eb = -1;
    }
    return ZC_DONE;
}

/* The coupling of coupling.Coupling from its current phase, restarts
 * included, with the float operations of Coupling._run_independent (through
 * _own_step), _step_contraction, _step_merging and _step_merged in the same
 * order.
 * Chains A and B read the chunks (sitesA, amtsA) and (sitesB, amtsB) in the
 * independent phase; both read (sitesC, amtsC) in the others.  Runs until t
 * reaches t_stop, a chunk the running phase needs is used up or a gate
 * trips; a call that reaches the merge returns there, and one that starts
 * merged runs the merged pair. */
int32_t zp_couple(double *hA, double *hB, int64_t n, int64_t cap,
                  const int64_t *sitesA, const double *amtsA, int64_t lenA,
                  const int64_t *sitesB, const double *amtsB, int64_t lenB,
                  const int64_t *sitesC, const double *amtsC, int64_t lenC,
                  const double *eps, const double *dbound, zp_pair *st)
{
    const pair_arrays c = {hA, hB, n, cap, eps, dbound};
    if (st->phase == ZC_MERGED)
        return merged_steps(&c, st, sitesC, amtsC, lenC);
    int32_t status = ZC_DONE;
    while (st->t < st->t_stop && st->phase != ZC_MERGED) {
        if (st->phase == ZC_INDEPENDENT) {
            if (st->posA >= lenA || st->posB >= lenB) {
                status = ZC_REFILL;
                break;
            }
            if ((status = own_step(hA, n, cap, sitesA, amtsA, &st->posA, &st->ebA))
                || (status = own_step(hB, n, cap, sitesB, amtsB, &st->posB, &st->ebB)))
                break;
            st->steps[ZC_INDEPENDENT]++;
            st->t++;
            st->differed += differ(hA, hB, n);
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
        int64_t phase = st->phase;
        if ((status = phase == ZC_CONTRACTION ? contraction_step(&c, st, x, u)
                                              : merging_step(&c, st, x, u)))
            break;
        st->steps[phase]++;
        st->t++;
        st->differed += differ(hA, hB, n);
    }
    return status;
}

/* The rejection-free lattice clock of lattice.MarkovToppling.run, with its
 * float operations in the same order, so both backends give the same bits.
 *
 * Sites 0..n-1 have twod int32 neighbour slots each in nbr (-1 off the box),
 * visited in the neighbour table's slot order; missing counts the -1 slots.  The
 * first k = st->k entries of unstable are the unstable sites, where[i] is the
 * position of site i there or -1; entries from k on are scratch, which the
 * insertion writes.  waits and picks are the chunk of draws, read from
 * st->pos on; dissipated is the ledger's sum and its compensation.  A due
 * snapshot fills one row of rows (t, unstable count, min M, max M,
 * dissipated); no snapshot is due while next_snap is +inf.
 *
 * The engine keeps one zp_clock for its life; the caller sets all but t, k,
 * events, pos and n_rows per run() (several calls).  max_m, the largest M, is
 * kept per toppling, since M only grows, and min_m with n_min, the count of
 * sites at the minimum; a count of 0 asks for a rescan. */
typedef struct {
    double t, t_max, next_snap, snapshot_every;
    int64_t k, events, events_stop, pos, n_rows, min_m, n_min, max_m;
} zp_clock;

/* Why zp_lattice returned. */
enum { ZP_EVENTS, ZP_T_MAX, ZP_STABLE, ZP_REFILL, ZP_ROWS_FULL };

int32_t zp_lattice(double *h, int64_t n, int64_t twod, const int32_t *nbr,
                   const int64_t *missing, int64_t *unstable, int64_t *where,
                   int64_t *m, double *lv, double *lc, double *dissipated,
                   const double *waits, const double *picks, int64_t chunk,
                   zp_clock *st, double *rows, int64_t rows_cap)
{
    double t = st->t, diss = dissipated[0], diss_c = dissipated[1];
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
            double *row = rows + 5 * st->n_rows;
            row[0] = st->next_snap;
            row[1] = (double)k;
            row[2] = (double)st->min_m;
            row[3] = (double)st->max_m;
            row[4] = diss;
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
    dissipated[0] = diss;
    dissipated[1] = diss_c;
    st->k = k;
    st->events = events;
    st->pos = pos;
    return status;
}
