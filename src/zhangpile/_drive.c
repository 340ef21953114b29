/* Compiled loops of the chain, coupling and lattice engines; loaded with ctypes by core.py.
 *
 * zp_drive and zp_drive_pair step the (N,[a,b]) chain: each step adds amts[i] to site sites[i] (0-based) of a stable chain and
 * relaxes it leftmost-first.  relax below is the step-back scan that
 * core._relax_leftmost, the one Python relaxation, runs line for line, so
 * heights stay bit-identical to the Python reference.
 * Status codes: 0 done, 1 topple cap exceeded, 2 a full site failed to topple.
 * zp_couple runs the coupling's independent and contraction phases.
 * zp_lattice runs the lattice clock of lattice.MarkovToppling.run, and
 * zp_fsum the exact sum of its snapshots.
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

/* One chain.  rows (steps x n heights) and tops (steps topplings) may be
 * NULL.  With check_heavy, an addition to a full site must topple.  Returns
 * the steps completed; on an error, the index of the failing step. */
int64_t zp_drive(double *h, int64_t n, const int64_t *sites, const double *amts,
                 int64_t steps, int64_t cap, int32_t check_heavy,
                 double *rows, int64_t *tops, int32_t *status)
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

/* The pre-merge state of coupling.Coupling (core.CouplingState).  ebA, ebB
 * use -1 for None; posA, posB, posC index the stream chunks; n_rec counts
 * the rows written to the recording arrays. */
typedef struct {
    double half, eps1;
    int64_t t, t_stop, phase, restarts, steps_ind, steps_con, flip, k_aval,
        target, ebA, ebB, posA, posB, posC, n_rec;
} zp_pair;

/* Phases, and why zp_couple returned.  ZC_MERGING: the merging phase began
 * after an independent step, which is counted; ZC_MERGING_IN_STEP: it began
 * inside a contraction step, which the caller counts once it has entered the
 * merging phase.  The gates leave the failing step uncounted. */
enum { ZC_INDEPENDENT, ZC_CONTRACTION };
enum { ZC_BUDGET, ZC_REFILL, ZC_MERGING, ZC_MERGING_IN_STEP, ZC_CAP, ZC_DESYNC,
       ZC_NOT_EN, ZC_BAD_SITE };

/* coupling.Coupling._maxdiff */
static double maxdiff(const double *hA, const double *hB, int64_t n)
{
    double d = 0.0;
    for (int64_t i = 0; i < n; i++) {
        double v = fabs(hA[i] - hB[i]);
        if (v > d)
            d = v;
    }
    return d;
}

/* coupling.Coupling._maybe_enter_coupled once both chains sit in E_b on the
 * same side: 1 if the merging phase begins, else 0 (contraction). */
static int enter_coupled(const double *hA, const double *hB, int64_t n, zp_pair *st)
{
    st->flip = st->ebA == 0;
    if (maxdiff(hA, hB, n) < st->eps1)
        return 1;
    st->phase = ZC_CONTRACTION;
    st->k_aval = 0;
    st->target = n;
    return 0;
}

/* The independent and contraction phases of coupling.Coupling, restarts
 * included, with the float operations of Coupling._run_independent and
 * Coupling._step_contraction in the same order.  Chains A and B read the
 * chunks (sitesA, amtsA) and (sitesB, amtsB) in the independent phase; both
 * read (sitesC, amtsC) in the contraction phase.  Each consumed pair of
 * additions becomes one row of rec_sites and rec_amts (two columns: A, B)
 * unless they are NULL.  Runs until t reaches t_stop, a chunk the running
 * phase needs is used up, the merging phase begins or a gate trips. */
int32_t zp_couple(double *hA, double *hB, int64_t n, int64_t cap,
                  const int64_t *sitesA, const double *amtsA, int64_t lenA,
                  const int64_t *sitesB, const double *amtsB, int64_t lenB,
                  const int64_t *sitesC, const double *amtsC, int64_t lenC,
                  zp_pair *st, int64_t *rec_sites, double *rec_amts)
{
    int32_t status = ZC_BUDGET;
    while (st->t < st->t_stop) {
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
            if (rec_sites) {
                rec_sites[2 * st->n_rec] = xA;
                rec_sites[2 * st->n_rec + 1] = xB;
                rec_amts[2 * st->n_rec] = uA;
                rec_amts[2 * st->n_rec + 1] = uB;
                st->n_rec++;
            }
            st->steps_ind++;
            st->t++;
            if (st->ebA >= 0 && st->ebA == st->ebB && enter_coupled(hA, hB, n, st)) {
                status = ZC_MERGING;
                break;
            }
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
        int64_t target = st->flip ? n - st->target : st->target - 1;
        int64_t nA, nB = 0;
        if ((nA = add(hA, n, x, u, cap)) < 0 || (nB = add(hB, n, x, u, cap)) < 0) {
            status = ZC_CAP;
            break;
        }
        if (rec_sites) {
            rec_sites[2 * st->n_rec] = rec_sites[2 * st->n_rec + 1] = x;
            rec_amts[2 * st->n_rec] = rec_amts[2 * st->n_rec + 1] = u;
            st->n_rec++;
        }
        if (x != target || u < st->half) {
            /* restart: back to the independent phase after the equal step */
            st->ebA = eb_side(hA, n);
            st->ebB = eb_side(hB, n);
            st->restarts++;
            st->phase = ZC_INDEPENDENT;
            if (st->ebA >= 0 && st->ebA == st->ebB && enter_coupled(hA, hB, n, st)) {
                status = ZC_MERGING_IN_STEP;
                break;
            }
        } else {
            if ((nA > 0) != (nB > 0)) {
                status = ZC_DESYNC;
                break;
            }
            if (nA) {
                st->k_aval++;
                st->target = st->target == n ? 1 : n;
                if (st->k_aval % 2 == 0) {
                    /* after an even number of full sweeps both sit in logical E_N */
                    int64_t pN = st->flip ? 0 : n - 1;
                    if (e_class(hA, n) != pN || e_class(hB, n) != pN) {
                        status = ZC_NOT_EN;
                        break;
                    }
                    if (maxdiff(hA, hB, n) < st->eps1) {
                        status = ZC_MERGING_IN_STEP;
                        break;
                    }
                }
            }
        }
        st->steps_con++;
        st->t++;
    }
    return status;
}

/* The correctly rounded sum of x[0..n), by the partials algorithm of
 * CPython's math.fsum (Shewchuk's exact accumulation with its final
 * half-even fix-up), so both give the same double.  Status: 0 ok, 1 an
 * intermediate overflow, 2 -inf + inf; fsum raises on both.  Nonoverlapping
 * partials occupy distinct bits of the 2098 a finite double can hold, so the
 * fixed array never fills. */

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

int32_t zp_fsum(const double *x, int64_t n, double *out)
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

/* The rejection-free lattice clock of lattice.MarkovToppling.run, with its
 * float operations in the same order, so both backends give the same bits.
 *
 * Sites 0..n-1 have twod neighbour slots each in nbr (-1 off the box, in the
 * order of lattice._neighbor_table); missing counts the -1 slots.  The first
 * k = st->k entries of unstable are the unstable sites, where[i] is the
 * position of site i there or -1.  waits and picks are the chunk of
 * exponential and uniform draws, read from st->pos on.  A due snapshot fills
 * one row of rows (t, total mass, unstable count, min M, max M, dissipated);
 * no snapshot is due while next_snap is +inf. */
typedef struct {
    double t, t_max, next_snap, snapshot_every, diss, diss_c;
    int64_t k, events, events_stop, pos, n_rows;
} zp_clock;

/* Why zp_lattice returned.  Past ZP_ROWS_FULL, the status less ZP_ROWS_FULL
 * is the failing zp_fsum status of a due snapshot. */
enum { ZP_EVENTS, ZP_T_MAX, ZP_STABLE, ZP_REFILL, ZP_ROWS_FULL };

int32_t zp_lattice(double *h, int64_t n, int64_t twod, const int64_t *nbr,
                   const int64_t *missing, int64_t *unstable, int64_t *where,
                   int64_t *m, double *lv, double *lc, const double *waits,
                   const double *picks, int64_t chunk, zp_clock *st, double *rows,
                   int64_t rows_cap)
{
    double t = st->t, diss = st->diss, diss_c = st->diss_c;
    int64_t k = st->k, events = st->events, pos = st->pos;
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
            int32_t err = zp_fsum(h, n, &row[1]);
            if (err) {
                status = ZP_ROWS_FULL + err;
                goto out;
            }
            int64_t lo = m[0], hi = m[0];
            for (int64_t i = 1; i < n; i++) {
                if (m[i] < lo)
                    lo = m[i];
                if (m[i] > hi)
                    hi = m[i];
            }
            row[0] = st->next_snap;
            row[2] = (double)k;
            row[3] = (double)lo;
            row[4] = (double)hi;
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
        double y = hx - lc[s];
        double tt = lv[s] + y;
        lc[s] = (tt - lv[s]) - y;
        lv[s] = tt;
        double share = hx / (double)twod;
        const int64_t *row = nbr + s * twod;
        for (int64_t j = 0; j < twod; j++) {
            int64_t nb = row[j];
            if (nb < 0)
                continue;
            double v = h[nb] + share;
            h[nb] = v;
            if (v >= 1.0 && where[nb] < 0) {
                where[nb] = k;
                unstable[k++] = nb;
            }
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
