/* Compiled steps of the (N,[a,b]) chain; loaded with ctypes by core.py.
 *
 * Each step adds amts[i] to site sites[i] (0-based) of a stable chain and
 * relaxes it leftmost-first, with the float operations of core._relax_leftmost
 * in the same order, so heights stay bit-identical to the Python reference.
 * Status codes: 0 done, 1 topple cap exceeded, 2 a full site failed to topple.
 */
#include <stdint.h>
#include <string.h>

/* Topple the leftmost site with h >= 1, step back to x-1 if it became
 * unstable, otherwise scan right.  Returns the topplings, or -1 past cap. */
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
