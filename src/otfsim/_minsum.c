/* Normalized min-sum LDPC decoding of one codeword, flooding schedule.
 *
 * The parity checks come in CSR form: check c owns the edges
 * check_ptr[c] .. check_ptr[c + 1] - 1, and edge e reaches variable
 * edge_var[e].  The arithmetic follows, step by step, the numpy kernel
 * that tests/test_kernels.py keeps as the oracle, so the bits, the
 * success flag and the iteration count are identical to it:
 * v2c = total - c2v; min1/min2 with the first edge as argmin (a NaN
 * counts as the smallest, as in numpy's argmin); the message is
 * alpha * magnitude times +-1; and the totals are llr + 0.0 plus the
 * messages added in check-major edge order.  Positive LLRs favour bit 0;
 * ties count as bit 1.
 *
 * Built on first use by otfsim._kernels and called through ctypes.
 */
#include <math.h>
#include <stdint.h>

static const double SIGN[2] = {1.0, -1.0};

static int hard_and_ok(int64_t n_vars, int64_t n_checks, const int64_t *check_ptr,
                       const int64_t *edge_var, const double *total, uint8_t *hard)
{
    for (int64_t i = 0; i < n_vars; i++)
        hard[i] = total[i] <= 0.0;
    for (int64_t c = 0; c < n_checks; c++) {
        uint8_t parity = 0;
        for (int64_t e = check_ptr[c]; e < check_ptr[c + 1]; e++)
            parity ^= hard[edge_var[e]];
        if (parity)
            return 0;
    }
    return 1;
}

/* min1, min2 and argmin over the magnitudes of a check that holds a NaN. */
static void nan_minima(const double *v2c, int64_t lo, int64_t hi,
                       double *min1, double *min2, int64_t *min_e)
{
    double rest_min = INFINITY;
    int64_t nans = 0;
    for (int64_t e = lo; e < hi; e++) {
        double a = fabs(v2c[e]);
        if (isnan(a)) {
            if (!nans++)
                *min_e = e;
        } else if (a < rest_min) {
            rest_min = a;
        }
    }
    *min1 = NAN;
    *min2 = nans > 1 ? NAN : rest_min;
}

/* c2v (one slot per edge, zeroed by the caller) and total (one per
 * variable) are scratch.  Returns 1 when every check is satisfied and
 * stores the iterations run. */
int otfsim_min_sum_decode(int64_t n_vars, int64_t n_checks, const int64_t *check_ptr,
                          const int64_t *edge_var, const double *llr, double alpha,
                          int64_t max_iters, uint8_t *hard, double *c2v, double *total,
                          int64_t *iterations)
{
    *iterations = 0;
    for (int64_t i = 0; i < n_vars; i++)
        total[i] = llr[i];
    if (hard_and_ok(n_vars, n_checks, check_ptr, edge_var, total, hard))
        return 1;
    for (int64_t it = 1; it <= max_iters; it++) {
        for (int64_t c = 0; c < n_checks; c++) {
            int64_t lo = check_ptr[c], hi = check_ptr[c + 1], min_e = lo;
            double min1 = INFINITY, min2 = INFINITY;
            int parity = 0, nan_seen = 0;
            /* c2v[e] holds v2c from here until the new message replaces it */
            for (int64_t e = lo; e < hi; e++) {
                double v = total[edge_var[e]] - c2v[e];
                double a = fabs(v);
                c2v[e] = v;
                parity ^= v < 0.0;
                nan_seen |= a != a;
                if (a < min1) {
                    min2 = min1;
                    min1 = a;
                    min_e = e;
                } else if (a < min2) {
                    min2 = a;
                }
            }
            if (nan_seen)
                nan_minima(c2v, lo, hi, &min1, &min2, &min_e);
            double m1 = alpha * min1, m2 = alpha * min2;
            for (int64_t e = lo; e < hi; e++)
                c2v[e] = SIGN[parity ^ (c2v[e] < 0.0)] * (e == min_e ? m2 : m1);
        }
        for (int64_t i = 0; i < n_vars; i++)
            total[i] = llr[i] + 0.0;
        for (int64_t e = 0; e < check_ptr[n_checks]; e++)
            total[edge_var[e]] += c2v[e];
        *iterations = it;
        if (hard_and_ok(n_vars, n_checks, check_ptr, edge_var, total, hard))
            return 1;
    }
    return 0;
}
