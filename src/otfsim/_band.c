/* Banded Cholesky factor and block solve of the equalizer's system.
 *
 * The band is Hermitian positive definite, in LAPACK's lower band storage
 * as numpy holds it: kd + 1 rows of n complex doubles (real and imaginary
 * parts interleaved), row r, column j holding K[j + r, j]; the last r
 * entries of row r lie past the matrix and are never read.
 *
 * otfsim_band_cholesky overwrites the band with its lower factor L, K =
 * L L^H, in the same storage and in LAPACK zpbtf2's column order: column
 * j's pivot is the square root of its updated diagonal, stored real in
 * row 0, the column below it is scaled by the pivot's reciprocal, and the
 * trailing window takes the rank-one update.  It returns 0, or the
 * 1-based index of the first column whose updated diagonal is not
 * positive (NaN included), where it stops.
 *
 * otfsim_band_solve solves K x = b for each row of a batch whose samples
 * are taken in the band's order: the band's sample i is the row's sample
 * order[i].  Up to BLOCK rows at a time run through the substitutions
 * together, so each step is one loop along the rows, and both passes
 * read and write the output rows in place through order: there is no
 * scratch and no state, so threads solve at once.
 *
 * Both substitutions divide by a pivot by multiplying with its
 * reciprocal, as OpenBLAS's ztbsv does.  At kd = 0 the solve is therefore
 * b * (1/l) * (1/l), bit for bit what LAPACK's zpbtrs returns; a wider
 * band accumulates in its own order.  The build forbids contracting
 * multiply-adds.
 *
 * Built on first use by otfsim._kernels and called through ctypes.
 */
#include <stdint.h>
#include <math.h>

/* rows solved together by one pass of the substitutions */
#define BLOCK 8

int64_t otfsim_band_cholesky(int64_t n, int64_t kd, double *ab)
{
    for (int64_t j = 0; j < n; j++) {
        double *col = ab + 2 * j;
        double pivot = col[0];
        if (!(pivot > 0.0))
            return j + 1;
        pivot = sqrt(pivot);
        col[0] = pivot;
        col[1] = 0.0;
        double scale = 1.0 / pivot;
        int64_t kn = kd < n - 1 - j ? kd : n - 1 - j;
        for (int64_t r = 1; r <= kn; r++) {
            col[2 * r * n] *= scale;
            col[2 * r * n + 1] *= scale;
        }
        /* K[j + r, j + c] -= x_r conj(x_c) for r >= c, with x the scaled
         * column; that entry sits in row r - c of column j + c */
        for (int64_t c = 1; c <= kn; c++) {
            double cr = col[2 * c * n], ci = col[2 * c * n + 1];
            double *dst = col + 2 * c;
            for (int64_t r = c; r <= kn; r++) {
                double xr = col[2 * r * n], xi = col[2 * r * n + 1];
                double *a = dst + 2 * (r - c) * n;
                a[0] -= xr * cr + xi * ci;
                a[1] -= xi * cr - xr * ci;
            }
        }
    }
    return 0;
}

/* L y = b, then L^H x = y, for m <= BLOCK rows of b and x that start at
 * the given pointers, n samples apart.  Band sample i of a row lives at
 * the row's sample order[i]: the forward pass leaves y_i there in x, and
 * the backward pass replaces it with x_i, so each step reads its
 * neighbours' values, y behind it and x ahead, from x itself.  Each
 * sample's m values add up in registers, the nearest neighbour's term
 * last.  Callers pass m as a constant where they can, so the compiler
 * specializes the lane loops. */
static inline void solve_rows(int64_t n, int64_t kd, const double *restrict l,
                              const int64_t *restrict order, int64_t m,
                              const double *restrict b, double *restrict x)
{
    double ar[BLOCK], ai[BLOCK];
    for (int64_t i = 0; i < n; i++) {
        const double *src = b + 2 * order[i];
        for (int64_t r = 0; r < m; r++) {
            ar[r] = src[2 * r * n];
            ai[r] = src[2 * r * n + 1];
        }
        for (int64_t k = kd < i ? kd : i; k >= 1; k--) {
            /* L[i, i - k] */
            double lr = l[2 * (k * n + i - k)], li = l[2 * (k * n + i - k) + 1];
            const double *p = x + 2 * order[i - k];
            for (int64_t r = 0; r < m; r++) {
                double pr = p[2 * r * n], pi = p[2 * r * n + 1];
                ar[r] -= lr * pr - li * pi;
                ai[r] -= lr * pi + li * pr;
            }
        }
        double inv = 1.0 / l[2 * i];
        double *dst = x + 2 * order[i];
        for (int64_t r = 0; r < m; r++) {
            dst[2 * r * n] = ar[r] * inv;
            dst[2 * r * n + 1] = ai[r] * inv;
        }
    }
    for (int64_t i = n - 1; i >= 0; i--) {
        double *dst = x + 2 * order[i];
        for (int64_t r = 0; r < m; r++) {
            ar[r] = dst[2 * r * n];
            ai[r] = dst[2 * r * n + 1];
        }
        for (int64_t k = kd < n - 1 - i ? kd : n - 1 - i; k >= 1; k--) {
            /* conj(L[i + k, i]) */
            double lr = l[2 * (k * n + i)], li = l[2 * (k * n + i) + 1];
            const double *p = x + 2 * order[i + k];
            for (int64_t r = 0; r < m; r++) {
                double pr = p[2 * r * n], pi = p[2 * r * n + 1];
                ar[r] -= lr * pr + li * pi;
                ai[r] -= lr * pi - li * pr;
            }
        }
        double inv = 1.0 / l[2 * i];
        for (int64_t r = 0; r < m; r++) {
            dst[2 * r * n] = ar[r] * inv;
            dst[2 * r * n + 1] = ai[r] * inv;
        }
    }
}

/* x = K^{-1} b for rows contiguous rows of n complex samples; returns 0,
 * or -1 when order reaches outside the row. */
int otfsim_band_solve(int64_t n, int64_t kd, const double *l, const int64_t *order,
                      int64_t rows, const double *b, double *x)
{
    for (int64_t i = 0; i < n; i++)
        if (order[i] < 0 || order[i] >= n)
            return -1;
    for (int64_t row = 0; row < rows; row += BLOCK) {
        const double *src = b + 2 * row * n;
        double *dst = x + 2 * row * n;
        if (rows - row >= BLOCK)
            solve_rows(n, kd, l, order, BLOCK, src, dst);
        else if (rows - row == 1)
            solve_rows(n, kd, l, order, 1, src, dst);
        else
            solve_rows(n, kd, l, order, rows - row, src, dst);
    }
    return 0;
}
