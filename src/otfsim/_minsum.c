/* Normalized min-sum LDPC decoding of one codeword, flooding schedule.
 *
 * The parity checks come on their quasi-cyclic block layout: base row r
 * owns the circulant blocks row_ptr[r] .. row_ptr[r + 1] - 1, columns
 * ascending, and lane i of block b joins check r*z + i to variable
 * block_col[b]*z + (i + block_shift[b]) % z.  A base row runs its z lanes
 * through each block as one branch-free loop, split where the rotated
 * read wraps into two contiguous runs, which the compiler vectorizes.
 *
 * The bits, the success flag and the iteration count are those of the
 * numpy kernel that tests/test_kernels.py keeps as the oracle:
 * v2c = total - c2v; an edge's message is alpha * min2 if it holds the
 * first smallest magnitude of its check (a NaN counts as the smallest, as
 * in numpy's argmin) and alpha * min1 otherwise, times the signs of the
 * check's other edges; the totals are llr + 0.0 plus the messages added
 * in check-major edge order.  A variable meets at most one lane of each
 * base row, so adding the messages row by row, rows ascending, keeps that
 * order.  Positive LLRs favour bit 0; ties count as bit 1.
 *
 * On x86-64 glibc the entry point is cloned for AVX2 and the loader picks
 * the clone the CPU runs.  Both give the same bits: the kernel only adds,
 * subtracts, multiplies, takes fabs, compares and selects, which IEEE
 * arithmetic rounds alike in every lane at any vector width; the build
 * forbids contracting multiply-adds, and the avx2 target has no FMA.
 *
 * Built on first use by otfsim._kernels and called through ctypes.
 */
#include <math.h>
#include <stdint.h>

/* Lane state of a base row: per lane, the two smallest v2c magnitudes
 * that are not NaN, the product of the v2c signs (+-1) and the count of
 * NaN magnitudes.  All are doubles, so every select compares and picks in
 * one vector type. */
struct lanes {
    double *restrict min1, *restrict min2, *restrict sign, *restrict nans;
};

/* One run of a block's lanes: v2c from the totals at t[i + off] into e[i],
 * folded into the lane state.  The state moves from one buffer to the
 * other, every load is used on both sides of each select, and the
 * comparisons that select are quiet (isless), so the loop if-converts
 * without masked memory operations, which the baseline x86-64 target
 * lacks. */
static inline void gather(const double *restrict t, int64_t off, double *restrict e,
                          int64_t lo, int64_t hi, struct lanes in, struct lanes out)
{
    for (int64_t i = lo; i < hi; i++) {
        double v = t[i + off] - e[i], a = fabs(v), m1 = in.min1[i], m2 = in.min2[i];
        double loser = isless(a, m1) ? m1 : a;
        e[i] = v;
        out.min1[i] = isless(a, m1) ? a : m1;
        out.min2[i] = isless(loser, m2) ? loser : m2;
        out.sign[i] = in.sign[i] * (v < 0.0 ? -1.0 : 1.0);
        out.nans[i] = in.nans[i] + (a != a);
    }
}

/* One run of a block's lanes: the new messages into e[i], each added to
 * the next totals at t[i + off].  The edge that holds min1 gets min2; when
 * several tie at min1, min2 equals min1, so any of them may take it.  In a
 * lane with a NaN, min1 is NaN and the NaN edge is the one that gets min2. */
static inline void scatter(double *restrict t, int64_t off, double *restrict e,
                           int64_t lo, int64_t hi, double alpha, struct lanes l)
{
    for (int64_t i = lo; i < hi; i++) {
        double v = e[i], a = fabs(v), m1 = l.min1[i], m2 = l.min2[i];
        double sign = l.sign[i] * (v < 0.0 ? -1.0 : 1.0);
        double msg = sign * (alpha * ((a == m1) | (a != a) ? m2 : m1));
        e[i] = msg;
        t[i + off] += msg;
    }
}

/* Hard decisions from the totals; 1 when every check XORs to zero. */
static int hard_and_ok(int64_t n_vars, int64_t z, int64_t n_rows, const int64_t *row_ptr,
                       const int64_t *block_col, const int64_t *block_shift,
                       const double *restrict total, uint8_t *restrict hard,
                       uint8_t *restrict parity)
{
    for (int64_t i = 0; i < n_vars; i++)
        hard[i] = total[i] <= 0.0;
    for (int64_t r = 0; r < n_rows; r++) {
        for (int64_t i = 0; i < z; i++)
            parity[i] = 0;
        for (int64_t b = row_ptr[r]; b < row_ptr[r + 1]; b++) {
            const uint8_t *h = hard + block_col[b] * z;
            int64_t s = block_shift[b];
            for (int64_t i = 0; i < z - s; i++)
                parity[i] ^= h[i + s];
            for (int64_t i = z - s; i < z; i++)
                parity[i] ^= h[i + s - z];
        }
        uint8_t odd = 0;
        for (int64_t i = 0; i < z; i++)
            odd |= parity[i];
        if (odd)
            return 0;
    }
    return 1;
}

/* c2v (z per block, zeroed by the caller), totals (2 * n_vars), lanes
 * (two lane states, 8 * z) and parity (z) are scratch.  Returns 1 when
 * every check is satisfied and stores the iterations run. */
#if defined(__x86_64__) && defined(__GLIBC__) && (defined(__GNUC__) || defined(__clang__))
__attribute__((target_clones("avx2", "default")))
#endif
int otfsim_min_sum_decode(int64_t n_vars, int64_t z, int64_t n_rows, const int64_t *row_ptr,
                          const int64_t *block_col, const int64_t *block_shift,
                          const double *llr, double alpha, int64_t max_iters, uint8_t *hard,
                          double *c2v, double *totals, double *lanes, uint8_t *parity,
                          int64_t *iterations)
{
    struct lanes state[2];
    for (int k = 0; k < 2; k++) {
        double *p = lanes + 4 * k * z;
        state[k] = (struct lanes){p, p + z, p + 2 * z, p + 3 * z};
    }
    double *total = totals, *next = totals + n_vars;
    *iterations = 0;
    for (int64_t i = 0; i < n_vars; i++)
        total[i] = llr[i];
    if (hard_and_ok(n_vars, z, n_rows, row_ptr, block_col, block_shift, total, hard, parity))
        return 1;
    for (int64_t it = 1; it <= max_iters; it++) {
        for (int64_t i = 0; i < n_vars; i++)
            next[i] = llr[i] + 0.0;
        for (int64_t r = 0; r < n_rows; r++) {
            int64_t lo = row_ptr[r], hi = row_ptr[r + 1];
            struct lanes l = state[0];
            for (int64_t i = 0; i < z; i++) {
                l.min1[i] = l.min2[i] = INFINITY;
                l.sign[i] = 1.0;
                l.nans[i] = 0.0;
            }
            /* c2v holds v2c from here until the new message replaces it */
            for (int64_t b = lo; b < hi; b++) {
                const double *t = total + block_col[b] * z;
                double *e = c2v + b * z;
                int64_t s = block_shift[b];
                struct lanes in = l;
                l = state[(b - lo + 1) & 1];
                gather(t, s, e, 0, z - s, in, l);
                gather(t, s - z, e, z - s, z, in, l);
            }
            /* a NaN magnitude counts as the smallest, as in numpy's argmin:
             * min1 turns NaN and min2 is the smallest other magnitude */
            double nans = 0.0;
            for (int64_t i = 0; i < z; i++)
                nans += l.nans[i];
            if (nans > 0.0)
                for (int64_t i = 0; i < z; i++)
                    if (l.nans[i] > 0.0) {
                        l.min2[i] = l.nans[i] > 1.0 ? NAN : l.min1[i];
                        l.min1[i] = NAN;
                    }
            for (int64_t b = lo; b < hi; b++) {
                double *t = next + block_col[b] * z, *e = c2v + b * z;
                int64_t s = block_shift[b];
                scatter(t, s, e, 0, z - s, alpha, l);
                scatter(t, s - z, e, z - s, z, alpha, l);
            }
        }
        double *done = next;
        next = total;
        total = done;
        *iterations = it;
        if (hard_and_ok(n_vars, z, n_rows, row_ptr, block_col, block_shift, total, hard, parity))
            return 1;
    }
    return 0;
}
