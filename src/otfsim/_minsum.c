/* Normalized min-sum LDPC decoding of one codeword, flooding schedule.
 *
 * The parity checks come on their quasi-cyclic block layout: base row r
 * owns the circulant blocks row_ptr[r] .. row_ptr[r + 1] - 1, columns
 * ascending, and lane i of block b joins check r*z + i to variable
 * block_col[b]*z + (i + block_shift[b]) % z.  The variables of base
 * column c are the n_vars / z lanes c*z .. c*z + z - 1.
 *
 * Two bodies decode, and both give the same bits:
 * - otfsim_min_sum_decode is block-major.  A base row runs its z lanes
 *   through each block as one branch-free loop, split where the rotated
 *   read wraps into two contiguous runs, which the compiler vectorizes;
 *   the lane state passes through memory from block to block.  On x86-64
 *   glibc it is cloned for AVX2 and the dynamic loader picks the clone the
 *   CPU runs.
 * - otfsim_min_sum_decode_lanes (x86-64 glibc only, for CPUs with
 *   AVX-512F) is lane-major.  Eight lanes share a vector and keep their
 *   check state in registers across the row's blocks; the vectors of a
 *   row are independent, so the core overlaps them.  Totals are stored
 *   twice per base column and messages twice per block, so no rotated
 *   read wraps, and the next totals are summed per base column.
 *   otfsim._kernels calls it where otfsim_cpu_has_avx512f() says the CPU
 *   runs it; the block-major body is faster everywhere else.
 *
 * The bits, the success flag and the iteration count are those of the
 * numpy kernel that tests/test_kernels.py keeps as the oracle:
 * v2c = total - c2v; an edge's message is alpha * min2 if it holds the
 * first smallest magnitude of its check (a NaN counts as the smallest, as
 * in numpy's argmin) and alpha * min1 otherwise, times the signs of the
 * check's other edges; the totals are llr + 0.0 plus the messages added
 * in check-major edge order.  A variable meets at most one lane of each
 * base row, so adding its messages rows ascending keeps that order: the
 * block-major body adds them row by row, the lane-major body sums each
 * base column's blocks in row order.  Positive LLRs favour bit 0; ties
 * count as bit 1.
 *
 * Every body and clone rounds alike: the kernel only adds, subtracts,
 * multiplies, takes fabs, compares and selects, which IEEE arithmetic
 * rounds alike in every lane at any vector width, in the same order for
 * each lane; the build forbids contracting multiply-adds, the avx2 target
 * has no FMA and the lane-major body calls none.
 *
 * Built on first use by otfsim._kernels and called through ctypes.
 */
#include <math.h>
#include <stdint.h>

#if defined(__x86_64__) && defined(__GLIBC__) && (defined(__GNUC__) || defined(__clang__))
#define OTFSIM_X86_64_GLIBC 1
#include <immintrin.h>
#endif

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

/* 1 when every check XORs the hard decisions to zero. */
static int checks_ok(int64_t z, int64_t n_rows, const int64_t *row_ptr,
                     const int64_t *block_col, const int64_t *block_shift,
                     const uint8_t *restrict hard, uint8_t *restrict parity)
{
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

/* Hard decisions from the totals; 1 when every check is satisfied. */
static int hard_and_ok(int64_t n_vars, int64_t z, int64_t n_rows, const int64_t *row_ptr,
                       const int64_t *block_col, const int64_t *block_shift,
                       const double *restrict total, uint8_t *restrict hard,
                       uint8_t *restrict parity)
{
    for (int64_t i = 0; i < n_vars; i++)
        hard[i] = total[i] <= 0.0;
    return checks_ok(z, n_rows, row_ptr, block_col, block_shift, hard, parity);
}

/* Both bodies take the same arguments.  work is scratch of at least
 * 2 * (z * (n_blocks + 4) + n_vars + 4) doubles, n_blocks = row_ptr[n_rows],
 * and parity scratch of z bytes; each body zeroes what it reads before it
 * writes.  Returns 1 when every check is satisfied and stores the
 * iterations run. */
#ifdef OTFSIM_X86_64_GLIBC
__attribute__((target_clones("avx2", "default")))
#endif
int otfsim_min_sum_decode(int64_t n_vars, int64_t z, int64_t n_rows, const int64_t *row_ptr,
                          const int64_t *block_col, const int64_t *block_shift,
                          const double *llr, double alpha, int64_t max_iters, uint8_t *hard,
                          double *work, uint8_t *parity, int64_t *iterations)
{
    /* c2v (z per block), totals (2 * n_vars), two lane states (8 * z) */
    double *c2v = work, *total = c2v + row_ptr[n_rows] * z, *next = total + n_vars;
    struct lanes state[2];
    for (int k = 0; k < 2; k++) {
        double *p = next + n_vars + 4 * k * z;
        state[k] = (struct lanes){p, p + z, p + 2 * z, p + 3 * z};
    }
    for (int64_t i = 0; i < row_ptr[n_rows] * z; i++)
        c2v[i] = 0.0;
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

#ifdef OTFSIM_X86_64_GLIBC
/* 1 when this CPU runs otfsim_min_sum_decode_lanes. */
int otfsim_cpu_has_avx512f(void)
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") != 0;
}

/* Every function below runs AVX-512F instructions, and 64-byte vectors
 * pass only among them, inside this target (outside it GCC warns that
 * their calling convention changed). */
#define AVX512 __attribute__((target("avx512f")))

/* The lanes i .. i + 7 that lie below z; the rest are neither read nor
 * written. */
AVX512 static inline __mmask8 lane_mask(int64_t i, int64_t z)
{
    return z - i >= 8 ? 0xFF : (__mmask8)((1u << (z - i)) - 1);
}

AVX512 static inline __m512d sign_of(__m512d v)
{
    return _mm512_mask_blend_pd(_mm512_cmp_pd_mask(v, _mm512_setzero_pd(), _CMP_LT_OQ),
                                _mm512_set1_pd(1.0), _mm512_set1_pd(-1.0));
}

/* Lanes i .. i + 7 of base row lo .. hi - 1: v2c from the totals into the
 * first copy of each block's messages, with the check state in registers,
 * then the new messages into both copies. */
AVX512 static inline void row_lanes(int64_t i, int64_t z, int64_t lo, int64_t hi,
                                    const int64_t *block_col, const int64_t *block_shift,
                                    const double *total, double *msg, double alpha)
{
    const __m512d zero = _mm512_setzero_pd(), one = _mm512_set1_pd(1.0);
    __mmask8 m = lane_mask(i, z);
    __m512d min1 = _mm512_set1_pd(INFINITY), min2 = min1, sign = one, nans = zero;
    for (int64_t b = lo; b < hi; b++) {
        double *e = msg + 2 * z * b + i;
        __m512d v = _mm512_sub_pd(
            _mm512_maskz_loadu_pd(m, total + 2 * z * block_col[b] + block_shift[b] + i),
            _mm512_maskz_loadu_pd(m, e));
        __m512d a = _mm512_abs_pd(v);
        __mmask8 lt = _mm512_cmp_pd_mask(a, min1, _CMP_LT_OQ);
        __m512d loser = _mm512_mask_blend_pd(lt, a, min1);
        min1 = _mm512_mask_blend_pd(lt, min1, a);
        min2 = _mm512_mask_blend_pd(_mm512_cmp_pd_mask(loser, min2, _CMP_LT_OQ), min2, loser);
        sign = _mm512_mul_pd(sign, sign_of(v));
        nans = _mm512_mask_add_pd(nans, _mm512_cmp_pd_mask(a, a, _CMP_UNORD_Q), nans, one);
        _mm512_mask_storeu_pd(e, m, v);
    }
    /* a NaN magnitude counts as the smallest, as in numpy's argmin */
    const __m512d nan = _mm512_set1_pd(NAN);
    __mmask8 some = _mm512_cmp_pd_mask(nans, zero, _CMP_GT_OQ);
    __mmask8 many = _mm512_cmp_pd_mask(nans, one, _CMP_GT_OQ);
    min2 = _mm512_mask_blend_pd(some, min2, _mm512_mask_blend_pd(many, min1, nan));
    min1 = _mm512_mask_blend_pd(some, min1, nan);
    const __m512d scale = _mm512_set1_pd(alpha);
    for (int64_t b = lo; b < hi; b++) {
        double *e = msg + 2 * z * b + i;
        __m512d v = _mm512_maskz_loadu_pd(m, e), a = _mm512_abs_pd(v);
        __mmask8 gets_min2 = _mm512_cmp_pd_mask(a, min1, _CMP_EQ_OQ) |
                             _mm512_cmp_pd_mask(a, a, _CMP_UNORD_Q);
        __m512d mag = _mm512_mask_blend_pd(gets_min2, min1, min2);
        __m512d out = _mm512_mul_pd(_mm512_mul_pd(sign, sign_of(v)), _mm512_mul_pd(scale, mag));
        _mm512_mask_storeu_pd(e, m, out);
        _mm512_mask_storeu_pd(e + z, m, out);
    }
}

/* Lanes i .. i + 7 of one base column: llr + 0.0 plus the messages of the
 * column's blocks, listed rows ascending, into both copies of the
 * column's totals, and the hard decisions. */
AVX512 static inline void column_lanes(int64_t i, int64_t z, const int64_t *blocks,
                                       int64_t count, const int64_t *block_shift,
                                       const double *llr, const double *msg, double *total,
                                       uint8_t *hard)
{
    __mmask8 m = lane_mask(i, z);
    __m512d acc = _mm512_add_pd(_mm512_maskz_loadu_pd(m, llr + i), _mm512_setzero_pd());
    for (int64_t j = 0; j < count; j++) {
        const double *e = msg + 2 * z * blocks[j] + z - block_shift[blocks[j]];
        acc = _mm512_add_pd(acc, _mm512_maskz_loadu_pd(m, e + i));
    }
    __mmask8 le = _mm512_cmp_pd_mask(acc, _mm512_setzero_pd(), _CMP_LE_OQ);
    _mm512_mask_storeu_pd(total + i, m, acc);
    _mm512_mask_storeu_pd(total + z + i, m, acc);
    _mm512_mask_cvtepi64_storeu_epi8(hard + i, m, _mm512_maskz_set1_epi64(le, 1));
}

AVX512 int otfsim_min_sum_decode_lanes(int64_t n_vars, int64_t z, int64_t n_rows,
                                       const int64_t *row_ptr, const int64_t *block_col,
                                       const int64_t *block_shift, const double *llr,
                                       double alpha, int64_t max_iters, uint8_t *hard,
                                       double *work, uint8_t *parity, int64_t *iterations)
{
    /* messages (2 * z per block), then totals (2 * z per base column); the
     * last vector's masked-off lanes point at most 8 doubles past them */
    int64_t n_blocks = row_ptr[n_rows], n_cols = n_vars / z;
    double *msg = work, *total = msg + 2 * z * n_blocks;
    for (int64_t b = 0; b < n_blocks; b++)
        for (int64_t i = 0; i < z; i++)
            msg[2 * z * b + i] = 0.0; /* the copy the first v2c reads */
    for (int64_t c = 0; c < n_cols; c++)
        for (int64_t i = 0; i < z; i++) {
            total[2 * z * c + i] = total[2 * z * c + z + i] = llr[z * c + i];
            hard[z * c + i] = llr[z * c + i] <= 0.0;
        }
    *iterations = 0;
    if (checks_ok(z, n_rows, row_ptr, block_col, block_shift, hard, parity))
        return 1;
    int64_t cursor[n_rows], blocks[n_rows];
    for (int64_t it = 1; it <= max_iters; it++) {
        for (int64_t r = 0; r < n_rows; r++)
            for (int64_t i = 0; i < z; i += 8)
                row_lanes(i, z, row_ptr[r], row_ptr[r + 1], block_col, block_shift, total, msg,
                          alpha);
        /* each row lists its blocks columns ascending, so one cursor per
         * row finds every column's blocks in row order */
        for (int64_t r = 0; r < n_rows; r++)
            cursor[r] = row_ptr[r];
        for (int64_t c = 0; c < n_cols; c++) {
            int64_t count = 0;
            for (int64_t r = 0; r < n_rows; r++)
                if (cursor[r] < row_ptr[r + 1] && block_col[cursor[r]] == c)
                    blocks[count++] = cursor[r]++;
            for (int64_t i = 0; i < z; i += 8)
                column_lanes(i, z, blocks, count, block_shift, llr + z * c, msg,
                             total + 2 * z * c, hard + z * c);
        }
        *iterations = it;
        if (checks_ok(z, n_rows, row_ptr, block_col, block_shift, hard, parity))
            return 1;
    }
    return 0;
}
#endif
