/* The hot loops of a CLI run, compiled: a site's round of shuffled SGD
 * passes, each followed by the finiteness sweep and the prox step, and the
 * sums for the round's RMSE and convergence check (the twin of the Python
 * round in solver.run_local_epoch), the model values that tensor.rmse
 * scores (the twin of reconstruct_values), the parse of a COO file's body
 * (the fast path of data.read_coo), and the text of COO records and factor
 * rows (the fast path of data.write_coo and data.write_factors, byte for
 * byte what repr writes).
 *
 * The arithmetic follows each Python reference operation for operation.
 * In the pass every dot product is summed strictly left to right starting
 * from the first product, and every row update is a separate multiply and
 * subtract; the model values are summed left to right from 0.0, the order
 * numpy's einsum uses; the round's norms and sums take numpy's pairwise or
 * row order, as np.sum and np.linalg.norm do. Build with -ffp-contract=off
 * (no fused multiply-add) and without -ffast-math, so the paths agree bit
 * for bit. At -O3 the compiler vectorises the element-wise loops, whose
 * lanes compute what the scalar loop did, and may not reorder any sum.
 * The pass sums its three clip norms in one loop as three independent
 * chains, each left to right, and prefetches the coords and value of the
 * entry PREFETCH_ENTRY places ahead in the shuffled order and the rows of
 * the entry PREFETCH_ROWS ahead (only under gcc or clang, which have
 * __builtin_prefetch); a prefetch changes no value.
 * The parser reads each value with strtod, which glibc rounds correctly,
 * as Python's float() does. The writers find each value's shortest
 * round-trip digits with exact integer arithmetic and lay them out as
 * repr does; a value outside their range is left to repr.
 *
 * The callers check shapes, dtypes and contiguity before a call; this
 * file trusts that every index in coords lies inside its factor matrix.
 * No Python object is touched, so a call may run without the GIL.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Scale g to 2-norm clip when its norm sqrt(sq) exceeds clip; 1 when it
 * did, else 0. */
static int clip_row(double *g, int64_t rank, double sq, double clip)
{
    double norm = sqrt(sq);
    if (!(norm > clip))
        return 0;
    double scale = clip / norm;
    for (int64_t r = 0; r < rank; r++)
        g[r] = g[r] * scale;
    return 1;
}

/* How far ahead in the shuffled order sgd_pass prefetches an entry's
 * coords and value, and its rows of A, B and C: the coords must be in
 * cache before the row addresses are read from them. */
#define PREFETCH_ENTRY 16
#define PREFETCH_ROWS 4

/* Visit the entries order[0..nnz) in turn. For entry n at (i, j, k) with
 * value v, take the row gradients at the current rows A[i], B[j], C[k],
 * clip each residual gradient when clip_on, add the anchor pull on B and
 * C, then step all three rows by eta. coords is (nnz, 3) row-major; the
 * factors and anchors are row-major with rank columns; work holds 3 * rank
 * doubles of scratch. Adds to *clipped the number of residual gradients
 * the clip scaled, up to three per entry. The three clip norms are summed
 * in one loop as three independent chains, each left to right from its
 * first square, as three separate loops would sum them.
 *
 * Returns -1 when every entry was applied, else the position in order of
 * the first entry whose residual is not finite; the entries before it
 * stay applied and that entry is not.
 */
static int64_t sgd_pass(int64_t nnz, const int64_t *order, const int64_t *coords,
                        const double *values, double *A, double *B, double *C,
                        const double *b_hat, const double *c_hat, int64_t rank,
                        double eta, double gamma, double clip, int clip_on,
                        double *work, int64_t *clipped)
{
    double *ga = work, *gb = work + rank, *gc = work + 2 * rank;
    int64_t count = 0;
    for (int64_t p = 0; p < nnz; p++) {
#if defined(__GNUC__)
        if (p + PREFETCH_ENTRY < nnz) {
            int64_t ahead = order[p + PREFETCH_ENTRY];
            __builtin_prefetch(coords + 3 * ahead);
            __builtin_prefetch(values + ahead);
        }
        if (p + PREFETCH_ROWS < nnz) {
            const int64_t *next = coords + 3 * order[p + PREFETCH_ROWS];
            __builtin_prefetch(A + next[0] * rank);
            __builtin_prefetch(B + next[1] * rank);
            __builtin_prefetch(C + next[2] * rank);
        }
#endif
        const int64_t *ijk = coords + 3 * order[p];
        double *a = A + ijk[0] * rank;
        double *b = B + ijk[1] * rank;
        double *c = C + ijk[2] * rank;
        const double *bh = b_hat + ijk[1] * rank;
        const double *ch = c_hat + ijk[2] * rank;

        double resid = a[0] * (b[0] * c[0]);
        for (int64_t r = 1; r < rank; r++)
            resid += a[r] * (b[r] * c[r]);
        resid = resid - values[order[p]];
        if (!isfinite(resid)) {
            *clipped += count;
            return p;
        }

        for (int64_t r = 0; r < rank; r++) {
            ga[r] = resid * (b[r] * c[r]);
            gb[r] = resid * (a[r] * c[r]);
            gc[r] = resid * (a[r] * b[r]);
        }
        if (clip_on) {
            double sa = ga[0] * ga[0], sb = gb[0] * gb[0], sc = gc[0] * gc[0];
            for (int64_t r = 1; r < rank; r++) {
                sa += ga[r] * ga[r];
                sb += gb[r] * gb[r];
                sc += gc[r] * gc[r];
            }
            count += clip_row(ga, rank, sa, clip) + clip_row(gb, rank, sb, clip)
                + clip_row(gc, rank, sc, clip);
        }
        for (int64_t r = 0; r < rank; r++) {
            gb[r] = gb[r] + gamma * (b[r] - bh[r]);
            gc[r] = gc[r] + gamma * (c[r] - ch[r]);
        }
        /* all three gradients are taken before any row is written */
        for (int64_t r = 0; r < rank; r++)
            a[r] = a[r] - eta * ga[r];
        for (int64_t r = 0; r < rank; r++)
            b[r] = b[r] - eta * gb[r];
        for (int64_t r = 0; r < rank; r++)
            c[r] = c[r] - eta * gc[r];
    }
    *clipped += count;
    return -1;
}

/* out[n] = sum over r of (A[i][r] * B[j][r]) * C[k][r] for entry n at
 * (i, j, k), summed left to right from 0.0. coords is (nnz, 3) row-major;
 * the factors are row-major with rank columns.
 */
void model_values(int64_t nnz, const int64_t *coords, const double *A,
                  const double *B, const double *C, int64_t rank, double *out)
{
    for (int64_t n = 0; n < nnz; n++) {
        const int64_t *ijk = coords + 3 * n;
        const double *a = A + ijk[0] * rank;
        const double *b = B + ijk[1] * rank;
        const double *c = C + ijk[2] * rank;
        double sum = 0.0;
        for (int64_t r = 0; r < rank; r++)
            sum += (a[r] * b[r]) * c[r];
        out[n] = sum;
    }
}

/* numpy's pairwise_sum for float64, which np.sum and np.add.reduce use on
 * a contiguous run of values: fewer than 8 terms are summed in turn from
 * 0.0, up to 128 in eight interleaved partial sums combined as a tree and
 * then the leftover terms, and longer runs split in two halves at a
 * multiple of 8. The sums in this file add 0.0 + this, as numpy does.
 */
static double pairwise_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double sum = 0.0;
        for (int64_t i = 0; i < n; i++)
            sum += a[i];
        return sum;
    }
    if (n <= 128) {
        double r[8];
        int64_t i;
        for (int j = 0; j < 8; j++)
            r[j] = a[j];
        for (i = 8; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j];
        double sum = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            sum += a[i];
        return sum;
    }
    int64_t half = n / 2;
    half -= half % 8;
    return pairwise_sum(a, half) + pairwise_sum(a + half, n - half);
}

/* np.add.reduce(x ** 2) and np.add.reduce((x - y) ** 2) over n values,
 * y being NULL in the first case; sq holds n doubles of scratch. */
static double sum_squares(const double *x, const double *y, int64_t n, double *sq)
{
    for (int64_t i = 0; i < n; i++) {
        double d = y ? x[i] - y[i] : x[i];
        sq[i] = d * d;
    }
    return 0.0 + pairwise_sum(sq, n);
}

/* The first row of m ((rows, rank), row-major) holding a non-finite
 * value, or -1. */
static int64_t non_finite_row(const double *m, int64_t rows, int64_t rank)
{
    for (int64_t i = 0; i < rows * rank; i++)
        if (!isfinite(m[i]))
            return i / rank;
    return -1;
}

/* prox_l21 in place: scale column r of A ((rows, rank), row-major) by
 * max(0, 1 - threshold / norm_r), or by 0 when norm_r is 0. The norms are
 * np.linalg.norm(A, axis=0): numpy sums a rank-1 column pairwise and the
 * columns of rank >= 2 each down the rows in order. scratch holds
 * rows * rank doubles.
 */
static void prox_columns(double *A, int64_t rows, int64_t rank, double threshold, double *scratch)
{
    double *norm = scratch;
    if (rank == 1) {
        norm[0] = sum_squares(A, NULL, rows, scratch);
    } else {
        for (int64_t r = 0; r < rank; r++)
            norm[r] = 0.0;
        for (int64_t i = 0; i < rows; i++)
            for (int64_t r = 0; r < rank; r++)
                norm[r] += A[i * rank + r] * A[i * rank + r];
    }
    for (int64_t r = 0; r < rank; r++) {
        double n = sqrt(norm[r]);
        double scale = n > 0.0 ? 1.0 - threshold / n : 0.0;
        norm[r] = scale > 0.0 ? scale : 0.0;
    }
    for (int64_t i = 0; i < rows; i++)
        for (int64_t r = 0; r < rank; r++)
            A[i * rank + r] = A[i * rank + r] * norm[r];
}

/* One site's round, solver.run_local_epoch after its checks: for each of
 * the tau rows of orders ((tau, nnz), row-major), sgd_pass over the shard,
 * the finiteness sweep of A, B and C, then the prox step on A when
 * threshold > 0. The factors are (i_dim, rank), (j_dim, rank) and
 * (k_dim, rank), row-major.
 *
 * Returns ROUND_DONE with sums = {sum of squared residuals over the shard
 * at the final factors, then for B and then C: sum p^2 and sum (c - p)^2,
 * p being the factor at the start and c at the end} and tally[0] the
 * number of residual gradients the clip scaled in the tau passes. Else,
 * with the factors as the failing pass left them: ROUND_RESIDUAL with
 * tally[1] the position in orders (pass * nnz + p) of the entry whose
 * residual is not finite, or ROUND_ROW + m with tally[1] the first row of
 * factor m (0 for A, 1 for B, 2 for C) holding a non-finite value after a
 * pass; or ROUND_NO_MEMORY, before anything changed.
 */
enum { ROUND_DONE, ROUND_NO_MEMORY, ROUND_RESIDUAL, ROUND_ROW };

int site_round(int64_t tau, int64_t nnz, const int64_t *orders, const int64_t *coords,
               const double *values, int64_t i_dim, int64_t j_dim, int64_t k_dim,
               double *A, double *B, double *C, const double *b_hat, const double *c_hat,
               int64_t rank, double eta, double gamma, double clip, int clip_on,
               double threshold, double *sums, int64_t *tally)
{
    int64_t *clipped = tally, *where = tally + 1;
    int64_t nb = j_dim * rank, nc = k_dim * rank, big = i_dim * rank;
    if (big < nnz)
        big = nnz;
    if (big < nb)
        big = nb;
    if (big < nc)
        big = nc;
    double *work = malloc(sizeof(double) * (size_t)(3 * rank + nb + nc + big));
    if (!work)
        return ROUND_NO_MEMORY;
    double *b0 = work + 3 * rank, *c0 = b0 + nb, *scratch = c0 + nc;
    memcpy(b0, B, sizeof(double) * (size_t)nb);
    memcpy(c0, C, sizeof(double) * (size_t)nc);

    int status = ROUND_DONE;
    *clipped = 0;
    double *factors[3] = {A, B, C};
    int64_t rows[3] = {i_dim, j_dim, k_dim};
    for (int64_t t = 0; t < tau && status == ROUND_DONE; t++) {
        int64_t stop = sgd_pass(nnz, orders + t * nnz, coords, values, A, B, C, b_hat,
                                c_hat, rank, eta, gamma, clip, clip_on, work, clipped);
        if (stop >= 0) {
            *where = t * nnz + stop;
            status = ROUND_RESIDUAL;
            break;
        }
        for (int m = 0; m < 3 && status == ROUND_DONE; m++) {
            *where = non_finite_row(factors[m], rows[m], rank);
            if (*where >= 0)
                status = ROUND_ROW + m;
        }
        if (status == ROUND_DONE && threshold > 0.0)
            prox_columns(A, i_dim, rank, threshold, scratch);
    }
    if (status == ROUND_DONE) {
        model_values(nnz, coords, A, B, C, rank, scratch);
        for (int64_t n = 0; n < nnz; n++)
            scratch[n] = scratch[n] - values[n];
        sums[0] = sum_squares(scratch, NULL, nnz, scratch);
        sums[1] = sum_squares(b0, NULL, nb, scratch);
        sums[2] = sum_squares(B, b0, nb, scratch);
        sums[3] = sum_squares(c0, NULL, nc, scratch);
        sums[4] = sum_squares(C, c0, nc, scratch);
    }
    free(work);
    return status;
}

#define IS_BLANK(ch) ((ch) == ' ' || (ch) == '\t')
#define IS_DIGIT(ch) ((ch) >= '0' && (ch) <= '9')
#define IS_VALUE_CHAR(ch) \
    (IS_DIGIT(ch) || (ch) == '.' || (ch) == 'e' || (ch) == 'E' || (ch) == '+' || (ch) == '-')
#define MAX_INDEX_DIGITS 18 /* 10**18 - 1 < 2**63: no overflow */
#define MAX_VALUE_BYTES 63

/* Parse buf[0..len), the body of a COO file, into coords ((cap, 3),
 * row-major) and values, one "i j k value" record per line. A line is
 * optional blanks (spaces or tabs), three indices of 1 to 18 ASCII digits
 * and a value token of [0-9.eE+-], at most 63 bytes, that strtod consumes
 * whole, each separated by blanks, then optional blanks and "\n" or "\r\n";
 * the last line may end without one. Ranges, zeros and non-finite values
 * are not checked here. strtod follows LC_NUMERIC: under a locale whose
 * decimal point is not '.', it stops at the '.' and the line is rejected,
 * never misread.
 *
 * Returns the record count, or -1 - n when line n (from 0) is outside
 * that grammar or would be record cap + 1: a comment, a blank line, a
 * sign or "_" in an index, a lone "\r", inf, nan, hex, a decimal comma,
 * a non-ASCII byte. Records before line n are written.
 */
int64_t parse_coo(const char *buf, int64_t len, int64_t cap, int64_t *coords,
                  double *values)
{
    const unsigned char *p = (const unsigned char *)buf, *end = p + len;
    char token[MAX_VALUE_BYTES + 1];
    int64_t n = 0;
    for (; p < end; n++) {
        if (n == cap)
            return -1 - n;
        while (p < end && IS_BLANK(*p))
            p++;
        for (int f = 0; f < 3; f++) {
            int64_t index = 0;
            int digits = 0;
            for (; p < end && IS_DIGIT(*p); p++) {
                if (++digits > MAX_INDEX_DIGITS)
                    return -1 - n;
                index = 10 * index + (*p - '0');
            }
            if (digits == 0 || p == end || !IS_BLANK(*p))
                return -1 - n;
            while (p < end && IS_BLANK(*p))
                p++;
            coords[3 * n + f] = index;
        }
        const unsigned char *start = p;
        while (p < end && IS_VALUE_CHAR(*p))
            p++;
        size_t width = (size_t)(p - start);
        if (width == 0 || width > MAX_VALUE_BYTES)
            return -1 - n;
        /* strtod reads a NUL-terminated copy, never past the token */
        memcpy(token, start, width);
        token[width] = '\0';
        char *stop;
        values[n] = strtod(token, &stop);
        if (stop != token + width)
            return -1 - n;
        while (p < end && IS_BLANK(*p))
            p++;
        if (p < end && *p == '\r' && p + 1 < end && p[1] == '\n')
            p++;
        if (p < end && *p++ != '\n')
            return -1 - n;
    }
    return n;
}

/* Shortest round-trip decimal of a double, as Python's repr writes it.
 *
 * x = f * 2^e with a 53-bit integer f. The free-format digit loop (Steele
 * & White, PLDI 1990; Burger & Dybvig, PLDI 1996) keeps x = r / s and the
 * half-gaps to its neighbours, mp / s above and mm / s below, as exact
 * integers, scales them by a power of ten until (r + mp) / s lies in
 * [0.1, 1), then takes digits until the digits so far, or those with the
 * last one raised, read back as x. The gap ends count when f is even:
 * float() rounds a decimal half way between two doubles to the even one.
 * When both candidates read back, the nearer one is written, and on an
 * exact tie the even digit, as the correctly rounded dtoa behind repr
 * does. Every quantity stays below 2^120 for binary exponents e in
 * [FMT_MIN_EXP, FMT_MAX_EXP] (about 3.5e-18 <= |x| < 2^63); the callers
 * send any other value (subnormal, huge, inf, nan) to repr itself.
 */
typedef unsigned __int128 u128;

#define FMT_MIN_EXP (-110)
#define FMT_MAX_EXP 10
#define FMT_MAX_BYTES 24 /* the longest repr of a double */

static const uint64_t POW10[20] = {
    1ULL, 10ULL, 100ULL, 1000ULL, 10000ULL, 100000ULL, 1000000ULL, 10000000ULL,
    100000000ULL, 1000000000ULL, 10000000000ULL, 100000000000ULL,
    1000000000000ULL, 10000000000000ULL, 100000000000000ULL,
    1000000000000000ULL, 10000000000000000ULL, 100000000000000000ULL,
    1000000000000000000ULL, 10000000000000000000ULL,
};

/* The digit loop on integers of type T, which must hold 21 * s: write the
 * digits of r / s (with r + mp < s, or <= when even is 0) at digits and
 * return their count, mp being mm << mp_shift. When s == 2^shift a digit
 * is r >> shift and the remainder r & (s - 1); shift < 0 means s is no
 * power of two. It is defined for 128 bits, which hold every value in
 * range, and for 64 bits, taken while s < 2^59 for speed: that copy takes
 * 98.6 % of the values a 240k-entry fedcp generate and run write, and
 * writes them in about three quarters of the time.
 */
#define DEFINE_DIGIT_LOOP(NAME, T)                                             \
    static int NAME(T r, T s, T mm, int mp_shift, int shift, int even,         \
                    char *digits)                                              \
    {                                                                          \
        T mask = s - 1, mp;                                                    \
        int nd = 0, d, low, high;                                              \
        for (;;) {                                                             \
            r *= 10, mm *= 10, mp = mm << mp_shift;                            \
            if (shift >= 0) {                                                  \
                d = (int)(r >> shift);                                         \
                r &= mask;                                                     \
            } else {                                                           \
                d = (int)(r / s);                                              \
                r -= (T)d * s;                                                 \
            }                                                                  \
            low = even ? r <= mm : r < mm;                                     \
            high = even ? r + mp >= s : r + mp > s;                            \
            if (low || high)                                                   \
                break;                                                         \
            digits[nd++] = (char)('0' + d);                                    \
        }                                                                      \
        /* the nearer of d and d + 1, the even one on a tie */                 \
        if (high && (!low || 2 * r > s || (2 * r == s && (d & 1))))            \
            d++;                                                               \
        digits[nd++] = (char)('0' + d);                                        \
        return nd;                                                             \
    }

DEFINE_DIGIT_LOOP(digit_loop_64, uint64_t)
DEFINE_DIGIT_LOOP(digit_loop_128, u128)

/* Write repr(x) at out, at most FMT_MAX_BYTES bytes; return the byte
 * count, or -1 (nothing written) when x is outside the range above. */
static int format_double(double x, char *out)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    uint64_t frac = bits & ((1ULL << 52) - 1);
    int biased = (int)((bits >> 52) & 0x7ff);
    int e = biased - 1075;
    char *p = out;
    if (biased == 0 && frac == 0) {
        if (bits >> 63)
            *p++ = '-';
        memcpy(p, "0.0", 3);
        return (int)(p - out) + 3;
    }
    if (biased == 0 || e < FMT_MIN_EXP || e > FMT_MAX_EXP)
        return -1;
    if (bits >> 63)
        *p++ = '-';

    uint64_t f = frac | (1ULL << 52);
    int even = (f & 1) == 0;
    /* the gap below a power of two is half the gap above it: mp = 2 mm */
    int h = frac == 0;
    u128 r, s, mm;
    if (e >= 0) {
        r = (u128)f << (e + 1 + h);
        s = (u128)2 << h;
        mm = (u128)1 << e;
    } else {
        r = (u128)f << (1 + h);
        s = (u128)1 << (1 - e + h);
        mm = 1;
    }

    /* k = the decimal exponent with 10^(k-1) <= (r + mp) / s < 10^k.
     * Start from floor((e + 52) * log10(2)) + 1, never above k (78913 /
     * 2^18 is a hair below log10(2); the bias keeps the shifted operand
     * non-negative), and scale r, mm or s by 10^|k| */
    int k = (((e + 52) * 78913 + (64 << 18)) >> 18) - 64 + 1;
    u128 R, S, MM;
    for (;; k++) {
        if (k >= 0)
            R = r, S = s * POW10[k], MM = mm;
        else
            R = r * POW10[-k], S = s, MM = mm * POW10[-k];
        if (even ? R + (MM << h) < S : R + (MM << h) <= S)
            break;
    }
    /* s is still the power of two 2^shift when no 10^k scaled it */
    int shift = e < 0 && k <= 0 ? 1 - e + h : -1;
    char digits[20];
    int nd = S >> 59 == 0
        ? digit_loop_64((uint64_t)R, (uint64_t)S, (uint64_t)MM, h, shift, even, digits)
        : digit_loop_128(R, S, MM, h, shift, even, digits);

    /* the layout of repr: positional when the exponent k - 1 lies in
     * [-4, 16), that is for 1e-4 <= |x| < 1e16, else d.ddde±XX */
    if (k > -4 && k <= 16) {
        if (k <= 0) {
            memcpy(p, "0.000", 2 - k);
            p += 2 - k;
            memcpy(p, digits, nd);
            p += nd;
        } else if (k < nd) {
            memcpy(p, digits, k);
            p[k] = '.';
            memcpy(p + k + 1, digits + k, nd - k);
            p += nd + 1;
        } else {
            memcpy(p, digits, nd);
            p += nd;
            memset(p, '0', k - nd);
            p += k - nd;
            memcpy(p, ".0", 2);
            p += 2;
        }
    } else {
        int exp10 = k - 1;
        *p++ = digits[0];
        if (nd > 1) {
            *p++ = '.';
            memcpy(p, digits + 1, nd - 1);
            p += nd - 1;
        }
        *p++ = 'e';
        *p++ = exp10 < 0 ? '-' : '+';
        if (exp10 < 0)
            exp10 = -exp10;
        *p++ = (char)('0' + exp10 / 10);
        *p++ = (char)('0' + exp10 % 10);
    }
    return (int)(p - out);
}

/* Write v in decimal at out; return the byte count (at most 20). */
static int format_int(int64_t v, char *out)
{
    char tmp[20];
    int n = 0, len = 0;
    uint64_t u = v < 0 ? 0 - (uint64_t)v : (uint64_t)v;
    do {
        tmp[n++] = (char)('0' + u % 10);
        u /= 10;
    } while (u);
    if (v < 0)
        out[len++] = '-';
    while (n)
        out[len++] = tmp[--n];
    return len;
}

/* Write the rows of values ((n, rank), row-major) at out, which holds cap
 * bytes, as " ".join(map(repr, row)) + "\n" per row. Returns the byte
 * count, or -1 - i when value i (row-major) is outside format_double's
 * range or out has no room left for it, a blank and a newline; the text
 * before it is written. n * rank * (FMT_MAX_BYTES + 1) + n bytes are
 * always room enough.
 */
int64_t format_rows(const double *values, int64_t n, int64_t rank, char *out, int64_t cap)
{
    char *p = out, *end = out + cap;
    int64_t i = 0;
    for (int64_t row = 0; row < n; row++) {
        for (int64_t c = 0; c < rank; c++, i++) {
            if (end - p < FMT_MAX_BYTES + 2)
                return -1 - i;
            if (c > 0)
                *p++ = ' ';
            int width = format_double(values[i], p);
            if (width < 0)
                return -1 - i;
            p += width;
        }
        if (p == end) /* a row of rank 0 */
            return -1 - i;
        *p++ = '\n';
    }
    return p - out;
}

/* the longest record: three int64s of up to 20 bytes, each with its blank,
 * a value and its newline */
#define COO_RECORD_BYTES (3 * 21 + FMT_MAX_BYTES + 1)

/* Write entries 0..n of coords ((n, 3), row-major) and values at out,
 * which holds cap bytes, as f"{i} {j} {k} {v!r}\n" records. Returns the
 * byte count, or -1 - i when value i is outside format_double's range or
 * out has fewer than COO_RECORD_BYTES bytes left for its record; the
 * records before it are written.
 */
int64_t format_coo(const int64_t *coords, const double *values, int64_t n, char *out,
                   int64_t cap)
{
    char *p = out, *end = out + cap;
    for (int64_t i = 0; i < n; i++) {
        if (end - p < COO_RECORD_BYTES)
            return -1 - i;
        for (int f = 0; f < 3; f++) {
            p += format_int(coords[3 * i + f], p);
            *p++ = ' ';
        }
        int width = format_double(values[i], p);
        if (width < 0)
            return -1 - i;
        p += width;
        *p++ = '\n';
    }
    return p - out;
}
