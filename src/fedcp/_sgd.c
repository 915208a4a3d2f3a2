/* The hot loops of a CLI run, compiled. The five functions that are not
 * static are the kernels _native.SIGNATURES declares: site_round, a site's
 * round: the step-size bound's inputs, the draw of its shuffled orders from
 * the site's numpy stream, the SGD passes, each followed by the finiteness
 * sweep and the prox step, and the sum for the round's RMSE (the twin of
 * the Python round in solver.run_local_epoch); model_values, the model
 * values that tensor.rmse scores and data.generate_synthetic stores (the
 * twin of reconstruct_values); count_newlines and parse_coo, the size and
 * the parse of a COO file's body (the fast path of data.read_coo); and
 * format_records, the text of COO records and factor rows (the fast path
 * of data.write_coo and data.write_factors, byte for byte what repr
 * writes).
 *
 * The arithmetic follows each Python reference operation for operation.
 * In the pass every dot product is summed strictly left to right starting
 * from the first product, and every row update is a separate multiply and
 * subtract; the model values are summed left to right from 0.0, the order
 * numpy's einsum uses; the round's norms and sums take numpy's pairwise or
 * row order, as np.sum, np.add.reduce and np.linalg.norm do. The orders
 * are drawn as numpy's Generator.shuffle draws them, through the
 * generator's bitgen_t, so the stream ends where the Python round leaves
 * it. Build with -ffp-contract=off (no fused multiply-add) and without
 * -ffast-math, so the paths agree bit for bit. At -O3 the compiler
 * vectorises the element-wise loops, whose lanes compute what the scalar
 * loop did, and may not reorder any sum.
 * Every residual gradient is clipped and every pass followed by the prox
 * step; at clip = inf and threshold 0 they change no bit, so no value
 * picks a path.
 * The pass sums its three clip norms in one loop as three independent
 * chains, each left to right, and prefetches the coords and value of the
 * entry PREFETCH_ENTRY places ahead in the shuffled order and the rows of
 * the entry PREFETCH_ROWS ahead; a prefetch changes no value.
 * The parser reads each value in one forward scan, eight digits at a
 * time where it can, with an exact fast path (a Clinger multiply or
 * divide, or one 128-bit integer division) when the token allows it, and
 * with strtod, which glibc rounds correctly, otherwise: both give the
 * bits of Python's float(). The writer finds each value's shortest
 * round-trip digits with exact integer arithmetic and lays them out as
 * repr does; a value outside its range is left to repr.
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
 * did, else 0. A clip of +inf scales and counts nothing, a NaN norm
 * included. */
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
 * cache before the row addresses are read from them. It pays where a
 * shard outgrows the cache: on a 48k-entry, rank-5 site of the
 * cli_large_io workload, site_round took 72-74 ns per entry against 87-94
 * without it (6 of 6 alternations on each of two data seeds, one 2-vCPU
 * x86-64 host). The readme_pooled sites (2.4k entries, rank 50) showed no
 * difference, and a small_rounds site (200 entries, in L1) about 3 ns
 * more per entry with it. */
#define PREFETCH_ENTRY 16
#define PREFETCH_ROWS 4

/* Visit the entries order[0..nnz) in turn. For entry n at (i, j, k) with
 * value v, take the row gradients at the current rows A[i], B[j], C[k],
 * clip each residual gradient to 2-norm clip, add the anchor pull on B
 * and C, then step all three rows by eta. coords is (nnz, 3) row-major; the
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
                        double eta, double gamma, double clip, double *work,
                        int64_t *clipped)
{
    double *ga = work, *gb = work + rank, *gc = work + 2 * rank;
    int64_t count = 0;
    for (int64_t p = 0; p < nnz; p++) {
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
        double sa = ga[0] * ga[0], sb = gb[0] * gb[0], sc = gc[0] * gc[0];
        for (int64_t r = 1; r < rank; r++) {
            sa += ga[r] * ga[r];
            sb += gb[r] * gb[r];
            sc += gc[r] * gc[r];
        }
        count += clip_row(ga, rank, sa, clip) + clip_row(gb, rank, sb, clip)
            + clip_row(gc, rank, sc, clip);
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

/* np.add.reduce(x ** 2) over n values; sq holds n doubles of scratch and
 * may be x itself. */
static double sum_squares(const double *x, int64_t n, double *sq)
{
    for (int64_t i = 0; i < n; i++)
        sq[i] = x[i] * x[i];
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
 * 1 - s when s = threshold / norm_r is below 1, else by 0 (s is inf on a
 * zero norm). s is NaN only for 0 / 0, a zero threshold on a column whose
 * norm is 0 (all zeros, or every square underflows): that column is scaled
 * by 1 like every other, so a zero threshold keeps every bit. The norms are np.linalg.norm(A, axis=0): numpy sums a rank-1 column
 * pairwise and the columns of rank >= 2 each down the rows in order.
 * scratch holds rows * rank doubles.
 */
static void prox_columns(double *A, int64_t rows, int64_t rank, double threshold, double *scratch)
{
    double *norm = scratch;
    if (rank == 1) {
        norm[0] = sum_squares(A, rows, scratch);
    } else {
        for (int64_t r = 0; r < rank; r++)
            norm[r] = 0.0;
        for (int64_t i = 0; i < rows; i++)
            for (int64_t r = 0; r < rank; r++)
                norm[r] += A[i * rank + r] * A[i * rank + r];
    }
    for (int64_t r = 0; r < rank; r++) {
        double s = threshold / sqrt(norm[r]);
        norm[r] = s < 1.0 ? 1.0 - s : s >= 1.0 ? 0.0 : 1.0;
    }
    for (int64_t i = 0; i < rows; i++)
        for (int64_t r = 0; r < rank; r++)
            A[i * rank + r] = A[i * rank + r] * norm[r];
}

/* numpy's bitgen_t (numpy/random/bitgen.h): the struct whose address a
 * BitGenerator's ctypes.bit_generator holds, its state and the functions
 * that draw from it. */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

/* numpy's random_interval: a uniform draw from [0, max], the low bits of
 * one 32-bit draw (a 64-bit one when max needs more) under the smallest
 * mask of all ones that covers max, drawn again while above max. */
static uint64_t random_interval(bitgen_t *bitgen, uint64_t max)
{
    if (max == 0)
        return 0;
    uint64_t mask = max, value;
    mask |= mask >> 1;
    mask |= mask >> 2;
    mask |= mask >> 4;
    mask |= mask >> 8;
    mask |= mask >> 16;
    mask |= mask >> 32;
    if (max <= 0xffffffffULL) {
        while ((value = (bitgen->next_uint32(bitgen->state) & mask)) > max)
            ;
    } else {
        while ((value = (bitgen->next_uint64(bitgen->state) & mask)) > max)
            ;
    }
    return value;
}

/* order = Generator.shuffle of arange(n), which Generator.permutation(n)
 * also is: from the last place down to the second, swap each with a place
 * drawn from [0, i] by random_interval. Fewer than two places draw
 * nothing. */
static void shuffled_range(bitgen_t *bitgen, int64_t n, int64_t *order)
{
    for (int64_t i = 0; i < n; i++)
        order[i] = i;
    for (int64_t i = n - 1; i > 0; i--) {
        int64_t j = (int64_t)random_interval(bitgen, (uint64_t)i);
        int64_t held = order[i];
        order[i] = order[j];
        order[j] = held;
    }
}

/* The larger of m and x, and NaN once either is, as np.maximum gives. */
static double max_nan(double m, double x)
{
    return x > m || isnan(x) ? x : m;
}

/* The inputs of solver.beta_lipschitz for one factor m ((rows, rank),
 * row-major): *top its largest |entry| and *norm its largest squared row
 * norm, each row summed as np.add.reduce sums it; both NaN when m holds
 * NaN, as np.maximum gives. The largest |entry| is taken in eight chains
 * whose compares overlap, about twice as fast as one chain at rank 50. A
 * NaN loses every compare there, but it makes its row's sum NaN, the only
 * way such a sum can be NaN (each square is >= 0 or +inf), and *norm
 * keeps it. sq holds rank doubles of scratch. */
static void factor_bounds(const double *m, int64_t rows, int64_t rank, double *top,
                          double *norm, double *sq)
{
    double t[8] = {0.0}, n = 0.0;
    int64_t size = rows * rank, i = 0;
    for (; i + 8 <= size; i += 8)
        for (int j = 0; j < 8; j++)
            t[j] = fabs(m[i + j]) > t[j] ? fabs(m[i + j]) : t[j];
    for (; i < size; i++)
        t[0] = fabs(m[i]) > t[0] ? fabs(m[i]) : t[0];
    for (int j = 1; j < 8; j++)
        t[0] = t[j] > t[0] ? t[j] : t[0];
    for (int64_t r = 0; r < rows; r++)
        n = max_nan(n, sum_squares(m + r * rank, rank, sq));
    *top = isnan(n) ? n : t[0];
    *norm = n;
}

/* One site's round, solver.run_local_epoch after its checks. It first
 * writes the step-size bound's inputs, out[1 + m] the largest |entry| and
 * out[4 + m] the largest squared row norm of factor m (0 for A, 1 for B,
 * 2 for C), and draws all tau orders of the shard's entries from the
 * site's shuffle stream bitgen, each as Generator.permutation(nnz) draws
 * it. Then for each order, sgd_pass over the shard, the finiteness sweep
 * of A, B and C, and the prox step on A. The factors are (i_dim, rank),
 * (j_dim, rank) and (k_dim, rank), row-major.
 *
 * Returns ROUND_DONE with out[0] the sum of squared residuals over the
 * shard at the final factors and tally[0] the number of residual
 * gradients the clip scaled in the tau passes. Else, with the factors as
 * the failing pass left them and every order drawn: ROUND_RESIDUAL with
 * tally[1] the index in coords of the entry whose residual is not finite,
 * or ROUND_ROW + m with tally[1] the first row of factor m holding a
 * non-finite value after a pass; or ROUND_NO_MEMORY, before anything is
 * written or drawn.
 */
enum { ROUND_DONE, ROUND_NO_MEMORY, ROUND_RESIDUAL, ROUND_ROW };

int site_round(int64_t tau, int64_t nnz, bitgen_t *bitgen, const int64_t *coords,
               const double *values, int64_t i_dim, int64_t j_dim, int64_t k_dim,
               double *A, double *B, double *C, const double *b_hat, const double *c_hat,
               int64_t rank, double eta, double gamma, double clip, double threshold,
               double *out, int64_t *tally)
{
    int64_t *clipped = tally, *where = tally + 1;
    int64_t big = i_dim * rank > nnz ? i_dim * rank : nnz;
    /* the doubles, then the tau orders; both types are 8 bytes wide */
    double *work = malloc(sizeof(double) * (size_t)(3 * rank + big)
                          + sizeof(int64_t) * (size_t)(tau * nnz));
    if (!work)
        return ROUND_NO_MEMORY;
    double *scratch = work + 3 * rank;
    int64_t *orders = (int64_t *)(scratch + big);

    double *factors[3] = {A, B, C};
    int64_t rows[3] = {i_dim, j_dim, k_dim};
    for (int m = 0; m < 3; m++)
        factor_bounds(factors[m], rows[m], rank, out + 1 + m, out + 4 + m, work);
    for (int64_t t = 0; t < tau; t++)
        shuffled_range(bitgen, nnz, orders + t * nnz);

    int status = ROUND_DONE;
    *clipped = 0;
    for (int64_t t = 0; t < tau && status == ROUND_DONE; t++) {
        const int64_t *order = orders + t * nnz;
        int64_t stop = sgd_pass(nnz, order, coords, values, A, B, C, b_hat, c_hat, rank,
                                eta, gamma, clip, work, clipped);
        if (stop >= 0) {
            *where = order[stop];
            status = ROUND_RESIDUAL;
            break;
        }
        for (int m = 0; m < 3 && status == ROUND_DONE; m++) {
            *where = non_finite_row(factors[m], rows[m], rank);
            if (*where >= 0)
                status = ROUND_ROW + m;
        }
        if (status == ROUND_DONE)
            prox_columns(A, i_dim, rank, threshold, scratch);
    }
    if (status == ROUND_DONE) {
        model_values(nnz, coords, A, B, C, rank, scratch);
        for (int64_t n = 0; n < nnz; n++)
            scratch[n] = scratch[n] - values[n];
        out[0] = sum_squares(scratch, nnz, scratch);
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

typedef unsigned __int128 u128;

static const uint64_t POW10[20] = {
    1ULL, 10ULL, 100ULL, 1000ULL, 10000ULL, 100000ULL, 1000000ULL, 10000000ULL,
    100000000ULL, 1000000000ULL, 10000000000ULL, 100000000000ULL,
    1000000000000ULL, 10000000000000ULL, 100000000000000ULL,
    1000000000000000ULL, 10000000000000000ULL, 100000000000000000ULL,
    1000000000000000000ULL, 10000000000000000000ULL,
};

/* 1e0 to 1e22, the powers of ten a double holds exactly */
static const double EXACT_POW10[23] = {
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
    1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
};

/* w / 10^d rounded to the nearest double, ties to even, for 1 <= w < 2^64
 * and 1 <= d <= 19. With w shifted left by s so that w * 2^s has 63 bits
 * more than 10^d, the quotient q = floor(w * 2^s / 10^d) has 63 or 64
 * bits; its top 53 are rounded on the bits below them, with a non-zero
 * remainder as the sticky bit. The result lies between 1e-19 and 2^64,
 * so ldexp scales it exactly.
 */
static double divide_pow10(uint64_t w, int d)
{
    uint64_t ten = POW10[d];
    int s = __builtin_clzll(w) - __builtin_clzll(ten) + 63;
    u128 num = (u128)w << s;
    uint64_t q = (uint64_t)(num / ten);
    int sticky = num - (u128)q * ten != 0;
    int cut = 64 - __builtin_clzll(q) - 53;
    uint64_t mant = q >> cut, rest = q & ((1ULL << cut) - 1), half = 1ULL << (cut - 1);
    if (rest > half || (rest == half && (sticky || (mant & 1))))
        mant++;
    return ldexp((double)mant, cut - s);
}

/* Whether the 8 bytes of word are all ASCII digits: each byte's high
 * nibble is 3, and adding 6 carries none of them past '9' (Lemire,
 * "Number parsing at a gigabyte per second", Softw. Pract. Exp. 2021).
 * A carry between bytes needs a byte of 0xFA or more, which fails the
 * first test. */
static int eight_digits(uint64_t word)
{
    return ((word & 0xF0F0F0F0F0F0F0F0ULL) |
            (((word + 0x0606060606060606ULL) & 0xF0F0F0F0F0F0F0F0ULL) >> 4)) ==
           0x3333333333333333ULL;
}

/* The number the eight ASCII digits of word spell, first byte first, in
 * three multiplies: pairs of digits, then pairs of pairs, then the two
 * halves (Lemire, as above). */
static uint64_t eight_digits_value(uint64_t word)
{
    word -= 0x3030303030303030ULL;
    word = word * 10 + (word >> 8);
    word = ((word & 0x000000FF000000FFULL) * (100 + (1000000ULL << 32)) +
            ((word >> 16) & 0x000000FF000000FFULL) * (1 + (10000ULL << 32))) >> 32;
    return word;
}

/* The 8 bytes at p as a word whose lowest byte is p[0] */
static uint64_t load_word(const unsigned char *p)
{
    uint64_t word;
    memcpy(&word, p, 8);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    word = __builtin_bswap64(word);
#endif
    return word;
}

/* Read the ASCII digits from p on into *w, and return where they end.
 * While *w is 0, leading zeros are skipped and not counted in *sig, the
 * significant digits so far; the next digit is then not a zero. Whole
 * words of eight digits are read at once while 8 bytes remain before end
 * and *sig stays at most 19, the rest one byte at a time. The read stops
 * at a 20th significant digit, with *sig 20.
 */
static const unsigned char *read_digits(const unsigned char *p, const unsigned char *end,
                                        uint64_t *w, int *sig)
{
    if (*w == 0)
        while (p < end && *p == '0')
            p++;
    while (*sig <= 11 && end - p >= 8) {
        uint64_t word = load_word(p);
        if (!eight_digits(word))
            break;
        *w = *w * 100000000 + eight_digits_value(word);
        *sig += 8;
        p += 8;
    }
    for (; p < end && IS_DIGIT(*p); p++) {
        if (++*sig > 19)
            break;
        *w = 10 * *w + (*p - '0');
    }
    return p;
}

/* Read the value token at p, before end, exactly without strtod when it
 * can: return the end of the token with *out set, else NULL. The token
 * must be an optional sign, digits with an optional '.' (at least one
 * digit in all) and an optional exponent of 'e' or 'E', an optional sign
 * and digits: strtod's grammar for these bytes, with '.' as the point
 * under any locale. The caller checks what follows the returned end.
 * Leading zeros aside, at most 19 digits, so they fit w; q is the decimal
 * exponent of w's last digit. When w <= 2^53 and |q| <= 22 both w and
 * 10^|q| are doubles, and one multiply or divide rounds w * 10^q
 * correctly (Clinger, PLDI 1990); when -19 <= q < 0, divide_pow10 does.
 * Any other token returns NULL.
 */
static const unsigned char *scan_value(const unsigned char *p, const unsigned char *end,
                                       double *out)
{
    int neg = 0, sig = 0;
    if (p < end && (*p == '+' || *p == '-'))
        neg = *p++ == '-';
    uint64_t w = 0;
    const unsigned char *digits = p;
    p = read_digits(p, end, &w, &sig);
    int seen = p != digits;
    int64_t q = 0;
    if (p < end && *p == '.') {
        digits = ++p;
        p = read_digits(p, end, &w, &sig);
        q = digits - p;
        seen |= p != digits;
    }
    if (!seen || sig > 19)
        return NULL;
    if (p < end && (*p == 'e' || *p == 'E')) {
        int eneg = 0;
        if (++p < end && (*p == '+' || *p == '-'))
            eneg = *p++ == '-';
        if (p == end || !IS_DIGIT(*p))
            return NULL;
        int64_t e = 0;
        for (; p < end && IS_DIGIT(*p); p++)
            if (e < 100000) /* past any exponent this path takes */
                e = 10 * e + (*p - '0');
        q += eneg ? -e : e;
    }
    double x;
    if (w <= (1ULL << 53) && q >= -22 && q <= 22)
        x = q < 0 ? (double)w / EXACT_POW10[-q] : (double)w * EXACT_POW10[q];
    else if (q >= -19 && q < 0)
        x = divide_pow10(w, (int)-q);
    else
        return NULL;
    *out = neg ? -x : x;
    return p;
}

/* The number of '\n' bytes in buf[0..len): data.read_coo sizes the
 * arrays of parse_coo by it. The compiler vectorises the inner loop at
 * -O3; its count is one byte wide, so it can compare 16 bytes per
 * instruction, and a block of 255 bytes cannot wrap it. On the 7.7 MB
 * cli_large_io file: 0.4 ms, against 1.6 ms for an int64 count per byte
 * and 5.4 ms for Python's bytes.count (one x86-64 host). */
int64_t count_newlines(const char *buf, int64_t len)
{
    int64_t n = 0;
    for (int64_t i = 0; i < len;) {
        int64_t stop = len - i < 255 ? len : i + 255;
        unsigned char block = 0;
        for (; i < stop; i++)
            block += buf[i] == '\n';
        n += block;
    }
    return n;
}

/* Parse buf[0..len), the body of a COO file, into coords ((cap, 3),
 * row-major) and values, one "i j k value" record per line. A line is
 * optional blanks (spaces or tabs), three indices of 1 to 18 ASCII digits
 * and a value token of [0-9.eE+-], at most 63 bytes, that strtod consumes
 * whole, each separated by blanks, then optional blanks and "\n" or "\r\n";
 * the last line may end without one. Ranges, zeros and non-finite values
 * are not checked here. Each value is read in one forward scan by
 * scan_value, which finds the token's end as it reads, when it can; the
 * token is taken when the byte after it is no value byte and it is at
 * most 63 bytes long. Any other token is measured and read by strtod.
 * Both round correctly, as Python's float() does, so the bits are the
 * same either way. scan_value reads '.' as the point under any locale;
 * strtod follows LC_NUMERIC, so under a locale whose decimal point is not
 * '.' a line whose value falls to strtod is rejected, never misread, and
 * the line parser reads it to the same value. No read goes past
 * buf + len: scan_value loads a word only when 8 bytes remain.
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
        p = scan_value(start, end, values + n);
        if (p == NULL || (p < end && IS_VALUE_CHAR(*p)) || p - start > MAX_VALUE_BYTES) {
            p = start;
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
        }
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
 * [FMT_MIN_EXP, FMT_MAX_EXP] (about 3.5e-18 <= |x| < 2^63); the caller
 * sends any other value (subnormal, huge, inf, nan) to repr itself.
 */
#define FMT_MIN_EXP (-110)
#define FMT_MAX_EXP 10
#define FMT_MAX_BYTES 24 /* the longest repr of a double */

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

/* The room a record may take: each int64 up to 20 bytes and each value
 * up to FMT_MAX_BYTES, each followed by its blank or the newline, and one
 * byte more for the newline of a record with no field. data.py sizes the
 * writers' buffers by the same rule. */
#define RECORD_BYTES(n_ints, n_values) (21 * (n_ints) + (FMT_MAX_BYTES + 1) * (n_values) + 1)

/* Write n records at out, which holds cap bytes. Record i is the n_ints
 * int64s of ints ((n, n_ints), row-major), then the n_values values of
 * values ((n, n_values), row-major), separated by blanks and ended by a
 * newline: a COO record f"{i} {j} {k} {v!r}\n" is 3 ints and 1 value, a
 * factor row " ".join(map(repr, row)) + "\n" is 0 ints and R values.
 * Returns the byte count, or -1 - i when record i holds a value outside
 * format_double's range or out has less than RECORD_BYTES left for it;
 * the records before it are written.
 */
int64_t format_records(const int64_t *ints, int64_t n_ints, const double *values,
                       int64_t n_values, int64_t n, char *out, int64_t cap)
{
    char *p = out, *end = out + cap;
    for (int64_t i = 0; i < n; i++) {
        if (end - p < RECORD_BYTES(n_ints, n_values))
            return -1 - i;
        char *start = p;
        for (int64_t f = 0; f < n_ints; f++) {
            if (p != start)
                *p++ = ' ';
            p += format_int(*ints++, p);
        }
        for (int64_t f = 0; f < n_values; f++) {
            if (p != start)
                *p++ = ' ';
            int width = format_double(*values++, p);
            if (width < 0)
                return -1 - i;
            p += width;
        }
        *p++ = '\n';
    }
    return p - out;
}
