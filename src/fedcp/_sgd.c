/* The hot loops of a CLI run, compiled. The seven functions that are not
 * static are the kernels _native.SIGNATURES declares: site_round, a site's
 * round: the step-size bound beta, the draw of its shuffled orders from
 * the site's numpy stream, the SGD passes, each followed by the finiteness
 * sweep and the prox step, and the sum for the round's RMSE (the twin of
 * the Python round in solver.run_local_epoch and of beta_lipschitz);
 * model_values, the model values that tensor.rmse scores and
 * data.generate_synthetic stores (the twin of reconstruct_values);
 * count_newlines and parse_coo, the size and the parse of a COO file's
 * body (the fast path of data.read_coo);
 * format_records, the text of COO records and factor rows (the fast path
 * of data.write_coo and data.write_factors, byte for byte what repr
 * writes); and gaussian_perturb, the upload noise (the fast path of
 * privacy.perturb_matrix: numpy's ziggurat for Generator.standard_normal,
 * with numpy's tables, drawn through the noise stream's bitgen_t); and
 * server_step, the server's step over a cohort of encoded uploads: the new
 * anchors, their finiteness test and the round's change (the fast path of
 * federation.server_update, whose numpy step and worst_change are its
 * reference).
 *
 * The arithmetic follows each Python reference operation for operation.
 * In the pass every dot product is summed strictly left to right starting
 * from the first product, and every row update is a separate multiply and
 * subtract; the model values are summed left to right from 0.0, the order
 * numpy's einsum uses; the round's norms and sums take numpy's pairwise or
 * row order, as np.sum, np.add.reduce and np.linalg.norm do, every
 * pairwise sum through the one tree, pairwise_squares. The orders
 * are drawn as numpy's Generator.shuffle draws them, and the noise as
 * Generator.standard_normal draws it, through the generator's bitgen_t,
 * so the stream ends where the Python code leaves it. Build with
 * -ffp-contract=off (no fused multiply-add) and without -ffast-math, so
 * the paths agree bit for bit. At -O3 the compiler vectorises the
 * element-wise loops, whose lanes compute what the scalar loop did, and
 * may not reorder any sum.
 * Every residual gradient is clipped and every pass followed by the prox
 * step; at clip = inf and threshold 0 they change no bit, so no value
 * picks a path.
 * The pass takes every entry through one step, entry_step, for one entry
 * or for two consecutive ones that share no row: one loop takes the
 * residuals, one the residual gradients and the sums of their squares,
 * each sum a chain of its own in its own order, then each entry's rows
 * are clipped, pulled and stepped in turn. The pass is one inlined body
 * that site_round runs with the rank as a literal at ranks 3, 5 and 50,
 * which the compiler unrolls, and as a variable at every other rank; only
 * the rank-50 body steps pairs.
 * It prefetches the coords and value of the entry PREFETCH_ENTRY
 * places ahead in the shuffled order and the rows of the entry
 * PREFETCH_ROWS ahead; a prefetch changes no value. model_values sums four
 * entries at a time, each from 0.0 left to right.
 * The parser reads each value in one forward scan, eight digits at a
 * time where it can, with an exact fast path (a Clinger multiply or
 * divide, or one 128-bit integer division) when the token allows it, and
 * with strtod, which glibc rounds correctly, otherwise: both give the
 * bits of Python's float(). The writer finds each value's shortest
 * round-trip digits with Schubfach, from a table of powers of ten and
 * 64-bit multiplies, writes them two at a time from a table of digit
 * pairs, and lays them out as repr does; a value outside its range is
 * left to repr. Integers take the same digit pairs.
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
static inline int clip_row(double *g, int64_t rank, double sq, double clip)
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
 * shard outgrows the cache, as a cli_large_io site does (48k entries at
 * rank 5); a shard that fits in cache, as a readme_pooled or small_rounds
 * site does, waits on no load it could hide. */
#define PREFETCH_ENTRY 16
#define PREFETCH_ROWS 4

/* Prefetch what the entries PREFETCH_ENTRY and PREFETCH_ROWS places after
 * position p of order will read. */
static inline __attribute__((always_inline)) void
prefetch_ahead(int64_t p, int64_t nnz, const int64_t *order, const int64_t *coords,
               const double *values, const double *A, const double *B, const double *C,
               int64_t rank)
{
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
}

/* The step of the g entries at positions p to p + g - 1 of order, g 1 or
 * 2 and a literal at each call; two entries share no row of A, B or C.
 * For each entry at (i, j, k) with value v: the residual a . (b * c) - v
 * at the current rows a = A[i], b = B[j] and c = C[k], its three residual
 * gradients, each clipped to 2-norm clip, the anchor pull (rows b_hat[j]
 * and c_hat[k]) added on b and c, and the three rows stepped by eta. work
 * holds 3 * g * rank doubles, the gradients. Returns 1 and adds to *count
 * the gradients the clip scaled; or returns 0, having written nothing,
 * when a residual is not finite.
 *
 * One loop over the rank takes the residuals, each a chain of its own left
 * to right from its first product; one takes every gradient and sums each
 * one's squares, each a chain left to right from its first square; then
 * each entry in turn is clipped, pulled and stepped. Element r of each
 * loop reads element r of the others only, so each element gets the
 * operations of separate loops in their order, and no sum is reordered.
 * The first entry's step writes none of the second's rows, so the second
 * gets the bits it would get after it: a pair is two single steps whose
 * chains overlap in time, and at rank 50 a step mostly waits on its chains
 * of additions.
 */
static inline __attribute__((always_inline)) int
entry_step(int g, int64_t p, int64_t nnz, const int64_t *order, const int64_t *coords,
           const double *values, double *A, double *B, double *C, const double *b_hat,
           const double *c_hat, int64_t rank, double eta, double gamma, double clip,
           double *work, int64_t *count)
{
    double *a[2], *b[2], *c[2], resid[2];
    const double *bh[2], *ch[2];
    for (int e = 0; e < g; e++) {
        const int64_t *ijk = coords + 3 * order[p + e];
        a[e] = A + ijk[0] * rank;
        b[e] = B + ijk[1] * rank;
        c[e] = C + ijk[2] * rank;
        bh[e] = b_hat + ijk[1] * rank;
        ch[e] = c_hat + ijk[2] * rank;
        resid[e] = a[e][0] * (b[e][0] * c[e][0]);
    }
    for (int64_t r = 1; r < rank; r++)
        for (int e = 0; e < g; e++)
            resid[e] += a[e][r] * (b[e][r] * c[e][r]);
    for (int e = 0; e < g; e++) {
        resid[e] = resid[e] - values[order[p + e]];
        if (!isfinite(resid[e]))
            return 0;
    }
    for (int e = 1; e < g; e++)
        prefetch_ahead(p + e, nnz, order, coords, values, A, B, C, rank);

    /* -0.0 + x is x for every x, so each chain starts at its first square */
    double sq[2][3] = {{-0.0, -0.0, -0.0}, {-0.0, -0.0, -0.0}};
    for (int64_t r = 0; r < rank; r++)
        for (int e = 0; e < g; e++) {
            double *ga = work + 3 * e * rank, *gb = ga + rank, *gc = gb + rank;
            ga[r] = resid[e] * (b[e][r] * c[e][r]);
            gb[r] = resid[e] * (a[e][r] * c[e][r]);
            gc[r] = resid[e] * (a[e][r] * b[e][r]);
            sq[e][0] += ga[r] * ga[r];
            sq[e][1] += gb[r] * gb[r];
            sq[e][2] += gc[r] * gc[r];
        }
    /* every gradient is taken before any row is written */
    for (int e = 0; e < g; e++) {
        double *ga = work + 3 * e * rank, *gb = ga + rank, *gc = gb + rank;
        *count += clip_row(ga, rank, sq[e][0], clip) + clip_row(gb, rank, sq[e][1], clip)
            + clip_row(gc, rank, sq[e][2], clip);
        for (int64_t r = 0; r < rank; r++) {
            double pull_b = gb[r] + gamma * (b[e][r] - bh[e][r]);
            double pull_c = gc[r] + gamma * (c[e][r] - ch[e][r]);
            a[e][r] = a[e][r] - eta * ga[r];
            b[e][r] = b[e][r] - eta * pull_b;
            c[e][r] = c[e][r] - eta * pull_c;
        }
    }
    return 1;
}

/* Visit the entries order[0..nnz) in turn, each stepped by entry_step.
 * coords is (nnz, 3) row-major; the factors and anchors are row-major
 * with rank columns, and A, B and C do not overlap (SiteState copies a
 * factor that shares memory with another, as the Python pass steps three
 * separate lists of rows); work holds 6 * rank doubles of scratch. Adds to
 * *clipped the number of residual gradients the clip scaled, up to three
 * per entry.
 *
 * With paired set, entries p and p + 1 take one step of two when p + 1's
 * rows of A, B and C all differ from p's and both residuals are finite.
 * Any other entry takes the step of one: one that shares a row with the
 * next or is the last of the order, and p of a pair whose residuals are
 * not all finite, whose residual is then taken again, to the same bits.
 *
 * The body is inlined at each call in pass_at_rank, which passes the
 * ranks it names as literals: with the rank a constant the compiler
 * unrolls the loops and keeps the gradients in registers. That changes
 * no operation and no order.
 *
 * Returns -1 when every entry was applied, else the position in order of
 * the first entry whose residual is not finite; the entries before it
 * stay applied and that entry is not.
 */
static inline __attribute__((always_inline)) int64_t
sgd_pass(int64_t nnz, const int64_t *order, const int64_t *coords, const double *values,
         double *A, double *B, double *C, const double *b_hat, const double *c_hat,
         int64_t rank, double eta, double gamma, double clip, double *work, int64_t *clipped,
         int paired)
{
#define STEP(G) \
    entry_step(G, p, nnz, order, coords, values, A, B, C, b_hat, c_hat, rank, eta, gamma, \
               clip, work, &count)
    int64_t count = 0;
    for (int64_t p = 0; p < nnz; p++) {
        prefetch_ahead(p, nnz, order, coords, values, A, B, C, rank);
        if (paired && p + 1 < nnz) {
            const int64_t *ijk = coords + 3 * order[p], *next = coords + 3 * order[p + 1];
            if (ijk[0] != next[0] && ijk[1] != next[1] && ijk[2] != next[2] && STEP(2)) {
                p++;
                continue;
            }
        }
        if (!STEP(1)) {
            *clipped += count;
            return p;
        }
    }
    *clipped += count;
    return -1;
#undef STEP
}

/* sgd_pass with ranks 3, 5 and 50 as literals, and any other rank as the
 * variable. Those are the ranks the benchmark's workloads run
 * (small_rounds, cli_large_io and readme_pooled); the paired runs of the
 * literals are the rows of file 24 (ranks 3 and 5) and of file 28 (rank
 * 50 and the pairs) in BENCH_TABLE.md. At rank 50 a step waits on chains
 * of 50 additions, and the literal and the pairs each shorten the wait.
 * Only the rank-50 body steps pairs: at ranks 3 and 5 a step is short,
 * and pairs read slower there. The body for any other rank steps one
 * entry at a time, as no workload runs such a rank and nothing measured
 * pairs there. Each body costs build time, the rank-50 one the most. A
 * literal for a rank that no workload runs, or pairs in a body no
 * workload takes, adds code to every build for a gain that nothing
 * measures end to end.
 */
static int64_t pass_at_rank(int64_t nnz, const int64_t *order, const int64_t *coords,
                            const double *values, double *A, double *B, double *C,
                            const double *b_hat, const double *c_hat, int64_t rank, double eta,
                            double gamma, double clip, double *work, int64_t *clipped)
{
#define PASS(R, PAIRED) \
    sgd_pass(nnz, order, coords, values, A, B, C, b_hat, c_hat, R, eta, gamma, clip, work, \
             clipped, PAIRED)
    switch (rank) {
    case 3: return PASS(3, 0);
    case 5: return PASS(5, 0);
    case 50: return PASS(50, 1);
    default: return PASS(rank, 0);
    }
#undef PASS
}

/* out[n] = sum over r of (A[i][r] * B[j][r]) * C[k][r] for entry n at
 * (i, j, k), summed left to right from 0.0. coords is (nnz, 3) row-major;
 * the factors are row-major with rank columns.
 *
 * Four entries are summed in one loop, as four chains each in its own
 * order, and the zero to three left over one at a time; the chains only
 * overlap in time, so no sum is reordered. A long sum (rank 50, the
 * readme_pooled tensor) waits on its chain of additions, which the four
 * chains overlap; the paired runs that first took this loop are file 28
 * in BENCH_TABLE.md.
 */
void model_values(int64_t nnz, const int64_t *coords, const double *A,
                  const double *B, const double *C, int64_t rank, double *out)
{
    int64_t n = 0;
    for (; n + 4 <= nnz; n += 4) {
        const double *a[4], *b[4], *c[4];
        for (int e = 0; e < 4; e++) {
            const int64_t *ijk = coords + 3 * (n + e);
            a[e] = A + ijk[0] * rank;
            b[e] = B + ijk[1] * rank;
            c[e] = C + ijk[2] * rank;
        }
        double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
        for (int64_t r = 0; r < rank; r++) {
            s0 += (a[0][r] * b[0][r]) * c[0][r];
            s1 += (a[1][r] * b[1][r]) * c[1][r];
            s2 += (a[2][r] * b[2][r]) * c[2][r];
            s3 += (a[3][r] * b[3][r]) * c[3][r];
        }
        out[n] = s0;
        out[n + 1] = s1;
        out[n + 2] = s2;
        out[n + 3] = s3;
    }
    for (; n < nnz; n++) {
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

/* Term i of sum k of pairwise_squares: p[i] squared, or (c[i] - p[i])
 * squared. */
static inline __attribute__((always_inline)) double
square(const double *p, const double *c, int64_t i, int k)
{
    double x = k ? c[i] - p[i] : p[i];
    return x * x;
}

/* pairwise_squares on n <= 128 terms, for its g = 1 or 2 sums, g a
 * literal at each call. */
static inline __attribute__((always_inline)) void
pairwise_leaf(int g, const double *p, const double *c, int64_t n, double *sums)
{
    double s[2] = {0.0, 0.0};
    int64_t i = 0;
    if (n >= 8) {
        double r[2][8];
        for (int j = 0; j < 8; j++)
            for (int k = 0; k < g; k++)
                r[k][j] = square(p, c, j, k);
        for (i = 8; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; j++)
                for (int k = 0; k < g; k++)
                    r[k][j] += square(p, c, i + j, k);
        for (int k = 0; k < g; k++)
            s[k] = ((r[k][0] + r[k][1]) + (r[k][2] + r[k][3]))
                + ((r[k][4] + r[k][5]) + (r[k][6] + r[k][7]));
    }
    for (; i < n; i++)
        for (int k = 0; k < g; k++)
            s[k] += square(p, c, i, k);
    for (int k = 0; k < g; k++)
        sums[k] = s[k];
}

/* numpy's pairwise_sum for float64, which np.sum and np.add.reduce take
 * over a contiguous run of values, over squares: sums[0] gets the sum of
 * p[i] * p[i] over i < n and, when c is not NULL, sums[1] the sum of
 * (c[i] - p[i]) squared, the bits numpy gives on arrays of those squares.
 * Fewer than 8 terms are summed in turn from 0.0, up to 128 in eight
 * interleaved partial sums combined as a tree and then the leftover
 * terms, and longer runs split in two halves at a multiple of 8. Each
 * value is squared as the tree reads it. np.add.reduce returns 0.0 plus
 * the tree's sum, and so do the callers.
 */
static void pairwise_squares(const double *p, const double *c, int64_t n, double *sums)
{
    if (n <= 128) {
        if (c == NULL)
            pairwise_leaf(1, p, c, n, sums);
        else
            pairwise_leaf(2, p, c, n, sums);
        return;
    }
    int64_t half = n / 2;
    half -= half % 8;
    double left[2], right[2];
    pairwise_squares(p, c, half, left);
    pairwise_squares(p + half, c == NULL ? NULL : c + half, n - half, right);
    sums[0] = left[0] + right[0];
    if (c != NULL)
        sums[1] = left[1] + right[1];
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
 * by 1 like every other, so a zero threshold keeps every bit. The norms
 * are np.linalg.norm(A, axis=0): numpy sums a rank-1 column pairwise and
 * the columns of rank >= 2 each down the rows in order. norm holds rank
 * doubles of scratch.
 */
static void prox_columns(double *A, int64_t rows, int64_t rank, double threshold, double *norm)
{
    if (rank == 1) {
        pairwise_squares(A, NULL, rows, norm);
        norm[0] = 0.0 + norm[0];
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
 * keeps it. */
static void factor_bounds(const double *m, int64_t rows, int64_t rank, double *top,
                          double *norm)
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
    for (int64_t r = 0; r < rows; r++) {
        double sum;
        pairwise_squares(m + r * rank, NULL, rank, &sum);
        n = max_nan(n, 0.0 + sum);
    }
    *top = isnan(n) ? n : t[0];
    *norm = n;
}

/* Python's min(x, y): x unless y is smaller. */
static double smaller(double x, double y)
{
    return y < x ? y : x;
}

/* solver._step_bound, operation for operation: beta from each factor's
 * largest |entry| top[m] and largest squared row norm norm[m], A, B and C
 * in turn. It is +inf, without reading the norms, when some top * top *
 * rank is not below +inf (a NaN top included); else the largest of the
 * three pair bounds, each the smaller of two products, taken as Python's
 * min and max take them: min keeps its first argument unless the second
 * is smaller, max keeps the first value unless a later one is greater. */
static double step_bound(const double *top, const double *norm, int64_t rank, double gamma)
{
    double e[3];
    for (int m = 0; m < 3; m++) {
        e[m] = top[m] * top[m];
        if (!(e[m] * (double)rank < INFINITY))
            return INFINITY;
    }
    double on_a = smaller(norm[1] * e[2], e[1] * norm[2]);
    double on_b = smaller(norm[0] * e[2], e[0] * norm[2]) + gamma;
    double on_c = smaller(norm[0] * e[1], e[0] * norm[1]) + gamma;
    double beta = on_a;
    if (on_b > beta)
        beta = on_b;
    if (on_c > beta)
        beta = on_c;
    return beta;
}

/* One site's round, solver.run_local_epoch after its checks. It first
 * writes out[1], beta, the step-size bound of the factors the round
 * starts from (solver.beta_lipschitz: step_bound over each factor's
 * largest |entry| and largest squared row norm), and draws all tau orders
 * of the shard's entries from the site's shuffle stream bitgen, each as
 * Generator.permutation(nnz) draws it. Then for each order, sgd_pass over
 * the shard, the finiteness sweep of A, B and C, and the prox step on A.
 * The factors are (i_dim, rank), (j_dim, rank) and (k_dim, rank),
 * row-major; out holds two doubles. The arguments up to tally stay the
 * same from one round of a site to the next, so a caller can build them
 * once; the ones after it are the round's.
 *
 * Returns ROUND_DONE with out[0] the sum of squared residuals over the
 * shard at the final factors and tally[0] the number of residual
 * gradients the clip scaled in the tau passes. Else, with out[1] written,
 * the factors as the failing pass left them and every order drawn:
 * ROUND_RESIDUAL with tally[1] the index in coords of the entry whose
 * residual is not finite, or ROUND_ROW + m with tally[1] the first row of
 * factor m holding a non-finite value after a pass; or ROUND_NO_MEMORY,
 * before anything is written or drawn.
 */
enum { ROUND_DONE, ROUND_NO_MEMORY, ROUND_RESIDUAL, ROUND_ROW };

int site_round(int64_t nnz, const int64_t *coords, const double *values, int64_t i_dim,
               int64_t j_dim, int64_t k_dim, double *A, double *B, double *C, int64_t rank,
               double *out, int64_t *tally, int64_t tau, bitgen_t *bitgen,
               const double *b_hat, const double *c_hat, double eta, double gamma,
               double clip, double threshold)
{
    int64_t *clipped = tally, *where = tally + 1;
    /* the pass's gradients (the prox step's norms after it), the model
     * values and then residuals, then the tau orders; both types are 8
     * bytes wide */
    double *work = malloc(sizeof(double) * (size_t)(6 * rank + nnz)
                          + sizeof(int64_t) * (size_t)(tau * nnz));
    if (!work)
        return ROUND_NO_MEMORY;
    double *resid = work + 6 * rank;
    int64_t *orders = (int64_t *)(resid + nnz);

    double *factors[3] = {A, B, C};
    int64_t rows[3] = {i_dim, j_dim, k_dim};
    double top[3], norm[3];
    for (int m = 0; m < 3; m++)
        factor_bounds(factors[m], rows[m], rank, top + m, norm + m);
    out[1] = step_bound(top, norm, rank, gamma);
    for (int64_t t = 0; t < tau; t++)
        shuffled_range(bitgen, nnz, orders + t * nnz);

    int status = ROUND_DONE;
    *clipped = 0;
    for (int64_t t = 0; t < tau && status == ROUND_DONE; t++) {
        const int64_t *order = orders + t * nnz;
        int64_t stop = pass_at_rank(nnz, order, coords, values, A, B, C, b_hat, c_hat, rank,
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
            prox_columns(A, i_dim, rank, threshold, work);
    }
    if (status == ROUND_DONE) {
        model_values(nnz, coords, A, B, C, rank, resid);
        for (int64_t n = 0; n < nnz; n++)
            resid[n] = resid[n] - values[n];
        double sse;
        pairwise_squares(resid, NULL, nnz, &sse);
        out[0] = 0.0 + sse;
    }
    free(work);
    return status;
}

/* The server's step over one cohort, federation.server_update after it
 * has checked each encoding's type and header, and the held cohort's
 * count, types and lengths. uploads holds the n_sites encoded uploads in
 * site order; each one's size values start offset bytes in, B's split
 * values and then C's, row-major, at an address that is a multiple of 8
 * (server_update takes only objects of type bytes, whose data starts 32
 * bytes into a 16-byte-aligned block, and offset is 24). b_hat and c_hat
 * are the anchors, split and size - split values.
 *
 * out gets the new anchors, B then C: for each value, hat + eta * delta
 * with delta = 0.0 + gamma * (u - hat) over the sites in site order, the
 * zeros_like, += and + of federation._anchor_step. Returns
 * SERVER_NON_FINITE, with out holding no anchor and *change unwritten,
 * when a delta is not finite.
 *
 * Else SERVER_DONE, and when prev (the previous cohort, laid out alike)
 * is not NULL, *change gets federation.worst_change of the two cohorts'
 * (B, C) pairs: for each site, B's block and then C's, sqrt(d2) /
 * max(sqrt(p2), 1e-12) with p2 and d2 the sums of p squared and of
 * (c - p) squared, each 0.0 + pairwise_squares, and the worst of them kept
 * as Python's max keeps it: a ratio replaces it only when greater, so a
 * NaN ratio (inf / inf, when squares overflow) never does.
 */
enum { SERVER_DONE, SERVER_NON_FINITE };

int server_step(int64_t n_sites, const char *const *uploads, const char *const *prev,
                int64_t offset, int64_t split, int64_t size, const double *b_hat,
                const double *c_hat, double eta, double gamma, double *out, double *change)
{
    const int64_t first[2] = {0, split}, count[2] = {split, size - split};
    const double *hat[2] = {b_hat, c_hat};
    for (int m = 0; m < 2; m++) {
        double *delta = out + first[m];
        for (int64_t i = 0; i < count[m]; i++)
            delta[i] = 0.0;
        for (int64_t t = 0; t < n_sites; t++) {
            const double *u = (const double *)(uploads[t] + offset) + first[m];
            for (int64_t i = 0; i < count[m]; i++)
                delta[i] += gamma * (u[i] - hat[m][i]);
        }
    }
    for (int64_t i = 0; i < size; i++)
        if (!isfinite(out[i]))
            return SERVER_NON_FINITE;
    for (int m = 0; m < 2; m++) {
        double *delta = out + first[m];
        for (int64_t i = 0; i < count[m]; i++)
            delta[i] = hat[m][i] + eta * delta[i];
    }
    if (prev == NULL)
        return SERVER_DONE;
    double worst = 0.0;
    for (int64_t t = 0; t < n_sites; t++) {
        const double *p = (const double *)(prev[t] + offset);
        const double *c = (const double *)(uploads[t] + offset);
        for (int m = 0; m < 2; m++) {
            double sums[2];
            pairwise_squares(p + first[m], c + first[m], count[m], sums);
            double norm = sqrt(0.0 + sums[0]);
            double ratio = sqrt(0.0 + sums[1]) / (1e-12 > norm ? 1e-12 : norm);
            if (ratio > worst)
                worst = ratio;
        }
    }
    *change = worst;
    return SERVER_DONE;
}

/* numpy's ziggurat for Generator.standard_normal (Marsaglia & Tsang, "The
 * Ziggurat Method for Generating Random Variables", JSS 2000), in the form
 * numpy's random_standard_normal has had since numpy 1.17: 256 layers, one
 * 64-bit word per try. ZIG_KI, ZIG_WI and ZIG_FI are numpy's ki_double,
 * wi_double and fi_double copied value for value (the doubles as hex
 * literals, so no decimal rounds), and ZIG_R and ZIG_INV_R its
 * ziggurat_nor_r and ziggurat_nor_inv_r. */
static const uint64_t ZIG_KI[256] = {
    0x000EF33D8025EF6AULL, 0x0000000000000000ULL, 0x000C08BE98FBC6A8ULL, 0x000DA354FABD8142ULL,
    0x000E51F67EC1EEEAULL, 0x000EB255E9D3F77EULL, 0x000EEF4B817ECAB9ULL, 0x000F19470AFA44AAULL,
    0x000F37ED61FFCB18ULL, 0x000F4F469561255CULL, 0x000F61A5E41BA396ULL, 0x000F707A755396A4ULL,
    0x000F7CB2EC28449AULL, 0x000F86F10C6357D3ULL, 0x000F8FA6578325DEULL, 0x000F9724C74DD0DAULL,
    0x000F9DA907DBF509ULL, 0x000FA360F581FA74ULL, 0x000FA86FDE5B4BF8ULL, 0x000FACF160D354DCULL,
    0x000FB0FB6718B90FULL, 0x000FB49F8D5374C6ULL, 0x000FB7EC2366FE77ULL, 0x000FBAECE9A1E50EULL,
    0x000FBDAB9D040BEDULL, 0x000FC03060FF6C57ULL, 0x000FC2821037A248ULL, 0x000FC4A67AE25BD1ULL,
    0x000FC6A2977AEE31ULL, 0x000FC87AA92896A4ULL, 0x000FCA325E4BDE85ULL, 0x000FCBCCE902231AULL,
    0x000FCD4D12F839C4ULL, 0x000FCEB54D8FEC99ULL, 0x000FD007BF1DC930ULL, 0x000FD1464DD6C4E6ULL,
    0x000FD272A8E2F450ULL, 0x000FD38E4FF0C91EULL, 0x000FD49A9990B478ULL, 0x000FD598B8920F53ULL,
    0x000FD689C08E99ECULL, 0x000FD76EA9C8E832ULL, 0x000FD848547B08E8ULL, 0x000FD9178BAD2C8CULL,
    0x000FD9DD07A7ADD2ULL, 0x000FDA9970105E8CULL, 0x000FDB4D5DC02E20ULL, 0x000FDBF95C5BFCD0ULL,
    0x000FDC9DEBB99A7DULL, 0x000FDD3B8118729DULL, 0x000FDDD288342F90ULL, 0x000FDE6364369F64ULL,
    0x000FDEEE708D514EULL, 0x000FDF7401A6B42EULL, 0x000FDFF46599ED40ULL, 0x000FE06FE4BC24F2ULL,
    0x000FE0E6C225A258ULL, 0x000FE1593C28B84CULL, 0x000FE1C78CBC3F99ULL, 0x000FE231E9DB1CAAULL,
    0x000FE29885DA1B91ULL, 0x000FE2FB8FB54186ULL, 0x000FE35B33558D4AULL, 0x000FE3B799D0002AULL,
    0x000FE410E99EAD7FULL, 0x000FE46746D47734ULL, 0x000FE4BAD34C095CULL, 0x000FE50BAED29524ULL,
    0x000FE559F74EBC78ULL, 0x000FE5A5C8E41212ULL, 0x000FE5EF3E138689ULL, 0x000FE6366FD91078ULL,
    0x000FE67B75C6D578ULL, 0x000FE6BE661E11AAULL, 0x000FE6FF55E5F4F2ULL, 0x000FE73E5900A702ULL,
    0x000FE77B823E9E39ULL, 0x000FE7B6E37070A2ULL, 0x000FE7F08D774243ULL, 0x000FE8289053F08CULL,
    0x000FE85EFB35173AULL, 0x000FE893DC840864ULL, 0x000FE8C741F0CEBCULL, 0x000FE8F9387D4EF6ULL,
    0x000FE929CC879B1DULL, 0x000FE95909D388EAULL, 0x000FE986FB939AA2ULL, 0x000FE9B3AC714866ULL,
    0x000FE9DF2694B6D5ULL, 0x000FEA0973ABE67CULL, 0x000FEA329CF166A4ULL, 0x000FEA5AAB32952CULL,
    0x000FEA81A6D5741AULL, 0x000FEAA797DE1CF0ULL, 0x000FEACC85F3D920ULL, 0x000FEAF07865E63CULL,
    0x000FEB13762FEC13ULL, 0x000FEB3585FE2A4AULL, 0x000FEB56AE3162B4ULL, 0x000FEB76F4E284FAULL,
    0x000FEB965FE62014ULL, 0x000FEBB4F4CF9D7CULL, 0x000FEBD2B8F449D0ULL, 0x000FEBEFB16E2E3EULL,
    0x000FEC0BE31EBDE8ULL, 0x000FEC2752B15A15ULL, 0x000FEC42049DAFD3ULL, 0x000FEC5BFD29F196ULL,
    0x000FEC75406CEEF4ULL, 0x000FEC8DD2500CB4ULL, 0x000FECA5B6911F12ULL, 0x000FECBCF0C427FEULL,
    0x000FECD38454FB15ULL, 0x000FECE97488C8B3ULL, 0x000FECFEC47F91B7ULL, 0x000FED1377358528ULL,
    0x000FED278F844903ULL, 0x000FED3B10242F4CULL, 0x000FED4DFBAD586EULL, 0x000FED605498C3DDULL,
    0x000FED721D414FE8ULL, 0x000FED8357E4A982ULL, 0x000FED9406A42CC8ULL, 0x000FEDA42B85B704ULL,
    0x000FEDB3C8746AB4ULL, 0x000FEDC2DF416652ULL, 0x000FEDD171A46E52ULL, 0x000FEDDF813C8AD3ULL,
    0x000FEDED0F909980ULL, 0x000FEDFA1E0FD414ULL, 0x000FEE06AE124BC4ULL, 0x000FEE12C0D95A06ULL,
    0x000FEE1E579006E0ULL, 0x000FEE29734B6524ULL, 0x000FEE34150AE4BCULL, 0x000FEE3E3DB89B3CULL,
    0x000FEE47EE2982F4ULL, 0x000FEE51271DB086ULL, 0x000FEE59E9407F41ULL, 0x000FEE623528B42EULL,
    0x000FEE6A0B5897F1ULL, 0x000FEE716C3E077AULL, 0x000FEE7858327B82ULL, 0x000FEE7ECF7B06BAULL,
    0x000FEE84D2484AB2ULL, 0x000FEE8A60B66343ULL, 0x000FEE8F7ACCC851ULL, 0x000FEE94207E25DAULL,
    0x000FEE9851A829EAULL, 0x000FEE9C0E13485CULL, 0x000FEE9F557273F4ULL, 0x000FEEA22762CCAEULL,
    0x000FEEA4836B42ACULL, 0x000FEEA668FC2D71ULL, 0x000FEEA7D76ED6FAULL, 0x000FEEA8CE04FA0AULL,
    0x000FEEA94BE8333BULL, 0x000FEEA950296410ULL, 0x000FEEA8D9C0075EULL, 0x000FEEA7E7897654ULL,
    0x000FEEA678481D24ULL, 0x000FEEA48AA29E83ULL, 0x000FEEA21D22E4DAULL, 0x000FEE9F2E352024ULL,
    0x000FEE9BBC26AF2EULL, 0x000FEE97C524F2E4ULL, 0x000FEE93473C0A3AULL, 0x000FEE8E40557516ULL,
    0x000FEE88AE369C7AULL, 0x000FEE828E7F3DFDULL, 0x000FEE7BDEA7B888ULL, 0x000FEE749BFF37FFULL,
    0x000FEE6CC3A9BD5EULL, 0x000FEE64529E007EULL, 0x000FEE5B45A32888ULL, 0x000FEE51994E57B6ULL,
    0x000FEE474A0006CFULL, 0x000FEE3C53E12C50ULL, 0x000FEE30B2E02AD8ULL, 0x000FEE2462AD8205ULL,
    0x000FEE175EB83C5AULL, 0x000FEE09A22A1447ULL, 0x000FEDFB27E349CCULL, 0x000FEDEBEA76216CULL,
    0x000FEDDBE422047EULL, 0x000FEDCB0ECE39D3ULL, 0x000FEDB964042CF4ULL, 0x000FEDA6DCE938C9ULL,
    0x000FED937237E98DULL, 0x000FED7F1C38A836ULL, 0x000FED69D2B9C02BULL, 0x000FED538D06AE00ULL,
    0x000FED3C41DEA422ULL, 0x000FED23E76A2FD8ULL, 0x000FED0A732FE644ULL, 0x000FECEFDA07FE34ULL,
    0x000FECD4100EB7B8ULL, 0x000FECB708956EB4ULL, 0x000FEC98B61230C1ULL, 0x000FEC790A0DA978ULL,
    0x000FEC57F50F31FEULL, 0x000FEC356686C962ULL, 0x000FEC114CB4B335ULL, 0x000FEBEB948E6FD0ULL,
    0x000FEBC429A0B692ULL, 0x000FEB9AF5EE0CDCULL, 0x000FEB6FE1C98542ULL, 0x000FEB42D3AD1F9EULL,
    0x000FEB13B00B2D4BULL, 0x000FEAE2591A02E9ULL, 0x000FEAAEAE992257ULL, 0x000FEA788D8EE326ULL,
    0x000FEA3FCFFD73E5ULL, 0x000FEA044C8DD9F6ULL, 0x000FE9C5D62F563BULL, 0x000FE9843BA947A4ULL,
    0x000FE93F471D4728ULL, 0x000FE8F6BD76C5D6ULL, 0x000FE8AA5DC4E8E6ULL, 0x000FE859E07AB1EAULL,
    0x000FE804F690A940ULL, 0x000FE7AB488233C0ULL, 0x000FE74C751F6AA5ULL, 0x000FE6E8102AA202ULL,
    0x000FE67DA0B6ABD8ULL, 0x000FE60C9F38307EULL, 0x000FE5947338F742ULL, 0x000FE51470977280ULL,
    0x000FE48BD436F458ULL, 0x000FE3F9BFFD1E37ULL, 0x000FE35D35EEB19CULL, 0x000FE2B5122FE4FEULL,
    0x000FE20003995557ULL, 0x000FE13C82788314ULL, 0x000FE068C4EE67B0ULL, 0x000FDF82B02B71AAULL,
    0x000FDE87C57EFEAAULL, 0x000FDD7509C63BFDULL, 0x000FDC46E529BF13ULL, 0x000FDAF8F82E0282ULL,
    0x000FD985E1B2BA75ULL, 0x000FD7E6EF48CF04ULL, 0x000FD613ADBD650BULL, 0x000FD40149E2F012ULL,
    0x000FD1A1A7B4C7ACULL, 0x000FCEE204761F9EULL, 0x000FCBA8D85E11B2ULL, 0x000FC7D26ECD2D22ULL,
    0x000FC32B2F1E22EDULL, 0x000FBD6581C0B83AULL, 0x000FB606C4005434ULL, 0x000FAC40582A2874ULL,
    0x000F9E971E014598ULL, 0x000F89FA48A41DFCULL, 0x000F66C5F7F0302CULL, 0x000F1A5A4B331C4AULL,
};
static const double ZIG_WI[256] = {
    0x1.f493b7815d979p-51, 0x1.b8d0be3fdf6c6p-55, 0x1.250af3c2c5bb4p-54, 0x1.57cb938443b61p-54,
    0x1.801fce82fa70cp-54, 0x1.a230c2e4cd0bcp-54, 0x1.c004d2f3861f7p-54, 0x1.dac2f5a747274p-54,
    0x1.f32482d4cd5c3p-54, 0x1.04d32278ebbadp-53, 0x1.0f5053b025d43p-53, 0x1.192a697413677p-53,
    0x1.227a28f7a1af5p-53, 0x1.2b52e3863d880p-53, 0x1.33c3fc05791f5p-53, 0x1.3bd9ec1a2b12fp-53,
    0x1.439ef8dff9b55p-53, 0x1.4b1bb363dfea7p-53, 0x1.52575621ad374p-53, 0x1.59580a707ce96p-53,
    0x1.60231cfd97eeap-53, 0x1.66bd261a37c3dp-53, 0x1.6d2a292000570p-53, 0x1.736dad346f8a6p-53,
    0x1.798ad10b32a77p-53, 0x1.7f845ad46f543p-53, 0x1.855cc53430a77p-53, 0x1.8b1649e7b769ap-53,
    0x1.90b2ea94ecf98p-53, 0x1.96347822c1eeap-53, 0x1.9b9c98e38c546p-53, 0x1.a0eccdca4a72cp-53,
    0x1.a62676d77cd59p-53, 0x1.ab4ad6e101630p-53, 0x1.b05b16d136c9cp-53, 0x1.b558487427a29p-53,
    0x1.ba4368e529f3ap-53, 0x1.bf1d62abf8232p-53, 0x1.c3e70f9594ef3p-53, 0x1.c8a13a5323b61p-53,
    0x1.cd4c9fe72268bp-53, 0x1.d1e9f0e80b748p-53, 0x1.d679d29e41f10p-53, 0x1.dafce0023b8c3p-53,
    0x1.df73aa9f17653p-53, 0x1.e3debb5d2edfep-53, 0x1.e83e9337a6f00p-53, 0x1.ec93abdf982cep-53,
    0x1.f0de784f06226p-53, 0x1.f51f654d8f688p-53, 0x1.f956d9e87d7aep-53, 0x1.fd8537dfa2eacp-53,
    0x1.00d56e04234ecp-52, 0x1.02e40f5398f9ap-52, 0x1.04eea9e16a5fcp-52, 0x1.06f565b72a010p-52,
    0x1.08f869071f40bp-52, 0x1.0af7d84bc6113p-52, 0x1.0cf3d664bcc7fp-52, 0x1.0eec84b16086bp-52,
    0x1.10e20329515eep-52, 0x1.12d4707310fbep-52, 0x1.14c3e9f8e9141p-52, 0x1.16b08bfc4201ep-52,
    0x1.189a71a78da34p-52, 0x1.1a81b51ee6d88p-52, 0x1.1c666f8f82acbp-52, 0x1.1e48b93e0d42ep-52,
    0x1.2028a9940a09fp-52, 0x1.2206572c4c6e9p-52, 0x1.23e1d7de9c31fp-52, 0x1.25bb40ca96bfbp-52,
    0x1.2792a661dd37fp-52, 0x1.29681c719d71bp-52, 0x1.2b3bb62b82edap-52, 0x1.2d0d862e1b853p-52,
    0x1.2edd9e8cba98ep-52, 0x1.30ac10d6e48d7p-52, 0x1.3278ee1f4b930p-52, 0x1.3444470265ea1p-52,
    0x1.360e2baca52d5p-52, 0x1.37d6abe05586ap-52, 0x1.399dd6fb2b264p-52, 0x1.3b63bbfb83d03p-52,
    0x1.3d28698561de0p-52, 0x1.3eebede725a83p-52, 0x1.40ae571e09e74p-52, 0x1.426fb2da6745dp-52,
    0x1.44300e83c30a4p-52, 0x1.45ef773cac75dp-52, 0x1.47adf9e66c336p-52, 0x1.496ba32488f2fp-52,
    0x1.4b287f602415dp-52, 0x1.4ce49acb311dcp-52, 0x1.4ea001638a605p-52, 0x1.505abef5e5562p-52,
    0x1.5214df20a8b5ap-52, 0x1.53ce6d56a664fp-52, 0x1.558774e1bb2c8p-52, 0x1.574000e555f78p-52,
    0x1.58f81c60e8514p-52, 0x1.5aafd23241b59p-52, 0x1.5c672d17d733dp-52, 0x1.5e1e37b2f8cd3p-52,
    0x1.5fd4fc89f5e38p-52, 0x1.618b860a31fc3p-52, 0x1.6341de8a2b0a2p-52, 0x1.64f8104b7260bp-52,
    0x1.66ae257c99672p-52, 0x1.6864283b13137p-52, 0x1.6a1a22950b2b1p-52, 0x1.6bd01e8b343bbp-52,
    0x1.6d8626128d352p-52, 0x1.6f3c43161f854p-52, 0x1.70f27f78b68ebp-52, 0x1.72a8e516914c6p-52,
    0x1.745f7dc70eedcp-52, 0x1.7616535e5731fp-52, 0x1.77cd6faeff449p-52, 0x1.7984dc8babd93p-52,
    0x1.7b3ca3c8b1409p-52, 0x1.7cf4cf3db22fbp-52, 0x1.7ead68c73dee7p-52, 0x1.80667a486ea1fp-52,
    0x1.82200dac88676p-52, 0x1.83da2ce899f15p-52, 0x1.8594e1fd1f5bdp-52, 0x1.875036f7a7ec5p-52,
    0x1.890c35f47f72dp-52, 0x1.8ac8e9205c043p-52, 0x1.8c865aba10c9cp-52, 0x1.8e44951446a27p-52,
    0x1.9003a2973b58fp-52, 0x1.91c38dc288347p-52, 0x1.9384612ef0afcp-52, 0x1.954627903a28ap-52,
    0x1.9708ebb70d5eep-52, 0x1.98ccb892e2a31p-52, 0x1.9a919933f99bfp-52, 0x1.9c5798cd5d92cp-52,
    0x1.9e1ec2b6f7411p-52, 0x1.9fe7226fad24ap-52, 0x1.a1b0c39f93692p-52, 0x1.a37bb21a2c85bp-52,
    0x1.a547f9e0bbb88p-52, 0x1.a715a724aa9a4p-52, 0x1.a8e4c64a0313dp-52, 0x1.aab563e9ff108p-52,
    0x1.ac878cd5af5cep-52, 0x1.ae5b4e18bb336p-52, 0x1.b030b4fc3a11ap-52, 0x1.b207cf09a985bp-52,
    0x1.b3e0aa0e00c00p-52, 0x1.b5bb541ce3d03p-52, 0x1.b797db93f8927p-52, 0x1.b9764f1e5f73cp-52,
    0x1.bb56bdb85256ep-52, 0x1.bd3936b2ec0a2p-52, 0x1.bf1dc9b81ae83p-52, 0x1.c10486cec16a0p-52,
    0x1.c2ed7e5f07a2dp-52, 0x1.c4d8c136e0d1cp-52, 0x1.c6c6608ec8705p-52, 0x1.c8b66e0eba617p-52,
    0x1.caa8fbd36a2abp-52, 0x1.cc9e1c73bd690p-52, 0x1.ce95e3068e037p-52, 0x1.d0906328b8f6ep-52,
    0x1.d28db1037ef20p-52, 0x1.d48de1533c647p-52, 0x1.d691096e7f123p-52, 0x1.d8973f4d7fba5p-52,
    0x1.daa0999206e70p-52, 0x1.dcad2f8fc490ep-52, 0x1.debd195522e37p-52, 0x1.e0d06fb49d21cp-52,
    0x1.e2e74c4ea46f6p-52, 0x1.e501c99c1d188p-52, 0x1.e72002f97fe25p-52, 0x1.e94214b2abf0ap-52,
    0x1.eb681c0f76f08p-52, 0x1.ed9237610a73ap-52, 0x1.efc086101eca9p-52, 0x1.f1f328ac25321p-52,
    0x1.f42a40fb74d6dp-52, 0x1.f665f20c90168p-52, 0x1.f8a6604899782p-52, 0x1.faebb187122bfp-52,
    0x1.fd360d22fe785p-52, 0x1.ff859c118f60bp-52, 0x1.00ed447d3a075p-51, 0x1.021a8028fc947p-51,
    0x1.034a983a902abp-51, 0x1.047da4e3ef5c7p-51, 0x1.05b3bf6adb37ep-51, 0x1.06ed023a72668p-51,
    0x1.082988f632e17p-51, 0x1.0969708e8a254p-51, 0x1.0aacd7571c0c4p-51, 0x1.0bf3dd1eed448p-51,
    0x1.0d3ea34aa3d30p-51, 0x1.0e8d4cf116593p-51, 0x1.0fdffefa69fb6p-51, 0x1.1136e04207041p-51,
    0x1.129219bbb5d35p-51, 0x1.13f1d69c4096dp-51, 0x1.1556448602e3bp-51, 0x1.16bf93b9deef3p-51,
    0x1.182df74d21261p-51, 0x1.19a1a564eebacp-51, 0x1.1b1ad777f2f8ep-51, 0x1.1c99ca971a694p-51,
    0x1.1e1ebfbe4ae39p-51, 0x1.1fa9fc2e2d901p-51, 0x1.213bc9d04cc81p-51, 0x1.22d477a6fd3eep-51,
    0x1.24745a4ac9c24p-51, 0x1.261bcc77658e0p-51, 0x1.27cb2faa8592ep-51, 0x1.2982ecd770e78p-51,
    0x1.2b437532a0a52p-51, 0x1.2d0d43196db97p-51, 0x1.2ee0db1a978f5p-51, 0x1.30becd256aeeep-51,
    0x1.32a7b5e68a4a3p-51, 0x1.349c405ae12a3p-51, 0x1.369d27a33a840p-51, 0x1.38ab39256410ap-51,
    0x1.3ac7570ae88fap-51, 0x1.3cf27b31704a6p-51, 0x1.3f2dbaa60f475p-51, 0x1.417a49cb9e5dap-51,
    0x1.43d9815545e94p-51, 0x1.464ce44a73a15p-51, 0x1.48d62759c43bcp-51, 0x1.4b7739d6b5a27p-51,
    0x1.4e3250dcd8902p-51, 0x1.5109f53e9ac41p-51, 0x1.54011523a7e42p-51, 0x1.571b1a94ae41bp-51,
    0x1.5a5c08b718dd9p-51, 0x1.5dc8a243ad0fep-51, 0x1.61669cf861e4cp-51, 0x1.653ce7b006aeap-51,
    0x1.69540be9fe5c3p-51, 0x1.6db6b8d09e232p-51, 0x1.72728f05f7a34p-51, 0x1.7799556090673p-51,
    0x1.7d42df4d6ce8cp-51, 0x1.839030529f234p-51, 0x1.8ab0fbfaa7c14p-51, 0x1.92ee0946f4496p-51,
    0x1.9cbee014057abp-51, 0x1.a8fdc7894775ap-51, 0x1.b981f3878fdb1p-51, 0x1.d3bb48209ad33p-51,
};
static const double ZIG_FI[256] = {
    0x1.0000000000000p+0, 0x1.f446ac979f087p-1, 0x1.eb7545b6ca915p-1, 0x1.e3f11e027f077p-1,
    0x1.dd36fa704de95p-1, 0x1.d70920657bcf2p-1, 0x1.d144978a119dcp-1, 0x1.cbd33a8a72debp-1,
    0x1.c6a5ecea9787fp-1, 0x1.c1b1cd9eebaeap-1, 0x1.bceeb4ee1dc82p-1, 0x1.b85653a8ff552p-1,
    0x1.b3e3a8234dd10p-1, 0x1.af92a3f6ce8a2p-1, 0x1.ab5fef17a2504p-1, 0x1.a748bd550c9e1p-1,
    0x1.a34aafdf5af0fp-1, 0x1.9f63bee651fd8p-1, 0x1.9b9228d240681p-1, 0x1.97d4657617ac1p-1,
    0x1.94291c21b7a47p-1, 0x1.908f1bd31714fp-1, 0x1.8d0554fe60aa8p-1, 0x1.898ad48badf02p-1,
    0x1.861ebfc37bcacp-1, 0x1.82c050f56cf6ep-1, 0x1.7f6ed4b20e2cbp-1, 0x1.7c29a779c6858p-1,
    0x1.78f033ca0b0d5p-1, 0x1.75c1f0770d856p-1, 0x1.729e5f43f6d12p-1, 0x1.6f850baea7aeep-1,
    0x1.6c7589e635a89p-1, 0x1.696f75e513b2ap-1, 0x1.667272a92e323p-1, 0x1.637e298550c18p-1,
    0x1.6092498802665p-1, 0x1.5dae86f4aff6ap-1, 0x1.5ad29acc85c89p-1, 0x1.57fe4264c8d8fp-1,
    0x1.55313f08d9e46p-1, 0x1.526b55a656cd5p-1, 0x1.4fac4e820b667p-1, 0x1.4cf3f4f494ec0p-1,
    0x1.4a42172dc5278p-1, 0x1.479685fdf5012p-1, 0x1.44f114a493679p-1, 0x1.425198a355fe3p-1,
    0x1.3fb7e99585b82p-1, 0x1.3d23e10af31a3p-1, 0x1.3a955a662cd0ep-1, 0x1.380c32bda00d5p-1,
    0x1.358848bf550e9p-1, 0x1.33097c9703a35p-1, 0x1.308fafd6438efp-1, 0x1.2e1ac55ea3beep-1,
    0x1.2baaa14d7954ap-1, 0x1.293f28e93cd15p-1, 0x1.26d84290504edp-1, 0x1.2475d5a90db84p-1,
    0x1.2217ca92ff7f2p-1, 0x1.1fbe0a9929620p-1, 0x1.1d687fe549969p-1, 0x1.1b171573fd111p-1,
    0x1.18c9b709b3c50p-1, 0x1.16805128639dap-1, 0x1.143ad105ea99cp-1, 0x1.11f9248311f38p-1,
    0x1.0fbb3a2325913p-1, 0x1.0d810104142a0p-1, 0x1.0b4a68d70d9aep-1, 0x1.091761d995d81p-1,
    0x1.06e7dccf03c36p-1, 0x1.04bbcafa63f2ep-1, 0x1.02931e18b822ap-1, 0x1.006dc85b8cac4p-1,
    0x1.fc9778c7bbda1p-2, 0x1.f859da7a900cap-2, 0x1.f4229cb2f7af3p-2, 0x1.eff1a717e8f95p-2,
    0x1.ebc6e20bd1f54p-2, 0x1.e7a236a4ec3c5p-2, 0x1.e3838ea5f9b85p-2, 0x1.df6ad47763a09p-2,
    0x1.db57f320b56b1p-2, 0x1.d74ad6426de33p-2, 0x1.d3436a1021080p-2, 0x1.cf419b4ae5b6dp-2,
    0x1.cb45573c0a848p-2, 0x1.c74e8bb00d7c7p-2, 0x1.c35d26f1d2cb8p-2, 0x1.bf7117c616a17p-2,
    0x1.bb8a4d6716d91p-2, 0x1.b7a8b7807131bp-2, 0x1.b3cc462b331cap-2, 0x1.aff4e9ea18552p-2,
    0x1.ac2293a5f5a9ep-2, 0x1.a85534aa4d880p-2, 0x1.a48cbea20c04dp-2, 0x1.a0c923946843ep-2,
    0x1.9d0a55e1e93dfp-2, 0x1.995048418c0c6p-2, 0x1.959aedbe09f93p-2, 0x1.91ea39b33cb17p-2,
    0x1.8e3e1fcb9f115p-2, 0x1.8a9693fde9188p-2, 0x1.86f38a8ac5ab6p-2, 0x1.8354f7faa0dd9p-2,
    0x1.7fbad11b8d911p-2, 0x1.7c250aff414b0p-2, 0x1.78939af9252ebp-2, 0x1.7506769c7b1edp-2,
    0x1.717d93ba9614cp-2, 0x1.6df8e86124caap-2, 0x1.6a786ad88de21p-2, 0x1.66fc11a25cbe2p-2,
    0x1.6383d377be515p-2, 0x1.600fa7480d2c8p-2, 0x1.5c9f84376c244p-2, 0x1.5933619d6eebep-2,
    0x1.55cb3703d0100p-2, 0x1.5266fc2533bedp-2, 0x1.4f06a8ebf6d92p-2, 0x1.4baa357109ca2p-2,
    0x1.485199fad6ad4p-2, 0x1.44fccefc324fep-2, 0x1.41abcd1357a19p-2, 0x1.3e5e8d08ed2dbp-2,
    0x1.3b1507cf143aep-2, 0x1.37cf368081379p-2, 0x1.348d125f9d19ep-2, 0x1.314e94d5af62fp-2,
    0x1.2e13b77210766p-2, 0x1.2adc73e963fddp-2, 0x1.27a8c414db11ep-2, 0x1.2478a1f17de89p-2,
    0x1.214c079f7cc9ep-2, 0x1.1e22ef6188116p-2, 0x1.1afd539c2f050p-2, 0x1.17db2ed5454e8p-2,
    0x1.14bc7bb34ee67p-2, 0x1.11a134fcf2423p-2, 0x1.0e895598709c4p-2, 0x1.0b74d88b242dap-2,
    0x1.0863b8f904336p-2, 0x1.0555f2242e9d9p-2, 0x1.024b7f6c7747ep-2, 0x1.fe88b89df93c5p-3,
    0x1.f88108cb83235p-3, 0x1.f27fe6ce998d2p-3, 0x1.ec854a4c99c44p-3, 0x1.e6912b2283cddp-3,
    0x1.e0a3816457184p-3, 0x1.dabc455c7900ap-3, 0x1.d4db6f8b2514fp-3, 0x1.cf00f8a5e6fccp-3,
    0x1.c92cd9971df53p-3, 0x1.c35f0b7d89d47p-3, 0x1.bd9787abe18a1p-3, 0x1.b7d647a8731aap-3,
    0x1.b21b452ccd13ap-3, 0x1.ac667a2571807p-3, 0x1.a6b7e0b19267ep-3, 0x1.a10f7322d7e3dp-3,
    0x1.9b6d2bfd2fe5ap-3, 0x1.95d105f6a7c27p-3, 0x1.903afbf74fa69p-3, 0x1.8aab09192815bp-3,
    0x1.852128a819a38p-3, 0x1.7f9d5621f7175p-3, 0x1.7a1f8d368a323p-3, 0x1.74a7c9c7ab5a6p-3,
    0x1.6f3607e964716p-3, 0x1.69ca43e21f25cp-3, 0x1.64647a2adf19cp-3, 0x1.5f04a76f883f9p-3,
    0x1.59aac88f31d6cp-3, 0x1.5456da9c86835p-3, 0x1.4f08dade31fc1p-3, 0x1.49c0c6cf5ce2dp-3,
    0x1.447e9c20375d5p-3, 0x1.3f4258b6931aep-3, 0x1.3a0bfaae8d7eep-3, 0x1.34db805b4ab88p-3,
    0x1.2fb0e847c2a65p-3, 0x1.2a8c3137a071ap-3, 0x1.256d5a2835eb7p-3, 0x1.2054625183c34p-3,
    0x1.1b41492757d42p-3, 0x1.16340e5a82d63p-3, 0x1.112cb1da26eb9p-3, 0x1.0c2b33d5209bap-3,
    0x1.072f94bb8bf85p-3, 0x1.0239d54067d2ap-3, 0x1.fa93ecb6b222cp-4, 0x1.f0bff29520e1cp-4,
    0x1.e6f7bf29aa54bp-4, 0x1.dd3b56176e88fp-4, 0x1.d38abb9bd91e5p-4, 0x1.c9e5f493b740ap-4,
    0x1.c04d0680b1015p-4, 0x1.b6bff78f2e233p-4, 0x1.ad3ece9caf633p-4, 0x1.a3c9933ea6286p-4,
    0x1.9a604dc9d5b19p-4, 0x1.9103075a4a0abp-4, 0x1.87b1c9dbf2852p-4, 0x1.7e6ca013eefd6p-4,
    0x1.753395aaa1176p-4, 0x1.6c06b73694a4cp-4, 0x1.62e6124854d18p-4, 0x1.59d1b577466a4p-4,
    0x1.50c9b06fa2baep-4, 0x1.47ce1401b2213p-4, 0x1.3edef23269a86p-4, 0x1.35fc5e4d93e70p-4,
    0x1.2d266cf9b3111p-4, 0x1.245d344dd0d91p-4, 0x1.1ba0cbe97897dp-4, 0x1.12f14d0f2179dp-4,
    0x1.0a4ed2c159625p-4, 0x1.01b979e30e497p-4, 0x1.f262c2b6c6e35p-5, 0x1.e16d547b25181p-5,
    0x1.d092efeadf162p-5, 0x1.bfd3e0f282a2cp-5, 0x1.af30790385f70p-5, 0x1.9ea90f9295563p-5,
    0x1.8e3e02a68b5abp-5, 0x1.7defb77af271ep-5, 0x1.6dbe9b398d064p-5, 0x1.5dab23cf2add4p-5,
    0x1.4db5d0e11275dp-5, 0x1.3ddf2ce98eecbp-5, 0x1.2e27ce83df497p-5, 0x1.1e9059f1f6abcp-5,
    0x1.0f1982e968011p-5, 0x1.ff881d718a5c4p-6, 0x1.e121adb828c75p-6, 0x1.c301983cd091ap-6,
    0x1.a529f4e22ebf8p-6, 0x1.879d1b600c10ap-6, 0x1.6a5daf40bbf82p-6, 0x1.4d6eaf2fbb064p-6,
    0x1.30d388dab5e13p-6, 0x1.1490334603012p-6, 0x1.f152a4f72dd49p-7, 0x1.ba48d274f8facp-7,
    0x1.841040d8da478p-7, 0x1.4eb96421acfe0p-7, 0x1.1a59229952f92p-7, 0x1.ce160f8ec6837p-8,
    0x1.69ea8d90cb85dp-8, 0x1.08a1f03b0b1fdp-8, 0x1.55f9f43c1b067p-9, 0x1.4a605b6b9f70fp-10,
};
#define ZIG_R 0x1.d3bb48209ad33p+1 /* 3.6541528853610088, the base layer's edge */
#define ZIG_INV_R 0x1.183aa6c20e8c1p-2 /* 1 / ZIG_R, as numpy rounds it */

/* A try's value from its word r, laid out as numpy lays it out: bits 0-7
 * the layer *idx, bit 8 the sign and bits 9-60 the magnitude *rabs; the
 * value is rabs * ZIG_WI[idx] with bit 8 as its sign. numpy negates when
 * the bit is set; flipping the sign bit gives the same bits. */
static inline double ziggurat_try(uint64_t r, int *idx, uint64_t *rabs)
{
    *idx = (int)(r & 0xff);
    *rabs = (r >> 9) & 0x000fffffffffffffULL;
    double x = (double)*rabs * ZIG_WI[*idx];
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    bits ^= (r & 0x100) << 55;
    memcpy(&x, &bits, sizeof bits);
    return x;
}

/* random_standard_normal from a try (idx, rabs, x) that missed its
 * layer's rectangle, about 0.7 % of tries: in layer 0 the tail beyond
 * ZIG_R, drawn by Marsaglia's exponential method from pairs of
 * next_double (numpy takes log1p(-u), so u = 0 is safe); in any other
 * layer the wedge test against exp(-x^2 / 2) with one next_double; on a
 * rejection a new try, as numpy's loop draws it. Every expression keeps
 * numpy's operations and order, and libm's exp and log1p are the ones
 * numpy calls. */
static double __attribute__((noinline))
ziggurat_rest(bitgen_t *bitgen, int idx, uint64_t rabs, double x)
{
    for (;;) {
        if (idx == 0) {
            for (;;) {
                double xx = -ZIG_INV_R * log1p(-bitgen->next_double(bitgen->state));
                double yy = -log1p(-bitgen->next_double(bitgen->state));
                if (yy + yy > xx * xx)
                    return (rabs >> 8) & 0x1 ? -(ZIG_R + xx) : ZIG_R + xx;
            }
        }
        double u = bitgen->next_double(bitgen->state);
        if ((ZIG_FI[idx - 1] - ZIG_FI[idx]) * u + ZIG_FI[idx] < exp(-0.5 * x * x))
            return x;
        x = ziggurat_try(bitgen->next_uint64(bitgen->state), &idx, &rabs);
        if (rabs < ZIG_KI[idx])
            return x;
    }
}

/* out[i] = ((z_i * sigma) + 0.0) + m[i] for i < n, z_i the i-th draw of
 * Generator.standard_normal from bitgen: the bits of privacy.perturb_matrix's
 * numpy lines (standard_normal, *= sigma, += 0.0, += m), with the stream
 * left where they leave it. out may be m. */
void gaussian_perturb(bitgen_t *bitgen, int64_t n, const double *m, double sigma, double *out)
{
    uint64_t (*next_uint64)(void *) = bitgen->next_uint64;
    void *state = bitgen->state;
    for (int64_t i = 0; i < n; i++) {
        int idx;
        uint64_t rabs;
        double z = ziggurat_try(next_uint64(state), &idx, &rabs);
        if (__builtin_expect(rabs >= ZIG_KI[idx], 0))
            z = ziggurat_rest(bitgen, idx, rabs, z);
        out[i] = ((z * sigma) + 0.0) + m[i];
    }
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
 * instruction, and a block of 255 bytes cannot wrap it. */
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

/* Shortest round-trip decimal of a double, as Python's repr writes it:
 * Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020),
 * the algorithm of Java's Double.toString, on both zeros and the normal
 * values whose binary exponent lies in [FMT_MIN_EXP, FMT_MAX_EXP] (2^-58
 * <= |x| < 2^63); the caller sends any other value (subnormal, huge, inf,
 * nan) to repr itself.
 *
 * x = c * 2^q with a 53-bit integer c. The decimals that read back as x
 * fill the interval between the midpoints to its two neighbours, ends
 * included when c is even: float() rounds a decimal half way between two
 * doubles to the even one. The decimal exponent k puts the interval's
 * width in [10^k, 10^(k+1)), so s = floor(x / 10^k) has 16 or 17 digits
 * and the interval holds at most one multiple of 10^(k+1). The digits are
 * the multiple of 10^(k+1) next to x when just one of the two next to it
 * lies in the interval (no decimal with fewer digits does), else s or
 * s + 1 when just one of them does, else the nearer of the two, the even
 * one on a tie: shortest, then nearest, then even, as the correctly
 * rounded dtoa behind repr. Each of 4x and four times each end of the
 * interval, over 10^k, is rounded to odd (its floor, with the last bit
 * set when it is no integer, so that comparing it with 4s tells above
 * from equal) from two 64 x 64-bit multiplies with a row of G, 10^-k to
 * 126 bits rounded up; the paper proves the rounding changes no
 * comparison. The candidate is picked by bitwise selects, not branches:
 * which one wins changes from value to value as a coin toss would. Its
 * digits are written two at a time from DIGIT_PAIRS.
 */
#define FMT_MIN_EXP (-110)
#define FMT_MAX_EXP 10
#define FMT_MAX_BYTES 24 /* the longest repr of a double */

/* G[G_KMAX - k] = {g1, g0, b} for k from -34 to G_KMAX = 3, the range the
 * binary exponents in range take: b = floor(log2(10^-k)), and g = g1 2^63
 * + g0 = floor(10^-k 2^(125 - b)) + 1, in (2^125, 2^126] */
#define G_KMAX 3
static const struct {
    uint64_t g1, g0;
    int b;
} G[] = {
    {0x4189374bc6a7ef9d, 0x5916872b020c49bb, -10}, /* 10^-3 */
    {0x51eb851eb851eb85, 0x0f5c28f5c28f5c29, -7}, /* 10^-2 */
    {0x6666666666666666, 0x3333333333333334, -4}, /* 10^-1 */
    {0x4000000000000000, 0x0000000000000001, 0}, /* 10^0 */
    {0x5000000000000000, 0x0000000000000001, 3}, /* 10^1 */
    {0x6400000000000000, 0x0000000000000001, 6}, /* 10^2 */
    {0x7d00000000000000, 0x0000000000000001, 9}, /* 10^3 */
    {0x4e20000000000000, 0x0000000000000001, 13}, /* 10^4 */
    {0x61a8000000000000, 0x0000000000000001, 16}, /* 10^5 */
    {0x7a12000000000000, 0x0000000000000001, 19}, /* 10^6 */
    {0x4c4b400000000000, 0x0000000000000001, 23}, /* 10^7 */
    {0x5f5e100000000000, 0x0000000000000001, 26}, /* 10^8 */
    {0x7735940000000000, 0x0000000000000001, 29}, /* 10^9 */
    {0x4a817c8000000000, 0x0000000000000001, 33}, /* 10^10 */
    {0x5d21dba000000000, 0x0000000000000001, 36}, /* 10^11 */
    {0x746a528800000000, 0x0000000000000001, 39}, /* 10^12 */
    {0x48c2739500000000, 0x0000000000000001, 43}, /* 10^13 */
    {0x5af3107a40000000, 0x0000000000000001, 46}, /* 10^14 */
    {0x71afd498d0000000, 0x0000000000000001, 49}, /* 10^15 */
    {0x470de4df82000000, 0x0000000000000001, 53}, /* 10^16 */
    {0x58d15e1762800000, 0x0000000000000001, 56}, /* 10^17 */
    {0x6f05b59d3b200000, 0x0000000000000001, 59}, /* 10^18 */
    {0x4563918244f40000, 0x0000000000000001, 63}, /* 10^19 */
    {0x56bc75e2d6310000, 0x0000000000000001, 66}, /* 10^20 */
    {0x6c6b935b8bbd4000, 0x0000000000000001, 69}, /* 10^21 */
    {0x43c33c1937564800, 0x0000000000000001, 73}, /* 10^22 */
    {0x54b40b1f852bda00, 0x0000000000000001, 76}, /* 10^23 */
    {0x69e10de76676d080, 0x0000000000000001, 79}, /* 10^24 */
    {0x422ca8b0a00a4250, 0x0000000000000001, 83}, /* 10^25 */
    {0x52b7d2dcc80cd2e4, 0x0000000000000001, 86}, /* 10^26 */
    {0x6765c793fa10079d, 0x0000000000000001, 89}, /* 10^27 */
    {0x409f9cbc7c4a04c2, 0x1000000000000001, 93}, /* 10^28 */
    {0x50c783eb9b5c85f2, 0x5400000000000001, 96}, /* 10^29 */
    {0x64f964e68233a76f, 0x2900000000000001, 99}, /* 10^30 */
    {0x7e37be2022c0914b, 0x1340000000000001, 102}, /* 10^31 */
    {0x4ee2d6d415b85ace, 0x7c08000000000001, 106}, /* 10^32 */
    {0x629b8c891b267182, 0x5b0a000000000001, 109}, /* 10^33 */
    {0x7b426fab61f00de3, 0x31cc800000000001, 112}, /* 10^34 */
};

static const char DIGIT_PAIRS[200] =
    "0001020304050607080910111213141516171819"
    "2021222324252627282930313233343536373839"
    "4041424344454647484950515253545556575859"
    "6061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* cp g / 2^127 rounded to odd, g = g1 2^63 + g0: its floor, with the last
 * bit set when the bits of cp g from 2^64 to 2^127 are not all zero. As
 * in the paper, the low 64 bits of cp g0, where g's rounding up lands,
 * are not read. */
static inline uint64_t round_to_odd(uint64_t g1, uint64_t g0, uint64_t cp)
{
    uint64_t x1 = (uint64_t)(((u128)g0 * cp) >> 64);
    u128 y = (u128)g1 * cp;
    uint64_t z = ((uint64_t)y >> 1) + x1;
    return ((uint64_t)(y >> 64) + (z >> 63)) | ((z << 1) != 0);
}

/* The 8 digits of v < 10^8, zeros in front, at out. */
static inline void write_8_digits(uint32_t v, char *out)
{
    uint32_t high = v / 10000, low = v % 10000;
    memcpy(out, DIGIT_PAIRS + 2 * (high / 100), 2);
    memcpy(out + 2, DIGIT_PAIRS + 2 * (high % 100), 2);
    memcpy(out + 4, DIGIT_PAIRS + 2 * (low / 100), 2);
    memcpy(out + 6, DIGIT_PAIRS + 2 * (low % 100), 2);
}

/* Write repr(x) at out, at most FMT_MAX_BYTES bytes; return the byte
 * count, or -1 (nothing written) when x is outside the range above. */
static int format_double(double x, char *out)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    uint64_t frac = bits & ((1ULL << 52) - 1);
    int biased = (int)((bits >> 52) & 0x7ff);
    int q = biased - 1075;
    char *p = out;
    if (biased == 0 && frac == 0) {
        if (bits >> 63)
            *p++ = '-';
        memcpy(p, "0.0", 3);
        return (int)(p - out) + 3;
    }
    if (biased == 0 || q < FMT_MIN_EXP || q > FMT_MAX_EXP)
        return -1;
    if (bits >> 63)
        *p++ = '-';

    uint64_t c = frac | (1ULL << 52);
    /* the gap below a power of two is half the gap above it, and the
     * interval three quarters as wide: k = floor(log10(3/4 2^q)), else
     * floor(log10(2^q)), each q log10(2) to 41 bits (the bias keeps the
     * shifted operand non-negative) */
    int closer = frac == 0;
    uint64_t cb = c << 2, cbl = cb - 2 + closer, cbr = cb + 2;
    int64_t k41 = q * 661971961083LL - (closer ? 274743187321LL : 0);
    int k = (int)((k41 + (64LL << 41)) >> 41) - 64;
    uint64_t g1 = G[G_KMAX - k].g1, g0 = G[G_KMAX - k].g0;
    int h = q + G[G_KMAX - k].b + 2; /* in [2, 5] */
    uint64_t vb = round_to_odd(g1, g0, cb << h);
    /* d 10^k lies in the interval when lower <= 4d <= upper */
    uint64_t lower = round_to_odd(g1, g0, cbl << h) + (c & 1);
    uint64_t upper = round_to_odd(g1, g0, cbr << h) - (c & 1);
    uint64_t s = vb >> 2, sp10 = s / 10 * 10, mid = (s << 2) + 2;
    uint64_t up_in = lower <= sp10 << 2, wp_in = (sp10 + 10) << 2 <= upper;
    uint64_t u_in = lower <= s << 2, w_in = (s + 1) << 2 <= upper;
    /* s + 1 when it is nearer x than s, or as near and s is odd; w_in
     * instead when just one of s and s + 1 lies in the interval */
    uint64_t up = (vb > mid) | ((vb == mid) & s & 1);
    up ^= (u_in ^ w_in) & (w_in ^ up);
    /* all ones when just one of sp10 and sp10 + 10 does */
    uint64_t m = 0 - (up_in ^ wp_in);
    uint64_t f = ((s + up) & ~m) | ((sp10 + 10 * wp_in) & m);

    /* the digits of f (f >= sp10 >= 2^52 - 9 has 16 or 17) at digits,
     * nd of them once the trailing zeros are dropped; buf holds 17, a zero
     * first when f has 16. From here on 10^(k-1) <= the decimal < 10^k */
    uint64_t short16 = f < POW10[16];
    char buf[18];
    uint64_t top = f / 100000000;
    buf[0] = (char)('0' + top / 100000000);
    write_8_digits((uint32_t)(top % 100000000), buf + 1);
    write_8_digits((uint32_t)(f - top * 100000000), buf + 9);
    buf[17] = '0'; /* read, never written out, by the copy of 17 below 1 */
    char *digits = buf + short16;
    int nd = 17 - (int)short16 - (buf[16] == '0');
    while (digits[nd - 1] == '0')
        nd--;
    k += 17 - (int)short16;

    /* the layout of repr: positional when the exponent k - 1 lies in
     * [-4, 16), that is for 1e-4 <= |x| < 1e16, else d.ddde±XX. Below 1
     * the copies have fixed sizes, which the compiler inlines: they may
     * write past the text, never past FMT_MAX_BYTES */
    if (k > -4 && k <= 16) {
        if (k <= 0) {
            memcpy(p, "0.000", 5);
            p += 2 - k;
            memcpy(p, digits, 17);
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

/* Write v in decimal at out, two digits at a time from DIGIT_PAIRS, each
 * pair in its place; return the byte count (at most 20). */
static int format_int(int64_t v, char *out)
{
    uint64_t u = v < 0 ? 0 - (uint64_t)v : (uint64_t)v;
    int len = 1;
    while (u >= POW10[len]) /* u <= 2^63 < 10^19 = POW10[19] */
        len++;
    if (v < 0)
        *out++ = '-';
    char *p = out + len;
    while (u >= 100) {
        p -= 2;
        memcpy(p, DIGIT_PAIRS + 2 * (u % 100), 2);
        u /= 100;
    }
    if (u >= 10)
        memcpy(p - 2, DIGIT_PAIRS + 2 * u, 2);
    else
        p[-1] = (char)('0' + u);
    return len + (v < 0);
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
