/* The three hot loops of a CLI run, compiled: one shuffled SGD pass over
 * a site's shard (the twin of the Python loop in solver.py), the model
 * values that tensor.rmse scores (the twin of reconstruct_values), and
 * the parse of a COO file's body (the fast path of data.read_coo).
 *
 * The arithmetic follows each Python reference operation for operation.
 * In the pass every dot product is summed strictly left to right starting
 * from the first product, and every row update is a separate multiply and
 * subtract; the model values are summed left to right from 0.0, the order
 * numpy's einsum uses. Build with -ffp-contract=off (no fused
 * multiply-add) and without -ffast-math, so the paths agree bit for bit.
 * The parser reads each value with strtod, which glibc rounds correctly,
 * as Python's float() does.
 *
 * The callers check shapes, dtypes and contiguity before a call; this
 * file trusts that every index in coords lies inside its factor matrix.
 * No Python object is touched, so a call may run without the GIL.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Scale g to 2-norm clip when its norm exceeds clip. */
static void clip_row(double *g, int64_t rank, double clip)
{
    double sq = g[0] * g[0];
    for (int64_t r = 1; r < rank; r++)
        sq += g[r] * g[r];
    double norm = sqrt(sq);
    if (norm > clip) {
        double scale = clip / norm;
        for (int64_t r = 0; r < rank; r++)
            g[r] = g[r] * scale;
    }
}

/* Visit the entries order[0..nnz) in turn. For entry n at (i, j, k) with
 * value v, take the row gradients at the current rows A[i], B[j], C[k],
 * clip each residual gradient when clip_on, add the anchor pull on B and
 * C, then step all three rows by eta. coords is (nnz, 3) row-major; the
 * factors and anchors are row-major with rank columns; work holds 3 * rank
 * doubles of scratch.
 *
 * Returns -1 when every entry was applied, else the position in order of
 * the first entry whose residual is not finite; the entries before it
 * stay applied and that entry is not.
 */
int64_t sgd_pass(int64_t nnz, const int64_t *order, const int64_t *coords,
                 const double *values, double *A, double *B, double *C,
                 const double *b_hat, const double *c_hat, int64_t rank,
                 double eta, double gamma, double clip, int clip_on,
                 double *work)
{
    double *ga = work, *gb = work + rank, *gc = work + 2 * rank;
    for (int64_t p = 0; p < nnz; p++) {
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
        if (!isfinite(resid))
            return p;

        for (int64_t r = 0; r < rank; r++) {
            ga[r] = resid * (b[r] * c[r]);
            gb[r] = resid * (a[r] * c[r]);
            gc[r] = resid * (a[r] * b[r]);
        }
        if (clip_on) {
            clip_row(ga, rank, clip);
            clip_row(gb, rank, clip);
            clip_row(gc, rank, clip);
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
