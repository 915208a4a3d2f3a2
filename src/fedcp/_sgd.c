/* The two per-entry loops of a run, compiled: one shuffled SGD pass over
 * a site's shard (the twin of the Python loop in solver.py) and the model
 * values that tensor.rmse scores (the twin of reconstruct_values).
 *
 * The arithmetic follows each Python reference operation for operation.
 * In the pass every dot product is summed strictly left to right starting
 * from the first product, and every row update is a separate multiply and
 * subtract; the model values are summed left to right from 0.0, the order
 * numpy's einsum uses. Build with -ffp-contract=off (no fused
 * multiply-add) and without -ffast-math, so the paths agree bit for bit.
 *
 * The callers check shapes, dtypes and contiguity before a call; this
 * file trusts that every index in coords lies inside its factor matrix.
 * No Python object is touched, so a call may run without the GIL.
 */

#include <math.h>
#include <stdint.h>

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
