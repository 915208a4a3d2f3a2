/* A driver for the COO kernels of src/fedcp/_sgd.c, built together with
 * it under -fsanitize=address,undefined by tests/test_data.py. Each read
 * or write outside a buffer, and each undefined operation, then stops
 * the program with a report.
 *
 * stdin holds COO bodies, each as its byte count in decimal, a newline
 * and its bytes. Each body is copied into a malloc'd buffer of exactly
 * its size, so a load past its end is caught, and parsed with the cap
 * count_newlines gives. For each body one line is printed: what
 * parse_coo returned, then the bits of each value read, in hex.
 *
 * Then format_records writes FORMAT_N copies of one COO record into
 * malloc'd buffers of every cap from 0 to FORMAT_MAX_CAP bytes, and one
 * line "cap returned" is printed for each.
 *
 * Run as "sanitize_driver rounds", it instead runs site_round on a shard
 * of ROUND_DIMS at each rank of ROUND_RANKS and each count of ROUND_NNZ,
 * every array in a malloc'd buffer of exactly its size, with a bit
 * generator whose every draw is 0. One line "rank nnz status clipped sse"
 * is printed per round, the sse as its bits in hex. The shard's values,
 * factors and anchors are multiples of 1/8, which Python builds alike.
 */

#include <inttypes.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

int64_t count_newlines(const char *buf, int64_t len);
int64_t parse_coo(const char *buf, int64_t len, int64_t cap, int64_t *coords,
                  double *values);
int64_t format_records(const int64_t *ints, int64_t n_ints, const double *values,
                       int64_t n_values, int64_t n, char *out, int64_t cap);

/* numpy's bitgen_t, as _sgd.c declares it */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

int site_round(int64_t nnz, const int64_t *coords, const double *values, int64_t i_dim,
               int64_t j_dim, int64_t k_dim, double *A, double *B, double *C, int64_t rank,
               double *out, int64_t *tally, int64_t tau, bitgen_t *bitgen,
               const double *b_hat, const double *c_hat, double eta, double gamma,
               double clip, double threshold);

#define FORMAT_N 2
#define FORMAT_MAX_CAP 256

static const int64_t ROUND_DIMS[3] = {5, 4, 3};
/* 1 to 9 and 16 take both the ranks passed to sgd_pass as literals (3 and
 * 5) and the general body; 3 and 10 entries are fewer than its prefetch
 * distances */
static const int64_t ROUND_RANKS[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 16};
static const int64_t ROUND_NNZ[] = {3, 10, 40};

static void *checked_malloc(size_t size)
{
    /* malloc(0) may return NULL; a 0-byte request still gets its own
     * block, every byte of which lies past its end */
    void *p = malloc(size);
    if (p == NULL && size != 0) {
        fputs("out of memory\n", stderr);
        exit(2);
    }
    return p;
}

static void parse_bodies(FILE *in)
{
    long size;
    while (fscanf(in, "%ld", &size) == 1) {
        if (size < 0 || fgetc(in) != '\n') {
            fputs("malformed input\n", stderr);
            exit(2);
        }
        char *body = checked_malloc((size_t)size);
        if (fread(body, 1, (size_t)size, in) != (size_t)size) {
            fputs("short body\n", stderr);
            exit(2);
        }
        int64_t cap = count_newlines(body, size) + 1;
        int64_t *coords = checked_malloc(3 * (size_t)cap * sizeof *coords);
        double *values = checked_malloc((size_t)cap * sizeof *values);
        int64_t n = parse_coo(body, size, cap, coords, values);
        printf("%" PRId64, n);
        for (int64_t i = 0; i < n; i++) {
            uint64_t bits;
            memcpy(&bits, values + i, sizeof bits);
            printf(" %016" PRIx64, bits);
        }
        putchar('\n');
        free(values);
        free(coords);
        free(body);
    }
}

static void format_into_small_buffers(void)
{
    /* the widest COO record: three 20-byte ints and a 23-byte value */
    int64_t ints[3 * FORMAT_N];
    double values[FORMAT_N];
    for (int i = 0; i < FORMAT_N; i++) {
        ints[3 * i] = INT64_MIN;
        ints[3 * i + 1] = INT64_MIN;
        ints[3 * i + 2] = INT64_MIN;
        values[i] = -1.2345678901234567e-10;
    }
    for (int64_t cap = 0; cap <= FORMAT_MAX_CAP; cap++) {
        char *out = checked_malloc((size_t)cap);
        printf("%" PRId64 " %" PRId64 "\n", cap,
               format_records(ints, 3, values, 1, FORMAT_N, out, cap));
        free(out);
    }
}

static uint64_t zero_u64(void *st)
{
    (void)st;
    return 0;
}

static uint32_t zero_u32(void *st)
{
    (void)st;
    return 0;
}

/* A (rows, rank) factor in a buffer of its size, entry (i, r) set to
 * ((i + offset * r) % 5 + 1) / 8. */
static double *factor(int64_t rows, int64_t rank, int64_t offset)
{
    double *m = checked_malloc((size_t)(rows * rank) * sizeof *m);
    for (int64_t i = 0; i < rows; i++)
        for (int64_t r = 0; r < rank; r++)
            m[i * rank + r] = (double)((i + offset * r) % 5 + 1) / 8.0;
    return m;
}

/* entry n at (n % 5, n % 4, n % 3) with value (n % 7 + 1) / 4: distinct
 * for the 60 first entries */
static void run_rounds(void)
{
    bitgen_t zero = {NULL, zero_u64, zero_u32, NULL, NULL};
    const int64_t *dims = ROUND_DIMS;
    for (size_t a = 0; a < sizeof ROUND_RANKS / sizeof *ROUND_RANKS; a++) {
        for (size_t b = 0; b < sizeof ROUND_NNZ / sizeof *ROUND_NNZ; b++) {
            int64_t rank = ROUND_RANKS[a], nnz = ROUND_NNZ[b];
            int64_t *coords = checked_malloc(3 * (size_t)nnz * sizeof *coords);
            double *values = checked_malloc((size_t)nnz * sizeof *values);
            for (int64_t n = 0; n < nnz; n++) {
                for (int m = 0; m < 3; m++)
                    coords[3 * n + m] = n % dims[m];
                values[n] = (double)(n % 7 + 1) / 4.0;
            }
            double *A = factor(dims[0], rank, 1), *B = factor(dims[1], rank, 2);
            double *C = factor(dims[2], rank, 3), *b_hat = factor(dims[1], rank, 4);
            double *c_hat = factor(dims[2], rank, 0);
            double *out = checked_malloc(7 * sizeof *out);
            int64_t *tally = checked_malloc(2 * sizeof *tally);
            int status = site_round(nnz, coords, values, dims[0], dims[1], dims[2], A, B, C,
                                    rank, out, tally, 2, &zero, b_hat, c_hat, 0.05, 0.5,
                                    0.3, 0.05 * 0.2);
            uint64_t bits;
            memcpy(&bits, out, sizeof bits);
            printf("%" PRId64 " %" PRId64 " %d %" PRId64 " %016" PRIx64 "\n", rank, nnz, status,
                   tally[0], bits);
            free(tally);
            free(out);
            free(c_hat);
            free(b_hat);
            free(C);
            free(B);
            free(A);
            free(values);
            free(coords);
        }
    }
}

int main(int argc, char **argv)
{
    if (argc > 1 && strcmp(argv[1], "rounds") == 0) {
        run_rounds();
        return 0;
    }
    parse_bodies(stdin);
    format_into_small_buffers();
    return 0;
}
