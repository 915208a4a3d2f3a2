/* A driver for the kernels of src/fedcp/_sgd.c, built together with
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
 * generator whose every draw is 0, and out of exactly its two doubles.
 * One line "rank nnz status clipped sse beta" is printed per round, the
 * sse and beta as their bits in hex. The shard's values, factors and
 * anchors are multiples of 1/8, which Python builds alike.
 *
 * Run as "sanitize_driver model", it runs model_values on the same dims
 * at each rank of ROUND_RANKS for each count from 0 to MODEL_MAX_NNZ,
 * coords, factors and out each in a malloc'd buffer of exactly its size,
 * entry n at (n % 5, n % 4, n % 3). One line "rank nnz bits..." is
 * printed per call, out's bits in hex.
 *
 * Run as "sanitize_driver noise", it reads a cycle of 32-bit words from
 * stdin (their count, then each in hex) and runs gaussian_perturb with
 * sigma NOISE_SIGMA for each n of NOISE_N, m and out each in a malloc'd
 * buffer of exactly n doubles, m[i] set to (i % 5 - 2) / 8 with -0.0 at
 * every third place. Its bit generator hands out the cycle's words from
 * the first on, for each n anew, the way numpy's MT19937 hands out its
 * 32-bit outputs: a 64-bit draw is the first word shifted up over the
 * second, a double (a >> 5) * 2^26 + (b >> 6) over 2^53. One line "n
 * words bits..." is printed per n: the words drawn, then out's bits in
 * hex.
 *
 * Run as "sanitize_driver server", it runs server_step for each count of
 * SERVER_SITES and each size of SERVER_SIZES, B the first (size + 1) / 2
 * values and C the rest. Each upload is a malloc'd buffer of exactly
 * SERVER_OFFSET + 8 * size bytes, each anchor and the output one of
 * exactly its values. Three calls are made: the first cohort (no previous
 * one), the second against the first, and the second with the last value
 * of its last site set to inf. Value i of site t in cohort q is
 * ((i * (t + 2) + 3 * q) % 11 - 5) / 8, of the anchors ((5 * i) % 7 - 3)
 * / 4, each -0.0 where it is 0 and i is odd. One line "sites size status
 * change bits..." is printed per call: the change's bits in hex, or "-"
 * for none, then out's bits in hex when status is 0.
 */

#include <inttypes.h>
#include <math.h>
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

void model_values(int64_t nnz, const int64_t *coords, const double *A, const double *B,
                  const double *C, int64_t rank, double *out);

void gaussian_perturb(bitgen_t *bitgen, int64_t n, const double *m, double sigma, double *out);

int server_step(int64_t n_sites, const char *const *uploads, const char *const *prev,
                int64_t offset, int64_t split, int64_t size, const double *b_hat,
                const double *c_hat, double eta, double gamma, double *out, double *change);

int site_round(int64_t nnz, const int64_t *coords, const double *values, int64_t i_dim,
               int64_t j_dim, int64_t k_dim, double *A, double *B, double *C, int64_t rank,
               double *out, int64_t *tally, int64_t tau, bitgen_t *bitgen,
               const double *b_hat, const double *c_hat, double eta, double gamma,
               double clip, double threshold);

#define FORMAT_N 2
#define FORMAT_MAX_CAP 256

static const int64_t ROUND_DIMS[3] = {5, 4, 3};
/* 1 to 9, 16 and 50 take the ranks passed to sgd_pass as literals (3, 5
 * and 50, the one body that steps pairs) and the general body; at 129 the
 * row norms of beta split pairwise_squares' 129 terms in two, with c NULL;
 * 3 and 10 entries are fewer than its prefetch distances, and 3 leaves a
 * lone entry after a pair */
static const int64_t ROUND_RANKS[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 50, 129};
static const int64_t ROUND_NNZ[] = {3, 10, 40};
/* every count of entries left after model_values' groups of four */
#define MODEL_MAX_NNZ 9

#define NOISE_SIGMA 0.75
static const int64_t NOISE_N[] = {0, 1, 7, 4096};

#define SERVER_OFFSET 24
static const int64_t SERVER_SITES[] = {1, 3};
static const int64_t SERVER_SIZES[] = {1, 7, 8, 129, 4099};

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
            double *out = checked_malloc(2 * sizeof *out);
            int64_t *tally = checked_malloc(2 * sizeof *tally);
            int status = site_round(nnz, coords, values, dims[0], dims[1], dims[2], A, B, C,
                                    rank, out, tally, 2, &zero, b_hat, c_hat, 0.05, 0.5,
                                    0.3, 0.05 * 0.2);
            uint64_t bits[2];
            memcpy(bits, out, sizeof bits);
            printf("%" PRId64 " %" PRId64 " %d %" PRId64 " %016" PRIx64 " %016" PRIx64 "\n", rank,
                   nnz, status, tally[0], bits[0], bits[1]);
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

static void run_model(void)
{
    const int64_t *dims = ROUND_DIMS;
    for (size_t a = 0; a < sizeof ROUND_RANKS / sizeof *ROUND_RANKS; a++) {
        for (int64_t nnz = 0; nnz <= MODEL_MAX_NNZ; nnz++) {
            int64_t rank = ROUND_RANKS[a];
            int64_t *coords = checked_malloc(3 * (size_t)nnz * sizeof *coords);
            for (int64_t n = 0; n < nnz; n++)
                for (int m = 0; m < 3; m++)
                    coords[3 * n + m] = n % dims[m];
            double *A = factor(dims[0], rank, 1), *B = factor(dims[1], rank, 2);
            double *C = factor(dims[2], rank, 3);
            double *out = checked_malloc((size_t)nnz * sizeof *out);
            model_values(nnz, coords, A, B, C, rank, out);
            printf("%" PRId64 " %" PRId64, rank, nnz);
            for (int64_t n = 0; n < nnz; n++) {
                uint64_t bits;
                memcpy(&bits, out + n, sizeof bits);
                printf(" %016" PRIx64, bits);
            }
            putchar('\n');
            free(out);
            free(C);
            free(B);
            free(A);
            free(coords);
        }
    }
}

/* The word cycle the noise bit generator reads, and how many it drew */
typedef struct {
    const uint32_t *words;
    int64_t len, drawn;
} word_cycle;

static uint32_t cycle_next32(void *st)
{
    word_cycle *cycle = st;
    return cycle->words[cycle->drawn++ % cycle->len];
}

static uint64_t cycle_next64(void *st)
{
    uint64_t high = cycle_next32(st);
    return high << 32 | cycle_next32(st);
}

static double cycle_next_double(void *st)
{
    int32_t a = (int32_t)(cycle_next32(st) >> 5);
    int32_t b = (int32_t)(cycle_next32(st) >> 6);
    return (a * 67108864.0 + b) / 9007199254740992.0;
}

static void run_noise(FILE *in)
{
    long len;
    if (fscanf(in, "%ld", &len) != 1 || len < 1) {
        fputs("malformed word count\n", stderr);
        exit(2);
    }
    uint32_t *words = checked_malloc((size_t)len * sizeof *words);
    for (long w = 0; w < len; w++) {
        if (fscanf(in, "%" SCNx32, words + w) != 1) {
            fputs("malformed word\n", stderr);
            exit(2);
        }
    }
    for (size_t a = 0; a < sizeof NOISE_N / sizeof *NOISE_N; a++) {
        int64_t n = NOISE_N[a];
        word_cycle cycle = {words, len, 0};
        bitgen_t bitgen = {&cycle, cycle_next64, cycle_next32, cycle_next_double, NULL};
        double *m = checked_malloc((size_t)n * sizeof *m);
        double *out = checked_malloc((size_t)n * sizeof *out);
        for (int64_t i = 0; i < n; i++)
            m[i] = i % 3 == 0 ? -0.0 : (double)(i % 5 - 2) / 8.0;
        gaussian_perturb(&bitgen, n, m, NOISE_SIGMA, out);
        printf("%" PRId64 " %" PRId64, n, cycle.drawn);
        for (int64_t i = 0; i < n; i++) {
            uint64_t bits;
            memcpy(&bits, out + i, sizeof bits);
            printf(" %016" PRIx64, bits);
        }
        putchar('\n');
        free(out);
        free(m);
    }
    free(words);
}

static double server_value(int64_t i, int64_t numerator)
{
    double v = (double)numerator;
    return v == 0.0 && i % 2 ? -0.0 : v;
}

static void print_step(int64_t sites, int64_t size, int status, const double *change,
                       const double *out)
{
    printf("%" PRId64 " %" PRId64 " %d ", sites, size, status);
    uint64_t bits;
    if (change == NULL) {
        putchar('-');
    } else {
        memcpy(&bits, change, sizeof bits);
        printf("%016" PRIx64, bits);
    }
    for (int64_t i = 0; status == 0 && i < size; i++) {
        memcpy(&bits, out + i, sizeof bits);
        printf(" %016" PRIx64, bits);
    }
    putchar('\n');
}

static void run_server(void)
{
    for (size_t a = 0; a < sizeof SERVER_SITES / sizeof *SERVER_SITES; a++) {
        for (size_t b = 0; b < sizeof SERVER_SIZES / sizeof *SERVER_SIZES; b++) {
            int64_t sites = SERVER_SITES[a], size = SERVER_SIZES[b], split = (size + 1) / 2;
            char *cohorts[2][3]; /* 3, the largest count of SERVER_SITES */
            for (int q = 0; q < 2; q++) {
                for (int64_t t = 0; t < sites; t++) {
                    char *blob = checked_malloc(SERVER_OFFSET + (size_t)size * sizeof(double));
                    memset(blob, 0, SERVER_OFFSET);
                    for (int64_t i = 0; i < size; i++) {
                        double v = server_value(i, (i * (t + 2) + 3 * q) % 11 - 5) / 8.0;
                        memcpy(blob + SERVER_OFFSET + i * (int64_t)sizeof v, &v, sizeof v);
                    }
                    cohorts[q][t] = blob;
                }
            }
            double *b_hat = checked_malloc((size_t)split * sizeof *b_hat);
            double *c_hat = checked_malloc((size_t)(size - split) * sizeof *c_hat);
            for (int64_t i = 0; i < size; i++) {
                double v = server_value(i, (5 * i) % 7 - 3) / 4.0;
                if (i < split)
                    b_hat[i] = v;
                else
                    c_hat[i - split] = v;
            }
            double *out = checked_malloc((size_t)size * sizeof *out);
            double *change = checked_malloc(sizeof *change);
            const char *const *first = (const char *const *)cohorts[0];
            const char *const *second = (const char *const *)cohorts[1];
            int status = server_step(sites, first, NULL, SERVER_OFFSET, split, size, b_hat,
                                     c_hat, 0.05, 0.5, out, change);
            print_step(sites, size, status, NULL, out);
            status = server_step(sites, second, first, SERVER_OFFSET, split, size, b_hat,
                                 c_hat, 0.05, 0.5, out, change);
            print_step(sites, size, status, change, out);
            double inf = INFINITY;
            memcpy(cohorts[1][sites - 1] + SERVER_OFFSET + (size - 1) * (int64_t)sizeof inf,
                   &inf, sizeof inf);
            status = server_step(sites, second, first, SERVER_OFFSET, split, size, b_hat,
                                 c_hat, 0.05, 0.5, out, change);
            print_step(sites, size, status, NULL, out);
            free(change);
            free(out);
            free(c_hat);
            free(b_hat);
            for (int q = 0; q < 2; q++)
                for (int64_t t = 0; t < sites; t++)
                    free(cohorts[q][t]);
        }
    }
}

int main(int argc, char **argv)
{
    if (argc > 1 && strcmp(argv[1], "server") == 0) {
        run_server();
        return 0;
    }
    if (argc > 1 && strcmp(argv[1], "noise") == 0) {
        run_noise(stdin);
        return 0;
    }
    if (argc > 1 && strcmp(argv[1], "rounds") == 0) {
        run_rounds();
        return 0;
    }
    if (argc > 1 && strcmp(argv[1], "model") == 0) {
        run_model();
        return 0;
    }
    parse_bodies(stdin);
    format_into_small_buffers();
    return 0;
}
