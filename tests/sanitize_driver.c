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

#define FORMAT_N 2
#define FORMAT_MAX_CAP 256

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

int main(void)
{
    parse_bodies(stdin);
    format_into_small_buffers();
    return 0;
}
