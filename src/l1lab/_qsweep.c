/* The compiled parts of l1lab, built and loaded by _qsweep.py.
 *
 * qblock: a run of ccd, ccm or gd iterations of a quadratic on rows of
 * iterates and their products: each iteration the cyclic sweep of
 * CoordinateKernel.sweep (ccd, ccm) or the numpy prox-gradient image (gd)
 * from the product A x, with the same float operations in the same order,
 * and then the next product A w by the dgemv that numpy's matmul calls.
 *
 * qray: the first rung of a ray t * u that classifies as the wanted kind,
 * the start search's numpy classification with the same float operations.
 *
 * render_floats: a block of doubles as text, in rows, each value spelled
 * as Python's repr (float.__repr__) or '%.17g' % v spells it.
 *
 * parse_floats: a JSON array of numbers, or of rows of numbers, as a
 * block of doubles, each token read as json.loads and then
 * np.array(..., dtype=float) read it.
 *
 * qaxpy: the sweep's row update in a variant the caller names, for the
 * tests.
 *
 * Every other function is static.
 *
 * The sweep's row update, state += delta * A[j], is SIMD: four entries at
 * a time through GCC/clang vector extensions, each entry still one IEEE
 * multiply and then one add, so its results are bitwise the scalar loop's.
 * It is compiled twice, a baseline (SSE2 on x86-64, NEON on arm64) and on
 * x86 an AVX2 twin (target("avx2"), without FMA), and qblock chooses the
 * twin once per call when __builtin_cpu_supports("avx2"). The build takes
 * no -march flag: one cached library runs on every host of its machine
 * type.
 *
 * Compile without FMA contraction or fast-math (see _qsweep.py), so every
 * float operation of the sweep and the gd step rounds as numpy's does. No
 * part uses libm; qblock's products are numpy's own BLAS call.
 */
#include <stdint.h>
#include <string.h>

/* Four doubles. The operators of GCC and clang act on them entry by
 * entry; the baseline build lowers each to two SSE2 (or NEON) operations,
 * the AVX2 twin to one. */
typedef double v4d __attribute__((vector_size(32)));

/* state += delta * row over d entries, four at a time and then a scalar
 * tail. Each entry is one multiply and then one add, as in the scalar loop
 * and numpy: no FMA, no reassociation. The rows are loaded unaligned
 * through memcpy (a row of A starts at 8 * j * d bytes). The four lanes
 * are stored one by one: GCC 12 writes a 32-byte memcpy store of the
 * baseline build through the stack, but these as two 16-byte stores. */
static inline __attribute__((always_inline)) void axpy_body(long d, double delta,
                                                            const double *row, double *state)
{
    const v4d dv = {delta, delta, delta, delta};
    long i = 0;
    for (; i + 4 <= d; i += 4) {
        v4d r, s;
        memcpy(&r, row + i, sizeof r);
        memcpy(&s, state + i, sizeof s);
        s += dv * r;
        state[i] = s[0];
        state[i + 1] = s[1];
        state[i + 2] = s[2];
        state[i + 3] = s[3];
    }
    for (; i < d; i++)
        state[i] += delta * row[i];
}

typedef void (*axpy_fn)(long d, double delta, const double *row, double *state);

/* The two builds of axpy_body. A step at d = 300 takes about 1.2 times as
 * long (d = 500: 1.1) when the AVX2 loop crosses a 64-byte line, and
 * where a loop lies inside a larger function moves with the code around
 * it. Kept out of line and aligned to 64 bytes, each loop lies inside one
 * line wherever the linker puts the function (scripts/time_c.py times a
 * change). */
__attribute__((noinline, aligned(64))) static void axpy_row(long d, double delta,
                                                            const double *row, double *state)
{
    axpy_body(d, delta, row, state);
}

#if defined(__x86_64__) || defined(__i386__)
__attribute__((noinline, aligned(64), target("avx2"))) static void axpy_row_avx2(
    long d, double delta, const double *row, double *state)
{
    axpy_body(d, delta, row, state);
}
#endif

/* The row updates by variant: [0] the baseline, [1] the AVX2 twin (NULL
 * off x86, where has_avx2 is 0). */
static const axpy_fn AXPY[2] = {
    axpy_row,
#if defined(__x86_64__) || defined(__i386__)
    axpy_row_avx2,
#else
    NULL,
#endif
};

/* Whether this CPU runs the AVX2 twin: x86 with AVX2 that the OS enables
 * (libgcc's constructor has read the CPU's features when the library was
 * loaded). */
static int has_avx2(void)
{
#if defined(__x86_64__) || defined(__i386__)
    return __builtin_cpu_supports("avx2") != 0;
#else
    return 0;
#endif
}

/* For the tests: the row update of variant v (0 the baseline, 1 the AVX2
 * twin, -1 the one qblock chooses) on state. Returns the variant
 * run, or -1 with nothing run when this CPU cannot run v. */
long qaxpy(long v, long d, double delta, const double *row, double *state)
{
    if (v < 0)
        v = has_avx2();
    if (v > 1 || (v == 1 && !has_avx2()))
        return -1;
    AXPY[v](d, delta, row, state);
    return v;
}

/* One ccd or ccm iteration from the iterate x and its product ax = A x,
 * with the row update axpy: w = x, state = ax + b (the gradient at x, as
 * np.add forms it), then the cyclic sweep of w. A is the d x d matrix
 * (row-major), steps the per-coordinate step (L for ccd, A_jj for ccm);
 * w and state are updated in place, coordinate by coordinate, each row of
 * A added to state by axpy. */
static void qsweep(axpy_fn axpy, long d, const double *A, const double *steps, double lam,
                   const double *b, double *state, const double *x, const double *ax,
                   double *w)
{
    memcpy(w, x, d * sizeof *w);
    for (long i = 0; i < d; i++)
        state[i] = ax[i] + b[i];
    for (long j = 0; j < d; j++) {
        double s = steps[j];
        double z_old = w[j];
        double v = z_old - state[j] / s;
        double t = lam / s;
        /* _shrink: a NaN fails both tests and falls through to v + t. */
        double z_new = v > t ? v - t : v >= -t ? 0.0 : v + t;
        double delta = z_new - z_old;
        if (delta != 0.0)
            axpy(d, delta, A + j * d, state);
        w[j] = z_new;
    }
}

/* One gd step of a quadratic: out = _soft(x - g / L, tau) with the gradient
 * g = ax + b, ax the product A x. Each entry takes the float operations of
 * operators._soft, np.sign(v) * np.maximum(np.abs(v) - tau, 0.0): sign keeps
 * a NaN and gives +0 for +-0, maximum keeps a NaN, and the dead zone of a
 * negative v gives -1 * +0 = -0.0. */
static void qprox(long d, const double *b, double L, double tau, const double *x,
                  const double *ax, double *out)
{
    for (long i = 0; i < d; i++) {
        double v = x[i] - (ax[i] + b[i]) / L;
        double sign = v > 0.0 ? 1.0 : v < 0.0 ? -1.0 : v == 0.0 ? 0.0 : v;
        double m = __builtin_fabs(v) - tau;
        out[i] = sign * (m < 0.0 ? 0.0 : m);
    }
}

/* cblas_dgemv with 64-bit integers, as OpenBLAS built for a 64-bit
 * interface exports it; _qsweep.py resolves it from numpy's own module. */
typedef void (*dgemv_fn)(int order, int trans, int64_t m, int64_t n, double alpha,
                         const double *a, int64_t lda, const double *x, int64_t incx,
                         double beta, double *y, int64_t incy);

/* Iterations k0 <= k < k1 of a quadratic on the rows of W and P, d doubles
 * each, where P[k0] holds the product A W[k0]: W[k + 1] from W[k] and P[k]
 * by qsweep with steps (ccd, ccm), its row update chosen once for the call,
 * or by qprox with L and tau = lam / L when steps is NULL (gd); then
 * P[k + 1] = A W[k + 1] by dgemv, called as numpy's matmul calls it for a
 * C-contiguous A and a vector (column-major 102, transposed 112, lda d,
 * unit strides), so P[k + 1] is bitwise np.matmul(A, W[k + 1]). */
void qblock(dgemv_fn dgemv, long d, const double *A, const double *b, const double *steps,
            double lam, double L, double *state, double *W, double *P, long k0, long k1)
{
    axpy_fn axpy = AXPY[has_avx2()];
    for (long k = k0; k < k1; k++) {
        const double *x = W + k * d, *ax = P + k * d;
        double *w = W + (k + 1) * d;
        if (steps != NULL)
            qsweep(axpy, d, A, steps, lam, b, state, x, ax, w);
        else
            qprox(d, b, L, lam / L, x, ax, w);
        dgemv(102, 112, d, d, 1.0, A, d, w, 1, 0.0, P + (k + 1) * d, 1);
    }
}

/* The first of the rungs ts[0..nt) at which the point x = t u of a
 * quadratic classifies as a supersolution (sign = 1) or a subsolution
 * (sign = -1), or -1 when none does; a = A u. The gradient at x is
 * g = t a + b, as ray_grads forms it for a power of two t, and the slack
 * of each coordinate is operators._classification_slack with tau = 1
 * (dividing by 1 is exact, so it is left out): g + lam where x - g > lam,
 * g - lam where x - g < -lam, else x. As in operators._kind_codes, a rung
 * is of the wanted kind when every sign * s >= -tol and some sign * s > tol
 * (every |s| <= tol is EXACT); a NaN fails the first test, so its rung is
 * NEITHER. A rung is left at its first coordinate that fails that test. */
long qray(long d, long nt, const double *ts, const double *u, const double *a,
          const double *b, double lam, double tol, double sign)
{
    for (long r = 0; r < nt; r++) {
        double t = ts[r];
        int beyond = 0;  /* some sign * s > tol */
        long i;
        for (i = 0; i < d; i++) {
            double x = t * u[i];
            double g = t * a[i] + b[i];
            double v = x - g;
            double s = sign * (v > lam ? g + lam : v < -lam ? g - lam : x);
            if (!(s >= -tol))
                break;
            beyond |= s > tol;
        }
        if (i == d && beyond)
            return r;
    }
    return -1;
}

/* Float-to-text by exact integer arithmetic (Steele & White 1990; Adams,
 * "Ryu", 2018). A finite double v = m 2^e with 1e-15 <= |v| < 1e17 has a
 * decimal exponent E in [-15, 16]; with s = 16 - E, X = |v| 10^s lies in
 * [1e16, 1e17), and X and the ends of v's rounding interval are
 * (4m - 2, 4m + 2) 5^s 2^(s + e - 2) (4m - 1 below when m = 2^52): at most
 * 2^127, exact in unsigned __int128. '%.17g' takes X rounded half to even;
 * repr the integer with the most trailing zeros inside the interval (its
 * ends count when m is even), the one nearest X if there are two. Every
 * other value is declined: non-finite, subnormal or out of range values,
 * and an exact tie between the two nearest shortest candidates. */

typedef unsigned __int128 u128;

/* POW10_CEIL[E + 15] is the least double >= 10^E, E = -15..17. */
static const double POW10_CEIL[33] = {
    0x1.203af9ee75616p-50, 0x1.6849b86a12b9cp-47, 0x1.c25c268497682p-44,
    0x1.19799812dea12p-40, 0x1.5fd7fe1796496p-37, 0x1.b7cdfd9d7bdbbp-34,
    0x1.12e0be826d695p-30, 0x1.5798ee2308c3ap-27, 0x1.ad7f29abcaf49p-24,
    0x1.0c6f7a0b5ed8ep-20, 0x1.4f8b588e368f1p-17, 0x1.a36e2eb1c432dp-14,
    0x1.0624dd2f1a9fcp-10, 0x1.47ae147ae147bp-7, 0x1.999999999999ap-4,
    0x1.0000000000000p+0, 0x1.4000000000000p+3, 0x1.9000000000000p+6,
    0x1.f400000000000p+9, 0x1.3880000000000p+13, 0x1.86a0000000000p+16,
    0x1.e848000000000p+19, 0x1.312d000000000p+23, 0x1.7d78400000000p+26,
    0x1.dcd6500000000p+29, 0x1.2a05f20000000p+33, 0x1.74876e8000000p+36,
    0x1.d1a94a2000000p+39, 0x1.2309ce5400000p+43, 0x1.6bcc41e900000p+46,
    0x1.c6bf526340000p+49, 0x1.1c37937e08000p+53, 0x1.6345785d8a000p+56,
};

/* POW5[i] = 5^i, i = 0..27: 5^27 < 2^63. */
static const uint64_t POW5[28] = {
    1ULL, 5ULL, 25ULL, 125ULL, 625ULL, 3125ULL, 15625ULL, 78125ULL, 390625ULL,
    1953125ULL, 9765625ULL, 48828125ULL, 244140625ULL, 1220703125ULL,
    6103515625ULL, 30517578125ULL, 152587890625ULL, 762939453125ULL,
    3814697265625ULL, 19073486328125ULL, 95367431640625ULL,
    476837158203125ULL, 2384185791015625ULL, 11920928955078125ULL,
    59604644775390625ULL, 298023223876953125ULL, 1490116119384765625ULL,
    7450580596923828125ULL,
};

#define E8 100000000ULL
#define E16 10000000000000000ULL
#define E17 100000000000000000ULL

/* floor(X) of the value N / 2^k, and whether N / 2^k is an integer. */
static uint64_t floor_shift(u128 N, int k, int *exact)
{
    *exact = k == 0 || (N & (((u128)1 << k) - 1)) == 0;
    return (uint64_t)(N >> k);
}

/* The digits of |v| as an integer c in [1e16, 1e17) and its decimal
 * exponent *E (|v| ~ c 10^(*E - 16)); 0 when v is declined. */
static uint64_t digits17(double v, int repr, int *E)
{
    uint64_t bits;
    memcpy(&bits, &v, sizeof bits);
    double a = v < 0 ? -v : v;
    if (!(a >= POW10_CEIL[0] && a < POW10_CEIL[32]))
        return 0;  /* NaN, infinities, subnormals and out of range */
    int biased = (int)(bits >> 52 & 0x7ff);
    uint64_t m = (bits & ((1ULL << 52) - 1)) | 1ULL << 52;
    int e = biased - 1075;
    /* floor((e + 52) log10 2) is E or E - 1; 78913 / 2^18 ~ log10 2, and
     * the added 2^40 keeps the shifted number nonnegative. */
    int est = (int)((((int64_t)(e + 52) * 78913) + ((int64_t)1 << 40)) >> 18) - (1 << 22);
    *E = est + (a >= POW10_CEIL[est + 16]);
    int s = 16 - *E;
    u128 p5 = (u128)POW5[s > 27 ? 27 : s] * POW5[s > 27 ? s - 27 : 0];
    int sh = s + e - 2;  /* X = 4m 5^s 2^sh */
    int k = sh < 0 ? -sh : 0;
    u128 x4 = (u128)(4 * m) * p5 << (sh > 0 ? sh : 0);
    int xi_exact;
    uint64_t xi = floor_shift(x4, k, &xi_exact);
    if (!repr) {
        /* Round X half to even. */
        if (!xi_exact) {
            u128 rem = x4 & (((u128)1 << k) - 1), half = (u128)1 << (k - 1);
            xi += (rem > half) | ((rem == half) & xi);
        }
    } else {
        u128 gap_lo = (m == 1ULL << 52 ? 1 : 2) * p5 << (sh > 0 ? sh : 0);
        u128 gap_hi = 2 * p5 << (sh > 0 ? sh : 0);
        int inclusive = (m & 1) == 0, lo_exact, hi_exact;
        uint64_t lo = floor_shift(x4 - gap_lo, k, &lo_exact);
        uint64_t hi = floor_shift(x4 + gap_hi, k, &hi_exact);
        /* The integers of the interval are lo..hi; X lies strictly inside. */
        lo += !lo_exact | !inclusive;
        hi -= hi_exact & !inclusive;
        /* p = 10^j is the largest power of ten with a multiple in lo..hi.
         * With lj = ceil(lo / 10^j) and hj = floor(hi / 10^j) it has one
         * when lj <= hj; lj, hj and q = floor(xi / 10^j) step from j to
         * j + 1 by a division by the constant 10. */
        uint64_t p = 1, lj = lo, hj = hi, q = xi;
        while (p < E17 && (lj + 9) / 10 <= hj / 10) {
            lj = (lj + 9) / 10;
            hj /= 10;
            q /= 10;
            p *= 10;
        }
        uint64_t below = q * p, above = below + p;
        int in_below = q >= lj, in_above = q + 1 <= hj;
        if (in_below && in_above) {
            /* The sign of (X - below) - (above - X) = u + 2 rem / 2^k, where
             * rem / 2^k in [0, 1) is the fraction of X. */
            int64_t u = 2 * (int64_t)(xi - below) - (int64_t)p;
            int cmp;
            if (xi_exact)
                cmp = (u > 0) - (u < 0);
            else if (u != -1)
                cmp = u >= 0 ? 1 : -1;
            else {
                u128 rem = x4 & (((u128)1 << k) - 1), half = (u128)1 << (k - 1);
                cmp = (rem > half) - (rem < half);
            }
            if (cmp == 0)
                return 0;  /* a tie: Python's own rule decides */
            xi = cmp < 0 ? below : above;
        } else if (in_below || in_above) {
            xi = in_below ? below : above;
        } else {
            return 0;
        }
    }
    if (xi == E17) {
        xi = E16;
        *E += 1;
    }
    return xi;
}

/* PAIRS + 2 i spells i = 0..99 in two digits. */
static const char PAIRS[201] =
    "00010203040506070809101112131415161718192021222324252627282930313233343536373839"
    "40414243444546474849505152535455565758596061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* The 8 digits of x < 10^8 at o. */
static inline void put8(char *o, uint32_t x)
{
    uint32_t a = x / 10000, b = x % 10000;
    memcpy(o, PAIRS + 2 * (a / 100), 2);
    memcpy(o + 2, PAIRS + 2 * (a % 100), 2);
    memcpy(o + 4, PAIRS + 2 * (b / 100), 2);
    memcpy(o + 6, PAIRS + 2 * (b % 100), 2);
}

/* Write the text of v at o and return its end, or NULL when declined. The
 * copies have fixed widths, so up to 40 bytes from o may be written. */
static char *put_float(char *o, double v, int repr)
{
    uint64_t bits;
    memcpy(&bits, &v, sizeof bits);
    *o = '-';
    o += bits >> 63;
    if (v == 0.0) {
        memcpy(o, "0.0", 4);
        return o + (repr ? 3 : 1);
    }
    int E;
    uint64_t c = digits17(v, repr, &E);
    if (c == 0)
        return NULL;
    /* The 17 digits at dig[0..17), zeros after them: a 9-digit and an
     * 8-digit half. */
    char dig[32];
    memcpy(dig + 16, "0000000000000000", 16);
    uint64_t top = c / E8;
    dig[0] = (char)('0' + top / E8);
    put8(dig + 1, (uint32_t)(top % E8));
    put8(dig + 9, (uint32_t)(c - top * E8));
    /* n digits without the trailing zeros, from a word of dig[9..17) or
     * dig[1..9) xor '0' in every byte: the zero bytes at its last end are
     * its high bytes on a little-endian machine, its low ones otherwise. */
    uint64_t w, zeros = 0x3030303030303030ULL;
    memcpy(&w, dig + 9, 8);
    int n = 17;
    if ((w ^= zeros) == 0) {
        memcpy(&w, dig + 1, 8);
        n = 9;
        w ^= zeros;
    }
#if __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    n = w == 0 ? 1 : n - __builtin_clzll(w) / 8;
#else
    n = w == 0 ? 1 : n - __builtin_ctzll(w) / 8;
#endif
    if (E < -4 || E >= (repr ? 16 : 17)) {
        /* d.ddde-XX, or de-XX for one digit; |E| <= 16. */
        o[0] = dig[0];
        o[1] = '.';
        memcpy(o + 2, dig + 1, 16);
        o += n > 1 ? n + 1 : 1;
        o[0] = 'e';
        o[1] = E < 0 ? '-' : '+';
        memcpy(o + 2, PAIRS + 2 * (E < 0 ? -E : E), 2);
        return o + 4;
    }
    if (E < 0) {
        /* 0.ddd after -E - 1 zeros. */
        memcpy(o, "0.000000", 8);
        o += 1 - E;
        memcpy(o, dig, 24);
        return o + n;
    }
    if (n <= E + 1) {
        /* An integer: dig[n..E] are zeros. */
        memcpy(o, dig, 24);
        o += E + 1;
        memcpy(o, ".0", 2);
        return o + (repr ? 2 : 0);
    }
    memcpy(o, dig, 16);
    o[E + 1] = '.';
    memcpy(o + E + 2, dig + E + 1, 16);
    return o + n + 1;
}

/* Write the separator s of ns bytes at o, whose padded copy is pad, and
 * return its end. */
static char *put_sep(char *o, const char *s, const char pad[32], long ns)
{
    if (ns <= 32)
        memcpy(o, pad, 32);
    else
        memcpy(o, s, ns);
    return o + ns;
}

/* Write v[0..n), rows of rowlen values, to out: the values of a row joined
 * by sep (nsep bytes), the rows by rowsep (nrowsep bytes). out holds at
 * least n * (24 + max(nsep, nrowsep)) + 64 bytes; the number of bytes
 * written is returned. A declined value is written as nothing: holes[0]
 * counts them, and holes[1 + 2h], holes[2 + 2h] hold the index of the h-th
 * and the offset in out at which its text belongs. */
long render_floats(long n, const double *v, int repr, const char *sep, long nsep, long rowlen,
                   const char *rowsep, long nrowsep, char *out, long *holes)
{
    char sep_pad[32] = {0}, rowsep_pad[32] = {0};
    memcpy(sep_pad, sep, nsep < 32 ? nsep : 32);
    memcpy(rowsep_pad, rowsep, nrowsep < 32 ? nrowsep : 32);
    char *o = out;
    long nh = 0, col = 0;
    for (long i = 0; i < n; i++) {
        if (i > 0) {
            if (++col == rowlen) {
                col = 0;
                o = put_sep(o, rowsep, rowsep_pad, nrowsep);
            } else {
                o = put_sep(o, sep, sep_pad, nsep);
            }
        }
        char *end = put_float(o, v[i], repr);
        if (end == NULL) {
            holes[1 + 2 * nh] = i;
            holes[2 + 2 * nh] = o - out;
            nh++;
        } else {
            o = end;
        }
    }
    holes[0] = nh;
    return o - out;
}

/* Text-to-float by exact integer arithmetic (Clinger 1990; Lemire,
 * "Number Parsing at a Gigabyte per Second", 2021). A JSON number token
 * with at most 19 significant digits is c 10^q for an integer
 * c < 10^19 < 2^64. With |q| <= 27, 5^|q| < 2^63, and the value is
 * c 5^q 2^q (q >= 0), exact in unsigned __int128, or (q < 0)
 * (c 2^sh / 5^-q) 2^(q - sh), sh chosen so that the quotient lies in
 * (2^62, 2^64), taken with a sticky bit for a nonzero remainder, 9 or more
 * bits below the rounding bit. Either is rounded once to the nearest
 * double, ties to even. Zero needs no arithmetic. Every other token is
 * declined, and with it the whole array. */

/* The leading zero bits of m > 0. */
static int clz128(u128 m)
{
    uint64_t hi = (uint64_t)(m >> 64);
    return hi != 0 ? __builtin_clzll(hi) : 64 + __builtin_clzll((uint64_t)m);
}

/* The double nearest m 2^e, ties to even, its sign bit neg; m > 0 and the
 * value in the normal range. */
static double round_double(u128 m, int e, int neg)
{
    int len = 128 - clz128(m);
    uint64_t mant;
    if (len <= 53) {
        mant = (uint64_t)m << (53 - len);
        e -= 53 - len;
    } else {
        int sh = len - 53;
        u128 rem = m & (((u128)1 << sh) - 1), half = (u128)1 << (sh - 1);
        mant = (uint64_t)(m >> sh);
        mant += rem > half || (rem == half && (mant & 1));
        e += sh;
        if (mant >> 53) {  /* rounded up to 2^53 */
            mant >>= 1;
            e++;
        }
    }
    /* mant in [2^52, 2^53): the biased exponent of mant 2^e is e + 1075. */
    uint64_t bits = (uint64_t)neg << 63 | (uint64_t)(e + 1075) << 52
                    | (mant & ((1ULL << 52) - 1));
    double v;
    memcpy(&v, &bits, sizeof v);
    return v;
}

static inline int is_digit(char c)
{
    return (unsigned char)(c - '0') < 10;
}

/* Append the digits at s[i..len) to *c (modulo 2^64) and return their
 * end. */
static inline long read_digits(const char *s, long len, long i, uint64_t *c)
{
    for (; i < len && is_digit(s[i]); i++)
        *c = 10 * *c + (uint64_t)(s[i] - '0');
    return i;
}

static inline long skip_ws(const char *s, long len, long i)
{
    while (i < len && (s[i] == ' ' || s[i] == '\n' || s[i] == '\r' || s[i] == '\t'))
        i++;
    return i;
}

/* Read the JSON number token at s[i..len) into *v and return its end, or
 * -1 where none starts at i or it has more than 19 significant digits or
 * an exponent q outside [-27, 27]. An integer token (no fraction, no
 * exponent) is read as Python's float(int(token)), so -0 gives +0.0, any
 * other as float(token). */
static inline long read_number(const char *s, long len, long i, double *v)
{
    int neg = i < len && s[i] == '-';
    i += neg;
    if (i >= len || !is_digit(s[i]))
        return -1;
    uint64_t c = 0;
    long digits = 0, q = 0;  /* c holds the significant digits, modulo 2^64 */
    int integer = 1;
    if (s[i] == '0') {
        i++;
    } else {
        long first = i;
        i = read_digits(s, len, i, &c);
        digits = i - first;
    }
    if (i < len && s[i] == '.') {
        long point = ++i;
        integer = 0;
        if (c == 0)  /* leading zeros only move the exponent */
            while (i < len && s[i] == '0')
                i++;
        long first = i;
        i = read_digits(s, len, i, &c);
        if (i == point)
            return -1;
        digits += i - first;
        q = point - i;
    }
    if (i < len && (s[i] == 'e' || s[i] == 'E')) {
        integer = 0;
        i++;
        int eneg = i < len && s[i] == '-';
        i += i < len && (s[i] == '-' || s[i] == '+');
        long first = i, x = 0;
        for (; i < len && is_digit(s[i]); i++)
            if (x < 100000)
                x = 10 * x + (s[i] - '0');
        if (i == first)
            return -1;
        q += eneg ? -x : x;
    }
    if (digits == 0) {
        *v = neg && !integer ? -0.0 : 0.0;
    } else if (digits > 19 || q < -27 || q > 27) {
        return -1;
    } else if (q >= 0) {
        *v = round_double((u128)c * POW5[q], (int)q, neg);
    } else {
        /* c 2^sh / 5^-q lies in (2^62, 2^64): one 128-by-64-bit division,
         * with a sticky bit for a nonzero remainder. */
        uint64_t p5 = POW5[-q];
        int sh = 63 + __builtin_clzll(c) - __builtin_clzll(p5);
        u128 num = (u128)c << sh;
        uint64_t quot = (uint64_t)(num / p5);
        *v = round_double((u128)quot | (num != (u128)quot * p5), (int)q - sh, neg);
    }
    return i;
}

/* Read the list of numbers "[" ws (number ws ("," ws number ws)*)? "]" at
 * s[i..len) into out[*n..cap), advancing *n, and return its end, or -1. */
static inline long read_row(const char *s, long len, long i, long cap, double *out, long *n)
{
    if (i >= len || s[i] != '[')
        return -1;
    i = skip_ws(s, len, i + 1);
    if (i < len && s[i] == ']')
        return i + 1;
    for (long k = *n;; k++) {
        if (k == cap || (i = read_number(s, len, i, out + k)) < 0)
            return -1;
        i = skip_ws(s, len, i);
        if (i < len && s[i] == ',') {
            i = skip_ws(s, len, i + 1);
        } else if (i < len && s[i] == ']') {
            *n = k + 1;
            return i + 1;
        } else {
            return -1;
        }
    }
}

/* Read the JSON array at s[start..len) that holds numbers, or lists of
 * numbers of one length, into out (at most cap values, in C order) and
 * return the offset just past it, or -1 for an array outside this grammar
 * (any other value, nesting deeper than 2, rows of unequal lengths, a
 * syntax error), of more than cap values, or with a token read_number
 * declines. info gets (1, n, 0) or (2, rows, cols). No byte at or past
 * s[len] is read. */
long parse_floats(const char *s, long len, long start, long cap, double *out, long *info)
{
    long n = 0, i = skip_ws(s, len, start + 1);
    if (start >= len || s[start] != '[')
        return -1;
    if (i >= len || s[i] != '[') {  /* numbers, or none */
        i = read_row(s, len, start, cap, out, &n);
        info[0] = 1;
        info[1] = n;
        info[2] = 0;
        return i;
    }
    for (long rows = 1, cols = 0;; rows++) {  /* rows of numbers */
        long n0 = n;
        i = read_row(s, len, i, cap, out, &n);
        if (i < 0 || (rows > 1 && n - n0 != cols))
            return -1;
        cols = n - n0;
        info[0] = 2;
        info[1] = rows;
        info[2] = cols;
        i = skip_ws(s, len, i);
        if (i < len && s[i] == ',')
            i = skip_ws(s, len, i + 1);
        else
            return i < len && s[i] == ']' ? i + 1 : -1;
    }
}
