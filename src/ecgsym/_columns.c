/* The given columns of the non-blank rows of UTF-8 text, as float64, in a
 * sweep over the bytes and one pass over the rows; a row of only spaces and
 * tabs is blank. Rows end at '\n'. Fields split on one delimiter byte, or
 * on runs of spaces and tabs when the delimiter is -1, as str.split cuts a
 * stripped row: with a space or tab delimiter the row's leading and
 * trailing spaces and tabs go first.
 *
 * sweep() first reads the whole text a word of eight bytes at a time. It
 * refuses a control byte other than '\t' and '\n' and, where the split is on
 * whitespace or on a space or tab, a non-ASCII byte (either may be
 * whitespace to str.split or str.strip), and it counts the '\n's, which
 * bounds the rows. Every byte lies in some row, so this refuses just the
 * texts that a check of each row would.
 *
 * A field is read only when it must give what Python's float() gives: it
 * matches [ \t]*[+-]?(D+(.D*)?|.D+)([eE][+-]?D+)?[ \t]* over ASCII digits D
 * and its value is finite. Such a field is m * 10^q for an integer m, and
 * one of three routes rounds m * 10^q correctly:
 *  - m <= 2^53 and |q| <= 22: both m and 10^|q| are doubles, so one
 *    multiply or divide does (Clinger's fast path, "How to Read Floating
 *    Point Numbers Accurately", PLDI 1990);
 *  - else m < 2^64 (at most 19 digits) and |q| <= 22: m * 5^q, or m shifted
 *    left over 5^-q with the remainder kept as a sticky bit, is rounded to
 *    53 bits in 128-bit integers, half to even, and scaled by a power of two
 *    (scaled());
 *  - else strtod, which must end where the match ends (so a locale whose
 *    decimal point is not '.' reads nothing).
 * float() rounds correctly too, so they agree bit for bit. Every other row
 * is refused whole: one short of a column or, with fields > 0, one not of
 * exactly that many fields. Python's row loop then reads the text and names
 * the bad row.
 *
 * parse_columns() takes only a text that sweep() accepts. It fills
 * out[r * k + j] with column columns[j] of the r-th non-blank row and
 * returns the row count, or -1 when a row is refused or there are more than
 * capacity rows. text[size] must be readable, as the NUL that ends a Python
 * bytes object is, since strtod looks one byte past a number. */
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

static int blank(char c) { return c == ' ' || c == '\t'; }
static int digit(char c) { return c >= '0' && c <= '9'; }

#define ONES 0x0101010101010101ULL
#define HIGH 0x8080808080808080ULL

/* 0x80 in each byte of w that equals c, 0 in every other */
static uint64_t equal(uint64_t w, unsigned char c)
{
    uint64_t x = w ^ (ONES * c);
    return ~(((x & ~HIGH) + ~HIGH) | x) & HIGH;
}

/* The count of '\n' in text[0, size), or -1 when it holds a refused byte. */
long sweep(const char *text, long size, int delimiter)
{
    /* where only ASCII is taken, the bit that every other byte sets */
    const uint64_t wide = delimiter < 0 || blank(delimiter) ? HIGH : 0;
    uint64_t w, bad = 0;
    long i, newlines = 0;
    for (i = 0; i < size; i += 8) {
        uint64_t lines;
        if (size - i >= 8) {
            memcpy(&w, text + i, 8);
        } else {  /* the last bytes, padded with spaces */
            w = ONES * ' ';
            memcpy(&w, text + i, size - i);
        }
        lines = equal(w, '\n');
        /* a byte below 0x20 has no high bit before or after adding 0x60 */
        bad |= ~(((w & ~HIGH) + ONES * 0x60) | w) & HIGH & ~lines & ~equal(w, '\t');
        bad |= w & wide;
        newlines += (lines >> 7) * ONES >> 56;  /* the eight 0-or-1 lanes, summed in the top byte */
    }
    return bad ? -1 : newlines;
}

static const double tens[] = {1e0,  1e1,  1e2,  1e3,  1e4,  1e5,  1e6,  1e7,
                              1e8,  1e9,  1e10, 1e11, 1e12, 1e13, 1e14, 1e15,
                              1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};

#ifdef __SIZEOF_INT128__
typedef unsigned __int128 u128;

static const uint64_t fives[] = {
    1ULL, 5ULL, 25ULL, 125ULL, 625ULL, 3125ULL, 15625ULL, 78125ULL, 390625ULL, 1953125ULL,
    9765625ULL, 48828125ULL, 244140625ULL, 1220703125ULL, 6103515625ULL, 30517578125ULL,
    152587890625ULL, 762939453125ULL, 3814697265625ULL, 19073486328125ULL, 95367431640625ULL,
    476837158203125ULL, 2384185791015625ULL};

/* m * 10^q to the nearest double, ties to even, for 0 < m < 2^64 and
 * |q| <= 22: 10^q = 5^q * 2^q, and m * 5^q is exact in 128 bits; for q < 0,
 * m is shifted to 63 bits more than 5^-q has, so the quotient fits in 64
 * bits, with at least 63, and the remainder is the sticky bit */
static double scaled(uint64_t m, long q)
{
    u128 x;
    long e = q;
    int bits, sticky = 0;
    if (q >= 0) {
        x = (u128)m * fives[q];
    } else {
        int shift = __builtin_clzll(m) + 63 - __builtin_clzll(fives[-q]);
        u128 top = (u128)m << shift;
        x = top / fives[-q];
        sticky = top != x * fives[-q];
        e -= shift;
    }
    bits = (uint64_t)(x >> 64) ? 128 - __builtin_clzll((uint64_t)(x >> 64)) : 64 - __builtin_clzll((uint64_t)x);
    if (bits > 53) {
        int cut = bits - 53;
        u128 rest = x & (((u128)1 << cut) - 1), half = (u128)1 << (cut - 1);
        x >>= cut;
        e += cut;
        /* a carry to 2^53 is still exact */
        x += rest > half || (rest == half && (sticky || (x & 1)));
    }
    return ldexp((double)(uint64_t)x, (int)e);
}
#endif

/* The value of the field [s, end) into *value; 0 when the field is refused. */
static int number(const char *s, const char *end, double *value)
{
    const char *p, *stop;
    char *e;
    double v;
    uint64_t m = 0;  /* the digits read, while below 10^19 */
    long digits = 0, q = 0, exponent = 0;
    int exact = 1, negative;  /* exact: m holds every digit, then also |q| <= 22 */
    while (s < end && blank(*s))
        s++;
    negative = s < end && *s == '-';
    p = s + (s < end && (*s == '+' || *s == '-'));
    for (; p < end && digit(*p); p++, digits++)
        if (m < 1000000000000000000ULL)
            m = 10 * m + (*p - '0');
        else
            exact = 0;
    if (p < end && *p == '.') {
        for (p++; p < end && digit(*p); p++, digits++)
            if (m < 1000000000000000000ULL)
                m = 10 * m + (*p - '0'), q--;
            else
                exact = 0;
    }
    if (!digits)
        return 0;
    if (p < end && (*p == 'e' || *p == 'E')) {
        int minus = 0;
        if (++p < end && (*p == '+' || *p == '-'))
            minus = *p++ == '-';
        if (p == end || !digit(*p))
            return 0;
        for (; p < end && digit(*p); p++)
            if (exponent < 100000)
                exponent = 10 * exponent + (*p - '0');
        q += minus ? -exponent : exponent;
    }
    for (stop = p; p < end && blank(*p); p++)
        ;
    if (p != end)
        return 0;
    exact = exact && q >= -22 && q <= 22;
    /* with excess precision the multiply or divide could round twice */
    if (exact && FLT_EVAL_METHOD == 0 && m <= 1ULL << 53)
        v = q < 0 ? m / tens[-q] : m * tens[q];
#ifdef __SIZEOF_INT128__
    else if (exact && m)
        v = scaled(m, q);
#endif
    else {
        *value = strtod(s, &e);
        return e == stop && isfinite(*value);
    }
    *value = negative ? -v : v;
    return 1;
}

/* Reads field number `field`, [p, end), into each slot of the row whose column it is. */
static int take(const char *p, const char *end, long field, const long *columns, long k, double *row)
{
    long j;
    for (j = 0; j < k; j++)
        if (columns[j] == field && !number(p, end, &row[j]))
            return 0;
    return 1;
}

long parse_columns(const char *text, long size, int delimiter, const long *columns, long k,
                   long fields, double *out, long capacity)
{
    const char *row, *eol, *first, *p, *end, *stop = text + size;
    long j, field, rows = 0, need = 0;
    for (j = 0; j < k; j++) {
        if (columns[j] < 0)
            return -1;
        if (columns[j] >= need)
            need = columns[j] + 1;
    }
    for (row = text; row < stop; row = eol + 1) {
        if (!(eol = memchr(row, '\n', stop - row)))
            eol = stop;
        for (first = row; first < eol && blank(*first); first++)
            ;
        if (first == eol)
            continue;
        if (rows == capacity)
            return -1;
        field = 0;
        if (delimiter < 0) {
            for (p = first;; p = end, field++) {
                while (p < eol && blank(*p))
                    p++;
                if (p == eol)
                    break;
                for (end = p; end < eol && !blank(*end); end++)
                    ;
                if (!take(p, end, field, columns, k, out + rows * k))
                    return -1;
            }
        } else {
            const char *last = eol;
            if (blank(delimiter)) {  /* the row is not blank, so some byte stays */
                while (blank(last[-1]))
                    last--;
            } else {
                first = row;
            }
            /* a row of n delimiters has n + 1 fields, the last maybe empty */
            for (p = first;; p = end + 1) {
                if (!(end = memchr(p, delimiter, last - p)))
                    end = last;
                if (!take(p, end, field++, columns, k, out + rows * k))
                    return -1;
                if (end == last)
                    break;
            }
        }
        if (field < need || (fields > 0 && field != fields))
            return -1;
        rows++;
    }
    return rows;
}
