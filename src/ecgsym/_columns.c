/* The given columns of the non-blank rows of UTF-8 text, as float64, in one
 * pass; a row of only spaces and tabs is blank. Rows end at '\n'. Fields
 * split on one delimiter byte, or on runs of spaces and tabs when the
 * delimiter is -1, as str.split cuts a stripped row.
 *
 * A field is read only when it must give what Python's float() gives: it
 * matches [ \t]*[+-]?(D+(.D*)?|.D+)([eE][+-]?D+)?[ \t]* over ASCII digits D
 * and its value is finite. Such a field is m * 10^q for an integer m. Where
 * m <= 2^53 and |q| <= 22, both m and 10^|q| are doubles, so one multiply
 * or divide rounds m * 10^q correctly (Clinger's fast path, "How to Read
 * Floating Point Numbers Accurately", PLDI 1990); elsewhere strtod does,
 * and must end where the match ends (so a locale whose decimal point is
 * not '.' reads nothing). float() rounds correctly too, so the two agree
 * bit for bit. Every other row is refused whole: one holding a control
 * byte other than '\t', a whitespace-split row holding a non-ASCII byte
 * (either may be a separator to str.split), a row short of a column or,
 * with fields > 0, one not of exactly that many fields. Python's row loop
 * then reads the text and names the bad row.
 *
 * Fills out[r * k + j] with column columns[j] of the r-th non-blank row and
 * returns the row count, or -1 when a row is refused or there are more than
 * capacity rows. text[size] must be readable, as the NUL that ends a Python
 * bytes object is, since strtod looks one byte past a number. */
#include <float.h>
#include <math.h>
#include <stdlib.h>
#include <string.h>

static int blank(char c) { return c == ' ' || c == '\t'; }
static int digit(char c) { return c >= '0' && c <= '9'; }

static const double tens[] = {1e0,  1e1,  1e2,  1e3,  1e4,  1e5,  1e6,  1e7,
                              1e8,  1e9,  1e10, 1e11, 1e12, 1e13, 1e14, 1e15,
                              1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};

/* The value of the field [s, end) into *value; 0 when the field is refused. */
static int number(const char *s, const char *end, double *value)
{
    const char *p, *stop;
    char *e;
    unsigned long long m = 0;  /* the digits read, while below 10^19 */
    long digits = 0, q = 0, exponent = 0;
    int exact = 1, negative;
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
    /* with excess precision the multiply or divide could round twice */
    if (FLT_EVAL_METHOD == 0 && exact && m <= 1ULL << 53 && q >= -22 && q <= 22) {
        double v = q < 0 ? m / tens[-q] : m * tens[q];
        *value = negative ? -v : v;
        return 1;
    }
    *value = strtod(s, &e);
    return e == stop && isfinite(*value);
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
    const char *row, *eol, *p, *end, *stop = text + size;
    long j, field, rows = 0, need = 0;
    for (j = 0; j < k; j++) {
        if (columns[j] < 0)
            return -1;
        if (columns[j] >= need)
            need = columns[j] + 1;
    }
    for (row = text; row < stop; row = eol + 1) {
        int seen = 0;
        if (!(eol = memchr(row, '\n', stop - row)))
            eol = stop;
        for (p = row; p < eol; p++) {
            unsigned char c = *p;
            if ((c < 0x20 && c != '\t') || (c >= 0x80 && delimiter < 0))
                return -1;
            seen |= !blank(c);
        }
        if (!seen)
            continue;
        if (rows == capacity)
            return -1;
        field = 0;
        if (delimiter < 0) {
            for (p = row;; p = end, field++) {
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
            /* a row of n delimiters has n + 1 fields, the last maybe empty */
            for (p = row;; p = end + 1) {
                if (!(end = memchr(p, delimiter, eol - p)))
                    end = eol;
                if (!take(p, end, field++, columns, k, out + rows * k))
                    return -1;
                if (end == eol)
                    break;
            }
        }
        if (field < need || (fields > 0 && field != fields))
            return -1;
        rows++;
    }
    return rows;
}
