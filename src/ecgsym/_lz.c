/* Phrase count of the left-to-right exhaustive parsing (Lempel and Ziv,
 * IEEE TIT 1976) of one row of codes < 4, by an online suffix automaton of
 * the row read so far (Blumer et al., TCS 1985): the phrase that ends at
 * row[i - 1] extends by row[i] while the automaton of row[0 .. i - 1] has
 * its state for the phrase move on row[i]. Returns -1 when a code is >= 4
 * and -2 when the automaton cannot be allocated. */
#include <stdint.h>
#include <stdlib.h>

typedef struct { long next[4], len, link; } state;  /* next 0: no move */

long lz_row(const uint8_t *row, long n)
{
    long i, p, q, x, count = 0, cur = 0, last = 0, size = 1;
    state *st;
    for (i = 0; i < n; i++)
        if (row[i] > 3)
            return -1;
    /* at most 2n states: the root, one per symbol and up to n - 1 clones */
    if (n < 1 || !(st = malloc(2 * n * sizeof *st)))
        return n < 1 ? 0 : -2;
    st[0] = (state){{0}, 0, -1};
    for (i = 0; i < n; i++) {
        int c = row[i];
        if (st[cur].next[c])
            cur = st[cur].next[c];
        else  /* the phrase closes at i, and the next one opens at i + 1 */
            count++, cur = 0;
        x = size++;
        st[x] = (state){{0}, st[last].len + 1, 0};
        for (p = last; p != -1 && !st[p].next[c]; p = st[p].link)
            st[p].next[c] = x;
        if (p != -1) {  /* else c is new to the row, and x links to the root */
            q = st[p].next[c];
            if (st[p].len + 1 == st[q].len) {
                st[x].link = q;
            } else {
                /* cur is left on q even when the clone now holds its phrase:
                 * the clone has q's moves, and the next phrase check runs
                 * before the next symbol is added, so it moves alike from both */
                st[size] = st[q];
                st[size].len = st[p].len + 1;
                for (; p != -1 && st[p].next[c] == q; p = st[p].link)
                    st[p].next[c] = size;
                st[q].link = st[x].link = size++;
            }
        }
        last = x;
    }
    free(st);
    return count + (cur != 0);  /* cur is the root only while no phrase is open */
}
