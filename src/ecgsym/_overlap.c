/* The overlap counts of points sorted by class, from every point's distance
 * to every class centroid, one point at a time, so no (m, N) table of
 * distances or decisions is ever held. Class a is the rows ends[a - 1] to
 * ends[a] - 1 of the (N, d) points (from row 0 for a = 0), and row a of the
 * (m, d) centroids is its centroid.
 *
 * A distance is the sqrt of 0.0 plus (x_k - c_k)^2 added in coordinate
 * order, the arithmetic of the numpy table in distribution._overlap_tables,
 * so each decision own >= distance is the one that table makes, ties, inf
 * and nan included. That holds only where every operation rounds once to
 * double: it is compiled without FMA contraction (_native.build), and
 * returns -1 unless FLT_EVAL_METHOD is 0.
 *
 * Adds to pairs[a * m + b] each class-a point whose own distance is >= its
 * distance to centroid b, and to hits[a] each class-a point for which that
 * holds for every b (forall != 0, its own class included) or for some b
 * other than a (forall == 0). Returns 0, or -2 when no buffer is had. */
#include <float.h>
#include <math.h>
#include <stdlib.h>

long overlap(const double *points, long d, const long *ends, long m, const double *centroids, int forall,
             long *hits, long *pairs)
{
    long a, b, i, k, count;
    double *dist;
    if (FLT_EVAL_METHOD != 0)
        return -1;
    if (!(dist = malloc(m * sizeof *dist)))
        return -2;
    for (a = 0, i = 0; a < m; a++)
        for (; i < ends[a]; i++) {
            for (b = 0; b < m; b++) {
                double s = 0.0;
                for (k = 0; k < d; k++) {
                    double t = points[i * d + k] - centroids[b * d + k];
                    s += t * t;
                }
                dist[b] = sqrt(s);
            }
            /* each decision is added, not branched on: where classes
             * overlap, a branch on it mispredicts */
            for (b = 0, count = 0; b < m; b++) {
                int hit = dist[a] >= dist[b];
                pairs[a * m + b] += hit;
                count += hit & (forall || b != a);
            }
            hits[a] += forall ? count == m : count > 0;
        }
    free(dist);
    return 0;
}
