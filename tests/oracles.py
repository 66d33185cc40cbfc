"""Independent reference implementations used to freeze expected values.

Kept deliberately naive and structurally different from the library code
so they can serve as oracles: phrase parsing by literal reproducibility
scans over tuples, entropy by counter arithmetic, overlap counting by
plain loops, symbols by one comparison per sample, and text files read
one row per loop step. Two exceptions to "naive": :func:`lz_count_resumed`,
the one-symbol-a-step resumed-match parse, fast enough for full-length
encoded rows; and :func:`at_least_as_far`, the library's earlier (N, m)
distance table, built a centroid column at a time, kept as it was to
check the table that replaced it on tie-heavy data.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from ecgsym.distribution import centroid


def lz_phrases(symbols) -> list[tuple]:
    """Exhaustive left-to-right parsing, returned as the phrase list.

    A phrase is extended while the candidate word occurs somewhere in the
    sequence ending strictly before the word's last position; the first
    failing extension closes the phrase. The trailing remainder forms the
    final phrase whether or not it was closed.
    """
    s = tuple(int(v) for v in symbols)
    n = len(s)
    if n == 0:
        raise ValueError("empty sequence")
    phrases = []
    m = 0
    while m < n:
        k = 1
        while m + k < n:
            w = s[m : m + k]
            if any(s[q : q + k] == w for q in range(m)):
                k += 1
            else:
                break
        phrases.append(s[m : m + k])
        m += k
    return phrases


def lz_count(symbols) -> int:
    return len(lz_phrases(symbols))


def lz_count_resumed(s: bytes) -> int:
    """Phrase count of :func:`lz_phrases`, by extending the earliest copy
    one symbol per step and resuming ``bytes.find`` past it on a mismatch."""
    n = len(s)
    if n == 0:
        raise ValueError("empty sequence")
    count, m, k, p = 1, 1, 1, 0
    while m + k <= n:
        if s[p + k - 1] == s[m + k - 1]:
            k += 1
            continue
        p = s.find(s[m : m + k], p + 1, m + k - 1)
        if p != -1:
            k += 1
        else:
            count += 1
            m += k
            k, p = 1, 0
    if k > 1:
        count += 1
    return count


def encode_symbols(rows, method, alphabet_size, deviation=None, zero_tol=0.0) -> list[list[int]]:
    """Symbols of each row of ``rows``, one comparison per step or sample.

    Slope compares each step ``b - a`` with -/+``zero_tol``. Threshold
    takes the row's level from ``np.mean`` and ``np.ptp``: binary compares
    each sample with mean + deviation * range, ternary with mean -/+
    deviation * range (a closed band).
    """
    out = []
    for row in np.atleast_2d(np.asarray(rows, dtype=float)).tolist():
        if method == "slope":
            values = [b - a for a, b in zip(row, row[1:])]
            low, high = -zero_tol, zero_tol
        else:
            mean, spread = float(np.mean(row)), deviation * float(np.ptp(row))
            values, low, high = row, mean - spread, mean + spread
            if alphabet_size == 2:
                low = high
        symbols = []
        for v in values:
            if alphabet_size == 2:
                symbols.append(1 if v >= low else 0)
            else:
                symbols.append(1 if v > high else -1 if v < low else 0)
        out.append(symbols)
    return out


def entropy_bits(symbols) -> float:
    counts = Counter(int(v) for v in symbols)
    n = sum(counts.values())
    return -sum((c / n) * math.log2(c / n) for c in counts.values())


def overlap_counts(classes: dict, mode: str = "forall") -> dict:
    """Per-class overlap by plain loops over elements and centroids."""
    centroids = {}
    for name, pts in classes.items():
        dim = len(pts[0])
        centroids[name] = [sum(p[i] for p in pts) / len(pts) for i in range(dim)]

    def dist(p, q):
        return math.sqrt(sum((a - b) ** 2 for a, b in zip(p, q)))

    result = {}
    for name, pts in classes.items():
        count = 0
        for p in pts:
            own = dist(p, centroids[name])
            others = [dist(p, centroids[h]) for h in classes if h != name]
            if mode == "forall":
                hit = all(own >= d for d in others)
            else:
                hit = any(own >= d for d in others)
            count += int(hit)
        result[name] = count
    return result


def at_least_as_far(dataset) -> tuple[np.ndarray, np.ndarray]:
    """Two (N, m) masks over the elements, class after class: [i, j] of the
    first is whether element i lies at least as far from its own class
    centroid as from class j's, taken from one table of every element's
    distance to every centroid; the second marks each element's own class.
    """
    classes = list(dataset.classes.values())
    points = np.concatenate(classes)
    dists = np.empty((len(points), len(classes)))
    # one centroid column at a time: no (N, m, d) difference array is held
    for j, pts in enumerate(classes):
        diff = points - centroid(pts)
        dists[:, j] = np.sqrt((diff * diff).sum(axis=1))
    own = np.repeat(np.eye(len(classes), dtype=bool), dataset.sizes, axis=0)
    return dists[own][:, None] >= dists, own


def read_text_column(path, column: int = 0, delimiter=None, skip_header: bool = False) -> list:
    """One column of a delimited text file, a row per loop step; raises
    naming the 1-based row of the first bad one."""
    values = []
    with open(path) as fh:
        for row_no, line in enumerate(fh, start=1):
            if skip_header and row_no == 1:
                continue
            line = line.strip()
            if not line:
                continue
            parts = line.split(delimiter) if delimiter else line.split()
            if column >= len(parts):
                raise ValueError(f"{path}: row {row_no} has no column {column}")
            try:
                value = float(parts[column])
            except ValueError:
                raise ValueError(
                    f"{path}: row {row_no} column {column} is not a number: {parts[column]!r}"
                ) from None
            if not math.isfinite(value):
                raise ValueError(
                    f"{path}: row {row_no} column {column} is not finite: {parts[column]!r}"
                )
            values.append(value)
    if not values:
        raise ValueError(f"{path}: no samples in column {column}")
    return values


def read_feature_rows(path, skip_header: bool = False) -> tuple[list, list]:
    """label,entropy,complexity rows, a row per loop step, as (labels,
    points); raises naming the 1-based row of the first bad one."""
    labels, points = [], []
    with open(path) as fh:
        for row_no, raw in enumerate(fh, start=1):
            if skip_header and row_no == 1:
                continue
            line = raw.strip()
            if not line:
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != 3:
                raise ValueError(f"{path}: row {row_no} needs 3 fields, got {len(parts)}")
            for column in (1, 2):  # the first field float() rejects
                try:
                    float(parts[column])
                except ValueError:
                    raise ValueError(
                        f"{path}: row {row_no} column {column} is not a number: {parts[column]!r}"
                    ) from None
            point = (float(parts[1]), float(parts[2]))
            if not (math.isfinite(point[0]) and math.isfinite(point[1])):
                column = 1 if not math.isfinite(point[0]) else 2
                raise ValueError(
                    f"{path}: row {row_no} column {column} is not finite: {parts[column]!r}"
                )
            points.append(point)
            labels.append(parts[0])
    if not labels:
        raise ValueError(f"{path}: no feature rows")
    return labels, points
