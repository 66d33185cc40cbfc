"""Independent reference implementations used to freeze expected values.

Kept deliberately naive and structurally different from the library code
so they can serve as oracles: phrase parsing by literal reproducibility
scans over tuples, entropy by counter arithmetic, overlap counting by
plain loops, and text files read one row per loop step.
"""

from __future__ import annotations

import math
from collections import Counter


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
                raise ValueError(f"{path}: row {row_no} needs label,entropy,complexity")
            try:
                point = (float(parts[1]), float(parts[2]))
            except ValueError:
                raise ValueError(f"{path}: row {row_no} has non-numeric features") from None
            if not (math.isfinite(point[0]) and math.isfinite(point[1])):
                raise ValueError(f"{path}: row {row_no} has non-finite features")
            points.append(point)
            labels.append(parts[0])
    if not labels:
        raise ValueError(f"{path}: no feature rows")
    return labels, points
