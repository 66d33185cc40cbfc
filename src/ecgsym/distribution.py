"""Centroid-based dispersion of labeled point classes.

For each element the distance to its own class centroid is compared with
the distances to every other class centroid; elements at least as far
from home as from another class count toward the class overlap. Lower
aggregate overlap means better-separated classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

MODES = ("forall", "exists")


class LabeledFeatureSet:
    """Named classes of finite points, held as one (N, d) array sorted by
    class: class ``names[i]`` is the block of ``sizes[i]`` rows of
    ``points`` that starts at row ``starts[i]``.

    Built from a dict of non-empty (n_i, d) point collections, or from
    (label, point) rows with :meth:`from_rows`.
    """

    def __init__(self, classes: dict):
        if not classes:
            raise ValueError("no classes given")
        blocks = [np.atleast_2d(np.asarray(pts, dtype=float)) for pts in classes.values()]
        for name, block in zip(classes, blocks):
            if block.shape[0] == 0:
                raise ValueError(f"empty class {name!r}")
        if len({block.shape[1] for block in blocks}) > 1:
            raise ValueError("classes must share one feature dimension")
        self._hold(tuple(classes), tuple(map(len, blocks)), np.concatenate(blocks))

    def _hold(self, names, sizes, points) -> None:
        self.names, self.sizes, self.points = names, sizes, points
        self.starts = np.cumsum((0,) + sizes[:-1])
        if not np.isfinite(points).all():
            row = np.flatnonzero(~np.isfinite(points))[0] // points.shape[1]
            name = names[np.searchsorted(self.starts, row, side="right") - 1]
            raise ValueError(f"class {name!r} has a non-finite point")

    @classmethod
    def from_rows(cls, labels, points) -> "LabeledFeatureSet":
        """Group (label, point) rows by one stable sort, preserving
        first-appearance order of the classes and row order within each."""
        labels = list(map(str, labels))
        points = np.asarray(points, dtype=float)
        if len(points) != len(labels):
            raise ValueError(f"{len(labels)} labels for {len(points)} points")
        if not labels:
            raise ValueError("no classes given")
        index = {name: i for i, name in enumerate(dict.fromkeys(labels))}
        codes = np.fromiter(map(index.__getitem__, labels), dtype=np.intp, count=len(labels))
        order = np.argsort(codes, kind="stable")
        dataset = cls.__new__(cls)
        dataset._hold(tuple(index), tuple(np.bincount(codes).tolist()), points.take(order, axis=0))
        return dataset

    @property
    def classes(self) -> dict[str, np.ndarray]:
        """Each class's block of ``points`` (a view), by name."""
        return dict(zip(self.names, np.split(self.points, self.starts[1:])))

    @property
    def total(self) -> int:
        return len(self.points)


def centroid(points) -> np.ndarray:
    """Component-wise mean of a non-empty point collection."""
    arr = np.atleast_2d(np.asarray(points, dtype=float))
    if arr.shape[0] == 0:
        raise ValueError("empty class")
    return arr.mean(axis=0)


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")


def _overlap_tables(dataset: LabeledFeatureSet, mode: str) -> tuple[list[int], np.ndarray]:
    """Overlapped elements per class, and the (m, m) pair counts.

    Both come from one (m, N) table of every element's distance to every
    class centroid, a contiguous row per centroid. In "forall" mode an
    element counts when its own-centroid distance is >= its distance to
    every other centroid; in "exists" mode one other centroid at most as
    far away suffices. [a, b] of the pair counts is the number of class-a
    elements at least as far from their own centroid as from class b's.
    """
    _check_mode(mode)
    if len(dataset.names) < 2:
        raise ValueError("need at least two classes")
    points = dataset.points
    blocks = list(zip(dataset.starts.tolist(), np.cumsum(dataset.sizes).tolist()))
    dists = np.zeros((len(blocks), len(points)))
    own = np.empty(len(points))
    for j, (lo, hi) in enumerate(blocks):
        # a coordinate at a time, so every temporary is one (N,) row
        for column, c in zip(points.T, centroid(points[lo:hi])):
            diff = column - c
            diff *= diff
            dists[j] += diff
        np.sqrt(dists[j], out=dists[j])
        own[lo:hi] = dists[j, lo:hi]
    cond = own >= dists
    pairs = np.stack([np.count_nonzero(cond[:, lo:hi], axis=1) for lo, hi in blocks])
    if mode == "forall":
        # an element's own entry compares its distance with itself
        hits = cond.all(axis=0)
    else:
        for j, (lo, hi) in enumerate(blocks):
            cond[j, lo:hi] = False
        hits = cond.any(axis=0)
    return [np.count_nonzero(hits[lo:hi]) for lo, hi in blocks], pairs


@dataclass(frozen=True)
class DistributionReport:
    """Per-class and aggregate overlap of a labeled dataset.

    ``overlap_per_element`` is the total overlap divided by the number of
    elements; ``overlap_per_class`` is the mean of the per-class overlap
    fractions. The two coincide exactly when all classes have the same
    number of elements.

    ``pair_counts[a][b]`` is the number of class-a elements at least as
    far from their own centroid as from class b's (empty when the report
    is built from counts alone). With classes a and b alone, b's centroid
    is the only other one, so in either mode the pair's overlap is
    ``[a][b] + [b][a]``.
    """

    class_names: tuple[str, ...]
    class_sizes: tuple[int, ...]
    class_overlaps: tuple[int, ...]
    class_overlap_fractions: tuple[float, ...]
    total_overlap: int
    overlap_per_element: float
    overlap_per_class: float
    mode: str
    pair_counts: tuple[tuple[int, ...], ...] = ()

    def to_text(self) -> str:
        lines = [
            f"mode = {self.mode}",
            f"classes = {len(self.class_names)}",
            f"elements = {sum(self.class_sizes)}",
            f"total_overlap = {self.total_overlap}",
            f"overlap_per_element = {self.overlap_per_element:.6f}",
            f"overlap_per_class = {self.overlap_per_class:.6f}",
            "",
            f"{'class':<16} {'size':>6} {'overlap':>8} {'fraction':>10}",
        ]
        for name, size, lam, frac in zip(
            self.class_names, self.class_sizes, self.class_overlaps, self.class_overlap_fractions
        ):
            lines.append(f"{name:<16} {size:>6} {lam:>8} {frac:>10.6f}")
        return "\n".join(lines) + "\n"


def report_from_counts(
    names, sizes, overlaps, mode: str = "forall", pair_counts=()
) -> DistributionReport:
    """Aggregate per-class overlap counts into a report.

    Aggregates are accumulated as exact rationals before conversion to
    float, so equal class sizes give identical per-element and per-class
    values bit for bit.
    """
    _check_mode(mode)
    names = tuple(str(n) for n in names)
    sizes = tuple(int(s) for s in sizes)
    overlaps = tuple(int(v) for v in overlaps)
    if not len(names) == len(sizes) == len(overlaps):
        raise ValueError("names, sizes and overlaps must have equal length")
    for size, lam in zip(sizes, overlaps):
        if size < 1:
            raise ValueError("class sizes must be positive")
        if not 0 <= lam <= size:
            raise ValueError("overlap counts must lie in [0, class size]")
    fractions = [Fraction(lam, size) for lam, size in zip(overlaps, sizes)]
    total = sum(overlaps)
    n_total = sum(sizes)
    return DistributionReport(
        class_names=names,
        class_sizes=sizes,
        class_overlaps=overlaps,
        class_overlap_fractions=tuple(float(f) for f in fractions),
        total_overlap=total,
        overlap_per_element=float(Fraction(total, n_total)),
        overlap_per_class=float(sum(fractions, Fraction(0)) / len(names)),
        mode=mode,
        pair_counts=tuple(tuple(int(v) for v in row) for row in pair_counts),
    )


def evaluate_distribution(dataset: LabeledFeatureSet, mode: str = "forall") -> DistributionReport:
    """Compute the overlap report of a labeled dataset, pair counts included."""
    overlaps, pairs = _overlap_tables(dataset, mode)
    return report_from_counts(dataset.names, dataset.sizes, overlaps, mode, pairs)
