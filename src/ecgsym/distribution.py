"""Centroid-based dispersion of labeled point classes.

For each element the distance to its own class centroid is compared with
the distances to every other class centroid; elements at least as far
from home as from another class count toward the class overlap. Lower
aggregate overlap means better-separated classes.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np

MODES = ("forall", "exists")
_LONG = np.dtype(ctypes.c_long)  # the kernel's integer type


def code_labels(labels) -> tuple[np.ndarray, tuple[str, ...]]:
    """Each label's class code as an (N,) intp array, and the class names:
    the distinct ``str(label)`` values in first-appearance order."""
    labels = list(map(str, labels))
    index = {name: i for i, name in enumerate(dict.fromkeys(labels))}
    codes = np.fromiter(map(index.__getitem__, labels), dtype=np.intp, count=len(labels))
    return codes, tuple(index)


class LabeledFeatureSet:
    """Named classes of finite points, held as one (N, d) array sorted by
    class: class ``names[i]`` is the block of ``sizes[i]`` rows of
    ``points`` that starts at row ``starts[i]``.

    Built from a dict of non-empty (n_i, d) point collections, from
    (label, point) rows with :meth:`from_rows`, or from class codes and
    names with :meth:`from_codes`.
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
        """Group (label, point) rows, classes in first-appearance order and
        rows in order within each: :func:`code_labels`, then :meth:`from_codes`."""
        return cls.from_codes(*code_labels(labels), points)

    @classmethod
    def from_codes(cls, codes, names, points) -> "LabeledFeatureSet":
        """Group rows by class code, row i being of class ``names[codes[i]]``,
        by one stable sort: classes in the order of ``names``, rows in order
        within each; a name no row uses is left out."""
        codes = np.asarray(codes, dtype=np.intp)
        points = np.asarray(points, dtype=float)
        if points.ndim != 2:
            raise ValueError("points must be one (N, d) array, a row per label")
        if len(points) != len(codes):
            raise ValueError(f"{len(codes)} labels for {len(points)} points")
        if not len(codes):
            raise ValueError("no classes given")
        names = tuple(map(str, names))
        if len(set(names)) != len(names):
            raise ValueError("class names repeat")
        if codes.min() < 0 or codes.max() >= len(names):
            raise ValueError(f"class codes must lie in [0, {len(names)})")
        sizes = np.bincount(codes, minlength=len(names))
        used = np.flatnonzero(sizes).tolist()
        points = points.take(np.argsort(codes, kind="stable"), axis=0)
        dataset = cls.__new__(cls)
        dataset._hold(tuple(names[i] for i in used), tuple(sizes[used].tolist()), points)
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


@lru_cache(maxsize=None)
def _overlap_kernel():
    """``overlap`` of ``_overlap.c``, built at the first call (:func:`_native.build`), or None."""
    from ._native import build

    c_long, c_void_p = ctypes.c_long, ctypes.c_void_p
    return build(
        Path(__file__).with_name("_overlap.c"), "overlap", c_long,
        c_void_p, c_long, c_void_p, c_long, c_void_p, ctypes.c_int, c_void_p, c_void_p,
    )


def _overlap_tables(dataset: LabeledFeatureSet, mode: str) -> tuple[list[int], np.ndarray]:
    """Overlapped elements per class, and the (m, m) pair counts.

    In "forall" mode an element counts when its own-centroid distance is
    >= its distance to every other centroid; in "exists" mode one other
    centroid at most as far away suffices. [a, b] of the pair counts is the
    number of class-a elements at least as far from their own centroid as
    from class b's.

    The centroids are :func:`centroid`'s. The compiled kernel of
    ``_overlap.c`` (:func:`_overlap_kernel`) then takes one element at a
    time, so no distance table is held. Where it cannot be built, an (m, N)
    table of every element's distance to every centroid, a contiguous row
    per centroid, gives the same counts: both compute each distance as the
    sqrt of 0.0 plus the squared coordinate differences in order.
    """
    _check_mode(mode)
    if len(dataset.names) < 2:
        raise ValueError("need at least two classes")
    points = np.ascontiguousarray(dataset.points, dtype=float)
    blocks = list(zip(dataset.starts.tolist(), np.cumsum(dataset.sizes).tolist()))
    centroids = np.array([centroid(points[lo:hi]) for lo, hi in blocks])
    kernel = _overlap_kernel()
    if kernel is not None:
        m = len(blocks)
        ends = np.array([hi for _, hi in blocks], dtype=_LONG)
        hits, pairs = np.zeros(m, dtype=_LONG), np.zeros((m, m), dtype=_LONG)
        args = points.ctypes.data, points.shape[1], ends.ctypes.data, m, centroids.ctypes.data, mode == "forall"
        if kernel(*args, hits.ctypes.data, pairs.ctypes.data) == 0:
            return hits.tolist(), pairs
    dists = np.zeros((len(blocks), len(points)))
    own = np.empty(len(points))
    # a square past the float range is inf, as in the kernel, and as silent
    with np.errstate(over="ignore"):
        for j, (lo, hi) in enumerate(blocks):
            # a coordinate at a time, so every temporary is one (N,) row
            for column, c in zip(points.T, centroids[j]):
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
