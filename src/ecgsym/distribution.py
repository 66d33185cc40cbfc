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


@dataclass(eq=False)
class LabeledFeatureSet:
    """Named classes of points, each a (n_i, d) array with n_i >= 1."""

    classes: dict[str, np.ndarray]

    def __post_init__(self):
        converted = {}
        dim = None
        for name, pts in self.classes.items():
            arr = np.atleast_2d(np.asarray(pts, dtype=float))
            if arr.shape[0] == 0:
                raise ValueError(f"empty class {name!r}")
            if dim is None:
                dim = arr.shape[1]
            elif arr.shape[1] != dim:
                raise ValueError("classes must share one feature dimension")
            converted[name] = arr
        if not converted:
            raise ValueError("no classes given")
        self.classes = converted

    @classmethod
    def from_rows(cls, labels, points) -> "LabeledFeatureSet":
        """Group (label, point) rows, preserving first-appearance order."""
        labels = list(map(str, labels))
        points = np.asarray(points, dtype=float)
        if len(points) != len(labels):
            raise ValueError(f"{len(labels)} labels for {len(points)} points")
        index = {name: i for i, name in enumerate(dict.fromkeys(labels))}
        codes = np.fromiter(map(index.__getitem__, labels), dtype=np.intp, count=len(labels))
        order = np.argsort(codes, kind="stable")
        grouped = np.split(points[order], np.cumsum(np.bincount(codes))[:-1])
        return cls(dict(zip(index, grouped)))

    def subset(self, names) -> "LabeledFeatureSet":
        missing = [n for n in names if n not in self.classes]
        if missing:
            raise ValueError(f"unknown class name(s): {', '.join(missing)}")
        return LabeledFeatureSet({n: self.classes[n] for n in names})

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self.classes)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(v) for v in self.classes.values())

    @property
    def total(self) -> int:
        return sum(self.sizes)


def centroid(points) -> np.ndarray:
    """Component-wise mean of a non-empty point collection."""
    arr = np.atleast_2d(np.asarray(points, dtype=float))
    if arr.shape[0] == 0:
        raise ValueError("empty class")
    return arr.mean(axis=0)


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")


def _at_least_as_far(dataset: LabeledFeatureSet) -> tuple[np.ndarray, np.ndarray]:
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


def _overlap_counts(dataset: LabeledFeatureSet, mode: str) -> np.ndarray:
    """Overlapped elements per class.

    In "forall" mode an element counts when its own-centroid distance is
    >= its distance to every other centroid; in "exists" mode one other
    centroid at most as far away suffices.
    """
    _check_mode(mode)
    if len(dataset.classes) < 2:
        raise ValueError("need at least two classes")
    cond, own = _at_least_as_far(dataset)
    if mode == "forall":
        hits = (cond | own).all(axis=1)
    else:
        hits = (cond & ~own).any(axis=1)
    return own[hits].sum(axis=0)


def pair_overlap_counts(dataset: LabeledFeatureSet) -> np.ndarray:
    """(m, m) counts from one distance table: [a, b] is the number of
    class-a elements at least as far from their own centroid as from
    class b's.

    With classes a and b alone, b's centroid is the only other one, so in
    either mode the pair's overlap is [a, b] + [b, a]. Its centroids and
    distances are those of ``dataset.subset([a, b])``, so the counts are too.
    """
    cond, _ = _at_least_as_far(dataset)
    bounds = np.cumsum(dataset.sizes)[:-1]
    return np.stack([block.sum(axis=0) for block in np.split(cond, bounds)])


@dataclass(frozen=True)
class DistributionReport:
    """Per-class and aggregate overlap of a labeled dataset.

    ``overlap_per_element`` is the total overlap divided by the number of
    elements; ``overlap_per_class`` is the mean of the per-class overlap
    fractions. The two coincide exactly when all classes have the same
    number of elements.
    """

    class_names: tuple[str, ...]
    class_sizes: tuple[int, ...]
    class_overlaps: tuple[int, ...]
    class_overlap_fractions: tuple[float, ...]
    total_overlap: int
    overlap_per_element: float
    overlap_per_class: float
    mode: str

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


def report_from_counts(names, sizes, overlaps, mode: str = "forall") -> DistributionReport:
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
    )


def evaluate_distribution(dataset: LabeledFeatureSet, mode: str = "forall") -> DistributionReport:
    """Compute the overlap report of a labeled dataset."""
    return report_from_counts(dataset.names, dataset.sizes, _overlap_counts(dataset, mode), mode)
