"""Workload inputs, command lines and output checks.

Inputs are generated here from the workload seed, independently of the
package under test: the benchmark writes plain files and the program
only ever sees those files. ``ecg_waves`` reproduces the two rhythm
families of ``scripts/record_pipeline_demo.build_dataset`` draw for draw,
and ``write_clusters`` reproduces ``ecgsym.experiment.make_clusters``;
``test_bench.py`` checks both equivalences at the pinned seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

FS = 360.0
SEGMENT = 720
PINNED_SEED = 0
EXPECTED = json.loads(Path(__file__).with_name("expected.json").read_text())

# grid212 and stream_text share the waveforms; 25 windows per class keeps a
# 12-encoder invocation under a second, so one run collects enough calls for
# a tail percentile with ten samples beyond it.
WINDOWS_PER_CLASS = 25
STREAM_STRIDE = SEGMENT // 4
STREAM_GRID = "threshold ternary 1/12\n"
# windows covered by each span and skipped before it: 56 + 41 = 97 windows of
# one record at the stream stride, so 112 of 194 windows are labeled
SPAN_WINDOWS = [1, 2, 3, 4, 5, 6, 7] * 2
GAP_WINDOWS = [2, 3, 4] * 4 + [2, 3]
CLUSTER_CLASSES = 8
CLUSTER_POINTS = 3000
CLUSTER_SPREAD = 0.08


class CheckError(Exception):
    """An invocation's output disagrees with what the inputs imply."""


@dataclass
class Inputs:
    """Generated files plus what the benchmark knows about them."""

    argv: list[str]
    out_dir: Path | None = None
    segments: int = 0
    class_names: list[str] = field(default_factory=list)


def ecg_waves(windows_per_class: int, seed: int) -> dict[str, np.ndarray]:
    """Integer ADC samples of the 'steady' and 'erratic' rhythm families."""
    rng = np.random.default_rng(seed)
    n = SEGMENT * windows_per_class
    t = np.arange(n) / FS
    steady = 400 * np.sin(2 * math.pi * 8.0 * t) + rng.normal(0, 60.0, n)
    erratic = np.concatenate(
        [
            400
            * rng.uniform(0.4, 1.0)
            * np.sin(2 * math.pi * 8.0 * t[:SEGMENT] + rng.uniform(0, 2 * math.pi))
            + rng.normal(0, 180.0, SEGMENT)
            for _ in range(windows_per_class)
        ]
    )
    return {
        name: np.rint(wave).astype(int).clip(-2048, 2047)
        for name, wave in (("steady_rec", steady), ("erratic_rec", erratic))
    }


def pack212(channel0: np.ndarray) -> bytes:
    """Format-212 bytes of ``channel0`` interleaved with an all-zero channel."""
    first = np.where(channel0 < 0, channel0 + 4096, channel0).astype(np.uint16)
    out = np.zeros((first.size, 3), dtype=np.uint8)
    out[:, 0] = first & 0xFF
    out[:, 1] = (first >> 8) & 0x0F
    return out.tobytes()


def label_of(record_id: str) -> str:
    return record_id.removesuffix("_rec")


def write_grid212(work: Path, seed: int) -> Inputs:
    waves = ecg_waves(WINDOWS_PER_CLASS, seed)
    paths = []
    for name, samples in waves.items():
        path = work / f"{name}.dat"
        path.write_bytes(pack212(samples))
        paths.append(str(path))
    n = SEGMENT * WINDOWS_PER_CLASS
    sidecar = work / "labels.csv"
    sidecar.write_text("".join(f"{name},0,{n},{label_of(name)}\n" for name in waves))
    out = work / "out"
    argv = ["run", *paths, "--sidecar", str(sidecar), "--format", "212", "--out", str(out)]
    return Inputs(argv, out, 2 * WINDOWS_PER_CLASS, [label_of(k) for k in waves])


def short_spans(n: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Spans labeling a fixed number of stream windows, in seeded order.

    Each span covers exactly ``c`` windows of the stream stride plus less
    than one stride of slack on either side, and each gap skips ``g``
    windows; the seed shuffles the ``c`` and ``g`` sequences, so every seed
    labels the same number of windows in different places.
    """
    covers, gaps = rng.permutation(SPAN_WINDOWS), rng.permutation(GAP_WINDOWS)
    spans, window = [], 0
    for c, g in zip(covers.tolist(), gaps.tolist()):
        window += g
        lead, trail = rng.integers(0, STREAM_STRIDE, size=2).tolist()
        start = max(0, window * STREAM_STRIDE - lead)
        end = min(n, (window + c - 1) * STREAM_STRIDE + SEGMENT + trail)
        spans.append((start, end))
        window += c
    return spans


def labeled_windows(n: int, spans: list[tuple[int, int]]) -> int:
    """Windows of the stream stride that lie wholly inside one span."""
    starts = range(0, n - SEGMENT + 1, STREAM_STRIDE)
    return sum(any(a <= s and s + SEGMENT <= b for a, b in spans) for s in starts)


def write_stream_text(work: Path, seed: int) -> Inputs:
    waves = ecg_waves(WINDOWS_PER_CLASS, seed)
    rng = np.random.default_rng([seed, 1])
    paths, rows, segments = [], [], 0
    for name, samples in waves.items():
        path = work / f"{name}.txt"
        path.write_text("".join(f"{v}\n" for v in samples.tolist()))
        paths.append(str(path))
        spans = short_spans(samples.size, rng)
        rows += [f"{name},{a},{b},{label_of(name)}\n" for a, b in spans]
        segments += labeled_windows(samples.size, spans)
    sidecar = work / "labels.csv"
    sidecar.write_text("".join(rows))
    grid = work / "grid.txt"
    grid.write_text(STREAM_GRID)
    argv = ["run", *paths, "--sidecar", str(sidecar), "--format", "text",
            "--stride", str(STREAM_STRIDE), "--grid", str(grid)]
    return Inputs(argv, None, segments, [label_of(k) for k in waves])


def cluster_centers(m: int) -> np.ndarray:
    """Ring of ``m`` centers, as ``ecgsym synth`` lays them out."""
    angles = 2.0 * math.pi * np.arange(m) / m
    return np.stack([0.5 + 0.25 * np.cos(angles), 0.6 + 0.25 * np.sin(angles)], axis=1)


def write_clusters(work: Path, seed: int) -> Inputs:
    rng = np.random.default_rng(seed)
    names, paths = [], []
    for i, center in enumerate(cluster_centers(CLUSTER_CLASSES)):
        name = f"c{i + 1}"
        pts = center + rng.normal(0.0, CLUSTER_SPREAD, size=(CLUSTER_POINTS, 2))
        path = work / f"{name}.csv"
        path.write_text("".join(f"{name},{x!r},{y!r}\n" for x, y in pts.tolist()))
        names.append(name)
        paths.append(str(path))
    return Inputs(["pairs", "--features", *paths], None, CLUSTER_CLASSES * CLUSTER_POINTS, names)


# ---------------------------------------------------------------- checks


def _ranking(stdout: str) -> list[tuple[str, float]]:
    """(encoder, overlap_per_element) rows of the table `ecgsym run` prints."""
    rows = []
    for line in stdout.splitlines()[1:]:
        parts = line.split()
        if len(parts) == 3 and parts[0].isdigit():
            rows.append((parts[1], float(parts[2])))
    return rows


def _unit(value: float, what: str) -> None:
    if not 0.0 <= value <= 1.0:
        raise CheckError(f"{what} = {value} outside [0, 1]")


def _whole(total: float, what: str) -> int:
    """An overlap count recovered from a 6-decimal per-element value."""
    if abs(total - round(total)) > 1e-3:
        raise CheckError(f"{what}: {total} overlapped elements is not a whole number")
    return round(total)


def check_run(inputs: Inputs, stdout: str, seed: int, workload: str) -> None:
    ranking = _ranking(stdout)
    encoders = [name for name, _ in ranking]
    totals = {}
    if inputs.out_dir is None:
        if len(ranking) != 1:
            raise CheckError(f"expected one ranked encoder, got {len(ranking)}")
        for name, ope in ranking:
            _unit(ope, f"{name} overlap_per_element")
            totals[name] = _whole(ope * inputs.segments, name)
    else:
        if len(ranking) != 12:
            raise CheckError(f"expected 12 ranked encoders, got {len(ranking)}")
        summary = (inputs.out_dir / "summary.csv").read_text().splitlines()[1:]
        rows = [line.split(",") for line in summary]
        if [r[1] for r in rows] != encoders:
            raise CheckError("summary.csv order differs from the printed ranking")
        for r in rows:
            totals[r[1]] = int(r[2])
            ope = float(r[3])
            _unit(ope, f"{r[1]} overlap_per_element")
            if ope != totals[r[1]] / inputs.segments:
                raise CheckError(f"{r[1]}: overlap_per_element != total / {inputs.segments}")
        scatters = sorted(inputs.out_dir.glob("scatter_*.csv"))
        if len(scatters) != 12 or len(list(inputs.out_dir.glob("report_*.txt"))) != 12:
            raise CheckError("expected 12 scatter and 12 report files")
        for path in scatters:
            body = path.read_text().splitlines()[1:]
            if len(body) != inputs.segments:
                raise CheckError(f"{path.name}: {len(body)} rows, want {inputs.segments}")
            feats = np.array([line.split(",")[1:] for line in body], dtype=float)
            if not np.isfinite(feats).all():
                raise CheckError(f"{path.name}: non-finite features")
    if seed == PINNED_SEED:
        pinned = EXPECTED[workload]
        if encoders != pinned["ranking"]:
            raise CheckError(f"ranking {encoders} differs from pinned {pinned['ranking']}")
        if totals != pinned["total_overlap"]:
            raise CheckError(f"total_overlap {totals} differs from pinned")


def check_pairs(inputs: Inputs, stdout: str, seed: int, workload: str) -> None:
    values = {}
    for line in stdout.splitlines()[1:]:
        first, vs, second, encoder, value = line.split()
        if vs != "vs" or encoder != "precomputed":
            raise CheckError(f"unexpected pair row {line!r}")
        _unit(float(value), f"{first}:{second}")
        values[f"{first}:{second}"] = value
    names = inputs.class_names
    want = [f"{a}:{b}" for i, a in enumerate(names) for b in names[i + 1 :]]
    if list(values) != want:
        raise CheckError(f"pair rows {list(values)} are not every class pair in order")
    if seed == PINNED_SEED and values != EXPECTED[workload]["pairs"]:
        raise CheckError("per-pair overlaps differ from the pinned values")


WORKLOADS = {
    "grid212": (write_grid212, check_run),
    "stream_text": (write_stream_text, check_run),
    "pairs_csv": (write_clusters, check_pairs),
}
