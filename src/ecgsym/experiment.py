"""End-to-end experiment orchestration.

Ingests labeled records as one (N, L) stack of segments, filters it with
the compensated band-pass, encodes, extracts entropy and complexity and
evaluates the class overlap once per scheme in a grid, and ranks schemes
by ascending per-element overlap (lower = better). Also provides a
synthetic Gaussian-cluster generator for validating the overlap metric
without signal data.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from .distribution import DistributionReport, LabeledFeatureSet, evaluate_distribution
from .encoding import SLOPE, THRESHOLD, EncoderSpec, check_zero_tol, encode
from .features import extract_features, min_valid_length
from .filtering import (
    DEFAULT_SAMPLE_RATE,
    PaddingPlan,
    Signal,
    compensation_plan,
    filter_compensated,
    make_bandpass,
)
from .records import (
    DEFAULT_SEGMENT_LENGTH,
    read_binary_record,
    read_label_sidecar,
    read_text_signal,
    load_labeled_segments,
)

BINARY_DEVIATIONS = (Fraction(-1, 10), Fraction(-1, 20), Fraction(1, 20), Fraction(1, 10))
TERNARY_DEVIATIONS = (
    Fraction(1, 8),
    Fraction(1, 10),
    Fraction(1, 12),
    Fraction(1, 14),
    Fraction(1, 16),
    Fraction(1, 20),
)
DEFAULT_PAD = 65


def default_encoder_grid() -> list[EncoderSpec]:
    """Both slope schemes plus the stock deviation grids for thresholds."""
    grid = [EncoderSpec(SLOPE, 2), EncoderSpec(SLOPE, 3)]
    grid += [EncoderSpec(THRESHOLD, 2, float(e)) for e in BINARY_DEVIATIONS]
    grid += [EncoderSpec(THRESHOLD, 3, float(e)) for e in TERNARY_DEVIATIONS]
    return grid


def parse_fraction(text: str) -> float:
    """Parse '1/12', '-0.05' or '3' into a float."""
    try:
        return float(Fraction(text))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def parse_encoder_line(line: str) -> EncoderSpec:
    """Parse a grid line: 'slope binary' or 'threshold ternary 1/12'."""
    tokens = line.split()
    if not 2 <= len(tokens) <= 3:
        raise ValueError(f"grid line needs method, alphabet and optional deviation: {line!r}")
    alphabet = {"binary": 2, "2": 2, "ternary": 3, "3": 3}.get(tokens[1].lower())
    if alphabet is None:
        raise ValueError(f"unknown alphabet {tokens[1]!r} in grid line {line!r}")
    try:
        deviation = parse_fraction(tokens[2]) if len(tokens) == 3 else None
        return EncoderSpec(tokens[0].lower(), alphabet, deviation)
    except ValueError as exc:
        raise ValueError(f"{exc} in grid line {line!r}") from None


def parse_grid_file(path) -> list[EncoderSpec]:
    grid = []
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if line:
                grid.append(parse_encoder_line(line))
    if not grid:
        raise ValueError(f"{path}: empty encoder grid")
    return grid


def load_config_file(path, keys=None) -> dict[str, str]:
    """Read a flat 'key = value' configuration file.

    With ``keys`` given, a key outside it raises with its row number; a
    repeated key raises with both row numbers.
    """
    values: dict[str, str] = {}
    rows: dict[str, int] = {}
    with open(path) as fh:
        for row_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}: row {row_no} is not 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            if keys is not None and key not in keys:
                raise ValueError(f"{path}: row {row_no}: unknown key {key!r}")
            if key in rows:
                raise ValueError(f"{path}: row {row_no}: key {key!r} repeats row {rows[key]}")
            rows[key] = row_no
            values[key] = value.strip()
    return values


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a full pipeline run needs.

    Input is either labeled records (``record_paths`` + ``sidecar``) or
    precomputed feature files (``feature_files`` of label,entropy,
    complexity rows); the encoder grid applies only to record input.
    """

    record_paths: tuple[str, ...] = ()
    sidecar: str | None = None
    feature_files: tuple[str, ...] = ()
    record_format: str = "text"
    channel: int = 0
    column: int = 0
    delimiter: str | None = None
    skip_header: bool = False
    signal_count: int = 2
    sample_rate: float = DEFAULT_SAMPLE_RATE
    segment_length: int = DEFAULT_SEGMENT_LENGTH
    stride: int | None = None
    apply_filtering: bool = True
    pad_lead: int = DEFAULT_PAD
    pad_trail: int = DEFAULT_PAD
    encoders: tuple[EncoderSpec, ...] = field(default_factory=lambda: tuple(default_encoder_grid()))
    zero_tol: float = 0.0
    mode: str = "forall"
    out_dir: str | None = None

    def __post_init__(self):
        if self.feature_files:
            if self.record_paths:
                raise ValueError("give either record paths or feature files, not both")
        else:
            if not self.record_paths:
                raise ValueError("no input: need record paths or feature files")
            if self.sidecar is None:
                raise ValueError("record input requires a label sidecar")
            if not self.encoders:
                raise ValueError("encoder grid is empty")
            if self.record_format == "text" and self.channel != 0:
                raise ValueError(f"text records have one channel (0), not {self.channel}")
        if self.record_format not in ("text", "212"):
            raise ValueError("record_format must be 'text' or '212'")
        if self.channel < 0:
            raise ValueError("channel must be non-negative")
        if self.signal_count < 1:
            raise ValueError("signal_count must be at least 1")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if self.segment_length < 1:
            raise ValueError("segment length must be at least 1")
        if self.stride is not None and self.stride < 1:
            raise ValueError("stride must be at least 1")
        plan = PaddingPlan(self.pad_lead, self.pad_trail)
        if self.apply_filtering and not self.feature_files:
            compensation_plan(make_bandpass(), self.sample_rate, plan)
        check_zero_tol(self.zero_tol)
        if self.mode not in ("forall", "exists"):
            raise ValueError("mode must be 'forall' or 'exists'")


@dataclass(eq=False)
class EncoderRun:
    """Result of one grid entry: per-segment feature rows, in segment order,
    and the report."""

    label: str
    rows: list[tuple[str, float, float]]
    report: DistributionReport


@dataclass(eq=False)
class ExperimentResult:
    entries: list[EncoderRun]
    ranking: list[int]
    class_counts: dict[str, int]
    skipped_windows: int = 0
    dropped_partials: int = 0

    @property
    def best(self) -> EncoderRun:
        return self.entries[self.ranking[0]]


def rank_entries(entries: list[EncoderRun]) -> list[int]:
    """Indices sorted by ascending per-element overlap, grid order on ties."""
    return sorted(range(len(entries)), key=lambda i: entries[i].report.overlap_per_element)


def load_features_csv(path, skip_header: bool = False):
    """Read label,entropy,complexity rows; returns (labels, points)."""
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


def make_clusters(centers, per_class, spread=0.05, seed: int = 0, names=None) -> LabeledFeatureSet:
    """Isotropic Gaussian clusters at given centers, deterministic per seed."""
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    m = centers.shape[0]
    if m < 2:
        raise ValueError("need at least two cluster centers")
    if not np.isfinite(centers).all():
        raise ValueError("cluster centers must be finite")
    sizes = np.broadcast_to(np.asarray(per_class, dtype=int), (m,))
    spreads = np.broadcast_to(np.asarray(spread, dtype=float), (m,))
    if (sizes < 1).any():
        raise ValueError("per_class must be at least 1")
    if not (np.isfinite(spreads) & (spreads >= 0)).all():
        raise ValueError("spread must be finite and non-negative")
    if names is None:
        names = [f"C{i + 1}" for i in range(m)]
    elif len(names) != m:
        raise ValueError("need one name per center")
    rng = np.random.default_rng(seed)
    classes = {}
    for name, center, size, sigma in zip(names, centers, sizes, spreads):
        classes[str(name)] = center + rng.normal(0.0, sigma, size=(int(size), centers.shape[1]))
    return LabeledFeatureSet(classes)


def _feature_set(rows) -> LabeledFeatureSet:
    return LabeledFeatureSet.from_rows([r[0] for r in rows], [r[1:] for r in rows])


def _read_record_signal(path: str, config: ExperimentConfig) -> Signal:
    if config.record_format == "212":
        channels = read_binary_record(path, config.signal_count, config.sample_rate)
        if config.channel >= len(channels):
            raise ValueError(f"{path}: no channel {config.channel}")
        return channels[config.channel]
    return read_text_signal(
        path,
        column=config.column,
        delimiter=config.delimiter,
        skip_header=config.skip_header,
        sample_rate=config.sample_rate,
    )


def _check_grid_lengths(config: ExperimentConfig) -> None:
    for spec in config.encoders:
        produced = config.segment_length - (1 if spec.method == SLOPE else 0)
        bound = min_valid_length(spec.alphabet_size)
        if produced < bound:
            raise ValueError(
                f"grid entry {spec.label}: segment length {config.segment_length} yields "
                f"sequences of length {produced}, below the minimum valid length {bound} "
                f"for alphabet size {spec.alphabet_size}"
            )


def _ingest(config: ExperimentConfig):
    signals = {}
    for path in config.record_paths:
        record_id = Path(path).stem
        if record_id in signals:
            raise ValueError(f"duplicate record id {record_id!r}")
        signals[record_id] = _read_record_signal(path, config)
    spans = read_label_sidecar(config.sidecar)
    segments, skipped, dropped = load_labeled_segments(
        signals, spans, config.segment_length, config.stride
    )
    if not segments:
        if not spans:
            raise ValueError(f"no labeled segments: sidecar {config.sidecar} holds no label spans")
        raise ValueError(
            f"no labeled segments: the {len(spans)} label span(s) of sidecar {config.sidecar} "
            f"cover none of the {skipped} windows cut"
        )
    present = set(segments.labels)
    for label in sorted({s.label for s in spans}):
        if label not in present:
            raise ValueError(f"class {label!r} ended up empty after ingestion")
    return segments, skipped, dropped


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Execute the configured pipeline and rank the grid entries.

    With feature-file input the encoding stage is bypassed and a single
    entry labeled 'precomputed' is produced.
    """
    if config.feature_files:
        rows = []
        for path in config.feature_files:
            labels, points = load_features_csv(path, config.skip_header)
            rows += [(label, h, c) for label, (h, c) in zip(labels, points)]
        report = evaluate_distribution(_feature_set(rows), config.mode)
        entries = [EncoderRun("precomputed", rows, report)]
        skipped = dropped = 0
    else:
        _check_grid_lengths(config)
        segments, skipped, dropped = _ingest(config)
        signal = Signal(segments.samples, config.sample_rate)
        if config.apply_filtering:
            plan = PaddingPlan(config.pad_lead, config.pad_trail)
            signal = filter_compensated(make_bandpass(), signal, plan)
        entries = []
        for spec in config.encoders:
            fv = extract_features(encode(signal, spec, config.zero_tol))
            rows = list(zip(segments.labels, fv.h_norm.tolist(), fv.c_norm.tolist()))
            report = evaluate_distribution(_feature_set(rows), config.mode)
            entries.append(EncoderRun(spec.label, rows, report))
    counts = dict(Counter(label for label, _, _ in entries[0].rows))
    result = ExperimentResult(entries, rank_entries(entries), counts, skipped, dropped)
    if config.out_dir is not None:
        write_reports(result.entries, config.out_dir)
        emit_plot_data(result.entries, config.out_dir)
    return result


@dataclass(frozen=True)
class PairRow:
    """Best grid entry for one class pair, by per-element overlap."""

    first: str
    second: str
    encoder: str
    overlap_per_element: float


def pairwise_table(result: ExperimentResult, pairs, mode: str = "forall") -> list[PairRow]:
    """Best encoder per class pair over the already-computed features."""
    datasets = [(entry.label, _feature_set(entry.rows)) for entry in result.entries]
    table = []
    for first, second in pairs:
        best_label, best_value = None, None
        for label, dataset in datasets:
            value = evaluate_distribution(dataset.subset([first, second]), mode).overlap_per_element
            if best_value is None or value < best_value:
                best_label, best_value = label, value
        table.append(PairRow(first, second, best_label, best_value))
    return table


def pair_table_text(table: list[PairRow]) -> str:
    lines = [f"{'pair':<24} {'encoder':<28} {'overlap_per_element':>20}"]
    for row in table:
        lines.append(
            f"{row.first + ' vs ' + row.second:<24} {row.encoder:<28} {row.overlap_per_element:>20.6f}"
        )
    return "\n".join(lines) + "\n"


def _slug(label: str) -> str:
    return "".join(c if c.isalnum() or c in "-." else "_" for c in label)


def write_reports(entries: list[EncoderRun], out_dir) -> list[Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, entry in enumerate(entries):
        path = out / f"report_{i:02d}_{_slug(entry.label)}.txt"
        path.write_text(f"encoder = {entry.label}\n" + entry.report.to_text())
        paths.append(path)
    return paths


def emit_plot_data(entries: list[EncoderRun], out_dir) -> list[Path]:
    """Write per-encoder scatter files and the ranked summary table; a label
    with a comma or a newline, which would break the rows, raises first."""
    for label in {label for entry in entries for label, _, _ in entry.rows}:
        if any(c in label for c in ",\r\n"):
            raise ValueError(f"label {label!r} contains a comma or a newline")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, entry in enumerate(entries):
        path = out / f"scatter_{i:02d}_{_slug(entry.label)}.csv"
        lines = ["label,entropy,complexity"]
        lines += [f"{label},{h!r},{c!r}" for label, h, c in entry.rows]
        path.write_text("\n".join(lines) + "\n")
        paths.append(path)
    summary = out / "summary.csv"
    lines = ["rank,encoder,total_overlap,overlap_per_element,overlap_per_class,mode"]
    for rank, idx in enumerate(rank_entries(entries), start=1):
        rep = entries[idx].report
        lines.append(
            f"{rank},{entries[idx].label},{rep.total_overlap},"
            f"{rep.overlap_per_element!r},{rep.overlap_per_class!r},{rep.mode}"
        )
    summary.write_text("\n".join(lines) + "\n")
    paths.append(summary)
    return paths
