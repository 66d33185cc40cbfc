"""End-to-end experiment orchestration.

Ingests labeled records as one (N, L) stack of segments, filters it with
the compensated band-pass, encodes, extracts entropy and complexity and
evaluates the class overlap once per scheme in a grid, and ranks schemes
by ascending per-element overlap (lower = better). Also provides a
synthetic Gaussian-cluster generator for validating the overlap metric
without signal data.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from pathlib import Path

import numpy as np

from .distribution import DistributionReport, LabeledFeatureSet, code_labels, evaluate_distribution
from .encoding import SLOPE, THRESHOLD, EncoderSpec, check_zero_tol, encode
from .features import extract_features, min_valid_length
from .filtering import (
    DEFAULT_SAMPLE_RATE,
    Signal,
    compensation_plan,
    filter_compensated,
    make_bandpass,
)
from .records import (
    DEFAULT_SEGMENT_LENGTH,
    check_column,
    numbered_rows,
    parse_columns,
    parse_rows,
    read_binary_record,
    read_label_sidecar,
    read_rows,
    read_text_signal,
    load_labeled_segments,
    write_text,
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
    """One encoder per grid line; ``#`` starts a comment anywhere in a row."""
    grid = []
    for row_no, line in numbered_rows(*read_rows(path)):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            grid.append(parse_encoder_line(line))
        except ValueError as exc:
            raise ValueError(f"{path}: row {row_no}: {exc}") from None
    if not grid:
        raise ValueError(f"{path}: empty encoder grid")
    return grid


def load_config_file(path, keys=None) -> dict[str, str]:
    """Read a flat 'key = value' file; ``#`` starts a comment anywhere in a row.

    With ``keys`` given, a key outside it raises with its row number; a
    repeated key raises with both row numbers.
    """
    values: dict[str, str] = {}
    rows: dict[str, int] = {}
    for row_no, line in numbered_rows(*read_rows(path)):
        line = line.split("#", 1)[0].strip()
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


# the fields that say how records are read, cut, filtered and encoded, in field order
_RECORD_ONLY = (
    "sidecar", "format", "channel", "column", "delimiter", "signal_count",
    "sample_rate", "segment_length", "stride", "filter", "grid", "zero_tol",
)
# the fields that each record format never reads
_UNREAD = {"text": ("signal_count",), "212": ("column", "delimiter", "skip_header")}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a full pipeline run needs.

    Input is either labeled records (``records`` + ``sidecar``) or
    precomputed feature files (``features`` of label,entropy,complexity
    rows); with feature files every record-only field must keep its
    default, since none of them would apply, and so must each field that
    the record format never reads. Each field is named after the
    ``run``/``pairs`` flag that sets it, which is also its config-file key
    for every field but ``features``.
    """

    records: tuple[str, ...] = ()
    sidecar: str | None = None
    features: tuple[str, ...] = ()
    format: str = "text"
    channel: int = 0
    column: int = 0
    delimiter: str | None = None
    skip_header: bool = False
    signal_count: int = 2
    sample_rate: float = DEFAULT_SAMPLE_RATE
    segment_length: int = DEFAULT_SEGMENT_LENGTH
    stride: int | None = None
    filter: bool = True
    grid: tuple[EncoderSpec, ...] = tuple(default_encoder_grid())
    zero_tol: float = 0.0
    mode: str = "forall"
    out: str | None = None

    def __post_init__(self):
        defaults = {f.name: f.default for f in fields(self)}
        changed = lambda names: [name for name in names if getattr(self, name) != defaults[name]]
        if self.features:
            if self.records:
                raise ValueError("give either record paths or feature files, not both")
            unused = changed(_RECORD_ONLY)
            if unused:
                raise ValueError(f"feature files take no record settings: {', '.join(unused)}")
        else:
            if not self.records:
                raise ValueError("no input: need record paths or feature files")
            if self.sidecar is None:
                raise ValueError("record input requires a label sidecar")
            if not self.grid:
                raise ValueError("encoder grid is empty")
            if self.format == "text" and self.channel != 0:
                raise ValueError(f"text records have one channel (0), not {self.channel}")
            unread = changed(_UNREAD.get(self.format, ()))
            if unread:
                raise ValueError(f"{self.format} records take no {', '.join(unread)}")
        if self.format not in ("text", "212"):
            raise ValueError("format must be 'text' or '212'")
        if self.channel < 0:
            raise ValueError("channel must be non-negative")
        check_column(self.column)
        if self.signal_count < 1:
            raise ValueError("signal_count must be at least 1")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if self.segment_length < 1:
            raise ValueError("segment length must be at least 1")
        if self.stride is not None and self.stride < 1:
            raise ValueError("stride must be at least 1")
        if self.filter and not self.features:  # a rate with no alignment shift raises
            compensation_plan(make_bandpass(), self.sample_rate)
        check_zero_tol(self.zero_tol)
        if self.mode not in ("forall", "exists"):
            raise ValueError("mode must be 'forall' or 'exists'")


@dataclass(eq=False)
class EncoderRun:
    """Result of one grid entry: each segment's class code into ``names``
    and (entropy, complexity) point in segment order, and the report with
    its pair counts."""

    label: str
    codes: np.ndarray
    names: tuple[str, ...]
    points: np.ndarray
    report: DistributionReport

    @property
    def labels(self) -> list[str]:
        """Each segment's label, in segment order."""
        return np.array(self.names, dtype=object)[self.codes].tolist()


def evaluate_entry(label: str, codes, names, points, mode: str = "forall") -> EncoderRun:
    """Group one entry's points by class code once and evaluate the overlap."""
    report = evaluate_distribution(LabeledFeatureSet.from_codes(codes, names, points), mode)
    return EncoderRun(label, codes, names, points, report)


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
    """Read label,entropy,complexity rows; returns (codes, names, points):
    row i has label ``names[codes[i]]`` (names in first-appearance order)
    and point ``points[i]`` of an (N, 2) array.

    Both numeric columns are parsed in one pass (:func:`parse_columns`).
    Where it succeeds with two commas a row, a file whose rows all hold
    the first row's raw label is one class; any other codes each row's
    label, stripped. Otherwise the rows are read one at a time, to name
    the first bad row or to take a literal that numpy rejects.
    """
    text, first = read_rows(path, skip_header)
    points = parse_columns(text, (1, 2), ",")
    # numpy parsed two columns of each row and skips only empty rows
    if points is not None and text.count(",") == 2 * len(points):
        head = text[: text.index(",")]  # each match below starts a later row labeled head
        if "\n" not in head and text.count(f"\n{head},") == len(points) - 1:
            return np.zeros(len(points), dtype=np.intp), (head.strip(),), points
        labels = (row[: row.index(",")].strip() for row in text.split("\n") if row)
        return (*code_labels(labels), points)
    rows, points = parse_rows(path, text, first, (1, 2), ",", fields=3)
    if not rows:
        raise ValueError(f"{path}: no feature rows")
    return (*code_labels(row[0] for row in rows), points)


def make_clusters(centers, per_class, spread=0.05, seed: int = 0, names=None) -> LabeledFeatureSet:
    """Isotropic Gaussian clusters at given centers, deterministic per seed."""
    if len({np.shape(center) for center in centers}) > 1:
        raise ValueError("cluster centers differ in their number of coordinates")
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
    for name, center, size, sigma in zip(map(str, names), centers, sizes, spreads):
        if name in classes:
            raise ValueError(f"class name {name!r} repeated")
        classes[name] = center + rng.normal(0.0, sigma, size=(int(size), centers.shape[1]))
    return LabeledFeatureSet(classes)


def _read_record_signal(path: str, config: ExperimentConfig) -> Signal:
    if config.format == "212":
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
    for spec in config.grid:
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
    for path in config.records:
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
    if config.features:
        labels, codes, points = [], [], []
        for path in config.features:
            file_codes, names, file_points = load_features_csv(path, config.skip_header)
            codes.append(file_codes + len(labels))
            labels += names
            points.append(file_points)
        # each file's few names are coded once into the run's classes
        remap, names = code_labels(labels)
        codes = remap[np.concatenate(codes)]
        entries = [evaluate_entry("precomputed", codes, names, np.concatenate(points), config.mode)]
        skipped = dropped = 0
    else:
        _check_grid_lengths(config)
        segments, skipped, dropped = _ingest(config)
        signal = Signal(segments.samples, config.sample_rate)
        if config.filter:
            bandpass = make_bandpass()
            # the plan is passed, not defaulted: perfbench's filter span reads its pad lengths
            signal = filter_compensated(bandpass, signal, compensation_plan(bandpass, config.sample_rate)[0])
        codes, names = code_labels(segments.labels)
        entries = []
        for spec in config.grid:
            fv = extract_features(encode(signal, spec, config.zero_tol))
            points = np.column_stack((fv.h_norm, fv.c_norm))
            entries.append(evaluate_entry(spec.label, codes, names, points, config.mode))
    counts = dict(zip(entries[0].report.class_names, entries[0].report.class_sizes))
    result = ExperimentResult(entries, rank_entries(entries), counts, skipped, dropped)
    if config.out is not None:
        emit_plot_data(result, config.out)
    return result


@dataclass(frozen=True)
class PairRow:
    """Best grid entry for one class pair, by per-element overlap."""

    first: str
    second: str
    encoder: str
    overlap_per_element: float


def pairwise_table(result: ExperimentResult, pairs) -> list[PairRow]:
    """Best encoder per class pair over the already-computed features.

    Every entry of a result shares its classes, so the pairs are checked
    once. Every pair is read from the pair counts of each entry's report,
    which come from the one distance table its evaluation built; a pair's
    value is bit for bit the per-element overlap of its two classes
    evaluated alone, which is the same in "forall" and "exists" mode.
    """
    pairs = list(pairs)
    index = {name: i for i, name in enumerate(result.entries[0].report.class_names)}
    for first, second in pairs:
        missing = [name for name in (first, second) if name not in index]
        if missing:
            raise ValueError(f"unknown class name(s): {', '.join(missing)}")
        if first == second:
            raise ValueError(f"pair {first!r} vs {second!r} names one class twice")
    best: list[tuple[str | None, float | None]] = [(None, None)] * len(pairs)
    for entry in result.entries:
        counts, sizes = entry.report.pair_counts, entry.report.class_sizes
        for k, (first, second) in enumerate(pairs):
            a, b = index[first], index[second]
            value = float(Fraction(counts[a][b] + counts[b][a], sizes[a] + sizes[b]))
            if best[k][1] is None or value < best[k][1]:
                best[k] = (entry.label, value)
    return [PairRow(a, b, label, value) for (a, b), (label, value) in zip(pairs, best)]


def overlap_table_text(head: str, width: int, rows) -> str:
    """(key, encoder, overlap_per_element) rows under a header; the key and
    encoder columns fit their longest entry, and are at least ``width`` and 28 wide."""
    rows = [(head, "encoder", "overlap_per_element"), *((str(k), e, f"{v:.6f}") for k, e, v in rows)]
    w0, w1 = (max(least, *(len(row[c]) for row in rows)) for c, least in enumerate((width, 28)))
    return "".join(f"{k:<{w0}} {e:<{w1}} {v:>20}\n" for k, e, v in rows)


def pair_table_text(table: list[PairRow]) -> str:
    rows = ((f"{r.first} vs {r.second}", r.encoder, r.overlap_per_element) for r in table)
    return overlap_table_text("pair", 24, rows)


def _slug(label: str) -> str:
    return "".join(c if c.isalnum() or c in "-." else "_" for c in label)


def check_label(name: str) -> None:
    """Raise unless a label,entropy,complexity row holds ``name`` and
    :func:`load_features_csv`, which strips each label, reads it back as it is."""
    if any(c in name for c in ",\r\n"):
        raise ValueError(f"label {name!r} contains a comma or a newline")
    if name != name.strip():
        raise ValueError(f"label {name!r} has leading or trailing whitespace")
    if any("\ud800" <= c <= "\udfff" for c in name):  # a surrogate: UTF-8 cannot encode it
        raise ValueError(f"label {name!r} cannot be written as UTF-8")


def features_csv_text(names, codes, points) -> str:
    """The label,entropy,complexity rows that :func:`load_features_csv`
    reads back, row i labeled ``names[codes[i]]``; raises on a name it
    would not read back as it is (:func:`check_label`)."""
    for name in names:
        check_label(name)
    labels = np.array(names, dtype=object)[codes].tolist()
    lines = ["label,entropy,complexity"]
    lines += [f"{label},{h!r},{c!r}" for label, (h, c) in zip(labels, points.tolist())]
    return "\n".join(lines) + "\n"


def emit_plot_data(result: ExperimentResult, out_dir) -> list[Path]:
    """Write each entry's report and scatter file and the summary table in
    ``result.ranking`` order; every file's text is made, and so every class
    name checked, before the first is written."""
    out, files = Path(out_dir), {}
    for i, entry in enumerate(result.entries):
        stem = f"{i:02d}_{_slug(entry.label)}"
        files[out / f"report_{stem}.txt"] = f"encoder = {entry.label}\n" + entry.report.to_text()
        files[out / f"scatter_{stem}.csv"] = features_csv_text(entry.names, entry.codes, entry.points)
    lines = ["rank,encoder,total_overlap,overlap_per_element,overlap_per_class,mode"]
    for rank, idx in enumerate(result.ranking, start=1):
        label, rep = result.entries[idx].label, result.entries[idx].report
        lines.append(f"{rank},{label},{rep.total_overlap},{rep.overlap_per_element!r},"
                     f"{rep.overlap_per_class!r},{rep.mode}")
    files[out / "summary.csv"] = "\n".join(lines) + "\n"
    return [write_text(path, text) for path, text in files.items()]
