"""Reading ECG records and cutting them into one labeled (N, L) stack.

Supports the 212-format binary packing (two 12-bit two's-complement
samples per 3-byte group) and one-sample-per-row delimited text. Segment
class labels come from a sidecar file mapping sample ranges of a record
to a label; :func:`load_labeled_segments` copies every labeled window of
every record into one array, one row per window. Every text file is read
(:func:`read_rows`) and every output file written (:func:`write_text`) here.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .filtering import DEFAULT_SAMPLE_RATE, Signal

DEFAULT_SEGMENT_LENGTH = 720


def parse_format212(data: bytes, signal_count: int = 2) -> list[np.ndarray]:
    """Unpack a 212-format byte stream into per-signal sample arrays.

    Every 3-byte group holds two samples: the low nibble of the middle
    byte extends the first byte, the high nibble extends the third.
    Values are 12-bit two's complement, so the result lies in
    [-2048, 2047]. Consecutive samples cycle through the declared
    signals in order; a stream too short to hold one sample of each
    raises before any is unpacked.
    """
    if signal_count < 1:
        raise ValueError("signal_count must be at least 1")
    if len(data) % 3 != 0:
        raise ValueError("truncated format-212 stream: length not divisible by 3")
    if 2 * len(data) // 3 < signal_count:
        raise ValueError("no samples")
    raw = np.frombuffer(data, dtype=np.uint8).reshape(-1, 3).astype(np.int32)
    first = ((raw[:, 1] & 0x0F) << 8) | raw[:, 0]
    second = ((raw[:, 1] & 0xF0) << 4) | raw[:, 2]
    samples = np.empty(2 * raw.shape[0], dtype=np.int32)
    samples[0::2] = first
    samples[1::2] = second
    samples[samples >= 2048] -= 4096
    usable = samples.size - samples.size % signal_count
    return [samples[ch:usable:signal_count].astype(np.int16) for ch in range(signal_count)]


def pack_format212(channels) -> bytes:
    """Interleave per-signal arrays and pack them as a 212-format stream.

    The total sample count must be even (the packing is pairwise); the
    inverse of :func:`parse_format212`.
    """
    arrays = [np.asarray(ch, dtype=np.int64) for ch in channels]
    length = arrays[0].size
    if any(a.size != length for a in arrays):
        raise ValueError("all channels must have equal length")
    flat = np.empty(length * len(arrays), dtype=np.int64)
    for i, arr in enumerate(arrays):
        flat[i :: len(arrays)] = arr
    if flat.size % 2 != 0:
        raise ValueError("total sample count must be even for pairwise packing")
    if flat.min() < -2048 or flat.max() > 2047:
        raise ValueError("samples out of 12-bit range")
    vals = np.where(flat < 0, flat + 4096, flat).astype(np.uint16)
    first, second = vals[0::2], vals[1::2]
    out = np.empty((first.size, 3), dtype=np.uint8)
    out[:, 0] = first & 0xFF
    out[:, 1] = ((first >> 8) & 0x0F) | (((second >> 8) & 0x0F) << 4)
    out[:, 2] = second & 0xFF
    return out.tobytes()


def read_binary_record(
    path, signal_count: int = 2, sample_rate: float = DEFAULT_SAMPLE_RATE
) -> list[Signal]:
    """Read a 212-format file into one Signal per declared channel.

    Raises naming the file when the stream is truncated or holds no
    complete sample of every channel.
    """
    data = Path(path).read_bytes()
    try:
        channels = parse_format212(data, signal_count)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return [Signal(ch.astype(float), sample_rate) for ch in channels]


def check_column(column: int) -> None:
    """Raise on a negative column, which indexing would count from a row's end."""
    if column < 0:
        raise ValueError("column must be non-negative")


def read_rows(path, skip_header: bool = False) -> tuple[str, int]:
    """The text of a file after its optional header row, and the 1-based
    number of its first row; every text input is read here, as UTF-8 with
    any leading byte-order mark dropped.

    Rows are what iterating the file yields: the text split on ``\\n``
    after universal-newline decoding (``str.splitlines`` would also split
    on ``\\x0c``, ``\\x1c`` or ``\\u2028`` and so misnumber the rows).
    """
    with open(path, encoding="utf-8-sig") as fh:
        if skip_header:
            fh.readline()
        return fh.read(), 2 if skip_header else 1


def write_text(path, text: str) -> Path:
    """Write ``text`` to ``path`` as UTF-8, making missing parent directories;
    every output file is written here. Text UTF-8 cannot hold (a lone
    surrogate) raises ValueError before anything is made."""
    data, path = text.encode(), Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    return path


def numbered_rows(text: str, first: int):
    """(row number, stripped row) of every non-blank row of ``text``."""
    for row_no, line in enumerate(text.split("\n"), start=first):
        line = line.strip()
        if line:
            yield row_no, line


@lru_cache(maxsize=None)
def _column_parser():
    """``sweep`` and ``parse_columns`` of ``_columns.c``, built at the first
    call (:func:`_native.build`), or None."""
    from ._native import build

    c_long, source = ctypes.c_long, Path(__file__).with_name("_columns.c")
    sweep = build(source, "sweep", c_long, ctypes.c_char_p, c_long, ctypes.c_int)
    parse = build(
        source, "parse_columns", c_long,
        ctypes.c_char_p, c_long, ctypes.c_int, ctypes.POINTER(c_long), c_long, c_long, ctypes.c_void_p, c_long,
    )
    return None if sweep is None or parse is None else (sweep, parse)


def parse_columns(text: str, columns: tuple[int, ...], delimiter: str | None = None, fields: int | None = None):
    """The given columns of the non-blank rows of ``text`` as an (N, k)
    float array in one compiled pass, or None when that pass refuses a row
    or finds no row.

    Rows are cut and blank rows skipped as :func:`parse_rows` does; with
    ``fields`` every row must hold exactly that many. Where the pass
    succeeds each value is what float() gives for its field, bit for bit:
    the pass reads only plain ASCII decimals (``_columns.c`` gives the
    grammar). A first sweep over the bytes, eight at a time, refuses text
    holding a control byte other than a tab and, split on whitespace, a
    space or a tab, text holding a non-ASCII byte; it counts the newlines,
    which size the array. A field of at most 19 significant digits and a
    power of ten within 10^±22 is rounded by Clinger's fast path or, above
    2^53, exactly in 128-bit integers; any other by ``strtod``. The pass is
    not tried where the delimiter is not one ASCII character or is
    whitespace other than a space or a tab, nor where ``_columns.c``
    cannot be built. On None, callers read the rows one at a time: to name
    the first bad row, or to take a literal that float() accepts and the
    pass refuses, such as ``1_0``, ``inf`` or ``0x1p3``.
    """
    parser = _column_parser()
    odd = delimiter and (len(delimiter) != 1 or not delimiter.isascii() or delimiter.isspace() and delimiter not in " \t")
    if parser is None or odd:
        return None
    sweep, parse = parser
    data, split = text.encode(), ord(delimiter) if delimiter else -1
    newlines = sweep(data, len(data), split)
    if newlines < 0:
        return None
    values = np.empty((newlines + 1, len(columns)))
    rows = parse(
        data, len(data), split, (ctypes.c_long * len(columns))(*columns),
        len(columns), fields or 0, values.ctypes.data, len(values),
    )
    return values[:rows] if rows > 0 else None


def parse_rows(path, text: str, first: int, columns: tuple[int, ...], delimiter=None, fields=None):
    """The fields of each non-blank row of ``text`` and an (N, k) float array
    of the given columns, a row at a time: the fallback of :func:`parse_columns`.
    Rows split on ``delimiter`` (whitespace when None); with ``fields`` a row
    must hold exactly that many, stripped. Raises naming the first bad row.
    """
    rows, values = [], []
    for row_no, line in numbered_rows(text, first):
        at, parts = f"{path}: row {row_no}", line.split(delimiter or None)
        if fields is not None and len(parts) != fields:
            raise ValueError(f"{at} needs {fields} fields, got {len(parts)}")
        if max(columns) >= len(parts):
            raise ValueError(f"{at} has no column {max(columns)}")
        parts = [p.strip() for p in parts] if fields else parts
        point = []
        for column in columns:
            try:
                point.append(float(parts[column]))
            except ValueError:
                bad = f"{at} column {column} is not a number: {parts[column]!r}"
                raise ValueError(bad) from None
        for column, value in zip(columns, point):
            if not math.isfinite(value):
                raise ValueError(f"{at} column {column} is not finite: {parts[column]!r}")
        rows.append(parts)
        values.append(point)
    return rows, np.array(values, dtype=float).reshape(-1, len(columns))


def read_text_signal(
    path,
    column: int = 0,
    delimiter: str | None = None,
    skip_header: bool = False,
    sample_rate: float = DEFAULT_SAMPLE_RATE,
) -> Signal:
    """Read one column of a delimited text file as a Signal.

    ``delimiter=None`` splits on any whitespace. Raises with the 1-based
    row number when a row cannot be parsed or holds nan or inf.
    """
    check_column(column)
    text, first = read_rows(path, skip_header)
    values = parse_columns(text, (column,), delimiter)
    if values is None:
        values = parse_rows(path, text, first, (column,), delimiter)[1]
        if not len(values):
            raise ValueError(f"{path}: no samples in column {column}")
    return Signal(values[:, 0], sample_rate)


@dataclass(frozen=True)
class LabelSpan:
    """Half-open sample range [start, end) of a record with a class label."""

    record_id: str
    start: int
    end: int
    label: str

    def __post_init__(self):
        if self.start < 0 or self.end <= self.start:
            raise ValueError(f"invalid span [{self.start}, {self.end}) for {self.record_id!r}")
        if not self.label:
            raise ValueError("label must be non-empty")


def read_label_sidecar(path) -> list[LabelSpan]:
    """Parse rows record_id, start_sample, end_sample, label; a row led by ``#`` is a comment."""
    spans = []
    for row_no, line in numbered_rows(*read_rows(path)):
        if line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 4:
            raise ValueError(f"{path}: row {row_no} needs 4 fields, got {len(parts)}")
        try:
            spans.append(LabelSpan(parts[0], int(parts[1]), int(parts[2]), parts[3]))
        except ValueError as exc:
            raise ValueError(f"{path}: row {row_no}: {exc}") from None
    return spans


@dataclass(eq=False)
class LabeledSegments:
    """A run's labeled windows as one (N, L) array: row i is the window of
    ``record_ids[i]`` that starts at sample ``starts[i]``, labeled ``labels[i]``."""

    samples: np.ndarray
    labels: list[str]
    record_ids: list[str]
    starts: list[int]

    def __len__(self) -> int:
        return len(self.labels)


def load_labeled_segments(
    signals: dict[str, Signal],
    spans: list[LabelSpan],
    length: int = DEFAULT_SEGMENT_LENGTH,
    stride: int | None = None,
):
    """Cut every record into windows and keep those with exactly one label.

    Windows start every ``stride`` samples (default ``length``) and must
    fit entirely inside the record. A window takes the label of a span
    that fully contains it. Windows covered by spans with different labels
    raise; windows covered by no span are skipped and counted.

    Returns
    -------
    (segments, skipped, dropped) : the labeled windows as LabeledSegments,
        in record order and by start within a record; the number of
        windows left unlabeled; and the number of records whose trailing
        samples could not fill a window.
    """
    if length < 1:
        raise ValueError("segment length must be at least 1")
    if stride is None:
        stride = length
    if stride < 1:
        raise ValueError("stride must be at least 1")
    for span in spans:
        if span.record_id not in signals:
            raise ValueError(f"sidecar references unknown record {span.record_id!r}")
    labels, record_ids, starts = [], [], []
    skipped = dropped = 0
    for record_id, signal in signals.items():
        n = len(signal)
        windows = range(0, max(n - length + 1, 0), stride)
        dropped += int(len(windows) * stride < n)  # the first start that fits no window
        record_spans = [s for s in spans if s.record_id == record_id]
        for start in windows:
            covering = {s.label for s in record_spans if s.start <= start and start + length <= s.end}
            if len(covering) > 1:
                raise ValueError(
                    f"conflicting labels {sorted(covering)} for {record_id!r} "
                    f"window [{start}, {start + length})"
                )
            if not covering:
                skipped += 1
                continue
            labels.append(covering.pop())
            record_ids.append(record_id)
            starts.append(start)
    samples = np.empty((len(starts), length))
    for row, record_id, start in zip(samples, record_ids, starts):
        row[:] = signals[record_id].samples[start : start + length]
    return LabeledSegments(samples, labels, record_ids, starts), skipped, dropped
