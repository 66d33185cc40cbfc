import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecgsym.experiment import load_features_csv
from ecgsym.filtering import Signal
from ecgsym.records import (
    LabelSpan,
    load_labeled_segments,
    pack_format212,
    parse_format212,
    read_binary_record,
    read_label_sidecar,
    read_rows,
    read_text_signal,
)

twelve_bit = st.integers(-2048, 2047)


# --- 212-format packing -----------------------------------------------------------

def test_parse_positive_pair():
    channels = parse_format212(bytes([0x01, 0x00, 0x02]))
    np.testing.assert_array_equal(channels[0], [1])
    np.testing.assert_array_equal(channels[1], [2])


def test_parse_negative_first_slot():
    channels = parse_format212(bytes([0xFF, 0x0F, 0x00]))
    np.testing.assert_array_equal(channels[0], [-1])
    np.testing.assert_array_equal(channels[1], [0])


def test_parse_minimum_second_slot():
    channels = parse_format212(bytes([0x00, 0x80, 0x00]))
    np.testing.assert_array_equal(channels[0], [0])
    np.testing.assert_array_equal(channels[1], [-2048])


def test_parse_rejects_truncated_stream():
    with pytest.raises(ValueError, match="truncated format-212"):
        parse_format212(bytes([0x01, 0x00, 0x02, 0x03]))


def test_parse_single_channel_keeps_all_samples():
    data = pack_format212([[5, -7, 100, -2048]])
    (channel,) = parse_format212(data, signal_count=1)
    np.testing.assert_array_equal(channel, [5, -7, 100, -2048])


def test_pack_validation():
    with pytest.raises(ValueError, match="12-bit"):
        pack_format212([[4000], [0]])
    with pytest.raises(ValueError, match="equal length"):
        pack_format212([[1, 2], [3]])
    with pytest.raises(ValueError, match="even"):
        pack_format212([[1, 2, 3]])


@given(st.lists(st.tuples(twelve_bit, twelve_bit), min_size=1, max_size=50))
def test_roundtrip_two_channels(pairs):
    first = [a for a, _ in pairs]
    second = [b for _, b in pairs]
    channels = parse_format212(pack_format212([first, second]))
    np.testing.assert_array_equal(channels[0], first)
    np.testing.assert_array_equal(channels[1], second)


def test_read_binary_record(tmp_path):
    path = tmp_path / "rec.dat"
    path.write_bytes(pack_format212([[10, 20, 30], [-1, -2, -3]]))
    signals = read_binary_record(path, signal_count=2, sample_rate=360.0)
    assert len(signals) == 2
    np.testing.assert_array_equal(signals[0].samples, [10.0, 20.0, 30.0])
    assert signals[1].sample_rate == 360.0
    path.write_bytes(b"")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: no samples$"):
        read_binary_record(path)
    path.write_bytes(b"\x01\x02\x03\x04")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: truncated format-212"):
        read_binary_record(path)


def test_record_header_validation(tmp_path):
    path = tmp_path / "rec.dat"
    path.write_bytes(pack_format212([[10, 20, 30], [-1, -2, -3]]))
    with pytest.raises(ValueError, match="signal_count must be at least 1"):
        read_binary_record(path, signal_count=0)
    with pytest.raises(ValueError, match="sample_rate must be positive"):
        read_binary_record(path, sample_rate=-1)


# --- text signals -------------------------------------------------------------------

def test_read_text_signal_column(tmp_path):
    path = tmp_path / "sig.txt"
    path.write_text("0.0\n0.5\n1.0\n")
    signal = read_text_signal(path)
    np.testing.assert_array_equal(signal.samples, [0.0, 0.5, 1.0])
    assert signal.sample_rate == 360.0


def test_read_text_signal_skips_header(tmp_path):
    path = tmp_path / "sig.csv"
    path.write_text("amplitude\n1.5\n2.5\n")
    signal = read_text_signal(path, skip_header=True)
    np.testing.assert_array_equal(signal.samples, [1.5, 2.5])


def test_read_text_signal_selects_column(tmp_path):
    path = tmp_path / "sig.csv"
    path.write_text("0,10\n1,20\n", )
    signal = read_text_signal(path, column=1, delimiter=",")
    np.testing.assert_array_equal(signal.samples, [10.0, 20.0])


def test_read_text_signal_names_bad_row(tmp_path):
    path = tmp_path / "sig.txt"
    path.write_text("1.0\n2.0\nabc\n")
    with pytest.raises(ValueError, match="row 3"):
        read_text_signal(path)


def test_read_text_signal_missing_column(tmp_path):
    path = tmp_path / "sig.txt"
    path.write_text("1.0\n")
    with pytest.raises(ValueError, match="no column 2"):
        read_text_signal(path, column=2)


def test_read_text_signal_empty(tmp_path):
    path = tmp_path / "sig.txt"
    path.write_text("\n\n")
    with pytest.raises(ValueError, match="no samples"):
        read_text_signal(path)


# --- segmentation ---------------------------------------------------------------------

def make_record(n: int) -> Signal:
    return Signal(np.arange(float(n)), 360.0)


def cut_whole_record(n: int, length: int, stride: int | None = None):
    """Windows of an n-sample ramp under one span covering the whole record."""
    spans = [LabelSpan("r", 0, n, "x")]
    segments, skipped, dropped = load_labeled_segments({"r": make_record(n)}, spans, length, stride)
    assert skipped == 0
    assert segments.samples.shape == (len(segments), length)
    assert segments.labels == ["x"] * len(segments)
    assert segments.record_ids == ["r"] * len(segments)
    for row, start in zip(segments.samples, segments.starts):
        np.testing.assert_array_equal(row, np.arange(start, start + length))
    return segments, dropped


def test_segment_exact_multiples():
    segments, dropped = cut_whole_record(2160, 720, 720)
    assert segments.starts == [0, 720, 1440]
    assert dropped == 0


def test_segment_short_record_drops_partial():
    segments, dropped = cut_whole_record(719, 720)
    assert len(segments) == 0
    assert dropped == 1


def test_segment_overlapping_stride():
    segments, dropped = cut_whole_record(1440, 720, 360)
    assert segments.starts == [0, 360, 720]
    assert dropped == 1


def test_segment_parameter_validation():
    signals = {"r": make_record(10)}
    with pytest.raises(ValueError, match="segment length must be at least 1"):
        load_labeled_segments(signals, [], 0)
    with pytest.raises(ValueError, match="stride must be at least 1"):
        load_labeled_segments(signals, [], 5, 0)


@given(st.integers(1, 300), st.integers(1, 80), st.integers(1, 80))
@settings(max_examples=80)
def test_segment_accounting(n, length, stride):
    segments, dropped = cut_whole_record(n, length, stride)
    # oracle: brute-force enumeration of fitting windows
    expected_starts = [s for s in range(0, n, stride) if s + length <= n]
    assert segments.starts == expected_starts
    next_start = len(segments) * stride
    assert dropped == (1 if next_start < n else 0)


# --- labeling -----------------------------------------------------------------------------

def test_label_attachment_and_skip():
    spans = [LabelSpan("r1", 0, 720, "Normal"), LabelSpan("r1", 720, 1440, "AFIB")]
    segments, skipped, dropped = load_labeled_segments({"r1": make_record(2160)}, spans, 720)
    assert list(zip(segments.labels, segments.starts)) == [("Normal", 0), ("AFIB", 720)]
    assert skipped == 1
    assert dropped == 0
    assert segments.record_ids == ["r1", "r1"]


def test_empty_sidecar_labels_nothing():
    segments, skipped, dropped = load_labeled_segments({"r1": make_record(2160)}, [], 720)
    assert len(segments) == 0
    assert segments.samples.shape == (0, 720)
    assert skipped == 3
    assert dropped == 0


def test_trailing_partial_drop_is_counted():
    spans = [LabelSpan("r1", 0, 720, "Normal")]
    segments, skipped, dropped = load_labeled_segments({"r1": make_record(1000)}, spans, 720)
    assert len(segments) == 1
    assert skipped == 0
    assert dropped == 1


def test_conflicting_labels_rejected():
    spans = [LabelSpan("r1", 0, 720, "Normal"), LabelSpan("r1", 0, 720, "AFIB")]
    with pytest.raises(ValueError, match="conflicting labels"):
        load_labeled_segments({"r1": make_record(720)}, spans, 720)


def test_same_label_overlap_is_fine():
    spans = [LabelSpan("r1", 0, 720, "Normal"), LabelSpan("r1", 0, 1440, "Normal")]
    segments, _, _ = load_labeled_segments({"r1": make_record(1440)}, spans, 720)
    assert segments.labels == ["Normal", "Normal"]


def test_unknown_record_rejected():
    spans = [LabelSpan("ghost", 0, 720, "Normal")]
    with pytest.raises(ValueError, match="unknown record 'ghost'"):
        load_labeled_segments({"r1": make_record(720)}, spans, 720)


def test_span_validation():
    with pytest.raises(ValueError):
        LabelSpan("r", 10, 10, "x")
    with pytest.raises(ValueError):
        LabelSpan("r", -1, 10, "x")
    with pytest.raises(ValueError):
        LabelSpan("r", 0, 10, "")


def test_read_label_sidecar(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("# record,start,end,label\nr1,0,720,Normal\nr1,720,1440,AFIB\n")
    spans = read_label_sidecar(path)
    assert spans == [LabelSpan("r1", 0, 720, "Normal"), LabelSpan("r1", 720, 1440, "AFIB")]


def test_read_label_sidecar_drops_a_byte_order_mark(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_bytes(b"\xef\xbb\xbfrec,0,720,Normal\n")
    assert read_label_sidecar(path) == [LabelSpan("rec", 0, 720, "Normal")]


def test_read_rows_drops_a_byte_order_mark(tmp_path):
    path = tmp_path / "features.csv"
    path.write_bytes(b"\xef\xbb\xbfa,0.1,0.2\na,0.15,0.25\nb,0.8,0.9\nb,0.85,0.95\n")
    assert read_rows(path) == ("a,0.1,0.2\na,0.15,0.25\nb,0.8,0.9\nb,0.85,0.95\n", 1)
    assert read_rows(path, skip_header=True)[0].startswith("a,0.15")
    codes, names, _ = load_features_csv(path)
    assert names == ("a", "b")
    assert codes.tolist() == [0, 0, 1, 1]


def test_read_label_sidecar_bad_row(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("r1,0,720\n")
    with pytest.raises(ValueError, match="row 1"):
        read_label_sidecar(path)
