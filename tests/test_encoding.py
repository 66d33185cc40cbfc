import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from ecgsym.encoding import (
    EncoderSpec,
    SymbolSequence,
    encode,
    encode_slope_binary,
    encode_slope_ternary,
    encode_threshold_binary,
    encode_threshold_ternary,
)
from ecgsym.filtering import Signal

int_signals = st.lists(st.integers(-1000, 1000), min_size=2, max_size=40)
deviations = st.sampled_from([-0.1, -0.05, 0.05, 0.1, 1 / 12, 1 / 8])


# --- worked examples -----------------------------------------------------------

def test_slope_binary_example():
    out = encode_slope_binary([1.0, 2.0, 2.0, 1.0])
    np.testing.assert_array_equal(out.symbols, [1, 1, 0])
    assert out.alphabet_size == 2


def test_slope_binary_ramp():
    out = encode_slope_binary(np.arange(10.0))
    np.testing.assert_array_equal(out.symbols, np.ones(9))


def test_slope_binary_flat_counts_as_rising():
    np.testing.assert_array_equal(encode_slope_binary([3.0, 3.0, 3.0]).symbols, [1, 1])


def test_slope_ternary_example():
    out = encode_slope_ternary([1.0, 2.0, 2.0, 1.0])
    np.testing.assert_array_equal(out.symbols, [1, 0, -1])
    assert out.alphabet_size == 3


def test_slope_ternary_constant():
    np.testing.assert_array_equal(encode_slope_ternary(np.full(6, 2.5)).symbols, np.zeros(5))


def test_slope_ternary_tolerance_band():
    out = encode_slope_ternary([0.0, 1.0, 0.5], zero_tol=0.6)
    np.testing.assert_array_equal(out.symbols, [1, 0])


def test_threshold_binary_example():
    # mean 1.5, range 3, level 1.8
    out = encode_threshold_binary([0.0, 1.0, 2.0, 3.0], 1 / 10)
    np.testing.assert_array_equal(out.symbols, [0, 0, 1, 1])


def test_threshold_binary_negative_deviation():
    # level 1.2
    out = encode_threshold_binary([0.0, 1.0, 2.0, 3.0], -1 / 10)
    np.testing.assert_array_equal(out.symbols, [0, 0, 1, 1])


def test_threshold_binary_constant_all_ones():
    out = encode_threshold_binary(np.full(5, 7.0), 0.0)
    np.testing.assert_array_equal(out.symbols, np.ones(5))


def test_threshold_ternary_example():
    # upper 1.8, lower 1.2
    out = encode_threshold_ternary([0.0, 1.0, 2.0, 3.0], 1 / 10)
    np.testing.assert_array_equal(out.symbols, [-1, -1, 1, 1])


def test_threshold_ternary_constant_all_zero():
    out = encode_threshold_ternary(np.full(4, 1.25), 1 / 12)
    np.testing.assert_array_equal(out.symbols, np.zeros(4))


def test_threshold_ternary_closed_band_boundaries():
    # upper 1, lower -1; boundary samples fall inside the closed band
    out = encode_threshold_ternary([-1.0, 0.0, 1.0], 1 / 2)
    np.testing.assert_array_equal(out.symbols, [0, 0, 0])


# --- error contracts -----------------------------------------------------------

def test_slope_rejects_short_segments():
    for fn in (encode_slope_binary, encode_slope_ternary):
        with pytest.raises(ValueError, match="too short"):
            fn([1.0])


def test_ternary_threshold_rejects_negative_deviation():
    with pytest.raises(ValueError, match="non-negative"):
        encode_threshold_ternary([0.0, 1.0], -0.05)


def test_negative_zero_tol_rejected():
    # NaN too: it fails every comparison, so each step would read as flat
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="zero_tol must be finite and non-negative"):
            encode_slope_binary([0.0, 1.0], zero_tol=bad)


def test_encoder_spec_validation():
    with pytest.raises(ValueError):
        EncoderSpec("slope", 4)
    with pytest.raises(ValueError):
        EncoderSpec("wavelet", 2)
    with pytest.raises(ValueError):
        EncoderSpec("threshold", 2)  # missing deviation
    with pytest.raises(ValueError):
        EncoderSpec("threshold", 2, 0.6)  # |E| must stay below 1/2
    with pytest.raises(ValueError):
        EncoderSpec("slope", 2, 0.1)  # slope takes no deviation
    assert EncoderSpec("threshold", 3, 1 / 12).label == "threshold-ternary(E=0.0833333)"
    assert EncoderSpec("slope", 2).label == "slope-binary"


def test_symbol_sequence_validation():
    with pytest.raises(ValueError, match="empty"):
        SymbolSequence(np.array([], dtype=int), 2)
    with pytest.raises(ValueError, match="alphabet"):
        SymbolSequence(np.array([0, 2]), 2)
    with pytest.raises(ValueError, match="alphabet"):
        SymbolSequence(np.array([0, 1]), 5)
    assert len(SymbolSequence(np.array([-1, 0, 1]), 3)) == 3


OUTSIDE = "symbols outside the declared alphabet"


@pytest.mark.parametrize("dtype", [np.int8, np.int64, float])
@pytest.mark.parametrize("alphabet, bad", [(2, -1), (2, 2), (2, 100), (3, -2), (3, 2), (3, -100)])
def test_symbol_sequence_rejects_out_of_range(dtype, alphabet, bad):
    with pytest.raises(ValueError, match=OUTSIDE):
        SymbolSequence(np.array([0, 1, bad], dtype=dtype), alphabet)


@pytest.mark.parametrize("alphabet", [2, 3])
@pytest.mark.parametrize("bad", [0.5, -0.5, 1 - 1e-12, math.nan, math.inf, -math.inf])
def test_symbol_sequence_rejects_non_integers(alphabet, bad):
    with pytest.raises(ValueError, match=OUTSIDE):
        SymbolSequence(np.array([0.0, 1.0, bad]), alphabet)


@pytest.mark.parametrize("alphabet", [2, 3])
def test_symbol_sequence_bool_arrays(alphabet):
    seq = SymbolSequence(np.array([True, False, True]), alphabet)
    assert seq.symbols.dtype == np.int8
    assert seq.symbols.tolist() == [1, 0, 1]
    with pytest.raises(ValueError, match="empty"):
        SymbolSequence(np.array([], dtype=bool), alphabet)


@given(
    st.lists(st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, math.nan]), min_size=1, max_size=8),
    st.sampled_from([2, 3]),
)
def test_symbol_sequence_validation_matches_membership(values, alphabet):
    raw = np.array(values)
    if np.isin(raw, (0, 1) if alphabet == 2 else (-1, 0, 1)).all():
        seq = SymbolSequence(raw, alphabet)
        assert seq.symbols.dtype == np.int8
        assert seq.symbols.tolist() == [int(v) for v in values]
    else:
        with pytest.raises(ValueError, match=OUTSIDE):
            SymbolSequence(raw, alphabet)


def test_dispatch_matches_direct_calls():
    x = Signal(np.array([0.0, 2.0, 1.0, 4.0]), 360.0)
    np.testing.assert_array_equal(
        encode(x, EncoderSpec("slope", 3)).symbols, encode_slope_ternary(x).symbols
    )
    np.testing.assert_array_equal(
        encode(x, EncoderSpec("threshold", 2, 0.1)).symbols,
        encode_threshold_binary(x, 0.1).symbols,
    )


# --- invariants -----------------------------------------------------------------

@given(int_signals, deviations)
def test_length_law(values, e):
    x = np.array(values, dtype=float)
    assert len(encode_slope_binary(x)) == len(x) - 1
    assert len(encode_slope_ternary(x)) == len(x) - 1
    assert len(encode_threshold_binary(x, e)) == len(x)
    assert len(encode_threshold_ternary(x, abs(e))) == len(x)


@given(int_signals, deviations)
def test_alphabet_closure(values, e):
    x = np.array(values, dtype=float)
    assert set(np.unique(encode_slope_binary(x).symbols)) <= {0, 1}
    assert set(np.unique(encode_threshold_binary(x, e).symbols)) <= {0, 1}
    assert set(np.unique(encode_slope_ternary(x).symbols)) <= {-1, 0, 1}
    assert set(np.unique(encode_threshold_ternary(x, abs(e)).symbols)) <= {-1, 0, 1}
    assert encode_slope_ternary(x).alphabet_size == 3  # declared even if unused


@given(int_signals, st.integers(-10**6, 10**6), deviations)
def test_threshold_shift_invariance(values, shift, e):
    x = np.array(values, dtype=float)
    shifted = x + shift
    # keep samples away from the computed levels so float rounding cannot flip a comparison
    for data, dev in ((x, e), (shifted, e)):
        level = data.mean() + dev * (data.max() - data.min())
        assume(np.abs(data - level).min() > 1e-6)
        spread = abs(dev) * (data.max() - data.min())
        assume(np.abs(data - (data.mean() + spread)).min() > 1e-6)
        assume(np.abs(data - (data.mean() - spread)).min() > 1e-6)
    np.testing.assert_array_equal(
        encode_threshold_binary(x, e).symbols, encode_threshold_binary(shifted, e).symbols
    )
    np.testing.assert_array_equal(
        encode_threshold_ternary(x, abs(e)).symbols,
        encode_threshold_ternary(shifted, abs(e)).symbols,
    )


@given(int_signals, st.sampled_from([0.25, 0.5, 2.0, 8.0, 1024.0]), deviations)
def test_positive_scale_invariance(values, scale, e):
    # power-of-two scales commute exactly with float rounding
    x = np.array(values, dtype=float)
    scaled = x * scale
    np.testing.assert_array_equal(
        encode_slope_binary(x).symbols, encode_slope_binary(scaled).symbols
    )
    np.testing.assert_array_equal(
        encode_slope_ternary(x).symbols, encode_slope_ternary(scaled).symbols
    )
    np.testing.assert_array_equal(
        encode_threshold_binary(x, e).symbols, encode_threshold_binary(scaled, e).symbols
    )
    np.testing.assert_array_equal(
        encode_threshold_ternary(x, abs(e)).symbols,
        encode_threshold_ternary(scaled, abs(e)).symbols,
    )


@given(int_signals)
def test_slope_ternary_negation_duality(values):
    x = np.array(values, dtype=float)
    np.testing.assert_array_equal(
        encode_slope_ternary(-x).symbols, -encode_slope_ternary(x).symbols
    )
