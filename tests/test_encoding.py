import math

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from ecgsym.encoding import EncoderSpec, SymbolSequence, encode
from oracles import encode_symbols

int_signals = st.lists(st.integers(-1000, 1000), min_size=2, max_size=40)
deviations = st.sampled_from([-0.1, -0.05, 0.05, 0.1, 1 / 12, 1 / 8])


def slope(x, alphabet, zero_tol=0.0):
    return encode(x, EncoderSpec("slope", alphabet), zero_tol)


def threshold(x, alphabet, deviation):
    return encode(x, EncoderSpec("threshold", alphabet, deviation))


# --- worked examples -----------------------------------------------------------

def test_slope_binary_example():
    out = slope([1.0, 2.0, 2.0, 1.0], 2)
    np.testing.assert_array_equal(out.symbols, [1, 1, 0])
    assert out.alphabet_size == 2


def test_slope_binary_ramp():
    out = slope(np.arange(10.0), 2)
    np.testing.assert_array_equal(out.symbols, np.ones(9))


def test_slope_binary_flat_counts_as_rising():
    np.testing.assert_array_equal(slope([3.0, 3.0, 3.0], 2).symbols, [1, 1])


def test_slope_ternary_example():
    out = slope([1.0, 2.0, 2.0, 1.0], 3)
    np.testing.assert_array_equal(out.symbols, [1, 0, -1])
    assert out.alphabet_size == 3


def test_slope_ternary_constant():
    np.testing.assert_array_equal(slope(np.full(6, 2.5), 3).symbols, np.zeros(5))


def test_slope_ternary_tolerance_band():
    out = slope([0.0, 1.0, 0.5], 3, zero_tol=0.6)
    np.testing.assert_array_equal(out.symbols, [1, 0])


def test_threshold_binary_example():
    # mean 1.5, range 3, level 1.8
    out = threshold([0.0, 1.0, 2.0, 3.0], 2, 1 / 10)
    np.testing.assert_array_equal(out.symbols, [0, 0, 1, 1])


def test_threshold_binary_negative_deviation():
    # level 1.2
    out = threshold([0.0, 1.0, 2.0, 3.0], 2, -1 / 10)
    np.testing.assert_array_equal(out.symbols, [0, 0, 1, 1])


def test_threshold_binary_constant_all_ones():
    out = threshold(np.full(5, 7.0), 2, 0.0)
    np.testing.assert_array_equal(out.symbols, np.ones(5))


def test_threshold_ternary_example():
    # upper 1.8, lower 1.2
    out = threshold([0.0, 1.0, 2.0, 3.0], 3, 1 / 10)
    np.testing.assert_array_equal(out.symbols, [-1, -1, 1, 1])


def test_threshold_ternary_constant_all_zero():
    out = threshold(np.full(4, 1.25), 3, 1 / 12)
    np.testing.assert_array_equal(out.symbols, np.zeros(4))


def test_threshold_ternary_closed_band_boundaries():
    # upper 1, lower -1; boundary samples fall inside the closed band (E = 1/2
    # is past the spec's bound, so the band is made at E = 1/4 with range 4)
    out = threshold([-1.0, 0.0, 1.0, -2.0, 2.0], 3, 1 / 4)
    np.testing.assert_array_equal(out.symbols, [0, 0, 0, -1, 1])


# --- error contracts -----------------------------------------------------------

def test_slope_rejects_short_segments():
    for alphabet in (2, 3):
        with pytest.raises(ValueError, match="too short"):
            slope([1.0], alphabet)


def test_ternary_threshold_rejects_negative_deviation():
    # a property of the spec, so it fails before any signal is seen
    with pytest.raises(ValueError, match="ternary threshold requires non-negative deviation"):
        EncoderSpec("threshold", 3, -0.05)
    assert EncoderSpec("threshold", 3, 0.0).deviation == 0.0
    assert EncoderSpec("threshold", 2, -0.05).deviation == -0.05


def test_negative_zero_tol_rejected():
    # NaN too: it fails every comparison, so each step would read as flat
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="zero_tol must be finite and non-negative"):
            slope([0.0, 1.0], 2, zero_tol=bad)


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
    with pytest.raises(ValueError, match="one row or a matrix of rows"):
        SymbolSequence(np.zeros((2, 2, 2), dtype=int), 2)
    assert len(SymbolSequence(np.array([-1, 0, 1]), 3)) == 3


def test_threshold_encode_of_an_empty_signal_rejected():
    with pytest.raises(ValueError, match="empty signal"):
        threshold(np.array([]), 3, 1 / 12)


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


SCHEMES = [
    ("slope", 2, None),
    ("slope", 3, None),
    *(("threshold", 2, e) for e in (-0.1, -0.05, 0.0, 0.05, 1 / 12, 0.25)),
    *(("threshold", 3, e) for e in (0.0, 0.05, 1 / 16, 1 / 12, 0.25)),
]


@st.composite
def sample_stacks(draw):
    """1-4 rows of one length, with repeated values so that steps sit on
    the flat band and samples on a level."""
    rows, length = draw(st.integers(1, 4)), draw(st.integers(2, 40))
    values = st.one_of(
        st.integers(-20, 20).map(float),
        st.integers(-1152, 1152).map(lambda k: k / 1152),
        st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
    )
    row = st.lists(values, min_size=length, max_size=length)
    return draw(st.lists(row, min_size=rows, max_size=rows))


@given(sample_stacks(), st.sampled_from(SCHEMES), st.sampled_from([0.0, 0.5, 1.0]))
# mean 2, range 4: the binary cut at E = +-1/4 is a sample, and so is each
# ternary band edge; steps of +-1 sit on +-zero_tol = 1
@example([[0.0, 1.0, 2.0, 3.0, 4.0]], ("threshold", 2, 0.25), 0.0)
@example([[0.0, 1.0, 2.0, 3.0, 4.0]], ("threshold", 2, -0.25), 0.0)
@example([[0.0, 1.0, 2.0, 3.0, 4.0], [4.0, 3.0, 2.0, 1.0, 0.0]], ("threshold", 3, 0.25), 0.0)
@example([[0.0, 1.0, 0.0, 2.0]], ("slope", 2, None), 1.0)
@example([[0.0, 1.0, 0.0, 2.0], [2.0, 1.0, 2.0, 0.0]], ("slope", 3, None), 1.0)
def test_encode_matches_per_sample_oracle(rows, scheme, zero_tol):
    method, alphabet, e = scheme
    x = np.array(rows)
    out = encode(x[0] if len(rows) == 1 else x, EncoderSpec(method, alphabet, e), zero_tol)
    assert out.alphabet_size == alphabet
    assert np.atleast_2d(out.symbols).tolist() == encode_symbols(rows, method, alphabet, e, zero_tol)


# --- invariants -----------------------------------------------------------------

@given(int_signals, deviations)
def test_length_law(values, e):
    x = np.array(values, dtype=float)
    assert len(slope(x, 2)) == len(x) - 1
    assert len(slope(x, 3)) == len(x) - 1
    assert len(threshold(x, 2, e)) == len(x)
    assert len(threshold(x, 3, abs(e))) == len(x)


@given(int_signals, deviations)
def test_alphabet_closure(values, e):
    x = np.array(values, dtype=float)
    assert set(np.unique(slope(x, 2).symbols)) <= {0, 1}
    assert set(np.unique(threshold(x, 2, e).symbols)) <= {0, 1}
    assert set(np.unique(slope(x, 3).symbols)) <= {-1, 0, 1}
    assert set(np.unique(threshold(x, 3, abs(e)).symbols)) <= {-1, 0, 1}
    assert slope(x, 3).alphabet_size == 3  # declared even if unused


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
    np.testing.assert_array_equal(threshold(x, 2, e).symbols, threshold(shifted, 2, e).symbols)
    np.testing.assert_array_equal(
        threshold(x, 3, abs(e)).symbols,
        threshold(shifted, 3, abs(e)).symbols,
    )


@given(int_signals, st.sampled_from([0.25, 0.5, 2.0, 8.0, 1024.0]), deviations)
def test_positive_scale_invariance(values, scale, e):
    # power-of-two scales commute exactly with float rounding
    x = np.array(values, dtype=float)
    scaled = x * scale
    np.testing.assert_array_equal(slope(x, 2).symbols, slope(scaled, 2).symbols)
    np.testing.assert_array_equal(slope(x, 3).symbols, slope(scaled, 3).symbols)
    np.testing.assert_array_equal(threshold(x, 2, e).symbols, threshold(scaled, 2, e).symbols)
    np.testing.assert_array_equal(
        threshold(x, 3, abs(e)).symbols,
        threshold(scaled, 3, abs(e)).symbols,
    )


@given(int_signals)
def test_slope_ternary_negation_duality(values):
    x = np.array(values, dtype=float)
    np.testing.assert_array_equal(slope(-x, 3).symbols, -slope(x, 3).symbols)
