import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal as sp

from ecgsym.filtering import (
    FilterCoefficients,
    PaddingPlan,
    Signal,
    alignment_delay,
    apply_filter,
    compensation_plan,
    filter_compensated,
    frequency_response,
    group_delay,
    make_bandpass,
    make_highpass,
    make_lowpass,
)

FS = 360.0


def omega(freq_hz: float) -> float:
    return 2.0 * math.pi * freq_hz / FS


def identity() -> FilterCoefficients:
    return FilterCoefficients(np.array([1.0]), np.array([1.0]))


# --- coefficient construction -------------------------------------------------

def test_lowpass_coefficients():
    lp = make_lowpass()
    nonzero = {i: v for i, v in enumerate(lp.numerator) if v != 0}
    assert nonzero == {0: 1 / 36, 6: -2 / 36, 12: 1 / 36}
    assert lp.numerator[0] == pytest.approx(1 / 36, abs=0)
    np.testing.assert_array_equal(lp.denominator, [1.0, -2.0, 1.0])


def test_lowpass_dc_gain_via_polynomial_division():
    lp = make_lowpass()
    fir, remainder = sp.deconvolve(lp.numerator, lp.denominator)
    assert np.abs(remainder).max() < 1e-15
    expected_fir = np.convolve(np.ones(6), np.ones(6)) / 36.0
    np.testing.assert_allclose(fir, expected_fir, atol=1e-15)
    assert fir.sum() == pytest.approx(1.0, abs=1e-12)


def test_highpass_coefficients():
    hp = make_highpass()
    nonzero = {i: v for i, v in enumerate(hp.numerator) if v != 0}
    assert nonzero == {0: -1 / 32, 16: 1.0, 17: -1.0, 32: 1 / 32}
    np.testing.assert_array_equal(hp.denominator, [1.0, -1.0])
    assert hp.numerator.sum() == pytest.approx(0.0, abs=1e-15)


def test_bandpass_expansion():
    bp = make_bandpass()
    assert bp.numerator.size - 1 == 44
    scaled = {i: round(v * 1152) for i, v in enumerate(bp.numerator) if abs(v) > 1e-12}
    assert scaled == {
        0: -1, 6: 2, 12: -1, 16: 32, 17: -32, 22: -64,
        23: 64, 28: 32, 29: -32, 32: 1, 38: -2, 44: 1,
    }
    np.testing.assert_array_equal(bp.denominator, [1.0, -3.0, 3.0, -1.0])
    assert bp.numerator.sum() == pytest.approx(0.0, abs=1e-15)


def test_denominator_normalization():
    c = FilterCoefficients(np.array([2.0, 0.0, -2.0]), np.array([2.0, -2.0]))
    np.testing.assert_array_equal(c.numerator, [1.0, 0.0, -1.0])
    np.testing.assert_array_equal(c.denominator, [1.0, -1.0])
    assert c.order == 2
    np.testing.assert_array_equal(c.taps, [2.0, 2.0])
    assert c.divisor == 2.0


def test_coefficients_validation():
    with pytest.raises(ValueError):
        FilterCoefficients(np.array([]), np.array([1.0]))
    with pytest.raises(ValueError):
        FilterCoefficients(np.array([1.0]), np.array([0.0, 1.0]))


@pytest.mark.parametrize(
    "make, n_taps, divisor, abs_sum, tap_sum, cancelled",
    [
        (make_lowpass, 11, 36.0, 36, 36, 2),
        (make_highpass, 32, 32.0, 62, 0, 1),
        (make_bandpass, 42, 1152.0, 1528, 0, 3),
    ],
)
def test_stock_filters_cancel_to_integer_fir(make, n_taps, divisor, abs_sum, tap_sum, cancelled):
    c = make()
    assert c.taps.size == n_taps and c.divisor == divisor
    np.testing.assert_array_equal(c.taps, np.round(c.taps))
    assert np.abs(c.taps).sum() == abs_sum and c.taps.sum() == tap_sum
    # taps * (1 - z^-1)^k over the divisor is the rational numerator again
    restored = c.taps
    for _ in range(cancelled):
        restored = np.convolve(restored, [1.0, -1.0])
    np.testing.assert_array_equal(restored / divisor, c.numerator)


def test_cancellation_only_where_exact():
    # only a denominator that cancels exactly to a constant is accepted
    cases = [
        # (1 - z^-1) is no factor of 1 - 0.9 z^-1: nothing cancels
        ([1.0, -1.0], [1.0, -0.9]),
        # the sum is exactly 0, but the quotient 2^60 + 1 has no float
        ([2.0**60, 1.0, -1.0, -(2.0**60)], [1.0, -1.0]),
        # no zero at z = 1 to cancel against
        ([2.0, 4.0], [2.0, 0.0, 2.0]),
        ([1.0], [1.0, -1.0]),
    ]
    for b, a in cases:
        with pytest.raises(ValueError, match="does not cancel to a constant"):
            FilterCoefficients(b, a)


def test_non_finite_coefficients_rejected():
    with pytest.raises(ValueError, match="finite"):
        FilterCoefficients([1.0, math.nan], [1.0])
    with pytest.raises(ValueError, match="finite"):
        FilterCoefficients([1.0], [1.0, math.inf])


# --- direct-form filtering ----------------------------------------------------

def test_identity_filter_passthrough():
    s = Signal(np.array([3.0, -1.0, 2.5]), FS)
    out = apply_filter(identity(), s)
    np.testing.assert_array_equal(out.samples, s.samples)
    assert out.sample_rate == FS


def test_one_sample_delay():
    out = apply_filter(FilterCoefficients([0.0, 1.0], [1.0]), Signal([5.0, 7.0, 9.0], FS))
    np.testing.assert_array_equal(out.samples, [0.0, 5.0, 7.0])


def test_fir_matches_convolution_oracle():
    rng = np.random.default_rng(11)
    x = rng.standard_normal(100)
    b = rng.standard_normal(9)
    out = apply_filter(FilterCoefficients(b, [1.0]), Signal(x, FS))
    np.testing.assert_allclose(out.samples, np.convolve(x, b)[:100], atol=1e-12)


def test_iir_satisfies_difference_equation():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(300)
    bp = make_bandpass()
    y = apply_filter(bp, Signal(x, FS)).samples
    b, a = bp.numerator, bp.denominator
    for n in [0, 1, 7, 50, 299]:
        acc = sum(b[i] * x[n - i] for i in range(b.size) if n - i >= 0)
        acc -= sum(a[j] * y[n - j] for j in range(1, a.size) if n - j >= 0)
        assert y[n] == pytest.approx(acc, abs=1e-9)


def test_matches_scipy_lfilter():
    rng = np.random.default_rng(6)
    x = rng.standard_normal(400)
    bp = make_bandpass()
    mine = apply_filter(bp, Signal(x, FS)).samples
    ref = sp.lfilter(bp.numerator, bp.denominator, x)
    np.testing.assert_allclose(mine, ref, atol=1e-8)


def test_integer_record_filters_exactly():
    # every output is the correctly rounded K/1152 of the integer convolution
    x = np.random.default_rng(9).integers(-2048, 2048, 200_000)
    bp = make_bandpass()
    mine = apply_filter(bp, Signal(x.astype(float), FS)).samples
    ref = np.convolve(x, bp.taps.astype(np.int64))[: x.size] / 1152
    np.testing.assert_array_equal(mine, ref)


def test_empty_signal_rejected():
    with pytest.raises(ValueError, match="empty signal"):
        apply_filter(make_lowpass(), Signal(np.array([0.0])[:0], FS))
    with pytest.raises(ValueError, match="empty signal"):
        filter_compensated(make_bandpass(), Signal(np.empty((0, 720)), FS))


@given(
    st.integers(10, 120),
    st.floats(-8, 8, allow_nan=False),
    st.floats(-8, 8, allow_nan=False),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=40)
def test_linearity(n, a, b, seed):
    rng = np.random.default_rng(seed)
    x1, x2 = rng.standard_normal(n), rng.standard_normal(n)
    bp = make_bandpass()
    lhs = apply_filter(bp, Signal(a * x1 + b * x2, FS)).samples
    rhs = a * apply_filter(bp, Signal(x1, FS)).samples + b * apply_filter(bp, Signal(x2, FS)).samples
    scale = max(1.0, np.abs(rhs).max())
    assert np.abs(lhs - rhs).max() <= 1e-9 * scale


def test_cascade_equals_bandpass():
    rng = np.random.default_rng(42)
    x = Signal(rng.standard_normal(2000), FS)
    cascade = apply_filter(make_highpass(), apply_filter(make_lowpass(), x)).samples
    direct = apply_filter(make_bandpass(), x).samples
    diff = np.abs(cascade - direct)[100:]
    assert diff.max() <= 1e-6 * max(1.0, np.abs(direct).max())


def test_lowpass_equals_explicit_fir():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(500)
    fir = np.convolve(np.ones(6), np.ones(6)) / 36.0
    mine = apply_filter(make_lowpass(), Signal(x, FS)).samples
    ref = np.convolve(x, fir)[:500]
    assert np.abs(mine - ref).max() <= 1e-9


# --- group delay and alignment -------------------------------------------------

def test_group_delay_pure_delay():
    c = FilterCoefficients([0.0, 0.0, 1.0], [1.0])
    assert group_delay(c, 0.3) == pytest.approx(2.0, abs=1e-9)


def test_group_delay_symmetric_fir():
    c = FilterCoefficients([1.0, 2.0, 3.0, 2.0, 1.0], [1.0])
    for w in (0.2, 0.5, 1.0):
        assert group_delay(c, w) == pytest.approx(2.0, abs=1e-9)


def test_group_delay_bandpass_matches_scipy():
    bp = make_bandpass()
    for f in (5.0, 8.0, 12.0):
        _, ref = sp.group_delay((bp.numerator, bp.denominator), w=[omega(f)])
        assert group_delay(bp, omega(f)) == pytest.approx(float(ref[0]), abs=1e-8)


def test_group_delay_bandpass_measured_values():
    # True phase-derivative delay of this cascade: ~19.16 samples at 5 Hz
    # rising to ~20.56 at 12 Hz (the nominal stage-delay sum is 21).
    bp = make_bandpass()
    assert group_delay(bp, omega(8.0)) == pytest.approx(20.119348646, abs=1e-6)
    taus = [group_delay(bp, w) for w in np.linspace(omega(5.0), omega(12.0), 50)]
    assert min(taus) == pytest.approx(19.159333, abs=1e-4)
    assert max(taus) == pytest.approx(20.564517, abs=1e-4)


def test_group_delay_rejects_transfer_zero():
    # The low-pass numerator vanishes at omega = pi/3.
    with pytest.raises(ValueError, match="phase undefined"):
        group_delay(make_lowpass(), math.pi / 3)


def test_group_delay_omega_range():
    for bad in (0.0, -0.1, math.pi, 4.0):
        with pytest.raises(ValueError):
            group_delay(make_bandpass(), bad)


def test_alignment_delay_matches_sinusoid_fit():
    # Oracle: fit the steady-state phase shift of a filtered unit sinusoid.
    bp = make_bandpass()
    f = 8.0
    t = np.arange(4000) / FS
    x = np.sin(2 * math.pi * f * t)
    y = apply_filter(bp, Signal(x, FS)).samples
    period = FS / f
    core = slice(450, 450 + 70 * int(period))  # whole periods, past the transient
    z = np.exp(-1j * 2 * math.pi * f * t[core])
    phase_shift = np.angle((y[core] * z).sum() / (x[core] * z).sum())
    measured = -phase_shift / omega(f)
    delay = alignment_delay(bp, omega(f))
    wrapped = (delay - measured + period / 2) % period - period / 2
    assert abs(wrapped) < 1e-6
    assert delay == pytest.approx(21.272105, abs=1e-4)


def test_alignment_delay_simple_filters():
    assert alignment_delay(identity(), 0.3) == pytest.approx(0.0, abs=1e-9)
    c = FilterCoefficients([0.0, 0.0, 1.0], [1.0])
    assert alignment_delay(c, 0.7) == pytest.approx(2.0, abs=1e-9)


# --- compensated filtering ------------------------------------------------------

def test_compensated_identity_exact():
    x = np.array([1.0, -2.0, 3.5, 0.25, 9.0])
    out = filter_compensated(identity(), Signal(x, FS), PaddingPlan(4, 4))
    np.testing.assert_array_equal(out.samples, x)


def test_compensated_constant_is_zeroed():
    out = filter_compensated(make_bandpass(), Signal(np.ones(720), FS), PaddingPlan(65, 65))
    assert len(out) == 720
    assert np.abs(out.samples).max() < 1e-9


@pytest.mark.parametrize("level", [-2048.0, -1.0, 0.0, 7.0, 2047.0])
def test_compensated_constant_212_input_is_exactly_zero(level):
    out = filter_compensated(make_bandpass(), Signal(np.full(720, level), FS), PaddingPlan(65, 65))
    np.testing.assert_array_equal(out.samples, np.zeros(720))


def test_compensated_step_is_exactly_zero_on_flat_stretches():
    # Output i sees inputs i-20 .. i+21 (42 taps, shift 21): only the 41
    # outputs whose window straddles the step at 360 are non-zero.
    x = np.where(np.arange(720) < 360, -300.0, 1200.0)
    out = filter_compensated(make_bandpass(), Signal(x, FS), PaddingPlan(65, 65)).samples
    np.testing.assert_array_equal(np.flatnonzero(out), np.arange(339, 380))


def test_compensated_sinusoid_aligned_at_center():
    t = np.arange(720) / FS
    x = np.sin(2 * math.pi * 8.0 * t)
    out = filter_compensated(make_bandpass(), Signal(x, FS), PaddingPlan(65, 65))
    assert len(out) == 720
    cc = np.correlate(out.samples, x, mode="full")
    assert int(np.argmax(cc)) - (len(x) - 1) == 0


def test_compensated_alignment_across_band():
    # Phase delay drifts from ~22.2 samples at 5 Hz to ~21.0 at 12 Hz, so a
    # single integer extraction shift aligns the upper band exactly and the
    # lower edge to within one sample.
    t = np.arange(720) / FS
    for f in (5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0):
        x = np.sin(2 * math.pi * f * t)
        out = filter_compensated(make_bandpass(), Signal(x, FS), PaddingPlan(65, 65))
        lag = int(np.argmax(np.correlate(out.samples, x, mode="full"))) - (len(x) - 1)
        if f >= 7.0:
            assert lag == 0, f
        else:
            assert abs(lag) <= 1, f


def test_compensated_pulse_train_aligned():
    # wideband spike train with baseline wander: peaks come back in place
    n = 720
    t = np.arange(n)
    x = np.zeros(n)
    for center in range(60, n, 240):
        x += 100 * np.exp(-0.5 * ((t - center) / 6.0) ** 2)
    x += 20 * np.sin(2 * math.pi * 1.0 * t / FS)
    out = filter_compensated(make_bandpass(), Signal(x, FS), PaddingPlan(65, 65))
    cc = np.correlate(out.samples, x - x.mean(), mode="full")
    assert int(np.argmax(cc)) - (n - 1) == 0
    for peak in (60, 300, 540):
        local = int(np.argmax(out.samples[peak - 20 : peak + 20])) - 20 + peak
        assert local == peak


@given(st.integers(1, 80), st.integers(0, 2**31 - 1))
@settings(max_examples=40)
def test_compensated_length_preserved(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    out = filter_compensated(make_bandpass(), Signal(x, FS), PaddingPlan(65, 65))
    assert len(out) == n


def test_insufficient_padding_rejected():
    x = Signal(np.ones(100), FS)
    with pytest.raises(ValueError, match="insufficient padding"):
        filter_compensated(make_bandpass(), x, PaddingPlan(65, 10))
    with pytest.raises(ValueError, match="insufficient padding"):
        filter_compensated(make_bandpass(), x, PaddingPlan(10, 65))
    # the least plan is never negative, so a negative pad is always below it
    lead6 = FilterCoefficients(np.array([1.0, -0.9]), np.array([1.0]))  # least plan (7, 0)
    for coeffs, plan in [
        (make_bandpass(), PaddingPlan(-1, 21)),
        (make_bandpass(), PaddingPlan(44, -1)),
        (lead6, PaddingPlan(7, -1)),
    ]:
        with pytest.raises(ValueError, match="insufficient padding"):
            filter_compensated(coeffs, x, plan)


def test_default_padding():
    assert compensation_plan(make_bandpass()) == (PaddingPlan(44, 21), 21)
    assert compensation_plan(make_lowpass())[0] == PaddingPlan(12, 5)
    assert compensation_plan(make_bandpass(), 5000.0) == (PaddingPlan(44, 106), 106)


def test_default_padding_for_a_negative_shift():
    # 1 - 0.9z^-1 leads an 8 Hz sinusoid by 6 samples: the window starts
    # at the order only if the lead covers that too, and no trail is read
    coeffs = FilterCoefficients(np.array([1.0, -0.9]), np.array([1.0]))
    assert compensation_plan(coeffs, FS) == (PaddingPlan(7, 0), -6)
    x = Signal(np.random.default_rng(0).normal(0.0, 5.0, (3, 300)), FS)
    np.testing.assert_array_equal(
        filter_compensated(coeffs, x).samples, filter_compensated(coeffs, x, PaddingPlan(30, 30)).samples
    )
    with pytest.raises(ValueError, match="need lead >= 7 and trail >= 0, got lead=6"):
        compensation_plan(coeffs, FS, PaddingPlan(6, 30))


_STOCK_FILTERS = {"bandpass": make_bandpass, "lowpass": make_lowpass, "highpass": make_highpass}


@given(
    st.sampled_from(sorted(_STOCK_FILTERS)),
    st.sampled_from([250.0, 360.0, 1000.0, 5000.0]),
    st.integers(1, 4),
    st.integers(1, 300),
    st.booleans(),
    st.integers(0, 2**31 - 1),
    st.integers(0, 200),
    st.integers(0, 200),
)
@settings(max_examples=100)
def test_output_does_not_depend_on_the_pads(kind, rate, rows, length, integer, seed, a, b):
    # every pad sample past the least plan is one that no window output reads
    coeffs = _STOCK_FILTERS[kind]()
    rng = np.random.default_rng(seed)
    if integer:
        x = rng.integers(-2048, 2048, (rows, length)).astype(float)
    else:
        x = rng.normal(0.0, rng.uniform(0.01, 1000.0), (rows, length))
    signal = Signal(x, rate)
    shift = compensation_plan(coeffs, rate)[1]
    padded = filter_compensated(coeffs, signal, PaddingPlan(coeffs.order + a, shift + b))
    np.testing.assert_array_equal(
        padded.samples.view(np.int64), filter_compensated(coeffs, signal).samples.view(np.int64)
    )


_FILTERS = {
    **_STOCK_FILTERS,
    # leads an 8 Hz sinusoid at 360 Hz by 6 samples: a negative shift
    "lead6": lambda: FilterCoefficients(np.array([1.0, -0.9]), np.array([1.0])),
}


@given(
    st.sampled_from(sorted(_FILTERS)),
    st.sampled_from([250.0, 360.0, 1000.0, 5000.0]),
    st.integers(1, 4),
    st.integers(1, 300),
    st.booleans(),
    st.integers(0, 2**31 - 1),
    st.integers(0, 60),
    st.integers(0, 60),
)
@settings(max_examples=100)
def test_compensated_is_apply_filter_of_the_padded_rows(kind, rate, rows, length, integer, seed, a, b):
    # one convolution of the padded stack keeps, bit for bit, what filtering
    # each padded row alone gives in the window at lead + shift
    coeffs = _FILTERS[kind]()
    rng = np.random.default_rng(seed)
    if integer:
        x = rng.integers(-2048, 2048, (rows, length)).astype(float)
    else:
        x = rng.normal(0.0, rng.uniform(0.01, 1000.0), (rows, length))
    least, shift = compensation_plan(coeffs, rate)
    plan = PaddingPlan(least.lead + a, least.trail + b)
    padded = np.pad(x, ((0, 0), (plan.lead, plan.trail)), mode="edge")
    start = plan.lead + shift
    want = apply_filter(coeffs, Signal(padded, rate)).samples[:, start : start + length]
    got = filter_compensated(coeffs, Signal(x, rate), plan).samples
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_frequency_response_magnitudes():
    bp = make_bandpass()
    h = frequency_response(bp, [omega(0.5), omega(8.0), omega(60.0)])
    assert abs(h[0]) < 0.1 < abs(h[1])
    assert abs(h[2]) < 1e-12  # stage zeros at 60 Hz


def test_frequency_response_near_dc_matches_stage_product():
    # The rational band-pass form sums a triple zero against a triple pole
    # near DC; the cancelled form keeps full precision there.
    w = [omega(f) for f in (0.001, 0.01, 0.5, 8.0, 100.0)]
    stages = frequency_response(make_lowpass(), w) * frequency_response(make_highpass(), w)
    np.testing.assert_allclose(frequency_response(make_bandpass(), w), stages, rtol=1e-9)


def test_signal_validation():
    with pytest.raises(ValueError):
        Signal(np.ones(4), 0.0)
    # one row or an (N, L) stack of rows; nothing else
    for shape in ((), (2, 2, 2)):
        with pytest.raises(ValueError, match="one row or a matrix of rows"):
            Signal(np.ones(shape), FS)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_signal_rejects_non_finite_sample(bad):
    x = np.ones(720)
    x[300] = bad
    with pytest.raises(ValueError, match="sample 300 is not finite"):
        Signal(x, FS)
