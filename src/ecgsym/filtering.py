"""Digital filtering for short biosignal segments.

Implements the integer-coefficient low-pass / high-pass pair used for
QRS-band filtering at 360 Hz (and their cascade as a single band-pass),
analytic group and phase delay, and an edge-padding procedure that
returns a filtered segment phase-aligned with and equal in length to its
input.

Filtering works along the last axis: a :class:`Signal` holds one segment
or an (N, L) stack at one sample rate, and a stack gives each row bit for
bit as filtering that row alone does.

Every filter is FIR. A denominator must be a constant or cancel to one
against numerator zeros at z = 1; each stock denominator is a power of
(1 - z^-1) that does, so every stock filter has integer taps and one
integer divisor (the band-pass: 42 taps over 1152). A filter call pads
each row, convolves the whole stack once and divides the outputs it
keeps, so an integer-valued input gives each output as the correctly
rounded K/divisor for an integer K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate

import numpy as np

DEFAULT_SAMPLE_RATE = 360.0
PASSBAND_CENTER_HZ = 8.0


@dataclass(eq=False)
class Signal:
    """A uniformly sampled real-valued waveform, or an (N, L) stack of them
    at one sample rate; every sample must be finite."""

    samples: np.ndarray
    sample_rate: float = DEFAULT_SAMPLE_RATE

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim not in (1, 2):
            raise ValueError("signal samples must be one row or a matrix of rows")
        if not np.isfinite(self.samples).all():  # locate the first bad sample only on failure
            bad = np.argwhere(~np.isfinite(self.samples))[0]
            at = ", ".join(str(i) for i in bad)
            raise ValueError(f"signal sample {at} is not finite: {self.samples[tuple(bad)]!r}")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")

    def __len__(self) -> int:
        return self.samples.size


def _cancel_unit_poles(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """The taps left once (1 - z^-1) is divided out of both polynomials until
    the denominator is its leading coefficient alone.

    The division runs in exact rationals: a step is taken only when both
    coefficient sums are exactly zero (no remainder) and every quotient
    coefficient is a float. A denominator that does not reduce so raises.
    """
    # integral values as ints, whose arithmetic is just as exact and far faster
    b, a = ([int(v) if v.is_integer() else Fraction(v) for v in c.tolist()] for c in (num, den))
    while len(a) > 1:
        qb, qa = list(accumulate(b[:-1])), list(accumulate(a[:-1]))
        if len(b) == 1 or sum(b) != 0 or sum(a) != 0 or any(float(q) != q for q in qb + qa):
            raise ValueError(
                f"denominator {den.tolist()} does not cancel to a constant: "
                "only FIR filters are supported"
            )
        b, a = qb, qa
    return np.array([float(v) for v in b])


@dataclass(eq=False)
class FilterCoefficients:
    """FIR transfer-function coefficients in rational form.

    The denominator is normalized on construction so its leading
    coefficient is 1; the numerator is rescaled accordingly. Common
    (1 - z^-1) factors are cancelled exactly, and the denominator must
    cancel to a constant: any other raises ``ValueError``. The filter then
    runs as ``taps`` (the reduced numerator at the given scale) over
    ``divisor`` (the leading denominator coefficient).
    """

    numerator: np.ndarray
    denominator: np.ndarray
    taps: np.ndarray = field(init=False, repr=False)
    divisor: float = field(init=False, repr=False)

    def __post_init__(self):
        num = np.asarray(self.numerator, dtype=float)
        den = np.asarray(self.denominator, dtype=float)
        if num.size == 0 or den.size == 0:
            raise ValueError("numerator and denominator must be non-empty")
        if not (np.isfinite(num).all() and np.isfinite(den).all()):
            raise ValueError("filter coefficients must be finite")
        if den[0] == 0:
            raise ValueError("leading denominator coefficient must be nonzero")
        self.numerator = num / den[0]
        self.denominator = den / den[0]
        self.taps = _cancel_unit_poles(num, den)
        self.divisor = float(den[0])

    @property
    def order(self) -> int:
        return max(self.numerator.size, self.denominator.size) - 1


def _lowpass_polynomials() -> tuple[np.ndarray, np.ndarray]:
    num = np.zeros(13)
    num[0], num[6], num[12] = 1.0, -2.0, 1.0
    return num, np.array([36.0, -72.0, 36.0])


def _highpass_polynomials() -> tuple[np.ndarray, np.ndarray]:
    num = np.zeros(33)
    num[0], num[16], num[17], num[32] = -1.0, 32.0, -32.0, 1.0
    return num, np.array([32.0, -32.0])


def make_lowpass() -> FilterCoefficients:
    """Low-pass stage: (1 - 2z^-6 + z^-12) / (36 - 72z^-1 + 36z^-2).

    Cancelled, this is (1 + z^-1 + ... + z^-5)^2 / 36: 11 taps over 36.
    """
    return FilterCoefficients(*_lowpass_polynomials())


def make_highpass() -> FilterCoefficients:
    """High-pass stage: (-1 + 32z^-16 - 32z^-17 + z^-32) / (32 - 32z^-1).

    Cancelled, this is 32 taps over 32.
    """
    return FilterCoefficients(*_highpass_polynomials())


def make_bandpass() -> FilterCoefficients:
    """Cascade of the low-pass and high-pass stages as one rational form.

    Numerator is the degree-44 product of the stage numerators scaled by
    1/1152; denominator is (1 - z^-1)^3. All three poles at z = 1 cancel,
    leaving a pure FIR of 42 integer taps over 1152 whose taps sum to 0
    (sum of absolute taps 1,528).
    """
    (b_low, a_low), (b_high, a_high) = _lowpass_polynomials(), _highpass_polynomials()
    return FilterCoefficients(np.convolve(b_low, b_high), np.convolve(a_low, a_high))


def apply_filter(coeffs: FilterCoefficients, signal: Signal) -> Signal:
    """Filter each row: lead it with ``taps.size - 1`` zeros, convolve the
    stack once with the taps, drop the lead and divide.

    Rows must be non-empty. Sample references before the start of a row
    read as the zeros of its lead, so the output has the shape and sample
    rate of the input. For integer taps (every stock filter) with
    integer-valued input and max|x| * sum|taps| < 2**53, every partial sum
    is an exact integer K, so each output is the correctly rounded
    K / divisor.
    """
    x = signal.samples
    if x.size == 0:
        raise ValueError("empty signal")
    history = coeffs.taps.size - 1
    led = np.pad(np.atleast_2d(x), ((0, 0), (history, 0)))
    y = np.convolve(led.ravel(), coeffs.taps)[: led.size].reshape(led.shape)
    return Signal((y[:, history:] / coeffs.divisor).reshape(x.shape), signal.sample_rate)


def _poly_sums(c: np.ndarray, omegas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P = sum c_n e^{-j omega n} and P' = sum n c_n e^{-j omega n} at each omega.

    Row sums rather than a matrix product: the complex BLAS call costs a
    quarter megabyte of resident memory and is no faster at these sizes.
    """
    n = np.arange(c.size)
    terms = np.exp(-1j * np.outer(omegas, n)) * c
    return terms.sum(axis=1), (terms * n).sum(axis=1)


def frequency_response(coeffs: FilterCoefficients, omegas) -> np.ndarray:
    """Evaluate the transfer function at angular frequencies (rad/sample).

    The cancelled form taps / divisor is evaluated, so no cancelled
    zero/pole pair is summed in floating point.
    """
    w = np.atleast_1d(np.asarray(omegas, dtype=float))
    return _poly_sums(coeffs.taps, w)[0] / coeffs.divisor


def _response_and_delay(coeffs: FilterCoefficients, omega: float) -> tuple[complex, float]:
    """H and the analytic group delay Re(B'/B) at omega in (0, pi).

    B is the cancelled numerator (the taps); the cancelled factors add the
    same delay to numerator and denominator and drop out. A zero at
    ``omega`` raises, since the phase is undefined there.
    """
    if not 0.0 < omega < math.pi:
        raise ValueError("omega must lie strictly between 0 and pi")
    total, slope = (v[0] for v in _poly_sums(coeffs.taps, np.array([omega])))
    if abs(total) <= 1e-12 * np.abs(coeffs.taps).sum():
        raise ValueError(f"phase undefined at omega={omega}: transfer-function zero")
    return total / coeffs.divisor, float((slope / total).real)


def group_delay(coeffs: FilterCoefficients, omega: float) -> float:
    """Negative derivative of the unwrapped phase response, in samples.

    ``omega`` must lie strictly inside (0, pi) and away from zeros of the
    transfer function.
    """
    return _response_and_delay(coeffs, omega)[1]


def alignment_delay(coeffs: FilterCoefficients, omega: float) -> float:
    """Delay in samples that superposes a filtered sinusoid on its input.

    This is the phase delay -angle(H)/omega, taken on the 2*pi branch
    closest to the group delay, so it tracks the envelope delay while
    matching the carrier phase. For a filter that is not exactly linear
    phase the two delays differ, and waveform alignment follows this
    quantity rather than the group delay.
    """
    h, tau_g = _response_and_delay(coeffs, omega)
    d = -np.angle(h) / omega
    period = 2.0 * math.pi / omega
    return float(d + round((tau_g - d) / period) * period)


@dataclass(frozen=True)
class PaddingPlan:
    """Lead/trail pad lengths (in samples) for compensated filtering;
    :func:`compensation_plan` rejects a plan below the least one."""

    lead: int
    trail: int


def compensation_plan(
    coeffs: FilterCoefficients,
    sample_rate: float = DEFAULT_SAMPLE_RATE,
    plan: PaddingPlan | None = None,
) -> tuple[PaddingPlan, int]:
    """Pad lengths and extraction shift (the rounded :func:`alignment_delay`
    at ``PASSBAND_CENTER_HZ``, evaluated once) of compensated filtering.

    The default ``plan`` is the least one: the window starts at the filter
    order, past the transient, and ends at the padded row's end (lead 44
    and trail 21 for the band-pass at 360 Hz; a negative shift adds to the
    lead). A larger plan adds pad that no output reads; a smaller raises.
    """
    if sample_rate <= 0:
        raise ValueError("sample_rate must be positive")
    delay = alignment_delay(coeffs, 2.0 * math.pi * PASSBAND_CENTER_HZ / sample_rate)
    shift = int(round(delay))
    least = PaddingPlan(coeffs.order + max(-shift, 0), max(shift, 0))
    plan = least if plan is None else plan
    if plan.lead < least.lead or plan.trail < least.trail:
        raise ValueError(
            f"insufficient padding: need lead >= {least.lead} and trail >= {least.trail}, "
            f"got lead={plan.lead}, trail={plan.trail}"
        )
    return plan, shift


def filter_compensated(
    coeffs: FilterCoefficients,
    signal: Signal,
    plan: PaddingPlan | None = None,
) -> Signal:
    """Filter each (non-empty) row without losing samples to transient or delay.

    Each row is extended with replicas of its first sample on the left
    and its last sample on the right, the padded stack is convolved once
    with the taps, and a window of the row's length starting at
    ``lead + shift`` (both from one :func:`compensation_plan` call with
    ``plan``) is divided by the divisor. The result has the shape of the
    input and is phase-aligned with it at the passband center.
    """
    x = signal.samples
    if x.size == 0:
        raise ValueError("empty signal")
    plan, shift = compensation_plan(coeffs, signal.sample_rate, plan)
    padded = np.pad(np.atleast_2d(x), ((0, 0), (plan.lead, plan.trail)), mode="edge")
    y = np.convolve(padded.ravel(), coeffs.taps)[: padded.size].reshape(padded.shape)
    del padded  # freed before the window is made: two stacks are held at most
    start = plan.lead + shift  # >= order >= taps.size - 1: no kept output reads the row before
    window = y[:, start : start + x.shape[-1]] / coeffs.divisor
    return Signal(window.reshape(x.shape), signal.sample_rate)
