"""Coarse-graining of signal segments into symbol sequences.

Four schemes: sign-of-slope and mean-relative-threshold, each producing a
binary or ternary alphabet. Slope encoders emit one symbol per consecutive
sample pair (one fewer than the input length); threshold encoders emit one
symbol per sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .filtering import Signal

SLOPE = "slope"
THRESHOLD = "threshold"

_ALPHABETS = {2: (0, 1), 3: (-1, 0, 1)}


def _samples(signal) -> np.ndarray:
    if isinstance(signal, Signal):
        return signal.samples
    return np.asarray(signal, dtype=float)


@dataclass(eq=False)
class SymbolSequence:
    """A finite sequence over the binary {0,1} or ternary {-1,0,1} alphabet."""

    symbols: np.ndarray
    alphabet_size: int

    def __post_init__(self):
        raw = np.asarray(self.symbols)
        if raw.size == 0:
            raise ValueError("empty sequence")
        if self.alphabet_size not in _ALPHABETS:
            raise ValueError("alphabet_size must be 2 or 3")
        alphabet = _ALPHABETS[self.alphabet_size]
        # validate before narrowing the dtype so out-of-range values cannot
        # wrap; NaN fails both range comparisons
        if (
            raw.dtype.kind not in "biuf"
            or not alphabet[0] <= raw.min()
            or not raw.max() <= alphabet[-1]
            or (raw.dtype.kind == "f" and (raw % 1).any())
        ):
            raise ValueError("symbols outside the declared alphabet")
        self.symbols = raw.astype(np.int8)

    def __len__(self) -> int:
        return self.symbols.size


@dataclass(frozen=True)
class EncoderSpec:
    """Selects one of the four encoding schemes.

    ``deviation`` is the threshold offset from the segment mean as a
    fraction of the peak-to-peak range; it is required for threshold
    methods and forbidden for slope methods.
    """

    method: str
    alphabet_size: int
    deviation: float | None = None

    def __post_init__(self):
        if self.method not in (SLOPE, THRESHOLD):
            raise ValueError(f"unknown encoding method {self.method!r}")
        if self.alphabet_size not in (2, 3):
            raise ValueError("alphabet_size must be 2 or 3")
        if self.method == THRESHOLD:
            if self.deviation is None:
                raise ValueError("threshold encoding requires a deviation")
            if not abs(self.deviation) < 0.5:
                raise ValueError("deviation magnitude must be below 1/2")
        elif self.deviation is not None:
            raise ValueError("slope encoding takes no deviation")

    @property
    def label(self) -> str:
        kind = "binary" if self.alphabet_size == 2 else "ternary"
        if self.method == SLOPE:
            return f"slope-{kind}"
        return f"threshold-{kind}(E={self.deviation:g})"


def encode_slope_binary(signal, zero_tol: float = 0.0) -> SymbolSequence:
    """1 where the step to the next sample is non-negative, else 0.

    Steps within ``zero_tol`` of zero count as flat and take the
    non-negative branch.
    """
    x = _samples(signal)
    if x.size < 2:
        raise ValueError("segment too short for slope encoding")
    if zero_tol < 0:
        raise ValueError("zero_tol must be non-negative")
    steps = np.diff(x)
    return SymbolSequence((steps >= -zero_tol).astype(np.int8), 2)


def encode_slope_ternary(signal, zero_tol: float = 0.0) -> SymbolSequence:
    """1 for a rising step, -1 for a falling step, 0 within the flat band."""
    x = _samples(signal)
    if x.size < 2:
        raise ValueError("segment too short for slope encoding")
    if zero_tol < 0:
        raise ValueError("zero_tol must be non-negative")
    steps = np.diff(x)
    out = np.zeros(steps.size, dtype=np.int8)
    out[steps > zero_tol] = 1
    out[steps < -zero_tol] = -1
    return SymbolSequence(out, 3)


def encode_threshold_binary(signal, deviation: float) -> SymbolSequence:
    """1 where the sample reaches mean + deviation * range, else 0."""
    x = _samples(signal)
    if x.size == 0:
        raise ValueError("empty signal")
    level = x.mean() + deviation * (x.max() - x.min())
    return SymbolSequence((x >= level).astype(np.int8), 2)


def encode_threshold_ternary(signal, deviation: float) -> SymbolSequence:
    """Three-way split around a symmetric band about the mean.

    1 above mean + deviation * range, -1 below mean - deviation * range,
    0 inside the closed band. The band only exists for deviation >= 0.
    """
    x = _samples(signal)
    if x.size == 0:
        raise ValueError("empty signal")
    if deviation < 0:
        raise ValueError("ternary threshold requires non-negative deviation")
    spread = deviation * (x.max() - x.min())
    upper = x.mean() + spread
    lower = x.mean() - spread
    out = np.zeros(x.size, dtype=np.int8)
    out[x > upper] = 1
    out[x < lower] = -1
    return SymbolSequence(out, 3)


def encode(signal, spec: EncoderSpec, zero_tol: float = 0.0) -> SymbolSequence:
    """Apply the scheme selected by ``spec`` to a signal."""
    if spec.method == SLOPE:
        if spec.alphabet_size == 2:
            return encode_slope_binary(signal, zero_tol)
        return encode_slope_ternary(signal, zero_tol)
    if spec.alphabet_size == 2:
        return encode_threshold_binary(signal, spec.deviation)
    return encode_threshold_ternary(signal, spec.deviation)
