"""Coarse-graining of signal segments into symbol sequences.

Four schemes: sign-of-slope and mean-relative-threshold, each producing a
binary or ternary alphabet, all read by one rule in :func:`encode`. Slope
emits one symbol per consecutive sample pair (one fewer than the input
length); threshold emits one symbol per sample.

Encoding works along the last axis: an (N, L) stack gives a matrix
of symbol rows, each bit for bit the encoding of that row alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .filtering import Signal

SLOPE = "slope"
THRESHOLD = "threshold"

_ALPHABETS = {2: (0, 1), 3: (-1, 0, 1)}


@dataclass(eq=False)
class SymbolSequence:
    """A finite sequence over the binary {0,1} or ternary {-1,0,1} alphabet,
    or a matrix of such sequences (one per row)."""

    symbols: np.ndarray
    alphabet_size: int

    def __post_init__(self):
        raw = np.asarray(self.symbols)
        if raw.ndim not in (1, 2):
            raise ValueError("symbols must be one row or a matrix of rows")
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
    methods and forbidden for slope methods. A ternary band only exists
    for a non-negative deviation.
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
            if self.alphabet_size == 3 and self.deviation < 0:
                raise ValueError("ternary threshold requires non-negative deviation")
        elif self.deviation is not None:
            raise ValueError("slope encoding takes no deviation")

    @property
    def label(self) -> str:
        kind = "binary" if self.alphabet_size == 2 else "ternary"
        if self.method == SLOPE:
            return f"slope-{kind}"
        return f"threshold-{kind}(E={self.deviation:g})"


def check_zero_tol(zero_tol: float) -> None:
    """Raise unless the slope encoders' flat-band half-width is finite and
    non-negative; every comparison with NaN is false, so NaN would
    otherwise pass as a flat band that no step falls outside."""
    if not 0 <= zero_tol < math.inf:
        raise ValueError(f"zero_tol must be finite and non-negative, not {zero_tol!r}")


def encode(signal, spec: EncoderSpec, zero_tol: float = 0.0) -> SymbolSequence:
    """The symbols of each row of ``signal`` under ``spec``.

    Every scheme compares values with a cut ``low`` and a band top ``high``.
    Slope compares the steps between consecutive samples with
    (-zero_tol, zero_tol); threshold compares the samples with mean -/+
    deviation * range, and binary puts both ends at mean + deviation *
    range. Binary gives 1 where a value reaches ``low``, else 0. Ternary
    gives 1 above ``high``, -1 below ``low`` and 0 inside the closed band.
    """
    x = (signal if isinstance(signal, Signal) else Signal(signal)).samples
    if spec.method == SLOPE:
        if x.shape[-1] < 2:
            raise ValueError("segment too short for slope encoding")
        check_zero_tol(zero_tol)
        values, low, high = np.diff(x, axis=-1), -zero_tol, zero_tol
    else:
        if x.size == 0:
            raise ValueError("empty signal")
        mean = x.mean(axis=-1, keepdims=True)
        spread = spec.deviation * np.ptp(x, axis=-1, keepdims=True)
        values, high = x, mean + spread
        low = high if spec.alphabet_size == 2 else mean - spread
    if spec.alphabet_size == 2:
        return SymbolSequence((values >= low).astype(np.int8), 2)
    return SymbolSequence((values > high).astype(np.int8) - (values < low), 3)
