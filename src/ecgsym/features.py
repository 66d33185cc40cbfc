"""Entropy and complexity of symbol sequences.

Shannon entropy (raw bits and normalized by the alphabet size), the
production-count complexity of the left-to-right exhaustive parsing,
its length-normalized form, and the minimum sequence length at which
that normalization is meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .encoding import SymbolSequence


@dataclass(frozen=True)
class FeatureVector:
    """Coordinates of a sequence in the entropy-complexity plane."""

    h_norm: float
    c_norm: float


_MAX_DISTINCT = 256


def _as_symbols(seq) -> np.ndarray:
    """Small non-negative codes, one per symbol, that preserve equality.

    A :class:`SymbolSequence` is shifted from {-1, 0, 1} to {0, 1, 2}; a
    plain sequence is rank-coded, so equal values share a code and
    distinct values get distinct ones. Codes fit in one byte each.
    """
    if isinstance(seq, SymbolSequence):
        return (seq.symbols + 1).astype(np.uint8)
    arr = np.asarray(seq)
    if arr.size == 0:
        raise ValueError("empty sequence")
    values, codes = np.unique(arr, return_inverse=True)
    if values.size > _MAX_DISTINCT:
        raise ValueError(
            f"{values.size} distinct symbols; at most {_MAX_DISTINCT} are supported"
        )
    return codes.astype(np.uint8)


def _alphabet_size(seq, alphabet_size) -> int:
    if alphabet_size is None:
        if not isinstance(seq, SymbolSequence):
            raise ValueError("alphabet_size is required for plain sequences")
        alphabet_size = seq.alphabet_size
    if alphabet_size < 2:
        raise ValueError("alphabet_size must be at least 2")
    return int(alphabet_size)


def shannon_entropy(seq) -> float:
    """Entropy in bits of the empirical symbol distribution.

    Probabilities are relative frequencies over the sequence; symbols
    that never occur contribute nothing.
    """
    codes = _as_symbols(seq)
    counts = np.bincount(codes)
    p = counts[counts > 0] / codes.size
    # 0.0 - x rather than -x, so a constant sequence gives +0.0, not -0.0
    return float(0.0 - (p * np.log2(p)).sum())


def shannon_entropy_normalized(seq, alphabet_size: int | None = None) -> float:
    """Entropy divided by log2 of the declared alphabet size.

    Uses the declared alphabet, not the count of observed symbols, so a
    binary sequence read as ternary normalizes to less than 1.
    """
    alpha = _alphabet_size(seq, alphabet_size)
    return shannon_entropy(seq) / math.log2(alpha)


def lz_complexity(seq) -> int:
    """Number of phrases in the left-to-right exhaustive parsing.

    Scanning from the left, the current phrase is extended while it can
    be copied from somewhere in the sequence strictly before the phrase's
    last symbol (the copy window may overlap the phrase being built); the
    first non-copyable extension closes the phrase. A trailing phrase cut
    short by the end of the sequence counts as one.

    The parse carries ``p``, the earliest start of a copy of the current
    phrase. Every copy of a word is also a copy of its prefix, so the
    earliest copy never moves left as the phrase grows: if the symbol
    after the copy at ``p`` equals the next phrase symbol, ``p`` stays the
    earliest copy and the phrase extends without a search; otherwise the
    search resumes at ``p + 1``. A new phrase starts with ``p = 0``, since
    the empty prefix occurs everywhere before it.
    """
    s = _as_symbols(seq).tobytes()
    n = len(s)
    # the first symbol has nothing before it to copy, so it is a phrase alone
    count, m, k, p = 1, 1, 1, 0
    while m + k <= n:
        if s[p + k - 1] == s[m + k - 1]:
            k += 1
            continue
        p = s.find(s[m : m + k], p + 1, m + k - 1)
        if p != -1:
            k += 1
        else:
            count += 1
            m += k
            k, p = 1, 0
    if k > 1:
        count += 1
    return count


def _log_base(alpha: int, x: float) -> float:
    return math.log2(x) / math.log2(alpha)


def lz_normalized(seq, alphabet_size: int | None = None) -> float:
    """Phrase count divided by the asymptotic bound n / log_alpha(n)."""
    alpha = _alphabet_size(seq, alphabet_size)
    n = _as_symbols(seq).size
    if n < 2:
        raise ValueError("sequence too short to normalize")
    return lz_complexity(seq) * _log_base(alpha, n) / n


def epsilon_n(alphabet_size: int, n: int) -> float:
    """Finite-length correction term of the parsing-complexity bound."""
    if alphabet_size < 2 or n < 2:
        raise ValueError("need alphabet_size >= 2 and n >= 2")
    la = lambda x: _log_base(alphabet_size, x)
    return 2.0 * (1.0 + la(la(alphabet_size * n))) / la(n)


@lru_cache(maxsize=None)
def min_valid_length(alphabet_size: int) -> int:
    """Smallest length at which the normalized complexity is meaningful.

    Found by direct search for the first n where the correction term
    epsilon_n drops below 1, i.e. (1 + log_a log_a(a*n)) / log_a(n) < 1/2.
    361 for a binary alphabet, 366 for a ternary one.
    """
    if not isinstance(alphabet_size, int) or alphabet_size < 2:
        raise ValueError("unsupported alphabet size")
    n = 2
    while epsilon_n(alphabet_size, n) >= 1.0:
        n += 1
    return n


def extract_features(seq: SymbolSequence, enforce_min_length: bool = True) -> FeatureVector:
    """Normalized entropy and complexity of an encoded segment.

    By default rejects sequences shorter than :func:`min_valid_length`
    for their alphabet; pass ``enforce_min_length=False`` to compute on
    short sequences anyway.
    """
    bound = min_valid_length(seq.alphabet_size)
    if enforce_min_length and len(seq) < bound:
        raise ValueError(
            f"sequence length {len(seq)} is below the minimum valid length "
            f"{bound} for alphabet size {seq.alphabet_size}"
        )
    return FeatureVector(shannon_entropy_normalized(seq), lz_normalized(seq))
