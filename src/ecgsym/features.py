"""Entropy and complexity of symbol sequences.

Shannon entropy (raw bits and normalized by the alphabet size), the
production-count complexity of the left-to-right exhaustive parsing,
its length-normalized form, and the minimum sequence length at which
that normalization is meaningful.

Every measure works along the last axis: a matrix of symbol rows gives
per-row values, each bit for bit that of the row alone.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .encoding import SymbolSequence


@dataclass(frozen=True)
class FeatureVector:
    """Entropy-complexity coordinates of a sequence (per-row arrays for a matrix)."""

    h_norm: float
    c_norm: float


def _as_symbols(seq) -> np.ndarray:
    """Small non-negative codes, one per symbol, that preserve equality.

    A :class:`SymbolSequence` (one row or a matrix) is shifted from
    {-1, 0, 1} to {0, 1, 2}; one row's non-empty bytes are their own codes.
    """
    if isinstance(seq, SymbolSequence):
        return (seq.symbols + 1).astype(np.uint8)
    if isinstance(seq, bytes) and seq:
        return np.frombuffer(seq, dtype=np.uint8)
    raise ValueError("expected a SymbolSequence or one row's non-empty bytes")


def _per_row(values: np.ndarray):
    """A float for a single sequence, the per-row array for a matrix."""
    return float(values) if values.ndim == 0 else values


def shannon_entropy(seq) -> float:
    """Entropy in bits of the empirical symbol distribution of each row.

    Probabilities are relative frequencies over the row; symbols that
    never occur contribute nothing.
    """
    codes = _as_symbols(seq)
    # each row's count of each code, the codes along the last axis
    counts = [np.count_nonzero(codes == c, axis=-1) for c in range(int(codes.max()) + 1)]
    p = np.stack(counts, axis=-1) / codes.shape[-1]
    # log2 only where p > 0, so an absent symbol adds an exact 0.0
    plogp = p * np.log2(p, out=np.zeros_like(p), where=p > 0)
    # 0.0 - x rather than -x, so a constant row gives +0.0, not -0.0
    return _per_row(0.0 - plogp.sum(axis=-1))


def shannon_entropy_normalized(seq: SymbolSequence) -> float:
    """Entropy divided by log2 of the declared alphabet size.

    Uses the declared alphabet, not the count of observed symbols, so a
    ternary sequence that uses two symbols normalizes to less than 1.
    """
    return shannon_entropy(seq) / math.log2(seq.alphabet_size)


@lru_cache(maxsize=None)
def _lz_kernel():
    """``lz_row`` of ``_lz.c``, built at the first call (:func:`_native.build`), or None."""
    from ._native import build

    source = Path(__file__).with_name("_lz.c")
    return build(source, "lz_row", ctypes.c_long, ctypes.c_char_p, ctypes.c_long)


def lz_complexity(seq) -> int:
    """Number of phrases in the left-to-right exhaustive parsing of one sequence.

    Scanning from the left, the current phrase is extended while it can
    be copied from somewhere in the sequence strictly before the phrase's
    last symbol (the copy may overlap the phrase being built); the
    first non-copyable extension closes the phrase. A trailing phrase cut
    short by the end of the sequence counts as one.

    Rows of codes below 4 are counted by the compiled suffix-automaton
    kernel of ``_lz.c`` (:func:`_lz_kernel`); where it cannot be built, and
    for larger codes, the Python parse below gives the same count.

    The parse tries the word ``s[m : m + k]`` against ``p``, the earliest
    copy of all but its last symbol. A copy of a word is a copy of its
    prefix, so the earliest copy never moves left as the word grows: only
    where the copy at ``p`` does not go on with the word's last symbol does
    the search resume, at ``p + 1``; the phrase closes when no copy is left.
    """
    if isinstance(seq, bytes) and seq:
        s = seq  # its own codes, as :func:`_as_symbols` reads them
    else:
        codes = _as_symbols(seq)
        if codes.ndim != 1:
            raise ValueError("lz_complexity parses one sequence, not rows")
        s = codes.tobytes()
    n = len(s)
    kernel = _lz_kernel()
    if kernel is not None and (count := kernel(s, n)) >= 0:
        return count
    # the first symbol has nothing before it to copy, so it is a phrase alone
    count, m, k, p = 1, 1, 1, 0
    while m + k <= n:
        if s[p + k - 1] != s[m + k - 1]:
            p = s.find(s[m : m + k], p + 1, m + k - 1)
        if p != -1:
            k += 1
        else:
            count, m, k, p = count + 1, m + k, 1, 0
    return count + (k > 1)  # the trailing phrase, if the end cut it short


def _log_base(alpha: int, x: float) -> float:
    return math.log2(x) / math.log2(alpha)


def lz_normalized(seq: SymbolSequence) -> float:
    """Phrase count over the bound n / log_alpha(n); one :func:`lz_complexity` per row."""
    codes = _as_symbols(seq)
    n = codes.shape[-1]
    if n < 2:
        raise ValueError("sequence too short to normalize")
    counts = np.array([lz_complexity(row.tobytes()) for row in codes.reshape(-1, n)])
    return _per_row(counts.reshape(codes.shape[:-1]) * _log_base(seq.alphabet_size, n) / n)


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
    """Normalized entropy and complexity of an encoded segment, or per-row
    arrays of both for a matrix of encoded segments.

    By default rejects rows shorter than :func:`min_valid_length` for
    their alphabet; pass ``enforce_min_length=False`` to compute on short
    rows anyway.
    """
    bound = min_valid_length(seq.alphabet_size)
    length = seq.symbols.shape[-1]
    if enforce_min_length and length < bound:
        raise ValueError(
            f"sequence length {length} is below the minimum valid length "
            f"{bound} for alphabet size {seq.alphabet_size}"
        )
    return FeatureVector(shannon_entropy_normalized(seq), lz_normalized(seq))
