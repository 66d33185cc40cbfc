"""Entropy and complexity of symbol sequences.

Shannon entropy (raw bits and normalized by the alphabet size), the
production-count complexity of the left-to-right exhaustive parsing,
its length-normalized form, and the minimum sequence length at which
that normalization is meaningful.

Every measure works along the last axis: a matrix of symbol rows gives
per-row values, each bit for bit that of the row alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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
    rows, k = codes.reshape(-1, codes.shape[-1]), int(codes.max()) + 1
    # one bincount, each row's codes offset into a block of its own
    blocks = rows + k * np.arange(len(rows))[:, None]
    counts = np.bincount(blocks.ravel(), minlength=k * len(rows))
    p = counts.reshape(codes.shape[:-1] + (k,)) / codes.shape[-1]
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


def lz_complexity(seq) -> int:
    """Number of phrases in the left-to-right exhaustive parsing of one sequence.

    Scanning from the left, the current phrase is extended while it can
    be copied from somewhere in the sequence strictly before the phrase's
    last symbol (the copy window may overlap the phrase being built); the
    first non-copyable extension closes the phrase. A trailing phrase cut
    short by the end of the sequence counts as one.

    The parse carries ``p``, the earliest start of a copy of the current
    phrase, which starts at ``m``. Every copy of a word is also a copy of
    its prefix, so the earliest copy never moves left as the phrase grows:
    if the symbol after the copy at ``p`` equals the next phrase symbol,
    ``p`` stays the earliest copy and the phrase extends without a search;
    otherwise the search resumes at ``p + 1``. A new phrase starts with
    ``p = 0``, since the empty prefix occurs everywhere before it. The loop
    keeps ``p`` as the distance ``d = m - p`` back to the copy and the
    phrase's extent as ``i``, the position of the next phrase symbol.

    The extension compares eight symbols at a time: ``win[j]`` holds
    ``s[j : j + 8]`` as one big-endian integer (zero bytes past the end),
    so ``win[i - d] ^ win[i]`` is 0 when the next eight symbols of copy and
    phrase agree, and otherwise its leading zero bytes count the symbols
    that agree before the first that differs. Past the end of the sequence
    the padding may agree or differ; either way ``i`` then runs past the
    end, which ends the parse with the trailing phrase open.
    """
    codes = _as_symbols(seq)
    if codes.ndim != 1:
        raise ValueError("lz_complexity parses one sequence, not rows")
    s = codes.tobytes()
    n = len(s)
    win = np.ndarray((n,), ">u8", s + bytes(7), 0, (1,)).tolist()
    # the first symbol has nothing before it to copy, so it is a phrase alone
    count, m, i, d = 1, 1, 1, 1
    while i < n:
        x = win[i - d] ^ win[i]
        if x == 0:
            i += 8
            continue
        i += (64 - x.bit_length()) >> 3
        if i >= n:
            break
        p = s.find(s[m : i + 1], m - d + 1, i)
        if p != -1:
            d = m - p
            i += 1
        else:
            count += 1
            m = i + 1
            i, d = m, m
    if i > m:
        count += 1
    return count


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
