import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ecgsym.encoding import SymbolSequence
from ecgsym.features import (
    FeatureVector,
    epsilon_n,
    extract_features,
    lz_complexity,
    lz_normalized,
    min_valid_length,
    shannon_entropy,
    shannon_entropy_normalized,
)

from oracles import entropy_bits, lz_count, lz_count_resumed, lz_phrases

binary_seqs = st.lists(st.integers(0, 1), min_size=1, max_size=120)
ternary_seqs = st.lists(st.sampled_from([-1, 0, 1]), min_size=1, max_size=120)


def binary(values) -> SymbolSequence:
    return SymbolSequence(np.array(list(values), dtype=int), 2)


def ternary(values) -> SymbolSequence:
    return SymbolSequence(np.array(list(values), dtype=int), 3)


# --- entropy ---------------------------------------------------------------------

def test_entropy_constant_is_zero():
    # == 0.0 also holds for -0.0, which prints as "-0.0"; copysign tells them apart
    for seq in (binary([1] * 50), ternary([-1] * 7), [2.5] * 3):
        h = shannon_entropy(seq)
        assert h == 0.0 and math.copysign(1.0, h) == 1.0
    assert math.copysign(1.0, shannon_entropy_normalized(ternary([0] * 9))) == 1.0


def test_entropy_uniform_binary_is_one_bit():
    assert shannon_entropy(binary([0, 1, 0, 1])) == 1.0


def test_entropy_three_one_split():
    expected = entropy_bits([0, 0, 0, 1])
    assert expected == pytest.approx(0.811278, abs=1e-6)
    assert shannon_entropy(binary([0, 0, 0, 1])) == pytest.approx(expected, abs=1e-12)


def test_entropy_accepts_plain_sequences():
    assert shannon_entropy([4, 4, 5, 5]) == 1.0
    with pytest.raises(ValueError, match="empty"):
        shannon_entropy([])


def test_normalized_uniform_ternary_is_one():
    seq = ternary([-1, 0, 1] * 10)
    assert shannon_entropy_normalized(seq) == pytest.approx(1.0, abs=1e-12)


def test_normalized_binary_read_as_ternary():
    value = shannon_entropy_normalized([0, 1, 0, 1], alphabet_size=3)
    assert value == pytest.approx(1.0 / math.log2(3), rel=1e-12)


def test_normalized_constant_is_zero():
    assert shannon_entropy_normalized(ternary([0] * 9)) == 0.0


def test_normalized_requires_alphabet_for_plain_input():
    with pytest.raises(ValueError, match="alphabet_size"):
        shannon_entropy_normalized([0, 1])


@given(st.lists(st.integers(0, 1), min_size=2, max_size=60))
def test_entropy_permutation_invariant(values):
    rng = np.random.default_rng(0)
    shuffled = list(values)
    rng.shuffle(shuffled)
    assert shannon_entropy(binary(values)) == pytest.approx(
        shannon_entropy(binary(shuffled)), abs=1e-12
    )


def test_lz_not_permutation_invariant_witness():
    a, b = [0, 1, 1, 0, 1, 0], [0, 0, 1, 0, 1, 1]
    assert sorted(a) == sorted(b)
    assert lz_count(a) == 4 and lz_count(b) == 3
    assert lz_complexity(binary(a)) == 4
    assert lz_complexity(binary(b)) == 3


# --- parsing complexity -------------------------------------------------------------

def test_lz_single_symbol():
    assert lz_complexity(binary([0])) == 1


def test_lz_textbook_parse():
    seq = [int(c) for c in "0001101001000101"]
    phrases = ["".join(map(str, p)) for p in lz_phrases(seq)]
    assert phrases == ["0", "001", "10", "100", "1000", "101"]
    assert lz_complexity(binary(seq)) == 6


def test_lz_all_zeros():
    assert lz_count([0] * 10) == 2
    assert lz_complexity(binary([0] * 10)) == 2


def test_lz_matches_oracle_exhaustively_small():
    for n in range(1, 11):
        for bits in range(2**n):
            seq = [(bits >> i) & 1 for i in range(n)]
            assert lz_complexity(binary(seq)) == lz_count(seq), seq


def test_lz_matches_oracle_random_ternary():
    rng = np.random.default_rng(99)
    for _ in range(200):
        seq = rng.integers(-1, 2, size=60)
        assert lz_complexity(ternary(seq)) == lz_count(seq)


@given(st.one_of(binary_seqs, ternary_seqs))
def test_lz_bounds(values):
    c = lz_count(values)
    assert 1 <= c <= len(values)
    alphabet = 2 if min(values, default=0) >= 0 else 3
    assert lz_complexity(SymbolSequence(np.array(values), alphabet)) == c


@given(st.integers(2, 200))
def test_lz_constant_runs(n):
    assert lz_complexity(binary([1] * n)) == 2


@given(
    st.lists(st.tuples(st.sampled_from([-1, 0, 1]), st.integers(1, 60)), min_size=1, max_size=30)
)
def test_lz_matches_oracle_on_long_runs(runs):
    values = [v for v, length in runs for _ in range(length)]
    assert lz_complexity(ternary(values)) == lz_count(values)


# lengths 1-40 cross the edge of the parse's 8-symbol windows several times
any_bytes = st.binary(min_size=1, max_size=40)
few_symbol_bytes = st.integers(1, 3).flatmap(
    lambda a: st.lists(st.integers(0, a - 1), min_size=1, max_size=40).map(bytes)
)
# a periodic row, its last copy running up to and past a window edge,
# then a run of the zero byte the windows are padded with (maybe none)
periodic_zero_tails = st.builds(
    lambda head, reps, zeros: head * reps + bytes(zeros),
    st.binary(min_size=1, max_size=12),
    st.integers(1, 40),
    st.integers(0, 20),
)


@given(st.one_of(any_bytes, few_symbol_bytes, periodic_zero_tails))
@example(b"\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00")  # ends in the window's pad byte
@example(b"\x00\x01" + bytes(17))
@example(b"\x02\x01" * 20)  # a periodic row whose last copy runs to the end
@example(b"\x00\x01\x02" * 13)
def test_lz_matches_resumed_parse_on_bytes(s):
    assert lz_complexity(s) == lz_count_resumed(s)
    if len(s) <= 40:
        assert lz_complexity(s) == lz_count(s)


def test_features_reject_empty_bytes():
    for feature in (lz_complexity, shannon_entropy):
        with pytest.raises(ValueError, match="a plain sequence must be one non-empty row"):
            feature(b"")


def test_lz_plain_sequences_code_values_by_equality():
    # 0.5 is its own symbol for both features, not a copy of 0
    assert lz_complexity([0, 0.5, 0, 0.5]) == 3 == lz_count([0, 1, 0, 1])
    assert shannon_entropy([0, 0.5, 0, 0.5]) == 1.0
    assert lz_complexity([-60, 3]) == 2
    assert lz_complexity([7, 7, 7]) == lz_complexity(binary([0, 0, 0]))


@given(st.lists(st.sampled_from([-60, -0.5, 0, 0.5, 3, 1e9]), min_size=1, max_size=80))
def test_lz_plain_sequences_match_oracle_on_ranks(values):
    ranks = sorted(set(values))
    assert lz_complexity(values) == lz_count([ranks.index(v) for v in values])


def test_plain_sequences_limit_distinct_values():
    assert lz_complexity(list(range(256))) == 256
    for feature in (lz_complexity, shannon_entropy):
        with pytest.raises(ValueError, match="at most 256"):
            feature(list(range(257)))


def test_lz_normalized_values():
    assert lz_normalized(binary([0] * 512)) == 2 * 9 / 512
    seq = binary([int(c) for c in "0001101001000101"])
    assert lz_normalized(seq) == 6 * 4 / 16
    pair = binary([0, 1])
    assert lz_normalized(pair) == lz_complexity(pair) / 2  # log_alpha(alpha) = 1


def test_lz_normalized_rejects_length_one():
    with pytest.raises(ValueError, match="too short"):
        lz_normalized(binary([0]))


# --- validity bound -------------------------------------------------------------------

def test_epsilon_values():
    assert epsilon_n(2, 361) == pytest.approx(0.9998517856289, abs=1e-9)
    assert epsilon_n(2, 361) < 1.0 < epsilon_n(2, 360)
    assert epsilon_n(2, 16) == pytest.approx(2 * (1 + math.log2(5)) / 4, abs=1e-12)
    assert epsilon_n(2, 10**6) == pytest.approx(0.5406105901, abs=1e-9)
    assert epsilon_n(2, 2**40) < 0.35


def test_epsilon_parameter_validation():
    for alpha, n in ((1, 100), (2, 1), (0, 10)):
        with pytest.raises(ValueError):
            epsilon_n(alpha, n)


def test_epsilon_monotone_decreasing():
    for alpha in (2, 3):
        ns = np.arange(16, 100001, dtype=float)
        la = np.log2(ns) / math.log2(alpha)
        laa = np.log2(np.log2(alpha * ns) / math.log2(alpha)) / math.log2(alpha)
        eps = 2 * (1 + laa) / la
        assert np.all(np.diff(eps) < 0)
        for n in (16, 361, 5000):
            assert epsilon_n(alpha, n) == pytest.approx(eps[n - 16], rel=1e-12)


def test_min_valid_length_by_direct_search():
    def condition(alpha, n):
        la = lambda x: math.log2(x) / math.log2(alpha)
        return (1 + la(la(alpha * n))) / la(n) < 0.5

    for alpha, expected in ((2, 361), (3, 366)):
        first = next(n for n in range(2, 1000) if condition(alpha, n))
        assert first == expected
        assert min_valid_length(alpha) == expected
        assert not condition(alpha, expected - 1)


def test_min_valid_length_rejects_bad_alphabet():
    with pytest.raises(ValueError):
        min_valid_length(1)


# --- combined extraction ----------------------------------------------------------------

def test_extract_features_random_binary_near_one():
    rng = np.random.default_rng(2024)
    hs, cs = [], []
    for _ in range(100):
        fv = extract_features(binary(rng.integers(0, 2, 720)))
        hs.append(fv.h_norm)
        cs.append(fv.c_norm)
    assert abs(np.mean(hs) - 1.0) < 0.1
    assert abs(np.mean(cs) - 1.0) < 0.1


def test_extract_features_constant_with_check_disabled():
    fv = extract_features(binary([0] * 720), enforce_min_length=False)
    assert fv == FeatureVector(0.0, 2 * math.log2(720) / 720)
    assert fv.c_norm == pytest.approx(0.02637, abs=1e-5)


def test_extract_features_rejects_short_sequences():
    with pytest.raises(ValueError, match="below the minimum valid length"):
        extract_features(binary([0, 1] * 180))  # length 360, bound 361
    fv = extract_features(binary([0, 1] * 180), enforce_min_length=False)
    assert fv.h_norm == 1.0


@given(st.one_of(binary_seqs, ternary_seqs), st.sampled_from([2, 3]))
def test_normalization_consistency(values, alpha):
    if alpha == 2 and min(values) < 0:
        alpha = 3
    seq = SymbolSequence(np.array(values), alpha)
    assert shannon_entropy_normalized(seq) == shannon_entropy(seq) / math.log2(alpha)
