import ctypes
import math
import re
import shutil
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import ecgsym.features as features
import ecgsym.records as records
from ecgsym._native import build
from ecgsym.encoding import SymbolSequence
from ecgsym.experiment import load_features_csv
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
from ecgsym.records import read_text_signal

from oracles import entropy_bits, lz_count, lz_count_resumed, lz_phrases, read_feature_rows, read_text_column

binary_seqs = st.lists(st.integers(0, 1), min_size=1, max_size=120)
ternary_seqs = st.lists(st.sampled_from([-1, 0, 1]), min_size=1, max_size=120)


def binary(values) -> SymbolSequence:
    return SymbolSequence(np.array(list(values), dtype=int), 2)


def ternary(values) -> SymbolSequence:
    return SymbolSequence(np.array(list(values), dtype=int), 3)


# --- entropy ---------------------------------------------------------------------

def test_entropy_constant_is_zero():
    # == 0.0 also holds for -0.0, which prints as "-0.0"; copysign tells them apart
    for seq in (binary([1] * 50), ternary([-1] * 7)):
        h = shannon_entropy(seq)
        assert h == 0.0 and math.copysign(1.0, h) == 1.0
    assert math.copysign(1.0, shannon_entropy_normalized(ternary([0] * 9))) == 1.0


def test_entropy_uniform_binary_is_one_bit():
    assert shannon_entropy(binary([0, 1, 0, 1])) == 1.0


def test_entropy_three_one_split():
    expected = entropy_bits([0, 0, 0, 1])
    assert expected == pytest.approx(0.811278, abs=1e-6)
    assert shannon_entropy(binary([0, 0, 0, 1])) == pytest.approx(expected, abs=1e-12)


def test_normalized_uniform_ternary_is_one():
    seq = ternary([-1, 0, 1] * 10)
    assert shannon_entropy_normalized(seq) == pytest.approx(1.0, abs=1e-12)


def test_normalized_constant_is_zero():
    assert shannon_entropy_normalized(ternary([0] * 9)) == 0.0


@given(st.lists(st.integers(0, 1), min_size=2, max_size=60))
def test_entropy_permutation_invariant(values):
    rng = np.random.default_rng(0)
    shuffled = list(values)
    rng.shuffle(shuffled)
    assert shannon_entropy(binary(values)) == pytest.approx(
        shannon_entropy(binary(shuffled)), abs=1e-12
    )


# --- parsing complexity -------------------------------------------------------------
#
# Every count is taken twice: by the compiled kernel, and by the Python parse
# that lz_complexity falls back to when the loader finds no kernel.


def both_parses(feature, seq):
    """``feature(seq)`` by the compiled kernel and by the Python parse; the two must agree."""
    by_kernel = feature(seq)
    with mock.patch.object(features, "_lz_kernel", lambda: None):
        by_python = feature(seq)
    assert by_kernel == by_python
    return by_kernel


def lz(seq) -> int:
    return both_parses(lz_complexity, seq)


def test_kernel_loads_where_a_compiler_is_found():
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")
    assert features._lz_kernel() is not None and records._column_parser() is not None
    # a code above 3 is left to the Python parse
    assert features._lz_kernel()(b"\x00\x04", 2) == -1
    assert lz(b"\x00\x04\x00\x04") == lz_count(b"\x00\x04\x00\x04") == 3


def test_lz_not_permutation_invariant_witness():
    a, b = [0, 1, 1, 0, 1, 0], [0, 0, 1, 0, 1, 1]
    assert sorted(a) == sorted(b)
    assert lz_count(a) == 4 and lz_count(b) == 3
    assert lz(binary(a)) == 4
    assert lz(binary(b)) == 3


def test_lz_single_symbol():
    assert lz(binary([0])) == 1


def test_lz_textbook_parse():
    seq = [int(c) for c in "0001101001000101"]
    phrases = ["".join(map(str, p)) for p in lz_phrases(seq)]
    assert phrases == ["0", "001", "10", "100", "1000", "101"]
    assert lz(binary(seq)) == 6


def test_lz_all_zeros():
    assert lz_count([0] * 10) == 2
    assert lz(binary([0] * 10)) == 2


def test_lz_matches_oracle_exhaustively_small():
    for n in range(1, 11):
        for bits in range(2**n):
            seq = [(bits >> i) & 1 for i in range(n)]
            assert lz(binary(seq)) == lz_count(seq), seq


def test_lz_matches_oracle_random_ternary():
    rng = np.random.default_rng(99)
    for _ in range(200):
        seq = rng.integers(-1, 2, size=60)
        assert lz(ternary(seq)) == lz_count(seq)


@given(st.one_of(binary_seqs, ternary_seqs))
def test_lz_bounds(values):
    c = lz_count(values)
    assert 1 <= c <= len(values)
    alphabet = 2 if min(values, default=0) >= 0 else 3
    assert lz(SymbolSequence(np.array(values), alphabet)) == c


@given(st.integers(2, 200))
def test_lz_constant_runs(n):
    assert lz(binary([1] * n)) == 2


@given(
    st.lists(st.tuples(st.sampled_from([-1, 0, 1]), st.integers(1, 60)), min_size=1, max_size=30)
)
def test_lz_matches_oracle_on_long_runs(runs):
    values = [v for v, length in runs for _ in range(length)]
    assert lz(ternary(values)) == lz_count(values)


# rows up to 40 symbols, short enough for the literal oracle as well
any_bytes = st.binary(min_size=1, max_size=40)
few_symbol_bytes = st.integers(1, 3).flatmap(
    lambda a: st.lists(st.integers(0, a - 1), min_size=1, max_size=40).map(bytes)
)
# a periodic row, its last copy running up to the end of the period, then a
# run of zero bytes (maybe none) that each copy the one before them
periodic_zero_tails = st.builds(
    lambda head, reps, zeros: head * reps + bytes(zeros),
    st.binary(min_size=1, max_size=12),
    st.integers(1, 40),
    st.integers(0, 20),
)


@given(st.one_of(any_bytes, few_symbol_bytes, periodic_zero_tails))
@example(b"\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00")  # ends in a copy that overlaps itself up to the end
@example(b"\x00\x01" + bytes(17))
@example(b"\x02\x01" * 20)  # a periodic row whose last copy runs to the end
@example(b"\x00\x01\x02" * 13)
def test_lz_matches_resumed_parse_on_bytes(s):
    assert lz(s) == lz_count_resumed(s)
    if len(s) <= 40:
        assert lz(s) == lz_count(s)


# rows up to a full segment's 720 symbols over 1-4 codes, drawn freely or
# as runs of one code, as slope and threshold symbols of flat steps give
random_rows = st.integers(1, 4).flatmap(
    lambda a: st.lists(st.integers(0, a - 1), min_size=1, max_size=720).map(bytes)
)
run_heavy_rows = st.integers(1, 4).flatmap(
    lambda a: st.lists(
        st.tuples(st.integers(0, a - 1), st.integers(1, 90)), min_size=1, max_size=40
    ).map(lambda runs: bytes(code for code, length in runs for _ in range(length))[:720])
)


@given(st.one_of(random_rows, run_heavy_rows))
def test_lz_matches_resumed_parse_on_long_rows(s):
    assert lz(s) == lz_count_resumed(s)
    if len(s) <= 40:
        assert lz(s) == lz_count(s)


# --- building the kernels -----------------------------------------------------------
#
# One helper builds both compiled files: this module's phrase counter and the
# column parser of ``records``. A fault leaves each to its Python path.

PACKAGE = Path(features.__file__).parent
KERNEL_SOURCE = PACKAGE / "_lz.c"
LZ_ROW = ("lz_row", ctypes.c_long, ctypes.c_char_p, ctypes.c_long)
CHECK_ROWS = [b"\x00", b"\x01\x00\x00\x01\x00\x01", bytes([0, 1, 2, 3] * 9 + [2] * 30)]


def no_compiler(monkeypatch, source: Path) -> None:
    monkeypatch.setenv("PATH", str(source.parent / "empty"))


def failing_compile(monkeypatch, source: Path) -> None:
    source.write_text("long lz_row(const unsigned char *row, long n) { return n }\n")


def unwritable_cache(monkeypatch, source: Path) -> None:
    # a file where the cache directory goes: it cannot be written into, even by root
    (source.parent / "__pycache__").write_bytes(b"")


def failed_build(tmp_path: Path, monkeypatch, fault, name: str, symbol: str):
    """A loader of ``symbol`` from a copy of the package's ``name`` that ``fault``
    keeps from building; checks that it gives None and leaves no file behind."""
    source = tmp_path / name.removesuffix(".c") / name
    source.parent.mkdir()
    shutil.copy(PACKAGE / name, source)
    fault(monkeypatch, source)
    assert build(source, symbol, ctypes.c_long) is None
    # neither a library nor a temporary file of the compiler's is left behind
    assert not list(source.parent.rglob(f"{source.stem}-*"))
    return lambda: build(source, symbol, ctypes.c_long)


@pytest.mark.parametrize("fault", [no_compiler, failing_compile, unwritable_cache])
def test_a_kernel_that_cannot_be_built_leaves_the_python_parse(tmp_path, monkeypatch, fault):
    monkeypatch.setattr(features, "_lz_kernel", failed_build(tmp_path, monkeypatch, fault, "_lz.c", "lz_row"))
    for row in CHECK_ROWS:
        assert lz_complexity(row) == lz_count(row)
    parser = failed_build(tmp_path, monkeypatch, fault, "_columns.c", "parse_columns")
    monkeypatch.setattr(records, "_column_parser", parser)
    assert records.parse_columns("1.5\n", (0,)) is None
    signal, table = tmp_path / "signal.txt", tmp_path / "features.csv"
    signal.write_text("1.5 x\n \n-2 y\n1_0 z\n")
    assert read_text_signal(signal).samples.tolist() == read_text_column(signal) == [1.5, -2.0, 10.0]
    table.write_text("a,0.5,1e-3\n\nb, -1 ,7\n")
    codes, names, points = load_features_csv(table)
    labels, want = read_feature_rows(table)
    assert [names[c] for c in codes] == labels and points.tolist() == [list(p) for p in want]


def test_a_changed_source_is_built_anew(tmp_path):
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")
    source = tmp_path / "_lz.c"
    shutil.copy(KERNEL_SOURCE, source)
    kernel = build(source, *LZ_ROW)
    assert [kernel(row, len(row)) for row in CHECK_ROWS] == [lz_count(row) for row in CHECK_ROWS]
    source.write_text("long lz_row(const unsigned char *row, long n) { return 7; }\n")
    assert build(source, *LZ_ROW)(CHECK_ROWS[0], 1) == 7
    # one library per source text, and no temporary file left beside them
    libraries = sorted(p.name for p in (tmp_path / "__pycache__").iterdir())
    assert len(libraries) == 2 and all(re.fullmatch(r"_lz-[0-9a-f]{64}\.so", n) for n in libraries)


def test_features_reject_empty_bytes():
    for feature in (lz_complexity, shannon_entropy):
        with pytest.raises(ValueError, match="one row's non-empty bytes"):
            feature(b"")


@pytest.mark.parametrize("plain", [[0, 1, 0, 1], np.array([0, 1, 0, 1])])
def test_features_reject_plain_sequences(plain):
    # only a SymbolSequence declares its alphabet; plain numbers are not symbols
    for feature in (shannon_entropy, lz_complexity, shannon_entropy_normalized, lz_normalized):
        with pytest.raises(ValueError, match="expected a SymbolSequence"):
            feature(plain)


def test_lz_normalized_values():
    assert both_parses(lz_normalized, binary([0] * 512)) == 2 * 9 / 512
    seq = binary([int(c) for c in "0001101001000101"])
    assert both_parses(lz_normalized, seq) == 6 * 4 / 16
    pair = binary([0, 1])
    assert both_parses(lz_normalized, pair) == lz(pair) / 2  # log_alpha(alpha) = 1


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
