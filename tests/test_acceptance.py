"""Numbered acceptance gates for the package, one test per criterion.

Every test pins its expected values and tolerances inline, times itself
against its runtime budget, and prints a single pass/fail line (shown
with ``pytest -s``, or in the failure report otherwise).

Gate 02 encodes the nominal 21-sample delay figure for the band-pass
cascade. The filter's true phase-derivative delay over 5-12 Hz is
19.16-20.56 samples (confirmed by two independent numerical methods), so
that gate fails by construction and documents the discrepancy; see the
printed measurement and tests/test_filtering.py for the verified values.

Gate 11 runs against a user-supplied labeled dataset when
ECGSYM_DATASET_DIR is set (directory of 212-format .dat records plus
labels.csv); otherwise the synthetic-ranking fallback applies.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from ecgsym.distribution import evaluate_distribution, report_from_counts
from ecgsym.encoding import EncoderSpec, SymbolSequence
from ecgsym.experiment import ExperimentConfig, make_clusters, pairwise_table, run_experiment
from ecgsym.features import lz_complexity, min_valid_length, shannon_entropy_normalized
from ecgsym.filtering import PaddingPlan, Signal, filter_compensated, group_delay, make_bandpass
from ecgsym.records import pack_format212, parse_format212

from oracles import lz_count

FS = 360.0


def _report(num: int, ok: bool, elapsed: float, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" - {detail}" if detail else ""
    print(f"[acceptance] criterion {num:02d}: {status} ({elapsed:.3f} s){suffix}")


def test_criterion_01_minimum_valid_lengths():
    start = time.perf_counter()
    binary, ternary = min_valid_length(2), min_valid_length(3)
    elapsed = time.perf_counter() - start
    ok = binary == 361 and ternary == 366 and elapsed < 1.0
    _report(1, ok, elapsed, f"binary={binary}, ternary={ternary}")
    assert binary == 361
    assert ternary == 366
    assert elapsed < 1.0


def test_criterion_02_group_delay_nominal_band():
    start = time.perf_counter()
    bp = make_bandpass()
    omegas = np.linspace(2 * math.pi * 5 / FS, 2 * math.pi * 12 / FS, 141)
    taus = np.array([group_delay(bp, w) for w in omegas])
    elapsed = time.perf_counter() - start
    within = np.abs(taus - 21.0) <= 0.5
    ok = bool(within.all()) and elapsed < 1.0
    _report(
        2,
        ok,
        elapsed,
        f"measured tau range [{taus.min():.3f}, {taus.max():.3f}] vs nominal 21 +/- 0.5",
    )
    assert elapsed < 1.0
    assert within.all(), (
        "phase-derivative delay over the 5-12 Hz band is "
        f"[{taus.min():.3f}, {taus.max():.3f}] samples; the nominal value 21 "
        "(stage delays 5 + 16) is not attained within +/- 0.5 at any band "
        "frequency below the upper edge"
    )


def test_criterion_03_bandpass_structure():
    start = time.perf_counter()
    bp = make_bandpass()
    degree = bp.numerator.size - 1
    dc_gain = bp.numerator.sum()
    integer_form = np.rint(bp.numerator * 1152).astype(int)
    exact = np.abs(bp.numerator * 1152 - integer_form).max()
    elapsed = time.perf_counter() - start
    ok = degree == 44 and integer_form.sum() == 0 and exact < 1e-12 and elapsed < 1.0
    _report(3, ok, elapsed, f"degree={degree}, coefficient sum={dc_gain:.2e}")
    assert degree == 44
    assert integer_form.sum() == 0  # zero gain at zero frequency, exact in integers
    assert exact < 1e-12
    assert elapsed < 1.0


def test_criterion_04_compensation_alignment():
    start = time.perf_counter()
    t = np.arange(720) / FS
    x = np.sin(2 * math.pi * 8.0 * t)
    out = filter_compensated(make_bandpass(), Signal(x, FS), PaddingPlan(65, 65))
    lag = int(np.argmax(np.correlate(out.samples, x, mode="full"))) - (x.size - 1)
    elapsed = time.perf_counter() - start
    ok = lag == 0 and len(out) == 720 and elapsed < 1.0
    _report(4, ok, elapsed, f"lag={lag}, length={len(out)}")
    assert len(out) == 720
    assert lag == 0
    assert elapsed < 1.0


def test_criterion_05_lz_oracle_equivalence():
    start = time.perf_counter()
    for n in range(1, 15):
        for bits in range(2**n):
            seq = [(bits >> i) & 1 for i in range(n)]
            assert lz_complexity(SymbolSequence(np.array(seq), 2)) == lz_count(seq)
    rng = np.random.default_rng(20110630)
    for _ in range(10000):
        seq = rng.integers(-1, 2, size=100)
        assert lz_complexity(SymbolSequence(seq, 3)) == lz_count(seq)
    elapsed = time.perf_counter() - start
    ok = elapsed < 60.0
    _report(5, ok, elapsed, "16384 binary strings of length 14 + 10000 ternary of length 100")
    assert elapsed < 60.0


def test_criterion_06_entropy_properties():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    for _ in range(10000):
        alpha = int(rng.integers(2, 4))
        n = int(rng.integers(1, 200))
        seq = SymbolSequence(rng.integers(0, alpha, size=n) - (alpha == 3), alpha)
        h = shannon_entropy_normalized(seq)
        assert 0.0 <= h <= 1.0 + 1e-12
    uniform_binary = SymbolSequence(np.tile([0, 1], 360), 2)
    uniform_ternary = SymbolSequence(np.tile([-1, 0, 1], 240), 3)
    h2 = shannon_entropy_normalized(uniform_binary)
    h3 = shannon_entropy_normalized(uniform_ternary)
    const2 = shannon_entropy_normalized(SymbolSequence(np.zeros(720, dtype=int), 2))
    const3 = shannon_entropy_normalized(SymbolSequence(np.ones(720, dtype=int), 3))
    elapsed = time.perf_counter() - start
    ok = (
        abs(h2 - 1.0) <= 1e-12
        and abs(h3 - 1.0) <= 1e-12
        and const2 == 0.0
        and const3 == 0.0
        and elapsed < 10.0
    )
    _report(6, ok, elapsed, f"uniform binary={h2!r}, uniform ternary={h3!r}")
    assert abs(h2 - 1.0) <= 1e-12
    assert abs(h3 - 1.0) <= 1e-12
    assert const2 == 0.0
    assert const3 == 0.0
    assert elapsed < 10.0


def test_criterion_07_report_arithmetic():
    start = time.perf_counter()
    rep = report_from_counts(["first", "second"], [200, 200], [27, 26])
    elapsed = time.perf_counter() - start
    ok = (
        rep.total_overlap == 53
        and rep.overlap_per_element == 0.1325
        and rep.overlap_per_class == 0.1325
        and rep.class_overlap_fractions == (0.135, 0.13)
        and elapsed < 1.0
    )
    _report(7, ok, elapsed, f"total={rep.total_overlap}, per_element={rep.overlap_per_element}")
    assert rep.total_overlap == 53
    assert rep.overlap_per_element == 0.1325
    assert rep.overlap_per_class == 0.1325
    assert rep.class_overlap_fractions == (0.135, 0.13)
    assert elapsed < 1.0


def test_criterion_08_equal_size_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(88)
    for _ in range(200):
        m = int(rng.integers(2, 6))
        size = int(rng.integers(1, 400))
        overlaps = rng.integers(0, size + 1, size=m)
        rep = report_from_counts([f"C{i}" for i in range(m)], [size] * m, overlaps)
        assert rep.overlap_per_element == rep.overlap_per_class
    elapsed = time.perf_counter() - start
    ok = elapsed < 10.0
    _report(8, ok, elapsed, "200 random equal-size datasets, exact equality")
    assert elapsed < 10.0


def test_criterion_09_separation_monotonicity():
    start = time.perf_counter()
    means = {}
    for separation in (1.0, 8.0):
        values = []
        for seed in range(50):
            ds = make_clusters(
                [(0.0, 0.0), (separation, 0.0)], 200, 1.0, seed=seed, names=["A", "B"]
            )
            values.append(evaluate_distribution(ds).overlap_per_element)
        means[separation] = float(np.mean(values))
    elapsed = time.perf_counter() - start
    ok = means[8.0] < means[1.0] and elapsed < 30.0
    _report(9, ok, elapsed, f"mean overlap at 8 sigma={means[8.0]:.4f} < at 1 sigma={means[1.0]:.4f}")
    assert means[8.0] < means[1.0]
    assert elapsed < 30.0


def test_criterion_10_format212_round_trip():
    start = time.perf_counter()
    everything = np.arange(-2048, 2048)
    fixed = np.full(everything.size, 123)
    for first, second in ((everything, fixed), (fixed, everything)):
        channels = parse_format212(pack_format212([first, second]))
        np.testing.assert_array_equal(channels[0], first)
        np.testing.assert_array_equal(channels[1], second)
    rng = np.random.default_rng(212)
    pairs = rng.integers(-2048, 2048, size=(10000, 2))
    channels = parse_format212(pack_format212([pairs[:, 0], pairs[:, 1]]))
    np.testing.assert_array_equal(channels[0], pairs[:, 0])
    np.testing.assert_array_equal(channels[1], pairs[:, 1])
    elapsed = time.perf_counter() - start
    ok = elapsed < 5.0
    _report(10, ok, elapsed, "exhaustive 12-bit sweep in both slots + 10000 random pairs")
    assert elapsed < 5.0


def test_criterion_11_synthetic_ranking_stability():
    start = time.perf_counter()
    centers = [(0.15, 0.2), (0.5, 0.9), (0.85, 0.2), (0.15, 0.8), (0.85, 0.8)]
    tight_wins = 0
    for seed in range(20):
        tight = evaluate_distribution(
            make_clusters(centers, 200, 0.03, seed=seed)
        ).overlap_per_element
        loose = evaluate_distribution(
            make_clusters(centers, 200, 0.30, seed=seed)
        ).overlap_per_element
        tight_wins += int(tight < loose)
    elapsed = time.perf_counter() - start
    ok = tight_wins == 20
    _report(11, ok, elapsed, f"tight spread ranked first in {tight_wins}/20 seeds")
    assert tight_wins == 20


def test_criterion_11_supplied_dataset():
    data_dir = os.environ.get("ECGSYM_DATASET_DIR")
    if not data_dir:
        pytest.skip("ECGSYM_DATASET_DIR not set; synthetic fallback covers this gate")
    start = time.perf_counter()
    records = tuple(sorted(str(p) for p in Path(data_dir).glob("*.dat")))
    sidecar = str(Path(data_dir) / "labels.csv")
    channel = int(os.environ.get("ECGSYM_DATASET_CHANNEL", "0"))
    config = ExperimentConfig(
        records=records,
        sidecar=sidecar,
        format="212",
        channel=channel,
        grid=(EncoderSpec("threshold", 3, 1 / 12),),
    )
    result = run_experiment(config)
    report = result.entries[0].report
    elapsed = time.perf_counter() - start
    ok = (
        abs(report.overlap_per_element - 0.4035) <= 0.02
        and abs(report.overlap_per_class - 0.4358) <= 0.02
    )
    _report(
        11,
        ok,
        elapsed,
        f"per_element={report.overlap_per_element:.4f}, per_class={report.overlap_per_class:.4f}",
    )
    assert abs(report.overlap_per_element - 0.4035) <= 0.02
    assert abs(report.overlap_per_class - 0.4358) <= 0.02

    expected_winners = {
        ("Normal", "AFIB"): "slope-binary",
        ("Normal", "AFL"): "threshold-binary(E=-0.05)",
        ("Normal", "SVTA"): "threshold-binary(E=0.1)",
        ("Normal", "VT"): "threshold-binary(E=0.1)",
        ("AFIB", "AFL"): "threshold-ternary(E=0.1)",
        ("AFIB", "SVTA"): "threshold-ternary(E=0.125)",
        ("AFIB", "VT"): "threshold-binary(E=0.05)",
        ("AFL", "SVTA"): "threshold-ternary(E=0.0833333)",
        ("AFL", "VT"): "threshold-binary(E=0.05)",
        ("SVTA", "VT"): "threshold-ternary(E=0.1)",
    }
    import dataclasses

    from ecgsym.experiment import default_encoder_grid

    full_config = dataclasses.replace(config, grid=tuple(default_encoder_grid()))
    table = pairwise_table(run_experiment(full_config), list(expected_winners))
    for row in table:
        assert row.encoder == expected_winners[(row.first, row.second)], row
