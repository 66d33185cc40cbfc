"""An (N, L) stack of segments goes through filtering, encoding and feature
extraction as one array and gives, bit for bit, what each row gives alone."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import ecgsym.experiment as exp
import ecgsym.filtering as filtering
from ecgsym.encoding import EncoderSpec, SymbolSequence, encode
from ecgsym.experiment import default_encoder_grid, run_experiment
from ecgsym.features import extract_features, lz_complexity, shannon_entropy
from ecgsym.filtering import Signal, apply_filter, filter_compensated, make_bandpass

from record_pipeline_demo import build_dataset

# integer rows like 212 samples, and non-integer rows with repeated values
# so that flat steps and ties with the threshold level occur
INTEGRAL = st.integers(-2048, 2047).map(float)
FRACTIONAL = st.one_of(
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
    st.sampled_from([-2.3, 0.1, 0.7]),
)

ENCODERS = [
    EncoderSpec("slope", 2),
    EncoderSpec("slope", 3),
    EncoderSpec("threshold", 2, -0.05),
    EncoderSpec("threshold", 2, 0.1),
    EncoderSpec("threshold", 3, 0.0),
    EncoderSpec("threshold", 3, 1 / 12),
]


@st.composite
def stacks(draw, min_length=1):
    shape = (draw(st.integers(1, 4)), draw(st.integers(min_length, 40)))
    return draw(arrays(np.float64, shape, elements=st.one_of(INTEGRAL, FRACTIONAL)))


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@given(stacks())
@settings(max_examples=60, deadline=None)
def test_filter_stack_equals_rows(x):
    bandpass = make_bandpass()
    for fn in (filter_compensated, apply_filter):
        stacked = fn(bandpass, Signal(x)).samples
        for i, row in enumerate(x):
            assert same_bits(stacked[i], fn(bandpass, Signal(row)).samples), fn.__name__


@given(stacks(min_length=3), st.sampled_from([0.0, 0.5, 7.0]))
@settings(max_examples=60, deadline=None)
def test_encode_and_features_stack_equal_rows(x, zero_tol):
    for spec in ENCODERS:
        stacked = encode(Signal(x), spec, zero_tol)
        fv = extract_features(stacked, enforce_min_length=False)
        for i, row in enumerate(x):
            alone = encode(row, spec, zero_tol)
            assert same_bits(stacked.symbols[i], alone.symbols), spec.label
            fv_row = extract_features(alone, enforce_min_length=False)
            assert same_bits(fv.h_norm[i], fv_row.h_norm), spec.label
            assert same_bits(fv.c_norm[i], fv_row.c_norm), spec.label


@pytest.mark.parametrize("integral", [True, False])
def test_full_length_stack_equals_rows_on_default_grid(integral):
    rng = np.random.default_rng(11)
    x = rng.normal(0.0, 300.0, (5, 720))
    if integral:
        x = np.rint(x)
    filtered = filter_compensated(make_bandpass(), Signal(x))
    rows = [filter_compensated(make_bandpass(), Signal(row)) for row in x]
    for spec in default_encoder_grid():
        fv = extract_features(encode(filtered, spec))
        for i, row in enumerate(rows):
            fv_row = extract_features(encode(row, spec))
            assert (fv.h_norm[i], fv.c_norm[i]) == (fv_row.h_norm, fv_row.c_norm), spec.label


def test_stack_rejects_short_rows():
    x = Signal(np.zeros((3, 100)))
    with pytest.raises(ValueError, match="sequence length 100 is below"):
        extract_features(encode(x, EncoderSpec("threshold", 2, 0.05)))


def test_rows_are_symbol_matrices_only():
    # plain numbers are no symbols, and the parse counts the phrases of one sequence
    with pytest.raises(ValueError, match="expected a SymbolSequence"):
        shannon_entropy(np.zeros((2, 5)))
    with pytest.raises(ValueError, match="one sequence"):
        lz_complexity(SymbolSequence(np.zeros((2, 5)), 2))


def count_calls(monkeypatch, module, name, log):
    """Replace ``module.name`` by a wrapper that appends one byte to the file
    ``log`` per call, from whichever process makes it (a run may compute
    grid entries in a forked child); returns a function giving the count."""
    log.write_bytes(b"")
    original = getattr(module, name)

    def counted(*args, **kwargs):
        fd = os.open(log, os.O_WRONLY | os.O_APPEND)
        try:
            os.write(fd, b".")
        finally:
            os.close(fd)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return lambda: len(log.read_bytes())


@pytest.mark.parametrize("windows_per_class", [2, 6])
def test_run_calls_each_stage_a_fixed_number_of_times(tmp_path, monkeypatch, windows_per_class):
    paths, sidecar = build_dataset(tmp_path, windows_per_class, 0)
    delays = count_calls(monkeypatch, filtering, "alignment_delay", tmp_path / "delays.log")
    filters = count_calls(monkeypatch, exp, "filter_compensated", tmp_path / "filters.log")
    encodes = count_calls(monkeypatch, exp, "encode", tmp_path / "encodes.log")
    features = count_calls(monkeypatch, exp, "extract_features", tmp_path / "features.log")
    config = exp.ExperimentConfig(records=tuple(paths), sidecar=sidecar, format="212")
    result = run_experiment(config)
    assert sum(result.class_counts.values()) == 2 * windows_per_class
    # one evaluation when the config checks the sample rate, one for the
    # plan the run passes to the filter, and one in the filter
    assert (delays(), filters()) == (3, 1)
    assert encodes() == features() == len(config.grid)
