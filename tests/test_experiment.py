import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecgsym.distribution import LabeledFeatureSet, code_labels, evaluate_distribution
from ecgsym.encoding import EncoderSpec, encode
from ecgsym.experiment import (
    EncoderRun,
    ExperimentConfig,
    ExperimentResult,
    PairRow,
    default_encoder_grid,
    emit_plot_data,
    evaluate_entry,
    load_config_file,
    load_features_csv,
    make_clusters,
    pair_table_text,
    pairwise_table,
    parse_encoder_line,
    parse_fraction,
    parse_grid_file,
    rank_entries,
    run_experiment,
    _ingest,
)
from ecgsym.features import lz_complexity
from ecgsym.filtering import Signal, filter_compensated, make_bandpass

from oracles import lz_count, lz_count_resumed
from record_pipeline_demo import build_dataset

FS = 360.0


def synth_wave(kind: str, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    t = np.arange(n) / FS
    if kind == "regular":
        return 100.0 * np.sin(2 * math.pi * 8.0 * t) + rng.normal(0, 1.0, n)
    return rng.normal(0, 40.0, n)


@pytest.fixture
def record_setup(tmp_path):
    """Two text records, 6 labeled 720-sample windows in 2 classes."""
    r1 = np.concatenate(
        [
            synth_wave("regular", 720, 1),
            synth_wave("regular", 720, 2),
            synth_wave("noisy", 720, 3),
            synth_wave("noisy", 720, 4),
        ]
    )
    r2 = np.concatenate([synth_wave("regular", 720, 5), synth_wave("noisy", 720, 6)])
    p1, p2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
    p1.write_text("\n".join(repr(float(v)) for v in r1) + "\n")
    p2.write_text("\n".join(repr(float(v)) for v in r2) + "\n")
    sidecar = tmp_path / "labels.csv"
    sidecar.write_text(
        "r1,0,1440,steady\n"
        "r1,1440,2880,erratic\n"
        "r2,0,720,steady\n"
        "r2,720,1440,erratic\n"
    )
    return (str(p1), str(p2)), str(sidecar), tmp_path


def small_grid():
    return (
        EncoderSpec("slope", 2),
        EncoderSpec("threshold", 2, 0.05),
        EncoderSpec("threshold", 3, 1 / 12),
    )


def base_config(record_setup, **overrides):
    (p1, p2), sidecar, _ = record_setup
    kwargs = dict(records=(p1, p2), sidecar=sidecar, grid=small_grid())
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


# --- grids and config plumbing -------------------------------------------------

def test_default_grid_layout():
    grid = default_encoder_grid()
    assert len(grid) == 12
    assert grid[0] == EncoderSpec("slope", 2)
    assert grid[1] == EncoderSpec("slope", 3)
    binary = [s.deviation for s in grid if s.method == "threshold" and s.alphabet_size == 2]
    ternary = [s.deviation for s in grid if s.method == "threshold" and s.alphabet_size == 3]
    assert binary == [-1 / 10, -1 / 20, 1 / 20, 1 / 10]
    assert ternary == [1 / 8, 1 / 10, 1 / 12, 1 / 14, 1 / 16, 1 / 20]
    assert len({s.label for s in grid}) == 12


def test_parse_fraction():
    assert parse_fraction("1/12") == pytest.approx(1 / 12)
    assert parse_fraction("-1/20") == -0.05
    assert parse_fraction("0.05") == 0.05


def test_parse_encoder_line():
    assert parse_encoder_line("slope binary") == EncoderSpec("slope", 2)
    assert parse_encoder_line("threshold ternary 1/12") == EncoderSpec("threshold", 3, 1 / 12)
    assert parse_encoder_line("threshold 2 -1/20") == EncoderSpec("threshold", 2, -0.05)
    for bad in ("slope", "slope binary 0.1", "threshold binary", "ripple binary", "slope quaternary"):
        with pytest.raises(ValueError):
            parse_encoder_line(bad)


def test_parse_grid_file(tmp_path):
    path = tmp_path / "grid.txt"
    path.write_text("# comment\nslope binary\n\nthreshold ternary 1/12  # inline\n")
    assert parse_grid_file(path) == [
        EncoderSpec("slope", 2),
        EncoderSpec("threshold", 3, 1 / 12),
    ]
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n")
    with pytest.raises(ValueError, match="empty encoder grid"):
        parse_grid_file(empty)


def test_parse_grid_file_names_the_file_and_row_of_a_bad_line(tmp_path):
    path = tmp_path / "grid.txt"
    path.write_text("# comment\nslope binary\n\nslope x  # inline\n")
    with pytest.raises(ValueError) as info:
        parse_grid_file(path)
    assert str(info.value) == f"{path}: row 4: unknown alphabet 'x' in grid line 'slope x'"


def test_load_config_file(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text("segment_length = 720\nmode = exists # trailing\n\n# full comment\n")
    assert load_config_file(path, {"segment_length", "mode"}) == {"segment_length": "720", "mode": "exists"}
    bad = tmp_path / "bad.conf"
    bad.write_text("just words\n")
    with pytest.raises(ValueError, match="row 1"):
        load_config_file(bad, {"mode"})


def test_config_validation(record_setup):
    (p1, _), sidecar, _ = record_setup
    with pytest.raises(ValueError, match="not both"):
        ExperimentConfig(records=(p1,), sidecar=sidecar, features=("f.csv",))
    with pytest.raises(ValueError, match="no input"):
        ExperimentConfig()
    with pytest.raises(ValueError, match="sidecar"):
        ExperimentConfig(records=(p1,))
    with pytest.raises(ValueError, match="grid is empty"):
        ExperimentConfig(records=(p1,), sidecar=sidecar, grid=())
    with pytest.raises(ValueError, match="mode"):
        ExperimentConfig(records=(p1,), sidecar=sidecar, mode="always")


RECORD_SETTINGS = {
    "sidecar": "labels.csv",
    "format": "212",
    "channel": 1,
    "column": 1,
    "delimiter": ",",
    "signal_count": 1,
    "sample_rate": 250.0,
    "segment_length": 3,
    "stride": 5,
    "filter": False,
    "grid": (EncoderSpec("slope", 2),),
    "zero_tol": 0.5,
}


@pytest.mark.parametrize("name", sorted(RECORD_SETTINGS))
def test_feature_files_reject_each_record_setting(name):
    with pytest.raises(ValueError, match=f"feature files take no record settings: {name}$"):
        ExperimentConfig(features=("f.csv",), **{name: RECORD_SETTINGS[name]})


def test_feature_files_name_every_record_setting():
    with pytest.raises(ValueError) as info:
        ExperimentConfig(features=("f.csv",), **RECORD_SETTINGS)
    # in field order, each once
    assert str(info.value).endswith(": " + ", ".join(RECORD_SETTINGS))
    # a default given explicitly is no setting, and the feature-file fields stay free
    defaults = {"format": "text", "stride": None, "filter": True, "grid": tuple(default_encoder_grid())}
    config = ExperimentConfig(
        features=("f.csv",), skip_header=True, mode="exists", out="o", **defaults
    )
    assert config.mode == "exists"


# --- synthetic clusters ----------------------------------------------------------

def test_make_clusters_deterministic():
    a = make_clusters([(0, 0), (1, 1)], 20, 0.1, seed=7)
    b = make_clusters([(0, 0), (1, 1)], 20, 0.1, seed=7)
    for name in a.names:
        np.testing.assert_array_equal(a.classes[name], b.classes[name])


def test_make_clusters_zero_spread_hits_centers():
    ds = make_clusters([(0.2, 0.4), (0.8, 0.4)], 5, 0.0, seed=1)
    np.testing.assert_array_equal(ds.classes["C1"], np.tile([0.2, 0.4], (5, 1)))
    assert evaluate_distribution(ds).total_overlap == 0


def test_make_clusters_validation():
    with pytest.raises(ValueError, match="two cluster centers"):
        make_clusters([(0, 0)], 5)
    with pytest.raises(ValueError, match="at least 1"):
        make_clusters([(0, 0), (1, 1)], 0)
    with pytest.raises(ValueError, match="non-negative"):
        make_clusters([(0, 0), (1, 1)], 5, -0.1)
    with pytest.raises(ValueError, match="one name per center"):
        make_clusters([(0, 0), (1, 1)], 5, 0.1, names=["only"])
    with pytest.raises(ValueError, match="^cluster centers differ in their number of coordinates$"):
        make_clusters([(0, 0), (1, 1), (2,)], 5)
    # the second 'A' cluster would replace the first, leaving two classes
    with pytest.raises(ValueError, match="^class name 'A' repeated$"):
        make_clusters([[0, 0], [1, 1], [2, 2]], 5, names=["A", "B", "A"])


def test_make_clusters_names_and_sizes():
    ds = make_clusters([(0, 0), (1, 1), (2, 2)], (3, 4, 5), 0.1, names=["x", "y", "z"])
    assert ds.names == ("x", "y", "z")
    assert ds.sizes == (3, 4, 5)


# --- pipeline runs -----------------------------------------------------------------

def test_run_bookkeeping(record_setup):
    config = base_config(record_setup, grid=(EncoderSpec("slope", 2),))
    result = run_experiment(config)
    assert len(result.entries) == 1
    report = result.entries[0].report
    assert report.class_names == ("steady", "erratic")
    assert report.class_sizes == (3, 3)
    assert result.class_counts == {"steady": 3, "erratic": 3}
    assert result.skipped_windows == 0
    assert result.dropped_partials == 0
    assert len(result.entries[0].labels) == 6


def test_run_rejects_segment_length_below_validity_bound(record_setup):
    config = base_config(record_setup, segment_length=300)
    with pytest.raises(ValueError, match="minimum valid length 361"):
        run_experiment(config)


def test_run_pipeline_conservation(record_setup):
    result = run_experiment(base_config(record_setup))
    for entry in result.entries:
        assert entry.report.class_sizes == (3, 3)
        labels = entry.labels
        assert labels.count("steady") == 3 and labels.count("erratic") == 3


def test_run_without_filtering(record_setup):
    result = run_experiment(base_config(record_setup, filter=False))
    assert result.class_counts == {"steady": 3, "erratic": 3}
    assert len(result.entries) == len(small_grid())


def test_run_reports_empty_class(record_setup):
    (p1, p2), _, tmp_path = record_setup
    sidecar = tmp_path / "bad_labels.csv"
    # the span is too short to hold one full window, so its class vanishes
    sidecar.write_text("r1,0,1440,steady\nr1,1440,2000,erratic\n")
    config = ExperimentConfig(
        records=(p1, p2), sidecar=str(sidecar), grid=small_grid()
    )
    with pytest.raises(ValueError, match="'erratic' ended up empty"):
        run_experiment(config)


def test_run_ranking_is_sorted_and_stable(record_setup):
    result = run_experiment(base_config(record_setup))
    values = [result.entries[i].report.overlap_per_element for i in result.ranking]
    assert values == sorted(values)


def test_run_deterministic_outputs(record_setup, tmp_path):
    out_a, out_b = tmp_path / "out_a", tmp_path / "out_b"
    run_experiment(base_config(record_setup, out=str(out_a)))
    run_experiment(base_config(record_setup, out=str(out_b)))
    files_a = sorted(p.name for p in out_a.iterdir())
    files_b = sorted(p.name for p in out_b.iterdir())
    assert files_a == files_b and files_a
    for name in files_a:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_run_feature_file_input(tmp_path):
    ds = make_clusters([(0.2, 0.5), (0.8, 0.5)], 30, 0.05, seed=5, names=["a", "b"])
    path = tmp_path / "features.csv"
    lines = [
        f"{name},{float(p[0])!r},{float(p[1])!r}"
        for name in ds.names
        for p in ds.classes[name]
    ]
    path.write_text("\n".join(lines) + "\n")
    config = ExperimentConfig(features=(str(path),))
    result = run_experiment(config)
    assert len(result.entries) == 1
    assert result.entries[0].label == "precomputed"
    assert result.entries[0].report.class_sizes == (30, 30)


def test_separated_clusters_score_below_coincident(tmp_path):
    def run_on(ds, name):
        path = tmp_path / f"{name}.csv"
        lines = [
            f"{label},{float(p[0])!r},{float(p[1])!r}"
            for label in ds.names
            for p in ds.classes[label]
        ]
        path.write_text("\n".join(lines) + "\n")
        return run_experiment(ExperimentConfig(features=(str(path),)))

    centers = [(0.1, 0.1), (0.5, 0.9), (0.9, 0.1), (0.1, 0.9), (0.9, 0.9)]
    apart = make_clusters(centers, 40, 0.02, seed=9)
    together = make_clusters([(0.5, 0.5)] * 5, 40, 0.02, seed=9)
    far = run_on(apart, "far").entries[0].report.overlap_per_element
    near = run_on(together, "near").entries[0].report.overlap_per_element
    assert far < near


def test_load_features_csv_errors(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("a,0.1\n")
    with pytest.raises(ValueError, match="row 1"):
        load_features_csv(path)
    path.write_text("a,x,y\n")
    with pytest.raises(ValueError, match="row 1 column 1 is not a number: 'x'"):
        load_features_csv(path)
    path.write_text("label,entropy,complexity\n")
    with pytest.raises(ValueError, match="no feature rows"):
        load_features_csv(path, skip_header=True)


# --- pairwise ranking ------------------------------------------------------------------

def entry_from_dataset(label: str, ds: LabeledFeatureSet) -> EncoderRun:
    codes = np.repeat(np.arange(len(ds.names)), ds.sizes)
    return evaluate_entry(label, codes, ds.names, ds.points)


def test_pairwise_prefers_separated_entry():
    apart = make_clusters([(0.0, 0.0), (10.0, 0.0)], 20, 0.1, seed=2, names=["A", "B"])
    together = make_clusters([(0.0, 0.0), (0.0, 0.0)], 20, 0.1, seed=2, names=["A", "B"])
    result = ExperimentResult(
        entries=[entry_from_dataset("near", together), entry_from_dataset("far", apart)],
        ranking=[1, 0],
        class_counts={"A": 20, "B": 20},
    )
    table = pairwise_table(result, [("A", "B")])
    assert len(table) == 1
    assert table[0].encoder == "far"
    assert table[0].overlap_per_element == 0.0
    assert "A vs B" in pair_table_text(table)


def test_pairwise_bookkeeping_one_row_per_pair(record_setup):
    result = run_experiment(base_config(record_setup))
    table = pairwise_table(result, [("steady", "erratic")])
    assert len(table) == 1
    assert table[0].encoder in {e.label for e in result.entries}


def test_pairwise_unknown_class(record_setup):
    result = run_experiment(base_config(record_setup, grid=(EncoderSpec("slope", 2),)))
    with pytest.raises(ValueError, match="unknown class"):
        pairwise_table(result, [("steady", "ghost")])


def test_pairwise_pair_of_one_class_raises(record_setup):
    result = run_experiment(base_config(record_setup, grid=(EncoderSpec("slope", 2),)))
    with pytest.raises(ValueError, match="names one class twice"):
        pairwise_table(result, [("steady", "steady")])


def pairwise_per_pair(result: ExperimentResult, pairs, mode: str) -> list[PairRow]:
    """Each pair's classes evaluated alone, from those two classes' rows,
    entry after entry; first best wins."""
    table = []
    for first, second in pairs:
        best = None
        for entry in result.entries:
            keep = [i for i, label in enumerate(entry.labels) if label in (first, second)]
            alone = evaluate_distribution(
                LabeledFeatureSet.from_rows([entry.labels[i] for i in keep], entry.points[keep]),
                mode,
            )
            if best is None or alone.overlap_per_element < best[1]:
                best = (entry.label, alone.overlap_per_element)
        table.append(PairRow(first, second, *best))
    return table


@st.composite
def tied_results(draw):
    """Two entries over one shuffled label column: 1-3 dimensions, unequal
    classes, and few coordinates, so duplicated and equidistant points abound."""
    names = ["A", "B", "C", "D"][: draw(st.integers(2, 4))]
    labels = draw(st.permutations(names + draw(st.lists(st.sampled_from(names), max_size=12))))
    dim = draw(st.integers(1, 3))
    coord = st.sampled_from([-1.0, 0.0, 1.0, 2.0, 1 / 3])
    entries = [
        evaluate_entry(
            label,
            *code_labels(labels),
            np.array(draw(st.lists(st.tuples(*[coord] * dim), min_size=len(labels), max_size=len(labels)))),
        )
        for label in ("first", "second")
    ]
    return ExperimentResult(entries, rank_entries(entries), {}), names


@settings(max_examples=150)
@given(tied_results())
def test_pairwise_equals_each_pair_evaluated_alone(case):
    result, names = case
    pairs = [(a, b) for a in names for b in names if a != b]
    table = pairwise_table(result, pairs)
    for mode in ("forall", "exists"):
        assert table == pairwise_per_pair(result, pairs, mode)


def test_pairwise_makes_no_distribution_call(record_setup, monkeypatch):
    import ecgsym.experiment as exp

    result = run_experiment(base_config(record_setup))

    def fail(*args, **kwargs):
        raise AssertionError("pairwise_table evaluated a distribution")

    monkeypatch.setattr(exp, "evaluate_distribution", fail)
    assert len(pairwise_table(result, [("steady", "erratic")])) == 1


# --- emitted files ------------------------------------------------------------------------

def test_emit_plot_data_rows_and_summary(record_setup, tmp_path):
    result = run_experiment(base_config(record_setup))
    out = tmp_path / "emit"
    paths = emit_plot_data(result, out)
    scatters = [p for p in paths if p.name.startswith("scatter_")]
    assert len(scatters) == len(result.entries)
    for path in scatters:
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "label,entropy,complexity"
        assert len(lines) == 1 + 6
    summary = out / "summary.csv"
    rows = summary.read_text().strip().splitlines()
    assert rows[0] == "rank,encoder,total_overlap,overlap_per_element,overlap_per_class,mode"
    assert len(rows) == 1 + len(result.entries)
    values = [float(r.split(",")[3]) for r in rows[1:]]
    assert values == sorted(values)
    # the rows follow result.ranking, whatever order it holds: nothing sorts them again
    backwards = ExperimentResult(result.entries, result.ranking[::-1], result.class_counts)
    emit_plot_data(backwards, tmp_path / "backwards")
    rows = (tmp_path / "backwards" / "summary.csv").read_text().splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == [result.entries[i].label for i in backwards.ranking]


@pytest.mark.parametrize(
    "label, message",
    [
        pytest.param(label, message, id=label)
        for label, message in [
            ("a,b", "contains a comma or a newline"),
            ("a\nb", "contains a comma or a newline"),
            ("a\udcffb", "cannot be written as UTF-8"),
        ]
    ],
)
def test_emit_plot_data_rejects_label_that_breaks_the_rows(tmp_path, label, message):
    bad = LabeledFeatureSet({label: [(0.1, 0.2)], "ok": [(0.8, 0.9)]})
    good = LabeledFeatureSet({"x": [(0.1, 0.2)], "ok": [(0.8, 0.9)]})
    out = tmp_path / "emit"
    with pytest.raises(ValueError, match=message):
        emit_plot_data(ExperimentResult([entry_from_dataset("e", bad)], [0], {}), out)
    assert not out.exists()
    # a bad label in the second entry leaves no file of the first
    entries = [entry_from_dataset("g", good), entry_from_dataset("e", bad)]
    with pytest.raises(ValueError, match=message):
        emit_plot_data(ExperimentResult(entries, [0, 1], {}), out)
    assert not out.exists()


def test_rank_entries_stable_on_ties():
    ds = make_clusters([(0, 0), (5, 5)], 10, 0.0, seed=0, names=["A", "B"])
    entries = [entry_from_dataset("first", ds), entry_from_dataset("second", ds)]
    assert rank_entries(entries) == [0, 1]


# --- demo dataset ----------------------------------------------------------------


def test_lz_matches_oracle_on_pipeline_sequences(tmp_path):
    # every row the benchmark's 50-segment grid run parses, against the
    # one-symbol-a-step parse; the naive lz_count, too slow for 600 rows
    # of 720, checks the first few rows of each encoder
    paths, sidecar = build_dataset(tmp_path / "demo", 25, 0)
    config = ExperimentConfig(records=tuple(paths), sidecar=sidecar, format="212")
    segments, _, _ = _ingest(config)
    signal = filter_compensated(make_bandpass(), Signal(segments.samples, config.sample_rate))
    checked = 0
    for spec in default_encoder_grid():
        seq = encode(signal, spec)
        assert seq.symbols.shape[-1] >= 719
        for i, row in enumerate((seq.symbols + 1).astype(np.uint8)):
            s = row.tobytes()
            assert lz_complexity(s) == lz_count_resumed(s), spec.label
            if i < 2:
                assert lz_complexity(s) == lz_count(row), spec.label
            checked += 1
    assert checked == 50 * 12
