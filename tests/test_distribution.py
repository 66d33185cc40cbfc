import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ecgsym.distribution import (
    LabeledFeatureSet,
    centroid,
    code_labels,
    evaluate_distribution,
    report_from_counts,
)
from ecgsym.experiment import ExperimentConfig, pairwise_table, run_experiment

from oracles import at_least_as_far, overlap_counts

# small integer coordinates keep distance comparisons exact under rigid motions
points = st.lists(
    st.tuples(st.integers(-20, 20), st.integers(-20, 20)), min_size=1, max_size=6
)


@st.composite
def datasets(draw, n_classes=st.integers(2, 4)):
    m = draw(n_classes)
    return LabeledFeatureSet(
        {f"C{i}": np.array(draw(points), dtype=float) for i in range(m)}
    )


def two_cluster_set(offset: float) -> LabeledFeatureSet:
    rng = np.random.default_rng(17)
    a = rng.normal([0.0, 0.0], 1.0, (40, 2))
    b = rng.normal([offset, 0.0], 1.0, (40, 2))
    return LabeledFeatureSet({"A": a, "B": b})


# --- centroid ---------------------------------------------------------------------

def test_centroid_singleton():
    np.testing.assert_array_equal(centroid([(0.0, 0.0)]), [0.0, 0.0])


def test_centroid_hand_example():
    np.testing.assert_array_equal(centroid([(0, 0), (2, 0), (1, 3)]), [1.0, 1.0])


def test_centroid_identical_points():
    p = (2.5, -1.5)
    np.testing.assert_array_equal(centroid([p, p, p]), np.array(p))


def test_centroid_empty_rejected():
    with pytest.raises(ValueError, match="empty class"):
        centroid(np.empty((0, 2)))


# --- per-class overlap ----------------------------------------------------------------

def overlaps(ds: LabeledFeatureSet, mode: str = "forall") -> tuple[int, ...]:
    return evaluate_distribution(ds, mode).class_overlaps


def test_overlap_zero_for_separated_pairs():
    ds = LabeledFeatureSet({"A": [(0, 0), (4, 0)], "B": [(10, 0), (14, 0)]})
    assert overlaps(ds) == (0, 0)


def test_overlap_total_for_coincident_classes():
    ds = LabeledFeatureSet({"A": [(0, 0), (1, 0)], "B": [(0, 0), (1, 0)]})
    assert overlaps(ds) == (2, 2)


def test_overlap_zero_for_distinct_singletons():
    ds = LabeledFeatureSet({"A": [(0, 0)], "B": [(3, 0)], "C": [(0, 5)]})
    assert overlaps(ds) == (0, 0, 0)


def test_overlap_needs_two_classes():
    ds = LabeledFeatureSet({"A": [(0, 0), (1, 1)]})
    with pytest.raises(ValueError, match="at least two classes"):
        evaluate_distribution(ds)


@given(datasets(), st.sampled_from(["forall", "exists"]))
@settings(max_examples=60)
def test_overlap_matches_loop_oracle(ds, mode):
    expected = overlap_counts({k: v.tolist() for k, v in ds.classes.items()}, mode)
    assert overlaps(ds, mode) == tuple(expected[n] for n in ds.names)


@given(datasets())
@settings(max_examples=60)
def test_forall_at_most_exists(ds):
    for forall, exists in zip(overlaps(ds, "forall"), overlaps(ds, "exists")):
        assert forall <= exists


@st.composite
def tied_sets(draw):
    """2-4 classes of unequal size over one shuffled label column, 1-3
    dimensions and few coordinates, so duplicated and equidistant points
    abound."""
    names = ["A", "B", "C", "D"][: draw(st.integers(2, 4))]
    labels = draw(st.permutations(names + draw(st.lists(st.sampled_from(names), max_size=12))))
    coord = st.sampled_from([-1.0, 0.0, 1.0, 2.0, 1 / 3])
    row = st.tuples(*[coord] * draw(st.integers(1, 3)))
    rows = draw(st.lists(row, min_size=len(labels), max_size=len(labels)))
    return LabeledFeatureSet.from_rows(labels, rows)


@given(tied_sets(), st.sampled_from(["forall", "exists"]))
@settings(max_examples=200)
def test_one_table_matches_the_column_table_oracle(ds, mode):
    cond, own = at_least_as_far(ds)
    if mode == "forall":
        hits = (cond | own).all(axis=1)
    else:
        hits = (cond & ~own).any(axis=1)
    rep = evaluate_distribution(ds, mode)
    assert rep.class_overlaps == tuple(own[hits].sum(axis=0).tolist())
    blocks = np.split(cond, np.cumsum(ds.sizes)[:-1])
    assert rep.pair_counts == tuple(tuple(block.sum(axis=0).tolist()) for block in blocks)


def test_modes_agree_for_two_classes():
    ds = two_cluster_set(1.5)
    assert overlaps(ds, "forall") == overlaps(ds, "exists")


# --- report arithmetic -------------------------------------------------------------------

def test_report_from_counts_hand_arithmetic():
    rep = report_from_counts(["Normal", "AFIB"], [200, 200], [27, 26])
    assert rep.class_overlap_fractions == (0.135, 0.13)
    assert rep.total_overlap == 53
    assert rep.overlap_per_element == 0.1325
    assert rep.overlap_per_class == 0.1325
    assert round(rep.overlap_per_element, 3) == 0.133


def test_report_validation():
    with pytest.raises(ValueError):
        report_from_counts(["A"], [0], [0])
    with pytest.raises(ValueError):
        report_from_counts(["A", "B"], [2, 2], [3, 0])
    with pytest.raises(ValueError):
        report_from_counts(["A", "B"], [2], [0, 0])
    with pytest.raises(ValueError):
        report_from_counts(["A", "B"], [2, 2], [0, 0], mode="sometimes")


def test_evaluate_fully_separated():
    ds = LabeledFeatureSet({"A": [(0, 0), (4, 0)], "B": [(10, 0), (14, 0)]})
    rep = evaluate_distribution(ds)
    assert rep.total_overlap == 0
    assert rep.overlap_per_element == 0.0
    assert rep.overlap_per_class == 0.0


def test_evaluate_identical_classes_saturates():
    pts = np.random.default_rng(3).normal(0, 1, (50, 2))
    ds = LabeledFeatureSet({"A": pts, "B": pts.copy()})
    rep = evaluate_distribution(ds)
    assert rep.overlap_per_element == 1.0
    assert rep.overlap_per_class == 1.0


def test_report_text_layout():
    text = report_from_counts(["A", "B"], [2, 4], [1, 1]).to_text()
    assert "mode = forall" in text
    assert "total_overlap = 2" in text
    assert text.count("\n") >= 8


@given(st.lists(st.tuples(st.integers(1, 30), st.integers(0, 30)), min_size=2, max_size=6))
def test_report_bounds(raw):
    sizes = [s for s, _ in raw]
    overlaps = [min(o, s) for (s, _), o in zip(raw, (o for _, o in raw))]
    rep = report_from_counts([f"C{i}" for i in range(len(raw))], sizes, overlaps)
    assert 0 <= rep.overlap_per_element <= 1
    assert 0 <= rep.overlap_per_class <= 1
    for frac, size, lam in zip(rep.class_overlap_fractions, sizes, overlaps):
        assert frac == lam / size


@given(st.integers(1, 50), st.lists(st.integers(0, 50), min_size=2, max_size=6))
def test_equal_sizes_make_aggregates_identical(size, raw_overlaps):
    overlaps = [min(v, size) for v in raw_overlaps]
    names = [f"C{i}" for i in range(len(overlaps))]
    rep = report_from_counts(names, [size] * len(overlaps), overlaps)
    assert rep.overlap_per_element == rep.overlap_per_class


# --- geometric invariances ------------------------------------------------------------------

@given(datasets(), st.integers(0, 3), st.integers(-50, 50), st.integers(-50, 50))
@settings(max_examples=60)
def test_rigid_motion_invariance_exact(ds, quarter_turns, dx, dy):
    # quarter-turn rotations and integer translations are exact in floats
    rep = evaluate_distribution(ds)
    rot = np.array(
        [
            [math.cos(quarter_turns * math.pi / 2), -math.sin(quarter_turns * math.pi / 2)],
            [math.sin(quarter_turns * math.pi / 2), math.cos(quarter_turns * math.pi / 2)],
        ]
    ).round()
    moved = LabeledFeatureSet(
        {k: v @ rot.T + np.array([dx, dy], dtype=float) for k, v in ds.classes.items()}
    )
    rep2 = evaluate_distribution(moved)
    assert rep.class_overlaps == rep2.class_overlaps


def test_generic_rotation_invariance():
    ds = two_cluster_set(2.0)
    rep = evaluate_distribution(ds)
    theta = 0.7743
    rot = np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    )
    moved = LabeledFeatureSet({k: v @ rot.T + 3.17 for k, v in ds.classes.items()})
    assert evaluate_distribution(moved).class_overlaps == rep.class_overlaps


@given(datasets(), st.sampled_from([0.25, 0.5, 2.0, 64.0]))
@settings(max_examples=60)
def test_positive_scaling_invariance(ds, scale):
    rep = evaluate_distribution(ds)
    scaled = LabeledFeatureSet({k: v * scale for k, v in ds.classes.items()})
    assert evaluate_distribution(scaled).class_overlaps == rep.class_overlaps


def test_generic_scaling_invariance():
    ds = two_cluster_set(2.0)
    scaled = LabeledFeatureSet({k: v * 1.7 for k, v in ds.classes.items()})
    assert (
        evaluate_distribution(scaled).class_overlaps
        == evaluate_distribution(ds).class_overlaps
    )


def test_separation_reduces_overlap():
    near = evaluate_distribution(two_cluster_set(1.0)).overlap_per_element
    far = evaluate_distribution(two_cluster_set(8.0)).overlap_per_element
    assert far < near


# --- dataset container ------------------------------------------------------------------------

def test_feature_set_validation():
    with pytest.raises(ValueError, match="empty class"):
        LabeledFeatureSet({"A": np.empty((0, 2)), "B": [(1, 1)]})
    with pytest.raises(ValueError, match="dimension"):
        LabeledFeatureSet({"A": [(1, 2)], "B": [(1, 2, 3)]})
    with pytest.raises(ValueError, match="no classes"):
        LabeledFeatureSet({})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_feature_set_rejects_non_finite_points_naming_the_class(bad):
    with pytest.raises(ValueError, match="class 'A' has a non-finite point"):
        LabeledFeatureSet({"A": [[bad, 0], [0, 0]], "B": [[1, 1], [1.2, 1]]})
    with pytest.raises(ValueError, match="class 'B' has a non-finite point"):
        LabeledFeatureSet.from_rows(["A", "B", "A", "B"], [[0, 0], [1, 1], [0, 0], [1, bad]])


def test_from_rows_groups_in_first_appearance_order():
    ds = LabeledFeatureSet.from_rows(
        ["b", "a", "b", "a"], [(0, 0), (1, 1), (2, 2), (3, 3)]
    )
    assert ds.names == ("b", "a")
    assert ds.sizes == (2, 2)
    assert ds.total == 4


@settings(max_examples=60)
@given(
    st.lists(st.sampled_from("abc"), min_size=1, max_size=20).flatmap(
        lambda labels: st.tuples(
            st.just(labels),
            st.lists(
                st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
                min_size=len(labels),
                max_size=len(labels),
            ),
        )
    )
)
def test_from_rows_matches_grouping_row_by_row(case):
    labels, pts = case
    grouped: dict[str, list] = {}
    for label, point in zip(labels, pts):
        grouped.setdefault(label, []).append(point)
    ds = LabeledFeatureSet.from_rows(labels, pts)
    assert ds.names == tuple(grouped)
    for name, rows in grouped.items():
        assert ds.classes[name].tobytes() == np.array(rows, dtype=float).tobytes()


@settings(max_examples=60)
@given(
    st.lists(st.sampled_from(["a", "b", "1", 1, 2.5, None]), min_size=1, max_size=20).flatmap(
        lambda labels: st.tuples(
            st.just(labels),
            st.lists(
                st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
                min_size=len(labels),
                max_size=len(labels),
            ),
            st.integers(0, 6),
        )
    )
)
def test_from_codes_equals_from_rows(case):
    labels, pts, unused_at = case
    want = LabeledFeatureSet.from_rows(labels, pts)
    codes, names = code_labels(labels)
    assert [names[code] for code in codes] == [str(label) for label in labels]
    # the same classes with a name no row uses slotted in among the names
    at = min(unused_at, len(names))
    padded = (codes + (codes >= at), names[:at] + ("unused",) + names[at:])
    for got in (
        LabeledFeatureSet.from_codes(codes, names, pts),
        LabeledFeatureSet.from_codes(*padded, pts),
    ):
        assert (got.names, got.sizes) == (want.names, want.sizes)
        assert got.points.tobytes() == want.points.tobytes()


def test_from_codes_rejects_bad_codes_and_names():
    with pytest.raises(ValueError, match="2 labels for 1 points"):
        LabeledFeatureSet.from_codes([0, 0], ["a"], [(0, 0)])
    with pytest.raises(ValueError, match=r"class codes must lie in \[0, 2\)"):
        LabeledFeatureSet.from_codes([0, 2], ["a", "b"], [(0, 0), (1, 1)])
    with pytest.raises(ValueError, match=r"class codes must lie in \[0, 2\)"):
        LabeledFeatureSet.from_codes([-1, 1], ["a", "b"], [(0, 0), (1, 1)])
    with pytest.raises(ValueError, match="class names repeat"):
        LabeledFeatureSet.from_codes([0, 1], [1, "1"], [(0, 0), (1, 1)])
    with pytest.raises(ValueError, match="no classes given"):
        LabeledFeatureSet.from_codes([], (), np.empty((0, 2)))


@pytest.fixture(scope="module")
def feature_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("features")


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.sampled_from("ABC"), min_size=4, max_size=24).filter(
        lambda labels: len(set(labels)) > 1
    ),
    st.integers(1, 23),
    st.integers(0, 2**32 - 1),
)
@example(list("ABABCB"), 3, 0)  # the second file repeats class B and introduces class C
def test_features_split_across_files_equal_one_file(feature_dir, labels, cut, seed):
    cut = min(cut, len(labels) - 1)
    rows = [
        f"{label},{x!r},{y!r}\n"
        for label, (x, y) in zip(labels, np.random.default_rng(seed).random((len(labels), 2)).tolist())
    ]
    paths = [feature_dir / name for name in ("whole.csv", "head.csv", "tail.csv")]
    for path, part in zip(paths, (rows, rows[:cut], rows[cut:])):
        path.write_text("".join(part))
    whole, split = (
        run_experiment(ExperimentConfig(features=tuple(map(str, group))))
        for group in (paths[:1], paths[1:])
    )
    assert split.entries[0].report == whole.entries[0].report
    assert split.entries[0].labels == whole.entries[0].labels == labels
    names = whole.entries[0].report.class_names
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
    assert pairwise_table(split, pairs) == pairwise_table(whole, pairs)


def test_from_rows_rejects_unequal_lengths():
    with pytest.raises(ValueError, match="2 labels for 1 points"):
        LabeledFeatureSet.from_rows(["a", "b"], [(0, 0)])
