import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecgsym.distribution import (
    LabeledFeatureSet,
    centroid,
    evaluate_distribution,
    report_from_counts,
)

from oracles import overlap_counts

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


def test_overlap_unknown_class():
    ds = LabeledFeatureSet({"A": [(0, 0)], "B": [(1, 0)]})
    with pytest.raises(ValueError, match="unknown class"):
        ds.subset(["A", "Z"])


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


def test_from_rows_groups_in_first_appearance_order():
    ds = LabeledFeatureSet.from_rows(
        ["b", "a", "b", "a"], [(0, 0), (1, 1), (2, 2), (3, 3)]
    )
    assert ds.names == ("b", "a")
    assert ds.sizes == (2, 2)
    assert ds.total == 4


def test_subset_preserves_given_order():
    ds = LabeledFeatureSet({"A": [(0, 0)], "B": [(1, 0)], "C": [(2, 0)]})
    sub = ds.subset(["C", "A"])
    assert sub.names == ("C", "A")
