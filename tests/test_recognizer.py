"""Minimum-distance classification against the exhaustive-scan oracle."""

import numpy as np
import pytest

from prototrack.errors import DimensionMismatch, EmptyGallery
from prototrack.gallery import Gallery, Prototype
from prototrack.recognizer import (
    Classification,
    GalleryIndex,
    RecognizerConfig,
    area_filter,
    classify,
)
from prototrack.types import UNKNOWN, BoundingBox, Detection, l2_normalize


def oracle_classify(embedding, entries, threshold):
    """Reference implementation: scan every prototype of every label.

    Ties go to the lexicographically smallest label; a winning distance
    above the threshold is relabeled Unknown but keeps its distance.
    """
    best = {}
    for label, vectors in entries.items():
        for v in vectors:
            d = 1.0 - float(np.dot(embedding, v))
            d = min(2.0, max(0.0, d))
            if label not in best or d < best[label]:
                best[label] = d
    label = min(best, key=lambda l: (best[l], l))
    distance = best[label]
    if distance > threshold:
        return UNKNOWN, distance
    return label, distance


def gallery_from(entries):
    return Gallery(entries={
        label: [Prototype(np.asarray(v), i) for i, v in enumerate(vectors)]
        for label, vectors in entries.items()
    })


def random_instance(rng):
    n_labels = int(rng.integers(1, 6))
    dim = int(rng.integers(2, 17))
    entries = {}
    for i in range(n_labels):
        count = int(rng.integers(1, 17))
        entries[f"p{i:02d}"] = [l2_normalize(rng.normal(size=dim))
                                for _ in range(count)]
    query = l2_normalize(rng.normal(size=dim))
    return entries, query


def make_detection(w, h):
    return Detection(frame=0, box=BoundingBox(0, 0, w, h),
                     embedding=np.array([1.0, 0.0]))


# ---------------------------------------------------------------------------
# config and area filter


def test_config_validates_threshold_range():
    with pytest.raises(ValueError):
        RecognizerConfig(unknown_threshold=-0.1)
    with pytest.raises(ValueError):
        RecognizerConfig(unknown_threshold=2.1)


def test_config_rejects_both_area_modes():
    with pytest.raises(ValueError):
        RecognizerConfig(min_area=10.0, min_area_fraction=0.01)
    with pytest.raises(ValueError):
        RecognizerConfig(min_area=-1.0)


@pytest.mark.parametrize("kwargs", [
    {"min_area": float("nan")},
    {"min_area": float("inf")},
    {"min_area_fraction": float("nan")},
    {"min_area_fraction": float("inf")},
    {"min_area_fraction": -0.01},
    {"min_area_fraction": 1.5},
    {"min_area": float("nan"), "min_area_fraction": 0.01},
    {"min_area": 10.0, "min_area_fraction": float("nan")},
])
def test_config_rejects_nan_infinite_and_out_of_range_area_thresholds(kwargs):
    with pytest.raises(ValueError):
        RecognizerConfig(**kwargs)


def test_config_accepts_area_threshold_bounds():
    assert RecognizerConfig(min_area=1e12).min_area == 1e12
    assert RecognizerConfig(min_area_fraction=1.0).min_area_fraction == 1.0


def test_area_filter_disabled_accepts_everything():
    cfg = RecognizerConfig()
    assert area_filter(make_detection(1, 1), None, cfg)


def test_area_filter_absolute_floor():
    cfg = RecognizerConfig(min_area=200.0)
    assert not area_filter(make_detection(10, 10), None, cfg)
    assert area_filter(make_detection(20, 10), None, cfg)


def test_area_filter_fractional_floor():
    cfg = RecognizerConfig(min_area_fraction=0.001)
    frame_area = 1920.0 * 1080.0
    # 50x40 = 2000 px^2 against a floor of 2073.6 px^2
    assert not area_filter(make_detection(50, 40), frame_area, cfg)
    assert area_filter(make_detection(50, 42), frame_area, cfg)


def test_area_filter_fractional_needs_frame_area():
    cfg = RecognizerConfig(min_area_fraction=0.001)
    with pytest.raises(ValueError):
        area_filter(make_detection(50, 40), None, cfg)


# ---------------------------------------------------------------------------
# classify


def test_classify_exact_prototype_hit():
    e0 = np.array([1.0, 0.0, 0.0])
    e1 = np.array([0.0, 1.0, 0.0])
    g = gallery_from({"alice": [e0], "bob": [e1]})
    got = classify(e0, g, RecognizerConfig())
    assert got.label == "alice"
    assert got.distance == 0.0


def test_classify_far_query_is_unknown_with_distance():
    g = gallery_from({"alice": [np.array([1.0, 0.0])]})
    got = classify(np.array([-1.0, 0.0]), g, RecognizerConfig())
    assert got.label == UNKNOWN
    assert got.distance == 2.0


def test_classify_tie_takes_lexicographically_smallest():
    v = np.array([1.0, 0.0])
    g = gallery_from({"zoe": [v], "amy": [v]})
    got = classify(v, g, RecognizerConfig())
    assert got.label == "amy"


def test_classify_empty_gallery_raises():
    with pytest.raises(EmptyGallery):
        classify(np.array([1.0, 0.0]), Gallery(entries={}), RecognizerConfig())


def test_classify_dimension_mismatch():
    g = gallery_from({"alice": [np.array([1.0, 0.0, 0.0])]})
    with pytest.raises(DimensionMismatch):
        classify(np.array([1.0, 0.0]), g, RecognizerConfig())


def test_classify_matches_exhaustive_oracle():
    rng = np.random.default_rng(101)
    cfg = RecognizerConfig()
    for _ in range(100):
        entries, query = random_instance(rng)
        got = classify(query, gallery_from(entries), cfg)
        want_label, want_distance = oracle_classify(
            query, entries, cfg.unknown_threshold)
        assert got.label == want_label
        assert abs(got.distance - want_distance) < 1e-12


def test_classify_batch_matches_single_calls():
    rng = np.random.default_rng(103)
    entries, _ = random_instance(rng)
    index = GalleryIndex(gallery_from(entries))
    cfg = RecognizerConfig()
    queries = np.stack([l2_normalize(rng.normal(size=index.dim))
                        for _ in range(20)])
    labels, distances = index.classify_batch(queries, cfg)
    for q, label, distance in zip(queries, labels, distances):
        single = classify(q, index, cfg)
        # batched and one-at-a-time GEMMs may differ in the last ulp
        assert label == single.label
        assert abs(distance - single.distance) < 1e-12


def test_classify_batch_returns_label_list_and_distance_array():
    e0 = np.array([1.0, 0.0, 0.0])
    e1 = np.array([0.0, 1.0, 0.0])
    index = GalleryIndex(gallery_from({"alice": [e0], "bob": [e1]}))
    queries = np.stack([e0, e1, -e0])
    labels, distances = index.classify_batch(queries, RecognizerConfig())
    assert labels == ["alice", "bob", UNKNOWN]
    assert isinstance(distances, np.ndarray)
    assert distances.dtype == np.float64
    assert distances.shape == (3,)
    assert distances.tolist() == [0.0, 0.0, 1.0]
    # a single vector is a batch of one
    labels, distances = index.classify_batch(e1, RecognizerConfig())
    assert labels == ["bob"]
    assert distances.shape == (1,)


def test_index_rejects_mixed_dims_and_empty_input():
    with pytest.raises(DimensionMismatch):
        GalleryIndex(gallery_from({"alice": [np.array([1.0, 0.0])],
                                   "bob": [np.array([1.0, 0.0, 0.0])]}))
    with pytest.raises(DimensionMismatch):
        GalleryIndex(gallery_from({"alice": list(np.eye(2)), "bob": list(np.eye(3))}))
    with pytest.raises(EmptyGallery):
        GalleryIndex(Gallery(entries={}))


def test_classify_invariant_under_prototype_permutation():
    rng = np.random.default_rng(107)
    for _ in range(20):
        entries, query = random_instance(rng)
        base = classify(query, gallery_from(entries), RecognizerConfig())
        shuffled = {
            label: [vectors[i] for i in rng.permutation(len(vectors))]
            for label, vectors in entries.items()
        }
        again = classify(query, gallery_from(shuffled), RecognizerConfig())
        assert again.label == base.label
        assert abs(again.distance - base.distance) < 1e-12


def test_adding_prototype_never_hurts_best_distance():
    rng = np.random.default_rng(109)
    for _ in range(20):
        entries, query = random_instance(rng)
        label = sorted(entries)[0]
        before = classify(query, gallery_from(entries), RecognizerConfig(
            unknown_threshold=2.0))
        entries[label] = entries[label] + [l2_normalize(rng.normal(
            size=len(query)))]
        after = classify(query, gallery_from(entries), RecognizerConfig(
            unknown_threshold=2.0))
        assert after.distance <= before.distance + 1e-12


def test_raising_threshold_never_flips_named_to_unknown():
    rng = np.random.default_rng(113)
    for _ in range(20):
        entries, query = random_instance(rng)
        g = gallery_from(entries)
        low = classify(query, g, RecognizerConfig(unknown_threshold=0.4))
        high = classify(query, g, RecognizerConfig(unknown_threshold=0.9))
        if low.label != UNKNOWN:
            assert high.label == low.label


def test_classification_is_plain_value():
    c = Classification("alice", 0.25)
    assert c.label == "alice"
    assert c.distance == 0.25
