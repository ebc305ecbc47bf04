"""Minimum-distance classification against the exhaustive-scan oracle."""

import copy
import tracemalloc

import numpy as np
import pytest

from prototrack.errors import DimensionMismatch, EmptyGallery
from prototrack.evaluate import _index_from_tracks
from prototrack.floattext import canonical_float
from prototrack.gallery import Gallery, TrainingTrack
from prototrack.recognizer import GalleryIndex, RecognizerConfig, area_filter
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
    """The Gallery of a label -> list of vectors dict; each label's frames
    count from 0."""
    return Gallery({label: np.array(vectors, dtype=np.float64)
                    for label, vectors in entries.items()},
                   {label: list(range(len(vectors))) for label, vectors in entries.items()})


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


def classify(embedding, gallery, cfg):
    """(label, distance) of one embedding: a batch of one through a
    GalleryIndex of `gallery`, or through `gallery` when it is one."""
    index = gallery if isinstance(gallery, GalleryIndex) else GalleryIndex(gallery)
    labels, distances = index.classify_batch(embedding, cfg)
    return labels[0], float(distances[0])


def test_classify_exact_prototype_hit():
    e0 = np.array([1.0, 0.0, 0.0])
    e1 = np.array([0.0, 1.0, 0.0])
    g = gallery_from({"alice": [e0], "bob": [e1]})
    label, distance = classify(e0, g, RecognizerConfig())
    assert label == "alice"
    assert distance == 0.0


def test_classify_far_query_is_unknown_with_distance():
    g = gallery_from({"alice": [np.array([1.0, 0.0])]})
    label, distance = classify(np.array([-1.0, 0.0]), g, RecognizerConfig())
    assert label == UNKNOWN
    assert distance == 2.0


def test_classify_tie_takes_lexicographically_smallest():
    v = np.array([1.0, 0.0])
    g = gallery_from({"zoe": [v], "amy": [v]})
    label, _ = classify(v, g, RecognizerConfig())
    assert label == "amy"


def test_classify_empty_gallery_raises():
    # a gallery is never empty, so there is no empty gallery to classify against
    with pytest.raises(EmptyGallery):
        classify(np.array([1.0, 0.0]), Gallery({}, {}), RecognizerConfig())


def test_classify_dimension_mismatch():
    g = gallery_from({"alice": [np.array([1.0, 0.0, 0.0])]})
    with pytest.raises(DimensionMismatch):
        classify(np.array([1.0, 0.0]), g, RecognizerConfig())


def test_classify_matches_exhaustive_oracle():
    rng = np.random.default_rng(101)
    cfg = RecognizerConfig()
    for _ in range(100):
        entries, query = random_instance(rng)
        label, distance = classify(query, gallery_from(entries), cfg)
        want_label, want_distance = oracle_classify(
            query, entries, cfg.unknown_threshold)
        assert label == want_label
        assert abs(distance - want_distance) < 1e-12


def test_classify_batch_matches_single_calls():
    rng = np.random.default_rng(103)
    entries, _ = random_instance(rng)
    index = GalleryIndex(gallery_from(entries))
    cfg = RecognizerConfig()
    queries = np.stack([l2_normalize(rng.normal(size=index.dim))
                        for _ in range(20)])
    labels, distances = index.classify_batch(queries, cfg)
    for q, label, distance in zip(queries, labels, distances):
        single_label, single_distance = classify(q, index, cfg)
        # batched and one-at-a-time GEMMs may differ in the last ulp
        assert label == single_label
        assert abs(distance - single_distance) < 1e-12


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
    # the Gallery constructor refuses both, so no index is built of either
    with pytest.raises(DimensionMismatch):
        gallery_from({"alice": [np.array([1.0, 0.0])], "bob": [np.array([1.0, 0.0, 0.0])]})
    with pytest.raises(DimensionMismatch):
        gallery_from({"alice": list(np.eye(2)), "bob": list(np.eye(3))})
    with pytest.raises(EmptyGallery):
        gallery_from({})


def test_classify_invariant_under_prototype_permutation():
    rng = np.random.default_rng(107)
    for _ in range(20):
        entries, query = random_instance(rng)
        base_label, base_distance = classify(
            query, gallery_from(entries), RecognizerConfig())
        shuffled = {
            label: [vectors[i] for i in rng.permutation(len(vectors))]
            for label, vectors in entries.items()
        }
        label, distance = classify(query, gallery_from(shuffled), RecognizerConfig())
        assert label == base_label
        assert abs(distance - base_distance) < 1e-12


def test_adding_prototype_never_hurts_best_distance():
    rng = np.random.default_rng(109)
    for _ in range(20):
        entries, query = random_instance(rng)
        label = sorted(entries)[0]
        _, before = classify(query, gallery_from(entries), RecognizerConfig(
            unknown_threshold=2.0))
        entries[label] = entries[label] + [l2_normalize(rng.normal(
            size=len(query)))]
        _, after = classify(query, gallery_from(entries), RecognizerConfig(
            unknown_threshold=2.0))
        assert after <= before + 1e-12


def test_raising_threshold_never_flips_named_to_unknown():
    rng = np.random.default_rng(113)
    for _ in range(20):
        entries, query = random_instance(rng)
        g = gallery_from(entries)
        low, _ = classify(query, g, RecognizerConfig(unknown_threshold=0.4))
        high, _ = classify(query, g, RecognizerConfig(unknown_threshold=0.9))
        if low != UNKNOWN:
            assert high == low


# ---------------------------------------------------------------------------
# classify_batch against the clip-then-reduce formula, bit for bit


def label_starts(column_labels):
    """The first column of each label's contiguous segment."""
    return np.array([c for c, label in enumerate(column_labels)
                     if c == 0 or label != column_labels[c - 1]], dtype=np.intp)


def clip_then_reduce(index, q, threshold):
    """classify_batch as first written: every prototype column's distance
    clipped to [0, 2], then each label's segment minimum."""
    dists = 1.0 - index.similarities(q)
    np.clip(dists, 0.0, 2.0, out=dists)
    starts = label_starts(index.column_labels)
    assert [index.column_labels[c] for c in starts] == index.labels
    per_label = np.minimum.reduceat(dists, starts, axis=1)
    best = np.argmin(per_label, axis=1)
    distances = per_label[np.arange(len(best)), best]
    labels = [index.labels[b] if d <= threshold else UNKNOWN
              for b, d in zip(best.tolist(), distances.tolist())]
    return labels, distances


def bitwise_cases():
    """About 3 000 seeded (entries, queries) pairs at d in {2, 3, 8, 128,
    512}: one-prototype labels, prototypes repeated within and across
    labels, and queries equal or antipodal to a prototype."""
    rng = np.random.default_rng(1701)
    for i in range(3000):
        dim = (2, 3, 8, 128, 512)[i % 5]
        entries = {}
        pool = []
        for j in range(int(rng.integers(1, 9))):
            vectors = []
            for _ in range(1 if i % 3 == 0 else int(rng.integers(1, 12))):
                if pool and rng.random() < 0.2:
                    vectors.append(pool[rng.integers(0, len(pool))])  # a duplicate
                else:
                    vectors.append(l2_normalize(rng.normal(size=dim)))
                pool.append(vectors[-1])
            entries[f"p{j:02d}"] = vectors
        queries = [l2_normalize(rng.normal(size=dim)) for _ in range(int(rng.integers(0, 6)))]
        picked = [pool[k] for k in rng.integers(0, len(pool), size=2)]
        queries += [picked[0], -picked[1]]  # distance 0 and distance 2
        yield entries, np.array(queries)[rng.permutation(len(queries))]


def test_classify_batch_matches_clip_then_reduce_bit_for_bit():
    below = above = 0
    for entries, q in bitwise_cases():
        index = GalleryIndex(gallery_from(entries))
        threshold = 0.6
        labels, distances = index.classify_batch(q, RecognizerConfig(threshold))
        want_labels, want_distances = clip_then_reduce(index, q, threshold)
        assert labels == want_labels
        assert np.array_equal(distances.view(np.uint64), want_distances.view(np.uint64))
        raw = 1.0 - index.similarities(q)
        below += bool((raw < 0.0).any())
        above += bool((raw > 2.0).any())
    # the cases reach past both ends of [0, 2], so they exercise the clamp
    assert below > 100 and above > 10


def test_classify_batch_ties_made_by_the_clip_go_to_the_first_column():
    # "b" holds the unclipped minimum, 1 - s = -2**-52 or exactly 2.0, and
    # "a" the first column, at 0.0 or 2 + 2**-51: clipped to [0, 2] they tie
    for a, b, query, distance in (([1.0, 0.0], [1.0 + 2 ** -52, 0.0], [1.0, 0.0], 0.0),
                                  ([-1.0 - 2 ** -51, 0.0], [-1.0, 0.0], [1.0, 0.0], 2.0)):
        index = GalleryIndex(gallery_from({"a": [np.array(a)], "b": [np.array(b)]}))
        raw = 1.0 - index.similarities(np.array([query]))[0]
        assert raw.argmin() == 1 and raw[0] != raw[1]
        labels, distances = index.classify_batch(np.array(query),
                                                 RecognizerConfig(unknown_threshold=2.0))
        assert labels == ["a"]
        assert distances.tolist() == [distance]


# ---------------------------------------------------------------------------
# the prototype columns: one copy, and no written distance moves with the
# number of rows classified at once


def clustered_case(rng, dim, counts, queries):
    """(GalleryIndex, (queries, dim) array): counts[i] prototypes for label i
    spread around one centre per label, as k-means prototypes lie, and unit
    queries drawn around those centres, one in five a stranger's."""
    centres = [rng.normal(size=dim) for _ in counts]
    entries = {f"p{i}": [l2_normalize(c + 0.6 * rng.normal(size=dim)) for _ in range(n)]
               for i, (c, n) in enumerate(zip(centres, counts))}
    rows = [l2_normalize(rng.normal(size=dim)) if rng.random() < 0.2 else
            l2_normalize(centres[rng.integers(len(counts))] + 0.6 * rng.normal(size=dim))
            for _ in range(queries)]
    return GalleryIndex(gallery_from(entries)), np.array(rows)


@pytest.mark.parametrize("dim, counts", [
    (128, [32, 32, 31, 32, 32, 32, 32, 32]),  # churn_classify: 8 people, 255 prototypes
    (512, [8, 7, 8, 7]),                      # files_512d: 4 people, 30 prototypes
])
def test_rows_classified_together_keep_their_written_distances(dim, counts):
    # the GEMM may round a row's similarities differently with the batch's
    # row count; the written distance (9 significant digits) and the label
    # must not change
    index, queries = clustered_case(np.random.default_rng(dim), dim, counts, 66)
    cfg = RecognizerConfig()
    alone = [index.classify_batch(q, cfg) for q in queries]
    alone_labels = [labels[0] for labels, _ in alone]
    alone_written = [canonical_float(distances[0]) for _, distances in alone]
    assert UNKNOWN in alone_labels and len(set(alone_labels)) == len(counts) + 1
    for m in range(1, 13):
        for start in range(0, len(queries) - m + 1, m):
            labels, distances = index.classify_batch(queries[start:start + m], cfg)
            assert labels == alone_labels[start:start + m]
            assert [canonical_float(d) for d in distances.tolist()] == \
                alone_written[start:start + m]


def test_index_holds_its_prototypes_once_as_columns():
    rng = np.random.default_rng(29)
    entries = {f"p{i}": [l2_normalize(rng.normal(size=512)) for _ in range(250)]
               for i in (3, 1, 2, 0)}
    gallery = gallery_from(entries)
    tracemalloc.start()
    try:
        index = GalleryIndex(gallery)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    columns = index.columns
    assert columns.dtype == np.float64 and columns.flags.c_contiguous
    assert columns.shape == (512, 1000)
    # column j is prototype j, labels sorted, each label's in gallery order
    assert np.array_equal(columns[:, 250], entries["p1"][0])
    assert np.array_equal(columns[:, 999], entries["p3"][249])
    # no (P, d) copy is kept, nor made on the way
    assert retained < 1.1 * columns.nbytes
    assert peak < 1.1 * columns.nbytes


def baseline_case(rng):
    """(the baseline's all-samples GalleryIndex of three tracks, every
    sample's l2_normalize in label order)."""
    tracks = [TrainingTrack(label, [(f, rng.normal(size=64)) for f in range(n)], 30.0)
              for label, n in (("bob", 40), ("alice", 25), ("carol", 1))]
    rows = [l2_normalize(e) for t in sorted(tracks, key=lambda t: t.label)
            for _, e in t.samples]
    return _index_from_tracks(tracks), rows


@pytest.mark.parametrize("dim, counts", [
    (8, [1]),               # one label with one row
    (32, [3, 1, 7, 2]),     # mixed row counts
    (512, [8, 7, 8, 7]),    # files_512d's width
    (None, None),           # the baseline's all-samples index
])
def test_columns_are_the_stacked_prototype_rows_in_c_order(dim, counts):
    # q @ columns rounds by the columns' memory order: an F-ordered copy of
    # the same values (as np.concatenate of the transposed entries gives)
    # would write other distances
    rng = np.random.default_rng(37)
    if dim is None:
        index, rows = baseline_case(rng)
    else:
        entries = {f"p{i}": [l2_normalize(rng.normal(size=dim)) for _ in range(n)]
                   for i, n in reversed(list(enumerate(counts)))}
        index = GalleryIndex(gallery_from(entries))
        rows = [v for label in sorted(entries) for v in entries[label]]
    stacked = np.stack(rows, axis=1)
    assert index.columns.flags.c_contiguous
    assert np.array_equal(index.columns.view(np.uint64), stacked.view(np.uint64))
    queries = np.array([l2_normalize(rng.normal(size=index.dim)) for _ in range(9)] + rows[:3])
    reference = copy.copy(index)
    reference.columns = stacked
    cfg = RecognizerConfig()
    labels, distances = index.classify_batch(queries, cfg)
    want_labels, want_distances = reference.classify_batch(queries, cfg)
    assert labels == want_labels
    assert np.array_equal(distances.view(np.uint64), want_distances.view(np.uint64))
