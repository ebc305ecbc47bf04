"""Gallery construction: K-means medoids and temporal sampling.

The K-means checks lean on two independent oracles: a brute-force
enumeration of all partitions (for tiny instances) and an exhaustive
nearest-point scan (for medoid snapping).
"""

import hashlib
import itertools
import math
import time
from bisect import bisect_left

import numpy as np
import pytest

from prototrack.errors import DimensionMismatch, DuplicateLabel, EmptyGallery, EmptyInput
from prototrack.gallery import (
    METHOD_KMEANS,
    METHOD_SAMPLING,
    Gallery,
    TrainingTrack,
    _cluster_means,
    _plus_plus_seed,
    _sq_norms,
    build_gallery_kmeans,
    build_gallery_sampling,
    kmeans,
    snap_to_medoids,
)
from prototrack.stream_io import write_gallery
from prototrack.synth import ScenarioSpec, generate, split_train_test
from prototrack.types import UNKNOWN, l2_normalize


def brute_force_best_sse(points, k):
    """Minimum SSE over every assignment of points to k clusters."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    n = len(pts)
    best = np.inf
    for assignment in itertools.product(range(k), repeat=n):
        used = set(assignment)
        if len(used) < min(k, n):
            continue  # k-means never leaves a cluster empty
        sse = 0.0
        for c in used:
            members = pts[[i for i in range(n) if assignment[i] == c]]
            centroid = members.mean(axis=0)
            sse += float(np.sum((members - centroid) ** 2))
        best = min(best, sse)
    return best


def final_sse(points, centroids, assignment):
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    return float(np.sum((pts - centroids[assignment]) ** 2))


def make_track(label, embeddings, frames=None, fps=30.0):
    embeddings = [l2_normalize(e) for e in embeddings]
    if frames is None:
        frames = range(len(embeddings))
    return TrainingTrack(label, list(zip(frames, embeddings)), fps)


# ---------------------------------------------------------------------------
# TrainingTrack / Gallery invariants


def test_track_rejects_empty_and_bad_labels():
    with pytest.raises(EmptyInput):
        TrainingTrack("alice", [], 30.0)
    with pytest.raises(ValueError):
        TrainingTrack(UNKNOWN, [(0, np.array([1.0, 0.0]))], 30.0)
    with pytest.raises(ValueError):
        TrainingTrack("", [(0, np.array([1.0, 0.0]))], 30.0)


def test_track_rejects_non_positive_or_non_finite_fps():
    emb = np.array([1.0, 0.0])
    for fps in (0.0, -30.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            TrainingTrack("alice", [(0, emb)], fps)


def test_track_rejects_non_increasing_frames():
    emb = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        TrainingTrack("alice", [(5, emb), (5, emb)], 30.0)
    with pytest.raises(ValueError):
        TrainingTrack("alice", [(5, emb), (4, emb)], 30.0)


def test_gallery_forbids_unknown_key_and_empty_entry():
    row = np.array([[1.0, 0.0]])
    with pytest.raises(ValueError):
        Gallery({UNKNOWN: row}, {UNKNOWN: [0]})
    with pytest.raises(ValueError, match="n >= 1 prototypes"):
        Gallery({"alice": np.empty((0, 2))}, {"alice": []})
    g = Gallery({"bob": np.vstack([row, row]), "alice": row}, {"bob": [0, 1], "alice": [0]})
    assert g.labels == ("alice", "bob")
    assert g.size() == 3


def test_gallery_is_never_empty():
    with pytest.raises(EmptyGallery, match="no prototypes"):
        Gallery({}, {})


@pytest.mark.parametrize("entries, source_frames", [
    ({"alice": np.array([[1.0, 0.0]])}, {"bob": [0]}),          # other labels
    ({"alice": np.array([[1.0, 0.0]])}, {}),                    # a label short
    ({"alice": np.array([[1.0, 0.0]])}, {"alice": []}),         # a frame short
    ({"alice": np.array([[1.0, 0.0]])}, {"alice": [0, 1]}),     # a frame over
    ({"alice": np.array([1.0, 0.0])}, {"alice": [0, 1]}),       # not a matrix
    ({"alice": [[1.0, 0.0]]}, {"alice": [0]}),                  # not an array
    ({"alice": np.array([[1.0, 0.0]])}, {"alice": [0.0]}),      # a float frame
    ({"alice": np.array([[1.0, 0.0]])}, {"alice": [True]}),     # a bool frame
    ({"": np.array([[1.0, 0.0]])}, {"": [0]}),                  # a bad label
])
def test_gallery_refuses_a_bad_entry(entries, source_frames):
    with pytest.raises(ValueError):
        Gallery(entries, source_frames)


def test_gallery_refuses_mixed_widths_and_takes_numpy_frames():
    with pytest.raises(DimensionMismatch, match=r"\[2, 3\]"):
        Gallery({"alice": np.array([[1.0, 0.0]]), "bob": np.array([[1.0, 0.0, 0.0]])},
                {"alice": [0], "bob": [0]})
    assert Gallery({"alice": np.array([[1.0, 0.0]])}, {"alice": [np.int64(7)]}).size() == 1


@pytest.mark.parametrize("meta", [
    {"method": 5}, {"method": "medoids"}, {"method": None},
    {"k": "x"}, {"k": True}, {"k": 2.0}, {"k": np.int64(2)},
    {"seed": [1]}, {"seed": False}, {"seed": 0.5},
])
def test_gallery_refuses_bad_metadata(meta):
    (key,) = meta
    with pytest.raises(ValueError, match=f"gallery {key} must be"):
        Gallery({"alice": np.array([[1.0, 0.0]])}, {"alice": [0]}, **meta)


def test_gallery_metadata_of_either_method():
    entries, frames = {"alice": np.array([[1.0, 0.0]])}, {"alice": [0]}
    assert Gallery(entries, frames, METHOD_SAMPLING).k is None
    g = Gallery(entries, frames, method=METHOD_KMEANS, k=4, seed=-3)
    assert (g.method, g.k, g.seed) == ("kmeans", 4, -3)


# ---------------------------------------------------------------------------
# kmeans


def test_kmeans_k1_centroid_is_mean():
    centroids, assignment = kmeans([[0.0, 0.0], [2.0, 0.0]], k=1, seed=0)
    assert np.allclose(centroids, [[1.0, 0.0]])
    assert list(assignment) == [0, 0]


def test_kmeans_k_equals_n_gives_zero_sse():
    pts = np.array([[0.0], [1.0], [5.0], [9.0]])
    centroids, assignment = kmeans(pts, k=4, seed=1)
    assert final_sse(pts, centroids, assignment) == 0.0
    assert sorted(centroids.ravel().tolist()) == [0.0, 1.0, 5.0, 9.0]


def test_kmeans_clamps_k_to_point_count():
    centroids, assignment = kmeans([[1.0], [2.0]], k=10, seed=0)
    assert len(centroids) == 2


def test_kmeans_two_obvious_clusters():
    pts = [[0.0], [0.1], [10.0], [10.1]]
    centroids, assignment = kmeans(pts, k=2, seed=3)
    groups = {tuple(np.flatnonzero(assignment == c).tolist()) for c in (0, 1)}
    assert groups == {(0, 1), (2, 3)}
    assert sorted(centroids.ravel().tolist()) == pytest.approx([0.05, 10.05])


def test_kmeans_rejects_empty_input():
    with pytest.raises(EmptyInput):
        kmeans(np.empty((0, 3)), k=1, seed=0)


def test_kmeans_sse_non_increasing_every_iteration():
    rng = np.random.default_rng(17)
    for trial in range(25):
        n = int(rng.integers(5, 40))
        d = int(rng.integers(1, 6))
        pts = rng.normal(size=(n, d))
        k = int(rng.integers(1, min(n, 6) + 1))
        # kmeans is deterministic, so max_iters=t gives the state after
        # iteration t; two equal results in a row mean the loop converged
        history, last = [], None
        for t in range(1, 101):
            centroids, assignment = kmeans(pts, k, seed=trial, max_iters=t)
            if last is not None and np.array_equal(assignment, last):
                break
            history.append(float(np.sum((pts - centroids[assignment]) ** 2)))
            last = assignment
        assert history, "at least one iteration must run"
        for earlier, later in zip(history, history[1:]):
            assert later <= earlier + 1e-9


def test_kmeans_matches_brute_force_on_tiny_instances():
    rng = np.random.default_rng(23)
    for trial in range(15):
        n = int(rng.integers(3, 8))
        d = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        pts = rng.normal(size=(n, d))
        best = min(
            final_sse(pts, *kmeans(pts, k, seed=restart))
            for restart in range(10)
        )
        assert best <= brute_force_best_sse(pts, k) + 1e-9


def test_kmeans_every_cluster_non_empty_despite_duplicates():
    # five copies of one point and a lone outlier force empty-cluster repair
    pts = np.array([[0.0, 0.0]] * 5 + [[9.0, 9.0]])
    for seed in range(5):
        _, assignment = kmeans(pts, k=3, seed=seed)
        assert set(assignment.tolist()) == {0, 1, 2}


def test_kmeans_deterministic_for_fixed_seed():
    pts = np.random.default_rng(9).normal(size=(30, 4))
    a = kmeans(pts, k=5, seed=42)
    b = kmeans(pts, k=5, seed=42)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


def reference_seed(pts, k, rng):
    """k-means++ seeding with each step's squared distances from a broadcast
    subtract, a square and a row sum, as it was first written."""
    n = len(pts)
    chosen = [int(rng.integers(n))]
    d2 = np.sum((pts - pts[chosen[0]]) ** 2, axis=1)
    for _ in range(1, k):
        total = float(d2.sum())
        idx = int(rng.choice(n, p=d2 / total)) if total > 0.0 else int(rng.integers(n))
        chosen.append(idx)
        np.minimum(d2, np.sum((pts - pts[idx]) ** 2, axis=1), out=d2)
    return chosen


def test_plus_plus_seed_picks_what_the_row_sum_seeding_picks():
    # the matrix-product distances differ from the row sums in the last
    # bits; the draws they feed must not
    rng = np.random.default_rng(61)
    for trial in range(300):
        d = (2, 8, 128, 512)[trial % 4]
        noise = 0.0 if trial % 3 == 0 else rng.uniform(0.0, 0.2)
        centres = rng.normal(size=(int(rng.integers(1, 9)), d))
        n = int(rng.integers(1, 160))
        pts = centres[rng.integers(len(centres), size=n)] + noise * rng.normal(size=(n, d))
        if trial % 5 == 0:
            pts = pts[rng.integers(n, size=n)]  # duplicated rows
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        # k past the distinct rows reaches the draw for all-duplicate mass
        k = int(rng.integers(1, min(n, 24) + 1))
        got = _plus_plus_seed(pts, k, np.random.default_rng(trial), _sq_norms(pts))
        assert got == reference_seed(pts, k, np.random.default_rng(trial)), (trial, n, d, k)


def add_at_means(pts, assignment, k):
    """Reference cluster means: np.add.at sums the rows in point order."""
    sums = np.zeros((k, pts.shape[1]), dtype=np.float64)
    np.add.at(sums, assignment, pts)
    return sums / np.bincount(assignment, minlength=k).astype(np.float64)[:, None]


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_cluster_means_bit_identical_to_add_at():
    rng = np.random.default_rng(59)
    for trial in range(300):
        d = (1, 8, 128, 512)[trial % 4]
        n = int(rng.integers(1, 120))
        k = (1, n, int(rng.integers(1, n + 1)))[trial // 4 % 3]
        # magnitudes over six decades, so the summation order shows in the bits
        pts = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1))
        if trial % 5 == 0:
            pts = pts[rng.integers(n, size=n)]  # duplicate points
        # every cluster gets a member; k == n leaves each with exactly one
        assignment = rng.permutation(
            np.concatenate([np.arange(k), rng.integers(k, size=n - k)]))
        got = _cluster_means(pts, assignment, k)
        assert same_bits(got, add_at_means(pts, assignment, k)), (trial, n, d, k)


# ---------------------------------------------------------------------------
# snap_to_medoids


def test_snap_exact_point_match():
    pts = [[0.0, 0.0], [3.0, 3.0], [7.0, 1.0]]
    assert snap_to_medoids([[3.0, 3.0]], pts) == [1]


def test_snap_symmetric_tie_takes_lowest_index():
    assert snap_to_medoids([[1.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]) == [0]


def test_snap_deduplicates_repeat_winners():
    pts = [[0.0], [10.0]]
    out = snap_to_medoids([[0.1], [-0.1], [9.9]], pts)
    assert out == [0, 1]


def test_snap_matches_exhaustive_scan():
    rng = np.random.default_rng(31)
    for trial in range(20):
        pts = rng.normal(size=(20, 3))
        cents = rng.normal(size=(3, 3))
        got = snap_to_medoids(cents, pts)
        expected = []
        for c in cents:
            d = np.sum((pts - c) ** 2, axis=1)
            best = min(range(len(pts)), key=lambda i: (d[i], i))
            if best not in expected:
                expected.append(best)
        assert got == expected


def test_snap_rejects_empty():
    with pytest.raises(EmptyInput):
        snap_to_medoids([], [[1.0]])
    with pytest.raises(EmptyInput):
        snap_to_medoids([[1.0]], [])


# ---------------------------------------------------------------------------
# build_gallery_kmeans


def test_build_kmeans_single_k1_tie_takes_first_sample():
    track = make_track("alice", [[1.0, 0.0], [0.0, 1.0]])
    g = build_gallery_kmeans([track], k=1, seed=0)
    protos = g.entries["alice"]
    assert len(protos) == 1
    # both samples tie against the mean direction; index 0 wins
    assert np.allclose(protos[0], [1.0, 0.0])
    assert g.source_frames["alice"] == [0]


def test_build_kmeans_identical_samples_collapse():
    track = make_track("bob", [[0.6, 0.8]] * 3)
    g = build_gallery_kmeans([track], k=2, seed=0)
    assert len(g.entries["bob"]) == 1


def test_build_kmeans_two_participants_match_partition_oracle():
    # 1-D style clusters embedded on the unit circle
    a = make_track("alice", [[1.0, 0.0], [0.999, 0.01], [0.0, 1.0], [0.01, 0.999]])
    b = make_track("bob", [[-1.0, 0.0], [-0.999, 0.01], [0.0, -1.0], [0.01, -0.999]])
    g = build_gallery_kmeans([a, b], k=2, seed=5)
    for label, track in (("alice", a), ("bob", b)):
        protos = g.entries[label]
        assert len(protos) == 2
        samples = track.matrix()
        # medoid property: every prototype is one of the samples
        for p in protos:
            assert any(np.allclose(p, l2_normalize(s)) for s in samples)
        # and the two medoids come from different natural clusters
        frames = sorted(g.source_frames[label])
        assert frames[0] in (0, 1) and frames[1] in (2, 3)


def test_build_kmeans_rejects_duplicate_labels():
    t = make_track("alice", [[1.0, 0.0]])
    u = make_track("alice", [[0.0, 1.0]])
    with pytest.raises(DuplicateLabel):
        build_gallery_kmeans([t, u], k=1, seed=0)


def test_build_kmeans_rejects_no_tracks():
    with pytest.raises(EmptyInput):
        build_gallery_kmeans([], k=1, seed=0)


def test_build_kmeans_deterministic_and_medoid_property():
    rng = np.random.default_rng(41)
    tracks = [
        make_track(f"p{i}", rng.normal(size=(25, 6)))
        for i in range(3)
    ]
    g1 = build_gallery_kmeans(tracks, k=4, seed=7)
    g2 = build_gallery_kmeans(tracks, k=4, seed=7)
    assert g1.labels == g2.labels
    for label in g1.labels:
        p1 = g1.entries[label]
        p2 = g2.entries[label]
        assert g1.source_frames[label] == g2.source_frames[label]
        assert p1.tobytes() == p2.tobytes()
        # every prototype is the normalized input sample of its frame, bit
        # for bit as l2_normalize gives it
        track = next(t for t in tracks if t.label == label)
        by_frame = dict(track.samples)
        assert p1.dtype == np.float64 and p1.flags.c_contiguous
        assert p1.tobytes() == np.stack(
            [l2_normalize(by_frame[f]) for f in g1.source_frames[label]]).tobytes()
        assert all(type(f) is int for f in g1.source_frames[label])
        assert abs(np.linalg.norm(p1[0]) - 1.0) < 1e-9


def test_build_kmeans_total_budget_split():
    rng = np.random.default_rng(43)
    tracks = [make_track(f"p{i}", rng.normal(size=(20, 4))) for i in range(2)]
    g = build_gallery_kmeans(tracks, k=8, seed=0, k_is_total=True)
    for label in g.labels:
        assert len(g.entries[label]) <= 4
    # a budget below the participant count still yields one prototype each
    g_min = build_gallery_kmeans(tracks, k=1, seed=0, k_is_total=True)
    assert all(len(g_min.entries[l]) == 1 for l in g_min.labels)


@pytest.mark.parametrize("dim, k, seed, digest", [
    (32, 32, 11, "013210be71aad3f479799eb7d5f2344ace5aa18ad746931409f68b3fdb1c8f82"),
    (512, 8, 12, "0e2dd24cdf41c664fe2bfff50954fdd8bae7c83332539bea4f2217825b5e21c9"),
])
def test_build_kmeans_written_gallery_bytes_pinned(tmp_path, dim, k, seed, digest):
    # digests written when the cluster means were summed with np.add.at
    spec = ScenarioSpec(participants=3, duration_seconds=20.0, seed=seed,
                        embedding_dim=dim, noise_sigma=0.1, fps=10.0)
    tracks, _ = split_train_test(generate(spec), 16.0)
    path = tmp_path / "gallery.json"
    write_gallery(build_gallery_kmeans(tracks, k=k, seed=seed), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


# ---------------------------------------------------------------------------
# build_gallery_sampling


def test_sampling_thirty_fps_three_seconds():
    rng = np.random.default_rng(47)
    track = make_track("alice", rng.normal(size=(90, 4)), frames=range(90))
    g = build_gallery_sampling([track])
    assert g.source_frames["alice"] == [0, 30, 60]


def test_sampling_short_track_keeps_first_frame():
    track = make_track("alice", [[1.0, 0.0], [0.0, 1.0]], frames=[0, 10])
    g = build_gallery_sampling([track])
    assert g.source_frames["alice"] == [0]


def test_sampling_fractional_fps_boundaries():
    rng = np.random.default_rng(53)
    track = make_track("alice", rng.normal(size=(100, 4)), frames=range(100),
                       fps=29.97)
    g = build_gallery_sampling([track])
    # ceil(k * 29.97) = 0, 30, 60, 90; 120 exceeds the last frame
    assert g.source_frames["alice"] == [0, 30, 60, 90]


def test_sampling_anchors_at_first_frame_and_skips_gaps():
    emb = [[1.0, 0.0]] * 4
    track = make_track("alice", emb, frames=[100, 120, 131, 165])
    g = build_gallery_sampling([track])
    # boundaries 100, 130, 160: first samples at/after are 100, 131, 165
    assert g.source_frames["alice"] == [100, 131, 165]


def reference_sampling_frames(frames, fps):
    """The sampling gallery's picks by the plain loop: visit every boundary
    first + ceil(j * fps), j = 0, 1, 2, ..., up to the last frame."""
    first, last = frames[0], frames[-1]
    picked = []
    j = 0
    while first + math.ceil(j * fps) <= last:
        idx = bisect_left(frames, first + math.ceil(j * fps))
        if idx not in picked:
            picked.append(idx)
        j += 1
    return [frames[i] for i in picked]


def test_sampling_matches_the_boundary_by_boundary_loop():
    rng = np.random.default_rng(61)
    fps_values = [29.97, 0.5, 1.0, 1e-3, 59.94, 1 - 2 ** -52, 1 + 2 ** -52]
    for trial in range(400):
        fps = (fps_values[trial % len(fps_values)] if trial % 2
               else float(rng.uniform(0.01, 100.0)))
        n = int(rng.integers(1, 40))
        start = int(rng.integers(0, 500))
        span = min(int(rng.integers(n, 2000)), int(fps * 20_000) + n)
        frames = sorted(int(f) for f in
                        rng.choice(np.arange(start, start + span), n, replace=False))
        track = make_track("alice", [[1.0, 0.0]] * n, frames=frames, fps=fps)
        got = build_gallery_sampling([track]).source_frames["alice"]
        assert got == reference_sampling_frames(frames, fps), (fps, frames)


@pytest.mark.parametrize("fps", [1e-9, 1e-300, 5e-324])
def test_sampling_tiny_fps_ends_quickly(fps):
    # below 1 fps every frame is a boundary, and the plain loop would visit
    # (last - first) / fps of them; at 5e-324 no float j makes j * fps
    # reach 1, so the boundaries are the first frame and the one after it
    frames = list(range(0, 7200, 3))
    track = make_track("alice", [[1.0, 0.0]] * len(frames), frames=frames, fps=fps)
    start = time.perf_counter()
    g = build_gallery_sampling([track])
    assert time.perf_counter() - start < 5.0
    assert g.source_frames["alice"] == \
        (frames if fps > 1e-308 else [0, 3])
