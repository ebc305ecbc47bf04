"""Tests for scoring, the exhaustive per-frame baseline and its timing
report, counted sweeps, and Pareto-front extraction."""

from pathlib import Path

import numpy as np
import pytest

from prototrack import evaluate
from prototrack.errors import DuplicateLabel, MisalignedStreams
from prototrack.evaluate import (
    SweepPoint,
    pareto_front,
    run_baseline,
    score,
    sweep,
)
from prototrack.gallery import TrainingTrack
from prototrack.recognizer import GalleryIndex, RecognizerConfig
from prototrack.synth import (
    GroundTruthStream,
    ScenarioSpec,
    default_train_seconds,
    generate,
    load_scenario,
    split_train_test,
)
from prototrack.tracker import TrackerConfig
from prototrack.types import (
    SOURCE_CLASSIFIED,
    SOURCE_OCCLUDED,
    SOURCE_REUSED,
    UNKNOWN,
    BoundingBox,
    Detection,
    FrameEntry,
    FrameResult,
)

DIM = 8
BOX = BoundingBox(100.0, 100.0, 96.0, 96.0)
BOX2 = BoundingBox(400.0, 100.0, 96.0, 96.0)


def one_hot(i):
    v = np.zeros(DIM)
    v[i] = 1.0
    return v


def half_mix(i):
    # 0.5 in four positions: unit norm, cosine distance exactly 0.5 from e_i
    v = np.zeros(DIM)
    v[[i, 5, 6, 7]] = 0.5
    return v


def entry(label, box=BOX, distance=0.1, source=SOURCE_CLASSIFIED):
    return FrameEntry(label, box, distance, source)


def truth_stream(presence):
    """Ground truth with the given {frame: (labels...)} presence map."""
    return GroundTruthStream(
        fps=30.0, frame_width=1920, frame_height=1080, embedding_dim=DIM,
        frames=[], presence=dict(presence))


def results_from(emissions):
    """Build FrameResults from {frame: [FrameEntry, ...]}."""
    return [FrameResult(f, tuple(es)) for f, es in sorted(emissions.items())]


# ---------------------------------------------------------------- score


def test_score_perfect_run():
    presence = {f: ("alice", "bob") for f in range(10)}
    results = results_from(
        {f: [entry("alice"), entry("bob", BOX2)] for f in range(10)})
    report = score(results, truth_stream(presence))
    assert report.per_person == {"alice": 1.0, "bob": 1.0}
    assert report.average == 1.0
    assert report.unknown_rate == 0.0
    assert report.false_label_rate == 0.0


def test_score_partial_fraction_hand_counted():
    # alice truly present in all 10 frames but emitted in only 8;
    # bob present and emitted everywhere
    presence = {f: ("alice", "bob") for f in range(10)}
    emissions = {f: [entry("alice"), entry("bob", BOX2)] for f in range(10)}
    emissions[3] = [entry("bob", BOX2)]
    emissions[7] = [entry("bob", BOX2)]
    report = score(results_from(emissions), truth_stream(presence))
    assert report.per_person["alice"] == pytest.approx(0.8)
    assert report.per_person["bob"] == 1.0
    assert report.average == pytest.approx(0.9)


def test_score_occlusion_placeholder_counts_as_correct():
    # alice is present-but-hidden on frames 4-6; a placeholder entry with
    # her label earns those frames just like a detection would
    presence = {f: ("alice",) for f in range(10)}
    emissions = {}
    for f in range(10):
        if 4 <= f <= 6:
            emissions[f] = [entry("alice", source=SOURCE_OCCLUDED)]
        else:
            emissions[f] = [entry("alice", source=SOURCE_REUSED)]
    report = score(results_from(emissions), truth_stream(presence))
    assert report.per_person["alice"] == 1.0
    assert report.false_label_rate == 0.0


def test_score_unknown_entries_counted_in_rate_only():
    # every frame: one correct named entry plus one Unknown entry
    presence = {f: ("alice",) for f in range(10)}
    emissions = {
        f: [entry("alice"), entry(UNKNOWN, BOX2, 0.9)] for f in range(10)}
    report = score(results_from(emissions), truth_stream(presence))
    assert report.per_person["alice"] == 1.0
    assert report.unknown_rate == pytest.approx(0.5)
    assert report.false_label_rate == 0.0


def test_score_false_label_rate_counts_absent_assertions():
    # alice is real; "bob" is asserted every frame but never present
    presence = {f: ("alice",) for f in range(10)}
    emissions = {
        f: [entry("alice"), entry("bob", BOX2)] for f in range(10)}
    report = score(results_from(emissions), truth_stream(presence))
    assert set(report.per_person) == {"alice"}
    assert report.false_label_rate == pytest.approx(0.5)


def test_score_accuracy_only_over_truly_present_frames():
    # alice present only in the first half; asserting her in the second
    # half does not raise her accuracy, it counts as false labeling
    presence = {f: ("alice",) if f < 5 else () for f in range(10)}
    emissions = {f: [entry("alice")] for f in range(10)}
    report = score(results_from(emissions), truth_stream(presence))
    assert report.per_person["alice"] == 1.0
    assert report.false_label_rate == pytest.approx(0.5)


def test_score_entry_order_within_frame_is_irrelevant():
    presence = {f: ("alice", "bob") for f in range(6)}
    fwd = {f: [entry("alice"), entry("bob", BOX2)] for f in range(6)}
    rev = {f: [entry("bob", BOX2), entry("alice")] for f in range(6)}
    a = score(results_from(fwd), truth_stream(presence))
    b = score(results_from(rev), truth_stream(presence))
    assert a == b


def test_score_frame_set_mismatch_raises():
    presence = {f: ("alice",) for f in range(10)}
    short = results_from({f: [entry("alice")] for f in range(9)})
    with pytest.raises(MisalignedStreams):
        score(short, truth_stream(presence))
    shifted = results_from({f + 1: [entry("alice")] for f in range(10)})
    with pytest.raises(MisalignedStreams):
        score(shifted, truth_stream(presence))


def test_score_empty_frames_allowed():
    # frames with nobody present and nothing emitted score cleanly
    presence = {0: ("alice",), 1: (), 2: ("alice",)}
    emissions = {0: [entry("alice")], 1: [], 2: []}
    report = score(results_from(emissions), truth_stream(presence))
    assert report.per_person["alice"] == pytest.approx(0.5)


# ---------------------------------------------------------------- baseline


def tracks_one_hot():
    return [
        TrainingTrack("alice", [(i, one_hot(0)) for i in range(5)], 30.0),
        TrainingTrack("bob", [(i, one_hot(1)) for i in range(5)], 30.0),
    ]


def det(vec, box=BOX, frame=0):
    return Detection(frame, box, np.asarray(vec, dtype=float))


def test_baseline_classifies_every_detection_every_frame():
    frames = []
    for f in range(10):
        dets = [det(one_hot(0), BOX, f)]
        if not 4 <= f <= 6:  # bob missing mid-run
            dets.append(det(one_hot(1), BOX2, f))
        frames.append((f, dets))
    results, timing = run_baseline(
        frames, tracks_one_hot(), RecognizerConfig(), reps=1)
    assert [r.frame for r in results] == list(range(10))
    for r in results:
        assert all(e.source == SOURCE_CLASSIFIED for e in r.entries)
    # no bridging: bob simply vanishes from the output on 4-6
    assert [len(r.entries) for r in results] == [2, 2, 2, 2, 1, 1, 1, 2, 2, 2]
    assert timing.frames == 10
    assert timing.seconds_per_frame > 0


def test_baseline_emits_duplicate_labels_without_arbitration():
    # an impostor at cosine distance 0.5 from alice is labeled alice too;
    # the baseline performs no per-frame duplicate resolution
    frames = [(0, [det(one_hot(0), BOX), det(half_mix(0), BOX2)])]
    results, _ = run_baseline(
        frames, tracks_one_hot(), RecognizerConfig(unknown_threshold=0.6),
        reps=1)
    labels = [e.label for e in results[0].entries]
    assert labels == ["alice", "alice"]
    assert results[0].entries[1].distance == pytest.approx(0.5)


def test_baseline_matches_against_every_training_sample():
    # a query equal to one specific (non-centroid) training sample must hit
    # distance ~0, which only happens if all samples are in the index
    rng = np.random.default_rng(7)
    samples = []
    for i in range(6):
        v = one_hot(0) + 0.3 * rng.normal(size=DIM)
        samples.append((i, v / np.linalg.norm(v)))
    tracks = [TrainingTrack("alice", samples, 30.0)]
    probe = samples[4][1]
    frames = [(0, [det(probe)])]
    results, _ = run_baseline(frames, tracks, RecognizerConfig(), reps=1)
    e = results[0].entries[0]
    assert e.label == "alice"
    assert e.distance < 1e-9


def test_baseline_refuses_tracks_that_share_a_label():
    # the index would keep only the last of the two, and its samples alone
    # would stand for the label
    frames = [(0, [det(one_hot(0))])]
    alice, bob = tracks_one_hot()
    with pytest.raises(DuplicateLabel, match="'alice'"):
        run_baseline(frames, [alice, TrainingTrack("alice", bob.samples, 30.0)],
                     RecognizerConfig(), reps=1)


def as_tuples(results):
    return [
        (r.frame, [(e.label, e.box, e.distance, e.source) for e in r.entries])
        for r in results
    ]


def test_baseline_results_identical_across_passes():
    frames = [(f, [det(one_hot(0), BOX, f)]) for f in range(5)]
    r1, _ = run_baseline(frames, tracks_one_hot(), RecognizerConfig(), reps=1)
    r2, _ = run_baseline(frames, tracks_one_hot(), RecognizerConfig(), reps=3)
    assert as_tuples(r1) == as_tuples(r2)


def test_timing_reps_must_be_positive():
    frames = [(0, [det(one_hot(0))])]
    tracks = tracks_one_hot()
    with pytest.raises(ValueError, match="reps must be positive"):
        run_baseline(frames, tracks, RecognizerConfig(), reps=0)


def test_timing_returns_the_first_pass_results(monkeypatch):
    passes = []

    def new_pass(*args):
        passes.append([])  # a distinct result object per pass
        return passes[-1]

    monkeypatch.setattr(evaluate, "_baseline_pass", new_pass)
    results, timing = run_baseline([(0, [])], tracks_one_hot(), RecognizerConfig(), reps=3)
    assert len(passes) == 3 and results is passes[0] and timing.frames == 1


# ---------------------------------------------------------------- sweep


def test_sweep_one_point_per_k_in_given_order():
    spec = ScenarioSpec(
        participants=2, duration_seconds=6.0, seed=11, embedding_dim=16,
        pose_clusters_per_participant=2, fps=10.0, noise_sigma=0.05,
        frame_width=640, frame_height=360)
    full = generate(spec)
    tracks, test = split_train_test(full, train_seconds=4.0)
    points = sweep(test, tracks, [1, 2, 4], seed=3,
                   cfg=TrackerConfig(fps=10.0))
    assert [p.k for p in points] == [1, 2, 4]
    for p in points:
        assert 0.0 <= p.accuracy <= 1.0
        assert p.dot_products > 0


def test_sweep_counts_the_dot_products_it_computed(monkeypatch):
    # each point's cost is rows × prototypes summed over every classify
    # call the run made with that k's gallery, and a second sweep of the
    # same inputs gives equal points
    spec = load_scenario(Path(__file__).parent / "data" / "demo_scenario.cfg")
    tracks, test = split_train_test(generate(spec), default_train_seconds(spec))
    work = []  # one sum per gallery built, in the order sweep builds them
    real_build, real_classify = evaluate.build_gallery_kmeans, GalleryIndex.classify_batch

    def counting_build(*args):
        work.append(0)
        return real_build(*args)

    def counting_classify(self, embeddings, cfg):
        work[-1] += len(embeddings) * self.columns.shape[1]
        return real_classify(self, embeddings, cfg)

    monkeypatch.setattr(evaluate, "build_gallery_kmeans", counting_build)
    monkeypatch.setattr(GalleryIndex, "classify_batch", counting_classify)
    k_values = [1, 2, 4, 8, 16, 32]
    cfg = TrackerConfig(fps=test.fps)
    points = sweep(test, tracks, k_values, seed=0, cfg=cfg)
    assert [p.k for p in points] == k_values
    assert [p.dot_products for p in points] == work
    assert all(type(p.dot_products) is int and p.dot_products > 0 for p in points)
    assert sweep(test, tracks, k_values, seed=0, cfg=cfg) == points


# ---------------------------------------------------------------- pareto


def dominates(q, p):
    return (q.accuracy >= p.accuracy
            and q.dot_products <= p.dot_products
            and (q.accuracy > p.accuracy
                 or q.dot_products < p.dot_products))


def check_front_invariants(points, front):
    """Implementation-independent definition of a valid Pareto front."""
    front_keys = {(p.accuracy, p.dot_products) for p in front}
    # members come from the input
    assert all(p in points for p in front)
    # mutually non-dominated, no duplicated value pairs
    assert len(front_keys) == len(front)
    for p in front:
        assert not any(dominates(q, p) for q in front if q is not p)
    # everything excluded is dominated by a front member or is a value
    # duplicate of one
    for p in points:
        if (p.accuracy, p.dot_products) in front_keys:
            continue
        assert any(dominates(q, p) for q in front)
    # reported cheapest-first
    costs = [p.dot_products for p in front]
    assert costs == sorted(costs)


def test_pareto_single_point():
    pts = [SweepPoint(4, 0.9, 200)]
    assert pareto_front(pts) == pts


def test_pareto_drops_dominated_point():
    good = SweepPoint(8, 0.95, 100)
    bad = SweepPoint(16, 0.90, 200)  # costlier and less accurate
    assert pareto_front([bad, good]) == [good]


def test_pareto_keeps_incomparable_points():
    cheap = SweepPoint(2, 0.80, 100)
    costly = SweepPoint(32, 0.95, 400)
    assert pareto_front([costly, cheap]) == [cheap, costly]


def test_pareto_duplicate_values_keep_first_occurrence():
    a = SweepPoint(2, 0.9, 200)
    b = SweepPoint(4, 0.9, 200)
    front = pareto_front([a, b])
    assert front == [a]


def test_pareto_front_invariants_on_random_point_sets():
    rng = np.random.default_rng(42)
    for _ in range(30):
        n = int(rng.integers(1, 40))
        pts = [
            SweepPoint(
                int(rng.integers(1, 64)),
                float(rng.integers(1, 11)) / 10.0,  # coarse grid forces ties
                int(rng.integers(1, 11)),
            )
            for _ in range(n)
        ]
        check_front_invariants(pts, pareto_front(pts))


def pareto_front_reference(points):
    """pareto_front before its sort-and-sweep form, verbatim but for the cost
    field's name: the reference the current one must match item for item."""
    unique = []
    seen = set()
    for p in points:
        key = (p.accuracy, p.dot_products)
        if key not in seen:
            seen.add(key)
            unique.append(p)
    front = []
    for p in unique:
        dominated = False
        for q in unique:
            if q is p:
                continue
            if (q.accuracy >= p.accuracy
                    and q.dot_products <= p.dot_products
                    and (q.accuracy > p.accuracy
                         or q.dot_products < p.dot_products)):
                dominated = True
                break
        if not dominated:
            front.append(p)
    return sorted(front, key=lambda p: (p.dot_products, p.accuracy, p.k))


def test_pareto_front_matches_dominance_loop_reference():
    a = SweepPoint(1, 0.8, 200)
    dup = SweepPoint(2, 0.8, 200)  # an exact duplicate of a
    more_accurate = SweepPoint(3, 0.9, 200)  # same cost as a
    cheaper = SweepPoint(4, 0.8, 100)  # same accuracy as a
    sets = [[], [a], [a, dup], [dup, a], [a, more_accurate], [more_accurate, a],
            [a, cheaper], [cheaper, a], [dup, cheaper, a, more_accurate],
            [SweepPoint(5, 0.0, 100), SweepPoint(6, -0.0, 100)]]
    rng = np.random.default_rng(14)
    for _ in range(1200):
        n = int(rng.integers(0, 25))
        # coarse grids: exact duplicates and ties on either field are common
        accuracies = rng.integers(0, 6, n) / 5.0
        costs = rng.integers(1, 6, n)
        sets.append([SweepPoint(i, float(acc), int(c))
                     for i, (acc, c) in enumerate(zip(accuracies, costs))])
    for points in sets:
        front, expected = pareto_front(points), pareto_front_reference(points)
        assert len(front) == len(expected)
        assert all(p is q for p, q in zip(front, expected))
