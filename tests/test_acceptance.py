"""Acceptance suite: eleven criteria, one test each.

Every test prints a single "criterion N: PASS/FAIL" line (visible with
pytest -s; under plain pytest the verdict is the test outcome itself).
The heavy scenarios are sized to keep the whole suite under the five
minute budget.
"""

import itertools
import json
import time
from contextlib import contextmanager
from pathlib import Path
from statistics import median

import numpy as np
import pytest

from prototrack.cli import main as cli_main
from prototrack.evaluate import (
    _baseline_pass,
    pareto_front,
    run_baseline,
    score,
    sweep,
)
from prototrack.gallery import Gallery, build_gallery_kmeans, kmeans
from prototrack.recognizer import GalleryIndex, RecognizerConfig
from prototrack.stream_io import (
    StreamHeader,
    read_gallery,
    read_stream,
    write_gallery,
    write_results,
    write_stream,
)
from prototrack.synth import Event, ScenarioSpec, generate, load_scenario, split_train_test
from prototrack.tracker import TrackerConfig, run, run_initial_window, step
from prototrack.types import (
    UNKNOWN,
    BoundingBox,
    Detection,
    duplicate_named_labels,
    l2_normalize,
)

DATA = Path(__file__).parent / "data"


@contextmanager
def criterion(n, description):
    try:
        yield
    except BaseException:
        print(f"criterion {n}: FAIL — {description}")
        raise
    print(f"criterion {n}: PASS — {description}")


# --------------------------------------------------------------------------
# 1. classification equals an exhaustive brute-force scan


def brute_force_classify(entries, query, threshold):
    """Independent oracle: per-prototype scan, global (distance, label) min,
    Unknown past the threshold."""
    best = None
    for label in entries:
        for proto in entries[label]:
            d = min(2.0, max(0.0, 1.0 - float(np.dot(query, proto))))
            if best is None or (d, label) < best:
                best = (d, label)
    d, label = best
    return (UNKNOWN if d > threshold else label), d


def random_instance(rng):
    dim = int(rng.integers(2, 17))
    n_labels = int(rng.integers(1, 6))
    entries = {}
    budget = 16
    for i in range(n_labels):
        count = int(rng.integers(1, max(2, budget // (n_labels - i) + 1)))
        budget -= count
        entries[f"person{i:02d}"] = [
            l2_normalize(rng.normal(size=dim)) for _ in range(count)]
    query = l2_normalize(rng.normal(size=dim))
    return entries, query


def crafted_instances():
    e0 = np.zeros(4); e0[0] = 1.0
    e1 = np.zeros(4); e1[1] = 1.0
    shared = l2_normalize(np.ones(4))
    return [
        # exact prototype hit
        ({"amy": [e0], "zed": [e1]}, e0),
        # two labels tie on an identical prototype
        ({"beta": [shared], "alpha": [shared]}, shared),
        # everything far away: Unknown
        ({"amy": [e0], "zed": [e1]}, l2_normalize(np.array([-1.0, -1, -1, -1]))),
        # distance exactly at the threshold stays named (strictly-greater rule)
        ({"amy": [e0]}, l2_normalize(np.array([0.4, np.sqrt(1 - 0.16), 0, 0]))),
    ]


def test_criterion_01_classifier_matches_brute_force():
    with criterion(1, "classification equals brute-force scan on 100 seeded "
                      "instances (ties and Unknown included)"):
        rng = np.random.default_rng(12345)
        cfg = RecognizerConfig(unknown_threshold=0.6)
        instances = crafted_instances()
        while len(instances) < 100:
            instances.append(random_instance(rng))
        for entries, query in instances:
            gallery = Gallery(
                {label: np.array(protos, dtype=float) for label, protos in entries.items()},
                {label: [0] * len(protos) for label, protos in entries.items()})
            labels, distances = GalleryIndex(gallery).classify_batch(query, cfg)
            want_label, want_dist = brute_force_classify(entries, query, 0.6)
            assert labels == [want_label]
            assert distances[0] == pytest.approx(want_dist, abs=1e-12)


# --------------------------------------------------------------------------
# 2. best-of-10-restarts K-means reaches the brute-force optimal SSE


def optimal_sse(points, k):
    """Exhaustive scan over every assignment of points to up to k clusters."""
    n = len(points)
    best = np.inf
    for assign in itertools.product(range(min(k, n)), repeat=n):
        labels = np.asarray(assign)
        sse = 0.0
        for c in set(assign):
            members = points[labels == c]
            mu = members.mean(axis=0)
            sse += float(((members - mu) ** 2).sum())
        best = min(best, sse)
    return best


def test_criterion_02_kmeans_matches_brute_force_optimum():
    with criterion(2, "best-of-10-restart K-means SSE equals the brute-force "
                      "optimal partition SSE within 1e-9"):
        rng = np.random.default_rng(202)
        for n in (2, 4, 6, 8):
            for k in (1, 2, 3):
                for dim in (2, 4):
                    points = rng.normal(size=(n, dim))
                    want = optimal_sse(points, k)
                    got = np.inf
                    for restart in range(10):
                        centroids, assignment = kmeans(points, k, seed=restart)
                        sse = float(
                            ((points - centroids[assignment]) ** 2).sum())
                        got = min(got, sse)
                    assert abs(got - want) <= 1e-9, (n, k, dim)


# --------------------------------------------------------------------------
# 3. the committed 200-frame hand-simulated scenario, byte for byte


def test_criterion_03_tracker_fixture_byte_exact(tmp_path):
    with criterion(3, "committed 200-frame hand-simulated scenario reproduced "
                      "byte-for-byte"):
        header, frames = read_stream(DATA / "tracker_fixture_stream.jsonl")
        gallery = read_gallery(DATA / "tracker_fixture_gallery.json")
        state = run(frames, gallery, TrackerConfig(fps=header.fps),
                    header.frame_area)
        out = tmp_path / "results.jsonl"
        write_results(state.results, out)
        expected = (DATA / "tracker_fixture_expected.jsonl").read_bytes()
        assert out.read_bytes() == expected


# --------------------------------------------------------------------------
# 4. confidence-counter law on randomized presence patterns


def test_criterion_04_occlusion_counter_law():
    with criterion(4, "counter moves ±1 within [0, 10] and occluded entries "
                      "appear iff the counter holds ≥ 5 at a miss"):
        dim = 8
        labels = ["ada", "bea", "cyd"]
        boxes = [BoundingBox(100.0 + 300 * i, 100.0, 96.0, 96.0)
                 for i in range(len(labels))]
        vecs = []
        for i in range(len(labels)):
            v = np.zeros(dim)
            v[i] = 1.0
            vecs.append(v)
        gallery = GalleryIndex(Gallery({label: np.array([vec]) for label, vec in zip(labels, vecs)},
                                       {label: [0] for label in labels}))
        cfg = TrackerConfig(fps=30.0)  # defaults: cap 10, min_appearances 5

        for trial in range(5):
            rng = np.random.default_rng(400 + trial)
            bootstrap = [
                (f, [Detection(f, boxes[i], vecs[i]) for i in range(3)])
                for f in range(cfg.window_frames())
            ]
            state = run_initial_window(bootstrap, gallery, cfg)
            present = [True, True, True]
            for f in range(cfg.window_frames(), cfg.window_frames() + 400):
                for i in range(3):
                    if rng.random() < 0.12:
                        present[i] = not present[i]
                active_before = {l: fc.continuous_appearances
                                 for l, fc in state.active.items()}
                inactive_before = {l: fc.continuous_appearances
                                   for l, fc in state.inactive.items()}
                dets = [Detection(f, boxes[i], vecs[i])
                        for i in range(3) if present[i]]
                step(state, f, dets, gallery, cfg)
                entries = state.results[-1].entries
                occluded_labels = {e.label for e in entries
                                   if e.source == "occluded"}
                for i, label in enumerate(labels):
                    if label in active_before:
                        before = active_before[label]
                        if present[i]:  # same box: always an overlap match
                            assert state.active[label].continuous_appearances \
                                == min(10, before + 1)
                            assert label not in occluded_labels
                        else:
                            expect = max(0, before - 1)
                            if expect >= 5:
                                assert state.active[label] \
                                    .continuous_appearances == expect
                                assert label in occluded_labels
                            else:
                                assert label in state.inactive
                                assert state.inactive[label] \
                                    .continuous_appearances == expect
                                assert label not in occluded_labels
                    elif label in inactive_before:
                        before = inactive_before[label]
                        assert label not in occluded_labels
                        if present[i]:  # exact-prototype claim, +1, may promote
                            if label in state.active:
                                assert state.active[label] \
                                    .continuous_appearances == 10
                            else:
                                assert state.inactive[label] \
                                    .continuous_appearances == min(10, before + 1)
                        else:
                            assert state.inactive[label] \
                                .continuous_appearances == max(0, before - 1)
                for pool in (state.active, state.inactive):
                    for fc in pool.values():
                        assert 0 <= fc.continuous_appearances <= 10


# --------------------------------------------------------------------------
# 5. no frame ever repeats a named label, over ≥ 100k generated frames


def churn_events(n_frames, labels, rng):
    """Occlusions, exits with quick returns, and background walk-ons,
    scattered across the whole clip."""
    events = []
    for start in range(400, n_frames - 40, 400):
        label = labels[int(rng.integers(len(labels)))]
        kind = ("occlusion", "exit")[int(rng.integers(2))]
        length = int(rng.integers(3, 9))
        events.append(Event(kind, label, start + int(rng.integers(200)),
                            length))
    for start in range(900, n_frames - 100, 1700):
        events.append(Event("background_face", f"bg{start}", start,
                            int(rng.integers(20, 60))))
    return tuple(events)


def test_criterion_05_duplicate_label_invariant():
    with criterion(5, "no FrameResult repeats a non-Unknown label across "
                      "≥ 100,000 generated frames"):
        rng = np.random.default_rng(505)
        total = 0
        for seed in (1, 2, 3):
            spec = ScenarioSpec(
                participants=3, duration_seconds=1250.0, seed=seed,
                embedding_dim=16, fps=30.0, noise_sigma=0.08,
                pose_clusters_per_participant=3,
                frame_width=1280, frame_height=720,
                events=churn_events(37500, ("p01", "p02", "p03"), rng))
            full = generate(spec)
            tracks, test = split_train_test(full, train_seconds=50.0)
            gallery = build_gallery_kmeans(tracks, 4, seed=seed)
            state = run(test.frames, gallery, TrackerConfig(fps=30.0),
                        test.frame_area)
            for result in state.results:
                assert duplicate_named_labels(result) == set()
            total += len(state.results)
        assert total >= 100_000


# --------------------------------------------------------------------------
# 6. accuracy gap: occlusions are bridged, the baseline just loses them


def benchmark_spec(duration_seconds, train_seconds, seed):
    """4 people, 30 fps, three 5-frame occlusions each plus 2 background
    faces, all inside the test portion (after the tracker's 2 s window)."""
    n_train = int(train_seconds * 30)
    window_end = n_train + 60
    labels = ("p01", "p02", "p03", "p04")
    events = []
    for i, label in enumerate(labels):
        for wave in range(3):
            events.append(
                Event("occlusion", label, window_end + 20 + 60 * wave + 5 * i, 5))
    events.append(Event("background_face", "bg1", window_end + 30, 40))
    events.append(Event("background_face", "bg2", window_end + 100, 40))
    return ScenarioSpec(
        participants=4, duration_seconds=duration_seconds, seed=seed,
        embedding_dim=512, noise_sigma=0.05, fps=30.0,
        events=tuple(events), train_seconds=train_seconds)


def test_criterion_06_accuracy_gap_vs_baseline():
    with criterion(6, "tracker average accuracy ≥ 90% and ≥ 5 points above "
                      "the per-frame exhaustive baseline"):
        spec = benchmark_spec(duration_seconds=60.0, train_seconds=52.0,
                              seed=606)
        full = generate(spec)
        tracks, test = split_train_test(full, spec.train_seconds)
        gallery = build_gallery_kmeans(tracks, 16, seed=0)
        state = run(test.frames, gallery, TrackerConfig(fps=30.0),
                    test.frame_area)
        ours = score(state.results, test)
        base_results, _ = run_baseline(test.frames, tracks,
                                       RecognizerConfig(), reps=1)
        base = score(base_results, test)
        assert ours.average >= 0.90
        assert ours.average - base.average >= 0.05


# --------------------------------------------------------------------------
# 7. speedup vs classifying against every training sample


# seeds 701-712 of this scenario counted 2 922-5 337x (320 classify calls,
# 23-42 prototypes); the most a k=16 gallery of 4 people can hold, 64,
# would give 1 918x
COUNTED_SPEEDUP_FLOOR = 1500.0


def test_criterion_07_speedup_vs_exhaustive_baseline():
    with criterion(7, "k=16 gallery beats the ~10,000-samples-per-person "
                      "exhaustive baseline by ≥ 5× (median of 3 runs) and "
                      f"by ≥ {COUNTED_SPEEDUP_FLOOR:g}× in dot products"):
        spec = benchmark_spec(duration_seconds=342.0, train_seconds=334.0,
                              seed=707)
        full = generate(spec)
        tracks, test = split_train_test(full, spec.train_seconds)
        assert all(len(t.samples) >= 10_000 for t in tracks)
        index = GalleryIndex(build_gallery_kmeans(tracks, 16, seed=0))
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            state = run(test.frames, index, TrackerConfig(fps=30.0), test.frame_area)
            times.append((time.perf_counter() - t0) / len(test.frames))
        _, base = run_baseline(test.frames, tracks, RecognizerConfig(),
                               reps=3)
        speedup = base.seconds_per_frame / median(times)
        assert speedup >= 5.0, (speedup, times, base)
        # the same ratio counted: the tracker computes classify_calls × P
        # dot products, the baseline detections × training samples
        ours_dots = state.classify_calls * index.columns.shape[1]
        base_dots = (sum(len(d) for _, d in test.frames)
                     * sum(len(t.samples) for t in tracks))
        assert base_dots / ours_dots >= COUNTED_SPEEDUP_FLOOR, (base_dots, ours_dots)


# --------------------------------------------------------------------------
# 8. sweep across k = 2^0 .. 2^11: clean front, saturating accuracy


def dominates(q, p):
    return (q.accuracy >= p.accuracy
            and q.dot_products <= p.dot_products
            and (q.accuracy > p.accuracy
                 or q.dot_products < p.dot_products))


def test_criterion_08_pareto_sweep_properties():
    with criterion(8, "k = 1..2048 sweep: non-dominated front sorted by "
                      "dot products; accuracy saturates within 1 point of its max"):
        spec = ScenarioSpec(
            participants=2, duration_seconds=77.0, seed=808,
            embedding_dim=64, pose_clusters_per_participant=4,
            noise_sigma=0.05, fps=30.0, train_seconds=69.0)
        full = generate(spec)
        tracks, test = split_train_test(full, spec.train_seconds)
        assert all(len(t.samples) >= 2048 for t in tracks)
        k_values = [2 ** i for i in range(12)]
        points = sweep(test, tracks, k_values, seed=8,
                       cfg=TrackerConfig(fps=30.0))
        assert [p.k for p in points] == k_values

        front = pareto_front(points)
        assert front
        values = {(p.accuracy, p.dot_products) for p in points}
        front_values = {(p.accuracy, p.dot_products) for p in front}
        assert front_values <= values
        for p in front:  # exhaustive dominance oracle
            assert not any(dominates(q, p) for q in points)
        for p in points:
            if (p.accuracy, p.dot_products) not in front_values:
                assert any(dominates(q, p) for q in front)
        costs = [p.dot_products for p in front]
        assert costs == sorted(costs)

        accs = [p.accuracy for p in points]
        running_max = 0.0
        for acc in accs:
            assert acc >= running_max - 0.01
            running_max = max(running_max, acc)
        assert accs[-1] >= max(accs) - 0.01


# --------------------------------------------------------------------------
# 9. every CLI command is byte-deterministic across identical re-runs


def run_cli(*argv):
    code = cli_main([str(a) for a in argv])
    assert code == 0
    return code


def pipeline_outputs(d):
    d.mkdir(parents=True, exist_ok=True)
    run_cli("gen", "--scenario", DATA / "demo_scenario.cfg",
            "--out-stream", d / "stream.jsonl",
            "--out-tracks", d / "tracks.json",
            "--out-truth", d / "truth.json")
    run_cli("gallery", "--tracks", d / "tracks.json",
            "--out", d / "gallery.json", "--k", "2", "--seed", "5")
    run_cli("gallery", "--tracks", d / "tracks.json",
            "--out", d / "sampled.json", "--method", "sampling")
    run_cli("track", "--stream", d / "stream.jsonl",
            "--gallery", d / "gallery.json",
            "--out", d / "results.jsonl", "--summary", d / "summary.csv")
    run_cli("baseline", "--stream", d / "stream.jsonl",
            "--tracks", d / "tracks.json",
            "--out", d / "baseline.jsonl")
    run_cli("score", "--results", d / "results.jsonl",
            "--truth", d / "truth.json",
            "--out", d / "score.csv", "--json", d / "score.json")
    run_cli("sweep", "--stream", d / "stream.jsonl",
            "--tracks", d / "tracks.json", "--truth", d / "truth.json",
            "--k", "1,2,4", "--seed", "3",
            "--out", d / "sweep.csv", "--pareto", d / "front.csv")


def test_criterion_09_cli_determinism(tmp_path, capsys):
    with criterion(9, "identical CLI re-runs write byte-identical files"):
        a, b = tmp_path / "a", tmp_path / "b"
        pipeline_outputs(a)
        pipeline_outputs(b)
        capsys.readouterr()
        byte_identical = ("stream.jsonl", "tracks.json", "truth.json",
                          "gallery.json", "sampled.json", "results.jsonl",
                          "summary.csv", "baseline.jsonl", "score.csv",
                          "score.json", "sweep.csv", "front.csv")
        for name in byte_identical:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


# --------------------------------------------------------------------------
# 10. stream and gallery files survive a write/read cycle


def test_criterion_10_format_round_trips(tmp_path):
    with criterion(10, "stream and gallery read(write(x)) = x on 50 "
                       "randomized instances"):
        rng = np.random.default_rng(1010)
        for i in range(25):  # 25 streams + 25 galleries = 50 instances
            dim = int(rng.integers(2, 65))
            header = StreamHeader(
                fps=float(rng.choice([10.0, 24.0, 29.97, 30.0])),
                frame_width=int(rng.integers(320, 3841)),
                frame_height=int(rng.integers(240, 2161)),
                embedding_dim=dim)
            frames = []
            for f in range(int(rng.integers(1, 6))):
                dets = []
                for _ in range(int(rng.integers(0, 5))):
                    box = BoundingBox(*(float(v) for v in rng.uniform(1, 500, 4)))
                    dets.append(Detection(
                        f, box, l2_normalize(rng.normal(size=dim)),
                        gt_label=("someone" if rng.random() < 0.5 else None)))
                frames.append((f, dets))
            path = tmp_path / f"s{i}.jsonl"
            write_stream(path, header, frames)
            header2, frames2 = read_stream(path)
            assert header2 == header
            assert [f for f, _ in frames2] == [f for f, _ in frames]
            for (_, orig), (_, back) in zip(frames, frames2):
                assert len(orig) == len(back)
                for da, db in zip(orig, back):
                    assert da.gt_label == db.gt_label
                    for attr in ("x", "y", "w", "h"):
                        assert getattr(da.box, attr) == pytest.approx(
                            getattr(db.box, attr), rel=1e-6)
                    assert np.linalg.norm(da.embedding - db.embedding) < 1e-6

            dim = int(rng.integers(2, 65))
            entries, frames = {}, {}
            for j in range(int(rng.integers(1, 6))):
                drawn = [(l2_normalize(rng.normal(size=dim)), int(rng.integers(0, 10000)))
                         for _ in range(int(rng.integers(1, 9)))]
                entries[f"person{j:02d}"] = np.array([v for v, _ in drawn])
                frames[f"person{j:02d}"] = [f for _, f in drawn]
            gallery = Gallery(entries, frames, method="kmeans",
                              k=int(rng.integers(1, 17)),
                              seed=int(rng.integers(0, 100)))
            gpath = tmp_path / f"g{i}.json"
            write_gallery(gallery, gpath)
            back = read_gallery(gpath)
            assert back.labels == gallery.labels
            assert (back.method, back.k, back.seed) == (
                gallery.method, gallery.k, gallery.seed)
            for label in gallery.labels:
                assert back.source_frames[label] == gallery.source_frames[label]
                assert np.linalg.norm(back.entries[label] - gallery.entries[label],
                                      axis=1).max() < 1e-6


# --------------------------------------------------------------------------
# 11. the paper's accuracy claim: history repairs what recognition misses


def test_criterion_11_history_beats_per_detection_recognition():
    with criterion(11, "on the classroom scenario the tracker beats per-detection "
                       "recognition on its own gallery by ≥ 0.10 and the exhaustive "
                       "baseline by ≥ 0.03, classifying ≤ 15% of detections"):
        # margins, not pinned values: the accuracies move with the BLAS and
        # numpy version, the margins hold across the placements and seeds tried
        spec = load_scenario(DATA / "classroom_scenario.cfg")
        tracks, test = split_train_test(generate(spec), spec.train_seconds)
        gallery = build_gallery_kmeans(tracks, 10, seed=0)
        recognizer = RecognizerConfig(unknown_threshold=0.65)
        state = run(test.frames, gallery, TrackerConfig(fps=spec.fps, recognizer=recognizer),
                    test.frame_area)
        ours = score(state.results, test).average
        # the tracker with its history switched off: the same gallery, every
        # detection classified on its own
        per_detection = score(_baseline_pass(test.frames, GalleryIndex(gallery), recognizer),
                              test).average
        baseline = score(run_baseline(test.frames, tracks, recognizer, reps=1)[0],
                         test).average
        detections = sum(len(dets) for _, dets in test.frames)
        assert ours - per_detection >= 0.10, (ours, per_detection)
        assert ours - baseline >= 0.03, (ours, baseline)
        assert state.classify_calls <= 0.15 * detections, (state.classify_calls, detections)
