"""Accuracy scoring, the per-frame exhaustive baseline, timing, and sweeps.

Accuracy is measured per person: of the frames where a person is truly in
the scene, the fraction where the system asserted their label (an occlusion
placeholder with the right label counts — bridging a hidden face correctly
is the point). Timing is wall-clock per frame over a pre-loaded stream, so
parsing cost never leaks into the measurement; passes are repeated and the
median taken.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from statistics import median

import numpy as np

from .errors import MisalignedStreams
from .gallery import build_gallery_kmeans
from .recognizer import GalleryIndex, RecognizerConfig
from .tracker import TrackerConfig, run
from .types import (
    SOURCE_CLASSIFIED,
    UNKNOWN,
    FrameEntry,
    FrameResult,
    l2_normalize,
)


@dataclass(frozen=True)
class AccuracyReport:
    """Per-person and aggregate recognition accuracy.

    average is the unweighted mean over participants. unknown_rate is the
    fraction of emitted entries labeled Unknown; false_label_rate is the
    fraction of named entries asserting someone not actually in the scene
    at that frame.
    """

    per_person: dict
    average: float
    unknown_rate: float
    false_label_rate: float


@dataclass(frozen=True)
class TimingReport:
    seconds_per_frame: float
    frames: int
    speedup_factor: float | None = None


@dataclass(frozen=True)
class SweepPoint:
    k: int
    accuracy: float
    seconds_per_frame: float


def score(results, truth) -> AccuracyReport:
    """Score FrameResults against a ground-truth stream.

    results and truth must cover exactly the same frame set; anything else
    raises MisalignedStreams.
    """
    by_frame = {r.frame: r for r in results}
    if set(by_frame) != set(truth.presence):
        raise MisalignedStreams(
            f"results cover {len(by_frame)} frames, truth covers "
            f"{len(truth.presence)}; frame sets differ")
    present_frames = {}
    correct_frames = {}
    entries_total = 0
    entries_unknown = 0
    named_total = 0
    named_false = 0
    for frame, present in truth.presence.items():
        result = by_frame[frame]
        emitted = {e.label for e in result.entries}
        for label in present:
            present_frames[label] = present_frames.get(label, 0) + 1
            if label in emitted:
                correct_frames[label] = correct_frames.get(label, 0) + 1
        present_set = set(present)
        for e in result.entries:
            entries_total += 1
            if e.label == UNKNOWN:
                entries_unknown += 1
            else:
                named_total += 1
                if e.label not in present_set:
                    named_false += 1
    per_person = {
        label: correct_frames.get(label, 0) / n
        for label, n in sorted(present_frames.items())
    }
    average = sum(per_person.values()) / len(per_person) if per_person else 0.0
    return AccuracyReport(
        per_person=per_person,
        average=average,
        unknown_rate=entries_unknown / entries_total if entries_total else 0.0,
        false_label_rate=named_false / named_total if named_total else 0.0,
    )


def _index_from_tracks(tracks) -> GalleryIndex:
    return GalleryIndex.from_label_matrices(
        {t.label: [l2_normalize(e) for _, e in t.samples] for t in tracks})


def _baseline_pass(frames, index, cfg: RecognizerConfig):
    """One timed pass of per-frame exhaustive classification.

    Every detection is classified against every training embedding —
    no reuse, no identity pools, no occlusion bridging, no area filter,
    and no duplicate-label arbitration. Returns (results, seconds_per_frame).
    """
    results = []
    t0 = time.perf_counter()
    for frame_index, detections in frames:
        entries = ()
        if detections:
            labels, distances = index.classify_batch(
                np.array([d.embedding for d in detections]), cfg)
            entries = tuple(
                FrameEntry(label, d.box, distance, SOURCE_CLASSIFIED)
                for d, label, distance in zip(detections, labels, distances.tolist()))
        results.append(FrameResult(frame_index, entries))
    elapsed = time.perf_counter() - t0
    return results, elapsed / max(1, len(frames))


def run_baseline(frames, tracks, cfg: RecognizerConfig, reps=3):
    """Classify every detection against all training embeddings, per frame.

    Returns (results, TimingReport) where the timing is the median
    seconds-per-frame over `reps` identical passes (the results of every
    pass are identical by construction; the first is returned).
    """
    if reps < 1:
        raise ValueError(f"reps must be positive: {reps}")
    frames = list(frames)
    index = _index_from_tracks(tracks)
    results, first = _baseline_pass(frames, index, cfg)
    times = [first]
    for _ in range(reps - 1):
        times.append(_baseline_pass(frames, index, cfg)[1])
    return results, TimingReport(median(times), len(frames))


def measure_tracker(frames, gallery, cfg: TrackerConfig, frame_area=None, reps=3):
    """Run the tracker `reps` times and report median seconds per frame."""
    if reps < 1:
        raise ValueError(f"reps must be positive: {reps}")
    frames = list(frames)
    index = GalleryIndex(gallery) if gallery.entries else None
    times = []
    results = None
    for _ in range(reps):
        t0 = time.perf_counter()
        state = run(frames, index, cfg, frame_area)
        times.append((time.perf_counter() - t0) / max(1, len(frames)))
        if results is None:
            results = state.results
    return results, TimingReport(median(times), len(frames))


def with_speedup(ours: TimingReport, baseline: TimingReport) -> TimingReport:
    """Attach the baseline/ours speedup factor to a timing report."""
    return replace(ours, speedup_factor=baseline.seconds_per_frame
                   / ours.seconds_per_frame)


def sweep(stream, tracks, k_values, seed, cfg: TrackerConfig, reps=3):
    """Accuracy/latency trade-off across prototype budgets.

    For each k: build a k-medoid gallery, run the tracker over the stream,
    and record average accuracy plus median seconds per frame. One
    SweepPoint per requested k, in the given order.
    """
    points = []
    for k in k_values:
        gallery = build_gallery_kmeans(tracks, k, seed)
        results, timing = measure_tracker(
            stream.frames, gallery, cfg, stream.frame_area, reps=reps)
        report = score(results, stream)
        points.append(SweepPoint(int(k), report.average,
                                 timing.seconds_per_frame))
    return points


def pareto_front(points):
    """Non-dominated subset for (maximize accuracy, minimize time).

    A point survives iff no other point is at least as accurate and at most
    as slow with one of the two strict. Exact duplicates keep only their
    first occurrence; output is sorted by seconds_per_frame ascending.
    """
    unique = []
    seen = set()
    for p in points:
        key = (p.accuracy, p.seconds_per_frame)
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
                    and q.seconds_per_frame <= p.seconds_per_frame
                    and (q.accuracy > p.accuracy
                         or q.seconds_per_frame < p.seconds_per_frame)):
                dominated = True
                break
        if not dominated:
            front.append(p)
    return sorted(front, key=lambda p: (p.seconds_per_frame, p.accuracy, p.k))
