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
from dataclasses import dataclass
from statistics import median

import numpy as np

from .errors import MisalignedStreams
from .gallery import Gallery, _checked_tracks, _prototypes, build_gallery_kmeans
from .recognizer import GalleryIndex, RecognizerConfig
from .tracker import TrackerConfig, _as_index, run
from .types import (
    SOURCE_CLASSIFIED,
    UNKNOWN,
    FrameEntry,
    FrameResult,
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
    """Every training sample as a prototype, the tracks checked as the
    gallery builders check them: at least one, each label its own."""
    return GalleryIndex(Gallery(entries={
        t.label: _prototypes(t, range(len(t.samples))) for t in _checked_tracks(tracks)}))


def _baseline_pass(frames, index, cfg: RecognizerConfig):
    """One pass of per-frame exhaustive classification.

    Every detection is classified against every training embedding —
    no reuse, no identity pools, no occlusion bridging, no area filter,
    and no duplicate-label arbitration. Returns the FrameResults.
    """
    results = []
    for frame_index, detections in frames:
        entries = ()
        if detections:
            labels, distances = index.classify_batch(
                np.array([d.embedding for d in detections]), cfg)
            entries = tuple(
                FrameEntry(label, d.box, distance, SOURCE_CLASSIFIED)
                for d, label, distance in zip(detections, labels, distances.tolist()))
        results.append(FrameResult(frame_index, entries))
    return results


def _timed_passes(frames, reps, one_pass):
    """Run one_pass(frames) `reps` times over the listed frames.

    Returns (the first pass's results, TimingReport of the median seconds
    per frame over the passes).
    """
    if reps < 1:
        raise ValueError(f"reps must be positive: {reps}")
    frames = list(frames)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        results = one_pass(frames)
        times.append((time.perf_counter() - t0) / max(1, len(frames)))
        if len(times) == 1:
            first = results
    return first, TimingReport(median(times), len(frames))


def run_baseline(frames, tracks, cfg: RecognizerConfig, reps=3):
    """Classify every detection against all training embeddings, per frame.

    Returns (results, TimingReport) where the timing is the median
    seconds-per-frame over `reps` identical passes (the results of every
    pass are identical by construction; the first is returned).
    """
    index = _index_from_tracks(tracks)
    return _timed_passes(frames, reps,
                         lambda frames: _baseline_pass(frames, index, cfg))


def measure_tracker(frames, gallery, cfg: TrackerConfig, frame_area=None, reps=3):
    """Run the tracker `reps` times and report median seconds per frame."""
    index = _as_index(gallery)
    return _timed_passes(frames, reps,
                         lambda frames: run(frames, index, cfg, frame_area).results)


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

    The points are stably sorted by (seconds_per_frame, -accuracy), and one
    sweep keeps each point that is more accurate than every point before it.
    So a point survives iff no other point is at least as accurate and at
    most as slow with one of the two strict; of exact duplicates the first
    occurrence survives; the front is sorted by seconds_per_frame ascending.
    Every field must be finite, as sweep's points are: with a NaN field the
    sort order, and so the front, is undefined.
    """
    front = []
    for p in sorted(points, key=lambda p: (p.seconds_per_frame, -p.accuracy)):
        if not front or p.accuracy > front[-1].accuracy:
            front.append(p)
    return front
