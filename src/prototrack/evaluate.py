"""Accuracy scoring, the per-frame exhaustive baseline, and gallery sweeps.

Accuracy is measured per person: of the frames where a person is truly in
the scene, the fraction where the system asserted their label (an occlusion
placeholder with the right label counts — bridging a hidden face correctly
is the point). Speed is counted, not timed: a sweep point's cost is the
query-prototype dot products its run computed, so equal inputs give equal
points. The wall clock survives only in run_baseline, which times passes
over a pre-loaded stream, so parsing cost never leaks into the measurement,
and takes the median.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from statistics import median

import numpy as np

from .errors import MisalignedStreams
from .gallery import Gallery, _checked_tracks, _prototypes, build_gallery_kmeans
from .recognizer import GalleryIndex, RecognizerConfig
from .tracker import TrackerConfig, run
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
    dot_products: int


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


def run_baseline(frames, tracks, cfg: RecognizerConfig, reps=3):
    """Classify every detection against all training embeddings, per frame.

    Returns (results, TimingReport) where the timing is the median
    seconds-per-frame over `reps` identical passes (the results of every
    pass are identical by construction; the first is returned).
    """
    index = _index_from_tracks(tracks)
    if reps < 1:
        raise ValueError(f"reps must be positive: {reps}")
    frames = list(frames)
    times = []
    for rep in range(reps):
        t0 = time.perf_counter()
        results = _baseline_pass(frames, index, cfg)
        times.append((time.perf_counter() - t0) / max(1, len(frames)))
        if rep == 0:
            first = results
    return first, TimingReport(median(times), len(frames))


def sweep(stream, tracks, k_values, seed, cfg: TrackerConfig):
    """Accuracy/cost trade-off across prototype budgets.

    For each k: build and index a k-medoid gallery, run the tracker once
    over the stream, and record average accuracy plus the dot products the
    run computed (embeddings classified × prototypes). One SweepPoint per
    requested k, in the given order.
    """
    points = []
    for k in k_values:
        index = GalleryIndex(build_gallery_kmeans(tracks, k, seed))
        state = run(stream.frames, index, cfg, stream.frame_area)
        points.append(SweepPoint(int(k), score(state.results, stream).average,
                                 state.classify_calls * index.columns.shape[1]))
    return points


def pareto_front(points):
    """Non-dominated subset for (maximize accuracy, minimize dot products).

    The points are stably sorted by (dot_products, -accuracy), and one sweep
    keeps each point that is more accurate than every point before it. So a
    point survives iff no other point is at least as accurate and at most
    as costly with one of the two strict; of exact duplicates the first
    occurrence survives; the front is sorted by dot_products ascending.
    Every field must be finite, as sweep's points are: with a NaN field the
    sort order, and so the front, is undefined.
    """
    front = []
    for p in sorted(points, key=lambda p: (p.dot_products, -p.accuracy)):
        if not front or p.accuracy > front[-1].accuracy:
            front.append(p)
    return front
