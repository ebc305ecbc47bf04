"""Temporal recognition over a per-frame detection stream.

Identities live in two pools. The active pool holds identities seen
consistently: their detections can be matched by box overlap alone (no
classification), and when they briefly vanish they are bridged as occluded
at their last box, for as long as a per-identity confidence counter allows.
The inactive pool holds identities still in doubt; they are matched by
classification and promoted once their appearance ratio clears the bar.

Per frame the order of business is:

0. in the initial window (the first init_window_seconds), steps 1-5 run
   from empty pools with promotion held off: no match promotes and every
   new label starts inactive; after the window's last frame, everyone
   whose appearance ratio reaches promote_ratio is promoted at once;
1. every tracked identity ages by one processed frame;
2. detections overlapping an active identity's last box (IoU at or above
   the reuse threshold, greedy highest-overlap first, ties to the lower
   detection index, then the smaller label) inherit its label without
   touching the recognizer;
3. the rest are classified. One table then holds each named label's
   winner, its closest entry (reused or classified, ties to the lower
   detection index). An inactive label's winner updates the identity and
   may promote it, and a new label is admitted under the configured policy.
   An active label named by classification alone keeps its entry, but its
   identity is matched only by overlap, so it counts as missing below;
4. inactive identities that no detection named lose one point of
   confidence, and so does each active identity with no overlap match. The
   latter is demoted to the inactive pool once its counter falls below
   min_appearances, else it is bridged as occluded at its last box unless a
   detection holds its label this frame;
5. no frame asserts a named identity twice: each named entry other than
   its label's winner is relabeled Unknown, and the placeholders follow.

A frame whose kept detections are all reused by overlap skips steps 3 and
5, which is exact because overlap names each active label at most once and
never an inactive one: nothing is classified, no label is named twice, and
step 4 misses every inactive identity and every unmatched active one as
before.

A limit of this state machine: an inactive identity's appearance ratio
rises only on frames where the recognizer names it. So a person named on
fewer than promote_ratio of their frames is never promoted, reuse never
starts for them, and every one of their detections is classified (7 200
classify calls for 7 200 detections on an 8-person, 120 s, 512-d case where
per-detection recognition is right on 17 % of detections).
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyStream, OutOfOrderFrame
from .gallery import Gallery
from .recognizer import GalleryIndex, RecognizerConfig, area_filter
from .types import (
    SOURCE_CLASSIFIED,
    SOURCE_OCCLUDED,
    SOURCE_REUSED,
    UNKNOWN,
    FrameEntry,
    FrameResult,
)

NEW_FACE_INACTIVE = "inactive"
NEW_FACE_ACTIVE = "active"
NEW_FACE_POLICIES = (NEW_FACE_INACTIVE, NEW_FACE_ACTIVE)

# distance reported for detections matched against an empty gallery: the
# ceiling of the cosine-distance range, i.e. "as far as possible"
_EMPTY_GALLERY_DISTANCE = 2.0

# The tracker builds its FrameEntry and FrameResult records with the bare
# tuple constructor, _record(cls, fields), skipping FrameEntry's checks. In a
# state that run, run_initial_window and step built, they hold: its sources
# are the SOURCE_ constants, and its distances come from classify_batch
# (clipped to [0, 2]), from an identity's last_distance (an earlier such
# distance) or from _EMPTY_GALLERY_DISTANCE. A TrackedFace that a caller
# builds or edits carries its own last_distance into reused and occluded
# entries unchecked; stream_io.write_results refuses a bad one.
_record = tuple.__new__


@dataclass
class TrackedFace:
    """Book-keeping for one identity.

    total_appearances counts frames where the identity was actually matched
    to a detection; total_frames_processed counts every frame since it was
    first seen, so total_appearances never exceeds it. continuous_appearances
    is the bounded confidence counter: +1 per matched frame (capped), -1 per
    missed frame (floored at zero), reset to the cap on promotion.
    """

    label: str
    last_box: object
    total_appearances: int
    total_frames_processed: int
    continuous_appearances: int
    last_distance: float

    @property
    def appearance_ratio(self) -> float:
        return self.total_appearances / self.total_frames_processed


@dataclass(frozen=True)
class TrackerConfig:
    fps: float
    init_window_seconds: float = 2.0
    cap: int = 10
    min_appearances: int = 5
    promote_ratio: float = 0.5
    reuse_iou: float = 0.5
    new_face_policy: str = NEW_FACE_INACTIVE
    recognizer: RecognizerConfig = field(default_factory=RecognizerConfig)

    def __post_init__(self):
        if not 0 < self.fps < math.inf:
            raise ValueError(f"fps must be positive and finite: {self.fps}")
        if not 0 < self.init_window_seconds < math.inf:
            raise ValueError("init_window_seconds must be positive and finite")
        if not self.init_window_seconds * self.fps <= sys.maxsize:
            raise ValueError("init_window_seconds * fps must be at most sys.maxsize "
                             f"frames: {self.init_window_seconds} * {self.fps}")
        if self.cap < 1:
            raise ValueError(f"cap must be positive: {self.cap}")
        if not 0 < self.min_appearances <= self.cap:
            raise ValueError(
                f"min_appearances must lie in (0, cap]: {self.min_appearances}")
        if not 0 < self.promote_ratio <= 1:
            raise ValueError(f"promote_ratio must lie in (0, 1]: {self.promote_ratio}")
        if not 0 <= self.reuse_iou <= 1:
            raise ValueError(f"reuse_iou must lie in [0, 1]: {self.reuse_iou}")
        if self.new_face_policy not in NEW_FACE_POLICIES:
            raise ValueError(f"unknown new_face_policy: {self.new_face_policy!r}")

    def window_frames(self) -> int:
        return math.ceil(self.init_window_seconds * self.fps)


@dataclass
class TrackerState:
    """Mutable tracker state; step() advances it one frame at a time."""

    active: dict = field(default_factory=dict)
    inactive: dict = field(default_factory=dict)
    frame_cursor: int = -1
    results: list = field(default_factory=list)
    classify_calls: int = 0


def _as_index(gallery):
    """The GalleryIndex for a Gallery, GalleryIndex or None; None when empty."""
    if gallery is None or isinstance(gallery, GalleryIndex):
        return gallery
    if isinstance(gallery, Gallery) and not gallery.entries:
        return None
    return GalleryIndex(gallery)


def _advance(state, frame_index):
    """Move the state's cursor to frame_index, which must be the next frame."""
    if frame_index != state.frame_cursor + 1:
        raise OutOfOrderFrame(
            f"expected frame {state.frame_cursor + 1}, got {frame_index}")
    state.frame_cursor = frame_index


def _classify_batch(state, index, detections, cfg):
    """Classify kept detections, counting recognizer work on the state.

    Returns (labels, distances) as two lists, one item per detection.
    detections is never empty: _step calls it only for what overlap left.
    """
    if index is None:
        return [UNKNOWN] * len(detections), [_EMPTY_GALLERY_DISTANCE] * len(detections)
    state.classify_calls += len(detections)
    labels, distances = index.classify_batch(
        np.array([d.embedding for d in detections]), cfg.recognizer)
    return labels, distances.tolist()


def _observe(face, box, distance, cfg):
    """Count one matched frame: +1 confidence (capped), remember the box."""
    face.total_appearances += 1
    face.continuous_appearances = min(cfg.cap, face.continuous_appearances + 1)
    face.last_box = box
    face.last_distance = distance


def _miss(face):
    """Count one missed frame: -1 confidence, floored at zero."""
    face.continuous_appearances = max(0, face.continuous_appearances - 1)


def _kept(detections, frame_area, cfg):
    """The detections that area_filter keeps, as a list. With both area
    floors at 0 it keeps them all, so it is not called per detection."""
    if cfg.min_area == 0 and cfg.min_area_fraction == 0:
        return list(detections)
    return [d for d in detections if area_filter(d, frame_area, cfg)]


def _overlap_candidates(kept, active, reuse_iou):
    """Every (-IoU, detection index, label) pair with IoU >= reuse_iou.

    Equals the list that the per-pair IoU reference in tests/test_tracker.py
    builds pair by pair, disjoint pairs included as 0.0 when reuse_iou is 0,
    but with each box's edges (x, y, x + w, y + h) and area w * h computed
    once per frame, in that reference's arithmetic. When reuse_iou is above
    0, a pair whose edges show it disjoint is skipped before any arithmetic:
    each such test implies iw <= 0 or ih <= 0 below.
    """
    if not active:  # as in every initial-window frame: no edges to compute
        return []
    tracks = []
    for label, face in active.items():
        b = face.last_box
        bx, by, bw, bh = b.x, b.y, b.w, b.h
        tracks.append((label, bx, by, bx + bw, by + bh, bw * bh))
    candidates = []
    prune = reuse_iou > 0
    for di, d in enumerate(kept):
        a = d.box
        ax, ay, aw, ah = a.x, a.y, a.w, a.h
        ax2, ay2, aa = ax + aw, ay + ah, aw * ah
        for label, bx, by, bx2, by2, ba in tracks:
            if prune and (bx >= ax2 or ax >= bx2 or by >= ay2 or ay >= by2):
                continue
            # max(a, b) and min(a, b), operand order kept
            iw = (bx2 if bx2 < ax2 else ax2) - (bx if bx > ax else ax)
            ih = (by2 if by2 < ay2 else ay2) - (by if by > ay else ay)
            if iw <= 0 or ih <= 0:
                overlap = 0.0
            else:
                inter = iw * ih
                overlap = inter / (aa + ba - inter)
            if overlap >= reuse_iou:
                candidates.append((-overlap, di, label))
    return candidates


def _promote(state, face, cfg):
    """Move face from the inactive to the active pool, counter at the cap."""
    del state.inactive[face.label]
    face.continuous_appearances = cfg.cap
    state.active[face.label] = face


def run_initial_window(frames, gallery, cfg: TrackerConfig, frame_area=None) -> TrackerState:
    """Bootstrap tracker state from the opening seconds of a stream.

    Each frame is a step() from empty pools with promotion held off: every
    kept detection is classified and every new label starts inactive. After
    the last frame, identities whose appearance ratio reaches promote_ratio
    move to the active pool with a full confidence counter. The window's own
    FrameResults are included in the returned state. gallery is a
    GalleryIndex, or None to match against an empty gallery.
    """
    frames = list(frames)
    if not frames:
        raise EmptyStream("no frames in the initial window")
    state = TrackerState(frame_cursor=frames[0][0] - 1)
    for frame_index, detections in frames:
        _step(state, frame_index, detections, gallery, cfg, frame_area, window=True)
    for face in [f for f in state.inactive.values()
                 if f.appearance_ratio >= cfg.promote_ratio]:
        _promote(state, face, cfg)
    return state


def step(state: TrackerState, frame_index, detections, gallery, cfg: TrackerConfig,
         frame_area=None) -> TrackerState:
    """Advance the tracker by exactly one frame (frame_cursor + 1).

    gallery is a GalleryIndex, or None to match against an empty gallery.
    """
    return _step(state, frame_index, detections, gallery, cfg, frame_area, window=False)


def _step(state, frame_index, detections, gallery, cfg, frame_area, window):
    """step()'s body. With window set, a match never promotes and a new
    label always starts inactive: run_initial_window promotes at its end."""
    _advance(state, frame_index)
    kept = _kept(detections, frame_area, cfg.recognizer)
    active, inactive = state.active, state.inactive

    # 1. every identity tracked at frame start ages one processed frame
    for face in active.values():
        face.total_frames_processed += 1
    for face in inactive.values():
        face.total_frames_processed += 1

    # 2. box-overlap reuse against active identities, greedy highest first
    entry_slots = [None] * len(kept)
    matched_labels = set()
    for _, di, label in sorted(_overlap_candidates(kept, active, cfg.reuse_iou)):
        if entry_slots[di] is None and label not in matched_labels:
            matched_labels.add(label)
            face = active[label]
            _observe(face, kept[di].box, face.last_distance, cfg)
            entry_slots[di] = _record(
                FrameEntry, (label, face.last_box, face.last_distance, SOURCE_REUSED))
    # for step 4b
    missing = (sorted(active.keys() - matched_labels)
               if len(matched_labels) < len(active) else ())

    # 3. classify everything the reuse pass did not claim, then rank each
    # named label's entries, reused or classified, in the frame's one table.
    # A frame whose kept detections overlap claimed in full leaves the table
    # empty and skips step 5 (see the module docstring for why that is exact)
    winners = {}  # label -> (distance, detection index) of its closest entry
    if len(matched_labels) < len(kept):
        rest = [di for di, slot in enumerate(entry_slots) if slot is None]
        labels, distances = _classify_batch(state, gallery, [kept[di] for di in rest], cfg)
        for di, label, distance in zip(rest, labels, distances):
            entry_slots[di] = _record(
                FrameEntry, (label, kept[di].box, distance, SOURCE_CLASSIFIED))
        for di, e in enumerate(entry_slots):
            best = winners.get(e.label)
            if e.label != UNKNOWN and (best is None or (e.distance, di) < best):
                winners[e.label] = (e.distance, di)

        # overlap names only active labels, so an inactive or new label's
        # winner is classified: it updates, admits or promotes the identity.
        # An active label named by classification alone keeps its entry, and
        # its identity runs through step 4b as missing
        for label, (distance, di) in winners.items():
            if label in active:
                continue
            box = kept[di].box
            if label in inactive:
                face = inactive[label]
                _observe(face, box, distance, cfg)
                if not window and face.appearance_ratio >= cfg.promote_ratio:
                    _promote(state, face, cfg)
            else:
                face = inactive[label] = TrackedFace(label, box, 1, 1, 1, distance)
                if not window and cfg.new_face_policy == NEW_FACE_ACTIVE:
                    _promote(state, face, cfg)

    # 4a. inactive identities that no detection named lose confidence
    for label, face in inactive.items():
        if label not in winners:
            _miss(face)

    # 4b. active identities with no overlap match lose confidence: demoted
    # below min_appearances, else bridged as occluded at their last box
    # unless a detection holds their label this frame
    placeholders = []
    for label in missing:
        face = active[label]
        _miss(face)
        if face.continuous_appearances < cfg.min_appearances:
            inactive[label] = active.pop(label)
        elif label not in winners:
            placeholders.append(_record(
                FrameEntry, (label, face.last_box, face.last_distance, SOURCE_OCCLUDED)))

    # 5. a named label stays on its winner alone, the rest turn Unknown;
    # with no winners the entries stand as they are. The placeholders go last
    entries = ([e if e.label == UNKNOWN or winners[e.label][1] == di
                else _record(FrameEntry, (UNKNOWN, e.box, e.distance, e.source))
                for di, e in enumerate(entry_slots)] if winners else entry_slots)
    state.results.append(_record(FrameResult, (frame_index, (*entries, *placeholders))))
    return state


def run(frames, gallery, cfg: TrackerConfig, frame_area=None) -> TrackerState:
    """Track a whole stream: initial window, then one step per frame.

    frames is any iterable of (frame_index, [Detection, ...]) with
    contiguous indices, a generator included: it is drawn as the run goes,
    the initial window first and then one frame per step, so only the
    window is held at once. The returned state's .results covers every
    input frame, and .classify_calls counts embeddings actually classified
    (the work the reuse and occlusion paths avoided). gallery is a Gallery,
    a GalleryIndex or None; it is indexed once for the whole run.
    """
    frames = iter(frames)
    window = list(itertools.islice(frames, cfg.window_frames()))
    if not window:
        raise EmptyStream("empty detection stream")
    index = _as_index(gallery)
    state = run_initial_window(window, index, cfg, frame_area)
    for frame_index, detections in frames:
        step(state, frame_index, detections, index, cfg, frame_area)
    return state
