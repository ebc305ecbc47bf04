"""Temporal recognition over a per-frame detection stream.

Identities live in two pools. The active pool holds identities seen
consistently: their detections can be matched by box overlap alone (no
classification), and when they briefly vanish they are bridged as occluded
at their last box, for as long as a per-identity confidence counter allows.
The inactive pool holds identities still in doubt; they are matched by
classification and promoted once their appearance ratio clears the bar.

Per frame the order of business is:

1. every tracked identity ages by one processed frame;
2. detections overlapping an active identity's last box (IoU at or above
   the reuse threshold, greedy highest-overlap first, ties to the lower
   detection index, then the smaller label) inherit its label without
   touching the recognizer;
3. the rest are classified: matches to inactive identities update and may
   promote them, unrecognized embeddings stay Unknown, genuinely new labels
   are admitted under the configured policy, and matches to an active label
   are emitted as-is (the active identity itself is only ever matched by
   overlap, so it runs through the missing branch below);
4. each active identity with no overlap match this frame loses one point of
   confidence, then is either emitted as occluded at its last box (counter
   still at or above min_appearances) or demoted to the inactive pool;
5. a consistency pass guarantees no frame asserts the same named identity
   twice: a detected entry beats an occlusion placeholder outright (the
   placeholder is dropped), and among detected duplicates the smallest
   distance keeps the label while the rest are relabeled Unknown.
"""

from __future__ import annotations

import itertools
import math
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

# distance reported for detections matched against an empty gallery: the
# ceiling of the cosine-distance range, i.e. "as far as possible"
_EMPTY_GALLERY_DISTANCE = 2.0


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
        if self.cap < 1:
            raise ValueError(f"cap must be positive: {self.cap}")
        if not 0 < self.min_appearances <= self.cap:
            raise ValueError(
                f"min_appearances must lie in (0, cap]: {self.min_appearances}")
        if not 0 < self.promote_ratio <= 1:
            raise ValueError(f"promote_ratio must lie in (0, 1]: {self.promote_ratio}")
        if not 0 <= self.reuse_iou <= 1:
            raise ValueError(f"reuse_iou must lie in [0, 1]: {self.reuse_iou}")
        if self.new_face_policy not in (NEW_FACE_INACTIVE, NEW_FACE_ACTIVE):
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
    """
    if not detections:
        return [], []
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


def _edges(boxes):
    """(x, y, x + w, y + h, w * h) per box, in types.iou's arithmetic."""
    return [(b.x, b.y, b.x + b.w, b.y + b.h, b.w * b.h) for b in boxes]


def _kept(detections, frame_area, cfg):
    """The detections that area_filter keeps, as a list. With both area
    floors at 0 it keeps them all, so it is not called per detection."""
    if cfg.min_area == 0 and cfg.min_area_fraction == 0:
        return list(detections)
    return [d for d in detections if area_filter(d, frame_area, cfg)]


def _overlap_candidates(kept, active, reuse_iou):
    """Every (-IoU, detection index, label) pair with IoU >= reuse_iou.

    Equals the list that types.iou(detection box, last box) builds pair by
    pair, disjoint pairs included as 0.0 when reuse_iou is 0, but with each
    box's edges and area computed once per frame. When reuse_iou is above 0,
    a pair whose edges show it disjoint is skipped before any arithmetic:
    each such test implies iw <= 0 or ih <= 0 below.
    """
    tracks = [(label, *e) for label, e in zip(
        active, _edges([face.last_box for face in active.values()]))]
    candidates = []
    prune = reuse_iou > 0
    for di, (ax, ay, ax2, ay2, aa) in enumerate(_edges([d.box for d in kept])):
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


def _resolve_frame(detected, placeholders):
    """Apply the duplicate-identity rules and return the final entry tuple.

    detected: list of FrameEntry from detections, in detection order.
    placeholders: occlusion placeholders, appended after detections.
    Among detected entries sharing a named label the smallest distance
    (then earliest detection) keeps it; a placeholder whose label was
    detected is dropped entirely.
    """
    winners = {}
    for i, e in enumerate(detected):
        if e.label == UNKNOWN:
            continue
        best = winners.get(e.label)
        if best is None or (e.distance, i) < (detected[best].distance, best):
            winners[e.label] = i
    out = []
    for i, e in enumerate(detected):
        if e.label != UNKNOWN and winners[e.label] != i:
            e = FrameEntry(UNKNOWN, e.box, e.distance, e.source)
        out.append(e)
    for p in placeholders:
        if p.label not in winners:
            out.append(p)
    return tuple(out)


def run_initial_window(frames, gallery, cfg: TrackerConfig, frame_area=None) -> TrackerState:
    """Bootstrap tracker state from the opening seconds of a stream.

    Every area-accepted detection in the window is classified; identities
    whose appearance ratio over the window reaches promote_ratio start in
    the active pool with a full confidence counter, the rest start inactive.
    The window's own FrameResults are included in the returned state.
    gallery is a GalleryIndex, or None to match against an empty gallery.
    """
    frames = list(frames)
    if not frames:
        raise EmptyStream("no frames in the initial window")
    state = TrackerState(frame_cursor=frames[0][0] - 1)
    faces = {}  # label -> TrackedFace, in first-seen order
    for i, (frame_index, detections) in enumerate(frames):
        _advance(state, frame_index)
        kept = _kept(detections, frame_area, cfg.recognizer)
        labels, distances = _classify_batch(state, gallery, kept, cfg)
        entries = _resolve_frame([
            FrameEntry(label, d.box, distance, SOURCE_CLASSIFIED)
            for d, label, distance in zip(kept, labels, distances)
        ], [])
        present = set()
        for e in entries:
            if e.label == UNKNOWN:
                continue
            present.add(e.label)
            face = faces.get(e.label)
            if face is None:
                # processed frames run from first sight to the window's end
                face = faces[e.label] = TrackedFace(
                    e.label, e.box, 0, len(frames) - i, 0, e.distance)
            _observe(face, e.box, e.distance, cfg)
        for label, face in faces.items():
            if label not in present:
                _miss(face)
        state.results.append(FrameResult(frame_index, entries))
    for label, face in faces.items():
        if face.appearance_ratio >= cfg.promote_ratio:
            face.continuous_appearances = cfg.cap
            state.active[label] = face
        else:
            state.inactive[label] = face
    return state


def step(state: TrackerState, frame_index, detections, gallery, cfg: TrackerConfig,
         frame_area=None) -> TrackerState:
    """Advance the tracker by exactly one frame (frame_cursor + 1).

    gallery is a GalleryIndex, or None to match against an empty gallery.
    """
    _advance(state, frame_index)
    kept = _kept(detections, frame_area, cfg.recognizer)

    # 1. every identity tracked at frame start ages one processed frame
    for face in [*state.active.values(), *state.inactive.values()]:
        face.total_frames_processed += 1

    # 2. box-overlap reuse against active identities, greedy highest first
    entry_slots = [None] * len(kept)
    matched_labels = set()
    for _, di, label in sorted(_overlap_candidates(kept, state.active, cfg.reuse_iou)):
        if entry_slots[di] is None and label not in matched_labels:
            matched_labels.add(label)
            face = state.active[label]
            _observe(face, kept[di].box, face.last_distance, cfg)
            entry_slots[di] = FrameEntry(
                label, face.last_box, face.last_distance, SOURCE_REUSED)

    # 3. classify everything the reuse pass did not claim; the closest
    # detection speaks for its label when it comes to state updates
    rest = [di for di, slot in enumerate(entry_slots) if slot is None]
    labels, distances = _classify_batch(state, gallery, [kept[di] for di in rest], cfg)
    claims = {}  # label -> (distance, detection idx) of its closest claim
    for di, label, distance in zip(rest, labels, distances):
        entry_slots[di] = FrameEntry(label, kept[di].box, distance, SOURCE_CLASSIFIED)
        if label != UNKNOWN and (distance, di) < claims.get(label, (math.inf, di)):
            claims[label] = (distance, di)
    promoted = set()
    for label, (distance, di) in claims.items():
        box = kept[di].box
        if label in state.active:
            # matched by identity but not by position: emit only, and let
            # the missing branch handle the tracked box
            continue
        if label in state.inactive:
            face = state.inactive[label]
            _observe(face, box, distance, cfg)
            if face.appearance_ratio >= cfg.promote_ratio:
                del state.inactive[label]
                face.continuous_appearances = cfg.cap
                state.active[label] = face
                promoted.add(label)
        else:
            face = TrackedFace(label, box, 1, 1, 1, distance)
            if cfg.new_face_policy == NEW_FACE_ACTIVE:
                face.continuous_appearances = cfg.cap
                state.active[label] = face
                promoted.add(label)
            else:
                state.inactive[label] = face

    # 4a. active identities with no overlap match lose confidence and are
    # bridged as occluded while the counter holds, demoted otherwise
    placeholders = []
    demoted = set()
    for label in sorted(state.active):
        if label in matched_labels or label in promoted:
            continue
        face = state.active[label]
        _miss(face)
        if face.continuous_appearances >= cfg.min_appearances:
            placeholders.append(FrameEntry(
                label, face.last_box, face.last_distance, SOURCE_OCCLUDED))
        else:
            del state.active[label]
            state.inactive[label] = face
            demoted.add(label)

    # 4b. unmatched inactive identities decay their confidence counter too
    for label, face in state.inactive.items():
        if label not in claims and label not in demoted:
            _miss(face)

    entries = _resolve_frame(entry_slots, placeholders)
    state.results.append(FrameResult(frame_index, entries))
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
