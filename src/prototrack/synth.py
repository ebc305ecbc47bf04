"""Seeded synthetic detection streams with known ground truth.

The generator fabricates what a detector+embedder front end would produce
for a multi-participant video: per-frame boxes on a jittered random walk and
unit embeddings drawn around per-participant pose centers. Because every
draw order is fixed, the output is a pure function of the scenario spec, and events
(occlusions, exits, background faces) do not perturb unrelated draws.

Per-frame draw order, for the record: for each participant in label order, a
pose index, a d-dimensional noise vector, and a 2-vector of box jitter; then
the same for each background event active in that frame, in event order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleSpec, InvalidSplit, ParseError
from .gallery import TrainingTrack
from .types import BoundingBox, Detection, Landmarks, l2_normalize

EVENT_OCCLUSION = "occlusion"
EVENT_EXIT = "exit"
EVENT_REENTER = "reenter"
EVENT_BACKGROUND = "background_face"
EVENT_KINDS = (EVENT_OCCLUSION, EVENT_EXIT, EVENT_REENTER, EVENT_BACKGROUND)

# minimum cosine distance between pose centers of different participants
MIN_SEPARATION = 0.3
# minimum cosine distance between a background face and every pose center
BACKGROUND_SEPARATION = 0.8
# rejection-sampling budget across all center draws
MAX_DRAWS = 1_000_000

FACE_SIZE = 96.0
BACKGROUND_FACE_SIZE = 16.0


@dataclass(frozen=True)
class Event:
    """A scripted disturbance.

    occlusion: subject stays in the scene but yields no detection for
        `length` frames starting at `start`.
    exit: subject leaves the scene at `start`; with length > 0 they return
        after `length` frames, with length == 0 they stay gone until a
        matching reenter event (or the end of the stream).
    reenter: subject returns to the scene at `start` (length unused).
    background_face: a small spurious face with an off-gallery embedding is
        injected for `length` frames; subject is just a tag for the event.
    """

    kind: str
    subject: str
    start: int
    length: int = 0

    def __post_init__(self):
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind: {self.kind!r}")
        if self.start < 0 or self.length < 0:
            raise ValueError("event start/length must be non-negative")


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything needed to reproduce one synthetic stream bit-for-bit."""

    participants: int
    duration_seconds: float
    seed: int
    pose_clusters_per_participant: int = 4
    embedding_dim: int = 512
    noise_sigma: float = 0.05
    fps: float = 30.0
    motion_sigma: float = 1.5
    events: tuple = ()
    frame_width: int = 1920
    frame_height: int = 1080
    train_seconds: float | None = None  # used by the CLI split; None -> 80%

    def __post_init__(self):
        if self.participants < 1:
            raise ValueError("participants must be positive")
        if not (0 < self.duration_seconds < math.inf and 0 < self.fps < math.inf):
            raise ValueError("duration and fps must be positive and finite")
        if self.pose_clusters_per_participant < 1:
            raise ValueError("pose_clusters_per_participant must be positive")
        if self.embedding_dim < 2:
            raise ValueError("embedding_dim must be at least 2")
        if not (0 <= self.noise_sigma < math.inf and 0 <= self.motion_sigma < math.inf):
            raise ValueError("sigmas must be non-negative and finite")
        object.__setattr__(self, "events", tuple(self.events))

    @property
    def labels(self) -> tuple:
        width = max(2, len(str(self.participants)))
        return tuple(f"p{i + 1:0{width}d}" for i in range(self.participants))

    @property
    def n_frames(self) -> int:
        return int(round(self.duration_seconds * self.fps))


@dataclass
class GroundTruthStream:
    """A generated stream plus everything needed to score against it.

    frames holds (frame index, [Detection...]) with gt_label set on every
    participant detection (background faces carry None). presence maps each
    frame to the labels truly in the scene — including occluded ones, which
    have no detection. tracks is filled by split_train_test.
    """

    fps: float
    frame_width: int
    frame_height: int
    embedding_dim: int
    frames: list
    presence: dict
    tracks: list = field(default_factory=list)
    missing_in_training: tuple = ()

    @property
    def frame_area(self) -> float:
        return float(self.frame_width * self.frame_height)


def _draw_unit(rng, dim):
    while True:
        v = rng.normal(size=dim)
        n = np.linalg.norm(v)
        if n > 0:
            return v / n


# candidates drawn per rejection-sampling block; larger blocks amortize RNG
# overhead but consume the stream in block-sized bites
_DRAW_BLOCK = 64


def _draw_separated(rng, dim, others, min_dist, budget):
    """Rejection-sample a unit vector at cosine distance >= min_dist from
    every vector in `others`. Returns (vector, draws_used); draws are
    consumed from the RNG in blocks, so draws_used is block-aligned."""
    if not others:
        return _draw_unit(rng, dim), 1
    other_mat = np.stack(others)
    draws = 0
    while draws < budget:
        block = min(_DRAW_BLOCK, budget - draws)
        cands = rng.normal(size=(block, dim))
        draws += block
        norms = np.linalg.norm(cands, axis=1)
        ok_rows = norms > 0
        cands[ok_rows] /= norms[ok_rows, None]
        # cosine distance >= min_dist against every existing vector
        ok_rows &= np.all(1.0 - cands @ other_mat.T >= min_dist, axis=1)
        hits = np.flatnonzero(ok_rows)
        if hits.size:
            return cands[int(hits[0])], draws
    raise InfeasibleSpec(
        f"could not place a center at separation {min_dist} "
        f"within {budget} draws")


def _landmarks_for(box: BoundingBox) -> Landmarks:
    # fixed fractional offsets: eyes, nose tip, mouth corners
    rel = ((0.30, 0.40), (0.70, 0.40), (0.50, 0.60), (0.35, 0.80), (0.65, 0.80))
    return Landmarks(tuple(
        (box.x + fx * box.w, box.y + fy * box.h) for fx, fy in rel))


def _grid_positions(count, width, height):
    """Deterministic, well-separated starting centers for `count` boxes."""
    cols = math.ceil(math.sqrt(count))
    rows = math.ceil(count / cols)
    out = []
    for i in range(count):
        r, c = divmod(i, cols)
        x = width * (c + 0.5) / cols
        y = height * (r + 0.5) / rows
        out.append(np.array([x, y], dtype=np.float64))
    return out


def _presence_masks(spec: ScenarioSpec):
    """Per-label boolean arrays: in_scene and detectable."""
    n = spec.n_frames
    in_scene = {label: np.ones(n, dtype=bool) for label in spec.labels}
    detectable_block = {label: np.zeros(n, dtype=bool) for label in spec.labels}
    for ev in sorted((e for e in spec.events if e.kind != EVENT_BACKGROUND),
                     key=lambda e: e.start):
        if ev.subject not in in_scene:
            raise ValueError(f"event subject is not a participant: {ev.subject!r}")
        if ev.kind == EVENT_OCCLUSION:
            detectable_block[ev.subject][ev.start:ev.start + ev.length] = True
        elif ev.kind == EVENT_EXIT:
            end = ev.start + ev.length if ev.length > 0 else n
            in_scene[ev.subject][ev.start:end] = False
        elif ev.kind == EVENT_REENTER:
            in_scene[ev.subject][ev.start:] = True
    return in_scene, detectable_block


def generate(spec: ScenarioSpec) -> GroundTruthStream:
    """Produce the full stream for a scenario. Deterministic in the spec."""
    rng = np.random.default_rng(spec.seed)
    dim = spec.embedding_dim

    # pose centers: free within a participant, separated across participants
    budget = MAX_DRAWS
    centers = {}
    for label in spec.labels:
        other = [c for cs in centers.values() for c in cs]
        own = []
        for _ in range(spec.pose_clusters_per_participant):
            v, used = _draw_separated(rng, dim, other, MIN_SEPARATION, budget)
            budget -= used
            own.append(v)
        centers[label] = own

    background_events = [e for e in spec.events if e.kind == EVENT_BACKGROUND]
    all_centers = [c for cs in centers.values() for c in cs]
    background_dirs = []
    for _ in background_events:
        v, used = _draw_separated(rng, dim, all_centers,
                                  BACKGROUND_SEPARATION, budget)
        budget -= used
        background_dirs.append(v)

    in_scene, occluded = _presence_masks(spec)

    n = spec.n_frames
    positions = dict(zip(spec.labels, _grid_positions(
        spec.participants, spec.frame_width, spec.frame_height)))
    bg_positions = [
        np.array([spec.frame_width * (i + 1) / (len(background_events) + 1), 40.0])
        for i in range(len(background_events))
    ]

    def clipped_box(center, size, width, height):
        x = min(max(center[0] - size / 2, 0.0), width - size)
        y = min(max(center[1] - size / 2, 0.0), height - size)
        return BoundingBox(x, y, size, size)

    frames = []
    presence = {}
    half = FACE_SIZE / 2
    for f in range(n):
        detections = []
        present_now = []
        for label in spec.labels:
            pose = int(rng.integers(len(centers[label])))
            noise = rng.normal(0.0, spec.noise_sigma, dim) if spec.noise_sigma > 0 else None
            jitter = rng.normal(0.0, spec.motion_sigma, 2) if spec.motion_sigma > 0 else np.zeros(2)
            pos = positions[label]
            pos += jitter
            pos[0] = min(max(pos[0], half), spec.frame_width - half)
            pos[1] = min(max(pos[1], half), spec.frame_height - half)
            if not in_scene[label][f]:
                continue
            present_now.append(label)
            if occluded[label][f]:
                continue
            if noise is None:
                emb = centers[label][pose].copy()
            else:
                emb = l2_normalize(centers[label][pose] + noise)
            box = clipped_box(pos, FACE_SIZE, spec.frame_width, spec.frame_height)
            detections.append(Detection(
                frame=f, box=box, embedding=emb,
                landmarks=_landmarks_for(box), gt_label=label))
        for ev, direction, pos in zip(background_events, background_dirs, bg_positions):
            if not ev.start <= f < ev.start + ev.length:
                continue
            noise = rng.normal(0.0, spec.noise_sigma, dim) if spec.noise_sigma > 0 else None
            jitter = rng.normal(0.0, spec.motion_sigma, 2) if spec.motion_sigma > 0 else np.zeros(2)
            pos += jitter
            emb = direction.copy() if noise is None else l2_normalize(direction + noise)
            box = clipped_box(pos, BACKGROUND_FACE_SIZE,
                              spec.frame_width, spec.frame_height)
            detections.append(Detection(
                frame=f, box=box, embedding=emb,
                landmarks=_landmarks_for(box), gt_label=None))
        frames.append((f, detections))
        presence[f] = tuple(present_now)

    return GroundTruthStream(
        fps=spec.fps,
        frame_width=spec.frame_width,
        frame_height=spec.frame_height,
        embedding_dim=dim,
        frames=frames,
        presence=presence,
    )


def split_train_test(stream: GroundTruthStream, train_seconds):
    """Carve a stream into per-participant training tracks and a test stream.

    The first round(train_seconds * fps) frames become TrainingTracks (one
    per participant that actually appears there); the remainder keeps its
    original frame indices and becomes the evaluation stream. A split that
    leaves either side empty raises InvalidSplit. Participants absent from
    the prefix are reported via missing_in_training on the returned stream.
    """
    if not math.isfinite(train_seconds):
        raise InvalidSplit(f"train_seconds must be finite: {train_seconds}")
    n_train = int(round(train_seconds * stream.fps))
    total = len(stream.frames)
    if not 0 < n_train < total:
        raise InvalidSplit(
            f"train portion must cover (0, {total}) frames, got {n_train}")
    prefix = stream.frames[:n_train]
    suffix = stream.frames[n_train:]
    per_label = {}
    for frame_index, detections in prefix:
        for d in detections:
            if d.gt_label is not None:
                per_label.setdefault(d.gt_label, []).append(
                    (frame_index, d.embedding))
    all_labels = sorted({l for labels in stream.presence.values() for l in labels})
    tracks = [TrainingTrack(label, samples, stream.fps)
              for label, samples in sorted(per_label.items())]
    missing = tuple(l for l in all_labels if l not in per_label)
    test = GroundTruthStream(
        fps=stream.fps,
        frame_width=stream.frame_width,
        frame_height=stream.frame_height,
        embedding_dim=stream.embedding_dim,
        frames=suffix,
        presence={f: p for f, p in stream.presence.items()
                  if f >= suffix[0][0]},
        tracks=tracks,
        missing_in_training=missing,
    )
    return tracks, test


def default_train_seconds(spec: ScenarioSpec) -> float:
    """The spec's train_seconds, or 80% of the duration when unset."""
    if spec.train_seconds is not None:
        return spec.train_seconds
    return 0.8 * spec.duration_seconds


# ---------------------------------------------------------------------------
# scenario config files: flat "key = value" lines, '#' comments, and one
# "event = kind subject start [length]" line per scripted event


_SCALAR_KEYS = {
    "participants": int,
    "duration_seconds": float,
    "train_seconds": float,
    "seed": int,
    "pose_clusters_per_participant": int,
    "embedding_dim": int,
    "noise_sigma": float,
    "fps": float,
    "motion_sigma": float,
    "frame_width": int,
    "frame_height": int,
}

_REQUIRED_KEYS = ("participants", "duration_seconds", "seed")


def parse_scenario(text: str) -> ScenarioSpec:
    """Parse a scenario config document into a ScenarioSpec."""
    values = {}
    events = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value': {line!r}", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "event":
            parts = value.split()
            if len(parts) not in (3, 4):
                raise ParseError(
                    f"event needs 'kind subject start [length]': {value!r}", lineno)
            kind, subject = parts[0], parts[1]
            try:
                start = int(parts[2])
                length = int(parts[3]) if len(parts) == 4 else 0
            except ValueError:
                raise ParseError(f"event frames must be integers: {value!r}", lineno)
            try:
                events.append(Event(kind, subject, start, length))
            except ValueError as exc:
                raise ParseError(str(exc), lineno)
        elif key in _SCALAR_KEYS:
            try:
                values[key] = _SCALAR_KEYS[key](value)
            except ValueError:
                raise ParseError(f"bad value for {key}: {value!r}", lineno)
        else:
            raise ParseError(f"unknown scenario key: {key!r}", lineno)
    for key in _REQUIRED_KEYS:
        if key not in values:
            raise ParseError(f"missing required scenario key: {key!r}")
    try:
        return ScenarioSpec(events=tuple(events), **values)
    except ValueError as exc:
        raise ParseError(str(exc))


def load_scenario(path) -> ScenarioSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())
