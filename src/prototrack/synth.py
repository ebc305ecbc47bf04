"""Seeded synthetic detection streams with known ground truth.

The generator fabricates what a detector+embedder front end would produce
for a multi-participant video: per-frame boxes on a jittered random walk and
unit embeddings drawn around per-participant pose centers. It makes no
facial landmarks: stream_io.write_stream spells each box's five keypoints
when the stream is written. Because every
draw order is fixed, the output is a pure function of the scenario spec, and events
(occlusions, exits, background faces) do not perturb unrelated draws.

Per-frame draw order, for the record: for each participant in label order, a
pose index, a d-dimensional noise vector (only when noise_sigma > 0), and a
2-vector of box jitter (only when motion_sigma > 0); then the same for each
background event active in that frame, in event order. Building the
embeddings never draws: they are the rows of one (detections, dim) matrix,
which holds the noise after the draws and is then shifted to the pose
centers and unit-normalized in place, bit for bit as before.
"""

from __future__ import annotations

import math
import sys
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .errors import InfeasibleSpec, InvalidSplit, ParseError
from .gallery import TrainingTrack
from .types import BoundingBox, Detection, l2_normalize_rows

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
        if not self.duration_seconds * self.fps <= sys.maxsize:
            raise ValueError("duration_seconds * fps must be finite and at most "
                             f"sys.maxsize frames: {self.duration_seconds} * {self.fps}")
        if self.pose_clusters_per_participant < 1:
            raise ValueError("pose_clusters_per_participant must be positive")
        if self.embedding_dim < 2:
            raise ValueError("embedding_dim must be at least 2")
        if not (0 <= self.noise_sigma < math.inf and 0 <= self.motion_sigma < math.inf):
            raise ValueError("sigmas must be non-negative and finite")
        if self.frame_width < 1 or self.frame_height < 1:
            raise ValueError("frame_width and frame_height must be at least 1")
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
    have no detection.
    """

    fps: float
    frame_width: int
    frame_height: int
    embedding_dim: int
    frames: list
    presence: dict
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


# rows per block when the embeddings are finished after the draws
_EMBED_BLOCK = 512


def generate(spec: ScenarioSpec) -> GroundTruthStream:
    """Produce the full stream for a scenario. Deterministic in the spec.

    The draws follow the order in the module docstring. Every embedding is
    a row of one (detections, dim) matrix: the draw loop writes each row's
    noise and builds the detections around the rows, and a second pass then
    adds each row's pose center and unit-normalizes the rows a block at a
    time, bit for bit as one l2_normalize per row would. With noise_sigma 0
    the rows are plain copies of their centers.
    """
    rng = np.random.default_rng(spec.seed)
    dim = spec.embedding_dim
    labels = spec.labels
    poses = spec.pose_clusters_per_participant

    # pose centers: free within a participant, separated across participants
    budget = MAX_DRAWS
    centers = []
    for _ in labels:
        own = []
        for _ in range(poses):
            v, used = _draw_separated(rng, dim, centers, MIN_SEPARATION, budget)
            budget -= used
            own.append(v)
        centers += own

    background_events = [e for e in spec.events if e.kind == EVENT_BACKGROUND]
    background_dirs = []
    for _ in background_events:
        v, used = _draw_separated(rng, dim, centers, BACKGROUND_SEPARATION, budget)
        budget -= used
        background_dirs.append(v)
    # participant i's pose p is row i * poses + p, background event j's
    # direction row len(labels) * poses + j
    centers = np.array(centers + background_dirs)

    in_scene, occluded = _presence_masks(spec)
    n = spec.n_frames
    windows = [(ev.start, min(ev.start + ev.length, n)) for ev in background_events]
    total = (sum(int(np.count_nonzero(in_scene[l] & ~occluded[l])) for l in labels)
             + sum(max(0, stop - start) for start, stop in windows))
    emb = np.empty((total, dim))
    sources = []

    width, height = spec.frame_width, spec.frame_height
    noise_sigma, motion_sigma = spec.noise_sigma, spec.motion_sigma
    # participants start on a grid, background faces along the top edge
    cols = math.ceil(math.sqrt(len(labels)))
    rows = math.ceil(len(labels) / cols)
    xs = [width * (i % cols + 0.5) / cols for i in range(len(labels))]
    ys = [height * (i // cols + 0.5) / rows for i in range(len(labels))]
    n_bg = len(background_events)
    bg_xs = [width * (j + 1) / (n_bg + 1) for j in range(n_bg)]
    bg_ys = [40.0] * n_bg
    scene = [in_scene[l].tolist() for l in labels]
    hidden = [occluded[l].tolist() for l in labels]

    half = FACE_SIZE / 2
    x_hi, y_hi = width - half, height - half
    box_x_hi, box_y_hi = width - FACE_SIZE, height - FACE_SIZE
    bg_half = BACKGROUND_FACE_SIZE / 2
    bg_x_hi, bg_y_hi = width - BACKGROUND_FACE_SIZE, height - BACKGROUND_FACE_SIZE

    frames = []
    presence = {}
    row = 0
    for f in range(n):
        detections = []
        present_now = []
        for i, label in enumerate(labels):
            pose = int(rng.integers(poses))
            noise = rng.normal(0.0, noise_sigma, dim) if noise_sigma > 0 else None
            jx, jy = (rng.normal(0.0, motion_sigma, 2).tolist()
                      if motion_sigma > 0 else (0.0, 0.0))
            # min(max(v, lo), hi) as conditionals: max keeps v unless lo > v,
            # min keeps m unless hi < m
            x, y = xs[i] + jx, ys[i] + jy
            x, y = half if half > x else x, half if half > y else y
            xs[i] = x = x_hi if x_hi < x else x
            ys[i] = y = y_hi if y_hi < y else y
            if not scene[i][f]:
                continue
            present_now.append(label)
            if hidden[i][f]:
                continue
            if noise is not None:
                emb[row] = noise
            sources.append(i * poses + pose)
            x, y = x - half, y - half
            x, y = 0.0 if 0.0 > x else x, 0.0 if 0.0 > y else y
            x = box_x_hi if box_x_hi < x else x
            y = box_y_hi if box_y_hi < y else y
            detections.append(Detection(
                f, BoundingBox(x, y, FACE_SIZE, FACE_SIZE), emb[row], label))
            row += 1
        for j, (start, stop) in enumerate(windows):
            if not start <= f < stop:
                continue
            noise = rng.normal(0.0, noise_sigma, dim) if noise_sigma > 0 else None
            jx, jy = (rng.normal(0.0, motion_sigma, 2).tolist()
                      if motion_sigma > 0 else (0.0, 0.0))
            bg_xs[j] += jx
            bg_ys[j] += jy
            if noise is not None:
                emb[row] = noise
            sources.append(len(labels) * poses + j)
            x = min(max(bg_xs[j] - bg_half, 0.0), bg_x_hi)
            y = min(max(bg_ys[j] - bg_half, 0.0), bg_y_hi)
            detections.append(Detection(
                f, BoundingBox(x, y, BACKGROUND_FACE_SIZE, BACKGROUND_FACE_SIZE), emb[row]))
            row += 1
        frames.append((f, detections))
        presence[f] = tuple(present_now)

    # block-wise, so the gathered centers never take a second full matrix
    sources = np.array(sources, dtype=np.intp)
    for lo in range(0, total, _EMBED_BLOCK):
        block = emb[lo:lo + _EMBED_BLOCK]
        picked = centers[sources[lo:lo + _EMBED_BLOCK]]
        if noise_sigma > 0:
            block += picked
            l2_normalize_rows(block, out=block)
        else:
            block[...] = picked

    return GroundTruthStream(
        fps=spec.fps,
        frame_width=width,
        frame_height=height,
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
    if not math.isfinite(train_seconds * stream.fps):
        raise InvalidSplit("train_seconds * fps must be finite: "
                           f"{train_seconds} * {stream.fps}")
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
# "event = kind subject start [length]" line per scripted event. The other
# keys are ScenarioSpec's fields: int fields are read with int, the rest with
# float, and a field with no default is required.


def parse_scenario(text: str) -> ScenarioSpec:
    """Parse a scenario config document into a ScenarioSpec."""
    scalars = [f for f in fields(ScenarioSpec) if f.name != "events"]
    readers = {f.name: int if f.type in (int, "int") else float for f in scalars}
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
        elif key in readers:
            try:
                values[key] = readers[key](value)
            except ValueError:
                raise ParseError(f"bad value for {key}: {value!r}", lineno)
        else:
            raise ParseError(f"unknown scenario key: {key!r}", lineno)
    for f in scalars:
        if f.name not in values and f.default is MISSING:
            raise ParseError(f"missing required scenario key: {f.name!r}")
    try:
        return ScenarioSpec(events=tuple(events), **values)
    except ValueError as exc:
        raise ParseError(str(exc))


def load_scenario(path) -> ScenarioSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())
