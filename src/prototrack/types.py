"""Core value types and the vector/geometry operations everything else shares.

Embeddings are plain numpy arrays, kept at unit L2 norm and in float64 for
all in-memory arithmetic; file formats narrow them to 32-bit storage and
they are re-normalized on load.

The input records are compact because a long video holds one Detection
per face per frame in memory. Detection and BoundingBox are frozen, slotted
dataclasses with no per-instance __dict__. A Detection holds a face's box
and embedding only: nothing downstream reads facial landmarks, so stream
files may carry them but the records do not (see stream_io). Detection
compares by identity; BoundingBox compares and hashes by value.

The per-frame output records, FrameEntry and FrameResult, are immutable
named tuples: the tracker builds several per frame, and a tuple is the
cheapest immutable record to build. They compare and hash by value.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, InvalidEmbedding

# Reserved label for "no confident identity". Never a participant name,
# never stored in a gallery, and allowed to repeat within one frame.
UNKNOWN = "Unknown"

SOURCE_CLASSIFIED = "classified"
SOURCE_REUSED = "reused"
SOURCE_OCCLUDED = "occluded"
ENTRY_SOURCES = (SOURCE_CLASSIFIED, SOURCE_REUSED, SOURCE_OCCLUDED)


def l2_normalize(v) -> np.ndarray:
    """Scale a vector to unit L2 norm, preserving direction.

    Raises InvalidEmbedding for zero or non-finite input, since those have
    no direction to preserve.
    """
    arr = np.asarray(v, dtype=np.float64)
    n = float(np.linalg.norm(arr))
    if n == 0.0 or not np.isfinite(n):
        raise InvalidEmbedding("cannot normalize a zero or non-finite vector")
    return arr / n


def l2_normalize_rows(m, out=None) -> np.ndarray:
    """l2_normalize applied to every row of a 2-D float64 array, bit for bit.

    Each norm is the square root of one BLAS dot of the row with itself,
    which is what np.linalg.norm computes for a single vector; einsum and
    row sums add in other orders and differ in the last bit. `out` may be
    `m` itself. A zero or non-finite row raises InvalidEmbedding whose
    `row` is the index of the first such row.
    """
    m = np.ascontiguousarray(m, dtype=np.float64)  # m itself when it already is
    norms = np.sqrt(np.matmul(m[:, None, :], m[:, :, None]))[:, :, 0]
    bad = np.flatnonzero(~((norms > 0.0) & (norms < np.inf)))
    if bad.size:
        raise InvalidEmbedding(
            "cannot normalize a zero or non-finite vector", row=int(bad[0]))
    return np.divide(m, norms, out=out)


def cosine_distance(a, b) -> float:
    """1 - dot(a, b) for unit vectors; lies in [0, 2].

    Both inputs are assumed unit-normalized, which makes this equivalent to
    (and cheaper than) full cosine distance. Mismatched shapes raise
    DimensionMismatch.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionMismatch(f"vector shapes differ: {a.shape} vs {b.shape}")
    d = 1.0 - float(np.dot(a, b))
    # round-off on unit vectors can land a hair outside the metric's range
    return min(2.0, max(0.0, d))


def _frozen(cls):
    """Make `cls` refuse to set or delete any attribute with
    FrozenInstanceError. A frozen, slotted dataclass already does so for its
    fields but raises TypeError for other names (CPython 3.10 to 3.13)."""
    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    cls.__setattr__, cls.__delattr__ = __setattr__, __delattr__
    return cls


@_frozen
@dataclass(frozen=True, slots=True)
class BoundingBox:
    """Axis-aligned pixel box: top-left corner plus positive width/height."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self):
        if not (self.w > 0 and self.h > 0):
            raise ValueError(f"box width/height must be positive: {self.w}x{self.h}")

    @property
    def area(self) -> float:
        return self.w * self.h


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection-over-union of two boxes; 0 when disjoint, 1 when identical."""
    ix = max(a.x, b.x)
    iy = max(a.y, b.y)
    ix2 = min(a.x + a.w, b.x + b.w)
    iy2 = min(a.y + a.h, b.y + b.h)
    iw = ix2 - ix
    ih = iy2 - iy
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    return inter / (a.area + b.area - inter)


@_frozen
@dataclass(frozen=True, slots=True, eq=False)
class Detection:
    """One detected face in one frame, with its embedding.

    gt_label is only present on synthetic/benchmark streams where the true
    identity is known; production streams leave it None.
    """

    frame: int
    box: BoundingBox
    embedding: np.ndarray
    gt_label: str | None = None


class _FrameEntryFields(NamedTuple):
    label: str
    box: BoundingBox
    distance: float
    source: str


class FrameEntry(_FrameEntryFields):
    """One identity assertion in a frame's output.

    source records how the assertion was produced: a fresh classification,
    a box-overlap reuse of a tracked identity, or an occlusion placeholder
    held at the identity's last seen box.
    """

    __slots__ = ()

    def __new__(cls, label, box, distance, source):
        if source not in ENTRY_SOURCES:
            raise ValueError(f"unknown entry source: {source!r}")
        if not distance >= 0:
            raise ValueError(f"distance must be non-negative: {distance}")
        return tuple.__new__(cls, (label, box, distance, source))

    @classmethod
    def _make(cls, iterable):
        # namedtuple's own _make (and so _replace) would skip the checks
        return cls(*iterable)


class FrameResult(NamedTuple):
    """All identity assertions for one frame."""

    frame: int
    entries: tuple[FrameEntry, ...] = ()

    def labels(self) -> tuple[str, ...]:
        return tuple(e.label for e in self.entries)


def duplicate_named_labels(result: FrameResult) -> set[str]:
    """Non-Unknown labels that appear more than once in a frame.

    The tracker guarantees this set is empty for its output; the per-frame
    baseline makes no such promise.
    """
    seen: set[str] = set()
    dups: set[str] = set()
    for e in result.entries:
        if e.label == UNKNOWN:
            continue
        if e.label in seen:
            dups.add(e.label)
        seen.add(e.label)
    return dups
