"""Core value types and the vector operations everything else shares.

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

Who checks them: FrameEntry's constructor, and so _make, _replace and
pickling, refuses an unknown source and a distance that is not finite and
at least 0 (the rule is _entry_fault); stream_io.read_results builds every
entry through it. The tracker builds its records with the bare tuple
constructor: a state that run, run_initial_window and step built holds
only valid ones (see tracker._record), while the last_distance of a
TrackedFace a caller built is the caller's to keep. stream_io.write_results
checks every entry it is handed against read_results' rules, FrameEntry's
through _entry_fault, before it writes a byte, so no record that skipped
the constructor reaches a file the reader refuses. synth.generate likewise
builds its Detections and boxes without their constructors; its boxes'
sides are positive constants.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidEmbedding

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


def _entry_fault(distance, source):
    """Why FrameEntry refuses an entry of this distance and source, in its
    words; None when it does not."""
    if source not in ENTRY_SOURCES:
        return f"unknown entry source: {source!r}"
    if not distance >= 0:
        return f"distance must be non-negative: {distance}"
    if not distance < math.inf:
        return f"distance must be finite: {distance}"
    return None


class FrameEntry(_FrameEntryFields):
    """One identity assertion in a frame's output.

    source records how the assertion was produced: a fresh classification,
    a box-overlap reuse of a tracked identity, or an occlusion placeholder
    held at the identity's last seen box.
    """

    __slots__ = ()

    def __new__(cls, label, box, distance, source):
        fault = _entry_fault(distance, source)
        if fault is not None:
            raise ValueError(fault)
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
