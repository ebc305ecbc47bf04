"""Minimum-distance classification of embeddings against a gallery."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyGallery
from .gallery import Gallery
from .types import UNKNOWN


@dataclass(frozen=True)
class RecognizerConfig:
    """Thresholds for classification and detection pre-filtering.

    unknown_threshold: distances above this become Unknown.
    min_area: absolute pixel-area floor for detections, finite; 0 disables.
    min_area_fraction: floor as a fraction of the frame area, at most 1;
        0 disables.
    At most one of the two area modes may be active. NaN fails every check.
    """

    unknown_threshold: float = 0.6
    min_area: float = 0.0
    min_area_fraction: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.unknown_threshold <= 2.0:
            raise ValueError(f"unknown_threshold outside [0, 2]: {self.unknown_threshold}")
        if not 0.0 <= self.min_area < math.inf:
            raise ValueError(f"min_area must be finite and >= 0: {self.min_area}")
        if not 0.0 <= self.min_area_fraction <= 1.0:
            raise ValueError(
                f"min_area_fraction outside [0, 1]: {self.min_area_fraction}")
        if self.min_area > 0 and self.min_area_fraction > 0:
            raise ValueError("min_area and min_area_fraction are mutually exclusive")


@dataclass(frozen=True)
class Classification:
    """Outcome of matching one embedding: winning label and its distance."""

    label: str
    distance: float


def area_filter(detection, frame_area, cfg: RecognizerConfig) -> bool:
    """True when the detection's box is large enough to keep.

    A box is rejected iff its area falls below the configured floor. The
    fractional mode needs the frame area; passing None with that mode
    configured is a usage error.
    """
    if cfg.min_area > 0:
        return detection.box.area >= cfg.min_area
    if cfg.min_area_fraction > 0:
        if frame_area is None:
            raise ValueError("min_area_fraction requires the frame area")
        return detection.box.area >= cfg.min_area_fraction * frame_area
    return True


class GalleryIndex:
    """Flattened view of a gallery for fast repeated matching.

    Prototypes are stacked into one matrix, grouped by sorted label, so a
    query is one matrix-vector product plus per-label segment minima.
    """

    def __init__(self, gallery: Gallery):
        entries = gallery.entries
        if not entries:
            raise EmptyGallery("gallery has no prototypes")
        self.labels = sorted(entries)
        rows = [np.asarray(p.vector, dtype=np.float64)
                for label in self.labels for p in entries[label]]
        dims = {r.shape[0] for r in rows}
        if len(dims) != 1:
            raise DimensionMismatch(f"gallery mixes embedding dims: {sorted(dims)}")
        counts = [len(entries[label]) for label in self.labels]
        self.starts = np.cumsum([0] + counts[:-1], dtype=np.intp)
        self.matrix = np.array(rows)
        self.dim = self.matrix.shape[1]

    def classify_batch(self, embeddings, cfg: RecognizerConfig):
        """Classify a (m, d) batch (or one d-vector as m = 1).

        Returns (labels, distances): a list of m labels with the Unknown
        threshold applied, and a float64 array of the m winning distances.
        """
        q = np.asarray(embeddings, dtype=np.float64)
        if q.ndim == 1:
            q = q.reshape(1, -1)
        if q.shape[1] != self.dim:
            raise DimensionMismatch(
                f"query dim {q.shape[1]} vs gallery dim {self.dim}")
        dists = 1.0 - q @ self.matrix.T
        np.clip(dists, 0.0, 2.0, out=dists)
        # best distance within each label's contiguous segment
        per_label = np.minimum.reduceat(dists, self.starts, axis=1)
        best = np.argmin(per_label, axis=1)  # ties -> lowest = lexicographically smallest label
        distances = per_label[np.arange(len(best)), best]
        names = self.labels
        threshold = cfg.unknown_threshold
        labels = [names[b] if d <= threshold else UNKNOWN
                  for b, d in zip(best.tolist(), distances.tolist())]
        return labels, distances


def classify(embedding, gallery, cfg: RecognizerConfig) -> Classification:
    """Match one embedding against every prototype of every participant.

    The winning label is the one holding the globally smallest cosine
    distance (ties -> lexicographically smallest label); if that distance
    exceeds cfg.unknown_threshold the result is labeled Unknown but keeps
    the measured distance. Accepts a Gallery or a prebuilt GalleryIndex.
    """
    index = gallery if isinstance(gallery, GalleryIndex) else GalleryIndex(gallery)
    labels, distances = index.classify_batch(embedding, cfg)
    return Classification(labels[0], float(distances[0]))
