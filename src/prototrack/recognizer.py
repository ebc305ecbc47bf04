"""Minimum-distance classification of embeddings against a gallery.

A batch of m query rows is matched against all P prototypes in one
(m, d) @ (d, P) product, the prototypes held as the columns of one matrix
grouped by sorted label. Each row takes its nearest column: the first
column at the minimum of its distances 1 - s clipped to [0, 2], and that
column's label. This is the first label at the minimum of the per-label
minima, bit for bit: rounding 1 - s is monotone, so the minimum is the same
number either way, and the first column holding it lies in the first label
holding it. The clip changes which column comes first only in a row whose
unclipped minimum lies outside (0, 2), so only such rows are clipped: on
every other row the clip moves no distance at or below the minimum.

After the product a batch takes one Python pass: each row's nearest column
and distance are read once, as lists, and one loop names each row's label
and spots any row outside (0, 2). Only then, and rarely, are such rows
clipped, ranked again and named again.
"""

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

    The prototypes are held once, as the columns of one C-contiguous
    (d, P) float64 matrix grouped by sorted label, and column_labels holds
    each column's label. A batch of queries is one (m, d) @ (d, P) product,
    then each row's nearest column (see the module docstring): the first
    column at the row's smallest clipped distance, so ties go to the
    lexicographically smallest label. The tracker and the exhaustive
    baseline both classify through this one product.
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
        self.column_labels = [label for label in self.labels for _ in entries[label]]
        self.columns = np.stack(rows, axis=1)
        self.dim = self.columns.shape[0]

    def similarities(self, q):
        """(m, P) cosine similarities of the (m, d) unit queries to every
        prototype column: the one matrix product of classification."""
        return q @ self.columns

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
        dists = self.similarities(q)
        np.subtract(1.0, dists, out=dists)
        best = dists.argmin(axis=1)  # the first column at the minimum
        distances = dists[np.arange(len(best)), best]
        names = self.column_labels
        threshold = cfg.unknown_threshold
        labels = []
        outside = False
        for b, d in zip(best.tolist(), distances.tolist()):
            if not 0.0 < d < 2.0:
                outside = True
            labels.append(names[b] if d <= threshold else UNKNOWN)
        # only a row whose minimum lies outside (0, 2) ranks otherwise once clipped
        if outside:
            edge = np.flatnonzero((distances <= 0.0) | (distances >= 2.0))
            clipped = np.clip(dists[edge], 0.0, 2.0)
            best[edge] = clipped.argmin(axis=1)
            distances[edge] = clipped.min(axis=1)
            labels = [names[b] if d <= threshold else UNKNOWN
                      for b, d in zip(best.tolist(), distances.tolist())]
        return labels, distances
