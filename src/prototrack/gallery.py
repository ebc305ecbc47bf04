"""Prototype gallery construction from labeled training tracks.

A gallery holds a handful of representative embeddings ("prototypes") per
participant instead of every training sample. Two builders are provided:
K-means cluster medoids, and plain once-per-second temporal sampling.
Both are deterministic for a fixed seed and input.
"""

from __future__ import annotations

import math
import numbers
import sys
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .errors import DuplicateLabel, EmptyInput
from .types import UNKNOWN, l2_normalize

METHOD_KMEANS = "kmeans"
METHOD_SAMPLING = "sampling"


def _check_label(kind, label) -> None:
    """A participant label must be a non-empty string other than Unknown."""
    if not isinstance(label, str) or not label or label == UNKNOWN:
        raise ValueError(f"invalid {kind} label: {label!r}")


def _is_frame(frame) -> bool:
    """A frame index is an integer, not a bool: what the readers accept."""
    return type(frame) is int or (
        isinstance(frame, numbers.Integral) and not isinstance(frame, bool))


@dataclass(frozen=True, eq=False)
class TrainingTrack:
    """Time-ordered labeled embedding samples from one participant.

    samples is a list of (frame index, unit embedding) pairs with strictly
    increasing integer frame indices; fps ties frame counts back to
    wall-clock time.
    """

    label: str
    samples: list
    fps: float

    def __post_init__(self):
        _check_label("track", self.label)
        if not self.samples:
            raise EmptyInput(f"track {self.label!r} has no samples")
        if not 0 < self.fps < math.inf:
            raise ValueError(
                f"track {self.label!r}: fps must be positive and finite: {self.fps}")
        frames = [f for f, _ in self.samples]
        if not all(map(_is_frame, frames)):
            raise ValueError(f"track {self.label!r} frames must be integers")
        if any(b <= a for a, b in zip(frames, frames[1:])):
            raise ValueError(f"track {self.label!r} frames must strictly increase")

    def matrix(self) -> np.ndarray:
        return np.array([e for _, e in self.samples], dtype=np.float64)


@dataclass(frozen=True, eq=False)
class Prototype:
    """A gallery embedding plus the training frame it came from."""

    vector: np.ndarray
    source_frame: int

    def __post_init__(self):
        if not _is_frame(self.source_frame):
            raise ValueError(f"prototype frame must be an integer: {self.source_frame!r}")


@dataclass(frozen=True, eq=False)
class Gallery:
    """Per-participant prototype lists, keyed by label.

    Every key is a non-empty string other than Unknown, and has at least one
    prototype. An empty entries dict is representable (so writers can
    refuse it explicitly) but most consumers reject it.
    """

    entries: dict = field(default_factory=dict)
    method: str = METHOD_KMEANS
    k: int | None = None
    seed: int | None = None

    def __post_init__(self):
        for label, protos in self.entries.items():
            _check_label("entry", label)
            if not protos:
                raise ValueError(f"gallery entry {label!r} has no prototypes")

    @property
    def labels(self) -> tuple:
        return tuple(sorted(self.entries))

    def size(self) -> int:
        return sum(len(p) for p in self.entries.values())


def kmeans(points, k, seed, max_iters=100):
    """Lloyd's algorithm with seeded k-means++ initialization.

    Args:
        points: (n, d) array-like of samples.
        k: requested cluster count; clamped to n when larger.
        seed: RNG seed (int or sequence accepted by numpy's default_rng).
        max_iters: iteration budget; the loop also stops early once
            assignments are stable.

    Returns:
        (centroids, assignment): a (k, d) float64 array and a length-n int
        array mapping each point to its cluster. Every cluster is non-empty;
        an empty cluster is repaired by stealing the point currently
        farthest from its own centroid.

    The seeding, each Lloyd step and snap_to_medoids take their squared
    distances from one rule, _sq_distances: one matrix product per call.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.size == 0:
        raise EmptyInput("kmeans needs at least one point")
    if k < 1:
        raise ValueError(f"k must be positive: {k}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be positive: {max_iters}")
    n = len(pts)
    k = min(k, n)

    p2 = _sq_norms(pts)  # the points never change, so neither do their norms
    centroids = pts[_plus_plus_seed(pts, k, np.random.default_rng(seed), p2)]
    assignment = None
    for _ in range(max_iters):
        d2 = _sq_distances(pts, centroids, p2)
        new_assignment = np.argmin(d2, axis=1)
        _repair_empty_clusters(d2, new_assignment, k)
        if assignment is not None and np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
        centroids = _cluster_means(pts, assignment, k)
    return centroids, assignment


def _plus_plus_seed(pts, k, rng, p2):
    """The indices of k seed points, each drawn with probability in
    proportion to its squared distance from the nearest one drawn before;
    p2 is _sq_norms(pts)."""
    n = len(pts)
    chosen = [int(rng.integers(n))]
    d2 = np.full(n, np.inf)
    while len(chosen) < k:
        np.minimum(d2, _seed_sq_distances(pts, chosen[-1], p2), out=d2)
        total = float(d2.sum())
        if total > 0.0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            # all mass sits on already-chosen points (duplicates)
            idx = int(rng.integers(n))
        chosen.append(idx)
    return chosen


def _seed_sq_distances(pts, idx, p2):
    """Squared distances of every point from pts[idx], by _sq_distances.

    Where the true distance is zero the product can leave a residue of a
    few ulps of p2, which would give a seed's duplicates weight in the next
    draw; the rows that close to the seed take the exact row sum instead."""
    d2 = _sq_distances(pts, pts[idx:idx + 1], p2)[:, 0]
    near = np.flatnonzero(d2 <= 1e-6 * (p2 + p2[idx]))
    d2[near] = np.sum((pts[near] - pts[idx]) ** 2, axis=1)
    return d2


def _sq_norms(x):
    return np.einsum("ij,ij->i", x, x)


def _sq_distances(pts, centroids, p2):
    # |p|^2 + |c|^2 - 2 p.c, computed via one GEMM to keep memory at n*k;
    # p2 is _sq_norms(pts)
    d2 = p2[:, None] + _sq_norms(centroids)[None, :] - 2.0 * (pts @ centroids.T)
    np.maximum(d2, 0.0, out=d2)
    return d2


def _repair_empty_clusters(d2, assignment, k):
    n = len(assignment)
    counts = np.bincount(assignment, minlength=k)
    for c in np.flatnonzero(counts == 0):
        own = d2[np.arange(n), assignment]
        # only steal from clusters that keep at least one member
        own = np.where(counts[assignment] > 1, own, -1.0)
        idx = int(np.argmax(own))  # ties resolve to the lowest index
        counts[assignment[idx]] -= 1
        assignment[idx] = c
        counts[c] = 1


def _cluster_means(pts, assignment, k):
    # bincount adds each bin's weights in point order, as np.add.at does, so
    # the sums match it bit for bit; reduceat or a one-hot matmul would not
    d = pts.shape[1]
    sums = np.bincount((assignment[:, None] * d + np.arange(d)).ravel(),
                       weights=pts.ravel(), minlength=k * d).reshape(k, d)
    counts = np.bincount(assignment, minlength=k).astype(np.float64)
    return sums / counts[:, None]


def snap_to_medoids(centroids, points):
    """Replace each centroid by the index of its nearest actual sample.

    Nearest is Euclidean; ties resolve to the lowest sample index, and
    repeated winners are deduplicated (order preserved), so the result may
    be shorter than the centroid list.
    """
    cents = np.asarray(centroids, dtype=np.float64)
    pts = np.asarray(points, dtype=np.float64)
    if cents.size == 0 or pts.size == 0:
        raise EmptyInput("snap_to_medoids needs centroids and points")
    if cents.ndim == 1:
        cents = cents.reshape(-1, 1)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    d2 = _sq_distances(cents, pts, _sq_norms(cents))
    nearest = np.argmin(d2, axis=1)  # first (lowest) index wins ties
    out = []
    seen = set()
    for i in nearest:
        i = int(i)
        if i not in seen:
            seen.add(i)
            out.append(i)
    return out


def _checked_tracks(tracks):
    tracks = list(tracks)
    if not tracks:
        raise EmptyInput("no training tracks given")
    seen = set()
    for t in tracks:
        if t.label in seen:
            raise DuplicateLabel(f"duplicate training label: {t.label!r}")
        seen.add(t.label)
    return sorted(tracks, key=lambda t: t.label)


def _prototypes(track, indices):
    """Prototypes of the track's samples at `indices`, in that order."""
    return [Prototype(l2_normalize(track.samples[j][1]), int(track.samples[j][0]))
            for j in indices]


def build_gallery_kmeans(tracks, k, seed, k_is_total=False):
    """Build a medoid gallery: cluster each participant's samples, then snap
    each centroid to its nearest real sample.

    k is the per-participant prototype budget. With k_is_total=True it is
    instead a global budget split evenly across participants (floor
    division, minimum one each); `gallery --k-total` is its caller.
    Re-running with the same inputs and seed reproduces the gallery bit
    for bit.
    """
    tracks = _checked_tracks(tracks)
    if k < 1:
        raise ValueError(f"k must be positive: {k}")
    per_k = max(1, k // len(tracks)) if k_is_total else k
    entries = {}
    for i, track in enumerate(tracks):
        pts = track.matrix()
        centroids, _ = kmeans(pts, min(per_k, len(pts)), seed=[seed, i])
        entries[track.label] = _prototypes(track, snap_to_medoids(centroids, pts))
    return Gallery(entries=entries, method=METHOD_KMEANS, k=k, seed=seed)


def build_gallery_sampling(tracks):
    """Build a gallery by keeping the first sample at or after each whole
    second of a track, anchored at the track's first frame.

    Boundary frames are first + ceil(j * fps) for j = 0, 1, 2, ... up to the
    last sample frame; sparse tracks that map several boundaries onto the
    same sample keep it once. Every track yields at least one prototype.
    After each pick the boundaries that map onto it are skipped in one jump,
    so the work is bounded by the number of samples, whatever the fps.
    """
    tracks = _checked_tracks(tracks)
    entries = {}
    for track in tracks:
        frames = [f for f, _ in track.samples]
        first, last, fps = frames[0], frames[-1], track.fps

        def boundary(j):
            # j is a whole-number float, the only distinct values an int j
            # takes in j * fps; every boundary past the last frame acts alike
            return first + math.ceil(min(j * fps, last + 1 - first))

        picked = []
        j = 0.0
        while boundary(j) <= last:
            i = bisect_left(frames, boundary(j))
            picked.append(i)
            # the first j whose boundary lies past frames[i]: a guess by
            # division, lowered past its rounding error so that it cannot
            # overshoot, then settled with the boundary expression itself
            guess = min((frames[i] - first) / fps, sys.float_info.max)
            j = float(math.floor(guess * (1 - 2 ** -50)))
            while boundary(j) <= frames[i]:
                j = max(j + 1, math.nextafter(j, math.inf))  # the next whole float
        entries[track.label] = _prototypes(track, picked)
    return Gallery(entries=entries, method=METHOD_SAMPLING, k=None, seed=None)
