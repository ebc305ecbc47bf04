"""Builds the committed 200-frame hand-simulated tracking fixture.

Three people sit at fixed positions for the whole clip. The schedule
exercises every tracker behavior once: alice is occluded for 4 frames
(bridged), bob leaves for good and disappears from the output after 6
misses, a stranger's embedding collides with carol's prototype in the
same frame carol is visible (duplicate-label conflict), and a small
background face shows up for 20 frames (stays Unknown).

The expected output is derived here entry by entry from that schedule —
the tracker itself is never imported — so the committed files are an
independent oracle for the tracking rules. Distances are exact binary
fractions (0, 0.5, 1) chosen to survive 32-bit narrowing and 9-digit
decimal round-trips unchanged, which is what makes byte-for-byte
comparison of the output meaningful.

Usage: python3 make_tracker_fixture.py [out_dir]
"""

import sys
from pathlib import Path

import numpy as np

from prototrack.gallery import Gallery
from prototrack.stream_io import (
    StreamHeader,
    write_gallery,
    write_results,
    write_stream,
)
from prototrack.types import (
    SOURCE_CLASSIFIED,
    SOURCE_OCCLUDED,
    SOURCE_REUSED,
    UNKNOWN,
    BoundingBox,
    Detection,
    FrameEntry,
    FrameResult,
)

DIM = 8
FPS = 30.0
N_FRAMES = 200
WINDOW_END = 60  # frames 0-59 bootstrap the tracker (2 s at 30 fps)

BG_FIRST, BG_LAST = 60, 79      # background face visible on these frames
OCCLUSION = range(100, 104)     # alice hidden for 4 frames
IMPOSTOR_FRAME = 130            # stranger closest to carol's prototype
EXIT_FRAME = 150                # bob's last frame is 149

BOX_ALICE = BoundingBox(100.0, 100.0, 96.0, 96.0)
BOX_BOB = BoundingBox(400.0, 100.0, 96.0, 96.0)
BOX_CAROL = BoundingBox(700.0, 100.0, 96.0, 96.0)
BOX_IMPOSTOR = BoundingBox(1000.0, 500.0, 96.0, 96.0)
BOX_BACKGROUND = BoundingBox(50.0, 900.0, 16.0, 16.0)

HEADER = StreamHeader(fps=FPS, frame_width=1920, frame_height=1080,
                      embedding_dim=DIM)

STREAM_NAME = "tracker_fixture_stream.jsonl"
GALLERY_NAME = "tracker_fixture_gallery.json"
EXPECTED_NAME = "tracker_fixture_expected.jsonl"
FIXTURE_NAMES = (STREAM_NAME, GALLERY_NAME, EXPECTED_NAME)


def one_hot(i):
    v = np.zeros(DIM)
    v[i] = 1.0
    return v


def half_mix(i):
    # 0.5 in four positions: unit norm, cosine distance exactly 0.5 from
    # one_hot(i) and exactly 1.0 from every other one-hot
    v = np.zeros(DIM)
    v[[i, 5, 6, 7]] = 0.5
    return v


def gallery():
    return Gallery(
        {"alice": np.array([one_hot(0)]), "bob": np.array([one_hot(1)]),
         "carol": np.array([one_hot(2)])},
        {"alice": [0], "bob": [0], "carol": [0]},
        method="kmeans", k=1, seed=0)


def stream_frames():
    frames = []
    for f in range(N_FRAMES):
        dets = []
        if f not in OCCLUSION:
            dets.append(Detection(f, BOX_ALICE, one_hot(0), gt_label="alice"))
        if f < EXIT_FRAME:
            dets.append(Detection(f, BOX_BOB, one_hot(1), gt_label="bob"))
        dets.append(Detection(f, BOX_CAROL, one_hot(2), gt_label="carol"))
        if BG_FIRST <= f <= BG_LAST:
            dets.append(Detection(f, BOX_BACKGROUND, one_hot(3)))
        if f == IMPOSTOR_FRAME:
            dets.append(Detection(f, BOX_IMPOSTOR, half_mix(2)))
        frames.append((f, dets))
    return frames


def expected_results():
    """The FrameResult sequence the schedule demands.

    Window frames classify everyone. Afterwards the seated people are
    matched by box overlap (distance frozen at the window's 0.0); the
    background face and the impostor are classified fresh; alice's
    occlusion and bob's first five misses yield placeholders at the last
    box; bob's sixth miss drops his confidence below the floor and he
    vanishes. The impostor claims carol, but carol's overlap match has
    the smaller distance, so the impostor is relabeled Unknown.
    """
    results = []
    for f in range(N_FRAMES):
        entries = []
        if f < WINDOW_END:
            for label, box in (("alice", BOX_ALICE), ("bob", BOX_BOB),
                               ("carol", BOX_CAROL)):
                entries.append(FrameEntry(label, box, 0.0, SOURCE_CLASSIFIED))
        else:
            # detection-order entries first...
            if f not in OCCLUSION:
                entries.append(
                    FrameEntry("alice", BOX_ALICE, 0.0, SOURCE_REUSED))
            if f < EXIT_FRAME:
                entries.append(FrameEntry("bob", BOX_BOB, 0.0, SOURCE_REUSED))
            entries.append(FrameEntry("carol", BOX_CAROL, 0.0, SOURCE_REUSED))
            if BG_FIRST <= f <= BG_LAST:
                entries.append(FrameEntry(UNKNOWN, BOX_BACKGROUND, 1.0,
                                          SOURCE_CLASSIFIED))
            if f == IMPOSTOR_FRAME:
                entries.append(FrameEntry(UNKNOWN, BOX_IMPOSTOR, 0.5,
                                          SOURCE_CLASSIFIED))
            # ...then occlusion placeholders
            if f in OCCLUSION:
                entries.append(
                    FrameEntry("alice", BOX_ALICE, 0.0, SOURCE_OCCLUDED))
            if EXIT_FRAME <= f < EXIT_FRAME + 5:
                entries.append(FrameEntry("bob", BOX_BOB, 0.0, SOURCE_OCCLUDED))
        results.append(FrameResult(f, tuple(entries)))
    return results


def expected_classify_calls():
    """Every window detection, the background face while visible, and the
    impostor; everything else rides the overlap-reuse path."""
    window = sum(len(dets) for f, dets in stream_frames() if f < WINDOW_END)
    background = BG_LAST - BG_FIRST + 1
    return window + background + 1


def main(out_dir):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_stream(out_dir / STREAM_NAME, HEADER, stream_frames())
    write_gallery(gallery(), out_dir / GALLERY_NAME)
    write_results(expected_results(), out_dir / EXPECTED_NAME)


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).parent)
