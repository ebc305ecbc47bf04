"""Records the sha256 of the files `prototrack gen` writes for small scenarios.

Each scenario below is generated, split and written exactly as the `gen`
subcommand does it (stream, tracks and truth). The committed digests pin
the generator's output byte for byte, so a rewrite of `synth.generate` that
changes one draw, one box coordinate or one embedding bit fails the test
that compares against them. Between them the scenarios cover zero
embedding noise, zero motion on a frame narrower than a face (every
position is clamped), fast faces held at the edges of a small frame, a
background face that runs past the end of the stream, an occlusion, an
exit with and without a timed return, and an explicit reenter.

Re-record only when the generator's output is meant to change.

Usage: python3 make_synth_digests.py [out_path]
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from prototrack.stream_io import StreamHeader, write_stream, write_tracks, write_truth
from prototrack.synth import Event, ScenarioSpec, generate, split_train_test

DIGESTS_NAME = "synth_digests.json"
FILE_KINDS = ("stream", "tracks", "truth")

SCENARIOS = {
    # noise_sigma 0: every embedding is a copy of its pose center
    "zero_noise_occlusion": (ScenarioSpec(
        participants=3, duration_seconds=6.0, seed=21, embedding_dim=16,
        noise_sigma=0.0, fps=10.0,
        events=(Event("occlusion", "p02", 45, 6),
                Event("background_face", "bg", 50, 4))), 4.0),
    # motion_sigma 0 draws no jitter; the frame is narrower and lower than
    # a face, so both coordinates sit at the clamp
    "still_narrow_frame": (ScenarioSpec(
        participants=2, duration_seconds=4.0, seed=22, embedding_dim=7,
        motion_sigma=0.0, frame_width=60, frame_height=40, fps=10.0,
        events=(Event("occlusion", "p01", 32, 3),)), 2.5),
    # a background face that starts before the split and outlives the
    # stream; p01 leaves for good, p02 leaves and comes back by reenter
    "background_past_end": (ScenarioSpec(
        participants=3, duration_seconds=5.0, seed=23, embedding_dim=32,
        noise_sigma=0.08, fps=12.0,
        events=(Event("background_face", "walker", 30, 100),
                Event("exit", "p01", 40),
                Event("exit", "p02", 20),
                Event("reenter", "p02", 48))), 3.0),
    # a timed exit, an occlusion and a background face inside the stream,
    # at an odd width that spans no power of two; fast faces in a small
    # frame keep running into its edges, where the position clamp holds them
    "timed_exit_churn": (ScenarioSpec(
        participants=4, duration_seconds=3.0, seed=24, embedding_dim=130,
        motion_sigma=25.0, frame_width=320, frame_height=240, fps=30.0,
        events=(Event("exit", "p03", 50, 12),
                Event("occlusion", "p04", 70, 5),
                Event("background_face", "bg", 66, 9))), 2.0),
}


def write_files(spec, train_seconds, out_dir):
    """Write what `prototrack gen` writes for `spec` into out_dir."""
    tracks, test = split_train_test(generate(spec), train_seconds)
    header = StreamHeader(fps=test.fps, frame_width=test.frame_width,
                          frame_height=test.frame_height,
                          embedding_dim=test.embedding_dim)
    paths = {kind: Path(out_dir) / f"{kind}.out" for kind in FILE_KINDS}
    write_stream(paths["stream"], header, test.frames)
    write_tracks(tracks, paths["tracks"])
    write_truth(test, paths["truth"])
    return paths


def digests():
    """{scenario: {file kind: sha256}} for every scenario, as generated now."""
    out = {}
    for name, (spec, train_seconds) in SCENARIOS.items():
        with tempfile.TemporaryDirectory() as tmp:
            paths = write_files(spec, train_seconds, tmp)
            out[name] = {kind: hashlib.sha256(path.read_bytes()).hexdigest()
                         for kind, path in paths.items()}
    return out


def main(out_path):
    Path(out_path).write_text(json.dumps(digests(), indent=2, sort_keys=True) + "\n",
                              encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).parent / DIGESTS_NAME)
