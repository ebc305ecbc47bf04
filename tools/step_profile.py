"""Per-step time and garbage collections of the tracker on one scenario.

    python tools/step_profile.py --scenario tests/data/demo_scenario.cfg --passes 3

Run from anywhere inside a checkout. Everything runs in this process, on the
checkout's ``src``: the scenario is generated and split as `prototrack gen`
splits it, a k-means gallery is built from its training tracks as
`prototrack gallery` builds it (``--k`` per person, seed 0), and then
`tracker.run` tracks the test frames ``--passes`` times with the `track`
defaults. Each pass starts after a full collection. Every `step()` call is
timed; the table gives, per pass, the number of steps, the p50 and p99 step
time (nearest rank), and for each garbage-collector generation the number of
collections during the pass and their total pause, taken from
``gc.callbacks``. The scenario is generated in float64 and never written, so
the embeddings are not the float32 values a `track` job reads back; the
decisions and timings are those of the in-memory tracker.

OpenBLAS, OpenMP and MKL run on one thread unless the environment already
says otherwise.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
from pathlib import Path
from time import perf_counter

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # before numpy loads its BLAS
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from prototrack import synth, tracker  # noqa: E402
from prototrack.gallery import build_gallery_kmeans  # noqa: E402
from prototrack.recognizer import GalleryIndex  # noqa: E402

GENERATIONS = (0, 1, 2)


class GcLog:
    """A gc.callbacks hook: collections and total pause per generation."""

    def __init__(self):
        self.count = [0] * len(GENERATIONS)
        self.pause = [0.0] * len(GENERATIONS)
        self._start = 0.0

    def __call__(self, phase, info):
        if phase == "start":
            self._start = perf_counter()
        else:
            self.count[info["generation"]] += 1
            self.pause[info["generation"]] += perf_counter() - self._start


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def timed_pass(frames, index, cfg, frame_area):
    """One tracker.run over `frames`: (state, step seconds, GcLog)."""
    step = tracker.step
    seconds = []

    def timed_step(*args):
        t0 = perf_counter()
        state = step(*args)
        seconds.append(perf_counter() - t0)
        return state

    log = GcLog()
    gc.collect()
    tracker.step = timed_step
    gc.callbacks.append(log)
    try:
        state = tracker.run(frames, index, cfg, frame_area)
    finally:
        gc.callbacks.remove(log)
        tracker.step = step
    return state, seconds, log


def setup(scenario, k):
    """(test frames, GalleryIndex, TrackerConfig, frame area) of a scenario."""
    spec = synth.load_scenario(scenario)
    tracks, test = synth.split_train_test(
        synth.generate(spec), synth.default_train_seconds(spec))
    index = GalleryIndex(build_gallery_kmeans(tracks, k=k, seed=0))
    return test.frames, index, tracker.TrackerConfig(fps=test.fps), test.frame_area


def table(passes):
    """One row per pass of (steps, GcLog)."""
    head = f"{'pass':<5}{'steps':>7}{'p50_us':>9}{'p99_us':>9}" + "".join(
        f"{f'gc{g}':>6}{f'gc{g}_ms':>9}" for g in GENERATIONS)
    lines = [head]
    for i, (seconds, log) in enumerate(passes):
        lines.append(f"{i:<5}{len(seconds):>7}{percentile(seconds, 50) * 1e6:>9.1f}"
                     f"{percentile(seconds, 99) * 1e6:>9.1f}" + "".join(
                         f"{log.count[g]:>6}{log.pause[g] * 1e3:>9.3f}"
                         for g in GENERATIONS))
    return "\n".join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--scenario", required=True, type=Path, help="scenario config file")
    ap.add_argument("--passes", type=int, default=3, help="tracker passes over the frames")
    ap.add_argument("--k", type=int, default=10, help="k-means prototypes per person")
    args = ap.parse_args(argv)
    if args.passes < 1:
        ap.error("--passes must be at least 1")
    frames, index, cfg, frame_area = setup(args.scenario, args.k)
    passes = []
    for _ in range(args.passes):
        state, seconds, log = timed_pass(frames, index, cfg, frame_area)
        passes.append((seconds, log))
    print(f"scenario: {args.scenario}")
    print(f"{len(frames)} frames: a {cfg.window_frames()}-frame initial window, then "
          f"one step per frame; {state.classify_calls} classified per pass")
    print(table(passes))
    return 0


if __name__ == "__main__":
    sys.exit(main())
