"""Per-step time and garbage collections of the tracker on one scenario.

    python tools/step_profile.py --scenario tests/data/demo_scenario.cfg --passes 3

Run from anywhere inside a checkout. Everything runs in this process, on the
checkout's ``src``: the scenario is generated and split as `prototrack gen`
splits it, a k-means gallery is built from its training tracks as
`prototrack gallery` builds it (``--k`` per person, seed 0), and then
`tracker.run` tracks the test frames ``--passes`` times with the `track`
defaults. Each pass starts after a full collection. The
`run_initial_window()` call and every `step()` call are timed, and so is
every `GalleryIndex.classify_batch` and `tracker._overlap_candidates` call;
the table gives, per pass, the initial window's time, the number of steps,
the p50 and p99 step time (nearest rank), the total time spent classifying
and finding overlap candidates (the window's calls included), and for each
garbage-collector generation the
number of collections during the pass and their total pause, taken from
``gc.callbacks``. The scenario is generated in float64 and never written, so
the embeddings are not the float32 values a `track` job reads back; the
decisions and timings are those of the in-memory tracker. The last line
gives the scenario's detection count and the process's peak RSS
(``ru_maxrss``) after generating it and after the passes: the generated
stream is held in memory throughout, so this is its footprint.

OpenBLAS, OpenMP and MKL run on one thread unless the environment already
says otherwise.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import resource
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


def timed(fn, seconds):
    """fn, appending the time of each call to `seconds`."""
    def wrapper(*args):
        t0 = perf_counter()
        result = fn(*args)
        seconds.append(perf_counter() - t0)
        return result
    return wrapper


def timed_pass(frames, index, cfg, frame_area):
    """One tracker.run over `frames`: (state, window seconds, step seconds,
    classify seconds, overlap seconds, GcLog)."""
    window, step = tracker.run_initial_window, tracker.step
    classify, overlap = GalleryIndex.classify_batch, tracker._overlap_candidates
    window_seconds, seconds, classify_seconds, overlap_seconds = [], [], [], []
    log = GcLog()
    gc.collect()
    tracker.run_initial_window = timed(window, window_seconds)
    tracker.step = timed(step, seconds)
    GalleryIndex.classify_batch = timed(classify, classify_seconds)
    tracker._overlap_candidates = timed(overlap, overlap_seconds)
    gc.callbacks.append(log)
    try:
        state = tracker.run(frames, index, cfg, frame_area)
    finally:
        gc.callbacks.remove(log)
        tracker.run_initial_window, tracker.step = window, step
        GalleryIndex.classify_batch, tracker._overlap_candidates = classify, overlap
    (window_s,) = window_seconds
    return state, window_s, seconds, sum(classify_seconds), sum(overlap_seconds), log


def peak_rss_mb():
    """This process's peak resident set size so far, in MB (Linux counts
    ru_maxrss in kilobytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup(stream, train_seconds, k):
    """(test frames, GalleryIndex, TrackerConfig, frame area) of a generated
    scenario."""
    tracks, test = synth.split_train_test(stream, train_seconds)
    index = GalleryIndex(build_gallery_kmeans(tracks, k=k, seed=0))
    return test.frames, index, tracker.TrackerConfig(fps=test.fps), test.frame_area


def table(passes):
    """One row per pass of (window seconds, step seconds, classify
    seconds, overlap seconds, GcLog)."""
    head = (f"{'pass':<5}{'window_us':>11}{'steps':>7}{'p50_us':>9}{'p99_us':>9}"
            f"{'classify_us':>13}{'overlap_us':>12}" + "".join(
                f"{f'gc{g}':>6}{f'gc{g}_ms':>9}" for g in GENERATIONS))
    lines = [head]
    for i, (window_s, seconds, classify_s, overlap_s, log) in enumerate(passes):
        lines.append(f"{i:<5}{window_s * 1e6:>11.1f}{len(seconds):>7}"
                     f"{percentile(seconds, 50) * 1e6:>9.1f}"
                     f"{percentile(seconds, 99) * 1e6:>9.1f}"
                     f"{classify_s * 1e6:>13.1f}{overlap_s * 1e6:>12.1f}" + "".join(
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
    spec = synth.load_scenario(args.scenario)
    stream = synth.generate(spec)
    detections = sum(len(dets) for _, dets in stream.frames)
    generated_mb = peak_rss_mb()
    frames, index, cfg, frame_area = setup(stream, synth.default_train_seconds(spec), args.k)
    del stream  # the passes hold the test frames and the gallery only
    passes = []
    for _ in range(args.passes):
        state, *timings = timed_pass(frames, index, cfg, frame_area)
        passes.append(timings)
    print(f"scenario: {args.scenario}")
    print(f"{len(frames)} frames: a {cfg.window_frames()}-frame initial window, then "
          f"one step per frame; {state.classify_calls} classified per pass")
    print(table(passes))
    print(f"{detections} detections in the scenario; peak RSS {generated_mb:.1f} MB "
          f"after generate, {peak_rss_mb():.1f} MB after the passes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
