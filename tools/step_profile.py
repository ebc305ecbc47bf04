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

With ``--against SRC`` the tool compares this checkout's tracker with the
one in another checkout's ``src`` directory instead, for example the base
branch of a change:

    python tools/step_profile.py --scenario tests/data/demo_scenario.cfg --against ../base/src

The other checkout's ``prototrack`` is imported under the name
``prototrack_against`` (every import inside the package is relative).
First each side's `synth.generate` builds the scenario ``--passes`` times,
the two sides taking turns to go first; the report gives each side's
fastest time and the ratio of the other side's to this side's (above 1
when this checkout is faster), and whether the two streams are the same:
frames, labels and presence equal, and every box and embedding float equal
by its bits. The trackers then run on this side's stream, and the other
side indexes the same gallery. Both trackers run the same frames
``--passes`` times, interleaved frame by frame: the two initial windows,
then each frame's two `step()` calls, the two sides taking turns to go
first from one pass to the next. The table gives each side's initial
window, its steps and their total, each the sum of the fastest time of
each call over the passes, and the last line the ratio of the other side's
total to this side's. The exit status is 1 when the two streams differ, or
when the two trackers' results or classify counts differ in any pass.

OpenBLAS, OpenMP and MKL run on one thread unless the environment already
says otherwise.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import math
import os
import resource
import struct
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
    """(test frames, gallery, TrackerConfig, frame area) of a generated
    scenario."""
    tracks, test = synth.split_train_test(stream, train_seconds)
    gallery = build_gallery_kmeans(tracks, k=k, seed=0)
    return test.frames, gallery, tracker.TrackerConfig(fps=test.fps), test.frame_area


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


def load_package(src, name="prototrack_against"):
    """The prototrack package under another checkout's `src` directory,
    imported as `name` beside this checkout's."""
    init = Path(src) / "prototrack" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def exact_results(results):
    """FrameResults with every number spelled as its float64 bits, so that
    == compares records of either checkout bit for bit."""
    bits = struct.Struct("<d").pack
    return [(r.frame, [(e.label, tuple(map(bits, (e.box.x, e.box.y, e.box.w, e.box.h))),
                        bits(e.distance), e.source) for e in r.entries])
            for r in results]


def interleaved_passes(frames, sides, passes):
    """Run the two sides' trackers `passes` times over `frames`, interleaved
    frame by frame, the sides taking turns to go first from pass to pass.

    sides holds one (tracker module, index, TrackerConfig, frame area) per
    side. Returns (fastest, same): per side, the fastest time of its initial
    window and then of each step() over the passes; and whether the sides'
    results and classify counts were equal in every pass.
    """
    window = frames[:sides[0][2].window_frames()]
    rest = frames[len(window):]
    fastest = [[math.inf] * (1 + len(rest)) for _ in sides]
    same = True
    for p in range(passes):
        order = (0, 1) if p % 2 == 0 else (1, 0)
        states = [None, None]
        gc.collect()
        for s in order:
            module, index, cfg, frame_area = sides[s]
            t0 = perf_counter()
            states[s] = module.run_initial_window(window, index, cfg, frame_area)
            fastest[s][0] = min(fastest[s][0], perf_counter() - t0)
        for i, (frame_index, detections) in enumerate(rest, 1):
            for s in order:
                module, index, cfg, frame_area = sides[s]
                t0 = perf_counter()
                module.step(states[s], frame_index, detections, index, cfg, frame_area)
                fastest[s][i] = min(fastest[s][i], perf_counter() - t0)
        a, b = states
        same = same and a.classify_calls == b.classify_calls and \
            exact_results(a.results) == exact_results(b.results)
    return fastest, same


def box_bits(box):
    return struct.pack("<4d", box.x, box.y, box.w, box.h)


def same_stream(a, b):
    """Whether two generated streams hold the same frames, labels and
    presence, and every box and embedding float with the same bits."""
    if a.presence != b.presence or len(a.frames) != len(b.frames):
        return False
    for (fa, da), (fb, db) in zip(a.frames, b.frames):
        if fa != fb or len(da) != len(db):
            return False
        for x, y in zip(da, db):
            if (x.frame, x.gt_label, box_bits(x.box), x.embedding.tobytes()) != \
                    (y.frame, y.gt_label, box_bits(y.box), y.embedding.tobytes()):
                return False
    return True


def interleaved_generate(sides, passes):
    """Generate each side's scenario `passes` times, the sides taking turns
    to go first from pass to pass.

    sides holds one (synth module, ScenarioSpec) per side. Returns
    (fastest, streams): per side, the fastest generate() over the passes,
    and the stream of the last pass.
    """
    fastest = [math.inf] * len(sides)
    for p in range(passes):
        order = (0, 1) if p % 2 == 0 else (1, 0)
        streams = [None] * len(sides)  # freed before the pass, outside the timing
        gc.collect()
        for s in order:
            module, spec = sides[s]
            t0 = perf_counter()
            streams[s] = module.generate(spec)
            fastest[s] = min(fastest[s], perf_counter() - t0)
    return fastest, streams


def against(args, spec):
    """The --against report; 0 when both sides generate the same stream and
    their trackers give the same results on it."""
    other = load_package(args.against)
    other_synth = importlib.import_module(f"{other.__name__}.synth")
    other_tracker = importlib.import_module(f"{other.__name__}.tracker")
    print(f"scenario: {args.scenario}")
    print(f"against: {args.against}; {args.passes} passes, generate taking turns "
          f"and the trackers interleaved frame by frame, fastest of each call")
    fastest, streams = interleaved_generate(
        [(synth, spec), (other_synth, other_synth.load_scenario(args.scenario))], args.passes)
    generated_same = same_stream(*streams)
    print(f"{'side':<9}{'generate_ms':>12}")
    for name, seconds in zip(("this", "against"), fastest):
        print(f"{name:<9}{seconds * 1e3:>12.1f}")
    print(f"ratio against/this {fastest[1] / fastest[0]:.3f}; streams "
          + ("identical" if generated_same else "DIFFER"))
    stream = streams[0]
    del streams
    frames, gallery, cfg, frame_area = setup(stream, synth.default_train_seconds(spec), args.k)
    del stream
    other_index = importlib.import_module(f"{other.__name__}.recognizer").GalleryIndex(gallery)
    other_cfg = other_tracker.TrackerConfig(fps=cfg.fps)
    fastest, same = interleaved_passes(frames, [
        (tracker, GalleryIndex(gallery), cfg, frame_area),
        (other_tracker, other_index, other_cfg, frame_area)], args.passes)
    print(f"{'side':<9}{'window_us':>11}{'steps':>7}{'steps_us':>11}{'total_us':>11}")
    for name, calls in zip(("this", "against"), fastest):
        print(f"{name:<9}{calls[0] * 1e6:>11.1f}{len(calls) - 1:>7}"
              f"{sum(calls[1:]) * 1e6:>11.1f}{sum(calls) * 1e6:>11.1f}")
    print(f"ratio against/this {sum(fastest[1]) / sum(fastest[0]):.3f}; results "
          + ("identical" if same else "DIFFER"))
    return 0 if generated_same and same else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--scenario", required=True, type=Path, help="scenario config file")
    ap.add_argument("--passes", type=int, default=3, help="tracker passes over the frames")
    ap.add_argument("--k", type=int, default=10, help="k-means prototypes per person")
    ap.add_argument("--against", type=Path, metavar="SRC",
                    help="compare with the tracker under another checkout's src directory")
    args = ap.parse_args(argv)
    if args.passes < 1:
        ap.error("--passes must be at least 1")
    spec = synth.load_scenario(args.scenario)
    if args.against:
        return against(args, spec)
    stream = synth.generate(spec)
    detections = sum(len(dets) for _, dets in stream.frames)
    generated_mb = peak_rss_mb()
    frames, gallery, cfg, frame_area = setup(stream, synth.default_train_seconds(spec), args.k)
    del stream  # the passes hold the test frames and the gallery only
    index = GalleryIndex(gallery)
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
