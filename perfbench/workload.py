"""One benchmark workload, run in this process; prints its result as JSON.

run.py starts this file in a fresh child process, with BLAS pinned to one
thread and ``src`` on the import path; see README.md for the model, the
workloads and the metrics. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed``, ``metrics`` and ``env``.

Every run checks its outputs. Each output check, job and tracker call is one
attempted operation; an exception or a failed check is a failed one.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

from prototrack import cli, evaluate, gallery, recognizer, stream_io, synth, tracker
from prototrack.types import (
    SOURCE_CLASSIFIED,
    SOURCE_OCCLUDED,
    SOURCE_REUSED,
    UNKNOWN,
    duplicate_named_labels,
)

from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# --seed is folded onto this many input sets, every one of which has its
# results digest and workload shape recorded under expected/
INPUT_SEEDS = 16
# set-ups per untraced run, spread over it; setup_s is their median
SETUP_REPS = 5
# pipeline passes per untraced full-size run at least
MIN_PASSES = 3
# tracker passes after each files_512d pipeline pass; one takes about 20 ms
FILES_TRACKER_PASSES = 10
# A job's time is the median over the run's passes. The tracker figures are
# built from the fastest time of each tracker call over the run's tracker
# passes: on a shared host the same work runs up to 1.75 times as slow, in
# stretches of tenths of a second to minutes, and a call of under a
# millisecond nearly always meets a moment when it is not. See README.md,
# "Steadiness".


def _events(*items):
    return tuple(synth.Event(*item) for item in items)


@dataclass(frozen=True)
class Workload:
    """A scenario (without its seed) at two sizes, and how it is run.

    files: run the README loop as `python -m prototrack` jobs on files;
    otherwise the same loop runs as library calls on in-memory data.
    """

    name: str
    k: int
    files: bool
    full: dict
    tiny: dict


WORKLOADS = {
    # production embedding size, few people moving slowly, files on disk: time
    # goes to serialisation and k-means, the tracker loop is under a tenth of
    # it, and about 85% of its detections reuse a label by box overlap
    "files_512d": Workload(
        "files_512d", k=8, files=True,
        full=dict(participants=4, duration_seconds=30, embedding_dim=512,
                  train_seconds=15, motion_sigma=1.5,
                  events=_events(("occlusion", "p01", 600, 5),
                                 ("exit", "p02", 675, 30),
                                 ("background_face", "walker", 625, 40))),
        tiny=dict(participants=4, duration_seconds=12, embedding_dim=32,
                  train_seconds=6, motion_sigma=1.5,
                  events=_events(("occlusion", "p01", 240, 5),
                                 ("exit", "p02", 270, 30),
                                 ("background_face", "walker", 250, 40)))),
    # few people moving fast plus strangers: overlap reuse mostly fails and
    # about 90% of detections go to the recognizer
    "churn_classify": Workload(
        "churn_classify", k=32, files=False,
        full=dict(participants=8, duration_seconds=80, embedding_dim=128,
                  train_seconds=20, motion_sigma=30.0,
                  events=_events(*[("background_face", f"bg{i}", 700 + 400 * i, 300)
                                   for i in range(4)],
                                 *[("exit", f"p0{i + 1}", 800 + 180 * i, 100)
                                   for i in range(8)])),
        tiny=dict(participants=4, duration_seconds=24, embedding_dim=32,
                  train_seconds=4, motion_sigma=30.0,
                  events=_events(*[("background_face", f"bg{i}", 150 + 250 * i, 150)
                                   for i in range(2)],
                                 *[("exit", f"p0{i + 1}", 200 + 100 * i, 30)
                                   for i in range(4)]))),
}


def scenario(workload: Workload, scale: str, seed: int) -> synth.ScenarioSpec:
    params = workload.full if scale == "full" else workload.tiny
    return synth.ScenarioSpec(seed=seed, **params)


def scenario_text(spec: synth.ScenarioSpec) -> str:
    """The scenario as a `prototrack gen` config file."""
    keys = ("participants", "duration_seconds", "train_seconds", "seed", "fps",
            "embedding_dim", "pose_clusters_per_participant", "noise_sigma",
            "motion_sigma", "frame_width", "frame_height")
    lines = [f"{key} = {getattr(spec, key)}" for key in keys]
    lines += [f"event = {e.kind} {e.subject} {e.start} {e.length}" for e in spec.events]
    return "\n".join(lines) + "\n"


class Tally:
    """Attempted and failed operations: jobs, tracker calls, output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"CHECK FAILED: {what}", file=sys.stderr)
        return ok


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# the tracker, driven exactly as tracker.run drives it, one timed call a frame


@dataclass
class TrackPass:
    state: tracker.TrackerState
    seconds: float  # run_initial_window plus every step()
    step_s: list
    counts: dict


def track_pass(frames, index, cfg, frame_area, tally):
    """Run the initial window, then step() once per frame, timing each call.

    Promotions and demotions come from the active pool's key set before and
    after each step; IoU pairs are kept detections times active identities
    at the start of each frame.
    """
    window = min(len(frames), cfg.window_frames())
    gc.collect()
    tally.attempted += 1
    t0 = perf_counter()
    state = tracker.run_initial_window(frames[:window], index, cfg, frame_area)
    seconds = perf_counter() - t0
    step_s = []
    promotions = demotions = iou_pairs = active_sum = 0
    for frame_index, detections in frames[window:]:
        before = set(state.active)
        kept = sum(1 for d in detections
                   if recognizer.area_filter(d, frame_area, cfg.recognizer))
        iou_pairs += kept * len(before)
        active_sum += len(before)
        tally.attempted += 1
        t = perf_counter()
        try:
            tracker.step(state, frame_index, detections, index, cfg, frame_area)
        except Exception:
            traceback.print_exc()
            tally.failed += 1
            break
        step_s.append(perf_counter() - t)
        after = state.active.keys()
        promotions += len(after - before)
        demotions += len(before - after)
    seconds += sum(step_s)
    counts = entry_counts(state.results)
    counts.update(classify_calls=state.classify_calls, promotions=promotions,
                  demotions=demotions, iou_pairs=iou_pairs)
    counts["active_mean"] = active_sum / max(1, len(step_s))
    return TrackPass(state, seconds, step_s, counts)


def entry_counts(results) -> dict:
    sources = Counter()
    unknown = 0
    for r in results:
        for e in r.entries:
            sources[e.source] += 1
            unknown += e.label == UNKNOWN
    return {"reused": sources[SOURCE_REUSED],
            "classified": sources[SOURCE_CLASSIFIED],
            "occluded": sources[SOURCE_OCCLUDED],
            "unknown": unknown}


def check_results(tally, results, classify_calls, kept_detections, what):
    """The tracker's own guarantees, on any list of FrameResults."""
    counts = entry_counts(results)
    tally.check(all(not duplicate_named_labels(r) for r in results),
                f"{what}: a frame names the same identity twice")
    tally.check(classify_calls == counts["classified"],
                f"{what}: {classify_calls} classify calls but "
                f"{counts['classified']} classified entries")
    tally.check(counts["classified"] + counts["reused"] == kept_detections,
                f"{what}: classified + reused = "
                f"{counts['classified'] + counts['reused']}, kept detections = "
                f"{kept_detections}")


def _canonical_entry(e):
    box = tuple(stream_io.canonical_float(np.float32(v))
                for v in (e.box.x, e.box.y, e.box.w, e.box.h))
    return e.label, e.source, box, stream_io.canonical_float(e.distance)


def fingerprint(results) -> int:
    """Equal for equal results (entries compare field by field); a cheap
    stand-in for the digest when results are compared within one run."""
    return hash(tuple((r.frame, r.entries) for r in results))


def same_results(from_file, in_memory) -> bool:
    """read_results output against in-memory results, at file precision."""
    if len(from_file) != len(in_memory):
        return False
    for a, b in zip(from_file, in_memory):
        if a.frame != b.frame or len(a.entries) != len(b.entries):
            return False
        for ea, eb in zip(a.entries, b.entries):
            if _canonical_entry(ea) != _canonical_entry(eb):
                return False
    return True


# ---------------------------------------------------------------------------
# `python -m prototrack` jobs


@dataclass
class Job:
    seconds: float
    rss_mb: float
    output: str


def run_job(argv, tally) -> Job:
    """Run one CLI job as a child process; wall time and peak RSS from wait4."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "prototrack", *map(str, argv)],
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            text=True)
    output = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    tally.check(proc.returncode == 0,
                f"prototrack {argv[0]} exited {proc.returncode}: {output.strip()}")
    return Job(seconds, usage.ru_maxrss / 1024.0, output)


def run_cli_inline(argv, tally) -> str:
    """Run one CLI job in this process (the traced run wraps its names)."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main([str(a) for a in argv])
    tally.check(code == 0, f"prototrack {argv[0]} returned {code}")
    return out.getvalue()


_CLASSIFY_CALLS = re.compile(r"\((\d+) classification calls\)")


def classify_calls_printed(output) -> int:
    match = _CLASSIFY_CALLS.search(output)
    return int(match.group(1)) if match else -1


# ---------------------------------------------------------------------------
# the two ways of running the README loop


@dataclass
class Measured:
    """An untraced run's samples: seconds per job; the fastest time of each
    tracker call (the initial window, then step() by frame) over every
    tracker pass, all of which run over the same inputs; and every tracker
    pass's record."""

    jobs: dict = field(default_factory=lambda: defaultdict(list))
    window_s: float = math.inf
    step_s: np.ndarray | None = None
    tracker_s: list = field(default_factory=list)  # whole tracker passes
    observed: list = field(default_factory=list)
    frames: int = 0  # per tracker pass
    rss_mb: float = 0.0  # peak RSS of the process that ran a track job

    def add_pass(self, times, checked):
        """One pipeline pass: seconds per job, and (record, tracker pass)
        for each tracker pass over the same inputs."""
        for key, seconds in times.items():
            self.jobs[key].append(seconds)
        for observed, tp in checked:
            self.observed.append(observed)
            self.tracker_s.append(tp.seconds)
            self.frames = len(tp.state.results)
            steps = np.asarray(tp.step_s)
            self.window_s = min(self.window_s, tp.seconds - steps.sum())
            self.step_s = steps if self.step_s is None else np.minimum(self.step_s, steps)


class FilesRun:
    """gen, gallery, track and score as `python -m prototrack` jobs on files.

    Pass i writes its own gallery, results and score files. Pass 0's files
    are checked in full; a later pass must write the same bytes.
    """

    def __init__(self, wl, spec, work):
        self.wl, self.spec, self.work = wl, spec, work
        self.cfg_path = work / "scenario.cfg"
        self.cfg_path.write_text(scenario_text(spec), encoding="utf-8")
        self.stream = work / "stream.jsonl"
        self.tracks = work / "tracks.json"
        self.truth = work / "truth.json"
        self.loaded = None
        self.first = None  # pass 0's file digests, shape, accuracy and index

    def _out(self, kind, i):
        return self.work / {"gallery": f"gallery-{i}.json", "results": f"results-{i}.jsonl",
                            "score": f"score-{i}.json"}[kind]

    def _gen_argv(self):
        return ["gen", "--scenario", self.cfg_path, "--out-stream", self.stream,
                "--out-tracks", self.tracks, "--out-truth", self.truth]

    def _job_argvs(self, i):
        return {
            "gallery": ["gallery", "--tracks", self.tracks, "--out", self._out("gallery", i),
                        "--k", self.wl.k, "--seed", self.spec.seed],
            "track": ["track", "--stream", self.stream, "--gallery", self._out("gallery", i),
                      "--out", self._out("results", i)],
            "score": ["score", "--results", self._out("results", i), "--truth", self.truth,
                      "--json", self._out("score", i)],
        }

    def setup(self, tally):
        return run_job(self._gen_argv(), tally).seconds

    def setup_inline(self, tally):
        run_cli_inline(self._gen_argv(), tally)

    def measured_pass(self, i, m, tally):
        ran = {name: run_job(argv, tally) for name, argv in self._job_argvs(i).items()}
        calls = classify_calls_printed(ran["track"].output)
        m.add_pass({f"{name}_job_s": job.seconds for name, job in ran.items()},
                   self.check(i, calls, tally, FILES_TRACKER_PASSES))
        if i == 0:
            # Linux counts a parent's peak RSS into its child's at exec;
            # the first track job ran before this process read any input
            m.rss_mb = ran["track"].rss_mb

    def inline_pass(self, i, tally):
        outputs = {name: run_cli_inline(argv, tally)
                   for name, argv in self._job_argvs(i).items()}
        return classify_calls_printed(outputs["track"])

    def check(self, i, classify_calls, tally, passes=1):
        """Check pass i's files against `passes` tracker passes over the same
        inputs; returns (record, tracker pass) for each tracker pass.

        Pass 0 is checked in full. A later pass must write the same bytes as
        pass 0, which costs far less than reading them back again."""
        if self.loaded is None:
            header, frames = stream_io.read_stream(self.stream)
            self.loaded = (header, frames, stream_io.read_tracks(self.tracks),
                           stream_io.read_truth(self.truth))
        header, frames, tracks, truth = self.loaded
        results = self._out("results", i)
        digests = [sha256_file(self._out(kind, i)) for kind in ("gallery", "results", "score")]
        if i == 0:
            built = stream_io.read_gallery(self._out("gallery", i))
            index = recognizer.GalleryIndex(built)
            shape = shape_of(frames, tracks, built, results, self.stream.stat().st_size,
                             self.tracks.stat().st_size)
            accuracy = json.loads(self._out("score", i).read_text(encoding="utf-8"))["average"]
            self.first = digests, shape, accuracy, index, classify_calls
        else:
            first_digests, shape, accuracy, index, first_calls = self.first
            tally.check(digests == first_digests and classify_calls == first_calls,
                        f"pass {i} wrote other files than pass 0")
            shape = dict(shape, results_sha256=digests[1])
        cfg = tracker.TrackerConfig(fps=header.fps)
        tps = [track_pass(frames, index, cfg, header.frame_area, tally) for _ in range(passes)]
        tp = tps[0]
        for other in tps[1:]:
            tally.check(fingerprint(other.state.results) == fingerprint(tp.state.results),
                        "tracker passes over the same inputs differ")
        if i == 0:
            from_file = stream_io.read_results(results)
            check_results(tally, from_file, classify_calls, shape["detections"],
                          "results file")
            tally.check(same_results(from_file, tp.state.results),
                        "read_results(results file) differs from the in-memory results")
            tally.check(stream_io.canonical_float(evaluate.score(from_file, truth).average)
                        == accuracy, "score job's average differs from evaluate.score")
        return [(observe(shape, accuracy, tp), tp) for tp in tps]

    def baseline_inputs(self):
        _, frames, tracks, _ = self.loaded
        return frames, tracks


class MemoryRun:
    """The same loop as library calls on in-memory data; no files but the
    results of the first pass, written for their digest."""

    def __init__(self, wl, spec, work):
        self.wl, self.spec = wl, spec
        self.results_path = work / "results.jsonl"
        self.tracks = self.test = None
        self.first = None  # the first pass's shape and results fingerprint

    def setup(self, tally):
        t0 = perf_counter()
        self.setup_inline(tally)
        return perf_counter() - t0

    def setup_inline(self, tally):
        self.tracks = self.test = None  # one stream at a time in memory
        stream = synth.generate(self.spec)
        self.tracks, self.test = synth.split_train_test(stream, self.spec.train_seconds)

    def measured_pass(self, i, m, tally):
        # the pass's results are freed on return, before the next pass: the
        # process's peak RSS is the in-memory track_job_rss_mb
        done = self.inline_pass(i, tally)
        m.add_pass(done[3], self.check(i, done, tally))
        m.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def inline_pass(self, i, tally):
        gc.collect()
        t0 = perf_counter()
        built = gallery.build_gallery_kmeans(self.tracks, self.wl.k, self.spec.seed)
        index = recognizer.GalleryIndex(built)
        gallery_s = perf_counter() - t0
        tp = track_pass(self.test.frames, index, tracker.TrackerConfig(fps=self.spec.fps),
                        self.test.frame_area, tally)
        t0 = perf_counter()
        report = evaluate.score(tp.state.results, self.test)
        score_s = perf_counter() - t0
        times = {"gallery_job_s": gallery_s, "track_job_s": tp.seconds,
                 "score_job_s": score_s}
        return built, tp, report, times

    def check(self, i, done, tally):
        """The first pass is checked in full; a later one must give the same
        results, which costs far less than writing them again."""
        built, tp, report, _ = done
        if self.first is None:
            stream_io.write_results(tp.state.results, self.results_path)
            shape = shape_of(self.test.frames, self.tracks, built, self.results_path)
            check_results(tally, tp.state.results, tp.state.classify_calls,
                          shape["detections"], "tracker")
            self.first = shape, fingerprint(tp.state.results)
        else:
            shape = dict(self.first[0], prototypes=built.size())
            tally.check(fingerprint(tp.state.results) == self.first[1],
                        f"pass {i} gives other results than the first pass")
        return [(observe(shape, report.average, tp), tp)]

    def baseline_inputs(self):
        return self.test.frames, self.tracks


# ---------------------------------------------------------------------------
# expected shapes


def expected_path(directory, workload, scale):
    return Path(directory) / f"{workload}.{scale}.json"


def load_expected(directory, workload, scale) -> dict:
    path = expected_path(directory, workload, scale)
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}


def save_expected(directory, workload, scale, seed, shape):
    records = load_expected(directory, workload, scale)
    records[str(seed)] = shape
    records = {k: records[k] for k in sorted(records, key=int)}
    expected_path(directory, workload, scale).write_text(
        json.dumps(records, indent=1, sort_keys=True) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------


def shape_of(frames, tracks, built, results_path, stream_bytes=0, tracks_bytes=0) -> dict:
    """A workload's size and its results digest. The in-memory workloads
    write no stream or tracks file, so those sizes read 0 there."""
    return {
        "frames": len(frames),
        "detections": sum(len(d) for _, d in frames),
        "training_samples": sum(len(t.samples) for t in tracks),
        "prototypes": built.size(),
        "stream_bytes": stream_bytes,
        "tracks_bytes": tracks_bytes,
        "results_bytes": results_path.stat().st_size,
        "results_sha256": sha256_file(results_path),
    }


def observe(shape, accuracy, tp) -> dict:
    """Everything about a pass that must repeat exactly, for the record."""
    counts = {k: v for k, v in tp.counts.items() if k != "active_mean"}
    return dict(shape, **counts, accuracy=accuracy)


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def environment(seed, inputs_seed) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the layout of numpy's build record is not a stable API
        blas = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "seed": seed, "inputs_seed": inputs_seed}


def measure(runner, wl, args, tally):
    """Untraced run of about --seconds: set-ups at each SETUP_REPS-th of it,
    and whole pipeline passes in between. No pass starts that would end
    after the run if it took as long as the longest pass so far, but at
    least MIN_PASSES run at full size."""
    min_passes = MIN_PASSES if args.scale == "full" else 1
    m = Measured()
    t0 = perf_counter()
    setups = []
    longest = 0.0
    i = 0
    while i < min_passes or perf_counter() - t0 + longest <= args.seconds:
        if (len(setups) < SETUP_REPS
                and perf_counter() - t0 >= len(setups) / SETUP_REPS * args.seconds):
            setups.append(runner.setup(tally))
            continue
        start = perf_counter()
        runner.measured_pass(i, m, tally)
        longest = max(longest, perf_counter() - start)
        i += 1
    setups += [runner.setup(tally) for _ in range(SETUP_REPS - len(setups))]
    # the tracker pass with each call at its fastest, and its step() tail
    tracker_s = m.window_s + float(m.step_s.sum())
    jobs = {key: median(values) for key, values in m.jobs.items()}
    if not wl.files:
        jobs["track_job_s"] = tracker_s
    metrics = {"setup_s": median(setups),
               "pipeline_s": sum(jobs.values()),
               "gallery_job_s": jobs["gallery_job_s"],
               "track_job_s": jobs["track_job_s"],
               "track_fps": m.frames / tracker_s,
               "step_p99_us": percentile(m.step_s, 99) * 1e6,
               "track_job_rss_mb": m.rss_mb,
               "accuracy": m.observed[0]["accuracy"]}
    samples = dict(m.jobs, tracker_pass_s=m.tracker_s)
    summary = "\n".join(
        [f"{len(setups)} set-ups (setup_s is their median), "
         f"{len(m.jobs['gallery_job_s'])} pipeline passes, {len(m.tracker_s)} tracker "
         f"passes of {m.frames} frames ({len(m.step_s)} steps each); fastest and "
         f"median of each sample set:"]
        + [f"  {key:<16} n={len(values):<4} fastest {min(values):<12.6g} "
           f"median {median(values):.6g}" for key, values in samples.items()]
        + [f"  tracker pass with each call at its fastest {tracker_s:.6g} s"])
    return metrics, m.observed, summary


def measure_traced(runner, wl, args, tally, trace_path):
    """Traced run: one traced set-up, then the pipeline in this process once
    untraced and once traced; their wall-time difference is the overhead."""
    tracer = Tracer(f"{wl.name}:{args.seed}:{os.getpid()}:{time.time_ns()}")
    with tracer.installed(), tracer.span("bench.setup"):
        runner.setup_inline(tally)
    gc.collect()
    t0 = perf_counter()
    done = runner.inline_pass(0, tally)
    untraced_s = perf_counter() - t0
    [(observed, tp)] = runner.check(0, done, tally)
    del done
    gc.collect()
    t0 = perf_counter()
    with tracer.installed(), tracer.span("bench.pass"):
        done = runner.inline_pass(1, tally)
    traced_s = perf_counter() - t0
    records = [observed, runner.check(1, done, tally)[0][0]]
    del done
    tracer.write(trace_path)

    frames, tracks = runner.baseline_inputs()
    t0 = perf_counter()
    _, baseline = evaluate.run_baseline(frames, tracks, recognizer.RecognizerConfig(), reps=1)
    baseline_s = perf_counter() - t0

    by_name, layer_self = tracer.summary()  # a span name never called reads 0
    m = {f"{layer}.self_s": s for layer, s in layer_self.items()}
    for metric in BENCHMARK["per_layer"]:
        if metric["name"].endswith(".s"):  # total time in spans of that name
            m[metric["name"]] = by_name[metric["name"][:-2]]["s"]
    batch = by_name["recognizer.classify_batch"]
    m["synth.detections"] = by_name["synth.generate"]["work"]
    m["stream_io.stream.bytes"] = observed["stream_bytes"]
    m["stream_io.tracks.bytes"] = observed["tracks_bytes"]
    m["stream_io.results.bytes"] = observed["results_bytes"]
    m["gallery.kmeans.calls"] = by_name["gallery.kmeans"]["calls"]
    m["gallery.training_samples"] = observed["training_samples"]
    m["gallery.prototypes"] = observed["prototypes"]
    m["recognizer.classify_batch.calls"] = batch["calls"]
    m["recognizer.classify_batch.rows"] = batch["work"]
    m["recognizer.classify_batch.us_per_row"] = (
        m["recognizer.classify_batch.s"] / batch["work"] * 1e6 if batch["work"] else 0.0)
    m["tracker.step.self_s"] = by_name["tracker.step"]["self_s"]
    m["tracker.frames"] = observed["frames"]
    m["tracker.detections"] = observed["detections"]
    for key in ("reused", "classified", "occluded", "unknown", "promotions",
                "demotions", "iou_pairs", "active_mean"):
        m[f"tracker.{key}"] = tp.counts[key]
    m["tracker.classify_ratio"] = observed["classify_calls"] / max(1, observed["detections"])
    m["evaluate.run_baseline.s"] = baseline_s
    m["evaluate.baseline_speedup"] = baseline.seconds_per_frame / (
        tp.seconds / len(tp.state.results))
    m["trace.overhead_pct"] = (traced_s - untraced_s) / untraced_s * 100.0
    summary = (f"traced set-up and pass, untraced pass {untraced_s:.3f} s, "
               f"traced pass {traced_s:.3f} s, baseline {baseline_s:.3f} s; "
               f"trace written to {trace_path.relative_to(ROOT)}")
    return m, records, summary


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny: small scenarios for the benchmark's own tests")
    p.add_argument("--expected", default=str(HERE / "expected"),
                   help="directory of recorded shapes and result digests")
    p.add_argument("--record", action="store_true",
                   help="store this run's shape as the expected one")
    args = p.parse_args(argv)

    wl = WORKLOADS[args.workload]
    inputs_seed = args.seed % INPUT_SEEDS
    spec = scenario(wl, args.scale, inputs_seed)
    out_dir = ROOT / ".perfbench"
    work = out_dir / f"work-{wl.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    metrics, passes, summary = {}, [], "no result"
    try:
        runner = (FilesRun if wl.files else MemoryRun)(wl, spec, work)
        if args.trace:
            trace_path = out_dir / f"trace-{wl.name}-seed{args.seed}.jsonl"
            metrics, passes, summary = measure_traced(runner, wl, args, tally, trace_path)
        else:
            metrics, passes, summary = measure(runner, wl, args, tally)
    except Exception:
        traceback.print_exc()
        tally.failed += 1
        tally.attempted += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    recorded = load_expected(args.expected, wl.name, args.scale).get(str(inputs_seed))
    for observed in passes:
        if args.record and recorded is None:
            save_expected(args.expected, wl.name, args.scale, inputs_seed, observed)
            recorded = observed
        if tally.check(recorded is not None,
                       f"no recorded shape for {wl.name} inputs seed {inputs_seed}"):
            diff = sorted(k for k in recorded.keys() | observed.keys()
                          if recorded.get(k) != observed.get(k))
            tally.check(not diff, "shape or digest differs from the record: " + ", ".join(
                f"{k} {recorded.get(k)!r} -> {observed.get(k)!r}" for k in diff))

    section = BENCHMARK["per_layer" if args.trace else "end_to_end"]
    correct = tally.failed == 0 and bool(passes)
    print(f"{wl.name} seed {args.seed} (inputs seed {inputs_seed}, {args.scale}): {summary}")
    values = {}
    for metric in section:
        value = metrics.get(metric["name"])
        values[metric["name"]] = None if value is None or value != value else value
        print(f"  {metric['name']:<40} {value if value is not None else 'missing':>16} "
              f"{metric['unit']}")
    print(f"error_rate {tally.failed}/{tally.attempted} "
          f"(failed / attempted jobs, tracker calls and output checks)")
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in section},
        "env": environment(args.seed, inputs_seed),
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
