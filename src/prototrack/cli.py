"""Command-line interface.

Subcommands cover the full loop: generate a synthetic benchmark, build a
prototype gallery, run the tracker or the exhaustive baseline over a
detection stream, score results against ground truth, and sweep gallery
sizes. Exit codes: 0 success, 1 usage error, 2 runtime failure (bad input
files, infeasible scenarios, I/O errors).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .errors import PipelineError
from .evaluate import pareto_front, run_baseline, score, sweep
from .gallery import (
    METHOD_KMEANS,
    METHOD_SAMPLING,
    build_gallery_kmeans,
    build_gallery_sampling,
)
from .recognizer import RecognizerConfig
from .stream_io import (
    StreamHeader,
    iter_stream,
    read_gallery,
    read_results,
    read_stream,
    read_tracks,
    read_truth,
    write_gallery,
    write_results,
    write_score_csv,
    write_score_json,
    write_stream,
    write_summary_csv,
    write_sweep_csv,
    write_tracks,
    write_truth,
)
from .synth import (
    default_train_seconds,
    generate,
    load_scenario,
    split_train_test,
)
from .tracker import NEW_FACE_POLICIES, TrackerConfig, run as run_tracker

USAGE_ERROR = 1
RUNTIME_ERROR = 2


class _Parser(argparse.ArgumentParser):
    """argparse that exits with our usage code instead of its default 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _int_list(text):
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("empty k list")
    return values


def _config(cls, args, **fixed):
    """A cls config from the flags given on the command line, plus `fixed`.

    Each tracker and recognizer flag has its config field as dest and no
    default, so a flag left out (None) takes the class default.
    """
    given = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(cls)}
    return cls(**{k: v for k, v in given.items() if v is not None}, **fixed)


def build_parser() -> _Parser:
    parser = _Parser(prog="prototrack",
                     description="Prototype-gallery face tracking toolkit.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("gen", help="generate a synthetic benchmark")
    p.add_argument("--scenario", required=True, help="scenario config file")
    p.add_argument("--out-stream", required=True, help="test detection stream (JSONL)")
    p.add_argument("--out-tracks", required=True, help="training tracks (JSON)")
    p.add_argument("--out-truth", required=True, help="ground-truth presence (JSON)")
    p.add_argument("--train-seconds", type=float, default=None,
                   help="training prefix length (default: scenario value or 80%%)")

    p = sub.add_parser("gallery", help="build a prototype gallery from tracks")
    p.add_argument("--tracks", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--method", choices=[METHOD_KMEANS, METHOD_SAMPLING],
                   default=METHOD_KMEANS)
    p.add_argument("--k", type=int, default=10,
                   help="prototypes per participant (kmeans only)")
    p.add_argument("--k-total", action="store_true",
                   help="treat --k as a total budget split across participants")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("track", help="run the tracker over a detection stream")
    p.add_argument("--stream", required=True)
    p.add_argument("--gallery", required=True)
    p.add_argument("--out", required=True, help="frame results (JSONL)")
    p.add_argument("--summary", default=None, help="optional per-label CSV")
    p.add_argument("--unknown-threshold", type=float,
                   help="distance above which a face is labeled Unknown")
    p.add_argument("--min-area", type=float,
                   help="drop detections smaller than this many square pixels")
    p.add_argument("--min-area-fraction", type=float,
                   help="drop detections smaller than this fraction of the frame")
    p.add_argument("--init-window", type=float, dest="init_window_seconds",
                   metavar="INIT_WINDOW", help="initial enrollment window, seconds")
    p.add_argument("--cap", type=int, help="continuous-appearance counter ceiling")
    p.add_argument("--min-appearances", type=int,
                   help="counter floor below which an occluded face is dropped")
    p.add_argument("--promote-ratio", type=float)
    p.add_argument("--reuse-iou", type=float,
                   help="overlap needed to reuse a label without classifying")
    p.add_argument("--new-face-policy", choices=NEW_FACE_POLICIES)

    p = sub.add_parser("baseline",
                       help="per-frame exhaustive classification, no tracking")
    p.add_argument("--stream", required=True)
    p.add_argument("--tracks", required=True, help="training tracks (JSON)")
    p.add_argument("--out", required=True, help="frame results (JSONL)")
    p.add_argument("--unknown-threshold", type=float)

    p = sub.add_parser("score", help="score results against ground truth")
    p.add_argument("--results", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--out", default=None, help="per-person accuracy CSV")
    p.add_argument("--json", dest="json_out", default=None,
                   help="full report as JSON")

    p = sub.add_parser("sweep", help="accuracy/cost across gallery sizes")
    p.add_argument("--stream", required=True)
    p.add_argument("--tracks", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--k", type=_int_list, required=True,
                   help="comma-separated prototype counts, e.g. 1,2,4,8")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="sweep CSV")
    p.add_argument("--pareto", default=None, help="optional Pareto-front CSV")
    p.add_argument("--unknown-threshold", type=float)

    return parser


def _cmd_gen(args) -> int:
    spec = load_scenario(args.scenario)
    stream = generate(spec)
    train_seconds = (args.train_seconds if args.train_seconds is not None
                     else default_train_seconds(spec))
    tracks, test = split_train_test(stream, train_seconds)
    header = StreamHeader(fps=test.fps, frame_width=test.frame_width,
                          frame_height=test.frame_height,
                          embedding_dim=test.embedding_dim)
    write_stream(args.out_stream, header, test.frames)
    write_tracks(tracks, args.out_tracks)
    write_truth(test, args.out_truth)
    print(f"wrote {len(test.frames)} test frames, "
          f"{len(tracks)} training tracks")
    return 0


def _cmd_gallery(args) -> int:
    tracks = read_tracks(args.tracks)
    if args.method == METHOD_KMEANS:
        gallery = build_gallery_kmeans(tracks, k=args.k, seed=args.seed,
                                       k_is_total=args.k_total)
    else:
        gallery = build_gallery_sampling(tracks)
    write_gallery(gallery, args.out)
    print(f"wrote gallery: {gallery.size()} prototypes, "
          f"{len(gallery.labels)} people")
    return 0


def _cmd_track(args) -> int:
    header, frames = iter_stream(args.stream)
    gallery = read_gallery(args.gallery)
    cfg = _config(TrackerConfig, args, fps=header.fps,
                  recognizer=_config(RecognizerConfig, args))
    state = run_tracker(frames, gallery, cfg, frame_area=header.frame_area)
    write_results(state.results, args.out)
    if args.summary:
        write_summary_csv(state.results, args.summary)
    print(f"tracked {len(state.results)} frames "
          f"({state.classify_calls} classification calls)")
    return 0


def _cmd_baseline(args) -> int:
    _, frames = read_stream(args.stream)
    tracks = read_tracks(args.tracks)
    cfg = _config(RecognizerConfig, args)
    results, timing = run_baseline(frames, tracks, cfg, reps=1)
    write_results(results, args.out)
    dot_products = (sum(len(r.entries) for r in results)
                    * sum(len(t.samples) for t in tracks))
    print(f"baseline over {timing.frames} frames: {dot_products} dot products, "
          f"{timing.seconds_per_frame:.6f} s/frame")
    return 0


def _cmd_score(args) -> int:
    results = read_results(args.results)
    truth = read_truth(args.truth)
    report = score(results, truth)
    if args.out:
        write_score_csv(report, args.out)
    if args.json_out:
        write_score_json(report, args.json_out)
    for label in sorted(report.per_person):
        print(f"{label}: {report.per_person[label]:.4f}")
    print(f"average: {report.average:.4f}")
    print(f"unknown_rate: {report.unknown_rate:.4f}")
    print(f"false_label_rate: {report.false_label_rate:.4f}")
    return 0


def _cmd_sweep(args) -> int:
    _, frames = read_stream(args.stream)
    tracks = read_tracks(args.tracks)
    truth = read_truth(args.truth)
    truth.frames = frames
    cfg = _config(TrackerConfig, args, fps=truth.fps,
                  recognizer=_config(RecognizerConfig, args))
    points = sweep(truth, tracks, args.k, seed=args.seed, cfg=cfg)
    write_sweep_csv(points, args.out)
    if args.pareto:
        write_sweep_csv(pareto_front(points), args.pareto)
    for p in points:
        print(f"k={p.k}: accuracy={p.accuracy:.4f} "
              f"dot_products={p.dot_products}")
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "gallery": _cmd_gallery,
    "track": _cmd_track,
    "baseline": _cmd_baseline,
    "score": _cmd_score,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        # Library precondition failures on flag values (file readers wrap
        # theirs into ParseError), so report them as usage errors.
        print(f"prototrack {args.command}: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (PipelineError, OSError) as exc:
        print(f"prototrack {args.command}: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
