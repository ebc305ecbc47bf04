"""Wall time and peak memory of each `prototrack` job on one scenario.

    python tools/job_profile.py --scenario tests/data/demo_scenario.cfg --repeat 3

Run from anywhere inside a checkout. Each repeat runs the README loop once:
`gen` on the scenario, `gallery` on its tracks, `track` on its stream and
`score` on the results, each as a `python -m prototrack` child process with
the checkout's ``src`` first on the import path and OpenBLAS, OpenMP and MKL
pinned to one thread. A job's wall time runs from spawn to reap, and its peak
RSS is the child's ``ru_maxrss`` from ``os.wait4``. The table gives the median
of each over the repeats.

The script imports only the standard library, so its own RSS stays below
every child's: Linux counts the parent's peak into a child's ``ru_maxrss`` at
fork, and a parent that had loaded numpy would set the floor of the figures.
The files go to a temporary directory unless ``--work`` names one.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parents[1] / "src"
JOBS = ("gen", "gallery", "track", "score")


def job_argvs(scenario, work):
    """The CLI arguments of each job, in the order they run."""
    stream, tracks, truth = work / "stream.jsonl", work / "tracks.json", work / "truth.json"
    gallery, results = work / "gallery.json", work / "results.jsonl"
    return {
        "gen": ["gen", "--scenario", scenario, "--out-stream", stream,
                "--out-tracks", tracks, "--out-truth", truth],
        "gallery": ["gallery", "--tracks", tracks, "--out", gallery],
        "track": ["track", "--stream", stream, "--gallery", gallery, "--out", results],
        "score": ["score", "--results", results, "--truth", truth,
                  "--json", work / "score.json"],
    }


def child_env():
    path = [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                MKL_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(path))


def run_job(argv, env):
    """(wall seconds, peak RSS in MB) of one CLI job; exits on its failure."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "prototrack", *map(str, argv)],
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            text=True, env=env)
    output = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.exit(f"prototrack {argv[0]} exited {proc.returncode}:\n{output}")
    return seconds, usage.ru_maxrss / 1024.0  # Linux reports KiB


def profile(scenario, work, repeat):
    """{job: [(seconds, rss_mb) per repeat]}."""
    env = child_env()
    runs = {job: [] for job in JOBS}
    for _ in range(repeat):
        for job, argv in job_argvs(scenario, work).items():
            runs[job].append(run_job(argv, env))
    return runs


def table(runs, repeat):
    lines = [f"{'job':<8} {'seconds':>9} {'peak_rss_mb':>12}   (median of {repeat})"]
    for job, samples in runs.items():
        seconds = statistics.median(s for s, _ in samples)
        rss = statistics.median(r for _, r in samples)
        lines.append(f"{job:<8} {seconds:>9.3f} {rss:>12.1f}")
    return "\n".join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--scenario", required=True, type=Path, help="scenario config file")
    ap.add_argument("--repeat", type=int, default=3, help="runs of the whole loop")
    ap.add_argument("--work", type=Path, default=None,
                    help="directory for the files (default: a temporary one)")
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    scenario = args.scenario.resolve()
    if args.work is not None:
        args.work.mkdir(parents=True, exist_ok=True)
        runs = profile(scenario, args.work, args.repeat)
    else:
        with tempfile.TemporaryDirectory(prefix="job_profile-") as tmp:
            runs = profile(scenario, Path(tmp), args.repeat)
    print(f"scenario: {args.scenario}")
    print(table(runs, args.repeat))
    return 0


if __name__ == "__main__":
    sys.exit(main())
