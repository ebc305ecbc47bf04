"""Benchmark entry point: runs one seeded workload and prints its metrics.

    python3 perfbench/run.py --workload churn_classify --seed 1 --seconds 60 --trace 0

Run from the root of a checkout. The workload runs in a fresh child process
(workload.py) with OpenBLAS, OpenMP and MKL pinned to one thread and the
checkout's ``src`` first on the import path. That child runs the
`python -m prototrack` jobs one at a time, waiting for each, so one process
computes at any moment. --trace 0 prints the end-to-end metrics of
BENCHMARK.json, --trace 1 the per-layer ones. The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# a run that has not ended by then is killed and reported as failed
CHILD_TIMEOUT_S = 170


def git_commit():
    # only this checkout's own repository: git would otherwise search upward
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def main() -> int:
    p = argparse.ArgumentParser(
        description="Run one prototrack benchmark workload.",
        epilog="Other flags (--scale, --expected, --record) pass through to workload.py.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args, rest = p.parse_known_args()

    src = ROOT / "src"
    if not (src / "prototrack" / "__init__.py").is_file():
        print(f"perfbench: no prototrack package under {src}; run from a checkout",
              file=sys.stderr)
        return 2
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(
                   [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *rest]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)

    def stop(signum, frame):
        # the workload and its jobs run in their own session: end them too
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"perfbench: workload did not finish within {CHILD_TIMEOUT_S} s",
              file=sys.stderr)
        return 3
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(out)
        print(f"perfbench: workload exited {proc.returncode} without a result",
              file=sys.stderr)
        return proc.returncode or 4
    env_record = dict(result.pop("env"), git_commit=git_commit())
    print("\n".join(lines[:-1]))
    print("env " + json.dumps(env_record, sort_keys=True))
    print(json.dumps(result))
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
