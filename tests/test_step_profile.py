"""tools/step_profile.py runs the tracker in process on the demo scenario
and reports, per pass, the initial window's time, the steps, the p50 and
p99 step time, the time spent classifying and finding overlap candidates,
and the garbage collections of each generation, then the scenario's
detection count and the process's peak RSS."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]


def test_step_profile_reports_every_pass_on_the_demo():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "step_profile.py"),
         "--scenario", str(ROOT / "tests" / "data" / "demo_scenario.cfg"),
         "--passes", "2"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[1].startswith("40 frames: a 20-frame initial window")
    assert lines[2].split() == ["pass", "window_us", "steps", "p50_us", "p99_us",
                                "classify_us", "overlap_us", "gc0", "gc0_ms", "gc1", "gc1_ms",
                                "gc2", "gc2_ms"]
    rows = [line.split() for line in lines[3:5]]
    assert [[row[0], row[2]] for row in rows] == [["0", "20"], ["1", "20"]]
    for row in rows:
        window, p50, p99, classify, overlap = map(float, row[1:2] + row[3:7])
        assert window > 0 and 0 < p50 <= p99
        # the demo classifies and reuses in every pass, only inside the timed calls
        assert 0 < classify < window + int(row[2]) * p99
        assert 0 < overlap < window + int(row[2]) * p99
        assert all(int(n) >= 0 and float(ms) >= 0 for n, ms in zip(row[7::2], row[8::2]))
    assert len(lines) == 6
    memory = re.fullmatch(r"305 detections in the scenario; peak RSS ([0-9.]+) MB "
                          r"after generate, ([0-9.]+) MB after the passes", lines[5])
    assert memory, lines[5]
    generated, passes = map(float, memory.groups())
    assert 0 < generated <= passes  # a peak never falls


def test_gc_log_counts_and_times_each_generation(monkeypatch):
    # loading the tool pins BLAS threads and puts src on the path: undo both after
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("step_profile", ROOT / "tools" / "step_profile.py")
    step_profile = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(step_profile)
    log = step_profile.GcLog()
    for generation in (0, 0, 2):
        log("start", {"generation": generation})
        log("stop", {"generation": generation})
    assert log.count == [2, 0, 1]
    assert log.pause[1] == 0.0 and log.pause[0] >= 0.0 and log.pause[2] >= 0.0
    assert step_profile.percentile([3.0, 1.0, 2.0, 4.0], 50) == 2.0
    assert step_profile.percentile([3.0, 1.0, 2.0, 4.0], 99) == 4.0
