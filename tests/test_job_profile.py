"""tools/job_profile.py runs the four CLI jobs on the demo scenario and
reports one row of wall time and peak RSS per job."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]


def test_job_profile_reports_every_job_on_the_demo(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "job_profile.py"),
         "--scenario", str(ROOT / "tests" / "data" / "demo_scenario.cfg"),
         "--repeat", "1", "--work", str(tmp_path)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[1].split()[:3] == ["job", "seconds", "peak_rss_mb"]
    rows = [line.split() for line in lines[2:]]
    assert [row[0] for row in rows] == ["gen", "gallery", "track", "score"]
    for _, seconds, rss in rows:
        assert float(seconds) > 0 and float(rss) > 0
    assert (tmp_path / "score.json").exists()
