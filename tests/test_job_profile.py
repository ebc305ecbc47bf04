"""tools/job_profile.py runs the four CLI jobs on the demo scenario and
reports one row of wall time and peak RSS per job, then the sha256 of each
file the jobs wrote."""

import hashlib
import importlib.util
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
    rows = [line.split() for line in lines[2:6]]
    assert [row[0] for row in rows] == ["gen", "gallery", "track", "score"]
    for _, seconds, rss in rows:
        assert float(seconds) > 0 and float(rss) > 0
    assert lines[6] == "sha256 of each output:"
    digests = [line.split() for line in lines[7:]]
    assert [name for name, _ in digests] == [
        "stream.jsonl", "tracks.json", "truth.json", "gallery.json",
        "results.jsonl", "score.json"]
    for name, digest in digests:
        assert digest == hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()


def test_job_profile_exits_1_when_a_repeat_writes_other_bytes(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("job_profile", ROOT / "tools" / "job_profile.py")
    job_profile = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(job_profile)
    first = {name: "0" * 64 for name in job_profile.OUTPUTS}
    runs = {job: [(1.0, 1.0), (1.0, 1.0)] for job in job_profile.JOBS}
    monkeypatch.setattr(job_profile, "profile", lambda scenario, work, repeat: (
        runs, [first, dict(first, **{"gallery.json": "1" * 64})]))
    assert job_profile.main(["--scenario", "x.cfg", "--repeat", "2", "--work", str(tmp_path)]) == 1
    assert "gallery.json" in capsys.readouterr().err
