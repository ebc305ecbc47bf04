"""The benchmark's own tests: tiny runs of every workload pass their checks,
broken outputs fail them, and every printed metric is declared.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
WORK_DIR = ROOT / ".perfbench"

sys.path[:0] = [str(ROOT / "src"), str(HERE)]
import workload  # noqa: E402


def bench(*args):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *map(str, args)],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().split("\n")
    return proc, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", WORKLOADS)
def test_tiny_run_passes_its_checks_and_prints_declared_metrics(name, trace):
    proc, result = bench("--workload", name, "--seed", 19, "--seconds", 0,
                         "--trace", trace, "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = {m["name"]: m["unit"] for m in
                BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))


def test_changed_digest_gives_failures_and_a_nonzero_exit():
    expected = WORK_DIR / "test-expected"
    shutil.rmtree(expected, ignore_errors=True)
    shutil.copytree(HERE / "expected", expected)
    try:
        path = expected / "churn_classify.tiny.json"
        records = json.loads(path.read_text(encoding="utf-8"))
        records["3"]["results_sha256"] = "0" * 64
        path.write_text(json.dumps(records), encoding="utf-8")
        proc, result = bench("--workload", "churn_classify", "--seed", 19, "--seconds", 0,
                             "--trace", 0, "--scale", "tiny", "--expected", expected)
    finally:
        shutil.rmtree(expected, ignore_errors=True)
    assert proc.returncode != 0
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert "results_sha256" in proc.stderr


def test_corrupted_results_file_fails_its_checks():
    wl = workload.WORKLOADS["files_512d"]
    work = WORK_DIR / "test-corrupt"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = workload.FilesRun(wl, workload.scenario(wl, "tiny", 3), work)
        tally = workload.Tally()
        run.setup_inline(tally)
        calls = run.inline_pass(0, tally)
        [(good, _)] = run.check(0, calls, tally)
        assert tally.failed == 0
        recorded = workload.load_expected(HERE / "expected", wl.name, "tiny")["3"]
        assert good == recorded

        results = work / "results-0.jsonl"
        lines = results.read_text(encoding="utf-8").split("\n")
        lines[-2] = lines[-2].replace('"label":"p03"', '"label":"p04"', 1)
        results.write_text("\n".join(lines), encoding="utf-8")
        [(bad, _)] = run.check(0, calls, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    assert tally.failed >= 1
    assert bad["results_sha256"] != recorded["results_sha256"]
