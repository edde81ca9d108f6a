"""Smoke test of the benchmark itself: python3 -m pytest bench/test_bench.py

Runs every workload at a tiny size, untraced and traced, and checks that
each metric named in BENCHMARK.json is printed with its unit; checks that
planted wrong answers and exceptions are counted as failures, and that the
benchmark refuses to run without the program beside it.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import knotsig.diagram  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "0.5",
                 "--trace", str(trace), "--scale", "0.05")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in wanted:
        assert m["name"] in proc.stdout
    if not trace:
        assert "failed_frac" in proc.stdout and "job_samples" in proc.stdout


def test_same_seed_same_inputs():
    for name in workloads.WORKLOADS:
        first = workloads.fingerprint(*workloads.generate(name, 3, 0.1))
        assert first == workloads.fingerprint(*workloads.generate(name, 3, 0.1))
        assert first != workloads.fingerprint(*workloads.generate(name, 4, 0.1))


def _tiny_pass(tmp_path, monkeypatch, wrong_seifert):
    jobs, _ = workloads.generate("nonbraided", 1, 0.05)
    monkeypatch.setattr(knotsig.diagram, "seifert_signature", wrong_seifert)
    return jobs, worker.run_pass(jobs, tmp_path, check=True)


def test_planted_wrong_answer_fails_its_check(tmp_path, monkeypatch):
    right = knotsig.diagram.seifert_signature
    jobs, record = _tiny_pass(tmp_path, monkeypatch, lambda d: right(d) + 2)
    assert all(r["error"].startswith("check: gl") for r in record["jobs"])
    attempted, failures, _ = run.tally(jobs, [(False, record)])
    assert (attempted, dict(failures)) == (len(jobs), {"check": len(jobs)})


def test_planted_exception_is_counted_by_type(tmp_path, monkeypatch):
    def deep(d):
        raise RecursionError("maximum recursion depth exceeded")

    jobs, record = _tiny_pass(tmp_path, monkeypatch, deep)
    attempted, failures, _ = run.tally(jobs, [(False, record)])
    assert dict(failures) == {"RecursionError": len(jobs)}


def test_later_pass_must_match_checked_pass(tmp_path):
    jobs, _ = workloads.generate("nonbraided", 1, 0.05)
    first = worker.run_pass(jobs, tmp_path, check=True)
    later = json.loads(json.dumps(first))
    later["jobs"][0]["out"]["gl"] += 2
    attempted, failures, _ = run.tally(jobs, [(False, first), (False, later)])
    assert (attempted, dict(failures)) == (2 * len(jobs), {"mismatch": 1})


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "cusp", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
