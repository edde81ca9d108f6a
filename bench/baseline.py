"""Record a baseline of the benchmark and the spread of its metrics.

Usage: python3 bench/baseline.py [--seeds 101-110] [--out bench/baseline.json]

Runs every workload of BENCHMARK.json once untraced per seed, and once
traced on the first seed, each for the benchmark's run_seconds, one run at
a time. For each end-to-end metric it records the value per seed, the
median, and the spread: the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median, printed beside the
metric's bound. The file also records the program's git revision, whether
src/ had uncommitted changes, the Python version and the CPU count.
"""

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    if proc.returncode != 0:
        raise RuntimeError("%s seed %d failed: %s" % (workload, seed, proc.stderr[-2000:]))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError("%s seed %d: wrong answers\n%s" % (workload, seed, proc.stdout))
    fingerprint = next(json.loads(line[len("input "):]) for line in lines if line.startswith("input "))
    return result, fingerprint


def git(*args):
    try:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="101-110", help="first-last, inclusive")
    parser.add_argument("--out", default=str(BENCH / "baseline.json"))
    args = parser.parse_args()
    first, last = map(int, args.seeds.split("-"))
    seeds = list(range(first, last + 1))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]

    status = git("status", "--porcelain", "--", "src")
    out = {
        "program_revision": git("rev-parse", "HEAD"),
        "src_uncommitted_changes": None if status is None else bool(status),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "date": datetime.date.today().isoformat(),
        "run_seconds": seconds,
        "seeds": seeds,
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        fingerprints = {}
        attempted = failed = 0
        for seed in seeds:
            result, fingerprints[seed] = run(workload, seed, seconds, 0)
            attempted += result["attempted"]
            failed += result["failed"]
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print("%s seed %d done" % (workload, seed), file=sys.stderr, flush=True)
        traced, traced_fingerprint = run(workload, seeds[0], seconds, 1)
        out["workloads"][workload] = {
            "attempted": attempted,
            "failed": failed,
            "inputs": {str(seed): fp for seed, fp in fingerprints.items()},
            "end_to_end": {
                m["name"]: {
                    "unit": m["unit"],
                    "median": statistics.median(values[m["name"]]),
                    "spread": spread(values[m["name"]]),
                    "bound": m["bound"],
                    "values": values[m["name"]],
                }
                for m in spec["end_to_end"]
            },
            "traced_seed": seeds[0],
            "traced_inputs": traced_fingerprint,
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        }
        for m in spec["end_to_end"]:
            row = out["workloads"][workload]["end_to_end"][m["name"]]
            print("%-10s %-12s median %10.5g %-3s spread %.3f (bound %.2f)"
                  % (workload, m["name"], row["median"], m["unit"], row["spread"], m["bound"]))
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
