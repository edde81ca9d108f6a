"""Fixed-seed benchmark for knotsig: one workload per run.

Usage:
    python3 bench/run.py --workload {nonbraided,braided,cusp} --seed N
                         --seconds S --trace {0,1} [--scale F]

Run from anywhere inside a checkout; the package is imported from its src/
directory, so nothing needs installing. The inputs are generated from the
seed (see workloads.py) and written to a bench/.work-* directory, which
is removed at the end.

Each pass runs the whole job list once, one job at a time, in a fresh
interpreter (worker.py), so program caches start cold as in a CLI
invocation. Passes repeat until the next one would end after S seconds;
there is always at least one. The first pass checks every output; each
later pass must reproduce the checked outputs exactly.

--trace 0 prints the end-to-end metrics: the median over passes of the
summed job latencies, job latency percentiles over all passes, the median
peak RSS of the workers, and the median import time of the package in
fresh interpreters. Times are scaled to a nominal host speed (calib.py);
the raw ones are printed beside them. --trace 1 alternates untraced and
traced passes and prints the per-layer metrics of the traced ones (medians
of times, counts of the first traced pass) plus the tracing overhead. Either way the last line is one JSON object with the
keys correct, attempted, failed and metrics.

--scale shrinks every workload for a quick smoke run; the benchmark proper
uses the default 1.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_IMPORTS = 41
# the whole run must end within 180 s
DEADLINE_S = 170

# prints the raw and the calibrated import time
_IMPORT_ALL = (
    "import importlib, pkgutil, sys, time\n"
    "sys.path.insert(0, %r)\n"
    "import calib\n"
    "loops = [calib.timed_loop() for _ in range(5)]\n"
    "t = time.perf_counter()\n"
    "import knotsig\n"
    "for m in pkgutil.iter_modules(knotsig.__path__):\n"
    "    if m.name != '__main__':\n"
    "        importlib.import_module('knotsig.' + m.name)\n"
    "t = time.perf_counter() - t\n"
    "loops += [calib.timed_loop() for _ in range(5)]\n"
    "print(t, t * calib.factor(loops))\n"
) % str(BENCH)

END_TO_END = {
    "wall_s": "s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _env():
    """Child environment: the package from src/, and bytecode caching on,
    as in an installed package, whatever the caller's setting."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def setup_seconds(env):
    """Median (raw, calibrated) time from a fresh interpreter to knotsig
    and every submodule imported. One untimed import first writes the
    bytecode caches, which a user's install already has."""
    raw, scaled = [], []
    for i in range(SETUP_IMPORTS + 1):
        out = subprocess.run([sys.executable, "-c", _IMPORT_ALL], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=60, check=True)
        if i:
            r, c = map(float, out.stdout.split())
            raw.append(r)
            scaled.append(c)
    return statistics.median(raw), statistics.median(scaled)


def run_worker(workdir, index, env, trace, check, timeout):
    result = workdir / ("pass_%d.json" % index)
    argv = [sys.executable, str(BENCH / "worker.py"), str(workdir), str(result)]
    argv += ["--trace"] * trace + ["--check"] * check
    proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError("worker exited with %d: %s" % (proc.returncode, proc.stderr[-2000:]))
    return json.loads(result.read_text(encoding="utf-8"))


def run_passes(jobs, workdir, env, seconds, traced, deadline):
    """Passes until the next would end after `seconds`. With `traced`
    they alternate untraced and traced, starting untraced. A worker that
    crashes or outlives `deadline` (a time.monotonic value) ends the run."""
    start = time.monotonic()
    passes = []
    while True:
        trace = traced and len(passes) % 2 == 1
        t0 = time.monotonic()
        passes.append((trace, run_worker(workdir, len(passes), env, trace, not passes, deadline - t0)))
        now = time.monotonic()
        if (now - start) + (now - t0) > seconds and (not traced or len(passes) >= 2):
            return passes


def tally(jobs, passes):
    """(attempted, failures by kind) over all passes; a later pass whose
    output differs from the checked first pass fails too."""
    checked = passes[0][1]["jobs"]
    failures = Counter()
    examples = []
    for _, record in passes:
        for job, result, first in zip(jobs, record["jobs"], checked):
            error = result["error"]
            if error is None and result["out"] != first["out"]:
                error = "mismatch: output differs from the checked pass"
            if error is not None:
                failures[error.split(":")[0]] += 1
                if len(examples) < 5:
                    examples.append("%s %s" % (job["kind"], error))
    return len(jobs) * len(passes), failures, examples


def end_to_end(passes, setup_s, key=""):
    """The metrics from calibrated times, or with key="raw_" from raw ones."""
    latencies = [j[key + "ms"] for _, r in passes for j in r["jobs"]]
    return {
        "wall_s": statistics.median(r[key + "wall_s"] for _, r in passes),
        "job_p50_ms": statistics.median(latencies),
        "job_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8],
        "peak_rss_mb": statistics.median(r["rss_mb"] for _, r in passes),
        "setup_s": setup_s,
    }


def per_layer(passes):
    plain = [r for trace, r in passes if not trace]
    traced = [r for trace, r in passes if trace]
    first = traced[0]["layers"]
    out = {}
    for name, value in first.items():
        if name.endswith("_s") or name == "trace.coverage":
            value = statistics.median(r["layers"][name] for r in traced)
        out[name] = value
    out["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                               - statistics.median(r["wall_s"] for r in plain))
    return out


def unit(name):
    if name.endswith("_s"):
        return "s"
    if name == "trace.coverage":
        return "ratio"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "knotsig" / "__init__.py").is_file():
        sys.exit("error: %s holds no src/knotsig package to benchmark" % ROOT)
    env = _env()
    setup_s = setup_seconds(env) if not args.trace else None
    jobs, files = workloads.generate(args.workload, args.seed, args.scale)
    fingerprint = workloads.fingerprint(jobs, files)
    workdir = BENCH / (".work-%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    workdir.mkdir()
    try:
        for name, text in files.items():
            (workdir / name).write_text(text, encoding="utf-8")
        (workdir / "jobs.json").write_text(json.dumps(jobs), encoding="utf-8")
        passes = run_passes(jobs, workdir, env, args.seconds, bool(args.trace), deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failures, examples = tally(jobs, passes)
    failed = sum(failures.values())
    print("workload %s seed %d trace %d passes %d" % (args.workload, args.seed, args.trace, len(passes)))
    print("pass walls %s (T: traced)" % " ".join("%s%.3f" % ("T" * t, r["wall_s"]) for t, r in passes))
    if args.trace:
        metrics = per_layer(passes)
        fingerprint["vogel_moves"] = metrics["diagram.braid_word.vogel_moves"]
        fingerprint["dim_max"] = metrics["exactlin.inertia.dim_max"]
    else:
        metrics = end_to_end(passes, setup_s[1])
        raw = end_to_end(passes, setup_s[0], "raw_")
    print("input %s" % json.dumps(fingerprint, sort_keys=True))
    for name, value in metrics.items():
        line = "%-40s %14.6g %s" % (name, value, END_TO_END.get(name) or unit(name))
        if not args.trace and name != "peak_rss_mb":
            line += "   (raw %.6g)" % raw[name]
        print(line)
    if not args.trace:
        print("%-40s %14d count" % ("job_samples", attempted))
        print("%-40s %14.6g ratio" % ("failed_frac", failed / attempted))
    if failures:
        print("failures %s" % json.dumps(dict(failures), sort_keys=True))
        for line in examples:
            print("  " + line)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": END_TO_END.get(name) or unit(name)}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
