"""One pass over a workload's job list in a fresh interpreter.

Usage: python3 bench/worker.py WORKDIR RESULT [--trace] [--check]

Reads WORKDIR/jobs.json, runs every job once in order, and writes RESULT as
JSON: per-job latency, output and error, the pass's wall time and peak
resident memory, and with --trace the per-layer summary. Times are scaled
to the nominal host speed of calib.py. With --check every
output is checked after the timed loop and the peak memory reading. A job
that raises, or whose output fails its check, is recorded as failed with
its exception type; the pass goes on.

Each job makes the library calls of one CLI subcommand on one input, through
module attributes looked up at call time, so that the traced pass sees the
same calls through the tracer's wrappers. Program caches start cold in each
pass, as they do in each CLI invocation.
"""

import json
import resource
import sys
import time
import warnings
from pathlib import Path

import knotsig.cli  # every submodule, so that no pass imports one while timed
from knotsig import census, diagram, geodesic, torus, twistfam

import calib


def _signature(job, workdir, tracer):
    d = diagram.parse_pd(job["pd"])
    return {"gl": diagram.gl_signature(d), "seifert": diagram.seifert_signature(d)}


def _torus_check(job, workdir, tracer):
    p, q = job["p"], job["q"]
    closed = torus.torus_signature(p, q)
    d = torus.torus_pd(p, q)
    return {"closed": closed, "gl": diagram.gl_signature(d), "seifert": diagram.seifert_signature(d)}


def _twist_verify(job, workdir, tracer):
    spec = twistfam.TwistSpec(tuple(job["base"]), tuple(tuple(r) for r in job["regions"]))
    (row,) = twistfam.family_report(spec, [tuple(job["q"])])
    return {"sigma": row.sigma, "predicted": row.predicted, "residual": row.residual}


def _census_stats(job, workdir, tracer):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows = census.ingest(workdir / job["csv"])
    if tracer is not None:
        tracer.count("census.ingest", "warnings", len(caught))
    report = census.derive(rows, 2.0, 2.0)
    agreement = census.sign_agreement(rows)
    census.emit(report, workdir / job["out"])
    return {
        "rows": len(report.rows),
        "warnings": len(caught),
        "correlation": report.correlation,
        "envelope_fraction": report.envelope_fraction,
        "sign_agreement": agreement,
    }


def _correct_slope(job, workdir, tracer):
    geos = []
    for line in job["geodesics"].splitlines():
        geos.extend(census.parse_geodesics(line))
    value = geodesic.corrected_slope_estimate(job["slope"], geos, job["epsilon"], geodesic.EPSILON_3)
    return {"value": value}


def _kappa(job, workdir, tracer):
    return {"twice": torus.kappa(job["p"], job["q"]).twice_value}


JOBS = {
    "signature": _signature,
    "torus_check": _torus_check,
    "twist_verify": _twist_verify,
    "census_stats": _census_stats,
    "correct_slope": _correct_slope,
    "kappa": _kappa,
}


def run_pass(jobs, workdir, trace=False, check=False):
    """Run the jobs once; returns the pass record described above.

    A calibration loop runs before each job and after the last; a job's
    time is scaled by the median of the six loop times nearest to it (see
    calib.py). wall_s sums the scaled job times and raw_wall_s the
    unscaled ones: the jobs run back to back, so that is the pass's wall
    time less the calibration loops."""
    workdir = Path(workdir)
    tracer = undo = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        undo = tracer.install()
    results = []
    loops = []
    try:
        for job in jobs:
            loops.append(calib.timed_loop())
            if tracer is not None:
                tracer.open("job")
            t0 = time.perf_counter()
            try:
                out, error = JOBS[job["kind"]](job, workdir, tracer), None
            except Exception as exc:  # a failed job is a result, not a crash
                out, error = None, "%s: %s" % (type(exc).__name__, str(exc)[:200])
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.close()
            results.append({"raw_ms": (t1 - t0) * 1e3, "out": out, "error": error})
        loops.append(calib.timed_loop())
    finally:
        if tracer is not None:
            tracer.uninstall(undo)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    factors = [calib.factor(loops[max(0, i - 2):i + 4]) for i in range(len(jobs))]
    for result, f in zip(results, factors):
        result["ms"] = result["raw_ms"] * f
    if check:
        import checks

        for job, result in zip(jobs, results):
            if result["error"] is None:
                try:
                    problem = checks.check(job, result["out"], workdir)
                except Exception as exc:
                    problem = "check raised %s: %s" % (type(exc).__name__, exc)
                if problem:
                    result["error"] = "check: " + problem
    wall_s = sum(r["ms"] for r in results) / 1e3
    raw_wall_s = sum(r["raw_ms"] for r in results) / 1e3
    record = {"wall_s": wall_s, "raw_wall_s": raw_wall_s, "rss_mb": rss_mb, "jobs": results}
    if tracer is not None:
        record["layers"] = tracer.summary(wall_s, factors)
    return record


def main(argv):
    workdir, result_path = Path(argv[0]), Path(argv[1])
    jobs = json.loads((workdir / "jobs.json").read_text(encoding="utf-8"))
    record = run_pass(jobs, workdir, trace="--trace" in argv, check="--check" in argv)
    result_path.write_text(json.dumps(record), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
