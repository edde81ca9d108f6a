"""Answer checks for benchmark jobs, run after the timed loop.

Where the program's own invariants are the check (Goeritz = Seifert, census
round trips, kappa symmetries), the program is called again. Where an
independent answer is cheap, it is computed here without the program: the
twisting parameter by a numpy grid scan, kappa by one reduction rule at a
time, the twist-family prediction by its formula.
"""

import math
import warnings
from pathlib import Path

import numpy as np

from knotsig import census, torus


def twisting_by_grid(cl, tol=1e-9):
    """Lexicographically least (p, q), p even, q odd >= 1, gcd 1, that
    minimizes |cl*p + 2*pi*i*q|. (0, 1) scores 2*pi, so |p| <= 2*pi/Re(cl),
    and the imaginary part exceeds 2*pi once q > 1 + |p|/2."""
    p_max = 2 * math.ceil(math.pi / cl.real)
    ps = np.arange(-p_max, p_max + 1, 2)
    qs = np.arange(1, p_max // 2 + 3, 2)
    grid_p, grid_q = np.meshgrid(ps, qs, indexing="ij")
    values = np.abs(grid_p * cl + 2j * math.pi * grid_q)
    values[np.gcd(grid_p, grid_q) != 1] = np.inf
    ties = np.argwhere(values <= values.min() + tol)
    return min((int(ps[i]), int(qs[j])) for i, j in ties)


def twice_kappa(p, q):
    """Twice kappa(p, q) by applying one reduction rule per step."""
    if p == 0 or q == 0:
        return 0
    sign = 1
    if p < 0:
        p, sign = -p, -sign
    if q < 0:
        q, sign = -q, -sign
    offset = 0
    while True:
        if p < q:
            p, q = q, p
        elif p == q:
            return sign * (-1 if q % 2 else -2) + offset
        elif p == 2 * q:
            return -2 * sign + offset
        elif p > 2 * q:
            offset -= sign * (2 if q % 2 else 0)
            p -= 2 * q
        else:
            offset -= sign * (2 if q % 2 else 4)
            sign = -sign
            p, q = q, 2 * q - p


def _signature(job, out, workdir):
    if out["gl"] != out["seifert"]:
        return "gl %d != seifert %d" % (out["gl"], out["seifert"])


def _torus_check(job, out, workdir):
    if not out["closed"] == out["gl"] == out["seifert"]:
        return "closed %d, gl %d, seifert %d" % (out["closed"], out["gl"], out["seifert"])


def _twist_verify(job, out, workdir):
    predicted = 0
    for (_, _, ell), q in zip(job["regions"], job["q"]):
        predicted -= (ell * ell - ell % 2) * q // 2
    if out["predicted"] != predicted:
        return "predicted %d, formula gives %d" % (out["predicted"], predicted)
    if out["residual"] != out["sigma"] - predicted or out["sigma"] % 2:
        return "sigma %d, residual %d" % (out["sigma"], out["residual"])
    # the full twists close up to T(3, 3q), of signature -4q = predicted,
    # and each base letter is one band move, which moves the signature by
    # at most one
    if abs(out["residual"]) > len(job["base"]):
        return "residual %d beyond %d" % (out["residual"], len(job["base"]))


def _census_stats(job, out, workdir):
    if (out["rows"], out["warnings"]) != (job["rows"], job["warnings"]):
        return "rows, warnings %s, expected %s" % ((out["rows"], out["warnings"]), (job["rows"], job["warnings"]))
    first = Path(workdir) / job["out"]
    again = Path(workdir) / (job["out"] + "_again")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        census.emit(census.derive(census.ingest(first / "derived.csv")), again)
    for name in ("derived.csv", "plots.json"):
        if (first / name).read_bytes() != (again / name).read_bytes():
            return "%s differs after emit, ingest, emit" % name


def _correct_slope(job, out, workdir):
    correction = 0
    for item in job["geodesics"].split(";"):
        length, parity = item.split(":")
        cl = complex(length.replace("i", "j"))
        if cl.real < job["epsilon"] / 2 and parity == "odd":
            correction += twice_kappa(*twisting_by_grid(cl)) // 2
    expected = job["slope"] / 2 - correction
    if abs(out["value"] - expected) > 1e-9:
        return "corrected slope %r, grid scan gives %r" % (out["value"], expected)


def _kappa(job, out, workdir):
    p, q, twice = job["p"], job["q"], out["twice"]
    if (twice % 2 == 0) != (p * q % 2 == 0):
        return "kappa(%d, %d) = %d/2 has the wrong parity" % (p, q, twice)
    if torus.kappa(q, p).twice_value != twice:
        return "kappa(%d, %d) is not symmetric" % (p, q)
    if torus.kappa(-p, q).twice_value != -twice or torus.kappa(p, -q).twice_value != -twice:
        return "kappa(%d, %d) is not odd under a sign flip" % (p, q)


CHECKS = {
    "signature": _signature,
    "torus_check": _torus_check,
    "twist_verify": _twist_verify,
    "census_stats": _census_stats,
    "correct_slope": _correct_slope,
    "kappa": _kappa,
}


def check(job, out, workdir):
    """None when the output is right, else a one-line description."""
    return CHECKS[job["kind"]](job, out, workdir)
