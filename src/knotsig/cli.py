"""Command-line front end: every computation as a subcommand.

Results go to stdout in fixed "key value" or bare-number form; warnings go
to stderr through the warnings machinery. Exit codes: 0 success, 1 domain
error, 2 usage error, 3 internal error (a `RuntimeError`, one stderr line).
"""

import argparse
import math
import sys

from . import census
from .cusp import (
    CuspShape,
    KnotGeom,
    c1_statistic,
    exceptional_window,
    g4_lower_bound,
    genus_lower_bound,
    natural_slope,
    parse_complex,
    slope_length,
)
from .diagram import gl_signature, parse_pd, seifert_signature
from .geodesic import EPSILON_3, corrected_slope_estimate, twisting_parameter
from .torus import kappa, torus_pd, torus_signature
from .twistfam import family_report, load_spec


def _read_text(path):
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _geom_from_args(args):
    cusp = CuspShape(args.longitude, parse_complex(args.meridian))
    return KnotGeom(cusp, args.volume, args.inj, args.sigma)


def _cmd_slope(args):
    cusp = CuspShape(args.longitude, parse_complex(args.meridian))
    print("%.4f" % natural_slope(cusp))


def _cmd_siglen(args):
    cusp = CuspShape(args.longitude, parse_complex(args.meridian))
    print("%.4f" % slope_length(cusp, args.p, args.q))


def _cmd_window(args):
    window = exceptional_window(args.slope, args.p)
    print("%.4f %.4f" % (window.lo, window.hi))


def _cmd_bounds(args):
    g = _geom_from_args(args)
    slope = natural_slope(g.cusp)
    c1 = args.c1 if args.c1 is not None else c1_statistic(g)
    g4 = g4_lower_bound(g, c1)  # checks c1 before anything is printed
    print("slope %.4f" % slope)
    print("genus_lb %.4f" % genus_lower_bound(slope))
    print("genus_lb_int %d" % genus_lower_bound(slope, integer=True))
    print("g4_lb %.4f" % g4)
    print("c1 %.4f" % c1)


def _cmd_signature(args):
    d = parse_pd(_read_text(args.path))
    if args.method in ("gl", "both"):
        value = gl_signature(d)
        print(value if args.method == "gl" else "gl %d" % value)
    if args.method in ("seifert", "both"):
        value = seifert_signature(d)
        print(value if args.method == "seifert" else "seifert %d" % value)


def _cmd_kappa(args):
    print(kappa(args.p, args.q))


def _cmd_torus_check(args):
    mismatches = 0
    p = 2
    while p * (p + 1) <= args.max_pq:
        for q in range(p + 1, args.max_pq // p + 1):
            if math.gcd(p, q) != 1:
                continue
            closed = torus_signature(p, q)
            d = torus_pd(p, q)
            got = (gl_signature(d), seifert_signature(d))
            if got != (closed, closed):
                mismatches += 1
                print("MISMATCH p=%d q=%d closed=%d gl=%d seifert=%d" % (p, q, closed, *got))
        p += 1
    print("OK 0 mismatches" if mismatches == 0 else "%d mismatches" % mismatches)
    return 1 if mismatches else 0


def _cmd_tw(args):
    t = twisting_parameter(complex(args.re, args.im))
    print("%d %d" % (t.p, t.q))


def _cmd_correct_slope(args):
    geos = []
    for line in _read_text(args.geodesics).splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            geos.extend(census.parse_geodesics(line))
    value = corrected_slope_estimate(args.slope, geos, args.epsilon, args.margulis)
    print("%.4f" % value)


def _cmd_twist_verify(args):
    spec, q_vectors = load_spec(sys.stdin if args.path == "-" else args.path)
    for row in family_report(spec, q_vectors):
        q_text = ",".join(str(q) for q in row.q)
        print("%s %d %d %d" % (q_text, row.sigma, row.predicted, row.residual))


def _cmd_census_stats(args):
    rows = census.ingest(sys.stdin if args.path == "-" else args.path)
    report = census.derive(rows, args.envelope_b, args.envelope_c)
    agreement = census.sign_agreement(rows)

    def show(value):
        return "n/a" if value is None else "%.4f" % value

    print("rows %d" % len(report.rows))
    print("correlation %s" % show(report.correlation))
    print("envelope_fraction %s" % show(report.envelope_fraction))
    print("sign_agreement %s" % show(agreement))
    csv_path, json_path = census.emit(report, args.out)
    print("derived_csv %s" % csv_path)
    print("plots_json %s" % json_path)


def _add_cusp_flags(sub):
    sub.add_argument("--longitude", type=float, required=True)
    sub.add_argument("--meridian", required=True, help='complex, "a+bi"')


def build_parser():
    parser = argparse.ArgumentParser(prog="knotsig")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("slope", help="natural slope of a cusp shape")
    _add_cusp_flags(sub)
    sub.set_defaults(func=_cmd_slope)

    sub = subs.add_parser("siglen", help="length of the (p,q) slope")
    _add_cusp_flags(sub)
    sub.add_argument("p", type=int)
    sub.add_argument("q", type=int)
    sub.set_defaults(func=_cmd_siglen)

    sub = subs.add_parser("window", help="window that catches exceptional slopes")
    sub.add_argument("--slope", type=float, required=True)
    sub.add_argument("--p", type=int, default=1)
    sub.set_defaults(func=_cmd_window)

    sub = subs.add_parser("bounds", help="genus and 4-genus bounds plus c1")
    _add_cusp_flags(sub)
    sub.add_argument("--volume", type=float, required=True)
    sub.add_argument("--inj", type=float, required=True)
    sub.add_argument("--sigma", type=int, required=True)
    sub.add_argument("--c1", type=float, default=None, help="override the c1 constant")
    sub.set_defaults(func=_cmd_bounds)

    sub = subs.add_parser("signature", help="signature of a diagram file")
    sub.add_argument("path", help='PD code file, or "-" for stdin')
    sub.add_argument("--method", choices=("gl", "seifert", "both"), default="both")
    sub.set_defaults(func=_cmd_signature)

    sub = subs.add_parser("kappa", help="torus correction term")
    sub.add_argument("p", type=int)
    sub.add_argument("q", type=int)
    sub.set_defaults(func=_cmd_kappa)

    sub = subs.add_parser("torus-check", help="closed form against both pipelines")
    sub.add_argument("--max-pq", type=int, required=True)
    sub.set_defaults(func=_cmd_torus_check)

    sub = subs.add_parser("tw", help="twisting parameter of a complex length")
    sub.add_argument("--re", type=float, required=True)
    sub.add_argument("--im", type=float, required=True)
    sub.set_defaults(func=_cmd_tw)

    sub = subs.add_parser("correct-slope", help="slope estimate corrected by short geodesics")
    sub.add_argument("geodesics", help='file of "re+imi:parity[:r]" lines, or "-"')
    sub.add_argument("--slope", type=float, required=True)
    sub.add_argument("--epsilon", type=float, required=True)
    sub.add_argument("--margulis", type=float, default=EPSILON_3)
    sub.set_defaults(func=_cmd_correct_slope)

    sub = subs.add_parser("twist-verify", help="signatures of a twist family against the slope prediction")
    sub.add_argument("path", help='JSON family spec, or "-" for stdin')
    sub.set_defaults(func=_cmd_twist_verify)

    sub = subs.add_parser("census-stats", help="ingest a census CSV and emit statistics")
    sub.add_argument("path", help='census CSV, or "-" for stdin')
    sub.add_argument("--out", default=".", help="output directory")
    sub.add_argument("--envelope-b", type=float, default=2.0)
    sub.add_argument("--envelope-c", type=float, default=2.0)
    sub.set_defaults(func=_cmd_census_stats)

    return parser


def _glue_meridian(argv):
    # argparse mistakes "-1.2+0.5i" for a flag; fold it into --meridian=
    out = []
    it = iter(argv)
    for tok in it:
        if tok == "--meridian":
            val = next(it, None)
            out.append(tok if val is None else "--meridian=" + val)
        else:
            out.append(tok)
    return out


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_glue_meridian(argv))
    try:
        return args.func(args) or 0
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
