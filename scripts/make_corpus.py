"""Regenerate data/corpus.tsv: the bundled PD fixtures.

Contents:
  - every 2-bridge knot with an alternating 4-plat diagram of up to 9
    crossings (complete for this class; per-crossing class counts are
    asserted against the known tally 1,1,2,3,7,12,24),
  - a few torus braid closures beyond two bridges,
  - the (-2,3,c) pretzels, including the census knot 12n242.

Every row is validated before it is written: the two signature pipelines
must agree, and for 2-bridge rows the Goeritz determinant must equal the
fraction numerator p. Rerunning the script reproduces the file byte for
byte.
"""

import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import sympy

from diagrams import plat_closure_tuples
from knotsig.diagram import (
    DiagramCode,
    checkerboard,
    gl_signature,
    pd_text,
    seifert_signature,
)
from knotsig.torus import torus_pd, torus_signature

EXPECTED_CLASS_COUNTS = {3: 1, 4: 1, 5: 2, 6: 3, 7: 7, 8: 12, 9: 24}


def goeritz_det(d):
    g = checkerboard(d).matrix
    if g.n == 0:
        return 1
    return abs(int(sympy.Matrix(g.entries).det()))


def cf_fraction(cf):
    value = Fraction(cf[-1])
    for a in reversed(cf[:-1]):
        value = a + 1 / value
    return value


def plat_word(cf):
    # the 4-plat word wants an odd number of twist blocks; an even
    # continued fraction [.., a] rewrites as [.., a-1, 1]
    if len(cf) % 2 == 0:
        cf = list(cf[:-1]) + [cf[-1] - 1, 1]
    word = []
    for idx, a in enumerate(cf):
        word += [2 if idx % 2 == 0 else -1] * a
    return word


def two_bridge_diagram(cf):
    return DiagramCode.from_tuples(plat_closure_tuples(plat_word(cf), 4))


def canonical_q(p, q):
    q %= p
    inv = pow(q, -1, p)
    return min(q, p - q, inv, p - inv)


def compositions(total):
    """Part sequences >= 1 with first and last >= 2, in lexicographic
    order; these index the alternating 4-plat diagrams with `total`
    crossings."""
    out = []

    def extend(prefix, remaining):
        if remaining == 0:
            if prefix[-1] >= 2:
                out.append(tuple(prefix))
            return
        start = 2 if not prefix else 1
        for part in range(start, remaining + 1):
            extend(prefix + [part], remaining - part)

    extend([], total)
    return out


def enumerate_two_bridge(max_crossings=9):
    rows = []
    seen = {}
    for c in range(3, max_crossings + 1):
        fresh = 0
        for cf in compositions(c):
            frac = cf_fraction(cf)
            p, q = frac.numerator, frac.denominator
            if p % 2 == 0:
                continue  # even numerator closes up as a 2-component link
            key = (p, canonical_q(p, q))
            d = two_bridge_diagram(cf)
            det = goeritz_det(d)
            sig = gl_signature(d)
            assert det == p, (cf, det, p)
            assert seifert_signature(d) == sig, cf
            if key in seen:
                # same class reached through another fraction; the mirror
                # may flip the sign but never the magnitude
                assert abs(seen[key]) == abs(sig), (key, cf)
                continue
            seen[key] = sig
            fresh += 1
            rows.append(("b(%d,%d)" % key, d))
        assert fresh == EXPECTED_CLASS_COUNTS[c], (c, fresh)
    return rows


# Positive pretzel parameters are left-handed half twists. The convention
# is pinned by signature: with it, P(-2,3,3) and P(-2,3,5) match the torus
# closures T(3,4) and T(3,5) crossing for crossing in det and signature.
_OPPOSITE = {"NW": "SE", "SE": "NW", "NE": "SW", "SW": "NE"}
_CCW = ("NE", "NW", "SW", "SE")


def pretzel_tuples(ks):
    n = len(ks)
    if n < 1 or any(k == 0 for k in ks):
        raise ValueError("twist counts must be nonzero")
    mate = {}

    def join(e1, e2):
        assert e1 not in mate and e2 not in mate
        mate[e1] = e2
        mate[e2] = e1

    for i, k in enumerate(ks):
        for j in range(1, abs(k)):
            join((i, j, "SW"), (i, j + 1, "NW"))
            join((i, j, "SE"), (i, j + 1, "NE"))
    for i in range(n):
        i2 = (i + 1) % n
        join((i, 1, "NE"), (i2, 1, "NW"))
        join((i, abs(ks[i]), "SE"), (i2, abs(ks[i2]), "SW"))

    total = 2 * sum(abs(k) for k in ks)
    incoming = {}
    outgoing = {}
    label = 0
    cur = (0, 1, "NW")
    for _ in range(total):
        label += 1
        incoming[cur] = label
        band, slot, corner = cur
        exit_end = (band, slot, _OPPOSITE[corner])
        outgoing[exit_end] = label + 1 if label < total else 1
        cur = mate[exit_end]
    if cur != (0, 1, "NW") or len(incoming) != total:
        raise ValueError("pretzel closure is not a knot")

    tuples = []
    for i, k in enumerate(ks):
        under = ("NW", "SE") if k > 0 else ("NE", "SW")
        for j in range(1, abs(k) + 1):
            (a_corner,) = [c for c in under if (i, j, c) in incoming]
            start = _CCW.index(a_corner)
            tup = []
            for step in range(4):
                end = (i, j, _CCW[(start + step) % 4])
                tup.append(incoming.get(end) or outgoing[end])
            tuples.append(tuple(tup))
    return tuples


def pretzel_diagram(ks):
    return DiagramCode.from_tuples(pretzel_tuples(ks))


def extras():
    rows = []
    for p, q in ((3, 4), (3, 5), (4, 5)):
        d = torus_pd(p, q)
        assert gl_signature(d) == seifert_signature(d) == torus_signature(p, q)
        rows.append(("T(%d,%d)" % (p, q), d))
    for ks, want_sig, want_det in (
        ((-2, 3, 3), gl_signature(torus_pd(3, 4)), 3),
        ((-2, 3, 5), gl_signature(torus_pd(3, 5)), 1),
        ((-2, 3, 7), None, 1),
    ):
        d = pretzel_diagram(ks)
        sig = gl_signature(d)
        assert seifert_signature(d) == sig, ks
        assert goeritz_det(d) == want_det, ks
        if want_sig is not None:
            assert sig == want_sig, (ks, sig, want_sig)
        rows.append(("pretzel(%d,%d,%d)" % ks, d))
    return rows


def main():
    rows = enumerate_two_bridge() + extras()
    out = ROOT / "src" / "knotsig" / "data" / "corpus.tsv"
    out.parent.mkdir(parents=True, exist_ok=True)
    lines = ["# name<TAB>pdcode; regenerate with scripts/make_corpus.py"]
    for name, d in rows:
        lines.append("%s\t%s" % (name, pd_text(d)))
    out.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    print("wrote %s (%d diagrams)" % (out, len(rows)))
    sig12n242 = gl_signature(pretzel_diagram((-2, 3, 7)))
    print("pretzel(-2,3,7): signature %d" % sig12n242)


if __name__ == "__main__":
    main()
