"""Scan 3-strand twist-family bases for constant residuals.

Inserting q full twists on 3 coherently oriented strands predicts a
signature slope of -4 per twist. The residual sigma(K(q)) + 4q stays
bounded for every base, but it is constant only for some of them: pure
positive bases such as (1, 2) produce torus closures whose signatures
step by -6 and -2 in alternation, so their residuals oscillate with
period 2. This script tabulates which short bases settle down; the
acceptance suite freezes the smallest one, (1, -2).

Run: python3 scripts/residual_search.py [max_base_length]
"""

import sys
from itertools import product
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from knotsig.braid import closure_is_knot, word_strands
from knotsig.twistfam import TwistSpec, family_report

Q_RANGE = range(5, 13)


def residuals(base):
    spec = TwistSpec(base, ((len(base), 1, 3),))
    rows = family_report(spec, [(q,) for q in Q_RANGE])
    return tuple(r.residual for r in rows)


def main():
    max_len = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    constant, oscillating = [], []
    for length in range(2, max_len + 1):
        for base in product((1, -1, 2, -2), repeat=length):
            if word_strands(base) != 3 or not closure_is_knot(base):
                continue
            res = residuals(base)
            (constant if len(set(res)) == 1 else oscillating).append((base, res))
    print("q range %d..%d" % (Q_RANGE.start, Q_RANGE.stop - 1))
    print("%d bases with constant residual, %d oscillating\n" % (len(constant), len(oscillating)))
    print("constant (first 10):")
    for base, res in constant[:10]:
        print("  base %-16s residual %d" % (base, res[0]))
    print("oscillating (first 5):")
    for base, res in oscillating[:5]:
        print("  base %-16s residuals %s" % (base, list(res)))
    if constant:
        def order(item):
            return len(item[0]), [(abs(x), x < 0) for x in item[0]]

        best = min(constant, key=order)
        print("\nsmallest constant base: %s (residual %d)" % (best[0], best[1][0]))


if __name__ == "__main__":
    main()
