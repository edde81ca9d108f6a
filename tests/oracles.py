"""Independent oracles used by the test suite only.

Nothing here calls back into the package's signature code paths: eigenvalue
sign counts come from the characteristic polynomial (sympy, exact) plus a
hand-rolled Sturm chain over Fractions, the package's former dense
elimination is kept as a second inertia reference and its former sparse
elimination, with one pivot stamp per row, as the reference for the pivot
sequence, the twisting parameter is found by a numpy grid scan and by an
exact scan of lines of fixed q, and the package's former lattice search
(every Gram product through a nested dot) is kept as its reference, the
torus correction term is recomputed one reduction rule at a time with no
closed-form shortcuts, the diagram geometry is rebuilt by the package's
former dict-based walk, and
the package's former trace closure (label every edge, then merge and
rename), Goeritz form (counters keyed by face) and braid Seifert matrix
(dense, every loop against every loop of the next generator) are kept as
references, and so is the former census ingest (one dict per row from
`csv.DictReader`, one warnings capture per row) and emit (`csv.writer`,
one row at a time, and the former geodesics text, a format per part).
"""

import contextlib
import csv
import math
import warnings
from collections import Counter, defaultdict
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import chain
from pathlib import Path

import numpy as np
import sympy

from knotsig.braid import closure_is_knot, word_strands
from knotsig.census import (
    _COLUMNS,
    _DERIVED_COLUMNS,
    CensusFormatError,
    CensusRow,
    _plots_json,
    parse_geodesics,
)
from knotsig.cusp import GeometryWarning
from knotsig.diagram import (
    ArcMultiplicityError,
    DiagramCode,
    GoeritzData,
    MultiComponentError,
    PDSyntaxError,
    pd_text,
    relabel_tuples,
)
from knotsig.exactlin import SymIntMatrix
from knotsig.geodesic import _TWO_PI, TwistParam, _validate_length


def brute_force_twisting(cl, tol=1e-9):
    """Lex-least minimizer of |cl*p + 2*pi*i*q| over even p, odd q >= 1,
    gcd 1, searched on a grid twice as wide as the library's own bound."""
    two_pi = 2 * math.pi
    pb = 2 * math.ceil(two_pi / cl.real)
    pb += pb % 2
    qb_max = 2 * math.ceil((pb * math.pi + two_pi) / two_pi)
    ps = np.arange(-pb, pb + 1, 2)
    qs = np.arange(1, qb_max + 1, 2)
    grid_p, grid_q = np.meshgrid(ps, qs, indexing="ij")
    q_bound = 2 * np.ceil((np.abs(ps) * math.pi + two_pi) / two_pi)
    valid = (grid_q <= q_bound[:, None]) & (np.gcd(grid_p, grid_q) == 1)
    values = np.abs(grid_p * cl + 1j * two_pi * grid_q)
    values = np.where(valid, values, np.inf)
    ties = np.argwhere(values <= values.min() + tol)
    return min((int(ps[i]), int(qs[j])) for i, j in ties)


class ExactLength:
    """The exact values a, b, 2*pi of the floats cl.real, cl.imag and
    2 * math.pi, for Fraction norms |cl*p + 2*pi*i*q|**2."""

    def __init__(self, cl):
        self.a, self.b = Fraction(cl.real), Fraction(cl.imag)
        self.two_pi = Fraction(2 * math.pi)

    def norm(self, p, q):
        return (p * self.a) ** 2 + (p * self.b + q * self.two_pi) ** 2

    def line_candidates(self, q):
        """The two even p around the real minimizer -2*pi*q*b / (a**2 + b**2)
        along the line of fixed q: the norm is a convex quadratic in p, so
        one of them is least among even p."""
        centre = -self.two_pi * q * self.b / (self.a ** 2 + self.b ** 2)
        lo = 2 * math.floor(centre / 2)
        return (lo, lo + 2)


def line_scan_twisting(cl):
    """Least (norm, p, q) over even p, odd q >= 1, gcd 1, with exact
    Fraction norms. (0, 1) scores 2*pi, so a winner has |p| <= 2*pi/Re and
    q <= 1 + pi/Re; each line of fixed odd q contributes the two even p
    around its own minimum. Costs O(1/Re) lines."""
    exact = ExactLength(cl)
    best = None
    for q in range(1, math.ceil(math.pi / cl.real) + 2, 2):
        for p in exact.line_candidates(q):
            if math.gcd(p, q) == 1:
                key = (exact.norm(p, q), p, q)
                if best is None or key < best:
                    best = key
    return best[1:]


# geodesic.twisting_parameter as it was when its reduction recomputed every
# Gram product through a nested dot, with its rounding helper
def twisting_reference(cl):
    """The (p, q) minimizing |cl*p + 2*pi*i*q| subject to the TwistParam
    constraints; among exactly equal norms, the least p, then the least q.

    cl.real, cl.imag and the float 2*pi are binary rationals, so over one
    common denominator they are integers A, B, T and the squared norm of
    (p, q) is the integer (p*A)**2 + (p*B + q*T)**2: every comparison is
    exact. The admissible points (p even, q odd) form the coset
    (0, 1) + 2Z^2 of (p, q) coefficients. Gauss-Lagrange reduction of the
    basis (2, 0), (0, 2) under this norm gives a basis b1, b2 with b1
    shortest, and the coset splits into lines (0, 1) + j*b2 + Z*b1. Lines
    are scanned outward from the one nearest the origin, until a line's
    distance alone exceeds the best norm; the norm is convex along a line,
    so only the two integers around its minimum are tried. A non-coprime
    candidate d*w (d odd, at least 3) never wins: w is admissible too and
    shorter, so no gcd test is needed."""
    _validate_length(cl)
    ratios = [x.as_integer_ratio() for x in (cl.real, cl.imag, _TWO_PI)]
    den = math.lcm(*(d for _, d in ratios))
    A, B, T = (n * (den // d) for n, d in ratios)
    g11, g12, g22 = A * A + B * B, B * T, T * T

    def dot(u, v):
        return (u[0] * v[0] * g11 + (u[0] * v[1] + u[1] * v[0]) * g12
                + u[1] * v[1] * g22)

    b1, b2 = (2, 0), (0, 2)
    n1, n2 = dot(b1, b1), dot(b2, b2)
    while True:
        if n2 < n1:
            b1, b2, n1, n2 = b2, b1, n2, n1
        k = _nearest(dot(b1, b2), n1)
        if k == 0:
            break
        b2 = (b2[0] - k * b1[0], b2[1] - k * b1[1])
        n2 = dot(b2, b2)
    m12 = dot(b1, b2)
    det = n1 * n2 - m12 * m12
    # line j = {(0, 1) + j*b2 + i*b1}: its squared distance from the origin
    # is (s + j*det)**2 / (n1*det)
    x1, x2 = dot((0, 1), b1), dot((0, 1), b2)
    s = x2 * n1 - m12 * x1
    j0 = _nearest(-s, det)
    best = None
    for j, step in ((j0, 1), (j0 - 1, -1)):
        while best is None or (s + j * det) ** 2 <= best[0] * n1 * det:
            # the norm along the line is least at i = -(x1 + j*m12) / n1
            i0 = -(x1 + j * m12) // n1
            for i in (i0, i0 + 1):
                p, q = j * b2[0] + i * b1[0], 1 + j * b2[1] + i * b1[1]
                if q < 0:
                    p, q = -p, -q
                key = ((p * A) ** 2 + (p * B + q * T) ** 2, p, q)
                if best is None or key < best:
                    best = key
            j += step
    return TwistParam(best[1], best[2])


def _nearest(x, n):
    """The integer nearest x/n (n > 0), halves rounded up."""
    return (2 * x + n) // (2 * n)


def plain_kappa(p, q, max_steps=10**7):
    """The torus correction term by literal rule-at-a-time reduction,
    tracking value = sign * kappa(current) + offset through the loop."""
    if p == 0 or q == 0:
        return Fraction(0)
    sign = Fraction(1)
    if p < 0:
        p, sign = -p, -sign
    if q < 0:
        q, sign = -q, -sign
    offset = Fraction(0)
    for _ in range(max_steps):
        if p < q:
            p, q = q, p
        elif p == q:
            base = Fraction(-1, 2) if q % 2 else Fraction(-1)
            return sign * base + offset
        elif p == 2 * q:
            return sign * Fraction(-1) + offset
        elif p > 2 * q:
            if q % 2:
                offset -= sign
            p = p - 2 * q
        else:
            offset -= sign * (1 if q % 2 else 2)
            sign = -sign
            p, q = q, 2 * q - p
    raise RuntimeError("reduction did not terminate in %d steps" % max_steps)


def _sturm_chain(coeffs):
    # coeffs: list of Fractions, highest degree first, nonzero leading coeff.
    def trim(p):
        i = 0
        while i < len(p) and p[i] == 0:
            i += 1
        return p[i:]

    def deriv(p):
        n = len(p) - 1
        return [c * (n - i) for i, c in enumerate(p[:-1])]

    def polyrem(num, den):
        num = list(num)
        while len(num) >= len(den) and trim(num):
            num = trim(num)
            if len(num) < len(den):
                break
            q = num[0] / den[0]
            for i in range(len(den)):
                num[i] -= q * den[i]
            num = num[1:]
        return trim(num)

    chain = [trim(coeffs)]
    d = trim(deriv(chain[0]))
    if d:
        chain.append(d)
        while len(chain[-1]) > 1:
            r = polyrem(chain[-2], chain[-1])
            if not r:
                break
            chain.append([-c for c in r])
    return chain


def _variations(signs):
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def _sign_at_zero(p):
    return 0 if p[-1] == 0 else (1 if p[-1] > 0 else -1)


def _sign_at_inf(p, positive):
    lead = p[0]
    if positive:
        return 1 if lead > 0 else -1
    return (1 if lead > 0 else -1) * (1 if (len(p) - 1) % 2 == 0 else -1)


def sturm_root_counts(coeffs):
    """(#roots > 0, #roots < 0) of a square-free integer polynomial with
    nonzero constant term, counted via Sturm's theorem."""
    chain = _sturm_chain([Fraction(c) for c in coeffs])
    v_neg_inf = _variations([_sign_at_inf(p, positive=False) for p in chain])
    v_zero = _variations([_sign_at_zero(p) for p in chain])
    v_pos_inf = _variations([_sign_at_inf(p, positive=True) for p in chain])
    return v_zero - v_pos_inf, v_neg_inf - v_zero


def inertia_by_charpoly(rows):
    """Eigenvalue sign counts of a symmetric integer matrix, from the exact
    characteristic polynomial: zero multiplicity by trailing-coefficient
    valuation, nonzero signs by Sturm counts on the square-free factors."""
    n = len(rows)
    if n == 0:
        return (0, 0, 0)
    x = sympy.Symbol("x")
    poly = sympy.Matrix(rows).charpoly(x)
    coeffs = [int(c) for c in poly.all_coeffs()]
    n_zero = 0
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
        n_zero += 1
    n_pos = n_neg = 0
    if len(coeffs) > 1:
        _, factors = sympy.Poly(coeffs, x).sqf_list()
        for factor, mult in factors:
            fc = [int(c) for c in factor.all_coeffs()]
            if len(fc) == 1:
                continue
            pos, neg = sturm_root_counts(fc)
            n_pos += mult * pos
            n_neg += mult * neg
    return (n_pos, n_neg, n_zero)


def _swap_sym(a, i, j):
    a[i], a[j] = a[j], a[i]
    for row in a:
        row[i], row[j] = row[j], row[i]


def _add_sym(a, i, j):
    # row i += row j, then col i += col j; a[i][i] becomes 2*a[i][j] when
    # both diagonals are zero.
    n = len(a)
    for t in range(n):
        a[i][t] += a[j][t]
    for t in range(n):
        a[t][i] += a[t][j]


def inertia_dense_reference(rows):
    """(n_pos, n_neg, n_zero) of a symmetric integer matrix by dense
    congruence diagonalization, the package's elimination before it became
    fraction-free: rows are scaled by p/gcd(p, f) and never divided back,
    so entries grow without bound, but every step is a plain congruence.

    Zero diagonal pivots are repaired by a row/column swap with a later
    nonzero diagonal, or failing that by the symmetric combination
    row_i += row_j (which makes the pivot 2*a[i][j] because all remaining
    diagonal entries are then zero).
    """
    a = [list(row) for row in rows]
    n = len(a)
    n_pos = n_neg = n_zero = 0
    for k in range(n):
        if a[k][k] == 0:
            piv = next((j for j in range(k + 1, n) if a[j][j] != 0), None)
            if piv is not None:
                _swap_sym(a, k, piv)
            else:
                j = next((j for j in range(k + 1, n) if a[k][j] != 0), None)
                if j is None:
                    n_zero += 1
                    continue
                _add_sym(a, k, j)
        p = a[k][k]
        if p > 0:
            n_pos += 1
        else:
            n_neg += 1
        for i in range(k + 1, n):
            f = a[i][k]
            if f == 0:
                continue
            g = math.gcd(p, f)
            c, s = p // g, f // g
            if c < 0:
                c, s = -c, -s
            for j in range(k, n):
                a[i][j] = c * a[i][j] - s * a[k][j]
            for j in range(k, n):
                a[j][i] = c * a[j][i] - s * a[j][k]
    return (n_pos, n_neg, n_zero)


def pivots_reference(rows):
    """The package's former `exactlin._pivots`, with one pivot stamp per
    row rather than per entry, kept as the reference for the pivot
    sequence; its key and repair follow the present rule, and its key is
    a plain tuple, so a fault in `_pivots`' one-int heap entries shows as
    another pivot sequence.

    Yield the Bareiss pivots d_1, d_2, ... of the symmetric integer
    matrix with the stored rows `rows` (see `SymIntMatrix`), in
    elimination order; there is one per nonzero eigenvalue.

    d_t is the principal minor of the input (after the repairs below)
    on the first t pivot indices, so the t-th LDL^T pivot is
    d_t / d_{t-1}, with d_0 = 1.  Each row is copied into a dict of its
    nonzeros, which the elimination rewrites.
    Eliminating pivot k with value p rewrites each row i that meets
    column k as a_ij <- (p a_ij - a_ik a_kj) // prev, prev the previous
    pivot; by Sylvester's identity the result is again a minor, so the
    division is exact.  A row that column k misses would only be scaled
    by p / prev: it is left as it is, with the pivot count at which it
    was last rewritten, and scaled by d_now / d_then (exactly, as its
    entries are minors too) when it is next read.

    Every non-empty row waits in one heap under the key (weight, zero
    diagonal, index), where the weight is the degree, times 4 when the
    diagonal is zero; any symmetric order is a congruence.  A key that
    no longer equals its row's key is stale and skipped.  A zero-diagonal
    pivot k gets e times row and column j added, for the neighbour j of
    k of least degree and e = -1 if 2 a_kj + a_jj = 0, else +1, which
    makes the pivot 2 e a_kj + a_jj != 0; row k is pivoted at once, so
    each row of the accumulated transform has at most two nonzeros, both
    +-1, and each transformed entry is a signed sum of at most four
    input entries.
    Rows that become empty are zero eigenvalues and yield nothing.
    """
    n = len(rows)
    a = [dict(row) for row in rows]
    seen = [0] * n
    d = [1]

    def key(i):
        row = a[i]
        zero = i not in row
        return (4 * len(row) if zero else len(row), zero, i)

    heap = [key(i) for i, row in enumerate(a) if row]
    heapify(heap)

    def fresh(i):
        row, s, t = a[i], seen[i], len(d) - 1
        if s != t:
            num, den = d[t], d[s]
            for j, x in row.items():
                row[j] = x * num // den
            seen[i] = t
        return row

    while heap:
        entry = heappop(heap)
        k = entry[2]
        if key(k) != entry:
            continue
        row_k = fresh(k)
        if entry[1]:
            _, j = min((len(a[i]), i) for i in row_k)
            row_j = fresh(j)
            f, y = row_k[j], row_j.get(j, 0)
            e = -1 if 2 * f + y == 0 else 1
            row_k[k] = 2 * e * f + y
            for m, y in list(row_j.items()):
                if m != k:
                    x = row_k.get(m, 0) + e * y
                    if x:
                        row_k[m] = x
                    else:
                        del row_k[m]
                    row_m = a[m]
                    x = row_m.get(k, 0) + e * row_m[j]
                    if x:
                        row_m[k] = x
                    else:
                        del row_m[k]
                        heappush(heap, key(m))
        p = row_k.pop(k)
        prev = d[-1]
        for i, f in row_k.items():
            row_i = fresh(i)
            del row_i[k]
            new = {j: p * x for j, x in row_i.items()}
            for j, y in row_k.items():
                new[j] = new.get(j, 0) - f * y
            a[i] = row_i = {j: x // prev for j, x in new.items() if x}
            seen[i] = len(d)
            if row_i:
                heappush(heap, key(i))
        a[k] = {}
        d.append(p)
        yield p


def geometry_reference(tuples):
    """The package's former geometry of a code: its label checks (every
    label at two ends, then exactly 1..2n), then the walk, faces and
    circles on tuple-keyed dicts. Incidences are (crossing, slot) pairs
    and arcs are keyed by label."""
    tuples = tuple(map(tuple, tuples))
    labels, top = _validate_labels(tuples), 2 * len(tuples)
    if len(labels) != top or not all(
        isinstance(e, int) and 0 < e <= top for e in labels
    ):
        raise PDSyntaxError("arc labels are not exactly 1..%d" % top)
    return GeometryReference(tuples)


def _validate_labels(tuples):
    """The labels of `tuples`, each of which must end exactly two arcs."""
    counts = Counter(chain.from_iterable(tuples))
    bad = sorted(e for e, k in counts.items() if k != 2)
    if bad:
        raise ArcMultiplicityError("arc labels without exactly two ends: %s" % bad)
    return counts


class GeometryReference:
    """What one walk along the strand of a code determines: the strict
    tuples and crossing signs, the direction of every arc, the faces of
    the rotation system and the circles of the oriented smoothing. Built
    once per code, by `DiagramCode`, and once per Vogel move; the walk and
    the face count raise a `ValueError` subclass when the tuples are not a
    planar knot diagram. The circles and the crossings alone give the
    circle order of a braided diagram (`braided_path`)."""

    def __init__(self, tuples):
        self.n = len(tuples)
        if self.n == 0:
            self.tuples, self.signs = (), ()
            return
        self._walk(tuples)
        self._faces()
        self._circles()

    def _walk(self, tuples):
        # Follow the strand from the outgoing under-slot of crossing 0,
        # checking under-strand directions and reading off crossing signs.
        n = self.n
        incid = self.incid = defaultdict(list)
        for c, t in enumerate(tuples):
            for s, e in enumerate(t):
                incid[e].append((c, s))
        over_seen = set()
        head = self.head = {}
        tail = self.tail = {tuples[0][2]: (0, 2)}
        cur_edge, departure = tuples[0][2], (0, 2)
        walked = 0
        while True:
            pair = incid[cur_edge]
            arr = pair[1] if pair[0] == departure else pair[0]
            head[cur_edge] = arr
            c, s = arr
            if s == 2:
                raise PDSyntaxError(
                    "under-strand enters crossing %d at its outgoing slot" % c
                )
            if s != 0:
                if c in over_seen:
                    raise MultiComponentError("strand revisits crossing %d" % c)
                over_seen.add(c)
            walked += 1
            departure = (c, (s + 2) % 4)
            if departure == (0, 2):
                break
            cur_edge = tuples[c][departure[1]]
            tail[cur_edge] = departure
            if walked > 2 * n:
                raise MultiComponentError("strand walk does not close properly")
        if walked < 2 * n:
            raise MultiComponentError(
                "closed strand covers %d of %d arcs" % (walked, 2 * n)
            )
        self.tuples = tuple(tuples)
        # positive exactly when the over-strand enters at slot d
        self.signs = tuple(
            1 if head[t[3]] == (c, 3) else -1 for c, t in enumerate(tuples)
        )

    def _faces(self):
        # a directed arc is named by the incidence (crossing, slot) it
        # arrives at; the face traversal exits at the next slot
        # counterclockwise, keeping one fixed side of the arc, so
        # face_of[c, k] is the face at the corner between slots k and k+1
        self.face_of = {}
        self.faces = []
        for c0 in range(self.n):
            for s0 in range(4):
                if (c0, s0) in self.face_of:
                    continue
                orbit = []
                cur = (c0, s0)
                while cur not in self.face_of:
                    self.face_of[cur] = len(self.faces)
                    orbit.append(cur)
                    c, s = cur
                    out_slot = (s + 1) % 4
                    e = self.tuples[c][out_slot]
                    pair = self.incid[e]
                    cur = pair[1] if pair[0] == (c, out_slot) else pair[0]
                self.faces.append(orbit)
        if len(self.faces) != self.n + 2:
            raise PDSyntaxError(
                "rotation system has %d faces, need %d: not a planar knot diagram"
                % (len(self.faces), self.n + 2)
            )

    def _circles(self):
        # oriented smoothing: each arc's successor around its Seifert circle
        succ = {}
        succ_crossing = {}
        for c, (t, sg) in enumerate(zip(self.tuples, self.signs)):
            a, b, cc, dd = t
            if sg > 0:
                pairs = ((a, b), (dd, cc))
            else:
                pairs = ((a, dd), (b, cc))
            for e_in, e_out in pairs:
                succ[e_in] = e_out
                succ_crossing[e_in] = c
        self.succ = succ
        self.succ_crossing = succ_crossing
        circles = []
        circle_of = {}
        for e0 in sorted(succ):
            if e0 in circle_of:
                continue
            cyc = []
            e = e0
            while e not in circle_of:
                circle_of[e] = len(circles)
                cyc.append(e)
                e = succ[e]
            circles.append(cyc)
        self.circles = circles
        self.circle_of = circle_of

    def braided_path(self):
        """Circle order of a braided diagram, read off its Seifert graph
        (circles as vertices, crossings as edges), which is then a path.
        The walk starts at the end whose outside face, the one face whose
        arcs all lie on that circle, comes first in face order. Only a
        diagram without a defect is asked, so a failed check here is a
        fault of this module."""
        nbrs = defaultdict(set)
        for c, t in enumerate(self.tuples):
            ks = {self.circle_of[e] for e in t}
            if len(ks) != 2:
                raise RuntimeError("crossing %d does not join two circles" % c)
            k1, k2 = ks
            nbrs[k1].add(k2)
            nbrs[k2].add(k1)
        outside = []
        for orbit in self.faces:
            ks = {self.circle_of[self.tuples[c][s]] for c, s in orbit}
            if len(ks) == 1:
                outside.extend(ks)
        if len(outside) != 2:
            raise RuntimeError("%d faces lie on one circle, need 2" % len(outside))
        order = [outside[0]]
        while len(order) < len(self.circles):
            step = nbrs[order[-1]].difference(order[-2:])
            if len(step) != 1:
                break
            order.extend(step)
        if len(set(order)) != len(self.circles) or order[-1] != outside[1]:
            raise RuntimeError("Seifert graph is not a path between the outside faces")
        return order

    def defect(self):
        """Two arcs of one face, on distinct circles, with the face on the
        same side of both; present exactly when the diagram is not braided.
        Returns (arc_a, arc_b, side) with arc_a < arc_b."""
        for f, orbit in enumerate(self.faces):
            entries = []
            for (c, s) in orbit:
                e = self.tuples[c][s]
                side = 1 if self.head[e] == (c, s) else 0
                entries.append((side, self.circle_of[e], e))
            entries.sort()
            for i in range(len(entries) - 1):
                s1, k1, e1 = entries[i]
                s2, k2, e2 = entries[i + 1]
                if s1 == s2 and k1 != k2:
                    return min(e1, e2), max(e1, e2), s1
        return None


def letter_tuples(word, strands):
    """Crossing tuples for the open braid, all strands upward; returns the
    tuples and the edge ids across the top. Edges 1..strands enter at the
    bottom, two fresh edges are created per letter (top-left, top-right)."""
    cur = list(range(1, strands + 1))
    next_edge = strands + 1
    tuples = []
    for letter in word:
        i = abs(letter) - 1
        left, right = cur[i], cur[i + 1]
        top_left, top_right = next_edge, next_edge + 1
        next_edge += 2
        if letter > 0:
            # under-strand right -> top-left, over-strand left -> top-right
            tuples.append((right, top_right, top_left, left))
        else:
            # under-strand left -> top-right, over-strand right -> top-left
            tuples.append((left, right, top_right, top_left))
        cur[i], cur[i + 1] = top_left, top_right
    return tuples, cur


def trace_closure_reference(word):
    """The package's former trace closure: the open braid's tuples, each
    top edge merged into the bottom edge of its position, then every label
    renamed in order to 1..2n."""
    if not closure_is_knot(word):
        raise ValueError("closure is not a knot (multiple components)")
    if not word:
        return []
    tuples, top = letter_tuples(word, word_strands(word))
    merged = {e: j + 1 for j, e in enumerate(top)}
    out = [tuple(merged.get(e, e) for e in t) for t in tuples]
    return relabel_tuples(out)


def checkerboard_reference(d):
    """The package's former Goeritz form: faces coloured along the walk in
    walk order, the off-diagonal entries summed in a Counter per face and
    each crossing's white corners listed."""
    g = d._geom
    if g.n == 0:
        return GoeritzData(SymIntMatrix([]), 0)
    face_of = g.face_of
    faces = max(face_of) + 1
    colour = [0] * faces
    for i, a in enumerate(g.walk):
        colour[face_of[(a & ~3) | ((a - 1) & 3)]] = i % 2
        colour[face_of[a]] = 1 - i % 2
    outer = face_of[0]
    white = colour[outer]
    whites = [f for f in range(faces) if colour[f] == white and f != outer]
    windex = {f: i for i, f in enumerate(whites)}
    off = defaultdict(Counter)
    correction = 0
    for c in range(d.n):
        corners = face_of[4 * c:4 * c + 4]
        ks = [k for k in range(4) if colour[corners[k]] == white]
        if ks == [0, 2]:
            orient = 1
        elif ks == [1, 3]:
            orient = -1
        else:
            raise PDSyntaxError("crossing %d lacks a diagonal white pair" % c)
        if g.signs[c] == orient:
            correction -= orient
        fi, fj = corners[ks[0]], corners[ks[1]]
        if fi != fj:
            off[fi][fj] -= orient
            off[fj][fi] -= orient
    rows = []
    for f in whites:
        row = {windex[h]: x for h, x in off[f].items() if h != outer}
        row[windex[f]] = -sum(off[f].values())
        rows.append(row)
    return GoeritzData(SymIntMatrix.from_nonzeros(rows), correction)


def collins_reference(word):
    """The package's former Seifert matrix of the braid's trace closure,
    dense, as a list of rows.

    Basis: for each generator index, the loops through consecutive pairs of
    its bands (occurrences in the word). Entry rules follow the two-bridge
    interaction table for braid-closure Seifert surfaces: a loop over bands
    of equal handedness contributes -1 (both positive) or +1 (both
    negative) on the diagonal; consecutive loops sharing a band contribute
    a single one-sided unit entry; loops on neighbouring generators
    contribute a unit entry when their band positions interleave.
    """
    occurrences = [[] for _ in range(word_strands(word) - 1)]
    for pos, letter in enumerate(word):
        occurrences[abs(letter) - 1].append((pos, letter < 0))
    loops_by_gen = []
    for occ in occurrences:
        loops_by_gen.append(
            [(occ[i][0], occ[i + 1][0], occ[i][1], occ[i + 1][1]) for i in range(len(occ) - 1)]
        )
    index = {}
    total = 0
    for k, loops in enumerate(loops_by_gen):
        for m in range(len(loops)):
            index[k, m] = total
            total += 1
    v = [[0] * total for _ in range(total)]
    for k, loops in enumerate(loops_by_gen):
        for m, (p0, p1, neg0, neg1) in enumerate(loops):
            if neg0 == neg1:
                v[index[k, m]][index[k, m]] = 1 if neg0 else -1
        for m in range(len(loops) - 1):
            if not loops[m][3]:  # shared band is a positive crossing
                v[index[k, m + 1]][index[k, m]] = 1
            else:
                v[index[k, m]][index[k, m + 1]] = -1
        if k + 1 < len(loops_by_gen):
            for m, g in enumerate(loops):
                for l, h in enumerate(loops_by_gen[k + 1]):
                    if h[0] < g[0] < h[1] < g[1]:
                        v[index[k + 1, l]][index[k, m]] = 1
                    elif g[0] < h[0] < g[1] < h[1]:
                        v[index[k + 1, l]][index[k, m]] = -1
    return v


def dense(rows):
    """The dense list of rows of a matrix given as rows of nonzeros."""
    out = [[0] * len(rows) for _ in rows]
    for i, row in enumerate(rows):
        for j, x in row.items():
            out[i][j] = x
    return out


# census.ingest and its row parser as they were when every row was read as
# a DictReader dict under its own warnings capture
def _parse_row_reference(rec):
    name = (rec["name"] or "").strip()
    if not name:
        raise ValueError("empty name")
    meridian = complex(float(rec["meridian_re"]), float(rec["meridian_im"]))
    if meridian.imag < 0:
        warnings.warn(
            "meridian of %s has negative imaginary part; conjugating" % name,
            GeometryWarning,
            stacklevel=2,
        )
        meridian = meridian.conjugate()
    pd_field = (rec["pd"] or "").strip()
    return CensusRow(
        name=name,
        crossings=int(rec["crossings"]),
        sigma=int(rec["signature"]),
        volume=float(rec["volume"]),
        inj=float(rec["inj_radius"]),
        meridian=meridian,
        longitude=float(rec["longitude"]),
        geodesics=parse_geodesics(rec["geodesics"] or ""),
        pd=pd_text(DiagramCode.parse(pd_field)) if pd_field else None,
    )


def ingest_reference(source):
    """Read a census CSV, given as a path or an open text stream, into
    validated rows. A stream is read but not closed, and messages name it
    by its `name` attribute, "<stdin>" for standard input.

    Malformed rows raise CensusFormatError with the offending line number;
    soft geometry warnings are re-issued with row context attached.
    """
    if hasattr(source, "read"):
        fh = contextlib.nullcontext(source)
        where = short = getattr(source, "name", "<stream>")
    else:
        path = Path(source)
        where, short = path, path.name
        try:
            fh = path.open(newline="", encoding="utf-8-sig")
        except OSError as exc:
            raise CensusFormatError("cannot read %s: %s" % (path, exc)) from exc
    with fh as stream:
        reader = csv.DictReader(stream)
        header = reader.fieldnames
        if header is None:
            raise CensusFormatError("%s: empty file, expected a header row" % where)
        missing = [c for c in _COLUMNS if c not in header]
        if missing:
            raise CensusFormatError(
                "%s: header is missing columns %s" % (where, ", ".join(missing))
            )
        rows = []
        for rec in reader:
            line = reader.line_num
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    row = _parse_row_reference(rec)
                except (ValueError, TypeError) as exc:
                    raise CensusFormatError(
                        "%s line %d: %s" % (where, line, exc)
                    ) from exc
            for w in caught:
                warnings.warn(
                    "%s line %d: %s" % (short, line, w.message),
                    GeometryWarning,
                    stacklevel=2,
                )
            rows.append(row)
    return rows


# census.format_geodesics as it was when each geodesic took three formats
def _fmt_complex_reference(z):
    sign = "+" if z.imag >= 0 else "-"
    return "%r%s%ri" % (z.real, sign, abs(z.imag))


def format_geodesics_reference(geos):
    parts = []
    for g in geos:
        item = "%s:%s" % (_fmt_complex_reference(g.complex_length), g.linking_parity)
        if g.tube_radius is not None:
            item += ":%r" % g.tube_radius
        parts.append(item)
    return ";".join(parts)


# census.emit as it was when csv.writer wrote derived.csv. Its quoting is
# Python's: on 3.10-3.12 a field holding a CR is written unquoted
def _csv_fields_reference(d):
    r = d.row
    return (
        r.name,
        r.crossings,
        r.sigma,
        r.volume,
        r.inj,
        r.meridian.real,
        r.meridian.imag,
        r.longitude,
        format_geodesics_reference(r.geodesics),
        r.pd or "",
        d.slope,
        d.gap,
        d.c1,
        d.sigma_hat,
        d.gap_normalized,
    )


def emit_reference(report, out_dir):
    """Write derived.csv and plots.json under out_dir; returns both paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "derived.csv"
    json_path = out_dir / "plots.json"
    with csv_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_COLUMNS + _DERIVED_COLUMNS)
        writer.writerows(map(_csv_fields_reference, report.rows))
    payload = {
        "schema_version": 1,
        "c1_hist": [[lo, count] for lo, count in report.c1_hist],
        "slope_vs_sig": [[d.slope, d.row.sigma] for d in report.rows],
        "c1_by_crossing": [[c, mx, mean] for c, mx, mean in report.c1_by_crossing],
    }
    json_path.write_text(_plots_json(payload), encoding="utf-8")
    return csv_path, json_path
