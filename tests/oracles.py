"""Independent oracles used by the test suite only.

Nothing here calls back into the package's signature code paths: eigenvalue
sign counts come from the characteristic polynomial (sympy, exact) plus a
hand-rolled Sturm chain over Fractions, the package's former dense
elimination is kept as a second inertia reference, the twisting parameter
is found by a numpy grid scan and by an exact scan of lines of fixed q, and
the torus correction term is recomputed one reduction rule at a time with
no closed-form shortcuts.
"""

import math
from fractions import Fraction

import numpy as np
import sympy


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
