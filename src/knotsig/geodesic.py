"""Short-geodesic corrections: twisting parameters from complex lengths,
drilled-tube lattice generators, and the corrected slope estimator."""

import cmath
import math
import warnings

from ._record import Record
from .cusp import _require_finite_number, _require_ints, _require_positive
from .torus import kappa

# upper end of the admissible cutoff range for "short" geodesics
EPSILON_3 = 0.775

_TWO_PI = 2 * math.pi
_TWO_PI_NUM, _TWO_PI_DEN = _TWO_PI.as_integer_ratio()


class GeodesicRecord(Record):
    """A closed geodesic: complex length (real part > 0, imaginary part in
    (-pi, pi]), parity of its linking number with the knot, and optionally
    the radius of an embedded tube around it."""

    __slots__ = _fields = ("complex_length", "linking_parity", "tube_radius")

    def __init__(self, complex_length, linking_parity, tube_radius=None):
        _validate_length(complex_length)
        if linking_parity not in ("odd", "even"):
            raise ValueError("linking_parity must be 'odd' or 'even', got %r"
                             % linking_parity)
        if tube_radius is not None:
            _require_positive(tube_radius, "tube radius")
        object.__setattr__(self, "complex_length", complex_length)
        object.__setattr__(self, "linking_parity", linking_parity)
        object.__setattr__(self, "tube_radius", tube_radius)


class TwistParam(Record):
    """Filling parameters (p even, q odd >= 1, coprime) describing how a
    short geodesic's holonomy twists the strands through its tube."""

    __slots__ = _fields = ("p", "q")

    def __init__(self, p, q):
        _require_ints((p, q), "p and q")
        if p % 2:
            raise ValueError("p must be even, got %r" % p)
        if q < 0 or q % 2 == 0:
            raise ValueError("q must be odd and non-negative, got %r" % q)
        if math.gcd(p, q) != 1:
            raise ValueError("(%d, %d) is not coprime" % (p, q))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)


def _validate_length(cl):
    _require_positive(cl.real, "real part of the complex length")
    if not -math.pi < cl.imag <= math.pi:
        raise ValueError(
            "imaginary part %r outside the principal band (-pi, pi]" % cl.imag
        )


def twisting_parameter(cl):
    """The (p, q) minimizing |cl*p + 2*pi*i*q| subject to the TwistParam
    constraints; among exactly equal norms, the least p, then the least q.

    cl.real, cl.imag and the float 2*pi are binary rationals, so over one
    common denominator (the largest of their three, all powers of two) they
    are integers A, B, T. The squared norm of (p, q) is then the integer
    form p*p*g11 + 2*p*q*g12 + q*q*g22 with Gram entries g11 = A**2 + B**2,
    g12 = B*T and g22 = T**2: every comparison is exact. The admissible
    points (p even, q odd) form the coset e + 2Z^2, e = (0, 1).

    Gauss-Lagrange reduction of the basis (2, 0), (0, 2) runs on the basis
    coefficients and three running Gram values, n1 = |b1|^2, n2 = |b2|^2
    and m = <b1, b2>: b2 -= k*b1 sets n2 += k*(k*n1 - 2*m) and m -= k*n1,
    with no norm recomputed from the coefficients. It ends with b1 shortest,
    and the coset splits into lines e + j*b2 + Z*b1. Lines are scanned
    outward from the one nearest the origin, until a line's distance alone
    exceeds the best norm, which starts at |e|^2 = g22 since e itself is
    admissible. Along a line the norm is a convex quadratic in i, so the
    sign of one difference picks the lesser of the two integers around its
    minimum, and only that point is compared. On an exact tie between v
    and v + b1 only v is: the coset is symmetric under negation, so
    -(v + b1) is the point taken on the mirror line, which lies at the same
    distance and is scanned too, or the line is its own mirror and
    -(v + b1) = v. A non-coprime candidate d*w (d odd, at least 3) never
    wins: w is admissible too and shorter, so no gcd test is needed."""
    _validate_length(cl)
    a, da = cl.real.as_integer_ratio()
    b, db = cl.imag.as_integer_ratio()
    den = max(da, db, _TWO_PI_DEN)
    A, B, T = a * (den // da), b * (den // db), _TWO_PI_NUM * (den // _TWO_PI_DEN)
    g12, g22 = B * T, T * T
    # b1 = (p1, q1), b2 = (p2, q2) in (p, q) coefficients
    p1, q1, p2, q2 = 2, 0, 0, 2
    n1, n2, m = 4 * (A * A + B * B), 4 * g22, 4 * g12
    while True:
        if n2 < n1:
            p1, q1, p2, q2, n1, n2 = p2, q2, p1, q1, n2, n1
        k = _nearest(m, n1)
        if k == 0:
            break
        p2 -= k * p1
        q2 -= k * q1
        n2 += k * (k * n1 - 2 * m)
        m -= k * n1
    det = n1 * n2 - m * m
    n1det = n1 * det
    # x1 = <e, b1>, x2 = <e, b2>; line j's squared distance from the origin
    # is (s + j*det)**2 / (n1*det)
    x1, x2 = p1 * g12 + q1 * g22, p2 * g12 + q2 * g22
    s = x2 * n1 - m * x1
    j0 = _nearest(-s, det)
    best_n, best_p, best_q = g22, 0, 1
    bound = g22 * n1det
    for j, step in ((j0, 1), (j0 - 1, -1)):
        while (s + j * det) ** 2 <= bound:
            # u = e + j*b2 and c = <u, b1>: |u + i*b1|^2 = |u|^2 + i*(2c + i*n1)
            c = x1 + j * m
            i = -c // n1
            f = c + i * n1  # <u + i*b1, b1>, in (-n1, 0]
            n = g22 + j * (2 * x2 + j * n2) + i * (c + f)
            d = n1 + 2 * f  # the norm at i + 1 less the norm at i
            if d < 0:
                i += 1
                n += d
            if n <= best_n:
                p, q = j * p2 + i * p1, 1 + j * q2 + i * q1
                if q < 0:
                    p, q = -p, -q
                if n < best_n or (p, q) < (best_p, best_q):
                    best_n, best_p, best_q = n, p, q
                    bound = n * n1det
            j += step
    return TwistParam(best_p, best_q)


def _nearest(x, n):
    """The integer nearest x/n (n > 0), halves rounded up."""
    return (2 * x + n) // (2 * n)


def tube_torus(cl, r):
    """Lattice generators (meridian, canonical longitude) of the boundary
    torus of a radius-r tube around a geodesic of complex length cl. A
    generator that is not finite is a ValueError."""
    _validate_length(cl)
    _require_positive(r, "tube radius")
    try:
        sinh, cosh = math.sinh(r), math.cosh(r)
    except OverflowError:
        sinh = cosh = math.inf
    meridian = complex(0, _TWO_PI * sinh)
    longitude = complex(cosh * cl.real, sinh * cl.imag)
    if not (cmath.isfinite(meridian) and cmath.isfinite(longitude)):
        raise ValueError(
            "tube torus of radius %r around %r has a non-finite generator" % (r, cl)
        )
    return meridian, longitude


def odd_geo_filter(geos, epsilon, margulis=EPSILON_3):
    """Geodesics of length below epsilon/2 with odd linking parity."""
    return _short_odd(geos, epsilon, margulis)


def corrected_slope_estimate(slope, geos, epsilon, margulis=EPSILON_3):
    """slope/2 minus the twisting corrections of all short odd geodesics.

    Each correction kappa(p, q) is an exact integer because p is even. A
    tiny Re can make it too large for a float, which is a ValueError."""
    _require_finite_number(slope, "slope")
    correction = 0
    for g in _short_odd(geos, epsilon, margulis):
        tw = twisting_parameter(g.complex_length)
        correction += kappa(tw.p, tw.q).as_integer()
    return slope / 2 - _require_finite_number(correction, "correction")


def _short_odd(geos, epsilon, margulis):
    # called only from the public functions above, so the warning names
    # their caller
    _require_finite_number(epsilon, "cutoff")
    _require_finite_number(margulis, "margulis constant")
    if not 0 < epsilon < margulis:
        warnings.warn(
            "cutoff %g outside (0, %g); short-tube geometry is not guaranteed"
            % (epsilon, margulis),
            stacklevel=3,
        )
    return [
        g
        for g in geos
        if g.complex_length.real < epsilon / 2 and g.linking_parity == "odd"
    ]
