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
