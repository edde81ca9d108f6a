"""Short-geodesic corrections: twisting parameters from complex lengths,
drilled-tube lattice generators, and the corrected slope estimator."""

import math
import warnings
from dataclasses import dataclass

from .torus import kappa

# upper end of the admissible cutoff range for "short" geodesics
EPSILON_3 = 0.775

_TOL = 1e-9
_TWO_PI = 2 * math.pi


@dataclass(frozen=True)
class GeodesicRecord:
    """A closed geodesic: complex length (real part > 0, imaginary part in
    (-pi, pi]), parity of its linking number with the knot, and optionally
    the radius of an embedded tube around it."""

    complex_length: complex
    linking_parity: str
    tube_radius: float | None = None

    def __post_init__(self):
        _validate_length(self.complex_length)
        if self.linking_parity not in ("odd", "even"):
            raise ValueError("linking_parity must be 'odd' or 'even', got %r"
                             % self.linking_parity)
        if self.tube_radius is not None and not 0 < self.tube_radius < math.inf:
            raise ValueError(
                "tube radius must be positive and finite, got %r" % self.tube_radius
            )


@dataclass(frozen=True)
class TwistParam:
    """Filling parameters (p even, q odd >= 1, coprime) describing how a
    short geodesic's holonomy twists the strands through its tube."""

    p: int
    q: int

    def __post_init__(self):
        if self.p % 2:
            raise ValueError("p must be even, got %r" % self.p)
        if self.q < 0 or self.q % 2 == 0:
            raise ValueError("q must be odd and non-negative, got %r" % self.q)
        if math.gcd(self.p, self.q) != 1:
            raise ValueError("(%d, %d) is not coprime" % (self.p, self.q))


def _validate_length(cl):
    if not 0 < cl.real < math.inf:
        raise ValueError(
            "complex length needs positive finite real part, got %r" % cl
        )
    if not -math.pi < cl.imag <= math.pi:
        raise ValueError(
            "imaginary part %r outside the principal band (-pi, pi]" % cl.imag
        )


def twisting_parameter(cl):
    """The (p, q) minimizing |cl*p + 2*pi*i*q| subject to the TwistParam
    constraints, ties broken lexicographically.

    Exhaustive search: (0, 1) scores 2*pi, |cl*p + 2*pi*i*q| >= |p|*Re(cl)
    bounds p, and for each p the imaginary part bounds q."""
    _validate_length(cl)
    p_bound = math.ceil(_TWO_PI / cl.real)
    p_bound += p_bound % 2
    best = None
    best_pq = None
    for p in range(-p_bound, p_bound + 1, 2):
        q_bound = math.ceil((abs(p) * math.pi + _TWO_PI) / _TWO_PI)
        for q in range(1, q_bound + 1, 2):
            if math.gcd(p, q) != 1:
                continue
            value = abs(cl * p + complex(0, _TWO_PI * q))
            if best is None or value < best - _TOL:
                best = value
                best_pq = (p, q)
    return TwistParam(*best_pq)


def tube_torus(cl, r):
    """Lattice generators (meridian, canonical longitude) of the boundary
    torus of a radius-r tube around a geodesic of complex length cl."""
    if not 0 < r < math.inf:
        raise ValueError("tube radius must be positive and finite, got %r" % r)
    meridian = complex(0, _TWO_PI * math.sinh(r))
    longitude = complex(math.cosh(r) * cl.real, math.sinh(r) * cl.imag)
    return meridian, longitude


def odd_geo_filter(geos, epsilon, margulis=EPSILON_3):
    """Geodesics of length below epsilon/2 with odd linking parity."""
    if not 0 < epsilon < margulis:
        warnings.warn(
            "cutoff %g outside (0, %g); short-tube geometry is not guaranteed"
            % (epsilon, margulis),
            stacklevel=2,
        )
    return [
        g
        for g in geos
        if g.complex_length.real < epsilon / 2 and g.linking_parity == "odd"
    ]


def corrected_slope_estimate(slope, geos, epsilon, margulis=EPSILON_3):
    """slope/2 minus the twisting corrections of all short odd geodesics.

    Each correction kappa(p, q) is an exact integer because p is even."""
    correction = 0
    for g in odd_geo_filter(geos, epsilon, margulis):
        tw = twisting_parameter(g.complex_length)
        correction += kappa(tw.p, tw.q).as_integer()
    return slope / 2 - correction
