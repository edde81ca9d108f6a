"""Cusp-torus arithmetic: natural slope, slope lengths, surgery windows,
genus bounds, and the per-knot statistics derived from them.

Inputs are measured hyperbolic geometry, so everything here is floating
point. Comparisons use an explicit 1e-9 tolerance; fixture checks in the
tests use 1e-3 because published values carry 4-5 digits.
"""

import math
import sys
import warnings

from ._record import Record

_TOL = 1e-9
_FLOAT_MAX = sys.float_info.max

# fillings with |p| above this bound are never exceptional; quoted from
# the surgery literature, exposed as data rather than recomputed
MAX_EXCEPTIONAL_P = 8

# soft validation bounds for knot cusps; violations warn, not raise,
# since ingested rows may describe other cusped manifolds
MERIDIAN_RANGE = (1.0, 6.0)
MIN_VOLUME = 2.0298
MAX_INJ = 1.82


class GeometryWarning(UserWarning):
    """Geometry outside the soft bounds expected of a knot complement."""


def parse_complex(text):
    """Parse 'a+bi' / 'a-bi' (no spaces), or a bare real."""
    try:
        return complex(text.strip().replace("i", "j"))
    except ValueError:
        raise ValueError("bad complex number %r" % text) from None


def _read_text(source):
    """The text of an input, a path or an open stream (read, not closed).
    Bytes are decoded as UTF-8 whatever the locale, a leading byte-order
    mark dropped; a text stream's text is taken as it reads. Bytes that
    are not UTF-8 raise a ValueError naming the path, or the stream by its
    `name`, and the first bad byte."""
    if not hasattr(source, "read"):
        with open(source, "rb") as fh:
            return _read_text(fh)
    try:
        data = source.read()
        return data if isinstance(data, str) else data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ValueError(_not_utf8(getattr(source, "name", "<stream>"), exc)) from None


def _not_utf8(where, exc):
    """The message for `exc`, a UnicodeDecodeError met reading `where`."""
    return "%s: not UTF-8 text (byte 0x%02x)" % (where, exc.object[exc.start])


class CuspShape(Record):
    """Maximal cusp-torus lattice: real longitude length and complex
    meridian translation, normalized so Im(meridian) > 0."""

    __slots__ = _fields = ("longitude", "meridian")

    def __init__(self, longitude, meridian):
        _require_positive(longitude, "longitude")
        _require_finite_number(meridian.real, "Re(meridian)")
        _require_positive(meridian.imag, "Im(meridian)")
        size = _modulus(meridian)
        lo, hi = MERIDIAN_RANGE
        if not lo - _TOL <= size <= hi + _TOL:
            warnings.warn(
                "|meridian| = %.4f outside [%g, %g]" % (size, lo, hi),
                GeometryWarning,
                stacklevel=2,
            )
        object.__setattr__(self, "longitude", longitude)
        object.__setattr__(self, "meridian", meridian)


class KnotGeom(Record):
    """Cusp shape plus volume, injectivity radius, and (optionally) the
    knot signature, an even int or None."""

    __slots__ = _fields = ("cusp", "volume", "inj", "sigma")

    def __init__(self, cusp, volume, inj, sigma=None):
        _require_positive(volume, "volume")
        _require_positive(inj, "injectivity radius")
        if sigma is not None:
            _require_ints((sigma,), "signatures")
            if sigma % 2:
                raise ValueError("signature must be even, got %r" % sigma)
            # the float side reads 2 * sigma
            _require_finite_number(2 * sigma, "twice the signature")
        if volume <= MIN_VOLUME:
            warnings.warn(
                "volume %.4f not above %.4f" % (volume, MIN_VOLUME),
                GeometryWarning,
                stacklevel=2,
            )
        if inj > MAX_INJ:
            warnings.warn(
                "injectivity radius %.4f above %.2f" % (inj, MAX_INJ),
                GeometryWarning,
                stacklevel=2,
            )
        object.__setattr__(self, "cusp", cusp)
        object.__setattr__(self, "volume", volume)
        object.__setattr__(self, "inj", inj)
        object.__setattr__(self, "sigma", sigma)

    def _require_sigma(self):
        if self.sigma is None:
            raise ValueError("signature not present in this geometry record")
        return self.sigma


def natural_slope(c):
    """Re(longitude/meridian) = longitude * Re(meridian) / |meridian|^2.
    Where |meridian|^2 overflows, the meridian is first scaled by the
    larger of |Re| and Im, which brings both parts within [-1, 1]."""
    z = c.meridian
    m = _modulus(z)
    if m * m == 0:
        raise ValueError("|meridian|^2 underflows to zero, meridian %r" % z)
    if m * m == math.inf:
        s = max(abs(z.real), z.imag)
        x, y = z.real / s, z.imag / s
        slope = c.longitude * x / (x * x + y * y) / s
    else:
        slope = c.longitude * z.real / (m * m)
    return _require_finite_number(slope, "natural slope")


def slope_length(c, p, q):
    """Euclidean length |p*longitude + q*meridian| of the (p,q) filling
    curve on the cusp torus."""
    _require_ints((p, q), "p and q")
    if p == 0 and q == 0:
        raise ValueError("(0, 0) is not a slope")
    try:
        length = abs(p * c.longitude + q * c.meridian)
    except OverflowError:
        length = math.inf
    return _require_finite_number(length, "length of the slope")


class Interval(Record):
    """The closed interval [lo, hi]."""

    __slots__ = _fields = ("lo", "hi")

    def __init__(self, lo, hi):
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __contains__(self, x):
        return self.lo <= x <= self.hi

    @property
    def width(self):
        return self.hi - self.lo

    @property
    def center(self):
        return (self.lo + self.hi) / 2


def exceptional_window(slope, p):
    """Closed interval of q/p values that can possibly be exceptional for
    a given integer p >= 1: every slope outside it has length > 6."""
    if not (isinstance(p, int) and p >= 1):
        raise ValueError("p must be a positive integer, got %r" % p)
    _require_finite_number(slope, "slope")
    return Interval(-slope - 6 / p, -slope + 6 / p)


def surgery_hyperbolic_certificate(g, p, q, c1):
    """True when (q/p) surgery is certified hyperbolic: either |p| exceeds
    the exceptional bound, or q/p sits outside the slope window widened by
    the c1 error term. The boundary counts as uncertified."""
    sigma = g._require_sigma()
    _require_finite_number(c1, "c1")
    _require_ints((p, q), "p and q")
    if p == 0:
        raise ValueError("p must be nonzero")
    if math.gcd(p, q) != 1:
        raise ValueError("(%d, %d) is not a primitive slope" % (p, q))
    if abs(p) > MAX_EXCEPTIONAL_P:
        return True
    try:
        ratio = q / p
    except OverflowError:
        raise ValueError(
            "q/p of %d bits is outside the float range" % abs(q // p).bit_length()
        ) from None
    lhs = abs(ratio + 2 * sigma)
    rhs = 6 / abs(p) + c1 * g.volume / _inj_cubed(g)
    return lhs > rhs + _TOL


def genus_lower_bound(slope, integer=False):
    """Seifert-genus lower bound |slope|/(4*pi) + 1/2, optionally rounded
    up to the integer genus it implies."""
    _require_finite_number(slope, "slope")
    value = abs(slope) / (4 * math.pi) + 0.5
    if integer:
        return math.ceil(value - _TOL)
    return value


def g4_lower_bound(g, c1):
    """Topological 4-genus lower bound |slope|/4 - (c1/4) * vol / inj^3.

    May be negative; callers clamp at zero when quoting it as a genus."""
    _require_finite_number(c1, "c1")
    slope = natural_slope(g.cusp)
    bound = abs(slope) / 4 - (c1 / 4) * g.volume / _inj_cubed(g)
    return _require_finite_number(bound, "4-genus bound")


def _modulus(z):
    # abs() raises OverflowError where |z| is beyond the floats
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def _require_finite_number(x, what):
    # math.isfinite converts first, so an int beyond the floats overflows
    try:
        finite = math.isfinite(x)
    except OverflowError:
        raise ValueError(
            "%s of %d bits is outside the float range" % (what, int(x).bit_length())
        ) from None
    if not finite:
        raise ValueError("%s must be finite, got %r" % (what, x))
    return x


def _require_positive(x, what):
    if not _require_finite_number(x, what) > 0:
        raise ValueError("%s must be positive, got %r" % (what, x))
    return x


def _require_ints(values, what):
    """Every value is an int, or a ValueError naming `what`."""
    if not all(isinstance(v, int) for v in values):
        raise ValueError("%s must be integers, got %r" % (what, tuple(values)))


def _inj_cubed(g):
    try:
        cube = g.inj**3
    except OverflowError:
        cube = math.inf
    if 0 < cube <= _FLOAT_MAX:
        return cube
    # the message is formatted only for a cube that the check may refuse
    return _require_positive(cube, "injectivity radius %r cubed" % g.inj)


def c1_statistic(g):
    """|2*sigma - slope| * inj^3 / vol, the normalized defect of the
    slope-signature correlation."""
    sigma = g._require_sigma()
    residual = abs(2 * sigma - natural_slope(g.cusp))
    return _require_finite_number(residual * _inj_cubed(g) / g.volume, "c1 statistic")


def normalized_signature(g):
    """sigma / sqrt(vol)."""
    sigma = g._require_sigma()
    return sigma / math.sqrt(g.volume)


def closest_even_integer(s):
    """Nearest even integer, ties toward the smaller absolute value."""
    _require_finite_number(s, "slope")
    k = math.floor(s / 2)
    lo, hi = 2 * k, 2 * k + 2
    d_lo, d_hi = s - lo, hi - s
    if abs(d_lo - d_hi) <= _TOL:
        return lo if abs(lo) < abs(hi) else hi
    return lo if d_lo < d_hi else hi
