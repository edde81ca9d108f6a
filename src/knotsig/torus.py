"""Torus-knot signatures: the correction term kappa and the closed form
sigma(T(p,q)) = -pq/2 - kappa(p,q), plus braid-closure diagrams for the
diagrammatic oracle."""

import math
from functools import total_ordering

from ._record import Record
from .braid import _require_letters
from .cusp import _require_ints
from .diagram import DiagramCode


@total_ordering
class HalfInt(Record):
    """An exact element of (1/2)Z, stored as twice its value. Ordered
    against other HalfInts only."""

    __slots__ = _fields = ("twice_value",)

    def __init__(self, twice_value):
        object.__setattr__(self, "twice_value", twice_value)

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self.twice_value < other.twice_value
        return NotImplemented

    @property
    def is_integer(self):
        return self.twice_value % 2 == 0

    def as_integer(self):
        if not self.is_integer:
            raise ValueError("%s is not an integer" % self)
        return self.twice_value // 2

    def __neg__(self):
        return HalfInt(-self.twice_value)

    def __add__(self, other):
        return HalfInt(self.twice_value + other.twice_value)

    def __sub__(self, other):
        return HalfInt(self.twice_value - other.twice_value)

    def __float__(self):
        return self.twice_value / 2

    def __str__(self):
        if self.twice_value % 2 == 0:
            return str(self.twice_value // 2)
        return "%d/2" % self.twice_value


def _kappa_pos(p, q):
    """Twice kappa(p,q) for p, q >= 1. The loop keeps the answer as
    sign * (twice kappa of the current pair) + offset, so its length is
    that of Euclid's algorithm and its stack depth is constant."""
    sign, offset = 1, 0
    while True:
        if p < q:
            p, q = q, p
        elif p == q:
            # the reduction maps (q,q) to itself; solve kappa = -kappa - 1
            # (odd q) and kappa = -kappa - 2 (even q) instead
            return sign * (-1 if p % 2 else -2) + offset
        elif p == 2 * q:
            return -2 * sign + offset
        elif p > 2 * q:
            # collapse k consecutive subtractions of 2q; each costs 1 when q
            # is odd and nothing when q is even
            r = p % (2 * q)
            k = p // (2 * q)
            d = 2 if q % 2 else 0
            if r == 0:
                return sign * (-2 - (k - 1) * d) + offset
            offset -= sign * k * d
            p = r
        else:  # q < p < 2q
            # the reflection step maps (q+t, q) to (q, q-t), a staircase that
            # descends by t per step; a double step costs +1 (q odd) or -1
            # (q even) when t is odd and nothing when t is even, so long
            # staircases collapse in one jump
            t = p - q
            steps = (q - 1) // t
            if steps >= 2:
                m = steps // 2
                delta = 0 if t % 2 == 0 else (2 if q % 2 else -2)
                offset += sign * m * delta
                p, q = p - 2 * m * t, q - 2 * m * t
            else:
                offset -= sign * (2 if q % 2 else 4)
                sign = -sign
                p, q = q, 2 * q - p


def kappa(p, q):
    """The signature correction kappa(p,q), a half-integer defined for all
    integers by the reduction rules, the algebraic fixed points at p = q,
    kappa(-p,q) = kappa(p,-q) = -kappa(p,q), and kappa = 0 on the axes.
    Any other argument is a ValueError."""
    _require_ints((p, q), "p and q")
    if p == 0 or q == 0:
        return HalfInt(0)
    sign = 1
    if p < 0:
        p, sign = -p, -sign
    if q < 0:
        q, sign = -q, -sign
    return HalfInt(sign * _kappa_pos(p, q))


def torus_signature(p, q):
    """sigma(T(p,q)) = -pq/2 - kappa(p,q), as an exact integer."""
    _require_ints((p, q), "p and q")
    if p < 1 or q < 1:
        raise ValueError("need p, q >= 1, got (%d, %d)" % (p, q))
    twice = -p * q - kappa(p, q).twice_value
    if twice % 2:
        raise RuntimeError(
            "non-integral torus signature for (%d, %d): kappa is broken" % (p, q)
        )
    return twice // 2


def torus_pd(p, q):
    """Diagram of the (p,q) torus knot as the closure of the p-strand
    braid (s_1 ... s_{p-1})^q, with q(p-1) crossings. A word longer than
    MAX_BRAID_LETTERS raises a ValueError before anything is built."""
    _require_ints((p, q), "p and q")
    if p < 2 or q < 1:
        raise ValueError("need p >= 2 and q >= 1, got (%d, %d)" % (p, q))
    _require_letters((p - 1) * q, "T(%d,%d) braid word" % (p, q))
    if math.gcd(p, q) != 1:
        raise ValueError(
            "T(%d,%d) is a link; the diagram oracle handles knots only" % (p, q)
        )
    word = list(range(1, p)) * q
    return DiagramCode.from_braid_word(word)
