"""Cusp arithmetic tests: published fixture values at 1e-3, exact lemma
inequalities over rational samples, and the documented tie rules."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from knotsig.cusp import (
    CuspShape,
    GeometryWarning,
    Interval,
    KnotGeom,
    c1_statistic,
    closest_even_integer,
    exceptional_window,
    g4_lower_bound,
    genus_lower_bound,
    natural_slope,
    normalized_signature,
    parse_complex,
    slope_length,
    surgery_hyperbolic_certificate,
)

# measured cusp shapes of two census knots, quoted to 4-5 digits
STEVEDORE = CuspShape(3.9279, complex(0.7237, 1.0160))
K12A52 = CuspShape(27.7228, complex(-1.2838, 0.5145))


def geom(cusp, volume=5.0, inj=0.5, sigma=None):
    return KnotGeom(cusp, volume, inj, sigma)


class TestValidation:
    def test_hard_errors(self):
        with pytest.raises(ValueError):
            CuspShape(0.0, 1j)
        with pytest.raises(ValueError):
            CuspShape(-2.0, 1j)
        with pytest.raises(ValueError):
            CuspShape(1.0, complex(1.0, 0.0))
        with pytest.raises(ValueError):
            CuspShape(1.0, complex(1.0, -1.0))
        with pytest.raises(ValueError):
            KnotGeom(STEVEDORE, 0.0, 0.5)
        with pytest.raises(ValueError):
            KnotGeom(STEVEDORE, 3.0, -1.0)
        with pytest.raises(ValueError):
            KnotGeom(STEVEDORE, 3.0, 0.5, sigma=3)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            CuspShape(bad, 1j)
        with pytest.raises(ValueError, match="finite"):
            CuspShape(1.0, complex(bad, 1.0))
        with pytest.raises(ValueError, match="finite"):
            CuspShape(1.0, complex(1.0, bad))
        with pytest.raises(ValueError, match="finite"):
            KnotGeom(STEVEDORE, bad, 0.5)
        with pytest.raises(ValueError, match="finite"):
            KnotGeom(STEVEDORE, 3.0, bad)

    def test_soft_warnings(self):
        with pytest.warns(GeometryWarning):
            CuspShape(1.0, 0.5j)
        with pytest.warns(GeometryWarning):
            CuspShape(1.0, 7.0j)
        with pytest.warns(GeometryWarning):
            KnotGeom(STEVEDORE, 1.5, 0.5)
        with pytest.warns(GeometryWarning):
            KnotGeom(STEVEDORE, 3.0, 1.9)

    def test_soft_warnings_name_the_caller(self):
        import warnings as w

        with w.catch_warnings(record=True) as caught:
            w.simplefilter("always")
            CuspShape(1.0, 7.0j)
            KnotGeom(STEVEDORE, 1.5, 0.5)
            KnotGeom(STEVEDORE, 3.0, 1.9)
        assert [c.category for c in caught] == [GeometryWarning] * 3
        assert {c.filename for c in caught} == {__file__}

    def test_fixture_shapes_are_clean(self):
        import warnings as w

        with w.catch_warnings():
            w.simplefilter("error")
            CuspShape(3.9279, complex(0.7237, 1.0160))
            CuspShape(27.7228, complex(-1.2838, 0.5145))


class TestNaturalSlope:
    def test_fixtures(self):
        assert natural_slope(STEVEDORE) == pytest.approx(1.8267, abs=1e-3)
        assert natural_slope(K12A52) == pytest.approx(-18.6064, abs=1e-3)

    def test_imaginary_meridian(self):
        assert natural_slope(CuspShape(11.0, 2.0j)) == 0.0

    @pytest.mark.parametrize(
        "longitude, meridian",
        [(1.0, complex(1e-170, 1e-170)), (1e300, complex(1e-10, 1e-10))],
    )
    @pytest.mark.filterwarnings("ignore::knotsig.cusp.GeometryWarning")
    def test_underflow_and_overflow_rejected(self, longitude, meridian):
        with pytest.raises(ValueError):
            natural_slope(CuspShape(longitude, meridian))

    @pytest.mark.parametrize(
        "longitude, meridian, slope",
        [
            # |meridian|^2 overflows, but the slope is a float
            (1.0, complex(1e200, 1e200), 5e-201),
            (1e300, complex(1e200, 1e200), 5e99),
            # |meridian| itself overflows
            (1.0, complex(1.7e308, 1.7e308), 0.5 / 1.7e308),
        ],
    )
    @pytest.mark.filterwarnings("ignore::knotsig.cusp.GeometryWarning")
    def test_overflowing_modulus_still_gives_the_slope(self, longitude, meridian, slope):
        assert natural_slope(CuspShape(longitude, meridian)) == pytest.approx(
            slope, rel=1e-12, abs=0
        )

    @given(
        st.floats(0.5, 30.0),
        st.floats(-3.0, 3.0),
        st.floats(0.3, 3.0),
        st.floats(0.1, 5.0),
    )
    @pytest.mark.filterwarnings("ignore::knotsig.cusp.GeometryWarning")
    def test_linear_in_longitude_odd_in_meridian_re(self, lam, re, im, scale):
        c = CuspShape(lam, complex(re, im))
        scaled = CuspShape(lam * scale, complex(re, im))
        flipped = CuspShape(lam, complex(-re, im))
        s = natural_slope(c)
        assert natural_slope(scaled) == pytest.approx(scale * s, rel=1e-9, abs=1e-12)
        assert natural_slope(flipped) == pytest.approx(-s, rel=1e-9, abs=1e-12)


class TestSlopeLength:
    def test_axes(self):
        assert slope_length(STEVEDORE, 0, 1) == pytest.approx(abs(STEVEDORE.meridian))
        assert slope_length(STEVEDORE, 1, 0) == pytest.approx(3.9279)

    def test_zero_slope_rejected(self):
        with pytest.raises(ValueError):
            slope_length(STEVEDORE, 0, 0)

    @given(
        st.fractions(Fraction(1, 2), Fraction(30)),
        st.fractions(Fraction(-6), Fraction(6)),
        st.fractions(Fraction(1, 10), Fraction(6)),
        st.integers(-20, 20),
        st.integers(-20, 20),
    )
    @pytest.mark.filterwarnings("ignore::knotsig.cusp.GeometryWarning")
    def test_length_dominates_slope_residual(self, lam, re, im, p, q):
        # exact form of the length lower bound, over rationals; needs a
        # meridian of length >= 1 like every knot cusp
        if (p, q) == (0, 0) or re * re + im * im < 1:
            return
        slope = lam * re / (re * re + im * im)
        lhs_sq = (p * lam + q * re) ** 2 + (q * im) ** 2
        rhs_sq = (p * slope + q) ** 2
        assert lhs_sq >= rhs_sq
        # and the floating implementation agrees with the exact value
        c = CuspShape(float(lam), complex(float(re), float(im)))
        assert slope_length(c, p, q) == pytest.approx(math.sqrt(float(lhs_sq)))


class TestWindow:
    def test_center_and_width(self):
        w = exceptional_window(-18.215, 1)
        assert w.lo == pytest.approx(12.215)
        assert w.hi == pytest.approx(24.215)
        for s in (16, 17, 18, Fraction(37, 2), 19, 20):
            assert s in w

    def test_trivial_and_halved(self):
        assert exceptional_window(0.0, 1) == Interval(-6.0, 6.0)
        w = exceptional_window(-18.215, 2)
        assert w.lo == pytest.approx(15.215)
        assert w.hi == pytest.approx(21.215)

    def test_domain(self):
        with pytest.raises(ValueError):
            exceptional_window(1.0, 0)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_slope_rejected(self, bad):
        with pytest.raises(ValueError):
            exceptional_window(bad, 1)

    @given(st.floats(-100, 100), st.integers(1, 50))
    def test_shape(self, s, p):
        w = exceptional_window(s, p)
        assert w.width == pytest.approx(12 / p, rel=1e-9)
        assert w.center == pytest.approx(-s, rel=1e-9, abs=1e-9)


class TestCertificate:
    def test_large_p_branch(self):
        g = geom(STEVEDORE, sigma=0)
        assert surgery_hyperbolic_certificate(g, 9, 1, c1=100.0)
        assert surgery_hyperbolic_certificate(g, -9, 2, c1=100.0)

    def test_zero_is_inside_window(self):
        g = geom(STEVEDORE, sigma=0)
        assert not surgery_hyperbolic_certificate(g, 1, 0, c1=0.1)

    def test_far_slope_certified(self):
        g = geom(K12A52, volume=14.22, inj=0.8, sigma=-8)
        assert surgery_hyperbolic_certificate(g, 1, 100, c1=0.3)

    def test_domain(self):
        g = geom(STEVEDORE, sigma=0)
        with pytest.raises(ValueError):
            surgery_hyperbolic_certificate(g, 0, 1, c1=0.1)
        with pytest.raises(ValueError):
            surgery_hyperbolic_certificate(g, 2, 4, c1=0.1)
        with pytest.raises(ValueError):
            surgery_hyperbolic_certificate(geom(STEVEDORE), 1, 5, c1=0.1)


class TestScalarBounds:
    def test_genus(self):
        assert genus_lower_bound(0.0) == 0.5
        assert genus_lower_bound(0.0, integer=True) == 1
        assert genus_lower_bound(-18.6064) == pytest.approx(1.9807, abs=1e-3)
        assert genus_lower_bound(-18.6064, integer=True) == 2
        assert genus_lower_bound(4 * math.pi) == pytest.approx(1.5)

    def test_g4(self):
        flat = geom(CuspShape(5.0, 2.0j), volume=4.0, inj=0.5)
        assert g4_lower_bound(flat, 0.7) == pytest.approx(-0.7 / 4 * 4.0 / 0.125)
        g = geom(K12A52, volume=14.22, inj=0.8, sigma=-8)
        assert g4_lower_bound(g, 0.0) == pytest.approx(4.6516, abs=1e-3)
        base = g4_lower_bound(g, 0.0)
        assert base - g4_lower_bound(g, 0.6) == pytest.approx(
            2 * (base - g4_lower_bound(g, 0.3))
        )

    def test_c1(self):
        flat = geom(CuspShape(5.0, 2.0j), volume=4.0, inj=0.5, sigma=0)
        assert c1_statistic(flat) == 0.0
        g = geom(K12A52, volume=14.22, inj=0.8, sigma=-8)
        assert abs(2 * g.sigma - natural_slope(g.cusp)) == pytest.approx(2.6064, abs=1e-3)
        assert c1_statistic(g) == pytest.approx(2.6064 * 0.8**3 / 14.22, abs=1e-3)
        with pytest.raises(ValueError):
            c1_statistic(geom(K12A52))

    def test_normalized_signature(self):
        assert normalized_signature(geom(STEVEDORE, sigma=0)) == 0.0
        assert normalized_signature(geom(STEVEDORE, volume=16.0, sigma=-8)) == -2.0
        with pytest.raises(ValueError):
            normalized_signature(geom(STEVEDORE))


class TestClosestEven:
    def test_pinned(self):
        assert closest_even_integer(1.8267) == 2
        assert closest_even_integer(-18.6064) == -18
        assert closest_even_integer(3.0) == 2
        assert closest_even_integer(-3.0) == -2
        assert closest_even_integer(1.0) == 0
        assert closest_even_integer(0.3) == 0
        assert closest_even_integer(-0.3) == 0
        assert closest_even_integer(5.2) == 6

    @given(st.floats(-1000, 1000))
    def test_within_one(self, s):
        n = closest_even_integer(s)
        assert n % 2 == 0
        assert abs(n - s) <= 1 + 1e-9


class TestParseComplex:
    def test_forms(self):
        assert parse_complex("0.7237+1.0160i") == complex(0.7237, 1.0160)
        assert parse_complex("-1.2838+0.5145i") == complex(-1.2838, 0.5145)
        assert parse_complex("2.5-3i") == complex(2.5, -3)
        assert parse_complex("4.25") == complex(4.25, 0)
        assert parse_complex("3i") == complex(0, 3)
        with pytest.raises(ValueError):
            parse_complex("nonsense")
