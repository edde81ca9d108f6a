"""Geodesic-correction tests: the twisting minimizer against a widened
brute-force grid, tube lattice formulas, and the corrected slope sum."""

import math
import random

import pytest

from oracles import brute_force_twisting
from knotsig.geodesic import (
    EPSILON_3,
    GeodesicRecord,
    TwistParam,
    corrected_slope_estimate,
    odd_geo_filter,
    tube_torus,
    twisting_parameter,
)
from knotsig.torus import kappa


def random_length(rng):
    re = rng.uniform(0.05, 2.5)
    im = rng.uniform(-math.pi, math.pi)
    if im == -math.pi:
        im = math.pi
    return complex(re, im)


class TestTwistParam:
    def test_valid(self):
        TwistParam(0, 1)
        TwistParam(-2, 1)
        TwistParam(4, 3)

    def test_invalid(self):
        with pytest.raises(ValueError):
            TwistParam(1, 1)
        with pytest.raises(ValueError):
            TwistParam(2, 2)
        with pytest.raises(ValueError):
            TwistParam(2, -1)
        with pytest.raises(ValueError):
            TwistParam(6, 3)


class TestGeodesicRecord:
    def test_valid(self):
        GeodesicRecord(complex(0.2, math.pi), "odd")
        GeodesicRecord(complex(0.1, -3.0), "even", tube_radius=0.5)

    def test_invalid(self):
        with pytest.raises(ValueError):
            GeodesicRecord(complex(0.0, 1.0), "odd")
        with pytest.raises(ValueError):
            GeodesicRecord(complex(-0.1, 1.0), "odd")
        with pytest.raises(ValueError):
            GeodesicRecord(complex(0.1, -math.pi), "odd")
        with pytest.raises(ValueError):
            GeodesicRecord(complex(0.1, 4.0), "odd")
        with pytest.raises(ValueError):
            GeodesicRecord(complex(0.1, 1.0), "sideways")
        with pytest.raises(ValueError):
            GeodesicRecord(complex(0.1, 1.0), "odd", tube_radius=0.0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            GeodesicRecord(complex(bad, 1.0), "odd")
        with pytest.raises(ValueError):
            GeodesicRecord(complex(0.1, 1.0), "odd", tube_radius=bad)
        with pytest.raises(ValueError):
            twisting_parameter(complex(bad, 0.1))
        with pytest.raises(ValueError):
            tube_torus(complex(0.3, 0.0), bad)


class TestTwistingParameter:
    def test_pinned(self):
        assert twisting_parameter(complex(0.1, 0.0)) == TwistParam(0, 1)
        assert twisting_parameter(complex(0.05, 3.0)) == TwistParam(-2, 1)
        assert twisting_parameter(complex(0.2, math.pi)) == TwistParam(-2, 1)

    def test_domain(self):
        with pytest.raises(ValueError):
            twisting_parameter(complex(0.0, 1.0))
        with pytest.raises(ValueError):
            twisting_parameter(complex(0.3, -math.pi))
        with pytest.raises(ValueError):
            twisting_parameter(complex(0.3, 3.5))

    def test_matches_brute_force(self):
        rng = random.Random(7)
        for _ in range(150):
            cl = random_length(rng)
            tw = twisting_parameter(cl)
            assert (tw.p, tw.q) == brute_force_twisting(cl), cl

    def test_output_invariants_and_integrality(self):
        rng = random.Random(8)
        for _ in range(80):
            tw = twisting_parameter(random_length(rng))
            # TwistParam construction enforced parity and coprimality
            assert kappa(tw.p, tw.q).is_integer

    def test_conjugation_flips_p(self):
        rng = random.Random(9)
        for _ in range(100):
            cl = random_length(rng)
            if cl.imag == math.pi:
                continue
            tw = twisting_parameter(cl)
            flipped = twisting_parameter(cl.conjugate())
            assert (flipped.p, flipped.q) == (-tw.p, tw.q), cl


class TestTubeTorus:
    def test_unit_sinh(self):
        r = math.asinh(1.0)
        mu, lam = tube_torus(complex(0.3, 1.1), r)
        assert mu == pytest.approx(complex(0, 2 * math.pi))
        assert lam == pytest.approx(complex(math.sqrt(2) * 0.3, 1.1))

    def test_small_radius_limit(self):
        mu, lam = tube_torus(complex(0.3, 1.1), 1e-6)
        assert abs(mu) < 1e-5
        assert lam.real == pytest.approx(0.3, abs=1e-6)
        assert abs(lam.imag) < 1e-5

    def test_real_length_gives_real_longitude(self):
        _, lam = tube_torus(complex(0.4, 0.0), 0.8)
        assert lam.imag == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            tube_torus(complex(0.3, 0.0), 0.0)
        with pytest.raises(ValueError):
            tube_torus(complex(0.3, 0.0), -1.0)


SHORT_ODD = GeodesicRecord(complex(0.1, 0.5), "odd")
SHORT_EVEN = GeodesicRecord(complex(0.1, 0.5), "even")
LONG_ODD = GeodesicRecord(complex(0.7, 0.5), "odd")


class TestOddGeoFilter:
    def test_filters(self):
        assert odd_geo_filter([], 0.7) == []
        assert odd_geo_filter([SHORT_EVEN], 0.7) == []
        assert odd_geo_filter([SHORT_ODD, SHORT_EVEN, LONG_ODD], 0.7) == [SHORT_ODD]

    def test_cutoff_warning(self):
        with pytest.warns(UserWarning):
            odd_geo_filter([SHORT_ODD], 0.8)
        with pytest.warns(UserWarning):
            odd_geo_filter([SHORT_ODD], 0.0)
        assert 0 < 0.7 < EPSILON_3  # the happy path used above is in range


class TestCorrectedSlope:
    def test_empty_sum(self):
        assert corrected_slope_estimate(-18.0, [], 0.7) == -9.0
        assert corrected_slope_estimate(-18.0, [SHORT_EVEN, LONG_ODD], 0.7) == -9.0

    def test_zero_correction(self):
        # this length twists as (0, 1) and kappa(0, 1) = 0
        geo = GeodesicRecord(complex(0.1, 0.0), "odd")
        assert corrected_slope_estimate(5.0, [geo], 0.7) == 2.5

    def test_unit_correction(self):
        # cl = 0.2 + pi*i twists as (-2, 1); kappa(-2, 1) = -kappa(2, 1) = 1
        geo = GeodesicRecord(complex(0.2, math.pi), "odd")
        assert kappa(-2, 1).as_integer() == 1
        assert corrected_slope_estimate(5.0, [geo], 0.7) == 1.5
