"""Geodesic-correction tests: the twisting minimizer against a widened
brute-force grid and an exact line scan, tube lattice formulas, and the
corrected slope sum."""

import math
import random
import time

import pytest
from hypothesis import example, given, strategies as st

from oracles import (
    ExactLength,
    brute_force_twisting,
    line_scan_twisting,
    plain_kappa,
    twisting_reference,
)
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


def log_uniform(lo, hi):
    """Floats in [lo, hi] whose logarithm is drawn from [log lo, log hi]."""
    return st.floats(math.log(lo), math.log(hi)).map(lambda x: min(max(math.exp(x), lo), hi))


# the principal band (-pi, pi] of imaginary parts
principal_im = st.floats(-math.pi, math.pi, exclude_min=True)


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

    @pytest.mark.parametrize("re", [5e-5, 1e-5, 1e-12])
    def test_no_float_tie_band(self, re):
        cl = complex(re, 0.0)
        # |z| of (-2, 1) is within 1e-9 of |z| of (0, 1) = 2*pi here, so a
        # float tie band of that width picks the lex-least point inside it,
        # (-2, 1) at 5e-5 and (-10, 1) at 1e-5, though (0, 1) is shortest
        assert abs(cl * -2 + 2j * math.pi) - 2 * math.pi < 1e-9
        assert twisting_parameter(cl) == TwistParam(0, 1)

    def test_matches_line_scan(self):
        rng = random.Random(10)
        for k in range(60):
            re = math.exp(rng.uniform(math.log(1e-3), math.log(0.05)))
            im = (0.0, math.pi)[k % 2] if k % 10 < 2 else rng.uniform(-math.pi, math.pi)
            cl = complex(re, im)
            tw = twisting_parameter(cl)
            assert (tw.p, tw.q) == line_scan_twisting(cl), cl

    def test_tiny_real_part_is_fast(self):
        start = time.perf_counter()
        tw = twisting_parameter(complex(1e-12, 0.1))
        assert time.perf_counter() - start < 0.1
        assert kappa(tw.p, tw.q).is_integer

    @given(
        st.floats(min_value=1e-300, max_value=2.5),
        st.floats(min_value=-math.pi, max_value=math.pi, exclude_min=True),
    )
    def test_exact_minimum_on_neighbouring_lines(self, re, im):
        cl = complex(re, im)
        tw = twisting_parameter(cl)
        assert tw.p % 2 == 0 and tw.q % 2 == 1 and tw.q >= 1
        assert math.gcd(tw.p, tw.q) == 1
        exact = ExactLength(cl)
        found = (exact.norm(tw.p, tw.q), tw.p, tw.q)
        for q in (tw.q - 2, tw.q, tw.q + 2):
            if q >= 1:
                for p in exact.line_candidates(q):
                    assert (exact.norm(p, q), p, q) >= found, (p, q)
        if im not in (0.0, math.pi):
            flipped = twisting_parameter(cl.conjugate())
            assert (flipped.p, flipped.q) == (-tw.p, tw.q)

    @given(log_uniform(5e-324, 10.0), principal_im)
    @example(5e-324, math.pi)
    @example(5e-324, math.nextafter(-math.pi, 0))
    @example(5e-324, 0.0)
    @example(5e-324, -0.0)
    @example(0.2, math.pi)
    @example(0.2, math.nextafter(-math.pi, 0))
    @example(1e-12, 0.0)
    @example(1e-12, -0.0)
    # the one exact tie found among lengths that are small binary multiples
    # of 2*pi: (-2, 1) and (0, 1) both have norm 4*pi**2
    @example(math.pi, math.pi)
    def test_matches_reference(self, re, im):
        cl = complex(re, im)
        assert twisting_parameter(cl) == twisting_reference(cl)

    def test_matches_reference_on_a_sweep(self):
        rng = random.Random(11)
        for _ in range(2000):
            re = max(math.exp(rng.uniform(math.log(5e-324), math.log(10.0))), 5e-324)
            im = rng.uniform(-math.pi, math.pi)
            cl = complex(re, math.pi if im == -math.pi else im)
            assert twisting_parameter(cl) == twisting_reference(cl), cl


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

    def test_cutoff_warning_names_the_caller(self):
        import warnings as w

        with w.catch_warnings(record=True) as caught:
            w.simplefilter("always")
            odd_geo_filter([SHORT_ODD], 0.9)
            corrected_slope_estimate(5.0, [SHORT_ODD], 0.9)
        assert [c.category for c in caught] == [UserWarning] * 2
        assert {c.filename for c in caught} == {__file__}


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

    @given(st.data())
    def test_matches_the_oracles(self, data):
        # census-like lists: either parity, Re on both sides of epsilon/2
        # and at it, but Re >= 1e-3 so that the line scan stays cheap
        epsilon = data.draw(st.floats(0.05, 0.77), label="epsilon")
        half = epsilon / 2
        re = st.one_of(log_uniform(1e-3, 2.0), st.sampled_from((half, math.nextafter(half, 0))))
        geos = data.draw(
            st.lists(
                st.builds(
                    GeodesicRecord,
                    st.builds(complex, re, principal_im),
                    st.sampled_from(("odd", "even")),
                    st.none() | st.floats(0.01, 5.0),
                ),
                max_size=4,
            ),
            label="geos",
        )
        slope = data.draw(st.floats(-100.0, 100.0), label="slope")
        total = sum(
            plain_kappa(*line_scan_twisting(g.complex_length))
            for g in geos
            if g.complex_length.real < half and g.linking_parity == "odd"
        )
        assert total.denominator == 1
        assert corrected_slope_estimate(slope, geos, epsilon) == slope / 2 - int(total)

    def test_correction_beyond_float_range(self):
        geo = GeodesicRecord(complex(5e-324, 5e-324), "odd")
        with pytest.raises(ValueError, match="float range"):
            corrected_slope_estimate(5.0, [geo], 0.7)
