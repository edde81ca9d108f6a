"""Torus-knot tests: the correction term against a rule-at-a-time reference,
frozen hand-checked values, and agreement with both diagram pipelines."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import plain_kappa
from knotsig.diagram import gl_signature, seifert_signature
from knotsig.torus import HalfInt, kappa, torus_pd, torus_signature


def frac(h):
    return Fraction(h.twice_value, 2)


class TestHalfInt:
    def test_str(self):
        assert str(HalfInt(4)) == "2"
        assert str(HalfInt(0)) == "0"
        assert str(HalfInt(-1)) == "-1/2"
        assert str(HalfInt(-7)) == "-7/2"

    def test_integer_conversion(self):
        assert HalfInt(6).as_integer() == 3
        assert HalfInt(-6).is_integer
        assert not HalfInt(3).is_integer
        with pytest.raises(ValueError):
            HalfInt(3).as_integer()

    def test_arithmetic(self):
        assert -HalfInt(3) == HalfInt(-3)
        assert HalfInt(1) + HalfInt(2) == HalfInt(3)
        assert HalfInt(1) - HalfInt(2) == HalfInt(-1)
        assert float(HalfInt(-5)) == -2.5
        assert HalfInt(1) < HalfInt(2)


# hand-reduced through the rules, then cross-checked against plain_kappa
KAPPA_VALUES = {
    (0, 7): Fraction(0),
    (2, 3): Fraction(-1),
    (3, 4): Fraction(0),
    (4, 3): Fraction(0),
    (1, 1): Fraction(-1, 2),
    (-2, 3): Fraction(1),
    (2, 2): Fraction(-1),
    (3, 1): Fraction(-3, 2),
    (1, 3): Fraction(-3, 2),
    (5, 3): Fraction(1, 2),
    (7, 3): Fraction(-5, 2),
    (11, 3): Fraction(-1, 2),
    (3, 5): Fraction(1, 2),
    (2, 5): Fraction(-1),
    (2, 7): Fraction(-1),
}


class TestKappa:
    def test_pinned_values(self):
        for (p, q), want in KAPPA_VALUES.items():
            assert frac(kappa(p, q)) == want, (p, q)

    def test_matches_rule_by_rule_reference(self):
        for p in range(-6, 40):
            for q in range(-6, 40):
                assert frac(kappa(p, q)) == plain_kappa(p, q), (p, q)

    @given(st.integers(1, 30000), st.integers(1, 30000))
    def test_matches_reference_at_scale(self, p, q):
        assert frac(kappa(p, q)) == plain_kappa(p, q)

    def test_symmetry_and_signs(self):
        for p in range(1, 51):
            for q in range(1, 51):
                v = kappa(p, q)
                assert kappa(q, p) == v
                assert kappa(-p, q) == -v
                assert kappa(p, -q) == -v
                assert kappa(-p, -q) == v

    def test_half_integrality(self):
        for p in range(1, 51):
            for q in range(1, 51):
                assert kappa(p, q).is_integer == (p * q % 2 == 0)

    def test_axes_vanish(self):
        for n in (-5, 0, 1, 12):
            assert kappa(0, n) == HalfInt(0)
            assert kappa(n, 0) == HalfInt(0)

    def test_fixed_points(self):
        assert frac(kappa(9, 9)) == Fraction(-1, 2)
        assert frac(kappa(10, 10)) == Fraction(-1)

    def test_huge_arguments_terminate(self):
        # a literal reduction would take ~5e8 staircase steps here
        v = kappa(10**18 + 1, 10**9 + 7)
        assert not v.is_integer
        assert kappa(-(10**18 + 1), 10**9 + 7) == -v
        w = kappa(10**18, 10**18 - 1)
        assert w.is_integer

    def test_consecutive_fibonacci_terminates(self):
        # consecutive Fibonacci numbers give the longest reduction chain
        # for their size, one step per index
        a, b = 0, 1
        for _ in range(10**4):
            a, b = b, a + b
        assert frac(kappa(b, a)) == plain_kappa(b, a)


SIGNATURE_VALUES = {
    (2, 3): -2,
    (2, 5): -4,
    (2, 7): -6,
    (3, 4): -6,
    (3, 5): -8,
    (3, 7): -8,
    (3, 11): -16,
    (2, 2): -1,  # Hopf link
}


class TestTorusSignature:
    def test_pinned_values(self):
        for (p, q), want in SIGNATURE_VALUES.items():
            assert torus_signature(p, q) == want, (p, q)

    def test_unknots(self):
        for q in range(1, 21):
            assert torus_signature(1, q) == 0
            assert torus_signature(q, 1) == 0

    def test_two_strand_law(self):
        for k in range(31):
            assert torus_signature(2, 2 * k + 1) == -2 * k

    def test_three_strand_residues(self):
        # by residue of n mod 6; n = 6k and 6k+3 are links, skipped
        for k in range(8):
            for rem, want in ((1, -8 * k), (2, -8 * k - 2), (4, -8 * k - 6), (5, -8 * k - 8)):
                n = 6 * k + rem
                if n >= 1:
                    assert torus_signature(3, n) == want, n

    def test_integrality_exercised(self):
        for p in range(1, 41):
            for q in range(1, 41):
                torus_signature(p, q)

    def test_domain(self):
        for p, q in ((0, 5), (-2, 3), (3, 0), (3, -1)):
            with pytest.raises(ValueError):
                torus_signature(p, q)


class TestTorusPd:
    def test_trefoil(self):
        d = torus_pd(2, 3)
        assert d.n == 3
        assert gl_signature(d) == -2
        assert seifert_signature(d) == -2

    def test_crossing_counts(self):
        for p, q in ((2, 5), (3, 4), (4, 3), (5, 2)):
            assert torus_pd(p, q).n == q * (p - 1)

    def test_unknot_closure(self):
        d = torus_pd(4, 1)
        assert gl_signature(d) == 0
        assert seifert_signature(d) == 0

    def test_domain_errors(self):
        for p, q in ((1, 5), (3, 0), (4, 6), (6, 3), (2, -3)):
            with pytest.raises(ValueError):
                torus_pd(p, q)

    def test_pipelines_match_closed_form(self):
        # the pq <= 60 battery lives in the acceptance suite
        pairs = [
            (p, q)
            for p in range(2, 7)
            for q in range(p + 1, 19)
            if p * q <= 36 and math.gcd(p, q) == 1
        ]
        assert len(pairs) >= 10
        for p, q in pairs:
            d = torus_pd(p, q)
            want = torus_signature(p, q)
            assert gl_signature(d) == want, (p, q)
            assert seifert_signature(d) == want, (p, q)
