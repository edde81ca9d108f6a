"""Diagram parsing, the Goeritz pipeline, and the Seifert pipeline."""

import importlib.resources
import random

import pytest
import sympy
from hypothesis import given, strategies as st

from knotsig import braid, diagram
from knotsig.diagram import (
    ArcMultiplicityError,
    DiagramCode,
    EmptyPDError,
    MultiComponentError,
    PDSyntaxError,
    checkerboard,
    gl_signature,
    insert_kink,
    mirror_diagram,
    parse_pd,
    pd_text,
    seifert_matrix,
    seifert_signature,
)

TREFOIL_TEXT = "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"
CORPUS = str(importlib.resources.files("knotsig") / "data" / "corpus.tsv")


def plat(word):
    return DiagramCode.from_tuples(braid.plat_closure_tuples(word, 4))


def goeritz_det(d):
    g = checkerboard(d)
    if g.matrix.n == 0:
        return 1
    return abs(sympy.Matrix(g.matrix.entries).det())


def seifert_det(d):
    v = seifert_matrix(d)
    if not v:
        return 1
    m = sympy.Matrix(v)
    return abs((m + m.T).det())


class TestParse:
    def test_trefoil_example(self):
        d = parse_pd(TREFOIL_TEXT)
        assert d.n == 3
        assert set(d.signs) == {-1}

    def test_whitespace_and_internal_spaces(self):
        d = parse_pd("  X( 1 , 4 , 2 , 5 )\n X(3,6,4,1)\tX(5,2,6,3) ")
        assert d.n == 3

    def test_empty(self):
        with pytest.raises(EmptyPDError):
            parse_pd("   \n ")

    def test_syntax(self):
        with pytest.raises(PDSyntaxError):
            parse_pd("X(1,4,2,5) Y(3,6,4,1)")
        with pytest.raises(PDSyntaxError):
            parse_pd("X(1,4,2)")
        with pytest.raises(PDSyntaxError):
            parse_pd("X(0,1,0,1)")

    def test_multiplicity(self):
        with pytest.raises(ArcMultiplicityError):
            parse_pd("X(1,4,2,5) X(3,6,4,1) X(5,2,6,7)")

    def test_multi_component(self):
        # trace closure of the two-letter braid 1,1: a Hopf link
        with pytest.raises(MultiComponentError):
            parse_pd("X(2,4,3,1) X(4,2,1,3)")

    def test_convention_violation(self):
        # the all-upward tuples of the plat [2, 2, -1, 2]: the under-strand
        # enters the second crossing at slot 2, so strict parsing refuses
        with pytest.raises(PDSyntaxError):
            parse_pd("X(2,4,3,1) X(4,6,5,3) X(1,5,7,8) X(6,2,8,7)")
        assert plat([2, 2, -1, 2]).n == 4

    def test_round_trip(self):
        d = parse_pd(TREFOIL_TEXT)
        assert parse_pd(pd_text(d)) == d

    def test_plat_closures_are_strict(self):
        rng = random.Random(7)
        knots = 0
        while knots < 60:
            strands = rng.choice((4, 6, 8, 10))
            word = [
                rng.choice((1, -1)) * rng.randint(1, strands - 1)
                for _ in range(rng.randint(1, 3 * strands))
            ]
            tuples = braid.plat_closure_tuples(word, strands)
            try:
                d = DiagramCode.from_tuples(tuples)
            except MultiComponentError:
                continue
            knots += 1
            text = " ".join("X(%d,%d,%d,%d)" % t for t in tuples)
            assert parse_pd(text) == d, word

    def test_direct_code_is_checked(self):
        d = parse_pd(TREFOIL_TEXT)
        same = DiagramCode(d.crossings)
        assert same.signs == d.signs
        assert gl_signature(same) == seifert_signature(same) == gl_signature(d)

    def test_direct_code_rebuilds_every_code(self):
        codes = list(diagram.load_fixture_file(CORPUS).values())
        rng = random.Random(5)
        while len(codes) < 56 + 100:
            strands = rng.choice((2, 3, 4, 5))
            length = strands - 1 + 2 * rng.randint(0, 8)
            word = braid.random_knot_word(rng, strands, length)
            codes.append(DiagramCode.from_braid_word(word))
            strands = rng.choice((4, 6, 8))
            word = [
                rng.choice((1, -1)) * rng.randint(1, strands - 1)
                for _ in range(rng.randint(1, 3 * strands))
            ]
            try:
                codes.append(
                    DiagramCode.from_tuples(braid.plat_closure_tuples(word, strands))
                )
            except MultiComponentError:
                pass
        for d in codes:
            again = DiagramCode(d.crossings)
            assert again == d and hash(again) == hash(d)
            assert again.signs == d.signs

    @pytest.mark.parametrize(
        "tuples, error",
        [
            # the all-upward tuples of the plat [2, 2, -1, 2]: not strict
            ([(2, 4, 3, 1), (4, 6, 5, 3), (1, 5, 7, 8), (6, 2, 8, 7)], PDSyntaxError),
            # the left trefoil with every label shifted up by one
            ([(2, 5, 3, 6), (4, 7, 5, 2), (6, 3, 7, 4)], PDSyntaxError),
            # the left trefoil with label 6 renamed 9
            ([(1, 4, 2, 5), (3, 9, 4, 1), (5, 2, 9, 3)], PDSyntaxError),
            ([("a", "b", "a", "b")], PDSyntaxError),
            # three-slot crossings: three labels where 1..4 are needed
            ([(1, 1, 2), (2, 3, 3)], PDSyntaxError),
            # a Hopf link
            ([(2, 4, 3, 1), (4, 2, 1, 3)], MultiComponentError),
            ([(1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 6)], ArcMultiplicityError),
        ],
        ids=["non-strict", "labels-shifted", "label-gap", "labels-not-integers",
             "three-slots", "two-components", "multiplicity"],
    )
    def test_malformed_direct_code_raises_when_built(self, tuples, error):
        with pytest.raises(error):
            DiagramCode(tuples)


class TestCheckerboard:
    def test_unknot(self):
        d = DiagramCode.from_tuples([])
        data = checkerboard(d)
        assert data.matrix.n == 0
        assert data.euler_correction == 0
        assert gl_signature(d) == 0

    def test_right_trefoil(self):
        d = DiagramCode.from_braid_word([1, 1, 1])
        assert gl_signature(d) == -2

    def test_left_trefoil(self):
        assert gl_signature(parse_pd(TREFOIL_TEXT)) == 2

    def test_six_one(self):
        # 4-plat of 9/2, continued fraction [4,1,1]
        assert gl_signature(plat([2, 2, 2, 2, -1, 2])) == 0

    def test_checkerboard_pinned(self):
        # exact Goeritz entries, not only signatures: a change of colouring
        # can move the matrix and keep the signature
        corpus = diagram.load_fixture_file(CORPUS)
        g = checkerboard(corpus["b(9,2)"])
        assert g.matrix.entries == (
            (3, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -1), (0, 0, -1, 2),
        )
        assert g.euler_correction == -4
        g = checkerboard(corpus["T(3,4)"])
        assert g.matrix.entries == (
            (4, -1, -1, -1), (-1, -1, 1, 0), (-1, 1, -1, 1), (-1, 0, 1, -1),
        )
        assert g.euler_correction == -4
        g = checkerboard(parse_pd(TREFOIL_TEXT))
        assert g.matrix.entries == ((2, -1), (-1, 2))
        assert g.euler_correction == 0
        data = [checkerboard(d) for d in corpus.values()]
        assert sum(g.matrix.n for g in data) == 221
        assert sum(g.euler_correction for g in data) == -259

    def test_goeritz_battery(self):
        # frozen cross-pipeline battery; the other three sign conventions
        # for the correction all fail at least one row
        rng = random.Random(11)
        battery = [
            ([1, 1, 1], -2),
            ([-1, -1, -1], 2),
            ([1, -2, 1, -2], 0),
            ([1] * 5, -4),
            ([-1] * 5, 4),
            ([1, 2] * 4, -6),
            ([1, 2] * 5, -8),
            ([1, 2, 3] * 3, -6),
            (braid.random_knot_word(rng, 3, 8), 0),
            (braid.random_knot_word(rng, 4, 9), 0),
            (braid.random_knot_word(rng, 4, 13), -2),
            (braid.random_knot_word(rng, 5, 12), -2),
        ]
        for word, expected in battery:
            d = DiagramCode.from_braid_word(word)
            assert gl_signature(d) == expected, word
            assert seifert_signature(d) == expected, word


class TestSeifert:
    def test_unknot(self):
        d = DiagramCode.from_tuples([])
        assert seifert_matrix(d) == []
        assert seifert_signature(d) == 0

    def test_right_trefoil(self):
        d = DiagramCode.from_braid_word([1, 1, 1])
        v = seifert_matrix(d)
        assert len(v) == 2
        assert seifert_signature(d) == -2

    def test_figure_eight(self):
        d = DiagramCode.from_braid_word([1, -2, 1, -2])
        assert seifert_signature(d) == 0
        assert seifert_det(d) == 5

    def test_six_one(self):
        d = plat([2, 2, 2, 2, -1, 2])
        assert seifert_signature(d) == 0
        assert seifert_det(d) == 9

    def test_braid_word_round_trip(self):
        for word in ([2, 2, 2], [2, 2, -1, 2], [2, 2, 2, 2, -1, 2]):
            d = plat(word)
            w = diagram.braid_word(d)
            assert gl_signature(DiagramCode.from_braid_word(w)) == gl_signature(d)

    def test_braid_word_pinned(self):
        corpus = diagram.load_fixture_file(CORPUS)
        assert diagram.braid_word(corpus["b(9,2)"]) == [
            -2, -1, -2, 3, -2, 1, -4, 3, 2, 3, 4, 3,
        ]
        assert diagram.braid_word(corpus["T(3,4)"]) == [1, 2] * 4
        assert diagram.braid_word(corpus["pretzel(-2,3,7)"]) == [
            2, 2, 1, 2, 2, 2, 2, 2, 2, 2, 1, 2,
        ]
        assert sum(len(diagram.braid_word(d)) for d in corpus.values()) == 781
        # a kink adds a circle and moves the seam; the kinked word and these
        # totals change when the path is walked from its other end or the
        # seam takes another arc
        assert diagram.braid_word(insert_kink(corpus["b(9,2)"], 1)) == [
            -1, -2, -4, 3, -2, 1, 5, -4, 3, -2, 4, 3, -5, 4, 3, 2, 3,
        ]
        for make, total in (
            (mirror_diagram, 781),
            (lambda d: insert_kink(d, 1), 991),
            (lambda d: insert_kink(d, -1), 1081),
        ):
            words = [diagram.braid_word(make(d)) for d in corpus.values()]
            assert sum(len(w) for w in words) == total

    def test_kink_then_unknot_word(self):
        d = insert_kink(DiagramCode.from_tuples([]), sign=1)
        assert d.signs == (1,)
        assert gl_signature(d) == 0
        assert seifert_signature(d) == 0


class TestDeterminants:
    def test_two_bridge_determinants(self):
        # b(p, q) has determinant p; both pipelines must agree on it
        for word, p in [
            ([2, 2, 2], 3),
            ([2, 2, -1, 2], 5),
            ([2, 2, -1, -1, 2], 7),
            ([2, 2, 2, 2, -1, 2], 9),
        ]:
            d = plat(word)
            assert goeritz_det(d) == p
            assert seifert_det(d) == p


def knot_words():
    def build(data):
        rng = random.Random(data)
        s = rng.randint(2, 5)
        length = rng.randint(s - 1, 14)
        if (length - (s - 1)) % 2:
            length += 1
        return braid.random_knot_word(rng, s, length, max_tries=500)

    return st.integers(0, 10**6).map(build)


class TestProperties:
    @given(knot_words())
    def test_pipelines_agree_and_even(self, word):
        d = DiagramCode.from_braid_word(word)
        gl = gl_signature(d)
        assert gl % 2 == 0
        assert seifert_signature(d) == gl

    @given(knot_words())
    def test_mirror_negates(self, word):
        d = DiagramCode.from_braid_word(word)
        m = mirror_diagram(d)
        assert m.signs == tuple(-s for s in d.signs)
        assert gl_signature(m) == -gl_signature(d)
        assert seifert_signature(m) == -seifert_signature(d)

    @given(knot_words(), st.sampled_from((1, -1)))
    def test_kink_is_invisible(self, word, sign):
        d = DiagramCode.from_braid_word(word)
        k = insert_kink(d, sign=sign)
        assert k.n == d.n + 1
        assert gl_signature(k) == gl_signature(d)
        assert seifert_signature(k) == seifert_signature(d)

    @given(knot_words())
    def test_writhe_is_sign_sum(self, word):
        d = DiagramCode.from_braid_word(word)
        assert d.writhe == sum(d.signs)
