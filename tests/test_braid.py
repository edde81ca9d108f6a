"""Braid words, closures, and the braid Seifert matrix."""

import random

import pytest
import sympy
from hypothesis import given, strategies as st

from diagrams import plat_closure_tuples, random_knot_word
from oracles import collins_reference, dense, trace_closure_reference
from test_totality import call_within_budget

from knotsig import braid, torus, twistfam
from knotsig.exactlin import SymIntMatrix, signature

# 3-strand twist regions: the trefoil's braid with one 2-strand region at
# its end, and {"base_braid": [1, -2], "regions": [[0, 1, 3]]}
TWIST_SPECS = (
    twistfam.TwistSpec((1, 1, 1), ((3, 1, 2),)),
    twistfam.TwistSpec((1, -2), ((0, 1, 3),)),
)


def clean_words(max_strands=5, max_len=12):
    """Nonempty braid words as lists of signed generator indices."""
    return st.integers(2, max_strands).flatmap(
        lambda s: st.lists(
            st.tuples(st.integers(1, s - 1), st.sampled_from((1, -1))).map(lambda t: t[0] * t[1]),
            min_size=1,
            max_size=max_len,
        ).map(lambda w: (w, s))
    )


@st.composite
def closing_words(draw, min_strands=1, max_strands=8, max_extra=12):
    """Words on min_strands..max_strands strands, all used, whose trace
    closure is a knot; on one strand that is the empty word."""
    strands = draw(st.integers(min_strands, max_strands))
    if strands == 1:
        return []
    length = strands - 1 + 2 * draw(st.integers(0, max_extra))
    return random_knot_word(draw(st.randoms(use_true_random=False)), strands, length)


def assert_closure_matches_reference(word):
    """Equal tuples, or the same ValueError, as the former closure."""
    try:
        want = trace_closure_reference(word)
    except ValueError as err:
        with pytest.raises(ValueError) as got:
            braid.trace_closure_tuples(word)
        assert str(got.value) == str(err)
    else:
        assert braid.trace_closure_tuples(word) == want


class TestWords:
    def test_strands(self):
        assert braid.word_strands([]) == 1
        assert braid.word_strands([1, -1]) == 2
        assert braid.word_strands([2, -1, 3]) == 4

    def test_zero_letter_rejected(self):
        with pytest.raises(ValueError):
            braid.word_strands([1, 0])

    def test_permutation(self):
        assert braid.word_permutation([1]) == (1, 0)
        assert braid.word_permutation([1, 2]) == (2, 0, 1)
        assert braid.word_permutation([1, 1]) == (0, 1)

    def test_closure_is_knot(self):
        assert braid.closure_is_knot([1, 1, 1])
        assert not braid.closure_is_knot([1, 1])
        assert braid.closure_is_knot([1, 2])
        # the first strand is crossed by no letter, so closes on its own
        assert not braid.closure_is_knot([2])
        assert not braid.closure_is_knot([braid.MAX_BRAID_LETTERS])

    def test_full_twist(self):
        assert braid.full_twist_word(1, 1) == []
        assert braid.full_twist_word(2, 2) == [2, 2]
        assert braid.full_twist_word(1, 3) == [1, 2, 1, 2, 1, 2]
        with pytest.raises(ValueError):
            braid.full_twist_word(0, 2)

    def test_letter_above_the_limit_rejected(self):
        assert braid.word_strands([braid.MAX_BRAID_LETTERS]) == 120_001
        for word in ([120_001], [1, -120_001]):
            with pytest.raises(ValueError) as err:
                braid.word_strands(word)
            assert str(err.value) == "braid letter 120001 is over the limit of 120000"

    @pytest.mark.parametrize(
        "build, args, message",
        [
            (braid.full_twist_word, (1, 347), "a full twist on 347 strands would have 120062"),
            (twistfam.twisted_word, (TWIST_SPECS[1], (20_000,)), "twisted word would have 120002"),
            (torus.torus_pd, (3, 60_001), "T(3,60001) braid word would have 120002"),
        ],
    )
    def test_builders_share_the_letter_limit(self, build, args, message):
        with pytest.raises(ValueError) as err:
            build(*args)
        assert str(err.value) == message + " letters, more than the limit of 120000"

    def test_invert_word(self):
        assert braid.invert_word([1, -2, 3]) == [-3, 2, -1]

    @given(clean_words())
    def test_inverse_gives_inverse_permutation(self, ws):
        word, _ = ws
        s = braid.word_strands(word)
        p = braid.word_permutation(word)
        q = braid.word_permutation(braid.invert_word(word))
        assert all(q[p[i]] == i for i in range(s))


class TestTraceClosure:
    def test_right_trefoil_tuples(self):
        # hand-traced: single 6-edge component, over-strand runs d -> b at
        # every crossing (all positive)
        assert braid.trace_closure_tuples([1, 1, 1]) == [
            (2, 4, 3, 1),
            (4, 6, 5, 3),
            (6, 2, 1, 5),
        ]

    def test_left_trefoil_tuples(self):
        # hand-traced: over-strand runs b -> d everywhere (all negative)
        assert braid.trace_closure_tuples([-1, -1, -1]) == [
            (1, 2, 4, 3),
            (3, 4, 6, 5),
            (5, 6, 2, 1),
        ]

    def test_empty_word_is_unknot(self):
        assert braid.trace_closure_tuples([]) == []

    def test_link_closure_rejected(self):
        with pytest.raises(ValueError):
            braid.trace_closure_tuples([1, 1])

    @given(clean_words())
    def test_edges_appear_twice(self, ws):
        word, _ = ws
        if not braid.closure_is_knot(word):
            with pytest.raises(ValueError):
                braid.trace_closure_tuples(word)
            return
        tuples = braid.trace_closure_tuples(word)
        assert len(tuples) == len(word)
        counts = {}
        for t in tuples:
            for e in t:
                counts[e] = counts.get(e, 0) + 1
        assert sorted(counts) == list(range(1, 2 * len(word) + 1))
        assert all(c == 2 for c in counts.values())

    @given(closing_words())
    def test_knot_words_match_reference(self, word):
        assert_closure_matches_reference(word)

    @given(clean_words(max_strands=8, max_len=30))
    def test_any_word_matches_reference(self, ws):
        # links and words that leave a strand uncrossed raise the same error
        assert_closure_matches_reference(ws[0])

    @given(st.integers(2, 12), st.integers(1, 40))
    def test_torus_words_match_reference(self, p, q):
        assert_closure_matches_reference(list(range(1, p)) * q)

    @given(st.sampled_from(TWIST_SPECS), st.integers(-40, 40))
    def test_twisted_words_match_reference(self, spec, q):
        assert_closure_matches_reference(twistfam.twisted_word(spec, (q,)))


class TestPlatClosure:
    def test_trefoil_plat_shape(self):
        tuples = plat_closure_tuples([2, 2, 2], strands=4)
        assert len(tuples) == 3
        counts = {}
        for t in tuples:
            for e in t:
                counts[e] = counts.get(e, 0) + 1
        assert sorted(counts) == list(range(1, 7))
        assert all(c == 2 for c in counts.values())

    def test_odd_strands_rejected(self):
        with pytest.raises(ValueError, match="even strand count"):
            plat_closure_tuples([1], strands=3)
        with pytest.raises(ValueError, match="even strand count"):
            plat_closure_tuples([2])

    @pytest.mark.parametrize("strands", [2, 0, -4])
    def test_too_few_strands_rejected(self, strands):
        # [3] needs 4 strands; 0 is a count like any other, not "not given"
        with pytest.raises(ValueError, match="needs 4 strands"):
            plat_closure_tuples([3], strands)
        assert len(plat_closure_tuples([3], 6)) == 1


class TestSeifertMatrix:
    def test_right_trefoil_matrix(self):
        v = braid.collins_seifert_matrix([1, 1, 1])
        assert v == [{0: -1}, {0: 1, 1: -1}]
        assert signature(SymIntMatrix([[-2, 1], [1, -2]])) == -2

    def test_left_trefoil_matrix(self):
        v = braid.collins_seifert_matrix([-1, -1, -1])
        assert v == [{0: 1, 1: -1}, {1: 1}]

    def test_figure_eight_matrix_symmetrized(self):
        v = dense(braid.collins_seifert_matrix([1, -2, 1, -2]))
        sym = [[v[i][j] + v[j][i] for j in range(len(v))] for i in range(len(v))]
        assert signature(SymIntMatrix(sym)) == 0

    def test_t2_alexander_polynomials(self):
        t = sympy.Symbol("t")
        for q, expected in [(3, t**2 - t + 1), (5, t**4 - t**3 + t**2 - t + 1)]:
            v = sympy.Matrix(dense(braid.collins_seifert_matrix([1] * q)))
            delta = sympy.expand(sympy.det(v - t * v.T))
            assert delta in (expected, sympy.expand(-expected))

    @given(clean_words())
    def test_rank_matches_band_count(self, ws):
        word, _ = ws
        if not braid.closure_is_knot(word):
            return
        v = braid.collins_seifert_matrix(word)
        assert len(v) == len(word) - (braid.word_strands(word) - 1)

    @given(clean_words(max_strands=8, max_len=40))
    def test_matches_dense_reference(self, ws):
        # entry for entry, with no zero stored, on any word, knot or not
        word, _ = ws
        v = braid.collins_seifert_matrix(word)
        assert all(x for row in v for x in row.values())
        assert dense(v) == collins_reference(word)

    @pytest.mark.parametrize("spec", TWIST_SPECS)
    def test_matches_dense_reference_on_twist_rows(self, spec):
        word = twistfam.twisted_word(spec, (40,))
        assert dense(braid.collins_seifert_matrix(word)) == collins_reference(word)

    def test_hub_region_rows_within_budget(self):
        # 11,996 letters: a dense V would need about 1.15 GB
        word = twistfam.twisted_word(TWIST_SPECS[1], (1999,))
        v = call_within_budget(braid.collins_seifert_matrix, (word,), seconds=5)
        assert len(v) == 11_994


class TestRandomWords:
    def test_deterministic_and_knotted(self):
        a = random_knot_word(random.Random(7), 4, 11)
        b = random_knot_word(random.Random(7), 4, 11)
        assert a == b
        assert braid.word_strands(a) == 4
        assert braid.closure_is_knot(a)

    def test_impossible_parity_rejected(self):
        with pytest.raises(ValueError):
            random_knot_word(random.Random(0), 4, 10)
