"""Twist-family tests: exact torus laws for 2-strand twisting, prediction
arithmetic for the counterexample families, and report plumbing."""

import json

import pytest
from hypothesis import given, strategies as st

from knotsig.braid import MAX_BRAID_LETTERS
from knotsig.diagram import gl_signature, seifert_signature
from knotsig.torus import torus_signature
from knotsig.twistfam import (
    FamilyRow,
    TwistSpec,
    family_report,
    load_spec,
    parse_braid_text,
    predicted_signature,
    predicted_slope,
    twist_insert,
    twisted_word,
)

TREFOIL_SPEC = TwistSpec((1, 1, 1), ((3, 1, 2),))


class TestTwistSpec:
    def test_linking_numbers(self):
        assert TREFOIL_SPEC.linking_numbers == (2,)
        assert TwistSpec((1, -2), ((0, 1, 3), (2, 2, 2))).linking_numbers == (3, 2)

    def test_invalid(self):
        with pytest.raises(ValueError):
            TwistSpec((1, 1), ())  # two-component closure
        with pytest.raises(ValueError):
            TwistSpec((1, 1, 1), ((4, 1, 2),))  # position past the word
        with pytest.raises(ValueError, match=r"region strands \[2, 3\] not within \[1, 2\]"):
            TwistSpec((1, 1, 1), ((0, 2, 2),))  # the base braid has 2 strands
        with pytest.raises(ValueError):
            TwistSpec((1, 0, 1), ())  # zero generator


class TestTwistInsert:
    def test_identity_insertion(self):
        d = twist_insert(TREFOIL_SPEC, (0,))
        assert d.n == 3
        assert gl_signature(d) == -2

    def test_one_positive_twist_gives_t25(self):
        d = twist_insert(TREFOIL_SPEC, (1,))
        assert d.n == 5
        assert gl_signature(d) == torus_signature(2, 5) == -4

    def test_negative_twists(self):
        # three negative full twists on top of sigma_1^3 net to the mirror
        d = twist_insert(TREFOIL_SPEC, (-3,))
        assert d.n == 9
        assert gl_signature(d) == 2
        assert seifert_signature(d) == 2

    def test_three_strand_growth(self):
        spec = TwistSpec((1, 2), ((0, 1, 3),))
        assert len(twisted_word(spec, (2,))) == 2 + 12
        assert twist_insert(spec, (2,)).n == 14

    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            twist_insert(TREFOIL_SPEC, (1, 1))

    def test_letter_limit(self):
        # each full twist on 3 strands is 6 letters; the limit is checked
        # on the count, before any letter is built
        spec = TwistSpec((1, -2), ((0, 1, 3),))
        q = (MAX_BRAID_LETTERS - 2) // 6
        assert len(twisted_word(spec, (q,))) == 2 + 6 * q <= MAX_BRAID_LETTERS
        for big in (q + 1, -(q + 1), 10**12):
            with pytest.raises(ValueError):
                twisted_word(spec, (big,))

    def test_multi_region_order(self):
        spec = TwistSpec((1, 2), ((0, 1, 2), (2, 2, 2)))
        word = twisted_word(spec, (1, -1))
        assert word == [1, 1, 1, 2, -2, -2]


class TestPredictions:
    def test_slope(self):
        assert predicted_slope((3,), (5,)) == -45
        for t in (1, 10, 100):
            assert predicted_slope((2, 3), (17 * t, -8 * t)) == 4 * t
        assert predicted_slope((2, 3), (0, 0)) == 0
        with pytest.raises(ValueError):
            predicted_slope((2, 3), (1,))

    def test_signature(self):
        assert predicted_signature((3,), (5,)) == -20
        for t in (1, 10, 100):
            assert predicted_signature((2, 3), (17 * t, -8 * t)) == -2 * t
            assert predicted_signature((3, 2), (-8 * t, 17 * t)) == -2 * t
        assert predicted_signature((2, 3), (0, 0)) == 0
        assert predicted_signature((), ()) == 0
        with pytest.raises(ValueError):
            predicted_signature((2, 3), (1,))

    @given(
        st.lists(
            st.tuples(st.integers(-50, 50), st.integers(-10**6, 10**6)), max_size=8
        )
    )
    def test_signature_is_slope_less_odd_twists(self, pairs):
        # the paper's refinement: only odd linking numbers shift the slope,
        # each by its twist count
        ell = [l for l, _ in pairs]
        q = [qi for _, qi in pairs]
        odd = sum(qi for l, qi in pairs if l % 2)
        assert 2 * predicted_signature(ell, q) == predicted_slope(ell, q) + odd

    def test_counterexample_gap_grows(self):
        # with one odd region of 3 strands the predictions diverge linearly
        for q in (1, 10, 100):
            sig = predicted_signature((3,), (q,))
            slope = predicted_slope((3,), (q,))
            assert abs(2 * sig - slope) == q


class TestFamilyReport:
    def test_torus_family(self):
        rows = family_report(TREFOIL_SPEC, [(q,) for q in range(7)])
        for q, row in enumerate(rows):
            assert row.q == (q,)
            assert row.sigma == -2 - 2 * q
            assert row.predicted == -2 * q
            assert row.residual == -2
        assert rows[0] == FamilyRow((0,), -2, 0, -2)

    def test_empty_range(self):
        assert family_report(TREFOIL_SPEC, []) == []


class TestConfigText:
    def test_parse_braid_text(self):
        assert parse_braid_text("1,1,1") == [1, 1, 1]
        assert parse_braid_text("1,-2, 1,-2") == [1, -2, 1, -2]
        assert parse_braid_text("") == []
        with pytest.raises(ValueError):
            parse_braid_text("1,x")

    def test_load_spec(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps(
                {
                    "base_braid": "1,1,1",
                    "regions": [[3, 1, 2]],
                    "q_vectors": [[0], [1], [2]],
                }
            ),
            encoding="utf-8",
        )
        spec, q_vectors = load_spec(path)
        assert spec == TREFOIL_SPEC
        assert q_vectors == [(0,), (1,), (2,)]
        with path.open(encoding="utf-8") as fh:
            assert load_spec(fh) == (spec, q_vectors)

    def test_load_spec_names_a_file_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_bytes(b'{"base_braid": [1, 1, 1]}\xff')
        with pytest.raises(ValueError) as err:
            load_spec(path)
        assert str(err.value) == "%s: not UTF-8 text (byte 0xff)" % path
        # a leading byte-order mark is dropped, as the CLI drops it
        path.write_bytes(b'\xef\xbb\xbf{"base_braid": [1, 1, 1]}')
        assert load_spec(path) == (TwistSpec((1, 1, 1), ()), [])

    @pytest.mark.parametrize("mode", ["r", "rb"])
    def test_load_spec_names_a_stream_that_is_not_utf8(self, tmp_path, mode):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"base_braid": [1, 1, 1]}\xff')
        encoding = "utf-8" if mode == "r" else None
        with path.open(mode, encoding=encoding) as fh, pytest.raises(ValueError) as err:
            load_spec(fh)
        assert str(err.value) == "%s: not UTF-8 text (byte 0xff)" % path
