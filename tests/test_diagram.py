"""Diagram parsing, the Goeritz pipeline, and the Seifert pipeline."""

import hashlib
import importlib.resources
import importlib.util
import math
import random
from pathlib import Path
from types import SimpleNamespace

import pytest
import sympy
from hypothesis import given, strategies as st

from diagrams import (
    insert_kink,
    load_fixture_file,
    mirror_diagram,
    plat_closure_tuples,
    random_knot_word,
)
from oracles import checkerboard_reference, dense, geometry_reference
from test_braid import TWIST_SPECS, closing_words
from test_totality import call_within_budget

from knotsig import braid, census, diagram, twistfam
from knotsig.diagram import (
    ArcMultiplicityError,
    DiagramCode,
    MAX_PD_CROSSINGS,
    EmptyPDError,
    MultiComponentError,
    PDSizeError,
    PDSyntaxError,
    checkerboard,
    gl_signature,
    parse_pd,
    pd_text,
    seifert_matrix,
    seifert_signature,
)
from knotsig.torus import torus_pd

TREFOIL_TEXT = "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"
CORPUS = str(importlib.resources.files("knotsig") / "data" / "corpus.tsv")
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


class NoTerms:
    """Stands in for `diagram._TOKEN` where no term may be read."""

    def findall(self, text):
        raise AssertionError("a term was read")


def load_script(name):
    """The module scripts/<name>.py, imported by path."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def plat(word):
    return DiagramCode.from_tuples(plat_closure_tuples(word, 4))


def goeritz_det(d):
    g = checkerboard(d)
    if g.matrix.n == 0:
        return 1
    return abs(sympy.Matrix(g.matrix.entries).det())


def seifert_det(d):
    v = seifert_matrix(d)
    if not v:
        return 1
    m = sympy.Matrix(dense(v))
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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("X(1,4,2,5) Y(3,6,4,1)", "unrecognized input near 'Y(3,6,4,1)'"),
            ("X(1,2,3,4) junk", "unrecognized input near 'junk'"),
            ("junkX(1,2,3,4) X(5,6,7,8)", "unrecognized input near 'junk'"),
            ("X(1,4,2)", "unrecognized input near 'X(1,4,2)'"),
            ("X(0,1,0,1)", "arc labels must be positive integers"),
        ],
    )
    def test_syntax_messages(self, text, message):
        with pytest.raises(PDSyntaxError) as err:
            parse_pd(text)
        assert str(err.value) == message

    def test_size_limit_is_the_letter_cap(self):
        assert MAX_PD_CROSSINGS == braid.MAX_BRAID_LETTERS == 120_000

    def test_over_the_size_limit_reads_no_term(self, monkeypatch):
        monkeypatch.setattr(diagram, "_TOKEN", NoTerms())
        count = MAX_PD_CROSSINGS + 1
        with pytest.raises(PDSizeError) as err:
            parse_pd("X(1,2,3,4) " * count)
        assert str(err.value) == (
            "diagram code has 120001 crossings, more than the limit of 120000"
        )

    def test_size_limit_admits_a_code_at_it(self, monkeypatch):
        monkeypatch.setattr(diagram, "MAX_PD_CROSSINGS", 3)
        assert parse_pd(TREFOIL_TEXT).n == 3
        five = pd_text(DiagramCode.from_braid_word([1] * 5))
        with pytest.raises(PDSizeError, match="5 crossings, more than the limit of 3"):
            parse_pd(five)

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
            tuples = plat_closure_tuples(word, strands)
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
        codes = list(load_fixture_file(CORPUS).values())
        rng = random.Random(5)
        while len(codes) < 56 + 100:
            strands = rng.choice((2, 3, 4, 5))
            length = strands - 1 + 2 * rng.randint(0, 8)
            word = random_knot_word(rng, strands, length)
            codes.append(DiagramCode.from_braid_word(word))
            strands = rng.choice((4, 6, 8))
            word = [
                rng.choice((1, -1)) * rng.randint(1, strands - 1)
                for _ in range(rng.randint(1, 3 * strands))
            ]
            try:
                codes.append(
                    DiagramCode.from_tuples(plat_closure_tuples(word, strands))
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
            # the left trefoil with every label times ten
            ([(10, 40, 20, 50), (30, 60, 40, 10), (50, 20, 60, 30)], PDSyntaxError),
            ([("a", "b", "a", "b")], PDSyntaxError),
            # three-slot crossings: three labels where 1..4 are needed
            ([(1, 1, 2), (2, 3, 3)], PDSyntaxError),
            # a Hopf link
            ([(2, 4, 3, 1), (4, 2, 1, 3)], MultiComponentError),
            ([(1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 6)], ArcMultiplicityError),
        ],
        ids=["non-strict", "labels-shifted", "label-gap", "labels-times-ten",
             "labels-not-integers", "three-slots", "two-components",
             "multiplicity"],
    )
    def test_malformed_direct_code_raises_when_built(self, tuples, error):
        with pytest.raises(error):
            DiagramCode(tuples)


class TestLabels:
    LEFT_TREFOIL = [(1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)]

    def test_labels_1_to_2n_are_kept(self, monkeypatch):
        def refuse(tuples):
            raise AssertionError("labels 1..2n renamed")

        monkeypatch.setattr(diagram, "relabel_tuples", refuse)
        d = DiagramCode.from_tuples(self.LEFT_TREFOIL)
        assert d.crossings == tuple(self.LEFT_TREFOIL)
        tuples = torus_pd(5, 41).crossings
        assert DiagramCode.from_tuples(tuples).crossings == tuples

    def test_parse_pd_renames_only_through_from_tuples(self, monkeypatch):
        def refuse(cls, tuples):
            raise AssertionError("from_tuples called")

        monkeypatch.setattr(DiagramCode, "from_tuples", classmethod(refuse))
        assert parse_pd(TREFOIL_TEXT).crossings == tuple(self.LEFT_TREFOIL)
        with pytest.raises(AssertionError):
            parse_pd("X(2,5,3,6) X(4,7,5,2) X(6,3,7,4)")

    def test_parse_pd_builds_the_code_from_tuples_builds(self):
        for d in load_fixture_file(CORPUS).values():
            for code in (d, mirror_diagram(d)):
                for shift, scale in ((0, 1), (1, 1), (7, 1), (0, 3)):
                    tuples = [tuple(scale * e + shift for e in t) for t in code.crossings]
                    got = parse_pd(" ".join("X(%d,%d,%d,%d)" % t for t in tuples))
                    want = DiagramCode.from_tuples(tuples)
                    assert got == want and got.crossings == code.crossings

    @pytest.mark.parametrize(
        "rename",
        [lambda e: "abcdef"[e - 1], lambda e: e + 0.5, lambda e: e - 1, lambda e: e - 4],
        ids=["strings", "floats", "0-based", "negative"],
    )
    def test_labels_other_than_positive_integers_are_kept(self, rename):
        tuples = [tuple(map(rename, t)) for t in self.LEFT_TREFOIL]
        with pytest.raises(PDSyntaxError) as direct:
            DiagramCode(tuples)
        with pytest.raises(PDSyntaxError) as err:
            DiagramCode.from_tuples(tuples)
        assert str(err.value) == str(direct.value) == "arc labels are not exactly 1..6"

    def test_other_labels_are_renamed_in_order(self):
        scaled = [tuple(10 * e for e in t) for t in self.LEFT_TREFOIL]
        assert DiagramCode.from_tuples(scaled).crossings == tuple(self.LEFT_TREFOIL)
        shifted = [tuple(e + 1 for e in t) for t in self.LEFT_TREFOIL]
        assert DiagramCode.from_tuples(shifted).crossings == tuple(self.LEFT_TREFOIL)

    @pytest.mark.parametrize(
        "tuples, bad",
        [
            ([(10, 40, 20, 50), (30, 60, 40, 10), (50, 20, 60, 60)], "[30, 60]"),
            ([(1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 6)], "[3, 6]"),
            ([(1, 4, 2, 5), (3, 7, 4, 1), (5, 2, 6, 3)], "[6, 7]"),
        ],
    )
    def test_multiplicity_error_names_the_given_labels(self, tuples, bad):
        with pytest.raises(ArcMultiplicityError) as err:
            DiagramCode.from_tuples(tuples)
        assert str(err.value) == "arc labels without exactly two ends: " + bad

    @pytest.mark.parametrize("build", [DiagramCode, DiagramCode.from_tuples])
    @pytest.mark.parametrize(
        "tuples, message",
        [
            # each label twice, but "a" and 1 cannot be ordered together
            ([(1, "a", 1, "a")], "arc labels are not exactly 1..2"),
            ([(1, 2, [], [])], "arc labels must be integers"),
            ([(1, "a", 2, "b")], "arc labels must be integers"),
        ],
    )
    def test_labels_that_cannot_be_ordered_or_counted(self, build, tuples, message):
        with pytest.raises(PDSyntaxError) as err:
            build(tuples)
        assert str(err.value) == message


def assert_same_geometry(tuples):
    """The geometry of `tuples` equals the reference's field by field, with
    incidence 4c + s read as the pair (c, s) and arcs keyed by label."""
    ref = geometry_reference(tuples)
    geom = diagram._Geometry(tuple(map(tuple, tuples)))
    assert geom.signs == ref.signs
    if not tuples:
        return
    assert [divmod(a, 4) for a in geom.walk] == list(ref.head.values())
    assert {e: divmod(a, 4) for e, a in enumerate(geom.head) if e} == ref.head
    assert {divmod(i, 4): f for i, f in enumerate(geom.face_of)} == ref.face_of
    assert geom.face_count == len(ref.faces)
    assert {e: k for e, k in enumerate(geom.circle_of) if e} == ref.circle_of
    assert {e: geom.head[e] >> 2 for e in ref.succ} == ref.succ_crossing
    assert geom.defect() == ref.defect()


def random_plats(rng, count):
    out = []
    while len(out) < count:
        strands = rng.choice((4, 6, 8))
        word = [
            rng.choice((1, -1)) * rng.randint(1, strands - 1)
            for _ in range(rng.randint(1, 3 * strands))
        ]
        tuples = plat_closure_tuples(word, strands)
        try:
            out.append(DiagramCode.from_tuples(tuples).crossings)
        except MultiComponentError:
            pass
    return out


class TestGeometryReference:
    def test_corpus_mirrors_and_kinks(self):
        for d in load_fixture_file(CORPUS).values():
            for code in (d, mirror_diagram(d), insert_kink(d, 1), insert_kink(d, -1)):
                assert_same_geometry(code.crossings)

    def test_random_braids_plats_and_a_torus_knot(self):
        # the 200 words of acceptance criterion 3
        rng = random.Random(20260818)
        for _ in range(200):
            strands = rng.randint(2, 5)
            length = rng.randint(strands + 3, 40)
            if (length - (strands - 1)) % 2:
                length -= 1
            word = random_knot_word(rng, strands, length)
            assert_same_geometry(braid.trace_closure_tuples(word))
        for tuples in random_plats(random.Random(3), 100):
            assert_same_geometry(tuples)
        assert_same_geometry(torus_pd(5, 41).crossings)
        assert_same_geometry([])

    @pytest.mark.parametrize(
        "tuples",
        [
            # under-strand entering at slot 2: the all-upward plat [2, 2, -1, 2]
            [(2, 4, 3, 1), (4, 6, 5, 3), (1, 5, 7, 8), (6, 2, 8, 7)],
            [(4, 1, 2, 1), (4, 3, 2, 3)],
            # a short walk: a Hopf link, and an arc from slot 2 back to slot 0
            [(2, 4, 3, 1), (4, 2, 1, 3)],
            [(1, 2, 1, 2)],
            # a rotation system with too few faces
            [(3, 2, 1, 4), (2, 1, 3, 4)],
            # labels out of range, or without exactly two ends
            [(2, 5, 3, 6), (4, 7, 5, 2), (6, 3, 7, 4)],
            [(0, 1, 0, 1)],
            [(-1, 1, -1, 1)],
            [(1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 6)],
            [(1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 7)],
            [(1, 1, 1, 1)],
            # not four integer slots
            [(1, 1, 2), (2, 3, 3)],
            [()],
            [("a", "b", "a", "b")],
            [(1.0, 2, 1.0, 2)],
        ],
    )
    def test_malformed_codes_raise_as_the_reference(self, tuples):
        with pytest.raises(ValueError) as ref:
            geometry_reference(tuples)
        with pytest.raises(ValueError) as new:
            DiagramCode(tuples)
        assert type(new.value) is type(ref.value)
        assert str(new.value) == str(ref.value)

    def test_random_codes_raise_as_the_reference(self):
        # every arrangement of the labels 1..2n, each twice, into n crossings;
        # the reference's "strand revisits crossing" never comes first, as
        # the slot-2 arrival or the end of the walk it needs comes before it
        rng = random.Random(4)
        outcomes = set()
        for _ in range(3000):
            n = rng.randint(1, 6)
            labels = [e for e in range(1, 2 * n + 1) for _ in (0, 1)]
            rng.shuffle(labels)
            tuples = [tuple(labels[4 * c:4 * c + 4]) for c in range(n)]
            try:
                geometry_reference(tuples)
            except ValueError as err:
                with pytest.raises(type(err)) as new:
                    DiagramCode(tuples)
                assert str(new.value) == str(err), tuples
                outcomes.add(str(err).split(" ")[0])
            else:
                assert_same_geometry(tuples)
                outcomes.add("valid")
        assert outcomes == {"valid", "under-strand", "closed", "rotation"}


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
        corpus = load_fixture_file(CORPUS)
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
            (random_knot_word(rng, 3, 8), 0),
            (random_knot_word(rng, 4, 9), 0),
            (random_knot_word(rng, 4, 13), -2),
            (random_knot_word(rng, 5, 12), -2),
        ]
        for word, expected in battery:
            d = DiagramCode.from_braid_word(word)
            assert gl_signature(d) == expected, word
            assert seifert_signature(d) == expected, word


def assert_goeritz_matches_reference(d):
    assert checkerboard(d) == checkerboard_reference(d)


class TestCheckerboardReference:
    """`checkerboard` returns what the former counter-based form did."""

    @given(closing_words(), st.sampled_from((1, -1)))
    def test_knot_words_mirrors_and_kinks(self, word, sign):
        d = DiagramCode.from_braid_word(word)
        for code in (d, mirror_diagram(d), insert_kink(d, sign)):
            assert_goeritz_matches_reference(code)

    @given(st.integers(2, 9), st.integers(1, 30))
    def test_torus_codes(self, p, q):
        if math.gcd(p, q) == 1:
            assert_goeritz_matches_reference(torus_pd(p, q))

    @given(st.sampled_from(TWIST_SPECS), st.integers(-40, 40))
    def test_twisted_codes(self, spec, q):
        assert_goeritz_matches_reference(twistfam.twist_insert(spec, (q,)))

    @given(st.randoms(use_true_random=False))
    def test_plats(self, rng):
        assert_goeritz_matches_reference(DiagramCode(random_plats(rng, 1)[0]))

    def test_corpus_mirrors_and_kinks(self):
        for d in load_fixture_file(CORPUS).values():
            for code in (d, mirror_diagram(d), insert_kink(d, 1), insert_kink(d, -1)):
                assert_goeritz_matches_reference(code)

    @given(closing_words(min_strands=2), st.data())
    def test_lacks_a_diagonal_white_pair(self, word, data):
        # Point one corner of crossing c at the face of the corner before
        # it, which has the other colour. No arrival reads that corner (2
        # when the over-strand arrives at slot 1, a negative crossing; 1
        # when at slot 3), so the colouring stays as it was and c is the
        # first crossing left without a diagonal white pair.
        d = DiagramCode.from_braid_word(word)
        c = data.draw(st.integers(0, d.n - 1))
        k = 4 * c + (2 if d.signs[c] < 0 else 1)
        face_of = list(d._geom.face_of)
        face_of[k] = face_of[k - 1]
        geom = SimpleNamespace(**{**vars(d._geom), "face_of": face_of})
        bad = SimpleNamespace(_geom=geom, n=d.n)
        message = "crossing %d lacks a diagonal white pair" % c
        for build in (checkerboard, checkerboard_reference):
            with pytest.raises(PDSyntaxError) as err:
                build(bad)
            assert str(err.value) == message


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
        corpus = load_fixture_file(CORPUS)
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
        # 420 moves, where no corpus diagram needs more than 12
        tuples = load_script("make_corpus").pretzel_tuples((-5, 7, 9, 11, 13))
        word = diagram.braid_word(DiagramCode.from_tuples(tuples))
        assert len(word) == 885
        digest = hashlib.sha256(",".join(map(str, word)).encode()).hexdigest()
        assert digest.startswith("bb866517dd6d8d49")

    def test_only_the_seifert_side_finds_circles(self):
        # building a code, reading it from a census row and the Goeritz side
        # leave the circles unbuilt; braid_word builds them on the code's
        # own geometry
        sample = importlib.resources.files("knotsig") / "data" / "sample_census.csv"
        codes = [row.pd for row in census.ingest(sample) if row.pd is not None]
        codes += load_fixture_file(CORPUS).values()
        for d in codes:
            gl_signature(d)
            assert "circle_of" not in vars(d._geom)
            diagram.braid_word(d)
            assert "circle_of" in vars(d._geom)

    def test_vogel_moves_equal_fresh_builds(self, monkeypatch):
        # a move pairs only the ends of the arcs it touches and copies the
        # rest from its parent; its geometry must be the one a full build
        # of its code gives
        move = diagram._vogel_move
        fields = (
            "n", "tuples", "labels", "other", "walk", "head", "signs",
            "face_of", "face_count", "circle_of",
        )
        moves = 0

        def checked(geom, defect):
            nonlocal moves
            g = move(geom, defect)
            fresh = diagram._Geometry(g.tuples)
            for name in fields:
                assert getattr(g, name) == getattr(fresh, name), name
            assert g.defect() == fresh.defect()
            moves += 1
            return g

        monkeypatch.setattr(diagram, "_vogel_move", checked)
        codes = []
        for d in load_fixture_file(CORPUS).values():
            codes += [d, mirror_diagram(d), insert_kink(d, 1), insert_kink(d, -1)]
        codes += map(DiagramCode, random_plats(random.Random(3), 100))
        for d in codes:
            diagram.braid_word(d)
        assert moves == 2069

    def test_vogel_move_checks_the_ends_it_pairs(self):
        # the same arc twice: its arrival slot is rewritten twice, so the
        # arc gets three ends and a3 (2n + 2), written there first, one
        d = DiagramCode.from_braid_word([1, -2, 1, -2])
        e = d._geom.labels[0]
        with pytest.raises(RuntimeError) as err:
            diagram._vogel_move(d._geom, (e, e, 0))
        assert str(err.value) == (
            "coherence move made an invalid code: "
            "arc labels without exactly two ends: [2, 10]"
        )

    def test_kink_then_unknot_word(self):
        d = insert_kink(DiagramCode.from_tuples([]), sign=1)
        assert d.signs == (1,)
        assert gl_signature(d) == 0
        assert seifert_signature(d) == 0

    def test_torus_seifert_side_within_budget(self):
        # V + V^T of dimension 20,000: a dense V would need about 3.2 GB
        d = torus_pd(2, 20001)
        assert call_within_budget(seifert_signature, (d,), seconds=5) == -20000


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
        return random_knot_word(rng, s, length, max_tries=500)

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
