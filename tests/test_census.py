"""Census ingestion, derived statistics, and deterministic emission."""

import csv
import gc
import hashlib
import importlib.resources
import io
import json
import math
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from knotsig import census, diagram
from knotsig.census import CensusFormatError, CensusRow, DerivedRow, StatsReport
from knotsig.cli import main
from knotsig.cusp import (
    GeometryWarning,
    _require_finite_number,
    c1_statistic,
    natural_slope,
    normalized_signature,
)
from knotsig.diagram import gl_signature, parse_pd, pd_text
from knotsig.geodesic import GeodesicRecord
from knotsig.torus import torus_pd

from oracles import emit_reference, format_geodesics_reference, ingest_reference

HEADER = (
    "name,crossings,signature,volume,inj_radius,"
    "meridian_re,meridian_im,longitude,geodesics,pd"
)

SAMPLE = importlib.resources.files("knotsig") / "data" / "sample_census.csv"


def write_csv(tmp_path, *lines, name="census.csv"):
    path = tmp_path / name
    path.write_text("\n".join((HEADER,) + lines) + "\n", encoding="utf-8")
    return path


def make_row(name="K", sigma=-2, volume=4.0, meridian=complex(0.8, 1.0), **kw):
    kw.setdefault("crossings", 5)
    kw.setdefault("inj", 0.5)
    kw.setdefault("longitude", 5.0)
    return CensusRow(name=name, sigma=sigma, volume=volume, meridian=meridian, **kw)


class TestIngest:
    def test_header_only_gives_empty_list(self, tmp_path):
        assert census.ingest(write_csv(tmp_path)) == []

    def test_bundled_sample(self):
        rows = census.ingest(SAMPLE)
        by_name = {r.name: r for r in rows}
        assert set(by_name) == {"6_1", "12a52", "12n242"}
        from knotsig.cusp import natural_slope

        assert natural_slope(by_name["6_1"].geom.cusp) == pytest.approx(1.8267, abs=1e-3)
        assert natural_slope(by_name["12a52"].geom.cusp) == pytest.approx(
            -18.6064, abs=1e-3
        )

    def test_bundled_sample_is_quiet(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            census.ingest(SAMPLE)

    def test_negative_imaginary_meridian_conjugated(self, tmp_path):
        path = write_csv(tmp_path, "K,5,-2,4.0,0.5,0.8,-1.0,5.0,,")
        with pytest.warns(GeometryWarning, match="line 2.*conjugat"):
            rows = census.ingest(path)
        assert rows[0].meridian == complex(0.8, 1.0)

    def test_non_numeric_field_reports_line(self, tmp_path):
        path = write_csv(
            tmp_path,
            "A,5,-2,4.0,0.5,0.8,1.0,5.0,,",
            "B,5,-2,huge,0.5,0.8,1.0,5.0,,",
        )
        with pytest.raises(CensusFormatError, match="line 3"):
            census.ingest(path)

    def test_row_after_blank_lines_reports_its_own_line(self, tmp_path):
        # csv.DictReader reports a row's own line after blank lines: its
        # __next__ reads the `fieldnames` property after skipping them,
        # and that property sets line_num again
        low = "K,2,-2,4.0,0.5,0.8,1.0,5.0,,"
        text = "\n".join([HEADER, "", "", WARNED.replace("K", "W"), "", "", low])
        reader = csv.DictReader(io.StringIO(text))
        assert [(rec["name"], reader.line_num) for rec in reader] == [("W", 4), ("K", 7)]
        path = write_csv(tmp_path, *text.split("\n")[1:])
        for ingest in (census.ingest, ingest_reference):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(CensusFormatError) as err:
                    ingest(path)
            assert str(err.value) == "%s line 7: crossing number must be at least 3" % path
            # the meridian and the injectivity radius of row W warn
            assert [str(w.message).split(": ")[0] for w in caught] == ["census.csv line 4"] * 2

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("name,crossings\nK,5\n", encoding="utf-8")
        with pytest.raises(CensusFormatError, match="missing columns"):
            census.ingest(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(CensusFormatError, match="header"):
            census.ingest(path)

    def test_unreadable_path_rejected(self, tmp_path):
        with pytest.raises(CensusFormatError, match="cannot read"):
            census.ingest(tmp_path / "no_such.csv")

    def test_odd_signature_rejected(self, tmp_path):
        path = write_csv(tmp_path, "K,5,-3,4.0,0.5,0.8,1.0,5.0,,")
        with pytest.raises(CensusFormatError, match="line 2"):
            census.ingest(path)

    def test_low_crossing_count_rejected(self, tmp_path):
        path = write_csv(tmp_path, "K,2,-2,4.0,0.5,0.8,1.0,5.0,,")
        with pytest.raises(CensusFormatError, match="crossing"):
            census.ingest(path)

    def test_pd_over_the_size_limit_names_line(self, tmp_path, monkeypatch):
        monkeypatch.setattr(diagram, "MAX_PD_CROSSINGS", 2)
        path = write_csv(
            tmp_path,
            'K,5,-2,4.0,0.5,0.8,1.0,5.0,,"X(1,3,2,6) X(3,5,4,2) X(5,1,6,4)"',
        )
        with pytest.raises(CensusFormatError) as err:
            census.ingest(path)
        assert str(err.value) == (
            "%s line 2: diagram code has 3 crossings, more than the limit of 2" % path
        )

    def test_field_past_csv_limit_names_line(self, tmp_path):
        # csv's limit is process-wide and stays as it is; the warnings of
        # the row before are still issued
        limit = csv.field_size_limit()
        pd = " ".join(["X(1,2,3,4)"] * (limit // 11 + 2))
        path = write_csv(tmp_path, WARNED, '%s"%s"' % (GOOD, pd))
        message = "field larger than field limit (%d)" % limit
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(CensusFormatError) as err:
                census.ingest(path)
        assert str(err.value) == "%s line 3: %s" % (path, message)
        assert [str(w.message).split(": ")[0] for w in caught] == ["census.csv line 2"] * 2
        assert csv.field_size_limit() == limit
        path.write_text('"%s",%s\n' % ("x" * (limit + 1), HEADER), encoding="utf-8")
        with pytest.raises(CensusFormatError) as err:
            census.ingest(path)
        assert str(err.value) == "%s line 1: %s" % (path, message)

    def test_geodesics_round_trip(self):
        text = "0.2+3.1415i:odd;0.5-0.25i:even:1.25"
        geos = census.parse_geodesics(text)
        assert geos[0].linking_parity == "odd"
        assert geos[1].tube_radius == 1.25
        assert census.parse_geodesics(census.format_geodesics(geos)) == geos

    def test_bad_geodesic_rejected(self, tmp_path):
        path = write_csv(tmp_path, "K,5,-2,4.0,0.5,0.8,1.0,5.0,nonsense,")
        with pytest.raises(CensusFormatError, match="line 2"):
            census.ingest(path)
        # a tube radius that is not a number names its geodesic
        with pytest.raises(ValueError, match=r"geodesic '0\.1\+0\.1i:odd:abc'"):
            census.parse_geodesics("0.2+3.1415i:odd;0.1+0.1i:odd:abc")

    @pytest.mark.parametrize("where", ["header", "row"])
    def test_non_utf8_byte_names_the_file(self, tmp_path, where):
        # the text layer decodes ahead of the csv reader, so no line is named
        path = tmp_path / "census.csv"
        text = "\n".join([HEADER, GOOD, GOOD, "K\udcff" + GOOD[1:], GOOD]) + "\n"
        if where == "header":
            text = "\udcff" + text
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        with pytest.raises(CensusFormatError) as err:
            census.ingest(path)
        assert str(err.value) == "%s: not UTF-8 text (byte 0xff)" % path
        assert isinstance(err.value.__cause__, UnicodeDecodeError)

    def test_pd_code_is_kept_as_its_canonical_text(self, tmp_path):
        # labels that are not 1..2n come back renamed, one space between terms
        path = write_csv(tmp_path, '%s" X(10,30,20,60)  X(30,50,40,20)\tX(50,10,60,40) "' % GOOD)
        (row,) = census.ingest(path)
        assert row.pd == "X(1,3,2,6) X(3,5,4,2) X(5,1,6,4)"
        c1, _ = census.emit(census.derive([row]), tmp_path / "one")
        assert c1.read_text(encoding="utf-8").splitlines()[1].startswith(
            '%s"X(1,3,2,6) X(3,5,4,2) X(5,1,6,4)",' % GOOD
        )
        c2, _ = census.emit(census.derive(census.ingest(c1)), tmp_path / "two")
        assert c2.read_bytes() == c1.read_bytes()

    def test_retains_a_small_multiple_of_the_file(self, tmp_path):
        # rows of a 2,000-crossing code keep the code's text, not its geometry
        code = pd_text(torus_pd(2, 2001))
        path = write_csv(tmp_path, *['K%d%s"%s"' % (i, GOOD[1:], code) for i in range(20)])
        gc.collect()
        tracemalloc.start()
        try:
            rows = census.ingest(path)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert [r.pd for r in rows] == [code] * 20
        assert retained <= 2 * path.stat().st_size


# census fields per column: values that parse, some of them with a soft
# geometry warning, and malformed ones. The meridian pairs (0.8, -1.0) and
# (0.1, 0.5), volume 1.5 and injectivity radius 1.9 warn. A name with a
# line break spans two lines.
FIELD_VALUES = {
    "name": (("K", " 6_1 ", "a\nb"), ("", " ")),
    "crossings": (("5", "12"), ("2", "x")),
    "signature": (("-2", "0"), ("-3", "1.5")),
    "volume": (("4.0", "1.5"), ("huge", "1e999")),
    "inj_radius": (("0.5", "1.9"), ("0",)),
    "meridian_re": (("0.8", "0.1"), ("x",)),
    "meridian_im": (("1.0", "-1.0", "0.5"), ("nan",)),
    "longitude": (("5.0",), ("-1",)),
    "geodesics": (("", "0.2+3.1415i:odd;0.5-0.25i:even:1.25"), ("nonsense",)),
    "pd": (("", "X(1,3,2,6) X(3,5,4,2) X(5,1,6,4)"), ("X(1,2,3,4) junk", "X(1,1,2,2)")),
}
GOOD = "K,5,-2,4.0,0.5,0.8,1.0,5.0,,"
WARNED = "K,5,-2,4.0,1.9,0.8,-1.0,5.0,,"


@st.composite
def census_texts(draw):
    """CSV text for ingest, and how it is read: "stream", "path", or
    "bom", a path to the text behind a UTF-8 byte-order mark."""
    header = list(draw(st.permutations(census._COLUMNS)))
    if draw(st.booleans()):
        # a repeated name, whose last column is the one read
        at = draw(st.integers(0, len(header)))
        header.insert(at, draw(st.sampled_from(census._COLUMNS)))
    if draw(st.integers(0, 9)) == 0:
        gone = draw(st.sampled_from(census._COLUMNS))
        header = [h for h in header if h != gone]
    if draw(st.booleans()):
        header.append("note")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 4)) == 0:
            out.write("\n")
            continue
        row = []
        for h in header:
            fine, malformed = FIELD_VALUES.get(h, (("x",), ("x",)))
            pool = malformed if draw(st.integers(0, 39)) == 0 else fine
            row.append(draw(st.sampled_from(pool)))
        if draw(st.integers(0, 5)) == 0:
            # a short row, or one with extra fields
            row = (row + ["extra", "extra"])[: draw(st.integers(1, len(row) + 2))]
        writer.writerow(row)
    return out.getvalue(), draw(st.sampled_from(("stream", "path", "bom")))


def ingest_outcome(ingest, source, action):
    """The rows or the error (type and text) of ingest(source), and the
    warnings it issued (category and text, in order), under `action`."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action)
        try:
            result = ingest(source())
        except Exception as exc:
            result = (type(exc), str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


class TestIngestOracle:
    @pytest.mark.parametrize("action", ["always", "default", "error"])
    @given(case=census_texts())
    # blank lines, a short row, extra fields and a repeated name; a warned
    # row, then a blank line, then a malformed row
    @example(
        case=(
            "\n".join(
                [
                    HEADER + ",name",
                    WARNED + ",A",
                    "",
                    'B,5,-2,4.0,0.5,0.8,1.0,5.0,0.2+3.1415i:odd,'
                    '"X(1,3,2,6) X(3,5,4,2) X(5,1,6,4)",C,extra,extra',
                    "",
                    "",
                    "D,5,-2,4.0,0.5,0.8,1.0,5.0",
                    WARNED + ",E",
                    "F,5,-2,4.0,0.5,0.8,1.0",
                ]
            )
            + "\n",
            "bom",
        )
    )
    @example(case=("name,crossings\nK,5\n", "path"))
    @example(case=("\n".join([HEADER, GOOD, WARNED, GOOD.replace("-2", "-3")]), "stream"))
    @example(case=("\n".join([HEADER, WARNED, GOOD.replace("4.0", "huge")]), "path"))
    @example(case=("\n".join([HEADER, WARNED, GOOD + '"X(1,2,3,4) junk"']), "stream"))
    def test_matches_the_dict_reader_ingest(self, action, case):
        text, how = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "census.csv"
            path.write_text(("\ufeff" if how == "bom" else "") + text, encoding="utf-8")
            source = (lambda: io.StringIO(text)) if how == "stream" else (lambda: path)
            want = ingest_outcome(ingest_reference, source, action)
            assert ingest_outcome(census.ingest, source, action) == want


class TestDerive:
    def test_flat_row_derives_zero(self):
        row = make_row(sigma=0, meridian=1j, longitude=2.0, volume=3.0)
        report = census.derive([row])
        (d,) = report.rows
        assert d.slope == 0.0
        assert d.c1 == 0.0
        assert d.sigma_hat == 0.0

    def test_sample_residual(self):
        report = census.derive(census.ingest(SAMPLE))
        by_name = {d.row.name: d for d in report.rows}
        assert abs(by_name["12a52"].gap) == pytest.approx(2.6064, abs=1e-3)

    def test_rows_ordered_by_name(self):
        rows = [make_row(name) for name in ("b", "a", "c")]
        report = census.derive(rows)
        assert [d.row.name for d in report.rows] == ["a", "b", "c"]

    def test_envelope_fraction(self):
        inside = make_row("in", sigma=0, meridian=1j, longitude=2.0)
        outside = make_row("out", sigma=-8, meridian=1j, longitude=2.0)
        report = census.derive([inside, outside])
        # slope 0 for both: gaps 0 and 16 against a cutoff of 2*sqrt(4)+2
        assert report.envelope_fraction == 0.5

    def test_reaggregation_is_idempotent(self):
        report = census.derive(census.ingest(SAMPLE))
        again = census.aggregate(report.rows, report.envelope_b, report.envelope_c)
        assert again == report

    def test_aggregation_linearity(self):
        rows_a = [make_row("a%d" % i, sigma=-2 * i) for i in range(1, 4)]
        rows_b = [make_row("b%d" % i, sigma=2 * i) for i in range(1, 6)]
        mean_of = lambda rows: statistics_mean(census.derive(rows))
        combined = census.derive(rows_a + rows_b)
        na, nb = len(rows_a), len(rows_b)
        want = (na * mean_of(rows_a) + nb * mean_of(rows_b)) / (na + nb)
        assert statistics_mean(combined) == pytest.approx(want, rel=1e-12)

    def test_correlation_none_when_degenerate(self):
        assert census.derive([make_row()]).correlation is None
        assert census.derive([]).correlation is None

    def test_empty_report(self):
        report = census.derive([])
        assert report.rows == ()
        assert report.c1_hist == ()
        assert report.envelope_fraction is None

    def test_hist_counts_cover_rows(self):
        report = census.derive(census.ingest(SAMPLE))
        assert sum(n for _, n in report.c1_hist) == len(report.rows)
        assert all(lo >= 0 for lo, _ in report.c1_hist)

    def test_pd_signature_matches_column(self):
        for row in census.ingest(SAMPLE):
            if row.pd is not None:
                assert gl_signature(parse_pd(row.pd)) == row.sigma

    @pytest.mark.filterwarnings("ignore::knotsig.cusp.GeometryWarning")
    @pytest.mark.parametrize(
        "inj, count, why",
        [
            # c1 about 4.3e307: finite, but c1 / 0.02 is not
            (3e102, 1, "cannot convert float infinity to integer"),
            # c1 about 1.6e306 each: their sum in fmean is not finite
            (1e102, 200, "intermediate overflow in fsum"),
        ],
    )
    def test_statistics_past_the_float_range_raise(self, inj, count, why):
        rows = [make_row("K%d" % i, inj=inj) for i in range(count)]
        with pytest.raises(CensusFormatError) as err:
            census.derive(rows)
        assert str(err.value) == "census statistics leave the float range: " + why

    @pytest.mark.filterwarnings("ignore::knotsig.cusp.GeometryWarning")
    def test_equal_signatures_have_no_correlation_near_the_float_limit(self):
        # the slopes' squared spread is inf, and inf * 0 met the zero check as nan
        rows = [
            make_row("K%d" % i, sigma=0, inj=0.01, longitude=longitude)
            for i, longitude in enumerate((3.3e307, 6.7e307, 1e308))
        ]
        assert census.derive(rows).correlation is None

    def test_correlation_past_the_float_range_raises(self):
        # both spreads and their cross sum are inf, so the quotient is nan
        pairs = ((2 * 10**200, 1e200), (-2 * 10**200, -1e200), (0, 0.0))
        derived = [
            DerivedRow(make_row("K%d" % i, sigma=sigma), slope, 0.0, 0.0, 0.0, 0.0)
            for i, (sigma, slope) in enumerate(pairs)
        ]
        with pytest.raises(CensusFormatError) as err:
            census.aggregate(derived)
        assert str(err.value) == (
            "census statistics leave the float range: correlation must be finite, got nan"
        )

    @pytest.mark.filterwarnings("ignore::knotsig.cusp.GeometryWarning")
    def test_column_past_the_float_range_names_the_row(self, tmp_path, capsys):
        # c1 is 4e305, but sigma / sqrt(volume) and gap / sqrt(volume) are not floats
        path = write_csv(tmp_path, "B,5,%d,1e-300,1e-65,0.8,1.0,5.0,," % (2 * 10**200))
        out = tmp_path / "out"
        assert main(["census-stats", str(path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: row B: normalized signature must be finite, got inf\n"
        assert not out.exists()


finite_floats = st.floats(allow_nan=False, allow_infinity=False)
positive_floats = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


class TestDerivedColumns:
    """Each derived column is the value of the public function it stands
    for, bit for bit, and a row that one of them refuses, or whose column
    leaves the float range, raises its error."""

    @pytest.mark.filterwarnings("ignore::knotsig.cusp.GeometryWarning")
    @given(
        longitude=positive_floats,
        re=finite_floats,
        im=positive_floats,
        volume=positive_floats,
        inj=positive_floats,
        half_sigma=st.one_of(st.integers(-50, 50), st.integers(-(10**300), 10**300)),
    )
    @example(longitude=5.0, re=0.8, im=1.0, volume=4.0, inj=0.5, half_sigma=-1)
    @example(longitude=5.0, re=-0.0, im=1.0, volume=4.0, inj=0.5, half_sigma=0)
    # inj**3 underflows, then overflows
    @example(longitude=5.0, re=0.8, im=1.0, volume=4.0, inj=1e-110, half_sigma=-1)
    @example(longitude=5.0, re=0.8, im=1.0, volume=4.0, inj=1e103, half_sigma=-1)
    # c1 past the floats; |meridian|^2 underflows; sigma / sqrt(volume) and
    # gap / sqrt(volume) overflow to inf, which the row refuses
    @example(longitude=5.0, re=0.8, im=1.0, volume=1e-300, inj=1e100, half_sigma=-1)
    @example(longitude=5.0, re=1e-170, im=1e-170, volume=4.0, inj=0.5, half_sigma=-1)
    @example(longitude=5.0, re=0.8, im=1.0, volume=1e-300, inj=1e-65, half_sigma=10**200)
    def test_columns_equal_the_public_functions(self, longitude, re, im, volume, inj, half_sigma):
        sigma = 2 * half_sigma
        row = make_row(
            sigma=sigma, volume=volume, meridian=complex(re, im), inj=inj, longitude=longitude
        )
        g = row.geom
        try:
            slope = natural_slope(g.cusp)
            gap = 2 * sigma - slope
            want = (
                slope,
                gap,
                c1_statistic(g),
                _require_finite_number(normalized_signature(g), "normalized signature"),
                _require_finite_number(gap / math.sqrt(volume), "residual over sqrt(volume)"),
            )
        except ValueError as exc:
            with pytest.raises(CensusFormatError) as err:
                census._derive_row(row)
            assert str(err.value) == "row K: %s" % exc
            return
        d = census._derive_row(row)
        got = (d.slope, d.gap, d.c1, d.sigma_hat, d.gap_normalized)
        assert got == want
        # repr tells -0.0 from 0.0, which == does not
        assert list(map(repr, got)) == list(map(repr, want))


def statistics_mean(report):
    # overall mean c1, recovered from the per-crossing buckets
    counts = {}
    for d in report.rows:
        counts[d.row.crossings] = counts.get(d.row.crossings, 0) + 1
    num = sum(mean * counts[c] for c, _, mean in report.c1_by_crossing)
    return num / len(report.rows)


class TestSignAgreement:
    def test_empty_selection_is_none(self):
        quiet = make_row(sigma=0)
        assert census.sign_agreement([quiet]) is None
        assert census.sign_agreement([]) is None

    def test_sample_agrees(self):
        assert census.sign_agreement(census.ingest(SAMPLE)) == 1.0

    def test_disagreement_counted(self):
        row = make_row(sigma=-8, meridian=complex(0.8, 1.0))
        assert census.sign_agreement([row]) == 0.0


# every float, -0.0, NaN and the infinities among them, and integers far
# beyond 2**63
numbers = st.one_of(
    st.floats(),
    st.sampled_from((-0.0, math.nan, math.inf, -math.inf, 2**63, -(2**63) - 1)),
    st.integers(-(2**200), 2**200),
)
# lists of rows, either of them possibly empty, as emit's payload holds
number_rows = st.lists(st.lists(numbers, max_size=4), max_size=6)

# names and geodesic parities for emit: commas, quotes, LF, spaces and
# non-ASCII text, but no CR, which csv.writer on Python 3.10-3.12 writes
# unquoted
emit_text = st.text(
    st.one_of(st.sampled_from(',"\n \t;:é'), st.characters(exclude_characters="\r")),
    max_size=8,
)
TREFOIL = "X(1,3,2,6) X(3,5,4,2) X(5,1,6,4)"


def unchecked(cls, **fields):
    """A value of `cls` holding `fields` as given, past its validation."""
    value = cls.__new__(cls)
    value.__setstate__(fields)
    return value


@st.composite
def derived_rows(draw):
    """A derived row as emit reads it, any number in any numeric column."""
    geodesics = tuple(
        unchecked(
            GeodesicRecord,
            complex_length=complex(draw(st.floats()), draw(st.floats())),
            linking_parity=draw(emit_text),
            tube_radius=draw(st.none() | numbers),
        )
        for _ in range(draw(st.integers(0, 2)))
    )
    row = unchecked(
        CensusRow,
        name=draw(emit_text),
        crossings=draw(numbers),
        sigma=draw(numbers),
        volume=draw(numbers),
        inj=draw(numbers),
        meridian=complex(draw(st.floats()), draw(st.floats())),
        longitude=draw(numbers),
        geodesics=geodesics,
        pd=draw(st.sampled_from((None, TREFOIL, ""))),
    )
    return DerivedRow(row, *[draw(numbers) for _ in range(5)])


# a row whose name holds a lone surrogate, which UTF-8 cannot encode
SURROGATE_ROW = DerivedRow(
    unchecked(CensusRow, name="K\udcff", crossings=5, sigma=-2, volume=4.0, inj=0.5,
              meridian=complex(0.8, 1.0), longitude=5.0, geodesics=(), pd=None),
    1.25, -5.25, 0.5, -1.0, -2.625,
)


class TestEmit:
    def test_schema_keys(self, tmp_path):
        report = census.derive(census.ingest(SAMPLE))
        _, json_path = census.emit(report, tmp_path)
        payload = json.loads(json_path.read_text(encoding="utf-8"))
        assert payload["schema_version"] == 1
        assert set(payload) == {
            "schema_version",
            "c1_hist",
            "slope_vs_sig",
            "c1_by_crossing",
        }
        assert len(payload["slope_vs_sig"]) == 3

    def test_rerun_is_byte_identical(self, tmp_path):
        report = census.derive(census.ingest(SAMPLE))
        c1, j1 = census.emit(report, tmp_path / "one")
        c2, j2 = census.emit(report, tmp_path / "two")
        assert c1.read_bytes() == c2.read_bytes()
        assert j1.read_bytes() == j2.read_bytes()

    def test_empty_report_emits_valid_files(self, tmp_path):
        c, j = census.emit(census.derive([]), tmp_path)
        assert c.read_text(encoding="utf-8").startswith("name,")
        assert json.loads(j.read_text(encoding="utf-8"))["c1_hist"] == []

    def test_derived_csv_is_a_fixed_point(self, tmp_path):
        report = census.derive(census.ingest(SAMPLE))
        c1, j1 = census.emit(report, tmp_path / "one")
        report2 = census.derive(census.ingest(c1))
        c2, j2 = census.emit(report2, tmp_path / "two")
        assert c1.read_bytes() == c2.read_bytes()
        assert j1.read_bytes() == j2.read_bytes()

    def test_plots_json_is_the_indented_dump(self, tmp_path):
        _, j = census.emit(census.derive(census.ingest(SAMPLE)), tmp_path)
        text = j.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"

    @given(
        st.fixed_dictionaries(
            {
                "schema_version": numbers,
                "c1_hist": number_rows,
                "slope_vs_sig": number_rows,
                "c1_by_crossing": number_rows,
            }
        )
    )
    def test_plots_json_matches_the_indenting_encoder(self, payload):
        want = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert census._plots_json(payload) == want

    def test_sample_output_bytes_pinned(self, tmp_path, capsys):
        assert main(["census-stats", str(SAMPLE), "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        digest = lambda name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert digest("derived.csv") == (
            "93d6328156863dd4060e4abb48d861dc79ab485d44be422e14ffbda1ba4e8aa6"
        )
        assert digest("plots.json") == (
            "80db91b011221419dcf924b5bd1e89e8c49737ee1f495b9fec7bfda75273a521"
        )

    def test_uses_lf_line_endings(self, tmp_path):
        c, _ = census.emit(census.derive(census.ingest(SAMPLE)), tmp_path)
        assert b"\r" not in c.read_bytes()

    @given(
        st.lists(
            st.builds(
                GeodesicRecord,
                st.builds(
                    complex,
                    st.floats(min_value=5e-324, allow_infinity=False),
                    st.floats(-math.pi, math.pi, exclude_min=True) | st.sampled_from((0.0, -0.0)),
                ),
                st.sampled_from(("odd", "even")),
                st.none() | st.floats(min_value=5e-324, allow_infinity=False),
            )
            | st.builds(
                lambda re, im, radius: unchecked(
                    GeodesicRecord,
                    complex_length=complex(re, im),
                    linking_parity="odd",
                    tube_radius=radius,
                ),
                st.floats(),
                st.floats(),
                st.none() | numbers,
            ),
            max_size=4,
        )
    )
    @example([GeodesicRecord(complex(0.2, -0.0), "odd", 0.5), GeodesicRecord(complex(1e-300, -3.0), "even")])
    @example([unchecked(GeodesicRecord, complex_length=complex(math.inf, math.nan),
                        linking_parity="odd", tube_radius=-0.0)])
    def test_geodesics_text_matches_the_reference(self, geos):
        # records as ingest builds them, with tube radii and imaginary parts
        # that are negative or zero, and any floats past validation, as the
        # emit test draws them
        assert census.format_geodesics(geos) == format_geodesics_reference(geos)

    @given(rows=st.lists(derived_rows(), max_size=4))
    @example(rows=[])
    @example(rows=[SURROGATE_ROW])
    def test_matches_the_csv_writer_emit(self, rows):
        report = StatsReport(tuple(rows), 2.0, 2.0, (), None, (), None)
        with tempfile.TemporaryDirectory() as tmp:
            try:
                want = emit_reference(report, Path(tmp) / "want")
            except UnicodeEncodeError:
                # a lone surrogate in a text field: emit refuses it before
                # it writes anything
                with pytest.raises(CensusFormatError):
                    census.emit(report, Path(tmp) / "got")
                assert not (Path(tmp) / "got" / "derived.csv").exists()
                return
            got = census.emit(report, Path(tmp) / "got")
            assert [p.read_bytes() for p in got] == [p.read_bytes() for p in want]

    def test_unencodable_row_leaves_the_files_as_they_were(self, tmp_path):
        report = census.derive(census.ingest(SAMPLE))
        paths = census.emit(report, tmp_path)
        before = [p.read_bytes() for p in paths]
        rows = report.rows[:1] + (SURROGATE_ROW,) + report.rows[1:]
        with pytest.raises(CensusFormatError) as err:
            census.emit(census.aggregate(rows), tmp_path)
        assert str(err.value) == "row K\udcff: not UTF-8 text (character '\\udcff')"
        assert [p.read_bytes() for p in paths] == before

    def test_field_with_a_cr_reads_back(self, tmp_path, capsys):
        # csv.writer on Python 3.10-3.12 quoted the first name for its comma,
        # but wrote the second, whose only special character is a CR, bare,
        # and that derived.csv did not read back. A parity's CR is stripped
        path = write_csv(
            tmp_path,
            '"K\r,""x",5,-2,4.0,0.5,0.8,1.0,5.0,"0.2+3.1415i:\rodd",',
            '"L\ry",5,-2,4.0,0.5,0.8,1.0,5.0,,',
        )
        one, two = tmp_path / "one", tmp_path / "two"
        assert main(["census-stats", str(path), "--out", str(one)]) == 0
        assert main(["census-stats", str(one / "derived.csv"), "--out", str(two)]) == 0
        capsys.readouterr()
        lines = (one / "derived.csv").read_bytes().split(b"\n")
        assert lines[1].startswith(b'"K\r,""x",5,') and b",0.2+3.1415i:odd," in lines[1]
        assert lines[2].startswith(b'"L\ry",5,')
        for name in ("derived.csv", "plots.json"):
            assert (one / name).read_bytes() == (two / name).read_bytes()
