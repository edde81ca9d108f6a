"""Census ingestion, derived statistics, and deterministic emission."""

import importlib.resources
import math
import warnings

import pytest

from knotsig import census
from knotsig.census import CensusFormatError, CensusRow
from knotsig.cusp import GeometryWarning
from knotsig.diagram import gl_signature

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
                assert gl_signature(row.pd) == row.sigma


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


class TestEmit:
    def test_schema_keys(self, tmp_path):
        import json

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
        import json

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

    def test_uses_lf_line_endings(self, tmp_path):
        c, _ = census.emit(census.derive(census.ingest(SAMPLE)), tmp_path)
        assert b"\r" not in c.read_bytes()
