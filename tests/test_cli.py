"""CLI subcommands against direct library calls, plus exit-code contracts."""

import io
import json

import pytest

from knotsig import census
from knotsig.cli import build_parser, main
from knotsig.cusp import (
    CuspShape,
    KnotGeom,
    c1_statistic,
    exceptional_window,
    g4_lower_bound,
    genus_lower_bound,
    natural_slope,
    slope_length,
)
from knotsig.geodesic import GeodesicRecord, corrected_slope_estimate, twisting_parameter
from knotsig.torus import kappa
from knotsig.twistfam import TwistSpec, family_report

from test_census import SAMPLE

STEVEDORE = ("--longitude", "3.9279", "--meridian", "0.7237+1.0160i")
K12A52 = ("--longitude", "27.7228", "--meridian", "-1.2838+0.5145i")


def run_cli(capsys, *args):
    rc = main(list(args))
    return rc, capsys.readouterr().out


class TestScalarCommands:
    def test_slope_fixture(self, capsys):
        rc, out = run_cli(capsys, "slope", *STEVEDORE)
        assert rc == 0
        assert float(out) == pytest.approx(1.8267, abs=1e-3)

    def test_slope_negative_meridian(self, capsys):
        rc, out = run_cli(capsys, "slope", *K12A52)
        assert rc == 0
        assert float(out) == pytest.approx(-18.6064, abs=1e-3)

    def test_slope_matches_library(self, capsys):
        _, out = run_cli(capsys, "slope", *STEVEDORE)
        want = natural_slope(CuspShape(3.9279, complex(0.7237, 1.0160)))
        assert float(out) == pytest.approx(want, abs=5e-5)

    def test_siglen_matches_library(self, capsys):
        _, out = run_cli(capsys, "siglen", *STEVEDORE, "2", "-3")
        want = slope_length(CuspShape(3.9279, complex(0.7237, 1.0160)), 2, -3)
        assert float(out) == pytest.approx(want, abs=5e-5)

    def test_window(self, capsys):
        rc, out = run_cli(capsys, "window", "--slope", "-18.215")
        lo, hi = map(float, out.split())
        w = exceptional_window(-18.215, 1)
        assert rc == 0
        assert (lo, hi) == (pytest.approx(w.lo), pytest.approx(w.hi))

    def test_bounds_matches_library(self, capsys):
        _, out = run_cli(
            capsys, "bounds", *K12A52, "--volume", "14.22", "--inj", "0.8",
            "--sigma", "-8",
        )
        got = dict(line.split() for line in out.splitlines())
        cusp = CuspShape(27.7228, complex(-1.2838, 0.5145))
        g = KnotGeom(cusp, 14.22, 0.8, -8)
        c1 = c1_statistic(g)
        assert float(got["slope"]) == pytest.approx(natural_slope(cusp), abs=5e-5)
        assert float(got["genus_lb"]) == pytest.approx(
            genus_lower_bound(natural_slope(cusp)), abs=5e-5
        )
        assert int(got["genus_lb_int"]) == genus_lower_bound(
            natural_slope(cusp), integer=True
        )
        assert float(got["g4_lb"]) == pytest.approx(g4_lower_bound(g, c1), abs=5e-5)
        assert float(got["c1"]) == pytest.approx(c1, abs=5e-5)

    def test_kappa_integer_and_half(self, capsys):
        assert run_cli(capsys, "kappa", "2", "3") == (0, "-1\n")
        assert run_cli(capsys, "kappa", "3", "3") == (0, "-1/2\n")

    def test_kappa_matches_library(self, capsys):
        for p, q in ((7, 3), (-9, 2), (11, 4)):
            _, out = run_cli(capsys, "kappa", str(p), str(q))
            assert out.strip() == str(kappa(p, q))

    def test_tw(self, capsys):
        rc, out = run_cli(capsys, "tw", "--re", "0.05", "--im", "3.0")
        t = twisting_parameter(complex(0.05, 3.0))
        assert rc == 0
        assert tuple(map(int, out.split())) == (t.p, t.q)

    def test_tw_small_real_part_has_no_tie_band(self, capsys):
        rc, out = run_cli(capsys, "tw", "--re", "1e-5", "--im", "0")
        assert (rc, out) == (0, "0 1\n")

    @pytest.mark.parametrize("re, im", [("5e-324", "0.1"), ("1e-300", "-2")])
    def test_tw_any_positive_real_part(self, capsys, re, im):
        rc, out = run_cli(capsys, "tw", "--re", re, "--im", im)
        assert rc == 0
        [line] = out.splitlines()
        p, q = map(int, line.split())
        assert p % 2 == 0 and q % 2 == 1


class TestTorusCheck:
    def test_small_range_clean(self, capsys):
        rc, out = run_cli(capsys, "torus-check", "--max-pq", "40")
        assert rc == 0
        assert out.strip() == "OK 0 mismatches"


class TestDiagramCommands:
    TREFOIL = "X(1,3,2,6) X(3,5,4,2) X(5,1,6,4)"

    def test_signature_methods(self, capsys, tmp_path):
        path = tmp_path / "trefoil.pd"
        path.write_text(self.TREFOIL, encoding="utf-8")
        assert run_cli(capsys, "signature", str(path), "--method", "gl") == (0, "-2\n")
        assert run_cli(capsys, "signature", str(path), "--method", "seifert") == (
            0,
            "-2\n",
        )
        rc, out = run_cli(capsys, "signature", str(path))
        assert rc == 0
        assert out == "gl -2\nseifert -2\n"

    def test_signature_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(self.TREFOIL))
        assert run_cli(capsys, "signature", "-") == (0, "gl -2\nseifert -2\n")

    def test_signature_bad_file_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "junk.pd"
        path.write_text("not a diagram", encoding="utf-8")
        rc, _ = run_cli(capsys, "signature", str(path))
        assert rc == 1


class TestGeodesicCommands:
    def test_correct_slope_matches_library(self, capsys, tmp_path):
        path = tmp_path / "geos.txt"
        path.write_text("# comment\n0.2+3.1415i:odd\n0.5+1.0i:even\n", encoding="utf-8")
        rc, out = run_cli(
            capsys, "correct-slope", str(path), "--slope", "-18.215",
            "--epsilon", "0.5",
        )
        geos = (
            GeodesicRecord(complex(0.2, 3.1415), "odd"),
            GeodesicRecord(complex(0.5, 1.0), "even"),
        )
        want = corrected_slope_estimate(-18.215, geos, 0.5)
        assert rc == 0
        assert float(out) == pytest.approx(want, abs=5e-5)

    def test_correct_slope_tiny_real_part(self, capsys, tmp_path):
        path = tmp_path / "geos.txt"
        path.write_text("1e-12+0.1i:odd\n", encoding="utf-8")
        rc, out = run_cli(capsys, "correct-slope", str(path), "--slope", "5", "--epsilon", "0.1")
        want = corrected_slope_estimate(5.0, [GeodesicRecord(complex(1e-12, 0.1), "odd")], 0.1)
        assert rc == 0
        assert float(out) == want


class TestTwistVerify:
    def test_matches_library(self, capsys, tmp_path):
        path = tmp_path / "fam.json"
        path.write_text(
            json.dumps(
                {
                    "base_braid": "1,1,1",
                    "regions": [[3, 1, 2]],
                    "q_vectors": [[0], [2], [5]],
                }
            ),
            encoding="utf-8",
        )
        rc, out = run_cli(capsys, "twist-verify", str(path))
        spec = TwistSpec((1, 1, 1), ((3, 1, 2),))
        rows = family_report(spec, [(0,), (2,), (5,)])
        assert rc == 0
        lines = out.splitlines()
        assert len(lines) == 3
        for line, row in zip(lines, rows):
            q_text, sigma, predicted, residual = line.split()
            assert tuple(map(int, q_text.split(","))) == row.q
            assert (int(sigma), int(predicted), int(residual)) == (
                row.sigma,
                row.predicted,
                row.residual,
            )


class TestCensusStats:
    def test_matches_library_emission(self, capsys, tmp_path):
        rc, out = run_cli(
            capsys, "census-stats", str(SAMPLE), "--out", str(tmp_path / "cli")
        )
        assert rc == 0
        got = dict(line.split(None, 1) for line in out.splitlines())
        assert got["rows"] == "3"
        assert got["sign_agreement"] == "1.0000"
        report = census.derive(census.ingest(SAMPLE))
        csv_path, json_path = census.emit(report, tmp_path / "lib")
        assert (tmp_path / "cli" / "derived.csv").read_bytes() == csv_path.read_bytes()
        assert (tmp_path / "cli" / "plots.json").read_bytes() == json_path.read_bytes()

    def test_stdin(self, capsys, tmp_path, monkeypatch):
        text = SAMPLE.read_text(encoding="utf-8")
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        rc, out = run_cli(capsys, "census-stats", "-", "--out", str(tmp_path))
        assert rc == 0
        assert "rows 3" in out

    def test_stdin_error_names_stdin(self, capsys, tmp_path, monkeypatch):
        header = SAMPLE.read_text(encoding="utf-8").splitlines()[0]
        rows = ["A,5,-2,4.0,0.5,0.8,1.0,5.0,,", "B,5,-2,huge,0.5,0.8,1.0,5.0,,"]
        stdin = io.StringIO("\n".join([header, *rows]) + "\n")
        stdin.name = "<stdin>"  # the name sys.stdin reports
        monkeypatch.setattr("sys.stdin", stdin)
        rc = main(["census-stats", "-", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "<stdin> line 3" in err
        assert "/tmp" not in err

    def test_non_finite_value_names_line(self, capsys, tmp_path):
        header = SAMPLE.read_text(encoding="utf-8").splitlines()[0]
        rows = ["A,5,-2,4.0,0.5,0.8,1.0,5.0,,", "B,5,-2,4.0,inf,0.8,1.0,5.0,,"]
        path = tmp_path / "inf.csv"
        path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
        rc = main(["census-stats", str(path), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "%s line 3:" % path in err

    def test_malformed_csv_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("name,crossings\nK,5\n", encoding="utf-8")
        rc, _ = run_cli(capsys, "census-stats", str(path), "--out", str(tmp_path))
        assert rc == 1


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["kappa", "2"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2

    def test_domain_error_is_1(self, capsys):
        rc = main(["slope", "--longitude", "-1.0", "--meridian", "1+1i"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "error:" in captured.err

    def test_non_finite_flag_is_1(self, capsys):
        rc = main([
            "bounds", "--longitude", "inf", "--meridian", "0.7237+1.0160i",
            "--volume", "3.16", "--inj", "0.55", "--sigma", "0",
        ])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [
            ("tw", "--re", "inf", "--im", "0.1"),
            ("window", "--slope", "nan"),
            ("window", "--slope", "inf"),
            ("window", "--slope=-inf"),
            ("slope", "--longitude", "1", "--meridian", "1e-170+1e-170i"),
        ],
        ids=["tw-re-inf", "window-nan", "window-inf", "window-minus-inf",
             "slope-underflow"],
    )
    # the tiny meridian of the underflow case also warns that it is out of range
    @pytest.mark.filterwarnings("ignore::knotsig.cusp.GeometryWarning")
    def test_non_finite_value_is_1(self, capsys, args):
        rc = main(list(args))
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_correction_beyond_float_range_is_1(self, capsys, tmp_path):
        # Re = Im = 5e-324 twists with a 1,076-bit p, and its kappa
        # correction does not fit in a float
        path = tmp_path / "geos.txt"
        path.write_text("5e-324+5e-324i:odd\n", encoding="utf-8")
        rc = main([
            "correct-slope", str(path), "--slope", "5", "--epsilon", "0.1",
        ])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_infinite_tube_radius_is_1(self, capsys, tmp_path):
        path = tmp_path / "geos.txt"
        path.write_text("0.2+3.1415i:odd:inf\n", encoding="utf-8")
        rc = main([
            "correct-slope", str(path), "--slope", "5", "--epsilon", "0.1",
        ])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_internal_error_is_3(self, capsys, tmp_path, monkeypatch):
        def broken(d):
            raise RuntimeError("coherence moves did not terminate")

        monkeypatch.setattr("knotsig.diagram.braid_word", broken)
        path = tmp_path / "trefoil.pd"
        path.write_text(TestDiagramCommands.TREFOIL, encoding="utf-8")
        rc = main(["signature", str(path), "--method", "seifert"])
        err = capsys.readouterr().err
        assert rc == 3
        assert err == "internal error: coherence moves did not terminate\n"

    def test_missing_file_is_1(self, capsys):
        rc, _ = run_cli(capsys, "signature", "/no/such/file.pd")
        assert rc == 1

    def test_every_subcommand_has_help(self, capsys):
        parser = build_parser()
        subs = parser._subparsers._group_actions[0].choices
        for name in subs:
            with pytest.raises(SystemExit) as exc:
                main([name, "--help"])
            assert exc.value.code == 0
            assert capsys.readouterr().out
