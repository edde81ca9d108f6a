"""CLI subcommands against direct library calls, plus exit-code contracts."""

import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import knotsig
from knotsig import census
from knotsig.braid import MAX_BRAID_LETTERS
from knotsig.cli import MAX_CHECK_PQ, build_parser, main
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
from test_diagram import NoTerms

STEVEDORE = ("--longitude", "3.9279", "--meridian", "0.7237+1.0160i")
K12A52 = ("--longitude", "27.7228", "--meridian", "-1.2838+0.5145i")
# twist-verify's line for {"base_braid": [1, -2], "regions": [[0, 1, 3]]} at
# q = 19,999, the largest q within braid.MAX_BRAID_LETTERS
HUB_CAP_LINE = "19999 -79996 -79996 0"


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

    @pytest.mark.parametrize("max_pq", [MAX_CHECK_PQ + 1, 10**9])
    def test_over_the_limit_is_1_at_once(self, capsys, max_pq):
        start = time.monotonic()
        rc = main(["torus-check", "--max-pq", str(max_pq)])
        captured = capsys.readouterr()
        assert time.monotonic() - start < 1.0
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("max_pq", [-3, 0, 5])
    def test_below_the_least_torus_knot_is_1(self, capsys, max_pq):
        # T(2, 3) has the least p * q, 6; a smaller N checks no pair
        rc = main(["torus-check", "--max-pq", str(max_pq)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_least_torus_knot_alone(self, capsys):
        rc, out = run_cli(capsys, "torus-check", "--max-pq", "6")
        assert (rc, out) == (0, "OK 0 mismatches\n")

    def test_mismatch_is_printed_and_is_1(self, capsys, monkeypatch):
        monkeypatch.setattr("knotsig.cli.torus_signature", lambda p, q: 0)
        rc, out = run_cli(capsys, "torus-check", "--max-pq", "6")
        assert (rc, out) == (1, "MISMATCH p=2 q=3 closed=0 gl=-2 seifert=-2\n1 mismatches\n")


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

    def test_over_the_size_limit_is_1_at_once(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("X(1,2,3,4) " * 120_001))
        monkeypatch.setattr("knotsig.diagram._TOKEN", NoTerms())
        rc = main(["signature", "-"])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (1, "")
        assert captured.err == (
            "error: diagram code has 120001 crossings, more than the limit of 120000\n"
        )

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

    def test_stdin_matches_file(self, capsys, tmp_path, monkeypatch):
        text = json.dumps(
            {"base_braid": [1, -2], "regions": [[0, 1, 3]], "q_vectors": [[1], [4]]}
        )
        path = tmp_path / "fam.json"
        path.write_text(text, encoding="utf-8")
        from_file = run_cli(capsys, "twist-verify", str(path))
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert run_cli(capsys, "twist-verify", "-") == from_file
        assert from_file[0] == 0 and len(from_file[1].splitlines()) == 2

    def test_hub_spec_at_letter_cap(self, capsys, tmp_path):
        # the largest q the letter cap allows on this 3-strand region; CI
        # runs the installed entry point on it and expects the same line
        q = (MAX_BRAID_LETTERS - 2) // 6
        assert q == 19_999
        path = tmp_path / "fam.json"
        path.write_text(
            json.dumps({"base_braid": [1, -2], "regions": [[0, 1, 3]], "q_vectors": [[q]]}),
            encoding="utf-8",
        )
        assert run_cli(capsys, "twist-verify", str(path)) == (0, HUB_CAP_LINE + "\n")


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

    def test_unwritable_out_prints_nothing(self, capsys, tmp_path):
        out = tmp_path / "a-file"
        out.write_text("", encoding="utf-8")
        rc = main(["census-stats", str(SAMPLE), "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["--envelope-b", "--envelope-c"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_envelope_is_1_and_writes_nothing(self, capsys, tmp_path, flag, value):
        out = tmp_path / "out"
        rc = main(["census-stats", str(SAMPLE), "--out", str(out), "%s=%s" % (flag, value)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert not out.exists()


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

    @pytest.mark.parametrize(
        "spec, field",
        [
            ('{"regions": []}', "base_braid"),
            ("[[1, 1, 1]]", "object"),
            ('{"base_braid": [1, 1, 1], "regions": [5]}', "regions"),
            ('{"base_braid": 7}', "base_braid"),
            ('{"base_braid": [1.5, 1, 1]}', "base_braid"),
            ('{"base_braid": [1, 1, 1], "strands": "3"}', "strands"),
            ('{"base_braid": [1, 1, 1], "q_vectors": 5}', "q_vectors"),
            ('{"base_braid": [1, 1, 1], "q_vectors": [["a"]]}', "q_vectors"),
            ('{"base_braid": [1, 1, 1], "q_vectors": [[1.5]]}', "q_vectors"),
            # a typo'd key is named, quoted, not taken for a missing one
            ('{"base_braid": [1, 1, 1], "regions": [[3, 1, 2]], "q_vector": [[1]]}',
             "'q_vector'"),
        ],
        ids=["no-base-braid", "top-level-list", "region-not-triple",
             "base-braid-int", "base-braid-float", "strands-string",
             "q-vectors-int", "q-vector-string", "q-vector-float",
             "q-vectors-typo"],
    )
    def test_malformed_twist_spec_is_1(self, capsys, tmp_path, spec, field):
        path = tmp_path / "fam.json"
        path.write_text(spec, encoding="utf-8")
        rc = main(["twist-verify", str(path)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert field in captured.err

    @pytest.mark.parametrize(
        "args",
        [
            ("bounds", "--longitude", "4", "--meridian", "0.7237+1.0160i",
             "--volume", "3.16", "--inj", "0.55", "--sigma", str(10**400)),
            ("siglen", "--longitude", "1", "--meridian", "1+1i", "1", str(10**400)),
            ("siglen", "--longitude", "1e300", "--meridian", "1+1i", "10000000000", "1"),
            ("bounds", "--longitude", "4", "--meridian", "0.7237+1.0160i",
             "--volume", "3.16", "--inj", "0.55", "--sigma", "0", "--c1", "nan"),
            ("bounds", "--longitude", "4", "--meridian", "0.7237+1.0160i",
             "--volume", "3.16", "--inj", "0.55", "--sigma", "0", "--c1", "inf"),
            ("correct-slope", "--slope", "nan", "--epsilon", "0.1"),
            ("correct-slope", "--slope", "inf", "--epsilon", "0.1"),
            ("correct-slope", "--slope", "5", "--epsilon", "nan"),
            ("correct-slope", "--slope", "5", "--epsilon", "inf"),
            ("correct-slope", "--slope", "5", "--epsilon", "0.1", "--margulis", "nan"),
        ],
        ids=["bounds-huge-sigma", "siglen-huge-q", "siglen-inf-length",
             "bounds-c1-nan", "bounds-c1-inf", "slope-nan", "slope-inf",
             "epsilon-nan", "epsilon-inf", "margulis-nan"],
    )
    def test_outside_float_range_is_1(self, capsys, tmp_path, args):
        path = tmp_path / "geos.txt"
        path.write_text("0.5+1i:odd\n", encoding="utf-8")
        if args[0] == "correct-slope":
            args = (args[0], str(path)) + args[1:]
        rc = main(list(args))
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_census_signature_outside_float_range_is_1(self, capsys, tmp_path):
        header = SAMPLE.read_text(encoding="utf-8").splitlines()[0]
        row = "A,5,%d,4.0,0.5,0.8,1.0,5.0,," % 10**400
        path = tmp_path / "huge.csv"
        path.write_text("\n".join([header, row]) + "\n", encoding="utf-8")
        rc = main(["census-stats", str(path), "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error: %s line 2:" % path)
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "extra, message",
        [
            (("--inj", "1e-120"), "injectivity radius"),
            (("--inj", "1e120"), "injectivity radius"),
            (("--inj", "1e-100", "--c1", "1e10"), "4-genus bound"),
        ],
        ids=["inj-cube-underflow", "inj-cube-overflow", "g4-overflow"],
    )
    # the huge radius also warns that it is out of range
    @pytest.mark.filterwarnings("ignore::knotsig.cusp.GeometryWarning")
    def test_bounds_outside_float_range_is_1(self, capsys, extra, message):
        rc = main([
            "bounds", "--longitude", "4.1", "--meridian", "0.7237+1.0160i",
            "--volume", "3.16", "--sigma", "0", *extra,
        ])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error: " + message)
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "row, message",
        [
            ("A,5,0,4.0,1e120,0.8,1.0,5.0,,", "injectivity radius"),
            ("A,5,0,1e-310,1.0,0.8,1.0,5.0,,", "c1 statistic"),
        ],
        ids=["inj-cube-overflow", "c1-overflow"],
    )
    @pytest.mark.filterwarnings("ignore::knotsig.cusp.GeometryWarning")
    def test_census_c1_outside_float_range_is_1(self, capsys, tmp_path, row, message):
        header = SAMPLE.read_text(encoding="utf-8").splitlines()[0]
        path = tmp_path / "huge.csv"
        path.write_text("\n".join([header, row]) + "\n", encoding="utf-8")
        rc = main(["census-stats", str(path), "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error: row A: " + message)
        assert captured.err.count("\n") == 1

    @pytest.mark.filterwarnings("ignore::knotsig.cusp.GeometryWarning")
    def test_census_derive_error_names_its_row(self, capsys, tmp_path):
        # ingest accepts every row; deriving c1 of the third overflows
        header = SAMPLE.read_text(encoding="utf-8").splitlines()[0]
        rows = [
            "A,5,-2,4.0,0.5,0.8,1.0,5.0,,",
            "C,5,-2,4.0,0.5,0.8,1.0,5.0,,",
            "B,5,0,1e-310,1.0,0.8,1.0,5.0,,",
        ]
        path = tmp_path / "tiny.csv"
        path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
        rc = main(["census-stats", str(path), "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error: row B: c1 statistic")
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "derived.csv").exists()

    def test_census_field_past_csv_limit_is_1_and_writes_nothing(self, capsys, tmp_path):
        # 12,000 crossings in one pd field: about 132,000 characters
        header = SAMPLE.read_text(encoding="utf-8").splitlines()[0]
        pd = " ".join(["X(1,2,3,4)"] * 12000)
        path = tmp_path / "long.csv"
        path.write_text(
            '%s\nK,5,-2,4.0,0.5,0.8,1.0,5.0,,"%s"\n' % (header, pd), encoding="utf-8"
        )
        out = tmp_path / "out"
        rc = main(["census-stats", str(path), "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error: %s line 2: field larger than" % path)
        assert captured.err.count("\n") == 1
        assert not (out / "derived.csv").exists()

    @pytest.mark.parametrize(
        "spec",
        [
            {"base_braid": [1, 1, 1], "strands": 10**9},
            {"base_braid": [10**12]},
            {"base_braid": [1, 1, 1], "regions": [[0, 1, 10**9]]},
            # 6 * 10**12 letters, counted before any is built
            {"base_braid": [1, -2], "regions": [[0, 1, 3]], "q_vectors": [[10**12]]},
        ],
        ids=["strands", "huge-letter", "region-count", "twist-count"],
    )
    def test_huge_strand_count_is_1_in_small_memory(self, capsys, tmp_path, spec):
        path = tmp_path / "fam.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        tracemalloc.start()
        try:
            rc = main(["twist-verify", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert peak < 2**20

    def test_internal_error_is_3(self, capsys, tmp_path, monkeypatch):
        def broken(d):
            raise RuntimeError("coherence moves did not terminate")

        monkeypatch.setattr("knotsig.cli.seifert_signature", broken)
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


# a file each subcommand that reads one accepts, and the flags it needs
INPUT_FILES = {
    "census-stats": (SAMPLE.read_text(encoding="utf-8"), ("--out", "{out}")),
    "signature": ("X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)\n", ()),
    "twist-verify": ('{"base_braid": [1, 1, 1], "regions": [[3, 1, 2]]}', ()),
    "correct-slope": ("0.2+3.1i:odd\n", ("--slope", "5", "--epsilon", "0.5")),
}


class TestByteOrderMark:
    # Notepad and Excel may save UTF-8 with a leading byte-order mark
    @pytest.mark.parametrize("command", sorted(INPUT_FILES))
    def test_input_file_with_bom_reads_as_without(self, capsys, tmp_path, command):
        text, flags = INPUT_FILES[command]
        flags = [f.format(out=tmp_path / "out") for f in flags]
        results = []
        for name, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            path = tmp_path / name
            path.write_bytes(prefix + text.encode("utf-8"))
            results.append(run_cli(capsys, command, str(path), *flags))
        assert results[0][0] == 0
        assert results[1] == results[0]


class TestStartUp:
    def test_import_loads_neither_dataclasses_nor_inspect(self):
        # -S: no site hooks, so only the package's own imports count
        env = dict(os.environ, PYTHONPATH=str(Path(knotsig.__file__).parents[1]))
        # statistics: only census.aggregate reads it, and imports it there
        code = (
            "import sys, knotsig.cli; "
            "print(sorted({'dataclasses', 'inspect', 'statistics'} & set(sys.modules)))"
        )
        out = subprocess.run(
            [sys.executable, "-S", "-c", code],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        ).stdout
        assert out == "[]\n"
