"""`census-stats` and `signature` through `cli.main`, in process, on random
text: every call exits 0 or 1 within the totality budget, prints no
traceback, and on exit 1 writes nothing, neither to stdout nor to the
output directory. A `derived.csv` that `census-stats` writes reads back
in and is written again byte for byte."""

import contextlib
import csv
import io
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, strategies as st

from knotsig import census
from knotsig.cli import main

from test_census import HEADER
from test_totality import call_within_budget

TREFOIL = "X(1,3,2,6) X(3,5,4,2) X(5,1,6,4)"

JUNK_NUMBERS = (
    "", " ", "x", "1e308", "-1e308", "1e-320", "5e-324", "nan", "-nan", "inf", "-inf",
    "0", "-0", "0x10", "1_000", "9" * 400, "1e400", "+-1", "1,5",
)
JUNK_PD = (
    "X(1,2,3,4) junk", "X(0,1,2,3)", "X(1,1,2,2)", "X(1,2,3", "X()", "x(1,2,3,4)",
    "X(1,2,3,4) X(1,2,3,4)", "X(2,4,3,1) X(4,2,1,3)", "X(" * 40, "X(%s,1,1,1)" % ("9" * 5000),
)
JUNK_GEODESICS = (
    "a:b", "1+1i", "1+1i:odd:x", ";;", "nan+nani:odd", "1e308+1e308i:even:1e308",
    "0.2+3.1415i:odd:", "0+0i:odd", "0.2+3.1415i:odd:0.5:1", "-0.1+1i:even",
)
# per column: ordinary values, then the junk drawn for it besides JUNK_NUMBERS
FIELDS = {
    "name": (("K", "6_1", " 12a52 "), ("", "  ")),
    "crossings": (("5", "12", "3"), ("2", "3.5", "-7")),
    "signature": (("-2", "0", "8"), ("-3", "2.0", "9" * 330)),
    "volume": (("4.0", "2.83", "14.22"), ("-4.0", "1e-300", "1e300")),
    "inj_radius": (("0.5", "0.8", "1.9"), ("-0.5", "1e-110", "1e103", "3e102")),
    "meridian_re": (("0.8", "-1.2838", "0.0"), ("1e-300", "1e300")),
    "meridian_im": (("1.0", "0.5145", "-1.0"), ("-0.5", "-1e-300", "1e300")),
    "longitude": (("5.0", "27.7228", "3.9279"), ("-5.0", "1e-300", "1e300")),
    "geodesics": (("", "0.2+3.1415i:odd", "0.5-0.25i:even:1.25"), JUNK_GEODESICS),
    "pd": (("", TREFOIL), JUNK_PD),
}


@st.composite
def field(draw, column):
    ordinary, junk = FIELDS[column]
    # mostly ordinary, so that a good part of the files read in whole
    kind = draw(st.integers(0, 39))
    if kind < 38:
        return draw(st.sampled_from(ordinary))
    if kind == 38:
        return draw(st.sampled_from(junk + JUNK_NUMBERS))
    return draw(st.text(max_size=12))


@st.composite
def census_csv(draw):
    """Census text: the header, then rows of random fields, some short and
    some long; now and then a blank line or a line of random text."""
    out = io.StringIO()
    out.write(HEADER + "\n")
    writer = csv.writer(out, lineterminator="\n")
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.integers(0, 19))
        if kind == 0:
            out.write("\n")
        elif kind == 1:
            out.write(draw(st.text(max_size=40)) + "\n")
        else:
            row = [draw(field(c)) for c in census._COLUMNS]
            if kind < 5:
                row = (row + ["extra", "1e308"])[: draw(st.integers(1, len(row) + 2))]
            writer.writerow(row)
    return out.getvalue()


@st.composite
def pd_like(draw):
    """Text that looks like a PD code: terms with small labels, some of them
    codes of knots, with now and then a junk token between them."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from((TREFOIL, "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)")))
    n = draw(st.integers(0, 5))
    labels = st.integers(0, 2 * n + 2)
    parts = []
    for _ in range(n):
        term = "X(%d,%d,%d,%d)" % tuple(draw(labels) for _ in range(4))
        if draw(st.integers(0, 9)) == 0:
            term = draw(st.sampled_from(JUNK_PD + ("junk", "X(1,2,3,4,5)", "-1")))
        parts.append(term)
    sep = draw(st.sampled_from((" ", "\n", "  \t", "")))
    return sep.join(parts)


def run_main(argv):
    """main(argv) within the totality budget: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            rc = call_within_budget(main, (argv,))
    return rc, out.getvalue(), err.getvalue()


def assert_clean_exit(rc, out, err):
    assert rc in (0, 1), (rc, err)
    assert "Traceback" not in err
    if rc == 1:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err


@given(text=census_csv())
@example(text=HEADER + "\nK,5,-2,4.0,3e102,0.8,1.0,5.0,,\n")
@example(text=HEADER + "\nK,5,-2,4.0,0.5,0.8,-1.0,5.0,,\n")
@example(text=HEADER + "\nK,5,-2,4.0,0.5,0.8,1.0,5.0,,\nK,5,-2,4.0\n")
@example(text=HEADER + '\nK,5,-2,4.0,0.5,0.8,1.0,5.0,0.2+3.1415i:odd,"%s",x,y\n' % TREFOIL)
# a name whose only special character is a CR
@example(text=HEADER + '\n"K\rx",5,-2,4.0,0.5,0.8,1.0,5.0,,\n')
def test_census_stats_exits_cleanly(text):
    with tempfile.TemporaryDirectory() as tmp:
        path, out_dir = Path(tmp) / "census.csv", Path(tmp) / "out"
        path.write_text(text, encoding="utf-8")
        rc, out, err = run_main(["census-stats", str(path), "--out", str(out_dir)])
        assert_clean_exit(rc, out, err)
        if rc == 1:
            assert not out_dir.exists()
            return
        files = sorted(p.name for p in out_dir.iterdir())
        assert files == ["derived.csv", "plots.json"]
        # the documented fixed point: the derived file reads back in and
        # re-emits the same bytes
        again = Path(tmp) / "again"
        rc, out, err = run_main(["census-stats", str(out_dir / "derived.csv"), "--out", str(again)])
        assert rc == 0, err
        for name in files:
            assert (again / name).read_bytes() == (out_dir / name).read_bytes()


@given(text=pd_like(), method=st.sampled_from(("gl", "seifert", "both")))
@example(text=TREFOIL, method="both")
@example(text="X(2,5,3,6) X(4,7,5,2) X(6,3,7,4)", method="both")
@example(text="X(0,3,1,4) X(2,5,3,0) X(4,1,5,2)", method="gl")
def test_signature_exits_cleanly(text, method):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "code.pd"
        path.write_text(text, encoding="utf-8")
        rc, out, err = run_main(["signature", str(path), "--method", method])
        assert_clean_exit(rc, out, err)
