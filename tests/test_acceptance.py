"""Acceptance battery: one test per shipped guarantee.

Every criterion is a single test so the verbose run shows one pass/fail
line each. Slope fixtures compare against reference cusp values rounded
to four decimals, hence the 1e-3 tolerances there; integer identities
are compared exactly; wall-time budgets are asserted where a criterion
carries one.
"""

import importlib.resources
import math
import random
import time
from fractions import Fraction

import pytest

from diagrams import load_fixture_file, random_knot_word
from oracles import brute_force_twisting

from knotsig import census
from knotsig.cusp import CuspShape, exceptional_window, natural_slope
from knotsig.diagram import DiagramCode, gl_signature, seifert_signature
from knotsig.geodesic import twisting_parameter
from knotsig.torus import kappa, torus_pd, torus_signature
from knotsig.twistfam import (
    TwistSpec,
    family_report,
    predicted_signature,
    predicted_slope,
)

DATA = importlib.resources.files("knotsig") / "data"


def test_criterion_1_slope_fixtures():
    stevedore = CuspShape(3.9279, complex(0.7237, 1.0160))
    assert natural_slope(stevedore) == pytest.approx(1.8267, abs=1e-3)
    k12a52 = CuspShape(27.7228, complex(-1.2838, 0.5145))
    assert natural_slope(k12a52) == pytest.approx(-18.6064, abs=1e-3)


def test_criterion_2_torus_oracle():
    start = time.monotonic()
    mismatches = []
    for p in range(2, 8):
        for q in range(p + 1, 60 // p + 1):
            if math.gcd(p, q) != 1:
                continue
            closed = torus_signature(p, q)
            d = torus_pd(p, q)
            if gl_signature(d) != closed or seifert_signature(d) != closed:
                mismatches.append((p, q))
    assert mismatches == []
    assert time.monotonic() - start <= 60.0


def test_criterion_3_pipeline_agreement():
    start = time.monotonic()
    corpus = load_fixture_file(str(DATA / "corpus.tsv"))
    assert len(corpus) == 56
    for name, d in corpus.items():
        assert gl_signature(d) == seifert_signature(d), name
    # b(9,2) is the stevedore knot 6_1
    assert gl_signature(corpus["b(9,2)"]) == 0
    rng = random.Random(20260818)
    for _ in range(200):
        strands = rng.randint(2, 5)
        length = rng.randint(strands + 3, 40)
        if (length - (strands - 1)) % 2:
            length -= 1
        word = random_knot_word(rng, strands, length)
        d = DiagramCode.from_braid_word(word)
        assert gl_signature(d) == seifert_signature(d), word
    assert time.monotonic() - start <= 120.0


def test_criterion_4_exceptional_window():
    window = exceptional_window(-18.215, 1)
    assert window.lo == pytest.approx(12.215, abs=1e-9)
    assert window.hi == pytest.approx(24.215, abs=1e-9)
    for slope in (16, 17, 18, Fraction(37, 2), 19, 20):
        assert slope in window


def test_criterion_5_twisting_oracle():
    start = time.monotonic()
    rng = random.Random(5)
    violations = []
    for _ in range(1000):
        cl = complex(rng.uniform(0.05, 2.5), rng.uniform(-math.pi, math.pi))
        t = twisting_parameter(cl)
        if (t.p, t.q) != brute_force_twisting(cl):
            violations.append(cl)
    assert violations == []
    assert time.monotonic() - start <= 10.0


def test_criterion_6_twist_family_law():
    start = time.monotonic()
    two_strand = TwistSpec((1, 1, 1), ((3, 1, 2),))
    rows = family_report(two_strand, [(q,) for q in range(21)])
    for q, row in enumerate(rows):
        assert row.sigma == -2 - 2 * q, q
    # mixed base: pure positive 3-strand bases close to torus knots whose
    # signature steps alternate -6 and -2, so their residuals oscillate;
    # see scripts/residual_search.py for the scan that picked this one
    three_strand = TwistSpec((1, -2), ((2, 1, 3),))
    rows = family_report(three_strand, [(q,) for q in range(5, 13)])
    residuals = [row.residual for row in rows]
    assert len(set(residuals)) == 1
    assert all(abs(r) <= 8 for r in residuals)
    assert time.monotonic() - start <= 120.0


def test_criterion_7_counterexample_arithmetic():
    for q in (1, 10, 100):
        # single 3-strand region: slope grows like -9q, twice the
        # signature like -8q, so no constant can bound the gap
        assert predicted_slope((3,), (q,)) == -9 * q
        assert 2 * predicted_signature((3,), (q,)) == -8 * q
        # paired regions with opposite twisting: slope 4q against
        # signature -2q, so the two eventually disagree in sign
        assert predicted_slope((2, 3), (17 * q, -8 * q)) == 4 * q
        assert predicted_signature((2, 3), (17 * q, -8 * q)) == -2 * q


def test_criterion_8_statistics_pipeline(tmp_path):
    rows = census.ingest(DATA / "sample_census.csv")
    report = census.derive(rows)
    for d in report.rows:
        r = d.row
        slope = r.longitude * r.meridian.real / abs(r.meridian) ** 2
        assert d.slope == pytest.approx(slope, abs=1e-6)
        gap = 2 * r.sigma - slope
        assert d.c1 == pytest.approx(abs(gap) * r.inj**3 / r.volume, abs=1e-6)
        assert d.sigma_hat == pytest.approx(r.sigma / math.sqrt(r.volume), abs=1e-6)
    by_name = {d.row.name: d for d in report.rows}
    assert abs(by_name["12a52"].gap) == pytest.approx(2.6064, abs=1e-3)
    csv_1, json_1 = census.emit(report, tmp_path / "a")
    csv_2, json_2 = census.emit(report, tmp_path / "b")
    assert csv_1.read_bytes() == csv_2.read_bytes()
    assert json_1.read_bytes() == json_2.read_bytes()
    # the emitted derived table ingests again and re-emits byte for byte
    report_2 = census.derive(census.ingest(csv_1))
    csv_3, json_3 = census.emit(report_2, tmp_path / "c")
    assert csv_3.read_bytes() == csv_1.read_bytes()
    assert json_3.read_bytes() == json_1.read_bytes()
    # aggregation linearity across a split of the sample
    part_means = []
    for part in (rows[:1], rows[1:]):
        sub = census.derive(part)
        part_means.append(
            (len(part), sum(d.c1 for d in sub.rows) / len(sub.rows))
        )
    combined = sum(d.c1 for d in report.rows) / len(report.rows)
    weighted = sum(n * m for n, m in part_means) / sum(n for n, _ in part_means)
    assert combined == pytest.approx(weighted, rel=1e-12)


def test_criterion_9_half_integrality():
    start = time.monotonic()
    for p in range(1, 51):
        for q in range(1, 51):
            value = kappa(p, q)
            assert isinstance(value.twice_value, int)
            assert value.is_integer == (p * q % 2 == 0), (p, q)
            assert value == kappa(q, p), (p, q)
            assert kappa(-p, q) == -value, (p, q)
    assert time.monotonic() - start <= 1.0
