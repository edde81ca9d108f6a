"""Totality of the scalar entry points: on non-integer, NaN, infinite and
huge arguments every call returns or raises a ValueError subclass within a
wall-time budget. SIGALRM enforces the budget, so these tests need POSIX
signals and the main thread."""

import math
import signal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from knotsig import census, cusp, geodesic, torus

from test_census import SAMPLE

BUDGET_S = 2


class BudgetExceeded(Exception):
    pass


def _expire(signum, frame):
    raise BudgetExceeded("call ran past its budget")


def call_within_budget(fn, args, seconds=BUDGET_S):
    """fn(*args), or the ValueError it raised; any other exception, or a
    call that runs past `seconds` (a whole number), fails the test."""
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.alarm(seconds)
    try:
        return fn(*args)
    except ValueError as exc:
        return exc
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


SAMPLE_ROWS = census.derive(census.ingest(SAMPLE)).rows


def aggregate_sample(envelope_b, envelope_c):
    return census.aggregate(SAMPLE_ROWS, envelope_b, envelope_c)


# the 6_1 row of the sample census
GEOM = cusp.KnotGeom(cusp.CuspShape(3.9279, 0.7237 + 1.016j), 3.1639, 0.55, 0)


# every float, NaN, the infinities and the largest magnitudes included, and
# rationals that are not integers
non_integers = st.one_of(
    st.floats(), st.fractions().filter(lambda x: x.denominator != 1)
)
huge_or_not = st.one_of(non_integers, st.integers(-(10**40), 10**40))
# integers far beyond the float range too
huge_ints = st.integers(-(10**400), 10**400)
huge_reals = st.one_of(st.floats(), huge_ints)
# coprime pairs p >= 2, q = k p +- 1 >= 3, small and up to about 10**40: the
# draws above are almost never such a pair, and never a large one
coprime_pairs = st.builds(
    lambda p, k, s: (p, k * p + s),
    st.integers(2, 10**20),
    st.integers(1, 10**20),
    st.sampled_from((1, -1)),
)

CASES = {
    "kappa": (torus.kappa, st.tuples(huge_or_not, huge_or_not)),
    "torus_signature": (torus.torus_signature, st.tuples(huge_or_not, huge_or_not)),
    "torus_pd": (torus.torus_pd, st.tuples(huge_or_not, huge_or_not)),
    "torus_pd_coprime": (torus.torus_pd, coprime_pairs),
    "torus_signature_coprime": (torus.torus_signature, coprime_pairs),
    "closest_even_integer": (cusp.closest_even_integer, st.tuples(huge_reals)),
    "genus_lower_bound": (cusp.genus_lower_bound, st.tuples(huge_reals, st.booleans())),
    "exceptional_window": (
        cusp.exceptional_window,
        st.tuples(huge_reals, st.one_of(huge_ints, non_integers)),
    ),
    "g4_lower_bound": (cusp.g4_lower_bound, st.tuples(st.just(GEOM), huge_reals)),
    "surgery_hyperbolic_certificate": (
        cusp.surgery_hyperbolic_certificate,
        st.tuples(st.just(GEOM), st.one_of(st.integers(-9, 9), huge_ints), huge_ints, huge_reals),
    ),
    "corrected_slope_estimate": (
        geodesic.corrected_slope_estimate,
        st.tuples(huge_reals, st.just([]), st.just(0.5)),
    ),
    "tube_torus": (geodesic.tube_torus, st.tuples(st.complex_numbers(), st.floats())),
    "aggregate": (aggregate_sample, st.tuples(st.floats(), st.floats())),
}


@pytest.mark.parametrize("name", sorted(CASES))
@given(data=st.data())
def test_returns_or_raises_value_error_within_budget(name, data):
    fn, arguments = CASES[name]
    call_within_budget(fn, data.draw(arguments))


@pytest.mark.parametrize(
    "fn, args",
    [
        (torus.kappa, (0.1, 0.3)),
        (torus.kappa, (math.nan, 3)),
        (torus.kappa, (math.inf, 3)),
        (torus.kappa, (2**0.5, 3)),
        (torus.kappa, (Fraction(1, 2), 3)),
        (torus.torus_signature, (1.5, 2.5)),
        (torus.torus_pd, (2.5, 3)),
        (cusp.closest_even_integer, (math.inf,)),
        (cusp.closest_even_integer, (math.nan,)),
        (cusp.genus_lower_bound, (math.inf, True)),
        (cusp.genus_lower_bound, (-math.inf,)),
        (geodesic.tube_torus, (0.3 + 0.1j, 1e4)),
        (geodesic.tube_torus, (complex(math.nan, 0.1), 1.0)),
        (aggregate_sample, (math.nan, 2.0)),
        (aggregate_sample, (2.0, math.inf)),
        (torus.torus_pd, (10**20, 10**20 + 1)),
        (torus.torus_pd, (3, 100_001)),
        (cusp.closest_even_integer, (10**400,)),
        (cusp.genus_lower_bound, (10**400,)),
        (cusp.exceptional_window, (10**400, 1)),
        (cusp.g4_lower_bound, (GEOM, 10**400)),
        (cusp.surgery_hyperbolic_certificate, (GEOM, 1, 10**400, 0.3)),
        (cusp.surgery_hyperbolic_certificate, (GEOM, 3, 1, 10**400)),
        (cusp.KnotGeom, (GEOM.cusp, GEOM.volume, GEOM.inj, 2**1023)),
        (geodesic.corrected_slope_estimate, (10**400, [], 0.5)),
        (cusp.exceptional_window, (1.0, math.nan)),
        (cusp.exceptional_window, (1.0, math.inf)),
        (cusp.exceptional_window, (1.0, 2.5)),
    ],
)
def test_reported_inputs_raise_value_error(fn, args):
    assert isinstance(call_within_budget(fn, args), ValueError)
