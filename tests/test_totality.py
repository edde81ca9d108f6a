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
    raise BudgetExceeded("call ran past its %d s budget" % BUDGET_S)


def call_within_budget(fn, args):
    """fn(*args), or the ValueError it raised; any other exception, or a
    call that runs past the budget, fails the test."""
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.alarm(BUDGET_S)
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


# every float, NaN, the infinities and the largest magnitudes included, and
# rationals that are not integers
non_integers = st.one_of(
    st.floats(), st.fractions().filter(lambda x: x.denominator != 1)
)
# kappa's cost grows with the length of Euclid's algorithm only; torus_pd
# builds (p - 1) * q crossings, so its integers stay small
huge_or_not = st.one_of(non_integers, st.integers(-(10**40), 10**40))
small_or_not = st.one_of(non_integers, st.integers(-12, 12))

CASES = {
    "kappa": (torus.kappa, st.tuples(huge_or_not, huge_or_not)),
    "torus_signature": (torus.torus_signature, st.tuples(huge_or_not, huge_or_not)),
    "torus_pd": (torus.torus_pd, st.tuples(small_or_not, small_or_not)),
    "closest_even_integer": (cusp.closest_even_integer, st.tuples(st.floats())),
    "genus_lower_bound": (cusp.genus_lower_bound, st.tuples(st.floats(), st.booleans())),
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
    ],
)
def test_reported_inputs_raise_value_error(fn, args):
    assert isinstance(call_within_budget(fn, args), ValueError)
