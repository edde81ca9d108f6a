"""Totality of the scalar entry points: on non-integer, NaN, infinite and
huge arguments every call returns or raises a ValueError subclass within a
wall-time and memory budget. SIGALRM and a soft RLIMIT_AS, sized from
/proc/self/statm, enforce the budget, so these tests need Linux and the
main thread."""

import math
import resource
import signal
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from knotsig import braid, census, cusp, geodesic, torus, twistfam
from knotsig.diagram import DiagramCode

from test_census import SAMPLE

BUDGET_S = 2
# address space a call may add to what the process already maps
BUDGET_BYTES = 2**30


class BudgetExceeded(BaseException):
    """Not an Exception, so Hypothesis stops at the first overrun: shrinking
    one walks toward the budget's edge, where a replay can pass."""


def _address_space_cap(soft):
    with open("/proc/self/statm") as fh:
        mapped = int(fh.read().split()[0]) * resource.getpagesize()
    cap = mapped + BUDGET_BYTES
    return cap if soft == resource.RLIM_INFINITY else min(cap, soft)


def describe_call(fn, args):
    """fn's name and each argument's type, with its len where it has one:
    a report whose size does not grow with the arguments."""
    parts = []
    for arg in args:
        try:
            parts.append("%s of len %d" % (type(arg).__name__, len(arg)))
        except TypeError:
            parts.append(type(arg).__name__)
    return "%s(%s)" % (fn.__name__, ", ".join(parts))


def call_within_budget(fn, args, seconds=BUDGET_S):
    """fn(*args), or the ValueError it raised; any other exception fails
    the test. A call that runs past `seconds` (a whole number) or past
    BUDGET_BYTES of new address space fails it as a BudgetExceeded that
    names the call: SIGALRM interrupts Python code, while one long C-level
    operation is caught by its elapsed time or by its MemoryError."""
    late = "ran past its %d s budget" % seconds

    def expire(signum, frame):
        raise BudgetExceeded("%s %s" % (describe_call(fn, args), late))

    limits = resource.getrlimit(resource.RLIMIT_AS)
    previous = signal.signal(signal.SIGALRM, expire)
    start = time.monotonic()
    result = why = None
    try:
        try:
            resource.setrlimit(
                resource.RLIMIT_AS, (_address_space_cap(limits[0]), limits[1])
            )
            signal.alarm(seconds)
            result = fn(*args)
        except ValueError as exc:
            result = exc
        except MemoryError:
            why = "ran out of its memory budget"
        finally:
            # restored first: a pending alarm may raise after any call here
            resource.setrlimit(resource.RLIMIT_AS, limits)
            signal.alarm(0)
    finally:
        # runs the expire handler if the alarm is still pending
        signal.signal(signal.SIGALRM, previous)
    if why is None and time.monotonic() - start > seconds:
        why, result = late, None
    if why is not None:
        # raised past the except clauses, so that the report keeps no frame
        # of fn, nor the memory those frames hold
        raise BudgetExceeded("%s %s" % (describe_call(fn, args), why))
    return result


SAMPLE_ROWS = census.derive(census.ingest(SAMPLE)).rows


def aggregate_sample(envelope_b, envelope_c):
    return census.aggregate(SAMPLE_ROWS, envelope_b, envelope_c)


# the 6_1 row of the sample census
GEOM = cusp.KnotGeom(cusp.CuspShape(3.9279, 0.7237 + 1.016j), 3.1639, 0.55, 0)
# one short geodesic of each linking parity, both of twist (-2, 1)
GEOS = [
    geodesic.GeodesicRecord(complex(0.2, math.pi), "odd"),
    geodesic.GeodesicRecord(complex(0.2, math.pi), "even"),
]
# the trefoil's braid with one 2-strand twist region at its end
SPEC = twistfam.TwistSpec((1, 1, 1), ((3, 1, 2),))


def slope_of(longitude, meridian):
    return cusp.natural_slope(cusp.CuspShape(longitude, meridian))


def c1_of(volume, inj, sigma):
    return cusp.c1_statistic(cusp.KnotGeom(GEOM.cusp, volume, inj, sigma))


def predicted_center(ell, q):
    # the center is an exact integer, never a float
    center = twistfam.predicted_signature(ell, q)
    assert isinstance(center, int), center
    return center


def tube_of_record(complex_length, parity, radius):
    # the fields of an accepted record are valid tube_torus arguments
    g = geodesic.GeodesicRecord(complex_length, parity, radius)
    return geodesic.tube_torus(g.complex_length, g.tube_radius)


# every float, NaN, the infinities and the largest magnitudes included, and
# rationals that are not integers
non_integers = st.one_of(
    st.floats(), st.fractions().filter(lambda x: x.denominator != 1)
)
huge_or_not = st.one_of(non_integers, st.integers(-(10**40), 10**40))
# integers far beyond the float range too
huge_ints = st.integers(-(10**400), 10**400)
huge_reals = st.one_of(st.floats(), huge_ints)
huge_complex = st.one_of(huge_reals, st.complex_numbers())
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
    "tube_torus": (geodesic.tube_torus, st.tuples(huge_complex, huge_reals)),
    "aggregate": (aggregate_sample, st.tuples(huge_reals, huge_reals)),
    "CuspShape": (cusp.CuspShape, st.tuples(huge_reals, huge_complex)),
    "KnotGeom": (
        cusp.KnotGeom,
        st.tuples(st.just(GEOM.cusp), huge_reals, huge_reals, st.one_of(st.none(), huge_ints)),
    ),
    "GeodesicRecord": (
        tube_of_record,
        st.tuples(huge_complex, st.sampled_from(("odd", "even")), huge_reals),
    ),
    "natural_slope": (slope_of, st.tuples(huge_reals, huge_complex)),
    "c1_statistic": (c1_of, st.tuples(huge_reals, huge_reals, st.just(0))),
    "odd_geo_filter": (geodesic.odd_geo_filter, st.tuples(st.just(GEOS), huge_reals, huge_reals)),
    "corrected_slope_estimate_cutoffs": (
        geodesic.corrected_slope_estimate,
        st.tuples(st.just(1.0), st.just(GEOS), huge_reals, huge_reals),
    ),
    "surgery_hyperbolic_certificate_pq": (
        cusp.surgery_hyperbolic_certificate,
        st.tuples(st.just(GEOM), huge_or_not, huge_or_not, st.just(0.3)),
    ),
    "TwistParam": (geodesic.TwistParam, st.tuples(huge_or_not, huge_or_not)),
    "twisted_word": (twistfam.twisted_word, st.tuples(st.just(SPEC), st.tuples(huge_or_not))),
    "twist_insert": (twistfam.twist_insert, st.tuples(st.just(SPEC), st.tuples(huge_or_not))),
    "TwistSpec": (
        twistfam.TwistSpec,
        st.tuples(
            st.lists(huge_or_not, max_size=4),
            st.lists(st.tuples(huge_or_not, huge_or_not, huge_or_not), max_size=2),
        ),
    ),
    "from_braid_word": (DiagramCode.from_braid_word, st.tuples(st.lists(huge_or_not, max_size=6))),
    "full_twist_word": (braid.full_twist_word, st.tuples(huge_or_not, huge_or_not)),
    "predicted_signature": (
        predicted_center,
        st.tuples(st.tuples(huge_or_not), st.tuples(huge_or_not)),
    ),
    "predicted_slope": (
        twistfam.predicted_slope,
        st.tuples(st.tuples(huge_or_not), st.tuples(huge_or_not)),
    ),
    "slope_length": (cusp.slope_length, st.tuples(st.just(GEOM.cusp), huge_or_not, huge_or_not)),
}


# a drawn cutoff or cusp shape may warn; the warnings are not under test
@pytest.mark.filterwarnings("ignore::UserWarning")
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
        (slope_of, (10**400, 1 + 1j)),
        (c1_of, (10**400, GEOM.inj, 0)),
        (c1_of, (GEOM.volume, 10**400, 0)),
        (geodesic.corrected_slope_estimate, (1.0, [], 10**400)),
        (geodesic.odd_geo_filter, ([], 10**400)),
        (aggregate_sample, (10**400, 2.0)),
        (geodesic.GeodesicRecord, (0.1 + 1j, "odd", 10**400)),
        (cusp.surgery_hyperbolic_certificate, (GEOM, 1.5, 2, 0.3)),
        (cusp.surgery_hyperbolic_certificate, (GEOM, 3, math.nan, 0.3)),
        (geodesic.TwistParam, (2.0, 1.0)),
        (twistfam.twisted_word, (SPEC, (1.5,))),
        (twistfam.twist_insert, (SPEC, (1.5,))),
        (twistfam.TwistSpec, ((1.0, 1, 1), ())),
        (twistfam.TwistSpec, ((1, 1, 1), ((3.0, 1, 2),))),
        (DiagramCode.from_braid_word, ([1.5] * 3,)),
        (braid.full_twist_word, (1.5, 2)),
        (predicted_center, ((1.5,), (2,))),
        (geodesic.tube_torus, (10**400, 1.0)),
        (twistfam.predicted_slope, ((1.5,), (2,))),
        (twistfam.predicted_slope, ((2,), (0.5,))),
        (cusp.slope_length, (GEOM.cusp, 1.5, 0.5)),
        (cusp.slope_length, (GEOM.cusp, 2, math.nan)),
        (cusp.KnotGeom, (GEOM.cusp, 3, 1, 2.0)),
        (cusp.KnotGeom, (GEOM.cusp, 3, 1, "2")),
    ],
)
def test_reported_inputs_raise_value_error(fn, args):
    assert isinstance(call_within_budget(fn, args), ValueError)


def test_overrun_report_names_sizes_not_values():
    d = torus.torus_pd(2, 20001)

    def seifert_signature(d, word):
        raise MemoryError

    with pytest.raises(BudgetExceeded) as exc:
        call_within_budget(seifert_signature, (d, [1] * 20001))
    report = str(exc.value)
    assert report == (
        "seifert_signature(DiagramCode, list of len 20001) ran out of its memory budget"
    )
    assert len(report) < 1024
