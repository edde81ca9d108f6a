"""The contract of the package's frozen value classes: the repr text,
equality and hash over the compared fields only, no assignment or deletion
after construction, keyword construction with defaults, and HalfInt's
ordering."""

import math
import pickle

import pytest

from knotsig.census import CensusRow, DerivedRow, StatsReport
from knotsig.cusp import CuspShape, Interval, KnotGeom
from knotsig.diagram import DiagramCode, GoeritzData
from knotsig.exactlin import InertiaTriple, SymIntMatrix
from knotsig.geodesic import GeodesicRecord, TwistParam
from knotsig.torus import HalfInt
from knotsig.twistfam import FamilyRow, TwistSpec

TREFOIL = [(1, 3, 2, 6), (3, 5, 4, 2), (5, 1, 6, 4)]
TREFOIL_REPR = "DiagramCode(crossings=((1, 3, 2, 6), (3, 5, 4, 2), (5, 1, 6, 4)), signs=(1, 1, 1))"
TREFOIL_TEXT = "X(1,3,2,6) X(3,5,4,2) X(5,1,6,4)"
CUSP_REPR = "CuspShape(longitude=3.9279, meridian=(0.7237+1.016j))"
FORM_REPR = "SymIntMatrix(rows=(((0, 2), (1, -1)), ((0, -1),)))"
GEODESIC_REPR = (
    "GeodesicRecord(complex_length=(0.2+3.141592653589793j), "
    "linking_parity='even', tube_radius=None)"
)
ROW_REPR = (
    "CensusRow(name='6_1', crossings=6, sigma=0, volume=3.1639, inj=0.55, "
    "meridian=(0.7237+1.016j), longitude=3.9279, geodesics=(%s,), pd=%r)"
    % (GEODESIC_REPR, TREFOIL_TEXT)
)
DERIVED_REPR = (
    "DerivedRow(row=%s, slope=1.25, gap=-1.25, c1=0.5, sigma_hat=0.0, "
    "gap_normalized=-0.75)" % ROW_REPR
)


def cusp():
    return CuspShape(3.9279, complex(0.7237, 1.016))


def census_row():
    return CensusRow(
        "6_1", 6, 0, 3.1639, 0.55, complex(0.7237, 1.016), 3.9279,
        [GeodesicRecord(complex(0.2, math.pi), "even")], TREFOIL_TEXT,
    )


def derived_row():
    return DerivedRow(census_row(), 1.25, -1.25, 0.5, 0.0, -0.75)


def form():
    return SymIntMatrix([[2, -1], [-1, 0]])


# (factory of a fresh instance, compared fields, repr)
CASES = {
    "CuspShape": (cusp, ("longitude", "meridian"), CUSP_REPR),
    "KnotGeom": (
        lambda: KnotGeom(cusp(), 3.1639, 0.55, 0),
        ("cusp", "volume", "inj", "sigma"),
        "KnotGeom(cusp=%s, volume=3.1639, inj=0.55, sigma=0)" % CUSP_REPR,
    ),
    "Interval": (lambda: Interval(-1.5, 2.0), ("lo", "hi"), "Interval(lo=-1.5, hi=2.0)"),
    "SymIntMatrix": (form, ("rows",), FORM_REPR),
    "InertiaTriple": (
        lambda: InertiaTriple(1, 1, 0),
        ("n_pos", "n_neg", "n_zero"),
        "InertiaTriple(n_pos=1, n_neg=1, n_zero=0)",
    ),
    "DiagramCode": (lambda: DiagramCode(TREFOIL), ("crossings", "signs"), TREFOIL_REPR),
    "GoeritzData": (
        lambda: GoeritzData(form(), -3),
        ("matrix", "euler_correction"),
        "GoeritzData(matrix=%s, euler_correction=-3)" % FORM_REPR,
    ),
    "HalfInt": (lambda: HalfInt(-3), ("twice_value",), "HalfInt(twice_value=-3)"),
    "GeodesicRecord": (
        lambda: GeodesicRecord(complex(0.2, math.pi), "even"),
        ("complex_length", "linking_parity", "tube_radius"),
        GEODESIC_REPR,
    ),
    "TwistParam": (lambda: TwistParam(-2, 1), ("p", "q"), "TwistParam(p=-2, q=1)"),
    "TwistSpec": (
        lambda: TwistSpec([1, 1, 1], [[3, 1, 2]]),
        ("base_braid", "regions"),
        "TwistSpec(base_braid=(1, 1, 1), regions=((3, 1, 2),))",
    ),
    "FamilyRow": (
        lambda: FamilyRow((1,), -4, -2, -2),
        ("q", "sigma", "predicted", "residual"),
        "FamilyRow(q=(1,), sigma=-4, predicted=-2, residual=-2)",
    ),
    "CensusRow": (
        census_row,
        ("name", "crossings", "sigma", "volume", "inj", "meridian", "longitude",
         "geodesics", "pd"),
        ROW_REPR,
    ),
    "DerivedRow": (
        derived_row,
        ("row", "slope", "gap", "c1", "sigma_hat", "gap_normalized"),
        DERIVED_REPR,
    ),
    "StatsReport": (
        lambda: StatsReport((derived_row(),), 2.0, 2.0, ((6, 0.5, 0.5),), None, ((0.5, 1),), 1.0),
        ("rows", "envelope_b", "envelope_c", "c1_by_crossing", "correlation",
         "c1_hist", "envelope_fraction"),
        "StatsReport(rows=(%s,), envelope_b=2.0, envelope_c=2.0, "
        "c1_by_crossing=((6, 0.5, 0.5),), correlation=None, c1_hist=((0.5, 1),), "
        "envelope_fraction=1.0)" % DERIVED_REPR,
    ),
}

# compared fields that are not stored but built anew on each read
BUILT_ON_READ = {("DiagramCode", "crossings"), ("SymIntMatrix", "rows")}


@pytest.mark.parametrize("name", sorted(CASES))
def test_value_class_contract(name):
    make, compared, text = CASES[name]
    x, y = make(), make()
    assert type(x).__name__ == name
    assert repr(x) == text
    # equal and hashed over the compared fields alone
    assert x == y and not x != y and x is not y
    assert hash(x) == hash(y) == hash(tuple(getattr(x, f) for f in compared))
    assert x != object() and x.__eq__(object()) is NotImplemented
    assert pickle.loads(pickle.dumps(x)) == x
    for field in compared:
        before = getattr(x, field)
        with pytest.raises(AttributeError):
            setattr(x, field, before)
        with pytest.raises(AttributeError):
            delattr(x, field)
        if (name, field) in BUILT_ON_READ:
            assert getattr(x, field) == before
        else:
            assert getattr(x, field) is before
    with pytest.raises(AttributeError):
        x.unknown = 1


def test_derived_fields_stay_out_of_eq_hash_and_repr():
    a, b = DiagramCode(TREFOIL), DiagramCode(TREFOIL)
    assert a._geom is not b._geom and a == b and hash(a) == hash(b)
    assert "_geom" not in repr(a)
    with pytest.raises(AttributeError):
        a._geom = b._geom
    r, s = census_row(), census_row()
    object.__setattr__(s, "geom", KnotGeom(cusp(), 5.0, 0.5))
    assert r.geom != s.geom and r == s and hash(r) == hash(s)
    assert repr(r) == repr(s) == ROW_REPR
    with pytest.raises(AttributeError):
        r.geom = s.geom
    assert CuspShape(1.5, 2j) != CuspShape(1.5, 3j)
    assert DiagramCode(TREFOIL) != DiagramCode([(1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)])


def test_keyword_construction_and_defaults():
    c = cusp()
    g = KnotGeom(cusp=c, volume=3.1639, inj=0.55)
    assert g.sigma is None and g == KnotGeom(c, 3.1639, 0.55, None)
    geo = GeodesicRecord(complex_length=complex(0.2, math.pi), linking_parity="odd")
    assert geo.tube_radius is None
    row = CensusRow(name="6_1", crossings=6, sigma=0, volume=3.1639, inj=0.55,
                    meridian=complex(0.7237, 1.016), longitude=3.9279)
    assert row.geodesics == () and row.pd is None
    assert row.geom == KnotGeom(c, 3.1639, 0.55, 0)
    assert DiagramCode(crossings=TREFOIL) == DiagramCode(TREFOIL)
    assert TwistSpec(base_braid=(1, 1, 1), regions=((3, 1, 2),)) == CASES["TwistSpec"][0]()
    assert HalfInt(twice_value=-3) == HalfInt(-3)


def test_halfint_order_and_other_types():
    values = [HalfInt(3), HalfInt(-1), HalfInt(0), HalfInt(2)]
    assert sorted(values) == [HalfInt(-1), HalfInt(0), HalfInt(2), HalfInt(3)]
    assert HalfInt(1) < HalfInt(2) <= HalfInt(2) < HalfInt(3)
    assert HalfInt(3) > HalfInt(2) >= HalfInt(2) > HalfInt(1)
    assert not HalfInt(1) == 1 and HalfInt(1) != 1
    for compare in (
        lambda: HalfInt(1) < 1,
        lambda: HalfInt(1) <= 1,
        lambda: HalfInt(1) > 1,
        lambda: HalfInt(1) >= 1,
    ):
        with pytest.raises(TypeError):
            compare()
    with pytest.raises(ValueError, match=r"^3/2 is not an integer$"):
        HalfInt(3).as_integer()
    assert HalfInt(-4).as_integer() == -2
