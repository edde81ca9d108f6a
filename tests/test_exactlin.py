import math
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from knotsig import diagram, torus, twistfam
from knotsig.exactlin import InertiaTriple, SymIntMatrix, _pivots, inertia, signature

from oracles import inertia_by_charpoly, inertia_dense_reference


def test_diagonal_matrix():
    assert inertia(SymIntMatrix([[2, 0], [0, -3]])) == InertiaTriple(1, 1, 0)


def test_zero_1x1():
    assert inertia(SymIntMatrix([[0]])) == InertiaTriple(0, 0, 1)


def test_hyperbolic_plane():
    assert inertia(SymIntMatrix([[0, 1], [1, 0]])) == InertiaTriple(1, 1, 0)


def test_negative_definite_2x2():
    # characteristic polynomial roots -1 and -3
    assert inertia(SymIntMatrix([[-2, 1], [1, -2]])) == InertiaTriple(0, 2, 0)


def test_signature_values():
    assert signature(SymIntMatrix([[2, 0], [0, -3]])) == 0
    assert signature(SymIntMatrix([[-2, 1], [1, -2]])) == -2
    assert signature(SymIntMatrix([])) == 0


def test_non_square_rejected():
    with pytest.raises(ValueError):
        SymIntMatrix([[1, 2]])


def test_asymmetric_rejected():
    with pytest.raises(ValueError):
        SymIntMatrix([[0, 1], [2, 0]])


def test_non_integer_rejected():
    with pytest.raises(ValueError):
        SymIntMatrix([[0.5]])


@pytest.mark.parametrize(
    "rows",
    [
        [{1: 1}, {0: 2}],
        [{0: 1, 1: 1}, {}],
        [{0: 0.5}],
        [{0: "1"}],
        [{2: 1}, {}],
        [{-1: 1}, {}],
    ],
    ids=["asymmetric", "one-sided", "float", "string", "column-too-big",
         "column-negative"],
)
def test_from_nonzeros_rejects(rows):
    with pytest.raises(ValueError):
        SymIntMatrix.from_nonzeros(rows)


def test_from_nonzeros_drops_zeros():
    m = SymIntMatrix.from_nonzeros([{0: 0, 1: 3}, {1: 0, 0: 3}])
    assert m.rows == (((1, 3),), ((0, 3),))
    assert m.entries == ((0, 3), (3, 0))


def test_inertia_rejects_raw_lists():
    with pytest.raises(ValueError):
        inertia([[1, 0], [0, 1]])


def sym_matrix(max_dim, max_entry=9):
    def build(draw):
        n = draw(st.integers(min_value=0, max_value=max_dim))
        vals = st.integers(min_value=-max_entry, max_value=max_entry)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = draw(vals)
        return rows

    return st.composite(lambda draw: build(draw))()


def unimodular(n, draw):
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        kind = draw(st.integers(min_value=0, max_value=2))
        i = draw(st.integers(min_value=0, max_value=max(n - 1, 0)))
        j = draw(st.integers(min_value=0, max_value=max(n - 1, 0)))
        if n == 0:
            break
        if kind == 0 and i != j:
            lam = draw(st.integers(min_value=-3, max_value=3))
            for t in range(n):
                p[i][t] += lam * p[j][t]
        elif kind == 1:
            p[i], p[j] = p[j], p[i]
        else:
            p[i] = [-x for x in p[i]]
    return p


@st.composite
def matrix_with_unimodular(draw):
    rows = draw(sym_matrix(8))
    p = unimodular(len(rows), draw)
    return rows, p


@given(matrix_with_unimodular())
def test_congruence_invariance(data):
    rows, p = data
    n = len(rows)
    pt_m = [[sum(p[k][i] * rows[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    pt_m_p = [[sum(pt_m[i][k] * p[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    assert inertia(SymIntMatrix(pt_m_p)) == inertia(SymIntMatrix(rows))


@given(sym_matrix(8))
def test_negation_swaps_counts(rows):
    a = inertia(SymIntMatrix(rows))
    b = inertia(SymIntMatrix([[-x for x in row] for row in rows]))
    assert (a.n_pos, a.n_neg, a.n_zero) == (b.n_neg, b.n_pos, b.n_zero)


@given(sym_matrix(5), sym_matrix(5))
def test_block_additivity(rows_a, rows_b):
    na, nb = len(rows_a), len(rows_b)
    block = [
        [rows_a[i][j] if i < na and j < na else 0 for j in range(na + nb)]
        for i in range(na)
    ] + [
        [rows_b[i - na][j - na] if j >= na else 0 for j in range(na + nb)]
        for i in range(na, na + nb)
    ]
    a = inertia(SymIntMatrix(rows_a))
    b = inertia(SymIntMatrix(rows_b))
    c = inertia(SymIntMatrix(block))
    assert (c.n_pos, c.n_neg, c.n_zero) == (
        a.n_pos + b.n_pos,
        a.n_neg + b.n_neg,
        a.n_zero + b.n_zero,
    )


@given(sym_matrix(5))
def test_agrees_with_sturm_oracle(rows):
    got = inertia(SymIntMatrix(rows))
    assert (got.n_pos, got.n_neg, got.n_zero) == inertia_by_charpoly(rows)


@st.composite
def sparse_sym(draw, max_dim=24, zero_diagonal=False, duplicate=False):
    """A symmetric matrix with about three nonzeros per row; optionally with
    every diagonal entry zero, or with one row/column copied onto another
    (so the matrix is singular)."""
    n = draw(st.integers(min_value=2 if duplicate else 0, max_value=max_dim))
    rows = [[0] * n for _ in range(n)]
    if n == 0:
        return rows
    index = st.integers(min_value=0, max_value=n - 1)
    value = st.integers(min_value=-9, max_value=9)
    for _ in range(draw(st.integers(min_value=0, max_value=3 * n))):
        i, j = draw(index), draw(index)
        if i == j and zero_diagonal:
            continue
        rows[i][j] = rows[j][i] = draw(value)
    if duplicate:
        i, j = draw(st.lists(index, min_size=2, max_size=2, unique=True))
        for t in range(n):
            rows[j][t] = rows[t][j] = rows[i][t]
        rows[j][j] = rows[i][j] = rows[j][i] = rows[i][i]
    return rows


SPARSE_KINDS = {
    "sparse": {},
    "zero-diagonal": {"zero_diagonal": True},
    "rank-deficient": {"duplicate": True},
}


@pytest.mark.parametrize("kind", SPARSE_KINDS)
@given(data=st.data())
def test_agrees_with_dense_reference(kind, data):
    rows = data.draw(sparse_sym(**SPARSE_KINDS[kind]))
    got = inertia(SymIntMatrix(rows))
    assert (got.n_pos, got.n_neg, got.n_zero) == inertia_dense_reference(rows)


@pytest.mark.parametrize("kind", ["dense", "sparse"])
@given(data=st.data())
def test_sparse_and_dense_construction_agree(kind, data):
    rows = data.draw(sym_matrix(8) if kind == "dense" else sparse_sym())
    dense = SymIntMatrix(rows)
    sparse = SymIntMatrix.from_nonzeros([{j: x for j, x in enumerate(row) if x} for row in rows])
    assert dense == sparse and hash(dense) == hash(sparse)
    assert dense.entries == tuple(tuple(row) for row in rows)
    assert SymIntMatrix(dense.entries) == dense
    got = inertia(sparse)
    assert (got.n_pos, got.n_neg, got.n_zero) == inertia_dense_reference(rows)


def test_large_sparse_form_needs_no_dense_copy():
    # a 20,000-dim path form; a dense copy would take about 3 GB
    n = 20_000
    rows = [{i: 2} for i in range(n)]
    for i in range(n - 1):
        rows[i][i + 1] = rows[i + 1][i] = -1
    tracemalloc.start()
    try:
        got = inertia(SymIntMatrix.from_nonzeros(rows))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == InertiaTriple(n, 0, 0)
    assert peak < 64 * 2**20


def _symmetrized(v):
    return [[v[i][j] + v[j][i] for j in range(len(v))] for i in range(len(v))]


@pytest.fixture(scope="module")
def knot_forms():
    """Goeritz and V + V^T forms of T(5, 24) and of a 3-strand twist-family
    row with 20 full twists (122 crossings, V + V^T of dimension 120)."""
    forms = {}
    row = twistfam.twist_insert(twistfam.TwistSpec((1, -2), ((1, 1, 3),)), (20,))
    for name, d in [("T(5,24)", torus.torus_pd(5, 24)), ("twist row", row)]:
        forms[name + " goeritz"] = diagram.checkerboard(d).matrix.entries
        forms[name + " seifert"] = _symmetrized(diagram.seifert_matrix(d).matrix)
    return forms


def test_knot_forms_agree_with_dense_reference(knot_forms):
    for name, rows in knot_forms.items():
        got = inertia(SymIntMatrix(rows))
        assert (got.n_pos, got.n_neg, got.n_zero) == inertia_dense_reference(rows), name


def hadamard_bits(rows):
    # a pivot is a minor of E A E^T, whose entries are sums of at most four
    # entries of A; Hadamard bounds a minor by the product of its row norms
    n = len(rows)
    biggest = max((abs(x) for row in rows for x in row), default=0)
    if biggest == 0:
        return 0
    return n * math.log2(4 * math.sqrt(n) * biggest) + 1


def peak_pivot_bits(rows):
    return max((abs(p).bit_length() for p in _pivots(SymIntMatrix(rows).rows)), default=0)


def test_knot_form_pivots_within_hadamard_bound(knot_forms):
    for name, rows in knot_forms.items():
        assert peak_pivot_bits(rows) <= hadamard_bits(rows), name


@pytest.mark.parametrize("kind", SPARSE_KINDS)
@given(data=st.data())
def test_pivots_within_hadamard_bound(kind, data):
    rows = data.draw(sparse_sym(**SPARSE_KINDS[kind]))
    assert peak_pivot_bits(rows) <= hadamard_bits(rows)
