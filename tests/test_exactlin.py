import math
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from knotsig import diagram, torus, twistfam
from knotsig.exactlin import InertiaTriple, SymIntMatrix, _pivots, inertia, signature

from oracles import dense, inertia_by_charpoly, inertia_dense_reference, pivots_reference
from test_totality import call_within_budget


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
    assert m._rows == ({1: 3}, {0: 3})


def test_storage_is_a_copy_of_the_callers_rows():
    rows = [{1: 3, 0: 2}, {0: 3, 2: -1}, {1: -1}]
    m = SymIntMatrix.from_nonzeros(rows)
    before = (m.rows, hash(m), m.entries, inertia(m))
    rows[0][0] = -5
    rows[1][1] = 7
    rows[2].clear()
    del rows[0][1]
    assert (m.rows, hash(m), m.entries, inertia(m)) == before
    assert before[0] == (((0, 2), (1, 3)), ((0, 3), (2, -1)), ((1, -1),))


@given(data=st.data())
def test_storage_matches_the_dense_constructor_reference(data):
    # each row's mapping in a drawn order, with explicit zeros mixed in
    rows = data.draw(sparse_sym(max_dim=12))
    n = len(rows)
    maps = []
    for row in rows:
        cols = data.draw(st.permutations(range(n)))
        maps.append({j: row[j] for j in cols if row[j] or data.draw(st.booleans())})
    m = SymIntMatrix.from_nonzeros(maps)
    reference = SymIntMatrix(rows)
    assert m == reference and hash(m) == hash(reference)
    # sorted by column, whatever the mappings' order, and equal on every read
    first = m.rows
    assert first == m.rows == reference.rows == tuple(
        tuple((j, x) for j, x in enumerate(row) if x) for row in rows
    )
    assert m.n == n and m.entries == tuple(map(tuple, rows))
    assert inertia(m) == inertia(reference)


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
def sparse_sym(draw, max_dim=24, zero_diagonal=False, duplicate=False, hub=False, mixed=False):
    """A symmetric matrix with about three nonzeros per row; optionally with
    every diagonal entry zero, with one row/column copied onto another
    (so the matrix is singular), with one hub row joined to every
    other row and the diagonal zero or not, as drawn, or mixed: entries
    in {-2, -1, 1, 2}, and about half the rows, drawn, have a zero
    diagonal and one nonzero, to a row with a nonzero diagonal.  A mixed
    form's zero-diagonal rows are pivoted early, and their repairs often
    meet 2 a_kj + a_jj = 0."""
    n = draw(st.integers(min_value=2 if duplicate else 0, max_value=max_dim))
    rows = [[0] * n for _ in range(n)]
    if n == 0:
        return rows
    index = st.integers(min_value=0, max_value=n - 1)
    value = st.sampled_from([-2, -1, 1, 2]) if mixed else st.integers(min_value=-9, max_value=9)
    if hub:
        zero_diagonal = draw(st.booleans())
    leaf = [mixed and draw(st.booleans()) for _ in range(n)]
    for _ in range(draw(st.integers(min_value=0, max_value=(6 if mixed else 3) * n))):
        i, j = draw(index), draw(index)
        if (i == j and zero_diagonal) or (mixed and (i == j or leaf[i] or leaf[j])):
            continue
        rows[i][j] = rows[j][i] = draw(value)
    if mixed and not all(leaf):
        full = st.sampled_from([i for i in range(n) if not leaf[i]])
        for i in range(n):
            if leaf[i]:
                j = draw(full)
                rows[i][j] = rows[j][i] = draw(value)
            else:
                rows[i][i] = draw(value)
    if hub:
        h = draw(index)
        for t in range(n):
            if t != h:
                rows[h][t] = rows[t][h] = draw(value.filter(bool))
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
    "hub": {"hub": True},
    "mixed-diagonal": {"mixed": True},
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


def path_rows(n):
    """Nonzero rows of the n-dim form with 2 on the diagonal and -1 beside
    it."""
    rows = [{i: 2} for i in range(n)]
    for i in range(n - 1):
        rows[i][i + 1] = rows[i + 1][i] = -1
    return rows


def hyperbolic_rows(n):
    """Nonzero rows of the orthogonal sum of n/2 hyperbolic planes
    [[0, 1], [1, 0]]."""
    return [{i ^ 1: 1} for i in range(n)]


def star_rows(n, hub=None, leaf=1):
    """Nonzero rows of a hub of diagonal `hub` (n if None) and n leaves of
    diagonal `leaf`, each with a 1 to the hub."""
    rows = [{0: n if hub is None else hub, **dict.fromkeys(range(1, n + 1), 1)}]
    rows += [{0: 1, i: leaf} if leaf else {0: 1} for i in range(1, n + 1)]
    return rows


# the 3-strand twist region whose Goeritz form has one hub row
HUB_SPEC = twistfam.TwistSpec((1, -2), ((0, 1, 3),))


def twist_hub_form(q):
    return diagram.checkerboard(twistfam.twist_insert(HUB_SPEC, (q,))).matrix


def test_large_sparse_form_needs_no_dense_copy():
    # a 20,000-dim path form; a dense copy would take about 3 GB
    n = 20_000
    rows = path_rows(n)
    tracemalloc.start()
    try:
        got = inertia(SymIntMatrix.from_nonzeros(rows))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == InertiaTriple(n, 0, 0)
    assert peak < 64 * 2**20


def test_hyperbolic_sum_repairs_in_budget():
    # every pivot of a sum of hyperbolic planes [[0, 1], [1, 0]] is a
    # zero-diagonal repair; picking each one by a scan of all rows made
    # this n = 20,000 form quadratic, about 30 s
    n = 20_000
    m = SymIntMatrix.from_nonzeros(hyperbolic_rows(n))
    assert call_within_budget(inertia, (m,)) == InertiaTriple(n // 2, n // 2, 0)


def test_star_form_in_budget():
    # a hub of diagonal n and n leaves of diagonal 1, each with a 1 to the
    # hub; every leaf pivot meets the hub row, which made this form
    # quadratic when each pivot rewrote every row it met, about 40 s
    n = 20_000
    m = SymIntMatrix.from_nonzeros(star_rows(n))
    assert call_within_budget(inertia, (m,)) == InertiaTriple(n, 0, 1)


@pytest.fixture(scope="module")
def hub_form():
    """The 5,998-dim Goeritz form of the 3-strand twist region of
    {"base_braid": [1, -2], "regions": [[0, 1, 3]]} at q = 1,999: one white
    face meets every crossing, so one row has 5,998 nonzeros."""
    return twist_hub_form(1999)


def test_hub_form_in_budget(hub_form):
    # about 3 s when each pivot rewrote the whole hub row
    assert call_within_budget(inertia, (hub_form,), 1) == InertiaTriple(2000, 3998, 0)


def _symmetrized(v):
    v = dense(v)
    return [[v[i][j] + v[j][i] for j in range(len(v))] for i in range(len(v))]


@pytest.fixture(scope="module")
def knot_forms():
    """Goeritz and V + V^T forms of T(5, 24) and of a 3-strand twist-family
    row with 20 full twists (122 crossings, V + V^T of dimension 120)."""
    forms = {}
    row = twistfam.twist_insert(twistfam.TwistSpec((1, -2), ((1, 1, 3),)), (20,))
    for name, d in [("T(5,24)", torus.torus_pd(5, 24)), ("twist row", row)]:
        forms[name + " goeritz"] = diagram.checkerboard(d).matrix.entries
        forms[name + " seifert"] = _symmetrized(diagram.seifert_matrix(d))
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


def same_pivots(rows):
    stored = SymIntMatrix(rows).rows
    return list(_pivots(stored)) == list(pivots_reference(stored))


@pytest.mark.parametrize("kind", ["dense", *SPARSE_KINDS])
@given(data=st.data())
def test_pivot_sequence_matches_reference(kind, data):
    forms = sym_matrix(8) if kind == "dense" else sparse_sym(**SPARSE_KINDS[kind])
    assert same_pivots(data.draw(forms))


def test_knot_form_pivot_sequences_match_reference(knot_forms):
    for name, rows in knot_forms.items():
        assert same_pivots(rows), name


@pytest.mark.parametrize(
    "build",
    [
        lambda: twist_hub_form(150),
        lambda: SymIntMatrix.from_nonzeros(star_rows(300)),
        lambda: SymIntMatrix.from_nonzeros(star_rows(300, hub=-2, leaf=0)),
        lambda: SymIntMatrix.from_nonzeros(hyperbolic_rows(300)),
        lambda: SymIntMatrix.from_nonzeros(path_rows(300)),
    ],
    ids=["twist hub q=150", "star n=300", "zero-leaf star n=300", "hyperbolic sum n=300",
         "path n=300"],
)
def test_fixed_form_pivot_sequences_match_reference(build):
    # the shapes where shared cells and their stamps matter most, small
    # enough for the reference's per-row stamps
    rows = build().rows
    assert list(_pivots(rows)) == list(pivots_reference(rows))


@pytest.mark.parametrize(
    "rows",
    [
        # pivot 0 cancels the diagonals of rows 1 and 2, which raises
        # their weights from 6 to 9: each one's entry of weight 6 is
        # popped and its new key pushed
        [[1, -1, 1], [-1, 1, 1], [1, 1, 1]],
        # pivot 2 lowers row 1's weight from 8 to 6, and pivot 3 cancels
        # its diagonal, which raises it to 9: the entry of weight 6 is
        # popped and the new key pushed, and the first entry, of weight
        # 8 and so also below the new key, is popped and skipped
        [[0, 2, 0, 0], [2, 1, 1, 1], [0, 1, 2, 0], [0, 1, 0, 2]],
        # leaf 1 has a zero diagonal and is repaired with the hub j = 0:
        # a_10 + a_00 = 0 cancels, so the hub leaves the line with its
        # weight lowered from 10 to 8, and is pushed there
        [[-1, 1, 2, 2, 2], [1, 0, 0, 0, 0], [2, 0, 0, 0, 0], [2, 0, 0, 0, 0],
         [2, 0, 0, 0, 0]],
    ],
    ids=["key rises", "older entry skipped", "repair cancels"],
)
def test_heap_paths_match_reference(rows):
    stored = SymIntMatrix(rows).rows
    assert list(_pivots(stored)) == list(pivots_reference(stored))
    got = inertia(SymIntMatrix(rows))
    assert (got.n_pos, got.n_neg, got.n_zero) == inertia_dense_reference(rows)


@pytest.mark.parametrize("n", [5, 40])
def test_zero_leaf_star_repairs_subtract_the_hub(n):
    # each leaf k is a zero diagonal whose one neighbour, the hub j, has
    # a_jj = -2 and a_kj = 1; adding the hub's row would make the pivot
    # 2 + (-2) = 0, so the repair subtracts it, and the pivot is -4
    rows = star_rows(n, hub=-2, leaf=0)
    pivots = list(_pivots(SymIntMatrix.from_nonzeros(rows).rows))
    assert pivots[0] == -4
    got = inertia(SymIntMatrix.from_nonzeros(rows))
    assert (got.n_pos, got.n_neg, got.n_zero) == inertia_dense_reference(dense(rows))


def torus_det(p, q):
    # det T(p, q) = |Delta(-1)|: 1 when p and q are both odd, else the odd one
    return p if q % 2 == 0 else q if p % 2 == 0 else 1


TORUS_PAIRS = [(p, q) for p in range(2, 13) for q in range(p + 1, 150 // p + 1)
               if math.gcd(p, q) == 1] + [(4, 75)]


def test_repairs_keep_the_torus_determinant():
    # a repair adds or subtracts one row and column, a transform of det 1,
    # so the last Bareiss pivot is the form's determinant on both sides
    peak = {}
    for p, q in TORUS_PAIRS:
        d = torus.torus_pd(p, q)
        forms = [diagram.checkerboard(d).matrix.rows,
                 SymIntMatrix(_symmetrized(diagram.seifert_matrix(d))).rows]
        pivots = [list(_pivots(rows)) for rows in forms]
        assert [abs(ps[-1]) for ps in pivots] == [torus_det(p, q)] * 2, (p, q)
        peak[p, q] = max(abs(x).bit_length() for ps in pivots for x in ps)
    assert len(TORUS_PAIRS) == 140
    assert peak[4, 75] <= 56
