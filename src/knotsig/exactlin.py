"""Exact inertia of symmetric integer matrices by fraction-free elimination.

A `SymIntMatrix` stores its upper triangle: one dict of the nonzeros
a_ij with j >= i per row i, so each unordered pair is one entry.  The
public constructors check the whole form, symmetry included, and copy that
half; the package's own builders, which add each pair once, hand their
halves to a private constructor that checks types and columns only.  The
sorted tuples of `rows` and the dense tuple of tuples of `entries` are
views of both halves built on read, and `inertia` hands the dicts to the
elimination as they are.

`inertia` runs a symmetric Bareiss elimination (E. H. Bareiss, *Sylvester's
identity and multistep integer-preserving Gaussian elimination*, Math. Comp.
22 (1968)) on the stored rows.  Every step is a congruence A -> E A E^T with
det(E) != 0, so by Sylvester's law of inertia the signs of the LDL^T pivots
it reads off are the eigenvalue signs of the input.  All arithmetic is over
unbounded Python integers, and every stored number is a minor of the input
(after the zero-diagonal repairs), so no entry outgrows Hadamard's bound.
The pivot order takes low-degree rows first, a zero diagonal at four times
its degree, and repairs a zero-diagonal pivot k with its neighbour j by
adding or subtracting row and column j, whichever gives a nonzero pivot
+-2 a_kj + a_jj: the 1 x 1 case of the symmetric-indefinite pivoting of
J. R. Bunch and B. N. Parlett, SIAM J. Numer. Anal. 8 (1971).
Each stored entry carries the pivot count at which it was last exact, so a
pivot rewrites only the entries its own row meets and every other entry is
rescaled, exactly, when it is next read; one hub row that meets every pivot
costs no more than any other row.  An off-diagonal entry and its stamp are
one cell [a_ij, stamp], the same list in row i and in row j, so a pivot
computes each update of a symmetric pair once and writes it in place.
"""

from heapq import heapify, heappop, heappush

from ._record import Record


class SymIntMatrix(Record):
    """Symmetric integer matrix, stored as its upper triangle: one dict
    {j: a_ij} of the nonzeros with j >= i of each row i, checked and
    copied when it is built. `SymIntMatrix(rows)` converts dense rows.
    `rows`, the tuple whose item i holds the pairs (j, a_ij) with
    a_ij != 0 in increasing j, and `entries`, the dense tuple of row
    tuples, are built on read from both halves."""

    _fields = ("rows",)
    __slots__ = ("_upper",)

    def __init__(self, rows):
        rows = [tuple(row) for row in rows]
        if any(len(row) != len(rows) for row in rows):
            raise ValueError("matrix must be square")
        # a zero that is not an integer is kept, for the check to reject
        rows = [{j: x for j, x in enumerate(row) if x or not isinstance(x, int)} for row in rows]
        object.__setattr__(self, "_upper", self.from_nonzeros(rows)._upper)

    @classmethod
    def from_nonzeros(cls, rows):
        """The n x n matrix, n = len(rows), whose row i is the mapping
        rows[i] = {j: a_ij}; absent entries are zero. Checked in one
        pass over the entries, then the entries with j >= i are copied
        with zeros dropped, so the cost is O(nnz) and the matrix does not
        change when the caller's mappings do."""
        n = len(rows)
        for i, row in enumerate(rows):
            for j, x in row.items():
                if not isinstance(x, int):
                    raise ValueError("entries must be integers, got %r" % (x,))
                if not (isinstance(j, int) and 0 <= j < n):
                    raise ValueError("column %r of row %d is outside 0..%d" % (j, i, n - 1))
                if x and rows[j].get(i, 0) != x:
                    raise ValueError("matrix must be symmetric, differs at (%d, %d)" % (i, j))
        upper = tuple({j: x for j, x in row.items() if j >= i and x} for i, row in enumerate(rows))
        m = cls.__new__(cls)
        object.__setattr__(m, "_upper", upper)
        return m

    @classmethod
    def _from_upper(cls, upper):
        """The matrix whose upper triangle is upper[i] = {j: a_ij}, j >= i,
        for a builder that adds each unordered pair once. Entries must be
        integers and columns integers in i..n-1; zeros are dropped in
        place. The dicts are kept, not copied."""
        n = len(upper)
        for i, row in enumerate(upper):
            for j, x in row.items():
                if not isinstance(x, int):
                    raise ValueError("entries must be integers, got %r" % (x,))
                if not (isinstance(j, int) and i <= j < n):
                    raise ValueError("column %r of row %d is outside %d..%d" % (j, i, i, n - 1))
            if 0 in row.values():
                for j in [j for j, x in row.items() if not x]:
                    del row[j]
        m = cls.__new__(cls)
        object.__setattr__(m, "_upper", tuple(upper))
        return m

    @property
    def rows(self):
        full = [list(row.items()) for row in self._upper]
        for i, row in enumerate(self._upper):
            for j, x in row.items():
                if j != i:
                    full[j].append((i, x))
        return tuple(tuple(sorted(row)) for row in full)

    @property
    def n(self):
        return len(self._upper)

    @property
    def entries(self):
        out = [[0] * len(self._upper) for _ in self._upper]
        for i, row in enumerate(self._upper):
            for j, x in row.items():
                out[i][j] = out[j][i] = x
        return tuple(map(tuple, out))


class InertiaTriple(Record):
    """Counts of positive, negative and zero eigenvalues."""

    __slots__ = _fields = ("n_pos", "n_neg", "n_zero")

    def __init__(self, n_pos, n_neg, n_zero):
        object.__setattr__(self, "n_pos", n_pos)
        object.__setattr__(self, "n_neg", n_neg)
        object.__setattr__(self, "n_zero", n_zero)

    @property
    def signature(self):
        return self.n_pos - self.n_neg


def _pivots(rows):
    """Yield the Bareiss pivots d_1, d_2, ... of the symmetric integer
    matrix whose row i has the nonzeros rows[i], in elimination order;
    there is one per nonzero eigenvalue.  rows[i] is a dict {j: a_ij} of
    the nonzeros with j >= i, as a `SymIntMatrix` stores its upper
    triangle.  (A list of the dicts' items views would hold one object
    per row that the cyclic garbage collector tracks: on the 60,000-row
    hub form at the letter cap, one more full collection.)

    d_t is the principal minor of the input (after the repairs below)
    on the first t pivot indices, so the t-th LDL^T pivot is
    d_t / d_{t-1}, with d_0 = 1.  Each row is a dict of its nonzeros,
    and each unordered pair {i, j} has one cell [a_ij, s], the same list
    under a[i][j] and a[j][i]; s is the pivot count at which a_ij was
    last exact.  Eliminating pivot k with value p, after t pivots, reads
    row k once into a list of (j, a_kj), drops k from each neighbour's
    dict and rewrites each unordered pair {i, j} of that list once, in
    place: a_ij <- (p a_ij d_t / d_s - a_ik a_kj) // d_t.  By
    Sylvester's identity the result is again a minor, so the division is
    exact.  A fill-in is a new cell shared by both rows, and an entry
    that cancels leaves both.  An entry that row k misses would only be
    scaled by p / d_t: it keeps its cell and is scaled by d_now / d_s
    (exactly, as it is a minor too) when it is next read.  So a pivot
    costs half the square of its row's length, however long the rows it
    meets are.

    Every non-empty row waits in one heap.  A row's weight is its degree
    (its count of nonzeros) if its diagonal is nonzero, and 4 times its
    degree if its diagonal is zero; the next pivot is the remaining row
    of least weight, a nonzero diagonal first on equal weight, then the
    lowest index.  Any symmetric order is a congruence; this one takes
    a zero-diagonal row of low degree before a hub row, which would fill
    the form.  A row's key is one int, ((8 deg + 1 if the diagonal is
    zero else 2 deg) << bits) | i with bits = n.bit_length(), which
    sorts in that order.  The heap holds lower bounds on the keys:
    low[i] is the last key pushed for row i, and is in the heap until it
    is popped.  After a pivot, a row whose key changed is pushed only if
    its new key is below low[i].  A popped entry of an empty row is
    skipped.  One below its row's key is stale and skipped, and if it is
    low[i], the row's key is pushed and becomes low[i].  One that equals
    its row's key is below every other row's low entry, and so below
    every other key: that row is the pivot, as with a heap of exact keys.
    A zero-diagonal pivot k is repaired: row and column k, gathered in a
    dict, get e times row and column j added, for the neighbour j of k
    of least degree and e = +1 unless 2 a_kj + a_jj = 0, when e = -1.
    The new diagonal, the pivot, is 2 e a_kj + a_jj, and the two choices
    differ by 4 a_kj != 0, so it is never zero.  That reads row j and
    changes no stored cell: row k is pivoted at once, so the accumulated
    transform has det 1 (the last pivot of a nonsingular form is its
    determinant), each of its rows has at most two nonzeros, both +-1,
    and each transformed entry is a signed sum of at most four input
    entries.  A row that the repair drops from k's line has lost k, and
    is pushed by the same rule as the rows of the line.
    Rows that become empty are zero eigenvalues and yield nothing.
    """
    a = [{} for _ in rows]
    for i, row in enumerate(rows):
        row_i = a[i]
        for j, x in row.items():
            row_i[j] = a[j][i] = [x, 0]
    bits = len(rows).bit_length()
    mask = (1 << bits) - 1
    d = [1]
    low = [((2 * len(row) if i in row else 8 * len(row) + 1) << bits) | i
           for i, row in enumerate(a)]
    heap = [low[i] for i, row in enumerate(a) if row]
    heapify(heap)
    while heap:
        entry = heappop(heap)
        k = entry & mask
        row_k = a[k]
        if not row_k:
            continue
        size = len(row_k)
        zero = k not in row_k
        key = ((8 * size + 1 if zero else 2 * size) << bits) | k
        if entry != key:
            if entry == low[k]:
                low[k] = key
                heappush(heap, key)
            continue
        a[k] = {}
        t = len(d) - 1
        prev = d[t]
        line = []
        for j, (x, s) in row_k.items():
            if s != t:
                x = x * prev // d[s]
            if j == k:
                p = x
            else:
                del a[j][k]
                line.append((j, x))
        if zero:
            row_k = dict(line)
            _, j = min((len(a[i]), i) for i in row_k)
            row_j = a[j]
            f = row_k[j]
            y, s = row_j.get(j, (0, t))
            if s != t:
                y = y * prev // d[s]
            e = -1 if 2 * f + y == 0 else 1
            p = 2 * e * f + y
            for m, (y, s) in row_j.items():
                x = row_k.get(m, 0) + e * (y if s == t else y * prev // d[s])
                if x:
                    row_k[m] = x
                else:
                    del row_k[m]
                    row_m = a[m]
                    size = len(row_m)
                    key = ((2 * size if m in row_m else 8 * size + 1) << bits) | m
                    if key < low[m]:
                        low[m] = key
                        heappush(heap, key)
            line = list(row_k.items())
        t1 = t + 1
        done = []
        for i, f in line:
            row_i = a[i]
            done.append((i, f))
            for j, y in done:
                cell = row_i.get(j)
                if cell is None:
                    x = -f * y // prev
                    if x:
                        row_i[j] = a[j][i] = [x, t1]
                else:
                    x, s = cell
                    if s != t:
                        x = x * prev // d[s]
                    x = (p * x - f * y) // prev
                    if x:
                        cell[0] = x
                        cell[1] = t1
                    else:
                        del row_i[j]
                        if j != i:
                            del a[j][i]
        for i, _ in line:
            row_i = a[i]
            size = len(row_i)
            if size:
                key = ((2 * size if i in row_i else 8 * size + 1) << bits) | i
                if key < low[i]:
                    low[i] = key
                    heappush(heap, key)
        d.append(p)
        yield p


def inertia(m):
    """Exact eigenvalue sign counts of a SymIntMatrix.

    Symmetric Bareiss elimination on the stored rows (see `_pivots`): the
    t-th LDL^T pivot has the sign of d_t * d_{t-1}, where d_t is the t-th
    fraction-free pivot and d_0 = 1; every index that yields no pivot is
    a zero eigenvalue.
    """
    return _inertia_det(m)[0]


def _inertia_det(m):
    """`inertia(m)` and |det m|, from one elimination. The zero-diagonal
    repairs have det 1, so the last pivot of a nonsingular form is its
    determinant; |det m| is 0 when m is singular and 1 when m is empty."""
    if not isinstance(m, SymIntMatrix):
        raise ValueError("inertia expects a SymIntMatrix")
    n_pos = n_neg = 0
    prev = 1
    for p in _pivots(m._upper):
        if (p > 0) == (prev > 0):
            n_pos += 1
        else:
            n_neg += 1
        prev = p
    n_zero = m.n - n_pos - n_neg
    return InertiaTriple(n_pos, n_neg, n_zero), 0 if n_zero else abs(prev)


def signature(m):
    """n_pos - n_neg for a SymIntMatrix."""
    return inertia(m).signature
