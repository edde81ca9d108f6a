"""Exact inertia of symmetric integer matrices by fraction-free elimination.

A `SymIntMatrix` is stored as rows of nonzeros, checked in O(nnz); a dense
tuple of tuples is only a conversion at the public boundary.

`inertia` runs a symmetric Bareiss elimination (E. H. Bareiss, *Sylvester's
identity and multistep integer-preserving Gaussian elimination*, Math. Comp.
22 (1968)) on the stored rows.  Every step is a congruence A -> E A E^T with
det(E) != 0, so by Sylvester's law of inertia the signs of the LDL^T pivots
it reads off are the eigenvalue signs of the input.  All arithmetic is over
unbounded Python integers, and every stored number is a minor of the input
(after the zero-diagonal repairs), so no entry outgrows Hadamard's bound.
"""

from dataclasses import dataclass
from heapq import heapify, heappop, heappush


@dataclass(frozen=True)
class SymIntMatrix:
    """Symmetric integer matrix; `rows[i]` is the tuple of pairs (j, a_ij)
    with a_ij != 0, in increasing j. `SymIntMatrix(rows)` converts dense
    rows, and `entries` is the dense tuple of row tuples, built on read."""

    rows: tuple

    def __init__(self, rows):
        rows = [tuple(row) for row in rows]
        if any(len(row) != len(rows) for row in rows):
            raise ValueError("matrix must be square")
        # a zero that is not an integer is kept, for the check to reject
        rows = [{j: x for j, x in enumerate(row) if x or not isinstance(x, int)} for row in rows]
        object.__setattr__(self, "rows", self.from_nonzeros(rows).rows)

    @classmethod
    def from_nonzeros(cls, rows):
        """The n x n matrix, n = len(rows), whose row i is the mapping
        rows[i] = {j: a_ij}; absent entries are zero. Checked in time
        linear in the entries."""
        n = len(rows)
        out = []
        for i, row in enumerate(rows):
            for j, x in row.items():
                if not isinstance(x, int):
                    raise ValueError("entries must be integers, got %r" % (x,))
                if not (isinstance(j, int) and 0 <= j < n):
                    raise ValueError("column %r of row %d is outside 0..%d" % (j, i, n - 1))
                if x and rows[j].get(i, 0) != x:
                    raise ValueError("matrix must be symmetric, differs at (%d, %d)" % (i, j))
            items = sorted(row.items())
            out.append(tuple(items if 0 not in row.values() else [t for t in items if t[1]]))
        m = cls.__new__(cls)
        object.__setattr__(m, "rows", tuple(out))
        return m

    @property
    def n(self):
        return len(self.rows)

    @property
    def entries(self):
        out = [[0] * len(self.rows) for _ in self.rows]
        for i, row in enumerate(self.rows):
            for j, x in row:
                out[i][j] = x
        return tuple(map(tuple, out))


@dataclass(frozen=True)
class InertiaTriple:
    """Counts of positive, negative and zero eigenvalues."""

    n_pos: int
    n_neg: int
    n_zero: int

    @property
    def signature(self):
        return self.n_pos - self.n_neg


def _pivots(rows):
    """Yield the Bareiss pivots d_1, d_2, ... of the symmetric integer
    matrix with the stored rows `rows` (see `SymIntMatrix`), in
    elimination order; there is one per nonzero eigenvalue.

    d_t is the principal minor of the input (after the repairs below)
    on the first t pivot indices, so the t-th LDL^T pivot is
    d_t / d_{t-1}, with d_0 = 1.  Each row is copied into a dict of its
    nonzeros, which the elimination rewrites.
    Eliminating pivot k with value p rewrites each row i that meets
    column k as a_ij <- (p a_ij - a_ik a_kj) // prev, prev the previous
    pivot; by Sylvester's identity the result is again a minor, so the
    division is exact.  A row that column k misses would only be scaled
    by p / prev: it is left as it is, with the pivot count at which it
    was last rewritten, and scaled by d_now / d_then (exactly, as its
    entries are minors too) when it is next read.

    The next pivot is the remaining index with a nonzero diagonal and
    the fewest nonzeros (minimum degree, lowest index on ties); any
    symmetric order is a congruence.  When every remaining diagonal is
    zero, row and column k get row and column j added, for a neighbour
    j of k, which makes the pivot 2 a_kj != 0; row k is pivoted at
    once, so each row of the accumulated transform has at most two ones
    and each transformed entry is a sum of at most four input entries.
    Rows that become empty are zero eigenvalues and yield nothing.
    """
    n = len(rows)
    a = [dict(row) for row in rows]
    seen = [0] * n
    d = [1]
    # (degree, index) of every row with a nonzero diagonal; an entry whose
    # row has since been pivoted or rewritten is stale and skipped
    heap = [(len(row), i) for i, row in enumerate(a) if i in row]
    heapify(heap)

    def fresh(i):
        row, s, t = a[i], seen[i], len(d) - 1
        if s != t:
            num, den = d[t], d[s]
            for j, x in row.items():
                row[j] = x * num // den
            seen[i] = t
        return row

    def degree(i):
        return len(a[i]), i

    while True:
        while heap:
            size, k = heappop(heap)
            if k in a[k] and len(a[k]) == size:
                row_k = fresh(k)
                break
        else:
            rest = [i for i, row in enumerate(a) if row]
            if not rest:
                return
            k = min(rest, key=degree)
            j = min(a[k], key=degree)
            row_k, row_j = fresh(k), fresh(j)
            for m, y in row_j.items():
                if m != k:
                    x = row_k.get(m, 0) + y
                    if x:
                        row_k[m] = x
                    else:
                        del row_k[m]
                    row_m = a[m]
                    x = row_m.get(k, 0) + row_m[j]
                    if x:
                        row_m[k] = x
                    else:
                        del row_m[k]
            row_k[k] = 2 * row_j[k]
        p = row_k.pop(k)
        prev = d[-1]
        for i, f in row_k.items():
            row_i = fresh(i)
            del row_i[k]
            new = {j: p * x for j, x in row_i.items()}
            for j, y in row_k.items():
                new[j] = new.get(j, 0) - f * y
            a[i] = row_i = {j: x // prev for j, x in new.items() if x}
            seen[i] = len(d)
            if i in row_i:
                heappush(heap, (len(row_i), i))
        a[k] = {}
        d.append(p)
        yield p


def inertia(m):
    """Exact eigenvalue sign counts of a SymIntMatrix.

    Symmetric Bareiss elimination on the stored rows (see `_pivots`): the
    t-th LDL^T pivot has the sign of d_t * d_{t-1}, where d_t is the t-th
    fraction-free pivot and d_0 = 1; every index that yields no pivot is
    a zero eigenvalue.
    """
    if not isinstance(m, SymIntMatrix):
        raise ValueError("inertia expects a SymIntMatrix")
    n_pos = n_neg = 0
    prev = 1
    for p in _pivots(m.rows):
        if (p > 0) == (prev > 0):
            n_pos += 1
        else:
            n_neg += 1
        prev = p
    return InertiaTriple(n_pos, n_neg, m.n - n_pos - n_neg)


def signature(m):
    """n_pos - n_neg for a SymIntMatrix."""
    return inertia(m).signature
