"""Exact sparse rational linear algebra.

Matrices are sparse dict-of-column rows of exact entries, stored as given:
an int wherever the value is integral, a fractions.Fraction otherwise.
``cleared`` is the one way from such a matrix to integers: it scales the
matrix once by the lcm of its denominators into sparse int rows (an all-int
matrix is used as it is, rows and all).  Rank, echelon forms, kernels and
span solves all run the sparse fraction-free integer kernel
(semiflex._kernels) on those rows, so elimination never visits a zero
entry; the kernel rewrites its list but never a row dict, so it may be
handed a matrix's own rows.  Scaling and the kernel's row operations change
neither the rank, the pivot columns, the right kernel nor column
dependencies, so every derived quantity is exact and does not depend on how
the kernel picks its pivots.  Kernels and span solves share one
back-substitution on the sparse integer echelon form.

Sums of products are checked on cleared integers too: ``residual_nnz``
brings every term of sum(c * A * B) to one common denominator and sums each
output row in int arithmetic, so neither the commutator oracle nor the
d^2 = 0 check builds a Fraction per entry.  Matrix-vector images run on the
same cleared rows: ``SparseMatrix.images`` clears the matrix once for a whole
batch of vectors, scales each vector by the lcm of its denominators, sums
each row in int arithmetic and divides each nonzero sum once.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from ._kernels import row_echelon_int

__all__ = ["SparseMatrix", "cleared", "residual_nnz", "solve_in_span"]


class SparseMatrix:
    """A nrows x ncols matrix, rows stored as {col: nonzero int or Fraction}."""

    def __init__(self, nrows: int, ncols: int):
        self.nrows = nrows
        self.ncols = ncols
        self.rows: list[dict] = [{} for _ in range(nrows)]

    @classmethod
    def from_rows(cls, rows, ncols):
        m = cls(len(rows), ncols)
        for i, row in enumerate(rows):
            for c, v in row.items():
                if v:
                    m.rows[i][c] = v
        return m

    @classmethod
    def from_columns(cls, vectors):
        """The matrix whose columns are the given equal-length coordinate vectors."""
        m = cls(len(vectors[0]) if vectors else 0, len(vectors))
        for j, vec in enumerate(vectors):
            for i, v in enumerate(vec):
                if v:
                    m.rows[i][j] = v
        return m

    def add(self, r: int, c: int, v) -> None:
        row = self.rows[r]
        w = row.get(c, 0) + v
        if w:
            row[c] = w
        elif c in row:
            del row[c]

    def get(self, r: int, c: int):
        return self.rows[r].get(c, 0)

    @property
    def nnz(self) -> int:
        return sum(len(r) for r in self.rows)

    def is_zero(self) -> bool:
        return all(not r for r in self.rows)

    def transpose(self) -> "SparseMatrix":
        m = SparseMatrix(self.ncols, self.nrows)
        for i, row in enumerate(self.rows):
            for c, v in row.items():
                m.rows[c][i] = v
        return m

    def matmul(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matmul")
        out = SparseMatrix(self.nrows, other.ncols)
        for i, row in enumerate(self.rows):
            acc: dict = {}
            for k, v in row.items():
                for c, w in other.rows[k].items():
                    s = acc.get(c, 0) + v * w
                    if s:
                        acc[c] = s
                    elif c in acc:
                        del acc[c]
            out.rows[i] = acc
        return out

    def images(self, vectors) -> list[list]:
        """The products of the matrix with each of ``vectors`` (dense
        coordinate vectors), exactly, each entry an int when it is integral.

        The matrix is cleared once (m = rows / d) and each vector scaled by
        the lcm d_v of its denominators, so every row is summed in int
        arithmetic and each nonzero sum divided once by d * d_v."""
        d, rows = cleared(self)
        out = []
        for vec in vectors:
            dv = 1
            dens = {x.denominator for x in vec if type(x) is not int}
            if dens:
                dv = lcm(*dens)
                vec = [x.numerator * (dv // x.denominator) for x in vec]
            image = []
            for row in rows:
                s = 0
                for c, v in row.items():
                    s += v * vec[c]
                image.append(s)
            den = d * dv
            if den != 1:
                image = [_exact_quotient(s, den) if s else 0 for s in image]
            out.append(image)
        return out

    # -- echelon-backed queries ------------------------------------------

    def rank(self) -> int:
        if self.ncols == 0 or self.nrows == 0:
            return 0
        r, _ = row_echelon_int(list(cleared(self)[1]), self.ncols)
        return r

    def pivot_columns(self) -> list[int]:
        """Indices of a maximal independent set of columns (image basis)."""
        if self.ncols == 0 or self.nrows == 0:
            return []
        _, pivots = row_echelon_int(list(cleared(self)[1]), self.ncols)
        return pivots

    def nullspace(self) -> list[tuple[int, ...]]:
        """Deterministic basis of {x : Mx = 0}, one primitive integer vector
        per free column."""
        n = self.ncols
        if n == 0:
            return []
        if self.nrows == 0 or self.is_zero():
            return [_unit(n, j) for j in range(n)]
        rows = list(cleared(self)[1])
        rank, pivots = row_echelon_int(rows, n)
        pivset = set(pivots)
        return [_primitive(_kernel_vector(rows, rank, pivots, free, n)) for free in range(n) if free not in pivset]

    def __repr__(self):
        return f"SparseMatrix({self.nrows}x{self.ncols}, nnz={self.nnz})"


def cleared(m: SparseMatrix):
    """(d, rows): d the lcm of the denominators of ``m``'s entries and rows
    its rows scaled by d, sparse ints, so m = rows / d.  An all-int matrix
    is returned as it is (d = 1, its own rows, no copy); any Fraction entry,
    integral or not, makes a copy of int rows."""
    dens = {v.denominator for row in m.rows for v in row.values() if type(v) is not int}
    if not dens:
        return 1, m.rows
    d = lcm(*dens)
    return d, [{c: v.numerator * (d // v.denominator) for c, v in row.items()} for row in m.rows]


def residual_nnz(terms) -> int:
    """The number of nonzero entries of sum(c * A * B) over ``terms``, exactly.

    Each term is (c, A, B) with c an exact scalar (int or Fraction) and A, B
    cleared matrices as ``cleared`` returns them, B None for the term c * A.
    Every term is scaled to the common denominator L of all of them, so row
    i of L times the sum is summed in int arithmetic.  The terms share the
    shape of the result, A's rows by B's (or A's) columns.
    """
    den = 1
    for c, (da, _), b in terms:
        den = lcm(den, c.denominator * da * (b[0] if b else 1))
    scaled = []
    for c, (da, arows), b in terms:
        db, brows = b if b else (1, None)
        scaled.append((den // (c.denominator * da * db) * c.numerator, arows, brows))
    count = 0
    for i in range(len(terms[0][1][1])):
        acc: dict = {}
        for f, arows, brows in scaled:
            if brows is None:
                for j, v in arows[i].items():
                    acc[j] = acc.get(j, 0) + f * v
                continue
            for k, v in arows[i].items():
                fv = f * v
                for j, w in brows[k].items():
                    acc[j] = acc.get(j, 0) + fv * w
        count += sum(map(bool, acc.values()))
    return count


def _exact_quotient(s: int, den: int):
    """s / den as an int when it is integral, else a Fraction."""
    q = Fraction(s, den)
    return q.numerator if q.denominator == 1 else q


def _unit(n, j):
    v = [0] * n
    v[j] = 1
    return tuple(v)


def _primitive(x):
    """Scale an exact vector to a primitive integer vector, leading entry > 0."""
    den = 1
    for v in x:
        if v:
            den = lcm(den, v.denominator)
    ints = [int(v * den) for v in x]
    g = 0
    for v in ints:
        g = gcd(g, v)
    if g > 1:
        ints = [v // g for v in ints]
    for v in ints:
        if v:
            if v < 0:
                ints = [-w for w in ints]
            break
    return tuple(ints)


def _kernel_vector(rows, rank, pivots, free, n):
    """The kernel vector of a sparse integer echelon form (``row_echelon_int``
    output) that is 1 in the free column ``free`` and 0 in the other free
    columns; its pivot entries are back-substituted exactly, each an int
    when it is integral (Fraction(s, pivot) divides exactly, never to a
    float)."""
    x = [0] * n
    x[free] = 1
    for r in range(rank - 1, -1, -1):
        p = pivots[r]
        if p > free:
            continue
        row = rows[r]
        s = 0
        for j, v in row.items():
            if j != p and x[j]:
                s += v * x[j]
        x[p] = _exact_quotient(-s, row[p])
    return x


def solve_in_span(columns, targets):
    """Exact coordinates of each of ``targets`` in the span of ``columns``.

    ``columns`` and ``targets`` are lists of equal-length coordinate vectors;
    returns one list of exact coordinates c per target, with
    sum(c_i * columns[i]) == target, or None if any target is outside the
    span.  One integer echelon of [columns | targets]: a target outside the
    span shows up as a pivot past the span columns, and otherwise its
    coordinates are the negated span part of the kernel vector for its
    column (0 on dependent columns).
    """
    k = len(columns)
    vectors = list(columns) + list(targets)
    if not vectors:
        return []
    n = len(vectors)
    rows = cleared(SparseMatrix.from_columns(vectors))[1]
    rank, pivots = row_echelon_int(rows, n)
    if rank and pivots[-1] >= k:
        return None
    return [[-c for c in _kernel_vector(rows, rank, pivots, free, n)[:k]] for free in range(k, n)]
