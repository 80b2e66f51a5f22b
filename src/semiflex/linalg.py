"""Exact sparse rational linear algebra.

Matrices are sparse dict-of-column rows over fractions.Fraction.  Rank and
echelon forms go through the fraction-free integer kernel (semiflex._kernels)
after clearing denominators row by row; row scaling changes neither the rank,
the right kernel, nor column dependencies, so every derived quantity stays
exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from ._kernels import row_echelon_int

__all__ = ["SparseMatrix", "solve_in_span"]


class SparseMatrix:
    """A nrows x ncols matrix, rows stored as {col: nonzero Fraction}."""

    def __init__(self, nrows: int, ncols: int):
        self.nrows = nrows
        self.ncols = ncols
        self.rows: list[dict[int, Fraction]] = [{} for _ in range(nrows)]

    @classmethod
    def from_rows(cls, rows, ncols):
        m = cls(len(rows), ncols)
        for i, row in enumerate(rows):
            for c, v in row.items():
                if v:
                    m.rows[i][c] = Fraction(v)
        return m

    @classmethod
    def from_dense(cls, dense):
        nrows = len(dense)
        ncols = len(dense[0]) if nrows else 0
        m = cls(nrows, ncols)
        for i, row in enumerate(dense):
            for c, v in enumerate(row):
                if v:
                    m.rows[i][c] = Fraction(v)
        return m

    def add(self, r: int, c: int, v) -> None:
        row = self.rows[r]
        w = row.get(c, 0) + v
        if w:
            row[c] = w
        elif c in row:
            del row[c]

    def get(self, r: int, c: int) -> Fraction:
        return self.rows[r].get(c, Fraction(0))

    @property
    def nnz(self) -> int:
        return sum(len(r) for r in self.rows)

    def is_zero(self) -> bool:
        return all(not r for r in self.rows)

    def copy(self) -> "SparseMatrix":
        m = SparseMatrix(self.nrows, self.ncols)
        m.rows = [dict(r) for r in self.rows]
        return m

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
            acc: dict[int, Fraction] = {}
            for k, v in row.items():
                for c, w in other.rows[k].items():
                    s = acc.get(c, 0) + v * w
                    if s:
                        acc[c] = s
                    elif c in acc:
                        del acc[c]
            out.rows[i] = acc
        return out

    def apply(self, vec):
        """Matrix times a dense coordinate vector."""
        out = [Fraction(0)] * self.nrows
        for i, row in enumerate(self.rows):
            s = Fraction(0)
            for c, v in row.items():
                if vec[c]:
                    s += v * vec[c]
            out[i] = s
        return out

    # -- echelon-backed queries ------------------------------------------

    def _int_rows(self):
        """Denominator-cleared integer copies of the rows (dense lists)."""
        out = []
        for row in self.rows:
            dense = [0] * self.ncols
            if row:
                mult = lcm(*(v.denominator for v in row.values())) if len(row) > 1 else next(iter(row.values())).denominator
                for c, v in row.items():
                    dense[c] = int(v * mult)
            out.append(dense)
        return out

    def rank(self) -> int:
        if self.ncols == 0 or self.nrows == 0:
            return 0
        r, _ = row_echelon_int(self._int_rows(), self.ncols)
        return r

    def pivot_columns(self) -> list[int]:
        """Indices of a maximal independent set of columns (image basis)."""
        if self.ncols == 0 or self.nrows == 0:
            return []
        _, pivots = row_echelon_int(self._int_rows(), self.ncols)
        return pivots

    def nullspace(self) -> list[tuple[Fraction, ...]]:
        """Deterministic basis of {x : Mx = 0}, one vector per free column."""
        n = self.ncols
        if n == 0:
            return []
        if self.nrows == 0 or self.is_zero():
            return [_unit(n, j) for j in range(n)]
        rows = self._int_rows()
        rank, pivots = row_echelon_int(rows, n)
        pivset = set(pivots)
        basis = []
        for free in range(n):
            if free in pivset:
                continue
            x = [Fraction(0)] * n
            x[free] = Fraction(1)
            for r in range(rank - 1, -1, -1):
                p = pivots[r]
                if p > free:
                    continue
                s = Fraction(0)
                row = rows[r]
                for j in range(p + 1, free + 1):
                    if row[j] and x[j]:
                        s += Fraction(row[j]) * x[j]
                x[p] = -s / row[p]
            basis.append(_primitive(x))
        return basis

    def __repr__(self):
        return f"SparseMatrix({self.nrows}x{self.ncols}, nnz={self.nnz})"


def _unit(n, j):
    v = [Fraction(0)] * n
    v[j] = Fraction(1)
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
    return tuple(Fraction(v) for v in ints)


def solve_in_span(columns, target):
    """Exact coordinates of ``target`` in the span of ``columns``.

    ``columns`` is a list of equal-length coordinate tuples; returns a list
    of Fractions c with sum(c_i * columns[i]) == target, or None if target
    is outside the span.  Dense Gaussian elimination; intended for the small
    per-weight solves.
    """
    m = len(target)
    k = len(columns)
    aug = [[Fraction(columns[j][i]) for j in range(k)] + [Fraction(target[i])] for i in range(m)]
    piv_of_col = {}
    r = 0
    for c in range(k):
        pr = None
        for i in range(r, m):
            if aug[i][c]:
                pr = i
                break
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        pv = aug[r][c]
        aug[r] = [v / pv for v in aug[r]]
        for i in range(m):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        piv_of_col[c] = r
        r += 1
    for i in range(r, m):
        if aug[i][k]:
            return None
    sol = [Fraction(0)] * k
    for c, rr in piv_of_col.items():
        sol[c] = aug[rr][k]
    return sol
