"""Exact sparse rational linear algebra.

Matrices are sparse dict-of-column rows of exact entries, stored as given:
an int wherever the value is integral, a fractions.Fraction otherwise.
``cleared`` is the one way from such a matrix to integers: it scales the
matrix once by the lcm of its denominators into sparse int rows (an all-int
matrix is used as it is, rows and all).  Rank and pivot columns run the
sparse fraction-free integer kernel (semiflex._kernels) on those rows, so
elimination never visits a zero entry; the kernel rewrites its list but
never a row dict, so it may be handed a matrix's own rows.

Every basis choice and every coordinate read goes through one span layer,
``Subspace``, a sparse fraction-free echelon built once and read many
times: it picks bases, ``solve_in_span`` reads coordinates off it, and
``SparseMatrix.nullspace`` reads kernel vectors off the same reduction of
the matrix's columns.  Scaling and row operations change no column
dependency, so every derived quantity is exact.

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

__all__ = ["SparseMatrix", "Subspace", "cleared", "residual_nnz", "solve_in_span"]


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
        """Indices of a maximal independent set of columns (image basis).

        The package picks bases with ``Subspace``; this stays as the tests'
        reference for it and as a benchmark trace target."""
        if self.ncols == 0 or self.nrows == 0:
            return []
        _, pivots = row_echelon_int(list(cleared(self)[1]), self.ncols)
        return pivots

    def nullspace(self) -> list[tuple[int, ...]]:
        """Deterministic basis of {x : Mx = 0}: one primitive integer vector
        per column that depends on the columns before it, read off a
        ``Subspace`` of the columns.  It is nonzero at that column and at
        the independent columns before it only, leading entry > 0."""
        span = Subspace()
        kept, kernel = [], []
        for j, column in enumerate(self.transpose().rows):
            dependent = span._add(column)
            if dependent is None:
                kept.append(j)
                continue
            scale, steps = dependent
            x = [0] * self.ncols
            x[j] = scale
            for i, c in _fold(steps).items():
                x[kept[i]] = -c
            kernel.append(_primitive(x))
        return kernel

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


def _primitive(x):
    """An integer vector divided by its content, leading entry > 0."""
    g = gcd(*x)
    if next(v for v in x if v) < 0:
        g = -g
    return tuple(v // g for v in x)




class Subspace:
    """The span of exact vectors modulo optional relations, kept as a sparse
    fraction-free integer echelon.

    Vectors are dense sequences or sparse ``{index: value}`` dicts of ints
    and Fractions; no input is mutated.  ``extend`` clears each vector of
    its denominators and reduces it, in order, against the rows built so
    far, and keeps it in ``basis`` (as given) only if a remainder is left:
    the greedy first-independent subset, so ``basis`` is what
    ``SparseMatrix.pivot_columns`` picks from the vectors as columns.  A
    remainder becomes a row, divided by its content, with its smallest
    index as pivot.  It is zero at every earlier pivot, so reducing against
    the rows in the order they were stored clears every pivot for good.  A
    kept vector's row carries its integer combination of the ``basis``
    vectors, modulo the relations; relation rows carry none.  The
    combination is folded only when a vector is kept or solved, never for a
    dropped one.  ``solve_in_span`` reads coordinates off the same rows.
    """

    def __init__(self, relations=()):
        self.basis: list = []
        self._rows: dict = {}  # pivot -> (row, combination or None), in the order stored
        for vec in relations:
            _scale, rest, _steps = self._reduce(vec)
            if rest:
                self._store(rest, None)

    def __len__(self) -> int:
        return len(self.basis)

    def extend(self, vectors) -> "Subspace":
        for vec in vectors:
            self._add(vec)
        return self

    def _add(self, vec):
        """Keep ``vec`` if it is independent of the span, or else return
        (s, steps): s * vec = sum(c[i] * basis[i]) modulo the relations, with
        c = _fold(steps)."""
        scale, rest, steps = self._reduce(vec)
        if not rest:
            return scale, steps
        comb = {i: -c for i, c in _fold(steps).items()}
        comb[len(self.basis)] = scale
        self._store(rest, comb)
        self.basis.append(vec)

    def _reduce(self, vec):
        """(s, rest, steps) with rest = s * vec minus a combination of the
        rows, zero at every pivot: each step is rest <- a * rest - b * row,
        recorded as (a, b, the row's combination)."""
        rest = {i: v for i, v in (vec.items() if isinstance(vec, dict) else enumerate(vec)) if v}
        scale = 1
        dens = {v.denominator for v in rest.values() if type(v) is not int}
        if dens:
            scale = lcm(*dens)
            rest = {i: v.numerator * (scale // v.denominator) for i, v in rest.items()}
        steps = []
        for p, (row, comb) in self._rows.items():
            f = rest.get(p)
            if f is None:
                continue
            piv = row[p]
            g = gcd(piv, f)
            a, b = piv // g, f // g
            if a != 1:
                scale *= a
                for i in rest:
                    rest[i] *= a
            for i, v in row.items():  # index p cancels exactly and is dropped here
                w = rest.get(i, 0) - b * v
                if w:
                    rest[i] = w
                else:
                    del rest[i]
            steps.append((a, b, comb))
            if not rest:
                break
        return scale, rest, steps

    def _store(self, row, comb) -> None:
        content = gcd(*row.values(), *(comb or {}).values())
        if content != 1:
            row = {i: v // content for i, v in row.items()}
            comb = comb and {i: v // content for i, v in comb.items()}
        self._rows[min(row)] = (row, comb)


def _fold(steps) -> dict:
    """The combination c of the rows that ``Subspace._reduce`` took off:
    s * vec - rest = sum(c[i] * basis[i]) modulo the relations.  An entry
    that cancels stays as a 0."""
    c: dict = {}
    for a, b, comb in steps:
        if a != 1:
            for i in c:
                c[i] *= a
        if comb:
            for i, v in comb.items():
                c[i] = c.get(i, 0) + b * v
    return c


def solve_in_span(span: Subspace, targets):
    """Exact coordinates over ``span.basis`` of each of ``targets`` (dense or
    sparse vectors), each an int where it is integral, or None if any
    target lies outside the span and its relations.  Each target is reduced
    against the span's echelon and its coordinates are the folded
    combination divided once by the reduction's scale."""
    out = []
    for target in targets:
        scale, rest, steps = span._reduce(target)
        if rest:
            return None
        c = _fold(steps)
        out.append([_exact_quotient(c[i], scale) if i in c else 0 for i in range(len(span))])
    return out
