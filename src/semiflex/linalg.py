"""Exact sparse rational linear algebra.

Matrices are sparse dict-of-column rows of exact entries, stored as given:
an int wherever the value is integral, a fractions.Fraction otherwise.
``cleared`` is the one way from such a matrix to integers, (d, int rows)
with d a common denominator: it scales the matrix once by the lcm of its
denominators into sparse int rows (an all-int matrix is used as it is,
rows and all).  A matrix built ``SparseMatrix.from_cleared`` (the induced
modules' action matrices, the ranked differentials) holds that pair, and
``cleared`` returns it with no scan and no copy; its exact entries are made
once, on the first read of ``rows``, and the pair is dropped then, so the
integers never go stale.

All elimination is one sparse fraction-free integer reduction
(semiflex._kernels), which never visits a zero entry and never mutates a
row dict, so it may be handed a matrix's own rows.  Rank and pivot
columns run it on the cleared rows, sparsest first.  Every basis choice
and every coordinate read goes through one span layer, ``Subspace``, an
echelon of that reduction built once and read many times, its vectors
reduced in the order given: it picks bases, ``solve_in_span`` reads
coordinates off it, and ``SparseMatrix.nullspace`` reads kernel vectors
off the same reduction of the matrix's columns.  Scaling and row
operations change no column dependency, so every derived quantity is
exact.

Sums of products are checked on cleared integers too: ``residual_nnz``
brings every term of sum(c * A * B) to one common denominator and sums each
output row in int arithmetic into a dense row accumulator (the "SPA" of
Gilbert, Moler and Schreiber, SIAM J. Matrix Anal. Appl. 13, 1992), so
neither the commutator oracle nor the d^2 = 0 check builds a Fraction or
pays a dict lookup per product term; the trade-off for very wide, sparse
rows is stated at the function.  Matrix-vector images run on the
same cleared rows: ``SparseMatrix.images`` clears the matrix once for a whole
batch of vectors, scales each vector by the lcm of its denominators, sums
each row in int arithmetic and divides each nonzero sum once.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, prod

from ._kernels import reduce_row, row_echelon_int, store_row

__all__ = ["SparseMatrix", "Subspace", "cleared", "exact_quotient", "residual_nnz", "solve_in_span"]


class SparseMatrix:
    """A nrows x ncols matrix, rows stored as {col: nonzero int or Fraction}."""

    def __init__(self, nrows: int, ncols: int):
        self.nrows = nrows
        self.ncols = ncols
        self.rows: list[dict] = [{} for _ in range(nrows)]

    @staticmethod
    def from_cleared(d: int, rows, ncols) -> "SparseMatrix":
        """The matrix rows / d, held in that form: ``rows`` are sparse int
        rows, taken as they are (no zero entries), and d > 0 an int."""
        m = _HeldMatrix.__new__(_HeldMatrix)
        m.nrows, m.ncols, m._held = len(rows), ncols, (d, rows)
        return m

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
        held = self.__dict__.get("_held")  # counted without making the exact entries
        return sum(len(r) for r in (held[1] if held else self.rows))

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
                image = [exact_quotient(s, den) if s else 0 for s in image]
            out.append(image)
        return out

    # -- echelon-backed queries ------------------------------------------

    def rank(self) -> int:
        """The rank, from ``row_echelon_int`` on the cleared rows."""
        r, _ = row_echelon_int(list(_int_rows(self)), self.ncols)
        return r

    def pivot_columns(self) -> list[int]:
        """Indices of a maximal independent set of columns (image basis):
        the pivot columns of ``row_echelon_int`` on the cleared rows.

        The package picks bases with ``Subspace``; this stays as the tests'
        reference for it and as a benchmark trace target."""
        _, pivots = row_echelon_int(list(_int_rows(self)), self.ncols)
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


class _HeldMatrix(SparseMatrix):
    """A matrix built ``SparseMatrix.from_cleared``.  Its lazy ``rows`` lives
    on this subclass: a class-level descriptor named ``rows`` on
    SparseMatrix would keep CPython from specializing every other matrix's
    ``.rows`` reads."""

    @cached_property
    def rows(self) -> list[dict]:
        """The exact entries, made on the first read; the held pair is
        dropped then (d = 1: the held rows themselves)."""
        d, rows = self.__dict__.pop("_held")
        if d == 1:
            return rows
        return [{c: exact_quotient(v, d) for c, v in row.items()} for row in rows]


def cleared(m: SparseMatrix):
    """(d, rows): d a common denominator of ``m``'s entries and rows its rows
    scaled by d, sparse ints, so m = rows / d.  A matrix that holds its
    cleared form (``SparseMatrix.from_cleared``, ``rows`` not read yet)
    returns that pair as it is, whose d need not be the lcm (the induced
    modules keep their recursion's scale).  Otherwise d is the lcm: an
    all-int matrix is returned as it is (d = 1, its own rows, no copy), and
    any Fraction entry, integral or not, makes a copy of int rows."""
    held = m.__dict__.get("_held")
    if held is not None:
        return held
    dens = {v.denominator for row in m.rows for v in row.values() if type(v) is not int}
    if not dens:
        return 1, m.rows
    d = lcm(*dens)
    return d, [{c: v.numerator * (d // v.denominator) for c, v in row.items()} for row in m.rows]


def _int_rows(m: SparseMatrix):
    """Int rows with the column dependencies of ``m``: the held ones, or the
    rows of ``cleared``."""
    held = m.__dict__.get("_held")
    return held[1] if held is not None else cleared(m)[1]


def residual_nnz(terms, ncols: int) -> int:
    """The number of nonzero entries of sum(c * A * B) over ``terms``, exactly.

    Each term is (c, A, B) with c an exact scalar (int or Fraction) and A, B
    cleared matrices as ``cleared`` returns them, B None for the term c * A.
    Every term is scaled to the common denominator L of all of them, so row
    i of L times the sum is summed in int arithmetic.  The terms share the
    shape of the result, A's rows by ``ncols`` columns.

    Each output row of Gustavson's row-by-row product is summed into a
    dense accumulator of ``ncols`` ints and its nonzeros are counted in one
    pass (``ncols - acc.count(0)``), so no product term pays a dict lookup;
    memory stays O(ncols).  The O(ncols) per row loses to a dict only on
    rows far wider than their products, a handful of products in thousands
    of columns; the oracle's rows (at most 87 wide at depth 11) and the
    d^2 check's (at most 661 wide over affine sl2 at D=7) are not.
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
        acc = [0] * ncols
        for f, arows, brows in scaled:
            if brows is None:
                for j, v in arows[i].items():
                    acc[j] += f * v
                continue
            for k, v in arows[i].items():
                fv = f * v
                for j, w in brows[k].items():
                    acc[j] += fv * w
        count += ncols - acc.count(0)
    return count


def exact_quotient(s, den: int):
    """s / den (s an int or a Fraction) as an int when it is integral, else a
    Fraction; an int s that den divides takes no Fraction."""
    if type(s) is int and s % den == 0:
        return s // den
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
    far (``_kernels.reduce_row``), and keeps it in ``basis`` (as given) only
    if a remainder is left: the greedy first-independent subset, so
    ``basis`` is what ``SparseMatrix.pivot_columns`` picks from the vectors
    as columns.  A remainder becomes a row (``_kernels.store_row``).  A
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
                store_row(self._rows, rest, None)

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
        store_row(self._rows, rest, comb)
        self.basis.append(vec)

    def _reduce(self, vec):
        """(s, rest, steps) with rest = s * vec minus a combination of the
        rows, zero at every pivot (``_kernels.reduce_row``)."""
        rest = {i: v for i, v in (vec.items() if isinstance(vec, dict) else enumerate(vec)) if v}
        scale = 1
        dens = {v.denominator for v in rest.values() if type(v) is not int}
        if dens:
            scale = lcm(*dens)
            rest = {i: v.numerator * (scale // v.denominator) for i, v in rest.items()}
        steps = reduce_row(rest, self._rows)
        return scale * prod(a for a, _b, _comb in steps), rest, steps


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
        out.append([exact_quotient(c[i], scale) if i in c else 0 for i in range(len(span))])
    return out
