"""Sparse fraction-free row echelon over arbitrary-precision integers.

Rows are sparse ``{col: nonzero int}`` dicts.  The pending rows sit in
buckets keyed by their leading column, so each column only looks at the
rows that start there; a row is touched only when it holds the pivot
column, and no zero entry is ever visited.  Eliminating row r against
the pivot row p at column c computes ``(p[c]/g)·r − (r[c]/g)·p`` with
g = gcd(p[c], r[c]) and divides the result by its content (the gcd of its
entries), so every entry stays an exact, content-normalized integer.  An
eliminated row is a new dict and no input row dict is ever mutated, so
callers hand over a matrix's own rows without a copy.

Only row operations are used, and they change neither the rank nor the
pivot columns (a column is a pivot iff it is independent of the columns
before it), so both are independent of the pivot choice and of the row
scaling.  ``SparseMatrix.rank`` and ``SparseMatrix.pivot_columns`` run
here; bases, kernels and span solves run on ``linalg.Subspace``, which
reduces one vector at a time in a fixed order.  Rank stays on these
buckets because its free pivot choice is cheaper: with rank read off a
``Subspace`` of the rows, the cohomology phase of US(a) at depth 13 took
1.77-2.04 s against 1.06-1.16 s here (three runs each, Python 3.11 on a
2-core VM).
"""

from math import gcd


def row_echelon_int(rows, ncols):
    """Reduce ``rows`` (a list of ``{col: nonzero int}``, rewritten in place
    but none of its dicts mutated) to an upper-echelon form: ``rows[:rank]``
    are the echelon rows in pivot order, the rest are empty.

    Returns (rank, pivot_columns).  Pivot choice among the rows that lead at
    a column: fewest entries, then smallest |entry|, then lowest input row
    index, which keeps fill-in and integer growth down and is deterministic.
    """
    buckets = {}
    for i, row in enumerate(rows):
        if row:
            buckets.setdefault(min(row), []).append((i, row))
    echelon = []
    pivots = []
    for c in range(ncols):
        if not buckets:
            break
        bucket = buckets.pop(c, None)
        if bucket is None:
            continue
        pivots.append(c)
        if len(bucket) == 1:
            echelon.append(bucket[0][1])
            continue
        p = min(bucket, key=lambda t: (len(t[1]), abs(t[1][c]), t[0]))[1]
        echelon.append(p)
        piv = p[c]
        for i, r in bucket:
            if r is p:
                continue
            f = r[c]
            g = gcd(piv, f)
            a, b = piv // g, f // g
            new = {j: a * v for j, v in r.items()} if a != 1 else dict(r)
            for j, v in p.items():  # column c cancels exactly and is dropped here
                w = new.get(j, 0) - b * v
                if w:
                    new[j] = w
                else:
                    del new[j]
            if not new:
                continue
            content = gcd(*new.values())
            if content != 1:
                new = {j: v // content for j, v in new.items()}
            buckets.setdefault(min(new), []).append((i, new))
    rank = len(echelon)
    rows[:] = echelon + [{} for _ in range(len(rows) - rank)]
    return rank, pivots
