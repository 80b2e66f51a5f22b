"""Fraction-free row echelon over arbitrary-precision integers.

Bareiss one-step elimination: every intermediate entry is an exact integer
and the division by the previous pivot is exact.  Every rank / kernel /
image computation of the package funnels through this kernel.
"""


def row_echelon_int(rows, ncols):
    """Reduce ``rows`` (list of list-of-int, modified in place) to an
    upper-echelon form.

    Returns (rank, pivot_columns).  Pivot choice: smallest |entry| among the
    candidate rows (ties by row index), which keeps integer growth down and
    is deterministic.
    """
    nrows = len(rows)
    pivots = []
    prev = 1
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        best = -1
        best_abs = 0
        for i in range(r, nrows):
            v = rows[i][c]
            if v:
                a = -v if v < 0 else v
                if best < 0 or a < best_abs:
                    best = i
                    best_abs = a
        if best < 0:
            continue
        if best != r:
            rows[best], rows[r] = rows[r], rows[best]
        piv = rows[r][c]
        pr = rows[r]
        for i in range(r + 1, nrows):
            ri = rows[i]
            f = ri[c]
            if f:
                for j in range(c, ncols):
                    ri[j] = (piv * ri[j] - f * pr[j]) // prev
            elif prev != 1 or piv != 1:
                for j in range(c, ncols):
                    if ri[j]:
                        ri[j] = (piv * ri[j]) // prev
        pivots.append(c)
        prev = piv
        r += 1
    return r, pivots
