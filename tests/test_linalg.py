"""The elimination kernel against a naive dense oracle."""

import random
from fractions import Fraction

from semiflex.linalg import SparseMatrix, solve_in_span


def naive_rank_nullspace(dense):
    """Plain Fraction Gauss-Jordan; independent of the package kernel."""
    m = [[Fraction(v) for v in row] for row in dense]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [v / pv for v in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for rr, pc in enumerate(pivots):
            v[pc] = -m[rr][fc]
        basis.append(v)
    return r, basis


def random_matrix(rng, nrows, ncols, density=0.5):
    return [
        [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) if rng.random() < density else Fraction(0) for _ in range(ncols)]
        for _ in range(nrows)
    ]


def test_echelon_matches_naive_oracle():
    rng = random.Random(20240817)
    coeff_rng = random.Random(7)  # separate, so the matrices stay the same
    deficient = outside = 0
    for trial in range(60):
        nrows = rng.randint(1, 8)
        ncols = rng.randint(1, 8)
        dense = random_matrix(rng, nrows, ncols)
        m = SparseMatrix.from_dense(dense)
        want_rank, want_null = naive_rank_nullspace(dense)
        assert m.rank() == want_rank
        null = m.nullspace()
        assert len(null) == len(want_null)
        for v in null:
            out = m.apply(list(v))
            assert all(x == 0 for x in out)
        # nullspaces span the same space: each oracle vector solvable in ours
        assert solve_in_span([tuple(x) for x in null], [tuple(v) for v in want_null]) is not None
        # batched span solves: random combinations of the columns (dependent
        # columns when rank-deficient) in one call, exact coordinates back
        cols = [tuple(row[c] for row in dense) for c in range(ncols)]
        combos = [[coeff_rng.randint(-3, 3) for _ in range(ncols)] for _ in range(3)]
        targets = [tuple(sum(a * col[i] for a, col in zip(combo, cols)) for i in range(nrows)) for combo in combos]
        solved = solve_in_span(cols, targets)
        assert len(solved) == len(targets)
        for coords, target in zip(solved, targets):
            assert tuple(sum(c * col[i] for c, col in zip(coords, cols)) for i in range(nrows)) == target
        deficient += want_rank < ncols
        # a target that raises the oracle's rank is outside: the batch fails
        for i in range(nrows):
            unit = tuple(Fraction(int(r == i)) for r in range(nrows))
            if naive_rank_nullspace([row + [unit[r]] for r, row in enumerate(dense)])[0] > want_rank:
                assert solve_in_span(cols, targets + [unit]) is None
                outside += 1
    assert deficient and outside


def test_pivot_columns_are_image_basis():
    dense = [
        [1, 2, 3, 5],
        [2, 4, 6, 10],
        [0, 1, 1, 2],
    ]
    m = SparseMatrix.from_dense(dense)
    piv = m.pivot_columns()
    assert m.rank() == len(piv) == 2
    cols = [tuple(Fraction(dense[r][c]) for r in range(3)) for c in piv]
    targets = [tuple(Fraction(dense[r][c]) for r in range(3)) for c in range(4)]
    assert solve_in_span(cols, targets) is not None


def test_solve_in_span_detects_outside():
    cols = [(Fraction(1), Fraction(0)), (Fraction(2), Fraction(0))]
    assert solve_in_span(cols, [(Fraction(0), Fraction(1))]) is None
    (sol,) = solve_in_span(cols, [(Fraction(3), Fraction(0))])
    assert sol[0] * cols[0][0] + sol[1] * cols[1][0] == 3


def test_matmul_and_transpose():
    a = SparseMatrix.from_dense([[1, 2], [0, 1]])
    b = SparseMatrix.from_dense([[1, 0], [3, 1]])
    ab = a.matmul(b)
    assert ab.get(0, 0) == 7 and ab.get(0, 1) == 2 and ab.get(1, 0) == 3
    t = a.transpose()
    assert t.get(1, 0) == 2

