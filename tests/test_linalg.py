"""The elimination kernel and the span layer against naive dense oracles."""

import random
from fractions import Fraction
from math import gcd

from conftest import reference_apply
from semiflex._kernels import row_echelon_int
from semiflex.linalg import SparseMatrix, Subspace, cleared, residual_nnz, solve_in_span


def matrix(dense):
    """A SparseMatrix from a non-empty list of equal-length rows."""
    return SparseMatrix.from_rows([dict(enumerate(row)) for row in dense], len(dense[0]))


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
        m = matrix(dense)
        want_rank, want_null = naive_rank_nullspace(dense)
        assert m.rank() == want_rank
        null = m.nullspace()
        assert len(null) == len(want_null)
        for out in m.images(null):
            assert all(x == 0 for x in out)
        # nullspaces span the same space: each oracle vector solvable in ours
        assert solve_in_span(Subspace().extend(null), [tuple(v) for v in want_null]) is not None
        # batched span solves: random combinations of the columns (dependent
        # columns when rank-deficient) in one call, exact coordinates back
        cols = [tuple(row[c] for row in dense) for c in range(ncols)]
        span = Subspace().extend(cols)
        assert len(span) == want_rank
        combos = [[coeff_rng.randint(-3, 3) for _ in range(ncols)] for _ in range(3)]
        targets = [tuple(sum(a * col[i] for a, col in zip(combo, cols)) for i in range(nrows)) for combo in combos]
        solved = solve_in_span(span, targets)
        assert len(solved) == len(targets)
        for coords, target in zip(solved, targets):
            assert tuple(sum(c * col[i] for c, col in zip(coords, span.basis)) for i in range(nrows)) == target
        deficient += want_rank < ncols
        # a target that raises the oracle's rank is outside: the batch fails
        for i in range(nrows):
            unit = tuple(Fraction(int(r == i)) for r in range(nrows))
            if naive_rank_nullspace([row + [unit[r]] for r, row in enumerate(dense)])[0] > want_rank:
                assert solve_in_span(span, targets + [unit]) is None
                outside += 1
    assert deficient and outside


def test_pivot_columns_are_image_basis():
    dense = [
        [1, 2, 3, 5],
        [2, 4, 6, 10],
        [0, 1, 1, 2],
    ]
    m = matrix(dense)
    piv = m.pivot_columns()
    assert m.rank() == len(piv) == 2
    cols = [tuple(Fraction(dense[r][c]) for r in range(3)) for c in piv]
    targets = [tuple(Fraction(dense[r][c]) for r in range(3)) for c in range(4)]
    assert solve_in_span(Subspace().extend(cols), targets) is not None


def test_solve_in_span_detects_outside():
    cols = [(Fraction(1), Fraction(0)), (Fraction(2), Fraction(0))]
    span = Subspace().extend(cols)
    assert span.basis == cols[:1]
    assert solve_in_span(span, [(Fraction(0), Fraction(1))]) is None
    (sol,) = solve_in_span(span, [(Fraction(3), Fraction(0))])
    assert sol == [3] and sol[0] * cols[0][0] == 3


def random_entry(rng):
    """An int, a Fraction, or an integral Fraction such as Fraction(4, 2)."""
    return rng.choice((rng.randint(-5, 5), Fraction(rng.randint(-6, 6), rng.randint(1, 6)), Fraction(2 * rng.randint(-3, 3), 2)))


def test_images_match_the_fraction_loop():
    rng = random.Random(20261019)
    shapes = [(0, 3), (3, 0), (0, 0)] + [(rng.randint(1, 7), rng.randint(1, 7)) for _ in range(80)]
    fractions = 0
    for nrows, ncols in shapes:
        m = SparseMatrix.from_rows([{c: random_entry(rng) for c in range(ncols) if rng.random() < 0.5} for _ in range(nrows)], ncols)
        vectors = [tuple(random_entry(rng) if rng.random() < 0.6 else 0 for _ in range(ncols)) for _ in range(4)]
        vectors += [(0,) * ncols, [Fraction(0)] * ncols]
        got = m.images(vectors)
        assert got == [reference_apply(m, v) for v in vectors]
        for out in got:
            assert len(out) == nrows
            for x in out:
                assert type(x) is (int if x.denominator == 1 else Fraction)
                fractions += type(x) is Fraction
    assert fractions


def test_matmul_and_transpose():
    a = matrix([[1, 2], [0, 1]])
    b = matrix([[1, 0], [3, 1]])
    ab = a.matmul(b)
    assert ab.get(0, 0) == 7 and ab.get(0, 1) == 2 and ab.get(1, 0) == 3
    t = a.transpose()
    assert t.get(1, 0) == 2


def test_cleared_scales_by_the_lcm_and_leaves_int_matrices_alone():
    m = matrix([[1, 2], [0, 3]])
    d, rows = cleared(m)
    assert d == 1 and rows is m.rows
    f = matrix([[Fraction(1, 2), 1], [0, Fraction(2, 3)]])
    d, rows = cleared(f)
    assert d == 6 and rows == [{0: 3, 1: 6}, {1: 4}]
    assert all(type(v) is int for row in rows for v in row.values())
    # an integral Fraction is no int: the kernel gets a copy of int rows
    g = matrix([[Fraction(2), 1]])
    d, rows = cleared(g)
    assert d == 1 and rows == [{0: 2, 1: 1}] and rows is not g.rows
    assert all(type(v) is int for row in rows for v in row.values())


def test_echelon_queries_leave_an_int_matrix_as_it_was():
    """The kernel gets an all-int matrix's own row dicts, three of them
    leading at column 0, and must not rewrite them."""
    dense = [[2, 4, 0, 6], [3, 6, 1, 9], [1, 2, 1, 3], [0, 0, 5, 0]]
    m = matrix(dense)
    before = [dict(row) for row in m.rows]
    dicts = list(m.rows)
    assert [m.rank(), m.pivot_columns(), m.nullspace()] == [2, [0, 2], [(2, -1, 0, 0), (3, 0, 0, -1)]]
    columns = [[row[c] for row in dense] for c in range(4)]
    span = Subspace().extend(columns[:3])
    assert span.basis == [columns[0], columns[2]] and solve_in_span(span, [columns[3]]) == [[3, 0]]
    assert columns == [[row[c] for row in dense] for c in range(4)]
    assert m.rows == before and all(a is b for a, b in zip(m.rows, dicts))


def test_subspace_mutates_no_input():
    """Sparse dict relations, vectors and targets, Fraction entries among
    them, are read and never rewritten; ``basis`` holds the kept inputs."""
    relations = [{0: 2, 2: Fraction(1, 2)}, {1: 3}]
    vectors = [{0: 4, 2: 1}, {2: Fraction(2, 3), 3: 1}, {3: 5}]
    targets = [{2: Fraction(4, 3), 3: 2, 1: 6}]
    copies = [[dict(v) for v in vs] for vs in (relations, vectors, targets)]
    span = Subspace(relations).extend(vectors)
    assert span.basis == vectors[1:] and span.basis[0] is vectors[1]
    assert solve_in_span(span, targets) == [[2, 0]]
    assert [relations, vectors, targets] == copies


def test_residual_nnz_is_the_nnz_of_the_fraction_sum():
    """sum(c * A * B) in cleared integers against the same sum of matmul
    products in Fraction arithmetic, on random matrices whose rows have
    different denominators, with Fraction scalars and single-matrix terms;
    every third case is shifted to vanish exactly."""
    rng = random.Random(1717)
    for trial in range(60):
        n, k, m = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        terms, dense_sum = [], SparseMatrix(n, m)
        for _ in range(rng.randint(1, 3)):
            c = Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 4))
            if rng.random() < 0.3:
                prod = matrix(random_matrix(rng, n, m))
                terms.append((c, cleared(prod), None))
            else:
                a, b = matrix(random_matrix(rng, n, k)), matrix(random_matrix(rng, k, m))
                terms.append((c, cleared(a), cleared(b)))
                prod = a.matmul(b)
            for i, row in enumerate(prod.rows):
                for j, v in row.items():
                    dense_sum.add(i, j, c * v)
        if trial % 3 == 0:
            terms.append((Fraction(-1, 3), cleared(SparseMatrix.from_rows([{j: 3 * v for j, v in row.items()} for row in dense_sum.rows], m)), None))
            dense_sum = SparseMatrix(n, m)
        assert residual_nnz(terms) == dense_sum.nnz, trial


# -- the sparse kernel against the dense Bareiss it replaced -----------------------


def dense_bareiss(rows, ncols):
    """Dense one-step Bareiss on list-of-int rows (modified in place): the
    kernel the package used before its sparse one, kept as an oracle.
    Returns (rank, pivot_columns); rows[:rank] is an echelon form."""
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
            if v and (best < 0 or abs(v) < best_abs):
                best, best_abs = i, abs(v)
        if best < 0:
            continue
        rows[best], rows[r] = rows[r], rows[best]
        piv = rows[r][c]
        pr = rows[r]
        for i in range(r + 1, nrows):
            ri = rows[i]
            f = ri[c]
            for j in range(c, ncols):
                ri[j] = (piv * ri[j] - f * pr[j]) // prev
        pivots.append(c)
        prev = piv
        r += 1
    return r, pivots


def dense_kernel_vector(rows, rank, pivots, free, ncols):
    """Back-substitution on a dense echelon form: 1 at ``free``, 0 at the
    other free columns."""
    x = [Fraction(0)] * ncols
    x[free] = Fraction(1)
    for r in range(rank - 1, -1, -1):
        p = pivots[r]
        if p < free:
            x[p] = -sum(rows[r][j] * x[j] for j in range(p + 1, ncols) if x[j]) / rows[r][p]
    return x


def primitive(x):
    den = 1
    for v in x:
        den = den * v.denominator // gcd(den, v.denominator)
    ints = [int(v * den) for v in x]
    g = 0
    for v in ints:
        g = gcd(g, v)
    ints = [v // g for v in ints]
    lead = next(v for v in ints if v)
    return tuple(-v for v in ints) if lead < 0 else tuple(ints)


def random_int_matrix(rng, nrows, ncols, density, lo, hi):
    return [[rng.choice((-1, 1)) * rng.randint(lo, hi) if rng.random() < density else 0 for _ in range(ncols)] for _ in range(nrows)]


def kernel_cases():
    """(name, dense integer matrix) pairs, fixed seed."""
    rng = random.Random(1010)
    cases = []
    for trial in range(40):  # sparse: 1-5 % dense, small entries, tall and wide
        nrows, ncols = rng.choice([(60, 60), (60, 25), (25, 60), (rng.randint(1, 60), rng.randint(1, 60))])
        cases.append((f"sparse{trial}", random_int_matrix(rng, nrows, ncols, rng.uniform(0.01, 0.05), 1, 6)))
    for trial in range(25):  # dense: 50 %, about 20-bit entries, some dependent columns
        nrows, ncols = rng.randint(1, 12), rng.randint(1, 12)
        dense = random_int_matrix(rng, nrows, ncols, 0.5, 1, 2**20)
        for _ in range(rng.randint(0, 2)):
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            i, j = rng.randrange(ncols), rng.randrange(ncols)
            for row in dense:
                row.append(a * row[i] + b * row[j])
        cases.append((f"dense{trial}", dense))
    for trial in range(10):  # zero rows and zero columns spliced in
        dense = random_int_matrix(rng, rng.randint(2, 15), rng.randint(2, 15), 0.3, 1, 6)
        ncols = len(dense[0])
        for _ in range(rng.randint(1, 3)):
            dense.insert(rng.randint(0, len(dense)), [0] * ncols)
        for _ in range(rng.randint(1, 3)):
            c = rng.randint(0, len(dense[0]))
            for row in dense:
                row.insert(c, 0)
        cases.append((f"zeros{trial}", dense))
    cases.append(("all-zero", [[0] * 7 for _ in range(5)]))
    return cases


def sparse_rows(dense):
    return [{c: v for c, v in enumerate(row) if v} for row in dense]


def test_sparse_kernel_matches_dense_bareiss():
    for name, dense in kernel_cases():
        ncols = len(dense[0])
        want = dense_bareiss([list(row) for row in dense], ncols)
        rows = sparse_rows(dense)
        got = row_echelon_int(rows, ncols)
        assert got == want, name
        rank, pivots = got
        assert len(rows) == len(dense) and not any(rows[rank:]), name
        for row, p in zip(rows[:rank], pivots):
            assert min(row) == p and all(isinstance(v, int) and v for v in row.values()), name


def test_empty_shapes():
    assert row_echelon_int([], 5) == (0, [])
    assert row_echelon_int([{} for _ in range(4)], 0) == (0, [])
    wide, tall = SparseMatrix(0, 3), SparseMatrix(3, 0)
    assert wide.rank() == tall.rank() == 0
    assert wide.nullspace() == [(1, 0, 0), (0, 1, 0), (0, 0, 1)] and tall.nullspace() == []
    assert wide.pivot_columns() == tall.pivot_columns() == []
    assert len(Subspace().extend([(), ()])) == 0 and solve_in_span(Subspace().extend([(), ()]), [()]) == [[]]
    assert solve_in_span(Subspace(), [(0, 0)]) == [[]] and solve_in_span(Subspace(), [(0, 1)]) is None
    assert solve_in_span(Subspace([(0, 1)]), [(0, 5)]) == [[]]


def test_nullspace_and_span_solves_match_dense_echelon():
    rng = random.Random(77)
    outside = inside = 0
    for name, dense in kernel_cases():
        nrows, ncols = len(dense), len(dense[0])
        echelon = [list(row) for row in dense]
        rank, pivots = dense_bareiss(echelon, ncols)
        want = [primitive(dense_kernel_vector(echelon, rank, pivots, f, ncols)) for f in range(ncols) if f not in pivots]
        assert matrix(dense).nullspace() == want, name
        # span solves: targets that are combinations of the columns, and one
        # random vector, which may or may not lie in the span
        cols = [tuple(row[c] for row in dense) for c in range(ncols)]
        combos = [[rng.randint(-2, 2) for _ in range(ncols)] for _ in range(2)]
        targets = [tuple(sum(a * v for a, v in zip(combo, row)) for row in dense) for combo in combos]
        targets.append(tuple(rng.randint(-6, 6) for _ in range(nrows)))
        joined = [list(row) + [t[i] for t in targets] for i, row in enumerate(dense)]
        jrank, jpivots = dense_bareiss(joined, ncols + len(targets))
        span = Subspace().extend(cols)
        assert span.basis == [cols[p] for p in pivots], name
        got = solve_in_span(span, targets)
        if jrank and jpivots[-1] >= ncols:
            assert got is None, name
            outside += 1
            continue
        inside += 1
        # the old kernel-vector coordinates, 0 on the dependent columns, at the pivots
        want = [-v for t in range(len(targets)) for v in dense_kernel_vector(joined, jrank, jpivots, ncols + t, ncols + len(targets))[:ncols]]
        assert got == [[want[t * ncols + p] for p in pivots] for t in range(len(targets))], name
        # int input gives int coordinates wherever they are integral
        assert all(type(x) is (int if x.denominator == 1 else Fraction) for coords in got for x in coords), name
    assert outside and inside


# -- the span layer against pivot_columns and a dense solve ---------------------------


def test_subspace_basis_is_the_pivot_columns_and_solves_modulo_relations():
    """Random int, Fraction, rank-deficient, zero and sparse-dict vectors:
    ``basis`` is what pivot_columns picks from the vectors as columns, and
    with relations it is the pivot columns past the relations of
    [relations | vectors], with coordinates as the dense Fraction oracle
    solves them over the independent relations and the basis."""
    rng = random.Random(2022)
    kinds = {"int": 0, "fraction": 0, "deficient": 0, "zero": 0, "dict": 0, "relations": 0}
    for trial in range(120):
        n, k = rng.randint(1, 7), rng.randint(1, 8)
        integral = trial % 2 == 0
        vectors = [[random_entry(rng) if not integral else rng.randint(-4, 4) for _ in range(n)] if rng.random() < 0.85 else [0] * n for _ in range(k)]
        for _ in range(rng.randint(0, 2)):  # dependent vectors
            a, b = rng.randint(-2, 2), Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            i, j = rng.randrange(len(vectors)), rng.randrange(len(vectors))
            vectors.insert(rng.randint(0, len(vectors)), [a * x + b * y for x, y in zip(vectors[i], vectors[j])])
        relations = [[rng.randint(-3, 3) if rng.random() < 0.5 else 0 for _ in range(n)] for _ in range(rng.randint(0, 3) if trial % 3 == 0 else 0)]
        sparse = trial % 4 == 1
        given = [{i: x for i, x in enumerate(v) if x} for v in vectors] if sparse else vectors
        span = Subspace(relations).extend(given)
        pivots = SparseMatrix.from_columns(relations + vectors).pivot_columns()
        nrel = len(relations)
        assert span.basis == [given[p - nrel] for p in pivots if p >= nrel], trial
        if not relations:
            assert span.basis == [given[p] for p in SparseMatrix.from_columns(vectors).pivot_columns()], trial
        kinds["int" if integral else "fraction"] += 1
        kinds["deficient"] += len(span) < len(vectors)
        kinds["zero"] += any(not any(v) for v in vectors)
        kinds["dict"] += sparse
        kinds["relations"] += bool(relations)
        # targets: combinations of relations and vectors, and one unit vector
        combos = [[rng.randint(-2, 2) for _ in relations + vectors] for _ in range(2)]
        targets = [[sum(c * v[i] for c, v in zip(combo, relations + vectors)) for i in range(n)] for combo in combos]
        unit = rng.randrange(n)
        targets.append([int(i == unit) for i in range(n)])
        independent = [(relations + vectors)[p] for p in pivots]
        got = solve_in_span(span, targets)
        want = []
        for t in targets:
            dense = [[Fraction(col[i]) for col in independent] + [Fraction(t[i])] for i in range(n)]
            rank, null = naive_rank_nullspace(dense)
            if rank > len(independent):
                want = None
                break
            (x,) = null  # 1 at the target, minus its coordinates before it
            want.append([-x[len(independent) - len(span) + j] for j in range(len(span))])
        assert got == want, trial
    assert all(kinds.values()), kinds
