"""Number types of coefficients: int wherever the data are integral, Fraction
otherwise, never float."""

from fractions import Fraction

from semiflex.induction import wakimoto
from semiflex.liealg import WindowError, exact, load_algebra, subalgebra
from semiflex.linalg import SparseMatrix
from semiflex.modules import coverma, verma


def entry_types(module, gen_window=(-2, 2)):
    """The set of types of every action-matrix entry of ``module``."""
    alg = module.alg
    types = set()
    for w in sorted(module.weights):
        for z in alg.elements_in_degrees(*gen_window):
            try:
                mat = module.action(z, w)
            except WindowError:
                continue
            for row in mat.rows:
                types.update(type(v) for v in row.values())
    return types


def test_exact_keeps_integral_values_int():
    assert type(exact(Fraction(4, 2))) is int and exact(Fraction(4, 2)) == 2
    assert type(exact(-3)) is int
    assert exact(Fraction(2, 3)) == Fraction(2, 3) and type(exact(Fraction(2, 3))) is Fraction


def test_structure_constants_are_int(sl2, loop_a):
    for alg in (sl2, loop_a, subalgebra(sl2, "a")):
        elems = alg.elements_in_degrees(-6, 6)
        values = [v for i in elems for j in elems for v in alg.bracket_ids(i, j).values()]
        assert values and {type(v) for v in values} == {int}, alg.name
    assert {type(v) for v in sl2.beta_items().values()} == {int}


def test_user_algebra_constants_are_exact():
    alg = load_algebra(
        {
            "grading": {"rank": 1, "degree_functional": [1]},
            "basis": [
                {"label": "h", "weight": [0], "index": 0},
                {"label": "x", "weight": [1], "index": 0},
                {"label": "y", "weight": [1], "index": 1},
            ],
            "brackets": [
                {"i": 0, "j": 1, "terms": [{"k": 1, "num": 2, "den": 2}]},
                {"i": 0, "j": 2, "terms": [{"k": 2, "num": -1, "den": 2}]},
            ],
            "beta": [{"label": "h", "num": 6, "den": 2}],
        }
    )
    h, x, y = (alg.by_label(s) for s in "hxy")
    assert alg.bracket_ids(h, x) == {x: 1} and type(alg.bracket_ids(h, x)[x]) is int
    assert alg.bracket_ids(h, y) == {y: Fraction(-1, 2)} and type(alg.bracket_ids(h, y)[y]) is Fraction
    assert type(alg.beta_value(h)) is int and alg.beta_value(h) == 3


def test_matrix_entries_stay_int_for_integral_data(sl2):
    # an integral lambda given as Fractions: every entry is an int
    v01 = verma(sl2, {"1⊗h": Fraction(0), "K": Fraction(1), "d": Fraction(0)}, 4)
    assert entry_types(v01) == {int}
    # a non-integral lambda: exact Fractions where needed, never a float
    v = verma(sl2, {"1⊗h": Fraction(2, 3), "K": Fraction(1, 2), "d": Fraction(0)}, 4)
    assert entry_types(v) == {int, Fraction}
    w = wakimoto(sl2, {"1⊗h": Fraction(1, 2), "K": Fraction(1), "d": Fraction(0)}, 3)
    assert entry_types(w) == {int, Fraction}
    # W's entries are span-solve coordinates: integral ones come back as int
    w01 = wakimoto(sl2, {"1⊗h": Fraction(0), "K": Fraction(1), "d": Fraction(0)}, 3)
    assert entry_types(w01) == {int}


def integral_fractions(module, gen_window=(-2, 2)):
    """(label, weight, value) of every action entry of ``module`` that is a
    Fraction with denominator 1."""
    alg = module.alg
    found = []
    for w in sorted(module.weights):
        for z in alg.elements_in_degrees(*gen_window):
            try:
                mat = module.action(z, w)
            except WindowError:
                continue
            found += [(alg.label(z), w, v) for row in mat.rows for v in row.values() if type(v) is Fraction and v.denominator == 1]
    return found


def test_no_action_entry_is_an_integral_fraction(sl2):
    """An integral value is an int in every action matrix, also where lambda
    is not integral: 1⊗e at weight (-6, 0) of V(h=1/2, K=1) is -27."""
    v = verma(sl2, {"1⊗h": Fraction(1, 2), "K": Fraction(1)}, 6)
    assert v.action(sl2.by_label("1⊗e"), (-6, 0)).rows[0][0] == -27
    lams = [(Fraction(1, 2), Fraction(1), 0), (Fraction(2, 3), Fraction(1, 2), 0), (Fraction(-1, 3), Fraction(1), Fraction(1, 5))]
    for h, k, d in lams:
        lam = {"1⊗h": h, "K": k, "d": d}
        for ctor in (verma, coverma):
            module = ctor(sl2, lam, 6)
            assert entry_types(module) == {int, Fraction}, (ctor.__name__, lam)
            assert integral_fractions(module) == [], (ctor.__name__, lam)
    assert integral_fractions(wakimoto(sl2, {"1⊗h": Fraction(1, 2), "K": Fraction(1), "d": Fraction(0)}, 3)) == []


def test_images_of_an_integral_fraction_sum_are_ints():
    """[[1/2, 1/2]] times (1, 1) is the int 1, not Fraction(1, 1)."""
    m = SparseMatrix.from_rows([{0: Fraction(1, 2), 1: Fraction(1, 2)}, {0: Fraction(2, 3)}], 2)
    assert m.images([(1, 1), (Fraction(3, 2), 5)]) == [[1, Fraction(2, 3)], [Fraction(13, 4), 1]]
    assert [[type(x) for x in out] for out in m.images([(1, 1), (Fraction(3, 2), 5), (Fraction(6), 0)])] == [
        [int, Fraction],
        [Fraction, int],
        [int, int],
    ]


def test_sparse_matrix_keeps_entry_types():
    m = SparseMatrix.from_rows([{0: 2, 2: -1}, {1: Fraction(1, 3)}], 3)
    assert type(m.rows[0][0]) is int and type(m.rows[1][1]) is Fraction
    d = SparseMatrix.from_columns([(2, 0), (0, 4), (-1, 2)])
    assert {type(v) for row in d.rows for v in row.values()} == {int}
    assert type(d.get(0, 1)) is int and [type(v) for v in d.images([(1, 1, 1)])[0]] == [int, int]
    kernel = d.nullspace()
    assert kernel == [(1, -1, 2)]
    assert {type(v) for vec in kernel for v in vec} == {int}
    assert {type(v) for vec in SparseMatrix(1, 2).nullspace() for v in vec} == {int}
