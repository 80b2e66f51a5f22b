"""Verma-type modules, characters, Chevalley-Eilenberg (co)homology."""

import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from conftest import (
    kostant_count,
    rational_sl3,
    reference_check_commutators,
    reference_coverma,
    reference_verma,
)
from semiflex.forms import AnomalyError, semiinf_cohomology
from semiflex.induction import wakimoto
from semiflex.liealg import AlgebraError, WindowError, build_affine_sl2, check_jacobi, exact, load_algebra, subalgebra, wt_add, wt_neg
from semiflex.linalg import SparseMatrix, cleared
from semiflex import modules
from semiflex.pbw import canonical_order, enumerate_pbw_weights
from semiflex.modules import (
    _induced_module,
    ModuleError,
    WeightModule,
    ce_cohomology,
    ce_homology,
    character,
    character_module,
    check_commutators,
    coverma,
    direct_sum,
    product_formula_character,
    tensor,
    verma,
)


def sl2_positive_roots(depth):
    """Positive roots of the affine algebra with multiplicity, to depth."""
    roots = []
    for n in range(0, (depth + 1) // 2 + 1):
        if 1 + 2 * n <= depth:
            roots.append((1, n))  # alpha + n delta
    for n in range(1, depth // 2 + 1):
        if 2 * n - 1 <= depth:
            roots.append((-1, n))  # -alpha + n delta = delta - alpha + ...
        if 2 * n <= depth:
            roots.append((0, n))  # n delta
    return roots


def ell2(w):
    return w[0] + 2 * w[1]


def test_verma_highest_weight_space(sl2, lam01):
    V = verma(sl2, lam01, 4)
    assert V.dim((0, 0)) == 1
    assert V.dim((1, 0)) == 0


def test_verma_dims_match_kostant_oracle(sl2, lam01):
    V = verma(sl2, lam01, 5)
    roots = sl2_positive_roots(5)
    for w in [(-1, -1), (0, -1), (0, -2), (-2, -1), (1, -1), (1, -2), (2, -2)]:
        neg = tuple(-x for x in w)
        assert V.dim(w) == kostant_count(roots, ell2, neg), w


def test_verma_spot_values(sl2, lam01):
    V = verma(sl2, lam01, 4)
    assert V.dim((-1, -1)) == 3  # lambda - alpha - delta
    assert V.dim((0, -1)) == 2  # lambda - delta


def test_ef_action_on_highest_vector(sl2):
    lam = {"1⊗h": Fraction(3), "K": Fraction(1), "d": Fraction(0)}
    V = verma(sl2, lam, 3)
    e, f = sl2.by_label("1⊗e"), sl2.by_label("1⊗f")
    # e · (f v) = lambda(h) v
    mf = V.action(f, (0, 0))
    assert mf.nrows == 1 and mf.get(0, 0) == 1
    me = V.action(e, (-1, 0))
    assert me.get(0, 0) == lam["1⊗h"]


def test_verma_representation_property(sl2, lam01):
    V = verma(sl2, lam01, 4)
    assert check_commutators(V, (-3, 3)) == []


def test_coverma_dims_equal_verma(sl2, lam01):
    V = verma(sl2, lam01, 5)
    Vs = coverma(sl2, lam01, 5)
    assert {w: V.dim(w) for w in V.weights} == {w: Vs.dim(w) for w in Vs.weights}
    assert Vs.dim((0, 0)) == 1


def test_coverma_representation_property(sl2, lam01):
    Vs = coverma(sl2, lam01, 4)
    assert check_commutators(Vs, (-3, 3)) == []


def test_coverma_top_vector_killed_by_raising(sl2, lam01):
    Vs = coverma(sl2, lam01, 4)
    for d in range(1, 4):
        for z in sl2.elements_of_degree(d):
            assert Vs.action(z, (0, 0)).nnz == 0


def test_characters_agree_with_product_formula(sl2, lam01):
    for depth in (4, 6):
        chv = character(verma(sl2, lam01, depth))
        chvs = character(coverma(sl2, lam01, depth))
        pf = product_formula_character(sl2, depth)
        assert chv == pf
        assert chvs == pf


def test_character_spot_coefficients(sl2, lam01):
    ch = character(verma(sl2, lam01, 6))
    assert ch.coefficient((0, 0)) == 1
    assert ch.coefficient((0, -1)) == 2
    assert ch.coefficient((-1, -1)) == 3


def test_product_formula_depth0_and_kostant(sl2):
    pf = product_formula_character(sl2, 6)
    assert pf.coefficient((0, 0)) == 1
    roots = sl2_positive_roots(6)
    for w, c in pf.items():
        assert c == kostant_count(roots, ell2, tuple(-x for x in w)), w


def test_lambda_values_enter_scalars(sl2):
    lam = {"1⊗h": Fraction(5), "K": Fraction(7), "d": Fraction(2)}
    V = verma(sl2, lam, 2)
    h, K, d = (sl2.by_label(x) for x in ("1⊗h", "K", "d"))
    assert V.action(h, (0, 0)).get(0, 0) == 5
    assert V.action(K, (0, 0)).get(0, 0) == 7
    assert V.action(d, (0, 0)).get(0, 0) == 2
    # K stays scalar on lower weight spaces (centrality)
    mk = V.action(K, (-1, 0))
    assert mk.get(0, 0) == 7


LAMBDA_KEY_ERRORS = {
    # h is the CLI's shorthand for 1⊗h, not a label
    "shorthand": (lambda g: verma(g, {"h": 1, "K": 1}, 3), "labelled 'h'"),
    "nonzero degree": (lambda g: wakimoto(g, {"z⊗e": 5, "K": 1}, 3), "'z⊗e' has degree 3, not 0"),
    "unknown": (lambda g: character_module(g, {"typo": 3}, 2), "labelled 'typo'"),
    # a view reads only its own members: K is not in a
    "outside the view": (lambda g: coverma(subalgebra(g, "a"), {"K": 1}, 2), "'K' is not a member of affine_sl2:a"),
}


@pytest.mark.parametrize("case", list(LAMBDA_KEY_ERRORS))
def test_lambda_keys_the_algebra_cannot_read_raise(case):
    """Each key of lambda must label a degree-0 element of the algebra; any
    other key raises an AlgebraError that names it, instead of building a
    module on which the key acts by 0."""
    build, message = LAMBDA_KEY_ERRORS[case]
    with pytest.raises(AlgebraError, match=message):
        build(build_affine_sl2())


def test_modules_over_algebras_with_other_basis_ids_do_not_add():
    """Two affine sl2 number their bases apart; a view and its parent do not."""
    g, other = build_affine_sl2(), build_affine_sl2()
    with pytest.raises(ModuleError, match="same algebra"):
        direct_sum(verma(g, {}, 2), verma(other, {}, 2))
    with pytest.raises(ModuleError, match="same algebra"):
        tensor(verma(g, {}, 2), verma(other, {}, 2))
    a = subalgebra(g, "a")
    assert direct_sum(character_module(a, {}, 2), verma(g, {}, 2)).dim((0, 0)) == 2
    assert tensor(character_module(a, {}, 2), verma(g, {}, 2)).dim((0, 0)) == 1


def test_tensor_adds_both_terms_at_weight_zero(sl2):
    """Over ĝ an element of weight 0 sends a(xi) ⊗ 1 and 1 ⊗ b(xi) into one
    block, so the tensor's entries are sums: K acts on M(λ) ⊗ M(μ)^∨ by
    K_λ + K_μ, and 1⊗h at the top by h_λ + h_μ."""
    T = tensor(verma(sl2, {"1⊗h": 2, "K": 1}, 3), coverma(sl2, {"1⊗h": -2, "K": 3}, 3))
    h, K = sl2.by_label("1⊗h"), sl2.by_label("K")
    for w in T.weights:
        assert T.action(K, w).rows == [{i: 4} for i in range(T.dim(w))]
    assert T.action(h, (0, 0)).rows == [{}]


# λ, μ on (1⊗h, K, d) with λ + μ + β = 0 on ĝ₀ (β = (2, 4, 1))
PAIRING_CASES = [
    ((0, 1, 0), (-2, -5, -1)),
    ((-4, -4, 0), (2, 0, -1)),
    ((1, -3, 2), (-3, -1, -3)),
    ((Fraction(1, 2), Fraction(-7, 3), 0), (Fraction(-5, 2), Fraction(-5, 3), -1)),
]


@pytest.mark.parametrize("lam, mu", PAIRING_CASES, ids=[" ".join(",".join(map(str, v)) for v in case) for case in PAIRING_CASES])
def test_verma_tensor_coverma_over_g_hat(sl2, lam, mu):
    """M(λ) ⊗ M(μ)^∨ over ĝ at D=3 is a module, and its semi-infinite
    cohomology is Λ•(ĝ₀*) at weight 0: cells 1, 3, 3, 1 in ghosts −3..0."""
    labels = ("1⊗h", "K", "d")
    T = tensor(verma(sl2, dict(zip(labels, lam)), 3), coverma(sl2, dict(zip(labels, mu)), 3))
    assert check_commutators(T, (-1, 1)) == []
    assert semiinf_cohomology(sl2, T, 3).nonzero() == [((0, 0), -3, 1), ((0, 0), -2, 3), ((0, 0), -1, 3), ((0, 0), 0, 1)]


def test_ce_cohomology_one_dim_abelian():
    toy = load_algebra(
        {
            "name": "t1",
            "grading": {"rank": 1, "degree_functional": [1]},
            "basis": [{"label": "x", "weight": [1], "index": 0}],
            "brackets": [],
            "beta": [],
        }
    )
    table = ce_cohomology(subalgebra(toy, "gplus"), character_module(toy, {}, 4), 3)
    assert table.nonzero() == [((-1,), 1, 1), ((0,), 0, 1)]
    assert table.euler_consistent()


def test_ce_cohomology_two_dim_abelian():
    toy = load_algebra(
        {
            "name": "t2",
            "grading": {"rank": 2, "degree_functional": [1, 1]},
            "basis": [
                {"label": "x", "weight": [1, 0], "index": 0},
                {"label": "y", "weight": [0, 1], "index": 0},
            ],
            "brackets": [],
            "beta": [],
        }
    )
    table = ce_cohomology(subalgebra(toy, "gplus"), character_module(toy, {}, 4), 3)
    by_degree = {}
    for (_w, n), d in table.cells.items():
        by_degree[n] = by_degree.get(n, 0) + d
    assert by_degree == {0: 1, 1: 2, 2: 1}


def test_coverma_cohomological_characterization(sl2, lam01):
    Vs = coverma(sl2, lam01, 4)
    table = ce_cohomology(subalgebra(sl2, "gplus"), Vs, 4)
    assert table.nonzero() == [((0, 0), 0, 1)]
    assert table.euler_consistent()


def test_verma_homological_characterization(sl2, lam01):
    V = verma(sl2, lam01, 4)
    table = ce_homology(subalgebra(sl2, "g_below_zero"), V, 4)
    assert table.nonzero() == [((0, 0), 0, 1)]
    assert table.euler_consistent()


def test_ce_homology_one_dim_abelian():
    toy = load_algebra(
        {
            "name": "t1n",
            "grading": {"rank": 1, "degree_functional": [1]},
            "basis": [{"label": "x", "weight": [-1], "index": 0}],
            "brackets": [],
            "beta": [],
        }
    )
    table = ce_homology(subalgebra(toy, "g_below_zero"), character_module(toy, {}, 4), 3)
    assert table.nonzero() == [((-1,), 1, 1), ((0,), 0, 1)]


def test_free_module_homology(loop_a):
    aminus = subalgebra(loop_a, "g_below_zero")
    F = verma(aminus, {}, 3)
    assert check_commutators(F, (-3, -1)) == []
    table = ce_homology(aminus, F, 3)
    assert table.nonzero() == [((0, 0), 0, 1)]


def test_nonabelian_homology_euler(sl2, lam01):
    # a strictly negative nonabelian piece with a nontrivial module
    V = verma(sl2, lam01, 3)
    table = ce_homology(subalgebra(sl2, "g_below_zero"), V, 3)
    assert table.euler_consistent()


def test_ce_rejects_members_of_the_wrong_sign(sl2, lam01, abelian):
    """A member the complex can reach must have the right sign: z⊗f has
    degree 1 in loop-nminus, x_-2 degree -2 in a positive custom view."""
    with pytest.raises(ModuleError, match="strictly negatively"):
        ce_homology(subalgebra(sl2, "loop-nminus"), verma(sl2, lam01, 3), 3)
    view = subalgebra(abelian, "custom", custom=[abelian.by_label("x_1"), abelian.by_label("x_-2")])
    with pytest.raises(ModuleError, match="strictly positively"):
        ce_cohomology(view, character_module(abelian, {}, 3), 3)


def test_requested_weights_below_the_depth_are_an_error(sl2, lam01):
    """At ell(w) = -4 the depth-3 modules lack weight spaces the complex
    needs, so the answer would be a truncation."""
    V = verma(sl2, lam01, 3)
    with pytest.raises(WindowError, match="below depth 3"):
        semiinf_cohomology(sl2, V, 3, weights=[(0, 0), (-4, 0)])
    with pytest.raises(WindowError, match="below depth 3"):
        ce_cohomology(subalgebra(sl2, "gplus"), coverma(sl2, lam01, 3), 3, weights=[(-4, 0)])
    with pytest.raises(WindowError, match="below depth 3"):
        ce_homology(subalgebra(sl2, "g_below_zero"), V, 3, weights=[(-4, 0)])


def test_requested_weight_without_cochains_is_a_zero_row(sl2):
    table = ce_cohomology(subalgebra(sl2, "gplus"), character_module(sl2, {}, 3), 3, weights=[(5, -3), (0, 0)])
    assert table.rows() == [((0, 0), 0, 1, 1), ((5, -3), 0, 0, 0)]


def _heisenberg(bracket=1, z_on_c=0):
    """x and y act on v, a, b, c with x(y c) - y(x c) = -v, [x, y] =
    bracket * z, and z takes c to z_on_c * v: a module exactly when
    bracket * z_on_c = -1."""
    bracket = Fraction(bracket)
    heis = load_algebra(
        {
            "name": "heis",
            "grading": {"rank": 2, "degree_functional": [1, 1]},
            "basis": [
                {"label": "x", "weight": [1, 0], "index": 0},
                {"label": "y", "weight": [0, 1], "index": 0},
                {"label": "z", "weight": [1, 1], "index": 0},
            ],
            "brackets": [{"i": 0, "j": 1, "terms": [{"k": 2, "num": bracket.numerator, "den": bracket.denominator}]}],
            "beta": [],
        }
    )
    weights = {(0, 0): ["v"], (-1, 0): ["a"], (0, -1): ["b"], (-1, -1): ["c"]}
    # x: a -> v, c -> 2b;  y: b -> v, c -> a
    acts = {("x", (-1, 0)): 1, ("x", (-1, -1)): 2, ("y", (0, -1)): 1, ("y", (-1, -1)): 1, ("z", (-1, -1)): z_on_c}

    def rule(eid, w):
        mat = SparseMatrix(len(weights.get(wt_add(w, heis.weight(eid)), ())), len(weights.get(w, ())))
        if acts.get((heis.label(eid), w)):
            mat.add(0, 0, acts[(heis.label(eid), w)])
        return mat

    return heis, WeightModule(heis, "heis module", weights, rule, 2)


def test_ce_cohomology_detects_a_non_module():
    """The broken Heisenberg module ([x, y] = z acts by 0): d^2 != 0 on the
    cochain c at the bottom weight."""
    heis, M = _heisenberg()
    assert check_commutators(M, (1, 2)) == [("y", "x", (-1, -1))]
    with pytest.raises(AnomalyError) as exc:
        ce_cohomology(subalgebra(heis, "gplus"), M, 2)
    assert (exc.value.weight, exc.value.ghost) == ((-1, -1), 0)


def _corrupted_fractional_verma(sl2, delta, depth=4, weight=(-1, 0)):
    """The Verma module over affine sl2 at lambda = (2/3, 1/2) to ``depth``,
    with entry (0, 0) of the action of 1⊗e at ``weight`` raised by
    ``delta``."""
    V = verma(sl2, {"1⊗h": Fraction(2, 3), "K": Fraction(1, 2)}, depth)
    e = sl2.by_label("1⊗e")

    def rule(eid, w):
        mat = V.action(eid, w)
        if eid == e and tuple(w) == weight:
            mat = SparseMatrix.from_rows(mat.rows, mat.ncols)
            mat.rows[0][0] = exact(mat.get(0, 0) + delta)
        return mat

    return WeightModule(sl2, "V-corrupted", V.weights, rule, depth)


@pytest.mark.parametrize("delta", ["1/3", "1/6", "1"])
def test_d_squared_check_on_fractional_differentials(delta, sl2):
    """d^2 = 0 is checked on cleared integers: a Fraction-valued Verma module
    with one corrupted entry (turned all-int, given a new denominator, or
    keeping its own) fails at the cell, and with the residual count, that
    the Fraction product ``matmul`` of the differentials gives."""
    M = _corrupted_fractional_verma(sl2, Fraction(delta))
    with pytest.raises(AnomalyError) as exc:
        ce_cohomology(subalgebra(sl2, "gplus"), M, 2)
    assert (exc.value.weight, exc.value.ghost) == ((0, -1), 0)
    assert str(exc.value) == "differential does not square to zero (residual has 2 nonzero entries) at weight (0, -1), ghost 0"


FAILING = {
    "broken heisenberg",
    "heisenberg [x, y] = z/2, z c = -v",
    "verma + 1/3",
    "verma + 1/6",
    "verma + 1",
    "depth-6 verma + 1/3 at (-1, -1)",
    "depth-6 verma + 1/3 at (-1, -1), shuffled weights",
}


@pytest.mark.parametrize(
    "case",
    [
        "broken heisenberg",
        "heisenberg [x, y] = z/2, z c = -2v",
        "heisenberg [x, y] = z/2, z c = -v",
        "verma",
        "verma + 1/3",
        "verma + 1/6",
        "verma + 1",
        "depth-6 verma + 1/3 at (-1, -1)",
        "depth-6 verma + 1/3 at (-1, -1), shuffled weights",
        "coverma",
        "fractional coverma",
        "direct sum",
        "fractional direct sum",
        "sub-window",
    ],
)
def test_check_commutators_matches_the_reference_loop(case, sl2, lam01):
    """The one oracle reports what the separate loop with XY - YX and the
    bracket action as their own matrices reports, failures and order alike.
    The Heisenberg cases have a Fraction bracket constant; "verma + delta"
    is the Verma module at lambda = (2/3, 1/2) with one entry 2/3 raised by
    delta to 1, 5/6 or 5/3: the matrix turns all-int, gains a denominator
    or keeps its own, and each is caught alike.  The depth-6 cases corrupt
    a matrix at a middle weight, (-1, -1), that the checks at six outer
    weights read and fail on, so one cleared form serves them all; the
    shuffled case gives the weights in a caller's order, one of them twice."""
    window, weights = (-2, 2), None
    if case == "broken heisenberg":
        M, window = _heisenberg()[1], (1, 2)
    elif case.startswith("heisenberg"):
        M, window = _heisenberg(Fraction(1, 2), -2 if case.endswith("-2v") else -1)[1], (1, 2)
    elif case == "verma":
        M = verma(sl2, {"1⊗h": Fraction(2, 3), "K": Fraction(1, 2)}, 4)
    elif case.startswith("depth-6 verma"):
        M = _corrupted_fractional_verma(sl2, Fraction(1, 3), 6, (-1, -1))
        if case.endswith("shuffled weights"):
            weights = sorted(M.weights)
            random.Random(6).shuffle(weights)
            weights.insert(len(weights) // 3, (-1, -1))
    elif case.startswith("verma + "):
        M = _corrupted_fractional_verma(sl2, Fraction(case.removeprefix("verma + ")))
    elif case == "coverma":
        M = coverma(sl2, lam01, 3)
    elif case == "fractional coverma":
        M = coverma(sl2, {"1⊗h": Fraction(2, 3), "K": Fraction(1, 2)}, 3)
    elif case == "direct sum":
        M = direct_sum(verma(sl2, lam01, 2), coverma(sl2, lam01, 2))
    elif case == "fractional direct sum":
        M = direct_sum(verma(sl2, {"1⊗h": Fraction(2, 3), "K": Fraction(1, 2)}, 2), coverma(sl2, {"1⊗h": 2, "K": Fraction(1, 3)}, 2))
    else:
        M = verma(sl2, lam01, 4)
        window, weights = (-1, 3), [(0, -1), (-1, 0), (0, 0)]
    got = check_commutators(M, window, weights)
    assert got == reference_check_commutators(M, window, weights)
    assert (got != []) == (case in FAILING)


def test_one_check_clears_each_matrix_once_and_skips_x_with_itself(sl2, monkeypatch):
    """One check clears each (action, eid, weight) once, although a matrix
    is read at several outer weights: a fractional Verma module at depth 5,
    window (-2, 2), its matrices fetched by a first check and counted by
    identity in a second.  The mirrored check never hands residual_nnz an
    (x, x) pair, read off the first term a(x, w + wt y) b(y, w), and gives
    it the result's width, dim w."""
    V = verma(sl2, {"1⊗h": Fraction(2, 3), "K": Fraction(1, 2)}, 5)
    assert check_commutators(V, (-2, 2)) == []
    key_of = {id(m): key for key, m in V._cache.items()}
    counts, forms, pairs = Counter(), {}, []
    real_cleared, real_residual = modules.cleared, modules.residual_nnz

    def counting_cleared(m):
        form = real_cleared(m)
        counts[key_of[id(m)]] += 1
        forms[id(form)] = (key_of[id(m)], form)  # the form is kept alive, so its id stays its own
        return form

    def recording_residual(terms, ncols):
        _, a_form, b_form = terms[0]
        (x, _), (y, w) = forms[id(a_form)][0], forms[id(b_form)][0]
        pairs.append((x, y))
        assert ncols == V.dim(w)  # the shape of a(x) b(y) on the source weight w
        return real_residual(terms, ncols)

    monkeypatch.setattr(modules, "cleared", counting_cleared)
    monkeypatch.setattr(modules, "residual_nnz", recording_residual)
    assert check_commutators(V, (-2, 2)) == []
    assert len(counts) > 100 and set(counts.values()) == {1}
    assert pairs and all(x < y for x, y in pairs)


def test_a_two_sided_check_keeps_x_with_itself(abelian):
    """With b given, a(x) b(x) = b(x) a(x) is a real identity.  A and B
    act on the chain t -> u -> v by x_1 alone and differ only on u, so
    (x_1, x_1) at t is the one failure; A on its own passes."""
    weights = {(0,): ["v"], (-1,): ["u"], (-2,): ["t"]}
    x1 = abelian.by_label("x_1")

    def chain(on_u):
        def rule(eid, w):
            mat = SparseMatrix(len(weights.get(wt_add(w, abelian.weight(eid)), ())), 1)
            if eid == x1:
                mat.add(0, 0, on_u if w == (-1,) else 1)
            return mat

        return WeightModule(abelian, f"chain({on_u})", weights, rule, 2)

    A, B = chain(1), chain(2)
    assert check_commutators(A, (-2, 2), b=B) == [("x_1", "x_1", (-2,))]
    assert check_commutators(A, (-2, 2)) == []


def test_direct_sum_dims_and_oracle(sl2, lam01):
    V = verma(sl2, lam01, 3)
    D = direct_sum(V, V)
    for w in V.weights:
        assert D.dim(w) == 2 * V.dim(w)
    assert check_commutators(D, (-2, 2)) == []


def test_character_module_over_abar(sl2, lam01):
    abar = subalgebra(sl2, "abar")
    C = character_module(sl2, lam01, depth=2)
    zero = (0, 0)
    # the character is consistent over abar: oracle on abar members only
    for x in abar.elements_in_degrees(-2, 2):
        for y in abar.elements_in_degrees(-2, 2):
            if not sl2.in_window(sl2.degree(x) + sl2.degree(y)):
                continue
            lhs = Fraction(0)
            for k, cf in sl2.bracket_ids(x, y).items():
                # only a weight-zero k maps the line to itself, by the scalar lambda(k)
                if sl2.weight(k) == zero:
                    assert C.action(k, zero).get(0, 0) == exact(lam01.get(sl2.label(k), 0))
                    lhs += cf * C.action(k, zero).get(0, 0)
            # scalars commute, so the bracket must act by zero
            assert lhs == 0


def test_raising_bound(sl2, lam01):
    V = verma(sl2, lam01, 3)
    for d in range(1, 3):
        for z in sl2.elements_of_degree(d):
            assert V.action(z, (0, 0)).nnz == 0


def test_check_commutators_lets_a_window_error_through(sl2, lam01):
    """A pair the module cannot evaluate is an error, not a silent pass."""
    V = verma(sl2, lam01, 3)
    f = sl2.by_label("1⊗f")

    def rule(eid, w):
        if eid == f and w == (0, 0):
            raise WindowError("f at the top weight")
        return V.action(eid, w)

    M = WeightModule(sl2, "V with a hole", V.weights, rule, 3)
    with pytest.raises(WindowError, match="f at the top weight"):
        check_commutators(M, (-1, 1))


def _actions(module, window, entry=lambda v: v):
    """Every action matrix of the window's generators as rows of {col: (type,
    value)}, each entry passed through ``entry`` first, or the class of the
    error it raises."""
    out = {}
    for w in sorted(module.weights):
        for e in module.alg.elements_in_degrees(*window):
            try:
                mat = module.action(e, w)
            except (WindowError, ModuleError) as exc:
                out[e, w] = type(exc)
            else:
                rows = [{c: entry(v) for c, v in row.items()} for row in mat.rows]
                out[e, w] = (mat.nrows, mat.ncols, [{c: (type(v), v) for c, v in row.items()} for row in rows])
    return out


@pytest.mark.parametrize(
    "case",
    ["verma (0,1)", "verma (2/3,1/2)", "verma (1/2,-2)", "verma (2,1)",
     "coverma (0,1)", "coverma (2/3,1/2)", "coverma (1/2,-2)", "coverma (2,1)",
     "verma over a", "free negative"],
)
def test_induced_actions_match_straightening(case, sl2, loop_a):
    """The Verma recursion gives the matrices of straightening the whole word
    in U(g): rows, values and raised errors, at depth 6 on the generators of
    degrees -3..3 (K = -2 is the critical level).  Types are pinned too:
    the recursion's entries are exact, an int wherever the value is
    integral, and so are the reference's once passed through exact (the
    reference straightens in Fractions at a fractional lambda)."""
    depth = 6
    if case == "verma over a":
        got, ref = verma(loop_a, {}, depth), reference_verma(loop_a, {}, depth)
    elif case == "free negative":
        sub = subalgebra(sl2, "g_below_zero")
        got, ref = verma(sub, {}, depth), reference_verma(sub, {}, depth)
    else:
        kind, pair = case.split()
        h, k = (Fraction(x) for x in pair.strip("()").split(","))
        lam = {"1⊗h": h, "K": k}
        ctor, reference = (verma, reference_verma) if kind == "verma" else (coverma, reference_coverma)
        got, ref = ctor(sl2, lam, depth), reference(sl2, lam, depth)
    assert got.weights.keys() == ref.weights.keys()
    assert _actions(got, (-3, 3)) == _actions(ref, (-3, 3), exact)


# lambda with three denominators on affine sl2 (q = 30), and on sl3 with
# rational structure constants (q = 35), where Fractions survive the clearing
SCALED = {
    "affine sl2": ("sl2", {"1⊗h": Fraction(2, 3), "K": Fraction(1, 2), "d": Fraction(1, 5)}, 5, (-2, 2)),
    "affine sl2 at (2/3, 1/2)": ("sl2", {"1⊗h": Fraction(2, 3), "K": Fraction(1, 2)}, 5, (-2, 2)),
    "rational sl3": ("sl3", {"H1": Fraction(1, 5), "H2": Fraction(-3, 7)}, 4, (-2, 2)),
}


def _cleared_actions(module, window):
    """Every action matrix of the window's generators as ``cleared`` gives
    it, read back as rows of Fractions."""
    out = {}
    for w in sorted(module.weights):
        for e in module.alg.elements_in_degrees(*window):
            try:
                d, rows = cleared(module.action(e, w))
            except (WindowError, ModuleError):
                continue
            out[e, w] = [{c: Fraction(v, d) for c, v in row.items()} for row in rows]
    return out


@pytest.mark.parametrize("kind", ["verma", "coverma"])
@pytest.mark.parametrize("case", sorted(SCALED))
def test_scaled_recursion_matches_straightening(case, kind, sl2):
    """The recursion on lambda cleared once gives the reference's matrices
    entry by entry (the reference's integral Fractions passed through
    exact), and the module passes the commutator oracle.  Each matrix holds
    the recursion's integers until its entries are read: ``cleared`` gives
    the same rational matrix before and after."""
    name, lam, depth, window = SCALED[case]
    alg = sl2 if name == "sl2" else rational_sl3()
    assert check_jacobi(alg, -4, 4).passed
    ctor, reference = (verma, reference_verma) if kind == "verma" else (coverma, reference_coverma)
    got, ref = ctor(alg, lam, depth), reference(alg, lam, depth)
    held = _cleared_actions(got, window)
    assert got.weights.keys() == ref.weights.keys()
    actions = _actions(got, window)
    assert actions == _actions(ref, window, exact)
    matrices = [m for m in actions.values() if isinstance(m, tuple)]
    assert {t for m in matrices for row in m[2] for t, _v in row.values()} == {int, Fraction}
    assert _cleared_actions(got, window) == held
    assert check_commutators(got, window) == []


@pytest.mark.parametrize("write", ["rows", "add"])
def test_a_write_through_rows_reaches_the_oracle(write, sl2):
    """An action matrix of a Verma module at lambda = (2/3, 1/2) holds its
    recursion's integers, scale q = 6, until its entries are read.  An entry
    corrupted in place through ``rows`` (or ``add``, which writes there),
    after a passing check has cleared the matrix, is what the next check
    sees: no stale integer copy survives the write."""
    window = (-2, 2)
    V = verma(sl2, {"1⊗h": Fraction(2, 3), "K": Fraction(1, 2)}, 3)
    assert check_commutators(V, window) == []
    mat = V.action(sl2.by_label("1⊗e"), (-1, 0))
    assert cleared(mat)[0] == 6
    if write == "rows":
        mat.rows[0][0] = exact(mat.get(0, 0) + Fraction(1, 3))
    else:
        mat.add(0, 0, Fraction(1, 3))
    got = check_commutators(V, window)
    assert got and got == reference_check_commutators(V, window, None)


@pytest.mark.parametrize("kind", ["verma", "coverma"])
def test_fractional_recursion_memo_holds_only_ints(kind, sl2, monkeypatch):
    """Over affine sl2 (integral structure constants) the recursion of a
    module at a fractional lambda runs in ints: every coefficient in its
    memo is one, and only the matrices carry Fractions."""
    memos = []
    real = modules.induced_action

    def recording(alg, free, order, values, sign, memo, scale):
        memos.append((values, memo, scale))
        return real(alg, free, order, values, sign, memo, scale)

    monkeypatch.setattr(modules, "induced_action", recording)
    name, lam, depth, window = SCALED["affine sl2"]
    module = (verma if kind == "verma" else coverma)(sl2, lam, depth)
    _actions(module, window)
    ((values, memo, scale),) = memos
    assert scale == 30 and values and {type(v) for v in values.values()} == {int}
    assert len(memo) > 100
    assert {type(c) for res in memo.values() for c in res.values()} == {int}


@pytest.mark.parametrize("right", [False, True])
def test_a_monomial_outside_the_basis_is_an_error(right, sl2):
    """An action landing on a monomial the basis lacks raises a ModuleError
    naming the element and both weights, on both sides (coverma used to drop
    the term silently)."""
    sub = subalgebra(sl2, "gplus" if right else "g_below_zero")
    tab = enumerate_pbw_weights(sub, 3, canonical_order(sl2))
    if right:
        tab = {wt_neg(w): mons for w, mons in tab.items()}
    tab[(0, -1)] = tab[(0, -1)][:-1]  # drops 1⊗f·z^-1⊗e on the left, z⊗h on the right
    M = _induced_module(sl2, "holed", tab, {}, 3, right=right)
    label, src, dst = ("z⊗h", (0, -1), (0, 0)) if right else ("1⊗f", (1, -1), (0, -1))
    with pytest.raises(ModuleError, match=re.escape(f"holed: {label} from weight {src} to weight {dst} leaves the basis")):
        M.action(sl2.by_label(label), src)
