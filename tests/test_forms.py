"""Clifford operators, the semi-infinite differential, cohomology tables,
and the semi-invariants functor."""

import random
from fractions import Fraction

import pytest

from semiflex.forms import (
    AnomalyError,
    SemiInfComplex,
    _tail_above,
    contract,
    differential,
    enumerate_forms,
    semiinf_cohomology,
    semiinvariants,
    vacuum,
    wedge,
)
from semiflex.induction import universal_semijective, wakimoto
from semiflex.liealg import build_affine_sl2, build_test_algebra, load_algebra, subalgebra, wt_add, wt_sub, wt_zero
from semiflex.modules import direct_sum, trivial_module, verma


def test_vacuum_invariants(abelian):
    om = vacuum(abelian)
    assert om == ((), ())
    x1 = abelian.by_label("x_1")
    xm1 = abelian.by_label("x_-1")
    # tail vectors wedge to zero, positive duals contract to zero
    assert wedge(abelian, xm1, om) is None
    assert contract(abelian, x1, om) is None
    s, m = wedge(abelian, x1, om)
    assert s == 1 and m == ((x1,), ())
    s2, m2 = contract(abelian, xm1, om)
    assert s2 == 1 and m2 == ((), (xm1,))


def test_repeated_wedge_vanishes(abelian):
    x1 = abelian.by_label("x_1")
    _, m = wedge(abelian, x1, vacuum(abelian))
    assert wedge(abelian, x1, m) is None


def on_form(op, alg, x, form: dict) -> dict:
    """The Clifford operator ``op`` (wedge or contract) on a {monomial: coeff}
    combination, one monomial at a time."""
    out: dict = {}
    for mono, c in form.items():
        res = op(alg, x, mono)
        if res:
            s, m = res
            v = out.get(m, 0) + s * c
            if v:
                out[m] = v
            elif m in out:
                del out[m]
    return out


def test_clifford_relations(sl2):
    """wedge(x) contract(y*) + contract(y*) wedge(x) = delta_{xy} id."""
    rng = random.Random(11)
    elems = sl2.elements_in_degrees(-3, 3)
    monos = [vacuum(sl2)]
    for mu_ell in range(0, 3):
        for mu in {tuple(sl2.weight(e)) for e in elems}:
            if sl2.ell(mu) == mu_ell:
                for n in (-1, 0, 1):
                    monos.extend(enumerate_forms(sl2, mu, n))
    monos = list(dict.fromkeys(monos))[:40]
    for _ in range(300):
        x = rng.choice(elems)
        y = rng.choice(elems)
        mono = rng.choice(monos)
        form = {mono: Fraction(1)}
        lhs = on_form(wedge, sl2, x, on_form(contract, sl2, y, form))
        for m, c in on_form(contract, sl2, y, on_form(wedge, sl2, x, form)).items():
            lhs[m] = lhs.get(m, 0) + c
        lhs = {m: c for m, c in lhs.items() if c}
        if x == y:
            assert lhs == form
        else:
            assert lhs == {}


def test_enumerate_forms_abelian(abelian):
    assert enumerate_forms(abelian, (0,), 0) == [((), ())]
    x1 = abelian.by_label("x_1")
    assert enumerate_forms(abelian, (1,), 1) == [((x1,), ())]
    assert enumerate_forms(abelian, (-1,), 0) == []


def test_enumerate_forms_includes_degree_zero_removals(sl2):
    monos = enumerate_forms(sl2, (0, 0), -1)
    labels = {tuple(sl2.label(e) for e in rem) for (_a, rem) in monos}
    assert ("1⊗h",) in labels and ("K",) in labels and ("d",) in labels


def _subsets_exact(alg, elems):
    """Oracle: {(weight, count): [sorted id tuples]} over all subsets of elems."""
    table: dict = {}
    elems = sorted(elems, key=alg.key)
    n = len(elems)

    def rec(idx, acc, w):
        table.setdefault((w, len(acc)), []).append(tuple(sorted(acc)))
        if idx >= n:
            return
        for nxt in range(idx, n):
            acc.append(elems[nxt])
            rec(nxt + 1, acc, wt_add(w, alg.weight(elems[nxt])))
            acc.pop()

    rec(0, [], wt_zero(alg.rank))
    return table


def _oracle_forms(alg, ell):
    """Oracle: {(mu, n): sorted monomials} over ell(mu) == ell, paired from
    the unbudgeted subset tables of degrees [1, ell] and [-ell, 0]."""
    pos = alg.elements_in_degrees(1, ell)
    neg = alg.elements_in_degrees(-ell, 0)
    out: dict = {}
    for (wa, ca), adds in _subsets_exact(alg, pos).items():
        for (wr, cr), rems in _subsets_exact(alg, neg).items():
            mu = wt_sub(wa, wr)
            if alg.ell(mu) == ell:
                out.setdefault((mu, ca - cr), []).extend((a, r) for a in adds for r in rems)
    return {cell: sorted(monos) for cell, monos in out.items()}


@pytest.mark.parametrize("name,max_ell", [("abelian", 6), ("sl2", 4), ("loop_a", 9)])
def test_enumerate_forms_matches_unbudgeted_oracle(request, name, max_ell):
    alg = request.getfixturevalue(name)
    cells = 0
    for ell in range(max_ell + 1):
        oracle = _oracle_forms(alg, ell)
        cells += len(oracle)
        removable = len(alg.elements_in_degrees(-ell, 0))
        for mu in sorted({mu for mu, _n in oracle}):
            for n in range(-removable - 1, ell + 2):
                assert enumerate_forms(alg, mu, n) == oracle.get((mu, n), []), (mu, n)
    assert cells > 0


def test_enumerate_forms_returns_a_fresh_list(loop_a):
    mu, n = (-1, 2), 1
    first = enumerate_forms(loop_a, mu, n)
    assert first
    expected = list(first)
    first.clear()
    assert enumerate_forms(loop_a, mu, n) == expected


def test_form_index_built_once_per_ell(monkeypatch):
    """A second pass over the same cells reads the index: one build per ell."""
    from semiflex import forms

    calls = []
    real = forms.monomials_by_weight

    def counting(alg, elems, budget, max_exp=None):
        calls.append(budget)
        return real(alg, elems, budget, max_exp)

    monkeypatch.setattr(forms, "monomials_by_weight", counting)
    alg = build_test_algebra("loop-nilpotent-a")
    cells = [((-1, k), n) for k in range(1, 5) for n in range(-3, 4)]
    first = [enumerate_forms(alg, mu, n) for mu, n in cells]
    assert [enumerate_forms(alg, mu, n) for mu, n in cells] == first
    assert any(first)
    # one build per ell = one positive plus one nonpositive subset table
    ells = sorted({alg.ell(mu) for mu, _n in cells})
    assert sorted(calls) == sorted(2 * ells)


def test_tail_counts_are_cached_per_algebra_and_view():
    def scan(alg, x):  # the uncached count: every tail slot with key above x
        kx = alg.key(x)
        return sum(1 for d in range(alg.degree(x), 1) for e in alg.elements_of_degree(d) if alg.key(e) > kx)

    g = build_affine_sl2()
    g.ensure_window(-8, 8)
    a = build_test_algebra("loop-nilpotent-a")
    a.ensure_window(-8, 8)
    # the parent first: a view must not read the parent's counts
    for alg in (g, a, subalgebra(g, "a"), subalgebra(g, "g_below_zero")):
        tail = alg.elements_in_degrees(-8, 0)
        assert tail
        for x in tail:
            assert _tail_above(alg, x) == scan(alg, x)
        assert alg._tail_counts == {x: scan(alg, x) for x in tail}
        assert [_tail_above(alg, x) for x in tail] == [scan(alg, x) for x in tail]


def test_abelian_trivial_differential_vanishes(abelian):
    M = trivial_module(abelian, depth=3)
    for w in [(-2,), (-1,), (0,)]:
        for n in (-2, -1, 0, 1):
            mat, _cb, _rb = differential(abelian, M, w, n)
            assert mat.nnz == 0


def test_differential_raises_ghost_by_one(abelian):
    M = trivial_module(abelian, depth=3)
    cx = SemiInfComplex(abelian, M, (-1,))
    mat = cx.matrix(0)
    assert mat.nrows == len(cx.basis(1))
    assert mat.ncols == len(cx.basis(0))


def test_d_squared_zero_affine_sl2_verma(sl2, lam01):
    V = verma(sl2, lam01, 3)
    for w in [(0, 0), (0, -1), (-1, 0), (-1, -1), (-2, 0), (1, -1), (2, -1)]:
        cx = SemiInfComplex(sl2, V, w)
        ns = cx.ghost_range()
        if not ns:
            continue
        for n in range(min(ns) - 1, max(ns)):
            comp = cx.matrix(n + 1).matmul(cx.matrix(n))
            assert comp.nnz == 0, (w, n)


def test_wrong_beta_is_detected(lam01):
    g = build_affine_sl2()
    hid = g.by_label("1⊗h")
    g._beta[hid] = Fraction(0)  # corrupt the structure functional
    V = verma(g, lam01, 2)
    with pytest.raises(AnomalyError) as exc:
        semiinf_cohomology(g, V, 2)
    assert exc.value.weight is not None


def test_semiinf_cohomology_us_concentrated(loop_a):
    us = universal_semijective(loop_a, 3).left
    table = semiinf_cohomology(loop_a, us, 3)
    assert table.nonzero() == [((0, 0), 0, 1)]
    assert table.euler_consistent()


def test_semiinf_cohomology_abelian_us(abelian):
    us = universal_semijective(abelian, 3).left
    table = semiinf_cohomology(abelian, us, 3)
    assert table.nonzero() == [((0,), 0, 1)]


def test_zero_algebra_edge_case():
    zero = load_algebra(
        {
            "name": "zero",
            "grading": {"rank": 1, "degree_functional": [1]},
            "basis": [],
            "brackets": [],
            "beta": [],
        }
    )
    M = trivial_module(zero, depth=2)
    table = semiinf_cohomology(zero, M, 2)
    assert table.nonzero() == [((0,), 0, 1)]


def test_wakimoto_restriction_cohomology(sl2, lam01):
    W = wakimoto(sl2, lam01, 4)
    a = subalgebra(sl2, "a")
    table = semiinf_cohomology(a, W, 4)
    assert table.nonzero() == [((0, 0), 0, 1)]
    assert table.euler_consistent()


def test_d_squared_zero_affine_sl2_wakimoto(sl2, lam01):
    """The full anomaly test: the affine complex with Wakimoto coefficients."""
    from semiflex.forms import _active_weights

    W = wakimoto(sl2, lam01, 3)
    for w in sorted(_active_weights(sl2, W, 3)):
        cx = SemiInfComplex(sl2, W, w)
        ns = cx.ghost_range()
        removable = len(sl2.elements_in_degrees(-cx.lmax, 0))
        assert ns == [n for n in range(-removable - 1, cx.lmax + 2) if cx.basis(n)]
        if not ns:
            continue
        for n in range(min(ns) - 1, max(ns)):
            assert cx.matrix(n + 1).matmul(cx.matrix(n)).nnz == 0, (w, n)


def test_semiinvariants_trivial_abelian(abelian):
    M = trivial_module(abelian, depth=2)
    si = semiinvariants(abelian, M, 2)
    assert si.dim((0,)) == 1


def test_semiinvariants_wakimoto_over_a(sl2, lam01):
    W = wakimoto(sl2, lam01, 3)
    a = subalgebra(sl2, "a")
    si = semiinvariants(a, W, 3)
    assert si.dim((0, 0)) == 1
    for w in W.weights:
        if w != (0, 0) and sl2.ell(w) >= -3:
            assert si.dim(w) == 0, w


def test_semiinvariants_additive(sl2, lam01):
    a = subalgebra(sl2, "a")
    V = verma(sl2, lam01, 3)
    si1 = semiinvariants(a, V, 3)
    si2 = semiinvariants(a, direct_sum(V, V), 3)
    for w in set(si1.dims) | set(si2.dims):
        assert si2.dim(w) == 2 * si1.dim(w)


def test_semiinvariants_match_degree_zero_cohomology(loop_a):
    """For semijective modules the functor equals the (w, 0) cohomology."""
    us = universal_semijective(loop_a, 3).left
    si = semiinvariants(loop_a, us, 3)
    table = semiinf_cohomology(loop_a, us, 3)
    for w in us.weights:
        if loop_a.ell(w) >= -3:
            assert si.dim(w) == table.dim(w, 0), w


def test_euler_consistency_everywhere(sl2, lam01):
    V = verma(sl2, lam01, 3)
    table = semiinf_cohomology(sl2, V, 2)
    assert table.euler_consistent()


def test_depth_beyond_module_is_an_error_not_a_truncation(sl2, lam01):
    from semiflex.liealg import WindowError
    from semiflex.modules import ce_cohomology, ce_homology
    from semiflex.liealg import subalgebra as sub

    V = verma(sl2, lam01, 2)
    with pytest.raises(WindowError):
        semiinf_cohomology(sl2, V, 3)
    with pytest.raises(WindowError):
        ce_cohomology(sub(sl2, "gplus"), V, 3)
    with pytest.raises(WindowError):
        ce_homology(sub(sl2, "g_below_zero"), V, 3)
    with pytest.raises(WindowError):
        semiinvariants(sl2, V, 3)


def _finite_sl2(beta_h):
    return load_algebra(
        {
            "name": "sl2toy",
            "grading": {"rank": 1, "degree_functional": [1]},
            "basis": [
                {"label": "e", "weight": [1], "index": 0},
                {"label": "h", "weight": [0], "index": 0},
                {"label": "f", "weight": [-1], "index": 0},
            ],
            "brackets": [
                {"i": 0, "j": 1, "terms": [{"k": 0, "num": -2}]},
                {"i": 0, "j": 2, "terms": [{"k": 1, "num": 1}]},
                {"i": 1, "j": 2, "terms": [{"k": 2, "num": -2}]},
            ],
            "beta": [{"label": "h", "num": beta_h}] if beta_h else [],
        }
    )


def test_finite_sl2_toy_differential_squares_to_zero():
    """Three-dimensional regression case for the normal-ordering charge.

    With the splitting e | h, f the consistent structure functional is
    beta(h) = 2 (the 2ρ value, same normalization the affine case forces);
    the vacuum contains f, and restoring it through [h, f] is exactly what
    the charge of the occupied h slot must account for.
    """
    toy = _finite_sl2(2)
    V = verma(toy, {"h": Fraction(3)}, 3)
    table = semiinf_cohomology(toy, V, 3)  # raises AnomalyError if d^2 != 0
    assert table.euler_consistent()
    semiinf_cohomology(toy, trivial_module(toy, depth=3), 3)


def test_finite_sl2_toy_wrong_beta_diagnosed():
    toy = _finite_sl2(0)
    V = verma(toy, {"h": Fraction(3)}, 3)
    with pytest.raises(AnomalyError):
        semiinf_cohomology(toy, V, 3)


def test_charged_slot_of_nonzero_weight_is_named():
    """beta on a degree-0 slot of nonzero weight: the charge term cannot keep
    the weight, and the error names the slot, not a d^2 residual."""
    toy = load_algebra(
        {
            "grading": {"rank": 2, "degree_functional": [1, 0]},
            "basis": [
                {"label": "e", "weight": [1, 0], "index": 0},
                {"label": "x", "weight": [0, 1], "index": 0},
            ],
            "brackets": [],
            "beta": [{"label": "x", "num": 1}],
        }
    )
    with pytest.raises(AnomalyError) as exc:
        semiinf_cohomology(toy, trivial_module(toy, depth=2), 2)
    assert (exc.value.weight, exc.value.ghost) == ((-1, 0), 0)
    assert str(exc.value) == "degree-0 slot x of nonzero weight (0, 1) carries charge 1 at weight (-1, 0), ghost 0"
