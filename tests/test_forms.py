"""Clifford operators, the semi-infinite differential, cohomology tables,
and the semi-invariants functor."""

import itertools
import random
from fractions import Fraction

import pytest

from conftest import assert_same_semiinvariants, rational_sl3, reference_complex_cells, reference_semiinvariants
from semiflex.forms import (
    AnomalyError,
    SemiInfComplex,
    _active_weights,
    _positive_generators,
    _tail_above,
    VACUUM,
    contract,
    enumerate_forms,
    semiinf_cohomology,
    semiinvariants,
    wedge,
)
from semiflex.induction import universal_semijective, wakimoto
from semiflex.liealg import AlgebraError, build_affine_sl2, load_algebra, subalgebra, wt_add, wt_sub, wt_zero
from semiflex.linalg import SparseMatrix
from semiflex.modules import character_module, coverma, direct_sum, verma


def test_vacuum_invariants(abelian):
    om = VACUUM
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
    _, m = wedge(abelian, x1, VACUUM)
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
    monos = [VACUUM]
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
    alg = load_algebra("subalgebra_a")
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
    a = load_algebra("subalgebra_a")
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
    M = character_module(abelian, {}, 3)
    for w in [(-2,), (-1,), (0,)]:
        cx = SemiInfComplex(abelian, M, w)
        for n in (-2, -1, 0, 1):
            assert cx.matrix(n).nnz == 0


def test_differential_raises_ghost_by_one(abelian):
    M = character_module(abelian, {}, 3)
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
    M = character_module(zero, {}, 2)
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
    M = character_module(abelian, {}, 2)
    si = semiinvariants(abelian, M, 2)
    assert len(si[(0,)]) == 1


def test_semiinvariants_wakimoto_over_a(sl2, lam01):
    W = wakimoto(sl2, lam01, 3)
    a = subalgebra(sl2, "a")
    si = semiinvariants(a, W, 3)
    assert len(si[(0, 0)]) == 1
    for w in W.weights:
        if w != (0, 0) and sl2.ell(w) >= -3:
            assert len(si.get(w, ())) == 0, w


def test_semiinvariants_additive(sl2, lam01):
    a = subalgebra(sl2, "a")
    V = verma(sl2, lam01, 3)
    si1 = semiinvariants(a, V, 3)
    si2 = semiinvariants(a, direct_sum(V, V), 3)
    for w in set(si1) | set(si2):
        assert len(si2.get(w, ())) == 2 * len(si1.get(w, ())), w


def test_semiinvariants_match_degree_zero_cohomology(loop_a):
    """For semijective modules the functor equals the (w, 0) cohomology."""
    us = universal_semijective(loop_a, 3).left
    si = semiinvariants(loop_a, us, 3)
    table = semiinf_cohomology(loop_a, us, 3)
    for w in us.weights:
        if loop_a.ell(w) >= -3:
            assert len(si.get(w, ())) == table.dim(w, 0), w


@pytest.mark.parametrize("hk", [(0, 1), (Fraction(2, 3), Fraction(1, 2))], ids=["0,1", "2/3,1/2"])
def test_semiinvariants_of_wakimoto_match_every_positive_element(sl2, hk):
    """W over the a view of affine sl2: invariance under the generating set,
    into nonzero weights only, gives the kernel of every positive element."""
    lam = {"1⊗h": Fraction(hk[0]), "K": Fraction(hk[1]), "d": Fraction(0)}
    W = wakimoto(sl2, lam, 4)
    a = subalgebra(sl2, "a")
    assert_same_semiinvariants(semiinvariants(a, W, 4), reference_semiinvariants(a, W, 4))


def test_generating_set_of_a():
    """The z^n⊗f with n >= 2 are brackets -[z^(n-1)⊗h, z⊗f] / 2; the z^n⊗h
    are no brackets at all, since [z^m⊗f, z^k⊗f] = 0.  The a view of
    affine sl2 keeps the same elements."""
    want = ["z⊗f", "z⊗h", "z^2⊗h", "z^3⊗h", "z^4⊗h"]
    a = load_algebra("subalgebra_a")
    a.ensure_window(-22, 22)
    assert [a.label(e) for e in _positive_generators(a, 9)] == want
    view = subalgebra(build_affine_sl2(), "a")
    view.ensure_window(-22, 22)
    assert [view.label(e) for e in _positive_generators(view, 9)] == want


def test_generating_set_of_an_abelian_algebra_is_every_element(abelian):
    assert _positive_generators(abelian, 6) == abelian.elements_in_degrees(1, 6)


def test_generating_set_with_rational_structure_constants():
    """sl3 with [E12, E23] = 2/3 E13: degree 1 keeps both simple root
    vectors, and degree 2 keeps nothing, E13 being in the bracket span."""
    alg = rational_sl3()
    alg.ensure_window(-6, 6)
    assert _positive_generators(alg, 4) == alg.elements_of_degree(1)
    assert sorted(alg.label(e) for e in alg.elements_of_degree(1)) == ["E12", "E23"]
    assert [alg.label(e) for e in alg.elements_in_degrees(2, 4)] == ["E13"]


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
    semiinf_cohomology(toy, character_module(toy, {}, 3), 3)


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
    M = character_module(toy, {}, 2)
    message = "degree-0 slot x of nonzero weight (0, 1) carries charge 1 at weight (-1, 0), ghost 0"
    with pytest.raises(AnomalyError) as exc:
        semiinf_cohomology(toy, M, 2)
    assert (exc.value.weight, exc.value.ghost) == ((-1, 0), 0)
    assert str(exc.value) == message
    # the row-term memo holds the charge, not the verdict: filled at weights
    # where x is removed (no charge), and with the charged row itself, the
    # table still fails at the same cell
    assert not SemiInfComplex(toy, M, (-1, 1)).matrix(-1).nnz
    SemiInfComplex(toy, M, (0, 1)).matrix(-2)
    e, x = toy.by_label("e"), toy.by_label("x")
    charged = [t for t in toy._row_terms[((e,), ())][2].values() if t[4]]
    assert [(y, charge) for y, _s, _sub, _mu2, charge in charged] == [(x, 1)]
    assert len(toy._row_terms) > 1
    with pytest.raises(AnomalyError) as exc:
        semiinf_cohomology(toy, M, 2)
    assert (exc.value.weight, exc.value.ghost) == ((-1, 0), 0)
    assert str(exc.value) == message


# -- the cells of each complex against a scan of the module's weights ----------------


def _complex_cases():
    """(name, algebra, module, depth) for the cell checks: US(a), W over a
    and over affine sl2, a Verma module at a fractional lambda, both CE
    complexes, and two small algebras."""
    a = load_algebra("subalgebra_a")
    yield "us-a", a, universal_semijective(a, 5).left, 5
    for hk in ((0, 1), (-4, -4)):
        g = build_affine_sl2()
        W = wakimoto(g, _lam(*hk), 4)
        yield f"wakimoto-a-{hk}", subalgebra(g, "a"), W, 4
        yield f"wakimoto-sl2-{hk}", g, W, 4
    g = build_affine_sl2()
    yield "verma-sl2", g, verma(g, _lam("2/3", "1/2"), 3), 3
    yield "ce-gplus", subalgebra(g, "gplus"), coverma(g, _lam(0, 1), 4), 4
    yield "ce-g_below_zero", subalgebra(g, "g_below_zero"), verma(g, _lam(0, 1), 4), 4
    abelian = load_algebra("abelian")
    yield "abelian-trivial", abelian, character_module(abelian, {}, 4), 4
    toy = _finite_sl2(2)
    yield "sl2-toy-verma", toy, verma(toy, {"h": Fraction(3)}, 3), 3
    yield "sl2-toy-trivial", toy, character_module(toy, {}, 3), 3


def _nearby_weights(alg, active, depth):
    """Weights with -depth <= ell <= 0 next to the active ones (each
    coordinate moved by at most one), whether active or not."""
    near = set()
    for w in active:
        for step in itertools.product((-1, 0, 1), repeat=alg.rank):
            v = wt_add(w, step)
            if -depth <= alg.ell(v) <= 0:
                near.add(v)
    return near


def test_complex_cells_match_a_scan_of_the_module():
    """At every active weight, and at nearby weights where the complex may
    be empty, the layout lists the cells the module scan finds, in the same
    order, with the same indices."""
    empty = 0
    for name, alg, module, depth in _complex_cases():
        active = _active_weights(alg, module, depth)
        for w in sorted(active | _nearby_weights(alg, active, depth)):
            cx = SemiInfComplex(alg, module, w)
            ref = reference_complex_cells(alg, module, w)
            assert cx.ghost_range() == sorted(ref), (name, w)
            assert (w in active) or not ref, (name, w)
            empty += not ref
            for n in range(min(ref, default=0) - 1, max(ref, default=0) + 2):
                assert list(cx.basis(n).items()) == list(ref.get(n, {}).items()), (name, w, n)
                assert cx.dim(n) == len(ref.get(n, {})), (name, w, n)
    assert empty


class _Unscanned(dict):
    """A module's weight table that answers lookups but fails any scan."""

    def _scan(self, *args):
        raise AssertionError("the module's weights were scanned")

    __iter__ = keys = values = items = _scan


def test_building_a_complex_never_scans_the_module_weights():
    g = build_affine_sl2()
    W = wakimoto(g, _lam(0, 1), 4)
    weights = sorted(_active_weights(g, W, 4))
    W.weights = _Unscanned(W.weights)
    for w in weights:
        cx = SemiInfComplex(g, W, w)
        for n in cx.ghost_range():
            cx.matrix(n)


# -- the row-term memo against the per-row loop it replaced ----------------------------


def _reference_removals(alg, mono, mu, lmax):
    """(y, contraction sign, monomial minus y) for every occupied y whose
    removal lands in the complex, recomputed per row."""
    added, removed = mono
    out = [(y, *contract(alg, y, mono)) for y in added]
    for d in range(max(alg.ell(mu) - lmax, -2 * lmax - 4), 1):
        out.extend((y, *contract(alg, y, mono)) for y in alg.elements_of_degree(d) if y not in removed)
    return out


def _reference_pair_terms(alg, mono):
    """The normally ordered bracket term of one row, recomputed per row and
    cut to the current window."""
    added, removed = mono
    maxdeg_occ = max([alg.degree(e) for e in added] + [0])
    dmin_b = min([alg.degree(e) for e in removed] + [1])
    cands = list(added)
    for d in range(max(dmin_b - maxdeg_occ, alg.window()[0]), 1):
        cands.extend(y for y in alg.elements_of_degree(d) if y not in removed)
    cands.sort(key=alg.key, reverse=True)
    out = []
    for ii, yi in enumerate(cands):
        for yj in cands[ii + 1 :]:
            dsum = alg.degree(yi) + alg.degree(yj)
            terms = alg.bracket_ids(yi, yj) if alg.in_window(dsum) else {}
            if not terms:
                continue
            s1, m1 = contract(alg, yi, mono)
            s2, m2 = contract(alg, yj, m1)
            for z, cf in terms.items():
                if dsum <= 0 and z in (yi, yj):
                    continue
                res = wedge(alg, z, m2)
                if res is not None:
                    out.append((-(s1 * s2 * res[0]) * cf, res[1]))
    return out


def _reference_matrix(cx, n):
    """The differential C^n_w -> C^{n+1}_w as it was built row by row before
    the row-term memo: contractions, charges and pair terms recomputed for
    every row of every weight."""
    alg, module, w = cx.alg, cx.module, cx.w
    rows, cols = cx.basis(n + 1), cx.basis(n)
    mat = SparseMatrix(len(rows), len(cols))
    for (mono, mu, b), r in rows.items():
        for y, s, sub in _reference_removals(alg, mono, mu, cx.lmax):
            mu2 = wt_sub(mu, alg.weight(y))
            for bb, v in module.action(y, wt_add(w, mu2)).rows[b].items():
                c = cols.get((sub, mu2, bb))
                if c is not None:
                    mat.add(r, c, s * v)
            if alg.degree(y) == 0:
                charge = alg.beta_value(y) + sum(alg.bracket_ids(y, rem).get(rem, 0) for rem in mono[1])
                if charge:
                    assert alg.weight(y) == wt_zero(alg.rank)
                    c = cols.get((sub, mu, b))
                    if c is not None:
                        mat.add(r, c, s * charge)
        for coeff, sub in _reference_pair_terms(alg, mono):
            c = cols.get((sub, mu, b))
            if c is not None:
                mat.add(r, c, coeff)
    return mat


def _matches_reference(alg, module, depth):
    """Every differential of the table to ``depth`` equals the reference
    loop entry by entry; returns {(w, n): its nonzero count}."""
    nnz = {}
    for w in sorted(_active_weights(alg, module, depth)):
        cx = SemiInfComplex(alg, module, w)
        ns = cx.ghost_range()
        for n in range(min(ns, default=0) - 1, max(ns, default=-1) + 1):
            got, want = cx.matrix(n), _reference_matrix(cx, n)
            assert (got.nrows, got.ncols) == (want.nrows, want.ncols), (w, n)
            assert got.rows == want.rows, (w, n)
            nnz[(w, n)] = got.nnz
    return nnz


def _lam(h, k):
    return {"1⊗h": Fraction(h), "K": Fraction(k), "d": Fraction(0)}


def test_memoised_differentials_match_the_reference_over_a():
    a = load_algebra("subalgebra_a")
    assert any(_matches_reference(a, universal_semijective(a, 5).left, 5).values())
    for lam in (_lam("2/3", "1/2"), _lam(0, 1)):
        g = build_affine_sl2()
        assert any(_matches_reference(subalgebra(g, "a"), wakimoto(g, lam, 4), 4).values())


def test_memoised_differentials_match_the_reference_as_the_window_grows():
    """W over all of affine sl2: the pair terms are cached without the
    window, and a wider window changes neither them nor the reference."""
    g = build_affine_sl2()
    W = wakimoto(g, _lam(0, 1), 3)
    first = _matches_reference(g, W, 3)
    assert any(first.values())
    memo = {mono: (list(pairs), dict(lists), dict(slots)) for mono, (pairs, lists, slots) in g._row_terms.items()}
    lo, hi = g.window()
    g.ensure_window(lo - 6, hi + 6)
    assert _matches_reference(g, W, 3) == first
    assert g._row_terms == memo


def test_memoised_ce_differentials_match_the_reference(sl2, lam01):
    cases = [
        (subalgebra(sl2, "gplus"), coverma(sl2, lam01, 4)),
        (subalgebra(sl2, "g_below_zero"), verma(sl2, lam01, 4)),
    ]
    for part, module in cases:
        assert any(_matches_reference(part, module, 4).values()), part.name


def test_memoised_differentials_match_the_reference_on_small_algebras():
    abelian = load_algebra("abelian")
    assert not any(_matches_reference(abelian, character_module(abelian, {}, 4), 4).values())
    toy = _finite_sl2(2)
    for module in (verma(toy, {"h": Fraction(3)}, 3), character_module(toy, {}, 3)):
        assert any(_matches_reference(toy, module, 3).values())
    # the charge path: beta(h) = 2 gives occupied h slots a nonzero charge
    h = toy.by_label("h")
    charges = {t[4] for _pairs, _lists, slots in toy._row_terms.values() for t in slots.values() if t[0] == h}
    assert 0 in charges and any(charges)


def test_row_terms_built_once_per_key(monkeypatch):
    """Over a whole table each pair-term list, slot term and slot list is
    built once per key, and a second table over the same algebra builds
    nothing.  A pair-term list walks the occupied slots once for its
    candidates; that walk is counted apart from the slot lists."""
    from semiflex import forms

    builds = {"pairs": [], "slot": [], "list": [], "candidates": []}

    def counting(name, real, key):
        def build(*args):
            builds[name].append(key(*args))
            return real(*args)

        return build

    def pair_terms(alg, mono):
        builds["pairs"].append(mono)
        start = len(builds["list"])
        out = real_pair_terms(alg, mono)
        builds["candidates"].extend(builds["list"][start:])
        del builds["list"][start:]
        return out

    real_pair_terms = forms._pair_terms
    monkeypatch.setattr(forms, "_pair_terms", pair_terms)
    monkeypatch.setattr(forms, "_slot_term", counting("slot", forms._slot_term, lambda alg, mono, mu, y: (mono, y)))
    monkeypatch.setattr(forms, "_occupied", counting("list", forms._occupied, lambda alg, mono, dmin: (mono, dmin)))
    a = load_algebra("subalgebra_a")
    us = universal_semijective(a, 6).left
    table = semiinf_cohomology(a, us, 6)
    memo = a._row_terms
    assert sorted(builds["pairs"]) == sorted(memo)
    assert [mono for mono, _dmin in builds["candidates"]] == builds["pairs"]
    assert sorted(builds["slot"]) == sorted((mono, y) for mono, entry in memo.items() for y in entry[2])
    assert sorted(builds["list"]) == sorted((mono, dmin) for mono, entry in memo.items() for dmin in entry[1])
    # the same monomial comes back at other weights and with other dmin
    assert len(builds["list"]) > len(builds["pairs"]) and len(builds["slot"]) > len(builds["pairs"])
    counts = {name: len(keys) for name, keys in builds.items()}
    again = semiinf_cohomology(a, universal_semijective(a, 6).left, 6)
    assert {name: len(keys) for name, keys in builds.items()} == counts
    assert again.rows() == table.rows()


def test_row_terms_are_kept_per_algebra_and_view(lam01):
    """A view's slots are its members only, so it keeps its own memo: the
    view first, then the parent, each reading and filling only its own."""
    g = build_affine_sl2()
    W = wakimoto(g, lam01, 2)
    a = subalgebra(g, "a")
    semiinf_cohomology(a, W, 2)
    assert a._row_terms and not g._row_terms
    view_memo = dict(a._row_terms)
    semiinf_cohomology(g, W, 2)
    assert a._row_terms == view_memo
    shared = set(view_memo) & set(g._row_terms)
    assert shared
    assert any(view_memo[mono][2] != g._row_terms[mono][2] for mono in shared)


@pytest.mark.parametrize("window", [12, 3])
def test_a_complex_over_an_algebra_with_other_basis_ids_raises(window):
    """The view a2 of its own affine sl2 and a module over another affine
    sl2: the two number their bases differently once the windows differ, so
    the complex and the semi-invariants raise an AlgebraError naming both
    algebras, not a false anomaly at weight (-1, -1) (window 12) or a
    WindowError about z^-5⊗h, which the module never used (window 3)."""
    a2 = load_algebra("subalgebra_a")
    a2.parent.ensure_window(-window, window)
    module = verma(build_affine_sl2(), {"K": 1}, 3)
    for compute in (semiinf_cohomology, semiinvariants):
        with pytest.raises(AlgebraError, match="affine_sl2:a and the module's algebra affine_sl2"):
            compute(a2, module, 3)
