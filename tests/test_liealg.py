"""Algebra constructors, brackets, windows, splittings, beta, file format."""

import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MALFORMED_TOYS, sl2_toy
from semiflex.induction import universal_semijective
from semiflex.liealg import (
    AlgebraError,
    WindowError,
    bracket,
    build_affine_sl2,
    check_closure,
    check_jacobi,
    dump_algebra,
    load_algebra,
    subalgebra,
    wt_add,
)


def B(alg, label):
    return alg.by_label(label)


def terms(alg, d):
    return {alg.label(k): v for k, v in d.items()}


def test_sl2_basic_brackets(sl2):
    assert terms(sl2, sl2.bracket_ids(B(sl2, "1⊗e"), B(sl2, "1⊗f"))) == {"1⊗h": 1}
    assert terms(sl2, sl2.bracket_ids(B(sl2, "1⊗h"), B(sl2, "1⊗e"))) == {"1⊗e": 2}
    assert terms(sl2, sl2.bracket_ids(B(sl2, "1⊗h"), B(sl2, "1⊗f"))) == {"1⊗f": -2}


def test_sl2_cocycle_term(sl2):
    # [z e, z^-1 f] = h + <e,f> K at m = 1
    got = terms(sl2, sl2.bracket_ids(B(sl2, "z⊗e"), B(sl2, "z^-1⊗f")))
    assert got == {"1⊗h": 1, "K": 1}
    # [z^2 h, z^-2 h] = 2 <h,h> K = 4K
    got2 = terms(sl2, sl2.bracket_ids(B(sl2, "z^2⊗h"), B(sl2, "z^-2⊗h")))
    assert got2 == {"K": 4}


def test_derivation_acts_by_z_exponent(sl2):
    got = terms(sl2, sl2.bracket_ids(B(sl2, "d"), B(sl2, "z^2⊗f")))
    assert got == {"z^2⊗f": 2}
    assert sl2.bracket_ids(B(sl2, "d"), B(sl2, "K")) == {}


def test_degree_zero_part(sl2):
    assert [sl2.label(e) for e in sl2.elements_of_degree(0)] == ["1⊗h", "K", "d"]


def test_graded_dimensions_match_hand_count(sl2):
    # from the degree formulas: two elements per odd degree, one per even
    # nonzero degree, three at degree zero
    for n in range(-6, 7):
        dim = len(sl2.elements_of_degree(n))
        if n == 0:
            assert dim == 3
        elif n % 2:
            assert dim == 2
        else:
            assert dim == 1


def test_gplus_contains_zf(sl2):
    gplus, gminus = subalgebra(sl2, "gplus"), subalgebra(sl2, "gminus")
    assert gplus.is_member(B(sl2, "z⊗f"))
    assert sl2.degree(B(sl2, "z⊗f")) == 1
    assert gminus.is_member(B(sl2, "1⊗f"))
    assert gminus.is_member(B(sl2, "K"))


def test_splitting_closure(sl2):
    gplus, gminus = subalgebra(sl2, "gplus"), subalgebra(sl2, "gminus")
    for view in (gplus, gminus):
        for i in view.elements_in_degrees(-3, 3):
            for j in view.elements_in_degrees(-3, 3):
                if sl2.in_window(sl2.degree(i) + sl2.degree(j)):
                    view.bracket_ids(i, j)  # raises on closure failure


def test_jacobi_affine_sl2(sl2):
    report = check_jacobi(sl2, -6, 6)
    assert report.passed
    assert report.checked > 500


def test_jacobi_abelian(abelian):
    assert check_jacobi(abelian, -5, 5).passed


def test_jacobi_perturbed_fails_and_names_triple():
    g0 = build_affine_sl2()
    g0.ensure_window(-4, 4)
    base = dump_algebra(g0, basis_window=(-4, 4))
    # corrupt one structure constant by +1
    base["brackets"][0]["terms"][0]["num"] += 1
    bad = load_algebra(base)
    report = check_jacobi(bad, -4, 4)
    assert not report.passed
    assert len(report.failures) >= 1
    assert all(len(t) == 3 for t in report.failures)


def _a_reference_label(d):
    """The one member of a in degree d: z^n⊗f (deg 2n-1) or z^n⊗h (deg 2n, n >= 1)."""
    if d % 2:
        n, x = (d + 1) // 2, "f"
    elif d >= 2:
        n, x = d // 2, "h"
    else:
        return None
    return {0: f"1⊗{x}", 1: f"z⊗{x}"}.get(n, f"z^{n}⊗{x}")


def test_a_brackets_match_the_loop_rule():
    """The view a against its bracket rule written out by hand over degrees -9..9:
    [z^m⊗h, z^n⊗f] = -2 z^(m+n)⊗f, and every other bracket of members is 0."""
    a = load_algebra("subalgebra_a")
    a.ensure_window(-9, 9)
    assert a.name == "affine_sl2:a"
    for d in range(-9, 10):
        want = _a_reference_label(d)
        assert [a.label(e) for e in a.elements_of_degree(d)] == ([want] if want else [])
    members = a.elements_in_degrees(-9, 9)
    checked = 0
    for i in members:
        for j in members:
            if not -9 <= a.degree(i) + a.degree(j) <= 9:
                continue
            (xi, m), (xj, n) = a.weight(i), a.weight(j)
            if (xi, xj) == (0, -1):
                want = {(-1, m + n): -2}
            elif (xi, xj) == (-1, 0):
                want = {(-1, m + n): 2}
            else:
                want = {}
            assert {a.weight(k): v for k, v in a.bracket_ids(i, j).items()} == want, (a.label(i), a.label(j))
            checked += bool(want)
    assert checked


def test_each_load_of_a_has_a_fresh_parent():
    a1, a2 = load_algebra("subalgebra_a"), load_algebra("subalgebra_a")
    assert a1.parent is not a2.parent
    assert universal_semijective(a1, 4).weights == universal_semijective(a2, 4).weights


def test_a_caches_no_degree_outside_its_window():
    a = load_algebra("subalgebra_a")
    with pytest.raises(WindowError):
        a.elements_of_degree(5)
    a.ensure_window(-5, 5)
    assert [a.label(e) for e in a.elements_of_degree(5)] == ["z^3⊗f"]


def test_a_degree_zero_is_empty(loop_a):
    assert loop_a.elements_of_degree(0) == []


def test_a_bracket(loop_a):
    got = terms(loop_a, loop_a.bracket_ids(B(loop_a, "z⊗h"), B(loop_a, "1⊗f")))
    assert got == {"z⊗f": -2}


def test_abar_plus_is_nonneg_loop_e(sl2):
    abar = subalgebra(sl2, "abar")
    plus = [e for e in abar.elements_in_degrees(1, 7)]
    labels = {sl2.label(e) for e in plus}
    assert labels == {"1⊗e", "z⊗e", "z^2⊗e", "z^3⊗e"}
    assert abar.is_member(B(sl2, "K")) and abar.is_member(B(sl2, "d"))
    assert abar.is_member(B(sl2, "1⊗h")) and abar.is_member(B(sl2, "z^-1⊗h"))
    assert not abar.is_member(B(sl2, "z⊗h"))


def test_a_plus_abar_span_every_degree(sl2):
    """a and abar are disjoint and together hold each degree's basis, and abar is bracket-closed."""
    a = subalgebra(sl2, "a")
    abar = subalgebra(sl2, "abar")
    for d in range(-8, 9):
        basis = sl2.elements_of_degree(d)
        in_a, in_abar = set(a.elements_of_degree(d)), set(abar.elements_of_degree(d))
        assert not in_a & in_abar
        assert in_a | in_abar == set(basis)
    check_closure(abar, -8, 8)


def test_g_below_zero_abelian(abelian):
    below = subalgebra(abelian, "g_below_zero")
    labels = [abelian.label(e) for e in below.elements_in_degrees(-3, -1)]
    assert labels == ["x_-3", "x_-2", "x_-1"]


def test_abelian_brackets_vanish(abelian):
    x1 = abelian.by_label("x_1")
    xm1 = abelian.by_label("x_-1")
    assert abelian.bracket_ids(x1, xm1) == {}
    gminus = subalgebra(abelian, "gminus")
    members = [abelian.label(e) for e in gminus.elements_in_degrees(-2, 0)]
    assert members == ["x_-2", "x_-1"]  # no degree-0 part


def test_beta_values(sl2, loop_a, abelian):
    assert sl2.beta_items() == {
        "1⊗h": Fraction(2),
        "K": Fraction(4),
        "d": Fraction(1),
    }
    assert loop_a.beta_items() == {}
    assert abelian.beta_items() == {}


def test_beta_vanishes_off_degree_zero(sl2):
    for e in sl2.elements_in_degrees(-5, 5):
        if sl2.degree(e) != 0:
            assert sl2.beta_value(e) == 0


def test_bracket_outside_window_raises():
    g = build_affine_sl2()  # small initial window
    g.ensure_window(-3, 3)
    with pytest.raises(WindowError):
        g.bracket_ids(g.by_label("z⊗e"), g.by_label("z⊗h"))  # degree 5


def test_weight_additivity(sl2):
    elems = sl2.elements_in_degrees(-4, 4)
    for i in elems:
        for j in elems:
            if not sl2.in_window(sl2.degree(i) + sl2.degree(j)):
                continue
            target = wt_add(sl2.weight(i), sl2.weight(j))
            for k in sl2.bracket_ids(i, j):
                assert sl2.weight(k) == target


@settings(max_examples=60, deadline=None)
@given(st.integers(-4, 4), st.integers(-4, 4))
def test_antisymmetry_property(i_deg, j_deg):
    g = _session_sl2()
    if not (g.in_window(i_deg) and g.in_window(j_deg) and g.in_window(i_deg + j_deg)):
        return
    for i in g.elements_of_degree(i_deg):
        for j in g.elements_of_degree(j_deg):
            lhs = g.bracket_ids(i, j)
            rhs = {k: -v for k, v in g.bracket_ids(j, i).items()}
            assert lhs == rhs


_CACHED = {}


def _session_sl2():
    if "g" not in _CACHED:
        g = build_affine_sl2()
        g.ensure_window(-10, 10)
        _CACHED["g"] = g
    return _CACHED["g"]


def test_linear_combination_bracket(sl2):
    e, f, h = B(sl2, "1⊗e"), B(sl2, "1⊗f"), B(sl2, "1⊗h")
    x = {e: Fraction(2), h: Fraction(1)}
    y = {f: Fraction(1)}
    got = terms(sl2, bracket(sl2, x, y))
    assert got == {"1⊗h": 2, "1⊗f": -2}


def test_json_round_trip(tmp_path):
    g = build_affine_sl2()
    g.ensure_window(-4, 4)
    data = dump_algebra(g, basis_window=(-4, 4))
    path = tmp_path / "sl2.json"
    path.write_text(json.dumps(data))
    g2 = load_algebra(str(path))
    assert check_jacobi(g2, -4, 4).passed
    e = g2.by_label("1⊗e")
    f = g2.by_label("1⊗f")
    assert {g2.label(k): v for k, v in g2.bracket_ids(e, f).items()} == {"1⊗h": 1}
    assert g2.beta_items() == g.beta_items()


def _two_element_algebra(bracket=None, term=None, weight=None):
    """The rank-2 algebra [y, x] = x, with entries of the bracket, its term
    or the weight of x overridden."""
    return {
        "grading": {"rank": 2, "degree_functional": [1, 1]},
        "basis": [
            {"label": "x", "weight": weight or [1, 0], "index": 0},
            {"label": "y", "weight": [0, 0], "index": 0},
        ],
        "brackets": [{"i": 1, "j": 0, "terms": [{"k": 0, "num": 1, **(term or {})}], **(bracket or {})}],
    }


def test_malformed_file_raises(tmp_path):
    load_algebra(_two_element_algebra())  # the unmodified table is well formed
    bad = [
        {"grading": {"rank": 1}},
        _two_element_algebra(bracket={"j": 5}),
        _two_element_algebra(bracket={"i": -1}),
        _two_element_algebra(term={"k": 2}),
        _two_element_algebra(term={"den": 0}),
        _two_element_algebra(weight=[1]),
    ]
    for k, data in enumerate(bad):
        path = tmp_path / f"bad{k}.json"
        path.write_text(json.dumps(data))
        with pytest.raises(AlgebraError):
            load_algebra(str(path))


def test_a_name_that_is_no_builtin_and_no_file_lists_the_builtins(tmp_path, monkeypatch):
    """A mistyped built-in is named as such, not reported as a missing file."""
    monkeypatch.chdir(tmp_path)
    why = "'affine-sl2' is neither a built-in algebra (affine_sl2, abelian, subalgebra_a) nor an algebra file"
    with pytest.raises(AlgebraError, match=re.escape(why)):
        load_algebra("affine-sl2")


@pytest.mark.parametrize("case", sorted(MALFORMED_TOYS))
def test_malformed_basis_or_brackets_are_named(case):
    load_algebra(sl2_toy())  # the unmodified table is well formed
    data, why = MALFORMED_TOYS[case]
    with pytest.raises(AlgebraError, match=re.escape(why)):
        load_algebra(data)


def test_unknown_selector(sl2, abelian):
    with pytest.raises(AlgebraError):
        subalgebra(sl2, "nope")
    with pytest.raises(AlgebraError):
        subalgebra(abelian, "a")  # requires the affine constructor


def test_non_closed_custom_rejected(sl2):
    with pytest.raises(AlgebraError):
        subalgebra(sl2, "custom", custom=[sl2.by_label("1⊗e"), sl2.by_label("1⊗f")])
