"""Acceptance suite: every criterion at its stated depth, exact arithmetic.

Each test prints one PASS line (visible with -s / -rA); failures carry the
offending cells.  No tolerances anywhere: every comparison is exact equality
of integers or rationals.
"""

import random
import time
from fractions import Fraction

import pytest

from semiflex.forms import SemiInfComplex, semiinf_cohomology
from semiflex.induction import (
    check_shapiro,
    check_universal_property,
    check_us,
    s_ind,
    universal_semijective,
    wakimoto,
)
from semiflex.liealg import (
    build_affine_sl2,
    check_jacobi,
    load_algebra,
    subalgebra,
)
from semiflex.modules import (
    ce_cohomology,
    ce_homology,
    character,
    character_module,
    check_commutators,
    coverma,
    product_formula_character,
    verma,
)
from semiflex.pbw import canonical_order, compress, descending_order, multiply, normal_order_word

LAM = {"1⊗h": Fraction(0), "K": Fraction(1), "d": Fraction(0)}


@pytest.fixture(scope="module")
def g():
    alg = build_affine_sl2()
    alg.ensure_window(-16, 16)
    return alg


@pytest.fixture(scope="module")
def a_alg():
    alg = load_algebra("subalgebra_a")
    alg.ensure_window(-14, 14)
    return alg


def test_criterion_1_character_triple_identity(g):
    start = time.time()
    depth = 6
    chv = character(verma(g, LAM, depth))
    chvs = character(coverma(g, LAM, depth))
    chw = character(wakimoto(g, LAM, depth))
    pf = product_formula_character(g, depth)
    assert chv == chvs == chw == pf
    assert pf.coefficient((0, 0)) == 1
    assert pf.coefficient((0, -1)) == 2
    assert pf.coefficient((-1, -1)) == 3
    took = time.time() - start
    assert took < 120
    print(f"PASS criterion 1: ch V = ch V* = ch W = product formula, depth 6, spot values 1/2/3 ({took:.1f}s)")


def test_criterion_2_anomaly_cancellation(g, a_alg):
    start = time.time()
    depth = 4
    W = wakimoto(g, LAM, depth)
    a_view = subalgebra(g, "a")
    us = universal_semijective(a_alg, depth).left
    cells = 0
    for alg, module in ((a_view, W), (a_alg, us)):
        weights = {w for w in module.weights if alg.ell(w) >= -depth}
        from semiflex.forms import _active_weights

        for w in sorted(_active_weights(alg, module, depth)):
            cx = SemiInfComplex(alg, module, w)
            ns = cx.ghost_range()
            if not ns:
                continue
            for n in range(min(ns) - 1, max(ns)):
                comp = cx.matrix(n + 1).matmul(cx.matrix(n))
                assert comp.nnz == 0, (module.name, w, n)
                cells += 1
    took = time.time() - start
    assert took < 300
    print(f"PASS criterion 2: d∘d = 0 on {cells} cells for (a, W) and (a, US(a)⊗C), depth 4 ({took:.1f}s)")


def test_criterion_3_wakimoto_cohomology(g):
    start = time.time()
    depth = 4
    W = wakimoto(g, LAM, depth)
    table = semiinf_cohomology(subalgebra(g, "a"), W, depth)
    assert table.nonzero() == [((0, 0), 0, 1)]
    assert table.euler_consistent()
    took = time.time() - start
    assert took < 600
    print(f"PASS criterion 3: H(a, W) = C at (weight λ, ghost 0) only, depth 4 ({took:.1f}s)")


def test_criterion_4_shapiro(a_alg):
    start = time.time()
    depth = 3
    h = subalgebra(a_alg, "loop-nminus")
    M = character_module(a_alg, {}, depth)
    verdict, th, tg = check_shapiro(a_alg, h, M, depth)
    assert verdict.passed, verdict.details
    assert th.nonzero() == tg.nonzero()
    took = time.time() - start
    assert took < 600
    print(f"PASS criterion 4: Shapiro per-cell equality on {len(th.nonzero())} nonzero cells, depth 3 ({took:.1f}s)")


def test_criterion_5_cohomological_characterizations(g):
    start = time.time()
    depth = 4
    Vs = coverma(g, LAM, depth)
    t_up = ce_cohomology(subalgebra(g, "gplus"), Vs, depth)
    assert t_up.nonzero() == [((0, 0), 0, 1)]
    assert all(t_up.dim(w, i) == (1 if (w, i) == ((0, 0), 0) else 0) for (w, i) in t_up.cells if i <= 2)
    V = verma(g, LAM, depth)
    t_down = ce_homology(subalgebra(g, "g_below_zero"), V, depth)
    assert t_down.nonzero() == [((0, 0), 0, 1)]
    took = time.time() - start
    assert took < 600
    print(f"PASS criterion 5: H^i(g+, V*) and H_i(g<0, V) concentrated at (λ, 0), i ≤ 2, depth 4 ({took:.1f}s)")


def test_criterion_6_us_structure(a_alg):
    start = time.time()
    depth = 3
    v_iso, v_iso1 = check_us(a_alg, depth)
    assert v_iso.passed, v_iso.details
    assert v_iso1.passed, v_iso1.details
    us = universal_semijective(a_alg, depth)
    assert check_commutators(us.left, (-3, 3), b=us.right) == []
    neg = load_algebra(
        {
            "name": "negheis",
            "grading": {"rank": 2, "degree_functional": [1, 1]},
            "basis": [
                {"label": "a", "weight": [-1, 0], "index": 0},
                {"label": "b", "weight": [0, -1], "index": 0},
                {"label": "c", "weight": [-1, -1], "index": 0},
            ],
            "brackets": [{"i": 0, "j": 1, "terms": [{"k": 2, "num": 1}]}],
            "beta": [],
        }
    )
    pos = load_algebra(
        {
            "name": "posheis",
            "grading": {"rank": 2, "degree_functional": [1, 1]},
            "basis": [
                {"label": "x", "weight": [1, 0], "index": 0},
                {"label": "y", "weight": [0, 1], "index": 0},
                {"label": "z", "weight": [1, 1], "index": 0},
            ],
            "brackets": [{"i": 0, "j": 1, "terms": [{"k": 2, "num": 1}]}],
            "beta": [],
        }
    )
    from semiflex.pbw import enumerate_pbw_weights

    us_neg = universal_semijective(neg, depth)
    tab = enumerate_pbw_weights(subalgebra(neg, "gminus"), depth)
    assert {w: len(b) for w, b in us_neg.weights.items()} == {w: len(m) for w, m in tab.items()}
    us_pos = universal_semijective(pos, depth)
    tab2 = enumerate_pbw_weights(subalgebra(pos, "gplus"), depth)
    assert {w: len(b) for w, b in us_pos.weights.items()} == {
        tuple(-x for x in w): len(m) for w, m in tab2.items()
    }
    h_neg = subalgebra(neg, "custom", custom=[neg.by_label("b"), neg.by_label("c")])
    s_neg = s_ind(neg, h_neg, character_module(neg, {}, depth), depth)
    assert {w: s_neg.dim(w) for w in s_neg.weights} == {(0, 0): 1, (-1, 0): 1, (-2, 0): 1, (-3, 0): 1}
    assert check_commutators(s_neg, (-3, -1)) == []
    h_pos = subalgebra(pos, "custom", custom=[pos.by_label("y"), pos.by_label("z")])
    s_pos = s_ind(pos, h_pos, character_module(pos, {}, depth), depth)
    assert {w: s_pos.dim(w) for w in s_pos.weights} == {(0, 0): 1, (-1, 0): 1, (-2, 0): 1, (-3, 0): 1}
    assert check_commutators(s_pos, (1, 3)) == []
    took = time.time() - start
    assert took < 300
    print(f"PASS criterion 6: US models, bimodule commutation, Ind/Coind degenerations ({took:.1f}s)")


def test_criterion_7_universal_property(a_alg):
    start = time.time()
    depth = 3
    v1 = check_universal_property(a_alg, character_module(a_alg, {}, depth), depth)
    assert v1.passed, v1.details
    N = verma(a_alg, {}, depth)
    v2 = check_universal_property(a_alg, N, depth)
    assert v2.passed, v2.details
    took = time.time() - start
    assert took < 300
    print(f"PASS criterion 7: N ⊗ US semi-invariants reproduce N (trivial and induced N) ({took:.1f}s)")


def test_criterion_8_infrastructure(g, a_alg):
    start = time.time()
    rng = random.Random(123457)
    order_c = canonical_order(g)
    order_d = descending_order(g)
    elems = g.elements_in_degrees(-4, 4)

    def slow(word, order):
        word = tuple(word)
        key = order.key
        bad = -1
        for i in range(len(word) - 2, -1, -1):
            if key(word[i]) > key(word[i + 1]):
                bad = i
                break
        if bad < 0:
            return {compress(word): Fraction(1)}
        i = bad
        out = {}
        for m, c in slow(word[:i] + (word[i + 1], word[i]) + word[i + 2 :], order).items():
            out[m] = out.get(m, 0) + c
        for k, cf in g.bracket_ids(word[i], word[i + 1]).items():
            for m, c in slow(word[:i] + (k,) + word[i + 2 :], order).items():
                out[m] = out.get(m, 0) + cf * c
        return {m: c for m, c in out.items() if c}

    confluence_cases = 0
    assoc_cases = 0
    while confluence_cases < 700:
        word = tuple(rng.choice(elems) for _ in range(rng.randint(1, 5)))
        if not g.in_window(sum(g.degree(x) for x in word)):
            continue
        order = order_c if confluence_cases % 2 else order_d
        assert normal_order_word(g, word, order) == slow(word, order)
        confluence_cases += 1
    while assoc_cases < 300:
        xs = [rng.choice(elems) for _ in range(3)]
        parts = (
            normal_order_word(g, (xs[0],), order_d),
            normal_order_word(g, (xs[1],), order_d),
            normal_order_word(g, (xs[2],), order_d),
        )
        lhs = multiply(g, multiply(g, parts[0], parts[1], order_d), parts[2], order_d)
        rhs = multiply(g, parts[0], multiply(g, parts[1], parts[2], order_d), order_d)
        assert lhs == rhs
        assert multiply(g, parts[0], {(): 1}, order_d) == parts[0]
        assoc_cases += 1
    assert confluence_cases + assoc_cases >= 1000

    # commutator oracle on every constructed module weight space
    for module, window in (
        (verma(g, LAM, 3), (-3, 3)),
        (coverma(g, LAM, 3), (-3, 3)),
        (wakimoto(g, LAM, 3), (-3, 3)),
        (universal_semijective(a_alg, 3).left, (-3, 3)),
    ):
        assert check_commutators(module, window) == [], module.name

    # Euler consistency on every produced table
    tables = [
        semiinf_cohomology(a_alg, universal_semijective(a_alg, 3).left, 3),
        ce_cohomology(subalgebra(g, "gplus"), coverma(g, LAM, 3), 3),
        ce_homology(subalgebra(g, "g_below_zero"), verma(g, LAM, 3), 3),
    ]
    assert all(t.euler_consistent() for t in tables)

    # Jacobi on all shipped algebras in [-6, 6]
    for alg in (g, a_alg, load_algebra("abelian")):
        report = check_jacobi(alg, -6, 6)
        assert report.passed, (alg.name, report.failures[:3])

    took = time.time() - start
    print(
        f"PASS criterion 8: {confluence_cases} confluence + {assoc_cases} associativity cases, "
        f"oracles, Euler, Jacobi ({took:.1f}s)"
    )
