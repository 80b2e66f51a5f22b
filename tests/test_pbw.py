"""Straightening, confluence against an independent straightener, duals."""

import random
from fractions import Fraction
from itertools import product

import pytest

from semiflex.liealg import SubalgebraSpec, WindowError, build_affine_sl2, load_algebra, subalgebra
from semiflex.pbw import (
    EMPTY,
    InfiniteEnumerationError,
    Order,
    canonical_order,
    compress,
    descending_order,
    dual_pair,
    enumerate_pbw_weights,
    flatten,
    monomial_label,
    multiply,
    normal_order_word,
)


def labelled(alg, terms):
    return {monomial_label(alg, m): c for m, c in terms.items()}


def slow_straighten(alg, word, order):
    """Independent rewriting: rightmost out-of-order pair first."""
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
    swapped = word[:i] + (word[i + 1], word[i]) + word[i + 2 :]
    for m, c in slow_straighten(alg, swapped, order).items():
        out[m] = out.get(m, 0) + c
    for k, cf in alg.bracket_ids(word[i], word[i + 1]).items():
        for m, c in slow_straighten(alg, word[:i] + (k,) + word[i + 2 :], order).items():
            out[m] = out.get(m, 0) + cf * c
    return {m: c for m, c in out.items() if c}


def test_straightening_examples_descending(sl2):
    f, e = sl2.by_label("1⊗f"), sl2.by_label("1⊗e")
    dso = descending_order(sl2)
    got = labelled(sl2, normal_order_word(sl2, (f, e), dso))
    assert got == {"1⊗e·1⊗f": 1, "1⊗h": -1}
    zmf, ze = sl2.by_label("z^-1⊗f"), sl2.by_label("z⊗e")
    got2 = labelled(sl2, normal_order_word(sl2, (zmf, ze), dso))
    assert got2 == {"z⊗e·z^-1⊗f": 1, "1⊗h": -1, "K": -1}


@pytest.mark.parametrize("first", [0, 1], ids=["key first", "opposite first"])
def test_orders_over_one_algebra_keep_their_own_products(first):
    """Two orders over one algebra, with opposite keys, each straighten
    f·e to their own PBW form, whichever straightens first: the product
    memo belongs to the order."""
    alg = build_affine_sl2()
    f, e, h = (alg.by_label(x) for x in ("1⊗f", "1⊗e", "1⊗h"))

    def opposite(x):
        d, w, i = alg.key(x)
        return (-d, tuple(-c for c in w), -i)

    # the algebra's key has f < e, the opposite one e < f
    orders = [Order(alg.key), Order(opposite)]
    want = [{((f, 1), (e, 1)): 1}, {((e, 1), (f, 1)): 1, ((h, 1),): -1}]
    for i in (first, 1 - first):
        assert normal_order_word(alg, (f, e), orders[i]) == want[i]
        assert multiply(alg, {((f, 1),): 1}, {((e, 1),): 1}, orders[i]) == want[i]


def test_already_ordered_word_is_monomial(sl2):
    e = sl2.by_label("1⊗e")
    assert normal_order_word(sl2, (e, e), canonical_order(sl2)) == {((e, 2),): Fraction(1)}


def test_idempotent_on_pbw_input(sl2):
    f, e, h = (sl2.by_label(x) for x in ("1⊗f", "1⊗e", "1⊗h"))
    out = normal_order_word(sl2, (e, h, f), canonical_order(sl2))
    for mon in out:
        again = normal_order_word(sl2, flatten(mon), canonical_order(sl2))
        assert again == {mon: Fraction(1)}


def test_confluence_against_independent_strategy(sl2):
    rng = random.Random(99)
    order = canonical_order(sl2)
    elems = sl2.elements_in_degrees(-4, 4)
    for _ in range(200):
        word = tuple(rng.choice(elems) for _ in range(rng.randint(1, 5)))
        if not sl2.in_window(sum(sl2.degree(x) for x in word)):
            continue
        fast = normal_order_word(sl2, word, order)
        slow = slow_straighten(sl2, word, order)
        assert fast == slow


def _reversed_loop_word(hi):
    """The word z^60⊗h ··· z^2⊗h z⊗h, every pair out of canonical order, on
    affine sl2 materialized in degrees [-2, hi]."""
    alg = build_affine_sl2()
    alg.ensure_window(-2, hi)
    hs = [alg.by_label("z⊗h" if k == 1 else f"z^{k}⊗h") for k in range(1, 61)]
    return alg, tuple(reversed(hs))


def test_a_long_reversed_word_straightens():
    """1770 out-of-order pairs: the recursion is one frame per letter deep,
    so the word straightens, and its memo is keyed by (basis id, monomial)."""
    alg, word = _reversed_loop_word(250)
    order = canonical_order(alg)
    got = normal_order_word(alg, word, order)
    assert got == {tuple((e, 1) for e in reversed(word)): 1}
    memo = order.memo
    assert memo
    for key in memo:
        eid, mon = key
        assert isinstance(eid, int) and isinstance(mon, tuple)
        assert all(isinstance(f, int) and k >= 1 for f, k in mon)


def test_a_long_word_outside_the_window_is_a_window_error():
    alg, word = _reversed_loop_word(130)
    with pytest.raises(WindowError, match="outside window"):
        normal_order_word(alg, word, canonical_order(alg))


def test_confluence_permutations_agree_after_straightening(sl2):
    # straightening a word and any transposition-related word differ by
    # explicitly computable bracket terms; spot check full consistency by
    # multiplying in two different associations
    e, h, f = (sl2.by_label(x) for x in ("1⊗e", "1⊗h", "1⊗f"))
    a = normal_order_word(sl2, (e,), canonical_order(sl2))
    b = normal_order_word(sl2, (h,), canonical_order(sl2))
    c = normal_order_word(sl2, (f,), canonical_order(sl2))
    left = multiply(sl2, multiply(sl2, a, b), c)
    right = multiply(sl2, a, multiply(sl2, b, c))
    assert left == right


def test_multiply_unit_and_associativity_random(sl2):
    rng = random.Random(4242)
    order = descending_order(sl2)
    elems = sl2.elements_in_degrees(-3, 3)
    one = {EMPTY: 1}
    for _ in range(40):
        xs = [rng.choice(elems) for _ in range(3)]
        if not all(sl2.in_window(sum(sl2.degree(x) for x in xs[:k])) for k in (1, 2, 3)):
            continue
        a, b, c = (normal_order_word(sl2, (x,), order) for x in xs)
        assert multiply(sl2, a, one, order) == a
        lhs = multiply(sl2, multiply(sl2, a, b, order), c, order)
        rhs = multiply(sl2, a, multiply(sl2, b, c, order), order)
        assert lhs == rhs


def test_weight_additivity_of_products(sl2):
    from semiflex.pbw import monomial_weight

    e, zf = sl2.by_label("1⊗e"), sl2.by_label("z⊗f")
    prod = multiply(sl2, normal_order_word(sl2, (e,), canonical_order(sl2)), normal_order_word(sl2, (zf,), canonical_order(sl2)))
    want = tuple(a + b for a, b in zip(sl2.weight(e), sl2.weight(zf)))
    for mon in prod:
        assert monomial_weight(sl2, mon) == want


def test_enumerate_pbw_aminus(sl2):
    a = subalgebra(sl2, "a")
    aminus = subalgebra(sl2, "custom", custom=[e for e in sl2.elements_in_degrees(-9, -1) if a.is_member(e)])
    table = enumerate_pbw_weights(aminus, 4)  # ell(-2, -1) = -4
    assert [monomial_label(sl2, m) for m in table[(-2, -1)]] == ["z^-1⊗f·1⊗f"]
    assert table[(0, 0)] == [EMPTY]
    assert [monomial_label(sl2, m) for m in table[(-1, -1)]] == ["z^-1⊗f"]
    assert (1, 0) not in table


def test_enumeration_counts_match_generating_function(sl2):
    a = subalgebra(sl2, "a")
    aminus = subalgebra(sl2, "custom", custom=[e for e in sl2.elements_in_degrees(-11, -1) if a.is_member(e)])
    depth = 5
    table = enumerate_pbw_weights(aminus, depth)
    # independent truncated product expansion of prod 1/(1 - e^{w}) over the
    # generator weights
    poly = {(0, 0): 1}
    for e in sorted(aminus.elements_in_degrees(-depth, -1)):
        w = sl2.weight(e)
        out = {}
        for base, c in poly.items():
            k = 0
            cur = base
            while abs(sl2.ell(cur)) <= depth:
                out[cur] = out.get(cur, 0) + c
                k += 1
                cur = tuple(a_ + b_ for a_, b_ in zip(cur, w))
            # loop adds e^{k w} for all k with |ell| within depth
        poly = out
    got = {w: len(ms) for w, ms in table.items()}
    want = {w: c for w, c in poly.items() if abs(sl2.ell(w)) <= depth and c}
    assert got == want


def test_mixed_grading_rejected(sl2):
    with pytest.raises(InfiniteEnumerationError):
        enumerate_pbw_weights(subalgebra(sl2, "a"), 0)


def test_degree_zero_tower_rejected(sl2):
    gminus = subalgebra(sl2, "gminus")
    for depth in (0, 1, 2):
        with pytest.raises(InfiniteEnumerationError):
            enumerate_pbw_weights(gminus, depth)
    # without degree 0 the negative part enumerates, and nothing on the positive side
    assert (1, 0) not in enumerate_pbw_weights(subalgebra(sl2, "g_below_zero"), 2)


def target_weight_pbw(sub, weight, order):
    """Independent enumeration: spend the remaining weight factor by factor,
    with no weight table, listed in the order's key order."""
    ell = sub.ell(weight)
    elems = sorted(sub.elements_in_degrees(1, ell) if ell > 0 else sub.elements_in_degrees(ell, -1), key=order.key)
    out = []

    def rec(idx, acc, remaining):
        rell = sub.ell(remaining)
        if rell == 0:
            if all(x == 0 for x in remaining):
                out.append(tuple(acc))
            return
        if idx >= len(elems) or (rell > 0) != (ell > 0):
            return
        e = elems[idx]
        d = sub.degree(e)
        we = sub.weight(e)
        for exp in range(rell // d + 1):
            if exp:
                acc.append((e, exp))
            rec(idx + 1, acc, tuple(a - exp * b for a, b in zip(remaining, we)))
            if exp:
                acc.pop()

    rec(0, [], tuple(weight))
    return sorted(out, key=lambda m: tuple((order.key(e), k) for e, k in m))


@pytest.mark.parametrize("which", ["aminus", "gplus of a"])
def test_enumerate_pbw_matches_target_weight_recursion(sl2, which):
    if which == "aminus":
        a = subalgebra(sl2, "a")
        sub = SubalgebraSpec(sl2, "aminus", lambda e: a.is_member(e) and sl2.degree(e) <= 0)
        alg = sl2
    else:
        alg = load_algebra("subalgebra_a")
        sub = subalgebra(alg, "gplus")
    alg.ensure_window(-14, 14)
    depth = 6
    for order in (canonical_order(alg), descending_order(alg)):
        table = enumerate_pbw_weights(sub, depth, order)
        nonempty = 0
        for weight in product(range(-depth, depth + 1), repeat=alg.rank):
            ell = alg.ell(weight)
            if not ell or abs(ell) > depth:
                continue
            got = table.get(weight, [])
            assert got == target_weight_pbw(sub, weight, order), weight
            nonempty += bool(got)
        assert nonempty > 10


def test_dual_pairing(sl2):
    a = subalgebra(sl2, "a")
    aminus = subalgebra(sl2, "custom", custom=[e for e in sl2.elements_in_degrees(-9, -1) if a.is_member(e)])
    mons = enumerate_pbw_weights(aminus, 3)
    all_mons = [m for ms in mons.values() for m in ms]
    m0 = all_mons[1]
    phi = {m0: Fraction(1)}
    for m in all_mons:
        u = {m: Fraction(1)}
        assert dual_pair(phi, u) == (1 if m == m0 else 0)
    m1 = all_mons[2]
    u = {m0: Fraction(2), m1: Fraction(3)}
    assert dual_pair(phi, u) == 2
