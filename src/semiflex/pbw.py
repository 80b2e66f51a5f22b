"""Universal enveloping algebra arithmetic: PBW monomials and products.

A monomial is a tuple of (basis id, exponent) pairs, strictly increasing in
the chosen total order on basis elements; an enveloping element is a sparse
{monomial: coefficient} map, each coefficient an int where it is integral and
a Fraction otherwise (integral structure constants keep every straightened
coefficient an int).  Every product is one recursion, ``induced_action``,
on the PBW basis vectors of an induced module.  U(g) is induced from the
zero subalgebra, so ``multiplier`` gives e·mon in U(g), memoized per
order, and a word straightens as a right-to-left fold of it;
the Verma-type modules of ``modules`` run it with a character.  A
character with denominators is cleared once: the recursion runs on q
times its values, q the lcm of their denominators, and then returns q
times the true result for every element outside the free part.  That is
exact because the free part is closed under brackets (the strictly
negative part for a Verma module, the strictly positive part for a
contragredient one), so only a bracket from outside the free part into it
needs the factor q; with q = 1 (an integral character, U(g) itself) the
recursion is the plain one.  The PBW form is unique, which the tests
check against two straighteners that rewrite whole words.

Orders: the canonical order (degree, weight, index) from the algebra and
its reverse (positive part first); any Order(key) works, as the block
order of induction's pair spaces does.  An order caches its key per basis
id and keeps the product memo of ``multiplier``: two orders never share
products, whatever their keys.

``monomials_by_weight`` is the one monomial enumerator (PBW monomials, and
wedges with exponents capped at 1).  It walks the elements in the order's
key order, so each weight's list comes out in that order, whatever the
algebra materialized before; ``enumerate_pbw_weights`` returns it as it is.
Two monomial operations serve the pair spaces of semi-induction: ``split``
cuts a straightened monomial at a block boundary of the order, and
``evaluate`` applies a character to the part split off.
"""

from __future__ import annotations

from .liealg import wt_zero

EMPTY = ()


class InfiniteEnumerationError(Exception):
    """The requested PBW enumeration is not finite."""


class _KeyCache(dict):
    """{basis id: sort key}, filled on first lookup."""

    def __init__(self, key):
        self._key = key

    def __missing__(self, eid):
        k = self[eid] = self._key(eid)
        return k


class Order:
    """Total order on the basis elements of one algebra: its sort key, and
    the memo of products straightened in it."""

    def __init__(self, key):
        self.key = _KeyCache(key).__getitem__
        self.memo: dict = {}


def canonical_order(alg) -> Order:
    """Ascending (degree, weight, index): negative part first.

    This is the factorization order U = U(g_{<0}) U(g_0) U(g_+) behind Verma
    and contragredient Verma modules.
    """
    return Order(alg.key)


def descending_order(alg) -> Order:
    """Reversed canonical order: positive part first (U = U(g+) ⊗ U(g-)).

    In sl2 this is the classical e < h < f; it is the factorization order
    behind the semiregular module.
    """

    def key(e):
        d, w, i = alg.key(e)
        return (-d, tuple(-x for x in w), -i)

    return Order(key)


# -- monomial helpers ----------------------------------------------------------


def flatten(mon) -> tuple:
    word = []
    for eid, exp in mon:
        word.extend([eid] * exp)
    return tuple(word)


def compress(word) -> tuple:
    mon = []
    for eid in word:
        if mon and mon[-1][0] == eid:
            mon[-1] = (eid, mon[-1][1] + 1)
        else:
            mon.append((eid, 1))
    return tuple(mon)


def monomial_weight(alg, mon):
    w = wt_zero(alg.rank)
    for eid, exp in mon:
        we = alg.weight(eid)
        w = tuple(a + exp * b for a, b in zip(w, we))
    return w


def monomial_label(alg, mon) -> str:
    if not mon:
        return "1"
    return "·".join(alg.label(e) + (f"^{k}" if k > 1 else "") for e, k in mon)


def split(mon, keep) -> tuple:
    """(longest prefix of ``mon`` whose factors satisfy ``keep``, the rest)."""
    for i, (eid, _) in enumerate(mon):
        if not keep(eid):
            return mon[:i], mon[i:]
    return mon, EMPTY


def evaluate(values: dict, mon):
    """Product of values[eid] ** exp over the factors of ``mon``: 0 as soon
    as a factor has no value or a zero one."""
    out = 1
    for eid, exp in mon:
        v = values.get(eid)
        if not v:
            return 0
        out *= v**exp
    return out


def add_scaled(acc: dict, terms: dict, c) -> None:
    for m, v in terms.items():
        w = acc.get(m, 0) + c * v
        if w:
            acc[m] = w
        elif m in acc:
            del acc[m]


# -- the product recursion ----------------------------------------------------------


def induced_action(alg, free, order: Order, values: dict, sign: int, memo: dict, scale: int = 1):
    """Memoized act(e, mon) -> {mon': coeff}: the basis element ``e`` on the
    basis vector mon·v of U(g) ⊗ C_values, ``mon`` a PBW monomial of the
    free part, increasing in ``order``.

    A free e (``free`` is a predicate; None frees every element, which gives
    U(g) itself) that sorts before the first factor y is prepended, and any
    other e is commuted past y, e·(y·u) = y·(e·u) + sign·[e, y]·u (Humphreys
    2008, §1.3), down to v: e·v for a free e, values[e]·v otherwise.  Sign -1
    runs in the opposite algebra.  The recursion is one frame per factor
    deep, and ``memo`` is keyed by (e, mon).

    ``values`` may be a character cleared of its denominators: ``scale``
    times it, so that integral structure constants keep every coefficient
    an int.  Then act(e, mon) is ``scale`` times the true result for a
    non-free e and the true result for a free one, and the bracket term of
    a non-free e is multiplied by ``scale`` where [e, y] is free.  This is
    exact when the free part is closed under brackets (a free e has a free
    [e, y], since y is free): the strictly negative part of a Verma module
    and the strictly positive part of a contragredient one are.  Scale 1
    is the plain recursion.
    """
    key = order.key

    def act(e, mon):
        res = memo.get((e, mon))
        if res is not None:
            return res
        free_e = free is None or free(e)
        if not mon:
            if free_e:
                res = {((e, 1),): 1}
            else:
                v = values.get(e)
                res = {EMPTY: v} if v else {}
        else:
            y, a = mon[0]
            if free_e and key(e) <= key(y):
                res = {((e, a + 1),) + mon[1:] if e == y else ((e, 1),) + mon: 1}
            else:
                rest = ((y, a - 1),) + mon[1:] if a > 1 else mon[1:]
                res = {}
                for m, c in act(e, rest).items():
                    add_scaled(res, act(y, m), c)
                for k, c in alg.bracket_ids(e, y).items():
                    if scale != 1 and not free_e and free(k):
                        c *= scale
                    add_scaled(res, act(k, rest), sign * c)
        memo[(e, mon)] = res
        return res

    return act


def multiplier(alg, order: Order):
    """act(e, mon) = e·mon in U(g), PBW form in ``order``, memoized in
    ``order.memo``."""
    return induced_action(alg, None, order, {}, 1, order.memo)


def _fold(act, word, vec: dict) -> dict:
    """word·vec: the letters of ``word`` applied right to left."""
    for e in reversed(word):
        if len(vec) == 1:
            ((m, c),) = vec.items()
            got = act(e, m)
            vec = got if c == 1 else {k: c * v for k, v in got.items()}
        else:
            out: dict = {}
            for m, c in vec.items():
                add_scaled(out, act(e, m), c)
            vec = out
    return vec


def normal_order_word(alg, word: tuple, order: Order) -> dict:
    """Straighten a word of basis ids into PBW form: {monomial: coefficient}."""
    return _fold(multiplier(alg, order), word, {EMPTY: 1})


def multiply(alg, a: dict, b: dict, order: Order | None = None) -> dict:
    """Product in U(g) of two PBW-form elements, result in PBW form."""
    if order is None:
        order = canonical_order(alg)
    act = multiplier(alg, order)
    out: dict = {}
    for ma, ca in a.items():
        add_scaled(out, _fold(act, flatten(ma), b), ca)
    return out


# -- enumeration -------------------------------------------------------------------


def monomials_by_weight(alg, elems, budget: int, max_exp=None) -> dict:
    """{weight: [monomials]} of the products of ``elems``, in the given order,
    with total |degree| at most ``budget`` and no exponent above ``max_exp``
    (None for PBW monomials, 1 for wedges; a degree-0 element costs nothing,
    so it needs the cap).  Each list is lexicographic in the factors'
    positions in ``elems`` and then their exponents: with ``elems`` sorted by
    an order's key, that is the order's key order."""
    table: dict = {wt_zero(alg.rank): [EMPTY]}

    def rec(idx, acc, w, budget):
        if idx >= len(elems):
            return
        e = elems[idx]
        d = abs(alg.degree(e))
        top = budget // d if d else max_exp
        if max_exp is not None:
            top = min(top, max_exp)
        we = alg.weight(e)
        for exp in range(1, top + 1):
            acc.append((e, exp))
            w2 = tuple(a + exp * b for a, b in zip(w, we))
            table.setdefault(w2, []).append(tuple(acc))
            rec(idx + 1, acc, w2, budget - exp * d)
            acc.pop()
        rec(idx + 1, acc, w, budget)

    rec(0, [], wt_zero(alg.rank), budget)
    return table


def enumerate_pbw_weights(sub, depth: int, order: Order | None = None) -> dict:
    """{weight: [monomials]} for all weights with |ell| <= depth.

    For a strictly negative subalgebra this is every weight with
    -depth <= ell(weight) <= 0 (mirrored for strictly positive ones).

    Each weight's monomials come out in the order's key order, compared as
    tuples of (key, exponent) pairs.  Keys do not depend on basis ids, so a
    basis lists the same way however much of the algebra an earlier call
    materialized.
    """
    if order is None:
        order = canonical_order(sub)
    probe = max(depth, 1)
    sub.ensure_window(-probe, probe)
    degrees = [sub.degree(e) for e in sub.elements_in_degrees(-probe, probe)]
    has_pos, has_nonpos = any(d > 0 for d in degrees), any(d <= 0 for d in degrees)
    if has_pos and has_nonpos:
        raise InfiniteEnumerationError(
            f"{sub.name}: mixed positive/negative grading, PBW enumeration by weight may be infinite"
        )
    if has_nonpos and sub.elements_of_degree(0):
        e = sub.elements_of_degree(0)[0]
        raise InfiniteEnumerationError(f"{sub.name}: degree-0 element {sub.label(e)} in enumeration")
    if depth <= 0 or not (has_pos or has_nonpos):
        return {wt_zero(sub.rank): [EMPTY]}
    elems = sub.elements_in_degrees(1, depth) if has_pos else sub.elements_in_degrees(-depth, -1)
    return monomials_by_weight(sub, sorted(elems, key=order.key), depth)


# -- restricted duals ---------------------------------------------------------------


def dual_pair(phi: dict, u: dict):
    """Kronecker pairing of a restricted dual element with a PBW element."""
    total = 0
    small, big = (phi, u) if len(phi) <= len(u) else (u, phi)
    for m, c in small.items():
        v = big.get(m)
        if v:
            total += c * v
    return total
