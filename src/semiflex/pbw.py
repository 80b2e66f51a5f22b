"""Universal enveloping algebra arithmetic: PBW monomials and straightening.

A monomial is a tuple of (basis id, exponent) pairs, strictly increasing in
the chosen total order on basis elements; an enveloping element is a sparse
{monomial: coefficient} map, each coefficient an int where it is integral and
a Fraction otherwise (integral structure constants keep every straightened
coefficient an int).  Straightening rewrites the leftmost out-of-order
adjacent pair x·y -> y·x + [x,y] recursively and is memoized per (algebra,
order); by the PBW theorem the result is independent of the rewriting path,
which the tests exercise against an independent right-to-left straightener.

Orders: the canonical order (degree, weight, index) from the algebra and
its reverse (positive part first); any Order(tag, key) works, as the
Wakimoto block order in induction does.
"""

from __future__ import annotations

from .liealg import exact, wt_zero

EMPTY = ()


class InfiniteEnumerationError(Exception):
    """The requested PBW enumeration is not finite."""


class Order:
    """Total order on basis elements: sort key plus a memoization tag."""

    def __init__(self, tag: str, key):
        self.tag = tag
        self.key = key


def canonical_order(alg) -> Order:
    """Ascending (degree, weight, index): negative part first.

    This is the factorization order U = U(g_{<0}) U(g_0) U(g_+) behind Verma
    and contragredient Verma modules.
    """
    return Order("canon", alg.key)


def descending_order(alg) -> Order:
    """Reversed canonical order: positive part first (U = U(g+) ⊗ U(g-)).

    In sl2 this is the classical e < h < f; it is the factorization order
    behind the semiregular module.
    """

    def key(e):
        d, w, i = alg.key(e)
        return (-d, tuple(-x for x in w), -i)

    return Order("desc", key)


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


def _add_scaled(acc: dict, terms: dict, c) -> None:
    for m, v in terms.items():
        w = acc.get(m, 0) + c * v
        if w:
            acc[m] = w
        elif m in acc:
            del acc[m]


# -- straightening ---------------------------------------------------------------


def normal_order_word(alg, word: tuple, order: Order) -> dict:
    """Straighten a word of basis ids into PBW form: {monomial: coefficient}."""
    memo = alg._memos.setdefault(("no", order.tag), {})
    return _straighten(alg, tuple(word), order, memo)


def _straighten(alg, word, order, memo):
    cached = memo.get(word)
    if cached is not None:
        return cached
    key = order.key
    bad = -1
    for i in range(len(word) - 1):
        if key(word[i]) > key(word[i + 1]):
            bad = i
            break
    if bad < 0:
        res = {compress(word): 1}
        memo[word] = res
        return res
    i = bad
    swapped = word[:i] + (word[i + 1], word[i]) + word[i + 2 :]
    acc: dict = {}
    _add_scaled(acc, _straighten(alg, swapped, order, memo), 1)
    for k, c in alg.bracket_ids(word[i], word[i + 1]).items():
        shorter = word[:i] + (k,) + word[i + 2 :]
        _add_scaled(acc, _straighten(alg, shorter, order, memo), c)
    memo[word] = acc
    return acc


def normal_order(alg, word, order: Order | None = None) -> dict:
    """Public entry point; ``word`` is a sequence of basis ids."""
    if order is None:
        order = canonical_order(alg)
    return normal_order_word(alg, tuple(word), order)


def multiply(alg, a: dict, b: dict, order: Order | None = None) -> dict:
    """Product in U(g) of two PBW-form elements, result in PBW form."""
    if order is None:
        order = canonical_order(alg)
    out: dict = {}
    for ma, ca in a.items():
        wa = flatten(ma)
        for mb, cb in b.items():
            terms = normal_order_word(alg, wa + flatten(mb), order)
            _add_scaled(out, terms, ca * cb)
    return out


def scalar(c) -> dict:
    c = exact(c)
    return {EMPTY: c} if c else {}


# -- enumeration -------------------------------------------------------------------


def _sign_profile(sub, lo: int, hi: int):
    has_pos = has_nonpos = False
    sub.ensure_window(lo, hi)
    for e in sub.elements_in_degrees(lo, hi):
        if sub.degree(e) > 0:
            has_pos = True
        else:
            has_nonpos = True
    return has_pos, has_nonpos


def enumerate_pbw(sub, weight, order: Order | None = None) -> list:
    """All PBW monomials of the subalgebra with the given total weight.

    Requires a strictly positively or strictly negatively graded subalgebra
    (the mixed case can be infinite and is rejected).
    """
    if order is None:
        order = canonical_order(sub)
    ell = sub.ell(weight)
    probe = max(abs(ell), 1)
    has_pos, has_nonpos = _sign_profile(sub, -probe, probe)
    if has_pos and has_nonpos:
        raise InfiniteEnumerationError(
            f"{sub.name}: mixed positive/negative grading, PBW enumeration by weight may be infinite"
        )
    if not tuple(weight) == wt_zero(sub.rank) and ell == 0:
        return []
    if ell == 0:
        return [EMPTY]
    if (ell > 0 and not has_pos) or (ell < 0 and not has_nonpos):
        return []
    if ell < 0:
        if sub.elements_of_degree(0):
            e = sub.elements_of_degree(0)[0]
            raise InfiniteEnumerationError(f"{sub.name}: degree-0 element {sub.label(e)} in enumeration")
        elems = sub.elements_in_degrees(ell, -1)
    else:
        elems = sub.elements_in_degrees(1, ell)
    elems = sorted(elems, key=order.key)
    target = tuple(weight)
    out = []

    def rec(idx, acc, remaining):
        rell = sub.ell(remaining)
        if rell == 0:
            if all(x == 0 for x in remaining):
                out.append(tuple(acc))
            return
        if idx >= len(elems):
            return
        if ell < 0 and rell > 0:
            return
        if ell > 0 and rell < 0:
            return
        e = elems[idx]
        d = sub.degree(e)
        maxexp = rell // d if rell and (rell < 0) == (d < 0) else 0
        we = sub.weight(e)
        for exp in range(maxexp + 1):
            if exp:
                acc.append((e, exp))
            rem = tuple(a - exp * b for a, b in zip(remaining, we))
            rec(idx + 1, acc, rem)
            if exp:
                acc.pop()

    rec(0, [], target)
    return sorted(out)


def enumerate_pbw_weights(sub, depth: int, order: Order | None = None) -> dict:
    """{weight: [monomials]} for all weights with |ell| <= depth.

    For a strictly negative subalgebra this is every weight with
    -depth <= ell(weight) <= 0 (mirrored for strictly positive ones).
    """
    if order is None:
        order = canonical_order(sub)
    has_pos, has_nonpos = _sign_profile(sub, -max(depth, 1), max(depth, 1))
    if has_pos and has_nonpos:
        raise InfiniteEnumerationError(f"{sub.name}: mixed grading")
    table: dict = {wt_zero(sub.rank): [EMPTY]}
    if depth <= 0:
        return table
    if has_pos:
        elems = sub.elements_in_degrees(1, depth)
    elif has_nonpos:
        if sub.elements_of_degree(0):
            e = sub.elements_of_degree(0)[0]
            raise InfiniteEnumerationError(f"{sub.name}: degree-0 element {sub.label(e)}")
        elems = sub.elements_in_degrees(-depth, -1)
    else:
        return table
    elems = sorted(elems, key=order.key)

    def rec(idx, acc, w, budget):
        if idx >= len(elems):
            return
        e = elems[idx]
        d = abs(sub.degree(e))
        we = sub.weight(e)
        maxexp = budget // d
        for exp in range(1, maxexp + 1):
            acc.append((e, exp))
            w2 = tuple(a + exp * b for a, b in zip(w, we))
            table.setdefault(w2, []).append(tuple(acc))
            rec(idx + 1, acc, w2, budget - exp * d)
            acc.pop()
        rec(idx + 1, acc, w, budget)

    rec(0, [], wt_zero(sub.rank), depth)
    for mons in table.values():
        mons.sort()
    return table


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
