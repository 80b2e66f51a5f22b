from fractions import Fraction
from weakref import WeakKeyDictionary

import pytest

from semiflex.liealg import build_affine_sl2, build_test_algebra, exact, subalgebra, wt_add, wt_neg
from semiflex.linalg import SparseMatrix
from semiflex.modules import ModuleError, WeightModule
from semiflex.pbw import add_scaled, canonical_order, compress, enumerate_pbw_weights, evaluate, flatten, split


@pytest.fixture(scope="session")
def sl2():
    alg = build_affine_sl2()
    alg.ensure_window(-14, 14)
    return alg


@pytest.fixture(scope="session")
def loop_a():
    alg = build_test_algebra("loop-nilpotent-a")
    alg.ensure_window(-14, 14)
    return alg


@pytest.fixture(scope="session")
def abelian():
    alg = build_test_algebra("abelian")
    alg.ensure_window(-10, 10)
    return alg


@pytest.fixture(scope="session")
def lam01():
    return {"1⊗h": Fraction(0), "K": Fraction(1), "d": Fraction(0)}


def kostant_count(roots, ell, target):
    """Brute-force count of ways to write ``target`` as a nonnegative integer
    combination of ``roots`` (each of positive principal degree ``ell``).
    Independent oracle for Verma / Wakimoto weight multiplicities."""
    roots = sorted(roots)

    def rec(idx, remaining):
        if all(x == 0 for x in remaining):
            return 1
        budget = ell(remaining)
        if budget <= 0 or idx >= len(roots):
            return 0
        root = roots[idx]
        total = 0
        for k in range(budget // ell(root) + 1):
            total += rec(idx + 1, tuple(a - k * b for a, b in zip(remaining, root)))
        return total

    return rec(0, tuple(target))


# -- matrix times vector in Fraction arithmetic ----------------------------------------


def reference_apply(m, vec):
    """m times a dense coordinate vector, entry by entry in mixed int/Fraction
    arithmetic: the reference for SparseMatrix.images."""
    out = [0] * m.nrows
    for i, row in enumerate(m.rows):
        s = 0
        for c, v in row.items():
            if vec[c]:
                s += v * vec[c]
        out[i] = s
    return out


# -- the commutator checks as three separate loops ---------------------------------
# An independent reference for the single oracle behind check_commutators,
# bimodule_commutes and the US right oracle: each builds XY - YX and the
# bracket action as separate matrices, and the right oracle checks the left
# module z -> -r_z.  Both US loops read model.left and model.right.


def reference_check_commutators(module, gen_window, weights=None):
    alg = module.alg
    lo, hi = gen_window
    alg.ensure_window(min(lo + lo, lo), max(hi + hi, hi))
    gens = alg.elements_in_degrees(lo, hi)
    if weights is None:
        weights = module.weights_list()
    failures = []
    for w in weights:
        for x in gens:
            wx = wt_add(w, alg.weight(x))
            for y in gens:
                if y < x:
                    continue
                wy = wt_add(w, alg.weight(y))
                wxy = wt_add(wx, alg.weight(y))
                if not all(module.in_depth(v) or module.ell(v) > 0 for v in (wx, wy, wxy)):
                    continue
                x_after_y = module.action(x, wy).matmul(module.action(y, w))
                y_after_x = module.action(y, wx).matmul(module.action(x, w))
                comm = SparseMatrix(x_after_y.nrows, x_after_y.ncols)
                for i, row in enumerate(x_after_y.rows):
                    for c, v in row.items():
                        comm.add(i, c, v)
                for i, row in enumerate(y_after_x.rows):
                    for c, v in row.items():
                        comm.add(i, c, -v)
                expected = SparseMatrix(comm.nrows, comm.ncols)
                for k, cf in alg.bracket_ids(x, y).items():
                    for i, row in enumerate(module.action(k, w).rows):
                        for c, v in row.items():
                            expected.add(i, c, cf * v)
                if comm.rows != expected.rows:
                    failures.append((alg.label(x), alg.label(y), w))
    return failures


def reference_right_oracle(model, gen_window, weights=None):
    def rule(z, w):
        mat = model.right.action(z, w)
        return SparseMatrix.from_rows([{c: -v for c, v in row.items()} for row in mat.rows], mat.ncols)

    labels = {w: [str(i) for i in range(len(b))] for w, b in model.weights.items()}
    return reference_check_commutators(WeightModule(model.alg, "US^op", labels, rule, model.depth), gen_window, weights)


def reference_bimodule(model, gen_window, weights=None):
    alg = model.alg
    gens = alg.elements_in_degrees(*gen_window)
    failures = []
    for w in sorted(model.weights) if weights is None else weights:
        for x in gens:
            wx = wt_add(w, alg.weight(x))
            for y in gens:
                wy = wt_add(w, alg.weight(y))
                wxy = wt_add(wx, alg.weight(y))
                if not all(model.left.in_depth(v) or alg.ell(v) > 0 for v in (wx, wy, wxy)):
                    continue
                lr = model.left.action(x, wy).matmul(model.right.action(y, w))
                rl = model.right.action(y, wx).matmul(model.left.action(x, w))
                if lr.rows != rl.rows:
                    failures.append((alg.label(x), alg.label(y), w))
    return failures


# -- straightening whole words -------------------------------------------------------
# An independent reference for the product recursion behind normal_order_word,
# the pair spaces of induction and the induced modules: it rewrites the
# leftmost out-of-order adjacent pair x·y -> y·x + [x, y] of a whole word,
# memoized per (algebra, order) on every intermediate word.  test_pbw's
# slow_straighten rewrites the rightmost pair first.

_STRAIGHTEN_MEMOS: WeakKeyDictionary = WeakKeyDictionary()


def straighten(alg, word, order):
    """PBW form {monomial: coefficient} of a word of basis ids in ``order``."""
    memo = _STRAIGHTEN_MEMOS.setdefault(alg, {}).setdefault(order.tag, {})
    return _straighten(alg, tuple(word), order.key, memo)


def _straighten(alg, word, key, memo):
    cached = memo.get(word)
    if cached is not None:
        return cached
    for i in range(len(word) - 1):
        if key(word[i]) > key(word[i + 1]):
            break
    else:
        res = memo[word] = {compress(word): 1}
        return res
    acc: dict = {}
    add_scaled(acc, _straighten(alg, word[:i] + (word[i + 1], word[i]) + word[i + 2 :], key, memo), 1)
    for k, c in alg.bracket_ids(word[i], word[i + 1]).items():
        add_scaled(acc, _straighten(alg, word[:i] + (k,) + word[i + 2 :], key, memo), c)
    memo[word] = acc
    return acc


# -- induced modules by straightening whole words ----------------------------------
# An independent reference for the Verma recursion behind verma, coverma and
# free_negative_module: each action straightens the word z·mon (or p·z) in
# U(g) in the canonical order, splits off the factors outside the free part
# and evaluates lambda on them.


def _reference_induced(alg, tab, values, depth, right):
    order = canonical_order(alg)
    index = {w: {m: i for i, m in enumerate(mons)} for w, mons in tab.items()}

    def rule(eid, w):
        target = wt_add(w, alg.weight(eid))
        rows, cols = tab.get(target, []), tab.get(w, [])
        mat = SparseMatrix(len(rows), len(cols))
        mons, to = (rows, w) if right else (cols, target)
        for i, mon in enumerate(mons):
            word = flatten(mon) + (eid,) if right else (eid,) + flatten(mon)
            for out, coeff in straighten(alg, word, order).items():
                if right:
                    rest, basis = split(out, lambda e: alg.degree(e) <= 0)
                else:
                    basis, rest = split(out, lambda e: alg.degree(e) < 0)
                scalar = evaluate(values, rest)
                if not scalar:
                    continue
                j = index.get(to, {}).get(basis)
                if j is None:
                    raise ModuleError(f"{alg.label(eid)} from weight {w} to weight {target} leaves the basis")
                if right:
                    mat.add(i, j, coeff * scalar)
                else:
                    mat.add(j, i, coeff * scalar)
        return mat

    return WeightModule(alg, "reference", {w: [str(m) for m in mons] for w, mons in tab.items()}, rule, depth)


def _reference_values(alg, lam):
    values = {e: exact(lam.get(alg.label(e), 0)) for e in alg.elements_of_degree(0)}
    return {e: v for e, v in values.items() if v}


def reference_verma(alg, lam, depth):
    tab = enumerate_pbw_weights(subalgebra(alg, "g_below_zero"), depth, canonical_order(alg))
    return _reference_induced(alg, tab, _reference_values(alg, lam), depth, False)


def reference_coverma(alg, lam, depth):
    ptab = enumerate_pbw_weights(subalgebra(alg, "gplus"), depth, canonical_order(alg))
    tab = {wt_neg(w): mons for w, mons in ptab.items()}
    return _reference_induced(alg, tab, _reference_values(alg, lam), depth, True)


def reference_free_negative_module(sub, depth):
    return _reference_induced(sub, enumerate_pbw_weights(sub, depth, canonical_order(sub)), {}, depth, False)
