from fractions import Fraction
from weakref import WeakKeyDictionary

import pytest

from semiflex.forms import enumerate_forms
from semiflex.liealg import build_affine_sl2, exact, load_algebra, subalgebra, wt_add, wt_neg, wt_sub, wt_zero
from semiflex.linalg import SparseMatrix, Subspace
from semiflex.modules import ModuleError, WeightModule
from semiflex.pbw import add_scaled, canonical_order, compress, enumerate_pbw_weights, evaluate, flatten, split


@pytest.fixture(scope="session")
def sl2():
    alg = build_affine_sl2()
    alg.ensure_window(-14, 14)
    return alg


@pytest.fixture(scope="session")
def loop_a():
    alg = load_algebra("subalgebra_a")
    alg.ensure_window(-14, 14)
    return alg


@pytest.fixture(scope="session")
def abelian():
    alg = load_algebra("abelian")
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


# -- malformed user algebras ------------------------------------------------------


def sl2_toy(basis=(), brackets=()):
    """sl2 on e, h, f in degrees 1, 0, -1, with basis entries and bracket
    entries appended."""
    return {
        "grading": {"rank": 1, "degree_functional": [1]},
        "basis": [
            {"label": "e", "weight": [1], "index": 0},
            {"label": "h", "weight": [0], "index": 0},
            {"label": "f", "weight": [-1], "index": 0},
            *basis,
        ],
        "brackets": [
            {"i": 0, "j": 1, "terms": [{"k": 0, "num": -2}]},
            {"i": 0, "j": 2, "terms": [{"k": 1, "num": 1}]},
            {"i": 1, "j": 2, "terms": [{"k": 2, "num": -2}]},
            *brackets,
        ],
    }


MALFORMED_TOYS = {
    # a degree-0 e next to the degree-1 one: by_label would keep only one of them
    "duplicate-label": (sl2_toy(basis=[{"label": "e", "weight": [0], "index": 1}]), "label 'e' is given to two"),
    # one canonical key (degree, weight, index) for h and h2
    "duplicate-key": (sl2_toy(basis=[{"label": "h2", "weight": [0], "index": 0}]), "element h2: weight [0] and index 0"),
    "self-bracket": (sl2_toy(brackets=[{"i": 1, "j": 1, "terms": [{"k": 1, "num": 1}]}]), "bracket [h, h] of an element"),
    # [f, e] = -h restates [e, f] = h
    "pair-twice": (sl2_toy(brackets=[{"i": 2, "j": 0, "terms": [{"k": 1, "num": -1}]}]), "bracket [f, e] is given twice"),
}


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
# An independent reference for the two uses of check_commutators, the
# representation property of one module and the bimodule check of US
# (model.left against model.right): each builds XY - YX and the bracket
# action as separate matrices.


def reference_check_commutators(module, gen_window, weights=None):
    alg = module.alg
    lo, hi = gen_window
    alg.ensure_window(min(lo + lo, lo), max(hi + hi, hi))
    gens = alg.elements_in_degrees(lo, hi)
    if weights is None:
        weights = sorted(module.weights)
    failures = []
    for w in weights:
        for x in gens:
            wx = wt_add(w, alg.weight(x))
            for y in gens:
                if y < x:
                    continue
                wy = wt_add(w, alg.weight(y))
                wxy = wt_add(wx, alg.weight(y))
                if not all(module.in_depth(v) or alg.ell(v) > 0 for v in (wx, wy, wxy)):
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
# memoized per order on every intermediate word.  test_pbw's
# slow_straighten rewrites the rightmost pair first.

_STRAIGHTEN_MEMOS: WeakKeyDictionary = WeakKeyDictionary()


def straighten(alg, word, order):
    """PBW form {monomial: coefficient} of a word of basis ids in ``order``."""
    memo = _STRAIGHTEN_MEMOS.setdefault(order, {})
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
# An independent reference for the Verma recursion behind verma and coverma:
# each action straightens the word z·mon (or p·z) in U(g) in the canonical
# order, splits off the factors outside the free part and evaluates lambda
# on them.


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


# -- an algebra with rational structure constants ----------------------------------


def rational_sl3():
    """sl3 on a rescaled Chevalley basis, principal grading: E23 doubled and
    E13 tripled, so [E12, E23] = 2/3 E13 and [E21, E13] = 3/2 E23 carry
    denominators that no clearing of lambda removes."""
    scale = {(0, 1): 1, (1, 2): 2, (0, 2): 3, (1, 0): 1, (2, 1): 1, (2, 0): 1}

    def unit(i, j, c=1):
        m = [[Fraction(0)] * 3 for _ in range(3)]
        m[i][j] = Fraction(c)
        return m

    basis = [(f"E{i + 1}{j + 1}", unit(i, j, c)) for (i, j), c in scale.items()]
    basis += [("H1", [[1, 0, 0], [0, -1, 0], [0, 0, 0]]), ("H2", [[0, 0, 0], [0, 1, 0], [0, 0, -1]])]
    # e_1, e_2, e_3 in simple-root coordinates (shifted so e_2 = 0): E_ij has weight e_i - e_j
    simple = {0: (1, 0), 1: (0, 0), 2: (0, -1)}

    def weight(label):
        if label[0] == "H":
            return [0, 0]
        i, j = int(label[1]) - 1, int(label[2]) - 1
        return [a - b for a, b in zip(simple[i], simple[j])]

    def coords(m):
        # off-diagonal (i, j) -> the rescaled unit; diag(a, b, c) = a H1 - c H2
        out = {pos: m[i][j] / c for pos, ((i, j), c) in enumerate(scale.items()) if m[i][j]}
        for pos, v in ((6, m[0][0]), (7, -m[2][2])):
            if v:
                out[pos] = v
        return out

    def product(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)] for i in range(3)]

    brackets = []
    for i, (_, a) in enumerate(basis):
        for j in range(i + 1, len(basis)):
            b = basis[j][1]
            ab, ba = product(a, b), product(b, a)
            terms = coords([[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(ab, ba)])
            if terms:
                brackets.append({"i": i, "j": j, "terms": [{"k": k, "num": v.numerator, "den": v.denominator} for k, v in terms.items()]})
    return load_algebra(
        {
            "name": "sl3q",
            "grading": {"rank": 2, "degree_functional": [1, 1]},
            "basis": [{"label": lab, "weight": weight(lab), "index": 0 if lab != "H2" else 1} for lab, _ in basis],
            "brackets": brackets,
            "beta": [],
        }
    )


# -- the cells of a semi-infinite complex, by a scan of the module ---------------
# An independent reference for SemiInfComplex's layout: it finds the relative
# weights mu by scanning every weight of the module, then lists each mu's
# form monomials tensored with M_{w+mu}, mu in sorted order.


def reference_complex_cells(alg, module, w):
    """{n: {(monomial, mu, b): index}} for every nonempty ghost degree of
    the complex at total weight w."""
    w = tuple(w)
    lmax = -alg.ell(w)
    alg.ensure_window(-2 * lmax - 4, 2 * lmax + 4)
    mus = sorted(wt_sub(nu, w) for nu in module.weights if 0 <= alg.ell(wt_sub(nu, w)) <= lmax and module.dim(nu) > 0)
    bases: dict = {}
    for mu in mus:
        dim = module.dim(wt_add(w, mu))
        for n in range(-len(alg.elements_in_degrees(-lmax, 0)), lmax + 1):
            for mono in enumerate_forms(alg, mu, n):
                bases.setdefault(n, []).extend((mono, mu, b) for b in range(dim))
    return {n: {key: i for i, key in enumerate(basis)} for n, basis in sorted(bases.items())}


# -- semi-invariants under every positive element ----------------------------------
# An independent reference for forms.semiinvariants: at each weight w it
# imposes the diagonal action of every positive eta of degree at most
# -ell(w), into empty weights too, and takes one nullspace of the stacked
# rows.  The coinvariant side is the package's, unchanged.


def reference_semiinvariants(alg, module, depth):
    alg.ensure_window(-2 * depth - 4, 2 * depth + 4)
    hplus = alg.elements_in_degrees(1, depth)
    hminus = alg.elements_in_degrees(-depth, 0)
    images = {}
    for w in sorted(module.weights):
        dim_w = module.dim(w)
        if not -depth <= alg.ell(w) <= 0 or dim_w == 0:
            continue
        inv_rows = []
        for eta in hplus:
            if alg.degree(eta) <= -alg.ell(w):
                inv_rows.extend(module.action(eta, w).rows)
        kernel = SparseMatrix.from_rows(inv_rows, dim_w).nullspace()
        relations = []
        for xi in hminus:
            if alg.degree(xi) < alg.ell(w):
                continue
            src = wt_sub(w, alg.weight(xi))
            if alg.ell(src) > 0 or alg.ell(src) < -module.depth or module.dim(src) == 0:
                continue
            bv = alg.beta_value(xi)
            for col, rel in enumerate(module.action(xi, src).transpose().rows):
                if bv and alg.weight(xi) == wt_zero(alg.rank):
                    rel[col] = rel.get(col, 0) + bv
                relations.append(rel)
        images[w] = Subspace(relations).extend(kernel)
    return images


def assert_same_semiinvariants(got, ref):
    """The package's semi-invariants against the reference's, weight by
    weight: the same weights and image bases, so the same dimensions."""
    assert got.keys() == ref.keys()
    for w, span in ref.items():
        assert got[w].basis == span.basis, w
