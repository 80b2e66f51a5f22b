"""The universal semijective (semiregular) bimodule, semi-infinite induction,
the Wakimoto construction, and the verification routines built on them.

The bimodule US(g) (g with vanishing degree-0 part) is materialized per
weight on pairs (dual PBW monomial of U(g+), PBW monomial of U(g-)).  The
same pair coordinates serve both structure models: as the quotient
presentation of U(g+)* ⊗_{g+} U(g) they carry the right action (right
multiplication, with the positive factor slid onto the dual side through the
antipode), and as equivariant values f(q) ∈ U(g-) ⊗ L_{-beta} they carry the
left action (z·f)(q) = f(-z q), the negative factors peeled off the right of
the argument by f(u y) = -y·f(u) + beta(y) f(u).  Left and right actions
commute; the test suite checks this together with both module oracles.
Each pair space multiplies, splits, peels and pairs once per key (z·q',
a negative word on m0, m0·z, and q0 against a positive p), so building an
action matrix only joins cached terms and looks up rows; an entry is the
same exact sum in another order, so every matrix is unchanged.  z·q' and
each peeled y·m are one call of the pair space's multiplier, the product
recursion of ``pbw``.

Semi-induction takes semi-invariants of US ⊗ M under h(u ⊗ m) = -u h ⊗ m +
u ⊗ h m (forms.semiinvariants on the tensor space): invariants are an exact
kernel, coinvariants an exact quotient, and the image at each weight is a
``linalg.Subspace`` of the kernel modulo the relations.  The left action
descends to it.  The universal property is the case h = g, checked on S-ind
from g to g of N.  The Wakimoto module (over the affine algebra, whose
degree-0 part is not zero) is carved out of the per-weight-finite quotient
Q = US ⊗_{abar-} C_lambda: the submodule generated by the top vector is
spanned first, and any missing directions are recovered as exact
finitely-supported abar+-invariants found by an expanding truncation solve;
the result is validated against the product-formula character and the
commutator oracle.  Both constructions build one Subspace per weight: it
picks the basis, and the descended action reads every image coordinate off
the same echelon with ``solve_in_span``.  Both the span loop and the
descended action take images of a whole batch of vectors under one action
matrix in a single ``SparseMatrix.images`` call, which clears the matrix
once and sums in exact integers.
"""

from __future__ import annotations

from fractions import Fraction

from .forms import semiinf_cohomology, semiinvariants
from .liealg import SubalgebraSpec, WindowError, exact, subalgebra, wt_add, wt_sub, wt_zero
from .linalg import SparseMatrix, Subspace, solve_in_span
from .modules import WeightModule, _commutator_failures, _lam_str, _pbw_dims, check_commutators, product_formula_character
from .pbw import (
    Order,
    add_scaled,
    compress,
    descending_order,
    enumerate_pbw_weights,
    evaluate,
    flatten,
    monomial_label,
    monomial_weight,
    multiplier,
    normal_order_word,
    split,
)

__all__ = [
    "SemiregularModel",
    "universal_semijective",
    "s_ind",
    "wakimoto",
    "check_prop_iso",
    "check_prop_iso1",
    "bimodule_commutes",
    "check_universal_property",
    "check_shapiro",
    "Verdict",
]


class InductionError(Exception):
    pass


class Verdict:
    """Outcome of a structural check, with per-cell diffs when it fails."""

    def __init__(self, name: str, passed: bool, details=None):
        self.name = name
        self.passed = passed
        self.details = details or {}

    def __bool__(self):
        return self.passed

    def __repr__(self):
        status = "pass" if self.passed else "FAIL"
        return f"Verdict({self.name}: {status})"

    def to_json(self):
        return {"check": self.name, "passed": self.passed, "details": _jsonable(self.details)}


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, Fraction):
        return str(x)
    return x


class _PairSpace:
    """Pairs (q, m) of a dual PBW monomial of U(g+) and a PBW monomial of a
    negative part, bucketed by weight wt(m) - wt(q) to the given depth, with
    the left action on equivariant values and the right action through the
    antipode.  US takes the whole negative part; Q (the Wakimoto quotient)
    takes a- and reduces the peeled abar- factors to scalars (``reduce_m``).

    Every product the two actions need is computed once per key and kept,
    as tuples sharing their objects, for the life of the instance:

    * ``_zq``: (z, q') -> ((p, negative word, c), ...), z·q' straightened
      and split, keeping only the p that are dual monomials of ``qtab``
      (no other p meets a column); p is the ``qtab`` object and each
      negative word is interned in ``_words``.
    * ``_peels``: (negative word, m0) -> ((m, c), ...), the word peeled off
      m0 and reduced by ``reduce_m``.
    * ``_mz``: (m0, z) -> ((p, m, c), ...), m0·z straightened and split.
    * ``_pairings``: (q0, p) -> ((q', <q0, q'·S(p)>), ...), the sign
      (-1)^|p| of the antipode folded in, nonzero entries only, filled for
      every q0 of a weight at once.

    z ranges over the generators asked for, q', q0 over ``qtab`` and m0
    over the negative monomials of the pair space (and of the truncated
    invariant space of the Wakimoto completion), so each cache is bounded
    by the space it serves.  A matrix entry is the same exact sum of the
    same terms as without the caches, added in another order, so every
    matrix is unchanged."""

    # US raises WindowError when an action leaves the depth; Q leaves it zero
    strict_depth = False

    def __init__(self, alg, depth: int, order: Order, negative):
        self.alg = alg
        self.depth = depth
        self.order = order
        self._mul = multiplier(alg, order)
        self.qtab = enumerate_pbw_weights(subalgebra(alg, "gplus"), depth, order)
        self.mtab = enumerate_pbw_weights(negative, depth, order)
        self.weights: dict = {}
        for qw, qs in self.qtab.items():
            for mw, ms in self.mtab.items():
                w = wt_sub(mw, qw)
                if alg.ell(w) < -depth:
                    continue
                bucket = self.weights.setdefault(w, [])
                for q in qs:
                    for m in ms:
                        bucket.append((q, m))
        for bucket in self.weights.values():
            bucket.sort()
        self._index = {w: {pair: i for i, pair in enumerate(b)} for w, b in self.weights.items()}
        self._qtab_ell = {qw: alg.ell(qw) for qw in self.qtab}
        # dual monomial q -> (the qtab object q, its weight, its ell)
        self._duals = {q: (q, qw, self._qtab_ell[qw]) for qw, qs in self.qtab.items() for q in qs}
        self._left: dict = {}
        self._words: dict = {}
        self._zq: dict = {}
        self._peels: dict = {}
        self._mz: dict = {}
        self._pairings: dict = {}

    def _positive(self, eid) -> bool:
        return self.alg.degree(eid) > 0

    def dim(self, w) -> int:
        return len(self.weights.get(tuple(w), ()))

    def basis(self, w):
        return self.weights.get(tuple(w), [])

    def in_depth(self, w) -> bool:
        return -self.depth <= self.alg.ell(w) <= 0

    def _check_target(self, side: str, target, cols) -> None:
        if self.alg.ell(target) <= 0 and not self.in_depth(target) and cols:
            raise WindowError(f"US: {side} action target {target} outside depth {self.depth}")

    def reduce_m(self, mon) -> tuple:
        """(coefficient, basis monomial) of a peeled monomial: the identity on US."""
        return 1, mon

    def _peel(self, word, vec: dict) -> dict:
        """Apply f(u y) = -y f(u) + beta(y) f(u) across a negative word."""
        for y in word:
            bv = self.alg.beta_value(y)
            out: dict = {}
            for m, c in vec.items():
                add_scaled(out, self._mul(y, m), -c)
                if bv:
                    add_scaled(out, {m: bv}, c)
            vec = out
        return vec

    def _zq_terms(self, z: int, qprime) -> tuple:
        """(p, negative word, c) of z·q' straightened, p a dual monomial."""
        key = (z, qprime)
        got = self._zq.get(key)
        if got is None:
            terms = []
            for mon, c in self._mul(z, qprime).items():
                p, m = split(mon, self._positive)
                dual = self._duals.get(p)
                if dual is not None:
                    word = flatten(m)
                    terms.append((dual[0], self._words.setdefault(word, word), c))
            got = self._zq[key] = tuple(terms)
        return got

    def _peeled(self, word, m0) -> tuple:
        """(m, c) of ``word`` peeled off m0, reduced by ``reduce_m``."""
        key = (word, m0)
        got = self._peels.get(key)
        if got is None:
            acc: dict = {}
            for m2, c2 in self._peel(word, {m0: 1}).items():
                coeff, m = self.reduce_m(m2)
                if coeff:
                    acc[m] = acc.get(m, 0) + coeff * c2
            got = self._peels[key] = tuple((m, c) for m, c in acc.items() if c)
        return got

    def _left_action(self, z: int, w) -> SparseMatrix:
        """Matrix of the left action of z on weight w."""
        w = tuple(w)
        key = (z, w)
        got = self._left.get(key)
        if got is not None:
            return got
        alg = self.alg
        target = wt_add(w, alg.weight(z))
        rows = self._index.get(target, {})
        cols = self.basis(w)
        mat = SparseMatrix(len(rows), len(cols))
        if self.strict_depth:
            self._check_target("left", target, cols)
        by_q0: dict = {}
        for ci, (q0, m0) in enumerate(cols):
            by_q0.setdefault(q0, []).append((ci, m0))
        # z·q' has a positive part of ell at least ell(q') + ell(z)
        bound = max((self._duals[q0][2] for q0 in by_q0), default=0) - alg.ell(alg.weight(z))
        for qw, qprimes in self.qtab.items():
            if self._qtab_ell[qw] > bound:
                continue
            for qprime in qprimes:
                for p, word, c in self._zq_terms(z, qprime):
                    for ci, m0 in by_q0.get(p, ()):
                        for m, c2 in self._peeled(word, m0):
                            r = rows.get((qprime, m))
                            if r is not None:
                                mat.add(r, ci, -c * c2)
        self._left[key] = mat
        return mat

    def _mz_terms(self, m0, z: int) -> tuple:
        """(p, m, c) of m0·z straightened and split."""
        key = (m0, z)
        got = self._mz.get(key)
        if got is None:
            st = normal_order_word(self.alg, flatten(m0) + (z,), self.order)
            got = self._mz[key] = tuple((*split(mon, self._positive), c) for mon, c in st.items())
        return got

    def _pairing(self, q0, p) -> tuple:
        """(q', (-1)^|p| <q0, q'·S(p)>) over the dual monomials q', nonzero only."""
        key = (q0, p)
        got = self._pairings.get(key)
        if got is None:
            # each q'·S(p) is straightened once, for every q0 of its weight
            alg, order = self.alg, self.order
            back = tuple(reversed(flatten(p)))
            sign = -1 if len(back) % 2 else 1
            w0 = self._duals[q0][1]
            terms: dict = {q: [] for q in self.qtab[w0]}
            for qprime in self.qtab.get(wt_sub(w0, monomial_weight(alg, p)), ()):
                for q, c in normal_order_word(alg, flatten(qprime) + back, order).items():
                    terms[q].append((qprime, sign * c))
            for q, t in terms.items():
                self._pairings[q, p] = tuple(t)
            got = self._pairings[key]
        return got

    def _right_terms(self, q0, m0, z):
        """(q', m, coefficient) of the pair (q0, m0) times z on the right: m0 z
        straightened, its positive factor p slid onto the dual side as
        <q0, q' · S(p)> with S the antipode."""
        for p, m, c in self._mz_terms(m0, z):
            if not p:
                yield q0, m, c
                continue
            for qprime, c2 in self._pairing(q0, p):
                yield qprime, m, c * c2


class SemiregularModel(_PairSpace):
    """US(g) on pair coordinates, with cached left/right action matrices."""

    strict_depth = True

    def __init__(self, alg, depth: int, order: Order | None = None):
        alg.ensure_window(-2 * depth - 4, 2 * depth + 4)
        if alg.elements_of_degree(0):
            raise InductionError(
                f"{alg.name}: universal semijective materialization needs a vanishing "
                "degree-0 part; use the staged semi-induction constructors instead"
            )
        super().__init__(alg, depth, order or descending_order(alg), subalgebra(alg, "gminus"))
        self._right: dict = {}

    def pair_label(self, pair) -> str:
        q, m = pair
        return f"({monomial_label(self.alg, q)})*⊗{monomial_label(self.alg, m)}"

    # -- the two multiplications ------------------------------------------------

    def right_matrix(self, z: int, w) -> SparseMatrix:
        w = tuple(w)
        key = (z, w)
        got = self._right.get(key)
        if got is not None:
            return got
        target = wt_add(w, self.alg.weight(z))
        rows = self._index.get(target, {})
        cols = self.basis(w)
        mat = SparseMatrix(len(rows), len(cols))
        self._check_target("right", target, cols)
        for ci, (q0, m0) in enumerate(cols):
            for q, m, c in self._right_terms(q0, m0, z):
                r = rows.get((q, m))
                if r is not None:
                    mat.add(r, ci, c)
        self._right[key] = mat
        return mat

    def left_matrix(self, z: int, w) -> SparseMatrix:
        return self._left_action(z, w)

    def left_module(self) -> WeightModule:
        labels = {w: [self.pair_label(p) for p in basis] for w, basis in self.weights.items()}
        return WeightModule(self.alg, f"US({self.alg.name})", labels, self.left_matrix, self.depth)

    def right_oracle_failures(self, gen_window, weights=None) -> list:
        """Right-module property: r_x r_y = r_y r_x - r_[x,y]."""
        return _commutator_failures(self, gen_window, weights, self.right_matrix, sign=-1)

    def left_oracle_failures(self, gen_window, weights=None) -> list:
        return _commutator_failures(self, gen_window, weights, self.left_matrix)


def universal_semijective(alg, depth: int) -> SemiregularModel:
    return SemiregularModel(alg, depth)


def bimodule_commutes(model: SemiregularModel, gen_window, weights=None) -> list:
    """[left_x, right_y] = 0 failures on materialized weights, every ordered pair."""
    return _commutator_failures(model, gen_window, weights, model.left_matrix, model.right_matrix, sign=0)


# -- structural checks for US ---------------------------------------------------------


def _dim_diffs(model: SemiregularModel) -> dict:
    """{w: (got, expected)} wherever the pair space's graded dimensions
    differ from those of U(g+)* (at negated weights) ⊗ U(g-): each factor is
    expanded by PBW from the basis of g+ or g- (``_pbw_dims``, independent
    of the monomial tables the pair space is built from), and the expected
    dimension at w sums the products at wt(m) - wt(q) = w."""
    alg, depth = model.alg, model.depth
    plus = _pbw_dims(alg, [alg.weight(e) for e in alg.elements_in_degrees(1, depth)], depth)
    minus = _pbw_dims(alg, [alg.weight(e) for e in alg.elements_in_degrees(-depth, -1)], depth)
    expected: dict = {}
    for qw, qdim in plus.items():
        for mw, mdim in minus.items():
            w = wt_sub(mw, qw)
            if alg.ell(w) >= -depth:
                expected[w] = expected.get(w, 0) + qdim * mdim
    got = {w: len(b) for w, b in model.weights.items()}
    return {w: (got.get(w, 0), expected.get(w, 0)) for w in set(got) | set(expected) if got.get(w, 0) != expected.get(w, 0)}


def check_prop_iso(alg, depth: int) -> Verdict:
    """Right-module model: graded dims of U(g+)* ⊗ U(g-) and the right oracle."""
    model = universal_semijective(alg, depth)
    diffs = _dim_diffs(model)
    lo, hi = -min(depth, 3), min(depth, 3)
    oracle = model.right_oracle_failures((lo, hi))
    passed = not diffs and not oracle
    return Verdict("prop-iso", passed, {"dim_diffs": diffs, "oracle_failures": oracle})


def check_prop_iso1(alg, depth: int) -> Verdict:
    """Left-module model: graded dims of Hom(U(g+), U(g-)) and the left oracle."""
    model = universal_semijective(alg, depth)
    diffs = _dim_diffs(model)
    lo, hi = -min(depth, 3), min(depth, 3)
    oracle = model.left_oracle_failures((lo, hi))
    commute = bimodule_commutes(model, (lo, hi))
    passed = not diffs and not oracle and not commute
    return Verdict("prop-iso-1", passed, {"dim_diffs": diffs, "oracle_failures": oracle, "bimodule_failures": commute})


# -- semi-induction --------------------------------------------------------------------


class _TensorSpace:
    """US ⊗ M for the US model and a weight module M, materialized per
    weight on basis quadruples (w1, i, w2, j): basis vector i of US at w1,
    basis vector j of M at w2."""

    def __init__(self, model, module, depth: int):
        self.model, self.module = model, module
        self.alg = model.alg
        self.depth = depth
        self.weights: dict = {}
        for w1 in model.weights:
            for w2 in module.weights:
                w = wt_add(w1, w2)
                if self.alg.ell(w) < -depth:
                    continue
                bucket = self.weights.setdefault(w, [])
                for i in range(model.dim(w1)):
                    for j in range(module.dim(w2)):
                        bucket.append((w1, i, w2, j))
        for b in self.weights.values():
            b.sort()
        self._index = {w: {t: i for i, t in enumerate(b)} for w, b in self.weights.items()}

    def dim(self, w):
        return len(self.weights.get(tuple(w), ()))

    def action(self, xi: int, w) -> SparseMatrix:
        """The diagonal action: xi acting as -(right multiplication) on US
        plus rho_M(xi) on M."""
        return self._action(xi, w, ((self.model.right_matrix, True), (self.module.action, False)))

    def left(self, xi: int, w) -> SparseMatrix:
        """The left action of xi on the US factor."""
        return self._action(xi, w, ((self.model.left_matrix, False), None))

    def _action(self, xi: int, w, ops) -> SparseMatrix:
        """Sum over the factors of 1 ⊗ matrix_of(xi) ⊗ 1, factor by factor in
        order; ops[slot] is (matrix_of, negate) or None."""
        w = tuple(w)
        shift = self.alg.weight(xi)
        rows = self._index.get(wt_add(w, shift), {})
        cols = self.weights.get(w, [])
        mat = SparseMatrix(len(rows), len(cols))
        factors = {}  # (slot, wf) -> (target weight, columns of matrix_of(xi, wf))
        for ci, (w1, i, w2, j) in enumerate(cols):
            for slot, op in enumerate(ops):
                if op is None:
                    continue
                matrix_of, negate = op
                wf, k = (w1, i) if slot == 0 else (w2, j)
                factor = factors.get((slot, wf))
                if factor is None:
                    factor = factors[slot, wf] = (wt_add(wf, shift), matrix_of(xi, wf).transpose().rows)
                tw, columns = factor
                for r, v in columns[k].items():
                    rr = rows.get((tw, r, w2, j) if slot == 0 else (w1, i, tw, r))
                    if rr is not None:
                        mat.add(rr, ci, -v if negate else v)
        return mat


def _descended_module(alg, name, prefix, spans, left, escaped, depth, lam=None) -> WeightModule:
    """Descend a left action to per-weight subquotients.

    ``spans[w]`` is a ``linalg.Subspace``: the basis of the subquotient at w,
    modulo its relations; ``left(z, w)`` acts on the ambient coordinates.
    The images of a weight's basis vectors are read off the target weight's
    span in one ``solve_in_span`` call, which reduces each image against the
    echelon that span built once, and their coordinates are the matrix
    columns.  Any image outside that span raises
    InductionError("<escaped> <w>").
    """

    def rule(z, w):
        w = tuple(w)
        span, t_span = spans.get(w, ()), spans.get(wt_add(w, alg.weight(z)), ())
        if not span or not t_span:
            return SparseMatrix(len(t_span), len(span))
        solved = solve_in_span(t_span, left(z, w).images(span.basis))
        if solved is None:
            raise InductionError(f"{escaped} {w}")
        return SparseMatrix.from_columns(solved)

    weights = {w: [f"{prefix}{i}" for i in range(len(span))] for w, span in spans.items()}
    return WeightModule(alg, name, weights, rule, depth, lam)


def s_ind(alg, sub, module: WeightModule, depth: int) -> WeightModule:
    """Semi-induced module: semi-invariants of US ⊗ M under the diagonal
    subalgebra action, carrying the left action of the big algebra.

    ``sub`` is a subalgebra view of ``alg`` (inherited splitting and beta);
    ``module`` is a weight module over the view.  The big algebra must have a
    vanishing degree-0 part (the affine case goes through ``wakimoto``).
    """
    space = _TensorSpace(universal_semijective(alg, depth), module, depth)
    images = semiinvariants(sub, space, depth).images
    escaped = "s_ind: left action left the semi-invariant subspace at weight"
    name = f"S-ind[{sub.name}]({module.name})"
    return _descended_module(alg, name, "s", images, space.left, escaped, depth, module.lam)


# -- Wakimoto ---------------------------------------------------------------------------


class WakimotoSpace(_PairSpace):
    """Q = US(g) ⊗_{U(abar-)} C_{lambda+beta} on pairs (q, m_a), with the
    descended left action of the affine algebra."""

    def __init__(self, alg, lam: dict, depth: int):
        alg.ensure_window(-2 * depth - 4, 2 * depth + 4)
        self.lam = dict(lam)
        a_view = subalgebra(alg, "a")
        abar_view = subalgebra(alg, "abar")
        self.a_view = a_view
        self.abar_view = abar_view

        def block(e):
            if alg.degree(e) > 0:
                return 0
            return 1 if a_view.is_member(e) else 2

        def key(e):
            d, wgt, i = alg.key(e)
            return (block(e), (-d, tuple(-x for x in wgt), -i))

        aminus = SubalgebraSpec(alg, "aminus", lambda e: a_view.is_member(e) and alg.degree(e) <= 0)
        super().__init__(alg, depth, Order("wak", key), aminus)
        self._lam_tilde = {}
        for e in alg.elements_in_degrees(-2 * depth - 4, 0):
            if abar_view.is_member(e):
                self._lam_tilde[e] = exact(lam.get(alg.label(e), 0)) + alg.beta_value(e)

    def reduce_m(self, mon) -> tuple:
        """Class of a U(g-) monomial (a- block then abar- block) in the
        lambda-tilde quotient: (coefficient, a- part monomial)."""
        ma, tail = split(mon, self.a_view.is_member)
        return evaluate(self._lam_tilde, tail), ma

    def left_matrix(self, z: int, w) -> SparseMatrix:
        return self._left_action(z, w)


def wakimoto(alg, lam: dict, depth: int) -> WeightModule:
    """The semi-induced module from the twisted Borel subalgebra.

    Constructed inside the quotient Q (pairs of a dual positive monomial and
    an a- monomial): the span of the top vector under the big algebra is
    built first; weights still short of the product-formula character are
    completed with exact finitely-supported abar+ invariants found by a
    truncation solve.  Dimensions are certified against the character and
    the action against the commutator oracle by the callers/tests.
    """
    space = WakimotoSpace(alg, lam, depth)
    target_char = product_formula_character(alg, depth)
    zero = wt_zero(alg.rank)
    spans = {zero: Subspace().extend([[int(pair == ((), ())) for pair in space.basis(zero)]])}
    lowering = [e for e in alg.elements_in_degrees(-depth, -1)]
    order_weights = sorted(space.weights, key=lambda w: -alg.ell(w))
    for w in order_weights:
        if w == zero:
            continue
        # one echelon per weight: it picks the basis here and reads every
        # image coordinate of the descended action later
        span = Subspace()
        for z in lowering:
            src = wt_sub(w, alg.weight(z))
            if src in spans:
                span.extend(space.left_matrix(z, src).images(spans[src].basis))
        want = target_char.coefficient(w)
        if len(span) < want:
            _invariant_completion(space, w, span, want)
        if len(span) != want:
            raise InductionError(f"wakimoto: weight {w}: spanned {len(span)} of {want} expected dimensions")
        if span:
            spans[w] = span
    escaped = "wakimoto: action escaped the constructed submodule at"
    return _descended_module(alg, f"W({_lam_str(lam)})", "w", spans, space.left_matrix, escaped, depth, lam)


# longest abar- tail the invariant completion tries before giving up
_TAIL_CAP = 3


def _invariant_completion(space, w, span, want):
    """Extend ``span``, the Subspace of Q at weight w, to at least ``want``
    vectors with projections of exact finitely-supported abar+ invariants
    of US ⊗ C_lambda (expanding truncation solve).  The span keeps its
    basis first and adds the independent projections after it.

    X is spanned by triples (q, m_a, m_abar); the truncation bounds the
    abar- tail length.  Invariance under every relevant positive abar
    element is imposed exactly (conditions land in a once-extended
    truncation), so every solution projects into the Wakimoto subspace.
    A tail's kernel holds every shorter tail's kernel, so the projections a
    short tail adds stay in the span that a longer one reaches.  Raises
    InductionError when tails of length _TAIL_CAP still fall short.
    """
    alg = space.alg
    budget = -alg.ell(w)
    etas = [e for e in alg.elements_in_degrees(1, max(budget, 1)) if space.abar_view.is_member(e)]
    for tail_len in range(1, _TAIL_CAP + 1):
        xbasis = _truncated_x_basis(space, w, tail_len)
        if not xbasis:
            continue
        cond_rows = []
        for eta in etas:
            cond_rows.extend(_right_action_rows(space, eta, xbasis))
        kernel = SparseMatrix.from_rows(cond_rows, len(xbasis)).nullspace()
        if not kernel:
            continue
        for k in kernel:
            vec = [0] * space.dim(w)
            for idx, c in enumerate(k):
                if not c:
                    continue
                q, ma, mbar = xbasis[idx]
                coeff = evaluate(space._lam_tilde, mbar)
                if coeff:
                    vec[space._index[w][(q, ma)]] += c * coeff
            span.extend([vec])  # a zero projection is dropped
        if len(span) >= want:
            return
    raise InductionError(
        f"wakimoto: weight {w}: invariant completion spans {len(span)} of {want} dimensions "
        f"with abar- tails up to the cap of length {_TAIL_CAP}"
    )


def _truncated_x_basis(space, w, tail_len: int):
    """Sorted triples (q, m_a, m_abar) of weight w with abar- tail of
    length at most ``tail_len``."""
    alg = space.alg
    abar_neg = sorted(
        (e for e in alg.elements_in_degrees(-space.depth, 0) if space.abar_view.is_member(e)),
        key=space.order.key,
    )
    tails_by_weight = {wt_zero(alg.rank): [()]}
    frontier = [((), wt_zero(alg.rank))]
    for _ in range(tail_len):
        new = []
        for t, tw in frontier:
            start = abar_neg.index(t[-1]) if t else 0
            for e in abar_neg[start:]:
                new.append((t + (e,), wt_add(tw, alg.weight(e))))
        for t, tw in new:
            tails_by_weight.setdefault(tw, []).append(compress(t))
        frontier = new
    out = set()
    for qw, qs in space.qtab.items():
        for mw, ms in space.mtab.items():
            tails = tails_by_weight.get(wt_sub(wt_add(tuple(w), qw), mw), ())
            for tail in tails:
                for q in qs:
                    for m in ms:
                        out.add((q, m, tail))
    return sorted(out)


def _right_action_rows(space, eta, xbasis):
    """Rows of -r_eta on the truncated X, exact conditions.

    The action may lengthen the abar tail by bounded amounts; output
    coordinates are indexed on the fly so the conditions stay exact.
    """
    out_index: dict = {}
    rows_by_out: dict = {}
    for ci, (q0, ma, mbar) in enumerate(xbasis):
        for q, m, c in space._right_terms(q0, ma + mbar, eta):
            r = out_index.setdefault((q, m), len(out_index))
            row = rows_by_out.setdefault(r, {})
            row[ci] = row.get(ci, 0) + c
    return [
        {c: v for c, v in row.items() if v}
        for _, row in sorted(rows_by_out.items())
    ]


# -- the big verification routines ---------------------------------------------------


def check_universal_property(alg, module: WeightModule, depth: int) -> Verdict:
    """S-ind from g to g gives back N: the semi-invariants of US ⊗ N under
    xi(u⊗n) = -u xi ⊗ n + u ⊗ xi n, with the residual left action of g.

    Checks that their graded dimensions equal N's and that the residual
    action passes the commutator oracle, i.e. is a g-representation.  It
    does not compare that action with rho_N through the canonical map.
    """
    residual = s_ind(alg, alg, module, depth)
    ndims = {w: module.dim(w) for w in module.weights if alg.ell(w) >= -depth}
    dim_diffs = {
        w: (residual.dim(w), ndims.get(w, 0))
        for w in set(residual.weights) | set(ndims)
        if residual.dim(w) != ndims.get(w, 0)
    }
    gen_bound = min(depth, 2)
    equi_failures = check_commutators(residual, (-gen_bound, gen_bound))
    passed = not dim_diffs and not equi_failures
    return Verdict("universal-property", passed, {"dim_diffs": dim_diffs, "equivariance": equi_failures})


def check_shapiro(alg, sub, module: WeightModule, depth: int):
    """Semi-infinite cohomology of (sub, M) versus (alg, S-ind M), per cell."""
    induced = s_ind(alg, sub, module, depth)
    table_h = semiinf_cohomology(sub, module, depth)
    table_g = semiinf_cohomology(alg, induced, depth)
    equal, diffs = table_h.same_dims(table_g)
    verdict = Verdict("shapiro", equal, {"cell_diffs": diffs})
    return verdict, table_h, table_g
