"""The universal semijective (semiregular) bimodule, semi-infinite induction
(the Wakimoto module is one of its values), and the verification routines
built on them.

One pair space serves every construction: for a subalgebra h holding g's
degree-0 part, with complement c, it is the quotient Q = US(g) ⊗_{U(h≤0)}
C_{lambda+beta}, materialized per weight on pairs (dual PBW monomial of
U(g+), PBW monomial of U(c≤0)).  US(g) itself (g with vanishing degree-0
part) is this space with h = 0, on pairs with a PBW monomial of U(g-).  The
same pair coordinates serve both structure models of US: as the quotient
presentation of U(g+)* ⊗_{g+} U(g) they carry the right action (right
multiplication, with the positive factor slid onto the dual side through the
antipode), and as equivariant values f(q) ∈ U(g-) ⊗ L_{-beta} they carry the
left action (z·f)(q) = f(-z q), the negative factors peeled off the right of
the argument by f(u y) = -y·f(u) + beta(y) f(u), and on Q reduced to c≤0
monomials by lambda+beta on the h≤0 tail.  Semi-induction reads the right
action only as the left module z -> -r_z, so that is what ``model.right``
holds: both actions are left modules, each checked by the one commutator
oracle, and the bimodule check is that they commute.  Each action is a
``WeightModule`` (``model.left``, ``model.right``, and Q's ``left``), so
every action matrix has one cache and one depth guard: it is built once per
(element, weight), and an action whose target lies below the depth raises
WindowError on US and Q alike.  Each pair space multiplies, splits, peels
and pairs once per key (z·q', a negative word on m0, m0·z, and q0 against a
positive p), so building an action matrix only joins cached terms and looks
up rows; an entry is the same exact sum in another order, so every matrix is
unchanged.  z·q' and each peeled y·m are one call of the pair space's
multiplier, the product recursion of ``pbw``.  A left action visits only the
q' of its target weight's basis: a row (q', m) can take a term of z·q' only
for such a q'.

Semi-induction ``s_ind`` takes semi-invariants of US ⊗ M under h(u ⊗ m) =
-u h ⊗ m + u ⊗ h m (forms.semiinvariants on ``modules.tensor`` of
``model.right`` and M): the invariants are an exact kernel of a generating
set of h₊, coinvariants an exact quotient, and the image at each weight is
a ``linalg.Subspace`` of the kernel modulo the relations.  The left action
descends to it from the tensor of ``model.left`` and M's weight spaces
with the zero action, which has the same basis.  A tensor is as deep as
its shallower factor, so an M shallower than the requested depth fails
semiinvariants' depth check.  The universal property is
the case h = g, checked on S-ind from g to g of N.  Over an algebra whose
degree-0 part is not zero (affine sl2), US is not finite per weight, and
``s_ind`` of a one-dimensional C_lambda from h is carved out of Q instead:
the submodule generated by the top vector is spanned first, and any missing
directions are recovered as exact finitely-supported h+-invariants found by
an expanding truncation solve; the result is validated against the
product-formula character and the commutator oracle.  The Wakimoto module is
S-ind(g, ā, C_lambda).  Both routes build one Subspace per weight: it picks
the basis, and the descended action reads every image coordinate off the
same echelon with ``solve_in_span``.  Both the span loop and the descended
action take images of a whole batch of vectors under one action matrix in a
single ``SparseMatrix.images`` call, which clears the matrix once and sums
in exact integers.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement

from .forms import semiinf_cohomology, semiinvariants
from .liealg import AlgebraError, SubalgebraSpec, check_closure, subalgebra, wt_add, wt_sub, wt_zero
from .linalg import SparseMatrix, Subspace, solve_in_span
from .modules import WeightModule, _lam_str, _pbw_dims, character_module, check_commutators, product_formula_character, tensor
from .pbw import (
    Order,
    add_scaled,
    compress,
    enumerate_pbw_weights,
    evaluate,
    flatten,
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
    "check_us",
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
    """The quotient Q = US(g) ⊗_{U(h≤0)} C_{lambda+beta} on pairs (q, m) of a
    dual PBW monomial of U(g+) and a PBW monomial of c≤0, bucketed by weight
    wt(m) - wt(q) to the given depth, for a subalgebra h holding g's degree-0
    part, its complement c and lambda, h's values {degree-0 eid: value}.
    Monomials are PBW in the block order (positive | c | h), descending
    within each block, so a peeled monomial of U(g≤0) is a c≤0 part and an
    h≤0 tail, and ``reduce_m`` evaluates lambda+beta on the tail.  US(g) is
    this space with h = 0 (``h`` None): every nonpositive element is in c,
    the block order is the descending one and the tail is always empty.
    The left action is on equivariant values, US's right action goes
    through the antipode.

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
    invariant space of the completion), so each cache is bounded by the
    space it serves.  A matrix entry is the same exact sum of the same
    terms as without the caches, added in another order, so every matrix
    is unchanged.

    ``left_matrix`` (and US's ``right_matrix``) builds one matrix and keeps
    none: the space's ``left`` (and US's ``right``) is the ``WeightModule``
    with that builder as its rule, which caches each matrix once and
    raises WindowError for an action that leaves the depth.  Every reader
    goes through their ``action``."""

    def __init__(self, alg, name: str, depth: int, h=None, lam=None):
        self.alg, self.depth = alg, depth
        in_h = self.in_h = h.is_member if h is not None else lambda e: False

        def key(e):
            d, wgt, i = alg.key(e)
            return (0 if d > 0 else 2 if in_h(e) else 1, (-d, tuple(-x for x in wgt), -i))

        self.order = Order(key)
        self._mul = multiplier(alg, self.order)
        self.qtab = enumerate_pbw_weights(subalgebra(alg, "gplus"), depth, self.order)
        self.cminus = SubalgebraSpec(alg, "cminus", lambda e: alg.degree(e) <= 0 and not in_h(e))
        self.mtab = enumerate_pbw_weights(self.cminus, depth, self.order)
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
        # dual monomial q -> (the qtab object q, its weight)
        self._duals = {q: (q, qw) for qw, qs in self.qtab.items() for q in qs}
        # lambda and beta vanish off degree 0, and h holds all of degree 0
        self._lam_tilde = {e: (lam or {}).get(e, 0) + alg.beta_value(e) for e in alg.elements_of_degree(0)}
        self._words: dict = {}
        self._zq: dict = {}
        self._peels: dict = {}
        self._mz: dict = {}
        self._pairings: dict = {}
        self.left = WeightModule(alg, name, self.weights, self.left_matrix, depth)

    def _positive(self, eid) -> bool:
        return self.alg.degree(eid) > 0

    def dim(self, w) -> int:
        return len(self.weights.get(tuple(w), ()))

    def basis(self, w):
        return self.weights.get(tuple(w), [])

    def reduce_m(self, mon) -> tuple:
        """Class of a peeled U(g≤0) monomial (a c≤0 part, then an h≤0 tail)
        in the quotient: (lambda+beta of the tail, the c≤0 part)."""
        mc, tail = split(mon, self.cminus.is_member)
        return evaluate(self._lam_tilde, tail), mc

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

    def left_matrix(self, z: int, w) -> SparseMatrix:
        """Matrix of the left action of z on weight w, built afresh.

        Row (q', m) of the target takes -c * c2 for every term (p, word, c)
        of z·q' whose p is the dual part q0 of a column (q0, m0) and every
        (m, c2) of the word peeled off m0.  So only the distinct q' of the
        target weight's basis are visited."""
        target = wt_add(w, self.alg.weight(z))
        rows = self._index.get(target, {})
        cols = self.basis(w)
        mat = SparseMatrix(len(rows), len(cols))
        by_q0: dict = {}
        for ci, (q0, m0) in enumerate(cols):
            by_q0.setdefault(q0, []).append((ci, m0))
        for qprime in dict.fromkeys(q for q, _m in rows):
            for p, word, c in self._zq_terms(z, qprime):
                for ci, m0 in by_q0.get(p, ()):
                    for m, c2 in self._peeled(word, m0):
                        r = rows.get((qprime, m))
                        if r is not None:
                            mat.add(r, ci, -c * c2)
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
    """US(g) on pair coordinates; ``left`` and ``right`` are its two actions
    as weight modules, the right one as the left module z -> -r_z, so both
    satisfy the representation property."""

    def __init__(self, alg, depth: int):
        alg.ensure_window(-2 * depth - 4, 2 * depth + 4)
        if alg.elements_of_degree(0):
            raise InductionError(
                f"{alg.name}: universal semijective materialization needs a vanishing degree-0 part; over one, "
                "s_ind induces a one-dimensional module from a subalgebra holding it, on US's quotient by its nonpositive part"
            )
        super().__init__(alg, f"US({alg.name})", depth)
        self.right = WeightModule(alg, f"US({alg.name}) right", self.weights, self.right_matrix, depth)

    # the builders sit in each class's own dict, where perfbench/spans.py wraps them
    left_matrix = _PairSpace.left_matrix

    def right_matrix(self, z: int, w) -> SparseMatrix:
        """Matrix of -r_z, minus the right multiplication by z, on weight w,
        built afresh."""
        rows = self._index.get(wt_add(w, self.alg.weight(z)), {})
        cols = self.basis(w)
        mat = SparseMatrix(len(rows), len(cols))
        for ci, (q0, m0) in enumerate(cols):
            for q, m, c in self._right_terms(q0, m0, z):
                r = rows.get((q, m))
                if r is not None:
                    mat.add(r, ci, -c)
        return mat


def universal_semijective(alg, depth: int) -> SemiregularModel:
    return SemiregularModel(alg, depth)


# -- structural checks for US ---------------------------------------------------------


def _dim_diffs(got: dict, expected: dict) -> dict:
    """{w: (got, expected)} wherever two graded dimensions differ, a
    missing weight counting as 0."""
    return {w: (got.get(w, 0), expected.get(w, 0)) for w in set(got) | set(expected) if got.get(w, 0) != expected.get(w, 0)}


def _us_dims(alg, depth: int) -> dict:
    """The graded dimensions of U(g+)* (at negated weights) ⊗ U(g-): each
    factor is expanded by PBW from the basis of g+ or g- (``_pbw_dims``,
    independent of the monomial tables the pair space is built from), and
    the dimension at w sums the products at wt(m) - wt(q) = w."""
    plus = _pbw_dims(alg, [alg.weight(e) for e in alg.elements_in_degrees(1, depth)], depth)
    minus = _pbw_dims(alg, [alg.weight(e) for e in alg.elements_in_degrees(-depth, -1)], depth)
    dims: dict = {}
    for qw, qdim in plus.items():
        for mw, mdim in minus.items():
            w = wt_sub(mw, qw)
            if alg.ell(w) >= -depth:
                dims[w] = dims.get(w, 0) + qdim * mdim
    return dims


def check_us(alg, depth: int) -> tuple[Verdict, Verdict]:
    """The verdicts "prop-iso" and "prop-iso-1" on one US(alg) model.

    Both compare the graded dimensions with those of U(g+)* ⊗ U(g-)
    (``_us_dims``, compared once).  "prop-iso" adds the oracle of the
    right action, "prop-iso-1" that of the left action and the bimodule
    check, that the two actions commute."""
    model = universal_semijective(alg, depth)
    diffs = _dim_diffs({w: len(b) for w, b in model.weights.items()}, _us_dims(alg, depth))
    window = (-min(depth, 3), min(depth, 3))
    right = check_commutators(model.right, window)
    left = check_commutators(model.left, window)
    commute = check_commutators(model.left, window, b=model.right)
    iso = Verdict("prop-iso", not diffs and not right, {"dim_diffs": diffs, "oracle_failures": right})
    details = {"dim_diffs": diffs, "oracle_failures": left, "bimodule_failures": commute}
    return iso, Verdict("prop-iso-1", not diffs and not left and not commute, details)


# -- semi-induction --------------------------------------------------------------------


def _descended_module(name, prefix, spans, ambient, escaped) -> WeightModule:
    """Descend the action of the weight module ``ambient`` to per-weight
    subquotients, over its algebra and to its depth.

    ``spans[w]`` is a ``linalg.Subspace`` of ``ambient`` at w: the basis of
    the subquotient at w, modulo its relations.  The images of a weight's
    basis vectors are read off the target weight's span in one
    ``solve_in_span`` call, which reduces each image against the echelon
    that span built once, and their coordinates are the matrix columns.
    Any image outside that span raises InductionError("<escaped> <w>").
    """
    alg = ambient.alg

    def rule(z, w):
        w = tuple(w)
        span, t_span = spans.get(w, ()), spans.get(wt_add(w, alg.weight(z)), ())
        if not span or not t_span:
            return SparseMatrix(len(t_span), len(span))
        solved = solve_in_span(t_span, ambient.action(z, w).images(span.basis))
        if solved is None:
            raise InductionError(f"{escaped} {w}")
        return SparseMatrix.from_columns(solved)

    weights = {w: [f"{prefix}{i}" for i in range(len(span))] for w, span in spans.items()}
    return WeightModule(alg, name, weights, rule, ambient.depth)


def s_ind(alg, sub, module: WeightModule, depth: int) -> WeightModule:
    """Semi-induced module: semi-invariants of US ⊗ M under the diagonal
    subalgebra action, carrying the left action of the big algebra.

    ``sub`` is a subalgebra view of ``alg`` (inherited splitting and beta);
    ``module`` is a weight module over the view.  Over an algebra with a
    nonzero degree-0 part, ``sub`` must hold that part, its complement must
    be a subalgebra and ``module`` must be one-dimensional: the module is
    then built in the quotient of US (``_quotient_s_ind``).
    """
    alg.ensure_window(-2 * depth - 4, 2 * depth + 4)
    name = f"S-ind[{sub.name}]({module.name})"
    if alg.elements_of_degree(0):
        return _quotient_s_ind(alg, sub, module, depth, name, "s")
    model = universal_semijective(alg, depth)
    images = semiinvariants(sub, tensor(model.right, module), depth)

    def inert(eid, w):
        return SparseMatrix(module.dim(wt_add(w, alg.weight(eid))), module.dim(w))

    # g acts on US only: on M's weight spaces with the zero action
    left = tensor(model.left, WeightModule(alg, f"{module.name}⁰", module.weights, inert, module.depth))
    escaped = "s_ind: left action left the semi-invariant subspace at weight"
    return _descended_module(name, "s", images, left, escaped)


class WakimotoSpace(_PairSpace):
    """Q = US(g) ⊗_{U(h≤0)} C_{lambda+beta} for a subalgebra h holding the
    degree-0 part (ā for the Wakimoto module); ``left`` is the left action
    of g that S-ind descends."""

    left_matrix = _PairSpace.left_matrix


def _quotient_s_ind(alg, sub, module, depth, name, prefix) -> WeightModule:
    """S-ind of C_lambda from ``sub`` = h, built inside Q (pairs of a dual
    positive monomial and a c≤0 monomial), lambda read off the module's
    degree-0 action.  The span of the top vector under g is built first;
    weights still short of the product-formula character are completed
    with exact finitely-supported h+ invariants found by a truncation
    solve.  Dimensions are certified against the character and the action
    against the commutator oracle by the callers/tests."""
    zero = wt_zero(alg.rank)
    where = f"s_ind over {alg.name}, whose degree-0 part is not zero"
    if not isinstance(sub, SubalgebraSpec):
        raise InductionError(f"{where}: S-ind from {sub.name} to itself is not built; sub must be a subalgebra view")
    missing = [alg.label(e) for e in alg.elements_of_degree(0) if not sub.is_member(e)]
    if missing:
        raise InductionError(f"{where}: {sub.name} must hold that part, and misses {', '.join(missing)}")
    if list(module.weights) != [zero] or module.dim(zero) != 1:
        raise InductionError(f"{where}: the module must be one-dimensional at weight 0, and {module.name} is not")
    try:
        check_closure(SubalgebraSpec(alg, "complement", lambda e: not sub.is_member(e)), -depth, depth)
    except AlgebraError as err:
        raise InductionError(f"{where}: the complement of {sub.name} must be a subalgebra: {err}") from err
    lam = {e: module.action(e, zero).get(0, 0) for e in alg.elements_of_degree(0)}
    space = WakimotoSpace(alg, f"Q[{sub.name}]({module.name})", depth, sub, lam)
    target_char = product_formula_character(alg, depth)
    spans = {zero: Subspace().extend([[int(pair == ((), ())) for pair in space.basis(zero)]])}
    for w in sorted(space.weights, key=lambda w: -alg.ell(w)):
        if w == zero:
            continue
        # one echelon per weight: it picks the basis here and reads every
        # image coordinate of the descended action later
        span = Subspace()
        for z in alg.elements_in_degrees(-depth, -1):  # the lowering operators
            src = wt_sub(w, alg.weight(z))
            if src in spans:
                span.extend(space.left.action(z, src).images(spans[src].basis))
        want = target_char.coefficient(w)
        if len(span) < want:
            _invariant_completion(space, w, span, want)
        if len(span) != want:
            raise InductionError(f"{name}: weight {w}: spanned {len(span)} of {want} expected dimensions")
        if span:
            spans[w] = span
    escaped = f"{name}: action escaped the constructed submodule at"
    return _descended_module(name, prefix, spans, space.left, escaped)


def wakimoto(alg, lam: dict, depth: int) -> WeightModule:
    """The Wakimoto module W(lambda) = S-ind(g, ā, C_lambda), with W's name
    and ``w`` labels."""
    alg.ensure_window(-2 * depth - 4, 2 * depth + 4)
    abar = subalgebra(alg, "abar")
    return _quotient_s_ind(alg, abar, character_module(abar, lam, depth), depth, f"W({_lam_str(lam)})", "w")


# longest h≤0 tail the invariant completion tries before giving up
_TAIL_CAP = 3


def _invariant_completion(space, w, span, want):
    """Extend ``span``, the Subspace of Q at weight w, to at least ``want``
    vectors with projections of exact finitely-supported h+ invariants
    of US ⊗ C_lambda (expanding truncation solve).  The span keeps its
    basis first and adds the independent projections after it.

    X is spanned by triples (q, m_c, m_h); the truncation bounds the
    h≤0 tail length.  A triple projects to Q as the pair space reduces
    a peeled monomial: ``reduce_m`` of m_c·m_h evaluates lambda+beta on
    the tail.  Each projection is a dense vector over Q's basis at w, which
    is what the span and ``SparseMatrix.images`` read.  Invariance under
    every relevant positive element of h is imposed exactly (conditions
    land in a once-extended truncation), so every solution projects into
    the semi-induced subspace.
    A tail's kernel holds every shorter tail's kernel, so the projections a
    short tail adds stay in the span that a longer one reaches.  Raises
    InductionError when tails of length _TAIL_CAP still fall short.
    """
    alg = space.alg
    budget = -alg.ell(w)
    etas = [e for e in alg.elements_in_degrees(1, max(budget, 1)) if space.in_h(e)]
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
        index = space._index[w]
        for k in kernel:
            vec = [0] * space.dim(w)
            for c, (q, mc, mh) in zip(k, xbasis):
                if c:
                    coeff, m = space.reduce_m(mc + mh)
                    if coeff:
                        vec[index[(q, m)]] += c * coeff
            span.extend([vec])  # a zero projection is dropped
        if len(span) >= want:
            return
    raise InductionError(
        f"s_ind: weight {w}: invariant completion spans {len(span)} of {want} dimensions "
        f"with h≤0 tails up to the cap of length {_TAIL_CAP}"
    )


def _truncated_x_basis(space, w, tail_len: int):
    """Sorted triples (q, m_c, m_h) of weight w with h≤0 tail of length at
    most ``tail_len``.

    The tails are the multisets of h≤0 elements of each length 0..tail_len,
    not ``monomials_by_weight``'s table: a length cap is not a degree budget.
    The degree-0 elements 1⊗h, K and d cost no degree, so a degree-budget
    superset cut down by length would enumerate far more monomials than it
    keeps."""
    alg = space.alg
    h_neg = sorted((e for e in alg.elements_in_degrees(-space.depth, 0) if space.in_h(e)), key=space.order.key)
    tails_by_weight: dict = {}
    for n in range(tail_len + 1):
        for word in combinations_with_replacement(h_neg, n):
            tail = compress(word)
            tails_by_weight.setdefault(monomial_weight(alg, tail), []).append(tail)
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
    """Rows of r_eta on the truncated X, exact conditions.  Invariance is
    the kernel of -r_eta, which is the kernel of r_eta.

    The action may lengthen the h≤0 tail by bounded amounts, so rows are
    keyed by the target pair (q, m) as it turns up, in first-seen order;
    the kernel depends only on the row space.
    """
    rows: dict = {}
    for ci, (q0, mc, mh) in enumerate(xbasis):
        for q, m, c in space._right_terms(q0, mc + mh, eta):
            row = rows.setdefault((q, m), {})
            row[ci] = row.get(ci, 0) + c
    return [{c: v for c, v in row.items() if v} for row in rows.values()]


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
    dim_diffs = _dim_diffs({w: len(b) for w, b in residual.weights.items()}, ndims)
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
