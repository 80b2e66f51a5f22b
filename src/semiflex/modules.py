"""Category-O modules as per-weight action matrices, characters, and
classical Lie algebra (co)homology.

Module weights are stored relative to the highest weight: integer lattice
tuples w with ell(w) <= 0, the highest weight itself sitting at the zero
tuple.  The induced modules (verma, coverma) act on their PBW basis
vectors by pbw.induced_action, the Verma recursion
x·(y·u) = y·(x·u) + [x, y]·u on the first factor y (run in the opposite
algebra for coverma's right module), with a memo per module; it is the
recursion that multiplies in U(g), and this module has none of its own.
The character of the inducing datum enters only through the scalars
lambda(label) on the degree-0 basis, where the recursion reaches the top
vector.  One reader, _lambda_values, turns lambda into those scalars for
every constructor here and for the Wakimoto module, and raises
AlgebraError for a key that is not the label of a degree-0 element.
Each module clears lambda once: the recursion runs on q times its
values, q the lcm of their denominators, so over integral structure
constants it is int arithmetic at any lambda.  The rule hands the
recursion's integers over as they are, in a matrix that holds them over
the denominator q for an element outside the free part and 1 for a free
one (linalg.SparseMatrix.from_cleared; rational structure constants are
cleared into the same form).  The exact entries, an int wherever the value
is integral and a Fraction otherwise, are made in linalg, on the first
read of the matrix's rows, so an integral lambda (given as int or
Fraction) yields all-int matrices.

Every action matrix in the package, the left and right actions of US and
the left action of the Wakimoto quotient included, is read through
WeightModule.action: one cache per module, built once per (element,
weight), and one depth guard, a WindowError for any action that leaves the
materialized depth.

The correctness oracle for every constructor is the representation property
(commutator of action matrices = action of the bracket), and
check_commutators is its one loop.  It has two uses.  Given one module a,
it checks a(x) a(y) - a(y) a(x) = a([x, y]) on the pairs x < y: the
mirrored pairs are the same identity, and x = y is a tautology, since
[x, x] = 0.  Every module in the package is a left module, both actions of
US included (its right action enters as z -> -r_z), so this one check
serves them all.  Given a second module b on the same weight space (US's
left and right actions), it checks that a(x) and b(y) commute, on every
ordered pair.  It reads each action matrix's cleared form once per check
(linalg.cleared, which returns an induced module's held integers with no
scan or copy), dropped after the last weight that reads it, and tests the
sum of the terms for zero in exact integers (linalg.residual_nnz).  So a
non-integral lambda makes no Fraction in the oracle at either end: the
recursion that builds the matrices is integer, and the check sums the
integers the rule wrote; no exact entry is made unless a matrix's rows
are read.  The test suite exercises it relentlessly.

Chevalley-Eilenberg (co)homology has no complex of its own: it is the
semi-infinite complex (forms.semiinf_cohomology) of a strictly positive or
strictly negative subalgebra, d^2 = 0 checked per cell, with the table
relabelled to CE degrees.
"""

from __future__ import annotations

from math import lcm

from .forms import CohomologyTable, semiinf_cohomology
from .liealg import AlgebraError, WindowError, exact, same_root, subalgebra, wt_add, wt_neg, wt_zero
from .linalg import SparseMatrix, cleared, residual_nnz
from .pbw import canonical_order, descending_order, enumerate_pbw_weights, induced_action, monomial_label

__all__ = [
    "WeightModule",
    "Character",
    "CohomologyTable",
    "verma",
    "coverma",
    "character",
    "product_formula_character",
    "ce_cohomology",
    "ce_homology",
    "character_module",
    "direct_sum",
    "check_commutators",
]


class ModuleError(Exception):
    pass


class WeightModule:
    """A weight-graded module materialized to a fixed depth.

    ``weights`` maps each relative weight (ell in [-depth, 0]) to its list of
    basis labels; ``rule(eid, w)`` produces the action matrix M_w -> M_{w+wt}.
    ``action`` calls the rule at most once per (eid, w) and keeps the
    matrix; it never calls it for a zero source or a target above the top,
    and raises WindowError for a target below the depth.  Every module
    weight with ell >= -depth is present, so a missing key means the weight
    space is zero.
    """

    def __init__(self, alg, name, weights, rule, depth):
        self.alg = alg
        self.name = name
        self.depth = depth
        self.weights = {tuple(w): list(basis) for w, basis in weights.items() if basis}
        self._rule = rule
        self._cache: dict = {}

    def dim(self, w) -> int:
        return len(self.weights.get(tuple(w), ()))

    def in_depth(self, w) -> bool:
        return -self.depth <= self.alg.ell(w) <= 0

    def action(self, eid: int, w) -> SparseMatrix:
        """Matrix of the basis element ``eid``: M_w -> M_{w + wt(eid)}."""
        w = tuple(w)
        key = (eid, w)
        m = self._cache.get(key)
        if m is None:
            target = wt_add(w, self.alg.weight(eid))
            if self.alg.ell(target) > 0 or self.dim(w) == 0:
                m = SparseMatrix(self.dim(target), self.dim(w))
            elif not self.in_depth(target) or not self.in_depth(w):
                raise WindowError(
                    f"{self.name}: action of {self.alg.label(eid)} at weight {w} "
                    f"needs weights outside depth {self.depth}"
                )
            else:
                m = self._rule(eid, w)
            self._cache[key] = m
        return m

    def __repr__(self):
        total = sum(len(b) for b in self.weights.values())
        return f"WeightModule({self.name}, depth={self.depth}, total dim={total})"


# -- constructors ---------------------------------------------------------------


def _lambda_values(alg, lam: dict) -> dict:
    """lambda as {degree-0 eid: exact nonzero value}, the one reader of a
    lambda: each key must be the label of a degree-0 element of ``alg`` (a
    member, for a view), and an AlgebraError names any other key.
    Evaluating lambda on a factor of nonzero degree gives 0."""
    values = {}
    for label, v in lam.items():
        e = alg.by_label(label)
        if alg.degree(e) != 0:
            raise AlgebraError(f"{alg.name}: lambda key {label!r} has degree {alg.degree(e)}, not 0")
        if v := exact(v):
            values[e] = v
    return values


def _induced_module(alg, name, tab, values, depth, right=False) -> WeightModule:
    """U(alg) ⊗ C_values on ``tab``, {weight: PBW monomials of the strictly
    negative part, increasing in the canonical order}.  With ``right``, the
    monomials span the strictly positive part, listed at negated weights,
    and the module is the dual of C_values ⊗ U(alg): row p of the matrix of
    z holds p·z in the column basis.

    The recursion runs on q times the values, q the lcm of their
    denominators, and the rule returns its integers as they are: a matrix
    built ``SparseMatrix.from_cleared`` over q for a non-free element and 1
    for a free one, times the lcm of the coefficients' denominators where
    the structure constants are rational."""
    labels = {w: [monomial_label(alg, m) + ("*" if right else "") for m in mons] for w, mons in tab.items()}
    q = lcm(*(v.denominator for v in values.values() if type(v) is not int))
    values = {e: int(q * v) for e, v in values.items()}
    if right:
        # the right module runs the recursion in the opposite algebra, on reversed monomials
        tab = {w: [m[::-1] for m in mons] for w, mons in tab.items()}
        order, sign = descending_order(alg), -1
    else:
        order, sign = canonical_order(alg), 1

    def free(e) -> bool:
        return sign * alg.degree(e) < 0

    act = induced_action(alg, free, order, values, sign, {}, q)
    index = {w: {m: i for i, m in enumerate(mons)} for w, mons in tab.items()}

    def rule(eid, w):
        target = wt_add(w, alg.weight(eid))
        rows = [{} for _ in tab.get(target, ())]
        at, to = (target, w) if right else (w, target)
        to_index = index.get(to, {})
        dens = set()
        # the monomials act returns are distinct and the index is a bijection,
        # so each (row, column) is written once
        for i, mon in enumerate(tab.get(at, ())):
            for out, coeff in act(eid, mon).items():
                j = to_index.get(out)
                if j is None:
                    raise ModuleError(f"{name}: {alg.label(eid)} from weight {w} to weight {target} leaves the basis")
                if type(coeff) is not int:
                    dens.add(coeff.denominator)
                if right:
                    rows[i][j] = coeff
                else:
                    rows[j][i] = coeff
        d = 1
        if dens:  # rational structure constants: clear the coefficients into the same form
            d = lcm(*dens)
            rows = [{c: int(v * d) for c, v in row.items()} for row in rows]
        return SparseMatrix.from_cleared(d * (1 if free(eid) else q), rows, len(tab.get(w, ())))

    return WeightModule(alg, name, labels, rule, depth)


def verma(alg, lam: dict, depth: int) -> WeightModule:
    """Highest-weight module induced from the character ``lam`` of g_0.

    Basis: PBW monomials in the strictly negative part, in the canonical
    order, applied to the highest-weight vector v.  An element acts by the
    Verma recursion on basis vectors: a negative element that sorts before
    the first factor is prepended, and otherwise it is commuted past that
    factor, x·(y·u) = y·(x·u) + [x, y]·u, down to x·v, which is x·v itself
    for negative x, lambda(x) v in degree 0 and 0 for positive x.
    """
    alg.ensure_window(-2 * depth - 4, 2 * depth + 4)
    values = _lambda_values(alg, lam)
    tab = enumerate_pbw_weights(subalgebra(alg, "g_below_zero"), depth, canonical_order(alg))
    return _induced_module(alg, f"V({_lam_str(lam)})", tab, values, depth)


def coverma(alg, lam: dict, depth: int) -> WeightModule:
    """Contragredient Verma module realized on dual PBW monomials of U(g_+).

    The action is (z·phi)(p) = phi(p z), where p z is read in the right
    module C_lambda ⊗ U(g_+) induced from g_{<=0}: the mirror of the Verma
    recursion peels the last factor y of p, (u·y)·z = (u·z)·y + u·[y, z],
    down to v·z, which is v·z for positive z, lambda(z) v in degree 0 and 0
    for negative z.
    """
    alg.ensure_window(-2 * depth - 4, 2 * depth + 4)
    values = _lambda_values(alg, lam)
    ptab = enumerate_pbw_weights(subalgebra(alg, "gplus"), depth, canonical_order(alg))
    tab = {wt_neg(w): mons for w, mons in ptab.items()}
    return _induced_module(alg, f"V*({_lam_str(lam)})", tab, values, depth, right=True)


def _lam_str(lam: dict) -> str:
    return ",".join(f"{k}={exact(v)}" for k, v in sorted(lam.items())) or "0"


def character_module(alg, lam: dict, depth: int = 0) -> WeightModule:
    """One-dimensional module C_lambda over an algebra or subalgebra view.

    Degree-0 members act by lambda, everything else by zero; the caller is
    responsible for lambda vanishing on brackets (checked by the oracle).
    """
    values = _lambda_values(alg, lam)
    zero = wt_zero(alg.rank)

    def rule(eid, w):
        target = wt_add(w, alg.weight(eid))
        mat = SparseMatrix(1 if target == zero else 0, 1 if tuple(w) == zero else 0)
        if target == zero and tuple(w) == zero and eid in values:
            mat.add(0, 0, values[eid])
        return mat

    return WeightModule(alg, f"C_({_lam_str(lam)})", {zero: ["1"]}, rule, depth)


def direct_sum(m1: WeightModule, m2: WeightModule) -> WeightModule:
    if not same_root(m1.alg, m2.alg):
        raise ModuleError("direct sum needs modules over the same algebra")
    depth = min(m1.depth, m2.depth)
    weights: dict = {}
    for w in set(m1.weights) | set(m2.weights):
        if m1.alg.ell(w) >= -depth:
            weights[w] = [f"L:{b}" for b in m1.weights.get(w, [])] + [f"R:{b}" for b in m2.weights.get(w, [])]

    def rule(eid, w):
        target = wt_add(w, m1.alg.weight(eid))
        a = m1.action(eid, w)
        b = m2.action(eid, w)
        mat = SparseMatrix(len(weights.get(target, ())), len(weights.get(tuple(w), ())))
        for i, row in enumerate(a.rows):
            for c, v in row.items():
                mat.add(i, c, v)
        off_r, off_c = m1.dim(target), m1.dim(w)
        for i, row in enumerate(b.rows):
            for c, v in row.items():
                mat.add(off_r + i, off_c + c, v)
        return mat

    return WeightModule(m1.alg, f"{m1.name}⊕{m2.name}", weights, rule, depth)


# -- oracle ----------------------------------------------------------------------


def check_commutators(a: WeightModule, gen_window: tuple, weights=None, b=None) -> list:
    """Failures [(x, y, weight)] of the commutator oracle.

    Without ``b``: the representation property a(x) a(y) - a(y) a(x) =
    a([x, y]), on pairs x < y only (y < x is the same identity mirrored,
    and x = y a tautology, since [x, x] = 0).  With ``b``, a module over the
    same algebra on the same weight space (US's right action beside its
    left one, say): a(x) b(y) = b(y) a(x), on every ordered pair.  Both
    modules are read through ``action``.
    Checked for every weight in ``weights`` (default: all of a's, sorted)
    and generator pair in the degree window whose three intermediate
    weights lie within a's depth or above the top (ell is linear, so
    ell(w + wt x + wt y) = ell(w) + ell(wt x) + ell(wt y)).  Each matrix is
    cleared of its denominators once per check (linalg.cleared) and dropped
    after the last weight that reads it, and linalg.residual_nnz sums the
    residual in exact integers: a pair fails when it has a nonzero entry.
    A WindowError from an action propagates: skipping the pair would
    report an unchecked pass.
    """
    alg, depth = a.alg, a.depth
    lo, hi = gen_window
    alg.ensure_window(min(lo + lo, lo), max(hi + hi, hi))
    gens = alg.elements_in_degrees(lo, hi)
    if weights is None:
        weights = sorted(a.weights)
    mirrored = b is None
    if mirrored:
        b = a
    ells = {g: alg.ell(alg.weight(g)) for g in gens}
    # outer weight i reads matrices at weights[i] and at shifted[i][g] = weights[i] + wt(g)
    shifted = [{g: wt_add(w, alg.weight(g)) for g in gens} for w in weights]
    last = {v: i for i, w in enumerate(weights) for v in (w, *shifted[i].values())}
    memo: dict = {}  # source weight v -> {(module, eid): cleared matrix}, dropped after outer weight last[v]

    def clear(module, eid, v):
        at = memo.get(v)
        if at is None:
            at = memo[v] = {}
        m = at.get((module, eid))
        if m is None:
            m = at[module, eid] = cleared(module.action(eid, v))
        return m

    failures = []
    for i, w in enumerate(weights):
        shift, ncols = shifted[i], a.dim(w)
        floor = -depth - alg.ell(w)  # ell(w + v) < -depth iff ell(v) < floor
        for x in gens:
            for y in gens:
                if mirrored and y <= x or min(ells[x], ells[y], ells[x] + ells[y]) < floor:
                    continue
                terms = [(1, clear(a, x, shift[y]), clear(b, y, w)), (-1, clear(b, y, shift[x]), clear(a, x, w))]
                if mirrored:
                    terms += [(-cf, clear(a, k, w), None) for k, cf in alg.bracket_ids(x, y).items()]
                if residual_nnz(terms, ncols):
                    failures.append((alg.label(x), alg.label(y), w))
        for v in [v for v in memo if last[v] == i]:
            del memo[v]
    return failures


# -- characters -------------------------------------------------------------------


class Character:
    """Weight multiplicities relative to the highest weight, to depth D."""

    def __init__(self, depth: int, coefficients: dict):
        self.depth = depth
        self.coefficients = {tuple(w): int(c) for w, c in coefficients.items() if c}

    def coefficient(self, w) -> int:
        return self.coefficients.get(tuple(w), 0)

    def __eq__(self, other):
        return self.coefficients == other.coefficients

    def items(self):
        return sorted(self.coefficients.items())

    def __repr__(self):
        return f"Character(depth={self.depth}, {len(self.coefficients)} weights)"


def character(module: WeightModule, depth: int | None = None) -> Character:
    if depth is None:
        depth = module.depth
    if depth > module.depth:
        raise WindowError(f"character to depth {depth} needs module depth >= {depth}")
    coeffs = {
        w: len(basis)
        for w, basis in module.weights.items()
        if module.alg.ell(w) >= -depth
    }
    return Character(depth, coeffs)


def product_formula_character(alg, depth: int) -> Character:
    """Truncated expansion of prod over positive roots of (1-e^{-root})^{-mult}.

    Roots and multiplicities are read off the materialized positive part of
    the algebra; coefficients are exact integers.
    """
    alg.ensure_window(-depth, depth)
    return Character(depth, _pbw_dims(alg, [wt_neg(alg.weight(e)) for e in alg.elements_in_degrees(1, depth)], depth))


def _pbw_dims(alg, weights, depth: int) -> dict:
    """{weight: dimension} of prod over ``weights`` of 1/(1-e^w), to
    |ell| <= depth: by PBW, the graded dimensions of U(n) for n with a basis
    of those weights.  The weights all have ell of one sign, never 0."""
    poly = {wt_zero(alg.rank): 1}
    for root in sorted(weights):
        out: dict = {}
        for w, c in poly.items():
            while abs(alg.ell(w)) <= depth:
                out[w] = out.get(w, 0) + c
                w = wt_add(w, root)
        poly = out
    return poly


# -- Chevalley-Eilenberg (co)homology ----------------------------------------------


def ce_cohomology(npart, module: WeightModule, depth: int, weights=None) -> CohomologyTable:
    """Chevalley-Eilenberg cohomology of a strictly positive subalgebra.

    The semi-infinite complex of a strictly positive algebra has no
    nonpositive slots: its forms are the wedges of members, so it is the CE
    cochain complex with the ghost as cohomological degree, and d^2 = 0 is
    checked per cell.  Every relative weight w with -depth <= ell(w) <= 0
    where the complex is nonzero is computed in full (degrees up to -ell(w)).
    """
    npart.ensure_window(-depth, 0)
    if npart.elements_in_degrees(-depth, 0):
        raise ModuleError("ce_cohomology needs a strictly positively graded subalgebra")
    return _ce_table("ce-cohomology", semiinf_cohomology(npart, module, depth, weights), weights, 1)


def ce_homology(negpart, module: WeightModule, depth: int, weights=None) -> CohomologyTable:
    """Chevalley-Eilenberg homology of a strictly negative subalgebra.

    The semi-infinite forms of a strictly negative algebra are removals
    only: removing n members is the chain x_1 ^ ... ^ x_n at ghost -n, and
    the semi-infinite differential is the CE boundary.  Degree n of the
    table is ghost -n of that complex, d^2 = 0 checked per cell.
    """
    negpart.ensure_window(0, depth)
    if negpart.elements_in_degrees(0, depth):
        raise ModuleError("ce_homology needs a strictly negatively graded subalgebra")
    return _ce_table("ce-homology", semiinf_cohomology(negpart, module, depth, weights), weights, -1)


def _ce_table(kind: str, semiinf: CohomologyTable, weights, sign: int) -> CohomologyTable:
    """Degree n is ghost sign * n; each weight lists every degree from 0 to
    its top one, empty ones included, and a requested weight without
    cochains gets the row (w, 0) with dimension 0."""
    tops = {tuple(w): 0 for w in weights or ()}
    for w, n in semiinf.cells:
        tops[w] = max(tops.get(w, 0), sign * n)
    table = CohomologyTable(kind)
    for w, top in tops.items():
        for n in range(top + 1):
            table.set(w, n, semiinf.dim(w, sign * n), semiinf.complex_dims.get((w, sign * n), 0))
    return table
