"""Semi-infinite forms, Clifford operators, the standard complex and its
cohomology, and the semi-invariants functor.

A semi-infinite monomial differs from the vacuum in finitely many slots and
is stored as (added, removed): added is a sorted tuple of positive-degree
basis ids wedged in, removed a sorted tuple of nonpositive-degree ids
deleted from the tail.  Slots are ordered by descending canonical key (the
added part on top, then the whole nonpositive part of the algebra); moving
an operator past k occupied slots costs (-1)^k, which fixes every sign.
The monomials of each ell(mu) come from a per-(algebra, ell) index, built
once from the PBW monomial enumerator with exponents capped at 1.  The
complex at total weight w reads its cells off that index alone: every mu
with 0 <= ell(mu) <= -ell(w) and M_{w+mu} nonzero.  Each ghost degree is
laid out once as a run of (monomial, mu) blocks in sorted order, each
dim M_{w+mu} wide (the layout semi-induction uses for US ⊗ M), so a
differential finds the columns of a term with one lookup per row block.

The differential has two terms.  The single-slot term removes an occupied
slot y with its position sign and applies the module action of y plus, for
degree-0 slots, a scalar charge.  The pair term removes two occupied slots
and wedges their normally ordered bracket back in: when the bracket lands
in the nonpositive part, its components along the two removed slots are
projected away (orthonormal basis convention) — those slot-restoring pieces
are an infinite, occupancy-independent sum, and the charge is exactly their
regularized value: beta on the vacuum, corrected by the bracket eigenvalue
of every removed tail slot.  Both terms are finite at fixed total weight
because the coefficient module is bounded above.  Everything in a row but
the module action (the contraction signs, the sub-monomials, the degree-0
charges and the pair terms) depends on the form monomial alone, and the
single-slot list also on the lowest slot degree the complex reaches; it is
built once per algebra (or view) in a memo next to the form index and read
at every weight where the monomial comes back.  d^2 = 0 is checked cell
by cell in exact integers (linalg.residual_nnz on the differentials, each
cleared once per weight and ranked on those rows), and a failure is
reported as a structured AnomalyError carrying the offending (weight,
ghost) cell, not an assertion.

Over a one-sided algebra the complex is classical: a strictly positive
algebra has no tail, so the forms are wedges of members and the complex is
the Chevalley-Eilenberg cochain complex; a strictly negative one has
nothing to add, so the forms are removals and the complex is the CE chain
complex with ghost -n in chain degree n.  modules.ce_cohomology and
modules.ce_homology are this complex, so d^2 = 0 is checked there too.
"""

from __future__ import annotations

from .liealg import AlgebraError, WindowError, same_root, wt_add, wt_sub, wt_zero
from .linalg import SparseMatrix, Subspace, cleared, residual_nnz
from .pbw import monomials_by_weight

__all__ = [
    "VACUUM",
    "wedge",
    "contract",
    "enumerate_forms",
    "semiinf_cohomology",
    "semiinvariants",
    "AnomalyError",
    "CohomologyTable",
]

VACUUM = ((), ())


class AnomalyError(Exception):
    """The (algebra, beta, module) triple is not consistent at one (weight,
    ghost) cell: d^2 != 0 there, or a charged degree-0 slot of nonzero weight."""

    def __init__(self, weight, ghost, problem):
        self.weight = weight
        self.ghost = ghost
        super().__init__(f"{problem} at weight {weight}, ghost {ghost}")


def monomial_str(alg, mono) -> str:
    added, removed = mono
    parts = [alg.label(e) for e in added] + [f"~{alg.label(e)}" for e in removed]
    return "ω₀" if not parts else "∧".join(parts) + "∧ω₀"


def _tail_above(alg, x) -> int:
    """Number of tail slots (nonpositive degree) with key strictly above x.

    Counted once per (algebra or view, x): windows are contiguous and hold
    degree 0, and materialized degrees never change, so the count is fixed
    once x exists."""
    count = alg._tail_counts.get(x)
    if count is None:
        kx = alg.key(x)
        count = sum(1 for d in range(alg.degree(x), 1) for e in alg.elements_of_degree(d) if alg.key(e) > kx)
        alg._tail_counts[x] = count
    return count


def _slots_above(alg, mono, x) -> int:
    """Occupied slots strictly above x in the descending slot order."""
    added, removed = mono
    kx = alg.key(x)
    above = sum(1 for e in added if alg.key(e) > kx)
    if alg.degree(x) <= 0:
        above += _tail_above(alg, x)
        above -= sum(1 for e in removed if alg.key(e) > kx)
    return above


def _flip(alg, x, mono, create: bool):
    """Clifford creation (wedge) or annihilation (contract) at the slot of x:
    (sign, monomial), or None when the slot is already full, resp. empty.
    A positive slot is occupied when x is added, a nonpositive one unless x
    is removed; the sign counts the occupied slots above x.  Either part
    gains or loses x and stays sorted by id."""
    added, removed = mono
    if alg.degree(x) > 0:
        if (x in added) == create:
            return None
        added = tuple(sorted(set(added) ^ {x}))
    else:
        if (x in removed) != create:
            return None
        removed = tuple(sorted(set(removed) ^ {x}))
    return (-1) ** _slots_above(alg, mono, x), (added, removed)


def wedge(alg, x, mono):
    """x wedge mono; returns (sign, monomial) or None when the slot is full."""
    return _flip(alg, x, mono, True)


def contract(alg, x, mono):
    """Interior product with the dual of x; None when the slot is empty."""
    return _flip(alg, x, mono, False)


def _forms_at(alg, ell: int) -> dict:
    """{mu: {n: sorted monomials}} for every relative weight mu with
    ell(mu) == ell, built once per algebra and ell and read-only afterwards."""
    got = alg._form_index.get(ell)
    if got is None:
        got = alg._form_index[ell] = _build_forms(alg, ell)
    return got


def _build_forms(alg, ell: int) -> dict:
    """ell(mu) = total degree of the added part + total |degree| of the
    removed part, so both subset tables are exact under the budget ell
    (degree-0 removals are free).  The parts are wedges, exponents capped at
    1; monomials keep them sorted by id, as ``_flip`` does."""
    alg.ensure_window(-ell - 1, ell + 1)
    pos = monomials_by_weight(alg, sorted(alg.elements_in_degrees(1, ell), key=alg.key), ell, 1)
    neg = monomials_by_weight(alg, sorted(alg.elements_in_degrees(-ell, 0), key=alg.key), ell, 1)
    rems_by_ell: dict = {}
    for wr, rems in neg.items():
        rems_by_ell.setdefault(alg.ell(wr), []).append((wr, [tuple(sorted(e for e, _ in r)) for r in rems]))
    out: dict = {}
    for wa, adds in pos.items():
        adds = [tuple(sorted(e for e, _ in a)) for a in adds]
        for wr, rems in rems_by_ell.get(alg.ell(wa) - ell, ()):
            cells = out.setdefault(wt_sub(wa, wr), {})
            for a in adds:
                for r in rems:
                    cells.setdefault(len(a) - len(r), []).append((a, r))
    for cells in out.values():
        for monos in cells.values():
            monos.sort()
    return out


def enumerate_forms(alg, mu, n: int) -> list:
    """All monomials of relative weight mu and ghost degree n, sorted.

    Finite: added subsets satisfy ell >= |added|, removed subsets live in
    degrees [-ell(mu), 0].  Read from the per-ell index (which extends the
    window to [-ell(mu) - 1, ell(mu) + 1] when first built); the list is
    the caller's own.
    """
    ell = alg.ell(mu)
    if ell < 0:
        return []
    return list(_forms_at(alg, ell).get(tuple(mu), {}).get(n, ()))


# -- the standard complex ------------------------------------------------------------


class SemiInfComplex:
    """The standard complex at one total weight, all ghost degrees.

    Its cells are read off the form index: every relative weight mu with
    0 <= ell(mu) <= lmax = -ell(w) and M_{w+mu} nonzero.  Each ghost degree
    is laid out once as a run of (monomial, mu) blocks, mu then monomial in
    sorted order, each dim M_{w+mu} wide: basis vector b of a block sits at
    its start plus b, and ``basis(n)`` lists the keys (monomial, mu, b) in
    that order.  A row block of the differential reads its form side from
    the algebra's row-term memo ``alg._row_terms`` (see ``_row_terms``): the
    pair terms keyed by the monomial, each single-slot term by (monomial,
    slot), and a row's list of slots by (monomial, dmin) with
    dmin = ell(mu) - lmax.  Per weight it looks up one column block per term
    and writes the module action's rows at that block's start; an anomalous
    charge is raised at this complex's own (w, n).
    """

    def __init__(self, alg, module, w):
        self.alg = alg
        self.module = module
        self.w = tuple(w)
        self.lmax = -alg.ell(w)
        alg.ensure_window(-2 * self.lmax - 4, 2 * self.lmax + 4)
        self._widths: dict = {}  # {mu: dim M_{w+mu}}, nonzero widths only
        self._starts: dict = {}  # {n: {(monomial, mu): start}}
        self._dims: dict = {}
        for mu in sorted(mu for ell in range(self.lmax + 1) for mu in _forms_at(alg, ell)):
            width = module.dim(wt_add(self.w, mu))
            if not width:
                continue
            self._widths[mu] = width
            for n in _forms_at(alg, alg.ell(mu))[mu]:
                starts, start = self._starts.setdefault(n, {}), self._dims.get(n, 0)
                for mono in enumerate_forms(alg, mu, n):
                    starts[(mono, mu)] = start
                    start += width
                self._dims[n] = start

    def dim(self, n: int) -> int:
        return self._dims.get(n, 0)

    def basis(self, n: int) -> dict:
        """{(monomial, mu, b): index} in layout order."""
        starts = self._starts.get(n, {})
        return {(mono, mu, b): start + b for (mono, mu), start in starts.items() for b in range(self._widths[mu])}

    def ghost_range(self):
        """Ghost degrees with a nonempty basis, in increasing order."""
        return sorted(self._dims)

    def matrix(self, n: int) -> SparseMatrix:
        """The differential C^n_w -> C^{n+1}_w, built afresh on each call."""
        alg, module, w = self.alg, self.module, self.w
        cols = self._starts.get(n, {})
        mat = SparseMatrix(self.dim(n + 1), self.dim(n))
        for (mono, mu), r0 in self._starts.get(n + 1, {}).items():
            width = self._widths[mu]
            slots, pairs = _row_terms(alg, mono, mu, alg.ell(mu) - self.lmax)
            # single-slot term: (y + charge(y)) phi(iota_y omega)
            for y, s, sub, mu2, charge in slots:
                if charge and alg.weight(y) != wt_zero(alg.rank):
                    raise AnomalyError(
                        w, n, f"degree-0 slot {alg.label(y)} of nonzero weight {alg.weight(y)} carries charge {charge}"
                    )
                c0 = cols.get((sub, mu2))
                if c0 is None:
                    continue  # M_{w+mu2} = 0: no cells, and the action would be zero
                for b, row in enumerate(module.action(y, wt_add(w, mu2)).rows):
                    for bb, v in row.items():
                        mat.add(r0 + b, c0 + bb, s * v)
                if charge:
                    for b in range(width):
                        mat.add(r0 + b, c0 + b, s * charge)
            # pair term: -phi(:[y_i,y_j]: ^ iota_j iota_i omega)
            for coeff, sub in pairs:
                c0 = cols.get((sub, mu))
                if c0 is not None:
                    for b in range(width):
                        mat.add(r0 + b, c0 + b, coeff)
        return mat


def _row_terms(alg, mono, mu, dmin):
    """(single-slot terms, pair terms) of a row monomial ``mono`` of weight
    ``mu``, read from the algebra's memo ``alg._row_terms`` (one per algebra
    or view, like ``_form_index``): ``{mono: (pair terms, {dmin: single-slot
    terms}, {y: single-slot term})}``.  Each part is keyed by exactly what it
    reads: the pair terms by the monomial alone, the term of slot y by the
    monomial and y, and the list of terms also by dmin = ell(mu) - lmax, the
    lowest slot degree whose removal still lands in the complex (mu is fixed
    by the monomial).  Lists for different dmin share their terms."""
    entry = alg._row_terms.get(mono)
    if entry is None:
        entry = alg._row_terms[mono] = (_pair_terms(alg, mono), {}, {})
    pairs, slots_by_dmin, slot_of = entry
    slots = slots_by_dmin.get(dmin)
    if slots is None:
        slots = slots_by_dmin[dmin] = []
        for y in _occupied(alg, mono, dmin):
            term = slot_of.get(y)
            if term is None:
                term = slot_of[y] = _slot_term(alg, mono, mu, y)
            slots.append(term)
    return slots, pairs


def _occupied(alg, mono, dmin):
    """The occupied slots of degree at least ``dmin``: the added members,
    then the unremoved tail slots by ascending degree."""
    added, removed = mono
    yield from added
    for d in range(dmin, 1):
        for y in alg.elements_of_degree(d):
            if y not in removed:
                yield y


def _slot_term(alg, mono, mu, y):
    """(y, contraction sign, monomial minus y, mu - wt y, charge) for an
    occupied slot y.  charge is None off degree 0; on a degree-0 slot it is
    beta(y) adjusted for the deviation of the occupancy from the vacuum:
    normal ordering of the quadratic term pushes the slot-restoring bracket
    components into exactly this shift, beta being its regularized vacuum
    value.  A nonzero charge on a slot of nonzero weight is an anomaly,
    raised by ``matrix`` at its own cell."""
    s, sub = contract(alg, y, mono)
    charge = None
    if alg.degree(y) == 0:
        charge = alg.beta_value(y)
        for rem in mono[1]:
            charge += alg.bracket_ids(y, rem).get(rem, 0)
    return y, s, sub, wt_sub(mu, alg.weight(y)), charge


def _pair_terms(alg, mono):
    """(coefficient, monomial) contributions of the normally ordered bracket
    term on one row: a function of the monomial alone.  With ell the ell of
    its weight (the total degree of the added part plus the total |degree|
    of the removed part), every candidate slot has degree in [-ell, ell] and
    every bracket lands in degrees [-2 ell, 2 ell], inside the window that
    ``SemiInfComplex`` ensures; the window never cuts a candidate or a
    bracket, and a later, wider window gives the same terms."""
    added, removed = mono
    maxdeg_occ = max([alg.degree(e) for e in added], default=0)
    maxdeg_occ = max(maxdeg_occ, 0)
    dmin_b = 1
    if removed:
        dmin_b = min(dmin_b, min(alg.degree(e) for e in removed))
    cands = sorted(_occupied(alg, mono, dmin_b - maxdeg_occ), key=alg.key, reverse=True)  # descending: slot order
    out = []
    for ii, yi in enumerate(cands):
        s1, m1 = contract(alg, yi, mono)
        for yj in cands[ii + 1 :]:
            terms = alg.bracket_ids(yi, yj)
            if not terms:
                continue
            dsum = alg.degree(yi) + alg.degree(yj)
            s2, m2 = contract(alg, yj, m1)
            for z, cf in terms.items():
                if dsum <= 0 and (z == yi or z == yj):
                    continue  # normal ordering projection
                res = wedge(alg, z, m2)
                if res is None:
                    continue
                s3, m3 = res
                out.append((-(s1 * s2 * s3) * cf, m3))
    return out


class CohomologyTable:
    """Dimensions of (co)homology per (weight, degree) with Euler metadata."""

    def __init__(self, kind: str):
        self.kind = kind
        self.cells: dict = {}
        self.complex_dims: dict = {}

    def set(self, w, n, dim, cdim):
        self.cells[(tuple(w), n)] = dim
        self.complex_dims[(tuple(w), n)] = cdim

    def dim(self, w, n) -> int:
        return self.cells.get((tuple(w), n), 0)

    def nonzero(self):
        return sorted((w, n, d) for (w, n), d in self.cells.items() if d)

    def euler_consistent(self) -> bool:
        weights = {w for (w, _) in self.cells}
        for w in weights:
            h = sum((-1) ** n * d for (ww, n), d in self.cells.items() if ww == w)
            c = sum((-1) ** n * d for (ww, n), d in self.complex_dims.items() if ww == w)
            if h != c:
                return False
        return True

    def rows(self):
        out = []
        for (w, n) in sorted(self.cells):
            out.append((w, n, self.cells[(w, n)], self.complex_dims[(w, n)]))
        return out

    def same_dims(self, other) -> tuple:
        """(equal, diffs) comparing nonzero cells of two tables."""
        keys = set(self.cells) | set(other.cells)
        diffs = []
        for k in sorted(keys):
            a = self.cells.get(k, 0)
            b = other.cells.get(k, 0)
            if a != b:
                diffs.append((k[0], k[1], a, b))
        return (not diffs, diffs)

    def __repr__(self):
        nz = self.nonzero()
        return f"CohomologyTable({self.kind}, {len(nz)} nonzero cells)"


def semiinf_cohomology(alg, module, depth: int, weights=None, bases=None) -> CohomologyTable:
    """Exact cohomology of the standard complex per (weight, ghost degree).

    Raises AlgebraError when the module's algebra numbers its basis apart
    from ``alg`` (see ``_check_same_root``), AnomalyError when d^2 != 0 on
    some cell (reporting the cell), as happens for inconsistent
    user-supplied beta data, and WindowError for a
    requested weight w with ell(w) < -depth.  Each weight's complex is built
    once and dropped with its weight; if ``bases`` is a dict, it receives
    ``bases[w] = {n: basis}`` from that complex for every cell of the table
    (the CLI's forms dump reads them).
    """
    _check_same_root(alg, module)
    if depth > getattr(module, "depth", depth):
        raise WindowError(
            f"semiinf_cohomology to depth {depth} needs the module materialized "
            f"to at least that depth (have {module.depth})"
        )
    table = CohomologyTable("semiinf")
    if weights is None:
        weights = _active_weights(alg, module, depth)
    weights = sorted(tuple(w) for w in weights)
    low = [w for w in weights if alg.ell(w) < -depth]
    if low:
        raise WindowError(f"weights {low} lie below depth {depth}: their complexes would be truncated")
    for w in weights:
        cx = SemiInfComplex(alg, module, w)
        ns = cx.ghost_range()
        if not ns:
            continue
        ints = {n: cleared(cx.matrix(n)) for n in range(min(ns) - 1, max(ns) + 1)}
        for n in range(min(ns) - 1, max(ns)):
            nnz = residual_nnz([(1, ints[n + 1], ints[n])], cx.dim(n))
            if nnz:
                raise AnomalyError(w, n, f"differential does not square to zero (residual has {nnz} nonzero entries)")
        ranks = {n: SparseMatrix.from_cleared(d, rows, cx.dim(n)).rank() for n, (d, rows) in ints.items()}
        for n in ns:
            cdim = cx.dim(n)
            table.set(w, n, cdim - ranks[n] - ranks[n - 1], cdim)
        if bases is not None:
            bases[w] = {n: cx.basis(n) for n in ns}
    return table


def _check_same_root(alg, module) -> None:
    """A complex reads the module's actions by ``alg``'s basis ids, which
    mean the same elements only over one root algebra."""
    if not same_root(alg, module.alg):
        raise AlgebraError(
            f"{alg.name} and the module's algebra {module.alg.name} are not one algebra "
            "or views of one, so their basis ids name different elements"
        )


def _active_weights(alg, module, depth: int):
    alg.ensure_window(-depth - 1, depth + 1)
    mus = [mu for ell in range(depth + 1) for mu in _forms_at(alg, ell)]
    out = set()
    for nu in module.weights:
        for mu in mus:
            w = wt_sub(nu, mu)
            if -depth <= alg.ell(w) <= 0:
                out.add(w)
    return out


# -- semi-invariants -------------------------------------------------------------------


def semiinvariants(alg, module, depth: int) -> dict:
    """Image of the g_+-invariants of M ⊗ L_beta in the g_--coinvariants, at
    every weight w of M with -depth <= ell(w) <= 0 and M_w nonzero, as
    {w: linalg.Subspace}: the image basis modulo the coinvariant relations,
    whose length is the dimension at w.

    ``module`` is anything with ``alg``, ``action``, ``weights``, ``dim``
    and ``depth``, over an algebra that numbers its basis as ``alg`` does
    (AlgebraError otherwise): a weight module, or US ⊗ M under the
    diagonal action (which is how semi-induction calls it).  Coinvariants: quotient by the images
    of xi + beta(xi) from source weights with -module.depth <= ell <= 0.
    The image at w is ``Subspace(relations).extend(kernel)``: the kernel
    vectors independent modulo the relations, first ones first, on one
    echelon that ``solve_in_span`` later reads image coordinates from.

    Invariants at w: the vectors that every positive element of degree at
    most b = -ell(w) kills (beta vanishes there, and one of higher degree
    lands above the top).  They are computed as an exact kernel of only the
    conditions that can bind:

    - a generating set of g_+ (``_positive_generators``): per degree, the
      elements outside the span of the brackets of positive elements and of
      the elements kept before them;
    - of those, only the ones whose target w + wt(eta) has a nonzero
      dimension: an action into an empty weight has no rows.  Every target
      has ell in [ell(w), 0], so no WindowError is skipped.

    Exactness, given that ``module`` is a module (the commutator oracle is
    how semiflex certifies one): if every kept element of degree at most b
    kills v, so does every positive element of degree at most b, by
    induction on degree, since a non-kept element of degree d is a
    combination of kept ones of degree d and brackets [x, y] of positive
    x, y of lower degrees, and [x, y]v = x(yv) - y(xv) = 0.  The identity
    holds on the truncated US ⊗ M too: x and y raise ell, so every weight
    they pass through lies between w and the top, where US (pairs with
    ell(wt m - wt q) >= -depth) and M are complete.  So the kernel is the
    same subspace as that of every positive element, and since
    ``SparseMatrix.nullspace`` is a function of the kernel alone, so are
    the kernel vectors and every image.
    """
    _check_same_root(alg, module)
    if depth > module.depth:
        raise WindowError(f"semiinvariants to depth {depth} exceeds module depth {module.depth}")
    alg.ensure_window(-2 * depth - 4, 2 * depth + 4)
    hplus = _positive_generators(alg, depth)
    hminus = alg.elements_in_degrees(-depth, 0)
    images = {}
    for w in sorted(module.weights):
        dim_w = module.dim(w)
        if not -depth <= alg.ell(w) <= 0 or dim_w == 0:
            continue
        budget = -alg.ell(w)
        inv_rows = []
        for eta in hplus:
            if alg.degree(eta) <= budget and module.dim(wt_add(w, alg.weight(eta))):
                inv_rows.extend(module.action(eta, w).rows)
        kernel = SparseMatrix.from_rows(inv_rows, dim_w).nullspace()
        relations = []
        for xi in hminus:
            if alg.degree(xi) < alg.ell(w):
                continue
            src = wt_sub(w, alg.weight(xi))
            if alg.ell(src) > 0 or alg.ell(src) < -module.depth or module.dim(src) == 0:
                continue
            mat = module.action(xi, src)
            bv = alg.beta_value(xi)
            for col, rel in enumerate(mat.transpose().rows):
                # beta twist: xi acts as xi + beta(xi) on M ⊗ L_beta
                if bv and alg.weight(xi) == wt_zero(alg.rank):
                    rel[col] = rel.get(col, 0) + bv
                relations.append(rel)
        images[w] = Subspace(relations).extend(kernel)
    return images


def _positive_generators(alg, depth: int) -> list:
    """A generating set of the positive part of ``alg`` (a view too) up to
    ``depth``: for each degree d, in the algebra's order, every element
    outside the span of the brackets [x, y] of positive x, y with
    deg x + deg y = d and of the elements kept in degree d before it, which
    is the greedy basis of one ``Subspace`` per degree, the brackets as its
    relations."""
    kept = []
    for d in range(1, depth + 1):
        brackets = [
            alg.bracket_ids(x, y)
            for dx in range(1, d // 2 + 1)
            for x in alg.elements_of_degree(dx)
            for y in alg.elements_of_degree(d - dx)
        ]
        span = Subspace(brackets).extend({e: 1} for e in alg.elements_of_degree(d))
        kept.extend(min(unit) for unit in span.basis)
    return kept
