"""Semi-infinite forms, Clifford operators, the standard complex and its
cohomology, and the semi-invariants functor.

A semi-infinite monomial differs from the vacuum in finitely many slots and
is stored as (added, removed): added is a sorted tuple of positive-degree
basis ids wedged in, removed a sorted tuple of nonpositive-degree ids
deleted from the tail.  Slots are ordered by descending canonical key (the
added part on top, then the whole nonpositive part of the algebra); moving
an operator past k occupied slots costs (-1)^k, which fixes every sign.
The monomials of each ell(mu) come from a per-(algebra, ell) index, built
once from the PBW monomial enumerator with exponents capped at 1.

The differential has two terms.  The single-slot term removes an occupied
slot y with its position sign and applies the module action of y plus, for
degree-0 slots, a scalar charge.  The pair term removes two occupied slots
and wedges their normally ordered bracket back in: when the bracket lands
in the nonpositive part, its components along the two removed slots are
projected away (orthonormal basis convention) — those slot-restoring pieces
are an infinite, occupancy-independent sum, and the charge is exactly their
regularized value: beta on the vacuum, corrected by the bracket eigenvalue
of every removed tail slot.  Both terms are finite at fixed total weight
because the coefficient module is bounded above.  d^2 = 0 is checked cell
by cell in exact integers (linalg.residual_nnz on the differentials, each
cleared once per weight), and a failure is reported as a structured
AnomalyError carrying the offending (weight, ghost) cell, not an assertion.

Over a one-sided algebra the complex is classical: a strictly positive
algebra has no tail, so the forms are wedges of members and the complex is
the Chevalley-Eilenberg cochain complex; a strictly negative one has
nothing to add, so the forms are removals and the complex is the CE chain
complex with ghost -n in chain degree n.  modules.ce_cohomology and
modules.ce_homology are this complex, so d^2 = 0 is checked there too.
"""

from __future__ import annotations

from .liealg import WindowError, wt_add, wt_sub, wt_zero
from .linalg import SparseMatrix, Subspace, cleared, residual_nnz
from .pbw import monomials_by_weight

__all__ = [
    "vacuum",
    "wedge",
    "contract",
    "enumerate_forms",
    "differential",
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


def vacuum(alg=None):
    return VACUUM


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


def _insert(tup, x):
    lst = list(tup)
    for i, e in enumerate(lst):
        if x < e:
            lst.insert(i, x)
            break
    else:
        lst.append(x)
    return tuple(lst)


def _delete(tup, x):
    return tuple(e for e in tup if e != x)


def _flip(alg, x, mono, create: bool):
    """Clifford creation (wedge) or annihilation (contract) at the slot of x:
    (sign, monomial), or None when the slot is already full, resp. empty.
    A positive slot is occupied when x is added, a nonpositive one unless x
    is removed; the sign counts the occupied slots above x."""
    added, removed = mono
    if alg.degree(x) > 0:
        if (x in added) == create:
            return None
        added = _insert(added, x) if create else _delete(added, x)
    else:
        if (x in removed) != create:
            return None
        removed = _delete(removed, x) if create else _insert(removed, x)
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
    1; monomials keep them sorted by id, as _insert does."""
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

    Cochains at (w, n) are indexed by pairs (monomial at mu, module basis b
    at w+mu) over the finitely many contributing relative weights mu.
    """

    def __init__(self, alg, module, w):
        self.alg = alg
        self.module = module
        self.w = tuple(w)
        self.lmax = -alg.ell(w)
        alg.ensure_window(-2 * self.lmax - 4, 2 * self.lmax + 4)
        self._mus = []
        seen = set()
        for nu in module.weights:
            mu = wt_sub(nu, self.w)
            if mu in seen:
                continue
            seen.add(mu)
            if 0 <= alg.ell(mu) <= self.lmax and module.dim(nu) > 0:
                self._mus.append(mu)
        self._mus.sort()
        self._bases: dict = {}
        self._mats: dict = {}

    def basis(self, n: int) -> dict:
        got = self._bases.get(n)
        if got is None:
            basis = []
            for mu in self._mus:
                dim = self.module.dim(wt_add(self.w, mu))
                for mono in enumerate_forms(self.alg, mu, n):
                    for b in range(dim):
                        basis.append((mono, mu, b))
            got = {t: i for i, t in enumerate(basis)}
            self._bases[n] = got
        return got

    def ghost_range(self):
        """Ghost degrees with a nonempty basis, in increasing order."""
        ns = set()
        for mu in self._mus:
            ns.update(_forms_at(self.alg, self.alg.ell(mu)).get(mu, ()))
        return sorted(ns)

    def matrix(self, n: int) -> SparseMatrix:
        """The differential C^n_w -> C^{n+1}_w."""
        got = self._mats.get(n)
        if got is not None:
            return got
        alg, module, w = self.alg, self.module, self.w
        rows = self.basis(n + 1)
        cols = self.basis(n)
        mat = SparseMatrix(len(rows), len(cols))
        row_monos = {}
        for (mono, mu, b), r in rows.items():
            row_monos.setdefault((mono, mu), []).append((b, r))
        for (mono, mu), brs in row_monos.items():
            removed = mono[1]
            # single-slot term: (y + charge(y)) phi(iota_y omega), where the
            # charge of an occupied degree-0 slot is beta(y) adjusted for the
            # deviation of the occupancy from the vacuum: normal ordering of
            # the quadratic term pushes the slot-restoring bracket components
            # into exactly this shift, beta being its regularized vacuum value
            for y, s, sub in self._occupied_removals(mono, mu):
                mu2 = wt_sub(mu, alg.weight(y))
                src_w = wt_add(w, mu2)
                act = module.action(y, src_w)
                for b, r in brs:
                    for bb, v in act.rows[b].items():
                        c = cols.get((sub, mu2, bb))
                        if c is not None:
                            mat.add(r, c, s * v)
                if alg.degree(y) == 0:
                    charge = alg.beta_value(y)
                    for rem in removed:
                        charge += alg.bracket_ids(y, rem).get(rem, 0)
                    if charge:
                        if alg.weight(y) != wt_zero(alg.rank):
                            raise AnomalyError(
                                w, n, f"degree-0 slot {alg.label(y)} of nonzero weight {alg.weight(y)} carries charge {charge}"
                            )
                        for b, r in brs:
                            c = cols.get((sub, mu, b))
                            if c is not None:
                                mat.add(r, c, s * charge)
            # pair term: -phi(:[y_i,y_j]: ^ iota_j iota_i omega)
            for coeff, sub in self._pair_terms(mono, mu):
                for b, r in brs:
                    c = cols.get((sub, mu, b))
                    if c is not None:
                        mat.add(r, c, coeff)
        self._mats[n] = mat
        return mat

    def _occupied_removals(self, mono, mu):
        """(y, contraction sign, monomial minus y) for relevant occupied y."""
        alg = self.alg
        added, removed = mono
        out = []
        dmin = alg.ell(mu) - self.lmax
        for y in added:
            s, sub = contract(alg, y, mono)
            out.append((y, s, sub))
        for d in range(max(dmin, -2 * self.lmax - 4), 1):
            for y in alg.elements_of_degree(d):
                if y in removed:
                    continue
                s, sub = contract(alg, y, mono)
                out.append((y, s, sub))
        return out

    def _pair_terms(self, mono, mu):
        """Contributions of the normally ordered bracket term on one row."""
        alg = self.alg
        added, removed = mono
        maxdeg_occ = max([alg.degree(e) for e in added], default=0)
        maxdeg_occ = max(maxdeg_occ, 0)
        dmin_b = 1
        if removed:
            dmin_b = min(dmin_b, min(alg.degree(e) for e in removed))
        dmin = dmin_b - maxdeg_occ
        lo, hi = alg.window()
        dmin = max(dmin, lo)
        cands = list(added)
        for d in range(dmin, 1):
            for y in alg.elements_of_degree(d):
                if y not in removed:
                    cands.append(y)
        cands.sort(key=alg.key, reverse=True)  # descending: slot order
        out = []
        for ii in range(len(cands)):
            yi = cands[ii]
            for jj in range(ii + 1, len(cands)):
                yj = cands[jj]
                dsum = alg.degree(yi) + alg.degree(yj)
                if not alg.in_window(dsum):
                    continue
                terms = alg.bracket_ids(yi, yj)
                if not terms:
                    continue
                s1, m1 = contract(alg, yi, mono)
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


def differential(alg, module, w, n: int):
    """Matrix of d at (total weight w, ghost degree n) plus the two bases."""
    cx = SemiInfComplex(alg, module, w)
    return cx.matrix(n), cx.basis(n), cx.basis(n + 1)


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


def semiinf_cohomology(alg, module, depth: int, weights=None) -> CohomologyTable:
    """Exact cohomology of the standard complex per (weight, ghost degree).

    Raises AnomalyError when d^2 != 0 on some cell (reporting the cell), as
    happens for inconsistent user-supplied beta data, and WindowError for a
    requested weight w with ell(w) < -depth.
    """
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
        mats = {n: cx.matrix(n) for n in range(min(ns) - 1, max(ns) + 1)}
        ints = {n: cleared(mat) for n, mat in mats.items()}
        for n in range(min(ns) - 1, max(ns)):
            nnz = residual_nnz([(1, ints[n + 1], ints[n])])
            if nnz:
                raise AnomalyError(w, n, f"differential does not square to zero (residual has {nnz} nonzero entries)")
        ranks = {n: mat.rank() for n, mat in mats.items()}
        for n in ns:
            cdim = len(cx.basis(n))
            table.set(w, n, cdim - ranks[n] - ranks[n - 1], cdim)
    return table


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


class SemiInvariants:
    """Per-weight image of invariants inside coinvariants of M ⊗ L_beta.

    ``images[w]`` is a ``linalg.Subspace``: the image basis modulo the
    coinvariant relations; ``dims`` reads off its length."""

    def __init__(self, images: dict):
        self.images = images
        self.dims = {w: len(span) for w, span in images.items()}

    def dim(self, w) -> int:
        return self.dims.get(tuple(w), 0)

    def items(self):
        return sorted(self.dims.items())


def semiinvariants(alg, module, depth: int) -> SemiInvariants:
    """Image of the g_+-invariants of M ⊗ L_beta in the g_--coinvariants, at
    every weight w of M with -depth <= ell(w) <= 0 and M_w nonzero.

    ``module`` is anything with ``action``, ``weights``, ``dim`` and
    ``depth``: a weight module, or US ⊗ M under the diagonal action (which
    is how semi-induction calls it).  Invariants: common kernel of the
    positive elements of degree at most -ell(w) (beta vanishes there);
    coinvariants: quotient by the images of xi + beta(xi) from source
    weights with -module.depth <= ell <= 0.  The image at w is
    ``Subspace(relations).extend(kernel)``: the kernel vectors independent
    modulo the relations, first ones first, on one echelon that
    ``solve_in_span`` later reads image coordinates from.
    """
    if depth > module.depth:
        raise WindowError(f"semiinvariants to depth {depth} exceeds module depth {module.depth}")
    alg.ensure_window(-2 * depth - 4, 2 * depth + 4)
    hplus = alg.elements_in_degrees(1, depth)
    hminus = alg.elements_in_degrees(-depth, 0)
    images = {}
    for w in sorted(module.weights):
        dim_w = module.dim(w)
        if not -depth <= alg.ell(w) <= 0 or dim_w == 0:
            continue
        budget = -alg.ell(w)
        inv_rows = []
        for eta in hplus:
            if alg.degree(eta) <= budget:
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
    return SemiInvariants(images)
