"""Z-graded, weight-graded Lie algebras with semi-infinite structure.

Weights are integer coordinate tuples in a declared lattice of rank k; the
degree of an element is the dot product of its weight with the algebra's
degree functional.  Algebras are materialized lazily per degree window and
immutable once a window is built; all downstream arithmetic (PBW, modules,
complexes) refers to basis elements by their integer id within an algebra.
Coefficients are exact: an int wherever the value is integral (every
built-in structure constant and beta value), a Fraction otherwise; mixed
int/Fraction arithmetic stays exact and never produces a float.

An algebra's window is the set of degrees it has materialized, and
``ensure_window`` grows it.  A finite algebra starts at the degrees its basis
occupies and grows by empty degrees on demand.

Built-in constructors: the untwisted affine algebra of sl2 (with its central
element K, derivation d, affine cocycle and the functional beta) and the
abelian test algebra.  Affine sl2 reads every element off its (weight,
index): z^n⊗e, z^n⊗h and z^n⊗f are the weights (1, n), (0, n) and (-1, n) at
index 0, and K and d are the weight (0, 0) at indices 1 and 2.  Its
loop-nilpotent subalgebra a (basis z^n⊗f for all n and z^n⊗h for n >= 1) is
the weight test alpha = -1, or alpha = 0 with n >= 1; the twisted Borel
subalgebra abar is the complement of a, so a ⊕ abar is the whole algebra.  The
built-in "subalgebra_a" is the view ``subalgebra(build_affine_sl2(), "a")`` of
a fresh parent.
"""

from __future__ import annotations

import json
from fractions import Fraction

Weight = tuple  # integer coordinate tuples


class WindowError(Exception):
    """A computation needs basis elements outside the materialized window."""


class AlgebraError(Exception):
    pass


def wt_add(a: Weight, b: Weight) -> Weight:
    return tuple(x + y for x, y in zip(a, b))


def wt_sub(a: Weight, b: Weight) -> Weight:
    return tuple(x - y for x, y in zip(a, b))


def wt_neg(a: Weight) -> Weight:
    return tuple(-x for x in a)


def wt_zero(rank: int) -> Weight:
    return (0,) * rank


def exact(x):
    """``x`` as an exact coefficient: an int when integral, else a Fraction.

    Used where numbers enter (lambda, user structure constants), so integral
    data stay int through every later product and sum."""
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


class GradedLieAlgebra:
    """Basis-indexed graded Lie algebra over exact rationals.

    Subclasses / constructors provide ``_realize(degree)`` returning the
    list of (weight, index, label) for that degree, and ``_bracket_rule``
    computing structure constants between materialized elements.
    """

    def __init__(self, name, rank, degree_functional):
        self.name = name
        self.rank = rank
        self.degree_functional = tuple(degree_functional)
        if len(self.degree_functional) != rank:
            raise AlgebraError("degree functional length must equal rank")
        self.weights: list[Weight] = []
        self.indices: list[int] = []
        self.labels: list[str] = []
        self.degrees: list[int] = []
        self._by_degree: dict[int, list[int]] = {}
        self._by_wi: dict[tuple, int] = {}
        self._by_label: dict[str, int] = {}
        self._brackets: dict[tuple, dict] = {}
        self._beta: dict = {}
        self._win_lo = 0
        self._win_hi = -1  # empty window
        # semi-infinite form monomials per ell, built once (see forms._forms_at)
        self._form_index: dict = {}
        self._tail_counts: dict = {}  # see forms._tail_above
        self._row_terms: dict = {}  # see forms._row_terms

    # -- materialization ---------------------------------------------------

    def _realize(self, degree: int):
        return []

    def _bracket_rule(self, i: int, j: int) -> dict:
        return {}

    def _materialize_degree(self, d: int) -> None:
        elems = sorted(self._realize(d), key=lambda t: (t[0], t[1]))
        lst = []
        for weight, index, label in elems:
            if self.ell(weight) != d:
                raise AlgebraError(f"element {label}: degree of weight {weight} is not {d}")
            eid = len(self.weights)
            self.weights.append(tuple(weight))
            self.indices.append(index)
            self.labels.append(label)
            self.degrees.append(d)
            self._by_wi[(tuple(weight), index)] = eid
            self._by_label[label] = eid
            lst.append(eid)
        self._by_degree[d] = lst

    def ensure_window(self, lo: int, hi: int) -> None:
        """Extend the materialized degree window to cover [lo, hi]."""
        if lo > hi:
            return
        if self._win_lo > self._win_hi:
            for d in range(lo, hi + 1):
                self._materialize_degree(d)
            self._win_lo, self._win_hi = lo, hi
            return
        for d in range(lo, self._win_lo):
            self._materialize_degree(d)
        for d in range(self._win_hi + 1, hi + 1):
            self._materialize_degree(d)
        self._win_lo = min(self._win_lo, lo)
        self._win_hi = max(self._win_hi, hi)

    def window(self) -> tuple:
        return (self._win_lo, self._win_hi)

    def in_window(self, d: int) -> bool:
        return self._win_lo <= d <= self._win_hi

    # -- queries -------------------------------------------------------------

    def ell(self, weight: Weight) -> int:
        return sum(a * b for a, b in zip(self.degree_functional, weight))

    def elements_of_degree(self, d: int) -> list[int]:
        lst = self._by_degree.get(d)
        if lst is None:
            raise WindowError(f"{self.name}: degree {d} outside window {self.window()}")
        return lst

    def elements_in_degrees(self, lo: int, hi: int) -> list[int]:
        out = []
        for d in range(lo, hi + 1):
            out.extend(self.elements_of_degree(d))
        return out

    def degree(self, eid: int) -> int:
        return self.degrees[eid]

    def weight(self, eid: int) -> Weight:
        return self.weights[eid]

    def label(self, eid: int) -> str:
        return self.labels[eid]

    def key(self, eid: int):
        """Canonical basis order: (degree, weight coords, index)."""
        return (self.degrees[eid], self.weights[eid], self.indices[eid])

    def by_label(self, label: str) -> int:
        if label not in self._by_label:
            raise AlgebraError(f"{self.name}: no basis element labelled {label!r}")
        return self._by_label[label]

    def beta_value(self, eid: int):
        v = self._beta.get(eid, 0)
        if v and self.degrees[eid] != 0:
            raise AlgebraError(f"beta supported outside degree 0 (at {self.labels[eid]})")
        return v

    def beta_items(self):
        return {self.labels[i]: v for i, v in sorted(self._beta.items()) if v}

    # -- bracket -------------------------------------------------------------

    def bracket_ids(self, i: int, j: int) -> dict:
        """Structure constants [x_i, x_j] as {eid: coefficient}, cached per
        ordered pair (i > j as the negation of [x_j, x_i]); callers share
        the cached dicts read-only."""
        if i == j:
            return {}
        res = self._brackets.get((i, j))
        if res is not None:
            return res
        if i > j:
            res = {k: -v for k, v in self.bracket_ids(j, i).items()}
        else:
            dtot = self.degrees[i] + self.degrees[j]
            if not self.in_window(dtot):
                raise WindowError(
                    f"{self.name}: bracket of {self.labels[i]}, {self.labels[j]} lands in "
                    f"degree {dtot}, outside window {self.window()}"
                )
            res = {k: v for k, v in self._bracket_rule(i, j).items() if v}
            wtarget = wt_add(self.weights[i], self.weights[j])
            for k in res:
                if self.weights[k] != wtarget:
                    raise AlgebraError("bracket violates weight additivity")
        self._brackets[i, j] = res
        return res


def bracket(alg, x: dict, y: dict) -> dict:
    """Bracket of two linear combinations {eid: coeff}; bilinear expansion."""
    out: dict = {}
    for i, a in x.items():
        if not a:
            continue
        for j, b in y.items():
            c = a * b
            if not c:
                continue
            for k, s in alg.bracket_ids(i, j).items():
                w = out.get(k, 0) + c * s
                if w:
                    out[k] = w
                elif k in out:
                    del out[k]
    return out


# -- built-in algebras -------------------------------------------------------

# sl2's bracket [x, y] = c (x+y) and invariant form <x, y>, keyed by the
# alpha-coordinates of x and y (e = 1, h = 0, f = -1)
_SL2_BRACKET = {(1, -1): 1, (-1, 1): -1, (0, 1): 2, (1, 0): -2, (0, -1): -2, (-1, 0): 2}
_SL2_FORM = {(1, -1): 1, (-1, 1): 1, (0, 0): 2}


def _loop_label(x: str, n: int) -> str:
    if n == 0:
        return f"1⊗{x}"
    if n == 1:
        return f"z⊗{x}"
    return f"z^{n}⊗{x}"


class AffineSL2(GradedLieAlgebra):
    """Affine sl2: loop algebra plus central K and derivation d.

    Every element is read off its (weight, index).  Weights are
    (alpha-coordinate, delta-coordinate): z^n⊗e, z^n⊗h and z^n⊗f are (1, n),
    (0, n) and (-1, n) at index 0, and K and d are (0, 0) at indices 1 and 2.
    deg z = 2, deg e = 1, deg f = -1, so deg(z^n e) = 2n+1, deg(z^n h) = 2n,
    deg(z^n f) = 2n-1.  Normalization: <e,f> = 1, <h,h> = 2; beta(1⊗h) = 2,
    beta(K) = 4, beta(d) = 1 (values 2ρ, 2h∨ and 1 for sl2).
    """

    def __init__(self):
        super().__init__("affine_sl2", 2, (1, 2))

    def _realize(self, d):
        out = []
        if d % 2:
            n_e = (d - 1) // 2
            n_f = (d + 1) // 2
            out.append(((1, n_e), 0, _loop_label("e", n_e)))
            out.append(((-1, n_f), 0, _loop_label("f", n_f)))
        elif d:
            n = d // 2
            out.append(((0, n), 0, _loop_label("h", n)))
        else:
            out.append(((0, 0), 0, "1⊗h"))
            out.append(((0, 0), 1, "K"))
            out.append(((0, 0), 2, "d"))
        return out

    def _materialize_degree(self, d):
        super()._materialize_degree(d)
        if d == 0:  # 1⊗h, K, d
            self._beta.update(zip(self._by_degree[0], (2, 4, 1)))

    def _bracket_rule(self, i, j):
        (a, m), (b, n) = self.weights[i], self.weights[j]
        if self.indices[i] == 1 or self.indices[j] == 1:  # K is central
            return {}
        if self.indices[i] == 2:  # [d, x] = n x on the delta-coordinate n of x
            return {j: n} if n else {}
        if self.indices[j] == 2:
            return {i: -m} if m else {}
        out = {}
        c = _SL2_BRACKET.get((a, b))
        if c:
            out[self._by_wi[((a + b, m + n), 0)]] = c
        pairing = _SL2_FORM.get((a, b))
        if pairing and m + n == 0 and m:
            out[self._by_wi[((0, 0), 1)]] = m * pairing
        return out


class AbelianTestAlgebra(GradedLieAlgebra):
    """Abelian algebra with basis x_n, n != 0, deg x_n = n, beta = 0."""

    def __init__(self):
        super().__init__("abelian", 1, (1,))
        self.ensure_window(-2, 2)

    def _realize(self, d):
        if d == 0:
            return []
        return [((d,), 0, f"x_{d}")]


def _coefficient(entry):
    """The exact value num/den of a file entry (den defaults to 1)."""
    den = entry.get("den", 1)
    if den == 0:
        raise AlgebraError(f"coefficient {entry['num']}/0 has a zero denominator")
    return exact(Fraction(entry["num"], den))


class UserAlgebra(GradedLieAlgebra):
    """Finite algebra defined by an explicit basis/bracket/beta table."""

    def __init__(self, name, rank, degree_functional, basis, brackets, beta):
        super().__init__(name, rank, degree_functional)
        self._table: dict[int, list] = {}
        labels, keys = set(), set()
        for b in basis:
            if len(b["weight"]) != rank:
                raise AlgebraError(f"element {b['label']}: weight {b['weight']} does not have rank {rank}")
            if b["label"] in labels:
                raise AlgebraError(f"label {b['label']!r} is given to two basis elements")
            key = (tuple(b["weight"]), b["index"])
            if key in keys:
                raise AlgebraError(f"element {b['label']}: weight {b['weight']} and index {b['index']} are taken")
            labels.add(b["label"])
            keys.add(key)
        degs = [self.ell(tuple(b["weight"])) for b in basis]
        for deg, b in zip(degs, basis):
            self._table.setdefault(deg, []).append((tuple(b["weight"]), b["index"], b["label"]))
        self._rules: dict[tuple, dict] = {}
        self.ensure_window(min(degs, default=0), max(degs, default=0))

        def element(entry, key):
            pos = entry[key]
            if not isinstance(pos, int) or not 0 <= pos < len(basis):
                raise AlgebraError(f"bracket {key} = {pos!r} is not a basis position in 0..{len(basis) - 1}")
            return self.by_label(basis[pos]["label"])

        for entry in brackets:
            i, j = element(entry, "i"), element(entry, "j")
            terms = {element(t, "k"): _coefficient(t) for t in entry["terms"]}
            pair = f"[{self.label(i)}, {self.label(j)}]"
            if i == j and any(terms.values()):
                raise AlgebraError(f"bracket {pair} of an element with itself is nonzero")
            lo, hi = (i, j) if i < j else (j, i)
            if (lo, hi) in self._rules:
                raise AlgebraError(f"bracket {pair} is given twice")
            self._rules[(lo, hi)] = terms if (lo, hi) == (i, j) else {k: -v for k, v in terms.items()}
        for entry in beta:
            self._beta[self.by_label(entry["label"])] = _coefficient(entry)

    def _realize(self, d):
        return self._table.get(d, [])

    def _bracket_rule(self, i, j):
        return self._rules.get((i, j), {})


class SubalgebraSpec:
    """A graded subalgebra view sharing the parent's basis element ids.

    The view reads everything but membership off the parent: its degree,
    weight, label, key and window queries are the parent's own methods.
    Each degree's member list is kept once the parent has materialized that
    degree (a materialized degree never changes).  The built-in subalgebra
    a of affine sl2 is such a view, ``subalgebra(build_affine_sl2(), "a")``.
    """

    def __init__(self, parent, name, member):
        self.parent = parent
        self.name = f"{parent.name}:{name}"
        self.rank = parent.rank
        self.degree_functional = parent.degree_functional
        self.is_member = member
        self.window = parent.window
        self.in_window = parent.in_window
        self.ell = parent.ell
        self.degree = parent.degree
        self.weight = parent.weight
        self.label = parent.label
        self.key = parent.key
        self.beta_value = parent.beta_value
        self._by_degree: dict[int, list[int]] = {}
        self._form_index: dict = {}
        self._tail_counts: dict = {}  # see forms._tail_above
        self._row_terms: dict = {}  # see forms._row_terms

    # a method, not a bound copy: a profiler that wraps the parent class's
    # ensure_window after this view was made must still see every call
    def ensure_window(self, lo, hi):
        self.parent.ensure_window(lo, hi)

    def elements_of_degree(self, d):
        lst = self._by_degree.get(d)
        if lst is None:
            lst = self._by_degree[d] = [e for e in self.parent.elements_of_degree(d) if self.is_member(e)]
        return lst

    def elements_in_degrees(self, lo, hi):
        out = []
        for d in range(lo, hi + 1):
            out.extend(self.elements_of_degree(d))
        return out

    def by_label(self, label):
        eid = self.parent.by_label(label)
        if not self.is_member(eid):
            raise AlgebraError(f"{label!r} is not a member of {self.name}")
        return eid

    def beta_items(self):
        items = self.parent.beta_items()
        return {lbl: v for lbl, v in items.items() if self.is_member(self.parent.by_label(lbl))}

    def bracket_ids(self, i, j):
        res = self.parent.bracket_ids(i, j)
        for k in res:
            if not self.is_member(k):
                raise AlgebraError(
                    f"{self.name}: bracket of {self.parent.label(i)}, {self.parent.label(j)} "
                    f"leaves the subalgebra (term {self.parent.label(k)})"
                )
        return res


# -- constructors and selectors ------------------------------------------------


def build_affine_sl2() -> AffineSL2:
    alg = AffineSL2()
    alg.ensure_window(-2, 2)
    return alg


def subalgebra(alg, selector, custom=None) -> SubalgebraSpec:
    """Named subalgebras; 'a' and 'abar' require the affine sl2 constructor."""
    if selector == "gplus":
        return SubalgebraSpec(alg, "gplus", lambda e: alg.degree(e) > 0)
    if selector == "gminus":
        return SubalgebraSpec(alg, "gminus", lambda e: alg.degree(e) <= 0)
    if selector == "g_below_zero":
        return SubalgebraSpec(alg, "g_below_zero", lambda e: alg.degree(e) < 0)
    if selector in ("a", "abar"):
        if not isinstance(alg, AffineSL2):
            raise AlgebraError(f"selector {selector!r} requires the affine sl2 algebra")
        weights = alg.weights

        def in_a(e):  # z^n⊗f for all n, z^n⊗h for n >= 1
            alpha, n = weights[e]
            return alpha == -1 or (alpha == 0 and n >= 1)

        return SubalgebraSpec(alg, selector, in_a if selector == "a" else lambda e: not in_a(e))
    if selector == "loop-nminus":
        # the abelian loop algebra of the lowering root vectors: alpha-coordinate -1
        if alg.rank < 1:
            raise AlgebraError("loop-nminus needs a root coordinate")
        return SubalgebraSpec(alg, "loop-nminus", lambda e: alg.weight(e)[0] == -1)
    if selector == "custom":
        members = set(custom or [])
        view = SubalgebraSpec(alg, "custom", lambda e: e in members)
        check_closure(view, *alg.window())
        return view
    raise AlgebraError(f"unknown subalgebra selector {selector!r}")


def root_algebra(alg):
    """The algebra at the end of ``alg``'s ``.parent`` chain (``alg`` itself if it is no view)."""
    while isinstance(alg, SubalgebraSpec):
        alg = alg.parent
    return alg


def same_root(a, b) -> bool:
    """Whether ``a`` and ``b`` (algebras or views) number one basis: views
    use their parent's ids, so the two roots must be one algebra."""
    return root_algebra(a) is root_algebra(b)


def check_closure(view: SubalgebraSpec, lo: int, hi: int) -> None:
    """Raise if the view is not bracket-closed within the window."""
    for d1 in range(lo, hi + 1):
        for i in view.elements_of_degree(d1):
            for d2 in range(d1, hi + 1):
                if not lo <= d1 + d2 <= hi:
                    continue
                for j in view.elements_of_degree(d2):
                    view.bracket_ids(i, j)


class JacobiReport:
    def __init__(self, checked: int, failures: list):
        self.checked = checked
        self.failures = failures

    @property
    def passed(self) -> bool:
        return not self.failures

    def __repr__(self):
        if self.passed:
            return f"JacobiReport(pass, {self.checked} triples)"
        return f"JacobiReport(FAIL on {len(self.failures)} of {self.checked} triples)"


def check_jacobi(alg, lo: int, hi: int) -> JacobiReport:
    """Exhaustive Jacobi + antisymmetry check on basis triples in [lo, hi].

    Only triples whose pairwise and total degree sums stay inside the window
    are checked (intermediate brackets must be representable).
    """
    alg.ensure_window(lo, hi)
    elems = alg.elements_in_degrees(lo, hi)
    checked = 0
    failures = []
    n = len(elems)
    for p in range(n):
        i = elems[p]
        for q in range(p, n):
            j = elems[q]
            if not lo <= alg.degree(i) + alg.degree(j) <= hi:
                continue
            lhs = alg.bracket_ids(i, j)
            rhs = {k: -v for k, v in alg.bracket_ids(j, i).items()}
            if lhs != rhs:
                failures.append((alg.label(i), alg.label(j), "antisymmetry"))
            for r in range(q, n):
                k = elems[r]
                di, dj, dk = alg.degree(i), alg.degree(j), alg.degree(k)
                sums = (di + dj, dj + dk, di + dk, di + dj + dk)
                if not all(lo <= s <= hi for s in sums):
                    continue
                checked += 1
                acc: dict = {}
                for (x, y, z) in ((i, j, k), (j, k, i), (k, i, j)):
                    for m, v in bracket(alg, alg.bracket_ids(x, y), {z: 1}).items():
                        w = acc.get(m, 0) + v
                        if w:
                            acc[m] = w
                        elif m in acc:
                            del acc[m]
                if acc:
                    failures.append((alg.label(i), alg.label(j), alg.label(k)))
    return JacobiReport(checked, failures)


# -- algebra definition files ---------------------------------------------------

BUILTINS = {
    "affine_sl2": build_affine_sl2,
    "abelian": AbelianTestAlgebra,
    "subalgebra_a": lambda: subalgebra(build_affine_sl2(), "a"),
}


def load_algebra(source) -> GradedLieAlgebra:
    """Load an algebra from a builtin name, or a definition from a JSON file
    path or a dict."""
    if isinstance(source, str):
        if source in BUILTINS:
            return BUILTINS[source]()
        try:
            with open(source) as fh:
                data = json.load(fh)
        except FileNotFoundError:
            raise AlgebraError(
                f"{source!r} is neither a built-in algebra ({', '.join(BUILTINS)}) nor an algebra file"
            ) from None
    else:
        data = source
    try:
        grading = data["grading"]
        alg = UserAlgebra(
            data.get("name", "user"),
            grading["rank"],
            grading["degree_functional"],
            data["basis"],
            data.get("brackets", []),
            data.get("beta", []),
        )
    except (KeyError, TypeError) as exc:
        raise AlgebraError(f"malformed algebra definition: {exc}") from exc
    return alg


def dump_algebra(alg, basis_window=None) -> dict:
    """Serialize a (window of a) materialized algebra to the file schema."""
    lo, hi = basis_window or alg.window()
    eids = alg.elements_in_degrees(lo, hi)
    pos_of = {e: i for i, e in enumerate(eids)}
    basis = [{"label": alg.label(e), "weight": list(alg.weight(e)), "index": alg.key(e)[2]} for e in eids]
    brackets = []
    for a in range(len(eids)):
        for b in range(a + 1, len(eids)):
            i, j = eids[a], eids[b]
            if not alg.in_window(alg.degree(i) + alg.degree(j)):
                continue
            terms = alg.bracket_ids(i, j)
            terms = {k: v for k, v in terms.items() if k in pos_of}
            if terms:
                brackets.append(
                    {
                        "i": a,
                        "j": b,
                        "terms": [
                            {"k": pos_of[k], "num": v.numerator, "den": v.denominator}
                            for k, v in sorted(terms.items())
                        ],
                    }
                )
    beta = [
        {"label": lbl, "num": v.numerator, "den": v.denominator}
        for lbl, v in alg.beta_items().items()
    ]
    return {
        "name": alg.name,
        "grading": {"rank": alg.rank, "degree_functional": list(alg.degree_functional)},
        "basis": basis,
        "brackets": brackets,
        "beta": beta,
    }
