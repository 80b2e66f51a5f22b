"""Z-graded, weight-graded Lie algebras with semi-infinite structure.

Weights are integer coordinate tuples in a declared lattice of rank k; the
degree of an element is the dot product of its weight with the algebra's
degree functional.  Algebras are materialized lazily per degree window and
immutable once a window is built; all downstream arithmetic (PBW, modules,
complexes) refers to basis elements by their integer id within an algebra.
Coefficients are exact: an int wherever the value is integral (every
built-in structure constant and beta value), a Fraction otherwise; mixed
int/Fraction arithmetic stays exact and never produces a float.

Built-in constructors: the untwisted affine algebra of sl2 (with its central
element K, derivation d, affine cocycle and the functional beta), the abelian
test algebra, and the loop-nilpotent subalgebra "a" of affine sl2.
"""

from __future__ import annotations

import json
from fractions import Fraction

Weight = tuple  # integer coordinate tuples

BIG = 10**9  # window bound used by finite user-defined algebras


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
        self.central: set[int] = set()
        self._beta: dict = {}
        self._win_lo = 0
        self._win_hi = -1  # empty window
        self._memos: dict = {}
        # semi-infinite form monomials per ell, built once (see forms._forms_at)
        self._form_index: dict = {}
        self._tail_counts: dict = {}  # see forms._tail_above

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

    def content_window(self) -> tuple:
        """Degree range that can actually hold basis elements (finite)."""
        degs = [d for d, lst in self._by_degree.items() if lst]
        if not degs:
            return (0, 0)
        return (min(degs), max(degs))

    def in_window(self, d: int) -> bool:
        return self._win_lo <= d <= self._win_hi

    # -- queries -------------------------------------------------------------

    def ell(self, weight: Weight) -> int:
        return sum(a * b for a, b in zip(self.degree_functional, weight))

    def elements_of_degree(self, d: int) -> list[int]:
        if not self.in_window(d):
            raise WindowError(f"{self.name}: degree {d} outside window {self.window()}")
        lst = self._by_degree.get(d)
        if lst is None:
            # declared window wider than the materialized table (finite algebras)
            self._materialize_degree(d)
            lst = self._by_degree[d]
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
        """Structure constants [x_i, x_j] as {eid: coefficient}."""
        if i == j:
            return {}
        flip = False
        if i > j:
            i, j = j, i
            flip = True
        key = (i, j)
        res = self._brackets.get(key)
        if res is None:
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
            self._brackets[key] = res
        if flip:
            return {k: -v for k, v in res.items()}
        return res

    def eid_by_weight_index(self, weight: Weight, index: int):
        return self._by_wi.get((tuple(weight), index))

    def fingerprint(self) -> str:
        return f"{self.name}/r{self.rank}"


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

_SL2_BRACKET = {
    ("e", "f"): {"h": 1},
    ("f", "e"): {"h": -1},
    ("h", "e"): {"e": 2},
    ("e", "h"): {"e": -2},
    ("h", "f"): {"f": -2},
    ("f", "h"): {"f": 2},
}
_SL2_FORM = {("e", "f"): 1, ("f", "e"): 1, ("h", "h"): 2}


def _loop_label(x: str, n: int) -> str:
    if n == 0:
        return f"1⊗{x}"
    if n == 1:
        return f"z⊗{x}"
    return f"z^{n}⊗{x}"


class AffineSL2(GradedLieAlgebra):
    """Affine sl2: loop algebra plus central K and derivation d.

    Weights are (alpha-coordinate, delta-coordinate); deg z = 2, deg e = 1,
    deg f = -1, so deg(z^n e) = 2n+1, deg(z^n h) = 2n, deg(z^n f) = 2n-1.
    Normalization: <e,f> = 1, <h,h> = 2; beta(1⊗h) = 2, beta(K) = 4,
    beta(d) = 1 (values 2ρ, 2h∨ and 1 for sl2).
    """

    def __init__(self):
        super().__init__("affine_sl2", 2, (1, 2))
        self.meta: list[tuple] = []

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
        start = len(self.weights)
        super()._materialize_degree(d)
        for eid in range(start, len(self.weights)):
            a, n = self.weights[eid]
            if self.degrees[eid] == 0 and self.indices[eid] == 1:
                self.meta.append(("K",))
                self.central.add(eid)
                self._beta[eid] = 4
            elif self.degrees[eid] == 0 and self.indices[eid] == 2:
                self.meta.append(("d",))
                self._beta[eid] = 1
            else:
                x = {1: "e", 0: "h", -1: "f"}[a]
                self.meta.append(("loop", x, n))
                if x == "h" and n == 0:
                    self._beta[eid] = 2

    def _bracket_rule(self, i, j):
        mi, mj = self.meta[i], self.meta[j]
        if mi[0] == "K" or mj[0] == "K":
            return {}
        if mi[0] == "d" or mj[0] == "d":
            sign = 1 if mi[0] == "d" else -1
            other = j if mi[0] == "d" else i
            n = self.meta[other][2]
            return {other: sign * n} if n else {}
        _, x, m = mi
        _, y, n = mj
        out: dict = {}
        for zsym, c in _SL2_BRACKET.get((x, y), {}).items():
            eid = self.eid_by_weight_index(self._loop_weight(zsym, m + n), 0)
            if eid is None:
                raise WindowError(f"affine_sl2: z^{m+n}⊗{zsym} not materialized")
            out[eid] = out.get(eid, 0) + c
        pairing = _SL2_FORM.get((x, y))
        if pairing and m + n == 0 and m:
            k_eid = self.eid_by_weight_index((0, 0), 1)
            out[k_eid] = out.get(k_eid, 0) + m * pairing
        return {k: v for k, v in out.items() if v}

    @staticmethod
    def _loop_weight(x: str, n: int) -> Weight:
        return ({"e": 1, "h": 0, "f": -1}[x], n)


class AbelianTestAlgebra(GradedLieAlgebra):
    """Abelian algebra with basis x_n, n != 0, deg x_n = n, beta = 0."""

    def __init__(self):
        super().__init__("abelian", 1, (1,))

    def _realize(self, d):
        if d == 0:
            return []
        return [((d,), 0, f"x_{d}")]


class LoopNilpotentA(GradedLieAlgebra):
    """The subalgebra a of affine sl2 as a standalone algebra.

    Basis z^n⊗f (all n) and z^n⊗h (n >= 1) with the inherited brackets; the
    affine cocycle never contributes (K is not a member and no pairing of
    members hits it).  Degree-0 component is zero; beta = 0.
    """

    def __init__(self):
        super().__init__("subalgebra_a", 2, (1, 2))

    def _realize(self, d):
        out = []
        if d % 2:
            n = (d + 1) // 2
            out.append(((-1, n), 0, _loop_label("f", n)))
        elif d >= 2:
            n = d // 2
            out.append(((0, n), 0, _loop_label("h", n)))
        return out

    def _bracket_rule(self, i, j):
        ai, ni = self.weights[i]
        aj, nj = self.weights[j]
        if ai == 0 and aj == -1:
            target = self.eid_by_weight_index((-1, ni + nj), 0)
            if target is None:
                raise WindowError(f"subalgebra_a: z^{ni+nj}⊗f not materialized")
            return {target: -2}
        if ai == -1 and aj == 0:
            target = self.eid_by_weight_index((-1, ni + nj), 0)
            if target is None:
                raise WindowError(f"subalgebra_a: z^{ni+nj}⊗f not materialized")
            return {target: 2}
        return {}


class UserAlgebra(GradedLieAlgebra):
    """Finite algebra defined by an explicit basis/bracket/beta table."""

    def __init__(self, name, rank, degree_functional, basis, brackets, beta):
        super().__init__(name, rank, degree_functional)
        self._table: dict[int, list] = {}
        self._given_basis = basis
        self._given_brackets = brackets
        degs = [self.ell(tuple(b["weight"])) for b in basis]
        for deg, b in zip(degs, basis):
            self._table.setdefault(deg, []).append((tuple(b["weight"]), b["index"], b["label"]))
        self._rules: dict[tuple, dict] = {}
        self.ensure_window(min(degs, default=0), max(degs, default=0))
        self._win_lo, self._win_hi = -BIG, BIG
        for entry in brackets:
            i = self.by_label(basis[entry["i"]]["label"])
            j = self.by_label(basis[entry["j"]]["label"])
            terms = {
                self.by_label(basis[t["k"]]["label"]): exact(Fraction(t["num"], t.get("den", 1)))
                for t in entry["terms"]
            }
            lo, hi = (i, j) if i < j else (j, i)
            self._rules[(lo, hi)] = terms if (lo, hi) == (i, j) else {k: -v for k, v in terms.items()}
        for entry in beta:
            self._beta[self.by_label(entry["label"])] = exact(Fraction(entry["num"], entry.get("den", 1)))

    def _realize(self, d):
        return self._table.get(d, [])

    def _bracket_rule(self, i, j):
        return self._rules.get((i, j), {})


class SubalgebraSpec:
    """A graded subalgebra view sharing the parent's basis element ids."""

    def __init__(self, parent, name, member):
        self.parent = parent
        self.name = f"{parent.name}:{name}"
        self.rank = parent.rank
        self.degree_functional = parent.degree_functional
        self._member = member
        self._form_index: dict = {}
        self._tail_counts: dict = {}  # see forms._tail_above

    def is_member(self, eid: int) -> bool:
        return self._member(eid)

    def ensure_window(self, lo, hi):
        self.parent.ensure_window(lo, hi)

    def window(self):
        return self.parent.window()

    def content_window(self):
        return self.parent.content_window()

    def in_window(self, d):
        return self.parent.in_window(d)

    def ell(self, weight):
        return self.parent.ell(weight)

    def elements_of_degree(self, d):
        return [e for e in self.parent.elements_of_degree(d) if self._member(e)]

    def elements_in_degrees(self, lo, hi):
        out = []
        for d in range(lo, hi + 1):
            out.extend(self.elements_of_degree(d))
        return out

    def degree(self, eid):
        return self.parent.degree(eid)

    def weight(self, eid):
        return self.parent.weight(eid)

    def label(self, eid):
        return self.parent.label(eid)

    def key(self, eid):
        return self.parent.key(eid)

    def by_label(self, label):
        eid = self.parent.by_label(label)
        if not self._member(eid):
            raise AlgebraError(f"{label!r} is not a member of {self.name}")
        return eid

    def beta_value(self, eid):
        return self.parent.beta_value(eid)

    def beta_items(self):
        items = self.parent.beta_items()
        return {lbl: v for lbl, v in items.items() if self._member(self.parent.by_label(lbl))}

    def bracket_ids(self, i, j):
        res = self.parent.bracket_ids(i, j)
        for k in res:
            if not self._member(k):
                raise AlgebraError(
                    f"{self.name}: bracket of {self.parent.label(i)}, {self.parent.label(j)} "
                    f"leaves the subalgebra (term {self.parent.label(k)})"
                )
        return res

    def fingerprint(self):
        return f"{self.parent.fingerprint()}:{self.name}"

    @property
    def _memos(self):
        return self.parent._memos


# -- constructors and selectors ------------------------------------------------


def build_affine_sl2() -> AffineSL2:
    alg = AffineSL2()
    alg.ensure_window(-2, 2)
    return alg


def build_test_algebra(kind: str) -> GradedLieAlgebra:
    if kind == "abelian":
        alg = AbelianTestAlgebra()
    elif kind in ("loop-nilpotent-a", "subalgebra_a"):
        alg = LoopNilpotentA()
    else:
        raise AlgebraError(f"unknown test algebra kind {kind!r}")
    alg.ensure_window(-2, 2)
    return alg


def split_semiinfinite(alg) -> tuple:
    """(g_plus, g_minus) by the sign of the degree; both closed under bracket."""
    return subalgebra(alg, "gplus"), subalgebra(alg, "gminus")


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
        meta = alg.meta
        if selector == "a":
            return SubalgebraSpec(
                alg,
                "a",
                lambda e: meta[e][0] == "loop" and (meta[e][1] == "f" or (meta[e][1] == "h" and meta[e][2] >= 1)),
            )
        return SubalgebraSpec(
            alg,
            "abar",
            lambda e: meta[e][0] in ("K", "d")
            or (meta[e][0] == "loop" and (meta[e][1] == "e" or (meta[e][1] == "h" and meta[e][2] <= 0))),
        )
    if selector == "loop-nminus":
        # the abelian loop algebra of the lowering root vectors: alpha-coordinate -1
        if alg.rank < 1:
            raise AlgebraError("loop-nminus needs a root coordinate")
        return SubalgebraSpec(alg, "loop-nminus", lambda e: alg.weight(e)[0] == -1)
    if selector == "custom":
        members = set(custom or [])
        view = SubalgebraSpec(alg, "custom", lambda e: e in members)
        wlo, whi = alg.window()
        clo, chi = alg.content_window()
        check_closure(view, max(wlo, clo), min(whi, chi))
        return view
    raise AlgebraError(f"unknown subalgebra selector {selector!r}")


def check_closure(view: SubalgebraSpec, lo: int, hi: int) -> None:
    """Raise if the view is not bracket-closed within the window."""
    for d1 in range(lo, hi + 1):
        for i in view.elements_of_degree(d1):
            for d2 in range(d1, hi + 1):
                if not lo <= d1 + d2 <= hi:
                    continue
                for j in view.elements_of_degree(d2):
                    view.bracket_ids(i, j)


def beta_functional(alg) -> dict:
    """beta as {label: exact value} on the degree-0 basis."""
    return alg.beta_items()


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
    "abelian": lambda: build_test_algebra("abelian"),
    "subalgebra_a": lambda: build_test_algebra("loop-nilpotent-a"),
}


def load_algebra(source) -> GradedLieAlgebra:
    """Load an algebra from a builtin name, a JSON file path, or a dict."""
    if isinstance(source, str):
        if source in BUILTINS:
            return BUILTINS[source]()
        with open(source) as fh:
            data = json.load(fh)
    else:
        data = source
    if "builtin" in data:
        name = data["builtin"]
        if name not in BUILTINS:
            raise AlgebraError(f"unknown builtin algebra {name!r}")
        return BUILTINS[name]()
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
    if basis_window:
        lo, hi = basis_window
    else:
        wlo, whi = alg.window()
        clo, chi = alg.content_window()
        lo, hi = max(wlo, clo), min(whi, chi)
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
