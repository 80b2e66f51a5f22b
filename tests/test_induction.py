"""The semiregular bimodule, semi-induction, Wakimoto, Shapiro, and the
universal property."""

import json
from collections import Counter
from fractions import Fraction

import pytest

from conftest import (
    assert_same_semiinvariants,
    reference_apply,
    reference_bimodule,
    reference_check_commutators,
    reference_semiinvariants,
    straighten,
)
from semiflex.forms import semiinf_cohomology, semiinvariants
from semiflex import induction, linalg
from semiflex.cli import JobSpec, run_job
from semiflex._kernels import row_echelon_int
from semiflex.induction import (
    InductionError,
    SemiregularModel,
    WakimotoSpace,
    _TensorSpace,
    _descended_module,
    _invariant_completion,
    _right_action_rows,
    _truncated_x_basis,
    check_shapiro,
    check_universal_property,
    check_us,
    s_ind,
    universal_semijective,
    wakimoto,
)
from semiflex.liealg import SubalgebraSpec, WindowError, load_algebra, subalgebra, wt_add, wt_sub, wt_zero
from semiflex.linalg import SparseMatrix, Subspace
from semiflex.modules import (
    WeightModule,
    _lambda_values,
    ce_cohomology,
    character,
    character_module,
    check_commutators,
    coverma,
    direct_sum,
    product_formula_character,
    verma,
)
from semiflex.pbw import compress, enumerate_pbw_weights, flatten, monomial_weight, multiplier, normal_order_word, split


NEG_HEIS = {
    "name": "negheis",
    "grading": {"rank": 2, "degree_functional": [1, 1]},
    "basis": [
        {"label": "a", "weight": [-1, 0], "index": 0},
        {"label": "b", "weight": [0, -1], "index": 0},
        {"label": "c", "weight": [-1, -1], "index": 0},
    ],
    "brackets": [{"i": 0, "j": 1, "terms": [{"k": 2, "num": 1}]}],
    "beta": [],
}

POS_HEIS = {
    "name": "posheis",
    "grading": {"rank": 2, "degree_functional": [1, 1]},
    "basis": [
        {"label": "x", "weight": [1, 0], "index": 0},
        {"label": "y", "weight": [0, 1], "index": 0},
        {"label": "z", "weight": [1, 1], "index": 0},
    ],
    "brackets": [{"i": 0, "j": 1, "terms": [{"k": 2, "num": 1}]}],
    "beta": [],
}


def test_descended_action_reads_image_coordinates_and_detects_escapes():
    """A hand-built subquotient: relation (1,0,0,0) and image (1,1,0,0),
    (0,0,1,0) at the target weight, so (0,0,0,1) lies outside."""
    neg = load_algebra(NEG_HEIS)
    a = neg.by_label("a")
    src, tgt = (0, 0), (-1, 0)
    spans = {
        src: Subspace().extend([(1, 0), (0, 1)]),
        tgt: Subspace([(1, 0, 0, 0)]).extend([(1, 1, 0, 0), (0, 0, 1, 0)]),
    }

    def descend(images):
        left = SparseMatrix.from_columns(images)
        return _descended_module(neg, "toy", "t", spans, lambda z, w: left, "escaped at", 2).action(a, src)

    # e0 -> 1 rel + 2 img0, e1 -> 4 rel + 5 img1: only image coordinates land
    mat = descend([(3, 2, 0, 0), (4, 0, 5, 0)])
    assert [[mat.get(r, c) for c in range(2)] for r in range(2)] == [[2, 0], [0, 5]]
    with pytest.raises(InductionError, match=r"escaped at \(0, 0\)"):
        descend([(0, 0, 0, 1), (4, 0, 5, 0)])
    # only the second target of the batch escapes
    with pytest.raises(InductionError, match=r"escaped at \(0, 0\)"):
        descend([(3, 2, 0, 0), (0, 0, 0, 7)])


def test_us_requires_vanishing_degree_zero(sl2):
    with pytest.raises(InductionError, match="vanishing degree-0 part; over one, s_ind induces"):
        universal_semijective(sl2, 2)


def test_us_dims_pair_count(loop_a):
    us = universal_semijective(loop_a, 3)
    # independent: convolution of U(a+)^* and U(a-) weight counts
    qt = enumerate_pbw_weights(subalgebra(loop_a, "gplus"), 3)
    mt = enumerate_pbw_weights(subalgebra(loop_a, "gminus"), 3)
    expected = {}
    for qw, qs in qt.items():
        for mw, ms in mt.items():
            w = tuple(m - q for q, m in zip(qw, mw))
            if loop_a.ell(w) >= -3:
                expected[w] = expected.get(w, 0) + len(qs) * len(ms)
    assert {w: len(b) for w, b in us.weights.items()} == expected
    assert us.dim((0, 0)) == 1


def test_us_left_right_oracles_and_bimodule(loop_a):
    us = universal_semijective(loop_a, 3)
    assert check_commutators(us.left, (-3, 3)) == []
    assert check_commutators(us.right, (-3, 3)) == []
    assert check_commutators(us.left, (-3, 3), b=us.right) == []


def _corrupted_us(alg, side: str):
    """US(alg) to depth 3 with one entry of the ``side`` action of 1⊗f at the
    vacuum weight raised by one, in the rule of the module ``us.<side>``."""
    us = universal_semijective(alg, 3)
    f = alg.by_label("1⊗f")
    module = getattr(us, side)
    original = module._rule

    def corrupted(z, w):
        mat = original(z, w)
        if z == f and tuple(w) == (0, 0):
            mat.add(0, 0, 1)
        return mat

    module._rule = corrupted
    return us


# the pairs whose products read the right action of 1⊗f at the vacuum weight
CORRUPTED_RIGHT_FAILURES = [
    ("1⊗f", "z⊗h", (0, -1)),
    ("z⊗h", "z^-1⊗f", (0, 0)),
    ("1⊗f", "z⊗f", (1, -1)),
]
# every ordered pair: x = y = 1⊗f is checked, and the right factor is y
CORRUPTED_BIMODULE_FAILURES = [
    ("z⊗h", "1⊗f", (0, -1)),
    ("1⊗f", "1⊗f", (0, 0)),
    ("z⊗f", "1⊗f", (1, -1)),
]


def test_us_oracles_report_a_corrupted_right_action(loop_a):
    """r_{1⊗f} at the vacuum weight off by one: the right oracle and the
    bimodule check each report exactly the pairs whose products use it."""
    us = _corrupted_us(loop_a, "right")
    assert check_commutators(us.right, (-3, 3)) == CORRUPTED_RIGHT_FAILURES
    assert check_commutators(us.left, (-3, 3), b=us.right) == CORRUPTED_BIMODULE_FAILURES
    assert check_commutators(us.left, (-3, 3)) == []


@pytest.mark.parametrize("side", ["left", "right"])
def test_check_us_and_verify_us_fail_on_a_corrupted_builder(loop_a, side, monkeypatch):
    """Entry (0, 0) of 1⊗f at the vacuum weight raised by one in the US
    builder of either action: check_us fails the verdicts that read that
    action, with the failures the oracles report on it, and verify-us
    exits 1."""
    name = f"{side}_matrix"
    real = SemiregularModel.__dict__[name]

    def corrupted(self, z, w):
        mat = real(self, z, w)
        if self.alg.label(z) == "1⊗f" and tuple(w) == (0, 0):
            mat.add(0, 0, 1)
        return mat

    monkeypatch.setattr(SemiregularModel, name, corrupted)
    iso, iso1 = check_us(loop_a, 3)
    assert not iso1.passed
    if side == "right":
        assert not iso.passed
        assert iso.details["oracle_failures"] == CORRUPTED_RIGHT_FAILURES
        assert iso1.details["oracle_failures"] == []
        assert iso1.details["bimodule_failures"] == CORRUPTED_BIMODULE_FAILURES
    else:
        assert iso.passed
        assert iso1.details["oracle_failures"]
    assert run_job(JobSpec("verify-us", algebra="a", depth=3)) == 1


@pytest.mark.parametrize("side", [None, "left", "right"])
def test_us_oracles_match_the_reference_loops(loop_a, side):
    """Left, right and bimodule failures equal those of the separate loops,
    on a correct US model and on one with either action corrupted."""
    us = universal_semijective(loop_a, 3) if side is None else _corrupted_us(loop_a, side)
    window = (-3, 3)
    got = (
        check_commutators(us.left, window),
        check_commutators(us.right, window),
        check_commutators(us.left, window, b=us.right),
    )
    want = (
        reference_check_commutators(us.left, window),
        reference_check_commutators(us.right, window),
        reference_bimodule(us, window),
    )
    assert got == want
    assert [bool(f) for f in got] == [side == "left", side == "right", side is not None]


def test_us_left_action_hand_values(loop_a):
    """ell_f on the vacuum pair: (1*, f) plus correction terms slid onto the
    dual side; frozen from a hand straightening."""
    us = universal_semijective(loop_a, 2)
    f = loop_a.by_label("1⊗f")
    mat = us.left.action(f, (0, 0))
    target = tuple(a + b for a, b in zip((0, 0), loop_a.weight(f)))
    basis = us.basis(target)
    col = {}
    for r, row in enumerate(mat.rows):
        v = row.get(0)
        if v:
            col[basis[r]] = v
    # over the algebra a there is no positive partner of f at ell <= 1, so the
    # only term is (1*, f) with coefficient +1
    assert col == {((), ((f, 1),)): Fraction(1)}


def test_prop_iso_checks(loop_a, abelian):
    for alg in (loop_a, abelian):
        iso, iso1 = check_us(alg, 3)
        assert iso.passed and iso1.passed


def test_verify_us_builds_one_model(loop_a, monkeypatch, tmp_path):
    """verify-us writes both verdicts of check_us from one US model, so no
    right-action matrix is built twice."""
    alone = [verdict.to_json() for verdict in check_us(loop_a, 3)]
    models, builds = [], Counter()
    real_model, real_right = induction.universal_semijective, SemiregularModel.right_matrix

    def counting_model(alg, depth):
        models.append(real_model(alg, depth))
        return models[-1]

    def counting_right(self, z, w):
        builds[id(self), z, w] += 1
        return real_right(self, z, w)

    monkeypatch.setattr(induction, "universal_semijective", counting_model)
    monkeypatch.setattr(SemiregularModel, "right_matrix", counting_right)
    out = tmp_path / "us.json"
    assert run_job(JobSpec("verify-us", algebra="a", depth=3, out=str(out))) == 0
    assert len(models) == 1 and builds and set(builds.values()) == {1}
    assert json.loads(out.read_text()) == json.loads(json.dumps(alone))


@pytest.mark.parametrize("index", [0, 1], ids=["check_prop-iso", "check_prop-iso-1"])
@pytest.mark.parametrize("name", ["loop_a", "abelian"])
def test_prop_iso_dims_are_counted_apart_from_the_monomial_tables(name, index, request, monkeypatch):
    """The expected graded dimensions come from the bases of g+ and g-, not
    from the PBW tables the pair space is built from: a U(g-) table short
    of its deepest monomial fails the verdict, in its dimensions."""
    alg = request.getfixturevalue(name)
    assert check_us(alg, 3)[index].details["dim_diffs"] == {}
    real = induction.enumerate_pbw_weights

    def short_of_the_deepest(sub, depth, order=None):
        table = real(sub, depth, order)
        deepest = min(table, key=sub.ell)
        if sub.ell(deepest) < 0:
            table[deepest] = table[deepest][:-1]
        return table

    monkeypatch.setattr(induction, "enumerate_pbw_weights", short_of_the_deepest)
    verdict = check_us(alg, 3)[index]
    assert not verdict.passed
    assert verdict.details["dim_diffs"]


def test_us_purely_negative_is_enveloping():
    neg = load_algebra(NEG_HEIS)
    us = universal_semijective(neg, 3)
    tab = enumerate_pbw_weights(subalgebra(neg, "gminus"), 3)
    assert {w: len(b) for w, b in us.weights.items()} == {w: len(m) for w, m in tab.items()}
    assert all(verdict.passed for verdict in check_us(neg, 3))
    # left action = left multiplication: U(g) is generated from the pair (1*, 1)
    L = us.left
    assert check_commutators(L, (-3, -1)) == []


def test_us_purely_positive_is_dual():
    pos = load_algebra(POS_HEIS)
    us = universal_semijective(pos, 3)
    tab = enumerate_pbw_weights(subalgebra(pos, "gplus"), 3)
    expected = {tuple(-x for x in w): len(m) for w, m in tab.items()}
    assert {w: len(b) for w, b in us.weights.items()} == expected
    assert all(verdict.passed for verdict in check_us(pos, 3))


def test_s_ind_degenerates_to_induction():
    neg = load_algebra(NEG_HEIS)
    h = subalgebra(neg, "custom", custom=[neg.by_label("b"), neg.by_label("c")])
    S = s_ind(neg, h, character_module(neg, {}, 3), 3)
    # classical induction: U(g) ⊗_h C has the a-power transversal
    assert {w: S.dim(w) for w in S.weights} == {(0, 0): 1, (-1, 0): 1, (-2, 0): 1, (-3, 0): 1}
    assert check_commutators(S, (-3, -1)) == []


def test_s_ind_degenerates_to_coinduction():
    pos = load_algebra(POS_HEIS)
    h = subalgebra(pos, "custom", custom=[pos.by_label("y"), pos.by_label("z")])
    S = s_ind(pos, h, character_module(pos, {}, 3), 3)
    assert {w: S.dim(w) for w in S.weights} == {(0, 0): 1, (-1, 0): 1, (-2, 0): 1, (-3, 0): 1}
    assert check_commutators(S, (1, 3)) == []
    # cross-check against classical Lie algebra cohomology (Shapiro, degenerate)
    th = ce_cohomology(subalgebra(pos, "custom", custom=[pos.by_label("y"), pos.by_label("z")]), character_module(pos, {}, 3), 3)
    tg = ce_cohomology(subalgebra(pos, "gplus"), S, 3)
    assert th.same_dims(tg)[0]


def test_s_ind_from_zero_subalgebra_is_us(loop_a):
    h = subalgebra(loop_a, "custom", custom=[])
    S = s_ind(loop_a, h, character_module(loop_a, {}, 3), 3)
    us = universal_semijective(loop_a, 3)
    assert {w: S.dim(w) for w in S.weights} == {w: len(b) for w, b in us.weights.items()}
    assert check_commutators(S, (-2, 2)) == []


def test_s_ind_oracle_loop_nminus(loop_a):
    h = subalgebra(loop_a, "loop-nminus")
    S = s_ind(loop_a, h, character_module(loop_a, {}, 3), 3)
    assert check_commutators(S, (-3, 3)) == []


def test_shapiro_main_case(loop_a):
    h = subalgebra(loop_a, "loop-nminus")
    M = character_module(loop_a, {}, 3)
    verdict, th, tg = check_shapiro(loop_a, h, M, 3)
    assert verdict.passed
    assert len(th.nonzero()) >= 4  # genuinely nontrivial tables
    assert th.euler_consistent() and tg.euler_consistent()


def test_shapiro_identity_case(loop_a):
    # h = g as a (full) subalgebra view: S-ind M is isomorphic to M
    h = SubalgebraSpec(loop_a, "all", lambda e: True)
    M = character_module(loop_a, {}, 2)
    verdict, th, tg = check_shapiro(loop_a, h, M, 2)
    assert verdict.passed


def test_wakimoto_dims_and_top(sl2, lam01):
    W = wakimoto(sl2, lam01, 4)
    assert W.dim((0, 0)) == 1
    assert W.dim((-1, -1)) == 3
    for d in range(1, 4):
        for z in sl2.elements_of_degree(d):
            assert W.action(z, (0, 0)).nnz == 0


def test_wakimoto_character_triple(sl2, lam01):
    for depth in (4, 6):
        chw = character(wakimoto(sl2, lam01, depth), depth)
        chv = character(verma(sl2, lam01, depth), depth)
        chvs = character(coverma(sl2, lam01, depth), depth)
        pf = product_formula_character(sl2, depth)
        assert chw == chv == chvs == pf


def test_wakimoto_oracle(sl2, lam01):
    W = wakimoto(sl2, lam01, 4)
    assert check_commutators(W, (-3, 3)) == []


def test_wakimoto_restricted_to_a_has_us_character(sl2, loop_a, lam01):
    """As an a-module, W(lambda) has the graded character of US(a) ⊗ C."""
    W = wakimoto(sl2, lam01, 3)
    us = universal_semijective(loop_a, 3)
    assert {w: W.dim(w) for w in W.weights if sl2.ell(w) >= -3} == {
        w: len(b) for w, b in us.weights.items()
    }


def test_wakimoto_level_zero_and_rational(sl2):
    for lam in (
        {"1⊗h": Fraction(0), "K": Fraction(0), "d": Fraction(0)},
        {"1⊗h": Fraction(-1, 2), "K": Fraction(1, 3), "d": Fraction(5)},
    ):
        W = wakimoto(sl2, lam, 3)
        assert character(W, 3) == product_formula_character(sl2, 3)
        assert check_commutators(W, (-2, 2)) == []
        table = semiinf_cohomology(subalgebra(sl2, "a"), W, 3)
        assert table.nonzero() == [((0, 0), 0, 1)]


def test_shapiro_depth_four(loop_a):
    h = subalgebra(loop_a, "loop-nminus")
    verdict, th, tg = check_shapiro(loop_a, h, character_module(loop_a, {}, 4), 4)
    assert verdict.passed
    assert len(th.nonzero()) >= 8


def test_shapiro_with_induced_coefficients(loop_a):
    h = subalgebra(loop_a, "loop-nminus")
    N = verma(loop_a, {}, 3)  # restricted to h inside the pipeline
    S = s_ind(loop_a, h, N, 3)
    assert check_commutators(S, (-3, 3)) == []
    verdict, _th, _tg = check_shapiro(loop_a, h, N, 3)
    assert verdict.passed


# lambda = (h, K, d) -> the one weight of H(ā, C_lambda)'s cells and its
# ghost degrees, each block with dims 1, 3, 3, 1 (None: no cells), at D=4
SHAPIRO_CELLS = {
    (-4, -4, 0): ((1, -1), range(-4, 0)),
    (0, -4, -1): ((-1, 0), range(-2, 2)),
    (2, -4, 0): ((-2, -1), range(-1, 3)),
    (0, 1, 0): None,
    (0, -2, 0): None,
}


def _hkd(hkd):
    return dict(zip(("1⊗h", "K", "d"), hkd))


def _borel(g):
    return SubalgebraSpec(g, "b", lambda e: g.degree(e) >= 0)


@pytest.mark.parametrize("hkd", list(SHAPIRO_CELLS), ids=str)
def test_shapiro_over_affine_sl2_from_abar_is_the_wakimoto_table(sl2, hkd):
    """Shapiro's lemma over all of affine sl2: S-ind from ā of C_lambda is
    W(lambda), through s_ind with no dispatch, and its ĝ table is H(ā, C_lambda)."""
    lam, abar = _hkd(hkd), subalgebra(sl2, "abar")
    verdict, table_h, table_g = check_shapiro(sl2, abar, character_module(abar, lam, 4), 4)
    assert verdict.passed
    assert table_g.same_dims(semiinf_cohomology(sl2, wakimoto(sl2, lam, 4), 4))[0]
    cells = SHAPIRO_CELLS[hkd]
    want = [] if cells is None else [(cells[0], n, dim) for n, dim in zip(cells[1], (1, 3, 3, 1))]
    assert table_h.nonzero() == want


@pytest.mark.parametrize("hkd", list(SHAPIRO_CELLS), ids=str)
def test_shapiro_over_affine_sl2_from_b_and_b_minus(sl2, hkd):
    """S-ind from b = ĝ≥0 has the Verma module's ĝ table and from b₋ =
    ĝ≤0 the contragredient one's; both pass Shapiro, and S-ind from b the
    commutator oracle."""
    lam = _hkd(hkd)
    for sub, module in ((_borel(sl2), verma), (subalgebra(sl2, "gminus"), coverma)):
        verdict, _th, table_g = check_shapiro(sl2, sub, character_module(sub, lam, 4), 4)
        assert verdict.passed
        assert table_g.same_dims(semiinf_cohomology(sl2, module(sl2, lam, 4), 4))[0]
    b = _borel(sl2)
    assert check_commutators(s_ind(sl2, b, character_module(b, lam, 4), 4), (-2, 2)) == []


def test_shapiro_over_affine_sl2_tells_w_from_verma_types(sl2):
    """Controls: H(ā, C_lambda) is not M(lambda)'s ĝ table at (-4, -4, 0),
    nor M(lambda)^∨'s at (0, -4, -1)."""
    abar = subalgebra(sl2, "abar")
    for hkd, module in (((-4, -4, 0), verma), ((0, -4, -1), coverma)):
        lam = _hkd(hkd)
        table_h = semiinf_cohomology(abar, character_module(abar, lam, 4), 4)
        assert not table_h.same_dims(semiinf_cohomology(sl2, module(sl2, lam, 4), 4))[0]


S_IND_PRECONDITIONS = {
    "sub misses degree 0 (gplus)": (lambda g: subalgebra(g, "gplus"), character_module, r"affine_sl2:gplus must hold that part, and misses 1⊗h, K, d"),
    "sub misses degree 0 (loop-nminus)": (lambda g: subalgebra(g, "loop-nminus"), character_module, r"affine_sl2:loop-nminus must hold that part"),
    "module not one-dimensional": (lambda g: subalgebra(g, "abar"), verma, r"the module must be one-dimensional at weight 0, and V\(.*\) is not"),
    "sub is the whole algebra": (lambda g: g, character_module, r"S-ind from affine_sl2 to itself is not built"),
    # e and f lie in the complement of the Heisenberg part, [e, f] = h does not
    "complement not closed": (
        lambda g: SubalgebraSpec(g, "heis", lambda e: g.weight(e)[0] == 0),
        character_module,
        r"the complement of affine_sl2:heis must be a subalgebra: .* leaves the subalgebra",
    ),
}


@pytest.mark.parametrize("case", list(S_IND_PRECONDITIONS))
def test_s_ind_over_a_degree_zero_part_names_its_precondition(sl2, case):
    pick, build, message = S_IND_PRECONDITIONS[case]
    sub = pick(sl2)
    with pytest.raises(InductionError, match=r"s_ind over affine_sl2, whose degree-0 part is not zero: " + message):
        s_ind(sl2, sub, build(sub, {}, 3), 3)


def test_wakimoto_critical_level(sl2):
    lam = {"1⊗h": Fraction(0), "K": Fraction(-4), "d": Fraction(0)}
    W = wakimoto(sl2, lam, 4)
    assert character(W, 4) == product_formula_character(sl2, 4)
    assert check_commutators(W, (-3, 3)) == []
    table = semiinf_cohomology(subalgebra(sl2, "a"), W, 4)
    assert table.nonzero() == [((0, 0), 0, 1)]


def test_invariant_completion_names_weight_and_cap_when_it_runs_out(sl2, lam01):
    space = _wakimoto_space(sl2, lam01, 3)
    w = (2, -2)  # where the co-singular direction of lambda = (0, 1) is completed
    want = space.dim(w) + 1
    with pytest.raises(InductionError, match=rf"weight \(2, -2\): .* of {want} dimensions .*cap of length 3"):
        _invariant_completion(space, w, Subspace(), want)


def test_invariant_completion_projects_to_dense_vectors(sl2):
    """At lambda = (1, -1/2) the completion fills weight (1, -2), and a
    deeper lowering then takes that vector's images: the span and
    ``SparseMatrix.images`` read each projection as a dense vector over
    Q's basis."""
    lam = {"1⊗h": 1, "K": Fraction(-1, 2), "d": 0}
    W = wakimoto(sl2, lam, 6)
    assert character(W, 6) == product_formula_character(sl2, 6)
    assert check_commutators(W, (-2, 2)) == []


def test_universal_property_cases(loop_a, abelian):
    assert check_universal_property(loop_a, character_module(loop_a, {}, 3), 3).passed
    assert check_universal_property(abelian, character_module(abelian, {}, 3), 3).passed
    N = verma(loop_a, {}, 3)  # induced module over a at depth 3
    assert check_universal_property(loop_a, N, 3).passed


def _tensor_basis(space, w):
    """The basis quadruples (w1, i, w2, j) of US ⊗ M at w, sorted: basis
    vector i of US at w1 and j of M at w2 = w - w1, built from the factors."""
    w = tuple(w)
    if space.alg.ell(w) < -space.depth:
        return []
    model, module = space.model, space.module
    quads = []
    for w1 in model.weights:
        w2 = wt_sub(w, w1)
        quads.extend((w1, i, w2, j) for i in range(model.dim(w1)) for j in range(module.dim(w2)))
    return sorted(quads)


def _row_scan_action(alg, basis, xi, w, ops):
    """The tensor action as it was first written: fetch the factor matrix
    once per basis column and scan every row of it for that column, each
    target quadruple looked up in an index of ``basis(target weight)``."""
    w = tuple(w)
    shift = alg.weight(xi)
    rows = {t: i for i, t in enumerate(basis(wt_add(w, shift)))}
    cols = basis(w)
    mat = SparseMatrix(len(rows), len(cols))
    for ci, (w1, i, w2, j) in enumerate(cols):
        for slot, op in enumerate(ops):
            if op is None:
                continue
            wf, k = (w1, i) if slot == 0 else (w2, j)
            tw = wt_add(wf, shift)
            for r, row in enumerate(op(xi, wf).rows):
                v = row.get(k)
                if v:
                    rr = rows.get((tw, r, w2, j) if slot == 0 else (w1, i, tw, r))
                    if rr is not None:
                        mat.add(rr, ci, v)
    return mat


def _outcome(fn, *args):
    try:
        return fn(*args).rows
    except WindowError as exc:
        return str(exc)


def _tensor_modules(alg):
    """Verma, coverma, trivial and direct-sum modules over ``alg``, each one
    step shallower than the US model, so targets below the module's depth
    raise where US's do not."""
    return [
        verma(alg, {}, 3),
        coverma(alg, {}, 3),
        character_module(alg, {}, 3),
        direct_sum(verma(alg, {}, 3), coverma(alg, {}, 3)),
    ]


def test_tensor_action_reads_columns_like_the_row_scan(loop_a, abelian):
    for alg in (loop_a, abelian):
        us = universal_semijective(alg, 4)
        left_ops = (us.left.action, None)
        for module in _tensor_modules(alg):
            space = _TensorSpace(us, module, 4)
            diag_ops = (us.right.action, module.action)

            def basis(w):
                return _tensor_basis(space, w)

            checked = errors = 0
            for w in space.weights:
                for xi in alg.elements_in_degrees(-4, 4):
                    got = _outcome(space.action, xi, w)
                    assert got == _outcome(_row_scan_action, alg, basis, xi, w, diag_ops), (module.name, w, xi)
                    assert _outcome(space.left, xi, w) == _outcome(_row_scan_action, alg, basis, xi, w, left_ops), (w, xi)
                    checked += not isinstance(got, str) and any(got)
                    errors += isinstance(got, str)
            assert checked and errors, (alg.name, module.name)


def test_tensor_space_blocks_are_the_sorted_quadruples(loop_a, abelian):
    """The per-weight dimensions and block starts, summed without building a
    basis, are the ones read off the sorted quadruples: every weight that
    some factor pair reaches within the depth, and one
    block per nonempty factor pair at the position of its (w1, 0, w2, 0)."""
    for alg in (loop_a, abelian):
        us = universal_semijective(alg, 4)
        for module in _tensor_modules(alg):
            space = _TensorSpace(us, module, 4)
            reached = {wt_add(w1, w2) for w1 in us.weights for w2 in module.weights}
            assert set(space.weights) == {w for w in reached if alg.ell(w) >= -4}
            assert set(space._blocks) == set(space.weights)
            for w in space.weights:
                quads = _tensor_basis(space, w)
                assert space.dim(w) == len(quads), (module.name, w)
                starts = {w1: (start, w2) for start, (w1, i, w2, j) in enumerate(quads) if i == j == 0}
                assert space._blocks[w] == starts, (module.name, w)
                assert list(space._blocks[w]) == sorted(starts), (module.name, w)
            assert any(space.dim(w) for w in space.weights)


def test_tensor_action_reads_each_factor_once_per_block(loop_a, monkeypatch):
    """Each source block US_{w1} ⊗ M_{w2} reads rho_US(xi) at w1 once and
    then rho_M(xi) at w2 once, in block order, and no matrix is transposed."""
    us, module = universal_semijective(loop_a, 4), verma(loop_a, {}, 4)
    space = _TensorSpace(us, module, 4)
    reads = []

    def counting(side, action):
        def read(xi, w):
            reads.append((side, xi, w))
            return action(xi, w)

        return read

    def no_transpose(self):
        raise AssertionError("transpose called")

    monkeypatch.setattr(us.right, "action", counting("us", us.right.action))
    monkeypatch.setattr(us.left, "action", counting("us", us.left.action))
    monkeypatch.setattr(module, "action", counting("m", module.action))
    monkeypatch.setattr(SparseMatrix, "transpose", no_transpose)
    built = 0
    for w in space.weights:
        blocks = sorted({(w1, w2) for w1, _i, w2, _j in _tensor_basis(space, w)})
        for xi in loop_a.elements_in_degrees(-2, 2):
            for fn, sides in ((space.action, ("us", "m")), (space.left, ("us",))):
                del reads[:]
                try:
                    fn(xi, w)
                except WindowError:
                    continue
                built += 1
                wanted = [(side, xi, w1 if side == "us" else w2) for w1, w2 in blocks for side in sides]
                assert reads == wanted, (w, xi)
    assert built


class _ModuleFirstSpace:
    """N ⊗ US, the factor order the universal property was first checked
    in: basis quadruples (w1, i, w2, j) with i a basis vector of N at w1 and
    j one of US at w2, both actions by the row scan."""

    def __init__(self, module, us, depth):
        self.alg, self.depth = us.alg, depth
        self.weights = {}
        for w1 in module.weights:
            for w2 in us.weights:
                w = wt_add(w1, w2)
                if self.alg.ell(w) >= -depth:
                    bucket = self.weights.setdefault(w, [])
                    bucket.extend((w1, i, w2, j) for i in range(module.dim(w1)) for j in range(us.dim(w2)))
        for b in self.weights.values():
            b.sort()
        self._diag_ops = (module.action, us.right.action)
        self._left_ops = (None, us.left.action)

    def dim(self, w):
        return len(self.weights.get(tuple(w), ()))

    def basis(self, w):
        return self.weights.get(tuple(w), [])

    def action(self, xi, w):
        return _row_scan_action(self.alg, self.basis, xi, w, self._diag_ops)

    def left(self, xi, w):
        return _row_scan_action(self.alg, self.basis, xi, w, self._left_ops)


def _module_first_outcome(alg, module, depth):
    """(dim_diffs, equivariance) of the universal property over N ⊗ US, or
    the error it raises as (type, message)."""
    space = _ModuleFirstSpace(module, universal_semijective(alg, depth), depth)
    try:
        images = semiinvariants(alg, space, depth)
        escaped = "s_ind: left action left the semi-invariant subspace at weight"
        residual = _descended_module(alg, "N⊗US", "u", images, space.left, escaped, depth)
        dims = {w: len(span) for w, span in images.items() if span}
        ndims = {w: module.dim(w) for w in module.weights if alg.ell(w) >= -depth}
        dim_diffs = {
            w: (dims.get(w, 0), ndims.get(w, 0)) for w in set(dims) | set(ndims) if dims.get(w, 0) != ndims.get(w, 0)
        }
        return dim_diffs, check_commutators(residual, (-min(depth, 2), min(depth, 2)))
    except (InductionError, WindowError) as exc:
        return type(exc), str(exc)


def _universal_property_outcome(alg, module, depth):
    try:
        details = check_universal_property(alg, module, depth).details
        return details["dim_diffs"], details["equivariance"]
    except (InductionError, WindowError) as exc:
        return type(exc), str(exc)


def _corrupted_verma(alg, depth, label, w0):
    """The Verma module over ``alg`` with entry (0, 0) of the action of
    ``label`` at weight w0 raised by one."""
    V = verma(alg, {}, depth)
    z = alg.by_label(label)

    def rule(e, w):
        mat = V.action(e, w)
        if e == z and tuple(w) == w0:
            mat = SparseMatrix.from_rows(mat.rows, mat.ncols)
            mat.add(0, 0, 1)
        return mat

    return WeightModule(alg, "V-corrupted", V.weights, rule, depth)


@pytest.mark.parametrize("depth", [3, 4, 5])
def test_universal_property_matches_the_module_first_order(loop_a, abelian, depth):
    """US ⊗ N (through s_ind) and N ⊗ US are intertwined by the factor swap:
    the same dimension diffs and the same equivariance failures."""
    for alg in (loop_a, abelian):
        for module in (character_module(alg, {}, depth), verma(alg, {}, depth)):
            got = _universal_property_outcome(alg, module, depth)
            assert got == _module_first_outcome(alg, module, depth), (alg.name, module.name)
            assert got == ({}, [])


# -- semi-invariants under a generating set, against every positive element ------------


@pytest.mark.parametrize("depth", [3, 4, 5, 6])
@pytest.mark.parametrize("name", ["loop_a", "abelian"])
def test_tensor_semiinvariants_match_every_positive_element(name, depth, request):
    """US ⊗ trivial and US ⊗ Verma, the spaces the universal property takes
    semi-invariants of: the same image bases as under every positive element."""
    alg = request.getfixturevalue(name)
    for module in (character_module(alg, {}, depth), verma(alg, {}, depth)):
        space = _TensorSpace(universal_semijective(alg, depth), module, depth)
        assert_same_semiinvariants(semiinvariants(alg, space, depth), reference_semiinvariants(alg, space, depth))


SHAPIRO_SUBS = ["gminus", "gplus", "g_below_zero", "loop-nminus"]
SHAPIRO_MODULES = {"trivial": lambda sub, d: character_module(sub, {}, d), "verma": lambda sub, d: verma(sub, {}, d), "coverma": lambda sub, d: coverma(sub, {}, d)}


@pytest.mark.parametrize("kind", sorted(SHAPIRO_MODULES))
@pytest.mark.parametrize("subname", SHAPIRO_SUBS)
@pytest.mark.parametrize("name", ["loop_a", "abelian"])
def test_shapiro_semiinvariants_match_every_positive_element(name, subname, kind, request):
    """The 24 Shapiro cases at depth 5: S-ind from each subalgebra of each
    module takes the same semi-invariants as under every positive element
    of the subalgebra."""
    alg, depth = request.getfixturevalue(name), 5
    sub = subalgebra(alg, subname)
    space = _TensorSpace(universal_semijective(alg, depth), SHAPIRO_MODULES[kind](sub, depth), depth)
    assert_same_semiinvariants(semiinvariants(sub, space, depth), reference_semiinvariants(sub, space, depth))


def _positive_actions(alg, run, monkeypatch):
    """The number of diagonal tensor actions of positive elements that
    ``run()`` builds."""
    built = []
    original = _TensorSpace.action

    def action(self, xi, w):
        built.append(xi)
        return original(self, xi, w)

    monkeypatch.setattr(_TensorSpace, "action", action)
    run()
    monkeypatch.undo()
    return sum(1 for xi in built if alg.degree(xi) > 0)


def test_univ_job_imposes_only_conditions_that_can_bind(loop_a, monkeypatch):
    """One depth-9 universal-property job over a builds 115 positive
    invariance actions: 204 of the reference's 330 are left by the
    generating set, and 89 of those go into an empty weight."""
    N = verma(loop_a, {}, 9)
    assert _positive_actions(loop_a, lambda: check_universal_property(loop_a, N, 9), monkeypatch) == 115
    space = _TensorSpace(universal_semijective(loop_a, 9), N, 9)
    assert _positive_actions(loop_a, lambda: reference_semiinvariants(loop_a, space, 9), monkeypatch) == 330


@pytest.mark.parametrize(
    "label, w0", [("1⊗f", (0, 0)), ("1⊗f", (-1, 0)), ("z⊗f", (-1, -1))], ids=["f-top", "f-below", "zf"]
)
def test_universal_property_fails_alike_on_a_corrupted_verma(loop_a, label, w0):
    module = _corrupted_verma(loop_a, 4, label, w0)
    got = _universal_property_outcome(loop_a, module, 4)
    assert got == _module_first_outcome(loop_a, module, 4)
    dim_diffs, _equivariance = got
    assert dim_diffs  # the corrupted entry changes the invariants


# -- the pair space's caches against the loops they replace ----------------------------


def _uncached_peel(space, word, vec):
    """f(u y) = -y f(u) + beta(y) f(u) across a negative word, each y·m
    straightened as a whole word."""
    for y in word:
        bv = space.alg.beta_value(y)
        out: dict = {}
        for m, c in vec.items():
            for mon, c2 in straighten(space.alg, (y,) + flatten(m), space.order).items():
                out[mon] = out.get(mon, 0) - c * c2
            if bv:
                out[m] = out.get(m, 0) + bv * c
        vec = {m: c for m, c in out.items() if c}
    return vec


def _uncached_left_action(space, z, w, reduce_m=None):
    """The left action as it was first written: straighten z·q' for every q'
    and every column, split it, and peel every column again, every product
    by the test-local straightener."""
    alg, order = space.alg, space.order
    w = tuple(w)
    rows = space._index.get(wt_add(w, alg.weight(z)), {})
    cols = space.basis(w)
    mat = SparseMatrix(len(rows), len(cols))
    ell_z = alg.ell(alg.weight(z))
    by_q0: dict = {}
    for ci, (q0, m0) in enumerate(cols):
        by_q0.setdefault(q0, []).append((ci, m0))
    max_q0 = max((alg.ell(monomial_weight(alg, q0)) for q0 in by_q0), default=0)
    for qw, qprimes in space.qtab.items():
        if alg.ell(qw) > max_q0 - ell_z:
            continue
        for qprime in qprimes:
            st = straighten(alg, (z,) + flatten(qprime), order)
            for mon, c in st.items():
                p, m = split(mon, space._positive)
                hits = by_q0.get(p)
                if not hits:
                    continue
                for ci, m0 in hits:
                    peeled = _uncached_peel(space, flatten(m), {m0: 1})
                    for m2, c2 in peeled.items():
                        if reduce_m is not None:
                            coeff, m2 = reduce_m(m2)
                            if not coeff:
                                continue
                            c2 *= coeff
                        r = rows.get((qprime, m2))
                        if r is not None:
                            mat.add(r, ci, -c * c2)
    return mat


def _uncached_right_terms(space, q0, m0, z):
    """Right multiplication as it was first written: m0·z straightened and
    every antipode pairing recomputed on each call, by the test-local
    straightener."""
    alg, order = space.alg, space.order
    for mon, c in straighten(alg, flatten(m0) + (z,), order).items():
        p, m = split(mon, space._positive)
        if not p:
            yield q0, m, c
            continue
        pw = flatten(p)
        qw = wt_sub(monomial_weight(alg, q0), monomial_weight(alg, p))
        for qprime in space.qtab.get(qw, ()):
            c2 = straighten(alg, flatten(qprime) + tuple(reversed(pw)), order).get(q0, 0)
            if len(pw) % 2:
                c2 = -c2
            if c2:
                yield qprime, m, c * c2


def _uncached_right_matrix(model, z, w):
    w = tuple(w)
    rows = model._index.get(wt_add(w, model.alg.weight(z)), {})
    cols = model.basis(w)
    mat = SparseMatrix(len(rows), len(cols))
    for ci, (q0, m0) in enumerate(cols):
        for q, m, c in _uncached_right_terms(model, q0, m0, z):
            r = rows.get((q, m))
            if r is not None:
                mat.add(r, ci, -c)
    return mat


def _uncached_right_action_rows(space, eta, xbasis):
    rows_by_out: dict = {}
    for ci, (q0, ma, mbar) in enumerate(xbasis):
        for q, m, c in _uncached_right_terms(space, q0, ma + mbar, eta):
            row = rows_by_out.setdefault((q, m), {})
            row[ci] = row.get(ci, 0) + c
    return [{c: v for c, v in row.items() if v} for row in rows_by_out.values()]


def _uncached_truncated_x_basis(space, w, tail_len):
    """The truncated X basis as it was first written: every tail's weight
    re-summed for every (q, m) weight pair."""
    alg = space.alg
    abar_neg = sorted(
        (e for e in alg.elements_in_degrees(-space.depth, 0) if space.in_h(e)),
        key=space.order.key,
    )
    tails = [()]
    frontier = [()]
    for _ in range(tail_len):
        new = []
        for t in frontier:
            start = abar_neg.index(t[-1]) if t else 0
            for k in range(start, len(abar_neg)):
                new.append(t + (abar_neg[k],))
        tails.extend(new)
        frontier = new
    out = []
    for qw, qs in space.qtab.items():
        for mw, ms in space.mtab.items():
            for tail in tails:
                tw = wt_zero(alg.rank)
                for e in tail:
                    tw = wt_add(tw, alg.weight(e))
                if wt_sub(wt_add(mw, tw), qw) != tuple(w):
                    continue
                for q in qs:
                    for m in ms:
                        out.append((q, m, compress(tail)))
    return sorted(set(out))


def _lam(h, k):
    return {"1⊗h": Fraction(h), "K": Fraction(k), "d": Fraction(0)}


def _wakimoto_space(alg, lam, depth):
    """The quotient Q that ``wakimoto`` builds: h = ā, lambda on its degree-0 part."""
    alg.ensure_window(-2 * depth - 4, 2 * depth + 4)
    return WakimotoSpace(alg, "Q", depth, subalgebra(alg, "abar"), _lambda_values(alg, lam))


def _completion_weights(monkeypatch, alg, lam, depth):
    """Weights at which wakimoto(alg, lam, depth) runs the invariant completion."""
    fired = []

    def spy(space, w, span, want):
        fired.append(w)
        return _invariant_completion(space, w, span, want)

    with monkeypatch.context() as m:
        m.setattr(induction, "_invariant_completion", spy)
        wakimoto(alg, lam, depth)
    return fired


def _assert_caches_bounded(space):
    """Every cache key lies in the pair space (or, for m0·z, in the
    truncated X of the completion), every cached p is a qtab object and
    every cached word is interned."""
    alg = space.alg
    mons = {m for ms in space.mtab.values() for m in ms}
    for (_z, qprime), terms in space._zq.items():
        assert qprime in space._duals
        for p, word, _c in terms:
            assert p is space._duals[p][0]
            assert space._words[word] is word
            assert all(alg.degree(y) <= 0 for y in word)
    for word, m0 in space._peels:
        assert space._words[word] is word and m0 in mons
    for m0, _z in space._mz:
        if m0 not in mons:  # a triple (q, m_c, m_h) of the completion's X
            ma, tail = split(m0, lambda e: not space.in_h(e))
            assert ma in mons and all(space.in_h(e) and alg.degree(e) <= 0 for e, _k in tail)
    for q0, p in space._pairings:
        assert q0 in space._duals and p and all(alg.degree(e) > 0 for e, _k in p)


def _uncached_module(module, builder):
    """``module`` with an uncached reference loop as its rule: the same depth
    guard, so ``_outcome`` compares the matrices and the errors alike."""
    return WeightModule(module.alg, module.name, module.weights, builder, module.depth)


def test_us_actions_match_the_uncached_loops(loop_a):
    us = universal_semijective(loop_a, 5)
    left = _uncached_module(us.left, lambda z, w: _uncached_left_action(us, z, w))
    right = _uncached_module(us.right, lambda z, w: _uncached_right_matrix(us, z, w))
    checked = 0
    for w in us.weights:
        for z in loop_a.elements_in_degrees(-5, 5):
            got = _outcome(us.left.action, z, w)
            assert got == _outcome(left.action, z, w), (z, w)
            assert _outcome(us.right.action, z, w) == _outcome(right.action, z, w), (z, w)
            checked += not isinstance(got, str) and any(got)
    assert checked
    _assert_caches_bounded(us)


@pytest.mark.parametrize("lam", [_lam(Fraction(2, 3), Fraction(1, 2)), _lam(0, 1)], ids=["2/3,1/2", "0,1"])
def test_wakimoto_left_action_matches_the_uncached_loop(sl2, lam):
    space = _wakimoto_space(sl2, lam, 5)
    left = _uncached_module(space.left, lambda z, w: _uncached_left_action(space, z, w, space.reduce_m))
    checked = 0
    for w in space.weights:
        for z in sl2.elements_in_degrees(-5, 5):
            got = _outcome(space.left.action, z, w)
            assert got == _outcome(left.action, z, w), (z, w)
            checked += not isinstance(got, str) and any(got)
    assert checked
    _assert_caches_bounded(space)


def _typed_action_entries(module, depth):
    """{(z, w): sorted (row, col, value, type)} of every action matrix of
    ``module`` that stays inside its depth."""
    alg = module.alg
    out = {}
    for w in sorted(module.weights):
        for z in alg.elements_in_degrees(-depth, depth):
            try:
                rows = module.action(z, w).rows
            except WindowError:
                continue
            out[z, w] = sorted((r, c, v, type(v)) for r, row in enumerate(rows) for c, v in row.items())
    return out


@pytest.mark.parametrize("hk", [(Fraction(2, 3), Fraction(1, 2)), (Fraction(-1, 3), 1)], ids=["2/3,1/2", "-1/3,1"])
def test_wakimoto_images_match_the_fraction_loop(sl2, monkeypatch, hk):
    """W at a non-integral lambda is the same module, entry values and types
    alike, whether its spans and descended action take images in cleared
    integers or in the Fraction loop."""
    lam = _lam(*hk)
    monkeypatch.setattr(SparseMatrix, "images", lambda m, vectors: [reference_apply(m, v) for v in vectors])
    want = _typed_action_entries(wakimoto(sl2, lam, 5), 5)
    monkeypatch.undo()
    W = wakimoto(sl2, lam, 5)
    got = _typed_action_entries(W, 5)
    assert got == want
    assert any(t is Fraction for entries in got.values() for *_, t in entries)
    assert check_commutators(W, (-3, 3)) == []


@pytest.mark.parametrize("hk", [(0, 1), (1, 1), (-1, 2)])
def test_truncated_x_basis_and_right_rows_match_the_uncached_loops(sl2, monkeypatch, hk):
    lam = _lam(*hk)
    weights = _completion_weights(monkeypatch, sl2, lam, 6)
    assert weights
    space = _wakimoto_space(sl2, lam, 6)
    for w in weights:
        etas = [e for e in sl2.elements_in_degrees(1, -sl2.ell(w)) if space.in_h(e)]
        for tail_len in (1, 2, 3):
            xbasis = _truncated_x_basis(space, w, tail_len)
            assert xbasis == _uncached_truncated_x_basis(space, w, tail_len), (w, tail_len)
            for eta in etas:
                got = _right_action_rows(space, eta, xbasis)
                assert got == _uncached_right_action_rows(space, eta, xbasis), (w, tail_len, eta)
    _assert_caches_bounded(space)


def test_left_action_straightens_nothing_it_has_seen(sl2, monkeypatch):
    """Building z's action visits only the q' of the target's basis that
    lie within the ell bound, so once it is built at every weight the z·q'
    cache holds exactly those q'; building it again computes no product:
    neither the pair space's multiplier nor normal_order_word is called."""
    calls = []

    def counting(alg, word, order):
        calls.append(word)
        return normal_order_word(alg, word, order)

    def counting_multiplier(alg, order):
        act = multiplier(alg, order)

        def mul(e, mon):
            calls.append((e, mon))
            return act(e, mon)

        return mul

    monkeypatch.setattr(induction, "normal_order_word", counting)
    monkeypatch.setattr(induction, "multiplier", counting_multiplier)
    space = _wakimoto_space(sl2, _lam(Fraction(2, 3), Fraction(1, 2)), 5)
    z = sl2.by_label("z^-1⊗f")
    ell_z = sl2.ell(sl2.weight(z))
    # the weights whose image under z stays within the depth
    inside = [w for w in space.weights if space.left.in_depth(wt_add(w, sl2.weight(z)))]
    wanted = set()
    for w in inside:
        bound = max(sl2.ell(monomial_weight(sl2, q0)) for q0, _m0 in space.basis(w)) - ell_z
        target = space.basis(wt_add(w, sl2.weight(z)))
        wanted |= {q for q, _m in target if sl2.ell(monomial_weight(sl2, q)) <= bound}
        space.left.action(z, w)
    assert calls and wanted
    assert {qprime for zz, qprime in space._zq if zz == z} == wanted
    assert wanted < {q for qs in space.qtab.values() for q in qs}
    built = dict(space.left._cache)
    space.left._cache.clear()
    del calls[:]
    for (zz, w), mat in built.items():
        assert space.left.action(zz, w).rows == mat.rows
    assert not calls


def test_pair_space_actions_below_the_depth_are_errors(sl2, loop_a, lam01):
    """An action whose target lies below the depth raises WindowError on US
    (left and right) and on the Wakimoto quotient Q alike; Q used to return
    the matrix with every row of the target cut off."""
    us, q = universal_semijective(loop_a, 3), _wakimoto_space(sl2, lam01, 3)
    for module, dim in ((us.left, 1), (us.right, 1), (q.left, 4)):
        alg = module.alg
        z = alg.by_label("z^-1⊗f")
        w = (-3, 0)
        assert module.dim(w) == dim and alg.ell(wt_add(w, alg.weight(z))) == -6
        with pytest.raises(WindowError, match=r"at weight \(-3, 0\) needs weights outside depth 3"):
            module.action(z, w)


def test_each_action_matrix_is_built_once(sl2, loop_a, lam01, monkeypatch):
    """US's left and right actions and Q's left action each have one cache
    that every reader shares: across the three US oracles, semi-induction
    and the Wakimoto module with its oracle, each builder runs at most once
    per (space, z, w), and reading a matrix again returns the same object."""
    built = Counter()

    def counting(builder):
        def build(space, z, w):
            built[builder.__qualname__, id(space), z, tuple(w)] += 1
            return builder(space, z, w)

        return build

    for cls, name in ((SemiregularModel, "left_matrix"), (SemiregularModel, "right_matrix"), (WakimotoSpace, "left_matrix")):
        monkeypatch.setattr(cls, name, counting(cls.__dict__[name]))
    us = universal_semijective(loop_a, 3)
    assert check_commutators(us.left, (-3, 3)) == []
    assert check_commutators(us.right, (-3, 3)) == []
    assert check_commutators(us.left, (-3, 3), b=us.right) == []
    assert check_commutators(s_ind(loop_a, subalgebra(loop_a, "loop-nminus"), character_module(loop_a, {}, 3), 3), (-3, 3)) == []
    assert check_commutators(wakimoto(sl2, lam01, 4), (-3, 3)) == []
    for module in (us.left, us.right):
        for w in us.weights:
            for z in loop_a.elements_in_degrees(-3, 3):
                if module.in_depth(wt_add(w, loop_a.weight(z))):
                    assert module.action(z, w) is module.action(z, w)
    assert {name for name, *_ in built} == {"_PairSpace.left_matrix", "SemiregularModel.right_matrix"}
    assert len({space for _, space, *_ in built}) == 3  # us, the US inside s_ind, and Q
    assert max(built.values()) == 1


@pytest.mark.parametrize("hk", [(0, 1), (Fraction(2, 3), Fraction(1, 2))], ids=["0,1", "2/3,1/2"])
def test_wakimoto_runs_no_elimination_kernel(sl2, monkeypatch, hk):
    """W's spans, its invariant completion (which runs at (0, 1)) and every
    action matrix in degrees -2..2 go through linalg.Subspace: the
    sparsest-first row_echelon_int behind rank and pivot_columns is never
    called."""
    lam = _lam(*hk)
    assert bool(_completion_weights(monkeypatch, sl2, lam, 5)) == (hk == (0, 1))
    calls = []

    def counting(rows, ncols):
        calls.append(ncols)
        return row_echelon_int(rows, ncols)

    monkeypatch.setattr(linalg, "row_echelon_int", counting)
    W = wakimoto(sl2, lam, 5)
    assert any(entries for entries in _typed_action_entries(W, 2).values())
    assert calls == []
