"""Golden outputs: CLI jobs (with the summary lines of the four
semi-infinite cohomology jobs, two forms dumps, and three Wakimoto dumps, one
of them at a lambda where the invariant completion runs), four module
dumps (S-ind, Verma and contragredient Verma on affine sl2, and Verma on a)
and affine sl2's structure constants on degrees -8..8, compared byte for
byte with the fixtures in
tests/golden/, and the benchmark's US(a) depth-9 job with
perfbench/golden/uscoh_cli.csv.  Module and forms dumps are also compared
with themselves across materialization histories: a basis lists the same
way whatever degrees the algebra materialized first.

Regenerate the fixtures (only from a commit whose outputs are trusted) with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import os
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

from semiflex import output
from semiflex.cli import main
from semiflex.forms import semiinf_cohomology
from semiflex.induction import s_ind, universal_semijective, wakimoto
from semiflex.liealg import SubalgebraSpec, build_affine_sl2, dump_algebra, load_algebra, subalgebra
from semiflex.modules import character_module, coverma, verma

GOLDEN = Path(__file__).parent / "golden"
# read-only: owned by the benchmark, regenerated only with it
BENCH_GOLDEN = Path(__file__).parent.parent / "perfbench" / "golden" / "uscoh_cli.csv"

# (command line, files it writes); file names are relative to the job's cwd
JOBS = [
    (["semiinf-cohomology", "--algebra", "a", "--module", "us", "--depth", "4", "--out", "semiinf_us.csv"], ["semiinf_us.csv"]),
    (["semiinf-cohomology", "--algebra", "a", "--module", "wakimoto", "--depth", "4", "--out", "semiinf_wakimoto.csv"], ["semiinf_wakimoto.csv"]),
    # over all of affine sl2: degree-0 slots with charges, and a tail of negative slots
    (
        ["semiinf-cohomology", "--algebra", "affine_sl2", "--module", "wakimoto", "--lambda", "h=-4,K=-4,d=0", "--depth", "4", "--out", "semiinf_affine.csv"],
        ["semiinf_affine.csv"],
    ),
    # the Verma module over all of affine sl2 at depth 5: ranks over g-hat deeper than the Wakimoto job above
    (
        ["semiinf-cohomology", "--algebra", "affine_sl2", "--module", "verma", "--lambda", "h=-4,K=-4,d=0", "--depth", "5", "--out", "semiinf_verma_affine.csv"],
        ["semiinf_verma_affine.csv"],
    ),
    (["wakimoto", "--lambda", "h=1/2,K=1,d=0", "--depth", "4", "--out", "wakimoto.csv", "--dump", "wakimoto.jsonl"], ["wakimoto.csv", "wakimoto.jsonl"]),
    # integral lambda: every entry is an int, still written as "n/1"
    (["wakimoto", "--lambda", "h=2,K=1,d=0", "--depth", "4", "--dump", "wakimoto_integral.jsonl"], ["wakimoto_integral.jsonl"]),
    # reducible lambda: the invariant completion fills weight (2, -2)
    (["wakimoto", "--lambda", "h=0,K=1,d=0", "--depth", "4", "--dump", "wakimoto_reducible.jsonl"], ["wakimoto_reducible.jsonl"]),
    (["verify-univ", "--algebra", "a", "--module", "induced", "--depth", "3", "--out", "verify_univ.json"], ["verify_univ.json"]),
    (["verify-us", "--algebra", "a", "--depth", "3", "--out", "verify_us.json"], ["verify_us.json"]),
    (["verify-shapiro", "--algebra", "a", "--depth", "3", "--out", "verify_shapiro.json"], ["verify_shapiro.json"]),
    # deep enough that the semi-invariants meet elements outside the generating set of the positive part
    (["verify-univ", "--algebra", "a", "--module", "induced", "--depth", "5", "--out", "verify_univ_depth5.json"], ["verify_univ_depth5.json"]),
    (["verify-shapiro", "--algebra", "a", "--depth", "5", "--out", "verify_shapiro_depth5.json"], ["verify_shapiro_depth5.json"]),
    (["verify-univ", "--algebra", "abelian", "--depth", "3", "--out", "verify_univ_abelian.json"], ["verify_univ_abelian.json"]),
    # the forms dump reads the bases of the complexes the table was computed from
    (["semiinf-cohomology", "--algebra", "a", "--module", "us", "--depth", "4", "--dump", "semiinf_us_forms.jsonl"], ["semiinf_us_forms.jsonl"]),
    (["character", "--module", "verma", "--depth", "6", "--out", "character_verma.csv"], ["character_verma.csv"]),
    (["lie-cohomology", "--depth", "4", "--out", "lie_cohomology.csv"], ["lie_cohomology.csv"]),
    (["lie-cohomology", "--which", "homology", "--depth", "4", "--out", "lie_homology.csv"], ["lie_homology.csv"]),
    # a non-integral lambda: the coverma and Verma recursions run on lambda cleared of its denominators
    (["lie-cohomology", "--lambda", "h=2/3,K=1/2,d=0", "--depth", "4", "--out", "lie_cohomology_fractional.csv"], ["lie_cohomology_fractional.csv"]),
    (["lie-cohomology", "--which", "homology", "--lambda", "h=2/3,K=1/2,d=0", "--depth", "4", "--out", "lie_homology_fractional.csv"], ["lie_homology_fractional.csv"]),
    # trivial coefficients: empty degrees are listed as rows of dimension 0
    (["lie-cohomology", "--algebra", "abelian", "--module", "trivial", "--depth", "5", "--out", "lie_cohomology_abelian.csv"], ["lie_cohomology_abelian.csv"]),
    # over a: the induced-module recursion on a's Verma module, and its semi-infinite complex
    (["lie-cohomology", "--algebra", "a", "--depth", "5", "--out", "lie_cohomology_a.csv"], ["lie_cohomology_a.csv"]),
    (["lie-cohomology", "--algebra", "a", "--which", "homology", "--depth", "5", "--out", "lie_homology_a.csv"], ["lie_homology_a.csv"]),
    (
        ["semiinf-cohomology", "--algebra", "a", "--module", "verma", "--depth", "4", "--out", "semiinf_verma_a.csv", "--dump", "semiinf_verma_a_forms.jsonl"],
        ["semiinf_verma_a.csv", "semiinf_verma_a_forms.jsonl"],
    ),
]

# jobs whose stdout (the summary lines) is pinned too: first output file -> stdout fixture
SUMMARIES = {
    "semiinf_us.csv": "semiinf_us.stdout",
    "semiinf_wakimoto.csv": "semiinf_wakimoto.stdout",
    "semiinf_affine.csv": "semiinf_affine.stdout",
    "semiinf_verma_affine.csv": "semiinf_verma_affine.stdout",
}

S_IND_DUMP = "s_ind_loop_nminus.jsonl"
# a non-integral lambda, so every straightened coefficient meets a Fraction
LAMBDA = {"1⊗h": Fraction(2, 3), "K": Fraction(1, 2), "d": Fraction(0)}
VERMA_DUMPS = {"verma_affine_sl2.jsonl": verma, "coverma_affine_sl2.jsonl": coverma}
VERMA_A_DUMP = "verma_a.jsonl"
ALGEBRA_DUMP = "affine_sl2_algebra.json"


def run_cli(argv, cwd):
    """Run one CLI job with ``cwd`` as working directory; returns its click Result."""
    here = os.getcwd()
    os.chdir(cwd)
    try:
        return CliRunner().invoke(main, argv)
    finally:
        os.chdir(here)


def dump_s_ind(path):
    """Basis and action matrices of S-ind from loop-nminus of the trivial module."""
    a = load_algebra("subalgebra_a")
    module = s_ind(a, subalgebra(a, "loop-nminus"), character_module(a, {}, 6), 6)
    output.dump_module_jsonl(path, module, (-6, 6))


def dump_verma_type(path, ctor):
    """Basis and action matrices of verma or coverma on affine sl2 at LAMBDA, depth 4."""
    output.dump_module_jsonl(path, ctor(build_affine_sl2(), LAMBDA, 4), (-4, 4))


def dump_verma_a(path):
    """Basis and action matrices of the Verma module over a at lambda = 0, depth 5."""
    output.dump_module_jsonl(path, verma(load_algebra("subalgebra_a"), {}, 5), (-5, 5))


def dump_affine_sl2(path):
    """Basis, brackets and beta of a fresh affine sl2 on degrees -8..8."""
    g = build_affine_sl2()
    g.ensure_window(-8, 8)
    text = json.dumps(dump_algebra(g, basis_window=(-8, 8)), indent=1, sort_keys=True, ensure_ascii=False)
    path.write_text(text + "\n", encoding="utf-8")


@pytest.mark.parametrize("argv,files", JOBS, ids=[f[0] for _a, f in JOBS])
def test_cli_job_matches_golden(argv, files, tmp_path):
    res = run_cli(argv, tmp_path)
    assert res.exit_code == 0
    for name in files:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name
    if files[0] in SUMMARIES:
        assert res.stdout_bytes == (GOLDEN / SUMMARIES[files[0]]).read_bytes()


@pytest.mark.parametrize("runs", ["1", "2"])
def test_us_cohomology_depth_9_matches_benchmark_answer(runs, tmp_path):
    """The benchmark's uscoh_cli job against its golden CSV, run once and
    run twice in one process (the second run reuses the warm caches)."""
    argv = ["semiinf-cohomology", "--algebra", "a", "--module", "us", "--depth", "9", "--out", "us9.csv"]
    for _ in range(int(runs)):
        assert run_cli(argv, tmp_path).exit_code == 0
        assert (tmp_path / "us9.csv").read_bytes() == BENCH_GOLDEN.read_bytes()


def test_s_ind_dump_matches_golden(tmp_path):
    dump_s_ind(tmp_path / S_IND_DUMP)
    assert (tmp_path / S_IND_DUMP).read_bytes() == (GOLDEN / S_IND_DUMP).read_bytes()


@pytest.mark.parametrize("name", sorted(VERMA_DUMPS))
def test_verma_type_dump_matches_golden(name, tmp_path):
    dump_verma_type(tmp_path / name, VERMA_DUMPS[name])
    assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()


def test_verma_a_dump_matches_golden(tmp_path):
    dump_verma_a(tmp_path / VERMA_A_DUMP)
    assert (tmp_path / VERMA_A_DUMP).read_bytes() == (GOLDEN / VERMA_A_DUMP).read_bytes()


def test_affine_sl2_algebra_dump_matches_golden(tmp_path):
    dump_affine_sl2(tmp_path / ALGEBRA_DUMP)
    assert (tmp_path / ALGEBRA_DUMP).read_bytes() == (GOLDEN / ALGEBRA_DUMP).read_bytes()


# lambda = (0, 1, 0) is reducible: W's invariant completion runs at depth 5
HISTORY_LAMBDA = {"1⊗h": 0, "K": 1, "d": 0}


def _a():
    return load_algebra("subalgebra_a")


def _s_ind_affine(sub):
    """S-ind(ĝ, sub, C_lambda) at HISTORY_LAMBDA, D=5, built on sub's algebra."""
    return s_ind(sub.parent, sub, character_module(sub, HISTORY_LAMBDA, 5), 5)


# (fresh algebra, dump, module built on it): module dumps list bases and
# actions at D=5, forms dumps the bases of the module's complex over the
# same algebra at D=4
HISTORY_DUMPS = {
    "verma": (build_affine_sl2, "module", lambda g: verma(g, HISTORY_LAMBDA, 5)),
    "coverma": (build_affine_sl2, "module", lambda g: coverma(g, HISTORY_LAMBDA, 5)),
    "wakimoto": (build_affine_sl2, "module", lambda g: wakimoto(g, HISTORY_LAMBDA, 5)),
    "s_ind": (_a, "module", lambda a: s_ind(a, subalgebra(a, "loop-nminus"), character_module(a, {}, 5), 5)),
    "S-ind from abar": (build_affine_sl2, "module", lambda g: _s_ind_affine(subalgebra(g, "abar"))),
    "S-ind from b": (build_affine_sl2, "module", lambda g: _s_ind_affine(SubalgebraSpec(g, "b", lambda e: g.degree(e) >= 0))),
    "US(a) forms": (_a, "forms", lambda a: universal_semijective(a, 4).left),
    "verma over a forms": (_a, "forms", lambda a: verma(a, {}, 4)),
    "M(-4, -4, 0) forms": (build_affine_sl2, "forms", lambda g: verma(g, {"1⊗h": -4, "K": -4, "d": 0}, 4)),
}


@pytest.mark.parametrize("name", list(HISTORY_DUMPS))
def test_dumps_do_not_depend_on_what_was_materialized_before(name, tmp_path):
    """The same dump on a fresh algebra and on algebras that first
    materialized degrees -3..3 or -7..7 (which renumbers the basis ids) is
    the same file, byte for byte."""
    fresh, kind, build = HISTORY_DUMPS[name]
    texts = []
    for window in (None, 3, 7):
        g = fresh()
        if window:
            g.ensure_window(-window, window)
        path = tmp_path / f"{window}.jsonl"
        if kind == "module":
            output.dump_module_jsonl(path, build(g), (-5, 5))
        else:
            bases: dict = {}
            semiinf_cohomology(g, build(g), 4, bases=bases)
            output.dump_forms_jsonl(path, g, bases)
        texts.append(path.read_bytes())
    assert texts[1] == texts[0]
    assert texts[2] == texts[0]


def regenerate(dest=GOLDEN):
    dest.mkdir(parents=True, exist_ok=True)
    for argv, files in JOBS:
        res = run_cli(argv, dest)
        if res.exit_code != 0:
            sys.exit(f"{' '.join(argv)} exited {res.exit_code}")
        if files[0] in SUMMARIES:
            (dest / SUMMARIES[files[0]]).write_bytes(res.stdout_bytes)
    dump_s_ind(dest / S_IND_DUMP)
    for name, ctor in VERMA_DUMPS.items():
        dump_verma_type(dest / name, ctor)
    dump_verma_a(dest / VERMA_A_DUMP)
    dump_affine_sl2(dest / ALGEBRA_DUMP)


if __name__ == "__main__":
    regenerate()
