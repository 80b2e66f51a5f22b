"""The command-line driver: parsing, outputs, exit codes, determinism."""

import gc
import json
import os
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

from conftest import MALFORMED_TOYS, sl2_toy
import semiflex
from semiflex import cli, forms, output
from semiflex.cli import JobSpec, main, run_job
from semiflex.induction import InductionError
from semiflex.liealg import AlgebraError, WindowError, build_affine_sl2, dump_algebra, load_algebra
from semiflex.modules import WeightModule, character, verma


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def built_specs(monkeypatch):
    """JobSpecs the click commands build, captured instead of run."""
    specs = []

    def capture(spec):
        specs.append(spec)
        return 0

    monkeypatch.setattr(cli, "run_job", capture)
    return specs


def test_parse_job_wakimoto_defaults(runner, built_specs):
    res = runner.invoke(main, ["wakimoto", "--lambda", "h=0,K=1,d=0", "--depth", "4", "--out", "w.csv"])
    assert res.exit_code == 0, res.output
    (spec,) = built_specs
    assert spec.command == "wakimoto"
    assert spec.depth == 4
    assert spec.out == "w.csv"
    assert spec.lam == "h=0,K=1,d=0"


def test_parse_job_shapiro(runner, built_specs):
    res = runner.invoke(main, ["verify-shapiro", "--algebra", "a", "--sub", "loop-nminus", "--depth", "3"])
    assert res.exit_code == 0, res.output
    (spec,) = built_specs
    assert spec.command == "verify-shapiro"
    assert spec.sub == "loop-nminus"
    assert spec.depth == 3


def test_parse_job_defaults_lambda_with_warning(runner, built_specs):
    res = runner.invoke(main, ["wakimoto"])
    assert res.exit_code == 0, res.output
    (spec,) = built_specs
    assert spec.lam == ""  # run_job applies the documented default
    assert spec.depth == 4
    assert "warning: no --lambda given" in res.stderr


def test_verify_shapiro_has_no_self_selector(runner, tmp_path):
    """--sub self is an unknown selector, not another name for gminus: the
    job exits 2, names it, and writes no verdict."""
    out = tmp_path / "v.json"
    res = runner.invoke(main, ["verify-shapiro", "--algebra", "a", "--sub", "self", "--depth", "3", "--out", str(out)])
    assert res.exit_code == 2
    assert res.stderr == "error: unknown subalgebra selector 'self'\n"
    assert not out.exists()


def test_parse_job_rejects_unknown(runner):
    assert runner.invoke(main, ["frobnicate"]).exit_code == 2
    assert runner.invoke(main, ["wakimoto", "--no-such-flag", "1"]).exit_code == 2


def test_parse_job_rejects_bad_lambda(runner):
    assert runner.invoke(main, ["wakimoto", "--lambda", "h=zero"]).exit_code == 2


def test_semiinf_lambda_is_parsed_off_affine_sl2(runner, tmp_path):
    """--lambda is parsed against the module's algebra, as lie-cohomology does."""
    out = tmp_path / "o.csv"
    argv = ["semiinf-cohomology", "--algebra", "a", "--module", "us", "--depth", "2", "--lambda", "bogus=1", "--out", str(out)]
    res = runner.invoke(main, argv)
    assert res.exit_code == 2
    assert "no basis element labelled 'bogus'" in res.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "argv,why",
    [
        (["character", "--module", "verma", "--lambda", "z^-1⊗h=1"], "'z^-1⊗h' has degree -2, not 0"),
        (["lie-cohomology", "--lambda", "h=1,K=1,d=0,z^-1⊗e=7"], "'z^-1⊗e' has degree -1, not 0"),
        (["wakimoto", "--lambda", "z^-1⊗h=1"], "'z^-1⊗h' has degree -2, not 0"),
        (["semiinf-cohomology", "--algebra", "a", "--module", "trivial", "--lambda", "z⊗h=1"], "'z⊗h' has degree 2, not 0"),
        (["wakimoto", "--lambda", "h=5,h=1,K=1,d=0"], "lambda key 'h' given twice"),
        (["character", "--lambda", "1⊗h=5,h=1,K=1,d=0"], "lambda key 'h' given twice"),
    ],
    ids=["character", "lie-cohomology", "wakimoto", "semiinf-cohomology", "repeated", "repeated-alias"],
)
def test_lambda_outside_degree_zero_or_repeated_exits_two(argv, why, runner):
    res = runner.invoke(main, argv + ["--depth", "3"])
    assert res.exit_code == 2
    (line,) = res.stderr.splitlines()
    assert line.startswith("error: ") and why in line


@pytest.mark.parametrize("case", sorted(MALFORMED_TOYS))
def test_malformed_user_algebra_exits_two(case, runner, tmp_path):
    data, why = MALFORMED_TOYS[case]
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(data))
    res = runner.invoke(main, ["character", "--algebra", str(path), "--module", "verma", "--depth", "2"])
    assert res.exit_code == 2
    assert why in res.stderr


@pytest.mark.parametrize("command", ["character", "lie-cohomology", "semiinf-cohomology", "wakimoto"])
def test_unknown_lambda_label_exits_two_and_leaves_nothing(command, runner, tmp_path):
    out = tmp_path / "o.csv"
    res = runner.invoke(main, [command, "--lambda", "q=1", "--depth", "2", "--out", str(out)])
    assert res.exit_code == 2
    assert "error: affine_sl2: no basis element labelled 'q'" in res.stderr
    assert not out.exists()


def _sl2_toy(h_label):
    """The three-dimensional sl2, e | h, f, with its degree-0 element labelled ``h_label``."""
    return {
        "name": "sl2toy",
        "grading": {"rank": 1, "degree_functional": [1]},
        "basis": [
            {"label": "e", "weight": [1], "index": 0},
            {"label": h_label, "weight": [0], "index": 0},
            {"label": "f", "weight": [-1], "index": 0},
        ],
        "brackets": [
            {"i": 0, "j": 1, "terms": [{"k": 0, "num": -2}]},
            {"i": 0, "j": 2, "terms": [{"k": 1, "num": 1}]},
            {"i": 1, "j": 2, "terms": [{"k": 2, "num": -2}]},
        ],
    }


@pytest.mark.parametrize("h_label", ["h", "H"])
def test_lambda_on_a_user_algebra_names_its_own_degree_zero_label(h_label, runner, tmp_path):
    """Off affine sl2 a λ key is the label itself (h is not read as 1⊗h),
    and a Verma module takes it."""
    data = _sl2_toy(h_label)
    path, out, want = tmp_path / "toy.json", tmp_path / "c.csv", tmp_path / "want.csv"
    path.write_text(json.dumps(data))
    argv = ["character", "--algebra", str(path), "--module", "verma", "--lambda", f"{h_label}=1", "--depth", "3", "--out", str(out)]
    res = runner.invoke(main, argv)
    assert res.exit_code == 0, res.output
    toy = load_algebra(data)
    output.write_csv(str(want), output.character_rows(toy, character(verma(toy, {h_label: Fraction(1)}, 3))), toy.rank)
    assert out.read_bytes() == want.read_bytes()


def test_wakimoto_default_lambda_is_documented_one(runner, tmp_path):
    """A job without λ on affine sl2 runs at h=0,K=1,d=0 (the dump shows λ; the CSV does not)."""
    default = [tmp_path / "default.csv", tmp_path / "default.jsonl"]
    given = [tmp_path / "given.csv", tmp_path / "given.jsonl"]
    assert run_job(JobSpec("wakimoto", depth=3, out=str(default[0]), dump=str(default[1]))) == 0
    argv = ["wakimoto", "--lambda", "h=0,K=1,d=0", "--depth", "3", "--out", str(given[0]), "--dump", str(given[1])]
    assert runner.invoke(main, argv).exit_code == 0
    assert [p.read_bytes() for p in default] == [p.read_bytes() for p in given]


@pytest.mark.parametrize(
    "argv",
    [["semiinf-cohomology", "--module", "us"], ["verify-shapiro"], ["verify-us"], ["verify-univ"]],
    ids=" ".join,
)
def test_us_commands_reject_a_degree_zero_part(argv, runner):
    """US needs a vanishing degree-0 part: affine sl2 is an input error, named after the job."""
    res = runner.invoke(main, argv + ["--depth", "2"])
    assert res.exit_code == 2
    job = " ".join(argv)
    assert res.stderr == f"error: {job} needs an algebra with vanishing degree-0 part; affine_sl2 has one\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["character", "--module", "product"],
        ["semiinf-cohomology", "--module", "trivial"],
        ["semiinf-cohomology", "--module", "us"],
        ["lie-cohomology", "--module", "trivial"],
    ],
    ids=" ".join,
)
def test_lambda_for_a_module_without_one_exits_two(argv, runner, tmp_path):
    """A λ the module would not read is an input error; without one the job runs."""
    out = tmp_path / "o.csv"
    res = runner.invoke(main, argv + ["--lambda", "h=5,K=1,d=0", "--depth", "2", "--out", str(out)])
    assert res.exit_code == 2
    assert res.stderr == f"error: {argv[0]} --module {argv[2]} takes no --lambda\n"
    assert not out.exists()
    if argv[2] != "us":  # US needs an algebra without a degree-0 part, where no λ key exists
        assert runner.invoke(main, argv + ["--depth", "2"]).exit_code == 0


def test_parse_job_rejects_bad_depth(runner):
    res = runner.invoke(main, ["wakimoto", "--depth", "0"])
    assert res.exit_code == 2
    assert "depth must be positive" in res.stderr


def test_wakimoto_csv_spot_value(runner, tmp_path):
    out = tmp_path / "w.csv"
    res = runner.invoke(main, ["wakimoto", "--lambda", "h=0,K=1,d=0", "--depth", "4", "--out", str(out)])
    assert res.exit_code == 0, res.output
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "weight_1,weight_2,degree,dimension"
    table = {tuple(map(int, r.split(",")[:2])): int(r.split(",")[3]) for r in rows[1:]}
    assert table[(-1, -1)] == 3  # lambda - alpha - delta
    assert table[(0, 0)] == 1


def test_character_csv_spot_value(runner, tmp_path):
    out = tmp_path / "c.csv"
    res = runner.invoke(
        main, ["character", "--module", "verma", "--lambda", "h=0,K=1,d=0", "--depth", "4", "--out", str(out)]
    )
    assert res.exit_code == 0, res.output
    table = {}
    for line in out.read_text().strip().splitlines()[1:]:
        parts = line.split(",")
        table[(int(parts[0]), int(parts[1]))] = int(parts[3])
    assert table[(-1, -1)] == 3


def test_deterministic_output(runner, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        res = runner.invoke(main, ["semiinf-cohomology", "--algebra", "a", "--module", "us", "--depth", "3", "--out", str(path)])
        assert res.exit_code == 0, res.output
    assert a.read_bytes() == b.read_bytes()


def test_semiinf_wakimoto_exit_zero(runner, tmp_path):
    out = tmp_path / "h.csv"
    res = runner.invoke(
        main,
        ["semiinf-cohomology", "--algebra", "a", "--module", "wakimoto", "--lambda", "h=0,K=1,d=0", "--depth", "3", "--out", str(out)],
    )
    assert res.exit_code == 0, res.output
    assert "1 nonzero cells" in res.output


def test_jsonl_format(runner, tmp_path):
    out = tmp_path / "c.jsonl"
    res = runner.invoke(
        main, ["character", "--module", "product", "--depth", "3", "--out", str(out), "--format", "jsonl"]
    )
    assert res.exit_code == 0, res.output
    lines = [json.loads(line) for line in out.read_text().strip().splitlines()]
    assert all(set(entry) == {"weight", "degree", "dimension"} for entry in lines)


def test_verify_commands_pass(runner):
    assert runner.invoke(main, ["verify-us", "--algebra", "a", "--depth", "3"]).exit_code == 0
    assert runner.invoke(main, ["verify-univ", "--algebra", "a", "--depth", "3"]).exit_code == 0
    assert (
        runner.invoke(main, ["verify-shapiro", "--algebra", "a", "--sub", "loop-nminus", "--depth", "2"]).exit_code
        == 0
    )


def test_algebra_check_pass_and_fail(runner, tmp_path):
    res = runner.invoke(main, ["algebra-check", "--algebra", "affine_sl2", "--window", "-4", "4"])
    assert res.exit_code == 0
    assert "pass" in res.output
    g = build_affine_sl2()
    g.ensure_window(-4, 4)
    data = dump_algebra(g, basis_window=(-4, 4))
    data["brackets"][0]["terms"][0]["num"] += 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    res2 = runner.invoke(main, ["algebra-check", "--algebra", str(bad), "--window", "-4", "4"])
    assert res2.exit_code == 1
    assert "FAIL" in res2.output


def test_algebra_check_rejects_an_inverted_window(runner):
    """A window with lo > hi holds no triples; it is an input error, not a pass."""
    res = runner.invoke(main, ["algebra-check", "--window", "6", "-6"])
    assert res.exit_code == 2
    assert res.stderr == "error: algebra-check window [6, -6] is empty: lo must not exceed hi\n"
    assert "pass" not in res.stdout


@pytest.mark.parametrize("window,code", [((5, 8), 2), ((-6, 6), 0)])
def test_algebra_check_on_a_finite_algebra_checks_the_window_as_given(window, code, runner, tmp_path):
    """The sl2 toy (degrees -1..1) is checked on the window the user gave; a
    window that holds no triple of its basis is an input error, not a pass."""
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(sl2_toy()))
    lo, hi = window
    res = runner.invoke(main, ["algebra-check", "--algebra", str(path), "--window", str(lo), str(hi)])
    assert res.exit_code == code, res.output
    if code:
        assert f"window [{lo}, {hi}]" in res.stderr
        assert "pass" not in res.stdout
    else:
        assert res.stdout.endswith(f"triples in window [{lo}, {hi}]\npass\n")


def test_malformed_file_exits_two(runner, tmp_path):
    bad = tmp_path / "garbage.json"
    bad.write_text("{not json")
    res = runner.invoke(main, ["algebra-check", "--algebra", str(bad)])
    assert res.exit_code == 2


def test_inconsistent_algebra_file_exits_two(runner, tmp_path):
    # a bracket naming basis position 5 of 2: an input error, not a traceback
    bad = tmp_path / "bad.json"
    data = {
        "grading": {"rank": 1, "degree_functional": [1]},
        "basis": [{"label": "x", "weight": [1], "index": 0}, {"label": "y", "weight": [0], "index": 0}],
        "brackets": [{"i": 1, "j": 5, "terms": [{"k": 0, "num": 1}]}],
    }
    bad.write_text(json.dumps(data))
    res = runner.invoke(main, ["algebra-check", "--algebra", str(bad)])
    assert res.exit_code == 2, res.output
    assert "basis position" in res.output


def test_a_builtin_is_named_only_by_its_name(runner, tmp_path):
    """A file naming a built-in is no algebra definition: a built-in is
    named by --algebra <name> alone."""
    path = tmp_path / "alias.json"
    path.write_text(json.dumps({"builtin": "abelian"}))
    with pytest.raises(AlgebraError, match="malformed algebra definition"):
        load_algebra(str(path))
    res = runner.invoke(main, ["algebra-check", "--algebra", str(path)])
    assert res.exit_code == 2
    assert "malformed algebra definition" in res.stderr


def test_run_job_bad_depth_exits_two():
    assert run_job(JobSpec("character", depth=-1)) == 2


def test_dump_flags(runner, tmp_path):
    wdump = tmp_path / "w.jsonl"
    res = runner.invoke(main, ["wakimoto", "--lambda", "h=0,K=1,d=0", "--depth", "3", "--dump", str(wdump)])
    assert res.exit_code == 0, res.output
    entries = [json.loads(line) for line in wdump.read_text().strip().splitlines()]
    assert all({"weight", "dim", "basis", "actions"} <= set(e) for e in entries)
    fdump = tmp_path / "f.jsonl"
    res2 = runner.invoke(
        main,
        ["semiinf-cohomology", "--algebra", "a", "--module", "us", "--depth", "2", "--dump", str(fdump)],
    )
    assert res2.exit_code == 0, res2.output
    lines = [json.loads(line) for line in fdump.read_text().strip().splitlines()]
    assert all({"weight", "ghost", "basis"} <= set(e) for e in lines)


@pytest.mark.parametrize("dump", [False, True], ids=["table", "dump"])
def test_forms_dump_builds_each_complex_once(runner, tmp_path, monkeypatch, dump):
    """US(a) cohomology at depth 6 builds one complex per weight, 28 in
    all, with or without --dump: the dump reads the bases of the complexes
    the table was computed from.  No complex outlives its job."""
    built = []
    init = forms.SemiInfComplex.__init__

    def counting_init(self, *args):
        init(self, *args)
        built.append(weakref.ref(self))

    monkeypatch.setattr(forms.SemiInfComplex, "__init__", counting_init)
    argv = ["semiinf-cohomology", "--algebra", "a", "--module", "us", "--depth", "6"]
    if dump:
        argv += ["--dump", str(tmp_path / "f.jsonl")]
    res = runner.invoke(main, argv)
    assert res.exit_code == 0, res.output
    assert len(built) == 28
    gc.collect()
    assert not [ref for ref in built if ref() is not None]


def test_dump_raises_construction_errors(sl2, tmp_path):
    def rule(eid, w):
        raise InductionError("action escaped")

    broken = WeightModule(sl2, "broken", {(0, 0): ["v"]}, rule, 2)
    with pytest.raises(InductionError):
        output.dump_module_jsonl(tmp_path / "m.jsonl", broken, (-2, 2))


def test_dump_propagates_a_rules_window_error(tmp_path):
    """The dump skips a generator by depth alone (its target below the
    module's depth), so a WindowError raised for any other reason inside a
    rule propagates instead of dropping 1⊗f from the (0, 0) line."""
    g = build_affine_sl2()
    V = verma(g, {"K": 1}, 3)
    f = g.by_label("1⊗f")

    def rule(eid, w):
        if eid == f and w == (0, 0):
            g.elements_of_degree(99)
        return V.action(eid, w)

    wrapped = WeightModule(g, "V, faulty at 1⊗f", V.weights, rule, V.depth)
    with pytest.raises(WindowError, match="degree 99"):
        output.dump_module_jsonl(tmp_path / "m.jsonl", wrapped, (-3, 3))


@pytest.mark.parametrize(
    "argv",
    [
        ["character", "--jobs", "1"],
        ["lie-cohomology", "--jobs", "1"],
        ["wakimoto", "--jobs", "1"],
        ["wakimoto", "--algebra", "abelian"],
        ["verify-shapiro", "--jobs", "1"],
        ["verify-shapiro", "--format", "jsonl"],
        ["verify-us", "--jobs", "1"],
        ["verify-us", "--format", "jsonl"],
        ["verify-univ", "--jobs", "1"],
        ["verify-univ", "--format", "jsonl"],
        ["semiinf-cohomology", "--jobs", "1"],
    ],
    ids=" ".join,
)
def test_options_a_command_ignores_are_rejected(argv, runner, built_specs):
    res = runner.invoke(main, argv + ["--depth", "2"])
    assert res.exit_code == 2
    assert "No such option" in res.output
    assert built_specs == []


@pytest.mark.parametrize(
    "command,fields",
    [
        ("algebra-check", {}),
        ("character", {}),
        ("lie-cohomology", {}),
        ("lie-cohomology", {"which": "homology"}),
        ("semiinf-cohomology", {}),
        ("wakimoto", {}),
        ("verify-shapiro", {"algebra": "a"}),
        ("verify-us", {"algebra": "a"}),
        ("verify-univ", {"algebra": "a"}),
    ],
    ids=lambda p: p if isinstance(p, str) else " ".join(f"--{k} {v}" for k, v in p.items()) or "defaults",
)
def test_run_job_and_the_console_run_the_same_job(command, fields, runner, tmp_path, capsys):
    """JobSpec's defaults are the console's: a JobSpec and the console
    given the same options (--depth 3 --out, besides algebra-check's
    defaults) agree in exit code, stdout and output bytes."""
    ran = {}
    for how in ("spec", "console"):
        out = tmp_path / f"{how}.out"
        opts = fields if command == "algebra-check" else {**fields, "depth": 3, "out": str(out)}
        if how == "spec":
            code, stdout = run_job(JobSpec(command, **opts)), capsys.readouterr().out
        else:
            res = runner.invoke(main, [command] + [f"--{k}={v}" for k, v in opts.items()])
            code, stdout = res.exit_code, res.stdout
        ran[how] = code, stdout, out.read_bytes() if out.exists() else None
    assert ran["spec"][0] == 0
    assert ran["spec"] == ran["console"]


@pytest.mark.parametrize(
    "command,module,algebra",
    [("lie-cohomology", "wakimoto", "affine_sl2"), ("verify-univ", "bogus", "a")],
)
def test_run_job_rejects_a_module_kind_outside_its_commands_choice(command, module, algebra, tmp_path, capsys):
    out = tmp_path / "o"
    assert run_job(JobSpec(command, algebra=algebra, module=module, depth=2, out=str(out))) == 2
    assert f"error: unknown module kind {module!r} for {command}" in capsys.readouterr().err
    assert not out.exists()


def test_an_unknown_algebra_name_lists_the_builtins(runner, tmp_path, monkeypatch):
    """The message names the string once and lists every name --algebra
    accepts, a included."""
    monkeypatch.chdir(tmp_path)
    res = runner.invoke(main, ["verify-us", "--algebra", "affine-sl2", "--depth", "2"])
    assert res.exit_code == 2
    why = "neither a built-in algebra (affine_sl2, abelian, subalgebra_a, a) nor an algebra file"
    assert res.stderr == f"error: cannot load algebra 'affine-sl2': {why}\n"


def test_wakimoto_complex_needs_affine_sl2_or_a(runner):
    argv = ["semiinf-cohomology", "--algebra", "abelian", "--module", "wakimoto", "--depth", "2"]
    res = runner.invoke(main, argv)
    assert res.exit_code == 2
    assert "--algebra must be affine_sl2 or a" in res.stderr


def test_a_cli_job_writes_only_the_files_it_is_asked_for(tmp_path):
    """A whole process, since a file written at interpreter exit would escape CliRunner."""
    env = dict(os.environ, SEMIFLEX_CACHE_DIR=str(tmp_path / "cache"))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(semiflex.__file__).parents[1]), env.get("PYTHONPATH")]))
    argv = ["semiinf-cohomology", "--algebra", "a", "--module", "us", "--depth", "2", "--out", "o.csv"]
    res = subprocess.run([sys.executable, "-m", "semiflex.cli", *argv], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == ["o.csv"]
    written = (tmp_path / "o.csv").read_bytes()
    ref = tmp_path / "ref.csv"
    assert run_job(JobSpec("semiinf-cohomology", algebra="a", module="us", depth=2, out=str(ref))) == 0
    assert written == ref.read_bytes()
