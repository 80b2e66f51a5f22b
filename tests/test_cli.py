"""The command-line driver: parsing, outputs, exit codes, determinism."""

import json
import pickle
from pathlib import Path

import pytest
from click.testing import CliRunner

from semiflex import cli, output
from semiflex.cli import JobSpec, main, run_job
from semiflex.induction import InductionError
from semiflex.liealg import build_affine_sl2, dump_algebra
from semiflex.modules import WeightModule


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


@pytest.mark.parametrize("command", ["character", "lie-cohomology", "semiinf-cohomology", "wakimoto"])
def test_unknown_lambda_label_exits_two_and_leaves_nothing(command, runner, tmp_path, monkeypatch):
    import atexit

    monkeypatch.setenv("SEMIFLEX_CACHE_DIR", str(tmp_path / "cache"))
    saves = []
    monkeypatch.setattr(atexit, "register", saves.append)
    out = tmp_path / "o.csv"
    res = runner.invoke(main, [command, "--lambda", "q=1", "--depth", "2", "--out", str(out)])
    assert res.exit_code == 2
    assert "error: affine_sl2: no basis element labelled 'q'" in res.stderr
    assert not out.exists()
    assert saves == []


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


def test_malformed_file_exits_two(runner, tmp_path):
    bad = tmp_path / "garbage.json"
    bad.write_text("{not json")
    res = runner.invoke(main, ["algebra-check", "--algebra", str(bad)])
    assert res.exit_code == 2


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


def test_dump_raises_construction_errors(sl2, tmp_path):
    def rule(eid, w):
        raise InductionError("action escaped")

    broken = WeightModule(sl2, "broken", {(0, 0): ["v"]}, rule, 2)
    with pytest.raises(InductionError):
        output.dump_module_jsonl(tmp_path / "m.jsonl", broken, (-2, 2))


def test_cache_dir_round_trip(runner, tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("SEMIFLEX_CACHE_DIR", str(cache))
    out1 = tmp_path / "o1.csv"
    res = runner.invoke(main, ["semiinf-cohomology", "--algebra", "a", "--module", "us", "--depth", "2", "--out", str(out1)])
    assert res.exit_code == 0, res.output
    import atexit

    # the save hook is registered via atexit; trigger persistence manually
    atexit._run_exitfuncs()
    assert list(cache.glob("*.pkl"))
    out2 = tmp_path / "o2.csv"
    res2 = runner.invoke(main, ["semiinf-cohomology", "--algebra", "a", "--module", "us", "--depth", "2", "--out", str(out2)])
    assert res2.exit_code == 0, res2.output
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("content", [b"garbage", pickle.dumps([1, 2])], ids=["garbage", "list"])
def test_corrupt_cache_warns_and_is_ignored(content, runner, tmp_path, monkeypatch, capsys):
    import atexit

    argv = ["semiinf-cohomology", "--algebra", "a", "--module", "us", "--depth", "2", "--out"]
    plain = tmp_path / "plain.csv"
    assert runner.invoke(main, argv + [str(plain)]).exit_code == 0
    monkeypatch.setenv("SEMIFLEX_CACHE_DIR", str(tmp_path / "cache"))
    pkl = Path(cli._cache_path(cli._load_algebra("a")))
    pkl.write_bytes(content)
    saves = []
    monkeypatch.setattr(atexit, "register", saves.append)
    cached = tmp_path / "cached.csv"
    res = runner.invoke(main, argv + [str(cached)])
    assert res.exit_code == 0, res.output
    assert f"warning: ignoring unreadable memo cache {pkl}: " in res.stderr
    assert cached.read_bytes() == plain.read_bytes()
    # a save that cannot write warns instead of failing silently
    pkl.unlink()
    pkl.mkdir()
    (save,) = saves
    save()
    assert f"warning: could not write memo cache {pkl}: " in capsys.readouterr().err


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


def test_wakimoto_complex_needs_affine_sl2_or_a(runner):
    argv = ["semiinf-cohomology", "--algebra", "abelian", "--module", "wakimoto", "--depth", "2"]
    res = runner.invoke(main, argv)
    assert res.exit_code == 2
    assert "--algebra must be affine_sl2 or a" in res.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["semiinf-cohomology", "--algebra", "a", "--module", "wakimoto", "--depth", "2"],
        ["character", "--module", "wakimoto", "--depth", "2"],
    ],
    ids=["semiinf-cohomology", "character"],
)
def test_cache_holds_the_wakimoto_memo(argv, runner, tmp_path, monkeypatch):
    """W is built on affine sl2: that algebra's memo is the one saved."""
    import atexit

    cache = tmp_path / "cache"
    monkeypatch.setenv("SEMIFLEX_CACHE_DIR", str(cache))
    saves = []
    monkeypatch.setattr(atexit, "register", saves.append)
    res = runner.invoke(main, argv)
    assert res.exit_code == 0, res.output
    (save,) = saves
    save()
    assert sorted(p.name for p in cache.iterdir()) == ["affine_sl2_r2.pkl"]
    with open(cache / "affine_sl2_r2.pkl", "rb") as fh:
        memos = pickle.load(fh)["memos"]
    assert memos[("no", "wak:affine_sl2/r2")]
