"""Command-line driver.

Exit code contract: 0 = all checks pass, 1 = a mathematical check failed
(Jacobi failure, anomaly, verdict failure), 2 = input or window error.
Outputs are deterministic: identical jobs yield byte-identical files.
"""

from __future__ import annotations

import atexit
import json
import os
import pickle
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import click

from . import output
from .forms import AnomalyError, semiinf_cohomology
from .induction import (
    InductionError,
    check_prop_iso,
    check_prop_iso1,
    check_shapiro,
    check_universal_property,
    universal_semijective,
    wakimoto,
)
from .liealg import AlgebraError, WindowError, check_jacobi, load_algebra, subalgebra
from .modules import (
    ce_cohomology,
    ce_homology,
    character,
    coverma,
    product_formula_character,
    trivial_module,
    verma,
)
from .pbw import InfiniteEnumerationError

LAMBDA_KEYS = {"h": "1⊗h", "K": "K", "d": "d"}
DEFAULT_LAMBDA = "h=0,K=1,d=0"
A_ALIASES = ("a", "subalgebra_a", "loop-nilpotent-a")


@dataclass
class JobSpec:
    command: str
    algebra: str = "affine_sl2"
    sub: str | None = None
    module: str | None = None
    lam: dict = field(default_factory=dict)
    depth: int = 4
    window: tuple | None = None
    which: str = "cohomology"
    out: str | None = None
    fmt: str = "csv"
    dump: str | None = None
    jobs: int = 0  # unused; kept only because perfbench/workloads.py still builds JobSpec(..., jobs=...)


class InputError(Exception):
    pass


def parse_lambda(text: str, alg) -> dict:
    lam = {}
    if not text:
        return lam
    for part in text.split(","):
        if "=" not in part:
            raise InputError(f"malformed lambda entry {part!r} (expected key=value)")
        key, val = part.split("=", 1)
        key = key.strip()
        label = LAMBDA_KEYS.get(key, key)
        try:
            alg.by_label(label)
        except AlgebraError as exc:
            raise InputError(str(exc)) from exc
        try:
            lam[label] = Fraction(val.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"malformed lambda value {val!r}") from exc
    return lam


def _load_algebra(name: str):
    try:
        return load_algebra("subalgebra_a" if name in A_ALIASES else name)
    except (OSError, json.JSONDecodeError, AlgebraError) as exc:
        raise InputError(f"cannot load algebra {name!r}: {exc}") from exc


def _module_algebra(spec: JobSpec):
    """Load the algebra the job's module is built on, with its memo cache.

    The Wakimoto module always lives on affine sl2; ``--algebra`` then only
    picks the complex (all of affine sl2, or its subalgebra a)."""
    if spec.module != "wakimoto":
        alg = _load_algebra(spec.algebra)
    elif spec.algebra in ("affine_sl2",) + A_ALIASES:
        alg = _load_algebra("affine_sl2")
    else:
        raise InputError(f"the Wakimoto module is built on affine_sl2; --algebra must be affine_sl2 or a, not {spec.algebra!r}")
    _with_cache(alg, spec)
    return alg


def _build_module(alg, spec: JobSpec):
    kind = spec.module or "verma"
    if kind in ("verma", "coverma"):
        ctor = verma if kind == "verma" else coverma
        if alg.name != "affine_sl2" and spec.lam:
            raise InputError(f"lambda values are only meaningful on the degree-0 basis of {alg.name}")
        return ctor(alg, spec.lam, spec.depth)
    if kind == "trivial":
        return trivial_module(alg, depth=spec.depth)
    if kind == "us":
        return universal_semijective(alg, spec.depth).left_module()
    if kind == "wakimoto":
        return wakimoto(alg, spec.lam or _default_lambda(alg), spec.depth)
    raise InputError(f"unknown module kind {kind!r}")


def _default_lambda(alg) -> dict:
    return parse_lambda(DEFAULT_LAMBDA, alg)


def run_job(spec: JobSpec) -> int:
    """Dispatch a parsed job; returns the process exit code."""
    try:
        return _run(spec)
    except (InputError, AlgebraError, WindowError, InfiniteEnumerationError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    except AnomalyError as exc:
        click.echo(f"anomaly: {exc}", err=True)
        return 1
    except InductionError as exc:
        click.echo(f"construction failed: {exc}", err=True)
        return 1


def _emit(spec: JobSpec, alg, rows):
    if not spec.out:
        return
    if spec.fmt == "jsonl":
        output.write_jsonl(spec.out, rows, alg.rank)
    else:
        output.write_csv(spec.out, rows, alg.rank)


def _run(spec: JobSpec) -> int:
    if spec.depth < 1:
        raise InputError(f"depth must be positive, got {spec.depth}")

    if spec.command == "algebra-check":
        alg = _load_algebra(spec.algebra)
        lo, hi = spec.window or (-6, 6)
        clo, chi = alg.content_window() if alg.window()[1] - alg.window()[0] > 10**6 else (lo, hi)
        lo, hi = max(lo, clo - 1), min(hi, chi + 1)
        report = check_jacobi(alg, lo, hi)
        click.echo(f"jacobi: checked {report.checked} triples in window [{lo}, {hi}]")
        if not report.passed:
            for triple in report.failures[:10]:
                click.echo(f"  FAIL: {triple}")
            return 1
        click.echo("pass")
        return 0

    if spec.command == "character":
        alg = _module_algebra(spec)
        if spec.module == "product":
            char = product_formula_character(alg, spec.depth)
        else:
            char = character(_build_module(alg, spec), spec.depth)
        rows = output.character_rows(alg, char)
        _emit(spec, alg, rows)
        click.echo(f"character: {len(rows)} weights to depth {spec.depth}")
        for row in rows[:6]:
            click.echo(f"  weight {tuple(row[:-2])}  mult {row[-1]}")
        return 0

    if spec.command == "lie-cohomology":
        alg = _module_algebra(spec)
        module = _build_module(alg, spec)
        if spec.which == "homology":
            part = subalgebra(alg, "g_below_zero")
            table = ce_homology(part, module, spec.depth)
        else:
            part = subalgebra(alg, "gplus")
            table = ce_cohomology(part, module, spec.depth)
        _emit(spec, alg, output.table_rows(table))
        _table_summary(table)
        return 0

    if spec.command == "semiinf-cohomology":
        alg = _module_algebra(spec)
        module = _build_module(alg, spec)
        if spec.module == "wakimoto" and spec.algebra in A_ALIASES:
            alg = subalgebra(alg, "a")
        table = semiinf_cohomology(alg, module, spec.depth)
        _emit(spec, alg, output.table_rows(table))
        if spec.dump:
            output.dump_forms_jsonl(spec.dump, alg, table, module)
        _table_summary(table)
        return 0

    if spec.command == "wakimoto":
        base = _load_algebra("affine_sl2")
        _with_cache(base, spec)
        module = wakimoto(base, spec.lam or _default_lambda(base), spec.depth)
        rows = output.module_rows(module)
        _emit(spec, base, rows)
        if spec.dump:
            output.dump_module_jsonl(spec.dump, module, (-spec.depth, spec.depth))
        total = sum(module.dim(w) for w in module.weights)
        click.echo(f"wakimoto module: {len(rows)} weights, total dimension {total} to depth {spec.depth}")
        return 0

    if spec.command == "verify-shapiro":
        alg = _load_algebra(spec.algebra)
        _with_cache(alg, spec)
        alg.ensure_window(-1, 1)
        if alg.elements_of_degree(0):
            raise InputError("verify-shapiro needs an algebra with vanishing degree-0 part")
        subname = spec.sub or "loop-nminus"
        sub = subalgebra(alg, "gminus") if subname == "self" else subalgebra(alg, subname)
        module = trivial_module(alg, depth=spec.depth)
        verdict, th, tg = check_shapiro(alg, sub, module, spec.depth)
        click.echo(f"H(h, M) nonzero cells: {len(th.nonzero())}; H(g, S-ind M): {len(tg.nonzero())}")
        return _verdict_exit(spec, verdict)

    if spec.command == "verify-us":
        alg = _load_algebra(spec.algebra)
        _with_cache(alg, spec)
        v1 = check_prop_iso(alg, spec.depth)
        v2 = check_prop_iso1(alg, spec.depth)
        click.echo(repr(v1))
        click.echo(repr(v2))
        if spec.out:
            with open(spec.out, "w") as fh:
                json.dump([v1.to_json(), v2.to_json()], fh, indent=1, sort_keys=True)
        return 0 if (v1.passed and v2.passed) else 1

    if spec.command == "verify-univ":
        alg = _load_algebra(spec.algebra)
        _with_cache(alg, spec)
        if spec.module == "induced":
            module = verma(alg, {}, spec.depth)
        else:
            module = trivial_module(alg, depth=spec.depth)
        verdict = check_universal_property(alg, module, spec.depth)
        return _verdict_exit(spec, verdict)

    raise InputError(f"unknown command {spec.command!r}")


def _table_summary(table):
    nz = table.nonzero()
    click.echo(f"{table.kind}: {len(nz)} nonzero cells; euler consistent: {table.euler_consistent()}")
    for w, n, d in nz[:8]:
        click.echo(f"  weight {w}  degree {n}  dim {d}")
    if len(nz) > 8:
        click.echo(f"  ... {len(nz) - 8} more")


def _verdict_exit(spec: JobSpec, verdict) -> int:
    click.echo(repr(verdict))
    if spec.out:
        with open(spec.out, "w") as fh:
            json.dump(verdict.to_json(), fh, indent=1, sort_keys=True)
    if not verdict.passed:
        for key, val in verdict.details.items():
            if val:
                click.echo(f"  {key}: {val}")
    return 0 if verdict.passed else 1


# -- memo persistence ------------------------------------------------------------


def _cache_path(alg):
    root = os.environ.get("SEMIFLEX_CACHE_DIR")
    if not root:
        return None
    os.makedirs(root, exist_ok=True)
    safe = alg.fingerprint().replace("/", "_").replace(":", "_")
    return os.path.join(root, f"{safe}.pkl")


def _with_cache(alg, spec: JobSpec):
    """Preload the straightening memo when SEMIFLEX_CACHE_DIR is set.

    The memo keys are basis ids, which are only stable for an identical
    materialization history; the stored label list must match as a prefix."""
    path = _cache_path(alg)
    if not path:
        return
    alg.ensure_window(-2 * spec.depth - 4, 2 * spec.depth + 4)
    if os.path.exists(path):
        try:
            with open(path, "rb") as fh:
                stored = pickle.load(fh)
            if not isinstance(stored, dict):
                raise pickle.UnpicklingError(f"holds a {type(stored).__name__}, not a memo cache")
        except (OSError, EOFError, pickle.UnpicklingError) as exc:
            click.echo(f"warning: ignoring unreadable memo cache {path}: {exc}", err=True)
        else:
            labels = stored.get("labels", [])
            if labels == alg.labels[: len(labels)]:
                alg._memos.update(stored.get("memos", {}))

    def save():
        try:
            with open(path, "wb") as fh:
                pickle.dump({"labels": list(alg.labels), "memos": alg._memos}, fh)
        except (OSError, pickle.PicklingError) as exc:
            click.echo(f"warning: could not write memo cache {path}: {exc}", err=True)

    atexit.register(save)


# -- click wiring -----------------------------------------------------------------


@click.group()
def main():
    """Exact semi-infinite cohomology workbench."""


def _common(fn):
    fn = click.option("--depth", default=4, show_default=True, type=int)(fn)
    fn = click.option("--out", default=None, type=click.Path(), help="write the result here")(fn)
    return fn


def _algebra_option(fn):
    return click.option("--algebra", default="affine_sl2", show_default=True, help="builtin name or JSON path")(fn)


def _format_option(fn):
    return click.option("--format", "fmt", default="csv", type=click.Choice(["csv", "jsonl"]), show_default=True)(fn)


def _lambda_option(fn):
    return click.option("--lambda", "lam_text", default="", help="e.g. h=0,K=1,d=0")(fn)


@main.command("algebra-check")
@click.option("--algebra", default="affine_sl2", show_default=True)
@click.option("--window", nargs=2, type=int, default=(-6, 6), show_default=True)
def algebra_check(algebra, window):
    """Exhaustive antisymmetry + Jacobi check on a degree window."""
    sys.exit(run_job(JobSpec("algebra-check", algebra=algebra, window=tuple(window), depth=4)))


@main.command("character")
@_common
@_algebra_option
@_format_option
@_lambda_option
@click.option("--module", default="verma", type=click.Choice(["verma", "coverma", "wakimoto", "product"]), show_default=True)
def character_cmd(depth, out, algebra, fmt, lam_text, module):
    """Formal character of a highest-weight module (or the product formula)."""
    spec = JobSpec("character", algebra=algebra, depth=depth, out=out, fmt=fmt, module=module)
    try:
        base = _load_algebra("affine_sl2" if module in ("wakimoto",) else algebra)
        spec.lam = parse_lambda(lam_text or DEFAULT_LAMBDA, base) if base.name == "affine_sl2" else parse_lambda(lam_text, base)
    except InputError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    sys.exit(run_job(spec))


@main.command("lie-cohomology")
@_common
@_algebra_option
@_format_option
@_lambda_option
@click.option("--which", default="cohomology", type=click.Choice(["cohomology", "homology"]), show_default=True)
@click.option("--module", default=None, type=click.Choice(["verma", "coverma", "trivial"]))
def lie_cohomology(depth, out, algebra, fmt, lam_text, which, module):
    """Classical Lie algebra (co)homology of the positive/negative part."""
    if module is None:
        module = "coverma" if which == "cohomology" else "verma"
    spec = JobSpec("lie-cohomology", algebra=algebra, depth=depth, out=out, fmt=fmt, which=which, module=module)
    try:
        base = _load_algebra(algebra)
        spec.lam = parse_lambda(lam_text or (DEFAULT_LAMBDA if base.name == "affine_sl2" else ""), base)
    except InputError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    sys.exit(run_job(spec))


@main.command("semiinf-cohomology")
@_common
@_algebra_option
@_format_option
@_lambda_option
@click.option("--module", default="trivial", type=click.Choice(["trivial", "verma", "coverma", "us", "wakimoto"]), show_default=True)
@click.option("--dump", default=None, type=click.Path(), help="basis dump (JSON-lines)")
def semiinf_cohomology_cmd(depth, out, algebra, fmt, lam_text, module, dump):
    """Semi-infinite cohomology table per (weight, ghost degree)."""
    spec = JobSpec("semiinf-cohomology", algebra=algebra, depth=depth, out=out, fmt=fmt, module=module, dump=dump)
    try:
        if lam_text or module in ("wakimoto", "verma", "coverma"):
            base = _load_algebra("affine_sl2" if module == "wakimoto" else algebra)
            spec.lam = parse_lambda(lam_text or (DEFAULT_LAMBDA if base.name == "affine_sl2" else ""), base)
    except InputError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    sys.exit(run_job(spec))


@main.command("wakimoto")
@_common
@_format_option
@_lambda_option
@click.option("--dump", default=None, type=click.Path(), help="module dump (JSON-lines)")
def wakimoto_cmd(depth, out, fmt, lam_text, dump):
    """Construct the Wakimoto module over affine sl2 and emit its weight-space dimensions."""
    spec = JobSpec("wakimoto", depth=depth, out=out, fmt=fmt, dump=dump)
    if not lam_text:
        click.echo(f"warning: no --lambda given, using default {DEFAULT_LAMBDA}", err=True)
    try:
        spec.lam = parse_lambda(lam_text or DEFAULT_LAMBDA, _load_algebra("affine_sl2"))
    except InputError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    sys.exit(run_job(spec))


@main.command("verify-shapiro")
@_common
@_algebra_option
@click.option("--sub", default="loop-nminus", show_default=True, help="subalgebra selector (or 'self')")
def verify_shapiro(depth, out, algebra, sub):
    """Per-cell equality of H(h, M) and H(g, S-ind M)."""
    sys.exit(run_job(JobSpec("verify-shapiro", algebra=algebra, depth=depth, out=out, sub=sub)))


@main.command("verify-us")
@_common
@_algebra_option
def verify_us(depth, out, algebra):
    """Graded dimensions and module oracles of the semiregular bimodule."""
    sys.exit(run_job(JobSpec("verify-us", algebra=algebra, depth=depth, out=out)))


@main.command("verify-univ")
@_common
@_algebra_option
@click.option("--module", "module", default="trivial", type=click.Choice(["trivial", "induced"]), show_default=True)
def verify_univ(depth, out, algebra, module):
    """Semi-invariants of N ⊗ US reproduce N (graded dims + equivariance)."""
    sys.exit(run_job(JobSpec("verify-univ", algebra=algebra, depth=depth, out=out, module=module)))


if __name__ == "__main__":
    main()
