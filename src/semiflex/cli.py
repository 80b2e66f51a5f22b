"""Command-line driver.

Exit code contract: 0 = all checks pass, 1 = a mathematical check failed
(Jacobi failure, anomaly, verdict failure), 2 = input or window error.
Outputs are deterministic: identical jobs yield byte-identical files.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from fractions import Fraction

import click

from . import output
from .forms import AnomalyError, semiinf_cohomology
from .induction import (
    InductionError,
    check_shapiro,
    check_universal_property,
    check_us,
    universal_semijective,
    wakimoto,
)
from .liealg import AlgebraError, WindowError, check_jacobi, load_algebra, subalgebra
from .modules import (
    ce_cohomology,
    ce_homology,
    character,
    character_module,
    coverma,
    product_formula_character,
    verma,
)
from .pbw import InfiniteEnumerationError

LAMBDA_KEYS = {"h": "1⊗h", "K": "K", "d": "d"}
DEFAULT_LAMBDA = "h=0,K=1,d=0"
A_ALIASES = ("a", "subalgebra_a")
US_COMMANDS = ("verify-shapiro", "verify-us", "verify-univ")  # plus any job with --module us
NO_LAMBDA_MODULES = ("product", "trivial", "us")  # modules that take no λ


@dataclass
class JobSpec:
    command: str
    algebra: str = "affine_sl2"
    sub: str | None = None
    module: str | None = None
    lam: str = ""  # the --lambda text; see _module_algebra for the default
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
    """λ as {label: value}; every key must name a distinct degree-0 element of ``alg``
    by its label (on affine sl2, h, K and d are shorthand for 1⊗h, K and d)."""
    lam = {}
    if not text:
        return lam
    for part in text.split(","):
        if "=" not in part:
            raise InputError(f"malformed lambda entry {part!r} (expected key=value)")
        key, val = part.split("=", 1)
        key = key.strip()
        label = LAMBDA_KEYS.get(key, key) if alg.name == "affine_sl2" else key
        try:
            eid = alg.by_label(label)
        except AlgebraError as exc:
            raise InputError(str(exc)) from exc
        if alg.degree(eid) != 0:
            raise InputError(f"lambda key {key!r}: {label!r} has degree {alg.degree(eid)}, not 0")
        if label in lam:
            raise InputError(f"lambda key {key!r} given twice")
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
    """``(alg, lam)``: the algebra the job's module is built on, with λ parsed against it.

    An empty ``spec.lam`` means DEFAULT_LAMBDA on affine sl2 and no λ elsewhere;
    a λ given to a module that takes none is an input error.
    The Wakimoto module always lives on affine sl2; ``--algebra`` then only
    picks the complex (all of affine sl2, or its subalgebra a)."""
    if "wakimoto" not in (spec.command, spec.module):
        alg = _load_algebra(spec.algebra)
    elif spec.algebra in ("affine_sl2",) + A_ALIASES:
        alg = _load_algebra("affine_sl2")
    else:
        raise InputError(f"the Wakimoto module is built on affine_sl2; --algebra must be affine_sl2 or a, not {spec.algebra!r}")
    lam = parse_lambda(spec.lam or (DEFAULT_LAMBDA if alg.name == "affine_sl2" else ""), alg)
    if spec.lam and spec.module in NO_LAMBDA_MODULES:
        raise InputError(f"{spec.command} --module {spec.module} takes no --lambda")
    if (spec.command in US_COMMANDS or spec.module == "us") and alg.elements_of_degree(0):
        job = f"{spec.command} --module us" if spec.module == "us" else spec.command
        raise InputError(f"{job} needs an algebra with vanishing degree-0 part; {alg.name} has one")
    return alg, lam


def _build_module(alg, lam, spec: JobSpec):
    kind = spec.module or "verma"
    if kind in ("verma", "coverma"):
        ctor = verma if kind == "verma" else coverma
        return ctor(alg, lam, spec.depth)
    if kind == "trivial":
        return character_module(alg, {}, spec.depth)
    if kind == "us":
        return universal_semijective(alg, spec.depth).left
    if kind == "wakimoto":
        return wakimoto(alg, lam, spec.depth)
    raise InputError(f"unknown module kind {kind!r}")


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
        lo, hi = spec.window or (-6, 6)
        if lo > hi:
            raise InputError(f"algebra-check window [{lo}, {hi}] is empty: lo must not exceed hi")
        report = check_jacobi(_load_algebra(spec.algebra), lo, hi)
        if not report.checked:
            raise InputError(f"algebra-check window [{lo}, {hi}] holds no basis triple whose degree sums stay in it")
        click.echo(f"jacobi: checked {report.checked} triples in window [{lo}, {hi}]")
        if not report.passed:
            for triple in report.failures[:10]:
                click.echo(f"  FAIL: {triple}")
            return 1
        click.echo("pass")
        return 0

    alg, lam = _module_algebra(spec)

    if spec.command == "character":
        if spec.module == "product":
            char = product_formula_character(alg, spec.depth)
        else:
            char = character(_build_module(alg, lam, spec), spec.depth)
        rows = output.character_rows(alg, char)
        _emit(spec, alg, rows)
        click.echo(f"character: {len(rows)} weights to depth {spec.depth}")
        for row in rows[:6]:
            click.echo(f"  weight {tuple(row[:-2])}  mult {row[-1]}")
        return 0

    if spec.command == "lie-cohomology":
        module = _build_module(alg, lam, spec)
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
        module = _build_module(alg, lam, spec)
        if spec.module == "wakimoto" and spec.algebra in A_ALIASES:
            alg = subalgebra(alg, "a")
        bases = {} if spec.dump else None
        table = semiinf_cohomology(alg, module, spec.depth, bases=bases)
        _emit(spec, alg, output.table_rows(table))
        if spec.dump:
            output.dump_forms_jsonl(spec.dump, alg, bases)
        _table_summary(table)
        return 0

    if spec.command == "wakimoto":
        module = wakimoto(alg, lam, spec.depth)
        rows = output.character_rows(alg, character(module))
        _emit(spec, alg, rows)
        if spec.dump:
            output.dump_module_jsonl(spec.dump, module, (-spec.depth, spec.depth))
        total = sum(module.dim(w) for w in module.weights)
        click.echo(f"wakimoto module: {len(rows)} weights, total dimension {total} to depth {spec.depth}")
        return 0

    if spec.command == "verify-shapiro":
        sub = subalgebra(alg, spec.sub or "loop-nminus")
        module = character_module(alg, {}, spec.depth)
        verdict, th, tg = check_shapiro(alg, sub, module, spec.depth)
        click.echo(f"H(h, M) nonzero cells: {len(th.nonzero())}; H(g, S-ind M): {len(tg.nonzero())}")
        return _verdict_exit(spec, verdict)

    if spec.command == "verify-us":
        v1, v2 = check_us(alg, spec.depth)
        click.echo(repr(v1))
        click.echo(repr(v2))
        if spec.out:
            with open(spec.out, "w") as fh:
                json.dump([v1.to_json(), v2.to_json()], fh, indent=1, sort_keys=True)
        return 0 if (v1.passed and v2.passed) else 1

    if spec.command == "verify-univ":
        if spec.module == "induced":
            module = verma(alg, {}, spec.depth)
        else:
            module = character_module(alg, {}, spec.depth)
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
    return click.option("--lambda", "lam", default="", help="e.g. h=0,K=1,d=0")(fn)


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
def character_cmd(**opts):
    """Formal character of a highest-weight module (or the product formula)."""
    sys.exit(run_job(JobSpec("character", **opts)))


@main.command("lie-cohomology")
@_common
@_algebra_option
@_format_option
@_lambda_option
@click.option("--which", default="cohomology", type=click.Choice(["cohomology", "homology"]), show_default=True)
@click.option("--module", default=None, type=click.Choice(["verma", "coverma", "trivial"]))
def lie_cohomology(which, module, **opts):
    """Classical Lie algebra (co)homology of the positive/negative part."""
    if module is None:
        module = "coverma" if which == "cohomology" else "verma"
    sys.exit(run_job(JobSpec("lie-cohomology", which=which, module=module, **opts)))


@main.command("semiinf-cohomology")
@_common
@click.option(
    "--algebra",
    default="affine_sl2",
    show_default=True,
    help="builtin name or JSON path. With --module wakimoto, a is the complex the paper's checks use, and "
    "affine_sl2 is all of affine sl2, whose complexes grow much faster with depth (timings in the README)",
)
@_format_option
@_lambda_option
@click.option("--module", default="trivial", type=click.Choice(["trivial", "verma", "coverma", "us", "wakimoto"]), show_default=True)
@click.option("--dump", default=None, type=click.Path(), help="basis dump (JSON-lines)")
def semiinf_cohomology_cmd(**opts):
    """Semi-infinite cohomology table per (weight, ghost degree)."""
    sys.exit(run_job(JobSpec("semiinf-cohomology", **opts)))


@main.command("wakimoto")
@_common
@_format_option
@_lambda_option
@click.option("--dump", default=None, type=click.Path(), help="module dump (JSON-lines)")
def wakimoto_cmd(**opts):
    """Construct the Wakimoto module over affine sl2 and emit its weight-space dimensions."""
    if not opts["lam"]:
        click.echo(f"warning: no --lambda given, using default {DEFAULT_LAMBDA}", err=True)
    sys.exit(run_job(JobSpec("wakimoto", **opts)))


@main.command("verify-shapiro")
@_common
@_algebra_option
@click.option("--sub", default="loop-nminus", show_default=True, help="subalgebra selector")
def verify_shapiro(**opts):
    """Per-cell equality of H(h, M) and H(g, S-ind M)."""
    sys.exit(run_job(JobSpec("verify-shapiro", **opts)))


@main.command("verify-us")
@_common
@_algebra_option
def verify_us(**opts):
    """Graded dimensions and module oracles of the semiregular bimodule."""
    sys.exit(run_job(JobSpec("verify-us", **opts)))


@main.command("verify-univ")
@_common
@_algebra_option
@click.option("--module", "module", default="trivial", type=click.Choice(["trivial", "induced"]), show_default=True)
def verify_univ(**opts):
    """Semi-invariants of N ⊗ US reproduce N (graded dims + equivariance)."""
    sys.exit(run_job(JobSpec("verify-univ", **opts)))


if __name__ == "__main__":
    main()
