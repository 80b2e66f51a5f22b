"""Command-line driver.

A job is a ``JobSpec``, whose defaults are the console's, and ``MODULES``
lists each command's module kinds, its default first.  The click options
read their defaults and choices from these two declarations, and ``_run``
resolves the rest in one place: the module kind (``lie-cohomology``
defaults to coverma, or verma with ``--which homology``), the algebra the
module is built on (the Wakimoto module: the root of ``--algebra``, affine
sl2) and λ (DEFAULT_LAMBDA on affine sl2 for a kind that reads one).  So
``run_job(JobSpec(...))`` runs the job the console runs with the same
options.

Exit code contract: 0 = all checks pass, 1 = a mathematical check failed
(Jacobi failure, anomaly, verdict failure), 2 = input or window error.
Outputs are deterministic: identical jobs yield byte-identical files.
"""

from __future__ import annotations

import json
import os
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
from .liealg import BUILTINS, AlgebraError, WindowError, check_jacobi, load_algebra, root_algebra, subalgebra
from .modules import (
    _lambda_values,
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
MODULES = {  # each command's module kinds, its default first
    "algebra-check": (),
    "character": ("verma", "coverma", "wakimoto", "product"),
    "lie-cohomology": ("coverma", "verma", "trivial"),
    "semiinf-cohomology": ("trivial", "verma", "coverma", "us", "wakimoto"),
    "wakimoto": ("wakimoto",),
    "verify-shapiro": ("trivial",),
    "verify-us": (),
    "verify-univ": ("trivial", "induced"),
}
LAMBDA_MODULES = ("verma", "coverma", "wakimoto")  # the kinds that read λ
US_COMMANDS = ("verify-shapiro", "verify-us", "verify-univ")  # plus any job with --module us


@dataclass
class JobSpec:
    """One job.  ``module`` None is the command's default kind, and an empty
    ``lam`` (the --lambda text) is the default λ of ``_run``."""

    command: str
    algebra: str = "affine_sl2"
    sub: str = "loop-nminus"
    module: str | None = None
    lam: str = ""
    depth: int = 4
    window: tuple = (-6, 6)
    which: str = "cohomology"
    out: str | None = None
    fmt: str = "csv"
    dump: str | None = None
    jobs: int = 0  # unused; kept only because perfbench/workloads.py still builds JobSpec(..., jobs=...)


class InputError(Exception):
    pass


def parse_lambda(text: str, shorthand: bool) -> dict:
    """The --lambda text as {label: Fraction}; with ``shorthand`` (on affine
    sl2), h, K and d stand for 1⊗h, K and d.  The labels are checked where
    λ is read, by modules._lambda_values."""
    lam = {}
    for part in text.split(",") if text else ():
        key, eq, val = part.partition("=")
        if not eq:
            raise InputError(f"malformed lambda entry {part!r} (expected key=value)")
        key = key.strip()
        label = LAMBDA_KEYS.get(key, key) if shorthand else key
        if label in lam:
            raise InputError(f"lambda key {key!r} given twice")
        try:
            lam[label] = Fraction(val.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"malformed lambda value {val!r}") from exc
    return lam


def _load_algebra(name: str):
    source = "subalgebra_a" if name == "a" else name
    if source not in BUILTINS and not os.path.exists(source):
        names = ", ".join([*BUILTINS, "a"])
        raise InputError(f"cannot load algebra {name!r}: neither a built-in algebra ({names}) nor an algebra file")
    try:
        return load_algebra(source)
    except (OSError, json.JSONDecodeError, AlgebraError) as exc:
        raise InputError(f"cannot load algebra {name!r}: {exc}") from exc


def _build_module(kind: str, alg, lam: dict, depth: int):
    """The one module dispatch; ``lam`` is {} for a kind outside LAMBDA_MODULES."""
    if kind == "us":
        return universal_semijective(alg, depth).left
    build = {"verma": verma, "induced": verma, "coverma": coverma, "trivial": character_module, "wakimoto": wakimoto}
    return build[kind](alg, lam, depth)


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
    if spec.command not in MODULES:
        raise InputError(f"unknown command {spec.command!r}")
    kinds = MODULES[spec.command]
    if spec.module is not None and spec.module not in kinds:
        raise InputError(f"unknown module kind {spec.module!r} for {spec.command} (choose from {', '.join(kinds) or 'none'})")
    homology = spec.command == "lie-cohomology" and spec.which == "homology"
    kind = spec.module or ("verma" if homology else kinds[0] if kinds else None)
    alg = _load_algebra(spec.algebra)

    if spec.command == "algebra-check":
        lo, hi = spec.window
        if lo > hi:
            raise InputError(f"algebra-check window [{lo}, {hi}] is empty: lo must not exceed hi")
        report = check_jacobi(alg, lo, hi)
        if not report.checked:
            raise InputError(f"algebra-check window [{lo}, {hi}] holds no basis triple whose degree sums stay in it")
        click.echo(f"jacobi: checked {report.checked} triples in window [{lo}, {hi}]")
        if not report.passed:
            for triple in report.failures[:10]:
                click.echo(f"  FAIL: {triple}")
            return 1
        click.echo("pass")
        return 0

    base = root_algebra(alg) if kind == "wakimoto" else alg  # the algebra the module is built on
    affine = base.name == "affine_sl2"
    if kind == "wakimoto" and not affine:
        raise InputError(f"the Wakimoto module is built on affine_sl2; --algebra must be affine_sl2 or a, not {spec.algebra!r}")
    lam = parse_lambda(spec.lam or (DEFAULT_LAMBDA if affine and kind in LAMBDA_MODULES else ""), affine)
    _lambda_values(base, lam)  # a bad key is named even where the kind reads no λ
    if spec.lam and kind not in LAMBDA_MODULES:
        raise InputError(f"{spec.command} --module {kind} takes no --lambda" if kind else f"{spec.command} takes no --lambda")
    if (spec.command in US_COMMANDS or kind == "us") and alg.elements_of_degree(0):
        job = f"{spec.command} --module us" if kind == "us" else spec.command
        raise InputError(f"{job} needs an algebra with vanishing degree-0 part; {alg.name} has one")
    module = None if kind in (None, "product") else _build_module(kind, base, lam, spec.depth)

    if spec.command == "character":
        char = product_formula_character(base, spec.depth) if module is None else character(module)
        rows = output.character_rows(base, char)
        _emit(spec, base, rows)
        click.echo(f"character: {len(rows)} weights to depth {spec.depth}")
        for row in rows[:6]:
            click.echo(f"  weight {tuple(row[:-2])}  mult {row[-1]}")
        return 0

    if spec.command == "lie-cohomology":
        if homology:
            table = ce_homology(subalgebra(alg, "g_below_zero"), module, spec.depth)
        else:
            table = ce_cohomology(subalgebra(alg, "gplus"), module, spec.depth)
        _emit(spec, alg, output.table_rows(table))
        _table_summary(table)
        return 0

    if spec.command == "semiinf-cohomology":
        bases = {} if spec.dump else None
        table = semiinf_cohomology(alg, module, spec.depth, bases=bases)
        _emit(spec, alg, output.table_rows(table))
        if spec.dump:
            output.dump_forms_jsonl(spec.dump, alg, bases)
        _table_summary(table)
        return 0

    if spec.command == "wakimoto":
        rows = output.character_rows(base, character(module))
        _emit(spec, base, rows)
        if spec.dump:
            output.dump_module_jsonl(spec.dump, module, (-spec.depth, spec.depth))
        total = sum(module.dim(w) for w in module.weights)
        click.echo(f"wakimoto module: {len(rows)} weights, total dimension {total} to depth {spec.depth}")
        return 0

    if spec.command == "verify-shapiro":
        verdict, th, tg = check_shapiro(alg, subalgebra(alg, spec.sub), module, spec.depth)
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

    return _verdict_exit(spec, check_universal_property(alg, module, spec.depth))  # verify-univ


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


def _option(flag, field=None, **kw):
    """``--flag``, filling JobSpec's ``field`` (the flag's name by default), whose default it shows."""
    field = field or flag
    kw.setdefault("show_default", True)
    return click.option(f"--{flag}", field, default=getattr(JobSpec, field), **kw)


def _module_option(command, rule=None):
    """``--module``, choosing among MODULES[command], the first by default;
    given a ``rule``, --help shows it and _run applies it."""
    kinds = MODULES[command]
    return click.option("--module", type=click.Choice(kinds), default=None if rule else kinds[0], show_default=rule or True)


OUT = _option("out", type=click.Path(), help="write the result here")
DEPTH = _option("depth", type=int)
ALGEBRA = _option("algebra", help="builtin name or JSON path")
FORMAT = _option("format", "fmt", type=click.Choice(["csv", "jsonl"]))
LAMBDA = _option("lambda", "lam", help="degree-0 label=value pairs", show_default=f"{DEFAULT_LAMBDA} on affine_sl2")


@main.command("algebra-check")
@ALGEBRA
@_option("window", nargs=2, type=int)
def algebra_check(**opts):
    """Exhaustive antisymmetry + Jacobi check on a degree window."""
    sys.exit(run_job(JobSpec("algebra-check", **opts)))


@main.command("character")
@OUT
@DEPTH
@ALGEBRA
@FORMAT
@LAMBDA
@_module_option("character")
def character_cmd(**opts):
    """Formal character of a highest-weight module (or the product formula)."""
    sys.exit(run_job(JobSpec("character", **opts)))


@main.command("lie-cohomology")
@OUT
@DEPTH
@ALGEBRA
@FORMAT
@LAMBDA
@_option("which", type=click.Choice(["cohomology", "homology"]))
@_module_option("lie-cohomology", "coverma; verma with --which homology")
def lie_cohomology(**opts):
    """Classical Lie algebra (co)homology of the positive/negative part."""
    sys.exit(run_job(JobSpec("lie-cohomology", **opts)))


@main.command("semiinf-cohomology")
@OUT
@DEPTH
@_option(
    "algebra",
    help="builtin name or JSON path. With --module wakimoto, W = S-ind(affine_sl2, abar, C_lambda); a is the paper's "
    "complex; over affine_sl2 its table is H(abar, C_lambda)'s (Shapiro) and complexes grow much faster (README)",
)
@FORMAT
@LAMBDA
@_module_option("semiinf-cohomology")
@_option("dump", type=click.Path(), help="basis dump (JSON-lines)")
def semiinf_cohomology_cmd(**opts):
    """Semi-infinite cohomology table per (weight, ghost degree)."""
    sys.exit(run_job(JobSpec("semiinf-cohomology", **opts)))


@main.command("wakimoto")
@OUT
@DEPTH
@FORMAT
@LAMBDA
@_option("dump", type=click.Path(), help="module dump (JSON-lines)")
def wakimoto_cmd(**opts):
    """Construct the Wakimoto module over affine sl2 and emit its weight-space dimensions."""
    if not opts["lam"]:
        click.echo(f"warning: no --lambda given, using default {DEFAULT_LAMBDA}", err=True)
    sys.exit(run_job(JobSpec("wakimoto", **opts)))


@main.command("verify-shapiro")
@OUT
@DEPTH
@ALGEBRA
@_option("sub", help="subalgebra selector")
def verify_shapiro(**opts):
    """Per-cell equality of H(h, M) and H(g, S-ind M)."""
    sys.exit(run_job(JobSpec("verify-shapiro", **opts)))


@main.command("verify-us")
@OUT
@DEPTH
@ALGEBRA
def verify_us(**opts):
    """Graded dimensions and module oracles of the semiregular bimodule."""
    sys.exit(run_job(JobSpec("verify-us", **opts)))


@main.command("verify-univ")
@OUT
@DEPTH
@ALGEBRA
@_module_option("verify-univ")
def verify_univ(**opts):
    """Semi-invariants of N ⊗ US reproduce N (graded dims + equivariance)."""
    sys.exit(run_job(JobSpec("verify-univ", **opts)))


if __name__ == "__main__":
    main()
