"""The four benchmark workloads: set-up, job and answer fingerprint.

Each workload is one exact computation from the paper's own checks, run in
a fresh process (see job.py) so the straightening memo starts cold.  This
module imports only the standard library at top level, so the parent
process can read names, depths and the λ pool without importing semiflex.

A fingerprint is a small JSON-able dict that pins the answer: the exact
facts the paper states (one nonzero cell, Euler consistency, character
identities, a passing verdict) plus a digest of the whole table, so a
change that moves any cell is caught.  The reference fingerprints in
reference.json were taken from the code before any optimisation.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import random
from fractions import Fraction

# λ = (h, K, d=0) for the affine workloads: small-height rationals.  K never
# takes the critical level -2.
CRITICAL_LEVEL = Fraction(-2)
LAMBDA_POOL = [
    (Fraction(h), Fraction(k))
    for h, k in [
        ("0", "1"),
        ("1", "1"),
        ("-1", "2"),
        ("2", "1"),
        ("1/2", "1"),
        ("0", "3/2"),
        ("3/2", "2"),
        ("-1/3", "1"),
        ("1/3", "-1"),
        ("2/3", "1/2"),
        ("-1/2", "3"),
        ("1", "-1/2"),
    ]
]


def lambda_draws(seed: int):
    """The λ of each job of a run, drawn from the pool: the same seed gives
    the same sequence."""
    rng = random.Random(seed)
    while True:
        yield rng.choice(LAMBDA_POOL)


def lambda_key(hk) -> str:
    h, k = hk
    return f"h={h},K={k}"


def parse_lambda_key(key: str):
    parts = dict(item.split("=", 1) for item in key.split(","))
    return Fraction(parts["h"]), Fraction(parts["K"])


def lambda_dict(hk) -> dict:
    h, k = hk
    return {"1⊗h": h, "K": k, "d": Fraction(0)}


def nproc() -> int:
    """CPUs this process may run on (not os.cpu_count())."""
    return len(os.sched_getaffinity(0))


def digest(obj) -> str:
    data = json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(data.encode()).hexdigest()


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in sorted(x.items(), key=lambda kv: str(kv[0]))}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, Fraction):
        return str(x)
    return x


def table_fingerprint(table) -> dict:
    """Nonzero cells, Euler consistency and a digest of every cell."""
    return {
        "nonzero": _jsonable(table.nonzero()),
        "euler_consistent": table.euler_consistent(),
        "table_sha256": digest(_jsonable(table.rows())),
    }


# -- wakcoh ----------------------------------------------------------------------


def _wakcoh_setup(depth, lam, out_dir):
    from semiflex import build_affine_sl2

    g = build_affine_sl2()
    g.ensure_window(-2 * depth - 4, 2 * depth + 4)
    return {"g": g, "depth": depth, "lam": lambda_dict(lam)}


def _wakcoh_run(st):
    from semiflex import semiinf_cohomology, subalgebra, wakimoto

    st["W"] = wakimoto(st["g"], st["lam"], st["depth"])
    return semiinf_cohomology(subalgebra(st["g"], "a"), st["W"], st["depth"])


def _wakcoh_fingerprint(st, table):
    from semiflex import character, product_formula_character

    fp = table_fingerprint(table)
    fp["character_is_product_formula"] = character(st["W"]) == product_formula_character(st["g"], st["depth"])
    return fp


# -- uscoh_cli ---------------------------------------------------------------------


def _uscoh_setup(depth, lam, out_dir):
    import semiflex.cli  # noqa: F401  (the CLI and click load in set-up)

    return {"depth": depth, "out": os.path.join(out_dir, "uscoh.csv")}


def _uscoh_run(st):
    from semiflex.cli import JobSpec, run_job

    spec = JobSpec("semiinf-cohomology", algebra="a", module="us", depth=st["depth"], jobs=nproc(), out=st["out"])
    return run_job(spec)


def _uscoh_fingerprint(st, exit_code):
    fp = {"exit_code": exit_code}
    if not os.path.exists(st["out"]):
        return fp
    with open(st["out"], "rb") as fh:
        data = fh.read()
    rows = list(csv.reader(data.decode().splitlines()))[1:]
    fp["csv_sha256"] = hashlib.sha256(data).hexdigest()
    fp["nonzero"] = [[[int(x) for x in r[:-2]], int(r[-2]), int(r[-1])] for r in rows if int(r[-1])]
    return fp


# -- univ ------------------------------------------------------------------------------


def _univ_setup(depth, lam, out_dir):
    from semiflex.liealg import load_algebra

    a = load_algebra("subalgebra_a")
    a.ensure_window(-2 * depth - 4, 2 * depth + 4)
    return {"a": a, "depth": depth}


def _univ_run(st):
    from semiflex import check_universal_property, verma

    return check_universal_property(st["a"], verma(st["a"], {}, st["depth"]), st["depth"])


def _univ_fingerprint(st, verdict):
    return {
        "passed": verdict.passed,
        "dim_diffs": _jsonable(verdict.details.get("dim_diffs")),
        "equivariance": _jsonable(verdict.details.get("equivariance")),
    }


# -- oracle ----------------------------------------------------------------------------


def _oracle_setup(depth, lam, out_dir):
    from semiflex import build_affine_sl2

    g = build_affine_sl2()
    g.ensure_window(-2 * depth - 4, 2 * depth + 4)
    return {"g": g, "depth": depth, "lam": lambda_dict(lam)}


def _oracle_run(st):
    from semiflex import check_commutators, verma

    st["V"] = verma(st["g"], st["lam"], st["depth"])
    return check_commutators(st["V"], (-2, 2))


def _oracle_fingerprint(st, failures):
    from semiflex import character, product_formula_character

    char = character(st["V"])
    return {
        "commutator_failures": _jsonable(failures),
        "character_is_product_formula": char == product_formula_character(st["g"], st["depth"]),
        "character_sha256": digest(_jsonable(char.items())),
    }


class Workload:
    def __init__(self, name, depth, uses_lambda, threaded, setup, run, fingerprint):
        self.name = name
        self.depth = depth
        self.uses_lambda = uses_lambda
        self.threaded = threaded
        self.setup = setup
        self.run = run
        self.fingerprint = fingerprint


# Why each workload exists is stated in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in [
        Workload("wakcoh", 6, True, False, _wakcoh_setup, _wakcoh_run, _wakcoh_fingerprint),
        Workload("uscoh_cli", 9, False, True, _uscoh_setup, _uscoh_run, _uscoh_fingerprint),
        Workload("univ", 9, False, False, _univ_setup, _univ_run, _univ_fingerprint),
        Workload("oracle", 11, True, False, _oracle_setup, _oracle_run, _oracle_fingerprint),
    ]
}


def expected(reference: dict, name: str, key):
    """The reference fingerprint for a workload and λ key, or None."""
    entry = reference.get(name, {})
    if entry.get("depth") != WORKLOADS[name].depth:
        return None
    if WORKLOADS[name].uses_lambda:
        return entry.get("by_lambda", {}).get(key)
    return entry.get("fingerprint")
