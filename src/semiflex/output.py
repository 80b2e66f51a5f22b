"""CSV / JSON-lines emitters for characters, cohomology tables and modules.

Row order is deterministic (sorted by weight coordinates, then degree) so
identical jobs produce byte-identical files.
"""

from __future__ import annotations

import csv
import json

from .forms import monomial_str


def character_rows(alg, char):
    rows = []
    for w, c in sorted(char.coefficients.items()):
        rows.append(list(w) + [alg.ell(w), c])
    return rows


def table_rows(table):
    rows = []
    for (w, n) in sorted(table.cells):
        rows.append(list(w) + [n, table.cells[(w, n)]])
    return rows


def write_csv(path, rows, rank: int):
    header = [f"weight_{i+1}" for i in range(rank)] + ["degree", "dimension"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def write_jsonl(path, rows, rank: int):
    with open(path, "w") as fh:
        for row in rows:
            fh.write(
                json.dumps({"weight": row[:rank], "degree": row[rank], "dimension": row[rank + 1]})
                + "\n"
            )


def dump_module_jsonl(path, module, gen_window):
    """Per-weight basis labels and sparse action matrices (JSON-lines).

    A generator whose target weight lies below the module's depth is
    skipped; every error of an action that is read propagates."""
    alg = module.alg
    lo, hi = gen_window
    gens = alg.elements_in_degrees(lo, hi)
    with open(path, "w") as fh:
        for w in sorted(module.weights):
            actions = {}
            for z in gens:
                if alg.ell(w) + alg.degree(z) < -module.depth:
                    continue
                mat = module.action(z, w)
                entries = [
                    [r, c, f"{v.numerator}/{v.denominator}"]
                    for r, row in enumerate(mat.rows)
                    for c, v in sorted(row.items())
                ]
                if entries:
                    actions[alg.label(z)] = entries
            fh.write(
                json.dumps(
                    {
                        "weight": list(w),
                        "dim": module.dim(w),
                        "basis": module.weights[w],
                        "actions": actions,
                    }
                )
                + "\n"
            )


def dump_forms_jsonl(path, alg, bases):
    """Basis dump for cohomology tables: monomial labels per cell, read from
    ``bases`` as ``forms.semiinf_cohomology`` fills it, {w: {n: basis}}."""
    with open(path, "w") as fh:
        for w in sorted(bases):
            for n in sorted(bases[w]):
                basis = [
                    {"monomial": monomial_str(alg, mono), "weight": list(mu), "module_index": b}
                    for (mono, mu, b) in bases[w][n]
                ]
                fh.write(json.dumps({"weight": list(w), "ghost": n, "basis": basis}) + "\n")
