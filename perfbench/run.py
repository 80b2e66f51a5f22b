"""semiflex benchmark: four exact-computation jobs, each in a fresh process.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

One run repeats the chosen workload's job for about ``--seconds`` seconds,
one job at a time (a closed loop with one client: the next job starts after
the previous process exits).  Every answer is checked against the
reference fingerprint in reference.json; a mismatch, an exception or a
non-zero exit counts as a failed job and is never retried.

``--trace 0`` reports the end-to-end metrics (job_s, setup_s, peak_rss_mb)
as medians over the run's jobs.  ``--trace 1`` alternates untraced and
traced jobs and reports the per-layer metrics of the traced ones, with the
tracing overhead; a traced job whose counts differ from the first traced
job's counts as failed.  Per-job records and a summary go to standard output; the
last line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--workload all`` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from probe import rescale  # noqa: E402
from workloads import WORKLOADS, expected, lambda_draws, lambda_key  # noqa: E402

TOTAL_LIMIT_S = 170.0  # a run must end within 180 s, builds excluded

END_TO_END = [
    ("job_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

# (name, unit, better).  The arrow from each layer to the end-to-end metric
# it should move is documented in README.md.
PER_LAYER = [
    ("liealg.ensure_window.s", "s", "lower"),
    ("liealg.basis_elements", "count", "lower"),
    ("pbw.normal_order_word.calls", "count", "lower"),
    ("pbw.normal_order_word.s", "s", "lower"),
    ("pbw.memo_entries", "count", "lower"),
    ("pbw.memo_top_hit_ratio", "ratio", "higher"),
    ("pbw.enumerate_pbw_weights.s", "s", "lower"),
    ("modules.action.calls", "count", "lower"),
    ("modules.action.s", "s", "lower"),
    ("modules.action.nnz", "count", "lower"),
    ("modules.verma.s", "s", "lower"),
    ("modules.check_commutators.s", "s", "lower"),
    ("forms.enumerate_forms.calls", "count", "lower"),
    ("forms.enumerate_forms.s", "s", "lower"),
    ("forms.enumerate_forms.monomials", "count", "lower"),
    ("forms.basis.nonempty_ratio", "ratio", "higher"),
    ("forms.matrix.calls", "count", "lower"),
    ("forms.matrix.s", "s", "lower"),
    ("forms.matrix.nnz", "count", "lower"),
    ("forms.semiinf_cohomology.s", "s", "lower"),
    ("forms.weight_cell_s.p50", "s", "lower"),
    ("forms.weight_cell_s.p90", "s", "lower"),
    ("linalg.solve_in_span.calls", "count", "lower"),
    ("linalg.solve_in_span.s", "s", "lower"),
    ("linalg.solve_in_span.cells", "count", "lower"),
    ("linalg.rank.calls", "count", "lower"),
    ("linalg.rank.s", "s", "lower"),
    ("linalg.rank.repeat_ratio", "ratio", "lower"),
    ("linalg.nullspace.s", "s", "lower"),
    ("linalg.pivot_columns.s", "s", "lower"),
    ("linalg.matmul.calls", "count", "lower"),
    ("linalg.matmul.s", "s", "lower"),
    ("kernels.row_echelon_int.calls", "count", "lower"),
    ("kernels.row_echelon_int.s", "s", "lower"),
    ("kernels.row_echelon_int.cells", "count", "lower"),
    ("induction.wakimoto.s", "s", "lower"),
    ("induction.universal_semijective.s", "s", "lower"),
    ("induction.check_universal_property.s", "s", "lower"),
    ("induction.left_matrix.calls", "count", "lower"),
    ("induction.left_matrix.s", "s", "lower"),
    ("induction.right_matrix.calls", "count", "lower"),
    ("induction.right_matrix.s", "s", "lower"),
    ("cli.run_job.s", "s", "lower"),
    ("output.write_csv.s", "s", "lower"),
    ("cli.cores_used", "cores", "higher"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
]


# -- statistics ----------------------------------------------------------------------


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    vals = sorted(values)
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def tail_percentile(values, q: int, beyond: int = 10):
    """The q-th percentile, or the highest whole percentile below it that
    leaves at least ``beyond`` samples above it (0.0 with no samples)."""
    vals = sorted(values)
    if not vals:
        return 0.0
    for p in range(q, 49, -1):
        k = max(0, -(-p * len(vals) // 100) - 1)  # nearest-rank index
        if len(vals) - 1 - k >= beyond:
            return vals[k]
    return statistics.median(vals)


# -- one job -------------------------------------------------------------------------


def child_env() -> dict:
    """The user's environment minus the settings that would warm or switch
    the program: no persisted memo, no forced kernel choice."""
    env = dict(os.environ)
    env.pop("SEMIFLEX_CACHE_DIR", None)
    env.pop("SEMIFLEX_FORCE_PY", None)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + old if old else "")
    return env


def run_job(workdir: Path, name: str, seed: int, hk, mode: str, timeout: float) -> dict:
    """Start job.py for one job (``mode`` plain, pair or traced), wait for
    it, and return its record."""
    key = lambda_key(hk) if hk is not None else None
    out_dir = Path(tempfile.mkdtemp(dir=workdir))
    result = out_dir / "result.json"
    cmd = [
        sys.executable, str(HERE / "job.py"), "--workload", name, "--seed", str(seed),
        "--out-dir", str(out_dir), "--result", str(result), "--mode", mode,
    ]
    if key:
        cmd.append(f"--lambda={key}")
    trace = mode == "traced"
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        _, err = proc.communicate()
        return {"workload": name, "seed": seed, "lambda": key, "trace": trace, "error": f"timed out after {timeout:.0f} s"}
    wall = time.monotonic() - spawned
    try:
        with open(result) as fh:
            rec = json.load(fh)
    except (OSError, ValueError):
        rec = {"workload": name, "seed": seed, "trace": trace, "error": (err or "no result written")[-2000:]}
    rec["lambda"] = key
    shutil.rmtree(out_dir, ignore_errors=True)
    rec["returncode"] = proc.returncode
    rec["wall_s"] = wall
    if "job_wall_s" in rec:
        rec["setup_wall_s"] = rec["setup_done_at"] - spawned
        samples = rec.pop("speed_samples_s")
        rec["speed_samples"] = len(samples)
        rec["job_s"], rec["setup_s"], rec["speed_corrected"] = rescale(
            rec["job_wall_s"], rec["setup_wall_s"], samples, rec["cpu_s"]
        )
    return rec


def judge(rec: dict, reference: dict):
    """(ok, reason): the job ran, exited 0 and its answer is the reference."""
    if rec.get("error"):
        return False, (rec["error"].strip().splitlines() or ["error"])[-1]
    if rec.get("returncode") != 0:
        return False, f"exit code {rec.get('returncode')}"
    want = expected(reference, rec["workload"], rec.get("lambda"))
    if want is None:
        return False, "no reference fingerprint for this workload, depth and lambda"
    got = rec.get("fingerprint")
    if got != want:
        keys = sorted(k for k in set(want) | set(got or {}) if (got or {}).get(k) != want.get(k))
        return False, f"fingerprint differs from reference in {keys}"
    return True, ""


# -- one run ------------------------------------------------------------------------


def run_workload(workdir, name, seed, seconds, trace, reference, started, log=print):
    """Jobs for about ``seconds`` s; untraced, or untraced/traced pairs."""
    kinds = ["pair", "traced"] if trace else ["plain"]
    draws = lambda_draws(seed)
    hk = None
    records = []
    begin = time.monotonic()
    while True:
        unit_start = time.monotonic()
        if WORKLOADS[name].uses_lambda and not (trace and records):
            hk = next(draws)  # a traced run keeps its first λ so counts repeat
        for kind in kinds:
            remaining = TOTAL_LIMIT_S - (time.monotonic() - started)
            rec = run_job(workdir, name, seed, hk, kind, max(remaining, 1.0))
            rec["ok"], rec["reason"] = judge(rec, reference)
            records.append(rec)
            log("job " + json.dumps({k: rec.get(k) for k in RECORD_KEYS}))
            if not rec["ok"] and "timed out" in rec["reason"]:
                return records
        now = time.monotonic()
        if now - begin + (now - unit_start) > seconds:
            return records


RECORD_KEYS = [
    "workload", "seed", "lambda", "depth", "trace", "backend", "python", "nproc", "switch_interval_s",
    "setup_s", "job_s", "peak_rss_mb", "setup_wall_s", "job_wall_s", "cpu_s", "speed_samples", "speed_corrected",
    "ok", "reason",
]


def e2e_metrics(records) -> dict:
    """{metric: (q1, median, q3, n)} over untraced jobs that produced timings."""
    plain = [r for r in records if not r.get("trace") and "job_s" in r]
    out = {}
    for name in [*(m for m, _u, _b in END_TO_END), "job_wall_s", "setup_wall_s"]:
        vals = [r[name] for r in plain]
        if vals:
            out[name] = (*quartiles(vals), len(vals))
    return out


EXACT_UNITS = ("count", "ratio")  # per-layer metrics that must repeat exactly


def check_counts(records) -> None:
    """Mark as failed every traced job whose counts or count ratios differ
    from those of the run's first traced job."""
    traced = [r for r in records if r.get("trace") and "metrics" in r]
    for r in traced[1:]:
        differ = [
            name for name, unit, _ in PER_LAYER
            if unit in EXACT_UNITS and r["metrics"].get(name, 0) != traced[0]["metrics"].get(name, 0)
        ]
        if differ and r["ok"]:
            r["ok"], r["reason"] = False, f"counts differ from the first traced job in {differ}"


def layer_metrics(records, log=print) -> dict:
    """Per-layer metrics: medians over the traced jobs."""
    traced = [r for r in records if r.get("trace") and "metrics" in r]
    plain = [r for r in records if not r.get("trace") and "job_s" in r]
    if not traced or not plain:
        return {}
    out = {}
    for name, unit, _ in PER_LAYER:
        vals = [r["metrics"].get(name, 0) for r in traced]
        out[name] = vals[0] if unit in EXACT_UNITS else statistics.median(vals)  # check_counts compares them
    cells = [statistics.median(r["weight_cells"]) if r["weight_cells"] else 0.0 for r in traced]
    tails = [tail_percentile(r["weight_cells"], 90) for r in traced]
    out["forms.weight_cell_s.p50"] = statistics.median(cells)
    out["forms.weight_cell_s.p90"] = statistics.median(tails)
    out["cli.cores_used"] = statistics.median(r["cpu_s"] / r["job_wall_s"] for r in plain)
    out["trace.overhead_s"] = statistics.median(r["job_s"] for r in traced) - statistics.median(r["job_s"] for r in plain)
    missing = sorted({t for r in traced for t in r.get("missing_targets", [])})
    if missing:
        log(f"warning: trace targets not found: {missing}")
    return out


def summarize(name, records, log=print) -> None:
    failed = sum(not r["ok"] for r in records)
    log(f"{name}: failed_frac {failed}/{len(records)} = {failed / len(records):.3f} (jobs attempted: {len(records)})")
    units = {n: u for n, u, _ in END_TO_END}
    units.update(job_wall_s="s", setup_wall_s="s")
    for metric, (q1, med, q3, n) in e2e_metrics(records).items():
        log(f"{name}: {metric} median {med:.4f} {units[metric]}  (q1 {q1:.4f}, q3 {q3:.4f}, n={n} untraced jobs)")
    for r in records:
        if not r["ok"]:
            log(f"{name}: FAILED seed {r['seed']} trace={r.get('trace')}: {r['reason']}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = p.parse_args(argv)
    started = time.monotonic()

    if not (ROOT / "src" / "semiflex" / "__init__.py").is_file():
        print(f"error: no semiflex sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(HERE / "reference.json") as fh:
        reference = json.load(fh)
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".perfbench"))
    try:
        warm = subprocess.run(
            [sys.executable, "-c", "import semiflex, semiflex.cli"],
            env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=60,
        )
        if warm.returncode != 0:
            print(f"error: cannot import semiflex:\n{warm.stderr}", file=sys.stderr)
            return 2
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        runs = {}
        for name in names:
            runs[name] = run_workload(workdir, name, args.seed, args.seconds, bool(args.trace), reference, started)
            started = time.monotonic()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {}
    attempted = failed = 0
    for name, records in runs.items():
        check_counts(records)
        summarize(name, records)
        attempted += len(records)
        failed += sum(not r["ok"] for r in records)
        prefix = "" if len(runs) == 1 else f"{name}."
        if args.trace:
            units = {n: u for n, u, _ in PER_LAYER}
            for metric, value in layer_metrics(records).items():
                metrics[prefix + metric] = {"value": value, "unit": units[metric]}
        else:
            stats = e2e_metrics(records)
            for metric, unit, _better in END_TO_END:
                if metric in stats:
                    metrics[prefix + metric] = {"value": stats[metric][1], "unit": unit}
    if not metrics:
        print("error: no job produced a measurement", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
