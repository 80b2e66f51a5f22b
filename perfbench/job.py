"""Run one benchmark job in a fresh process and write its result record.

    python3 perfbench/job.py --workload NAME --seed N [--lambda h=H,K=K] \
        --out-dir DIR --result FILE [--mode plain|pair|traced]

run.py starts this script with PYTHONPATH pointing at the checkout's src/
and takes the time just before starting it; set-up ends here once semiflex
is imported and the algebra is built to the job's window.  The record holds
the set-up end on the monotonic clock, the job's wall and CPU time, the
machine-speed samples taken during the job (probe.py), peak resident
memory, the answer's fingerprint and, when traced, the per-layer metrics.

``--mode traced`` wraps semiflex's entry points (spans.py) and writes the
job's spans to .perfbench/spans/WORKLOAD-seedN.jsonl under the checkout.
``pair`` is the untraced half of a traced run's untraced/traced pair.  In
both, a threaded workload runs with the interpreter's switch interval
raised, so its pool threads run one weight each to completion and never
race on the package's unlocked caches: otherwise the counts vary between
runs (see README.md).  Exit code: 0 when the job ran (its answer is judged
by run.py), 1 when it raised, 3 when semiflex is not the checkout's own.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent

SERIAL_SWITCH_S = 1000.0  # switch interval of a threaded job in a traced run


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--lambda", dest="lam", default=None, help="h=H,K=K for the affine workloads")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--mode", default="plain", choices=["plain", "pair", "traced"])
    args = p.parse_args(argv)

    import semiflex

    src = HERE.parent / "src"
    if Path(semiflex.__file__).resolve().parent.parent != src.resolve():
        print(f"semiflex imported from {semiflex.__file__}, not from {src}", file=sys.stderr)
        return 3

    from probe import SpeedSampler
    from workloads import WORKLOADS, nproc, parse_lambda_key

    wl = WORKLOADS[args.workload]
    traced = args.mode == "traced"
    switch = sys.getswitchinterval()
    job_switch = SERIAL_SWITCH_S if wl.threaded and args.mode != "plain" else switch
    hk = parse_lambda_key(args.lam) if args.lam else None
    record = {
        "workload": wl.name,
        "depth": wl.depth,
        "seed": args.seed,
        "lambda": args.lam,
        "backend": getattr(getattr(semiflex, "_kernels", None), "BACKEND", "unknown"),
        "python": platform.python_version(),
        "nproc": nproc(),
        "trace": traced,
        "switch_interval_s": job_switch,
        "error": None,
    }
    tracer = None
    if traced:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    status = 0
    try:
        state = wl.setup(wl.depth, hk, args.out_dir)
        record["setup_done_at"] = time.monotonic()
        sys.setswitchinterval(job_switch)
        cpu0 = cpu_seconds()
        with SpeedSampler() as sampler:
            t0 = time.perf_counter()
            try:
                answer = wl.run(state)
            finally:
                t1 = time.perf_counter()
                sys.setswitchinterval(switch)
        record["job_wall_s"] = t1 - t0
        record["cpu_s"] = cpu_seconds() - cpu0
        record["peak_rss_mb"] = peak_rss_mb()
        record["speed_samples_s"] = sampler.samples
        if tracer is not None:
            tracer.active = False
            record.update(tracer.report(t0, t1))
            record["missing_targets"] = tracer.missing
            spans_dir = HERE.parent / ".perfbench" / "spans"
            spans_dir.mkdir(parents=True, exist_ok=True)
            tracer.dump(spans_dir / f"{wl.name}-seed{args.seed}.jsonl")
        record["fingerprint"] = wl.fingerprint(state, answer)
    except Exception:  # the job's failure is the result being reported
        record["error"] = traceback.format_exc()
        status = 1
    finally:
        if tracer is not None:
            tracer.uninstall()
    with open(args.result, "w") as fh:
        json.dump(record, fh)
    return status


if __name__ == "__main__":
    sys.exit(main())
