"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/baseline.py [--workloads wakcoh,oracle] [--seeds 10]
        [--first-seed 1] [--seconds 25] [--sets 1] [--out FILE]

For every workload, ``run.py`` runs once per seed (untraced).  For every
end-to-end metric, and for the plain wall times ``job_wall_s`` and
``setup_wall_s`` that job_s and setup_s are rescaled from, this prints the
median and quartiles of the per-run values (each a median over the run's
jobs), as statistics.quantiles(n=4) gives them, and the spread: the
distance between the quartiles as a share of the median.  With ``--sets 2``
the whole set is repeated and the drift of the second median from the first
is printed too.  ``--out`` writes every run's values and the summary as
JSON (perfbench/baseline.json holds the seed-code baseline).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run

WALL = ["job_wall_s", "setup_wall_s"]  # plain wall times, recorded beside the rescaled ones


def one_run(name: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{name} seed {seed}: failed jobs\n{proc.stdout}")
    jobs = [json.loads(line[4:]) for line in lines if line.startswith("job ")]
    walls = {m: statistics.median(j[m] for j in jobs) for m in WALL}
    return {"seed": seed, "attempted": result["attempted"], **{k: v["value"] for k, v in result["metrics"].items()}, **walls}


def summary(runs: list) -> dict:
    out = {}
    for metric in [*(m for m, _u, _b in run.END_TO_END), *WALL]:
        q1, med, q3 = run.quartiles([r[metric] for r in runs])
        out[metric] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "runs": len(runs)}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(run.WORKLOADS))
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)

    report: dict = {"seconds": args.seconds, "workloads": {}}
    for name in args.workloads.split(","):
        sets = []
        for _ in range(args.sets):
            runs = []
            for seed in range(args.first_seed, args.first_seed + args.seeds):
                runs.append(one_run(name, seed, args.seconds))
                print(f"{name} seed {seed}: " + ", ".join(f"{k} {v:.4f}" for k, v in runs[-1].items() if k != "seed" and k != "attempted"), flush=True)
            sets.append({"runs": runs, "summary": summary(runs)})
        report["workloads"][name] = sets
        for i, s in enumerate(sets):
            for metric, st in s["summary"].items():
                drift = ""
                if i:
                    drift = f"  drift from set 1: {st['median'] / sets[0]['summary'][metric]['median'] - 1:+.3f}"
                print(
                    f"{name} set {i + 1}: {metric} median {st['median']:.4f} q1 {st['q1']:.4f} q3 {st['q3']:.4f} "
                    f"spread {st['spread']:.3f} ({st['runs']} runs){drift}",
                    flush=True,
                )
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
