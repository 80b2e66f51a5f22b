"""Regenerate reference.json and golden/uscoh_cli.csv from the current code.

    python3 perfbench/make_reference.py

Run this only on a commit whose answers are trusted (the references in the
repository were taken before any optimisation): every later run of the
benchmark is judged against what it writes.  Each affine workload is run
once for every λ in the pool, the others once.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
from workloads import LAMBDA_POOL, WORKLOADS, lambda_key


def fingerprint(workdir, name, hk) -> dict:
    rec = run.run_job(workdir, name, 0, hk, "plain", 600.0)
    if rec.get("error") or rec.get("returncode") != 0:
        raise SystemExit(f"{name} {rec['lambda']} failed: {rec.get('error') or rec.get('returncode')}")
    print(f"{name} {rec['lambda']}: {rec['job_wall_s']:.2f} s", flush=True)
    return rec["fingerprint"]


def main() -> int:
    reference: dict = {}
    golden = run.HERE / "golden" / "uscoh_cli.csv"
    (run.ROOT / ".perfbench").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="reference-", dir=run.ROOT / ".perfbench"))
    try:
        for name, wl in WORKLOADS.items():
            if wl.uses_lambda:
                by_lambda = {lambda_key(hk): fingerprint(workdir, name, hk) for hk in LAMBDA_POOL}
                reference[name] = {"depth": wl.depth, "by_lambda": by_lambda}
            else:
                reference[name] = {"depth": wl.depth, "fingerprint": fingerprint(workdir, name, None)}
        golden.parent.mkdir(exist_ok=True)
        cmd = [
            sys.executable, "-m", "semiflex.cli", "semiinf-cohomology", "--algebra", "a", "--module", "us",
            "--depth", str(WORKLOADS["uscoh_cli"].depth), "--out", str(golden),
        ]
        subprocess.run(cmd, env=run.child_env(), check=True, stdout=subprocess.DEVNULL)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sha = hashlib.sha256(golden.read_bytes()).hexdigest()
    if sha != reference["uscoh_cli"]["fingerprint"].get("csv_sha256"):
        raise SystemExit("the command-line CSV differs from the benchmark job's CSV")
    with open(run.HERE / "reference.json", "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
