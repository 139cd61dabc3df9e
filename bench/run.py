"""Benchmark of the nested BDDC solver: one workload per call.

    python3 bench/run.py --workload deep-r3 --seed 1 --seconds 30 --trace 0

Runs ``bench/measure.py`` in a child process with one BLAS/OpenMP thread,
the library taken from ``src/`` of this checkout, and adds the child's peak
RSS.  Prints the child's details as one JSON line, then as the last line
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Exits with 1
and prints no result if the library is missing or the child fails.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 170
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "nested_bddc" / "__init__.py").is_file():
        print(f"benchmark: no nested_bddc package under {src}", file=sys.stderr)
        return 1
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "measure.py")] + [
        f"--{k}={v}" for k, v in vars(args).items()
    ]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"benchmark: child ran longer than {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        print(f"benchmark: child exited with {proc.returncode}", file=sys.stderr)
        return 1
    out = json.loads(proc.stdout.strip().splitlines()[-1])

    metrics = out.pop("metrics")
    if not args.trace:
        peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics["peak_rss_mb"] = {"value": peak_kib / 1024.0, "unit": "MB"}
    for reason in out["failures"] + [f"traced counter is zero: {k}" for k in out["missing"]]:
        print(f"benchmark: {reason}", file=sys.stderr)
    correct = bool(metrics) and not out["failures"] and not out["missing"]
    print(json.dumps(out))
    print(json.dumps({"correct": correct, "attempted": out["attempted"], "failed": out["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
