"""One benchmark run of one workload, as a child process of ``bench/run.py``.

The run builds the workload's solver (``NestedSolver(spec)``, the set-up) and
solves it once, again and again until ``--seconds`` have passed, after one
untimed warm-up cycle.  Every cycle passes the correctness gate or is counted
as failed and its timings are dropped.  With ``--trace 1`` every other cycle
runs with the span tracer installed, so traced and untraced cycles see the
same host speed and their difference is the tracing overhead.

The host's speed drifts by 20-30 % over minutes, with wall time equal to CPU
time, so the reported ``setup_s`` and ``solve_s`` are scaled to a reference
host speed: a fixed calibration kernel runs before the set-up, between set-up
and solve, and after the solve, and each timed phase is multiplied by
``CAL_REF_S`` over the mean of the two kernel times around it.  The metrics
are the medians of the scaled times; the raw wall times are reported beside
them.

Prints one JSON object: the end-to-end or per-layer metrics, sample
summaries, the seed and drawn contrasts, failures and the environment.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import sys
import time
import traceback

import numpy as np
import scipy
import scipy.linalg
import scipy.sparse

from nested_bddc import ExperimentSpec, NestedSolver
from tracing import LEVELS, Tracer, layer_metrics

# Gate limits.  B u = g holds to round-off (at most 7.5e-16 measured on the
# three workloads); the momentum residual may exceed the PCG tolerance by at
# most one order; the windows are acceptance criteria 1 (L = 5) and 4.
DIV_RTOL = 1e-13
RESIDUAL_ORDER = 10.0
DEEP_ITERS = (13, 15)
DEEP_COND = (5.2, 6.8)
JUMP_EXTRA_ITERS = 3
MIN_CYCLES = 3
# Calibration kernel time that defines the reference host speed (its median
# on the 2-core Xeon host the bounds were measured on).
CAL_REF_S = 0.07
OUT_DIR = os.path.join("bench", "out")

DEEP = ExperimentSpec(levels=5, ratio=3)


def _jump(rng) -> ExperimentSpec:
    k1 = float(10.0 ** rng.uniform(0.0, 2.0))
    k3 = float(10.0 ** rng.uniform(-2.0, 0.0))
    return ExperimentSpec(levels=5, ratio=3, coeff="jump-right", k1=k1, k2=1.0, k3=k3, gamma=1.0)


# name -> (spec for the next cycle from the seeded generator, counters that
# a traced run requires to be nonzero besides the common ones)
WORKLOADS = {
    "deep-r3": (lambda rng: DEEP, ("saddle_core.solve_dense_calls", "saddle_core.factor_dense_count")),
    "wide-r16": (
        lambda rng: ExperimentSpec(levels=2, ratio=16),
        ("saddle_core.solve_sparse_calls", "saddle_core.factor_sparse_count"),
    ),
    "jump-r3": (_jump, ("saddle_core.solve_dense_calls", "saddle_core.factor_dense_count")),
}
COMMON_NONZERO = (
    "mesh_fem.assemble_rt0_s",
    "hierarchy.build_hierarchy_s",
    "hierarchy.compute_weights_s",
    "bddc.build_level_bddc_s",
    "bddc.assemble_coarse_problem_s",
    "bddc.factorizations",
    "bddc.subdomains",
    "bddc.interior_correction_calls",
    "nested_driver.step1_s",
    "nested_driver.step2_s",
    "nested_driver.step3_s",
)


def environment() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass

    def blas(module):
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError):
            return None

    return {
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas(np),
        "openblas_scipy": blas(scipy),
    }


def calibration_kernel():
    """Timer of fixed numpy/scipy work that tracks the host's current speed.

    It mixes the solver's kinds of work (small dense LU solves, a sparse
    matrix-vector product, a gather/scatter-add and an interpreted loop) but
    calls nothing of the library, so changes to the library leave it alone.
    """
    rng = np.random.default_rng(0)
    lu = scipy.linalg.lu_factor(rng.standard_normal((30, 30)))
    rhs = rng.standard_normal((30, 128))
    n = 200_000
    band = scipy.sparse.diags([np.ones(n)] * 5, [-400, -1, 0, 1, 400], shape=(n, n), format="csr")
    x = np.ones(n)
    idx = rng.integers(0, n, size=(2000, 30))

    def timed() -> float:
        t0 = time.perf_counter()
        for _ in range(150):
            scipy.linalg.lu_solve(lu, rhs, check_finite=False)
        for _ in range(20):
            band @ x
        y = np.zeros(n)
        for _ in range(20):
            np.add.at(y, idx, x[idx])
        acc = 0
        for i in range(100_000):
            acc += i * i
        return time.perf_counter() - t0

    return timed


def run_cycle(spec: ExperimentSpec, calibrate) -> dict:
    """Set up and solve once between calibrations; measure the solution."""
    c0 = calibrate()
    t0 = time.perf_counter()
    solver = NestedSolver(spec)
    t1 = time.perf_counter()
    c1 = calibrate()
    t2 = time.perf_counter()
    result = solver.solve()
    t3 = time.perf_counter()
    c2 = calibrate()
    fine = solver.fine
    au = fine.A @ result.flux
    return {
        "wall_setup_s": t1 - t0,
        "wall_solve_s": t3 - t2,
        "setup_s": (t1 - t0) * 2 * CAL_REF_S / (c0 + c1),
        "solve_s": (t3 - t2) * 2 * CAL_REF_S / (c1 + c2),
        "cal": (c0, c1, c2),
        "residual_rel": float(np.linalg.norm(au + fine.B.T @ result.pressure) / np.linalg.norm(au)),
        "div_rel": float(np.linalg.norm(fine.B @ result.flux - fine.g) / np.linalg.norm(fine.g)),
        "iters": [row.iter for row in result.rows],  # level 1 (finest) first
        "cond": [row.cond for row in result.rows],
    }


def gate(workload: str, spec: ExperimentSpec, s: dict, deep_iters) -> str | None:
    """Reason the cycle fails the correctness gate, or None."""
    if not s["div_rel"] <= DIV_RTOL:
        return f"|Bu - g|/|g| = {s['div_rel']:.2e} > {DIV_RTOL:g}"
    if not s["residual_rel"] <= RESIDUAL_ORDER * spec.tol:
        return f"residual_rel {s['residual_rel']:.2e} > {RESIDUAL_ORDER:g} x tol {spec.tol:g}"
    if workload == "deep-r3":
        it, cond = s["iters"][0], s["cond"][0]
        if not (DEEP_ITERS[0] <= it <= DEEP_ITERS[1] and DEEP_COND[0] <= cond <= DEEP_COND[1]):
            return f"finest iter/cond {it}/{cond:.2f} outside {DEEP_ITERS}/{DEEP_COND}"
    if workload == "jump-r3":
        for level, (it, base) in enumerate(zip(s["iters"], deep_iters), start=1):
            if it > base + JUMP_EXTRA_ITERS:
                return f"level {level}: {it} iterations against deep-r3's {base} + {JUMP_EXTRA_ITERS}"
    return None


def summary(values: list) -> dict:
    """Median plus the highest percentile with at least ten samples above it."""
    n = len(values)
    out = {"n": n, "median": statistics.median(values) if n else None}
    pct = (100 * (n - 10)) // n if n else 0
    if pct > 50:
        out[f"p{pct}"] = statistics.quantiles(values, n=100)[pct - 1]
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    next_spec, required = WORKLOADS[workload]
    rng = np.random.default_rng(seed)
    tracer = Tracer()
    calibrate = calibration_kernel()
    failures = []
    attempted = 0

    def attempt(spec, name, traced=False):
        """One gated cycle; None if it raised or failed the gate."""
        nonlocal attempted
        attempted += 1
        try:
            if traced:
                with tracer.patched():
                    s = run_cycle(spec, calibrate)
                spans = tracer.take()
                s["layer"] = layer_metrics(spans)
                if not any(c["traced"] for c in cycles):
                    s["spans"] = spans
            else:
                s = run_cycle(spec, calibrate)
        except Exception:
            tracer.take()
            failures.append(traceback.format_exc(limit=4))
            return None
        reason = gate(name, spec, s, deep_iters)
        if reason:
            failures.append(f"{name} k1={spec.k1:g} k3={spec.k3:g}: {reason}")
            return None
        s.update(traced=traced, k1=spec.k1, k3=spec.k3)
        return s

    cycles = []
    deep_iters = None
    if workload == "jump-r3":
        # Criterion 4 compares each level with the constant-coefficient run.
        base = attempt(DEEP, "deep-r3")
        deep_iters = base["iters"] if base else [0] * (DEEP.levels - 1)
    attempt(next_spec(rng), workload)  # untimed warm-up

    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or (len(cycles) < MIN_CYCLES + trace and not failures):
        s = attempt(next_spec(rng), workload, traced=trace and len(cycles) % 2 == 1)
        if s:
            cycles.append(s)

    plain = [s for s in cycles if not s["traced"]]
    out = {
        "workload": workload,
        "seed": seed,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "draws": [(s["k1"], s["k3"]) for s in cycles] if workload == "jump-r3" else None,
        "timings": {
            k: summary([s[k] for s in plain])
            for k in ("setup_s", "solve_s", "wall_setup_s", "wall_solve_s")
        },
        "calibration": {**summary([c for s in plain for c in s["cal"]]), "reference_s": CAL_REF_S},
        "residual_rel": summary([s["residual_rel"] for s in plain]),
        "env": environment(),
        "metrics": {},
        "missing": [],
    }
    if not trace and plain:
        out["metrics"] = {
            "setup_s": (out["timings"]["setup_s"]["median"], "s"),
            "solve_s": (out["timings"]["solve_s"]["median"], "s"),
            "pcg_iters": (statistics.median(s["iters"][0] for s in plain), "count"),
            "cond_est": (statistics.median(s["cond"][0] for s in plain), "1"),
            # -log10 of the residual: its value varies 4e-7..1e-6 with the drawn
            # contrasts, a spread a bound of at most 25 % cannot hold.
            "residual_digits": (-math.log10(out["residual_rel"]["median"]), "digits"),
            "passed_frac": ((attempted - len(failures)) / attempted, "ratio"),
        }
    elif trace and len(cycles) > len(plain):
        m = out["metrics"] = per_layer(cycles)
        levels = len(cycles[0]["iters"])
        expected = COMMON_NONZERO + required + tuple(
            f"{kind}.L{k}{suffix}"
            for k in LEVELS[:levels]
            for kind, suffix in (("bddc.apply", "_calls"), ("krylov.iters", ""), ("krylov.pcg", "_s"))
        )
        out["missing"] = [k for k in expected if not m[k][0]]
        first = next(s for s in cycles if s["traced"])
        out["spans_file"] = write_spans(first.pop("spans"), f"{workload}-seed{seed}")
    return out


def per_layer(cycles: list) -> dict:
    """Counts from the first traced cycle, times as medians over traced cycles.

    The tracing overhead is the median difference of the scaled times between
    each traced cycle and the untraced cycle run just before it.
    """
    layers = [s["layer"] for s in cycles if s["traced"]]
    m = {}
    for key, value in layers[0].items():
        if key.endswith("_s"):
            m[key] = (statistics.median(layer[key] for layer in layers), "s")
        elif key.endswith("_flops_computed"):
            m[key] = (value, "flop")
        else:
            m[key] = (value, "ratio" if key.endswith("_per_factorization") else "count")
    pairs = [(a, b) for a, b in zip(cycles, cycles[1:]) if b["traced"] and not a["traced"]]
    for phase in ("setup_s", "solve_s"):
        m[f"trace.overhead_{phase}"] = (statistics.median(b[phase] - a[phase] for a, b in pairs), "s")
    return m


def write_spans(spans: list, tag: str) -> str:
    """Write one traced cycle's spans, times relative to its first span."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{tag}.json")
    t_start = spans[0][2]
    rows = [
        {"id": i, "name": name, "parent": parent, "t0": t0 - t_start, "t1": t1 - t_start, "note": note}
        for i, (name, parent, t0, t1, note) in enumerate(spans)
    ]
    with open(path, "w") as fh:
        json.dump(rows, fh)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    out["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
