"""Command line front end: ``bddc solve`` writes per-level iteration CSV.

Exit codes: 0 success, 2 invalid arguments, problem setup or an
unwritable output path, 3 PCG non-convergence, 4 verification failure with
``--verify``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .hierarchy import HierarchyError, WeightsError
from .mesh_fem import CoefficientError, MeshError, dump_matrix_market
from .nested_driver import (
    CSV_HEADER,
    ORACLE_DOF_LIMIT,
    DriverError,
    ExperimentSpec,
    NestedSolver,
    PcgNonConvergence,
    PRESET_NAMES,
    oracle_direct_solve,
    preset_specs,
)
from .saddle_core import SaddleError

HISTORY_HEADER = "spec,L,level,iteration,relres,precond_relres,div_defect"

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NO_CONVERGENCE = 3
EXIT_VERIFY_FAILED = 4


def _read_config(path: str) -> dict:
    """Flat key=value text; '#' starts a comment."""
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


_CONFIG_TYPES = {
    "levels": int,
    "ratio": int,
    "coeff": str,
    "k1": float,
    "k2": float,
    "k3": float,
    "gamma": float,
    "tol": float,
    "out": str,
    "preset": str,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bddc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    solve = sub.add_parser("solve", help="run one experiment or a preset list")
    solve.add_argument("--levels", type=int, default=None, help="number of levels L (default 2)")
    solve.add_argument("--ratio", type=int, default=None, help="coarsening ratio per level (default 3)")
    solve.add_argument(
        "--coeff",
        choices=("constant", "jump-left", "jump-right"),
        default=None,
        help="coefficient pattern (default constant)",
    )
    solve.add_argument("--k1", type=float, default=None)
    solve.add_argument("--k2", type=float, default=None)
    solve.add_argument("--k3", type=float, default=None)
    solve.add_argument("--gamma", type=float, choices=(0.0, 1.0), default=None,
                       help="interface weights: 0 equal halves, 1 face mass "
                            "diagonals (default 1)")
    solve.add_argument("--tol", type=float, default=None, help="PCG relative tolerance (default 1e-6)")
    solve.add_argument("--out", default=None, help="output CSV path (default results.csv)")
    solve.add_argument("--preset", choices=PRESET_NAMES, default=None)
    solve.add_argument("--verify", action="store_true",
                       help="compare against a direct solve (skipped above "
                            f"{ORACLE_DOF_LIMIT} dofs)")
    solve.add_argument("--dump-history", action="store_true",
                       help="write residual histories next to the CSV")
    solve.add_argument("--dump-matrices", metavar="PREFIX", default=None,
                       help="write the fine A and B in MatrixMarket format")
    solve.add_argument("--config", default=None, help="flat key=value config file")
    return parser


def _merge_config(args) -> None:
    if not args.config:
        return
    values = _read_config(args.config)
    for key, raw in values.items():
        if key not in _CONFIG_TYPES:
            raise ValueError(f"unknown config key {key!r}")
        if getattr(args, key, None) is None:
            setattr(args, key, _CONFIG_TYPES[key](raw))


def _specs_from_args(args) -> list[ExperimentSpec]:
    if args.preset:
        return preset_specs(
            args.preset, k1=args.k1, k2=args.k2, k3=args.k3, gamma=args.gamma, tol=args.tol
        )
    given = {
        key: getattr(args, key)
        for key in ("levels", "ratio", "coeff", "k1", "k2", "k3", "gamma", "tol")
        if getattr(args, key) is not None
    }
    return [ExperimentSpec(**{"levels": 2, "ratio": 3, **given})]


def _cannot_write(exc: OSError) -> int:
    print(f"bddc: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
    return EXIT_INVALID


def _solve_command(args) -> int:
    try:
        specs = _specs_from_args(args)
    except (DriverError, ValueError) as exc:
        print(f"bddc: {exc}", file=sys.stderr)
        return EXIT_INVALID
    if args.dump_matrices and len(specs) > 1:
        print(
            f"bddc: --dump-matrices needs a single experiment, the selection has {len(specs)}",
            file=sys.stderr,
        )
        return EXIT_INVALID

    out_path = Path(args.out or "results.csv")
    history_path = out_path.with_name(out_path.stem + "_history.csv")
    rows_text = [CSV_HEADER]
    history_text = [HISTORY_HEADER]
    exit_code = EXIT_OK

    for spec in specs:
        try:
            solver = NestedSolver(spec)
        except (
            MeshError, CoefficientError, HierarchyError, WeightsError, DriverError, SaddleError
        ) as exc:
            print(f"bddc: {spec.name()}: invalid setup: {exc}", file=sys.stderr)
            return EXIT_INVALID
        if args.dump_matrices:
            try:
                dump_matrix_market(solver.fine, args.dump_matrices)
            except OSError as exc:
                return _cannot_write(exc)
        try:
            result = solver.solve()
        except PcgNonConvergence as exc:
            print(f"bddc: {spec.name()}: {exc}", file=sys.stderr)
            exit_code = max(exit_code, EXIT_NO_CONVERGENCE)
            continue
        except SaddleError as exc:
            print(f"bddc: {spec.name()}: {exc}", file=sys.stderr)
            return EXIT_INVALID

        for row in result.rows:
            rows_text.append(row.csv())
            if row.level == 1:
                print(
                    f"bddc: note: {spec.name()}: n counts assembled dofs; adding the "
                    f"{4 * spec.nx} fixed boundary fluxes reproduces the alternative "
                    "finest-level accounting",
                    file=sys.stderr,
                )
        if args.dump_history:
            for row, report in zip(result.rows, result.reports):
                for it, rel, pre, dfct in report.history_rows():
                    history_text.append(
                        f"{spec.name()},{row.L},{row.level},{it},{rel:.6e},{pre:.6e},{dfct:.6e}"
                    )

        if args.verify:
            if solver.fine.n_dofs > ORACLE_DOF_LIMIT:
                print(
                    f"bddc: {spec.name()}: skipping --verify above {ORACLE_DOF_LIMIT} dofs",
                    file=sys.stderr,
                )
            else:
                u_ref, _ = oracle_direct_solve(solver.fine)
                diff = result.flux - u_ref
                err = np.sqrt(diff @ (solver.fine.A @ diff))
                ref = np.sqrt(u_ref @ (solver.fine.A @ u_ref))
                if err > 1e-5 * ref:
                    print(
                        f"bddc: {spec.name()}: verification failed: "
                        f"relative energy error {err / ref:.3e}",
                        file=sys.stderr,
                    )
                    return EXIT_VERIFY_FAILED

    try:
        out_path.write_text("\n".join(rows_text) + "\n")
        print(f"bddc: wrote {out_path}")
        if args.dump_history:
            history_path.write_text("\n".join(history_text) + "\n")
            print(f"bddc: wrote {history_path}")
    except OSError as exc:
        return _cannot_write(exc)
    return exit_code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _merge_config(args)
    except (OSError, ValueError) as exc:
        print(f"bddc: {exc}", file=sys.stderr)
        return EXIT_INVALID
    if args.command == "solve":
        return _solve_command(args)
    parser.error(f"unknown command {args.command!r}")
    return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
