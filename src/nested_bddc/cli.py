"""Command line front end: ``bddc solve`` writes per-level iteration CSV.

Config files (``--config``) become ``--key=value`` arguments ahead of the
command line, so the parser checks their values like flags and a flag given
on the command line wins.  With ``--preset`` only ``--k1/--k2/--k3``,
``--gamma`` and ``--tol`` may be given; the preset fixes levels, ratio and
coefficient pattern.

Exit codes: 0 success, 2 invalid arguments or config values (``--preset``
together with ``--levels``, ``--ratio`` or ``--coeff`` included), problem
setup or an unwritable output path, 3 PCG did not converge, broke down or
failed its divergence monitor, 4 ``--verify`` failed (an energy error above
tolerance, or a direct solve that rejects the system), with no CSV written.
Each phase (the experiment list, set-up, solve, ``--verify``) catches the
library's error root ``NestedBddcError`` once: a ``--verify`` direct solve
that raises exits 4, any other library error takes its code from
``_EXIT_CODES``, and a code-3 error moves on to the next experiment.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .errors import NestedBddcError
from .krylov import PcgError
from .mesh_fem import dump_matrix_market
from .nested_driver import (
    COEFF_PATTERNS,
    CSV_HEADER,
    ORACLE_DOF_LIMIT,
    ExperimentSpec,
    NestedSolver,
    PcgNonConvergence,
    PRESET_NAMES,
    oracle_direct_solve,
    preset_specs,
)

HISTORY_HEADER = "spec,L,level,iteration,relres,precond_relres,div_defect"

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NO_CONVERGENCE = 3
EXIT_VERIFY_FAILED = 4

# The exit code of a library error outside --verify: the first class that
# it is an instance of.
_EXIT_CODES = (
    (PcgError, EXIT_NO_CONVERGENCE),
    (PcgNonConvergence, EXIT_NO_CONVERGENCE),
    (NestedBddcError, EXIT_INVALID),
)

# ExperimentSpec fields that a flag or a config line may set
_RUN_FIELDS = ("levels", "ratio", "coeff", "k1", "k2", "k3", "gamma", "tol")
_CONFIG_KEYS = (*_RUN_FIELDS, "out", "preset")


def _config_args(path: str) -> list[str]:
    """Flat key=value text as ``--key=value`` arguments; '#' starts a comment."""
    args = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        args.append(f"--{key}={value}")
    return args


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bddc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    solve = sub.add_parser("solve", help="run one experiment or a preset list")
    solve.add_argument("--levels", type=int, default=None, help="number of levels L (default 2)")
    solve.add_argument("--ratio", type=int, default=None, help="coarsening ratio per level (default 3)")
    solve.add_argument(
        "--coeff",
        choices=COEFF_PATTERNS,
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
                       help="write the fine A and B in MatrixMarket format; on table1-ratio32 "
                            "this adds about 2.7 s, 170 MB of peak RSS and 340 MB of files")
    solve.add_argument("--config", default=None, help="flat key=value config file")
    return parser


def _specs_from_args(args) -> list[ExperimentSpec]:
    given = {key: getattr(args, key) for key in _RUN_FIELDS if getattr(args, key) is not None}
    if args.preset:
        return preset_specs(args.preset, **given)
    return [ExperimentSpec(**{"levels": 2, "ratio": 3, **given})]


def _history_lines(spec: ExperimentSpec, level: int, report) -> list[str]:
    return [
        f"{spec.name()},{spec.levels},{level},{it},{rel:.6e},{pre:.6e},{dfct:.6e}"
        for it, rel, pre, dfct in report.history_rows()
    ]


def _exit_code(exc: NestedBddcError) -> int:
    return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))


def _cannot_write(exc: OSError) -> int:
    print(f"bddc: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
    return EXIT_INVALID


def _solve_command(args) -> int:
    try:
        specs = _specs_from_args(args)
    except NestedBddcError as exc:
        print(f"bddc: {exc}", file=sys.stderr)
        return _exit_code(exc)
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
        except NestedBddcError as exc:
            print(f"bddc: {spec.name()}: invalid setup: {exc}", file=sys.stderr)
            return _exit_code(exc)
        if args.dump_matrices:
            try:
                dump_matrix_market(solver.fine, args.dump_matrices)
            except OSError as exc:
                return _cannot_write(exc)
        try:
            result = solver.solve()
        except NestedBddcError as exc:
            print(f"bddc: {spec.name()}: {exc}", file=sys.stderr)
            code = _exit_code(exc)
            if code != EXIT_NO_CONVERGENCE:
                return code
            if args.dump_history and isinstance(exc, PcgNonConvergence):
                history_text += _history_lines(spec, exc.level, exc.report)
            exit_code = max(exit_code, code)
            continue

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
                history_text += _history_lines(spec, row.level, report)

        if args.verify:
            if solver.fine.n_dofs > ORACLE_DOF_LIMIT:
                print(
                    f"bddc: {spec.name()}: skipping --verify above {ORACLE_DOF_LIMIT} dofs",
                    file=sys.stderr,
                )
            else:
                try:
                    u_ref, _ = oracle_direct_solve(solver.fine)
                except NestedBddcError as exc:
                    print(f"bddc: {spec.name()}: cannot verify: {exc}", file=sys.stderr)
                    return EXIT_VERIFY_FAILED
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
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if args.config:
        try:
            config = _config_args(args.config)
        except (OSError, ValueError) as exc:
            print(f"bddc: {exc}", file=sys.stderr)
            return EXIT_INVALID
        # argparse keeps the last value, so command-line flags win
        args = parser.parse_args([args.command, *config, *argv[1:]])
    return _solve_command(args)


if __name__ == "__main__":
    sys.exit(main())
