"""End-to-end nested solver: upsweep of coarse problems, downsweep of solves.

The upsweep builds the hierarchy of coarse saddle problems (they all share
the quad-grid mixed structure) and restricts the source through the levels.
The top problem is solved exactly; sweeping back down, each level runs the
three-step solve: subdomain interior solves that match the divergence data,
then a divergence-free PCG correction with the multilevel preconditioner of
all coarser levels.  Only the finest pressure is kept, gauged to zero mean.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bddc import (
    LevelBddc,
    MultilevelPreconditioner,
    interior_correction,
    prolong_average,
)
from .hierarchy import HierarchyConfig, LevelDecomposition, build_hierarchy
from .krylov import PcgReport, pcg
from .mesh_fem import (
    CoefficientField,
    Rt0System,
    assemble_rt0,
    build_mesh,
    check_compatibility,
    divergence_defect,
)
from .saddle_core import IncompatibleRhsError, KktSystem

__all__ = [
    "DriverError",
    "PcgNonConvergence",
    "ExperimentSpec",
    "ResultRow",
    "NestedResult",
    "NestedSolver",
    "step1_coarse_rhs",
    "step2_subdomain_solve",
    "step3_correction",
    "oracle_direct_solve",
    "preset_specs",
    "PRESET_NAMES",
]

CSV_HEADER = "L,level,M,nsub,n,n_gamma,iter,cond"
ORACLE_DOF_LIMIT = 100_000


class DriverError(Exception):
    pass


class PcgNonConvergence(DriverError):
    def __init__(self, report: PcgReport, message: str):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: hierarchy shape, coefficient pattern, tolerance."""

    levels: int
    ratio: int
    coeff: str = "constant"  # constant | jump-left | jump-right
    k1: float = 1.0
    k2: float = 1.0
    k3: float = 1.0
    gamma: float = 1.0
    tol: float = 1e-6
    maxit: int = 500
    base: int = 0  # top-grid cells per side; defaults to ratio
    label: str = ""

    @property
    def nx(self) -> int:
        base = self.base if self.base else self.ratio
        return base * self.ratio ** (self.levels - 1)

    def name(self) -> str:
        return self.label or f"L{self.levels}-r{self.ratio}-{self.coeff}"

    def build_problem(self):
        mesh = build_mesh(self.nx, self.nx)
        if self.coeff == "constant":
            coeff = CoefficientField.constant(mesh, self.k1)
        elif self.coeff in ("jump-left", "jump-right"):
            coeff = CoefficientField.aligned_jump(
                mesh,
                self.ratio,
                self.levels,
                self.coeff.removeprefix("jump-"),
                self.k1,
                self.k2,
                self.k3,
            )
        else:
            raise DriverError(f"unknown coefficient pattern {self.coeff!r}")
        return mesh, coeff


@dataclass
class ResultRow:
    L: int
    level: int
    M: int
    nsub: int
    n: int
    n_gamma: int
    iter: int
    cond: float

    def csv(self) -> str:
        return (
            f"{self.L},{self.level},{self.M},{self.nsub},{self.n},"
            f"{self.n_gamma},{self.iter},{self.cond:.2f}"
        )


@dataclass
class NestedResult:
    flux: np.ndarray
    pressure: np.ndarray
    rows: list[ResultRow]
    reports: list[PcgReport] = field(default_factory=list)


def step1_coarse_rhs(decomp: LevelDecomposition, f: np.ndarray) -> np.ndarray:
    """Restrict the pressure rhs onto subdomain constants (plain sums)."""
    return np.asarray(f, dtype=float)[decomp.cells_by_sub].sum(axis=1)


def step2_subdomain_solve(level: LevelBddc, u0: np.ndarray, f: np.ndarray):
    """Interior components making u0 + u_I match the divergence data f."""
    system = level.system
    return interior_correction(level, -(system.A @ u0), f - system.B @ u0)


def step3_correction(
    precond: MultilevelPreconditioner,
    level_number: int,
    u_star: np.ndarray,
    tol: float = 1e-6,
    maxit: int = 500,
):
    """Divergence-free flux correction and pressure by PCG.

    Iterates on the full assembled level system; the preconditioner keeps
    every flux iterate divergence-free, monitored each iteration.  Since
    ``u_star`` already holds the step-2 interior solves, the interior rows
    of ``-A u_star`` lie in ``range(B_I^T)`` per subdomain, and so do those
    of every PCG residual.  The preconditioner is therefore applied through
    ``apply_step3``, whose start-level interior pre-correction is
    ``u_int = 0`` plus a pressure from the level's gradient inverse.
    """
    system = precond.levels[level_number - 1].system
    n_u = system.n_flux
    a_mat, b_mat = system.A, system.B

    def operator(x):
        u, p = x[:n_u], x[n_u:]
        return np.concatenate([a_mat @ u + b_mat.T @ p, b_mat @ u])

    def preconditioner(x):
        u, p = precond.apply_step3(x[:n_u], level_number)
        return np.concatenate([u, p])

    def defect(x):
        return divergence_defect(system, x[:n_u])

    rhs = np.concatenate([-(a_mat @ u_star), np.zeros(system.n_pressure)])
    x, report = pcg(operator, preconditioner, rhs, tol=tol, maxit=maxit, defect_fn=defect)
    if not report.converged:
        raise PcgNonConvergence(
            report, f"PCG did not reach {tol:g} within {report.iterations} iterations"
        )
    return x[:n_u], x[n_u:], report


class NestedSolver:
    """Builds the hierarchy once; solves the corner-source Darcy problem."""

    def __init__(self, spec: ExperimentSpec):
        self.spec = spec
        mesh, coeff = spec.build_problem()
        self.decomps = build_hierarchy(mesh, HierarchyConfig(spec.levels, spec.ratio))
        self.fine = assemble_rt0(mesh, coeff, source="corner")
        self.precond = MultilevelPreconditioner.build(self.fine, self.decomps, spec.gamma)

    def solve(self) -> NestedResult:
        spec = self.spec
        precond = self.precond
        levels = precond.levels
        n_levels = spec.levels

        f = self.fine.g
        if not check_compatibility(f):
            raise IncompatibleRhsError("source does not integrate to zero")
        f_chain = [f]
        for level in levels:
            f_chain.append(step1_coarse_rhs(level.decomp, f_chain[-1]))

        # Exact top solve; hand the flux down as coarse dof values.
        u_top, _, _ = precond.top_kkt.solve(rhs_div=f_chain[-1])
        u0 = prolong_average(levels[-1], u_top)

        rows: list[ResultRow] = []
        reports: list[PcgReport] = []
        u_level = None
        p_level = None
        for ell in range(n_levels - 1, 0, -1):
            level = levels[ell - 1]
            u_int, _ = step2_subdomain_solve(level, u0, f_chain[ell - 1])
            u_star = u0 + u_int
            u_corr, p_level, report = step3_correction(
                precond, ell, u_star, tol=spec.tol, maxit=spec.maxit
            )
            u_level = u_star + u_corr
            rows.append(
                ResultRow(
                    L=n_levels,
                    level=ell,
                    M=n_levels - ell + 1,
                    nsub=level.decomp.n_sub,
                    n=level.system.n_dofs,
                    n_gamma=level.decomp.face_dofs.size,
                    iter=report.iterations,
                    cond=report.cond_estimate,
                )
            )
            reports.append(report)
            if ell > 1:
                u0 = prolong_average(levels[ell - 2], u_level)

        areas = self.fine.areas
        p_level = p_level - areas @ p_level / areas.sum()
        rows.reverse()
        reports.reverse()
        return NestedResult(flux=u_level, pressure=p_level, rows=rows, reports=reports)


def oracle_direct_solve(system: Rt0System, rtol: float = 1e-10):
    """Reference solution by one sparse direct solve of the gauged system."""
    if not check_compatibility(system.g):
        raise IncompatibleRhsError("source does not integrate to zero")
    kkt = KktSystem(system.A, system.B, gauge=system.areas)
    flux, pressure, gauge = kkt.solve(rhs_div=system.g)
    scale = np.linalg.norm(system.g)
    if scale > 0 and abs(gauge) > rtol * scale:
        raise IncompatibleRhsError(
            f"gauge multiplier {gauge:.3e} signals an inconsistent right-hand side"
        )
    return flux, pressure


def _table_block(ratio, levels, **kw):
    return [ExperimentSpec(levels=lvl, ratio=ratio, **kw) for lvl in levels]


_PRESETS = {
    "table1-ratio3": lambda kw: _table_block(3, (2, 3, 4, 5), **kw),
    "table1-ratio4": lambda kw: _table_block(4, (2, 3, 4), **kw),
    "table1-ratio6": lambda kw: _table_block(6, (2, 3), **kw),
    "table1-ratio8": lambda kw: _table_block(8, (2, 3), **kw),
    "table1-ratio16": lambda kw: _table_block(16, (2,), **kw),
    "table1-ratio32": lambda kw: _table_block(32, (2,), **kw),
}

PRESET_NAMES = tuple(sorted(_PRESETS)) + ("fig3-left", "fig3-right")


def preset_specs(name, k1=None, k2=None, k3=None, gamma=None, tol=None) -> list[ExperimentSpec]:
    """Experiment lists behind the named presets.

    Table presets take the constant unit coefficient; the two jump presets
    run the four-level ratio-3 hierarchy with defaults k1=100, k2=1,
    k3=0.01.  Explicit arguments override the defaults.
    """
    kw = {}
    if gamma is not None:
        kw["gamma"] = gamma
    if tol is not None:
        kw["tol"] = tol
    if name in _PRESETS:
        if any(v is not None for v in (k1, k2, k3)):
            kw.update({k: v for k, v in (("k1", k1), ("k2", k2), ("k3", k3)) if v is not None})
        return _PRESETS[name](kw)
    if name in ("fig3-left", "fig3-right"):
        kw.setdefault("gamma", 1.0)
        return [
            ExperimentSpec(
                levels=4,
                ratio=3,
                coeff="jump-" + name.removeprefix("fig3-"),
                k1=100.0 if k1 is None else k1,
                k2=1.0 if k2 is None else k2,
                k3=0.01 if k3 is None else k3,
                label=name,
                **kw,
            )
        ]
    raise DriverError(f"unknown preset {name!r}")
