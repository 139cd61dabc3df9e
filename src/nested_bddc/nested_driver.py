"""End-to-end nested solver: upsweep of coarse problems, downsweep of solves.

The upsweep builds the hierarchy of coarse saddle problems (they all share
the quad-grid mixed structure) once, in ``MultilevelPreconditioner.build``,
and the solve reuses its levels in every step: the source is restricted
through their decompositions, and the top problem is solved exactly.
Sweeping back down, each level prolongs the flux of the level above onto
its face values and runs the three-step solve: subdomain interior solves
that match the divergence data, then a divergence-free PCG correction
with the multilevel preconditioner of all coarser levels.  The subdomain
solves reuse the harmonic extension built at set-up for the face values
and solve only where the source is nonzero.  The step-2 pressure starts the
correction, whose PCG iterates on the level's face fluxes and one value
per subdomain, in vectors that stand exactly for those of PCG on the
whole level system; the flux is extended into the subdomain interiors
and the cell pressure formed once, at the end.  Only the finest pressure
is kept, gauged to zero mean.

The coefficient patterns of the experiments, the constant field and two
three-material layouts whose jumps align with subdomain boundaries, live
in one table here that maps each name to its per-cell values from the
spec's shape and contrasts; ``mesh_fem`` only validates the values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .bddc import (
    LevelBddc,
    MultilevelPreconditioner,
    _checked_level,
    _checked_vector,
    interior_correction,
    prolong_average,
)
from .hierarchy import LevelDecomposition, check_shape
from .krylov import DEFECT_TOL, InvariantViolation, PcgReport, pcg
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
    "COEFF_PATTERNS",
]

CSV_HEADER = "L,level,M,nsub,n,n_gamma,iter,cond"
ORACLE_DOF_LIMIT = 100_000


def _jump_left(spec, i, j):
    """Jumps inside the top-level blocks, aligned with the two finest tiers.

    In each top-level block the central child block carries k3 with a k1
    core (its central grandchild block); every other cell carries k2.
    """
    r = spec.ratio

    def central(side):  # cells in the central block of this side in its parent
        return ((i // side) % r == r // 2) & ((j // side) % r == r // 2)

    inner = central(r ** (spec.levels - 2))
    core = inner & central(r ** (spec.levels - 3))
    return np.where(core, spec.k1, np.where(inner, spec.k3, spec.k2))


def _jump_right(spec, i, j):
    """Uniform top-level blocks cycling k1, k2, k3 along the diagonals."""
    top = spec.ratio ** (spec.levels - 1)
    return np.array([spec.k1, spec.k2, spec.k3], dtype=float)[(i // top + j // top) % 3]


# Coefficient pattern -> per-cell values from the spec and the column and
# row index of each cell.
_COEFF_VALUES = {
    "constant": lambda spec, i, j: np.full(i.size, float(spec.k1)),
    "jump-left": _jump_left,
    "jump-right": _jump_right,
}
COEFF_PATTERNS = tuple(_COEFF_VALUES)


class DriverError(Exception):
    pass


class PcgNonConvergence(DriverError):
    def __init__(self, report: PcgReport, level: int, message: str):
        super().__init__(f"level {level}: {message}")
        self.report = report
        self.level = level


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: hierarchy shape, coefficient pattern, tolerance.

    Construction raises ``HierarchyError`` for a shape that no mesh can
    take, and ``DriverError`` for an unknown pattern, ``jump-left`` below
    four levels, a ``k1``-``k3`` that is not finite and > 0 (whether or
    not the pattern uses it), or a bad ``tol`` or ``maxit``.  Set-up
    (``build_problem``, ``NestedSolver``) raises ``WeightsError`` for a
    bad ``gamma`` and ``MeshError`` for a bad ``base``.
    """

    levels: int
    ratio: int
    coeff: str = "constant"  # one of COEFF_PATTERNS
    k1: float = 1.0
    k2: float = 1.0
    k3: float = 1.0
    gamma: float = 1.0
    tol: float = 1e-6
    maxit: int = 500
    base: int = 0  # top-grid cells per side; defaults to ratio
    label: str = ""

    def __post_init__(self):
        check_shape(self.levels, self.ratio)
        if self.coeff not in COEFF_PATTERNS:
            raise DriverError(f"unknown coefficient pattern {self.coeff!r}")
        if self.coeff == "jump-left" and self.levels < 4:
            raise DriverError(f"pattern 'jump-left' needs at least 4 levels, got {self.levels}")
        for name in ("k1", "k2", "k3"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise DriverError(f"contrast {name} must be finite and > 0, got {value!r}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise DriverError(f"PCG tolerance must be finite and > 0, got {self.tol!r}")
        if not isinstance(self.maxit, int) or self.maxit < 1:
            raise DriverError(f"PCG iteration limit must be an integer >= 1, got {self.maxit!r}")

    @property
    def nx(self) -> int:
        base = self.base if self.base else self.ratio
        return base * self.ratio ** (self.levels - 1)

    def name(self) -> str:
        return self.label or f"L{self.levels}-r{self.ratio}-{self.coeff}"

    def build_problem(self):
        mesh = build_mesh(self.nx, self.nx)
        j, i = np.indices((mesh.ny, mesh.nx)).reshape(2, -1)
        return mesh, CoefficientField(_COEFF_VALUES[self.coeff](self, i, j))


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


def step2_subdomain_solve(level: LevelBddc, u0_face: np.ndarray, f: np.ndarray):
    """Subdomain solves with face values ``u0_face`` that match the divergence data f.

    Each subdomain solves its interior KKT ``K_I`` with the face values as
    boundary data and ``f`` on its cells: the right-hand side
    ``-M_F u0_F + [0; f]``.  The solution is linear in both, and set-up
    already holds the face part, the harmonic extension ``-K_I^-1 M_F``
    (``LevelBddc.extend``).  So only ``K_I^-1 [0; f]`` is solved
    (``interior_correction`` with divergence data alone), and only on the
    subdomains where ``f`` is nonzero.  The flux of the face part is left
    to the end of step 3, which extends the face values once.

    Returns ``(u_src, p_star, p_ext0, r_face)``: the source solves' flux,
    the step-2 pressure, the extension's pressure ``p_ext0`` of
    ``u0_face``, which ``p_star`` holds next to the source solves', and
    the face rows ``r_face`` of ``-(A u_star + B^T p_star)``.  The step-2
    flux ``u_star`` is ``extend(u0_face)`` plus ``u_src``.  On each
    subdomain ``S u = A_FF u + M_F^T [E_I u; p_ext]`` gives the
    extension's face rows, ``-S u0_F``, and the source solves return
    theirs, so ``r_face`` needs no full-length product.  Face values or
    data of another length than the level's raise ``BddcError``.
    """
    u0_face = _checked_vector(u0_face, level.decomp.face_dofs.size, "face values")
    u_src, p_star, r_src = interior_correction(level, rhs_div=f)
    p_ext0 = level.extend_pressure(u0_face)
    p_star += p_ext0
    return u_src, p_star, p_ext0, r_src - level.schur_product(u0_face)


def step3_correction(
    precond: MultilevelPreconditioner,
    level_number: int,
    u0_face: np.ndarray,
    f: np.ndarray,
    u_src: np.ndarray,
    p_star: np.ndarray,
    p_ext0: np.ndarray,
    r_face: np.ndarray,
    tol: float = 1e-6,
    maxit: int = 500,
):
    """Level flux and pressure: step 2's, corrected by PCG on face fluxes.

    Takes step 2's face values ``u0_face``, divergence data ``f`` and
    output ``(u_src, p_star, p_ext0, r_face)``, whose flux is
    ``u_star = extend(u0_face) + u_src``.  Solves
    ``[A B^T; B 0] (u, p) = (-A u_star, 0)`` on the level with vectors of
    one entry per face dof and per subdomain, plus two, that stand
    exactly for the full-length ones.  PCG starts from the step-2
    pressure: after the step-2 interior solves the interior rows of
    ``-A u_star`` are ``B_I^T p_star``, and ``p_star`` has zero area
    mean on every subdomain, as the interior KKT solves leave it.  The
    preconditioner (``MultilevelPreconditioner._apply`` on the face rows)
    copies a residual's coefficient of ``p_star`` into its output and the
    operator copies it back, so every such pressure is a multiple
    ``s p_star``.

    An iterate ``(u_F, m, 0, s)`` holds face fluxes, whose harmonic
    extension (``LevelBddc.extend``) gives its flux ``E u_F`` and a
    pressure ``p_ext``, and its pressure is ``m + s p_star + p_ext``,
    with ``m`` constant on each subdomain.  A residual
    ``(r_F - s (B^T p_star)_F, rho, s, 0)`` holds its face rows ``r_F``,
    its interior rows ``s B_I^T p_star``, and pressure rows that are each
    subdomain's net divergence ``rho`` spread over its cells by area.  The
    product of a direction ``(d_F, m, 0, s)`` is
    ``(S d_F + (B^T m)_F, net d_F, s, 0)``, with ``S`` the sum of the
    subdomains' face Schur complements.  In the full-length dot product of
    a residual and an iterate, the interior rows meet a divergence that is
    constant per subdomain and so vanish against ``p_star``, and the
    pressure rows meet the subdomain means ``m``; the two ``s`` slots
    never meet.  So in exact arithmetic the iterates, coefficients and
    stopping test are those of the full-length PCG; only the residual norm
    needs ``(B^T p_star)_F`` and ``B_I^T p_star``, formed once.

    The start residual's face rows ``-(A u_star + B^T p_star)_F`` are
    step 2's ``r_face``.

    The monitor takes each iterate's divergence defect from its face values
    and its energy from PCG's residual (``face_divergence_defect``).  One
    ``extend`` of ``u0_face + u_F`` after PCG gives the level flux, with
    ``u_src`` added, and the extension's pressure; the level pressure is
    ``s p_star + (p_ext - p_ext0) + m``.

    The returned flux ``u`` is checked against the divergence data ``f``
    (``divergence_defect``), to ``DEFECT_TOL``, with no assembled matrix:
    its divergence is ``Rt0System.divergence(u)`` and its energy comes
    from the face values ``w = u0_face + u_F``.  With ``u_src`` the source
    solves' flux and ``p_src = p_star - p_ext0`` their pressure, ``K_I``
    symmetric and every local pressure of zero mean, ``u @ A u`` is
    ``w @ S w - 2 w @ r_src - p_src @ f``, ``r_src`` being the source
    solves' face residual; ``r_face = r_src - S u0_face`` makes that
    ``w @ S (u_F - u0_face) - 2 w @ r_face - p_src @ f``, one face
    product.  An energy that rounds to zero or below falls back to
    ``w @ S w``, as in ``face_divergence_defect``.

    A level number that is not an integer from 1 to the level count, or
    step-2 data of another shape than the level's, raises ``BddcError``
    naming the argument.
    """
    idx = _checked_level(level_number, len(precond.levels), "level")
    level = precond.levels[idx]
    cells = level.decomp.cells_by_sub
    n_face, n_sub = level.decomp.face_dofs.size, level.decomp.n_sub
    n_flux, n_cells = level.system.n_flux, level.system.n_pressure
    u0_face = _checked_vector(u0_face, n_face, "u0_face")
    f = _checked_vector(f, n_cells, "f")
    u_src = _checked_vector(u_src, n_flux, "u_src")
    p_star = _checked_vector(p_star, n_cells, "p_star")
    p_ext0 = _checked_vector(p_ext0, n_cells, "p_ext0")
    r_face = _checked_vector(r_face, n_face, "r_face")
    split = [n_face, n_face + n_sub, n_face + n_sub + 1]

    bt_p = level.face_bt @ p_star
    int_norm = np.linalg.norm(p_star[cells] @ level.b_int)

    def operator(x):
        u_face, m, _, s = np.split(x, split)
        product = level.schur_product(u_face) + level.net_t @ m
        return np.concatenate([product, level.net @ u_face, s, [0.0]])

    def preconditioner(r):
        r_face, _, s, _ = np.split(r, split)
        return np.concatenate([*precond._apply(idx, r_face), [0.0], s])

    def norm(r):
        r_face, rho, (s,), _ = np.split(r, split)
        return math.hypot(
            np.linalg.norm(r_face + s * bt_p),
            abs(s) * int_norm,
            np.linalg.norm(rho * level.div_norm),
        )

    x, report = pcg(
        operator,
        preconditioner,
        np.concatenate([r_face, np.zeros(n_sub), [1.0, 0.0]]),
        tol=tol,
        maxit=maxit,
        # The right-hand side less the residual is the operator applied to x.
        defect_fn=lambda x, r: level.face_divergence_defect(
            x[:n_face], r_face - r[:n_face], x[n_face : n_face + n_sub]
        ),
        norm_fn=norm,
    )
    if not report.converged:
        raise PcgNonConvergence(
            report, level_number, f"PCG did not reach {tol:g} within {report.iterations} iterations"
        )
    u_face, m, _, (s,) = np.split(x, split)
    w = u0_face + u_face
    u, p_ext = level.extend(w)
    u += u_src
    energy = w @ level.schur_product(u_face - u0_face) - 2.0 * (w @ r_face) - (p_star - p_ext0) @ f
    if not energy > 0.0:
        energy = w @ level.schur_product(w)
    defect = divergence_defect(level.system, u, f, energy)
    if defect > DEFECT_TOL:
        raise InvariantViolation(
            f"level {level_number}: divergence defect {defect:.3e} of the level flux "
            f"exceeded {DEFECT_TOL:.1e}"
        )
    p = s * p_star + (p_ext - p_ext0)
    p[cells] += m[:, None]
    return u, p, report


class NestedSolver:
    """Builds the hierarchy once; solves the corner-source Darcy problem."""

    def __init__(self, spec: ExperimentSpec):
        self.spec = spec
        mesh, coeff = spec.build_problem()
        self.fine = assemble_rt0(mesh, coeff, source="corner")
        self.precond = MultilevelPreconditioner.build(
            self.fine, spec.levels, spec.ratio, spec.gamma
        )

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

        # Exact top solve; each level takes the flux above as coarse dof values.
        u_level, _, _ = precond.top_kkt.solve(rhs_div=f_chain[-1])

        rows: list[ResultRow] = []
        reports: list[PcgReport] = []
        for ell in range(n_levels - 1, 0, -1):
            level = levels[ell - 1]
            u0_face = prolong_average(level, u_level)
            f_level = f_chain[ell - 1]
            start = step2_subdomain_solve(level, u0_face, f_level)
            u_level, p_level, report = step3_correction(
                precond, ell, u0_face, f_level, *start, tol=spec.tol, maxit=spec.maxit
            )
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

        areas = self.fine.areas
        p_level = p_level - areas @ p_level / areas.sum()
        rows.reverse()
        reports.reverse()
        return NestedResult(flux=u_level, pressure=p_level, rows=rows, reports=reports)


def oracle_direct_solve(system: Rt0System):
    """Reference solution by one sparse direct solve of the gauged system."""
    if not check_compatibility(system.g):
        raise IncompatibleRhsError("source does not integrate to zero")
    kkt = KktSystem(system.A, system.B, gauge=system.areas)
    flux, pressure, gauge = kkt.solve(rhs_div=system.g)
    scale = np.linalg.norm(system.g)
    if scale > 0 and abs(gauge) > 1e-10 * scale:
        raise IncompatibleRhsError(
            f"gauge multiplier {gauge:.3e} signals an inconsistent right-hand side"
        )
    return flux, pressure


_PRESETS = {
    "table1-ratio3": [ExperimentSpec(levels=n, ratio=3) for n in (2, 3, 4, 5)],
    "table1-ratio4": [ExperimentSpec(levels=n, ratio=4) for n in (2, 3, 4)],
    "table1-ratio6": [ExperimentSpec(levels=n, ratio=6) for n in (2, 3)],
    "table1-ratio8": [ExperimentSpec(levels=n, ratio=8) for n in (2, 3)],
    "table1-ratio16": [ExperimentSpec(levels=2, ratio=16)],
    "table1-ratio32": [ExperimentSpec(levels=2, ratio=32)],
    "fig3-left": [
        ExperimentSpec(levels=4, ratio=3, coeff="jump-left", k1=100.0, k3=0.01, label="fig3-left")
    ],
    "fig3-right": [
        ExperimentSpec(levels=4, ratio=3, coeff="jump-right", k1=100.0, k3=0.01, label="fig3-right")
    ],
}

PRESET_NAMES = tuple(_PRESETS)


def preset_specs(name, **overrides) -> list[ExperimentSpec]:
    """Experiment lists behind the named presets.

    Table presets take the constant unit coefficient; the two jump presets
    run the four-level ratio-3 hierarchy with defaults k1=100, k2=1,
    k3=0.01.  ``overrides`` replace fields of every spec in the list (for
    example ``k1``, ``gamma`` or ``tol``); the preset fixes ``levels``,
    ``ratio`` and ``coeff``, and overriding any of them raises
    ``DriverError``.
    """
    if name not in _PRESETS:
        raise DriverError(f"unknown preset {name!r}")
    fixed = [key for key in ("levels", "ratio", "coeff") if key in overrides]
    if fixed:
        raise DriverError(f"preset {name!r} fixes {', '.join(fixed)}; drop the override")
    return [replace(spec, **overrides) for spec in _PRESETS[name]]
