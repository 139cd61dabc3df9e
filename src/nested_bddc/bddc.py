"""BDDC components per level and the multilevel preconditioner application.

Per subdomain two local saddle problems are kept: the interior KKT (interior
flux dofs, local pressures, mean-zero gauge) drives the pre/post corrections,
and the constrained KKT (all local flux dofs, local pressures, gauge, one
face-average row per face) drives both the dual substructure correction and
the energy-minimal coarse basis, whose columns realize exactly one coarse
dof each.

On the uniform grid a subdomain's local problems are fixed by the element
matrices of its cells and, for the constrained KKT, by which of its four
faces exist.  Subdomains are grouped by that key (cells compared by the bit
pattern of their element matrices): each group assembles its blocks once,
from its first member, holds one factorization, and keeps one row of index
arrays and weights per member, so its solves run in batches.

Every group holds one ``KktSystem``, factored when it is built, and
solves through ``Factorization.solve_leading``: a group's data sits in the
leading KKT rows (flux, then divergence) and only leading unknowns are read
back.  The blocks are handed over in any format; how they are stored,
assembled and solved, by size class, is decided in ``saddle_core`` alone.
The Neumann mass and divergence blocks come from the same element scatter
as the global matrices (``mesh_fem.element_blocks``), on local positions.

The coarse problem assembled from the basis has the same quad-grid mixed
structure as the level below (one flux dof per face, one pressure per
subdomain, divergence entries +-H), which is what makes the recursion in
``MultilevelPreconditioner.apply`` possible.

Step 3 of the nested solve runs PCG on residuals whose interior flux rows
lie in ``range(B_I^T)`` per subdomain: the step-2 interior solves leave
``-A u*`` there, and the interior post-correction keeps every
preconditioner output there.  For such a residual the interior
pre-correction is ``u_int = 0`` and the gauged pressure with
``B_I^T p = r_I``.  ``B`` carries no coefficient, so every subdomain of a
level shares one ``B_I``, and one dense gradient inverse per level
(``LevelBddc.grad_inv``) gives that pressure without a KKT solve; the
step-3 entry ``MultilevelPreconditioner.apply_step3`` uses it on its start
level.

Subdomain solves within one level are independent (levels are inherently
sequential); all scatter reductions run in a fixed order, so results are
reproducible run to run.  Built components are immutable during apply.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .hierarchy import AveragingWeights, LevelDecomposition, compute_weights
from .mesh_fem import SLOT_BOTTOM, SLOT_LEFT, Rt0System, assemble_system, element_blocks
from .saddle_core import KktSystem

__all__ = [
    "BddcError",
    "LevelBddc",
    "MultilevelPreconditioner",
    "build_level_bddc",
    "assemble_coarse_problem",
    "interior_correction",
    "gradient_pressure",
    "delta_correction",
    "average",
]


class BddcError(Exception):
    pass


class _InteriorGroup:
    """Subdomains sharing one interior-KKT factorization.

    The KKT is factored at build, so a singular local problem is rejected
    before any apply.
    """

    def __init__(self, kkt: KktSystem, subs, idx_int, idx_cells):
        self.kkt = kkt
        self.subs = subs
        self.idx_int = idx_int
        self.idx_cells = idx_cells
        self.n_int = idx_int.shape[1]
        self.n_cells = idx_cells.shape[1]

    def solve(self, flux_rows, div_rows=None):
        """Interior flux and pressure rows for one row of data per subdomain."""
        rows = flux_rows if div_rows is None else np.hstack([flux_rows, div_rows])
        out = self.kkt.factorization.solve_leading(rows, self.n_int + self.n_cells)
        return out[:, : self.n_int], out[:, self.n_int :]


class _DeltaGroup:
    """Subdomains sharing one constrained-KKT factorization and basis.

    Members share one constrained KKT, whose flux rows are the sorted local
    dofs and whose last ``n_faces`` rows hold the face averages;
    ``face_cols[k]`` are the local positions of the dofs of the ``k``-th
    present face (slot ``face_slots[k]``).
    """

    def __init__(self, system, decomp, weights, subs):
        self.subs = subs
        first = subs[0]
        self.face_slots = np.flatnonzero(decomp.faces_by_sub[first] >= 0)
        self.n_faces = len(self.face_slots)
        self.face_ids = decomp.faces_by_sub[subs][:, self.face_slots]
        faces = decomp.face_dofs[self.face_ids].reshape(len(subs), -1)
        self.idx_loc = np.sort(np.hstack([decomp.interior_by_sub[subs], faces]), axis=1)
        local = self.idx_loc[0]
        cells = decomp.cells_by_sub[first]
        self.n_loc = len(local)
        self.face_cols = np.searchsorted(local, decomp.face_dofs[self.face_ids[0]])
        # A face's normal points into the members on their left and bottom
        # faces: there they are the higher subdomain and take its weights.
        high = np.zeros(self.n_loc, dtype=bool)
        high[self.face_cols[np.isin(self.face_slots, (SLOT_LEFT, SLOT_BOTTOM))]] = True
        self.w = np.where(high, weights.side_hi[self.idx_loc], weights.side_lo[self.idx_loc])
        mass, div, con = _neumann_blocks(system, local, cells, self.face_cols)
        self.kkt = KktSystem(mass, div, gauge=system.areas[cells], c_block=con)
        # Energy-minimal basis: one column per face, unit coarse dof each,
        # from unit data in the constraint rows (the last n_faces rows).
        size = self.kkt.size
        unit = np.eye(size, self.n_faces, self.n_faces - size)
        self.psi = self.kkt.factorization.solve(unit)[: self.n_loc]
        self.coarse_elem = np.asarray(self.psi.T @ (self.kkt.a_block @ self.psi))

    def solve(self, weighted):
        """Dual corrections and restriction coefficients, one row per subdomain."""
        return self.kkt.factorization.solve_leading(weighted, self.n_loc), weighted @ self.psi


def _neumann_blocks(system: Rt0System, local, cells, face_cols):
    """Local mass, divergence and face-average blocks (COO) of one subdomain.

    Rows and columns follow the sorted dof list ``local``.
    """
    n_loc = len(local)
    n_faces, ratio = face_cols.shape
    cell_slots = system.grid.cell_dof_slots[cells]
    local_slots = np.where(cell_slots >= 0, np.searchsorted(local, cell_slots), -1)
    mass, div = element_blocks(local_slots, system.elem_mass[cells], system.grid.h, n_loc)
    crow = np.repeat(np.arange(n_faces), ratio)
    cval = np.full(face_cols.size, 1.0 / ratio)
    con = sp.coo_matrix((cval, (crow, face_cols.ravel())), shape=(n_faces, n_loc))
    return mass, div, con


@dataclass
class LevelBddc:
    """All BDDC components of one decomposition level."""

    system: Rt0System
    decomp: LevelDecomposition
    weights: AveragingWeights
    interior_groups: list[_InteriorGroup]
    delta_groups: list[_DeltaGroup]
    grad_inv: np.ndarray  # (n_cells, n_int), shared by all subdomains (template order)


def _gradient_inverse(b_int, gauge: np.ndarray) -> np.ndarray:
    """``G`` with ``G @ B_I^T p = p`` for every ``p`` with ``gauge @ p = 0``.

    ``G = (B_I B_I^T + c g g^T)^-1 B_I`` from one Cholesky factorization of
    the cell Laplacian, whose null space (the constants) the rank-one gauge
    term fills; ``c`` puts that term on the scale of the Laplacian's
    diagonal.  The small inverse comes from the factor (``potri``), and
    ``B_I``, with two entries per column, multiplies it as given.
    """
    lap = b_int @ b_int.T
    lap = lap.toarray() if sp.issparse(lap) else lap
    lap += np.trace(lap) / (len(gauge) * (gauge @ gauge)) * np.outer(gauge, gauge)
    factor, lower = sla.cho_factor(lap, lower=True)
    inv = sla.lapack.dpotri(factor, lower=lower)[0]  # lower triangle only
    return (np.tril(inv) + np.tril(inv, -1).T) @ b_int


def _unique_rows(a: np.ndarray):
    """``np.unique`` over the rows of a 2-D array, rows compared bit for bit."""
    a = np.ascontiguousarray(a)
    rows = a.view(np.dtype((np.void, a.shape[1] * a.itemsize))).ravel()
    return np.unique(rows, return_index=True, return_inverse=True)


def _groups(keys: np.ndarray) -> list[np.ndarray]:
    """Rows of ``keys`` grouped by equality: ascending members, groups by first row."""
    _, first, label = _unique_rows(keys)
    label = np.argsort(np.argsort(first))[label]
    members = np.argsort(label, kind="stable")
    return np.split(members, np.cumsum(np.bincount(label))[:-1])


def build_level_bddc(
    system: Rt0System, decomp: LevelDecomposition, weights: AveragingWeights
) -> LevelBddc:
    """Group the subdomains of a level and build each group's solvers once.

    A subdomain's local problems are fixed by its cells' element matrices
    and, for the constrained KKT, by which of its four faces exist.  Cells
    are classed by the bit pattern of their element matrix, so members of a
    group have bit-identical local matrices.
    """
    cell_class = _unique_rows(system.elem_mass.reshape(system.grid.n_cells, -1))[2]
    classes = cell_class[decomp.cells_by_sub]
    present = decomp.faces_by_sub >= 0

    delta_groups = [
        _DeltaGroup(system, decomp, weights, subs)
        for subs in _groups(np.hstack([present, classes]))
    ]
    # An interior group's first member is the first member of its delta
    # group (the delta key refines the interior key); take its blocks there.
    delta_of = {grp.subs[0]: grp for grp in delta_groups}
    interior_groups = []
    for subs in _groups(classes):
        dgrp = delta_of[subs[0]]
        pos = np.searchsorted(dgrp.idx_loc[0], decomp.interior_by_sub[subs[0]])
        a, b = dgrp.kkt.a_block, dgrp.kkt.b_block
        kkt = KktSystem(a[np.ix_(pos, pos)], b[:, pos], gauge=dgrp.kkt.gauge)
        interior_groups.append(
            _InteriorGroup(kkt, subs, decomp.interior_by_sub[subs], decomp.cells_by_sub[subs])
        )
    # B carries no coefficient: every interior group has the first one's B_I.
    first = interior_groups[0].kkt
    return LevelBddc(
        system=system,
        decomp=decomp,
        weights=weights,
        interior_groups=interior_groups,
        delta_groups=delta_groups,
        grad_inv=_gradient_inverse(first.b_block, first.gauge),
    )


def assemble_coarse_problem(level: LevelBddc) -> Rt0System:
    """Galerkin coarse system on the subdomain grid.

    Flux block entries come from the basis energies; the divergence block is
    the exact +-(face length) pattern of the coarse grid, which reproduces
    the subdomain-integrated divergence of any basis combination.
    """
    decomp = level.decomp
    elem_mass = np.zeros((decomp.n_sub, 4, 4))
    for grp in level.delta_groups:
        slots = grp.face_slots
        elem_mass[grp.subs[:, None, None], slots[:, None], slots] = grp.coarse_elem
    return assemble_system(decomp.sub_grid, elem_mass)


def interior_correction(level: LevelBddc, r: np.ndarray, rhs_div=None):
    """Independent subdomain saddle solves with zero interface data.

    Solves for interior fluxes and local pressures with the flux residual
    ``r`` (and optionally per-cell divergence data) as right-hand side; the
    divergence of the correction is balanced against all local mean-zero
    pressures.
    """
    u = np.zeros(level.system.n_flux)
    p = np.zeros(level.system.n_pressure)
    for grp in level.interior_groups:
        div_rows = None if rhs_div is None else rhs_div[grp.idx_cells]
        u[grp.idx_int], p[grp.idx_cells] = grp.solve(r[grp.idx_int], div_rows)
    return u, p


def gradient_pressure(level: LevelBddc, r: np.ndarray) -> np.ndarray:
    """Local gauged pressures whose gradients match the interior rows of ``r``.

    Exact when each subdomain's interior rows of ``r`` lie in
    ``range(B_I^T)``; then ``interior_correction(level, r)`` is
    ``(0, gradient_pressure(level, r))`` up to round-off.
    """
    decomp = level.decomp
    p = np.empty(level.system.n_pressure)
    p[decomp.cells_by_sub] = r[decomp.interior_by_sub] @ level.grad_inv.T
    return p


def _delta_solve(level: LevelBddc, r_B: np.ndarray):
    """Constrained subdomain solves against the weighted residual.

    One ``(group, dual corrections, restriction coefficients)`` per group.
    """
    return [(grp, *grp.solve(grp.w * r_B[grp.idx_loc])) for grp in level.delta_groups]


def delta_correction(level: LevelBddc, r_B: np.ndarray) -> list[np.ndarray]:
    """Substructure corrections with vanishing face averages.

    One array per delta group with one row of local values per member.
    """
    return [w_delta for _, w_delta, _ in _delta_solve(level, r_B)]


def _scatter_add(n: int, pairs) -> np.ndarray:
    """Length-n vector summing each (indices, values) pair, in the order given."""
    idx = np.concatenate([i.ravel() for i, _ in pairs])
    vals = np.concatenate([v.ravel() for _, v in pairs])
    return np.bincount(idx, vals, minlength=n)


def _restrict(level: LevelBddc, delta_out) -> np.ndarray:
    return _scatter_add(
        level.decomp.n_faces, [(grp.face_ids, coeffs) for grp, _, coeffs in delta_out]
    )


def average(level: LevelBddc, rows_per_group) -> np.ndarray:
    """Weighted average of subdomain copies into one continuous level vector.

    ``rows_per_group`` holds, per delta group, one row of local values per
    member in the group's local dof order.
    """
    return _scatter_add(
        level.system.n_flux,
        [(grp.idx_loc, grp.w * rows) for grp, rows in zip(level.delta_groups, rows_per_group)],
    )


def _average(level: LevelBddc, delta_out, u_next: np.ndarray) -> np.ndarray:
    return average(
        level,
        [w_delta + u_next[grp.face_ids] @ grp.psi.T for grp, w_delta, _ in delta_out],
    )


def prolong_average(level: LevelBddc, u_coarse: np.ndarray) -> np.ndarray:
    """Continuous level vector from coarse dof values: basis columns, then averaging."""
    return average(level, [u_coarse[grp.face_ids] @ grp.psi.T for grp in level.delta_groups])


def inject_pressure(level: LevelBddc, p_coarse: np.ndarray) -> np.ndarray:
    """Subdomain-constant pressure from one value per subdomain."""
    p = np.empty(level.system.n_pressure)
    p[level.decomp.cells_by_sub] = p_coarse[:, None]
    return p


def _interior_pre(level: LevelBddc, r: np.ndarray):
    """Interior pre-correction of any residual, and the residual left over."""
    u_int, p_int = interior_correction(level, r)
    return u_int, p_int, r - level.system.A @ u_int - level.system.B.T @ p_int


def _gradient_pre(level: LevelBddc, r: np.ndarray):
    """The same for interior rows in ``range(B_I^T)``, where ``u_int = 0``."""
    p_int = gradient_pressure(level, r)
    return 0.0, p_int, r - level.system.B.T @ p_int


@dataclass
class MultilevelPreconditioner:
    """Stack of level components plus the exact top-level factorization.

    ``apply(r, start_level)`` runs the downward sweep (interior
    pre-correction, dual correction, coarse restriction) from the given
    level to the top, solves the top coarse saddle problem exactly, and
    walks back up (averaging, interior post-correction, combination).  The
    output flux is divergence-free on the starting level.

    ``apply_step3`` is the same map for the step-3 PCG residuals, whose
    interior rows lie in ``range(B_I^T)``: there the start-level
    pre-correction has ``u_int = 0``, and its pressure comes from the
    level's gradient inverse instead of a KKT solve.  Coarser levels get
    general residuals and keep the interior KKT solves.
    """

    levels: list[LevelBddc]
    top_system: Rt0System
    top_kkt: KktSystem

    @classmethod
    def build(cls, system: Rt0System, decomps, gamma: float) -> "MultilevelPreconditioner":
        levels = []
        current = system
        for decomp in decomps:
            if decomp.grid.n_flux != current.n_flux:
                raise BddcError("decomposition does not match the level system")
            weights = compute_weights(decomp, current.elem_mass, gamma)
            level = build_level_bddc(current, decomp, weights)
            levels.append(level)
            current = assemble_coarse_problem(level)
        top_kkt = KktSystem(current.A, current.B, gauge=current.areas)
        return cls(levels=levels, top_system=current, top_kkt=top_kkt)

    def apply(self, r: np.ndarray, start_level: int = 1):
        """Preconditioned (flux, pressure) for any flux residual ``r``."""
        return self._apply(self._index(start_level), np.asarray(r, dtype=float), _interior_pre)

    def apply_step3(self, r: np.ndarray, start_level: int):
        """``apply`` for a flux residual of the step-3 PCG.

        Premise: on the start level, each subdomain's interior rows of ``r``
        lie in ``range(B_I^T)``.  The step-3 right-hand side ``-A u*`` has
        that property after the step-2 interior solves, every output of
        this map has it after the interior post-correction, and so, by
        linearity, has every PCG residual.  On other inputs the result
        differs from ``apply``.
        """
        return self._apply(self._index(start_level), np.asarray(r, dtype=float), _gradient_pre)

    def _index(self, start_level: int) -> int:
        if not 1 <= start_level <= len(self.levels):
            raise BddcError(f"start level {start_level} out of range")
        return start_level - 1

    def _apply(self, idx: int, r: np.ndarray, pre):
        level = self.levels[idx]
        a_mat, b_mat = level.system.A, level.system.B
        u_int, p_int, r_b = pre(level, r)
        delta_out = _delta_solve(level, r_b)
        r_next = _restrict(level, delta_out)
        if idx == len(self.levels) - 1:
            u_next, p_next, _ = self.top_kkt.solve(rhs_flux=r_next)
        else:
            u_next, p_next = self._apply(idx + 1, r_next, _interior_pre)
        u_b = _average(level, delta_out, u_next)
        p_0 = inject_pressure(level, p_next)
        v_int, q_int = interior_correction(level, a_mat @ u_b, b_mat @ u_b)
        return u_int + u_b - v_int, p_int + p_0 - q_int

