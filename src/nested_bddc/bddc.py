"""BDDC components per level and the multilevel preconditioner application.

Each subdomain has one local saddle problem, the interior KKT ``K_I``
(interior flux dofs, local pressures, mean-zero gauge).  It serves
step 2 of the nested solve and the interior pre-correction, and it
condenses the subdomain onto its faces: with ``M_F`` the interior rows
coupled to the face dofs, ``-K_I^-1 M_F`` is the discrete harmonic
extension of face values (interior flux and pressure), and
``S = A_FF - M_F^T K_I^-1 M_F`` the face Schur complement.  The inverse of
the small bordered face system ``[S C^T; C 0]`` (``C`` the face averages,
at most ``4 ratio + 4`` rows) gives the dual face operator and the
energy-minimal coarse basis on the faces, one column per coarse dof.

After the pre-correction a residual's interior rows vanish, and the
post-correction maps each subdomain copy to the harmonic extension of its
face values.  So the dual step, the restriction and the averaging of a
level apply work on face values only, and the post-correction is one
product with the extension per group: no KKT solve, no global product.

On the uniform grid a subdomain's interior KKT is fixed by the element
matrices of its cells (compared by bit pattern), its face operators also
by which of its four faces exist.  All subdomains of a level share one
local numbering, ``LevelDecomposition.local_slots``: each cell pattern is
assembled on it from the element scatter of the global matrices
(``mesh_fem.element_blocks``), factored, and condensed onto all four faces
by one ``Factorization.solve_leading`` call (``_Cells``).  Subdomains are
grouped by cell pattern and present faces, one group kind per level: a
group slices its faces from its pattern, inverts its bordered face system
and keeps one row of index arrays and of face weights
(``hierarchy.compute_weights``) per member.  How blocks are stored and
solved, by size class, is decided in ``saddle_core`` alone.

``MultilevelPreconditioner.build`` owns the level list: it makes the
decompositions from the fine grid, and each level's system is the coarse
problem of the level below.  The coarse problem has the same quad-grid
mixed structure (one flux dof per face, one pressure per subdomain,
divergence entries +-H), which is what makes the recursion possible.

Step 3 of the nested solve runs PCG on residuals whose interior flux rows
lie in ``range(B_I^T)`` per subdomain: the step-2 interior solves leave
``-A u*`` there, and the post-correction keeps every preconditioner output
there.  For such a residual the interior pre-correction is ``u_int = 0``
and the gauged pressure with ``B_I^T p = r_I``.  ``B`` carries no
coefficient, so every subdomain of a level shares one ``B_I``, and one
dense gradient inverse per level (``LevelBddc.grad_inv``) gives that
pressure without a KKT solve; ``MultilevelPreconditioner.apply_step3``
uses it on its start level.

Subdomain work within one level is independent (levels are inherently
sequential); all scatter reductions run in a fixed order, so results are
reproducible run to run.  Built components are immutable during apply.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .hierarchy import LevelDecomposition, build_hierarchy, compute_weights
from .mesh_fem import (
    SLOT_BOTTOM,
    SLOT_LEFT,
    Rt0System,
    assemble_system,
    element_blocks,
    element_triplets,
)
from .saddle_core import Factorization, KktSystem

__all__ = [
    "BddcError",
    "LevelBddc",
    "MultilevelPreconditioner",
    "build_level_bddc",
    "assemble_coarse_problem",
    "interior_correction",
    "gradient_pressure",
    "average",
]


class BddcError(Exception):
    pass


class _Cells:
    """The local problem of one cell pattern, condensed onto its four faces.

    ``kkt`` is the interior KKT ``K_I`` of the pattern's cells on the
    template ``local_slots``, factored at build, so a singular local
    problem is rejected before any apply.  With ``M_F = [A_IF; B_F]`` the
    rows of ``K_I`` coupled to the ``4 ratio`` face dofs, ``ext`` holds
    ``-(K_I^-1 M_F)^T`` (the harmonic extension: row ``f`` of face values
    extends to the interior flux, first ``n_int`` entries, and pressure
    ``f @ ext``) and ``schur`` the face Schur complement
    ``S = A_FF - M_F^T K_I^-1 M_F``, symmetrised, from one solve.
    """

    def __init__(self, system: Rt0System, decomp: LevelDecomposition, cells: np.ndarray):
        slots, n_int = decomp.local_slots, decomp.interior_by_sub.shape[1]
        elem_mass, h = system.elem_mass[cells], system.grid.h
        mass, div = element_blocks(np.where(slots < n_int, slots, -1), elem_mass, h, n_int)
        self.kkt = KktSystem(mass, div, gauge=system.areas[cells])
        # Dense face rows of the Neumann blocks, columns (interior, faces).
        n_f = 4 * decomp.face_dofs.shape[1]
        mass, div = element_triplets(slots, elem_mass, h)
        a_f = _dense_rows(*mass, n_int, (n_f, n_int + n_f))
        b_ft = _dense_rows(div[0], div[2], div[1], n_int, (n_f, len(cells)))
        coupling = np.hstack([a_f[:, :n_int], b_ft])  # M_F^T
        self.ext = -self.kkt.factorization.solve_leading(coupling, n_int + len(cells))
        schur = a_f[:, n_int:] + coupling @ self.ext.T
        self.schur = 0.5 * (schur + schur.T)


class _Group:
    """Subdomains sharing one set of present faces and one cell pattern.

    ``kkt`` is the pattern's interior KKT, which the interior correction
    solves in batches, one row of data per member.  Face data run face by
    face in ``idx_face``: the ``k``-th present face (slot
    ``face_slots[k]``) holds columns ``k ratio`` to ``(k + 1) ratio - 1``.
    ``ext`` holds the pattern's extension rows of these faces.  The inverse
    of the bordered face system ``[S C^T; C 0]``, with ``S`` the pattern's
    Schur complement on these faces and ``C`` the face averages, gives
    ``face_op``: the dual face operator (zero face averages) in its first
    ``n_face_dofs`` columns, then the energy-minimal basis ``psi``, one
    column per face with unit average there and zero on the others; its
    energy is ``psi^T S psi``.  ``w`` holds one row of face weights per
    member: ``w_lo`` where the member is a face's lower subdomain and
    ``1 - w_lo`` where it is the higher one.
    """

    def __init__(self, decomp: LevelDecomposition, w_lo, subs, cells: _Cells):
        self.subs = subs
        self.kkt = cells.kkt
        self.face_slots = np.flatnonzero(decomp.faces_by_sub[subs[0]] >= 0)
        self.n_faces = len(self.face_slots)
        self.face_ids = decomp.faces_by_sub[subs][:, self.face_slots]
        self.idx_face = decomp.face_dofs[self.face_ids].reshape(len(subs), -1)
        self.idx_int = decomp.interior_by_sub[subs]
        self.idx_cells = decomp.cells_by_sub[subs]
        self.n_int = self.idx_int.shape[1]
        self.n_cells = self.idx_cells.shape[1]
        self.n_face_dofs = n_f = self.idx_face.shape[1]
        ratio = decomp.face_dofs.shape[1]
        # A face's normal points into the members on their left and bottom
        # faces: there they are the higher subdomain and take its weight.
        w_face = w_lo[self.face_ids]
        high = (self.face_slots == SLOT_LEFT) | (self.face_slots == SLOT_BOTTOM)
        self.w = np.repeat(np.where(high, 1.0 - w_face, w_face), ratio, axis=1)

        rows = (self.face_slots[:, None] * ratio + np.arange(ratio)).ravel()
        self.ext = cells.ext[rows]
        schur = cells.schur[np.ix_(rows, rows)]
        # The bordered face system; the face averages C are its last rows.
        con = np.repeat(np.eye(self.n_faces), ratio, axis=1) / ratio
        face_kkt = np.block([[schur, con.T], [con, np.zeros((self.n_faces, self.n_faces))]])
        size = len(face_kkt)  # 0 on a level of one subdomain, which has no faces
        inv = Factorization(face_kkt).solve(np.eye(size)) if size else face_kkt
        self.face_op = inv[:n_f]
        self.psi = self.face_op[:, n_f:]
        self.coarse_elem = self.psi.T @ schur @ self.psi


def _dense_rows(values, rows, cols, first: int, shape) -> np.ndarray:
    """Dense rows ``first`` on of a block given by its entries, summed."""
    on = rows >= first
    flat = (rows[on] - first) * shape[1] + cols[on]
    return _scatter_add(shape[0] * shape[1], [(flat, values[on])]).reshape(shape)


@dataclass
class LevelBddc:
    """All BDDC components of one decomposition level."""

    system: Rt0System
    decomp: LevelDecomposition
    groups: list[_Group]
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


def build_level_bddc(system: Rt0System, decomp: LevelDecomposition, gamma: float) -> LevelBddc:
    """Group the subdomains of a level and build each group's operators once.

    A subdomain's interior KKT is fixed by its cells' element matrices, its
    face operators also by which of its four faces exist.  Cells are
    classed by the bit pattern of their element matrix, so members of a
    group have bit-identical local matrices.  Each cell pattern is
    assembled, factored and condensed onto its four faces once
    (``_Cells``); every group on it slices the faces it has.
    """
    cell_class = _unique_rows(system.elem_mass.reshape(system.grid.n_cells, -1))[2]
    classes = cell_class[decomp.cells_by_sub]
    _, first, pattern = _unique_rows(classes)
    patterns = [_Cells(system, decomp, decomp.cells_by_sub[sub]) for sub in first]
    w_lo = compute_weights(decomp, system.elem_mass, gamma)
    groups = [
        _Group(decomp, w_lo, subs, patterns[pattern[subs[0]]])
        for subs in _groups(np.hstack([decomp.faces_by_sub >= 0, classes]))
    ]
    # B carries no coefficient: every interior KKT has the first one's B_I.
    kkt = patterns[0].kkt
    return LevelBddc(
        system=system,
        decomp=decomp,
        groups=groups,
        grad_inv=_gradient_inverse(kkt.b_block, kkt.gauge),
    )


def assemble_coarse_problem(level: LevelBddc) -> Rt0System:
    """Galerkin coarse system on the subdomain grid.

    Flux block entries come from the basis energies; the divergence block is
    the exact +-(face length) pattern of the coarse grid, which reproduces
    the subdomain-integrated divergence of any basis combination.
    """
    decomp = level.decomp
    elem_mass = np.zeros((decomp.n_sub, 4, 4))
    for grp in level.groups:
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
    for grp in level.groups:
        rows = r[grp.idx_int]
        if rhs_div is not None:
            rows = np.hstack([rows, rhs_div[grp.idx_cells]])
        out = grp.kkt.factorization.solve_leading(rows, grp.n_int + grp.n_cells)
        u[grp.idx_int], p[grp.idx_cells] = out[:, : grp.n_int], out[:, grp.n_int :]
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


def _scatter_add(n: int, pairs) -> np.ndarray:
    """Length-n vector summing each (indices, values) pair, in the order given."""
    idx = np.concatenate([i.ravel() for i, _ in pairs])
    vals = np.concatenate([v.ravel() for _, v in pairs])
    # bincount returns integers when there is nothing to add
    return np.bincount(idx, vals, minlength=n).astype(float, copy=False)


def average(level: LevelBddc, rows_per_group) -> np.ndarray:
    """Weighted average of subdomain face copies into one level vector.

    ``rows_per_group`` holds, per group, one row of face values per
    member in the group's ``idx_face`` order; interior dofs stay zero.
    """
    return _scatter_add(
        level.system.n_flux,
        [(grp.idx_face, grp.w * rows) for grp, rows in zip(level.groups, rows_per_group)],
    )


def prolong_average(level: LevelBddc, u_coarse: np.ndarray) -> np.ndarray:
    """Level vector with the averaged face values of the coarse basis.

    Interior dofs stay zero.  Step 2 solves ``K_I`` with this vector's
    residual, and the interior rows of ``u0 + u_int`` depend on the face
    values of ``u0`` alone: step 2 fills the interiors.
    """
    return average(level, [u_coarse[grp.face_ids] @ grp.psi.T for grp in level.groups])


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
    pre-correction, dual correction on the faces, coarse restriction) from
    the given level to the top, solves the top coarse saddle problem
    exactly, and walks back up (averaging of face values, harmonic
    extension into the interiors as the post-correction).  The output flux
    is divergence-free on the starting level.

    ``apply_step3`` is the same map for the step-3 PCG residuals, whose
    interior rows lie in ``range(B_I^T)``: there the start-level
    pre-correction has ``u_int = 0``, and its pressure comes from the
    level's gradient inverse instead of a KKT solve.  Coarser levels get
    general residuals and keep the interior KKT solves.
    """

    levels: list[LevelBddc]
    top_kkt: KktSystem

    @classmethod
    def build(
        cls, system: Rt0System, n_levels: int, ratio: int, gamma: float
    ) -> "MultilevelPreconditioner":
        """Levels 1..L-1 of the fine ``system``, each on the coarse problem below."""
        levels = []
        for decomp in build_hierarchy(system.grid, n_levels, ratio):
            levels.append(build_level_bddc(system, decomp, gamma))
            system = assemble_coarse_problem(levels[-1])
        return cls(levels=levels, top_kkt=KktSystem(system.A, system.B, gauge=system.areas))

    def apply(self, r: np.ndarray, start_level: int = 1):
        """Preconditioned (flux, pressure) for any flux residual ``r``."""
        return self._apply(self._index(start_level), np.asarray(r, dtype=float), _interior_pre)

    def apply_step3(self, r: np.ndarray, start_level: int):
        """``apply`` for a flux residual of the step-3 PCG.

        Premise: on the start level, each subdomain's interior rows of ``r``
        lie in ``range(B_I^T)``.  The step-3 right-hand side ``-A u*`` has
        that property after the step-2 interior solves, every output of
        this map has it after the harmonic extension, and so, by
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
        groups = level.groups
        # ``p`` starts as the pre-correction's pressure, a fresh array.
        u_int, p, r_b = pre(level, r)
        # The pre-correction leaves no interior residual.  Per group,
        # from the weighted face residuals: dual face values with vanishing
        # face averages, then the restriction coefficients.
        face_out = [(grp.w * r_b[grp.idx_face]) @ grp.face_op for grp in groups]
        r_next = _scatter_add(
            level.decomp.n_faces,
            [(grp.face_ids, out[:, grp.n_face_dofs :]) for grp, out in zip(groups, face_out)],
        )
        if idx == len(self.levels) - 1:
            u_next, p_next, _ = self.top_kkt.solve(rhs_flux=r_next)
        else:
            u_next, p_next = self._apply(idx + 1, r_next, _interior_pre)
        u = average(
            level,
            [
                out[:, : grp.n_face_dofs] + u_next[grp.face_ids] @ grp.psi.T
                for grp, out in zip(groups, face_out)
            ],
        )
        # Post-correction: the coarse pressure on each subdomain's cells,
        # and the interior flux and pressure of each subdomain's harmonic
        # extension of the averaged face values.
        p[level.decomp.cells_by_sub] += p_next[:, None]
        for grp in groups:
            ext = u[grp.idx_face] @ grp.ext
            u[grp.idx_int] += ext[:, : grp.n_int]
            p[grp.idx_cells] += ext[:, grp.n_int :]
        u += u_int
        return u, p
