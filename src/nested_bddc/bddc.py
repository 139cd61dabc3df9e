"""BDDC components per level and the multilevel preconditioner application.

Each subdomain has one local saddle problem, the interior KKT ``K_I``
(interior flux dofs, local pressures, mean-zero gauge).  It serves the
interior pre-correction, and it condenses the subdomain onto its faces:
with ``M_F`` the interior rows coupled to the face dofs, ``-K_I^-1 M_F``
is the discrete harmonic extension of face values (interior flux and
pressure), and ``S = A_FF - M_F^T K_I^-1 M_F`` the face Schur complement.
Step 2 of the nested solve is that extension of the prolonged face
values (``prolong_average``) plus ``K_I^-1 [0; f]``, which
``interior_correction`` solves only on the subdomains where the source
``f`` is nonzero.  The inverse of the small bordered face system
``[S C^T; C 0]`` (``C`` the face averages, at most ``4 ratio + 4`` rows)
gives the dual face operator and the energy-minimal coarse basis on the
faces, one column per coarse dof.

After the pre-correction a residual's interior rows vanish, and the
post-correction maps each subdomain copy to the harmonic extension of its
face values.  So a level apply works on the level's face vector, its face
dofs in ``decomp.face_dofs`` order, which each group indexes with
``face_pos``: ``MultilevelPreconditioner._apply`` takes the face rows of a
pre-corrected residual and returns the averaged face values and the
coarse pressure, one value per subdomain.  One call,
``LevelBddc.extend``, gives the harmonic extension of face values: the
flux in the interiors and each subdomain's pressure.  A level vector is
formed from it (plus the pre-correction's pressure and the coarse
pressure on the cells) only where one is needed: in ``apply``, which
pre-corrects any residual with the interior KKT solves and which the
recursion calls on every coarser level.  Step 3 of the nested solve
hands its start level pre-corrected residuals directly (``apply_faces``,
see ``nested_driver.step3_correction``) and iterates on face fluxes and
per-subdomain values with the level's condensed products:
``schur_product``, ``net``, ``net_t`` and ``face_divergence_defect``.
The divergence of a harmonic extension is the cell area times the
subdomain's net face flux over the subdomain's area, so it is one value
per subdomain.

On the uniform grid a subdomain's interior KKT is fixed by the element
matrices of its cells (compared by bit pattern), its face operators also
by which of its four faces exist.  All subdomains of a level share one
local numbering, ``LevelDecomposition.local_slots``: each cell pattern is
scattered on it once from its element matrices
(``mesh_fem.element_triplets``), factored, and condensed onto all four
faces by one ``Factorization.solve_leading`` call (``_Cells``).
Subdomains are grouped by cell pattern and present faces, one group kind
per level: a group slices its faces from its pattern, inverts its
bordered face system and keeps one row of index arrays and of face
weights (``hierarchy.compute_weights``) per member.  Every face lies
between two subdomains, so a sum of the members' face copies (the Schur
product, the averaging, the restriction) adds two entries of the groups'
rows, located once at build (``_copy_pairs``).  How blocks are stored
and solved, by size class, is decided in ``saddle_core``
(``DENSE_LIMIT``); a cell pattern scatters its interior blocks straight
into the storage of their class.

``MultilevelPreconditioner.build`` owns the level list: it makes the
decompositions from the fine grid, and each level's system is the coarse
problem of the level below.  The coarse problem has the same quad-grid
mixed structure (one flux dof per face, one pressure per subdomain,
divergence entries +-H), which is what makes the recursion possible.

Subdomain work within one level is independent (levels are inherently
sequential); all scatter reductions run in a fixed order, so results are
reproducible run to run.  Built components are immutable during apply.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .hierarchy import LevelDecomposition, build_hierarchy, compute_weights
from .mesh_fem import (
    SLOT_BOTTOM,
    SLOT_LEFT,
    Rt0System,
    assemble_system,
    element_triplets,
    gauged_defect,
)
from .saddle_core import DENSE_LIMIT, Factorization, KktSystem

__all__ = [
    "BddcError",
    "LevelBddc",
    "MultilevelPreconditioner",
    "build_level_bddc",
    "assemble_coarse_problem",
    "interior_correction",
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

    The pattern's element matrices are scattered once: in the dense size
    class into the dense Neumann blocks ``A`` and ``B^T`` on
    ``local_slots``, whose interior corner is ``K_I``'s and whose face rows
    give ``M_F``; above it, the interior entries into one CSR and only the
    face rows into dense arrays.
    """

    def __init__(self, system: Rt0System, decomp: LevelDecomposition, cells: np.ndarray):
        slots, n_int = decomp.local_slots, decomp.interior_by_sub.shape[1]
        n_loc, n_cells = n_int + 4 * decomp.face_dofs.shape[1], len(cells)
        mass, (d_val, d_row, d_col) = element_triplets(slots, system.elem_mass[cells], system.grid.h)
        dense = n_int + n_cells + 1 <= DENSE_LIMIT
        first = 0 if dense else n_int
        a = _dense_rows(*mass, first, (n_loc - first, n_loc))
        bt = _dense_rows(d_val, d_col, d_row, first, (n_loc - first, n_cells))
        if dense:
            blocks = a[:n_int, :n_int], np.ascontiguousarray(bt[:n_int].T)
        else:
            # A_II above B_I, one CSR from the interior entries.
            m_val, m_row, m_col = mass
            on, d_on = (m_row < n_int) & (m_col < n_int), d_col < n_int
            rows = np.concatenate([m_row[on], n_int + d_row[d_on]])
            cols = np.concatenate([m_col[on], d_col[d_on]])
            a_b = sp.csr_matrix(
                (np.concatenate([m_val[on], d_val[d_on]]), (rows, cols)), shape=(n_int + n_cells, n_int)
            )
            blocks = a_b[:n_int], a_b[n_int:]
        self.kkt = KktSystem(*blocks, gauge=system.areas[cells])
        a_f, b_ft = a[n_int - first :], bt[n_int - first :]
        coupling = np.hstack([a_f[:, :n_int], b_ft])  # M_F^T
        self.ext = -self.kkt.factorization.solve_leading(coupling, n_int + n_cells)
        schur = a_f[:, n_int:] + coupling @ self.ext.T
        self.schur = 0.5 * (schur + schur.T)


class _Group:
    """Subdomains sharing one set of present faces and one cell pattern.

    ``kkt`` is the pattern's interior KKT, which the interior correction
    solves in batches, one row of data per member.  Face data run face by
    face in ``idx_face`` (level dofs) and ``face_pos`` (positions in the
    level's face vector): the ``k``-th present face (slot
    ``face_slots[k]``) holds columns ``k ratio`` to ``(k + 1) ratio - 1``.
    ``ext`` holds the pattern's extension rows of these faces and
    ``schur`` its Schur complement ``S`` on them.  The inverse of the
    bordered face system ``[S C^T; C 0]``, with ``C`` the face averages, gives
    ``face_op``: the dual face operator (zero face averages) in its first
    ``n_face_dofs`` columns, then the energy-minimal basis ``psi``, one
    column per face with unit average there and zero on the others; its
    energy is ``psi^T S psi``.  ``high`` marks the present faces on which
    the members are the higher subdomain (left and bottom slots), and ``w``
    holds one row of face weights per member: ``w_lo`` where the member is
    a face's lower subdomain and ``1 - w_lo`` where it is the higher one.
    """

    def __init__(self, decomp: LevelDecomposition, w_lo, subs, cells: _Cells):
        self.subs = subs
        self.kkt = cells.kkt
        self.face_slots = np.flatnonzero(decomp.faces_by_sub[subs[0]] >= 0)
        self.n_faces = len(self.face_slots)
        self.face_ids = decomp.faces_by_sub[subs][:, self.face_slots]
        self.idx_face = decomp.face_dofs[self.face_ids].reshape(len(subs), -1)
        ratio = decomp.face_dofs.shape[1]
        self.face_pos = (self.face_ids[:, :, None] * ratio + np.arange(ratio)).reshape(len(subs), -1)
        self.idx_int = decomp.interior_by_sub[subs]
        self.idx_cells = decomp.cells_by_sub[subs]
        self.n_int = self.idx_int.shape[1]
        self.n_cells = self.idx_cells.shape[1]
        self.n_face_dofs = n_f = self.idx_face.shape[1]
        # A face's normal points into the members on their left and bottom
        # faces: there they are the higher subdomain and take its weight.
        w_face = w_lo[self.face_ids]
        self.high = (self.face_slots == SLOT_LEFT) | (self.face_slots == SLOT_BOTTOM)
        self.w = np.repeat(np.where(self.high, 1.0 - w_face, w_face), ratio, axis=1)

        rows = (self.face_slots[:, None] * ratio + np.arange(ratio)).ravel()
        self.ext = cells.ext[rows]
        self.schur = schur = cells.schur[np.ix_(rows, rows)]
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
    # bincount returns integers when there is nothing to add
    summed = np.bincount(flat, values[on], minlength=shape[0] * shape[1])
    return summed.astype(float, copy=False).reshape(shape)


def _copy_pairs(n: int, copies) -> np.ndarray:
    """Positions of the two copies of each of ``n`` entries in the groups' raveled rows.

    ``copies`` holds, per group in level order, the entries' positions
    ``(members, k)`` and the columns ``(k,)`` on which the members are the
    higher subdomain.  Every face, and so every face dof, lies between two
    subdomains: row 0 of the result holds the lower one's copy, row 1 the
    higher one's.
    """
    pos = np.concatenate([at.ravel() for at, _ in copies])
    high = np.concatenate([np.broadcast_to(hi, at.shape).ravel() for at, hi in copies])
    pairs = np.empty(2 * n, dtype=np.intp)
    pairs[high * n + pos] = np.arange(pos.size)
    return pairs.reshape(2, n)


def _pair_sum(pairs: np.ndarray, rows_per_group) -> np.ndarray:
    """Sum of each entry's two copies, from one row per member per group (``_copy_pairs``)."""
    copies = np.concatenate([rows.ravel() for rows in rows_per_group])
    return copies[pairs[0]] + copies[pairs[1]]


@dataclass
class LevelBddc:
    """All BDDC components of one decomposition level.

    Besides the groups, a level keeps ``bt``, its ``B^T`` formed once,
    and what the divergence of a harmonic extension needs: ``net``, each
    subdomain's net face flux (``B``'s face columns summed over its cells,
    one row per subdomain and one column per entry of the face vector),
    and its transpose ``net_t``.  The extension's divergence on a cell is
    the cell's area over the subdomain's area ``sub_areas`` times the net
    flux, so its norm on the subdomain is ``div_norm`` times the net flux,
    with ``div_norm`` the norm of the cells' areas over ``sub_areas``.
    The step-3 residual norm also uses ``b_int``, the interior divergence
    block ``B_I`` that all subdomains share (template order), and
    ``face_bt``, the face rows of ``B^T``.  ``dof_pairs`` and ``face_pairs``
    locate the two subdomain copies of each face dof and each face in the
    groups' raveled rows (``_copy_pairs``), so a sum over subdomains is one
    addition per entry (``_pair_sum``).
    """

    system: Rt0System
    decomp: LevelDecomposition
    groups: list[_Group]
    bt: sp.spmatrix
    b_int: object
    face_bt: sp.csr_matrix
    net: sp.csc_matrix
    net_t: sp.csr_matrix
    sub_areas: np.ndarray
    div_norm: np.ndarray
    dof_pairs: np.ndarray
    face_pairs: np.ndarray

    def extend(self, u_face: np.ndarray):
        """Harmonic extension of face values ``u_face``: level flux and pressure.

        The flux holds ``u_face`` on the faces and each subdomain's
        extension inside; the pressure is each extension's gauged pressure.
        """
        u = np.zeros(self.system.n_flux)
        u[self.decomp.face_dofs.ravel()] = u_face
        p = np.empty(self.system.n_pressure)
        for grp in self.groups:
            out = u_face[grp.face_pos] @ grp.ext
            u[grp.idx_int], p[grp.idx_cells] = out[:, : grp.n_int], out[:, grp.n_int :]
        return u, p

    def schur_product(self, u_face: np.ndarray) -> np.ndarray:
        """Sum of the subdomains' face Schur complements times ``u_face``."""
        return _pair_sum(self.dof_pairs, [u_face[grp.face_pos] @ grp.schur for grp in self.groups])

    def face_divergence_defect(self, u_face: np.ndarray, product=None, m=None) -> float:
        """``divergence_defect`` of ``extend(u_face)`` from face values alone.

        The extension's divergence is a multiple of the cell areas on each
        subdomain, and so is the pressure gauge, so the defect is taken on
        one entry per subdomain: the divergence's norm there, against the
        gauge's.  The energy is ``u_face @ S u_face``.  Given ``product``,
        the face rows ``S u_face + net_t m`` of the step-3 operator applied
        to ``(u_face, m)``, which PCG holds as its right-hand side less its
        residual, the energy is ``u_face @ product - (net u_face) @ m``;
        without it, or when that is not positive, ``u_face`` against
        ``schur_product(u_face)``.
        """
        if not np.any(u_face):
            return 0.0
        net = self.net @ u_face
        energy = 0.0 if product is None else u_face @ product - net @ m
        if not energy > 0.0:
            energy = u_face @ self.schur_product(u_face)
        return gauged_defect(self.div_norm * net, energy, self.div_norm * self.sub_areas)


def _unique_rows(a: np.ndarray):
    """Rows of a 2-D array classed bit for bit: (first row of each class, class of each row).

    A lexicographic sort of the rows' bit patterns puts equal rows next
    to each other, in ascending order, so the first of each run is its
    class's first row.
    """
    bits = np.ascontiguousarray(a).view(f"i{a.itemsize}")
    order = np.lexsort(bits.T)
    ranked = bits[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    label = np.empty(len(order), dtype=np.intp)
    label[order] = np.cumsum(new) - 1
    return order[new], label


def _groups(keys: np.ndarray) -> list[np.ndarray]:
    """Rows of ``keys`` grouped by equality: ascending members, groups by first row."""
    first, label = _unique_rows(keys)
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
    cell_class = _unique_rows(system.elem_mass.reshape(system.grid.n_cells, -1))[1]
    classes = cell_class[decomp.cells_by_sub]
    first, pattern = _unique_rows(classes)
    patterns = [_Cells(system, decomp, decomp.cells_by_sub[sub]) for sub in first]
    w_lo = compute_weights(decomp, system.elem_mass, gamma)
    groups = [
        _Group(decomp, w_lo, subs, patterns[pattern[subs[0]]])
        for subs in _groups(np.hstack([decomp.faces_by_sub >= 0, classes]))
    ]
    areas = system.areas[decomp.cells_by_sub]
    sub_areas = areas.sum(axis=1)
    # B's entries in the column of an edge: -h on its lower cell, +h on its
    # higher one (SLOT_SIGNS); a face dof's two cells lie in its face's two
    # subdomains.
    face_dofs = decomp.face_dofs.ravel()
    signs = np.tile([-system.grid.h, system.grid.h], len(face_dofs))
    pairs = np.arange(0, signs.size + 1, 2)
    ratio = decomp.face_dofs.shape[1]
    face_subs = np.repeat(decomp.sub_grid.edge_sides, ratio, axis=0)
    net = sp.csc_matrix((signs, face_subs.ravel(), pairs), (decomp.n_sub, len(face_dofs)))
    return LevelBddc(
        system=system,
        decomp=decomp,
        groups=groups,
        bt=system.B.T,
        # B carries no coefficient: every interior KKT has the first one's B_I.
        b_int=patterns[0].kkt.b_block,
        face_bt=sp.csr_matrix(
            (signs, np.take(system.grid.edge_sides, face_dofs, axis=0).ravel(), pairs),
            (len(face_dofs), system.n_pressure),
        ),
        net=net,
        net_t=net.T.tocsr(),
        sub_areas=sub_areas,
        div_norm=np.linalg.norm(areas, axis=1) / sub_areas,
        dof_pairs=_copy_pairs(
            len(face_dofs), [(grp.face_pos, np.repeat(grp.high, ratio)) for grp in groups]
        ),
        face_pairs=_copy_pairs(decomp.n_faces, [(grp.face_ids, grp.high) for grp in groups]),
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


def interior_correction(level: LevelBddc, r=None, rhs_div=None):
    """Independent subdomain saddle solves with zero interface data.

    Solves for interior fluxes and local pressures with the flux residual
    ``r`` and per-cell divergence data ``rhs_div`` (either may be left
    out) as right-hand side; the divergence of the correction is balanced
    against all local mean-zero pressures.  Given divergence data alone,
    only the subdomains whose data is nonzero are solved: the others'
    solution is zero.
    """
    u = np.zeros(level.system.n_flux)
    p = np.zeros(level.system.n_pressure)
    for grp in level.groups:
        idx_int, idx_cells = grp.idx_int, grp.idx_cells
        if r is None:
            live = np.any(rhs_div[idx_cells], axis=1)
            if not live.any():
                continue
            idx_int, idx_cells = idx_int[live], idx_cells[live]
            rows = np.zeros(idx_int.shape)
        else:
            rows = r[idx_int]
        if rhs_div is not None:
            rows = np.hstack([rows, rhs_div[idx_cells]])
        out = grp.kkt.factorization.solve_leading(rows, grp.n_int + grp.n_cells)
        u[idx_int], p[idx_cells] = out[:, : grp.n_int], out[:, grp.n_int :]
    return u, p


def _face_average(level: LevelBddc, rows_per_group) -> np.ndarray:
    """Weighted average of subdomain face copies into the level's face vector.

    ``rows_per_group`` holds, per group, one row of face values per
    member in the group's ``face_pos`` order.
    """
    groups = level.groups
    return _pair_sum(level.dof_pairs, [grp.w * rows for grp, rows in zip(groups, rows_per_group)])


def prolong_average(level: LevelBddc, u_coarse: np.ndarray) -> np.ndarray:
    """Averaged face values of the coarse basis, in the level's face vector.

    The prolonged flux has zero interiors, so step 2 needs its face values
    alone: its subdomain solves add their harmonic extension.
    """
    return _face_average(level, [u_coarse[grp.face_ids] @ grp.psi.T for grp in level.groups])


@dataclass
class MultilevelPreconditioner:
    """Stack of level components plus the exact top-level factorization.

    ``apply(r, start_level)`` runs the downward sweep (interior
    pre-correction, dual correction on the faces, coarse restriction) from
    the given level to the top, solves the top coarse saddle problem
    exactly, and walks back up (averaging of face values, harmonic
    extension into the interiors as the post-correction).  The output flux
    is divergence-free on the starting level.

    ``apply_faces`` is the same map without the start level's
    pre-correction and post-correction: it takes a residual whose interior
    rows the pre-correction has already removed and returns face values
    and the coarse pressure per subdomain.  Each level's ``_apply`` hands
    its restricted residual to ``apply`` on the next level, so coarser
    levels get general residuals and keep the interior KKT solves.
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
        idx = self._index(start_level)
        r = np.asarray(r, dtype=float)
        level = self.levels[idx]
        u_int, p = interior_correction(level, r)
        r_b = r - level.system.A @ u_int - level.bt @ p
        u_face, p_coarse = self._apply(idx, r_b[level.decomp.face_dofs.ravel()])
        u, p_ext = level.extend(u_face)
        u += u_int
        # The coarse pressure on each subdomain's cells, and the pressure of
        # each subdomain's harmonic extension of the averaged face values.
        p[level.decomp.cells_by_sub] += p_coarse[:, None]
        p += p_ext
        return u, p

    def apply_faces(self, r_face: np.ndarray, start_level: int):
        """Preconditioned face values and coarse pressure for a pre-corrected residual.

        ``r_face`` holds the residual's rows in the start level's face
        vector, after an interior pre-correction has removed its interior
        rows.  ``extend`` of the returned face values on the start level
        gives the flux and, on each subdomain, the pressure to which the
        returned coarse pressure and the pre-correction's pressure add.
        """
        return self._apply(self._index(start_level), np.asarray(r_face, dtype=float))

    def _index(self, start_level: int) -> int:
        if not 1 <= start_level <= len(self.levels):
            raise BddcError(f"start level {start_level} out of range")
        return start_level - 1

    def _apply(self, idx: int, r_face: np.ndarray):
        """One level's face work: averaged face values and the coarse pressure per subdomain."""
        level = self.levels[idx]
        groups = level.groups
        # Per group, from the weighted face residuals: dual face values with
        # vanishing face averages, then the restriction coefficients.
        face_out = [(grp.w * r_face[grp.face_pos]) @ grp.face_op for grp in groups]
        r_next = _pair_sum(
            level.face_pairs, [out[:, grp.n_face_dofs :] for grp, out in zip(groups, face_out)]
        )
        if idx == len(self.levels) - 1:
            u_next, p_next, _ = self.top_kkt.solve(rhs_flux=r_next)
        else:
            u_next, p_next = self.apply(r_next, idx + 2)
        u_face = _face_average(
            level,
            [
                out[:, : grp.n_face_dofs] + u_next[grp.face_ids] @ grp.psi.T
                for grp, out in zip(groups, face_out)
            ],
        )
        return u_face, p_next
