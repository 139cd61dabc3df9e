"""BDDC components per level and the multilevel preconditioner application.

Per subdomain two local saddle problems are kept: the interior KKT (interior
flux dofs, local pressures, mean-zero gauge) drives the pre/post corrections,
and the constrained KKT (all local flux dofs, local pressures, gauge, one
face-average row per face) drives both the dual substructure correction and
the energy-minimal coarse basis, whose columns realize exactly one coarse
dof each.  Subdomains whose KKT matrices are bit-identical form one group
with one factorization and are solved in batches.

A group whose KKT has at most ``DENSE_LIMIT`` rows turns its dense LU into
a precomputed solution operator once, at build time: the block of the KKT
inverse that maps the used inputs to the used outputs.  Every solve of such
a group in an apply is then one matrix product over all its subdomains; the
constrained group keeps that block beside the coarse basis, so one product
gives the dual correction and the restriction coefficients together.
Larger groups solve against their SuperLU factorization.

The coarse problem assembled from the basis has the same quad-grid mixed
structure as the level below (one flux dof per face, one pressure per
subdomain, divergence entries +-H), which is what makes the recursion in
``MultilevelPreconditioner.apply`` possible.

Subdomain solves within one level are independent (levels are inherently
sequential); all scatter reductions run in a fixed order, so results are
reproducible run to run.  Built components are immutable during apply.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .hierarchy import (
    AveragingWeights,
    LevelDecomposition,
    coarsen_element_values,
)
from .mesh_fem import SLOT_SIGNS, Rt0System, assemble_system
from .saddle_core import DENSE_LIMIT, KktSystem, pressure_gauge

__all__ = [
    "BddcError",
    "SubdomainBlock",
    "LevelBddc",
    "MultilevelPreconditioner",
    "build_level_bddc",
    "assemble_coarse_problem",
    "interior_correction",
    "delta_correction",
]


class BddcError(Exception):
    pass


class _InteriorGroup:
    """Subdomains sharing one interior-KKT factorization.

    A group whose KKT has at most ``DENSE_LIMIT`` rows keeps ``op_t``, the
    transposed flux/pressure block of the KKT inverse: a row of flux and
    divergence data times ``op_t`` is the row of interior fluxes and
    pressures.  Larger groups keep ``op_t = None`` and solve with SuperLU.
    """

    def __init__(self, kkt: KktSystem, n_int: int, n_cells: int):
        self.kkt = kkt
        self.n_int = n_int
        self.n_cells = n_cells
        self.subs: list[int] = []
        self._int = []
        self._cells = []

    def add(self, sub, interior, cells):
        self.subs.append(sub)
        self._int.append(interior)
        self._cells.append(cells)

    def finalize(self):
        self.subs = np.asarray(self.subs)
        self.idx_int = np.vstack(self._int)
        self.idx_cells = np.vstack(self._cells)
        del self._int, self._cells
        self.op_t = None
        if self.kkt.size <= DENSE_LIMIT:
            m = self.n_int + self.n_cells
            inverse = self.kkt.solve_many(np.eye(self.kkt.size, m))
            self.op_t = np.ascontiguousarray(inverse[:m].T)

    def solve(self, flux_rows, div_rows=None):
        """Interior flux and pressure rows for one row of data per subdomain."""
        n_int, m = self.n_int, self.n_int + self.n_cells
        if self.op_t is not None:
            if div_rows is None:
                out = flux_rows @ self.op_t[:n_int]
            else:
                out = np.hstack([flux_rows, div_rows]) @ self.op_t
        else:
            rhs = np.zeros((self.kkt.size, len(self.subs)))
            rhs[:n_int] = flux_rows.T
            if div_rows is not None:
                rhs[n_int:m] = div_rows.T
            out = self.kkt.solve_many(rhs)[:m].T
        return out[:, :n_int], out[:, n_int:]


class _DeltaGroup:
    """Subdomains sharing one constrained-KKT factorization and basis."""

    def __init__(self, kkt, n_loc, n_cells, face_slots, a_local, b_local, c_block):
        self.kkt = kkt
        self.n_loc = n_loc
        self.n_cells = n_cells
        self.face_slots = face_slots  # slot indices of the present faces
        self.n_faces = len(face_slots)
        self.a_local = a_local
        self.b_local = b_local
        self.c_block = c_block
        self.subs: list[int] = []
        self._loc = []
        self._w = []
        self._faces = []

    def add(self, sub, local, w, face_ids):
        self.subs.append(sub)
        self._loc.append(local)
        self._w.append(w)
        self._faces.append(face_ids)

    def finalize(self):
        self.subs = np.asarray(self.subs)
        self.idx_loc = np.vstack(self._loc)
        self.w = np.vstack(self._w)
        self.face_ids = (
            np.vstack(self._faces) if self.n_faces else np.empty((len(self.subs), 0), dtype=int)
        )
        del self._loc, self._w, self._faces
        # Energy-minimal basis: one column per face, unit coarse dof each.
        # A dense group takes its flux block of the KKT inverse from the same
        # solve and keeps it beside the basis as one [op | psi] matrix.
        n_op = self.n_loc if self.kkt.size <= DENSE_LIMIT else 0
        off = self.n_loc + self.n_cells + 1
        cols = np.r_[:n_op, off : off + self.n_faces]
        rhs = np.zeros((self.kkt.size, len(cols)))
        rhs[cols, np.arange(len(cols))] = 1.0
        sol = self.kkt.solve_many(rhs)
        self.psi = sol[: self.n_loc, n_op:]
        self.basis_pressure = sol[self.n_loc : self.n_loc + self.n_cells, n_op:]
        self.op_psi = np.hstack([sol[:n_op, :n_op].T, self.psi]) if n_op else None
        a_psi = self.a_local @ self.psi
        self.coarse_elem = np.asarray(self.psi.T @ a_psi)

    def solve(self, weighted):
        """Dual corrections and restriction coefficients, one row per subdomain."""
        if self.op_psi is not None:
            out = weighted @ self.op_psi
            return out[:, : self.n_loc], out[:, self.n_loc :]
        rhs = np.zeros((self.kkt.size, len(self.subs)))
        rhs[: self.n_loc] = weighted.T
        return self.kkt.solve_many(rhs)[: self.n_loc].T, weighted @ self.psi


@dataclass
class SubdomainBlock:
    """Per-subdomain views into the shared level data."""

    sub: int
    local_dofs: np.ndarray
    interior_dofs: np.ndarray
    cells: np.ndarray
    face_ids: np.ndarray
    face_cols: list[np.ndarray]
    weights: np.ndarray
    interior_group: _InteriorGroup
    delta_group: _DeltaGroup

    @property
    def interior_kkt(self) -> KktSystem:
        return self.interior_group.kkt

    @property
    def delta_kkt(self) -> KktSystem:
        return self.delta_group.kkt

    @property
    def a_local(self):
        return self.delta_group.a_local

    @property
    def b_local(self):
        return self.delta_group.b_local

    @property
    def c_block(self):
        return self.delta_group.c_block

    @property
    def coarse_basis(self) -> np.ndarray:
        return self.delta_group.psi


@dataclass
class LevelBddc:
    """All BDDC components of one decomposition level."""

    system: Rt0System
    decomp: LevelDecomposition
    weights: AveragingWeights
    blocks: list[SubdomainBlock]
    interior_groups: list[_InteriorGroup]
    delta_groups: list[_DeltaGroup]

    @property
    def n_flux(self) -> int:
        return self.system.n_flux

    @property
    def n_pressure(self) -> int:
        return self.system.n_pressure


def _bytes_key(*blocks) -> tuple:
    key = []
    for b in blocks:
        if b is None:
            key.append(b"none")
        elif sp.issparse(b):
            c = b.tocsr()
            key.extend((c.data.tobytes(), c.indices.tobytes(), c.indptr.tobytes()))
        else:
            arr = np.ascontiguousarray(b)
            key.extend((arr.shape, arr.tobytes()))
    return tuple(key)


def build_level_bddc(
    system: Rt0System, decomp: LevelDecomposition, weights: AveragingWeights
) -> LevelBddc:
    grid = system.grid
    slots_all = grid.cell_dof_slots
    blocks: list[SubdomainBlock] = []
    int_groups: dict = {}
    delta_groups: dict = {}

    for s in range(decomp.n_sub):
        local = decomp.local_dofs_by_sub[s]
        interior = decomp.interior_by_sub[s]
        cells = decomp.cells_by_sub[s]
        n_loc = len(local)
        n_cells = len(cells)

        cell_slots = slots_all[cells]
        present = cell_slots >= 0
        loc_pos = np.zeros_like(cell_slots)
        loc_pos[present] = np.searchsorted(local, cell_slots[present])

        own = decomp.faces_by_sub[s]
        face_slots = tuple(int(k) for k in np.flatnonzero(own >= 0))
        face_ids = own[own >= 0]
        face_cols = [np.searchsorted(local, decomp.face_dofs[f]) for f in face_ids]

        kkt_size = n_loc + n_cells + 1 + len(face_ids)
        dense = kkt_size <= DENSE_LIMIT

        pair = present[:, :, None] & present[:, None, :]
        rows = np.broadcast_to(loc_pos[:, :, None], pair.shape)[pair]
        cols = np.broadcast_to(loc_pos[:, None, :], pair.shape)[pair]
        vals = system.elem_mass[cells][pair]
        brow = np.broadcast_to(np.arange(n_cells)[:, None], cell_slots.shape)[present]
        bcol = loc_pos[present]
        bval = np.broadcast_to(SLOT_SIGNS * grid.h, cell_slots.shape)[present]
        if dense:
            a_local = np.zeros((n_loc, n_loc))
            np.add.at(a_local, (rows, cols), vals)
            b_local = np.zeros((n_cells, n_loc))
            b_local[brow, bcol] = bval
            c_block = None
            if len(face_ids):
                c_block = np.zeros((len(face_ids), n_loc))
                for r, pos in enumerate(face_cols):
                    c_block[r, pos] = 1.0 / len(pos)
        else:
            a_local = sp.coo_matrix((vals, (rows, cols)), shape=(n_loc, n_loc)).tocsr()
            b_local = sp.coo_matrix((bval, (brow, bcol)), shape=(n_cells, n_loc)).tocsr()
            c_block = None
            if len(face_ids):
                cr = np.concatenate([np.full(len(p), r) for r, p in enumerate(face_cols)])
                cc = np.concatenate(face_cols)
                cv = np.concatenate([np.full(len(p), 1.0 / len(p)) for p in face_cols])
                c_block = sp.coo_matrix((cv, (cr, cc)), shape=(len(face_ids), n_loc)).tocsr()

        gauge = system.areas[cells]
        int_pos = np.searchsorted(local, interior)
        if dense:
            a_int = a_local[np.ix_(int_pos, int_pos)]
            b_int = b_local[:, int_pos]
        else:
            a_int = a_local[int_pos][:, int_pos]
            b_int = b_local[:, int_pos].tocsr()

        ikey = _bytes_key(a_int, b_int, gauge)
        igrp = int_groups.get(ikey)
        if igrp is None:
            igrp = _InteriorGroup(
                KktSystem(a_int, b_int, gauge=gauge), len(interior), n_cells
            )
            int_groups[ikey] = igrp
        igrp.add(s, interior, cells)

        dkey = (face_slots,) + _bytes_key(a_local, b_local, gauge, c_block)
        dgrp = delta_groups.get(dkey)
        if dgrp is None:
            dgrp = _DeltaGroup(
                KktSystem(a_local, b_local, gauge=gauge, c_block=c_block),
                n_loc,
                n_cells,
                face_slots,
                a_local,
                b_local,
                c_block,
            )
            delta_groups[dkey] = dgrp
        dgrp.add(s, local, weights.per_sub[s], face_ids)

        blocks.append(
            SubdomainBlock(
                sub=s,
                local_dofs=local,
                interior_dofs=interior,
                cells=cells,
                face_ids=face_ids,
                face_cols=face_cols,
                weights=weights.per_sub[s],
                interior_group=igrp,
                delta_group=dgrp,
            )
        )

    for grp in int_groups.values():
        grp.finalize()
    for grp in delta_groups.values():
        grp.finalize()
    return LevelBddc(
        system=system,
        decomp=decomp,
        weights=weights,
        blocks=blocks,
        interior_groups=list(int_groups.values()),
        delta_groups=list(delta_groups.values()),
    )


def assemble_coarse_problem(level: LevelBddc) -> Rt0System:
    """Galerkin coarse system on the subdomain grid.

    Flux block entries come from the basis energies; the divergence block is
    the exact +-(face length) pattern of the coarse grid, which reproduces
    the subdomain-integrated divergence of any basis combination.
    """
    decomp = level.decomp
    n_sub = decomp.n_sub
    elem_mass = np.zeros((n_sub, 4, 4))
    for grp in level.delta_groups:
        if grp.n_faces:
            ix = np.ix_(grp.face_slots, grp.face_slots)
            for s in grp.subs:
                elem_mass[s][ix] = grp.coarse_elem
    elem_k = coarsen_element_values(decomp, level.system.elem_k)
    return assemble_system(decomp.sub_grid, elem_mass, elem_k)


def interior_correction(level: LevelBddc, r: np.ndarray, rhs_div=None):
    """Independent subdomain saddle solves with zero interface data.

    Solves for interior fluxes and local pressures with the flux residual
    ``r`` (and optionally per-cell divergence data) as right-hand side; the
    divergence of the correction is balanced against all local mean-zero
    pressures.
    """
    u = np.zeros(level.n_flux)
    p = np.zeros(level.n_pressure)
    for grp in level.interior_groups:
        div_rows = None if rhs_div is None else rhs_div[grp.idx_cells]
        u[grp.idx_int], p[grp.idx_cells] = grp.solve(r[grp.idx_int], div_rows)
    return u, p


def _delta_solve(level: LevelBddc, r_B: np.ndarray):
    """Constrained subdomain solves against the weighted residual.

    One ``(group, dual corrections, restriction coefficients)`` per group.
    """
    return [(grp, *grp.solve(grp.w * r_B[grp.idx_loc])) for grp in level.delta_groups]


def delta_correction(level: LevelBddc, r_B: np.ndarray) -> list[np.ndarray]:
    """Substructure correction with vanishing face averages, one local vector per subdomain."""
    out: list[np.ndarray] = [None] * level.decomp.n_sub
    for grp, w_delta, _ in _delta_solve(level, r_B):
        for row, s in enumerate(grp.subs):
            out[s] = w_delta[row]
    return out


def _scatter_add(n: int, pairs) -> np.ndarray:
    """Length-n vector summing each (indices, values) pair, in the order given."""
    idx = np.concatenate([i.ravel() for i, _ in pairs])
    vals = np.concatenate([v.ravel() for _, v in pairs])
    return np.bincount(idx, vals, minlength=n)


def _restrict(level: LevelBddc, delta_out) -> np.ndarray:
    return _scatter_add(
        level.decomp.n_faces, [(grp.face_ids, coeffs) for grp, _, coeffs in delta_out]
    )


def _average(level: LevelBddc, delta_out, u_next: np.ndarray) -> np.ndarray:
    pairs = []
    for grp, w_delta, _ in delta_out:
        t = w_delta
        if grp.n_faces:
            t = t + u_next[grp.face_ids] @ grp.psi.T
        pairs.append((grp.idx_loc, grp.w * t))
    return _scatter_add(level.n_flux, pairs)


def prolong_average(level: LevelBddc, u_coarse: np.ndarray) -> np.ndarray:
    """Continuous level vector from coarse dof values: basis columns, then averaging."""
    return _scatter_add(
        level.n_flux,
        [
            (grp.idx_loc, grp.w * (u_coarse[grp.face_ids] @ grp.psi.T))
            for grp in level.delta_groups
        ],
    )


def inject_pressure(level: LevelBddc, p_coarse: np.ndarray) -> np.ndarray:
    """Subdomain-constant pressure from one value per subdomain."""
    p = np.zeros(level.n_pressure)
    for grp in level.interior_groups:
        p[grp.idx_cells.ravel()] = np.repeat(p_coarse[grp.subs], grp.n_cells)
    return p


@dataclass
class MultilevelPreconditioner:
    """Stack of level components plus the exact top-level factorization.

    ``apply(r, start_level)`` runs the downward sweep (interior
    pre-correction, dual correction, coarse restriction) from the given
    level to the top, solves the top coarse saddle problem exactly, and
    walks back up (averaging, interior post-correction, combination).  The
    output flux is divergence-free on the starting level.
    """

    levels: list[LevelBddc]
    top_system: Rt0System
    top_kkt: KktSystem

    @classmethod
    def build(cls, system: Rt0System, decomps, gamma: float) -> "MultilevelPreconditioner":
        from .hierarchy import compute_weights

        levels = []
        values = system.elem_k
        current = system
        for decomp in decomps:
            if decomp.grid.n_flux != current.n_flux:
                raise BddcError("decomposition does not match the level system")
            weights = compute_weights(decomp, values, gamma)
            level = build_level_bddc(current, decomp, weights)
            levels.append(level)
            current = assemble_coarse_problem(level)
            values = current.elem_k
        top_kkt = KktSystem(current.A, current.B, gauge=pressure_gauge(current.areas))
        return cls(levels=levels, top_system=current, top_kkt=top_kkt)

    @property
    def n_levels(self) -> int:
        return len(self.levels) + 1

    def system_at(self, level_number: int) -> Rt0System:
        """Assembled system of the given level (1-based; top included)."""
        if level_number == len(self.levels) + 1:
            return self.top_system
        return self.levels[level_number - 1].system

    def apply(self, r: np.ndarray, start_level: int = 1):
        if not 1 <= start_level <= len(self.levels):
            raise BddcError(f"start level {start_level} out of range")
        return self._apply(start_level - 1, np.asarray(r, dtype=float))

    def _apply(self, idx: int, r: np.ndarray):
        level = self.levels[idx]
        a_mat, b_mat = level.system.A, level.system.B
        u_int, p_int = interior_correction(level, r)
        r_b = r - a_mat @ u_int - b_mat.T @ p_int
        delta_out = _delta_solve(level, r_b)
        r_next = _restrict(level, delta_out)
        if idx == len(self.levels) - 1:
            sol = self.top_kkt.solve(rhs_flux=r_next)
            u_next, p_next = sol.flux, sol.pressure
        else:
            u_next, p_next = self._apply(idx + 1, r_next)
        u_b = _average(level, delta_out, u_next)
        p_0 = inject_pressure(level, p_next)
        v_int, q_int = interior_correction(level, a_mat @ u_b, b_mat @ u_b)
        return u_int + u_b - v_int, p_int + p_0 - q_int

