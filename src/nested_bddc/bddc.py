"""BDDC components per level and the multilevel preconditioner application.

Each subdomain has one local saddle problem, the interior KKT ``K_I``
(interior flux dofs, local pressures, mean-zero gauge).  It serves the
interior pre-correction, and it condenses the subdomain onto its faces:
with ``M_F`` the interior rows coupled to the face dofs, ``-K_I^-1 M_F``
is the discrete harmonic extension of face values (interior flux and
pressure), and ``S = A_FF - M_F^T K_I^-1 M_F`` the face Schur complement.
``K_I`` is symmetric, so the face rows ``-M_F^T K_I^-1 [r_I; f]`` that
an interior solve adds to a residual are its data rows times the
extension's: ``interior_correction`` returns them with its solution, so
no preconditioner apply multiplies by a level's assembled ``A`` or ``B``.
Step 2 of the nested solve is the extension of the prolonged face values
(``prolong_average``) plus ``K_I^-1 [0; f]``, which
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
pre-corrects any residual with the interior KKT solves, adds their face
residual to the residual's face rows, and which the recursion calls on
every coarser level.  Step 3 of the nested solve hands its start level's
``_apply`` pre-corrected residuals directly (see
``nested_driver.step3_correction``) and iterates on face fluxes and
per-subdomain values with the level's condensed products:
``schur_product``, ``net``, ``net_t`` and ``face_divergence_defect``.
The divergence of a harmonic extension is the cell area times the
subdomain's net face flux over the subdomain's area, so it is one value
per subdomain.

On the uniform grid a subdomain's interior KKT is fixed by the element
matrices of its cells, that is by their rows of the level's element
class table (``Rt0System.elem_class``), its face operators also by which
of its four faces exist.  All subdomains of a level share one
local numbering, ``LevelDecomposition.local_slots``, so the template's
entries are located once (``mesh_fem.element_triplets``) and all cell
patterns are scattered on it together, as one stack of values; each
pattern is factored and condensed onto all four faces by one
``Factorization.solve_leading`` call (``_condense_patterns``).
Subdomains are grouped by cell pattern and present faces, one group kind
per level.  The groups on one set of present faces slice their faces
from their patterns and build their bordered face systems as one stack;
each system is inverted on its own, and each group keeps its own copy
of its operators (``_face_operators``).  A group keeps one row of index
arrays and of face weights (``hierarchy.compute_weights``) per member,
as views of the level's copy layout: every group's face copies, one row
per member, in one buffer.  Each face product (the Schur product, the dual
correction, the restriction, the prolongation) writes its groups'
rows in place into one such buffer.  Every face lies between two
subdomains, so a sum of the members' face copies (the Schur product,
the averaging, the restriction) adds two entries of the buffer,
located once at build (``_copy_pairs``).  How blocks are stored
and solved, by size class, is decided in ``saddle_core``
(``DENSE_LIMIT``); the cell patterns' interior blocks are scattered
straight into the storage of their class: one dense stack, or one CSR
per pattern above ``DENSE_LIMIT``.

``MultilevelPreconditioner.build`` owns the level list: it makes the
decompositions from the fine grid, and each level's system is the coarse
problem of the level below.  The coarse problem has the same quad-grid
mixed structure (one flux dof per face, one pressure per subdomain,
divergence entries +-H), which is what makes the recursion possible.
Its element class table has one row per group of the level below, the
group's basis energies, and each subdomain's group as its class.

Subdomain work within one level is independent (levels are inherently
sequential); all scatter reductions run in a fixed order, so results are
reproducible run to run.  Built components are immutable during apply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .hierarchy import LevelDecomposition, build_hierarchy, compute_weights
from .mesh_fem import (
    SLOT_BOTTOM,
    SLOT_LEFT,
    Rt0System,
    _unique_rows,
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


@dataclass(eq=False)
class _Group:
    """Subdomains sharing one set of present faces and one cell pattern.

    ``kkt`` is the pattern's interior KKT, which the interior correction
    solves in batches, one row of data per member.  Face data run face by
    face in ``idx_face`` (level dofs) and ``face_pos`` (positions in the
    level's face vector): the ``k``-th present face (slot
    ``face_slots[k]``) holds columns ``k ratio`` to ``(k + 1) ratio - 1``.
    ``ext`` holds the pattern's extension rows of these faces and
    ``schur`` its Schur complement ``S`` on them.  The inverse of the
    bordered face system ``[S C^T; C 0]``, with ``C`` the face averages,
    gives ``dual``, the dual face operator (zero face averages), and the
    energy-minimal basis ``psi``, one column per face with unit average
    there and zero on the others; its energy ``coarse_elem`` is
    ``psi^T S psi`` (``_face_operators``).  ``ext``, ``schur``, ``dual``
    and ``psi`` are the group's own arrays, not views of a stack: a BLAS
    product may round differently when an operand starts at another
    alignment.

    The level lays every group's face copies out in one buffer
    (``LevelBddc``): ``face_span`` and ``dof_span`` are the group's slices
    of it, one row per member, and ``face_ids``, ``face_pos``, the face
    weights ``w`` and the index rows ``idx_face``, ``idx_int`` (interior
    dofs) and ``idx_cells`` are views of the level's arrays.
    """

    subs: np.ndarray
    kkt: KktSystem
    face_slots: np.ndarray
    ext: np.ndarray
    schur: np.ndarray
    dual: np.ndarray
    psi: np.ndarray
    coarse_elem: np.ndarray
    face_span: slice
    dof_span: slice
    face_ids: np.ndarray
    face_pos: np.ndarray
    w: np.ndarray
    idx_face: np.ndarray
    idx_int: np.ndarray
    idx_cells: np.ndarray

    def __post_init__(self):
        self.n_faces = len(self.face_slots)
        self.n_face_dofs = self.idx_face.shape[1]
        self.n_int = self.idx_int.shape[1]
        self.n_cells = self.idx_cells.shape[1]

    def face_rows(self, copies: np.ndarray) -> np.ndarray:
        """The members' rows, one entry per present face, of a level's face-copy buffer (a view)."""
        return copies[self.face_span].reshape(self.face_ids.shape)

    def dof_rows(self, copies: np.ndarray) -> np.ndarray:
        """The members' rows, one entry per face dof, of a level's dof-copy buffer (a view)."""
        return copies[self.dof_span].reshape(self.face_pos.shape)


def _condense_patterns(system: Rt0System, decomp: LevelDecomposition, cells: np.ndarray):
    """The local problem of each cell pattern, condensed onto its four faces.

    ``cells`` holds one row per pattern, the cells of a subdomain on it.
    Returns the patterns' interior KKTs ``K_I`` on the template
    ``local_slots``, factored, so a singular local problem is rejected
    before any apply, and two stacks, one entry per pattern.  With
    ``M_F = [A_IF; B_F]`` the rows of ``K_I`` coupled to the ``4 ratio``
    face dofs, ``ext`` holds ``-(K_I^-1 M_F)^T`` (the harmonic extension:
    row ``f`` of face values extends to the interior flux, first ``n_int``
    entries, and pressure ``f @ ext``), one ``solve_leading`` call per
    pattern, and ``schur`` the face Schur complement
    ``S = A_FF - M_F^T K_I^-1 M_F``, symmetrised.

    The template's element entries are located once and the values of all
    patterns scattered together: in the dense size class into the dense
    Neumann blocks ``A`` on ``local_slots``, whose interior corners are
    the ``K_I``'s and whose face rows give ``M_F``; above it, each
    pattern's interior entries into one CSR and only the face rows into
    dense arrays.  ``B`` carries no coefficient, so all patterns share one
    ``B^T``.
    """
    slots, n_int = decomp.local_slots, decomp.interior_by_sub.shape[1]
    (n_pat, n_cells), n_loc = cells.shape, n_int + 4 * decomp.face_dofs.shape[1]
    # The patterns' element matrices along the last axis: one column of values each.
    blocks = np.moveaxis(system.elem_table[system.elem_class[cells]], 0, -1)
    (m_val, m_row, m_col), (d_val, d_row, d_col) = element_triplets(slots, blocks, system.grid.h)
    m_val = m_val.T
    dense = n_int + n_cells + 1 <= DENSE_LIMIT
    first = 0 if dense else n_int
    a = _dense_rows(m_val, m_row, m_col, first, (n_loc - first, n_loc))
    bt = _dense_rows(d_val, d_col, d_row, first, (n_loc - first, n_cells))
    if dense:
        b_int = np.ascontiguousarray(bt[:n_int].T)
        kkt_blocks = [(a_p[:n_int, :n_int], b_int) for a_p in a]
    else:
        # A_II above B_I, one CSR from the interior entries.
        on, d_on = (m_row < n_int) & (m_col < n_int), d_col < n_int
        rows = np.concatenate([m_row[on], n_int + d_row[d_on]])
        cols = np.concatenate([m_col[on], d_col[d_on]])
        a_b = [
            sp.csr_matrix((np.concatenate([v[on], d_val[d_on]]), (rows, cols)), shape=(n_int + n_cells, n_int))
            for v in m_val
        ]
        kkt_blocks = [(m[:n_int], m[n_int:]) for m in a_b]
    kkts = [KktSystem(*blk, gauge=system.areas[c]) for blk, c in zip(kkt_blocks, cells)]
    a_f, b_ft = a[:, n_int - first :], bt[n_int - first :]
    coupling = np.concatenate([a_f[:, :, :n_int], np.broadcast_to(b_ft, (n_pat, *b_ft.shape))], axis=2)
    ext = -np.stack([kkt.factorization.solve_leading(m, n_int + n_cells) for kkt, m in zip(kkts, coupling)])
    schur = a_f[:, :, n_int:] + np.matmul(coupling, ext.transpose(0, 2, 1))
    return kkts, ext, 0.5 * (schur + schur.transpose(0, 2, 1))


def _face_operators(ext, schur, pats: np.ndarray, face_slots: np.ndarray, ratio: int) -> list[tuple]:
    """Face operators of the groups on one set of present faces, one tuple per group.

    ``ext`` and ``schur`` are the stacks of ``_condense_patterns`` and
    ``pats`` the groups' entries there.  The groups' bordered face systems
    ``[S C^T; C 0]`` are built as one stack, and each is factored on its
    own.  A tuple holds the group's extension rows, ``S``, ``dual``,
    ``psi`` and ``coarse_elem``, the fields of ``_Group`` that follow
    ``face_slots``, in order; the four operators the level apply multiplies
    by are the group's own copies, not views of a stack.
    """
    rows = (face_slots[:, None] * ratio + np.arange(ratio)).ravel()
    n_f, n_faces = len(rows), len(face_slots)
    size = n_f + n_faces  # 0 on a level of one subdomain, which has no faces
    s_f = schur[pats[:, None, None], rows[:, None], rows]
    # The bordered face systems; the face averages C are their last rows.
    face_kkt = np.zeros((len(pats), size, size))
    face_kkt[:, :n_f, :n_f] = s_f
    face_kkt[:, n_f:, :n_f] = np.repeat(np.eye(n_faces), ratio, axis=1) / ratio
    face_kkt[:, :n_f, n_f:] = face_kkt[0, n_f:, :n_f].T
    inv = np.stack([Factorization(m).solve(np.eye(size)) for m in face_kkt]) if size else face_kkt
    psi = np.ascontiguousarray(inv[:, :n_f, n_f:])
    coarse = np.matmul(np.matmul(psi.transpose(0, 2, 1), s_f), psi)
    return [
        (ext[pat, rows], s.copy(), inv_g[:n_f, :n_f].copy(), p.copy(), c)
        for pat, s, inv_g, p, c in zip(pats, s_f, inv, psi, coarse)
    ]


def _dense_rows(values, rows, cols, first: int, shape) -> np.ndarray:
    """Dense rows ``first`` on of a block given by its entries, summed.

    The last axis of ``values`` runs over the entries; a leading axis
    gives a stack of blocks, one per row of ``values``.
    """
    on = rows >= first
    values, size = values[..., on], shape[0] * shape[1]
    n_blocks = math.prod(values.shape[:-1])
    flat = np.arange(n_blocks)[:, None] * size + (rows[on] - first) * shape[1] + cols[on]
    # bincount returns integers when there is nothing to add
    summed = np.bincount(flat.ravel(), values.ravel(), minlength=n_blocks * size)
    return summed.astype(float, copy=False).reshape(*values.shape[:-1], *shape)


def _copy_pairs(n: int, pos: np.ndarray, high: np.ndarray) -> np.ndarray:
    """Positions of the two copies of each of ``n`` entries in a level's copy buffer.

    ``pos`` holds each copy's entry and ``high`` whether its subdomain is
    the entry's higher one.  Every face, and so every face dof, lies
    between two subdomains: row 0 of the result holds the lower one's
    copy, row 1 the higher one's.
    """
    pairs = np.empty(2 * n, dtype=np.intp)
    pairs[high * n + pos] = np.arange(pos.size)
    return pairs.reshape(2, n)


def _pair_sum(pairs: np.ndarray, copies: np.ndarray) -> np.ndarray:
    """Sum of each entry's two copies in a copy buffer (``_copy_pairs``)."""
    return copies[pairs[0]] + copies[pairs[1]]


@dataclass
class LevelBddc:
    """All BDDC components of one decomposition level.

    Besides the groups, a level keeps what the divergence of a harmonic
    extension needs: ``net``, each subdomain's net face flux (``B``'s face
    columns summed over its cells, one row per subdomain and one column
    per entry of the face vector), and its transpose ``net_t``.  The
    extension's divergence on a cell is the cell's area over the
    subdomain's area ``sub_areas`` times the net flux, so its norm on the
    subdomain is ``div_norm`` times the net flux, with ``div_norm`` the
    norm of the cells' areas over ``sub_areas``.
    The step-3 residual norm also uses ``b_int``, the interior divergence
    block ``B_I`` that all subdomains share (template order), and
    ``face_bt``, the face rows of ``B^T``.

    Each subdomain holds a copy of each of its faces and face dofs.  The
    level lays the copies out once, group after group, one row per
    member: ``copy_faces`` holds each face copy's face, ``copy_pos`` each
    face-dof copy's position in the face vector and ``copy_w`` its face
    weight (``hierarchy.compute_weights``), ``w_lo`` where the member is a
    face's lower subdomain and ``1 - w_lo`` where it is the higher one.
    A buffer of face copies or of face-dof copies in this layout takes
    each group's products in place (``_Group.face_rows``,
    ``_Group.dof_rows``).  ``face_pairs`` and ``dof_pairs`` locate the two
    copies of each face and face dof (``_copy_pairs``), so a sum over
    subdomains is one addition per entry (``_pair_sum``).
    """

    system: Rt0System
    decomp: LevelDecomposition
    groups: list[_Group]
    b_int: object
    face_bt: sp.csr_matrix
    net: sp.csc_matrix
    net_t: sp.csr_matrix
    sub_areas: np.ndarray
    div_norm: np.ndarray
    copy_faces: np.ndarray
    copy_pos: np.ndarray
    copy_w: np.ndarray
    face_pairs: np.ndarray
    dof_pairs: np.ndarray

    def extend(self, u_face: np.ndarray):
        """Harmonic extension of face values ``u_face``: level flux and pressure.

        The flux holds ``u_face`` on the faces and each subdomain's
        extension inside; the pressure is each extension's gauged pressure.
        """
        u = np.zeros(self.system.n_flux)
        u[self.decomp.face_dofs.ravel()] = u_face
        p = np.empty(self.system.n_pressure)
        copies = u_face[self.copy_pos]
        for grp in self.groups:
            out = grp.dof_rows(copies) @ grp.ext
            u[grp.idx_int], p[grp.idx_cells] = out[:, : grp.n_int], out[:, grp.n_int :]
        return u, p

    def extend_pressure(self, u_face: np.ndarray) -> np.ndarray:
        """The pressure of ``extend(u_face)`` alone, from the extension's pressure columns."""
        p = np.empty(self.system.n_pressure)
        copies = u_face[self.copy_pos]
        for grp in self.groups:
            p[grp.idx_cells] = grp.dof_rows(copies) @ grp.ext[:, grp.n_int :]
        return p

    def schur_product(self, u_face: np.ndarray) -> np.ndarray:
        """Sum of the subdomains' face Schur complements times ``u_face``."""
        copies = u_face[self.copy_pos]
        out = np.empty_like(copies)
        for grp in self.groups:
            np.matmul(grp.dof_rows(copies), grp.schur, out=grp.dof_rows(out))
        return _pair_sum(self.dof_pairs, out)

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
    classed by their row of the system's element table, so members of a
    group have bit-identical local matrices.  All cell patterns are
    assembled and condensed onto their four faces together, each factored
    once (``_condense_patterns``); the groups that share a set of present
    faces slice theirs and get their face operators together
    (``_face_operators``).
    """
    classes = system.elem_class[decomp.cells_by_sub]
    first, pattern = _unique_rows(classes)
    kkts, ext, schur = _condense_patterns(system, decomp, decomp.cells_by_sub[first])
    present = decomp.faces_by_sub >= 0
    members = _groups(np.hstack([present, classes]))
    heads = np.array([subs[0] for subs in members])
    ratio = decomp.face_dofs.shape[1]
    # The groups' face operators, one set of present faces at a time.
    ops = [None] * len(members)
    face_sets, set_of = _unique_rows(present[heads])
    for k, head in enumerate(heads[face_sets]):
        ks = np.flatnonzero(set_of == k)
        face_slots = np.flatnonzero(present[head])
        for g, op in zip(ks, _face_operators(ext, schur, pattern[heads[ks]], face_slots, ratio)):
            ops[g] = face_slots, op
    # The face copies, group after group, one row per member.
    order = np.concatenate(members)
    live = present[order]
    copy_faces = decomp.faces_by_sub[order][live]
    # A face's normal points into the members on their left and bottom
    # faces: there they are the higher subdomain.
    high = np.isin(np.nonzero(live)[1], (SLOT_LEFT, SLOT_BOTTOM))
    w_lo = compute_weights(decomp, system.elem_table, system.elem_class, gamma)[copy_faces]
    copy_pos = (copy_faces[:, None] * ratio + np.arange(ratio)).ravel()
    copy_w = np.repeat(np.where(high, 1.0 - w_lo, w_lo), ratio)
    idx_face = decomp.face_dofs.ravel()[copy_pos]
    idx_int, idx_cells = decomp.interior_by_sub[order], decomp.cells_by_sub[order]
    groups, row, start = [], 0, 0
    for subs, (face_slots, face_ops) in zip(members, ops):
        n, stop = len(subs), start + len(subs) * len(face_slots)
        span = slice(start * ratio, stop * ratio)
        groups.append(
            _Group(
                subs,
                kkts[pattern[subs[0]]],
                face_slots,
                *face_ops,
                face_span=slice(start, stop),
                dof_span=span,
                face_ids=copy_faces[start:stop].reshape(n, -1),
                face_pos=copy_pos[span].reshape(n, -1),
                w=copy_w[span].reshape(n, -1),
                idx_face=idx_face[span].reshape(n, -1),
                idx_int=idx_int[row : row + n],
                idx_cells=idx_cells[row : row + n],
            )
        )
        row, start = row + n, stop
    areas = system.areas[decomp.cells_by_sub]
    sub_areas = areas.sum(axis=1)
    # B's entries in the column of an edge: -h on its lower cell, +h on its
    # higher one (SLOT_SIGNS); a face dof's two cells lie in its face's two
    # subdomains.
    face_dofs = decomp.face_dofs.ravel()
    signs = np.tile([-system.grid.h, system.grid.h], len(face_dofs))
    pairs = np.arange(0, signs.size + 1, 2)
    face_subs = np.repeat(decomp.sub_grid.edge_sides, ratio, axis=0)
    net = sp.csc_matrix((signs, face_subs.ravel(), pairs), (decomp.n_sub, len(face_dofs)))
    return LevelBddc(
        system=system,
        decomp=decomp,
        groups=groups,
        # B carries no coefficient: every interior KKT has the first one's B_I.
        b_int=kkts[0].b_block,
        face_bt=sp.csr_matrix(
            (signs, np.take(system.grid.edge_sides, face_dofs, axis=0).ravel(), pairs),
            (len(face_dofs), system.n_pressure),
        ),
        net=net,
        net_t=net.T.tocsr(),
        sub_areas=sub_areas,
        div_norm=np.linalg.norm(areas, axis=1) / sub_areas,
        copy_faces=copy_faces,
        copy_pos=copy_pos,
        copy_w=copy_w,
        face_pairs=_copy_pairs(decomp.n_faces, copy_faces, high),
        dof_pairs=_copy_pairs(len(face_dofs), copy_pos, np.repeat(high, ratio)),
    )


def assemble_coarse_problem(level: LevelBddc) -> Rt0System:
    """Galerkin coarse system on the subdomain grid.

    Flux block entries come from the basis energies, one element matrix
    per group (its members share them): the group's ``coarse_elem`` in its
    present face slots, zero in the others.  The divergence block is the
    exact +-(face length) pattern of the coarse grid, which reproduces the
    subdomain-integrated divergence of any basis combination.
    """
    decomp = level.decomp
    elem_table = np.zeros((len(level.groups), 4, 4))
    elem_class = np.empty(decomp.n_sub, dtype=np.intp)
    for k, grp in enumerate(level.groups):
        elem_table[k][np.ix_(grp.face_slots, grp.face_slots)] = grp.coarse_elem
        elem_class[grp.subs] = k
    return assemble_system(decomp.sub_grid, elem_table, elem_class)


def interior_correction(level: LevelBddc, r=None, rhs_div=None):
    """Independent subdomain saddle solves with zero interface data, and their face residual.

    Solves for interior fluxes and local pressures with the flux residual
    ``r`` and per-cell divergence data ``rhs_div`` (either may be left
    out, not both) as right-hand side; the divergence of the correction is
    balanced against all local mean-zero pressures.  Given divergence data
    alone, only the subdomains whose data is nonzero are solved: the
    others' solution is zero.

    Returns ``(u, p, r_face)``, with ``r_face`` the face rows of
    ``-(A u + B^T p)`` in the level's face-vector order.  On a subdomain
    they are ``-M_F^T K_I^-1 [r_I; f]``, and ``K_I`` is symmetric, so they
    are the data rows the solve takes times the extension rows ``ext``,
    summed over each face dof's two copies.
    """
    if r is None and rhs_div is None:
        raise BddcError("interior_correction needs a flux residual r or divergence data rhs_div")
    u = np.zeros(level.system.n_flux)
    p = np.zeros(level.system.n_pressure)
    copies = np.zeros(level.copy_pos.size)
    for grp in level.groups:
        live = slice(None)
        if r is None:
            live = np.any(rhs_div[grp.idx_cells], axis=1)
            if not live.any():
                continue
        idx_int, idx_cells = grp.idx_int[live], grp.idx_cells[live]
        rows = np.zeros(idx_int.shape) if r is None else r[idx_int]
        if rhs_div is not None:
            rows = np.hstack([rows, rhs_div[idx_cells]])
        out = grp.kkt.factorization.solve_leading(rows, grp.n_int + grp.n_cells)
        u[idx_int], p[idx_cells] = out[:, : grp.n_int], out[:, grp.n_int :]
        grp.dof_rows(copies)[live] = rows @ grp.ext[:, : rows.shape[1]].T
    return u, p, _pair_sum(level.dof_pairs, copies)


def _face_average(level: LevelBddc, copies: np.ndarray) -> np.ndarray:
    """Weighted average of subdomain face copies into the level's face vector.

    ``copies`` holds one value per face-dof copy, in the level's
    ``copy_pos`` layout.
    """
    return _pair_sum(level.dof_pairs, level.copy_w * copies)


def prolong_average(level: LevelBddc, u_coarse: np.ndarray) -> np.ndarray:
    """Averaged face values of the coarse basis, in the level's face vector.

    The prolonged flux has zero interiors, so step 2 needs its face values
    alone: its subdomain solves add their harmonic extension.
    """
    coarse = u_coarse[level.copy_faces]
    copies = np.empty(level.copy_pos.size)
    for grp in level.groups:
        np.matmul(grp.face_rows(coarse), grp.psi.T, out=grp.dof_rows(copies))
    return _face_average(level, copies)


@dataclass
class MultilevelPreconditioner:
    """Stack of level components plus the exact top-level factorization.

    ``apply(r, start_level)`` runs the downward sweep (interior
    pre-correction, dual correction on the faces, coarse restriction) from
    the given level to the top, solves the top coarse saddle problem
    exactly, and walks back up (averaging of face values, harmonic
    extension into the interiors as the post-correction).  The output flux
    is divergence-free on the starting level.

    ``_apply`` is the same map without the start level's pre-correction
    and post-correction: it takes a residual whose interior rows the
    pre-correction has already removed and returns face values and the
    coarse pressure per subdomain.  Step 3 of the nested solve calls it
    on its start level.  Each level's ``_apply`` hands its restricted
    residual to ``apply`` on the next level, so coarser levels get
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
        if not 1 <= start_level <= len(self.levels):
            raise BddcError(f"start level {start_level} out of range")
        idx = start_level - 1
        r = np.asarray(r, dtype=float)
        level = self.levels[idx]
        if r.shape != (level.system.n_flux,):
            raise BddcError(
                f"residual of shape {r.shape} on level {start_level}, expected ({level.system.n_flux},)"
            )
        u_int, p, r_face = interior_correction(level, r)
        u_face, p_coarse = self._apply(idx, r[level.decomp.face_dofs.ravel()] + r_face)
        u, p_ext = level.extend(u_face)
        u += u_int
        # The coarse pressure on each subdomain's cells, and the pressure of
        # each subdomain's harmonic extension of the averaged face values.
        p[level.decomp.cells_by_sub] += p_coarse[:, None]
        p += p_ext
        return u, p

    def _apply(self, idx: int, r_face: np.ndarray):
        """One level's face work: averaged face values and the coarse pressure per subdomain.

        ``r_face`` holds a residual's rows in the face vector of level
        ``idx + 1``, after an interior pre-correction has removed its
        interior rows.  ``extend`` of the returned face values on that
        level gives the flux and, on each subdomain, the pressure to which
        the returned coarse pressure and the pre-correction's pressure add.
        """
        level = self.levels[idx]
        # Per group, from the weighted face residuals: dual face values with
        # vanishing face averages, then the restriction coefficients.
        weighted = r_face[level.copy_pos]
        weighted *= level.copy_w
        dual = np.empty_like(weighted)
        coarse = np.empty(level.copy_faces.size)
        for grp in level.groups:
            rows = grp.dof_rows(weighted)
            np.matmul(rows, grp.dual, out=grp.dof_rows(dual))
            np.matmul(rows, grp.psi, out=grp.face_rows(coarse))
        r_next = _pair_sum(level.face_pairs, coarse)
        if idx == len(self.levels) - 1:
            u_next, p_next, _ = self.top_kkt.solve(rhs_flux=r_next)
        else:
            u_next, p_next = self.apply(r_next, idx + 2)
        # The coarse correction through the basis, added to the dual values.
        u_copies = u_next[level.copy_faces]
        for grp in level.groups:
            rows = grp.dof_rows(dual)
            rows += grp.face_rows(u_copies) @ grp.psi.T
        return _face_average(level, dual), p_next
