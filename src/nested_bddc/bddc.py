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
dofs in ``decomp.face_dofs`` order, which the level's copy layout indexes
(``LevelBddc.copy_pos``): ``MultilevelPreconditioner._apply`` takes the
face rows of a pre-corrected residual and returns the averaged face values
and the coarse pressure, one value per subdomain.  One call,
``LevelBddc.extend``, gives the harmonic extension of face values: the
flux in the interiors and each subdomain's pressure.  On every coarser
level the recursion runs the whole level pass in the level's workspace
(``MultilevelPreconditioner._descend``): the interior KKT solves of the
pre-correction go into the level's result block, their face residual
joins the residual's face rows, and the extension of the returned face
values and the coarse pressure add to the block, which the finer level
then gathers from.  So no level vector is formed inside an iteration; the
public ``apply`` is that pass followed by the level's one scatter of rows
and face values into flux and pressure (``LevelBddc._scatter``).  Step 3
of the nested solve hands its start level's ``_apply`` pre-corrected
residuals directly (see ``nested_driver.step3_correction``) and iterates
on face fluxes and per-subdomain values with the level's condensed
products: ``schur_product``, ``net_flux`` and ``face_divergence_defect``.
The divergence of a harmonic extension is the cell area times the
subdomain's net face flux over the subdomain's area, so it is one value
per subdomain.  The net face flux is the coarse grid's divergence of the
face averages, as the coarse problem has the fine one's structure, so no
level holds a piece of ``B``.

On the uniform grid a subdomain's interior KKT is fixed by the element
matrices of its cells, that is by their rows of the level's element
class table (``Rt0System.elem_class``), its face operators also by which
of its four faces exist.  All subdomains of a level share one
local numbering, ``LevelDecomposition.local_slots``, so the template's
entries are located once (``mesh_fem.element_triplets``) and all cell
patterns are scattered on it together, as one stack of values; each
pattern is factored and condensed onto all four faces by one
``Factorization.solve_leading`` call (``_condense_patterns``).
Subdomains are grouped by cell pattern and present faces, and the
groups run by shape: count of present faces descending, then member
count, then first member.  The groups with one count of present faces
slice their faces from their patterns and build their bordered face
systems and face operators as one stack each; each system, an array
whatever its size, is inverted on its own by LAPACK (``_face_operators``).
A run of groups with one member count is
a batch (``_Batch``), each group one entry of it, and the batches are
the level's only unit of work: an entry's operators are its rows of the
batch's stacks, which are slices of the count's, so every operator is
stored once.  The level lays out its subdomains' face copies once, with
their face weights (``hierarchy.compute_weights``): every entry's copies,
one row per member, one entry after another.  Every face
lies between two subdomains, so a sum of the members' face copies (the
Schur product, the averaging, the restriction) adds two entries of a
copy buffer, located once at build (``LevelBddc.face_pairs``).  How blocks are stored
and solved, by size class, is decided in ``saddle_core``
(``DENSE_LIMIT``); the cell patterns' interior blocks are scattered
straight into the storage of their class: one dense stack, or one CSR
per pattern above ``DENSE_LIMIT``.

Each level owns a workspace, built once with the level: buffers of
face-dof copies and of face copies in the copy layout, and buffers of
interior data, of interior solutions and of the level's result (its face
values, then its interior flux and cell pressures), one row per
subdomain in batch order.  Each batch holds ``(entries, members, ...)``
views of its rows of every buffer, so every level pass has one shape:
one level-wide gather into an input buffer (``ndarray.take`` with
``mode="clip"``, which writes straight into it; the indices are in range
by construction), one ``np.matmul`` per batch and operator from its
input view into its output view, and one level-wide scatter or pair sum
into a new array.  A stacked product
makes one BLAS call per entry of the batch, with the operands of a
per-entry pass, and the additions run in the same order, so results
equal a per-entry pass bit for bit and do not depend on the workspace.
The interior solves above ``DENSE_LIMIT`` are SuperLU's, one call per
entry of a batch.  A preconditioner applies one residual at a time: a
level's buffers serve one pass at a time, and the only data that wait in
a workspace across a call are a level's dual values and its result block
while the coarser levels of the recursion run on their own workspaces.
No pass returns a view of a workspace, so every returned array is new
and stays as it was through later calls.

``MultilevelPreconditioner.build`` owns the level list: it makes the
decompositions from the fine grid, and each level's system is the coarse
problem of the level below.  The coarse problem has the same quad-grid
mixed structure (one flux dof per face, one pressure per subdomain,
divergence entries +-H), which is what makes the recursion possible.
Its element class table is filled with one row per batch entry of the
level below, the entry's basis energies, and each subdomain's entry as
its class, and the ``Rt0System`` constructor keeps it in canonical form.

Subdomain work within one level is independent (levels are inherently
sequential); all scatter reductions run in a fixed order, so results are
reproducible run to run.  Built components other than the workspaces are
immutable during apply; two preconditioners never share a workspace.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import groupby

import numpy as np
import scipy.sparse as sp

from .errors import NestedBddcError
from .hierarchy import LevelDecomposition, build_hierarchy, compute_weights
from .mesh_fem import (
    SLOT_BOTTOM,
    SLOT_LEFT,
    Rt0System,
    _unique_rows,
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


class BddcError(NestedBddcError):
    pass


@dataclass(eq=False)
class _Batch:
    """Adjacent subdomains of one shape: one count of present faces, ``n_members`` per entry.

    An entry holds the members of one cell pattern and one set of present
    faces, whose local matrices are bit-identical: ``kkts`` holds each
    entry's interior KKT (one per pattern, shared), every array one row
    per entry.  Face data run face by face: the ``k``-th present face (slot
    ``face_slots[k]``) holds columns ``k ratio`` to ``(k + 1) ratio - 1``.
    The operators are slices of the stacks of ``_face_operators``, so each
    is stored once: the extension rows ``ext``, the Schur complement
    ``schur``, the dual face operator ``dual``, the coarse basis ``psi``
    and its energy ``coarse_elem``, with the views ``ext_flux_t`` (the
    flux columns of ``ext``, transposed), ``ext_p`` (its pressure columns)
    and ``psi_t``.  ``corner`` stacks the entries' interior solves for the
    pre-correction (``Factorization.leading_stack``), ``None`` above
    ``DENSE_LIMIT``, where SuperLU solves for each entry on its own.  The
    level sets the batch's ``span`` of its subdomain rows and ``(entries,
    members, ...)`` views of its workspace, so a level pass makes one
    ``np.matmul`` per batch from its input view into its output view.
    """

    kkts: list[KktSystem]
    n_members: int
    face_slots: np.ndarray
    ext: np.ndarray
    schur: np.ndarray
    dual: np.ndarray
    psi: np.ndarray
    coarse_elem: np.ndarray

    def __post_init__(self):
        n_int, n_cells = self.kkts[0].n_flux, self.kkts[0].n_div
        self.ext_flux_t = self.ext[:, :, :n_int].transpose(0, 2, 1)
        self.ext_p = self.ext[:, :, n_int:]
        self.psi_t = self.psi.transpose(0, 2, 1)
        factorizations = [kkt.factorization for kkt in self.kkts]
        self.corner = Factorization.leading_stack(factorizations, n_int + n_cells, n_int)


def _condense_patterns(system: Rt0System, decomp: LevelDecomposition, cells: np.ndarray):
    """The local problem of each cell pattern, condensed onto its four faces.

    ``cells`` holds one row per pattern, the cells of a subdomain on it
    (``LevelDecomposition.subdomain_rows``).
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
    slots, n_loc = decomp.local_slots, int(decomp.local_slots.max()) + 1
    (n_pat, n_cells), n_int = cells.shape, n_loc - 4 * decomp.face_dofs.shape[1]
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
    gauge = np.full(n_cells, system.grid.cell_area)
    kkts = [KktSystem(*blk, gauge=gauge) for blk in kkt_blocks]
    a_f, b_ft = a[:, n_int - first :], bt[n_int - first :]
    coupling = np.concatenate([a_f[:, :, :n_int], np.broadcast_to(b_ft, (n_pat, *b_ft.shape))], axis=2)
    ext = -np.stack([kkt.factorization.solve_leading(m, n_int + n_cells) for kkt, m in zip(kkts, coupling)])
    schur = a_f[:, :, n_int:] + np.matmul(coupling, ext.transpose(0, 2, 1))
    return kkts, ext, 0.5 * (schur + schur.transpose(0, 2, 1))


def _face_operators(ext, schur, pats: np.ndarray, face_slots: np.ndarray, ratio: int) -> tuple:
    """Face operators of the groups with one count of present faces, as stacks, one row per group.

    ``ext`` and ``schur`` are the stacks of ``_condense_patterns``, ``pats``
    the groups' patterns there and ``face_slots`` their present slots, one
    row per group.  The groups' bordered face systems ``[S C^T; C 0]``
    (``C``, the face averages, depends on the count alone) are built as one
    stack of arrays, and each is factored on its own, so densely at any
    size; their inverses come as one stack from the factorizations
    (``Factorization.leading_stack``, with all rows and columns).  Returns
    the stacks of ``_Batch``'s operators
    from ``ext`` to ``coarse_elem``, in order, each contiguous: a batch's
    operators are slices of them.
    """
    (n_groups, n_faces), n_f = face_slots.shape, face_slots.shape[1] * ratio
    rows = (face_slots[:, :, None] * ratio + np.arange(ratio)).reshape(n_groups, n_f)
    size = n_f + n_faces  # 0 on a level of one subdomain, which has no faces
    s_f = schur[pats[:, None, None], rows[:, :, None], rows[:, None, :]]
    # The bordered face systems; the face averages C, 1 / ratio on each
    # face's dofs, are their last rows.
    face_kkt = np.zeros((n_groups, size, size))
    face_kkt[:, :n_f, :n_f] = s_f
    face_kkt[:, n_f + np.arange(n_f) // ratio, np.arange(n_f)] = 1.0 / ratio
    face_kkt[:, :n_f, n_f:] = face_kkt[0, n_f:, :n_f].T
    inv = face_kkt
    if size:
        inv = Factorization.leading_stack([Factorization(m) for m in face_kkt], size, size).transpose(0, 2, 1)
    psi = np.ascontiguousarray(inv[:, :n_f, n_f:])
    coarse = np.matmul(np.matmul(psi.transpose(0, 2, 1), s_f), psi)
    return ext[pats[:, None], rows], s_f, np.ascontiguousarray(inv[:, :n_f, :n_f]), psi, coarse


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


class _PairSum:
    """Sum of each entry's two copies in a copy buffer (``LevelBddc.face_pairs``, ``dof_pairs``).

    ``pairs`` locates the copies; a call gathers them into ``buf``, a
    ``(2, n)`` buffer of the level's workspace, and returns the sums of
    its two rows as a new array.
    """

    def __init__(self, pairs: np.ndarray, buf: np.ndarray):
        self.pairs, self.buf = pairs, buf
        self.lo, self.hi = buf

    def __call__(self, copies: np.ndarray) -> np.ndarray:
        copies.take(self.pairs, out=self.buf, mode="clip")
        return self.lo + self.hi


@dataclass
class LevelBddc:
    """All BDDC components of one decomposition level.

    Besides its batches, a level keeps what the divergence of a harmonic
    extension needs.  Each subdomain's net face flux comes from the
    sub-grid (``net_flux``: its divergence of the face averages,
    ``face_mean`` times the face values).  The extension's divergence on a
    cell is the cell's area over the subdomain's area ``sub_areas`` times
    the net flux, so its norm on the subdomain is ``div_norm`` times the
    net flux, with ``div_norm`` the norm of the cells' areas over
    ``sub_areas``.

    Each subdomain holds a copy of each of its faces and face dofs.  The
    level lays the copies out once, batch entry after batch entry, one row
    per member: ``copy_faces`` holds each face copy's face, ``copy_pos`` each
    face-dof copy's position in the face vector and ``copy_w`` its face
    weight (``hierarchy.compute_weights``), ``w_lo`` where the member is a
    face's lower subdomain and ``1 - w_lo`` where it is the higher one.
    ``order`` holds the members' subdomains and ``idx_int`` and
    ``idx_cells`` their interior dofs and cells in the same order, one
    row per subdomain (``LevelDecomposition.subdomain_rows``): the only
    copy of these rows that set-up keeps.  ``face_pairs`` holds the
    positions of each face's lower (row 0) and higher copy, and
    ``dof_pairs`` those of each face dof, ``dof_pairs[s, f ratio + k] =
    face_pairs[s, f] ratio + k``, so a sum over subdomains is one
    addition per face or face dof (``face_sum``, ``dof_sum``).

    The workspace holds one buffer per kind of data in this layout, and
    each batch (``batches``, ``_Batch``) keeps ``(entries, members, ...)``
    views of its rows: ``dof_in`` and ``dof_out`` of face-dof copies,
    ``face_in`` of face copies, ``rows`` of interior data and ``sol`` of
    interior solutions and extensions (pressure columns ``sol_p``), and
    ``span``, its rows of ``order``.  Every pass
    (``extend``, ``extend_pressure``, ``schur_product``,
    ``interior_correction``, ``prolong_average`` and the preconditioner's
    level passes) makes one level-wide gather into an input buffer, one
    product per batch from its input view into its output view, and one
    level-wide scatter or pair sum into a new array.  The one scatter of
    rows in ``sol``'s layout, plus face values, into the level's flux and
    pressure is ``_scatter``: ``extend``, the preconditioner's ``apply``
    and the pre-correction of ``interior_correction`` end with it, while
    ``extend_pressure`` scatters the pressure columns alone.  Only
    ``interior_correction`` with divergence data runs entry by entry,
    over the members whose data is nonzero, and so does the pre-correction
    above ``DENSE_LIMIT``.  Buffers whose uses never overlap share memory:
    ``rows`` and the pair sums' gathers lie in ``dof_in``'s memory, and
    ``dof_out`` and ``face_in``, side by side, in ``sol``'s.

    A third allocation is the result block ``result`` of the
    preconditioner's level pass (``MultilevelPreconditioner._descend``):
    the level's averaged face values ``result_face``, then one row per
    subdomain in batch order, its interior flux and its cell pressures
    (``result_rows``, pressure columns ``result_p``; each batch keeps a
    view of its rows).  A
    level's block waits in its workspace while the coarser levels run; the
    finer level reads it back with one gather each for its face copies'
    coarse flux and for the cell pressures, through the index maps that
    ``link`` builds on each level the recursion reaches (``result_at_copies``,
    ``result_at_cells``).  ``link`` allots the block on those levels;
    on the first level, which the recursion never reaches, it is allotted
    by the first ``apply`` or ``interior_correction`` of a residual there
    (``_allot_result``), so a solve allots none on it.
    So a level serves one pass at a time, and a preconditioner applies one
    residual at a time; what a pass returns is never a view of the
    workspace.  The level builds its workspace and its batches' views
    when it is made, so a level made from another
    (``dataclasses.replace``) takes their views over; the index maps stay
    with the level that ``link`` built them on.
    """

    system: Rt0System
    decomp: LevelDecomposition
    batches: list[_Batch]
    sub_areas: np.ndarray
    div_norm: np.ndarray
    copy_faces: np.ndarray
    copy_pos: np.ndarray
    copy_w: np.ndarray
    order: np.ndarray
    idx_int: np.ndarray
    idx_cells: np.ndarray
    face_pairs: np.ndarray
    dof_pairs: np.ndarray

    def __post_init__(self):
        """The workspace, in two allocations, and each batch's views of it."""
        self.face_dofs = self.decomp.face_dofs.ravel()
        ratio = self.decomp.face_dofs.shape[1]
        self.face_mean = np.full(ratio, 1.0 / ratio)
        (n_sub, n_int), n_cells = self.idx_int.shape, self.idx_cells.shape[1]
        n_copy, n_face_copy, n_sol = self.copy_pos.size, self.copy_faces.size, n_sub * (n_int + n_cells)
        inputs = np.empty(max(n_copy, n_sub * n_int))
        self.dof_in, self.rows = inputs[:n_copy], inputs[: n_sub * n_int].reshape(n_sub, n_int)
        outputs = np.empty(max(n_sol, n_copy + n_face_copy))
        self.sol = outputs[:n_sol].reshape(n_sub, n_int + n_cells)
        self.dof_out, self.face_in = outputs[:n_copy], outputs[n_copy : n_copy + n_face_copy]
        self.sol_p = self.sol[:, n_int:]
        self.result = None
        self.dof_sum = _PairSum(self.dof_pairs, self.dof_in.reshape(self.dof_pairs.shape))
        face_buf = self.dof_in[: self.face_pairs.size].reshape(self.face_pairs.shape)
        self.face_sum = _PairSum(self.face_pairs, face_buf)
        sub = face = dof = 0
        for batch in self.batches:
            (g, n_dofs, n_faces), n = batch.psi.shape, batch.n_members
            batch.span = slice(sub, sub + g * n)
            batch.dof_in = self.dof_in[dof : dof + g * n * n_dofs].reshape(g, n, n_dofs)
            batch.dof_out = self.dof_out[dof : dof + g * n * n_dofs].reshape(g, n, n_dofs)
            batch.face_in = self.face_in[face : face + g * n * n_faces].reshape(g, n, n_faces)
            batch.rows = self.rows[batch.span].reshape(g, n, n_int)
            batch.sol = self.sol[batch.span].reshape(g, n, n_int + n_cells)
            batch.sol_p = batch.sol[:, :, n_int:]
            sub, face, dof = sub + g * n, face + g * n * n_faces, dof + g * n * n_dofs

    def _allot_result(self) -> None:
        """The result block and each batch's view of its rows, allotted once."""
        if self.result is not None:
            return
        n_face, (n_sub, width), n_int = self.face_dofs.size, self.sol.shape, self.idx_int.shape[1]
        self.result = np.empty(n_face + self.sol.size)
        self.result_face, self.result_rows = self.result[:n_face], self.result[n_face:].reshape(n_sub, width)
        self.result_p = self.result_rows[:, n_int:]
        for batch in self.batches:
            batch.result_rows = self.result_rows[batch.span].reshape(batch.sol.shape)

    def link(self, copy_faces: np.ndarray) -> None:
        """Index maps into ``result`` for the finer level whose face copies are ``copy_faces``.

        The finer level's face copies hold faces of its decomposition,
        that is flux dofs of this level: ``result_at_copies`` holds the
        entry of ``result`` that carries each copy's flux, a face value or
        an interior flux, and ``result_at_cells`` the entry that carries
        each cell's pressure, in cell order.
        """
        self._allot_result()
        (n_sub, width), n_int = self.result_rows.shape, self.idx_int.shape[1]
        at_rows = self.face_dofs.size + width * np.arange(n_sub)[:, None]
        at_flux = np.empty(self.system.n_flux, dtype=np.intp)
        at_flux[self.face_dofs] = np.arange(self.face_dofs.size)
        at_flux[self.idx_int] = at_rows + np.arange(n_int)
        self.result_at_copies = at_flux[copy_faces]
        self.result_at_cells = np.empty(self.system.n_pressure, dtype=np.intp)
        self.result_at_cells[self.idx_cells] = at_rows + n_int + np.arange(width - n_int)

    def _gather_faces(self, u_face: np.ndarray) -> None:
        """Face values ``u_face`` into ``dof_in``, one entry per face-dof copy."""
        u_face = _checked_vector(u_face, self.face_dofs.size, "face values")
        u_face.take(self.copy_pos, out=self.dof_in, mode="clip")

    def _extend_rows(self, u_face: np.ndarray) -> None:
        """Harmonic extension of face values ``u_face`` into ``sol``, one row per subdomain."""
        self._gather_faces(u_face)
        for batch in self.batches:
            np.matmul(batch.dof_in, batch.ext, out=batch.sol)

    def _scatter(self, rows: np.ndarray, u_face=0.0):
        """Level flux and pressure from ``rows`` in batch order and face values ``u_face``.

        ``rows`` has the layout of ``sol``: one row per subdomain, its
        interior flux, then its cell pressures.
        """
        n_int = self.idx_int.shape[1]
        u = np.empty(self.system.n_flux)
        u[self.face_dofs] = u_face
        u[self.idx_int] = rows[:, :n_int]
        p = np.empty(self.system.n_pressure)
        p[self.idx_cells] = rows[:, n_int:]
        return u, p

    def extend(self, u_face: np.ndarray):
        """Harmonic extension of face values ``u_face``: level flux and pressure.

        The flux holds ``u_face`` on the faces and each subdomain's
        extension inside; the pressure is each extension's gauged pressure.
        """
        self._extend_rows(u_face)
        return self._scatter(self.sol, u_face)

    def extend_pressure(self, u_face: np.ndarray) -> np.ndarray:
        """The pressure of ``extend(u_face)`` alone, from the extension's pressure columns."""
        self._gather_faces(u_face)
        for batch in self.batches:
            np.matmul(batch.dof_in, batch.ext_p, out=batch.sol_p)
        p = np.empty(self.system.n_pressure)
        p[self.idx_cells] = self.sol_p
        return p

    def schur_product(self, u_face: np.ndarray) -> np.ndarray:
        """Sum of the subdomains' face Schur complements times ``u_face``."""
        self._gather_faces(u_face)
        for batch in self.batches:
            np.matmul(batch.dof_in, batch.schur, out=batch.dof_out)
        return self.dof_sum(self.dof_out)

    def net_flux(self, u_face: np.ndarray) -> np.ndarray:
        """Each subdomain's net face flux: the sub-grid's divergence of the face averages.

        It is ``B``'s face columns summed over the subdomain's cells, which
        hold ``+-h`` on each face dof, up to round-off: the sub-grid's
        ``B`` holds ``+-ratio h`` on each face.
        """
        u_face = _checked_vector(u_face, self.face_dofs.size, "face values")
        face_mean = u_face.reshape(-1, self.face_mean.size) @ self.face_mean
        return self.decomp.sub_grid.divergence(face_mean)

    def face_divergence_defect(self, u_face: np.ndarray, product=None, m=None) -> float:
        """``divergence_defect`` of ``extend(u_face)`` from face values alone.

        The extension's divergence is a multiple of the cell areas on each
        subdomain, and so is the pressure gauge, so the defect is taken on
        one entry per subdomain: the divergence's norm there, against the
        gauge's.  The energy is ``u_face @ S u_face``.  Given ``product``,
        the face rows ``S u_face + (B^T m)_F`` of the step-3 operator
        applied to ``(u_face, m)``, which PCG holds as its right-hand side
        less its residual, the energy is ``u_face @ product - net @ m``,
        ``net`` the net face flux (``net_flux``); without it, or when that
        is not positive, ``u_face`` against ``schur_product(u_face)``.
        Each vector given must have its length (``BddcError`` otherwise).
        """
        u_face = _checked_vector(u_face, self.face_dofs.size, "face values")
        if product is not None:
            product = _checked_vector(product, self.face_dofs.size, "face product")
            m = _checked_vector(m, self.decomp.n_sub, "subdomain values")
        if not np.any(u_face):
            return 0.0
        net = self.net_flux(u_face)
        energy = 0.0 if product is None else u_face @ product - net @ m
        if not energy > 0.0:
            energy = u_face @ self.schur_product(u_face)
        return gauged_defect(self.div_norm * net, energy, self.div_norm * self.sub_areas)


def _groups(keys: np.ndarray, n_present: np.ndarray) -> list[np.ndarray]:
    """Subdomains grouped by an integer key, ascending members.

    The groups run by their members' count of present faces
    ``n_present``, descending, then by member count, then by first
    member, so the groups of one shape are adjacent.
    """
    counts = np.bincount(keys)
    members = np.split(np.argsort(keys, kind="stable"), np.cumsum(counts[counts > 0])[:-1])
    return sorted(members, key=lambda m: (-n_present[m[0]], len(m), m[0]))


def build_level_bddc(system: Rt0System, decomp: LevelDecomposition, gamma: float) -> LevelBddc:
    """Batch the subdomains of a level by shape and build each batch entry's operators once.

    Members of a group have bit-identical local matrices: the same row of
    the element table cell by cell (one cell pattern, assembled, factored
    and condensed onto its four faces once by ``_condense_patterns``) and
    the same present faces.  A subdomain's group key is the integer
    ``pattern * 16 + present @ (1, 2, 4, 8)``; the groups with one count of
    present faces get their face operators together, as stacks
    (``_face_operators``), and each run of them with one member count is a
    batch, one entry per group, whose operators are slices of these stacks
    (``_Batch``).
    Copy data are templates per subdomain: a face copy is the higher one by
    its slot, its dof copies are consecutive, and its cells have the grid's
    one cell area.  The cell patterns come from the class table
    laid out one row per subdomain (``LevelDecomposition.by_sub``), and the
    subdomains' cell and interior-dof rows are built once, for the pattern
    heads and in batch order (``subdomain_rows``).
    """
    first, pattern = _unique_rows(decomp.by_sub(system.elem_class))
    kkts, ext, schur = _condense_patterns(system, decomp, decomp.subdomain_rows(first)[0])
    present = decomp.faces_by_sub >= 0
    n_present = np.count_nonzero(present, axis=1)
    members = _groups(pattern * 16 + present @ (1, 2, 4, 8), n_present)
    n_faces, ratio = decomp.face_dofs.shape
    # The face copies, group after group, one row per member.  A face's
    # normal points into the members on their left and bottom faces: there
    # they are the higher subdomain.
    order = np.concatenate(members)
    live = present[order]
    copy_faces = decomp.faces_by_sub[order][live]
    high = np.tile([slot in (SLOT_LEFT, SLOT_BOTTOM) for slot in range(4)], (len(order), 1))[live]
    w_lo = compute_weights(decomp, system, gamma)[copy_faces]
    face_pairs = np.empty(2 * n_faces, dtype=np.intp)
    face_pairs[high * n_faces + copy_faces] = np.arange(copy_faces.size)
    face_pairs = face_pairs.reshape(2, n_faces)
    # The face operators, one count of present faces at a time (a run of
    # groups), sliced into one batch per run of one member count.
    batches = []
    for count, same_count in groupby(members, key=lambda subs: n_present[subs[0]]):
        same_count = list(same_count)
        heads = [subs[0] for subs in same_count]
        face_slots = np.nonzero(present[heads])[1].reshape(len(heads), count)
        stacks = (face_slots, *_face_operators(ext, schur, pattern[heads], face_slots, ratio))
        stop = 0
        for size, same_size in groupby(map(len, same_count)):
            run = slice(stop, stop + len(list(same_size)))
            entry_kkts = [kkts[k] for k in pattern[heads[run]]]
            batches.append(_Batch(entry_kkts, size, *(stack[run] for stack in stacks)))
            stop = run.stop
    idx_cells, idx_int = decomp.subdomain_rows(order)
    areas = np.full((1, idx_cells.shape[1]), system.grid.cell_area)
    sub_area = areas.sum(axis=1)
    return LevelBddc(
        system=system,
        decomp=decomp,
        batches=batches,
        sub_areas=np.repeat(sub_area, decomp.n_sub),
        div_norm=np.repeat(np.linalg.norm(areas, axis=1) / sub_area, decomp.n_sub),
        copy_faces=copy_faces,
        copy_pos=(copy_faces[:, None] * ratio + np.arange(ratio)).ravel(),
        copy_w=np.repeat(np.where(high, 1.0 - w_lo, w_lo), ratio),
        order=order,
        idx_int=idx_int,
        idx_cells=idx_cells,
        face_pairs=face_pairs,
        dof_pairs=(face_pairs[:, :, None] * ratio + np.arange(ratio)).reshape(2, -1),
    )


def assemble_coarse_problem(level: LevelBddc) -> Rt0System:
    """Galerkin coarse system on the subdomain grid.

    Flux block entries come from the basis energies, one element matrix
    per batch entry (its members share them): the entry's ``coarse_elem``
    in its present face slots, zero in the others, written one batch at a
    time, and each subdomain's entry as its class; the ``Rt0System``
    constructor puts the table in canonical form, which merges entries of
    equal energies.  The divergence block is the exact +-(face length)
    pattern of the coarse grid, which reproduces the subdomain-integrated
    divergence of any basis combination.
    """
    decomp = level.decomp
    elem_table = np.zeros((sum(len(batch.kkts) for batch in level.batches), 4, 4))
    elem_class = np.empty(decomp.n_sub, dtype=np.intp)
    first = 0
    for batch in level.batches:
        classes, slots = first + np.arange(len(batch.kkts)), batch.face_slots
        elem_table[classes[:, None, None], slots[:, :, None], slots[:, None, :]] = batch.coarse_elem
        elem_class[level.order[batch.span]] = np.repeat(classes, batch.n_members)
        first += len(batch.kkts)
    return Rt0System(decomp.sub_grid, elem_table, elem_class)


def _checked_vector(data, n: int, what: str) -> np.ndarray:
    """``data`` as a float vector of length ``n``, or ``BddcError`` naming ``what``."""
    data = np.asarray(data, dtype=float)
    if data.shape != (n,):
        raise BddcError(f"{what} of shape {data.shape}, expected ({n},)")
    return data


def _checked_level(number, n_levels: int, what: str) -> int:
    """The index of level ``number`` (1 to ``n_levels``), or ``BddcError`` naming ``what``.

    ``bool`` is an ``Integral`` in Python, but not a level number.
    """
    if isinstance(number, bool) or not isinstance(number, numbers.Integral):
        raise BddcError(f"{what} must be an integer, got {number!r}")
    if not 1 <= number <= n_levels:
        raise BddcError(f"{what} {number} out of range")
    return int(number) - 1


def _precorrect(level: LevelBddc, r: np.ndarray) -> np.ndarray:
    """Every subdomain's interior solve for the flux residual ``r``, into ``level.result_rows``.

    One gather, and one stacked solve and one face-residual product per
    batch (above ``DENSE_LIMIT``, one SuperLU solve per entry); returns
    the face residual (``interior_correction``).
    """
    r.take(level.idx_int, out=level.rows, mode="clip")
    for batch in level.batches:
        if batch.corner is not None:
            np.matmul(batch.rows, batch.corner, out=batch.result_rows)
        else:
            for kkt, rows, out in zip(batch.kkts, batch.rows, batch.result_rows):
                kkt.factorization.solve_leading(rows, out.shape[1], out=out)
        np.matmul(batch.rows, batch.ext_flux_t, out=batch.dof_out)
    return level.dof_sum(level.dof_out)


def interior_correction(level: LevelBddc, r=None, rhs_div=None):
    """Independent subdomain saddle solves with zero interface data, and their face residual.

    Solves for interior fluxes and local pressures with the flux residual
    ``r`` and per-cell divergence data ``rhs_div`` (either may be left
    out, not both) as right-hand side, of the level's lengths (``BddcError``
    otherwise); the divergence of the correction is balanced against all
    local mean-zero pressures.  Given divergence data
    alone, only the subdomains whose data is nonzero are solved, batch
    entry by batch entry, and entries without one are skipped: the others'
    solution is zero.

    Returns ``(u, p, r_face)``, with ``r_face`` the face rows of
    ``-(A u + B^T p)`` in the level's face-vector order.  On a subdomain
    they are ``-M_F^T K_I^-1 [r_I; f]``, and ``K_I`` is symmetric, so they
    are the data rows the solve takes times the extension rows ``ext``,
    summed over each face dof's two copies.  Given ``r`` alone, this is
    the pre-correction of the preconditioner's level pass
    (``_precorrect``), scattered to the level's dofs and cells
    (``LevelBddc._scatter``).
    """
    if r is None and rhs_div is None:
        raise BddcError("interior_correction needs a flux residual r or divergence data rhs_div")
    if r is not None:
        r = _checked_vector(r, level.system.n_flux, "flux residual")
    if rhs_div is not None:
        rhs_div = _checked_vector(rhs_div, level.system.n_pressure, "divergence data")
    if rhs_div is None:
        level._allot_result()
        r_face = _precorrect(level, r)
        return (*level._scatter(level.result_rows), r_face)
    u, p = np.zeros(level.system.n_flux), np.zeros(level.system.n_pressure)
    level.dof_out.fill(0.0)
    # The subdomains to solve, by one gather of the level's cells.
    live_subs = np.ones(level.decomp.n_sub, dtype=bool)
    if r is None:
        live_subs = np.any(rhs_div.take(level.idx_cells), axis=1)
    n_int, n_cells = level.idx_int.shape[1], level.idx_cells.shape[1]
    for batch in level.batches:
        g, n, span = len(batch.kkts), batch.n_members, batch.span
        index_rows = level.idx_int[span].reshape(g, n, n_int), level.idx_cells[span].reshape(g, n, n_cells)
        for kkt, ext, dof_out, live, idx_int, idx_cells in zip(
            batch.kkts, batch.ext, batch.dof_out, live_subs[span].reshape(g, n), *index_rows
        ):
            if not live.any():
                continue
            idx_int, idx_cells = idx_int[live], idx_cells[live]
            rows = np.zeros(idx_int.shape) if r is None else r[idx_int]
            rows = np.hstack([rows, rhs_div[idx_cells]])
            out = kkt.factorization.solve_leading(rows, rows.shape[1])
            u[idx_int], p[idx_cells] = out[:, :n_int], out[:, n_int:]
            dof_out[live] = rows @ ext.T
    return u, p, level.dof_sum(level.dof_out)


def _face_average(level: LevelBddc, copies: np.ndarray) -> np.ndarray:
    """Weighted average of subdomain face copies into the level's face vector.

    ``copies`` holds one value per face-dof copy, in the level's
    ``copy_pos`` layout; the weighted copies go to ``dof_out``.
    """
    np.multiply(copies, level.copy_w, out=level.dof_out)
    return level.dof_sum(level.dof_out)


def prolong_average(level: LevelBddc, u_coarse: np.ndarray) -> np.ndarray:
    """Averaged face values of the coarse basis, in the level's face vector.

    The prolonged flux has zero interiors, so step 2 needs its face values
    alone: its subdomain solves add their harmonic extension.
    """
    u_coarse = _checked_vector(u_coarse, level.decomp.n_faces, "coarse flux")
    u_coarse.take(level.copy_faces, out=level.face_in, mode="clip")
    for batch in level.batches:
        np.matmul(batch.face_in, batch.psi_t, out=batch.dof_out)
    return _face_average(level, level.dof_out)


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
    on its start level.  On every coarser level the recursion runs the
    whole map, ``_descend``, whose output stays in that level's result
    block (``LevelBddc.result``) for the finer level to gather, so the
    recursion forms no level vector.  ``apply`` is ``_descend`` followed
    by the start level's scatter (``LevelBddc._scatter``).

    Each level computes in its own workspace (``LevelBddc``), so a
    preconditioner applies one residual at a time: calls from two threads
    must not overlap.  Every array it returns is new.
    """

    levels: list[LevelBddc]
    top_kkt: KktSystem

    @classmethod
    def build(
        cls, system: Rt0System, n_levels: int, ratio: int, gamma: float
    ) -> "MultilevelPreconditioner":
        """Levels 1..L-1 of the fine ``system``, each on the coarse problem below.

        Each level below the first is one the recursion reaches: it gets
        the index maps into its result block (``LevelBddc.link``).
        """
        levels = []
        for decomp in build_hierarchy(system.grid, n_levels, ratio):
            level = build_level_bddc(system, decomp, gamma)
            if levels:
                level.link(levels[-1].copy_faces)
            levels.append(level)
            system = assemble_coarse_problem(level)
        return cls(levels=levels, top_kkt=KktSystem(system.A, system.B, gauge=system.areas))

    def apply(self, r: np.ndarray, start_level: int = 1):
        """Preconditioned (flux, pressure) for any flux residual ``r``."""
        idx = _checked_level(start_level, len(self.levels), "start level")
        level = self.levels[idx]
        r = _checked_vector(r, level.system.n_flux, f"residual on level {start_level}")
        level._allot_result()
        self._descend(idx, r)
        return level._scatter(level.result_rows, level.result_face)

    def _descend(self, idx: int, r: np.ndarray) -> None:
        """``apply(r, idx + 1)`` into the result block of level ``idx + 1``.

        Pre-corrects ``r`` with the interior solves into the block's rows
        (``_precorrect``), runs ``_apply`` on the residual's face rows plus
        their face residual, extends the returned face values into ``sol``
        and adds the coarse pressure and then that extension to the rows:
        the flux is the pre-correction's plus the extension's, the pressure
        the pre-correction's plus the coarse pressure, plus the extension's.
        ``sol`` has the rows' layout, so the extension adds in one pass.
        """
        level = self.levels[idx]
        r_face = _precorrect(level, r)
        u_face, p_coarse = self._apply(idx, r[level.face_dofs] + r_face)
        level._extend_rows(u_face)
        level.result_face[:] = u_face
        level.result_p += p_coarse.take(level.order)[:, None]
        level.result_rows += level.sol

    def _apply(self, idx: int, r_face: np.ndarray):
        """One level's face work: averaged face values and the coarse pressure per subdomain.

        ``r_face`` holds a residual's rows in the face vector of level
        ``idx + 1``, after an interior pre-correction has removed its
        interior rows.  ``extend`` of the returned face values on that
        level gives the flux and, on each subdomain, the pressure to which
        the returned coarse pressure and the pre-correction's pressure add.
        The dual values wait in the level's ``dof_out`` while the coarser
        levels run on their own workspaces; the next level's output is
        gathered from its result block.
        """
        level = self.levels[idx]
        # Per batch, from the weighted face residuals: dual face values with
        # vanishing face averages, then the restriction coefficients.
        level._gather_faces(r_face)
        level.dof_in *= level.copy_w
        for batch in level.batches:
            np.matmul(batch.dof_in, batch.dual, out=batch.dof_out)
            np.matmul(batch.dof_in, batch.psi, out=batch.face_in)
        r_next = level.face_sum(level.face_in)
        if idx == len(self.levels) - 1:
            u_next, p_next, _ = self.top_kkt.solve(rhs_flux=r_next)
            u_next.take(level.copy_faces, out=level.face_in, mode="clip")
        else:
            coarse = self.levels[idx + 1]
            self._descend(idx + 1, r_next)
            coarse.result.take(coarse.result_at_copies, out=level.face_in, mode="clip")
            p_next = coarse.result.take(coarse.result_at_cells)
        # The coarse correction through the basis, added to the dual values.
        for batch in level.batches:
            np.matmul(batch.face_in, batch.psi_t, out=batch.dof_in)
        level.dof_out += level.dof_in
        return _face_average(level, level.dof_out), p_next
