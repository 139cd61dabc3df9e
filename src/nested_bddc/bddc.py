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
per member, one group after another.  Every face lies between two
subdomains, so a sum of the members' face copies (the Schur product,
the averaging, the restriction) adds two entries of a copy buffer,
located once at build (``_copy_pairs``).  How blocks are stored
and solved, by size class, is decided in ``saddle_core``
(``DENSE_LIMIT``); the cell patterns' interior blocks are scattered
straight into the storage of their class: one dense stack, or one CSR
per pattern above ``DENSE_LIMIT``.

Each level owns a workspace, built once with the level: buffers of
face-dof copies and of face copies in the copy layout, and buffers of
interior data and of interior solutions, one row per subdomain in group
order.  Each group holds views of its rows of every buffer.  So every
level pass has one shape: one level-wide gather into an input buffer
(``ndarray.take`` with ``mode="clip"``, which writes straight into it;
the indices are in range by construction), one product per group from
its input view into its output view, and one level-wide scatter or pair
sum into a new array.  The products, their operands and the order of
every addition are those of a per-group pass, so results do not depend
on the workspace.  A preconditioner applies one residual at a time: a
level's buffers serve one pass at a time, and the only data that wait in
a workspace across a call are a level's dual values while the coarser
levels of the recursion run on their own workspaces.  No pass returns a
view of a workspace, so an output stays as it was through later calls.

``MultilevelPreconditioner.build`` owns the level list: it makes the
decompositions from the fine grid, and each level's system is the coarse
problem of the level below.  The coarse problem has the same quad-grid
mixed structure (one flux dof per face, one pressure per subdomain,
divergence entries +-H), which is what makes the recursion possible.
Its element class table has one row per group of the level below, the
group's basis energies, and each subdomain's group as its class.

Subdomain work within one level is independent (levels are inherently
sequential); all scatter reductions run in a fixed order, so results are
reproducible run to run.  Built components other than the workspaces are
immutable during apply; two preconditioners never share a workspace.
"""

from __future__ import annotations

import math
import numbers
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
    alignment.  ``ext_flux_t`` (the flux columns of ``ext``, transposed),
    ``ext_p`` (its pressure columns) and ``psi_t`` are views of them, the
    operands the level passes multiply by.

    Every other array is a view of the level's (``LevelBddc``), one row
    per member: the face ids ``face_ids``, ``face_pos``, the face weights
    ``w`` and the index rows ``idx_face``, ``idx_int`` (interior dofs) and
    ``idx_cells``, and the group's rows of the level's workspace, which
    the level sets: ``dof_in`` and ``dof_out`` of its face-dof copies,
    ``face_in`` of its face copies, ``rows`` of its interior data and
    ``sol`` (with its pressure columns ``sol_p``) of its interior
    solutions and extensions.  A level pass gathers into the level's
    buffers and multiplies each group's input view into its output view.
    """

    subs: np.ndarray
    kkt: KktSystem
    face_slots: np.ndarray
    ext: np.ndarray
    schur: np.ndarray
    dual: np.ndarray
    psi: np.ndarray
    coarse_elem: np.ndarray
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
        self.ext_flux_t = self.ext[:, : self.n_int].T
        self.ext_p = self.ext[:, self.n_int :]
        self.psi_t = self.psi.T


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


class _PairSum:
    """Sum of each entry's two copies in a copy buffer (``_copy_pairs``).

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
    ``idx_int`` and ``idx_cells`` hold the members' interior dofs and
    cells in the same order, one row per subdomain.  ``face_pairs`` and
    ``dof_pairs`` locate the two copies of each face and face dof
    (``_copy_pairs``), so a sum over subdomains is one addition per entry
    (``face_sum``, ``dof_sum``).

    The workspace holds one buffer per kind of data in this layout, and
    each group keeps views of its rows (``_Group``): ``dof_in`` and
    ``dof_out`` of face-dof copies, ``face_in`` of face copies, ``rows``
    of interior data and ``sol`` of interior solutions and extensions
    (flux columns ``sol_u``, pressure columns ``sol_p``).  Every pass
    (``extend``, ``extend_pressure``, ``schur_product``,
    ``interior_correction``, ``prolong_average`` and
    ``MultilevelPreconditioner._apply``) makes one level-wide gather into
    an input buffer, one product per group from its input view into its
    output view, and one level-wide scatter or pair sum into a new array.
    Buffers whose uses never overlap share memory, so a level makes two
    allocations: ``rows`` and the pair sums' gathers lie in ``dof_in``'s
    memory, and ``dof_out`` and ``face_in``, side by side, in ``sol``'s.
    So a level serves one pass at a time, and a preconditioner applies one
    residual at a time; what a pass returns is never a view of the
    workspace.  The level builds its workspace and its groups' views when
    it is made, so a level made from another (``dataclasses.replace``)
    takes the groups' views over.
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
    idx_int: np.ndarray
    idx_cells: np.ndarray
    face_pairs: np.ndarray
    dof_pairs: np.ndarray

    def __post_init__(self):
        """The workspace, in two allocations, and each group's views of it."""
        self.face_dofs = self.decomp.face_dofs.ravel()
        (n_sub, n_int), n_cells = self.idx_int.shape, self.idx_cells.shape[1]
        n_copy, n_face_copy, n_sol = self.copy_pos.size, self.copy_faces.size, n_sub * (n_int + n_cells)
        inputs = np.empty(max(n_copy, n_sub * n_int))
        self.dof_in, self.rows = inputs[:n_copy], inputs[: n_sub * n_int].reshape(n_sub, n_int)
        outputs = np.empty(max(n_sol, n_copy + n_face_copy))
        self.sol = outputs[:n_sol].reshape(n_sub, n_int + n_cells)
        self.dof_out, self.face_in = outputs[:n_copy], outputs[n_copy : n_copy + n_face_copy]
        self.sol_u, self.sol_p = self.sol[:, :n_int], self.sol[:, n_int:]
        self.dof_sum = _PairSum(self.dof_pairs, self.dof_in.reshape(self.dof_pairs.shape))
        face_buf = self.dof_in[: self.face_pairs.size].reshape(self.face_pairs.shape)
        self.face_sum = _PairSum(self.face_pairs, face_buf)
        sub = face = dof = 0
        for grp in self.groups:
            n = len(grp.subs)
            n_faces, n_dofs = n * grp.n_faces, n * grp.n_face_dofs
            grp.dof_in = self.dof_in[dof : dof + n_dofs].reshape(n, grp.n_face_dofs)
            grp.dof_out = self.dof_out[dof : dof + n_dofs].reshape(n, grp.n_face_dofs)
            grp.face_in = self.face_in[face : face + n_faces].reshape(n, grp.n_faces)
            grp.rows, grp.sol = self.rows[sub : sub + n], self.sol[sub : sub + n]
            grp.sol_p = grp.sol[:, n_int:]
            sub, face, dof = sub + n, face + n_faces, dof + n_dofs

    def _gather_faces(self, u_face: np.ndarray) -> None:
        """Face values ``u_face`` into ``dof_in``, one entry per face-dof copy."""
        u_face = _checked_vector(u_face, self.face_dofs.size, "face values")
        u_face.take(self.copy_pos, out=self.dof_in, mode="clip")

    def extend(self, u_face: np.ndarray):
        """Harmonic extension of face values ``u_face``: level flux and pressure.

        The flux holds ``u_face`` on the faces and each subdomain's
        extension inside; the pressure is each extension's gauged pressure.
        """
        self._gather_faces(u_face)
        for grp in self.groups:
            np.matmul(grp.dof_in, grp.ext, out=grp.sol)
        u = np.zeros(self.system.n_flux)
        u[self.face_dofs] = u_face
        u[self.idx_int] = self.sol_u
        p = np.empty(self.system.n_pressure)
        p[self.idx_cells] = self.sol_p
        return u, p

    def extend_pressure(self, u_face: np.ndarray) -> np.ndarray:
        """The pressure of ``extend(u_face)`` alone, from the extension's pressure columns."""
        self._gather_faces(u_face)
        for grp in self.groups:
            np.matmul(grp.dof_in, grp.ext_p, out=grp.sol_p)
        p = np.empty(self.system.n_pressure)
        p[self.idx_cells] = self.sol_p
        return p

    def schur_product(self, u_face: np.ndarray) -> np.ndarray:
        """Sum of the subdomains' face Schur complements times ``u_face``."""
        self._gather_faces(u_face)
        for grp in self.groups:
            np.matmul(grp.dof_in, grp.schur, out=grp.dof_out)
        return self.dof_sum(self.dof_out)

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
        idx_int=idx_int,
        idx_cells=idx_cells,
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


def _checked_vector(data, n: int, what: str) -> np.ndarray:
    """``data`` as a float vector of length ``n``, or ``BddcError`` naming ``what``."""
    data = np.asarray(data, dtype=float)
    if data.shape != (n,):
        raise BddcError(f"{what} of shape {data.shape}, expected ({n},)")
    return data


def _checked_level(number, n_levels: int, what: str) -> int:
    """The index of level ``number`` (1 to ``n_levels``), or ``BddcError`` naming ``what``."""
    if not isinstance(number, numbers.Integral):
        raise BddcError(f"{what} must be an integer, got {number!r}")
    if not 1 <= number <= n_levels:
        raise BddcError(f"{what} {number} out of range")
    return int(number) - 1


def interior_correction(level: LevelBddc, r=None, rhs_div=None):
    """Independent subdomain saddle solves with zero interface data, and their face residual.

    Solves for interior fluxes and local pressures with the flux residual
    ``r`` and per-cell divergence data ``rhs_div`` (either may be left
    out, not both) as right-hand side, of the level's lengths (``BddcError``
    otherwise); the divergence of the correction is balanced against all
    local mean-zero pressures.  Given divergence data
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
    if r is not None:
        r = _checked_vector(r, level.system.n_flux, "flux residual")
    if rhs_div is not None:
        rhs_div = _checked_vector(rhs_div, level.system.n_pressure, "divergence data")
    u = np.zeros(level.system.n_flux)
    if rhs_div is None:
        # Every subdomain, over the workspace: one gather, one solve per
        # group, one scatter, and one face-residual product per group.
        r.take(level.idx_int, out=level.rows, mode="clip")
        for grp in level.groups:
            grp.kkt.factorization.solve_leading(grp.rows, grp.n_int + grp.n_cells, out=grp.sol)
        u[level.idx_int] = level.sol_u
        p = np.empty(level.system.n_pressure)
        p[level.idx_cells] = level.sol_p
        # dof_out shares sol's memory, so the face residuals come after.
        for grp in level.groups:
            np.matmul(grp.rows, grp.ext_flux_t, out=grp.dof_out)
        return u, p, level.dof_sum(level.dof_out)
    p = np.zeros(level.system.n_pressure)
    level.dof_out.fill(0.0)
    for grp in level.groups:
        live = slice(None)
        if r is None:
            live = np.any(rhs_div[grp.idx_cells], axis=1)
            if not live.any():
                continue
        idx_int, idx_cells = grp.idx_int[live], grp.idx_cells[live]
        rows = np.zeros(idx_int.shape) if r is None else r[idx_int]
        rows = np.hstack([rows, rhs_div[idx_cells]])
        out = grp.kkt.factorization.solve_leading(rows, grp.n_int + grp.n_cells)
        u[idx_int], p[idx_cells] = out[:, : grp.n_int], out[:, grp.n_int :]
        grp.dof_out[live] = rows @ grp.ext.T
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
    for grp in level.groups:
        np.matmul(grp.face_in, grp.psi_t, out=grp.dof_out)
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
    on its start level.  Each level's ``_apply`` hands its restricted
    residual to ``apply`` on the next level, so coarser levels get
    general residuals and keep the interior KKT solves.

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
        """Levels 1..L-1 of the fine ``system``, each on the coarse problem below."""
        levels = []
        for decomp in build_hierarchy(system.grid, n_levels, ratio):
            levels.append(build_level_bddc(system, decomp, gamma))
            system = assemble_coarse_problem(levels[-1])
        return cls(levels=levels, top_kkt=KktSystem(system.A, system.B, gauge=system.areas))

    def apply(self, r: np.ndarray, start_level: int = 1):
        """Preconditioned (flux, pressure) for any flux residual ``r``."""
        idx = _checked_level(start_level, len(self.levels), "start level")
        level = self.levels[idx]
        r = _checked_vector(r, level.system.n_flux, f"residual on level {start_level}")
        u_int, p, r_face = interior_correction(level, r)
        u_face, p_coarse = self._apply(idx, r[level.face_dofs] + r_face)
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
        The dual values wait in the level's ``dof_out`` while the coarser
        levels run on their own workspaces.
        """
        level = self.levels[idx]
        # Per group, from the weighted face residuals: dual face values with
        # vanishing face averages, then the restriction coefficients.
        level._gather_faces(r_face)
        level.dof_in *= level.copy_w
        for grp in level.groups:
            np.matmul(grp.dof_in, grp.dual, out=grp.dof_out)
            np.matmul(grp.dof_in, grp.psi, out=grp.face_in)
        r_next = level.face_sum(level.face_in)
        if idx == len(self.levels) - 1:
            u_next, p_next, _ = self.top_kkt.solve(rhs_flux=r_next)
        else:
            u_next, p_next = self.apply(r_next, idx + 2)
        # The coarse correction through the basis, added to the dual values.
        u_next.take(level.copy_faces, out=level.face_in, mode="clip")
        for grp in level.groups:
            np.matmul(grp.face_in, grp.psi_t, out=grp.dof_in)
        level.dof_out += level.dof_in
        return _face_average(level, level.dof_out), p_next
