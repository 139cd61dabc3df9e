"""Uniform quadrilateral meshes and RT0/P0 mixed assembly for Darcy flow.

Flux unknowns live on interior edges, one constant normal component per edge.
Normals follow a global convention (+x for vertical edges, +y for horizontal
edges), which removes per-element sign ambiguity.  Pressure unknowns are
cellwise constants.  Boundary edges carry no unknowns because the normal flux
vanishes on the whole boundary; a compatible source (zero total strength) is
therefore required for solvability and the pressure is defined up to a
constant, fixed later by a mean-zero gauge.

The same machinery is reused for coarsened problems: a coarse system has one
flux dof per interface between blocks of cells and one pressure dof per
block, so it is again an ``Rt0System`` on a smaller ``QuadMesh``.  Every
system, fine or coarse, is made by the ``Rt0System`` constructor, which
checks its element class table and keeps it in canonical form.

``QuadMesh.cell_dof_slots`` is the one table of slot geometry: ``A`` is
the sum of the cells' element matrices over it on every level, as the
local subdomain matrices are (``element_triplets``).  Every entry of ``B``
is ``+-h`` by slot, so the grid forms ``B @ u`` and ``B.T @ p``
(``QuadMesh.divergence``, ``QuadMesh.gradient``) for the solver.

A coefficient field is a validated array of per-cell values; the named
experiment patterns are built in ``nested_driver``.

Assembly is deterministic (identical inputs give bit-identical matrices).
A system's fields are not changed after assembly, and its CSR matrices
``A`` and ``B`` are built on first access and kept, so a system is safe
to share across concurrent readers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import NestedBddcError

__all__ = [
    "MeshError",
    "CoefficientError",
    "QuadMesh",
    "CoefficientField",
    "Rt0System",
    "build_mesh",
    "element_triplets",
    "assemble_rt0",
    "assemble_rhs",
    "check_compatibility",
    "divergence_defect",
    "gauged_defect",
    "dump_matrix_market",
]

# Edge slots of a cell, used everywhere for element-local ordering.
SLOT_LEFT, SLOT_RIGHT, SLOT_BOTTOM, SLOT_TOP = 0, 1, 2, 3

# Signs of the divergence row: -integral of div(u)*q picks +1 for inflow
# slots (left/bottom normals point into the cell) and -1 for outflow slots.
SLOT_SIGNS = np.array([1.0, -1.0, 1.0, -1.0])

# Flux mass matrix on the unit reference square with unit coefficient,
# ordered (left, right, bottom, top).  The x- and y-aligned basis pairs are
# L2-orthogonal, each pair couples like a 1D linear mass matrix.
REFERENCE_MASS = np.array(
    [
        [2.0, 1.0, 0.0, 0.0],
        [1.0, 2.0, 0.0, 0.0],
        [0.0, 0.0, 2.0, 1.0],
        [0.0, 0.0, 1.0, 2.0],
    ]
) / 6.0

COMPATIBILITY_RTOL = 1e-12


class MeshError(NestedBddcError, ValueError):
    pass


class CoefficientError(NestedBddcError, ValueError):
    pass


@dataclass(frozen=True)
class QuadMesh:
    """Uniform grid of square cells with edge/cell enumerations.

    Vertical interior edges come first (grouped by vertical grid line, then
    by row), horizontal interior edges follow (grouped by horizontal line,
    then by column).  Cells are numbered row-major.
    """

    nx: int
    ny: int
    h: float

    @property
    def n_cells(self) -> int:
        return self.nx * self.ny

    @property
    def n_pressure(self) -> int:
        return self.n_cells

    @property
    def n_vertical(self) -> int:
        return (self.nx - 1) * self.ny

    @property
    def n_horizontal(self) -> int:
        return self.nx * (self.ny - 1)

    @property
    def n_flux(self) -> int:
        return self.n_vertical + self.n_horizontal

    @property
    def cell_area(self) -> float:
        return self.h * self.h

    def cell_id(self, i, j):
        return np.asarray(j) * self.nx + np.asarray(i)

    def vertical_edge(self, line, row):
        """Edge on vertical grid line ``line`` (1..nx-1) at cell row ``row``."""
        return (np.asarray(line) - 1) * self.ny + np.asarray(row)

    def horizontal_edge(self, col, line):
        """Edge on horizontal grid line ``line`` (1..ny-1) at cell column ``col``."""
        return self.n_vertical + (np.asarray(line) - 1) * self.nx + np.asarray(col)

    @cached_property
    def cell_dof_slots(self) -> np.ndarray:
        """(n_cells, 4) dof ids per slot (left, right, bottom, top); -1 on boundary."""
        nx, ny, nv = self.nx, self.ny, self.n_vertical
        slots = np.full((ny, nx, 4), -1, dtype=np.int64)
        vertical = np.arange(nv).reshape(nx - 1, ny).T
        horizontal = np.arange(nv, self.n_flux).reshape(ny - 1, nx)
        slots[:, 1:, SLOT_LEFT] = vertical
        slots[:, :-1, SLOT_RIGHT] = vertical
        slots[1:, :, SLOT_BOTTOM] = horizontal
        slots[:-1, :, SLOT_TOP] = horizontal
        return slots.reshape(self.n_cells, 4)

    @cached_property
    def edge_sides(self) -> np.ndarray:
        """(n_flux, 2) adjacent cell ids per edge: (low side, high side).

        The low side sits against the edge normal (left/bottom cell), the
        high side along it.  Every enumerated edge is interior so both exist.
        """
        cells = np.arange(self.n_cells).reshape(self.ny, self.nx)
        nv = self.n_vertical
        sides = np.empty((self.n_flux, 2), dtype=np.int64)
        sides[:nv, 0] = cells[:, :-1].T.ravel()
        sides[:nv, 1] = cells[:, 1:].T.ravel()
        sides[nv:, 0] = cells[:-1].ravel()
        sides[nv:, 1] = cells[1:].ravel()
        return sides

    def divergence(self, u: np.ndarray) -> np.ndarray:
        """``B @ u``, bit for bit, from the grid's edge lines.

        Each family of edges, scaled by ``h``, is padded with the zero
        boundary fluxes to one value per grid line and cell; a cell's
        entry is then its left, right, bottom and top fluxes summed with
        ``SLOT_SIGNS`` in slot order, as the CSR product sums its row.
        """
        u = _checked_grid_vector(u, self.n_flux, "flux")
        nx, ny, nv = self.nx, self.ny, self.n_vertical
        v = np.zeros((ny, nx + 1))
        v[:, 1:-1] = (self.h * u[:nv]).reshape(nx - 1, ny).T
        w = np.zeros((ny + 1, nx))
        w[1:-1] = (self.h * u[nv:]).reshape(ny - 1, nx)
        return (((v[:, :-1] - v[:, 1:]) + w[:-1]) - w[1:]).ravel()

    def gradient(self, p: np.ndarray) -> np.ndarray:
        """``B.T @ p``, bit for bit: ``h p`` on each edge's higher cell less on its lower one."""
        hp = self.h * _checked_grid_vector(p, self.n_cells, "pressure").reshape(self.ny, self.nx)
        out = np.empty(self.n_flux)
        out[: self.n_vertical] = (hp[:, 1:] - hp[:, :-1]).T.ravel()
        out[self.n_vertical :] = (hp[1:] - hp[:-1]).ravel()
        return out


def _checked_grid_vector(data, n: int, what: str) -> np.ndarray:
    """``data`` as a float vector of length ``n``, or ``MeshError`` naming ``what``."""
    data = np.asarray(data, dtype=float)
    if data.shape != (n,):
        raise MeshError(f"{what} vector has shape {data.shape}, expected ({n},)")
    return data


def build_mesh(nx: int, ny: int) -> QuadMesh:
    """Uniform mesh of the unit-width domain with square cells of size 1/nx."""
    if int(nx) != nx or int(ny) != ny or nx < 1 or ny < 1:
        raise MeshError(f"cell counts must be positive integers, got ({nx}, {ny})")
    return QuadMesh(int(nx), int(ny), 1.0 / int(nx))


@dataclass(frozen=True)
class CoefficientField:
    """Cellwise-constant scalar permeability."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 1:
            raise CoefficientError("coefficient values must be a flat per-cell array")
        if not np.all(np.isfinite(values)) or np.any(values <= 0.0):
            raise CoefficientError("permeability values must be positive and finite")

    @classmethod
    def constant(cls, mesh: QuadMesh, k: float) -> "CoefficientField":
        return cls(np.full(mesh.n_cells, float(k)))


@dataclass
class Rt0System:
    """Mixed system on a grid: flux mass matrix A, divergence matrix B, rhs g.

    Cell ``c`` contributes the element matrix (a slot-ordered 4x4 block)
    ``elem_table[elem_class[c]]``; ``g``, one value per cell, is the
    divergence data, zero if not given.  Construction checks them
    (``MeshError``) and keeps the class table in canonical form: rows that
    no cell uses are dropped and bit-identical rows merged, the rest
    sorted by the bit patterns of their entries (``_unique_rows``), so
    equal cells share one class and a table with duplicate or unused rows
    builds the system of its canonical form.  On the uniform grid a level
    has a handful of distinct blocks (one for a constant coefficient), so
    cells of one class are known to be equal without comparing them.  The
    blocks re-assemble subdomain Neumann matrices locally; on a coarse
    level they are the coarse basis energies.  Their diagonals also give
    the interface averaging weights (``hierarchy.compute_weights``).

    ``A`` and ``B`` are CSR, built on first access and kept: ``A`` the
    sum of the cells' blocks over the grid's slot table (``_flux_mass``),
    ``B`` the grid's ``+-h`` per slot.  The solver itself reads only the
    top level's.  A system made by ``dataclasses.replace`` is checked
    again and builds its own from its fields.
    The cell ``areas``, the pressure gauge, come from the grid.
    """

    grid: QuadMesh
    elem_table: np.ndarray
    elem_class: np.ndarray
    g: np.ndarray | None = None

    def __post_init__(self):
        n = self.grid.n_cells
        table = np.asarray(self.elem_table, dtype=float)
        cls = np.asarray(self.elem_class)
        if cls.dtype.kind not in "iu":
            raise MeshError(f"element classes must be integers, got {cls.dtype}")
        if cls.shape != (n,):
            raise MeshError(f"element classes have shape {cls.shape}, grid has {n} cells")
        if table.ndim != 3 or table.shape[1:] != (4, 4) or not np.all(np.isfinite(table)):
            raise MeshError(f"element table must be finite of shape (n, 4, 4), got shape {table.shape}")
        if cls.min() < 0 or cls.max() >= len(table):
            raise MeshError(f"element classes must lie in 0..{len(table) - 1}")
        used = np.flatnonzero(np.bincount(cls.astype(np.intp, copy=False), minlength=len(table)))
        first, label = _unique_rows(table[used].reshape(len(used), -1))
        remap = np.empty(len(table), dtype=np.intp)
        remap[used] = label
        self.elem_table, self.elem_class = table[used[first]], remap[cls]
        self.g = np.zeros(n) if self.g is None else _checked_grid_vector(self.g, n, "divergence data")

    # The sizes are read on every level pass: kept after the first read.
    @cached_property
    def n_flux(self) -> int:
        return self.grid.n_flux

    @cached_property
    def n_pressure(self) -> int:
        return self.grid.n_pressure

    @property
    def n_dofs(self) -> int:
        return self.n_flux + self.n_pressure

    @cached_property
    def areas(self) -> np.ndarray:
        return np.full(self.grid.n_cells, self.grid.cell_area)

    @cached_property
    def A(self) -> sp.csr_matrix:
        return _flux_mass(self.grid, self.elem_table, self.elem_class)

    @cached_property
    def B(self) -> sp.csr_matrix:
        return _divergence_matrix(self.grid)


def element_triplets(slot_map: np.ndarray, blocks: np.ndarray, h: float):
    """Entries of the mass and divergence blocks, ``(values, rows, cols)`` each.

    ``slot_map`` holds, per cell and slot, the row/column of the slot's flux
    dof in the blocks, -1 where the cell has no dof there (local positions
    on a subdomain's numbering, say), and ``blocks`` the cells' element
    matrices, one per row of ``slot_map``.  Row ``c`` of the divergence
    block belongs to cell ``c`` of ``slot_map``.  Entries that share a
    position are not yet summed.
    """
    present = slot_map >= 0
    pair = present[:, :, None] & present[:, None, :]
    rows = np.broadcast_to(slot_map[:, :, None], pair.shape)[pair]
    cols = np.broadcast_to(slot_map[:, None, :], pair.shape)[pair]
    cell_rows = np.broadcast_to(np.arange(len(slot_map))[:, None], slot_map.shape)[present]
    signs = np.broadcast_to(SLOT_SIGNS * h, slot_map.shape)[present]
    return (blocks[pair], rows, cols), (signs, cell_rows, slot_map[present])


def _index_dtype(size: int):
    """32-bit sparse indices where they fit, as scipy's own conversions make them."""
    return np.int32 if size <= np.iinfo(np.int32).max else np.int64


def _compressed(values: np.ndarray, cols: np.ndarray, counts: np.ndarray, n_cols: int) -> sp.csr_matrix:
    """CSR of the entries of ``values`` whose column in ``cols`` is >= 0, in order, ``counts[i]`` in row ``i``."""
    keep = cols >= 0
    index = _index_dtype(max(cols.size, n_cols))
    indptr = np.zeros(len(counts) + 1, dtype=index)
    np.cumsum(counts, out=indptr[1:])
    indices = cols[keep].astype(index, copy=False)
    matrix = sp.csr_matrix((values[keep], indices, indptr), shape=(len(counts), n_cols))
    matrix.has_canonical_format = True
    return matrix


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


def _divergence_matrix(grid: QuadMesh) -> sp.csr_matrix:
    """B as CSR: a cell row holds its present slots in slot order, which is ascending."""
    nx, ny = grid.nx, grid.ny
    slots = grid.cell_dof_slots
    # A cell has a dof on each of its slots but those on the boundary.
    i, j = np.arange(nx), np.arange(ny)[:, None]
    present = 4 - (i == 0) - (i == nx - 1) - (j == 0) - (j == ny - 1)
    return _compressed(np.broadcast_to(SLOT_SIGNS * grid.h, slots.shape), slots, present.ravel(), grid.n_flux)


def _flux_mass(grid: QuadMesh, table: np.ndarray, cls: np.ndarray) -> sp.csr_matrix:
    """A as CSR: the sum of the cells' element matrices ``table[cls]`` over ``grid.cell_dof_slots``.

    An edge's diagonal entry is the sum of its two cells' (one bincount,
    so the COO holds no duplicates to sum); no two cells share an
    off-diagonal position, so each coupling of two present slots is one
    table entry read through the cell's class, and the conversion to CSR
    only sorts.  A coupling of two slots that is zero in every class adds
    nothing to any product and is left out: the orthogonal x/y basis
    pairs of an RT0 table, so a fine edge row holds at most three entries,
    while the dense basis energies of a coarse level keep all seven.
    """
    n = grid.n_flux
    slots = grid.cell_dof_slots
    present = slots >= 0
    pairs = np.argwhere(np.any(table != 0.0, axis=0) & ~np.eye(4, dtype=bool))
    ends = np.cumsum([n, *(np.count_nonzero(present[:, i] & present[:, j]) for i, j in pairs)])
    index = _index_dtype(ends[-1])
    rows, cols, values = np.empty(ends[-1], dtype=index), np.empty(ends[-1], dtype=index), np.empty(ends[-1])
    rows[:n] = cols[:n] = np.arange(n)
    values[:n] = np.bincount(slots[present], np.diagonal(table, axis1=1, axis2=2)[cls][present], minlength=n)
    for (i, j), start, end in zip(pairs, ends[:-1], ends[1:]):
        on = present[:, i] & present[:, j]
        rows[start:end], cols[start:end], values[start:end] = slots[on, i], slots[on, j], table[cls[on], i, j]
    return sp.coo_matrix((values, (rows, cols)), shape=(n, n)).tocsr()


def assemble_rt0(
    mesh: QuadMesh, coeff: CoefficientField, source=None
) -> Rt0System:
    """Assemble the RT0/P0 saddle system for a coefficient field.

    Every element matrix is ``REFERENCE_MASS`` times the cell's area over
    its coefficient, so the table holds one block per distinct value.
    ``source`` is forwarded to :func:`assemble_rhs`; without it the rhs is 0.
    """
    k = coeff.values
    if k.shape != (mesh.n_cells,):
        raise CoefficientError(
            f"coefficient covers {k.size} cells, mesh has {mesh.n_cells}"
        )
    scale, elem_class = np.unique(mesh.cell_area / k, return_inverse=True)
    elem_table = REFERENCE_MASS[None, :, :] * scale[:, None, None]
    g = assemble_rhs(mesh, source) if source is not None else None
    return Rt0System(mesh, elem_table, elem_class, g)


def assemble_rhs(mesh: QuadMesh, source) -> np.ndarray:
    """Pressure-equation right-hand side, entries -f_cell * cell area.

    ``source="corner"`` places a unit source in the lower-left cell and a
    unit sink in the upper-right cell; otherwise ``source`` is a per-cell f.
    """
    if isinstance(source, str):
        if source != "corner":
            raise MeshError(f"unknown source preset {source!r}")
        g = np.zeros(mesh.n_cells)
        g[mesh.cell_id(0, 0)] = -1.0
        g[mesh.cell_id(mesh.nx - 1, mesh.ny - 1)] = 1.0
        return g
    f = np.asarray(source, dtype=float)
    if f.shape != (mesh.n_cells,):
        raise MeshError(f"source covers {f.size} cells, mesh has {mesh.n_cells}")
    return -f * mesh.cell_area


def check_compatibility(g: np.ndarray) -> bool:
    """True iff the source integrates to zero (relative to its norm)."""
    g = np.asarray(g, dtype=float)
    return abs(g.sum()) <= COMPATIBILITY_RTOL * np.linalg.norm(g)


def divergence_defect(system: Rt0System, u: np.ndarray, g=0.0, energy=None) -> float:
    """Defect of u against the divergence data g on the zero-mean pressure space.

    Returns ||B u - g|| with the component along the pressure-gauge
    direction removed, normalised by the energy norm of u; ``g`` is a
    scalar or one value per cell.  Zero flux gives zero against zero data
    and ``inf`` against any other.  The divergence is
    ``system.grid.divergence(u)``; the energy ``u @ A u`` is ``energy``
    when given (a caller that knows it from other terms), else formed with A.
    """
    u = _checked_grid_vector(u, system.n_flux, "flux")
    if np.ndim(g):
        g = _checked_grid_vector(g, system.n_pressure, "divergence data")
    if not np.any(u):
        return np.inf if np.any(g) else 0.0
    if energy is None:
        energy = u @ (system.A @ u)
    return gauged_defect(system.grid.divergence(u) - g, energy, system.areas)


def gauged_defect(div: np.ndarray, energy: float, w: np.ndarray) -> float:
    """``divergence_defect`` of a flux given its divergence, energy and gauge direction ``w``."""
    d = div - w * (w @ div) / (w @ w)
    return float(np.linalg.norm(d) / np.sqrt(energy))


def dump_matrix_market(system: Rt0System, prefix: str) -> tuple[str, str]:
    """Write A and B in MatrixMarket coordinate format next to ``prefix``."""
    from scipy.io import mmwrite

    a_path = f"{prefix}A.mtx"
    b_path = f"{prefix}B.mtx"
    # Through an open file: mmwrite given a path in a missing directory
    # may neither write nor raise.
    for path, matrix in ((a_path, system.A), (b_path, system.B)):
        with open(path, "wb") as fh:
            mmwrite(fh, matrix.tocoo())
    return a_path, b_path
