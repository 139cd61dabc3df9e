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
block, so it is again an ``Rt0System`` on a smaller ``QuadMesh``.

Assembly is deterministic (identical inputs give bit-identical matrices) and
assembled systems are immutable, safe to share across concurrent readers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

__all__ = [
    "MeshError",
    "CoefficientError",
    "QuadMesh",
    "CoefficientField",
    "Rt0System",
    "build_mesh",
    "element_blocks",
    "assemble_system",
    "assemble_rt0",
    "assemble_rhs",
    "check_compatibility",
    "divergence_defect",
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


class MeshError(ValueError):
    pass


class CoefficientError(ValueError):
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
        c = np.arange(self.n_cells)
        i = c % self.nx
        j = c // self.nx
        slots = np.full((self.n_cells, 4), -1, dtype=np.int64)
        m = i >= 1
        slots[m, SLOT_LEFT] = self.vertical_edge(i[m], j[m])
        m = i <= self.nx - 2
        slots[m, SLOT_RIGHT] = self.vertical_edge(i[m] + 1, j[m])
        m = j >= 1
        slots[m, SLOT_BOTTOM] = self.horizontal_edge(i[m], j[m])
        m = j <= self.ny - 2
        slots[m, SLOT_TOP] = self.horizontal_edge(i[m], j[m] + 1)
        return slots

    @cached_property
    def edge_sides(self) -> np.ndarray:
        """(n_flux, 2) adjacent cell ids per edge: (low side, high side).

        The low side sits against the edge normal (left/bottom cell), the
        high side along it.  Every enumerated edge is interior so both exist.
        """
        sides = np.empty((self.n_flux, 2), dtype=np.int64)
        if self.n_vertical:
            line, row = np.divmod(np.arange(self.n_vertical), self.ny)
            line += 1
            sides[: self.n_vertical, 0] = self.cell_id(line - 1, row)
            sides[: self.n_vertical, 1] = self.cell_id(line, row)
        if self.n_horizontal:
            line, col = np.divmod(np.arange(self.n_horizontal), self.nx)
            line += 1
            sides[self.n_vertical :, 0] = self.cell_id(col, line - 1)
            sides[self.n_vertical :, 1] = self.cell_id(col, line)
        return sides


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

    @classmethod
    def aligned_jump(
        cls,
        mesh: QuadMesh,
        ratio: int,
        levels: int,
        layout: str,
        k1: float,
        k2: float = 1.0,
        k3: float = 1.0,
    ) -> "CoefficientField":
        """Three-material patterns whose jumps align with block boundaries.

        ``layout="right"``: each top-level block (side ``ratio**(levels-1)``
        cells) is uniform, cycling k1/k2/k3 along diagonals, so all jumps sit
        on top-level interfaces.

        ``layout="left"``: jumps are interior to top-level blocks.  Inside
        each top-level block the central child block carries k3 with a k1
        core (one grandchild block), everything else is k2, so jumps align
        only with the two finer block tiers.
        """
        c = np.arange(mesh.n_cells)
        i = c % mesh.nx
        j = c // mesh.nx
        if layout == "right":
            if levels < 2:
                raise CoefficientError("layout 'right' needs at least 2 levels")
            t = ratio ** (levels - 1)
            if mesh.nx % t or mesh.ny % t:
                raise CoefficientError("mesh does not tile into top-level blocks")
            mats = np.array([k1, k2, k3], dtype=float)
            values = mats[((i // t) + (j // t)) % 3]
        elif layout == "left":
            if levels < 4:
                raise CoefficientError("layout 'left' needs at least 4 levels")
            t2 = ratio ** (levels - 2)
            t3 = ratio ** (levels - 3)
            if mesh.nx % (t2 * ratio) or mesh.ny % (t2 * ratio):
                raise CoefficientError("mesh does not tile into top-level blocks")
            mid = ratio // 2
            inner = ((i // t2) % ratio == mid) & ((j // t2) % ratio == mid)
            core = inner & ((i // t3) % ratio == mid) & ((j // t3) % ratio == mid)
            values = np.where(core, k1, np.where(inner, k3, k2))
        else:
            raise CoefficientError(f"unknown layout {layout!r}")
        return cls(values)


@dataclass
class Rt0System:
    """Assembled mixed system: flux mass matrix A, divergence matrix B, rhs g.

    ``elem_mass`` keeps the per-cell contributions (slot-ordered 4x4 blocks)
    so that subdomain Neumann matrices can be re-assembled locally, and
    ``elem_k`` the per-cell coefficient (NaN where a coarse block mixes
    materials).
    """

    grid: QuadMesh
    elem_mass: np.ndarray
    elem_k: np.ndarray
    A: sp.csr_matrix
    B: sp.csr_matrix
    g: np.ndarray
    areas: np.ndarray = field(repr=False, default=None)

    @property
    def n_flux(self) -> int:
        return self.grid.n_flux

    @property
    def n_pressure(self) -> int:
        return self.grid.n_pressure

    @property
    def n_dofs(self) -> int:
        return self.n_flux + self.n_pressure


def element_blocks(slot_map: np.ndarray, elem_mass: np.ndarray, h: float, n_flux: int):
    """Mass and divergence blocks (COO) scattered from per-cell contributions.

    ``slot_map`` holds, per cell and slot, the row/column of the slot's flux
    dof in the blocks, -1 where the cell has no dof there: global dof ids
    for a whole grid, local positions for a subdomain.  Row ``c`` of the
    divergence block belongs to cell ``c`` of ``slot_map``.
    """
    present = slot_map >= 0
    pair = present[:, :, None] & present[:, None, :]
    rows = np.broadcast_to(slot_map[:, :, None], pair.shape)[pair]
    cols = np.broadcast_to(slot_map[:, None, :], pair.shape)[pair]
    mass = sp.coo_matrix((elem_mass[pair], (rows, cols)), shape=(n_flux, n_flux))
    n_cells = len(slot_map)
    cell_rows = np.broadcast_to(np.arange(n_cells)[:, None], slot_map.shape)[present]
    signs = np.broadcast_to(SLOT_SIGNS * h, slot_map.shape)[present]
    div = sp.coo_matrix((signs, (cell_rows, slot_map[present])), shape=(n_cells, n_flux))
    return mass, div


def assemble_system(
    grid: QuadMesh,
    elem_mass: np.ndarray,
    elem_k: np.ndarray,
    g: np.ndarray | None = None,
) -> Rt0System:
    """Assemble A and B from per-cell contributions on ``grid``."""
    mass, div = element_blocks(grid.cell_dof_slots, elem_mass, grid.h, grid.n_flux)
    if g is None:
        g = np.zeros(grid.n_cells)
    areas = np.full(grid.n_cells, grid.cell_area)
    return Rt0System(
        grid, elem_mass, np.asarray(elem_k, dtype=float), mass.tocsr(), div.tocsr(),
        np.asarray(g, dtype=float), areas,
    )


def assemble_rt0(
    mesh: QuadMesh, coeff: CoefficientField, source=None
) -> Rt0System:
    """Assemble the RT0/P0 saddle system for a coefficient field.

    ``source`` is forwarded to :func:`assemble_rhs`; without it the rhs is 0.
    """
    k = coeff.values
    if k.shape != (mesh.n_cells,):
        raise CoefficientError(
            f"coefficient covers {k.size} cells, mesh has {mesh.n_cells}"
        )
    elem_mass = REFERENCE_MASS[None, :, :] * (mesh.cell_area / k)[:, None, None]
    g = assemble_rhs(mesh, source) if source is not None else None
    return assemble_system(mesh, elem_mass, k, g)


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


def check_compatibility(g: np.ndarray, rtol: float = COMPATIBILITY_RTOL) -> bool:
    """True iff the source integrates to zero (relative to its norm)."""
    g = np.asarray(g, dtype=float)
    return abs(g.sum()) <= rtol * np.linalg.norm(g)


def divergence_defect(system: Rt0System, u: np.ndarray) -> float:
    """Defect of u against divergence-freedom on the zero-mean pressure space.

    Returns ||B u|| with the component along the pressure-gauge direction
    removed, normalised by the energy norm of u.  Zero flux gives zero.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (system.n_flux,):
        raise ValueError(f"flux vector has length {u.size}, expected {system.n_flux}")
    w = system.areas
    if not np.any(u):
        return 0.0
    d = system.B @ u
    d = d - w * (w @ d) / (w @ w)
    energy = np.sqrt(u @ (system.A @ u))
    return float(np.linalg.norm(d) / energy)


def dump_matrix_market(system: Rt0System, prefix: str) -> tuple[str, str]:
    """Write A and B in MatrixMarket coordinate format next to ``prefix``."""
    from scipy.io import mmwrite

    a_path = f"{prefix}A.mtx"
    b_path = f"{prefix}B.mtx"
    mmwrite(a_path, system.A.tocoo())
    mmwrite(b_path, system.B.tocoo())
    return a_path, b_path
