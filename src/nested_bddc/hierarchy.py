"""Nested substructure hierarchy: index arrays per level and face weights.

Each decomposition level groups the current grid's cells into square
ratio x ratio subdomains.  The only interface entities are faces (no
corners): every interface flux dof lies on exactly one face shared by
exactly two subdomains.  Coarse dofs are the arithmetic mean of the fine
dofs of a face plus one pressure average per subdomain, so the faces of one
level become the flux dofs of the next, enumerated exactly like the edges
of the coarsened grid.  A face's normal points from the lower to the higher
subdomain, which is the global +x/+y edge orientation, so all dof signs are
+1.

On the uniform grid every per-subdomain index set is one template shifted
by the subdomain's corner.  A level keeps its face dofs (one row per
face), each subdomain's faces by slot and one local numbering
(``local_slots``) that serves every subdomain.  A subdomain's cells and
interior flux dofs are not kept here: ``LevelDecomposition.subdomain_rows``
builds them from the template for any list of subdomains, and
``bddc.build_level_bddc`` keeps them once, in the level's batch order.
The interface weights are one value per face, the weight of its lower
copy; the higher copy takes the rest.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import NestedBddcError
from .mesh_fem import SLOT_BOTTOM, SLOT_LEFT, SLOT_RIGHT, SLOT_TOP, QuadMesh, Rt0System

__all__ = [
    "HierarchyError",
    "WeightsError",
    "LevelDecomposition",
    "build_level_decomposition",
    "check_shape",
    "build_hierarchy",
    "compute_weights",
]


class HierarchyError(NestedBddcError, ValueError):
    pass


class WeightsError(NestedBddcError, ValueError):
    pass


@dataclass
class LevelDecomposition:
    """One level of the nested decomposition of a (possibly coarse) grid.

    Faces are the flux dofs of ``sub_grid``: face ``f`` separates the
    subdomains ``sub_grid.edge_sides[f]`` (lower, higher) and holds the level
    dofs ``face_dofs[f]``.  Subdomain ``j sx + i`` has its lower-left cell
    at ``(i ratio, j ratio)``; its cells and interior flux dofs are not
    stored, ``subdomain_rows`` builds them for the subdomains asked for.

    ``local_slots`` is the local numbering of every subdomain: per cell
    (``subdomain_rows`` cell order) and slot, the position of the slot's
    dof in the subdomain's interior row followed by the ``face_dofs`` rows
    of its four faces by slot (``ratio`` entries each, -1 for an absent
    face).
    """

    grid: QuadMesh
    sub_grid: QuadMesh
    face_dofs: np.ndarray  # (n_faces, ratio)
    faces_by_sub: np.ndarray  # (n_sub, 4) face ids by slot, -1 absent
    local_slots: np.ndarray  # (ratio**2, 4) local dof positions, one template

    @property
    def n_sub(self) -> int:
        return self.sub_grid.n_cells

    @property
    def n_faces(self) -> int:
        return len(self.face_dofs)

    def subdomain_rows(self, subs) -> tuple[np.ndarray, np.ndarray]:
        """Cells and interior flux dofs of the subdomains ``subs``, one row per subdomain.

        Each row is the template shifted by the subdomain's corner, in
        ascending order: ``ratio**2`` cells, and ``2 ratio (ratio - 1)``
        interior dofs, the vertical edges before the horizontal ones.
        """
        ratio, grid, n = self.face_dofs.shape[1], self.grid, len(subs)
        y0, x0 = np.divmod(np.asarray(subs, dtype=np.intp), self.sub_grid.nx)
        y0, x0 = y0 * ratio, x0 * ratio
        t, t_in = np.arange(ratio), np.arange(1, ratio)[:, None]
        # Every index is affine in the cell coordinates, so a row is the
        # template at the origin plus the corner's offset.  There are as
        # many vertical as horizontal interior edges: one stack takes both.
        cells = grid.cell_id(x0, y0)[:, None] + grid.cell_id(t, t[:, None]).ravel()
        edges = ((grid.vertical_edge, t_in, t), (grid.horizontal_edge, t, t_in))
        corner = np.stack([f(x0, y0) - f(0, 0) for f, _, _ in edges], axis=1)
        interior = corner[:, :, None] + np.stack([f(i, j).ravel() for f, i, j in edges])
        return cells, interior.reshape(n, -1)

    def by_sub(self, cell_values: np.ndarray) -> np.ndarray:
        """Per-cell values of ``grid``, one row per subdomain in ``subdomain_rows`` cell order."""
        ratio, sub_grid = self.face_dofs.shape[1], self.sub_grid
        blocks = cell_values.reshape(sub_grid.ny, ratio, sub_grid.nx, ratio).swapaxes(1, 2)
        return blocks.reshape(self.n_sub, ratio * ratio)


def build_level_decomposition(grid: QuadMesh, ratio: int) -> LevelDecomposition:
    """Group the cells of ``grid`` into ratio x ratio subdomains."""
    if grid.nx % ratio or grid.ny % ratio:
        raise HierarchyError(
            f"grid {grid.nx}x{grid.ny} is not divisible by ratio {ratio}"
        )
    sx, sy = grid.nx // ratio, grid.ny // ratio
    sub_grid = QuadMesh(sx, sy, grid.h * ratio)
    t = np.arange(ratio)

    # Faces enumerate exactly like the edges of the coarsened grid.
    line, row = np.divmod(np.arange(sub_grid.n_vertical), sy)
    v_faces = grid.vertical_edge((line[:, None] + 1) * ratio, row[:, None] * ratio + t)
    line, col = np.divmod(np.arange(sub_grid.n_horizontal), sx)
    h_faces = grid.horizontal_edge(col[:, None] * ratio + t, (line[:, None] + 1) * ratio)
    face_dofs = np.concatenate([v_faces, h_faces])

    # A ratio x ratio grid numbers its edges like a subdomain's interior
    # row; its boundary slots run along each face like face_dofs: by cell
    # row on the left and right, by cell column on the bottom and top.
    block = QuadMesh(ratio, ratio, grid.h)
    j, i = np.divmod(np.arange(ratio * ratio), ratio)
    on_face = block.n_flux + np.arange(4) * ratio + np.stack([j, j, i, i], axis=1)
    local_slots = np.where(block.cell_dof_slots >= 0, block.cell_dof_slots, on_face)

    return LevelDecomposition(
        grid=grid,
        sub_grid=sub_grid,
        face_dofs=face_dofs,
        faces_by_sub=sub_grid.cell_dof_slots,
        local_slots=local_slots,
    )


def check_shape(levels: int, ratio: int) -> None:
    """Reject a level count or coarsening ratio that no mesh can take.

    ``bool`` is an ``Integral`` in Python, but neither a count nor a ratio.
    """
    if isinstance(levels, bool) or not isinstance(levels, numbers.Integral):
        raise HierarchyError(f"level count must be an integer, got {levels!r}")
    if levels < 2:
        raise HierarchyError("at least two levels are required")
    if isinstance(ratio, bool) or not isinstance(ratio, numbers.Integral) or ratio < 2:
        raise HierarchyError(f"coarsening ratio must be an integer >= 2, got {ratio!r}")


def build_hierarchy(mesh: QuadMesh, levels: int, ratio: int) -> list[LevelDecomposition]:
    """Decompositions for levels 1..L-1; each sub grid is the next level's grid."""
    check_shape(levels, ratio)
    total = ratio ** (levels - 1)
    if mesh.nx % total or mesh.ny % total:
        raise HierarchyError(
            f"mesh {mesh.nx}x{mesh.ny} is not divisible by ratio^{levels - 1} = {total}"
        )
    decomps = []
    grid = mesh
    for _ in range(levels - 1):
        decomp = build_level_decomposition(grid, ratio)
        decomps.append(decomp)
        grid = decomp.sub_grid
    return decomps


def compute_weights(decomp: LevelDecomposition, system: Rt0System, gamma: float) -> np.ndarray:
    """Weight ``w_lo`` of the lower subdomain copy, one value per face.

    The higher copy weighs ``1 - w_lo``, so the two copies of every face
    dof sum to one; interior dofs have one copy of weight 1.
    ``gamma=0`` gives both copies of a face the weight 1/2.
    ``gamma=1`` gives the lower side ``D_lo / (D_lo + D_hi)``, where ``D_i``
    sums side ``i``'s element mass diagonals at the face's dofs (the lower
    cells' right/top slots, the higher cells' left/bottom slots), added in
    order along the face; each side of a family's faces is one strided slice
    of the grid's cell lines (no ``edge_sides``).  ``system`` is the
    level's, on ``decomp.grid`` (``WeightsError`` otherwise), and the
    diagonals are read from its class table (checked by the ``Rt0System``
    constructor) through the cells' classes.
    They exist on every level and for every positive coefficient, and a
    weight constant along a face keeps the face average that the nested
    method passes between levels.  For a coefficient constant on each side of
    a face this is ``k_lo^-1 / (k_lo^-1 + k_hi^-1)``.
    """
    if gamma not in (0, 1):
        raise WeightsError(f"gamma must be 0 or 1, got {gamma!r}")
    grid = decomp.grid
    if system.grid != grid:
        raise WeightsError(f"system is on grid {system.grid}, the level on {grid}")

    if gamma == 0:
        return np.full(decomp.n_faces, 0.5)
    ratio = decomp.face_dofs.shape[1]
    diag = np.diagonal(system.elem_table, axis1=1, axis2=2)
    cls = system.elem_class.reshape(grid.ny, grid.nx)
    # Per family (vertical faces first) and side: the faces on sub-grid line L
    # have their lower cells on grid line L ratio - 1, their higher on L ratio.
    d = [
        reduce(np.add, diag[cells, slot].reshape(-1, ratio).T)
        for lines, slots in ((cls.T, (SLOT_RIGHT, SLOT_LEFT)), (cls, (SLOT_TOP, SLOT_BOTTOM)))
        for cells, slot in zip((lines[ratio - 1 : -1 : ratio], lines[ratio::ratio]), slots)
    ]
    lo, hi = np.concatenate(d[0::2]), np.concatenate(d[1::2])
    return lo / (lo + hi)
