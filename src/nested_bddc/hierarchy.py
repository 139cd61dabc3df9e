"""Nested substructure hierarchy: index arrays per level and averaging weights.

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
by the subdomain's corner, so a level is a handful of integer arrays with
one row per subdomain or face, built by broadcasting and reshapes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh_fem import SLOT_BOTTOM, SLOT_LEFT, SLOT_RIGHT, SLOT_TOP, QuadMesh

__all__ = [
    "HierarchyError",
    "WeightsError",
    "HierarchyConfig",
    "LevelDecomposition",
    "AveragingWeights",
    "build_level_decomposition",
    "build_hierarchy",
    "compute_weights",
]


class HierarchyError(ValueError):
    pass


class WeightsError(ValueError):
    pass


@dataclass(frozen=True)
class HierarchyConfig:
    """Number of levels and the coarsening ratio shared by every level."""

    levels: int
    ratio: int

    def __post_init__(self):
        if self.levels < 2:
            raise HierarchyError("at least two levels are required")
        if int(self.ratio) != self.ratio or self.ratio < 2:
            raise HierarchyError("coarsening ratio must be an integer >= 2")


@dataclass
class LevelDecomposition:
    """One level of the nested decomposition of a (possibly coarse) grid.

    Faces are the flux dofs of ``sub_grid``: face ``f`` separates the
    subdomains ``sub_grid.edge_sides[f]`` (lower, higher) and holds the level
    dofs ``face_dofs[f]``.
    """

    grid: QuadMesh
    sub_grid: QuadMesh
    face_dofs: np.ndarray  # (n_faces, ratio)
    cells_by_sub: np.ndarray  # (n_sub, ratio**2), ascending per row
    interior_by_sub: np.ndarray  # (n_sub, 2 ratio (ratio - 1)), ascending per row
    faces_by_sub: np.ndarray  # (n_sub, 4) face ids by slot, -1 absent

    @property
    def n_sub(self) -> int:
        return self.sub_grid.n_cells

    @property
    def n_faces(self) -> int:
        return len(self.face_dofs)


def build_level_decomposition(grid: QuadMesh, ratio: int) -> LevelDecomposition:
    """Group the cells of ``grid`` into ratio x ratio subdomains."""
    if grid.nx % ratio or grid.ny % ratio:
        raise HierarchyError(
            f"grid {grid.nx}x{grid.ny} is not divisible by ratio {ratio}"
        )
    sx, sy = grid.nx // ratio, grid.ny // ratio
    sub_grid = QuadMesh(sx, sy, grid.h * ratio)

    # Subdomain j sx + i has its lower-left cell at (x0, y0) = (i r, j r);
    # its cells and interior edges are one template shifted by that corner.
    t = np.arange(ratio)
    t_in = np.arange(1, ratio)[:, None]
    x0 = np.arange(sx)[None, :, None, None] * ratio
    y0 = np.arange(sy)[:, None, None, None] * ratio
    cells_by_sub = grid.cell_id(x0 + t, y0 + t[:, None]).reshape(sub_grid.n_cells, -1)
    interior_by_sub = np.concatenate(
        [
            grid.vertical_edge(x0 + t_in, y0 + t).reshape(sub_grid.n_cells, -1),
            grid.horizontal_edge(x0 + t, y0 + t_in).reshape(sub_grid.n_cells, -1),
        ],
        axis=1,
    )

    # Faces enumerate exactly like the edges of the coarsened grid.
    line, row = np.divmod(np.arange(sub_grid.n_vertical), sy)
    v_faces = grid.vertical_edge((line[:, None] + 1) * ratio, row[:, None] * ratio + t)
    line, col = np.divmod(np.arange(sub_grid.n_horizontal), sx)
    h_faces = grid.horizontal_edge(col[:, None] * ratio + t, (line[:, None] + 1) * ratio)
    face_dofs = np.concatenate([v_faces, h_faces])

    return LevelDecomposition(
        grid=grid,
        sub_grid=sub_grid,
        face_dofs=face_dofs,
        cells_by_sub=cells_by_sub,
        interior_by_sub=interior_by_sub,
        faces_by_sub=sub_grid.cell_dof_slots,
    )


def build_hierarchy(mesh: QuadMesh, config: HierarchyConfig) -> list[LevelDecomposition]:
    """Decompositions for levels 1..L-1; each sub grid is the next level's grid."""
    total = config.ratio ** (config.levels - 1)
    if mesh.nx % total or mesh.ny % total:
        raise HierarchyError(
            f"mesh {mesh.nx}x{mesh.ny} is not divisible by ratio^{config.levels - 1} = {total}"
        )
    decomps = []
    grid = mesh
    for _ in range(config.levels - 1):
        decomp = build_level_decomposition(grid, config.ratio)
        decomps.append(decomp)
        grid = decomp.sub_grid
    return decomps


@dataclass
class AveragingWeights:
    """Interface weights of the two subdomain copies; interior dofs weigh 1.

    ``side_lo``/``side_hi`` hold, for every flux dof of the level, the weight
    of the lower/higher subdomain copy (1 and 0 on interior dofs so the sum
    is a partition of unity everywhere by construction).
    """

    side_lo: np.ndarray
    side_hi: np.ndarray


def compute_weights(
    decomp: LevelDecomposition, elem_mass: np.ndarray, gamma: float
) -> AveragingWeights:
    """Averaging weights, one value per face and side.

    ``gamma=0`` gives both subdomain copies of a face the weight 1/2.
    ``gamma=1`` gives the lower side ``D_lo / (D_lo + D_hi)``, where ``D_i``
    sums side ``i``'s element mass diagonals at the face's dofs (the lower
    cells' right/top slots, the higher cells' left/bottom slots).  The
    level's ``elem_mass`` exists on every level and for every positive
    coefficient, and a weight constant along a face keeps the face average
    that the nested method passes between levels.  For a coefficient
    constant on each side of a face this is ``k_lo^-1 / (k_lo^-1 + k_hi^-1)``.
    """
    if gamma not in (0, 1):
        raise WeightsError(f"gamma must be 0 or 1, got {gamma!r}")
    elem_mass = np.asarray(elem_mass, dtype=float)
    grid = decomp.grid
    if elem_mass.shape != (grid.n_cells, 4, 4):
        raise WeightsError("element masses do not match the level grid")

    side_lo = np.ones(grid.n_flux)
    side_hi = np.zeros(grid.n_flux)
    face_dofs = decomp.face_dofs
    if gamma == 0:
        w_lo = np.full((len(face_dofs), 1), 0.5)
    else:
        vertical = face_dofs < grid.n_vertical
        slots = np.where(vertical[..., None], (SLOT_RIGHT, SLOT_LEFT), (SLOT_TOP, SLOT_BOTTOM))
        diag = np.diagonal(elem_mass, axis1=1, axis2=2)
        d = diag[grid.edge_sides[face_dofs], slots].sum(axis=1)  # (n_faces, 2)
        w_lo = (d[:, 0] / (d[:, 0] + d[:, 1]))[:, None]
    side_lo[face_dofs] = w_lo
    side_hi[face_dofs] = 1.0 - w_lo  # exact partition of unity
    return AveragingWeights(side_lo=side_lo, side_hi=side_hi)
