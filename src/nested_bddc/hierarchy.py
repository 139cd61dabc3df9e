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

from .mesh_fem import QuadMesh

__all__ = [
    "HierarchyError",
    "WeightsError",
    "HierarchyConfig",
    "DofPartition",
    "LevelDecomposition",
    "AveragingWeights",
    "build_level_decomposition",
    "build_hierarchy",
    "compute_weights",
    "coarsen_element_values",
]


class HierarchyError(ValueError):
    pass


class WeightsError(ValueError):
    pass


@dataclass(frozen=True)
class HierarchyConfig:
    """Number of levels, coarsening ratio per level, and scaling exponent.

    ``gamma=0`` is multiplicity scaling (plain halves on interfaces),
    ``gamma=1`` weighs by inverse coefficient (stiffness scaling for this
    mass-matrix energy).
    """

    levels: int
    ratio: int
    gamma: float = 1.0

    def __post_init__(self):
        if self.levels < 2:
            raise HierarchyError("at least two levels are required")
        if int(self.ratio) != self.ratio or self.ratio < 2:
            raise HierarchyError("coarsening ratio must be an integer >= 2")
        if self.gamma not in (0, 1, 0.0, 1.0):
            raise HierarchyError("scaling exponent must be 0 or 1")


@dataclass(frozen=True)
class DofPartition:
    interior: np.ndarray
    interface: np.ndarray
    n_primal_flux: int  # one per face
    n_primal_pressure: int  # one per subdomain


@dataclass
class LevelDecomposition:
    """One level of the nested decomposition of a (possibly coarse) grid.

    Faces are the flux dofs of ``sub_grid``: face ``f`` separates the
    subdomains ``sub_grid.edge_sides[f]`` (lower, higher) and holds the level
    dofs ``face_dofs[f]``.
    """

    level: int
    grid: QuadMesh
    sub_grid: QuadMesh
    ratio: int
    face_dofs: np.ndarray  # (n_faces, ratio)
    cells_by_sub: np.ndarray  # (n_sub, ratio**2), ascending per row
    interior_by_sub: np.ndarray  # (n_sub, 2 ratio (ratio - 1)), ascending per row
    faces_by_sub: np.ndarray  # (n_sub, 4) face ids by slot, -1 absent
    partition: DofPartition

    @property
    def n_sub(self) -> int:
        return self.sub_grid.n_cells

    @property
    def n_faces(self) -> int:
        return len(self.face_dofs)


def build_level_decomposition(grid: QuadMesh, ratio: int, level: int) -> LevelDecomposition:
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

    partition = DofPartition(
        interior=np.sort(interior_by_sub.ravel()),
        interface=np.sort(face_dofs.ravel()),
        n_primal_flux=sub_grid.n_flux,
        n_primal_pressure=sub_grid.n_cells,
    )
    return LevelDecomposition(
        level=level,
        grid=grid,
        sub_grid=sub_grid,
        ratio=ratio,
        face_dofs=face_dofs,
        cells_by_sub=cells_by_sub,
        interior_by_sub=interior_by_sub,
        faces_by_sub=sub_grid.cell_dof_slots,
        partition=partition,
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
    for level in range(1, config.levels):
        decomp = build_level_decomposition(grid, config.ratio, level)
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
    decomp: LevelDecomposition, values: np.ndarray, gamma: float
) -> AveragingWeights:
    """Averaging weights k_i^-gamma / (k_i^-gamma + k_j^-gamma) per interface dof.

    ``values`` holds one coefficient per element of the decomposed grid.
    With ``gamma != 0`` the element values adjacent to each face must be
    well defined and constant along it; mixed or varying materials are
    rejected because the subdomain weight would be ambiguous.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (decomp.grid.n_cells,):
        raise WeightsError("element values do not match the level grid")

    n_flux = decomp.grid.n_flux
    side_lo = np.ones(n_flux)
    side_hi = np.zeros(n_flux)
    face_dofs = decomp.face_dofs
    if face_dofs.size:
        if gamma == 0:
            side_lo[face_dofs] = 0.5
            side_hi[face_dofs] = 0.5
        else:
            k = values[decomp.grid.edge_sides[face_dofs]]  # (n_faces, ratio, 2)
            if not np.all(np.isfinite(k)):
                raise WeightsError(
                    "coefficient varies inside an element adjacent to an interface; "
                    "rho-scaling weights are ambiguous"
                )
            if np.any(np.ptp(k, axis=1) > 1e-12 * np.maximum(1.0, np.abs(k).max(axis=1))):
                raise WeightsError(
                    "coefficient varies along a face; rho-scaling weights are ambiguous"
                )
            a = k[..., 0] ** (-gamma)
            b = k[..., 1] ** (-gamma)
            e_lo = a / (a + b)
            side_lo[face_dofs] = e_lo
            side_hi[face_dofs] = 1.0 - e_lo  # exact partition of unity
    return AveragingWeights(side_lo=side_lo, side_hi=side_hi)


def coarsen_element_values(decomp: LevelDecomposition, values: np.ndarray) -> np.ndarray:
    """Per-subdomain representative values; NaN where children disagree."""
    v = np.asarray(values, dtype=float)[decomp.cells_by_sub]
    return np.where(np.all(v == v[:, :1], axis=1), v[:, 0], np.nan)
