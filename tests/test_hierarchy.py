"""Decomposition geometry, dof partition and averaging weights."""

import numpy as np
import pytest

from nested_bddc.bddc import average, build_level_bddc
from nested_bddc.hierarchy import (
    HierarchyConfig,
    HierarchyError,
    WeightsError,
    build_hierarchy,
    coarsen_element_values,
    compute_weights,
)
from nested_bddc.mesh_fem import CoefficientField, assemble_rt0, build_mesh


def test_config_validation():
    with pytest.raises(HierarchyError):
        HierarchyConfig(1, 3)
    with pytest.raises(HierarchyError):
        HierarchyConfig(2, 1)
    with pytest.raises(HierarchyError):
        HierarchyConfig(2, 3, 0.5)


def test_two_level_counts_9x9():
    mesh = build_mesh(9, 9)
    decomps = build_hierarchy(mesh, HierarchyConfig(2, 3))
    assert len(decomps) == 1
    d = decomps[0]
    assert d.n_sub == 9
    assert d.n_faces == 12
    assert len(d.partition.interface) == 36
    # closed forms on a uniform s x s arrangement of r x r subdomains
    s, r = 3, 3
    assert d.n_faces == 2 * (s - 1) * s
    assert len(d.partition.interface) == 2 * (s - 1) * s * r
    for sub in range(d.n_sub):
        assert len(d.interior_by_sub[sub]) == 2 * r * (r - 1)
        assert len(d.cells_by_sub[sub]) == r * r


def test_three_level_counts_27x27():
    mesh = build_mesh(27, 27)
    decomps = build_hierarchy(mesh, HierarchyConfig(3, 3))
    assert [d.n_sub for d in decomps] == [81, 9]
    assert decomps[0].grid.n_flux == 2 * 26 * 27
    # level-2 grid dofs are the level-1 faces
    assert decomps[1].grid.n_flux == decomps[0].n_faces


def test_degenerate_single_subdomain():
    mesh = build_mesh(3, 3)
    d = build_hierarchy(mesh, HierarchyConfig(2, 3))[0]
    assert d.n_sub == 1
    assert d.n_faces == 0
    assert len(d.partition.interface) == 0
    assert len(d.partition.interior) == mesh.n_flux


def test_indivisible_mesh_rejected():
    with pytest.raises(HierarchyError):
        build_hierarchy(build_mesh(10, 10), HierarchyConfig(2, 3))


def test_every_interface_dof_on_one_face_two_subs():
    mesh = build_mesh(12, 12)
    d = build_hierarchy(mesh, HierarchyConfig(2, 4))[0]
    part = d.partition
    seen = np.zeros(mesh.n_flux, dtype=int)
    for (sub_lo, sub_hi), dofs in zip(d.sub_grid.edge_sides, d.face_dofs):
        assert sub_lo < sub_hi
        seen[dofs] += 1
    assert np.all(seen[part.interface] == 1)
    assert np.all(seen[part.interior] == 0)
    assert part.n_primal_flux == d.n_faces
    assert part.n_primal_pressure == d.n_sub
    # interior/interface partition is disjoint and complete
    assert len(part.interior) + len(part.interface) == mesh.n_flux


def test_interface_nesting_across_levels():
    mesh = build_mesh(27, 27)
    decomps = build_hierarchy(mesh, HierarchyConfig(3, 3))
    upper = decomps[1]
    lower = decomps[0]
    # level-2 interface dofs, expanded one level down, lie inside the level-1 interface
    expanded = np.unique(lower.face_dofs[upper.partition.interface])
    assert np.all(np.isin(expanded, lower.partition.interface))


def test_face_average_functional_examples():
    mesh = build_mesh(6, 6)
    d = build_hierarchy(mesh, HierarchyConfig(2, 3))[0]
    dofs = d.face_dofs[0]
    assert len(dofs) == 3  # one fine dof per cell along the face
    vec = np.zeros(mesh.n_flux)
    vec[dofs] = [2.0, 4.0, 6.0]
    assert vec[dofs].mean() == pytest.approx(4.0)
    # constant field reproduces the constant
    vec[:] = 3.25
    for dofs in d.face_dofs:
        assert vec[dofs].mean() == pytest.approx(3.25)


def test_weights_unit_coefficient_all_half():
    mesh = build_mesh(9, 9)
    d = build_hierarchy(mesh, HierarchyConfig(2, 3))[0]
    coeff = CoefficientField.constant(mesh, 1.0)
    for gamma in (0.0, 1.0):
        w = compute_weights(d, coeff.values, gamma)
        assert np.all(w.side_lo[d.partition.interface] == 0.5)
        assert np.all(w.side_hi[d.partition.interface] == 0.5)
        assert np.all(w.side_lo[d.partition.interior] == 1.0)


def test_weights_jump_formula():
    # k = 100 on the left half, k = 1 on the right half of a 2x1 split
    mesh = build_mesh(6, 3)
    d = build_hierarchy(mesh, HierarchyConfig(2, 3))[0]
    values = np.where(np.arange(mesh.n_cells) % 6 < 3, 100.0, 1.0)
    w = compute_weights(d, values, 1.0)
    iface = d.partition.interface
    assert np.allclose(w.side_lo[iface], (1 / 100) / (1 / 100 + 1.0))
    assert np.allclose(w.side_lo[iface], 1.0 / 101.0)
    # gamma = 0 ignores the jump
    w0 = compute_weights(d, values, 0.0)
    assert np.all(w0.side_lo[iface] == 0.5)


def test_weights_partition_of_unity_exact(rng):
    mesh = build_mesh(12, 12)
    d = build_hierarchy(mesh, HierarchyConfig(2, 4))[0]
    # random per-subdomain coefficients, constant inside each subdomain
    sub_vals = rng.uniform(0.01, 100.0, d.n_sub)
    values = np.empty(mesh.n_cells)
    for s, cells in enumerate(d.cells_by_sub):
        values[cells] = sub_vals[s]
    w = compute_weights(d, values, 1.0)
    assert np.all(w.side_lo + w.side_hi == 1.0)


def test_weights_reject_ambiguous_coefficients(rng):
    mesh = build_mesh(9, 9)
    d = build_hierarchy(mesh, HierarchyConfig(2, 3))[0]
    values = rng.uniform(0.5, 2.0, mesh.n_cells)
    with pytest.raises(WeightsError):
        compute_weights(d, values, 1.0)
    # multiplicity scaling accepts anything
    compute_weights(d, values, 0.0)


def test_averaging_is_projection(rng):
    mesh = build_mesh(9, 9)
    d = build_hierarchy(mesh, HierarchyConfig(2, 3))[0]
    coeff = CoefficientField.constant(mesh, 1.0)
    level = build_level_bddc(assemble_rt0(mesh, coeff), d, compute_weights(d, coeff.values, 1.0))
    v = rng.standard_normal(mesh.n_flux)
    copies = [v[grp.idx_loc] for grp in level.delta_groups]
    assert np.allclose(average(level, copies), v, atol=1e-14)


def test_coarsen_element_values():
    mesh = build_mesh(6, 6)
    d = build_hierarchy(mesh, HierarchyConfig(2, 3))[0]
    values = np.ones(mesh.n_cells)
    values[0] = 2.0  # mix inside subdomain 0
    out = coarsen_element_values(d, values)
    assert np.isnan(out[0])
    assert np.all(out[1:] == 1.0)
    # reference: the first child's value where all children agree, else NaN
    values[d.cells_by_sub[2, 4]] = np.nan
    children = [values[cells] for cells in d.cells_by_sub]
    ref = [v[0] if np.all(v == v[0]) else np.nan for v in children]
    assert np.array_equal(coarsen_element_values(d, values), ref, equal_nan=True)
