"""Mesh enumeration and RT0 assembly against independent oracles."""

import numpy as np
import pytest

from nested_bddc.mesh_fem import (
    CoefficientError,
    CoefficientField,
    MeshError,
    assemble_rhs,
    assemble_rt0,
    build_mesh,
    check_compatibility,
    divergence_defect,
    dump_matrix_market,
)


def quadrature_element_mass(h, k, order=4):
    """Independent oracle: integrate the four edge basis functions numerically.

    Basis on the cell [0,h]^2: unit normal component on one edge, zero on the
    others, normals +x for vertical and +y for horizontal edges.
    """
    nodes, weights = np.polynomial.legendre.leggauss(order)
    x = 0.5 * h * (nodes + 1.0)
    w = 0.5 * h * weights

    def basis(a, xx, yy):
        if a == 0:  # left
            return np.stack([(h - xx) / h, np.zeros_like(xx)])
        if a == 1:  # right
            return np.stack([xx / h, np.zeros_like(xx)])
        if a == 2:  # bottom
            return np.stack([np.zeros_like(yy), (h - yy) / h])
        return np.stack([np.zeros_like(yy), yy / h])

    xx, yy = np.meshgrid(x, x, indexing="ij")
    ww = np.outer(w, w)
    mass = np.zeros((4, 4))
    for a in range(4):
        fa = basis(a, xx, yy)
        for b in range(4):
            fb = basis(b, xx, yy)
            mass[a, b] = np.sum(ww * (fa * fb).sum(axis=0)) / k
    return mass


@pytest.mark.parametrize(
    "nx,ny,flux,pressure",
    [(1, 1, 0, 1), (9, 9, 144, 81), (3, 3, 12, 9), (4, 2, 10, 8)],
)
def test_dof_counts(nx, ny, flux, pressure):
    mesh = build_mesh(nx, ny)
    assert mesh.n_flux == flux
    assert mesh.n_pressure == pressure
    assert mesh.n_flux == (nx - 1) * ny + nx * (ny - 1)


@pytest.mark.parametrize("nx,ny", [(0, 3), (3, 0), (-1, 2), (2.5, 2)])
def test_bad_dimensions_rejected(nx, ny):
    with pytest.raises(MeshError):
        build_mesh(nx, ny)


def test_edge_enumeration_consistency():
    mesh = build_mesh(5, 4)
    slots = mesh.cell_dof_slots
    # every interior edge appears in exactly two cells, boundary slots are -1
    counts = np.bincount(slots[slots >= 0], minlength=mesh.n_flux)
    assert np.all(counts == 2)
    # adjacency agrees with the slot table
    sides = mesh.edge_sides
    for c in range(mesh.n_cells):
        left, right, bottom, top = slots[c]
        if left >= 0:
            assert sides[left, 1] == c
        if right >= 0:
            assert sides[right, 0] == c
        if bottom >= 0:
            assert sides[bottom, 1] == c
        if top >= 0:
            assert sides[top, 0] == c


@pytest.mark.parametrize("h,k", [(1.0, 1.0), (0.25, 1.0), (1 / 3, 7.5), (0.1, 0.01)])
def test_element_mass_matches_quadrature(h, k):
    # the element matrices the solver assembles, on a mesh of cell size h
    mesh = build_mesh(round(1 / h), round(1 / h))
    elem_mass = assemble_rt0(mesh, CoefficientField.constant(mesh, k)).elem_mass
    assert np.allclose(elem_mass, quadrature_element_mass(mesh.h, k), rtol=1e-13)


def test_assembled_mass_is_spd():
    mesh = build_mesh(3, 3)
    system = assemble_rt0(mesh, CoefficientField.constant(mesh, 1.0))
    dense = system.A.toarray()
    assert np.allclose(dense, dense.T)
    eigs = np.linalg.eigvalsh(dense)
    assert eigs[0] > 0


def test_divergence_theorem_row_property(rng):
    mesh = build_mesh(2, 2)
    system = assemble_rt0(mesh, CoefficientField.constant(mesh, 1.0))
    ones = np.ones(system.n_pressure)
    assert np.allclose(system.B.T @ ones, 0.0)
    for _ in range(5):
        u = rng.standard_normal(system.n_flux)
        assert abs((system.B @ u).sum()) < 1e-14


def test_coefficient_scaling_of_blocks():
    mesh = build_mesh(4, 4)
    k = np.linspace(0.5, 2.0, mesh.n_cells)
    base = assemble_rt0(mesh, CoefficientField(k))
    scaled = assemble_rt0(mesh, CoefficientField(4.0 * k))
    # power-of-two scaling is exact in floating point
    assert np.array_equal(scaled.A.toarray() * 4.0, base.A.toarray())
    assert np.array_equal(scaled.B.toarray(), base.B.toarray())


def test_nonpositive_coefficient_rejected():
    mesh = build_mesh(2, 2)
    with pytest.raises(CoefficientError):
        CoefficientField([1.0, -1.0, 1.0, 1.0])
    with pytest.raises(CoefficientError):
        CoefficientField([1.0, 0.0, 1.0, 1.0])


def test_assembly_deterministic():
    mesh = build_mesh(6, 6)
    coeff = CoefficientField(np.linspace(0.1, 3.0, mesh.n_cells))
    s1 = assemble_rt0(mesh, coeff)
    s2 = assemble_rt0(mesh, coeff)
    assert s1.A.data.tobytes() == s2.A.data.tobytes()
    assert s1.B.data.tobytes() == s2.B.data.tobytes()


def test_corner_rhs():
    mesh = build_mesh(5, 5)
    g = assemble_rhs(mesh, "corner")
    nz = np.flatnonzero(g)
    assert len(nz) == 2
    assert g.sum() == 0.0
    assert set(nz) == {0, mesh.n_cells - 1}


def test_zero_source_rhs():
    mesh = build_mesh(3, 3)
    assert np.array_equal(assemble_rhs(mesh, np.zeros(9)), np.zeros(9))


def test_uniform_source_rhs_incompatible():
    mesh = build_mesh(2, 2)
    g = assemble_rhs(mesh, np.ones(4))
    assert np.allclose(g, -0.25)
    assert np.isclose(g.sum(), -1.0)
    assert not check_compatibility(g)


def test_check_compatibility_cases():
    assert check_compatibility(assemble_rhs(build_mesh(4, 4), "corner"))
    assert not check_compatibility(np.array([1.0, 0.0, 0.0]))
    assert check_compatibility(np.zeros(5))


def test_divergence_defect_zero_and_oracle(rng):
    mesh = build_mesh(3, 3)
    system = assemble_rt0(mesh, CoefficientField.constant(mesh, 2.0))
    assert divergence_defect(system, np.zeros(system.n_flux)) == 0.0

    u = rng.standard_normal(system.n_flux)
    b_dense = system.B.toarray()
    d = b_dense @ u
    w = system.areas
    d = d - w * (w @ d) / (w @ w)
    expected = np.linalg.norm(d) / np.sqrt(u @ (system.A.toarray() @ u))
    assert np.isclose(divergence_defect(system, u), expected, rtol=1e-12)

    with pytest.raises(ValueError):
        divergence_defect(system, np.zeros(3))


def test_divergence_defect_of_exact_solution():
    from nested_bddc.nested_driver import oracle_direct_solve

    mesh = build_mesh(6, 6)
    system = assemble_rt0(mesh, CoefficientField.constant(mesh, 1.0), source="corner")
    u, _ = oracle_direct_solve(system)
    # solution of B u = g is not divergence free, but with f = 0 it is
    system0 = assemble_rt0(mesh, CoefficientField.constant(mesh, 1.0), source=np.zeros(36))
    u0, _ = oracle_direct_solve(system0)
    assert np.allclose(u0, 0.0)


def test_aligned_jump_layouts():
    mesh = build_mesh(81, 81)
    left = CoefficientField.aligned_jump(mesh, 3, 4, "left", 100.0, 1.0, 0.01)
    right = CoefficientField.aligned_jump(mesh, 3, 4, "right", 100.0, 1.0, 0.01)
    for field in (left, right):
        vals = field.values.reshape(81, 81)
        # constant within every level-1 subdomain (3x3 cells)
        blocks = vals.reshape(27, 3, 27, 3)
        assert np.all(blocks == blocks[:, :1, :, :1])
    right_vals = right.values.reshape(81, 81)
    # right layout: constant within every top-level block (27x27 cells)
    top = right_vals.reshape(3, 27, 3, 27)
    assert np.all(top == top[:, :1, :, :1])
    # left layout: no jumps across top-level boundaries
    left_vals = left.values.reshape(81, 81)
    assert np.all(left_vals[:, 26] == left_vals[:, 27])
    assert np.all(left_vals[26, :] == left_vals[27, :])
    assert set(np.unique(left.values)) == {0.01, 1.0, 100.0}


def test_matrix_market_dump(tmp_path):
    from scipy.io import mmread

    mesh = build_mesh(3, 3)
    system = assemble_rt0(mesh, CoefficientField.constant(mesh, 1.0))
    a_path, b_path = dump_matrix_market(system, str(tmp_path / "dbg_"))
    assert np.allclose(mmread(a_path).toarray(), system.A.toarray())
    assert np.allclose(mmread(b_path).toarray(), system.B.toarray())
