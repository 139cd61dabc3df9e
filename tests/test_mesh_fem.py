"""Mesh enumeration and RT0 assembly against independent oracles."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from nested_bddc.mesh_fem import (
    REFERENCE_MASS,
    CoefficientError,
    CoefficientField,
    MeshError,
    Rt0System,
    assemble_rhs,
    assemble_rt0,
    build_mesh,
    check_compatibility,
    divergence_defect,
    dump_matrix_market,
    element_triplets,
    gauged_defect,
)
from nested_bddc.bddc import MultilevelPreconditioner, assemble_coarse_problem
from nested_bddc.nested_driver import ExperimentSpec


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
    system = assemble_rt0(mesh, CoefficientField.constant(mesh, k))
    # a constant coefficient gives every cell one element matrix
    assert system.elem_table.shape == (1, 4, 4)
    assert np.all(system.elem_class == 0)
    assert np.allclose(system.elem_table[0], quadrature_element_mass(mesh.h, k), rtol=1e-13)


def test_jump_right_has_three_element_matrices():
    spec = ExperimentSpec(levels=3, ratio=3, coeff="jump-right", k1=100.0, k3=0.01)
    mesh, coeff = spec.build_problem()
    system = assemble_rt0(mesh, coeff)
    assert system.elem_table.shape == (3, 4, 4)
    # one row per coefficient value, scaled by the cell's area over it
    for row, k in enumerate(np.unique(coeff.values)[::-1]):
        assert np.array_equal(system.elem_table[row], REFERENCE_MASS * (mesh.cell_area / k))
        assert np.array_equal(system.elem_class == row, coeff.values == k)


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


@pytest.mark.parametrize(
    "nx,ny", [(1, 1), (1, 6), (6, 1), (2, 2), (2, 3), (5, 3), (3, 7), (9, 9), (16, 16)]
)
@pytest.mark.parametrize("values", ["random", "rt0"])
def test_stencil_csr_matches_coo_reference(nx, ny, values):
    # The element sum against one block per cell summed by scipy's COO ->
    # CSR conversion, bit for bit: random blocks are not symmetric (coarse
    # blocks need not be), the RT0 blocks have zero x/y couplings in every
    # class, which A leaves out.
    # B depends on the grid alone; its row counts come from each cell's
    # position, one fewer per boundary side the cell touches.
    mesh = build_mesh(nx, ny)
    rng = np.random.default_rng(nx * ny)
    if values == "random":
        # a table of its own per cell
        elem_table, elem_class = rng.standard_normal((mesh.n_cells, 4, 4)), np.arange(mesh.n_cells)
    else:
        k = np.exp(rng.standard_normal(mesh.n_cells))
        rt0 = assemble_rt0(mesh, CoefficientField(k))
        elem_table, elem_class = rt0.elem_table, rt0.elem_class
    system = Rt0System(mesh, elem_table, elem_class)
    ref_a, ref_b = coo_reference(mesh, elem_table[elem_class])
    if values == "rt0":
        assert not np.any(system.A.data == 0.0)
        with_zeros, _ = coo_reference(mesh, elem_table[elem_class], structural=False)
        x = rng.standard_normal(mesh.n_flux)
        assert np.array_equal(system.A @ x, with_zeros @ x)
        if min(nx, ny) > 1:
            assert np.any(with_zeros.data == 0.0)
            # an edge, and the parallel edge across each cell where it is interior
            assert system.A.nnz == ny * (3 * nx - 5) + nx * (3 * ny - 5)
    assert_same_csr(system.A, ref_a)
    assert_same_csr(system.B, ref_b)


def test_one_cell_with_xy_coupling_keeps_every_coupling():
    # A single cell whose block couples x- and y-edges puts every stencil
    # column in use, so every edge row keeps its seven entries, the zeros
    # of the other cells' blocks included.
    mesh = build_mesh(6, 5)
    # Entries above REFERENCE_MASS's sort the coupling block last in the
    # canonical table.
    dense = np.random.default_rng(3).uniform(1.0, 2.0, (4, 4))
    table = np.stack([REFERENCE_MASS, dense + dense.T])
    cls = np.zeros(mesh.n_cells, dtype=np.intp)
    cls[mesh.cell_id(2, 3)] = 1
    system = Rt0System(mesh, table, cls)
    assert np.array_equal(system.elem_table[1], table[1])
    ref_a, ref_b = coo_reference(mesh, table[cls])
    assert_same_csr(system.A, ref_a)
    assert_same_csr(system.B, ref_b)
    assert np.any(system.A.data == 0.0)
    # every present slot of both cells: seven away from the boundary
    present = np.count_nonzero(mesh.cell_dof_slots >= 0, axis=1)
    assert np.array_equal(np.diff(system.A.indptr), present[mesh.edge_sides].sum(axis=1) - 1)
    assert np.diff(system.A.indptr).max() == 7


@pytest.mark.parametrize(
    "spec",
    [
        ExperimentSpec(levels=4, ratio=3, base=2),
        ExperimentSpec(levels=3, ratio=3, coeff="jump-right", k1=37.0, k3=0.05, base=2),
    ],
    ids=["deep", "jump"],
)
def test_every_level_matches_coo_reference(spec):
    # The fine grid's RT0 blocks, each coarse level's dense basis energies
    # and the top system, each against one block per cell summed by COO.
    mesh, coeff = spec.build_problem()
    precond = MultilevelPreconditioner.build(assemble_rt0(mesh, coeff), spec.levels, spec.ratio, spec.gamma)
    systems = [level.system for level in precond.levels] + [assemble_coarse_problem(precond.levels[-1])]
    for depth, system in enumerate(systems):
        ref_a, ref_b = coo_reference(system.grid, system.elem_table[system.elem_class])
        assert_same_csr(system.A, ref_a)
        assert_same_csr(system.B, ref_b)
        # an edge row: the edge and its present slots of both cells, three
        # on the fine grid, whose x/y couplings vanish, seven on a coarse one
        row_max = np.diff(system.A.indptr).max()
        assert row_max == (3 if depth == 0 or system.grid.nx < 3 else 7)


def test_fine_mass_matrix_memory():
    # Building the fine A of a 243 x 243 grid allocates at most four times
    # the CSR's own bytes (about 2.5): a COO of one block per cell, summed
    # by the conversion, allocates about 12.5 times.
    mesh = build_mesh(243, 243)
    system = assemble_rt0(mesh, CoefficientField.constant(mesh, 1.0))
    mesh.cell_dof_slots  # the grid's slot table, kept by the mesh, is not part of the build
    tracemalloc.start()
    try:
        a = system.A
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * (a.data.nbytes + a.indices.nbytes + a.indptr.nbytes)


@pytest.mark.parametrize("nx,ny", [(1, 1), (1, 6), (6, 1), (2, 3), (5, 3), (9, 9), (16, 16)])
def test_divergence_matches_csr_product(nx, ny):
    # The grid's divergence sums each cell's slots in the order B's row
    # holds them, and its gradient each edge's two cells in the order of
    # B's column, so they are B @ u and B.T @ p bit for bit, for random u
    # and p; square, rectangular and one-cell-wide grids.
    mesh = build_mesh(nx, ny)
    system = assemble_rt0(mesh, CoefficientField.constant(mesh, 1.0))
    rng = np.random.default_rng(nx + 17 * ny)
    u, p = rng.standard_normal(mesh.n_flux), rng.standard_normal(mesh.n_cells)
    assert mesh.divergence(u).tobytes() == (system.B @ u).tobytes()
    assert mesh.gradient(p).tobytes() == (system.B.T @ p).tobytes()
    for bad in (np.ones(mesh.n_flux + 1), np.ones((mesh.n_flux, 1))):
        with pytest.raises(ValueError, match=rf"expected \({mesh.n_flux},\)"):
            mesh.divergence(bad)
    for bad in (np.ones(mesh.n_cells - 1), np.ones((1, mesh.n_cells))):
        with pytest.raises(ValueError, match=rf"expected \({mesh.n_cells},\)"):
            mesh.gradient(bad)


def test_matrices_built_on_first_access():
    # Assembly leaves A and B to their first reader, which keeps them.
    mesh = build_mesh(5, 4)
    system = assemble_rt0(mesh, CoefficientField.constant(mesh, 1.0))
    assert "A" not in vars(system) and "B" not in vars(system)
    assert system.A is system.A and system.B is system.B


def test_replaced_table_builds_its_own_mass_matrix():
    # A system made by dataclasses.replace reads its own table: doubling
    # every element matrix doubles every entry of A, bit for bit, also
    # when the original's A was built before the replace.
    mesh = build_mesh(7, 5)
    k = np.exp(np.random.default_rng(2).standard_normal(mesh.n_cells))
    system = assemble_rt0(mesh, CoefficientField(k))
    old = system.A
    doubled = dataclasses.replace(system, elem_table=2.0 * system.elem_table)
    assert_same_csr(doubled.A, sp.csr_matrix((2.0 * old.data, old.indices, old.indptr), shape=old.shape))
    assert doubled.A.data.tobytes() == (2.0 * old.data).tobytes()
    assert_same_csr(doubled.B, system.B)


def coo_reference(mesh, blocks, structural=True):
    """A and B summed by scipy's COO -> CSR conversion from one block per cell.

    With ``structural``, the couplings of two distinct slots that are zero
    in every block are dropped before the sum.
    """
    if structural:
        pattern = np.any(blocks != 0.0, axis=0) | np.eye(4, dtype=bool)
    else:
        pattern = np.ones((4, 4), dtype=bool)
    (m_val, m_row, m_col), (d_val, d_row, d_col) = element_triplets(mesh.cell_dof_slots, blocks, mesh.h)
    (m_keep, _, _), _ = element_triplets(mesh.cell_dof_slots, np.broadcast_to(pattern, blocks.shape), mesh.h)
    ref_a = sp.coo_matrix((m_val[m_keep], (m_row[m_keep], m_col[m_keep])), shape=(mesh.n_flux,) * 2).tocsr()
    ref_b = sp.coo_matrix((d_val, (d_row, d_col)), shape=(mesh.n_cells, mesh.n_flux)).tocsr()
    return ref_a, ref_b


def assert_same_csr(got, ref):
    assert got.format == "csr" and got.shape == ref.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype and np.array_equal(a, b)
    # the flag set at assembly is what the conversion establishes
    assert ref.has_canonical_format and got.has_canonical_format


def redundant_table(mesh, rng):
    """A class table with duplicate and unused rows and a random class map, and its per-cell blocks.

    Rows 0-2 are distinct, row 3 repeats row 1 bit for bit and row 4 is
    used by no cell.
    """
    distinct = rng.standard_normal((3, 4, 4))
    table = np.concatenate([distinct, distinct[1:2], rng.standard_normal((1, 4, 4))])
    cls = rng.integers(0, 4, mesh.n_cells)
    cls[:4] = np.arange(4)  # every row but the last in use
    return table, cls


def test_redundant_table_assembles_as_canonical_form():
    # Construction merges duplicate rows and drops unused ones: the system
    # is the canonical table's, and its matrices are those of one block per
    # cell.
    mesh = build_mesh(7, 5)
    rng = np.random.default_rng(5)
    table, cls = redundant_table(mesh, rng)
    system = Rt0System(mesh, table, cls)
    # canonical: the three distinct rows in ascending bit order, all in use
    assert system.elem_table.shape == (3, 4, 4)
    assert np.array_equal(np.unique(system.elem_class), np.arange(3))
    bits = system.elem_table.reshape(3, -1).view(np.int64)
    assert list(np.lexsort(bits.T)) == [0, 1, 2]
    # every cell keeps its block, bit for bit
    assert np.array_equal(system.elem_table[system.elem_class], table[cls])
    canonical = Rt0System(mesh, system.elem_table, system.elem_class)
    ref_a, ref_b = coo_reference(mesh, table[cls])
    for got in (system, canonical):
        assert_same_csr(got.A, ref_a)
        assert_same_csr(got.B, ref_b)
    assert np.array_equal(canonical.elem_table, system.elem_table)
    assert np.array_equal(canonical.elem_class, system.elem_class)


@pytest.mark.parametrize(
    "case",
    [
        "float-classes",
        "short-classes",
        "class-outside-table",
        "negative-class",
        "flat-table",
        "3x3-table",
        "nan-table",
        "inf-table",
    ],
)
def test_assemble_system_rejects_bad_class_table(case):
    # The constructor checks what it is given: no bad table reaches the
    # solver, where it would fail with a bare IndexError or solve to NaN.
    mesh = build_mesh(4, 3)
    table, cls = np.tile(REFERENCE_MASS, (2, 1, 1)), np.arange(mesh.n_cells) % 2
    if case == "float-classes":
        cls = cls.astype(float)
    elif case == "short-classes":
        cls = cls[:-1]
    elif case == "class-outside-table":
        cls[5] = 2
    elif case == "negative-class":
        cls[5] = -1
    elif case == "flat-table":
        table = table.reshape(2, 16)
    elif case == "3x3-table":
        table = np.ones((2, 3, 3))
    else:
        table[1, 2, 3] = np.nan if case == "nan-table" else np.inf
    with pytest.raises(MeshError):
        Rt0System(mesh, table, cls)


@pytest.mark.parametrize("shape", [(5,), (9, 2)])
def test_assemble_system_rejects_misshapen_divergence_data(shape):
    mesh = build_mesh(3, 3)
    with pytest.raises(MeshError):
        Rt0System(mesh, REFERENCE_MASS[None], np.zeros(mesh.n_cells, dtype=int), np.zeros(shape))


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
    zero = np.zeros(system.n_flux)
    assert divergence_defect(system, zero) == 0.0
    # zero flux against divergence data: exact for zero data only
    assert divergence_defect(system, zero, np.zeros(system.n_pressure)) == 0.0
    assert divergence_defect(system, zero, np.ones(system.n_pressure)) == np.inf

    u = rng.standard_normal(system.n_flux)
    g = rng.standard_normal(system.n_pressure)
    b_dense = system.B.toarray()
    w = system.areas
    energy = u @ (system.A.toarray() @ u)
    for data in (0.0, g):
        d = b_dense @ u - data
        d = d - w * (w @ d) / (w @ w)
        expected = np.linalg.norm(d) / np.sqrt(energy)
        assert np.isclose(divergence_defect(system, u, data), expected, rtol=1e-12)

    # The grid's vector check raises the mesh module's own error, for the
    # flux and for divergence data given as an array.
    for u, data in ((np.zeros(3), 0.0), (u, np.zeros(system.n_pressure + 1)), (zero, np.ones((9, 1)))):
        with pytest.raises(ValueError) as info:
            divergence_defect(system, u, data)
        assert info.type is MeshError


def test_divergence_defect_of_exact_solution():
    from nested_bddc.nested_driver import oracle_direct_solve

    mesh = build_mesh(6, 6)
    system = assemble_rt0(mesh, CoefficientField.constant(mesh, 1.0), source="corner")
    u, _ = oracle_direct_solve(system)
    # the level flux meets its divergence data, and the defect against the
    # data is the gauged defect of B u - g
    defect = divergence_defect(system, u, system.g)
    expected = gauged_defect(system.B @ u - system.g, u @ (system.A @ u), system.areas)
    assert abs(defect - expected) <= 1e-12 * expected
    assert defect <= 1e-12
    # solution of B u = g is not divergence free, but with f = 0 it is
    system0 = assemble_rt0(mesh, CoefficientField.constant(mesh, 1.0), source=np.zeros(36))
    u0, _ = oracle_direct_solve(system0)
    assert np.allclose(u0, 0.0)


def test_matrix_market_dump(tmp_path):
    from scipy.io import mmread

    mesh = build_mesh(3, 3)
    system = assemble_rt0(mesh, CoefficientField.constant(mesh, 1.0))
    a_path, b_path = dump_matrix_market(system, str(tmp_path / "dbg_"))
    assert np.allclose(mmread(a_path).toarray(), system.A.toarray())
    assert np.allclose(mmread(b_path).toarray(), system.B.toarray())
