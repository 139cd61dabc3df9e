"""Decomposition geometry, dof partition and interface weights."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import copy_rows, edge_sides_weights, level_groups
from nested_bddc.bddc import MultilevelPreconditioner, _face_average, build_level_bddc
from nested_bddc.hierarchy import HierarchyError, WeightsError, build_hierarchy, compute_weights
from nested_bddc.mesh_fem import (
    REFERENCE_MASS,
    SLOT_BOTTOM,
    SLOT_LEFT,
    SLOT_RIGHT,
    SLOT_TOP,
    CoefficientField,
    MeshError,
    Rt0System,
    assemble_rt0,
    build_mesh,
)
from nested_bddc.nested_driver import ExperimentSpec, NestedSolver, preset_specs


def system_of(mesh, values):
    """The system of a coefficient field, whose class table the weights read."""
    return assemble_rt0(mesh, CoefficientField(values))


def applied_face_weights(level):
    """Weights the apply gives the lower and the higher copy of each face dof.

    Read from the groups' weight rows, with the side of each copy
    taken from the subdomain grid's edge sides; two ``(n_faces, ratio)``
    arrays.
    """
    lo = np.full(level.decomp.face_dofs.shape, np.nan)
    hi = lo.copy()
    lower_sub = level.decomp.sub_grid.edge_sides[:, 0]
    ratio = level.decomp.face_dofs.shape[1]
    for grp in level_groups(level):
        # a group's face dofs run face by face, ratio columns each
        copies = copy_rows(level, grp)
        w = copies.w.reshape(len(grp.subs), grp.n_faces, ratio)
        for k in range(grp.n_faces):
            faces = copies.face_ids[:, k]
            lower = lower_sub[faces] == grp.subs
            lo[faces[lower]] = w[lower, k]
            hi[faces[~lower]] = w[~lower, k]
    return lo, hi


def unit_average(level):
    """Weighted average of all-ones subdomain face copies, on the face dofs."""
    return _face_average(level, np.ones(level.copy_pos.size))


def test_config_validation():
    mesh = build_mesh(9, 9)
    with pytest.raises(HierarchyError):
        build_hierarchy(mesh, 1, 3)
    with pytest.raises(HierarchyError):
        build_hierarchy(mesh, 2, 1)
    # gamma is validated where the weights are computed
    d = build_hierarchy(mesh, 2, 3)[0]
    with pytest.raises(WeightsError):
        compute_weights(d, system_of(mesh, np.ones(mesh.n_cells)), 0.5)
    # weights come from the element masses of the level's own grid, not
    # from the system of another one (here of the level's subdomain grid)
    with pytest.raises(WeightsError):
        compute_weights(d, Rt0System(d.sub_grid, REFERENCE_MASS[None], np.zeros(d.n_sub, dtype=int)), 1.0)


@pytest.mark.parametrize("case", ["float-classes", "short-classes", "class-outside-table", "flat-table", "other-grid"])
def test_weights_reject_element_data_off_the_grid(case):
    # The weights read a system, whose constructor rejects element data
    # that do not fit its grid, and reject a system of another grid: here
    # one with as many cells, whose classes the level grid would misread.
    mesh = build_mesh(9, 9)
    d = build_hierarchy(mesh, 2, 3)[0]
    system = system_of(mesh, np.ones(mesh.n_cells))
    table, cls = system.elem_table, system.elem_class
    if case == "other-grid":
        with pytest.raises(WeightsError):
            compute_weights(d, Rt0System(build_mesh(27, 3), table, cls), 1.0)
        return
    if case == "float-classes":
        cls = cls.astype(float)
    elif case == "short-classes":
        cls = cls[:-1]
    elif case == "class-outside-table":
        cls = cls + len(table)
    else:
        table = table.reshape(len(table), 16)
    with pytest.raises(MeshError):
        Rt0System(mesh, table, cls)


def test_two_level_counts_9x9():
    mesh = build_mesh(9, 9)
    decomps = build_hierarchy(mesh, 2, 3)
    assert len(decomps) == 1
    d = decomps[0]
    assert d.n_sub == 9
    assert d.n_faces == 12
    assert d.face_dofs.size == 36
    # closed forms on a uniform s x s arrangement of r x r subdomains
    s, r = 3, 3
    assert d.n_faces == 2 * (s - 1) * s
    assert d.face_dofs.size == 2 * (s - 1) * s * r
    for sub in range(d.n_sub):
        assert len(d.interior_by_sub[sub]) == 2 * r * (r - 1)
        assert len(d.cells_by_sub[sub]) == r * r


def test_three_level_counts_27x27():
    mesh = build_mesh(27, 27)
    decomps = build_hierarchy(mesh, 3, 3)
    assert [d.n_sub for d in decomps] == [81, 9]
    assert decomps[0].grid.n_flux == 2 * 26 * 27
    # level-2 grid dofs are the level-1 faces
    assert decomps[1].grid.n_flux == decomps[0].n_faces


def test_degenerate_single_subdomain():
    mesh = build_mesh(3, 3)
    d = build_hierarchy(mesh, 2, 3)[0]
    assert d.n_sub == 1
    assert d.n_faces == 0
    assert d.face_dofs.size == 0
    assert d.interior_by_sub.size == mesh.n_flux


def member_dofs(decomp):
    """Each subdomain's global dofs in the local order of ``local_slots``.

    Its ``interior_by_sub`` row, then per slot the face's ``face_dofs`` row,
    or -1 where the face is absent; one row per subdomain.
    """
    faces = np.vstack([decomp.face_dofs, np.full(decomp.face_dofs.shape[1], -1)])
    return np.hstack([decomp.interior_by_sub, faces[decomp.faces_by_sub].reshape(decomp.n_sub, -1)])


@pytest.mark.parametrize(
    "nx, ny, levels, ratio",
    [(27, 27, 3, 3), (27, 9, 3, 3), (32, 32, 2, 16), (64, 32, 3, 4), (4, 4, 2, 2)],
)
def test_local_slots_template_matches_every_subdomain(nx, ny, levels, ratio):
    for d in build_hierarchy(build_mesh(nx, ny), levels, ratio):
        assert d.local_slots.shape == (ratio * ratio, 4)
        dofs = member_dofs(d)
        expected = d.grid.cell_dof_slots[d.cells_by_sub]
        assert np.array_equal(dofs[:, d.local_slots], expected)
        # the check tells faces apart: the template with the left and right
        # face offsets swapped fails it
        n_int = d.interior_by_sub.shape[1]
        order = np.arange(n_int + 4 * ratio)
        order[n_int : n_int + 2 * ratio] = np.roll(order[n_int : n_int + 2 * ratio], ratio)
        assert not np.array_equal(dofs[:, order[d.local_slots]], expected)


def test_indivisible_mesh_rejected():
    with pytest.raises(HierarchyError):
        build_hierarchy(build_mesh(10, 10), 2, 3)


def test_every_interface_dof_on_one_face_two_subs():
    mesh = build_mesh(12, 12)
    d = build_hierarchy(mesh, 2, 4)[0]
    interface = np.sort(d.face_dofs.ravel())
    interior = np.sort(d.interior_by_sub.ravel())
    seen = np.zeros(mesh.n_flux, dtype=int)
    for (sub_lo, sub_hi), dofs in zip(d.sub_grid.edge_sides, d.face_dofs):
        assert sub_lo < sub_hi
        seen[dofs] += 1
    assert np.all(seen[interface] == 1)
    assert np.all(seen[interior] == 0)
    assert d.sub_grid.n_flux == d.n_faces
    assert d.sub_grid.n_cells == d.n_sub
    # interior/interface partition is disjoint and complete
    assert len(interior) + len(interface) == mesh.n_flux


def test_interface_nesting_across_levels():
    mesh = build_mesh(27, 27)
    decomps = build_hierarchy(mesh, 3, 3)
    upper = decomps[1]
    lower = decomps[0]
    # level-2 interface dofs, expanded one level down, lie inside the level-1 interface
    expanded = np.unique(lower.face_dofs[np.sort(upper.face_dofs.ravel())])
    assert np.all(np.isin(expanded, np.sort(lower.face_dofs.ravel())))


def test_face_average_functional_examples():
    mesh = build_mesh(6, 6)
    d = build_hierarchy(mesh, 2, 3)[0]
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
    d = build_hierarchy(mesh, 2, 3)[0]
    system = assemble_rt0(mesh, CoefficientField.constant(mesh, 1.0))
    for gamma in (0.0, 1.0):
        assert np.all(compute_weights(d, system, gamma) == 0.5)
        # applied weights: 1/2 on both copies of a face dof
        level = build_level_bddc(system, d, gamma)
        assert np.all(level.copy_w == 0.5)


def test_weights_jump_formula():
    # k = 100 on the left half, k = 1 on the right half of a 2x1 split
    mesh = build_mesh(6, 3)
    d = build_hierarchy(mesh, 2, 3)[0]
    values = np.where(np.arange(mesh.n_cells) % 6 < 3, 100.0, 1.0)
    system = system_of(mesh, values)
    w_lo = compute_weights(d, system, 1.0)
    assert np.allclose(w_lo, (1 / 100) / (1 / 100 + 1.0))
    assert np.allclose(w_lo, 1.0 / 101.0)
    # gamma = 0 ignores the jump
    assert np.all(compute_weights(d, system, 0.0) == 0.5)


def test_weights_partition_of_unity_exact(rng):
    mesh = build_mesh(12, 12)
    d = build_hierarchy(mesh, 2, 4)[0]
    # random per-subdomain coefficients, constant inside each subdomain
    sub_vals = rng.uniform(0.01, 100.0, d.n_sub)
    values = np.empty(mesh.n_cells)
    for s, cells in enumerate(d.cells_by_sub):
        values[cells] = sub_vals[s]
    level = build_level_bddc(assemble_rt0(mesh, CoefficientField(values)), d, 1.0)
    assert np.all(unit_average(level) == 1.0)


def test_averaging_is_projection(rng):
    mesh = build_mesh(9, 9)
    d = build_hierarchy(mesh, 2, 3)[0]
    coeff = CoefficientField.constant(mesh, 1.0)
    system = assemble_rt0(mesh, coeff)
    level = build_level_bddc(system, d, 1.0)
    v = rng.standard_normal(mesh.n_flux)
    copies = v[d.face_dofs.ravel()][level.copy_pos]
    assert np.allclose(_face_average(level, copies), v[d.face_dofs.ravel()], atol=1e-14)



# (nx, ny, ratio, levels): rectangular grids, sub-grids of a single row or
# column (ratio 16), every level of L=3 and L=4 hierarchies, and the level
# of one subdomain, which has no faces (the last level of 9 x 9, 64 x 64 and
# 27 x 27).
WEIGHT_GRIDS = [
    (12, 6, 2, 2),
    (12, 6, 3, 2),
    (18, 9, 3, 3),
    (20, 40, 5, 2),
    (64, 64, 8, 3),
    (32, 16, 16, 2),
    (16, 48, 16, 2),
    (9, 9, 3, 3),
    (27, 27, 3, 4),
]


def random_weight_cases(ratio=None):
    """(decomposition, class table, classes) on every level of ``WEIGHT_GRIDS``.

    Each level gets seeded random symmetric tables of 1 to 6 classes whose
    magnitudes span six decades, so a face's diagonals added in another
    order round differently; ``ratio`` keeps only the grids of that ratio,
    with the same tables.
    """
    rng = np.random.default_rng(31)
    for nx, ny, r, levels in WEIGHT_GRIDS:
        for d in build_hierarchy(build_mesh(nx, ny), levels, r):
            for n_classes in (1, 2, 6):
                table = rng.random((n_classes, 4, 4)) * 10.0 ** rng.uniform(-3, 3, (n_classes, 1, 1))
                table, cls = table + table.transpose(0, 2, 1), rng.integers(0, n_classes, d.grid.n_cells)
                if ratio in (None, r):
                    yield d, table, cls


def test_weights_match_edge_sides_formula_bit_for_bit():
    # The weights read each side of a face from the grid's cell lines and
    # add its diagonals in order along the face: bit for bit the sums over
    # the (n_faces, ratio, 2) gather of the grid's edge sides.
    for d, table, cls in random_weight_cases():
        system = Rt0System(d.grid, table, cls)
        assert compute_weights(d, system, 1.0).tobytes() == edge_sides_weights(d, table, cls).tobytes()
        assert compute_weights(d, system, 0.0).tobytes() == np.full(d.n_faces, 0.5).tobytes()


def test_weight_cases_see_summation_order():
    # Adding each face's diagonals with ratio last (numpy then sums the
    # contiguous axis pairwise) changes w_lo in the last bits at ratio 16,
    # so the bit-for-bit test above fails on a weight formula that adds in
    # another order.
    changed = 0
    for d, table, cls in random_weight_cases(ratio=16):
        grid, face_dofs = d.grid, d.face_dofs
        vertical = face_dofs < grid.n_vertical
        slots = np.where(vertical[..., None], (SLOT_RIGHT, SLOT_LEFT), (SLOT_TOP, SLOT_BOTTOM))
        sides = np.diagonal(table, axis1=1, axis2=2)[cls[grid.edge_sides[face_dofs]], slots]
        d_lo, d_hi = np.ascontiguousarray(sides.swapaxes(1, 2)).sum(axis=2).T
        changed += (d_lo / (d_lo + d_hi)).tobytes() != edge_sides_weights(d, table, cls).tobytes()
    assert changed


@pytest.mark.parametrize("levels,ratio", [(5, 3), (2, 16)])
def test_fine_grid_builds_no_edge_sides(levels, ratio):
    # The weights read the cell lines, so neither set-up nor a solve builds
    # the fine grid's (n_flux, 2) edge sides.
    solver = NestedSolver(ExperimentSpec(levels=levels, ratio=ratio))
    assert "edge_sides" not in solver.fine.grid.__dict__
    solver.solve()
    assert "edge_sides" not in solver.fine.grid.__dict__


def rho_scaling_reference(decomps, k):
    """Per-level ``k_lo^-1 / (k_lo^-1 + k_hi^-1)`` at every face dof.

    ``k`` is coarsened to one value per subdomain, NaN where its cells
    differ; an aligned field has finite values next to every face.
    """
    refs = []
    for d in decomps:
        kk = k[d.grid.edge_sides[d.face_dofs]]  # (n_faces, ratio, 2)
        assert np.all(np.isfinite(kk))
        a, b = 1.0 / kk[..., 0], 1.0 / kk[..., 1]
        refs.append(a / (a + b))
        children = k[d.cells_by_sub]
        k = np.where(np.all(children == children[:, :1], axis=1), children[:, 0], np.nan)
    return refs


@pytest.mark.parametrize(
    "spec",
    [
        *preset_specs("fig3-left"),
        *preset_specs("fig3-right"),
        ExperimentSpec(levels=5, ratio=3, coeff="jump-right", k1=100.0, k3=0.01),
    ],
    ids=["fig3-left", "fig3-right", "jump-right-L5"],
)
def test_weights_match_rho_scaling_on_aligned_fields(runs, spec):
    solver = runs.solver(spec)
    _, coeff = spec.build_problem()
    levels = solver.precond.levels
    refs = rho_scaling_reference([level.decomp for level in levels], coeff.values)
    for level, ref in zip(levels, refs):
        w_lo = compute_weights(level.decomp, level.system, 1.0)
        assert np.abs(w_lo[:, None] - ref).max() <= 1e-15
        lo, hi = applied_face_weights(level)
        assert np.abs(lo - ref).max() <= 1e-15
        assert np.abs(hi - (1.0 - ref)).max() <= 1e-15


def test_weights_face_diagonal_loop_reference():
    # coarse level of a non-aligned field: full 4x4 basis-energy blocks
    mesh = build_mesh(27, 27)
    values = np.random.default_rng(7).lognormal(0.0, 1.0, mesh.n_cells)
    system = assemble_rt0(mesh, CoefficientField(values))
    level = MultilevelPreconditioner.build(system, 3, 3, 1.0).levels[1]
    grid, table, cls = level.decomp.grid, level.system.elem_table, level.system.elem_class
    w_face = compute_weights(level.decomp, level.system, 1.0)
    lo, hi = applied_face_weights(level)
    for f, dofs in enumerate(level.decomp.face_dofs):
        diag = [0.0, 0.0]
        for dof in dofs:
            for side, cell in enumerate(grid.edge_sides[dof]):
                slot = list(grid.cell_dof_slots[cell]).index(dof)
                diag[side] += table[cls[cell], slot, slot]
        w_lo = diag[0] / (diag[0] + diag[1])
        assert w_face[f] == w_lo
        assert np.all(lo[f] == w_lo)
        assert np.all(hi[f] == 1.0 - w_lo)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(
    ratio=st.integers(2, 3),
    sx=st.integers(1, 3),
    sy=st.integers(1, 3),
    sigma=st.floats(0.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_weights_properties_on_random_fields(ratio, sx, sy, sigma, seed):
    mesh = build_mesh(ratio * ratio * sx, ratio * ratio * sy)
    values = np.random.default_rng(seed).lognormal(0.0, sigma, mesh.n_cells)
    system = assemble_rt0(mesh, CoefficientField(values))
    levels = MultilevelPreconditioner.build(system, 3, ratio, 1.0).levels
    for level in levels:
        assert np.all(unit_average(level) == 1.0)
        lo, _ = applied_face_weights(level)
        assert np.all((lo > 0.0) & (lo < 1.0))
        assert np.all(lo == lo[:, :1])  # one value per face
    with pytest.raises(WeightsError):
        compute_weights(levels[0].decomp, system, 0.5)
