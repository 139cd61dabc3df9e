"""BDDC components: basis properties, corrections, preconditioner invariants."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

import nested_bddc as nb
from nested_bddc.bddc import (
    MultilevelPreconditioner,
    average,
    build_level_bddc,
    delta_correction,
    gradient_pressure,
    interior_correction,
)
from nested_bddc.hierarchy import HierarchyConfig, build_hierarchy, compute_weights
from nested_bddc.mesh_fem import (
    SLOT_SIGNS,
    CoefficientField,
    assemble_rt0,
    build_mesh,
    divergence_defect,
)
from nested_bddc.nested_driver import ExperimentSpec, NestedSolver, preset_specs
from nested_bddc.saddle_core import DENSE_LIMIT, Factorization, SingularMatrixError


def make_setup(nx, levels, ratio, k=None, gamma=1.0, ny=None):
    mesh = build_mesh(nx, nx if ny is None else ny)
    coeff = (
        CoefficientField.constant(mesh, 1.0)
        if k is None
        else CoefficientField(k)
    )
    decomps = build_hierarchy(mesh, HierarchyConfig(levels, ratio))
    system = assemble_rt0(mesh, coeff, source="corner")
    precond = MultilevelPreconditioner.build(system, decomps, gamma)
    return system, decomps, precond


@pytest.fixture(scope="module")
def two_level_9x9():
    return make_setup(9, 2, 3)


def delta_member(level, sub):
    """Delta group holding subdomain ``sub`` and the member row of it there."""
    for grp in level.delta_groups:
        rows = np.flatnonzero(grp.subs == sub)
        if len(rows):
            return grp, rows[0]
    raise KeyError(sub)


def balanced_residual(level, rng):
    """Random flux residual supported on the interface only."""
    r = np.zeros(level.system.n_flux)
    iface = np.sort(level.decomp.face_dofs.ravel())
    r[iface] = rng.standard_normal(len(iface))
    return r


def test_coarse_basis_realizes_unit_coarse_dofs(two_level_9x9):
    _, _, precond = two_level_9x9
    level = precond.levels[0]
    for grp in level.delta_groups:
        psi = grp.psi
        for j, cols in enumerate(grp.face_cols):
            averages = psi[cols].mean(axis=0)
            expected = np.zeros(grp.n_faces)
            expected[j] = 1.0
            assert np.allclose(averages, expected, atol=1e-12)


def test_coarse_basis_beats_constant_flux_competitor(two_level_9x9):
    # Unit averages on left and right, zero on bottom/top: the constant
    # (1, 0) field is feasible (divergence free, exact averages), so the
    # energy-minimal column combination must not exceed its energy.  It is
    # strictly better here because the mass-matrix energy rewards letting
    # the flux spread out away from the constrained faces.
    _, _, precond = two_level_9x9
    level = precond.levels[0]
    grp, row = delta_member(level, 4)  # interior subdomain, all four faces present
    local_dofs = grp.idx_loc[row]
    assert len(grp.face_ids[row]) == 4
    a_loc = np.asarray(grp.kkt.a_block)
    combo = grp.psi[:, 0] + grp.psi[:, 1]
    for j, cols in enumerate(grp.face_cols):
        assert combo[cols].mean() == pytest.approx(1.0 if j < 2 else 0.0, abs=1e-12)
    assert np.allclose(np.asarray(grp.kkt.b_block) @ combo, 0.0, atol=1e-11)
    constant = np.zeros(len(local_dofs))
    constant[local_dofs < level.system.grid.n_vertical] = 1.0
    assert combo @ a_loc @ combo < constant @ a_loc @ constant


def test_coarse_basis_energy_minimal(two_level_9x9, rng):
    _, _, precond = two_level_9x9
    level = precond.levels[0]
    grp, _ = delta_member(level, 4)
    a_loc = np.asarray(grp.kkt.a_block)
    b_loc = np.asarray(grp.kkt.b_block)
    c_blk = np.asarray(grp.kkt.c_block)
    psi = grp.psi[:, 0]
    base = psi @ a_loc @ psi
    # feasible competitors: same face averages, divergence still cellwise constant
    constraints = np.vstack([b_loc - grp.kkt.a_block.sum() * 0.0, c_blk])
    # divergence rows modulo constants: project rhs of b_loc onto mean-zero
    areas = level.system.areas[level.decomp.cells_by_sub[4]]
    proj = np.eye(len(areas)) - np.outer(areas, areas) / (areas @ areas)
    constraints = np.vstack([proj @ b_loc, c_blk])
    ns = np.linalg.svd(constraints)[2][np.linalg.matrix_rank(constraints) :]
    for _ in range(8):
        pert = ns.T @ rng.standard_normal(ns.shape[0])
        competitor = psi + pert
        assert competitor @ a_loc @ competitor >= base - 1e-12


def test_coarse_problem_dimensions(two_level_9x9):
    _, _, precond = two_level_9x9
    coarse = precond.top_system
    assert coarse.n_flux == 12
    assert coarse.n_pressure == 9


def test_coarse_of_coarse_dimensions():
    _, decomps, precond = make_setup(27, 3, 3)
    assert precond.levels[1].system.n_flux == decomps[0].n_faces
    assert precond.top_system.n_flux == decomps[1].n_faces
    assert precond.top_system.n_pressure == decomps[1].n_sub


def test_coarse_system_is_galerkin_product(two_level_9x9):
    system, _, precond = two_level_9x9
    level = precond.levels[0]
    coarse = precond.top_system
    n_faces = level.decomp.n_faces
    n_sub = level.decomp.n_sub
    a_c = np.zeros((n_faces, n_faces))
    b_c = np.zeros((n_sub, n_faces))
    for grp in level.delta_groups:
        psi = grp.psi
        a_loc = np.asarray(grp.kkt.a_block)
        b_loc = np.asarray(grp.kkt.b_block)
        # basis pressures: a fresh solve on the constraint unit columns
        m = grp.n_loc + grp.kkt.b_block.shape[0]
        unit = np.zeros((grp.kkt.size, grp.n_faces))
        unit[m + 1 :] = np.eye(grp.n_faces)
        p_psi = Factorization(grp.kkt.matrix()).solve(unit)[grp.n_loc : m]
        for sub, f in zip(grp.subs, grp.face_ids):
            # flux block: basis energies plus divergence cross terms (which vanish)
            contrib = psi.T @ a_loc @ psi + psi.T @ b_loc.T @ p_psi + p_psi.T @ b_loc @ psi
            a_c[np.ix_(f, f)] += contrib
            # divergence block: subdomain-integrated divergence of each column
            b_c[sub, f] = b_loc.sum(axis=0) @ psi
    assert np.allclose(a_c, coarse.A.toarray(), atol=1e-11)
    assert np.allclose(b_c, coarse.B.toarray(), atol=1e-11)
    # the coarse divergence block carries the +-(face length) pattern
    vals = coarse.B.toarray()
    nz = vals[vals != 0]
    assert np.allclose(np.abs(nz), 3 * system.grid.h, atol=1e-12)


def test_interface_residual_gives_zero_interior_correction(two_level_9x9, rng):
    _, _, precond = two_level_9x9
    level = precond.levels[0]
    r = balanced_residual(level, rng)
    u, p = interior_correction(level, r)
    assert np.allclose(u, 0.0)
    assert np.allclose(p, 0.0)


def test_interior_correction_matches_dense_oracle(two_level_9x9, rng):
    system, _, precond = two_level_9x9
    level = precond.levels[0]
    r = rng.standard_normal(system.n_flux)
    u, p = interior_correction(level, r)
    a_dense = system.A.toarray()
    b_dense = system.B.toarray()
    for ii, cc in zip(level.decomp.interior_by_sub, level.decomp.cells_by_sub):
        ni, nc = len(ii), len(cc)
        areas = system.areas[cc]
        kkt = np.zeros((ni + nc + 1, ni + nc + 1))
        kkt[:ni, :ni] = a_dense[np.ix_(ii, ii)]
        kkt[ni : ni + nc, :ni] = b_dense[np.ix_(cc, ii)]
        kkt[:ni, ni : ni + nc] = b_dense[np.ix_(cc, ii)].T
        kkt[ni : ni + nc, -1] = areas
        kkt[-1, ni : ni + nc] = areas
        rhs = np.concatenate([r[ii], np.zeros(nc + 1)])
        x = np.linalg.solve(kkt, rhs)
        assert np.allclose(u[ii], x[:ni], atol=1e-10)
        assert np.allclose(p[cc], x[ni : ni + nc], atol=1e-10)
        # divergence of the correction is balanced against local mean-zero pressures
        d = b_dense[np.ix_(cc, ii)] @ u[ii]
        assert np.ptp(d / areas) < 1e-11


def test_single_subdomain_interior_correction_is_exact_solve(rng):
    system, _, precond = make_setup(3, 2, 3)
    level = precond.levels[0]
    r = rng.standard_normal(system.n_flux)
    u, p = precond.apply(r)
    # one subdomain: preconditioner output solves the level system exactly
    res_u = r - system.A @ u - system.B.T @ p
    assert np.linalg.norm(res_u) < 1e-11 * np.linalg.norm(r)
    assert np.linalg.norm(system.B @ u) < 1e-11 * np.linalg.norm(r)


def test_delta_correction_face_averages_vanish(two_level_9x9, rng):
    _, _, precond = two_level_9x9
    level = precond.levels[0]
    r_b = balanced_residual(level, rng)
    w = delta_correction(level, r_b)
    for grp, rows in zip(level.delta_groups, w):
        for row in rows:
            for cols in grp.face_cols:
                assert abs(row[cols].mean()) < 1e-12


def test_delta_correction_zero_residual(two_level_9x9):
    _, _, precond = two_level_9x9
    level = precond.levels[0]
    w = delta_correction(level, np.zeros(level.system.n_flux))
    for v in w:
        assert np.allclose(v, 0.0)


def test_averaged_delta_is_balanced(two_level_9x9, rng):
    # dual corrections averaged back stay divergence-orthogonal to
    # subdomain constants; basis combinations keep their coarse divergence
    system, _, precond = two_level_9x9
    level = precond.levels[0]
    cells_by_sub = level.decomp.cells_by_sub
    b_dense = system.B.toarray()

    # random dual-space member: zero face averages on every side copy
    copies = []
    for grp in level.delta_groups:
        v = rng.standard_normal((len(grp.subs), grp.n_loc))
        for cols in grp.face_cols:
            v[:, cols] -= v[:, cols].mean(axis=1, keepdims=True)
        copies.append(v)
    averaged = average(level, copies)
    for cells in cells_by_sub:
        q0 = b_dense[cells] @ averaged
        assert abs(q0.sum()) < 1e-10 * (np.linalg.norm(averaged) + 1)

    # random primal member: averaging preserves subdomain divergence totals
    alpha = rng.standard_normal(level.decomp.n_faces)
    copies = [alpha[grp.face_ids] @ grp.psi.T for grp in level.delta_groups]
    averaged = average(level, copies)
    coarse_b = precond.top_system.B.toarray()
    for sub, cells in enumerate(cells_by_sub):
        broken = coarse_b[sub] @ alpha
        total = (b_dense[cells] @ averaged).sum()
        assert abs(total - broken) < 1e-10 * (np.linalg.norm(alpha) + 1)


def test_two_level_output_divergence_free(two_level_9x9, rng):
    system, _, precond = two_level_9x9
    level = precond.levels[0]
    for _ in range(10):
        r = balanced_residual(level, rng)
        u, p = precond.apply(r, start_level=len(precond.levels))
        assert divergence_defect(system, u) <= 1e-10


def test_preconditioner_symmetric_on_flux_block(two_level_9x9):
    system, _, precond = two_level_9x9
    n = system.n_flux
    m = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        m[:, j] = precond.apply(e)[0]
    assert np.abs(m - m.T).max() <= 1e-11 * np.abs(m).max()


def test_preconditioned_operator_spectrum_positive(two_level_9x9, runs):
    # eigenvalues of the preconditioned operator on the divergence-free
    # subspace are positive, with the smallest pinned at one; the Lanczos
    # estimate from an actual run never exceeds the true condition number
    system, _, precond = two_level_9x9
    a_dense = system.A.toarray()
    b_dense = system.B.toarray()
    _, _, vt = np.linalg.svd(b_dense)
    z = vt[np.linalg.matrix_rank(b_dense) :].T  # basis of ker(B)
    mz = np.column_stack([precond.apply(a_dense @ z[:, j])[0] for j in range(z.shape[1])])
    op = np.linalg.solve(z.T @ a_dense @ z, z.T @ a_dense @ mz)
    eigs = np.sort(np.linalg.eigvals(op).real)
    assert eigs[0] > 0.99
    assert eigs[-1] / eigs[0] < 2.0
    report = runs.result(nb.ExperimentSpec(levels=2, ratio=3)).reports[0]
    assert report.cond_estimate <= eigs[-1] / eigs[0] + 1e-8


def test_two_level_pcg_matches_reported_counts(runs):
    row = runs.result(nb.ExperimentSpec(levels=2, ratio=3)).rows[0]
    assert row.iter in (3, 4, 5)
    assert 1.0 <= row.cond <= 1.5


def test_multilevel_reduces_to_two_level_exactly(two_level_9x9, rng):
    system, _, precond = two_level_9x9
    r = rng.standard_normal(system.n_flux)
    u1, p1 = precond.apply(r, start_level=len(precond.levels))
    u2, p2 = precond.apply(r, start_level=1)
    assert np.array_equal(u1, u2)
    assert np.array_equal(p1, p2)


# Meshes with nx != ny tell vertical from horizontal edge templates apart.
MESHES = pytest.mark.parametrize(
    "nx, ny", [(27, 27), (27, 9), (9, 27)], ids=["27x27", "27x9", "9x27"]
)


@MESHES
def test_multilevel_divergence_free_all_levels(nx, ny, rng):
    system, _, precond = make_setup(nx, 3, 3, ny=ny)
    for start in (1, 2):
        level = precond.levels[start - 1]
        for _ in range(5):
            r = balanced_residual(level, rng)
            u, _ = precond.apply(r, start_level=start)
            assert divergence_defect(level.system, u) <= 1e-10


def test_multilevel_three_level_iteration_counts(runs):
    rows = runs.result(nb.ExperimentSpec(levels=3, ratio=3)).rows
    by_level = {r.level: r for r in rows}
    assert 7 <= by_level[1].iter <= 9
    assert 1.8 <= by_level[1].cond <= 2.4
    assert by_level[2].iter in (2, 3, 4)
    assert 1.0 <= by_level[2].cond <= 1.5


def test_jump_coefficients_shrink_weights():
    k = 100.0
    nx = 9
    vals = np.ones(nx * nx)
    vals[: nx * nx // 2] = k  # jump aligned with the middle subdomain row
    vals = np.where(np.arange(nx * nx) // nx < 3, k, 1.0)
    system, decomps, precond = make_setup(nx, 2, 3, k=vals)
    level = precond.levels[0]
    w = level.weights
    iface = np.sort(level.decomp.face_dofs.ravel())
    values = np.unique(np.round(w.side_lo[iface], 12))
    assert set(values) <= {np.round(1 / (1 + k), 12), 0.5, np.round(k / (1 + k), 12)}


@MESHES
def test_build_determinism(nx, ny):
    s1, _, p1 = make_setup(nx, 3, 3, ny=ny)
    s2, _, p2 = make_setup(nx, 3, 3, ny=ny)
    assert p1.top_system.A.data.tobytes() == p2.top_system.A.data.tobytes()
    r = np.arange(s1.n_flux, dtype=float)
    u1, q1 = p1.apply(r)
    u2, q2 = p2.apply(r)
    assert np.array_equal(u1, u2)
    assert np.array_equal(q1, q2)


def rel_err(got, ref):
    return np.linalg.norm(got - ref) / np.linalg.norm(ref)


@pytest.mark.parametrize(
    "spec, dense",
    [
        # fig3-right at contrast 1e8: every group is small enough for the dense operators
        (preset_specs("fig3-right", k1=1e4, k3=1e-4)[0], True),
        # 16 x 16 subdomains: every KKT is above DENSE_LIMIT and SuperLU solves
        (ExperimentSpec(levels=2, ratio=16, base=2), False),
    ],
    ids=["fig3-right-1e8", "ratio16-sparse"],
)
def test_group_solves_match_explicit_factorization(spec, dense, rng):
    precond = NestedSolver(spec).precond
    for level in precond.levels:
        groups = level.interior_groups + level.delta_groups
        assert all((grp.kkt.size <= DENSE_LIMIT) == dense for grp in groups)
        r = rng.standard_normal(level.system.n_flux)
        div = rng.standard_normal(level.system.n_pressure)
        for rhs_div in (None, div):
            u, p = interior_correction(level, r, rhs_div)
            for grp in level.interior_groups:
                assert grp.kkt.dense == dense
                m = grp.n_int + grp.n_cells
                rhs = np.zeros((grp.kkt.size, len(grp.subs)))
                rhs[: grp.n_int] = r[grp.idx_int].T
                if rhs_div is not None:
                    rhs[grp.n_int : m] = rhs_div[grp.idx_cells].T
                ref = Factorization(grp.kkt.matrix()).solve(rhs)[:m]
                got = np.vstack([u[grp.idx_int].T, p[grp.idx_cells].T])
                assert rel_err(got, ref) <= 1e-12
        r_b = rng.standard_normal(level.system.n_flux)
        w = delta_correction(level, r_b)
        for grp, got in zip(level.delta_groups, w):
            assert grp.kkt.dense == dense
            rhs = np.zeros((grp.kkt.size, len(grp.subs)))
            rhs[: grp.n_loc] = (grp.w * r_b[grp.idx_loc]).T
            ref = Factorization(grp.kkt.matrix()).solve(rhs)[: grp.n_loc].T
            assert rel_err(got, ref) <= 1e-12


def dense_block(b):
    return b.toarray() if sp.issparse(b) else b


# Step 3 runs on every start level of each spec; ratio 16 takes the sparse path.
PREMISE_SPECS = {
    **{
        f"ratio{spec.ratio}-L{spec.levels}": spec
        for preset, count in (("table1-ratio3", 3), ("table1-ratio4", 2), ("table1-ratio6", 1))
        for spec in preset_specs(preset)[:count]
    },
    "fig3-left": preset_specs("fig3-left")[0],
    "fig3-right": preset_specs("fig3-right")[0],
    "ratio16-L2": preset_specs("table1-ratio16")[0],
}


@pytest.mark.parametrize("case", list(PREMISE_SPECS))
def test_step3_residuals_match_general_apply(case, runs, monkeypatch):
    # Every residual step 3 hands to the preconditioner has interior rows in
    # range(B_I^T), so the gradient pre-correction of apply_step3 leaves no
    # interior residual and its output equals the general apply.
    solver = runs.solver(PREMISE_SPECS[case])
    precond = solver.precond
    step3 = MultilevelPreconditioner.apply_step3
    recorded = []

    def record(self, r, start_level):
        out = step3(self, r, start_level)
        recorded.append((np.array(r, copy=True), start_level, *out))
        return out

    monkeypatch.setattr(MultilevelPreconditioner, "apply_step3", record)
    solver.solve()
    monkeypatch.undo()
    assert {rec[1] for rec in recorded} == set(range(1, len(precond.levels) + 1))
    first = {}
    for r, start, u, p in recorded:
        u_ref, p_ref = precond.apply(r, start)
        norms = first.setdefault(
            start, (np.linalg.norm(r), np.linalg.norm(u_ref), np.linalg.norm(p_ref))
        )
        assert np.linalg.norm(u - u_ref) <= 1e-9 * norms[1]
        assert np.linalg.norm(p - p_ref) <= 1e-9 * norms[2]
        level = precond.levels[start - 1]
        r_b = r - level.system.B.T @ gradient_pressure(level, r)
        assert np.linalg.norm(r_b[level.decomp.interior_by_sub]) <= 1e-9 * norms[0]


@pytest.mark.parametrize("case", ["fig3-right", "ratio16-sparse"])
def test_interior_groups_share_divergence_block(case, runs, rng):
    if case == "fig3-right":
        precond = runs.solver(preset_specs("fig3-right")[0]).precond
    else:
        # 2 x 2 subdomains with one coefficient each: four sparse interior groups
        k = np.kron([[1.0, 10.0], [100.0, 1000.0]], np.ones((16, 16))).ravel()
        precond = make_setup(32, 2, 16, k=k)[2]
    assert max(len(level.interior_groups) for level in precond.levels) > 1
    for level in precond.levels:
        b_int = dense_block(level.interior_groups[0].kkt.b_block)
        for grp in level.interior_groups[1:]:
            assert np.array_equal(dense_block(grp.kkt.b_block), b_int)
        # the level's one gradient inverse recovers every gauged pressure
        gauge = level.interior_groups[0].kkt.gauge
        p = rng.standard_normal((len(gauge), 3))
        p -= np.outer(gauge, gauge @ p) / (gauge @ gauge)
        assert np.abs(level.grad_inv @ (b_int.T @ p) - p).max() <= 1e-12 * np.abs(p).max()


@pytest.mark.parametrize(
    "nx, ratio, sub",
    [(9, 3, 4), (32, 16, 3)],  # dense groups; 2 x 2 subdomains above DENSE_LIMIT
    ids=["ratio3-dense", "ratio16-sparse"],
)
def test_singular_local_kkt_rejected_at_build(nx, ratio, sub):
    # zero mass on one subdomain leaves its local KKTs singular; the level
    # build must reject them before any solve
    system, decomps, _ = make_setup(nx, 2, ratio)
    decomp = decomps[0]
    mass = system.elem_mass.copy()
    mass[decomp.cells_by_sub[sub]] = 0.0
    weights = compute_weights(decomp, system.elem_mass, 1.0)
    with pytest.raises(SingularMatrixError):
        build_level_bddc(dataclasses.replace(system, elem_mass=mass), decomp, weights)


def _bytes_key(*blocks) -> tuple:
    key = []
    for b in blocks:
        if b is None:
            key.append(b"none")
        elif sp.issparse(b):
            c = b.tocsr()
            key.extend((c.data.tobytes(), c.indices.tobytes(), c.indptr.tobytes()))
        else:
            arr = np.ascontiguousarray(b)
            key.extend((arr.shape, arr.tobytes()))
    return tuple(key)


def reference_subdomain(system, decomp, weights, s):
    """One subdomain's local problem assembled from its own cells.

    This is the per-subdomain assembly the level build replaced.  Each
    KKT keeps its blocks as dense arrays up to DENSE_LIMIT rows of its own
    system, CSR above.
    """
    grid = system.grid
    interior = decomp.interior_by_sub[s]
    cells = decomp.cells_by_sub[s]
    own = decomp.faces_by_sub[s]
    face_slots = tuple(int(k) for k in np.flatnonzero(own >= 0))
    face_ids = own[own >= 0]
    local = np.sort(np.concatenate([interior, decomp.face_dofs[face_ids].ravel()]))
    n_loc = len(local)
    n_cells = len(cells)

    cell_slots = grid.cell_dof_slots[cells]
    present = cell_slots >= 0
    loc_pos = np.zeros_like(cell_slots)
    loc_pos[present] = np.searchsorted(local, cell_slots[present])
    face_cols = [np.searchsorted(local, decomp.face_dofs[f]) for f in face_ids]
    dense = n_loc + n_cells + 1 + len(face_ids) <= DENSE_LIMIT

    pair = present[:, :, None] & present[:, None, :]
    rows = np.broadcast_to(loc_pos[:, :, None], pair.shape)[pair]
    cols = np.broadcast_to(loc_pos[:, None, :], pair.shape)[pair]
    vals = system.elem_mass[cells][pair]
    brow = np.broadcast_to(np.arange(n_cells)[:, None], cell_slots.shape)[present]
    bcol = loc_pos[present]
    bval = np.broadcast_to(SLOT_SIGNS * grid.h, cell_slots.shape)[present]
    c_block = None
    if dense:
        a_neu = np.zeros((n_loc, n_loc))
        np.add.at(a_neu, (rows, cols), vals)
        b_neu = np.zeros((n_cells, n_loc))
        b_neu[brow, bcol] = bval
        if len(face_ids):
            c_block = np.zeros((len(face_ids), n_loc))
            for r, pos in enumerate(face_cols):
                c_block[r, pos] = 1.0 / len(pos)
    else:
        a_neu = sp.coo_matrix((vals, (rows, cols)), shape=(n_loc, n_loc)).tocsr()
        b_neu = sp.coo_matrix((bval, (brow, bcol)), shape=(n_cells, n_loc)).tocsr()
        if len(face_ids):
            cr = np.concatenate([np.full(len(p), r) for r, p in enumerate(face_cols)])
            cc = np.concatenate(face_cols)
            cv = np.concatenate([np.full(len(p), 1.0 / len(p)) for p in face_cols])
            c_block = sp.coo_matrix((cv, (cr, cc)), shape=(len(face_ids), n_loc)).tocsr()

    int_pos = np.searchsorted(local, interior)
    if len(int_pos) + n_cells + 1 <= DENSE_LIMIT:
        a_int = dense_block(a_neu)[np.ix_(int_pos, int_pos)]
        b_int = dense_block(b_neu)[:, int_pos]
    else:
        a_int = a_neu[int_pos][:, int_pos]
        b_int = b_neu[:, int_pos].tocsr()

    w = np.ones(n_loc)
    for f, pos in zip(face_ids, face_cols):
        sub_lo = decomp.sub_grid.edge_sides[f, 0]
        side = weights.side_lo if s == sub_lo else weights.side_hi
        w[pos] = side[decomp.face_dofs[f]]

    gauge = system.areas[cells]
    return {
        "local": local,
        "face_ids": face_ids,
        "w": w,
        "interior_key": _bytes_key(a_int, b_int, gauge),
        "delta_key": (face_slots,) + _bytes_key(a_neu, b_neu, gauge, c_block),
        "interior_blocks": (a_int, b_int),
        "delta_blocks": (a_neu, b_neu, c_block),
    }


def _group_by(keys) -> list[list[int]]:
    groups: dict = {}
    for s, key in enumerate(keys):
        groups.setdefault(key, []).append(s)
    return list(groups.values())


@pytest.mark.parametrize(
    "case",
    ["fig3-left", "fig3-right", "ratio3-L4", "mesh-27x9", "ratio16-sparse"],
)
def test_groups_match_per_subdomain_reference(case, runs):
    if case == "mesh-27x9":
        precond = make_setup(27, 3, 3, ny=9)[2]
    else:
        spec = {
            "fig3-left": preset_specs("fig3-left")[0],
            "fig3-right": preset_specs("fig3-right")[0],
            "ratio3-L4": ExperimentSpec(levels=4, ratio=3),
            "ratio16-sparse": ExperimentSpec(levels=2, ratio=16, base=2),
        }[case]
        precond = runs.solver(spec).precond
    for level in precond.levels:
        refs = [
            reference_subdomain(level.system, level.decomp, level.weights, s)
            for s in range(level.decomp.n_sub)
        ]
        # grouping by each member's own assembled blocks: same members, same order
        assert [list(g.subs) for g in level.delta_groups] == _group_by(
            ref["delta_key"] for ref in refs
        )
        assert [list(g.subs) for g in level.interior_groups] == _group_by(
            ref["interior_key"] for ref in refs
        )
        # every member's own blocks equal its group's, bit for bit
        for grp in level.delta_groups:
            blocks = _bytes_key(grp.kkt.a_block, grp.kkt.b_block, grp.kkt.c_block)
            for row, s in enumerate(grp.subs):
                ref = refs[s]
                assert _bytes_key(*ref["delta_blocks"]) == blocks
                assert np.array_equal(grp.idx_loc[row], ref["local"])
                assert np.array_equal(grp.face_ids[row], ref["face_ids"])
                assert np.array_equal(grp.w[row], ref["w"])
        for grp in level.interior_groups:
            blocks = _bytes_key(grp.kkt.a_block, grp.kkt.b_block)
            for row, s in enumerate(grp.subs):
                assert _bytes_key(*refs[s]["interior_blocks"]) == blocks
                assert np.array_equal(grp.idx_int[row], level.decomp.interior_by_sub[s])
                assert np.array_equal(grp.idx_cells[row], level.decomp.cells_by_sub[s])
