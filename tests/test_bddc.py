"""BDDC components: basis properties, corrections, preconditioner invariants."""

import dataclasses

import numpy as np
import pytest

import nested_bddc as nb
from nested_bddc.bddc import (
    MultilevelPreconditioner,
    build_level_bddc,
    delta_correction,
    interior_correction,
)
from nested_bddc.hierarchy import HierarchyConfig, build_hierarchy, compute_weights
from nested_bddc.mesh_fem import CoefficientField, assemble_rt0, build_mesh, divergence_defect
from nested_bddc.nested_driver import ExperimentSpec, NestedSolver, preset_specs
from nested_bddc.saddle_core import DENSE_LIMIT, Factorization, SingularMatrixError


def make_setup(nx, levels, ratio, k=None, gamma=1.0):
    mesh = build_mesh(nx, nx)
    coeff = (
        CoefficientField.constant(mesh, 1.0)
        if k is None
        else CoefficientField.from_values(k)
    )
    decomps = build_hierarchy(mesh, HierarchyConfig(levels, ratio, gamma))
    system = assemble_rt0(mesh, coeff, source="corner")
    precond = MultilevelPreconditioner.build(system, decomps, gamma)
    return system, decomps, precond


@pytest.fixture(scope="module")
def two_level_9x9():
    return make_setup(9, 2, 3)


def balanced_residual(level, rng):
    """Random flux residual supported on the interface only."""
    r = np.zeros(level.system.n_flux)
    iface = level.decomp.partition.interface
    r[iface] = rng.standard_normal(len(iface))
    return r


def test_coarse_basis_realizes_unit_coarse_dofs(two_level_9x9):
    _, _, precond = two_level_9x9
    level = precond.levels[0]
    for block in level.blocks:
        psi = block.coarse_basis
        for j, cols in enumerate(block.face_cols):
            averages = psi[cols].mean(axis=0)
            expected = np.zeros(len(block.face_ids))
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
    block = level.blocks[4]  # interior subdomain, all four faces present
    assert len(block.face_ids) == 4
    a_loc = np.asarray(block.a_local)
    combo = block.coarse_basis[:, 0] + block.coarse_basis[:, 1]
    for j, cols in enumerate(block.face_cols):
        assert combo[cols].mean() == pytest.approx(1.0 if j < 2 else 0.0, abs=1e-12)
    assert np.allclose(np.asarray(block.b_local) @ combo, 0.0, atol=1e-11)
    constant = np.zeros(len(block.local_dofs))
    constant[block.local_dofs < level.system.grid.n_vertical] = 1.0
    assert combo @ a_loc @ combo < constant @ a_loc @ constant


def test_coarse_basis_energy_minimal(two_level_9x9, rng):
    _, _, precond = two_level_9x9
    level = precond.levels[0]
    block = level.blocks[4]
    a_loc = np.asarray(block.a_local)
    b_loc = np.asarray(block.b_local)
    c_blk = np.asarray(block.c_block)
    psi = block.coarse_basis[:, 0]
    base = psi @ a_loc @ psi
    # feasible competitors: same face averages, divergence still cellwise constant
    constraints = np.vstack([b_loc - block.a_local.sum() * 0.0, c_blk])
    # divergence rows modulo constants: project rhs of b_loc onto mean-zero
    areas = level.system.areas[block.cells]
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
    for block in level.blocks:
        grp = block.delta_group
        psi = grp.psi
        a_loc = np.asarray(grp.a_local)
        b_loc = np.asarray(grp.b_local)
        p_psi = grp.basis_pressure
        f = block.face_ids
        # flux block: basis energies plus divergence cross terms (which vanish)
        contrib = psi.T @ a_loc @ psi + psi.T @ b_loc.T @ p_psi + p_psi.T @ b_loc @ psi
        a_c[np.ix_(f, f)] += contrib
        # divergence block: subdomain-integrated divergence of each column
        b_c[block.sub, f] = b_loc.sum(axis=0) @ psi
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
    for block in level.blocks:
        ii = block.interior_dofs
        cc = block.cells
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
    for block in level.blocks:
        for cols in block.face_cols:
            assert abs(w[block.sub][cols].mean()) < 1e-12


def test_delta_correction_zero_residual(two_level_9x9):
    _, _, precond = two_level_9x9
    level = precond.levels[0]
    w = delta_correction(level, np.zeros(level.system.n_flux))
    for v in w:
        assert np.allclose(v, 0.0)


def test_averaged_delta_is_balanced(two_level_9x9, rng):
    # dual corrections averaged back stay divergence-orthogonal to
    # subdomain constants; basis combinations keep their coarse divergence
    from nested_bddc.hierarchy import apply_average

    system, _, precond = two_level_9x9
    level = precond.levels[0]
    b_dense = system.B.toarray()

    # random dual-space member: zero face averages on every side copy
    copies = []
    for block in level.blocks:
        v = rng.standard_normal(len(block.local_dofs))
        for cols in block.face_cols:
            v[cols] -= v[cols].mean()
        copies.append(v)
    averaged = apply_average(level.decomp, level.weights, copies)
    for block in level.blocks:
        q0 = b_dense[block.cells] @ averaged
        assert abs(q0.sum()) < 1e-10 * (np.linalg.norm(averaged) + 1)

    # random primal member: averaging preserves subdomain divergence totals
    alpha = rng.standard_normal(level.decomp.n_faces)
    copies = [block.coarse_basis @ alpha[block.face_ids] for block in level.blocks]
    averaged = apply_average(level.decomp, level.weights, copies)
    coarse_b = precond.top_system.B.toarray()
    for block in level.blocks:
        broken = coarse_b[block.sub] @ alpha
        total = (b_dense[block.cells] @ averaged).sum()
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


def test_multilevel_divergence_free_all_levels(rng):
    system, _, precond = make_setup(27, 3, 3)
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
    iface = level.decomp.partition.interface
    values = np.unique(np.round(w.side_lo[iface], 12))
    assert set(values) <= {np.round(1 / (1 + k), 12), 0.5, np.round(k / (1 + k), 12)}


def test_build_determinism():
    s1, _, p1 = make_setup(9, 2, 3)
    s2, _, p2 = make_setup(9, 2, 3)
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
        r = rng.standard_normal(level.n_flux)
        div = rng.standard_normal(level.n_pressure)
        for rhs_div in (None, div):
            u, p = interior_correction(level, r, rhs_div)
            for grp in level.interior_groups:
                assert (grp.op_t is not None) == dense
                m = grp.n_int + grp.n_cells
                rhs = np.zeros((grp.kkt.size, len(grp.subs)))
                rhs[: grp.n_int] = r[grp.idx_int].T
                if rhs_div is not None:
                    rhs[grp.n_int : m] = rhs_div[grp.idx_cells].T
                ref = Factorization(grp.kkt.matrix()).solve(rhs)[:m]
                got = np.vstack([u[grp.idx_int].T, p[grp.idx_cells].T])
                assert rel_err(got, ref) <= 1e-12
        r_b = rng.standard_normal(level.n_flux)
        w = delta_correction(level, r_b)
        for grp in level.delta_groups:
            assert (grp.op_psi is not None) == dense
            rhs = np.zeros((grp.kkt.size, len(grp.subs)))
            rhs[: grp.n_loc] = (grp.w * r_b[grp.idx_loc]).T
            ref = Factorization(grp.kkt.matrix()).solve(rhs)[: grp.n_loc].T
            got = np.array([w[s] for s in grp.subs])
            assert rel_err(got, ref) <= 1e-12


def test_singular_local_kkt_rejected_at_build():
    # zero mass on one subdomain leaves its interior KKT singular; the level
    # build must reject it before any solution operator is formed from it
    system, decomps, _ = make_setup(9, 2, 3)
    decomp = decomps[0]
    mass = system.elem_mass.copy()
    mass[decomp.cells_by_sub[4]] = 0.0
    weights = compute_weights(decomp, system.elem_k, 1.0)
    with pytest.raises(SingularMatrixError):
        build_level_bddc(dataclasses.replace(system, elem_mass=mass), decomp, weights)
