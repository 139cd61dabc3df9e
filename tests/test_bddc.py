"""BDDC components: basis properties, corrections, preconditioner invariants."""

import dataclasses
import threading
from itertools import groupby

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import nested_bddc as nb
from nested_bddc.bddc import (
    BddcError,
    MultilevelPreconditioner,
    _face_average,
    assemble_coarse_problem,
    build_level_bddc,
    interior_correction,
    prolong_average,
)
from nested_bddc.hierarchy import build_hierarchy, compute_weights
from nested_bddc.mesh_fem import (
    SLOT_BOTTOM,
    SLOT_LEFT,
    SLOT_SIGNS,
    CoefficientField,
    Rt0System,
    _unique_rows,
    assemble_rt0,
    build_mesh,
    divergence_defect,
    element_triplets,
)
from conftest import BATCH_STACKS, copy_rows, edge_sides_weights, level_groups
from nested_bddc import bddc, nested_driver, saddle_core
from nested_bddc.krylov import pcg
from nested_bddc.nested_driver import (
    ExperimentSpec,
    NestedSolver,
    oracle_direct_solve,
    preset_specs,
    step1_coarse_rhs,
    step2_subdomain_solve,
    step3_correction,
)
from nested_bddc.saddle_core import DENSE_LIMIT, Factorization, KktSystem, SingularMatrixError


def make_setup(nx, levels, ratio, k=None, gamma=1.0, ny=None):
    mesh = build_mesh(nx, nx if ny is None else ny)
    coeff = (
        CoefficientField.constant(mesh, 1.0)
        if k is None
        else CoefficientField(k)
    )
    system = assemble_rt0(mesh, coeff, source="corner")
    precond = MultilevelPreconditioner.build(system, levels, ratio, gamma)
    return system, [level.decomp for level in precond.levels], precond


@pytest.fixture(scope="module")
def two_level_9x9():
    return make_setup(9, 2, 3)


def delta_correction(level, r_b):
    """Dual face corrections of the weighted residual, member rows per group."""
    groups = level_groups(level)
    rows = [copy_rows(level, grp) for grp in groups]
    return [(c.w * r_b[c.idx_face]) @ grp.dual for grp, c in zip(groups, rows)]


def face_means(grp, rows):
    """Per-face means of face rows, shape ``(..., n_faces)``."""
    return rows.reshape(*rows.shape[:-1], grp.n_faces, -1).mean(axis=-1)


def delta_member(level, sub):
    """Group holding subdomain ``sub`` and the member row of it there."""
    for grp in level_groups(level):
        rows = np.flatnonzero(grp.subs == sub)
        if len(rows):
            return grp, rows[0]
    raise KeyError(sub)


def dense_block(b):
    return b.toarray() if sp.issparse(b) else b


def coo_blocks(slot_map, blocks, h, n_flux):
    """Mass and divergence blocks as COO from the element scatter, duplicates unsummed."""
    (m_val, m_row, m_col), (d_val, d_row, d_col) = element_triplets(slot_map, blocks, h)
    mass = sp.coo_matrix((m_val, (m_row, m_col)), shape=(n_flux, n_flux))
    div = sp.coo_matrix((d_val, (d_row, d_col)), shape=(len(slot_map), n_flux))
    return mass, div


def member_problem(level, grp, row):
    """One member's local problem from its own cells, through ``coo_blocks``.

    Dense mass, divergence and face-average blocks with columns in the
    group's order (interior dofs, then face dofs), and the gauge.
    """
    system, copies = level.system, copy_rows(level, grp)
    local = np.concatenate([grp.idx_int[row], copies.idx_face[row]])
    cells = level.decomp.cells_by_sub[grp.subs[row]]
    # global dof id -> position in ``local``; -1 (the last entry) elsewhere
    position = np.full(system.n_flux + 1, -1)
    position[local] = np.arange(len(local))
    slots = position[system.grid.cell_dof_slots[cells]]
    blocks = system.elem_table[system.elem_class[cells]]
    mass, div = coo_blocks(slots, blocks, system.grid.h, len(local))
    con = np.zeros((grp.n_faces, len(local)))
    for k, face in enumerate(copies.face_ids[row]):
        dofs = level.decomp.face_dofs[face]
        con[k, np.isin(local, dofs)] = 1.0 / len(dofs)
    return mass.toarray(), div.toarray(), con, level.system.areas[cells]


def constrained_kkt(a, b, con, gauge):
    """The explicit constrained KKT: flux, pressure, gauge, face averages."""
    n, m = b.shape[1], b.shape[0]
    kkt = np.zeros((n + m + 1 + len(con),) * 2)
    kkt[:n, :n] = a
    kkt[n : n + m, :n] = b
    kkt[:n, n : n + m] = b.T
    kkt[n : n + m, n + m] = gauge
    kkt[n + m, n : n + m] = gauge
    kkt[n + m + 1 :, :n] = con
    kkt[:n, n + m + 1 :] = con.T
    return kkt


def basis_all_dofs(grp):
    """The group's basis on all local dofs: interior rows, then face rows."""
    return np.vstack([grp.ext[:, : grp.n_int].T @ grp.psi, grp.psi])


def check_face_operators(grp, a, b, con, gauge, int_pos, face_pos, tol):
    """A group's face operators against one member's explicit constrained KKT.

    ``a``, ``b`` and ``con`` are the member's Neumann mass, divergence and
    face-average blocks in any local dof order; the group's interior and
    face columns sit at ``int_pos`` and ``face_pos`` there.
    """
    a, b, con = (dense_block(m) for m in (a, b, con))
    n, m = a.shape[0], b.shape[0]
    kkt = constrained_kkt(a, b, con, gauge)
    inv = np.linalg.inv(kkt)
    # dual face operator: data on the faces, face values read back
    assert rel_err(grp.dual, inv[np.ix_(face_pos, face_pos)].T) <= tol
    # basis on all local dofs: unit data in the constraint rows
    psi_ref = inv[:n, n + m + 1 :]
    psi = np.empty_like(psi_ref)
    psi[np.r_[int_pos, face_pos]] = basis_all_dofs(grp)
    assert rel_err(psi, psi_ref) <= tol
    assert rel_err(grp.coarse_elem, psi_ref.T @ a @ psi_ref) <= tol
    # harmonic extension: the interior KKT with face values as data
    inner = np.r_[int_pos, n + np.arange(m + 1)]
    ext_ref = -np.linalg.solve(kkt[np.ix_(inner, inner)], kkt[np.ix_(inner, face_pos)])
    assert rel_err(grp.ext, ext_ref[:-1].T) <= tol


def balanced_residual(level, rng):
    """Random flux residual supported on the interface only."""
    r = np.zeros(level.system.n_flux)
    iface = np.sort(level.decomp.face_dofs.ravel())
    r[iface] = rng.standard_normal(len(iface))
    return r


def test_coarse_basis_realizes_unit_coarse_dofs(two_level_9x9):
    _, _, precond = two_level_9x9
    level = precond.levels[0]
    for grp in level_groups(level):
        assert np.allclose(face_means(grp, grp.psi.T), np.eye(grp.n_faces), atol=1e-12)


def test_coarse_basis_beats_constant_flux_competitor(two_level_9x9):
    # Unit averages on left and right, zero on bottom/top: the constant
    # (1, 0) field is feasible (divergence free, exact averages), so the
    # energy-minimal column combination must not exceed its energy.  It is
    # strictly better here because the mass-matrix energy rewards letting
    # the flux spread out away from the constrained faces.
    _, _, precond = two_level_9x9
    level = precond.levels[0]
    grp, row = delta_member(level, 4)  # interior subdomain, all four faces present
    copies = copy_rows(level, grp)
    local_dofs = np.concatenate([grp.idx_int[row], copies.idx_face[row]])
    assert len(copies.face_ids[row]) == 4
    a_loc, b_loc, con, _ = member_problem(level, grp, row)
    psi = basis_all_dofs(grp)
    combo = psi[:, 0] + psi[:, 1]
    assert np.allclose(con @ combo, [1.0, 1.0, 0.0, 0.0], atol=1e-12)
    assert np.allclose(b_loc @ combo, 0.0, atol=1e-11)
    constant = np.zeros(len(local_dofs))
    constant[local_dofs < level.system.grid.n_vertical] = 1.0
    assert combo @ a_loc @ combo < constant @ a_loc @ constant


def test_coarse_basis_energy_minimal(two_level_9x9, rng):
    _, _, precond = two_level_9x9
    level = precond.levels[0]
    grp, row = delta_member(level, 4)
    a_loc, b_loc, c_blk, areas = member_problem(level, grp, row)
    psi = basis_all_dofs(grp)[:, 0]
    base = psi @ a_loc @ psi
    # feasible competitors: same face averages, divergence still cellwise
    # constant (divergence rows modulo constants: project onto mean zero)
    proj = np.eye(len(areas)) - np.outer(areas, areas) / (areas @ areas)
    constraints = np.vstack([proj @ b_loc, c_blk])
    ns = np.linalg.svd(constraints)[2][np.linalg.matrix_rank(constraints) :]
    for _ in range(8):
        pert = ns.T @ rng.standard_normal(ns.shape[0])
        competitor = psi + pert
        assert competitor @ a_loc @ competitor >= base - 1e-12


def test_coarse_problem_dimensions(two_level_9x9):
    _, _, precond = two_level_9x9
    coarse = assemble_coarse_problem(precond.levels[-1])
    assert coarse.n_flux == 12
    assert coarse.n_pressure == 9


def test_coarse_of_coarse_dimensions():
    _, decomps, precond = make_setup(27, 3, 3)
    assert precond.levels[1].system.n_flux == decomps[0].n_faces
    top = assemble_coarse_problem(precond.levels[-1])
    assert top.n_flux == decomps[1].n_faces
    assert top.n_pressure == decomps[1].n_sub


def test_coarse_system_is_galerkin_product(two_level_9x9):
    system, _, precond = two_level_9x9
    level = precond.levels[0]
    coarse = assemble_coarse_problem(precond.levels[-1])
    n_faces = level.decomp.n_faces
    n_sub = level.decomp.n_sub
    a_c = np.zeros((n_faces, n_faces))
    b_c = np.zeros((n_sub, n_faces))
    for grp in level_groups(level):
        psi = basis_all_dofs(grp)
        a_loc, b_loc, con, gauge = member_problem(level, grp, 0)
        # basis pressures: a fresh solve of the explicit constrained KKT on
        # the constraint unit columns
        kkt = constrained_kkt(a_loc, b_loc, con, gauge)
        n, m = b_loc.shape[1], b_loc.shape[1] + b_loc.shape[0]
        unit = np.zeros((len(kkt), grp.n_faces))
        unit[m + 1 :] = np.eye(grp.n_faces)
        p_psi = np.linalg.solve(kkt, unit)[n:m]
        for sub, f in zip(grp.subs, copy_rows(level, grp).face_ids):
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
    u, p, _ = interior_correction(level, r)
    assert np.allclose(u, 0.0)
    assert np.allclose(p, 0.0)


def test_interior_correction_matches_dense_oracle(two_level_9x9, rng):
    system, _, precond = two_level_9x9
    level = precond.levels[0]
    r = rng.standard_normal(system.n_flux)
    u, p, _ = interior_correction(level, r)
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


FACE_RESIDUAL_SPECS = {
    "ratio3-L3-dense": ExperimentSpec(levels=3, ratio=3),
    "ratio16-sparse": ExperimentSpec(levels=2, ratio=16, base=2),
}


@pytest.mark.parametrize("mode", ["r", "rhs_div", "both"])
@pytest.mark.parametrize("case", list(FACE_RESIDUAL_SPECS))
def test_interior_correction_face_residual_matches_assembled(case, mode, runs, rng):
    # The face residual an interior solve returns, from its data rows and
    # the extension rows, against -(A u + B^T p) on the face dofs from the
    # level's assembled matrices.  Divergence data vanish on every other
    # subdomain, so with them alone only some members of a group are solved.
    precond = runs.solver(FACE_RESIDUAL_SPECS[case]).precond
    for level in precond.levels:
        system, faces = level.system, level.decomp.face_dofs.ravel()
        r = rng.standard_normal(system.n_flux) if mode != "rhs_div" else None
        div = None
        if mode != "r":
            div = rng.standard_normal(system.n_pressure)
            div[level.decomp.cells_by_sub[::2]] = 0.0
        u, p, r_face = interior_correction(level, r, div)
        ref = -(system.A @ u + system.B.T @ p)[faces]
        assert rel_err(r_face, ref) <= 1e-12


@pytest.mark.parametrize("start_level", [1, 2])
@pytest.mark.parametrize("shape", ["short", "long", "2-d"])
def test_apply_rejects_residual_of_wrong_shape(shape, start_level, runs):
    precond = runs.solver(FACE_RESIDUAL_SPECS["ratio3-L3-dense"]).precond
    n = precond.levels[start_level - 1].system.n_flux
    r = {"short": np.ones(n - 1), "long": np.ones(n + 1), "2-d": np.ones((n, 1))}[shape]
    with pytest.raises(BddcError, match=rf"expected \({n},\)"):
        precond.apply(r, start_level)


STEP3_DATA = ("u0_face", "f", "u_src", "p_star", "p_ext0", "r_face")


@pytest.mark.parametrize("shape", ["short", "long", "2-d", "one", "zero-short"])
@pytest.mark.parametrize(
    "data",
    [
        "r",
        "rhs_div",
        "u0_face",
        "step1_f",
        *(f"step3_{name}" for name in STEP3_DATA),
        "net_flux",
        "face_divergence_defect",
        "defect_product",
        "defect_m",
    ],
)
def test_level_entry_points_reject_data_of_wrong_shape(data, shape, runs):
    # Each group gathers only the rows it indexes, so data longer than the
    # level would otherwise pass unnoticed; a length-1 vector would
    # broadcast.  Step 1 restricts f by its subdomains' cells, which would
    # drop the entries past the level's cells.  Steps 1 and 3 name the
    # argument in the error; step 3 takes step 2's inputs and outputs,
    # checked one by one.  The level's condensed products take face
    # values: a zero vector of any length has no defect to skip, and a
    # wrong length must not reach the sub-grid, whose error names its own.
    # The defect checks the step-3 product and subdomain values it is given.
    precond = runs.solver(FACE_RESIDUAL_SPECS["ratio3-L3-dense"]).precond
    level = precond.levels[1]
    n_face, n_flux, n_cells = level.decomp.face_dofs.size, level.system.n_flux, level.system.n_pressure
    n = {"r": n_flux, "rhs_div": n_cells, "step1_f": n_cells, "defect_m": level.decomp.n_sub}.get(data, n_face)
    if data.startswith("step3_"):
        args = dict(zip(STEP3_DATA, (n_face, n_cells, n_flux, n_cells, n_cells, n_face)))
        n = args[data.removeprefix("step3_")]
    bad = {
        "short": np.ones(n - 1),
        "long": np.ones(n + 1),
        "2-d": np.ones((n, 1)),
        "one": np.ones(1),
        "zero-short": np.zeros(n - 1),
    }[shape]
    named = data.split("_", 1)[1] + " " if data.startswith(("step1_", "step3_")) else ""
    with pytest.raises(BddcError, match=rf"^{named}.*expected \({n},\)"):
        if data == "r":
            interior_correction(level, bad)
        elif data == "rhs_div":
            interior_correction(level, rhs_div=bad)
        elif data == "u0_face":
            step2_subdomain_solve(level, bad, np.zeros(n_cells))
        elif data == "step1_f":
            nested_driver.step1_coarse_rhs(level.decomp, bad)
        elif data in ("net_flux", "face_divergence_defect"):
            getattr(level, data)(bad)
        elif data.startswith("defect_"):
            args = {"product": np.ones(n_face), "m": np.ones(level.decomp.n_sub)}
            args[data.removeprefix("defect_")] = bad
            level.face_divergence_defect(np.ones(n_face), **args)
        else:
            rng = np.random.default_rng(5)
            u0_face, f = rng.standard_normal(n_face), np.zeros(n_cells)
            f[:2] = 1.0, -1.0
            args = dict(zip(STEP3_DATA, (u0_face, f, *step2_subdomain_solve(level, u0_face, f))))
            args[data.removeprefix("step3_")] = bad
            nested_driver.step3_correction(precond, 2, *args.values())


@pytest.mark.parametrize("level", [1.0, 1.5, "1", 0, 3, True])
def test_level_numbers_must_be_integers_in_range(level, runs):
    # A level that is not an integral number from 1 to the level count is
    # rejected by name, in the preconditioner and in step 3 alike; numpy
    # integers are integers, booleans are not.
    precond = runs.solver(FACE_RESIDUAL_SPECS["ratio3-L3-dense"]).precond
    r = np.zeros(precond.levels[0].system.n_flux)
    integer = isinstance(level, int) and not isinstance(level, bool)
    message = "out of range" if integer else "must be an integer"
    with pytest.raises(BddcError, match=message):
        precond.apply(r, level)
    with pytest.raises(BddcError, match=message):
        nested_driver.step3_correction(precond, level, *([np.zeros(1)] * 6))
    u, p = precond.apply(r, np.int64(1))
    assert not u.any() and not p.any()


def test_coarse_divergence_matches_csr_product():
    # Every coarse system of a ratio-3, four-level hierarchy, the top one
    # included: the grid's divergence and gradient are B @ u and B.T @ p
    # bit for bit, and reject vectors of another shape.
    _, _, precond = make_setup(81, 4, 3)
    systems = [level.system for level in precond.levels[1:]]
    systems.append(assemble_coarse_problem(precond.levels[-1]))
    rng = np.random.default_rng(4)
    for system in systems:
        grid = system.grid
        u, p = rng.standard_normal(system.n_flux), rng.standard_normal(system.n_pressure)
        assert grid.divergence(u).tobytes() == (system.B @ u).tobytes()
        assert grid.gradient(p).tobytes() == (system.B.T @ p).tobytes()
        with pytest.raises(ValueError, match="expected"):
            grid.divergence(u[:-1])
        with pytest.raises(ValueError, match="expected"):
            grid.gradient(np.append(p, 0.0))


def test_interior_correction_without_data_raises(two_level_9x9):
    with pytest.raises(BddcError, match="needs a flux residual"):
        interior_correction(two_level_9x9[2].levels[0])


def test_delta_correction_face_averages_vanish(two_level_9x9, rng):
    _, _, precond = two_level_9x9
    level = precond.levels[0]
    r_b = balanced_residual(level, rng)
    w = delta_correction(level, r_b)
    for grp, rows in zip(level_groups(level), w):
        assert np.abs(face_means(grp, rows)).max() < 1e-12


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
    # B's face columns, in the order of the averaged face vector
    b_dense = system.B.toarray()[:, level.decomp.face_dofs.ravel()]

    # random dual-space member: zero face averages on every side copy
    copies = []
    for grp in level_groups(level):
        v = rng.standard_normal((len(grp.subs), grp.n_faces, grp.n_face_dofs // grp.n_faces))
        v -= v.mean(axis=2, keepdims=True)
        copies.append(v.reshape(len(grp.subs), -1))
    averaged = _face_average(level, np.concatenate(copies, axis=None))
    for cells in cells_by_sub:
        q0 = b_dense[cells] @ averaged
        assert abs(q0.sum()) < 1e-10 * (np.linalg.norm(averaged) + 1)

    # random primal member: averaging preserves subdomain divergence totals
    alpha = rng.standard_normal(level.decomp.n_faces)
    copies = [alpha[copy_rows(level, grp).face_ids] @ grp.psi.T for grp in level_groups(level)]
    averaged = _face_average(level, np.concatenate(copies, axis=None))
    coarse_b = assemble_coarse_problem(precond.levels[-1]).B.toarray()
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


@settings(derandomize=True, deadline=None, max_examples=25)
@given(
    ratio=st.integers(2, 3),
    levels=st.integers(2, 3),
    sx=st.integers(2, 3),  # two or more top cells: every level has an interface
    sy=st.integers(1, 3),
    sigma=st.floats(0.0, 2.0),
    gamma=st.sampled_from([0.0, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_preconditioner_properties_on_random_hierarchies(ratio, levels, sx, sy, sigma, gamma, seed):
    # rectangular meshes and lognormal fields; interface-supported residuals
    # on every start level
    nx, ny = ratio ** (levels - 1) * sx, ratio ** (levels - 1) * sy
    rng = np.random.default_rng(seed)
    k = rng.lognormal(0.0, sigma, nx * ny)
    _, _, precond = make_setup(nx, levels, ratio, k=k, gamma=gamma, ny=ny)
    _, _, again = make_setup(nx, levels, ratio, k=k, gamma=gamma, ny=ny)
    for start, level in enumerate(precond.levels, start=1):
        r1, r2 = balanced_residual(level, rng), balanced_residual(level, rng)
        u1, p1 = precond.apply(r1, start_level=start)
        u2, _ = precond.apply(r2, start_level=start)
        assert divergence_defect(level.system, u1) <= 1e-10
        e1, e2 = r1 @ u1, r2 @ u2
        assert e1 >= 0.0 and e2 >= 0.0
        # symmetry, relative to the Cauchy-Schwarz bound of the cross term
        assert abs(r1 @ u2 - r2 @ u1) <= 1e-11 * np.sqrt(e1 * e2)
        u_again, p_again = again.apply(r1, start_level=start)
        assert np.array_equal(u1, u_again) and np.array_equal(p1, p_again)


def test_jump_coefficients_shrink_weights():
    k = 100.0
    nx = 9
    vals = np.ones(nx * nx)
    vals[: nx * nx // 2] = k  # jump aligned with the middle subdomain row
    vals = np.where(np.arange(nx * nx) // nx < 3, k, 1.0)
    system, decomps, precond = make_setup(nx, 2, 3, k=vals)
    level = precond.levels[0]
    w_lo = compute_weights(level.decomp, system, 1.0)
    values = np.unique(np.round(w_lo, 12))
    assert set(values) <= {np.round(1 / (1 + k), 12), 0.5, np.round(k / (1 + k), 12)}


@MESHES
def test_build_determinism(nx, ny):
    s1, _, p1 = make_setup(nx, 3, 3, ny=ny)
    s2, _, p2 = make_setup(nx, 3, 3, ny=ny)
    a1, a2 = (assemble_coarse_problem(p.levels[-1]).A for p in (p1, p2))
    assert a1.data.tobytes() == a2.data.tobytes()
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
        # one explicit factorization per distinct interior KKT, for all the
        # groups that share it
        kkts = {id(grp.kkt): grp.kkt for grp in level_groups(level)}
        assert all(kkt.dense == dense for kkt in kkts.values())
        refs = {key: Factorization(kkt.matrix()) for key, kkt in kkts.items()}
        r = rng.standard_normal(level.system.n_flux)
        div = rng.standard_normal(level.system.n_pressure)
        for rhs_div in (None, div):
            u, p, _ = interior_correction(level, r, rhs_div)
            for grp in level_groups(level):
                m = grp.n_int + grp.n_cells
                rhs = np.zeros((grp.kkt.size, len(grp.subs)))
                rhs[: grp.n_int] = r[grp.idx_int].T
                if rhs_div is not None:
                    rhs[grp.n_int : m] = rhs_div[grp.idx_cells].T
                ref = refs[id(grp.kkt)].solve(rhs)[:m]
                got = np.vstack([u[grp.idx_int].T, p[grp.idx_cells].T])
                assert rel_err(got, ref) <= 1e-12
        # each group's face operators against the inverse of its first
        # member's explicit constrained KKT (interior dofs, then face dofs)
        for grp in level_groups(level):
            n_int, n_f = grp.n_int, grp.n_face_dofs
            int_pos, face_pos = np.arange(n_int), n_int + np.arange(n_f)
            check_face_operators(grp, *member_problem(level, grp, 0), int_pos, face_pos, 1e-12)


@pytest.mark.parametrize("case", ["ratio16-constant", "fig3-right"])
def test_one_condensation_call_per_cell_pattern(case, runs, monkeypatch):
    # Each cell pattern is condensed onto its four faces by one
    # solve_leading call; its groups of present faces slice that.
    if case == "ratio16-constant":
        # 3 x 3 subdomains: nine groups of present faces on one pattern
        mesh = build_mesh(48, 48)
        system = assemble_rt0(mesh, CoefficientField.constant(mesh, 1.0))
        levels = [(system, build_hierarchy(system.grid, 2, 16)[0])]
    else:
        precond = runs.solver(preset_specs("fig3-right")[0]).precond
        levels = [(level.system, level.decomp) for level in precond.levels]
    leading = Factorization.solve_leading
    calls = []

    def count(self, rows, m):
        calls.append(rows.shape)
        return leading(self, rows, m)

    monkeypatch.setattr(Factorization, "solve_leading", count)
    for system, decomp in levels:
        calls.clear()
        level = build_level_bddc(system, decomp, 1.0)
        n_kkts = len({id(grp.kkt) for grp in level_groups(level)})
        assert len(calls) == n_kkts
        if case == "ratio16-constant":
            # one call, with the 4 x 16 face dofs as right-hand sides
            assert (len(level_groups(level)), n_kkts, calls[0][0]) == (9, 1, 64)


@pytest.mark.parametrize(
    "nx, ratio, dense",
    [(9, 3, True), (32, 16, False)],  # 3 x 3 dense patterns; 2 x 2 above DENSE_LIMIT
    ids=["ratio3-dense", "ratio16-sparse"],
)
def test_cells_match_coo_reference(nx, ratio, dense):
    # The condensation of each cell pattern against the same steps through
    # COO blocks: the interior KKT from the interior slots, the dense face
    # rows from the whole Neumann matrix.  Scaling the element matrices
    # entry by entry keeps their zeros but not their symmetry, as on a
    # coarse level, and gives every cell a table row of its own and every
    # subdomain a pattern of its own, so each group has one member and the
    # level build's groups hold every pattern's condensation on its faces.
    # The scaled blocks go into one construction: the constructor merges
    # equal rows, so the unscaled per-cell table would be one row again.
    system, decomps, _ = make_setup(nx, 2, ratio)
    decomp = decomps[0]
    n_cells = system.grid.n_cells
    scale = 1.0 + 0.1 * np.random.default_rng(ratio).random((n_cells, 4, 4))
    blocks = system.elem_table[system.elem_class] * scale
    system = Rt0System(system.grid, blocks, np.arange(n_cells), system.g)
    assert len(system.elem_table) == n_cells
    assert np.array_equal(system.elem_table[system.elem_class], blocks)
    slots, n_int = decomp.local_slots, decomp.interior_by_sub.shape[1]
    n_loc, h = n_int + 4 * ratio, system.grid.h
    level = build_level_bddc(system, decomp, 1.0)
    assert sorted(sub for grp in level_groups(level) for sub in grp.subs) == list(range(decomp.n_sub))
    for got in level_groups(level):
        (sub,) = got.subs
        cells = decomp.cells_by_sub[sub]
        blocks, gauge = system.elem_table[system.elem_class[cells]], system.areas[cells]
        kkt = KktSystem(*coo_blocks(np.where(slots < n_int, slots, -1), blocks, h, n_int), gauge)
        assert got.kkt.dense == kkt.dense == dense
        if dense:
            assert np.array_equal(got.kkt.matrix(), kkt.matrix())
        else:
            m_got, m_ref = got.kkt.matrix(), kkt.matrix()
            for name in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(m_got, name), getattr(m_ref, name))
        mass, div = (m.toarray() for m in coo_blocks(slots, blocks, h, n_loc))
        a_f, b_ft = mass[n_int:], div[:, n_int:].T
        coupling = np.hstack([a_f[:, :n_int], b_ft])
        ext = -kkt.factorization.solve_leading(coupling, n_int + len(cells))
        schur = a_f[:, n_int:] + coupling @ ext.T
        # the group's faces of the pattern's condensation
        rows = (got.face_slots[:, None] * ratio + np.arange(ratio)).ravel()
        assert np.array_equal(got.ext, ext[rows])
        assert np.array_equal(got.schur, (0.5 * (schur + schur.T))[np.ix_(rows, rows)])


@pytest.mark.parametrize(
    "spec",
    [
        preset_specs("fig3-right")[0],
        # three materials on 27 x 27 cells: up to three cell patterns
        # share a set of present faces on level 1
        ExperimentSpec(levels=3, ratio=3, coeff="jump-right", k1=37.0, k3=0.05),
    ],
    ids=["fig3-right", "jump-right-L3"],
)
def test_face_operators_match_per_group_formula(spec, runs):
    # The level build gets the face operators of all groups with the same
    # present faces together; each group's must equal, bit for bit, those
    # of its own bordered face system inverted on its own.
    precond = runs.solver(spec).precond
    sets = [
        np.unique([grp.face_slots.tobytes() for grp in level_groups(level)], return_counts=True)[1]
        for level in precond.levels
    ]
    assert max(counts.max() for counts in sets) >= 2
    for level in precond.levels:
        ratio = level.decomp.face_dofs.shape[1]
        for grp in level_groups(level):
            n_f, n_faces = grp.n_face_dofs, grp.n_faces
            size = n_f + n_faces
            face_kkt = np.zeros((size, size))
            face_kkt[:n_f, :n_f] = grp.schur
            face_kkt[n_f:, :n_f] = np.repeat(np.eye(n_faces), ratio, axis=1) / ratio
            face_kkt[:n_f, n_f:] = face_kkt[n_f:, :n_f].T
            inv = Factorization(face_kkt).solve(np.eye(size))
            psi = np.ascontiguousarray(inv[:n_f, n_f:])
            assert np.array_equal(grp.dual, inv[:n_f, :n_f])
            assert np.array_equal(grp.psi, psi)
            assert np.array_equal(grp.coarse_elem, psi.T @ grp.schur @ psi)
        # each operator is stored once: the batches with one count of
        # present faces hold contiguous slices of one stack, one batch
        # after another, and an entry's operator is its row of them
        for _, same_count in groupby(level.batches, key=lambda batch: batch.face_slots.shape[1]):
            same_count = list(same_count)
            for name in ("ext", "schur", "dual", "psi", "coarse_elem"):
                stacks, offset = [getattr(batch, name) for batch in same_count], 0
                for stack in stacks:
                    assert stack.flags.c_contiguous and stack.base is not None
                    assert byte_offset(stack, stacks[0]) == offset
                    offset += stack.nbytes


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


def full_length_pcg(precond, level_number, u_star, tol):
    """Step 3 as PCG on all flux and pressure dofs of the level, with the general apply."""
    system = precond.levels[level_number - 1].system
    n_u, a_mat, b_mat = system.n_flux, system.A, system.B

    def operator(x):
        return np.concatenate([a_mat @ x[:n_u] + b_mat.T @ x[n_u:], b_mat @ x[:n_u]])

    def preconditioner(x):
        return np.concatenate(precond.apply(x[:n_u], level_number))

    rhs = np.concatenate([-(a_mat @ u_star), np.zeros(system.n_pressure)])
    return pcg(
        operator,
        preconditioner,
        rhs,
        tol=tol,
        defect_fn=lambda x, r: divergence_defect(system, x[:n_u]),
    )


@pytest.mark.parametrize("case", list(PREMISE_SPECS))
def test_step3_residuals_match_general_apply(case, runs, monkeypatch):
    # Step 3 iterates on face fluxes and per-subdomain values that stand for
    # the full-length vectors of PCG on [A B^T; B 0] with the general apply as
    # preconditioner; both runs must agree on every start level.  Round-off
    # of about 1e-13 of the right-hand side differs between the two, so
    # residuals are compared against the right-hand side and the Lanczos
    # coefficients to 1e-11 over the residual they were formed from: a
    # one-ulp perturbation of the full-length run's own preconditioner
    # output moves its late coefficients on fig3-right by 3e-9 relative.
    solver = runs.solver(PREMISE_SPECS[case])
    precond = solver.precond
    recorded = []

    def record(precond, level_number, u0_face, f, u_src, p_star, p_ext0, r_face, tol, maxit):
        out = step3_correction(precond, level_number, u0_face, f, u_src, p_star, p_ext0, r_face, tol, maxit)
        u_star = precond.levels[level_number - 1].extend(u0_face)[0] + u_src
        recorded.append((level_number, u_star, tol, *out))
        return out

    monkeypatch.setattr(nested_driver, "step3_correction", record)
    solver.solve()
    monkeypatch.undo()
    assert [rec[0] for rec in recorded] == list(range(len(precond.levels), 0, -1))
    for level_number, u_star, tol, u, p, report in recorded:
        x, ref = full_length_pcg(precond, level_number, u_star, tol)
        assert report.iterations == ref.iterations
        res, res_ref = np.array(report.rel_residuals), np.array(ref.rel_residuals)
        assert np.abs(res - res_ref).max() <= 1e-11
        before = np.concatenate([[1.0], res_ref[:-1]])
        for got, want, scale in (
            (report.alphas, ref.alphas, before),
            (report.betas, ref.betas, res_ref[: len(ref.betas)]),
            ([report.cond_estimate], [ref.cond_estimate], res_ref[-1:]),
        ):
            got, want = np.array(got), np.array(want)
            assert np.all(np.abs(got - want) / np.abs(want) * scale <= 1e-11)
        # step 3 returns the level flux, step 2's plus the correction
        n_u = len(u)
        assert rel_err(u - u_star, x[:n_u]) <= 1e-10
        assert rel_err(p, x[n_u:]) <= 1e-10


@pytest.mark.parametrize("case", ["fig3-right", "ratio16-L2"])
def test_face_divergence_defect_matches_extended_flux(case, runs, rng):
    # from net face fluxes and face Schur complements, as the step-3 monitor
    # computes it, against divergence_defect of the extended flux
    precond = runs.solver(PREMISE_SPECS[case]).precond
    for level in precond.levels:
        for _ in range(3):
            u_face = rng.standard_normal(level.decomp.face_dofs.size)
            ref = divergence_defect(level.system, level.extend(u_face)[0])
            assert abs(level.face_divergence_defect(u_face) - ref) <= 1e-12 * ref
            # the energy from the step-3 operator's face rows of (u_face, m),
            # and the direct product when that energy is not positive
            m = rng.standard_normal(level.decomp.n_sub)
            m_cells = np.empty(level.system.n_pressure)
            m_cells[level.decomp.cells_by_sub] = m[:, None]
            product = level.schur_product(u_face) + (level.system.B.T @ m_cells)[level.face_dofs]
            assert abs(level.face_divergence_defect(u_face, product, m) - ref) <= 1e-12 * ref
            no_energy = level.face_divergence_defect(u_face, np.zeros_like(u_face), 0 * m)
            assert abs(no_energy - ref) <= 1e-12 * ref
    assert level.face_divergence_defect(np.zeros(level.decomp.face_dofs.size)) == 0.0


def bincount_sum(n, index_rows, value_rows):
    """Reference sum of subdomain copies: one bincount over every group's rows."""
    idx = np.concatenate([i.ravel() for i in index_rows])
    values = np.concatenate([v.ravel() for v in value_rows])
    return np.bincount(idx, values, minlength=n).astype(float, copy=False)


@pytest.mark.parametrize("case", ["deep-r3", "jump-r3", "one-subdomain"])
def test_pair_sums_equal_bincount(case, runs, rng):
    # Each face dof and face has one copy on each of its two subdomains,
    # and their sum equals a bincount over all copies bit for bit.  The
    # groups' index and weight rows are their rows of the level's copy
    # layout.
    if case == "one-subdomain":
        precond = make_setup(3, 2, 3)[2]
    else:
        spec = ExperimentSpec(levels=5, ratio=3)
        if case == "jump-r3":
            spec = ExperimentSpec(levels=5, ratio=3, coeff="jump-right", k1=30.0, k3=0.05)
        precond = runs.solver(spec).precond
    for idx, level in enumerate(precond.levels):
        groups, n_face, n_faces = level_groups(level), level.decomp.face_dofs.size, level.decomp.n_faces
        assert np.array_equal(np.sort(level.dof_pairs.ravel()), np.arange(2 * n_face))
        assert np.array_equal(np.sort(level.face_pairs.ravel()), np.arange(2 * n_faces))
        layout = [copy_rows(level, grp) for grp in groups]
        face_pos = [c.face_pos for c in layout]
        u_face = rng.standard_normal(n_face)
        ref = bincount_sum(n_face, face_pos, [u_face[c.face_pos] @ grp.schur for grp, c in zip(groups, layout)])
        assert np.array_equal(level.schur_product(u_face), ref)
        copies = rng.standard_normal(level.copy_pos.size)
        ref = bincount_sum(n_face, [level.copy_pos], [level.copy_w * copies])
        assert np.array_equal(_face_average(level, copies), ref)
        coeffs = rng.standard_normal(level.copy_faces.size)
        ref = bincount_sum(n_faces, [level.copy_faces], [coeffs])
        assert np.array_equal(level.face_sum(coeffs), ref)
        # A level apply: restriction, then averaging of the dual values plus
        # the coarse correction, per group.
        r_face = rng.standard_normal(n_face)
        weighted = [c.w * r_face[c.face_pos] for c in layout]
        face_ids = [c.face_ids for c in layout]
        r_next = bincount_sum(n_faces, face_ids, [rows @ grp.psi for grp, rows in zip(groups, weighted)])
        if idx == len(precond.levels) - 1:
            u_next, p_next, _ = precond.top_kkt.solve(rhs_flux=r_next)
        else:
            u_next, p_next = precond.apply(r_next, idx + 2)
        values = [
            c.w * (rows @ grp.dual + u_next[c.face_ids] @ grp.psi.T)
            for grp, c, rows in zip(groups, layout, weighted)
        ]
        u_face, p_coarse = precond._apply(idx, r_face)
        assert np.array_equal(u_face, bincount_sum(n_face, face_pos, values))
        assert np.array_equal(p_coarse, p_next)
    if case == "one-subdomain":
        assert (n_face, n_faces) == (0, 0)


WORKSPACE_SPECS = {
    "deep-r3": ExperimentSpec(levels=5, ratio=3),
    "jump-r3": ExperimentSpec(levels=5, ratio=3, coeff="jump-right", k1=30.0, k3=0.05),
    "ratio16-sparse": ExperimentSpec(levels=2, ratio=16, base=2),
}
WORKSPACE = ("dof_in", "dof_out", "face_in", "rows", "sol", "result_rows")


def byte_offset(view, buf) -> int:
    return view.__array_interface__["data"][0] - buf.__array_interface__["data"][0]


@pytest.mark.parametrize("case", [*WORKSPACE_SPECS, "one-subdomain"])
def test_group_views_tile_the_level_workspace(case, runs):
    # Each batch's views of a workspace buffer follow one another in batch
    # order with no gap or overlap and cover the buffer: a product written
    # into an output view lands in its rows of the level's copy layout and
    # nowhere else.  The gathers run with mode="clip", which
    # does not check indices, so every index must lie in its source: also
    # the index maps into the result block, which only the levels that the
    # recursion reaches hold.
    if case == "one-subdomain":
        precond = make_setup(3, 2, 3)[2]
    else:
        precond = runs.solver(WORKSPACE_SPECS[case]).precond
    assert not hasattr(precond.levels[0], "result_at_copies")
    for idx, level in enumerate(precond.levels):
        system, decomp = level.system, level.decomp
        # The recursion's levels get their result block at build; the first
        # level gets one from its first pre-correction of a residual.
        if level.result is None:
            assert idx == 0
            interior_correction(level, np.zeros(system.n_flux))
        assert level.dof_in.size == level.dof_out.size == level.copy_pos.size
        assert level.face_in.size == level.copy_faces.size
        assert level.rows.shape == level.idx_int.shape and level.sol.shape[0] == decomp.n_sub
        for name in WORKSPACE:
            buf, offset = getattr(level, name), 0
            for batch in level.batches:
                view = getattr(batch, name)
                assert view.flags.c_contiguous and view.base is not None
                assert view.size == 0 or byte_offset(view, buf) == offset
                offset += view.nbytes
            assert offset == buf.nbytes
        # Buffers that share memory serve passes one at a time; those that
        # one pass uses together do not overlap.
        assert np.shares_memory(level.rows, level.dof_in) or level.dof_in.size == 0
        assert np.shares_memory(level.dof_out, level.sol) or level.dof_out.size == 0
        pairs = [("dof_in", "dof_out"), ("dof_in", "sol"), ("rows", "sol"), ("dof_out", "face_in")]
        pairs += [("result", "dof_in"), ("result", "sol")]
        for one, other in pairs:
            assert not np.shares_memory(getattr(level, one), getattr(level, other))
        assert level.result.size == decomp.face_dofs.size + level.sol.size
        maps = []
        if idx:
            # one entry per face copy of the finer level, one per cell
            assert level.result_at_copies.shape == precond.levels[idx - 1].copy_faces.shape
            assert np.unique(level.result_at_cells).size == system.n_pressure
            maps = [(level.result_at_copies, level.result.size), (level.result_at_cells, level.result.size)]
        for index, n in maps + [
            (level.copy_pos, decomp.face_dofs.size),
            (level.copy_faces, decomp.n_faces),
            (level.idx_int, system.n_flux),
            (level.idx_cells, system.n_pressure),
            (level.dof_pairs, level.copy_pos.size),
            (level.face_pairs, level.copy_faces.size),
        ]:
            assert index.size == 0 or (index.min() >= 0 and index.max() < n)


def level_passes(precond, idx, rng):
    """Every level pass on level ``idx + 1`` with fresh random data: name -> outputs."""
    level = precond.levels[idx]
    n_face, n_flux = level.decomp.face_dofs.size, level.system.n_flux
    return {
        "apply": precond.apply(rng.standard_normal(n_flux), idx + 1),
        "_apply": precond._apply(idx, rng.standard_normal(n_face)),
        "schur_product": (level.schur_product(rng.standard_normal(n_face)),),
        "net_flux": (level.net_flux(rng.standard_normal(n_face)),),
        "extend": level.extend(rng.standard_normal(n_face)),
        "extend_pressure": (level.extend_pressure(rng.standard_normal(n_face)),),
        "interior_correction": interior_correction(level, rng.standard_normal(n_flux)),
        "interior_correction rhs_div": interior_correction(level, rhs_div=rng.standard_normal(level.system.n_pressure)),
        "prolong_average": (prolong_average(level, rng.standard_normal(level.decomp.n_faces)),),
    }


@pytest.mark.parametrize("case", list(WORKSPACE_SPECS))
def test_later_calls_leave_earlier_outputs_alone(case, runs, rng):
    # Every pass returns new arrays: a later call on any level, which
    # reuses the same workspace, changes nothing a former call returned.
    # The recursion leaves each level's output in that level's result
    # block, which later calls overwrite: no output is a view of one.
    precond = runs.solver(WORKSPACE_SPECS[case]).precond
    first = [level_passes(precond, idx, rng) for idx in range(len(precond.levels))]
    blocks = [level.result for level in precond.levels]
    kept = [{name: [a.copy() for a in out] for name, out in passes.items()} for passes in first]
    for idx in range(len(precond.levels)):
        level_passes(precond, idx, rng)
    for idx, (passes, copies) in enumerate(zip(first, kept)):
        level = precond.levels[idx]
        for name, outputs in passes.items():
            for got, ref in zip(outputs, copies[name]):
                assert got.tobytes() == ref.tobytes(), (idx, name)
                for buf in WORKSPACE:
                    assert not np.shares_memory(got, getattr(level, buf)), (idx, name, buf)
                assert not any(np.shares_memory(got, block) for block in blocks), (idx, name, "result")


APPLY_SPECS = {**WORKSPACE_SPECS, "one-subdomain": ExperimentSpec(levels=3, ratio=3, base=1)}


@pytest.mark.parametrize("case", list(APPLY_SPECS))
def test_apply_equals_its_composition_from_every_level(case, runs, rng):
    # apply(r, k) runs the recursion's level pass (pre-correction into the
    # result block, _apply, extension, merge) and scatters the block.  It
    # equals, bit for bit, the composition of the public passes: the
    # interior correction, _apply on the face rows plus their face
    # residual, the extension, and the merge, flux ext + ic and pressure
    # (ic + coarse) + ext.  "one-subdomain" recurses into a level of one
    # subdomain, which has no faces.
    precond = runs.solver(APPLY_SPECS[case]).precond
    for idx, level in enumerate(precond.levels):
        r = rng.standard_normal(level.system.n_flux)
        u_int, p, r_face = interior_correction(level, r)
        u_face, p_coarse = precond._apply(idx, r[level.face_dofs] + r_face)
        u, p_ext = level.extend(u_face)
        u += u_int
        p[level.decomp.cells_by_sub] += p_coarse[:, None]
        p += p_ext
        got = precond.apply(r, idx + 1)
        assert got[0].tobytes() == u.tobytes() and got[1].tobytes() == p.tobytes(), idx
    if case == "one-subdomain":
        assert precond.levels[-1].decomp.n_sub == 1 and precond.levels[-1].face_dofs.size == 0


def test_step3_operator_forms_net_flux_in_the_schur_pass(runs, rng, monkeypatch):
    # deep-r3's step-3 operators, one per level, each with groups of two,
    # three and four present faces: the face rows equal S u plus the face
    # rows of the assembled B^T times m spread onto the cells, bit for bit,
    # and the subdomain rows hold the net flux, net_flux(u), which agrees
    # with B's face columns summed over each subdomain's cells to round-off.
    solver = runs.solver(WORKSPACE_SPECS["deep-r3"])
    operators = []

    def record(operator, preconditioner, rhs, **kwargs):
        operators.append((operator, len(rhs)))
        return pcg(operator, preconditioner, rhs, **kwargs)

    monkeypatch.setattr(nested_driver, "pcg", record)
    solver.solve()
    assert len(operators) == len(solver.precond.levels)
    for level, (operator, n) in zip(reversed(solver.precond.levels), operators):
        assert {grp.n_faces for grp in level_groups(level)} == {2, 3, 4}
        n_face, n_sub = level.face_dofs.size, level.decomp.n_sub
        assert n == n_face + n_sub + 2
        x = rng.standard_normal(n)
        u, m = x[:n_face], x[n_face : n_face + n_sub]
        out = operator(x)
        cells, b = level.decomp.cells_by_sub, level.system.B
        m_cells = np.empty(level.system.n_pressure)
        m_cells[cells] = m[:, None]
        assert out[:n_face].tobytes() == (level.schur_product(u) + (b.T @ m_cells)[level.face_dofs]).tobytes()
        u_full = np.zeros(level.system.n_flux)
        u_full[level.face_dofs] = u
        net = (b @ u_full)[cells].sum(axis=1)
        assert np.abs(out[n_face : n_face + n_sub] - net).max() <= 1e-14 * np.abs(net).max()
        assert out[n_face : n_face + n_sub].tobytes() == level.net_flux(u).tobytes()
        assert (out[-2], out[-1]) == (x[-1], 0.0)


def test_interleaved_solvers_match_sequential_solves():
    # Two solvers whose solves take turns, one preconditioner apply each,
    # in two threads of which only one runs at a time: each solver keeps
    # its own workspace, so both results equal their sequential solves bit
    # for bit.  The two hierarchies have the same shapes, so a buffer shared
    # between solvers would go unnoticed but for the results.
    specs = (
        ExperimentSpec(levels=4, ratio=3, coeff="jump-right", k1=37.0, k3=0.05),
        ExperimentSpec(levels=4, ratio=3),
    )
    sequential = [NestedSolver(spec).solve() for spec in specs]
    solvers = [NestedSolver(spec) for spec in specs]
    turns, done = [threading.Semaphore(0), threading.Semaphore(0)], [False, False]
    results, errors, handovers = [None, None], [], [0, 0]

    def take_turns(k, apply):
        def traced(idx, r_face):
            out = apply(idx, r_face)
            if not done[1 - k]:
                handovers[k] += 1
                turns[1 - k].release()
                turns[k].acquire()
            return out

        return traced

    def run(k):
        turns[k].acquire()
        try:
            results[k] = solvers[k].solve()
        except Exception as exc:  # re-raised in the main thread
            errors.append(exc)
        finally:
            done[k] = True
            turns[1 - k].release()

    for k, solver in enumerate(solvers):
        solver.precond._apply = take_turns(k, solver.precond._apply)
    threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
    for thread in threads:
        thread.start()
    turns[0].release()
    for thread in threads:
        thread.join(timeout=120)
    assert not errors, errors
    assert min(handovers) > 10
    for got, ref in zip(results, sequential):
        assert got.flux.tobytes() == ref.flux.tobytes()
        assert got.pressure.tobytes() == ref.pressure.tobytes()
        assert [row.csv() for row in got.rows] == [row.csv() for row in ref.rows]


def test_step3_products_do_not_grow_with_iterations(monkeypatch):
    # Level 1 of a three-level hierarchy: step 3 checks its returned flux
    # with the grid's divergence and the energy of its face values, so it
    # reads neither level's assembled A or B, and the harmonic extension
    # of its face values is formed once, after PCG, whatever the
    # iteration count.
    precond = NestedSolver(ExperimentSpec(levels=3, ratio=3)).precond
    level, coarse_level = precond.levels
    system = level.system
    # Face values that match the source's subdomain totals, as the nested
    # solve hands them down: the exact coarse flux, prolonged.
    coarse = dataclasses.replace(
        precond.levels[1].system, g=step1_coarse_rhs(level.decomp, system.g)
    )
    u0_face = prolong_average(level, oracle_direct_solve(coarse)[0])
    start = step2_subdomain_solve(level, u0_face, system.g)
    reads, extensions = [], []
    for name in ("A", "B"):
        lazy = Rt0System.__dict__[name]
        counted = property(lambda self, lazy=lazy: reads.append(self) or lazy.__get__(self, Rt0System))
        monkeypatch.setattr(Rt0System, name, counted)
    extend = level.extend

    def count_extend(u_face):
        extensions.append(u_face.shape)
        return extend(u_face)

    monkeypatch.setattr(level, "extend", count_extend)
    counts = {}
    for tol in (1e-2, 1e-10):
        reads.clear()
        extensions.clear()
        report = step3_correction(precond, 1, u0_face, system.g, *start, tol=tol)[2]
        counts[report.iterations] = (
            sum(read is system for read in reads),
            len(extensions),
            sum(read is coarse_level.system for read in reads),
        )
    assert len(counts) == 2
    assert set(counts.values()) == {(0, 1, 0)}


def test_step3_vectors_hold_face_and_subdomain_entries(runs, monkeypatch):
    # wide-r16 (ratio 16, L=2): the step-3 PCG runs on one entry per face
    # dof and per subdomain, plus two slots for the coefficient of the
    # gauged step-2 pressure, not on cell-sized vectors.
    solver = runs.solver(PREMISE_SPECS["ratio16-L2"])
    lengths = []

    def record(operator, preconditioner, rhs, **kwargs):
        lengths.append(len(rhs))
        return pcg(operator, preconditioner, rhs, **kwargs)

    monkeypatch.setattr(nested_driver, "pcg", record)
    solver.solve()
    decomp = solver.precond.levels[0].decomp
    assert (decomp.face_dofs.size, decomp.n_sub) == (7680, 256)
    assert lengths == [7680 + 256 + 2]


@pytest.mark.parametrize("case", ["fig3-right", "ratio16-sparse"])
def test_interior_groups_share_divergence_block(case, runs):
    if case == "fig3-right":
        precond = runs.solver(preset_specs("fig3-right")[0]).precond
    else:
        # 2 x 2 subdomains with one coefficient each: four sparse interior KKTs
        k = np.kron([[1.0, 10.0], [100.0, 1000.0]], np.ones((16, 16))).ravel()
        precond = make_setup(32, 2, 16, k=k)[2]
    kkts_by_level = [
        list({id(grp.kkt): grp.kkt for grp in level_groups(level)}.values()) for level in precond.levels
    ]
    assert max(len(kkts) for kkts in kkts_by_level) > 1
    for level, kkts in zip(precond.levels, kkts_by_level):
        b_int = dense_block(kkts[0].b_block)
        for kkt in kkts[1:]:
            assert np.array_equal(dense_block(kkt.b_block), b_int)
        # the assembled B on every subdomain's cells and interior dofs
        decomp, b = level.decomp, level.system.B
        for cells, interior in zip(decomp.cells_by_sub, decomp.interior_by_sub):
            assert np.array_equal(b[cells][:, interior].toarray(), b_int)


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
    blocks = system.elem_table[system.elem_class]
    blocks[decomp.cells_by_sub[sub]] = 0.0
    system = Rt0System(system.grid, blocks, np.arange(system.grid.n_cells), system.g)
    with pytest.raises(SingularMatrixError):
        build_level_bddc(system, decomp, 1.0)


def test_redundant_class_table_loses_reuse_only(monkeypatch):
    # A class table with every row twice, the cells split at random between
    # the copies, and an unused row.  Built by the constructor, directly or
    # through dataclasses.replace, it is the canonical table (its A and B:
    # test_redundant_table_assembles_as_canonical_form), so cells of equal
    # blocks share one class: the preconditioner factors as often and
    # applies the same, bit for bit.
    mesh = build_mesh(27, 27)
    k = np.where(np.arange(mesh.n_cells) % 27 < 10, 30.0, 1.0)
    system = assemble_rt0(mesh, CoefficientField(k), source="corner")
    rng = np.random.default_rng(3)
    n = len(system.elem_table)
    table = np.concatenate([system.elem_table, system.elem_table, rng.standard_normal((1, 4, 4))])
    cls = system.elem_class + n * rng.integers(0, 2, mesh.n_cells)
    assembled = Rt0System(mesh, table, cls, system.g)
    redundant = dataclasses.replace(system, elem_table=table, elem_class=cls)
    for built in (assembled, redundant):
        assert np.array_equal(built.elem_table, system.elem_table)
        assert np.array_equal(built.elem_class, system.elem_class)

    factor = Factorization.__init__
    made = []

    def count(self, matrix):
        made.append(1)
        factor(self, matrix)

    monkeypatch.setattr(Factorization, "__init__", count)
    preconds, counts = [], []
    for case in (system, assembled, redundant):
        made.clear()
        preconds.append(MultilevelPreconditioner.build(case, 3, 3, 1.0))
        counts.append(len(made))
    assert counts[0] == counts[1] == counts[2]
    r = rng.standard_normal(system.n_flux)
    u, p = preconds[0].apply(r)
    for precond in preconds[1:]:
        level, ref = precond.levels[0], preconds[0].levels[0]
        assert np.array_equal(level.copy_w[level.dof_pairs], ref.copy_w[ref.dof_pairs])
        u_other, p_other = precond.apply(r)
        assert u_other.tobytes() == u.tobytes()
        assert p_other.tobytes() == p.tobytes()


# Set-up specs whose every factorization is dense, with their counts: one
# interior KKT per cell pattern, one bordered face system per group, the top.
DENSE_SETUPS = {
    "deep-r3": (ExperimentSpec(levels=5, ratio=3), 65),
    "jump-r3": (ExperimentSpec(levels=5, ratio=3, coeff="jump-right", k1=37.0, k3=0.05), 117),
}


@pytest.mark.parametrize("case", list(DENSE_SETUPS))
def test_set_up_inverts_each_dense_system_once(case, monkeypatch):
    # Each dense factorization forms its inverse by one getri on its getrf
    # LU, and set-up reads every inverse from its factorization: no solve
    # on an identity, so no Factorization.solve call at all.
    spec, want = DENSE_SETUPS[case]
    calls = {"dgetrf": 0, "dgetri": 0, "solve": 0}

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return call

    for name in ("dgetrf", "dgetri"):
        monkeypatch.setattr(saddle_core, name, counted(name, getattr(saddle_core, name)))
    monkeypatch.setattr(Factorization, "solve", counted("solve", Factorization.solve))
    NestedSolver(spec)
    assert calls == {"dgetrf": want, "dgetri": want, "solve": 0}


@pytest.mark.parametrize("case", [*DENSE_SETUPS, "one-subdomain"])
def test_coarse_tables_match_a_per_group_fill(case, runs, monkeypatch):
    # assemble_coarse_problem fills the coarse element table and classes one
    # batch at a time; before the Rt0System constructor canonicalises them,
    # they are the per-group fill's, bit for bit, on every level.
    if case == "one-subdomain":
        precond = make_setup(3, 2, 3)[2]
    else:
        precond = runs.solver(DENSE_SETUPS[case][0]).precond
    monkeypatch.setattr(bddc, "Rt0System", lambda grid, table, cls: (table, cls))
    for level in precond.levels:
        table = np.zeros((len(level_groups(level)), 4, 4))
        classes = np.empty(level.decomp.n_sub, dtype=np.intp)
        for k, grp in enumerate(level_groups(level)):
            table[k][np.ix_(grp.face_slots, grp.face_slots)] = grp.coarse_elem
            classes[grp.subs] = k
        got_table, got_classes = assemble_coarse_problem(level)
        assert got_table.tobytes() == table.tobytes()
        assert got_classes.tobytes() == classes.tobytes()


def test_face_operators_above_dense_limit_match_dense(two_level_9x9, monkeypatch):
    # Above DENSE_LIMIT (the bordered face systems from ratio 150 on) SuperLU
    # factors the face systems and their inverses come from solves on the
    # identity: the operators are the dense ones up to round-off.
    system, decomps, precond = two_level_9x9
    monkeypatch.setattr(saddle_core, "DENSE_LIMIT", 5)  # below every face system
    level = build_level_bddc(system, decomps[0], 1.0)
    assert not any(grp.kkt.factorization.dense for grp in level_groups(level))
    for batch, ref in zip(level.batches, precond.levels[0].batches, strict=True):
        for name in ("ext", "schur", "dual", "psi", "coarse_elem"):
            got, want = getattr(batch, name), getattr(ref, name)
            assert np.allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


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


def reference_subdomain(system, decomp, w_lo, s):
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
    vals = system.elem_table[system.elem_class[cells]][pair]
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
        w[pos] = w_lo[f] if s == sub_lo else 1.0 - w_lo[f]

    gauge = system.areas[cells]
    return {
        "local": local,
        "int_pos": int_pos,
        "face_pos": np.concatenate(face_cols),
        "gauge": gauge,
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


def lexsort_groups(keys):
    """Rows of ``keys`` grouped by a lexsort of their bit patterns: ascending members, groups by first row."""
    first, label = _unique_rows(keys)
    label = np.argsort(np.argsort(first))[label]
    members = np.argsort(label, kind="stable")
    return np.split(members, np.cumsum(np.bincount(label))[:-1])


def by_shape(members, present):
    """Groups ``members`` in the level's order: present-face count descending, member count, first member."""
    return sorted(members, key=lambda m: (-np.count_nonzero(present[m[0]]), len(m), m[0]))


def scattered_copy_pairs(n, pos, high):
    """Positions of the lower and the higher copy of each of ``n`` entries, by one scatter."""
    pairs = np.empty(2 * n, dtype=np.intp)
    pairs[high * n + pos] = np.arange(pos.size)
    return pairs.reshape(2, n)


@pytest.mark.parametrize(
    "spec",
    [
        ExperimentSpec(levels=5, ratio=3),
        ExperimentSpec(levels=2, ratio=16),
        ExperimentSpec(levels=5, ratio=3, coeff="jump-right", k1=37.0, k3=0.05),
    ],
    ids=["deep-r3", "wide-r16", "jump-right-L5"],
)
def test_copy_layout_matches_lexsort_and_scatter_reference(spec, runs):
    # A level groups its subdomains by one integer key per subdomain and
    # lays out its copies as templates; the groups and every copy array are
    # those of a lexsort over (present faces, cell classes) rows, in the
    # level's order of shapes (by_shape), and of a scatter per copy, bit
    # for bit, on every level.
    for level in runs.solver(spec).precond.levels:
        system, decomp = level.system, level.decomp
        ratio = decomp.face_dofs.shape[1]
        present = decomp.faces_by_sub >= 0
        keys = np.hstack([present, system.elem_class[decomp.cells_by_sub]])
        members = by_shape(lexsort_groups(keys), present)
        assert [grp.subs.tolist() for grp in level_groups(level)] == [m.tolist() for m in members]
        order = np.concatenate(members)
        live = present[order]
        copy_faces = decomp.faces_by_sub[order][live]
        high = np.isin(np.nonzero(live)[1], (SLOT_LEFT, SLOT_BOTTOM))
        w_lo = edge_sides_weights(decomp, system.elem_table, system.elem_class)[copy_faces]
        copy_pos = (copy_faces[:, None] * ratio + np.arange(ratio)).ravel()
        want = {
            "order": order,
            "copy_faces": copy_faces,
            "copy_w": np.repeat(np.where(high, 1.0 - w_lo, w_lo), ratio),
            "face_pairs": scattered_copy_pairs(decomp.n_faces, copy_faces, high),
            "dof_pairs": scattered_copy_pairs(decomp.face_dofs.size, copy_pos, np.repeat(high, ratio)),
        }
        for name, value in want.items():
            got = getattr(level, name)
            assert got.dtype == value.dtype and got.shape == value.shape, name
            assert got.tobytes() == value.tobytes(), name


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
        w_lo = compute_weights(level.decomp, level.system, 1.0)
        refs = [
            reference_subdomain(level.system, level.decomp, w_lo, s)
            for s in range(level.decomp.n_sub)
        ]
        # grouping by each member's own assembled blocks: same members, in
        # the level's order of shapes
        present = level.decomp.faces_by_sub >= 0
        assert [list(g.subs) for g in level_groups(level)] == by_shape(
            _group_by(ref["delta_key"] for ref in refs), present
        )
        # subdomains share an interior KKT object exactly when their own
        # interior blocks are equal: one factorization per interior key,
        # listed by first member
        by_kkt: dict = {}
        for grp in level_groups(level):
            by_kkt.setdefault(id(grp.kkt), []).extend(grp.subs)
        assert sorted(sorted(subs) for subs in by_kkt.values()) == _group_by(
            ref["interior_key"] for ref in refs
        )
        # every member's own interior blocks equal its group's, bit for bit,
        # and every member's index rows and weights match its own
        for grp in level_groups(level):
            blocks, copies = _bytes_key(grp.kkt.a_block, grp.kkt.b_block), copy_rows(level, grp)
            for row, s in enumerate(grp.subs):
                ref = refs[s]
                local = ref["local"]
                assert _bytes_key(*ref["interior_blocks"]) == blocks
                assert np.array_equal(grp.idx_cells[row], level.decomp.cells_by_sub[s])
                assert np.array_equal(grp.idx_int[row], local[ref["int_pos"]])
                assert np.array_equal(copies.idx_face[row], local[ref["face_pos"]])
                assert np.array_equal(copies.face_ids[row], ref["face_ids"])
                assert np.array_equal(copies.w[row], ref["w"][ref["face_pos"]])
            # the group's face operators from the first member's own blocks
            ref = refs[grp.subs[0]]
            check_face_operators(
                grp, *ref["delta_blocks"], ref["gauge"], ref["int_pos"], ref["face_pos"], 1e-12
            )


# Each level runs its passes over batches: runs of adjacent groups with one
# count of present faces and one member count, whose operators are stacks.
BATCH_SPECS = {
    "deep-r3": ExperimentSpec(levels=5, ratio=3),
    "jump-right-L5": ExperimentSpec(levels=5, ratio=3, coeff="jump-right", k1=37.0, k3=0.05),
    "ratio16-sparse": ExperimentSpec(levels=2, ratio=16, base=2),
    # SuperLU's path with three cell patterns among one batch's four
    # entries, so each entry must be solved with its own KKT
    "ratio16-jump": ExperimentSpec(levels=2, ratio=16, base=2, coeff="jump-right", k1=37.0, k3=0.05),
}


def batch_shape(level, batch):
    # the members' counts of present faces and the entries' member count
    present = level.decomp.faces_by_sub[level.order[batch.span]] >= 0
    return {(int(n), batch.n_members) for n in np.count_nonzero(present, axis=1)}


@pytest.mark.parametrize(
    "case, counts",
    # constant k: interior, edge and corner groups; jump-right: two cell
    # patterns of different member counts among the interior and the edge
    # groups above the coarsest level; ratio16-sparse and ratio16-jump:
    # four one-member corner groups
    [("deep-r3", [3, 3, 3, 3]), ("jump-right-L5", [5, 5, 5, 3]), ("ratio16-sparse", [1]), ("ratio16-jump", [1])],
)
def test_batches_tile_groups_by_shape(case, counts, runs):
    # The batches hold the level's subdomain rows in order, each row once,
    # in entries of their member count; the members of a batch share their
    # count of present faces, the members of an entry their present
    # slots, and two adjacent batches differ in the count or the member
    # count.
    precond = runs.solver(BATCH_SPECS[case]).precond
    assert [len(level.batches) for level in precond.levels] == counts
    for level in precond.levels:
        stop = 0
        for batch in level.batches:
            assert batch.span.start == stop and batch.span.step is None
            stop = batch.span.stop
            assert stop - batch.span.start == len(batch.kkts) * batch.n_members
        assert stop == level.decomp.n_sub
        present = level.decomp.faces_by_sub >= 0
        subs = [grp.subs.tolist() for grp in level_groups(level)]
        assert subs == by_shape(subs, present)
        for grp in level_groups(level):
            assert np.array_equal(np.nonzero(present[grp.subs])[1], np.tile(grp.face_slots, len(grp.subs)))
        for batch in level.batches:
            assert len(batch_shape(level, batch)) == 1
            assert {len(getattr(batch, name)) for name in BATCH_STACKS} == {len(batch.kkts)}
            # stacked interior solves in the dense size class, SuperLU above
            assert (batch.corner is None) == case.startswith("ratio16")
        for one, other in zip(level.batches, level.batches[1:]):
            assert batch_shape(level, one) != batch_shape(level, other)


@pytest.mark.parametrize("case", list(BATCH_SPECS))
def test_each_pass_makes_one_matmul_per_batch_and_product(case, runs, rng, monkeypatch):
    # A level pass multiplies each batch by each of its operators once:
    # the extensions, the Schur product and the prolongation one product
    # per batch, the pre-correction two in the dense size class (the
    # stacked interior solves and the face residual) and one above it,
    # _apply three (dual values, restriction, coarse correction) plus the
    # coarser levels' passes, and apply its pre-correction, _apply and the
    # extension.
    precond = runs.solver(BATCH_SPECS[case]).precond
    levels, calls, matmul = precond.levels, [], np.matmul

    def counted(*args, **kwargs):
        calls.append(args[1].shape)
        return matmul(*args, **kwargs)

    def count(fn, *args):
        calls.clear()
        fn(*args)
        return len(calls)

    monkeypatch.setattr(np, "matmul", counted)
    n_batches = [len(level.batches) for level in levels]
    pre = [sum(1 + (batch.corner is not None) for batch in level.batches) for level in levels]
    descend = [0] * (len(levels) + 1)
    for idx in reversed(range(len(levels))):
        descend[idx] = pre[idx] + 4 * n_batches[idx] + descend[idx + 1]
    for idx, level in enumerate(levels):
        n_face, n_flux = level.decomp.face_dofs.size, level.system.n_flux
        u_face = rng.standard_normal(n_face)
        assert count(level.extend, u_face) == n_batches[idx]
        assert count(level.extend_pressure, u_face) == n_batches[idx]
        assert count(level.schur_product, u_face) == n_batches[idx]
        assert count(prolong_average, level, rng.standard_normal(level.decomp.n_faces)) == n_batches[idx]
        assert count(interior_correction, level, rng.standard_normal(n_flux)) == pre[idx]
        assert count(precond._apply, idx, u_face) == 3 * n_batches[idx] + descend[idx + 1]
        assert count(precond.apply, rng.standard_normal(n_flux), idx + 1) == descend[idx]


def group_interior_solves(level, r, rhs_div):
    """``interior_correction(level, r, rhs_div)`` by a loop over the level's groups.

    Given ``rhs_div`` alone, only the members whose data is nonzero are
    solved.  Each group solves its rows of data and multiplies them by its
    extension rows; each face dof's copies are summed by ``bincount``.
    """
    system, n_face = level.system, level.decomp.face_dofs.size
    u, p, face_pos, copies = np.zeros(system.n_flux), np.zeros(system.n_pressure), [], []
    for grp in level_groups(level):
        live = np.ones(len(grp.subs), dtype=bool)
        if r is None:
            live = np.any(rhs_div[grp.idx_cells], axis=1)
        idx_int, idx_cells = grp.idx_int[live], grp.idx_cells[live]
        rows = np.zeros(idx_int.shape) if r is None else r[idx_int]
        if rhs_div is not None:
            rows = np.hstack([rows, rhs_div[idx_cells]])
        out = grp.kkt.factorization.solve_leading(rows, grp.n_int + grp.n_cells)
        u[idx_int], p[idx_cells] = out[:, : grp.n_int], out[:, grp.n_int :]
        face_pos.append(copy_rows(level, grp).face_pos[live])
        copies.append(np.matmul(rows, grp.ext[:, : rows.shape[1]].T))
    return u, p, bincount_sum(n_face, face_pos, copies)


def group_extension(level, u_face):
    """``level.extend(u_face)`` by a loop over the level's groups."""
    u, p = np.zeros(level.system.n_flux), np.empty(level.system.n_pressure)
    u[level.face_dofs] = u_face
    for grp in level_groups(level):
        rows = np.matmul(u_face[copy_rows(level, grp).face_pos], grp.ext)
        u[grp.idx_int], p[grp.idx_cells] = rows[:, : grp.n_int], rows[:, grp.n_int :]
    return u, p


def group_apply(precond, idx, r_face):
    """``precond._apply(idx, r_face)`` by a loop over the groups of level ``idx + 1``.

    The coarser levels' part comes from ``apply`` on level ``idx + 2``,
    or from the top solve.
    """
    level = precond.levels[idx]
    n_face, n_faces = level.decomp.face_dofs.size, level.decomp.n_faces
    groups = level_groups(level)
    layout = [copy_rows(level, grp) for grp in groups]
    weighted = [c.w * r_face[c.face_pos] for c in layout]
    restricted = [np.matmul(rows, grp.psi) for grp, rows in zip(groups, weighted)]
    r_next = bincount_sum(n_faces, [c.face_ids for c in layout], restricted)
    if idx == len(precond.levels) - 1:
        u_next, p_next, _ = precond.top_kkt.solve(rhs_flux=r_next)
    else:
        u_next, p_next = precond.apply(r_next, idx + 2)
    values = [
        c.w * (np.matmul(rows, grp.dual) + np.matmul(u_next[c.face_ids], grp.psi.T))
        for grp, c, rows in zip(groups, layout, weighted)
    ]
    return bincount_sum(n_face, [c.face_pos for c in layout], values), p_next


@pytest.mark.parametrize("case", list(BATCH_SPECS))
def test_batched_passes_equal_per_group_loop(case, runs, rng):
    # Every level pass equals, bit for bit, a loop of products over the
    # level's groups, one group at a time.
    precond = runs.solver(BATCH_SPECS[case]).precond
    for idx, level in enumerate(precond.levels):
        system, decomp = level.system, level.decomp
        n_face, n_flux = decomp.face_dofs.size, system.n_flux
        groups = level_groups(level)
        layout = [copy_rows(level, grp) for grp in groups]
        u_face = rng.standard_normal(n_face)
        got, want = {}, {}
        got["extend"], want["extend"] = level.extend(u_face), group_extension(level, u_face)
        got["extend_pressure"] = (level.extend_pressure(u_face),)
        p = np.empty(system.n_pressure)
        for grp, c in zip(groups, layout):
            p[grp.idx_cells] = np.matmul(u_face[c.face_pos], grp.ext[:, grp.n_int :])
        want["extend_pressure"] = (p,)
        got["schur_product"] = (level.schur_product(u_face),)
        schur = [np.matmul(u_face[c.face_pos], grp.schur) for grp, c in zip(groups, layout)]
        want["schur_product"] = (bincount_sum(n_face, [c.face_pos for c in layout], schur),)
        u_coarse = rng.standard_normal(decomp.n_faces)
        got["prolong_average"] = (prolong_average(level, u_coarse),)
        basis = [c.w * np.matmul(u_coarse[c.face_ids], grp.psi.T) for grp, c in zip(groups, layout)]
        want["prolong_average"] = (bincount_sum(n_face, [c.face_pos for c in layout], basis),)
        # divergence data on the cells of a few subdomains: the others are
        # not solved, and groups without such a member are skipped
        r, div = rng.standard_normal(n_flux), np.zeros(system.n_pressure)
        few = decomp.cells_by_sub[rng.choice(decomp.n_sub, size=min(3, decomp.n_sub), replace=False)]
        div[few] = rng.standard_normal(few.shape)
        modes = {"r": (r, None), "rhs_div": (None, div), "both": (r, rng.standard_normal(system.n_pressure))}
        for mode, data in modes.items():
            name = f"interior_correction {mode}"
            got[name], want[name] = interior_correction(level, *data), group_interior_solves(level, *data)
        got["_apply"], want["_apply"] = precond._apply(idx, u_face), group_apply(precond, idx, u_face)
        # apply: pre-correction, _apply of the face residual, extension
        u_ic, p_ic, r_face = group_interior_solves(level, r, None)
        u_face, p_coarse = group_apply(precond, idx, r[level.face_dofs] + r_face)
        u_ext, p_ext = group_extension(level, u_face)
        sub_of_cell = np.empty(system.n_pressure, dtype=np.intp)
        sub_of_cell[decomp.cells_by_sub] = np.arange(decomp.n_sub)[:, None]
        got["apply"] = precond.apply(r, idx + 1)
        want["apply"] = (u_ic + u_ext, (p_ic + p_coarse[sub_of_cell]) + p_ext)
        for name, outputs in want.items():
            for one, other in zip(got[name], outputs):
                assert np.array_equal(one, other), (idx, name)
