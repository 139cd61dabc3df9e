"""Outer nested algorithm: restriction, subdomain solves, PCG correction,
oracle equivalence, table output."""

import importlib
from dataclasses import dataclass, replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import nested_bddc as nb
from nested_bddc import nested_driver
from nested_bddc.bddc import MultilevelPreconditioner
from nested_bddc.hierarchy import HierarchyError
from nested_bddc.mesh_fem import CoefficientField, MeshError, Rt0System, build_mesh, divergence_defect
from nested_bddc.nested_driver import (
    CSV_HEADER,
    ORACLE_DOF_LIMIT,
    DriverError,
    ExperimentSpec,
    NestedSolver,
    PcgNonConvergence,
    preset_specs,
    step1_coarse_rhs,
    step2_subdomain_solve,
    step3_correction,
)
from nested_bddc.saddle_core import Factorization, IncompatibleRhsError, SingularMatrixError


# Exact CSV text (header plus one row per downsweep level) of the presets.
GOLDEN_CSV = {
    "table1-ratio3": """\
L,level,M,nsub,n,n_gamma,iter,cond
2,1,2,9,225,36,4,1.22
3,1,3,81,2133,432,8,2.07
3,2,2,9,225,36,3,1.14
4,1,4,729,19521,4212,11,3.48
4,2,3,81,2133,432,7,1.85
4,3,2,9,225,36,3,1.14
5,1,5,6561,176661,38880,14,6.00
5,2,4,729,19521,4212,10,3.10
5,3,3,81,2133,432,7,1.83
5,4,2,9,225,36,3,1.14
""",
    "table1-ratio4": """\
L,level,M,nsub,n,n_gamma,iter,cond
2,1,2,16,736,96,6,1.94
3,1,3,256,12160,1920,10,3.45
3,2,2,16,736,96,5,1.73
4,1,4,4096,196096,32256,14,6.63
4,2,3,256,12160,1920,9,3.11
4,3,2,16,736,96,5,1.72
""",
    "table1-ratio6": """\
L,level,M,nsub,n,n_gamma,iter,cond
2,1,2,36,3816,360,9,2.56
3,1,3,1296,139536,15120,14,5.60
3,2,2,36,3816,360,9,2.30
""",
    "table1-ratio8": """\
L,level,M,nsub,n,n_gamma,iter,cond
2,1,2,64,12160,896,10,3.01
3,1,3,4096,785408,64512,17,7.47
3,2,2,64,12160,896,10,2.72
""",
    "fig3-left": """\
L,level,M,nsub,n,n_gamma,iter,cond
4,1,4,729,19521,4212,11,3.15
4,2,3,81,2133,432,8,1.70
4,3,2,9,225,36,4,1.12
""",
    "fig3-right": """\
L,level,M,nsub,n,n_gamma,iter,cond
4,1,4,729,19521,4212,13,3.25
4,2,3,81,2133,432,8,1.74
4,3,2,9,225,36,3,1.13
""",
}


def a_norm_rel_error(system, u, u_ref):
    d = u - u_ref
    return np.sqrt(d @ (system.A @ d)) / np.sqrt(u_ref @ (system.A @ u_ref))


def test_step1_zero_source(runs):
    solver = runs.solver(ExperimentSpec(levels=2, ratio=3))
    d = solver.precond.levels[0].decomp
    assert np.array_equal(step1_coarse_rhs(d, np.zeros(d.grid.n_cells)), np.zeros(d.n_sub))


def test_step1_corner_source_two_entries(runs):
    solver = runs.solver(ExperimentSpec(levels=2, ratio=3))
    d = solver.precond.levels[0].decomp
    coarse = step1_coarse_rhs(d, solver.fine.g)
    nz = np.flatnonzero(coarse)
    assert len(nz) == 2
    assert sorted(coarse[nz]) == [-1.0, 1.0]
    # source and sink land in the first and last subdomain
    assert set(nz) == {0, d.n_sub - 1}


def test_step1_preserves_compatibility(runs, rng):
    solver = runs.solver(ExperimentSpec(levels=3, ratio=3))
    f = rng.standard_normal(solver.fine.n_pressure)
    f -= f.mean()
    for d in [level.decomp for level in solver.precond.levels]:
        coarse = step1_coarse_rhs(d, f)
        assert abs(coarse.sum()) < 1e-12 * np.linalg.norm(f)
        assert coarse.sum() == pytest.approx(f.sum(), abs=1e-12)
        # reference: one plain sum per subdomain
        assert np.array_equal(coarse, [f[cells].sum() for cells in d.cells_by_sub])
        f = coarse


def test_step2_matches_divergence_data(runs, rng):
    solver = runs.solver(ExperimentSpec(levels=2, ratio=3))
    level = solver.precond.levels[0]
    system = level.system
    u0_face = rng.standard_normal(level.decomp.face_dofs.size)
    f = solver.fine.g
    u_src = step2_subdomain_solve(level, u0_face, f)[0]
    u_star = level.extend(u0_face)[0] + u_src
    # the face values are kept
    assert np.array_equal(u_star[level.decomp.face_dofs.ravel()], u0_face)
    # b(u*, q) = <f, q> for all mean-zero pressures (constants cancel when
    # the face values already match the subdomain totals, which random ones
    # do not; test against the interior pressures instead)
    for cells in level.decomp.cells_by_sub:
        d = (system.B @ u_star - f)[cells]
        assert np.ptp(d / system.areas[cells]) < 1e-10


STEP2_SPECS = {
    "ratio3-dense": ExperimentSpec(levels=2, ratio=3),
    "ratio16-sparse": ExperimentSpec(levels=2, ratio=16, base=2),
}


def step2_source(kind, solver, rng):
    if kind == "corner":
        return solver.fine.g
    if kind == "zero":
        return np.zeros(solver.fine.n_pressure)
    # compatible and nonzero on every cell, so on every subdomain
    n = solver.fine.n_pressure
    f = rng.uniform(1.0, 2.0, n) * rng.choice([-1.0, 1.0], n)
    return f - f.mean()


def rel_err(got, ref):
    return np.linalg.norm(got - ref) / np.linalg.norm(ref)


@pytest.mark.parametrize("source", ["corner", "random", "zero"])
@pytest.mark.parametrize("case", list(STEP2_SPECS))
def test_step2_equals_interior_solve_of_prolonged_flux(case, source, runs, rng):
    # Step 2 from the harmonic extension plus the source solve against the
    # interior KKT solved with the residual of the prolonged flux u0 (face
    # values, zero interiors) and the divergence data.
    solver = runs.solver(STEP2_SPECS[case])
    level = solver.precond.levels[0]
    system = level.system
    f = step2_source(source, solver, rng)
    assert np.all(f != 0) == (source == "random")
    u0_face = rng.standard_normal(level.decomp.face_dofs.size)
    u0 = np.zeros(system.n_flux)
    u0[level.decomp.face_dofs.ravel()] = u0_face
    u_int, p_ref, _ = nb.interior_correction(level, -(system.A @ u0), f - system.B @ u0)
    u_src, p_star, p_ext0, _ = step2_subdomain_solve(level, u0_face, f)
    u_ext, p_ext = level.extend(u0_face)
    assert rel_err(u_ext + u_src, u0 + u_int) <= 1e-12
    assert rel_err(p_star, p_ref) <= 1e-12
    assert rel_err(p_ext0, p_ext) <= 1e-12


@pytest.mark.parametrize("case", ["ratio3-L3", "ratio16-sparse"])
def test_step2_solves_only_the_source_subdomains(case, runs, monkeypatch):
    # The corner source lies in two subdomains of every level: step 2
    # passes the interior KKTs two right-hand sides, whatever the level's
    # subdomain count.
    spec = ExperimentSpec(levels=3, ratio=3) if case == "ratio3-L3" else STEP2_SPECS[case]
    solver = runs.solver(spec)
    counted = []
    solve_leading = Factorization.solve_leading

    def count(self, rows, m):
        counted.append(len(rows))
        return solve_leading(self, rows, m)

    monkeypatch.setattr(Factorization, "solve_leading", count)
    f = solver.fine.g
    for level in solver.precond.levels:
        counted.clear()
        step2_subdomain_solve(level, np.zeros(level.decomp.face_dofs.size), f)
        assert sum(counted) == 2
        f = step1_coarse_rhs(level.decomp, f)


def test_step2_after_step1_is_fully_balanced(runs):
    # with u0 handed down from the coarse solve, u* matches f against all pressures
    solver = runs.solver(ExperimentSpec(levels=2, ratio=3))
    result = runs.result(ExperimentSpec(levels=2, ratio=3))
    system = solver.fine
    assert np.allclose(system.B @ result.flux, system.g, atol=1e-11)


def test_step3_with_exact_start_returns_zero_correction(runs):
    # Step 2 from the oracle's face values, handed to step 3: the step-2
    # flux is already the oracle's, and step 3 returns it uncorrected.
    solver = runs.solver(ExperimentSpec(levels=2, ratio=3))
    system = solver.fine
    level = solver.precond.levels[0]
    u_ref, p_ref = nb.oracle_direct_solve(system)
    u0_face = u_ref[level.decomp.face_dofs.ravel()]
    start = step2_subdomain_solve(level, u0_face, system.g)
    u_star = level.extend(u0_face)[0] + start[0]
    u, p, report = step3_correction(solver.precond, 1, u0_face, system.g, *start)
    assert report.iterations <= 1
    assert np.linalg.norm(u - u_star) <= 1e-8 * np.linalg.norm(u_ref)
    assert np.linalg.norm(u - u_ref) <= 1e-8 * np.linalg.norm(u_ref)
    # the recovered pressure closes the flux equation
    res = system.A @ u + system.B.T @ p
    assert np.linalg.norm(res) <= 1e-6 * np.linalg.norm(system.A @ u_ref)


START_SPECS = {**STEP2_SPECS, "jump-left-L4": preset_specs("fig3-left")[0]}


@pytest.mark.parametrize("source", ["corner", "random"])
@pytest.mark.parametrize("case", list(START_SPECS))
def test_step2_pressure_has_zero_mean_per_subdomain(case, source, runs, rng):
    # Both parts of the step-2 pressure come from interior KKT solves with
    # the area gauge, so it has zero area mean on every subdomain of every
    # level: step 3 starts from it as it stands.
    solver = runs.solver(START_SPECS[case])
    f = step2_source(source, solver, rng)
    for level in solver.precond.levels:
        u0_face = rng.standard_normal(level.decomp.face_dofs.size)
        p_star = step2_subdomain_solve(level, u0_face, f)[1]
        cells = level.decomp.cells_by_sub
        areas = level.system.areas[cells]
        means = (areas * p_star[cells]).sum(axis=1) / areas.sum(axis=1)
        assert np.abs(means).max() <= 1e-13 * np.abs(p_star).max()
        f = step1_coarse_rhs(level.decomp, f)


class _Started(Exception):
    """Raised in place of step 3's PCG with the right-hand side it was given."""


@pytest.mark.parametrize("source", ["corner", "random", "zero"])
@pytest.mark.parametrize("case", list(START_SPECS))
def test_step3_start_residual_matches_full_length(case, source, runs, rng, monkeypatch):
    # The face rows of step 3's start residual, formed from face values,
    # against -(A u_star)_F - (B^T q0)_F from the full-length step-2 flux
    # u_star and pressure q0 (the step-2 pressure gauged per subdomain),
    # on every level, with the source restricted level by level.
    solver = runs.solver(START_SPECS[case])
    f = step2_source(source, solver, rng)

    def start_only(operator, preconditioner, rhs, **kwargs):
        raise _Started(rhs)

    monkeypatch.setattr(nested_driver, "pcg", start_only)
    for number, level in enumerate(solver.precond.levels, 1):
        system, faces = level.system, level.decomp.face_dofs.ravel()
        u0_face = rng.standard_normal(faces.size)
        start = step2_subdomain_solve(level, u0_face, f)
        with pytest.raises(_Started) as started:
            step3_correction(solver.precond, number, u0_face, f, *start)
        u_star = level.extend(u0_face)[0] + start[0]
        q0 = start[1].copy()
        for cells in level.decomp.cells_by_sub:
            areas = system.areas[cells]
            q0[cells] -= areas @ q0[cells] / areas.sum()
        ref = -(system.A @ u_star + system.B.T @ q0)[faces]
        assert rel_err(started.value.args[0][: faces.size], ref) <= 1e-12
        f = step1_coarse_rhs(level.decomp, f)


def solve_recording_checks(solver, monkeypatch):
    """Solve, recording each level's post-PCG check as (system, flux, energy)."""
    checks = []
    check = nested_driver.divergence_defect

    def record(system, u, g=0.0, energy=None):
        checks.append((system, u.copy(), energy))
        return check(system, u, g, energy)

    monkeypatch.setattr(nested_driver, "divergence_defect", record)
    return solver.solve(), checks


def assert_check_energies_match_assembled(checks):
    for system, u, energy in checks:
        ref = u @ (system.A @ u)
        assert abs(energy - ref) <= 1e-13 * ref


CHECK_SPECS = {
    "ratio3-L4-dense": ExperimentSpec(levels=4, ratio=3),
    "ratio16-sparse": ExperimentSpec(levels=2, ratio=16, base=2),
    "jump-right-L4": ExperimentSpec(levels=4, ratio=3, coeff="jump-right", k1=37.0, k3=0.05),
}


@pytest.mark.parametrize("case", list(CHECK_SPECS))
def test_check_energy_from_face_values_matches_assembled(case, monkeypatch):
    # Step 3 forms the energy of its returned flux from the face values,
    # the face residual of step 2 and the source solves' pressure; on
    # every level it is u @ A u of the level's assembled A.
    spec = CHECK_SPECS[case]
    _, checks = solve_recording_checks(NestedSolver(spec), monkeypatch)
    assert len(checks) == spec.levels - 1
    assert_check_energies_match_assembled(checks)


@pytest.mark.parametrize("spec", [ExperimentSpec(levels=5, ratio=3), ExperimentSpec(levels=2, ratio=16)])
def test_solve_builds_no_level_matrices(spec):
    # Set-up and solve read no level's assembled A or B: only the top
    # system's, which the top solve factors and which no level holds.  A
    # level takes its B terms from the grid, so it holds no sparse matrix.
    solver = NestedSolver(spec)
    solver.solve()
    for level in solver.precond.levels:
        assert "A" not in vars(level.system) and "B" not in vars(level.system)
        assert not [name for name, value in vars(level).items() if sp.issparse(value)]


def test_directly_constructed_system_solves(monkeypatch):
    # A system made by its constructor takes its cell areas from the grid
    # and keeps its class table in canonical form.  Given the assembled
    # table, one row per cell, or every row twice with the cells split at
    # random between the copies, it builds a preconditioner of as many
    # factorizations and solves bit for bit as the assembled system does.
    spec = ExperimentSpec(levels=3, ratio=3, coeff="jump-right", k1=37.0, k3=0.05)
    factor, made = Factorization.__init__, []
    monkeypatch.setattr(Factorization, "__init__", lambda self, matrix: made.append(1) or factor(self, matrix))
    solver = NestedSolver(spec)
    ref = solver.solve()
    fine, n_made = solver.fine, len(made)
    n_cells, n_rows = fine.grid.n_cells, len(fine.elem_table)
    assert n_rows == 3
    split = np.random.default_rng(2).integers(0, 2, n_cells)
    tables = [
        (fine.elem_table, fine.elem_class),
        (fine.elem_table[fine.elem_class], np.arange(n_cells)),
        (np.concatenate([fine.elem_table, fine.elem_table]), fine.elem_class + n_rows * split),
    ]
    for table, cls in tables:
        made.clear()
        solver.fine = Rt0System(fine.grid, table, cls, fine.g)
        assert solver.fine.elem_table.tobytes() == fine.elem_table.tobytes()
        solver.precond = MultilevelPreconditioner.build(solver.fine, spec.levels, spec.ratio, spec.gamma)
        result = solver.solve()
        assert len(made) == n_made
        assert result.flux.tobytes() == ref.flux.tobytes()
        assert result.pressure.tobytes() == ref.pressure.tobytes()
        assert [row.csv() for row in result.rows] == [row.csv() for row in ref.rows]
        assert divergence_defect(solver.fine, result.flux, fine.g) <= 1e-9


@settings(max_examples=20, deadline=None)
@given(
    levels=st.sampled_from([2, 3]),
    ratio=st.sampled_from([2, 3, 4]),
    coeff=st.sampled_from(["constant", "jump-right"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_hierarchy_matches_oracle(levels, ratio, coeff, seed):
    # A zero-mean source on every cell, so step 2 solves on every
    # subdomain of every level.
    solver = NestedSolver(ExperimentSpec(levels=levels, ratio=ratio, coeff=coeff, k1=100.0, k3=0.01))
    assert solver.fine.n_dofs <= ORACLE_DOF_LIMIT
    f = np.random.default_rng(seed).uniform(1.0, 2.0, solver.fine.n_pressure)
    solver.fine = replace(solver.fine, g=f - f.mean())
    with pytest.MonkeyPatch.context() as patch:
        result, checks = solve_recording_checks(solver, patch)
    assert_check_energies_match_assembled(checks)
    u_ref, p_ref = nb.oracle_direct_solve(solver.fine)
    assert a_norm_rel_error(solver.fine, result.flux, u_ref) <= 1e-5
    areas = solver.fine.areas
    p_ref = p_ref - areas @ p_ref / areas.sum()
    assert np.linalg.norm(result.pressure - p_ref) <= 1e-5 * np.linalg.norm(p_ref)


def test_step3_full_system_residual(runs):
    solver = runs.solver(ExperimentSpec(levels=2, ratio=3))
    result = runs.result(ExperimentSpec(levels=2, ratio=3))
    system = solver.fine
    res_flux = system.A @ result.flux + system.B.T @ result.pressure
    scale = np.linalg.norm(system.A @ result.flux)
    assert np.linalg.norm(res_flux) <= 1e-5 * scale


@pytest.mark.parametrize(
    "spec",
    [
        ExperimentSpec(levels=2, ratio=3),
        ExperimentSpec(levels=3, ratio=3),
        ExperimentSpec(levels=2, ratio=4),
        ExperimentSpec(levels=2, ratio=3, coeff="jump-right", k1=100.0, k3=0.01),
    ],
)
def test_nested_matches_oracle(runs, spec):
    solver = runs.solver(spec)
    result = runs.result(spec)
    u_ref, p_ref = nb.oracle_direct_solve(solver.fine)
    assert a_norm_rel_error(solver.fine, result.flux, u_ref) <= 1e-5
    # pressures agree once both are gauged (zero area-weighted mean)
    areas = solver.fine.areas
    p_ref = p_ref - areas @ p_ref / areas.sum()
    assert np.linalg.norm(result.pressure - p_ref) <= 1e-4 * np.linalg.norm(p_ref)


def test_single_subdomain_degenerate_solve():
    spec = ExperimentSpec(levels=2, ratio=3, base=1)
    assert spec.nx == 3
    solver = NestedSolver(spec)
    u = solver.solve().flux
    u_ref, _ = nb.oracle_direct_solve(solver.fine)
    assert a_norm_rel_error(solver.fine, u, u_ref) <= 1e-8


def test_incompatible_rhs_rejected(runs):
    solver = runs.solver(ExperimentSpec(levels=2, ratio=3))
    bad = solver.fine
    bad_g = bad.g.copy()
    bad.g = bad.g + 1.0
    try:
        with pytest.raises(IncompatibleRhsError):
            nb.oracle_direct_solve(bad)
    finally:
        bad.g = bad_g


def test_global_conservation_per_subdomain(runs):
    # net flux out of every subdomain equals the enclosed source strength
    spec = ExperimentSpec(levels=3, ratio=3)
    solver = runs.solver(spec)
    result = runs.result(spec)
    system = solver.fine
    for d in [solver.precond.levels[0].decomp]:
        for cells in d.cells_by_sub:
            enclosed = (system.B @ result.flux)[cells].sum()
            assert enclosed == pytest.approx(system.g[cells].sum(), abs=1e-10)


def test_coefficient_scaling_invariants(runs):
    # global permeability scaling: identical iteration counts and condition
    # estimates, identical flux, pressure divided by the factor (conservation
    # pins div u = f, so the flux cannot change)
    base = runs.result(ExperimentSpec(levels=2, ratio=3))
    scaled = runs.result(ExperimentSpec(levels=2, ratio=3, k1=8.0, k2=8.0, k3=8.0))
    assert [r.iter for r in scaled.rows] == [r.iter for r in base.rows]
    for rs, rb in zip(scaled.rows, base.rows):
        assert rs.cond == pytest.approx(rb.cond, rel=1e-9)
    assert np.allclose(scaled.flux, base.flux, atol=1e-9 * np.abs(base.flux).max())
    assert np.allclose(scaled.pressure, base.pressure / 8.0, atol=1e-9)


@pytest.mark.xfail(
    strict=True,
    raises=SingularMatrixError,
    reason="pivot ratio check: the top KKT fails for small k, the face systems for large k",
)
@pytest.mark.parametrize("k", [1e-12, 1e12], ids=["1e-12", "1e12"])
def test_constant_coefficient_scale(runs, k):
    # A constant coefficient k leaves the k = 1 flux and divides the
    # pressure by k, at any scale.  Both ends raise today: the flux block
    # scales like h^2 / k and the pressure Schur complement like k.
    base = runs.result(ExperimentSpec(levels=2, ratio=3))
    scaled = NestedSolver(ExperimentSpec(levels=2, ratio=3, k1=k)).solve()
    assert np.allclose(scaled.flux, base.flux, atol=1e-9 * np.abs(base.flux).max())
    assert np.allclose(scaled.pressure * k, base.pressure, atol=1e-9 * np.abs(base.pressure).max())


def test_unit_coefficient_scalings_agree(runs):
    # with k = 1 multiplicity and face-diagonal weights coincide exactly
    a = runs.result(ExperimentSpec(levels=2, ratio=3, gamma=0.0))
    b = runs.result(ExperimentSpec(levels=2, ratio=3, gamma=1.0))
    assert np.array_equal(a.flux, b.flux)
    assert [r.iter for r in a.rows] == [r.iter for r in b.rows]


def test_four_level_rows_track_reference_counts(runs):
    rows = {r.level: r for r in runs.result(ExperimentSpec(levels=4, ratio=3)).rows}
    assert rows[3].iter in (2, 3, 4) and 1.0 <= rows[3].cond <= 1.5
    assert rows[2].iter in (6, 7, 8) and 1.6 <= rows[2].cond <= 2.1
    assert rows[1].iter in (10, 11, 12) and 3.0 <= rows[1].cond <= 4.0


def test_condition_growth_trend(runs):
    # finest-level estimates grow with depth, at most by the per-level
    # (1 + log H/h)^2 factor of the product bound
    conds = [
        finest.cond
        for finest in (
            runs.result(ExperimentSpec(levels=lvl, ratio=3)).rows[0] for lvl in (2, 3, 4, 5)
        )
    ]
    assert all(b >= a for a, b in zip(conds, conds[1:]))
    factor = (1.0 + np.log(3.0)) ** 2
    assert all(b / a <= factor for a, b in zip(conds, conds[1:]))
    # one constant factor per added level: measured 1.68-1.72 (estimates
    # 1.22, 2.07, 3.48, 6.00), pinned with a 10 % margin on either side
    assert all(1.5 <= b / a <= 1.9 for a, b in zip(conds, conds[1:]))


def test_two_level_condition_within_log_squared_band(runs):
    # two-level bound cond <= C (1 + log H/h)^2 with one C for every ratio:
    # the quotient measured 0.277-0.349 over these ratios, pinned with a
    # 10 % margin on either side
    for r in (2, 3, 4, 6, 8, 16):
        cond = runs.result(ExperimentSpec(levels=2, ratio=r)).rows[0].cond
        assert 0.25 <= cond / (1.0 + np.log(r)) ** 2 <= 0.385, f"ratio {r}: cond {cond:.3f}"


@pytest.mark.parametrize("coeff", ["jump-left", "jump-right"])
def test_jump_counts_independent_of_contrast(runs, coeff):
    # gamma = 1, k1 = c, k3 = 1/c for c = 1 ... 1e6.  Finest level measured:
    # jump-left 11 iterations each time, cond 3.48 -> 3.13; jump-right 11,
    # 13, 14, 14 iterations, cond 3.48 -> 3.10.  Pinned: at most 3
    # iterations over c = 1 (criterion 4's rule), and no estimate above the
    # c = 1 one (measured at most 0.94 times it).  Coarser levels are not
    # pinned: at 1e6 jump-right's level 3 stops after one iteration with
    # the default estimate 1.00.
    rows = [
        runs.result(
            ExperimentSpec(levels=4, ratio=3, coeff=coeff, k1=c, k3=1.0 / c, gamma=1.0)
        ).rows[0]
        for c in (1.0, 1e2, 1e4, 1e6)
    ]
    assert all(row.iter <= rows[0].iter + 3 for row in rows), [row.iter for row in rows]
    assert all(row.cond <= rows[0].cond for row in rows), [row.cond for row in rows]


def test_result_rows_shape(runs):
    rows = runs.result(ExperimentSpec(levels=3, ratio=3)).rows
    assert [r.level for r in rows] == [1, 2]
    for r in rows:
        assert r.M == r.L - r.level + 1
        assert r.iter >= 1
        assert r.cond >= 1.0
    assert rows[0].nsub == 81
    assert rows[0].n == 2133
    assert rows[0].n_gamma == 432
    assert rows[1].n == 225


def test_result_row_csv_formats_cond_two_decimals(runs):
    line = runs.result(ExperimentSpec(levels=2, ratio=3)).rows[0].csv()
    assert line.startswith("2,1,2,9,225,36,")
    cond_field = line.split(",")[-1]
    assert len(cond_field.split(".")[1]) == 2


def test_pcg_nonconvergence_raises():
    with pytest.raises(PcgNonConvergence, match="^level 1: PCG did not reach") as exc:
        NestedSolver(ExperimentSpec(levels=2, ratio=3, tol=1e-30, maxit=3)).solve()
    assert exc.value.level == 1
    assert exc.value.report.iterations == 3
    assert len(list(exc.value.report.history_rows())) == 3


def test_pcg_stagnation_keeps_one_history_row_per_iteration():
    # An unreachable tolerance: PCG stops at the round-off floor well
    # before maxit, and the pass that finds it stalled records no row.
    with pytest.raises(PcgNonConvergence) as exc:
        NestedSolver(ExperimentSpec(levels=2, ratio=3, tol=1e-30)).solve()
    report = exc.value.report
    assert report.iterations < 500
    assert len(report.precond_residuals) == len(report.rel_residuals) == report.iterations
    assert report.precond_residuals[0] == 1.0


def test_every_iteration_has_a_history_row(runs):
    # Measured counts.  At contrast 1e8 level 3 stalls at a residual of
    # about 7e-10 after 4 iterations, above tol, with <r, Mr> ~ 1e-29: the
    # residual left is a pressure gradient.  PCG then ends by accepting the
    # preconditioner output (iteration 6), and the Lanczos estimate of that
    # level reads about 3e4 instead of about 1.1.
    spec = preset_specs("fig3-right", k1=1e4, k3=1e-4, tol=1e-10)[0]
    reports = runs.result(spec).reports
    assert [report.iterations for report in reports] == [20, 12, 6]
    for report in reports:
        assert len(list(report.history_rows())) == report.iterations
        assert len(report.div_defects) == report.iterations
        assert max(report.div_defects) <= 1e-9


@pytest.mark.parametrize("field, value", [("levels", 5), ("ratio", 4), ("coeff", "constant")])
def test_preset_fixes_its_shape(field, value):
    with pytest.raises(DriverError, match=f"fixes {field}"):
        preset_specs("fig3-left", **{field: value})


@pytest.mark.parametrize(
    "levels, ratio, message",
    [
        pytest.param(levels, ratio, message, id=f"{levels}-{ratio}")
        for levels, ratio, message in [
            (1, 3, "at least two levels"),
            (-2, 3, "at least two levels"),
            (2, 1, "ratio must be an integer >= 2"),
            (2, 0, "ratio must be an integer >= 2"),
            (3.0, 3, "level count must be an integer, got 3.0"),
            (2.5, 3, "level count must be an integer, got 2.5"),
            (2, 3.0, "ratio must be an integer >= 2, got 3.0"),
            (True, 3, "level count must be an integer, got True"),
            (2, True, "ratio must be an integer >= 2, got True"),
        ]
    ],
)
def test_spec_rejects_impossible_shape(levels, ratio, message):
    # the hierarchy's own messages, before any mesh is built
    with pytest.raises(HierarchyError, match=message):
        ExperimentSpec(levels=levels, ratio=ratio)


def test_spec_rejects_unknown_coefficient_pattern():
    with pytest.raises(DriverError, match="coefficient pattern"):
        ExperimentSpec(levels=2, ratio=3, coeff="bogus")


@pytest.mark.parametrize("levels", [2, 3])
def test_spec_rejects_jump_left_below_four_levels(levels):
    # the layout needs top blocks, child blocks and grandchild blocks
    with pytest.raises(DriverError, match="'jump-left' needs at least 4 levels"):
        ExperimentSpec(levels=levels, ratio=3, coeff="jump-left")


def test_aligned_jump_layouts():
    left, right = (
        ExperimentSpec(levels=4, ratio=3, coeff=coeff, k1=100.0, k3=0.01).build_problem()[1]
        for coeff in ("jump-left", "jump-right")
    )
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


def test_preset_lists():
    specs = preset_specs("table1-ratio3")
    assert [s.levels for s in specs] == [2, 3, 4, 5]
    assert all(s.ratio == 3 for s in specs)
    left = preset_specs("fig3-left")[0]
    assert left.coeff == "jump-left"
    assert (left.k1, left.k2, left.k3) == (100.0, 1.0, 0.01)
    custom = preset_specs("fig3-right", k1=10.0, k3=0.1, gamma=1.0)[0]
    assert (custom.k1, custom.k3) == (10.0, 0.1)
    with pytest.raises(Exception):
        preset_specs("no-such-preset")


def test_spec_nx():
    assert ExperimentSpec(levels=2, ratio=3).nx == 9
    assert ExperimentSpec(levels=5, ratio=3).nx == 243
    assert ExperimentSpec(levels=2, ratio=4, base=2).nx == 8
    # levels, ratio, maxit and base take any integer type but bool
    spec = ExperimentSpec(levels=np.int64(2), ratio=np.int64(4), maxit=np.int64(5), base=np.int64(2))
    assert (spec.nx, spec.maxit) == (8, 5)


@pytest.mark.parametrize("coeff", ["constant", "jump-right"])
@pytest.mark.parametrize("field", ["k1", "k2", "k3"])
@pytest.mark.parametrize("value", [0.0, -5.0, np.nan, np.inf])
def test_spec_rejects_invalid_contrast(coeff, field, value):
    # every contrast is checked, also one the pattern does not use
    with pytest.raises(DriverError, match=f"contrast {field} must be finite and > 0"):
        ExperimentSpec(levels=2, ratio=3, coeff=coeff, **{field: value})


@pytest.mark.parametrize(
    "bad",
    [
        {"tol": 0.0},
        {"tol": -1.0},
        {"tol": np.nan},
        {"tol": np.inf},
        {"maxit": 0},
        {"maxit": 2.5},
        {"maxit": True},
        {"maxit": np.int64(0)},
        {"maxit": np.float64(5.0)},
        {"base": True},
        {"base": False},
    ],
)
def test_spec_rejects_invalid_pcg_settings(bad):
    # maxit=True would otherwise run as maxit=1, base=True as base=1 and
    # base=False as the default: bool is an int in Python.
    with pytest.raises(DriverError, match="must be"):
        ExperimentSpec(levels=2, ratio=3, **bad)


@pytest.mark.parametrize("base", [2.5, -1])
def test_spec_leaves_other_bad_base_to_the_mesh(base):
    spec = ExperimentSpec(levels=2, ratio=3, base=base)
    with pytest.raises(MeshError, match="cell counts must be positive integers"):
        spec.build_problem()


@pytest.mark.parametrize("preset", sorted(GOLDEN_CSV))
def test_preset_csv_golden(runs, preset):
    rows = [row.csv() for spec in preset_specs(preset) for row in runs.result(spec).rows]
    assert "\n".join([CSV_HEADER, *rows]) + "\n" == GOLDEN_CSV[preset]


@dataclass(frozen=True)
class SeededFieldSpec(ExperimentSpec):
    """Experiment on a seeded field that is not aligned with the hierarchy."""

    field: str = "lognormal"

    def build_problem(self):
        mesh = build_mesh(self.nx, self.nx)
        if self.field == "lognormal":
            values = np.random.default_rng(5).lognormal(0.0, 1.0, mesh.n_cells)
        else:  # period-2 checkerboard, contrast 100
            c = np.arange(mesh.n_cells)
            values = np.where((c % mesh.nx + c // mesh.nx) % 2, 100.0, 1.0)
        return mesh, CoefficientField(values)


@pytest.mark.parametrize("field", ["lognormal", "checkerboard"])
def test_face_diagonal_weights_on_non_aligned_fields(runs, rng, field):
    # gamma = 1 takes any positive field and needs no more finest-level
    # iterations than multiplicity weights
    spec = SeededFieldSpec(levels=4, ratio=3, gamma=1.0, field=field)
    solver = runs.solver(spec)
    result = runs.result(spec)
    assert all(report.converged for report in result.reports)
    assert max(max(report.div_defects) for report in result.reports) <= 1e-9
    level = solver.precond.levels[0]
    iface = np.sort(level.decomp.face_dofs.ravel())
    worst = 0.0
    for _ in range(20):
        r = np.zeros(level.system.n_flux)
        r[iface] = rng.standard_normal(len(iface))
        worst = max(worst, divergence_defect(level.system, solver.precond.apply(r)[0]))
    assert worst <= 1e-9
    assert solver.fine.n_dofs == 19521
    u_ref, _ = nb.oracle_direct_solve(solver.fine)
    assert a_norm_rel_error(solver.fine, result.flux, u_ref) <= 1e-5
    multiplicity = runs.result(SeededFieldSpec(levels=4, ratio=3, gamma=0.0, field=field))
    assert result.rows[0].iter <= multiplicity.rows[0].iter


TRACED_MODULES = ("mesh_fem", "hierarchy", "saddle_core", "bddc", "krylov", "nested_driver")


@pytest.mark.parametrize("module", ["nested_bddc", *(f"nested_bddc.{m}" for m in TRACED_MODULES)])
def test_no_module_level_none(module):
    # The benchmark's span tracer patches every public function of these
    # modules, wherever a module binds it, by the id of the bound object; a
    # module-level None matches a missing entry and stops every traced run
    # with a KeyError, so no module binds one.
    mod = importlib.import_module(module)
    assert [name for name, value in vars(mod).items() if value is None] == []
