"""Acceptance suite: reference iteration counts, robustness and invariants.

Each test prints one PASS line when its criterion holds; tolerances are
fixed here and nowhere else.  Large stress cases (coarsening ratios 16 and
32) are skipped unless NESTED_BDDC_LARGE=1 is set.
"""

import os

import numpy as np
import pytest

import nested_bddc as nb
from conftest import copy_rows, level_groups, natural_rows
from nested_bddc.bddc import _face_average
from nested_bddc.mesh_fem import divergence_defect
from nested_bddc.nested_driver import ExperimentSpec, step1_coarse_rhs

RUN_LARGE = os.environ.get("NESTED_BDDC_LARGE") == "1"

SMALL_PRESET_SPECS = [
    ExperimentSpec(levels=2, ratio=3),
    ExperimentSpec(levels=3, ratio=3),
    ExperimentSpec(levels=4, ratio=3),
    ExperimentSpec(levels=2, ratio=4),
    ExperimentSpec(levels=3, ratio=4),
    ExperimentSpec(levels=2, ratio=6),
    ExperimentSpec(levels=2, ratio=8),
    ExperimentSpec(levels=4, ratio=3, coeff="jump-left", k1=100.0, k3=0.01, label="fig3-left"),
    ExperimentSpec(levels=4, ratio=3, coeff="jump-right", k1=100.0, k3=0.01, label="fig3-right"),
]


def finest_row(result):
    return result.rows[0]


def test_criterion_1_ratio3_reference_counts(runs):
    """PCG counts and condition estimates for the ratio-3 hierarchy, L = 2..5."""
    windows = {
        2: ((3, 5), (1.0, 1.5)),
        3: ((7, 9), (1.8, 2.4)),
        4: ((10, 12), (3.0, 4.0)),
        5: ((13, 15), (5.2, 6.8)),
    }
    observed = {}
    for levels, ((it_lo, it_hi), (c_lo, c_hi)) in windows.items():
        row = finest_row(runs.result(ExperimentSpec(levels=levels, ratio=3)))
        observed[levels] = (row.iter, row.cond)
        assert it_lo <= row.iter <= it_hi, f"L={levels}: iter {row.iter} outside [{it_lo},{it_hi}]"
        assert c_lo <= row.cond <= c_hi, f"L={levels}: cond {row.cond:.2f} outside [{c_lo},{c_hi}]"
    print(
        "ACCEPTANCE 1 (ratio-3 hierarchy, L=2..5): PASS "
        + " ".join(f"L={k}:{v[0]}/{v[1]:.2f}" for k, v in sorted(observed.items()))
    )


def test_criterion_2_two_level_ratio4_and_6(runs):
    """Two-level rows at coarsening ratios 4 and 6."""
    row4 = finest_row(runs.result(ExperimentSpec(levels=2, ratio=4)))
    assert 5 <= row4.iter <= 7
    assert abs(row4.cond - 1.94) <= 0.15 * 1.94
    row6 = finest_row(runs.result(ExperimentSpec(levels=2, ratio=6)))
    assert 8 <= row6.iter <= 10
    assert abs(row6.cond - 2.57) <= 0.15 * 2.57
    print(
        f"ACCEPTANCE 2 (ratios 4, 6): PASS r4:{row4.iter}/{row4.cond:.2f} "
        f"r6:{row6.iter}/{row6.cond:.2f}"
    )


def test_criterion_3_log_squared_growth(runs):
    """Two-level condition estimates grow like (1 + log(subdomain size))^2."""
    ratios = [3, 4, 6, 8] + ([16, 32] if RUN_LARGE else [])
    conds = []
    for r in ratios:
        conds.append(finest_row(runs.result(ExperimentSpec(levels=2, ratio=r))).cond)
    x = (1.0 + np.log(ratios)) ** 2
    y = np.asarray(conds)
    c = (x @ y) / (x @ x)  # least-squares line through the origin
    rel_dev = np.abs(y - c * x) / (c * x)
    assert rel_dev.max() <= 0.20, f"deviation from linear fit: {rel_dev}"
    print(
        "ACCEPTANCE 3 (log^2 growth): PASS "
        + " ".join(f"r{r}:{k:.2f}" for r, k in zip(ratios, conds))
        + f" fit-dev {rel_dev.max():.1%}"
    )


def test_criterion_4_jump_robustness(runs):
    """Aligned coefficient jumps up to 1e6 cost at most 3 extra iterations."""
    base = {r.level: r.iter for r in runs.result(ExperimentSpec(levels=4, ratio=3)).rows}
    worst = 0
    for layout in ("jump-left", "jump-right"):
        for k1 in (1.0, 10.0, 100.0, 1e3):
            for k3 in (1.0, 0.1, 0.01, 1e-3):
                spec = ExperimentSpec(
                    levels=4, ratio=3, coeff=layout, k1=k1, k2=1.0, k3=k3, gamma=1.0
                )
                rows = runs.result(spec).rows
                for row in rows:
                    extra = row.iter - base[row.level]
                    worst = max(worst, extra)
                    assert extra <= 3, (
                        f"{layout} k1={k1} k3={k3} level {row.level}: "
                        f"{row.iter} vs baseline {base[row.level]}"
                    )
    print(f"ACCEPTANCE 4 (jump robustness): PASS max extra iterations {worst}")


def test_criterion_5_divergence_free_outputs(runs, rng):
    """Preconditioner outputs stay divergence-free for balanced residuals."""
    configs = [
        ExperimentSpec(levels=2, ratio=3),
        ExperimentSpec(levels=3, ratio=3),
        ExperimentSpec(levels=4, ratio=3),
        ExperimentSpec(levels=4, ratio=3, coeff="jump-left", k1=100.0, k3=0.01, label="fig3-left"),
    ]
    worst = 0.0
    for spec in configs:
        solver = runs.solver(spec)
        level = solver.precond.levels[0]
        iface = np.sort(level.decomp.face_dofs.ravel())
        for _ in range(100):
            r = np.zeros(level.system.n_flux)
            r[iface] = rng.standard_normal(len(iface))
            u, _ = solver.precond.apply(r)
            worst = max(worst, divergence_defect(level.system, u))
        assert worst <= 1e-9, f"{spec.name()}: defect {worst:.2e}"
    print(f"ACCEPTANCE 5 (divergence-free outputs): PASS worst defect {worst:.2e}")


def test_criterion_6_oracle_equivalence(runs):
    """Nested solve agrees with a direct solve in the energy norm."""
    worst = 0.0
    for spec in SMALL_PRESET_SPECS:
        solver = runs.solver(spec)
        if solver.fine.n_dofs > 100_000:
            continue
        result = runs.result(spec)
        u_ref, _ = nb.oracle_direct_solve(solver.fine)
        d = result.flux - u_ref
        err = np.sqrt(d @ (solver.fine.A @ d)) / np.sqrt(u_ref @ (solver.fine.A @ u_ref))
        worst = max(worst, err)
        assert err <= 1e-5, f"{spec.name()}: energy error {err:.2e}"
    print(f"ACCEPTANCE 6 (oracle equivalence): PASS worst energy error {worst:.2e}")


def test_criterion_7_averaging_identities(runs, rng):
    """Averaged dual corrections lose no subdomain divergence; averaged
    primal functions keep theirs, on every level of every small preset."""
    worst = 0.0
    for spec in SMALL_PRESET_SPECS + [ExperimentSpec(levels=5, ratio=3)]:
        solver = runs.solver(spec)
        for number, level in enumerate(solver.precond.levels, start=1):
            decomp = level.decomp
            b_mat = level.system.B
            scale = np.abs(b_mat).sum(axis=1).max()

            # dual member: subtract face averages per side copy; one draw
            # per subdomain, in subdomain order
            ratio = decomp.face_dofs.shape[1]
            n_face = np.empty(decomp.n_sub, dtype=int)
            for grp in level_groups(level):
                n_face[grp.subs] = grp.n_face_dofs
            offsets = np.cumsum(n_face) - n_face
            draws = rng.standard_normal(n_face.sum())
            copies = []
            for grp in level_groups(level):
                rows = draws[offsets[grp.subs, None] + np.arange(grp.n_face_dofs)]
                faces = rows.reshape(len(grp.subs), grp.n_faces, ratio)
                faces -= faces.mean(axis=2, keepdims=True)
                rows /= np.maximum(np.linalg.norm(rows, axis=1, keepdims=True), 1e-30)
                copies.append(rows)
            # B's face columns, in the order of the averaged face vector
            b_face = b_mat[:, decomp.face_dofs.ravel()]
            averaged = _face_average(level, np.concatenate(copies, axis=None))
            cells_by_sub = natural_rows(decomp)[0]
            for cells in cells_by_sub:
                val = (b_face[cells] @ averaged).sum()
                worst = max(worst, abs(val) / scale)

            # primal member: random coarse dof values through the basis; a
            # subdomain's own copy, before averaging, fixes its total
            if decomp.n_faces:
                alpha = rng.standard_normal(decomp.n_faces)
                alpha /= np.linalg.norm(alpha)
                layout = [copy_rows(level, grp) for grp in level_groups(level)]
                copies = [alpha[c.face_ids] @ grp.psi.T for grp, c in zip(level_groups(level), layout)]
                averaged = _face_average(level, np.concatenate(copies, axis=None))
                for grp, c, rows in zip(level_groups(level), layout, copies):
                    for sub, idx, row in zip(grp.subs, c.idx_face, rows):
                        own = np.zeros(level.system.n_flux)
                        own[idx] = row
                        cells = cells_by_sub[sub]
                        total = (b_face[cells] @ averaged).sum()
                        broken = (b_mat[cells] @ own).sum()
                        worst = max(worst, abs(total - broken) / scale)
            assert worst <= 1e-10, f"{spec.name()} level {number}: {worst:.2e}"
    print(f"ACCEPTANCE 7 (averaging identities): PASS worst residual {worst:.2e}")


def test_criterion_8_property_suite(runs, rng):
    """Partition of unity, averaging projection, basis normalisation,
    restriction compatibility."""
    spec = ExperimentSpec(levels=4, ratio=3, coeff="jump-left", k1=100.0, k3=0.01, label="fig3-left")
    solver = runs.solver(spec)
    for level in solver.precond.levels:
        # partition of unity holds exactly, not approximately, on the
        # weights the apply uses
        faces = level.decomp.face_dofs.ravel()
        assert np.all(_face_average(level, np.ones(level.copy_pos.size)) == 1.0)
        # averaging reproduces continuous vectors on the faces
        v = rng.standard_normal(level.system.n_flux)
        copies = v[faces][level.copy_pos]
        assert np.allclose(
            _face_average(level, copies), v[faces], rtol=0, atol=1e-13 * np.abs(v).max()
        )
        # every basis column realizes exactly one unit coarse dof
        for grp in level_groups(level):
            avgs = grp.psi.reshape(grp.n_faces, -1, grp.n_faces).mean(axis=1)
            assert np.allclose(avgs, np.eye(grp.n_faces), atol=1e-11)

    # source restriction preserves compatibility level by level
    f = solver.fine.g
    for decomp in [level.decomp for level in solver.precond.levels]:
        coarse = step1_coarse_rhs(decomp, f)
        assert coarse.sum() == pytest.approx(f.sum(), abs=1e-12)
        f = coarse
    print("ACCEPTANCE 8 (property suite): PASS unity/projection/basis/restriction")


def test_criterion_8_scaling_iterations_invariant(runs):
    """Scaling the permeability globally leaves counts and estimates unchanged."""
    base = runs.result(ExperimentSpec(levels=2, ratio=3))
    scaled = runs.result(ExperimentSpec(levels=2, ratio=3, k1=10.0, k2=10.0, k3=10.0))
    assert [r.iter for r in scaled.rows] == [r.iter for r in base.rows]
    for rs, rb in zip(scaled.rows, base.rows):
        assert rs.cond == pytest.approx(rb.cond, rel=1e-9)
    print("ACCEPTANCE 8 (scaling invariance): PASS identical iterations and estimates")


@pytest.mark.xfail(
    strict=True,
    reason="conservation pins div u = f for the pure-flux-boundary problem, "
    "so the flux solution is invariant under global permeability scaling; "
    "scaling by c rescales the pressure by 1/c instead",
)
def test_criterion_8_scaling_flux_covariance(runs):
    """Global permeability scaling is expected to scale the flux solution.

    For this source-driven problem with no-flow boundaries that expectation
    contradicts mass conservation, which fixes the divergence of the flux
    independently of the permeability; the companion test above checks the
    invariants that actually hold.
    """
    c = 10.0
    base = runs.result(ExperimentSpec(levels=2, ratio=3))
    scaled = runs.result(ExperimentSpec(levels=2, ratio=3, k1=c, k2=c, k3=c))
    print("ACCEPTANCE 8 (flux-scaling covariance): FAIL expected, see test docstring")
    assert np.allclose(scaled.flux, c * base.flux, rtol=1e-8)
