"""Exact references for the nested solve.

Layered media have a one-dimensional discrete solution at any size, which
checks the solver above the oracle's size limit.  On small levels the
preconditioned step-3 operator is formed column by column, which gives its
exact spectrum next to PCG's Lanczos estimate.
"""

from dataclasses import dataclass, replace

import numpy as np
import pytest

from conftest import a_norm_rel_error
import nested_bddc as nb
from nested_bddc import nested_driver
from nested_bddc.mesh_fem import SLOT_LEFT, SLOT_RIGHT, CoefficientField, build_mesh
from nested_bddc.nested_driver import ExperimentSpec, NestedSolver


@dataclass(frozen=True)
class LayeredSpec(ExperimentSpec):
    """Experiment on a seeded lognormal coefficient that varies with x alone, one value per column."""

    sigma: float = 1.0
    seed: int = 0

    def build_problem(self):
        mesh = build_mesh(self.nx, self.nx)
        k = np.random.default_rng(self.seed).lognormal(0.0, self.sigma, mesh.nx)
        return mesh, CoefficientField(np.tile(k, mesh.ny))


def layered_solution(system):
    """Exact flux and zero-mean pressure of a system that varies with x alone.

    The element matrices and the divergence data ``g`` must be the same
    down each column.  Then every horizontal flux vanishes and the flux on
    vertical line ``L`` is ``U_L = -sum_{i<L} g_i / h`` on every row, which
    meets each cell's divergence row ``h (U_i - U_{i+1}) = g_i``.  The
    pressure of column ``i`` follows from the flux row of any vertical edge
    ``e`` between columns ``i - 1`` and ``i``, ``p_i - p_{i-1} = -(A u)_e /
    h``, where ``(A u)_e`` takes the right slot of column ``i - 1``'s
    element matrix and the left slot of column ``i``'s.  O(n), and no
    matrix is assembled.
    """
    grid = system.grid
    nx, ny, h = grid.nx, grid.ny, grid.h
    blocks = system.elem_table[system.elem_class].reshape(ny, nx, 4, 4)
    g = system.g.reshape(ny, nx)
    assert np.array_equal(blocks, np.broadcast_to(blocks[0], blocks.shape)), "element matrices vary down a column"
    assert np.array_equal(g, np.broadcast_to(g[0], g.shape)), "divergence data vary down a column"
    blocks, g = blocks[0], g[0]
    # The boundary lines carry no flux: U_0 = U_nx = 0.
    flux = np.zeros(nx + 1)
    flux[1:-1] = -np.cumsum(g[:-1]) / h
    left, right = blocks[:, SLOT_LEFT], blocks[:, SLOT_RIGHT]
    a_u = (
        right[:-1, SLOT_LEFT] * flux[:-2]
        + right[:-1, SLOT_RIGHT] * flux[1:-1]
        + left[1:, SLOT_LEFT] * flux[1:-1]
        + left[1:, SLOT_RIGHT] * flux[2:]
    )
    p = np.zeros(nx)
    p[1:] = np.cumsum(-a_u / h)
    u = np.zeros(grid.n_flux)
    # Vertical edges run line by line, each line row by row.
    u[: grid.n_vertical] = np.repeat(flux[1:-1], ny)
    return u, np.tile(p - p.mean(), ny)


def layered_solver(levels, sigma, seed):
    """A solver on ``LayeredSpec`` whose fine divergence data is a seeded zero-mean column source.

    Only ``g`` of the fine system changes: the preconditioner is the one
    built for the spec.
    """
    solver = NestedSolver(LayeredSpec(levels=levels, ratio=3, sigma=sigma, seed=seed))
    nx = solver.fine.grid.nx
    g = np.random.default_rng(seed + 1).standard_normal(nx)
    solver.fine = replace(solver.fine, g=np.tile(g - g.mean(), nx))
    return solver


def test_layered_solution_matches_oracle():
    # 81 x 81, 19,521 dofs, contrast about 2e6.  Over seeds 0-9 the oracle
    # and the recurrence agreed to 6.6e-13 in the flux's energy norm and to
    # 1.6e-14 in the pressure.
    solver = layered_solver(4, 3.0, 0)
    system = solver.fine
    u, p = layered_solution(system)
    u_ref, p_ref = nb.oracle_direct_solve(system)
    p_ref -= p_ref.mean()
    assert a_norm_rel_error(system, u, u_ref) <= 1e-10
    assert np.linalg.norm(p - p_ref) <= 1e-12 * np.linalg.norm(p_ref)


@pytest.mark.parametrize(
    "levels, sigma, seed",
    [(4, 3.0, 0), (5, 2.0, 0)],
    ids=["81x81-L4-sigma3", "243x243-L5-sigma2"],
)
def test_nested_matches_layered_solution(levels, sigma, seed):
    # The 243 x 243 case has 176,661 dofs, above ORACLE_DOF_LIMIT.  Over
    # seeds 0-9, at tol 1e-6, the nested flux's energy-norm error was at
    # most 6.6e-8 on 81 x 81 and 9.5e-8 on 243 x 243, and the relative
    # pressure error at most 8.9e-7 and 7.6e-7: the bounds are 0.2 tol and
    # 2 tol.
    solver = layered_solver(levels, sigma, seed)
    tol = solver.spec.tol
    result = solver.solve()
    u, p = layered_solution(solver.fine)
    assert a_norm_rel_error(solver.fine, result.flux, u) <= 0.2 * tol
    assert np.linalg.norm(result.pressure - p) <= 2.0 * tol * np.linalg.norm(p)


def step3_spectrum(spec, n, monkeypatch):
    """Eigenvalues of the preconditioned step-3 operator on the level whose PCG vectors have length ``n``.

    ``nested_driver.pcg`` is wrapped: after the real PCG of that level
    returns, its operator ``K`` and preconditioner ``P`` are applied to
    every unit vector.  The gauge directions, eigenvalues below 1e-8 of
    the largest, are dropped.  Returns the others and the level's PCG
    report.
    """
    pcg, formed = nested_driver.pcg, []

    def forming(operator, preconditioner, rhs, **kwargs):
        x, report = pcg(operator, preconditioner, rhs, **kwargs)
        if rhs.size == n:
            eye = np.eye(n)
            k = np.column_stack([operator(e) for e in eye])
            p = np.column_stack([preconditioner(e) for e in eye])
            formed.append((np.linalg.eigvals(p @ k), report))
        return x, report

    monkeypatch.setattr(nested_driver, "pcg", forming)
    NestedSolver(spec).solve()
    ((eigs, report),) = formed
    eigs = eigs[np.abs(eigs) > 1e-8 * np.abs(eigs).max()]
    assert np.abs(eigs.imag).max() <= 1e-12
    return eigs.real, report


@pytest.mark.parametrize(
    "spec, n, kappa",
    [
        (ExperimentSpec(levels=3, ratio=3), 515, 2.635),
        (ExperimentSpec(levels=2, ratio=6, base=3), 83, 2.216),
        (ExperimentSpec(levels=3, ratio=3, base=2, coeff="jump-right", k1=37.0, k3=0.05), 218, 1.949),
    ],
    ids=["table1-ratio3-L3", "L2-ratio6-base3", "jump-right-L3-base2"],
)
def test_exact_condition_number(spec, n, kappa, monkeypatch):
    # The smallest eigenvalue of the preconditioned operator is 1, the
    # BDDC lower bound, which holds with equality (Mandel, Dohrmann &
    # Tezaur, Appl. Numer. Math. 54, 2005): |lambda_min - 1| read 1.3e-14,
    # 2.0e-13 and 5.4e-15 on these cases.  PCG's Lanczos estimate reads
    # low: 2.069, 1.434 and 1.947.
    eigs, report = step3_spectrum(spec, n, monkeypatch)
    exact = eigs.max() / eigs.min()
    assert abs(eigs.min() - 1.0) <= 1e-12
    assert report.cond_estimate <= exact
    assert exact == pytest.approx(kappa, abs=1e-3)
