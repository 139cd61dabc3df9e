"""PCG behaviour and the Lanczos condition estimate."""

import numpy as np
import pytest

from nested_bddc.krylov import (
    InvariantViolation,
    PcgBreakdownError,
    lanczos_condition,
    pcg,
)


def matvec(m):
    return lambda x: m @ x


def test_exact_preconditioner_one_iteration(rng):
    m = rng.standard_normal((6, 6))
    a = m @ m.T + 6 * np.eye(6)
    a_inv = np.linalg.inv(a)
    b = rng.standard_normal(6)
    x, report = pcg(matvec(a), matvec(a_inv), b, tol=1e-10)
    assert report.converged
    assert report.iterations == 1
    assert report.cond_estimate == pytest.approx(1.0, abs=1e-10)
    assert np.allclose(x, a_inv @ b, atol=1e-9)


def test_finite_termination_2x2():
    a = np.array([[3.0, 1.0], [1.0, 2.0]])
    b = np.array([1.0, -1.0])
    x, report = pcg(matvec(a), lambda v: v.copy(), b, tol=1e-12)
    assert report.converged
    assert report.iterations <= 2
    assert np.allclose(a @ x, b, atol=1e-10)


def test_diagonal_two_eigenvalues_condition():
    a = np.diag([1.0, 10.0])
    b = np.array([1.0, 1.0])
    x, report = pcg(matvec(a), lambda v: v.copy(), b, tol=1e-14)
    assert report.iterations == 2
    assert report.cond_estimate == pytest.approx(10.0, rel=1e-10)


def test_zero_rhs_returns_immediately():
    a = np.eye(3)
    x, report = pcg(matvec(a), lambda v: v.copy(), np.zeros(3))
    assert report.converged
    assert report.iterations == 0
    assert report.cond_estimate == 1.0
    assert np.array_equal(x, np.zeros(3))


def test_converged_estimate_matches_dense_spectrum(rng):
    # full Krylov run on a small SPD pair recovers the spectrum extremes
    m = rng.standard_normal((8, 8))
    a = m @ m.T + 8 * np.eye(8)
    d = np.diag(rng.uniform(0.5, 2.0, 8))
    b = rng.standard_normal(8)
    x, report = pcg(matvec(a), matvec(d), b, tol=1e-14, maxit=16)
    exact = np.sort(np.linalg.eigvals(d @ a).real)
    assert report.cond_estimate == pytest.approx(exact[-1] / exact[0], rel=0.05)
    # interlacing: the estimate never exceeds the true condition number
    assert report.cond_estimate <= exact[-1] / exact[0] * (1 + 1e-10)


def test_monotone_energy_error(rng):
    m = rng.standard_normal((12, 12))
    a = m @ m.T + 12 * np.eye(12)
    b = rng.standard_normal(12)
    exact = np.linalg.solve(a, b)
    errors = []
    for k in range(1, len(b) + 1):
        x, _ = pcg(matvec(a), lambda v: v.copy(), b, tol=1e-12, maxit=k)
        e = x - exact
        errors.append(e @ a @ e)
    assert all(e2 <= e1 * (1 + 1e-12) for e1, e2 in zip(errors, errors[1:]))


def test_indefinite_operator_detected(rng):
    a = np.diag([1.0, -1.0])
    b = np.array([1.0, 1.0])
    with pytest.raises(PcgBreakdownError):
        pcg(matvec(a), lambda v: v.copy(), b)


def test_indefinite_preconditioner_detected():
    a = np.eye(2)
    m = np.diag([1.0, -1.0])
    with pytest.raises(PcgBreakdownError):
        pcg(matvec(a), matvec(m), np.array([0.0, 1.0]))


@pytest.mark.parametrize("call", [0, 1], ids=["first-apply", "second-apply"])
@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_preconditioner_output_detected(value, call):
    # A non-finite <r, Mr> is a breakdown, whether it comes from the start
    # residual or from a later one.
    calls = []

    def precond(v):
        calls.append(1)
        return np.full_like(v, value) if len(calls) > call else v.copy()

    with pytest.raises(PcgBreakdownError):
        pcg(matvec(np.diag([1.0, 2.0, 3.0, 4.0])), precond, np.ones(4))
    assert len(calls) == call + 1


def test_defect_monitor_recorded_and_enforced(rng):
    a = np.diag([1.0, 2.0, 3.0])
    b = np.ones(3)
    x, report = pcg(matvec(a), lambda v: v.copy(), b, defect_fn=lambda x, r: 0.0)
    assert report.div_defects == [0.0] * report.iterations
    with pytest.raises(InvariantViolation):
        pcg(matvec(a), lambda v: v.copy(), b, defect_fn=lambda x, r: 1.0)


def test_lanczos_condition_edge_cases():
    assert lanczos_condition([], []) == 1.0
    assert lanczos_condition([0.5], []) == 1.0
    # two-step recurrence for diag(1, 10) with rhs (1, 1): alpha/beta known
    a = np.diag([1.0, 10.0])
    b = np.array([1.0, 1.0])
    _, report = pcg(matvec(a), lambda v: v.copy(), b, tol=1e-14)
    k = lanczos_condition(report.alphas, report.betas)
    assert k == pytest.approx(10.0, rel=1e-10)


def test_history_rows_shape():
    a = np.diag([1.0, 4.0])
    _, report = pcg(matvec(a), lambda v: v.copy(), np.array([1.0, 1.0]), tol=1e-14)
    rows = list(report.history_rows())
    assert len(rows) == report.iterations
    assert rows[0][0] == 1


def test_operator_applied_once_per_iteration(rng):
    # one product per CG step: the direction's, which also updates the
    # residual
    m = rng.standard_normal((12, 12))
    a = m @ m.T + 12 * np.eye(12)
    b = rng.standard_normal(12)
    calls = []

    def operator(x):
        calls.append(1)
        return a @ x

    x, report = pcg(operator, lambda v: v.copy(), b, tol=1e-12, maxit=50)
    assert report.converged
    assert len(calls) == report.iterations
    assert np.allclose(x, np.linalg.solve(a, b), atol=1e-10)


def test_preconditioner_applied_once_per_iteration(rng):
    # The stopping test comes before the apply: a run of n iterations
    # preconditions n residuals, the right-hand side and the residuals of
    # the n - 1 steps that did not converge, and records the M-norm of
    # each, relative to the first.
    m = rng.standard_normal((12, 12))
    a = m @ m.T + 12 * np.eye(12)
    b = rng.standard_normal(12)
    calls = []

    def preconditioner(r):
        calls.append(1)
        return r / np.diag(a)

    x, report = pcg(matvec(a), preconditioner, b, tol=1e-12, maxit=50)
    assert report.converged
    assert len(calls) == report.iterations
    assert len(report.precond_residuals) == report.iterations
    assert report.precond_residuals[0] == 1.0
    assert np.allclose(x, np.linalg.solve(a, b), atol=1e-10)


def saddle_accept_case():
    """Two fluxes and one pressure: after one step the residual is a pure
    gradient, which the preconditioner maps to the exact pressure with
    <r, Mr> = 0, so PCG ends by accepting that output at iteration 2."""
    a = np.diag([1.0, 2.0])
    b = np.array([[1.0, 1.0]])
    kkt = np.block([[a, b.T], [b, np.zeros((1, 1))]])
    v = np.array([1.0, -1.0])  # divergence-free direction

    def preconditioner(r):
        u = (v @ r[:2]) / 6.0 * v  # twice the exact divergence-free solve
        p = b @ (r[:2] - a @ u) / 2.0
        return np.concatenate([u, p])

    return kkt, preconditioner, np.array([6.0, 0.0, 0.0])


def test_accepted_preconditioner_output_is_recorded_and_checked():
    kkt, preconditioner, rhs = saddle_accept_case()
    x, report = pcg(matvec(kkt), preconditioner, rhs, tol=1e-12, defect_fn=lambda x, r: 0.0)
    assert report.converged
    assert report.iterations == 2
    assert np.allclose(x, np.linalg.solve(kkt, rhs), atol=1e-14)
    assert report.div_defects == [0.0, 0.0]
    assert len(list(report.history_rows())) == report.iterations
    defects = iter([0.0, 1.0])
    with pytest.raises(InvariantViolation, match="at iteration 2"):
        pcg(matvec(kkt), preconditioner, rhs, tol=1e-12, defect_fn=lambda x, r: next(defects))


def test_preconditioner_output_that_solves_is_accepted_at_iteration_1():
    # A pure pressure gradient: the preconditioner maps it to the exact
    # pressure with a zero flux, so <r, Mr> = 0 and iteration 1 accepts the
    # output against a true residual, before any CG step.  The flux of that
    # bare output may be round-off, so its defect is recorded, not checked.
    kkt, preconditioner, _ = saddle_accept_case()
    rhs = np.array([2.0, 2.0, 0.0])
    calls = []

    def operator(x):
        calls.append(1)
        return kkt @ x

    x, report = pcg(operator, preconditioner, rhs, tol=1e-12, defect_fn=lambda x, r: 1.0)
    assert report.converged
    assert report.iterations == 1
    assert report.alphas == []
    assert report.precond_residuals == [0.0]
    assert report.div_defects == [1.0]
    assert len(calls) == 1
    assert np.array_equal(x, [0.0, 0.0, 2.0])


def test_accepts_pressure_gradient_after_several_steps():
    # Two cells with two fluxes each.  A maps each cell's divergence-free
    # direction to a multiple of itself, and the preconditioner scales those
    # directions to the eigenvalues 1/2 and 2, so every CG scalar is dyadic
    # and exact.  After two steps the residual is a pure pressure gradient,
    # <r, Mr> is exactly 0, and iteration 3 accepts the preconditioner output.
    a = np.diag([1.0, 1.0, 2.0, 2.0])
    b = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]])
    kkt = np.block([[a, b.T], [b, np.zeros((2, 2))]])
    div_free = np.array([[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0]]).T
    scale = np.diag([0.25, 0.5])

    def preconditioner(r):
        u = div_free @ (scale @ (div_free.T @ r[:4]))
        p = b @ (r[:4] - a @ u) / 2.0  # B B^T = 2 I
        return np.concatenate([u, p])

    rhs = np.array([2.0, 0.0, 1.0, 0.0, 0.0, 0.0])
    x, report = pcg(matvec(kkt), preconditioner, rhs, tol=1e-12, defect_fn=lambda x, r: 0.0)
    assert report.converged
    assert report.iterations == 3
    assert len(report.alphas) == 2  # iteration 3 takes no CG step
    assert report.precond_residuals[-1] == 0.0
    assert len(list(report.history_rows())) == 3
    assert np.array_equal(kkt @ x, rhs)


@pytest.mark.parametrize("delta", [1e-15, 1e-17])
def test_direction_with_round_off_energy_accepts_preconditioner_output(delta):
    # saddle_accept_case with a preconditioner that leaks a tiny flux along
    # the gradient: after one step <r, Mr> and <d, Ad> are positive
    # round-off instead of 0.  A step along d would be meaningless (with
    # delta 1e-17 it stalls PCG for good), so iteration 2 must accept the
    # preconditioner output, as it does when <d, Ad> reads <= 0.
    kkt, preconditioner, rhs = saddle_accept_case()
    energies = []

    def operator(x):
        energies.append(x @ kkt @ x)
        return kkt @ x

    def leaky(r):
        z = preconditioner(r)
        z[:2] += delta * (r[0] + r[1])
        return z

    x, report = pcg(operator, leaky, rhs, tol=1e-12)
    assert report.converged
    assert report.iterations == 2
    assert len(report.alphas) == 1
    assert 0.0 < energies[1] <= 1e-12
    assert np.allclose(x, np.linalg.solve(kkt, rhs), atol=1e-12)


def test_small_positive_energy_takes_the_step():
    # <d, Ad> is a tiny fraction of |d| |Ad| on a badly conditioned SPD
    # matrix, but the preconditioner output does not solve: PCG takes the
    # normal step rather than raising.
    a = np.diag([1.0, 1e-26])
    b = np.array([1e-13, 1.0])
    x, report = pcg(matvec(a), lambda v: v.copy(), b, tol=1e-10)
    assert report.converged
    assert report.iterations == 2
    assert report.alphas[0] == pytest.approx(5e25)
    assert np.allclose(a @ x, b, atol=1e-12)
