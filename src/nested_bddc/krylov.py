"""Preconditioned conjugate gradients with a Lanczos condition estimate.

The recurrence coefficients assemble the usual Lanczos tridiagonal matrix
whose extreme eigenvalues estimate the spectral condition number of the
preconditioned operator.  An optional per-iteration monitor tracks the
divergence defect of the iterates and aborts when it drifts above its
tolerance, which would indicate broken invariants upstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .errors import NestedBddcError

__all__ = [
    "PcgError",
    "PcgBreakdownError",
    "InvariantViolation",
    "PcgReport",
    "pcg",
    "lanczos_condition",
]

DEFECT_TOL = 1e-9
# <d, Ad> at most this fraction of |d| |Ad| is a direction with no energy.
NO_ENERGY = 1e-12


class PcgError(NestedBddcError):
    pass


class PcgBreakdownError(PcgError):
    """Loss of positive definiteness in the operator or preconditioner."""


class InvariantViolation(PcgError):
    """A monitored invariant (divergence defect) exceeded its tolerance."""


@dataclass
class PcgReport:
    iterations: int = 0
    converged: bool = False
    rel_residuals: list[float] = field(default_factory=list)
    precond_residuals: list[float] = field(default_factory=list)
    alphas: list[float] = field(default_factory=list)
    betas: list[float] = field(default_factory=list)
    div_defects: list[float] = field(default_factory=list)
    cond_estimate: float = 1.0

    def history_rows(self):
        """Per-iteration (iteration, rel_residual, precond_residual, defect) tuples."""
        defects = self.div_defects or [float("nan")] * len(self.rel_residuals)
        for i, (r, z, d) in enumerate(
            zip(self.rel_residuals, self.precond_residuals, defects), start=1
        ):
            yield i, r, z, d


def lanczos_condition(alphas, betas) -> float:
    """Condition number of the Lanczos tridiagonal built from PCG coefficients."""
    alphas = np.asarray(alphas, dtype=float)
    m = len(alphas)
    betas = np.asarray(betas, dtype=float)[: max(m - 1, 0)]
    if m == 0:
        return 1.0
    diag = np.empty(m)
    diag[0] = 1.0 / alphas[0]
    if m > 1:
        diag[1:] = 1.0 / alphas[1:] + betas / alphas[:-1]
        off = np.sqrt(betas) / alphas[:-1]
        eigs = sla.eigvalsh_tridiagonal(diag, off)
    else:
        eigs = diag
    lo, hi = eigs[0], eigs[-1]
    if lo <= 0:
        return float("inf")
    return float(hi / lo)


def pcg(
    operator,
    preconditioner,
    rhs: np.ndarray,
    tol: float = 1e-6,
    maxit: int = 500,
    defect_fn=None,
    norm_fn=np.linalg.norm,
):
    """PCG for a symmetric operator with an SPD preconditioner.

    Where ``<r, Mr>`` or a direction's energy is round-off, the iterate
    plus the preconditioner output is tried against a true residual and
    accepted if it meets ``tol``.  At iteration 1 this accepts a
    right-hand side that one application already solves: a pure pressure
    gradient, which the preconditioner maps to the matching pressure.
    A ``<r, Mr>`` that is not finite (a preconditioner output with NaN or
    infinite entries) raises ``PcgBreakdownError``.

    Parameters
    ----------
    operator, preconditioner:
        Callables mapping a vector to a vector.  The preconditioner must be
        symmetric positive definite on the iterated subspace.
    rhs:
        Right-hand side; the initial guess is zero.
    tol:
        Relative tolerance on the plain residual norm, tested before the
        residual is preconditioned, so ``n`` iterations make ``n`` applies.
        Each iteration also records the M-norm of the residual it starts
        from, relative to the first (``precond_residuals``).
    defect_fn:
        Optional monitor ``defect_fn(x, r)`` evaluated on each iterate ``x``
        and its residual ``r`` (the recursively updated one, or the true
        residual where PCG formed it); values are recorded and checked
        against ``DEFECT_TOL``, except for an output accepted before any
        CG step, whose flux may be round-off.
    norm_fn:
        Norm of a residual, for the stopping test and the recorded
        residuals; the default is the Euclidean norm.  A caller whose
        vectors stand for longer ones passes the norm of those.

    Returns
    -------
    (solution, PcgReport)
    """
    rhs = np.asarray(rhs, dtype=float)
    x = np.zeros_like(rhs)
    report = PcgReport()
    rhs_norm = norm_fn(rhs)
    if rhs_norm == 0.0:
        report.converged = True
        return x, report

    def monitor(x, r, it):
        if defect_fn is None:
            return
        defect = float(defect_fn(x, r))
        report.div_defects.append(defect)
        # No CG step yet: a bare preconditioner output, whose flux may be
        # round-off, so its defect is recorded but not checked.
        if defect > DEFECT_TOL and report.alphas:
            raise InvariantViolation(
                f"divergence defect {defect:.3e} exceeded {DEFECT_TOL:.1e} at iteration {it}"
            )

    r = rhs.copy()
    z = np.asarray(preconditioner(r), dtype=float)
    # Infinities of both signs give a NaN <r, Mr>, which the loop rejects.
    with np.errstate(invalid="ignore"):
        rz = float(r @ z)
    rz0 = rz
    d = z.copy()

    for it in range(1, maxit + 1):
        if not np.isfinite(rz):
            raise PcgBreakdownError(f"<r, Mr> = {rz} is not finite: preconditioner output not finite")
        # The M-norm of the residual this iteration starts from.
        report.precond_residuals.append(float(np.sqrt(max(rz, 0.0) / rz0)) if rz0 > 0 else 0.0)
        if rz > 0.0:
            od = np.asarray(operator(d), dtype=float)
            dod = float(d @ od)
            no_energy = dod <= NO_ENERGY * np.linalg.norm(d) * np.linalg.norm(od)
        if rz <= 0.0 or no_energy:
            # Residual annihilated by the preconditioner (pure multiplier
            # content, <r, Mr> ~ 0), or a direction with no energy, which
            # follows when <r, Mr> is round-off of either sign: take the
            # preconditioner output directly.
            x_try = x + z
            r_try = rhs - np.asarray(operator(x_try), dtype=float)
            rel = float(norm_fn(r_try) / rhs_norm)
            if rel <= tol:
                x, r = x_try, r_try
                report.iterations = it
                report.rel_residuals.append(rel)
                monitor(x, r, it)
                report.converged = True
                break
            if rz <= 0.0:
                if abs(rz) <= 1e-16 * abs(rz0):
                    # Stagnated at round-off level: no iteration was made,
                    # report non-convergence.
                    report.precond_residuals.pop()
                    break
                raise PcgBreakdownError(
                    f"<r, Mr> = {rz:.3e} < 0 before convergence: preconditioner not SPD"
                )
            if dod <= 0.0:
                raise PcgBreakdownError(
                    f"<d, Ad> = {dod:.3e} <= 0: operator not SPD on the Krylov space"
                )
            # a small but positive energy: take the step
        alpha = rz / dod
        x += alpha * d
        r -= alpha * od
        report.alphas.append(alpha)
        report.iterations = it

        rel = float(norm_fn(r) / rhs_norm)
        report.rel_residuals.append(rel)
        monitor(x, r, it)
        if rel <= tol:
            report.converged = True
            break

        z = np.asarray(preconditioner(r), dtype=float)
        with np.errstate(invalid="ignore"):
            rz_next = float(r @ z)
        if rz_next <= 0.0:
            # handled at the top of the next pass (stagnation or breakdown)
            rz = rz_next
            continue
        beta = rz_next / rz
        report.betas.append(beta)
        d = z + beta * d
        rz = rz_next

    report.cond_estimate = lanczos_condition(report.alphas, report.betas)
    return x, report
