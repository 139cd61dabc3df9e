"""Symmetric-indefinite factorizations and the bordered saddle/KKT layout.

All constrained energy minimisations in the solver share one bordered
layout with variables (flux w, pressure multiplier p, gauge multiplier beta,
constraint multipliers lambda):

    [ A   B^T  0   C^T ] [w]      [rhs_flux]
    [ B   0    a   0   ] [p]   =  [rhs_div]
    [ 0   a^T  0   0   ] [beta]   [0]
    [ C   0    0   0   ] [lam]    [constraint data]

The gauge column ``a`` (area weights) pins the pressure mean and absorbs the
constant in the divergence rows, so the same assembly serves global solves,
subdomain interior solves and the constrained coarse-basis problems.  It is
assembled in the blocks' own format (dense array or CSR) and factored
exactly: dense LU up to ``DENSE_LIMIT`` rows, SuperLU above.  Callers that
solve one small system many times (the BDDC subdomain groups) form a dense
solution operator from one ``Factorization.solve`` on identity columns; the
pivot check in ``Factorization`` has run by then, so no operator is formed
from a rejected factorization.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "SaddleError",
    "SingularMatrixError",
    "IncompatibleRhsError",
    "Factorization",
    "KktSystem",
]

# Dense factorization below this size; sparse LU above.
DENSE_LIMIT = 600
PIVOT_RTOL = 1e-12


class SaddleError(Exception):
    pass


class SingularMatrixError(SaddleError):
    """Numerically singular matrix, typically a missing gauge constraint."""


class IncompatibleRhsError(SaddleError):
    """Right-hand side inconsistent with the constraint rows."""


class Factorization:
    """LU factorization of a (usually symmetric indefinite) matrix.

    Dense partial-pivoting LU for small systems, SuperLU beyond
    ``DENSE_LIMIT`` rows.  Immutable after construction; concurrent solves
    against one factorization are safe.
    """

    def __init__(self, matrix):
        if not sp.issparse(matrix):
            matrix = np.asarray(matrix, dtype=float)
        n = matrix.shape[0]
        if matrix.shape != (n, n):
            raise SaddleError("matrix must be square")
        self.n = n
        if n <= DENSE_LIMIT:
            dense = matrix.toarray() if sp.issparse(matrix) else matrix
            with warnings.catch_warnings():
                # singularity is detected below from the pivot ratio
                warnings.simplefilter("ignore", sla.LinAlgWarning)
                lu, piv = sla.lu_factor(dense, check_finite=False)
            self._lu = (lu, piv)
            self._splu = None
            udiag = np.abs(np.diag(lu))
        else:
            try:
                self._splu = spla.splu(sp.csc_matrix(matrix))
            except RuntimeError as exc:  # exactly singular
                raise SingularMatrixError(str(exc)) from exc
            udiag = np.abs(self._splu.U.diagonal())
        umax = udiag.max()
        if umax == 0.0 or udiag.min() < PIVOT_RTOL * umax:
            raise SingularMatrixError(
                f"matrix is numerically singular (pivot ratio below {PIVOT_RTOL:g})"
            )

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[0] != self.n:
            raise SaddleError(f"rhs has {rhs.shape[0]} rows, expected {self.n}")
        if self._splu is None:
            return sla.lu_solve(self._lu, rhs, check_finite=False)
        return self._splu.solve(rhs)


@dataclass
class KktSystem:
    """Bordered saddle system with optional divergence/gauge/constraint blocks.

    ``a_block`` is n x n (SPD on the constraint nullspace), ``b_block`` holds
    the divergence rows (m x n), ``gauge`` the pressure area weights (length
    m) and ``c_block`` extra constraint rows on the flux variables (c x n).
    The blocks are all dense arrays or all sparse matrices.
    """

    a_block: object
    b_block: object = None
    gauge: np.ndarray = None
    c_block: object = None

    def __post_init__(self):
        self.n_flux = self.a_block.shape[0]
        self.n_div = self.b_block.shape[0] if self.b_block is not None else 0
        if self.gauge is not None and self.n_div == 0:
            raise SaddleError("a pressure gauge requires divergence rows")
        self.n_gauge = 1 if self.gauge is not None else 0
        self.n_con = self.c_block.shape[0] if self.c_block is not None else 0
        self.size = self.n_flux + self.n_div + self.n_gauge + self.n_con
        self._fact: Factorization | None = None

    def matrix(self):
        """The bordered matrix: a dense array from dense blocks, CSR from sparse ones."""
        a, b, c = self.a_block, self.b_block, self.c_block
        n, off_g = self.n_flux, self.n_flux + self.n_div
        off_c = off_g + self.n_gauge
        if sp.issparse(a):
            g = None if self.gauge is None else self.gauge[None, :]
            bt, gt, ct = (None if blk is None else blk.T for blk in (b, g, c))
            grid = [
                [a, bt, None, ct],
                [b, None, gt, None],
                [None, g, None, None],
                [c, None, None, None],
            ]
            keep = [True, self.n_div > 0, self.n_gauge > 0, self.n_con > 0]
            rows = [[blk for blk, k in zip(row, keep) if k] for row, k in zip(grid, keep) if k]
            return sp.bmat(rows, format="csr")
        out = np.zeros((self.size, self.size))
        out[:n, :n] = a
        if self.n_div:
            out[n:off_g, :n] = b
            out[:n, n:off_g] = b.T
        if self.n_gauge:
            out[n:off_g, off_g] = self.gauge
            out[off_g, n:off_g] = self.gauge
        if self.n_con:
            out[off_c:, :n] = c
            out[:n, off_c:] = c.T
        return out

    @property
    def factorization(self) -> Factorization:
        if self._fact is None:
            self._fact = Factorization(self.matrix())
        return self._fact

    def solve(self, rhs_flux=None, rhs_div=None):
        """``(flux, pressure, gauge multiplier)`` for flux and divergence data."""
        n, off_g = self.n_flux, self.n_flux + self.n_div
        rhs = np.zeros(self.size)
        if rhs_flux is not None:
            rhs[:n] = rhs_flux
        if rhs_div is not None:
            rhs[n:off_g] = rhs_div
        x = self.factorization.solve(rhs)
        return x[:n], x[n:off_g], float(x[off_g]) if self.n_gauge else 0.0
