"""Symmetric-indefinite factorizations and constrained saddle/KKT solves.

All constrained energy minimisations in the solver share one bordered
layout with variables (flux w, pressure multiplier p, gauge multiplier beta,
constraint multipliers lambda):

    [ A   B^T  0   C^T ] [w]      [rhs_flux]
    [ B   0    a   0   ] [p]   =  [rhs_div]
    [ 0   a^T  0   0   ] [beta]   [rhs_gauge]
    [ C   0    0   0   ] [lam]    [rhs_constraints]

The gauge column ``a`` (area weights) pins the pressure mean and absorbs the
constant in the divergence rows, so the same assembly serves global solves,
subdomain interior solves and the constrained coarse-basis problems.
Constraints are always enforced exactly by direct factorization: dense LU
up to ``DENSE_LIMIT`` rows, SuperLU above.  Callers that solve one small
system many times (the BDDC subdomain groups) form a dense solution
operator from one ``Factorization.solve`` on identity columns; the pivot
check in ``Factorization`` has run by then, so no operator is formed from a
rejected factorization.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

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
    "KktSolution",
    "factor_indefinite",
    "pressure_gauge",
]

# Dense factorization below this size; sparse LU above.
DENSE_LIMIT = 600
PIVOT_RTOL = 1e-12
SYMMETRY_RTOL = 1e-10


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
        if sp.issparse(matrix):
            n = matrix.shape[0]
        else:
            matrix = np.asarray(matrix, dtype=float)
            n = matrix.shape[0]
        if matrix.shape != (n, n):
            raise SaddleError("matrix must be square")
        self.n = n
        if n == 0:
            self._mode = "empty"
            return
        if n <= DENSE_LIMIT:
            dense = matrix.toarray() if sp.issparse(matrix) else matrix
            with warnings.catch_warnings():
                # singularity is detected below from the pivot ratio
                warnings.simplefilter("ignore", sla.LinAlgWarning)
                lu, piv = sla.lu_factor(dense, check_finite=False)
            self._mode = "dense"
            self._lu = (lu, piv)
            udiag = np.abs(np.diag(lu))
        else:
            csc = sp.csc_matrix(matrix)
            try:
                self._splu = spla.splu(csc)
            except RuntimeError as exc:  # exactly singular
                raise SingularMatrixError(str(exc)) from exc
            self._mode = "sparse"
            udiag = np.abs(self._splu.U.diagonal())
        umax = udiag.max() if len(udiag) else 0.0
        if umax == 0.0 or udiag.min() < PIVOT_RTOL * umax:
            raise SingularMatrixError(
                f"matrix is numerically singular (pivot ratio below {PIVOT_RTOL:g})"
            )

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[0] != self.n:
            raise SaddleError(f"rhs has {rhs.shape[0]} rows, expected {self.n}")
        if self._mode == "empty":
            return rhs.copy()
        if self._mode == "dense":
            return sla.lu_solve(self._lu, rhs, check_finite=False)
        return self._splu.solve(rhs)


def _check_symmetric(matrix) -> None:
    if sp.issparse(matrix):
        d = matrix - matrix.T
        dev = np.abs(d.data).max() if d.nnz else 0.0
        scale = np.abs(matrix.data).max() if matrix.nnz else 1.0
    else:
        matrix = np.asarray(matrix)
        dev = np.abs(matrix - matrix.T).max() if matrix.size else 0.0
        scale = np.abs(matrix).max() if matrix.size else 1.0
    if dev > SYMMETRY_RTOL * max(scale, 1.0):
        raise SaddleError("matrix is not symmetric")


def factor_indefinite(matrix) -> Factorization:
    """Factor a symmetric (possibly indefinite) matrix for repeated solves."""
    _check_symmetric(matrix)
    return Factorization(matrix)


class KktSolution(NamedTuple):
    flux: np.ndarray
    pressure: np.ndarray
    gauge: float
    multipliers: np.ndarray


@dataclass
class KktSystem:
    """Bordered saddle system with optional divergence/gauge/constraint blocks.

    ``a_block`` is n x n (SPD on the constraint nullspace), ``b_block`` holds
    the divergence rows (m x n), ``gauge`` the pressure area weights (length
    m) and ``c_block`` extra constraint rows on the flux variables (c x n).
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

    def matrix(self) -> sp.csr_matrix:
        off_p = self.n_flux
        off_g = off_p + self.n_div
        off_c = off_g + self.n_gauge
        parts = []

        def put(block, r0, c0):
            coo = sp.coo_matrix(block)
            parts.append((coo.row + r0, coo.col + c0, coo.data))

        put(self.a_block, 0, 0)
        if self.n_div:
            put(self.b_block, off_p, 0)
            put(sp.coo_matrix(self.b_block).T, 0, off_p)
        if self.n_gauge:
            a = np.asarray(self.gauge, dtype=float)
            rows = np.arange(self.n_div)
            put(sp.coo_matrix((a, (rows, np.zeros(self.n_div, dtype=int))), shape=(self.n_div, 1)), off_p, off_g)
            put(sp.coo_matrix((a, (np.zeros(self.n_div, dtype=int), rows)), shape=(1, self.n_div)), off_g, off_p)
        if self.n_con:
            put(self.c_block, off_c, 0)
            put(sp.coo_matrix(self.c_block).T, 0, off_c)
        rows = np.concatenate([p[0] for p in parts])
        cols = np.concatenate([p[1] for p in parts])
        data = np.concatenate([p[2] for p in parts])
        return sp.coo_matrix((data, (rows, cols)), shape=(self.size, self.size)).tocsr()

    @property
    def factorization(self) -> Factorization:
        if self._fact is None:
            self._fact = Factorization(self.matrix())
        return self._fact

    def _pack(self, rhs_flux, rhs_div, rhs_gauge, rhs_constraints, width=None):
        shape = (self.size,) if width is None else (self.size, width)
        rhs = np.zeros(shape)
        if rhs_flux is not None:
            rhs[: self.n_flux] = rhs_flux
        if rhs_div is not None:
            rhs[self.n_flux : self.n_flux + self.n_div] = rhs_div
        off_g = self.n_flux + self.n_div
        if rhs_gauge is not None:
            rhs[off_g : off_g + self.n_gauge] = rhs_gauge
        if rhs_constraints is not None:
            rhs[off_g + self.n_gauge :] = rhs_constraints
        return rhs

    def split(self, x: np.ndarray) -> KktSolution:
        off_p = self.n_flux
        off_g = off_p + self.n_div
        off_c = off_g + self.n_gauge
        gauge = float(x[off_g]) if self.n_gauge else 0.0
        return KktSolution(x[:off_p], x[off_p:off_g], gauge, x[off_c:])

    def solve(
        self,
        rhs_flux=None,
        rhs_div=None,
        rhs_gauge=None,
        rhs_constraints=None,
    ) -> KktSolution:
        rhs = self._pack(rhs_flux, rhs_div, rhs_gauge, rhs_constraints)
        return self.split(self.factorization.solve(rhs))

    def solve_many(self, rhs_matrix: np.ndarray) -> np.ndarray:
        """Solve for several packed right-hand sides at once (columns)."""
        return self.factorization.solve(rhs_matrix)


def pressure_gauge(areas, region=None) -> np.ndarray:
    """Area-weighted mean-zero row over the whole domain or one region.

    ``areas`` is the per-cell area vector or any object carrying one as an
    ``areas`` attribute (an assembled system, say); ``region`` restricts the
    row to a subset of cells.
    """
    areas = np.asarray(getattr(areas, "areas", areas), dtype=float)
    if region is None:
        if areas.size == 0:
            raise SaddleError("empty gauge region")
        return areas.copy()
    region = np.asarray(region)
    if region.size == 0:
        raise SaddleError("empty gauge region")
    row = np.zeros(areas.shape)
    row[region] = areas[region]
    return row
