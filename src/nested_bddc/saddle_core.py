"""Symmetric-indefinite factorizations and the gauged saddle/KKT layout.

Every local and global saddle solve in the solver shares one gauged layout
with variables (flux w, pressure multiplier p, gauge multiplier beta):

    [ A   B^T  0 ] [w]      [rhs_flux]
    [ B   0    a ] [p]   =  [rhs_div]
    [ 0   a^T  0 ] [beta]   [0]

The gauge column ``a`` (area weights) pins the pressure mean and absorbs the
constant in the divergence rows, so the same assembly serves global solves
and subdomain interior solves.  This module alone decides by size class how
such a system is stored, assembled and solved.  ``KktSystem`` takes its
blocks in any format and keeps them as dense arrays up to ``DENSE_LIMIT``
rows of the whole system, as CSR above, and factors the system once, at
construction.  ``Factorization`` applies the same rule to any square matrix
(the BDDC face systems included): up to ``DENSE_LIMIT`` rows it forms the
explicit inverse once, from LAPACK's partial-pivoting LU (``dgetrf``, then
``dgetri`` on that LU, called directly) and after the pivot check, and
every solve is a matrix product; above, SuperLU solves.
``solve_leading`` serves callers whose data sits in the leading rows and
who read back only leading unknowns (the BDDC subdomain groups): one
product with a corner of the inverse, or one zero-padded SuperLU solve.
``Factorization.leading_stack`` stacks those corners for several dense
factorizations, so that one stacked product solves for all of them (the
BDDC batches of groups); with all rows and columns it is their inverses,
transposed (the BDDC face systems').
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dgetrf, dgetri

from .errors import NestedBddcError

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


class SaddleError(NestedBddcError):
    pass


class SingularMatrixError(SaddleError):
    """Numerically singular matrix, typically a missing gauge constraint."""


class IncompatibleRhsError(SaddleError):
    """Right-hand side inconsistent with the constraint rows."""


class Factorization:
    """Direct solver of a (usually symmetric indefinite) matrix.

    Dense explicit inverse for small systems, SuperLU beyond ``DENSE_LIMIT``
    rows (``dense`` tells which).  Immutable after construction; concurrent
    solves against one factorization are safe.
    """

    def __init__(self, matrix):
        if not sp.issparse(matrix):
            matrix = np.asarray(matrix, dtype=float)
        n = matrix.shape[0]
        if matrix.shape != (n, n):
            raise SaddleError("matrix must be square")
        self.n = n
        self.dense = n <= DENSE_LIMIT
        if self.dense:
            # an exactly zero pivot (dgetrf's info > 0) fails the check below
            lu, piv, _ = dgetrf(matrix.toarray() if sp.issparse(matrix) else matrix)
            udiag = np.abs(np.diag(lu))
        else:
            try:
                self._splu = spla.splu(sp.csc_matrix(matrix))
            except RuntimeError as exc:  # exactly singular
                raise SingularMatrixError(str(exc)) from exc
            udiag = np.abs(self._splu.U.diagonal())
        umax = udiag.max()
        # written so that NaN pivots, whose comparisons are false, fail it
        if not (umax > 0.0 and udiag.min() >= PIVOT_RTOL * umax):
            raise SingularMatrixError(
                f"matrix is numerically singular (pivot ratio below {PIVOT_RTOL:g})"
            )
        if self.dense:
            self._inv, _ = dgetri(lu, piv, overwrite_lu=True)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[0] != self.n:
            raise SaddleError(f"rhs has {rhs.shape[0]} rows, expected {self.n}")
        if self.dense:
            return self._inv @ rhs
        return self._splu.solve(rhs)

    def solve_leading(self, rows: np.ndarray, m: int, out=None) -> np.ndarray:
        """Leading ``m`` unknowns for data in the leading rows of the system.

        One row of ``rows`` (and of the result) per right-hand side; the
        rows past ``rows.shape[1]`` of each right-hand side are zero.  The
        result goes to ``out`` when given, an array of that shape (a view
        of a caller's buffer, say), which is returned.
        """
        k = rows.shape[1]
        if k > self.n:
            raise SaddleError(f"data has {k} rows, the system {self.n}")
        if self.dense:
            return np.matmul(rows, self._inv[:m, :k].T, out=out)
        rhs = np.zeros((self.n, len(rows)))
        rhs[:k] = rows.T
        if out is None:
            return self.solve(rhs)[:m].T
        out[...] = self.solve(rhs)[:m].T
        return out

    @staticmethod
    def leading_stack(factorizations, m: int, k: int):
        """The operators of ``solve_leading(rows, m)`` for ``k`` data rows, one per factorization.

        A ``(len(factorizations), k, m)`` stack: ``np.matmul(rows,
        stack)``, with one stack of ``k``-column data rows per
        factorization, is each one's ``solve_leading``, bit for bit.  A
        view of the one inverse when all factorizations are the same one.
        ``None`` when one is above ``DENSE_LIMIT``, whose solves are
        SuperLU's.
        """
        if not all(f.dense for f in factorizations):
            return None
        first = factorizations[0]
        if all(f is first for f in factorizations):
            return np.broadcast_to(first._inv[:m, :k].T, (len(factorizations), k, m))
        # LAPACK's inverse is Fortran-ordered, so solve_leading's operand
        # is row-major, as these copies are: BLAS takes both the same way,
        # and a one-row product sums in an order that depends on it.
        return np.array([f._inv[:m, :k].T for f in factorizations])


@dataclass
class KktSystem:
    """Gauged saddle system.

    ``a_block`` is n x n (SPD on the divergence-free subspace), ``b_block``
    holds the divergence rows (m x n) and ``gauge`` the pressure area
    weights (length m).  The blocks may come as arrays or sparse matrices;
    they are kept as dense arrays when the whole system has at most
    ``DENSE_LIMIT`` rows (``dense``) and as CSR above, and the system is
    factored at construction, so a singular one is rejected there.
    """

    a_block: object
    b_block: object
    gauge: np.ndarray

    def __post_init__(self):
        self.n_flux = self.a_block.shape[0]
        self.n_div = self.b_block.shape[0]
        self.size = self.n_flux + self.n_div + 1
        self.dense = self.size <= DENSE_LIMIT
        blocks = (self.a_block, self.b_block)
        if self.dense:
            blocks = [m.toarray() if sp.issparse(m) else m for m in blocks]
        else:
            blocks = [sp.csr_matrix(m) for m in blocks]
        self.a_block, self.b_block = blocks
        self.factorization = Factorization(self.matrix())

    def matrix(self):
        """The gauged matrix, a dense array or CSR like the stored blocks."""
        a, b, g = self.a_block, self.b_block, self.gauge
        if not self.dense:
            g = g[None, :]
            return sp.bmat([[a, b.T, None], [b, None, g.T], [None, g, None]], format="csr")
        n, off_g = self.n_flux, self.n_flux + self.n_div
        out = np.zeros((self.size, self.size))
        out[:n, :n] = a
        out[n:off_g, :n] = b
        out[:n, n:off_g] = b.T
        out[n:off_g, off_g] = g
        out[off_g, n:off_g] = g
        return out

    def solve(self, rhs_flux=None, rhs_div=None):
        """``(flux, pressure, gauge multiplier)`` for flux and divergence data."""
        n, off_g = self.n_flux, self.n_flux + self.n_div
        rhs = np.zeros(self.size)
        if rhs_flux is not None:
            rhs[:n] = rhs_flux
        if rhs_div is not None:
            rhs[n:off_g] = rhs_div
        x = self.factorization.solve(rhs)
        return x[:n], x[n:off_g], float(x[off_g])
