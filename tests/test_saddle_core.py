"""Factorization and constrained-solve kernel against dense oracles."""

import warnings

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg.lapack import dgetri

from nested_bddc import saddle_core
from nested_bddc.mesh_fem import CoefficientField, assemble_rt0, build_mesh
from nested_bddc.saddle_core import (
    DENSE_LIMIT,
    PIVOT_RTOL,
    Factorization,
    KktSystem,
    SaddleError,
    SingularMatrixError,
)


def gauged_darcy_kkt(nx, source="corner"):
    mesh = build_mesh(nx, nx)
    system = assemble_rt0(mesh, CoefficientField.constant(mesh, 1.0), source=source)
    kkt = KktSystem(system.A, system.B, gauge=system.areas)
    return system, kkt


def bordered(a, c):
    """Energy minimisation under the constraints ``c``, as one bordered matrix."""
    return np.block([[a, c.T], [c, np.zeros((len(c), len(c)))]])


def test_identity_solve():
    fact = Factorization(np.eye(2))
    rhs = np.array([3.0, -1.0])
    assert np.array_equal(fact.solve(rhs), rhs)


def test_permutation_indefinite_solve():
    fact = Factorization(np.array([[0.0, 1.0], [1.0, 0.0]]))
    rhs = np.array([5.0, 7.0])
    assert np.allclose(fact.solve(rhs), [7.0, 5.0])


def test_darcy_gauged_solve_matches_dense_oracle():
    system, kkt = gauged_darcy_kkt(3)
    dense = kkt.matrix()
    rhs = np.zeros(kkt.size)
    rhs[system.n_flux : system.n_flux + system.n_pressure] = system.g
    expected = np.linalg.solve(dense, rhs)
    flux, pressure, gauge = kkt.solve(rhs_div=system.g)
    got = np.concatenate([flux, pressure, [gauge]])
    assert np.linalg.norm(dense @ got - rhs) <= 1e-12 * np.linalg.norm(rhs)
    assert np.allclose(got, expected, atol=1e-11)


def test_singular_matrix_detected():
    with pytest.raises(SingularMatrixError):
        Factorization(np.zeros((2, 2)))
    # pure saddle system without a gauge row is singular
    mesh = build_mesh(2, 2)
    system = assemble_rt0(mesh, CoefficientField.constant(mesh, 1.0))
    with pytest.raises(SingularMatrixError):
        Factorization(sp.bmat([[system.A, system.B.T], [system.B, None]]))


@pytest.mark.parametrize("n", [1, 16, 22, DENSE_LIMIT])
def test_dense_inverse_matches_scipy_lu(n):
    # The dense path calls LAPACK's getrf/getri itself: its inverse is
    # getri's on the LU of scipy's wrapper, bit for bit, and no warning
    # escapes.
    m = np.random.default_rng(n).standard_normal((n, n))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fact = Factorization(m)
        assert fact.dense
        ref = dgetri(*sla.lu_factor(m))[0]
        assert fact._inv.tobytes() == ref.tobytes()
        assert np.array_equal(fact.solve(np.eye(n)), ref)


def test_factorization_follows_the_matrix_format():
    # The matrix's format alone picks the inverse: LAPACK's for an array of
    # any size, SuperLU for a sparse matrix of any size.  DENSE_LIMIT is
    # KktSystem's rule for the format of its blocks, not Factorization's.
    rng = np.random.default_rng(3)
    n = DENSE_LIMIT + 100
    large = rng.standard_normal((n, n)) + n * np.eye(n)
    small = rng.standard_normal((10, 10)) + 10 * np.eye(10)
    for matrix, dense in ((large, True), (sp.csr_matrix(small), False)):
        fact = Factorization(matrix)
        assert fact.dense == dense
        array = matrix.toarray() if sp.issparse(matrix) else matrix
        rhs = rng.standard_normal(len(array))
        want = np.linalg.solve(array, rhs)
        assert np.linalg.norm(fact.solve(rhs) - want) <= 1e-10 * np.linalg.norm(want)


@pytest.mark.parametrize(
    "matrix",
    [
        np.array([[1.0, 2.0], [2.0, 4.0]]),  # an exactly zero pivot
        np.diag([1.0, 0.1 * PIVOT_RTOL, 1.0]),  # a pivot ratio below PIVOT_RTOL
        np.full((3, 3), np.nan),  # NaN pivots compare false with any bound
        np.diag([1.0, np.nan, 1.0]),
    ],
    ids=["exactly-singular", "pivot-ratio", "nan-matrix", "nan-pivot"],
)
def test_dense_singular_rejected_without_warnings(matrix):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularMatrixError):
            Factorization(matrix)


def test_minimal_norm_under_sum_constraint():
    # minimize 0.5*|u|^2 subject to u1 + u2 = 2  ->  (1, 1), through the
    # bordered layout of the BDDC face systems
    fact = Factorization(bordered(np.eye(2), np.array([[1.0, 1.0]])))
    assert np.allclose(fact.solve(np.array([0.0, 0.0, 2.0]))[:2], [1.0, 1.0])


def test_zero_rhs_gives_zero():
    _, kkt = gauged_darcy_kkt(3)
    flux, pressure, _ = kkt.solve()
    assert np.allclose(flux, 0.0)
    assert np.allclose(pressure, 0.0)


def test_energy_minimality_random_feasible_perturbations(rng):
    # constrained minimizer has strictly smaller energy than feasible competitors
    n = 8
    m = rng.standard_normal((n, n))
    a = m @ m.T + n * np.eye(n)
    c = rng.standard_normal((3, n))
    target = rng.standard_normal(3)
    flux = Factorization(bordered(a, c)).solve(np.concatenate([np.zeros(n), target]))[:n]
    base = flux @ a @ flux
    ns = np.linalg.svd(c)[2][3:]  # nullspace basis of the constraints
    for _ in range(10):
        pert = ns.T @ rng.standard_normal(ns.shape[0])
        competitor = flux + pert
        assert np.allclose(c @ competitor, target)
        assert competitor @ a @ competitor > base - 1e-12


def test_gauge_fixes_pressure_constant():
    system, kkt = gauged_darcy_kkt(3)
    flux, pressure, _ = kkt.solve(rhs_div=system.g)
    # ungauged minimum-norm solution differs by a pressure constant only
    n_u, n_p = system.n_flux, system.n_pressure
    dense = np.zeros((n_u + n_p, n_u + n_p))
    dense[:n_u, :n_u] = system.A.toarray()
    dense[n_u:, :n_u] = system.B.toarray()
    dense[:n_u, n_u:] = system.B.toarray().T
    rhs = np.concatenate([np.zeros(n_u), system.g])
    x, *_ = np.linalg.lstsq(dense, rhs, rcond=None)
    assert np.allclose(x[:n_u], flux, atol=1e-9)
    shift = x[n_u:] - pressure
    assert np.ptp(shift) < 1e-9
    # the gauged pressure has zero area-weighted mean
    assert abs(system.areas @ pressure) < 1e-12


def test_incompatible_rhs_flagged_by_gauge_multiplier():
    mesh = build_mesh(3, 3)
    system = assemble_rt0(
        mesh, CoefficientField.constant(mesh, 1.0), source=np.ones(mesh.n_cells)
    )
    kkt = KktSystem(system.A, system.B, gauge=system.areas)
    _, _, gauge = kkt.solve(rhs_div=system.g)
    # the multiplier absorbs exactly the mean of the inconsistent data
    assert abs(gauge) > 1e-3
    from nested_bddc.nested_driver import oracle_direct_solve
    from nested_bddc.saddle_core import IncompatibleRhsError

    with pytest.raises(IncompatibleRhsError):
        oracle_direct_solve(system)


def test_solve_of_multiply_roundtrip(rng):
    system, kkt = gauged_darcy_kkt(10)
    mat = kkt.matrix()
    fact = Factorization(mat)
    for _ in range(3):
        x = rng.standard_normal(kkt.size)
        assert np.linalg.norm(fact.solve(mat @ x) - x) <= 1e-10 * np.linalg.norm(x)


def test_sparse_path_roundtrip(rng):
    # a system big enough to take the sparse branch
    system, kkt = gauged_darcy_kkt(20)
    assert kkt.size > 600
    mat = kkt.matrix()
    fact = kkt.factorization
    x = rng.standard_normal(kkt.size)
    assert np.linalg.norm(fact.solve(mat @ x) - x) <= 1e-9 * np.linalg.norm(x)


def test_factorization_deterministic(rng):
    _, kkt1 = gauged_darcy_kkt(4)
    _, kkt2 = gauged_darcy_kkt(4)
    rhs = rng.standard_normal(kkt1.size)
    assert np.array_equal(kkt1.factorization.solve(rhs), kkt2.factorization.solve(rhs))


def test_solve_many_matches_individual(rng):
    _, kkt = gauged_darcy_kkt(3)
    rhs = rng.standard_normal((kkt.size, 5))
    batch = kkt.factorization.solve(rhs)
    for j in range(5):
        assert np.allclose(batch[:, j], kkt.factorization.solve(rhs[:, j]), atol=1e-13)


def test_dimension_mismatch_rejected():
    fact = Factorization(np.eye(3))
    with pytest.raises(SaddleError):
        fact.solve(np.ones(2))


@pytest.mark.parametrize("nx, dense", [(3, True), (16, False)], ids=["dense", "sparse"])
def test_solve_leading_matches_padded_solve(rng, nx, dense):
    _, kkt = gauged_darcy_kkt(nx)
    fact = kkt.factorization
    assert fact.dense == dense
    n, n_lead = kkt.size, kkt.n_flux + kkt.n_div
    # (right-hand sides, data rows k, unknowns read back m)
    for n_rhs, k, m in [(1, kkt.n_flux, kkt.n_flux), (4, n_lead, 7), (3, n, n), (2, 5, n_lead)]:
        rows = rng.standard_normal((n_rhs, k))
        rhs = np.zeros((n, n_rhs))
        rhs[:k] = rows.T
        ref = fact.solve(rhs)[:m].T
        got = fact.solve_leading(rows, m)
        assert got.shape == (n_rhs, m)
        if dense:
            assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)
        else:
            assert np.array_equal(got, ref)
    with pytest.raises(SaddleError):
        fact.solve_leading(np.ones((1, n + 1)), 1)


def test_leading_stack_matches_solve_leading(rng):
    # One stacked product equals each dense factorization's solve_leading,
    # bit for bit, at the sizes of a ratio-3 subdomain's interior KKT; a
    # stack of one factorization is a view of its inverse, and a sparse
    # factorization has no stack.
    mesh = build_mesh(3, 3)
    facts = [
        KktSystem(system.A, system.B, gauge=system.areas).factorization
        for system in (
            assemble_rt0(mesh, CoefficientField(k), source="corner")
            for k in (np.ones(9), rng.uniform(0.1, 10.0, 9))
        )
    ]
    k, m = 12, 21
    for chosen in ([facts[0]] * 3, [facts[0], facts[1], facts[0]]):
        stack = Factorization.leading_stack(chosen, m, k)
        assert stack.shape == (len(chosen), k, m)
        # one row takes BLAS's matrix-vector kernels, which sum in an order
        # that depends on the operand's layout
        for n_rows in (1, 1500):
            rows = rng.standard_normal((len(chosen), n_rows, k))
            got = np.matmul(rows, stack)
            for fact, data, out in zip(chosen, rows, got):
                assert np.array_equal(out, fact.solve_leading(data, m))
    assert np.shares_memory(Factorization.leading_stack([facts[0]] * 3, m, k), facts[0]._inv)
    sparse = gauged_darcy_kkt(16)[1].factorization
    assert not sparse.dense and Factorization.leading_stack([facts[0], sparse], m, k) is None


def random_blocks(rng):
    n, m = 7, 3
    g = rng.standard_normal((n, n))
    a = g @ g.T
    return dict(
        a_block=(a + a.T) / 2 + n * np.eye(n),
        b_block=rng.standard_normal((m, n)),
        gauge=rng.uniform(0.5, 1.0, m),
    )


def test_dense_assembly_matches_sparse(rng, monkeypatch):
    blocks = random_blocks(rng)
    as_csr = {k: v if k == "gauge" else sp.csr_matrix(v) for k, v in blocks.items()}
    # blocks in either format give the same dense system below DENSE_LIMIT
    kkt = KktSystem(**blocks)
    dense = kkt.matrix()
    assert isinstance(dense, np.ndarray)
    assert np.array_equal(dense, KktSystem(**as_csr).matrix())
    assert np.array_equal(dense, dense.T)
    assert kkt.dense == kkt.factorization.dense
    # and the same CSR system above it
    monkeypatch.setattr(saddle_core, "DENSE_LIMIT", 0)
    for given in (blocks, as_csr):
        kkt = KktSystem(**given)
        sparse = kkt.matrix()
        assert sp.issparse(sparse) and sparse.format == "csr"
        assert np.array_equal(dense, sparse.toarray())
        assert kkt.dense == kkt.factorization.dense
