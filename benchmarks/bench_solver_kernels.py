"""Micro-benchmarks of the from-scratch solver kernels.

Times the actual Python implementations of the Eq. 6 pipeline pieces (the
same kernels the paper maps onto the accelerator): Cholesky factorization,
the triangular substitutions, and one full QP interior-point solve.
"""

import numpy as np
import pytest
from conftest import make_rng

from repro.mpc import cholesky, cholesky_solve, forward_substitution
from repro.mpc.qp import solve_qp
from repro.robots import build_benchmark


def spd(n, seed=0):
    rng = make_rng(seed)
    A = rng.normal(size=(n, n))
    return A @ A.T + n * np.eye(n)


@pytest.mark.parametrize("n", [32, 128])
def test_cholesky(benchmark, n):
    A = spd(n)
    L = benchmark(cholesky, A)
    assert np.allclose(L @ L.T, A, atol=1e-8)


@pytest.mark.parametrize("n", [32, 128])
def test_triangular_solve(benchmark, n):
    A = spd(n, seed=1)
    L = cholesky(A)
    b = np.ones(n)
    y = benchmark(forward_substitution, L, b)
    assert np.allclose(L @ y, b, atol=1e-8)


def test_kkt_solve(benchmark):
    """Factor + two substitutions: the per-IPM-iteration core of Eq. 6."""
    n = 96
    A = spd(n, seed=2)
    b = np.ones(n)

    def kkt():
        L = cholesky(A)
        return cholesky_solve(L, b)

    x = benchmark(kkt)
    assert np.allclose(A @ x, b, atol=1e-7)


def test_banded_cholesky_asymptotics(benchmark):
    """The sparsity-exploiting factorization the cost model assumes:
    O(n band^2) instead of O(n^3)."""
    from repro.mpc.banded import banded_cholesky, to_banded

    n, band = 256, 8
    rng = make_rng(9)
    A = np.zeros((n, n))
    for d in range(1, band + 1):
        vals = rng.uniform(-1.0, 1.0, size=n - d)
        idx = np.arange(n - d)
        A[idx + d, idx] = vals
        A[idx, idx + d] = vals
    A += (2.0 * band + 2.0) * np.eye(n)
    Ab = to_banded(A, band)
    L = benchmark(banded_cholesky, Ab)
    assert L.shape == (band + 1, n)


def test_qp_subproblem(benchmark):
    """One Mehrotra IPM solve of a box-constrained QP (SQP inner loop)."""
    n = 60
    H = spd(n, seed=3)
    g = np.linspace(-1, 1, n)
    J = np.vstack([np.eye(n), -np.eye(n)])
    d = np.full(2 * n, 0.5)
    res = benchmark(solve_qp, H, g, None, None, J, d)
    assert res.converged


def test_full_mpc_iteration(benchmark):
    """One warm SQP iteration of the MobileRobot benchmark at N = 32."""
    b = build_benchmark("MobileRobot")
    p = b.transcribe(horizon=32)
    solver = b.make_solver(p, max_iterations=1)
    cold = b.make_solver(p).solve(b.x0, ref=b.ref)

    def one_iteration():
        return solver.solve(b.x0, ref=b.ref, z_warm=cold.z)

    res = benchmark(one_iteration)
    assert res.iterations == 1


def banded_spd(n, band, seed=9):
    rng = make_rng(seed)
    A = np.zeros((n, n))
    for off in range(1, band + 1):
        vals = rng.uniform(-1.0, 1.0, size=n - off)
        idx = np.arange(n - off)
        A[idx + off, idx] = vals
        A[idx, idx + off] = vals
    A += (2.0 * band + 2.0) * np.eye(n)
    return A


@pytest.mark.parametrize("band", [8, 24])
def test_blocked_banded_factor(benchmark, band):
    """The blocked banded factorization the QP hot loop runs per iteration
    (tile Cholesky + precomputed tile inverses), at one lane."""
    from repro.batch.linalg import BatchCholeskyFactor

    n = 512
    A = banded_spd(n, band)[None]
    F = benchmark(BatchCholeskyFactor, A, band)
    assert F.n == n and F.ok[0]


def test_blocked_banded_multi_rhs_solve(benchmark):
    """Banded solve against a wide RHS block — the Schur-complement
    assembly Phi^-1 G^T that dominates the dense path's substitutions."""
    from repro.batch.linalg import BatchCholeskyFactor

    n, band, nrhs = 512, 16, 128
    A = banded_spd(n, band, seed=11)
    F = BatchCholeskyFactor(A[None], band)
    B = np.linspace(-1.0, 1.0, n * nrhs).reshape(1, n, nrhs)
    X = benchmark(F.solve, B)
    assert np.allclose(A @ X[0], B[0], atol=1e-7)
