"""Tests for the from-scratch Cholesky and substitution kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.batch.host import (
    cholesky,
    flop_counts_cholesky,
    flop_counts_substitution,
)
from repro.errors import SolverError
from repro.mpc import (
    backward_substitution,
    cholesky_solve,
    forward_substitution,
)


def random_spd(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    return A @ A.T + n * np.eye(n)


class TestCholesky:
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 25])
    def test_reconstruction(self, n):
        A = random_spd(n, seed=n)
        L = cholesky(A)
        assert np.allclose(L @ L.T, A, atol=1e-9)

    def test_lower_triangular(self):
        A = random_spd(6, seed=1)
        L = cholesky(A)
        assert np.allclose(L, np.tril(L))

    def test_identity(self):
        assert np.allclose(cholesky(np.eye(4)), np.eye(4))

    def test_rejects_indefinite(self):
        A = np.diag([1.0, -1.0])
        with pytest.raises(SolverError, match="positive definite"):
            cholesky(A)

    def test_rejects_non_square(self):
        with pytest.raises(SolverError, match="square"):
            cholesky(np.zeros((2, 3)))

    def test_regularization_rescues_semidefinite(self):
        A = np.zeros((3, 3))
        L = cholesky(A, reg=1e-6)
        assert np.allclose(L @ L.T, 1e-6 * np.eye(3), atol=1e-12)

    def test_matches_numpy(self):
        A = random_spd(12, seed=7)
        assert np.allclose(cholesky(A), np.linalg.cholesky(A), atol=1e-9)


class TestSubstitution:
    def test_forward(self):
        L = np.array([[2.0, 0.0], [1.0, 3.0]])
        b = np.array([4.0, 11.0])
        y = forward_substitution(L, b)
        assert np.allclose(L @ y, b)

    def test_backward(self):
        U = np.array([[2.0, 1.0], [0.0, 3.0]])
        b = np.array([5.0, 6.0])
        x = backward_substitution(U, b)
        assert np.allclose(U @ x, b)

    def test_matrix_rhs(self):
        L = np.tril(random_spd(5, seed=3))
        B = np.arange(10.0).reshape(5, 2)
        Y = forward_substitution(L, B)
        assert Y.shape == (5, 2)
        assert np.allclose(L @ Y, B)

    def test_zero_diagonal_raises(self):
        L = np.array([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(SolverError, match="zero diagonal"):
            forward_substitution(L, np.ones(2))

    def test_backward_zero_diagonal_raises(self):
        U = np.array([[1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(SolverError, match="zero diagonal"):
            backward_substitution(U, np.ones(2))


class TestSolvers:
    @pytest.mark.parametrize("n", [1, 4, 15])
    def test_cholesky_solve(self, n):
        A = random_spd(n, seed=n + 100)
        x_true = np.linspace(-1, 1, n)
        b = A @ x_true
        L = cholesky(A)
        assert np.allclose(cholesky_solve(L, b), x_true, atol=1e-8)

    def test_solve_matrix_rhs(self):
        A = random_spd(6, seed=5)
        B = np.eye(6)
        X = cholesky_solve(cholesky(A), B)
        assert np.allclose(A @ X, B, atol=1e-8)  # X = A^-1


@given(
    n=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=60, deadline=None)
def test_property_solve_roundtrip(n, seed):
    A = random_spd(n, seed)
    rng = np.random.default_rng(seed + 1)
    b = rng.normal(size=n)
    x = cholesky_solve(cholesky(A), b)
    assert np.allclose(A @ x, b, atol=1e-6)


class TestFlopCounts:
    def test_cholesky_counts_scale_cubically(self):
        c8 = flop_counts_cholesky(8)
        c16 = flop_counts_cholesky(16)
        assert c16["mul"] / c8["mul"] > 6  # ~8x for n^3/3

    def test_cholesky_sqrt_once_per_column(self):
        assert flop_counts_cholesky(10)["sqrt"] == 10

    def test_substitution_counts(self):
        c = flop_counts_substitution(10, nrhs=3)
        assert c["div"] == 30
        assert c["mul"] == 3 * 45

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_cholesky_counts_match_instrumented_factorization(self, n):
        """The closed-form counts must equal an op-counting factorization."""
        A = random_spd(n, seed=n)
        counts = {"mul": 0, "add": 0, "div": 0, "sqrt": 0}
        L = np.zeros_like(A)
        for j in range(n):
            acc = A[j, j]
            for k in range(j):
                acc -= L[j, k] * L[j, k]
                counts["mul"] += 1
                counts["add"] += 1
            L[j, j] = np.sqrt(acc)
            counts["sqrt"] += 1
            for i in range(j + 1, n):
                acc = A[i, j]
                for k in range(j):
                    acc -= L[i, k] * L[j, k]
                    counts["mul"] += 1
                    counts["add"] += 1
                L[i, j] = acc / L[j, j]
                counts["div"] += 1
        assert np.allclose(L, cholesky(A), atol=1e-12)
        assert counts == flop_counts_cholesky(n)
