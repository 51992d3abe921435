"""Tests for the convex-QP interior-point solver, cross-checked against the
independent dense reference implementation."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SolverError
from repro.baselines import reference_qp_objective, reference_solve_qp
from repro.batch.backend import HOST
from repro.batch.qp import _max_step_batch
from repro.mpc.qp import QPOptions, solve_qp


def spd(n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    return scale * (A @ A.T + n * np.eye(n))


class TestUnconstrained:
    def test_quadratic_minimum(self):
        H = np.diag([2.0, 4.0])
        g = np.array([-2.0, -4.0])
        res = solve_qp(H, g, None, None, None, None)
        assert res.converged
        assert np.allclose(res.x, [1.0, 1.0], atol=1e-6)

    def test_shape_mismatch_raises(self):
        with pytest.raises(SolverError):
            solve_qp(np.eye(3), np.zeros(2), None, None, None, None)


class TestEqualityConstrained:
    def test_projection(self):
        H = 2 * np.eye(2)
        g = np.zeros(2)
        G = np.array([[1.0, 1.0]])
        b = np.array([1.0])
        res = solve_qp(H, g, G, b, None, None)
        assert res.converged
        assert np.allclose(res.x, [0.5, 0.5], atol=1e-8)

    def test_multiplier_stationarity(self):
        n = 6
        H = spd(n, 3)
        g = np.linspace(-1, 1, n)
        G = np.vstack([np.ones(n), np.arange(n, dtype=float)])
        b = np.array([1.0, 2.0])
        res = solve_qp(H, g, G, b, None, None)
        assert res.converged
        # Stationarity: H x + g + G^T nu = 0
        assert np.allclose(H @ res.x + g + G.T @ res.nu, 0.0, atol=1e-6)
        assert np.allclose(G @ res.x, b, atol=1e-8)

    def test_bad_rhs_shape(self):
        with pytest.raises(SolverError):
            solve_qp(np.eye(2), np.zeros(2), np.ones((1, 2)), np.ones(2), None, None)


class TestInequalityConstrained:
    def test_active_bound(self):
        # min (x-2)^2 s.t. x <= 1 -> x = 1, lam = 2
        H = np.array([[2.0]])
        g = np.array([-4.0])
        J = np.array([[1.0]])
        d = np.array([1.0])
        res = solve_qp(H, g, None, None, J, d)
        assert res.converged
        assert res.x[0] == pytest.approx(1.0, abs=1e-6)
        assert res.lam[0] == pytest.approx(2.0, abs=1e-4)

    def test_inactive_bound_zero_multiplier(self):
        H = np.array([[2.0]])
        g = np.array([-4.0])  # minimum at 2
        J = np.array([[1.0]])
        d = np.array([10.0])  # never active
        res = solve_qp(H, g, None, None, J, d)
        assert res.converged
        assert res.x[0] == pytest.approx(2.0, abs=1e-6)
        assert res.lam[0] == pytest.approx(0.0, abs=1e-5)

    def test_box_constrained_matches_reference(self):
        n = 5
        H = spd(n, 11)
        rng = np.random.default_rng(4)
        g = rng.normal(size=n)
        J = np.vstack([np.eye(n), -np.eye(n)])
        d = np.full(2 * n, 0.3)
        res = solve_qp(H, g, None, None, J, d)
        x_ref, _, _ = reference_solve_qp(H, g, None, None, J, d)
        assert res.converged
        assert np.allclose(res.x, x_ref, atol=1e-5)

    def test_slacks_positive(self):
        H = np.eye(3)
        g = -np.ones(3)
        J = np.eye(3)
        d = np.full(3, 0.5)
        res = solve_qp(H, g, None, None, J, d)
        assert np.all(res.slacks >= 0)
        assert np.all(res.lam >= 0)


class TestFullyConstrained:
    def test_matches_reference(self):
        n = 8
        H = spd(n, 21)
        rng = np.random.default_rng(5)
        g = rng.normal(size=n)
        G = rng.normal(size=(2, n))
        b = rng.normal(size=2)
        J = np.vstack([np.eye(n), -np.eye(n)])
        d = np.full(2 * n, 2.0)
        res = solve_qp(H, g, G, b, J, d)
        x_ref, _, _ = reference_solve_qp(H, g, G, b, J, d)
        assert res.converged
        assert np.allclose(res.x, x_ref, atol=1e-5)
        assert reference_qp_objective(H, g, res.x) <= (
            reference_qp_objective(H, g, x_ref) + 1e-6
        )

    def test_equality_feasibility(self):
        n = 6
        H = spd(n, 31)
        g = np.zeros(n)
        G = np.array([[1.0] * n])
        b = np.array([3.0])
        J = np.eye(n)
        d = np.ones(n)
        res = solve_qp(H, g, G, b, J, d)
        assert res.converged
        assert float((G @ res.x)[0]) == pytest.approx(3.0, abs=1e-7)
        assert np.all(res.x <= 1.0 + 1e-6)


class TestOptions:
    def test_invalid_tau(self):
        with pytest.raises(SolverError):
            QPOptions(tau=1.5)

    def test_invalid_max_iterations(self):
        with pytest.raises(SolverError):
            QPOptions(max_iterations=0)

    def test_iteration_cap_respected(self):
        H = spd(20, 7)
        g = np.ones(20)
        J = np.vstack([np.eye(20), -np.eye(20)])
        d = np.full(40, 0.1)
        res = solve_qp(H, g, None, None, J, d, QPOptions(max_iterations=2))
        assert res.iterations <= 2


@given(
    n=st.integers(2, 8),
    seed=st.integers(0, 500),
    box=st.floats(0.2, 3.0),
)
@settings(max_examples=40, deadline=None)
def test_property_box_qp_agrees_with_reference(n, seed, box):
    H = spd(n, seed)
    rng = np.random.default_rng(seed + 1)
    g = rng.normal(size=n)
    J = np.vstack([np.eye(n), -np.eye(n)])
    d = np.full(2 * n, box)
    res = solve_qp(H, g, None, None, J, d)
    x_ref, _, _ = reference_solve_qp(H, g, None, None, J, d)
    assert res.converged
    assert np.allclose(res.x, x_ref, atol=1e-4)
    # The solution respects the box.
    assert np.all(np.abs(res.x) <= box + 1e-6)


def _max_step(x, dx, tau):
    """The loop's fraction-to-the-boundary step of one lane:
    ``min(1, tau * _max_step_batch)``."""
    return float(min(1.0, tau * _max_step_batch(HOST, x[None], dx[None])[0]))


class TestMaxStep:
    """The fraction-to-the-boundary step divides only where a full step
    crosses the boundary, so a subnormal ``dx`` cannot overflow."""

    @staticmethod
    def _unguarded(x, dx, tau):
        # the formula that divided by every negative component (``0 - x``
        # as the loop negates: a zero ``x`` gives the ratio ``-0.0``)
        negative = dx < 0
        step = 1.0
        if np.any(negative):
            with np.errstate(over="ignore"):
                step = min(1.0, np.min((0.0 - x[negative]) / dx[negative]))
        return float(min(1.0, tau * step))

    def test_subnormal_dx_does_not_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _max_step(np.array([1.0]), np.array([-5e-324]), 1.0) == 1.0

    def test_bit_identical_to_unguarded_formula(self):
        rng = np.random.default_rng(0)
        scales = np.array([0.0, 5e-324, 1e-310, 1e-12, 1.0, 1e6, 1e300])
        for _ in range(2000):
            n = int(rng.integers(1, 9))
            x = np.abs(rng.standard_normal(n)) * rng.choice(scales, n)
            dx = rng.standard_normal(n) * rng.choice(scales, n)
            tau = float(rng.choice([1.0, 0.995, 0.5, rng.uniform(0.01, 1.0)]))
            want = self._unguarded(x, dx, tau)
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # no overflow for x >= 0
                got = _max_step(x, dx, tau)
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), (
                x, dx, tau
            )

    def test_negative_entries_keep_the_old_semantics(self):
        # x dips below zero only by rounding at tau = 1; a zero or positive
        # dx there is still never divided
        for x, dx in (([-1e-17], [0.0]), ([-1e-17], [1e-20]), ([-1.0], [-2.0])):
            x, dx = np.array(x), np.array(dx)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert _max_step(x, dx, 1.0) == self._unguarded(x, dx, 1.0)
