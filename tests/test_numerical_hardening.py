"""Numerical hardening: bad states, poisoned warm starts, failed factorizations.

The solver stack must convert garbage inputs into *structured* rejections
(:class:`StateValidationError` + :class:`SolverHealth`) and absorb transient
factorization failures through the escalating-regularization retry ladder —
never a raw ``numpy`` warning, never a NaN control input.
"""

import numpy as np
import pytest

from repro.errors import SolverError, StateValidationError
from repro.mpc import MPCController, SolveBudget, SolverHealth
from repro.mpc.health import nonfinite_indices
from repro.batch import robust_factor_batch
from repro.mpc.qp import QPOptions, solve_qp
from repro.robots import build_benchmark

HORIZON = 8


@pytest.fixture(scope="module")
def bench():
    return build_benchmark("MobileRobot")


@pytest.fixture(scope="module")
def problem(bench):
    return bench.transcribe(horizon=HORIZON)


@pytest.fixture()
def solver(bench, problem):
    return bench.make_solver(problem)


class ForceFailHook:
    """Solver-layer fault hook: fail the next ``fails`` factorization
    attempts, optionally perturbing the matrix first."""

    def __init__(self, fails=0, transform=None):
        self.fails = fails
        self.transform = transform
        self.transform_calls = 0

    def transform_matrix(self, A):
        self.transform_calls += 1
        return A if self.transform is None else self.transform(A)

    def force_failure(self):
        if self.fails > 0:
            self.fails -= 1
            return True
        return False


class TestStateValidation:
    def test_nan_state_rejected_with_health(self, bench, solver):
        x = bench.x0.copy()
        x[1] = float("nan")
        with pytest.raises(StateValidationError) as exc_info:
            solver.solve(x, ref=bench.ref)
        health = exc_info.value.health
        assert isinstance(health, SolverHealth)
        assert not health.state_finite
        assert not health.ok
        assert any("nonfinite_state" in note for note in health.notes)

    def test_inf_state_rejected(self, bench, solver):
        x = bench.x0.copy()
        x[0] = float("inf")
        with pytest.raises(StateValidationError):
            solver.solve(x, ref=bench.ref)

    def test_nonfinite_reference_rejected(self, bench, solver):
        ref = bench.ref.copy()
        ref[0] = float("nan")
        with pytest.raises(StateValidationError, match="reference"):
            solver.solve(bench.x0, ref=ref)

    def test_controller_step_propagates_and_keeps_warm_start(
        self, bench, problem
    ):
        controller = bench.make_controller(problem)
        controller.step(bench.x0, ref=bench.ref)
        warm_before = controller._warm.copy()
        bad = bench.x0.copy()
        bad[2] = float("nan")
        with pytest.raises(StateValidationError):
            controller.step(bad, ref=bench.ref)
        # The measurement, not the warm start, is implicated: warm state
        # must survive the rejection untouched.
        assert controller._warm is not None
        assert np.array_equal(controller._warm, warm_before)
        u = controller.step(bench.x0, ref=bench.ref)
        assert np.all(np.isfinite(u))

    def test_nonfinite_indices_helper(self):
        v = np.array([1.0, np.nan, 2.0, np.inf, -np.inf])
        assert nonfinite_indices(v) == [1, 3, 4]
        assert nonfinite_indices(np.ones(3)) == []
        assert len(nonfinite_indices(np.full(40, np.nan), limit=8)) == 8


class TestWarmStartValidation:
    def test_contaminated_warm_start_reseeded(self, bench, solver):
        clean = solver.solve(bench.x0, ref=bench.ref)
        z_bad = clean.z.copy()
        z_bad[3] = float("nan")
        res = solver.solve(bench.x0, ref=bench.ref, z_warm=z_bad)
        assert res.converged
        assert res.health is not None
        assert res.health.warm_start_reseeded
        assert not res.health.ok
        assert "warm_start_reseeded" in res.health.notes
        # Identical trajectory to a cold-started solve: the poison never
        # reached the iteration.
        cold = solver.solve(bench.x0, ref=bench.ref)
        assert np.allclose(res.z, cold.z, atol=1e-8)

    def test_clean_solve_reports_healthy(self, bench, solver):
        res = solver.solve(bench.x0, ref=bench.ref)
        assert res.health is not None
        assert res.health.ok
        assert res.health.state_finite
        assert res.health.steps_rejected == 0

    def test_health_dict_roundtrip(self):
        h = SolverHealth(
            warm_start_reseeded=True,
            factorization_retries=3,
            regularization_max=1e-3,
            notes=["warm_start_reseeded"],
        )
        back = SolverHealth.from_dict(h.to_dict())
        assert back.warm_start_reseeded
        assert back.factorization_retries == 3
        assert back.regularization_max == 1e-3
        assert not back.ok
        assert SolverHealth.from_dict(None) is None


class TestFactorizationRetry:
    def test_forced_failures_absorbed_by_retry_ladder(self, bench, solver):
        solver.fault_hook = ForceFailHook(fails=3)
        res = solver.solve(bench.x0, ref=bench.ref)
        assert res.converged
        assert res.health.factorization_retries >= 3
        # The ladder escalates geometrically from the base regularization.
        assert res.health.regularization_max > solver.options.qp.regularization

    def test_retries_surfaced_in_qp_stats(self):
        rng = np.random.default_rng(0)
        n = 6
        A = rng.normal(size=(n, n))
        H = A @ A.T + n * np.eye(n)
        g = rng.normal(size=n)
        hook = ForceFailHook(fails=2)
        res = solve_qp(H, g, None, None, None, None, QPOptions(), fault_hook=hook)
        assert res.converged
        assert res.stats.retries >= 2
        assert res.stats.regularization_max > QPOptions().regularization

    def test_regularization_max_at_base_without_retries(self):
        H = 4.0 * np.eye(3)
        g = np.ones(3)
        res = solve_qp(H, g, None, None, None, None, QPOptions())
        assert res.converged
        assert res.stats.retries == 0
        assert res.stats.regularization_max == QPOptions().regularization

    def test_robust_factor_fails_fast_on_nonfinite_matrix(self):
        A = np.eye(3)
        A[1, 1] = float("nan")
        factor, _reg, retries = robust_factor_batch(A[None], 1e-9)
        assert not factor.ok[0]
        # Fail-fast: the 16-rung ladder must not have been burned.
        assert retries[0] == 0

    def test_unfactorizable_matrix_exhausts_ladder(self):
        hook = ForceFailHook(fails=100)
        with pytest.raises(SolverError, match="could not be factorized"):
            solve_qp(np.eye(2), np.ones(2), None, None, None, None, fault_hook=hook)
        assert hook.fails == 100 - 16  # every attempt of the ladder

    def test_qp_data_validation(self):
        H = np.eye(2)
        g = np.array([1.0, float("nan")])
        with pytest.raises(SolverError, match="QP data g"):
            solve_qp(H, g, None, None, None, None, QPOptions())


class TestClosedLoopFallbackReasons:
    def test_bad_state_recorded_with_reason(self, bench, problem):
        controller = bench.make_controller(problem)

        def poison(k, x):
            return np.zeros_like(x)

        hits = {"n": 0}

        def nan_at_step_2(x):
            hits["n"] += 1
            if hits["n"] == 3:
                bad = x.copy()
                bad[0] = float("nan")
                return bad
            return x

        controller.state_fault_hook = nan_at_step_2
        log = controller.simulate(
            bench.x0, steps=5, ref=bench.ref, disturbance=poison, fallback=True
        )
        assert log.fallbacks[2]
        assert log.fallback_reasons[2] == "bad_state"
        assert np.isnan(log.objectives[2])
        # Non-fallback steps carry a None reason (distinguishable from a
        # fallback that happened to record a NaN objective).
        assert log.fallback_reasons[0] is None
        assert len(log.fallback_reasons) == log.steps

    def test_clean_rollout_has_no_reasons(self, bench, problem):
        controller = bench.make_controller(problem)
        log = controller.simulate(bench.x0, steps=3, ref=bench.ref, fallback=True)
        assert log.fallback_reasons == [None, None, None]


class TestBudgetStarvationPath:
    def test_starved_budget_reports_exhaustion_not_crash(self, bench, problem):
        controller = bench.make_controller(problem)
        controller.budget_fault_hook = lambda b: SolveBudget(wall_clock=1e-9)
        u = controller.step(bench.x0, ref=bench.ref)
        assert np.all(np.isfinite(u))
        assert controller.last_result.status == "budget_exhausted"
