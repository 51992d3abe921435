"""Tests for the receding-horizon controller and plant integration."""

import numpy as np
import pytest

from repro.batch.contract import SolveBudget
from repro.errors import SolverError
from repro.mpc import (
    InteriorPointSolver,
    MPCController,
    Penalty,
    RobotModel,
    Task,
    TranscribedProblem,
    VarSpec,
    integrate_plant,
)
from repro.symbolic import Var


@pytest.fixture(scope="module")
def cart():
    x, v, u = Var("x"), Var("v"), Var("u")
    model = RobotModel(
        "Cart",
        states=[VarSpec("x"), VarSpec("v", -2.0, 2.0)],
        inputs=[VarSpec("u", -1.0, 1.0)],
        dynamics={"x": v, "v": u},
    )
    task = Task(
        "park",
        model,
        penalties=[
            Penalty("pos", x - Var("target"), 5.0, "running"),
            Penalty("vel", v, 1.0, "running"),
            Penalty("effort", u, 0.1, "running"),
        ],
        references=["target"],
    )
    return TranscribedProblem(model, task, horizon=10, dt=0.1)


REF = np.array([1.0])


class TestStep:
    def test_returns_first_input(self, cart):
        ctrl = MPCController(InteriorPointSolver(cart))
        u = ctrl.step(np.zeros(2), ref=REF)
        assert u.shape == (1,)
        # Target ahead: push forward, near the actuator limit.
        assert u[0] > 0.5

    def test_warm_start_retained(self, cart):
        ctrl = MPCController(InteriorPointSolver(cart))
        ctrl.step(np.zeros(2), ref=REF)
        first = ctrl.last_result.iterations
        ctrl.step(np.array([0.01, 0.05]), ref=REF)
        assert ctrl.last_result.iterations <= first

    def test_reset_clears_state(self, cart):
        ctrl = MPCController(InteriorPointSolver(cart))
        ctrl.step(np.zeros(2), ref=REF)
        ctrl.reset()
        assert ctrl.last_result is None
        assert ctrl._warm is None

    def test_reset_clears_every_warm_attribute(self, cart):
        """Regression: reset must leave no per-solve state behind — the
        serving layer relies on a reset controller being indistinguishable
        from a fresh one after divergence/solver errors."""
        ctrl = MPCController(InteriorPointSolver(cart))
        ctrl.step(np.zeros(2), ref=REF)
        assert ctrl._warm is not None
        assert ctrl.last_result is not None
        assert ctrl.last_solve_time is not None
        ctrl.reset()
        fresh = MPCController(InteriorPointSolver(cart))
        for attr in ("_warm", "last_result", "last_solve_time"):
            assert getattr(ctrl, attr) is None, attr
            assert getattr(ctrl, attr) == getattr(fresh, attr)

    def test_reset_restores_cold_start_iterations(self, cart):
        ctrl = MPCController(InteriorPointSolver(cart))
        ctrl.step(np.zeros(2), ref=REF)
        cold_iters = ctrl.last_result.iterations
        ctrl.step(np.zeros(2), ref=REF)
        ctrl.reset()
        ctrl.step(np.zeros(2), ref=REF)
        # Identical state after reset -> identical cold solve.
        assert ctrl.last_result.iterations == cold_iters

    def test_step_records_solve_time(self, cart):
        ctrl = MPCController(InteriorPointSolver(cart))
        assert ctrl.last_solve_time is None
        ctrl.step(np.zeros(2), ref=REF)
        assert ctrl.last_solve_time is not None
        assert ctrl.last_solve_time > 0.0
        assert ctrl.last_solve_time == ctrl.last_result.solve_time

    def test_cold_restart_mode(self, cart):
        ctrl = MPCController(InteriorPointSolver(cart), warm_start=False)
        ctrl.step(np.zeros(2), ref=REF)
        its1 = ctrl.last_result.iterations
        ctrl.step(np.zeros(2), ref=REF)
        # Identical state + cold restart -> identical solve.
        assert ctrl.last_result.iterations == its1


class TestClosedLoop:
    def test_reaches_target(self, cart):
        ctrl = MPCController(InteriorPointSolver(cart))
        log = ctrl.simulate(np.zeros(2), steps=25, ref=REF)
        assert abs(log.states[-1, 0] - 1.0) < 0.1
        assert abs(log.states[-1, 1]) < 0.3

    def test_log_shapes(self, cart):
        ctrl = MPCController(InteriorPointSolver(cart))
        log = ctrl.simulate(np.zeros(2), steps=5, ref=REF)
        assert log.states.shape == (6, 2)
        assert log.inputs.shape == (5, 1)
        assert log.steps == 5
        assert len(log.objectives) == 5
        assert len(log.solver_iterations) == 5

    def test_log_records_solve_times_and_fallbacks(self, cart):
        ctrl = MPCController(InteriorPointSolver(cart))
        log = ctrl.simulate(np.zeros(2), steps=5, ref=REF)
        assert len(log.solve_times) == 5
        assert all(t > 0.0 for t in log.solve_times)
        # No budget, no injected failures: every step is a fresh solve.
        assert log.fallbacks == [False] * 5
        assert log.fallback_count == 0

    def test_input_bounds_respected_in_loop(self, cart):
        ctrl = MPCController(InteriorPointSolver(cart))
        log = ctrl.simulate(np.zeros(2), steps=10, ref=REF)
        assert np.all(log.inputs <= 1.0 + 1e-6)
        assert np.all(log.inputs >= -1.0 - 1e-6)

    def test_disturbance_rejection(self, cart):
        ctrl = MPCController(InteriorPointSolver(cart))

        def kick(k, x):
            return np.array([0.0, -0.2]) if k == 5 else np.zeros(2)

        log = ctrl.simulate(np.zeros(2), steps=30, ref=REF, disturbance=kick)
        assert abs(log.states[-1, 0] - 1.0) < 0.15

    def test_time_varying_reference(self, cart):
        ctrl = MPCController(InteriorPointSolver(cart))

        def ref_fn(k):
            return np.array([0.5 if k < 8 else 1.0])

        log = ctrl.simulate(np.zeros(2), steps=24, ref_fn=ref_fn)
        assert abs(log.states[-1, 0] - 1.0) < 0.2


class FlakySolver:
    """Delegates to a real solver but raises SolverError on chosen steps."""

    def __init__(self, problem, fail_at):
        self._inner = InteriorPointSolver(problem)
        self.problem = problem
        self.fail_at = set(fail_at)
        self.calls = 0
        self.stats = self._inner.stats

    def solve(self, *args, **kwargs):
        k = self.calls
        self.calls += 1
        if k in self.fail_at:
            raise SolverError("injected linearization failure")
        return self._inner.solve(*args, **kwargs)


class TestSimulateFallback:
    def test_solver_error_raises_without_fallback(self, cart):
        ctrl = MPCController(FlakySolver(cart, {2}))
        with pytest.raises(SolverError):
            ctrl.simulate(np.zeros(2), steps=4, ref=REF)

    def test_solver_error_served_from_ladder(self, cart):
        ctrl = MPCController(FlakySolver(cart, {2}))
        log = ctrl.simulate(np.zeros(2), steps=5, ref=REF, fallback=True)
        assert log.fallbacks == [False, False, True, False, False]
        assert log.fallback_count == 1
        assert np.isnan(log.objectives[2])
        assert not log.converged[2]
        assert np.all(np.isfinite(log.inputs))
        # The fallback step served the shifted tail of step 1's plan — a
        # forward push, not the neutral hold.
        assert log.inputs[2, 0] > 0.0

    def test_zero_budget_with_fallback_never_raises(self, cart):
        ctrl = MPCController(InteriorPointSolver(cart))
        log = ctrl.simulate(
            np.zeros(2),
            steps=3,
            ref=REF,
            budget=SolveBudget(wall_clock=0.0),
            fallback=True,
        )
        # Every solve is budget-exhausted and unconverged; with no plan ever
        # armed the ladder holds at the neutral input.
        assert log.fallback_count == 3
        assert np.all(log.inputs == 0.0)

    def test_budgeted_simulate_reports_status(self, cart):
        ctrl = MPCController(InteriorPointSolver(cart))
        log = ctrl.simulate(
            np.zeros(2),
            steps=5,
            ref=REF,
            budget=SolveBudget(wall_clock=10.0),
        )
        assert log.fallback_count == 0
        assert all(log.converged)


class TestPlantIntegration:
    def test_linear_plant_exact(self, cart):
        # Double integrator with constant input has closed form.
        x = np.array([0.0, 0.0])
        u = np.array([1.0])
        out = integrate_plant(cart, x, u, dt=0.5, substeps=8)
        assert out[1] == pytest.approx(0.5, abs=1e-9)  # v = u t
        assert out[0] == pytest.approx(0.125, abs=1e-9)  # x = u t^2 / 2

    def test_substep_refinement_converges(self, cart):
        x = np.array([0.2, 0.4])
        u = np.array([-0.3])
        coarse = integrate_plant(cart, x, u, substeps=1)
        fine = integrate_plant(cart, x, u, substeps=16)
        assert np.allclose(coarse, fine, atol=1e-6)
