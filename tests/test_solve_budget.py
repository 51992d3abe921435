"""Tests for deadline-bounded solves: SolveBudget, BudgetClock, solver plumbing."""

import numpy as np
import pytest

from repro.errors import SolverError
from repro.mpc import (
    InteriorPointSolver,
    Penalty,
    RobotModel,
    SolveBudget,
    Task,
    TranscribedProblem,
    VarSpec,
)
from repro.mpc.budget import BudgetClock
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
X0 = np.zeros(2)


class TestSolveBudget:
    def test_defaults_are_unlimited(self):
        assert SolveBudget().unlimited

    def test_any_limit_is_not_unlimited(self):
        assert not SolveBudget(wall_clock=0.1).unlimited
        assert not SolveBudget(sqp_iterations=3).unlimited
        assert not SolveBudget(qp_iterations=10).unlimited

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"wall_clock": -0.1},
            {"sqp_iterations": -1},
            {"qp_iterations": -5},
        ],
    )
    def test_negative_limits_rejected(self, kwargs):
        with pytest.raises(SolverError):
            SolveBudget(**kwargs)

    def test_zero_wall_clock_is_legal_and_expired(self):
        clock = SolveBudget(wall_clock=0.0).start()
        assert clock.expired()
        assert clock.remaining() == 0.0

    def test_untimed_clock_never_expires(self):
        clock = SolveBudget(sqp_iterations=5).start()
        assert not clock.expired()
        assert clock.deadline is None
        assert clock.remaining() is None

    def test_qp_exhaustion(self):
        clock = SolveBudget(qp_iterations=10).start()
        assert not clock.qp_exhausted(9)
        assert clock.qp_exhausted(10)
        assert clock.qp_exhausted(11)

    def test_qp_cap_absent_never_exhausts(self):
        clock = SolveBudget(wall_clock=10.0).start()
        assert not clock.qp_exhausted(10**9)

    def test_elapsed_monotone(self):
        clock = BudgetClock(SolveBudget(), 0.0)
        assert clock.elapsed() > 0.0


class TestBudgetedSolve:
    def test_unbudgeted_solve_converges_with_status(self, cart):
        res = InteriorPointSolver(cart).solve(X0, ref=REF)
        assert res.converged
        assert res.status == "converged"
        assert res.solve_time > 0.0

    def test_zero_wall_budget_returns_immediately(self, cart):
        res = InteriorPointSolver(cart).solve(
            X0, ref=REF, budget=SolveBudget(wall_clock=0.0)
        )
        assert res.status == "budget_exhausted"
        assert not res.converged
        assert res.iterations == 0
        # Never iterated: the residual was never evaluated.
        assert res.kkt_residual == float("inf")
        # The returned iterate is still a consistent trajectory.
        assert res.z.shape == (cart.nz,)
        assert np.all(np.isfinite(res.z))

    def test_sqp_iteration_budget_respected(self, cart):
        full = InteriorPointSolver(cart).solve(X0, ref=REF)
        assert full.iterations > 1  # the cap below must actually bind
        res = InteriorPointSolver(cart).solve(
            X0, ref=REF, budget=SolveBudget(sqp_iterations=1)
        )
        assert res.iterations == 1
        assert res.status == "budget_exhausted"

    def test_qp_iteration_budget_exact(self, cart):
        full = InteriorPointSolver(cart).solve(X0, ref=REF)
        cap = max(1, full.qp_iterations // 3)
        res = InteriorPointSolver(cart).solve(
            X0, ref=REF, budget=SolveBudget(qp_iterations=cap)
        )
        assert res.qp_iterations <= cap
        assert res.status == "budget_exhausted"

    def test_generous_budget_does_not_perturb_solution(self, cart):
        free = InteriorPointSolver(cart).solve(X0, ref=REF)
        capped = InteriorPointSolver(cart).solve(
            X0, ref=REF, budget=SolveBudget(wall_clock=60.0)
        )
        assert capped.converged
        assert capped.status == "converged"
        assert np.allclose(capped.z, free.z, atol=1e-8)

    def test_budget_exhausted_iterate_warm_startable(self, cart):
        """RTI-style accumulation: feeding the partial iterate back as the
        warm start converges in fewer total iterations than a cold solve."""
        solver = InteriorPointSolver(cart)
        partial = solver.solve(X0, ref=REF, budget=SolveBudget(sqp_iterations=1))
        resumed = solver.solve(X0, ref=REF, z_warm=partial.z)
        cold = InteriorPointSolver(cart).solve(X0, ref=REF)
        assert resumed.converged
        assert resumed.iterations <= cold.iterations

    def test_exhausted_cap_equal_to_need_reports_converged(self, cart):
        """A budget that is large enough must not relabel a converged solve."""
        cold = InteriorPointSolver(cart).solve(X0, ref=REF)
        res = InteriorPointSolver(cart).solve(
            X0,
            ref=REF,
            budget=SolveBudget(
                sqp_iterations=cold.iterations + 1,
                qp_iterations=cold.qp_iterations + 10,
            ),
        )
        assert res.converged
        assert res.status == "converged"
