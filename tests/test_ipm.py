"""Tests for the SQP + interior-point NLP solver."""

import numpy as np
import pytest

from repro.batch.contract import IPMOptions
from repro.errors import SolverError
from repro.mpc import (
    Constraint,
    InteriorPointSolver,
    Penalty,
    RobotModel,
    Task,
    TranscribedProblem,
    VarSpec,
)
from repro.robots import build_benchmark
from repro.symbolic import Var, cos, sin


@pytest.fixture(scope="module")
def cart_problem():
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
            Penalty("pos", x - 1.0, 5.0, "running"),
            Penalty("vel", v, 0.5, "running"),
            Penalty("effort", u, 0.05, "running"),
        ],
    )
    return TranscribedProblem(model, task, horizon=10, dt=0.1)


@pytest.fixture(scope="module")
def unicycle_problem():
    px, py, th = Var("px"), Var("py"), Var("th")
    v, w = Var("v"), Var("w")
    model = RobotModel(
        "Unicycle",
        states=[VarSpec("px"), VarSpec("py"), VarSpec("th")],
        inputs=[VarSpec("v", -1.0, 1.0), VarSpec("w", -2.0, 2.0)],
        dynamics={"px": v * cos(th), "py": v * sin(th), "th": w},
    )
    task = Task(
        "goto",
        model,
        penalties=[
            Penalty("gx", px - Var("tx"), 10.0, "running"),
            Penalty("gy", py - Var("ty"), 10.0, "running"),
            Penalty("ev", v, 0.05, "running"),
            Penalty("ew", w, 0.05, "running"),
        ],
        references=["tx", "ty"],
    )
    return TranscribedProblem(model, task, horizon=12, dt=0.1)


class TestOptions:
    def test_bad_max_iterations(self):
        with pytest.raises(SolverError):
            IPMOptions(max_iterations=0)

    def test_bad_armijo(self):
        with pytest.raises(SolverError):
            IPMOptions(armijo=2.0)


class TestLinearProblem:
    def test_converges(self, cart_problem):
        solver = InteriorPointSolver(cart_problem)
        res = solver.solve(np.array([0.0, 0.0]))
        assert res.converged
        assert res.kkt_residual < 1e-4

    def test_drives_to_target(self, cart_problem):
        solver = InteriorPointSolver(cart_problem)
        res = solver.solve(np.array([0.0, 0.0]))
        xs, us = cart_problem.split(res.z)
        # With |u| <= 1 from rest, x(1 s) <= 0.5; the optimizer should get
        # close to that kinematic limit and still be moving toward x = 1.
        assert xs[-1, 0] > 0.4
        assert xs[-1, 1] > 0.0
        # Input bounds are respected.
        assert np.all(us <= 1.0 + 1e-6)
        assert np.all(us >= -1.0 - 1e-6)

    def test_initial_state_pinned(self, cart_problem):
        solver = InteriorPointSolver(cart_problem)
        x0 = np.array([0.3, -0.2])
        res = solver.solve(x0)
        xs, _ = cart_problem.split(res.z)
        assert np.allclose(xs[0], x0, atol=1e-8)

    def test_dynamics_feasibility_at_solution(self, cart_problem):
        solver = InteriorPointSolver(cart_problem)
        x0 = np.zeros(2)
        res = solver.solve(x0)
        g = cart_problem.equality_constraints(res.z, x0)
        assert np.abs(g).max() < 1e-5

    def test_statistics_tracked(self, cart_problem):
        solver = InteriorPointSolver(cart_problem)
        solver.solve(np.zeros(2))
        solver.solve(np.array([0.5, 0.0]))
        assert solver.stats["solves"] == 2
        assert solver.stats["qp_iterations"] > 0

    def test_warm_start_shape_checked(self, cart_problem):
        solver = InteriorPointSolver(cart_problem)
        with pytest.raises(SolverError):
            solver.solve(np.zeros(2), z_warm=np.zeros(3))


class TestNonlinearProblem:
    def test_converges(self, unicycle_problem):
        solver = InteriorPointSolver(unicycle_problem)
        res = solver.solve(np.zeros(3), ref=np.array([1.0, 0.5]))
        assert res.converged

    def test_moves_toward_target(self, unicycle_problem):
        solver = InteriorPointSolver(unicycle_problem)
        res = solver.solve(np.zeros(3), ref=np.array([1.0, 0.5]))
        xs, _ = unicycle_problem.split(res.z)
        d0 = np.hypot(1.0, 0.5)
        d_end = np.hypot(xs[-1, 0] - 1.0, xs[-1, 1] - 0.5)
        assert d_end < 0.5 * d0

    def test_warm_start_speeds_convergence(self, unicycle_problem):
        solver = InteriorPointSolver(unicycle_problem)
        ref = np.array([1.0, 0.5])
        cold = solver.solve(np.zeros(3), ref=ref)
        warm = solver.solve(np.zeros(3), ref=ref, z_warm=cold.z)
        assert warm.iterations <= cold.iterations

    def test_hessian_modes_agree_on_solution(self, unicycle_problem):
        ref = np.array([1.0, 0.5])
        gn = InteriorPointSolver(
            unicycle_problem, IPMOptions(hessian="gauss_newton")
        ).solve(np.zeros(3), ref=ref)
        hy = InteriorPointSolver(
            unicycle_problem, IPMOptions(hessian="hybrid")
        ).solve(np.zeros(3), ref=ref)
        # Both modes land on the same optimum (the hybrid's convergence
        # *flag* can lag on this problem, but the objective must match).
        assert gn.converged
        assert gn.objective == pytest.approx(hy.objective, rel=1e-4)

    def test_residual_history_monotone_tail(self, unicycle_problem):
        solver = InteriorPointSolver(unicycle_problem)
        res = solver.solve(np.zeros(3), ref=np.array([1.0, 0.5]))
        # The last residual is the minimum of the tail (converged runs end
        # on their best iterate).
        assert res.residual_history[-1] == min(res.residual_history[-3:])


class TestConstraintActivity:
    def test_active_state_constraint_respected(self):
        # Ask the cart to overshoot a wall: the x <= 0.5 constraint binds.
        x, v, u = Var("x"), Var("v"), Var("u")
        model = RobotModel(
            "Cart",
            states=[VarSpec("x", -5.0, 0.5), VarSpec("v", -2.0, 2.0)],
            inputs=[VarSpec("u", -1.0, 1.0)],
            dynamics={"x": v, "v": u},
        )
        task = Task(
            "overshoot",
            model,
            penalties=[Penalty("pos", x - 2.0, 10.0, "running")],
        )
        p = TranscribedProblem(model, task, horizon=10, dt=0.2)
        solver = InteriorPointSolver(p)
        res = solver.solve(np.zeros(2))
        xs, _ = p.split(res.z)
        # States beyond knot 0 obey the wall (small soft-constraint slack).
        assert np.all(xs[1:, 0] <= 0.5 + 1e-3)
        # And the wall is actually reached (constraint active).
        assert xs[:, 0].max() > 0.4


class TestHybridAfterRejection:
    """A "hybrid" lane whose step the line search rejected outright builds
    its next subproblem on the Gauss-Newton model: past the damping cap an
    indefinite exact Hessian gives a direction that ascends the merit, and
    the lane, barely moved, would otherwise re-solve that subproblem until
    its cap (MicroSat N=4, conform case ``s1627687382``, padded: 160
    identical rejections at KKT 6.7e-3)."""

    @pytest.mark.parametrize("backtracks,exact_used", [(20, True), (0, False)])
    def test_rejected_step_makes_the_next_model_gauss_newton(
        self, monkeypatch, backtracks, exact_used
    ):
        # with no backtrack to try, every step counts as rejected outright
        import repro.batch.ipm as batch_ipm

        models = []
        linearize = batch_ipm.linearize_lanes

        def spy(*args, **kwargs):
            models.append(bool(args[10].any()))  # the per-lane ``exact``
            return linearize(*args, **kwargs)

        monkeypatch.setattr(batch_ipm, "linearize_lanes", spy)
        bench = build_benchmark("MicroSat")
        solver = bench.make_solver(
            bench.transcribe(horizon=4), max_backtracks=backtracks,
            max_iterations=8,
        )  # fmt: skip
        res = solver.solve(bench.x0, ref=bench.ref)
        assert len(models) >= 3 and min(res.residual_history[:-1]) < 1.0
        assert any(models) == exact_used
