"""Tests for the serving session layer: the degradation ladder end to end.

Uses an injected scripted solver stub so every rung is exercised
deterministically: deadline miss -> shifted previous plan, repeated misses
-> degraded session, recovery after a successful solve, solver errors and
divergence -> warm-start reset.
"""

import numpy as np
import pytest

from repro.batch.contract import IPMResult
from repro.errors import ServeError, SessionStateError, SolverError
from repro.mpc import (
    MPCController,
    Penalty,
    RobotModel,
    Task,
    TranscribedProblem,
    VarSpec,
)
from repro.serve import (
    ACTIVE,
    CRASHED,
    CLOSED,
    DEGRADED,
    ControlSession,
    FallbackLadder,
    HOLD,
    SHIFTED_PLAN,
    SessionConfig,
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
        penalties=[Penalty("pos", x, 5.0, "running")],
    )
    return TranscribedProblem(model, task, horizon=10, dt=0.1)


class ScriptedSolver:
    """Stands in for InteriorPointSolver, playing back a list of step modes.

    Modes: "ok" (converged), "deadline" (budget exhausted, residual never
    evaluated), "partial" (budget exhausted but control-grade), "error"
    (raises SolverError), "nan" (non-finite objective), "highkkt"
    (finite but divergent residual), "boom" (non-solver bug: ValueError).
    The solved input plan is always ``us[t] = t + 1`` so shifted-plan
    fallbacks are recognizable by value.
    """

    def __init__(self, problem, script):
        self.problem = problem
        self.script = list(script)
        self.calls = 0
        self.stats = {"solves": 0}

    def solve(
        self,
        x_init,
        ref=None,
        z_warm=None,
        budget=None,
    ):
        mode = self.script[min(self.calls, len(self.script) - 1)]
        self.calls += 1
        self.stats["solves"] += 1
        if mode == "error":
            raise SolverError("injected solver failure")
        if mode == "boom":
            raise ValueError("injected bug outside the solver contract")
        p = self.problem
        xs = np.zeros((p.N + 1, p.nx))
        us = np.arange(1.0, p.N + 1)[:, None] * np.ones((1, p.nu))
        z = p.join(xs, us)
        fields = dict(z=z, nu=None, lam=None, solve_time=0.001)
        if mode == "ok":
            return IPMResult(
                converged=True,
                iterations=3,
                qp_iterations=9,
                objective=1.0,
                kkt_residual=1e-6,
                status="converged",
                **fields,
            )
        if mode == "deadline":
            return IPMResult(
                converged=False,
                iterations=1,
                qp_iterations=2,
                objective=5.0,
                kkt_residual=float("inf"),
                status="budget_exhausted",
                **fields,
            )
        if mode == "partial":
            return IPMResult(
                converged=False,
                iterations=2,
                qp_iterations=4,
                objective=2.0,
                kkt_residual=5e-3,
                status="budget_exhausted",
                **fields,
            )
        if mode == "nan":
            return IPMResult(
                converged=False,
                iterations=2,
                qp_iterations=4,
                objective=float("nan"),
                kkt_residual=1e3,
                status="max_iterations",
                **fields,
            )
        if mode == "highkkt":
            return IPMResult(
                converged=False,
                iterations=2,
                qp_iterations=4,
                objective=3.0,
                kkt_residual=1e9,
                status="max_iterations",
                **fields,
            )
        raise AssertionError(f"unknown mode {mode!r}")


def make_session(cart, script, **cfg):
    cfg.setdefault("robot", "Cart")
    cfg.setdefault("deadline_s", 0.05)
    cfg.setdefault("degrade_after", 3)
    solver = ScriptedSolver(cart, script)
    return ControlSession("t0", SessionConfig(**cfg), MPCController(solver))


X = np.zeros(2)


class TestFallbackLadder:
    def test_needs_at_least_one_input(self):
        with pytest.raises(ServeError):
            FallbackLadder(0)

    def test_hover_shape_validated(self):
        with pytest.raises(ServeError):
            FallbackLadder(2, hover=np.zeros(3))

    def test_plan_shape_validated(self):
        ladder = FallbackLadder(2)
        with pytest.raises(ServeError):
            ladder.record_success(np.zeros((5, 3)))

    def test_unarmed_fallback_holds(self):
        ladder = FallbackLadder(2)
        action = ladder.fallback()
        assert action.rung == HOLD
        assert np.array_equal(action.input, np.zeros(2))
        assert ladder.consecutive == 1
        assert ladder.total == 1

    def test_shifted_plan_sequence_then_hold(self):
        ladder = FallbackLadder(1)
        plan = np.arange(1.0, 4.0)[:, None]  # [[1], [2], [3]]
        ladder.record_success(plan)
        assert ladder.plan_remaining == 2
        a1, a2 = ladder.fallback(), ladder.fallback()
        assert a1.rung == SHIFTED_PLAN and a1.input[0] == 2.0
        assert a2.rung == SHIFTED_PLAN and a2.input[0] == 3.0
        assert ladder.plan_remaining == 0
        assert ladder.fallback().rung == HOLD

    def test_success_rearms_and_clears_consecutive(self):
        ladder = FallbackLadder(1)
        ladder.record_success(np.ones((4, 1)))
        ladder.fallback()
        ladder.fallback()
        assert ladder.consecutive == 2
        ladder.record_success(np.ones((4, 1)))
        assert ladder.consecutive == 0
        assert ladder.plan_remaining == 3
        assert ladder.total == 2  # lifetime count survives re-arming

    def test_reset_forgets_plan_keeps_total(self):
        ladder = FallbackLadder(1)
        ladder.record_success(np.ones((4, 1)))
        ladder.fallback()
        ladder.reset()
        assert ladder.plan_remaining == 0
        assert ladder.consecutive == 0
        assert ladder.total == 1
        assert ladder.fallback().rung == HOLD


class TestDegradationLadder:
    def test_successful_step(self, cart):
        session = make_session(cart, ["ok"])
        out = session.step(X)
        assert out.status == "ok"
        assert not out.fallback
        assert out.reason is None
        assert out.converged
        assert out.session_state == ACTIVE
        assert np.array_equal(out.u, np.array([1.0]))

    def test_deadline_miss_serves_shifted_plan(self, cart):
        session = make_session(cart, ["ok", "deadline", "deadline"])
        session.step(X)
        miss1 = session.step(X)
        miss2 = session.step(X)
        assert miss1.status == SHIFTED_PLAN
        assert miss1.fallback and miss1.reason == "deadline"
        # The plan's u_0 == 1 was applied on the good step; the first miss
        # serves u_1, the second u_2.
        assert np.array_equal(miss1.u, np.array([2.0]))
        assert np.array_equal(miss2.u, np.array([3.0]))
        assert miss1.consecutive_fallbacks == 1
        assert miss2.consecutive_fallbacks == 2

    def test_miss_before_any_success_holds(self, cart):
        session = make_session(cart, ["deadline"])
        out = session.step(X)
        assert out.status == HOLD
        assert np.array_equal(out.u, np.zeros(1))

    def test_repeated_misses_degrade_session(self, cart):
        session = make_session(cart, ["ok"] + ["deadline"] * 4)
        session.step(X)
        outs = [session.step(X) for _ in range(4)]
        assert [o.session_state for o in outs] == [
            ACTIVE,
            ACTIVE,
            DEGRADED,
            DEGRADED,
        ]
        # The transition fires exactly once, on the third consecutive miss.
        assert [o.degraded_transition for o in outs] == [
            False,
            False,
            True,
            False,
        ]
        assert session.state == DEGRADED

    def test_recovery_after_successful_solve(self, cart):
        session = make_session(cart, ["ok"] + ["deadline"] * 3 + ["ok"])
        for _ in range(4):
            session.step(X)
        assert session.state == DEGRADED
        out = session.step(X)
        assert out.status == "ok"
        assert out.session_state == ACTIVE
        assert session.state == ACTIVE
        assert session.ladder.consecutive == 0

    def test_deadline_miss_keeps_warm_start(self, cart):
        """A truncated solve is RTI progress — the partial iterate must
        survive as the next warm start even though the ladder input is
        served."""
        session = make_session(cart, ["ok", "deadline"])
        session.step(X)
        session.step(X)
        assert session.controller._warm is not None

    def test_solver_error_resets_warm_but_keeps_plan(self, cart):
        session = make_session(cart, ["ok", "error"])
        session.step(X)
        out = session.step(X)
        assert out.fallback and out.reason == "solver_error"
        assert out.status == SHIFTED_PLAN  # the last good plan still serves
        assert np.array_equal(out.u, np.array([2.0]))
        assert session.controller._warm is None
        assert session.controller.last_result is None

    def test_nonfinite_objective_is_divergence(self, cart):
        session = make_session(cart, ["ok", "nan"])
        session.step(X)
        out = session.step(X)
        assert out.fallback and out.reason == "diverged"
        assert session.controller._warm is None

    def test_huge_kkt_residual_is_divergence(self, cart):
        session = make_session(cart, ["ok", "highkkt"])
        session.step(X)
        out = session.step(X)
        assert out.fallback and out.reason == "diverged"

    def test_budget_exhausted_but_control_grade_is_served(self, cart):
        """Rung 0: KKT below accept_kkt -> serve the partial iterate."""
        session = make_session(cart, ["partial"])
        out = session.step(X)
        assert out.status == "ok"
        assert not out.fallback
        assert out.partial
        assert np.array_equal(out.u, np.array([1.0]))

    def test_accept_kkt_threshold_is_configurable(self, cart):
        session = make_session(cart, ["partial"], accept_kkt=1e-4)
        out = session.step(X)  # 5e-3 now above the bar -> fallback
        assert out.fallback and out.reason == "deadline"

    def test_every_fallback_input_is_finite(self, cart):
        session = make_session(cart, ["deadline"] * 6)
        for _ in range(6):
            out = session.step(X)
            assert np.all(np.isfinite(out.u))


class TestLifecycle:
    def test_close_then_step_raises(self, cart):
        session = make_session(cart, ["ok"])
        session.close()
        assert session.state == CLOSED
        assert not session.serving
        with pytest.raises(SessionStateError):
            session.step(X)

    def test_close_clears_controller_state(self, cart):
        session = make_session(cart, ["ok"])
        session.step(X)
        session.close()
        assert session.controller._warm is None

    def test_reset_reactivates_degraded_session(self, cart):
        session = make_session(cart, ["ok"] + ["deadline"] * 3)
        for _ in range(4):
            session.step(X)
        assert session.state == DEGRADED
        session.reset()
        assert session.state == ACTIVE
        assert session.ladder.plan_remaining == 0
        assert session.controller._warm is None

    def test_mark_crashed_is_terminal(self, cart):
        session = make_session(cart, ["ok"])
        out = session.mark_crashed()
        assert out.status == "crashed"
        assert out.session_state == CRASHED
        assert np.all(np.isfinite(out.u))
        with pytest.raises(SessionStateError):
            session.step(X)
        with pytest.raises(SessionStateError):
            session.close()

    def test_step_counter(self, cart):
        session = make_session(cart, ["ok", "deadline", "ok"])
        for _ in range(3):
            session.step(X)
        assert session.steps == 3

    def test_outcome_record_is_flat(self, cart):
        session = make_session(cart, ["ok"])
        record = session.step(X).to_record()
        assert record["status"] == "ok"
        assert record["session"] == "t0"
        assert "u" not in record  # trace records drop the input vector
