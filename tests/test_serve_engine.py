"""Tests for the batch serving engine: admission, ticking, backpressure."""

import dataclasses

import numpy as np
import pytest

from repro.errors import AdmissionError, ServeError, SessionStateError
from repro.mpc import MPCController
from repro.serve import (
    ControlSession,
    EngineConfig,
    ServeEngine,
    SessionConfig,
)
from tests.test_serve_session import ScriptedSolver, cart  # noqa: F401

X = np.zeros(2)


def stub_session(cart, sid, script, **cfg):
    cfg.setdefault("robot", "Cart")
    cfg.setdefault("degrade_after", 3)
    solver = ScriptedSolver(cart, script)
    return ControlSession(sid, SessionConfig(**cfg), MPCController(solver))


def fleet(cart, engine, n, script=("ok",)):
    sids = []
    for i in range(n):
        sids.append(engine.add_session(stub_session(cart, f"s{i}", list(script))))
    return sids


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_sessions": 0},
            {"workers": -1},
            {"min_batch": 0},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ServeError):
            EngineConfig(**kwargs)


class TestAdmission:
    def test_capacity_enforced(self, cart):
        engine = ServeEngine(EngineConfig(max_sessions=2))
        fleet(cart, engine, 2)
        with pytest.raises(AdmissionError):
            engine.add_session(stub_session(cart, "s2", ["ok"]))

    def test_closing_frees_a_slot(self, cart):
        engine = ServeEngine(EngineConfig(max_sessions=2))
        sids = fleet(cart, engine, 2)
        engine.close_session(sids[0])
        engine.add_session(stub_session(cart, "s2", ["ok"]))  # admitted again

    def test_duplicate_id_rejected(self, cart):
        engine = ServeEngine()
        engine.add_session(stub_session(cart, "dup", ["ok"]))
        with pytest.raises(ServeError):
            engine.add_session(stub_session(cart, "dup", ["ok"]))

    def test_unknown_session_lookup(self):
        with pytest.raises(ServeError):
            ServeEngine().get_session("nope")

    def test_unknown_binding_lookup(self):
        with pytest.raises(ServeError):
            ServeEngine().binding("Cart", 8)


class TestTick:
    def test_steps_every_session_with_input(self, cart):
        engine = ServeEngine()
        sids = fleet(cart, engine, 3)
        report = engine.tick({sid: (X, None) for sid in sids})
        assert report.stepped == 3
        assert not report.deferred
        assert all(o.status == "ok" for o in report.outcomes.values())
        assert engine.metrics.fleet.steps == 3
        assert engine.metrics.fleet.ok == 3

    def test_sessions_without_input_are_skipped(self, cart):
        engine = ServeEngine()
        sids = fleet(cart, engine, 3)
        report = engine.tick({sids[0]: (X, None)})
        assert set(report.outcomes) == {sids[0]}

    def test_closed_sessions_are_skipped(self, cart):
        engine = ServeEngine()
        sids = fleet(cart, engine, 2)
        engine.close_session(sids[1])
        report = engine.tick({sid: (X, None) for sid in sids})
        assert set(report.outcomes) == {sids[0]}

    def test_fallbacks_counted_in_metrics(self, cart):
        engine = ServeEngine()
        sids = fleet(cart, engine, 2, script=["ok", "deadline"])
        engine.tick({sid: (X, None) for sid in sids})
        engine.tick({sid: (X, None) for sid in sids})
        f = engine.metrics.fleet
        assert f.steps == 4
        assert f.ok == 2
        assert f.fallbacks == 2
        assert f.deadline_misses == 2

    def test_lifecycle_misuse_is_not_masked(self, cart):
        """ReproError from a step is the caller's bug and must propagate."""
        engine = ServeEngine()
        [sid] = fleet(cart, engine, 1)
        engine.get_session(sid).close()
        engine.sessions[sid].state = "active"  # force an inconsistent close
        engine.get_session(sid).state = "closed"
        report = engine.tick({sid: (X, None)})
        assert report.stepped == 0  # non-serving sessions are just skipped

    def test_process_pool_matches_inline(self):
        """Iteration-budgeted (so deterministic) CartPole sessions: a solve
        shipped to a pool worker and folded back serves the inline plan."""
        cfg = SessionConfig(
            robot="CartPole", horizon=5, deadline_s=None, max_sqp_iterations=3
        )
        inline = ServeEngine()
        pooled = ServeEngine(EngineConfig(workers=2))
        try:
            sids_a = [inline.create_session(cfg) for _ in range(2)]
            sids_b = [pooled.create_session(cfg) for _ in range(2)]
            bench, _ = inline.binding("CartPole", 5)
            x = np.asarray(bench.x0, dtype=float)
            for _ in range(2):
                rep_a = inline.tick({sid: (x, None) for sid in sids_a})
                rep_b = pooled.tick({sid: (x, None) for sid in sids_b})
                for sa, sb in zip(sids_a, sids_b):
                    a, b = rep_a.outcomes[sa], rep_b.outcomes[sb]
                    assert (a.status, a.sqp_iterations) == (b.status, b.sqp_iterations)
                    np.testing.assert_allclose(a.u, b.u, atol=1e-9)
            assert pooled.worker_respawns == 0
        finally:
            pooled.shutdown()
            inline.shutdown()


class TestCrashIsolation:
    def test_non_solver_bug_crashes_only_that_session(self, cart):
        engine = ServeEngine()
        good = engine.add_session(stub_session(cart, "good", ["ok"]))
        bad = engine.add_session(stub_session(cart, "bad", ["boom"]))
        report = engine.tick({good: (X, None), bad: (X, None)})
        assert report.outcomes[good].status == "ok"
        assert report.outcomes[bad].status == "crashed"
        assert engine.crashed_sessions() == [bad]
        assert engine.metrics.fleet.crashes == 1

    def test_crashed_session_not_ticked_again(self, cart):
        engine = ServeEngine()
        bad = engine.add_session(stub_session(cart, "bad", ["boom"]))
        engine.tick({bad: (X, None)})
        report = engine.tick({bad: (X, None)})
        assert report.stepped == 0

    def test_crashed_session_cannot_be_reset(self, cart):
        engine = ServeEngine()
        bad = engine.add_session(stub_session(cart, "bad", ["boom"]))
        engine.tick({bad: (X, None)})
        with pytest.raises(SessionStateError):
            engine.reset_session(bad)


class TestBackpressure:
    def test_overrun_shrinks_next_batch(self, cart):
        engine = ServeEngine(EngineConfig(tick_budget_s=1e-12))
        sids = fleet(cart, engine, 4)
        engine.tick({sid: (X, None) for sid in sids})  # overruns for sure
        report = engine.tick({sid: (X, None) for sid in sids})
        assert report.stepped == 1  # min_batch floor
        assert len(report.deferred) == 3

    def test_deferred_sessions_are_served_round_robin(self, cart):
        engine = ServeEngine(EngineConfig(tick_budget_s=1e-12))
        sids = fleet(cart, engine, 4)
        engine.tick({sid: (X, None) for sid in sids})
        served = []
        for _ in range(4):
            report = engine.tick({sid: (X, None) for sid in sids})
            served.extend(report.outcomes)
        # Four throttled ticks serve each session exactly once: bounded delay.
        assert sorted(served) == sorted(sids)

    def test_headroom_regrows_batch_limit(self, cart):
        engine = ServeEngine(EngineConfig(tick_budget_s=60.0))
        sids = fleet(cart, engine, 4)
        engine._batch_limit = 1
        engine.tick({sid: (X, None) for sid in sids})  # far under budget
        assert engine._batch_limit == 2
        engine.tick({sid: (X, None) for sid in sids})
        assert engine._batch_limit is None  # cap removed at fleet size

    def test_overflow_wait_is_bounded(self, cart):
        """Pinned fairness baseline: under a forced batch limit L with n
        sessions all requesting every tick, round-robin deferral must
        serve every session at least once in any window of ceil(n/L)
        ticks — no session starves behind the overflow."""
        import math

        engine = ServeEngine(EngineConfig(tick_budget_s=60.0))
        n, limit = 5, 2
        sids = fleet(cart, engine, n)
        bound = math.ceil(n / limit)
        last_served = {sid: 0 for sid in sids}
        for tick in range(1, 3 * bound + 1):
            engine._batch_limit = limit  # pin: headroom must not regrow it
            report = engine.tick({sid: (X, None) for sid in sids})
            assert report.stepped == limit
            assert len(report.deferred) == n - limit
            for sid in report.outcomes:
                gap = tick - last_served[sid]
                assert gap <= bound, f"{sid} waited {gap} ticks (bound {bound})"
                last_served[sid] = tick
        stale = [sid for sid, t in last_served.items() if 3 * bound - t >= bound]
        assert not stale, f"sessions starved at the end: {stale}"

    def test_deferred_steps_reach_metrics(self, cart):
        engine = ServeEngine(EngineConfig(tick_budget_s=1e-12))
        sids = fleet(cart, engine, 3)
        engine.tick({sid: (X, None) for sid in sids})
        engine.tick({sid: (X, None) for sid in sids})
        assert engine.metrics.deferred_steps == 2


class TestTeardown:
    def test_shutdown_closes_serving_sessions(self, cart):
        engine = ServeEngine()
        sids = fleet(cart, engine, 2)
        engine.shutdown()
        assert all(engine.sessions[sid].state == "closed" for sid in sids)

    def test_collect_solver_stats_tolerates_stub_solvers(self, cart):
        engine = ServeEngine()
        sids = fleet(cart, engine, 2)
        engine.tick({sid: (X, None) for sid in sids})
        engine.collect_solver_stats()  # stubs expose no phase keys: no-op
        assert engine.metrics.phase_totals["factorize_time"] == 0


class TestOneTierPerProblem:
    """The codegen tier is the shared ``TranscribedProblem``'s: sessions of
    one ``(robot, horizon)`` share it, and nothing a config or a wire
    payload carries can re-tier it for the others."""

    CONFIG = dict(robot="MobileRobot", horizon=5, deadline_s=None)

    def test_sessions_share_one_problem_and_one_tier(self):
        from repro.serve.loadgen import LoadConfig
        from repro.serve2 import Serve2Config

        for cls in (SessionConfig, EngineConfig, Serve2Config, LoadConfig):
            names = {f.name for f in dataclasses.fields(cls)}
            assert "codegen" not in names, cls.__name__
        engine = ServeEngine(EngineConfig())
        try:
            a, b = (
                engine.sessions[
                    engine.create_session(
                        SessionConfig(qp_method=method, **self.CONFIG)
                    )
                ]
                for method in ("ipm", "admm")
            )
            problem = a.controller.solver.problem
            assert b.controller.solver.problem is problem
            assert a.controller.solver is not b.controller.solver
            # decided once, at create_session's warm-up, for both
            assert problem._cg_stats is not None
            lanes = a.controller.solver.problem.lanes
            assert b.controller.solver.problem.lanes is lanes
            assert "codegen" not in a.solve_payload(np.zeros(3))
        finally:
            engine.shutdown()

    def test_worker_caches_key_on_robot_shape_and_method(self):
        from repro.serve.engine import _WORKER_CACHE, remote_solve
        from repro.serve2.padding import pad_reference
        from repro.serve2.shard import _SHARD_CACHE, shard_solve_group

        bench_x0 = np.array([0.5, -0.3, 0.1])
        session = ControlSession.from_benchmark(
            "s0", SessionConfig(qp_method="admm", **self.CONFIG)
        )
        assert remote_solve(session.solve_payload(bench_x0))["ok"]
        session.qp_method = "ipm"  # what a method-health demotion does
        assert remote_solve(session.solve_payload(bench_x0))["ok"]
        admm = _WORKER_CACHE[("MobileRobot", 5, "admm")]
        ipm = _WORKER_CACHE[("MobileRobot", 5, "ipm")]
        assert admm[2] is not ipm[2]  # the demoted session's own solver
        assert admm[2].options.qp.method == "admm"
        assert ipm[2].options.qp.method == "ipm"

        reply = shard_solve_group(
            {
                "robot": "MobileRobot",
                "bucket": 5,
                "qp_method": "admm",
                "payloads": [
                    {"x": bench_x0, "ref": pad_reference(session.ref, len(session.ref), 5, 5)}
                ],
            }
        )
        assert reply["ok"]
        assert ("MobileRobot", 5, "admm") in _SHARD_CACHE
        assert all(len(key) == 3 for key in (*_WORKER_CACHE, *_SHARD_CACHE))
