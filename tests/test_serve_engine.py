"""Tests for the serve engine's session table: admission and stepping across
shards, lookups, input-less and closed sessions, fallback accounting, crash
isolation, teardown, and one codegen tier per shared problem.  (The tick
facade's co-batching and load shedding are in ``test_serve2_engine.py``.)"""

import dataclasses

import numpy as np
import pytest

from repro.errors import AdmissionError, ServeError, SessionStateError
from repro.mpc import MPCController
from repro.serve import ControlSession, SessionConfig
from repro.serve2 import AsyncServeEngine, Serve2Config
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


@pytest.fixture
def engine():
    made = AsyncServeEngine()
    yield made
    made.shutdown()


@pytest.fixture
def sharded():
    """A two-shard engine: its session table spans both shards."""
    made = []

    def make(**kwargs):
        made.append(AsyncServeEngine(Serve2Config(shards=2, **kwargs)))
        return made[-1]

    yield make
    for engine in made:
        engine.shutdown()


class TestAdmission:
    def test_capacity_enforced(self, cart, sharded):
        """The cap counts the whole table, not one shard's share."""
        engine = sharded(max_sessions=2)
        fleet(cart, engine, 2)
        with pytest.raises(AdmissionError):
            engine.add_session(stub_session(cart, "s2", ["ok"]))

    def test_closing_frees_a_slot(self, cart, sharded):
        engine = sharded(max_sessions=2)
        sids = fleet(cart, engine, 2)
        engine.close_session(sids[0])
        engine.add_session(stub_session(cart, "s2", ["ok"]))  # admitted again

    def test_duplicate_id_rejected(self, cart, sharded):
        """A duplicate is refused even when it would pin to the other shard."""
        engine = sharded()
        engine.add_session(stub_session(cart, "dup", ["ok"]))
        with pytest.raises(ServeError):
            engine.add_session(stub_session(cart, "dup", ["ok"]))

    def test_unknown_session_lookup(self, engine):
        with pytest.raises(ServeError):
            engine.get_session("nope")

    def test_unknown_binding_lookup(self, engine):
        with pytest.raises(ServeError):
            engine.binding("Cart", 8)


class TestTick:
    def test_steps_every_session_with_input(self, cart, sharded):
        engine = sharded()
        sids = fleet(cart, engine, 3)
        assert {engine.shard_of(sid) for sid in sids} == {0, 1}
        report = engine.tick({sid: (X, None) for sid in sids})
        assert report.stepped == 3
        assert all(o.status == "ok" for o in report.outcomes.values())
        assert engine.metrics.fleet.steps == 3
        assert engine.metrics.fleet.ok == 3

    def test_closed_sessions_are_skipped(self, cart, sharded):
        engine = sharded()
        sids = fleet(cart, engine, 2)
        engine.close_session(sids[1])
        report = engine.tick({sid: (X, None) for sid in sids})
        assert set(report.outcomes) == {sids[0]}

    def test_sessions_without_input_are_skipped(self, cart, engine):
        sids = fleet(cart, engine, 3)
        report = engine.tick({sids[0]: (X, None)})
        assert set(report.outcomes) == {sids[0]}

    def test_fallbacks_counted_in_metrics(self, cart, engine):
        sids = fleet(cart, engine, 2, script=["ok", "deadline"])
        engine.tick({sid: (X, None) for sid in sids})
        engine.tick({sid: (X, None) for sid in sids})
        f = engine.metrics.fleet
        assert f.steps == 4
        assert f.ok == 2
        assert f.fallbacks == 2
        assert f.deadline_misses == 2

    def test_lifecycle_misuse_is_not_masked(self, cart, engine):
        """ReproError from a step is the caller's bug and must propagate."""
        [sid] = fleet(cart, engine, 1)
        engine.get_session(sid).close()
        engine.sessions[sid].state = "active"  # force an inconsistent close
        engine.get_session(sid).state = "closed"
        report = engine.tick({sid: (X, None)})
        assert report.stepped == 0  # non-serving sessions are just skipped


class TestCrashIsolation:
    def test_non_solver_bug_crashes_only_that_session(self, cart, engine):
        good = engine.add_session(stub_session(cart, "good", ["ok"]))
        bad = engine.add_session(stub_session(cart, "bad", ["boom"]))
        report = engine.tick({good: (X, None), bad: (X, None)})
        assert report.outcomes[good].status == "ok"
        assert report.outcomes[bad].status == "crashed"
        assert engine.crashed_sessions() == [bad]
        assert engine.metrics.fleet.crashes == 1

    def test_crashed_session_not_ticked_again(self, cart, engine):
        bad = engine.add_session(stub_session(cart, "bad", ["boom"]))
        engine.tick({bad: (X, None)})
        report = engine.tick({bad: (X, None)})
        assert report.stepped == 0

    def test_crashed_session_cannot_be_reset(self, cart, engine):
        bad = engine.add_session(stub_session(cart, "bad", ["boom"]))
        engine.tick({bad: (X, None)})
        with pytest.raises(SessionStateError):
            engine.reset_session(bad)


class TestTeardown:
    def test_shutdown_closes_serving_sessions(self, cart, engine):
        sids = fleet(cart, engine, 2)
        engine.shutdown()
        assert all(engine.sessions[sid].state == "closed" for sid in sids)

    def test_collect_solver_stats_tolerates_stub_solvers(self, cart, engine):
        sids = fleet(cart, engine, 2)
        engine.tick({sid: (X, None) for sid in sids})
        engine.collect_solver_stats()  # stubs expose no phase keys: no-op
        assert engine.metrics.phase_totals["factorize_time"] == 0


class TestOneTierPerProblem:
    """The codegen tier is the shared ``TranscribedProblem``'s: sessions of
    one ``(robot, horizon)`` share it, and nothing a config or a wire
    payload carries can re-tier it for the others."""

    CONFIG = dict(robot="MobileRobot", horizon=5, deadline_s=None)

    def test_sessions_share_one_problem_and_one_tier(self, engine):
        from repro.serve.loadgen import LoadConfig

        for cls in (SessionConfig, Serve2Config, LoadConfig):
            names = {f.name for f in dataclasses.fields(cls)}
            assert "codegen" not in names, cls.__name__
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

    def test_worker_caches_key_on_robot_shape_and_method(self):
        from repro.serve2.padding import pad_reference
        from repro.serve2.shard import _SHARD_CACHE, shard_solve_group

        bench_x0 = np.array([0.5, -0.3, 0.1])
        session = ControlSession.from_benchmark(
            "s0", SessionConfig(qp_method="admm", **self.CONFIG)
        )
        ref = pad_reference(session.ref, len(session.ref), 5, 5)
        for method in ("admm", "ipm"):
            reply = shard_solve_group(
                {
                    "robot": "MobileRobot",
                    "bucket": 5,
                    "qp_method": method,
                    "payloads": [{"x": bench_x0, "ref": ref}],
                }
            )
            assert reply["ok"]
        admm = _SHARD_CACHE[("MobileRobot", 5, "admm")]
        ipm = _SHARD_CACHE[("MobileRobot", 5, "ipm")]
        assert admm is not ipm  # the method is part of the binding's identity
        assert admm.batch_solver.options.qp.method == "admm"
        assert ipm.batch_solver.options.qp.method == "ipm"
        assert all(len(key) == 3 for key in _SHARD_CACHE)
