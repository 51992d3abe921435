"""End-to-end chaos campaigns: recovery invariants across robots and shards.

These are the acceptance tests for the fault-injection harness: a seeded
fault schedule is driven through the full plant -> controller -> serve
stack and the campaign's recovery invariants must all hold — no uncaught
exceptions, every open session back to ``active`` once the schedule
clears, states bounded, and restarts of crashed sessions succeeding.
"""

import numpy as np
import pytest

from repro.errors import SessionStateError
from repro.faults import (
    CampaignConfig,
    FaultSchedule,
    FaultSpec,
    builtin_schedule,
    run_campaign,
)
from repro.mpc import MPCController
from repro.serve import ACTIVE, CRASHED, ControlSession, SessionConfig
from repro.serve2 import AsyncServeEngine
from tests.test_serve_session import ScriptedSolver, cart  # noqa: F401

X = np.zeros(2)


class TestCampaignInvariants:
    @pytest.mark.parametrize("robot", ["CartPole", "MobileRobot", "Hexacopter"])
    def test_smoke_schedule_recovers(self, robot):
        rep = run_campaign(
            CampaignConfig(
                robot=robot,
                schedule="smoke",
                sessions=2,
                ticks=30,
                # Generous deadline: this test is about *fault* recovery,
                # not deadline pressure, and MicroSat solves are slow.
                deadline_s=1.0,
                seed=0,
            )
        )
        assert rep.uncaught is None
        assert rep.ok, rep.violations
        assert rep.invariants["no_uncaught_exception"]
        assert rep.invariants["recovered_active"]
        assert rep.invariants["bounded_state"]
        assert rep.invariants["restarts_succeeded"]
        assert rep.recovered_at_tick is not None
        assert sum(rep.fired.values()) > 0
        assert all(state == ACTIVE for state in rep.session_states.values())

    def test_sensor_schedule_surfaces_bad_states(self):
        rep = run_campaign(
            CampaignConfig(robot="CartPole", schedule="sensor", ticks=30, seed=0)
        )
        assert rep.ok, rep.violations
        assert rep.metrics.fleet.bad_states > 0
        assert rep.metrics.fleet.crashes == 0

    def test_solver_schedule_absorbed_without_crashes(self):
        rep = run_campaign(
            CampaignConfig(robot="CartPole", schedule="solver", ticks=30, seed=0)
        )
        assert rep.ok, rep.violations
        assert rep.metrics.fleet.crashes == 0
        # chol_fail / illcond / budget_starve all fired and were absorbed.
        assert any(rep.fired.get(k, 0) > 0 for k in ("chol_fail", "budget_starve"))

    def test_campaign_must_outlast_the_schedule(self):
        sched = FaultSchedule(
            specs=(FaultSpec("spike", start=0, stop=20),), seed=0
        )
        from repro.errors import ServeError

        with pytest.raises(ServeError, match="clear"):
            run_campaign(CampaignConfig(schedule=sched, ticks=10))

    @pytest.mark.parametrize("schedule", ["smoke", "solver"])
    def test_solver_faults_reach_the_solve(self, schedule):
        """Hooked sessions step on their own solver, so on a sharded fleet
        every solver-layer fault in the schedule fires, and the fleet
        recovers from all of them."""
        rep = run_campaign(
            CampaignConfig(
                robot="CartPole",
                schedule=schedule,
                sessions=3,
                ticks=30,
                shards=2,
                seed=0,
            )
        )
        kinds = {
            spec.kind
            for spec in builtin_schedule(schedule, ticks=30, seed=0).specs
            if spec.layer == "solver"
        }
        assert kinds
        assert all(rep.fired.get(kind, 0) > 0 for kind in kinds), rep.fired
        assert rep.ok, rep.violations
        assert rep.metrics.group_fallbacks["solver_hooked"] > 0
        assert rep.metrics.batch_solves == 0  # no hooked session batched

    def test_report_is_json_ready(self):
        rep = run_campaign(
            CampaignConfig(robot="CartPole", schedule="smoke", ticks=20, seed=0)
        )
        doc = rep.to_dict()
        assert doc["ok"] == rep.ok
        assert doc["invariants"] == rep.invariants
        assert "fired" in doc and "metrics" in doc
        assert "faults fired" in rep.summary()


@pytest.mark.slow
class TestProcessBackendCampaign:
    def test_worker_kill_respawns_pool_and_recovers(self):
        schedule = FaultSchedule(
            specs=(FaultSpec("shard_crash", start=4, stop=8, sessions=(0,)),),
            seed=0,
            name="shard-kill",
        )
        rep = run_campaign(
            CampaignConfig(
                robot="CartPole",
                schedule=schedule,
                sessions=2,
                ticks=20,
                deadline_s=1.0,
                shards=2,
                shard_backend="process",
                seed=0,
            )
        )
        assert rep.ok, rep.violations
        assert rep.fired.get("shard_crash", 0) >= 1
        # A shard_crash ships with the shard's next group and the worker
        # process hard-exits: the engine must notice the dead pool, charge
        # only that group's sessions one fallback period, hand them off,
        # and respawn the shard's worker.
        assert rep.metrics.fleet.worker_deaths >= 1
        assert rep.metrics.shard_respawns >= 1
        assert rep.metrics.fleet.crashes == 0
        assert all(state == ACTIVE for state in rep.session_states.values())


class TestServe2ShardCampaign:
    def test_shard_crashes_hand_off_and_recover(self):
        # Deterministic shard chaos: session 0's shard is shot twice
        # mid-campaign; the handoff invariant must hold on a 2-shard fleet.
        schedule = FaultSchedule(
            specs=(
                FaultSpec("shard_crash", start=4, stop=6, sessions=(0,)),
                FaultSpec("slow_worker", start=2, stop=5, magnitude=0.001),
            ),
            seed=0,
            name="shard-direct",
        )
        rep = run_campaign(
            CampaignConfig(
                robot="CartPole",
                schedule=schedule,
                sessions=4,
                ticks=20,
                deadline_s=1.0,
                shards=2,
                seed=0,
            )
        )
        assert rep.uncaught is None
        assert rep.ok, rep.violations
        # counted on both the session- and engine-side injectors
        assert rep.fired["shard_crash"] > 0
        assert rep.invariants["shard_handoff"]
        assert rep.metrics.shard_handoffs > 0
        assert rep.metrics.shard_respawns >= 1
        assert all(state == ACTIVE for state in rep.session_states.values())

    def test_builtin_shards_schedule_runs_v2(self):
        rep = run_campaign(
            CampaignConfig(
                robot="CartPole",
                schedule="shards",
                sessions=4,
                ticks=30,
                deadline_s=1.0,
                shards=2,
                seed=3,
            )
        )
        assert rep.uncaught is None
        assert rep.ok, rep.violations


class TestCrashedSessionRestart:
    def make(self, cart, script):
        return ControlSession(
            "t0",
            SessionConfig(robot="Cart", degrade_after=3),
            MPCController(ScriptedSolver(cart, script)),
        )

    def test_restart_recovers_crashed_session(self, cart):
        session = self.make(cart, ["ok", "ok"])
        session.step(X)
        session.mark_crashed()
        assert session.state == CRASHED
        out = session.restart()
        assert out.status == "restarted"
        assert session.state == ACTIVE
        after = session.step(X)
        assert after.status == "ok"
        assert np.all(np.isfinite(after.u))

    def test_restart_resets_ladder_and_warm_state(self, cart):
        session = self.make(cart, ["ok", "ok"])
        session.step(X)
        session.mark_crashed()
        session.restart()
        # Ladder back to square one: a fresh failure streak is needed to
        # degrade again.
        assert session.ladder.consecutive == 0
        assert session.controller._warm is None

    def test_restart_of_closed_session_rejected(self, cart):
        session = self.make(cart, ["ok"])
        session.close()
        with pytest.raises(SessionStateError, match="closed"):
            session.restart()

    def test_engine_restart_rejoins_tick_loop(self, cart):
        engine = AsyncServeEngine()
        session = self.make(cart, ["boom", "ok"])
        sid = engine.add_session(session)
        engine.tick({sid: (X, None)})
        assert engine.crashed_sessions() == [sid]
        # Crashed sessions are skipped, not retried.
        report = engine.tick({sid: (X, None)})
        assert not report.outcomes
        engine.restart_session(sid)
        report = engine.tick({sid: (X, None)})
        assert report.outcomes[sid].status == "ok"
        assert engine.crashed_sessions() == []
