"""Shard arena tests: binding cache, kill/revive, the worker-side group
solve, and real process-mode shard death with session handoff."""

import numpy as np
import pytest

from repro.robots import build_benchmark
from repro.serve import SessionConfig
from repro.serve.wire import result_from_dict, result_to_dict
from repro.serve2 import AsyncServeEngine, Serve2Config
from repro.serve2.shard import Shard, shard_solve_group


class TestShardState:
    def test_binding_is_cached(self):
        shard = Shard(0)
        bench = build_benchmark("CartPole")
        b1 = shard.binding("CartPole", 8, bench)
        b2 = shard.binding("CartPole", 8, bench)
        assert b1 is b2

    def test_kill_and_revive(self):
        shard = Shard(0)
        assert not shard.dead
        shard.kill()
        assert shard.dead
        shard.revive()
        assert not shard.dead

    def test_bindings_survive_death(self):
        shard = Shard(0)
        bench = build_benchmark("CartPole")
        binding = shard.binding("CartPole", 8, bench)
        shard.kill()
        shard.revive()
        assert shard.binding("CartPole", 8, bench) is binding


class TestWorkerGroupSolve:
    def test_result_dict_roundtrip(self):
        bench = build_benchmark("CartPole")
        problem = bench.transcribe(horizon=5)
        res = bench.make_solver(problem).solve(bench.x0, ref=bench.ref)
        back = result_from_dict(result_to_dict(res))
        np.testing.assert_array_equal(back.z, res.z)
        assert back.converged == res.converged
        assert back.status == res.status
        assert back.iterations == res.iterations

    def test_group_solve_in_this_process(self):
        """shard_solve_group is a plain function — drive it inline."""
        from repro.serve2.padding import pad_reference

        bench = build_benchmark("CartPole")
        native = bench.transcribe(horizon=5)
        reply = shard_solve_group(
            {
                "robot": "CartPole",
                "bucket": 8,
                "payloads": [
                    {
                        "x": bench.x0,
                        "ref": pad_reference(bench.ref, native.nref, 5, 8),
                        "deadline_s": None,
                    }
                ],
            }
        )
        assert reply["ok"]
        assert len(reply["lanes"]) == 1
        assert reply["lanes"][0]["converged"]
        assert reply["report"]["lanes"] == 1

    def test_unbatchable_group_is_a_solver_error_reply(self):
        """The engine steps unbatchable bindings scalar-inline; a group that
        reaches a worker anyway is refused, not solved lane by lane."""
        reply = shard_solve_group(
            {"robot": "MicroSat", "bucket": 4, "payloads": [{}]}
        )
        assert not reply["ok"]
        assert reply["kind"] == "solver_error"


class TestProcessShards:
    @pytest.fixture
    def engine(self):
        engine = AsyncServeEngine(
            Serve2Config(shards=2, shard_backend="process", rungs=(8,))
        )
        yield engine
        engine.shutdown()

    def test_groups_solve_on_worker_processes(self, engine):
        sids = [
            engine.create_session(
                SessionConfig(robot="CartPole", horizon=5, deadline_s=None)
            )
            for _ in range(4)
        ]
        bench, _ = engine.binding("CartPole", 5)
        report = engine.tick({sid: (bench.x0, bench.ref) for sid in sids})
        assert report.stepped == 4
        assert all(o.status == "ok" for o in report.outcomes.values())
        assert engine.metrics.batch_solves == 2  # one group per shard

    def test_shard_death_is_a_real_process_death(self, engine):
        sids = [
            engine.create_session(
                SessionConfig(robot="CartPole", horizon=5, deadline_s=None)
            )
            for _ in range(4)
        ]
        bench, _ = engine.binding("CartPole", 5)
        engine.tick({sid: (bench.x0, bench.ref) for sid in sids})

        class Hook:
            fired = 0

            def on_dispatch(self, tick, session_id):
                if not Hook.fired:
                    Hook.fired = 1
                    return {"kind": "shard_crash"}
                return None

        engine.fault_hook = Hook()
        report = engine.tick({sid: (bench.x0, bench.ref) for sid in sids})
        died = [
            sid
            for sid, o in report.outcomes.items()
            if o.reason == "worker_died"
        ]
        assert len(died) == 2  # the armed shard's whole group
        assert engine.metrics.shard_handoffs == 2
        assert engine.metrics.shard_respawns == 1
        survivor = engine.shard_of(died[0])
        assert all(engine.shard_of(sid) == survivor for sid in died)
        report = engine.tick({sid: (bench.x0, bench.ref) for sid in sids})
        assert all(o.status == "ok" for o in report.outcomes.values())

    def test_binding_added_after_the_fork_is_primed(self, engine):
        """A key placed on a shard whose worker already forked must not be
        built inside its first solve: the worker forks again, primed."""
        sids = [
            engine.create_session(
                SessionConfig(robot="CartPole", horizon=5, deadline_s=None)
            )
            for _ in range(4)
        ]
        bench, _ = engine.binding("CartPole", 5)
        engine.tick({sid: (bench.x0, bench.ref) for sid in sids})
        assert engine.metrics.batch_solves == 2  # both workers forked
        late = engine.create_session(
            SessionConfig(robot="MobileRobot", horizon=5, deadline_s=None)
        )
        mobile, _ = engine.binding("MobileRobot", 5)
        inputs = {sid: (bench.x0, bench.ref) for sid in sids}
        inputs[late] = (mobile.x0, mobile.ref)
        report = engine.tick(inputs)
        assert all(o.status == "ok" for o in report.outcomes.values())
        assert engine.metrics.batch_solves == 4  # CartPole whole + MobileRobot
        assert engine.shard_of(late) != engine.shard_of(sids[0])
        assert engine.metrics.shard_cold_groups == 0
        waits, solves = engine.metrics.shard_wait_s, engine.metrics.shard_solve_s
        assert set(waits) == set(solves) == {0, 1}
        assert all(0.0 < solves[i] <= waits[i] for i in waits)


def _fleet_phase_totals(shards, backend):
    """Phase totals of one seeded two-robot fleet after three ticks."""
    engine = AsyncServeEngine(
        Serve2Config(shards=shards, shard_backend=backend, rungs=(8,))
    )
    try:
        rng = np.random.default_rng(7)
        inputs = {}
        for robot, horizon in (("CartPole", 5), ("MobileRobot", 6)) * 2:
            sid = engine.create_session(
                SessionConfig(robot=robot, horizon=horizon, deadline_s=None)
            )
            bench, _ = engine.binding(robot, horizon)
            x0 = bench.x0 + 0.05 * rng.standard_normal(len(bench.x0))
            inputs[sid] = (x0, bench.ref)
        for _ in range(3):
            report = engine.tick(inputs)
            assert all(o.status == "ok" for o in report.outcomes.values())
        engine.collect_solver_stats()
        return dict(engine.metrics.phase_totals)
    finally:
        engine.shutdown()


def test_process_shards_report_their_solver_phases():
    """The workers' phase stats cross the reply: two process shards count
    the same factorizations as one inline shard solving the same fleet."""
    inline = _fleet_phase_totals(1, "inline")
    process = _fleet_phase_totals(2, "process")
    for key in (
        "factorizations",
        "banded_factorizations",
        "input_stops",
        "qp_warm_starts",
    ):
        assert process[key] == inline[key] > 0, key
    assert process["linearize_time"] > 0.0
