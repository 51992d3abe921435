"""AsyncServeEngine tests: the tick facade, co-batching, admission and
load shedding, fault directives, solver-hooked sessions, placement by batch
key, and shard handoff (inline mode)."""

import asyncio
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AdmissionError, ServeError
from repro.mpc import MPCController
from repro.serve import ControlSession, SessionConfig
from repro.serve.telemetry import TraceWriter
from repro.serve2 import AsyncServeEngine, Serve2Config
from tests.test_serve_session import ScriptedSolver, cart  # noqa: F401

X = np.zeros(2)


def stub_session(cart, sid, script, **cfg):
    cfg.setdefault("robot", "Cart")
    cfg.setdefault("degrade_after", 3)
    solver = ScriptedSolver(cart, script)
    return ControlSession(sid, SessionConfig(**cfg), MPCController(solver))


def stub_fleet(cart, engine, n, script=("ok",), **cfg):
    return [
        engine.add_session(stub_session(cart, f"s{i}", list(script), **cfg))
        for i in range(n)
    ]


@pytest.fixture
def engines():
    made = []

    def make(**kwargs):
        engine = AsyncServeEngine(Serve2Config(**kwargs))
        made.append(engine)
        return engine

    yield make
    for engine in made:
        engine.shutdown()


class OneShotHook:
    """Chaos stub: emit one directive on the first dispatch, then None."""

    def __init__(self, directive):
        self.directive = directive
        self.calls = 0

    def on_dispatch(self, tick, session_id):
        self.calls += 1
        return self.directive if self.calls == 1 else None


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_sessions": 0},
            {"max_batch": 0},
            {"max_queue": 0},
            {"shards": 0},
            {"shard_backend": "carrier-pigeon"},
            {"qp_method": "sorcery"},
            {"rungs": ()},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ServeError):
            Serve2Config(**kwargs)


class TestAdmission:
    def test_capacity_enforced(self, cart, engines):
        engine = engines(max_sessions=2)
        stub_fleet(cart, engine, 2)
        with pytest.raises(AdmissionError):
            engine.add_session(stub_session(cart, "s9", ["ok"]))

    def test_closing_frees_a_slot(self, cart, engines):
        engine = engines(max_sessions=2)
        sids = stub_fleet(cart, engine, 2)
        engine.close_session(sids[0])
        engine.add_session(stub_session(cart, "s9", ["ok"]))

    def test_duplicate_id_rejected(self, cart, engines):
        engine = engines()
        engine.add_session(stub_session(cart, "dup", ["ok"]))
        with pytest.raises(ServeError):
            engine.add_session(stub_session(cart, "dup", ["ok"]))

    def test_sessions_pinned_round_robin(self, cart, engines):
        engine = engines(shards=2)
        sids = stub_fleet(cart, engine, 4)
        assert [engine.shard_of(sid) for sid in sids] == [0, 1, 0, 1]


def placed(cart, robots, shards, dead=()):
    """Register one stub session per entry of ``robots`` (in that order) on
    a fresh engine and return ``robot -> {shard, ...}`` plus per-shard
    session counts.  Each robot is one batch key."""
    engine = AsyncServeEngine(Serve2Config(shards=shards))
    try:
        for idx in dead:
            engine._shards[idx].dead = True
        for i, robot in enumerate(robots):
            engine.add_session(stub_session(cart, f"s{i}", ["ok"], robot=robot))
        where = {}
        load = [0] * shards
        for i, robot in enumerate(robots):
            shard = engine.shard_of(f"s{i}")
            where.setdefault(robot, set()).add(shard)
            load[shard] += 1
        return where, load
    finally:
        engine.shutdown()


class TestPlacement:
    """Sessions are placed on shards by ``(robot, bucket)`` batch key."""

    @settings(max_examples=30, deadline=None)
    @given(order=st.permutations(["A"] * 4 + ["B"] * 4))
    def test_two_keys_take_one_shard_each(self, cart, order):
        where, load = placed(cart, order, shards=2)
        assert where == {"A": {0}, "B": {1}}  # equal sizes: ties by key
        assert load == [4, 4]

    @settings(max_examples=40, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 5), min_size=5, max_size=5),
        data=st.data(),
    )
    def test_many_keys_whole_and_balanced(self, cart, sizes, data):
        robots = [f"K{k}" for k, n in enumerate(sizes) for _ in range(n)]
        order = data.draw(st.permutations(robots))
        where, load = placed(cart, order, shards=2)
        assert all(len(shards) == 1 for shards in where.values())
        assert abs(load[0] - load[1]) <= max(sizes)
        # the map is a function of the key census, not of arrival order
        assert placed(cart, robots, shards=2)[0] == where

    def test_fewer_keys_than_shards_spread_with_no_idle_shard(self, cart):
        where, load = placed(cart, ["A"] * 4 + ["B"] * 2, shards=3)
        assert where == {"A": {0, 1}, "B": {2}}
        assert load == [2, 2, 2]

    def test_dead_shards_are_excluded(self, cart):
        where, load = placed(cart, ["A"] * 3 + ["B"] * 3, shards=3, dead=(0,))
        assert where == {"A": {1}, "B": {2}}
        assert load[0] == 0
        where, load = placed(cart, ["A"] * 4, shards=3, dead=(1,))
        assert where == {"A": {0, 2}}

    def test_trace_names_the_shard_a_session_is_served_on(self, cart):
        sink = io.StringIO()
        engine = AsyncServeEngine(Serve2Config(shards=2), trace=TraceWriter(sink))
        routed = {}
        push = engine._scheduler.push

        def spy(request):
            routed[request.session_id] = request.shard
            push(request)

        engine._scheduler.push = spy
        try:
            sids = stub_fleet(cart, engine, 3, robot="A")
            engine.tick({sid: (X, None) for sid in sids})
            # a second key rebalances: "A" moves whole onto one shard
            sids.append(engine.add_session(stub_session(cart, "b0", ["ok"], robot="B")))
            engine.tick({sid: (X, None) for sid in sids})
        finally:
            engine.shutdown()
        traced = {}
        for line in sink.getvalue().splitlines():
            record = json.loads(line)
            if record["type"] == "session":
                traced[record["session"]] = record["shard"]
        assert set(traced) == set(sids)
        assert traced == routed
        assert set(routed.values()) == {0, 1}


class TestTickFacade:
    def test_steps_every_session_with_input(self, cart, engines):
        engine = engines()
        sids = stub_fleet(cart, engine, 3)
        report = engine.tick({sid: (X, None) for sid in sids})
        assert report.stepped == 3
        assert all(o.status == "ok" for o in report.outcomes.values())
        assert engine.metrics.fleet.steps == 3
        assert engine.metrics.fleet.ok == 3

    def test_closed_sessions_are_skipped(self, cart, engines):
        engine = engines()
        sids = stub_fleet(cart, engine, 2)
        engine.close_session(sids[1])
        report = engine.tick({sid: (X, None) for sid in sids})
        assert set(report.outcomes) == {sids[0]}

    def test_stub_robots_fall_back_to_scalar_lanes(self, cart, engines):
        """'Cart' has no registry benchmark, so its groups step
        scalar-inline and the fallback reason is recorded."""
        engine = engines()
        sids = stub_fleet(cart, engine, 2)
        engine.tick({sid: (X, None) for sid in sids})
        assert engine.metrics.group_fallbacks["unbatchable_binding"] >= 2

    def test_queue_cap_sheds(self, cart, engines):
        engine = engines(max_queue=1)
        sids = stub_fleet(cart, engine, 3)
        report = engine.tick({sid: (X, None) for sid in sids})
        statuses = [o.status for o in report.outcomes.values()]
        assert statuses.count("ok") == 1
        assert engine.metrics.fleet.sheds == 2

    def test_expired_deadline_is_shed_at_dispatch(self, cart, engines):
        engine = engines()
        [sid] = stub_fleet(cart, engine, 1, deadline_s=1e-9)
        report = engine.tick({sid: (X, None)})
        assert report.outcomes[sid].reason == "shed"

    def test_late_shedding_can_be_disabled(self, cart, engines):
        engine = engines(shed_late=False)
        [sid] = stub_fleet(cart, engine, 1, deadline_s=1e-9)
        report = engine.tick({sid: (X, None)})
        assert report.outcomes[sid].status == "ok"


class TestFaultDirectives:
    def test_worker_crash_costs_one_ladder_step(self, cart, engines):
        engine = engines()
        sids = stub_fleet(cart, engine, 2)
        engine.fault_hook = OneShotHook({"kind": "worker_crash"})
        report = engine.tick({sid: (X, None) for sid in sids})
        reasons = [o.reason for o in report.outcomes.values()]
        assert reasons.count("worker_died") == 1
        report = engine.tick({sid: (X, None) for sid in sids})
        assert all(o.status == "ok" for o in report.outcomes.values())

    def test_shard_crash_hands_sessions_off(self, cart, engines):
        engine = engines(shards=2)
        sids = stub_fleet(cart, engine, 4)
        victims = [sid for sid in sids if engine.shard_of(sid) == 0]
        engine.fault_hook = OneShotHook({"kind": "shard_crash"})
        report = engine.tick({sid: (X, None) for sid in sids})
        # shard 0's lanes paid one worker_died step; shard 1's solved
        assert {report.outcomes[sid].reason for sid in victims} == {"worker_died"}
        assert engine.metrics.shard_handoffs == len(victims)
        assert engine.metrics.shard_respawns == 1
        assert all(engine.shard_of(sid) == 1 for sid in victims)
        report = engine.tick({sid: (X, None) for sid in sids})
        assert all(o.status == "ok" for o in report.outcomes.values())


class TestRealRobotBatching:
    def test_same_bucket_sessions_cobatch(self, engines):
        engine = engines(rungs=(8,))
        sids = [
            engine.create_session(
                SessionConfig(robot="CartPole", horizon=h, deadline_s=None)
            )
            for h in (5, 6, 8)
        ]
        bench, _ = engine.binding("CartPole", 5)
        report = engine.tick({sid: (bench.x0, bench.ref) for sid in sids})
        assert report.stepped == 3
        assert all(o.status == "ok" for o in report.outcomes.values())
        # all three horizons padded into one bucket-8 group solve
        assert engine.metrics.batch_solves == 1
        assert engine.metrics.batched_lanes == 3
        assert engine.metrics.padded_lanes == 2  # h=8 lane is exact-fit

    def test_async_submit_api(self, engines):
        engine = engines(rungs=(8,))
        sids = [
            engine.create_session(
                SessionConfig(robot="CartPole", horizon=5, deadline_s=None)
            )
            for _ in range(2)
        ]
        bench, _ = engine.binding("CartPole", 5)

        async def drive():
            return await asyncio.gather(
                *(engine.submit(sid, bench.x0, bench.ref) for sid in sids)
            )

        outcomes = engine._loop.run_until_complete(drive())
        assert all(o.status == "ok" for o in outcomes)
        assert engine.metrics.batch_solves == 1
        assert engine.metrics.batched_lanes == 2

    def test_padded_step_matches_native_v1_step(self, engines):
        """Closed loop, tick after tick, the padded-bucket lane must serve
        the plan the session's own inline step (``ControlSession.step``, the
        scalar controller path) serves from the same state: the end-to-end
        equivalence check between the batched lanes and the scalar
        controller."""
        from repro.mpc import PlantIntegrator

        cfg = SessionConfig(robot="CartPole", horizon=5, deadline_s=None)
        engine = engines(rungs=(8,))
        sid = engine.create_session(cfg)
        bench, problem = engine.binding("CartPole", 5)
        native = ControlSession.from_benchmark(
            "native", cfg, bench=bench, problem=problem
        )
        plant = PlantIntegrator(problem)
        x = np.asarray(bench.x0, dtype=float)
        for _ in range(4):
            out = engine.tick({sid: (x, bench.ref)}).outcomes[sid]
            ref = native.step(x, ref=bench.ref)
            assert out.status == ref.status == "ok"
            np.testing.assert_allclose(out.u, ref.u, atol=1e-4)
            x = plant.advance(x, out.u, problem.dt, 2)

    def test_hooked_session_steps_on_its_own_solver(self, engines):
        """A session whose solver carries a chaos hook steps on that solver
        (where the hook fires); its bucket-mate still batches."""

        class CountingHook:
            calls = 0

            def force_failure(self):
                self.calls += 1
                return False

        engine = engines(rungs=(8,))
        cfg = SessionConfig(robot="CartPole", horizon=5, deadline_s=None)
        hooked, plain = (engine.create_session(cfg) for _ in range(2))
        hook = CountingHook()
        engine.get_session(hooked).controller.solver.fault_hook = hook
        bench, _ = engine.binding("CartPole", 5)
        report = engine.tick({sid: (bench.x0, bench.ref) for sid in (hooked, plain)})
        assert all(o.status == "ok" for o in report.outcomes.values())
        assert hook.calls > 0  # the hooked session's own solver ran
        assert engine.metrics.group_fallbacks == {"solver_hooked": 1}
        assert engine.metrics.batch_solves == 1
        assert engine.metrics.batched_lanes == 1  # the unhooked one batched
