"""Batched serving — the v2 engine's group solves: group keys, lane
scatter, fallbacks, and batch telemetry.  (The v1 ``batched`` backend
these cases were written against is retired; rungs equal to the native
horizons make ``AsyncServeEngine`` its exact-key grouping.)"""

import numpy as np
import pytest

from repro.errors import ServeError
from repro.serve import EngineConfig, LoadConfig, ServeEngine, SessionConfig
from repro.serve.telemetry import render_summary
from repro.serve2 import AsyncServeEngine, Serve2Config
from tests.test_serve_engine import fleet
from tests.test_serve_session import cart  # noqa: F401


@pytest.fixture
def batched_engine():
    made = []

    def make(rungs=(6, 8), **cfg):
        made.append(AsyncServeEngine(Serve2Config(rungs=rungs, **cfg)))
        return made[-1]

    yield make
    for engine in made:
        engine.shutdown()


def make_fleet(engine, specs):
    """specs: list of (robot, horizon); returns sids in order.

    Deadlines are disabled: these tests assert on solver outcomes, not
    wall-clock behavior (deadline semantics are covered separately).
    """
    return [
        engine.create_session(
            SessionConfig(robot=robot, horizon=horizon, deadline_s=None)
        )
        for robot, horizon in specs
    ]


def tick_states(engine, sids):
    inputs = {}
    for sid in sids:
        session = engine.sessions[sid]
        bench, _problem = engine.binding(
            session.config.robot, session.config.horizon
        )
        inputs[sid] = (np.asarray(bench.x0, dtype=float), None)
    return engine.tick(inputs)


class TestConfig:
    def test_array_backend_requires_batched(self):
        # the scalar engine has no array backend to select
        with pytest.raises(ServeError, match="v2"):
            LoadConfig(engine="v1", array_backend="numpy")
        cfg = LoadConfig(engine="v2", array_backend="numpy:float32")
        assert cfg.array_backend == "numpy:float32"

    def test_array_backend_reaches_the_group_solver(self, batched_engine):
        engine = batched_engine(array_backend="numpy:float32")
        sids = make_fleet(engine, [("MobileRobot", 6)] * 2)
        tick_states(engine, sids)
        binding = engine._shards[0].bindings[("MobileRobot", 6)]
        assert binding.batch_solver.xp.dtype_name == "float32"
        assert engine.metrics.batch_solves == 1


class TestGroupKey:
    """Sessions are co-batched **only** on an exact (shard, robot, bucket)
    match — different rungs, robots or shards never share a group solve."""

    def test_mixed_horizons_never_co_batched(self, batched_engine):
        engine = batched_engine()
        sids = make_fleet(
            engine,
            [("MobileRobot", 6), ("MobileRobot", 6), ("MobileRobot", 8)],
        )
        report = tick_states(engine, sids)
        assert len(report.outcomes) == 3
        m = engine.metrics
        # Two group solves (rung-6 pair, rung-8 singleton) — never one of three.
        assert m.batch_solves == 2
        assert m.max_batch == 2
        assert m.batched_lanes == 3

    def test_mixed_robots_never_co_batched(self, batched_engine):
        engine = batched_engine()
        sids = make_fleet(
            engine, [("MobileRobot", 6), ("CartPole", 6), ("CartPole", 6)]
        )
        tick_states(engine, sids)
        m = engine.metrics
        assert m.batch_solves == 2
        assert m.max_batch == 2

    def test_group_key_is_config_not_shape(self, batched_engine):
        engine = batched_engine(shards=2)
        sids = make_fleet(
            engine, [("MobileRobot", 6), ("CartPole", 6), ("MobileRobot", 6)]
        )
        for sid in sids:
            engine._submit_request(sid, np.zeros(4), None)
        keys = [req.group_key for req in engine._scheduler.drain()]
        # (shard, robot, bucket): only sessions 0 and 2 may share a solve
        assert keys == [
            (0, "MobileRobot", 6),
            (1, "CartPole", 6),
            (0, "MobileRobot", 6),
        ]


class TestDispatch:
    def test_lanes_get_ok_outcomes(self, batched_engine):
        engine = batched_engine()
        sids = make_fleet(engine, [("MobileRobot", 6)] * 3)
        report = tick_states(engine, sids)
        assert all(o.status == "ok" for o in report.outcomes.values())
        assert engine.metrics.fleet.ok == 3

    def test_matches_inline_backend_outcomes(self, batched_engine):
        specs = [("MobileRobot", 6)] * 3
        batched = batched_engine()
        inline = ServeEngine(EngineConfig())
        b_sids = make_fleet(batched, specs)
        i_sids = make_fleet(inline, specs)
        b_rep = tick_states(batched, b_sids)
        i_rep = tick_states(inline, i_sids)
        for bs, is_ in zip(b_sids, i_sids):
            bo, io = b_rep.outcomes[bs], i_rep.outcomes[is_]
            assert bo.status == io.status
            assert np.allclose(bo.u, io.u, atol=1e-6)

    def test_non_gauss_newton_robot_steps_inline(self, batched_engine):
        engine = batched_engine(rungs=(4,))
        sids = make_fleet(engine, [("MicroSat", 4)] * 2)
        report = tick_states(engine, sids)
        assert len(report.outcomes) == 2
        # No batched solve happened (hybrid Hessian -> scalar fallback) ...
        assert engine.metrics.batch_solves == 0
        assert engine.metrics.group_fallbacks["unbatchable_binding"] == 2
        # ... but the sessions still stepped.
        assert engine.metrics.fleet.steps == 2

    def test_stub_sessions_without_binding_step_inline(self, cart, batched_engine):
        engine = batched_engine()
        sids = fleet(cart, engine, 2)
        report = engine.tick({sid: (np.zeros(2), None) for sid in sids})
        assert all(o.status == "ok" for o in report.outcomes.values())
        assert engine.metrics.batch_solves == 0

    def test_bad_state_lane_isolated(self, batched_engine):
        engine = batched_engine()
        sids = make_fleet(engine, [("MobileRobot", 6)] * 3)
        bench, _ = engine.binding("MobileRobot", 6)
        x0 = np.asarray(bench.x0, dtype=float)
        inputs = {sid: (x0.copy(), None) for sid in sids}
        inputs[sids[1]] = (np.full_like(x0, np.nan), None)
        report = engine.tick(inputs)
        assert report.outcomes[sids[1]].reason == "bad_state"
        assert report.outcomes[sids[1]].fallback
        for sid in (sids[0], sids[2]):
            assert report.outcomes[sid].status == "ok"
        # The poisoned lane never entered the batch.
        assert engine.metrics.batched_lanes == 2

    def test_worker_crash_fault_directive(self, batched_engine):
        engine = batched_engine()
        sids = make_fleet(engine, [("MobileRobot", 6)] * 2)

        class Hook:
            def on_dispatch(self, tick, sid):
                return {"kind": "worker_crash"} if sid == sids[0] else None

        engine.fault_hook = Hook()
        report = tick_states(engine, sids)
        assert report.outcomes[sids[0]].reason == "worker_died"
        assert report.outcomes[sids[1]].status == "ok"
        assert engine.metrics.batched_lanes == 1

    def test_warm_start_carries_across_ticks(self, batched_engine):
        engine = batched_engine()
        sids = make_fleet(engine, [("MobileRobot", 6)] * 2)
        r1 = tick_states(engine, sids)
        r2 = tick_states(engine, sids)
        for sid in sids:
            assert r2.outcomes[sid].status == "ok"
            # Warm-started resolve of the same state converges faster.
            assert (
                r2.outcomes[sid].sqp_iterations
                <= r1.outcomes[sid].sqp_iterations
            )


class TestTelemetry:
    def test_batching_block_in_to_dict(self, batched_engine):
        engine = batched_engine()
        sids = make_fleet(engine, [("MobileRobot", 6)] * 2)
        tick_states(engine, sids)
        block = engine.metrics.to_dict()["batching"]
        assert block["batch_solves"] == 1
        assert block["batched_lanes"] == 2
        assert block["mean_batch"] == 2.0
        assert 0.0 < block["batch_efficiency"] <= 1.0
        assert 0.0 < block["sqp_batch_efficiency"] <= 1.0

    def test_summary_line_gated_on_batched_solves(self, batched_engine):
        engine = batched_engine()
        sids = make_fleet(engine, [("MobileRobot", 6)] * 2)
        tick_states(engine, sids)
        text = render_summary(engine.metrics, engine.session_states())
        assert "batching:" in text
        inline = ServeEngine(EngineConfig())
        i_sids = make_fleet(inline, [("MobileRobot", 6)])
        tick_states(inline, i_sids)
        assert "batching:" not in render_summary(
            inline.metrics, inline.session_states()
        )

    def test_collect_solver_stats_includes_batch_solver(self, batched_engine):
        engine = batched_engine()
        sids = make_fleet(engine, [("MobileRobot", 6)] * 2)
        tick_states(engine, sids)
        engine.collect_solver_stats()
        assert engine.metrics.phase_totals["factorizations"] > 0
