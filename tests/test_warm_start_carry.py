"""The warm start a served solve carries across ticks is the shifted
primal plan, and only that: these tests pin that the carry is live."""

import numpy as np
import pytest

from repro.mpc.controller import MPCController
from repro.robots import build_benchmark
from repro.serve import SessionConfig
from repro.serve.session import ControlSession
from repro.serve2 import AsyncServeEngine, Serve2Config


@pytest.fixture(scope="module")
def mobile():
    bench = build_benchmark("MobileRobot")
    return bench, bench.transcribe(horizon=8)


def test_shifted_plan_saves_sqp_iterations(mobile):
    bench, problem = mobile
    iterations = {}
    for warm in (True, False):
        ctrl = MPCController(bench.make_solver(problem), warm_start=warm)
        log = ctrl.simulate(bench.x0, 10, ref=bench.ref)
        iterations[warm] = sum(log.solver_iterations)
    assert iterations[True] < iterations[False]


def _served_plans(monkeypatch, drop_warm):
    if drop_warm:
        payload = ControlSession.solve_payload

        def cold_payload(self, *args, **kwargs):
            return dict(payload(self, *args, **kwargs), z_warm=None)

        monkeypatch.setattr(ControlSession, "solve_payload", cold_payload)
    engine = AsyncServeEngine(Serve2Config(shards=1, rungs=(8,)))
    try:
        sid = engine.create_session(
            SessionConfig(robot="MobileRobot", horizon=8, deadline_s=None)
        )
        bench, _ = engine.binding("MobileRobot", 8)
        plans = []
        for _ in range(3):
            report = engine.tick({sid: (bench.x0, bench.ref)})
            assert report.outcomes[sid].status == "ok"
            plans.append(engine.get_session(sid).controller.last_result.z)
        return plans
    finally:
        engine.shutdown()


def test_session_without_its_warm_plan_serves_another_plan(monkeypatch):
    warm = _served_plans(monkeypatch, drop_warm=False)
    cold = _served_plans(monkeypatch, drop_warm=True)
    np.testing.assert_array_equal(warm[0], cold[0])  # nothing to carry yet
    assert not np.array_equal(warm[-1], cold[-1])
