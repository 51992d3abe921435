"""Serving-runtime throughput benchmark.

Measures what the serving layer adds on top of raw solver time: fleet
steps/second for a deadline-budgeted mixed fleet and the per-step overhead
of the session/engine machinery versus calling the controller directly.

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_serve_throughput.py -q``.
"""

import numpy as np
import pytest

from repro.robots import build_benchmark
from repro.serve import EngineConfig, LoadConfig, ServeEngine, SessionConfig, run_load

ROBOT = "MobileRobot"
HORIZON = 6
DEADLINE = 0.2


def make_engine(sessions, **cfg):
    engine = ServeEngine(EngineConfig(max_sessions=sessions, **cfg))
    sids = [
        engine.create_session(
            SessionConfig(robot=ROBOT, horizon=HORIZON, deadline_s=DEADLINE)
        )
        for _ in range(sessions)
    ]
    bench, _ = engine.binding(ROBOT, HORIZON)
    inputs = {sid: (np.asarray(bench.x0, dtype=float), None) for sid in sids}
    # Warm every session once so the benchmark measures steady-state ticks.
    engine.tick(inputs)
    return engine, inputs


def test_single_session_step_overhead(benchmark):
    """Session-layer overhead on one warm budgeted step."""
    engine, inputs = make_engine(1)
    report = benchmark(engine.tick, inputs)
    assert report.stepped == 1
    assert not engine.crashed_sessions()
    engine.shutdown()


@pytest.mark.parametrize("sessions", [4, 8])
def test_fleet_tick_inline(benchmark, sessions):
    engine, inputs = make_engine(sessions)
    report = benchmark(engine.tick, inputs)
    assert report.stepped == sessions
    engine.shutdown()


def test_controller_step_baseline(benchmark):
    """Raw controller step (no serving layer) — the overhead reference."""
    bench = build_benchmark(ROBOT)
    problem = bench.transcribe(horizon=HORIZON)
    controller = bench.make_controller(problem)
    x0 = np.asarray(bench.x0, dtype=float)
    controller.step(x0, ref=bench.ref)  # warm up

    u = benchmark(controller.step, x0, ref=bench.ref)
    assert np.all(np.isfinite(u))


def test_load_run_throughput(benchmark):
    """End-to-end steps/second through run_load (plant included)."""
    config = LoadConfig(
        sessions=6,
        ticks=4,
        robots=(ROBOT,),
        horizon=HORIZON,
        deadline_s=DEADLINE,
        seed=0,
    )
    report = benchmark.pedantic(run_load, args=(config,), rounds=1, iterations=1)
    assert report.ok
    assert report.metrics.fleet.steps == 24
