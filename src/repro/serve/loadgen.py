"""Load generator: drive a mixed-robot session fleet against the plant.

This is the serving analogue of :meth:`MPCController.simulate`: each session
gets its own ground-truth plant (the RK4 :class:`PlantIntegrator` over the
continuous dynamics), its initial state perturbed around the benchmark's
``x0``, and the engine ticks the whole fleet — deadline-budgeted solves,
fallbacks, backpressure and all.  ``repro serve-sim`` is a thin CLI wrapper
around :func:`run_load`.

Plant states that leave the finite range (a fleet member hovering through a
long degraded stretch can drift arbitrarily) are re-seeded at the
benchmark's ``x0`` and counted, so one runaway plant cannot poison a run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ServeError
from repro.mpc.controller import PlantIntegrator
from repro.serve.engine import EngineConfig, ServeEngine
from repro.serve.session import SessionConfig
from repro.serve.telemetry import FleetMetrics, TraceWriter, render_summary

__all__ = ["LoadConfig", "LoadReport", "run_load", "resolve_seed"]


def resolve_seed(seed: Optional[int]) -> int:
    """An explicit seed wins; otherwise ``REPRO_BENCH_SEED`` (default 0),
    so seeded benchmark runs and the load generator draw from one knob."""
    if seed is not None:
        return int(seed)
    return int(os.environ.get("REPRO_BENCH_SEED", "0"))

#: default mixed-robot rotation: one cheap, one mid, one heavy solver, so a
#: budgeted run exercises healthy sessions, warm-up misses, and sustained
#: degradation in a single fleet
DEFAULT_ROBOTS = ("MobileRobot", "MicroSat", "Quadrotor")


@dataclass(frozen=True)
class LoadConfig:
    """One load-generation scenario."""

    sessions: int = 20
    ticks: int = 20
    robots: Sequence[str] = DEFAULT_ROBOTS
    horizon: int = 8
    #: per-session horizon rotation (cycled); None = every session at
    #: ``horizon``.  Mixed horizons are what serve2's bucketing co-batches.
    horizons: Optional[Sequence[int]] = None
    #: per-step solve deadline in seconds (None disables budgeting)
    deadline_s: Optional[float] = 0.05
    degrade_after: int = 3
    #: scale of the N(0,1) perturbation added to each benchmark x0
    x0_noise: float = 0.02
    #: None resolves from ``REPRO_BENCH_SEED`` (default 0) at run time
    seed: Optional[int] = None
    #: probability a session sits a tick out (its own seeded stream, so
    #: jitter on/off never perturbs the x0 draws)
    arrival_jitter: float = 0.0
    #: "cycle" assigns robots round-robin; "sample" draws each session's
    #: robot from ``robots`` with a seeded RNG
    robot_mix: str = "cycle"
    #: "v1" (scalar ServeEngine: inline, or a process pool when
    #: ``workers > 0``) or "v2" (async continuous batching)
    engine: str = "v1"
    #: serve2 knobs (engine="v2" only)
    shards: int = 1
    shard_backend: str = "inline"
    rungs: Optional[Sequence[int]] = None
    max_batch: int = 64
    max_queue: Optional[int] = None
    #: array backend of the batched lanes (engine="v2" only; None = env /
    #: numpy default)
    array_backend: Optional[str] = None
    #: v1 process-pool size (0 = scalar-inline)
    workers: int = 0
    #: inner QP solver for every fleet session: "ipm" or "admm"
    qp_method: str = "ipm"
    tick_budget_s: Optional[float] = None
    #: plant RK4 sub-steps per control interval
    substeps: int = 2
    trace_path: Optional[str] = None

    def __post_init__(self):
        if self.sessions < 1:
            raise ServeError("sessions must be >= 1")
        if self.ticks < 1:
            raise ServeError("ticks must be >= 1")
        if not self.robots:
            raise ServeError("robots must be non-empty")
        if self.horizons is not None and not self.horizons:
            raise ServeError("horizons must be non-empty (or None)")
        if not 0.0 <= self.arrival_jitter < 1.0:
            raise ServeError("arrival_jitter must be in [0, 1)")
        if self.robot_mix not in ("cycle", "sample"):
            raise ServeError(f"unknown robot_mix {self.robot_mix!r}")
        if self.engine not in ("v1", "v2"):
            raise ServeError(f"unknown engine {self.engine!r}")
        if self.array_backend is not None and self.engine != "v2":
            raise ServeError(
                "array_backend requires engine='v2' (--engine v2): the scalar "
                "engine has no batched lanes"
            )


@dataclass
class LoadReport:
    """Outcome of one load run."""

    config: LoadConfig
    metrics: FleetMetrics
    session_states: Dict[str, str]
    crashed: List[str]
    plant_resets: int
    wall_time_s: float
    trace_path: Optional[str] = None
    #: per-tick (duration_s, stepped, deferred) triples
    tick_log: List[Tuple[float, int, int]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no session crashed (the serve-smoke gate)."""
        return not self.crashed

    def summary(self) -> str:
        return render_summary(self.metrics, self.session_states)

    def to_dict(self) -> Dict[str, object]:
        return {
            "engine": self.config.engine,
            "sessions": self.config.sessions,
            "ticks": self.config.ticks,
            "robots": list(self.config.robots),
            "horizon": self.config.horizon,
            "deadline_s": self.config.deadline_s,
            "crashed": list(self.crashed),
            "plant_resets": self.plant_resets,
            "wall_time_s": self.wall_time_s,
            "session_states": dict(self.session_states),
            "metrics": self.metrics.to_dict(),
        }


def _build_engine(config: LoadConfig, trace):
    if config.engine == "v2":
        from repro.serve2 import DEFAULT_RUNGS, AsyncServeEngine, Serve2Config

        return AsyncServeEngine(
            Serve2Config(
                max_sessions=config.sessions,
                rungs=(
                    tuple(config.rungs)
                    if config.rungs is not None
                    else DEFAULT_RUNGS
                ),
                max_batch=config.max_batch,
                max_queue=config.max_queue,
                shards=config.shards,
                shard_backend=config.shard_backend,
                qp_method=config.qp_method,
                array_backend=config.array_backend,
            ),
            trace=trace,
        )
    return ServeEngine(
        EngineConfig(
            max_sessions=config.sessions,
            workers=config.workers,
            tick_budget_s=config.tick_budget_s,
        ),
        trace=trace,
    )


def run_load(config: LoadConfig) -> LoadReport:
    """Build the fleet, tick it ``config.ticks`` times, return the report."""
    seed = resolve_seed(config.seed)
    rng = np.random.default_rng(seed)
    # Dedicated streams so turning jitter or robot sampling on never
    # perturbs the x0 noise draws — identical fleets stay comparable.
    jitter_rng = np.random.default_rng([seed, 0x1177])
    mix_rng = np.random.default_rng([seed, 0x5EED])
    trace = (
        TraceWriter(config.trace_path) if config.trace_path is not None else None
    )
    engine = _build_engine(config, trace)

    t0 = perf_counter()
    plants: Dict[Tuple[str, int], PlantIntegrator] = {}
    x: Dict[str, np.ndarray] = {}
    x0_of: Dict[str, np.ndarray] = {}
    dt_of: Dict[str, float] = {}
    plant_of: Dict[str, PlantIntegrator] = {}
    plant_resets = 0

    for i in range(config.sessions):
        if config.robot_mix == "sample":
            robot = str(mix_rng.choice(list(config.robots)))
        else:
            robot = config.robots[i % len(config.robots)]
        horizon = (
            int(config.horizons[i % len(config.horizons)])
            if config.horizons is not None
            else config.horizon
        )
        sid = engine.create_session(
            SessionConfig(
                robot=robot,
                horizon=horizon,
                deadline_s=config.deadline_s,
                degrade_after=config.degrade_after,
                qp_method=config.qp_method,
            )
        )
        bench, problem = engine.binding(robot, horizon)
        key = (robot, horizon)
        if key not in plants:
            plants[key] = PlantIntegrator(problem)
        plant_of[sid] = plants[key]
        x0 = np.asarray(bench.x0, dtype=float)
        x0_of[sid] = x0
        x[sid] = x0 + config.x0_noise * rng.standard_normal(x0.shape)
        dt_of[sid] = problem.dt

    tick_log: List[Tuple[float, int, int]] = []
    for _ in range(config.ticks):
        serving = {
            sid: (x[sid], None)
            for sid, session in engine.sessions.items()
            if session.serving
        }
        if not serving:
            break
        inputs = serving
        if config.arrival_jitter:
            inputs = {
                sid: v
                for sid, v in serving.items()
                if jitter_rng.random() >= config.arrival_jitter
            }
            if not inputs:
                continue  # everyone sat this tick out; the fleet lives on
        report = engine.tick(inputs)
        tick_log.append(
            (report.duration_s, report.stepped, len(report.deferred))
        )
        for sid, outcome in report.outcomes.items():
            x_next = plant_of[sid].advance(
                x[sid], outcome.u, dt_of[sid], config.substeps
            )
            if not np.all(np.isfinite(x_next)):
                x_next = x0_of[sid].copy()
                plant_resets += 1
            x[sid] = x_next

    engine.collect_solver_stats()
    states = engine.session_states()
    crashed = engine.crashed_sessions()
    wall = perf_counter() - t0

    result = LoadReport(
        config=config,
        metrics=engine.metrics,
        session_states=states,
        crashed=crashed,
        plant_resets=plant_resets,
        wall_time_s=wall,
        trace_path=config.trace_path,
        tick_log=tick_log,
    )
    if trace is not None:
        trace.emit(
            "summary",
            wall_time_s=wall,
            crashed=crashed,
            plant_resets=plant_resets,
            **{"fleet": engine.metrics.fleet.to_dict()},
        )
        trace.close()
    engine.shutdown()
    return result
