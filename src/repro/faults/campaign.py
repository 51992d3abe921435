"""Chaos campaigns: scripted fault schedules with recovery invariants.

:func:`run_campaign` is the serving analogue of a chaos-engineering game
day: it builds a small single-robot fleet on the real
:class:`~repro.serve2.AsyncServeEngine`, drives every session against its
own ground-truth plant while a :class:`~repro.faults.schedule.FaultSchedule`
corrupts measurements, sabotages factorizations, starves budgets, and kills
workers and shards — then, after the schedule clears, checks the *recovery
invariants*:

* ``no_uncaught_exception`` — nothing escaped the engine tick loop.
* ``recovered_active`` — every open session re-entered ``active`` within
  ``degrade_after + recovery_slack`` ticks of the last fault window closing.
* ``bounded_state`` — every plant ends finite and within ``state_bound`` of
  its start, with no plant re-seeds after the recovery window.
* ``restarts_succeeded`` — any session the run had to crash-restart came
  back (vacuously true when nothing crashed).
* ``stalls_rescued`` — only checked for ``qp_method="admm"`` fleets whose
  schedule fired ``admm_stall`` faults: at least one ADMM->IPM rescue was
  recorded, i.e. no forced stall produced a silent bad plan.
* ``shard_handoff`` — only checked when ``shard_crash`` faults fired: every
  shard shot down handed its sessions to a survivor.

``repro chaos`` is a thin CLI wrapper; the chaos test-suite calls
:func:`run_campaign` directly with small tick counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.errors import ServeError
from repro.faults.injectors import EngineFaultInjector, SessionFaultInjector
from repro.faults.schedule import FaultSchedule, builtin_schedule
from repro.mpc.controller import PlantIntegrator
from repro.serve.session import ACTIVE, SessionConfig
from repro.serve.telemetry import FleetMetrics, TraceWriter, render_summary
from repro.serve2 import AsyncServeEngine, Serve2Config

__all__ = ["CampaignConfig", "CampaignReport", "run_campaign"]


@dataclass(frozen=True)
class CampaignConfig:
    """One chaos campaign."""

    robot: str = "CartPole"
    #: a builtin schedule name or a fully-specified :class:`FaultSchedule`
    schedule: Union[str, FaultSchedule] = "smoke"
    sessions: int = 2
    ticks: int = 40
    horizon: int = 8
    deadline_s: Optional[float] = 0.05
    degrade_after: int = 3
    #: extra ticks past ``clear_tick + degrade_after`` recovery may take
    recovery_slack: int = 6
    #: ``bounded_state`` allows at most this distance from the start state
    state_bound: float = 1e3
    seed: int = 0
    #: engine shard count (>= 2 for the shard_handoff invariant — a lone
    #: shard has nowhere to hand its sessions off to)
    shards: int = 1
    shard_backend: str = "inline"
    #: QP method every session starts on; "admm" arms the rescue ladder
    #: (and the ``stalls_rescued`` invariant when the schedule stalls it)
    qp_method: str = "ipm"
    substeps: int = 2
    x0_noise: float = 0.02
    trace_path: Optional[str] = None

    def __post_init__(self):
        if self.sessions < 1:
            raise ServeError("sessions must be >= 1")
        if self.ticks < 2:
            raise ServeError("ticks must be >= 2")

    def resolved_schedule(self) -> FaultSchedule:
        if isinstance(self.schedule, FaultSchedule):
            return self.schedule
        return builtin_schedule(self.schedule, ticks=self.ticks, seed=self.seed)


@dataclass
class CampaignReport:
    """Outcome of one chaos campaign."""

    config: CampaignConfig
    schedule: Dict[str, object]
    metrics: FleetMetrics
    session_states: Dict[str, str]
    #: invariant name -> held
    invariants: Dict[str, bool]
    #: human-readable explanation for every violated invariant
    violations: List[str]
    #: first post-clear tick at which every open session was ``active``
    recovered_at_tick: Optional[int]
    #: fault kind -> times it actually fired across the fleet
    fired: Dict[str, int]
    plant_resets: int
    restarts_attempted: int
    restarts_succeeded: int
    wall_time_s: float
    uncaught: Optional[str] = None
    trace_path: Optional[str] = None
    tick_states: List[Dict[str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every recovery invariant held (the chaos-smoke gate)."""
        return all(self.invariants.values())

    def to_dict(self) -> Dict[str, object]:
        return {
            "robot": self.config.robot,
            "shards": self.config.shards,
            "sessions": self.config.sessions,
            "ticks": self.config.ticks,
            "schedule": self.schedule,
            "ok": self.ok,
            "invariants": dict(self.invariants),
            "violations": list(self.violations),
            "recovered_at_tick": self.recovered_at_tick,
            "fired": dict(self.fired),
            "plant_resets": self.plant_resets,
            "restarts_attempted": self.restarts_attempted,
            "restarts_succeeded": self.restarts_succeeded,
            "uncaught": self.uncaught,
            "wall_time_s": self.wall_time_s,
            "session_states": dict(self.session_states),
            "metrics": self.metrics.to_dict(),
        }

    def summary(self) -> str:
        lines = [
            f"chaos campaign: robot={self.config.robot} "
            f"schedule={self.schedule['name']} "
            f"sessions={self.config.sessions} ticks={self.config.ticks} "
            f"shards={self.config.shards} ({self.config.shard_backend})",
            "faults fired:   "
            + (
                "  ".join(f"{k}={n}" for k, n in sorted(self.fired.items()))
                or "(none)"
            ),
            f"recovery:       clear_tick={self.schedule['clear_tick']}  "
            f"recovered_at={self.recovered_at_tick}  "
            f"plant_resets={self.plant_resets}  "
            f"shard_respawns={self.metrics.shard_respawns}  "
            f"restarts={self.restarts_succeeded}/{self.restarts_attempted}",
        ]
        for name, held in sorted(self.invariants.items()):
            lines.append(f"invariant:      {name:24s} {'PASS' if held else 'FAIL'}")
        for violation in self.violations:
            lines.append(f"  !! {violation}")
        lines.append("")
        lines.append(render_summary(self.metrics, self.session_states))
        return "\n".join(lines)


def run_campaign(config: CampaignConfig) -> CampaignReport:
    """Run one chaos campaign and evaluate the recovery invariants."""
    schedule = config.resolved_schedule()
    if config.ticks <= schedule.clear_tick:
        raise ServeError(
            f"campaign ticks ({config.ticks}) must extend past the "
            f"schedule's clear_tick ({schedule.clear_tick}) so recovery "
            "can be observed"
        )
    trace = (
        TraceWriter(config.trace_path) if config.trace_path is not None else None
    )
    engine = AsyncServeEngine(
        Serve2Config(
            max_sessions=config.sessions,
            shards=config.shards,
            shard_backend=config.shard_backend,
            qp_method=config.qp_method,
        ),
        trace=trace,
    )
    hook_solvers = any(spec.layer == "solver" for spec in schedule.specs)

    t0 = perf_counter()
    rng = np.random.default_rng(config.seed)
    sids: List[str] = []
    injectors: Dict[str, SessionFaultInjector] = {}
    x: Dict[str, np.ndarray] = {}
    x0_of: Dict[str, np.ndarray] = {}
    plant_of: Dict[str, PlantIntegrator] = {}
    dt = None
    for i in range(config.sessions):
        sid = engine.create_session(
            SessionConfig(
                robot=config.robot,
                horizon=config.horizon,
                deadline_s=config.deadline_s,
                degrade_after=config.degrade_after,
                qp_method=config.qp_method,
            )
        )
        sids.append(sid)
        bench, problem = engine.binding(config.robot, config.horizon)
        dt = problem.dt
        plant_of[sid] = PlantIntegrator(problem)
        x0 = np.asarray(bench.x0, dtype=float)
        x0_of[sid] = x0
        x[sid] = x0 + config.x0_noise * rng.standard_normal(x0.shape)
        injector = SessionFaultInjector(schedule, session_index=i)
        # Solver-layer hooks ride the session's own solver, and a hooked
        # session steps on it instead of the batched lanes, so a schedule
        # without solver faults leaves the fleet batching.  Sensor faults
        # are applied below, plant-side.
        if hook_solvers:
            injector.bind_solver(engine.get_session(sid).controller)
        injectors[sid] = injector
    if any(spec.layer == "serve" for spec in schedule.specs):
        engine.fault_hook = EngineFaultInjector(schedule, sids)

    clear = schedule.clear_tick
    recovered_at: Optional[int] = None
    plant_resets = 0
    late_plant_resets = 0
    restarts_attempted = 0
    restarts_succeeded = 0
    uncaught: Optional[str] = None
    tick_states: List[Dict[str, str]] = []
    recovery_limit = clear + config.degrade_after + config.recovery_slack

    for t in range(config.ticks):
        for injector in injectors.values():
            injector.advance(t)
        if t >= clear:
            # The operator-side recovery action: once the storm has passed,
            # restart anything the chaos actually managed to crash.
            for sid in engine.crashed_sessions():
                restarts_attempted += 1
                try:
                    engine.restart_session(sid)
                    restarts_succeeded += 1
                except Exception:  # noqa: BLE001 - counted as a violation
                    pass
        inputs = {
            sid: (injectors[sid].corrupt_state(x[sid]), None)
            for sid in sids
            if engine.sessions[sid].serving
        }
        if not inputs:
            break
        try:
            report = engine.tick(inputs)
        except Exception as exc:  # noqa: BLE001 - the invariant under test
            uncaught = f"tick {t}: {type(exc).__name__}: {exc}"
            break
        for sid, outcome in report.outcomes.items():
            u = injectors[sid].corrupt_input(outcome.u)
            x_next = plant_of[sid].advance(x[sid], u, dt, config.substeps)
            if not np.all(np.isfinite(x_next)):
                x_next = x0_of[sid].copy()
                plant_resets += 1
                if t > recovery_limit:
                    late_plant_resets += 1
            x[sid] = x_next
        states = engine.session_states()
        tick_states.append(states)
        if recovered_at is None and t >= clear:
            open_states = [s for s in states.values() if s != "closed"]
            if open_states and all(s == ACTIVE for s in open_states):
                recovered_at = t

    engine.collect_solver_stats()
    states = engine.session_states()
    wall = perf_counter() - t0

    fired: Dict[str, int] = {}
    for injector in injectors.values():
        for kind, n in injector.fired_counts.items():
            fired[kind] = fired.get(kind, 0) + n
    if engine.fault_hook is not None:
        for kind, n in engine.fault_hook.fired_counts.items():
            fired[kind] = fired.get(kind, 0) + n

    invariants: Dict[str, bool] = {}
    violations: List[str] = []

    invariants["no_uncaught_exception"] = uncaught is None
    if uncaught is not None:
        violations.append(f"uncaught exception escaped the tick loop: {uncaught}")

    recovered = recovered_at is not None and recovered_at <= recovery_limit
    invariants["recovered_active"] = recovered
    if not recovered:
        violations.append(
            f"fleet not fully active by tick {recovery_limit} "
            f"(clear={clear}, recovered_at={recovered_at}, "
            f"final states={sorted(set(states.values()))})"
        )

    bounded = late_plant_resets == 0
    for sid in sids:
        drift = float(np.linalg.norm(x[sid] - x0_of[sid]))
        if not np.all(np.isfinite(x[sid])) or drift > config.state_bound:
            bounded = False
            violations.append(
                f"session {sid} plant state unbounded after recovery "
                f"(drift {drift:.3g} vs bound {config.state_bound:.3g})"
            )
    if late_plant_resets:
        violations.append(
            f"{late_plant_resets} plant re-seed(s) after the recovery "
            f"window closed (tick > {recovery_limit})"
        )
    invariants["bounded_state"] = bounded

    invariants["restarts_succeeded"] = restarts_succeeded == restarts_attempted
    if restarts_succeeded != restarts_attempted:
        violations.append(
            f"{restarts_attempted - restarts_succeeded} session restart(s) "
            "failed"
        )

    # Solver-resilience invariant: when the schedule forced ADMM stalls on
    # an ADMM fleet, every one of them must have been answered by the rescue
    # ladder (an in-solve IPM retry, visible as method_fallbacks) — a stall
    # that produced a plan without a rescue is a silent bad plan.
    if config.qp_method == "admm" and fired.get("admm_stall", 0) > 0:
        rescued = engine.metrics.fleet.method_fallbacks > 0
        invariants["stalls_rescued"] = rescued
        if not rescued:
            violations.append(
                f"{fired['admm_stall']} forced ADMM stall(s) fired but no "
                "ADMM->IPM rescue was recorded (method_fallbacks == 0)"
            )

    # Sharding invariant: every shard the chaos shot down must have handed
    # its sessions to a surviving shard — a crash that only respawned
    # (without re-pinning the orphans) would strand the fleet on dead
    # capacity for a tick.
    if fired.get("shard_crash", 0) > 0:
        handed_off = engine.metrics.shard_handoffs > 0
        invariants["shard_handoff"] = handed_off
        if not handed_off:
            violations.append(
                f"{fired['shard_crash']} shard crash(es) fired but no "
                "session handoff was recorded (shard_handoffs == 0; "
                "does the campaign run >= 2 shards?)"
            )

    result = CampaignReport(
        config=config,
        schedule=schedule.to_dict(),
        metrics=engine.metrics,
        session_states=states,
        invariants=invariants,
        violations=violations,
        recovered_at_tick=recovered_at,
        fired=fired,
        plant_resets=plant_resets,
        restarts_attempted=restarts_attempted,
        restarts_succeeded=restarts_succeeded,
        wall_time_s=wall,
        uncaught=uncaught,
        trace_path=config.trace_path,
        tick_states=tick_states,
    )
    if trace is not None:
        trace.emit(
            "summary",
            ok=result.ok,
            invariants=invariants,
            fired=fired,
            recovered_at=recovered_at,
            wall_time_s=wall,
        )
        trace.close()
    engine.shutdown()
    return result
