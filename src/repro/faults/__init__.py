"""Deterministic fault injection across the solver → controller → serve stack.

The chaos-engineering counterpart of :mod:`repro.serve`: seedable
:class:`FaultSchedule` windows drive injectors at three layers — sensor
(NaN/Inf measurements, dropout, spikes, actuator saturation), solver
(forced factorization failures, ill-conditioning, budget starvation), and
serve (lost solves, dying shards, injected latency) — through the same hook
points production code exposes (:attr:`MPCController.state_fault_hook` and
friends, :attr:`InteriorPointSolver.fault_hook`,
:attr:`AsyncServeEngine.fault_hook`).  :func:`run_campaign` scripts a whole
storm over a live fleet and asserts the recovery invariants; ``repro
chaos`` is its CLI.
"""

from repro.faults.campaign import CampaignConfig, CampaignReport, run_campaign
from repro.faults.injectors import EngineFaultInjector, SessionFaultInjector
from repro.faults.schedule import (
    BUILTIN_SCHEDULES,
    LAYER_OF,
    SENSOR_KINDS,
    SERVE_KINDS,
    SOLVER_KINDS,
    FaultSchedule,
    FaultSpec,
    builtin_schedule,
)

__all__ = [
    "FaultSpec",
    "FaultSchedule",
    "builtin_schedule",
    "BUILTIN_SCHEDULES",
    "LAYER_OF",
    "SENSOR_KINDS",
    "SOLVER_KINDS",
    "SERVE_KINDS",
    "SessionFaultInjector",
    "EngineFaultInjector",
    "CampaignConfig",
    "CampaignReport",
    "run_campaign",
]
