"""repro.serve — multi-session MPC serving runtime.

RoboX deploys the solver as an *online* controller (§III): every control
period must produce an input, on time, for every robot being served.  This
package is the serving substrate around the offline solver stack:

* :mod:`repro.serve.session` — per-session controller state with a
  create/step/reset/close lifecycle and the graceful-degradation policy
  (deadline miss / solver error / divergence → fallback ladder → degraded).
* :mod:`repro.serve.policy` — the fallback ladder itself (shifted previous
  plan, then hover/hold).
* :mod:`repro.serve.wire` — the wire format between the engine and its
  shard worker processes.
* :mod:`repro.serve.telemetry` — per-session and fleet counters, log-spaced
  latency histograms, JSONL traces, and the text summary.
* :mod:`repro.serve.loadgen` — mixed-robot fleet simulation against the
  ground-truth plant integrator (the ``repro serve-sim`` backend).

The engine that ticks the sessions is
:class:`repro.serve2.AsyncServeEngine`.

Deadline semantics live one layer down, in
:class:`repro.batch.contract.SolveBudget`: a budgeted solve stops early with
``status == "budget_exhausted"`` instead of raising; *this* package decides
what to serve when that happens.
"""

from repro.serve.loadgen import DEFAULT_ROBOTS, LoadConfig, LoadReport, run_load
from repro.serve.policy import FallbackAction, FallbackLadder, HOLD, SHIFTED_PLAN
from repro.serve.session import (
    ACTIVE,
    CLOSED,
    CRASHED,
    DEGRADED,
    ControlSession,
    SessionConfig,
    StepOutcome,
)
from repro.serve.telemetry import (
    FleetMetrics,
    Histogram,
    SessionMetrics,
    TraceWriter,
    render_summary,
)

__all__ = [
    "ACTIVE",
    "DEGRADED",
    "CLOSED",
    "CRASHED",
    "SHIFTED_PLAN",
    "HOLD",
    "FallbackAction",
    "FallbackLadder",
    "SessionConfig",
    "StepOutcome",
    "ControlSession",
    "Histogram",
    "SessionMetrics",
    "FleetMetrics",
    "TraceWriter",
    "render_summary",
    "DEFAULT_ROBOTS",
    "LoadConfig",
    "LoadReport",
    "run_load",
]
