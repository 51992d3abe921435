"""repro.serve — multi-session MPC serving runtime.

RoboX deploys the solver as an *online* controller (§III): every control
period must produce an input, on time, for every robot being served.  This
package is the serving substrate around the offline solver stack:

* :mod:`repro.serve.session` — per-session controller state with a
  create/step/reset/close lifecycle and the graceful-degradation policy
  (deadline miss / solver error / divergence → fallback ladder → degraded).
* :mod:`repro.serve.policy` — the fallback ladder itself (shifted previous
  plan, then hover/hold).
* :mod:`repro.serve.engine` — the scalar engine: admission control, a
  round-robin tick loop with backpressure, and inline or process-pool
  execution over picklable solve payloads (:mod:`repro.serve.wire` is the
  worker wire format, shared with :mod:`repro.serve2`).
* :mod:`repro.serve.telemetry` — per-session and fleet counters, log-spaced
  latency histograms, JSONL traces, and the text summary.
* :mod:`repro.serve.loadgen` — mixed-robot fleet simulation against the
  ground-truth plant integrator (the ``repro serve-sim`` backend).

Deadline semantics live one layer down, in
:class:`repro.mpc.budget.SolveBudget`: a budgeted solve stops early with
``status == "budget_exhausted"`` instead of raising; *this* package decides
what to serve when that happens.
"""

from repro.serve.engine import (
    EngineConfig,
    ServeEngine,
    TickReport,
    prime_worker_cache,
    remote_solve,
)
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
    "EngineConfig",
    "TickReport",
    "ServeEngine",
    "remote_solve",
    "prime_worker_cache",
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
