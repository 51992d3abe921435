"""Serving-runtime telemetry: counters, latency histograms, JSONL traces.

Observability mirrors what the solver already exposes offline
(:class:`~repro.mpc.qp.QPStats` phase times, iteration counts) and lifts it
to the fleet level: per-session and aggregate counters for solve outcomes
and the degradation ladder, log-spaced latency histograms with approximate
percentiles, and a line-per-event JSONL trace writer the load generator and
``repro serve-sim`` use to persist runs for offline analysis.

Everything here is dependency-free (numpy + stdlib) and mergeable:
histograms and metric blocks support ``merge`` so sharded engines can be
aggregated later.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, IO, List, Optional, Union

import numpy as np

__all__ = [
    "Histogram",
    "SessionMetrics",
    "FleetMetrics",
    "TraceWriter",
    "render_summary",
]


class Histogram:
    """Fixed log-spaced histogram (seconds by default: 10 us .. 100 s).

    Values below the first edge land in bin 0, values above the last edge
    in the overflow bin.  Percentiles are approximate (upper edge of the
    bin containing the requested rank) — standard serving-metrics behavior.
    """

    def __init__(
        self,
        lo: float = 1e-5,
        hi: float = 100.0,
        bins_per_decade: int = 5,
    ):
        decades = np.log10(hi) - np.log10(lo)
        n_edges = int(round(decades * bins_per_decade)) + 1
        self.edges = np.logspace(np.log10(lo), np.log10(hi), n_edges)
        self.counts = np.zeros(n_edges + 1, dtype=np.int64)
        self.count = 0
        self.sum = 0.0
        self.max = 0.0

    def record(self, value: float) -> None:
        v = float(value)
        idx = int(np.searchsorted(self.edges, v, side="right"))
        self.counts[idx] += 1
        self.count += 1
        self.sum += v
        if v > self.max:
            self.max = v

    def percentile(self, q: float) -> float:
        """Approximate q-th percentile (q in [0, 100])."""
        if self.count == 0:
            return 0.0
        rank = (q / 100.0) * self.count
        cum = np.cumsum(self.counts)
        idx = int(np.searchsorted(cum, rank, side="left"))
        if idx >= len(self.edges):
            return self.max
        # Upper bin edge, clamped so a percentile never exceeds the true max.
        return float(min(self.edges[idx], self.max))

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def merge(self, other: "Histogram") -> None:
        if other.counts.shape != self.counts.shape:
            raise ValueError("cannot merge histograms with different binning")
        self.counts += other.counts
        self.count += other.count
        self.sum += other.sum
        self.max = max(self.max, other.max)

    def to_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
            "max": self.max,
        }


@dataclass
class SessionMetrics:
    """Counters and latency for one control session."""

    steps: int = 0
    ok: int = 0
    #: "ok" steps served from a budget-exhausted but control-grade iterate
    partial_accepts: int = 0
    fallbacks_shifted: int = 0
    fallbacks_hold: int = 0
    deadline_misses: int = 0
    solver_errors: int = 0
    divergences: int = 0
    #: steps rejected up front for non-finite measurements/references
    bad_states: int = 0
    #: solves lost to a dying worker (session survived on the ladder)
    worker_deaths: int = 0
    #: requests dropped by admission control / load shedding (serve2)
    sheds: int = 0
    crashes: int = 0
    degraded_transitions: int = 0
    #: ADMM subproblems re-solved by the IPM rescue ladder (the solves
    #: still succeeded — this counts the extra work, not failures)
    method_fallbacks: int = 0
    #: sessions demoted from "admm" to "ipm" after ``degrade_after``
    #: consecutive rescued solves
    method_demotions: int = 0
    sqp_iterations: int = 0
    qp_iterations: int = 0
    solve_latency: Histogram = field(default_factory=Histogram)

    @property
    def fallbacks(self) -> int:
        return self.fallbacks_shifted + self.fallbacks_hold

    def merge(self, other: "SessionMetrics") -> None:
        self.steps += other.steps
        self.ok += other.ok
        self.partial_accepts += other.partial_accepts
        self.fallbacks_shifted += other.fallbacks_shifted
        self.fallbacks_hold += other.fallbacks_hold
        self.deadline_misses += other.deadline_misses
        self.solver_errors += other.solver_errors
        self.divergences += other.divergences
        self.bad_states += other.bad_states
        self.worker_deaths += other.worker_deaths
        self.sheds += other.sheds
        self.crashes += other.crashes
        self.degraded_transitions += other.degraded_transitions
        self.method_fallbacks += other.method_fallbacks
        self.method_demotions += other.method_demotions
        self.sqp_iterations += other.sqp_iterations
        self.qp_iterations += other.qp_iterations
        self.solve_latency.merge(other.solve_latency)

    def to_dict(self) -> Dict[str, object]:
        return {
            "steps": self.steps,
            "ok": self.ok,
            "partial_accepts": self.partial_accepts,
            "fallbacks": self.fallbacks,
            "fallbacks_shifted": self.fallbacks_shifted,
            "fallbacks_hold": self.fallbacks_hold,
            "deadline_misses": self.deadline_misses,
            "solver_errors": self.solver_errors,
            "divergences": self.divergences,
            "bad_states": self.bad_states,
            "worker_deaths": self.worker_deaths,
            "sheds": self.sheds,
            "crashes": self.crashes,
            "degraded_transitions": self.degraded_transitions,
            "method_fallbacks": self.method_fallbacks,
            "method_demotions": self.method_demotions,
            "sqp_iterations": self.sqp_iterations,
            "qp_iterations": self.qp_iterations,
            "solve_latency": self.solve_latency.to_dict(),
        }


#: solver.stats keys aggregated into the fleet phase-time block
_PHASE_KEYS = (
    "linearize_time",
    "factorize_time",
    "substitute_time",
    "factor_flops",
    "substitute_flops",
    "factorizations",
    "banded_factorizations",
    "input_stops",
    "qp_warm_starts",
)


class FleetMetrics:
    """Per-session metrics plus the fleet aggregate."""

    def __init__(self):
        self.sessions: Dict[str, SessionMetrics] = {}
        self.fleet = SessionMetrics()
        #: aggregated :class:`QPStats`-style phase observability across the
        #: fleet's solvers (wall seconds / exact kernel flops)
        self.phase_totals: Dict[str, float] = {k: 0 for k in _PHASE_KEYS}
        self.ticks = 0
        #: batched-backend telemetry: group solves, lanes, and occupancy
        self.batch_solves = 0
        self.batched_lanes = 0
        self.max_batch = 0
        self.sqp_lane_iterations = 0
        self.sqp_lane_slots = 0
        self.qp_lane_iterations = 0
        self.qp_lane_slots = 0
        #: scalar-inline group fallbacks by reason -> lanes affected (was
        #: previously invisible: group-level rejections looked identical
        #: to lane-level ones in the summary)
        self.group_fallbacks: Dict[str, int] = {}
        #: serve2 continuous-batching telemetry
        self.padded_lanes = 0
        self.shard_handoffs = 0
        self.shard_respawns = 0
        #: per process shard: seconds the parent waited on its groups, and
        #: the part of them the worker spent solving (the rest is transport:
        #: pickling, the pipe, and the event loop's turnaround)
        self.shard_wait_s: Dict[int, float] = {}
        self.shard_solve_s: Dict[int, float] = {}
        #: worker group solves whose binding was not primed before the fork
        #: (built inside the solve; 0 when priming works)
        self.shard_cold_groups = 0
        #: seconds of deadline slack left when a request was dispatched
        self.deadline_headroom = Histogram()
        #: fraction of a padded lane's stages spent on padding (0 when a
        #: session's horizon sits exactly on a bucket rung)
        self.padding_waste = Histogram(lo=1e-3, hi=1.0)
        #: lanes filled / max_batch per group solve
        self.bucket_occupancy = Histogram(lo=1e-2, hi=1.0)

    def session(self, session_id: str) -> SessionMetrics:
        if session_id not in self.sessions:
            self.sessions[session_id] = SessionMetrics()
        return self.sessions[session_id]

    def observe_step(self, session_id: str, outcome) -> None:
        """Fold one :class:`~repro.serve.session.StepOutcome` in."""
        for target in (self.session(session_id), self.fleet):
            target.steps += 1
            if outcome.fallback:
                if outcome.status == "fallback_hold":
                    target.fallbacks_hold += 1
                else:
                    target.fallbacks_shifted += 1
            elif outcome.status == "crashed":
                target.crashes += 1
            else:
                target.ok += 1
                if outcome.partial:
                    target.partial_accepts += 1
            if outcome.reason == "deadline":
                target.deadline_misses += 1
            elif outcome.reason == "solver_error":
                target.solver_errors += 1
            elif outcome.reason == "diverged":
                target.divergences += 1
            elif outcome.reason == "bad_state":
                target.bad_states += 1
            elif outcome.reason == "worker_died":
                target.worker_deaths += 1
            elif outcome.reason == "shed":
                target.sheds += 1
            if outcome.degraded_transition:
                target.degraded_transitions += 1
            target.method_fallbacks += getattr(outcome, "method_fallbacks", 0)
            if getattr(outcome, "method_demoted", False):
                target.method_demotions += 1
            target.sqp_iterations += outcome.sqp_iterations
            target.qp_iterations += outcome.qp_iterations
            if outcome.solve_time is not None:
                target.solve_latency.record(outcome.solve_time)

    def observe_tick(self) -> None:
        self.ticks += 1

    def observe_batch(self, lanes: int, report) -> None:
        """Fold one batched group solve's occupancy report in.

        ``report`` is a :class:`~repro.batch.ipm.BatchSolveReport`;
        efficiency = worked lane-iterations / available lane-slots, the
        continuous-batching utilization of the solver.
        """
        self.batch_solves += 1
        self.batched_lanes += lanes
        self.max_batch = max(self.max_batch, lanes)
        self.sqp_lane_iterations += report.sqp_lane_iterations
        self.sqp_lane_slots += report.sqp_lane_slots
        self.qp_lane_iterations += report.qp_lane_iterations
        self.qp_lane_slots += report.qp_lane_slots

    @property
    def mean_batch(self) -> float:
        return self.batched_lanes / self.batch_solves if self.batch_solves else 0.0

    @property
    def batch_efficiency(self) -> float:
        """Fraction of QP lane-slots doing useful work (active-mask yield)."""
        return (
            self.qp_lane_iterations / self.qp_lane_slots
            if self.qp_lane_slots
            else 1.0
        )

    @property
    def sqp_batch_efficiency(self) -> float:
        return (
            self.sqp_lane_iterations / self.sqp_lane_slots
            if self.sqp_lane_slots
            else 1.0
        )

    def observe_group_fallback(self, reason: str, lanes: int) -> None:
        """Record a batched group falling back to scalar-inline solves."""
        self.group_fallbacks[reason] = self.group_fallbacks.get(reason, 0) + lanes

    def observe_dispatch(self, headroom_s: float, padding_waste: float) -> None:
        """Record one dispatched request's deadline slack and lane padding.

        ``headroom_s`` may be ``inf`` (no wall-clock budget); only finite
        slack is histogrammed.
        """
        if math.isfinite(headroom_s):
            self.deadline_headroom.record(max(headroom_s, 0.0))
        if padding_waste > 0.0:
            self.padded_lanes += 1
            self.padding_waste.record(padding_waste)

    def observe_shard_group(
        self, shard: int, wait_s: float, solve_s: float, primed: bool
    ) -> None:
        """Record one worker group solve: the parent's wait, the worker's
        solve seconds, and whether the worker's binding cache was primed."""
        self.shard_wait_s[shard] = self.shard_wait_s.get(shard, 0.0) + wait_s
        self.shard_solve_s[shard] = self.shard_solve_s.get(shard, 0.0) + solve_s
        self.shard_cold_groups += not primed

    def absorb_solver_stats(self, stats: Dict[str, float]) -> None:
        """Accumulate one solver's cumulative per-phase stats."""
        for key in _PHASE_KEYS:
            self.phase_totals[key] += stats.get(key, 0)

    def merge(self, other: "FleetMetrics") -> None:
        """Fold another fleet's metrics in (shard aggregation)."""
        for sid, m in other.sessions.items():
            self.session(sid).merge(m)
        self.fleet.merge(other.fleet)
        for key in _PHASE_KEYS:
            self.phase_totals[key] += other.phase_totals[key]
        self.ticks += other.ticks
        self.batch_solves += other.batch_solves
        self.batched_lanes += other.batched_lanes
        self.max_batch = max(self.max_batch, other.max_batch)
        self.sqp_lane_iterations += other.sqp_lane_iterations
        self.sqp_lane_slots += other.sqp_lane_slots
        self.qp_lane_iterations += other.qp_lane_iterations
        self.qp_lane_slots += other.qp_lane_slots
        for reason, lanes in other.group_fallbacks.items():
            self.group_fallbacks[reason] = (
                self.group_fallbacks.get(reason, 0) + lanes
            )
        self.padded_lanes += other.padded_lanes
        self.shard_handoffs += other.shard_handoffs
        self.shard_respawns += other.shard_respawns
        for mine, theirs in (
            (self.shard_wait_s, other.shard_wait_s),
            (self.shard_solve_s, other.shard_solve_s),
        ):
            for shard, seconds in theirs.items():
                mine[shard] = mine.get(shard, 0.0) + seconds
        self.shard_cold_groups += other.shard_cold_groups
        self.deadline_headroom.merge(other.deadline_headroom)
        self.padding_waste.merge(other.padding_waste)
        self.bucket_occupancy.merge(other.bucket_occupancy)

    def to_dict(self) -> Dict[str, object]:
        return {
            "fleet": self.fleet.to_dict(),
            "ticks": self.ticks,
            "phase_totals": dict(self.phase_totals),
            "batching": {
                "batch_solves": self.batch_solves,
                "batched_lanes": self.batched_lanes,
                "mean_batch": self.mean_batch,
                "max_batch": self.max_batch,
                "sqp_lane_iterations": self.sqp_lane_iterations,
                "sqp_lane_slots": self.sqp_lane_slots,
                "sqp_batch_efficiency": self.sqp_batch_efficiency,
                "qp_lane_iterations": self.qp_lane_iterations,
                "qp_lane_slots": self.qp_lane_slots,
                "batch_efficiency": self.batch_efficiency,
            },
            "group_fallbacks": dict(sorted(self.group_fallbacks.items())),
            "serve2": {
                "padded_lanes": self.padded_lanes,
                "shard_handoffs": self.shard_handoffs,
                "shard_respawns": self.shard_respawns,
                "shard_wait_s": dict(sorted(self.shard_wait_s.items())),
                "shard_solve_s": dict(sorted(self.shard_solve_s.items())),
                "shard_cold_groups": self.shard_cold_groups,
                "deadline_headroom": self.deadline_headroom.to_dict(),
                "padding_waste": self.padding_waste.to_dict(),
                "bucket_occupancy": self.bucket_occupancy.to_dict(),
            },
            "sessions": {
                sid: m.to_dict() for sid, m in sorted(self.sessions.items())
            },
        }


class TraceWriter:
    """Line-per-event JSONL trace of a serving run.

    Accepts a path or an open text stream.  Each record is one flat JSON
    object with a ``type`` discriminator (``session``, ``step``, ``tick``,
    ``summary``).  Non-JSON-native values (numpy scalars/arrays) are
    converted on the way out.
    """

    def __init__(self, sink: Union[str, IO[str]]):
        if isinstance(sink, str):
            self._fh: IO[str] = open(sink, "w", encoding="utf-8")
            self._owns = True
            self.path: Optional[str] = sink
        else:
            self._fh = sink
            self._owns = False
            self.path = getattr(sink, "name", None)
        self.records = 0

    def emit(self, record_type: str, **fields) -> None:
        record = {"type": record_type}
        record.update(fields)
        self._fh.write(json.dumps(record, default=_jsonable) + "\n")
        self.records += 1

    def close(self) -> None:
        self._fh.flush()
        if self._owns:
            self._fh.close()

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    raise TypeError(f"not JSON serializable: {type(value)!r}")


def render_summary(metrics: FleetMetrics, states: Dict[str, str]) -> str:
    """Human-readable end-of-run summary (the `serve-sim` footer).

    Args:
        metrics: the fleet metrics to render.
        states: session_id -> lifecycle state (for the census line).
    """
    f = metrics.fleet
    lat = f.solve_latency
    census: Dict[str, int] = {}
    for state in states.values():
        census[state] = census.get(state, 0) + 1
    census_line = ", ".join(f"{n} {s}" for s, n in sorted(census.items()))
    lines: List[str] = []
    lines.append("serve summary")
    lines.append("=" * 13)
    lines.append(f"sessions:        {len(states)} ({census_line})")
    lines.append(f"ticks:           {metrics.ticks}")
    lines.append(
        f"steps:           {f.steps}  ok={f.ok} "
        f"(partial={f.partial_accepts})  fallbacks={f.fallbacks} "
        f"(shifted={f.fallbacks_shifted}, hold={f.fallbacks_hold})"
    )
    lines.append(
        f"failure causes:  deadline_misses={f.deadline_misses}  "
        f"solver_errors={f.solver_errors}  divergences={f.divergences}  "
        f"bad_states={f.bad_states}  worker_deaths={f.worker_deaths}  "
        f"sheds={f.sheds}  crashes={f.crashes}"
    )
    lines.append(f"degraded events: {f.degraded_transitions}")
    if f.method_fallbacks or f.method_demotions:
        lines.append(
            f"method rescues:  fallbacks={f.method_fallbacks}  "
            f"demotions={f.method_demotions}"
        )
    lines.append(
        "solve latency:   "
        f"p50={lat.percentile(50) * 1e3:.1f}ms  "
        f"p90={lat.percentile(90) * 1e3:.1f}ms  "
        f"p99={lat.percentile(99) * 1e3:.1f}ms  "
        f"max={lat.max * 1e3:.1f}ms  mean={lat.mean * 1e3:.1f}ms"
    )
    lines.append(
        f"iterations:      sqp={f.sqp_iterations}  qp={f.qp_iterations}"
    )
    if metrics.batch_solves:
        lines.append(
            "batching:        "
            f"solves={metrics.batch_solves}  "
            f"mean_batch={metrics.mean_batch:.1f}  "
            f"max_batch={metrics.max_batch}  "
            f"sqp_eff={metrics.sqp_batch_efficiency:.0%}  "
            f"qp_eff={metrics.batch_efficiency:.0%}"
        )
    if metrics.group_fallbacks:
        causes = "  ".join(
            f"{reason}={lanes}"
            for reason, lanes in sorted(metrics.group_fallbacks.items())
        )
        lines.append(f"group fallbacks: {causes}")
    if metrics.deadline_headroom.count or metrics.padded_lanes:
        hr = metrics.deadline_headroom
        occ = metrics.bucket_occupancy
        lines.append(
            "serve2:          "
            f"padded_lanes={metrics.padded_lanes}  "
            f"waste_mean={metrics.padding_waste.mean:.0%}  "
            f"occupancy_p50={occ.percentile(50):.0%}  "
            f"headroom_p1={hr.percentile(1) * 1e3:.1f}ms  "
            f"handoffs={metrics.shard_handoffs}  "
            f"respawns={metrics.shard_respawns}"
        )
    if metrics.shard_wait_s:
        lines.append(
            "shard seconds:   "
            + "  ".join(
                f"{shard}: solve={metrics.shard_solve_s[shard]:.2f}s "
                f"transport={wait - metrics.shard_solve_s[shard]:.2f}s"
                for shard, wait in sorted(metrics.shard_wait_s.items())
            )
            + f"  cold={metrics.shard_cold_groups}"
        )
    pt = metrics.phase_totals
    lines.append(
        "solver phases:   "
        f"linearize={pt['linearize_time']:.2f}s  "
        f"factorize={pt['factorize_time']:.2f}s  "
        f"substitute={pt['substitute_time']:.2f}s  "
        f"banded_factorizations={int(pt['banded_factorizations'])}"
        f"/{int(pt['factorizations'])}  "
        f"input_stops={int(pt['input_stops'])}  "
        f"qp_warm_starts={int(pt['qp_warm_starts'])}"
    )
    return "\n".join(lines)
