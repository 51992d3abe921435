"""Multi-session batch engine: tick loop, worker pool, backpressure.

The engine multiplexes many :class:`~repro.serve.session.ControlSession`
objects through a shared tick loop, the way a batched MPC server amortizes
solver cost over a fleet:

* **Admission control** — a hard ``max_sessions`` cap; ``create_session``
  raises :class:`~repro.errors.AdmissionError` once full, so overload is
  rejected at the front door instead of degrading every tenant.
* **Dispatch** — each tick steps the ready sessions scalar-inline
  (``workers == 0``: serial, deterministic, on the session's own solver)
  or over a ``ProcessPoolExecutor`` of ``workers`` processes fed
  *picklable solve payloads*: the session's warm state travels by value,
  workers keep a per-process solver cache keyed by (robot, horizon, QP
  method), and only the result arrays come back
  (:mod:`repro.serve.wire`).  Batched group solves are the v2 engine
  (:mod:`repro.serve2`).
* **Backpressure** — when a tick's wall time overruns ``tick_budget_s``,
  the per-tick batch limit shrinks proportionally (and re-grows on
  headroom); sessions beyond the limit are *deferred*, not dropped, and a
  round-robin queue guarantees every session is served within a bounded
  number of ticks.
* **Telemetry** — every step feeds :class:`~repro.serve.telemetry.FleetMetrics`
  and (optionally) a JSONL :class:`~repro.serve.telemetry.TraceWriter`.

Shared transcriptions: sessions binding the same (robot, horizon) share one
:class:`TranscribedProblem` — the compiled derivative functions are pure, so
this is safe to share and is what makes 100-session fleets cheap to
build.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from time import perf_counter, sleep
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ReproError, ServeError
from repro.mpc.budget import SolveBudget
from repro.serve.session import ControlSession, SessionTable, StepOutcome
from repro.serve.telemetry import TraceWriter
from repro.serve.wire import error_reply, result_to_dict, run_fault_directive

__all__ = [
    "EngineConfig",
    "TickReport",
    "ServeEngine",
    "remote_solve",
    "prime_worker_cache",
]


@dataclass(frozen=True)
class EngineConfig:
    """Engine-wide policy knobs."""

    #: admission-control cap on concurrently open sessions
    max_sessions: int = 256
    #: 0 = scalar-inline execution; > 0 = process pool of this many workers
    workers: int = 0
    #: soft per-tick wall budget driving backpressure (None = no limit)
    tick_budget_s: Optional[float] = None
    #: backpressure never shrinks the batch below this many sessions/tick
    min_batch: int = 1

    def __post_init__(self):
        if self.max_sessions < 1:
            raise ServeError("max_sessions must be >= 1")
        if self.workers < 0:
            raise ServeError("workers must be >= 0")
        if self.min_batch < 1:
            raise ServeError("min_batch must be >= 1")


@dataclass
class TickReport:
    """What one engine tick did."""

    index: int
    outcomes: Dict[str, StepOutcome] = field(default_factory=dict)
    #: sessions with inputs this tick that backpressure pushed to the next
    deferred: List[str] = field(default_factory=list)
    duration_s: float = 0.0
    batch_limit: int = 0

    @property
    def stepped(self) -> int:
        return len(self.outcomes)


class ServeEngine(SessionTable):
    """Owns the session table, the worker pool, and the tick loop."""

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        trace: Optional[TraceWriter] = None,
    ):
        super().__init__(config or EngineConfig(), trace)
        #: round-robin service order (fairness under backpressure)
        self._rr: Deque[str] = deque()
        self._batch_limit: Optional[int] = None  # None = unlimited
        self._pool = None
        #: worker pools discarded and rebuilt after a worker death
        self.worker_respawns = 0
        #: optional :class:`repro.faults.EngineFaultInjector`-style hook:
        #: ``on_dispatch(tick, session_id)`` -> None or a directive dict
        #: ({"kind": "worker_crash"} / {"kind": "slow", "delay_s": ...})
        self.fault_hook = None

    # -- session-table hooks ----------------------------------------------------
    def _on_register(self, session: ControlSession) -> Dict[str, object]:
        self._rr.append(session.session_id)
        return {}

    def _on_evict(self, session_ids: List[str]) -> None:
        gone = set(session_ids)
        self._rr = deque(sid for sid in self._rr if sid not in gone)

    # -- tick loop ----------------------------------------------------------------
    def tick(
        self,
        inputs: Dict[str, Tuple[np.ndarray, Optional[np.ndarray]]],
    ) -> TickReport:
        """Step every ready session that has an input this tick.

        Args:
            inputs: session_id -> ``(x_measured, ref-or-None)``.

        Sessions beyond the current backpressure batch limit are deferred
        (reported, served first next tick); closed/crashed sessions are
        silently skipped.
        """
        t0 = perf_counter()
        self._tick_index += 1
        report = TickReport(index=self._tick_index)

        ready = self._schedule(inputs, report)
        if ready:
            self._dispatch(ready, inputs, report)

        report.duration_s = perf_counter() - t0
        report.batch_limit = (
            self._batch_limit
            if self._batch_limit is not None
            else len(self.sessions) or 1
        )
        self._apply_backpressure(report)
        self.metrics.observe_tick(len(report.deferred))
        if self.trace is not None:
            self.trace.emit(
                "tick",
                tick=report.index,
                duration_s=report.duration_s,
                stepped=report.stepped,
                deferred=len(report.deferred),
                batch_limit=report.batch_limit,
            )
        return report

    def _schedule(self, inputs, report: TickReport) -> List[str]:
        """Pick this tick's batch in round-robin order, defer the overflow."""
        limit = (
            self._batch_limit if self._batch_limit is not None else len(inputs)
        )
        ready: List[str] = []
        scanned = 0
        n = len(self._rr)
        while scanned < n:
            sid = self._rr[0]
            self._rr.rotate(-1)
            scanned += 1
            session = self.sessions.get(sid)
            if session is None or not session.serving or sid not in inputs:
                continue
            if len(ready) < limit:
                ready.append(sid)
            else:
                report.deferred.append(sid)
        # A full scan leaves the deque in its original order; demote the
        # sessions served this tick so deferred ones are at the front next
        # tick — this is what bounds any session's wait under backpressure.
        for sid in ready:
            self._rr.remove(sid)
            self._rr.append(sid)
        return ready

    def _dispatch(self, ready: List[str], inputs, report: TickReport) -> None:
        if self.config.workers:
            self._dispatch_process(ready, inputs, report)
        else:
            for sid in ready:
                x, ref = inputs[sid]
                self._record(sid, self._step_inline(sid, x, ref), report)

    def _fault_directive(self, sid: str) -> Optional[Dict[str, object]]:
        if self.fault_hook is None:
            return None
        return self.fault_hook.on_dispatch(self._tick_index, sid)

    def _step_inline(self, sid: str, x, ref) -> StepOutcome:
        """Inline step with the serve-layer fault semantics: a
        ``worker_crash`` directive is one lost solve (the session pays a
        ladder step, exactly like a dead process worker), ``slow`` delays
        the solve by the injected latency."""
        directive = self._fault_directive(sid)
        if directive is not None:
            kind = directive.get("kind")
            if kind == "worker_crash":
                return self.sessions[sid].fail_step("worker_died")
            if kind == "slow":
                sleep(float(directive.get("delay_s", 0.0)))
        return self._step_guarded(sid, x, ref)

    def _dispatch_process(self, ready, inputs, report) -> None:
        from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

        if self._pool is None:
            # Pre-populate the worker cache in this process first: with the
            # fork start method the children inherit the compiled problems
            # for free instead of re-transcribing per worker.
            for (robot, horizon), (bench, problem) in self._problem_cache.items():
                methods = {
                    s.config.qp_method
                    for s in self.sessions.values()
                    if (s.config.robot, s.config.horizon) == (robot, horizon)
                } or {"ipm"}
                for method in methods:
                    prime_worker_cache(
                        robot, horizon, bench, problem, qp_method=method
                    )
            self._pool = ProcessPoolExecutor(max_workers=self.config.workers)
        futures = {}
        broken = False
        for sid in ready:
            x, ref = inputs[sid]
            payload = self.sessions[sid].solve_payload(x, ref=ref)
            directive = self._fault_directive(sid)
            if directive is not None:
                payload["fault"] = directive
            if not broken:
                try:
                    futures[sid] = self._pool.submit(remote_solve, payload)
                    continue
                except BrokenExecutor:
                    broken = True
            # Pool already known-broken: this solve is lost, the session
            # pays one ladder step and the pool is rebuilt after the tick.
            self._record(
                sid, self.sessions[sid].fail_step("worker_died"), report
            )
        for sid, fut in futures.items():
            session = self.sessions[sid]
            try:
                outcome = session.absorb(fut.result())
            except ReproError:
                raise
            except BrokenExecutor:
                # A worker died mid-solve.  That is a *solve* failure, not a
                # session failure: the session keeps its warm start (the
                # worker never mutated it), serves the degradation ladder,
                # and the pool is discarded and lazily respawned.
                broken = True
                outcome = session.fail_step("worker_died")
            except Exception:
                outcome = session.mark_crashed()
            self._record(sid, outcome, report)
        if broken:
            self._discard_pool()

    def _discard_pool(self) -> None:
        """Throw away a broken worker pool; the next process dispatch
        rebuilds (and re-primes) it lazily."""
        pool, self._pool = self._pool, None
        self.worker_respawns += 1
        if pool is not None:
            try:
                # No wait (the pool is broken) and no cancel_futures (all
                # futures were already consumed above).
                pool.shutdown(wait=False)
            except Exception:
                pass
        if self.trace is not None:
            self.trace.emit("worker_pool", respawns=self.worker_respawns)

    def _apply_backpressure(self, report: TickReport) -> None:
        budget = self.config.tick_budget_s
        if budget is None or not report.stepped:
            return
        if report.duration_s > budget:
            # Overrun: shrink the next batch proportionally to the overshoot.
            scaled = int(report.stepped * budget / report.duration_s)
            self._batch_limit = max(self.config.min_batch, scaled)
        elif report.duration_s < 0.5 * budget and self._batch_limit is not None:
            # Headroom: re-grow geometrically until the limit disappears.
            grown = self._batch_limit * 2
            if grown >= len(self.sessions):
                self._batch_limit = None
            else:
                self._batch_limit = grown

    # -- teardown -------------------------------------------------------------
    def collect_solver_stats(self) -> None:
        """Fold every session's cumulative solver phase stats into the
        fleet metrics (call once, at end of run)."""
        for session in self.sessions.values():
            self.metrics.absorb_solver_stats(session.solver_stats())

    def shutdown(self) -> None:
        """Close all serving sessions and stop the worker pool."""
        for session in self.sessions.values():
            if session.serving:
                session.close()
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


# -- worker-side solve (process backend) ----------------------------------------

#: per-process cache: (robot, horizon, qp_method) -> (benchmark, problem,
#: solver) — the QP method is part of the solver's identity, so sessions
#: with different methods never share a worker-side solver (or its
#: ADMM-internal warm state)
_WORKER_CACHE: Dict[Tuple[str, int, str], Tuple[object, object, object]] = {}


def prime_worker_cache(
    robot: str,
    horizon: int,
    bench=None,
    problem=None,
    qp_method: str = "ipm",
) -> None:
    """Populate this process's solver cache (parent-side, pre-fork)."""
    key = (robot, horizon, qp_method)
    if key in _WORKER_CACHE:
        return
    if bench is None:
        from repro.robots import build_benchmark

        bench = build_benchmark(robot)
    if problem is None:
        problem = bench.transcribe(horizon=horizon)
    # warm the fused kernels pre-fork: a cold C compile belongs in the
    # prime, not inside a worker's first deadline-budgeted solve
    problem.codegen_kernels()
    solver = bench.make_solver(problem)
    if qp_method != "ipm":
        from repro.serve.session import apply_qp_method

        apply_qp_method(solver, qp_method)
    _WORKER_CACHE[key] = (bench, problem, solver)


def remote_solve(payload: Dict[str, object]) -> Dict[str, object]:
    """Execute one picklable solve payload (runs inside a pool worker).

    The payload carries the full per-step state (measurement, references,
    warm start, budget); the worker is stateless apart from its solver
    cache, so any worker can serve any session.  The reply is a plain dict
    of arrays/scalars — also picklable — that
    :meth:`ControlSession.absorb` folds back into the session.

    An optional ``payload["fault"]`` directive (from the chaos harness)
    is honored before the solve (:func:`repro.serve.wire.run_fault_directive`).
    """
    try:
        run_fault_directive(payload.get("fault"))
        robot = str(payload["robot"])
        horizon = int(payload["horizon"])
        qp_method = str(payload.get("qp_method") or "ipm")
        prime_worker_cache(robot, horizon, qp_method=qp_method)
        _, _, solver = _WORKER_CACHE[(robot, horizon, qp_method)]
        budget = SolveBudget(
            wall_clock=payload.get("deadline_s"),
            sqp_iterations=payload.get("max_sqp_iterations"),
            qp_iterations=payload.get("max_qp_iterations"),
        )
        result = solver.solve(
            payload["x"],
            ref=payload.get("ref"),
            z_warm=payload.get("z_warm"),
            nu_warm=payload.get("nu_warm"),
            lam_warm=payload.get("lam_warm"),
            budget=None if budget.unlimited else budget,
        )
        return {"ok": True, "error": None, **result_to_dict(result)}
    except ReproError as exc:
        return error_reply(exc)
