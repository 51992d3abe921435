"""Async continuous-batching serve engine: the one serve engine.

Sessions *submit* :class:`~repro.serve2.scheduler.SolveRequest`\\ s to a
central queue on an asyncio event loop.  A drain task then repeatedly
takes the earliest-deadline request, fills a batch with queued requests
sharing its ``(shard, robot, bucket)`` key — horizons padded up to the
bucket rung so near-miss horizons co-batch — and launches the group solve
as its own task, so groups overlap on process shards and interleave with
fresh submissions: continuous batching, not barrier ticks.

The synchronous :meth:`AsyncServeEngine.tick` (``tick(inputs) ->
TickReport``) is what the load generator, the chaos campaign and the CLI
drive; the async :meth:`AsyncServeEngine.submit` is the native API.

Groups step on the batched lanes.  A session whose group cannot batch
(no registry benchmark, a non-Gauss-Newton robot), whose QP method was
demoted, or whose solver carries a chaos fault hook steps instead on its
own scalar solver (:meth:`~repro.serve.session.ControlSession.step`), so
solver-layer faults reach the solve they target.

One lost solve is one degradation-ladder step.  When a shard dies (a
real worker-process death in ``process`` mode, a chaos mark in
``inline`` mode), its in-flight lanes pay a ``worker_died`` step, its
sessions are handed off to surviving shards, and the shard respawns as
fresh capacity.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass, field
from time import perf_counter, sleep
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.batch.ipm import BatchSolveReport
from repro.errors import ReproError, ServeError
from repro.mpc.qp import QP_METHODS
from repro.serve.session import ControlSession, SessionTable, StepOutcome
from repro.serve.telemetry import TraceWriter
from repro.serve2.bucketing import DEFAULT_RUNGS, HorizonBuckets
from repro.serve2.scheduler import EDFScheduler, SolveRequest
from repro.serve.wire import result_from_dict
from repro.serve2.shard import Shard, shard_solve_group

__all__ = ["Serve2Config", "TickReport", "AsyncServeEngine"]


@dataclass(frozen=True)
class Serve2Config:
    """Policy knobs for the serve engine."""

    #: admission-control cap on concurrently open sessions
    max_sessions: int = 1024
    #: horizon-bucket rungs (each session horizon rounds up to a rung)
    rungs: Tuple[int, ...] = DEFAULT_RUNGS
    #: max lanes per group solve
    max_batch: int = 64
    #: queue-depth admission cap; a request arriving at a full queue is
    #: shed (None = unbounded)
    max_queue: Optional[int] = None
    #: number of solver shards
    shards: int = 1
    #: "inline" (in-process, deterministic) or "process" (one worker
    #: process per shard; shard death is a real OS process death)
    shard_backend: str = "inline"
    #: drop a queued request at dispatch once its deadline has passed
    #: (solving it would burn a lane on an unusable answer)
    shed_late: bool = True
    #: inner QP solver for the batched lanes: "ipm" or "admm"
    qp_method: str = "ipm"
    #: array backend for the batched lanes, e.g. "torch" (None = numpy)
    array_backend: Optional[str] = None

    def __post_init__(self):
        if self.qp_method not in QP_METHODS:
            raise ServeError(
                f"qp_method must be one of {QP_METHODS}, got {self.qp_method!r}"
            )
        if self.max_sessions < 1:
            raise ServeError("max_sessions must be >= 1")
        if self.max_batch < 1:
            raise ServeError("max_batch must be >= 1")
        if self.max_queue is not None and self.max_queue < 1:
            raise ServeError("max_queue must be >= 1 (or None)")
        if self.shards < 1:
            raise ServeError("shards must be >= 1")
        if self.shard_backend not in ("inline", "process"):
            raise ServeError(f"unknown shard_backend {self.shard_backend!r}")
        HorizonBuckets(self.rungs)  # validates the ladder


@dataclass
class TickReport:
    """What one engine tick did."""

    index: int
    outcomes: Dict[str, StepOutcome] = field(default_factory=dict)
    duration_s: float = 0.0

    @property
    def stepped(self) -> int:
        return len(self.outcomes)


class AsyncServeEngine(SessionTable):
    """Queue-submit / batch-form / EDF-dispatch engine over sharded arenas."""

    def __init__(
        self,
        config: Optional[Serve2Config] = None,
        trace: Optional[TraceWriter] = None,
    ):
        super().__init__(config or Serve2Config(), trace)
        self.buckets = HorizonBuckets(self.config.rungs)
        #: optional chaos hook: ``on_dispatch(tick, session_id)`` -> None
        #: or a directive dict (worker_crash / slow / shard_crash)
        self.fault_hook = None
        self._seq = 0
        self._assigned = 0
        self._scheduler = EDFScheduler()
        self._shards = [
            Shard(
                i,
                backend=self.config.shard_backend,
                qp_method=self.config.qp_method,
                array_backend=self.config.array_backend,
            )
            for i in range(self.config.shards)
        ]
        #: session -> shard affinity (re-pinned on shard death)
        self._affinity: Dict[str, int] = {}
        #: armed chaos faults per shard (process mode: shipped with the
        #: shard's next group so the worker death is real)
        self._shard_faults: Dict[int, Dict[str, object]] = {}
        #: robot -> benchmark, or None when the robot has no registry
        #: entry (externally-built stub sessions)
        self._bench_cache: Dict[str, object] = {}
        self._loop = asyncio.new_event_loop()
        self._drain_task: Optional[asyncio.Task] = None

    # -- session-table hooks ----------------------------------------------------
    def _on_register(self, session: ControlSession) -> Dict[str, object]:
        shard = self._affinity[session.session_id] = self._next_shard()
        cfg = session.config
        bound = self._problem_cache.get((cfg.robot, cfg.horizon))
        if bound is not None:
            # group bindings reuse the benchmark create_session built
            self._bench_cache.setdefault(cfg.robot, bound[0])
        return {"shard": shard}

    def _on_evict(self, session_ids: List[str]) -> None:
        for sid in session_ids:
            self._affinity.pop(sid, None)

    def _next_shard(self) -> int:
        """Round-robin assignment over live shards."""
        n = len(self._shards)
        for _ in range(n):
            idx = self._assigned % n
            self._assigned += 1
            if not self._shards[idx].dead:
                return idx
        return self._assigned % n  # all dead: pin anywhere, revive later

    def shard_of(self, session_id: str) -> int:
        return self._affinity[session_id]

    # -- sync tick facade -------------------------------------------------------
    def tick(
        self,
        inputs: Dict[str, Tuple[np.ndarray, Optional[np.ndarray]]],
    ) -> TickReport:
        """Submit every ready session's input and run the loop until all
        of this tick's requests resolve."""
        t0 = perf_counter()
        self._tick_index += 1
        report = TickReport(index=self._tick_index)
        self._loop.run_until_complete(self._tick_async(inputs, report))
        report.duration_s = perf_counter() - t0
        self.metrics.observe_tick()
        if self.trace is not None:
            self.trace.emit(
                "tick",
                tick=report.index,
                duration_s=report.duration_s,
                stepped=report.stepped,
            )
        return report

    async def _tick_async(self, inputs, report: TickReport) -> None:
        futures: Dict[str, asyncio.Future] = {}
        for sid, (x, ref) in inputs.items():
            session = self.sessions.get(sid)
            if session is None or not session.serving:
                continue
            futures[sid] = self._submit_request(sid, x, ref)
        self._ensure_drain()
        for sid, fut in futures.items():
            outcome = await fut
            if outcome is not None:
                self._record(sid, outcome, report)

    # -- async submission API ---------------------------------------------------
    async def submit(
        self,
        session_id: str,
        x: np.ndarray,
        ref: Optional[np.ndarray] = None,
    ) -> StepOutcome:
        """Native API: enqueue one solve and await its outcome.  Requests
        submitted before the event loop yields co-batch into one group."""
        fut = self._submit_request(session_id, x, ref)
        self._ensure_drain()
        outcome = await fut
        if outcome is not None:
            self.metrics.observe_step(session_id, outcome)
            if self.trace is not None:
                self.trace.emit(
                    "step", tick=self._tick_index, **outcome.to_record()
                )
        return outcome

    def _submit_request(self, sid: str, x, ref) -> asyncio.Future:
        session = self.get_session(sid)
        fut = self._loop.create_future()
        directive = None
        if self.fault_hook is not None:
            directive = self.fault_hook.on_dispatch(self._tick_index, sid)
        if directive is not None:
            kind = directive.get("kind")
            if kind == "shard_crash":
                self._arm_shard_crash(self._affinity.get(sid, 0))
                directive = None
            elif kind == "worker_crash":
                # one lost solve: the session pays one ladder step
                fut.set_result(session.fail_step("worker_died"))
                return fut
        cfg = self.config
        if cfg.max_queue is not None and self._scheduler.depth >= cfg.max_queue:
            fut.set_result(session.fail_step("shed"))
            return fut
        deadline = math.inf
        if session.config.deadline_s is not None:
            deadline = self._loop.time() + float(session.config.deadline_s)
        request = SolveRequest(
            session_id=sid,
            robot=session.config.robot,
            horizon=session.config.horizon,
            bucket=self.buckets.bucket_for(session.config.horizon),
            shard=self._affinity.get(sid, 0),
            x=np.asarray(x, dtype=float),
            ref=None if ref is None else np.asarray(ref, dtype=float),
            deadline=deadline,
            seq=self._seq,
            directive=directive,
            future=fut,
        )
        self._seq += 1
        self._scheduler.push(request)
        return fut

    def _ensure_drain(self) -> None:
        if self._drain_task is None or self._drain_task.done():
            self._drain_task = self._loop.create_task(self._drain())

    async def _drain(self) -> None:
        """Batch former: peel EDF-ordered groups off the queue, launching
        each as its own task so group solves overlap (process shards) and
        interleave with fresh submissions."""
        while self._scheduler.depth:
            group = self._scheduler.pop_group(self.config.max_batch)
            if not group:
                break
            self._loop.create_task(self._solve_group(group))
            await asyncio.sleep(0)

    # -- group solving ----------------------------------------------------------
    async def _solve_group(self, group: List[SolveRequest]) -> None:
        try:
            await self._solve_group_inner(group)
        except Exception:
            # A bug in the group path must not hang the tick: resolve
            # every outstanding lane through the crash contract.
            for req in group:
                if not req.future.done():
                    session = self.sessions.get(req.session_id)
                    try:
                        outcome = (
                            session.mark_crashed()
                            if session is not None and session.serving
                            else None
                        )
                    except Exception:
                        outcome = None
                    req.future.set_result(outcome)

    async def _solve_group_inner(self, group: List[SolveRequest]) -> None:
        shard_idx, robot, bucket = group[0].group_key
        shard = self._shards[shard_idx]
        now = self._loop.time()
        lanes: List[SolveRequest] = []
        for req in group:
            session = self.sessions.get(req.session_id)
            if session is None or not session.serving:
                req.future.set_result(None)
                continue
            headroom = req.deadline - now
            waste = self.buckets.padding_waste(req.horizon)
            self.metrics.observe_dispatch(headroom, waste)
            if self.config.shed_late and headroom < 0:
                req.future.set_result(session.fail_step("shed"))
                continue
            lanes.append(req)
        if not lanes:
            return
        if shard.dead:
            self._shard_death(shard, lanes)
            return
        delay = max(
            (
                float(r.directive.get("delay_s", 0.0))
                for r in lanes
                if r.directive is not None and r.directive.get("kind") == "slow"
            ),
            default=0.0,
        )
        binding = self._group_binding(shard, robot, bucket)
        if binding is None or not binding.batchable:
            self.metrics.observe_group_fallback("unbatchable_binding", len(lanes))
            for req in lanes:
                req.future.set_result(self._step_scalar(req))
            return
        payloads = []
        solve_lanes: List[SolveRequest] = []
        for req in lanes:
            session = self.sessions[req.session_id]
            # A demoted session's solves must not re-enter the shared batch
            # (whose solver still runs the configured method); a session
            # with a chaos hook on its solver must solve where the hook is.
            hooked = getattr(session.controller.solver, "fault_hook", None)
            if hooked is not None or session.qp_method != session.config.qp_method:
                self.metrics.observe_group_fallback(
                    "method_demoted" if hooked is None else "solver_hooked", 1
                )
                req.future.set_result(self._step_scalar(req))
                continue
            payload = session.solve_payload(req.x, ref=req.ref)
            bad = not np.all(np.isfinite(payload["x"])) or (
                payload["ref"] is not None
                and not np.all(np.isfinite(payload["ref"]))
            )
            if bad:
                req.future.set_result(session.fail_step("bad_state"))
                continue
            payloads.append(binding.pad_payload(payload, session.problem))
            solve_lanes.append(req)
        if not solve_lanes:
            return
        if delay:
            await asyncio.sleep(delay)
        if shard.backend == "process":
            results, batch_report = await self._solve_on_worker(
                shard, robot, bucket, payloads, solve_lanes
            )
        else:
            results, batch_report = self._solve_inline(
                binding, payloads, solve_lanes
            )
        if results is None:
            return  # lanes already resolved through a failure path
        self.metrics.observe_batch(len(solve_lanes), batch_report)
        self.metrics.bucket_occupancy.record(
            len(solve_lanes) / self.config.max_batch
        )
        shard.groups_solved += 1
        for req, result in zip(solve_lanes, results):
            session = self.sessions[req.session_id]
            try:
                outcome = session.absorb_result(
                    binding.crop(result, session.problem)
                )
            except Exception:
                outcome = session.mark_crashed()
            req.future.set_result(outcome)

    def _solve_inline(self, binding, payloads, solve_lanes):
        try:
            return binding.batch_solver.solve_payloads(payloads)
        except ReproError:
            # solver-level rejection of the whole group: each session pays
            # one ladder step and drops its (implicated) warm start
            self.metrics.observe_group_fallback(
                "group_solver_error", len(solve_lanes)
            )
            for req in solve_lanes:
                req.future.set_result(
                    self.sessions[req.session_id].fail_step(
                        "solver_error", reset_warm=True
                    )
                )
            return None, None
        except Exception:
            self.metrics.observe_group_fallback("group_crashed", len(solve_lanes))
            for req in solve_lanes:
                req.future.set_result(self.sessions[req.session_id].mark_crashed())
            return None, None

    async def _solve_on_worker(self, shard, robot, bucket, payloads, solve_lanes):
        from concurrent.futures.process import BrokenProcessPool

        message = {
            "robot": robot,
            "bucket": bucket,
            "qp_method": self.config.qp_method,
            "payloads": payloads,
            "fault": self._shard_faults.pop(shard.index, None),
        }
        try:
            reply = await self._loop.run_in_executor(
                shard.pool(), shard_solve_group, message
            )
        except BrokenProcessPool:
            # the worker process died mid-solve: the canonical shard-death
            # event — lanes pay one ladder step, sessions hand off
            self._shard_death(shard, solve_lanes)
            return None, None
        except Exception:
            self.metrics.observe_group_fallback("group_crashed", len(solve_lanes))
            for req in solve_lanes:
                req.future.set_result(self.sessions[req.session_id].mark_crashed())
            return None, None
        if not reply.get("ok"):
            reason = str(reply.get("kind") or "solver_error")
            self.metrics.observe_group_fallback(
                "group_" + reason, len(solve_lanes)
            )
            for req in solve_lanes:
                req.future.set_result(
                    self.sessions[req.session_id].fail_step(
                        reason, reset_warm=(reason == "solver_error")
                    )
                )
            return None, None
        results = [result_from_dict(lane) for lane in reply["lanes"]]
        return results, BatchSolveReport(**reply["report"])

    def _step_scalar(self, req: SolveRequest) -> StepOutcome:
        """Scalar-inline lane: the session's own native problem and solver
        (a ``slow`` directive delays it by the injected latency)."""
        if req.directive is not None and req.directive.get("kind") == "slow":
            sleep(float(req.directive.get("delay_s", 0.0)))
        return self._step_guarded(req.session_id, req.x, req.ref)

    def _group_binding(self, shard: Shard, robot: str, bucket: int):
        if robot not in self._bench_cache:
            try:
                from repro.robots import build_benchmark

                self._bench_cache[robot] = build_benchmark(robot)
            except Exception:
                # externally-built sessions (add_session stubs) have no
                # registry benchmark; their groups step scalar-inline
                self._bench_cache[robot] = None
        bench = self._bench_cache[robot]
        if bench is None:
            return None
        try:
            return shard.binding(robot, bucket, bench)
        except ReproError:
            return None

    # -- shard death and handoff ------------------------------------------------
    def _arm_shard_crash(self, shard_idx: int) -> None:
        if self.config.shard_backend == "process":
            # ship the fault with the shard's next group: the worker
            # process hard-exits, so the death (and the BrokenProcessPool
            # recovery) is real
            self._shard_faults[shard_idx] = {"kind": "shard_crash"}
        else:
            self._shards[shard_idx].dead = True

    def _shard_death(self, shard: Shard, lanes: List[SolveRequest]) -> None:
        """In-flight lanes pay one ladder step; sessions re-pin to
        surviving shards; the dead shard respawns as fresh capacity."""
        shard.kill()
        for req in lanes:
            session = self.sessions.get(req.session_id)
            req.future.set_result(
                session.fail_step("worker_died")
                if session is not None and session.serving
                else None
            )
        survivors = [s.index for s in self._shards if not s.dead]
        if survivors:
            moved = 0
            for sid, idx in self._affinity.items():
                if idx == shard.index:
                    self._affinity[sid] = survivors[moved % len(survivors)]
                    moved += 1
            self.metrics.shard_handoffs += moved
        shard.revive()
        self.metrics.shard_respawns += 1
        if self.trace is not None:
            self.trace.emit(
                "shard_death",
                shard=shard.index,
                handoffs=self.metrics.shard_handoffs,
                respawns=self.metrics.shard_respawns,
            )

    # -- teardown ---------------------------------------------------------------
    def collect_solver_stats(self) -> None:
        """Fold every session's and shard's cumulative solver phase stats
        into the fleet metrics (call once, at end of run)."""
        for session in self.sessions.values():
            self.metrics.absorb_solver_stats(session.solver_stats())
        for shard in self._shards:
            for binding in shard.bindings.values():
                if binding.batch_solver is not None:
                    self.metrics.absorb_solver_stats(binding.batch_solver.stats)

    def shutdown(self) -> None:
        """Close all serving sessions, stop the shards, close the loop."""
        for session in self.sessions.values():
            if session.serving:
                session.close()
        for shard in self._shards:
            shard.shutdown()
        if not self._loop.is_closed():
            self._loop.close()
