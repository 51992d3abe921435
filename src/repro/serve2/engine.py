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

Sessions are placed on shards by batch key, ``(robot, bucket)``, so a
key's lanes solve as one group on one shard: with at least as many keys as
live shards each key goes whole to the least-loaded shard (largest key
first); with fewer keys each key spreads round-robin over its share of the
shards, so none idles.  The placement is recomputed lazily, once after the
session table changed, and never depends on registration order.

One lost solve is one degradation-ladder step.  When a shard dies (a
real worker-process death in ``process`` mode, a chaos mark in
``inline`` mode), its in-flight lanes pay a ``worker_died`` step, its
sessions are re-placed by the same rule over the surviving shards, and
the shard respawns as fresh capacity.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass, field
from time import perf_counter, sleep
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.batch.contract import QP_METHODS
from repro.batch.ipm import BatchSolveReport
from repro.errors import AdmissionError, ReproError, ServeError
from repro.serve.session import (
    CLOSED,
    CRASHED,
    ControlSession,
    SessionConfig,
    StepOutcome,
)
from repro.serve.telemetry import FleetMetrics, TraceWriter
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


class AsyncServeEngine:
    """Queue-submit / batch-form / EDF-dispatch engine over sharded arenas.

    It owns the session table: admission against ``config.max_sessions``
    (with lazy eviction of closed sessions at the cap), the shared
    ``(robot, horizon)`` transcriptions, the per-session lifecycle
    passthroughs and per-step recording, with each session's shard
    placement recomputed from the table whenever it changed.
    """

    def __init__(
        self,
        config: Optional[Serve2Config] = None,
        trace: Optional[TraceWriter] = None,
    ):
        self.config = config or Serve2Config()
        self.sessions: Dict[str, ControlSession] = {}
        self.metrics = FleetMetrics()
        self.trace = trace
        self._tick_index = 0
        self._next_id = 0
        #: shared transcriptions: (robot, horizon) -> (benchmark, problem)
        self._problem_cache: Dict[Tuple[str, int], Tuple[object, object]] = {}
        self.buckets = HorizonBuckets(self.config.rungs)
        #: optional chaos hook: ``on_dispatch(tick, session_id)`` -> None
        #: or a directive dict (worker_crash / slow / shard_crash)
        self.fault_hook = None
        self._seq = 0
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
        #: session -> shard as last placed (read through ``_affinity``)
        self._pins: Dict[str, int] = {}
        #: the session table changed since the last placement
        self._stale = False
        #: armed chaos faults per shard (process mode: shipped with the
        #: shard's next group so the worker death is real)
        self._shard_faults: Dict[int, Dict[str, object]] = {}
        #: robot -> benchmark, or None when the robot has no registry
        #: entry (externally-built stub sessions)
        self._bench_cache: Dict[str, object] = {}
        self._loop = asyncio.new_event_loop()
        self._drain_task: Optional[asyncio.Task] = None

    # -- session lifecycle ----------------------------------------------------
    def create_session(
        self, config: SessionConfig, session_id: Optional[str] = None
    ) -> str:
        """Admit and build a new session; raises :class:`AdmissionError`
        when the fleet is at ``max_sessions``."""
        self._admit()
        if session_id is None:
            session_id = f"s{self._next_id:04d}"
            self._next_id += 1
        if session_id in self.sessions:
            raise ServeError(f"session id {session_id!r} already exists")
        key = (config.robot, config.horizon)
        if key not in self._problem_cache:
            from repro.robots import build_benchmark

            bench = build_benchmark(config.robot)
            problem = bench.transcribe(horizon=config.horizon)
            self._problem_cache[key] = (bench, problem)
        bench, problem = self._problem_cache[key]
        session = ControlSession.from_benchmark(
            session_id, config, bench=bench, problem=problem
        )
        self._register(session)
        return session_id

    def add_session(self, session: ControlSession) -> str:
        """Admit a pre-built session (tests inject stub-solver sessions here)."""
        self._admit()
        if session.session_id in self.sessions:
            raise ServeError(f"session id {session.session_id!r} already exists")
        self._register(session)
        return session.session_id

    def _admit(self) -> None:
        # Fast path for large fleets: open sessions can never outnumber
        # the table, so a table under the cap needs no O(n) scan.
        if len(self.sessions) < self.config.max_sessions:
            return
        # At cap, lazily evict closed sessions (and their shard pins):
        # a churned fleet must not grow the table without bound — that is
        # a leak at soak scale, not bookkeeping.  Crashed sessions stay:
        # they are restartable.
        closed = [s for s, ses in self.sessions.items() if ses.state == CLOSED]
        for sid in closed:
            del self.sessions[sid]
            self._pins.pop(sid, None)
        if len(self.sessions) < self.config.max_sessions:
            return
        open_count = sum(1 for s in self.sessions.values() if s.serving)
        if open_count >= self.config.max_sessions:
            raise AdmissionError(
                f"engine at capacity ({self.config.max_sessions} sessions)"
            )

    def _register(self, session: ControlSession) -> None:
        cfg = session.config
        self.sessions[session.session_id] = session
        self._stale = True
        bound = self._problem_cache.get((cfg.robot, cfg.horizon))
        if bound is not None:
            # group bindings reuse the benchmark create_session built
            self._bench_cache.setdefault(cfg.robot, bound[0])

    def binding(self, robot: str, horizon: int) -> Tuple[object, object]:
        """The shared ``(benchmark, problem)`` pair for a robot/horizon
        binding (built on first use by :meth:`create_session`)."""
        try:
            return self._problem_cache[(robot, horizon)]
        except KeyError:
            raise ServeError(
                f"no sessions bound to ({robot!r}, horizon={horizon})"
            ) from None

    def get_session(self, session_id: str) -> ControlSession:
        try:
            return self.sessions[session_id]
        except KeyError:
            raise ServeError(f"unknown session {session_id!r}") from None

    def reset_session(self, session_id: str) -> None:
        self.get_session(session_id).reset()

    def restart_session(self, session_id: str) -> None:
        """Recover a crashed session back to ``active`` (see
        :meth:`ControlSession.restart`); it rejoins the tick loop on the
        next input."""
        self.get_session(session_id).restart()
        self._stale = True

    def close_session(self, session_id: str) -> None:
        self.get_session(session_id).close()
        self._stale = True

    def session_states(self) -> Dict[str, str]:
        return {sid: s.state for sid, s in self.sessions.items()}

    def crashed_sessions(self) -> List[str]:
        return [sid for sid, s in self.sessions.items() if s.state == CRASHED]

    def _step_guarded(self, sid: str, x, ref) -> StepOutcome:
        """One scalar step on the session's own solver; anything escaping
        the session's own handling (i.e. a bug, not a solver failure)
        crashes only that session."""
        session = self.sessions[sid]
        try:
            return session.step(x, ref=ref)
        except ReproError:
            raise  # lifecycle misuse is the caller's bug — do not mask it
        except Exception:
            return session.mark_crashed()

    def _record(self, sid: str, outcome: StepOutcome, report) -> None:
        """Fold one step outcome into a ``TickReport``, the fleet metrics
        and the trace."""
        report.outcomes[sid] = outcome
        self.metrics.observe_step(sid, outcome)
        if self.trace is not None:
            self.trace.emit("step", tick=report.index, **outcome.to_record())

    # -- shard placement --------------------------------------------------------
    @property
    def _affinity(self) -> Dict[str, int]:
        """session -> shard, placing the serving sessions over the live
        shards first if the session table changed since the last read."""
        if self._stale:
            self._stale = False
            live = [s.index for s in self._shards if not s.dead] or [0]
            self._place([sid for sid, s in self.sessions.items() if s.serving], live)
        return self._pins

    def _place(self, sids: List[str], shards: List[int]) -> None:
        """Pin ``sids`` to ``shards`` by batch key: each key whole on the
        least-loaded shard when keys >= shards, else each key round-robin
        over ``len(shards) // keys`` shards (the largest keys take the
        remainder).  Keys go largest first, ties by key, so the map does
        not depend on registration order."""
        keys: Dict[Tuple[str, int], List[str]] = {}
        for sid in sids:
            cfg = self.sessions[sid].config
            key = (cfg.robot, self.buckets.bucket_for(cfg.horizon))
            keys.setdefault(key, []).append(sid)
        order = sorted(keys, key=lambda k: (-len(keys[k]), k))
        load = dict.fromkeys(shards, 0)
        width, extra = divmod(len(shards), len(order) or 1)
        for rank, key in enumerate(order):
            if len(order) >= len(shards):
                span = [min(shards, key=load.__getitem__)]
                load[span[0]] += len(keys[key])
            else:
                start = rank * width + min(rank, extra)
                span = shards[start : start + width + (rank < extra)]
            for i, sid in enumerate(keys[key]):
                shard = span[i % len(span)]
                if self._pins.get(sid) != shard and self.trace is not None:
                    cfg = self.sessions[sid].config
                    self.trace.emit(
                        "session",
                        session=sid,
                        robot=cfg.robot,
                        horizon=cfg.horizon,
                        deadline_s=cfg.deadline_s,
                        shard=shard,
                    )
                self._pins[sid] = shard

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
        t0 = perf_counter()
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
        self.metrics.observe_shard_group(
            shard.index, perf_counter() - t0, reply["solve_s"], reply["primed"]
        )
        self.metrics.absorb_solver_stats(reply["phases"])
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
            moved = [sid for sid, idx in self._pins.items() if idx == shard.index]
            self._place(moved, survivors)
            self.metrics.shard_handoffs += len(moved)
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
        """Fold every session's and inline shard's cumulative solver phase
        stats into the fleet metrics (call once, at end of run).  Process
        shards' phases were folded in reply by reply: their parent-side
        bindings never solve."""
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
