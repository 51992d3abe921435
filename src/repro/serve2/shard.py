"""Sharded solver arenas for the serve2 engine.

A shard owns the padded :class:`~repro.serve2.padding.PaddedBinding`\\ s
for the ``(robot, bucket)`` keys the engine places on it (by batch key,
so a key's lanes solve as one group) and — in ``process`` mode — a
single-worker process pool whose death is a real OS process death.
Sessions (and their warm-start state) live in the *parent* engine; a
shard is pure solver capacity, which is what makes handoff cheap: when a
shard dies mid-tick, its in-flight lanes pay one degradation-ladder step
(``worker_died``, as for any lost solve), its sessions are
re-placed on surviving shards, and the dead shard respawns lazily.

``inline`` mode solves in-process (deterministic, what the chaos
campaign drives); ``process`` mode overlaps shard solves across real
worker processes, with the parent's compiled bindings inherited through
the fork start method via a prime-before-fork cache, and over the worker
wire format of :mod:`repro.serve.wire`.  A binding added after the fork
discards the pool, so the next group forks a worker primed with it.
"""

from __future__ import annotations

from dataclasses import asdict
from time import perf_counter
from typing import Dict, Optional, Tuple

from repro.errors import ReproError, SolverError
from repro.serve.telemetry import _PHASE_KEYS
from repro.serve.wire import error_reply, result_to_dict, run_fault_directive
from repro.serve2.padding import PaddedBinding

__all__ = ["Shard", "prime_shard_cache", "shard_solve_group"]


class Shard:
    """One solving arena: padded bindings plus an optional worker pool."""

    def __init__(
        self,
        index: int,
        backend: str = "inline",
        qp_method: str = "ipm",
        array_backend: Optional[str] = None,
    ):
        self.index = index
        self.backend = backend
        self.qp_method = qp_method
        self.array_backend = array_backend
        #: (robot, bucket) -> PaddedBinding (built on first use)
        self.bindings: Dict[Tuple[str, int], PaddedBinding] = {}
        self.dead = False
        self.groups_solved = 0
        self._pool = None

    def binding(self, robot: str, bucket: int, bench) -> PaddedBinding:
        key = (robot, bucket)
        if key not in self.bindings:
            self.bindings[key] = PaddedBinding(
                bench,
                bucket,
                qp_method=self.qp_method,
                array_backend=self.array_backend,
            )
            # a worker forked before this binding existed would build it
            # cold inside a solve: refork, primed, on the next group
            self.discard_pool()
        return self.bindings[key]

    def pool(self):
        """The shard's single-worker process pool (process mode only)."""
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor

            # Prime this process's cache first: with the fork start method
            # the worker inherits the compiled padded problems for free.
            for (robot, bucket), binding in self.bindings.items():
                prime_shard_cache(
                    robot, bucket, qp_method=self.qp_method, binding=binding
                )
            self._pool = ProcessPoolExecutor(max_workers=1)
        return self._pool

    def kill(self) -> None:
        """Mark the shard dead (inline-mode chaos; process mode dies for
        real inside the worker) and discard any pool."""
        self.dead = True
        self.discard_pool()

    def revive(self) -> None:
        """Bring a dead shard back as fresh capacity (bindings survive —
        they are pure solver state; the pool rebuilds lazily)."""
        self.dead = False

    def discard_pool(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            try:
                pool.shutdown(wait=False)
            except Exception:
                pass

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


# -- worker-side group solve (process shards) -----------------------------------

#: per-process cache: (robot, bucket, qp_method) -> PaddedBinding
_SHARD_CACHE: Dict[Tuple[str, int, str], PaddedBinding] = {}


def prime_shard_cache(
    robot: str,
    bucket: int,
    qp_method: str = "ipm",
    binding: Optional[PaddedBinding] = None,
) -> None:
    """Populate this process's padded-binding cache (parent-side, pre-fork)."""
    key = (robot, bucket, qp_method)
    if key in _SHARD_CACHE:
        return
    if binding is None:
        from repro.robots import build_benchmark

        binding = PaddedBinding(
            build_benchmark(robot), bucket, qp_method=qp_method
        )
    # a cold kernel compile belongs in the prime, not a budgeted solve
    binding.problem.codegen_kernels()
    _SHARD_CACHE[key] = binding


def shard_solve_group(group: Dict[str, object]) -> Dict[str, object]:
    """Solve one padded group inside a shard worker process.

    ``group`` carries the binding identity, the already-padded payloads,
    and an optional chaos directive
    (:func:`repro.serve.wire.run_fault_directive`: ``shard_crash``
    hard-kills this worker — the failure mode handoff must survive).  The
    reply is a plain dict of per-lane result dicts
    (:func:`repro.serve.wire.result_to_dict`), the batch-occupancy report,
    ``primed`` (this process's cache already held the binding, so nothing
    was built inside the solve), ``solve_s`` (wall seconds in
    ``solve_payloads``) and ``phases`` (what the solve added to the
    worker binding's solver phase stats, which the parent never sees).
    """
    try:
        run_fault_directive(group.get("fault"))
        robot = str(group["robot"])
        bucket = int(group["bucket"])
        qp_method = str(group.get("qp_method") or "ipm")
        primed = (robot, bucket, qp_method) in _SHARD_CACHE
        prime_shard_cache(robot, bucket, qp_method=qp_method)
        binding = _SHARD_CACHE[(robot, bucket, qp_method)]
        if not binding.batchable:
            # the engine steps unbatchable bindings scalar-inline and never
            # ships them to a shard worker
            raise SolverError(f"({robot!r}, bucket {bucket}) cannot batch")
        stats = binding.batch_solver.stats
        before = {key: stats[key] for key in _PHASE_KEYS}
        t0 = perf_counter()
        results, report = binding.batch_solver.solve_payloads(group["payloads"])
        return {
            "ok": True,
            "lanes": [result_to_dict(r) for r in results],
            "report": asdict(report),
            "primed": primed,
            "solve_s": perf_counter() - t0,
            "phases": {key: stats[key] - before[key] for key in _PHASE_KEYS},
        }
    except ReproError as exc:
        return error_reply(exc)
