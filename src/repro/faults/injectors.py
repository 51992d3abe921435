"""Fault injectors: bind a :class:`FaultSchedule` to the real hook points.

Two injector classes, one per side of the serving boundary:

* :class:`SessionFaultInjector` — per-session, covers the **sensor** layer
  (corrupt measurements / applied inputs) and the **solver** layer (forced
  factorization failures, ill-conditioning, budget starvation).  It *is*
  the duck-typed ``fault_hook`` object the solver consults
  (``transform_matrix`` / ``force_failure``) and provides the callables
  :class:`~repro.mpc.controller.MPCController` hooks expect.
* :class:`EngineFaultInjector` — fleet-wide, covers the **serve** layer:
  consulted once per submitted solve and answers with a directive the
  engine executes — lose this solve, kill this shard, or delay this
  solve.

Both are clocked externally: the campaign calls ``advance(tick)`` /
passes the tick in, so the same schedule replays identically.
Solver-layer hooks ride the session's own scalar solver, and the engine
steps a hooked session on that solver instead of its batched lanes
(group-fallback reason ``solver_hooked``), so every solver-layer fault
reaches the solve it targets.  The hook points themselves are not
scalar-only: both QP loops consult a per-lane hook sequence for every
``B`` (``fault_hooks=`` of :func:`repro.batch.qp.solve_qp_batch`, on host
backends, and of :func:`repro.firstorder.batch.solve_qp_admm_batch`), and
``BatchSolver.fault_hooks`` reaches both; nothing threads a session's
injector through ``BatchSolver.solve_payloads`` yet — ROADMAP 11(d).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.batch.contract import SolveBudget
from repro.faults.schedule import FaultSchedule, FaultSpec

__all__ = ["SessionFaultInjector", "EngineFaultInjector"]


class SessionFaultInjector:
    """Sensor- and solver-layer faults for one session/controller."""

    def __init__(self, schedule: FaultSchedule, session_index: int = 0):
        self.schedule = schedule
        self.session_index = session_index
        self.tick = -1
        self._fired: List[Tuple[int, FaultSpec]] = []
        self._last_clean: Optional[np.ndarray] = None
        self._force_failures = 0
        #: (scale, rng) of the active illcond fault, if any
        self._illcond: Optional[Tuple[float, object]] = None
        #: (scale, rng) of the active illcond_qp fault, if any
        self._illcond_qp: Optional[Tuple[float, object]] = None
        #: ADMM solves left to force into a stall this tick
        self._stall_solves = 0
        self._starve_s: Optional[float] = None
        #: counters for assertions/telemetry: kind -> times fired
        self.fired_counts: Dict[str, int] = {}

    # -- clocking -------------------------------------------------------------
    def advance(self, tick: int) -> None:
        """Enter a new tick: draw this tick's fire decisions."""
        self.tick = tick
        self._fired = self.schedule.fires(tick, self.session_index)
        self._force_failures = 0
        self._illcond = None
        self._illcond_qp = None
        self._stall_solves = 0
        self._starve_s = None
        for idx, spec in self._fired:
            self.fired_counts[spec.kind] = self.fired_counts.get(spec.kind, 0) + 1
            if spec.kind == "chol_fail":
                self._force_failures += max(1, int(spec.intensity()))
            elif spec.kind == "illcond":
                self._illcond = (
                    spec.intensity(),
                    self.schedule.rng_for(tick, self.session_index, idx),
                )
            elif spec.kind == "illcond_qp":
                self._illcond_qp = (
                    spec.intensity(),
                    self.schedule.rng_for(tick, self.session_index, idx),
                )
            elif spec.kind == "admm_stall":
                self._stall_solves += max(1, int(spec.intensity()))
            elif spec.kind == "budget_starve":
                self._starve_s = spec.intensity()

    def _payload_rng(self, spec_index: int):
        return self.schedule.rng_for(self.tick, self.session_index, spec_index)

    # -- sensor layer ---------------------------------------------------------
    def corrupt_state(self, x: np.ndarray) -> np.ndarray:
        """Apply this tick's sensor faults to a measurement (pure w.r.t. the
        clean input: the stale copy kept for ``dropout`` is the *clean*
        measurement, so a dropout never replays corruption)."""
        clean = np.asarray(x, dtype=float).copy()
        out = clean.copy()
        for idx, spec in self._fired:
            if spec.kind == "dropout":
                if self._last_clean is not None:
                    out = self._last_clean.copy()
            elif spec.kind in ("nan_state", "inf_state"):
                rng = self._payload_rng(idx)
                count = min(out.size, max(1, int(spec.intensity())))
                hit = rng.choice(out.size, size=count, replace=False)
                out[hit] = np.nan if spec.kind == "nan_state" else np.inf
            elif spec.kind == "spike":
                rng = self._payload_rng(idx)
                out = out + spec.intensity() * rng.standard_normal(out.shape)
        self._last_clean = clean
        return out

    def corrupt_input(self, u: np.ndarray) -> np.ndarray:
        """Apply this tick's actuator faults to the input actually applied."""
        out = np.asarray(u, dtype=float)
        for _, spec in self._fired:
            if spec.kind == "saturate":
                bound = spec.intensity()
                out = np.clip(out, -bound, bound)
        return out

    # -- solver layer (controller hooks + the QP loops' hook protocol) -------
    def corrupt_budget(
        self, budget: Optional[SolveBudget]
    ) -> Optional[SolveBudget]:
        if self._starve_s is None:
            return budget
        return SolveBudget(wall_clock=self._starve_s)

    def transform_matrix(self, A: np.ndarray) -> np.ndarray:
        if self._illcond is None or A.shape[0] < 2:
            return A
        scale, rng = self._illcond
        k = int(rng.integers(A.shape[0]))
        out = A.copy()
        out[k, :] *= scale
        out[:, k] *= scale  # congruence: symmetry (and PSD-ness) preserved
        return out

    def force_failure(self) -> bool:
        if self._force_failures > 0:
            self._force_failures -= 1
            return True
        return False

    def transform_qp(self, H: np.ndarray) -> np.ndarray:
        """Consulted by ``solve_qp`` on the condensed Hessian: an active
        ``illcond_qp`` fault scales one row/col (congruence, so the matrix
        stays symmetric PSD) to blow up the norm spread the equilibration
        gate watches."""
        if self._illcond_qp is None or H.shape[0] < 2:
            return H
        scale, rng = self._illcond_qp
        k = int(rng.integers(H.shape[0]))
        out = H.copy()
        out[k, :] *= scale
        out[:, k] *= scale
        return out

    def force_stall(self) -> bool:
        """Consulted once per ADMM solve: ``True`` forces the solve to
        report a stall, which must drive the rescue ladder (never a silent
        bad plan)."""
        if self._stall_solves > 0:
            self._stall_solves -= 1
            return True
        return False

    # -- wiring ---------------------------------------------------------------
    def bind(self, controller) -> None:
        """Install every hook on a controller (inline solve paths): sensor
        faults on the measurement/input, starvation on the budget, and this
        object as the solver's factorization fault hook."""
        controller.state_fault_hook = self.corrupt_state
        controller.input_fault_hook = self.corrupt_input
        self.bind_solver(controller)

    def bind_solver(self, controller) -> None:
        """Install only the solver-layer hooks.  The chaos campaign uses
        this and applies sensor faults itself (on the plant-side
        measurement/input), which keeps sensor semantics identical whether
        a session batches or steps on its own solver."""
        controller.budget_fault_hook = self.corrupt_budget
        controller.solver.fault_hook = self


class EngineFaultInjector:
    """Serve-layer faults, consulted by :attr:`AsyncServeEngine.fault_hook`.

    The engine's tick counter is 1-based and pre-incremented; campaign
    schedules are written against 0-based campaign ticks, so dispatch ticks
    are shifted by ``tick_offset`` (default ``-1``) before consulting the
    schedule.
    """

    def __init__(
        self,
        schedule: FaultSchedule,
        session_ids: Sequence[str],
        tick_offset: int = -1,
    ):
        self.schedule = schedule
        self.index_of = {sid: i for i, sid in enumerate(session_ids)}
        self.tick_offset = tick_offset
        self.fired_counts: Dict[str, int] = {}

    def on_dispatch(
        self, tick: int, session_id: str
    ) -> Optional[Dict[str, object]]:
        idx = self.index_of.get(session_id)
        if idx is None:
            return None
        t = tick + self.tick_offset
        shard = None
        crash = None
        slow = None
        for _, spec in self.schedule.fires(t, idx):
            if spec.kind == "shard_crash" and shard is None:
                shard = {"kind": "shard_crash"}
            elif spec.kind == "worker_crash" and crash is None:
                crash = {"kind": "worker_crash"}
            elif spec.kind == "slow_worker" and slow is None:
                slow = {"kind": "slow", "delay_s": spec.intensity()}
        # a dead shard preempts a dead worker preempts a slow one
        directive = shard or crash or slow
        if directive is not None:
            key = (
                "shard_crash" if shard else
                "worker_crash" if crash else
                "slow_worker"
            )
            self.fired_counts[key] = self.fired_counts.get(key, 0) + 1
        return directive
