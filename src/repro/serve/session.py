"""Per-session MPC state: lifecycle, budgeted stepping, degradation.

A :class:`ControlSession` owns everything one robot's control loop needs on
the serving side: the :class:`~repro.mpc.controller.MPCController` (and with
it the warm-start state), the robot/task binding resolved through
:mod:`repro.robots.registry`, the per-step :class:`~repro.mpc.budget.SolveBudget`,
and the :class:`~repro.serve.policy.FallbackLadder`.

Lifecycle: ``active`` → (``degraded`` ↔ ``active``) → ``closed``; the engine
may also force ``crashed`` when a step raises something outside the
:class:`~repro.errors.ReproError` hierarchy.  ``step`` never raises for
solver-side failures — every control period produces a
:class:`StepOutcome` carrying the input to apply plus full observability.

Two execution paths produce identical outcomes:

* ``step(x, ref)`` — solve inline on the session's own solver.
* ``solve_payload(x, ref)`` / ``absorb_result(result)`` — build a
  picklable solve request for a group solve outside the session (the
  engine's batched lanes, in-process or on a shard worker) and fold that
  lane's result back into the session.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from time import perf_counter
from typing import Dict, Optional

import numpy as np

from repro.errors import (
    ReproError,
    ServeError,
    SessionStateError,
    StateValidationError,
)
from repro.mpc.budget import SolveBudget
from repro.mpc.controller import MPCController
from repro.mpc.health import SolverHealth
from repro.mpc.ipm import CONTROL_GRADE_KKT, IPMResult
from repro.mpc.qp import QP_METHODS
from repro.serve.policy import FallbackLadder

__all__ = [
    "ACTIVE",
    "DEGRADED",
    "CLOSED",
    "CRASHED",
    "SessionConfig",
    "StepOutcome",
    "ControlSession",
    "apply_qp_method",
]

ACTIVE = "active"
DEGRADED = "degraded"
CLOSED = "closed"
CRASHED = "crashed"


def _health_dict(result: Optional[IPMResult]) -> Optional[Dict[str, object]]:
    health = getattr(result, "health", None)
    return health.to_dict() if isinstance(health, SolverHealth) else None


def apply_qp_method(solver, method: str) -> None:
    """Rebind a scalar solver's inner QP method in place.

    Options are immutable dataclasses, so this swaps the whole options
    object; the solver reads them afresh on every solve.  No-ops on stub
    solvers (no ``options``) and when the method already matches.
    """
    options = getattr(solver, "options", None)
    if options is None or getattr(options.qp, "method", method) == method:
        return
    solver.options = replace(options, qp=replace(options.qp, method=method))


@dataclass(frozen=True)
class SessionConfig:
    """Declarative binding of one session (picklable)."""

    #: Table III benchmark name (resolved via ``repro.robots.registry``)
    robot: str
    #: MPC horizon for this session's transcription
    horizon: int = 8
    #: per-step wall-clock solve budget in seconds (None = unbounded)
    deadline_s: Optional[float] = 0.05
    #: optional per-step SQP / total-QP iteration caps (budget AND-combined)
    max_sqp_iterations: Optional[int] = None
    max_qp_iterations: Optional[int] = None
    #: consecutive fallbacks before the session is marked degraded
    degrade_after: int = 3
    #: KKT residual above which a "successful" solve is treated as divergent
    divergence_kkt: float = 1e6
    #: rung 0 of the degradation policy: a budget-exhausted solve whose KKT
    #: residual is already below this control-grade threshold is *served*
    #: (real-time-iteration style) instead of triggering the fallback
    #: ladder — the Gauss-Newton tail is linear, so a warm fleet hovers
    #: just above the solver's own tolerance without being any worse to
    #: fly.  The same number gates the solver's own control-grade stop.
    accept_kkt: float = CONTROL_GRADE_KKT
    #: override the benchmark's warm-start recommendation (None = keep it)
    warm_start: Optional[bool] = None
    #: inner QP solver for this session's solves: "ipm" (Mehrotra
    #: interior-point, the default) or "admm" (the first-order solver of
    #: :mod:`repro.firstorder` — cached factorization, RTI-friendly
    #: warm-started iterations)
    qp_method: str = "ipm"

    def __post_init__(self):
        if self.qp_method not in QP_METHODS:
            raise ServeError(
                f"qp_method must be one of {QP_METHODS}, got {self.qp_method!r}"
            )

    def budget(self) -> Optional[SolveBudget]:
        if (
            self.deadline_s is None
            and self.max_sqp_iterations is None
            and self.max_qp_iterations is None
        ):
            return None
        return SolveBudget(
            wall_clock=self.deadline_s,
            sqp_iterations=self.max_sqp_iterations,
            qp_iterations=self.max_qp_iterations,
        )


@dataclass
class StepOutcome:
    """Everything one control period produced, for the client and telemetry."""

    session_id: str
    #: the input to apply this period (always finite)
    u: np.ndarray
    #: "ok" | "fallback_shifted" | "fallback_hold" | "crashed" | "restarted"
    status: str
    #: True when ``u`` came from the degradation ladder
    fallback: bool = False
    #: failure cause when not "ok": "deadline" | "solver_error" |
    #: "diverged" | "bad_state" | "worker_died" | "crashed" (None on success)
    reason: Optional[str] = None
    #: wall time of the solve attempt (None when no solve ran, e.g. crash)
    solve_time: Optional[float] = None
    sqp_iterations: int = 0
    qp_iterations: int = 0
    converged: bool = False
    objective: Optional[float] = None
    kkt_residual: Optional[float] = None
    #: session lifecycle state *after* this step
    session_state: str = ACTIVE
    #: this step pushed the session from active into degraded
    degraded_transition: bool = False
    #: consecutive fallbacks after this step (0 on success)
    consecutive_fallbacks: int = 0
    #: served via rung 0: budget exhausted but the iterate was already
    #: control-grade (KKT below the session's ``accept_kkt``)
    partial: bool = False
    #: :meth:`~repro.mpc.health.SolverHealth.to_dict` of the solve's
    #: numerical-health report (None when no solve ran or the solver does
    #: not report health, e.g. injected stubs)
    health: Optional[Dict[str, object]] = None
    #: ADMM subproblems this step's solve handed to the IPM rescue path
    #: (copied out of ``health`` so telemetry can count without digging)
    method_fallbacks: int = 0
    #: this step demoted the session's effective ``qp_method`` to "ipm"
    #: (``degrade_after`` consecutive solves needed the rescue path)
    method_demoted: bool = False

    def to_record(self) -> Dict[str, object]:
        """Flat JSONL-trace representation (drops the input vector)."""
        return {
            "session": self.session_id,
            "status": self.status,
            "fallback": self.fallback,
            "reason": self.reason,
            "solve_time": self.solve_time,
            "sqp_iterations": self.sqp_iterations,
            "qp_iterations": self.qp_iterations,
            "converged": self.converged,
            "partial": self.partial,
            "session_state": self.session_state,
            "consecutive_fallbacks": self.consecutive_fallbacks,
            "method_fallbacks": self.method_fallbacks,
            "method_demoted": self.method_demoted,
            "health": self.health,
        }


class ControlSession:
    """One client's receding-horizon control loop, serving-side."""

    def __init__(
        self,
        session_id: str,
        config: SessionConfig,
        controller: MPCController,
        ref: Optional[np.ndarray] = None,
        hover: Optional[np.ndarray] = None,
    ):
        self.session_id = session_id
        self.config = config
        self.controller = controller
        self.problem = controller.problem
        #: default reference served when the client does not supply one
        self.ref = None if ref is None else np.asarray(ref, dtype=float).copy()
        if self.ref is not None and self.ref.size == 0:
            self.ref = None
        self.ladder = FallbackLadder(self.problem.nu, hover=hover)
        self.state = ACTIVE
        self.steps = 0
        #: effective inner QP method; starts at the configured one and is
        #: demoted to "ipm" when ``degrade_after`` consecutive solves needed
        #: the ADMM->IPM rescue ladder (the configured method is clearly the
        #: wrong tool for this robot).  ``reset``/``restart`` re-promote.
        self.qp_method = config.qp_method
        self._rescue_streak = 0
        if config.warm_start is not None:
            controller.warm_start = config.warm_start

    @classmethod
    def from_benchmark(
        cls,
        session_id: str,
        config: SessionConfig,
        bench=None,
        problem=None,
    ) -> "ControlSession":
        """Build a session from the robot registry (binding by name).

        ``bench``/``problem`` may be supplied to share one transcription
        across many sessions of the same (robot, horizon) — transcription
        compiles the symbolic derivatives and is by far the expensive part.
        """
        from repro.robots import build_benchmark

        if bench is None:
            bench = build_benchmark(config.robot)
        if problem is None:
            problem = bench.transcribe(horizon=config.horizon)
        # Build the fused kernels now (this may invoke the C compiler on a
        # cold artifact store): session construction is off the deadline
        # clock, the first tick is not.
        problem.codegen_kernels()
        controller = bench.make_controller(problem)
        if config.qp_method != "ipm":
            apply_qp_method(controller.solver, config.qp_method)
        return cls(session_id, config, controller, ref=bench.ref)

    # -- lifecycle ------------------------------------------------------------
    @property
    def serving(self) -> bool:
        """True while the session accepts steps (active or degraded)."""
        return self.state in (ACTIVE, DEGRADED)

    def reset(self) -> None:
        """Clear warm starts and the ladder; re-activate a degraded session."""
        self._require_serving("reset")
        self.controller.reset()
        self.ladder.reset()
        self._repromote()
        self.state = ACTIVE

    def close(self) -> None:
        """Terminal: further steps raise :class:`SessionStateError`."""
        if self.state == CRASHED:
            raise SessionStateError(
                f"session {self.session_id!r} crashed; close is a no-op"
            )
        self.controller.reset()
        self.state = CLOSED

    def restart(self) -> StepOutcome:
        """Recover a crashed (or degraded) session: drop all warm state,
        reset the degradation ladder, and return to ``active``.

        This is the operator-facing escape hatch paired with
        :meth:`mark_crashed` — a crash is terminal for the *step loop*, not
        for the session slot.  Only ``closed`` is unrecoverable.
        """
        if self.state == CLOSED:
            raise SessionStateError(
                f"cannot restart closed session {self.session_id!r}"
            )
        self.controller.reset()
        self.ladder.reset()
        self._repromote()
        self.state = ACTIVE
        return StepOutcome(
            session_id=self.session_id,
            u=self.ladder.hover.copy(),
            status="restarted",
            session_state=ACTIVE,
        )

    def _repromote(self) -> None:
        """Restore the configured ``qp_method`` after a demotion (operator
        reset/restart is an explicit vote of confidence in the binding)."""
        self._rescue_streak = 0
        if self.qp_method != self.config.qp_method:
            self.qp_method = self.config.qp_method
            apply_qp_method(self.controller.solver, self.qp_method)

    def fail_step(
        self,
        reason: str,
        solve_time: Optional[float] = None,
        reset_warm: bool = False,
    ) -> StepOutcome:
        """Record an externally-detected failure as one fallback period.

        The engine calls this when the failure happened *outside* the
        session — e.g. a shard worker died mid-solve (``worker_died``).  The
        session pays one rung of the degradation ladder but keeps its warm
        start unless ``reset_warm`` says the iterate is implicated.
        """
        self._require_serving("step")
        if reset_warm:
            self.controller.reset()
        return self._fallback_outcome(reason, solve_time, None)

    def mark_crashed(self) -> StepOutcome:
        """Record an unhandled failure (called by the engine) and emit the
        terminal outcome: hover input, ``crashed`` state."""
        self.state = CRASHED
        return StepOutcome(
            session_id=self.session_id,
            u=self.ladder.hover.copy(),
            status="crashed",
            fallback=False,
            reason="crashed",
            session_state=CRASHED,
            consecutive_fallbacks=self.ladder.consecutive,
        )

    def _require_serving(self, op: str) -> None:
        if not self.serving:
            raise SessionStateError(
                f"cannot {op} session {self.session_id!r} in state {self.state!r}"
            )

    # -- stepping (inline path) -----------------------------------------------
    def step(
        self, x_measured: np.ndarray, ref: Optional[np.ndarray] = None
    ) -> StepOutcome:
        """One control period: budgeted solve, degradation ladder on failure."""
        self._require_serving("step")
        use_ref = self.ref if ref is None else ref
        t0 = perf_counter()
        try:
            u = self.controller.step(
                x_measured, ref=use_ref, budget=self.config.budget()
            )
        except StateValidationError as exc:
            # The *input* was garbage (NaN/Inf measurement or reference);
            # the solve never started, so the warm start is untouched and
            # stays valid for the next clean measurement.
            return self._fallback_outcome(
                "bad_state",
                perf_counter() - t0,
                None,
                health=exc.health.to_dict() if exc.health is not None else None,
            )
        except ReproError:
            # Solver-side failure: the warm start is implicated — drop it so
            # the next attempt starts clean, then serve the ladder.
            self.controller.reset()
            return self._fallback_outcome(
                "solver_error", perf_counter() - t0, None
            )
        return self._classify(u, self.controller.last_result, perf_counter() - t0)

    # -- stepping (group-solve path) -------------------------------------------
    def solve_payload(
        self, x_measured: np.ndarray, ref: Optional[np.ndarray] = None
    ) -> Dict[str, object]:
        """Picklable solve request for a group solve outside the session.

        Carries the session's warm-start state by value; a shard owns no
        session state, so any shard serves any session mix.
        """
        self._require_serving("step")
        c = self.controller
        use_ref = self.ref if ref is None else ref
        return {
            "session_id": self.session_id,
            "robot": self.config.robot,
            "horizon": self.config.horizon,
            "x": np.asarray(x_measured, dtype=float),
            "ref": None if use_ref is None else np.asarray(use_ref, dtype=float),
            "z_warm": c._warm if c.warm_start else None,
            "deadline_s": self.config.deadline_s,
            "max_sqp_iterations": self.config.max_sqp_iterations,
            "max_qp_iterations": self.config.max_qp_iterations,
            # the *effective* method: a demoted session says "ipm" even
            # though its config still says "admm"
            "qp_method": self.qp_method,
        }

    def absorb_result(self, result: IPMResult) -> StepOutcome:
        """Fold an :class:`IPMResult` solved outside the session into it.

        The engine solves a whole session group in one call and scatters
        each lane's result back here: adopt the iterate as the next warm
        start, then run the same classification ladder as an inline
        solve.
        """
        self._require_serving("step")
        u = self.controller.adopt(result)
        return self._classify(u, result, result.solve_time)

    # -- shared outcome logic ---------------------------------------------------
    def _classify(
        self, u: np.ndarray, result: IPMResult, elapsed: float
    ) -> StepOutcome:
        if (
            not np.all(np.isfinite(u))
            or not np.isfinite(result.objective)
            or result.status == "diverged"
        ):
            # A divergent iterate poisons the warm start — drop it too.
            # (A "diverged" status means the solver itself bailed on a
            # poisoned/unfactorizable subproblem even if the returned
            # iterate still prints as finite.)
            self.controller.reset()
            return self._fallback_outcome("diverged", elapsed, result)
        if result.status == "budget_exhausted" and not result.converged:
            # Rung 0: a partial solve that is already control-grade
            # (KKT below ``accept_kkt``) is served as-is.
            if result.kkt_residual > self.config.accept_kkt:
                # Keep the (finite) partial iterate as the next warm start,
                # so real-time-iteration progress accumulates across
                # misses, but *serve* the trusted ladder input.  Checked
                # before the divergence threshold: a truncated solve
                # legitimately reports a huge (or never-evaluated, i.e.
                # infinite) residual without having diverged.
                return self._fallback_outcome("deadline", elapsed, result)
        if result.kkt_residual > self.config.divergence_kkt:
            self.controller.reset()
            return self._fallback_outcome("diverged", elapsed, result)

        self.ladder.record_success(self.problem.split(result.z)[1])
        self.steps += 1
        self.state = ACTIVE  # a good solve recovers a degraded session
        return self._track_method_health(StepOutcome(
            session_id=self.session_id,
            u=u,
            status="ok",
            solve_time=elapsed,
            sqp_iterations=result.iterations,
            qp_iterations=result.qp_iterations,
            converged=result.converged,
            objective=result.objective,
            kkt_residual=result.kkt_residual,
            session_state=self.state,
            partial=result.status == "budget_exhausted" and not result.converged,
            health=_health_dict(result),
        ))

    def _fallback_outcome(
        self,
        reason: str,
        elapsed: Optional[float],
        result: Optional[IPMResult],
        health: Optional[Dict[str, object]] = None,
    ) -> StepOutcome:
        action = self.ladder.fallback()
        self.steps += 1
        transition = False
        if (
            self.state == ACTIVE
            and self.ladder.consecutive >= self.config.degrade_after
        ):
            self.state = DEGRADED
            transition = True
        return self._track_method_health(StepOutcome(
            session_id=self.session_id,
            u=action.input,
            status=action.rung,
            fallback=True,
            reason=reason,
            solve_time=elapsed,
            sqp_iterations=result.iterations if result is not None else 0,
            qp_iterations=result.qp_iterations if result is not None else 0,
            converged=False,
            objective=result.objective if result is not None else None,
            kkt_residual=result.kkt_residual if result is not None else None,
            session_state=self.state,
            degraded_transition=transition,
            consecutive_fallbacks=self.ladder.consecutive,
            health=health if health is not None else _health_dict(result),
        ))

    def _track_method_health(self, outcome: StepOutcome) -> StepOutcome:
        """Fold the solve's rescue count into the outcome and run the
        method-demotion ladder.

        ``degrade_after`` *consecutive* solves that each needed at least one
        ADMM->IPM rescue demote the session's effective ``qp_method`` to
        "ipm" — every subproblem is already paying for both solvers, so the
        first-order attempt is pure overhead.  Any rescue-free solve resets
        the streak.  The solver-internal ADMM warm state is dropped on
        demotion (warm-start hygiene across the method switch).
        """
        if outcome.health:
            outcome.method_fallbacks = int(
                outcome.health.get("method_fallbacks", 0) or 0
            )
        if self.qp_method != "admm":
            return outcome
        if outcome.method_fallbacks > 0:
            self._rescue_streak += 1
            if self._rescue_streak >= self.config.degrade_after:
                self.qp_method = "ipm"
                apply_qp_method(self.controller.solver, "ipm")
                reset_warm = getattr(
                    self.controller.solver, "reset_qp_warm", None
                )
                if callable(reset_warm):
                    reset_warm()
                self._rescue_streak = 0
                outcome.method_demoted = True
        else:
            self._rescue_streak = 0
        return outcome

    def solver_stats(self) -> Dict[str, float]:
        """The wrapped solver's cumulative per-phase stats (may be empty
        for injected stub solvers)."""
        return dict(getattr(self.controller.solver, "stats", {}) or {})
