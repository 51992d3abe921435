"""Closed-loop MPC controller and plant simulation.

Ties the pieces together the way RoboX runs at deployment (§III): at every
control step the accelerator (here: the solver) receives the current state
measurement and any task references, solves the constrained optimization
problem, and the *first* control input of the optimal trajectory is applied
to the robot.  The remainder of the solution is shifted and reused as the
next warm start — the standard receding-horizon loop.

``simulate`` provides the ground-truth plant: the continuous dynamics
integrated with RK4 at a finer step than the controller, so closed-loop tests
exercise model mismatch between transcription and plant.  Offline runs carry
the same observability the serving layer (:mod:`repro.serve`) exposes: the
log records per-step solve wall time and whether the step was served by a
fallback instead of a fresh solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, List, Optional

import numpy as np

from repro.errors import SolverError, StateValidationError
from repro.mpc.budget import SolveBudget
from repro.mpc.ipm import InteriorPointSolver, IPMResult
from repro.mpc.transcription import TranscribedProblem
from repro.symbolic import compile_function

__all__ = [
    "MPCController",
    "ClosedLoopLog",
    "PlantIntegrator",
    "integrate_plant",
]


@dataclass
class ClosedLoopLog:
    """Trajectory log of a closed-loop run."""

    states: np.ndarray  # (steps + 1, nx)
    inputs: np.ndarray  # (steps, nu)
    objectives: List[float] = field(default_factory=list)
    solver_iterations: List[int] = field(default_factory=list)
    converged: List[bool] = field(default_factory=list)
    #: per-step solve wall time in seconds (measured around the full
    #: controller step, matching the serving layer's latency metric)
    solve_times: List[float] = field(default_factory=list)
    #: per-step fallback flag: True when the applied input came from the
    #: degradation ladder (shifted previous plan / hold) rather than a
    #: fresh solve — always False unless ``simulate(..., fallback=True)``
    fallbacks: List[bool] = field(default_factory=list)
    #: per-step fallback cause (None on non-fallback steps): "solver_error",
    #: "bad_state", "deadline", or "non_finite" — so downstream telemetry
    #: can distinguish "no objective recorded" from numerical poison when a
    #: fallback step carries a NaN objective
    fallback_reasons: List[Optional[str]] = field(default_factory=list)

    @property
    def steps(self) -> int:
        return self.inputs.shape[0]

    @property
    def fallback_count(self) -> int:
        return sum(self.fallbacks)


class MPCController:
    """Receding-horizon controller around an :class:`InteriorPointSolver`."""

    def __init__(self, solver: InteriorPointSolver, warm_start: bool = True):
        self.solver = solver
        #: when False, every step solves from the cold-start guess — for
        #: plants whose shifted previous solution is a worse basin than a
        #: fresh rollout (see RobotBenchmark.warm_start)
        self.warm_start = warm_start
        self.problem: TranscribedProblem = solver.problem
        self._warm: Optional[np.ndarray] = None
        self.last_result: Optional[IPMResult] = None
        #: wall time of the most recent solve (seconds; None before any step)
        self.last_solve_time: Optional[float] = None
        #: :mod:`repro.faults` injection hooks (all ``None`` in production).
        #: ``state_fault_hook(x) -> x`` corrupts the measurement before the
        #: solve (sensor faults); ``input_fault_hook(u) -> u`` corrupts the
        #: applied input after it (actuator faults); ``budget_fault_hook(b)
        #: -> b`` replaces the per-step budget (compute starvation).
        self.state_fault_hook: Optional[Callable[[np.ndarray], np.ndarray]] = None
        self.input_fault_hook: Optional[Callable[[np.ndarray], np.ndarray]] = None
        self.budget_fault_hook: Optional[
            Callable[[Optional[SolveBudget]], Optional[SolveBudget]]
        ] = None

    def reset(self) -> None:
        """Drop *all* warm-start and last-solve state.

        Every per-solve attribute is cleared (warm trajectory, the cached
        result and its timing) so a reset controller is indistinguishable
        from a freshly constructed one — the serving layer relies on this
        after divergence/solver errors.
        """
        self._warm = None
        self.last_result = None
        self.last_solve_time = None
        # Solver-internal warm state (e.g. the ADMM iterate triple) lives
        # on the solver itself — clear it too so a reset is a true cold
        # start regardless of the selected QP method.
        reset_qp_warm = getattr(self.solver, "reset_qp_warm", None)
        if callable(reset_qp_warm):
            reset_qp_warm()

    def step(
        self,
        x_measured: np.ndarray,
        ref: Optional[np.ndarray] = None,
        budget: Optional[SolveBudget] = None,
    ) -> np.ndarray:
        """Solve for the current state and return the first control input.

        ``budget`` bounds the solve (see :class:`SolveBudget`); a budgeted
        step never raises on deadline exhaustion — inspect
        ``last_result.status`` to distinguish a converged solve from a
        partial (``"budget_exhausted"``) one.  A non-finite measurement is
        rejected with a :class:`~repro.errors.StateValidationError` before
        the solve starts; the warm-start state is left untouched (the
        measurement, not the warm start, is implicated).
        """
        x_measured = np.asarray(x_measured, dtype=float)
        if self.state_fault_hook is not None:
            x_measured = np.asarray(self.state_fault_hook(x_measured), dtype=float)
        if self.budget_fault_hook is not None:
            budget = self.budget_fault_hook(budget)
        if not self.warm_start:
            self._warm = None
        result = self.solver.solve(
            x_measured, ref=ref, z_warm=self._warm, budget=budget
        )
        u = self.adopt(result)
        if self.input_fault_hook is not None:
            u = np.asarray(self.input_fault_hook(u), dtype=float)
        return u

    def adopt(self, result: IPMResult) -> np.ndarray:
        """Install a solve result as this controller's latest step.

        Updates the warm-start state exactly like :meth:`step` and returns
        the first control input.  Used directly by the serving engine's
        worker-pool path, where the solve itself ran in another process and
        only the (picklable) result comes back.
        """
        self.last_result = result
        self.last_solve_time = result.solve_time
        xs, us = self.problem.split(result.z)
        if np.all(np.isfinite(result.z)):
            self._warm = self._shift(xs, us)
        else:
            # A contaminated iterate must not become the next RTI warm
            # start — drop the warm state so the next step re-seeds cold.
            self._warm = None
        return us[0].copy()

    def _shift(self, xs: np.ndarray, us: np.ndarray) -> np.ndarray:
        """One-step-shifted warm start: drop knot 0, duplicate the last knot."""
        xs_next = np.vstack([xs[1:], xs[-1]])
        us_next = np.vstack([us[1:], us[-1]]) if us.shape[0] > 1 else us.copy()
        return self.problem.join(xs_next, us_next)

    def simulate(
        self,
        x0: np.ndarray,
        steps: int,
        ref: Optional[np.ndarray] = None,
        ref_fn: Optional[Callable[[int], np.ndarray]] = None,
        disturbance: Optional[Callable[[int, np.ndarray], np.ndarray]] = None,
        substeps: int = 4,
        budget: Optional[SolveBudget] = None,
        fallback: bool = False,
    ) -> ClosedLoopLog:
        """Run the controller against the continuous plant for ``steps`` steps.

        Args:
            x0: initial plant state.
            steps: number of control intervals to simulate.
            ref: constant reference values (if the task uses references).
            ref_fn: per-step reference callback overriding ``ref`` — receives
                the step index, returns the reference vector for that solve.
            disturbance: optional additive state disturbance applied after
                each plant step: ``x <- x + disturbance(k, x)``.
            substeps: RK4 sub-steps per control interval for the plant.
            budget: optional per-step :class:`SolveBudget` (deadline and/or
                iteration caps) applied to every solve.
            fallback: when True, a failed step (solver error, deadline miss
                without convergence, non-finite result) is served from the
                same degradation ladder the serving layer uses — shifted
                previous plan, then hold — instead of raising; the log's
                ``fallbacks`` flags mark those steps.
        """
        p = self.problem
        x = np.asarray(x0, dtype=float).copy()
        states = [x.copy()]
        inputs = []
        log = ClosedLoopLog(states=np.zeros(0), inputs=np.zeros(0))

        ladder = None
        if fallback:
            # Imported lazily: repro.serve depends on repro.mpc, so the
            # shared ladder implementation cannot be a module-level import.
            from repro.serve.policy import FallbackLadder

            ladder = FallbackLadder(p.nu)

        plant = PlantIntegrator(p)
        for k in range(steps):
            step_ref = ref_fn(k) if ref_fn is not None else ref
            t0 = perf_counter()
            used_fallback = False
            reason: Optional[str] = None
            try:
                u = self.step(x, ref=step_ref, budget=budget)
                result = self.last_result
                if not np.all(np.isfinite(u)) or result.status == "diverged":
                    reason = "non_finite"
                elif result.status == "budget_exhausted" and not result.converged:
                    reason = "deadline"
                if ladder is not None and reason is not None:
                    u = ladder.fallback().input
                    used_fallback = True
                    if not np.all(np.isfinite(u)):  # poisoned plan
                        u = ladder.hover.copy()
                elif ladder is not None:
                    reason = None
                    ladder.record_success(p.split(result.z)[1])
                else:
                    reason = None
                log.objectives.append(result.objective)
                log.solver_iterations.append(result.iterations)
                log.converged.append(result.converged)
            except StateValidationError:
                # The measurement (e.g. an injected sensor fault), not the
                # warm start, is implicated — keep the warm state.
                if ladder is None:
                    raise
                u = ladder.fallback().input
                used_fallback = True
                reason = "bad_state"
                log.objectives.append(float("nan"))
                log.solver_iterations.append(0)
                log.converged.append(False)
            except SolverError:
                if ladder is None:
                    raise
                u = ladder.fallback().input
                used_fallback = True
                reason = "solver_error"
                self.reset()  # the warm start is implicated in the failure
                log.objectives.append(float("nan"))
                log.solver_iterations.append(0)
                log.converged.append(False)
            log.solve_times.append(perf_counter() - t0)
            log.fallbacks.append(used_fallback)
            log.fallback_reasons.append(reason if used_fallback else None)
            x = plant.advance(x, u, p.dt, substeps)
            if disturbance is not None:
                x = x + np.asarray(disturbance(k, x), dtype=float)
            states.append(x.copy())
            inputs.append(u)

        log.states = np.array(states)
        log.inputs = np.array(inputs)
        return log


class PlantIntegrator:
    """Ground-truth RK4 integrator of the *continuous* robot dynamics.

    Compiling the dynamics is the expensive part — build one integrator per
    problem and reuse it across steps (the serving layer keeps one per
    robot/horizon binding); :func:`integrate_plant` is the one-shot
    convenience wrapper.
    """

    def __init__(self, problem: TranscribedProblem):
        model = problem.model
        exprs = list(model.dynamics_exprs)
        variables = list(model.state_vars) + list(model.input_vars)
        self._f = compile_function(exprs, variables, "plant_dynamics")
        self._nx = model.n_states

    def advance(
        self, x: np.ndarray, u: np.ndarray, dt: float, substeps: int
    ) -> np.ndarray:
        if substeps < 1:
            raise SolverError("substeps must be >= 1")
        h = dt / substeps
        state = np.asarray(x, dtype=float).copy()
        for _ in range(substeps):
            k1 = self._f(np.concatenate([state, u]))
            k2 = self._f(np.concatenate([state + 0.5 * h * k1, u]))
            k3 = self._f(np.concatenate([state + 0.5 * h * k2, u]))
            k4 = self._f(np.concatenate([state + h * k3, u]))
            state = state + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        return state


def integrate_plant(
    problem: TranscribedProblem,
    x: np.ndarray,
    u: np.ndarray,
    dt: Optional[float] = None,
    substeps: int = 4,
) -> np.ndarray:
    """One plant step with the continuous dynamics (public convenience)."""
    integ = PlantIntegrator(problem)
    return integ.advance(x, u, dt if dt is not None else problem.dt, substeps)
