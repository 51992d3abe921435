"""Nonlinear MPC solver: Gauss-Newton SQP around a primal-dual interior point.

This mirrors the solver stack the paper builds on.  The paper's CPU baseline
is ACADO generating an SQP-type algorithm around the HPMPC *interior-point*
QP solver (§VIII-A), and "for a fair comparison, we use the same solver
algorithm in RoboX".  Concretely, each control step runs:

1. **Linearize** the transcribed problem at the current trajectory iterate:
   exact objective gradient, Gauss-Newton (PSD) objective Hessian, dynamics /
   constraint Jacobians — all produced by symbolic autodiff.
2. **Solve the QP subproblem** (Eq. 6's Newton system, iterated to the QP's
   central path) with the lockstep loop :func:`repro.batch.qp.
   solve_qp_batch` at one lane — Mehrotra predictor-corrector over
   Cholesky + forward/backward substitution.
3. **Globalize** with a backtracking line search on an L1 exact-penalty merit
   function, then repeat until the nonlinear KKT conditions hold.

The result reports both SQP (outer) and IPM (inner) iteration counts; the
benchmark harness uses the totals when reproducing the paper's timing
experiments.

That iteration is written once, with a lane axis, in
:func:`repro.batch.ipm.solve_lanes`; :class:`InteriorPointSolver` is its
``B = 1`` host lane: it validates the caller's input, stacks one lane,
hands the driver the problem's own evaluation methods, and unwraps lane
0.  The driver takes every QP step itself, through
:func:`repro.batch.qp.solve_qp_batch` at one lane.  Its options and
result (:class:`~repro.batch.contract.IPMOptions`,
:class:`~repro.batch.contract.IPMResult`) are the solver contract of
:mod:`repro.batch.contract`.
"""

from __future__ import annotations

from time import perf_counter
from typing import Optional

import numpy as np

from repro.batch import ipm as lanes
from repro.batch.contract import (
    IPMOptions,
    IPMResult,
    SolveBudget,
    SolverHealth,
    nonfinite_indices,
)
from repro.errors import SolverError, StateValidationError
from repro.linearize import normalize_ref
from repro.mpc.transcription import TranscribedProblem

__all__ = ["InteriorPointSolver"]


def _per_lane(name: str):
    def method(self, Z, *stacks):
        fn = getattr(self.problem, name)
        return np.stack(
            [
                fn(z, *(None if s is None else s[lane] for s in stacks))
                for lane, z in enumerate(Z)
            ]
        )

    return method


class _ProblemLanes:
    """A problem's own evaluation methods behind a lane axis — the
    linearizer :class:`InteriorPointSolver` hands the lane driver.  Each
    lane is one call of the public :class:`TranscribedProblem` method, so
    what those do for a single solve holds per lane: the run-time drop
    from a failing fused kernel to the interpreted provider, and bits that
    do not depend on the batch-mates."""

    def __init__(self, problem: TranscribedProblem) -> None:
        self.problem = problem

    @property
    def codegen_stats(self):
        return self.problem.codegen_stats()

    initial_guess = _per_lane("initial_guess")
    objective = _per_lane("objective")
    objective_gradient = _per_lane("objective_gradient")
    objective_gauss_newton = _per_lane("objective_gauss_newton")
    equality_constraints = _per_lane("equality_constraints")
    equality_jacobian = _per_lane("equality_jacobian")
    inequality_constraints = _per_lane("inequality_constraints")
    inequality_jacobian = _per_lane("inequality_jacobian")


class InteriorPointSolver:
    """SQP + primal-dual IPM over a :class:`TranscribedProblem`."""

    def __init__(
        self, problem: TranscribedProblem, options: Optional[IPMOptions] = None
    ):
        self.problem = problem
        self.options = options or IPMOptions()
        #: cumulative statistics across solves (see
        #: :func:`repro.batch.ipm.new_stats`)
        self.stats = lanes.new_stats()
        #: optional :mod:`repro.faults` solver-layer injector, threaded into
        #: every QP factorization (``None`` in production)
        self.fault_hook: Optional[object] = None
        #: ADMM solver-internal warm state (iterate triple + adapted rho)
        #: carried across QP subproblems and MPC ticks when
        #: ``options.qp.method == "admm"``; the ADMM path validates
        #: finiteness itself, so stale state degrades to a cold start.
        self._qp_warm: Optional[dict] = None
        self._layout = lanes.LaneLayout(problem)
        self._lin = _ProblemLanes(problem)

    def reset_qp_warm(self) -> None:
        """Drop solver-internal QP warm state (ADMM iterates/rho).

        Called by :meth:`repro.mpc.controller.MPCController.reset` so a
        session reset is a true cold start for every solver method.
        """
        self._qp_warm = None

    def first_qp_subproblem(self, x_init, ref=None, z_warm=None):
        """QP data of the cold-start (first) SQP subproblem.

        Linearizes exactly like the first iteration of :meth:`solve`
        (Gauss-Newton Hessian unless ``hessian == "exact"``, Levenberg
        damping at its initial value) and returns ``(qp_args, qperm)``:
        the ``(H, g, G, b, J, d, bandwidth)`` tuple the banded-vs-dense
        benchmark and the equivalence tests feed to
        :func:`repro.mpc.qp.solve_qp`, and the stage-interleaved
        permutation applied — scatter the solution back with
        ``x[qperm] = x_solved``.

        ``z_warm`` optionally supplies the linearization trajectory (shape
        ``(nz,)``, finite); the conformance harness uses it to probe
        linearizations away from the cold-start guess.
        """
        p, opt = self.problem, self.options
        x_init = np.asarray(x_init, dtype=float)
        if z_warm is not None:
            z = np.array(z_warm, dtype=float)
            if z.shape != (p.nz,) or not np.all(np.isfinite(z)):
                raise SolverError(
                    f"z_warm must be a finite ({p.nz},) trajectory"
                )
        else:
            z = p.initial_guess(x_init)
        z[p.state_slice(0)] = x_init
        if ref is not None:
            ref = np.asarray(ref, dtype=float)
        (_, _, g_eq, _, h), scaled = lanes.linearize_lanes(
            lanes.HOST, p, opt, self._lin, self._layout,
            z[None], x_init[None], normalize_ref(p, ref, 1, lanes.HOST),
            np.zeros((1, p.n_eq)),
            np.array([opt.regularization]),
            np.array([opt.hessian == "exact"]),
        )
        args = lanes.subproblem_lanes(
            lanes.HOST, opt, self._layout, *scaled, g_eq, h
        )
        return (
            tuple(None if a is None else a[0] for a in args)
            + (self._layout.bandwidth,),
            self._layout.qperm,
        )

    # -------------------------------------------------------------------------
    def solve(
        self,
        x_init: np.ndarray,
        ref: Optional[np.ndarray] = None,
        z_warm: Optional[np.ndarray] = None,
        budget: Optional[SolveBudget] = None,
    ) -> IPMResult:
        """Solve the MPC problem from the measured state ``x_init``.

        Args:
            x_init: current robot state (length ``nx``).
            ref: reference values required by the task (constant vector of
                length ``n_ref`` or per-knot array ``(N+1, n_ref)``).
            z_warm: optional warm-start trajectory (the previous solution
                shifted by one step, supplied by the controller).  The
                multipliers always start at zero.
            budget: optional per-solve compute allowance (wall clock and/or
                iteration caps).  A budgeted solve stops at the first
                checkpoint past the limit — overrun bounded by one
                linearization plus one QP iteration — and reports
                ``status == "budget_exhausted"`` with the best partial
                iterate instead of raising.
        """
        t_solve = perf_counter()
        x_init = np.asarray(x_init, dtype=float)
        if not np.all(np.isfinite(x_init)):
            # Structured rejection: a NaN/Inf measurement must never reach
            # the linearization — report exactly what was poisoned and let
            # the caller's degradation policy decide what to serve.
            bad = nonfinite_indices(x_init)
            health = SolverHealth(state_finite=False)
            health.note(f"nonfinite_state{bad}")
            raise StateValidationError(
                f"measured state contains non-finite entries at indices {bad}",
                health=health,
            )
        if ref is not None:
            ref = np.asarray(ref, dtype=float)
            if not np.all(np.isfinite(ref)):
                health = SolverHealth(state_finite=False)
                health.note("nonfinite_reference")
                raise StateValidationError(
                    "reference contains non-finite entries", health=health
                )

        warm = [self._qp_warm]
        (result,), _ = lanes.solve_lanes(
            self.problem, self.options, self._lin, self._layout, self.stats,
            x_init[None],
            normalize_ref(self.problem, ref, 1, lanes.HOST),
            [z_warm],
            [budget],
            fault_hooks=None if self.fault_hook is None else [self.fault_hook],
            admm_warm=warm,
        )
        (self._qp_warm,) = warm
        result.solve_time = perf_counter() - t_solve
        return result
