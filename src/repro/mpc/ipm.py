"""Nonlinear MPC solver: Gauss-Newton SQP around a primal-dual interior point.

This mirrors the solver stack the paper builds on.  The paper's CPU baseline
is ACADO generating an SQP-type algorithm around the HPMPC *interior-point*
QP solver (§VIII-A), and "for a fair comparison, we use the same solver
algorithm in RoboX".  Concretely, each control step runs:

1. **Linearize** the transcribed problem at the current trajectory iterate:
   exact objective gradient, Gauss-Newton (PSD) objective Hessian, dynamics /
   constraint Jacobians — all produced by symbolic autodiff.
2. **Solve the QP subproblem** (Eq. 6's Newton system, iterated to the QP's
   central path) with :func:`repro.mpc.qp.solve_qp` — Mehrotra predictor-
   corrector over Cholesky + forward/backward substitution, the one-lane
   call of the lockstep loop :func:`repro.batch.qp.solve_qp_batch`.
3. **Globalize** with a backtracking line search on an L1 exact-penalty merit
   function, then repeat until the nonlinear KKT conditions hold.

The result reports both SQP (outer) and IPM (inner) iteration counts; the
benchmark harness uses the totals when reproducing the paper's timing
experiments.

That iteration is written once, with a lane axis, in
:func:`repro.batch.ipm.solve_lanes`; :class:`InteriorPointSolver` is its
``B = 1`` host lane: it validates the caller's input, stacks one lane,
hands the driver the problem's own evaluation methods and
:func:`~repro.mpc.qp.solve_qp` lane by lane as the QP step, and unwraps
lane 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import List, Optional

import numpy as np

from repro.errors import SolverError, StateValidationError
from repro.linearize import normalize_ref
from repro.mpc.budget import SolveBudget
from repro.mpc.health import SolverHealth, nonfinite_indices
from repro.mpc.linalg import cholesky
from repro.mpc.qp import QPOptions, QPStats, solve_qp
from repro.mpc.transcription import TranscribedProblem

__all__ = [
    "CONTROL_GRADE_KKT",
    "IPMOptions",
    "IPMResult",
    "InteriorPointSolver",
]

#: KKT residual (scaled max-norm) at which a plan is control-grade: the
#: solver may stop on a settled served input below it
#: (:attr:`IPMOptions.input_tolerance`), and a serve session may serve a
#: budget-exhausted plan below it
#: (:attr:`repro.serve.session.SessionConfig.accept_kkt`).
CONTROL_GRADE_KKT = 1e-2


@dataclass
class IPMOptions:
    """Tunable parameters of the SQP + interior-point solver.

    A solve stops ``"converged"`` on either of two tests.  The KKT test:
    the nonlinear KKT residual at the current linearization is below
    ``tolerance``.  The control-grade test (off when ``input_tolerance`` is
    ``None``): after an SQP iteration whose step was full (``alpha = 1``,
    neither clipped by ``step_clip`` nor backtracked) or, on an
    interior-point QP, rejected outright by the line search (the lane would
    re-solve the same subproblem until its cap), whose QP converged, whose
    linearization's KKT residual is at most :data:`CONTROL_GRADE_KKT`, and
    whose scaled move of the served input ``max |d[u_0] / scale[u_0]|`` is
    at most ``input_tolerance``.  A
    receding-horizon controller applies only ``u_0`` and refines the rest of
    the plan on the following ticks (real-time iteration), so iterating the
    tail of the plan to ``tolerance`` buys nothing the plant sees.  A lane
    stopped this way reports the KKT residual measured before its last step
    and the health note ``input_settled_it{k}``.
    """

    #: maximum outer (SQP) iterations
    max_iterations: int = 60
    #: nonlinear KKT tolerance (scaled max-norm); the Gauss-Newton tail
    #: converges linearly, so a tight value costs many SQP iterations
    #: (meta-parameter in the DSL, per the paper)
    tolerance: float = 1e-4
    #: control-grade stop on the served input's scaled step (see the class
    #: docstring); ``None`` turns the test off (oracles, tight references)
    input_tolerance: Optional[float] = 1e-3
    #: inner QP settings
    qp: QPOptions = field(default_factory=QPOptions)
    #: Armijo sufficient-decrease coefficient for the merit line search
    armijo: float = 1e-4
    #: maximum line-search halvings
    max_backtracks: int = 20
    #: non-monotone window: a step is accepted against the maximum merit of
    #: the last ``watchdog`` iterations (breaks Maratos-effect cycling)
    watchdog: int = 6
    #: trust-region-style cap on the scaled step max-norm: the line search
    #: starts at alpha = min(1, step_clip / ||d/scale||_inf), preventing a
    #: single linearization from being extrapolated far outside its validity
    #: region (e.g. the linear-tire regime of the vehicle model)
    step_clip: float = 2.0
    #: L1 exact-penalty parameter floor (raised adaptively above multipliers)
    penalty_init: float = 1.0
    #: Levenberg regularization added to the Gauss-Newton Hessian
    regularization: float = 1e-8
    #: Hessian model: "gauss_newton" (PSD, robust far from the solution),
    #: "exact" (objective + dynamics-curvature contraction; quadratic local
    #: convergence, relies on QP inertia correction), or "hybrid" (GN until
    #: the KKT residual falls below ``hybrid_switch``, then exact, except
    #: for the subproblem after a step the line search rejected outright)
    hessian: str = "gauss_newton"
    #: KKT threshold at which "hybrid" switches from GN to the exact Hessian
    hybrid_switch: float = 1.0
    #: L1 weight of the QP slacks on softened (state) constraint rows; also
    #: the exact-penalty weight those rows carry in the merit function
    soft_penalty: float = 1e4
    #: small quadratic slack regularization keeping the extended QP strictly convex
    soft_quadratic: float = 1e-2
    #: route QP factorizations through the stage-permuted banded kernels
    #: whenever the transcription provides the structure (``move_block == 1``);
    #: set ``False`` to force the dense path (reference / benchmarks)
    banded: bool = True

    def __post_init__(self):
        if self.max_iterations < 1:
            raise SolverError("max_iterations must be >= 1")
        if not 0 < self.armijo < 1:
            raise SolverError("armijo must lie in (0, 1)")


@dataclass
class IPMResult:
    """Outcome of one MPC solve."""

    z: np.ndarray
    converged: bool
    #: outer SQP iterations taken
    iterations: int
    #: total inner interior-point iterations across all QP subproblems
    qp_iterations: int
    objective: float
    #: max-norm of the nonlinear KKT residual at exit (after a
    #: control-grade stop: at the linearization before the last step)
    kkt_residual: float
    #: per-outer-iteration KKT residuals (diagnostics / tests)
    residual_history: List[float] = field(default_factory=list)
    #: equality multipliers at exit
    nu: Optional[np.ndarray] = None
    #: inequality multipliers at exit
    lam: Optional[np.ndarray] = None
    #: how the solve ended: ``"converged"`` (the KKT test, or the
    #: control-grade stop, noted ``input_settled_it{k}``),
    #: ``"max_iterations"``,
    #: ``"budget_exhausted"`` (a :class:`~repro.mpc.budget.SolveBudget`
    #: limit fired before convergence — the iterate is the best partial
    #: result, usable for real-time-iteration warm starting), or
    #: ``"diverged"`` (the iteration produced numerical poison and stopped
    #: on the last finite iterate — do not trust the solution)
    status: str = "max_iterations"
    #: total wall-clock seconds spent inside :meth:`InteriorPointSolver.solve`
    solve_time: float = 0.0
    #: numerical-health record of this solve (validation outcomes, rejected
    #: steps, factorization-retry pressure); ``None`` only for results built
    #: by stubs/legacy callers
    health: Optional[SolverHealth] = None

    def trajectories(self, problem: TranscribedProblem):
        """Split the solution into state and input trajectories."""
        return problem.split(self.z)


def _lanes():
    """The lane driver module.  Imported on first use: it builds this
    module's :class:`IPMResult`, so the edge cannot exist at import time."""
    from repro.batch import ipm

    return ipm


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
    what those do for a single solve holds per lane: ``move_block > 1``,
    the run-time drop from a failing fused kernel to the interpreted
    provider, and bits that do not depend on the batch-mates."""

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
        self.stats = _lanes().new_stats()
        #: optional :mod:`repro.faults` solver-layer injector, threaded into
        #: every QP factorization (``None`` in production)
        self.fault_hook: Optional[object] = None
        #: ADMM solver-internal warm state (iterate triple + adapted rho)
        #: carried across QP subproblems and MPC ticks when
        #: ``options.qp.method == "admm"``; the ADMM path validates
        #: finiteness itself, so stale state degrades to a cold start.
        self._qp_warm: Optional[dict] = None
        self._layout = _lanes().LaneLayout(problem, self.options.banded)
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
        permutation applied (``None`` on the dense fallback) — scatter
        the solution back with ``x[qperm] = x_solved``.

        ``z_warm`` optionally supplies the linearization trajectory (shape
        ``(nz,)``, finite); the conformance harness uses it to probe
        linearizations away from the cold-start guess.
        """
        p, opt, lanes = self.problem, self.options, _lanes()
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
        (result,), _ = self._solve_lanes(
            x_init[None],
            normalize_ref(self.problem, ref, 1, _lanes().HOST),
            [z_warm],
            [budget],
            admm_warm=warm,
        )
        (self._qp_warm,) = warm
        result.solve_time = perf_counter() - t_solve
        return result

    def _solve_lanes(self, X0, R, z_warm, budgets, admm_warm=None):
        """The lane driver over ``B`` validated states with this solver's
        linearizer, QP step, options and fault hook; :meth:`solve` is its
        ``B = 1`` call.  Returns ``(results, report)``."""
        return _lanes().solve_lanes(
            self.problem, self.options, self._lin, self._layout,
            self._qp_step, self.stats,
            X0, R, z_warm, budgets,
            qp_method=self.options.qp.method,
            fault_hooks=None
            if self.fault_hook is None
            else [self.fault_hook] * len(X0),
            admm_warm=admm_warm,
        )

    def _qp_step(self, args, bandwidth, deadline, caps, hooks, warm):
        """The host lane's QP step: :func:`~repro.mpc.qp.solve_qp` (the
        Mehrotra loop at one lane), lane by lane.  The loop reads one
        structure envelope per call, so a lane stacked with others (an
        exact-Hessian lane's ``H`` has its own pattern) would take its
        mates' structure, and a lane alone must equal the same lane among
        several.  A lane whose QP cannot even be factorized (poisoned
        linearization, or the retry ladder exhausted) comes back
        ``"failed"`` instead of raising.  Matrices are handed over in one
        memory layout (``H`` row-major, ``G`` / ``J`` column-major — what
        the column permutation yields for a single lane): BLAS sums in a
        layout-dependent order, so without it a lane's bits would depend on
        how many lanes were stacked with it.  A ``carried`` lane of
        ``warm`` starts from its rows (``solve_qp``'s IPM ``warm``)."""
        from repro.batch.qp import BatchQPResult, BatchQPStats

        H, g, G, b, J, d = args
        k = len(g)
        lam = np.zeros((k, 0)) if d is None else np.zeros_like(d)
        out = BatchQPResult(
            x=np.zeros_like(g),
            nu=np.zeros_like(b),
            lam=lam,
            slacks=lam.copy(),
            converged=np.zeros(k, dtype=bool),
            iterations=np.zeros(k, dtype=int),
            residual=np.full(k, np.inf),
            status=["failed"] * k,
            budget_exhausted=np.zeros(k, dtype=bool),
            gap_history=[[] for _ in range(k)],
            stats=[QPStats() for _ in range(k)],
            batch=BatchQPStats(),
        )
        for i in range(k):
            try:
                res = solve_qp(
                    np.ascontiguousarray(H[i]),
                    g[i],
                    np.asfortranarray(G[i]),
                    b[i],
                    None if J is None else np.asfortranarray(J[i]),
                    None if d is None else d[i],
                    replace(
                        self.options.qp,
                        method="ipm",
                        max_iterations=int(caps[i]),
                    ),
                    bandwidth=bandwidth,
                    deadline=deadline,
                    fault_hook=hooks and hooks[i],
                    warm=None
                    if warm is None or not warm["carried"][i]
                    else {"nu": warm["nu"][i], "lam": warm["lam"][i]},
                )
            except SolverError:
                continue
            out.x[i], out.nu[i], out.lam[i] = res.x, res.nu, res.lam
            out.slacks[i], out.residual[i] = res.slacks, res.residual
            out.converged[i], out.iterations[i] = res.converged, res.iterations
            out.budget_exhausted[i] = res.budget_exhausted
            out.status[i] = "converged" if res.converged else "max_iterations"
            out.stats[i], out.gap_history[i] = res.stats, res.gap_history
        rounds = int(out.iterations.max(initial=0))
        out.batch = BatchQPStats(rounds, int(out.iterations.sum()), k * rounds)
        return out


def _convexify(H: np.ndarray) -> np.ndarray:
    """Smallest diagonal shift (geometric ladder) making ``H`` factorizable.

    IPOPT-style inertia correction: an indefinite exact Lagrangian Hessian is
    shifted by ``delta I`` with ``delta`` escalating x10 until the from-scratch
    Cholesky succeeds, so the QP subproblem is strictly convex and *fixed*.
    """
    try:
        cholesky(H, reg=0.0)
        return H
    except SolverError:
        pass
    base = max(1e-8, 1e-10 * float(np.max(np.abs(H))))
    delta = base
    for _ in range(24):
        shifted = H.copy()
        shifted[np.diag_indices_from(shifted)] += delta
        try:
            cholesky(shifted, reg=0.0)
            return shifted
        except SolverError:
            delta *= 10.0
    raise SolverError("Hessian could not be convexified")
