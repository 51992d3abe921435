"""The solver contract: what a caller hands the solver core and gets back.

The core (:mod:`repro.batch` and :mod:`repro.firstorder`) solves every
problem as a stack of lanes; the one-lane facades of :mod:`repro.mpc`
(:func:`repro.mpc.qp.solve_qp`, :class:`repro.mpc.ipm.InteriorPointSolver`)
and the serving layer speak to it in the types defined here, once:

* :class:`QPOptions` / :class:`QPStats` / :class:`QPResult` /
  :class:`ConditioningReport` — one QP solve, interior-point or ADMM
  (:data:`QP_METHODS`);
* :class:`IPMOptions` / :class:`IPMResult` — one SQP solve;
* :class:`SolveBudget` / :class:`BudgetClock` — a per-solve compute
  allowance.  An online controller must return *some* input every control
  period (RoboX deploys the solver under a hard per-step budget, §III): an
  optional wall-clock allowance plus optional outer (SQP) and inner (QP)
  iteration caps, polled at the solver's natural checkpoints (SQP
  iteration tops, QP iteration tops, post-QP before the line search).  A
  solve stops at the first checkpoint past the budget — overrun at most
  one linearization plus one QP iteration — and reports
  ``status == "budget_exhausted"``; what to serve then is the caller's
  policy (:mod:`repro.serve.policy`);
* :class:`SolverHealth` — what a solve validated, rejected and how hard
  its factorization retry ladder worked, so telemetry can separate "the
  solver struggled" from "the solver was handed garbage".

This module imports nothing of the repo but :mod:`repro.errors` and
:mod:`repro.codegen.stats`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from repro.codegen.stats import CodegenStats
from repro.errors import SolverError

if TYPE_CHECKING:
    from repro.mpc.transcription import TranscribedProblem

__all__ = [
    "CONTROL_GRADE_KKT",
    "QP_METHODS",
    "BudgetClock",
    "ConditioningReport",
    "IPMOptions",
    "IPMResult",
    "QPOptions",
    "QPResult",
    "QPStats",
    "SolveBudget",
    "SolverHealth",
    "nonfinite_indices",
]

#: the QP solver families ``QPOptions.method`` (and every serve-side
#: ``qp_method`` field above it) selects between
QP_METHODS = ("ipm", "admm")

#: floor ``theta`` of a carried interior-point start (see
#: :func:`repro.mpc.qp.solve_qp`'s ``warm``): the slacks and inequality
#: multipliers start at least this far inside the positive orthant — a
#: converged multiplier of an inactive row is ~1e-10 — so the barrier opens
#: near ``mu ~ theta``, not at its boundary
_CARRY_FLOOR = 1e-2


@dataclass
class QPOptions:
    """Parameters for the QP solvers (interior-point and first-order).

    ``method`` selects the solver family a QP runs in:
    ``"ipm"`` (the Mehrotra predictor-corrector — tight
    tolerances, per-iteration factorizations) or ``"admm"`` (the OSQP-style
    operator splitting in :mod:`repro.firstorder` — one cached
    factorization, cheap matvec iterations, loose-to-moderate tolerances).
    The ``admm_*`` fields only matter for the latter.
    """

    max_iterations: int = 50
    tolerance: float = 1e-8
    #: fraction-to-the-boundary factor
    tau: float = 0.995
    #: diagonal regularization for the condensed Hessian
    regularization: float = 1e-9
    #: end a solve with the active-set polish
    #: (:func:`repro.batch.host._polish_qp`: the KKT equalities of the
    #: detected active set solved directly, plus iterative refinement),
    #: which has no barrier scaling W and so recovers the solution past
    #: the accuracy the barrier iteration stalls at.  A converged IPM lane
    #: adopts the polished point when it passes the polish's own test and
    #: does not worsen the lane's residual; ADMM polishes the lanes that
    #: stopped without an answer.
    polish: bool = False
    #: solver family: "ipm" or "admm"
    method: str = "ipm"
    #: ADMM penalty parameter (initial value; adapted on the residual ratio)
    admm_rho: float = 0.1
    #: ADMM equality rows carry ``admm_rho_eq_scale * rho`` (OSQP treats
    #: ``l == u`` rows as stiff so the equalities are enforced tightly)
    admm_rho_eq_scale: float = 1e3
    #: ADMM proximal regularization sigma
    admm_sigma: float = 1e-6
    #: ADMM over-relaxation factor (1.0 disables; OSQP default region 1.5-1.8)
    admm_alpha: float = 1.6
    #: ADMM iteration cap — first-order iterations are matvec-cheap, so the
    #: cap is far above the IPM's ``max_iterations``
    admm_max_iterations: int = 2000
    #: ADMM convergence tolerance (relative, OSQP-style eps_abs == eps_rel);
    #: intentionally separate from the IPM ``tolerance`` because the two
    #: families live at different practical accuracy tiers
    admm_tolerance: float = 1e-5
    #: iterations between rho-adaptation checks (each adaptation triggers
    #: the one re-factorization of the cached KKT matrix); ``0`` disables
    #: adaptation.  Device backends ride their ``sync_interval`` host
    #: round-trip instead (see :mod:`repro.firstorder.batch`).
    admm_rho_interval: int = 25
    #: Ruiz-equilibrate the box-form data before the ADMM iteration (see
    #: :mod:`repro.firstorder.precond`).  Termination still tests the
    #: *unscaled* residuals, so tolerances mean the same thing either way;
    #: on stiff problems this is the difference between converging and
    #: stalling.  Ignored by the IPM (whose per-iteration factorizations
    #: absorb bad scaling directly).
    admm_equilibrate: bool = True
    #: Ruiz sweep cap (each sweep is one row/col norm pass; the iteration
    #: exits early at its fixpoint, typically 3-6 sweeps)
    admm_equilibrate_iters: int = 10
    #: norm-spread gate: equilibration only runs when the max/min ratio of
    #: the stacked row/col infinity norms exceeds this.  Already-well-
    #: scaled problems are left alone — normalizing them makes the relative
    #: stopping test effectively absolute, which can land a tight tolerance
    #: below the iteration's numerical floor.  Batched solves gate per lane.
    admm_equilibrate_spread: float = 100.0
    #: stall detector: the solve is declared stalled (and becomes a
    #: fallback-ladder candidate) after this window of iterations goes by
    #: without the best relative residual improving by at least 10%.  ``0``
    #: disables detection.  The loop rounds this up to whole residual
    #: checks (every 5th iteration).
    admm_stall_iterations: int = 250
    #: let SQP drivers retry a stalled/diverged ADMM subproblem with the
    #: IPM inside the remaining budget (the method-health fallback ladder)
    admm_fallback: bool = True

    def __post_init__(self):
        if self.max_iterations < 1:
            raise SolverError("max_iterations must be >= 1")
        if not 0 < self.tau < 1:
            raise SolverError("tau must lie in (0, 1)")
        if self.method not in QP_METHODS:
            raise SolverError(
                f"unknown QP method {self.method!r} (expected one of {QP_METHODS})"
            )
        if self.admm_max_iterations < 1:
            raise SolverError("admm_max_iterations must be >= 1")
        if not 0.0 < self.admm_alpha < 2.0:
            raise SolverError("admm_alpha must lie in (0, 2)")
        if self.admm_equilibrate_iters < 0:
            raise SolverError("admm_equilibrate_iters must be >= 0")
        if self.admm_equilibrate_spread < 1.0:
            raise SolverError("admm_equilibrate_spread must be >= 1")
        if self.admm_stall_iterations < 0:
            raise SolverError("admm_stall_iterations must be >= 0")


@dataclass
class ConditioningReport:
    """How one ADMM solve experienced the problem's conditioning.

    Produced per lane by the ADMM loop
    (:func:`repro.firstorder.batch.solve_qp_admm_batch`) and carried on
    :attr:`QPStats.conditioning` so
    the SQP drivers and the serving layer can decide whether the solve is
    a fallback-ladder candidate instead of re-deriving it from residuals.
    """

    #: equilibration ran (``QPOptions.admm_equilibrate`` and a non-trivial
    #: problem)
    equilibrated: bool = False
    #: Ruiz sweeps actually executed (early exit at the fixpoint)
    ruiz_iters: int = 0
    #: max/min nonzero row+col infinity-norm ratio of the stacked data
    #: matrix, before and after scaling — the conditioning proxy
    norm_spread_before: float = 1.0
    norm_spread_after: float = 1.0
    #: cost scalar the equilibration settled on
    cost_scale: float = 1.0
    #: residual-balancing rho rescales (each one re-factorized the cached
    #: KKT matrix — a high count on a converged solve is thrash)
    rho_rescales: int = 0
    #: the stall detector fired: ``admm_stall_iterations`` went by without
    #: the best relative residual improving
    stalled: bool = False
    #: the iteration produced a non-finite residual (poisoned iterate)
    diverged: bool = False
    #: an active-set polish step recovered a converged solution after the
    #: loop stalled, capped out, or diverged (``QPOptions.polish``)
    polished: bool = False

    @property
    def needs_fallback(self) -> bool:
        """The solve is a candidate for the ADMM->IPM rescue ladder.

        A stall or divergence the polish step already repaired to a
        converged solution is not — the ladder only spends budget on
        solves that ended without a usable answer.
        """
        return (self.stalled or self.diverged) and not self.polished

    def to_dict(self) -> dict:
        return {
            "equilibrated": self.equilibrated,
            "ruiz_iters": self.ruiz_iters,
            "norm_spread_before": self.norm_spread_before,
            "norm_spread_after": self.norm_spread_after,
            "cost_scale": self.cost_scale,
            "rho_rescales": self.rho_rescales,
            "stalled": self.stalled,
            "diverged": self.diverged,
            "polished": self.polished,
        }


@dataclass
class QPStats:
    """Per-phase observability of one QP solve.

    Wall times are in seconds; flops are exact primitive-op totals
    (mul + add + div + sqrt) from the closed-form kernel counts, so
    benchmarks can report measured vs. cost-model flops.
    """

    #: "banded" when every factorization used the banded kernels, "dense"
    #: when none did, "mixed" otherwise (e.g. a banded Phi with a Schur
    #: complement whose measured bandwidth exceeded the hint)
    mode: str = "dense"
    #: largest measured half-bandwidth of the condensed Phi (None until
    #: the first factorization; equals n-ish for unpermuted problems)
    phi_bandwidth: Optional[int] = None
    #: largest measured half-bandwidth of the Schur complement
    schur_bandwidth: Optional[int] = None
    #: number of successful matrix factorizations (Phi and Schur each count
    #: once per iteration)
    factorizations: int = 0
    banded_factorizations: int = 0
    #: failed factorization attempts that escalated the regularization
    retries: int = 0
    #: largest diagonal regularization any factorization of this solve
    #: actually used (== the options' base value when no retry fired)
    regularization_max: float = 0.0
    factorize_time: float = 0.0
    substitute_time: float = 0.0
    factor_flops: int = 0
    substitute_flops: int = 0
    #: conditioning/stall record of an ADMM solve (None for the IPM)
    conditioning: Optional[ConditioningReport] = None
    #: linearize-phase codegen record (kernel tier, emit/compile cost,
    #: cache hits) attached by the SQP drivers; None for bare QP solves
    codegen: Optional["CodegenStats"] = None


@dataclass
class QPResult:
    """Solution of one QP subproblem."""

    x: np.ndarray
    nu: np.ndarray
    lam: np.ndarray
    slacks: np.ndarray
    converged: bool
    iterations: int
    residual: float
    gap_history: List[float] = field(default_factory=list)
    stats: QPStats = field(default_factory=QPStats)
    #: the solve stopped on the caller's wall-clock ``deadline`` before
    #: converging (the returned iterate/residual pair is still consistent)
    budget_exhausted: bool = False
    #: solver-internal warm-start state for the next solve of the same
    #: problem family (ADMM method only: the primal/slack/dual iterates and
    #: the adapted rho).  ``None`` for the IPM method and whenever the
    #: iterates are unfit for reuse; always host arrays.
    warm: Optional[dict] = None


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
    #: ``"budget_exhausted"`` (a :class:`SolveBudget`
    #: limit fired before convergence — the iterate is the best partial
    #: result, usable for real-time-iteration warm starting), or
    #: ``"diverged"`` (the iteration produced numerical poison and stopped
    #: on the last finite iterate — do not trust the solution)
    status: str = "max_iterations"
    #: total wall-clock seconds spent inside
    #: :meth:`repro.mpc.ipm.InteriorPointSolver.solve`
    solve_time: float = 0.0
    #: numerical-health record of this solve (validation outcomes, rejected
    #: steps, factorization-retry pressure); ``None`` only for results built
    #: by stubs/legacy callers
    health: Optional[SolverHealth] = None

    def trajectories(self, problem: TranscribedProblem):
        """Split the solution into state and input trajectories."""
        return problem.split(self.z)


@dataclass(frozen=True)
class SolveBudget:
    """Per-solve compute allowance (all limits optional, combined with AND).

    Attributes:
        wall_clock: wall-clock seconds for the whole solve; ``0.0`` is legal
            and means "already exhausted" (the solve returns the warm start
            immediately — useful for tests and for shedding load).
        sqp_iterations: cap on outer SQP iterations this solve.
        qp_iterations: cap on *total* inner interior-point iterations
            accumulated across all QP subproblems of this solve.
    """

    wall_clock: Optional[float] = None
    sqp_iterations: Optional[int] = None
    qp_iterations: Optional[int] = None

    def __post_init__(self):
        if self.wall_clock is not None and self.wall_clock < 0:
            raise SolverError("wall_clock budget must be >= 0")
        if self.sqp_iterations is not None and self.sqp_iterations < 0:
            raise SolverError("sqp_iterations budget must be >= 0")
        if self.qp_iterations is not None and self.qp_iterations < 0:
            raise SolverError("qp_iterations budget must be >= 0")

    @property
    def unlimited(self) -> bool:
        return (
            self.wall_clock is None
            and self.sqp_iterations is None
            and self.qp_iterations is None
        )

    def start(self) -> "BudgetClock":
        """Stamp the wall clock now and return the running clock."""
        return BudgetClock(self, perf_counter())


class BudgetClock:
    """A started :class:`SolveBudget`: absolute deadline + iteration caps."""

    __slots__ = ("budget", "t0", "deadline")

    def __init__(self, budget: SolveBudget, t0: float):
        self.budget = budget
        self.t0 = t0
        #: absolute ``perf_counter`` deadline, or ``None`` when untimed
        self.deadline: Optional[float] = (
            t0 + budget.wall_clock if budget.wall_clock is not None else None
        )

    def expired(self) -> bool:
        """True once the wall-clock allowance has run out."""
        return self.deadline is not None and perf_counter() >= self.deadline

    def qp_exhausted(self, qp_iterations_done: int) -> bool:
        """True once the cumulative inner-iteration cap is reached."""
        cap = self.budget.qp_iterations
        return cap is not None and qp_iterations_done >= cap

    def remaining(self) -> Optional[float]:
        """Seconds left on the wall clock (clamped at 0), or ``None``."""
        if self.deadline is None:
            return None
        return max(0.0, self.deadline - perf_counter())

    def elapsed(self) -> float:
        return perf_counter() - self.t0


def nonfinite_indices(v: np.ndarray, limit: int = 8) -> List[int]:
    """Indices of non-finite entries in ``v`` (capped at ``limit`` for
    readable error messages)."""
    bad = np.flatnonzero(~np.isfinite(np.asarray(v, dtype=float)))
    return [int(i) for i in bad[:limit]]


@dataclass
class SolverHealth:
    """Numerical-health record of one MPC solve attempt.

    ``ok`` means the solve ran on clean inputs and kept finite iterates
    throughout — a rejected state or a re-seeded warm start flips it off
    even when the solve itself went on to succeed, so fleet telemetry can
    count contaminated control periods.
    """

    #: the measured state passed validation (False => the solve was rejected
    #: with a :class:`~repro.errors.StateValidationError` before starting)
    state_finite: bool = True
    #: a caller-supplied warm start was contaminated (non-finite) and was
    #: discarded in favor of a fresh cold-start seed
    warm_start_reseeded: bool = False
    #: an SQP step direction came back non-finite and was rejected (the
    #: iterate was kept and the Levenberg damping escalated instead)
    steps_rejected: int = 0
    #: failed factorization attempts absorbed by the escalating-
    #: regularization retry ladder across all QP subproblems of this solve
    factorization_retries: int = 0
    #: largest diagonal regularization the retry ladder had to reach
    regularization_max: float = 0.0
    #: ADMM subproblems that stalled/diverged and were re-solved by the IPM
    #: rescue path (the method-health fallback ladder).  A rescued solve is
    #: still a *successful* solve — this does not flip ``ok`` — but a
    #: climbing count tells the serving layer the session's configured
    #: qp_method is the wrong tool for its robot.
    method_fallbacks: int = 0
    #: free-form annotations ("nonfinite_state[3]", "warm_start_reseeded", …)
    notes: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            self.state_finite
            and not self.warm_start_reseeded
            and self.steps_rejected == 0
        )

    def note(self, message: str) -> None:
        self.notes.append(message)

    def to_dict(self) -> Dict[str, object]:
        """Flat, picklable/JSON-able representation (worker replies, traces)."""
        return {
            "ok": self.ok,
            "state_finite": self.state_finite,
            "warm_start_reseeded": self.warm_start_reseeded,
            "steps_rejected": self.steps_rejected,
            "factorization_retries": self.factorization_retries,
            "regularization_max": self.regularization_max,
            "method_fallbacks": self.method_fallbacks,
            "notes": list(self.notes),
        }

    @classmethod
    def from_dict(cls, data: Optional[Dict[str, object]]) -> Optional["SolverHealth"]:
        if data is None:
            return None
        return cls(
            state_finite=bool(data.get("state_finite", True)),
            warm_start_reseeded=bool(data.get("warm_start_reseeded", False)),
            steps_rejected=int(data.get("steps_rejected", 0)),
            factorization_retries=int(data.get("factorization_retries", 0)),
            regularization_max=float(data.get("regularization_max", 0.0)),
            method_fallbacks=int(data.get("method_fallbacks", 0)),
            notes=list(data.get("notes", [])),
        )
