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
   corrector over from-scratch Cholesky + forward/backward substitution.
3. **Globalize** with a backtracking line search on an L1 exact-penalty merit
   function, then repeat until the nonlinear KKT conditions hold.

The result reports both SQP (outer) and IPM (inner) iteration counts; the
benchmark harness uses the totals when reproducing the paper's timing
experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import List, Optional

import numpy as np

from repro.errors import SolverError, StateValidationError
from repro.mpc.budget import SolveBudget
from repro.mpc.health import SolverHealth, nonfinite_indices
from repro.mpc.linalg import max_abs
from repro.mpc.qp import QPOptions, QPResult, solve_qp
from repro.mpc.transcription import TranscribedProblem

__all__ = ["IPMOptions", "IPMResult", "InteriorPointSolver"]


@dataclass
class IPMOptions:
    """Tunable parameters of the SQP + interior-point solver."""

    #: maximum outer (SQP) iterations
    max_iterations: int = 60
    #: nonlinear KKT tolerance (scaled max-norm); 1e-4 is a practical
    #: control-grade tolerance for the Gauss-Newton scheme, whose tail
    #: convergence is linear (meta-parameter in the DSL, per the paper)
    tolerance: float = 1e-4
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
    #: the KKT residual falls below ``hybrid_switch``, then exact)
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
    #: max-norm of the nonlinear KKT residual at exit
    kkt_residual: float
    #: per-outer-iteration KKT residuals (diagnostics / tests)
    residual_history: List[float] = field(default_factory=list)
    #: equality multipliers at exit
    nu: Optional[np.ndarray] = None
    #: inequality multipliers at exit
    lam: Optional[np.ndarray] = None
    #: how the solve ended: ``"converged"``, ``"max_iterations"``,
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


class InteriorPointSolver:
    """SQP + primal-dual IPM over a :class:`TranscribedProblem`."""

    def __init__(
        self, problem: TranscribedProblem, options: Optional[IPMOptions] = None
    ):
        self.problem = problem
        self.options = options or IPMOptions()
        # linearize-phase codegen selection flows through the problem: the
        # default "auto" leaves the problem's own mode (REPRO_CODEGEN or
        # auto) untouched, an explicit mode overrides it
        if self.options.qp.codegen != "auto":
            self.problem.set_codegen(self.options.qp.codegen)
        #: cumulative statistics across solves (used by the benchmark harness):
        #: iteration counts plus per-phase observability — linearize /
        #: factorize / substitute wall time and exact kernel flop totals
        self.stats = {
            "solves": 0,
            "sqp_iterations": 0,
            "qp_iterations": 0,
            "linearize_time": 0.0,
            "factorize_time": 0.0,
            "substitute_time": 0.0,
            "factor_flops": 0,
            "substitute_flops": 0,
            "factorizations": 0,
            "banded_factorizations": 0,
            #: linearize-phase codegen record (kernel tier, cache counters);
            #: None until the first QP subproblem attaches one
            "codegen": None,
        }
        #: optional :mod:`repro.faults` solver-layer injector, threaded into
        #: every QP factorization (``None`` in production)
        self.fault_hook: Optional[object] = None
        #: ADMM solver-internal warm state (iterate triple + adapted rho)
        #: carried across QP subproblems and MPC ticks when
        #: ``options.qp.method == "admm"``; the ADMM path validates shapes
        #: and finiteness itself, so stale state degrades to a cold start.
        self._qp_warm: Optional[dict] = None
        self._setup_banded_path()

    def reset_qp_warm(self) -> None:
        """Drop solver-internal QP warm state (ADMM iterates/rho).

        Called by :meth:`repro.mpc.controller.MPCController.reset` so a
        session reset is a true cold start for every solver method.
        """
        self._qp_warm = None

    def _absorb_qp_stats(self, health, qs) -> None:
        """Fold one QP subproblem's stats into the solve-level counters.

        Split out so the ADMM->IPM rescue can account both attempts (the
        stalled first-order run *and* its interior-point retry) instead of
        silently dropping the failed attempt's work from telemetry.
        """
        self.stats["factorize_time"] += qs.factorize_time
        self.stats["substitute_time"] += qs.substitute_time
        self.stats["factor_flops"] += qs.factor_flops
        self.stats["substitute_flops"] += qs.substitute_flops
        self.stats["factorizations"] += qs.factorizations
        self.stats["banded_factorizations"] += qs.banded_factorizations
        if qs.codegen is not None:
            self.stats["codegen"] = qs.codegen.as_dict()
        health.factorization_retries += qs.retries
        health.regularization_max = max(
            health.regularization_max, qs.regularization_max
        )

    def _setup_banded_path(self) -> None:
        """Precompute the stage-interleaved QP permutations and band hints.

        The plain QP permutes the decision vector into stage order
        ``[x_0, u_0, x_1, u_1, ..]``; the extended (Sl1QP) subproblem also
        has one L1 slack per softened row, and each slack is placed right
        after its stage group so the extended condensed matrix stays
        banded.  ``None`` disables the banded path (``banded=False`` option
        or ``move_block > 1`` — see
        :meth:`TranscribedProblem.stage_permutation`).
        """
        p = self.problem
        self._qp_perm = None
        self._qp_bandwidth = None
        self._qp_perm_ext = None
        self._qp_bandwidth_ext = None
        perm = p.stage_permutation() if self.options.banded else None
        if perm is None:
            return
        hint = p.kkt_half_bandwidth()
        self._qp_perm = perm
        self._qp_bandwidth = hint

        soft = p.soft_inequality_mask() if p.n_ineq else np.zeros(0, dtype=bool)
        n_soft = int(soft.sum())
        if not n_soft:
            return
        # Stage of each slack, in slack (= soft-row) order.
        slack_stages = p.inequality_row_stages()[soft]
        nx, nu, N, nz = p.nx, p.nu, p.N, p.nz
        base = (N + 1) * nx
        order: List[int] = []
        max_group = 0
        for k in range(N + 1):
            start = len(order)
            order.extend(range(k * nx, (k + 1) * nx))
            if k < N:
                order.extend(range(base + k * nu, base + (k + 1) * nu))
            order.extend(nz + i for i in np.flatnonzero(slack_stages == k))
            max_group = max(max_group, len(order) - start)
        self._qp_perm_ext = np.array(order, dtype=np.intp)
        assert self._qp_perm_ext.shape == (nz + n_soft,)
        self._qp_bandwidth_ext = max(hint, max_group - 1)

    def _subproblem_data(
        self, Hs, grad_s, Gs, Js, g_eq, h, soft, hard, n_soft
    ):
        """Assemble one SQP subproblem's QP data.

        Builds the extended (Sl1QP) subproblem when soft rows exist:

            min 1/2 d'Hd + grad'd + rho_s 1't + kappa/2 t't
            s.t. G d = -g_eq; J_hard d <= -h_hard;
                 J_soft d - t <= -h_soft; t >= 0

        and applies the stage-interleaved variable permutation when the
        banded path is active.  Returns ``(qp_args, qperm)``: ``qp_args``
        is the ``(H, g, G, b, J, d, bandwidth)`` tuple for
        :func:`repro.mpc.qp.solve_qp`; ``qperm`` is the permutation applied
        (``None`` on the dense fallback) — scatter the solution back with
        ``x[qperm] = x_solved``.
        """
        p = self.problem
        opt = self.options
        nz = p.nz
        m = p.n_ineq
        if not n_soft:
            qperm = self._qp_perm
            if qperm is None:
                return (
                    Hs,
                    grad_s,
                    Gs,
                    -g_eq,
                    Js if m else None,
                    -h if m else None,
                    None,
                ), None
            return (
                Hs[np.ix_(qperm, qperm)],
                grad_s[qperm],
                Gs[:, qperm],
                -g_eq,
                Js[:, qperm] if m else None,
                -h if m else None,
                self._qp_bandwidth,
            ), qperm

        n_ext = nz + n_soft
        n_hard = m - n_soft
        H_ext = np.zeros((n_ext, n_ext))
        H_ext[:nz, :nz] = Hs
        H_ext[nz:, nz:] = opt.soft_quadratic * np.eye(n_soft)
        g_ext = np.concatenate([grad_s, np.full(n_soft, opt.soft_penalty)])
        G_ext = np.hstack([Gs, np.zeros((Gs.shape[0], n_soft))])
        J_ext = np.zeros((m + n_soft, n_ext))
        d_ext = np.zeros(m + n_soft)
        J_ext[:n_hard, :nz] = Js[hard]
        d_ext[:n_hard] = -h[hard]
        J_ext[n_hard : n_hard + n_soft, :nz] = Js[soft]
        J_ext[n_hard : n_hard + n_soft, nz:] = -np.eye(n_soft)
        d_ext[n_hard : n_hard + n_soft] = -h[soft]
        J_ext[n_hard + n_soft :, nz:] = -np.eye(n_soft)
        qperm = self._qp_perm_ext
        if qperm is None:
            return (H_ext, g_ext, G_ext, -g_eq, J_ext, d_ext, None), None
        # Stage-interleave the extended variables (slacks next to their
        # stage group) so the condensed system is banded.
        return (
            H_ext[np.ix_(qperm, qperm)],
            g_ext[qperm],
            G_ext[:, qperm],
            -g_eq,
            J_ext[:, qperm],
            d_ext,
            self._qp_bandwidth_ext,
        ), qperm

    def first_qp_subproblem(self, x_init, ref=None, z_warm=None):
        """QP data of the cold-start (first) SQP subproblem.

        Linearizes exactly like the first iteration of :meth:`solve`
        (Gauss-Newton Hessian unless ``hessian == "exact"``, Levenberg
        damping at its initial value) and returns ``(qp_args, qperm)`` as
        produced by the internal assembly — the banded-vs-dense benchmark
        and the equivalence tests feed ``qp_args`` to
        :func:`repro.mpc.qp.solve_qp` directly.

        ``z_warm`` optionally supplies the linearization trajectory (shape
        ``(nz,)``, finite); the conformance harness uses it to probe
        linearizations away from the cold-start guess.
        """
        p = self.problem
        opt = self.options
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
        m = p.n_ineq
        soft = p.soft_inequality_mask() if m else np.zeros(0, dtype=bool)
        hard = ~soft
        n_soft = int(soft.sum())
        scale = p.variable_scales()
        grad = p.objective_gradient(z, ref)
        if opt.hessian == "exact":
            H = p.lagrangian_hessian(z, np.zeros(p.n_eq), ref)
        else:
            H = p.objective_gauss_newton(z, ref)
        g_eq = p.equality_constraints(z, x_init, ref)
        G = p.equality_jacobian(z, ref)
        h = p.inequality_constraints(z, ref)
        J = p.inequality_jacobian(z, ref)
        Hs = (H * scale).T * scale
        Hs[np.diag_indices_from(Hs)] += opt.regularization
        if opt.hessian == "exact":
            Hs = _convexify(Hs)
        grad_s = grad * scale
        Gs = G * scale[None, :]
        Js = J * scale[None, :] if m else J
        return self._subproblem_data(
            Hs, grad_s, Gs, Js, g_eq, h, soft, hard, n_soft
        )

    # -------------------------------------------------------------------------
    def solve(
        self,
        x_init: np.ndarray,
        ref: Optional[np.ndarray] = None,
        z_warm: Optional[np.ndarray] = None,
        nu_warm: Optional[np.ndarray] = None,
        lam_warm: Optional[np.ndarray] = None,
        budget: Optional[SolveBudget] = None,
    ) -> IPMResult:
        """Solve the MPC problem from the measured state ``x_init``.

        Args:
            x_init: current robot state (length ``nx``).
            ref: reference values required by the task (constant vector of
                length ``n_ref`` or per-knot array ``(N+1, n_ref)``).
            z_warm: optional warm-start trajectory (the previous solution
                shifted by one step, supplied by the controller).
            nu_warm / lam_warm: optional multiplier warm starts from the
                previous control step — without them every solve re-learns
                the (often large) dynamics multipliers from zero.
            budget: optional per-solve compute allowance (wall clock and/or
                iteration caps).  A budgeted solve stops at the first
                checkpoint past the limit — overrun bounded by one
                linearization plus one QP iteration — and reports
                ``status == "budget_exhausted"`` with the best partial
                iterate instead of raising.
        """
        t_solve = perf_counter()
        clock = budget.start() if budget is not None else None
        p = self.problem
        opt = self.options
        x_init = np.asarray(x_init, dtype=float)
        health = SolverHealth()

        if not np.all(np.isfinite(x_init)):
            # Structured rejection: a NaN/Inf measurement must never reach
            # the linearization — report exactly what was poisoned and let
            # the caller's degradation policy decide what to serve.
            bad = nonfinite_indices(x_init)
            health.state_finite = False
            health.note(f"nonfinite_state{bad}")
            raise StateValidationError(
                f"measured state contains non-finite entries at indices {bad}",
                health=health,
            )
        if ref is not None and not np.all(np.isfinite(np.asarray(ref, dtype=float))):
            health.state_finite = False
            health.note("nonfinite_reference")
            raise StateValidationError(
                "reference contains non-finite entries", health=health
            )

        z = None
        if z_warm is not None:
            z = np.array(z_warm, dtype=float)
            if z.shape != (p.nz,):
                raise SolverError(
                    f"warm start has shape {z.shape}, expected ({p.nz},)"
                )
            if not np.all(np.isfinite(z)):
                # A contaminated RTI warm start is rejected and re-seeded,
                # never propagated into the linearization.
                health.warm_start_reseeded = True
                health.note("warm_start_reseeded")
                z = None
        if z is None:
            z = p.initial_guess(x_init)
        z[p.state_slice(0)] = x_init

        m = p.n_ineq
        nu = np.zeros(p.n_eq)
        if nu_warm is not None and np.shape(nu_warm) == (p.n_eq,):
            nu_arr = np.array(nu_warm, dtype=float)
            if np.all(np.isfinite(nu_arr)):
                nu = nu_arr
            else:
                health.warm_start_reseeded = True
                health.note("nu_warm_reseeded")
        lam = np.zeros(m)
        if lam_warm is not None and np.shape(lam_warm) == (m,):
            lam_arr = np.maximum(np.array(lam_warm, dtype=float), 0.0)
            if np.all(np.isfinite(lam_arr)):
                lam = lam_arr
            else:
                health.warm_start_reseeded = True
                health.note("lam_warm_reseeded")
        rho = opt.penalty_init

        # Soft/hard split of the inequality rows (Fletcher Sl1QP): softened
        # rows get L1 slacks in every QP subproblem, so linearized
        # infeasibility at a pinned initial state cannot blow up the duals.
        soft = p.soft_inequality_mask() if m else np.zeros(0, dtype=bool)
        hard = ~soft
        n_soft = int(soft.sum())
        nz = p.nz
        # Diagonal variable preconditioner: the QP is solved in z/scale
        # coordinates so damping and regularization act uniformly.
        scale = p.variable_scales()

        history: List[float] = []
        merit_window: List[float] = []
        converged = False
        budget_hit = False
        diverged = False
        qp_total = 0
        it = 0
        max_outer = opt.max_iterations
        if budget is not None and budget.sqp_iterations is not None:
            max_outer = min(max_outer, budget.sqp_iterations)
        # Levenberg-Marquardt damping adapted on KKT progress: oscillation
        # (KKT increase) shrinks the step by inflating the Hessian diagonal.
        lm = opt.regularization
        best_kkt = float("inf")
        best = (z.copy(), nu.copy(), lam.copy())
        nu_cert = lam_cert = None

        for it in range(1, max_outer + 1):
            if clock is not None and (
                clock.expired() or clock.qp_exhausted(qp_total)
            ):
                budget_hit = True
                it -= 1
                break
            t_lin = perf_counter()
            grad = p.objective_gradient(z, ref)
            use_exact = opt.hessian == "exact" or (
                opt.hessian == "hybrid"
                and history
                and history[-1] < opt.hybrid_switch
            )
            if use_exact:
                H = p.lagrangian_hessian(z, nu, ref)
            else:
                H = p.objective_gauss_newton(z, ref)
            g_eq = p.equality_constraints(z, x_init, ref)
            G = p.equality_jacobian(z, ref)
            h = p.inequality_constraints(z, ref)
            J = p.inequality_jacobian(z, ref)
            self.stats["linearize_time"] += perf_counter() - t_lin

            # Scaled-variable QP data (multipliers are scaling-invariant).
            Hs = (H * scale).T * scale
            Hs[np.diag_indices_from(Hs)] += lm
            if use_exact:
                # Inertia correction: convexify ONCE so the QP receives a
                # fixed PSD Hessian (re-regularizing inside the QP loop would
                # change the subproblem between its own iterations).
                Hs = _convexify(Hs)
            grad_s = grad * scale
            Gs = G * scale[None, :]
            Js = J * scale[None, :] if m else J

            kkt = _kkt_residual(grad, G, g_eq, J, h, nu, lam)
            if nu_cert is not None:
                # The undamped QP multipliers are often the sharper KKT
                # certificate once the primal step has shrunk.  They are used
                # only for the convergence measure — adopting them as solver
                # state would destabilize the damped multiplier iteration.
                kkt = min(kkt, _kkt_residual(grad, G, g_eq, J, h, nu_cert, lam_cert))
            history.append(kkt)
            if kkt < best_kkt:
                best_kkt = kkt
                best = (z.copy(), nu.copy(), lam.copy())
            if kkt < opt.tolerance:
                converged = True
                break
            if len(history) > 1:
                if kkt > history[-2]:
                    lm = min(lm * 10.0, 1e2)
                else:
                    lm = max(lm / 3.0, opt.regularization)

            qp_args, qperm = self._subproblem_data(
                Hs, grad_s, Gs, Js, g_eq, h, soft, hard, n_soft
            )
            qp_opt = opt.qp
            if budget is not None and budget.qp_iterations is not None:
                # Hand the QP only the unspent share of the inner-iteration
                # budget (the loop-top check guarantees it is >= 1 here).
                # The ADMM method counts its own (cheaper) iterations, so
                # the cap lands on its field instead.
                remaining = budget.qp_iterations - qp_total
                if qp_opt.method == "admm":
                    if remaining < qp_opt.admm_max_iterations:
                        qp_opt = replace(
                            qp_opt, admm_max_iterations=remaining
                        )
                elif remaining < qp_opt.max_iterations:
                    qp_opt = replace(qp_opt, max_iterations=remaining)
            try:
                qp_res = solve_qp(
                    *qp_args[:6],
                    qp_opt,
                    bandwidth=qp_args[6],
                    deadline=clock.deadline if clock is not None else None,
                    fault_hook=self.fault_hook,
                    warm=self._qp_warm if qp_opt.method == "admm" else None,
                )
            except SolverError:
                # A QP subproblem that cannot even be factorized (poisoned
                # linearization, or the retry ladder exhausted) ends the
                # solve with a structured "diverged" verdict on the last
                # globalized iterate instead of an exception mid-fleet.
                health.note(f"qp_failed_it{it}")
                diverged = True
                break

            # ---- method-health fallback ladder (ADMM -> IPM rescue) ------
            # The first-order run ended stalled or diverged and the rescue
            # polish could not repair it to a converged solution: retry the
            # *same* subproblem with the interior-point method inside the
            # remaining budget.  Warm-start hygiene: the ADMM iterate triple
            # is meaningless to the IPM, and a post-rescue ADMM restart must
            # never resume from the stalled iterate — the carry-over is
            # invalidated on the way into the rescue (the next ADMM solve,
            # if the ladder hands the method back, starts cold).
            cond = qp_res.stats.conditioning
            if (
                qp_opt.method == "admm"
                and qp_opt.admm_fallback
                and cond is not None
                and cond.needs_fallback
                and not (clock is not None and clock.expired())
            ):
                # Account the stalled attempt first: if its iterations ate
                # the whole budget there is no rescue — the counter must
                # only record retries that actually ran.
                qp_total += qp_res.iterations
                self._absorb_qp_stats(health, qp_res.stats)
                rescue_opt = replace(qp_opt, method="ipm")
                if budget is not None and budget.qp_iterations is not None:
                    remaining = budget.qp_iterations - qp_total
                    if remaining < 1:
                        budget_hit = True
                        break
                    if remaining < rescue_opt.max_iterations:
                        rescue_opt = replace(rescue_opt, max_iterations=remaining)
                self._qp_warm = None
                health.method_fallbacks += 1
                health.note(f"admm_fallback_it{it}")
                try:
                    qp_res = solve_qp(
                        *qp_args[:6],
                        rescue_opt,
                        bandwidth=qp_args[6],
                        deadline=clock.deadline if clock is not None else None,
                        fault_hook=self.fault_hook,
                        warm=None,
                    )
                except SolverError:
                    health.note(f"qp_failed_it{it}")
                    diverged = True
                    break

            # Surface the linearize-phase codegen record alongside the QP
            # stats (the stats object survives on the returned result).
            qp_res.stats.codegen = p.codegen_stats()

            if qperm is not None:
                # Scatter the stage-interleaved solution back to the
                # original variable ordering (multipliers are unaffected
                # by a variable permutation).
                x_qp = np.empty(qperm.shape[0])
                x_qp[qperm] = qp_res.x
            else:
                x_qp = qp_res.x
            if n_soft:
                d = x_qp[:nz] * scale
                n_hard = m - n_soft
                nu_qp = qp_res.nu
                lam_qp = np.zeros(m)
                lam_qp[hard] = qp_res.lam[:n_hard]
                lam_qp[soft] = qp_res.lam[n_hard : n_hard + n_soft]
            else:
                d = x_qp * scale
                nu_qp, lam_qp = qp_res.nu, qp_res.lam
            qp_total += qp_res.iterations
            if qp_res.warm is not None:
                # ADMM hands back its iterate triple + adapted rho; seed the
                # next subproblem (and, across ticks, the next solve) with it.
                self._qp_warm = qp_res.warm
            self._absorb_qp_stats(health, qp_res.stats)

            # Deadline passed mid-QP: the direction is a partial (possibly
            # zero) interior-point iterate — discard it rather than spend
            # further wall time line-searching a truncated step, keeping the
            # returned iterate at the last globalized point.
            if clock is not None and (qp_res.budget_exhausted or clock.expired()):
                budget_hit = True
                break

            # Poisoned-direction guard: a non-finite QP step or multiplier
            # estimate must never reach the line search (NaN merit values
            # would silently accept the step).  Reject it, escalate the
            # Levenberg damping, and re-linearize from the same iterate;
            # at maximum damping the solve is declared diverged and returns
            # the last finite globalized iterate.
            if not (
                np.all(np.isfinite(d))
                and np.all(np.isfinite(nu_qp))
                and (not m or np.all(np.isfinite(lam_qp)))
            ):
                health.steps_rejected += 1
                health.note(f"nonfinite_step_it{it}")
                if lm >= 1e2:
                    diverged = True
                    break
                lm = min(lm * 100.0, 1e2)
                continue

            # -- L1 exact-penalty merit line search ----------------------------------
            mult_inf = max(
                max_abs(nu_qp), max_abs(lam_qp) if m else 0.0, opt.penalty_init
            )
            if rho < 2.0 * mult_inf:
                rho = max(rho, 2.0 * mult_inf)
                merit_window.clear()  # the merit scale changed
            merit0, viol0 = self._merit(z, x_init, ref, rho, soft)
            merit_window.append(merit0)
            if len(merit_window) > opt.watchdog:
                merit_window.pop(0)
            merit_ref = max(merit_window)
            # Directional derivative estimate of the merit function: the QP
            # direction removes the linearized violation entirely.
            descent = float(grad @ d) - viol0
            step_inf = float(np.max(np.abs(d / scale))) if d.size else 0.0
            alpha = min(1.0, opt.step_clip / step_inf) if step_inf > 0 else 1.0
            for _ in range(opt.max_backtracks):
                trial = z + alpha * d
                merit_t, _ = self._merit(trial, x_init, ref, rho, soft)
                if merit_t <= merit_ref + opt.armijo * alpha * min(descent, 0.0):
                    break
                alpha *= 0.5
            z = z + alpha * d
            # Damped multiplier update (tracks the primal step length); the
            # raw QP estimates are also kept as the sharper KKT certificate.
            nu = nu + alpha * (nu_qp - nu)
            if m:
                lam = lam + alpha * (lam_qp - lam)
            nu_cert, lam_cert = nu_qp, lam_qp

        self.stats["solves"] += 1
        self.stats["sqp_iterations"] += it
        self.stats["qp_iterations"] += qp_total

        # A budget-shortened iteration cap is a budget stop, not the
        # solver's own ``max_iterations`` verdict.
        if not converged and not budget_hit and it >= max_outer:
            budget_hit = max_outer < opt.max_iterations

        # If the loop exits on the iteration cap, restore an earlier iterate
        # only when it was *decisively* better — otherwise keep the last one
        # so warm-started receding-horizon use accumulates progress across
        # control steps (real-time-iteration behavior) instead of freezing
        # on a noisy KKT monitor.
        if not converged and history and best_kkt < 0.1 * history[-1]:
            z, nu, lam = best
            history[-1] = best_kkt

        if converged:
            status = "converged"
        elif diverged:
            status = "diverged"
        elif budget_hit:
            status = "budget_exhausted"
        else:
            status = "max_iterations"
        return IPMResult(
            z=z,
            converged=converged,
            iterations=it,
            qp_iterations=qp_total,
            objective=p.objective(z, ref),
            kkt_residual=history[-1] if history else float("inf"),
            residual_history=history,
            nu=nu,
            lam=lam if m else None,
            status=status,
            solve_time=perf_counter() - t_solve,
            health=health,
        )

    # -------------------------------------------------------------------------
    def _merit(self, z, x_init, ref, rho, soft):
        """L1 exact-penalty merit function.

        Equality and hard-inequality violations are weighted by the adaptive
        ``rho``; softened rows carry the fixed ``soft_penalty`` weight that
        also prices their slacks inside the QP, so the QP direction is a
        descent direction for this merit (Fletcher's Sl1QP correspondence).
        Returns ``(merit, weighted_violation)``.
        """
        p = self.problem
        opt = self.options
        f = p.objective(z, ref)
        g = p.equality_constraints(z, x_init, ref)
        viol = rho * float(np.sum(np.abs(g)))
        if p.n_ineq:
            h = p.inequality_constraints(z, ref)
            hpos = np.maximum(h, 0.0)
            viol += rho * float(np.sum(hpos[~soft]))
            viol += opt.soft_penalty * float(np.sum(hpos[soft]))
        return f + viol, viol


def _convexify(H: np.ndarray) -> np.ndarray:
    """Smallest diagonal shift (geometric ladder) making ``H`` factorizable.

    IPOPT-style inertia correction: an indefinite exact Lagrangian Hessian is
    shifted by ``delta I`` with ``delta`` escalating x10 until the from-scratch
    Cholesky succeeds, so the QP subproblem is strictly convex and *fixed*.
    """
    from repro.mpc.linalg import cholesky

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


def _kkt_residual(grad, G, g_eq, J, h, nu, lam) -> float:
    """Scaled max-norm of the nonlinear KKT conditions at (z, nu, lam).

    Dual stationarity and complementarity are divided by the IPOPT-style
    scaling ``s = max(s_max, mean |multipliers|) / s_max`` so that badly
    scaled constraint rows (whose multipliers are legitimately huge) do not
    keep the convergence measure artificially inflated.
    """
    s_max = 100.0
    n_mult = nu.size + lam.size
    mult_mean = (
        (float(np.sum(np.abs(nu))) + float(np.sum(np.abs(lam)))) / n_mult
        if n_mult
        else 0.0
    )
    sd = max(s_max, mult_mean) / s_max

    r_dual = grad + G.T @ nu
    if lam.size:
        r_dual = r_dual + J.T @ lam
        primal_ineq = float(np.max(np.maximum(h, 0.0))) if h.size else 0.0
        comp = max_abs(lam * h) / sd
        dual_feas = float(np.max(np.maximum(-lam, 0.0))) / sd
    else:
        primal_ineq = comp = dual_feas = 0.0
    return max(
        max_abs(r_dual) / sd, max_abs(g_eq), primal_ineq, comp, dual_feas
    )
