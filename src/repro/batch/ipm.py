"""The one SQP driver, over ``B`` lanes, and its batched entry point.

:func:`solve_lanes` is the only SQP iteration in the repo — linearize,
assemble the scaled Sl1QP subproblem in the stage-interleaved banded
ordering, take the nonlinear KKT measure, adapt the Levenberg damping,
solve the QP, guard against poisoned steps, globalize with the L1
exact-penalty watchdog line search, stop on the KKT test or the
control-grade test (:class:`~repro.batch.contract.IPMOptions`), restore a
decisively better iterate at the cap — with a leading lane axis.  Every
lane carries its own penalty ``rho``, damping ``lm``, merit window, KKT
history, Hessian model and budget clock; lanes freeze individually on
convergence, divergence, or budget exhaustion (continuous-batching
semantics), and frozen lanes are excluded from all later work.

Both public solvers take one QP step, :func:`~repro.batch.qp.solve_qp_batch`
(one factorization sweep per interior-point iteration for all active
lanes), for every interior-point subproblem and every ADMM->IPM rescue of
``QPOptions(method="admm")`` (whose subproblems run :func:`repro.firstorder.
batch.solve_qp_admm_batch`).  They differ only in the linearizer they hand
the loop: :class:`repro.mpc.ipm.InteriorPointSolver` is its ``B = 1``
host lane (the problem's own evaluation methods behind a lane axis);
:class:`BatchSolver` binds a :class:`~repro.batch.transcription.
BatchLinearizer` (one vectorized sweep instead of ``B`` Python loops).

Array ops route through the :mod:`repro.batch.backend` seam.  The
host-sync contract on a device backend: the heavy tensors (Hessians,
Jacobians, constraint stacks, QP iterates) live on the device from
linearization through the entire QP loop; per SQP iteration the driver
materializes only the small per-lane reductions the Python bookkeeping
needs (the KKT residuals, the gradient rows for the descent test, one
merit value per line-search trial).  Small SQP state (iterates,
multipliers, penalties, clocks) is host-resident — watchdog windows and
budget ladders are Python decisions — and exact/hybrid Hessian lanes are
evaluated and convexified lane by lane on the host.

Per-lane results are ordinary :class:`~repro.batch.contract.IPMResult`
objects, so the serve layer's classification ladder consumes a batched
lane exactly like a scalar solve.  What :class:`BatchSolver` does
differently from the scalar entry point, each forced by batching: only the
Gauss-Newton Hessian model is accepted (non-GN robots fall back to scalar
solves in the serve integration); ``result.solve_time`` is the *batch*
wall clock for every lane — the latency each lane actually experienced
waiting for the group; and state validation is batch-level — any
non-finite ``x_init`` or reference raises before the solve starts, so
callers (the serve engine) pre-filter poisoned lanes.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.errors import SolverError, StateValidationError

from .backend import HOST, ArrayBackend, get_backend
from .contract import (
    CONTROL_GRADE_KKT,
    IPMOptions,
    IPMResult,
    SolveBudget,
    SolverHealth,
)
from .host import _convexify
from .qp import _maxabs, solve_qp_batch
from .transcription import BatchLinearizer

if TYPE_CHECKING:
    from repro.mpc.transcription import TranscribedProblem

__all__ = ["BatchSolveReport", "BatchSolver", "LaneLayout", "solve_lanes"]


@dataclass
class BatchSolveReport:
    """Occupancy telemetry of one batched solve (feeds ``FleetMetrics``)."""

    lanes: int = 0
    #: outer (SQP) lane-iterations worked / available
    sqp_lane_iterations: int = 0
    sqp_lane_slots: int = 0
    #: inner (QP) lane-iterations worked / available
    qp_lane_iterations: int = 0
    qp_lane_slots: int = 0

    @property
    def sqp_efficiency(self) -> float:
        return (
            self.sqp_lane_iterations / self.sqp_lane_slots
            if self.sqp_lane_slots
            else 1.0
        )

    @property
    def qp_efficiency(self) -> float:
        return (
            self.qp_lane_iterations / self.qp_lane_slots
            if self.qp_lane_slots
            else 1.0
        )


def new_stats() -> Dict[str, object]:
    """Cumulative per-solver statistics (benchmark harness, fleet
    telemetry): iteration counts plus per-phase wall time and exact kernel
    flop totals."""
    return {
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
        #: lanes stopped by the control-grade test
        #: (:attr:`~repro.batch.contract.IPMOptions.input_tolerance`)
        "input_stops": 0,
        #: QPs started from the lane's interior-point carry
        #: (:func:`solve_lanes`)
        "qp_warm_starts": 0,
        #: linearize-phase codegen record (kernel tier, cache counters)
        "codegen": None,
    }


def absorb_qp_stats(stats, health: SolverHealth, qs) -> None:
    """Fold one QP attempt's :class:`~repro.batch.contract.QPStats` into the
    solver-level counters and the lane's health record — the stalled
    first-order run of an ADMM->IPM rescue as well as the run that
    produced the direction, so no attempt's work drops out of telemetry.
    """
    stats["factorize_time"] += qs.factorize_time
    stats["substitute_time"] += qs.substitute_time
    stats["factor_flops"] += qs.factor_flops
    stats["substitute_flops"] += qs.substitute_flops
    stats["factorizations"] += qs.factorizations
    stats["banded_factorizations"] += qs.banded_factorizations
    health.factorization_retries += qs.retries
    health.regularization_max = max(
        health.regularization_max, qs.regularization_max
    )


class LaneLayout:
    """What the lane assembly knows about one problem, computed (and
    uploaded to ``xp``) once per solver: the soft/hard split of the
    inequality rows (Fletcher Sl1QP: softened rows get L1 slacks in every
    QP subproblem, so linearized infeasibility at a pinned initial state
    cannot blow up the duals), the diagonal variable preconditioner
    ``scale`` (the QP is solved in ``z / scale`` coordinates so damping and
    regularization act uniformly), and the block-interleaved permutation
    ``qperm`` of the QP variables with its band hint
    (:meth:`TranscribedProblem.stage_permutation` /
    :meth:`~TranscribedProblem.kkt_half_bandwidth` over the soft rows):
    stage order ``[x_0, u_0, x_1, u_1, ..]``, or block order with move
    blocking, each softened row's slack right after its group.  The
    extended condensed ``Phi`` then stays block-diagonal per group, but
    each block is ``[x_k, u_k, slacks_k]``, so the hint is widened to the
    widest group's band (MicroSat: 20 against ``nx + nu - 1 = 11``).  The
    ``*_dev`` twins of the host arrays live on ``xp``.
    """

    def __init__(
        self, problem: TranscribedProblem, xp: ArrayBackend = HOST
    ) -> None:
        p = problem
        self.soft = (
            p.soft_inequality_mask()
            if p.n_ineq
            else HOST.zeros((0,), dtype="bool")
        )
        self.hard = ~self.soft
        self.n_soft = int(self.soft.sum())
        self.scale = p.variable_scales()
        self.qperm = p.stage_permutation(self.soft)
        self.bandwidth = p.kkt_half_bandwidth(self.soft)

        self.soft_dev = xp.asarray(self.soft, dtype="bool")
        self.hard_dev = xp.asarray(self.hard, dtype="bool")
        self.scale_dev = xp.asarray(self.scale)
        self.scale_outer = (
            self.scale_dev[None, None, :] * self.scale_dev[None, :, None]
        )
        self.diag = xp.arange(p.nz)
        self.qperm_dev = xp.asarray(self.qperm, dtype="int")


def _kkt_lanes(xp: ArrayBackend, grad, G, g_eq, J, h, nu, lam):
    """Per-lane scaled max-norm of the nonlinear KKT conditions.

    Dual stationarity and complementarity are divided by the IPOPT-style
    scaling ``s = max(s_max, mean |multipliers|) / s_max`` so that badly
    scaled constraint rows (whose multipliers are legitimately huge) do
    not keep the convergence measure artificially inflated.
    """
    s_max = 100.0
    n_mult = int(nu.shape[1]) + int(lam.shape[1])
    mult_mean = (
        xp.sum(xp.abs(nu), axis=1) + xp.sum(xp.abs(lam), axis=1)
    ) / max(n_mult, 1)
    sd = xp.maximum(s_max, mult_mean) / s_max

    r_dual = grad + xp.matmul(xp.transpose_last2(G), nu[:, :, None])[:, :, 0]
    if int(lam.shape[1]):
        r_dual = (
            r_dual
            + xp.matmul(xp.transpose_last2(J), lam[:, :, None])[:, :, 0]
        )
        primal_ineq = xp.max(xp.maximum(h, 0.0), axis=1)
        comp = _maxabs(xp, lam * h) / sd
        dual_feas = xp.max(xp.maximum(-lam, 0.0), axis=1) / sd
    else:
        primal_ineq = comp = dual_feas = xp.zeros((int(grad.shape[0]),))
    return xp.maximum_reduce(
        [
            _maxabs(xp, r_dual) / sd,
            _maxabs(xp, g_eq),
            primal_ineq,
            comp,
            dual_feas,
        ]
    )


def _merit_lanes(xp, lin, opt, layout, Z, X0, R, rho):
    """L1 exact-penalty merit function, per lane.

    Equality and hard-inequality violations are weighted by the adaptive
    ``rho``; softened rows carry the fixed ``soft_penalty`` weight that
    also prices their slacks inside the QP, so the QP direction is a
    descent direction for this merit (Fletcher's Sl1QP correspondence).
    Host iterates in, host ``(merit, weighted_violation)`` rows out (the
    line search is a host decision ladder).
    """
    f = lin.objective(Z, R)
    g = lin.equality_constraints(Z, X0, R)
    rho_dev = xp.asarray(rho)
    viol = rho_dev * xp.sum(xp.abs(g), axis=1)
    if int(layout.soft.shape[0]):
        h = lin.inequality_constraints(Z, R)
        hpos = xp.maximum(h, 0.0)
        viol = viol + rho_dev * xp.sum(hpos[:, layout.hard_dev], axis=1)
        viol = viol + opt.soft_penalty * xp.sum(
            hpos[:, layout.soft_dev], axis=1
        )
    return xp.to_host(f + viol), xp.to_host(viol)


def linearize_lanes(
    xp, problem, opt, lin, layout, Z, X0, R, NU, lm, exact, stats=None
):
    """Linearize ``k`` lanes at ``Z`` and scale the QP data.

    ``exact`` is the per-lane Hessian-model decision: ``False`` lanes get
    the linearizer's Gauss-Newton (PSD) Hessian, ``True`` lanes the exact
    Lagrangian Hessian at their multipliers ``NU`` — convexified on the
    host ONCE, so the QP receives a fixed PSD Hessian (re-regularizing
    inside the QP loop would change the subproblem between its own
    iterations).  ``lm`` is the per-lane Levenberg damping.  Returns the
    unscaled ``(grad, G, g_eq, J, h)`` for the KKT measure and the scaled
    ``(Hs, grad_s, Gs, Js)`` (multipliers are scaling-invariant).
    """
    t_lin = perf_counter()
    grad = lin.objective_gradient(Z, R)
    hess = HOST.flatnonzero(exact)
    if not hess.size:
        H = lin.objective_gauss_newton(Z, R)
    else:
        H = xp.zeros((int(Z.shape[0]), problem.nz, problem.nz))
        gn = HOST.flatnonzero(~exact)
        if gn.size:
            H[xp.asarray(gn, dtype="int")] = lin.objective_gauss_newton(
                Z[gn], None if R is None else R[gn]
            )
        for j in hess:
            H[int(j)] = xp.asarray(
                problem.lagrangian_hessian(
                    Z[j], NU[j], None if R is None else R[j]
                )
            )
    g_eq = lin.equality_constraints(Z, X0, R)
    G = lin.equality_jacobian(Z, R)
    h = lin.inequality_constraints(Z, R)
    J = lin.inequality_jacobian(Z, R)
    if stats is not None:
        stats["linearize_time"] += perf_counter() - t_lin

    scale = layout.scale_dev
    Hs = H * layout.scale_outer
    Hs[:, layout.diag, layout.diag] += xp.asarray(lm)[:, None]
    for j in hess:
        Hs[int(j)] = xp.asarray(_convexify(xp.to_host(Hs[int(j)])))
    grad_s = grad * scale
    Gs = G * scale[None, None, :]
    Js = J * scale[None, None, :]
    return (grad, G, g_eq, J, h), (Hs, grad_s, Gs, Js)


def subproblem_lanes(xp, opt, layout, Hs, grad_s, Gs, Js, g_eq, h):
    """Assemble the lanes' SQP subproblems from scaled linearizations.

    Builds the extended (Sl1QP) subproblem when soft rows exist:

        min 1/2 d'Hd + grad'd + rho_s 1't + kappa/2 t't
        s.t. G d = -g_eq; J_hard d <= -h_hard;
             J_soft d - t <= -h_soft; t >= 0

    and applies the stage-interleaved variable permutation.  Backend
    arrays in and out; returns the ``(H, g, G, b, J, d)`` stacks
    :func:`~repro.batch.qp.solve_qp_batch` takes (``J``/``d`` ``None``
    without inequality rows).  Scatter back with
    ``x[:, layout.qperm] = x_qp``.
    """
    k, nz = int(grad_s.shape[0]), int(grad_s.shape[1])
    m, n_soft = int(h.shape[1]), layout.n_soft
    if not n_soft:
        H, g, G = Hs, grad_s, Gs
        J, d = (Js, -h) if m else (None, None)
    else:
        n_hard = m - n_soft
        rows = slice(n_hard, n_hard + n_soft)
        hard_dev, soft_dev = layout.hard_dev, layout.soft_dev
        H = xp.zeros((k, nz + n_soft, nz + n_soft))
        H[:, :nz, :nz] = Hs
        se = xp.arange(nz, nz + n_soft)
        H[:, se, se] = opt.soft_quadratic
        g = xp.concatenate(
            [grad_s, xp.full((k, n_soft), opt.soft_penalty)], axis=1
        )
        G = xp.concatenate(
            [Gs, xp.zeros((k, int(Gs.shape[1]), n_soft))], axis=2
        )
        J = xp.zeros((k, m + n_soft, nz + n_soft))
        d = xp.zeros((k, m + n_soft))
        J[:, :n_hard, :nz] = Js[:, hard_dev]
        d[:, :n_hard] = -h[:, hard_dev]
        J[:, rows, :nz] = Js[:, soft_dev]
        J[:, rows, nz:] = -xp.eye(n_soft)
        d[:, rows] = -h[:, soft_dev]
        J[:, n_hard + n_soft :, nz:] = -xp.eye(n_soft)
    # Stage-interleave the variables (slacks next to their stage group)
    # so the condensed system is banded.
    qp_dev = layout.qperm_dev
    H, g, G = H[:, qp_dev][:, :, qp_dev], g[:, qp_dev], G[:, :, qp_dev]
    J = None if J is None else J[:, :, qp_dev]
    return (H, g, G, -g_eq, J, d)


def _warm_rows(values, shape, healths):
    """Usable rows of the per-lane trajectory warm starts, as ``(lane,
    row)``.  A row of the wrong shape is a caller bug.  A contaminated
    (non-finite) row is rejected and noted on its lane's health — the lane
    keeps its fresh seed — never propagated into the linearization."""
    for lane, value in enumerate(values or ()):
        if value is None:
            continue
        row = HOST.asarray(value)
        if tuple(row.shape) != shape:
            raise SolverError(
                f"warm start has shape {tuple(row.shape)}, expected {shape}"
            )
        if bool(HOST.scalar(HOST.all(HOST.isfinite(row)))):
            yield lane, row
        else:
            healths[lane].warm_start_reseeded = True
            healths[lane].note("warm_start_reseeded")


def solve_lanes(
    problem: TranscribedProblem,
    opt: IPMOptions,
    lin,
    layout: LaneLayout,
    stats: Dict[str, object],
    x_init,
    R=None,
    z_warm: Optional[Sequence] = None,
    budgets: Optional[Sequence[Optional[SolveBudget]]] = None,
    xp: ArrayBackend = HOST,
    fault_hooks: Optional[Sequence[Optional[object]]] = None,
    admm_warm: Optional[List[Optional[dict]]] = None,
):
    """Run the SQP iteration over ``B`` lanes; returns ``(results, report)``.

    Args:
        lin: the linearizer — the seven lane-axis evaluation methods of
            :class:`repro.linearize.LaneLinearizer` plus ``initial_guess``
            and ``codegen_stats``.
        stats: the caller's :func:`new_stats` record, accumulated into.
        x_init / R: measured states ``(B, nx)`` and the normalized
            reference stack ``(B, N+1, nref)`` (or ``None``), host arrays
            the caller validated — what a poisoned input turns into
            differs per entry point.
        z_warm: optional per-lane trajectory warm starts (the shifted
            previous plan).  The SQP multipliers always start at zero: a
            receding-horizon plan never passes the stopping test at the
            first iteration, the only place carried duals could act.
            Within the call, a lane's interior-point QP starts from the
            multipliers ``(nu, lam)`` of its previous QP (the *carry*,
            floored as :func:`repro.mpc.qp.solve_qp`'s ``warm`` says) while
            the lane is in its local phase: that QP converged to a finite
            step the line search took in full (``alpha = 1``), and the new
            QP's Levenberg damping ``lm`` is at its floor.  Every other QP
            starts cold: the first of each lane, the one after a capped,
            budget-stopped, failed or non-finite QP or a shortened step,
            and a damped one.  ADMM subproblems and their rescues never
            read it, and nothing of it outlives the call.
        budgets: optional per-lane compute allowances.  A budgeted lane
            stops at the first checkpoint past its limit — overrun bounded
            by one linearization plus one QP iteration — and reports
            ``"budget_exhausted"`` with the best partial iterate (usable
            for real-time-iteration warm starting) instead of raising.
        fault_hooks: optional per-lane :mod:`repro.faults` solver-layer
            hooks, threaded into every QP solve of their lane.
        admm_warm: per-lane ADMM warm state (``{x, z, y, rho}`` rows, or
            ``None`` for a cold lane), updated in place after every
            subproblem so a caller can carry it across solves.
    """
    t_solve = perf_counter()
    p, m, nz = problem, problem.n_ineq, problem.nz
    soft, hard, n_soft = layout.soft, layout.hard, layout.n_soft
    scale = layout.scale
    X0 = HOST.asarray(x_init)
    lanes = int(X0.shape[0])
    healths = [SolverHealth() for _ in range(lanes)]
    method = opt.qp.method

    Z = xp.to_host(lin.initial_guess(X0))
    for lane, row in _warm_rows(z_warm, (nz,), healths):
        Z[lane] = row
    Z[:, p.state_slice(0)] = X0
    NU = HOST.zeros((lanes, p.n_eq))
    LAM = HOST.zeros((lanes, m))

    rho = HOST.full((lanes,), opt.penalty_init)
    # Levenberg-Marquardt damping adapted on KKT progress: oscillation
    # (KKT increase) shrinks the step by inflating the Hessian diagonal.
    lm = HOST.full((lanes,), opt.regularization)
    # Lanes whose last step the line search rejected outright: a "hybrid"
    # lane builds its next subproblem on the Gauss-Newton model.  An exact
    # Hessian indefinite past the damping cap yields a direction that
    # ascends the merit, and a lane that barely moved would re-solve the
    # same subproblem and reject the same step until its iteration cap.
    rejected = HOST.zeros((lanes,), dtype="bool")

    budgets = [None] * lanes if budgets is None else budgets
    clocks = [None if bud is None else bud.start() for bud in budgets]
    deadlines = [None if clock is None else clock.deadline for clock in clocks]
    qp_caps = [None if bud is None else bud.qp_iterations for bud in budgets]
    max_outer = HOST.asarray(
        [
            opt.max_iterations
            if bud is None or bud.sqp_iterations is None
            else min(opt.max_iterations, bud.sqp_iterations)
            for bud in budgets
        ],
        dtype="int",
    )

    histories: List[List[float]] = [[] for _ in range(lanes)]
    windows: List[List[float]] = [[] for _ in range(lanes)]
    status: List[Optional[str]] = [None] * lanes  # None: still iterating
    active = HOST.ones((lanes,), dtype="bool")
    iterations = HOST.zeros((lanes,), dtype="int")
    qp_total = HOST.zeros((lanes,), dtype="int")
    best_kkt = HOST.full((lanes,), float("inf"))
    bestZ, bestNU, bestLAM = Z.copy(), NU.copy(), LAM.copy()
    # The undamped QP multipliers are often the sharper KKT certificate
    # once the primal step has shrunk.  They are used only for the
    # convergence measure — adopting them as solver state would
    # destabilize the damped multiplier iteration.
    have_cert = HOST.zeros((lanes,), dtype="bool")
    CERT_NU, CERT_LAM = HOST.zeros_like(NU), HOST.zeros_like(LAM)

    report = BatchSolveReport(lanes=lanes)
    if admm_warm is None:
        admm_warm = [None] * lanes
    carry: List[Optional[tuple]] = [None] * lanes  # see ``z_warm`` above

    def freeze(lane: int, verdict: str) -> None:
        active[lane] = False
        status[lane] = verdict

    def freeze_cap(lane: int) -> None:
        # A budget-shortened iteration cap is a budget stop, not the
        # solver's own ``max_iterations`` verdict.
        iterations[lane] = int(max_outer[lane])
        capped = max_outer[lane] < opt.max_iterations
        freeze(lane, "budget_exhausted" if capped else "max_iterations")

    def qp_left(lane: int, spent=0) -> Optional[int]:
        """Unspent share of the lane's QP iteration budget (``spent``:
        iterations not yet booked to ``qp_total``); ``None``: unbudgeted."""
        if qp_caps[lane] is None:
            return None
        return qp_caps[lane] - int(qp_total[lane]) - int(spent)

    def qp_budget(ids, qp_max: int, spent=None):
        """Per-lane iteration caps of one QP solve."""
        left = [
            qp_left(lane, used)
            for lane, used in zip(ids, spent or [0] * len(ids))
        ]
        return HOST.asarray(
            [qp_max if cap is None else min(qp_max, cap) for cap in left],
            dtype="int",
        )

    global_max = int(max_outer.max()) if lanes else 0
    for it in range(1, global_max + 1):
        # Loop-top budget ladder (cap bound, then clock).
        for lane in HOST.flatnonzero(active).tolist():
            if it > max_outer[lane]:
                freeze_cap(lane)
            elif clocks[lane] is not None and (
                clocks[lane].expired()
                or clocks[lane].qp_exhausted(int(qp_total[lane]))
            ):
                freeze(lane, "budget_exhausted")
                iterations[lane] = it - 1
        idx = HOST.flatnonzero(active)
        if not idx.size:
            break
        iterations[idx] = it
        report.sqp_lane_iterations += int(idx.size)
        report.sqp_lane_slots += lanes

        # Per-lane Hessian model: "hybrid" is Gauss-Newton (PSD, robust
        # far from the solution) until the lane's KKT residual falls below
        # ``hybrid_switch``, then exact — except right after a step the
        # line search rejected outright.
        exact = HOST.asarray(
            [
                opt.hessian == "exact"
                or (
                    opt.hessian == "hybrid"
                    and bool(histories[lane])
                    and histories[lane][-1] < opt.hybrid_switch
                    and not rejected[lane]
                )
                for lane in idx.tolist()
            ],
            dtype="bool",
        )
        (grad, G, g_eq, J, h), scaled = linearize_lanes(
            xp, p, opt, lin, layout,
            Z[idx], X0[idx], None if R is None else R[idx],
            NU[idx], lm[idx], exact, stats,
        )

        # The per-iteration host materialization: the KKT reductions
        # plus the gradient rows for the descent test.
        kkt_dev = _kkt_lanes(
            xp, grad, G, g_eq, J, h,
            xp.asarray(NU[idx]), xp.asarray(LAM[idx]),
        )
        certs = have_cert[idx]
        if certs.any():
            kkt_cert = _kkt_lanes(
                xp, grad, G, g_eq, J, h,
                xp.asarray(CERT_NU[idx]), xp.asarray(CERT_LAM[idx]),
            )
            kkt_dev = xp.where(
                xp.asarray(certs, dtype="bool"),
                xp.minimum(kkt_dev, kkt_cert),
                kkt_dev,
            )
        kkt = xp.to_host(kkt_dev)
        grad_h = xp.to_host(grad)
        for k_l, lane in enumerate(idx.tolist()):
            hist = histories[lane]
            hist.append(float(kkt[k_l]))
            if kkt[k_l] < best_kkt[lane]:
                best_kkt[lane] = kkt[k_l]
                bestZ[lane], bestNU[lane], bestLAM[lane] = (
                    Z[lane], NU[lane], LAM[lane],
                )
            if kkt[k_l] < opt.tolerance:
                freeze(lane, "converged")
            elif len(hist) > 1:
                if hist[-1] > hist[-2]:
                    lm[lane] = min(lm[lane] * 10.0, 1e2)
                else:
                    lm[lane] = max(lm[lane] / 3.0, opt.regularization)

        w = HOST.flatnonzero(active[idx])
        if not w.size:
            continue
        gl = idx[w]  # global lane ids of the working sub-batch
        ids = gl.tolist()
        k = len(ids)
        w_dev = xp.asarray(w, dtype="int")
        hooks = fault_hooks and [fault_hooks[lane] for lane in ids]

        qp_args = subproblem_lanes(
            xp, opt, layout,
            *(a[w_dev] for a in scaled), g_eq[w_dev], h[w_dev],
        )
        # The earliest deadline of the sub-batch stops its QP solve, and
        # each lane gets only the unspent share of its inner-iteration
        # budget (the loop-top check guarantees it is >= 1 here).
        deadline = min(
            (deadlines[lane] for lane in ids if deadlines[lane] is not None),
            default=None,
        )
        starved: List[int] = []  # wanted an ADMM rescue, no budget for it
        if method == "admm":
            # Lazy: repro.firstorder.batch imports repro.batch.qp (the seam
            # and the lane-status codes), so importing it while this
            # package initialises would be a cycle.
            from repro.firstorder.batch import solve_qp_admm_batch

            # ADMM counts its own (cheaper) iterations against the budget.
            qp = solve_qp_admm_batch(
                *(None if a is None else xp.to_host(a) for a in qp_args),
                opt.qp,
                deadline=deadline,
                iteration_caps=qp_budget(ids, opt.qp.admm_max_iterations),
                backend=xp,
                warm=_stack_admm_warm(
                    admm_warm, ids, qp_args, opt.qp.admm_rho
                ),
                fault_hooks=hooks,
            )
            if qp.warm is not None:
                # its iterate triple + adapted rho seed the next subproblem
                for k_l, lane in enumerate(ids):
                    admm_warm[lane] = {
                        key: rows[k_l] for key, rows in qp.warm.items()
                    }

            # ---- method-health fallback ladder (lane-scatter rescue) --
            # Lanes whose first-order run ended stalled, diverged, or
            # failed (and that the rescue polish could not repair) are
            # gathered, re-solved by the interior-point QP step
            # (``solve_qp_batch``) and scattered back before the post-QP
            # ladder classifies them.  Deadline-stopped lanes are left alone
            # (rescue work past a deadline breaks the budget contract); a
            # lane whose stalled run ate its whole QP iteration budget is
            # *starved*: no rescue, its stalled direction discarded below.
            # Warm-start hygiene: the ADMM triple means nothing to the
            # IPM and a later ADMM solve must never resume from the
            # stalled iterate, so a rescued lane's ``admm_warm`` is
            # dropped (its next ADMM solve starts cold).
            resc: List[int] = []
            for k_l, lane in enumerate(ids if opt.qp.admm_fallback else ()):
                cond = qp.stats[k_l].conditioning
                wants = qp.status[k_l] == "failed" or (
                    cond is not None and cond.needs_fallback
                )
                if not wants or bool(qp.budget_exhausted[k_l]):
                    continue
                if clocks[lane] is not None and clocks[lane].expired():
                    continue
                left = qp_left(lane, qp.iterations[k_l])
                if left is not None and left < 1:
                    starved.append(k_l)
                else:
                    resc.append(k_l)
            if resc:
                r_dev = xp.asarray(
                    HOST.asarray(resc, dtype="int"), dtype="int"
                )
                rqp = solve_qp_batch(
                    *(None if a is None else a[r_dev] for a in qp_args),
                    opt.qp,
                    bandwidth=layout.bandwidth,
                    deadline=deadline,
                    iteration_caps=qp_budget(
                        [ids[k_l] for k_l in resc],
                        opt.qp.max_iterations,
                        [qp.iterations[k_l] for k_l in resc],
                    ),
                    backend=xp,
                    fault_hooks=None
                    if hooks is None
                    else [hooks[k_l] for k_l in resc],
                )
                report.qp_lane_iterations += rqp.batch.lane_iterations
                report.qp_lane_slots += rqp.batch.lane_slots
                for j, k_l in enumerate(resc):
                    lane = ids[k_l]
                    healths[lane].method_fallbacks += 1
                    healths[lane].note(f"admm_fallback_it{it}")
                    admm_warm[lane] = None
                    # book the stalled attempt; the rescue stands in for it
                    absorb_qp_stats(stats, healths[lane], qp.stats[k_l])
                    qp.stats[k_l] = rqp.stats[j]
                    qp.x[k_l], qp.nu[k_l], qp.lam[k_l] = (
                        rqp.x[j], rqp.nu[j], rqp.lam[j],
                    )
                    qp.status[k_l] = rqp.status[j]
                    qp.budget_exhausted[k_l] = rqp.budget_exhausted[j]
                    qp.iterations[k_l] += int(rqp.iterations[j])
        else:
            for lane in ids:
                if lm[lane] > opt.regularization:
                    carry[lane] = None  # a damped Hessian: a new subproblem
            warm = _stack_carry(carry, ids, qp_args)
            if warm is not None:
                stats["qp_warm_starts"] += int(warm["carried"].sum())
            qp = solve_qp_batch(
                *qp_args,
                opt.qp,
                bandwidth=layout.bandwidth,
                deadline=deadline,
                iteration_caps=qp_budget(ids, opt.qp.max_iterations),
                backend=xp,
                warm=warm,
                fault_hooks=hooks,
            )

        # Scatter the stage-interleaved solution back to the original
        # variable order (multipliers are unaffected by it) and the
        # extended rows back to the problem's.
        NU_QP = HOST.asarray(qp.nu)
        LAM_QP = qp_lam = HOST.asarray(qp.lam)
        X_qp = HOST.empty(tuple(qp.x.shape))
        X_qp[:, layout.qperm] = HOST.asarray(qp.x)
        D = X_qp[:, :nz] * scale
        if n_soft:
            n_hard = m - n_soft
            LAM_QP = HOST.zeros((k, m))
            LAM_QP[:, hard] = qp_lam[:, :n_hard]
            LAM_QP[:, soft] = qp_lam[:, n_hard : n_hard + n_soft]

        report.qp_lane_iterations += qp.batch.lane_iterations
        report.qp_lane_slots += qp.batch.lane_slots
        finite = (
            HOST.all(HOST.isfinite(D), axis=1)
            & HOST.all(HOST.isfinite(NU_QP), axis=1)
            & HOST.all(HOST.isfinite(LAM_QP), axis=1)
        )
        # Per-lane post-QP ladder: starved rescue -> budget stop; a QP
        # that cannot even be factorized -> a structured "diverged" on the
        # last globalized iterate; deadline passed mid-QP -> budget stop
        # (the direction is a partial, possibly zero, interior-point
        # iterate: not worth line-searching past the deadline);
        # non-finite direction or multipliers -> rejected (NaN merit
        # values would silently accept the step), damping escalated and
        # the lane re-linearized, diverged at maximum damping.
        proceed = HOST.ones((k,), dtype="bool")
        for k_l, lane in enumerate(ids):
            qp_total[lane] += int(qp.iterations[k_l])
            absorb_qp_stats(stats, healths[lane], qp.stats[k_l])
            proceed[k_l] = False
            if k_l in starved:
                freeze(lane, "budget_exhausted")
            elif qp.status[k_l] == "failed":
                healths[lane].note(f"qp_failed_it{it}")
                freeze(lane, "diverged")
            elif clocks[lane] is not None and (
                bool(qp.budget_exhausted[k_l]) or clocks[lane].expired()
            ):
                freeze(lane, "budget_exhausted")
            elif not finite[k_l]:
                healths[lane].steps_rejected += 1
                healths[lane].note(f"nonfinite_step_it{it}")
                if lm[lane] >= 1e2:
                    freeze(lane, "diverged")
                else:
                    lm[lane] = min(lm[lane] * 100.0, 1e2)
            else:
                proceed[k_l] = True

        ls = HOST.flatnonzero(proceed)
        if not ls.size:
            continue
        ll = gl[ls]  # lanes entering the line search
        Dl, NU_l, LAM_l = D[ls], NU_QP[ls], LAM_QP[ls]
        Rl = R[ll] if R is not None else None

        # -- L1 exact-penalty merit line search ------------------------
        mult_inf = HOST.maximum(
            HOST.maximum(_maxabs(HOST, NU_l), _maxabs(HOST, LAM_l)),
            opt.penalty_init,
        )
        for k_l, lane in enumerate(ll.tolist()):
            if rho[lane] < 2.0 * mult_inf[k_l]:
                rho[lane] = max(rho[lane], 2.0 * mult_inf[k_l])
                windows[lane].clear()  # the merit scale changed
        merit0, viol0 = _merit_lanes(
            xp, lin, opt, layout, Z[ll], X0[ll], Rl, rho[ll]
        )
        # Non-monotone acceptance: against the maximum merit of the last
        # ``watchdog`` iterations (breaks Maratos-effect cycling).
        merit_ref = HOST.empty((int(ls.size),))
        for k_l, lane in enumerate(ll.tolist()):
            windows[lane].append(float(merit0[k_l]))
            if len(windows[lane]) > opt.watchdog:
                windows[lane].pop(0)
            merit_ref[k_l] = max(windows[lane])
        # Directional derivative estimate of the merit: the QP direction
        # removes the linearized violation entirely.
        descent = HOST.einsum("bi,bi->b", grad_h[w][ls], Dl) - viol0
        # Trust-region-style cap on the scaled step (``step_clip``).
        step_inf = _maxabs(HOST, Dl / scale)
        moving = step_inf > 0.0
        with HOST.errstate():
            alpha = HOST.where(
                moving,
                HOST.minimum(
                    1.0, opt.step_clip / HOST.where(moving, step_inf, 1.0)
                ),
                1.0,
            )
        accepted = HOST.zeros((int(ls.size),), dtype="bool")
        floor = opt.armijo * HOST.minimum(descent, 0.0)
        for _ in range(opt.max_backtracks):
            un = HOST.flatnonzero(~accepted)
            if not un.size:
                break
            merit_t, _ = _merit_lanes(
                xp, lin, opt, layout,
                Z[ll[un]] + alpha[un, None] * Dl[un],
                X0[ll[un]],
                Rl[un] if Rl is not None else None,
                rho[ll[un]],
            )
            passed = merit_t <= merit_ref[un] + alpha[un] * floor[un]
            accepted[un[passed]] = True
            alpha[un[~passed]] *= 0.5

        rejected[ll] = ~accepted
        # Damped multiplier update (tracks the primal step length); the
        # raw QP estimates are also kept as the sharper KKT certificate.
        Z[ll] = Z[ll] + alpha[:, None] * Dl
        NU[ll] = NU[ll] + alpha[:, None] * (NU_l - NU[ll])
        LAM[ll] = LAM[ll] + alpha[:, None] * (LAM_l - LAM[ll])
        CERT_NU[ll], CERT_LAM[ll], have_cert[ll] = NU_l, LAM_l, True

        # The interior-point carry: the multipliers of a converged QP whose
        # finite step the line search took in full (ADMM lanes, rescued or
        # not, carry nothing).
        if method == "ipm":
            for k_l in HOST.flatnonzero(accepted & (alpha == 1.0)).tolist():
                j = int(ls[k_l])
                if qp.status[j] == "converged" and HOST.all(
                    HOST.isfinite(qp_lam[j])
                ):
                    carry[int(ll[k_l])] = (NU_l[k_l], qp_lam[j])

        # Control-grade stop: a full step from a control-grade
        # linearization that barely moved the served input ``u_0``.  An
        # interior-point step the line search rejected outright counts
        # too: the lane barely moved and its next QP starts cold, so it
        # re-solves the same subproblem and rejects the same step until
        # its iteration cap (a converged QP whose predicted merit decrease
        # is below the QP's own accuracy), while taking the step or not
        # moves ``u_0`` by at most ``input_tolerance``.
        if opt.input_tolerance is not None:
            u0 = p.input_slice(0)
            settled = accepted & (alpha == 1.0)
            if method == "ipm":
                settled |= ~accepted
            settled &= (
                _maxabs(HOST, Dl[:, u0] / scale[u0]) <= opt.input_tolerance
            )
            for k_l in HOST.flatnonzero(settled).tolist():
                lane = int(ll[k_l])
                if (
                    qp.status[int(ls[k_l])] == "converged"
                    and histories[lane][-1] <= CONTROL_GRADE_KKT
                ):
                    healths[lane].note(f"input_settled_it{it}")
                    stats["input_stops"] += 1
                    freeze(lane, "converged")

    # Lanes still iterating after their last permitted iteration.
    for lane in HOST.flatnonzero(active).tolist():
        freeze_cap(lane)

    stats["solves"] += lanes
    stats["sqp_iterations"] += int(iterations.sum())
    stats["qp_iterations"] += int(qp_total.sum())
    if lin.codegen_stats is not None:
        stats["codegen"] = lin.codegen_stats.as_dict()

    wall = perf_counter() - t_solve
    objectives = xp.to_host(lin.objective(Z, R))
    results: List[IPMResult] = []
    for lane in range(lanes):
        hist = histories[lane]
        # On an unconverged exit, restore an earlier iterate only when it
        # was *decisively* better — otherwise keep the last one so
        # warm-started receding-horizon use accumulates progress across
        # control steps (real-time-iteration behavior) instead of
        # freezing on a noisy KKT monitor.
        if (
            status[lane] != "converged"
            and hist
            and best_kkt[lane] < 0.1 * hist[-1]
        ):
            Z[lane], NU[lane], LAM[lane] = (
                bestZ[lane], bestNU[lane], bestLAM[lane],
            )
            hist[-1] = float(best_kkt[lane])
            objectives[lane] = p.objective(
                Z[lane], R[lane] if R is not None else None
            )
        results.append(
            IPMResult(
                z=Z[lane].copy(),
                converged=status[lane] == "converged",
                iterations=int(iterations[lane]),
                qp_iterations=int(qp_total[lane]),
                objective=float(objectives[lane]),
                kkt_residual=hist[-1] if hist else float("inf"),
                residual_history=hist,
                nu=NU[lane].copy(),
                lam=LAM[lane].copy() if m else None,
                status=status[lane],
                solve_time=wall,
                health=healths[lane],
            )
        )
    return results, report


def _stack_carry(carry, ids, qp_args) -> Optional[dict]:
    """Take the sub-batch ``ids``' interior-point carries (each is used
    once) as the ``{nu, lam, carried}`` rows
    :func:`~repro.batch.qp.solve_qp_batch` takes; ``None`` when no lane has
    one.  A lane without a carry rides along on zero rows with ``carried``
    off."""
    rows = [carry[lane] for lane in ids]
    for lane in ids:
        carry[lane] = None
    if all(row is None for row in rows):
        return None
    _, _, _, b, _, d = qp_args
    k = len(ids)
    warm = {
        "nu": HOST.zeros((k, int(b.shape[1]))),
        "lam": HOST.zeros((k, 0 if d is None else int(d.shape[1]))),
        "carried": HOST.zeros((k,), dtype="bool"),
    }
    for k_l, row in enumerate(rows):
        if row is not None:
            warm["nu"][k_l], warm["lam"][k_l] = row
            warm["carried"][k_l] = True
    return warm


def _stack_admm_warm(admm_warm, ids, qp_args, rho0: float) -> Optional[dict]:
    """The sub-batch ``ids``' rows of the per-lane ADMM warm state as the
    ``{x, z, y, rho}`` stacks ``solve_qp_admm_batch`` takes; ``None`` when
    every lane is cold.  A cold lane among warm ones rides along on the
    cold-start pattern (zero iterates, the configured rho)."""
    rows = [admm_warm[lane] for lane in ids]
    if all(row is None for row in rows):
        return None
    _, g, _, b, _, d = qp_args
    k, n = int(g.shape[0]), int(g.shape[1])
    msz = int(b.shape[1]) + (0 if d is None else int(d.shape[1]))
    warm = {
        "x": HOST.zeros((k, n)),
        "z": HOST.zeros((k, msz)),
        "y": HOST.zeros((k, msz)),
        "rho": HOST.full((k,), rho0),
    }
    for k_l, row in enumerate(rows):
        if row is not None:
            for key, stack in warm.items():
                stack[k_l] = row[key]
    return warm


class BatchSolver:
    """Vectorized multi-instance solver for one transcribed problem.

    All lanes share the problem structure (robot + horizon + task); each
    lane brings its own measured state, reference, warm start, and budget.
    ``backend`` selects the array namespace for the heavy math (a
    :func:`~repro.batch.backend.get_backend` spec; default numpy);
    ``options.qp.method`` the inner QP solver (``"ipm"`` — the batched
    interior-point of :mod:`repro.batch.qp` — or ``"admm"`` — the
    device-resident first-order iteration of
    :mod:`repro.firstorder.batch`).
    """

    def __init__(
        self,
        problem: TranscribedProblem,
        options: Optional[IPMOptions] = None,
        backend=None,
    ):
        self.problem = problem
        self.options = options or IPMOptions()
        if self.options.hessian != "gauss_newton":
            raise SolverError(
                "BatchSolver supports only the Gauss-Newton Hessian model; "
                f"got hessian={self.options.hessian!r}"
            )
        self.xp = get_backend(backend)
        #: optional per-lane :mod:`repro.faults` solver-layer hooks, the
        #: batched twin of ``InteriorPointSolver.fault_hook``: IPM and ADMM
        #: lanes consult them (host backends for the IPM).
        self.fault_hooks: Optional[Sequence[Optional[object]]] = None
        self.layout = LaneLayout(problem, self.xp)
        self.lin = BatchLinearizer(problem, backend=self.xp)
        #: cumulative statistics with the scalar solver's keys, so fleet
        #: telemetry absorbs a batch solver like any other
        self.stats = new_stats()
        self.last_report: Optional[BatchSolveReport] = None

    # -- serve adapter -----------------------------------------------------

    def solve_payloads(self, payloads: Sequence[Dict[str, object]]):
        """Solve a group of ``ControlSession.solve_payload`` dicts.

        Inline shards call this in the engine's process, process shards
        inside their worker, on the same (padded) dicts.
        """
        X0 = HOST.stack([HOST.asarray(pl["x"]) for pl in payloads])
        refs = [pl.get("ref") for pl in payloads]
        budgets = [
            SolveBudget(
                wall_clock=pl.get("deadline_s"),
                sqp_iterations=pl.get("max_sqp_iterations"),
                qp_iterations=pl.get("max_qp_iterations"),
            )
            for pl in payloads
        ]
        return self.solve(
            X0,
            refs=refs if self.problem.nref else None,
            z_warm=[pl.get("z_warm") for pl in payloads],
            budgets=budgets,
        )

    # -- the batched solve -------------------------------------------------

    def solve(
        self,
        x_init,
        refs=None,
        z_warm: Optional[Sequence] = None,
        budgets: Optional[Sequence[Optional[SolveBudget]]] = None,
    ):
        """Solve ``B`` instances; returns ``(results, report)``.

        ``results`` is a list of per-lane :class:`IPMResult`; ``report`` a
        :class:`BatchSolveReport` with lane-occupancy telemetry.
        """
        X0 = HOST.asarray(x_init)
        if X0.ndim != 2 or X0.shape[1] != self.problem.nx:
            raise SolverError(
                f"x_init must be (B, {self.problem.nx}), "
                f"got shape {tuple(X0.shape)}"
            )
        if not bool(HOST.scalar(HOST.all(HOST.isfinite(X0)))):
            raise StateValidationError(
                "batched x_init contains non-finite entries; "
                "pre-filter poisoned lanes before batching"
            )
        R_dev = self.lin.normalize_ref(refs, int(X0.shape[0]))
        R = None if R_dev is None else self.xp.to_host(R_dev)
        if R is not None and not bool(HOST.scalar(HOST.all(HOST.isfinite(R)))):
            raise StateValidationError(
                "batched reference contains non-finite entries"
            )
        results, report = solve_lanes(
            self.problem, self.options, self.lin, self.layout, self.stats,
            X0, R, z_warm, budgets,
            xp=self.xp,
            fault_hooks=self.fault_hooks,
        )
        self.last_report = report
        return results, report
