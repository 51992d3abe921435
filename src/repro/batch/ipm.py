"""Batched SQP + interior-point solver over stacked MPC instances.

:class:`BatchSolver` runs the same Gauss-Newton SQP iteration as
:class:`repro.mpc.ipm.InteriorPointSolver` — same linearization, same
scaled Sl1QP subproblem with the stage-interleaved banded permutation,
same L1 exact-penalty watchdog line search, same Levenberg adaptation and
best-iterate restore — but over ``B`` lanes at once:

* linearization runs through :class:`~repro.batch.transcription.
  BatchLinearizer` (one vectorized sweep instead of ``B`` Python loops);
* the QP subproblems of all active lanes are solved by one
  :func:`~repro.batch.qp.solve_qp_batch` call sharing a single
  factorization sweep per interior-point iteration;
* every lane carries its own penalty ``rho``, damping ``lm``, merit
  window, KKT history, and budget clock; lanes freeze individually on
  convergence, divergence, or budget exhaustion (continuous-batching
  semantics), and frozen lanes are excluded from all later work.

Array ops route through the :mod:`repro.batch.backend` seam.  The
host-sync contract on a device backend: the heavy tensors (Hessians,
Jacobians, constraint stacks, QP iterates) live on the device from
linearization through the entire QP loop; per SQP iteration the solver
materializes only the small per-lane reductions the Python bookkeeping
needs (the KKT residual vector, the scaled gradient for the descent test,
one merit value per line-search trial).  The inner QP loop itself runs
with **zero** per-iteration host syncs (see :mod:`repro.batch.qp`).
Small SQP state (iterates ``Z``, multipliers, penalties, clocks) is
host-resident — it is touched lane-wise by watchdog windows and budget
ladders, which are Python decisions.

Per-lane results come back as ordinary :class:`~repro.mpc.ipm.IPMResult`
objects, so the serve layer's classification ladder consumes a batched
lane exactly like a scalar solve.  Intentional deviations from the scalar
path, each forced by batching:

* only the Gauss-Newton Hessian model is supported (the exact/hybrid
  contraction is stage-sequential; non-GN robots fall back to scalar
  solves in the serve integration);
* a lane whose QP cannot be factorized freezes as ``"diverged"`` instead
  of raising, because one lane must not abort the batch;
* ``result.solve_time`` is the *batch* wall clock for every lane — that
  is the latency each lane actually experienced waiting for the group;
* state validation is batch-level: any non-finite ``x_init`` or
  reference raises before the solve starts, as on the scalar path, so
  callers (the serve engine) pre-filter poisoned lanes.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Sequence

from repro.errors import SolverError, StateValidationError
from repro.mpc.budget import SolveBudget
from repro.mpc.health import SolverHealth
from repro.mpc.ipm import IPMOptions, IPMResult, InteriorPointSolver
from repro.mpc.qp import QP_METHODS
from repro.mpc.transcription import TranscribedProblem

from .backend import HOST, ArrayBackend, get_backend
from .qp import _maxabs, solve_qp_batch
from .transcription import BatchLinearizer

__all__ = ["BatchSolveReport", "BatchSolver"]


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


def _kkt_batch(xp: ArrayBackend, grad, G, g_eq, J, h, nu, lam):
    """Batched twin of ``repro.mpc.ipm._kkt_residual`` (same scaling)."""
    s_max = 100.0
    n_mult = int(nu.shape[1]) + int(lam.shape[1])
    if n_mult:
        mult_mean = (
            xp.sum(xp.abs(nu), axis=1) + xp.sum(xp.abs(lam), axis=1)
        ) / n_mult
    else:
        mult_mean = xp.zeros((int(nu.shape[0]),))
    sd = xp.maximum(s_max, mult_mean) / s_max

    r_dual = grad + xp.matmul(xp.transpose_last2(G), nu[:, :, None])[:, :, 0]
    if int(lam.shape[1]):
        r_dual = (
            r_dual
            + xp.matmul(xp.transpose_last2(J), lam[:, :, None])[:, :, 0]
        )
        primal_ineq = (
            xp.max(xp.maximum(h, 0.0), axis=1)
            if int(h.shape[1])
            else xp.zeros((int(h.shape[0]),))
        )
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


class BatchSolver:
    """Vectorized multi-instance solver for one transcribed problem.

    All lanes share the problem structure (robot + horizon + task); each
    lane brings its own measured state, reference, warm start, and budget.
    ``backend`` selects the array namespace for the heavy math (default:
    the process-wide selection — ``REPRO_ARRAY_BACKEND`` or numpy);
    ``qp_method`` the inner QP solver (``"ipm"`` — the batched
    interior-point of :mod:`repro.batch.qp` — or ``"admm"`` — the
    device-resident first-order iteration of
    :mod:`repro.firstorder.batch`; default: ``options.qp.method``).
    """

    def __init__(
        self,
        problem: TranscribedProblem,
        options: Optional[IPMOptions] = None,
        backend=None,
        qp_method: Optional[str] = None,
    ):
        self.problem = problem
        self.options = options or IPMOptions()
        if self.options.hessian != "gauss_newton":
            raise SolverError(
                "BatchSolver supports only the Gauss-Newton Hessian model; "
                f"got hessian={self.options.hessian!r}"
            )
        self.qp_method = qp_method or self.options.qp.method
        if self.qp_method not in QP_METHODS:
            raise SolverError(
                f"qp_method must be one of {QP_METHODS}, got {self.qp_method!r}"
            )
        self.xp = get_backend(backend)
        #: optional per-lane :mod:`repro.faults` solver-layer hooks, the
        #: batched twin of ``InteriorPointSolver.fault_hook``.  Only ADMM
        #: lanes consult them (the batched IPM has no hook points yet).
        self.fault_hooks: Optional[Sequence[Optional[object]]] = None
        # Structure donor: reuses the scalar solver's stage-interleaved
        # permutations and band hints so both paths condense identically.
        self._donor = InteriorPointSolver(problem, self.options)
        self.lin = BatchLinearizer(problem, backend=self.xp)
        #: cumulative statistics with the scalar solver's keys, so fleet
        #: telemetry absorbs a batch solver like any other
        self.stats: Dict[str, float] = {
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
            # linearize-phase codegen record (kernel tier, cache counters);
            # None while the batch linearizer runs without fused kernels
            "codegen": None,
        }
        self.last_report: Optional[BatchSolveReport] = None

    # -- serve adapter -----------------------------------------------------

    def solve_payloads(self, payloads: Sequence[Dict[str, object]]):
        """Solve a group of ``ControlSession.solve_payload`` dicts.

        The payload schema is the same one the process-pool workers
        consume, so the batched backend slots into the engine's existing
        dispatch plumbing.
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
            nu_warm=[pl.get("nu_warm") for pl in payloads],
            lam_warm=[pl.get("lam_warm") for pl in payloads],
            budgets=budgets,
        )

    # -- the batched solve -------------------------------------------------

    def solve(
        self,
        x_init,
        refs=None,
        z_warm: Optional[Sequence] = None,
        nu_warm: Optional[Sequence] = None,
        lam_warm: Optional[Sequence] = None,
        budgets: Optional[Sequence[Optional[SolveBudget]]] = None,
    ):
        """Solve ``B`` instances; returns ``(results, report)``.

        ``results`` is a list of per-lane :class:`IPMResult`; ``report`` a
        :class:`BatchSolveReport` with lane-occupancy telemetry.
        """
        t_solve = perf_counter()
        p = self.problem
        opt = self.options
        xp = self.xp
        X0 = HOST.asarray(x_init)
        if X0.ndim != 2 or X0.shape[1] != p.nx:
            raise SolverError(
                f"x_init must be (B, {p.nx}), got shape {tuple(X0.shape)}"
            )
        lanes = int(X0.shape[0])
        if not bool(HOST.scalar(HOST.all(HOST.isfinite(X0)))):
            raise StateValidationError(
                "batched x_init contains non-finite entries; "
                "pre-filter poisoned lanes before batching"
            )
        R_dev = self.lin.normalize_ref(refs, lanes)
        R = None if R_dev is None else xp.to_host(R_dev)
        if R is not None and not bool(HOST.scalar(HOST.all(HOST.isfinite(R)))):
            raise StateValidationError(
                "batched reference contains non-finite entries"
            )

        healths = [SolverHealth() for _ in range(lanes)]

        # Per-lane warm starts (scalar validation rules, applied lane-wise).
        Z = xp.to_host(self.lin.initial_guess(X0))
        if z_warm is not None:
            for lane, zw in enumerate(z_warm):
                if zw is None:
                    continue
                zw = HOST.asarray(zw)
                if tuple(zw.shape) != (p.nz,):
                    raise SolverError(
                        f"warm start has shape {tuple(zw.shape)}, "
                        f"expected ({p.nz},)"
                    )
                if bool(HOST.scalar(HOST.all(HOST.isfinite(zw)))):
                    Z[lane] = zw
                else:
                    healths[lane].warm_start_reseeded = True
                    healths[lane].note("warm_start_reseeded")
        Z[:, p.state_slice(0)] = X0

        m = p.n_ineq
        NU = HOST.zeros((lanes, p.n_eq))
        if nu_warm is not None:
            for lane, nw in enumerate(nu_warm):
                if nw is None:
                    continue
                arr = HOST.asarray(nw)
                if tuple(arr.shape) == (p.n_eq,):
                    if bool(HOST.scalar(HOST.all(HOST.isfinite(arr)))):
                        NU[lane] = arr
                    else:
                        healths[lane].warm_start_reseeded = True
                        healths[lane].note("nu_warm_reseeded")
        LAM = HOST.zeros((lanes, m))
        if lam_warm is not None:
            for lane, lw in enumerate(lam_warm):
                if lw is None:
                    continue
                arr = HOST.asarray(lw)
                if tuple(arr.shape) == (m,):
                    arr = HOST.maximum(arr, 0.0)
                    if bool(HOST.scalar(HOST.all(HOST.isfinite(arr)))):
                        LAM[lane] = arr
                    else:
                        healths[lane].warm_start_reseeded = True
                        healths[lane].note("lam_warm_reseeded")

        rho = HOST.full((lanes,), opt.penalty_init)
        lm = HOST.full((lanes,), opt.regularization)
        soft = (
            p.soft_inequality_mask() if m else HOST.zeros((0,), dtype="bool")
        )
        hard = ~soft
        n_soft = int(soft.sum())
        nz = p.nz
        scale = p.variable_scales()
        # Device-resident scaling constants, uploaded once per solve.
        scale_dev = xp.asarray(scale)
        scale_outer = scale_dev[None, None, :] * scale_dev[None, :, None]
        dg = xp.arange(nz)

        clocks = [
            (
                budgets[lane].start()
                if budgets is not None and budgets[lane] is not None
                else None
            )
            for lane in range(lanes)
        ]
        max_outer = HOST.full((lanes,), opt.max_iterations, dtype="int")
        qp_caps: List[Optional[int]] = [None] * lanes
        if budgets is not None:
            for lane, bud in enumerate(budgets):
                if bud is None:
                    continue
                if bud.sqp_iterations is not None:
                    max_outer[lane] = min(
                        int(max_outer[lane]), bud.sqp_iterations
                    )
                qp_caps[lane] = bud.qp_iterations

        histories: List[List[float]] = [[] for _ in range(lanes)]
        windows: List[List[float]] = [[] for _ in range(lanes)]
        converged = HOST.zeros((lanes,), dtype="bool")
        diverged = HOST.zeros((lanes,), dtype="bool")
        budget_hit = HOST.zeros((lanes,), dtype="bool")
        cap_frozen = HOST.zeros((lanes,), dtype="bool")
        active = HOST.ones((lanes,), dtype="bool")
        iterations = HOST.zeros((lanes,), dtype="int")
        qp_total = HOST.zeros((lanes,), dtype="int")
        best_kkt = HOST.full((lanes,), float("inf"))
        bestZ, bestNU, bestLAM = Z.copy(), NU.copy(), LAM.copy()
        have_cert = HOST.zeros((lanes,), dtype="bool")
        CERT_NU = HOST.zeros_like(NU)
        CERT_LAM = HOST.zeros_like(LAM)

        report = BatchSolveReport(lanes=lanes)
        # ADMM warm state, full-lane host buffers (x/z/y iterates + adapted
        # rho), sliced per sub-batch; lazily sized from the first QP result.
        admm_state: Optional[dict] = None

        def _freeze_cap(lane: int) -> None:
            active[lane] = False
            cap_frozen[lane] = True
            iterations[lane] = int(max_outer[lane])

        global_max = int(max_outer.max()) if lanes else 0
        for it in range(1, global_max + 1):
            idx = HOST.flatnonzero(active)
            if not idx.size:
                break
            # Loop-top budget ladder (scalar order: cap bound, then clock).
            for lane in idx:
                lane = int(lane)
                if it > max_outer[lane]:
                    _freeze_cap(lane)
                elif clocks[lane] is not None and (
                    clocks[lane].expired()
                    or clocks[lane].qp_exhausted(int(qp_total[lane]))
                ):
                    active[lane] = False
                    budget_hit[lane] = True
                    iterations[lane] = it - 1
            idx = HOST.flatnonzero(active)
            if not idx.size:
                break
            iterations[idx] = it
            report.sqp_lane_iterations += int(idx.size)
            report.sqp_lane_slots += lanes

            Za = Z[idx]
            X0a = X0[idx]
            Ra = R[idx] if R is not None else None

            t_lin = perf_counter()
            grad = self.lin.objective_gradient(Za, Ra)
            H = self.lin.objective_gauss_newton(Za, Ra)
            g_eq = self.lin.equality_constraints(Za, X0a, Ra)
            G = self.lin.equality_jacobian(Za, Ra)
            h = self.lin.inequality_constraints(Za, Ra)
            J = self.lin.inequality_jacobian(Za, Ra)
            self.stats["linearize_time"] += perf_counter() - t_lin

            Hs = H * scale_outer
            Hs[:, dg, dg] += xp.asarray(lm[idx])[:, None]
            grad_s = grad * scale_dev
            Gs = G * scale_dev[None, None, :]
            Js = J * scale_dev[None, None, :] if m else J

            # The per-iteration host materialization: one small reduction
            # vector (KKT) plus the gradient rows for the descent test.
            kkt_dev = _kkt_batch(
                xp, grad, G, g_eq, J, h,
                xp.asarray(NU[idx]), xp.asarray(LAM[idx]),
            )
            certs = have_cert[idx]
            if certs.any():
                kkt_cert = _kkt_batch(
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
            for k_l, lane in enumerate(idx):
                lane = int(lane)
                histories[lane].append(float(kkt[k_l]))
                if kkt[k_l] < best_kkt[lane]:
                    best_kkt[lane] = kkt[k_l]
                    bestZ[lane] = Z[lane]
                    bestNU[lane] = NU[lane]
                    bestLAM[lane] = LAM[lane]
                if kkt[k_l] < opt.tolerance:
                    converged[lane] = True
                    active[lane] = False
                elif len(histories[lane]) > 1:
                    if histories[lane][-1] > histories[lane][-2]:
                        lm[lane] = min(lm[lane] * 10.0, 1e2)
                    else:
                        lm[lane] = max(lm[lane] / 3.0, opt.regularization)

            work = active[idx]
            if not work.any():
                continue
            w = HOST.flatnonzero(work)
            gl = idx[w]  # global lane ids of the working sub-batch
            k = int(gl.size)
            w_dev = xp.asarray(w, dtype="int")

            qp_args, qperm = self._subproblem_batch(
                Hs[w_dev],
                grad_s[w_dev],
                Gs[w_dev],
                Js[w_dev] if m else J[w_dev],
                g_eq[w_dev],
                h[w_dev],
            )
            qp_max = (
                opt.qp.admm_max_iterations
                if self.qp_method == "admm"
                else opt.qp.max_iterations
            )
            caps = HOST.asarray(
                [
                    min(
                        qp_max,
                        qp_caps[int(lane)] - int(qp_total[int(lane)]),
                    )
                    if qp_caps[int(lane)] is not None
                    else qp_max
                    for lane in gl
                ],
                dtype="int",
            )
            lane_deadlines = [
                clocks[int(lane)].deadline
                for lane in gl
                if clocks[int(lane)] is not None
                and clocks[int(lane)].deadline is not None
            ]
            deadline = min(lane_deadlines) if lane_deadlines else None

            if self.qp_method == "admm":
                # Lazy import: repro.firstorder.batch reaches back into
                # repro.batch for the seam, so a module-level import here
                # would close an import cycle.
                from repro.firstorder.batch import solve_qp_admm_batch

                warm_in = None
                if admm_state is not None:
                    warm_in = {
                        "x": admm_state["x"][gl],
                        "z": admm_state["z"][gl],
                        "y": admm_state["y"][gl],
                        "rho": admm_state["rho"][gl],
                    }
                qp = solve_qp_admm_batch(
                    *[
                        xp.to_host(a) if a is not None else None
                        for a in qp_args[:6]
                    ],
                    opt.qp,
                    deadline=deadline,
                    iteration_caps=caps,
                    backend=xp,
                    warm=warm_in,
                    fault_hooks=None
                    if self.fault_hooks is None
                    else [self.fault_hooks[int(lane)] for lane in gl],
                )
                if qp.warm is not None:
                    if admm_state is None:
                        admm_state = {
                            "x": HOST.zeros(
                                (lanes, int(qp.warm["x"].shape[1]))
                            ),
                            "z": HOST.zeros(
                                (lanes, int(qp.warm["z"].shape[1]))
                            ),
                            "y": HOST.zeros(
                                (lanes, int(qp.warm["y"].shape[1]))
                            ),
                            "rho": HOST.full((lanes,), opt.qp.admm_rho),
                        }
                    admm_state["x"][gl] = qp.warm["x"]
                    admm_state["z"][gl] = qp.warm["z"]
                    admm_state["y"][gl] = qp.warm["y"]
                    admm_state["rho"][gl] = qp.warm["rho"]

                # ---- method-health fallback ladder (lane-scatter rescue) --
                # Lanes whose first-order run ended stalled, diverged, or
                # failed (and that the rescue polish could not repair) are
                # gathered and re-solved through the batched interior-point
                # path, then scattered back before the post-QP ladder
                # classifies them.  Deadline-stopped lanes are left alone —
                # rescue work past a deadline breaks the budget contract.
                # Warm-start hygiene: the stalled ADMM iterate must never
                # seed a later solve, so rescued rows of ``admm_state`` are
                # reset to the cold-start pattern (zeros + configured rho).
                if opt.qp.admm_fallback:
                    resc = []
                    for k_l in range(k):
                        lane = int(gl[k_l])
                        cond = qp.stats[k_l].conditioning
                        wants = qp.status[k_l] == "failed" or (
                            cond is not None and cond.needs_fallback
                        )
                        if not wants or bool(qp.budget_exhausted[k_l]):
                            continue
                        if clocks[lane] is not None and clocks[lane].expired():
                            continue
                        if qp_caps[lane] is not None:
                            left = (
                                qp_caps[lane]
                                - int(qp_total[lane])
                                - int(qp.iterations[k_l])
                            )
                            if left < 1:
                                continue
                        resc.append(k_l)
                    if resc:
                        r_dev = xp.asarray(
                            HOST.asarray(resc, dtype="int"), dtype="int"
                        )
                        r_caps = HOST.asarray(
                            [
                                min(
                                    opt.qp.max_iterations,
                                    qp_caps[int(gl[k_l])]
                                    - int(qp_total[int(gl[k_l])])
                                    - int(qp.iterations[k_l]),
                                )
                                if qp_caps[int(gl[k_l])] is not None
                                else opt.qp.max_iterations
                                for k_l in resc
                            ],
                            dtype="int",
                        )
                        rqp = solve_qp_batch(
                            *[
                                a[r_dev] if a is not None else None
                                for a in qp_args[:6]
                            ],
                            opt.qp,
                            bandwidth=qp_args[6],
                            deadline=deadline,
                            iteration_caps=r_caps,
                            backend=xp,
                        )
                        report.qp_lane_iterations += rqp.batch.lane_iterations
                        report.qp_lane_slots += rqp.batch.lane_slots
                        for j, k_l in enumerate(resc):
                            lane = int(gl[k_l])
                            healths[lane].method_fallbacks += 1
                            healths[lane].note(f"admm_fallback_it{it}")
                            if admm_state is not None:
                                admm_state["x"][lane] = 0.0
                                admm_state["z"][lane] = 0.0
                                admm_state["y"][lane] = 0.0
                                admm_state["rho"][lane] = opt.qp.admm_rho
                            qp.x[k_l] = rqp.x[j]
                            qp.nu[k_l] = rqp.nu[j]
                            qp.lam[k_l] = rqp.lam[j]
                            qp.slacks[k_l] = rqp.slacks[j]
                            qp.converged[k_l] = rqp.converged[j]
                            qp.residual[k_l] = rqp.residual[j]
                            qp.status[k_l] = rqp.status[j]
                            qp.budget_exhausted[k_l] = rqp.budget_exhausted[j]
                            qp.iterations[k_l] = int(qp.iterations[k_l]) + int(
                                rqp.iterations[j]
                            )
                            qs, rs = qp.stats[k_l], rqp.stats[j]
                            qs.factorize_time += rs.factorize_time
                            qs.substitute_time += rs.substitute_time
                            qs.factor_flops += rs.factor_flops
                            qs.substitute_flops += rs.substitute_flops
                            qs.factorizations += rs.factorizations
                            qs.banded_factorizations += rs.banded_factorizations
                            qs.retries += rs.retries
                            qs.regularization_max = max(
                                qs.regularization_max, rs.regularization_max
                            )
            else:
                qp = solve_qp_batch(
                    *qp_args[:6],
                    opt.qp,
                    bandwidth=qp_args[6],
                    deadline=deadline,
                    iteration_caps=caps,
                    backend=xp,
                )

            qp_x = HOST.asarray(qp.x)
            qp_nu = HOST.asarray(qp.nu)
            qp_lam = HOST.asarray(qp.lam)
            nq = int(qp_x.shape[1])
            if qperm is not None:
                X_qp = HOST.empty((k, nq))
                X_qp[:, qperm] = qp_x
            else:
                X_qp = qp_x
            if n_soft:
                D = X_qp[:, :nz] * scale
                n_hard = m - n_soft
                NU_QP = qp_nu
                LAM_QP = HOST.zeros((k, m))
                LAM_QP[:, hard] = qp_lam[:, :n_hard]
                LAM_QP[:, soft] = qp_lam[:, n_hard : n_hard + n_soft]
            else:
                D = X_qp * scale
                NU_QP, LAM_QP = qp_nu, qp_lam

            report.qp_lane_iterations += qp.batch.lane_iterations
            report.qp_lane_slots += qp.batch.lane_slots
            for k_l, lane in enumerate(gl):
                lane = int(lane)
                qp_total[lane] += int(qp.iterations[k_l])
                qs = qp.stats[k_l]
                self.stats["factorize_time"] += qs.factorize_time
                self.stats["substitute_time"] += qs.substitute_time
                self.stats["factor_flops"] += qs.factor_flops
                self.stats["substitute_flops"] += qs.substitute_flops
                self.stats["factorizations"] += qs.factorizations
                self.stats["banded_factorizations"] += qs.banded_factorizations
                healths[lane].factorization_retries += qs.retries
                healths[lane].regularization_max = max(
                    healths[lane].regularization_max, qs.regularization_max
                )

            # Per-lane post-QP ladder: factorization failure -> diverged;
            # deadline exhaustion -> budget stop (direction discarded);
            # non-finite direction -> reject + escalate damping.
            proceed = HOST.ones((k,), dtype="bool")
            for k_l, lane in enumerate(gl):
                lane = int(lane)
                if qp.status[k_l] == "failed":
                    healths[lane].note(f"qp_failed_it{it}")
                    diverged[lane] = True
                    active[lane] = False
                    proceed[k_l] = False
                    continue
                if clocks[lane] is not None and (
                    bool(qp.budget_exhausted[k_l]) or clocks[lane].expired()
                ):
                    budget_hit[lane] = True
                    active[lane] = False
                    proceed[k_l] = False
                    continue
                finite = (
                    bool(HOST.scalar(HOST.all(HOST.isfinite(D[k_l]))))
                    and bool(HOST.scalar(HOST.all(HOST.isfinite(NU_QP[k_l]))))
                    and (
                        not m
                        or bool(
                            HOST.scalar(HOST.all(HOST.isfinite(LAM_QP[k_l])))
                        )
                    )
                )
                if not finite:
                    healths[lane].steps_rejected += 1
                    healths[lane].note(f"nonfinite_step_it{it}")
                    if lm[lane] >= 1e2:
                        diverged[lane] = True
                        active[lane] = False
                    else:
                        lm[lane] = min(lm[lane] * 100.0, 1e2)
                    proceed[k_l] = False

            if not proceed.any():
                continue
            ls = HOST.flatnonzero(proceed)
            ll = gl[ls]  # lanes entering the line search
            Dl = D[ls]
            NU_l, LAM_l = NU_QP[ls], LAM_QP[ls]
            grad_l = grad_h[w][ls]

            # -- batched L1 exact-penalty merit line search ----------------
            mult_inf = HOST.maximum(
                _maxabs(HOST, NU_l),
                HOST.maximum(
                    _maxabs(HOST, LAM_l)
                    if m
                    else HOST.zeros((int(ls.size),)),
                    opt.penalty_init,
                ),
            )
            for k_l, lane in enumerate(ll):
                lane = int(lane)
                if rho[lane] < 2.0 * mult_inf[k_l]:
                    rho[lane] = max(rho[lane], 2.0 * mult_inf[k_l])
                    windows[lane].clear()  # the merit scale changed
            Rl = R[ll] if R is not None else None
            merit0, viol0 = self._merit_batch(Z[ll], X0[ll], Rl, rho[ll], soft)
            merit_ref = HOST.empty((int(ls.size),))
            for k_l, lane in enumerate(ll):
                lane = int(lane)
                windows[lane].append(float(merit0[k_l]))
                if len(windows[lane]) > opt.watchdog:
                    windows[lane].pop(0)
                merit_ref[k_l] = max(windows[lane])
            descent = HOST.einsum("bi,bi->b", grad_l, Dl) - viol0
            step_inf = _maxabs(HOST, Dl / scale)
            with HOST.errstate():
                alpha = HOST.where(
                    step_inf > 0.0,
                    HOST.minimum(
                        1.0,
                        opt.step_clip
                        / HOST.where(step_inf > 0, step_inf, 1.0),
                    ),
                    1.0,
                )
            accepted = HOST.zeros((int(ls.size),), dtype="bool")
            floor = opt.armijo * HOST.minimum(descent, 0.0)
            for _ in range(opt.max_backtracks):
                un = HOST.flatnonzero(~accepted)
                if not un.size:
                    break
                trial = Z[ll[un]] + alpha[un, None] * Dl[un]
                Ru = Rl[un] if Rl is not None else None
                merit_t, _ = self._merit_batch(
                    trial, X0[ll[un]], Ru, rho[ll[un]], soft
                )
                passed = merit_t <= merit_ref[un] + alpha[un] * floor[un]
                accepted[un[passed]] = True
                alpha[un[~passed]] *= 0.5

            Z[ll] = Z[ll] + alpha[:, None] * Dl
            NU[ll] = NU[ll] + alpha[:, None] * (NU_l - NU[ll])
            if m:
                LAM[ll] = LAM[ll] + alpha[:, None] * (LAM_l - LAM[ll])
            CERT_NU[ll] = NU_l
            CERT_LAM[ll] = LAM_l
            have_cert[ll] = True

        # Lanes that completed their final permitted iteration without
        # freezing exhausted their cap (scalar loop-exit path).
        for lane in HOST.flatnonzero(active):
            _freeze_cap(int(lane))

        self.stats["solves"] += lanes
        self.stats["sqp_iterations"] += int(iterations.sum())
        self.stats["qp_iterations"] += int(qp_total.sum())
        if self.lin.codegen_stats is not None:
            self.stats["codegen"] = self.lin.codegen_stats.as_dict()

        wall = perf_counter() - t_solve
        objectives = xp.to_host(self.lin.objective(Z, R))
        results: List[IPMResult] = []
        for lane in range(lanes):
            hist = histories[lane]
            if (
                cap_frozen[lane]
                and not converged[lane]
                and not budget_hit[lane]
            ):
                budget_hit[lane] = max_outer[lane] < opt.max_iterations
            if (
                not converged[lane]
                and hist
                and best_kkt[lane] < 0.1 * hist[-1]
            ):
                Z[lane] = bestZ[lane]
                NU[lane] = bestNU[lane]
                LAM[lane] = bestLAM[lane]
                hist[-1] = float(best_kkt[lane])
                objectives[lane] = p.objective(
                    Z[lane], R[lane] if R is not None else None
                )
            if converged[lane]:
                status = "converged"
            elif diverged[lane]:
                status = "diverged"
            elif budget_hit[lane]:
                status = "budget_exhausted"
            else:
                status = "max_iterations"
            results.append(
                IPMResult(
                    z=Z[lane].copy(),
                    converged=bool(converged[lane]),
                    iterations=int(iterations[lane]),
                    qp_iterations=int(qp_total[lane]),
                    objective=float(objectives[lane]),
                    kkt_residual=hist[-1] if hist else float("inf"),
                    residual_history=hist,
                    nu=NU[lane].copy(),
                    lam=LAM[lane].copy() if m else None,
                    status=status,
                    solve_time=wall,
                    health=healths[lane],
                )
            )
        self.last_report = report
        return results, report

    # -- shared internals --------------------------------------------------

    def _subproblem_batch(self, Hs, grad_s, Gs, Js, g_eq, h):
        """Batched twin of ``InteriorPointSolver._subproblem_data``.

        Inputs and outputs are backend arrays; the returned permutation is
        a host index array (it is applied to host QP results too).
        """
        p = self.problem
        opt = self.options
        xp = self.xp
        donor = self._donor
        nz = p.nz
        m = p.n_ineq
        soft = (
            p.soft_inequality_mask() if m else HOST.zeros((0,), dtype="bool")
        )
        hard = ~soft
        n_soft = int(soft.sum())
        k = int(Hs.shape[0])
        if not n_soft:
            qperm = donor._qp_perm
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
            qp_dev = xp.asarray(qperm, dtype="int")
            return (
                Hs[:, qp_dev][:, :, qp_dev],
                grad_s[:, qp_dev],
                Gs[:, :, qp_dev],
                -g_eq,
                Js[:, :, qp_dev] if m else None,
                -h if m else None,
                donor._qp_bandwidth,
            ), qperm

        n_ext = nz + n_soft
        n_hard = m - n_soft
        hard_dev = xp.asarray(hard, dtype="bool")
        soft_dev = xp.asarray(soft, dtype="bool")
        H_ext = xp.zeros((k, n_ext, n_ext))
        H_ext[:, :nz, :nz] = Hs
        se = xp.arange(nz, n_ext)
        H_ext[:, se, se] = opt.soft_quadratic
        g_ext = xp.concatenate(
            [grad_s, xp.full((k, n_soft), opt.soft_penalty)], axis=1
        )
        G_ext = xp.concatenate(
            [Gs, xp.zeros((k, int(Gs.shape[1]), n_soft))], axis=2
        )
        J_ext = xp.zeros((k, m + n_soft, n_ext))
        d_ext = xp.zeros((k, m + n_soft))
        J_ext[:, :n_hard, :nz] = Js[:, hard_dev]
        d_ext[:, :n_hard] = -h[:, hard_dev]
        J_ext[:, n_hard : n_hard + n_soft, :nz] = Js[:, soft_dev]
        J_ext[:, n_hard : n_hard + n_soft, nz:] = -xp.eye(n_soft)
        d_ext[:, n_hard : n_hard + n_soft] = -h[:, soft_dev]
        J_ext[:, n_hard + n_soft :, nz:] = -xp.eye(n_soft)
        qperm = donor._qp_perm_ext
        if qperm is None:
            return (H_ext, g_ext, G_ext, -g_eq, J_ext, d_ext, None), None
        qp_dev = xp.asarray(qperm, dtype="int")
        return (
            H_ext[:, qp_dev][:, :, qp_dev],
            g_ext[:, qp_dev],
            G_ext[:, :, qp_dev],
            -g_eq,
            J_ext[:, :, qp_dev],
            d_ext,
            donor._qp_bandwidth_ext,
        ), qperm

    def _merit_batch(self, Z, X0, R, rho, soft):
        """Batched twin of ``InteriorPointSolver._merit``.

        Accepts host iterates, computes on the backend, and returns host
        merit/violation rows (the line search is a host decision ladder).
        """
        p = self.problem
        opt = self.options
        xp = self.xp
        f = self.lin.objective(Z, R)
        g = self.lin.equality_constraints(Z, X0, R)
        rho_dev = xp.asarray(rho)
        viol = rho_dev * xp.sum(xp.abs(g), axis=1)
        if p.n_ineq:
            h = self.lin.inequality_constraints(Z, R)
            hpos = xp.maximum(h, 0.0)
            hard_dev = xp.asarray(~soft, dtype="bool")
            soft_dev = xp.asarray(soft, dtype="bool")
            viol = viol + rho_dev * xp.sum(hpos[:, hard_dev], axis=1)
            viol = viol + opt.soft_penalty * xp.sum(hpos[:, soft_dev], axis=1)
        return xp.to_host(f + viol), xp.to_host(viol)
