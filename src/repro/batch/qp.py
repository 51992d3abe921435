"""Batched Mehrotra predictor-corrector QP solver with an active mask.

:func:`solve_qp_batch` runs the same primal-dual interior-point iteration
as :func:`repro.mpc.qp.solve_qp`, but over ``B`` stacked instances
``(H, g, G, b, J, d)`` that share one sparsity structure (same shapes,
same stage-ordered band).  Every lane carries its own step lengths,
barrier parameter, and convergence scale; an *active mask* implements
continuous-batching semantics: a lane that converges, diverges, fails to
factor, or exhausts its iteration cap is **frozen** — its iterate is
never touched again, so it stays bit-identical to its freeze point — while
the remaining lanes keep iterating.

There is one loop, the statically scheduled shape RoboX executes: a
*masked lockstep* iteration with a fixed trip count and no data-dependent
control flow.  Every array operation routes through the
:mod:`repro.batch.backend` seam (``xp``), lane statuses live in an
integer array, freezes are ``where``-masked updates (frozen lanes ride
along in the batched matmuls and their results are masked away), and
every per-lane statistic (iteration counts, residuals, QPStats counters,
the barrier-gap history) accumulates in backend arrays that are
downloaded **once**, after the loop.  numpy, cupy and torch run the same
body; only two *values* are read from ``xp.is_device``:

* the factorization retry ladder runs in full on host backends and is
  cut to a single attempt on device backends (a ladder's early-exit test
  is a host round-trip per rung), so a lane the base regularization
  cannot factor is retried on numpy and freezes as ``"failed"`` on a
  device — the sync-free deviation documented in DESIGN.md;
* the all-frozen early-exit check reads one boolean every iteration on
  host backends, where it is free, and every ``sync_interval`` iterations
  on device backends (0 = a strictly sync-free solve).

The per-iteration decision ladder (convergence check, divergence guard,
wall-clock deadline, cap re-evaluation) copies the scalar solver's order
exactly, so a single-lane batch follows the same iteration path as
``solve_qp`` on the same data.  The one intentional divergence: a lane
whose KKT factorization fails after the retry ladder is frozen with
status ``"failed"`` instead of raising ``SolverError``, because one bad
lane must not abort its batch-mates.  ``polish`` is ignored (the active
mask has no meaningful polish point for frozen lanes).
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional

from repro.mpc.banded import bandwidth_of
from repro.mpc.qp import QPOptions, QPStats

from .backend import HOST, ArrayBackend, get_backend
from .linalg import robust_factor_batch

__all__ = ["BatchQPStats", "BatchQPResult", "solve_qp_batch"]

_LAM_DIVERGENCE = 1e14
_SLACK_FLOOR = 1e-300
_W_CEIL = 1e16
_INF = float("inf")
_NAN = float("nan")

#: Lane status codes of the masked lockstep loops.  ``_STALLED`` is
#: produced only by the batched ADMM loop (repro.firstorder.batch): the
#: lane froze because its residual stopped improving — the batched SQP
#: driver treats it, like ``_FAILED``, as an IPM-rescue candidate.
_ACTIVE, _CONV, _DIV, _MAXIT, _BUDGET, _FAILED, _STALLED = 0, 1, 2, 3, 4, 5, 6
_STATUS_NAMES = {
    _ACTIVE: "max_iterations",  # unreachable fallback
    _CONV: "converged",
    _DIV: "diverged",
    _MAXIT: "max_iterations",
    _BUDGET: "budget_exhausted",
    _FAILED: "failed",
    _STALLED: "stalled",
}


@dataclass
class BatchQPStats:
    """Batch-level occupancy counters for the continuous-batching loop."""

    #: batch iterations executed (each runs one factorization sweep)
    iterations: int = 0
    #: lane-iterations actually worked (sum of active lanes per iteration)
    lane_iterations: int = 0
    #: lane-iterations available (batch size x iterations)
    lane_slots: int = 0

    @property
    def efficiency(self) -> float:
        """Active-lanes / total-lanes per iteration, in [0, 1]."""
        if self.lane_slots == 0:
            return 1.0
        return self.lane_iterations / self.lane_slots


@dataclass
class BatchQPResult:
    """Per-lane solutions and statuses of one batched QP solve.

    ``status[i]`` is one of ``"converged"``, ``"diverged"``,
    ``"budget_exhausted"`` (wall-clock deadline or a budget-shortened
    iteration cap), ``"max_iterations"`` (full cap reached), or
    ``"failed"`` (non-finite lane data or unrecoverable factorization).
    ``budget_exhausted[i]`` mirrors the scalar ``QPResult`` field and is
    set **only** for deadline-stopped lanes, so SQP callers can apply the
    scalar discard-direction rule unchanged.

    Arrays are host (numpy) regardless of the solve backend — a device
    solve downloads its state once, here, at result assembly.
    """

    x: object
    nu: object
    lam: object
    slacks: object
    converged: object
    iterations: object
    residual: object
    status: List[str]
    budget_exhausted: object
    gap_history: List[List[float]]
    stats: List[QPStats]
    batch: BatchQPStats
    freeze: Optional[Dict[int, Dict[str, object]]] = None
    #: solver-internal warm-start state for the next solve of the same
    #: shapes (ADMM batches only — see :mod:`repro.firstorder.batch`);
    #: ``None`` for the IPM.
    warm: Optional[dict] = None


def _maxabs(xp: ArrayBackend, M):
    """Per-lane max-abs over all trailing axes of a ``(B, ...)`` stack."""
    lanes = int(M.shape[0])
    cols = 1
    for dim in tuple(M.shape)[1:]:
        cols *= int(dim)
    if cols == 0:
        return xp.zeros((lanes,))
    return xp.max(xp.abs(xp.reshape(M, (lanes, cols))), axis=1)


def _max_step_batch(xp: ArrayBackend, v, dv):
    """Per-lane fraction-to-the-boundary step (batched ``_max_step``).

    A dummy denominator stands in where ``dv >= 0``, so no divide-by-zero
    is ever issued whatever the backend's warning policy.
    """
    if int(dv.shape[1]) == 0:
        return xp.ones((int(dv.shape[0]),))
    neg = dv < 0.0
    ratio = xp.where(neg, (0.0 - v) / xp.where(neg, dv, -1.0), _INF)
    a = xp.min(ratio, axis=1)
    return xp.minimum(1.0, xp.where(xp.isfinite(a), a, 1.0))


def _bmv(xp: ArrayBackend, M, v):
    """Batched matrix @ vector: (k, r, c) x (k, c) -> (k, r)."""
    return xp.matmul(M, v[:, :, None])[:, :, 0]


def _lane_caps(xp: ArrayBackend, lanes: int, max_it: int, iteration_caps):
    """Per-lane iteration caps (clipped to ``[1, max_it]``) and the global
    trip count — a host decision made once, before the loop, from
    host-side inputs.  Returns ``(caps, global_max)``."""
    if iteration_caps is None:
        return xp.full((lanes,), max_it, dtype="int"), max_it
    caps_h = HOST.minimum(
        HOST.full((lanes,), max_it, dtype="int"),
        HOST.maximum(HOST.asarray(iteration_caps, dtype="int"), 1),
    )
    return xp.from_host(caps_h, dtype="int"), int(HOST.scalar(HOST.max(caps_h)))


def _decode_lanes(status_h, rows_h):
    """Host epilogue of a lockstep loop: downloaded status codes to names
    and a converged mask, and the ``(checks, B)`` history rows (NaN where
    a lane was frozen) to per-lane lists.  Returns ``(codes, names,
    converged, history)``."""
    codes = [int(c) for c in status_h]
    names = [_STATUS_NAMES[c] for c in codes]
    converged = HOST.asarray([c == _CONV for c in codes], dtype="bool")
    if rows_h is None:
        history: List[List[float]] = [[] for _ in codes]
    else:
        history = [
            [float(v) for v in rows_h[:, lane] if v == v]
            for lane in range(len(codes))
        ]
    return codes, names, converged, history


def solve_qp_batch(
    H,
    g,
    G,
    b,
    J,
    d,
    options: Optional[QPOptions] = None,
    bandwidth: Optional[int] = None,
    deadline: Optional[float] = None,
    iteration_caps=None,
    record_freeze: bool = False,
    backend=None,
    sync_interval: int = 8,
) -> BatchQPResult:
    """Solve ``B`` convex QPs in lockstep with per-lane freezing.

    ``iteration_caps`` (optional, ``(B,)`` ints) shortens individual
    lanes' iteration budgets below ``options.max_iterations`` — a lane
    stopping on a shortened cap reports status ``"budget_exhausted"``.
    ``record_freeze`` snapshots each lane's iterate at its freeze point
    (for the bit-identity guarantees tested in the active-mask suite).
    ``backend`` selects the array namespace (default: process-wide
    selection).  On device backends ``sync_interval`` is the early-exit
    cadence (0 = never sync); host backends check every iteration.
    """
    opt = options or QPOptions()
    xp = get_backend(backend)
    # The two backend-derived values (see the module docstring).
    ladder = {"attempts": 1} if xp.is_device else {}
    exit_check = sync_interval if xp.is_device else 1

    H = xp.asarray(H)
    g = xp.asarray(g)
    lanes, n = int(g.shape[0]), int(g.shape[1])
    if tuple(H.shape) != (lanes, n, n):
        raise ValueError(f"H shape {tuple(H.shape)} != ({lanes}, {n}, {n})")

    if G is None or b is None:
        G = xp.zeros((lanes, 0, n))
        b = xp.zeros((lanes, 0))
    else:
        G = xp.asarray(G)
        b = xp.asarray(b)
    if J is None or d is None:
        J = xp.zeros((lanes, 0, n))
        d = xp.zeros((lanes, 0))
    else:
        J = xp.asarray(J)
        d = xp.asarray(d)
    p, m = int(G.shape[1]), int(J.shape[1])
    has_eq, has_in = p > 0, m > 0

    # Per-lane non-finite data fails fast (scalar raises SolverError; in a
    # batch the lane freezes as "failed" so its mates keep solving).
    lane_finite = (
        xp.all(xp.isfinite(H), axis=(1, 2))
        & xp.all(xp.isfinite(g), axis=1)
        & xp.all(xp.isfinite(xp.reshape(G, (lanes, -1))), axis=1)
        & xp.all(xp.isfinite(b), axis=1)
        & xp.all(xp.isfinite(xp.reshape(J, (lanes, -1))), axis=1)
        & xp.all(xp.isfinite(d), axis=1)
    )
    # Sanitize failed lanes' data so lockstep arithmetic on them stays
    # bounded; their state is frozen at zeros and never published.
    lf3 = lane_finite[:, None, None]
    lf2 = lane_finite[:, None]
    H = xp.where(lf3, H, 0.0)
    g = xp.where(lf2, g, 0.0)
    if has_eq:
        G = xp.where(lf3, G, 0.0)
        b = xp.where(lf2, b, 0.0)
    if has_in:
        J = xp.where(lf3, J, 0.0)
        d = xp.where(lf2, d, 0.0)
    Gt = xp.transpose_last2(G)
    Jt = xp.transpose_last2(J)

    x = xp.zeros((lanes, n))
    nu = xp.zeros((lanes, p))
    if has_in:
        s = xp.maximum(1.0, d - _bmv(xp, J, x))
        lam = xp.ones((lanes, m))
    else:
        s = xp.zeros((lanes, 0))
        lam = xp.zeros((lanes, 0))

    scale = 1.0 + xp.minimum(
        xp.maximum(
            _maxabs(xp, g), xp.maximum(_maxabs(xp, b), _maxabs(xp, d))
        ),
        100.0,
    )

    max_it = int(opt.max_iterations)
    caps, global_max = _lane_caps(xp, lanes, max_it, iteration_caps)
    budget_capped = caps < max_it

    status = xp.where(lane_finite, _ACTIVE, _FAILED)
    iterations = xp.zeros((lanes,), dtype="int")
    residual = xp.full((lanes,), _INF)
    deadline_hit = xp.zeros((lanes,), dtype="bool")
    mu_rows: List[object] = []

    # Backend-resident per-lane QPStats accumulators.
    factz = xp.zeros((lanes,), dtype="int")
    banded_factz = xp.zeros((lanes,), dtype="int")
    flops_acc = xp.zeros((lanes,), dtype="int")
    subflops_acc = xp.zeros((lanes,), dtype="int")
    retries_acc = xp.zeros((lanes,), dtype="int")
    regmax = xp.zeros((lanes,))
    lane_iter_acc = xp.sum(xp.zeros((1,), dtype="int"))
    factor_time_total = 0.0
    sub_time_total = 0.0
    bstats = BatchQPStats()

    # Structural Phi band, measured once at setup (one constant download;
    # sanitized failed lanes contribute zeros to the envelope).
    phi_band: Optional[int] = None
    if bandwidth is not None and n:
        env = xp.max(xp.abs(H), axis=0)
        if has_in:
            jmax = xp.max(xp.abs(J), axis=0)
            env = env + xp.matmul(xp.transpose_last2(jmax), jmax)
        struct = bandwidth_of(xp.to_host(env))
        if struct <= bandwidth:
            phi_band = struct
    schur_meas: Optional[int] = None

    sfloor = _SLACK_FLOOR

    for it in range(1, global_max + 2):
        eval_active = status == _ACTIVE

        # Residual evaluation (mirrors eval_residual in the scalar loop).
        with xp.errstate():
            r_dual = _bmv(xp, H, x) + g
            if has_eq:
                r_dual = r_dual + _bmv(xp, Gt, nu)
            if has_in:
                r_dual = r_dual + _bmv(xp, Jt, lam)
            r_eq = _bmv(xp, G, x) - b if has_eq else None
            r_in = _bmv(xp, J, x) + s - d if has_in else None
            mu = (
                xp.sum(s * lam, axis=1) / m
                if has_in
                else xp.zeros((lanes,))
            )
            res = _maxabs(xp, r_dual)
            if has_eq:
                res = xp.maximum(res, _maxabs(xp, r_eq))
            if has_in:
                res = xp.maximum(res, _maxabs(xp, r_in))
            res = res + mu

        residual = xp.where(eval_active, res, residual)
        mu_rows.append(xp.where(eval_active, mu, _NAN))

        # Classification ladder, scalar order: cap / converged / diverged.
        over_cap = eval_active & (it > caps)
        conv = eval_active & ~over_cap & (res < opt.tolerance * scale)
        if has_in:
            lam_blow = xp.max(lam, axis=1) > _LAM_DIVERGENCE * scale
        else:
            lam_blow = xp.zeros((lanes,), dtype="bool")
        div = (
            eval_active
            & ~over_cap
            & ~conv
            & (~xp.isfinite(res) | lam_blow)
        )
        status = xp.where(
            over_cap, xp.where(budget_capped, _BUDGET, _MAXIT), status
        )
        status = xp.where(conv, _CONV, status)
        status = xp.where(div, _DIV, status)
        iterations = xp.where(over_cap, caps, iterations)
        iterations = xp.where(conv | div, it, iterations)

        # Wall-clock deadline stops every still-active lane at once (a
        # host-clock decision — no backend data is read).
        if deadline is not None and perf_counter() >= deadline:
            still = status == _ACTIVE
            status = xp.where(still, _BUDGET, status)
            iterations = xp.where(still, it - 1, iterations)
            deadline_hit = deadline_hit | still
            break

        active = status == _ACTIVE
        if exit_check and it % exit_check == 0:
            # The one host round-trip a device pays (optionally): early
            # exit for a batch that has fully frozen before the global cap.
            if not bool(xp.scalar(xp.any(active))):
                break

        bstats.iterations += 1
        bstats.lane_slots += lanes
        lane_iter_acc = lane_iter_acc + xp.sum(xp.astype(active, "int"))

        with xp.errstate():
            if has_in:
                w = xp.minimum(lam / xp.maximum(s, sfloor), _W_CEIL)
                Phi = H + xp.matmul(Jt * w[:, None, :], J)
            else:
                w = None
                Phi = H

        t0 = perf_counter()
        phi_factor, reg_used, retries = robust_factor_batch(
            Phi, opt.regularization, phi_band,
            backend=xp, active=active, **ladder,
        )
        factor_time_total += perf_counter() - t0
        alive = active & phi_factor.ok
        newly_failed = active & ~phi_factor.ok
        status = xp.where(newly_failed, _FAILED, status)
        iterations = xp.where(newly_failed, it, iterations)
        aiv = xp.astype(alive, "int")
        factz = factz + aiv
        if phi_factor.banded:
            banded_factz = banded_factz + aiv
        flops_acc = flops_acc + aiv * phi_factor.factor_flops()
        retries_acc = retries_acc + retries
        regmax = xp.maximum(regmax, xp.where(alive, reg_used, 0.0))

        def _timed_solve(factor, rhs, aiv_now):
            nonlocal sub_time_total, subflops_acc
            t = perf_counter()
            out = factor.solve(rhs)
            sub_time_total += perf_counter() - t
            nrhs = int(rhs.shape[2]) if rhs.ndim == 3 else 1
            subflops_acc = subflops_acc + aiv_now * factor.solve_flops(nrhs)
            return out

        s_factor = None
        PhiInv_Gt = None
        if has_eq:
            with xp.errstate():
                PhiInv_Gt = _timed_solve(phi_factor, Gt, aiv)
                S = xp.matmul(G, PhiInv_Gt)
            s_band: Optional[int] = None
            if bandwidth is not None:
                if schur_meas is None:
                    # Measured once, on the first iteration's Schur
                    # complement over the lanes that factored (one
                    # constant download).
                    s_env = xp.where(alive[:, None, None], xp.abs(S), 0.0)
                    schur_meas = bandwidth_of(
                        xp.to_host(xp.max(s_env, axis=0))
                    )
                if schur_meas <= bandwidth:
                    s_band = schur_meas
            t0 = perf_counter()
            s_factor, s_reg, s_retries = robust_factor_batch(
                S, opt.regularization, s_band,
                backend=xp, active=alive, **ladder,
            )
            factor_time_total += perf_counter() - t0
            still = alive & s_factor.ok
            newly_failed = alive & ~s_factor.ok
            status = xp.where(newly_failed, _FAILED, status)
            iterations = xp.where(newly_failed, it, iterations)
            siv = xp.astype(still, "int")
            factz = factz + siv
            if s_factor.banded:
                banded_factz = banded_factz + siv
            flops_acc = flops_acc + siv * s_factor.factor_flops()
            retries_acc = retries_acc + s_retries
            regmax = xp.maximum(regmax, xp.where(still, s_reg, 0.0))
            alive = still
            aiv = siv

        def _newton(rc):
            with xp.errstate():
                if has_in:
                    rhs1 = 0.0 - (
                        r_dual
                        + _bmv(
                            xp,
                            Jt,
                            w * r_in - rc / xp.maximum(s, sfloor),
                        )
                    )
                else:
                    rhs1 = 0.0 - r_dual
                t = _timed_solve(phi_factor, rhs1[:, :, None], aiv)[:, :, 0]
                if has_eq:
                    rhs2 = _bmv(xp, G, t) + r_eq
                    dnu = _timed_solve(s_factor, rhs2[:, :, None], aiv)[
                        :, :, 0
                    ]
                    dx = t - _bmv(xp, PhiInv_Gt, dnu)
                else:
                    dnu = nu
                    dx = t
                if has_in:
                    ds = (0.0 - r_in) - _bmv(xp, J, dx)
                    dlam = ((0.0 - rc) - lam * ds) / xp.maximum(s, sfloor)
                else:
                    ds = s
                    dlam = lam
            return dx, dnu, ds, dlam

        with xp.errstate():
            # Predictor (affine scaling) step, then the centred corrector.
            rc_aff = s * lam
            dx_a, dnu_a, ds_a, dlam_a = _newton(rc_aff)
            if has_in:
                ap_aff = _max_step_batch(xp, s, ds_a)
                ad_aff = _max_step_batch(xp, lam, dlam_a)
                mu_aff = xp.sum(
                    (s + ap_aff[:, None] * ds_a)
                    * (lam + ad_aff[:, None] * dlam_a),
                    axis=1,
                ) / m
                safe_mu = xp.where(mu > 0.0, mu, 1.0)
                sigma = xp.where(mu > 0.0, (mu_aff / safe_mu) ** 3, 0.0)
                rc = s * lam + ds_a * dlam_a - (sigma * mu)[:, None]
                dx, dnu, ds, dlam = _newton(rc)
                ap = xp.minimum(1.0, opt.tau * _max_step_batch(xp, s, ds))
                ad = xp.minimum(1.0, opt.tau * _max_step_batch(xp, lam, dlam))
            else:
                dx, dnu, ds, dlam = dx_a, dnu_a, ds_a, dlam_a
                ap = xp.ones((lanes,))
                ad = xp.ones((lanes,))

        am = alive[:, None]
        x = xp.where(am, x + ap[:, None] * dx, x)
        if has_eq:
            nu = xp.where(am, nu + ad[:, None] * dnu, nu)
        if has_in:
            s = xp.where(am, s + ap[:, None] * ds, s)
            lam = xp.where(am, lam + ad[:, None] * dlam, lam)

    # ---- single bulk download: the only host materialization ----------
    x_h = xp.to_host(x)
    nu_h = xp.to_host(nu)
    s_h = xp.to_host(s)
    lam_h = xp.to_host(lam)
    iters_h = xp.to_host(iterations)
    resid_h = xp.to_host(residual)
    deadline_h = xp.to_host(deadline_hit)
    factz_h = xp.to_host(factz)
    banded_h = xp.to_host(banded_factz)
    flops_h = xp.to_host(flops_acc)
    subflops_h = xp.to_host(subflops_acc)
    retries_h = xp.to_host(retries_acc)
    regmax_h = xp.to_host(regmax)
    finite_h = xp.to_host(lane_finite)
    bstats.lane_iterations = int(xp.scalar(lane_iter_acc))
    status_codes, status, converged_h, gap_history = _decode_lanes(
        xp.to_host(status),
        xp.to_host(xp.stack(mu_rows)) if mu_rows else None,
    )

    total_factz = max(int(factz_h.sum()), 1)
    stats: List[QPStats] = []
    for lane in range(lanes):
        st = QPStats()
        st.factorizations = int(factz_h[lane])
        st.banded_factorizations = int(banded_h[lane])
        st.factor_flops = int(flops_h[lane])
        st.substitute_flops = int(subflops_h[lane])
        st.retries = int(retries_h[lane])
        st.regularization_max = float(regmax_h[lane])
        share = int(factz_h[lane]) / total_factz
        st.factorize_time = factor_time_total * share
        st.substitute_time = sub_time_total * share
        if phi_band is not None and bool(finite_h[lane]):
            st.phi_bandwidth = phi_band
        if schur_meas is not None and st.factorizations:
            st.schur_bandwidth = schur_meas
        if st.factorizations == 0:
            st.mode = "dense"
        elif st.banded_factorizations == st.factorizations:
            st.mode = "banded"
        elif st.banded_factorizations:
            st.mode = "mixed"
        else:
            st.mode = "dense"
        stats.append(st)

    freeze: Optional[Dict[int, Dict[str, object]]] = None
    if record_freeze:
        # Frozen lanes are where-masked out of every update, so the final
        # state *is* each lane's freeze-point snapshot.
        freeze = {}
        for lane in range(lanes):
            if status_codes[lane] != _ACTIVE:
                freeze[lane] = {
                    "x": x_h[lane].copy(),
                    "nu": nu_h[lane].copy(),
                    "lam": lam_h[lane].copy(),
                    "slacks": s_h[lane].copy(),
                    "residual": HOST.asarray(resid_h[lane]),
                }

    return BatchQPResult(
        x=x_h,
        nu=nu_h,
        lam=lam_h,
        slacks=s_h,
        converged=converged_h,
        iterations=iters_h,
        residual=resid_h,
        status=status,
        budget_exhausted=deadline_h,
        gap_history=gap_history,
        stats=stats,
        batch=bstats,
        freeze=freeze,
    )
