"""The ADMM iteration: lockstep over ``B`` lanes, matmul + clamp.

:func:`solve_qp_admm_batch` is the repo's one ADMM loop — the splitting
described in :mod:`repro.firstorder.admm`, run over ``B`` stacked QP
instances; a single QP (:func:`repro.mpc.qp.solve_qp` with
``QPOptions(method="admm")``) is its ``B = 1`` lane.  Set-up — box form
assembly, Ruiz scaling and the positive-definiteness-checked inverse of
``K = H + sigma I + A^T R A`` — happens on the host
(``_admm_setup_batch``); everything is uploaded once, and the loop body is
then *pure batched matmul, elementwise algebra, and clamp* through the
:mod:`repro.batch.backend` seam (``xp``), the ReLU-QP formulation:

* lane statuses live in a device integer array with the same masked
  lockstep freeze semantics (and status codes) as the batched IPM in
  :mod:`repro.batch.qp` — converged/stalled/failed/capped lanes are
  ``where``-masked out of every update and keep the iterate they froze
  on;
* residual histories accumulate in device rows downloaded once at result
  assembly.

Three cadences pace the loop.  The *residual check* (``_CHECK_INTERVAL``
iterations, plus the final trip) evaluates the residual matvecs and the
convergence / divergence / stall ladder on the device, without a host
sync; between checks the body is the bare three-matvec update, so lanes
converge quantized to the cadence.  The other two are host round-trips,
and which knob paces them is a *value* read from ``xp.is_device``, not a
second path:

* the *all-frozen read* (one boolean, to stop a batch that has fully
  frozen before the global cap) happens at every residual check on host
  backends, where it is free, and every ``sync_interval`` iterations on
  device backends;
* the *rho checkpoint* (per-lane residual ratios come back, lanes whose
  ratio fires the OSQP trigger get a new rho, a host rebuild of their
  cached inverse, and one re-upload) happens every
  ``QPOptions.admm_rho_interval`` iterations on host backends and rides
  the same ``sync_interval`` round-trip on device backends.

So a device solve crosses to the host a bounded number of times, and
``sync_interval=0`` makes it strictly sync-free (the property the
CountingBackend acceptance tests pin) at the fixed initial rho — warm
starts carry an adapted rho forward instead.
"""

from __future__ import annotations

from time import perf_counter
from typing import List, Optional, Sequence

from repro.batch.backend import HOST, get_backend
from repro.batch.contract import ConditioningReport, QPOptions, QPStats
from repro.batch.host import _polish_qp
from repro.batch.qp import (
    _ACTIVE,
    _BUDGET,
    _CONV,
    _FAILED,
    _MAXIT,
    _STALLED,
    BatchQPResult,
    BatchQPStats,
    _bmv,
    _decode_lanes,
    _lane_caps,
    _maxabs,
)
from repro.firstorder.admm import (
    _STALL_WINDOW,
    _admm_rho_checkpoint,
    _admm_setup_batch,
)

__all__ = ["solve_qp_admm_batch"]

_INF = float("inf")
_NAN = float("nan")
#: residual-evaluation cadence (OSQP's ``check_termination``): the three
#: residual matvecs double the iteration cost, so they run every this many
#: iterations — per-iteration checking measured up to 2.3x slower on small
#: QPs — and a lane runs at most ``_CHECK_INTERVAL - 1`` surplus iterations
_CHECK_INTERVAL = 5
#: a lane whose hook forces a stall reports it at the first residual check
#: from this iteration on (or at its cap, if that is sooner)
_FORCED_STALL_AT = 10


def solve_qp_admm_batch(
    H,
    g,
    G,
    b,
    J,
    d,
    options: Optional[QPOptions] = None,
    deadline: Optional[float] = None,
    iteration_caps=None,
    backend=None,
    sync_interval: int = 25,
    warm: Optional[dict] = None,
    fault_hooks: Optional[Sequence[Optional[object]]] = None,
) -> BatchQPResult:
    """Solve ``B`` convex QPs with lockstep ADMM and per-lane freezing.

    Data contract matches :func:`repro.batch.qp.solve_qp_batch` (host
    arrays in, host arrays out); ``iteration_caps`` shortens individual
    lanes below ``options.admm_max_iterations`` (such lanes report
    ``"budget_exhausted"``), ``deadline`` is the absolute wall-clock stop,
    ``warm`` resumes from a previous result's ``.warm``.  The result's
    ``warm`` field carries the batch iterate triple — always the
    operator-splitting state each lane stopped on — for the next solve of
    the same shapes.  ``sync_interval`` paces a device backend's host
    round-trips (see the module docstring); host backends do not read it.

    ``fault_hooks`` is an optional length-``B`` sequence of
    :mod:`repro.faults` solver-layer hooks (``None`` entries for lanes
    without one).  A lane's hook is consulted exactly where a fault can
    enter that lane: ``transform_qp`` on its Hessian at set-up,
    ``transform_matrix`` / ``force_failure`` at every build of its cached
    inverse (set-up and each rho-checkpoint rebuild), ``force_stall`` once
    per solve.
    """
    opt = options or QPOptions()
    xp = get_backend(backend)
    # The two backend-derived values (see the module docstring).
    exit_every = sync_interval if xp.is_device else _CHECK_INTERVAL
    rho_every = sync_interval if xp.is_device else opt.admm_rho_interval
    t_setup = perf_counter()
    setup = _admm_setup_batch(H, g, G, b, J, d, opt, warm, fault_hooks)
    lanes = int(setup["q"].shape[0])
    n, p, m = setup["n"], setup["p"], setup["m"]
    msz = p + m
    # ``K`` carries ``sigma + regularization`` on its diagonal, so the
    # right-hand side does too and ``sigma x`` cancels at the fixed point.
    # A lane whose ``K`` needed the ladder's escalated regularization is
    # indefinite: the excess stays out of the right-hand side and
    # convexifies that lane's problem, as ``mpc.ipm._convexify`` does.
    sigma = opt.admm_sigma + opt.regularization
    alpha = opt.admm_alpha
    tol = opt.admm_tolerance

    # ---- one-time uploads: after this point the loop touches no host data
    # until a host round-trip (all-frozen read, rho checkpoint) or the
    # final result materialization.
    Kinv = xp.from_host(setup["Kinv"])
    A = xp.from_host(setup["A"])
    At = xp.from_host(setup["At"])
    Hd = xp.from_host(setup["H"])
    q = xp.from_host(setup["q"])
    lo = xp.from_host(setup["l"])
    hi = xp.from_host(setup["u"])
    R = xp.from_host(setup["R"])
    Rinv = xp.from_host(setup["Rinv"])

    # Per-lane equilibration scale tensors (exact unit scalings when
    # disabled): part of the same one-time upload, so the in-loop residual
    # unscaling below is pure device elementwise work — no new host syncs.
    sc = setup["scale"]
    Einv = xp.from_host(sc["Einv"])
    Dinv = xp.from_host(sc["Dinv"])
    cinv_col = xp.from_host(sc["cinv"][:, None])
    q_norm = xp.from_host(setup["q_norm"])

    x = xp.from_host(setup["x0"])
    z = xp.from_host(setup["z0"])
    y = xp.from_host(setup["y0"])

    max_it = int(opt.admm_max_iterations)
    caps, global_max = _lane_caps(xp, lanes, max_it, iteration_caps)
    budget_capped = caps < max_it

    lane_ok = xp.from_host(setup["lane_ok"], dtype="bool")
    status = xp.where(lane_ok, _ACTIVE, _FAILED)
    iterations = xp.zeros((lanes,), dtype="int")
    residual = xp.full((lanes,), _INF)
    deadline_hit = xp.zeros((lanes,), dtype="bool")

    # Stall detection rides the residual-check cadence: the limit counts
    # iterations, rounded up to whole checks, and a lane stalls when a
    # whole window of checks moves its best relative residual by less than
    # the _STALL_WINDOW fraction.
    stall_limit = int(opt.admm_stall_iterations)
    if stall_limit:
        stall_checks = max(1, -(-stall_limit // _CHECK_INTERVAL))
        best_score = xp.full((lanes,), _INF)
        window_ref = xp.full((lanes,), _INF)
        checks_done = 0
    # Lanes whose hook forces this solve to stall (consulted once per
    # solve, on the host); none in the common hook-free case.
    forced_stall = None
    if fault_hooks is not None:
        forced_h = [
            bool(getattr(hook, "force_stall", lambda: False)())
            for hook in fault_hooks
        ]
        if any(forced_h):
            forced_stall = xp.from_host(forced_h, dtype="bool")
            stall_at = xp.minimum(caps, _FORCED_STALL_AT)
    res_rows: List[object] = []
    lane_iter_acc = xp.sum(xp.zeros((1,), dtype="int"))
    bstats = BatchQPStats()
    setup_time = perf_counter() - t_setup
    rebuild_time = 0.0
    t_loop = perf_counter()

    for it in range(1, global_max + 1):
        # Wall-clock deadline stops every still-active lane at once (a
        # host-clock decision — no device data is read).
        if deadline is not None and perf_counter() >= deadline:
            still = status == _ACTIVE
            status = xp.where(still, _BUDGET, status)
            deadline_hit = deadline_hit | still
            break

        active = status == _ACTIVE
        ai = xp.astype(active, "int")
        iterations = iterations + ai
        bstats.iterations += 1
        bstats.lane_slots += lanes
        lane_iter_acc = lane_iter_acc + xp.sum(ai)

        # ---- the ReLU-QP iteration: matmul + clamp, nothing else -------
        xt = _bmv(xp, Kinv, sigma * x - q + _bmv(xp, At, R * z - y))
        x_new = alpha * xt + (1.0 - alpha) * x
        zr = alpha * _bmv(xp, A, xt) + (1.0 - alpha) * z
        z_new = xp.clip(zr + Rinv * y, lo, hi)
        y_new = y + R * (zr - z_new)

        am = active[:, None]
        x = xp.where(am, x_new, x)
        z = xp.where(am, z_new, z)
        y = xp.where(am, y_new, y)

        # ---- per-lane residuals and the classification ladder ----------
        # Evaluated every ``_CHECK_INTERVAL`` iterations, on the final
        # trip, and wherever a host round-trip is due (it reads them).
        exit_due = bool(exit_every) and it % exit_every == 0
        rho_due = bool(rho_every) and it % rho_every == 0
        is_check = (
            it % _CHECK_INTERVAL == 0
            or it == global_max
            or exit_due
            or rho_due
        )
        if is_check:
            # Residuals are unscaled back to the ORIGINAL space (pure
            # elementwise multiplies by the uploaded scale tensors), so
            # the stopping test means the same thing with and without
            # equilibration.
            Ax = _bmv(xp, A, x)
            Hx = _bmv(xp, Hd, x)
            Aty = _bmv(xp, At, y)
            r_prim = _maxabs(xp, Einv * (Ax - z))
            r_dual = _maxabs(xp, cinv_col * (Dinv * (Hx + q + Aty)))
            res = xp.maximum(r_prim, r_dual)
            residual = xp.where(active, res, residual)
            res_rows.append(xp.where(active, res, _NAN))

            prim_scale = 1.0 + xp.maximum(
                _maxabs(xp, Einv * Ax), _maxabs(xp, Einv * z)
            )
            dual_scale = 1.0 + xp.maximum(
                xp.maximum(
                    _maxabs(xp, cinv_col * (Dinv * Hx)),
                    _maxabs(xp, cinv_col * (Dinv * Aty)),
                ),
                q_norm,
            )
            rp_rel = r_prim / prim_scale
            rd_rel = r_dual / dual_scale
            finite = xp.isfinite(res)
            conv = (
                active
                & finite
                & (r_prim <= tol * prim_scale)
                & (r_dual <= tol * dual_scale)
            )
            fail = active & xp.logical_not(finite)
            status = xp.where(conv, _CONV, status)
            status = xp.where(fail, _FAILED, status)
            # Sanitize poisoned lanes so NaNs cannot linger in the frozen
            # state (their lane never publishes these zeros as a solution).
            fm = fail[:, None]
            x = xp.where(fm, 0.0, x)
            z = xp.where(fm, 0.0, z)
            y = xp.where(fm, 0.0, y)

            if forced_stall is not None:
                status = xp.where(
                    (status == _ACTIVE)
                    & forced_stall
                    & (iterations >= stall_at),
                    _STALLED,
                    status,
                )
            if stall_limit:
                # Per-lane stall detector (conv beats stall: convergence
                # was classified above, so only still-active lanes can
                # freeze here).  All device elementwise work; the window
                # boundary is a lockstep host-side counter, not a sync.
                best_score = xp.minimum(
                    best_score, xp.maximum(rp_rel, rd_rel)
                )
                checks_done += 1
                if checks_done >= stall_checks:
                    stalled_now = (
                        (status == _ACTIVE)
                        & finite
                        & (best_score > _STALL_WINDOW * window_ref)
                    )
                    status = xp.where(stalled_now, _STALLED, status)
                    window_ref = best_score
                    checks_done = 0

        # Cap enforcement runs every iteration (elementwise, no matvec) so
        # a budgeted lane freezes exactly at its cap; on check iterations
        # convergence is classified first, preserving conv-beats-cap.
        over_cap = active & (status == _ACTIVE) & (iterations >= caps)
        status = xp.where(
            over_cap, xp.where(budget_capped, _BUDGET, _MAXIT), status
        )

        if exit_due or rho_due:
            # The host round-trip: early exit for a batch that has fully
            # frozen before the global cap, and the per-lane
            # residual-balancing rho checkpoint.  On a device backend both
            # ride ``sync_interval`` and the loop stays strictly sync-free
            # in between.
            active_h = xp.to_host(status) == _ACTIVE
            if not bool(HOST.scalar(HOST.any(active_h))):
                break
            if rho_due:
                t_rebuild = perf_counter()
                if _admm_rho_checkpoint(
                    setup, opt, xp.to_host(rp_rel), xp.to_host(rd_rel),
                    active_h,
                ):
                    Kinv = xp.from_host(setup["Kinv"])
                    R = xp.from_host(setup["R"])
                    Rinv = xp.from_host(setup["Rinv"])
                    # A lane whose rebuild failed up the whole ladder
                    # freezes; batch-mates keep iterating.
                    status = xp.where(
                        xp.from_host(setup["lane_ok"], dtype="bool"),
                        status,
                        _FAILED,
                    )
                    rebuild_time += perf_counter() - t_rebuild

    loop_time = perf_counter() - t_loop

    # ---- single bulk download: the only host materialization ----------
    # Iterates come back in the scaled space and are unscaled here, on the
    # host, so everything published (solution, duals, slacks, warm state)
    # lives in the original space.
    x_h = xp.to_host(x) * sc["D"]
    z_h = xp.to_host(z) * sc["Einv"]
    y_h = xp.to_host(y) * sc["E"] * sc["cinv"][:, None]
    iters_h = xp.to_host(iterations)
    resid_h = xp.to_host(residual)
    deadline_h = xp.to_host(deadline_hit)
    ok_h = setup["lane_ok"]
    bstats.lane_iterations = int(xp.scalar(lane_iter_acc))
    status_codes, status_names, converged_h, gap_history = _decode_lanes(
        xp.to_host(status),
        xp.to_host(xp.stack(res_rows)) if res_rows else None,
    )

    nu_h = HOST.copy(y_h[:, :p])
    lam_h = HOST.maximum(y_h[:, p:], 0.0)
    slacks_h = HOST.maximum(
        setup["d"] - _bmv(HOST, setup["J"], x_h), 0.0
    )

    factor_flops = 2 * n * n * n  # batched inverse of K, per lane
    matvec_flops = 2 * n * n + 6 * msz * n
    stats: List[QPStats] = []
    for lane in range(lanes):
        st = QPStats(mode="admm")
        st.retries = int(setup["retries"][lane])
        st.regularization_max = float(setup["reg_max"][lane])
        if ok_h[lane]:
            st.factorizations = int(setup["factorizations"][lane])
            st.factor_flops = st.factorizations * factor_flops
            st.factorize_time = (setup_time + rebuild_time) / lanes
        st.substitute_flops = int(iters_h[lane]) * matvec_flops
        st.substitute_time = (loop_time - rebuild_time) / lanes
        st.conditioning = ConditioningReport(
            equilibrated=bool(sc["lane_eq"][lane]),
            ruiz_iters=int(sc["iters"][lane]),
            norm_spread_before=float(sc["spread_before"][lane]),
            norm_spread_after=float(sc["spread_after"][lane]),
            cost_scale=float(sc["c"][lane]),
            rho_rescales=max(0, int(setup["factorizations"][lane]) - 1),
            stalled=status_codes[lane] == _STALLED,
            # "failed" with sound data and a sound factorization: the
            # iteration itself went non-finite
            diverged=status_names[lane] == "failed" and bool(ok_h[lane]),
        )
        stats.append(st)

    warm_out = None
    if bool(
        HOST.scalar(
            HOST.all(HOST.isfinite(x_h))
            & HOST.all(HOST.isfinite(z_h))
            & HOST.all(HOST.isfinite(y_h))
        )
    ):
        warm_out = {
            "x": HOST.copy(x_h),
            "z": HOST.copy(z_h),
            "y": HOST.copy(y_h),
            "rho": HOST.copy(setup["rho"]),
        }

    # ---- per-lane rescue polish (host epilogue, opt.polish) ------------
    # Lanes that ended without a usable answer — stalled, capped, or
    # poisoned — get the active-set polish from the iterate they stopped
    # on, run on the UNSCALED per-lane data stashed at setup: it usually
    # has the right active set even when its accuracy floor is set by
    # curvature spread no diagonal scaling fixes.  The warm dict above was
    # captured first: it always carries the operator-splitting iterate,
    # never the polished point (not a fixed point of the iteration).
    # Lanes stopped by an *iteration* cap are polished; lanes stopped by
    # the wall-clock deadline are left alone (polish work past a deadline
    # breaks the budget contract).
    if opt.polish and n > 0:
        for lane in range(lanes):
            if not ok_h[lane]:
                continue
            code = status_codes[lane]
            if code not in (_MAXIT, _STALLED, _FAILED, _BUDGET):
                continue
            if code == _BUDGET and bool(deadline_h[lane]):
                continue
            t_polish = perf_counter()
            pol = _polish_qp(
                setup["H0"][lane],
                setup["q0"][lane],
                setup["G0"][lane] if p else None,
                setup["b0"][lane] if p else None,
                setup["J"][lane] if m else None,
                setup["d"][lane] if m else None,
                x_h[lane],
                lam_h[lane],
                opt.regularization,
                tol,
            )
            stats[lane].factorize_time += perf_counter() - t_polish
            if pol is None:
                continue
            if not (
                pol["converged"] or pol["residual"] < resid_h[lane]
            ):
                continue
            x_h[lane] = pol["x"]
            nu_h[lane] = pol["nu"]
            lam_h[lane] = pol["lam"]
            slacks_h[lane] = pol["slacks"]
            resid_h[lane] = pol["residual"]
            gap_history[lane].append(pol["residual"])
            stats[lane].factorizations += 1
            if pol["converged"]:
                status_codes[lane] = _CONV
                status_names[lane] = "converged"
                converged_h[lane] = True
                stats[lane].conditioning.polished = True

    return BatchQPResult(
        x=x_h,
        nu=nu_h,
        lam=lam_h,
        slacks=slacks_h,
        converged=converged_h,
        iterations=iters_h,
        residual=resid_h,
        status=status_names,
        budget_exhausted=deadline_h,
        gap_history=gap_history,
        stats=stats,
        batch=bstats,
        warm=warm_out,
    )
