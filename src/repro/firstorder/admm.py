"""OSQP-style ADMM solver for the repo's convex QP form.

The QP

    min  1/2 x^T H x + g^T x
    s.t. G x  = b                      (equalities)
         J x <= d                      (inequalities)

is rewritten in the OSQP box form ``l <= A x <= u`` with ``A = [G; J]``,
``l = [b; -inf]``, ``u = [b; d]`` and solved by the standard splitting:

    x~  <-  K^-1 (sigma x - g + A^T (R z - y))      with K = H + sigma I + A^T R A
    z   <-  clamp(relax(A x~, z) + R^-1 y, l, u)
    y   <-  y + R (relax(A x~, z) - z)

``R`` is the diagonal penalty (``rho`` on inequality rows, ``rho_eq_scale
* rho`` on the stiff equality rows).  ``K`` is factorized **once** per
solve — the cached factor is reused every iteration and rebuilt only when
the primal/dual residual ratio triggers a rho rescaling (TinyMPC's cached-
factorization discipline).  Because the per-iteration work is then pure
matvec + clamp, the iteration maps directly onto batched device execution
(:mod:`repro.firstorder.batch`, the ReLU-QP observation).

Warm starting: ``QPResult.warm`` carries ``(x, z, y, rho)`` out of every
solve; passing it back in (same problem family — shapes must match)
resumes the operator-splitting iteration instead of restarting it, which
is what makes ADMM competitive across RTI/MPC ticks.  A solve stopped by
its ``deadline`` returns the **best iterate seen** (by scaled residual)
with ``budget_exhausted=True`` and still-valid warm state, mirroring the
IPM's budget semantics.
"""

from __future__ import annotations

from time import perf_counter
from typing import List, Optional

import numpy as np

from repro.errors import SolverError
from repro.mpc.linalg import (
    cholesky,
    cholesky_solve,
    flop_counts_cholesky,
    flop_counts_substitution,
    max_abs,
)
from repro.firstorder.precond import (
    identity_equilibration,
    identity_scale_batch,
    norm_spread,
    norm_spread_batch,
    ruiz_equilibrate,
    ruiz_equilibrate_batch,
)
from repro.mpc.qp import ConditioningReport, QPOptions, QPResult, QPStats

__all__ = ["solve_qp_admm"]

#: rho adaptation clamp (OSQP's RHO_MIN / RHO_MAX)
_RHO_MIN = 1e-6
_RHO_MAX = 1e6
#: residual-ratio threshold that actually triggers a rescale+refactor
_RHO_TRIGGER = 5.0
#: stall detector: across one ``admm_stall_iterations`` window the best
#: relative residual must improve below this fraction of the previous
#: window's best, or the solve is declared stalled.  0.9 = "at least 10%
#: better per window" — loose enough that slow tail convergence (tight
#: tolerances creep sublinearly near the floor) never trips it, tight
#: enough that a genuinely flat residual plateau does.
_STALL_WINDOW = 0.9


def _penalty_diag(rho: float, p: int, m: int, eq_scale: float) -> np.ndarray:
    R = np.full(p + m, rho)
    R[:p] *= eq_scale
    return R


def _factor_inverse(
    H, A, R, sigma, reg, stats: Optional[QPStats] = None, fault_hook=None
):
    """Explicit inverse of ``K = H + sigma I + A^T R A`` via the repo's
    Cholesky kernels (regularization escalates x100 on failure, same
    schedule as the IPM's ``_robust_factor``).

    Returning the inverse — rather than keeping the factor — makes the
    per-iteration solve a single matvec, which is the form the batched
    device loop needs (matmul + clamp, nothing else).

    ``fault_hook`` follows the ``_robust_factor`` protocol of
    :mod:`repro.mpc.qp`: ``transform_matrix`` may perturb ``K``
    (ill-conditioning campaigns), ``force_failure`` exercises the retry
    ladder on demand.
    """
    n = H.shape[0]
    K = H + sigma * np.eye(n)
    if A.shape[0]:
        K = K + (A.T * R) @ A
    # Duck-typed hook protocol: a campaign hook implements any subset of
    # transform_matrix / force_failure / force_stall.
    transform = getattr(fault_hook, "transform_matrix", None)
    if transform is not None:
        K = transform(K)
    force_failure = getattr(fault_hook, "force_failure", None)
    t0 = perf_counter()
    current = reg
    L = None
    for _ in range(16):
        try:
            if force_failure is not None and force_failure():
                raise SolverError("injected factorization failure")
            L = cholesky(K, reg=current)
            break
        except SolverError:
            if stats is not None:
                stats.retries += 1
            current = max(current * 100.0, 1e-12)
    if L is None:
        raise SolverError(
            f"ADMM KKT matrix could not be factorized (reg {current:.1e})"
        )
    Kinv = cholesky_solve(L, np.eye(n))
    if stats is not None:
        stats.factorizations += 1
        stats.factor_flops += sum(flop_counts_cholesky(n).values())
        stats.factor_flops += 2 * sum(
            flop_counts_substitution(n, n).values()
        )
        stats.factorize_time += perf_counter() - t0
        stats.regularization_max = max(stats.regularization_max, current)
    return Kinv


def _valid_warm(warm: Optional[dict], n: int, msz: int) -> Optional[dict]:
    """Warm-start hygiene: accept only a complete, shape-matching, finite
    iterate triple — anything else falls back to a cold start (the same
    reject-and-reseed contract the SQP applies to its own warm starts)."""
    if not isinstance(warm, dict):
        return None
    try:
        x = np.asarray(warm["x"], dtype=float)
        z = np.asarray(warm["z"], dtype=float)
        y = np.asarray(warm["y"], dtype=float)
    except (KeyError, TypeError, ValueError):
        return None
    if x.shape != (n,) or z.shape != (msz,) or y.shape != (msz,):
        return None
    if not (
        np.all(np.isfinite(x))
        and np.all(np.isfinite(z))
        and np.all(np.isfinite(y))
    ):
        return None
    rho = warm.get("rho")
    if rho is not None:
        rho = float(rho)
        if not np.isfinite(rho) or rho <= 0.0:
            rho = None
    return {"x": x.copy(), "z": z.copy(), "y": y.copy(), "rho": rho}


#: slack/dual threshold that puts an inequality row into the polish guess
_POLISH_ACTIVE_TOL = 1e-6
#: iterative-refinement passes against the unregularized KKT system
_POLISH_REFINE = 3
#: active-set repair rounds (drop negative multipliers, then add violated
#: rows — never both in one round, which thrashes on stiff problems)
_POLISH_ROUNDS = 15


def _polish_qp(H, g, G, b, J, d, x, lam, reg, tol):
    """Active-set polish of a first-order iterate (OSQP Section 5.2, plus
    active-set repair rounds).

    A stalled or capped ADMM iterate is usually *qualitatively* right —
    it knows which inequality rows bind — while its accuracy is pinned by
    the problem's curvature spread, which no diagonal scaling can fix.
    Solving the equality-constrained KKT system of the guessed active set
    (regularized quasi-definite factorization + iterative refinement) has
    no such floor, so one direct solve recovers the solution to near
    machine precision *if the guess is right*.  Each repair round then
    adds rows the candidate violates and drops rows with negative
    multipliers, converging to the true active set from a coarse guess.

    Returns a dict with the best candidate seen (``x``, ``nu``, ``lam``,
    ``slacks``, ``r_prim``, ``r_dual``, ``residual`` and a ``converged``
    verdict against ``tol`` in the relative metric of the ADMM loop), or
    ``None`` when no round produced a finite solve.
    """
    n = g.shape[0]
    p = G.shape[0] if G is not None else 0
    m = J.shape[0] if J is not None else 0
    delta = max(float(reg), 1e-9)
    g_norm = max_abs(g)
    act = np.zeros(m, dtype=bool)
    if m:
        act = ((d - J @ x) < _POLISH_ACTIVE_TOL * (1.0 + np.abs(d))) | (
            lam > _POLISH_ACTIVE_TOL
        )
    best = None
    best_score = float("inf")
    for _ in range(_POLISH_ROUNDS):
        rows, rhs_rows = [], []
        if p:
            rows.append(G)
            rhs_rows.append(b)
        if m and np.any(act):
            rows.append(J[act])
            rhs_rows.append(d[act])
        A_act = np.vstack(rows) if rows else np.zeros((0, n))
        rc = np.concatenate(rhs_rows) if rhs_rows else np.zeros(0)
        ka = A_act.shape[0]
        K = np.block(
            [
                [H + delta * np.eye(n), A_act.T],
                [A_act, -delta * np.eye(ka)],
            ]
        )
        K0 = np.block(
            [[H, A_act.T], [A_act, np.zeros((ka, ka))]]
        )
        rhs = np.concatenate([-g, rc])
        try:
            sol = np.linalg.solve(K, rhs)
            for _refine in range(_POLISH_REFINE):
                sol = sol + np.linalg.solve(K, rhs - K0 @ sol)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(sol)):
            break
        px = sol[:n]
        mult = sol[n:]
        r_dual = max_abs(
            H @ px + g + (A_act.T @ mult if ka else 0.0)
        )
        r_prim = 0.0
        if p:
            r_prim = max(r_prim, max_abs(G @ px - b))
        viol = np.zeros(0)
        if m:
            viol = J @ px - d
            r_prim = max(r_prim, float(np.max(np.maximum(viol, 0.0))))
        score = max(r_dual, r_prim)
        if score < best_score:
            best_score = score
            lam_full = np.zeros(m)
            if m and ka > p:
                lam_full[act] = np.maximum(mult[p:], 0.0)
            best = {
                "x": px,
                "nu": mult[:p].copy(),
                "lam": lam_full,
                "r_prim": r_prim,
                "r_dual": r_dual,
            }
        if not m:
            break
        # Repair the guess, one move at a time (textbook active-set
        # discipline): first evict rows whose multiplier came back
        # negative — a wrongly pinned row drags the candidate into
        # violating *other* rows, so adding and dropping simultaneously
        # chases its own tail on stiff problems.  Only once the
        # multipliers are clean do violated rows join the set.
        new_act = act.copy()
        if ka > p:
            neg = mult[p:] < -1e-9
            if np.any(neg):
                new_act[np.flatnonzero(act)[neg]] = False
        if np.array_equal(new_act, act):
            new_act = act | (viol > 1e-9 * (1.0 + np.abs(d)))
        if np.array_equal(new_act, act):
            break
        act = new_act
    if best is None:
        return None

    px = best["x"]
    y_full = np.concatenate([best["nu"], best["lam"]])
    rows = []
    if p:
        rows.append(G)
    if m:
        rows.append(J)
    A = np.vstack(rows) if rows else np.zeros((0, n))
    Ax = A @ px
    prim_scale = 1.0 + max_abs(Ax)
    dual_scale = 1.0 + max(
        max_abs(H @ px),
        max_abs(A.T @ y_full) if A.shape[0] else 0.0,
        g_norm,
    )
    best["slacks"] = (
        np.maximum(d - J @ px, 0.0) if m else np.zeros(0)
    )
    best["residual"] = max(best["r_prim"], best["r_dual"])
    best["converged"] = bool(
        best["r_prim"] <= tol * prim_scale
        and best["r_dual"] <= tol * dual_scale
    )
    return best


def solve_qp_admm(
    H: np.ndarray,
    g: np.ndarray,
    G: Optional[np.ndarray],
    b: Optional[np.ndarray],
    J: Optional[np.ndarray],
    d: Optional[np.ndarray],
    options: Optional[QPOptions] = None,
    deadline: Optional[float] = None,
    warm: Optional[dict] = None,
    fault_hook: Optional[object] = None,
) -> QPResult:
    """Solve one convex QP with over-relaxed ADMM and a cached factorization.

    Same data contract as :func:`repro.mpc.qp.solve_qp` (which dispatches
    here for ``options.method == "admm"``).  ``deadline`` is an absolute
    ``perf_counter`` stamp: past it, the best iterate seen is returned with
    ``budget_exhausted=True``.  ``warm`` resumes from a previous solve's
    ``QPResult.warm`` — warm dicts always travel in the *unscaled* space,
    so carry-over survives re-equilibration with fresh scalings.

    With ``options.admm_equilibrate`` the box-form data is Ruiz-scaled
    first and the iteration runs on the scaled problem while terminating
    on the unscaled residuals; the returned iterates, duals, residuals and
    warm state are always in the original space.  A
    :class:`~repro.mpc.qp.ConditioningReport` on ``result.stats`` records
    the norm spread, rho-rescale count and the stall/divergence verdict
    the fallback ladder keys on.

    ``fault_hook`` is the :mod:`repro.faults` solver-layer injector: the
    cached factorization consults ``transform_matrix``/``force_failure``
    (same protocol as the IPM's ``_robust_factor``), and the optional
    ``force_stall`` hook makes this solve report a stall after a few
    iterations — the deterministic trigger ``admm_stall`` campaigns use to
    exercise the rescue ladder.
    """
    opt = options or QPOptions()
    n = g.shape[0]
    if H.shape != (n, n):
        raise SolverError(f"H shape {H.shape} does not match g length {n}")
    for name, arr in (("H", H), ("g", g), ("G", G), ("b", b), ("J", J), ("d", d)):
        if arr is not None and np.size(arr) and not np.all(np.isfinite(arr)):
            raise SolverError(
                f"QP data {name} contains non-finite entries; "
                "refusing to start the ADMM iteration"
            )

    has_eq = G is not None and G.shape[0] > 0
    has_in = J is not None and J.shape[0] > 0
    p = G.shape[0] if has_eq else 0
    m = J.shape[0] if has_in else 0
    if has_eq and (b is None or b.shape != (p,)):
        raise SolverError("equality right-hand side b missing or mis-shaped")
    if has_in and (d is None or d.shape != (m,)):
        raise SolverError("inequality right-hand side d missing or mis-shaped")
    msz = p + m

    rows = []
    if has_eq:
        rows.append(np.asarray(G, dtype=float))
    if has_in:
        rows.append(np.asarray(J, dtype=float))
    A = np.vstack(rows) if rows else np.zeros((0, n))
    l = np.concatenate(
        [b if has_eq else np.zeros(0), np.full(m, -np.inf)]
    )
    u = np.concatenate(
        [b if has_eq else np.zeros(0), d if has_in else np.zeros(0)]
    )

    stats = QPStats(mode="admm")
    tol = opt.admm_tolerance
    sigma = opt.admm_sigma
    alpha = opt.admm_alpha

    # ---- Ruiz equilibration: the iteration runs on the scaled problem,
    # termination and every returned quantity stay in the original space.
    # Gated on the norm spread: already-well-scaled data is left alone
    # (normalizing it would make the relative stopping test effectively
    # absolute and can push a tight tolerance below the iteration's
    # numerical floor).  The skipped path uses unit scalings, whose
    # multiplies are bit-exact identities, so both paths share one loop
    # body.
    spread0 = norm_spread(H, A)
    eq_on = (
        bool(opt.admm_equilibrate)
        and opt.admm_equilibrate_iters > 0
        and n > 0
        and spread0 > opt.admm_equilibrate_spread
    )
    if eq_on:
        Hs, gs, As, eq = ruiz_equilibrate(
            H, g, A, iters=opt.admm_equilibrate_iters
        )
        l = eq.E * l
        u = eq.E * u
    else:
        Hs, gs, As = H, g, A
        eq = identity_equilibration(n, msz)
        eq.spread_before = spread0
        eq.spread_after = spread0

    ws = _valid_warm(warm, n, msz)
    rho = opt.admm_rho
    if ws is not None and ws["rho"] is not None:
        rho = min(max(ws["rho"], _RHO_MIN), _RHO_MAX)
    R = _penalty_diag(rho, p, m, opt.admm_rho_eq_scale)
    Rinv = 1.0 / R
    Kinv = _factor_inverse(
        Hs, As, R, sigma, opt.regularization, stats, fault_hook=fault_hook
    )

    if ws is not None:
        x, z, y = eq.scale_warm(ws["x"], ws["z"], ws["y"])
        z = np.clip(z, l, u)
    else:
        x = np.zeros(n)
        z = np.clip(As @ x, l, u)
        y = np.zeros(msz)

    g_norm = max_abs(g)
    gap_history: List[float] = []
    converged = False
    budget_exhausted = False
    stalled = False
    diverged = False
    rho_rescales = 0
    stall_limit = int(opt.admm_stall_iterations)
    window_ref = float("inf")
    window_count = 0
    forced_stall = bool(
        fault_hook is not None
        and getattr(fault_hook, "force_stall", None) is not None
        and fault_hook.force_stall()
    )
    residual = float("inf")
    best_score = float("inf")
    best = (x.copy(), z.copy(), y.copy(), residual, 0)
    it = 0
    matvec_flops = 2 * n * n + 6 * msz * n  # per-iteration matvec budget
    t_sub = perf_counter()
    fact_t0 = stats.factorize_time

    for it in range(1, opt.admm_max_iterations + 1):
        # Deadline guard at the iteration top, scalar-IPM order: the best
        # iterate seen so far is returned with budget_exhausted=True, so
        # ``it - 1`` iterations did real work.
        if deadline is not None and perf_counter() >= deadline:
            budget_exhausted = True
            it -= 1
            break

        xt = Kinv @ (sigma * x - gs + As.T @ (R * z - y))
        x = alpha * xt + (1.0 - alpha) * x
        zr = alpha * (As @ xt) + (1.0 - alpha) * z
        z_new = np.clip(zr + Rinv * y, l, u)
        y = y + R * (zr - z_new)
        z = z_new

        # Residuals are evaluated in the ORIGINAL space (elementwise
        # unscaling of the scaled quantities), so the stopping test means
        # the same thing with and without equilibration.
        Ax = As @ x
        Hx = Hs @ x
        Aty = As.T @ y if msz else np.zeros(n)
        r_prim = max_abs(eq.Einv * (Ax - z))
        r_dual = max_abs(eq.cinv * (eq.Dinv * (Hx + gs + Aty)))
        residual = max(r_prim, r_dual)
        gap_history.append(residual)
        if not np.isfinite(residual):
            # Poisoned iterate: stop on the best finite iterate seen.  The
            # caller's non-finite direction guard never fires on the
            # restored state.
            diverged = True
            break

        prim_scale = 1.0 + max(
            max_abs(eq.Einv * Ax), max_abs(eq.Einv * z)
        )
        dual_scale = 1.0 + max(
            max_abs(eq.cinv * (eq.Dinv * Hx)),
            max_abs(eq.cinv * (eq.Dinv * Aty)),
            g_norm,
        )
        rp_rel = r_prim / prim_scale
        rd_rel = r_dual / dual_scale
        score = max(rp_rel, rd_rel)
        if score < best_score:
            best_score = score
            best = (x.copy(), z.copy(), y.copy(), residual, it)
        if rp_rel <= tol and rd_rel <= tol:
            converged = True
            break
        if forced_stall and it >= min(10, opt.admm_max_iterations):
            stalled = True
            break
        if stall_limit:
            window_count += 1
            if window_count >= stall_limit:
                if best_score > _STALL_WINDOW * window_ref:
                    # The whole window moved the best residual by less
                    # than 10%: stop on the best iterate and let the
                    # fallback ladder spend the remaining budget on the
                    # IPM instead of burning it here.
                    stalled = True
                    break
                window_ref = best_score
                window_count = 0

        if opt.admm_rho_interval and it % opt.admm_rho_interval == 0:
            # OSQP residual-balancing rho update; a rescale is the ONLY
            # event that re-factorizes the cached KKT matrix.
            ratio = np.sqrt(max(rp_rel, 1e-30) / max(rd_rel, 1e-30))
            if ratio > _RHO_TRIGGER or ratio < 1.0 / _RHO_TRIGGER:
                new_rho = min(max(rho * ratio, _RHO_MIN), _RHO_MAX)
                if new_rho != rho:
                    rho = new_rho
                    R = _penalty_diag(rho, p, m, opt.admm_rho_eq_scale)
                    Rinv = 1.0 / R
                    rho_rescales += 1
                    Kinv = _factor_inverse(
                        Hs, As, R, sigma, opt.regularization, stats,
                        fault_hook=fault_hook,
                    )

    if not converged and best[4] > 0:
        # Return the best iterate seen (budget stop, cap, or divergence):
        # the residual was evaluated at exactly this iterate, so the
        # returned pair is consistent — and the warm state stays reusable.
        x, z, y, residual, _best_it = best

    stats.substitute_time += (
        perf_counter() - t_sub - (stats.factorize_time - fact_t0)
    )
    stats.substitute_flops += it * matvec_flops

    # Back to the original space: iterates, duals, slacks, residuals and
    # the warm dict are all unscaled from here on.
    x, z, y = eq.unscale_solution(x, z, y)

    nu = y[:p].copy()
    lam = np.maximum(y[p:], 0.0)
    # The warm dict always carries the operator-splitting iterate — never
    # the polished point, which is not a fixed point of the iteration.
    warm_out = None
    if (
        np.all(np.isfinite(x))
        and np.all(np.isfinite(z))
        and np.all(np.isfinite(y))
    ):
        warm_out = {
            "x": x.copy(),
            "z": z.copy(),
            "y": y.copy(),
            "rho": rho,
        }

    polished = False
    if (
        opt.polish
        and not converged
        and not budget_exhausted
        and n > 0
        and np.all(np.isfinite(x))
    ):
        # Rescue polish: a stalled/capped/diverged-then-restored iterate
        # usually has the right active set even when its accuracy floor is
        # set by curvature spread no diagonal scaling fixes; one direct
        # KKT solve on that set recovers the solution past the floor.
        t_pol = perf_counter()
        pol = _polish_qp(
            H, g,
            G if has_eq else None, b if has_eq else None,
            J if has_in else None, d if has_in else None,
            x, lam, opt.regularization, tol,
        )
        stats.factorize_time += perf_counter() - t_pol
        if pol is not None and (
            pol["converged"] or pol["residual"] < residual
        ):
            x = pol["x"]
            nu = pol["nu"]
            lam = pol["lam"]
            residual = pol["residual"]
            gap_history.append(residual)
            converged = converged or pol["converged"]
            polished = pol["converged"]
            stats.factorizations += 1

    slacks = (
        np.maximum(d - J @ x, 0.0) if has_in else np.zeros(0)
    )
    stats.conditioning = ConditioningReport(
        equilibrated=eq_on,
        ruiz_iters=eq.iters,
        norm_spread_before=eq.spread_before,
        norm_spread_after=eq.spread_after,
        cost_scale=eq.c,
        rho_rescales=rho_rescales,
        stalled=stalled,
        diverged=diverged,
        polished=polished,
    )

    return QPResult(
        x=x,
        nu=nu,
        lam=lam,
        slacks=slacks,
        converged=converged,
        iterations=it,
        residual=residual,
        gap_history=gap_history,
        stats=stats,
        budget_exhausted=budget_exhausted,
        warm=warm_out,
    )


# ------------------------------------------------------------------------
# Host-side setup for the batched device loop (repro.firstorder.batch).
#
# All bare-numpy work of the batched path lives HERE, not in batch.py:
# the lint gate (scripts/check_no_bare_numpy.py) keeps the device module
# free of host-pinned array ops, and setup is by construction a one-time
# host materialization (build A/l/u, invert K) before the sync-free loop.
# ------------------------------------------------------------------------


def _admm_refactor_batch(H, A, rho_lane, p, m, eq_scale, sigma, reg):
    """(Re)build the per-lane penalty diagonal and the batched inverse of
    ``K = H + sigma I + A^T R A`` on the host.

    Called once at setup and again whenever the residual-balancing rho
    update fires at a sync checkpoint — the *only* events that touch the
    cached factorization, mirroring the scalar path's discipline.
    Returns ``(Kinv, R, Rinv, ok)`` with ``ok`` flagging lanes whose K
    actually inverted to finite values.
    """
    lanes, n = H.shape[0], H.shape[1]
    msz = p + m
    R = np.repeat(np.asarray(rho_lane, dtype=float)[:, None], msz, axis=1)
    R[:, :p] *= eq_scale
    eye = np.broadcast_to(np.eye(n), (lanes, n, n))
    K = H + (sigma + reg) * eye
    if msz:
        K = K + np.matmul(A.transpose(0, 2, 1), R[:, :, None] * A)
    try:
        Kinv = np.linalg.inv(K)
    except np.linalg.LinAlgError:
        # Per-lane fallback: a singular lane freezes as failed, the rest
        # keep their exact inverse.
        Kinv = np.empty_like(K)
        for lane in range(lanes):
            try:
                Kinv[lane] = np.linalg.inv(K[lane])
            except np.linalg.LinAlgError:
                Kinv[lane] = np.eye(n)
    ok = np.all(np.isfinite(Kinv), axis=(1, 2))
    Kinv[~ok] = np.eye(n)
    with np.errstate(divide="ignore"):
        Rinv = np.where(R > 0.0, 1.0 / np.where(R > 0.0, R, 1.0), 0.0)
    return Kinv, R, Rinv, ok


def _admm_setup_batch(
    H, g, G, b, J, d, opt: QPOptions, rho0=None
) -> dict:
    """Assemble the batched ADMM problem data on the host.

    Returns host numpy arrays only; the caller uploads them once.  Lanes
    with non-finite data are sanitized (identity K, zero constraints) and
    flagged in ``lane_finite`` so the device loop freezes them as failed
    without poisoning batch-mates — same contract as the batched IPM.
    ``rho0`` optionally seeds the per-lane penalty (scalar or ``(B,)``,
    e.g. a warm start's adapted rho).
    """
    H = np.asarray(H, dtype=float)
    g = np.asarray(g, dtype=float)
    lanes, n = g.shape[0], g.shape[1]
    if H.shape != (lanes, n, n):
        raise SolverError(f"H shape {H.shape} != ({lanes}, {n}, {n})")
    if G is None or b is None:
        G = np.zeros((lanes, 0, n))
        b = np.zeros((lanes, 0))
    else:
        G = np.asarray(G, dtype=float)
        b = np.asarray(b, dtype=float)
    if J is None or d is None:
        J = np.zeros((lanes, 0, n))
        d = np.zeros((lanes, 0))
    else:
        J = np.asarray(J, dtype=float)
        d = np.asarray(d, dtype=float)
    p, m = G.shape[1], J.shape[1]
    msz = p + m

    lane_finite = (
        np.all(np.isfinite(H), axis=(1, 2))
        & np.all(np.isfinite(g), axis=1)
        & np.all(np.isfinite(G.reshape(lanes, -1)), axis=1)
        & np.all(np.isfinite(b), axis=1)
        & np.all(np.isfinite(J.reshape(lanes, -1)), axis=1)
        & np.all(np.isfinite(d), axis=1)
    )
    lf3 = lane_finite[:, None, None]
    lf2 = lane_finite[:, None]
    eye = np.broadcast_to(np.eye(n), (lanes, n, n))
    H = np.where(lf3, H, eye)
    g = np.where(lf2, g, 0.0)
    G = np.where(lf3, G, 0.0)
    b = np.where(lf2, b, 0.0)
    J = np.where(lf3, J, 0.0)
    d = np.where(lf2, d, 0.0)

    A = np.concatenate([G, J], axis=1)
    l = np.concatenate(
        [b, np.full((lanes, m), -np.inf)], axis=1
    )
    u = np.concatenate([b, d], axis=1)
    q_norm = np.max(np.abs(g), axis=1) if n else np.zeros(lanes)
    # Keep the sanitized-but-unscaled data for the per-lane polish epilogue
    # (equilibration below rebinds H/g/A to scaled copies).
    H0, q0, G0, b0 = H, g, G, b

    # Per-lane Ruiz equilibration: every lane gets its own D/E/c fixpoint;
    # the scale tensors ride to the device with the rest of the one-time
    # uploads.  The spread gate is per-lane: lanes under the threshold
    # keep their original data and exact unit scalings (bit-identical to
    # the unequilibrated loop — unit-scale multiplies are exact), so a
    # stiff lane never changes a well-conditioned batch-mate's arithmetic.
    spread0 = norm_spread_batch(H, A)
    eq_enabled = (
        bool(opt.admm_equilibrate) and opt.admm_equilibrate_iters > 0 and n > 0
    )
    lane_eq = eq_enabled & (spread0 > opt.admm_equilibrate_spread)
    if np.any(lane_eq):
        Hs, gs, As, scale = ruiz_equilibrate_batch(
            H, g, A, iters=opt.admm_equilibrate_iters
        )
        calm = ~lane_eq
        if np.any(calm):
            Hs[calm] = H[calm]
            gs[calm] = g[calm]
            As[calm] = A[calm]
            for key in ("D", "Dinv", "E", "Einv"):
                scale[key][calm] = 1.0
            scale["c"][calm] = 1.0
            scale["cinv"][calm] = 1.0
            scale["spread_after"][calm] = spread0[calm]
        H, g, A = Hs, gs, As
        l = scale["E"] * l
        u = scale["E"] * u
    else:
        scale = identity_scale_batch(lanes, n, msz)
        scale["spread_after"] = spread0.copy()
    scale["spread_before"] = spread0
    scale["lane_eq"] = lane_eq

    if rho0 is None:
        rho_lane = np.full(lanes, opt.admm_rho)
    else:
        rho_lane = np.broadcast_to(
            np.asarray(rho0, dtype=float), (lanes,)
        ).copy()
        bad_rho = ~np.isfinite(rho_lane) | (rho_lane <= 0.0)
        rho_lane[bad_rho] = opt.admm_rho
    rho_lane = np.clip(rho_lane, _RHO_MIN, _RHO_MAX)

    Kinv, R, Rinv, ok = _admm_refactor_batch(
        H, A, rho_lane, p, m,
        opt.admm_rho_eq_scale, opt.admm_sigma, opt.regularization,
    )
    lane_finite = lane_finite & ok

    return {
        "Kinv": Kinv,
        "A": A,
        "At": A.transpose(0, 2, 1).copy(),
        "H": H,
        "q": g,
        "l": l,
        "u": u,
        # J/d stay UNSCALED: slack recovery at result assembly runs on the
        # unscaled iterate (the scaled rows of A carry E internally).
        "J": J,
        "d": d,
        # Unscaled problem data for the polish epilogue (host-only).
        "H0": H0,
        "q0": q0,
        "G0": G0,
        "b0": b0,
        "R": R,
        "Rinv": Rinv,
        "lane_finite": lane_finite,
        "n": n,
        "p": p,
        "m": m,
        "rho": rho_lane,
        #: per-lane unscaled ``max|g|`` for the dual convergence scale
        "q_norm": q_norm,
        #: per-lane equilibration tensors (unit scalings when disabled)
        "scale": scale,
    }


def _admm_warm_batch(warm: Optional[dict], lanes: int, n: int, msz: int):
    """Validate a batched warm-start dict (host arrays, all-finite)."""
    if not isinstance(warm, dict):
        return None
    try:
        x = np.asarray(warm["x"], dtype=float)
        z = np.asarray(warm["z"], dtype=float)
        y = np.asarray(warm["y"], dtype=float)
    except (KeyError, TypeError, ValueError):
        return None
    if (
        x.shape != (lanes, n)
        or z.shape != (lanes, msz)
        or y.shape != (lanes, msz)
    ):
        return None
    if not (
        np.all(np.isfinite(x))
        and np.all(np.isfinite(z))
        and np.all(np.isfinite(y))
    ):
        return None
    rho = warm.get("rho")
    if rho is not None:
        try:
            rho = np.broadcast_to(
                np.asarray(rho, dtype=float), (lanes,)
            ).copy()
        except ValueError:
            rho = None
    return {"x": x, "z": z, "y": y, "rho": rho}


def _admm_rho_update_batch(rho_lane, rp_rel, rd_rel, trigger_mask):
    """Host-side per-lane residual-balancing rho update (sync checkpoint).

    Returns ``(new_rho, changed)`` where ``changed`` marks lanes whose rho
    actually moved (those are the lanes whose cached factor is rebuilt).
    """
    ratio = np.sqrt(
        np.maximum(rp_rel, 1e-30) / np.maximum(rd_rel, 1e-30)
    )
    fire = (
        trigger_mask
        & np.isfinite(ratio)
        & ((ratio > _RHO_TRIGGER) | (ratio < 1.0 / _RHO_TRIGGER))
    )
    new_rho = np.clip(rho_lane * ratio, _RHO_MIN, _RHO_MAX)
    new_rho = np.where(fire, new_rho, rho_lane)
    changed = fire & (new_rho != rho_lane)
    return new_rho, changed
