"""OSQP-style ADMM for the repo's convex QP form: host-side set-up, the
active-set polish, and the single-QP entry point.

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
* rho`` on the stiff equality rows).  ``K`` is inverted **once** per
solve — the cached inverse is reused every iteration and rebuilt only when
the primal/dual residual ratio triggers a rho rescaling (TinyMPC's cached-
factorization discipline), so the per-iteration work is pure matvec +
clamp (the ReLU-QP observation).

That iteration exists once, in :mod:`repro.firstorder.batch`, over a
``(B, ...)`` lane stack; :func:`solve_qp_admm` is its ``B = 1`` lane.
This module holds what runs on the host around the loop — box-form
assembly, Ruiz scaling, warm-start validation, the positive-definiteness-
checked build of ``K^-1`` with its regularization ladder and fault hooks,
the rho checkpoint, and the polish — all of it per lane, for every ``B``.

Warm starting: ``QPResult.warm`` carries ``(x, z, y, rho)`` out of every
solve; passing it back in (same problem family — shapes must match)
resumes the operator-splitting iteration instead of restarting it, which
is what makes ADMM competitive across RTI/MPC ticks.  A solve stopped by
its ``deadline`` or an iteration cap returns the iterate it stopped on
with still-valid warm state (``budget_exhausted=True`` for the deadline),
mirroring the IPM's budget semantics.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import SolverError
from repro.mpc.linalg import max_abs
from repro.firstorder.precond import (
    identity_scale_batch,
    norm_spread_batch,
    ruiz_equilibrate_batch,
)
from repro.mpc.qp import QPOptions, QPResult

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
#: attempts of the escalating-regularization ladder per build of ``K^-1``
#: (the schedule of the IPM's retry ladder, ``repro.batch.linalg``)
_FACTOR_ATTEMPTS = 16


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

    Candidates are ranked by stationarity ``r_dual``, primal feasibility
    ``r_prim`` and dual feasibility ``r_sign`` (the most negative
    multiplier of a guessed-active row, 0 when none is): a candidate that
    pins a row the optimum leaves free solves its equalities to roundoff
    and is still no optimum.  Returns a dict with the best candidate seen
    (``x``, ``nu``, ``lam``, ``slacks``, ``r_prim``, ``r_dual``,
    ``r_sign``, ``residual`` and a ``converged`` verdict against ``tol``
    in the relative metric of the ADMM loop, ``r_sign`` held to the dual
    scale as ``r_dual`` is), or ``None`` when no round produced a finite
    solve.
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
        # dual feasibility: a guessed-active row must not pull (its
        # multiplier negative), or the candidate is no optimum
        r_sign = max(0.0, -float(np.min(mult[p:], initial=0.0)))
        score = max(r_dual, r_prim, r_sign)
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
                "r_sign": r_sign,
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
    best["residual"] = max(best["r_prim"], best["r_dual"], best["r_sign"])
    best["converged"] = bool(
        best["r_prim"] <= tol * prim_scale
        and max(best["r_dual"], best["r_sign"]) <= tol * dual_scale
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
    """Solve one convex QP with over-relaxed ADMM and a cached factorization:
    the ``B = 1`` lane of :func:`~repro.firstorder.batch.solve_qp_admm_batch`.

    Same data contract as :func:`repro.mpc.qp.solve_qp` (which dispatches
    here for ``options.method == "admm"``).  ``deadline`` is an absolute
    ``perf_counter`` stamp: past it, the current iterate is returned with
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

    ``fault_hook`` is the :mod:`repro.faults` solver-layer injector, handed
    to the loop as the lane's hook: every build of the cached inverse
    consults ``transform_matrix``/``force_failure`` (the IPM loop's
    protocol, :class:`repro.mpc.qp._LaneFaults`), and the optional
    ``force_stall`` hook makes this solve report a stall after a few
    iterations — the deterministic
    trigger ``admm_stall`` campaigns use to exercise the rescue ladder.

    Raises :class:`~repro.errors.SolverError` on non-finite or mis-shaped
    data (before any iteration) and when ``K`` cannot be factorized even
    at the top of the regularization ladder.
    """
    # Imported lazily: the loop module imports this module's host helpers.
    from repro.firstorder.batch import solve_qp_admm_batch

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
    if has_eq and (b is None or b.shape != (G.shape[0],)):
        raise SolverError("equality right-hand side b missing or mis-shaped")
    if has_in and (d is None or d.shape != (J.shape[0],)):
        raise SolverError("inequality right-hand side d missing or mis-shaped")

    try:
        warm_lane = {
            key: np.asarray(warm[key], dtype=float)[None]
            for key in ("x", "z", "y")
        }
        warm_lane["rho"] = warm.get("rho")
    except (AttributeError, KeyError, TypeError, ValueError):
        warm_lane = None  # absent or malformed: the lane starts cold

    res = solve_qp_admm_batch(
        H[None],
        g[None],
        G[None] if has_eq else None,
        b[None] if has_eq else None,
        J[None] if has_in else None,
        d[None] if has_in else None,
        options,
        deadline=deadline,
        warm=warm_lane,
        fault_hooks=None if fault_hook is None else [fault_hook],
    )
    stats = res.stats[0]
    if res.status[0] == "failed" and not stats.conditioning.diverged:
        raise SolverError(
            "ADMM KKT matrix could not be factorized "
            f"(after {stats.retries} regularization retries)"
        )
    warm_out = None
    if res.warm is not None:
        warm_out = {key: res.warm[key][0] for key in ("x", "z", "y")}
        warm_out["rho"] = float(res.warm["rho"][0])
    return QPResult(
        x=res.x[0],
        nu=res.nu[0],
        lam=res.lam[0],
        slacks=res.slacks[0],
        converged=bool(res.converged[0]),
        iterations=int(res.iterations[0]),
        residual=float(res.residual[0]),
        gap_history=res.gap_history[0],
        stats=stats,
        budget_exhausted=bool(res.budget_exhausted[0]),
        warm=warm_out,
    )


# ------------------------------------------------------------------------
# Host-side set-up and checkpoints of the lockstep loop
# (repro.firstorder.batch).
#
# All bare-numpy work of the solver lives HERE, not in batch.py: the lint
# gate (scripts/check_no_bare_numpy.py) keeps the loop module free of
# host-pinned array ops, and set-up is by construction a one-time host
# materialization (build A/l/u, invert K) before the sync-free loop.
# ------------------------------------------------------------------------


def _positive_definite(K) -> np.ndarray:
    """Per-lane verdict of a ``(k, n, n)`` stack: does the Cholesky
    factorization exist?  One batched attempt answers for the whole stack
    when every lane is positive definite (the common case); a stack that
    fails is bisected down to the failing lanes."""
    try:
        np.linalg.cholesky(K)
        return np.ones(len(K), dtype=bool)
    except np.linalg.LinAlgError:
        if len(K) == 1:
            return np.zeros(1, dtype=bool)
        halves = K[: len(K) // 2], K[len(K) // 2 :]
        return np.concatenate([_positive_definite(h) for h in halves])


def _admm_refactor_batch(setup: dict, idx, opt: QPOptions) -> None:
    """(Re)build, in place, the penalty diagonal and the cached inverse of
    ``K = H + sigma I + A^T R A`` for the lanes ``idx`` of ``setup``.

    Called for every lane at set-up and again for the lanes whose rho the
    residual-balancing update moved at a checkpoint — the *only* events
    that touch the cached factorization.  ``K`` is never inverted blind:
    each lane must pass a Cholesky positive-definiteness check, and a lane
    that fails is retried with its regularization escalated x100 (at most
    ``_FACTOR_ATTEMPTS`` attempts, the IPM's retry ladder schedule),
    counted in ``setup["retries"]`` / ``setup["reg_max"]``.  Healthy lanes
    are factored once, at the base regularization, whatever their
    batch-mates need.  A lane the ladder cannot repair (or whose ``K`` is
    non-finite, which no regularization fixes) drops out of
    ``setup["lane_ok"]`` and keeps an identity stand-in.

    A lane's fault hook (:mod:`repro.faults` protocol, any subset) is
    consulted here: ``transform_matrix`` may perturb ``K`` once per build
    (ill-conditioning campaigns), ``force_failure`` fails one attempt on
    demand, exercising the ladder.
    """
    n = setup["n"]
    # Every lane (set-up, or a checkpoint that moved them all): views, not
    # gathered copies — fresh multi-megabyte temporaries cost more than
    # the factorization at large B.
    sel = slice(None) if idx.size == setup["H"].shape[0] else idx
    hooks = [setup["hooks"][lane] for lane in idx]

    # R = rho S with S fixed, so A^T R A = rho (A^T S A): a rescale is a
    # scalar times the product formed once at set-up, not a new matmul.
    R = setup["rho"][idx, None] * setup["S"]
    diag = np.arange(n)
    K = setup["rho"][idx, None, None] * setup["AtSA"][sel]
    K += setup["H"][sel]
    K[:, diag, diag] += opt.admm_sigma
    for j, hook in enumerate(hooks):
        transform = getattr(hook, "transform_matrix", None)
        if transform is not None:
            K[j] = transform(K[j])

    reg = np.full(idx.size, float(opt.regularization))
    ok = np.zeros(idx.size, dtype=bool)
    todo = np.flatnonzero(np.all(np.isfinite(K), axis=(1, 2)))
    for _ in range(_FACTOR_ATTEMPTS):
        if not todo.size:
            break
        Kr = K[todo]
        Kr[:, diag, diag] += reg[todo, None]
        good = _positive_definite(Kr)
        for j, k in enumerate(todo):
            force = getattr(hooks[k], "force_failure", None)
            if force is not None and force():
                good[j] = False
        Kinv = np.linalg.inv(Kr if good.all() else Kr[good])
        won = todo[good]
        ok[won] = np.all(np.isfinite(Kinv), axis=(1, 2))
        setup["Kinv"][idx[won]] = Kinv
        todo = todo[~good]
        setup["retries"][idx[todo]] += 1
        reg[todo] = np.maximum(reg[todo] * 100.0, 1e-12)
    setup["Kinv"][idx[~ok]] = np.eye(n)

    setup["R"][idx] = R
    live = R > 0.0
    setup["Rinv"][idx] = np.where(live, 1.0 / np.where(live, R, 1.0), 0.0)
    setup["lane_ok"][idx] &= ok
    setup["factorizations"][idx] += ok
    setup["reg_max"][idx] = np.where(
        ok, np.maximum(setup["reg_max"][idx], reg), setup["reg_max"][idx]
    )


def _admm_setup_batch(
    H, g, G, b, J, d, opt: QPOptions, warm=None, hooks=None
) -> dict:
    """Assemble the batched ADMM problem data on the host.

    Returns host numpy arrays only; the caller uploads them once.  Lanes
    with non-finite data are sanitized (identity K, zero constraints) and
    dropped from ``lane_ok`` so the device loop freezes them as failed
    without poisoning batch-mates — same contract as the batched IPM.
    ``warm`` (a previous result's ``.warm``, validated here) seeds the
    initial iterate ``x0``/``z0``/``y0`` and the per-lane rho; ``hooks``
    is the optional per-lane fault-hook sequence: ``transform_qp`` is
    consulted here, on the lane's Hessian, the rest by
    :func:`_admm_refactor_batch`.  The returned dict is also the
    loop's host-side state: ``rho``, the cached ``Kinv``/``R``/``Rinv``
    and the per-lane factorization counters are updated in place at every
    rho checkpoint.
    """
    H = np.asarray(H, dtype=float)
    g = np.asarray(g, dtype=float)
    lanes, n = g.shape[0], g.shape[1]
    if H.shape != (lanes, n, n):
        raise SolverError(f"H shape {H.shape} != ({lanes}, {n}, {n})")
    if hooks is not None and len(hooks) != lanes:
        raise SolverError(f"{len(hooks)} fault hooks for {lanes} lanes")
    # illcond_qp campaigns perturb a lane's problem *data* (not just the
    # factorization input), so equilibration and the fallback ladder see a
    # genuinely ill-conditioned QP.  Optional on the hook.
    transforms = [getattr(hook, "transform_qp", None) for hook in hooks or ()]
    if any(transforms):
        H = H.copy()
        for lane, transform_qp in enumerate(transforms):
            if transform_qp is not None:
                H[lane] = transform_qp(H[lane])
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
    if not lane_finite.all():
        lf3 = lane_finite[:, None, None]
        lf2 = lane_finite[:, None]
        H = np.where(lf3, H, np.eye(n))
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
        Hs[calm] = H[calm]
        gs[calm] = g[calm]
        As[calm] = A[calm]
        for key in ("D", "Dinv", "E", "Einv", "c", "cinv"):
            scale[key][calm] = 1.0
        scale["iters"][calm] = 0
        scale["spread_after"][calm] = spread0[calm]
        H, g, A = Hs, gs, As
        l = scale["E"] * l
        u = scale["E"] * u
    else:
        scale = identity_scale_batch(lanes, n, msz)
        scale["spread_after"] = spread0.copy()
    scale["spread_before"] = spread0
    scale["lane_eq"] = lane_eq

    x0 = np.zeros((lanes, n))
    z0 = np.zeros((lanes, msz))
    y0 = np.zeros((lanes, msz))
    rho_lane = np.full(lanes, opt.admm_rho)
    ws = _admm_warm_batch(warm, lanes, n, msz)
    if ws is not None:
        # Warm dicts travel unscaled; map them into this solve's scaled
        # space.  An unusable rho falls back to the configured one.
        x0 = ws["x"] * scale["Dinv"]
        z0 = ws["z"] * scale["E"]
        y0 = ws["y"] * scale["Einv"] * scale["c"][:, None]
        if ws["rho"] is not None:
            sane = np.isfinite(ws["rho"]) & (ws["rho"] > 0.0)
            rho_lane = np.where(sane, ws["rho"], rho_lane)
    rho_lane = np.clip(rho_lane, _RHO_MIN, _RHO_MAX)

    At = A.transpose(0, 2, 1).copy()
    S = np.ones(msz)
    S[:p] = opt.admm_rho_eq_scale
    setup = {
        "A": A,
        "At": At,
        "H": H,
        "q": g,
        "l": l,
        "u": u,
        "x0": x0,
        "z0": np.clip(z0, l, u),
        "y0": y0,
        # J/d stay UNSCALED: slack recovery at result assembly runs on the
        # unscaled iterate (the scaled rows of A carry E internally).
        "J": J,
        "d": d,
        # Unscaled problem data for the polish epilogue (host-only).
        "H0": H0,
        "q0": q0,
        "G0": G0,
        "b0": b0,
        "n": n,
        "p": p,
        "m": m,
        #: per-lane unscaled ``max|g|`` for the dual convergence scale
        "q_norm": q_norm,
        #: per-lane equilibration tensors (unit scalings when disabled)
        "scale": scale,
        # ---- state of the cached factorization (_admm_refactor_batch) ----
        "hooks": [None] * lanes if hooks is None else hooks,
        "rho": rho_lane,
        #: per-row penalty weights (R = rho S) and the per-lane A^T S A
        "S": S,
        "AtSA": np.matmul(At, S[:, None] * A),
        "Kinv": np.empty((lanes, n, n)),
        "R": np.empty((lanes, msz)),
        "Rinv": np.empty((lanes, msz)),
        #: finite data and every build of K^-1 so far succeeded
        "lane_ok": lane_finite,
        "factorizations": np.zeros(lanes, dtype=int),
        "retries": np.zeros(lanes, dtype=int),
        "reg_max": np.zeros(lanes),
    }
    _admm_refactor_batch(setup, np.arange(lanes), opt)
    return setup


def _admm_warm_batch(warm: Optional[dict], lanes: int, n: int, msz: int):
    """Warm-start hygiene: accept only a complete, shape-matching, finite
    iterate triple (host arrays) — anything else falls back to a cold
    start, the same reject-and-reseed contract the SQP applies to its own
    warm starts.  An unusable ``rho`` alone is dropped (the configured
    initial rho applies) without rejecting the iterates."""
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
        except (TypeError, ValueError):
            rho = None
    return {"x": x, "z": z, "y": y, "rho": rho}


def _admm_rho_checkpoint(
    setup: dict, opt: QPOptions, rp_rel, rd_rel, active
) -> bool:
    """Host-side per-lane residual-balancing rho update (OSQP) — a rescale
    is the ONLY event that rebuilds a lane's cached inverse.

    ``active`` masks the lanes still iterating.  Lanes whose residual
    ratio fires the trigger and whose clamped rho actually moves get the
    new rho and a rebuild of ``setup``'s ``Kinv``/``R``/``Rinv`` rows;
    returns whether any lane did (the caller then re-uploads them).
    """
    rho = setup["rho"]
    ratio = np.sqrt(
        np.maximum(rp_rel, 1e-30) / np.maximum(rd_rel, 1e-30)
    )
    fire = (
        active
        & np.isfinite(ratio)
        & ((ratio > _RHO_TRIGGER) | (ratio < 1.0 / _RHO_TRIGGER))
    )
    new_rho = np.where(fire, np.clip(rho * ratio, _RHO_MIN, _RHO_MAX), rho)
    changed = np.flatnonzero(new_rho != rho)
    if not changed.size:
        return False
    setup["rho"] = new_rho
    _admm_refactor_batch(setup, changed, opt)
    return True
