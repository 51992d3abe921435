"""OSQP-style ADMM for the repo's convex QP form: the host-side set-up.

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
``(B, ...)`` lane stack; a single QP (:func:`repro.mpc.qp.solve_qp` with
``QPOptions(method="admm")``) is its ``B = 1`` lane.  This module holds
what runs on the host around the loop — box-form assembly, Ruiz scaling,
warm-start validation, the positive-definiteness-checked build of
``K^-1`` with its regularization ladder and fault hooks, and the rho
checkpoint — all of it per lane, for every ``B``.  The active-set polish
the loop ends stalled lanes with is shared with the interior-point loop
(:func:`repro.batch.host._polish_qp`).

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

from repro.batch.contract import QPOptions
from repro.batch.host import _stacked
from repro.errors import SolverError
from repro.firstorder.precond import (
    identity_scale_batch,
    norm_spread_batch,
    ruiz_equilibrate_batch,
)


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
    fails is bisected down to the failing lanes (:func:`_stacked`, whose
    NaN fill marks them: a finite ``K`` that factors has a finite
    factor)."""
    return ~np.isnan(_stacked(np.linalg.cholesky, K)).any(axis=(1, 2))


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
