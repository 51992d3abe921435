"""Ruiz diagonal equilibration for the box-form QP.

First-order splitting methods pay for conditioning in iterations: the
ADMM contraction rate degrades with the spread of the row/column norms of
the stacked KKT data, which is exactly what the stiff robots (Manipulator,
Humanoid — large inertia ratios, mixed unit scales) blow up.  The standard
fix (OSQP §5.1, after Ruiz 2001) is *diagonal equilibration*: iteratively
scale variables by ``D`` and constraint rows by ``E`` until every row and
column of the symmetrized data matrix

    M = [[H, A^T],
         [A, 0  ]]

has unit infinity norm, plus a scalar cost normalization ``c`` that keeps
the objective's curvature near unit scale.  The scaled problem

    min  1/2 xb^T (c D H D) xb + (c D g)^T xb
    s.t. E l <= (E A D) xb <= E u

is solved in place of the original; the mapping between the two spaces is
exact, so the solver can run on well-scaled data while *terminating on the
unscaled residuals* (this module also supplies the inverse scalings as
vectors for that purpose) and returning iterates in the original space:

    x = D xb        z = E^-1 zb        y = E yb / c

Warm starts cross the same boundary in both directions — a warm dict
always travels in the *unscaled* space, so RTI carry-over survives
re-equilibration with fresh ``D/E/c`` on the next tick.

Everything here is host-side numpy (one-time setup work, same contract as
the ``_admm_setup_batch`` helpers in :mod:`repro.firstorder.admm`) over a
``(B, ...)`` lane stack — a single QP is the one-lane stack: the per-lane
scaling tensors ride the solver loop's one-time upload alongside the rest
of the problem data.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "norm_spread_batch",
    "ruiz_equilibrate_batch",
    "identity_scale_batch",
]

#: norms below this are treated as structurally zero (their scaling is 1)
_NORM_FLOOR = 1e-12
#: early-exit threshold: stop iterating once every scaling step is this
#: close to 1 (the fixpoint of the Ruiz iteration)
_CONVERGED = 1e-3


def _safe_rsqrt(norms: np.ndarray) -> np.ndarray:
    """``1/sqrt(n)`` with zero/tiny norms mapped to a unit scaling."""
    guarded = np.where(norms > _NORM_FLOOR, norms, 1.0)
    return 1.0 / np.sqrt(guarded)


def _stacked_norms_batch(H, A):
    """Per-lane column norms (variable block) and row norms (constraint
    block) of the symmetrized data matrix ``[[H, A^T], [A, 0]]``, infinity
    norm."""
    lanes, n = H.shape[0], H.shape[2]
    col = np.max(np.abs(H), axis=1) if n else np.zeros((lanes, 0))
    if A.shape[1]:
        col = np.maximum(col, np.max(np.abs(A), axis=1))
        row = np.max(np.abs(A), axis=2)
    else:
        row = np.zeros((lanes, 0))
    return col, row


def norm_spread_batch(H, A) -> np.ndarray:
    """Per-lane max/min ratio of the nonzero row/col infinity norms of the
    stacked data matrix — the conditioning proxy the ``ConditioningReport``
    quotes."""
    col, row = _stacked_norms_batch(H, A)
    norms = np.concatenate([col, row], axis=1)
    masked = np.where(norms > _NORM_FLOOR, norms, np.nan)
    with np.errstate(invalid="ignore"):
        hi = np.nanmax(masked, axis=1) if masked.shape[1] else None
        lo = np.nanmin(masked, axis=1) if masked.shape[1] else None
    if hi is None:
        return np.ones(H.shape[0])
    out = hi / lo
    return np.where(np.isfinite(out), out, 1.0)


def ruiz_equilibrate_batch(H, g, A, iters: int = 10):
    """Per-lane Ruiz equilibration of a batched QP stack.

    Returns ``(H_s, g_s, A_s, scale)`` where ``scale`` is a dict of host
    tensors: ``D``/``Dinv`` ``(B, n)``, ``E``/``Einv`` ``(B, m)``,
    ``c``/``cinv`` ``(B,)``, per-lane ``spread_before`` /
    ``spread_after``, and each lane's sweep count ``iters`` ``(B,)``.
    ``iters`` caps the sweep.  Lanes equilibrate independently: a lane
    whose scaling updates are all within 0.1% of unity (typically after
    3-6 sweeps) is frozen — its later sweeps multiply by exactly 1.0 — so
    it ends bit-identical to the same lane equilibrated alone; the sweep
    exits once every lane is frozen.  Bounds are *not* scaled here —
    apply ``scale["E"]`` to ``l``/``u`` at the call site (infinities stay
    infinite under a positive row scaling).
    """
    Hs = np.array(H, dtype=float, copy=True)
    gs = np.array(g, dtype=float, copy=True)
    As = np.array(A, dtype=float, copy=True)
    lanes, n = gs.shape[0], gs.shape[1]
    msz = As.shape[1]
    D = np.ones((lanes, n))
    E = np.ones((lanes, msz))
    c = np.ones(lanes)
    spread_before = norm_spread_batch(Hs, As)

    # Each lane stops at its own fixpoint: a frozen lane's sweep is the
    # exact identity (dd = de = gamma = 1.0), so its scalings are the ones
    # it would reach equilibrated alone, whatever its batch-mates need.
    live = np.ones(lanes, dtype=bool)
    done = np.zeros(lanes, dtype=int)
    for _ in range(max(0, int(iters))):
        col, row = _stacked_norms_batch(Hs, As)
        dd = np.where(live[:, None], _safe_rsqrt(col), 1.0)
        de = np.where(live[:, None], _safe_rsqrt(row), 1.0)
        Hs *= dd[:, :, None] * dd[:, None, :]
        gs *= dd
        if msz:
            As *= de[:, :, None] * dd[:, None, :]
        D *= dd
        E *= de
        # Cost normalization (OSQP): pull the objective's curvature toward
        # unit scale so sigma/rho defaults stay meaningful.
        h_cols = np.max(np.abs(Hs), axis=1) if n else np.zeros((lanes, 0))
        denom = np.maximum(
            np.mean(h_cols, axis=1) if n else np.zeros(lanes),
            np.max(np.abs(gs), axis=1) if n else np.zeros(lanes),
        )
        gamma = np.where(denom > _NORM_FLOOR, 1.0 / np.where(denom > 0, denom, 1.0), 1.0)
        gamma = np.where(live, gamma, 1.0)
        Hs *= gamma[:, None, None]
        gs *= gamma[:, None]
        c *= gamma
        done += live
        step = np.abs(1.0 - gamma)
        if n:
            step = np.maximum(step, np.max(np.abs(1.0 - dd), axis=1))
        if msz:
            step = np.maximum(step, np.max(np.abs(1.0 - de), axis=1))
        live &= step >= _CONVERGED
        if not live.any():
            break

    scale = {
        "D": D,
        "Dinv": 1.0 / D,
        "E": E,
        "Einv": 1.0 / E if msz else E.copy(),
        "c": c,
        "cinv": 1.0 / c,
        "iters": done,
        "spread_before": spread_before,
        "spread_after": norm_spread_batch(Hs, As),
    }
    return Hs, gs, As, scale


def identity_scale_batch(lanes: int, n: int, msz: int) -> dict:
    """Per-lane unit scalings (multiplying by them is a bit-exact
    identity) — the disabled-equilibration path runs the same loop body."""
    return {
        "D": np.ones((lanes, n)),
        "Dinv": np.ones((lanes, n)),
        "E": np.ones((lanes, msz)),
        "Einv": np.ones((lanes, msz)),
        "c": np.ones(lanes),
        "cinv": np.ones(lanes),
        "iters": np.zeros(lanes, dtype=int),
        "spread_before": np.ones(lanes),
        "spread_after": np.ones(lanes),
    }
