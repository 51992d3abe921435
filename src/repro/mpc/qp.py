"""Primal-dual interior-point solver for convex quadratic programs.

This is the inner solver of the RoboX pipeline, playing the role HPMPC plays
in the paper's CPU baseline (§VIII-A): each SQP linearization of the MPC
problem yields the convex QP

    min  1/2 x^T H x + g^T x
    s.t. G x  = b                      (equalities)
         J x <= d                      (inequalities)

solved with a Mehrotra predictor-corrector interior-point method.  The
Newton system of the paper's Eq. 6 is condensed by eliminating slacks and
inequality multipliers to ``Phi = H + J^T W J`` and the Schur complement
``S = G Phi^-1 G^T`` of the equality rows, factored once per iteration and
reused for the corrector.

The iteration is written once, with a lane axis:
:func:`repro.batch.qp.solve_qp_batch`, and the ADMM iteration once too,
:func:`repro.firstorder.batch.solve_qp_admm_batch`.  :func:`solve_qp` is
the one-lane call of both — it validates the caller's QP, stacks one lane
for the loop ``QPOptions.method`` names and unwraps lane 0, raising
:class:`~repro.errors.SolverError` where a lane would freeze ``"failed"``.
Structure exploitation (the paper's central premise) lives in the
interior-point loop: with a ``bandwidth`` hint (the stage-interleaved
ordering of :meth:`~repro.mpc.transcription.TranscribedProblem.stage_permutation`)
the step runs over ``Phi``'s stage blocks, as HPMPC does, and without one
it forms ``Phi`` whole — the dense oracle.  The option, stats and result
types both loops share are the solver contract,
:mod:`repro.batch.contract`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.batch.contract import QPOptions, QPResult
from repro.batch.qp import solve_qp_batch
from repro.errors import SolverError
from repro.firstorder.batch import solve_qp_admm_batch

__all__ = ["solve_qp"]


def solve_qp(
    H: np.ndarray,
    g: np.ndarray,
    G: Optional[np.ndarray],
    b: Optional[np.ndarray],
    J: Optional[np.ndarray],
    d: Optional[np.ndarray],
    options: Optional[QPOptions] = None,
    bandwidth: Optional[int] = None,
    deadline: Optional[float] = None,
    fault_hook: Optional[object] = None,
    warm: Optional[dict] = None,
) -> QPResult:
    """Solve a convex QP (Mehrotra predictor-corrector IPM, or ADMM): the
    one-lane call of :func:`repro.batch.qp.solve_qp_batch` (or of
    :func:`repro.firstorder.batch.solve_qp_admm_batch`).

    Args:
        H: PSD Hessian (n x n); a small regularization is added internally.
        g: linear objective term (n,).
        G, b: equality constraints ``G x = b`` (pass ``None`` for none).
        J, d: inequality constraints ``J x <= d`` (pass ``None`` for none).
        bandwidth: half-bandwidth ceiling of the condensed system in the
            caller's stage-interleaved variable ordering: the Newton step
            then runs over the stage blocks of ``Phi = H + J^T W J`` and
            factors the Schur complement banded when its structural band
            is within the ceiling; ``None`` (the default) keeps the dense
            path.
        deadline: absolute ``time.perf_counter`` wall-clock deadline.  The
            iteration loop stops at the first iteration top past the
            deadline (``budget_exhausted=True`` on the result), so the
            overrun is bounded by one factorize/substitute round; the
            returned iterate and residual stay consistent.
        fault_hook: optional :mod:`repro.faults` solver-layer injector, the
            lane's hook (see :class:`repro.batch.host._LaneFaults`).
        warm: a warm start, read by each method in its own terms.  ADMM:
            a previous solve's ``QPResult.warm`` (iterate triple and rho,
            in the unscaled space, so it survives re-equilibration); an
            absent or malformed one starts the lane cold.  IPM:
            ``{"nu": (p,), "lam": (m,)}``, the multipliers of the previous
            subproblem of the same shapes (one lane of the SQP loop's
            carry, :func:`repro.batch.ipm.solve_lanes`); the iteration then
            starts from ``x = 0``, ``nu``, ``s = max(d - J x, theta)`` and
            ``lam = max(lam, theta)`` with ``theta = 1e-2``
            (:data:`repro.batch.contract._CARRY_FLOOR`) instead of the cold
            ``nu = 0``, ``s = max(d - J x, 1)``, ``lam = 1``.

    The IPM stops on ``max |residual| + mu < tolerance * scale``; a solve
    that runs out of iterations returns its last iterate.  An ADMM solve
    returns its warm state on ``QPResult.warm`` and its conditioning
    verdict (norm spread, rho rescales, stall / divergence) on
    ``result.stats.conditioning``.  Raises
    :class:`~repro.errors.SolverError` on non-finite or mis-shaped data
    (before any iteration) and when a factorization fails the whole
    regularization ladder (for ADMM: the cached ``K`` of a lane that did
    not diverge).
    """
    opt = options or QPOptions()
    n = g.shape[0]
    if H.shape != (n, n):
        raise SolverError(f"H shape {H.shape} does not match g length {n}")
    for name, arr in (("H", H), ("g", g), ("G", G), ("b", b), ("J", J), ("d", d)):
        if arr is not None and arr.size and not np.all(np.isfinite(arr)):
            raise SolverError(
                f"QP data {name} contains non-finite entries; "
                "refusing to start the interior-point iteration"
            )
    has_eq = G is not None and G.shape[0] > 0
    has_in = J is not None and J.shape[0] > 0
    p = G.shape[0] if has_eq else 0
    m = J.shape[0] if has_in else 0
    if has_eq and (b is None or b.shape != (p,)):
        raise SolverError("equality right-hand side b missing or mis-shaped")
    if has_in and (d is None or d.shape != (m,)):
        raise SolverError("inequality right-hand side d missing or mis-shaped")
    lane = (
        H[None],
        g[None],
        G[None] if has_eq else None,
        b[None] if has_eq else None,
        J[None] if has_in else None,
        d[None] if has_in else None,
    )
    hooks = None if fault_hook is None else [fault_hook]

    warm_out = None
    if opt.method == "admm":
        try:
            rows = {
                key: np.asarray(warm[key], dtype=float)[None] for key in "xzy"
            }
            rows["rho"] = warm.get("rho")
        except (AttributeError, KeyError, TypeError, ValueError):
            rows = None  # absent or malformed: the lane starts cold
        res = solve_qp_admm_batch(
            *lane, opt, deadline=deadline, warm=rows, fault_hooks=hooks
        )
        stats = res.stats[0]
        if res.status[0] == "failed" and not stats.conditioning.diverged:
            raise SolverError(
                "ADMM KKT matrix could not be factorized "
                f"(after {stats.retries} regularization retries)"
            )
        if res.warm is not None:
            warm_out = {key: res.warm[key][0] for key in "xzy"}
            warm_out["rho"] = float(res.warm["rho"][0])
    else:
        rows = None
        if warm is not None:
            nu, lam = np.asarray(warm["nu"]), np.asarray(warm["lam"])
            if nu.shape != (p,) or lam.shape != (m,):
                raise SolverError(
                    f"IPM warm start has shapes {nu.shape}, {lam.shape}; "
                    f"expected ({p},), ({m},)"
                )
            rows = {
                "nu": nu[None], "lam": lam[None], "carried": np.ones(1, bool)
            }
        res = solve_qp_batch(
            *lane, opt, bandwidth=bandwidth, deadline=deadline, warm=rows,
            fault_hooks=hooks,
        )
        stats = res.stats[0]
        if res.status[0] == "failed":
            # finite data, so a factorization failed: the whole ladder, or
            # at once on a non-finite input (which the ladder never retries)
            if stats.retries:
                raise SolverError(
                    "matrix could not be factorized even after "
                    f"{stats.retries} regularization retries"
                )
            raise SolverError(
                "factorization input contains non-finite entries "
                "(upstream iterate or constraint data is poisoned)"
            )
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
