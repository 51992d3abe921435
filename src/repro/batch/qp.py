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

The Newton step is the scalar solver's, lane-parallel, and is chosen the
same way (``_lane_kkt``).  Without a band hint ``Φ = H + JᵀWJ`` is formed
whole and ``S = G (Φ⁻¹Gᵀ)`` — the dense oracle.  With one, the structure
is read once per solve from the lane envelope (one download): a diagonal
``Φ`` (band 0) takes ``diag(Φ) = diag(H) + (J∘J)ᵀw`` factored as ``1 x 1``
blocks and ``S = VᵀV`` with ``V = diag(Φ)^-½ Gᵀ``; otherwise ``Φ``'s stage
blocks (:func:`repro.mpc.qp._stage_layout`) are formed by one stacked
``J_kᵀW_kJ_k``, factored as one ``(B, K, s, s)`` stack (block-mode
:class:`~repro.batch.linalg.BatchCholeskyFactor`) and ``S = Σ V_kᵀV_k``
is summed through precomputed gathers.  Either way ``dx = Φ⁻¹(r₁ − Gᵀdν)``:
no ``(B, n, n)`` product and no ``Φ⁻¹Gᵀ`` solve, and ``S`` is factored
banded at its structural band when that is within the hint.  Every
gather is an ``xp.take`` in lane-major layout, so a lane's arithmetic —
and its iterate — does not depend on how many lanes ride with it.  Per
lane the :class:`QPStats` meters (factorizations, flops, bandwidths, mode)
count each iteration exactly as ``solve_qp(..., bandwidth=)`` does.

The per-iteration decision ladder (convergence check, divergence guard,
wall-clock deadline, cap re-evaluation) runs in the scalar solver's order.
Two differences remain between the loops: the stopping test here is
``max residual + mu`` where the scalar one takes ``max(residual, mu)`` (a
lane can need one iteration more), and a lane that runs out of
iterations keeps its last iterate where the scalar solver returns the
best one it evaluated.  The intentional divergence: a lane whose KKT
factorization fails after the retry ladder is frozen with status
``"failed"`` instead of raising ``SolverError``, because one bad lane must
not abort its batch-mates.  ``polish`` is ignored (the active mask has no
meaningful polish point for frozen lanes).
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional

from repro.mpc.banded import block_partition
from repro.mpc.linalg import flop_counts_cholesky, flop_counts_substitution
from repro.mpc.qp import (
    QPOptions,
    QPStats,
    _diag_schur_band,
    _stage_layout,
    _sum_gathers,
)

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


class _LaneMeters:
    """Backend-resident per-lane :class:`QPStats` accumulators, downloaded
    once after the loop; wall times are batch totals, shared out by each
    lane's factorization count."""

    def __init__(self, xp: ArrayBackend, lanes: int) -> None:
        self.factz = xp.zeros((lanes,), dtype="int")
        self.banded = xp.zeros((lanes,), dtype="int")
        self.flops = xp.zeros((lanes,), dtype="int")
        self.subflops = xp.zeros((lanes,), dtype="int")
        self.retries = xp.zeros((lanes,), dtype="int")
        self.regmax = xp.zeros((lanes,))
        self.factor_time = 0.0
        self.sub_time = 0.0
        #: the lanes the last factorization left alive, as ints — the
        #: lanes a substitution is metered on
        self.aiv = None


class _LaneKKT:
    """The condensed Newton step of the lockstep loop, over ``B`` lanes.

    :meth:`factor` takes the iteration's scaling ``w`` (``None`` without
    inequalities) and the active mask, factors ``Phi`` and the Schur
    complement ``S = G Phi^-1 G^T`` through :func:`robust_factor_batch`
    (the per-lane retry ladder) and returns the lanes still alive;
    :meth:`solve` then answers the saddle system

        [Phi  G^T] [dx ]   [rhs1]
        [G    0  ] [dnu] = [-re ]

    for the predictor and the corrector.  The three subclasses are the
    scalar solver's three steps (:mod:`repro.mpc.qp`), lane-parallel, and
    meter the same :class:`QPStats` counters per lane.
    """

    def __init__(self, xp, reg, ladder, meters: _LaneMeters) -> None:
        self.xp, self.reg, self.ladder, self.meters = xp, reg, ladder, meters

    def _factor(self, A, band, active, flops=None):
        """One metered :func:`robust_factor_batch` call; returns the factor
        and the lanes that are active and factored."""
        xp, mt = self.xp, self.meters
        t0 = perf_counter()
        factor, reg_used, retries = robust_factor_batch(
            A, self.reg, band, backend=xp, active=active, **self.ladder
        )
        mt.factor_time += perf_counter() - t0
        alive = active & factor.ok
        aiv = mt.aiv = xp.astype(alive, "int")
        mt.factz = mt.factz + aiv
        if factor.banded:
            mt.banded = mt.banded + aiv
        flops = factor.factor_flops() if flops is None else flops
        mt.flops = mt.flops + aiv * flops
        mt.retries = mt.retries + retries
        mt.regmax = xp.maximum(mt.regmax, xp.where(alive, reg_used, 0.0))
        return factor, alive

    def _apply(self, op, rhs, flops):
        """``op(rhs)``, metered as ``flops`` per factored lane."""
        mt = self.meters
        t = perf_counter()
        out = op(rhs)
        mt.sub_time += perf_counter() - t
        mt.subflops = mt.subflops + mt.aiv * flops
        return out

    def _schur_solve(self, rhs):
        return self._apply(
            self.schur.solve, rhs[:, :, None], self.schur.solve_flops(1)
        )[:, :, 0]


class _DenseLaneKKT(_LaneKKT):
    """``Phi = H + J^T W J`` formed whole and ``S = G (Phi^-1 G^T)``: the
    step without a band hint, and the oracle of the other two."""

    def __init__(self, xp, reg, ladder, meters, H, G, Gt, J, Jt) -> None:
        super().__init__(xp, reg, ladder, meters)
        self.H, self.G, self.Gt, self.J, self.Jt = H, G, Gt, J, Jt

    def factor(self, w, active):
        xp = self.xp
        with xp.errstate():
            Phi = self.H
            if w is not None:
                Phi = Phi + xp.matmul(self.Jt * w[:, None, :], self.J)
        self.phi, alive = self._factor(Phi, None, active)
        if self.G is not None:
            with xp.errstate():
                self.PhiInv_Gt = self._apply(
                    self.phi.solve, self.Gt,
                    self.phi.solve_flops(int(self.Gt.shape[2])),
                )
                S = xp.matmul(self.G, self.PhiInv_Gt)
            self.schur, alive = self._factor(S, None, alive)
        return alive

    def solve(self, rhs1, re):
        xp = self.xp
        t = self._apply(
            self.phi.solve, rhs1[:, :, None], self.phi.solve_flops(1)
        )[:, :, 0]
        if self.G is None:
            return t, None
        dnu = self._schur_solve(_bmv(xp, self.G, t) + re)
        return t - _bmv(xp, self.PhiInv_Gt, dnu), dnu


class _DiagLaneKKT(_LaneKKT):
    """The hinted step when ``Phi`` is diagonal (an envelope of band 0):
    ``diag(Phi) = diag(H) + (J o J)^T w`` — no ``n x n`` product — is
    factored as ``n`` blocks of ``1 x 1``, ``V = diag(Phi)^-1/2 G^T`` and
    ``S = V^T V`` is factored banded at the structural band of ``|G| |G|^T``
    (when within the hint).  The step is ``dnu = S^-1 (V^T L^-1 rhs1 + re)``,
    ``dx = Phi^-1 (rhs1 - G^T dnu)``."""

    def __init__(self, xp, reg, ladder, meters, H, G, Gt, J, s_band) -> None:
        super().__init__(xp, reg, ladder, meters)
        lanes, n = int(H.shape[0]), int(H.shape[1])
        diag = xp.arange(n) * (n + 1)
        self.diag_H = xp.take(xp.reshape(H, (lanes, n * n)), diag, axis=1)
        self.J2t = None if J is None else xp.transpose_last2(J * J)
        self.G, self.Gt, self.s_band = G, Gt, s_band
        self.factor_flops = n * sum(flop_counts_cholesky(1).values())
        self.tri_flops = n * sum(flop_counts_substitution(1).values())

    def factor(self, w, active):
        xp = self.xp
        with xp.errstate():
            d = self.diag_H
            if w is not None:
                d = d + _bmv(xp, self.J2t, w)
        self.phi, alive = self._factor(
            d[:, :, None, None], None, active, self.factor_flops
        )
        if self.G is not None:
            p = int(self.Gt.shape[2])
            with xp.errstate():
                self.V = self._apply(
                    self.phi.forward, self.Gt[:, :, None, :],
                    p * self.tri_flops,
                )[:, :, 0, :]
                S = xp.matmul(xp.transpose_last2(self.V), self.V)
                S = 0.5 * (S + xp.transpose_last2(S))
            self.schur, alive = self._factor(S, self.s_band, alive)
        return alive

    def solve(self, rhs1, re):
        xp, F, tri = self.xp, self.phi, self.tri_flops
        r1 = rhs1[:, :, None]
        if self.G is None:
            return self._apply(F.solve, r1, 2 * tri)[:, :, 0], None
        y = self._apply(F.forward, r1, tri)[:, :, 0]
        dnu = self._schur_solve(
            _bmv(xp, xp.transpose_last2(self.V), y) + re
        )
        r2 = (rhs1 - _bmv(xp, self.Gt, dnu))[:, :, None]
        return self._apply(F.solve, r2, 2 * tri)[:, :, 0], dnu


class _StageLaneKKT(_LaneKKT):
    """The hinted step over ``Phi``'s stage blocks: the scalar
    :class:`repro.mpc.qp._StageKKT`, lane-parallel, over the same
    :func:`repro.mpc.qp._stage_layout` (read once per solve, from the lane
    envelope).  ``H``'s blocks, each block's ``J`` rows ``(B, K, r, s)`` and
    its transposed ``G`` rows ``(B, K, s, q)`` are gathered once; per
    iteration ``Phi``'s blocks are one stacked ``J_k^T W_k J_k`` product,
    factored as one ``(B, K, s, s)`` stack (block-mode
    :class:`BatchCholeskyFactor`), and ``S = sum_k V_k^T V_k`` with
    ``V_k = L_k^-1 G_k^T`` is summed through precomputed gathers (the
    scalar step's scatter-add, with a lane axis).  Every gather is an
    ``xp.take`` on the lane-major layout, so a lane's arithmetic does not
    depend on how many lanes ride with it."""

    def __init__(self, xp, reg, ladder, meters, H, G, J, layout, s_band):
        super().__init__(xp, reg, ladder, meters)
        self.lanes = int(H.shape[0])
        self.factor_flops = layout.factor_flops
        self.tri_flops = layout.tri_flops
        self.s_band = s_band
        cols = layout.cols
        self.cols = xp.from_host(cols, dtype="int")
        self.real = xp.from_host(HOST.flatnonzero(layout.real), dtype="int")
        # identity on the pad, exact zeros elsewhere
        pad = HOST.zeros(cols.shape + cols.shape[1:])
        dd = HOST.arange(cols.shape[1])
        pad[:, dd, dd] = ~layout.real
        self.block_H = self._blocks(
            H, cols[:, :, None], cols[:, None, :]
        ) + xp.from_host(pad)
        self.J = None
        if J is not None:
            jrows = layout.jrows
            self.jrows = xp.from_host(jrows, dtype="int")
            self.J = self._blocks(J, jrows[:, :, None], cols[:, None, :])
            self.Jt = xp.transpose_last2(self.J)
        self.G = None
        if G is not None:
            grows = layout.grows
            self.p, self.q = int(G.shape[1]), int(grows.shape[1])
            self.grows = xp.from_host(grows, dtype="int")
            self.G = self._blocks(G, grows[:, None, :], cols[:, :, None])
            self.s_gather = xp.from_host(
                _sum_gathers(layout.pairs, self.p * self.p), dtype="int"
            )
            self.r_gather = xp.from_host(
                _sum_gathers(grows, self.p), dtype="int"
            )

    def _blocks(self, A, rows, cols):
        """``A[:, rows, cols]`` of the zero-bordered ``(B, r, c)`` stack
        (sentinel ``r`` / ``c`` reads zero), gathered lane-major."""
        xp = self.xp
        lanes, r, c = (int(v) for v in A.shape)
        bordered = xp.concatenate(
            [
                xp.concatenate([A, xp.zeros((lanes, r, 1))], axis=2),
                xp.zeros((lanes, 1, c + 1)),
            ],
            axis=1,
        )
        flat = xp.reshape(bordered, (lanes, (r + 1) * (c + 1)))
        index = xp.from_host(rows * (c + 1) + cols, dtype="int")
        return xp.take(flat, index, axis=1)

    def _gather(self, v, index):
        """``(B, k)`` gathered at ``index`` (sentinel ``k`` reads zero)."""
        return self.xp.take(_append_zero(self.xp, v), index, axis=1)

    def _sum(self, W, gather):
        """``sum_c W_flat[:, gather[c]]`` over a zero-extended flat ``W``."""
        xp = self.xp
        flat = _append_zero(xp, xp.reshape(W, (self.lanes, -1)))
        out = xp.take(flat, gather[0], axis=1)
        for c in range(1, int(gather.shape[0])):
            out = out + xp.take(flat, gather[c], axis=1)
        return out

    def factor(self, w, active):
        xp = self.xp
        with xp.errstate():
            Phi = self.block_H
            if w is not None:
                wk = self._gather(w, self.jrows)
                Phi = Phi + xp.matmul(self.Jt * wk[:, :, None, :], self.J)
        self.phi, alive = self._factor(Phi, None, active, self.factor_flops)
        if self.G is not None:
            p = self.p
            with xp.errstate():
                self.V = self._apply(
                    self.phi.forward, self.G, self.q * self.tri_flops
                )
                W = xp.matmul(xp.transpose_last2(self.V), self.V)
                S = xp.reshape(self._sum(W, self.s_gather), (self.lanes, p, p))
                S = 0.5 * (S + xp.transpose_last2(S))
            self.schur, alive = self._factor(S, self.s_band, alive)
        return alive

    def solve(self, rhs1, re):
        xp, F, tri = self.xp, self.phi, self.tri_flops
        r1 = self._gather(rhs1, self.cols)
        if self.G is None:
            dx = self._apply(F.solve, r1, 2 * tri)
        else:
            y = self._apply(F.forward, r1, tri)
            Vty = xp.matmul(y[:, :, None, :], self.V)[:, :, 0, :]
            dnu = self._schur_solve(self._sum(Vty, self.r_gather) + re)
            Gt_dnu = xp.matmul(
                self.G, self._gather(dnu, self.grows)[:, :, :, None]
            )[:, :, :, 0]
            dx = self._apply(F.solve, r1 - Gt_dnu, 2 * tri)
        dx = xp.take(xp.reshape(dx, (self.lanes, -1)), self.real, axis=1)
        return dx, (None if self.G is None else dnu)


def _lane_kkt(kkt_args, H, G, Gt, J, Jt, bandwidth):
    """The lockstep loop's KKT step — the scalar ``make_kkt``, lane-wide.

    ``kkt_args`` is ``(xp, reg, ladder, meters)``; ``G`` / ``J`` are
    ``None`` without rows of that kind.  Without a band hint the step is
    dense.  With one, the structure is read once, from the lane envelope
    (one constant download; sanitized failed lanes contribute zeros):
    ``Phi``'s block partition and band, and ``S``'s structural band, which
    is factored banded when within the hint.  Returns ``(kkt, phi_band,
    s_band)``, the bands ``None`` where not measured or not used.
    """
    xp = kkt_args[0]
    n = int(H.shape[1])
    if bandwidth is None or not n:
        return _DenseLaneKKT(*kkt_args, H, G, Gt, J, Jt), None, None
    parts = [xp.max(xp.abs(M), axis=0) for M in (H, J, G) if M is not None]
    env = xp.to_host(xp.concatenate(parts, axis=0))
    m = 0 if J is None else int(J.shape[1])
    env_J = None if J is None else env[n : n + m]
    env_G = None if G is None else env[n + m :]
    bounds, phi_band = block_partition(env[:n], env_J)
    if phi_band == 0:
        band = 0 if G is None else _diag_schur_band(env_G)
        s_band = band if band <= bandwidth else None
        return _DiagLaneKKT(*kkt_args, H, G, Gt, J, s_band), phi_band, s_band
    layout = _stage_layout(n, env_G, env_J, bounds)
    s_band = layout.schur_band if layout.schur_band <= bandwidth else None
    return _StageLaneKKT(*kkt_args, H, G, J, layout, s_band), phi_band, s_band


def _append_zero(xp: ArrayBackend, v):
    """``(B, k)`` → ``(B, k + 1)`` with a zero sentinel column."""
    return xp.concatenate([v, xp.zeros((int(v.shape[0]), 1))], axis=1)


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

    meters = _LaneMeters(xp, lanes)
    lane_iter_acc = xp.sum(xp.zeros((1,), dtype="int"))
    bstats = BatchQPStats()

    kkt, phi_band, s_band = _lane_kkt(
        (xp, opt.regularization, ladder, meters),
        H, G if has_eq else None, Gt, J if has_in else None, Jt, bandwidth,
    )

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
            w = (
                xp.minimum(lam / xp.maximum(s, sfloor), _W_CEIL)
                if has_in
                else None
            )
        alive = kkt.factor(w, active)
        newly_failed = active & ~alive
        status = xp.where(newly_failed, _FAILED, status)
        iterations = xp.where(newly_failed, it, iterations)

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
                dx, dnu = kkt.solve(rhs1, r_eq)
                if not has_eq:
                    dnu = nu
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
    factz_h = xp.to_host(meters.factz)
    banded_h = xp.to_host(meters.banded)
    flops_h = xp.to_host(meters.flops)
    subflops_h = xp.to_host(meters.subflops)
    retries_h = xp.to_host(meters.retries)
    regmax_h = xp.to_host(meters.regmax)
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
        st.factorize_time = meters.factor_time * share
        st.substitute_time = meters.sub_time * share
        if phi_band is not None and bool(finite_h[lane]):
            st.phi_bandwidth = phi_band
            if has_eq and s_band is not None:
                st.schur_bandwidth = s_band
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
