"""The one Mehrotra predictor-corrector QP loop, over ``B`` lanes.

:func:`solve_qp_batch` runs the primal-dual interior-point iteration over
``B`` stacked instances ``(H, g, G, b, J, d)`` that share one sparsity
structure (same shapes, same stage-ordered band); a single QP,
:func:`repro.mpc.qp.solve_qp`, is its one-lane call.  Every lane carries
its own step lengths, barrier parameter, and convergence scale; an
*active mask* implements continuous-batching semantics: a lane that
converges, diverges, fails to factor, or exhausts its iteration cap is
**frozen** — its iterate is never touched again, so it stays
bit-identical to its freeze point — while the remaining lanes keep
iterating.

There is one loop, the statically scheduled shape RoboX executes: a
*masked lockstep* iteration with a fixed trip count and no data-dependent
control flow.  Every array operation routes through the
:mod:`repro.batch.backend` seam (``xp``), lane statuses live in an
integer array, freezes are ``where``-masked updates (frozen lanes ride
along in the batched matmuls and their results are masked away), and
every per-lane statistic (iteration counts, residuals, QPStats counters,
the barrier-gap history) accumulates in backend arrays that are
downloaded **once**, after the loop.  numpy and torch run the same
body; only two *values* are read from ``xp.is_device``:

* the factorization retry ladder runs in full on host backends and is
  cut to a single attempt on device backends (a ladder's early-exit test
  is a host round-trip per rung), so a lane the base regularization
  cannot factor is retried on numpy and freezes as ``"failed"`` on a
  device — the sync-free deviation documented in DESIGN.md;
* the all-frozen early-exit check reads one boolean every iteration on
  host backends, where it is free, and every ``sync_interval`` iterations
  on device backends (0 = a strictly sync-free solve).

The Newton step is chosen once per solve (``_lane_kkt``).  Without a band
hint ``Φ = H + JᵀWJ`` is formed whole and ``S = G (Φ⁻¹Gᵀ)`` — the dense
oracle, whose factor shares no arithmetic with the blocked one
(:class:`~repro.batch.linalg.OracleCholeskyFactor`).  With one, the structure is read once per solve from the lane
envelope (one download), and the read is memoized on the envelope's
nonzero pattern, which every QP of an SQP solve (and every solve of a
padded binding) shares.  A diagonal ``Φ`` (band 0 — every ``fleet-*``
lane) takes ``diag(Φ) = diag(H) + (J∘J)ᵀw``, factored in place: the
reciprocal pivots ``r = (diag(Φ) + reg)^-½`` and the per-lane retry
ladder, with no factor object
(:func:`~repro.batch.linalg.robust_diag_factor_batch`); then ``V = r∘Gᵀ``,
``S = VᵀV`` and ``dx = r∘(r∘(r₁ − Gᵀdν))``.  Otherwise ``Φ``'s stage
blocks (:func:`repro.batch.host._stage_layout`) are formed by one stacked
``J_kᵀW_kJ_k`` as one ``(B, K, s, s)`` stack, factored by what in it is
coupled: the connected components of ``nz(H) ∪ nz(JᵀJ)`` inside each
tile, read with the rest of the layout and grouped by width, one
``potrf`` and one inverse per width (block-mode
:class:`~repro.batch.linalg.BatchCholeskyFactor` given ``parts``; a soft
state bound couples its state to slacks later in the stage, so no
contiguous cut falls inside a stage, but its components are a few
indices wide).  ``S = Σ V_kᵀV_k`` is summed through precomputed gathers.
Either way ``dx = Φ⁻¹(r₁ − Gᵀdν)``: no ``(B, n, n)`` product and no
``Φ⁻¹Gᵀ`` solve, and ``S`` is factored banded at its structural band when
that is within the hint.  Every
gather is an ``xp.take`` in lane-major layout, so a lane's arithmetic —
and its iterate — does not depend on how many lanes ride with it.  Per
lane the :class:`QPStats` meters (factorizations, flops, bandwidths, mode)
count the lane's own ``Φ`` and ``S`` factorizations, multiplied in the
epilogue by the step's per-solve costs.

A lane starts cold from ``x = 0``, ``ν = 0``, ``s = max(1, d)``, ``λ = 1``,
unless ``warm`` marks it ``carried``: the SQP loop's carry of the
multipliers of the lane's previous subproblem
(:func:`repro.batch.ipm.solve_lanes`).  Such a lane starts from ``x = 0``,
the carried ``ν``, ``s = max(d, θ)`` and ``λ = max(λ_carried, θ)``,
``θ = 1e-2``.  The two starts are picked row by row with ``where``, so a
lane's start does not depend on its batch-mates either.

One iteration is a fixed schedule of batched ops and nothing else:

1. residuals ``r_d, r_e, r_i`` and ``μ`` (four matrix-vector products),
   one max-abs over their concatenation, and one verdict per lane (cap /
   converged / diverged) applied to the evaluated lanes as one status and
   one iteration-count update;
2. the scaling ``w = λ / s``, the ``Φ`` factor and ``S = VᵀV``, and ``S``'s
   factor (LAPACK ``potrf`` plus an LU inverse per tile on host, in tiles
   of :func:`repro.batch.host.tile_size`);
3. the predictor and the corrector solve, each one ``Jᵀ`` product, the two
   triangular products with ``S``'s tile and the diagonal scalings; the
   step lengths of ``s`` and ``λ`` are taken as one ``(B, 2, m)`` pair;
4. four ``where``-masked updates of ``x, ν, s, λ``.

The lane data ``(H, G, J, g, b, d)`` is read as one ``(B, total)`` row per
lane for the finiteness scan, the sanitize and the envelope; the matmul
operands keep the caller's memory layout (a batched product sums in a
layout-dependent order), except a diagonal ``H``, whose products have one
nonzero term a row.

The per-iteration decision ladder is convergence check
(``max |residual| + mu < tolerance * scale``), divergence guard,
wall-clock deadline, cap; a lane that runs out of iterations keeps its
last iterate, whose residual is the one reported.  A lane whose data is
non-finite, or whose KKT factorization fails after the retry ladder, is
frozen with status ``"failed"`` (the one-lane call raises
``SolverError`` there), because one bad lane must not abort its
batch-mates.  Two host epilogues are optional: with ``QPOptions.polish``
the converged lanes end with the active-set polish
(:func:`repro.batch.host._polish_lane`), and ``fault_hooks`` (host backends)
let a :mod:`repro.faults` hook per lane transform its Hessian and the
matrices its lane factors and fail attempts of its retry ladder
(:class:`repro.batch.host._LaneFaults`); a hooked lane's batch-mates are
untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from time import perf_counter
from typing import Dict, List, Optional, Sequence

from repro.errors import SolverError

from .backend import HOST, ArrayBackend, get_backend
from .contract import _CARRY_FLOOR, QPOptions, QPStats
from .host import (
    _diag_schur_band,
    _LaneFaults,
    _polish_lane,
    _stage_layout,
    _sum_gathers,
    block_partition,
    flop_counts_cholesky,
    flop_counts_substitution,
)
from .linalg import LADDER_ATTEMPTS, BatchCholeskyFactor, OracleCholeskyFactor
from .linalg import robust_diag_factor_batch, robust_factor_batch

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
    ``budget_exhausted[i]`` is the ``QPResult`` field of the lane and is
    set **only** for deadline-stopped lanes, so SQP callers can apply the
    discard-direction rule to them.

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


def _pair(xp: ArrayBackend, a, b):
    """Two ``(B, k)`` stacks side by side, ``(B, 2, k)``."""
    lanes, k = int(a.shape[0]), int(a.shape[1])
    return xp.reshape(xp.concatenate([a, b], axis=1), (lanes, 2, k))


def _max_step_batch(xp: ArrayBackend, v, dv):
    """Per-lane largest ``alpha <= 1`` keeping ``v + alpha dv >= 0``, of
    ``(B, ..., k)`` stacks over the last axis — ``s`` and ``lam`` take
    theirs as one :func:`_pair`; the loop scales it by ``tau``.

    Only components whose full step crosses the boundary (``dv < -v``) are
    divided: every other ratio is ``>= 1`` and cannot bind, and a tiny
    ``dv`` there (a subnormal) would overflow the division.  A dummy
    denominator stands in elsewhere, so no divide-by-zero is ever issued
    whatever the backend's warning policy.
    """
    if int(dv.shape[-1]) == 0:
        return xp.ones(tuple(dv.shape)[:-1])
    nv = 0.0 - v
    cross = dv < xp.minimum(nv, 0.0)
    ratio = xp.where(cross, nv / xp.where(cross, dv, -1.0), _INF)
    a = xp.min(ratio, axis=-1)
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
    once after the loop.  Every iteration factors ``Phi`` and (with
    equality rows) ``S`` with per-solve constant costs, so the loop counts
    each lane's factorizations of either kind and the epilogue multiplies
    them by the step's meter constants (:class:`_LaneKKT`); wall times are
    batch totals, shared out by each lane's factorization count."""

    def __init__(self, xp: ArrayBackend, lanes: int) -> None:
        self.xp = xp
        #: factorizations of Phi / of S on each lane (the lanes each left
        #: alive)
        self.n_phi = xp.zeros((lanes,), dtype="int")
        self.n_schur = xp.zeros((lanes,), dtype="int")
        self.retries = xp.zeros((lanes,), dtype="int")
        self.regmax = xp.zeros((lanes,))
        self.factor_time = 0.0
        self.sub_time = 0.0

    def factored(self, alive, retries, reg_used):
        """Meter one factorization's ladder on the lanes it left
        ``alive``; returns them as ints, for the caller's count."""
        xp = self.xp
        self.retries = self.retries + retries
        self.regmax = xp.maximum(self.regmax, xp.where(alive, reg_used, 0.0))
        return xp.astype(alive, "int")


class _LaneKKT:
    """The condensed Newton step of the lockstep loop, over ``B`` lanes.

    :meth:`factor` takes the iteration's scaling ``w`` (``None`` without
    inequalities) and the active mask, factors ``Phi`` and the Schur
    complement ``S = G Phi^-1 G^T`` (the per-lane retry ladder of
    :func:`robust_factor_batch`) and returns the lanes still alive;
    :meth:`solve` then answers the saddle system

        [Phi  G^T] [dx ]   [rhs1]
        [G    0  ] [dnu] = [-re ]

    for the predictor and the corrector (``newtons`` solves an iteration).
    The three subclasses meter the :class:`QPStats` counters per lane
    through per-solve constants: the flops of one ``Phi`` / ``S``
    factorization and whether it is banded, and the substitution flops of
    one iteration on the lanes ``Phi`` left alive (``phi_sub``) and on
    those the last factorization left alive (``final_sub``).  ``faults``
    (a :class:`repro.batch.host._LaneFaults`, or ``None``) sees every matrix a
    lane factors and every attempt of its ladder.
    """

    phi_flops = schur_flops = phi_sub = final_sub = 0
    phi_banded = schur_banded = False
    kind = None  # the factor class of robust_factor_batch: its default

    def __init__(self, xp, reg, attempts, meters, faults, G, newtons) -> None:
        self.xp, self.reg, self.attempts, self.meters = xp, reg, attempts, meters
        self.faults, self.G, self.newtons = faults, G, newtons
        self.forced = None if faults is None else faults.forced

    def _factor(self, A, band, active, layout=None):
        """One :func:`robust_factor_batch` call (after the lanes' fault
        hooks transform ``A``, a stage stack of ``layout``); returns the
        factor, the lanes that are active and factored, and those as
        ints."""
        mt = self.meters
        if self.faults is not None:
            A = self.faults.transform(A, active, layout)
        t0 = perf_counter()
        factor, reg_used, retries = robust_factor_batch(
            A, self.reg, band, self.attempts, backend=self.xp, active=active,
            forced=self.forced, kind=self.kind,
        )
        mt.factor_time += perf_counter() - t0
        alive = active & factor.ok
        return factor, alive, mt.factored(alive, retries, reg_used)

    def _factor_schur(self, S, band, active):
        """Factor ``S`` on the lanes ``Phi`` left ``active``, counted."""
        mt = self.meters
        self.schur, alive, aiv = self._factor(S, band, active)
        mt.n_schur = mt.n_schur + aiv
        self.schur_flops = self.schur.factor_flops()
        self.schur_banded = self.schur.banded
        return alive

    def _apply(self, op, rhs):
        """``op(rhs)``, timed as a substitution."""
        t = perf_counter()
        out = op(rhs)
        self.meters.sub_time += perf_counter() - t
        return out

    def _schur_solve(self, rhs):
        return self._apply(self.schur.solve, rhs[:, :, None])[:, :, 0]

    def meter_totals(self, n_phi, n_schur):
        """Per-lane ``(factorizations, banded, factor flops, substitute
        flops)`` of ``n_phi`` / ``n_schur`` factorizations (host ints)."""
        final = n_phi if self.G is None else n_schur
        return (
            n_phi + n_schur,
            n_phi * int(self.phi_banded) + n_schur * int(self.schur_banded),
            n_phi * self.phi_flops + n_schur * self.schur_flops,
            n_phi * self.phi_sub + final * self.final_sub,
        )


class _DenseLaneKKT(_LaneKKT):
    """``Phi = H + J^T W J`` formed whole and ``S = G (Phi^-1 G^T)``: the
    step without a band hint, and the oracle of the other two (its factor
    shares no arithmetic with the one the hinted steps run)."""

    kind = OracleCholeskyFactor

    def __init__(self, xp, reg, attempts, meters, faults, H, G, Gt, J, Jt,
                 newtons):
        super().__init__(xp, reg, attempts, meters, faults, G, newtons)
        self.H, self.Gt, self.J, self.Jt = H, Gt, J, Jt

    def factor(self, w, active):
        xp, mt = self.xp, self.meters
        with xp.errstate():
            Phi = self.H
            if w is not None:
                Phi = Phi + xp.matmul(self.Jt * w[:, None, :], self.J)
        phi, alive, aiv = self._factor(Phi, None, active)
        mt.n_phi = mt.n_phi + aiv
        self.phi = phi
        self.phi_flops = phi.factor_flops()
        per_solve = phi.solve_flops(1)
        if self.G is not None:
            with xp.errstate():
                self.PhiInv_Gt = self._apply(phi.solve, self.Gt)
                S = xp.matmul(self.G, self.PhiInv_Gt)
            alive = self._factor_schur(S, None, alive)
            self.phi_sub = phi.solve_flops(int(self.Gt.shape[2]))
            per_solve += self.schur.solve_flops(1)
        self.final_sub = self.newtons * per_solve
        return alive

    def solve(self, rhs1, re):
        xp = self.xp
        t = self._apply(self.phi.solve, rhs1[:, :, None])[:, :, 0]
        if self.G is None:
            return t, None
        dnu = self._schur_solve(_bmv(xp, self.G, t) + re)
        return t - _bmv(xp, self.PhiInv_Gt, dnu), dnu


class _DiagLaneKKT(_LaneKKT):
    """The hinted step when ``Phi`` is diagonal (an envelope of band 0):
    ``diag(Phi) = diag(H) + (J o J)^T w`` — no ``n x n`` product — is
    factored in place as ``n`` blocks of ``1 x 1``
    (:func:`robust_diag_factor_batch`: the reciprocal pivots ``r``, no
    factor object), ``V = r o G^T`` and ``S = V^T V`` is factored banded at
    the structural band of ``|G| |G|^T`` (when within the hint).  The step
    is ``dnu = S^-1 (V^T (r o rhs1) + re)``, ``dx = r o (r o (rhs1 -
    G^T dnu))``."""

    phi_banded = True  # n blocks of 1 x 1, as the block-mode factor counts

    def __init__(self, xp, reg, attempts, meters, faults, H, G, Gt, J, s_band,
                 newtons):
        super().__init__(xp, reg, attempts, meters, faults, G, newtons)
        self.H = H
        lanes, n = int(H.shape[0]), int(H.shape[1])
        diag = xp.arange(n) * (n + 1)
        self.diag_H = xp.take(xp.reshape(H, (lanes, n * n)), diag, axis=1)
        self.J2t = None if J is None else xp.transpose_last2(J * J)
        self.Gt, self.s_band = Gt, s_band
        self.phi_flops = n * sum(flop_counts_cholesky(1).values())
        self.tri = n * sum(flop_counts_substitution(1).values())
        if G is None:
            self.final_sub = newtons * 2 * self.tri
        else:
            self.phi_sub = int(Gt.shape[2]) * self.tri

    def factor(self, w, active):
        xp, mt = self.xp, self.meters
        t0 = perf_counter()
        with xp.errstate():
            d = self.diag_H
            if w is not None:
                d = d + _bmv(xp, self.J2t, w)
        if self.faults is not None:
            d = self.faults.transform(d, active)
        r, ok, reg_used, retries = robust_diag_factor_batch(
            d, self.reg, self.attempts, backend=xp, active=active,
            forced=self.forced,
        )
        mt.factor_time += perf_counter() - t0
        alive = active & ok
        mt.n_phi = mt.n_phi + mt.factored(alive, retries, reg_used)
        self.r = r
        if self.G is None:
            return alive
        with xp.errstate():
            V = r[:, :, None] * self.Gt
            self.Vt = xp.transpose_last2(V)
            S = xp.matmul(self.Vt, V)
            S = 0.5 * (S + xp.transpose_last2(S))
        alive = self._factor_schur(S, self.s_band, alive)
        self.final_sub = self.newtons * (
            3 * self.tri + self.schur.solve_flops(1)
        )
        return alive

    def solve(self, rhs1, re):
        xp, r = self.xp, self.r
        t = perf_counter()
        if self.G is None:
            dx, dnu = r * (r * rhs1), None
        else:
            rhs2 = _bmv(xp, self.Vt, r * rhs1) + re
            dnu = self.schur.solve(rhs2[:, :, None])[:, :, 0]
            dx = r * (r * (rhs1 - _bmv(xp, self.Gt, dnu)))
        self.meters.sub_time += perf_counter() - t
        return dx, dnu


class _StageLaneKKT(_LaneKKT):
    """The hinted step over ``Phi``'s stage blocks, laid out by
    :func:`repro.batch.host._stage_layout` (read once per solve, from the lane
    envelope).  ``H``'s blocks, each block's ``J`` rows ``(B, K, r, s)`` and
    its transposed ``G`` rows ``(B, K, s, q)`` are gathered once; per
    iteration ``Phi``'s blocks are one stacked ``J_k^T W_k J_k`` product,
    a ``(B, K, s, s)`` stack factored by its coupling components
    (block-mode :class:`BatchCholeskyFactor` given the layout's ``parts``,
    the factor class ``kind`` of every attempt of the retry ladder), and
    ``S = sum_k V_k^T V_k`` with
    ``V_k = L_k^-1 G_k^T`` is summed through precomputed gathers (the
    scatter-add of :func:`repro.batch.host._sum_gathers`).  Every gather is an
    ``xp.take`` on the lane-major layout, so a lane's arithmetic does not
    depend on how many lanes ride with it."""

    phi_banded = True  # block mode

    def __init__(self, xp, reg, attempts, meters, faults, H, G, J, layout,
                 s_band, newtons):
        super().__init__(xp, reg, attempts, meters, faults, G, newtons)
        self.H, self.layout = H, layout
        self.lanes = int(H.shape[0])
        self.phi_flops = layout.factor_flops
        self.tri_flops = layout.tri_flops
        self.s_band = s_band
        # Phi's factor reads its coupling components alone
        self.kind = partial(BatchCholeskyFactor, parts=tuple(
            (w, xp.from_host(index.ravel(), dtype="int"))
            for w, index in layout.parts
        ))  # fmt: skip
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
        if G is None:
            self.final_sub = newtons * 2 * self.tri_flops
        else:
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
            self.phi_sub = self.q * self.tri_flops

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
        xp, mt = self.xp, self.meters
        with xp.errstate():
            Phi = self.block_H
            if w is not None:
                wk = self._gather(w, self.jrows)
                Phi = Phi + xp.matmul(self.Jt * wk[:, :, None, :], self.J)
        self.phi, alive, aiv = self._factor(Phi, None, active, self.layout)
        mt.n_phi = mt.n_phi + aiv
        if self.G is not None:
            p = self.p
            with xp.errstate():
                self.V = self._apply(self.phi.forward, self.G)
                W = xp.matmul(xp.transpose_last2(self.V), self.V)
                S = xp.reshape(self._sum(W, self.s_gather), (self.lanes, p, p))
                S = 0.5 * (S + xp.transpose_last2(S))
            alive = self._factor_schur(S, self.s_band, alive)
            self.final_sub = self.newtons * (
                3 * self.tri_flops + self.schur.solve_flops(1)
            )
        return alive

    def solve(self, rhs1, re):
        xp, F = self.xp, self.phi
        r1 = self._gather(rhs1, self.cols)
        if self.G is None:
            dx = self._apply(F.solve, r1)
        else:
            y = self._apply(F.forward, r1)
            Vty = xp.matmul(y[:, :, None, :], self.V)[:, :, 0, :]
            dnu = self._schur_solve(self._sum(Vty, self.r_gather) + re)
            Gt_dnu = xp.matmul(
                self.G, self._gather(dnu, self.grows)[:, :, :, None]
            )[:, :, :, 0]
            dx = self._apply(F.solve, r1 - Gt_dnu)
        dx = xp.take(xp.reshape(dx, (self.lanes, -1)), self.real, axis=1)
        return dx, (None if self.G is None else dnu)


#: lane-envelope structure reads, keyed on the envelope's nonzero pattern
#: (see :func:`_lane_structure`); cleared when it reaches its bound.  One
#: seeded pass of a ``fleet-*`` benchmark workload reads 3 patterns in 343
#: solves (``fleet-ragged``) and 4 in 648 over two shard processes
#: (``fleet-sharded``) — one per padded binding, and one for the cold
#: first solve, whose dynamics Jacobian has exact zeros at ``theta = 0`` —
#: so the bound is four times the largest count seen.
_STRUCTURES: Dict[tuple, tuple] = {}
_STRUCTURES_MAX = 16


def _lane_rows(xp: ArrayBackend, arrays):
    """``(data, shapes)``: each lane's ``arrays`` (``(B, ...)`` stacks)
    side by side in one ``(B, total)`` row, and their trailing shapes."""
    lanes = int(arrays[0].shape[0])
    shapes = [tuple(int(v) for v in tuple(M.shape)[1:]) for M in arrays]
    data = xp.concatenate(
        [xp.reshape(M, (lanes, _size(shape))) for M, shape in zip(arrays, shapes)],
        axis=1,
    )
    return data, shapes


def _split_rows(xp: ArrayBackend, data, shapes):
    """``data``'s consecutive column runs, each viewed as
    ``(B,) + shape`` for its entry of ``shapes``."""
    lanes, out, at = int(data.shape[0]), [], 0
    for shape in shapes:
        k = _size(shape)
        out.append(xp.reshape(data[:, at : at + k], (lanes,) + shape))
        at += k
    return out


def _size(shape) -> int:
    k = 1
    for dim in shape:
        k *= int(dim)
    return k


def _lane_structure(env_H, env_J, env_G):
    """``(phi_band, s_diag_band, layout)`` of a lane envelope —
    ``max |H|``, ``max |J|``, ``max |G|`` over the lanes, host arrays
    (``None`` without rows of that kind).

    Everything here is read from the envelope's nonzero pattern — the
    block partition, ``Phi``'s band, the stage layout, and ``S``'s
    structural band (``|G| |G|^T`` taken over the pattern) — so it is
    memoized on that pattern: the QPs of one SQP solve, and every solve of
    a padded binding, share one pattern and read it once.  A pure function
    of the pattern, so no plan depends on which solve ran first.
    ``s_diag_band`` is set when ``Phi`` is diagonal, ``layout`` otherwise.
    """
    nz_H = env_H != 0
    nz_J = None if env_J is None else env_J != 0
    nz_G = None if env_G is None else env_G != 0
    key = tuple(
        None if nz is None else (nz.shape, nz.tobytes())
        for nz in (nz_H, nz_J, nz_G)
    )
    hit = _STRUCTURES.get(key)
    if hit is not None:
        return hit
    bounds, phi_band = block_partition(nz_H, nz_J)
    s_diag_band = layout = None
    if phi_band == 0:
        s_diag_band = 0 if nz_G is None else _diag_schur_band(nz_G * 1.0)
    else:
        layout = _stage_layout(nz_H, nz_G, nz_J, bounds)
    if len(_STRUCTURES) >= _STRUCTURES_MAX:
        _STRUCTURES.clear()
    hit = _STRUCTURES[key] = (phi_band, s_diag_band, layout)
    return hit


def _lane_kkt(kkt_args, data, shapes, H, finite, G, Gt, J, Jt, bandwidth,
              newtons):
    """The lockstep loop's KKT step, chosen once per solve.

    ``kkt_args`` is ``(xp, reg, attempts, meters, faults)``; ``data``
    holds every lane's sanitized ``(H, G, J, g, b, d)`` as one row (of those
    ``shapes``), ``H`` is the caller's and ``finite`` the lanes kept;
    ``G`` / ``J`` are ``None`` without rows of that kind; ``newtons`` is the
    number of Newton solves per iteration.  Without a band hint the step is
    dense.  With one, the structure is read once, from the lane envelope
    (``max |data|`` over the lanes, one constant download; sanitized
    failed lanes contribute zeros; the read itself is
    :func:`_lane_structure`'s): ``Phi``'s block partition and band, and
    ``S``'s structural band, which is factored banded when within the
    hint.  Returns ``(kkt, phi_band, s_band)``, the bands ``None`` where
    not measured or not used; ``kkt.H`` is the sanitized ``H`` the
    residual multiplies — in the caller's memory layout, where ``H x``
    sums in a layout-dependent order, and read from ``data`` when ``H`` is
    diagonal (one nonzero term a row: any order gives the same bits).
    """
    xp = kkt_args[0]
    n = int(H.shape[1])
    if bandwidth is not None and n:
        env = xp.to_host(xp.max(xp.abs(data), axis=0))
        env_H, env_G, env_J = _split_rows(HOST, env[None], shapes[:3])
        phi_band, s_diag_band, layout = _lane_structure(
            env_H[0],
            None if J is None else env_J[0],
            None if G is None else env_G[0],
        )
        if phi_band == 0:
            s_band = s_diag_band if s_diag_band <= bandwidth else None
            H = _split_rows(xp, data, shapes[:1])[0]
            kkt = _DiagLaneKKT(*kkt_args, H, G, Gt, J, s_band, newtons)
            return kkt, phi_band, s_band
    H = xp.where(finite[:, None, None], H, 0.0)
    if bandwidth is None or not n:
        kkt = _DenseLaneKKT(*kkt_args, H, G, Gt, J, Jt, newtons)
        return kkt, None, None
    s_band = layout.schur_band if layout.schur_band <= bandwidth else None
    kkt = _StageLaneKKT(*kkt_args, H, G, J, layout, s_band, newtons)
    return kkt, phi_band, s_band


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
    warm: Optional[dict] = None,
    fault_hooks: Optional[Sequence[Optional[object]]] = None,
) -> BatchQPResult:
    """Solve ``B`` convex QPs in lockstep with per-lane freezing.

    ``iteration_caps`` (optional, ``(B,)`` ints) shortens individual
    lanes' iteration budgets below ``options.max_iterations`` — a lane
    stopping on a shortened cap reports status ``"budget_exhausted"``.
    ``record_freeze`` snapshots each lane's iterate at its freeze point
    (for the bit-identity guarantees tested in the active-mask suite).
    ``backend`` selects the array namespace (default numpy).  On device
    backends ``sync_interval`` is the early-exit cadence (0 = never
    sync); host backends check every iteration.  ``warm`` (optional) holds
    host rows ``{"nu": (B, p), "lam": (B, m), "carried": (B,)}``: a
    ``carried`` lane starts from its rows, as :func:`repro.mpc.qp.solve_qp`
    does from its ``warm``, and every other lane cold.  ``fault_hooks``
    (host backends) is an optional length-``B`` sequence of
    :mod:`repro.faults` solver-layer hooks, ``None`` for a lane without one
    (consulted as :class:`repro.batch.host._LaneFaults` says).
    """
    opt = options or QPOptions()
    xp = get_backend(backend)
    # The two backend-derived values (see the module docstring).
    attempts = 1 if xp.is_device else LADDER_ATTEMPTS
    exit_check = sync_interval if xp.is_device else 1

    H = xp.asarray(H)
    g = xp.asarray(g)
    lanes, n = int(g.shape[0]), int(g.shape[1])
    if tuple(H.shape) != (lanes, n, n):
        raise ValueError(f"H shape {tuple(H.shape)} != ({lanes}, {n}, {n})")
    faults = None
    if fault_hooks is not None:
        if len(fault_hooks) != lanes:
            raise SolverError(f"{len(fault_hooks)} fault hooks for {lanes} lanes")
        if xp.is_device:
            raise SolverError("fault hooks need a host backend")
        faults = _LaneFaults(fault_hooks)
        H = faults.transform_qp(H)

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

    # Every datum of a lane in one row: one finiteness scan, one sanitize
    # and, on a hinted solve, one envelope.  Per-lane non-finite data fails
    # fast (the lane freezes as "failed" so its mates keep solving; the
    # one-lane call raises SolverError before), and failed lanes' data is
    # zeroed so lockstep arithmetic on them stays bounded; their state is frozen
    # at zeros and never published.  The matmul operands are sanitized in
    # the caller's memory layout instead (a batched matmul sums in a
    # layout-dependent order); H is chosen with the step (_lane_kkt).
    data, shapes = _lane_rows(xp, (H, G, J, g, b, d))
    lane_finite = xp.all(xp.isfinite(data), axis=1)
    data = xp.where(lane_finite[:, None], data, 0.0)
    g, b, d = _split_rows(xp, data, shapes)[3:]
    if has_eq:
        G = xp.where(lane_finite[:, None, None], G, 0.0)
    if has_in:
        J = xp.where(lane_finite[:, None, None], J, 0.0)
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
    if warm is not None:
        # the carried start, chosen row by row (a lane's start does not
        # depend on its batch-mates')
        on = xp.from_host(warm["carried"], dtype="bool")[:, None]
        nu = xp.where(on, xp.from_host(warm["nu"]), nu)
        if has_in:
            s = xp.where(on, xp.maximum(d - _bmv(xp, J, x), _CARRY_FLOOR), s)
            lam_warm = xp.maximum(xp.from_host(warm["lam"]), _CARRY_FLOOR)
            lam = xp.where(on, lam_warm, lam)

    # max |g|, |b|, |d| over the lane's trailing run of the rows
    gbd = data[:, int(data.shape[1]) - (n + p + m) :]
    scale = 1.0 + xp.minimum(_maxabs(xp, gbd), 100.0)

    max_it = int(opt.max_iterations)
    caps, global_max = _lane_caps(xp, lanes, max_it, iteration_caps)
    budget_capped = caps < max_it

    status = xp.where(lane_finite, _ACTIVE, _FAILED)
    iterations = xp.zeros((lanes,), dtype="int")
    residual = xp.full((lanes,), _INF)
    deadline_hit = xp.zeros((lanes,), dtype="bool")
    mu_rows: List[object] = []

    meters = _LaneMeters(xp, lanes)
    lane_work = xp.zeros((lanes,), dtype="int")
    bstats = BatchQPStats()

    kkt, phi_band, s_band = _lane_kkt(
        (xp, opt.regularization, attempts, meters, faults),
        data, shapes, H, lane_finite, G if has_eq else None, Gt,
        J if has_in else None, Jt, bandwidth, 2 if has_in else 1,
    )
    H = kkt.H

    sfloor = _SLACK_FLOOR
    # per-solve constants of the status chain
    tol_scale = opt.tolerance * scale
    lam_cap = _LAM_DIVERGENCE * scale
    cap_code = xp.where(budget_capped, _BUDGET, _MAXIT)

    for it in range(1, global_max + 2):
        eval_active = status == _ACTIVE

        # Residual evaluation.
        with xp.errstate():
            r_dual = _bmv(xp, H, x) + g
            if has_eq:
                r_dual = r_dual + _bmv(xp, Gt, nu)
            if has_in:
                r_dual = r_dual + _bmv(xp, Jt, lam)
            r_eq = _bmv(xp, G, x) - b if has_eq else None
            r_in = _bmv(xp, J, x) + s - d if has_in else None
            if has_in:
                slam = s * lam
                mu = xp.sum(slam, axis=1) / m
            else:
                mu = xp.zeros((lanes,))
            parts = [r_dual]
            if has_eq:
                parts.append(r_eq)
            if has_in:
                parts.append(r_in)
            if len(parts) > 1:
                parts = [xp.concatenate(parts, axis=1)]
            res = _maxabs(xp, parts[0]) + mu

        residual = xp.where(eval_active, res, residual)
        mu_rows.append(xp.where(eval_active, mu, _NAN))

        # Classification ladder: cap / converged / diverged, one verdict
        # per lane, applied to the lanes just evaluated.
        over_cap = it > caps
        bad = ~xp.isfinite(res)
        if has_in:
            bad = bad | (xp.max(lam, axis=1) > lam_cap)
        verdict = xp.where(
            over_cap,
            cap_code,
            xp.where(res < tol_scale, _CONV, xp.where(bad, _DIV, _ACTIVE)),
        )
        stop = eval_active & (verdict != _ACTIVE)
        status = xp.where(stop, verdict, status)
        iterations = xp.where(stop, xp.where(over_cap, caps, it), iterations)

        # Wall-clock deadline stops every still-active lane at once (a
        # host-clock decision — no backend data is read).
        if deadline is not None and perf_counter() >= deadline:
            still = status == _ACTIVE
            status = xp.where(still, _BUDGET, status)
            iterations = xp.where(still, it - 1, iterations)
            deadline_hit = deadline_hit | still
            break

        active = eval_active & ~stop
        if exit_check and it % exit_check == 0:
            # The one host round-trip a device pays (optionally): early
            # exit for a batch that has fully frozen before the global cap.
            if not bool(xp.scalar(xp.any(active))):
                break

        bstats.iterations += 1
        lane_work = lane_work + xp.astype(active, "int")

        w = None
        if has_in:
            with xp.errstate():
                s_safe = xp.maximum(s, sfloor)
                w = xp.minimum(lam / s_safe, _W_CEIL)
        alive = kkt.factor(w, active)
        newly_failed = active & ~alive
        status = xp.where(newly_failed, _FAILED, status)
        iterations = xp.where(newly_failed, it, iterations)

        with xp.errstate():
            # Predictor (affine scaling) step, then the centred corrector:
            # rhs1 = -(r_dual + J^T (w r_in - rc / s)), ds = -r_in - J dx,
            # dlam = (-rc - lam ds) / s.
            if has_in:
                w_r_in, neg_r_in = w * r_in, 0.0 - r_in
                rhs1 = 0.0 - (r_dual + _bmv(xp, Jt, w_r_in - slam / s_safe))
                dx_a, dnu_a = kkt.solve(rhs1, r_eq)
                ds_a = neg_r_in - _bmv(xp, J, dx_a)
                dlam_a = ((0.0 - slam) - lam * ds_a) / s_safe
                sl = _pair(xp, s, lam)
                steps = _max_step_batch(xp, sl, _pair(xp, ds_a, dlam_a))
                ap_aff, ad_aff = steps[:, 0], steps[:, 1]
                mu_aff = xp.sum(
                    (s + ap_aff[:, None] * ds_a)
                    * (lam + ad_aff[:, None] * dlam_a),
                    axis=1,
                ) / m
                safe_mu = xp.where(mu > 0.0, mu, 1.0)
                sigma = xp.where(mu > 0.0, (mu_aff / safe_mu) ** 3, 0.0)
                rc = slam + ds_a * dlam_a - (sigma * mu)[:, None]
                rhs1 = 0.0 - (r_dual + _bmv(xp, Jt, w_r_in - rc / s_safe))
                dx, dnu = kkt.solve(rhs1, r_eq)
                ds = neg_r_in - _bmv(xp, J, dx)
                dlam = ((0.0 - rc) - lam * ds) / s_safe
                steps = xp.minimum(
                    1.0, opt.tau * _max_step_batch(xp, sl, _pair(xp, ds, dlam))
                )
                ap, ad = steps[:, 0], steps[:, 1]
            else:
                dx, dnu = kkt.solve(0.0 - r_dual, r_eq)

        am = alive[:, None]
        if has_in:
            x = xp.where(am, x + ap[:, None] * dx, x)
            s = xp.where(am, s + ap[:, None] * ds, s)
            if has_eq:
                nu = xp.where(am, nu + ad[:, None] * dnu, nu)
            lam = xp.where(am, lam + ad[:, None] * dlam, lam)
        else:
            # unit step lengths
            x = xp.where(am, x + dx, x)
            if has_eq:
                nu = xp.where(am, nu + dnu, nu)

    # ---- single bulk download: the only host materialization ----------
    x_h = xp.to_host(x)
    nu_h = xp.to_host(nu)
    s_h = xp.to_host(s)
    lam_h = xp.to_host(lam)
    resid_h = xp.to_host(residual)
    regmax_h = xp.to_host(meters.regmax)
    counts = (iterations, status, meters.n_phi, meters.n_schur,
              meters.retries, lane_work, deadline_hit, lane_finite)  # fmt: skip
    (iters_h, status_h, n_phi, n_schur, retries_h, work_h, deadline_h,
     finite_h) = xp.to_host(  # fmt: skip
        xp.stack([xp.astype(v, "int") for v in counts])
    )
    deadline_h = deadline_h != 0
    bstats.lane_slots = lanes * bstats.iterations
    bstats.lane_iterations = int(work_h.sum())
    status_codes, status, converged_h, gap_history = _decode_lanes(
        status_h, xp.to_host(xp.stack(mu_rows)) if mu_rows else None
    )

    factz_h, banded_h, flops_h, subflops_h = kkt.meter_totals(n_phi, n_schur)
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
        if phi_band is not None and finite_h[lane]:
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

    if opt.polish and n:
        # The active-set polish of the converged lanes, the host epilogue
        # the ADMM loop runs too (repro.firstorder.batch), on each lane's
        # sanitized data.
        H_h, G_h, J_h, g_h, b_h, d_h = _split_rows(HOST, xp.to_host(data), shapes)
        for lane in range(lanes):
            if status_codes[lane] != _CONV:
                continue
            t_polish = perf_counter()
            pol = _polish_lane(
                H_h[lane], g_h[lane],
                G_h[lane] if has_eq else None, b_h[lane] if has_eq else None,
                J_h[lane] if has_in else None, d_h[lane] if has_in else None,
                x_h[lane], lam_h[lane], s_h[lane], float(resid_h[lane]), opt,
            )  # fmt: skip
            stats[lane].factorize_time += perf_counter() - t_polish
            if pol is not None:
                x_h[lane], nu_h[lane], lam_h[lane], s_h[lane], resid_h[lane] = pol
                stats[lane].factorizations += 1

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
