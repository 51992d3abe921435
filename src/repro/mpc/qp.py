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
:func:`repro.batch.qp.solve_qp_batch`.  :func:`solve_qp` is its one-lane
call — it validates the caller's QP, stacks one lane and unwraps lane 0,
raising :class:`~repro.errors.SolverError` where a lane would freeze
``"failed"`` — and dispatches ``QPOptions(method="admm")`` to the ADMM
loop the same way.  Structure exploitation (the paper's central premise)
lives in that loop: with a ``bandwidth`` hint (the stage-interleaved
ordering of :meth:`~repro.mpc.transcription.TranscribedProblem.stage_permutation`)
the step runs over ``Phi``'s stage blocks, as HPMPC does, and without one
it forms ``Phi`` whole — the dense oracle.  This module keeps the option,
stats and result types both QP loops share, and the bare-numpy host
parts of the stage step: its structure reads (:func:`_stage_layout`,
:func:`_sum_gathers`) and fault-injection consults (:class:`_LaneFaults`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.codegen.stats import CodegenStats
from repro.errors import SolverError
from repro.mpc.banded import bandwidth_of, coupling_components
from repro.mpc.linalg import flop_counts_cholesky, flop_counts_substitution

__all__ = [
    "QP_METHODS",
    "ConditioningReport",
    "QPOptions",
    "QPResult",
    "QPStats",
    "solve_qp",
]

#: the QP solver families ``QPOptions.method`` (and every ``qp_method``
#: knob above it) selects between
QP_METHODS = ("ipm", "admm")

#: floor ``theta`` of a carried interior-point start (see :func:`solve_qp`'s
#: ``warm``): the slacks and inequality multipliers start at least this far
#: inside the positive orthant — a converged multiplier of an inactive row
#: is ~1e-10 — so the barrier opens near ``mu ~ theta``, not at its boundary
_CARRY_FLOOR = 1e-2


@dataclass
class QPOptions:
    """Parameters for the QP solvers (interior-point and first-order).

    ``method`` selects the solver family :func:`solve_qp` dispatches to:
    ``"ipm"`` (the Mehrotra predictor-corrector — tight
    tolerances, per-iteration factorizations) or ``"admm"`` (the OSQP-style
    operator splitting in :mod:`repro.firstorder` — one cached
    factorization, cheap matvec iterations, loose-to-moderate tolerances).
    The ``admm_*`` fields only matter for the latter.
    """

    max_iterations: int = 50
    tolerance: float = 1e-8
    #: fraction-to-the-boundary factor
    tau: float = 0.995
    #: diagonal regularization for the condensed Hessian
    regularization: float = 1e-9
    #: end a solve with the active-set polish
    #: (:func:`repro.firstorder.admm._polish_qp`: the KKT equalities of the
    #: detected active set solved directly, plus iterative refinement),
    #: which has no barrier scaling W and so recovers the solution past
    #: the accuracy the barrier iteration stalls at.  A converged IPM lane
    #: adopts the polished point when it passes the polish's own test and
    #: does not worsen the lane's residual; ADMM polishes the lanes that
    #: stopped without an answer.
    polish: bool = False
    #: solver family: "ipm" or "admm"
    method: str = "ipm"
    #: ADMM penalty parameter (initial value; adapted on the residual ratio)
    admm_rho: float = 0.1
    #: ADMM equality rows carry ``admm_rho_eq_scale * rho`` (OSQP treats
    #: ``l == u`` rows as stiff so the equalities are enforced tightly)
    admm_rho_eq_scale: float = 1e3
    #: ADMM proximal regularization sigma
    admm_sigma: float = 1e-6
    #: ADMM over-relaxation factor (1.0 disables; OSQP default region 1.5-1.8)
    admm_alpha: float = 1.6
    #: ADMM iteration cap — first-order iterations are matvec-cheap, so the
    #: cap is far above the IPM's ``max_iterations``
    admm_max_iterations: int = 2000
    #: ADMM convergence tolerance (relative, OSQP-style eps_abs == eps_rel);
    #: intentionally separate from the IPM ``tolerance`` because the two
    #: families live at different practical accuracy tiers
    admm_tolerance: float = 1e-5
    #: iterations between rho-adaptation checks (each adaptation triggers
    #: the one re-factorization of the cached KKT matrix); ``0`` disables
    #: adaptation.  Device backends ride their ``sync_interval`` host
    #: round-trip instead (see :mod:`repro.firstorder.batch`).
    admm_rho_interval: int = 25
    #: Ruiz-equilibrate the box-form data before the ADMM iteration (see
    #: :mod:`repro.firstorder.precond`).  Termination still tests the
    #: *unscaled* residuals, so tolerances mean the same thing either way;
    #: on stiff problems this is the difference between converging and
    #: stalling.  Ignored by the IPM (whose per-iteration factorizations
    #: absorb bad scaling directly).
    admm_equilibrate: bool = True
    #: Ruiz sweep cap (each sweep is one row/col norm pass; the iteration
    #: exits early at its fixpoint, typically 3-6 sweeps)
    admm_equilibrate_iters: int = 10
    #: norm-spread gate: equilibration only runs when the max/min ratio of
    #: the stacked row/col infinity norms exceeds this.  Already-well-
    #: scaled problems are left alone — normalizing them makes the relative
    #: stopping test effectively absolute, which can land a tight tolerance
    #: below the iteration's numerical floor.  Batched solves gate per lane.
    admm_equilibrate_spread: float = 100.0
    #: stall detector: the solve is declared stalled (and becomes a
    #: fallback-ladder candidate) after this window of iterations goes by
    #: without the best relative residual improving by at least 10%.  ``0``
    #: disables detection.  The loop rounds this up to whole residual
    #: checks (every 5th iteration).
    admm_stall_iterations: int = 250
    #: let SQP drivers retry a stalled/diverged ADMM subproblem with the
    #: IPM inside the remaining budget (the method-health fallback ladder)
    admm_fallback: bool = True

    def __post_init__(self):
        if self.max_iterations < 1:
            raise SolverError("max_iterations must be >= 1")
        if not 0 < self.tau < 1:
            raise SolverError("tau must lie in (0, 1)")
        if self.method not in QP_METHODS:
            raise SolverError(
                f"unknown QP method {self.method!r} (expected one of {QP_METHODS})"
            )
        if self.admm_max_iterations < 1:
            raise SolverError("admm_max_iterations must be >= 1")
        if not 0.0 < self.admm_alpha < 2.0:
            raise SolverError("admm_alpha must lie in (0, 2)")
        if self.admm_equilibrate_iters < 0:
            raise SolverError("admm_equilibrate_iters must be >= 0")
        if self.admm_equilibrate_spread < 1.0:
            raise SolverError("admm_equilibrate_spread must be >= 1")
        if self.admm_stall_iterations < 0:
            raise SolverError("admm_stall_iterations must be >= 0")


@dataclass
class ConditioningReport:
    """How one ADMM solve experienced the problem's conditioning.

    Produced per lane by the ADMM loop
    (:func:`repro.firstorder.batch.solve_qp_admm_batch`, of which
    ``solve_qp_admm`` is one lane) and carried on
    :attr:`QPStats.conditioning` so
    the SQP drivers and the serving layer can decide whether the solve is
    a fallback-ladder candidate instead of re-deriving it from residuals.
    """

    #: equilibration ran (``QPOptions.admm_equilibrate`` and a non-trivial
    #: problem)
    equilibrated: bool = False
    #: Ruiz sweeps actually executed (early exit at the fixpoint)
    ruiz_iters: int = 0
    #: max/min nonzero row+col infinity-norm ratio of the stacked data
    #: matrix, before and after scaling — the conditioning proxy
    norm_spread_before: float = 1.0
    norm_spread_after: float = 1.0
    #: cost scalar the equilibration settled on
    cost_scale: float = 1.0
    #: residual-balancing rho rescales (each one re-factorized the cached
    #: KKT matrix — a high count on a converged solve is thrash)
    rho_rescales: int = 0
    #: the stall detector fired: ``admm_stall_iterations`` went by without
    #: the best relative residual improving
    stalled: bool = False
    #: the iteration produced a non-finite residual (poisoned iterate)
    diverged: bool = False
    #: an active-set polish step recovered a converged solution after the
    #: loop stalled, capped out, or diverged (``QPOptions.polish``)
    polished: bool = False

    @property
    def needs_fallback(self) -> bool:
        """The solve is a candidate for the ADMM->IPM rescue ladder.

        A stall or divergence the polish step already repaired to a
        converged solution is not — the ladder only spends budget on
        solves that ended without a usable answer.
        """
        return (self.stalled or self.diverged) and not self.polished

    def to_dict(self) -> dict:
        return {
            "equilibrated": self.equilibrated,
            "ruiz_iters": self.ruiz_iters,
            "norm_spread_before": self.norm_spread_before,
            "norm_spread_after": self.norm_spread_after,
            "cost_scale": self.cost_scale,
            "rho_rescales": self.rho_rescales,
            "stalled": self.stalled,
            "diverged": self.diverged,
            "polished": self.polished,
        }


@dataclass
class QPStats:
    """Per-phase observability of one QP solve.

    Wall times are in seconds; flops are exact primitive-op totals
    (mul + add + div + sqrt) from the closed-form kernel counts, so
    benchmarks can report measured vs. cost-model flops.
    """

    #: "banded" when every factorization used the banded kernels, "dense"
    #: when none did, "mixed" otherwise (e.g. a banded Phi with a Schur
    #: complement whose measured bandwidth exceeded the hint)
    mode: str = "dense"
    #: largest measured half-bandwidth of the condensed Phi (None until
    #: the first factorization; equals n-ish for unpermuted problems)
    phi_bandwidth: Optional[int] = None
    #: largest measured half-bandwidth of the Schur complement
    schur_bandwidth: Optional[int] = None
    #: number of successful matrix factorizations (Phi and Schur each count
    #: once per iteration)
    factorizations: int = 0
    banded_factorizations: int = 0
    #: failed factorization attempts that escalated the regularization
    retries: int = 0
    #: largest diagonal regularization any factorization of this solve
    #: actually used (== the options' base value when no retry fired)
    regularization_max: float = 0.0
    factorize_time: float = 0.0
    substitute_time: float = 0.0
    factor_flops: int = 0
    substitute_flops: int = 0
    #: conditioning/stall record of an ADMM solve (None for the IPM)
    conditioning: Optional[ConditioningReport] = None
    #: linearize-phase codegen record (kernel tier, emit/compile cost,
    #: cache hits) attached by the SQP drivers; None for bare QP solves
    codegen: Optional["CodegenStats"] = None


@dataclass
class QPResult:
    """Solution of one QP subproblem."""

    x: np.ndarray
    nu: np.ndarray
    lam: np.ndarray
    slacks: np.ndarray
    converged: bool
    iterations: int
    residual: float
    gap_history: List[float] = field(default_factory=list)
    stats: QPStats = field(default_factory=QPStats)
    #: the solve stopped on the caller's wall-clock ``deadline`` before
    #: converging (the returned iterate/residual pair is still consistent)
    budget_exhausted: bool = False
    #: solver-internal warm-start state for the next solve of the same
    #: problem family (ADMM method only: the primal/slack/dual iterates and
    #: the adapted rho).  ``None`` for the IPM method and whenever the
    #: iterates are unfit for reuse; always host arrays.
    warm: Optional[dict] = None


def _rows_by_block(A: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """``(K, q)`` ascending indices of the rows of ``A`` with a nonzero in
    each column block ``[bounds[k], bounds[k+1])``, padded with the
    sentinel ``A.shape[0]``."""
    touches = np.logical_or.reduceat(A != 0, bounds[:-1], axis=1).T
    counts = touches.sum(axis=1)
    blk, row = np.nonzero(touches)
    out = np.full((len(counts), int(counts.max(initial=0))), A.shape[0])
    out[blk, np.arange(blk.size) - (np.cumsum(counts) - counts)[blk]] = row
    return out


def _padded(A: np.ndarray) -> np.ndarray:
    """``A`` with one zero row and column appended (the sentinel slot)."""
    out = np.zeros((A.shape[0] + 1, A.shape[1] + 1))
    out[:-1, :-1] = A
    return out


def _sum_gathers(index: np.ndarray, size: int) -> np.ndarray:
    """``(c, size)`` gather positions that replay ``np.bincount(index, w,
    size)`` as ``sum_c w_ext[..., out[c]]`` with ``w_ext = append(w, 0)``.

    Row ``c`` holds, for every target ``j < size``, the ``c``-th position of
    ``index`` equal to ``j`` (ascending, the order bincount adds them in),
    or the zero slot ``len(index)``; entries ``>= size`` are dropped.  A
    gather has a leading lane axis where a bincount has none, so this is how
    the stage step (:mod:`repro.batch.qp`, whose array code takes no bare
    numpy) runs its scatter-adds over :attr:`_StageLayout.pairs` /
    ``.grows``, in bincount's term order.
    """
    index = np.asarray(index).ravel()
    pos = np.flatnonzero(index < size)
    order = np.argsort(index[pos], kind="stable")
    pos = pos[order]
    tgt = index[pos]
    counts = np.bincount(tgt, minlength=size)
    rank = np.arange(tgt.size) - (np.cumsum(counts) - counts)[tgt]
    out = np.full((max(int(counts.max(initial=0)), 1), size), index.size)
    out[rank, tgt] = pos
    return out


@dataclass
class _StageLayout:
    """What a stage step reads from the structure, once per solve: ``Phi``'s
    block partition packed into ``K`` runs of width ``s`` (``cols`` with the
    sentinel ``n`` on the pad, ``real`` marking the rest), each run's
    ``J`` rows ``jrows`` and ``G`` rows ``grows`` (:func:`_rows_by_block`),
    the flat ``p x p`` position of each block's ``(q, q)`` product entries
    in ``S`` (``pairs``, sentinel ``p * p`` where a row is the pad — the one
    definition of how ``S`` is summed, in ascending block order), the
    structural band of ``S`` and the per-component flop meters.

    ``parts`` is where ``Phi`` is actually coupled: the connected
    components of ``nz(H) | nz(J^T J)``
    (:func:`repro.mpc.banded.coupling_components`) inside the ``(K, s, s)``
    tile stack, grouped by width ``w`` in ascending order, each group a
    ``(c, w, w)`` array of flat ``K s s`` positions, component members in
    ascending order (so a component's lower triangle is the tile's).  Every
    tile index, pad included (as a ``1 x 1``), is in exactly one
    component; the block-mode factor reads these entries alone."""

    real: np.ndarray
    cols: np.ndarray
    jrows: Optional[np.ndarray]
    grows: Optional[np.ndarray]
    pairs: Optional[np.ndarray]
    schur_band: int
    factor_flops: int
    tri_flops: int
    parts: Tuple[Tuple[int, np.ndarray], ...]


def _tile_parts(label: np.ndarray, cols: np.ndarray):
    """:attr:`_StageLayout.parts` of the components ``label`` (one per
    index, as :func:`~repro.mpc.banded.coupling_components` returns) in the
    tile stack whose index ``k s + o`` holds variable ``cols[k, o]``."""
    n, s = label.size, cols.shape[1]
    slot = np.flatnonzero(cols.ravel() < n)  # tile index of each variable
    # a pad slot is its own component, labelled past every variable
    tag = np.arange(n, n + cols.size)
    tag[slot] = label[cols.ravel()[slot]]
    order = np.lexsort((np.arange(cols.size), tag))  # by component, ascending
    _, start, width = np.unique(tag[order], return_index=True, return_counts=True)
    parts = []
    for w in np.unique(width).tolist():
        members = order[start[width == w][:, None] + np.arange(w)]  # (c, w)
        flat = members[:, :, None] * s + members[:, None, :] % s
        parts.append((w, flat))
    return tuple(parts)


def _stage_layout(H, G, J, bounds: np.ndarray) -> _StageLayout:
    """The :class:`_StageLayout` of the partition ``bounds`` of the ``n``
    variables of a problem with Hessian ``H``, equality rows ``G`` and
    inequality rows ``J`` (their nonzero patterns are what is read; ``None``
    for no rows of that kind)."""
    n = H.shape[0]
    label = coupling_components(H, J)
    # Metered as one dense Cholesky / triangular solve per coupling
    # component — the algorithm's work, whatever the stacking below.
    widths, counts = np.unique(
        np.unique(label, return_counts=True)[1], return_counts=True
    )
    factor_flops = tri_flops = 0
    for k, count in zip(widths.tolist(), counts.tolist()):
        factor_flops += count * sum(flop_counts_cholesky(k).values())
        tri_flops += count * sum(flop_counts_substitution(k).values())
    # Pack runs of neighbouring blocks up to the widest one: the stack
    # is padded to that width anyway, and a stage's lone pinned states
    # would otherwise each cost a tile of their own.
    widest = int(np.diff(bounds).max())
    packed = [0]
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        if hi - packed[-1] > widest:
            packed.append(lo)
    bounds = np.array(packed + [n])
    sizes = np.diff(bounds)
    offs = np.arange(widest)
    real = offs < sizes[:, None]
    cols = np.where(real, bounds[:-1, None] + offs, n)
    jrows = None if J is None else _rows_by_block(J, bounds)
    grows = pairs = None
    schur_band = 0
    if G is not None:
        p = G.shape[0]
        grows = _rows_by_block(G, bounds)
        gi, gj = grows[:, :, None], grows[:, None, :]
        pairs = np.where((gi < p) & (gj < p), gi * p + gj, p * p).ravel()
        # S[i, j] is structurally nonzero iff rows i and j share a block.
        used = grows < p
        span = np.where(used, grows, -1).max(axis=1) - np.where(
            used, grows, p
        ).min(axis=1)
        schur_band = int(np.max(span, initial=0))
    return _StageLayout(
        real, cols, jrows, grows, pairs, schur_band, factor_flops, tri_flops,
        _tile_parts(label, cols),
    )


def _diag_schur_band(G: np.ndarray) -> int:
    """Structural band of ``S = G D G^T`` for a diagonal ``D``."""
    return bandwidth_of(np.abs(G) @ np.abs(G).T)


def _stage_view(fn, blocks: np.ndarray, layout: _StageLayout) -> np.ndarray:
    """``fn`` applied to a ``(K, s, s)`` stage stack as the ``n x n``
    block-diagonal matrix it stands for; the result's stage blocks come
    back (identity on the pad), so a congruence scaling of one index lands
    in that index's block."""
    cols, real = layout.cols, layout.real
    n = int(real.sum())
    dense = np.zeros((n + 1, n + 1))
    dense[cols[:, :, None], cols[:, None, :]] = blocks
    out = _padded(fn(dense[:n, :n]))[cols[:, :, None], cols[:, None, :]]
    d = np.arange(cols.shape[1])
    out[:, d, d] += ~real
    return out


def _polish_lane(H, g, G, b, J, d, x, lam, s, residual, opt: QPOptions):
    """The active-set polish of one converged IPM lane:
    :func:`repro.firstorder.admm._polish_qp` from its iterate with the rows
    ``lam > s`` guessed active, adopted when its point passes the polish's
    own test and the lane's stopping measure (``max |r| + mu``) is no
    worse there than ``residual``.  ``(x, nu, lam, s, residual)`` or
    ``None``."""
    # Imported lazily: repro.firstorder imports this module.
    from repro.firstorder.admm import _polish_qp

    # the barrier's own split of the rows: at convergence s lam ~ 0 makes
    # lam > s decisive, where an absolute threshold on lam is not
    lam = np.where(lam > s, lam, 0.0)
    pol = _polish_qp(H, g, G, b, J, d, x, lam, opt.regularization, opt.tolerance)
    if pol is None or not pol["converged"]:
        return None
    x, nu, lam, s = pol["x"], pol["nu"], pol["lam"], pol["slacks"]
    r = [H @ x + g]
    if G is not None:
        r[0] = r[0] + G.T @ nu
        r.append(G @ x - b)
    mu = 0.0
    if J is not None:
        r[0] = r[0] + J.T @ lam
        r.append(J @ x + s - d)
        mu = float(s @ lam) / J.shape[0]
    res = float(np.max(np.abs(np.concatenate(r)))) + mu
    if not res <= residual:
        return None
    return x, nu, lam, s, res


class _LaneFaults:
    """The :mod:`repro.faults` solver-layer hooks of a lockstep solve, one
    optional hook per lane (host backends), each consulted where a fault
    can enter its lane: ``transform_qp`` once, on the lane's ``H``;
    ``transform_matrix`` once on each ``Phi`` and ``S`` the lane factors (a
    stage stack is shown as its ``n x n`` block-diagonal matrix, a diagonal
    ``Phi`` as its diagonal matrix); ``force_failure`` before every attempt
    of that factorization's retry ladder, a ``True`` failing the attempt as
    a non-positive pivot would.  A hook may implement any subset.  Frozen
    lanes consult nothing, so a hook sees the solve its lane ran alone."""

    def __init__(self, hooks) -> None:
        self._qp = [getattr(h, "transform_qp", None) for h in hooks]
        self._matrix = [getattr(h, "transform_matrix", None) for h in hooks]
        self._fail = [getattr(h, "force_failure", None) for h in hooks]

    def transform_qp(self, H: np.ndarray) -> np.ndarray:
        """``H`` with each lane's ``transform_qp`` applied, copied in its
        memory layout."""
        if not any(self._qp):
            return H
        H = np.copy(H)
        for lane, fn in enumerate(self._qp):
            if fn is not None:
                H[lane] = fn(H[lane])
        return H

    def transform(self, A, active, layout: Optional[_StageLayout] = None):
        """``A`` with each active hooked lane's ``transform_matrix``
        applied: a ``(B, n, n)`` stack, a ``(B, n)`` diagonal, or with its
        ``layout`` a ``(B, K, s, s)`` stage stack."""
        lanes = [
            lane
            for lane, fn in enumerate(self._matrix)
            if fn is not None and active[lane]
        ]
        if not lanes:
            return A
        A = np.copy(A)
        for lane in lanes:
            fn = self._matrix[lane]
            if A.ndim == 2:
                A[lane] = np.diagonal(fn(np.diag(A[lane])))
            elif layout is None:
                A[lane] = fn(A[lane])
            else:
                A[lane] = _stage_view(fn, A[lane], layout)
        return A

    def forced(self, lanes) -> np.ndarray:
        """Which of the ``lanes`` (a ``(B,)`` mask) fail this attempt."""
        out = np.zeros(len(self._fail), dtype=bool)
        for lane in np.flatnonzero(lanes):
            fn = self._fail[lane]
            out[lane] = fn is not None and bool(fn())
        return out


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
            lane's hook (see :class:`_LaneFaults`).
        warm: a warm start, read by each method in its own terms.  ADMM:
            a previous solve's ``QPResult.warm`` (iterate triple and rho).
            IPM: ``{"nu": (p,), "lam": (m,)}``, the multipliers of the
            previous subproblem of the same shapes (one lane of the SQP
            loop's carry, :func:`repro.batch.ipm.solve_lanes`); the
            iteration then starts from ``x = 0``, ``nu``, ``s = max(d - J x, theta)`` and
            ``lam = max(lam, theta)`` with ``theta = 1e-2``
            (:data:`_CARRY_FLOOR`) instead of the cold ``nu = 0``,
            ``s = max(d - J x, 1)``, ``lam = 1``.

    The IPM stops on ``max |residual| + mu < tolerance * scale``; a solve
    that runs out of iterations returns its last iterate.  Raises
    :class:`~repro.errors.SolverError` on non-finite or mis-shaped data
    (before any iteration) and when a factorization fails the whole
    regularization ladder.
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

    if opt.method == "admm":
        # Imported lazily: repro.firstorder imports this module's dataclasses,
        # so the dependency edge must not exist at import time.
        from repro.firstorder.admm import solve_qp_admm

        return solve_qp_admm(
            H, g, G, b, J, d, options=opt, deadline=deadline, warm=warm,
            fault_hook=fault_hook,
        )

    has_eq = G is not None and G.shape[0] > 0
    has_in = J is not None and J.shape[0] > 0
    p = G.shape[0] if has_eq else 0
    m = J.shape[0] if has_in else 0
    if has_eq and (b is None or b.shape != (p,)):
        raise SolverError("equality right-hand side b missing or mis-shaped")
    if has_in and (d is None or d.shape != (m,)):
        raise SolverError("inequality right-hand side d missing or mis-shaped")
    rows = None
    if warm is not None:
        nu, lam = np.asarray(warm["nu"]), np.asarray(warm["lam"])
        if nu.shape != (p,) or lam.shape != (m,):
            raise SolverError(
                f"IPM warm start has shapes {nu.shape}, {lam.shape}; "
                f"expected ({p},), ({m},)"
            )
        rows = {"nu": nu[None], "lam": lam[None], "carried": np.ones(1, bool)}

    # Imported lazily: repro.batch.qp imports this module.
    from repro.batch.qp import solve_qp_batch

    res = solve_qp_batch(
        H[None],
        g[None],
        G[None] if has_eq else None,
        b[None] if has_eq else None,
        J[None] if has_in else None,
        d[None] if has_in else None,
        opt,
        bandwidth=bandwidth,
        deadline=deadline,
        warm=rows,
        fault_hooks=None if fault_hook is None else [fault_hook],
    )
    stats = res.stats[0]
    if res.status[0] == "failed":
        # finite data, so a factorization failed: the whole ladder, or at
        # once on a non-finite input (which the ladder never retries)
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
    )
