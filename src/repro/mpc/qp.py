"""Primal-dual interior-point solver for convex quadratic programs.

This is the inner solver of the RoboX pipeline, playing the role HPMPC plays
in the paper's CPU baseline (§VIII-A): each SQP linearization of the MPC
problem yields the convex QP

    min  1/2 x^T H x + g^T x
    s.t. G x  = b                      (equalities)
         J x <= d                      (inequalities)

solved here with a Mehrotra predictor-corrector interior-point method.  The
Newton system of the paper's Eq. 6 is condensed by eliminating slacks and
inequality multipliers to ``Phi = H + J^T W J`` and the Schur complement
``S = G Phi^-1 G^T`` of the equality rows, factored once per iteration and
reused for the corrector.

Structure exploitation (the paper's central premise): when the caller hands
``solve_qp`` a ``bandwidth`` hint — the stage-interleaved ordering of
:meth:`repro.mpc.transcription.TranscribedProblem.stage_permutation` — the
step runs stage by stage, as HPMPC does (:class:`_StageKKT`).  ``Phi`` is
block-diagonal over the stages (the block partition of its structural
envelope, read once per solve): its blocks are formed by one stacked
product and factored together by one block-mode
:class:`repro.mpc.banded.BandedCholeskyFactor` (``K`` small ``potrf``), and
``S`` is assembled from per-stage products in square-root form and
factored banded.  A diagonal ``Phi`` (band 0) keeps the diagonal factor
(:class:`_DiagKKT`).  Without the hint (:class:`_DenseKKT`) ``Phi`` is formed
whole and both factors are the from-scratch dense kernels of
:mod:`repro.mpc.linalg` — the oracle the stage step is checked against.
The regularization ladder is identical in both paths, so they agree to
roundoff; per-phase wall time and flop counters are reported in
:class:`QPStats` so benchmarks can compare measured flops against the
accelerator cost model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import List, Optional, Tuple

import numpy as np

from repro.codegen.stats import CodegenStats
from repro.errors import SolverError
from repro.mpc.banded import (
    BandedCholeskyFactor,
    bandwidth_of,
    block_partition,
    flop_counts_banded_cholesky,
    flop_counts_banded_substitution,
    to_banded,
)
from repro.mpc.linalg import (
    cholesky,
    cholesky_solve,
    flop_counts_cholesky,
    flop_counts_substitution,
    max_abs,
)

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


@dataclass
class QPOptions:
    """Parameters for the QP solvers (interior-point and first-order).

    ``method`` selects the solver family :func:`solve_qp` dispatches to:
    ``"ipm"`` (the Mehrotra predictor-corrector in this module — tight
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
    #: after convergence, re-solve the KKT equalities of the detected active
    #: set directly (one extra factorization pair plus an iterative-
    #: refinement step).  The barrier iteration stalls at an accuracy set by
    #: the ill-conditioned scaling W; the active-set system has no barrier
    #: scaling, so polishing recovers the solution to near machine precision
    #: — and makes banded- and dense-path solutions agree to ~1e-10 instead
    #: of the ~1e-5 trajectory-roundoff drift of two IPM runs.  The polished
    #: point is adopted only when it does not worsen the KKT residual.
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
    #: below the iteration's numerical floor (the cached factorization's
    #: diagonal regularization offsets the fixed point by ``~reg * |x|``,
    #: and the unscaling amplifies it).  Batched solves gate per lane.
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


class _DenseFactor:
    """Dense Cholesky factor with the flop-metering interface."""

    banded = False

    def __init__(self, A: np.ndarray, reg: float):
        self.n = A.shape[0]
        self.L = cholesky(A, reg=reg)
        # A finite L can still overflow inside the substitutions (a tiny
        # pivot under a huge one): one probe solve certifies the factor, so
        # the retry ladder escalates instead of solving to inf.
        with np.errstate(over="ignore", invalid="ignore"):
            probe = cholesky_solve(self.L, np.ones(self.n))
        if not np.all(np.isfinite(probe)):
            raise SolverError("dense cholesky: probe solve overflowed")
        self.factor_flops = sum(flop_counts_cholesky(self.n).values())

    def solve(self, b: np.ndarray) -> np.ndarray:
        return cholesky_solve(self.L, b)

    def solve_flops(self, nrhs: int) -> int:
        return 2 * sum(flop_counts_substitution(self.n, nrhs).values())


class _BandedFactor:
    """Blocked banded Cholesky factor with the flop-metering interface."""

    banded = True

    def __init__(self, B: np.ndarray, reg: float):
        self.n = B.shape[1]
        self.band = B.shape[0] - 1
        self.F = BandedCholeskyFactor(B, reg=reg)
        self.factor_flops = sum(
            flop_counts_banded_cholesky(self.n, self.band).values()
        )

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self.F.solve(b)

    def solve_flops(self, nrhs: int) -> int:
        return 2 * sum(
            flop_counts_banded_substitution(self.n, self.band, nrhs).values()
        )


class _StageFactor:
    """``Phi``'s stage blocks factored as one stack (a block-mode
    :class:`BandedCholeskyFactor`), metered as one dense Cholesky and one
    triangular solve per block."""

    banded = True

    def __init__(self, blocks: np.ndarray, reg: float, factor_flops: int):
        self.F = BandedCholeskyFactor(blocks, reg=reg)
        self.factor_flops = factor_flops


def _robust_factor(
    A: np.ndarray,
    reg: float,
    band: Optional[int],
    stats: QPStats,
    fault_hook: Optional[object] = None,
    stage: Optional["_StageKKT"] = None,
) -> Tuple[object, float]:
    """Factorize ``A`` with geometric regularization escalation on failure.

    ``band`` selects the path: a half-bandwidth routes the factorization
    through the banded kernels (in :func:`to_banded` storage), ``None``
    uses the dense ones.  ``stage`` marks ``A`` as the ``(K, s, s)`` stack
    of ``Phi``'s stage blocks, factored as one stack.  The escalation
    schedule is identical in every path: one regularization for the whole
    matrix, raised x100 after each failed attempt.

    ``fault_hook`` is the solver-layer injection point of
    :mod:`repro.faults`: ``transform_matrix(A)`` may perturb the input
    (ill-conditioning campaigns; a stage stack is shown to it as the
    ``n x n`` block-diagonal matrix it stands for, so a congruence scaling
    of one index lands in that index's block) and ``force_failure()`` makes
    the next attempt fail as if the pivot had gone non-positive, exercising
    the retry ladder on demand.  Both are no-ops when the hook is ``None``.
    """
    if A.size and not np.all(np.isfinite(A)):
        # Regularization cannot fix NaN/Inf — fail fast with a clear cause
        # instead of burning all 16 retries on a poisoned matrix.
        raise SolverError(
            "factorization input contains non-finite entries "
            "(upstream iterate or constraint data is poisoned)"
        )
    # Duck-typed hook protocol: a hook may implement any subset of
    # transform_matrix / force_failure (/ transform_qp, force_stall).
    transform = getattr(fault_hook, "transform_matrix", None)
    if transform is not None:
        A = transform(A) if stage is None else stage.transform(transform, A)
    force_failure = getattr(fault_hook, "force_failure", None)
    t0 = perf_counter()
    if stage is not None:
        make = lambda r: _StageFactor(A, r, stage.factor_flops)  # noqa: E731
    elif band is not None and A.shape[0]:
        B = to_banded(A, band)
        make = lambda r: _BandedFactor(B, r)  # noqa: E731
    else:
        make = lambda r: _DenseFactor(A, r)  # noqa: E731
    current = reg
    for _ in range(16):
        try:
            if force_failure is not None and force_failure():
                raise SolverError("injected factorization failure")
            factor = make(current)
        except SolverError:
            stats.retries += 1
            current = max(current * 100.0, 1e-12)
            continue
        stats.factorizations += 1
        if factor.banded:
            stats.banded_factorizations += 1
        stats.factor_flops += factor.factor_flops
        stats.factorize_time += perf_counter() - t0
        stats.regularization_max = max(stats.regularization_max, current)
        return factor, current
    raise SolverError(
        f"matrix could not be factorized even with regularization {current:.1e}"
    )


def _timed_solve(stats: QPStats, factor, rhs: np.ndarray) -> np.ndarray:
    """``factor.solve(rhs)``, metered into ``stats``."""
    nrhs = 1 if rhs.ndim == 1 else rhs.shape[1]
    t0 = perf_counter()
    out = factor.solve(rhs)
    stats.substitute_time += perf_counter() - t0
    stats.substitute_flops += factor.solve_flops(nrhs)
    return out


class _DenseKKT:
    """The condensed Newton step with ``Phi = H + J^T W J`` formed whole and
    factored by the from-scratch dense kernels — the oracle path
    (``bandwidth=None``).

    :meth:`factor` takes the iteration's scaling ``w`` (``None`` without
    inequalities) and factors ``Phi`` and the Schur complement
    ``S = G Phi^-1 G^T``; :meth:`solve` then answers the saddle system

        [Phi  G^T] [dx ]   [rhs1]
        [G    0  ] [dnu] = [-re ]

    as often as the predictor and corrector ask.
    """

    def __init__(self, H, G, J, reg, stats, fault_hook):
        self.H, self.G, self.J = H, G, J
        self.reg, self.stats, self.hook = reg, stats, fault_hook

    def factor(self, w: Optional[np.ndarray]) -> None:
        Phi = self.H if w is None else self.H + (self.J.T * w) @ self.J
        self.phi, _ = _robust_factor(Phi, self.reg, None, self.stats, self.hook)
        if self.G is not None:
            self.PhiInv_Gt = _timed_solve(self.stats, self.phi, self.G.T)
            self.schur, _ = _robust_factor(
                self.G @ self.PhiInv_Gt, self.reg, None, self.stats, self.hook
            )

    def solve(self, rhs1: np.ndarray, re: np.ndarray):
        t = _timed_solve(self.stats, self.phi, rhs1)
        if self.G is None:
            return t, np.zeros(0)
        dnu = _timed_solve(self.stats, self.schur, self.G @ t + re)
        return t - self.PhiInv_Gt @ dnu, dnu


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
    the batched stage step (:mod:`repro.batch.qp`, whose array code takes no
    bare numpy) runs this step's scatter-adds over
    :attr:`_StageLayout.pairs` / ``.grows`` in the same term order.
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
    structural band of ``S`` and the per-block flop meters."""

    real: np.ndarray
    cols: np.ndarray
    jrows: Optional[np.ndarray]
    grows: Optional[np.ndarray]
    pairs: Optional[np.ndarray]
    schur_band: int
    factor_flops: int
    tri_flops: int


def _stage_layout(n: int, G, J, bounds: np.ndarray) -> _StageLayout:
    """The :class:`_StageLayout` of the partition ``bounds`` of an ``n``
    variable problem with equality rows ``G`` and inequality rows ``J``
    (their nonzero patterns are what is read; ``None`` for none)."""
    # Metered as one dense Cholesky / triangular solve per block of the
    # partition — the algorithm's work, whatever the stacking below.
    widths, counts = np.unique(np.diff(bounds), return_counts=True)
    factor_flops = tri_flops = 0
    for k, count in zip(widths.tolist(), counts.tolist()):
        factor_flops += count * sum(flop_counts_cholesky(k).values())
        tri_flops += count * sum(flop_counts_substitution(k).values())
    # Pack runs of neighbouring blocks up to the widest one: the stack
    # is padded to that width anyway, and a stage's lone pinned states
    # would otherwise each cost a full-width potrf and inverse.
    widest = int(widths[-1])
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
        real, cols, jrows, grows, pairs, schur_band, factor_flops, tri_flops
    )


def _diag_schur_band(G: np.ndarray) -> int:
    """Structural band of ``S = G D G^T`` for a diagonal ``D``."""
    return bandwidth_of(np.abs(G) @ np.abs(G).T)


class _StageKKT:
    """The condensed Newton step over ``Phi``'s stage blocks (the hinted
    path); the same :meth:`factor` / :meth:`solve` contract as
    :class:`_DenseKKT`.

    ``bounds`` is the block partition of the structural envelope
    ``|H| + |J|^T |J|`` (:func:`repro.mpc.banded.block_partition`), read
    once per solve: ``W`` is a positive diagonal, so ``Phi`` is
    block-diagonal over it at every iteration, each row of ``J`` lies in one
    block and each row of ``G`` touches a few.  Neighbouring blocks are
    packed into ``K`` runs no wider than the widest block, ``s``, each
    padded to ``s`` (identity on the pad), and everything the iteration
    needs is gathered once per solve (:func:`_stage_layout`): ``H``'s
    blocks, each block's ``J`` rows ``(K, r, s)`` and the transposed ``G``
    rows touching it ``(K, s, q)``.  Per iteration ``Phi``'s blocks are one
    stacked ``J_k^T W_k J_k`` product, factored by one block-mode
    :class:`BandedCholeskyFactor`.
    ``S = sum_k V_k^T V_k`` with ``V_k = L_k^-1 G_k^T`` is the square-root
    form — exactly symmetric and PSD — scatter-added over each block's
    ``G`` rows and factored banded at its structural band (read once, from
    which rows share a block) when that is within the hint.  The step is
    ``dnu = S^-1 (V^T L^-1 rhs1 + re)``, ``dx = Phi^-1 (rhs1 - G^T dnu)``:
    no ``n x n`` product, no ``Phi^-1 G^T``.
    """

    def __init__(self, H, G, J, bounds, bandwidth, reg, stats, fault_hook):
        self.reg, self.stats, self.hook = reg, stats, fault_hook
        n = self.n = H.shape[0]
        layout = _stage_layout(n, G, J, bounds)
        self.factor_flops = layout.factor_flops
        self.tri_flops = layout.tri_flops
        self.real, self.cols = layout.real, layout.cols
        self.block_H = self.blocks_of(H)
        self.J = None
        if J is not None:
            self.jrows = layout.jrows
            self.J = _padded(J)[self.jrows[:, :, None], self.cols[:, None, :]]
            self.Jt = np.swapaxes(self.J, 1, 2)
        self.G = None
        if G is not None:
            self.p = G.shape[0]
            self.grows = layout.grows
            self.G = _padded(G)[self.grows[:, None, :], self.cols[:, :, None]]
            self.pairs = layout.pairs
            self._schur_band(layout.schur_band, bandwidth)

    def _schur_band(self, band: int, bandwidth: int) -> None:
        """S is factored banded at its structural ``band`` when that is
        within the hint, densely otherwise."""
        self.s_band = band if band <= bandwidth else None
        if self.s_band is not None:
            self.stats.schur_bandwidth = max(
                self.stats.schur_bandwidth or 0, band
            )

    # -- block layout ----------------------------------------------------------
    def blocks_of(self, A: np.ndarray) -> np.ndarray:
        """The ``(K, s, s)`` diagonal blocks of an ``n x n`` matrix."""
        out = _padded(A)[self.cols[:, :, None], self.cols[:, None, :]]
        d = np.arange(self.cols.shape[1])
        out[:, d, d] += ~self.real
        return out

    def transform(self, fn, blocks: np.ndarray) -> np.ndarray:
        """Apply a fault hook's ``transform_matrix`` to a stage stack: it
        sees the ``n x n`` block-diagonal matrix, and its result's diagonal
        blocks come back."""
        n = self.n
        dense = np.zeros((n + 1, n + 1))
        dense[self.cols[:, :, None], self.cols[:, None, :]] = blocks
        return self.blocks_of(fn(dense[:n, :n]))

    def _gather(self, v: np.ndarray) -> np.ndarray:
        return np.append(v, 0.0)[self.cols]

    def _apply(self, op, b: np.ndarray, nrhs: int) -> np.ndarray:
        t0 = perf_counter()
        out = op(b)
        self.stats.substitute_time += perf_counter() - t0
        self.stats.substitute_flops += nrhs * self.tri_flops
        return out

    # -- the step --------------------------------------------------------------
    def factor(self, w: Optional[np.ndarray]) -> None:
        Phi = self.block_H
        if w is not None:
            wk = np.append(w, 0.0)[self.jrows]
            Phi = Phi + np.matmul(self.Jt * wk[:, None, :], self.J)
        self.phi, _ = _robust_factor(
            Phi, self.reg, None, self.stats, self.hook, stage=self
        )
        if self.G is not None:
            self.V = self._apply(self.phi.F.forward, self.G, self.G.shape[2])
            W = np.matmul(np.swapaxes(self.V, 1, 2), self.V)
            p = self.p
            S = np.bincount(self.pairs, W.ravel(), p * p + 1)
            S = S[: p * p].reshape(p, p)
            self.schur, _ = _robust_factor(
                0.5 * (S + S.T), self.reg, self.s_band, self.stats, self.hook
            )

    def solve(self, rhs1: np.ndarray, re: np.ndarray):
        F, r1 = self.phi.F, self._gather(rhs1)
        if self.G is None:
            return self._apply(F.solve, r1, 2)[self.real], np.zeros(0)
        y = self._apply(F.forward, r1, 1)
        Vty = np.matmul(y[:, None, :], self.V)[:, 0, :]
        GPhiInv_r1 = np.bincount(self.grows.ravel(), Vty.ravel(), self.p + 1)
        dnu = _timed_solve(self.stats, self.schur, GPhiInv_r1[: self.p] + re)
        Gt_dnu = np.matmul(self.G, np.append(dnu, 0.0)[self.grows][:, :, None])
        dx = self._apply(F.solve, r1 - Gt_dnu[:, :, 0], 2)
        return dx[self.real], dnu


class _DiagKKT(_StageKKT):
    """The hinted step when ``Phi`` is diagonal (an envelope of band 0):
    every stage block is one entry, so the per-block gathers would cost
    more than they save.  ``diag(Phi) = diag(H) + (J * J)^T w`` — no
    ``n x n`` product — is factored by :func:`block_cholesky`'s ``1 x 1``
    blocks, the diagonal factor, and ``S = V^T V`` with
    ``V = diag(Phi)^-1/2 G^T`` is factored banded at the structural band
    of ``|G| |G|^T``."""

    def __init__(self, H, G, J, bandwidth, reg, stats, fault_hook):
        self.reg, self.stats, self.hook = reg, stats, fault_hook
        n = self.n = H.shape[0]
        self.diag_H = np.diagonal(H)
        self.J2t = None if J is None else (J * J).T
        self.factor_flops = n * sum(flop_counts_cholesky(1).values())
        self.tri_flops = n * sum(flop_counts_substitution(1).values())
        self.G = G
        if G is not None:
            self._schur_band(_diag_schur_band(G), bandwidth)

    def transform(self, fn, blocks: np.ndarray) -> np.ndarray:
        return np.diagonal(fn(np.diag(blocks[:, 0, 0])))[:, None, None]

    def factor(self, w: Optional[np.ndarray]) -> None:
        d = self.diag_H if w is None else self.diag_H + self.J2t @ w
        self.phi, _ = _robust_factor(
            d[:, None, None], self.reg, None, self.stats, self.hook, stage=self
        )
        if self.G is not None:
            Gt = self.G.T[:, None, :]
            V = self.V = self._apply(self.phi.F.forward, Gt, Gt.shape[2])[:, 0]
            S = V.T @ V
            self.schur, _ = _robust_factor(
                0.5 * (S + S.T), self.reg, self.s_band, self.stats, self.hook
            )

    def solve(self, rhs1: np.ndarray, re: np.ndarray):
        F = self.phi.F
        if self.G is None:
            return self._apply(F.solve, rhs1[:, None], 2)[:, 0], np.zeros(0)
        y = self._apply(F.forward, rhs1[:, None], 1)[:, 0]
        dnu = _timed_solve(self.stats, self.schur, self.V.T @ y + re)
        dx = self._apply(F.solve, (rhs1 - self.G.T @ dnu)[:, None], 2)
        return dx[:, 0], dnu


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
    """Solve a convex QP (Mehrotra predictor-corrector IPM, or ADMM).

    Args:
        H: PSD Hessian (n x n); a small regularization is added internally.
        g: linear objective term (n,).
        G, b: equality constraints ``G x = b`` (pass ``None`` for none).
        J, d: inequality constraints ``J x <= d`` (pass ``None`` for none).
        bandwidth: half-bandwidth ceiling of the condensed system in the
            caller's stage-interleaved variable ordering.  When given, the
            Newton step runs over the stage blocks of ``Phi = H + J^T W J``
            read from its structural envelope once per solve
            (:class:`_StageKKT`), and the equality Schur complement is
            factored banded when its structural band is within the ceiling
            — ``None`` (the default) keeps the dense path.  The returned
            iterate of a solve that runs out of iterations is the best one
            it evaluated.
        deadline: absolute ``time.perf_counter`` wall-clock deadline.  The
            iteration loop stops at the first iteration top past the
            deadline (``budget_exhausted=True`` on the result), so the
            overrun is bounded by one factorize/substitute round; the
            returned iterate and residual stay consistent.
        fault_hook: optional :mod:`repro.faults` solver-layer injector; every
            main-loop factorization consults it (see :func:`_robust_factor`).
        warm: solver-internal warm start returned by a previous solve's
            ``QPResult.warm`` (ADMM method only; ignored by the IPM, whose
            central-path iteration starts from its own strictly interior
            point).
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

    # illcond_qp campaigns perturb the problem *data* (not just the
    # factorization input), so the solver sees a genuinely ill-conditioned
    # QP.  Optional on the hook; the ADMM lane consults it in its set-up.
    transform_qp = getattr(fault_hook, "transform_qp", None)
    if transform_qp is not None:
        H = transform_qp(H)

    has_eq = G is not None and G.shape[0] > 0
    has_in = J is not None and J.shape[0] > 0
    p = G.shape[0] if has_eq else 0
    m = J.shape[0] if has_in else 0
    if has_eq and (b is None or b.shape != (p,)):
        raise SolverError("equality right-hand side b missing or mis-shaped")
    if has_in and (d is None or d.shape != (m,)):
        raise SolverError("inequality right-hand side d missing or mis-shaped")

    x = np.zeros(n)
    nu = np.zeros(p)
    if has_in:
        s = np.maximum(1.0, d - J @ x)
        lam = np.ones(m)
    else:
        s = np.zeros(0)
        lam = np.zeros(0)

    gap_history: List[float] = []
    stats = QPStats()
    converged = False
    it = 0
    # Relative-tolerance scale, capped so a single huge coefficient (e.g.
    # the L1 soft-constraint penalty in the extended SQP subproblems) cannot
    # loosen the stopping test by orders of magnitude.
    scale = 1.0 + min(
        max(
            float(np.max(np.abs(g))),
            float(np.max(np.abs(b))) if has_eq else 0.0,
            float(np.max(np.abs(d))) if has_in else 0.0,
        ),
        100.0,
    )

    def eval_residual(x, nu, lam, s):
        r_dual = H @ x + g
        if has_eq:
            r_dual = r_dual + G.T @ nu
        if has_in:
            r_dual = r_dual + J.T @ lam
        r_eq = (G @ x - b) if has_eq else np.zeros(0)
        r_in = (J @ x + s - d) if has_in else np.zeros(0)
        mu = float(s @ lam) / m if m else 0.0
        residual = max(max_abs(r_dual), max_abs(r_eq), max_abs(r_in), mu)
        return r_dual, r_eq, r_in, mu, residual

    def make_kkt(eq_rows, in_rows, hook):
        reg = opt.regularization
        if bandwidth is None:
            return _DenseKKT(H, eq_rows, in_rows, reg, stats, hook)
        bounds, band = block_partition(H, in_rows)
        stats.phi_bandwidth = max(stats.phi_bandwidth or 0, band)
        if band == 0:
            return _DiagKKT(H, eq_rows, in_rows, bandwidth, reg, stats, hook)
        return _StageKKT(
            H, eq_rows, in_rows, bounds, bandwidth, reg, stats, hook
        )

    kkt = make_kkt(G if has_eq else None, J if has_in else None, fault_hook)

    residual = float("inf")
    budget_exhausted = False
    best = (residual, x, nu, lam, s)
    for it in range(1, opt.max_iterations + 1):
        r_dual, r_eq, r_in, mu, residual = eval_residual(x, nu, lam, s)
        gap_history.append(mu)
        if residual < best[0]:
            best = (residual, x, nu, lam, s)

        if residual < opt.tolerance * scale:
            converged = True
            break
        # Divergence guard: an infeasible subproblem drives the inequality
        # multipliers to infinity; bail out with the current iterate — the
        # reported residual was evaluated at exactly this (x, nu, lam, s),
        # so the outer solver's merit line search sees a consistent pair.
        # A non-finite residual (poisoned iterate) bails out regardless of
        # whether inequality rows exist.
        if not np.isfinite(residual) or (
            m and float(np.max(lam)) > 1e14 * scale
        ):
            break
        # Deadline guard: stop before starting another factorization round.
        # The residual above was evaluated at exactly this iterate, so the
        # returned pair is consistent; ``it - 1`` iterations did real work.
        if deadline is not None and perf_counter() >= deadline:
            budget_exhausted = True
            it -= 1
            break

        # -- factorize the condensed system once per iteration -------------------
        # Clip the scaling so slack underflow cannot inject inf/NaN into the
        # factorization; beyond 1e16 the row is numerically "active".
        w = np.minimum(lam / np.maximum(s, 1e-300), 1e16) if has_in else None
        kkt.factor(w)

        def newton_step(rd, re, ri, rc):
            """Solve Eq. 6 for (dx, dnu, dlam, ds) given the residual stack."""
            if has_in:
                rhs1 = -(rd + J.T @ (w * ri - rc / np.maximum(s, 1e-300)))
            else:
                rhs1 = -rd
            dx, dnu = kkt.solve(rhs1, re)
            if has_in:
                ds = -ri - J @ dx
                dlam = (-rc - lam * ds) / np.maximum(s, 1e-300)
            else:
                ds = np.zeros(0)
                dlam = np.zeros(0)
            return dx, dnu, dlam, ds

        # -- predictor (affine) step ------------------------------------------------
        rc_aff = s * lam if has_in else np.zeros(0)
        dx_a, dnu_a, dlam_a, ds_a = newton_step(r_dual, r_eq, r_in, rc_aff)

        if has_in:
            alpha_p_aff = _max_step(s, ds_a, 1.0)
            alpha_d_aff = _max_step(lam, dlam_a, 1.0)
            mu_aff = float(
                (s + alpha_p_aff * ds_a) @ (lam + alpha_d_aff * dlam_a)
            ) / m
            sigma = (mu_aff / mu) ** 3 if mu > 0 else 0.0
            # -- corrector: recenter + second-order complementarity term ------------
            rc = s * lam + ds_a * dlam_a - sigma * mu
            dx, dnu, dlam, ds = newton_step(r_dual, r_eq, r_in, rc)
            alpha_p = opt.tau * _max_step(s, ds, 1.0)
            alpha_d = opt.tau * _max_step(lam, dlam, 1.0)
            alpha_p = min(1.0, alpha_p)
            alpha_d = min(1.0, alpha_d)
        else:
            dx, dnu, dlam, ds = dx_a, dnu_a, dlam_a, ds_a
            alpha_p = alpha_d = 1.0

        x = x + alpha_p * dx
        nu = nu + alpha_d * dnu
        if has_in:
            s = s + alpha_p * ds
            lam = lam + alpha_d * dlam
    else:
        # Iteration budget exhausted: the loop body updated the iterate one
        # last time after the final residual evaluation, so re-evaluate to
        # keep the returned residual/iterate pair consistent.  Near a
        # degenerate optimum the end-game oscillates (W's 1e16 range leaves
        # the condensed dual step accurate to ~|dx| only), so hand back the
        # best iterate evaluated, with its own residual, if the last is not.
        residual = eval_residual(x, nu, lam, s)[-1]
        if best[0] < residual:
            residual, x, nu, lam, s = best

    if converged and opt.polish:
        polished = _polish(H, g, G, b, J, d, lam, s, residual, make_kkt)
        if polished is not None:
            x, nu, lam, s, residual = polished

    if stats.factorizations:
        if stats.banded_factorizations == stats.factorizations:
            stats.mode = "banded"
        elif stats.banded_factorizations:
            stats.mode = "mixed"

    return QPResult(
        x=x,
        nu=nu,
        lam=lam,
        slacks=s,
        converged=converged,
        iterations=it,
        residual=residual,
        gap_history=gap_history,
        stats=stats,
        budget_exhausted=budget_exhausted,
    )


def _polish(H, g, G, b, J, d, lam, s, residual, make_kkt):
    """Active-set polish of a converged barrier solution.

    Treats the inequality rows the barrier iteration ended on
    (``lam_i > s_i`` — at convergence ``s_i lam_i ~ 0`` makes the split
    decisive) as equalities and solves the resulting KKT system

        [H   E^T] [x]   [-g   ]
        [E   0  ] [y] = [rhs_e]     with  E = [G; J_active]

    through the main loop's kind of KKT step (``make_kkt(E, None, None)``:
    ``Phi = H`` over its own block partition, ``E`` as the equality rows),
    plus one step of iterative refinement — the active-set system carries
    no barrier scaling ``W``, so ``eps * cond`` is small and refinement
    converges, recovering the solution well past the accuracy the barrier
    stalls at.
    Returns the polished ``(x, nu, lam, s, residual)``, or ``None`` when the
    polish did not improve the KKT residual (e.g. a degenerate active set
    forced heavy regularization of the Schur complement).
    """
    has_eq = G is not None and G.shape[0] > 0
    has_in = J is not None and J.shape[0] > 0
    if not has_in:
        return None  # the equality-constrained case is already direct
    m = J.shape[0]
    p = G.shape[0] if has_eq else 0
    active = lam > s
    rows = [G] if has_eq else []
    rhs_rows = [b] if has_eq else []
    if np.any(active):
        rows.append(J[active])
        rhs_rows.append(d[active])
    q = sum(r.shape[0] for r in rows)
    E = np.vstack(rows) if q else None
    rhs_e = np.concatenate(rhs_rows) if q else np.zeros(0)

    try:
        kkt = make_kkt(E, None, None)
        kkt.factor(None)
        x_p, y = kkt.solve(-g, -rhs_e)
        e1 = -g - H @ x_p - (E.T @ y if q else 0.0)
        e2 = rhs_e - E @ x_p if q else np.zeros(0)
        cx, cy = kkt.solve(e1, -e2)
        x_p = x_p + cx
        y = y + cy
    except SolverError:
        return None

    nu_p = y[:p]
    lam_p = np.zeros(m)
    lam_p[active] = y[p:]
    s_p = d - J @ x_p
    r_dual = H @ x_p + g + J.T @ lam_p
    if has_eq:
        r_dual = r_dual + G.T @ nu_p
    res_p = max(
        max_abs(r_dual),
        max_abs(G @ x_p - b) if has_eq else 0.0,
        float(np.max(np.maximum(-s_p, 0.0))),  # primal inequality violation
        float(np.max(np.maximum(-lam_p, 0.0))),  # dual feasibility
        float(abs(s_p @ lam_p)) / m,  # complementarity, as the loop's mu
    )
    if not np.isfinite(res_p) or res_p > residual:
        return None
    return x_p, nu_p, np.maximum(lam_p, 0.0), np.maximum(s_p, 0.0), res_p


def _max_step(x: np.ndarray, dx: np.ndarray, tau: float) -> float:
    """Largest ``alpha <= 1`` keeping ``x + alpha dx >= (1 - tau) x``.

    Only components whose full step crosses the boundary (``dx < -tau x``)
    are divided: every other ratio is ``>= 1`` and cannot bind, and a tiny
    ``dx`` there (a subnormal) would overflow the division.
    """
    t = -tau * x
    cross = (dx < t) & (dx < 0)
    if not np.any(cross):
        return 1.0
    return float(min(1.0, np.min(t[cross] / dx[cross])))
