"""Primal-dual interior-point solver for convex quadratic programs.

This is the inner solver of the RoboX pipeline, playing the role HPMPC plays
in the paper's CPU baseline (§VIII-A): each SQP linearization of the MPC
problem yields the convex QP

    min  1/2 x^T H x + g^T x
    s.t. G x  = b                      (equalities)
         J x <= d                      (inequalities)

solved here with a Mehrotra predictor-corrector interior-point method.  The
Newton system of the paper's Eq. 6 is condensed by eliminating slacks and
inequality multipliers, then solved with the from-scratch dense kernels of
:mod:`repro.mpc.linalg` or the LAPACK-tiled banded factor of
:mod:`repro.mpc.banded` — the factorization is computed once per iteration
and reused for the corrector.

Structure exploitation (the paper's central premise): when the caller hands
``solve_qp`` a ``bandwidth`` hint — the stage-interleaved ordering of
:meth:`repro.mpc.transcription.TranscribedProblem.stage_permutation` makes
the condensed matrix ``Phi = H + J^T W J`` banded — each iteration measures
the actual half-bandwidth of ``Phi`` (and of the Schur complement of the
equality rows) and factorizes in symmetric banded storage with
:class:`repro.mpc.banded.BandedCholeskyFactor`, turning the dense
``O(n^3)`` factorization into ``O(n b^2)``.  Regularization escalation and
the Schur-complement elimination are identical in both paths, so banded and
dense solves agree to roundoff; per-phase wall time and flop
counters are reported in :class:`QPStats` so benchmarks can compare measured
flops against the accelerator cost model.
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


def _robust_factor(
    A: np.ndarray,
    reg: float,
    band: Optional[int],
    stats: QPStats,
    fault_hook: Optional[object] = None,
) -> Tuple[object, float]:
    """Factorize ``A`` with geometric regularization escalation on failure.

    ``band`` selects the path: a half-bandwidth routes the factorization
    through the banded kernels (in :func:`to_banded` storage), ``None``
    uses the dense ones.  The escalation schedule is identical in both
    paths, so they produce the same factor up to roundoff for the same
    input.

    ``fault_hook`` is the solver-layer injection point of
    :mod:`repro.faults`: ``transform_matrix(A)`` may perturb the input
    (ill-conditioning campaigns) and ``force_failure()`` makes the next
    attempt fail as if the pivot had gone non-positive, exercising the
    retry ladder on demand.  Both are no-ops when the hook is ``None``.
    """
    if A.shape[0] and not np.all(np.isfinite(A)):
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
        A = transform(A)
    force_failure = getattr(fault_hook, "force_failure", None)
    t0 = perf_counter()
    if band is not None and A.shape[0]:
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
            caller's variable ordering.  When given, every iteration
            measures the actual bandwidth of ``Phi = H + J^T W J`` (and of
            the equality Schur complement) and routes each factorization
            through the banded kernels whenever the measurement is within
            the ceiling — ``None`` (the default) keeps the dense path.
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

    def timed_solve(factor, rhs):
        nrhs = 1 if rhs.ndim == 1 else rhs.shape[1]
        t0 = perf_counter()
        out = factor.solve(rhs)
        stats.substitute_time += perf_counter() - t0
        stats.substitute_flops += factor.solve_flops(nrhs)
        return out

    # Structural half-bandwidth of Phi = H + J^T W J, computed once: W is a
    # positive diagonal, so the nonzero pattern of J^T W J is contained in
    # that of |J|^T |J| for every iteration — entries can cancel to zero but
    # never appear outside this pattern.  Measuring the envelope up front
    # saves a full-matrix bandwidth scan per iteration and is lossless.
    phi_band: Optional[int] = None
    if bandwidth is not None:
        envelope = np.abs(H)
        if has_in:
            envelope = envelope + np.abs(J).T @ np.abs(J)
        struct_band = bandwidth_of(envelope)
        if struct_band <= bandwidth:
            phi_band = struct_band
            stats.phi_bandwidth = struct_band

    residual = float("inf")
    budget_exhausted = False
    for it in range(1, opt.max_iterations + 1):
        r_dual, r_eq, r_in, mu, residual = eval_residual(x, nu, lam, s)
        gap_history.append(mu)

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
        if has_in:
            # Clip the scaling so slack underflow cannot inject inf/NaN into
            # the factorization; beyond 1e16 the row is numerically "active".
            w = np.minimum(lam / np.maximum(s, 1e-300), 1e16)
            Phi = H + (J.T * w) @ J
        else:
            Phi = H
        phi_factor, _ = _robust_factor(
            Phi, opt.regularization, phi_band, stats, fault_hook
        )
        if has_eq:
            PhiInv_Gt = timed_solve(phi_factor, G.T)
            S = G @ PhiInv_Gt
            # The Schur complement of the stage-ordered dynamics rows is
            # block-tridiagonal; its bandwidth is measured per iteration
            # (cheap at p x p) because Phi^-1's block pattern can change
            # with the active set, and the measurement is always lossless.
            s_band: Optional[int] = None
            if bandwidth is not None:
                measured = bandwidth_of(S)
                if measured <= bandwidth:
                    s_band = measured
                    stats.schur_bandwidth = max(
                        stats.schur_bandwidth or 0, measured
                    )
            s_factor, _ = _robust_factor(
                S, opt.regularization, s_band, stats, fault_hook
            )
        else:
            PhiInv_Gt = None
            s_factor = None

        def saddle_solve(rhs1, re):
            """Solve the condensed saddle system via the Schur complement:

                [Phi  G^T] [dx ]   [rhs1]
                [G    0  ] [dnu] = [-re ]
            """
            PhiInv_r1 = timed_solve(phi_factor, rhs1)
            if not has_eq:
                return PhiInv_r1, np.zeros(0)
            dnu = timed_solve(s_factor, G @ PhiInv_r1 + re)
            dx = PhiInv_r1 - PhiInv_Gt @ dnu
            return dx, dnu

        def newton_step(rd, re, ri, rc):
            """Solve Eq. 6 for (dx, dnu, dlam, ds) given the residual stack."""
            if has_in:
                rhs1 = -(rd + J.T @ (w * ri - rc / np.maximum(s, 1e-300)))
            else:
                rhs1 = -rd
            dx, dnu = saddle_solve(rhs1, re)
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
        # keep the returned residual/iterate pair consistent.
        residual = eval_residual(x, nu, lam, s)[-1]

    if converged and opt.polish:
        polished = _polish(
            H, g, G, b, J, d, lam, s, residual,
            opt, bandwidth, stats, timed_solve,
        )
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


def _polish(
    H, g, G, b, J, d, lam, s, residual, opt, bandwidth, stats, timed_solve
):
    """Active-set polish of a converged barrier solution.

    Treats the inequality rows the barrier iteration ended on
    (``lam_i > s_i`` — at convergence ``s_i lam_i ~ 0`` makes the split
    decisive) as equalities and solves the resulting KKT system

        [H   E^T] [x]   [-g   ]
        [E   0  ] [y] = [rhs_e]     with  E = [G; J_active]

    via the same Schur-complement elimination as the main loop, plus one
    step of iterative refinement — the active-set system carries no barrier
    scaling ``W``, so ``eps * cond`` is small and refinement converges,
    recovering the solution well past the accuracy the barrier stalls at.
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
        h_band: Optional[int] = None
        if bandwidth is not None:
            measured = bandwidth_of(H)
            if measured <= bandwidth:
                h_band = measured
        h_factor, _ = _robust_factor(H, opt.regularization, h_band, stats)
        if q:
            HInv_Et = timed_solve(h_factor, E.T)
            S = E @ HInv_Et
            s_band: Optional[int] = None
            if bandwidth is not None:
                measured = bandwidth_of(S)
                if measured <= bandwidth:
                    s_band = measured
            s_factor, _ = _robust_factor(S, opt.regularization, s_band, stats)

        def saddle(r1, r2):
            t = timed_solve(h_factor, r1)
            if not q:
                return t, np.zeros(0)
            y = timed_solve(s_factor, E @ t - r2)
            return t - HInv_Et @ y, y

        x_p, y = saddle(-g, rhs_e)
        e1 = -g - H @ x_p - (E.T @ y if q else 0.0)
        e2 = rhs_e - E @ x_p if q else np.zeros(0)
        cx, cy = saddle(e1, e2)
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
    """Largest ``alpha <= 1`` keeping ``x + alpha dx >= (1 - tau) x``."""
    negative = dx < 0
    if not np.any(negative):
        return 1.0
    return float(min(1.0, np.min(-tau * x[negative] / dx[negative])))
