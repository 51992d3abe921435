"""The registry of comparable numeric paths and the shared case context.

Every registered :class:`NumericPath` computes the *same* mathematical
object as the other members of its family, through a different
implementation:

``qp`` family — solve the case's first SQP subproblem (the extended,
stage-permuted QP produced by :meth:`InteriorPointSolver.first_qp_subproblem`):

* ``dense_kkt`` (baseline): Mehrotra predictor-corrector IPM, dense
  factorizations.
* ``banded_kkt``: same IPM routed through the stage-interleaved banded
  kernels (PR 1's hot path).  Both end with an active-set polish through
  their own KKT step (:func:`_kkt_polish`).
* ``reference_qp``: the independent dense log-barrier method from
  :mod:`repro.baselines.reference_solver` — a different *algorithm*, so
  agreement is meaningful.

``dynamics`` family — evaluate the discretized step function at a random
point near the benchmark's operating state:

* ``float_dynamics`` (baseline): the compiled double-precision step.
* ``accel_sim``: the same expressions translated/mapped/assembled onto the
  accelerator and executed by the cycle simulator in fixed point (width
  configurable via :class:`FixedPointFormat`).
* ``dsl_dynamics``: the DSL-compiled twin model (MobileRobot, Quadrotor)
  discretized identically — the frontend-vs-handwritten cross-check.

``linearize`` family — evaluate the full SQP linearize block (objective,
gradient, Gauss-Newton blocks, both constraint stacks and Jacobians) at a
seeded point near the case's initial guess:

* ``interp_linearize`` (baseline): interpreted *evaluation* — every stage
  function called knot by knot on Python floats (codegen ``off``).
* ``codegen_linearize``: the ahead-of-time fused kernel path
  (:mod:`repro.codegen`, mode ``on``); the C kernel is bit-identical to
  the baseline, and on a compiler-less host the path notes that the
  comparison is trivial.

Both paths place what they evaluated through the one shared assembler
(:mod:`repro.linearize`), so this family is differential in the *kernels*
(emission, CSE, libm, operation order), not in the scatter; the scatter's
own oracle is finite differences (``tests/test_linearize_scatter.py``).

``padded`` family — solve the case's full MPC problem to convergence (the
KKT test's reach: both paths switch the control-grade stop off, which
leaves the tail of a plan wherever ``u_0`` settled):

* ``native_horizon`` (baseline): scalar SQP solve at the case's own
  horizon.
* ``padded_horizon``: the same problem embedded in a longer serve2
  horizon bucket via the gate-reference padding of
  :mod:`repro.serve2.padding`, solved there, and cropped back — the
  correctness cornerstone of serve2's continuous batching, checked
  against the ledger per robot.

Paths never see each other's outputs; the runner compares each path against
its family baseline through the tolerance ledger.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as dc_replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.accelerator.fixedpoint import FixedPointFormat, Q14_17
from repro.baselines.reference_solver import (
    reference_qp_objective,
    reference_solve_qp,
)
from repro.batch.contract import QPOptions
from repro.conform.cases import ConformanceCase
from repro.conform.ledger import relative_error
from repro.errors import BaselineError, ConformanceError
from repro.mpc.qp import solve_qp
from repro.mpc.task import Task
from repro.mpc.transcription import TranscribedProblem
from repro.robots.registry import build_benchmark

__all__ = [
    "CaseContext",
    "PathOutput",
    "NumericPath",
    "PATHS",
    "FAMILY_BASELINES",
    "path_names",
    "get_path",
    "supported_paths",
    "compare_outputs",
]

#: Paths with DSL twins (the only benchmarks with a maintained DSL source
#: that compiles to the same model).
_DSL_TWINS = ("MobileRobot", "Quadrotor")

# The DSL toolchain compiles + transcribes a twin per robot; cache it —
# the twin is immutable and identical across cases.
_TWIN_CACHE: Dict[str, TranscribedProblem] = {}


class CaseContext:
    """Everything the paths of one case share, built once per case.

    Deterministic in ``case``: all randomness flows from
    ``default_rng(case.seed)`` in a fixed draw order.
    """

    def __init__(self, case: ConformanceCase, fmt: FixedPointFormat = Q14_17):
        self.case = case
        self.fmt = fmt
        bench = build_benchmark(case.robot)
        self.bench = bench
        rng = np.random.default_rng(case.seed)

        task = bench.task
        if case.weight_scale != 1.0 or case.drop_constraints:
            task = Task(
                task.name,
                task.model,
                tuple(
                    dc_replace(p, weight=p.weight * case.weight_scale)
                    for p in task.penalties
                ),
                () if case.drop_constraints else task.constraints,
                task.references,
                task.meta,
            )
        self.problem = TranscribedProblem(
            bench.model, task, horizon=case.horizon, dt=bench.dt
        )

        x0 = np.asarray(bench.x0, dtype=float).copy()
        if case.x0_scale:
            x0 = x0 + case.x0_scale * rng.standard_normal(x0.shape) * (
                1.0 + np.abs(x0)
            )
        self.x0 = x0

        ref = np.asarray(bench.ref, dtype=float).copy()
        if ref.size and case.ref_scale:
            ref = ref + case.ref_scale * rng.standard_normal(ref.shape) * (
                1.0 + np.abs(ref)
            )
        self.ref = ref

        z_warm = None
        if case.warm:
            z_warm = self.problem.initial_guess(x0)
            z_warm = z_warm + 0.02 * rng.standard_normal(
                z_warm.shape
            ) * self.problem.variable_scales()
        self.z_warm = z_warm

        self.solver = bench.make_solver(self.problem)
        self.qp_args, self.qperm = self.solver.first_qp_subproblem(
            x0, ref, z_warm=z_warm
        )
        # Cold-start subproblems are hard QPs; iteration headroom mirrors
        # the banded/dense equivalence tests, and the IPM paths end with
        # the oracle polish (_kkt_polish).  Conformance runs at 1e-6, a
        # tolerance every implementation reaches robustly on the randomized
        # instances — at 1e-8 the banded factorization stalls on occasional
        # ill-conditioned draws, which is a *robustness* envelope (owned by
        # the curated equivalence tests), not a correctness disagreement.
        self.qp_options = dc_replace(
            self.solver.options.qp,
            polish=False,
            max_iterations=400,
            tolerance=1e-6,
        )

        # Dynamics evaluation point: named values for every model variable,
        # near the operating state (far-field points amplify fixed-point
        # quantization into meaningless comparisons).
        point: Dict[str, float] = {}
        for i, name in enumerate(bench.model.state_names):
            point[name] = float(
                x0[i] + 0.05 * rng.standard_normal() * (1.0 + abs(x0[i]))
            )
        for name in bench.model.input_names:
            point[name] = float(0.1 + 0.05 * rng.standard_normal())
        self.dyn_point = point


@dataclass
class PathOutput:
    """What one path produced for one case."""

    values: np.ndarray
    converged: bool = True
    note: str = ""
    detail: dict = field(default_factory=dict)


@dataclass(frozen=True)
class NumericPath:
    """A registered implementation of one family's computation."""

    name: str
    family: str  # "qp" | "dynamics"
    description: str
    run: Callable[[CaseContext], PathOutput]
    supports: Callable[[ConformanceCase], bool] = lambda case: True
    baseline: bool = False


# ---------------------------------------------------------------------------
# qp family
# ---------------------------------------------------------------------------
def _kkt_polish(H, g, G, b, J, d, res, bandwidth, reg):
    """The IPM paths' oracle polish: the rows a converged solve ``res``
    ends on with ``lam > s`` are made equalities and the KKT system

        [H   E^T] [x]   [-g   ]
        [E   0  ] [y] = [rhs_e]     with  E = [G; J_active]

    is solved through the path's own lane step (``Phi = H`` over its own
    block partition with a ``bandwidth``, whole without one; ``E`` as the
    equality rows), plus one step of iterative refinement.  The runtime
    polish (``QPOptions.polish``,
    :func:`repro.firstorder.admm._polish_qp`) solves that system densely,
    whatever the path, so it would take a wrong Newton step's iterate to
    the right answer: this one keeps each path's factorizations in the
    comparison.  Returns the polished ``(x, nu)``, or ``res``'s when the
    polish does not lower the KKT residual.
    """
    from repro.batch.backend import HOST
    from repro.batch.qp import _lane_kkt, _lane_rows, _LaneMeters

    if J is None or not J.shape[0]:
        return res.x, res.nu  # the equality-constrained case is direct
    n, m = g.shape[0], J.shape[0]
    active = res.lam > res.slacks
    E = np.vstack(([] if G is None else [G]) + [J[active]])
    rhs_e = np.concatenate(([] if b is None else [b]) + [d[active]])
    if not E.shape[0]:
        E, rhs_e = np.zeros((0, n)), np.zeros(0)
    rows = [M[None] for M in (H, E, np.zeros((0, n)), g, rhs_e, np.zeros(0))]
    data, shapes = _lane_rows(HOST, rows)
    kkt, _, _ = _lane_kkt(
        (HOST, reg, 16, _LaneMeters(HOST, 1), None), data, shapes, rows[0],
        np.ones(1, dtype=bool), rows[1] if E.shape[0] else None,
        rows[1].transpose(0, 2, 1), None, None, bandwidth, 1,
    )  # fmt: skip
    with np.errstate(all="ignore"):
        if not kkt.factor(None, np.ones(1, dtype=bool))[0]:
            return res.x, res.nu
        x, y = kkt.solve(-g[None], -rhs_e[None] if E.shape[0] else None)
        x, y = x[0], (np.zeros(0) if y is None else y[0])
        e1 = -g - H @ x - E.T @ y
        e2 = rhs_e - E @ x
        cx, cy = kkt.solve(e1[None], -e2[None] if E.shape[0] else None)
    x = x + cx[0]
    y = y + (0.0 if cy is None else cy[0])
    p = 0 if G is None else G.shape[0]
    lam = np.zeros(m)
    lam[active] = y[p:]
    s = d - J @ x
    r_dual = H @ x + g + J.T @ lam + (0.0 if G is None else G.T @ y[:p])
    res_p = max(
        float(np.max(np.abs(r_dual))),
        0.0 if G is None else float(np.max(np.abs(G @ x - b), initial=0.0)),
        float(np.max(np.maximum(-s, 0.0))),  # primal inequality violation
        float(np.max(np.maximum(-lam, 0.0))),  # dual feasibility
        float(abs(s @ lam)) / m,  # complementarity
    )
    if np.isfinite(res_p) and res_p <= res.residual:
        return x, y[:p]
    return res.x, res.nu


def _run_kkt(ctx: CaseContext, bandwidth) -> PathOutput:
    H, g, G, b, J, d, _bw = ctx.qp_args
    opt = ctx.qp_options
    res = solve_qp(H, g, G, b, J, d, opt, bandwidth=bandwidth)
    x = res.x
    if res.converged:
        x = _kkt_polish(H, g, G, b, J, d, res, bandwidth, opt.regularization)[0]
    return PathOutput(
        values=x,
        converged=bool(res.converged),
        detail={"iterations": res.iterations, "residual": res.residual},
    )


def _run_dense_kkt(ctx: CaseContext) -> PathOutput:
    return _run_kkt(ctx, None)


def _run_banded_kkt(ctx: CaseContext) -> PathOutput:
    return _run_kkt(ctx, ctx.qp_args[-1])


def _make_batch_qp(backend: str, gate: float):
    """Build the batched-IPM path runner for one array backend.

    Three lanes share one batched solve: lane 0 is the case's exact
    subproblem (its solution is what the ledger compares against the
    family baseline), lanes 1-2 carry small deterministic gradient
    perturbations so the active-mask machinery actually runs (lanes
    converge at different iterations).  Every lane is re-solved by the
    scalar ``banded_kkt`` oracle with identical options; a lane-wise
    disagreement beyond the sanity ``gate`` marks the path non-converged —
    that is the batched-vs-scalar drift this path exists to catch.  The
    gate is looser for float32 backends (their per-lane agreement is
    bounded by the dedicated ``*_float32`` ledger entries, not by the
    float64 drift envelope).
    """

    def _run(ctx: CaseContext) -> PathOutput:
        from repro.batch import solve_qp_batch

        H, g, G, b, J, d, bw = ctx.qp_args
        opts = ctx.qp_options
        rng = np.random.default_rng(ctx.case.seed + 1)
        lanes = 3
        g_scale = 1.0 + float(np.max(np.abs(g))) if g.size else 1.0
        G_stack = np.stack([np.asarray(g, dtype=float)] * lanes)
        for lane in range(1, lanes):
            G_stack[lane] += 1e-3 * g_scale * rng.standard_normal(g.shape)

        res = solve_qp_batch(
            np.stack([H] * lanes),
            G_stack,
            None if G is None else np.stack([G] * lanes),
            None if b is None else np.stack([b] * lanes),
            None if J is None else np.stack([J] * lanes),
            None if d is None else np.stack([d] * lanes),
            opts,
            bandwidth=bw,
            backend=backend,
        )

        worst = 0.0
        for lane in range(lanes):
            oracle = solve_qp(
                H, G_stack[lane], G, b, J, d, opts, bandwidth=bw
            )
            # Same disagreement metric as ``compare_outputs``: near a flat
            # optimum two correct solvers stop on different near-optimal
            # points, so primal gap alone over-reports.
            x_lane = np.asarray(res.x[lane], dtype=float)
            dev = relative_error(x_lane, oracle.x)
            if np.all(np.isfinite(x_lane)):
                f = reference_qp_objective(H, G_stack[lane], x_lane)
                fb = reference_qp_objective(H, G_stack[lane], oracle.x)
                defect = 0.0
                if G is not None and G.shape[0]:
                    defect = float(np.max(np.abs(G @ x_lane - b)))
                if J is not None and J.shape[0]:
                    defect = max(
                        defect,
                        float(np.max(np.maximum(J @ x_lane - d, 0.0))),
                    )
                dev = min(dev, (abs(f - fb) + defect) / (1.0 + abs(fb)))
            worst = max(worst, dev)
        agree = worst < gate  # sanity gate: beyond this the paths diverged
        return PathOutput(
            values=np.asarray(res.x[0], dtype=float),
            converged=bool(np.all(res.converged)) and agree,
            note=(
                ""
                if agree
                else f"lane disagrees with scalar oracle ({worst:.1e})"
            ),
            detail={
                "backend": backend,
                "iterations": np.asarray(res.iterations).tolist(),
                "statuses": list(res.status),
                "lane_vs_scalar": worst,
                "batch_efficiency": res.batch.efficiency,
            },
        )

    return _run


def _admm_options(ctx: CaseContext) -> QPOptions:
    """Conformance options for the first-order (ADMM) paths.

    Tighter-than-default ADMM tolerance with generous iteration headroom:
    a first-order method earns its ledger row by running to high accuracy,
    so residual disagreement measures implementation drift rather than
    early stopping.  Polish is ON, and it is the same rescue polish in
    both the scalar and the batched path: the stiff robots (Manipulator,
    Humanoid) carry curvature spreads the iteration alone cannot grind
    down at this tolerance — their ledger rows are earned by
    iterate + active-set polish, the exact epilogue the runtime runs.
    The stall detector is off here: early-stopping a slow solve is a
    *runtime* resilience feature (the fallback ladder's trigger, exercised
    by the chaos campaigns) — conformance instead lets the iteration use
    its whole budget so the polish sees the best active-set guess the
    method can produce.
    """
    return dc_replace(
        ctx.qp_options,
        method="admm",
        polish=True,
        admm_tolerance=1e-8,
        admm_max_iterations=40000,
        admm_stall_iterations=0,
    )


def _run_admm_qp(ctx: CaseContext) -> PathOutput:
    H, g, G, b, J, d, _bw = ctx.qp_args
    res = solve_qp(H, g, G, b, J, d, _admm_options(ctx))
    return PathOutput(
        values=res.x,
        converged=bool(res.converged),
        detail={
            "iterations": res.iterations,
            "residual": res.residual,
            "factorizations": res.stats.factorizations,
        },
    )


#: Iteration ceiling for the perturbed decoy lanes of the batched-ADMM
#: path.  A first-order method is noise-sensitive near marginal
#: conditioning, so a decoy can legitimately need far more iterations
#: than the exact lane; the cap bounds sweep time, and a capped decoy is
#: still compared against the same lane solved alone under the same cap —
#: which additionally exercises the budget-freeze path under conformance.
_ADMM_DECOY_CAP = 5000


def _make_batch_admm(backend: str, gate: float):
    """Build the batched-ADMM path runner for one array backend.

    Same three-lane template as :func:`_make_batch_qp` (lane 0 exact,
    lanes 1-2 gradient-perturbed so per-lane convergence masks engage).
    The per-lane oracle is the *lane solved alone* — the same loop at
    ``B = 1`` (``solve_qp`` with ``method="admm"``) under identical
    options and iteration budget — so the gate checks lane-independence:
    a lane in a desynchronised batch, frozen and masked around by its
    batch-mates, must land where it lands by itself.  It is not an
    independent implementation; that role belongs to the ledger row,
    which compares lane 0 against the family's ``dense_kkt``
    interior-point baseline.  Decoy perturbations are 10x smaller than
    the batched-IPM template's and their lanes are capped at
    ``_ADMM_DECOY_CAP`` iterations: only lane 0 must converge — the
    decoys' job is to desynchronize the masks and then match their own
    solo solve wherever it lands.
    """

    def _run(ctx: CaseContext) -> PathOutput:
        from repro.firstorder import solve_qp_admm_batch

        H, g, G, b, J, d, _bw = ctx.qp_args
        opts = _admm_options(ctx)
        rng = np.random.default_rng(ctx.case.seed + 1)
        lanes = 3
        g_scale = 1.0 + float(np.max(np.abs(g))) if g.size else 1.0
        G_stack = np.stack([np.asarray(g, dtype=float)] * lanes)
        for lane in range(1, lanes):
            G_stack[lane] += 1e-4 * g_scale * rng.standard_normal(g.shape)

        caps = [opts.admm_max_iterations] + [_ADMM_DECOY_CAP] * (lanes - 1)
        res = solve_qp_admm_batch(
            np.stack([H] * lanes),
            G_stack,
            None if G is None else np.stack([G] * lanes),
            None if b is None else np.stack([b] * lanes),
            None if J is None else np.stack([J] * lanes),
            None if d is None else np.stack([d] * lanes),
            opts,
            iteration_caps=caps,
            backend=backend,
        )

        worst = 0.0
        for lane in range(lanes):
            oracle = solve_qp(
                H, G_stack[lane], G, b, J, d,
                dc_replace(opts, admm_max_iterations=caps[lane]),
            )
            x_lane = np.asarray(res.x[lane], dtype=float)
            dev = relative_error(x_lane, oracle.x)
            if np.all(np.isfinite(x_lane)):
                f = reference_qp_objective(H, G_stack[lane], x_lane)
                fb = reference_qp_objective(H, G_stack[lane], oracle.x)
                defect = 0.0
                if G is not None and G.shape[0]:
                    defect = float(np.max(np.abs(G @ x_lane - b)))
                if J is not None and J.shape[0]:
                    defect = max(
                        defect,
                        float(np.max(np.maximum(J @ x_lane - d, 0.0))),
                    )
                dev = min(dev, (abs(f - fb) + defect) / (1.0 + abs(fb)))
            worst = max(worst, dev)
        agree = worst < gate
        return PathOutput(
            values=np.asarray(res.x[0], dtype=float),
            converged=bool(res.converged[0]) and agree,
            note=(
                ""
                if agree
                else f"lane disagrees with scalar ADMM oracle ({worst:.1e})"
            ),
            detail={
                "backend": backend,
                "iterations": np.asarray(res.iterations).tolist(),
                "statuses": list(res.status),
                "lane_vs_scalar": worst,
                "batch_efficiency": res.batch.efficiency,
            },
        )

    return _run


def _backend_available(name: str) -> bool:
    from repro.batch import available_backends

    return name in available_backends()


#: Robots whose cold-start subproblems are conditioned well enough for a
#: float32 solve to be meaningful.  On the stiff benchmarks (Manipulator,
#: AutoVehicle, MicroSat, Quadrotor, Hexacopter) the randomized conform
#: QPs routinely exceed float32's ~7 significant digits — the solver
#: grinds its full iteration budget and lands far from the float64 oracle,
#: which measures conditioning, not implementation drift.  The float32
#: ledger rows bound agreement where agreement is defined.
_FLOAT32_ROBOTS = ("MobileRobot", "CartPole")

#: Robots with ADMM-path ledger rows.  Since the solver grew Ruiz
#: equilibration and the active-set rescue polish, this includes the stiff
#: benchmarks: Manipulator/Humanoid-class Hessians carry curvature spreads
#: (cond ~1e10) the iteration alone cannot grind below the conform
#: tolerance, but the polished solve recovers the solution to ledger
#: accuracy — the same resilience ladder the runtime uses (see DESIGN.md's
#: crossover discussion for where plain ADMM stops being the right tool).
_ADMM_ROBOTS = (
    "MobileRobot",
    "CartPole",
    "AutoVehicle",
    "Hexacopter",
    "Manipulator",
    "Humanoid",
)


def _run_reference_qp(ctx: CaseContext) -> PathOutput:
    H, g, G, b, J, d, _bw = ctx.qp_args
    try:
        x, _nu, _lam = reference_solve_qp(
            H, g, G, b, J, d, tol=1e-9, max_iterations=600
        )
    except BaselineError as exc:
        return PathOutput(values=np.zeros(g.shape), converged=False, note=str(exc))
    return PathOutput(values=x)


# ---------------------------------------------------------------------------
# dynamics family
# ---------------------------------------------------------------------------
def _dyn_vector(ctx: CaseContext, variables: Tuple[str, ...]) -> np.ndarray:
    missing = [v for v in variables if v not in ctx.dyn_point]
    if missing:
        raise ConformanceError(
            f"dynamics evaluation point lacks variables {missing}"
        )
    return np.array([ctx.dyn_point[v] for v in variables], dtype=float)


def _run_float_dynamics(ctx: CaseContext) -> PathOutput:
    F = ctx.problem._F
    vec = _dyn_vector(ctx, F.variables)
    return PathOutput(values=np.asarray(F(vec), dtype=float))


def _run_accel_sim(ctx: CaseContext) -> PathOutput:
    from repro.accelerator import simulate_phase

    result, _reference = simulate_phase(
        ctx.problem, "dynamics", inputs=dict(ctx.dyn_point), fmt=ctx.fmt
    )
    # Output labels are node ids; the translator emits dynamics outputs in
    # state order, so the id-sorted labels map positionally onto states.
    labels = sorted(result.outputs, key=lambda s: int(s.replace("node", "")))
    values = np.array([result.outputs[k] for k in labels], dtype=float)
    return PathOutput(
        values=values,
        detail={"cycles": result.cycles, "format": str(ctx.fmt)},
    )


def _twin_problem(ctx: CaseContext) -> TranscribedProblem:
    name = ctx.case.robot
    if name not in _TWIN_CACHE:
        from repro.robots import dsl_sources

        loader = {
            "MobileRobot": dsl_sources.load_mobile_robot,
            "Quadrotor": dsl_sources.load_quadrotor,
        }[name]
        twin = loader()
        # Same dt/integrator as the hand-written benchmark, so the compiled
        # discrete steps are the same function up to frontend differences.
        _TWIN_CACHE[name] = TranscribedProblem(
            twin.model, twin.task, horizon=2, dt=ctx.bench.dt
        )
    return _TWIN_CACHE[name]


def _run_dsl_dynamics(ctx: CaseContext) -> PathOutput:
    twin = _twin_problem(ctx)
    F = twin._F
    vec = _dyn_vector(ctx, F.variables)
    out = np.asarray(F(vec), dtype=float)
    # Twin state ordering may differ from the hand-written model; map by name
    # into the baseline (hand-written) state order.
    twin_states = list(twin.model.state_names)
    try:
        order = [twin_states.index(n) for n in ctx.bench.model.state_names]
    except ValueError as exc:
        raise ConformanceError(
            f"DSL twin for {ctx.case.robot} lacks a state: {exc}"
        ) from None
    return PathOutput(values=out[order])


# ---------------------------------------------------------------------------
# linearize family
# ---------------------------------------------------------------------------
def _linearize_vector(ctx: CaseContext) -> np.ndarray:
    """The whole linearize block at a seeded point, flattened.

    The evaluation point derives from an offset of the case seed so it is
    identical for every path of the family but independent of the draws
    :class:`CaseContext` already made.
    """
    p = ctx.problem
    rng = np.random.default_rng(ctx.case.seed + 7)
    z = p.initial_guess(ctx.x0)
    z = z + 0.02 * rng.standard_normal(z.shape) * p.variable_scales()
    ref = ctx.ref
    return np.concatenate(
        [
            np.atleast_1d(float(p.objective(z, ref))),
            p.objective_gradient(z, ref),
            p.objective_gauss_newton(z, ref).ravel(),
            p.equality_constraints(z, ctx.x0, ref),
            p.equality_jacobian(z, ref).ravel(),
            p.inequality_constraints(z, ref),
            p.inequality_jacobian(z, ref).ravel(),
        ]
    )


def _run_interp_linearize(ctx: CaseContext) -> PathOutput:
    ctx.problem.set_codegen("off")
    return PathOutput(values=_linearize_vector(ctx))


def _run_codegen_linearize(ctx: CaseContext) -> PathOutput:
    ctx.problem.set_codegen("on")
    values = _linearize_vector(ctx)
    stats = ctx.problem.codegen_stats()
    return PathOutput(
        values=values,
        note=(
            ""
            if stats.kernel != "interpreted"
            else f"fused kernel unavailable ({stats.fallback_reason}); "
            "comparison is trivial"
        ),
        detail=stats.as_dict(),
    )


# ---------------------------------------------------------------------------
# padded family (serve2 horizon bucketing)
# ---------------------------------------------------------------------------
#: stages of genuine padding the ``padded_horizon`` path adds on top of the
#: case horizon (rungs need not be powers of two, so any extension works)
_PAD_STAGES = 2


def _case_ref(ctx: CaseContext) -> Optional[np.ndarray]:
    return ctx.ref if ctx.ref.size else None


def _run_native_horizon(ctx: CaseContext) -> PathOutput:
    res = ctx.bench.make_solver(ctx.problem, input_tolerance=None).solve(
        ctx.x0, ref=_case_ref(ctx), z_warm=ctx.z_warm
    )
    return PathOutput(values=res.z, converged=res.converged)


def _run_padded_horizon(ctx: CaseContext) -> PathOutput:
    from repro.serve2.padding import (
        crop_result,
        pad_reference,
        pad_warm_start,
        padded_task,
    )

    h = ctx.case.horizon
    bucket = h + _PAD_STAGES
    task = padded_task(ctx.problem.task)
    problem = TranscribedProblem(
        task.model, task, horizon=bucket, dt=ctx.bench.dt
    )
    ref = pad_reference(_case_ref(ctx), ctx.problem.nref, h, bucket)
    z_warm = (
        pad_warm_start(ctx.z_warm, ctx.problem, problem)
        if ctx.z_warm is not None
        else None
    )
    # The gated padded landscape is harder to descend cold than the native
    # one (the tail is objective-flat until the gates pin it): it needs
    # iteration headroom, and the gated rows raise the soft-penalty KKT
    # floor a hair — on stiff robots the padded stall plateau lands within
    # a small factor of the native tolerance while the native plateau
    # lands just under it (both are ~tolerance-accurate approximate
    # optima; neither digs deeper when asked — see the Quadrotor ledger
    # entry).  Solving at 3x the benchmark tolerance lets the solver stop
    # *at* that plateau instead of burning the iteration cap against it;
    # the *values* are still held to the family ledger, only the route is
    # allowed to be longer and its endpoint declared a touch earlier.
    base_tol = ctx.solver.options.tolerance
    solver = ctx.bench.make_solver(
        problem,
        max_iterations=200,
        tolerance=3.0 * base_tol,
        input_tolerance=None,
    )
    res = solver.solve(ctx.x0, ref=ref, z_warm=z_warm)
    # A few draws plateau a hair above even the relaxed bar (MicroSat has a
    # hard floor near 3.5x; more iterations change nothing).  A finite
    # plateau within 5x base tolerance is an answer, not a divergence —
    # accept it and let the ledger judge the values.  Genuine blow-ups
    # (non-finite or far-off residuals) still report non-convergence.
    near = (
        np.isfinite(res.kkt_residual)
        and res.kkt_residual <= 5.0 * base_tol
    )
    cropped = crop_result(res, problem, ctx.problem)
    return PathOutput(
        values=cropped.z,
        converged=cropped.converged or near,
        note=(
            ""
            if res.kkt_residual <= base_tol
            else "relaxed-tolerance plateau"
        ),
        detail={"bucket": bucket, "horizon": h, "kkt": float(res.kkt_residual)},
    )


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------
PATHS: Dict[str, NumericPath] = {}

FAMILY_BASELINES: Dict[str, str] = {
    "qp": "dense_kkt",
    "dynamics": "float_dynamics",
    "linearize": "interp_linearize",
    "padded": "native_horizon",
}


def _register(path: NumericPath) -> NumericPath:
    if path.name in PATHS:
        raise ConformanceError(f"duplicate path name {path.name!r}")
    PATHS[path.name] = path
    return path


_register(
    NumericPath(
        name="dense_kkt",
        family="qp",
        description="Mehrotra IPM, dense KKT factorizations (oracle)",
        run=_run_dense_kkt,
        baseline=True,
    )
)
_register(
    NumericPath(
        name="banded_kkt",
        family="qp",
        description="Mehrotra IPM through stage-interleaved banded kernels",
        run=_run_banded_kkt,
    )
)
_register(
    NumericPath(
        name="batch_qp",
        family="qp",
        description="batched Mehrotra IPM (repro.batch), per-lane scalar cross-check",
        run=_make_batch_qp("numpy", gate=1e-3),
    )
)
# The same batched IPM in float32 on numpy, and on torch (CI's parity job):
# the torch paths are gated by ``supports`` on torch being importable.
# float32 variants carry their own, looser ledger rows.
_register(
    NumericPath(
        name="batch_qp_numpy_float32",
        family="qp",
        description="batched IPM on the numpy backend in float32",
        run=_make_batch_qp("numpy:float32", gate=5e-2),
        supports=lambda case: case.robot in _FLOAT32_ROBOTS,
    )
)
_register(
    NumericPath(
        name="batch_qp_torch",
        family="qp",
        description="batched IPM on the torch backend (masked lockstep)",
        run=_make_batch_qp("torch", gate=1e-3),
        supports=lambda case: _backend_available("torch"),
    )
)
_register(
    NumericPath(
        name="batch_qp_torch_float32",
        family="qp",
        description="batched IPM on the torch backend in float32",
        run=_make_batch_qp("torch:float32", gate=5e-2),
        supports=(
            lambda case: _backend_available("torch")
            and case.robot in _FLOAT32_ROBOTS
        ),
    )
)
# First-order (ADMM) solver paths: a different *algorithm* from the IPM
# baseline, so agreement against ``dense_kkt`` is meaningful.  The batched
# variants additionally cross-check every lane against the same lane
# solved alone (the loop's B=1 lane), mirroring the batched-IPM template.
_register(
    NumericPath(
        name="admm_qp",
        family="qp",
        description="OSQP-style ADMM with cached factorization (repro.firstorder)",
        run=_run_admm_qp,
        supports=lambda case: case.robot in _ADMM_ROBOTS,
    )
)
_register(
    NumericPath(
        name="batch_admm",
        family="qp",
        description="batched ADMM (repro.firstorder.batch), per-lane solo cross-check",
        run=_make_batch_admm("numpy", gate=1e-3),
        supports=lambda case: case.robot in _ADMM_ROBOTS,
    )
)
_register(
    NumericPath(
        name="batch_admm_torch",
        family="qp",
        description="batched ADMM on the torch backend (masked lockstep)",
        run=_make_batch_admm("torch", gate=1e-3),
        supports=(
            lambda case: _backend_available("torch")
            and case.robot in _ADMM_ROBOTS
        ),
    )
)
_register(
    NumericPath(
        name="reference_qp",
        family="qp",
        description="independent dense log-barrier method (numpy linalg)",
        run=_run_reference_qp,
    )
)
_register(
    NumericPath(
        name="float_dynamics",
        family="dynamics",
        description="compiled double-precision discrete step (oracle)",
        run=_run_float_dynamics,
        baseline=True,
    )
)
_register(
    NumericPath(
        name="accel_sim",
        family="dynamics",
        description="fixed-point accelerator simulator (configurable width)",
        run=_run_accel_sim,
    )
)
_register(
    NumericPath(
        name="dsl_dynamics",
        family="dynamics",
        description="DSL-compiled twin model's discrete step",
        run=_run_dsl_dynamics,
        supports=lambda case: case.robot in _DSL_TWINS,
    )
)
_register(
    NumericPath(
        name="interp_linearize",
        family="linearize",
        description="per-stage interpreted linearize block (oracle)",
        run=_run_interp_linearize,
        baseline=True,
    )
)
_register(
    NumericPath(
        name="codegen_linearize",
        family="linearize",
        description="fused-kernel codegen linearize block (C kernel)",
        run=_run_codegen_linearize,
    )
)
_register(
    NumericPath(
        name="native_horizon",
        family="padded",
        description="scalar SQP solve at the case's own horizon (oracle)",
        run=_run_native_horizon,
        baseline=True,
    )
)
_register(
    NumericPath(
        name="padded_horizon",
        family="padded",
        description="the same solve inside a padded serve2 horizon bucket",
        run=_run_padded_horizon,
    )
)


def compare_outputs(
    ctx: CaseContext, family: str, out: PathOutput, base: PathOutput
) -> float:
    """Disagreement between a path and its family baseline.

    Dynamics family: plain relative error on the output vector.

    QP family: ``min(primal gap, objective gap + feasibility defect)``.
    Near a flat or weakly-unique optimum, two correct solvers legitimately
    stop on different near-optimal points (primal gap ~1e-3 with objective
    agreement ~1e-6); the objective term recognizes that, while the
    feasibility defect stops a broken solver from "winning" the objective
    by violating constraints.
    """
    err = relative_error(out.values, base.values)
    if family != "qp":
        return err
    H, g, G, b, J, d, _bw = ctx.qp_args
    x, xb = out.values, base.values
    if x.shape != xb.shape or not np.all(np.isfinite(x)):
        return err
    f = reference_qp_objective(H, g, x)
    fb = reference_qp_objective(H, g, xb)
    defect = 0.0
    if G is not None and G.shape[0]:
        defect = max(defect, float(np.max(np.abs(G @ x - b))))
    if J is not None and J.shape[0]:
        defect = max(defect, float(np.max(np.maximum(J @ x - d, 0.0))))
    alt = (abs(f - fb) + defect) / (1.0 + abs(fb))
    return min(err, alt)


def path_names() -> List[str]:
    return list(PATHS)


def get_path(name: str) -> NumericPath:
    try:
        return PATHS[name]
    except KeyError:
        raise ConformanceError(
            f"unknown conformance path {name!r}; registered: {list(PATHS)}"
        ) from None


def supported_paths(case: ConformanceCase, names: Optional[List[str]] = None):
    """The subset of ``names`` (default: all) applicable to ``case``."""
    return [
        PATHS[n] for n in (names or list(PATHS)) if get_path(n).supports(case)
    ]
