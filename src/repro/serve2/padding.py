"""Horizon padding: solve a horizon-``h`` session inside a horizon-``H``
bucket and get the *same* plan back.

The trick is two extra reference channels appended to the task — per-stage
gates bound numerically at every solve:

* ``__pad_run__`` (``g_run``): 1.0 at stages ``k < h``, 0.0 after.  Every
  running penalty ``w * p**2`` becomes ``w * (g_run * p)**2`` and every
  running constraint ``lo <= c <= hi`` becomes
  ``lo <= g_run*c + (1-g_run)*fill <= hi`` with ``fill`` a strictly
  feasible constant.  At ``g_run = 1`` the gated term is bitwise the
  native one (IEEE ``1.0*x == x``, ``0.0*fill == 0``); at ``g_run = 0``
  the penalty contributes exactly zero and the constraint row is an
  always-satisfied constant with zero Jacobian.
* ``__pad_term__`` (``g_term``): 1.0 exactly at stage ``k == h``.  Every
  terminal term gets a *running* gated copy (legal because terminal terms
  reference only states) that fires precisely at the session's true final
  stage, plus a gated terminal copy that recovers the native terminal
  term when ``h == H``.

Model *state* bounds get the same treatment: the padded problem is
transcribed against an unbounded-state clone of the model, with the
native bounds re-imposed as gated task rows over exactly the knots the
native transcription bounds.  (Leaving them on the model would bound the
tail too — and from a head optimum riding a state bound with outward
velocity no bound-feasible tail exists, so the soft tail rows would pull
the head off the native optimum.)  Model input bounds stay hard: with
the tail states unconstrained, any tail input — trim, say — is feasible
without back-pressure on the head.

With the gates bound this way the padded problem's cost and active
constraint set over stages ``0..h`` are identical to the native
horizon-``h`` problem and the tail stages ``h..H`` are cost-free and
constraint-free (beyond dynamics and input bounds), so the padded
optimum restricted to the head *is* the native optimum — the ``padded``
conformance family checks this against the ledger for every robot.
Cropping maps the padded solution back onto the session's native
problem layout so ``ControlSession.absorb_result`` works unchanged.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Dict, Optional

import numpy as np

from repro.batch.contract import IPMResult
from repro.errors import ReproError, ServeError
from repro.mpc.model import RobotModel
from repro.mpc.task import RUNNING, TERMINAL, Constraint, Penalty, Task
from repro.mpc.transcription import TranscribedProblem
from repro.symbolic import Var

__all__ = [
    "PAD_RUN",
    "PAD_TERM",
    "padded_task",
    "gate_columns",
    "pad_reference",
    "pad_warm_start",
    "crop_result",
    "PaddedBinding",
]

#: reference channel names for the per-stage gates
PAD_RUN = "__pad_run__"
PAD_TERM = "__pad_term__"


def _fill(lo: float, hi: float) -> float:
    """A strictly feasible constant the gated-off row collapses to."""
    if lo > -math.inf and hi < math.inf:
        return 0.5 * (lo + hi)
    if hi < math.inf:
        return hi - 1.0
    return lo + 1.0


def _fill_value(constraint: Constraint) -> float:
    return _fill(constraint.lower, constraint.upper)


def _unbounded_state_model(model: RobotModel) -> RobotModel:
    """``model`` with its state bounds stripped (input bounds kept).

    The transcription applies model state bounds at *every* knot, tail
    stages included — but from a head optimum that rides a state bound
    with outward velocity, no bound-feasible tail exists, and the soft
    bound rows on the tail would drag the head away from the native
    optimum (observed on the quadrotor, whose terminal attitude sits
    exactly on its +-0.6 rad tilt bound).  So the padded problem moves
    state bounds into gated task constraints instead.  Input bounds stay
    on the model: tail states are unconstrained, so any tail — e.g. the
    trim rollout — satisfies them trivially without back-pressure on the
    head.
    """
    states = tuple(
        replace(s, lower=-math.inf, upper=math.inf) for s in model.states
    )
    return RobotModel(
        model.name,
        states,
        model.inputs,
        dict(model.dynamics),
        params=dict(model.params),
        rollout_guess=model.rollout_guess,
    )


def padded_task(task: Task) -> Task:
    """Rebuild ``task`` with every term gated by the padding channels.

    The returned task is built against an unbounded-state clone of the
    model (see :func:`_unbounded_state_model`); use ``padded.model`` —
    not the native model — when transcribing it.
    """
    for c in task.constraints:
        if c.is_equality:
            # A gated equality row would be 0 == 0 with a zero Jacobian —
            # a singular KKT block.  No benchmark task declares one, so
            # refuse instead of special-casing.
            raise ServeError(
                f"task {task.name!r}: equality constraint {c.name!r} "
                "cannot be horizon-padded"
            )
    g_run = Var(PAD_RUN)
    g_term = Var(PAD_TERM)
    penalties = []
    for p in task.penalties:
        if p.timing == RUNNING:
            penalties.append(Penalty(p.name, g_run * p.expr, p.weight, RUNNING))
        else:
            # terminal copy (fires only for unpadded lanes, where h == H)
            penalties.append(Penalty(p.name, g_term * p.expr, p.weight, TERMINAL))
            # running copy: fires exactly at stage k == h for padded lanes
            penalties.append(
                Penalty(f"{p.name}__pad_stage", g_term * p.expr, p.weight, RUNNING)
            )
    constraints = []
    for c in task.constraints:
        fill = _fill_value(c)
        if c.timing == RUNNING:
            expr = g_run * c.expr + (1.0 - g_run) * fill
            constraints.append(Constraint(c.name, expr, c.lower, c.upper, RUNNING))
        else:
            expr = g_term * c.expr + (1.0 - g_term) * fill
            constraints.append(Constraint(c.name, expr, c.lower, c.upper, TERMINAL))
            constraints.append(
                Constraint(
                    f"{c.name}__pad_stage", expr, c.lower, c.upper, RUNNING
                )
            )
    model = _unbounded_state_model(task.model)
    # re-impose the native state bounds as gated rows: running stages
    # (k = 1 .. h-1), the true final stage (k == h, via the g_term-gated
    # running copy), and the bucket terminal (k == H, live only when the
    # lane is unpadded) — exactly the knots the native transcription
    # bounds, and none of the tail.
    for spec in task.model.states:
        if not spec.is_bounded:
            continue
        fill = _fill(spec.lower, spec.upper)
        x = spec.var
        run = g_run * x + (1.0 - g_run) * fill
        fin = g_term * x + (1.0 - g_term) * fill
        constraints.append(
            Constraint(f"{spec.name}__pad_bound", run, spec.lower, spec.upper, RUNNING)
        )
        constraints.append(
            Constraint(
                f"{spec.name}__pad_bound_stage", fin, spec.lower, spec.upper, RUNNING
            )
        )
        constraints.append(
            Constraint(
                f"{spec.name}__pad_bound_term", fin, spec.lower, spec.upper, TERMINAL
            )
        )
    return Task(
        name=f"{task.name}__padded",
        model=model,
        penalties=penalties,
        constraints=constraints,
        references=tuple(task.references) + (PAD_RUN, PAD_TERM),
        meta=dict(task.meta),
    )


def gate_columns(bucket: int, horizon: int) -> np.ndarray:
    """Per-stage gate values, shape ``(bucket + 1, 2)``."""
    if not 1 <= horizon <= bucket:
        raise ServeError(
            f"horizon {horizon} does not fit bucket {bucket}"
        )
    stages = np.arange(bucket + 1)
    g_run = (stages < horizon).astype(float)
    g_term = (stages == horizon).astype(float)
    return np.column_stack([g_run, g_term])


def pad_reference(
    ref: Optional[np.ndarray], nref: int, horizon: int, bucket: int
) -> np.ndarray:
    """The padded per-stage reference stack, shape ``(bucket+1, nref+2)``.

    Native reference rows cover stages ``0..h`` (a flat ``(nref,)`` vector
    broadcasts); the tail holds the last row — its values are multiplied
    by a zero gate, so they only have to be finite.
    """
    gates = gate_columns(bucket, horizon)
    if nref == 0:
        return gates
    base = np.asarray(ref, dtype=float)
    if base.ndim == 1:
        if base.shape != (nref,):
            raise ServeError(
                f"reference has shape {base.shape}, expected ({nref},)"
            )
        base = np.tile(base, (horizon + 1, 1))
    elif base.shape != (horizon + 1, nref):
        raise ServeError(
            f"reference has shape {base.shape}, expected ({nref},) or "
            f"({horizon + 1}, {nref})"
        )
    if bucket > horizon:
        base = np.vstack([base, np.tile(base[-1], (bucket - horizon, 1))])
    return np.hstack([base, gates])


def pad_warm_start(
    z: np.ndarray,
    native_problem: TranscribedProblem,
    padded_problem: TranscribedProblem,
) -> np.ndarray:
    """Extend a native warm start into the bucket.

    The tail *rolls the dynamics out* under the trim input (same policy
    as :meth:`TranscribedProblem.initial_guess`) instead of holding the
    last state: a held state leaves large artificial defect residuals at
    the pad boundary, and on nonconvex robots the resulting correction
    steps can knock the solve into a different local basin.  For
    ``rollout_guess=False`` models the tail holds the state, as the
    native guess does.
    """
    h, H = native_problem.N, padded_problem.N
    xs, us = native_problem.split(np.asarray(z, dtype=float))
    if H == h:
        return padded_problem.join(xs, us)
    model = padded_problem.model
    u_trim = np.array(model.trim_inputs(), dtype=float)
    us_tail = np.tile(u_trim, (H - h, 1))
    xs_tail = np.empty((H - h, native_problem.nx))
    if model.rollout_guess:
        # clip against the *native* bounds: the padded model is unbounded
        # by construction, but the guess should stay in the plausible box
        lo, hi = native_problem.model.state_bounds()
        lo = np.maximum(np.asarray(lo), -1e6)
        hi = np.minimum(np.asarray(hi), 1e6)
        xk = xs[-1]
        u_trim_l = u_trim.tolist()
        for i in range(H - h):
            xk = np.clip(
                padded_problem._F.call_positional(*xk.tolist(), *u_trim_l),
                lo,
                hi,
            )
            xs_tail[i] = xk
    else:
        xs_tail[:] = xs[-1]
    return padded_problem.join(np.vstack([xs, xs_tail]), np.vstack([us, us_tail]))


def crop_result(
    result: IPMResult,
    padded_problem: TranscribedProblem,
    native_problem: TranscribedProblem,
) -> IPMResult:
    """Map a padded-bucket solve back onto the native problem layout.

    The head knots of the padded solution are re-joined on the native
    layout.  The multipliers are dropped (``nu = lam = None``): a served
    result feeds only the session's shifted primal warm start.
    """
    h = native_problem.N
    xs, us = padded_problem.split(np.asarray(result.z, dtype=float))
    z_native = native_problem.join(xs[: h + 1], us[:h])
    return IPMResult(
        z=z_native,
        converged=result.converged,
        iterations=result.iterations,
        qp_iterations=result.qp_iterations,
        objective=result.objective,
        kkt_residual=result.kkt_residual,
        residual_history=list(result.residual_history),
        status=result.status,
        solve_time=result.solve_time,
        health=result.health,
    )


class PaddedBinding:
    """One robot's padded problem at one bucket horizon, plus its solvers.

    Shards hold one of these per ``(robot, bucket)`` key.  The batched
    solver is ``None`` when the robot cannot batch (e.g. a non-Gauss-
    Newton Hessian model) — its groups then step each session on its own
    solver over its own *native* problem, unpadded.  ``scalar_solver``
    solves the padded problem; it supplies the batched solver's options.
    """

    def __init__(
        self,
        bench,
        bucket: int,
        qp_method: str = "ipm",
        array_backend: Optional[str] = None,
    ):
        self.bench = bench
        self.bucket = int(bucket)
        self.task = padded_task(bench.task)
        # the padded task rides an unbounded-state model clone — transcribe
        # against *its* model (identity is checked), not bench.model
        self.problem = TranscribedProblem(
            self.task.model, self.task, horizon=self.bucket, dt=bench.dt
        )
        self.scalar_solver = bench.make_solver(self.problem)
        try:
            from repro.batch import BatchSolver

            options = self.scalar_solver.options
            self.batch_solver = BatchSolver(
                self.problem,
                replace(options, qp=replace(options.qp, method=qp_method)),
                backend=array_backend,
            )
        except ReproError:
            self.batch_solver = None

    @property
    def batchable(self) -> bool:
        return self.batch_solver is not None

    def pad_payload(
        self, payload: Dict[str, object], native_problem: TranscribedProblem
    ) -> Dict[str, object]:
        """Rewrite a ``ControlSession.solve_payload`` dict for the bucket."""
        h = native_problem.N
        out = dict(payload)
        out["horizon"] = self.bucket
        out["ref"] = pad_reference(
            payload.get("ref"), native_problem.nref, h, self.bucket
        )
        z_warm = payload.get("z_warm")
        out["z_warm"] = (
            pad_warm_start(z_warm, native_problem, self.problem)
            if z_warm is not None
            else None
        )
        return out

    def crop(
        self, result: IPMResult, native_problem: TranscribedProblem
    ) -> IPMResult:
        return crop_result(result, self.problem, native_problem)
