"""Direct transcription of an MPC problem over a finite horizon.

Implements §II-B of the paper: the trajectory is discretized over a horizon
of ``N`` steps into the decision vector ``z = [x_0 .. x_N, u_0 .. u_{N-1}]``
(Eq. 5); the robot dynamics become equality constraints linking consecutive
states; variable bounds and task constraints become the stacked inequality
vector; and the objective is the weighted sum of squared penalties.

The transcription is *stage-wise*: one set of symbolic expressions is built
and compiled per stage kind (running / terminal) and evaluated at every time
step, exactly how structure-exploiting MPC solvers (HPMPC, the paper's CPU
baseline) operate.  All gradients, Jacobians and Hessians are produced by
symbolic automatic differentiation (§VII), and their exact primitive-op
counts are exposed for the accelerator compiler and baseline cost models.

Numeric evaluation has two parts.  *Evaluating* the stage functions at a
point is a group provider's job — this module holds the interpreted one
(:meth:`TranscribedProblem._interpreted_groups`) and picks between it and
the fused tiers in :meth:`TranscribedProblem.bind_lanes`.  *Placing* the
results into the solver's vectors and matrices is the shared assembler
(:mod:`repro.linearize`); the seven evaluation methods here are its ``B =
1`` host lane.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.batch.backend import HOST
from repro.errors import TranscriptionError
from repro.linearize import (
    GROUP_INFO,
    STATE_ROWS,
    LaneLinearizer,
    normalize_ref,
)
from repro.mpc.model import RobotModel
from repro.mpc.task import Task
from repro.symbolic import (
    Const,
    Expr,
    Memo,
    Var,
    as_expr,
    compile_function,
    diff,
    simplify,
    substitute,
)

__all__ = ["TranscribedProblem", "INTEGRATORS"]

INTEGRATORS = ("euler", "rk4")
_INF = math.inf


class TranscribedProblem:
    """A discretized constrained optimization problem ready for the solver.

    Args:
        model: robot ``System``.
        task: robot ``Task``.
        horizon: number of control intervals ``N`` (the trajectory has
            ``N + 1`` state knots and ``N`` input knots).
        dt: integration step in seconds.
        integrator: ``"euler"`` or ``"rk4"`` discretization of the continuous
            dynamics (a solver-template parameter in RoboX).
        move_block: move-blocking factor ``B`` — the control input is held
            constant over blocks of ``B`` consecutive steps, shrinking the
            decision vector from ``N`` to ``ceil(N / B)`` input knots.  This
            is the algorithmic-approximation technique of the paper's §IX
            (ref. [77]) that trades control accuracy for solver speed; the
            default ``1`` disables it.
    """

    def __init__(
        self,
        model: RobotModel,
        task: Task,
        horizon: int,
        dt: float,
        integrator: str = "rk4",
        move_block: int = 1,
    ):
        if horizon < 1:
            raise TranscriptionError(f"horizon must be >= 1, got {horizon}")
        if dt <= 0:
            raise TranscriptionError(f"dt must be positive, got {dt}")
        if integrator not in INTEGRATORS:
            raise TranscriptionError(
                f"unknown integrator {integrator!r}; choose from {INTEGRATORS}"
            )
        if task.model is not model:
            raise TranscriptionError(
                f"task {task.name!r} was defined for model {task.model.name!r}, "
                f"not {model.name!r}"
            )
        if move_block < 1:
            raise TranscriptionError(
                f"move_block must be >= 1, got {move_block}"
            )

        self.model = model
        self.task = task
        self.N = horizon
        self.dt = dt
        self.integrator = integrator
        self.move_block = move_block
        #: number of independent input knots after move blocking
        self.n_input_knots = -(-horizon // move_block)  # ceil division

        self.nx = model.n_states
        self.nu = model.n_inputs
        self.nref = len(task.references)
        self.nz = (self.N + 1) * self.nx + self.n_input_knots * self.nu

        self._state_vars = list(model.state_vars)
        self._input_vars = list(model.input_vars)
        self._ref_vars = list(task.reference_vars)
        self._stage_vars = self._state_vars + self._input_vars + self._ref_vars
        self._term_vars = self._state_vars + self._ref_vars

        # one memo for every derivative sweep of this build, dropped when
        # the build returns (before any codegen compiles a kernel)
        with Memo() as memo:
            self._build_dynamics(memo)
            self._build_costs(memo)
            self._build_constraints(memo)
        self._compute_counts()

        #: codegen seam state: mode override (None -> REPRO_CODEGEN / auto),
        #: the lazily-built kernels with their stats, and the bound B=1 lane
        self._cg_mode: Optional[str] = None
        self._cg_kernels = None
        self._cg_stats = None
        self._lanes: Optional[LaneLinearizer] = None

    # -- fused-kernel codegen seam ----------------------------------------------
    def set_codegen(self, mode: Optional[str]) -> None:
        """Select the codegen mode (``auto``/``on``/``off``; ``None`` defers
        to ``REPRO_CODEGEN``).

        Resets any kernels already built so the next evaluation re-decides
        the tier under the new mode.
        """
        self._cg_mode = mode
        self._cg_kernels = self._cg_stats = self._lanes = None

    def codegen_kernels(self):
        """The :class:`~repro.codegen.linearizer.FusedProblemKernels` in use
        (building them if evaluation has not run yet), or ``None`` when they
        could not be built — :meth:`codegen_stats` then says why."""
        if self._cg_stats is None:
            from repro.codegen.linearizer import FusedProblemKernels
            from repro.codegen.stats import CodegenStats

            try:
                self._cg_kernels = FusedProblemKernels(self, self._cg_mode)
                self._cg_stats = self._cg_kernels.stats
            except Exception as exc:
                self._cg_stats = CodegenStats(
                    fallback_reason=f"build failed: {exc}"
                )
        return self._cg_kernels

    def codegen_stats(self):
        """Current :class:`~repro.codegen.stats.CodegenStats` snapshot."""
        from repro.codegen.stats import CodegenStats

        return self._cg_stats if self._cg_stats is not None else CodegenStats()

    def bind_lanes(self, xp=None, vectorized=None, reason: str = ""):
        """Bind the lane-batched linearizer of this problem on ``xp`` — the
        one place a group provider is chosen, by who binds.

        ``xp=None`` is the scalar host lane: the codegen tier's C kernel
        when one was built, else the interpreted provider (why not is in
        :meth:`codegen_stats`).  A batch passes its backend and its
        vectorized provider, or ``vectorized=None`` with the ``reason`` it
        could not be built to bind the interpreted provider; a batch never
        consults the codegen tier.
        """
        if xp is not None:
            if vectorized is not None:
                return LaneLinearizer(self, xp, vectorized, "vectorized")
            return LaneLinearizer(
                self, xp, self._interpreted_groups, "interpreted", None, reason
            )
        kernels = self.codegen_kernels()
        if kernels is not None and kernels.active:
            provider, tier = kernels.provider(), "fused"
        else:
            provider, tier = self._interpreted_groups, "interpreted"
        return LaneLinearizer(self, HOST, provider, tier, self._cg_stats)

    @property
    def lanes(self) -> LaneLinearizer:
        """The B=1 host lane the evaluation methods run on (bound on first
        use; :meth:`set_codegen` rebinds it)."""
        if self._lanes is None:
            self._lanes = self.bind_lanes()
        return self._lanes

    def _codegen_disable(self, reason: str) -> None:
        """Drop to the interpreted provider permanently for this problem."""
        self._cg_kernels.disable(reason)
        self._lanes = None

    # -- decision-vector layout (Eq. 5) -----------------------------------------
    def state_slice(self, k: int) -> slice:
        """Slice of ``z`` holding ``x_k`` (``0 <= k <= N``)."""
        if not 0 <= k <= self.N:
            raise TranscriptionError(f"state index {k} outside [0, {self.N}]")
        return slice(k * self.nx, (k + 1) * self.nx)

    def input_slice(self, k: int) -> slice:
        """Slice of ``z`` holding ``u_k`` (``0 <= k < N``).

        With move blocking, steps in the same block share one knot, so the
        same slice is returned for every ``k`` in a block — gradient/Hessian
        accumulation through this slice then sums block members' sensitivities,
        which is exactly the chain rule for the shared variable.
        """
        if not 0 <= k < self.N:
            raise TranscriptionError(f"input index {k} outside [0, {self.N - 1}]")
        base = (self.N + 1) * self.nx
        knot = k // self.move_block
        return slice(base + knot * self.nu, base + (knot + 1) * self.nu)

    def _stage_keys(self, soft: Optional[np.ndarray]) -> np.ndarray:
        """Block index of every QP variable: ``k // move_block`` for each
        state ``x_k``, ``j`` for input knot ``j``, then (with a ``soft`` row
        mask) the block of each softened row's stage, for its slack."""
        B = self.move_block
        keys = [
            np.repeat(np.arange(self.N + 1) // B, self.nx),
            np.repeat(np.arange(self.n_input_knots), self.nu),
        ]
        if soft is not None:
            keys.append(self.inequality_row_stages()[soft] // B)
        return np.concatenate(keys)

    def stage_permutation(
        self, soft: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Permutation ``perm`` interleaving the decision vector by block.

        ``z[perm]`` is a stable sort of the variables by block index
        ``k // move_block``: each block's states ``x_k``, then its shared
        input knot, then (given the ``soft`` inequality-row mask) the L1
        slack of every softened row of its stages, in row order.  At
        ``move_block == 1`` that is the stage-local ``[x_0, u_0, x_1, u_1,
        .., x_N]`` of structure-exploiting solvers (HPMPC, the paper's CPU
        baseline); with move blocking a knot sits beside the stages that
        share it.  Every KKT coupling then acts within a block group or
        between adjacent ones, so the condensed matrix ``H + J^T W J`` is
        block-diagonal and the banded kernels apply.  The slacks of a
        ``soft`` mask are the QP variables ``nz ..`` in mask order.
        """
        return np.argsort(self._stage_keys(soft), kind="stable")

    def kkt_half_bandwidth(self, soft: Optional[np.ndarray] = None) -> int:
        """Half-bandwidth ceiling of the stage-permuted KKT system.

        In the :meth:`stage_permutation` ordering every Hessian/Jacobian
        coupling spans at most one block group (``move_block`` states and
        their knot) plus the next state, so the half-bandwidth is bounded
        by ``(move_block + 1) nx + nu - 1`` — at ``move_block == 1`` the
        paper's ``b ≈ 2 nx + nu`` (§VIII-A) that the accelerator cost model
        assumes.  The condensed ``Phi = H + J^T W J`` is block-diagonal per
        group, and a group also holds its stages' L1 slacks, so given the
        ``soft`` row mask the ceiling widens to the widest group less one
        (MicroSat's stage group: 21 variables against ``nx + nu = 12``).  It also covers the
        block-banded Schur complement of the dynamics rows.
        """
        band = (self.move_block + 1) * self.nx + self.nu - 1
        if soft is None:
            return band
        return max(band, int(np.bincount(self._stage_keys(soft)).max()) - 1)

    def inequality_row_stages(self) -> np.ndarray:
        """Stage index ``k`` of every stacked inequality row.

        Mirrors the stacking order of :meth:`inequality_constraints`
        (state rows for ``k = 1 .. N-1``, then input rows for
        ``k = 0 .. N-1``, then terminal rows at ``k = N``).  The SQP layer
        uses this to place each soft-constraint slack next to its stage
        group so the extended QP stays banded.
        """
        parts = [
            np.repeat(np.arange(1, self.N), self._h_state_rows),
            np.repeat(np.arange(self.N), self._h_input_rows),
            np.full(self._h_term_rows, self.N, dtype=np.intp),
        ]
        stages = np.concatenate(parts).astype(np.intp)
        assert stages.shape == (self.n_ineq,)
        return stages

    def split(self, z: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Split ``z`` into the state matrix ``(N+1, nx)`` and the *per-step*
        input matrix ``(N, nu)`` (blocked knots are expanded)."""
        z = self._checked_z(z)
        xs = z[: (self.N + 1) * self.nx].reshape(self.N + 1, self.nx)
        knots = z[(self.N + 1) * self.nx :].reshape(self.n_input_knots, self.nu)
        us = np.repeat(knots, self.move_block, axis=0)[: self.N]
        return xs, us

    def join(self, xs: np.ndarray, us: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`split` (block representatives are the first
        step of each block)."""
        xs = np.asarray(xs, dtype=float).reshape(self.N + 1, self.nx)
        us = np.asarray(us, dtype=float).reshape(self.N, self.nu)
        knots = us[:: self.move_block]
        return np.concatenate([xs.ravel(), knots.ravel()])

    # -- symbolic construction ---------------------------------------------------
    def _discrete_step_exprs(self, memo: Memo) -> List[Expr]:
        """Symbolic ``x_{k+1} = F(x_k, u_k)`` via the chosen integrator."""
        f = list(self.model.dynamics_exprs)
        h = Const(self.dt)
        xs = self._state_vars
        done = memo.simplified

        if self.integrator == "euler":
            return [simplify(x + h * fx, done) for x, fx in zip(xs, f)]

        # Classic RK4 expanded symbolically; shared subexpressions keep the
        # DAG compact even for the 12-state UAV models.
        def shifted(stage_exprs: List[Expr], scale: float) -> List[Expr]:
            mapping = {
                x: simplify(x + Const(scale * self.dt) * k, done)
                for x, k in zip(xs, stage_exprs)
            }
            return [substitute(fx, mapping) for fx in f]

        k1 = f
        k2 = shifted(k1, 0.5)
        k3 = shifted(k2, 0.5)
        k4 = shifted(k3, 1.0)
        sixth = Const(self.dt / 6.0)
        return [
            simplify(x + sixth * (a + Const(2.0) * b + Const(2.0) * c + d), done)
            for x, a, b, c, d in zip(xs, k1, k2, k3, k4)
        ]

    def _build_dynamics(self, memo: Memo) -> None:
        step = self._discrete_step_exprs(memo)
        sv = self._state_vars
        iv = self._input_vars
        self._F = compile_function(step, sv + iv, "dyn_step")
        jac_x = [diff(e, v, memo) for e in step for v in sv]
        jac_u = [diff(e, v, memo) for e in step for v in iv]
        self._A = compile_function(jac_x, sv + iv, "dyn_jac_x")
        self._B = compile_function(jac_u, sv + iv, "dyn_jac_u")

    def _build_costs(self, memo: Memo) -> None:
        def quad_sum(penalties) -> Expr:
            total: Expr = Const(0.0)
            for p in penalties:
                total = total + Const(p.weight) * p.expr * p.expr
            return simplify(total, memo.simplified)

        run = quad_sum(self.task.running_penalties)
        term = quad_sum(self.task.terminal_penalties)

        # Penalty residual vectors + Jacobians for the Gauss-Newton Hessian
        # (the SQP driver builds H = 2 Jp^T W Jp per stage, which is PSD).
        run_pens = list(self.task.running_penalties)
        term_pens = list(self.task.terminal_penalties)
        self.w_run = np.array([p.weight for p in run_pens])
        self.w_term = np.array([p.weight for p in term_pens])
        run_vars_gn = self._state_vars + self._input_vars
        self._P_run = compile_function(
            [p.expr for p in run_pens] or [Const(0.0)], self._stage_vars, "pen_run"
        )
        self._P_run_jac = compile_function(
            [diff(p.expr, v, memo) for p in run_pens for v in run_vars_gn]
            or [Const(0.0)],
            self._stage_vars,
            "pen_run_jac",
        )
        self._P_term = compile_function(
            [p.expr for p in term_pens] or [Const(0.0)], self._term_vars, "pen_term"
        )
        self._P_term_jac = compile_function(
            [diff(p.expr, v, memo) for p in term_pens for v in self._state_vars]
            or [Const(0.0)],
            self._term_vars,
            "pen_term_jac",
        )

        run_vars = self._state_vars + self._input_vars
        self._L = compile_function([run], self._stage_vars, "cost_run")
        grad_run = [diff(run, v, memo) for v in run_vars]
        self._L_grad = compile_function(grad_run, self._stage_vars, "cost_run_grad")
        hess_run = [diff(g, v, memo) for g in grad_run for v in run_vars]
        self._L_hess = compile_function(hess_run, self._stage_vars, "cost_run_hess")

        self._Phi = compile_function([term], self._term_vars, "cost_term")
        grad_term = [diff(term, v, memo) for v in self._state_vars]
        self._Phi_grad = compile_function(
            grad_term, self._term_vars, "cost_term_grad"
        )
        hess_term = [diff(g, v, memo) for g in grad_term for v in self._state_vars]
        self._Phi_hess = compile_function(
            hess_term, self._term_vars, "cost_term_hess"
        )

    def _inequality_rows(self, constraints) -> List[Expr]:
        """Rewrite two-sided constraints into stacked ``h(z) <= 0`` rows."""
        rows: List[Expr] = []
        for c in constraints:
            if c.is_equality:
                continue
            if c.upper < _INF:
                rows.append(simplify(c.expr - Const(c.upper)))
            if c.lower > -_INF:
                rows.append(simplify(Const(c.lower) - c.expr))
        return rows

    def _equality_rows(self, constraints) -> List[Expr]:
        return [
            simplify(c.expr - Const(c.lower))
            for c in constraints
            if c.is_equality
        ]

    def _bound_rows(self, specs, upto: Optional[int] = None) -> List[Expr]:
        rows: List[Expr] = []
        for spec in specs:
            v = Var(spec.name)
            if spec.upper < _INF:
                rows.append(v - Const(spec.upper))
            if spec.lower > -_INF:
                rows.append(Const(spec.lower) - v)
        return rows

    def _build_constraints(self, memo: Memo) -> None:
        """Classify and compile the stage inequality / equality rows.

        Rows that involve any *state* variable are enforced at knots
        ``k = 1 .. N-1`` (running) and ``k = N`` (terminal): the measured
        initial state is pinned by an equality, so imposing a state
        constraint at ``k = 0`` would make the subproblem infeasible whenever
        the robot is measured slightly outside the constraint set — the
        standard MPC convention (and what ACADO generates) is to constrain
        only the *future* states.  Input-only rows are enforced at every
        ``k = 0 .. N-1`` where the input exists.
        """
        state_names = set(self.model.state_names)

        def uses_state(expr: Expr) -> bool:
            from repro.symbolic import variables_of

            return any(v.name in state_names for v in variables_of([expr]))

        run_rows = (
            self._bound_rows(self.model.states)
            + self._bound_rows(self.model.inputs)
            + self._inequality_rows(self.task.running_constraints)
        )
        state_rows = [r for r in run_rows if uses_state(r)]
        input_rows = [r for r in run_rows if not uses_state(r)]
        term_rows = self._bound_rows(self.model.states) + self._inequality_rows(
            self.task.terminal_constraints
        )
        run_eq = self._equality_rows(self.task.running_constraints)
        state_eq = [r for r in run_eq if uses_state(r)]
        input_eq = [r for r in run_eq if not uses_state(r)]
        term_eq = self._equality_rows(self.task.terminal_constraints)

        sv, iv = self._state_vars, self._input_vars
        run_vars = sv + iv

        self._h_state_rows = len(state_rows)
        self._h_input_rows = len(input_rows)
        self._h_term_rows = len(term_rows)
        self._eq_state_rows = len(state_eq)
        self._eq_input_rows = len(input_eq)
        self._eq_term_rows = len(term_eq)

        def compiled(rows, variables, name):
            return compile_function(rows or [Const(0.0)], variables, name)

        def compiled_jac(rows, wrt, variables, name):
            return compile_function(
                [diff(r, v, memo) for r in rows for v in wrt] or [Const(0.0)],
                variables,
                name,
            )

        self._h_state = compiled(state_rows, self._stage_vars, "ineq_state")
        self._h_state_jac = compiled_jac(
            state_rows, run_vars, self._stage_vars, "ineq_state_jac"
        )
        self._h_input = compiled(input_rows, self._stage_vars, "ineq_input")
        self._h_input_jac = compiled_jac(
            input_rows, run_vars, self._stage_vars, "ineq_input_jac"
        )
        self._h_term = compiled(term_rows, self._term_vars, "ineq_term")
        self._h_term_jac = compiled_jac(
            term_rows, sv, self._term_vars, "ineq_term_jac"
        )
        self._g_state = compiled(state_eq, self._stage_vars, "eq_state")
        self._g_state_jac = compiled_jac(
            state_eq, run_vars, self._stage_vars, "eq_state_jac"
        )
        self._g_input = compiled(input_eq, self._stage_vars, "eq_input")
        self._g_input_jac = compiled_jac(
            input_eq, run_vars, self._stage_vars, "eq_input_jac"
        )
        self._g_term = compiled(term_eq, self._term_vars, "eq_term")
        self._g_term_jac = compiled_jac(term_eq, sv, self._term_vars, "eq_term_jac")

    def _compute_counts(self) -> None:
        N, nx = self.N, self.nx
        self.n_eq = (
            nx  # initial condition
            + N * nx  # dynamics defects
            + max(N - 1, 0) * self._eq_state_rows
            + N * self._eq_input_rows
            + self._eq_term_rows
        )
        self.n_ineq = (
            max(N - 1, 0) * self._h_state_rows
            + N * self._h_input_rows
            + self._h_term_rows
        )

    # -- numeric evaluation over the full z vector ----------------------------------
    # The seven evaluation methods are the B=1 host lane of the shared
    # assembler (:mod:`repro.linearize`): ``[None]`` in, ``[0]`` out.
    def _knot_rows(self, xs, us, R) -> List[List[List[float]]]:
        """Per lane, the positional float arguments of every knot:
        ``x_k + u_k + ref_k`` for ``k < N`` and ``x_N + ref_N``.  The
        dynamics functions take the ``x_k + u_k`` prefix."""
        N = self.N
        xs, us = xs.tolist(), us.tolist()
        R = [[[]] * (N + 1)] * len(xs) if R is None else R.tolist()
        return [
            [x + u + r for x, u, r in zip(xl, ul, rl)] + [xl[N] + rl[N]]
            for xl, ul, rl in zip(xs, us, R)
        ]

    def _interpreted_groups(self, lanes, pt, name) -> Dict[str, object]:
        """The interpreted group provider: per-knot ``call_positional`` on
        plain python floats (per-call input validation costs more than the
        generated bodies).  State rows skip the pinned knot 0."""
        xp = lanes.xp
        rows = pt.scratch.get("rows")
        if rows is None:
            rows = pt.scratch["rows"] = self._knot_rows(
                xp.to_host(pt.xs),
                xp.to_host(pt.us),
                None if pt.R is None else xp.to_host(pt.R),
            )
        family, attr, _ = GROUP_INFO[name]
        fn = getattr(self, attr)
        call, n_in = fn.call_positional, fn.n_inputs
        if family == "term":
            out = [call(*lane[self.N][:n_in]) for lane in rows]
        else:
            ks = range(1 if name in STATE_ROWS else 0, self.N)
            out = [[call(*lane[k][:n_in]) for k in ks] for lane in rows]
        return {name: xp.asarray(np.array(out))}

    def _checked_z(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        if z.shape != (self.nz,):
            raise TranscriptionError(f"z has shape {z.shape}, expected ({self.nz},)")
        return z

    def _evaluate(self, method: str, z, ref, *x_init):
        """Run one assembler method on the B=1 lane.  Contract violations
        raise before any evaluation; a fused kernel that fails at run time
        drops this problem to the interpreted provider for good."""
        if ref is not None:
            ref = np.asarray(ref, dtype=float)
            if ref.ndim > 2:  # a lane stack is not one lane's reference:
                ref = [ref]  # rejected per lane, with its own shape
        args = (self._checked_z(z)[None], *x_init, ref)
        lanes = self.lanes
        try:
            return getattr(lanes, method)(*args)[0]
        except TranscriptionError:
            raise
        except Exception as exc:
            if lanes.tier == "interpreted":
                raise
            self._codegen_disable(f"runtime failure: {exc}")
            return self._evaluate(method, z, ref, *x_init)

    def objective(self, z: np.ndarray, ref: Optional[np.ndarray] = None) -> float:
        return float(self._evaluate("objective", z, ref))

    def objective_gradient(
        self, z: np.ndarray, ref: Optional[np.ndarray] = None
    ) -> np.ndarray:
        return self._evaluate("objective_gradient", z, ref)

    def objective_hessian(
        self, z: np.ndarray, ref: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Exact block-diagonal objective Hessian (dense assembly)."""
        xs, us = self.split(z)
        if ref is not None:
            ref = np.asarray(ref, dtype=float)
        rows = self._knot_rows(
            xs[None], us[None], normalize_ref(self, ref, 1, HOST)
        )[0]
        H = np.zeros((self.nz, self.nz))
        nxu = self.nx + self.nu
        for k in range(self.N):
            blk = np.array(self._L_hess.call_positional(*rows[k])).reshape(
                nxu, nxu
            )
            sx, su = self.state_slice(k), self.input_slice(k)
            H[sx, sx.start : sx.stop] += blk[: self.nx, : self.nx]
            H[sx, su.start : su.stop] += blk[: self.nx, self.nx :]
            H[su, sx.start : sx.stop] += blk[self.nx :, : self.nx]
            H[su, su.start : su.stop] += blk[self.nx :, self.nx :]
        sN = self.state_slice(self.N)
        H[sN, sN.start : sN.stop] += np.array(
            self._Phi_hess.call_positional(*rows[self.N])
        ).reshape(self.nx, self.nx)
        return H

    def objective_gauss_newton(
        self, z: np.ndarray, ref: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Gauss-Newton Hessian ``2 sum Jp^T W Jp`` (PSD by construction).

        For the weighted-least-squares objective the GN Hessian drops only the
        ``2 w p * grad^2 p`` curvature term; the gradient it implies,
        ``2 Jp^T W p``, is *exact* and equals :meth:`objective_gradient`.
        """
        return self._evaluate("objective_gauss_newton", z, ref)

    def equality_constraints(
        self,
        z: np.ndarray,
        x_init: np.ndarray,
        ref: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Stacked ``g(z) = 0``: initial condition, dynamics defects, task eq."""
        x_init = np.asarray(x_init, dtype=float)
        if x_init.shape != (self.nx,):
            raise TranscriptionError(
                f"x_init has shape {x_init.shape}, expected ({self.nx},)"
            )
        return self._evaluate("equality_constraints", z, ref, x_init[None])

    def equality_jacobian(
        self, z: np.ndarray, ref: Optional[np.ndarray] = None
    ) -> np.ndarray:
        return self._evaluate("equality_jacobian", z, ref)

    def inequality_constraints(
        self, z: np.ndarray, ref: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Stacked ``h(z) <= 0`` (bounds + task inequality constraints)."""
        return self._evaluate("inequality_constraints", z, ref)

    def inequality_jacobian(
        self, z: np.ndarray, ref: Optional[np.ndarray] = None
    ) -> np.ndarray:
        return self._evaluate("inequality_jacobian", z, ref)

    def _dynamics_contraction_fn(self):
        """Compiled Hessian of ``sigma^T F(x, u)`` over the stage variables.

        Built lazily (symbolic second derivatives of the integrator are
        expensive) and cached.  Used by the exact-Hessian SQP mode: the
        dynamics equality rows ``x_{k+1} - F(x_k, u_k)`` contribute
        ``-sum_i nu_i grad^2 F_i`` to the Lagrangian Hessian.  The build
        has its own memo: the ``nxu`` gradients and ``nxu**2`` second
        derivatives share one walk of the step's DAG per variable.
        """
        if getattr(self, "_contraction", None) is not None:
            return self._contraction
        sigma = [Var(f"_sigma[{i}]") for i in range(self.nx)]
        stage = self._state_vars + self._input_vars
        with Memo() as memo:
            weighted: Expr = Const(0.0)
            for s_var, f_expr in zip(sigma, self._discrete_step_exprs(memo)):
                weighted = weighted + s_var * f_expr
            weighted = simplify(weighted, memo.simplified)
            grads = [diff(weighted, v, memo) for v in stage]
            # column by column, so each variable's partials die with it
            cols = []
            for v in stage:
                cols.append([diff(g, v, memo) for g in grads])
                memo.release(v)
        hess = [col[i] for i in range(len(grads)) for col in cols]
        self._contraction = compile_function(
            hess, stage + sigma, "dyn_contraction"
        )
        return self._contraction

    def lagrangian_hessian(
        self,
        z: np.ndarray,
        nu: np.ndarray,
        ref: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Exact Hessian of the Lagrangian w.r.t. ``z`` (objective curvature
        plus the dynamics-multiplier contraction).

        Task-constraint curvature is omitted — the dominant neglected-by-GN
        term for these benchmarks is the integrator curvature, and leaving
        the inequality rows out keeps the matrix assembly cheap.  The result
        is in general indefinite; the QP layer's regularization escalation
        (inertia correction) convexifies it.
        """
        H = self.objective_hessian(z, ref)
        xs, us = self.split(z)
        xs_l, us_l = xs.tolist(), us.tolist()
        fn = self._dynamics_contraction_fn()
        nxu = self.nx + self.nu
        for k in range(self.N):
            # Multipliers of the defect rows x_{k+1} - F(x_k, u_k) = 0 sit
            # after the nx initial-condition rows.
            sigma = (-nu[self.nx * (k + 1) : self.nx * (k + 2)]).tolist()
            blk = np.array(
                fn.call_positional(*xs_l[k], *us_l[k], *sigma)
            ).reshape(nxu, nxu)
            sx, su = self.state_slice(k), self.input_slice(k)
            H[sx, sx] += blk[: self.nx, : self.nx]
            H[sx, su] += blk[: self.nx, self.nx :]
            H[su, sx] += blk[self.nx :, : self.nx]
            H[su, su] += blk[self.nx :, self.nx :]
        return H

    def variable_scales(self) -> np.ndarray:
        """Characteristic magnitude of every entry of ``z`` (for solver
        preconditioning).

        Bounded variables use ``max(|lower|, |upper|)``; unbounded ones
        default to 1.  The SQP driver solves its subproblems in the scaled
        variables ``z / scale`` so that regularization and damping act
        uniformly across states and inputs of very different units (e.g.
        satellite torques of O(1e-2) next to quaternions of O(1)).
        """

        def scale_of(spec) -> float:
            hi = max(abs(spec.lower), abs(spec.upper))
            if not np.isfinite(hi) or hi == 0.0:
                return 1.0
            return hi

        sx = np.array([scale_of(s) for s in self.model.states])
        su = np.array([scale_of(u) for u in self.model.inputs])
        return np.concatenate(
            [np.tile(sx, self.N + 1), np.tile(su, self.n_input_knots)]
        )

    def soft_inequality_mask(self) -> np.ndarray:
        """Boolean mask over the stacked inequality rows: True = softenable.

        State-involving rows (future-state constraints) are soft: the SQP
        driver gives them L1 slacks in each QP subproblem so linearization
        infeasibility cannot occur.  Input-only rows (actuator boxes) are
        hard — they are always feasible and must never be violated.
        """
        mask = np.concatenate(
            [
                np.ones(max(self.N - 1, 0) * self._h_state_rows, dtype=bool),
                np.zeros(self.N * self._h_input_rows, dtype=bool),
                np.ones(self._h_term_rows, dtype=bool),
            ]
        )
        assert mask.shape == (self.n_ineq,)
        return mask

    # -- initialization helpers -------------------------------------------------------
    def initial_guess(self, x_init: np.ndarray) -> np.ndarray:
        """Cold-start trajectory guess.

        For open-loop stable (or trim-balanced) plants the guess rolls the
        dynamics out under the trim input — dynamically feasible, so the
        first SQP linearization sees zero defect residuals.  For plants the
        model declares open-loop unstable (``rollout_guess=False``, e.g. the
        gravity-loaded Manipulator whose free rollout slams into the state
        box), every knot holds the measured state instead.
        """
        x_init = np.asarray(x_init, dtype=float)
        u0 = np.array(self.model.trim_inputs(), dtype=float)
        us = np.tile(u0, (self.N, 1))
        if not self.model.rollout_guess:
            xs = np.tile(x_init, (self.N + 1, 1))
            return self.join(xs, us)
        lo, hi = self.model.state_bounds()
        lo = np.maximum(np.asarray(lo), -1e6)
        hi = np.minimum(np.asarray(hi), 1e6)
        xs = np.empty((self.N + 1, self.nx))
        xs[0] = x_init
        u0_l = u0.tolist()
        for k in range(self.N):
            xs[k + 1] = np.clip(
                self._F.call_positional(*xs[k].tolist(), *u0_l), lo, hi
            )
        return self.join(xs, us)

    # -- metadata for compiler / cost models --------------------------------------------
    def stage_op_counts(self) -> Dict[str, Dict[str, int]]:
        """Primitive-op histograms per compiled stage function."""
        return {
            "dynamics": dict(self._F.op_counts),
            "dynamics_jac_x": dict(self._A.op_counts),
            "dynamics_jac_u": dict(self._B.op_counts),
            "cost_run": dict(self._L.op_counts),
            "cost_run_grad": dict(self._L_grad.op_counts),
            "cost_run_hess": dict(self._L_hess.op_counts),
            "cost_term": dict(self._Phi.op_counts),
            "cost_term_grad": dict(self._Phi_grad.op_counts),
            "cost_term_hess": dict(self._Phi_hess.op_counts),
            "penalty_run_jac": dict(self._P_run_jac.op_counts),
            "penalty_term_jac": dict(self._P_term_jac.op_counts),
            "ineq_state": dict(self._h_state.op_counts),
            "ineq_state_jac": dict(self._h_state_jac.op_counts),
            "ineq_input": dict(self._h_input.op_counts),
            "ineq_input_jac": dict(self._h_input_jac.op_counts),
            "ineq_term": dict(self._h_term.op_counts),
            "ineq_term_jac": dict(self._h_term_jac.op_counts),
        }

    def __repr__(self) -> str:
        return (
            f"TranscribedProblem({self.model.name}/{self.task.name}, N={self.N}, "
            f"nz={self.nz}, n_eq={self.n_eq}, n_ineq={self.n_ineq})"
        )
