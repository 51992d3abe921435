"""Solver resilience layer: Ruiz equilibration for stiff QPs, the
stall/divergence ``ConditioningReport``, the active-set rescue polish, and
the health-driven ADMM->IPM fallback ladder across the scalar, batch, and
serve layers (plus the ``admm_stall``/``illcond_qp`` chaos fault kinds
that exercise it)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.batch import BatchSolver, CountingBackend
from repro.batch.contract import (
    IPMOptions,
    IPMResult,
    QPOptions,
    SolveBudget,
    SolverHealth,
)
from repro.batch.host import _polish_qp
from repro.faults import (
    CampaignConfig,
    FaultSchedule,
    FaultSpec,
    SessionFaultInjector,
    builtin_schedule,
    run_campaign,
)
from repro.firstorder import solve_qp_admm_batch
from repro.firstorder.precond import (
    identity_scale_batch,
    norm_spread_batch,
    ruiz_equilibrate_batch,
)
from repro.mpc import MPCController
from repro.mpc.qp import solve_qp
from repro.robots import build_benchmark
from repro.serve import ControlSession, SessionConfig
from repro.serve.telemetry import FleetMetrics, render_summary

ADMM_OPTS = QPOptions(
    method="admm",
    polish=False,
    admm_tolerance=1e-8,
    admm_max_iterations=20000,
)
#: the SQP options of a batched ADMM solve (otherwise the defaults)
ADMM_SQP = IPMOptions(qp=QPOptions(method="admm"))


def spd(n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    return scale * (A @ A.T + n * np.eye(n))


def random_qp(n, p, m, seed, skew=1.0):
    """A feasible random QP; ``skew > 1`` grades the Hessian's row/col
    scales across ``skew`` orders (congruence, so it stays SPD) — the
    norm-spread pattern of the stiff robots."""
    rng = np.random.default_rng(seed)
    H = spd(n, seed)
    if skew > 1.0:
        d0 = np.logspace(0.0, np.log10(skew), n)
        H = d0[:, None] * H * d0[None, :]
        g = rng.normal(size=n) * d0
    else:
        g = rng.normal(size=n)
    G = rng.normal(size=(p, n)) if p else None
    b = rng.normal(size=p) if p else None
    J = rng.normal(size=(m, n)) if m else None
    d = rng.normal(size=m) + 1.0 if m else None
    return H, g, G, b, J, d


def stacked_rows(qp):
    """The [G; J] constraint stack of one ``random_qp`` tuple."""
    _H, _g, G, _b, J, _d = qp
    rows = [r for r in (G, J) if r is not None]
    return np.vstack(rows) if rows else np.zeros((0, qp[0].shape[1]))


def stack_qps(qps):
    cols = list(zip(*qps))
    return tuple(None if c[0] is None else np.stack(c) for c in cols)


class StallHook:
    """Minimal duck-typed fault hook: forces the next ``n`` ADMM solves to
    report a stall, implements nothing else (the protocol is a subset)."""

    def __init__(self, n=1):
        self.n = n

    def force_stall(self):
        if self.n > 0:
            self.n -= 1
            return True
        return False


class FactorFailHook:
    """Duck-typed fault hook failing the next ``n`` factorization attempts
    (16 = one whole regularization ladder of the ADMM ``K`` build)."""

    def __init__(self, n):
        self.left = n

    def force_failure(self):
        if self.left > 0:
            self.left -= 1
            return True
        return False


# ---------------------------------------------------------------------------
# Ruiz equilibration (repro.firstorder.precond)
# ---------------------------------------------------------------------------


def ruiz_one_lane(qp):
    """Equilibrate one ``random_qp`` tuple as a one-lane stack; returns the
    scaled ``(H, g, A)``, the lane's scalings, and the unscaled ``A``."""
    A = stacked_rows(qp)
    Hs, gs, As, scale = ruiz_equilibrate_batch(
        qp[0][None], qp[1][None], A[None]
    )
    lane = {k: v[0] for k, v in scale.items()}
    return (Hs[0], gs[0], As[0]), lane, A


class TestRuizEquilibration:
    def test_spread_collapses_on_stiff_data(self):
        qp = random_qp(8, 2, 4, 0, skew=1e4)
        _scaled, eq, A = ruiz_one_lane(qp)
        before = norm_spread_batch(qp[0][None], A[None])[0]
        assert before > 1e6
        assert eq["spread_before"] == pytest.approx(before)
        assert eq["spread_after"] < 10.0
        assert eq["iters"] >= 1

    def test_scaling_relations_are_exact(self):
        """The returned data must be exactly ``c D H D``, ``c D g``,
        ``E A D`` for the returned scalings — the mapping between the two
        spaces is algebraic, not approximate."""
        qp = random_qp(6, 2, 3, 1, skew=1e3)
        (Hs, gs, As), eq, A = ruiz_one_lane(qp)
        D, E, c = eq["D"], eq["E"], eq["c"]
        assert np.allclose(Hs, c * D[:, None] * qp[0] * D[None, :], rtol=1e-12)
        assert np.allclose(gs, c * D * qp[1], rtol=1e-12)
        assert np.allclose(As, E[:, None] * A * D[None, :], rtol=1e-12)
        assert np.allclose(eq["Dinv"] * D, 1.0, rtol=1e-12)
        assert np.allclose(eq["Einv"] * E, 1.0, rtol=1e-12)
        assert eq["cinv"] * c == pytest.approx(1.0, rel=1e-12)

    def test_warm_round_trip(self):
        """A warm triple crosses into the equilibrated space and back
        through the solver itself: resuming an equilibrated solve from an
        arbitrary (unscaled) warm dict under a deadline that allows no
        iteration must hand the same triple back (``z`` clamped into the
        box, which an equality row pins and an inactive bound leaves)."""
        qp = random_qp(6, 2, 3, 2, skew=1e3)
        rng = np.random.default_rng(0)
        x, y = rng.normal(size=6), rng.normal(size=5)
        z = np.concatenate([qp[3], qp[5] - 1.0])  # inside [l, u]
        res = solve_qp(
            *qp, ADMM_OPTS, deadline=0.0,
            warm={"x": x, "z": z, "y": y, "rho": 0.3},
        )
        assert res.stats.conditioning.equilibrated
        assert res.iterations == 0 and res.budget_exhausted
        assert np.allclose(res.warm["x"], x, rtol=1e-12)
        assert np.allclose(res.warm["z"], z, rtol=1e-12)
        assert np.allclose(res.warm["y"], y, rtol=1e-12)
        assert res.warm["rho"] == pytest.approx(0.3)

    def test_identity_is_bit_exact(self):
        eq = identity_scale_batch(1, 5, 3)
        v = np.random.default_rng(3).normal(size=(1, 5))
        w = np.random.default_rng(4).normal(size=(1, 3))
        for key in ("D", "Dinv"):
            assert np.array_equal(eq[key] * v, v)
        for key in ("E", "Einv"):
            assert np.array_equal(eq[key] * w, w)
        assert np.array_equal(eq["c"][:, None] * w * eq["cinv"][:, None], w)

    def test_batch_matches_scalar_per_lane(self):
        """Each lane of a stack against the same lane equilibrated alone."""
        qps = [random_qp(6, 0, 4, 10 + i, skew=10.0 ** (2 + i)) for i in range(3)]
        H = np.stack([q[0] for q in qps])
        g = np.stack([q[1] for q in qps])
        A = np.stack([q[4] for q in qps])
        Hb, gb, Ab, scale = ruiz_equilibrate_batch(H, g, A)
        assert np.array_equal(
            norm_spread_batch(H, A),
            [norm_spread_batch(q[0][None], q[4][None])[0] for q in qps],
        )
        for i, q in enumerate(qps):
            # Each lane equilibrates to its own fixpoint (see the bit-for-bit
            # test below).
            _scaled, alone, _A = ruiz_one_lane(q)
            assert norm_spread_batch(Hb, Ab)[i] < 10.0
            assert alone["spread_after"] < 10.0
            assert np.allclose(
                Hb[i],
                scale["c"][i]
                * scale["D"][i][:, None]
                * q[0]
                * scale["D"][i][None, :],
                rtol=1e-12,
            )


    @pytest.mark.parametrize("seed", range(20))
    def test_lane_in_a_mixed_batch_equals_the_lane_alone(self, seed):
        """A lane stops at its own fixpoint: batched with a 1e5-skewed mate
        that needs more sweeps, a calm lane's scaled data, scalings and
        sweep count are bit-identical to the same lane equilibrated alone
        (frozen sweeps multiply by exactly 1.0)."""
        calm = random_qp(6, 0, 4, 300 + seed, skew=10.0)
        stiff = random_qp(6, 0, 4, 500 + seed, skew=1e5)
        H = np.stack([calm[0], stiff[0]])
        g = np.stack([calm[1], stiff[1]])
        A = np.stack([calm[4], stiff[4]])
        Hb, gb, Ab, scale = ruiz_equilibrate_batch(H, g, A)
        for lane, q in enumerate((calm, stiff)):
            (Hs, gs, As), alone, _A = ruiz_one_lane(q)
            assert np.array_equal(Hb[lane], Hs)
            assert np.array_equal(gb[lane], gs)
            assert np.array_equal(Ab[lane], As)
            for key in ("D", "E", "c", "iters"):
                assert np.array_equal(scale[key][lane], alone[key]), key
        assert scale["iters"].shape == (2,)


class TestEquilibrationGate:
    def test_calm_problem_is_left_alone(self):
        """Below the norm-spread gate, equilibration must not run — the
        result is bit-identical to an explicitly disabled run."""
        qp = random_qp(8, 2, 4, 5)
        on = solve_qp(*qp, ADMM_OPTS)
        off = solve_qp(*qp, replace(ADMM_OPTS, admm_equilibrate=False))
        assert not on.stats.conditioning.equilibrated
        assert np.array_equal(on.x, off.x)
        assert on.iterations == off.iterations

    def test_stiff_problem_engages_and_matches_ipm(self):
        qp = random_qp(8, 2, 4, 0, skew=1e4)
        res = solve_qp(*qp, ADMM_OPTS)
        cond = res.stats.conditioning
        assert cond.equilibrated
        assert cond.norm_spread_before > ADMM_OPTS.admm_equilibrate_spread
        assert cond.norm_spread_after < 10.0
        assert res.converged
        ipm = solve_qp(*qp)
        assert np.allclose(res.x, ipm.x, atol=1e-4)

    def test_warm_start_survives_equilibrated_solves(self):
        """Warm dicts travel in the unscaled space: a warm restart across
        re-equilibration must converge fast to the same point."""
        qp = random_qp(8, 2, 4, 3, skew=1e4)
        cold = solve_qp(*qp, ADMM_OPTS)
        assert cold.converged and cold.warm is not None
        rewarm = solve_qp(*qp, ADMM_OPTS, warm=cold.warm)
        assert rewarm.converged
        assert rewarm.iterations <= max(2, cold.iterations // 10)
        assert np.allclose(rewarm.x, cold.x, atol=1e-6)

    def test_regularization_leaves_the_fixed_point_alone(self):
        """``K`` carries ``sigma + reg`` on its diagonal, so the right-hand
        side must too: with plain ``sigma x`` there, the fixed point is off
        by ``reg * x``, which the unscaling of an equilibrated stiff QP
        amplifies into a residual floor of 1.4e-4 on this problem."""
        qp = random_qp(8, 2, 4, 1, skew=1e4)
        res = solve_qp(
            *qp,
            replace(
                ADMM_OPTS,
                admm_tolerance=1e-14,
                admm_stall_iterations=0,
                admm_max_iterations=4000,
            ),
        )
        assert res.stats.conditioning.equilibrated
        assert min(res.gap_history) < 1e-8
        assert np.allclose(res.x, solve_qp(*qp).x, atol=1e-9)

    def test_gate_threshold_is_respected(self):
        qp = random_qp(8, 2, 4, 5)  # calm: spread well under 100
        forced = solve_qp(
            *qp, replace(ADMM_OPTS, admm_equilibrate_spread=1.0)
        )
        assert forced.stats.conditioning.equilibrated
        assert forced.converged


# ---------------------------------------------------------------------------
# Active-set rescue polish (drop-first repair discipline)
# ---------------------------------------------------------------------------


class TestPolish:
    @pytest.mark.parametrize("seed", range(4))
    def test_superset_guess_repaired_by_dropping_first(self, seed):
        """A guess that wrongly pins extra rows must converge by *evicting*
        the negative-multiplier rows — the case where simultaneous
        add+drop repair used to thrash."""
        qp = random_qp(8, 2, 6, 40 + seed)
        ipm = solve_qp(*qp)
        rng = np.random.default_rng(seed)
        x_guess = ipm.x + 0.01 * rng.standard_normal(8)
        lam_guess = ipm.lam.copy()
        inactive = np.flatnonzero(lam_guess < 1e-8)
        lam_guess[inactive[:2]] = 0.5  # pretend two slack rows bind
        pol = _polish_qp(*qp, x_guess, lam_guess, 1e-8, 1e-8)
        assert pol is not None and pol["converged"]
        assert np.allclose(pol["x"], ipm.x, atol=1e-5)
        assert np.all(pol["lam"] >= 0.0)

    def test_dual_infeasible_candidate_never_wins(self):
        """From the converged IPM iterate of Quadrotor N=16's first
        subproblem, the absolute 1e-6 guess pins rows the optimum leaves
        free.  That candidate solves its equalities to roundoff (residual
        3.6e-15) at objective -17.52 against the optimum's -17.69, with
        negative multipliers on the pinned rows; it must lose to the
        repaired candidate, and is never called converged."""
        from tests.test_batch_qp import first_subproblem

        H, g, G, b, J, d, bw = first_subproblem("Quadrotor", 16)
        ipm = solve_qp(H, g, G, b, J, d, QPOptions(max_iterations=200), bandwidth=bw)
        assert ipm.converged
        pol = _polish_qp(H, g, G, b, J, d, ipm.x, ipm.lam, 1e-9, 1e-8)
        objective = lambda x: 0.5 * x @ H @ x + g @ x  # noqa: E731
        assert pol is not None and pol["converged"] and pol["r_sign"] == 0.0
        assert abs(objective(pol["x"]) - objective(ipm.x)) <= 1e-6
        assert np.all(pol["lam"] >= 0.0)

    def test_polished_stall_does_not_need_fallback(self):
        """``needs_fallback`` is stall-or-divergence *minus* a successful
        polish: a repaired solve must not trigger the rescue ladder."""
        qp = random_qp(8, 2, 4, 7)
        res = solve_qp(
            *qp, replace(ADMM_OPTS, polish=True), fault_hook=StallHook()
        )
        cond = res.stats.conditioning
        assert cond.stalled
        if cond.polished:
            assert res.converged
            assert not cond.needs_fallback
        else:
            assert cond.needs_fallback


# ---------------------------------------------------------------------------
# Scalar ADMM->IPM rescue (mpc.ipm fallback ladder)
# ---------------------------------------------------------------------------


class TestScalarRescue:
    def _admm_solver(self, polish=False, fallback=True):
        bench = build_benchmark("MobileRobot")
        problem = bench.transcribe(horizon=6)
        solver = bench.make_solver(problem)
        solver.options = replace(
            solver.options,
            qp=replace(
                solver.options.qp,
                method="admm",
                polish=polish,
                admm_fallback=fallback,
            ),
        )
        return bench, solver

    def test_forced_stall_is_rescued_by_ipm(self):
        bench, solver = self._admm_solver()
        solver.fault_hook = StallHook()
        res = solver.solve(bench.x0, ref=bench.ref)
        assert res.status == "converged"
        assert res.health.method_fallbacks == 1
        assert any(n.startswith("admm_fallback") for n in res.health.notes)
        ref = build_benchmark("MobileRobot").make_solver(
            solver.problem
        ).solve(bench.x0, ref=bench.ref)
        assert np.max(np.abs(res.z - ref.z)) < 1e-2

    def test_fallback_disabled_leaves_stall_alone(self):
        bench, solver = self._admm_solver(fallback=False)
        solver.fault_hook = StallHook()
        res = solver.solve(bench.x0, ref=bench.ref)
        assert res.health.method_fallbacks == 0

    def test_rescue_invalidates_admm_warm_state(self):
        """Warm-start hygiene, ADMM->IPM direction: the stalled iterate
        must not survive as warm state once the rescue hands the
        subproblem to the IPM (which never returns a warm dict)."""
        bench, solver = self._admm_solver()
        ctrl = MPCController(solver)
        x0 = np.asarray(bench.x0, float)
        # Tick 1: budget-exhausted ADMM tick carries warm state (RTI).
        ctrl.step(x0, ref=bench.ref, budget=SolveBudget(qp_iterations=25))
        assert ctrl.last_result.status == "budget_exhausted"
        assert solver._qp_warm is not None
        # Tick 2: every ADMM subproblem stalls -> each is rescued by the
        # IPM, so the carried ADMM iterate is dropped and never refreshed.
        solver.fault_hook = StallHook(n=1000)
        ctrl.step(x0, ref=bench.ref, budget=SolveBudget(qp_iterations=500))
        assert ctrl.last_result.health.method_fallbacks >= 1
        assert solver._qp_warm is None

    def test_post_rescue_admm_tick_restarts_cold_then_rewarms(self):
        """Warm-start hygiene, IPM->ADMM direction: after a rescued tick
        the next ADMM tick starts cold (no stale triple) and re-warms
        from its own clean solve."""
        bench, solver = self._admm_solver()
        ctrl = MPCController(solver)
        x0 = np.asarray(bench.x0, float)
        solver.fault_hook = StallHook(n=1000)
        ctrl.step(x0, ref=bench.ref, budget=SolveBudget(qp_iterations=500))
        assert solver._qp_warm is None
        solver.fault_hook = None
        u = ctrl.step(x0, ref=bench.ref)
        assert np.all(np.isfinite(u))
        assert ctrl.last_result.status == "converged"
        assert solver._qp_warm is not None  # re-warmed by the clean solve

    def test_rescue_respects_exhausted_qp_budget(self):
        """No remaining QP budget -> no rescue attempt (the ladder cannot
        overdraw the per-step contract)."""
        bench, solver = self._admm_solver()
        solver.fault_hook = StallHook(n=1000)
        res = solver.solve(
            bench.x0, ref=bench.ref, budget=SolveBudget(qp_iterations=5)
        )
        assert res.status == "budget_exhausted"
        assert res.health.method_fallbacks == 0

    def test_failed_admm_lane_is_rescued(self):
        """An ADMM subproblem whose ``K`` cannot be factorized up the whole
        ladder is a rescue candidate like a stalled one (one rule for every
        lane count) — not a ``diverged`` solve."""
        bench, solver = self._admm_solver()
        solver.fault_hook = FactorFailHook(16)
        res = solver.solve(bench.x0, ref=bench.ref)
        assert solver.fault_hook.left == 0
        assert res.status == "converged"
        assert res.health.method_fallbacks == 1
        assert "admm_fallback_it1" in res.health.notes
        assert res.health.factorization_retries >= 16


# ---------------------------------------------------------------------------
# Batched lane-scatter rescue (batch.ipm fallback ladder)
# ---------------------------------------------------------------------------


class TestBatchRescue:
    @pytest.fixture(scope="class")
    def mobile(self):
        bench = build_benchmark("MobileRobot")
        problem = bench.transcribe(horizon=6)
        rng = np.random.default_rng(31)
        X0 = np.stack(
            [
                np.asarray(bench.x0, float)
                + 0.03 * rng.standard_normal(problem.nx)
                for _ in range(3)
            ]
        )
        return bench, problem, X0

    def _solve_with_stall(self, problem, X0, refs, stall_lane):
        """Run the batched SQP with lane ``stall_lane``'s first QP forced
        to stall by a per-lane hook (the deterministic stand-in for a
        stiff lane), exercising the real detect/gather/re-solve/scatter
        path."""
        solver = BatchSolver(problem, ADMM_SQP)
        if stall_lane is not None:
            solver.fault_hooks = [
                StallHook() if lane == stall_lane else None
                for lane in range(X0.shape[0])
            ]
        return solver.solve(X0, refs=refs)

    def test_non_stalling_lanes_bit_identical(self, mobile):
        """The rescue must be surgical: lanes that did not stall produce
        bit-identical iterates whether or not some *other* lane was
        gathered, re-solved, and scattered."""
        bench, problem, X0 = mobile
        refs = [bench.ref] * 3
        plain, _ = self._solve_with_stall(problem, X0, refs, None)
        rescued, _ = self._solve_with_stall(problem, X0, refs, 1)
        assert rescued[1].health.method_fallbacks == 1
        assert rescued[1].status == "converged"
        for lane in (0, 2):
            assert rescued[lane].health.method_fallbacks == 0
            assert np.array_equal(rescued[lane].z, plain[lane].z)
            assert rescued[lane].iterations == plain[lane].iterations

    def test_rescue_respects_exhausted_qp_budget(self, mobile):
        """Lane twin of the scalar rule: a stalled run that ate the lane's
        whole QP iteration budget is not rescued — the lane freezes
        ``budget_exhausted`` with the stalled direction discarded — and
        its batch-mates do not notice."""
        bench, problem, X0 = mobile
        solver = BatchSolver(problem, ADMM_SQP)
        solver.fault_hooks = [None, StallHook(n=1000), None]
        budgets = [None, SolveBudget(qp_iterations=5), None]
        res, _ = solver.solve(X0, refs=[bench.ref] * 3, budgets=budgets)
        assert res[1].status == "budget_exhausted"
        assert res[1].health.method_fallbacks == 0
        assert (res[1].iterations, res[1].qp_iterations) == (1, 5)
        untouched, _ = BatchSolver(problem, ADMM_SQP).solve(
            X0[1:2],
            refs=[bench.ref],
            budgets=[SolveBudget(qp_iterations=0)],
        )
        assert np.array_equal(res[1].z, untouched[0].z)
        mates, _ = BatchSolver(problem, ADMM_SQP).solve(
            X0[[0, 2]], refs=[bench.ref] * 2
        )
        for lane, mate in zip((0, 2), mates):
            assert res[lane].status == mate.status == "converged"
            assert np.array_equal(res[lane].z, mate.z)
            assert np.array_equal(res[lane].nu, mate.nu)
            assert res[lane].residual_history == mate.residual_history

    def test_rescued_lane_matches_scalar_reference(self, mobile):
        bench, problem, X0 = mobile
        refs = [bench.ref] * 3
        rescued, _ = self._solve_with_stall(problem, X0, refs, 1)
        scalar = bench.make_solver(problem)
        ref = scalar.solve(X0[1], ref=bench.ref)
        assert np.max(np.abs(rescued[1].z - ref.z)) < 1e-2


class TestBatchEquilibration:
    def _mixed_batch(self):
        """Lanes 0/2/3 calm, lane 1 stiff (spread far over the gate)."""
        qps = [
            random_qp(8, 2, 4, 200 + i, skew=1e5 if i == 1 else 1.0)
            for i in range(4)
        ]
        return qps, stack_qps(qps)

    def test_per_lane_gating(self):
        _qps, stacked = self._mixed_batch()
        res = solve_qp_admm_batch(*stacked, ADMM_OPTS)
        conds = [st.conditioning for st in res.stats]
        assert conds[1].equilibrated
        assert conds[1].norm_spread_after < 10.0
        for lane in (0, 2, 3):
            assert not conds[lane].equilibrated

    def test_calm_lanes_bit_identical_to_disabled(self):
        """Gated-off lanes must be untouched by the per-lane scaling —
        bit-identical to a run with equilibration disabled entirely."""
        _qps, stacked = self._mixed_batch()
        on = solve_qp_admm_batch(*stacked, ADMM_OPTS)
        off = solve_qp_admm_batch(
            *stacked, replace(ADMM_OPTS, admm_equilibrate=False)
        )
        for lane in (0, 2, 3):
            assert np.array_equal(on.x[lane], off.x[lane])
            assert on.iterations[lane] == off.iterations[lane]

    def test_equilibration_adds_no_per_iteration_syncs(self):
        """The scaling tensors ride the one-time upload: with equilibration
        engaged, host traffic must stay independent of iteration count."""
        _qps, stacked = self._mixed_batch()

        def syncs(max_it):
            xp = CountingBackend()
            opts = replace(
                ADMM_OPTS, admm_tolerance=0.0, admm_max_iterations=max_it
            )
            solve_qp_admm_batch(*stacked, opts, backend=xp, sync_interval=0)
            return xp.sync_count + xp.upload_count

        assert syncs(5) == syncs(60)


# ---------------------------------------------------------------------------
# Serve-layer method-health demotion (session + telemetry)
# ---------------------------------------------------------------------------


class RescueScriptSolver:
    """Stub solver playing back a per-step count of ADMM->IPM rescues."""

    def __init__(self, problem, rescue_counts):
        self.problem = problem
        self.script = list(rescue_counts)
        self.calls = 0
        self.stats = {}
        self.warm_resets = 0

    def reset_qp_warm(self):
        self.warm_resets += 1

    def solve(self, x_init, ref=None, z_warm=None, budget=None):
        rescues = self.script[min(self.calls, len(self.script) - 1)]
        self.calls += 1
        p = self.problem
        z = p.join(
            np.zeros((p.N + 1, p.nx)), np.zeros((p.N, p.nu))
        )
        health = SolverHealth(method_fallbacks=rescues)
        return IPMResult(
            z=z,
            converged=True,
            iterations=2,
            qp_iterations=6,
            objective=1.0,
            kkt_residual=1e-7,
            nu=None,
            lam=None,
            status="converged",
            solve_time=0.001,
            health=health,
        )


@pytest.fixture(scope="module")
def cartpole_problem():
    bench = build_benchmark("CartPole")
    return bench.transcribe(horizon=5)


def rescue_session(problem, rescue_counts, **cfg):
    cfg.setdefault("robot", "CartPole")
    cfg.setdefault("deadline_s", None)
    cfg.setdefault("degrade_after", 3)
    cfg.setdefault("qp_method", "admm")
    solver = RescueScriptSolver(problem, rescue_counts)
    session = ControlSession(
        "r0", SessionConfig(**cfg), MPCController(solver)
    )
    return session, solver


class TestMethodDemotion:
    X = np.zeros(4)

    def test_streak_of_rescued_solves_demotes(self, cartpole_problem):
        session, solver = rescue_session(cartpole_problem, [1, 1, 1, 0])
        outs = [session.step(self.X) for _ in range(3)]
        assert [o.method_fallbacks for o in outs] == [1, 1, 1]
        assert [o.method_demoted for o in outs] == [False, False, True]
        assert session.qp_method == "ipm"
        assert session.config.qp_method == "admm"  # config is immutable
        assert solver.warm_resets == 1  # hygiene across the method switch

    def test_clean_solve_resets_the_streak(self, cartpole_problem):
        session, _solver = rescue_session(
            cartpole_problem, [1, 1, 0, 1, 1, 0]
        )
        for _ in range(6):
            session.step(self.X)
        assert session.qp_method == "admm"  # never three in a row

    def test_payload_ships_effective_method(self, cartpole_problem):
        session, _solver = rescue_session(cartpole_problem, [1])
        assert session.solve_payload(self.X)["qp_method"] == "admm"
        for _ in range(3):
            session.step(self.X)
        assert session.qp_method == "ipm"
        assert session.solve_payload(self.X)["qp_method"] == "ipm"

    def test_reset_and_restart_repromote(self, cartpole_problem):
        for recover in ("reset", "restart"):
            session, _solver = rescue_session(cartpole_problem, [1])
            for _ in range(3):
                session.step(self.X)
            assert session.qp_method == "ipm"
            getattr(session, recover)()
            assert session.qp_method == "admm"

    def test_ipm_sessions_never_demote(self, cartpole_problem):
        session, solver = rescue_session(
            cartpole_problem, [1], qp_method="ipm"
        )
        for _ in range(5):
            out = session.step(self.X)
            assert not out.method_demoted
        assert session.qp_method == "ipm"
        assert solver.warm_resets == 0


class TestMethodHealthTelemetry:
    def _outcome(self, session, fallbacks, demoted=False):
        out = session.step(np.zeros(4))
        out.method_fallbacks = fallbacks
        out.method_demoted = demoted
        return out

    def test_fleet_counters_accumulate(self, cartpole_problem):
        session, _solver = rescue_session(cartpole_problem, [0])
        metrics = FleetMetrics()
        metrics.observe_step("r0", self._outcome(session, 2))
        metrics.observe_step("r0", self._outcome(session, 1, demoted=True))
        assert metrics.fleet.method_fallbacks == 3
        assert metrics.fleet.method_demotions == 1
        assert metrics.sessions["r0"].method_fallbacks == 3
        d = metrics.to_dict()["fleet"]
        assert d["method_fallbacks"] == 3
        assert d["method_demotions"] == 1

    def test_summary_renders_rescues_only_when_present(self, cartpole_problem):
        session, _solver = rescue_session(cartpole_problem, [0])
        metrics = FleetMetrics()
        metrics.observe_step("r0", self._outcome(session, 0))
        assert "method rescues" not in render_summary(metrics, {})
        metrics.observe_step("r0", self._outcome(session, 4, demoted=True))
        text = render_summary(metrics, {})
        assert "fallbacks=4" in text and "demotions=1" in text


# ---------------------------------------------------------------------------
# Chaos fault kinds + the stalls_rescued recovery invariant
# ---------------------------------------------------------------------------


class TestResilienceFaults:
    def _injector(self, kind, magnitude=None):
        spec = FaultSpec(kind, 0, 4, magnitude=magnitude)
        inj = SessionFaultInjector(FaultSchedule((spec,), seed=1))
        inj.advance(0)
        return inj

    def test_admm_stall_kind_counts_down(self):
        inj = self._injector("admm_stall", magnitude=2)
        assert inj.force_stall()
        assert inj.force_stall()
        assert not inj.force_stall()  # consumed for this tick
        inj.advance(1)
        assert inj.force_stall()  # re-armed next tick
        inj.advance(10)  # window closed
        assert not inj.force_stall()

    def test_illcond_qp_scales_one_row_col(self):
        inj = self._injector("illcond_qp", magnitude=1e5)
        H = spd(6, 9)
        out = inj.transform_qp(H)
        assert out is not H  # pure w.r.t. the input
        assert np.allclose(out, out.T)  # congruence keeps symmetry
        ratio = np.max(np.abs(out), axis=0) / np.max(np.abs(H), axis=0)
        assert np.max(ratio) > 1e4  # one column blew up
        # Deterministic: the same (tick, session, spec) scales the same row.
        inj2 = self._injector("illcond_qp", magnitude=1e5)
        assert np.array_equal(out, inj2.transform_qp(H))

    def test_inactive_faults_are_identity(self):
        inj = self._injector("admm_stall")
        H = spd(5, 2)
        assert inj.transform_qp(H) is H
        inj.advance(99)
        assert not inj.force_stall()

    def test_resilience_builtin_schedule(self):
        sched = builtin_schedule("resilience", ticks=40)
        kinds = {s.kind for s in sched.specs}
        assert "admm_stall" in kinds and "illcond_qp" in kinds
        assert sched.clear_tick <= 24  # recovery window stays observable


class TestResilienceCampaign:
    @pytest.mark.slow
    def test_stall_campaign_recovers_with_rescues(self):
        """The acceptance gate in miniature: a seeded admm_stall campaign
        on the stiff robot ends with zero unrecovered sessions and a
        nonzero fleet rescue count — no silent bad plans."""
        report = run_campaign(
            CampaignConfig(
                robot="Manipulator",
                schedule="resilience",
                sessions=1,
                ticks=10,
                horizon=6,
                deadline_s=None,
                qp_method="admm",
                seed=3,
            )
        )
        assert report.fired.get("admm_stall", 0) > 0
        assert "stalls_rescued" in report.invariants
        assert report.ok, report.violations
        assert report.metrics.fleet.method_fallbacks > 0

    def test_ipm_campaign_skips_stall_invariant(self):
        report = run_campaign(
            CampaignConfig(
                robot="CartPole",
                schedule="smoke",
                sessions=1,
                ticks=12,
                qp_method="ipm",
                seed=0,
            )
        )
        assert "stalls_rescued" not in report.invariants
