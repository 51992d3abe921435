"""First-order QP subsystem, scalar path: ADMM-vs-IPM agreement, the
``QPOptions(method=...)`` dispatch seam, warm-starting across solves and
MPC ticks (RTI accumulation under ``budget_exhausted``), and the
SQP-with-ADMM closed loop."""

from dataclasses import replace
from time import perf_counter

import numpy as np
import pytest

from repro.batch.contract import QPOptions, SolveBudget
from repro.errors import SolverError
from repro.mpc import MPCController
from repro.mpc.qp import solve_qp
from repro.robots import build_benchmark

#: tight enough that the primal iterates (not just objectives) agree
ADMM_OPTS = QPOptions(
    method="admm",
    polish=False,
    admm_tolerance=1e-9,
    admm_max_iterations=20000,
)


def spd(n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    return scale * (A @ A.T + n * np.eye(n))


def random_qp(n, p, m, seed):
    rng = np.random.default_rng(seed)
    H = spd(n, seed)
    g = rng.normal(size=n)
    G = rng.normal(size=(p, n)) if p else None
    b = rng.normal(size=p) if p else None
    J = rng.normal(size=(m, n)) if m else None
    d = rng.normal(size=m) + 1.0 if m else None
    return H, g, G, b, J, d


class TestScalarADMM:
    @pytest.mark.parametrize("p,m", [(0, 0), (2, 0), (0, 4), (2, 4)])
    def test_matches_ipm(self, p, m):
        for seed in range(3):
            qp = random_qp(8, p, m, 120 + seed)
            ipm = solve_qp(*qp)
            admm = solve_qp(*qp, ADMM_OPTS)
            assert ipm.converged and admm.converged
            assert np.allclose(admm.x, ipm.x, atol=1e-5)
            if p:
                assert np.allclose(admm.nu, ipm.nu, atol=1e-4)
            if m:
                assert np.allclose(admm.lam, ipm.lam, atol=1e-4)

    def test_dispatch_via_options(self):
        qp = random_qp(6, 2, 3, 7)
        res = solve_qp(*qp, ADMM_OPTS)
        assert res.stats.mode == "admm"
        assert res.warm is not None
        assert set(res.warm) == {"x", "z", "y", "rho"}
        # The IPM path neither produces nor consumes warm state.
        assert solve_qp(*qp).warm is None

    def test_invalid_method_rejected(self):
        with pytest.raises(SolverError):
            QPOptions(method="sgd")

    def test_cached_factorization_reused(self):
        # One setup factorization, plus at most a few rho rescalings —
        # never one per iteration (the point of caching K^-1).
        qp = random_qp(8, 2, 4, 3)
        res = solve_qp(*qp, ADMM_OPTS)
        assert res.converged
        assert res.iterations > 5
        assert 1 <= res.stats.factorizations <= 4

    def test_warm_start_reduces_iterations(self):
        qp = random_qp(8, 2, 4, 11)
        cold = solve_qp(*qp, ADMM_OPTS)
        assert cold.converged and cold.warm is not None
        rewarm = solve_qp(*qp, ADMM_OPTS, warm=cold.warm)
        assert rewarm.converged
        assert rewarm.iterations <= max(2, cold.iterations // 10)
        assert np.allclose(rewarm.x, cold.x, atol=1e-6)

    def test_malformed_warm_ignored(self):
        qp = random_qp(8, 2, 4, 11)
        bad = {"x": np.zeros(3), "z": np.zeros(2), "y": np.zeros(2)}
        res = solve_qp(*qp, ADMM_OPTS, warm=bad)
        assert res.converged  # fell back to a cold start, didn't crash

    def test_bad_data_rejected_before_iterating(self):
        """Outside input is validated by the single-QP entry point itself:
        non-finite or mis-shaped data raises instead of becoming a
        silently ``failed`` lane."""
        H, g, G, b, J, d = random_qp(6, 2, 3, 5)
        bad_g = g.copy()
        bad_g[2] = np.nan
        for args in (
            (H[:5, :5], g, G, b, J, d),
            (H, bad_g, G, b, J, d),
            (H, g, G, b[:1], J, d),
            (H, g, G, b, J, None),
        ):
            with pytest.raises(SolverError):
                solve_qp(*args, ADMM_OPTS)

    def test_deadline_returns_best_iterate_and_warm(self):
        qp = random_qp(10, 3, 5, 21)
        res = solve_qp(*qp, ADMM_OPTS, deadline=perf_counter())
        assert res.budget_exhausted
        assert not res.converged
        assert np.all(np.isfinite(res.x))
        # The partial iterate is fit to resume from on the next tick.
        assert res.warm is not None
        resumed = solve_qp(*qp, ADMM_OPTS, warm=res.warm)
        assert resumed.converged

    def test_iteration_cap_stops_without_convergence(self):
        qp = random_qp(10, 3, 5, 22)
        capped = solve_qp(
            *qp, replace(ADMM_OPTS, admm_max_iterations=3)
        )
        assert not capped.converged
        assert capped.iterations <= 3
        assert np.all(np.isfinite(capped.x))


class TestSQPWithADMM:
    def _controllers(self):
        bench = build_benchmark("MobileRobot")
        problem = bench.transcribe(horizon=6)
        out = {}
        for method in ("ipm", "admm"):
            solver = bench.make_solver(problem)
            solver.options = replace(
                solver.options, qp=replace(solver.options.qp, method=method)
            )
            out[method] = bench, problem, solver
        return out

    def test_sqp_converges_with_admm(self):
        ctrls = self._controllers()
        _, _, ipm_solver = ctrls["ipm"]
        bench, _, admm_solver = ctrls["admm"]
        ref = ipm_solver.solve(bench.x0, ref=bench.ref)
        res = admm_solver.solve(bench.x0, ref=bench.ref)
        assert res.status == "converged"
        assert np.max(np.abs(res.z - ref.z)) < 1e-2

    @pytest.mark.parametrize("method", ["ipm", "admm"])
    def test_warm_carries_across_budgeted_ticks(self, method):
        """RTI accumulation: a tick that exhausts its QP budget must leave
        the solver resumable, and ``reset()`` must drop the carried state."""
        bench, _problem, solver = self._controllers()[method]
        ctrl = MPCController(solver)
        budget = SolveBudget(qp_iterations=25)
        u1 = ctrl.step(np.asarray(bench.x0, float), ref=bench.ref,
                       budget=budget)
        assert ctrl.last_result.status == "budget_exhausted"
        assert np.all(np.isfinite(u1))
        if method == "admm":
            assert solver._qp_warm is not None
        else:
            assert solver._qp_warm is None

        u2 = ctrl.step(np.asarray(bench.x0, float), ref=bench.ref,
                       budget=budget)
        assert np.all(np.isfinite(u2))

        ctrl.reset()
        assert solver._qp_warm is None
