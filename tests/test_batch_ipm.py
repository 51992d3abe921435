"""Batched SQP driver: per-lane agreement with the scalar solver,
per-lane budgets, warm-start validation, and the GN-only guard."""

import numpy as np
import pytest

from repro.batch import BatchSolver
from repro.batch.contract import SolveBudget
from repro.errors import SolverError, StateValidationError
from repro.mpc.transcription import TranscribedProblem
from repro.robots import build_benchmark


@pytest.fixture(scope="module")
def mobile():
    bench = build_benchmark("MobileRobot")
    problem = bench.transcribe(horizon=6)
    scalar = bench.make_solver(problem)
    return bench, problem, scalar


def lane_states(bench, problem, B, seed=0, noise=0.03):
    rng = np.random.default_rng(seed)
    return np.stack(
        [
            np.asarray(bench.x0, float) + noise * rng.standard_normal(problem.nx)
            for _ in range(B)
        ]
    )


def assert_lanes_match_scalar(bench, problem, scalar, B=4):
    batch = BatchSolver(problem, scalar.options)
    X0 = lane_states(bench, problem, B)
    results, report = batch.solve(X0, refs=[bench.ref] * B)
    assert report.lanes == B
    for i in range(B):
        ref = scalar.solve(X0[i], ref=bench.ref)
        got = results[i]
        assert got.status == ref.status
        assert got.iterations == ref.iterations
        assert np.allclose(got.z, ref.z, atol=1e-7)
        assert got.kkt_residual == pytest.approx(
            ref.kkt_residual, rel=1e-3, abs=1e-9
        )


class TestAgainstScalar:
    def test_lanes_match_scalar_solver(self, mobile):
        assert_lanes_match_scalar(*mobile)

    def test_move_blocked_lanes_match_scalar_solver(self, mobile):
        bench, problem, _ = mobile
        blocked = TranscribedProblem(
            bench.model, bench.task, horizon=problem.N, dt=bench.dt,
            move_block=2,
        )  # fmt: skip
        assert_lanes_match_scalar(bench, blocked, bench.make_solver(blocked))

    def test_stats_accumulate_scalar_keys(self, mobile):
        bench, problem, scalar = mobile
        batch = BatchSolver(problem, scalar.options)
        X0 = lane_states(bench, problem, 2)
        batch.solve(X0, refs=[bench.ref] * 2)
        assert batch.stats["solves"] == 2
        assert batch.stats["sqp_iterations"] > 0
        assert batch.stats["factorizations"] > 0
        assert set(scalar.stats) <= set(batch.stats)


class TestGuards:
    def test_rejects_non_gauss_newton(self):
        bench = build_benchmark("MicroSat")  # hybrid-Hessian overrides
        problem = bench.transcribe(horizon=4)
        scalar = bench.make_solver(problem)
        assert scalar.options.hessian != "gauss_newton"
        with pytest.raises(SolverError):
            BatchSolver(problem, scalar.options)

    def test_nonfinite_state_raises(self, mobile):
        bench, problem, scalar = mobile
        batch = BatchSolver(problem, scalar.options)
        X0 = lane_states(bench, problem, 2)
        X0[1, 0] = np.nan
        with pytest.raises(StateValidationError):
            batch.solve(X0, refs=[bench.ref] * 2)

    def test_bad_warm_shape_raises(self, mobile):
        bench, problem, scalar = mobile
        batch = BatchSolver(problem, scalar.options)
        X0 = lane_states(bench, problem, 2)
        with pytest.raises(SolverError):
            batch.solve(
                X0,
                refs=[bench.ref] * 2,
                z_warm=[None, np.zeros(3)],
            )

    def test_nonfinite_warm_reseeds_lane(self, mobile):
        bench, problem, scalar = mobile
        batch = BatchSolver(problem, scalar.options)
        X0 = lane_states(bench, problem, 2)
        bad = np.full(problem.nz, np.nan)
        results, _ = batch.solve(
            X0, refs=[bench.ref] * 2, z_warm=[None, bad]
        )
        assert results[1].health.warm_start_reseeded
        assert not results[0].health.warm_start_reseeded
        assert np.all(np.isfinite(results[1].z))


class TestPerLaneBudgets:
    def test_sqp_iteration_cap_freezes_lane(self, mobile):
        bench, problem, scalar = mobile
        batch = BatchSolver(problem, scalar.options)
        B = 3
        X0 = lane_states(bench, problem, B, seed=2)
        budgets = [None, SolveBudget(sqp_iterations=2), None]
        results, _ = batch.solve(X0, refs=[bench.ref] * B, budgets=budgets)
        capped = results[1]
        assert capped.iterations <= 2
        if not capped.converged:
            assert capped.status == "budget_exhausted"
        # Unbudgeted lanes are unaffected by their neighbour's cap.
        free = scalar.solve(X0[0], ref=bench.ref)
        assert results[0].iterations == free.iterations

    def test_expired_deadline_budget_status(self, mobile):
        bench, problem, scalar = mobile
        batch = BatchSolver(problem, scalar.options)
        X0 = lane_states(bench, problem, 2, seed=3)
        budgets = [SolveBudget(wall_clock=0.0), None]
        results, _ = batch.solve(X0, refs=[bench.ref] * 2, budgets=budgets)
        assert results[0].status == "budget_exhausted"
        assert not results[0].converged
        assert results[1].converged

    def test_solve_payloads_adapter(self, mobile):
        bench, problem, scalar = mobile
        batch = BatchSolver(problem, scalar.options)
        X0 = lane_states(bench, problem, 2, seed=4)
        payloads = [
            {
                "x": X0[i],
                "ref": bench.ref,
                "z_warm": None,
                "deadline_s": None,
                "max_sqp_iterations": None,
                "max_qp_iterations": None,
            }
            for i in range(2)
        ]
        results, report = batch.solve_payloads(payloads)
        assert len(results) == 2 and report.lanes == 2
        for i in range(2):
            ref = scalar.solve(X0[i], ref=bench.ref)
            assert np.allclose(results[i].z, ref.z, atol=1e-7)

    def test_report_efficiency_bounds(self, mobile):
        bench, problem, scalar = mobile
        batch = BatchSolver(problem, scalar.options)
        X0 = lane_states(bench, problem, 3, seed=5)
        _, report = batch.solve(X0, refs=[bench.ref] * 3)
        assert 0.0 < report.sqp_efficiency <= 1.0
        assert 0.0 < report.qp_efficiency <= 1.0
        assert report.sqp_lane_slots % report.lanes == 0
