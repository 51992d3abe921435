"""First-order QP subsystem, the lockstep loop: every lane of a batch
against the same QP solved alone (the ``B = 1`` lane, ``solve_qp``),
the sync-free device-residency gate (CountingBackend) and the host early
exit, per-lane iteration caps and poisoned-lane freezing, the
positive-definiteness ladder and per-lane fault hooks of the cached
factorization, the rho-checkpoint cadence, batched warm starts, the
``BatchSolver`` seam (``options.qp.method == "admm"``), and cross-backend
parity."""

from dataclasses import replace
from time import perf_counter

import numpy as np
import pytest

from repro.batch import BatchSolver, CountingBackend
from repro.batch.contract import IPMOptions, QPOptions
from repro.errors import SolverError
from repro.firstorder import solve_qp_admm_batch
from repro.mpc.qp import solve_qp
from repro.robots import build_benchmark
from tests.test_batch_backend import ALL_BACKENDS

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


def stack_qps(qps):
    cols = list(zip(*qps))
    return tuple(None if c[0] is None else np.stack(c) for c in cols)


def qp_batch(B=4, n=8, p=2, m=4, seed=200):
    qps = [random_qp(n, p, m, seed + i) for i in range(B)]
    return qps, stack_qps(qps)


class TestLaneParity:
    @pytest.mark.parametrize("p,m", [(0, 0), (2, 0), (0, 4), (2, 4)])
    def test_matches_scalar_admm_per_lane(self, p, m):
        """A lane in a desynchronised batch matches the same QP solved
        alone (lane-independence under the freeze masks)."""
        qps, stacked = qp_batch(p=p, m=m)
        res = solve_qp_admm_batch(*stacked, ADMM_OPTS)
        for i, qp in enumerate(qps):
            ref = solve_qp(*qp, ADMM_OPTS)
            assert res.status[i] == "converged"
            assert ref.converged
            assert np.allclose(res.x[i], ref.x, atol=1e-5)

    def test_stats_report_cached_factorizations(self):
        _qps, stacked = qp_batch()
        res = solve_qp_admm_batch(*stacked, ADMM_OPTS)
        for st in res.stats:
            assert st.mode == "admm"
            # setup + a bounded number of rho-checkpoint rebuilds, never
            # one per iteration
            assert 1 <= st.factorizations <= 4


class TestDeviceResidency:
    def test_loop_is_sync_free_between_checkpoints(self):
        """With checkpoints disabled, host traffic is independent of the
        iteration count: more iterations must not mean more syncs."""
        _qps, stacked = qp_batch()

        def syncs(max_it):
            xp = CountingBackend()
            opts = replace(
                ADMM_OPTS, admm_tolerance=0.0, admm_max_iterations=max_it
            )
            solve_qp_admm_batch(*stacked, opts, backend=xp, sync_interval=0)
            return xp.sync_count + xp.upload_count

        assert syncs(5) == syncs(60)

    def test_checkpoint_traffic_is_bounded_by_interval(self):
        _qps, stacked = qp_batch()
        xp = CountingBackend()
        opts = replace(
            ADMM_OPTS, admm_tolerance=0.0, admm_max_iterations=100
        )
        solve_qp_admm_batch(*stacked, opts, backend=xp, sync_interval=25)
        xp2 = CountingBackend()
        solve_qp_admm_batch(*stacked, opts, backend=xp2, sync_interval=0)
        # 4 checkpoints' worth of extra traffic, not 100 iterations' worth.
        extra = (xp.sync_count + xp.upload_count) - (
            xp2.sync_count + xp2.upload_count
        )
        assert 0 < extra <= 4 * 12

    def test_host_backend_exits_at_the_converging_check(self):
        """On a host backend the all-frozen flag is read at every residual
        check, so a batch that converges at iteration 5 stops there; a
        device backend reads it only every ``sync_interval`` and rides
        masked trips until then — to bit-identical lane results."""
        _qps, stacked = qp_batch()
        cold = solve_qp_admm_batch(*stacked, ADMM_OPTS)
        host = solve_qp_admm_batch(*stacked, ADMM_OPTS, warm=cold.warm)
        device = solve_qp_admm_batch(
            *stacked, ADMM_OPTS, warm=cold.warm, backend=CountingBackend()
        )
        assert all(s == "converged" for s in host.status)
        assert host.batch.iterations == int(np.max(host.iterations)) < 25
        assert device.batch.iterations == 25
        assert np.array_equal(host.iterations, device.iterations)
        for field in ("x", "nu", "lam", "residual"):
            assert np.array_equal(getattr(host, field), getattr(device, field))


class TestRhoCadence:
    def _rhos(self, stacked, **opts):
        """Per-lane rho after 12 uncheckable iterations (tolerance 0)."""
        opts = replace(
            ADMM_OPTS, admm_tolerance=0.0, admm_max_iterations=12, **opts
        )
        return solve_qp_admm_batch(*stacked, opts).warm["rho"]

    def test_rho_interval_sets_when_lanes_rescale(self):
        _qps, stacked = qp_batch()
        # Default interval (25): no checkpoint inside 12 iterations.
        assert np.all(self._rhos(stacked) == ADMM_OPTS.admm_rho)
        # A checkpoint at iteration 7 (not a residual-check multiple)
        # rescales the lanes whose residual ratio fires.
        assert np.any(
            self._rhos(stacked, admm_rho_interval=7) != ADMM_OPTS.admm_rho
        )

    def test_zero_interval_disables_adaptation(self):
        _qps, stacked = qp_batch()
        adaptive = solve_qp_admm_batch(*stacked, ADMM_OPTS)
        fixed = solve_qp_admm_batch(
            *stacked, replace(ADMM_OPTS, admm_rho_interval=0)
        )
        assert any(st.conditioning.rho_rescales for st in adaptive.stats)
        assert not any(st.conditioning.rho_rescales for st in fixed.stats)
        assert np.all(fixed.warm["rho"] == ADMM_OPTS.admm_rho)
        assert all(s == "converged" for s in fixed.status)


class FactorHook:
    """Duck-typed factorization hook: fails the first ``fail`` attempts and
    counts the builds it was shown (``transform_matrix`` is an identity)."""

    def __init__(self, fail=0):
        self.fail = fail
        self.builds = 0

    def transform_matrix(self, K):
        self.builds += 1
        return K

    def force_failure(self):
        if self.fail > 0:
            self.fail -= 1
            return True
        return False


def semidefinite_lane(qp, dip):
    """``qp`` with its Hessian made (numerically) semidefinite the way a
    Gauss-Newton Hessian is: eigenvalue ``dip < 0`` along a direction the
    constraints do not see and the gradient does not push."""
    H, g, G, b, J, d = qp
    v = np.linalg.svd(np.vstack([G, J]))[2][-1]  # null vector of [G; J]
    P = np.eye(H.shape[0]) - np.outer(v, v)
    return P @ H @ P + dip * np.outer(v, v), P @ g, G, b, J, d


class TestFactorizationLadder:
    OPTS = replace(ADMM_OPTS, admm_tolerance=1e-3)

    def test_non_pd_lane_is_retried_not_inverted(self):
        """``K = H + sigma I + A^T R A`` of lane 1 is indefinite at the
        base regularization: the ladder must escalate until it factors
        (counted), the lane still converges, and batch-mates do not
        notice."""
        qps, _stacked = qp_batch()
        healthy = stack_qps(
            [semidefinite_lane(q, 0.0) if i == 1 else q
             for i, q in enumerate(qps)]
        )
        sick = stack_qps(
            [semidefinite_lane(q, -5e-6) if i == 1 else q
             for i, q in enumerate(qps)]
        )
        ref = solve_qp_admm_batch(*healthy, self.OPTS)
        res = solve_qp_admm_batch(*sick, self.OPTS)
        assert [st.retries for st in ref.stats] == [0, 0, 0, 0]
        assert res.stats[1].retries == 2
        assert res.stats[1].regularization_max == pytest.approx(1e-5)
        assert res.status[1] == "converged"
        assert np.allclose(res.x[1], ref.x[1], atol=1e-3)
        for lane in (0, 2, 3):
            assert res.stats[lane].retries == 0
            assert res.stats[lane].regularization_max == self.OPTS.regularization
            assert np.array_equal(res.x[lane], ref.x[lane])
            assert res.iterations[lane] == ref.iterations[lane]
        # The same QP alone climbs the same ladder.
        alone = solve_qp(*[a[1] for a in sick], self.OPTS)
        assert alone.converged and alone.stats.retries == 2

    def test_unrepairable_lane_fails_alone(self):
        """A lane no rung of the ladder makes positive definite freezes
        ``failed`` without touching batch-mates; solved alone it raises."""
        opts = replace(self.OPTS, admm_equilibrate=False)
        qps, stacked = qp_batch()
        H = stacked[0].copy()
        H[1] = -1e30 * np.eye(H.shape[1])
        ref = solve_qp_admm_batch(*stacked, opts)
        res = solve_qp_admm_batch(H, *stacked[1:], opts)
        assert res.status[1] == "failed"
        assert res.stats[1].retries == 16
        assert res.stats[1].factorizations == 0
        assert not res.stats[1].conditioning.diverged
        for lane in (0, 2, 3):
            assert res.status[lane] == "converged"
            assert np.array_equal(res.x[lane], ref.x[lane])
        with pytest.raises(SolverError, match="could not be factorized"):
            solve_qp(H[1], *qps[1][1:], opts)

    def test_hooks_are_per_lane_and_per_build(self):
        """``force_failure`` fails attempts of its own lane only;
        ``transform_matrix`` is shown every build of that lane's K (set-up
        plus each rho-checkpoint rebuild) and no other lane's."""
        _qps, stacked = qp_batch()
        ref = solve_qp_admm_batch(*stacked, ADMM_OPTS)
        hook = FactorHook(fail=2)
        res = solve_qp_admm_batch(
            *stacked, ADMM_OPTS, fault_hooks=[None, hook, None, None]
        )
        assert [st.retries for st in res.stats] == [0, 2, 0, 0]
        assert res.stats[1].regularization_max == pytest.approx(1e-5)
        assert hook.builds == res.stats[1].factorizations > 1
        assert all(s == "converged" for s in res.status)
        for lane in (0, 2, 3):
            assert np.array_equal(res.x[lane], ref.x[lane])
        with pytest.raises(SolverError, match="fault hooks"):
            solve_qp_admm_batch(*stacked, ADMM_OPTS, fault_hooks=[hook])

    def test_hooks_reach_the_single_lane(self):
        qps, _stacked = qp_batch()
        hook = FactorHook(fail=3)
        res = solve_qp(*qps[0], ADMM_OPTS, fault_hook=hook)
        assert res.converged
        assert res.stats.retries == 3
        assert res.stats.regularization_max == pytest.approx(1e-3)
        assert hook.builds == res.stats.factorizations
        with pytest.raises(SolverError, match="could not be factorized"):
            solve_qp(*qps[0], ADMM_OPTS, fault_hook=FactorHook(fail=99))


class TestLaneFates:
    def test_iteration_caps_report_budget_exhausted(self):
        _qps, stacked = qp_batch()
        res = solve_qp_admm_batch(
            *stacked, ADMM_OPTS, iteration_caps=[3, 10_000, 3, 10_000]
        )
        assert res.status[0] == "budget_exhausted"
        assert res.status[2] == "budget_exhausted"
        assert res.status[1] == res.status[3] == "converged"
        assert res.iterations[0] == 3
        assert np.all(np.isfinite(res.x))

    def test_deadline_freezes_whole_batch(self):
        _qps, stacked = qp_batch()
        res = solve_qp_admm_batch(
            *stacked, ADMM_OPTS, deadline=perf_counter()
        )
        assert all(s == "budget_exhausted" for s in res.status)
        assert np.all(res.budget_exhausted)

    def test_poisoned_lane_freezes_others_converge(self):
        qps, stacked = qp_batch()
        H = stacked[0].copy()
        H[1] = np.nan
        res = solve_qp_admm_batch(H, *stacked[1:], ADMM_OPTS)
        assert res.status[1] == "failed"
        for i in (0, 2, 3):
            ref = solve_qp(*qps[i], ADMM_OPTS)
            assert res.status[i] == "converged"
            assert np.allclose(res.x[i], ref.x, atol=1e-5)

    def test_max_iterations_without_caps(self):
        _qps, stacked = qp_batch()
        res = solve_qp_admm_batch(
            *stacked, replace(ADMM_OPTS, admm_max_iterations=2)
        )
        assert all(s == "max_iterations" for s in res.status)


class TestBatchedWarmStart:
    def test_warm_restart_converges_fast(self):
        _qps, stacked = qp_batch()
        cold = solve_qp_admm_batch(*stacked, ADMM_OPTS)
        assert cold.warm is not None
        rewarm = solve_qp_admm_batch(*stacked, ADMM_OPTS, warm=cold.warm)
        assert all(s == "converged" for s in rewarm.status)
        assert int(np.max(rewarm.iterations)) <= max(
            8, int(np.max(cold.iterations)) // 4
        )
        assert np.allclose(rewarm.x, cold.x, atol=1e-6)

    def test_malformed_warm_ignored(self):
        _qps, stacked = qp_batch()
        bad = {"x": np.zeros((2, 3)), "z": np.zeros((2, 2)),
               "y": np.zeros((2, 2)), "rho": np.zeros((2,))}
        res = solve_qp_admm_batch(*stacked, ADMM_OPTS, warm=bad)
        assert all(s == "converged" for s in res.status)


class TestCrossBackendParity:
    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_admm_parity(self, name):
        """Every registered backend must agree with the numpy reference
        on the batched ADMM path (absent accelerators skip with a
        reason)."""
        _qps, stacked = qp_batch()
        ref = solve_qp_admm_batch(*stacked, ADMM_OPTS)
        res = solve_qp_admm_batch(*stacked, ADMM_OPTS, backend=name)
        assert list(res.status) == list(ref.status)
        assert np.array_equal(
            np.asarray(res.iterations), np.asarray(ref.iterations)
        )
        assert np.allclose(res.x, ref.x, atol=1e-6)


class TestBatchSolverSeam:
    @pytest.fixture(scope="class")
    def mobile(self):
        bench = build_benchmark("MobileRobot")
        problem = bench.transcribe(horizon=6)
        return bench, problem

    def test_invalid_method_rejected(self, mobile):
        _bench, problem = mobile
        with pytest.raises(SolverError):
            BatchSolver(problem, IPMOptions(qp=QPOptions(method="sgd")))

    def test_lanes_match_scalar_admm_sqp(self, mobile):
        bench, problem = mobile
        rng = np.random.default_rng(31)
        B = 3
        X0 = np.stack(
            [
                np.asarray(bench.x0, float)
                + 0.03 * rng.standard_normal(problem.nx)
                for _ in range(B)
            ]
        )
        scalar = bench.make_solver(problem)
        scalar.options = replace(
            scalar.options, qp=replace(scalar.options.qp, method="admm")
        )
        batch = BatchSolver(problem, IPMOptions(qp=QPOptions(method="admm")))
        results, report = batch.solve(X0, refs=[bench.ref] * B)
        assert report.lanes == B
        for i, got in enumerate(results):
            ref = scalar.solve(X0[i], ref=bench.ref)
            assert got.status == "converged"
            assert ref.status == "converged"
            assert np.max(np.abs(got.z - ref.z)) < 1e-2
