"""Batched interior-point QP: lane-wise agreement with the scalar solver
and the active-mask (continuous batching) freeze semantics."""

import numpy as np
import pytest

from repro.batch import solve_qp_batch
from repro.mpc.qp import QPOptions, solve_qp
from repro.robots import build_benchmark


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
    return tuple(
        None if c[0] is None else np.stack(c) for c in cols
    )


def rank_deficient_qp(n, p, m, seed):
    """A solvable QP whose last variable appears nowhere: ``Phi`` has a
    zero row/column, so at ``regularization=0.0`` it factors only after
    the escalation ladder has put something on that diagonal."""
    H, g, G, b, J, d = random_qp(n, p, m, seed)
    H[-1, :] = H[:, -1] = 0.0
    g[-1] = 0.0
    G[:, -1] = 0.0
    J[:, -1] = 0.0
    return H, g, G, b, J, d


class TestLaneAgreement:
    @pytest.mark.parametrize("p,m", [(0, 0), (2, 0), (0, 4), (2, 4)])
    def test_matches_scalar_per_lane(self, p, m):
        n, B = 8, 5
        qps = [random_qp(n, p, m, 50 + i) for i in range(B)]
        H, g, G, b, J, d = stack_qps(qps)
        res = solve_qp_batch(H, g, G, b, J, d)
        assert res.x.shape == (B, n)
        for i in range(B):
            ref = solve_qp(*qps[i])
            assert res.status[i] == "converged"
            assert ref.converged
            assert np.allclose(res.x[i], ref.x, atol=1e-6)
            if p:
                assert np.allclose(res.nu[i], ref.nu, atol=1e-5)
            if m:
                assert np.allclose(res.lam[i], ref.lam, atol=1e-5)

    def test_robot_subproblem_banded(self):
        bench = build_benchmark("MobileRobot")
        problem = bench.transcribe(horizon=6)
        solver = bench.make_solver(problem)
        (H, g, G, b, J, d, bw), _perm = solver.first_qp_subproblem(
            bench.x0, bench.ref
        )
        assert bw is not None
        B = 3
        rng = np.random.default_rng(9)
        g_lanes = np.stack([g + 1e-3 * rng.standard_normal(g.shape) for _ in range(B)])
        res = solve_qp_batch(
            np.stack([H] * B),
            g_lanes,
            np.stack([G] * B),
            np.stack([b] * B),
            np.stack([J] * B),
            np.stack([d] * B),
            bandwidth=bw,
        )
        for i in range(B):
            ref = solve_qp(H, g_lanes[i], G, b, J, d, bandwidth=bw)
            assert res.status[i] == "converged"
            assert np.allclose(res.x[i], ref.x, atol=1e-6)
        # The shared band hint must reach the batched kernels.
        assert all(st.banded_factorizations > 0 for st in res.stats)

    def test_per_lane_qpstats(self):
        qps = [random_qp(6, 2, 3, i) for i in range(3)]
        res = solve_qp_batch(*stack_qps(qps))
        assert len(res.stats) == 3
        for st, its in zip(res.stats, res.iterations):
            assert st.factorizations >= its
            assert st.factorize_time >= 0.0
            assert st.factor_flops > 0


class TestActiveMask:
    """Satellite: mixed-outcome batches report correct per-lane statuses
    and leave frozen lanes bit-identical to their freeze point."""

    def _mixed_batch(self, caps=None):
        # Shared structure (n=1, m=2), three very different fates:
        #   lane 0 converges, lane 1 is infeasible (diverges),
        #   lane 2 is iteration-capped (budget_exhausted).
        H = np.stack([[[2.0]]] * 3)
        g = np.stack([[0.0]] * 3)
        J = np.stack([[[1.0], [-1.0]]] * 3)
        d = np.stack(
            [
                [10.0, 10.0],  # inactive bounds: converges instantly
                [-1.0, -1.0],  # x <= -1 and x >= 1: infeasible
                [0.5, 0.5],  # active bounds: needs several iterations
            ]
        )
        return H, g, None, None, J, d

    def test_statuses_per_lane(self):
        H, g, G, b, J, d = self._mixed_batch()
        caps = np.array([50, 50, 2])
        res = solve_qp_batch(H, g, G, b, J, d, iteration_caps=caps)
        assert res.status[0] == "converged"
        assert res.status[1] == "diverged"
        assert res.status[2] == "budget_exhausted"
        assert res.converged.tolist() == [True, False, False]
        assert res.iterations[2] == 2
        # The iteration-capped lane was *not* stopped by a wall-clock
        # deadline, so the deadline flag (the SQP discard-direction rule)
        # stays off: its truncated direction is still usable.
        assert not res.budget_exhausted[2]

    def test_frozen_lanes_bit_identical(self):
        H, g, G, b, J, d = self._mixed_batch()
        caps = np.array([50, 50, 2])
        res = solve_qp_batch(
            H, g, G, b, J, d, iteration_caps=caps, record_freeze=True
        )
        assert res.freeze is not None
        for lane in range(3):
            snap = res.freeze[lane]
            assert np.array_equal(res.x[lane], snap["x"])
            assert np.array_equal(res.nu[lane], snap["nu"])
            assert np.array_equal(res.lam[lane], snap["lam"])
            assert np.array_equal(res.slacks[lane], snap["slacks"])

    def test_early_freeze_does_not_perturb_survivors(self):
        # The converging lane must produce the same answer whether it is
        # batched with doomed lanes or solved in a clean batch.
        H, g, G, b, J, d = self._mixed_batch()
        caps = np.array([50, 50, 2])
        mixed = solve_qp_batch(H, g, G, b, J, d, iteration_caps=caps)
        clean = solve_qp_batch(H[:1], g[:1], None, None, J[:1], d[:1])
        assert np.array_equal(mixed.x[0], clean.x[0])

    def test_deadline_freezes_all_active(self):
        qps = [random_qp(6, 0, 3, 70 + i) for i in range(3)]
        H, g, G, b, J, d = stack_qps(qps)
        from time import perf_counter

        res = solve_qp_batch(H, g, G, b, J, d, deadline=perf_counter())
        assert all(st == "budget_exhausted" for st in res.status)
        # Deadline stops *do* set the budget flag: the SQP layer discards
        # these directions, matching the scalar solver's contract.
        assert res.budget_exhausted.all()

    def test_nonfinite_lane_fails_without_poisoning(self):
        qps = [random_qp(5, 2, 2, 80 + i) for i in range(3)]
        H, g, G, b, J, d = stack_qps(qps)
        g = g.copy()
        g[1, 0] = np.nan
        res = solve_qp_batch(H, g, G, b, J, d)
        assert res.status[1] == "failed"
        assert res.iterations[1] == 0
        for i in (0, 2):
            ref = solve_qp(*qps[i])
            assert res.status[i] == "converged"
            assert np.allclose(res.x[i], ref.x, atol=1e-6)

    def test_hard_lane_is_retried_not_frozen(self):
        # The host retry ladder inside the lockstep loop: the lane the base
        # regularization cannot factor escalates (and reports it), and the
        # retries never touch its batch-mates.
        n, p, m = 8, 2, 4
        healthy = [random_qp(n, p, m, 90 + i) for i in range(3)]
        qps = healthy[:1] + [rank_deficient_qp(n, p, m, 99)] + healthy[1:]
        opt = QPOptions(regularization=0.0)
        res = solve_qp_batch(*stack_qps(qps), opt)
        assert res.status[1] == "converged"
        assert res.stats[1].retries > 0
        assert res.stats[1].regularization_max > opt.regularization
        mates = [0, 2, 3]
        assert all(res.stats[i].retries == 0 for i in mates)
        clean = solve_qp_batch(*stack_qps(healthy), opt)
        assert np.array_equal(res.x[mates], clean.x)
        assert np.array_equal(res.nu[mates], clean.nu)
        assert np.array_equal(res.lam[mates], clean.lam)

    def test_batch_efficiency_telemetry(self):
        H, g, G, b, J, d = self._mixed_batch()
        res = solve_qp_batch(H, g, G, b, J, d)
        bs = res.batch
        assert bs.lane_slots >= bs.lane_iterations > 0
        assert 0.0 < bs.efficiency <= 1.0
        # Mixed completion times => some slots must have idled.
        assert bs.efficiency < 1.0
