"""Batched interior-point QP: lane-wise agreement with independent
oracles (the dense reference solver, the dense lane step) and the
active-mask (continuous batching) freeze semantics."""

import numpy as np
import pytest

from repro.baselines import reference_solve_qp
from repro.batch import solve_qp_batch
from repro.batch.contract import QPOptions
from repro.errors import SolverError
from repro.mpc.qp import solve_qp
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
            x_ref, nu_ref, lam_ref = reference_solve_qp(*qps[i])
            assert res.status[i] == "converged"
            assert np.allclose(res.x[i], x_ref, atol=1e-6)
            if p:
                assert np.allclose(res.nu[i], nu_ref, atol=1e-5)
            if m:
                assert np.allclose(res.lam[i], lam_ref, atol=1e-5)

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


#: every Table III robot, plus the CartPole of the serving fleets
ROBOTS = (
    "MobileRobot", "Manipulator", "AutoVehicle", "MicroSat", "Quadrotor",
    "Hexacopter", "CartPole",
)  # fmt: skip

_SUBPROBLEMS = {}


def first_subproblem(robot, horizon):
    """The cold first SQP subproblem ``(H, g, G, b, J, d, bw)`` (cached)."""
    key = (robot, horizon)
    if key not in _SUBPROBLEMS:
        bench = build_benchmark(robot)
        solver = bench.make_solver(bench.transcribe(horizon=horizon))
        _SUBPROBLEMS[key] = solver.first_qp_subproblem(bench.x0, bench.ref)[0]
    return _SUBPROBLEMS[key]


def perturbed_lanes(qp, lanes, seed=1):
    """``lanes`` copies of ``qp`` stacked, ``g`` perturbed on lanes >= 1
    the way the conform ``batch_qp`` path does."""
    H, g, G, b, J, d, _bw = qp
    rng = np.random.default_rng(seed)
    g_lanes = np.stack([g] * lanes)
    for lane in range(1, lanes):
        g_lanes[lane] += 1e-3 * (1.0 + np.max(np.abs(g))) * rng.standard_normal(
            g.shape
        )
    stack = lambda M: np.stack([M] * lanes)  # noqa: E731
    return stack(H), g_lanes, stack(G), stack(b), stack(J), stack(d)


def disagreement(qp, x, x_ref):
    """Relative primal gap, or — near a flat optimum, where two correct
    solvers stop on different near-optimal points — the relative objective
    gap plus constraint defect, whichever is smaller (the conform
    ``batch_qp`` metric)."""
    H, g, G, b, J, d = qp
    scale = 1.0 + np.max(np.abs(x_ref))
    f = 0.5 * x @ H @ x + g @ x
    f_ref = 0.5 * x_ref @ H @ x_ref + g @ x_ref
    defect = max(
        np.max(np.abs(G @ x - b)), np.max(np.maximum(J @ x - d, 0.0))
    )
    return min(
        np.max(np.abs(x - x_ref)) / scale,
        (abs(f - f_ref) + defect) / (1.0 + abs(f_ref)),
    )


METERS = ("factorizations", "banded_factorizations", "factor_flops",
          "substitute_flops")  # fmt: skip


def stage_meters(qp, bw):
    """The per-round ``(phi_band, schur_band, factor flops, substitute
    flops)`` of the hinted step, read from the structure alone: ``Phi``'s
    coupling components (one dense Cholesky and triangular solve per
    component, or per entry of a diagonal ``Phi``) and the banded Cholesky
    of ``S`` at
    its structural band.  A round solves ``Phi`` against the ``q`` columns
    of a block's ``G^T`` rows (every ``p`` row on a diagonal ``Phi``) and
    runs two Newton solves (predictor, corrector), each three triangular
    solves of ``Phi`` and one banded solve of ``S``."""
    from repro.batch.host import (
        _diag_schur_band,
        _stage_layout,
        block_partition,
        flop_counts_banded_cholesky,
        flop_counts_banded_substitution,
        flop_counts_cholesky,
        flop_counts_substitution,
    )

    H, g, G, b, J, d = qp
    n, p = H.shape[0], G.shape[0]
    bounds, band = block_partition(H, J)
    if band == 0:
        phi_flops = n * sum(flop_counts_cholesky(1).values())
        tri, q = n * sum(flop_counts_substitution(1).values()), p
        s_band = _diag_schur_band(G)
    else:
        layout = _stage_layout(H, G, J, bounds)
        phi_flops, s_band = layout.factor_flops, layout.schur_band
        tri, q = layout.tri_flops, layout.grows.shape[1]
    assert 0 < s_band <= bw
    schur = sum(flop_counts_banded_cholesky(p, s_band).values())
    schur_solve = 2 * sum(flop_counts_banded_substitution(p, s_band, 1).values())
    substitute = q * tri + 2 * (3 * tri + schur_solve)
    return band, s_band, phi_flops + schur, substitute


class TestStageStep:
    """The hinted lockstep loop takes the stage step lane by lane — the
    diagonal step (MobileRobot, CartPole) or the stage-block step (the
    other robots): one step answers the saddle system it factors, as the
    dense lane step (``Phi`` formed whole, ``bandwidth=None``, the oracle
    factor) does, a solve follows the dense lane step's iterations to its
    optimum, and every round is metered at the structure's per-round
    costs."""

    @pytest.mark.parametrize("horizon", [5, 8])
    @pytest.mark.parametrize("robot", ROBOTS)
    def test_lanes_match_the_scalar_stage_step(self, robot, horizon):
        qp = first_subproblem(robot, horizon)
        bw = qp[-1]
        H, g, G, b, J, d = perturbed_lanes(qp, 4)
        # iteration headroom: every hinted lane of these cold subproblems
        # converges within it
        opt = QPOptions(max_iterations=200)
        one = solve_qp_batch(
            H[:1], g[:1], G[:1], b[:1], J[:1], d[:1], opt, bandwidth=bw
        )
        res = solve_qp_batch(H, g, G, b, J, d, opt, bandwidth=bw)
        dense = solve_qp_batch(H, g, G, b, J, d, opt)
        phi_band, s_band, flops, substitute = stage_meters(qp[:6], bw)
        for lane in range(4):
            st = res.stats[lane]
            assert st.mode == "banded"
            assert st.phi_bandwidth == phi_band
            assert st.schur_bandwidth == s_band
            # one Phi and one S factorization per round, each banded, at
            # the structure's per-round flops
            rounds = int(res.iterations[lane]) - int(res.converged[lane])
            assert st.factorizations == st.banded_factorizations == 2 * rounds
            assert st.factor_flops == rounds * flops
            assert st.substitute_flops == rounds * substitute
            # the answer of an independent oracle: the dense lane step's,
            # or where that step stalls (Manipulator's first cold lane at
            # N=8: Phi formed whole reaches cond ~1e10 as W grows) the
            # reference solver's, at the conform reference_qp settings
            assert res.status[lane] == "converged"
            qp_lane = (H[0], g[lane], G[0], b[0], J[0], d[0])
            x_ref = dense.x[lane]
            if not dense.converged[lane]:
                x_ref = reference_solve_qp(*qp_lane, tol=1e-9, max_iterations=600)[0]
            assert disagreement(qp_lane, res.x[lane], x_ref) <= 1e-6
        # a lane does not depend on how many lanes ride with it
        assert res.iterations[0] == one.iterations[0]
        assert np.array_equal(res.x[0], one.x[0])
        for meter in METERS:
            assert getattr(res.stats[0], meter) == getattr(one.stats[0], meter)
        # At the conformance tolerance both steps converge on every lane
        # and follow one path of iterates: they stop together, one
        # iteration apart at most (where roundoff straddles the stopping
        # test).
        opt = QPOptions(tolerance=1e-6, max_iterations=200)
        res = solve_qp_batch(H, g, G, b, J, d, opt, bandwidth=bw)
        dense = solve_qp_batch(H, g, G, b, J, d, opt)
        assert list(res.status) == list(dense.status) == ["converged"] * 4
        assert np.all(np.abs(res.iterations - dense.iterations) <= 1)

    @pytest.mark.parametrize("robot", ["MobileRobot", "CartPole", "Quadrotor",
                                       "Manipulator", "Hexacopter"])
    def test_one_newton_step_matches_the_scalar_step(self, robot):
        # One factor + solve at a positive scaling w and the solver's
        # regularization: the hinted step and the dense one (Phi formed
        # whole, S = G Phi^-1 G^T, the oracle factor) answer the saddle
        # system they factor,
        #
        #     [Phi + reg I   G^T   ] [dx ]   [rhs1]
        #     [G             -reg I] [dnu] = [-re ]
        #
        # (the ladder regularizes S too), solved here whole by LU with
        # iterative refinement, its residual in extended precision.  The
        # pinned x_0 entries carry only the regularization, so Phi's
        # condition number is ~1e10 and a condensed step is accurate to
        # ~cond * eps ~ 1e-6 forward (Quadrotor: 5.5e-7 hinted, 6.2e-7
        # dense); its backward error stays near roundoff (<= 2e-10).
        from repro.batch.backend import HOST
        from repro.batch.host import block_partition
        from repro.batch.qp import _lane_kkt, _lane_rows, _LaneMeters

        H, g, G, b, J, d, bw = first_subproblem(robot, 5)
        reg = QPOptions().regularization
        rng = np.random.default_rng(3)
        w = rng.uniform(0.1, 10.0, size=J.shape[0])
        rhs1, re = rng.standard_normal(g.shape), rng.standard_normal(b.shape)
        band = block_partition(H, J)[1]

        lift = lambda M: np.stack([M] * 3)  # noqa: E731
        data, shapes = _lane_rows(HOST, [lift(M) for M in (H, G, J, g, b, d)])

        def step(bandwidth):
            kkt, phi_band, _s_band = _lane_kkt(
                (HOST, reg, 16, _LaneMeters(HOST, 3), None), data, shapes,
                lift(H), np.ones(3, dtype=bool), lift(G), lift(G.T), lift(J),
                lift(J.T), bandwidth, 2,
            )
            alive = kkt.factor(lift(w), np.ones(3, dtype=bool))
            assert alive.all() and not kkt.meters.retries.any()
            return kkt, phi_band, kkt.solve(lift(rhs1), lift(re))

        kkt, phi_band, hinted = step(bw)
        assert phi_band == band
        assert type(kkt).__name__ == (
            "_DiagLaneKKT" if band == 0 else "_StageLaneKKT"
        )
        dense_kkt, _, dense = step(None)
        assert type(dense_kkt).__name__ == "_DenseLaneKKT"

        n, p = H.shape[0], G.shape[0]
        K = np.block([
            [H + (J.T * w) @ J + reg * np.eye(n), G.T],
            [G, -reg * np.eye(p)],
        ])  # fmt: skip
        rhs = np.concatenate([rhs1, -re])
        exact = np.linalg.solve(K, rhs)
        for _ in range(3):
            r = rhs.astype(np.longdouble) - K.astype(np.longdouble) @ exact
            exact = exact + np.linalg.solve(K, r.astype(float))
        scale = 1.0 + np.max(np.abs(exact))
        norm_K = np.max(np.sum(np.abs(K), axis=1))
        for dx, dnu in (hinted, dense):
            for lane in range(3):
                z = np.concatenate([dx[lane], dnu[lane]])
                assert np.max(np.abs(z - exact)) <= 1e-6 * scale
                backward = np.max(np.abs(K @ z - rhs)) / (
                    norm_K * np.max(np.abs(z)) + np.max(np.abs(rhs))
                )
                assert backward <= 1e-9

    def test_hinted_path_forms_no_whole_phi(self):
        # The hinted loop never builds a (B, n, n) product (Phi whole) nor
        # solves against the p columns of G^T (Phi^-1 G^T).
        from repro.batch import CountingBackend

        shapes = []

        class Recording(CountingBackend):
            def matmul(self, a, b):
                out = super().matmul(a, b)
                shapes.append((tuple(a.shape), tuple(out.shape)))
                return out

        for robot in ("MobileRobot", "Quadrotor"):
            H, g, G, b, J, d, bw = first_subproblem(robot, 5)
            lanes, n, p = 2, H.shape[0], G.shape[0]
            shapes.clear()
            solve_qp_batch(*perturbed_lanes((H, g, G, b, J, d, bw), lanes),
                           bandwidth=bw, backend=Recording())
            assert shapes
            assert all(out[-2:] != (n, n) for _a, out in shapes)
            assert all(out[-2:] != (n, p) for _a, out in shapes)


_PADDED = {}


def padded_subproblem(robot, horizon=5, bucket=8):
    """The cold first SQP subproblem ``(H, g, G, b, J, d, bw)`` of a
    horizon-5 session padded to bucket 8 (the ``fleet-*`` lanes' shape;
    cached)."""
    if robot not in _PADDED:
        from repro.serve2.padding import PaddedBinding, pad_reference

        bench = build_benchmark(robot)
        binding = PaddedBinding(bench, bucket)
        ref = None
        if binding.problem.nref:
            native = bench.transcribe(horizon=horizon)
            ref = pad_reference(bench.ref, native.nref, horizon, bucket)
        _PADDED[robot] = binding.scalar_solver.first_qp_subproblem(bench.x0, ref)[0]
    return _PADDED[robot]


#: every QPStats counter the lockstep loop meters per lane
COUNTERS = METERS + ("retries", "regularization_max", "mode", "phi_bandwidth",
                     "schur_bandwidth")  # fmt: skip


def assert_lane_equals(res, lane, one, one_lane=0):
    """Lane ``lane`` of ``res`` is bit for bit lane ``one_lane`` of ``one``."""
    for field in ("x", "nu", "lam", "slacks", "residual"):
        got = np.asarray(getattr(res, field))[lane]
        ref = np.asarray(getattr(one, field))[one_lane]
        assert got.tobytes() == ref.tobytes(), field
    assert res.status[lane] == one.status[one_lane]
    assert int(res.iterations[lane]) == int(one.iterations[one_lane])
    assert res.gap_history[lane] == one.gap_history[one_lane]
    for meter in COUNTERS:
        assert getattr(res.stats[lane], meter) == getattr(one.stats[one_lane], meter), meter


def ladder_lane(qp):
    """``qp`` with one ``Phi`` diagonal entry left exactly zero: a variable
    with an ``H`` diagonal and no ``J`` row, its ``H`` entry zeroed — at
    ``regularization=0`` it factors only once the ladder adds a floor."""
    H, J = qp[0], qp[4]
    free = np.flatnonzero((np.diag(H) > 0.0) & ~np.any(J != 0.0, axis=0))
    H = H.copy()
    H[free[0], free[0]] = 0.0
    return H


class TestLaneCountIndependence:
    """On the band-0 step a lane's iterate and counters do not depend on
    how many lanes ride with it: each lane of a B=4 stack equals its own
    B=1 solve bit for bit."""

    @pytest.mark.parametrize("robot", ["MobileRobot", "CartPole"])
    def test_each_lane_is_its_own_solve(self, robot):
        qp = padded_subproblem(robot)
        bw = qp[-1]
        lanes = perturbed_lanes(qp, 4, seed=5)
        caps = np.array([40, 3, 40, 6])
        res = solve_qp_batch(*lanes, bandwidth=bw, iteration_caps=caps)
        assert all(st.phi_bandwidth == 0 for st in res.stats)
        assert {"converged", "budget_exhausted"} <= set(res.status)
        for lane in range(4):
            one = solve_qp_batch(
                *(M[lane : lane + 1] for M in lanes), bandwidth=bw,
                iteration_caps=caps[lane : lane + 1],
            )
            assert_lane_equals(res, lane, one)

    @pytest.mark.parametrize("robot", ["MobileRobot", "CartPole"])
    def test_ladder_lane(self, robot):
        from repro.batch import CountingBackend, robust_factor_batch

        qp = padded_subproblem(robot)
        J, d, bw = qp[4:]
        H0 = ladder_lane(qp)
        lanes = list(perturbed_lanes(qp, 4, seed=6))
        lanes[0] = lanes[0].copy()
        lanes[0][2] = H0
        opt = QPOptions(regularization=0.0, max_iterations=1)
        res = solve_qp_batch(*lanes, opt, bandwidth=bw)
        one = solve_qp_batch(*(M[2:3] for M in lanes), opt, bandwidth=bw)
        assert_lane_equals(res, 2, one)
        # the first iteration's Phi diagonal, factored by the tile ladder
        # alone on that lane: x = 0, s = max(1, d), lam = 1
        w = np.minimum(1.0 / np.maximum(np.maximum(1.0, d), 1e-300), 1e16)
        phi = np.diag(np.diag(H0) + (J * J).T @ w)
        fac, reg, retries = robust_factor_batch(phi[None], 0.0, band=0)
        assert bool(fac.ok[0]) and int(retries[0]) > 0 and reg[0] > 0.0
        st = res.stats[2]
        assert res.status[2] == "max_iterations"
        assert st.retries == int(retries[0])
        assert st.regularization_max == float(reg[0])
        # a device factors once: the lane freezes as failed, its mates do not
        dev = solve_qp_batch(
            *lanes, QPOptions(regularization=0.0), bandwidth=bw,
            backend=CountingBackend(),
        )
        assert dev.status[2] == "failed" and int(dev.iterations[2]) == 1
        assert dev.stats[2].retries == 0
        assert all(dev.status[lane] != "failed" for lane in (0, 1, 3))


class TestStructureMemo:
    """The hinted step's structure read is memoized on the lane envelope's
    nonzero pattern; a solve must not depend on what the memo holds."""

    def test_solve_does_not_depend_on_memo_history(self, monkeypatch):
        from repro.batch import qp as batch_qp

        qp = padded_subproblem("MobileRobot")
        bw = qp[-1]
        lanes = perturbed_lanes(qp, 2, seed=7)
        # the same H and J pattern with a sparser G: a different Schur band
        G = lanes[2].copy()
        for row in range(G.shape[1]):
            cols = np.flatnonzero(G[0, row])
            G[:, row, cols[:-1]] = 0.0
        sparse_G = lanes[:2] + (G,) + lanes[3:]
        memo = {}
        monkeypatch.setattr(batch_qp, "_STRUCTURES", memo)

        def solve(qps=lanes):
            return solve_qp_batch(*qps, bandwidth=bw)

        ref = solve()  # on an empty memo
        s_band = ref.stats[0].schur_bandwidth
        memo.clear()
        other = solve(sparse_G)
        assert other.stats[0].schur_bandwidth != s_band
        solve(perturbed_lanes(padded_subproblem("CartPole"), 1))
        filled = len(memo)
        runs = [solve()]  # a miss on a memo other patterns filled
        assert len(memo) == filled + 1
        runs.append(solve())  # a hit
        assert len(memo) == filled + 1
        memo.clear()
        for k in range(batch_qp._STRUCTURES_MAX):
            batch_qp._lane_structure(np.eye(k + 1), None, None)
        assert len(memo) == batch_qp._STRUCTURES_MAX
        runs.append(solve())  # a miss on a full memo: cleared, then filled
        assert len(memo) == 1
        for res in runs:
            for lane in range(2):
                assert_lane_equals(res, lane, ref, lane)


class _FailTwice:
    """Fault hook: the first two factorization attempts it is asked about
    fail."""

    def __init__(self):
        self.left = 2

    def force_failure(self):
        self.left -= 1
        return self.left >= 0


class _ScaleIndex:
    """Fault hook: a congruence scaling of index 0 of every matrix its lane
    factors."""

    def __init__(self):
        self.seen = 0

    def transform_matrix(self, A):
        self.seen += 1
        out = A.copy()
        out[0, :] *= 10.0
        out[:, 0] *= 10.0
        return out


class TestFaultHooks:
    """A :mod:`repro.faults` hook on one lane reaches that lane's factor
    ladder and matrices — on the dense, diagonal and stage-block steps —
    and nothing of its batch-mates."""

    @pytest.mark.parametrize("robot,hinted", [
        ("MobileRobot", True), ("Quadrotor", True), ("Quadrotor", False),
    ])  # fmt: skip
    def test_a_hook_on_one_lane_escalates_only_its_ladder(self, robot, hinted):
        qp = first_subproblem(robot, 5)
        bw = qp[-1] if hinted else None
        lanes = perturbed_lanes(qp, 3)
        plain = solve_qp_batch(*lanes, bandwidth=bw)
        hook = _FailTwice()
        hooked = solve_qp_batch(*lanes, bandwidth=bw, fault_hooks=[None, hook, None])
        assert hook.left < 0  # consulted past its two failures
        assert [st.retries for st in hooked.stats] == [0, 2, 0]
        assert hooked.stats[1].regularization_max == pytest.approx(1e-5)
        assert hooked.status[1] == "converged"
        for lane in (0, 2):
            assert_lane_equals(hooked, lane, plain, lane)

    @pytest.mark.parametrize("robot", ["MobileRobot", "Quadrotor"])
    def test_transform_reaches_only_its_lane(self, robot):
        qp = first_subproblem(robot, 5)
        lanes = perturbed_lanes(qp, 3)
        plain = solve_qp_batch(*lanes, bandwidth=qp[-1])
        hook = _ScaleIndex()
        hooked = solve_qp_batch(
            *lanes, bandwidth=qp[-1], fault_hooks=[None, None, hook]
        )
        # once per matrix the lane factored (Phi and S, every round)
        assert hook.seen == hooked.stats[2].factorizations > 0
        assert not np.array_equal(hooked.x[2], plain.x[2])
        for lane in (0, 1):
            assert_lane_equals(hooked, lane, plain, lane)

    def test_hooks_are_checked(self):
        qps = [random_qp(4, 1, 2, i) for i in range(2)]
        with pytest.raises(SolverError, match="fault hooks"):
            solve_qp_batch(*stack_qps(qps), fault_hooks=[None])
