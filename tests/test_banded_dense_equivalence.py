"""Banded vs. dense QP solve-path equivalence on the robot benchmarks.

The stage-interleaved permutation makes the condensed KKT system banded,
and its ``Phi`` block-diagonal over the stages; these tests pin down that
(a) the bandwidth hints the transcription layer advertises actually bound
the permuted problem data, (b) the structural envelope's blocks lie inside
the stage groups, so the hinted solve runs the stage-blocked KKT step, and
(c) that step yields the same solution as the dense path on every robot's
first SQP subproblem (to 1e-8 relative, with an active-set polish through
each path's own step recovering both solutions past the barrier's
roundoff drift), and on the corner cases of its block layout.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.batch.backend import HOST
from repro.batch.ipm import LaneLayout
from repro.batch.linalg import BatchCholeskyFactor, robust_diag_factor_batch
from repro.batch.qp import _lane_kkt, _lane_rows, _LaneMeters
from repro.conform.paths import _kkt_polish
from repro.mpc.banded import bandwidth_of, block_partition
from repro.mpc.qp import QPOptions, _LaneFaults, solve_qp
from repro.robots.registry import BENCHMARK_NAMES, build_benchmark

HORIZON = 16


@pytest.fixture(scope="module")
def subproblems():
    """First-SQP-subproblem QP data for every robot (built once)."""
    out = {}
    for name in BENCHMARK_NAMES:
        bench = build_benchmark(name)
        problem = bench.transcribe(horizon=HORIZON)
        solver = bench.make_solver(problem)
        qp_args, qperm = solver.first_qp_subproblem(bench.x0, bench.ref)
        out[name] = (bench, problem, solver, qp_args, qperm)
    return out


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_first_subproblem_banded_matches_dense(subproblems, name):
    """Both paths reach the same solution — except Manipulator, where they
    need not land on the same point and the stage path's must be better.

    Each path ends with the active-set polish through its own KKT step
    (the conform paths' :func:`repro.conform.paths._kkt_polish`), so the
    comparison is between the two steps, not a shared dense re-solve.
    Manipulator's barrier iteration ends on a degenerate active set.  The
    stage step's iterate reaches KKT 7.0e-9, better than the active-set
    polish, so the polish is declined; the dense iterate (5.9e-7) is worse
    than the polish, which it adopts — a point 2.3e-6 away.  So there the
    assertion is one at least as strong as agreement: the stage answer is
    feasible to the tolerance, its KKT residual is no worse than the dense
    answer's, and neither is its objective against the dense answer's
    exact-penalty merit (weight 1e4, the soft-row price, above every
    multiplier) — the objective a feasible point has to beat when the
    other point buys objective with infeasibility.
    """
    _, problem, solver, qp_args, qperm = subproblems[name]
    H, g, G, b, J, d, bw = qp_args
    assert bw is not None, "stage permutation should be available"
    # The cold-start subproblems are hard QPs (pinned initial state far
    # outside the soft bounds); give the IPM headroom beyond the default.
    opt = replace(solver.options.qp, polish=False, max_iterations=200)

    banded = solve_qp(H, g, G, b, J, d, opt, bandwidth=bw)
    dense = solve_qp(H, g, G, b, J, d, opt)

    assert banded.converged and dense.converged
    assert banded.stats.mode in ("banded", "mixed")
    assert banded.stats.banded_factorizations > 0
    assert dense.stats.mode == "dense"
    assert dense.stats.banded_factorizations == 0

    reg = opt.regularization
    x_b, nu_b = _kkt_polish(H, g, G, b, J, d, banded, bw, reg)
    x_d, nu_d = _kkt_polish(H, g, G, b, J, d, dense, None, reg)
    if name == "Manipulator":
        def objective(x):
            return 0.5 * x @ H @ x + g @ x

        def violation(x):
            return np.abs(G @ x - b), np.maximum(J @ x - d, 0.0)

        assert max(np.max(v) for v in violation(x_b)) <= opt.tolerance
        assert banded.residual <= dense.residual
        rho = max(np.max(np.abs(dense.nu)), np.max(dense.lam))
        assert rho <= 1e4
        merit = objective(x_d) + 1e4 * sum(np.sum(v) for v in violation(x_d))
        assert objective(x_b) <= merit
        return
    scale = 1.0 + np.max(np.abs(x_d))
    assert np.max(np.abs(x_b - x_d)) <= 1e-8 * scale
    assert np.max(np.abs(nu_b - nu_d)) <= 1e-6 * (1.0 + np.max(np.abs(nu_d)))


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_stage_permuted_kkt_bandwidth_within_hint(subproblems, name):
    """The advertised half-bandwidth ceiling bounds the permuted KKT data.

    The condensed matrix is Phi = H + J^T W J for a positive diagonal W, so
    its nonzero pattern is contained in the envelope |H| + |J|^T |J|; the
    hint must cover the envelope's measured bandwidth for every W.
    """
    bench, problem, solver, qp_args, qperm = subproblems[name]
    H, g, G, b, J, d, bw = qp_args
    envelope = np.abs(H)
    if J is not None:
        envelope = envelope + np.abs(J).T @ np.abs(J)
    assert bandwidth_of(envelope) <= bw

    # The same check on the plain (non-extended) problem, against the
    # primal KKT envelope |H| + |G|^T |G|: banded after the stage
    # interleave, nowhere near banded in the states-then-inputs ordering
    # (x_{k+1} and u_k sit ~N*nx apart there).
    perm = problem.stage_permutation()
    hint = problem.kkt_half_bandwidth()
    # bw is the extended-problem ceiling: at least the plain hint, wider
    # when a stage's group (states + inputs + L1 slacks) outgrows it.
    assert perm is not None and bw >= hint
    z0 = problem.initial_guess(np.asarray(bench.x0, dtype=float))
    Hu = problem.objective_gauss_newton(z0, bench.ref)
    Gu = problem.equality_jacobian(z0, bench.ref)
    env_u = np.abs(Hu) + np.abs(Gu).T @ np.abs(Gu)
    assert bandwidth_of(env_u[np.ix_(perm, perm)]) <= hint
    assert bandwidth_of(env_u) > hint


def test_first_subproblem_banded_solve_is_observable(subproblems):
    """QPStats reports per-phase wall time and flops on the banded path."""
    _, _, solver, qp_args, _ = subproblems["Quadrotor"]
    H, g, G, b, J, d, bw = qp_args
    res = solve_qp(H, g, G, b, J, d, solver.options.qp, bandwidth=bw)
    st = res.stats
    assert st.phi_bandwidth is not None and st.phi_bandwidth <= bw
    assert st.schur_bandwidth is not None and st.schur_bandwidth <= bw
    # One factor round (Phi, then S) per iteration that took a step; a
    # converged solve's last iteration only evaluates the residual.
    rounds = res.iterations - int(res.converged)
    assert rounds > 0
    assert st.factorizations == 2 * rounds
    assert st.factor_flops > 0 and st.substitute_flops > 0
    assert st.factorize_time > 0.0 and st.substitute_time > 0.0


# -- the stage-blocked KKT step ----------------------------------------------


def _crossing_free_splits(envelope):
    """Brute force: every index no envelope entry crosses."""
    n = envelope.shape[0]
    return [s for s in range(1, n) if not np.any(envelope[s:, :s])]


@pytest.mark.parametrize("seed", range(6))
def test_block_partition_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    n, m = 40, 12
    A = np.diag(rng.uniform(0.5, 1.0, n))
    for _ in range(8):
        i, j = sorted(rng.integers(n, size=2))
        A[i, j] = A[j, i] = 1.0
    R = np.zeros((m, n))
    for r in range(m - 1):  # the last row stays empty
        lo = rng.integers(n - 3)
        R[r, [lo, lo + rng.integers(1, 3)]] = 1.0
    envelope = np.abs(A) + np.abs(R).T @ np.abs(R)
    bounds, band = block_partition(A, R)
    assert list(bounds[1:-1]) == _crossing_free_splits(envelope)
    assert [bounds[0], bounds[-1]] == [0, n]
    assert band == bandwidth_of(envelope)


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_envelope_blocks_lie_inside_stage_groups(name):
    """Phi is block-diagonal over the stages on every robot: each block of
    the structural envelope ``|H| + |J|^T |J|`` lies inside one qperm stage
    group ``[x_k, u_k, slacks_k]`` and there are at least ``N + 1`` blocks,
    at every horizon.  Bands wider than one stage (Quadrotor, MicroSat)
    come from stage groups widened by their slacks, not from coupling
    between stages."""
    bench = build_benchmark(name)
    for horizon in (5, 8, 16):
        problem = bench.transcribe(horizon=horizon)
        solver = bench.make_solver(problem)
        (H, g, G, b, J, d, bw), _ = solver.first_qp_subproblem(
            bench.x0, bench.ref
        )
        envelope = np.abs(H) + np.abs(J).T @ np.abs(J)
        bounds, band = block_partition(H, J)
        assert list(bounds[1:-1]) == _crossing_free_splits(envelope)
        assert band == bandwidth_of(envelope)

        soft = LaneLayout(problem, banded=True).soft
        slack_stages = problem.inequality_row_stages()[soft]
        group = np.repeat(
            np.arange(horizon + 1),
            [
                problem.nx
                + problem.nu * (k < horizon)
                + int(np.sum(slack_stages == k))
                for k in range(horizon + 1)
            ],
        )
        assert group.size == H.shape[0]
        assert np.array_equal(group[bounds[:-1]], group[bounds[1:] - 1])
        assert bounds.size - 1 >= horizon + 1


def hinted_step(H, G, J, bandwidth, reg, hook):
    """The hinted lane step of the QP loop for one lane (the stage-block
    step, or the diagonal one when ``Phi`` is diagonal), with ``hook`` as
    the lane's fault hook."""
    n = H.shape[0]
    G = np.zeros((0, n)) if G is None else G
    J = np.zeros((0, n)) if J is None else J
    p, m = G.shape[0], J.shape[0]
    lift = [M[None] for M in (H, G, J, np.zeros(n), np.zeros(p), np.zeros(m))]
    data, shapes = _lane_rows(HOST, lift)
    kkt, _phi_band, _s_band = _lane_kkt(
        (HOST, reg, 16, _LaneMeters(HOST, 1), _LaneFaults([hook])),
        data, shapes, lift[0], np.ones(1, dtype=bool),
        lift[1] if p else None, lift[1].transpose(0, 2, 1),
        lift[2] if m else None, lift[2].transpose(0, 2, 1),
        bandwidth, 2 if m else 1,
    )  # fmt: skip
    return kkt


def test_stage_schur_complement_is_the_dense_one(subproblems):
    """``S = sum_k V_k^T V_k`` equals ``G solve(Phi, G^T)`` to 1e-12 and is
    exactly symmetric; the blocks the factor sees are ``H + J^T W J``'s.
    The regularization is 0.1: with the solver's 1e-9 the pinned ``x_0``
    entries carry only the regularization, ``Phi``'s condition number is
    ~1e10, and the dense LU reference is itself off by ~5e-8."""
    _, _, _, qp_args, _ = subproblems["Quadrotor"]
    H, g, G, b, J, d, bw = qp_args
    w = np.random.default_rng(0).uniform(0.1, 10.0, J.shape[0])
    seen = []

    class Record:
        def transform_matrix(self, A):
            seen.append(np.array(A))
            return A

    kkt = hinted_step(H, G, J, bw, 0.1, Record())
    assert type(kkt).__name__ == "_StageLaneKKT"
    assert kkt.factor(w[None], np.ones(1, dtype=bool)).all()
    Phi, S = seen
    assert kkt.meters.retries[0] == 0
    dense_phi = H + (J.T * w) @ J
    assert np.max(np.abs(Phi - dense_phi)) <= 1e-14 * np.max(np.abs(dense_phi))
    ref = G @ np.linalg.solve(Phi + 0.1 * np.eye(H.shape[0]), G.T)
    assert np.max(np.abs(S - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert np.array_equal(S, S.T)


def _block_qp(seed, sizes=(2, 3, 1, 2), p=3, m=4):
    """A small QP whose ``Phi`` is block-diagonal over ``sizes``: ``J``
    rows inside one block each, ``G`` rows across adjacent blocks."""
    rng = np.random.default_rng(seed)
    starts = np.cumsum((0,) + sizes)
    n = int(starts[-1])
    H = np.zeros((n, n))
    for a, z in zip(starts[:-1], starts[1:]):
        A = rng.normal(size=(z - a, z - a))
        H[a:z, a:z] = A @ A.T + 0.1 * np.eye(z - a)
    G = np.zeros((p, n))
    for i in range(p):
        k = i % (len(sizes) - 1)
        G[i, [starts[k], starts[k + 1]]] = rng.normal(size=2)
    J = np.zeros((m, n))
    for i in range(m):
        k = i % len(sizes)
        J[i, starts[k] : starts[k + 1]] = rng.normal(size=sizes[k])
    return (
        H,
        rng.normal(size=n),
        G,
        0.1 * rng.normal(size=p),
        J,
        rng.uniform(0.5, 1.5, size=m),
    )


def _assert_same_answer(args, bandwidth, **kw):
    opt = QPOptions(max_iterations=200, tolerance=1e-11)
    stage = solve_qp(*args, opt, bandwidth=bandwidth, **kw)
    dense = solve_qp(*args, opt)
    assert stage.converged and dense.converged
    assert stage.stats.banded_factorizations > 0
    scale = 1.0 + np.max(np.abs(dense.x))
    assert np.max(np.abs(stage.x - dense.x)) <= 1e-9 * scale
    return stage


def test_chain_without_split_points_solves_to_dense_answer():
    n = 30
    H = 2.1 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    rng = np.random.default_rng(1)
    G = np.zeros((3, n))
    for i, c in enumerate((4, 14, 24)):
        G[i, c : c + 2] = rng.normal(size=2)
    J = np.eye(n)[::3]
    args = (H, rng.normal(size=n), G, rng.normal(size=3), J, np.full(10, 0.3))
    bounds, band = block_partition(H, J)
    assert list(bounds) == [0, n] and band == 1
    _assert_same_answer(args, bandwidth=2)


class TestStageCornerCases:
    def test_one_variable(self):
        H, g = np.array([[2.0]]), np.array([1.0])
        J, d = np.array([[1.0], [-1.0]]), np.array([-0.75, 2.0])
        res = _assert_same_answer((H, g, None, None, J, d), bandwidth=0)
        assert abs(res.x[0] + 0.75) <= 1e-8

    def test_no_equalities(self):
        H, g, _, _, J, d = _block_qp(2)
        _assert_same_answer((H, g, None, None, J, d), bandwidth=3)

    def test_no_inequalities(self):
        H, g, G, b, _, _ = _block_qp(3)
        res = _assert_same_answer((H, g, G, b, None, None), bandwidth=3)
        assert np.max(np.abs(G @ res.x - b)) <= 1e-9

    def test_block_that_needs_the_ladder(self):
        # A slightly indefinite block (eigenvalue -1e-4) that no J row
        # touches: every iteration the ladder must lift it (to reg 1e-3).
        # The row x_2 = x_3 makes the QP convex on its feasible set, so
        # both paths still reach the one solution.
        H, g, G, b, J, d = _block_qp(4, sizes=(2, 2, 2))
        H[2:4, 2:4] = [[1.0, 1.0001], [1.0001, 1.0]]
        G = np.vstack([G, [0.0, 0.0, 1.0, -1.0, 0.0, 0.0]])
        b = np.append(b, 0.0)
        J[:, 2:4] = 0.0
        res = _assert_same_answer((H, g, G, b, J, d), bandwidth=3)
        assert res.stats.retries > 0 and res.stats.regularization_max >= 1e-4


class TestStageFaultHooks:
    def test_force_failure_escalates_the_stage_ladder(self):
        args = _block_qp(5)

        class FailThrice:
            left = 3

            def force_failure(self):
                self.left -= 1
                return self.left >= 0

        res = _assert_same_answer(args, bandwidth=3, fault_hook=FailThrice())
        assert res.stats.retries == 3

    @pytest.mark.parametrize("diagonal", [False, True])
    def test_transform_matrix_changes_the_factor_input(self, diagonal):
        # The congruence scaling of index 3 lands in its block alone: the
        # second of [0, 2) [2, 5) [5, 8), or entry 3 of a diagonal Phi.
        H, g, G, b, J, d = _block_qp(6)
        k = 3

        class Scale:
            def transform_matrix(self, A):
                out = A.copy()
                out[k, :] *= 10.0
                out[:, k] *= 10.0
                return out

        one = np.ones(1, dtype=bool)
        if diagonal:
            H = np.diag(np.diag(H))
            kkt = hinted_step(H, None, None, 3, 0.0, Scale())
            blocks = np.diag(H)
            moved = np.diag(Scale().transform_matrix(H))
            assert list(np.flatnonzero(moved != blocks)) == [k]
            assert kkt.factor(None, one).all()
            # the lane's pivots are lane 1's of the two-lane [blocks, moved]
            r = robust_diag_factor_batch(np.stack([blocks, moved]), 0.0)[0]
            assert np.array_equal(kkt.r[0], r[1])
            assert not np.array_equal(kkt.r[0], r[0])
            return
        kkt = hinted_step(H, None, J, 3, 0.0, Scale())  # Phi alone, no S
        cols, real = kkt.layout.cols, kkt.layout.real

        def blocks_of(A):
            out = np.pad(A, ((0, 1), (0, 1)))[cols[:, :, None], cols[:, None, :]]
            d = np.arange(cols.shape[1])
            out[:, d, d] += ~real
            return out

        blocks = blocks_of(H)
        moved = blocks_of(Scale().transform_matrix(H))
        assert np.array_equal(kkt.block_H[0], blocks)
        changed = np.flatnonzero(np.any(moved != blocks, axis=(1, 2)))
        assert list(changed) == [1]
        assert kkt.factor(None, one).all()
        # the lane's factor is lane 1 of the two-lane [blocks, moved]
        factor = kkt.phi
        lanes = BatchCholeskyFactor(np.stack([blocks, moved]))
        for stack in ("_D", "_Dinv", "_C"):
            assert np.array_equal(getattr(factor, stack)[0], getattr(lanes, stack)[1])
        assert not np.array_equal(factor._Dinv[0], lanes._Dinv[0])
        rhs = np.random.default_rng(0).normal(size=blocks.shape[:2])
        assert np.array_equal(
            factor.solve(rhs[None])[0], lanes.solve(np.stack([rhs] * 2))[1]
        )


def test_move_blocking_falls_back_to_dense():
    """move_block > 1 breaks the stage interleave; the solver must not
    advertise (or use) a bandwidth hint."""
    bench = build_benchmark("MobileRobot")
    problem = bench.transcribe(horizon=HORIZON)
    problem_mb = type(problem)(
        bench.model, bench.task, horizon=HORIZON, dt=bench.dt, move_block=2
    )
    assert problem_mb.stage_permutation() is None
    assert problem_mb.kkt_half_bandwidth() is None
    solver = bench.make_solver(problem_mb)
    qp_args, qperm = solver.first_qp_subproblem(bench.x0, bench.ref)
    assert qperm is None and qp_args[6] is None
    res = solver.solve(bench.x0, bench.ref)
    assert np.all(np.isfinite(res.z))
    assert solver.stats["banded_factorizations"] == 0


def test_banded_option_false_forces_dense_path():
    bench = build_benchmark("MobileRobot")
    problem = bench.transcribe(horizon=HORIZON)
    solver = bench.make_solver(problem, banded=False)
    qp_args, qperm = solver.first_qp_subproblem(bench.x0, bench.ref)
    assert qperm is None and qp_args[6] is None
    solver.solve(bench.x0, bench.ref)
    assert solver.stats["factorizations"] > 0
    assert solver.stats["banded_factorizations"] == 0


def test_solver_routes_through_banded_kernels():
    bench = build_benchmark("MobileRobot")
    problem = bench.transcribe(horizon=HORIZON)
    solver = bench.make_solver(problem)
    res = solver.solve(bench.x0, bench.ref)
    assert np.all(np.isfinite(res.z))
    assert solver.stats["banded_factorizations"] > 0
    assert solver.stats["factorize_time"] > 0.0
    assert solver.stats["substitute_time"] > 0.0
    assert solver.stats["linearize_time"] > 0.0
    assert solver.stats["factor_flops"] > 0


def test_banded_and_dense_solvers_agree_end_to_end():
    """Full SQP solves with and without the banded path reach the same
    trajectory (control-grade tolerance; the QP sequences are identical up
    to factorization roundoff)."""
    bench = build_benchmark("MobileRobot")
    problem = bench.transcribe(horizon=HORIZON)
    res_b = bench.make_solver(problem).solve(bench.x0, bench.ref)
    res_d = bench.make_solver(problem, banded=False).solve(bench.x0, bench.ref)
    assert res_b.converged and res_d.converged
    scale = 1.0 + np.max(np.abs(res_d.z))
    assert np.max(np.abs(res_b.z - res_d.z)) <= 1e-4 * scale


class TestDivergenceGuard:
    def infeasible_qp(self, **overrides):
        # x >= 2 and x <= -1 cannot both hold: the IPM drives the
        # inequality multipliers to infinity.
        H = np.eye(1)
        g = np.zeros(1)
        J = np.array([[1.0], [-1.0]])
        d = np.array([-1.0, -2.0])
        opt = QPOptions(**overrides)
        return solve_qp(H, g, None, None, J, d, opt)

    def test_returns_consistent_residual_iterate_pair(self):
        res = self.infeasible_qp(max_iterations=200)
        assert not res.converged
        # The reported residual must be the residual *of the returned
        # iterate* — recompute it from scratch.
        H = np.eye(1)
        J = np.array([[1.0], [-1.0]])
        d = np.array([-1.0, -2.0])
        r_dual = H @ res.x + J.T @ res.lam
        r_in = J @ res.x + res.slacks - d
        mu = float(res.slacks @ res.lam) / 2
        # the loop's stopping measure: max |residual| + mu
        recomputed = (
            max(float(np.max(np.abs(r_dual))), float(np.max(np.abs(r_in)))) + mu
        )
        assert np.isclose(res.residual, recomputed, rtol=1e-12, atol=0.0)

    def test_iterate_stays_finite(self):
        res = self.infeasible_qp(max_iterations=200)
        for v in (res.x, res.nu, res.lam, res.slacks):
            assert np.all(np.isfinite(v))
        assert np.isfinite(res.residual)


class TestPolish:
    def test_polish_improves_residual(self):
        rng = np.random.default_rng(3)
        n, m = 12, 8
        A = rng.normal(size=(n, n))
        H = A @ A.T + n * np.eye(n)
        g = rng.normal(size=n)
        J = rng.normal(size=(m, n))
        d = rng.normal(size=m)
        raw = solve_qp(H, g, None, None, J, d, QPOptions())
        pol = solve_qp(H, g, None, None, J, d, QPOptions(polish=True))
        assert raw.converged and pol.converged
        assert pol.residual <= raw.residual
        assert np.max(np.abs(pol.x - raw.x)) <= 1e-6 * (
            1.0 + np.max(np.abs(raw.x))
        )

    def test_polish_never_worsens_on_equality_constrained_qp(self):
        rng = np.random.default_rng(5)
        n, p, m = 10, 3, 6
        A = rng.normal(size=(n, n))
        H = A @ A.T + n * np.eye(n)
        g = rng.normal(size=n)
        G = rng.normal(size=(p, n))
        b = rng.normal(size=p)
        J = rng.normal(size=(m, n))
        d = rng.normal(size=m) + 1.0
        raw = solve_qp(H, g, G, b, J, d, QPOptions())
        pol = solve_qp(H, g, G, b, J, d, QPOptions(polish=True))
        assert pol.converged
        assert pol.residual <= raw.residual
        assert np.max(np.abs(G @ pol.x - b)) <= 1e-9
