"""Array-backend seam: registry/selection semantics, cross-backend parity
of the batched QP path, device-mode vs host-mode agreement of the one
masked-lockstep loop, and the no-per-iteration-host-sync acceptance gate."""

import numpy as np
import pytest

from repro.batch import (
    ArrayBackend,
    BatchLinearizer,
    BatchSolver,
    CountingBackend,
    available_backends,
    get_backend,
    register_backend,
    solve_qp_batch,
)
from repro.batch.backend import HOST, NumpyBackend
from repro.errors import SolverError
from repro.mpc.qp import QPOptions
from repro.robots import build_benchmark
from tests.test_batch_qp import rank_deficient_qp


def _backend_params(names):
    return [
        pytest.param(
            name,
            marks=()
            if name in available_backends()
            else pytest.mark.skip(reason=f"{name} not importable here"),
        )
        for name in names
    ]


ALL_BACKENDS = _backend_params(("numpy", "torch", "cupy"))
#: jax joins only the seam-pure consumers (the masked-lockstep QP loop);
#: BatchSolver's host scatter updates need mutable arrays, which jax's
#: immutable arrays cannot provide (see JaxBackend's docstring).
QP_BACKENDS = _backend_params(("numpy", "torch", "cupy", "jax"))


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


def qp_batch(B=5, n=8, p=2, m=4, seed=50):
    return stack_qps([random_qp(n, p, m, seed + i) for i in range(B)])


class TestRegistry:
    def test_numpy_always_registered_and_default(self):
        assert "numpy" in available_backends()
        xp = get_backend()
        assert xp.name == "numpy"
        assert xp.dtype_name == "float64"
        assert not xp.is_device

    def test_instance_passthrough(self):
        xp = NumpyBackend()
        assert get_backend(xp) is xp

    def test_dtype_suffix_and_caching(self):
        xp32 = get_backend("numpy:float32")
        assert xp32.dtype_name == "float32"
        assert xp32.asarray([1.0]).dtype == np.float32
        assert get_backend("numpy:float32") is xp32
        assert get_backend("numpy") is not xp32

    def test_env_selection(self, monkeypatch):
        monkeypatch.setenv("REPRO_ARRAY_BACKEND", "numpy:float32")
        assert get_backend().dtype_name == "float32"

    def test_unknown_backend_raises(self):
        with pytest.raises(SolverError):
            get_backend("tpu")

    def test_unknown_dtype_raises(self):
        with pytest.raises(SolverError):
            NumpyBackend("float16")

    def test_register_custom_backend(self):
        register_backend("custom-test", NumpyBackend)
        try:
            assert "custom-test" in available_backends()
            assert isinstance(get_backend("custom-test"), NumpyBackend)
        finally:
            from repro.batch import backend as backend_mod

            backend_mod._FACTORIES.pop("custom-test")
            backend_mod._INSTANCES.pop(("custom-test", "float64"), None)

    def test_dtype_tokens(self):
        xp = get_backend("numpy")
        assert xp.zeros((2,), dtype="int").dtype == np.int64
        assert xp.zeros((2,), dtype="bool").dtype == np.bool_
        assert xp.zeros((2,)).dtype == np.float64


class TestCrossBackendParity:
    """Every registered backend must agree with the numpy reference on
    the batched QP path (absent accelerators skip with a reason)."""

    @pytest.mark.parametrize("name", QP_BACKENDS)
    def test_qp_parity(self, name):
        H, g, G, b, J, d = qp_batch()
        ref = solve_qp_batch(H, g, G, b, J, d)
        res = solve_qp_batch(H, g, G, b, J, d, backend=name)
        assert list(res.status) == list(ref.status)
        assert np.array_equal(
            np.asarray(res.iterations), np.asarray(ref.iterations)
        )
        assert np.allclose(res.x, ref.x, atol=1e-6)
        assert np.allclose(res.nu, ref.nu, atol=1e-5)
        assert np.allclose(res.lam, ref.lam, atol=1e-5)

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_sqp_parity(self, name):
        bench = build_benchmark("MobileRobot")
        problem = bench.transcribe(horizon=4)
        rng = np.random.default_rng(9)
        B = 3
        X0 = np.stack(
            [
                np.asarray(bench.x0, float)
                + 0.03 * rng.standard_normal(problem.nx)
                for _ in range(B)
            ]
        )
        ref_results, _ = BatchSolver(problem).solve(
            X0, refs=[bench.ref] * B
        )
        results, _ = BatchSolver(problem, backend=name).solve(
            X0, refs=[bench.ref] * B
        )
        for got, ref in zip(results, ref_results):
            assert got.status == ref.status
            assert got.iterations == ref.iterations
            assert np.allclose(got.z, ref.z, atol=1e-6)


class TestMaskedLockstep:
    """The loop in device mode (exercised through a CountingBackend, so
    no GPU is needed: single-attempt factorization, early exit only every
    ``sync_interval``) must agree with host mode (numpy: full retry
    ladder, early exit every iteration) lane by lane."""

    def test_statuses_iterations_and_solutions_agree(self):
        H, g, G, b, J, d = qp_batch(B=6, seed=70)
        H[3] = np.nan  # a poisoned lane must freeze as failed in both
        ref = solve_qp_batch(H, g, G, b, J, d)
        res = solve_qp_batch(
            H, g, G, b, J, d, backend=CountingBackend()
        )
        assert list(res.status) == list(ref.status)
        assert np.array_equal(
            np.asarray(res.iterations), np.asarray(ref.iterations)
        )
        healthy = [i for i, s in enumerate(ref.status) if s == "converged"]
        assert np.allclose(res.x[healthy], ref.x[healthy], atol=1e-6)

    def test_per_lane_qpstats_agree(self):
        bench = build_benchmark("MobileRobot")
        problem = bench.transcribe(horizon=5)
        solver = bench.make_solver(problem)
        (H, g, G, b, J, d, bw), _perm = solver.first_qp_subproblem(
            bench.x0, bench.ref
        )
        stack = lambda M: np.repeat(np.asarray(M)[None], 3, axis=0)
        args = tuple(None if M is None else stack(M) for M in (H, g, G, b, J, d))
        ref = solve_qp_batch(*args, bandwidth=bw)
        res = solve_qp_batch(*args, bandwidth=bw, backend=CountingBackend())
        for qs, rs in zip(res.stats, ref.stats):
            assert qs.mode == rs.mode
            assert qs.phi_bandwidth == rs.phi_bandwidth
            assert qs.schur_bandwidth == rs.schur_bandwidth
            assert qs.factorizations == rs.factorizations
            assert qs.banded_factorizations == rs.banded_factorizations
            assert qs.factor_flops == rs.factor_flops
            assert qs.substitute_flops == rs.substitute_flops

    def test_ladder_lane_fails_on_device_and_is_retried_on_host(self):
        # The documented deviation: a ladder's early-exit test is a host
        # round-trip per rung, so device mode factors once and freezes the
        # lane the base regularization cannot factor; host mode retries it.
        n, p, m = 8, 2, 4
        args = stack_qps(
            [
                random_qp(n, p, m, 90),
                rank_deficient_qp(n, p, m, 99),
                random_qp(n, p, m, 91),
            ]
        )
        opt = QPOptions(regularization=0.0)
        host = solve_qp_batch(*args, opt)
        dev = solve_qp_batch(*args, opt, backend=CountingBackend())
        assert host.status[1] == "converged" and host.stats[1].retries > 0
        assert dev.status[1] == "failed" and dev.stats[1].retries == 0
        assert dev.iterations[1] == 1
        for lane in (0, 2):
            assert dev.status[lane] == host.status[lane] == "converged"
            assert dev.iterations[lane] == host.iterations[lane]
            assert np.allclose(dev.x[lane], host.x[lane], atol=1e-6)

    def test_lockstep_freeze_snapshots_are_the_final_state(self):
        # Frozen lanes are where-masked out of every update, so the
        # snapshot recorded at freeze time must equal the lane's returned
        # state bit for bit.
        H, g, G, b, J, d = qp_batch(B=4, seed=80)
        caps = np.array([2, 50, 4, 50])  # stagger the freeze points
        res = solve_qp_batch(
            H, g, G, b, J, d,
            iteration_caps=caps,
            record_freeze=True,
            backend=CountingBackend(),
        )
        assert res.freeze
        for lane, snap in res.freeze.items():
            assert np.array_equal(snap["x"], res.x[lane])
            assert np.array_equal(snap["nu"], res.nu[lane])
            assert np.array_equal(snap["lam"], res.lam[lane])

    def test_no_per_iteration_host_sync(self):
        # The acceptance gate: with sync_interval=0 the download count
        # must not grow with the iteration count — the device loop is
        # strictly sync-free until the single result materialization.
        H, g, G, b, J, d = qp_batch(B=4, seed=90)

        def syncs(max_iterations):
            xp = CountingBackend()
            solve_qp_batch(
                H, g, G, b, J, d,
                QPOptions(max_iterations=max_iterations),
                backend=xp,
                sync_interval=0,
            )
            return xp.sync_count

        assert syncs(5) == syncs(60)

    def test_sync_interval_bounds_early_exit_downloads(self):
        H, g, G, b, J, d = qp_batch(B=4, seed=91)
        xp = CountingBackend()
        solve_qp_batch(H, g, G, b, J, d, backend=xp, sync_interval=4)
        base = CountingBackend()
        solve_qp_batch(H, g, G, b, J, d, backend=base, sync_interval=0)
        # early-exit checks are one scalar each, every 4 iterations
        assert base.sync_count <= xp.sync_count <= base.sync_count + 16


class TestFloat32:
    def test_float32_qp_close_to_float64(self):
        H, g, G, b, J, d = qp_batch(B=3, seed=60)
        ref = solve_qp_batch(H, g, G, b, J, d)
        res = solve_qp_batch(H, g, G, b, J, d, backend="numpy:float32")
        assert res.x.dtype == np.float32
        assert np.allclose(res.x, ref.x, atol=5e-2)

    def test_float32_linearizer_close(self):
        bench = build_benchmark("CartPole")
        problem = bench.transcribe(horizon=4)
        lin64 = BatchLinearizer(problem)
        lin32 = BatchLinearizer(problem, backend="numpy:float32")
        X0 = np.repeat(np.asarray(bench.x0, float)[None], 2, axis=0)
        Z = lin64.initial_guess(X0)
        R64 = lin64.normalize_ref([bench.ref] * 2, 2)
        R32 = lin32.normalize_ref([bench.ref] * 2, 2)
        g64 = lin64.objective_gradient(Z, R64)
        g32 = lin32.objective_gradient(Z, R32)
        assert g32.dtype == np.float32
        assert np.allclose(g32, g64, atol=1e-3)


class TestSeamCompleteness:
    def test_counting_backend_counts_crossings(self):
        xp = CountingBackend()
        a = xp.from_host([1.0, 2.0])
        assert xp.upload_count == 1
        xp.to_host(a)
        xp.scalar(xp.all(a > 0.0))  # np.bool_ is not a host scalar yet
        assert xp.sync_count == 2
        # an already-extracted Python scalar is free
        xp.scalar(1.5)
        assert xp.sync_count == 2

    def test_base_namespace_is_numpy_semantics(self):
        xp = get_backend("numpy")
        assert isinstance(xp, ArrayBackend)
        a = xp.asarray([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(
            xp.transpose_last2(a), np.asarray(a).T
        )
        assert xp.scalar(xp.max(a)) == 4.0
        assert HOST is get_backend("numpy")
