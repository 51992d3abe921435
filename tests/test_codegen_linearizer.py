"""Fused-linearizer integration: tier selection, scalar/batch agreement
with the interpreted evaluators, solver stats surfacing, and the fallback
ladder (build failures, runtime failures, narrow batch-vectorization
catches)."""

import numpy as np
import pytest

from repro.batch import BatchLinearizer
from repro.batch.backend import NumpyBackend
from repro.codegen import CodegenStats, FusedProblemKernels, c_available, resolve_mode
from repro.errors import CodegenError, SolverError, VectorizationError
from repro.robots import build_benchmark


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    """Every test gets its own artifact-store root."""
    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path / "cgcache"))
    monkeypatch.delenv("REPRO_CODEGEN", raising=False)


@pytest.fixture()
def mobile():
    bench = build_benchmark("MobileRobot")
    return bench, bench.transcribe(horizon=5)


def _point(bench, problem, seed=0):
    rng = np.random.default_rng(seed)
    x0 = np.asarray(bench.x0, float) + 0.05 * rng.standard_normal(problem.nx)
    z = problem.initial_guess(x0) + 0.02 * rng.standard_normal(problem.nz)
    return x0, z


class TestModeResolution:
    def test_env_default(self, monkeypatch):
        assert resolve_mode(None) == "auto"
        monkeypatch.setenv("REPRO_CODEGEN", "numpy")
        assert resolve_mode(None) == "numpy"
        assert resolve_mode("off") == "off"  # explicit beats env

    def test_unknown_mode_rejected(self):
        with pytest.raises(CodegenError):
            resolve_mode("fast")

    def test_qpoptions_validates_codegen(self):
        from repro.mpc.qp import QPOptions

        assert QPOptions(codegen="numpy").codegen == "numpy"
        with pytest.raises(SolverError):
            QPOptions(codegen="fast")


class TestTierSelection:
    def test_off_is_interpreted(self, mobile):
        _, problem = mobile
        k = FusedProblemKernels(problem, "off")
        assert not k.active
        assert k.stats.kernel == "interpreted"
        assert k.stats.fallback_reason == "codegen off"

    def test_auto_keeps_small_problems_interpreted(self, mobile):
        _, problem = mobile
        k = FusedProblemKernels(problem, "auto")
        assert not k.active
        assert "below size cutoff" in k.stats.fallback_reason

    def test_numpy_pin(self, mobile):
        _, problem = mobile
        k = FusedProblemKernels(problem, "numpy")
        assert k.active
        assert k.stats.kernel == "fused-numpy"
        assert k.stats.emit_time > 0.0

    def test_move_block_falls_back(self):
        from repro.mpc import TranscribedProblem

        bench = build_benchmark("MobileRobot")
        problem = TranscribedProblem(
            bench.model, bench.task, horizon=6, dt=bench.dt, move_block=2
        )
        k = FusedProblemKernels(problem, "on")
        assert not k.active
        assert k.stats.fallback_reason == "move_block > 1"

    def test_c_mode_degrades_without_compiler(self, mobile, monkeypatch):
        _, problem = mobile
        monkeypatch.setattr(
            "repro.codegen.linearizer.c_available", lambda: False
        )
        k = FusedProblemKernels(problem, "c")
        assert k.active
        assert k.stats.kernel == "fused-numpy"
        assert "no C compiler" in k.stats.fallback_reason

    def test_store_hit_on_second_build(self, mobile):
        _, problem = mobile
        first = FusedProblemKernels(problem, "numpy")
        second = FusedProblemKernels(problem, "numpy")
        assert first.key == second.key
        assert not first.stats.store_hit
        assert second.stats.store_hit


def _all_scalar_outputs(problem, z, x0, ref):
    return (
        problem.objective(z, ref),
        problem.objective_gradient(z, ref),
        problem.objective_gauss_newton(z, ref),
        problem.equality_constraints(z, x0, ref),
        problem.equality_jacobian(z, ref),
        problem.inequality_constraints(z, ref),
        problem.inequality_jacobian(z, ref),
    )


@pytest.mark.parametrize(
    "mode",
    [
        "numpy",
        pytest.param(
            "c",
            marks=pytest.mark.skipif(
                not c_available(), reason="no C compiler / cffi here"
            ),
        ),
    ],
)
def test_scalar_fused_matches_interpreted(mobile, mode):
    bench, problem = mobile
    x0, z = _point(bench, problem)
    problem.set_codegen("off")
    expected = _all_scalar_outputs(problem, z, x0, bench.ref)
    problem.set_codegen(mode)
    assert problem.codegen_kernels().active
    got = _all_scalar_outputs(problem, z, x0, bench.ref)
    for e, g in zip(expected, got):
        if mode == "c":
            # same libm, contraction off: bit-identical to interpreted
            assert np.array_equal(np.asarray(e), np.asarray(g))
        else:
            np.testing.assert_allclose(g, e, rtol=0, atol=1e-12)


def test_scalar_point_cache_serves_follow_ups(mobile):
    bench, problem = mobile
    x0, z = _point(bench, problem)
    problem.set_codegen("numpy")
    problem.objective_gradient(z, bench.ref)  # fused_run_full + term_full
    stats = problem.codegen_stats()
    misses = stats.cache_misses
    problem.objective(z, bench.ref)  # subset of the cached full pass
    problem.equality_constraints(z, x0, bench.ref)
    assert stats.cache_misses == misses
    assert stats.cache_hits > 0


def test_runtime_failure_falls_back_to_interpreted(mobile):
    bench, problem = mobile
    x0, z = _point(bench, problem)
    problem.set_codegen("off")
    expected = problem.objective(z, bench.ref)
    problem.set_codegen("numpy")
    assert problem.lanes.tier == "fused"

    def boom(*a, **k):
        raise RuntimeError("kernel exploded")

    problem.lanes.provider = boom
    assert problem.objective(z, bench.ref) == pytest.approx(expected, abs=1e-12)
    assert problem.lanes.tier == "interpreted"  # permanently disabled
    assert not problem.codegen_kernels().active
    assert "runtime failure" in problem.codegen_stats().fallback_reason


def test_validation_errors_still_raise_through_fused(mobile):
    from repro.errors import TranscriptionError

    bench, problem = mobile
    x0, z = _point(bench, problem)
    problem.set_codegen("numpy")
    with pytest.raises(TranscriptionError):
        problem.equality_constraints(z, np.zeros(problem.nx + 1), bench.ref)
    with pytest.raises(TranscriptionError):
        problem.objective(z)  # missing required reference values
    with pytest.raises(TranscriptionError):
        problem.objective(z[:-1], bench.ref)  # mis-shaped z
    stack = np.tile(np.asarray(bench.ref, float), (1, problem.N + 1, 1))
    with pytest.raises(TranscriptionError, match=r"got \(1, "):
        problem.objective(z, stack)  # a lane stack is not a scalar reference
    # a contract violation must not tear down the fused path
    assert problem.lanes.tier == "fused"
    assert problem.codegen_kernels().active


def test_ipm_solver_surfaces_codegen_stats(mobile):
    bench, problem = mobile
    solver = bench.make_solver(problem)
    solver.options.qp.codegen = "numpy"
    problem.set_codegen("numpy")
    result = solver.solve(np.asarray(bench.x0, float), ref=bench.ref)
    assert result.converged
    record = solver.stats["codegen"]
    assert record is not None
    assert record["kernel"] == "fused-numpy"
    assert record["cache_hits"] > 0


class TestBatchFused:
    def _lanes(self, bench, problem, B=3):
        rng = np.random.default_rng(1)
        Z = np.stack(
            [
                problem.initial_guess(
                    np.asarray(bench.x0, float)
                    + 0.1 * rng.standard_normal(problem.nx)
                )
                + 0.05 * rng.standard_normal(problem.nz)
                for _ in range(B)
            ]
        )
        return Z, Z[:, : problem.nx].copy()

    def test_batch_fused_matches_batch_vectorized(self, mobile):
        bench, problem = mobile
        Z, X0 = self._lanes(bench, problem)
        problem.set_codegen("off")
        plain = BatchLinearizer(problem)
        assert plain._lanes.tier == "vectorized"
        assert plain.codegen_stats is None
        problem.set_codegen("numpy")
        fused = BatchLinearizer(problem)
        assert fused._lanes.tier == "fused"
        assert fused.codegen_stats is problem.codegen_stats()
        R = plain.normalize_ref([bench.ref] * Z.shape[0], Z.shape[0])
        pairs = [
            (plain.objective(Z, R), fused.objective(Z, R)),
            (
                plain.objective_gradient(Z, R),
                fused.objective_gradient(Z, R),
            ),
            (
                plain.objective_gauss_newton(Z, R),
                fused.objective_gauss_newton(Z, R),
            ),
            (
                plain.equality_constraints(Z, X0, R),
                fused.equality_constraints(Z, X0, R),
            ),
            (plain.equality_jacobian(Z, R), fused.equality_jacobian(Z, R)),
            (
                plain.inequality_constraints(Z, R),
                fused.inequality_constraints(Z, R),
            ),
            (
                plain.inequality_jacobian(Z, R),
                fused.inequality_jacobian(Z, R),
            ),
        ]
        for want, got in pairs:
            # same ufuncs in the same order: bit-identical stacks
            assert np.array_equal(np.asarray(want), np.asarray(got))

    def test_batch_point_cache_counts(self, mobile):
        bench, problem = mobile
        Z, X0 = self._lanes(bench, problem)
        problem.set_codegen("numpy")
        lin = BatchLinearizer(problem)
        R = lin.normalize_ref([bench.ref] * Z.shape[0], Z.shape[0])
        lin.equality_jacobian(Z, R)
        stats = lin.codegen_stats
        misses = stats.cache_misses
        lin.equality_constraints(Z, X0, R)  # same objects: cached full pass
        assert stats.cache_misses == misses
        assert stats.cache_hits > 0


class TestBatchFallbackNarrowing:
    """Satellite regression: ``BatchLinearizer.__init__`` must only swallow
    genuine vectorization failures — real bugs surface."""

    class _NoSinBackend(NumpyBackend):
        def ufuncs(self):
            funcs = dict(super().ufuncs())
            funcs.pop("sin", None)
            return funcs

    def test_missing_ufunc_records_reason(self, mobile):
        _, problem = mobile
        lin = BatchLinearizer(problem, backend=self._NoSinBackend("float64"))
        assert not lin.vectorized
        assert "sin" in lin.fallback_reason

    def test_vectorized_path_has_no_reason(self, mobile):
        _, problem = mobile
        lin = BatchLinearizer(problem)
        assert lin.vectorized
        assert lin.fallback_reason == ""

    def test_genuine_bug_propagates(self, mobile, monkeypatch):
        _, problem = mobile

        def broken(fn, backend=None):
            raise RuntimeError("a real bug, not a vectorization gap")

        monkeypatch.setattr(
            "repro.batch.transcription.vectorize_compiled", broken
        )
        with pytest.raises(RuntimeError, match="a real bug"):
            BatchLinearizer(problem)

    def test_vectorization_error_subclasses_transcription_error(self):
        from repro.errors import TranscriptionError

        assert issubclass(VectorizationError, TranscriptionError)


class TestNoSilentTierDrop:
    """A fused tier that cannot be built or bound lands on the next
    provider with the reason recorded where the provider is chosen."""

    class _BrokenStore:
        def __init__(self, *a, **k):
            raise OSError("cache root is read-only")

    def test_store_that_cannot_open_records_build_failure(
        self, mobile, monkeypatch
    ):
        bench, problem = mobile
        x0, z = _point(bench, problem)
        problem.set_codegen("off")
        expected = problem.objective_gradient(z, bench.ref)
        monkeypatch.setattr(
            "repro.codegen.linearizer.ArtifactStore", self._BrokenStore
        )
        problem.set_codegen("numpy")
        assert np.array_equal(problem.objective_gradient(z, bench.ref), expected)
        assert problem.codegen_kernels() is None
        assert problem.lanes.tier == "interpreted"
        stats = problem.codegen_stats()
        assert stats.kernel == "interpreted"
        assert stats.fallback_reason.startswith("build failed: ")
        assert "read-only" in stats.fallback_reason

    def test_store_that_fails_mid_build_records_build_failure(self, mobile):
        from repro.codegen import ArtifactStore

        class FailingLoad(ArtifactStore):
            def load(self, key):
                raise OSError("disk went away")

        _, problem = mobile
        k = FusedProblemKernels(problem, "numpy", store=FailingLoad())
        assert not k.active
        assert k.stats.kernel == "interpreted"
        assert k.stats.fallback_reason.startswith("build failed: ")

    def test_batch_bind_failure_is_recorded(self, mobile, monkeypatch):
        bench, problem = mobile
        problem.set_codegen("numpy")
        assert problem.codegen_kernels().active

        def cannot_bind(module, backend=None):
            raise RuntimeError("backend lacks a ufunc")

        monkeypatch.setattr("repro.codegen.linearizer.FusedKernel", cannot_bind)
        lin = BatchLinearizer(problem)
        assert lin.vectorized  # still the vectorized provider, not a loop
        assert lin.fallback_reason.startswith("bind failed: ")
        assert lin.codegen_stats is None
        Z = np.stack([_point(bench, problem, seed=s)[1] for s in range(2)])
        problem.set_codegen("off")
        want = BatchLinearizer(problem).objective_gradient(Z, bench.ref)
        assert np.array_equal(lin.objective_gradient(Z, bench.ref), want)


def test_codegen_stats_roundtrip():
    stats = CodegenStats(kernel="fused-c", cache_hits=3)
    d = stats.as_dict()
    assert d["kernel"] == "fused-c"
    assert d["cache_hits"] == 3
