"""Fused-linearizer integration: the tier rule, the C kernel's agreement
with the interpreted evaluators, solver stats surfacing, the shared-object
cache (hit / cold / horizon-free key), and the drops to the interpreted
provider (build failures, runtime failures, narrow batch-vectorization
catches).  Tests that bind the C tier share one module-scoped store root,
so each robot compiles once; a per-test root appears only where cold/hit
behaviour is the assertion."""

import numpy as np
import pytest

from repro.batch import BatchLinearizer
from repro.batch.backend import NumpyBackend
from repro.codegen import (
    ArtifactStore,
    CodegenStats,
    FusedProblemKernels,
    c_available,
    resolve_mode,
)
from repro.errors import CodegenError, VectorizationError
from repro.robots import build_benchmark


needs_c = pytest.mark.skipif(
    not c_available(), reason="no C compiler here"
)


@pytest.fixture(scope="module")
def shared_root(tmp_path_factory):
    return tmp_path_factory.mktemp("cgcache")


@pytest.fixture(autouse=True)
def _module_cache(shared_root, monkeypatch):
    """One artifact-store root for the module: each robot compiles once."""
    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(shared_root))
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
        monkeypatch.setenv("REPRO_CODEGEN", "on")
        assert resolve_mode(None) == "on"
        assert resolve_mode("off") == "off"  # explicit beats env

    def test_unknown_mode_rejected(self):
        for mode in ("fast", "numpy", "c"):  # the retired tier pins too
            with pytest.raises(CodegenError):
                resolve_mode(mode)


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

    @needs_c
    def test_on_pin(self, mobile):
        _, problem = mobile
        k = FusedProblemKernels(problem, "on")
        assert k.active
        assert k.stats.kernel == "fused-c"
        assert k.stats.emit_time > 0.0

    @needs_c
    def test_move_block_builds_the_same_kernel(self, tmp_path, monkeypatch):
        """Blocked stages are evaluated per step like unblocked ones, so a
        ``move_block > 1`` problem builds the C kernel under the same
        artifact key: a store hit, no compiler run."""
        from repro.mpc import TranscribedProblem

        bench = build_benchmark("MobileRobot")
        store = ArtifactStore(tmp_path)
        plain = FusedProblemKernels(bench.transcribe(horizon=6), "on", store=store)

        def no_compiler(*a, **k):
            raise AssertionError("the compiler ran on a store hit")

        monkeypatch.setattr("repro.codegen.cbackend._compile", no_compiler)
        problem = TranscribedProblem(
            bench.model, bench.task, horizon=6, dt=bench.dt, move_block=2
        )
        k = FusedProblemKernels(problem, "on", store=store)
        assert k.active and k.stats.kernel == "fused-c"
        assert k.key == plain.key
        assert k.stats.store_hit

    def test_c_mode_degrades_without_compiler(self, mobile, monkeypatch):
        _, problem = mobile
        monkeypatch.setattr(
            "repro.codegen.linearizer.c_available", lambda: False
        )
        k = FusedProblemKernels(problem, "on")
        assert not k.active
        assert k.stats.kernel == "interpreted"
        assert "no C compiler" in k.stats.fallback_reason

    @needs_c
    def test_store_hit_on_second_build(self, mobile, tmp_path, monkeypatch):
        """``store_hit`` means the shared object was reloaded and no
        compiler ran — not that an emit walk was saved."""
        _, problem = mobile
        store = ArtifactStore(tmp_path)  # cold root: hit/miss is the subject
        first = FusedProblemKernels(problem, "on", store=store)
        assert first.stats.kernel == "fused-c"
        assert not first.stats.store_hit

        def no_compiler(*a, **k):
            raise AssertionError("the compiler ran on a store hit")

        monkeypatch.setattr("repro.codegen.cbackend._compile", no_compiler)
        second = FusedProblemKernels(problem, "on", store=store)
        assert first.key == second.key
        assert second.stats.kernel == "fused-c"
        assert second.stats.store_hit
        assert second.stats.emit_time > 0.0  # the walk is still paid

    @needs_c
    def test_compiler_error_degrades_with_its_stderr(
        self, mobile, tmp_path, monkeypatch
    ):
        """A compiler that exits non-zero leaves the problem interpreted,
        and the reason carries what the compiler said."""
        from repro.codegen import cbackend

        _, problem = mobile
        emit = cbackend.emit_c_module
        monkeypatch.setattr(
            cbackend,
            "emit_c_module",
            lambda irs: emit(irs) + "\nthis is not C;\n",
        )
        k = FusedProblemKernels(problem, "on", store=ArtifactStore(tmp_path))
        assert not k.active
        assert k.stats.kernel == "interpreted"
        reason = k.stats.fallback_reason
        assert reason.startswith("build failed: C compiler exited ")
        assert "error" in reason and "this" in reason  # the stderr tail
        assert not list(tmp_path.rglob("*.so"))  # nothing half-built left

    @needs_c
    def test_horizons_of_one_robot_share_one_artifact(
        self, tmp_path, monkeypatch
    ):
        """The key is the content: the stage body has no ``N`` in it."""
        monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path))  # cold root
        bench = build_benchmark("MobileRobot")
        keys = []
        for horizon, hit in ((5, False), (7, True)):
            problem = bench.transcribe(horizon=horizon)
            x0, z = _point(bench, problem)
            problem.set_codegen("off")
            expected = _all_scalar_outputs(problem, z, x0, bench.ref)
            problem.set_codegen("on")
            assert problem.lanes.tier == "fused"
            assert problem.codegen_stats().store_hit is hit
            keys.append(problem.codegen_kernels().key)
            got = _all_scalar_outputs(problem, z, x0, bench.ref)
            for e, g in zip(expected, got):
                assert np.array_equal(np.asarray(e), np.asarray(g))
        assert keys[0] == keys[1]
        so_dir = ArtifactStore(tmp_path).so_dir_for(keys[0])
        assert len(list(so_dir.glob("*.so"))) == 1


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


@pytest.mark.parametrize("mode", [pytest.param("on", id="c", marks=needs_c)])
def test_scalar_fused_matches_interpreted(mobile, mode):
    bench, problem = mobile
    x0, z = _point(bench, problem)
    problem.set_codegen("off")
    expected = _all_scalar_outputs(problem, z, x0, bench.ref)
    problem.set_codegen(mode)
    assert problem.codegen_kernels().active
    got = _all_scalar_outputs(problem, z, x0, bench.ref)
    for e, g in zip(expected, got):
        # same libm, contraction off: bit-identical to interpreted
        assert np.array_equal(np.asarray(e), np.asarray(g))


@needs_c
def test_scalar_point_cache_serves_follow_ups(mobile):
    bench, problem = mobile
    x0, z = _point(bench, problem)
    problem.set_codegen("on")
    problem.objective_gradient(z, bench.ref)  # fused_run_full + term_full
    stats = problem.codegen_stats()
    misses = stats.cache_misses
    problem.objective(z, bench.ref)  # subset of the cached full pass
    problem.equality_constraints(z, x0, bench.ref)
    assert stats.cache_misses == misses
    assert stats.cache_hits > 0


@needs_c
def test_runtime_failure_falls_back_to_interpreted(mobile):
    bench, problem = mobile
    x0, z = _point(bench, problem)
    problem.set_codegen("off")
    expected = problem.objective(z, bench.ref)
    problem.set_codegen("on")
    assert problem.lanes.tier == "fused"

    def boom(*a, **k):
        raise RuntimeError("kernel exploded")

    problem.lanes.provider = boom
    assert problem.objective(z, bench.ref) == pytest.approx(expected, abs=1e-12)
    assert problem.lanes.tier == "interpreted"  # permanently disabled
    assert not problem.codegen_kernels().active
    assert "runtime failure" in problem.codegen_stats().fallback_reason


@needs_c
def test_validation_errors_still_raise_through_fused(mobile):
    from repro.errors import TranscriptionError

    bench, problem = mobile
    x0, z = _point(bench, problem)
    problem.set_codegen("on")
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


@needs_c
def test_ipm_solver_surfaces_codegen_stats(mobile):
    bench, problem = mobile
    solver = bench.make_solver(problem)
    problem.set_codegen("on")
    result = solver.solve(np.asarray(bench.x0, float), ref=bench.ref)
    assert result.converged
    record = solver.stats["codegen"]
    assert record is not None
    assert record["kernel"] == "fused-c"
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

    def test_batch_never_consults_the_fused_tier(self, mobile, monkeypatch):
        """Who binds decides: under ``on`` a batch is still the vectorized
        provider, and building it neither builds nor reads the kernels."""
        bench, problem = mobile
        Z, X0 = self._lanes(bench, problem)
        problem.set_codegen("off")
        plain = BatchLinearizer(problem)

        def no_build(*a, **k):
            raise AssertionError("a batch built FusedProblemKernels")

        monkeypatch.setattr(
            "repro.codegen.linearizer.FusedProblemKernels.__init__", no_build
        )
        problem.set_codegen("on")
        lin = BatchLinearizer(problem)
        assert lin._lanes.tier == plain._lanes.tier == "vectorized"
        assert lin.codegen_stats is None and lin.fallback_reason == ""
        assert problem._cg_stats is None  # nothing was decided, nothing built
        want = plain.objective_gradient(Z, bench.ref)
        assert np.array_equal(lin.objective_gradient(Z, bench.ref), want)

    def test_batch_point_cache_counts(self, mobile):
        """The batch keeps the assembler's point cache (it carries no
        codegen stats, so provider calls are counted directly)."""
        bench, problem = mobile
        Z, X0 = self._lanes(bench, problem)
        lin = BatchLinearizer(problem)
        R = lin.normalize_ref([bench.ref] * Z.shape[0], Z.shape[0])
        provider, calls = lin._lanes.provider, []

        def counting(lanes, pt, name):
            calls.append(name)
            return provider(lanes, pt, name)

        lin._lanes.provider = counting
        lin.equality_jacobian(Z, R)
        evaluated = len(calls)
        assert evaluated > 0
        lin.equality_jacobian(Z, R)  # same point: every group is cached
        assert len(calls) == evaluated
        lin.equality_constraints(Z, X0, R)  # value groups: one sweep each
        assert len(calls) > evaluated
        assert len(set(calls)) == len(calls)


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
    """A fused tier that cannot be built lands on the interpreted provider
    with the reason recorded where the provider is chosen."""

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
        problem.set_codegen("on")
        assert np.array_equal(problem.objective_gradient(z, bench.ref), expected)
        assert problem.codegen_kernels() is None
        assert problem.lanes.tier == "interpreted"
        stats = problem.codegen_stats()
        assert stats.kernel == "interpreted"
        assert stats.fallback_reason.startswith("build failed: ")
        assert "read-only" in stats.fallback_reason

    @needs_c
    def test_store_that_fails_mid_build_records_build_failure(self, mobile):
        class FailingStore(ArtifactStore):
            def so_dir_for(self, key):
                raise OSError("disk went away")

        _, problem = mobile
        k = FusedProblemKernels(problem, "on", store=FailingStore())
        assert not k.active
        assert k.stats.kernel == "interpreted"
        assert k.stats.fallback_reason.startswith("build failed: ")
        assert "disk went away" in k.stats.fallback_reason


def test_codegen_stats_roundtrip():
    stats = CodegenStats(kernel="fused-c", cache_hits=3)
    d = stats.as_dict()
    assert d["kernel"] == "fused-c"
    assert d["cache_hits"] == 3
