"""Vectorized linearization: lane-wise agreement with the scalar
``TranscribedProblem`` evaluators, compiled-function vectorization, and
the interpreted-provider fallback."""

import numpy as np
import pytest

from repro.batch import BatchLinearizer, vectorize_compiled
from repro.batch.backend import NumpyBackend
from repro.batch.transcription import VectorizedFunction
from repro.robots import build_benchmark
from repro.symbolic.compile import compile_function


@pytest.fixture(scope="module")
def mobile():
    bench = build_benchmark("MobileRobot")
    problem = bench.transcribe(horizon=5)
    return bench, problem


class NoUfuncBackend(NumpyBackend):
    """numpy without ufunc twins: no stage function with a ``math`` call
    can vectorize, so a linearizer binds the interpreted provider."""

    def ufuncs(self):
        return {}


def lanes_for(problem, bench, B, seed=0):
    rng = np.random.default_rng(seed)
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
    X0 = Z[:, : problem.nx].copy()
    return Z, X0


class TestVectorizedFunction:
    def test_matches_scalar_elementwise(self, mobile):
        _bench, problem = mobile
        F = problem._F
        vf = vectorize_compiled(F)
        rng = np.random.default_rng(3)
        cols = [rng.normal(size=7) for _ in range(F.n_inputs)]
        out = vf(cols)
        assert out.shape == (7, F.n_outputs)
        for i in range(7):
            scalar = np.asarray(F(np.array([c[i] for c in cols])), dtype=float)
            assert np.allclose(out[i], scalar, atol=1e-14)

    def test_constant_outputs_broadcast(self):
        # A function whose output is a bare constant must still broadcast
        # across the batch axis.
        from repro.symbolic.expr import Const, Var

        x = Var("x")
        fn = compile_function([Const(2.5), x * 0 + 1.0], [x], name="konst")
        vf = VectorizedFunction(fn)
        out = vf([np.arange(4.0)])
        assert out.shape == (4, 2)
        assert np.allclose(out[:, 0], 2.5)
        assert np.allclose(out[:, 1], 1.0)


class TestBatchLinearizer:
    def test_vectorized_fast_path_active(self, mobile):
        _bench, problem = mobile
        lin = BatchLinearizer(problem)
        assert lin.vectorized

    @pytest.mark.parametrize("vectorized", [True, False])
    def test_all_evaluators_match_scalar(self, mobile, vectorized):
        bench, problem = mobile
        # vectorized=False: bound to the interpreted provider (per-knot
        # Python floats on the host), as when a function has no ufunc twin
        lin = BatchLinearizer(
            problem, backend=None if vectorized else NoUfuncBackend("float64")
        )
        assert lin.vectorized is vectorized
        B = 3
        Z, X0 = lanes_for(problem, bench, B)
        R = lin.normalize_ref([bench.ref] * B, B)
        obj = lin.objective(Z, R)
        grad = lin.objective_gradient(Z, R)
        H = lin.objective_gauss_newton(Z, R)
        g_eq = lin.equality_constraints(Z, X0, R)
        G = lin.equality_jacobian(Z, R)
        h = lin.inequality_constraints(Z, R)
        J = lin.inequality_jacobian(Z, R)
        for i in range(B):
            assert obj[i] == pytest.approx(
                problem.objective(Z[i], bench.ref), rel=1e-12
            )
            assert np.allclose(
                grad[i], problem.objective_gradient(Z[i], bench.ref), atol=1e-11
            )
            assert np.allclose(
                H[i], problem.objective_gauss_newton(Z[i], bench.ref), atol=1e-11
            )
            assert np.allclose(
                g_eq[i],
                problem.equality_constraints(Z[i], X0[i], bench.ref),
                atol=1e-11,
            )
            assert np.allclose(
                G[i], problem.equality_jacobian(Z[i], bench.ref), atol=1e-11
            )
            assert np.allclose(
                h[i], problem.inequality_constraints(Z[i], bench.ref), atol=1e-11
            )
            assert np.allclose(
                J[i], problem.inequality_jacobian(Z[i], bench.ref), atol=1e-11
            )

    def test_initial_guess_matches_scalar(self, mobile):
        bench, problem = mobile
        lin = BatchLinearizer(problem)
        rng = np.random.default_rng(5)
        X0 = np.stack(
            [
                np.asarray(bench.x0, float) + 0.1 * rng.standard_normal(problem.nx)
                for _ in range(4)
            ]
        )
        Z = lin.initial_guess(X0)
        for i in range(4):
            assert np.allclose(Z[i], problem.initial_guess(X0[i]), atol=1e-12)

    def test_per_lane_references(self, mobile):
        bench, problem = mobile
        lin = BatchLinearizer(problem)
        B = 3
        Z, _X0 = lanes_for(problem, bench, B, seed=11)
        rng = np.random.default_rng(6)
        refs = [bench.ref + 0.1 * rng.standard_normal(bench.ref.shape) for _ in range(B)]
        R = lin.normalize_ref(refs, B)
        obj = lin.objective(Z, R)
        for i in range(B):
            assert obj[i] == pytest.approx(
                problem.objective(Z[i], refs[i]), rel=1e-12
            )

    def test_normalized_stack_passthrough(self, mobile):
        bench, problem = mobile
        lin = BatchLinearizer(problem)
        R = lin.normalize_ref([bench.ref] * 2, 2)
        # A pre-normalized stack (and gathered subsets of it) must pass
        # through unchanged — the batched SQP loop re-submits these.
        assert lin.normalize_ref(R, 2) is R
        sub = R[:1]
        assert lin.normalize_ref(sub, 1) is sub
