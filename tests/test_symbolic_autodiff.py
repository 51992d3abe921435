"""Tests for symbolic automatic differentiation, including numeric checks
against central finite differences (the property the KKT system depends on).
"""

import gc
import math

import numpy as np
import pytest

from repro.errors import DifferentiationError
from repro.mpc import transcription
from repro.robots import BENCHMARK_NAMES, build_benchmark
from repro.symbolic import (
    CompiledFunction,
    Const,
    Memo,
    Var,
    acos,
    asin,
    atan,
    cos,
    diff,
    exp,
    gradient,
    hessian,
    jacobian,
    log,
    sin,
    simplify,
    sqrt,
    tan,
    tanh,
)

X = Var("x")
Y = Var("y")


def fd(expr, env, name, eps=1e-6):
    """Central finite difference of expr w.r.t. env[name]."""
    hi = dict(env)
    lo = dict(env)
    hi[name] += eps
    lo[name] -= eps
    return (expr.evaluate(hi) - expr.evaluate(lo)) / (2 * eps)


class TestBasicRules:
    def test_constant_derivative_zero(self):
        assert diff(Const(5.0), X) == Const(0.0)

    def test_var_self_derivative_one(self):
        assert diff(X, X) == Const(1.0)

    def test_var_other_derivative_zero(self):
        assert diff(Y, X) == Const(0.0)

    def test_sum_rule(self):
        assert diff(X + Y, X) == Const(1.0)

    def test_product_rule(self):
        d = diff(X * Y, X)
        assert d == Y

    def test_power_constant_exponent(self):
        d = diff(X**3, X)
        assert d.evaluate({"x": 2.0}) == pytest.approx(12.0)

    def test_quotient_rule(self):
        d = diff(X / Y, Y)
        assert d.evaluate({"x": 2.0, "y": 4.0}) == pytest.approx(-2.0 / 16.0)

    def test_chain_rule(self):
        d = diff(sin(X * X), X)
        x = 0.8
        assert d.evaluate({"x": x}) == pytest.approx(2 * x * math.cos(x * x))

    def test_neg(self):
        assert diff(-X, X) == Const(-1.0)


@pytest.mark.parametrize(
    "builder, x0",
    [
        (lambda v: sin(v), 0.5),
        (lambda v: cos(v), 0.5),
        (lambda v: tan(v), 0.4),
        (lambda v: asin(v), 0.3),
        (lambda v: acos(v), 0.3),
        (lambda v: atan(v), 1.2),
        (lambda v: exp(v), 0.7),
        (lambda v: log(v), 1.5),
        (lambda v: sqrt(v), 2.0),
        (lambda v: tanh(v), 0.9),
        (lambda v: v**2.5, 1.7),
        (lambda v: Const(2.0) ** v, 1.1),
        (lambda v: v**v, 1.3),
        (lambda v: sin(v) * exp(v) / (1 + v * v), 0.6),
    ],
)
def test_derivative_matches_finite_difference(builder, x0):
    expr = builder(X)
    d = diff(expr, X)
    assert d.evaluate({"x": x0}) == pytest.approx(
        fd(expr, {"x": x0}, "x"), rel=1e-5
    )


class TestVectorCalculus:
    def test_gradient_length(self):
        g = gradient(X * Y + X, [X, Y])
        assert len(g) == 2
        assert g[0].evaluate({"x": 1.0, "y": 2.0}) == pytest.approx(3.0)
        assert g[1].evaluate({"x": 1.0, "y": 2.0}) == pytest.approx(1.0)

    def test_jacobian_shape_and_values(self):
        J = jacobian([X * Y, X + Y], [X, Y])
        assert len(J) == 2 and len(J[0]) == 2
        env = {"x": 2.0, "y": 3.0}
        assert J[0][0].evaluate(env) == 3.0
        assert J[0][1].evaluate(env) == 2.0
        assert J[1][0].evaluate(env) == 1.0

    def test_hessian_symmetry(self):
        e = sin(X) * Y * Y + X * X * Y
        H = hessian(e, [X, Y])
        env = {"x": 0.4, "y": 1.2}
        assert H[0][1].evaluate(env) == pytest.approx(H[1][0].evaluate(env))

    def test_hessian_matches_fd(self):
        e = exp(X * Y) + X**3
        H = hessian(e, [X, Y])
        env = {"x": 0.3, "y": 0.7}
        eps = 1e-4

        def grad_x(en):
            return diff(e, X).evaluate(en)

        hi = dict(env)
        lo = dict(env)
        hi["y"] += eps
        lo["y"] -= eps
        fd_xy = (grad_x(hi) - grad_x(lo)) / (2 * eps)
        assert H[0][1].evaluate(env) == pytest.approx(fd_xy, rel=1e-4)

    def test_quadratic_hessian_constant(self):
        e = 3 * X * X + 2 * X * Y + Y * Y
        H = hessian(e, [X, Y])
        assert H[0][0] == Const(6.0)
        assert H[0][1] == Const(2.0)
        assert H[1][1] == Const(2.0)


class TestSimplifiedOutput:
    def test_zero_partial_collapses_to_const_zero(self):
        # Sparsity detection in the transcription layer depends on this.
        d = diff(sin(Y) + Y * Y, X)
        assert d == Const(0.0)

    def test_linear_derivative_is_const(self):
        d = diff(3 * X + Y, X)
        assert d == Const(3.0)


class TestErrors:
    def test_nonpositive_base_power(self):
        with pytest.raises(DifferentiationError):
            diff(Const(-2.0) ** X, X)


class TestMemo:
    def test_memoized_partials_are_the_fresh_objects(self):
        e = sin(X * Y) * exp(X) + (X - Y) ** 3
        memo = Memo()
        grad = [diff(e, v, memo) for v in (X, Y)]
        hess = [diff(g, v, memo) for g in grad for v in (X, Y)]
        assert all(a is diff(e, v) for a, v in zip(grad, (X, Y)))
        assert all(
            h is diff(g, v) for h, (g, v) in zip(hess, [(g, v) for g in grad for v in (X, Y)])
        )

    def test_release_keeps_results_and_drops_the_variable(self):
        e = tanh(X * Y + Y)
        with Memo() as memo:
            dx = diff(e, X, memo)
            memo.release(X)
            assert X not in memo.derivatives
            assert diff(e, X, memo) is dx
        assert len(memo) == 0


def _functions(problem):
    fns = {k: v for k, v in vars(problem).items() if isinstance(v, CompiledFunction)}
    assert "_contraction" in fns and "_A" in fns and "_B" in fns
    return fns


@pytest.fixture(scope="module")
def shared_and_fresh():
    """Per robot: the problem as built (one memo per build) and a rebuild
    in which every ``diff`` / ``simplify`` call gets a memo of its own."""
    built = {}

    def get(robot):
        if robot not in built:
            bench = build_benchmark(robot)
            shared = bench.transcribe(horizon=2)
            xs = np.tile(bench.x0, (shared.N + 1, 1))
            z = shared.join(xs, np.zeros((shared.N, shared.nu)))
            shared.lagrangian_hessian(z, np.zeros(shared.n_eq), bench.ref)
            gc.collect()
            survivors = [
                len(m) for m in gc.get_objects() if isinstance(m, Memo) and len(m)
            ]
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(transcription, "diff", lambda e, v, memo: diff(e, v))
                mp.setattr(
                    transcription, "simplify", lambda e, memo=None: simplify(e)
                )
                fresh = build_benchmark(robot).transcribe(horizon=2)
                fresh._dynamics_contraction_fn()
            built[robot] = (shared, fresh, survivors)
        return built[robot]

    return get


ROBOTS = [
    pytest.param(name, marks=pytest.mark.slow) if name == "Hexacopter" else name
    for name in BENCHMARK_NAMES + ("CartPole",)
]


@pytest.mark.parametrize("robot", ROBOTS)
class TestBuildMemo:
    def test_shared_memo_builds_the_fresh_objects(self, shared_and_fresh, robot):
        shared, fresh, _ = shared_and_fresh(robot)
        a, b = _functions(shared), _functions(fresh)
        assert a.keys() == b.keys()
        for name in a:
            assert len(a[name].exprs) == len(b[name].exprs), name
            assert all(x is y for x, y in zip(a[name].exprs, b[name].exprs)), name

    def test_compiled_sources_match(self, shared_and_fresh, robot):
        shared, fresh, _ = shared_and_fresh(robot)
        a, b = _functions(shared), _functions(fresh)
        assert {k: f.source for k, f in a.items()} == {
            k: f.source for k, f in b.items()
        }

    def test_no_memo_entry_survives_the_build(self, shared_and_fresh, robot):
        _, _, survivors = shared_and_fresh(robot)
        assert survivors == []
