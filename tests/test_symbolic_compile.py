"""Tests for numeric compilation of expression DAGs."""

import math

import numpy as np
import pytest

from repro.errors import SymbolicError
from repro.symbolic import (
    Const,
    Var,
    compile_function,
    cos,
    diff,
    exp,
    simplify,
    sin,
    sqrt,
)

X = Var("x")
Y = Var("y")


class TestCompileBasics:
    def test_single_output(self):
        f = compile_function([X * X + 1], [X])
        assert f([3.0]) == pytest.approx([10.0])

    def test_multiple_outputs_order(self):
        f = compile_function([X + Y, X - Y, X * Y], [X, Y])
        out = f([5.0, 2.0])
        assert out.tolist() == [7.0, 3.0, 10.0]

    def test_constant_only_output(self):
        f = compile_function([Const(4.0)], [X])
        assert f([0.0]) == pytest.approx([4.0])

    def test_unused_variable_accepted(self):
        f = compile_function([X + 1], [X, Y])
        assert f([1.0, 99.0]) == pytest.approx([2.0])

    def test_unknown_variable_rejected(self):
        with pytest.raises(SymbolicError, match="signature"):
            compile_function([Var("zz") + 1], [X])

    def test_duplicate_signature_rejected(self):
        with pytest.raises(SymbolicError, match="duplicate"):
            compile_function([X], [X, Var("x")])

    def test_wrong_input_length_rejected(self):
        f = compile_function([X + Y], [X, Y])
        with pytest.raises(SymbolicError):
            f([1.0])

    def test_call_dict(self):
        f = compile_function([X - Y], [X, Y])
        assert f.call_dict({"x": 3.0, "y": 1.0}) == pytest.approx([2.0])

    def test_call_dict_missing_binding(self):
        f = compile_function([X], [X])
        with pytest.raises(SymbolicError, match="missing binding"):
            f.call_dict({})

    def test_nonlinear_functions(self):
        f = compile_function([sin(X), cos(X), exp(X), sqrt(X)], [X])
        out = f([0.25])
        assert out == pytest.approx(
            [math.sin(0.25), math.cos(0.25), math.exp(0.25), math.sqrt(0.25)]
        )


class TestSignedZero:
    def test_signed_zeros_are_separate_constants(self):
        f = compile_function([X / Const(-0.0), X / Const(0.0)], [X])
        assert "(v0 / -0.0)" in f.source and "(v0 / 0.0)" in f.source
        assert f.source.rstrip().endswith("return (t0, t1)")

    def test_signed_zero_survives_evaluation(self):
        f = compile_function([X * Const(-0.0), X * Const(0.0)], [X])
        neg, pos = f.call_positional(1.0)
        assert math.copysign(1.0, neg) == -1.0
        assert math.copysign(1.0, pos) == 1.0

    def test_simplified_negative_zero_stays_negative(self):
        f = compile_function([simplify(-Const(0.0)), Const(0.0)], [X])
        neg, pos = f.call_positional(0.0)
        assert math.copysign(1.0, neg) == -1.0
        assert math.copysign(1.0, pos) == 1.0


class TestSharedSubexpressions:
    def test_shared_node_computed_once(self):
        shared = sin(X)
        f = compile_function([shared + shared, shared * shared], [X])
        # op_counts collapse the DAG: one sin, one add, one mul
        assert f.op_counts == {"sin": 1, "add": 1, "mul": 1}
        s = math.sin(1.2)
        assert f([1.2]) == pytest.approx([2 * s, s * s])

    def test_total_ops(self):
        f = compile_function([X * Y + X], [X, Y])
        assert f.total_ops == 2

    def test_source_is_inspectable(self):
        f = compile_function([X + 1], [X], name="myfunc")
        assert "def myfunc" in f.source


class TestAgainstInterpreter:
    @pytest.mark.parametrize("x0,y0", [(0.5, 1.5), (-1.0, 2.0), (3.0, -0.25)])
    def test_matches_evaluate(self, x0, y0):
        e = sin(X * Y) + exp(X - Y) / (Y * Y + 1) + X**3
        f = compile_function([e], [X, Y])
        assert f([x0, y0])[0] == pytest.approx(e.evaluate({"x": x0, "y": y0}))

    def test_gradient_compilation(self):
        e = sin(X) * Y + X * X
        g = [diff(e, X), diff(e, Y)]
        f = compile_function(g, [X, Y])
        x0, y0 = 0.7, 1.3
        assert f([x0, y0]) == pytest.approx(
            [math.cos(x0) * y0 + 2 * x0, math.sin(x0)]
        )
