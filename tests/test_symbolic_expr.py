"""Unit tests for the symbolic expression core (repro.symbolic.expr)."""

import copy
import gc
import math
import pickle
import weakref

import pytest

from repro.errors import SymbolicError
from repro.symbolic import (
    Call,
    Const,
    Op,
    OPS,
    Var,
    as_expr,
    cos,
    count_nodes,
    count_ops,
    exp,
    log,
    sin,
    sqrt,
    substitute,
    tan,
    topological_order,
    variables_of,
)


class TestConstruction:
    def test_const_holds_float(self):
        c = Const(3)
        assert c.value == 3.0
        assert isinstance(c.value, float)

    def test_const_rejects_non_number(self):
        with pytest.raises(SymbolicError):
            Const("x")

    def test_const_rejects_bool(self):
        with pytest.raises(SymbolicError):
            Const(True)

    def test_var_requires_name(self):
        with pytest.raises(SymbolicError):
            Var("")

    def test_as_expr_passthrough(self):
        v = Var("x")
        assert as_expr(v) is v

    def test_as_expr_coerces_int(self):
        e = as_expr(2)
        assert isinstance(e, Const)
        assert e.value == 2.0

    def test_as_expr_rejects_bool(self):
        with pytest.raises(SymbolicError):
            as_expr(True)

    def test_as_expr_rejects_none(self):
        with pytest.raises(SymbolicError):
            as_expr(None)

    def test_call_arity_check(self):
        with pytest.raises(SymbolicError):
            Call(OPS["add"], (Const(1.0),))

    def test_call_rejects_non_expr_operand(self):
        with pytest.raises(SymbolicError):
            Call(OPS["add"], (Const(1.0), 2.0))

    def test_no_truth_value(self):
        with pytest.raises(SymbolicError):
            bool(Var("x"))


class TestOperatorOverloading:
    def test_add_builds_call(self):
        e = Var("x") + 1
        assert isinstance(e, Call)
        assert e.op.name == "add"

    def test_radd(self):
        e = 1 + Var("x")
        assert e.op.name == "add"
        assert isinstance(e.args[0], Const)

    def test_sub_mul_div_pow_neg(self):
        x = Var("x")
        assert (x - 1).op.name == "sub"
        assert (x * 2).op.name == "mul"
        assert (x / 2).op.name == "div"
        assert (x**2).op.name == "pow"
        assert (-x).op.name == "neg"

    def test_rsub_order(self):
        e = 5 - Var("x")
        assert isinstance(e.args[0], Const)
        assert e.args[0].value == 5.0

    def test_rdiv_order(self):
        e = 1 / Var("x")
        assert isinstance(e.args[0], Const)

    def test_pos_is_identity(self):
        x = Var("x")
        assert +x is x


class TestEquality:
    def test_structural_equality(self):
        a = Var("x") + Var("y")
        b = Var("x") + Var("y")
        assert a == b
        assert hash(a) == hash(b)

    def test_different_ops_unequal(self):
        assert Var("x") + Var("y") != Var("x") * Var("y")

    def test_const_equality(self):
        assert Const(1.0) == Const(1)
        assert Const(1.0) != Const(2.0)

    def test_signed_zeros_differ(self):
        assert Const(0.0) != Const(-0.0)
        assert Const(0.0) is not Const(-0.0)
        assert Var("x") + Const(0.0) != Var("x") + Const(-0.0)
        assert Const(-0.0) is Const(-0.0)

    def test_nan_constant_equals_itself(self):
        assert Const(math.nan) is Const(float("nan"))
        assert Const(math.nan) == Const(math.nan)

    def test_usable_as_dict_key(self):
        d = {Var("x") + 1: "a"}
        assert d[Var("x") + 1] == "a"


class TestEvaluation:
    def test_arithmetic(self):
        e = (Var("x") + 2) * Var("y")
        assert e.evaluate({"x": 1.0, "y": 3.0}) == 9.0

    def test_nonlinear(self):
        e = sin(Var("t")) + cos(Var("t"))
        t = 0.7
        assert e.evaluate({"t": t}) == pytest.approx(math.sin(t) + math.cos(t))

    def test_unbound_variable_raises(self):
        with pytest.raises(SymbolicError, match="unbound"):
            Var("q").evaluate({})

    def test_division_by_zero_raises(self):
        e = Var("x") / Var("y")
        with pytest.raises(ZeroDivisionError):
            e.evaluate({"x": 1.0, "y": 0.0})

    def test_sqrt_negative_raises(self):
        with pytest.raises(SymbolicError):
            sqrt(Var("x")).evaluate({"x": -1.0})

    def test_pow(self):
        e = Var("x") ** 3
        assert e.evaluate({"x": 2.0}) == 8.0

    def test_exp_log_roundtrip(self):
        e = log(exp(Var("x")))
        assert e.evaluate({"x": 1.234}) == pytest.approx(1.234)


class TestTraversal:
    def test_topological_children_first(self):
        x = Var("x")
        e = sin(x) + x
        order = topological_order([e])
        assert order.index(x) < order.index(e)

    def test_shared_subexpression_counted_once(self):
        x = Var("x")
        shared = sin(x)
        e = shared + shared * shared
        counts = count_ops([e])
        assert counts["sin"] == 1
        assert counts["mul"] == 1
        assert counts["add"] == 1

    def test_count_nodes_distinct(self):
        x = Var("x")
        e = x + x
        # nodes: x, add
        assert count_nodes([e]) == 2

    def test_variables_of_order_and_dedup(self):
        e = Var("a") + Var("b") * Var("a")
        names = [v.name for v in variables_of([e])]
        assert names == ["a", "b"]

    def test_deep_chain_no_recursion_error(self):
        e = Var("x")
        for _ in range(5000):
            e = e + 1
        assert count_nodes([e]) > 5000


class TestSubstitute:
    def test_replace_var(self):
        x, y = Var("x"), Var("y")
        e = sin(x) + x
        out = substitute(e, {x: y})
        assert out == sin(y) + y

    def test_replace_subtree(self):
        x = Var("x")
        e = sin(x) * 2
        out = substitute(e, {sin(x): Const(0.5)})
        assert out.evaluate({}) == 1.0

    def test_identity_when_no_match(self):
        e = Var("x") + 1
        assert substitute(e, {Var("zzz"): Const(0.0)}) == e


class TestInterning:
    def test_equal_constructions_are_one_object(self):
        assert Var("x") is Var("x")
        assert Const(2) is Const(2.0)
        assert (Var("x") + 1) * sin(Var("y")) is (Var("x") + 1) * sin(Var("y"))
        assert Call(OPS["add"], [Var("x"), Var("y")]) is Var("x") + Var("y")

    def test_distinct_structures_stay_distinct(self):
        x, y = Var("x"), Var("y")
        assert x + y is not y + x
        assert x - y is not x + y

    @pytest.mark.parametrize(
        "op, args",
        [
            ("add", (Var("x"), Var("y"))),  # an op name, not an Op
            (OPS["add"], (Var("x"),)),
            (OPS["sin"], (Var("x"), Var("y"))),
            (OPS["mul"], (Var("x"), 2.0)),
            (OPS["mul"], (Var("x"), [2.0])),  # unhashable operand
        ],
    )
    def test_invalid_calls_still_raise(self, op, args):
        Var("x") + Var("y")  # a live node under the same key must not mask it
        with pytest.raises(SymbolicError):
            Call(op, args)

    def test_hash_clash_keeps_both_nodes_canonical(self):
        # a second op spelled "add" gives the same structural hash as add
        twin = Op("add", 2, lambda a, b: a + b, "+")
        x, y = Var("x"), Var("y")
        real = x + y
        other = Call(twin, (x, y))
        assert hash(other) == hash(real) and other is not real
        assert Call(twin, (x, y)) is other
        assert x + y is real
        del real
        gc.collect()
        assert Call(twin, (x, y)) is other

    @pytest.mark.parametrize(
        "roundtrip",
        [copy.copy, copy.deepcopy, lambda e: pickle.loads(pickle.dumps(e))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_return_the_canonical_node(self, roundtrip):
        e = sqrt(Var("x") * Const(2.5) + exp(-Var("y")))
        for node in (e, Var("x"), Const(2.5), e.args[0]):
            assert roundtrip(node) is node

    def test_table_keeps_no_dead_node_alive(self):
        e = sin(Var("only_here") * Const(7.25)) + Var("also_only_here")
        inner = e.args[0]
        refs = [weakref.ref(n) for n in (e, inner, inner.args[0])]
        del e, inner
        gc.collect()
        assert all(r() is None for r in refs)

    def test_known_nodes_stop_the_walk(self):
        x = Var("x")
        shared = sin(x) * cos(x)
        e = shared + x
        assert topological_order([e], {shared: None}) == (x, e)
