"""Differential property suite: fused codegen vs interpreted evaluation.

The codegen contract is *bit-safety relative to a namespace*: a fused
function executed under the same primitive namespace as the per-function
interpreters must produce bit-identical outputs — not merely close ones.
This suite pins that contract over randomly generated expression DAGs
covering the full op surface (every ``_MATH_FUNCS`` transcendental, every
infix elementary, unary neg), with shared subexpressions across output
groups plus pass-through-variable and bare-constant outputs:

* fused Python source under ``math`` vs :class:`CompiledFunction`, scalar
  (``emit_python_function`` is the IR's reference executor: hypothesis
  cannot compile C per example);
* the C tier vs the interpreted scalar on seeded DAGs (one compiler
  invocation for the whole module; skipped when no compiler is present).
"""

import math
import struct

import numpy as np
import pytest

from repro.codegen import (
    FunctionGroup,
    build_ir,
    c_available,
    emit_fused_module,
    emit_python_function,
)
from repro.symbolic.compile import _INFIX, _MATH_FUNCS, compile_function
from repro.symbolic.expr import OPS, Call, Const, Var

hyp = pytest.importorskip("hypothesis", reason="property suite needs hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

UNARY_OPS = tuple(sorted(_MATH_FUNCS)) + ("neg",)
BINARY_OPS = tuple(sorted(_INFIX))
ALL_OPS = UNARY_OPS + BINARY_OPS

_finite = st.floats(
    min_value=-3.0, max_value=3.0, allow_nan=False, allow_infinity=False
)


def _bits(x: float) -> bytes:
    return struct.pack("<d", float(x))


@st.composite
def dags(draw):
    """A random DAG plus output groups drawn from its shared node pool.

    Nodes are built bottom-up over earlier nodes, so sampling operands
    from the pool naturally produces shared subexpressions; outputs are
    sampled from the same pool, so groups can share internal nodes and
    can return raw variables (pass-through) or bare constants.
    """
    n_vars = draw(st.integers(min_value=1, max_value=3))
    variables = [Var(f"x{i}") for i in range(n_vars)]
    pool = list(variables)
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        pool.append(Const(draw(_finite)))
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        op = OPS[draw(st.sampled_from(ALL_OPS))]
        args = tuple(
            pool[draw(st.integers(min_value=0, max_value=len(pool) - 1))]
            for _ in range(op.arity)
        )
        pool.append(Call(op, args))
    groups = []
    for gi in range(draw(st.integers(min_value=1, max_value=3))):
        exprs = tuple(
            pool[draw(st.integers(min_value=0, max_value=len(pool) - 1))]
            for _ in range(draw(st.integers(min_value=1, max_value=3)))
        )
        groups.append(FunctionGroup(name=f"g{gi}", exprs=exprs))
    return variables, groups


def _interpreted(variables, groups):
    return [
        compile_function(list(g.exprs), variables, name=f"oracle_{g.name}")
        for g in groups
    ]


def _oracle_at(compiled, point):
    """Evaluate every group at ``point``; None = domain error (discard)."""
    try:
        outs = [fn(point) for fn in compiled]
    except (ValueError, OverflowError, ZeroDivisionError, TypeError):
        # domain error, overflow, or a complex result from a
        # negative-base fractional pow — not a representable evaluation
        return None
    if not all(np.all(np.isfinite(o)) for o in outs):
        return None
    return outs


@given(dag=dags(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_fused_python_bit_identical_to_interpreted_scalar(dag, data):
    variables, groups = dag
    point = [data.draw(_finite, label=v.name) for v in variables]
    expected = _oracle_at(_interpreted(variables, groups), point)
    assume(expected is not None)

    ir = build_ir("fused", groups, [v.name for v in variables])
    namespace = dict(_MATH_FUNCS)
    exec(compile(emit_python_function(ir), "<fused>", "exec"), namespace)
    outs = namespace["fused"](*point)

    assert len(outs) == ir.layout.n_outputs
    for g, exp in zip(ir.layout.groups, expected):
        got = outs[g.start : g.start + g.count]
        assert len(got) == len(exp)
        for a, b in zip(got, exp.tolist()):
            assert _bits(a) == _bits(b), f"group {g.name}: {a!r} != {b!r}"


def _seeded_dag(seed: int):
    """Deterministic DAG exercising the full op surface (for the C tier)."""
    rng = np.random.default_rng(seed)
    variables = [Var(f"x{i}") for i in range(3)]
    pool = list(variables) + [Const(0.5), Const(-1.25)]
    for _ in range(30):
        op = OPS[ALL_OPS[int(rng.integers(len(ALL_OPS)))]]
        args = tuple(
            pool[int(rng.integers(len(pool)))] for _ in range(op.arity)
        )
        pool.append(Call(op, args))
    groups = [
        FunctionGroup(name="mixed", exprs=tuple(pool[-4:])),
        FunctionGroup(name="passthrough", exprs=(variables[0], Const(2.0))),
    ]
    return variables, groups


@pytest.mark.skipif(not c_available(), reason="no C compiler / cffi here")
def test_c_kernel_bit_identical_to_interpreted(tmp_path):
    from repro.codegen import ArtifactStore
    from repro.codegen.cbackend import build_c_kernel
    from repro.codegen.emit import module_fingerprint

    functions = []
    oracles = {}
    for seed in (7, 11, 13):
        variables, groups = _seeded_dag(seed)
        name = f"fused_s{seed}"
        functions.append((name, groups, [v.name for v in variables]))
        oracles[name] = (variables, groups, _interpreted(variables, groups))
    module = emit_fused_module(functions)
    key = module_fingerprint(module, extra=("test",))
    kern = build_c_kernel(module.irs, key, ArtifactStore(tmp_path))

    rng = np.random.default_rng(0)
    checked = 0
    for name, (variables, groups, compiled) in oracles.items():
        for _ in range(50):
            point = rng.uniform(-2.0, 2.0, size=len(variables))
            expected = _oracle_at(compiled, point)
            if expected is None:
                continue
            cols = [np.array([v]) for v in point.tolist()]
            fused = kern.call(name, cols)
            for g, exp in zip(groups, expected):
                got = fused[g.name][0]
                for a, b in zip(got.tolist(), exp.tolist()):
                    assert _bits(a) == _bits(b), f"{name}/{g.name}: {a} != {b}"
                    checked += 1
    assert checked > 100  # the domain filter must not eat the sample


@pytest.mark.skipif(not c_available(), reason="no C compiler / cffi here")
def test_constant_and_passthrough_outputs_broadcast(tmp_path):
    """Bare-constant / pass-through outputs fill the point axis like any
    computed output: a group of ``m`` outputs over ``n`` points is
    ``(n, m)``."""
    from repro.codegen import ArtifactStore
    from repro.codegen.cbackend import build_c_kernel
    from repro.codegen.emit import module_fingerprint

    x = Var("x")
    groups = [FunctionGroup(name="g0", exprs=(Const(3.5), x, x + Const(0.0)))]
    module = emit_fused_module([("fused", groups, ["x"])])
    kern = build_c_kernel(
        module.irs, module_fingerprint(module), ArtifactStore(tmp_path)
    )
    cols = [np.array([1.0, 2.0, 4.0])]
    out = kern.call("fused", cols)["g0"]
    assert out.shape == (3, 3)
    np.testing.assert_array_equal(out[:, 0], [3.5, 3.5, 3.5])
    np.testing.assert_array_equal(out[:, 1], cols[0])
    np.testing.assert_array_equal(out[:, 2], cols[0])


def test_full_op_surface_is_emittable_and_exact():
    """Every op in the registry that the interpreters accept must round-trip
    through the fused emitter with bit-identical scalar results."""
    x, y = Var("x"), Var("y")
    exprs = []
    for opn in UNARY_OPS:
        exprs.append(Call(OPS[opn], (Const(0.25) * x + Const(0.5),)))
    for opn in BINARY_OPS:
        exprs.append(Call(OPS[opn], (x + Const(1.5), y + Const(2.0))))
    groups = [FunctionGroup(name="all", exprs=tuple(exprs))]
    variables = [x, y]
    compiled = compile_function(exprs, variables, name="oracle")

    ir = build_ir("fused", groups, ["x", "y"])
    namespace = dict(_MATH_FUNCS)
    exec(compile(emit_python_function(ir), "<fused>", "exec"), namespace)
    for point in ([0.3, 0.7], [-0.2, 0.1], [0.9, -0.4]):
        expected = compiled(point)
        outs = namespace["fused"](*point)
        for a, b in zip(outs, expected.tolist()):
            assert _bits(a) == _bits(b)
