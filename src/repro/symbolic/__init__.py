"""Symbolic math engine: expressions, autodiff, simplification, compilation.

This is the foundation the rest of the RoboX reproduction builds on: robot
dynamics and task penalties are authored (via the DSL or the Python API) as
symbolic expressions, the Program Translator differentiates them, and both
the interior-point solver and the accelerator compiler consume the resulting
DAGs.
"""

from repro.symbolic.autodiff import Memo, diff, gradient, hessian, jacobian
from repro.symbolic.compile import CompiledFunction, compile_function
from repro.symbolic.expr import (
    ELEMENTARY_OPS,
    NONLINEAR_OPS,
    OPS,
    Call,
    Const,
    Expr,
    Op,
    Var,
    acos,
    as_expr,
    asin,
    atan,
    cos,
    count_nodes,
    count_ops,
    exp,
    log,
    sin,
    sqrt,
    substitute,
    tan,
    tanh,
    topological_order,
    variables_of,
)
from repro.symbolic.printer import to_string
from repro.symbolic.simplify import is_one, is_zero, simplify

__all__ = [
    "Expr",
    "Const",
    "Var",
    "Call",
    "Op",
    "OPS",
    "ELEMENTARY_OPS",
    "NONLINEAR_OPS",
    "as_expr",
    "sin",
    "cos",
    "tan",
    "asin",
    "acos",
    "atan",
    "exp",
    "log",
    "sqrt",
    "tanh",
    "variables_of",
    "count_nodes",
    "count_ops",
    "substitute",
    "topological_order",
    "Memo",
    "diff",
    "gradient",
    "jacobian",
    "hessian",
    "simplify",
    "is_zero",
    "is_one",
    "compile_function",
    "CompiledFunction",
    "to_string",
]
