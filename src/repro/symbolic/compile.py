"""Numeric compilation of expression DAGs to fast Python callables.

The interior-point solver evaluates the dynamics, constraint, gradient and
Hessian expressions thousands of times per control step.  Walking the DAG
interpretively is far too slow, so this module performs a light-weight code
generation: each distinct DAG node becomes one assignment in a generated
Python function body, which is then ``compile``d once.  Shared subexpressions
are therefore computed exactly once per call — the same property the RoboX
compiler exploits when mapping the M-DFG onto compute units.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import SymbolicError
from repro.symbolic.expr import Call, Const, Expr, Var, topological_order

__all__ = ["CompiledFunction", "compile_function"]

_MATH_FUNCS = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "asin": math.asin,
    "acos": math.acos,
    "atan": math.atan,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "tanh": math.tanh,
}

_INFIX = {"add": "+", "sub": "-", "mul": "*", "div": "/", "pow": "**"}


class CompiledFunction:
    """A compiled vector function ``f: R^n -> R^m``.

    Attributes:
        variables: input variable names in positional order.
        n_inputs / n_outputs: dimensions of the mapping.
        op_counts: histogram of primitive operations per evaluation — the
            ground truth used by the baseline cost models and the M-DFG sizing.
        source: the generated Python source (for inspection/tests).
    """

    def __init__(
        self,
        func: Callable[..., Tuple[float, ...]],
        variables: Tuple[str, ...],
        n_outputs: int,
        op_counts: Dict[str, int],
        source: str,
        exprs: Tuple[Expr, ...] = (),
    ):
        self._func = func
        #: unchecked fast path: positional floats in, raw tuple out.  The
        #: transcription inner loops call this thousands of times per control
        #: step, so it skips the asarray/shape-check/np.array round trip of
        #: :meth:`__call__` (callers pass python floats, e.g. ``*xs.tolist()``).
        self.call_positional = func
        self.variables = variables
        self.n_inputs = len(variables)
        self.n_outputs = n_outputs
        self.op_counts = dict(op_counts)
        self.source = source
        #: the symbolic output expressions (retained so the accelerator
        #: compiler can walk the exact DAG this function evaluates)
        self.exprs = tuple(exprs)

    def __call__(self, values: Sequence[float]) -> np.ndarray:
        arr = np.asarray(values, dtype=float)
        if arr.shape != (self.n_inputs,):
            raise SymbolicError(
                f"expected {self.n_inputs} input values, got shape {arr.shape}"
            )
        return np.array(self._func(*arr.tolist()), dtype=float)

    def call_dict(self, env: Dict[str, float]) -> np.ndarray:
        """Evaluate with named bindings instead of positional values."""
        try:
            values = [env[name] for name in self.variables]
        except KeyError as exc:
            raise SymbolicError(f"missing binding for variable {exc}") from None
        return np.array(self._func(*values), dtype=float)

    @property
    def total_ops(self) -> int:
        return sum(self.op_counts.values())


def compile_function(
    exprs: Sequence[Expr],
    variables: Sequence[Var],
    name: str = "generated",
) -> CompiledFunction:
    """Compile ``exprs`` into a single callable over ``variables``.

    Variables not appearing in any expression are still accepted as inputs
    (the transcription layer compiles per-stage functions against the full
    stage variable vector for a uniform calling convention).
    """
    var_names = tuple(v.name for v in variables)
    if len(set(var_names)) != len(var_names):
        raise SymbolicError(f"duplicate variable names in signature: {var_names}")
    slot = {nm: f"v{i}" for i, nm in enumerate(var_names)}

    order = topological_order(list(exprs))
    names: Dict[Expr, str] = {}
    lines: List[str] = []
    op_counts: Dict[str, int] = {}
    counter = 0

    for node in order:
        if isinstance(node, Const):
            names[node] = repr(node.value)
        elif isinstance(node, Var):
            if node.name not in slot:
                raise SymbolicError(
                    f"expression references {node.name!r} which is not in the "
                    f"function signature {var_names}"
                )
            names[node] = slot[node.name]
        elif isinstance(node, Call):
            args = [names[a] for a in node.args]
            opn = node.op.name
            op_counts[opn] = op_counts.get(opn, 0) + 1
            if opn in _INFIX:
                rhs = f"({args[0]} {_INFIX[opn]} {args[1]})"
            elif opn == "neg":
                rhs = f"(-{args[0]})"
            elif opn in _MATH_FUNCS:
                rhs = f"{opn}({args[0]})"
            else:  # pragma: no cover - all ops are covered above
                raise SymbolicError(f"cannot compile operation {opn!r}")
            tmp = f"t{counter}"
            counter += 1
            lines.append(f"    {tmp} = {rhs}")
            names[node] = tmp
        else:  # pragma: no cover
            raise SymbolicError(f"unknown node type {node!r}")

    out = ", ".join(names[e] for e in exprs)
    if len(exprs) == 1:
        out += ","
    params = ", ".join(slot[nm] for nm in var_names)
    body = "\n".join(lines) if lines else "    pass"
    source = f"def {name}({params}):\n{body}\n    return ({out})\n"

    namespace: Dict[str, object] = dict(_MATH_FUNCS)
    exec(compile(source, f"<symbolic:{name}>", "exec"), namespace)
    func = namespace[name]

    return CompiledFunction(
        func=func,
        variables=var_names,
        n_outputs=len(exprs),
        op_counts=op_counts,
        source=source,
        exprs=tuple(exprs),
    )
