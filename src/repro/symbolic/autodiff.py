"""Symbolic automatic differentiation.

The RoboX Program Translator "uses automatic differentiation to compute all
necessary gradients" (paper §VII): the objective gradient and Hessian, and
the Jacobians of the dynamics (equality) and inequality constraints that
populate the KKT system of Eq. 6.  This module implements exact symbolic
differentiation over the expression DAG, plus the vector conveniences
(gradient / jacobian / hessian).

Memoization is per build.  A :class:`Memo` keyed by ``(node, var)`` (raw
partials) and by node (simplified forms) is shared by every ``diff`` call of
one build — all the Jacobians of a ``TranscribedProblem``, or the gradients
and second derivatives of its exact-Hessian contraction — so each distinct
subexpression is differentiated and simplified once per variable.  Because
nodes are interned, a memo hit is the object a fresh derivation would
build.  The build drops the memo when it ends; a call without one gets a
memo of its own.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import DifferentiationError
from repro.symbolic.expr import (
    Call,
    Const,
    Expr,
    Var,
    as_expr,
    cos,
    exp,
    log,
    repack_tables,
    sin,
    sqrt,
    tan,
    topological_order,
)
from repro.symbolic.simplify import simplify

__all__ = ["Memo", "diff", "gradient", "jacobian", "hessian"]

_ZERO = Const(0.0)
_ONE = Const(1.0)


class Memo:
    """Derivatives and simplified forms shared by the sweeps of one build.

    ``derivatives[var][node]`` is the raw (unsimplified) partial of ``node``
    by ``var`` and ``simplified`` is :func:`~repro.symbolic.simplify.simplify`'s
    node -> result memo.  Every entry is a pure function of its interned key,
    so a memoized result is the very object a fresh derivation builds; the
    memo only saves re-walking and re-deriving shared subexpressions, and
    dropping an entry early costs time, never a different result.

    A memo lives for one build: use it as a context manager, which empties
    it on exit (it holds every intermediate derivative alive) and shrinks
    the intern tables those intermediates had grown.
    """

    __slots__ = ("derivatives", "simplified")

    def __init__(self) -> None:
        self.derivatives: Dict[Var, Dict[Expr, Expr]] = {}
        self.simplified: Dict[Expr, Expr] = {}

    def __len__(self) -> int:
        return len(self.simplified) + sum(map(len, self.derivatives.values()))

    def __enter__(self) -> "Memo":
        return self

    def __exit__(self, *exc) -> None:
        self.derivatives.clear()
        self.simplified.clear()
        repack_tables()

    def release(self, var: Var) -> None:
        """Forget ``var``'s partials once no later sweep differentiates by it.

        Their simplifications go too, down to the first node that is its
        own simplification (the simplified DAG, alive anyway) or folds to a
        constant (a subtree constant in ``var`` derives to the same raw node
        for every variable it does not depend on).  The rest are ``var``'s
        raw derivatives, which nothing else reaches.
        """
        simplified = self.simplified
        stack = list(self.derivatives.pop(var, {}).values())
        while stack:
            node = stack.pop()
            done = simplified.get(node)
            if done is None or done is node or isinstance(done, Const):
                continue
            del simplified[node]
            stack.extend(node.children())


def diff(expr: Expr, var: Var, memo: Optional[Memo] = None) -> Expr:
    """Exact partial derivative of ``expr`` with respect to ``var``.

    The result is simplified so that trivially-zero partials collapse to the
    constant 0, which the transcription layer relies on to build sparse
    Jacobians.  With a ``memo`` the walk stops at nodes whose partial by
    ``var`` an earlier call of the same build already derived.
    """
    memo = Memo() if memo is None else memo
    cache = memo.derivatives.setdefault(var, {})
    for node in topological_order([expr], cache):
        cache[node] = _diff_node(node, var, cache)
    return simplify(cache[expr], memo.simplified)


def _diff_node(node: Expr, var: Var, cache: Dict[Expr, Expr]) -> Expr:
    if isinstance(node, Const):
        return _ZERO
    if isinstance(node, Var):
        return _ONE if node.name == var.name else _ZERO
    if not isinstance(node, Call):
        raise DifferentiationError(f"cannot differentiate node {node!r}")

    op = node.op.name
    args = node.args
    d = [cache[a] for a in args]

    if op == "add":
        return d[0] + d[1]
    if op == "sub":
        return d[0] - d[1]
    if op == "neg":
        return -d[0]
    if op == "mul":
        return d[0] * args[1] + args[0] * d[1]
    if op == "div":
        # (u/v)' = (u'v - uv') / v^2
        return (d[0] * args[1] - args[0] * d[1]) / (args[1] * args[1])
    if op == "pow":
        base, exponent = args
        if isinstance(exponent, Const):
            # d(u^c) = c * u^(c-1) * u'
            return exponent * base ** Const(exponent.value - 1.0) * d[0]
        if isinstance(base, Const):
            # d(c^v) = c^v * ln(c) * v'
            return node * Const(_ln_const(base)) * d[1]
        # General u^v = exp(v ln u)
        return node * (d[1] * log(base) + exponent * d[0] / base)
    if op == "sin":
        return cos(args[0]) * d[0]
    if op == "cos":
        return -sin(args[0]) * d[0]
    if op == "tan":
        sec2 = _ONE + tan(args[0]) * tan(args[0])
        return sec2 * d[0]
    if op == "asin":
        return d[0] / sqrt(_ONE - args[0] * args[0])
    if op == "acos":
        return -(d[0] / sqrt(_ONE - args[0] * args[0]))
    if op == "atan":
        return d[0] / (_ONE + args[0] * args[0])
    if op == "exp":
        return node * d[0]
    if op == "log":
        return d[0] / args[0]
    if op == "sqrt":
        return d[0] / (Const(2.0) * node)
    if op == "tanh":
        return (_ONE - node * node) * d[0]
    raise DifferentiationError(f"no derivative rule for operation {op!r}")


def _ln_const(c: Const) -> float:
    import math

    if c.value <= 0.0:
        raise DifferentiationError(
            f"cannot differentiate {c.value}^x for non-positive base"
        )
    return math.log(c.value)


def gradient(expr: Expr, variables: Sequence[Var]) -> Tuple[Expr, ...]:
    """Tuple of partials of a scalar expression w.r.t. each variable."""
    return tuple(diff(expr, v) for v in variables)


def jacobian(
    exprs: Sequence[Expr], variables: Sequence[Var]
) -> Tuple[Tuple[Expr, ...], ...]:
    """Row-major Jacobian: ``J[i][j] = d exprs[i] / d variables[j]``."""
    return tuple(gradient(as_expr(e), variables) for e in exprs)


def hessian(expr: Expr, variables: Sequence[Var]) -> Tuple[Tuple[Expr, ...], ...]:
    """Symmetric Hessian matrix of a scalar expression.

    Computed as the Jacobian of the gradient; only the upper triangle is
    differentiated and mirrored, halving the symbolic work.
    """
    grad: List[Expr] = list(gradient(expr, variables))
    n = len(variables)
    rows: List[List[Expr]] = [[_ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            entry = diff(grad[i], variables[j])
            rows[i][j] = entry
            rows[j][i] = entry
    return tuple(tuple(r) for r in rows)
