"""Algebraic simplification of expression DAGs.

Simplification keeps the symbolic pipeline tractable: autodiff produces many
``x * 0`` / ``x + 0`` artifacts, and collapsing them both shrinks the M-DFG
the compiler maps onto compute units and exposes structural zeros that make
the KKT Jacobians sparse.

The rewriter is a single bottom-up pass applying local rules:

* constant folding for every operation,
* additive/multiplicative identities and annihilators,
* double negation, ``x - x -> 0``, ``x / x -> 1`` (symbolically),
* power identities ``x**0 -> 1``, ``x**1 -> x``,
* normalization of ``neg`` into the tree only where it shortens it.

Rules are safe for real arithmetic as used by the robot models (the solver
never feeds NaN/inf through symbolic evaluation).

A node's simplification depends only on the node, so a build passes one
node -> result memo (:attr:`repro.symbolic.autodiff.Memo.simplified`) to all
its calls and each shared subtree is rewritten once.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import SymbolicError
from repro.symbolic.expr import OPS, Call, Const, Expr, Var, topological_order

__all__ = ["simplify", "is_zero", "is_one"]


def is_zero(e: Expr) -> bool:
    return isinstance(e, Const) and e.value == 0.0


def is_one(e: Expr) -> bool:
    return isinstance(e, Const) and e.value == 1.0


def simplify(root: Expr, memo: Optional[Dict[Expr, Expr]] = None) -> Expr:
    """Return a simplified structurally-equivalent expression.

    ``memo`` maps already-simplified nodes to their result (a build's
    :attr:`repro.symbolic.autodiff.Memo.simplified`); the walk stops at its
    keys and records every node it rewrites.
    """
    cache: Dict[Expr, Expr] = {} if memo is None else memo
    for node in topological_order([root], cache):
        if isinstance(node, (Const, Var)):
            cache[node] = node
        else:
            args = tuple(cache[a] for a in node.children())
            cache[node] = _rewrite(node, args)
    return cache[root]


def _rewrite(node: Call, args) -> Expr:
    op = node.op.name

    # Constant folding applies uniformly when every operand is constant.
    if all(isinstance(a, Const) for a in args):
        try:
            return Const(node.op.func(*(a.value for a in args)))
        except (ZeroDivisionError, ValueError, OverflowError, SymbolicError):
            # Leave the node symbolic (e.g. 1/0, sqrt(-1)): definedness is
            # evaluation's concern; simplification must never raise.
            pass

    a = args[0]
    b = args[1] if len(args) > 1 else None

    if op == "add":
        if is_zero(a):
            return b
        if is_zero(b):
            return a
        if a == b:
            return Call(OPS["mul"], (Const(2.0), a))
    elif op == "sub":
        if is_zero(b):
            return a
        if is_zero(a):
            return _negate(b)
        if a == b:
            return Const(0.0)
    elif op == "mul":
        if is_zero(a) or is_zero(b):
            return Const(0.0)
        if is_one(a):
            return b
        if is_one(b):
            return a
        if isinstance(a, Const) and a.value == -1.0:
            return _negate(b)
        if isinstance(b, Const) and b.value == -1.0:
            return _negate(a)
    elif op == "div":
        if is_zero(a) and not is_zero(b):
            return Const(0.0)
        if is_one(b):
            return a
        if a == b and not is_zero(b):
            return Const(1.0)
    elif op == "neg":
        if isinstance(a, Call) and a.op.name == "neg":
            return a.args[0]
        if isinstance(a, Const):
            return Const(-a.value)
    elif op == "pow":
        if is_zero(b):
            return Const(1.0)
        if is_one(b):
            return a
        if is_one(a):
            return Const(1.0)

    new_args = tuple(args)
    if new_args == node.args:
        return node
    return Call(node.op, new_args)


def _negate(e: Expr) -> Expr:
    if isinstance(e, Const):
        return Const(-e.value)
    if isinstance(e, Call) and e.op.name == "neg":
        return e.args[0]
    return Call(OPS["neg"], (e,))
