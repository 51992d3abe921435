"""Core symbolic expression DAG.

Expressions are immutable, hash-consed DAGs.  The node kinds mirror what the
RoboX DSL can express (Table I of the paper): constants, named variables,
elementary arithmetic, a fixed set of nonlinear functions, and power.  Group
operations (``sum``, ``norm``, ``min``, ``max``) are *range reductions* and
are represented after range expansion as trees of binary ops; the DSL layer
records the group structure separately for the compiler (see
``repro.compiler.mdfg``).

Every node is interned: ``Const`` on the bit pattern of its value (so
``0.0`` and ``-0.0`` are two constants), ``Var`` on its name, ``Call`` on
``(op, args)``.  Constructing a node whose key is
live returns the live node, so structurally equal expressions built anywhere
are one object, and ``copy``, ``deepcopy`` and ``pickle`` hand back that
object too.  ``==`` and ``hash`` are structural, which interning makes an
identity check in practice.  The tables hold their nodes weakly: a node
lives exactly as long as something else refers to it.

Derivative and simplification memos (:class:`repro.symbolic.autodiff.Memo`)
live for one build, e.g. one ``TranscribedProblem``: they key on interned
nodes, and a build drops its memo when it ends.

The module deliberately avoids any dependency on SymPy: RoboX's translator
needs only differentiation, simplification, numeric compilation and op
counting, all of which are implemented from scratch in this package.
"""

from __future__ import annotations

import math
import struct
import weakref
from typing import Callable, Container, Dict, Iterable, Optional, Sequence, Tuple

from repro.errors import SymbolicError

__all__ = [
    "Expr",
    "Const",
    "Var",
    "Call",
    "Op",
    "OPS",
    "NONLINEAR_OPS",
    "ELEMENTARY_OPS",
    "as_expr",
    "variables_of",
    "count_nodes",
    "count_ops",
    "substitute",
    "topological_order",
]


class Op:
    """Metadata for a primitive operation.

    Attributes:
        name: canonical operation name (``add``, ``sin``, ...).
        arity: number of operands.
        func: numeric implementation over Python floats.
        symbol: infix symbol for binary elementary ops, else ``None``.
        kind: ``"elementary"`` or ``"nonlinear"``.
    """

    __slots__ = ("name", "arity", "func", "symbol", "kind")

    def __init__(
        self,
        name: str,
        arity: int,
        func: Callable[..., float],
        symbol: Optional[str] = None,
        kind: str = "elementary",
    ):
        self.name = name
        self.arity = arity
        self.func = func
        self.symbol = symbol
        self.kind = kind

    def __reduce__(self):
        return (_op_named, (self.name,))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Op({self.name})"


def _op_named(name: str) -> Op:
    return OPS[name]


def _safe_div(a: float, b: float) -> float:
    if b == 0.0:
        raise ZeroDivisionError("symbolic evaluation divided by zero")
    return a / b


def _safe_sqrt(a: float) -> float:
    if a < 0.0:
        raise SymbolicError(f"sqrt of negative value {a!r}")
    return math.sqrt(a)


OPS: Dict[str, Op] = {}


def _register(op: Op) -> Op:
    OPS[op.name] = op
    return op


ADD = _register(Op("add", 2, lambda a, b: a + b, "+"))
SUB = _register(Op("sub", 2, lambda a, b: a - b, "-"))
MUL = _register(Op("mul", 2, lambda a, b: a * b, "*"))
DIV = _register(Op("div", 2, _safe_div, "/"))
NEG = _register(Op("neg", 1, lambda a: -a))
POW = _register(Op("pow", 2, lambda a, b: a**b))

SIN = _register(Op("sin", 1, math.sin, kind="nonlinear"))
COS = _register(Op("cos", 1, math.cos, kind="nonlinear"))
TAN = _register(Op("tan", 1, math.tan, kind="nonlinear"))
ASIN = _register(Op("asin", 1, math.asin, kind="nonlinear"))
ACOS = _register(Op("acos", 1, math.acos, kind="nonlinear"))
ATAN = _register(Op("atan", 1, math.atan, kind="nonlinear"))
EXP = _register(Op("exp", 1, math.exp, kind="nonlinear"))
LOG = _register(Op("log", 1, math.log, kind="nonlinear"))
SQRT = _register(Op("sqrt", 1, _safe_sqrt, kind="nonlinear"))
TANH = _register(Op("tanh", 1, math.tanh, kind="nonlinear"))

ELEMENTARY_OPS = frozenset(n for n, op in OPS.items() if op.kind == "elementary")
NONLINEAR_OPS = frozenset(n for n, op in OPS.items() if op.kind == "nonlinear")


class Expr:
    """Base class for all symbolic expressions.

    Subclasses are immutable and interned: constructing a node whose key is
    already live returns that node (see the module docstring), so ``==`` —
    structural equality — is identity for every node in practice.
    Instances are hashable so expressions can key dictionaries (autodiff and
    simplification memos, common-subexpression elimination).
    """

    __slots__ = ("_hash", "__weakref__")

    # -- operator overloading -------------------------------------------------
    def __add__(self, other) -> "Expr":
        return Call(ADD, (self, as_expr(other)))

    def __radd__(self, other) -> "Expr":
        return Call(ADD, (as_expr(other), self))

    def __sub__(self, other) -> "Expr":
        return Call(SUB, (self, as_expr(other)))

    def __rsub__(self, other) -> "Expr":
        return Call(SUB, (as_expr(other), self))

    def __mul__(self, other) -> "Expr":
        return Call(MUL, (self, as_expr(other)))

    def __rmul__(self, other) -> "Expr":
        return Call(MUL, (as_expr(other), self))

    def __truediv__(self, other) -> "Expr":
        return Call(DIV, (self, as_expr(other)))

    def __rtruediv__(self, other) -> "Expr":
        return Call(DIV, (as_expr(other), self))

    def __pow__(self, other) -> "Expr":
        return Call(POW, (self, as_expr(other)))

    def __rpow__(self, other) -> "Expr":
        return Call(POW, (as_expr(other), self))

    def __neg__(self) -> "Expr":
        return Call(NEG, (self,))

    def __pos__(self) -> "Expr":
        return self

    # -- interning -------------------------------------------------------------
    def __copy__(self) -> "Expr":
        return self

    def __deepcopy__(self, memo) -> "Expr":
        return self

    # -- interface -------------------------------------------------------------
    def children(self) -> Tuple["Expr", ...]:
        return ()

    def evaluate(self, env: Dict[str, float]) -> float:
        """Numerically evaluate with variable bindings from ``env``."""
        raise NotImplementedError

    def __bool__(self) -> bool:
        raise SymbolicError(
            "symbolic expressions have no truth value; use explicit comparisons"
        )


def _intern_table():
    """A key -> weak reference table whose entries leave with their node."""
    table: Dict[object, weakref.KeyedRef] = {}

    def drop(ref: weakref.KeyedRef) -> None:
        if table.get(ref.key) is ref:
            del table[ref.key]

    def lookup(key) -> Optional[Expr]:
        ref = table.get(key)
        return None if ref is None else ref()

    def insert(key, node: Expr) -> Expr:
        table[key] = weakref.KeyedRef(node, drop, key)
        return node

    return table, lookup, insert


_CONSTS, _const_lookup, _const_insert = _intern_table()
_VARS, _var_lookup, _var_insert = _intern_table()
#: calls are keyed by their structural hash (the node's own ``_hash``, so a
#: key costs nothing); a call whose hash a live node of other structure
#: already holds goes to the clash table, keyed by ``(op, args)``
_CALLS, _call_lookup, _call_insert = _intern_table()
_CLASHES, _clash_lookup, _clash_insert = _intern_table()
_BITS = struct.Struct("<d").pack


def repack_tables() -> None:
    """Shrink the intern tables to their live size.

    A dict never shrinks on deletion, so after a build's memo dies and takes
    most of the table with it, the table would keep the build's high-water
    capacity; copying the survivors gives them a table of their own size.
    """
    for table in (_CONSTS, _VARS, _CALLS, _CLASHES):
        live = dict(table)
        table.clear()
        table.update(live)


class Const(Expr):
    """A floating-point constant leaf.

    Equality, hash and interning go by the bit pattern of the value, so
    ``0.0`` and ``-0.0`` are distinct constants (``x / 0.0`` and ``x / -0.0``
    differ) and a NaN constant equals itself.
    """

    __slots__ = ("value",)

    def __new__(cls, value: float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SymbolicError(f"Const requires a real number, got {value!r}")
        value = float(value)
        key = _BITS(value)
        node = _const_lookup(key)
        if node is None:
            node = object.__new__(cls)
            node.value = value
            node._hash = hash(("Const", key))
            _const_insert(key, node)
        return node

    def __reduce__(self):
        return (Const, (self.value,))

    def evaluate(self, env: Dict[str, float]) -> float:
        return self.value

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, Const) and _BITS(self.value) == _BITS(other.value)
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Const({self.value!r})"


class Var(Expr):
    """A named scalar variable leaf, interned on its name.

    Vector quantities (e.g. ``pos[2]`` in the DSL) are represented as one
    ``Var`` per element with a canonical ``name[i]`` spelling produced by the
    frontends.
    """

    __slots__ = ("name",)

    def __new__(cls, name: str):
        if not name or not isinstance(name, str):
            raise SymbolicError(f"Var requires a non-empty name, got {name!r}")
        node = _var_lookup(name)
        if node is None:
            node = object.__new__(cls)
            node.name = name
            node._hash = hash(("Var", name))
            _var_insert(name, node)
        return node

    def __reduce__(self):
        return (Var, (self.name,))

    def evaluate(self, env: Dict[str, float]) -> float:
        try:
            return float(env[self.name])
        except KeyError:
            raise SymbolicError(f"unbound variable {self.name!r}") from None

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, Var) and self.name == other.name)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Var({self.name!r})"


class Call(Expr):
    """An operation applied to operand expressions, interned on
    ``(op, args)``."""

    __slots__ = ("op", "args")

    def __new__(cls, op: Op, args: Sequence[Expr]):
        args = tuple(args)
        try:
            h = hash(("Call", op.name, args))
        except (AttributeError, TypeError):  # not an Op / an unhashable operand
            h = None
        node = None if h is None else _call_lookup(h)
        if node is not None and node.op is op and node.args == args:
            return node
        clash = node is not None
        if h is not None and (clash or _CLASHES):
            found = _clash_lookup((op, args))
            if found is not None:
                return found
        if not isinstance(op, Op):
            raise SymbolicError(f"Call requires an Op, got {op!r}")
        if len(args) != op.arity:
            raise SymbolicError(
                f"{op.name} expects {op.arity} operand(s), got {len(args)}"
            )
        for a in args:
            if not isinstance(a, Expr):
                raise SymbolicError(f"operand {a!r} is not an Expr")
        node = object.__new__(cls)
        node.op = op
        node.args = args
        node._hash = h
        if clash:
            return _clash_insert((op, args), node)
        return _call_insert(h, node)

    def __reduce__(self):
        return (Call, (self.op, self.args))

    def children(self) -> Tuple[Expr, ...]:
        return self.args

    def evaluate(self, env: Dict[str, float]) -> float:
        return self.op.func(*(a.evaluate(env) for a in self.args))

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, Call)
            and self._hash == other._hash
            and self.op is other.op
            and self.args == other.args
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(repr(a) for a in self.args)
        return f"{self.op.name}({inner})"


# -- convenience constructors for nonlinear functions ---------------------------


def _unary(op: Op) -> Callable[[object], Expr]:
    def build(x) -> Expr:
        return Call(op, (as_expr(x),))

    build.__name__ = op.name
    return build


sin = _unary(SIN)
cos = _unary(COS)
tan = _unary(TAN)
asin = _unary(ASIN)
acos = _unary(ACOS)
atan = _unary(ATAN)
exp = _unary(EXP)
log = _unary(LOG)
sqrt = _unary(SQRT)
tanh = _unary(TANH)

__all__ += ["sin", "cos", "tan", "asin", "acos", "atan", "exp", "log", "sqrt", "tanh"]


def as_expr(value) -> Expr:
    """Coerce a Python number (or pass through an Expr) to an expression."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, bool):
        raise SymbolicError("booleans are not valid expression constants")
    if isinstance(value, (int, float)):
        return Const(float(value))
    raise SymbolicError(f"cannot convert {value!r} to a symbolic expression")


# -- traversal helpers ----------------------------------------------------------


def topological_order(
    roots: Iterable[Expr], known: Container[Expr] = ()
) -> Tuple[Expr, ...]:
    """Return every distinct node reachable from ``roots``, children first.

    The walk stops at nodes in ``known`` (a memo's keys): they and everything
    below them are left out, so a memoized sweep visits only new nodes.
    Uses an explicit stack so very deep expression chains (long horizons)
    do not hit Python's recursion limit.
    """
    order: list = []
    visited: set = set()
    for root in roots:
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                if node not in visited:
                    visited.add(node)
                    order.append(node)
                continue
            if node in visited or node in known:
                continue
            stack.append((node, True))
            for child in node.children():
                if child not in visited and child not in known:
                    stack.append((child, False))
    return tuple(order)


def variables_of(roots: Iterable[Expr]) -> Tuple[Var, ...]:
    """All distinct variables reachable from ``roots`` in first-seen order."""
    result = []
    seen = set()
    for node in topological_order(list(roots)):
        if isinstance(node, Var) and node.name not in seen:
            seen.add(node.name)
            result.append(node)
    return tuple(result)


def count_nodes(roots: Iterable[Expr]) -> int:
    """Number of distinct DAG nodes reachable from ``roots``."""
    return len(topological_order(list(roots)))


def count_ops(roots: Iterable[Expr]) -> Dict[str, int]:
    """Histogram of operation names over the *distinct* DAG nodes.

    Shared subexpressions are counted once, matching what the compiler maps to
    compute units (each DAG node executes once per evaluation).
    """
    hist: Dict[str, int] = {}
    for node in topological_order(list(roots)):
        if isinstance(node, Call):
            hist[node.op.name] = hist.get(node.op.name, 0) + 1
    return hist


def substitute(root: Expr, mapping: Dict[Expr, Expr]) -> Expr:
    """Replace subtrees of ``root`` per ``mapping`` (structural match)."""
    cache: Dict[Expr, Expr] = {}

    for node in topological_order([root]):
        if node in mapping:
            cache[node] = mapping[node]
        elif isinstance(node, Call):
            new_args = tuple(cache[a] for a in node.args)
            cache[node] = node if new_args == node.args else Call(node.op, new_args)
        else:
            cache[node] = node
    return cache[root]
