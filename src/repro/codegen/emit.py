"""Fused source emission from retained stage-function expression DAGs.

The scalar and batch linearizers evaluate ~20 compiled stage functions per
SQP iteration, each through its own Python call per stage (or per batched
column shuffle).  This module merges the expression DAGs of whole stage
*families* (everything evaluated at the running knots; everything evaluated
at the terminal knot) into one generated function per family with a single
global common-subexpression pass — the dynamics Jacobian shares most of its
trigonometry with the step function, the cost gradient with the penalty
Jacobian, and the merged walk computes each distinct node exactly once.

Emission mirrors :func:`repro.symbolic.compile.compile_function` exactly —
same constant ``repr`` inlining, same infix/neg/call spellings, children
computed before parents in the same topological order — so a fused function
executed under the *same* namespace as a ``CompiledFunction`` produces
bit-identical outputs.  :func:`emit_python_function` is that executor: the
IR's reference semantics for the equivalence property suite, which cannot
compile C per generated example.  It is not a runtime tier — the runtime
consumer of the neutral :class:`FusedIR` form is the C emitter
(:mod:`repro.codegen.cbackend`), and its canonical text is the key of the
shared-object cache (:mod:`repro.codegen.store`).

Nothing here touches numpy: this module is pure string/DAG work.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.errors import SymbolicError
from repro.symbolic.compile import _INFIX, _MATH_FUNCS
from repro.symbolic.expr import Call, Const, Expr, Var, topological_order

from .stats import FusedFunctionLayout, FusedGroupLayout

__all__ = [
    "CODEGEN_VERSION",
    "FunctionGroup",
    "FusedIR",
    "FusedModule",
    "build_ir",
    "emit_python_function",
    "emit_fused_module",
    "module_fingerprint",
]

#: Bumped whenever emission, layout or artifact format changes: part of
#: every artifact key, so stale store entries can never be replayed into a
#: runtime that expects different generated code.  (2: the artifact is a
#: plain shared object loaded through ctypes.)
CODEGEN_VERSION = 2


@dataclass(frozen=True)
class FunctionGroup:
    """One stage function's outputs inside a fused family function."""

    name: str
    exprs: Tuple[Expr, ...]


@dataclass
class FusedIR:
    """Neutral, ordered program form of one fused function's merged DAGs.

    ``nodes`` entries are tuples:

    * ``("const", repr_text)`` — a literal (the exact ``repr`` the Python
      emitter inlines, so the IR round-trips bit-identically);
    * ``("var", input_index)`` — positional input load;
    * ``("call", op_name, arg_ids)`` — primitive applied to earlier nodes.

    ``outputs`` lists node ids in return order (groups concatenated).
    """

    name: str
    var_names: Tuple[str, ...]
    nodes: List[tuple]
    outputs: List[int]
    layout: FusedFunctionLayout

    def canonical_lines(self) -> List[str]:
        """Deterministic text form (the fingerprint and store key input)."""
        lines = [f"fn {self.name}({','.join(self.var_names)})"]
        for i, node in enumerate(self.nodes):
            if node[0] == "const":
                lines.append(f"{i}=C:{node[1]}")
            elif node[0] == "var":
                lines.append(f"{i}=V:{node[1]}")
            else:
                args = ",".join(str(a) for a in node[2])
                lines.append(f"{i}=O:{node[1]}({args})")
        lines.append("out " + ",".join(str(i) for i in self.outputs))
        for g in self.layout.groups:
            lines.append(f"group {g.name} {g.start} {g.count}")
        return lines


@dataclass
class FusedModule:
    """A generated module: the fused functions one shared object holds."""

    irs: Dict[str, FusedIR]


def build_ir(
    name: str,
    groups: Sequence[FunctionGroup],
    var_names: Sequence[str],
) -> FusedIR:
    """Merge ``groups`` into one ordered IR with global CSE.

    The walk is :func:`topological_order` over the concatenated output
    expressions — identical structure therefore identical order to what
    ``compile_function`` would produce for the merged output list, which is
    what keeps the Python emission bit-compatible with the per-function
    interpreters.
    """
    var_names = tuple(var_names)
    if len(set(var_names)) != len(var_names):
        raise SymbolicError(f"duplicate variable names in signature: {var_names}")
    slot = {nm: i for i, nm in enumerate(var_names)}

    roots: List[Expr] = []
    for g in groups:
        roots.extend(g.exprs)
    order = topological_order(roots)

    ids: Dict[Expr, int] = {}
    nodes: List[tuple] = []
    for node in order:
        if isinstance(node, Const):
            nodes.append(("const", repr(node.value)))
        elif isinstance(node, Var):
            if node.name not in slot:
                raise SymbolicError(
                    f"expression references {node.name!r} which is not in "
                    f"the fused signature {var_names}"
                )
            nodes.append(("var", slot[node.name]))
        elif isinstance(node, Call):
            opn = node.op.name
            if opn not in _INFIX and opn != "neg" and opn not in _MATH_FUNCS:
                raise SymbolicError(f"cannot emit operation {opn!r}")
            nodes.append(("call", opn, tuple(ids[a] for a in node.args)))
        else:  # pragma: no cover - Expr subclasses are closed
            raise SymbolicError(f"unknown node type {node!r}")
        ids[node] = len(nodes) - 1

    layout = FusedFunctionLayout(name=name, n_outputs=0)
    outputs: List[int] = []
    for g in groups:
        layout.groups.append(
            FusedGroupLayout(name=g.name, start=len(outputs), count=len(g.exprs))
        )
        outputs.extend(ids[e] for e in g.exprs)
    layout.n_outputs = len(outputs)
    return FusedIR(
        name=name,
        var_names=var_names,
        nodes=nodes,
        outputs=outputs,
        layout=layout,
    )


def emit_python_function(ir: FusedIR) -> str:
    """Emit ``def <name>(v0, ...): ...`` source from an IR.

    Spelled exactly like :func:`repro.symbolic.compile.compile_function`:
    constants inline as ``repr``, calls become one ``t<i>`` assignment per
    distinct DAG node in topological order.
    """
    names: List[str] = []
    lines: List[str] = []
    counter = 0
    for node in ir.nodes:
        if node[0] == "const":
            names.append(node[1])
        elif node[0] == "var":
            names.append(f"v{node[1]}")
        else:
            opn = node[1]
            args = [names[a] for a in node[2]]
            if opn in _INFIX:
                rhs = f"({args[0]} {_INFIX[opn]} {args[1]})"
            elif opn == "neg":
                rhs = f"(-{args[0]})"
            else:
                rhs = f"{opn}({args[0]})"
            tmp = f"t{counter}"
            counter += 1
            lines.append(f"    {tmp} = {rhs}")
            names.append(tmp)

    out = ", ".join(names[i] for i in ir.outputs)
    if len(ir.outputs) == 1:
        out += ","
    params = ", ".join(f"v{i}" for i in range(len(ir.var_names)))
    body = "\n".join(lines) if lines else "    pass"
    return f"def {ir.name}({params}):\n{body}\n    return ({out})\n"


def emit_fused_module(
    functions: Sequence[Tuple[str, Sequence[FunctionGroup], Sequence[str]]],
) -> FusedModule:
    """Build a module of fused functions.

    ``functions`` entries are ``(fn_name, groups, var_names)``; each fused
    function gets its own signature (running-knot functions take the stage
    variables, terminal ones the terminal variables).
    """
    irs: Dict[str, FusedIR] = {}
    for fn_name, groups, var_names in functions:
        if fn_name in irs:
            raise SymbolicError(f"duplicate fused function name {fn_name!r}")
        irs[fn_name] = build_ir(fn_name, groups, var_names)
    return FusedModule(irs=irs)


def module_fingerprint(module: FusedModule, extra: Sequence[str] = ()) -> str:
    """Content hash of a fused module plus caller context tokens.

    Covers every IR node, output order, group layout, signature and the
    emission version — any change to an expression DAG or the generator
    itself moves the key, which is what makes the artifact store safely
    content-addressed.  ``extra`` carries context the DAGs do not (the
    dtype token); the horizon is not context — the generated stage body
    loops over the points it is handed.
    """
    h = hashlib.sha256()
    h.update(f"codegen-v{CODEGEN_VERSION}\n".encode())
    for token in extra:
        h.update(f"x:{token}\n".encode())
    for name in sorted(module.irs):
        for line in module.irs[name].canonical_lines():
            h.update(line.encode())
            h.update(b"\n")
    return h.hexdigest()
