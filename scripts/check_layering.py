#!/usr/bin/env python
"""Lint: the solver core is imported one way.

The core, ``repro.batch`` and ``repro.firstorder``, imports nothing from
``repro.mpc``; ``repro.mpc`` (the formulation and the one-lane facades)
imports the core at module level.  Two rules keep it so:

* no module of the core imports ``repro.mpc`` except under
  ``if TYPE_CHECKING:`` (annotations only);
* no function-level import runs between ``repro.mpc`` and the core, in
  either direction — a deferred import is how a cycle hides.

Stdlib ``ast`` only, so it runs on the bare CI install.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
CORE = ("repro.batch", "repro.firstorder")
MPC = ("repro.mpc",)


def _within(module: str, packages) -> bool:
    return any(module == p or module.startswith(p + ".") for p in packages)


def _module_of(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imported(node: ast.AST, package: str):
    """Absolute names of the modules an import statement reads."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    base = package.split(".")
    if node.level:
        base = base[: len(base) - node.level + 1]
        stem = ".".join(base + ([node.module] if node.module else []))
    else:
        stem = node.module or ""
    # ``from pkg import mod`` may name a submodule
    return [stem] + [f"{stem}.{alias.name}" for alias in node.names]


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _imports(tree: ast.AST):
    """``(node, in_function, under_type_checking)`` for every import."""
    stack = [(tree, False, False)]
    while stack:
        node, in_fn, typing_only = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node, in_fn, typing_only
            continue
        in_fn = in_fn or isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        )
        if isinstance(node, ast.If) and _is_type_checking(node.test):
            stack += [(child, in_fn, True) for child in node.body]
            stack += [(child, in_fn, typing_only) for child in node.orelse]
            continue
        stack += [(child, in_fn, typing_only) for child in ast.iter_child_nodes(node)]


def violations():
    for path in sorted(SRC.joinpath("repro").rglob("*.py")):
        module = _module_of(path)
        in_core, in_mpc = _within(module, CORE), _within(module, MPC)
        if not (in_core or in_mpc):
            continue
        package = module if path.name == "__init__.py" else module.rpartition(".")[0]
        other = MPC if in_core else CORE
        for node, in_fn, typing_only in _imports(ast.parse(path.read_text())):
            names = _imported(node, package)
            if not any(_within(name, other) for name in names):
                continue
            if in_core and not typing_only:
                yield path, node.lineno, "the core imports repro.mpc"
            elif in_fn and not typing_only:
                yield path, node.lineno, "function-level import across the core"


def main() -> int:
    found = list(violations())
    for path, lineno, why in found:
        print(f"  {path.relative_to(SRC.parent)}:{lineno}: {why}", file=sys.stderr)
    if found:
        print(
            "the solver core (repro.batch, repro.firstorder) must import "
            "nothing from repro.mpc, and repro.mpc imports it at module level",
            file=sys.stderr,
        )
        return 1
    print("ok: repro.batch / repro.firstorder import nothing from repro.mpc")
    return 0


if __name__ == "__main__":
    sys.exit(main())
