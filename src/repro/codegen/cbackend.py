"""C emission and build for fused linearization kernels.

The one fused tier: the merged IR of a stage family emitted as a single C
loop nest — one pass over the stage points, all temporaries in registers —
built by one direct ``cc -O1 -shared`` call when a C compiler is on
``PATH`` and loaded with :mod:`ctypes`.

Bit-safety: CPython's ``math`` module calls the platform libm, and the
generated C calls the *same* libm symbols (``sin``/``asin``/``pow``/...),
so with contraction disabled (``-ffp-contract=off``, no fast-math) the C
kernel is bit-identical to the interpreted scalar path — a stronger
guarantee than the vectorized batch provider's, whose SIMD transcendentals
may differ from libm in the last ulp.  The equivalence suite pins this on
seeded DAGs.

Binary interface (one plain C symbol per fused function):

    void <name>(long n, const double* in, double* out);

``in`` is variable-major (``in[v*n + i]``), ``out`` output-major — the
caller stacks columns contiguously and slices rows back out.  Every
robot's shared object exports the same names; ctypes opens each one
``RTLD_LOCAL`` and binds its symbols per handle, so kernels loaded side by
side never see each other's functions.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import subprocess
import tempfile
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import CodegenError
from repro.symbolic.compile import _INFIX

from .emit import FusedIR
from .store import ArtifactStore

__all__ = ["c_available", "emit_c_module", "CKernel", "build_c_kernel"]

_C_INFIX = {"add": "+", "sub": "-", "mul": "*", "div": "/"}
#: ``-O1`` compiles in about a third of ``-O2``'s time with equally fast,
#: bit-identical kernels (``-O0`` runs ``fused_run_full`` 2.5x slower);
#: contraction and fast-math stay off so C rounds like the interpreter.
_CFLAGS = ("-O1", "-ffp-contract=off", "-fno-fast-math", "-fPIC", "-shared")
#: ``void <name>(long n, const double* in, double* out)``
_SIGNATURE = ctypes.CFUNCTYPE(None, ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p)


def _compiler() -> Optional[str]:
    for cc in ("cc", "gcc", "clang"):
        path = shutil.which(cc)
        if path:
            return path
    return None


def c_available() -> bool:
    """True when a C compiler is on ``PATH``."""
    return _compiler() is not None


def _c_literal(repr_text: str) -> str:
    """Validate/translate a Python float repr into a C double literal."""
    try:
        value = float(repr_text)
    except ValueError as exc:
        raise CodegenError(f"constant {repr_text!r} is not a C double") from exc
    if value != value:  # NaN
        raise CodegenError("NaN constant cannot be emitted to C")
    if value in (float("inf"), float("-inf")):
        raise CodegenError("infinite constant cannot be emitted to C")
    # repr() of a Python float is a shortest round-trip decimal; a C
    # compiler parses it back to the identical double.  Bare integers need
    # a suffix so C arithmetic stays in double.
    return repr_text if ("." in repr_text or "e" in repr_text or "E" in repr_text) else f"{repr_text}.0"


def _emit_c_function(ir: FusedIR) -> str:
    used_vars = sorted({node[1] for node in ir.nodes if node[0] == "var"})
    names: List[str] = []
    body: List[str] = []
    counter = 0
    for node in ir.nodes:
        if node[0] == "const":
            names.append(_c_literal(node[1]))
        elif node[0] == "var":
            names.append(f"v{node[1]}")
        else:
            opn = node[1]
            args = [names[a] for a in node[2]]
            if opn in _C_INFIX:
                rhs = f"({args[0]} {_C_INFIX[opn]} {args[1]})"
            elif opn == "pow":
                rhs = f"pow({args[0]}, {args[1]})"
            elif opn == "neg":
                rhs = f"(-{args[0]})"
            elif opn in _INFIX:  # pragma: no cover - pow is the only one
                raise CodegenError(f"no C spelling for {opn!r}")
            else:
                rhs = f"{opn}({args[0]})"
            tmp = f"t{counter}"
            counter += 1
            body.append(f"        double {tmp} = {rhs};")
            names.append(tmp)

    loads = [f"        double v{v} = in[{v} * n + i];" for v in used_vars]
    stores = [
        f"        out[{k} * n + i] = {names[node_id]};"
        for k, node_id in enumerate(ir.outputs)
    ]
    lines = [
        f"void {ir.name}(long n, const double* in, double* out) {{",
        "    long i;",
        "    for (i = 0; i < n; i++) {",
        *loads,
        *body,
        *stores,
        "    }",
        "}",
    ]
    return "\n".join(lines)


def emit_c_module(irs: Dict[str, FusedIR]) -> str:
    chunks = ["#include <math.h>", ""]
    for name in sorted(irs):
        chunks.append(_emit_c_function(irs[name]))
        chunks.append("")
    return "\n".join(chunks)


def _compile(csource: str, workdir: str) -> str:
    """Compile ``csource`` to ``<workdir>/kernel.so``; return its path.

    One compiler process; a non-zero exit raises :class:`CodegenError`
    carrying the tail of the compiler's stderr.
    """
    src, so = os.path.join(workdir, "kernel.c"), os.path.join(workdir, "kernel.so")
    with open(src, "w") as fh:
        fh.write(csource)
    done = subprocess.run(
        [_compiler() or "cc", *_CFLAGS, src, "-o", so, "-lm"],
        capture_output=True,
        text=True,
    )
    if done.returncode != 0:
        tail = done.stderr.strip()[-1000:]
        raise CodegenError(f"C compiler exited {done.returncode}: {tail}")
    return so


class CKernel:
    """A loaded C kernel, called with stacked float64 columns.

    ``store_hit`` is true when :func:`build_c_kernel` reloaded an existing
    shared object and ran no compiler.
    """

    def __init__(
        self, so_path: str, irs: Dict[str, FusedIR], store_hit: bool = False
    ) -> None:
        lib = ctypes.CDLL(so_path)  # RTLD_LOCAL: symbols resolve per handle
        self._fns = {name: _SIGNATURE((name, lib)) for name in irs}
        self._irs = irs
        self.store_hit = store_hit

    def call(self, fn_name: str, cols: Sequence[np.ndarray]) -> Dict[str, np.ndarray]:
        """Evaluate one fused function; return ``{group: (n, m)}`` arrays."""
        ir = self._irs[fn_name]
        n = int(cols[0].shape[0]) if cols else 0
        inbuf = np.ascontiguousarray(np.stack(cols, axis=0), dtype=np.float64)
        if inbuf.shape[0] != len(ir.var_names):  # rows are indexed by var slot
            raise CodegenError(f"{fn_name} takes {len(ir.var_names)} columns")
        outbuf = np.empty((len(ir.outputs), n), dtype=np.float64)
        self._fns[fn_name](n, inbuf.ctypes.data, outbuf.ctypes.data)
        return {g.name: outbuf[g.start : g.start + g.count].T for g in ir.layout.groups}


def build_c_kernel(
    irs: Dict[str, FusedIR],
    key: str,
    store: Optional[ArtifactStore] = None,
) -> CKernel:
    """Compile (or reload) the C tier for a fused module.

    ``kernel.c`` compiles in a temp directory beside its target and the
    shared object is ``os.replace``-d to ``so/<key>/kernel.so``, so racing
    first-compiles converge on one valid artifact; a later build of the
    key just ``dlopen``-s it and says so (``kernel.store_hit``).  Any build
    failure raises :class:`CodegenError` so the caller can drop to the
    interpreted provider.
    """
    so_dir = (store or ArtifactStore()).so_dir_for(key)
    target = so_dir / "kernel.so"
    if target.exists():
        try:
            return CKernel(str(target), irs, store_hit=True)
        except (OSError, AttributeError):  # truncated/foreign: rebuild over it
            pass

    tmpdir = None
    try:
        so_dir.mkdir(parents=True, exist_ok=True)
        tmpdir = tempfile.mkdtemp(prefix=".build.", dir=str(so_dir))
        built = _compile(emit_c_module(irs), tmpdir)
        os.replace(built, target)  # atomic: racing builders converge
        return CKernel(str(target), irs)
    except CodegenError:
        raise
    except Exception as exc:
        raise CodegenError(f"C kernel build failed: {exc}") from exc
    finally:
        if tmpdir is not None:
            shutil.rmtree(tmpdir, ignore_errors=True)
