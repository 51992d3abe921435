"""C emission and cffi build for fused linearization kernels.

The one fused tier: the merged IR of a stage family emitted as a single C
loop nest — one pass over the stage points, all temporaries in registers —
and built with cffi when a C compiler is present.

Bit-safety: CPython's ``math`` module calls the platform libm, and the
generated C calls the *same* libm symbols (``sin``/``asin``/``pow``/...),
so with contraction disabled (``-ffp-contract=off``, no fast-math) the C
kernel is bit-identical to the interpreted scalar path — a stronger
guarantee than the vectorized batch provider's, whose SIMD transcendentals
may differ from libm in the last ulp.  The equivalence suite pins this on
seeded DAGs.

Binary interface (kept trivially flat for cffi):

    void <name>(long n, const double* in, double* out);

``in`` is variable-major (``in[v*n + i]``), ``out`` output-major — the
caller stacks columns contiguously and slices rows back out.  Built
shared objects land in the artifact store's ``so/<key>/`` directory via
an atomic rename, so concurrent first-compiles from a worker fleet
converge on one valid artifact and later processes just ``dlopen`` it.
"""

from __future__ import annotations

import glob
import importlib.util
import os
import shutil
import sys
import tempfile
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import CodegenError
from repro.symbolic.compile import _INFIX

from .emit import FusedIR
from .store import ArtifactStore

__all__ = ["c_available", "emit_c_module", "CKernel", "build_c_kernel"]

_C_INFIX = {"add": "+", "sub": "-", "mul": "*", "div": "/"}


def c_available() -> bool:
    """True when both cffi and a C compiler are importable/findable."""
    if importlib.util.find_spec("cffi") is None:
        return False
    return any(shutil.which(cc) for cc in ("cc", "gcc", "clang"))


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


def _import_so(modname: str, so_path: str):
    spec = importlib.util.spec_from_file_location(modname, so_path)
    if spec is None or spec.loader is None:
        raise CodegenError(f"cannot load compiled kernel at {so_path}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[modname] = module
    spec.loader.exec_module(module)
    return module


class CKernel:
    """A built C module, called with stacked float64 columns.

    ``store_hit`` is true when :func:`build_c_kernel` reloaded an existing
    shared object and ran no compiler.
    """

    def __init__(
        self, module, irs: Dict[str, FusedIR], store_hit: bool = False
    ) -> None:
        self._ffi = module.ffi
        self._lib = module.lib
        self._irs = irs
        self.store_hit = store_hit

    def call(self, fn_name: str, cols: Sequence[np.ndarray]) -> Dict[str, np.ndarray]:
        """Evaluate one fused function; return ``{group: (n, m)}`` arrays."""
        ir = self._irs[fn_name]
        n = int(cols[0].shape[0]) if cols else 0
        inbuf = np.ascontiguousarray(np.stack(cols, axis=0), dtype=np.float64)
        outbuf = np.empty((len(ir.outputs), n), dtype=np.float64)
        getattr(self._lib, fn_name)(
            n,
            self._ffi.from_buffer("double *", inbuf),
            self._ffi.from_buffer("double *", outbuf),
        )
        groups: Dict[str, np.ndarray] = {}
        for g in ir.layout.groups:
            groups[g.name] = outbuf[g.start : g.start + g.count].T
        return groups


def build_c_kernel(
    irs: Dict[str, FusedIR],
    key: str,
    store: Optional[ArtifactStore] = None,
) -> CKernel:
    """Compile (or reload) the C tier for a fused module.

    The shared object is cached in the store under ``so/<key>/``; a later
    build of the same key skips the compiler entirely and says so
    (``kernel.store_hit``).  Any build failure raises
    :class:`CodegenError` so the caller can drop to the interpreted
    provider.
    """
    if store is None:
        store = ArtifactStore()
    modname = f"_repro_cg_{key[:16]}"
    so_dir = store.so_dir_for(key)
    existing = sorted(glob.glob(str(so_dir / f"{modname}*.so")))
    if existing:
        try:
            return CKernel(_import_so(modname, existing[0]), irs, store_hit=True)
        except (OSError, ImportError, CodegenError):
            # stale/foreign-ABI artifact: rebuild below
            pass

    try:
        import cffi
    except ImportError as exc:  # pragma: no cover - guarded by c_available
        raise CodegenError("cffi is not available") from exc

    csource = emit_c_module(irs)
    cdefs = "\n".join(
        f"void {name}(long n, const double* in, double* out);" for name in sorted(irs)
    )
    builder = cffi.FFI()
    builder.cdef(cdefs)
    builder.set_source(
        modname,
        csource,
        extra_compile_args=["-O2", "-ffp-contract=off", "-fno-fast-math"],
    )
    tmpdir = None
    try:
        so_dir.mkdir(parents=True, exist_ok=True)
        tmpdir = tempfile.mkdtemp(prefix=".build.", dir=str(so_dir))
        built = builder.compile(tmpdir=tmpdir, verbose=False)
        target = so_dir / os.path.basename(built)
        os.replace(built, target)  # atomic: racing builders converge
        return CKernel(_import_so(modname, str(target)), irs)
    except CodegenError:
        raise
    except Exception as exc:
        raise CodegenError(f"C kernel build failed: {exc}") from exc
    finally:
        if tmpdir is not None:
            shutil.rmtree(tmpdir, ignore_errors=True)
