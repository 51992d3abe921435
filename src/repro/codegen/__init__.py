"""Ahead-of-time fused kernel codegen for the linearization phase.

Walks the retained :class:`~repro.symbolic.compile.CompiledFunction`
expression DAGs of a transcribed problem into one fused IR per robot,
whose functions evaluate a whole stage family over every stage point in
one call, and compiles it with cffi into a C kernel cached in a
content-addressed shared-object store.  Codegen means that one tier: the
scalar host lane of a problem runs on the C kernel or on the interpreted
per-knot provider, decided once at the problem (compiler present,
``move_block``, size).  A tier is a group provider of the shared
assembler (:mod:`repro.linearize`).  See DESIGN.md ("Fused kernel
codegen") for the architecture.
"""

from .cbackend import c_available
from .emit import (
    CODEGEN_VERSION,
    FunctionGroup,
    build_ir,
    emit_fused_module,
    emit_python_function,
    module_fingerprint,
)
from .linearizer import (
    CODEGEN_MODES,
    ENV_MODE,
    FusedProblemKernels,
    resolve_mode,
)
from .stats import CodegenStats, FusedFunctionLayout, FusedGroupLayout
from .store import ArtifactStore, default_cache_root

__all__ = [
    "CODEGEN_MODES",
    "CODEGEN_VERSION",
    "ENV_MODE",
    "ArtifactStore",
    "CodegenStats",
    "FunctionGroup",
    "FusedFunctionLayout",
    "FusedGroupLayout",
    "FusedProblemKernels",
    "build_ir",
    "c_available",
    "default_cache_root",
    "emit_fused_module",
    "emit_python_function",
    "module_fingerprint",
    "resolve_mode",
]
