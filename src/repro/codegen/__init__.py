"""Ahead-of-time fused kernel codegen for the linearization phase.

Walks the retained :class:`~repro.symbolic.compile.CompiledFunction`
expression DAGs of a transcribed problem and emits one fused module per
``(robot, horizon, move_block, dtype)`` key whose functions evaluate a
whole stage family over every stage point in one call, with a
content-addressed artifact store, an optional cffi-built C tier, and a
fallback ladder down to the interpreted per-knot provider.  A tier is a
group provider of the shared assembler (:mod:`repro.linearize`).  See
DESIGN.md ("Fused kernel codegen") for the architecture.
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
from .kernel import FusedKernel
from .linearizer import (
    CODEGEN_MODES,
    ENV_MODE,
    FusedProblemKernels,
    resolve_mode,
)
from .stats import CodegenStats, FusedFunctionLayout, FusedGroupLayout
from .store import ArtifactStore, StoredModule, default_cache_root

__all__ = [
    "CODEGEN_MODES",
    "CODEGEN_VERSION",
    "ENV_MODE",
    "ArtifactStore",
    "CodegenStats",
    "FunctionGroup",
    "FusedFunctionLayout",
    "FusedGroupLayout",
    "FusedKernel",
    "FusedProblemKernels",
    "StoredModule",
    "build_ir",
    "c_available",
    "default_cache_root",
    "emit_fused_module",
    "emit_python_function",
    "module_fingerprint",
    "resolve_mode",
]
