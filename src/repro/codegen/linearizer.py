"""Fused-kernel construction: the tier rule, the build, and the provider.

This is the seam between a :class:`~repro.mpc.transcription.TranscribedProblem`
and the codegen subsystem.  :class:`FusedProblemKernels` decides whether
the problem's scalar host lane runs on the compiled C kernel or on the
interpreted provider, emits the fused IR and compiles (or reloads) it
through the shared-object cache, owns the
:class:`~repro.codegen.stats.CodegenStats` record, and hands the kernel
out as a *group provider* (:meth:`FusedProblemKernels.provider`) of the
shared assembler in :mod:`repro.linearize` — a tier only evaluates; the
stacking order, objective summation, Gauss-Newton contraction, validation
errors and point cache live once, in the assembler, so the solver above
cannot tell which tier ran.

Four fused functions cover the linearization surface (their groups are
:data:`repro.linearize.GROUPS`):

``fused_run_full``/``fused_term_full``
    everything the SQP linearize block needs (values *and* Jacobian
    stacks) — evaluated once per linearization point;
``fused_run_vals``/``fused_term_vals``
    values only (objective, constraint residuals) — what the merit-function
    line search evaluates at trial points, where computing Jacobians would
    be pure waste.

The tier rule (:meth:`FusedProblemKernels._declined`) reads what the
problem can observe: a C compiler with cffi, ``move_block == 1``, and —
under ``auto`` (the default) — the horizon-scaled DAG size against the
single cutoff ``_AUTO_C_SCORE``, below which the interpreted per-stage
loop beats a kernel call plus its one-time compile.  ``on`` skips the size
test, ``off`` disables codegen.  The mode has three sources and no others:
the ``REPRO_CODEGEN`` environment variable (the process-wide operator
switch; pool workers and process shards inherit it),
``problem.set_codegen(mode)``, and ``FusedProblemKernels(problem, mode)``.
Who binds is the rule's other input and is decided in
:meth:`TranscribedProblem.bind_lanes`: only the scalar host lane consults
this class; a batch binds the vectorized provider.
"""

from __future__ import annotations

import os
import time
from typing import Dict, Optional

import numpy as np

from repro.errors import CodegenError
from repro.linearize import GROUPS, fused_function, fused_provider

from .cbackend import CKernel, build_c_kernel, c_available
from .emit import FunctionGroup, emit_fused_module, module_fingerprint
from .stats import CodegenStats
from .store import ArtifactStore

__all__ = [
    "CODEGEN_MODES",
    "ENV_MODE",
    "resolve_mode",
    "FusedProblemKernels",
]

CODEGEN_MODES = ("auto", "on", "off")
ENV_MODE = "REPRO_CODEGEN"

#: the ``auto`` cutoff on ``horizon x merged-DAG op count`` (calibrated on
#: the Quadrotor N=30 bench vs the MobileRobot unit-test problems): above
#: it the one-time compiler invocation amortizes, below it the per-stage
#: interpreted loop is as fast as a kernel call.
_AUTO_C_SCORE = 20_000


def resolve_mode(mode: Optional[str] = None) -> str:
    """Normalize a codegen mode, falling back to ``REPRO_CODEGEN``/auto."""
    if mode is None or mode == "":
        mode = os.environ.get(ENV_MODE, "").strip() or "auto"
    mode = str(mode).lower()
    if mode not in CODEGEN_MODES:
        raise CodegenError(
            f"unknown codegen mode {mode!r}; choose from {CODEGEN_MODES}"
        )
    return mode


def _problem_score(problem) -> int:
    """Horizon-scaled op-count proxy for the ``auto`` tier decision."""
    total = 0
    for _, attr, _ in GROUPS["run"]:
        fn = getattr(problem, attr)
        total += sum(fn.op_counts.values())
    return problem.N * total


class FusedProblemKernels:
    """The tier rule + C kernel build for one transcribed problem."""

    def __init__(
        self,
        problem,
        mode: Optional[str] = None,
        store: Optional[ArtifactStore] = None,
    ) -> None:
        self.problem = problem
        self.mode = resolve_mode(mode)
        self.stats = CodegenStats()
        self.store = store if store is not None else ArtifactStore()
        self.key: Optional[str] = None
        self._kernel: Optional[CKernel] = None

        self.stats.fallback_reason = self._declined()
        if self.stats.fallback_reason:
            return
        try:
            self._build()
        except Exception as exc:  # any build failure -> interpreted
            self.stats.fallback_reason = f"build failed: {exc}"

    # -- tier decision -----------------------------------------------------

    def _declined(self) -> str:
        """Why this problem stays interpreted ("" = build the C kernel)."""
        p = self.problem
        if self.mode == "off":
            return "codegen off"
        if p.move_block != 1:
            return "move_block > 1"
        if self.mode == "auto":
            # size cutoff keeps tiny problems on the per-stage loop
            score = _problem_score(p)
            if score < _AUTO_C_SCORE:
                return f"auto: below size cutoff (score={score})"
        if not c_available():
            return "no C compiler/cffi"
        return ""

    # -- build -------------------------------------------------------------

    def _function_specs(self):
        p = self.problem
        run_vars = [v.name for v in p._stage_vars]
        term_vars = [v.name for v in p._term_vars]

        def spec(family, full, variables):
            groups = [
                FunctionGroup(name=g, exprs=tuple(getattr(p, attr).exprs))
                for g, attr, vals in GROUPS[family]
                if full or vals
            ]
            return (fused_function(family, full), groups, variables)

        return [
            spec("run", True, run_vars),
            spec("run", False, run_vars),
            spec("term", True, term_vars),
            spec("term", False, term_vars),
        ]

    def _build(self) -> None:
        t0 = time.perf_counter()
        fused = emit_fused_module(self._function_specs())
        self.key = module_fingerprint(fused, extra=("dtype=float64",))
        self.stats.emit_time = time.perf_counter() - t0

        t1 = time.perf_counter()
        self._kernel = build_c_kernel(fused.irs, self.key, self.store)
        self.stats.compile_time = time.perf_counter() - t1
        self.stats.store_hit = self._kernel.store_hit
        self.stats.kernel = "fused-c"

    # -- access ------------------------------------------------------------

    @property
    def active(self) -> bool:
        return self._kernel is not None

    def provider(self):
        """The C kernel as a group provider of the scalar host lane."""
        if self._kernel is None:
            raise CodegenError("fused kernel was not built")
        return fused_provider(_LaneCKernel(self._kernel))

    def disable(self, reason: str) -> None:
        self._kernel = None
        self.stats.kernel = "interpreted"
        self.stats.fallback_reason = reason


class _LaneCKernel:
    """A :class:`CKernel` fed lane stacks: lanes ravel into its point axis."""

    def __init__(self, kernel: CKernel) -> None:
        self.kernel = kernel

    def call(self, fn_name: str, cols) -> Dict[str, np.ndarray]:
        shape = cols[0].shape
        if len(shape) == 1:  # already one point axis (the terminal family)
            return self.kernel.call(fn_name, cols)
        groups = self.kernel.call(fn_name, [c.reshape(-1) for c in cols])
        return {g: v.reshape(shape + (-1,)) for g, v in groups.items()}
