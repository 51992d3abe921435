"""Fused-kernel construction: tier selection, build, and the fused providers.

This is the seam between a :class:`~repro.mpc.transcription.TranscribedProblem`
and the codegen subsystem.  :class:`FusedProblemKernels` decides the
evaluation tier (the fallback ladder: C → fused-numpy → interpreted),
emits/loads the fused module through the content-addressed store, owns
the :class:`~repro.codegen.stats.CodegenStats` record, and hands the tier
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

Mode selection (``resolve_mode``): ``auto`` (default) uses fused kernels
only when the horizon-scaled DAG size clears a cutoff — tiny problems
evaluate faster through the interpreted per-stage path than through array
dispatch; ``on`` forces the best available tier; ``numpy``/``c`` pin a
tier; ``off`` disables codegen.  The ``REPRO_CODEGEN`` environment
variable supplies the default, ``QPOptions(codegen=...)`` and
``serve-sim --codegen`` override it per solver/session.
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
from .kernel import FusedKernel
from .stats import CodegenStats
from .store import ArtifactStore, StoredModule

__all__ = [
    "CODEGEN_MODES",
    "ENV_MODE",
    "resolve_mode",
    "FusedProblemKernels",
]

CODEGEN_MODES = ("auto", "on", "off", "numpy", "c")
ENV_MODE = "REPRO_CODEGEN"

#: ``auto`` cutoffs on ``horizon x merged-DAG op count`` (calibrated on the
#: Quadrotor N=30 bench vs the MobileRobot unit-test problems): below
#: ``_AUTO_NUMPY_SCORE`` the per-stage interpreted loop wins outright;
#: above ``_AUTO_C_SCORE`` the one-time compiler invocation amortizes.
_AUTO_NUMPY_SCORE = 4_000
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
    """Tier selection + fused module build for one transcribed problem."""

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
        self.module: Optional[StoredModule] = None
        self.key: Optional[str] = None
        self._kernel = None  # CKernel or FusedKernel(HOST)

        tier = self._select_tier()
        if tier == "interpreted":
            return
        try:
            self._build(tier)
        except Exception as exc:  # any build failure -> interpreted
            self.stats.kernel = "interpreted"
            self.stats.fallback_reason = f"build failed: {exc}"
            self._kernel = None
            self.module = None

    # -- tier decision -----------------------------------------------------

    def _select_tier(self) -> str:
        p = self.problem
        if self.mode == "off":
            self.stats.fallback_reason = "codegen off"
            return "interpreted"
        if p.move_block != 1:
            self.stats.fallback_reason = "move_block > 1"
            return "interpreted"
        have_c = c_available()
        if self.mode == "numpy":
            return "fused-numpy"
        if self.mode == "c":
            if have_c:
                return "fused-c"
            self.stats.fallback_reason = "no C compiler/cffi; using numpy tier"
            return "fused-numpy"
        if self.mode == "on":
            return "fused-c" if have_c else "fused-numpy"
        # auto: size cutoff keeps tiny problems on the per-stage loop
        score = _problem_score(p)
        if have_c and score >= _AUTO_C_SCORE:
            return "fused-c"
        if score >= _AUTO_NUMPY_SCORE:
            return "fused-numpy"
        self.stats.fallback_reason = f"auto: below size cutoff (score={score})"
        return "interpreted"

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

    def _build(self, tier: str) -> None:
        p = self.problem
        t0 = time.perf_counter()
        fused = emit_fused_module(self._function_specs())
        key = module_fingerprint(
            fused,
            extra=(
                f"N={p.N}",
                f"move_block={p.move_block}",
                "dtype=float64",
            ),
        )
        self.stats.emit_time = time.perf_counter() - t0
        self.key = key

        stored = self.store.load(key)
        if stored is not None:
            self.stats.store_hit = True
            self.module = stored
        else:
            self.module = self.store.save(
                key,
                fused.source,
                fused.layouts,
                meta={
                    "model": p.model.name,
                    "task": p.task.name,
                    "horizon": p.N,
                    "move_block": p.move_block,
                },
            )

        t1 = time.perf_counter()
        if tier == "fused-c":
            try:
                self._kernel = build_c_kernel(fused.irs, key, self.store)
                self.stats.kernel = "fused-c"
            except CodegenError as exc:
                self.stats.fallback_reason = f"c tier unavailable: {exc}"
                tier = "fused-numpy"
        if tier == "fused-numpy":
            self._kernel = FusedKernel(self.module)  # HOST numpy binding
            self.stats.kernel = "fused-numpy"
        self.stats.compile_time = time.perf_counter() - t1

    # -- access ------------------------------------------------------------

    @property
    def active(self) -> bool:
        return self._kernel is not None

    def provider(self, xp=None):
        """The fused tier as a group provider: the tier's own host kernel
        (C or numpy) for the scalar lane (``xp=None``), the fused module
        re-bound to array backend ``xp`` for a batch."""
        if self.module is None:
            raise CodegenError("fused module was not built")
        kernel = self._kernel if xp is None else FusedKernel(self.module, xp)
        if isinstance(kernel, CKernel):
            kernel = _LaneCKernel(kernel)
        return fused_provider(kernel)

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
