"""Observability record for the fused-kernel codegen subsystem.

Kept dependency-free (dataclasses only) so the solver contract
(:mod:`repro.batch.contract`) can carry a ``CodegenStats`` on
:class:`~repro.batch.contract.QPStats` without importing the codegen
machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CodegenStats:
    """What the codegen seam decided and what it cost.

    ``kernel`` names the evaluation tier of the problem's scalar host lane:

    * ``"fused-c"`` — the C kernel, a plain shared object built by one
      ``cc -O1 -shared`` call and loaded through ctypes (bit-identical to
      the interpreted scalar path: both call the same libm);
    * ``"interpreted"`` — the original per-stage ``call_positional`` loop
      (codegen off, below the auto size cutoff, no compiler, or a fallback
      fired).
    """

    kernel: str = "interpreted"
    #: why the fused path is not in use ("" when it is); e.g.
    #: "auto: below size cutoff", "no C compiler", or a build error
    fallback_reason: str = ""
    #: wall seconds spent walking the DAGs into the fused IR and hashing
    #: it (paid on every build: the artifact key is computed from the IR)
    emit_time: float = 0.0
    #: wall seconds spent in ``build_c_kernel``: the C compiler on a cold
    #: key, a ``dlopen`` on a store hit
    compile_time: float = 0.0
    #: fused-evaluation reuse: a hit means a second stage-family request
    #: (gradient after objective, Jacobian after constraints, ...) was
    #: served from the single whole-horizon evaluation already computed at
    #: the same point
    cache_hits: int = 0
    cache_misses: int = 0
    #: the artifact store already held this key's shared object: it was
    #: reloaded and no compiler ran (the emit walk is still paid)
    store_hit: bool = False

    def as_dict(self) -> dict:
        return {
            "kernel": self.kernel,
            "fallback_reason": self.fallback_reason,
            "emit_time": self.emit_time,
            "compile_time": self.compile_time,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "store_hit": self.store_hit,
        }


@dataclass
class FusedGroupLayout:
    """Where one stage function's outputs live in the fused return tuple."""

    name: str
    start: int
    count: int


@dataclass
class FusedFunctionLayout:
    """Layout of one generated fused function (output groups in order)."""

    name: str
    n_outputs: int
    groups: list = field(default_factory=list)
