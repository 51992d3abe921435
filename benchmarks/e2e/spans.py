"""In-memory spans around the program's layer boundaries, from outside.

The program carries no tracing of its own yet, so the harness wraps each
layer's public callables: methods on their class, module functions where
they are defined *and* in every ``repro`` module that re-bound them with
``from x import y``.  A span is ``(layer, start, end, parent)``; a layer's
self time is its spans' duration minus the part their child spans cover, so
self times add up to the wall time of the outermost span.

A target that no longer resolves (a later refactor moved or renamed it) is
skipped and every metric built on its layer reads ``None`` — never an
error, and no end-to-end metric depends on this table.
"""

from __future__ import annotations

import importlib
import os
import sys
from time import perf_counter
from types import FunctionType
from typing import Callable, Dict, List, Optional, Tuple

_LINEARIZE = (
    "objective",
    "objective_gradient",
    "objective_gauss_newton",
    "equality_constraints",
    "equality_jacobian",
    "inequality_constraints",
    "inequality_jacobian",
)
_SUBSTITUTE = ("solve", "forward", "backward")

#: layer -> targets, each "module:attr" (function) or "module:Class.method"
LAYERS: Dict[str, Tuple[str, ...]] = {
    "mpc.controller.step": ("repro.mpc.controller:MPCController.step",),
    "mpc.ipm.solve": ("repro.mpc.ipm:InteriorPointSolver.solve",),
    "mpc.transcription.linearize": tuple(
        f"repro.mpc.transcription:TranscribedProblem.{m}"
        for m in _LINEARIZE + ("lagrangian_hessian",)
    ),
    "mpc.qp.solve": ("repro.mpc.qp:solve_qp",),
    "mpc.banded.factor": ("repro.mpc.banded:BandedCholeskyFactor.__init__",),
    "mpc.banded.substitute": tuple(
        f"repro.mpc.banded:BandedCholeskyFactor.{m}" for m in _SUBSTITUTE
    ),
    "mpc.linalg.factor": (
        "repro.mpc.linalg:cholesky",
        "repro.mpc.linalg:cholesky_solve",
    ),
    "mpc.transcription.build": ("repro.mpc.transcription:TranscribedProblem.__init__",),
    "symbolic.compile": ("repro.symbolic.compile:compile_function",),
    "codegen.warm": ("repro.codegen.linearizer:FusedProblemKernels.__init__",),
    "serve2.engine.tick": ("repro.serve2.engine:AsyncServeEngine.tick",),
    "serve2.scheduler.push": ("repro.serve2.scheduler:EDFScheduler.push",),
    "serve2.scheduler.pop_group": ("repro.serve2.scheduler:EDFScheduler.pop_group",),
    "serve.session.payload": ("repro.serve.session:ControlSession.solve_payload",),
    "serve.session.absorb": ("repro.serve.session:ControlSession.absorb_result",),
    "serve2.padding.pad": ("repro.serve2.padding:PaddedBinding.pad_payload",),
    "serve2.padding.crop": ("repro.serve2.padding:PaddedBinding.crop",),
    "batch.ipm.solve": (
        "repro.batch.ipm:BatchSolver.solve",
        "repro.batch.ipm:BatchSolver.solve_payloads",
    ),
    "batch.transcription.linearize": tuple(
        f"repro.batch.transcription:BatchLinearizer.{m}" for m in _LINEARIZE
    ),
    "batch.qp.solve": ("repro.batch.qp:solve_qp_batch",),
    "batch.linalg.factor": (
        "repro.batch.linalg:robust_factor_batch",
        "repro.batch.linalg:BatchCholeskyFactor.__init__",
    ),
    "batch.linalg.substitute": tuple(
        f"repro.batch.linalg:BatchCholeskyFactor.{m}" for m in _SUBSTITUTE
    ),
    "firstorder.batch.solve": ("repro.firstorder.batch:solve_qp_admm_batch",),
    "firstorder.precond": ("repro.firstorder.precond:ruiz_equilibrate_batch",),
}


def _resolve(target: str):
    """``(owner, attribute name, callable)`` or ``None`` if it moved."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = vars(owner).get(name) if isinstance(owner, type) else getattr(owner, name, None)
    return (owner, name, fn) if isinstance(fn, FunctionType) else None


class Tracer:
    """Wraps the layer table's callables and records their spans."""

    def __init__(
        self,
        layers: Optional[Dict[str, Tuple[str, ...]]] = None,
        probes: Optional[Dict[str, Callable[[object], float]]] = None,
    ):
        self.layers = dict(LAYERS if layers is None else layers)
        #: layer -> function of a wrapped call's return value; its result is
        #: recorded (off the span's clock) as ``(layer, time, value)``
        self.probes = dict(probes or {})
        self.probed: List[Tuple[str, float, float]] = []
        #: (layer, start, end, index of the enclosing span or -1)
        self.spans: List[Tuple[str, float, float, int]] = []
        #: layers with at least one target that did not resolve
        self.unresolved: List[str] = []
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []
        self._pid = os.getpid()

    def _wrap(self, layer: str, fn):
        spans, stack, pid = self.spans, self._stack, self._pid
        probe, probed = self.probes.get(layer), self.probed

        def traced(*args, **kwargs):
            # forked shard workers inherit the wrappers; their spans are out
            # of scope and would only pile up in the worker's memory
            if os.getpid() != pid:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (layer, start, end, parent)
            if probe is not None:
                probed.append((layer, end, probe(result)))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def install(self) -> None:
        for layer, targets in self.layers.items():
            for target in targets:
                resolved = _resolve(target)
                if resolved is None:
                    if layer not in self.unresolved:
                        self.unresolved.append(layer)
                    continue
                owner, name, fn = resolved
                wrapper = self._wrap(layer, fn)
                sites = [(owner, name)]
                if not isinstance(owner, type):
                    # every repro module that re-bound the function by
                    # ``from x import y`` holds its own reference to it
                    sites += [
                        (mod, name)
                        for mod_name, mod in list(sys.modules.items())
                        if mod is not None
                        and mod is not owner
                        and mod_name.startswith("repro")
                        and vars(mod).get(name) is fn
                    ]
                for site, attr in sites:
                    setattr(site, attr, wrapper)
                    self._patched.append((site, attr, fn))

    def uninstall(self) -> None:
        while self._patched:
            site, attr, fn = self._patched.pop()
            setattr(site, attr, fn)

    def self_times(self, start: float, end: float) -> Dict[str, Tuple[float, int]]:
        """``layer -> (summed self time, calls)`` over spans that began in
        ``[start, end)``."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        out: Dict[str, Tuple[float, int]] = {}
        for index, span in enumerate(self.spans):
            if span is None or not start <= span[1] < end:
                continue
            seconds, calls = out.get(span[0], (0.0, 0))
            out[span[0]] = (seconds + span[2] - span[1] - child[index], calls + 1)
        return out
