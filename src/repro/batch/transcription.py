"""Vectorized linearization: evaluate compiled stage functions batch-wide.

The interpreted provider of a
:class:`~repro.mpc.transcription.TranscribedProblem` evaluates its
generated stage functions one knot at a time with Python floats.  For a
batch of ``B`` instances of the *same* problem that is ``B x N`` Python
calls per linearization — the dominant cost of a batched SQP iteration.

:class:`VectorizedFunction` removes it: every
:class:`~repro.symbolic.compile.CompiledFunction` carries its generated
source, and the generated body is pure arithmetic plus a small closed set
of ``math`` calls.  Re-executing that source against an array-backend
namespace (``sin -> xp.sin``, ``asin -> xp.arcsin``, ... — see
:meth:`repro.batch.backend.ArrayBackend.ufuncs`) yields a callable that
accepts ``(B, K)``-shaped columns and evaluates all ``B x K`` stage
points in one pass, on whichever backend the caller selected (numpy or
torch).  One such function per group is the *vectorized group provider*
of the shared assembler (:mod:`repro.linearize`).

:class:`BatchLinearizer` is that assembler's ``B``-lane call: the batched
twins of the seven evaluation methods the SQP layer needs, with identical
stacking order to the scalar lane (so the stage-ordered band structure and
permutations carry over unchanged), plus the batched cold-start guess.
Which provider it runs on is decided once, at construction
(:meth:`TranscribedProblem.bind_lanes`): the vectorized provider, and —
only when a function has no ufunc twin here — the interpreted provider,
which round-trips through host arrays and is slower but bit-equal to the
scalar lane by construction.  The codegen tier (the C kernel) belongs to
the scalar host lane; a batch never builds or consults it.  No method
branches on the tier.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Sequence

from repro.errors import VectorizationError
from repro.linearize import GROUP_INFO, STATE_ROWS, normalize_ref
from repro.symbolic.compile import _INFIX, CompiledFunction

from .backend import ArrayBackend, get_backend

if TYPE_CHECKING:
    from repro.mpc.transcription import TranscribedProblem

__all__ = ["VectorizedFunction", "vectorize_compiled", "BatchLinearizer"]

RefLike = Optional[object]


class VectorizedFunction:
    """A compiled stage function re-bound to a backend's ufunc namespace.

    Calling with columns of shape ``S`` (one array per input variable)
    returns an ``S + (n_outputs,)`` array, written output by output into
    one buffer.  Outputs that the generated source returns as bare
    constants or pass-through inputs are broadcast to the batch shape by
    that write.  Floating-point warnings are suppressed — NaN/inf
    propagate to the solver's divergence guards exactly as on the scalar
    path.
    """

    def __init__(self, fn: CompiledFunction, backend=None) -> None:
        self.scalar = fn
        self.xp = get_backend(backend)
        self.n_outputs = fn.n_outputs
        name = fn.source.split("(", 1)[0].split()[-1]
        namespace: Dict[str, object] = dict(self.xp.ufuncs())
        # Surface unsupported primitives here, at bind time, instead of as
        # a NameError on the first batched call: the linearizer's drop to
        # the interpreted provider keys on exactly this error type.
        missing = sorted(
            op
            for op in fn.op_counts
            if op not in _INFIX and op != "neg" and op not in namespace
        )
        if missing:
            raise VectorizationError(
                f"{name}: no ufunc twin on backend {self.xp.name!r} for "
                f"{missing}"
            )
        try:
            exec(compile(fn.source, f"<vectorized:{name}>", "exec"), namespace)
            self._func = namespace[name]
        except (SyntaxError, KeyError) as exc:
            raise VectorizationError(
                f"{name}: generated source failed to rebind: {exc}"
            ) from exc

    def __call__(self, cols: Sequence) -> object:
        xp = self.xp
        shape = tuple(cols[0].shape) if cols else ()
        with xp.errstate():
            outs = self._func(*cols)
        # One buffer, filled by slice assignment: a constant or a
        # pass-through output broadcasts on the write.
        out = xp.empty(shape + (len(outs),))
        for k, o in enumerate(outs):
            out[..., k] = o
        return out


def vectorize_compiled(fn: CompiledFunction, backend=None) -> VectorizedFunction:
    """Build the backend-vectorized twin of a compiled stage function."""
    return VectorizedFunction(fn, backend)


class _VectorizedGroups:
    """The vectorized group provider: one ufunc sweep per requested group."""

    def __init__(self, problem: TranscribedProblem, xp: ArrayBackend) -> None:
        self.fns = {
            g: vectorize_compiled(getattr(problem, attr), xp)
            for g, (_, attr, _) in GROUP_INFO.items()
        }

    def __call__(self, lanes, pt, name) -> Dict[str, object]:
        fn = self.fns[name]
        cols = lanes.cols(
            pt, "state" if name in STATE_ROWS else GROUP_INFO[name][0]
        )
        return {name: fn(cols[: fn.scalar.n_inputs])}


class BatchLinearizer:
    """Batched evaluation of one :class:`TranscribedProblem` over ``B`` lanes.

    All methods accept stacked arguments with a leading batch axis
    (``Z: (B, nz)``, ``x_init: (B, nx)``) and return the batched stack of
    what the scalar method returns per lane, in the same row order, as
    arrays of the selected backend.  Blocked stages (``move_block > 1``)
    share their knot's columns through the assembler's scatter.
    """

    def __init__(self, problem: TranscribedProblem, backend=None) -> None:
        self.problem = problem
        self.xp = get_backend(backend)
        self.N = problem.N
        self.nx = problem.nx
        self.nu = problem.nu
        self.nz = problem.nz
        self.nref = problem.nref
        try:
            self._vec, reason = _VectorizedGroups(problem, self.xp), ""
        except VectorizationError as exc:
            # Only a genuine can't-vectorize condition binds the interpreted
            # provider; any other exception is a bug and must propagate.
            self._vec, reason = None, str(exc)
        self._lanes = problem.bind_lanes(self.xp, self._vec, reason)

    # -- read-only reporting -------------------------------------------------

    @property
    def vectorized(self) -> bool:
        """False when the stage functions run per lane on the host."""
        return self._vec is not None

    @property
    def fallback_reason(self) -> str:
        """Why a faster provider is not bound ("" when nothing fell back)."""
        return self._lanes.fallback_reason

    #: the lane driver's linearizer interface: a batch binds no codegen tier
    codegen_stats = None

    def normalize_ref(self, ref: RefLike, lanes: int):
        """Normalize per-lane references to one ``(B, N+1, nref)`` stack
        (see :func:`repro.linearize.normalize_ref`)."""
        return normalize_ref(self.problem, ref, lanes, self.xp)

    # -- the seven evaluators: the B-lane call of the shared assembler ------

    def objective(self, Z, ref: RefLike = None):
        return self._lanes.objective(Z, ref)

    def objective_gradient(self, Z, ref: RefLike = None):
        return self._lanes.objective_gradient(Z, ref)

    def objective_gauss_newton(self, Z, ref: RefLike = None):
        return self._lanes.objective_gauss_newton(Z, ref)

    def equality_constraints(self, Z, x_init, ref: RefLike = None):
        return self._lanes.equality_constraints(Z, x_init, ref)

    def equality_jacobian(self, Z, ref: RefLike = None):
        return self._lanes.equality_jacobian(Z, ref)

    def inequality_constraints(self, Z, ref: RefLike = None):
        return self._lanes.inequality_constraints(Z, ref)

    def inequality_jacobian(self, Z, ref: RefLike = None):
        return self._lanes.inequality_jacobian(Z, ref)

    # -- initialization ----------------------------------------------------

    def initial_guess(self, x_init):
        xp = self.xp
        X0 = xp.asarray(x_init)
        lanes = int(X0.shape[0])
        if self._vec is None:
            X0h = xp.to_host(X0)
            return xp.stack(
                [
                    xp.asarray(self.problem.initial_guess(X0h[i]))
                    for i in range(lanes)
                ]
            )
        p = self.problem
        u0_h = [float(v) for v in p.model.trim_inputs()]
        u0 = xp.asarray(u0_h)
        us = xp.tile(u0, (lanes, p.n_input_knots, 1))
        if not p.model.rollout_guess:
            xs = xp.repeat(X0[:, None, :], self.N + 1, axis=1)
        else:
            lo, hi = p.model.state_bounds()
            lo = xp.maximum(xp.asarray(lo), -1e6)
            hi = xp.minimum(xp.asarray(hi), 1e6)
            xs = xp.empty((lanes, self.N + 1, self.nx))
            xs[:, 0] = X0
            u_cols = [xp.full((lanes,), u0_h[j]) for j in range(self.nu)]
            step = self._vec.fns["dyn_step"]
            for k in range(self.N):
                cols = [xs[:, k, i] for i in range(self.nx)] + u_cols
                xs[:, k + 1] = xp.clip(step(cols), lo, hi)
        return xp.concatenate(
            [xp.reshape(xs, (lanes, -1)), xp.reshape(us, (lanes, -1))], axis=1
        )
