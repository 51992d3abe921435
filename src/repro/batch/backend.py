"""The array-backend seam: one namespace object for every batch kernel.

Every module in :mod:`repro.batch` routes its array operations through an
:class:`ArrayBackend` instance (conventionally named ``xp``) instead of a
hard-coded ``numpy`` import.  The namespace is deliberately *small*: it is
the exact op surface of the batched factor → substitute → step-length →
active-mask-freeze loop, not a general array-API shim.  Three
implementations exist:

* ``numpy`` — always available, the default, and the reference: routing
  the hot loop through it executes the very same ``np.*`` calls as the
  pre-seam code, so results are bit-identical (the conform ``batch_qp``
  path and its golden ledger pin this).
* ``torch`` — registered when torch is importable (CI's parity job runs
  it on CPU).  It reports :attr:`ArrayBackend.is_device` ``True`` and
  runs the same masked lockstep loop of
  :func:`repro.batch.qp.solve_qp_batch` numpy runs — frozen lanes are
  excluded by masks, never gathered — and the flag only cuts the two
  things that would read device data mid-loop (the factorization retry
  ladder and the per-iteration early-exit check), so one interior-point
  iteration issues **zero** host round-trips (the TurboMPC / ReLU-QP
  structure: batched matmul + clamp, all device-resident).
* :class:`CountingBackend` — numpy dressed as a device: ``is_device`` is
  ``True`` and every host crossing is counted.  It is not registered by
  name; pass an instance.

Selection
---------
``get_backend(spec)`` takes an :class:`ArrayBackend` instance (returned
as-is) or a registered name, optionally suffixed ``:float32``; ``None``
means ``"numpy"``.  Callers pass ``spec`` through from their ``backend=``
argument, and ``serve-sim --array-backend`` is the command-line spelling.

Dtype policy
------------
Centralized here and nowhere else: ``float64`` is the default for every
backend; ``float32`` is an explicit opt-in (the ``:float32`` name suffix)
whose looser cross-path agreement is bounded by dedicated ``*_float32``
entries in the conform tolerance ledger.  ``asarray``/creation functions
default to the backend's float dtype; index and mask arrays use the
backend's native int/bool dtypes.

Host-sync rules
---------------
Host↔device crossings are explicit — ``from_host`` uploads, ``to_host``
downloads, ``scalar`` extracts one Python number — and each download is
counted in :attr:`ArrayBackend.sync_count`.  Hot-loop code must never
cross implicitly (no ``float(device_array)``, no ``if device_bool:``);
the parity suite wraps a :class:`CountingBackend` around numpy to assert
the device code path stays sync-free per iteration.
"""

from __future__ import annotations

import importlib.util
import os
from contextlib import nullcontext
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as _np

from repro.errors import SolverError

__all__ = [
    "ArrayBackend",
    "NumpyBackend",
    "TorchBackend",
    "CountingBackend",
    "HOST",
    "available_backends",
    "get_backend",
]

_FLOAT_DTYPES = ("float64", "float32")


class ArrayBackend:
    """Base class / numpy reference implementation of the seam.

    Subclasses override the module bindings; the op *semantics* (numpy's)
    are the contract.  Methods accepting ``dtype`` take the string tokens
    ``"float"``, ``"int"``, ``"bool"`` (resolved per backend) — never raw
    dtype objects, which would leak one backend's types into another's
    arrays.
    """

    name = "numpy"
    #: True when host transfers are costly and counted: the QP loop then
    #: factors once per iteration (no retry ladder) and checks for early
    #: exit only every ``sync_interval`` iterations.
    is_device = False

    def __init__(self, dtype: str = "float64") -> None:
        if dtype not in _FLOAT_DTYPES:
            raise SolverError(
                f"unsupported dtype {dtype!r}; pick one of {_FLOAT_DTYPES}"
            )
        self.dtype_name = dtype
        self.float_dtype = getattr(_np, dtype)
        self.int_dtype = _np.int64
        self.bool_dtype = _np.bool_
        #: device→host transfers (downloads + scalar extractions)
        self.sync_count = 0
        #: host→device transfers
        self.upload_count = 0

    # -- dtype plumbing ---------------------------------------------------

    def _dtype(self, token: Optional[str]):
        if token is None or token == "float":
            return self.float_dtype
        if token == "int":
            return self.int_dtype
        if token == "bool":
            return self.bool_dtype
        raise SolverError(f"unknown dtype token {token!r}")

    # -- creation / conversion --------------------------------------------

    def asarray(self, x, dtype: Optional[str] = "float"):
        return _np.asarray(x, dtype=self._dtype(dtype))

    def zeros(self, shape, dtype: Optional[str] = "float"):
        return _np.zeros(shape, dtype=self._dtype(dtype))

    def ones(self, shape, dtype: Optional[str] = "float"):
        return _np.ones(shape, dtype=self._dtype(dtype))

    def empty(self, shape, dtype: Optional[str] = "float"):
        return _np.empty(shape, dtype=self._dtype(dtype))

    def full(self, shape, value, dtype: Optional[str] = "float"):
        return _np.full(shape, value, dtype=self._dtype(dtype))

    def eye(self, n: int):
        return _np.eye(n, dtype=self.float_dtype)

    def arange(self, *args):
        return _np.arange(*args)

    def zeros_like(self, a):
        return _np.zeros_like(a)

    def stack(self, seq: Sequence, axis: int = 0):
        return _np.stack(seq, axis=axis)

    def concatenate(self, seq: Sequence, axis: int = 0):
        return _np.concatenate(seq, axis=axis)

    def where(self, cond, a, b):
        return _np.where(cond, a, b)

    def broadcast_to(self, a, shape):
        return _np.broadcast_to(a, shape)

    def tile(self, a, reps):
        return _np.tile(a, reps)

    def repeat(self, a, n: int, axis: int):
        return _np.repeat(a, n, axis=axis)

    def take(self, a, indices, axis: int):
        """Gather ``a`` at integer ``indices`` along ``axis`` (the index
        array's shape replaces that axis).  The result is laid out in its
        own axis order — a sliced fancy index (``a[:, idx]``) leaves the
        sliced lane axis innermost, and a batched matmul over such an
        operand drops off BLAS and sums in a lane-count-dependent order."""
        return _np.take(a, indices, axis=axis)

    def copy(self, a):
        return a.copy()

    def reshape(self, a, shape):
        return a.reshape(shape)

    def astype(self, a, dtype: str):
        return a.astype(self._dtype(dtype))

    # -- elementwise math --------------------------------------------------

    def sqrt(self, a):
        return _np.sqrt(a)

    def abs(self, a):
        return _np.abs(a)

    def isfinite(self, a):
        return _np.isfinite(a)

    def maximum(self, a, b):
        return _np.maximum(a, b)

    def minimum(self, a, b):
        return _np.minimum(a, b)

    def clip(self, a, lo, hi):
        return _np.clip(a, lo, hi)

    def matmul(self, a, b):
        return _np.matmul(a, b)

    def einsum(self, spec: str, *ops):
        return _np.einsum(spec, *ops)

    def logical_not(self, a):
        return _np.logical_not(a)

    # -- reductions --------------------------------------------------------
    # The ufunc reductions np.sum / np.max / np.all / ... dispatch to, called
    # directly: the same reduction, without the wrapper's per-call Python
    # (the lockstep loop issues a few dozen of these per iteration).

    def sum(self, a, axis: Optional[int] = None):
        return _np.add.reduce(a, axis=axis)

    def max(self, a, axis: Optional[int] = None):
        return _np.maximum.reduce(a, axis=axis)

    def min(self, a, axis: Optional[int] = None):
        return _np.minimum.reduce(a, axis=axis)

    def all(self, a, axis: Optional[Union[int, tuple]] = None):
        return _np.logical_and.reduce(a, axis=axis)

    def any(self, a, axis: Optional[int] = None):
        return _np.logical_or.reduce(a, axis=axis)

    def maximum_reduce(self, seq: Sequence):
        out = seq[0]
        for a in seq[1:]:
            out = self.maximum(out, a)
        return out

    def flatnonzero(self, a):
        return _np.flatnonzero(a)

    # -- structure ---------------------------------------------------------

    def transpose_last2(self, a):
        """Swap the trailing two axes (the batched-matrix transpose)."""
        return _np.swapaxes(a, -1, -2)

    # -- floating-point environment ---------------------------------------

    def errstate(self):
        """Context suppressing FP warnings (no-op on non-numpy backends)."""
        return _np.errstate(all="ignore")

    # -- host bridge -------------------------------------------------------

    def from_host(self, x, dtype: Optional[str] = "float"):
        """Upload a host (numpy / nested-list) value to this backend."""
        return _np.asarray(x, dtype=self._dtype(dtype))

    def to_host(self, a) -> _np.ndarray:
        """Download to a numpy array (counted on device backends)."""
        return _np.asarray(a)

    def scalar(self, a):
        """Extract one Python scalar (counted on device backends)."""
        if isinstance(a, (bool, int, float)):
            return a
        return _np.asarray(a).item()

    # -- codegen namespace -------------------------------------------------

    def ufuncs(self) -> Dict[str, object]:
        """Name→callable map for re-executing generated stage sources."""
        return {
            "sin": _np.sin,
            "cos": _np.cos,
            "tan": _np.tan,
            "asin": _np.arcsin,
            "acos": _np.arccos,
            "atan": _np.arctan,
            "exp": _np.exp,
            "log": _np.log,
            "sqrt": _np.sqrt,
            "tanh": _np.tanh,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ArrayBackend {self.name}:{self.dtype_name}>"


class NumpyBackend(ArrayBackend):
    """The always-available reference backend (== the base class)."""


class TorchBackend(ArrayBackend):
    """torch tensors (auto-registered when importable; CUDA when present).

    The shim translates the numpy-isms the hot loop relies on: ``axis`` →
    ``dim``, scalar broadcasting in ``maximum``/``where``, ``swapaxes`` →
    ``transpose(-1, -2)``.  Device selection: ``REPRO_TORCH_DEVICE`` when
    set, else ``cuda`` when available, else ``cpu`` (the CI parity leg).
    """

    name = "torch"
    is_device = True

    def __init__(self, dtype: str = "float64") -> None:
        super().__init__(dtype)
        import torch  # deferred: only reached when registered

        self._torch = torch
        self.float_dtype = torch.float64 if dtype == "float64" else torch.float32
        self.int_dtype = torch.int64
        self.bool_dtype = torch.bool
        dev = os.environ.get("REPRO_TORCH_DEVICE")
        if dev is None:
            dev = "cuda" if torch.cuda.is_available() else "cpu"
        self.device = torch.device(dev)

    # -- helpers -----------------------------------------------------------

    def _tensor(self, v, dtype=None):
        """Coerce a python scalar / numpy value to an on-device tensor."""
        t = self._torch
        if t.is_tensor(v):
            return v
        return t.as_tensor(
            v, dtype=dtype or self.float_dtype, device=self.device
        )

    # -- creation / conversion --------------------------------------------

    def asarray(self, x, dtype: Optional[str] = "float"):
        return self._torch.as_tensor(
            x, dtype=self._dtype(dtype), device=self.device
        )

    def zeros(self, shape, dtype: Optional[str] = "float"):
        return self._torch.zeros(
            shape, dtype=self._dtype(dtype), device=self.device
        )

    def ones(self, shape, dtype: Optional[str] = "float"):
        return self._torch.ones(
            shape, dtype=self._dtype(dtype), device=self.device
        )

    def empty(self, shape, dtype: Optional[str] = "float"):
        return self._torch.empty(
            shape, dtype=self._dtype(dtype), device=self.device
        )

    def full(self, shape, value, dtype: Optional[str] = "float"):
        return self._torch.full(
            shape, value, dtype=self._dtype(dtype), device=self.device
        )

    def eye(self, n: int):
        return self._torch.eye(n, dtype=self.float_dtype, device=self.device)

    def arange(self, *args):
        return self._torch.arange(*args, device=self.device)

    def zeros_like(self, a):
        return self._torch.zeros_like(a)

    def stack(self, seq, axis: int = 0):
        return self._torch.stack([self._tensor(a) for a in seq], dim=axis)

    def concatenate(self, seq, axis: int = 0):
        return self._torch.cat(list(seq), dim=axis)

    def where(self, cond, a, b):
        t = self._torch
        if t.is_tensor(a) or t.is_tensor(b):
            ref = a if t.is_tensor(a) else b
            a = self._tensor(a, dtype=ref.dtype)
            b = self._tensor(b, dtype=ref.dtype)
        else:
            a, b = self._tensor(a), self._tensor(b)
        return t.where(cond, a, b)

    def broadcast_to(self, a, shape):
        return self._torch.broadcast_to(self._tensor(a), shape)

    def tile(self, a, reps):
        return self._torch.tile(self._tensor(a), tuple(_np.atleast_1d(reps)))

    def repeat(self, a, n: int, axis: int):
        return self._torch.repeat_interleave(a, n, dim=axis)

    def take(self, a, indices, axis: int):
        axis = axis % a.ndim
        out = self._torch.index_select(a, axis, indices.reshape(-1))
        return out.reshape(
            tuple(a.shape[:axis]) + tuple(indices.shape) + tuple(a.shape[axis + 1 :])
        )

    def copy(self, a):
        return a.clone()

    def reshape(self, a, shape):
        return a.reshape(tuple(shape))

    def astype(self, a, dtype: str):
        return a.to(self._dtype(dtype))

    # -- elementwise math --------------------------------------------------

    def sqrt(self, a):
        return self._torch.sqrt(self._tensor(a))

    def abs(self, a):
        return self._torch.abs(a)

    def isfinite(self, a):
        return self._torch.isfinite(a)

    def maximum(self, a, b):
        t = self._torch
        ref = a if t.is_tensor(a) else b
        return t.maximum(self._tensor(a, dtype=ref.dtype), self._tensor(b, dtype=ref.dtype))

    def minimum(self, a, b):
        t = self._torch
        ref = a if t.is_tensor(a) else b
        return t.minimum(self._tensor(a, dtype=ref.dtype), self._tensor(b, dtype=ref.dtype))

    def clip(self, a, lo, hi):
        return self._torch.clamp(a, min=lo, max=hi)

    def matmul(self, a, b):
        return self._torch.matmul(a, b)

    def einsum(self, spec: str, *ops):
        return self._torch.einsum(spec, *ops)

    def logical_not(self, a):
        return self._torch.logical_not(a)

    # -- reductions --------------------------------------------------------

    def sum(self, a, axis=None):
        a = self._tensor(a)
        return self._torch.sum(a) if axis is None else self._torch.sum(a, dim=axis)

    def max(self, a, axis=None):
        a = self._tensor(a)
        return self._torch.max(a) if axis is None else self._torch.amax(a, dim=axis)

    def min(self, a, axis=None):
        a = self._tensor(a)
        return self._torch.min(a) if axis is None else self._torch.amin(a, dim=axis)

    def all(self, a, axis=None):
        if axis is None:
            return self._torch.all(a)
        if isinstance(axis, tuple):
            out = a
            for ax in sorted(axis, reverse=True):
                out = self._torch.all(out, dim=ax)
            return out
        return self._torch.all(a, dim=axis)

    def any(self, a, axis=None):
        return self._torch.any(a) if axis is None else self._torch.any(a, dim=axis)

    def flatnonzero(self, a):
        return self._torch.nonzero(a, as_tuple=False).reshape(-1)

    def transpose_last2(self, a):
        return a.transpose(-1, -2)

    def errstate(self):
        return nullcontext()

    # -- host bridge -------------------------------------------------------

    def from_host(self, x, dtype: Optional[str] = "float"):
        self.upload_count += 1
        return self._torch.as_tensor(
            _np.asarray(x), dtype=self._dtype(dtype), device=self.device
        )

    def to_host(self, a) -> _np.ndarray:
        self.sync_count += 1
        return a.detach().cpu().numpy()

    def scalar(self, a):
        if isinstance(a, (bool, int, float)):
            return a
        self.sync_count += 1
        return a.item()

    def ufuncs(self) -> Dict[str, object]:
        t = self._torch
        return {
            "sin": t.sin,
            "cos": t.cos,
            "tan": t.tan,
            "asin": t.asin,
            "acos": t.acos,
            "atan": t.atan,
            "exp": t.exp,
            "log": t.log,
            "sqrt": t.sqrt,
            "tanh": t.tanh,
        }


class CountingBackend(ArrayBackend):
    """A numpy-backed *pretend device*: every op delegates to an inner
    backend, but ``is_device`` is True and every host crossing is counted.

    This is the instrument behind the no-per-iteration-host-sync
    acceptance gate: the parity suite runs the masked lockstep QP loop
    through a ``CountingBackend`` and asserts the sync counter does not
    grow with the iteration count — without needing a GPU (or torch) in
    the test environment.
    """

    is_device = True

    def __init__(self, inner: Optional[ArrayBackend] = None) -> None:
        inner = inner or NumpyBackend()
        super().__init__(inner.dtype_name)
        self._inner = inner
        self.name = f"counting[{inner.name}]"
        self.float_dtype = inner.float_dtype
        self.int_dtype = inner.int_dtype
        self.bool_dtype = inner.bool_dtype

    def __getattr__(self, attr):
        # Fallback for ops not overridden below: delegate to the inner
        # backend (only reached for names not defined on the base class).
        return getattr(self._inner, attr)

    def from_host(self, x, dtype: Optional[str] = "float"):
        self.upload_count += 1
        return self._inner.from_host(x, dtype)

    def to_host(self, a) -> _np.ndarray:
        self.sync_count += 1
        return self._inner.to_host(a)

    def scalar(self, a):
        if isinstance(a, (bool, int, float)):
            return a
        self.sync_count += 1
        return self._inner.scalar(a)

    def errstate(self):
        # Warnings policy belongs to the wrapped backend: the counting
        # wrapper only pretends to be a device for host-bridge accounting,
        # and its numpy inner would otherwise spew warnings from frozen
        # lanes' masked-away garbage arithmetic.
        return self._inner.errstate()


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------
_INSTANCES: Dict[tuple, ArrayBackend] = {}
_FACTORIES: Dict[str, Callable[[str], ArrayBackend]] = {"numpy": NumpyBackend}
if importlib.util.find_spec("torch") is not None:
    _FACTORIES["torch"] = TorchBackend


def available_backends() -> List[str]:
    """Registered backend names, numpy always first."""
    return list(_FACTORIES)


def get_backend(spec: Union[str, ArrayBackend, None] = None) -> ArrayBackend:
    """Resolve a backend: instance passthrough, ``NAME[:DTYPE]``, or numpy.

    ``spec`` may be an :class:`ArrayBackend` (returned as-is), a
    registered name (``"torch"``), or a name with a dtype suffix
    (``"torch:float32"``); ``None`` is ``"numpy"``.  One instance per
    name and dtype is built and cached.
    """
    if isinstance(spec, ArrayBackend):
        return spec
    name, suffixed, dtype = (spec or "numpy").partition(":")
    if not suffixed:
        dtype = "float64"
    if name not in _FACTORIES or dtype not in _FLOAT_DTYPES:
        raise SolverError(
            f"unknown array backend {spec!r}; registered: "
            f"{', '.join(available_backends())} (each optionally suffixed "
            "':float32')"
        )
    key = (name, dtype)
    if key not in _INSTANCES:
        _INSTANCES[key] = _FACTORIES[name](dtype)
    return _INSTANCES[key]


#: The always-on host (numpy, float64) backend: the boundary converter for
#: code that must hand numpy arrays to the scalar/serve layers.
HOST = get_backend("numpy")
