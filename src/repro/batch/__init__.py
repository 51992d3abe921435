"""Vectorized multi-instance MPC solving (``repro.batch``).

Solves a batch of same-structure MPC instances as stacked ndarrays:
batched banded Cholesky (:mod:`~repro.batch.linalg`), a batched
interior-point QP loop with continuous-batching lane freezing
(:mod:`~repro.batch.qp`), vectorized linearization
(:mod:`~repro.batch.transcription`), and the lane-batched SQP driver
(:mod:`~repro.batch.ipm`) — the one SQP iteration in the repo: the
serve engine (:mod:`repro.serve2`) dispatches session groups through
:class:`BatchSolver`, and the scalar
:class:`repro.mpc.ipm.InteriorPointSolver` is its ``B = 1`` lane.

With :mod:`repro.firstorder` this package is the solver core, and it
imports nothing from :mod:`repro.mpc` (which imports it): the options,
results, budgets and health records every solver speaks are one leaf
module, :mod:`~repro.batch.contract`, and the core's bare-numpy host
code (structure reads, LAPACK tile kernels, flop meters, fault consults,
the active-set polish) is :mod:`~repro.batch.host`.

Every batch kernel routes its array ops through the array-backend seam
(:mod:`~repro.batch.backend`): numpy is the always-available reference,
and torch registers when importable and runs the same masked lockstep QP
loop device-resident.  Select one with a ``backend=`` argument, e.g.
``BatchSolver(problem, backend="torch")`` (optionally ``"torch:float32"``).
"""

from .backend import (
    ArrayBackend,
    CountingBackend,
    available_backends,
    get_backend,
)
from .ipm import BatchSolveReport, BatchSolver
from .linalg import BatchCholeskyFactor, robust_factor_batch
from .qp import BatchQPResult, BatchQPStats, solve_qp_batch
from .transcription import BatchLinearizer, VectorizedFunction, vectorize_compiled

__all__ = [
    "ArrayBackend",
    "BatchCholeskyFactor",
    "BatchLinearizer",
    "BatchQPResult",
    "BatchQPStats",
    "BatchSolveReport",
    "BatchSolver",
    "CountingBackend",
    "VectorizedFunction",
    "available_backends",
    "get_backend",
    "robust_factor_batch",
    "solve_qp_batch",
    "vectorize_compiled",
]
