"""Vectorized multi-instance MPC solving (``repro.batch``).

Solves a batch of same-structure MPC instances as stacked ndarrays:
batched banded Cholesky (:mod:`~repro.batch.linalg`), a batched
interior-point QP loop with continuous-batching lane freezing
(:mod:`~repro.batch.qp`), vectorized linearization
(:mod:`~repro.batch.transcription`), and the lane-batched SQP driver
(:mod:`~repro.batch.ipm`) — the one SQP iteration in the repo: the v2
serve engine (:mod:`repro.serve2`) dispatches session groups through
:class:`BatchSolver`, and the scalar
:class:`repro.mpc.ipm.InteriorPointSolver` is its ``B = 1`` lane.

Every batch kernel routes its array ops through the array-backend seam
(:mod:`~repro.batch.backend`): numpy is the always-available reference,
cupy / torch register automatically when importable and run the same
masked lockstep QP loop device-resident.  Select with
``REPRO_ARRAY_BACKEND=torch`` (optionally ``:float32``) or explicitly via
``BatchSolver(problem, backend="torch")``.
"""

from .backend import (
    ArrayBackend,
    CountingBackend,
    available_backends,
    get_backend,
    register_backend,
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
    "register_backend",
    "robust_factor_batch",
    "solve_qp_batch",
    "vectorize_compiled",
]
