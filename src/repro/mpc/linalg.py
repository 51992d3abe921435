"""From-scratch dense substitutions for the interior-point solver.

RoboX solves the KKT system of Eq. 6 "using a combination of Cholesky
decomposition and forward/backward substitution" (§II-B).  This module
holds the substitution kernels of that pair, written directly (no
``np.linalg`` solvers): the algorithm is hand-written column by column,
NumPy only supplies elementwise arithmetic — the operation mix the
accelerator compiler reasons about (multiply-add dominated, plus ``1/x``
on the diagonal).

They are reference kernels.  The from-scratch :func:`cholesky` they pair
with (the SQP driver's convexification probe) and the ``flop_counts_*``
cost model are host code of the solver core (:mod:`repro.batch.host`);
``cholesky`` is bound here too, where the benchmark harness traces it.
The QP loop factors with :class:`repro.batch.linalg.BatchCholeskyFactor`
(LAPACK ``potrf`` tiles) or, on its dense oracle step,
:class:`repro.batch.linalg.OracleCholeskyFactor`.
"""

from __future__ import annotations

import numpy as np

from repro.batch.host import cholesky
from repro.errors import SolverError

__all__ = [
    "cholesky",
    "forward_substitution",
    "backward_substitution",
    "cholesky_solve",
]


def forward_substitution(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``L y = b`` for lower-triangular ``L``.

    ``b`` may be a vector or a matrix of stacked right-hand sides.
    """
    L = np.asarray(L, dtype=float)
    b = np.asarray(b, dtype=float)
    n = L.shape[0]
    y = np.array(b, dtype=float, copy=True)
    squeeze = False
    if y.ndim == 1:
        y = y[:, None]
        squeeze = True
    for i in range(n):
        if L[i, i] == 0.0:
            raise SolverError(f"forward substitution: zero diagonal at row {i}")
        y[i] = (y[i] - L[i, :i] @ y[:i]) / L[i, i]
    return y[:, 0] if squeeze else y


def backward_substitution(U: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``U x = b`` for upper-triangular ``U``."""
    U = np.asarray(U, dtype=float)
    b = np.asarray(b, dtype=float)
    n = U.shape[0]
    x = np.array(b, dtype=float, copy=True)
    squeeze = False
    if x.ndim == 1:
        x = x[:, None]
        squeeze = True
    for i in range(n - 1, -1, -1):
        if U[i, i] == 0.0:
            raise SolverError(f"backward substitution: zero diagonal at row {i}")
        x[i] = (x[i] - U[i, i + 1 :] @ x[i + 1 :]) / U[i, i]
    return x[:, 0] if squeeze else x


def cholesky_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``(L L^T) x = b`` given a Cholesky factor ``L``."""
    y = forward_substitution(L, b)
    return backward_substitution(L.T, y)
