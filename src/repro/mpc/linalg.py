"""From-scratch dense linear algebra for the interior-point solver.

RoboX solves the KKT system of Eq. 6 "using a combination of Cholesky
decomposition and forward/backward substitution" (§II-B).  This module
implements those kernels directly (no ``np.linalg`` solvers) so that

* the solver is a faithful re-implementation of the paper's pipeline, and
* the accelerator compiler can reason about the exact operation mix
  (multiply-add dominated, plus ``1/x`` and ``sqrt`` on the diagonal —
  which is why each RoboX CC dedicates one division-capable CU, §V).

The inner loops are expressed column-wise over NumPy vectors: the algorithm
is hand-written, NumPy only supplies elementwise arithmetic.

These are the reference kernels and the op-count source.  They serve the
dense QP path, the SQP driver's convexification check and the conform
oracles, and ``flop_counts_*`` here and in :mod:`repro.mpc.banded` are the
accelerator's cost model.  The banded factor that the solver runs on every
iteration factors its tiles with LAPACK ``potrf`` instead (see
:func:`repro.mpc.banded.cholesky_tiles`); the counts still describe the
column algorithm written out here.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.errors import SolverError

__all__ = [
    "cholesky",
    "forward_substitution",
    "backward_substitution",
    "cholesky_solve",
    "solve_symmetric",
    "max_abs",
    "flop_counts_cholesky",
    "flop_counts_substitution",
]


def cholesky(A: np.ndarray, reg: float = 0.0) -> np.ndarray:
    """Lower-triangular Cholesky factor of a symmetric positive-definite A.

    Args:
        A: symmetric matrix (only the lower triangle is read).
        reg: optional diagonal regularization added before factorization,
            used by the IPM to guard against loss of positive definiteness
            far from the central path.

    Raises:
        SolverError: if a non-positive pivot is encountered.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n):
        raise SolverError(f"cholesky requires a square matrix, got {A.shape}")
    L = np.zeros((n, n))
    for j in range(n):
        # d = A[j,j] + reg - sum_k L[j,k]^2
        d = A[j, j] + reg - np.dot(L[j, :j], L[j, :j])
        if d <= 0.0 or not np.isfinite(d):
            raise SolverError(
                f"cholesky pivot {j} is non-positive ({d:.3e}); "
                "matrix is not positive definite"
            )
        L[j, j] = np.sqrt(d)
        if j + 1 < n:
            # Column update: L[i,j] = (A[i,j] - L[i,:j] @ L[j,:j]) / L[j,j]
            L[j + 1 :, j] = (A[j + 1 :, j] - L[j + 1 :, :j] @ L[j, :j]) / L[j, j]
    return L


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


def solve_symmetric(A: np.ndarray, b: np.ndarray, reg: float = 0.0) -> np.ndarray:
    """Solve a symmetric positive-definite system via Cholesky."""
    return cholesky_solve(cholesky(A, reg=reg), b)


def max_abs(v: np.ndarray) -> float:
    """Infinity norm of ``v`` as a float; 0.0 for an empty array."""
    return float(np.max(np.abs(v))) if v.size else 0.0


def flop_counts_cholesky(n: int) -> Dict[str, int]:
    """Exact primitive-op counts of an ``n x n`` Cholesky factorization.

    Multiply-adds dominate (``~n^3/3``); division and square root appear once
    per column — the operation mix the RoboX architecture is sized around.
    """
    # Column j: a j-term diagonal dot plus (n-1-j) update rows of j muls each.
    mul = sum(j * (n - j) for j in range(n))
    add = mul
    return {"mul": mul, "add": add, "div": n * (n - 1) // 2, "sqrt": n}


def flop_counts_substitution(n: int, nrhs: int = 1) -> Dict[str, int]:
    """Primitive-op counts of a triangular solve with ``nrhs`` right-hand sides."""
    mul = nrhs * (n * (n - 1) // 2)
    return {"mul": mul, "add": mul, "div": nrhs * n}
