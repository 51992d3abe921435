"""The banded factor of one matrix: the sparsity-exploiting solver path.

The paper's CPU baseline is the *sparsity-exploiting* HPMPC interior-point
solver (§VIII-A), and the accelerator's solver-template cost model
(:mod:`repro.compiler`) assumes the same structure: the stage-ordered KKT
matrix of a horizon-``N`` MPC problem is banded with half-bandwidth
``b ~ 2 nx + nu``, so a factorization costs ``O(N b^2)`` instead of
``O(N^3)``.

The blocked factor of that path is written once, with a lane axis:
:class:`repro.batch.linalg.BatchCholeskyFactor`, which the QP loop
(:func:`repro.batch.qp.solve_qp_batch`) runs twice per iteration — in
block mode over ``Phi``'s stage blocks by their coupling components, and
banded over the Schur complement.  Its structure reads, host tile kernels,
tile rule and flop meters are host code of the solver core
(:mod:`repro.batch.host`).  :class:`BandedCholeskyFactor` is that factor's
one-lane view.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.batch.linalg import BatchCholeskyFactor
from repro.errors import SolverError

__all__ = ["BandedCholeskyFactor"]


class BandedCholeskyFactor:
    """One matrix's factor: :class:`~repro.batch.linalg.BatchCholeskyFactor`
    at one lane (the same tiles and solves, bit for bit), for a caller
    holding one ``(n, n)`` matrix or ``(K, s, s)`` block stack; right-hand
    sides come without the lane axis.  Raises :class:`SolverError` where
    the lane's ``ok`` is off (not positive definite after ``reg``,
    non-finite input, or overflowed factor tiles)."""

    def __init__(self, A: np.ndarray, band: Optional[int] = None, reg: float = 0.0):
        lane = self._lane = BatchCholeskyFactor(
            np.asarray(A, dtype=float)[None], band=band, reg=reg
        )
        if not lane.ok[0]:
            raise SolverError(
                "banded cholesky: the matrix is not positive definite "
                "or its factor tiles overflowed"
            )
        self.banded, self.n, self.nb, self.K = lane.banded, lane.n, lane.nb, lane.K
        self._D, self._Dinv, self._C = lane._D[0], lane._Dinv[0], lane._C[0]

    def forward(self, b: np.ndarray) -> np.ndarray:
        """Solve ``L y = b``."""
        return self._lane.forward(np.asarray(b, dtype=float)[None])[0]

    def backward(self, b: np.ndarray) -> np.ndarray:
        """Solve ``L^T x = b``."""
        return self._lane.backward(np.asarray(b, dtype=float)[None])[0]

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``(L L^T) x = b``."""
        return self._lane.solve(np.asarray(b, dtype=float)[None])[0]
