"""Banded linear-algebra kernels: the sparsity-exploiting solver path.

The paper's CPU baseline is the *sparsity-exploiting* HPMPC interior-point
solver (§VIII-A), and the accelerator's solver-template cost model
(:mod:`repro.compiler`) assumes the same structure: the stage-ordered KKT
matrix of a horizon-``N`` MPC problem is banded with half-bandwidth
``b ~ 2 nx + nu``, so a factorization costs ``O(N b^2)`` instead of
``O(N^3)``.  This module holds what the blocked factor of that path reads:

* the structural half-bandwidth of a matrix (:func:`bandwidth_of`), the
  block partition of a block-diagonal envelope (:func:`block_partition`)
  and its coupling components (:func:`coupling_components`),
* the host tile kernels and the tile rule of the blocked factor,
* exact primitive-op counts of the banded column algorithm, so benchmarks
  can compare measured flops against the accelerator cost model.

What the QP loop (:func:`repro.batch.qp.solve_qp_batch`, of which
:func:`repro.mpc.qp.solve_qp` is one lane) runs when it is handed a
bandwidth hint (the stage-interleaved ordering produced by
:meth:`repro.mpc.transcription.TranscribedProblem.stage_permutation`) is
the one blocked factor, :class:`repro.batch.linalg.BatchCholeskyFactor`,
twice per iteration: once in block mode over the stage blocks of the
block-diagonal ``Phi``, by their coupling components (one stacked
``potrf`` and one stacked inverse per component width, no sweep), once
banded over the Schur complement (``nb x nb`` tiles, each factored by
LAPACK ``potrf`` and inverted by LU through :func:`cholesky_tiles` /
:func:`tril_inverse`, whose tile rule is :func:`tile_size`: tiles at least
:data:`MIN_BLOCK` wide).  The flop meters count the column algorithm — the
accelerator's operation mix, each column touching only its ``band``-wide
window — not what LAPACK executes.  :class:`BandedCholeskyFactor` is that
factor's one-lane view.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import SolverError

__all__ = [
    "bandwidth_of",
    "block_partition",
    "coupling_components",
    "cholesky_tiles",
    "tril_inverse",
    "tile_size",
    "MIN_BLOCK",
    "BandedCholeskyFactor",
    "flop_counts_banded_cholesky",
    "flop_counts_banded_substitution",
]


def bandwidth_of(A: np.ndarray, tol: float = 0.0) -> int:
    """Half-bandwidth of a symmetric matrix: max |i - j| with A[i,j] != 0."""
    A = np.asarray(A)
    i, j = np.nonzero(np.abs(A) > tol)
    if i.size == 0:
        return 0
    return int(np.max(np.abs(i - j)))


def block_partition(
    A: np.ndarray, R: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, int]:
    """Finest block-diagonal partition of the pattern ``|A| + |R|^T |R|``.

    Returns ``(bounds, band)``: block ``k`` is ``[bounds[k], bounds[k+1])``,
    with a split wherever no entry of the pattern crosses it, and ``band``
    is the pattern's :func:`bandwidth_of`.  Both are read from nonzero
    spans (each entry of ``A``, each row of ``R`` from its first to its last
    nonzero column), so ``R^T R`` is never formed.  For the condensed
    ``Phi = H + J^T W J`` of :func:`repro.mpc.qp.solve_qp` the pattern holds
    for every positive diagonal ``W``, so one read serves a whole solve.
    """
    n = A.shape[0]
    idx = np.arange(n)
    nz = A != 0
    # farthest index each row / column reaches: its last nonzero
    reach = np.maximum(_last_nonzero(nz, idx), _last_nonzero(nz.T, idx))
    band = int(np.max(reach - idx, initial=0))
    if R is not None and R.size:
        nz = R != 0
        rows = nz.any(axis=1)
        first = np.argmax(nz[rows], axis=1)
        last = _last_nonzero(nz[rows], first)
        np.maximum.at(reach, first, last)
        band = max(band, int(np.max(last - first, initial=0)))
    reach = np.maximum.accumulate(reach)
    splits = np.flatnonzero(reach[:-1] < idx[1:]) + 1
    return np.concatenate(([0], splits, [n])), band


def coupling_components(
    A: np.ndarray, R: Optional[np.ndarray] = None
) -> np.ndarray:
    """Connected components of the pattern ``|A| + |R|^T |R|``.

    Returns one label per index, the smallest index of its component.  Two
    indices share a component when an entry of ``A`` or a row of ``R``
    couples them, directly or through others: the finest partition whose
    blocks, under any ordering, make the pattern block diagonal — finer
    than :func:`block_partition`, which cuts only between neighbouring
    indices.  Read from the edges alone (``R^T R`` is never formed).
    """
    n = A.shape[0]
    a, b = np.nonzero(A)
    if R is not None and R.size:
        row, col = np.nonzero(R)
        first = np.argmax(R != 0, axis=1)  # every row's nonzeros join its first
        a, b = np.concatenate([a, first[row]]), np.concatenate([b, col])
    label = np.arange(n)
    while True:
        low = np.minimum(label[a], label[b])
        nxt = label.copy()
        np.minimum.at(nxt, a, low)
        np.minimum.at(nxt, b, low)
        nxt = nxt[nxt]  # pointer jumping: follow a label to its own label
        if np.array_equal(nxt, label):
            return label
        label = nxt


def _last_nonzero(nz: np.ndarray, empty: np.ndarray) -> np.ndarray:
    """Column of each row's last ``True`` in ``nz`` (``empty`` where none)."""
    width = nz.shape[1]
    last = width - 1 - np.argmax(nz[:, ::-1], axis=1)
    return np.where(nz[np.arange(nz.shape[0]), last], last, empty)


def _stacked(kernel, M: np.ndarray) -> np.ndarray:
    """Apply a LAPACK gufunc to an ``(..., m, m)`` stack in one call.

    numpy raises for the whole stack when one matrix fails; the stack is
    then re-run matrix by matrix, and only the matrices that raise are
    NaN-filled.  The gufunc runs LAPACK once per matrix either way, so a
    matrix's result does not depend on its stack-mates.
    """
    try:
        return kernel(M)
    except np.linalg.LinAlgError:
        out = np.empty(M.shape, dtype=M.dtype)
        flat = out.reshape((-1,) + M.shape[-2:])
        for i, tile in enumerate(M.reshape(flat.shape)):
            try:
                flat[i] = kernel(tile)
            except np.linalg.LinAlgError:
                flat[i] = np.nan
        return out


@lru_cache(maxsize=64)
def _lower_mask(m: int) -> np.ndarray:
    """The ``m x m`` lower-triangle mask, built once per tile size and
    shared read-only by every factor."""
    mask = np.tri(m, dtype=bool)
    mask.setflags(write=False)
    return mask


def cholesky_tiles(M: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """LAPACK Cholesky of an ``(..., m, m)`` stack of SPD tiles.

    Returns ``(L, ok)``: one ``potrf`` per tile (lower triangle read,
    upper triangle of ``L`` zero), with ``ok`` false for a tile that is not
    positive definite or whose factor is non-finite (``potrf`` lets a NaN
    through).  Flagged tiles hold the identity — a bounded placeholder, so
    a batch carries its failed lanes without overflow — and the caller
    decides what a flagged tile means (the batched factor freezes its
    lane).
    """
    L = _stacked(np.linalg.cholesky, M)
    ok = np.all(np.isfinite(L), axis=(-2, -1))
    if not ok.all():
        L = np.where(ok[..., None, None], L, np.eye(L.shape[-1], dtype=L.dtype))
    return L, ok


def tril_inverse(L: np.ndarray) -> np.ndarray:
    """Inverse of an ``(..., m, m)`` stack of lower-triangular tiles.

    One stacked LU inverse, masked to the lower triangle: pivoting leaves
    roundoff above the diagonal where the exact inverse is zero.  A tile LU
    finds singular (an underflowed pivot) comes back NaN, and an overflow
    comes back inf — both left for the caller's finiteness check.
    """
    return np.where(_lower_mask(L.shape[-1]), _stacked(np.linalg.inv, L), 0.0)


#: minimum tile size of the blocked factors: tiny bandwidths still get
#: tiles this wide.  At one lane a tile step of the sweep costs its numpy
#: calls, not its flops, so fewer, wider tiles win: of 16, 24, 32, 40 and
#: 48, 32 made one interior-point iteration's Schur factor and solves
#: cheapest on the ``loop-scalar`` robots' first QPs (N=16, one lane).
MIN_BLOCK = 32


def tile_size(n: int, band: int) -> int:
    """Tile size ``nb`` of the blocked banded factor of an ``n x n`` matrix
    with half-bandwidth ``band >= 1`` — the tile rule of a banded
    :class:`~repro.batch.linalg.BatchCholeskyFactor`.

    Tiles are ``max(band, MIN_BLOCK)`` wide, except when ``n`` fits in two of
    them: two tiles already hold the whole lower triangle (``D_0``, ``C_0``,
    ``D_1``), so banding skips nothing there and would only pad to ``2 nb``
    and double the LAPACK calls — the matrix is then one tile of ``n``.
    The flop meters count the banded algorithm either way.
    """
    nb = max(band, MIN_BLOCK)
    return max(n, 1) if n <= 2 * nb else nb


class BandedCholeskyFactor:
    """One matrix's factor: :class:`~repro.batch.linalg.BatchCholeskyFactor`
    at one lane (the same tiles and solves, bit for bit), for a caller
    holding one ``(n, n)`` matrix or ``(K, s, s)`` block stack; right-hand
    sides come without the lane axis.  Raises :class:`SolverError` where
    the lane's ``ok`` is off (not positive definite after ``reg``,
    non-finite input, or overflowed factor tiles)."""

    def __init__(self, A: np.ndarray, band: Optional[int] = None, reg: float = 0.0):
        from repro.batch.linalg import BatchCholeskyFactor  # imports this module

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


@lru_cache(maxsize=256)
def _banded_cholesky_counts(n: int, band: int) -> Tuple[int, int]:
    """(mul, div) totals for one banded factorization — cached: the QP loop
    meters every factorization with the same one or two ``(n, band)`` pairs,
    and this O(n band) Python loop would otherwise dominate the metering."""
    band = min(band, max(n - 1, 0))
    mul = 0
    div = 0
    for j in range(n):
        lo = max(j - band, 0)
        mul += j - lo  # diagonal window dot
        hi = min(j + band, n - 1)
        for i in range(j + 1, hi + 1):
            mul += j - max(i - band, 0)  # column-update window dot
            div += 1
    return mul, div


@lru_cache(maxsize=256)
def _banded_window_sum(n: int, band: int) -> int:
    band = min(band, max(n - 1, 0))
    return sum(i - max(i - band, 0) for i in range(n))


def flop_counts_banded_cholesky(n: int, band: int) -> Dict[str, int]:
    """Exact primitive-op counts of a banded Cholesky factorization.

    Counts the column algorithm, each column touching only its
    ``band``-wide window (out-of-band entries are structural zeros, not
    flops): ``O(n band^2)`` multiply-adds instead of the dense ``~n^3 / 3``.
    """
    mul, div = _banded_cholesky_counts(int(n), int(band))
    return {"mul": mul, "add": mul, "div": div, "sqrt": n}


def flop_counts_banded_substitution(
    n: int, band: int, nrhs: int = 1
) -> Dict[str, int]:
    """Primitive-op counts of one banded triangular solve (``nrhs`` RHS)."""
    window = _banded_window_sum(int(n), int(band))
    return {"mul": nrhs * window, "add": nrhs * window, "div": nrhs * n}
