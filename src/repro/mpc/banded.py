"""Banded linear-algebra kernels: the sparsity-exploiting solver path.

The paper's CPU baseline is the *sparsity-exploiting* HPMPC interior-point
solver (§VIII-A), and the accelerator's solver-template cost model
(:mod:`repro.compiler`) assumes the same structure: the stage-ordered KKT
matrix of a horizon-``N`` MPC problem is banded with half-bandwidth
``b ~ 2 nx + nu``, so a factorization costs ``O(N b^2)`` instead of
``O(N^3)``.  This module implements those kernels concretely:

* symmetric banded storage (diagonal-major, LAPACK ``SB`` style),
* banded Cholesky factorization and banded triangular solves,
* the block-diagonal factor of a ``(K, s, s)`` stack (:func:`block_cholesky`)
  and the structural block partition it runs over (:func:`block_partition`),
* helpers to convert between dense and banded storage,
* exact primitive-op counts of the banded kernels, so benchmarks can
  compare measured flops against the accelerator cost model.

The column kernels (:func:`banded_cholesky` and the banded substitutions)
are the from-scratch reference, window-vectorized: each column/row touches
only its ``band``-wide window, one NumPy gather + matvec.  What
:func:`repro.mpc.qp.solve_qp` runs when it is handed a bandwidth hint (the
stage-interleaved ordering produced by
:meth:`repro.mpc.transcription.TranscribedProblem.stage_permutation`) is
:class:`BandedCholeskyFactor` twice per iteration: once in block mode over
the stage blocks of the block-diagonal ``Phi`` (one stacked ``potrf`` and
one stacked inverse, no sweep), once banded over the Schur complement —
the same factorization over dense ``nb x nb`` tiles, each tile factored by
LAPACK ``potrf`` and inverted by LU through the host tile kernels
:func:`cholesky_tiles` / :func:`tril_inverse`.  Those two kernels are
written once, over ``(..., m, m)`` stacks, and the batched twin
(:class:`repro.batch.linalg.BatchCholeskyFactor`) calls them too on host
backends, so a lane of a batch and a scalar factor of the same matrix hold
bit-identical tiles.  The flop meters count the column algorithm — the
accelerator's operation mix — not what LAPACK executes.

The tests verify the banded results match the dense from-scratch kernels of
:mod:`repro.mpc.linalg` to roundoff, and the kernel microbenchmarks
demonstrate the asymptotic win the cost model is built on.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import SolverError

__all__ = [
    "to_banded",
    "from_banded",
    "banded_cholesky",
    "banded_forward_substitution",
    "banded_backward_substitution",
    "banded_cholesky_solve",
    "banded_solve",
    "bandwidth_of",
    "block_partition",
    "cholesky_tiles",
    "tril_inverse",
    "block_cholesky",
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


def _last_nonzero(nz: np.ndarray, empty: np.ndarray) -> np.ndarray:
    """Column of each row's last ``True`` in ``nz`` (``empty`` where none)."""
    width = nz.shape[1]
    last = width - 1 - np.argmax(nz[:, ::-1], axis=1)
    return np.where(nz[np.arange(nz.shape[0]), last], last, empty)


def to_banded(A: np.ndarray, band: int) -> np.ndarray:
    """Pack the lower triangle of a symmetric banded matrix.

    Returns ``B`` with shape ``(band + 1, n)`` where ``B[d, j] = A[j + d, j]``
    (diagonal ``d`` below the main diagonal, column ``j``).  Entries beyond
    the matrix edge are zero.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n):
        raise SolverError(f"expected a square matrix, got {A.shape}")
    if band < 0 or band >= n and n > 0 and band != 0:
        band = min(band, max(n - 1, 0))
    B = np.zeros((band + 1, n))
    for d in range(band + 1):
        B[d, : n - d] = np.diagonal(A, offset=-d)
    return B


def from_banded(B: np.ndarray) -> np.ndarray:
    """Unpack banded storage into a dense symmetric matrix."""
    B = np.asarray(B, dtype=float)
    band = B.shape[0] - 1
    n = B.shape[1]
    A = np.zeros((n, n))
    for d in range(band + 1):
        idx = np.arange(n - d)
        A[idx + d, idx] = B[d, : n - d]
        if d:
            A[idx, idx + d] = B[d, : n - d]
    return A


def banded_cholesky(B: np.ndarray, reg: float = 0.0) -> np.ndarray:
    """Cholesky factorization in banded storage.

    Args:
        B: symmetric positive-definite matrix in :func:`to_banded` storage.
        reg: diagonal regularization added before factorization.

    Returns:
        The lower-triangular factor ``L`` in the same banded storage
        (``L[d, j] = factor[j + d, j]``).

    The factor of a banded SPD matrix has the same bandwidth, which is what
    makes the ``O(n band^2)`` cost possible.  Each column update is one
    windowed gather + matvec over at most ``band`` previous columns.
    """
    B = np.asarray(B, dtype=float)
    band = B.shape[0] - 1
    n = B.shape[1]
    L = np.zeros_like(B)

    for j in range(n):
        lo = max(j - band, 0)
        # Row j of the factor over columns [lo, j) is the anti-diagonal
        # L[j - k, k] of the banded storage.
        ks = np.arange(lo, j)
        row_j = L[j - ks, ks]
        acc = B[0, j] + reg - float(row_j @ row_j)
        if acc <= 0.0 or not np.isfinite(acc):
            raise SolverError(
                f"banded cholesky pivot {j} is non-positive ({acc:.3e})"
            )
        ljj = np.sqrt(acc)
        L[0, j] = ljj
        hi = min(j + band, n - 1)
        if hi == j:
            continue
        if ks.size:
            # Window rows i in (j, hi]: M[i, k] = factor[i, k], which is zero
            # whenever i - k exceeds the bandwidth (clip the gather, mask it).
            d = np.arange(j + 1, hi + 1)[:, None] - ks[None, :]
            M = np.where(d <= band, L[np.minimum(d, band), ks[None, :]], 0.0)
            L[1 : hi - j + 1, j] = (B[1 : hi - j + 1, j] - M @ row_j) / ljj
        else:
            L[1 : hi - j + 1, j] = B[1 : hi - j + 1, j] / ljj
    return L


def banded_forward_substitution(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``L y = b`` with ``L`` in banded lower storage."""
    L = np.asarray(L, dtype=float)
    band = L.shape[0] - 1
    n = L.shape[1]
    y = np.array(b, dtype=float, copy=True)
    squeeze = y.ndim == 1
    if squeeze:
        y = y[:, None]
    for i in range(n):
        if L[0, i] == 0.0:
            raise SolverError(f"banded forward substitution: zero pivot {i}")
        lo = max(i - band, 0)
        if lo < i:
            # Row i of the factor over columns [lo, i): anti-diagonal gather.
            ks = np.arange(lo, i)
            y[i] -= L[i - ks, ks] @ y[lo:i]
        y[i] /= L[0, i]
    return y[:, 0] if squeeze else y


def banded_backward_substitution(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``L^T x = b`` with ``L`` in banded lower storage."""
    L = np.asarray(L, dtype=float)
    band = L.shape[0] - 1
    n = L.shape[1]
    x = np.array(b, dtype=float, copy=True)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[:, None]
    for i in range(n - 1, -1, -1):
        if L[0, i] == 0.0:
            raise SolverError(f"banded backward substitution: zero pivot {i}")
        hi = min(i + band, n - 1)
        if hi > i:
            # Column i of the factor below the diagonal is contiguous in
            # banded storage: L[1 : hi-i+1, i].
            x[i] -= L[1 : hi - i + 1, i].T @ x[i + 1 : hi + 1]
        x[i] /= L[0, i]
    return x[:, 0] if squeeze else x


def banded_cholesky_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``(L L^T) x = b`` given a banded Cholesky factor ``L``."""
    y = banded_forward_substitution(L, b)
    return banded_backward_substitution(L, y)


def banded_solve(
    B: np.ndarray, b: np.ndarray, reg: float = 0.0
) -> np.ndarray:
    """Solve ``A x = b`` for a banded SPD ``A`` given in banded storage."""
    L = banded_cholesky(B, reg=reg)
    return banded_cholesky_solve(L, b)


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
    decides whether that raises (the scalar factor) or freezes a lane (the
    batched one).
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


#: minimum tile size of the blocked factors — tiny bandwidths still get
#: BLAS-sized tiles
MIN_BLOCK = 16


def tile_size(n: int, band: int) -> int:
    """Tile size ``nb`` of the blocked banded factor of an ``n x n`` matrix
    with half-bandwidth ``band >= 1`` — the one tile rule of both factors
    (:class:`BandedCholeskyFactor` and a banded
    :class:`~repro.batch.linalg.BatchCholeskyFactor`).

    Tiles are ``max(band, MIN_BLOCK)`` wide, except when ``n`` fits in two of
    them: two tiles already hold the whole lower triangle (``D_0``, ``C_0``,
    ``D_1``), so banding skips nothing there and would only pad to ``2 nb``
    and double the LAPACK calls — the matrix is then one tile of ``n``.
    The flop meters count the banded algorithm either way.
    """
    nb = max(band, MIN_BLOCK)
    return max(n, 1) if n <= 2 * nb else nb


def block_cholesky(M: np.ndarray, reg: float = 0.0) -> np.ndarray:
    """Inverse Cholesky factors ``L_k^-1`` of a ``(K, s, s)`` SPD stack.

    The block-diagonal factor, defined once: one :func:`cholesky_tiles` and
    one :func:`tril_inverse` call over the whole stack (``reg`` added to
    every diagonal), no sweep.  ``1 x 1`` blocks — a diagonal matrix — take
    ``1 / sqrt`` elementwise, the values ``potrf`` and the LU inverse would
    return.  Raises :class:`SolverError` naming the first block that is not
    positive definite or whose inverse overflowed, so a retry ladder
    escalates instead of solving on garbage.
    """
    if M.shape[-1] == 1:
        d = M[:, 0, 0] + reg
        bad = ~(d > 0.0) | ~np.isfinite(d)
        if bad.any():
            raise SolverError(
                f"block cholesky (block {int(np.argmax(bad))}): "
                "block is not positive definite"
            )
        return (1.0 / np.sqrt(d))[:, None, None]
    L, ok = cholesky_tiles(M + reg * np.eye(M.shape[-1]))
    if not ok.all():
        raise SolverError(
            f"block cholesky (block {int(np.argmin(ok))}): "
            "block is not positive definite"
        )
    Linv = tril_inverse(L)
    if not np.all(np.isfinite(Linv)):
        raise SolverError("block cholesky: factor blocks overflowed")
    return Linv


class BandedCholeskyFactor:
    """Banded Cholesky factorization preprocessed for fast repeated solves.

    The triangular factor of a matrix with half-bandwidth ``band`` is block
    lower-*bidiagonal* for any block size ``nb >= band`` (:func:`tile_size`
    picks it: ``max(band, MIN_BLOCK)``, or one tile of ``n`` when ``n`` fits
    in two), so the
    factorization and the triangular solves can be expressed over dense
    ``nb x nb`` tiles: one small Cholesky + one tile solve per block column
    to factorize, and two mat-muls per block row to apply ``L^{-1}`` /
    ``L^{-T}``.  The inverses of the diagonal triangular tiles are
    precomputed once, so every subsequent :meth:`solve` costs ``~n / nb``
    BLAS calls instead of ``n`` interpreted rows — this is what makes the
    ``O(n band^2)`` asymptotics of the banded path a *wall-clock* win inside
    the QP interior-point loop, where one factorization is reused for the
    predictor, the corrector and the Schur-complement right-hand sides.

    The computed factor is the banded Cholesky factor (unique for SPD
    input); entries beyond the bandwidth are exact zeros up to roundoff.
    Each tile is factored by :func:`cholesky_tiles` and inverted by
    :func:`tril_inverse` — the kernels a host
    :class:`~repro.batch.linalg.BatchCholeskyFactor` lane runs, so the
    tiles are bit-identical to that lane's at the same ``nb``.

    A block-diagonal matrix is given instead as the ``(K, s, s)`` stack of
    its diagonal blocks (how :func:`repro.mpc.qp.solve_qp` hands over the
    stage blocks of ``Phi``).  Its factor is :func:`block_cholesky`'s
    inverse stack — no sweep, no ``C`` tiles — and :meth:`forward` /
    :meth:`backward` / :meth:`solve` take right-hand sides in the same
    block layout, ``(K, s)`` or ``(K, s, q)``.

    Args:
        B: symmetric positive-definite matrix in :func:`to_banded` storage,
            or the ``(K, s, s)`` diagonal blocks of a block-diagonal one.
        reg: diagonal regularization added before factorization.

    Raises:
        SolverError: if a tile is not positive definite (the matrix, after
            regularization, is not), or if any ``D`` / ``D⁻¹`` / ``C`` tile
            comes out non-finite — overflow past the pivot checks, the
            batched factor's ``tiles_ok`` certificate — so the retry ladder
            escalates instead of solving on garbage.
    """

    def __init__(self, B: np.ndarray, reg: float = 0.0):
        B = np.asarray(B, dtype=float)
        self._diag = self._C = None
        if B.ndim == 3:
            self.K, self.nb = B.shape[0], B.shape[-1]
            self._Dinv = block_cholesky(B, reg)
            return
        self.band = B.shape[0] - 1
        self.n = int(B.shape[1])
        n, band = self.n, self.band

        if band == 0:
            # Diagonal matrix: the factor is elementwise sqrt.
            d = B[0] + reg
            if n and (np.min(d) <= 0.0 or not np.all(np.isfinite(d))):
                j = int(np.argmin(d))
                raise SolverError(
                    f"banded cholesky pivot {j} is non-positive ({d[j]:.3e})"
                )
            self._diag = np.sqrt(d)
            self.nb = 1
            return

        nb = self.nb = tile_size(n, band)
        K = max(1, -(-n // nb))
        npad = K * nb
        # Dense padded copy of the symmetric matrix; the pad is an identity
        # block, whose factor is itself and whose solves are no-ops.
        A = np.zeros((npad, npad))
        idx = np.arange(n)
        A[idx, idx] = B[0] + reg
        for d in range(1, band + 1):
            i = np.arange(n - d)
            A[i + d, i] = B[d, : n - d]
            A[i, i + d] = B[d, : n - d]
        pad = np.arange(n, npad)
        A[pad, pad] = 1.0

        # Block lower-bidiagonal factorization:
        #   L[k,k]   = chol(A[k,k] - C[k-1] C[k-1]^T)
        #   C[k]     = L[k+1,k] = A[k+1,k] inv(L[k,k])^T
        D = np.empty((K, nb, nb))  # diagonal tiles of L
        Dinv = np.empty((K, nb, nb))  # their inverses
        C = np.empty((max(K - 1, 0), nb, nb))  # subdiagonal tiles of L
        M = A[:nb, :nb]
        for k in range(K):
            Lkk, ok = cholesky_tiles(M)
            if not ok:
                raise SolverError(
                    f"banded cholesky (block {k}): tile is not positive definite"
                )
            D[k] = Lkk
            Dinv[k] = tril_inverse(Lkk)
            if k + 1 < K:
                s = (k + 1) * nb
                E = A[s : s + nb, s - nb : s]
                Ck = E @ Dinv[k].T
                C[k] = Ck
                M = A[s : s + nb, s : s + nb] - Ck @ Ck.T
        # ok certified D; overflow can still slip into D⁻¹ (a tiny pivot)
        # and from there into C.
        if not (np.all(np.isfinite(Dinv)) and np.all(np.isfinite(C))):
            raise SolverError("banded cholesky: factor tiles overflowed")
        self.K = K
        self.npad = npad
        self._D = D
        self._Dinv = Dinv
        self._C = C

    # -- triangular applications --------------------------------------------------
    def _blocks(self, b: np.ndarray) -> Tuple[np.ndarray, bool]:
        b = np.asarray(b, dtype=float)
        squeeze = b.ndim == 1
        if squeeze:
            b = b[:, None]
        if b.shape[0] != self.n:
            raise SolverError(
                f"right-hand side has {b.shape[0]} rows, expected {self.n}"
            )
        return b, squeeze

    def forward(self, b: np.ndarray) -> np.ndarray:
        """Solve ``L y = b``."""
        if self._diag is not None:
            b = np.asarray(b, dtype=float)
            return (b.T / self._diag).T
        if self._C is None:
            return _block_apply(self._Dinv, b)
        b, squeeze = self._blocks(b)
        y = np.zeros((self.npad, b.shape[1]))
        y[: self.n] = b
        nb = self.nb
        for k in range(self.K):
            s = k * nb
            blk = y[s : s + nb]
            if k:
                blk = blk - self._C[k - 1] @ y[s - nb : s]
            y[s : s + nb] = self._Dinv[k] @ blk
        y = y[: self.n]
        return y[:, 0] if squeeze else y

    def backward(self, b: np.ndarray) -> np.ndarray:
        """Solve ``L^T x = b``."""
        if self._diag is not None:
            b = np.asarray(b, dtype=float)
            return (b.T / self._diag).T
        if self._C is None:
            return _block_apply(np.swapaxes(self._Dinv, 1, 2), b)
        b, squeeze = self._blocks(b)
        x = np.zeros((self.npad, b.shape[1]))
        x[: self.n] = b
        nb = self.nb
        for k in range(self.K - 1, -1, -1):
            s = k * nb
            blk = x[s : s + nb]
            if k + 1 < self.K:
                blk = blk - self._C[k].T @ x[s + nb : s + 2 * nb]
            x[s : s + nb] = self._Dinv[k].T @ blk
        x = x[: self.n]
        return x[:, 0] if squeeze else x

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``(L L^T) x = b``."""
        return self.backward(self.forward(b))


def _block_apply(M: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``M_k @ b_k`` for every block of a ``(K, s)`` or ``(K, s, q)`` stack."""
    if b.ndim == 3:
        return np.matmul(M, b)
    return np.matmul(M, b[:, :, None])[:, :, 0]


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

    Mirrors the banded algorithm above (only in-window terms are counted —
    the masked out-of-band gather entries are structural zeros, not flops):
    ``O(n band^2)`` multiply-adds instead of the dense ``~n^3 / 3``.
    """
    mul, div = _banded_cholesky_counts(int(n), int(band))
    return {"mul": mul, "add": mul, "div": div, "sqrt": n}


def flop_counts_banded_substitution(
    n: int, band: int, nrhs: int = 1
) -> Dict[str, int]:
    """Primitive-op counts of one banded triangular solve (``nrhs`` RHS)."""
    window = _banded_window_sum(int(n), int(band))
    return {"mul": nrhs * window, "add": nrhs * window, "div": nrhs * n}
