"""Batched banded Cholesky factorization over ``(B, n, n)`` stacks.

This is the lane-parallel twin of :mod:`repro.mpc.banded`: the same
blocked bidiagonal factorization (diagonal tiles ``D_k`` and sub-diagonal
couplings ``C_k``), but with a leading batch axis so one sweep factors
``B`` independent KKT systems at once.  The couplings and substitutions
run as batched ``matmul`` contractions through the
:mod:`~repro.batch.backend` seam (``xp``), so the same sweep runs on
numpy, cupy, or torch arrays without touching this file.

The diagonal tiles are where the backend decides.  On host backends each
``(B, nb, nb)`` tile stack is factored and inverted by the scalar twin's
tile kernels, :func:`repro.mpc.banded.cholesky_tiles` and
:func:`~repro.mpc.banded.tril_inverse`: one stacked LAPACK call each
(``potrf``, then an LU inverse, per matrix), so a host lane holds the very
tiles the scalar factor computes for its matrix.  LAPACK gufuncs cannot
take device arrays, so backends that report ``is_device`` run the
seam-pure column sweep (:func:`_cholesky_tiles`,
:func:`_triangular_inverse`) instead — no host round-trip, one ``einsum``
per column.  No option selects between them.

Storage is tile-only: the factorization keeps the ``(B, K, nb, nb)``
``D``/``D⁻¹``/``C`` tile stacks and indexes the input ``A`` block-wise as
it sweeps.  It never materializes a padded ``(B, npad, npad)`` copy of
``A`` — in banded mode that copy was the memory wall (at B=4096 on the
Quadrotor N=30 problem it dwarfed the tiles it was scaffolding for).

``band`` is a promise, and it picks the tiling.  ``band=None`` is one
dense tile; ``band > 0`` is tiles of ``max(band, MIN_BLOCK)``; ``band=0``
— a diagonal matrix, which is what ``Φ = H + JᵀWJ`` is for any problem
with diagonal penalties and box constraints — is the ``nb=1`` tiling: ``n``
independent 1x1 tiles whose couplings ``C_k`` are identically zero, so
the tile axis needs no sweep at all.  The factor is then ``sqrt`` of the
diagonal and every substitution one broadcast multiply by the stored
reciprocal pivots; entry by entry that is what either tile kernel computes
on a diagonal tile — the column sweep's inner products are sums of exact
zeros, ``potrf`` takes ``sqrt(a - 0)`` and the LU inverse ``1 / piv`` — so
the lane is bit-identical to the tile factor on every backend, just
without its ``K`` tile steps.  It is stored as tiles all the same (``_D``/``_Dinv`` of shape
``(B, n, 1, 1)``, ``_C`` empty), so the retry ladder's scatter and the
flop meters need no second branch.  Like the scalar twin's
``to_banded(A, band)``, a factor never reads values outside the band it
was promised: ``band=0`` reads the diagonal only.  (With ``band > 0`` a
``MIN_BLOCK`` tile happens to cover in-tile entries a too-small hint
excludes — an accident of the tiling, not part of the contract.  The one
whole-matrix read is the finiteness guard: a NaN anywhere in a lane's
input fails that lane, at every band.)

Failure semantics differ from the scalar path by design.  The scalar
:class:`~repro.mpc.banded.BandedCholeskyFactor` raises
:class:`~repro.errors.SolverError` where a tile fails; in a batch a
single bad lane must not poison its neighbours, so the batched factor
never raises on pivot failure.  Instead each lane carries an ``ok`` flag:
a failed lane gets a safe placeholder (the identity tile on host, a unit
pivot in the sweep; its factors are garbage and must be discarded by the
caller), while every other lane's arithmetic is untouched — all
operations are lane-diagonal, and a stack LAPACK rejects is re-run tile
by tile, so no information crosses the batch axis.  A lane whose factor
tiles come out non-finite (overflow slipping past the pivot checks) is
flagged the same way — the scalar factor raises on the same certificate:
``ok`` certifies finite, positive-definite factors, never silent garbage.
Floating-point warnings are **not** blanket-suppressed: failed lanes'
operands are bounded placeholders (so they cannot warn), and
a genuine overflow in a *healthy* lane is allowed to surface — solves on
an already-degraded factor are the one place warnings are muted, and only
when a flagged lane is actually present.  :func:`robust_factor_batch`
wraps this with the same escalating-regularization retry ladder as
``repro.mpc.qp._robust_factor``, re-factoring only the failed lanes on
each attempt; the mute is decided from the ladder's *final* ``ok``, so a
batch whose bad lanes were all repaired is audible again.
"""

from __future__ import annotations

from contextlib import nullcontext
from functools import partial
from typing import Optional, Tuple

from repro.errors import SolverError
from repro.mpc import banded
from repro.mpc.banded import (
    flop_counts_banded_cholesky,
    flop_counts_banded_substitution,
)
from repro.mpc.linalg import flop_counts_cholesky, flop_counts_substitution

from .backend import ArrayBackend, get_backend

__all__ = ["BatchCholeskyFactor", "robust_factor_batch"]


def _cholesky_tiles(xp: ArrayBackend, M):
    """Batched dense Cholesky of a ``(B, m, m)`` tile stack — the device
    backends' column sweep (host backends call
    :func:`repro.mpc.banded.cholesky_tiles`).

    Returns ``(L, ok)`` where lanes with a non-positive or non-finite
    pivot are flagged ``ok=False`` and continue with a placeholder pivot
    of 1.0 so the remaining lanes factor normally.  Sub-diagonal columns
    of lanes already flagged are zeroed as they are produced: their
    factors are discarded garbage either way, and bounded placeholders
    keep failed lanes from emitting the floating-point warnings that
    belong to healthy-lane overflow alone.
    """
    lanes, m = int(M.shape[0]), int(M.shape[1])
    L = xp.zeros_like(M)
    ok = xp.ones((lanes,), dtype="bool")
    for j in range(m):
        row = L[:, j, :j]
        acc = M[:, j, j] - xp.einsum("bk,bk->b", row, row)
        good = xp.isfinite(acc) & (acc > 0.0)
        ok = ok & good
        piv = xp.sqrt(xp.where(good, acc, 1.0))
        L[:, j, j] = piv
        if j + 1 < m:
            below = M[:, j + 1 :, j] - xp.einsum(
                "bik,bk->bi", L[:, j + 1 :, :j], row
            )
            below = xp.where(ok[:, None], below, 0.0)
            L[:, j + 1 :, j] = below / piv[:, None]
    return L, ok


def _triangular_inverse(xp: ArrayBackend, L):
    """Batched inverse of lower-triangular ``(B, m, m)`` tiles via forward
    substitution — the device backends' sweep (host backends call
    :func:`repro.mpc.banded.tril_inverse`).

    Row ``i`` of the inverse is nonzero only on columns ``0..i``, so the
    substitution contracts over the filled ``(:i, :i)`` prefix alone —
    no identity matrix is materialized (this runs K times per factor,
    per interior-point iteration) and no zero-padded columns are swept.
    """
    lanes, m = int(L.shape[0]), int(L.shape[1])
    X = xp.zeros_like(L)
    for i in range(m):
        piv = L[:, i, i]
        if i:
            r = 0.0 - xp.einsum("bk,bkc->bc", L[:, i, :i], X[:, :i, :i])
            X[:, i, :i] = r / piv[:, None]
        X[:, i, i] = 1.0 / piv
    return X


class BatchCholeskyFactor:
    """Blocked Cholesky factorization of ``B`` banded SPD systems at once.

    Parameters
    ----------
    A : (B, n, n) array
        Stack of symmetric positive-definite matrices sharing one sparsity
        envelope (same ``band`` for every lane).
    band : int or None
        Half bandwidth shared by all lanes — a promise by the caller:
        entries beyond it are taken to be zero and are not read (clamped
        to ``n - 1``).  ``None`` selects a single dense block (the batched
        equivalent of a dense factorization); ``0`` selects the diagonal
        lane (``nb=1``: elementwise ``sqrt``, substitutions are one
        multiply by the stored reciprocals), exactly as the scalar
        ``BandedCholeskyFactor(to_banded(A, 0))`` reads ``diag(A)`` alone.
    reg : float or (B,) array
        Diagonal regularization, scalar or per-lane.
    backend : str or ArrayBackend, optional
        The array namespace to factor under (default: the process-wide
        selection, see :func:`repro.batch.backend.get_backend`).

    Lanes whose matrix is non-finite, loses positive definiteness, or
    overflows into non-finite factor tiles are flagged in :attr:`ok`;
    their factor tiles are placeholders and any ``solve`` output for
    those lanes is meaningless.
    """

    MIN_BLOCK = 16

    def __init__(
        self,
        A,
        band: Optional[int] = None,
        reg=0.0,
        backend=None,
    ) -> None:
        xp = self.xp = get_backend(backend)
        A = xp.asarray(A)
        if A.ndim != 3 or A.shape[1] != A.shape[2]:
            raise SolverError(
                f"expected a (B, n, n) stack, got shape {tuple(A.shape)}"
            )
        self.lanes, self.n = int(A.shape[0]), int(A.shape[1])
        self.band = None if band is None else int(min(int(band), max(self.n - 1, 0)))
        reg_vec = xp.copy(xp.broadcast_to(xp.asarray(reg), (self.lanes,)))
        self.reg = reg_vec

        finite = xp.all(xp.isfinite(A), axis=(1, 2))
        self.ok = xp.copy(finite)
        reg_fill = xp.where(finite, reg_vec, 0.0)[:, None]
        self._diagonal = self.band == 0 and self.n > 0
        if self._diagonal:
            self._factor_diagonal(A, finite, reg_fill)
        else:
            self._factor_tiles(A, finite, reg_fill)
        self._refresh_suppress()

    def _factor_diagonal(self, A, finite, reg_fill) -> None:
        """The ``nb=1`` tiling: ``n`` independent 1x1 tiles whose couplings
        are identically zero, so the tile axis needs no sweep.  Entry by
        entry this is what either tile kernel computes on a diagonal
        tile (``sqrt(a)`` and ``1 / piv``, every inner product an exact
        zero), hence bit-identical to the tile factor of a diagonal
        matrix."""
        xp, n = self.xp, self.n
        self.nb, self.K, self.npad = 1, n, n
        dd = xp.arange(n)
        # Non-finite lanes factor the identity (bounded placeholders);
        # their ok flag is already off.
        d = xp.where(finite[:, None], A[:, dd, dd], 1.0) + reg_fill
        good = xp.isfinite(d) & (d > 0.0)
        piv = xp.sqrt(xp.where(good, d, 1.0))
        inv = 1.0 / piv
        self._D = piv[:, :, None, None]
        self._Dinv = inv[:, :, None, None]
        self._C = xp.empty((self.lanes, 0, 1, 1))
        self.ok = (
            self.ok
            & xp.all(good, axis=1)
            & xp.all(xp.isfinite(inv), axis=1)
        )

    def _factor_tiles(self, A, finite, reg_fill) -> None:
        """The blocked bidiagonal sweep over ``nb x nb`` tiles (dense:
        one tile; banded: ``nb = max(band, MIN_BLOCK)``); the tile kernels
        are LAPACK on host backends and the column sweep on devices."""
        xp, n, lanes = self.xp, self.n, self.lanes
        if self.band is None:
            nb = max(n, 1)
        else:
            nb = min(max(self.band, self.MIN_BLOCK), max(n, 1))
        K = max(1, -(-n // nb))
        npad = K * nb
        self.nb, self.K, self.npad = nb, K, npad
        eye_nb = xp.eye(nb)

        def diag_tile(k: int):
            """Block ``(k, k)`` of the padded, regularized matrix — built
            from ``A`` directly, never from a dense padded copy."""
            s = k * nb
            e = min(s + nb, n)
            w = e - s
            if w == nb:
                T = xp.copy(A[:, s:e, s:e])
            else:
                T = xp.zeros((lanes, nb, nb))
                T[:, :w, :w] = A[:, s:e, s:e]
                pad = xp.arange(w, nb)
                T[:, pad, pad] = 1.0
            # Non-finite lanes get the identity tile so their (discarded)
            # factors stay bounded; their ok flag is already off.
            T = xp.where(finite[:, None, None], T, eye_nb)
            dd = xp.arange(w)
            T[:, dd, dd] = T[:, dd, dd] + reg_fill
            return T

        def sub_tile(k: int):
            """Block ``(k+1, k)`` — the sub-diagonal coupling ``E_k``."""
            s = (k + 1) * nb
            e = min(s + nb, n)
            w = e - s
            if w == nb:
                E = A[:, s:e, s - nb : s]
            else:
                E = xp.zeros((lanes, nb, nb))
                E[:, :w, :] = A[:, s:e, s - nb : s]
            return xp.where(finite[:, None, None], E, 0.0)

        if xp.is_device:
            factor = partial(_cholesky_tiles, xp)
            invert = partial(_triangular_inverse, xp)
        else:
            # read through the module: the scalar factor's kernels, at
            # their one definition
            factor, invert = banded.cholesky_tiles, banded.tril_inverse

        D = xp.empty((lanes, K, nb, nb))
        Dinv = xp.empty((lanes, K, nb, nb))
        C = xp.empty((lanes, max(K - 1, 0), nb, nb))
        M = diag_tile(0)
        for k in range(K):
            Lkk, okk = factor(M)
            self.ok = self.ok & okk
            D[:, k] = Lkk
            Dinv[:, k] = invert(Lkk)
            if k + 1 < K:
                Ck = xp.matmul(sub_tile(k), xp.transpose_last2(Dinv[:, k]))
                C[:, k] = Ck
                M = diag_tile(k + 1) - xp.matmul(Ck, xp.transpose_last2(Ck))
        self._D, self._Dinv, self._C = D, Dinv, C

        # Overflow during the sweep can slip past the pivot checks (e.g. a
        # tiny pivot inflating D⁻¹ past the float ceiling in the final
        # block, where no later pivot re-checks it).  ok certifies finite
        # factors — garbage must freeze the lane, never solve silently.
        tiles_ok = xp.all(xp.isfinite(D), axis=(1, 2, 3)) & xp.all(
            xp.isfinite(Dinv), axis=(1, 2, 3)
        )
        if K > 1:
            tiles_ok = tiles_ok & xp.all(xp.isfinite(C), axis=(1, 2, 3))
        self.ok = self.ok & tiles_ok

    def _refresh_suppress(self) -> None:
        """Solves on a batch with flagged lanes run the flagged lanes'
        placeholder tiles too; mute warnings then (and only then) — on
        an all-healthy batch, overflow in a solve must stay audible."""
        xp = self.xp
        self._suppress = (not xp.is_device) and not bool(
            xp.scalar(xp.all(self.ok))
        )

    # -- solves -----------------------------------------------------------

    @property
    def banded(self) -> bool:
        return self.band is not None

    def _errstate(self):
        return self.xp.errstate() if self._suppress else nullcontext()

    def _prep_rhs(self, b):
        xp = self.xp
        b = xp.asarray(b)
        squeeze = b.ndim == 2
        if squeeze:
            b = b[:, :, None]
        if b.ndim != 3 or b.shape[0] != self.lanes or b.shape[1] != self.n:
            raise SolverError(
                f"rhs shape {tuple(b.shape)} incompatible with "
                f"({self.lanes}, {self.n})"
            )
        return b, squeeze

    def _scale(self, b):
        """``L⁻¹ b`` = ``L⁻ᵀ b`` on the diagonal lane: one broadcast
        multiply by the stored reciprocal pivots (what the tile matmuls
        compute there, minus the products with exact zeros)."""
        b3, squeeze = self._prep_rhs(b)
        with self._errstate():
            out = self._Dinv[:, :, 0] * b3
        return out[:, :, 0] if squeeze else out

    def forward(self, b):
        if self._diagonal:
            return self._scale(b)
        xp = self.xp
        b3, squeeze = self._prep_rhs(b)
        y = xp.zeros((self.lanes, self.npad, int(b3.shape[2])))
        y[:, : self.n] = b3
        nb = self.nb
        with self._errstate():
            for k in range(self.K):
                s = k * nb
                blk = y[:, s : s + nb]
                if k:
                    blk = blk - xp.matmul(self._C[:, k - 1], y[:, s - nb : s])
                y[:, s : s + nb] = xp.matmul(self._Dinv[:, k], blk)
        out = y[:, : self.n]
        return out[:, :, 0] if squeeze else out

    def backward(self, b):
        if self._diagonal:
            return self._scale(b)
        xp = self.xp
        b3, squeeze = self._prep_rhs(b)
        x = xp.zeros((self.lanes, self.npad, int(b3.shape[2])))
        x[:, : self.n] = b3
        nb = self.nb
        with self._errstate():
            for k in range(self.K - 1, -1, -1):
                s = k * nb
                blk = x[:, s : s + nb]
                if k + 1 < self.K:
                    blk = blk - xp.matmul(
                        xp.transpose_last2(self._C[:, k]),
                        x[:, s + nb : s + 2 * nb],
                    )
                x[:, s : s + nb] = xp.matmul(
                    xp.transpose_last2(self._Dinv[:, k]), blk
                )
        out = x[:, : self.n]
        return out[:, :, 0] if squeeze else out

    def solve(self, b):
        """Solve ``A_i x_i = b_i`` for every lane ``i`` in one sweep."""
        return self.backward(self.forward(b))

    # -- flop meters (per lane; every lane shares one structure) ----------

    def factor_flops(self) -> int:
        """Flops one lane's factorization would cost on the scalar path."""
        if self.band is not None:
            counts = flop_counts_banded_cholesky(self.n, self.band)
        else:
            counts = flop_counts_cholesky(self.n)
        return int(sum(counts.values()))

    def solve_flops(self, nrhs: int = 1) -> int:
        """Flops one lane's forward+backward substitution costs."""
        if self.band is not None:
            counts = flop_counts_banded_substitution(self.n, self.band, nrhs)
        else:
            counts = flop_counts_substitution(self.n, nrhs)
        return 2 * int(sum(counts.values()))


def robust_factor_batch(
    A,
    reg: float,
    band: Optional[int] = None,
    attempts: int = 16,
    backend=None,
    active=None,
):
    """Factor a batch with the per-lane escalating-regularization ladder.

    Mirrors ``repro.mpc.qp._robust_factor``: on a failed lane the
    regularization escalates as ``max(reg * 100, 1e-12)`` and only the
    failed lanes are re-factored (their tiles are scattered back into the
    full-batch factor, so already-healthy lanes keep bit-identical
    factors).  Lanes with non-finite input fail immediately and are never
    retried, matching the scalar fail-fast guard; ``active=False`` lanes
    (a masked lockstep caller's frozen lanes) are likewise never retried.

    The ladder's early exit reads one scalar per attempt, so device-mode
    callers that must stay sync-free pass ``attempts=1`` — a single
    factorization sweep with no retry and therefore no host round-trip
    (the lockstep deviation documented in :mod:`repro.batch.qp`).

    Returns ``(factor, reg_used, retries)``; lanes still failing after
    ``attempts`` tries are left with ``factor.ok == False`` for the caller
    to freeze out, instead of raising like the scalar path.
    """
    xp = get_backend(backend)
    A = xp.asarray(A)
    lanes = int(A.shape[0])
    current = xp.full((lanes,), float(reg))
    retries = xp.zeros((lanes,), dtype="int")
    factor = BatchCholeskyFactor(A, band=band, reg=current, backend=xp)
    hopeless = ~xp.all(xp.isfinite(A), axis=(1, 2))
    if active is not None:
        hopeless = hopeless | ~active
    for _ in range(attempts - 1):
        failed = ~factor.ok & ~hopeless
        if not bool(xp.scalar(xp.any(failed))):
            break
        retries[failed] = retries[failed] + 1
        current[failed] = xp.maximum(current[failed] * 100.0, 1e-12)
        sub = BatchCholeskyFactor(
            A[failed], band=band, reg=current[failed], backend=xp
        )
        factor._D[failed] = sub._D
        factor._Dinv[failed] = sub._Dinv
        if factor._C.shape[1]:
            factor._C[failed] = sub._C
        factor.ok[failed] = sub.ok
        factor.reg[failed] = sub.reg
        # Re-read from the merged ok, not OR-ed over the attempts: a batch
        # the ladder fully repaired is healthy again and must stay audible.
        factor._refresh_suppress()
    return factor, current, retries
