"""Batched banded Cholesky factorization over ``(B, n, n)`` stacks.

This is the one blocked Cholesky of the repo: a blocked bidiagonal
factorization (diagonal tiles ``D_k`` and sub-diagonal couplings ``C_k``)
with a leading batch axis, so one sweep factors ``B`` independent KKT
systems at once; a single QP (:func:`repro.mpc.qp.solve_qp`) is its
one-lane call.  The couplings and substitutions run as batched ``matmul``
contractions through the :mod:`~repro.batch.backend` seam (``xp``), so the
same sweep runs on numpy or torch arrays without touching this file.

The diagonal tiles are where the backend decides.  On host backends each
``(B, nb, nb)`` tile stack is factored and inverted by the host tile
kernels, :func:`repro.batch.host.cholesky_tiles` and
:func:`~repro.batch.host.tril_inverse`: one stacked LAPACK call each
(``potrf``, then an LU inverse, per matrix), so a lane's tiles do not
depend on its lane-mates — lane ``i`` of a batch is the one-lane factor of
its matrix, bit for bit.  LAPACK gufuncs cannot
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
dense tile; ``band > 0`` is the tiling of
:func:`repro.batch.host.tile_size`: tiles of ``max(band, MIN_BLOCK)``
(``MIN_BLOCK = 32``: at one lane a tile step costs its numpy calls, not
its flops), or one tile of ``n`` when ``n`` fits in two (two tiles
already hold the whole lower triangle, so banding would skip nothing and
only pad).  On host backends a sweep whose lanes are all finite skips the
per-tile re-sanitizing (a ``where`` that would copy each tile unchanged).
*Block mode* is a block-diagonal matrix
handed over as the ``(B, K, s, s)`` stack of its diagonal blocks — how
:func:`repro.batch.qp.solve_qp_batch` hands over ``Φ``'s stage blocks —
and factors all ``B·K`` blocks with one tile-kernel call and inverts them
with one more, no sweep and no ``C`` tiles; its solves take right-hand sides in the same
block layout.  Given ``parts`` (the stage step's
:attr:`repro.batch.host._StageLayout.parts`: each tile's coupling components,
grouped by width) block mode factors the components instead, one
tile-kernel call and one inverse per width and ``1 x 1`` components by
their pivots, and writes ``D`` / ``D⁻¹`` tiles that are zero off the
components — the tiles' own factor to roundoff, since a component
ordered ascending takes no fill from the others — so the solves are
unchanged.  Like ``band``, ``parts`` is a promise: entries off the
components are not read.  ``band=0`` — a diagonal
matrix, which is what ``Φ = H + JᵀWJ`` is for any problem with diagonal
penalties and box constraints — is block mode with ``s = 1``: ``n``
blocks of ``1 x 1``, the factor ``sqrt`` of the diagonal and every
substitution one broadcast multiply by the stored reciprocal pivots.
Entry by entry that is what either tile kernel computes on a diagonal
tile — the column sweep's inner products are sums of exact zeros,
``potrf`` takes ``sqrt(a - 0)`` and the LU inverse ``1 / piv`` — so it is
bit-identical to the tile factor of a diagonal matrix on every backend,
and it keeps the row layout ``(B, n[, q])`` of a ``(B, n, n)`` input.
Block mode is stored as tiles all the same (``_D``/``_Dinv`` of shape
``(B, K, s, s)``, ``_C`` empty), so the retry ladder's scatter needs no
second branch; ``ok`` is per lane, over all of a lane's blocks.  A
factor never reads values outside the band it was promised: ``band=0`` reads the diagonal only.  (With
``band > 0`` a tile happens to cover in-tile entries a too-small hint
excludes — an accident of the tiling, not part of the contract.  The one
whole-matrix read is the finiteness guard: a NaN anywhere in a lane's
input fails that lane, at every band.)

A single bad lane must not poison its neighbours, so the factor never
raises on pivot failure.  Instead each lane carries an ``ok`` flag:
a failed lane gets a safe placeholder (the identity tile on host, a unit
pivot in the sweep; its factors are garbage and must be discarded by the
caller), while every other lane's arithmetic is untouched — all
operations are lane-diagonal, and a stack LAPACK rejects is re-run tile
by tile, so no information crosses the batch axis.  A lane whose factor
tiles come out non-finite (overflow slipping past the pivot checks) is
flagged the same way: ``ok`` certifies finite, positive-definite factors,
never silent garbage.  Floating-point warnings are **not** blanket-suppressed: failed lanes'
operands are bounded placeholders (so they cannot warn), and
a genuine overflow in a *healthy* lane is allowed to surface — solves on
an already-degraded factor are the one place warnings are muted, and only
when a flagged lane is actually present.  :func:`robust_factor_batch`
wraps this with the escalating-regularization retry ladder (``reg``
raised x100 per failed attempt, 16 attempts on host), re-factoring only
the failed lanes on each attempt; the mute is decided from the ladder's
*final* ``ok``, so a batch whose bad lanes were all repaired is audible again.  (On host the
ladder's first question is that mute's: one read of ``all(ok)`` decides
both.)  :func:`robust_diag_factor_batch` runs the same ladder
(:func:`_retry_ladder`, the one copy of the retry policy) on a diagonal
matrix handed over as its ``(B, n)`` diagonal — the lockstep QP loop's
diagonal ``Φ`` — computed in place, with no factor object: it returns the
reciprocal pivots the ``band=0`` factor would store.  The ``band=0`` row
mode itself stays for a ``(B, n, n)`` caller, such as a Schur complement
whose structural band is 0.
"""

from __future__ import annotations

from contextlib import nullcontext
from functools import partial
from typing import Optional, Tuple

from repro.errors import SolverError

from . import host
from .backend import ArrayBackend, get_backend
from .host import (
    flop_counts_banded_cholesky,
    flop_counts_banded_substitution,
    flop_counts_cholesky,
    flop_counts_substitution,
    tile_size,
)

__all__ = [
    "BatchCholeskyFactor",
    "OracleCholeskyFactor",
    "robust_factor_batch",
    "robust_diag_factor_batch",
]

#: factorization attempts of the host retry ladder (device callers pass 1)
LADDER_ATTEMPTS = 16


def _escalate(xp: ArrayBackend, reg):
    """The ladder's next regularization: ``max(reg * 100, 1e-12)``."""
    return xp.maximum(reg * 100.0, 1e-12)


def _diag_pivots(xp: ArrayBackend, d, finite, reg_fill):
    """Pivots ``sqrt(d + reg)`` of ``(B, n)`` diagonals, their reciprocals
    and a per-lane ``ok`` — the values either tile kernel computes on a
    ``1 x 1`` tile.  Lanes with ``finite`` off factor the identity and
    entries that are not positive a unit pivot (bounded placeholders)."""
    d = xp.where(finite[:, None], d, 1.0) + reg_fill[:, None]
    good = xp.isfinite(d) & (d > 0.0)
    piv = xp.sqrt(xp.where(good, d, 1.0))
    inv = 1.0 / piv
    return piv, inv, xp.all(good, axis=1) & xp.all(xp.isfinite(inv), axis=1)


def _factor_stack(xp: ArrayBackend, M, finite, reg_fill):
    """``(L, L^-1, ok)`` of a ``(B, c, w, w)`` stack of SPD tiles, ``ok``
    per lane over its ``c`` tiles: one tile-kernel call and one inverse
    (LAPACK on host, the column sweep on devices), or ``w = 1``'s
    :func:`_diag_pivots`, the values either kernel computes on a ``1 x 1``
    tile.  Lanes with ``finite`` off factor the identity."""
    lanes, c, w = int(M.shape[0]), int(M.shape[1]), int(M.shape[3])
    if w == 1:
        piv, inv, ok = _diag_pivots(xp, M[:, :, 0, 0], finite, reg_fill)
        return piv[:, :, None, None], inv[:, :, None, None], ok
    T = xp.where(finite[:, None, None, None], M, xp.eye(w))
    dd = xp.arange(w)
    T[:, :, dd, dd] = T[:, :, dd, dd] + reg_fill[:, None, None]
    flat = xp.reshape(T, (lanes * c, w, w))
    if xp.is_device:
        L, ok_t = _cholesky_tiles(xp, flat)
        Linv = _triangular_inverse(xp, L)
    else:
        L, ok_t = host.cholesky_tiles(flat)
        Linv = host.tril_inverse(L)
    L = xp.reshape(L, (lanes, c, w, w))
    Linv = xp.reshape(Linv, (lanes, c, w, w))
    ok = xp.all(xp.reshape(ok_t, (lanes, c)), axis=1) & xp.all(
        xp.isfinite(Linv), axis=(1, 2, 3)
    )
    if xp.is_device:  # a host tile's own ok already certifies its L
        ok = ok & xp.all(xp.isfinite(L), axis=(1, 2, 3))
    return L, Linv, ok


def _cholesky_tiles(xp: ArrayBackend, M):
    """Batched dense Cholesky of a ``(B, m, m)`` tile stack — the device
    backends' column sweep (host backends call
    :func:`repro.batch.host.cholesky_tiles`), and the dense oracle's on
    every backend (:class:`OracleCholeskyFactor`).

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
    :func:`repro.batch.host.tril_inverse`).

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
    A : (B, n, n) or (B, K, s, s) array
        Stack of symmetric positive-definite matrices sharing one sparsity
        envelope (same ``band`` for every lane) — or, *block mode*, the
        ``K`` diagonal blocks of ``B`` block-diagonal ones (how
        :func:`repro.batch.qp.solve_qp_batch` hands over ``Phi``'s stage
        blocks), factored as one stack with no sweep.
    band : int or None
        Half bandwidth shared by all lanes — a promise by the caller:
        entries beyond it are taken to be zero and are not read (clamped
        to ``n - 1``).  ``None`` selects a single dense block (the batched
        equivalent of a dense factorization); ``0`` selects the diagonal
        (block mode over ``n`` blocks of ``1 x 1``: elementwise ``sqrt``,
        substitutions are one multiply by the stored reciprocals), which
        reads ``diag(A)`` alone.  Ignored in block mode.
    reg : float or (B,) array
        Diagonal regularization, scalar or per-lane.
    backend : str or ArrayBackend, optional
        The array namespace to factor under (default numpy, see
        :func:`repro.batch.backend.get_backend`).
    parts : sequence of (w, index), optional
        Block mode only: the blocks' coupling components, by width ``w``,
        each ``index`` the backend int array of the flat ``K s s``
        positions of ``c`` components' ``w x w`` entries (``c w w`` of
        them, component by component, members ascending).  Every block
        index must lie in exactly one component; entries off the
        components are taken to be zero and are not read.

    Lanes whose matrix is non-finite, loses positive definiteness (in any
    of its blocks), or overflows into non-finite factor tiles are flagged
    in :attr:`ok`; their factor tiles are placeholders and any ``solve``
    output for those lanes is meaningless.  A block-mode factor takes
    right-hand sides in its block layout, ``(B, K, s)`` or ``(B, K, s, q)``;
    the ``band=0`` factor of a ``(B, n, n)`` stack keeps the row layout
    ``(B, n)`` / ``(B, n, q)``.
    """

    def __init__(
        self,
        A,
        band: Optional[int] = None,
        reg=0.0,
        backend=None,
        parts=None,
    ) -> None:
        xp = self.xp = get_backend(backend)
        A = xp.asarray(A)
        if A.ndim not in (3, 4) or A.shape[-1] != A.shape[-2]:
            raise SolverError(
                "expected a (B, n, n) or (B, K, s, s) stack, got shape "
                f"{tuple(A.shape)}"
            )
        self.lanes = int(A.shape[0])
        reg_vec = self.reg = xp.zeros((self.lanes,)) + reg  # a fresh (B,) copy

        finite = self.finite = xp.all(
            xp.isfinite(A), axis=tuple(range(1, A.ndim))
        )
        self.ok = finite  # every factor path below rebinds it, never writes
        reg_fill = xp.where(finite, reg_vec, 0.0)
        #: block mode (no sweep, no C tiles), and within it the row layout
        #: of a (B, n, n) stack factored over 1x1 blocks (band=0)
        self._block = self._rows = False
        self._parts = parts
        if A.ndim == 4:
            self._factor_blocks(A, finite, reg_fill)
            self.band = max(self.nb - 1, 0)
        else:
            self.n = int(A.shape[1])
            self.band = (
                None if band is None else int(min(int(band), max(self.n - 1, 0)))
            )
            if self.band == 0 and self.n > 0:
                dd = xp.arange(self.n)
                self._rows = True
                self._factor_blocks(
                    A[:, dd, dd][:, :, None, None], finite, reg_fill
                )
            else:
                self._factor_tiles(A, finite, reg_fill[:, None])
        self._refresh_suppress()

    def _factor_blocks(self, M, finite, reg_fill) -> None:
        """Block mode: the ``(B, K, s, s)`` stack factored by ``parts``,
        each width's components gathered into one stack, factored by one
        tile-kernel call and inverted by one more, and scattered back into
        ``D`` / ``D^-1`` tiles that are zero off the components (whose
        entries are not read).  Without ``parts`` each tile is one
        component: all ``B K`` tiles in one call."""
        xp, lanes = self.xp, self.lanes
        K, s = int(M.shape[1]), int(M.shape[3])
        self.nb, self.K = s, K
        self.n = self.npad = K * s
        self._block = True
        self._parts = parts = self._parts or ((s, xp.arange(K * s * s)),)
        flat = xp.reshape(M, (lanes, K * s * s))
        D = xp.zeros((lanes, K * s * s))
        Dinv = xp.zeros((lanes, K * s * s))
        ok = finite
        for w, index in parts:
            T = xp.reshape(
                xp.take(flat, index, axis=1),
                (lanes, int(index.shape[0]) // (w * w), w, w),
            )
            L, Linv, ok_w = _factor_stack(xp, T, finite, reg_fill)
            D[:, index] = xp.reshape(L, (lanes, -1))
            Dinv[:, index] = xp.reshape(Linv, (lanes, -1))
            ok = ok & ok_w
        D = xp.reshape(D, (lanes, K, s, s))
        Dinv = xp.reshape(Dinv, (lanes, K, s, s))
        self._D, self._Dinv = D, Dinv
        self._C = xp.empty((lanes, 0, s, s))
        self.ok = self.ok & ok

    def _factor_tiles(self, A, finite, reg_fill) -> None:
        """The blocked bidiagonal sweep over ``nb x nb`` tiles (dense:
        one tile; banded: :func:`repro.batch.host.tile_size`); the tile
        kernels are LAPACK on host backends and the column sweep on
        devices."""
        xp, n, lanes = self.xp, self.n, self.lanes
        if self.band is None:
            nb = max(n, 1)
        else:
            nb = tile_size(n, self.band)
        K = max(1, -(-n // nb))
        npad = K * nb
        self.nb, self.K, self.npad = nb, K, npad
        eye_nb = xp.eye(nb)
        on_diag = eye_nb > 0.0
        reg_fill = reg_fill[:, :, None]
        # On host, where reading it is free: with every lane finite the
        # per-tile sanitizing below would copy the tiles unchanged.
        sanitize = xp.is_device or not bool(xp.scalar(xp.all(finite)))

        def diag_tile(k: int):
            """Block ``(k, k)`` of the padded, regularized matrix — built
            from ``A`` directly, never from a dense padded copy."""
            s = k * nb
            e = min(s + nb, n)
            w = e - s
            if w == nb:
                T = A[:, s:e, s:e]  # the where below copies
                real = on_diag
            else:
                T = xp.zeros((lanes, nb, nb))
                T[:, :w, :w] = A[:, s:e, s:e]
                pad = xp.arange(w, nb)
                T[:, pad, pad] = 1.0
                real = on_diag & (xp.arange(nb) < w)  # the pad takes no reg
            # Non-finite lanes get the identity tile so their (discarded)
            # factors stay bounded; their ok flag is already off.
            if sanitize:
                T = xp.where(finite[:, None, None], T, eye_nb)
            return xp.where(real, T + reg_fill, T)

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
            return xp.where(finite[:, None, None], E, 0.0) if sanitize else E

        if xp.is_device:
            factor = partial(_cholesky_tiles, xp)
            invert = partial(_triangular_inverse, xp)
        else:
            # read through the module: the host tile kernels, at their one
            # definition
            factor, invert = host.cholesky_tiles, host.tril_inverse

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
        # (A host tile's own ok already certifies its D: cholesky_tiles
        # flags any non-finite L and hands back the identity.)
        tiles_ok = xp.all(xp.isfinite(Dinv), axis=(1, 2, 3))
        if xp.is_device:
            tiles_ok = tiles_ok & xp.all(xp.isfinite(D), axis=(1, 2, 3))
        if K > 1:
            tiles_ok = tiles_ok & xp.all(xp.isfinite(C), axis=(1, 2, 3))
        self.ok = self.ok & tiles_ok

    def _take(self, failed, sub) -> None:
        """Scatter the re-factored ``failed`` lanes' tiles from ``sub``."""
        self._D[failed] = sub._D
        self._Dinv[failed] = sub._Dinv
        if self._C.shape[1]:
            self._C[failed] = sub._C

    def _refresh_suppress(self) -> None:
        """Forget the mute decision; :attr:`_suppress` re-reads ``ok``."""
        self._muted = None

    @property
    def _suppress(self) -> bool:
        """Solves on a batch with flagged lanes run the flagged lanes'
        placeholder tiles too; mute warnings then (and only then) — on
        an all-healthy batch, overflow in a solve must stay audible.  Read
        from ``ok`` once (a host scalar, never on a device) when first
        asked — the retry ladder's first question too."""
        if self._muted is None:
            xp = self.xp
            self._muted = (not xp.is_device) and not bool(
                xp.scalar(xp.all(self.ok))
            )
        return self._muted

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

    def _apply_blocks(self, M, b):
        """``M_k b_k`` for every block of the block layout (or, in the row
        layout, every row); ``s = 1`` is one broadcast multiply — what the
        block matmul computes there, minus the products with exact
        zeros."""
        xp = self.xp
        b = xp.asarray(b)
        if self._rows:
            b3, squeeze = self._prep_rhs(b)
            b4 = b3[:, :, None, :]
        else:
            squeeze = b.ndim == 3
            b4 = b[..., None] if squeeze else b
            if b4.ndim != 4 or tuple(b4.shape[:3]) != (self.lanes, self.K, self.nb):
                raise SolverError(
                    f"rhs shape {tuple(b.shape)} incompatible with "
                    f"({self.lanes}, {self.K}, {self.nb})"
                )
        with self._errstate():
            out = M * b4 if self.nb == 1 else xp.matmul(M, b4)
        if self._rows:
            out = out[:, :, 0, :]
            return out[:, :, 0] if squeeze else out
        return out[..., 0] if squeeze else out

    def forward(self, b):
        """Solve ``L y = b``."""
        if self._block:
            return self._apply_blocks(self._Dinv, b)
        xp = self.xp
        b3, squeeze = self._prep_rhs(b)
        y = xp.zeros((self.lanes, self.npad, int(b3.shape[2])))
        y[:, : self.n] = b3
        nb, matmul, C, Dinv = self.nb, xp.matmul, self._C, self._Dinv
        with self._errstate():
            for k in range(self.K):
                s = k * nb
                blk = y[:, s : s + nb]
                if k:
                    blk = blk - matmul(C[:, k - 1], y[:, s - nb : s])
                y[:, s : s + nb] = matmul(Dinv[:, k], blk)
        out = y[:, : self.n]
        return out[:, :, 0] if squeeze else out

    def backward(self, b):
        """Solve ``L^T x = b``."""
        xp = self.xp
        if self._block:
            return self._apply_blocks(xp.transpose_last2(self._Dinv), b)
        b3, squeeze = self._prep_rhs(b)
        x = xp.zeros((self.lanes, self.npad, int(b3.shape[2])))
        x[:, : self.n] = b3
        nb, matmul = self.nb, xp.matmul
        Ct, Dt = xp.transpose_last2(self._C), xp.transpose_last2(self._Dinv)
        with self._errstate():
            for k in range(self.K - 1, -1, -1):
                s = k * nb
                blk = x[:, s : s + nb]
                if k + 1 < self.K:
                    blk = blk - matmul(Ct[:, k], x[:, s + nb : s + 2 * nb])
                x[:, s : s + nb] = matmul(Dt[:, k], blk)
        out = x[:, : self.n]
        return out[:, :, 0] if squeeze else out

    def solve(self, b):
        """Solve ``A_i x_i = b_i`` for every lane ``i`` in one sweep."""
        if self.K == 1 and self.npad == self.n and not self._block:
            xp = self.xp
            b3, squeeze = self._prep_rhs(b)
            if int(b3.shape[2]) != 1:
                return self.backward(self.forward(b))
            # one unpadded tile, one right-hand side: two matrix-vector
            # products, no staging copies (a product with one column reads
            # its rows the same way from any layout)
            Dinv = self._Dinv[:, 0]
            with self._errstate():
                x = xp.matmul(
                    xp.transpose_last2(Dinv), xp.matmul(Dinv, b3)
                )
            return x[:, :, 0] if squeeze else x
        return self.backward(self.forward(b))

    # -- flop meters (per lane; every lane shares one structure) ----------

    def _widths(self):
        """``(width, count)`` of the dense blocks block mode factors: the
        components of ``parts`` (the tiles, without them)."""
        return [(w, int(index.shape[0]) // (w * w)) for w, index in self._parts]

    def factor_flops(self) -> int:
        """Flops of one lane's factorization, counted as the column
        algorithm (block mode: one dense Cholesky per block, or per
        component of ``parts``)."""
        if self._block:
            return sum(
                count * int(sum(flop_counts_cholesky(w).values()))
                for w, count in self._widths()
            )
        if self.band is not None:
            counts = flop_counts_banded_cholesky(self.n, self.band)
        else:
            counts = flop_counts_cholesky(self.n)
        return int(sum(counts.values()))

    def solve_flops(self, nrhs: int = 1) -> int:
        """Flops one lane's forward+backward substitution costs."""
        if self._block:
            return 2 * sum(
                count * int(sum(flop_counts_substitution(w, nrhs).values()))
                for w, count in self._widths()
            )
        if self.band is not None:
            counts = flop_counts_banded_substitution(self.n, self.band, nrhs)
        else:
            counts = flop_counts_substitution(self.n, nrhs)
        return 2 * int(sum(counts.values()))


class OracleCholeskyFactor:
    """``B`` dense SPD systems factored by the column sweep
    (:func:`_cholesky_tiles`) and solved by row-by-row substitution: the
    factor of the QP loop's dense oracle step
    (:class:`repro.batch.qp._DenseLaneKKT`), the batched form of
    :func:`repro.mpc.linalg.cholesky` / :func:`~repro.mpc.linalg.cholesky_solve`.

    On host backends it shares no arithmetic with
    :class:`BatchCholeskyFactor` (whose tiles run LAPACK through
    :func:`repro.batch.host.cholesky_tiles` /
    :func:`~repro.batch.host.tril_inverse` and solve by products with the
    inverted tiles), so a fault in the blocked factor, its tile kernels or
    its solves moves the hinted steps and leaves the oracle alone; on
    device backends the column sweep is the blocked factor's too.  ``ok``
    is off on a lane with non-finite input, a pivot that is not positive,
    or a probe solve that overflows (a tiny pivot under a huge one leaves
    ``L`` finite); such a lane solves on a bounded placeholder.  ``band``
    must be ``None``: the factor is dense.  The flop meters count the
    dense column algorithm, as :class:`BatchCholeskyFactor`'s do.
    """

    banded = False

    def __init__(self, A, band: Optional[int] = None, reg=0.0, backend=None):
        if band is not None:
            raise SolverError("the oracle factor is dense: band must be None")
        xp = self.xp = get_backend(backend)
        A = xp.asarray(A)
        self.lanes, self.n = int(A.shape[0]), int(A.shape[1])
        self.reg = xp.zeros((self.lanes,)) + reg  # a fresh (B,) copy
        self.finite = xp.all(xp.isfinite(A), axis=(1, 2))
        eye = xp.eye(self.n)
        reg_fill = xp.where(self.finite, self.reg, 0.0)[:, None, None]
        M = xp.where(self.finite[:, None, None], A, eye) + reg_fill * eye
        self.L, ok = _cholesky_tiles(xp, M)
        self.ok = self.finite & ok
        self._muted = True  # the probe may overflow on a flagged lane
        probe = self.solve(xp.ones((self.lanes, self.n)))
        self.ok = self.ok & xp.all(xp.isfinite(probe), axis=1)
        self._refresh_suppress()

    def _take(self, failed, sub) -> None:
        """Scatter the re-factored ``failed`` lanes' ``L`` from ``sub``."""
        self.L[failed] = sub.L

    _refresh_suppress = BatchCholeskyFactor._refresh_suppress
    _suppress = BatchCholeskyFactor._suppress
    _errstate = BatchCholeskyFactor._errstate

    def solve(self, b):
        """Solve ``A_i x_i = b_i``, ``b`` of shape ``(B, n)`` or
        ``(B, n, q)``: ``L y = b`` top row first, then ``L^T x = y``."""
        xp, L, n = self.xp, self.L, self.n
        b = xp.asarray(b)
        squeeze = b.ndim == 2
        x = xp.zeros((self.lanes, n, 1 if squeeze else int(b.shape[2])))
        x[:, :, :] = b[:, :, None] if squeeze else b
        with self._errstate():
            for i in range(n):
                acc = xp.einsum("bk,bkq->bq", L[:, i, :i], x[:, :i])
                x[:, i] = (x[:, i] - acc) / L[:, i, i][:, None]
            for i in range(n - 1, -1, -1):
                acc = xp.einsum("bk,bkq->bq", L[:, i + 1 :, i], x[:, i + 1 :])
                x[:, i] = (x[:, i] - acc) / L[:, i, i][:, None]
        return x[:, :, 0] if squeeze else x

    def factor_flops(self) -> int:
        """Flops of one lane's dense column factorization."""
        return int(sum(flop_counts_cholesky(self.n).values()))

    def solve_flops(self, nrhs: int = 1) -> int:
        """Flops of one lane's forward+backward substitution."""
        return 2 * int(sum(flop_counts_substitution(self.n, nrhs).values()))


def _retry_ladder(xp: ArrayBackend, ok, finite, active, reg, attempts, refactor):
    """The per-lane escalating-regularization retry ladder of both robust
    factors.

    A lane failing ``ok`` is retried up to ``attempts - 1`` times, each
    time at :func:`_escalate` of its own regularization, unless it is
    hopeless: non-finite input (``finite`` off) fails fast and is never
    retried, and neither is an ``active=False``
    lane (a masked lockstep caller's frozen lane).  ``refactor(failed,
    reg)`` re-factors the ``failed`` lanes at ``reg`` (the other lanes keep
    bit-identical factors) and returns the merged per-lane ``ok``.  Each
    attempt reads one host scalar, so device callers that must stay
    sync-free pass ``attempts=1``.  Returns ``(reg_used, retries)``.
    """
    retries = xp.zeros((int(reg.shape[0]),), dtype="int")
    if attempts > 1:
        hopeless = ~finite if active is None else ~finite | ~active
    for _ in range(attempts - 1):
        failed = ~ok & ~hopeless
        if not bool(xp.scalar(xp.any(failed))):
            break
        retries = retries + xp.astype(failed, "int")
        reg = xp.where(failed, _escalate(xp, reg), reg)
        ok = refactor(failed, reg)
    return reg, retries


def robust_factor_batch(
    A,
    reg: float,
    band: Optional[int] = None,
    attempts: int = LADDER_ATTEMPTS,
    backend=None,
    active=None,
    forced=None,
    kind=None,
):
    """Factor a batch with the per-lane escalating-regularization ladder
    (:func:`_retry_ladder`): on a failed lane the regularization escalates
    as ``max(reg * 100, 1e-12)`` and only the failed lanes are re-factored
    (their tiles are scattered back into the full-batch factor, so
    already-healthy lanes keep bit-identical factors); lanes with
    non-finite input and ``active=False`` lanes are never retried.

    The ladder's early exit reads one scalar per attempt, so device-mode
    callers that must stay sync-free pass ``attempts=1`` — a single
    factorization sweep with no retry and therefore no host round-trip
    (the lockstep deviation documented in :mod:`repro.batch.qp`).

    ``forced`` (host backends) is the fault-injection consult:
    ``forced(lanes)`` takes a ``(B,)`` mask of the lanes about to make an
    attempt and returns the mask of those whose attempt is to fail as if a
    pivot had gone non-positive (see :class:`repro.batch.host._LaneFaults`).

    ``kind`` is the factor class, :class:`BatchCholeskyFactor` by default
    (:class:`OracleCholeskyFactor` for the dense oracle step).

    Returns ``(factor, reg_used, retries)``; lanes still failing after
    ``attempts`` tries are left with ``factor.ok == False`` for the caller
    to freeze out.
    """
    xp = get_backend(backend)
    A = xp.asarray(A)
    kind = kind or BatchCholeskyFactor
    current = xp.full((int(A.shape[0]),), float(reg))
    factor = kind(A, band=band, reg=current, backend=xp)
    if forced is not None:
        tried = factor.finite if active is None else factor.finite & active
        factor.ok = factor.ok & ~forced(tried)
        factor._refresh_suppress()
    if not (xp.is_device or factor._suppress):
        attempts = 1  # every lane factored (host): nothing to retry

    def refactor(failed, reg_now):
        sub = kind(A[failed], band=band, reg=reg_now[failed], backend=xp)
        factor._take(failed, sub)
        factor.ok[failed] = (
            sub.ok if forced is None else sub.ok & ~forced(failed)[failed]
        )
        factor.reg[failed] = sub.reg
        # Re-read from the merged ok, not OR-ed over the attempts: a batch
        # the ladder fully repaired is healthy again and must stay audible.
        factor._refresh_suppress()
        return factor.ok

    current, retries = _retry_ladder(
        xp, factor.ok, factor.finite, active, current, attempts, refactor
    )
    return factor, current, retries


def robust_diag_factor_batch(
    d,
    reg: float,
    attempts: int = LADDER_ATTEMPTS,
    backend=None,
    active=None,
    forced=None,
):
    """:func:`robust_factor_batch` of a diagonal matrix, given as its
    ``(B, n)`` diagonal: the pivots of ``n`` blocks of ``1 x 1`` under the
    same :func:`_retry_ladder` (and ``forced`` consult), with no factor
    object around them.  Lane for lane, ``inv``, ``ok``, ``reg_used`` and
    ``retries`` equal ``robust_factor_batch(A, reg, band=0)``'s on
    ``A = diag(d)``.

    Returns ``(inv, ok, reg_used, retries)``; ``inv`` holds the reciprocal
    pivots ``1 / sqrt(d + reg_used)``, so ``L^-1 b = inv * b``.
    """
    xp = get_backend(backend)
    current = xp.full((int(d.shape[0]),), float(reg))
    finite = xp.all(xp.isfinite(d), axis=1)
    _piv, inv, ok = _diag_pivots(xp, d, finite, xp.where(finite, current, 0.0))
    ok = ok & finite
    if forced is not None:
        ok = ok & ~forced(finite if active is None else finite & active)

    def refactor(failed, reg_now):
        nonlocal inv, ok
        _piv, retry_inv, retry_ok = _diag_pivots(xp, d, finite, reg_now)
        if forced is not None:
            retry_ok = retry_ok & ~forced(failed)
        inv = xp.where(failed[:, None], retry_inv, inv)
        ok = xp.where(failed, retry_ok, ok)
        return ok

    current, retries = _retry_ladder(
        xp, ok, finite, active, current, attempts, refactor
    )
    return inv, ok, current, retries
