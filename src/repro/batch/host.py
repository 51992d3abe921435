"""Bare-numpy host code of the solver core.

What the lane loops (:mod:`repro.batch.qp`, :mod:`repro.batch.ipm`,
:mod:`repro.firstorder.batch`) run on the host, outside the array-backend
seam, once per solve or per factorization:

* the from-scratch dense Cholesky (:func:`cholesky`, the SQP driver's
  convexification probe in :func:`_convexify`) and the dense and banded
  flop meters — exact primitive-op counts of the column algorithm, the
  accelerator's operation mix, each column touching only its ``band``-wide
  window, whatever LAPACK executes;
* the structure reads of the stage step: the half-bandwidth
  (:func:`bandwidth_of`), the block partition of a block-diagonal envelope
  (:func:`block_partition`), its coupling components
  (:func:`coupling_components`) and the :class:`_StageLayout` built from
  them;
* the host tile kernels of the blocked factor (:func:`cholesky_tiles`,
  :func:`tril_inverse`: one stacked LAPACK ``potrf`` / LU inverse over
  ``(..., m, m)`` stacks) and its tile rule (:func:`tile_size`, tiles at
  least :data:`MIN_BLOCK` wide);
* the fault-injection consults of a lockstep solve (:class:`_LaneFaults`)
  and the active-set polish (:func:`_polish_qp`, which ADMM runs on a
  stalled lane and :func:`_polish_lane` on a converged interior-point
  lane).

The blocked factor looks its tile kernels up through this module, so a
patch of ``cholesky_tiles`` / ``tril_inverse`` here reaches every factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import SolverError

from .contract import QPOptions

__all__ = [
    "MIN_BLOCK",
    "bandwidth_of",
    "block_partition",
    "cholesky",
    "cholesky_tiles",
    "coupling_components",
    "flop_counts_banded_cholesky",
    "flop_counts_banded_substitution",
    "flop_counts_cholesky",
    "flop_counts_substitution",
    "max_abs",
    "tile_size",
    "tril_inverse",
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
    then bisected, each half re-run in one call, down to the matrices that
    raise, which are NaN-filled — ``O(f log k)`` calls for ``f`` failures
    among ``k`` matrices.  The gufunc runs LAPACK once per matrix either
    way, so a matrix's result does not depend on its stack-mates.
    """
    try:
        return kernel(M)
    except np.linalg.LinAlgError:
        flat = M.reshape((-1,) + M.shape[-2:])
        if len(flat) == 1:
            return np.full(M.shape, np.nan, dtype=M.dtype)
        half = len(flat) // 2
        halves = (_stacked(kernel, flat[:half]), _stacked(kernel, flat[half:]))
        return np.concatenate(halves).reshape(M.shape)


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


def _rows_by_block(A: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """``(K, q)`` ascending indices of the rows of ``A`` with a nonzero in
    each column block ``[bounds[k], bounds[k+1])``, padded with the
    sentinel ``A.shape[0]``."""
    touches = np.logical_or.reduceat(A != 0, bounds[:-1], axis=1).T
    counts = touches.sum(axis=1)
    blk, row = np.nonzero(touches)
    out = np.full((len(counts), int(counts.max(initial=0))), A.shape[0])
    out[blk, np.arange(blk.size) - (np.cumsum(counts) - counts)[blk]] = row
    return out


def _padded(A: np.ndarray) -> np.ndarray:
    """``A`` with one zero row and column appended (the sentinel slot)."""
    out = np.zeros((A.shape[0] + 1, A.shape[1] + 1))
    out[:-1, :-1] = A
    return out


def _sum_gathers(index: np.ndarray, size: int) -> np.ndarray:
    """``(c, size)`` gather positions that replay ``np.bincount(index, w,
    size)`` as ``sum_c w_ext[..., out[c]]`` with ``w_ext = append(w, 0)``.

    Row ``c`` holds, for every target ``j < size``, the ``c``-th position of
    ``index`` equal to ``j`` (ascending, the order bincount adds them in),
    or the zero slot ``len(index)``; entries ``>= size`` are dropped.  A
    gather has a leading lane axis where a bincount has none, so this is how
    the stage step (:mod:`repro.batch.qp`, whose array code takes no bare
    numpy) runs its scatter-adds over :attr:`_StageLayout.pairs` /
    ``.grows``, in bincount's term order.
    """
    index = np.asarray(index).ravel()
    pos = np.flatnonzero(index < size)
    order = np.argsort(index[pos], kind="stable")
    pos = pos[order]
    tgt = index[pos]
    counts = np.bincount(tgt, minlength=size)
    rank = np.arange(tgt.size) - (np.cumsum(counts) - counts)[tgt]
    out = np.full((max(int(counts.max(initial=0)), 1), size), index.size)
    out[rank, tgt] = pos
    return out


@dataclass
class _StageLayout:
    """What a stage step reads from the structure, once per solve: ``Phi``'s
    block partition packed into ``K`` runs of width ``s`` (``cols`` with the
    sentinel ``n`` on the pad, ``real`` marking the rest), each run's
    ``J`` rows ``jrows`` and ``G`` rows ``grows`` (:func:`_rows_by_block`),
    the flat ``p x p`` position of each block's ``(q, q)`` product entries
    in ``S`` (``pairs``, sentinel ``p * p`` where a row is the pad — the one
    definition of how ``S`` is summed, in ascending block order), the
    structural band of ``S`` and the per-component flop meters.

    ``parts`` is where ``Phi`` is actually coupled: the connected
    components of ``nz(H) | nz(J^T J)``
    (:func:`coupling_components`) inside the ``(K, s, s)``
    tile stack, grouped by width ``w`` in ascending order, each group a
    ``(c, w, w)`` array of flat ``K s s`` positions, component members in
    ascending order (so a component's lower triangle is the tile's).  Every
    tile index, pad included (as a ``1 x 1``), is in exactly one
    component; the block-mode factor reads these entries alone."""

    real: np.ndarray
    cols: np.ndarray
    jrows: Optional[np.ndarray]
    grows: Optional[np.ndarray]
    pairs: Optional[np.ndarray]
    schur_band: int
    factor_flops: int
    tri_flops: int
    parts: Tuple[Tuple[int, np.ndarray], ...]


def _tile_parts(label: np.ndarray, cols: np.ndarray):
    """:attr:`_StageLayout.parts` of the components ``label`` (one per
    index, as :func:`coupling_components` returns) in the
    tile stack whose index ``k s + o`` holds variable ``cols[k, o]``."""
    n, s = label.size, cols.shape[1]
    slot = np.flatnonzero(cols.ravel() < n)  # tile index of each variable
    # a pad slot is its own component, labelled past every variable
    tag = np.arange(n, n + cols.size)
    tag[slot] = label[cols.ravel()[slot]]
    order = np.lexsort((np.arange(cols.size), tag))  # by component, ascending
    _, start, width = np.unique(tag[order], return_index=True, return_counts=True)
    parts = []
    for w in np.unique(width).tolist():
        members = order[start[width == w][:, None] + np.arange(w)]  # (c, w)
        flat = members[:, :, None] * s + members[:, None, :] % s
        parts.append((w, flat))
    return tuple(parts)


def _stage_layout(H, G, J, bounds: np.ndarray) -> _StageLayout:
    """The :class:`_StageLayout` of the partition ``bounds`` of the ``n``
    variables of a problem with Hessian ``H``, equality rows ``G`` and
    inequality rows ``J`` (their nonzero patterns are what is read; ``None``
    for no rows of that kind)."""
    n = H.shape[0]
    label = coupling_components(H, J)
    # Metered as one dense Cholesky / triangular solve per coupling
    # component — the algorithm's work, whatever the stacking below.
    widths, counts = np.unique(
        np.unique(label, return_counts=True)[1], return_counts=True
    )
    factor_flops = tri_flops = 0
    for k, count in zip(widths.tolist(), counts.tolist()):
        factor_flops += count * sum(flop_counts_cholesky(k).values())
        tri_flops += count * sum(flop_counts_substitution(k).values())
    # Pack runs of neighbouring blocks up to the widest one: the stack
    # is padded to that width anyway, and a stage's lone pinned states
    # would otherwise each cost a tile of their own.
    widest = int(np.diff(bounds).max())
    packed = [0]
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        if hi - packed[-1] > widest:
            packed.append(lo)
    bounds = np.array(packed + [n])
    sizes = np.diff(bounds)
    offs = np.arange(widest)
    real = offs < sizes[:, None]
    cols = np.where(real, bounds[:-1, None] + offs, n)
    jrows = None if J is None else _rows_by_block(J, bounds)
    grows = pairs = None
    schur_band = 0
    if G is not None:
        p = G.shape[0]
        grows = _rows_by_block(G, bounds)
        gi, gj = grows[:, :, None], grows[:, None, :]
        pairs = np.where((gi < p) & (gj < p), gi * p + gj, p * p).ravel()
        # S[i, j] is structurally nonzero iff rows i and j share a block.
        used = grows < p
        span = np.where(used, grows, -1).max(axis=1) - np.where(
            used, grows, p
        ).min(axis=1)
        schur_band = int(np.max(span, initial=0))
    return _StageLayout(
        real, cols, jrows, grows, pairs, schur_band, factor_flops, tri_flops,
        _tile_parts(label, cols),
    )


def _diag_schur_band(G: np.ndarray) -> int:
    """Structural band of ``S = G D G^T`` for a diagonal ``D``."""
    return bandwidth_of(np.abs(G) @ np.abs(G).T)


def _stage_view(fn, blocks: np.ndarray, layout: _StageLayout) -> np.ndarray:
    """``fn`` applied to a ``(K, s, s)`` stage stack as the ``n x n``
    block-diagonal matrix it stands for; the result's stage blocks come
    back (identity on the pad), so a congruence scaling of one index lands
    in that index's block."""
    cols, real = layout.cols, layout.real
    n = int(real.sum())
    dense = np.zeros((n + 1, n + 1))
    dense[cols[:, :, None], cols[:, None, :]] = blocks
    out = _padded(fn(dense[:n, :n]))[cols[:, :, None], cols[:, None, :]]
    d = np.arange(cols.shape[1])
    out[:, d, d] += ~real
    return out


def _polish_lane(H, g, G, b, J, d, x, lam, s, residual, opt: QPOptions):
    """The active-set polish of one converged IPM lane:
    :func:`_polish_qp` from its iterate with the rows
    ``lam > s`` guessed active, adopted when its point passes the polish's
    own test and the lane's stopping measure (``max |r| + mu``) is no
    worse there than ``residual``.  ``(x, nu, lam, s, residual)`` or
    ``None``."""
    # the barrier's own split of the rows: at convergence s lam ~ 0 makes
    # lam > s decisive, where an absolute threshold on lam is not
    lam = np.where(lam > s, lam, 0.0)
    pol = _polish_qp(H, g, G, b, J, d, x, lam, opt.regularization, opt.tolerance)
    if pol is None or not pol["converged"]:
        return None
    x, nu, lam, s = pol["x"], pol["nu"], pol["lam"], pol["slacks"]
    r = [H @ x + g]
    if G is not None:
        r[0] = r[0] + G.T @ nu
        r.append(G @ x - b)
    mu = 0.0
    if J is not None:
        r[0] = r[0] + J.T @ lam
        r.append(J @ x + s - d)
        mu = float(s @ lam) / J.shape[0]
    res = float(np.max(np.abs(np.concatenate(r)))) + mu
    if not res <= residual:
        return None
    return x, nu, lam, s, res


class _LaneFaults:
    """The :mod:`repro.faults` solver-layer hooks of a lockstep solve, one
    optional hook per lane (host backends), each consulted where a fault
    can enter its lane: ``transform_qp`` once, on the lane's ``H``;
    ``transform_matrix`` once on each ``Phi`` and ``S`` the lane factors (a
    stage stack is shown as its ``n x n`` block-diagonal matrix, a diagonal
    ``Phi`` as its diagonal matrix); ``force_failure`` before every attempt
    of that factorization's retry ladder, a ``True`` failing the attempt as
    a non-positive pivot would.  A hook may implement any subset.  Frozen
    lanes consult nothing, so a hook sees the solve its lane ran alone."""

    def __init__(self, hooks) -> None:
        self._qp = [getattr(h, "transform_qp", None) for h in hooks]
        self._matrix = [getattr(h, "transform_matrix", None) for h in hooks]
        self._fail = [getattr(h, "force_failure", None) for h in hooks]

    def transform_qp(self, H: np.ndarray) -> np.ndarray:
        """``H`` with each lane's ``transform_qp`` applied, copied in its
        memory layout."""
        if not any(self._qp):
            return H
        H = np.copy(H)
        for lane, fn in enumerate(self._qp):
            if fn is not None:
                H[lane] = fn(H[lane])
        return H

    def transform(self, A, active, layout: Optional[_StageLayout] = None):
        """``A`` with each active hooked lane's ``transform_matrix``
        applied: a ``(B, n, n)`` stack, a ``(B, n)`` diagonal, or with its
        ``layout`` a ``(B, K, s, s)`` stage stack."""
        lanes = [
            lane
            for lane, fn in enumerate(self._matrix)
            if fn is not None and active[lane]
        ]
        if not lanes:
            return A
        A = np.copy(A)
        for lane in lanes:
            fn = self._matrix[lane]
            if A.ndim == 2:
                A[lane] = np.diagonal(fn(np.diag(A[lane])))
            elif layout is None:
                A[lane] = fn(A[lane])
            else:
                A[lane] = _stage_view(fn, A[lane], layout)
        return A

    def forced(self, lanes) -> np.ndarray:
        """Which of the ``lanes`` (a ``(B,)`` mask) fail this attempt."""
        out = np.zeros(len(self._fail), dtype=bool)
        for lane in np.flatnonzero(lanes):
            fn = self._fail[lane]
            out[lane] = fn is not None and bool(fn())
        return out


#: slack/dual threshold that puts an inequality row into the polish guess
_POLISH_ACTIVE_TOL = 1e-6
#: iterative-refinement passes against the unregularized KKT system
_POLISH_REFINE = 3
#: active-set repair rounds (drop negative multipliers, then add violated
#: rows — never both in one round, which thrashes on stiff problems)
_POLISH_ROUNDS = 15


def _polish_qp(H, g, G, b, J, d, x, lam, reg, tol):
    """Active-set polish of a first-order iterate (OSQP Section 5.2, plus
    active-set repair rounds).

    A stalled or capped ADMM iterate is usually *qualitatively* right —
    it knows which inequality rows bind — while its accuracy is pinned by
    the problem's curvature spread, which no diagonal scaling can fix.
    Solving the equality-constrained KKT system of the guessed active set
    (regularized quasi-definite factorization + iterative refinement) has
    no such floor, so one direct solve recovers the solution to near
    machine precision *if the guess is right*.  Each repair round then
    adds rows the candidate violates and drops rows with negative
    multipliers, converging to the true active set from a coarse guess.

    Candidates are ranked by stationarity ``r_dual``, primal feasibility
    ``r_prim`` and dual feasibility ``r_sign`` (the most negative
    multiplier of a guessed-active row, 0 when none is): a candidate that
    pins a row the optimum leaves free solves its equalities to roundoff
    and is still no optimum.  Returns a dict with the best candidate seen
    (``x``, ``nu``, ``lam``, ``slacks``, ``r_prim``, ``r_dual``,
    ``r_sign``, ``residual`` and a ``converged`` verdict against ``tol``
    in the relative metric of the ADMM loop, ``r_sign`` held to the dual
    scale as ``r_dual`` is), or ``None`` when no round produced a finite
    solve.
    """
    n = g.shape[0]
    p = G.shape[0] if G is not None else 0
    m = J.shape[0] if J is not None else 0
    delta = max(float(reg), 1e-9)
    g_norm = max_abs(g)
    act = np.zeros(m, dtype=bool)
    if m:
        act = ((d - J @ x) < _POLISH_ACTIVE_TOL * (1.0 + np.abs(d))) | (
            lam > _POLISH_ACTIVE_TOL
        )
    best = None
    best_score = float("inf")
    for _ in range(_POLISH_ROUNDS):
        rows, rhs_rows = [], []
        if p:
            rows.append(G)
            rhs_rows.append(b)
        if m and np.any(act):
            rows.append(J[act])
            rhs_rows.append(d[act])
        A_act = np.vstack(rows) if rows else np.zeros((0, n))
        rc = np.concatenate(rhs_rows) if rhs_rows else np.zeros(0)
        ka = A_act.shape[0]
        K = np.block(
            [
                [H + delta * np.eye(n), A_act.T],
                [A_act, -delta * np.eye(ka)],
            ]
        )
        K0 = np.block(
            [[H, A_act.T], [A_act, np.zeros((ka, ka))]]
        )
        rhs = np.concatenate([-g, rc])
        try:
            sol = np.linalg.solve(K, rhs)
            for _refine in range(_POLISH_REFINE):
                sol = sol + np.linalg.solve(K, rhs - K0 @ sol)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(sol)):
            break
        px = sol[:n]
        mult = sol[n:]
        r_dual = max_abs(
            H @ px + g + (A_act.T @ mult if ka else 0.0)
        )
        r_prim = 0.0
        if p:
            r_prim = max(r_prim, max_abs(G @ px - b))
        viol = np.zeros(0)
        if m:
            viol = J @ px - d
            r_prim = max(r_prim, float(np.max(np.maximum(viol, 0.0))))
        # dual feasibility: a guessed-active row must not pull (its
        # multiplier negative), or the candidate is no optimum
        r_sign = max(0.0, -float(np.min(mult[p:], initial=0.0)))
        score = max(r_dual, r_prim, r_sign)
        if score < best_score:
            best_score = score
            lam_full = np.zeros(m)
            if m and ka > p:
                lam_full[act] = np.maximum(mult[p:], 0.0)
            best = {
                "x": px,
                "nu": mult[:p].copy(),
                "lam": lam_full,
                "r_prim": r_prim,
                "r_dual": r_dual,
                "r_sign": r_sign,
            }
        if not m:
            break
        # Repair the guess, one move at a time (textbook active-set
        # discipline): first evict rows whose multiplier came back
        # negative — a wrongly pinned row drags the candidate into
        # violating *other* rows, so adding and dropping simultaneously
        # chases its own tail on stiff problems.  Only once the
        # multipliers are clean do violated rows join the set.
        new_act = act.copy()
        if ka > p:
            neg = mult[p:] < -1e-9
            if np.any(neg):
                new_act[np.flatnonzero(act)[neg]] = False
        if np.array_equal(new_act, act):
            new_act = act | (viol > 1e-9 * (1.0 + np.abs(d)))
        if np.array_equal(new_act, act):
            break
        act = new_act
    if best is None:
        return None

    px = best["x"]
    y_full = np.concatenate([best["nu"], best["lam"]])
    rows = []
    if p:
        rows.append(G)
    if m:
        rows.append(J)
    A = np.vstack(rows) if rows else np.zeros((0, n))
    Ax = A @ px
    prim_scale = 1.0 + max_abs(Ax)
    dual_scale = 1.0 + max(
        max_abs(H @ px),
        max_abs(A.T @ y_full) if A.shape[0] else 0.0,
        g_norm,
    )
    best["slacks"] = (
        np.maximum(d - J @ px, 0.0) if m else np.zeros(0)
    )
    best["residual"] = max(best["r_prim"], best["r_dual"], best["r_sign"])
    best["converged"] = bool(
        best["r_prim"] <= tol * prim_scale
        and max(best["r_dual"], best["r_sign"]) <= tol * dual_scale
    )
    return best


def _convexify(H: np.ndarray) -> np.ndarray:
    """Smallest diagonal shift (geometric ladder) making ``H`` factorizable.

    IPOPT-style inertia correction: an indefinite exact Lagrangian Hessian is
    shifted by ``delta I`` with ``delta`` escalating x10 until the from-scratch
    Cholesky succeeds, so the QP subproblem is strictly convex and *fixed*.
    """
    try:
        cholesky(H, reg=0.0)
        return H
    except SolverError:
        pass
    base = max(1e-8, 1e-10 * float(np.max(np.abs(H))))
    delta = base
    for _ in range(24):
        shifted = H.copy()
        shifted[np.diag_indices_from(shifted)] += delta
        try:
            cholesky(shifted, reg=0.0)
            return shifted
        except SolverError:
            delta *= 10.0
    raise SolverError("Hessian could not be convexified")
