"""One linearize assembly: lane-batched evaluation of a transcribed problem.

A linearization has two parts, and the repo keeps one of each.

**A group provider** evaluates the compiled stage functions at a point and
returns ``{group: stack}`` — ``(B, K, width)`` for the running family
(``K = N`` knots, ``N - 1`` for the state rows, which skip the pinned knot
0) and ``(B, width)`` for the terminal one.  A provider is a callable
``provider(lanes, pt, name)`` that returns at least group ``name``; three
tiers sit behind that call: *interpreted*
(:meth:`TranscribedProblem._interpreted_groups`, per-knot Python floats —
the conform oracle, the ``move_block > 1`` path and the batch's
cannot-vectorize fallback), *vectorized*
(:mod:`repro.batch.transcription`, one ufunc sweep per group — what a
batch binds) and *fused* (:func:`fused_provider` over the compiled C
kernel of :mod:`repro.codegen`, which evaluates a whole stage family per
call — what the scalar host lane binds when the kernel was built).

**The assembler** — :class:`LaneLinearizer`'s seven methods — places those
stacks into the solver's vectors and matrices by index maps built once from
``state_slice`` / ``input_slice``, with a leading lane axis.
:class:`TranscribedProblem`'s evaluation methods are its ``B = 1`` host
lane and :class:`~repro.batch.transcription.BatchLinearizer`'s its
``B``-lane call, so the scatter is independent of both the batch size and
the tier.  Rules that hold for every ``B`` and every provider:

* the objective adds stage costs left to right (``N`` lane-wide adds), the
  one order whose bits do not depend on a provider's memory layout;
* Gauss-Newton blocks are ``2 (Jp^T w) Jp`` as one stacked matmul;
* scatters are one-shot index assignments — pure placement — except where
  blocked stages share an input knot (``move_block > 1``: the gradient and
  the Hessian blocks), which add in stage order;
* evaluated groups are cached per point (:meth:`LaneLinearizer.group`): a
  Jacobian-carrying evaluation serves later value requests, and value
  requests never evaluate Jacobian groups.

This module is device-resident code (``scripts/check_no_bare_numpy.py``):
every array op goes through the backend seam ``xp``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, List

from repro.errors import TranscriptionError

__all__ = [
    "GROUPS",
    "GROUP_INFO",
    "STATE_ROWS",
    "LaneLinearizer",
    "fused_function",
    "fused_provider",
    "normalize_ref",
]

#: per stage family, in fused output order: (group, ``TranscribedProblem``
#: attribute, True when a values-only request evaluates it)
GROUPS = {
    "run": (
        ("dyn_step", "_F", True),
        ("dyn_jac_x", "_A", False),
        ("dyn_jac_u", "_B", False),
        ("cost_run", "_L", True),
        ("cost_run_grad", "_L_grad", False),
        ("pen_run_jac", "_P_run_jac", False),
        ("eq_state", "_g_state", True),
        ("eq_state_jac", "_g_state_jac", False),
        ("eq_input", "_g_input", True),
        ("eq_input_jac", "_g_input_jac", False),
        ("ineq_state", "_h_state", True),
        ("ineq_state_jac", "_h_state_jac", False),
        ("ineq_input", "_h_input", True),
        ("ineq_input_jac", "_h_input_jac", False),
    ),
    "term": (
        ("cost_term", "_Phi", True),
        ("cost_term_grad", "_Phi_grad", False),
        ("pen_term_jac", "_P_term_jac", False),
        ("eq_term", "_g_term", True),
        ("eq_term_jac", "_g_term_jac", False),
        ("ineq_term", "_h_term", True),
        ("ineq_term_jac", "_h_term_jac", False),
    ),
}
#: group -> (family, problem attribute, values-only)
GROUP_INFO = {
    g: (family, attr, vals)
    for family, table in GROUPS.items()
    for g, attr, vals in table
}
#: running groups enforced at knots ``1 .. N-1`` only
STATE_ROWS = frozenset(
    ("eq_state", "eq_state_jac", "ineq_state", "ineq_state_jac")
)


def fused_function(family: str, full: bool) -> str:
    """Name of the generated function covering one family's groups."""
    return f"fused_{family}_{'full' if full else 'vals'}"


def fused_provider(kernel) -> Callable:
    """Provider over a fused kernel (``kernel.call(fn, cols) -> groups``):
    one generated call evaluates the whole stage family ``name`` is in."""

    def provide(lanes, pt, name) -> Dict[str, object]:
        family, _, vals = GROUP_INFO[name]
        groups = kernel.call(
            fused_function(family, not vals), lanes.cols(pt, family)
        )
        for g in STATE_ROWS.intersection(groups):
            groups[g] = groups[g][:, 1:]
        return groups

    return provide


def normalize_ref(problem, ref, lanes: int, xp):
    """Normalize references to one ``(B, N+1, nref)`` stack on ``xp``.

    Accepts ``None`` (only for reference-free tasks), one shared array of
    shape ``(nref,)`` or ``(N+1, nref)``, a per-lane sequence of such
    arrays, or an already normalized stack (returned as is).
    """
    N, nref = problem.N, problem.nref
    if nref == 0:
        return None
    if hasattr(ref, "ndim") and tuple(ref.shape) == (lanes, N + 1, nref):
        return xp.asarray(ref)

    def one(r):
        if r is None:
            raise TranscriptionError(
                f"task {problem.task.name!r} requires reference values "
                f"{problem.task.references}"
            )
        r = xp.asarray(r)
        if tuple(r.shape) == (nref,):
            return xp.repeat(r[None], N + 1, axis=0)
        if tuple(r.shape) == (N + 1, nref):
            return r
        raise TranscriptionError(
            f"reference values must have shape ({nref},) or "
            f"({N + 1}, {nref}), got {tuple(r.shape)}"
        )

    if ref is None or hasattr(ref, "ndim"):
        return xp.repeat(one(ref)[None], lanes, axis=0)
    rows = [one(r) for r in ref]
    if len(rows) != lanes:
        raise TranscriptionError(
            f"got {len(rows)} per-lane references for {lanes} lanes"
        )
    return xp.stack(rows)


class _Point:
    """One evaluation point: lane stacks plus everything evaluated there."""

    __slots__ = ("xs", "us", "R", "groups", "scratch", "anchor")

    def __init__(self, xs, us, R, anchor) -> None:
        self.xs, self.us, self.R, self.anchor = xs, us, R, anchor
        self.groups: Dict[str, object] = {}
        #: provider inputs derived from the stacks (columns, float rows)
        self.scratch: Dict[str, object] = {}


class LaneLinearizer:
    """The seven evaluation methods of one problem over ``B`` lanes.

    Arguments carry a leading lane axis (``Z: (B, nz)``, ``x_init:
    (B, nx)``) and results are the lane stack of what the scalar method
    returns, in the same row order, as arrays of ``xp``.  ``provider``
    supplies the group stacks (module docstring); ``tier`` names it
    (``"interpreted"`` / ``"vectorized"`` / ``"fused"``) and
    ``fallback_reason`` says why a faster one was not bound.  ``stats`` (a
    :class:`~repro.codegen.stats.CodegenStats`) counts point-cache traffic.
    """

    _CACHE_CAP = 4  # linearize point + a few merit trial points

    def __init__(
        self, problem, xp, provider, tier, stats=None, fallback_reason=""
    ) -> None:
        p = self.problem = problem
        self.xp, self.provider, self.tier = xp, provider, tier
        self.stats, self.fallback_reason = stats, fallback_reason
        N, nx = p.N, p.nx
        self._points: "OrderedDict[tuple, _Point]" = OrderedDict()
        self._base = (N + 1) * nx
        #: blocked stages share an input knot (``move_block > 1``): the
        #: per-step view of the knots, and the two adding scatters below
        self._blocked = p.move_block > 1
        self._knot = xp.asarray(
            [k // p.move_block for k in range(N)], dtype="int"
        )
        # index maps, built once and uploaded once; the task-row maps are
        # views of them
        xcols = [_span(p.state_slice(k)) for k in range(N + 1)]
        self.xcols = xp.asarray(xcols, dtype="int")
        self.stage_cols = xp.asarray(
            [x + _span(p.input_slice(k)) for k, x in enumerate(xcols[:-1])],
            dtype="int",
        )
        self.w_run, self.w_term = xp.asarray(p.w_run), xp.asarray(p.w_term)
        self._eye = xp.eye(nx)
        self._id_rows = xp.reshape(xp.arange((N + 1) * nx), (N + 1, nx, 1))
        sc, xN = self.stage_cols, self.xcols[N:]
        self._eq_maps = self._row_maps(
            (N + 1) * nx,
            ("eq_state", p._eq_state_rows, sc[1:]),
            ("eq_input", p._eq_input_rows, sc),
            ("eq_term", p._eq_term_rows, xN),
        )
        self._ineq_maps = self._row_maps(
            0,
            ("ineq_state", p._h_state_rows, sc[1:]),
            ("ineq_input", p._h_input_rows, sc),
            ("ineq_term", p._h_term_rows, xN),
        )

    def _row_maps(self, row: int, *kinds) -> List[tuple]:
        """``(group, rows (K, r, 1), columns (K, 1, width))`` per non-empty
        task-row kind, stacked from ``row`` in the scalar order."""
        xp, maps = self.xp, []
        for group, r, cols in kinds:
            K = int(cols.shape[0])
            if r and K:
                rows = xp.reshape(row + xp.arange(K * r), (K, r, 1))
                maps.append((group, rows, cols[:, None, :]))
            row += K * r
        return maps

    # -- points and groups -------------------------------------------------

    def _point(self, Z, ref) -> _Point:
        """Cached point for ``(Z, ref)``; validates references on a miss.

        Host backends key on content (the scalar API must survive a caller
        mutating ``z`` in place, so the entry also owns a copy); device
        backends key on identity — a content key would sync every call —
        with an anchor so ids cannot be recycled while the entry lives.
        """
        xp, p = self.xp, self.problem
        lanes = int(Z.shape[0])
        if xp.is_device:
            key, anchor = (id(Z), id(ref)), (Z, ref)
        else:
            if not (ref is None or hasattr(ref, "ndim")):
                ref = normalize_ref(p, ref, lanes, xp)
            rb = b"" if ref is None else xp.asarray(ref).tobytes()
            key, anchor = (Z.tobytes(), rb), None
        pt = self._points.get(key)
        if pt is not None:
            self._points.move_to_end(key)
            return pt
        R = normalize_ref(p, ref, lanes, xp)
        if anchor is None:
            Z = xp.copy(Z)
        xs = xp.reshape(Z[:, : self._base], (lanes, p.N + 1, p.nx))
        us = xp.reshape(Z[:, self._base :], (lanes, p.n_input_knots, p.nu))
        if self._blocked:
            us = us[:, self._knot]
        pt = self._points[key] = _Point(xs, us, R, anchor)
        while len(self._points) > self._CACHE_CAP:
            self._points.popitem(last=False)
        return pt

    def cols(self, pt: _Point, which: str) -> List:
        """Provider input columns at a point, one contiguous ``(B, K)``
        array per stage variable: ``"run"`` (knots ``0..N-1``), ``"state"``
        (``1..N-1``) or ``"term"`` (knot ``N``: ``(B,)``, no inputs)."""
        got = pt.scratch.get(which)
        if got is None:
            xp, N = self.xp, self.problem.N
            ks = {"run": slice(0, N), "state": slice(1, N), "term": N}[which]
            parts = [pt.xs[:, ks]]
            if which != "term":
                parts.append(pt.us[:, ks])
            if pt.R is not None:
                parts.append(pt.R[:, ks])
            block = xp.concatenate(parts, axis=-1)  # (B[, K], n)
            n, shape = int(block.shape[-1]), tuple(block.shape[:-1])
            by_var = xp.copy(xp.transpose_last2(xp.reshape(block, (-1, n))))
            got = pt.scratch[which] = list(xp.reshape(by_var, (n,) + shape))
        return got

    def group(self, pt: _Point, name: str):
        """One group's stack at ``pt``, evaluated through the provider on
        first request (whatever else it returns is cached with it)."""
        got = pt.groups.get(name)
        hit = got is not None
        if not hit:
            pt.groups.update(self.provider(self, pt, name))
            got = pt.groups[name]
        if self.stats is not None:
            if hit:
                self.stats.cache_hits += 1
            else:
                self.stats.cache_misses += 1
        return got

    # -- the assembler -----------------------------------------------------

    def objective(self, Z, ref=None):
        Z = self.xp.asarray(Z)
        pt = self._point(Z, ref)
        run = self.group(pt, "cost_run")[..., 0]
        total = run[:, 0]
        for k in range(1, self.problem.N):
            total = total + run[:, k]
        return total + self.group(pt, "cost_term")[..., 0]

    def objective_gradient(self, Z, ref=None):
        xp = self.xp
        Z = xp.asarray(Z)
        pt = self._point(Z, ref)
        gs = self.group(pt, "cost_run_grad")
        grad = xp.zeros((int(Z.shape[0]), self.problem.nz))
        if self._blocked:
            for k in range(self.problem.N):
                grad[:, self.stage_cols[k]] += gs[:, k]
        else:
            grad[:, self.stage_cols] = gs
        grad[:, self.xcols[-1]] = self.group(pt, "cost_term_grad")
        return grad

    def _gauss_newton_blocks(self, Jp, w):
        return 2.0 * self.xp.matmul(self.xp.transpose_last2(Jp) * w, Jp)

    def objective_gauss_newton(self, Z, ref=None):
        xp, p = self.xp, self.problem
        Z = xp.asarray(Z)
        pt = self._point(Z, ref)
        lanes, nxu = int(Z.shape[0]), p.nx + p.nu
        H = xp.zeros((lanes, p.nz, p.nz))
        if len(p.w_run):
            blk = self._gauss_newton_blocks(
                xp.reshape(
                    self.group(pt, "pen_run_jac"),
                    (lanes, p.N, len(p.w_run), nxu),
                ),
                self.w_run,
            )
            sc = self.stage_cols
            if self._blocked:
                for k in range(p.N):
                    H[:, sc[k][:, None], sc[k][None, :]] += blk[:, k]
            else:
                H[:, sc[:, :, None], sc[:, None, :]] = blk
        if len(p.w_term):
            xN = self.xcols[-1]
            H[:, xN[:, None], xN[None, :]] = self._gauss_newton_blocks(
                xp.reshape(
                    self.group(pt, "pen_term_jac"),
                    (lanes, len(p.w_term), p.nx),
                ),
                self.w_term,
            )
        return H

    def _task_values(self, pt, lanes: int, maps) -> List:
        return [
            self.xp.reshape(self.group(pt, group), (lanes, -1))
            for group, _, _ in maps
        ]

    def _scatter_task_rows(self, M, pt, maps) -> None:
        lanes = int(M.shape[0])
        for group, rows, cols in maps:
            shape = (lanes, rows.shape[0], rows.shape[1], cols.shape[2])
            M[:, rows, cols] = self.xp.reshape(
                self.group(pt, group + "_jac"), shape
            )

    def equality_constraints(self, Z, x_init, ref=None):
        xp = self.xp
        Z, X0 = xp.asarray(Z), xp.asarray(x_init)
        pt = self._point(Z, ref)
        lanes = int(Z.shape[0])
        defects = pt.xs[:, 1:] - self.group(pt, "dyn_step")
        parts = [pt.xs[:, 0] - X0, xp.reshape(defects, (lanes, -1))]
        return xp.concatenate(
            parts + self._task_values(pt, lanes, self._eq_maps), axis=1
        )

    def equality_jacobian(self, Z, ref=None):
        xp, p = self.xp, self.problem
        Z = xp.asarray(Z)
        pt = self._point(Z, ref)
        lanes, N, nx = int(Z.shape[0]), p.N, p.nx
        G = xp.zeros((lanes, p.n_eq, p.nz))
        rows, xc = self._id_rows, self.xcols[:, None, :]
        G[:, rows, xc] = self._eye  # initial condition + x_{k+1}
        G[:, rows[1:], xc[:-1]] = -xp.reshape(
            self.group(pt, "dyn_jac_x"), (lanes, N, nx, nx)
        )
        G[:, rows[1:], self.stage_cols[:, None, nx:]] = -xp.reshape(
            self.group(pt, "dyn_jac_u"), (lanes, N, nx, p.nu)
        )
        self._scatter_task_rows(G, pt, self._eq_maps)
        return G

    def inequality_constraints(self, Z, ref=None):
        xp = self.xp
        Z = xp.asarray(Z)
        lanes = int(Z.shape[0])
        if not self._ineq_maps:
            return xp.zeros((lanes, 0))
        pt = self._point(Z, ref)
        return xp.concatenate(
            self._task_values(pt, lanes, self._ineq_maps), axis=1
        )

    def inequality_jacobian(self, Z, ref=None):
        xp = self.xp
        Z = xp.asarray(Z)
        J = xp.zeros((int(Z.shape[0]), self.problem.n_ineq, self.problem.nz))
        if self._ineq_maps:
            self._scatter_task_rows(J, self._point(Z, ref), self._ineq_maps)
        return J


def _span(sl: slice) -> List[int]:
    return list(range(sl.start, sl.stop))
