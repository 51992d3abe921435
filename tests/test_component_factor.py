"""The stage step's ``Phi`` factored by its coupling components.

A stage tile of ``Phi = H + J^T W J`` is block diagonal under a
permutation: its connected components (of ``nz(H) | nz(J^T J)``) are much
smaller than the tile.  Block mode given ``parts`` factors them one
tile-kernel call per width; these tests hold that factor to the whole-tile
factor on the robots' first subproblems, to its lane and ladder contracts,
and the component read to the pattern it was read from."""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import BatchCholeskyFactor, get_backend, robust_factor_batch
from repro.batch.backend import HOST
from repro.batch.qp import _LaneMeters, _lane_structure, _StageLaneKKT
from repro.mpc.banded import block_partition, coupling_components
from repro.mpc.qp import _stage_layout
from tests.test_batch_backend import ALL_BACKENDS
from tests.test_batch_qp import first_subproblem

STAGE_ROBOTS = ("AutoVehicle", "MicroSat", "Quadrotor", "Manipulator")
LANES = 4
REG = 1e-9


def phi_stack(robot, xp=HOST, lanes=LANES, seed=0):
    """``(Phi, kind)``: the first subproblem's ``(B, K, s, s)`` stage stack
    at a scaling ``w`` per lane spread over eight decades (as the barrier
    spreads it), and the component factor the stage step runs."""
    H, _g, G, _b, J, _d, _bw = first_subproblem(robot, 8)
    _band, _s, layout = _lane_structure(np.abs(H), np.abs(J), np.abs(G))
    lift = lambda M: xp.from_host(np.stack([M] * lanes))  # noqa: E731
    kkt = _StageLaneKKT(
        xp, REG, 16, _LaneMeters(xp, lanes), None, lift(H), lift(G), lift(J),
        layout, None, 2,
    )  # fmt: skip
    w = 10.0 ** np.random.default_rng(seed).uniform(-4, 4, (lanes, J.shape[0]))
    wk = kkt._gather(xp.from_host(w), kkt.jrows)
    Phi = kkt.block_H + xp.matmul(kkt.Jt * wk[:, :, None, :], kkt.J)
    return xp.to_host(Phi), layout, kkt.kind


def assert_agrees_to_roundoff(comp, whole, lanes):
    """``comp``'s tiles equal ``whole``'s to roundoff on ``lanes``, tile by
    tile relative to the tile's size."""
    for stack in ("_D", "_Dinv"):
        got = comp.xp.to_host(getattr(comp, stack))[lanes]
        ref = whole.xp.to_host(getattr(whole, stack))[lanes]
        size = np.max(np.abs(ref), axis=(-2, -1), keepdims=True)
        assert np.all(np.abs(got - ref) <= 1e-12 * size), stack


def component_mask(layout):
    """``(K s, K s)`` mask of the tile-stack entries inside a component."""
    size = layout.cols.size
    s = layout.cols.shape[1]
    mask = np.zeros((size, size), dtype=bool)
    for _w, index in layout.parts:
        rows = index // s
        cols = (rows // s) * s + index % s
        mask[rows.ravel(), cols.ravel()] = True
    return mask


@pytest.mark.parametrize("robot", STAGE_ROBOTS)
class TestAgainstTheWholeTile:
    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_agrees_to_roundoff_and_is_zero_off_the_components(self, robot, name):
        xp = get_backend(name)
        Phi, layout, kind = phi_stack(robot, xp)
        comp = kind(xp.from_host(Phi), reg=REG, backend=xp)
        whole = BatchCholeskyFactor(xp.from_host(Phi), reg=REG, backend=xp)
        assert bool(xp.to_host(comp.ok).all()) and bool(xp.to_host(whole.ok).all())
        assert_agrees_to_roundoff(comp, whole, slice(None))
        # a component ordered ascending takes no fill from the others
        K, s = layout.cols.shape
        inside = component_mask(layout).reshape(K, s, K, s)[
            np.arange(K), :, np.arange(K), :
        ]
        for stack in ("_D", "_Dinv"):
            assert not np.any(xp.to_host(getattr(comp, stack))[:, ~inside])
        rhs = np.random.default_rng(5).normal(size=(LANES, K, s))
        x = xp.to_host(comp.solve(xp.from_host(rhs)))
        assert np.allclose(x, xp.to_host(whole.solve(xp.from_host(rhs))),
                           rtol=1e-6, atol=1e-9 * np.abs(x).max())  # fmt: skip
        assert comp.factor_flops() < whole.factor_flops()

    def test_entries_off_the_components_are_not_read(self, robot):
        Phi, layout, kind = phi_stack(robot)
        K, s = layout.cols.shape
        noisy = Phi.copy()
        inside = component_mask(layout).reshape(K, s, K, s)[
            np.arange(K), :, np.arange(K), :
        ]
        noisy[:, ~inside] = 7.0
        ref = kind(Phi, reg=REG)
        got = kind(noisy, reg=REG)
        for stack in ("_D", "_Dinv"):
            assert np.array_equal(getattr(got, stack), getattr(ref, stack))

    def test_non_finite_lane_fails_alone(self, robot):
        Phi, _layout, kind = phi_stack(robot)
        Phi[2, 1, 0, 0] = np.nan
        fac = kind(Phi, reg=REG)
        mates = kind(Phi[[0, 1, 3]], reg=REG)
        assert list(fac.ok) == [True, True, False, True]
        for stack in ("_D", "_Dinv"):
            assert np.array_equal(getattr(fac, stack)[[0, 1, 3]], getattr(mates, stack))
            assert np.all(np.isfinite(getattr(fac, stack)))
        assert_agrees_to_roundoff(fac, BatchCholeskyFactor(Phi, reg=REG), [0, 1, 3])

    def test_forced_lane_climbs_the_ladder_and_its_mates_stay_put(self, robot):
        Phi, _layout, kind = phi_stack(robot)
        left = {1: 3}  # lane 1 fails its first three attempts

        def forced(lanes):
            out = np.zeros(LANES, dtype=bool)
            for lane in np.flatnonzero(lanes):
                if left.get(lane, 0):
                    left[lane] -= 1
                    out[lane] = True
            return out

        fac, reg, retries = robust_factor_batch(
            Phi, REG, None, forced=forced, kind=kind
        )
        assert list(fac.ok) == [True] * LANES
        assert list(retries) == [0, 3, 0, 0]
        assert np.isclose(reg[1], REG * 1e6) and list(reg[[0, 2, 3]]) == [REG] * 3
        base = kind(Phi, reg=REG)
        alone = kind(Phi[1:2], reg=reg[1])
        for stack in ("_D", "_Dinv"):
            assert np.array_equal(getattr(fac, stack)[[0, 2, 3]],
                                  getattr(base, stack)[[0, 2, 3]])  # fmt: skip
            assert np.array_equal(getattr(fac, stack)[1], getattr(alone, stack)[0])


def assert_components_of(H, J, labels):
    """``labels`` are the connected components of ``nz(H) | nz(J^T J)``: no
    entry crosses two, and each is connected."""
    n = H.shape[0]
    P = H != 0
    if J is not None and J.size:
        Jn = (J != 0).astype(int)
        P = P | (Jn.T @ Jn > 0)
    i, j = np.nonzero(P)
    assert np.array_equal(labels[i], labels[j])
    assert np.array_equal(labels[labels], labels)  # labelled by a member
    assert np.all(labels <= np.arange(n))  # ... its smallest
    for root in np.unique(labels):
        members = np.flatnonzero(labels == root)
        seen, frontier = {int(root)}, [int(root)]
        while frontier:
            k = frontier.pop()
            for nb in np.flatnonzero(P[k] | P[:, k]).tolist():
                if nb not in seen:
                    seen.add(nb)
                    frontier.append(nb)
        assert seen == set(members.tolist())


def assert_parts_partition_the_tiles(layout, labels):
    """Every tile index lies in exactly one component of ``parts``, each
    inside one tile, members ascending; a component's variables are one
    class of ``labels`` (the pad: one slot each)."""
    cols = layout.cols
    K, s = cols.shape
    n = labels.size
    seen = np.zeros(K * s, dtype=int)
    classes = []
    for w, index in layout.parts:
        c = index.shape[0]
        assert index.shape == (c, w, w)
        slots = index[:, np.arange(w), np.arange(w)] // s  # (c, w)
        assert np.array_equal(index // s, np.repeat(slots[:, :, None], w, 2))
        assert np.all(np.diff(slots, axis=1) > 0)
        assert np.all(slots // s == slots[:, :1] // s)  # one tile
        np.add.at(seen, slots.ravel(), 1)
        for row in slots:
            var = cols.ravel()[row]
            if np.any(var == n):
                assert w == 1  # a pad slot is its own component
            else:
                classes.append(frozenset(var.tolist()))
    assert np.all(seen == 1)
    truth = {
        frozenset(np.flatnonzero(labels == root).tolist())
        for root in np.unique(labels)
    }
    assert set(classes) == truth and len(classes) == len(truth)


@pytest.mark.parametrize("robot", STAGE_ROBOTS)
def test_robot_layouts_hold_their_components(robot):
    H, _g, G, _b, J, _d, _bw = first_subproblem(robot, 8)
    bounds, _band = block_partition(H, J)
    labels = coupling_components(H, J)
    assert_components_of(H, J, labels)
    layout = _stage_layout(H, G, J, bounds)
    assert_parts_partition_the_tiles(layout, labels)
    # the components are finer than the tiles
    assert max(w for w, _ in layout.parts) < layout.cols.shape[1]


@given(
    n=st.integers(1, 28),
    rows=st.integers(0, 12),
    density=st.floats(0.0, 0.25),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=80, deadline=None)
def test_property_components_partition_every_tile(n, rows, density, seed):
    rng = np.random.default_rng(seed)
    H = rng.random((n, n)) < density
    H = H | H.T | np.eye(n, dtype=bool)
    J = np.zeros((rows, n), dtype=bool)
    for r in range(rows):
        J[r, rng.choice(n, size=int(rng.integers(1, min(n, 3) + 1)), replace=False)] = True
    J = J if rows else None
    labels = coupling_components(H, J)
    assert_components_of(H, J, labels)
    bounds, _band = block_partition(H, J)
    # a component never crosses a cut of the contiguous partition
    block = np.searchsorted(bounds, np.arange(n), side="right")
    assert np.array_equal(block[labels], block)
    layout = _stage_layout(H, None, J, bounds)
    assert_parts_partition_the_tiles(layout, labels)
    # the component factor of a random SPD matrix on that pattern is the
    # whole-tile factor to roundoff
    A = rng.normal(size=(n, n)) * H
    A = A @ A.T + n * np.eye(n)  # SPD, with its pattern in the components
    cols = layout.cols
    padded = np.zeros((n + 1, n + 1))  # the sentinel n reads zero
    padded[:n, :n] = A
    stack = padded[cols[:, :, None], cols[:, None, :]][None]
    dd = np.arange(cols.shape[1])
    stack[0][:, dd, dd] += ~layout.real  # identity on the pad
    parts = tuple((w, index.ravel()) for w, index in layout.parts)
    comp = BatchCholeskyFactor(stack, reg=REG, parts=parts)
    whole = BatchCholeskyFactor(stack, reg=REG)
    assert comp.ok.all() and whole.ok.all()
    assert_agrees_to_roundoff(comp, whole, slice(None))
    kind = partial(BatchCholeskyFactor, parts=parts)
    assert kind(stack, reg=REG).factor_flops() == comp.factor_flops()
