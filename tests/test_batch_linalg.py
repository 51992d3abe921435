"""Batched banded Cholesky: lane independence (a lane of a batch is the
one-lane factor of its matrix, bit for bit), per-lane failure
isolation, and the escalating-regularization retry ladder."""

import warnings

import numpy as np
import pytest

import repro.batch.linalg as batch_linalg
from repro.batch import (
    BatchCholeskyFactor,
    CountingBackend,
    get_backend,
    robust_factor_batch,
    solve_qp_batch,
)
from repro.batch.backend import HOST
from repro.batch.linalg import (
    OracleCholeskyFactor,
    _triangular_inverse,
    robust_diag_factor_batch,
)
from repro.errors import SolverError
from repro.mpc.banded import (
    MIN_BLOCK,
    BandedCholeskyFactor,
    cholesky_tiles,
    tile_size,
    tril_inverse,
)
from repro.mpc.linalg import cholesky
from repro.mpc.qp import QPOptions
from tests.test_batch_backend import ALL_BACKENDS

# Both pivots pass the positivity check, yet the forward-substitution
# sweep of the inverse overflows (1e154 * 1e160 > float max): the sweep
# used to certify this lane ok=True while its D^-1 tiles held inf.
OVERFLOW = np.array([[1e-320, 1e-6], [1e-6, 1.5e308]])


def spd(n, seed, band=None, scale=1.0):
    """SPD matrix with an exact half-bandwidth: built as L L^T from a
    banded lower factor, so definiteness survives the band structure."""
    rng = np.random.default_rng(seed)
    L = np.tril(rng.normal(size=(n, n)))
    if band is not None:
        mask = np.subtract.outer(np.arange(n), np.arange(n)) <= band
        L = np.where(mask, L, 0.0)
    L[np.arange(n), np.arange(n)] = 1.0 + np.abs(L[np.arange(n), np.arange(n)])
    return scale * (L @ L.T)


def assert_lane_is_one_lane_factor(batch, i, one, b):
    """Lane ``i`` of ``batch`` holds the one-lane factor ``one``'s tiles and
    solves ``b[i]`` as ``one`` does, bit for bit."""
    host = batch.xp.to_host
    for stack in ("_D", "_Dinv", "_C"):
        assert np.array_equal(host(getattr(batch, stack))[i], getattr(one, stack)), stack
    assert np.array_equal(host(batch.solve(b))[i], one.solve(b[i]))


def diag_stack(B, n, seed, lo=0.05, hi=5.0):
    """(B, n, n) stack of exactly diagonal SPD matrices."""
    d = np.random.default_rng(seed).uniform(lo, hi, size=(B, n))
    A = np.zeros((B, n, n))
    A[:, np.arange(n), np.arange(n)] = d
    return A


class TestAgainstScalar:
    @pytest.mark.parametrize("band", [None, 0, 2, 5])
    def test_solve_matches_numpy(self, band):
        n, B = 24, 5
        A = np.stack([spd(n, 100 + i, band=band) for i in range(B)])
        rng = np.random.default_rng(0)
        b = rng.normal(size=(B, n))
        fac = BatchCholeskyFactor(A, band=band)
        assert fac.ok.all()
        x = fac.solve(b)
        for i in range(B):
            assert np.allclose(A[i] @ x[i], b[i], atol=1e-8)

    def test_matches_scalar_banded_kernel(self):
        # A single QP is the batched factor at one lane, so a lane of a
        # batch must not depend on its lane-mates: lane i's tiles and
        # solves are the one-lane factor's of A[i], bit for bit.  (27, 3)
        # and (36, 6) are the fleets' Schur complements.
        B = 4
        for n, band in ((30, 3), (27, 3), (36, 6), (50, 20), (80, 3)):
            A = np.stack([spd(n, 7 + i, band=band) for i in range(B)])
            b = np.random.default_rng(1).normal(size=(B, n))
            batch = BatchCholeskyFactor(A, band=band, reg=1e-9)
            for i in range(B):
                scalar = BandedCholeskyFactor(A[i], band, reg=1e-9)
                assert scalar.nb == batch.nb
                assert_lane_is_one_lane_factor(batch, i, scalar, b)

    def test_multi_rhs(self):
        n, B, k = 12, 3, 4
        A = np.stack([spd(n, 40 + i) for i in range(B)])
        rng = np.random.default_rng(2)
        b = rng.normal(size=(B, n, k))
        x = BatchCholeskyFactor(A).solve(b)
        assert x.shape == (B, n, k)
        for i in range(B):
            assert np.allclose(A[i] @ x[i], b[i], atol=1e-8)

    def test_band_wider_than_matrix_clamped(self):
        A = np.stack([spd(4, 3)])
        fac = BatchCholeskyFactor(A, band=99)
        assert fac.ok.all()
        b = np.ones((1, 4))
        assert np.allclose(A[0] @ fac.solve(b)[0], b[0], atol=1e-9)


class TestLaneIsolation:
    def test_indefinite_lane_flagged_others_exact(self):
        n, B = 10, 3
        A = np.stack([spd(n, i) for i in range(B)])
        A[1] = -np.eye(n)  # not SPD
        fac = BatchCholeskyFactor(A)
        assert list(fac.ok) == [True, False, True]
        b = np.ones((B, n))
        x = fac.solve(b)
        for i in (0, 2):
            assert np.allclose(A[i] @ x[i], b[i], atol=1e-8)

    def test_nonfinite_lane_never_poisons_neighbours(self):
        n = 8
        A = np.stack([spd(n, 1), np.full((n, n), np.nan), spd(n, 2)])
        fac = BatchCholeskyFactor(A, band=3)
        assert list(fac.ok) == [True, False, True]
        x = fac.solve(np.ones((3, n)))
        assert np.all(np.isfinite(x[[0, 2]]))

    def test_bad_shape_raises(self):
        with pytest.raises(SolverError):
            BatchCholeskyFactor(np.eye(3))
        fac = BatchCholeskyFactor(np.stack([spd(4, 0)]))
        with pytest.raises(SolverError):
            fac.solve(np.ones((2, 4)))


class TestRobustFactorBatch:
    def test_healthy_lanes_no_retries(self):
        A = np.stack([spd(12, i, band=2) for i in range(3)])
        fac, reg, retries = robust_factor_batch(A, 1e-9, band=2)
        assert fac.ok.all()
        assert (retries == 0).all()
        assert np.allclose(reg, 1e-9)

    def test_retry_scatters_only_failed_lanes(self):
        n = 8
        good = spd(n, 5)
        # Semidefinite lane: needs regularization to factor.
        v = np.ones((n, 1))
        bad = v @ v.T
        A = np.stack([good, bad, good])
        fac, reg, retries = robust_factor_batch(A, 0.0, band=None)
        assert fac.ok.all()
        assert retries[1] > 0 and retries[0] == 0 and retries[2] == 0
        assert reg[1] > reg[0]
        # Healthy lanes keep the bit-identical zero-reg factor.
        base = BatchCholeskyFactor(np.stack([good]), reg=0.0)
        assert np.array_equal(fac._D[0], base._D[0])

    def test_hopeless_nonfinite_lane_not_retried(self):
        A = np.stack([spd(6, 1), np.full((6, 6), np.inf)])
        fac, _reg, retries = robust_factor_batch(A, 1e-9)
        assert list(fac.ok) == [True, False]
        assert retries[1] == 0  # fail-fast: never retried


class TestTileOnlyStorage:
    """The banded factor must never hold a dense (B, npad, npad) array —
    only the (B, K, nb, nb) D / D^-1 / C tile stacks."""

    def test_no_padded_dense_copy_retained(self):
        n, band, B = 90, 4, 3
        A = np.stack([spd(n, 60 + i, band=band) for i in range(B)])
        fac = BatchCholeskyFactor(A, band=band)
        assert fac.ok.all()
        assert fac.nb < n < fac.npad  # padding is real in this config
        for name, val in vars(fac).items():
            if isinstance(val, np.ndarray) and val.ndim >= 2:
                assert val.shape[-2:] != (fac.npad, fac.npad), (
                    f"{name} is a dense padded (npad, npad) allocation"
                )
        assert fac._D.shape == (B, fac.K, fac.nb, fac.nb)
        assert fac._Dinv.shape == (B, fac.K, fac.nb, fac.nb)
        assert fac._C.shape == (B, fac.K - 1, fac.nb, fac.nb)
        b = np.ones((B, n))
        x = fac.solve(b)
        for i in range(B):
            assert np.allclose(A[i] @ x[i], b[i], atol=1e-8)


def lower_stack(B, m, seed):
    L = np.tril(np.random.default_rng(seed).normal(size=(B, m, m)))
    dg = np.arange(m)
    L[:, dg, dg] = 1.0 + np.abs(L[:, dg, dg])
    return L


class TestTriangularInverse:
    def test_matches_dense_inverse_and_stays_triangular(self):
        L = lower_stack(4, 8, 3)
        X = tril_inverse(L)
        assert np.array_equal(np.tril(X), X)
        for i in range(4):
            assert np.allclose(X[i] @ L[i], np.eye(8), atol=1e-9)

    def test_device_sweep_stays_triangular(self):
        L = lower_stack(4, 8, 3)
        X = _triangular_inverse(HOST, L)
        assert np.array_equal(np.tril(X), X)
        assert np.allclose(X, tril_inverse(L), atol=1e-12)


class TestOneTileKernel:
    """``cholesky_tiles`` / ``tril_inverse`` are the host tile kernels of
    both factors: one stacked LAPACK call, re-run tile by tile only when
    the stack raises."""

    def test_lane_tiles_do_not_depend_on_their_mates(self):
        n, band = 40, 5
        A = np.stack([spd(n, 3 + i, band=band) for i in range(3)])
        alone = BatchCholeskyFactor(A[1:2], band=band, reg=1e-9)
        healthy = BatchCholeskyFactor(A, band=band, reg=1e-9)
        mixed = BatchCholeskyFactor(
            np.stack([A[0], -np.eye(n), A[1], np.full((n, n), np.nan)]),
            band=band,
            reg=1e-9,
        )
        assert list(healthy.ok) == [True] * 3
        assert list(mixed.ok) == [True, False, True, False]
        for stack in ("_D", "_Dinv", "_C"):
            lane = getattr(alone, stack)[0]
            assert np.array_equal(getattr(healthy, stack)[1], lane), stack
            assert np.array_equal(getattr(mixed, stack)[2], lane), stack
            assert np.array_equal(
                getattr(mixed, stack)[0], getattr(healthy, stack)[0]
            ), stack

    @pytest.mark.parametrize("B", [1, 3, 4, 5, 64])
    def test_stacked_call_equals_per_tile(self, B):
        rng = np.random.default_rng(B)
        M = np.stack([spd(16, int(s)) for s in rng.integers(0, 1000, size=B)])
        L, ok = cholesky_tiles(M)
        X = tril_inverse(L)
        assert ok.all() and np.array_equal(np.tril(L), L)
        for i in range(B):
            Li, oki = cholesky_tiles(M[i])
            assert bool(oki) and np.array_equal(L[i], Li)
            assert np.array_equal(X[i], tril_inverse(Li))
            # the from-scratch column kernel stays the reference
            assert np.allclose(Li, cholesky(M[i]), rtol=0.0, atol=1e-12)

    def test_failing_tiles_flagged_with_bounded_placeholders(self):
        good = spd(6, 0)
        M = np.stack([good, -np.eye(6), np.full((6, 6), np.nan), good])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            L, ok = cholesky_tiles(M)
        assert list(ok) == [True, False, False, True]
        assert np.array_equal(L[1], np.eye(6)) and np.array_equal(L[2], np.eye(6))
        assert np.array_equal(L[0], cholesky_tiles(good)[0])
        assert not cholesky_tiles(-np.eye(3))[1]

    def test_host_factors_never_run_the_column_sweep(self, monkeypatch):
        def sweep(*_args):
            raise AssertionError("host factor ran the column sweep")

        monkeypatch.setattr(batch_linalg, "_cholesky_tiles", sweep)
        monkeypatch.setattr(batch_linalg, "_triangular_inverse", sweep)
        A = np.stack([spd(30, i, band=3) for i in range(2)])
        batch = BatchCholeskyFactor(A, band=3)
        assert batch.ok.all()
        b = np.random.default_rng(3).normal(size=(2, 30))
        for i in range(2):
            one = BandedCholeskyFactor(A[i], 3)
            assert_lane_is_one_lane_factor(batch, i, one, b)
        with pytest.raises(AssertionError, match="column sweep"):
            BatchCholeskyFactor(A, band=3, backend=CountingBackend())


class TestOracleFactor:
    """The dense oracle step's factor: the column sweep and row-by-row
    substitutions, its probe solve the certificate against overflow."""

    def test_solves_healthy_lanes_and_flags_the_rest(self):
        A = np.stack([spd(6, 0), -np.eye(6), spd(6, 1), np.full((6, 6), np.nan)])
        fac = OracleCholeskyFactor(A, reg=1e-9)
        assert list(fac.ok) == [True, False, True, False]
        assert list(fac.finite) == [True, True, True, False]
        b = np.random.default_rng(0).normal(size=(4, 6, 2))
        x = fac.solve(b)
        for i in (0, 2):
            assert np.allclose(A[i] @ x[i], b[i], atol=1e-10)
            assert np.allclose(x[i], np.linalg.solve(A[i], b[i]), atol=1e-10)

    def test_ladder_repairs_overflow_through_the_probe(self):
        # L is finite here; the overflow happens in the substitutions.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert not OracleCholeskyFactor(OVERFLOW[None]).ok[0]
            fac, reg, retries = robust_factor_batch(
                OVERFLOW[None], 0.0, kind=OracleCholeskyFactor
            )
        assert fac.ok[0] and retries[0] > 0 and reg[0] > 0.0
        assert np.all(np.isfinite(fac.solve(np.ones((1, 2)))))


class TestOverflowEscape:
    """Overflow past the pivot checks must flag the lane, not certify
    garbage; warnings stay audible for healthy batches."""

    def test_overflowing_lane_flagged_not_certified(self):
        A = np.stack([spd(2, 0), OVERFLOW, spd(2, 1)])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fac = BatchCholeskyFactor(A)
        assert list(fac.ok) == [True, False, True]
        assert not np.all(np.isfinite(fac._Dinv[1]))  # the garbage it flags

    def test_ladder_repairs_overflow_lane(self):
        # Pre-fix the ladder saw ok=True, never retried, and solves on the
        # "certified" factor returned non-finite values silently.
        A = np.stack([spd(2, 0), OVERFLOW])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fac, reg, retries = robust_factor_batch(A, 0.0)
        assert fac.ok.all()
        assert retries[1] > 0 and retries[0] == 0
        assert reg[1] > 0.0 and reg[0] == 0.0
        x = fac.solve(np.ones((2, 2)))
        assert np.all(np.isfinite(x))

    def test_scalar_ladder_repairs_overflow(self):
        # The one-lane factor carries the batched factor's certificate:
        # non-finite tiles raise, so the ladder escalates.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(SolverError, match="overflowed"):
                BandedCholeskyFactor(OVERFLOW, 1)
            factor, reg, retries = robust_factor_batch(OVERFLOW[None], 0.0, band=1)
        assert factor.ok[0] and retries[0] > 0 and reg[0] > 0.0
        assert np.all(np.isfinite(factor.solve(np.ones((1, 2)))))
        # the repaired factor is lane 1 of a batch factored at the same reg
        batch = BatchCholeskyFactor(
            np.stack([spd(2, 0), OVERFLOW]), band=1, reg=float(reg[0])
        )
        assert batch.ok.all()
        assert_lane_is_one_lane_factor(
            batch, 1, BandedCholeskyFactor(OVERFLOW, 1, reg=float(reg[0])), np.ones((2, 2))
        )

    def test_dense_ladder_repairs_overflow(self):
        # One dense tile: its L is finite here — the overflow happens in
        # the inverse — and the finiteness of D^-1 is the certificate.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            factor, reg, retries = robust_factor_batch(OVERFLOW[None], 0.0)
        assert not factor.banded
        assert factor.ok[0] and retries[0] > 0 and reg[0] > 0.0
        assert np.all(np.isfinite(factor.solve(np.ones((1, 2)))))

    def test_unfactorable_lane_surfaces_failed_in_qp_not_garbage(self):
        # A lane the whole regularization ladder cannot repair must come
        # out of the batched QP as a frozen failure (the SQP driver then
        # classifies it diverged), never as a healthy-looking solution.
        good = np.array([[4.0, 1.0], [1.0, 3.0]])
        H = np.stack([good, -1e30 * np.eye(2), good])
        g = np.tile(np.array([1.0, -1.0]), (3, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = solve_qp_batch(H, g, None, None, None, None)
        assert list(res.status) == ["converged", "failed", "converged"]
        assert np.all(np.isfinite(res.x[[0, 2]]))

    def test_healthy_batch_keeps_warnings_audible(self):
        A = np.stack([spd(6, 1), spd(6, 2)])
        fac = BatchCholeskyFactor(A)
        assert fac.ok.all()
        assert fac._suppress is False
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any FP warning would raise
            x = fac.solve(np.ones((2, 6)))
        assert np.all(np.isfinite(x))

    def test_errstate_muted_only_with_flagged_lanes_present(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            flagged = BatchCholeskyFactor(np.stack([spd(2, 0), OVERFLOW]))
        assert flagged._suppress is True


class TestSuppressFollowsFinalOk:
    """``_suppress`` is read from the ladder's *final* ``ok``: a batch the
    ladder fully repaired is healthy again, so overflow in its solves is
    audible; only a batch still carrying a flagged lane is muted."""

    # diagonal lanes, so both the tile sweep (band=None) and the diagonal
    # lane (band=0) factor them: healthy / repaired at reg=1e-12 / beyond
    # the ladder's last rung (1e-12 * 100**14 = 1e16 < 1e30)
    HEALTHY = np.diag([0.01, 0.02, 0.04])
    REPAIRABLE = np.diag([0.01, 0.0, 0.04])
    UNFACTORABLE = -1e30 * np.eye(3)

    @pytest.mark.parametrize("band", [None, 0])
    def test_repaired_batch_is_audible_again(self, band):
        A = np.stack([self.HEALTHY, self.REPAIRABLE, self.HEALTHY])
        fac, _reg, retries = robust_factor_batch(A, 0.0, band=band)
        assert fac.ok.all() and list(retries) == [0, 1, 0]
        assert fac._suppress is False
        with warnings.catch_warnings(record=True) as heard:
            warnings.simplefilter("always")
            fac.solve(np.full((3, 3), 1e308))
        assert any("overflow" in str(w.message) for w in heard)

    @pytest.mark.parametrize("band", [None, 0])
    def test_still_failed_lane_keeps_solves_muted(self, band):
        A = np.stack([self.HEALTHY, self.REPAIRABLE, self.UNFACTORABLE])
        fac, _reg, retries = robust_factor_batch(A, 0.0, band=band)
        assert list(fac.ok) == [True, True, False]
        assert retries[1] == 1 and retries[2] == 15
        assert fac._suppress is True
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fac.solve(np.full((3, 3), 1e308))


@pytest.mark.parametrize("name", ALL_BACKENDS)
class TestDiagonalLane:
    """``band=0`` is the nb=1 tiling of the same factorization: n 1x1
    tiles with no couplings, factored and solved without a sweep."""

    def test_bitwise_equal_to_the_tile_sweep(self, name):
        xp = get_backend(name)
        B, n = 4, 43  # the fleets' Phi shape
        A = diag_stack(B, n, 11)
        lane = BatchCholeskyFactor(A, band=0, reg=1e-9, backend=xp)
        sweep = BatchCholeskyFactor(A, band=1, reg=1e-9, backend=xp)
        assert (lane.nb, lane.K, lane.npad) == (1, n, n)
        assert tuple(lane._D.shape) == tuple(lane._Dinv.shape) == (B, n, 1, 1)
        assert tuple(lane._C.shape) == (B, 0, 1, 1)
        nb = tile_size(n, 1)
        assert (sweep.nb, sweep.K) == (nb, -(-n // nb))
        assert lane.banded and lane.factor_flops() == n  # n sqrt, 0 mul
        assert bool(xp.to_host(lane.ok).all())

        dd = np.arange(sweep.nb)
        for stack in ("_D", "_Dinv"):
            tiles = xp.to_host(getattr(sweep, stack))
            swept = tiles[:, :, dd, dd].reshape(B, -1)[:, :n]
            assert np.array_equal(
                xp.to_host(getattr(lane, stack))[:, :, 0, 0], swept
            )
        rng = np.random.default_rng(12)
        for rhs in (rng.normal(size=(B, n)), rng.normal(size=(B, n, 27))):
            for op in ("forward", "backward", "solve"):
                got = xp.to_host(getattr(lane, op)(rhs))
                assert got.shape == rhs.shape
                assert np.array_equal(
                    got, xp.to_host(getattr(sweep, op)(rhs))
                ), op

    def test_failed_lanes_never_touch_their_mates_and_never_warn(self, name):
        xp = get_backend(name)
        n = 9
        mates = diag_stack(2, n, 21)
        nonpos, nan, inf = (diag_stack(1, n, 22 + i)[0] for i in range(3))
        nonpos[4, 4] = -2.0
        nan[2, 2] = np.nan
        inf[7, 7] = np.inf
        A = np.stack([mates[0], nonpos, nan, mates[1], inf])
        b = np.random.default_rng(23).normal(size=(5, n, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fac = BatchCholeskyFactor(A, band=0, backend=xp)
            x = xp.to_host(fac.solve(b))
            alone = BatchCholeskyFactor(mates, band=0, backend=xp)
            x_alone = xp.to_host(alone.solve(b[[0, 3]]))
        assert list(xp.to_host(fac.ok)) == [True, False, False, True, False]
        for stack in ("_D", "_Dinv"):
            assert np.array_equal(
                xp.to_host(getattr(fac, stack))[[0, 3]],
                xp.to_host(getattr(alone, stack)),
            )
        assert np.array_equal(x[[0, 3]], x_alone)
        # flagged lanes hold bounded placeholders, never inf/nan factors
        assert np.all(np.isfinite(xp.to_host(fac._Dinv)))

    def test_ladder_repairs_a_zero_pivot_lane_only(self, name):
        xp = get_backend(name)
        n = 7
        A = diag_stack(5, n, 31)
        A[1, 3, 3] = 0.0  # semidefinite: factors once reg > 0
        A[2, 3, 3] = 0.0  # the same, but frozen by the caller
        A[4, 0, 0] = np.inf  # hopeless: fail-fast, like the scalar guard
        active = xp.asarray([True, True, False, True, True], dtype="bool")
        fac, reg, retries = robust_factor_batch(
            A, 0.0, band=0, backend=xp, active=active
        )
        assert list(xp.to_host(fac.ok)) == [True, True, False, True, False]
        assert list(xp.to_host(retries)) == [0, 1, 0, 0, 0]
        assert list(xp.to_host(reg)[[0, 1, 3]]) == [0.0, 1e-12, 0.0]
        base = BatchCholeskyFactor(A[[0, 3]], band=0, reg=0.0, backend=xp)
        for stack in ("_D", "_Dinv"):
            assert np.array_equal(
                xp.to_host(getattr(fac, stack))[[0, 3]],
                xp.to_host(getattr(base, stack)),
            )
        x = xp.to_host(fac.solve(np.ones((5, n))))
        assert np.isclose(x[1, 3], 1e12) and np.all(np.isfinite(x[[0, 1, 3]]))

    def test_band_is_a_promise_band_zero_reads_only_the_diagonal(self, name):
        # Entries outside the promised band are not read, whatever they
        # hold, and the one-lane factor reads the same.
        xp = get_backend(name)
        B, n = 3, 20
        A = np.stack([spd(n, 50 + i) for i in range(B)])  # dense, not diagonal
        only_diag = A * np.eye(n)
        fac = BatchCholeskyFactor(A, band=0, backend=xp)
        ref = BatchCholeskyFactor(only_diag, band=0, backend=xp)
        assert np.array_equal(xp.to_host(fac._Dinv), xp.to_host(ref._Dinv))
        b = np.random.default_rng(51).normal(size=(B, n))
        for i in range(B):
            assert_lane_is_one_lane_factor(fac, i, BandedCholeskyFactor(A[i], 0), b)

    @pytest.mark.parametrize("attempts", [1, 16])
    def test_in_place_ladder_is_the_factor_ladder(self, name, attempts):
        # robust_diag_factor_batch is robust_factor_batch(band=0) without
        # the factor object: the same reciprocal pivots, ok flags,
        # regularizations and retries, lane by lane and bit for bit.
        xp = get_backend(name)
        n = 8
        A = diag_stack(7, n, 61)
        A[1, 3, 3] = 0.0  # repaired at the first rung
        A[2, 5, 5] = -1e-3  # repaired a few rungs up
        A[3, 0, 0] = -1e30  # beyond the last rung
        A[4, 2, 2] = np.nan  # hopeless: fail-fast
        A[5, 6, 6] = 0.0  # frozen by the caller: never retried
        A[6, 1, 1] = np.inf
        active = xp.asarray([True] * 5 + [False, True], dtype="bool")
        d = A[:, np.arange(n), np.arange(n)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fac, reg, retries = robust_factor_batch(
                xp.asarray(A), 0.0, band=0, attempts=attempts, backend=xp,
                active=active,
            )
            inv, ok, reg_d, retries_d = robust_diag_factor_batch(
                xp.asarray(d), 0.0, attempts, backend=xp, active=active
            )
        host = xp.to_host
        assert np.array_equal(host(ok), host(fac.ok))
        assert np.array_equal(host(retries_d), host(retries))
        assert host(reg_d).tobytes() == host(reg).tobytes()
        assert host(inv).tobytes() == host(fac._Dinv)[:, :, 0, 0].tobytes()
        if attempts == 16:
            assert list(host(retries)) == [0, 1, 6, 15, 0, 0, 0]
        else:
            assert not host(retries).any()

    @pytest.mark.parametrize("band", [0, 1, 99, None])
    def test_one_by_one_and_empty_systems(self, name, band):
        xp = get_backend(name)
        A = np.array([[[4.0]], [[-1.0]], [[0.25]]])
        fac = BatchCholeskyFactor(A, band=band, backend=xp)
        assert fac.band == (None if band is None else 0)  # clamped to n-1
        assert list(xp.to_host(fac.ok)) == [True, False, True]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            x = xp.to_host(fac.solve(np.ones((3, 1))))
        assert x.shape == (3, 1) and list(x[[0, 2], 0]) == [0.25, 4.0]

        empty = BatchCholeskyFactor(np.zeros((2, 0, 0)), band=band, backend=xp)
        assert bool(xp.to_host(empty.ok).all())
        assert xp.to_host(empty.solve(np.zeros((2, 0)))).shape == (2, 0)
        assert xp.to_host(empty.solve(np.zeros((2, 0, 4)))).shape == (2, 0, 4)


class TestDiagonalLaneStaysOnDevice:
    def test_single_attempt_factor_and_solves_issue_no_host_sync(self):
        # Device callers pass attempts=1 (no ladder); the diagonal lane
        # must then factor and solve without one download or upload.
        A = diag_stack(4, 12, 41)
        xp = CountingBackend()
        A_dev, b_dev = xp.from_host(A), xp.from_host(np.ones((4, 12, 2)))
        uploads = xp.upload_count
        fac, _reg, _retries = robust_factor_batch(
            A_dev, 1e-9, band=0, attempts=1, backend=xp
        )
        fac.solve(b_dev)
        assert fac._block and fac.nb == 1 and fac._suppress is False
        assert xp.sync_count == 0 and xp.upload_count == uploads


class TestTileRule:
    """One tile rule, at every lane count: a matrix that fits in two tiles is
    factored as one tile of ``n`` (two tiles already hold its whole lower
    triangle); the flop meters still count the banded algorithm."""

    @pytest.mark.parametrize("band", [1, 3, 16, 20, 31])
    def test_one_tile_exactly_when_n_fits_in_two(self, band):
        for n in range(band + 1, 2 * max(band, MIN_BLOCK) + 12, 5):
            A = np.stack([spd(n, n, band=band)])
            batch = BatchCholeskyFactor(A, band=band)
            scalar = BandedCholeskyFactor(A[0], band)
            assert_lane_is_one_lane_factor(batch, 0, scalar, np.ones((1, n)))
            one_tile = n <= 2 * max(band, MIN_BLOCK)
            assert (batch.K == 1) == one_tile == (scalar.K == 1), (n, band)
            assert batch.nb == scalar.nb == (n if one_tile else max(band, MIN_BLOCK))
            assert batch.factor_flops() == sum(
                banded_flops(n, min(band, n - 1)).values()
            )


def banded_flops(n, band):
    from repro.mpc.banded import flop_counts_banded_cholesky

    return flop_counts_banded_cholesky(n, band)


def block_stack(B, K, s, seed):
    """(B, K, s, s) stack of SPD blocks."""
    return np.stack(
        [np.stack([spd(s, seed + 97 * i + k) for k in range(K)]) for i in range(B)]
    )


@pytest.mark.parametrize("name", ALL_BACKENDS)
class TestBlockMode:
    """A (B, K, s, s) stack is Phi's stage blocks: one tile-kernel call over
    its B*K tiles, ``ok`` per lane over all of a lane's blocks."""

    def test_blocks_match_the_scalar_block_factor(self, name):
        xp = get_backend(name)
        B, K, s = 3, 5, 7
        M = block_stack(B, K, s, 1)
        fac = BatchCholeskyFactor(M, reg=1e-9, backend=xp)
        assert (fac.K, fac.nb, fac.band) == (K, s, s - 1)
        assert fac.banded and bool(xp.to_host(fac.ok).all())
        assert tuple(fac._C.shape) == (B, 0, s, s)
        rhs = np.random.default_rng(2).normal(size=(B, K, s))
        x = xp.to_host(fac.solve(rhs))
        for i in range(B):
            one = BandedCholeskyFactor(M[i], reg=1e-9)
            if xp.is_device:
                Dinv = xp.to_host(fac._Dinv)[i]
                assert np.allclose(Dinv, one._Dinv, rtol=1e-12, atol=1e-14)
            else:
                assert_lane_is_one_lane_factor(fac, i, one, rhs)
            for k in range(K):
                assert np.allclose(M[i, k] @ x[i, k], rhs[i, k], atol=1e-9)
        multi = xp.to_host(fac.forward(np.stack([rhs] * 2, axis=-1)))
        assert multi.shape == (B, K, s, 2)
        assert fac.factor_flops() == K * (s * (s * s - 1) // 3 + s * (s - 1) // 2 + s)

    def test_non_spd_block_fails_only_its_lane(self, name):
        xp = get_backend(name)
        M = block_stack(3, 4, 5, 7)
        M[1, 2] = -np.eye(5)  # one block of lane 1 is not SPD
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fac = BatchCholeskyFactor(M, backend=xp)
            alone = BatchCholeskyFactor(M[[0, 2]], backend=xp)
        assert list(xp.to_host(fac.ok)) == [True, False, True]
        for stack in ("_D", "_Dinv"):
            assert np.array_equal(
                xp.to_host(getattr(fac, stack))[[0, 2]],
                xp.to_host(getattr(alone, stack)),
            )
        assert np.all(np.isfinite(xp.to_host(fac._Dinv)))

    def test_ladder_repairs_on_host_and_freezes_on_device(self, name):
        xp = get_backend(name)
        M = block_stack(3, 4, 5, 11)
        v = np.ones((5, 1))
        M[1, 3] = v @ v.T  # semidefinite: factors once reg > 0
        fac, reg, retries = robust_factor_batch(M, 0.0, backend=xp)
        assert bool(xp.to_host(fac.ok).all())
        assert list(xp.to_host(retries)) == [0, 1, 0]
        assert xp.to_host(reg)[1] > 0.0
        base = BatchCholeskyFactor(M[[0, 2]], reg=0.0, backend=xp)
        assert np.array_equal(
            xp.to_host(fac._Dinv)[[0, 2]], xp.to_host(base._Dinv)
        )
        # device mode: one attempt, the lane freezes, no host sync
        dev = CountingBackend()
        M_dev = dev.from_host(M)
        fac, _reg, retries = robust_factor_batch(M_dev, 0.0, attempts=1, backend=dev)
        assert dev.sync_count == 0
        assert list(dev.to_host(fac.ok)) == [True, False, True]


class TestStageStepSyncs:
    """The hinted solve reads its structure with one download (the lane
    envelope) and adds no per-iteration host sync on a device."""

    def _syncs(self, robot, bandwidth_hint, max_iterations):
        from tests.test_batch_qp import first_subproblem, perturbed_lanes

        qp = first_subproblem(robot, 5)
        xp = CountingBackend()
        solve_qp_batch(
            *perturbed_lanes(qp, 3),
            QPOptions(max_iterations=max_iterations),
            bandwidth=qp[-1] if bandwidth_hint else None,
            backend=xp,
            sync_interval=0,
        )
        return xp.sync_count

    @pytest.mark.parametrize("robot", ["MobileRobot", "Quadrotor"])
    def test_one_structure_download_and_none_per_iteration(self, robot):
        hinted = self._syncs(robot, True, 3)
        assert hinted == self._syncs(robot, True, 30)
        assert hinted == self._syncs(robot, False, 3) + 1
