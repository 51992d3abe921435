"""Tests for the banded structure helpers of :mod:`repro.batch.host`."""

import numpy as np

from repro.batch.host import bandwidth_of


def banded_spd(n, band, seed=0):
    """A random SPD matrix with the given half-bandwidth.

    Off-diagonals are bounded in [-1, 1] and the diagonal exceeds the
    worst-case row sum, so strict diagonal dominance guarantees SPD.
    """
    rng = np.random.default_rng(seed)
    A = np.zeros((n, n))
    for d in range(1, band + 1):
        vals = rng.uniform(-1.0, 1.0, size=n - d)
        idx = np.arange(n - d)
        A[idx + d, idx] = vals
        A[idx, idx + d] = vals
    A += (2.0 * band + 2.0) * np.eye(n)
    return A


class TestStorage:
    def test_bandwidth_of(self):
        A = banded_spd(10, 3)
        assert bandwidth_of(A) == 3
        assert bandwidth_of(np.eye(5)) == 0


class TestMPCStructure:
    def test_kkt_phi_is_banded_in_stage_order(self):
        """The condensed Hessian of a stage-interleaved MPC problem has the
        half-bandwidth the cost model assumes (~2 nx + nu)."""
        from repro.robots import build_benchmark

        b = build_benchmark("MobileRobot")
        p = b.transcribe(horizon=6)
        z = p.initial_guess(b.x0)
        H = p.objective_gauss_newton(z, b.ref)
        # Permute into stage-interleaved order [x0, u0, x1, u1, ...].
        perm = []
        for k in range(p.N):
            perm.extend(range(p.state_slice(k).start, p.state_slice(k).stop))
            perm.extend(range(p.input_slice(k).start, p.input_slice(k).stop))
        perm.extend(range(p.state_slice(p.N).start, p.state_slice(p.N).stop))
        Hp = H[np.ix_(perm, perm)]
        assert bandwidth_of(Hp, tol=1e-12) <= 2 * p.nx + p.nu
