"""Padding equivalence: a horizon-h solve inside a horizon-H bucket must
reproduce the native horizon-h plan (the serve2 correctness cornerstone)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import ServeError
from repro.mpc.task import TERMINAL, Constraint, Task
from repro.robots import build_benchmark
from repro.serve2.bucketing import DEFAULT_RUNGS, HorizonBuckets
from repro.serve2.padding import (
    PAD_RUN,
    PAD_TERM,
    PaddedBinding,
    crop_result,
    gate_columns,
    pad_reference,
    pad_warm_start,
    padded_task,
)


def _native_ref(bench):
    return bench.ref if bench.ref.size else None


def _solve_pair(robot, horizon, bucket, **options):
    """(native result, cropped padded result, native problem); ``options``
    override both solvers' :class:`IPMOptions`."""
    bench = build_benchmark(robot)
    native = bench.transcribe(horizon=horizon)
    binding = PaddedBinding(bench, bucket)
    binding.scalar_solver.options = replace(
        binding.scalar_solver.options, **options
    )
    native_result = bench.make_solver(native, **options).solve(
        bench.x0, ref=_native_ref(bench)
    )
    ref_pad = pad_reference(_native_ref(bench), native.nref, horizon, bucket)
    padded_result = binding.scalar_solver.solve(bench.x0, ref=ref_pad)
    return native_result, binding.crop(padded_result, native), native


class TestBuckets:
    def test_default_rungs_round_up(self):
        b = HorizonBuckets()
        assert b.bucket_for(5) == 8
        assert b.bucket_for(8) == 8
        assert b.bucket_for(9) == 16
        assert b.bucket_for(1) == 1

    def test_past_top_rung_is_identity(self):
        b = HorizonBuckets(rungs=(4, 8))
        assert b.bucket_for(13) == 13

    def test_padding_waste(self):
        b = HorizonBuckets()
        assert b.padding_waste(8) == 0.0
        assert b.padding_waste(6) == pytest.approx(2 / 8)

    def test_rungs_validated(self):
        with pytest.raises(ServeError):
            HorizonBuckets(rungs=())
        with pytest.raises(ServeError):
            HorizonBuckets(rungs=(0, 4))
        with pytest.raises(ServeError):
            HorizonBuckets().bucket_for(0)


class TestGates:
    def test_gate_columns(self):
        g = gate_columns(8, 5)
        assert g.shape == (9, 2)
        np.testing.assert_array_equal(g[:, 0], [1, 1, 1, 1, 1, 0, 0, 0, 0])
        np.testing.assert_array_equal(g[:, 1], [0, 0, 0, 0, 0, 1, 0, 0, 0])

    def test_gate_columns_unpadded(self):
        g = gate_columns(4, 4)
        np.testing.assert_array_equal(g[:, 0], [1, 1, 1, 1, 0])
        np.testing.assert_array_equal(g[:, 1], [0, 0, 0, 0, 1])

    def test_horizon_must_fit(self):
        with pytest.raises(ServeError):
            gate_columns(4, 5)

    def test_pad_reference_broadcasts_flat_ref(self):
        ref = pad_reference(np.array([1.0, 2.0]), 2, 3, 4)
        assert ref.shape == (5, 4)
        np.testing.assert_array_equal(ref[:, 0], np.ones(5))
        np.testing.assert_array_equal(ref[:, 2], [1, 1, 1, 0, 0])

    def test_pad_reference_no_refs(self):
        ref = pad_reference(None, 0, 2, 4)
        assert ref.shape == (5, 2)


class TestPaddedTask:
    def test_appends_gate_references(self):
        bench = build_benchmark("CartPole")
        task = padded_task(bench.task)
        assert task.references[-2:] == (PAD_RUN, PAD_TERM)

    def test_terminal_terms_get_running_copies(self):
        bench = build_benchmark("MobileRobot")
        task = padded_task(bench.task)
        native_terminal = [p.name for p in bench.task.terminal_penalties]
        running_names = {p.name for p in task.running_penalties}
        for name in native_terminal:
            assert f"{name}__pad_stage" in running_names

    def test_equality_constraints_rejected(self):
        bench = build_benchmark("CartPole")
        eq = Constraint("pin", bench.model.state_vars[0], 0.0, 0.0, TERMINAL)
        task = Task(
            "eq_task",
            bench.model,
            bench.task.penalties,
            constraints=(eq,),
            references=bench.task.references,
        )
        with pytest.raises(ServeError):
            padded_task(task)


class TestWarmAndCrop:
    def test_pad_warm_roundtrip(self):
        bench = build_benchmark("CartPole")
        native = bench.transcribe(horizon=5)
        binding = PaddedBinding(bench, 8)
        z = native.initial_guess(bench.x0)
        z_pad = pad_warm_start(z, native, binding.problem)
        assert z_pad.shape == (binding.problem.nz,)
        xs_p, us_p = binding.problem.split(z_pad)
        xs_n, us_n = native.split(z)
        np.testing.assert_array_equal(xs_p[:6], xs_n)
        np.testing.assert_array_equal(us_p[:5], us_n)
        # tail rolls the dynamics out under trim (same policy as the
        # native cold-start guess), so the pad boundary has no defect
        u_trim = np.array(bench.model.trim_inputs())
        np.testing.assert_array_equal(us_p[5:], np.tile(u_trim, (3, 1)))
        x_next = binding.problem._F.call_positional(
            *xs_n[-1].tolist(), *u_trim.tolist()
        )
        lo, hi = bench.model.state_bounds()
        np.testing.assert_allclose(
            xs_p[6], np.clip(x_next, np.maximum(lo, -1e6), np.minimum(hi, 1e6))
        )
        assert np.all(np.isfinite(xs_p))

    def test_crop_shapes_and_scalars(self):
        bench = build_benchmark("CartPole")
        native = bench.transcribe(horizon=5)
        binding = PaddedBinding(bench, 8)
        ref_pad = pad_reference(_native_ref(bench), native.nref, 5, 8)
        res = binding.scalar_solver.solve(bench.x0, ref=ref_pad)
        cropped = crop_result(res, binding.problem, native)
        assert cropped.z.shape == (native.nz,)
        assert cropped.nu is None and cropped.lam is None
        assert cropped.status == res.status
        assert cropped.iterations == res.iterations


# Horizons chosen where the robot's *native* solve converges (the
# quadrotor needs h >= 8); rungs need not be powers of two, so the
# quadrotor case pads 8 -> 10 instead of 8 -> 16.
EQUIV_CASES = [
    ("CartPole", 6, 8),
    ("MobileRobot", 6, 8),
    ("Quadrotor", 8, 10),
]


class TestPaddedEquivalence:
    @pytest.mark.parametrize("robot,horizon,bucket", EQUIV_CASES)
    def test_padded_bucket_matches_native(self, robot, horizon, bucket):
        # Whole plans agree to the KKT test's reach, not to where the
        # control-grade stop leaves their tails (Quadrotor: 5.4e-4).
        native_result, cropped, native = _solve_pair(
            robot, horizon, bucket, input_tolerance=None
        )
        assert native_result.converged
        assert cropped.converged
        scale = max(1.0, float(np.max(np.abs(native_result.z))))
        err = float(np.max(np.abs(cropped.z - native_result.z))) / scale
        assert err < 5e-4, f"{robot}: padded-vs-native error {err:.2e}"

    def test_unpadded_rung_matches_native(self):
        native_result, cropped, _ = _solve_pair("CartPole", horizon=8, bucket=8)
        scale = max(1.0, float(np.max(np.abs(native_result.z))))
        err = float(np.max(np.abs(cropped.z - native_result.z))) / scale
        assert err < 5e-5

    def test_first_input_matches(self):
        # the quantity the plant actually receives
        native_result, cropped, native = _solve_pair(
            "MobileRobot", horizon=5, bucket=8
        )
        _, us_n = native.split(native_result.z)
        _, us_p = native.split(cropped.z)
        np.testing.assert_allclose(us_p[0], us_n[0], atol=1e-4)


class TestPaddedBatchLane:
    def test_batch_solver_built_for_gauss_newton(self):
        bench = build_benchmark("CartPole")
        binding = PaddedBinding(bench, 8)
        assert binding.batchable

    def test_mixed_horizon_lanes_match_scalar(self):
        """Two sessions at h=5 and h=8 co-batched in one bucket-8 solve
        must each match their own native scalar solve."""
        bench = build_benchmark("CartPole")
        binding = PaddedBinding(bench, 8)
        payloads = []
        natives = {}
        for h in (5, 8):
            native = bench.transcribe(horizon=h)
            natives[h] = native
            payloads.append(
                {
                    "x": bench.x0,
                    "ref": pad_reference(_native_ref(bench), native.nref, h, 8),
                    "deadline_s": None,
                }
            )
        results, report = binding.batch_solver.solve_payloads(payloads)
        assert report.lanes == 2
        for (h, native), res in zip(natives.items(), results):
            cropped = crop_result(res, binding.problem, native)
            ref_n = _native_ref(bench)
            native_res = bench.make_solver(native).solve(bench.x0, ref=ref_n)
            scale = max(1.0, float(np.max(np.abs(native_res.z))))
            err = float(np.max(np.abs(cropped.z - native_res.z))) / scale
            assert err < 5e-4, f"h={h}: batched padded error {err:.2e}"


def test_default_rungs_cover_paper_horizons():
    b = HorizonBuckets(DEFAULT_RUNGS)
    for h in (5, 10, 20, 32, 60):
        assert b.bucket_for(h) >= h
