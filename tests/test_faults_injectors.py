"""Fault schedule and injector semantics: determinism and per-kind effects."""

import numpy as np
import pytest

from repro.batch.contract import SolveBudget
from repro.errors import ReproError
from repro.faults import (
    BUILTIN_SCHEDULES,
    EngineFaultInjector,
    FaultSchedule,
    FaultSpec,
    SessionFaultInjector,
    builtin_schedule,
)


def schedule_of(*specs, seed=0):
    return FaultSchedule(specs=tuple(specs), seed=seed)


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ReproError, match="unknown fault kind"):
            FaultSpec("meteor_strike")

    def test_empty_window_rejected(self):
        with pytest.raises(ReproError, match="window"):
            FaultSpec("spike", start=5, stop=5)

    def test_layer_mapping(self):
        assert FaultSpec("spike").layer == "sensor"
        assert FaultSpec("chol_fail").layer == "solver"
        assert FaultSpec("worker_crash").layer == "serve"

    def test_targeting(self):
        spec = FaultSpec("spike", sessions=(0, 2))
        assert spec.targets(0) and spec.targets(2) and not spec.targets(1)
        assert FaultSpec("spike").targets(17)


class TestScheduleDeterminism:
    def test_fires_is_pure_function_of_seed_tick_session(self):
        spec = FaultSpec("spike", start=0, stop=50, probability=0.5)
        a = schedule_of(spec, seed=7)
        b = schedule_of(spec, seed=7)
        pattern_a = [
            (t, s) for t in range(50) for s in range(3) if a.fires(t, s)
        ]
        pattern_b = [
            (t, s) for t in range(50) for s in range(3) if b.fires(t, s)
        ]
        assert pattern_a == pattern_b
        assert 0 < len(pattern_a) < 150  # probabilistic, not all-or-nothing

    def test_different_seed_different_pattern(self):
        spec = FaultSpec("spike", start=0, stop=60, probability=0.5)
        a = schedule_of(spec, seed=1)
        b = schedule_of(spec, seed=2)
        fa = [bool(a.fires(t, 0)) for t in range(60)]
        fb = [bool(b.fires(t, 0)) for t in range(60)]
        assert fa != fb

    def test_injector_payloads_replay(self):
        sched = schedule_of(FaultSpec("nan_state", start=0, stop=5))
        x = np.arange(4.0)
        outs = []
        for _ in range(2):
            inj = SessionFaultInjector(sched, session_index=1)
            inj.advance(2)
            outs.append(inj.corrupt_state(x))
        assert np.array_equal(np.isnan(outs[0]), np.isnan(outs[1]))

    def test_clear_tick(self):
        sched = schedule_of(
            FaultSpec("spike", start=0, stop=4),
            FaultSpec("chol_fail", start=6, stop=9),
        )
        assert sched.clear_tick == 9
        assert not sched.fires(9, 0)
        assert sched.fires(8, 0)


class TestSensorFaults:
    def test_nan_state(self):
        inj = SessionFaultInjector(
            schedule_of(FaultSpec("nan_state", stop=3, magnitude=2))
        )
        inj.advance(0)
        out = inj.corrupt_state(np.zeros(6))
        assert np.isnan(out).sum() == 2

    def test_inf_state(self):
        inj = SessionFaultInjector(schedule_of(FaultSpec("inf_state", stop=3)))
        inj.advance(1)
        out = inj.corrupt_state(np.zeros(4))
        assert np.isinf(out).sum() == 1

    def test_dropout_serves_previous_clean_measurement(self):
        inj = SessionFaultInjector(
            schedule_of(FaultSpec("dropout", start=1, stop=2))
        )
        inj.advance(0)
        first = inj.corrupt_state(np.array([1.0, 2.0]))
        assert np.array_equal(first, [1.0, 2.0])
        inj.advance(1)
        stale = inj.corrupt_state(np.array([9.0, 9.0]))
        assert np.array_equal(stale, [1.0, 2.0])
        inj.advance(2)
        fresh = inj.corrupt_state(np.array([5.0, 5.0]))
        assert np.array_equal(fresh, [5.0, 5.0])

    def test_spike_is_finite_additive_noise(self):
        inj = SessionFaultInjector(
            schedule_of(FaultSpec("spike", stop=3, magnitude=0.1))
        )
        inj.advance(0)
        x = np.ones(5)
        out = inj.corrupt_state(x)
        assert np.all(np.isfinite(out))
        assert not np.array_equal(out, x)

    def test_saturate_clips_input(self):
        inj = SessionFaultInjector(
            schedule_of(FaultSpec("saturate", stop=3, magnitude=0.2))
        )
        inj.advance(0)
        u = inj.corrupt_input(np.array([1.0, -3.0, 0.1]))
        assert np.array_equal(u, [0.2, -0.2, 0.1])

    def test_no_faults_outside_window(self):
        inj = SessionFaultInjector(
            schedule_of(FaultSpec("nan_state", start=5, stop=6))
        )
        inj.advance(0)
        x = np.ones(3)
        assert np.array_equal(inj.corrupt_state(x), x)
        assert np.array_equal(inj.corrupt_input(x), x)


class TestSolverFaults:
    def test_chol_fail_forces_exactly_n_failures(self):
        inj = SessionFaultInjector(
            schedule_of(FaultSpec("chol_fail", stop=2, magnitude=3))
        )
        inj.advance(0)
        fails = [inj.force_failure() for _ in range(5)]
        assert fails == [True, True, True, False, False]
        inj.advance(1)  # the budget refreshes each tick in the window
        assert inj.force_failure()

    def test_budget_starve_replaces_budget(self):
        inj = SessionFaultInjector(
            schedule_of(FaultSpec("budget_starve", stop=2, magnitude=1e-3))
        )
        inj.advance(0)
        replaced = inj.corrupt_budget(SolveBudget(wall_clock=0.5))
        assert replaced.wall_clock == 1e-3
        inj.advance(5)
        untouched = SolveBudget(wall_clock=0.5)
        assert inj.corrupt_budget(untouched) is untouched

    def test_illcond_preserves_symmetry(self):
        inj = SessionFaultInjector(
            schedule_of(FaultSpec("illcond", stop=2, magnitude=1e-6))
        )
        inj.advance(0)
        rng = np.random.default_rng(0)
        M = rng.normal(size=(5, 5))
        A = M @ M.T + 5 * np.eye(5)
        out = inj.transform_matrix(A)
        assert not np.array_equal(out, A)
        assert np.allclose(out, out.T)
        # Congruence transform: conditioning explodes, definiteness doesn't.
        assert np.linalg.cond(out) > 1e3 * np.linalg.cond(A)
        inj.advance(5)
        assert inj.transform_matrix(A) is A


class TestEngineInjector:
    def test_worker_crash_directive_with_tick_offset(self):
        sched = schedule_of(FaultSpec("worker_crash", start=2, stop=3))
        inj = EngineFaultInjector(sched, ["s0", "s1"])
        # The engine's tick counter is 1-based: campaign tick 2 == engine 3.
        assert inj.on_dispatch(2, "s0") is None
        assert inj.on_dispatch(3, "s0") == {"kind": "worker_crash"}
        assert inj.on_dispatch(4, "s0") is None

    def test_slow_directive_carries_delay(self):
        sched = schedule_of(
            FaultSpec("slow_worker", start=0, stop=3, magnitude=0.02)
        )
        inj = EngineFaultInjector(sched, ["s0"])
        assert inj.on_dispatch(1, "s0") == {"kind": "slow", "delay_s": 0.02}

    def test_crash_preempts_slow(self):
        sched = schedule_of(
            FaultSpec("slow_worker", start=0, stop=5),
            FaultSpec("worker_crash", start=0, stop=5),
        )
        inj = EngineFaultInjector(sched, ["s0"])
        assert inj.on_dispatch(1, "s0") == {"kind": "worker_crash"}

    def test_unknown_session_untouched(self):
        sched = schedule_of(FaultSpec("worker_crash", start=0, stop=99))
        inj = EngineFaultInjector(sched, ["s0"])
        assert inj.on_dispatch(1, "ghost") is None

    def test_session_targeting(self):
        sched = schedule_of(
            FaultSpec("worker_crash", start=0, stop=99, sessions=(1,))
        )
        inj = EngineFaultInjector(sched, ["s0", "s1"])
        assert inj.on_dispatch(1, "s0") is None
        assert inj.on_dispatch(1, "s1") is not None


class TestBuiltinSchedules:
    @pytest.mark.parametrize("name", BUILTIN_SCHEDULES)
    def test_builtin_clears_before_sixty_percent(self, name):
        for ticks in (10, 40, 200):
            sched = builtin_schedule(name, ticks=ticks, seed=3)
            assert sched.specs
            assert 0 < sched.clear_tick <= max(2, int(round(0.6 * ticks)))
            assert sched.name == name

    def test_unknown_builtin_rejected(self):
        with pytest.raises(ReproError, match="unknown builtin"):
            builtin_schedule("kraken")

    def test_to_dict_fills_default_magnitudes(self):
        sched = builtin_schedule("smoke", ticks=40)
        doc = sched.to_dict()
        assert doc["name"] == "smoke"
        assert all(s["magnitude"] is not None for s in doc["specs"])
