"""Load-generator tests: seeded jitter/mix determinism, horizon rotation,
bucketing and shards."""

import pytest

from repro.errors import ServeError
from repro.serve.loadgen import LoadConfig, resolve_seed, run_load


def quick(**kwargs):
    kwargs.setdefault("sessions", 3)
    kwargs.setdefault("ticks", 2)
    kwargs.setdefault("robots", ("CartPole",))
    kwargs.setdefault("horizon", 5)
    kwargs.setdefault("deadline_s", None)
    kwargs.setdefault("x0_noise", 0.0)
    return LoadConfig(**kwargs)


class TestSeedResolution:
    def test_explicit_seed_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SEED", "7")
        assert resolve_seed(3) == 3

    def test_env_seed_used_when_unset(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SEED", "7")
        assert resolve_seed(None) == 7
        monkeypatch.delenv("REPRO_BENCH_SEED")
        assert resolve_seed(None) == 0


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"arrival_jitter": -0.1},
            {"arrival_jitter": 1.0},
            {"robot_mix": "shuffle"},
            {"sessions": 0},
            {"horizons": ()},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ServeError):
            LoadConfig(**kwargs)


class TestJitterAndMix:
    def test_jitter_skips_some_arrivals_deterministically(self):
        cfg = quick(ticks=4, arrival_jitter=0.5, seed=0)
        a = run_load(cfg)
        b = run_load(cfg)
        full = run_load(quick(ticks=4, seed=0))
        assert a.metrics.fleet.steps == b.metrics.fleet.steps
        assert a.metrics.fleet.steps < full.metrics.fleet.steps

    def test_jitter_stream_does_not_perturb_x0_draws(self):
        base = run_load(quick(x0_noise=0.02, seed=1))
        jittered = run_load(quick(x0_noise=0.02, seed=1, arrival_jitter=0.3))
        # same seed -> same fleet; only attendance differs
        assert set(base.session_states) == set(jittered.session_states)

    def test_sampled_robot_mix_is_seeded(self):
        cfg = quick(
            sessions=6,
            robots=("CartPole", "MobileRobot"),
            robot_mix="sample",
            seed=2,
        )
        a = run_load(cfg)
        b = run_load(cfg)
        assert a.metrics.fleet.steps == b.metrics.fleet.steps
        assert set(a.session_states) == set(b.session_states)


class TestHorizonsAndEngines:
    def test_horizons_cycle_across_sessions(self):
        report = run_load(quick(sessions=4, horizons=(5, 6)))
        assert report.ok
        assert report.metrics.fleet.steps == 8

    def test_v2_engine_cobatches_mixed_horizons(self):
        report = run_load(
            quick(sessions=4, horizons=(5, 6), rungs=(8,))
        )
        assert report.ok
        assert report.metrics.batch_solves >= 1
        assert report.metrics.mean_batch > 1.0  # bucketing actually co-batched

    def test_v2_sharded_run(self):
        report = run_load(quick(sessions=4, shards=2))
        assert report.ok
        assert report.metrics.fleet.steps == 8
