"""Per-session QP-method selection threaded end to end through serving:
config validation, the ``apply_qp_method`` options swap, engine paths
(v1 inline, v2 batched), the loadgen surface, and the degradation ladder
running on the ADMM solver."""

import numpy as np
import pytest

from repro.errors import ServeError
from repro.robots import build_benchmark
from repro.serve import SessionConfig
from repro.serve.loadgen import LoadConfig, run_load
from repro.serve.session import ControlSession, apply_qp_method
from repro.serve2 import AsyncServeEngine, Serve2Config


class TestConfigValidation:
    def test_session_rejects_unknown_method(self):
        with pytest.raises(ServeError):
            SessionConfig(robot="MobileRobot", qp_method="sgd")

    def test_engine_rejects_unknown_method(self):
        with pytest.raises(ServeError):
            Serve2Config(qp_method="sgd")

    def test_defaults_are_ipm(self):
        assert SessionConfig(robot="MobileRobot").qp_method == "ipm"
        assert Serve2Config().qp_method == "ipm"
        assert LoadConfig().qp_method == "ipm"


class TestApplyQpMethod:
    def test_swaps_options_in_place(self):
        bench = build_benchmark("MobileRobot")
        solver = bench.make_solver(bench.transcribe(horizon=5))
        assert solver.options.qp.method == "ipm"
        apply_qp_method(solver, "admm")
        assert solver.options.qp.method == "admm"
        # idempotent — no needless dataclass churn
        opts = solver.options
        apply_qp_method(solver, "admm")
        assert solver.options is opts

    def test_from_benchmark_threads_method(self):
        config = SessionConfig(
            robot="MobileRobot", horizon=5, qp_method="admm"
        )
        session = ControlSession.from_benchmark("s0", config)
        assert session.controller.solver.options.qp.method == "admm"
        assert session.solve_payload(np.zeros(3))["qp_method"] == "admm"


class TestServeEndToEnd:
    def _load(self, **overrides):
        cfg = dict(
            sessions=2,
            ticks=3,
            robots=("MobileRobot",),
            horizon=5,
            deadline_s=None,
            qp_method="admm",
        )
        cfg.update(overrides)
        return run_load(LoadConfig(**cfg))

    def test_inline_fleet_serves_with_admm(self):
        report = self._load()
        assert report.ok
        assert report.metrics.fleet.steps == 6
        assert report.metrics.fleet.fallbacks == 0

    def test_batched_fleet_serves_with_admm(self):
        report = self._load(
            sessions=3, engine="v2", rungs=(5,), array_backend="numpy"
        )
        assert report.ok
        assert report.metrics.fleet.steps == 9
        assert report.metrics.batch_solves == 3

    def test_degradation_ladder_runs_on_admm(self):
        """An impossible deadline must walk ADMM sessions down the same
        ladder as IPM ones: fallbacks served, sessions degraded — never
        crashed."""
        report = self._load(sessions=2, ticks=4, deadline_s=1e-6,
                            degrade_after=2)
        assert report.ok  # degraded, not crashed
        assert report.metrics.fleet.fallbacks > 0
        assert any(
            state == "degraded" for state in report.session_states.values()
        )

    def test_admm_and_ipm_fleets_agree_on_outcome_shape(self):
        ipm = self._load(qp_method="ipm")
        admm = self._load()
        assert ipm.metrics.fleet.steps == admm.metrics.fleet.steps
        assert ipm.ok and admm.ok


class TestEngineSelection:
    def test_batch_solver_inherits_engine_method(self):
        engine = AsyncServeEngine(
            Serve2Config(rungs=(5,), array_backend="numpy", qp_method="admm")
        )
        try:
            sid = engine.create_session(
                SessionConfig(
                    robot="MobileRobot",
                    horizon=5,
                    deadline_s=None,
                    qp_method="admm",
                )
            )
            bench, _ = engine.binding("MobileRobot", 5)
            report = engine.tick(
                {sid: (np.asarray(bench.x0, dtype=float), None)}
            )
            out = report.outcomes[sid]
            assert out.status == "ok"
            assert np.all(np.isfinite(out.u))
            binding = engine._shards[0].bindings[("MobileRobot", 5)]
            assert binding.batch_solver.qp_method == "admm"
        finally:
            engine.shutdown()
