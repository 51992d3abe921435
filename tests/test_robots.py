"""Tests for the six Table III benchmark robots."""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.experiments.tables import PAPER_TABLE3
from repro.mpc.controller import integrate_plant
from repro.robots import (
    BENCHMARK_NAMES,
    all_benchmarks,
    build_benchmark,
    table_iii_row,
)
from repro.symbolic import compile_function


class TestRegistry:
    def test_all_six_present(self):
        assert set(BENCHMARK_NAMES) == set(PAPER_TABLE3)

    def test_unknown_name_raises(self):
        with pytest.raises(ReproError, match="unknown benchmark"):
            build_benchmark("WarpDrive")

    def test_all_benchmarks_order(self):
        names = [b.name for b in all_benchmarks()]
        assert names == list(BENCHMARK_NAMES)


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
class TestTableIII:
    def test_row_matches_paper(self, name):
        row = table_iii_row(build_benchmark(name))
        expected = PAPER_TABLE3[name]
        assert row["states"] == expected["states"]
        assert row["inputs"] == expected["inputs"]
        assert row["penalties"] == expected["penalties"]
        assert row["constraints"] == expected["constraints"]


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
class TestModels:
    def test_defaults_consistent(self, name):
        b = build_benchmark(name)
        assert b.x0.shape == (b.model.n_states,)
        assert b.ref.shape == (len(b.task.references),)
        assert b.dt > 0

    def test_dynamics_finite_at_default_state(self, name):
        b = build_benchmark(name)
        f = compile_function(
            list(b.model.dynamics_exprs),
            list(b.model.state_vars) + list(b.model.input_vars),
        )
        u = np.array(b.model.trim_inputs())
        out = f(np.concatenate([b.x0, u]))
        assert np.all(np.isfinite(out))

    def test_initial_state_within_bounds(self, name):
        b = build_benchmark(name)
        lo, hi = b.model.state_bounds()
        assert np.all(b.x0 >= np.asarray(lo) - 1e-9)
        assert np.all(b.x0 <= np.asarray(hi) + 1e-9)

    def test_transcribes(self, name):
        b = build_benchmark(name)
        p = b.transcribe(horizon=4)
        assert p.nz == 5 * b.model.n_states + 4 * b.model.n_inputs


class TestPhysics:
    def test_quadrotor_hover_equilibrium(self):
        b = build_benchmark("Quadrotor")
        p = b.transcribe(horizon=2)
        hover = np.array(b.model.trim_inputs())
        x = np.zeros(12)
        out = integrate_plant(p, x, hover, dt=0.1)
        # Hover thrust exactly balances gravity: the state stays put.
        assert np.allclose(out, x, atol=1e-9)

    def test_quadrotor_free_fall(self):
        b = build_benchmark("Quadrotor")
        p = b.transcribe(horizon=2)
        x = np.zeros(12)
        out = integrate_plant(p, x, np.zeros(4), dt=0.1)
        assert out[5] == pytest.approx(-0.981, abs=1e-6)  # vz = -g t

    def test_hexacopter_hover_equilibrium(self):
        b = build_benchmark("Hexacopter")
        p = b.transcribe(horizon=2)
        hover = np.array(b.model.trim_inputs())
        out = integrate_plant(p, np.zeros(12), hover, dt=0.1)
        assert np.allclose(out, np.zeros(12), atol=1e-9)

    def test_mobile_robot_straight_line(self):
        b = build_benchmark("MobileRobot")
        p = b.transcribe(horizon=2)
        x = np.zeros(3)
        out = integrate_plant(p, x, np.array([1.0, 0.0]), dt=0.5)
        assert out[0] == pytest.approx(0.5, abs=1e-9)
        assert out[1] == pytest.approx(0.0, abs=1e-9)

    def test_mobile_robot_turns(self):
        b = build_benchmark("MobileRobot")
        p = b.transcribe(horizon=2)
        out = integrate_plant(p, np.zeros(3), np.array([0.0, 1.0]), dt=0.5)
        assert out[2] == pytest.approx(0.5, abs=1e-9)

    def test_microsat_quaternion_norm_conserved(self):
        b = build_benchmark("MicroSat")
        p = b.transcribe(horizon=2)
        x = b.x0.copy()
        out = integrate_plant(p, x, np.zeros(4), dt=1.0, substeps=16)
        n0 = np.linalg.norm(x[:4])
        n1 = np.linalg.norm(out[:4])
        assert n1 == pytest.approx(n0, abs=1e-6)

    def test_manipulator_gravity_pulls_down(self):
        b = build_benchmark("Manipulator")
        p = b.transcribe(horizon=2)
        # Horizontal arm (q = 0), zero torque: gravity accelerates joints
        # downward (negative velocities appear).
        x = np.zeros(4)
        out = integrate_plant(p, x, np.zeros(2), dt=0.02)
        assert out[2] < 0.0

    def test_vehicle_coasts_straight(self):
        b = build_benchmark("AutoVehicle")
        p = b.transcribe(horizon=2)
        x = np.array([0.0, 0.0, 0.0, 15.0, 0.0, 0.0])
        out = integrate_plant(p, x, np.zeros(2), dt=0.1)
        assert out[0] > 1.0  # moved forward
        assert abs(out[1]) < 1e-6  # no lateral drift
        assert out[3] < 15.0  # drag slows it


class TestSolverIntegration:
    """One quick solve per robot (small horizon to bound runtime)."""

    @pytest.mark.parametrize(
        "name", ["MobileRobot", "Manipulator", "Hexacopter"]
    )
    def test_cold_solve_converges(self, name):
        b = build_benchmark(name)
        p = b.transcribe(horizon=8)
        solver = b.make_solver(p)
        res = solver.solve(b.x0, ref=b.ref)
        assert res.converged, f"{name} kkt={res.kkt_residual:.2e}"

    def test_quadrotor_cold_solve_reaches_engineering_tolerance(self):
        b = build_benchmark("Quadrotor")
        p = b.transcribe(horizon=8)
        # The KKT test's own reach: the control-grade stop would end this
        # solve at iteration 12, at KKT 8.4e-3.
        solver = b.make_solver(p, max_iterations=60, input_tolerance=None)
        res = solver.solve(b.x0, ref=b.ref)
        assert res.kkt_residual < 5e-3

    def test_microsat_closed_loop_settles(self):
        # The satellite's cold start is its hardest phase; what matters is
        # that the receding-horizon loop detumbles and converges (warm
        # solves settle to a couple of iterations per step).
        b = build_benchmark("MicroSat")
        p = b.transcribe(horizon=8)
        ctrl = b.make_controller(p, max_iterations=30)
        x = b.x0.copy()
        its = []
        for _ in range(10):
            u = ctrl.step(x, ref=b.ref)
            its.append(ctrl.last_result.iterations)
            x = integrate_plant(p, x, u)
        # attitude error shrinks and rates are damped
        assert abs(x[0] - 1.0) < abs(b.x0[0] - 1.0)
        assert np.abs(x[4:7]).max() < np.abs(b.x0[4:7]).max()
        # warm-started solves get cheap
        assert min(its[3:]) <= 6

    def test_quadrotor_closed_loop_moves_to_waypoint(self):
        b = build_benchmark("Quadrotor")
        p = b.transcribe(horizon=8)
        ctrl = b.make_controller(p, max_iterations=25)
        x = b.x0.copy()
        d0 = np.linalg.norm(x[:3] - b.ref)
        for _ in range(8):
            u = ctrl.step(x, ref=b.ref)
            x = integrate_plant(p, x, u)
        assert np.linalg.norm(x[:3] - b.ref) < d0
