"""The control-grade stop (``IPMOptions.input_tolerance``): the SQP ends
once a full step from a control-grade linearization barely moves the
served input ``u_0``.

The closed-loop rows compare the shipped options with a tight oracle over
30 ticks through the plant; the unit rows pin each of the rule's gates and
the off switch."""

import numpy as np
import pytest

from repro.mpc.controller import PlantIntegrator
from repro.mpc.ipm import CONTROL_GRADE_KKT
from repro.mpc.qp import QPOptions
from repro.robots import build_benchmark

ORACLE = dict(tolerance=1e-6, input_tolerance=None)
OFF = dict(input_tolerance=None)


def closed_loop(bench, problem, x0, ticks, substeps=2, **options):
    """States ``(ticks+1, nx)``, inputs ``(ticks, nu)``, the SQP count and
    every result of a closed loop through the RK4 plant."""
    ctrl = bench.make_controller(problem, **options)
    plant = PlantIntegrator(problem)
    x = np.array(x0, dtype=float)
    xs, us, results = [x], [], []
    for _ in range(ticks):
        u = ctrl.step(x, ref=bench.ref)
        results.append(ctrl.last_result)
        x = plant.advance(x, u, problem.dt, substeps)
        xs.append(x)
        us.append(u)
    iterations = sum(r.iterations for r in results)
    return np.array(xs), np.array(us), iterations, results


# (robot, horizon, max |dx|, max |du|) against the oracle over 30 ticks
# from x0 + 0.02 N(0, 1) at seed 0.  Readings at seeds 0 / 1, as SQP
# iterations shipped / off / oracle and |dx|, |du| against the oracle:
#   MobileRobot 181 / 335 / 524 and 175 / 326 / 546; |dx| 3.1e-4, 3.6e-4;
#     |du| 1.5e-3, 2.0e-3 (the rule off: 1.7e-5, 1.2e-4)
#   CartPole 70 / 94 / 114 and 71 / 95 / 115; |dx| 5.7e-7, 5.1e-7;
#     |du| 5.7e-6, 5.0e-6 (the same with the rule off)
#   Quadrotor 185 / 341 / 815 and 242 / 432 / 849; |dx| 1.2e-2, 1.2e-2;
#     |du| 4.8e-3, 3.5e-3 (the rule off: 1.0e-3 to 2.8e-3; the oracle
#     itself stops at its 60-iteration cap on several ticks).  The largest
#     moves are body rates, which span +-5.7 over the loop, and inputs,
#     bounded by 3.
# Each bound is 2.5-3.5x the larger reading.
CASES = [
    pytest.param("MobileRobot", 8, 1e-3, 5e-3, id="MobileRobot-8"),
    pytest.param("CartPole", 20, 2e-6, 2e-5, id="CartPole-20"),
    pytest.param(
        "Quadrotor", 8, 3e-2, 1.2e-2, id="Quadrotor-8", marks=pytest.mark.slow
    ),
]


@pytest.mark.parametrize("robot,horizon,dx_bound,du_bound", CASES)
def test_closed_loop_matches_oracle_with_fewer_iterations(
    robot, horizon, dx_bound, du_bound
):
    bench = build_benchmark(robot)
    problem = bench.transcribe(horizon=horizon)
    rng = np.random.default_rng(0)
    x0 = bench.x0 + 0.02 * rng.standard_normal(len(bench.x0))
    xs, us, its, results = closed_loop(bench, problem, x0, 30)
    oxs, ous, _, _ = closed_loop(bench, problem, x0, 30, **ORACLE)
    _, _, off_its, _ = closed_loop(bench, problem, x0, 30, **OFF)
    assert np.abs(xs - oxs).max() <= dx_bound
    assert np.abs(us - ous).max() <= du_bound
    assert its < off_its
    stops = [r for r in results if settled(r)]
    assert stops, "the rule never fired"
    assert all(r.status == "converged" for r in stops)
    assert all(r.kkt_residual <= CONTROL_GRADE_KKT for r in results)


@pytest.fixture(scope="module")
def mobile():
    bench = build_benchmark("MobileRobot")
    return bench, bench.transcribe(horizon=8)


def settled(result):
    return [n for n in result.health.notes if n.startswith("input_settled")]


def test_off_switch_keeps_the_kkt_test_counts(mobile):
    """20 closed-loop ticks from ``bench.x0`` take 270 SQP iterations with
    the rule off: the count of the KKT test alone."""
    bench, problem = mobile
    _, _, off_its, results = closed_loop(bench, problem, bench.x0, 20, **OFF)
    assert off_its == 270
    assert not any(settled(r) for r in results)
    _, _, its, _ = closed_loop(bench, problem, bench.x0, 20)
    assert its < off_its


def test_stop_reports_the_control_grade_residual(mobile):
    """A cold solve settles ``u_0`` at its bound long before the plan is
    control-grade (without the KKT gate it stops at iteration 3, at KKT
    3.7); the stop waits for the gate and reports the residual measured
    before its last step."""
    bench, problem = mobile
    solver = bench.make_solver(problem)
    res = solver.solve(bench.x0, ref=bench.ref)
    (note,) = settled(res)
    assert note == f"input_settled_it{res.iterations}"
    assert res.status == "converged" and res.converged
    assert res.kkt_residual == res.residual_history[-1]
    assert bench.make_solver(problem, **OFF).solve(
        bench.x0, ref=bench.ref
    ).iterations > res.iterations
    assert CONTROL_GRADE_KKT >= res.kkt_residual > solver.options.tolerance
    assert solver.stats["input_stops"] == 1


@pytest.fixture(scope="module")
def mid_plan(mobile):
    """A plan at KKT ~3e-3: control-grade, short of the KKT tolerance.
    Warm-started from it, the shipped rule stops at iteration 2."""
    bench, problem = mobile
    res = bench.make_solver(problem, tolerance=5e-3, **OFF).solve(
        bench.x0, ref=bench.ref
    )
    rerun = bench.make_solver(problem).solve(
        bench.x0, ref=bench.ref, z_warm=res.z
    )
    assert settled(rerun) == ["input_settled_it2"]
    return res.z


@pytest.mark.parametrize(
    "options",
    [dict(step_clip=1e-9), dict(armijo=0.999, watchdog=1)],
    ids=["clipped", "backtracked"],
)
def test_a_partial_step_never_stops_the_lane(mobile, mid_plan, options):
    bench, problem = mobile
    res = bench.make_solver(problem, max_iterations=8, **options).solve(
        bench.x0, ref=bench.ref, z_warm=mid_plan
    )
    assert not settled(res)
    assert res.status == "max_iterations"


def test_a_capped_qp_never_stops_the_lane(mobile, mid_plan):
    """The QP step's direction is kept, only its verdict reads capped."""
    bench, problem = mobile
    solver = bench.make_solver(problem, max_iterations=8)
    step = solver._qp_step

    def capped(*args):
        out = step(*args)
        out.status = ["max_iterations"] * len(out.status)
        return out

    solver._qp_step = capped
    res = solver.solve(bench.x0, ref=bench.ref, z_warm=mid_plan)
    assert not settled(res)


def test_admm_lanes_stop_on_the_rule(mobile):
    bench, problem = mobile
    solver = bench.make_solver(problem, qp=QPOptions(method="admm"))
    res = solver.solve(bench.x0, ref=bench.ref)
    assert settled(res) and res.kkt_residual <= CONTROL_GRADE_KKT
