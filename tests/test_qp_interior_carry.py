"""The interior-point carry of the SQP loop (``repro.batch.ipm.solve_lanes``).

Inside one solve, a lane's next interior-point QP starts from the
multipliers ``(nu, lam)`` of its previous QP when that one converged to a
finite step the line search took in full and the new QP is undamped
(Levenberg ``lm`` at its floor): ``x = 0``, ``nu``, ``s = max(d, theta)``,
``lam = max(lam, theta)`` with ``theta = 1e-2``.  Every other QP starts
cold.  The rows below check that
the carried start pays in the Mehrotra loop (a single QP and a lane of a
batch), that a lane's bits do not depend on its batch-mates with carries
present, and which QPs start cold, under both SQP engines.
"""

import numpy as np
import pytest

from repro.baselines import reference_solve_qp
from repro.batch import BatchSolver
from repro.batch.backend import HOST
from repro.batch.qp import solve_qp_batch
from repro.linearize import normalize_ref
from repro.mpc.qp import QPOptions, solve_qp
from repro.robots import build_benchmark

THETA = 1e-2
ENGINES = ["scalar", "batch"]

#: index of the QP checked in (a): the fourth subproblem of the solve from
#: ``bench.x0``.  Cold / carried iterations per subproblem, second to last:
#: 7/8, 7/13, 7/5, 7/4, 7/5, then 7/4 eight times.  The first steps still
#: move the active set, so the previous multipliers are a poor start there;
#: from the fourth subproblem on they save two to three iterations each.
FOURTH = 3


@pytest.fixture(scope="module")
def mobile():
    bench = build_benchmark("MobileRobot")
    return bench, bench.transcribe(horizon=8)


def make_solver(mobile, engine, **options):
    bench, problem = mobile
    scalar = bench.make_solver(problem, **options)
    return scalar if engine == "scalar" else BatchSolver(problem, scalar.options)


def record(solver, spoil=None):
    """Wrap ``solver``'s QP step.  Every call appends ``(args, bandwidth,
    warm, result)`` to the returned list; ``spoil(index, result)`` may
    rewrite a result before the SQP loop reads it."""
    calls = []
    step = solver._qp_step

    def wrapped(args, bandwidth, deadline, caps, hooks, warm):
        out = step(args, bandwidth, deadline, caps, hooks, warm)
        if spoil is not None:
            spoil(len(calls), out)
        calls.append((args, bandwidth, warm, out))
        return out

    solver._qp_step = wrapped
    return calls


def solve(solver, bench, x0, z_warm=None):
    if isinstance(solver, BatchSolver):
        (res,), _ = solver.solve(x0[None], refs=[bench.ref], z_warm=[z_warm])
        return res
    return solver.solve(x0, ref=bench.ref, z_warm=z_warm)


def carried(warm):
    """Whether the (one-lane) QP call started from a carry."""
    return warm is not None and bool(warm["carried"][0])


def lane(args, i=0):
    return tuple(None if a is None else a[i] for a in args)


@pytest.fixture(scope="module")
def subproblems(mobile):
    """Every QP call of the scalar solve from ``bench.x0``."""
    bench, problem = mobile
    solver = bench.make_solver(problem)
    calls = record(solver)
    res = solver.solve(bench.x0, ref=bench.ref)
    assert res.converged and len(calls) == res.iterations
    return solver.options.qp, calls


# -- (a) the carried start pays ----------------------------------------------


def test_carried_start_reaches_the_cold_solution_sooner(subproblems):
    opt, calls = subproblems
    args, bandwidth, warm, _ = calls[FOURTH]
    prev = calls[FOURTH - 1][3]
    nu, lam = prev.nu[0], prev.lam[0]
    # the SQP loop carried exactly the previous QP's multipliers
    assert carried(warm)
    assert np.array_equal(warm["nu"][0], nu)
    assert np.array_equal(warm["lam"][0], lam)

    one = lane(args)
    cold = solve_qp(*one, opt, bandwidth=bandwidth)
    hot = solve_qp(*one, opt, bandwidth=bandwidth, warm={"nu": nu, "lam": lam})
    assert cold.converged and hot.converged
    assert hot.iterations < cold.iterations

    # both starts end within the QP tolerance of the one optimum
    x_ref = reference_solve_qp(*one)[0]
    for x in (hot.x, cold.x):
        assert np.max(np.abs(x - x_ref)) < 1e-5


def test_a_solve_spends_fewer_qp_iterations(subproblems):
    opt, calls = subproblems
    spent = sum(int(out.iterations[0]) for *_, out in calls)
    cold = sum(
        solve_qp(*lane(args), opt, bandwidth=bandwidth).iterations
        for args, bandwidth, _, _ in calls
    )
    assert spent < 0.8 * cold


def test_the_carried_start_point(subproblems):
    """``mu`` opens at ``mean(max(d, theta) max(lam, theta))``, alone and
    as a lane of a batch, and a cold lane riding with a carried one keeps
    the cold start to the bit."""
    opt, calls = subproblems
    args, bandwidth, _, _ = calls[FOURTH]
    prev = calls[FOURTH - 1][3]
    nu, lam = prev.nu[0], prev.lam[0]
    d = lane(args)[5]
    assert np.min(d) < THETA and np.min(lam) < THETA  # the floor binds
    mu0 = np.mean(np.maximum(d, THETA) * np.maximum(lam, THETA))

    hot = solve_qp(*lane(args), opt, bandwidth=bandwidth, warm={"nu": nu, "lam": lam})
    assert hot.gap_history[0] == pytest.approx(mu0, rel=1e-12)

    two = tuple(None if a is None else np.concatenate([a, a]) for a in args)
    rows = {
        "nu": np.stack([nu, np.full_like(nu, 7.0)]),
        "lam": np.stack([lam, np.full_like(lam, 7.0)]),
        "carried": np.array([True, False]),
    }
    mixed = solve_qp_batch(*two, opt, bandwidth=bandwidth, warm=rows)
    cold = solve_qp_batch(*two, opt, bandwidth=bandwidth)
    assert mixed.gap_history[0][0] == pytest.approx(mu0, rel=1e-12)
    assert mixed.gap_history[1] == cold.gap_history[1]
    assert np.array_equal(mixed.x[1], cold.x[1])
    assert np.array_equal(mixed.lam[1], cold.lam[1])


# -- (b) lane-count invariance with carries -----------------------------------


@pytest.mark.parametrize("engine", ENGINES)
def test_a_lane_alone_equals_the_lane_among_three(mobile, engine):
    bench, problem = mobile
    solver = make_solver(mobile, engine)
    rng = np.random.default_rng(0)
    X0 = np.stack(
        [
            bench.x0 + spread * rng.standard_normal(problem.nx)
            for spread in (0.02, 0.1, 0.3)
        ]
    )

    def run(X):
        if engine == "batch":
            return solver.solve(X, refs=[bench.ref] * len(X))[0]
        R = normalize_ref(problem, [bench.ref] * len(X), len(X), HOST)
        return solver._solve_lanes(X, R, None, None)[0]

    alone = [run(x0[None])[0] for x0 in X0]
    warm_starts = solver.stats["qp_warm_starts"]
    stacked = run(X0)
    assert warm_starts > 0
    assert solver.stats["qp_warm_starts"] == 2 * warm_starts
    for one, res in zip(alone, stacked):
        assert np.array_equal(one.z, res.z)
        assert np.array_equal(one.nu, res.nu)
        assert np.array_equal(one.lam, res.lam)
        assert one.residual_history == res.residual_history
        assert one.status == res.status
        assert (one.iterations, one.qp_iterations) == (
            res.iterations,
            res.qp_iterations,
        )


# -- (c) which QPs start cold -------------------------------------------------


def only_after_clean_qps(calls, warms):
    """A carried QP always follows a QP that converged to finite
    multipliers (the full-step half of the rule is checked by
    ``test_a_shortened_step_is_never_carried``)."""
    for k in range(1, len(calls)):
        prev = calls[k - 1][3]
        if warms[k]:
            assert prev.status[0] == "converged"
            assert np.all(np.isfinite(prev.nu[0]))
            assert np.all(np.isfinite(prev.lam[0]))


@pytest.mark.parametrize("engine", ENGINES)
def test_every_solve_opens_cold(mobile, engine):
    """Nothing crosses a solve: the first QP of each of two back-to-back
    solves (the second warm-started on the first's plan) starts cold."""
    bench, _ = mobile
    solver = make_solver(mobile, engine)
    calls = record(solver)
    first = solve(solver, bench, bench.x0)
    n_first = len(calls)
    solve(solver, bench, bench.x0, z_warm=first.z)
    warms = [carried(warm) for _, _, warm, _ in calls]
    assert warms[0] is False and warms[n_first] is False
    # every step of the solve from x0 is full and every QP converges
    assert all(warms[1:n_first])
    only_after_clean_qps(calls, warms)
    assert solver.stats["qp_warm_starts"] == sum(warms)


def _spoil_at(index, outcome):
    def spoil(k, out):
        if k != index:
            return
        if outcome == "nonfinite":
            out.lam[0, 0] = np.nan
        else:
            out.status[0] = outcome
    return spoil


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize(
    "outcome", ["max_iterations", "budget_exhausted", "diverged", "nonfinite"]
)
def test_after_an_unclean_qp_the_next_starts_cold(mobile, engine, outcome):
    bench, _ = mobile
    solver = make_solver(mobile, engine)
    calls = record(solver, _spoil_at(FOURTH, outcome))
    solve(solver, bench, bench.x0)
    warms = [carried(warm) for _, _, warm, _ in calls]
    # A rejected (non-finite) step also raises the Levenberg damping x100,
    # and a damped QP starts cold until ``lm`` is back at its floor, four
    # /3 steps later.
    cold = 4 if outcome == "nonfinite" else 1
    assert len(warms) > FOURTH + cold + 1
    assert warms[FOURTH] and warms[FOURTH + cold + 1]
    assert not any(warms[FOURTH + 1 : FOURTH + cold + 1])
    only_after_clean_qps(calls, warms)


@pytest.mark.parametrize("engine", ENGINES)
def test_a_shortened_step_is_never_carried(mobile, engine):
    """With every step clipped (``step_clip``), no QP is carried."""
    bench, _ = mobile
    solver = make_solver(mobile, engine, step_clip=1e-3, max_iterations=6)
    calls = record(solver)
    solve(solver, bench, bench.x0)
    assert len(calls) == 6
    assert not any(carried(warm) for _, _, warm, _ in calls)
    assert solver.stats["qp_warm_starts"] == 0


@pytest.mark.parametrize("engine", ENGINES)
def test_a_failed_qp_ends_the_lane_and_the_next_solve_opens_cold(mobile, engine):
    bench, _ = mobile
    solver = make_solver(mobile, engine)
    calls = record(solver, _spoil_at(FOURTH, "failed"))
    res = solve(solver, bench, bench.x0)
    assert res.status == "diverged" and len(calls) == FOURTH + 1
    solve(solver, bench, bench.x0)
    assert not carried(calls[FOURTH + 1][2])


class _StallOnce:
    """Fault hook: the first ADMM solve reports a stall (a rescue)."""

    def __init__(self):
        self.left = 1

    def force_stall(self):
        self.left -= 1
        return self.left == 0


def test_admm_lanes_and_their_rescues_never_carry(mobile):
    bench, problem = mobile
    solver = bench.make_solver(problem, qp=QPOptions(method="admm"))
    solver.fault_hook = _StallOnce()
    calls = record(solver)
    res = solver.solve(bench.x0, ref=bench.ref)
    assert res.health.method_fallbacks == 1 and len(calls) == 1
    res = solver.solve(bench.x0, ref=bench.ref, z_warm=res.z)
    assert all(warm is None for _, _, warm, _ in calls)
    assert solver.stats["qp_warm_starts"] == 0
