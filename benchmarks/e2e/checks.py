"""Output checks: a run that fails one of these reports ``correct: false``.

Bounds and finiteness of every served input are judged per step inside the
workloads (a bad ``u`` is a failed step); this module holds the checks that
look across steps, passes and solvers.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.conform import load_ledger, relative_error, tolerance_for


def replay(passes) -> List[str]:
    """Every pass must serve bit-identical inputs and move every program
    counter by the same amount — traced or not.  A mismatch means tracing
    perturbs the program or the seeded load does not replay."""
    first = passes[0]
    problems = []
    for number, other in enumerate(passes[1:], start=2):
        kind = "traced" if other.traced else "untraced"
        if other.digest != first.digest:
            problems.append(f"pass {number} ({kind}) served different inputs than pass 1")
        if other.counters != first.counters:
            diff = {
                k: (first.counters[k], other.counters[k])
                for k in first.counters
                if first.counters[k] != other.counters[k]
            }
            problems.append(f"pass {number} ({kind}) counters differ from pass 1: {diff}")
        if (other.attempted, other.failed, other.graded) != (
            first.attempted,
            first.failed,
            first.graded,
        ):
            problems.append(f"pass {number} ({kind}) fail/grade tallies differ from pass 1")
    return problems


def tallies(workload, passes) -> List[str]:
    """attempted = sessions x ticks, and the program counted the same."""
    expected = workload.steps_per_tick * workload.n_ticks
    problems = []
    for number, p in enumerate(passes, start=1):
        if p.attempted != expected:
            problems.append(f"pass {number} attempted {p.attempted} steps, expected {expected}")
        if "steps" in p.counters and p.counters["steps"] != expected:
            problems.append(
                f"pass {number}: FleetMetrics counted {p.counters['steps']} steps, expected {expected}"
            )
        if p.failed:
            problems.append(f"pass {number}: {p.failed} of {p.attempted} steps failed")
    return problems


def disagreement(problem, x0, ref, served, reference) -> float:
    """``repro.conform.paths.compare_outputs``' metric for solver outputs,
    ``min(primal gap, objective gap + feasibility defect)``, on the NLP the
    two plans solve.  Near a flat optimum two correct solvers stop on
    different near-optimal points (measured on ``fleet-admm`` seed 107,
    MobileRobot N=7: primal gap 1.0e-3 with objective gap 7e-6 on 96 and
    defect 1e-6); the defect stops a broken solver from winning the
    objective by violating constraints."""
    gap = relative_error(served, reference)
    if not np.isfinite(gap):
        return gap
    f, fb = problem.objective(served, ref), problem.objective(reference, ref)
    rows = (
        np.abs(problem.equality_constraints(served, x0, ref)),
        np.maximum(problem.inequality_constraints(served, ref), 0.0),
    )
    defect = max((float(np.max(r)) for r in rows if r.size), default=0.0)
    return min(gap, (abs(f - fb) + defect) / (1.0 + abs(fb)))


def plans_agree(workload, plans) -> List[str]:
    """The engine's first-tick plan of each distinct (robot, horizon) must
    match a cold scalar ``MPCController`` solve from the same x0, under the
    conform suite's metric and the ledger's bound for the path the fleet
    exercises.
    """
    if not plans:
        return []
    path = "batch_admm" if workload.qp_method == "admm" else "padded_horizon"
    ledger = load_ledger()
    problems = []
    for (robot, horizon), (x0, served) in sorted(plans.items()):
        bench, problem = workload.engine.binding(robot, horizon)
        ref = bench.ref if bench.ref.size else None
        reference = bench.make_controller(problem)
        reference.step(x0, ref=ref)
        error = disagreement(problem, x0, ref, served, reference.last_result.z)
        bound = tolerance_for(ledger, path, robot)
        if not error <= bound:
            problems.append(
                f"{robot} N={horizon}: served plan is {error:.3g} from the scalar "
                f"solve, ledger bound for {path} is {bound:g}"
            )
    return problems
