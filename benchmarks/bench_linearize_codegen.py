"""Linearize-phase speedup from ahead-of-time fused kernel codegen.

The SQP linearize block issues six evaluation calls per iteration
(gradient, Gauss-Newton blocks, both constraint stacks and both
Jacobians).  Interpreted, each call walks per-stage compiled functions in
a Python loop — ``6 x N`` dispatches per iteration.  The fused path
evaluates one compiled C kernel per request family over every knot and
serves the follow-up calls at the same point from the point cache, so the
whole block costs roughly one fused evaluation.

This bench times the full six-call block on the Quadrotor at N=30 (the
paper's long-horizon operating point) at a set of distinct seeded
linearization points — mirroring how the SQP loop revisits each iterate —
and reports interpreted vs C-kernel wall time.

Acceptance gates, both on the C kernel and both skipped with a reason on a
compiler-less host (``on`` stays interpreted there, so the comparison
would be trivial):

* fast lane (CI): the C kernel must be >= 2x the interpreted path;
* slow lane (``-m slow``): >= 5x.

Free of pytest-benchmark; plain ``perf_counter`` over seeded points (see
conftest's randomness policy).
"""

from time import perf_counter

import numpy as np
import pytest

from conftest import banner, make_rng
from repro.codegen import c_available
from repro.robots import build_benchmark

ROBOT = "Quadrotor"
HORIZON = 30
POINTS = 12
REPEATS = 3


def _setup():
    bench = build_benchmark(ROBOT)
    problem = bench.transcribe(horizon=HORIZON)
    rng = make_rng(offset=990)
    x0 = np.asarray(bench.x0, dtype=float)
    pts = [
        problem.initial_guess(x0 + 0.05 * rng.standard_normal(problem.nx))
        + 0.02 * rng.standard_normal(problem.nz)
        for _ in range(POINTS)
    ]
    return bench, problem, x0, pts


def _linearize_block(problem, z, x0, ref):
    problem.objective_gradient(z, ref)
    problem.objective_gauss_newton(z, ref)
    problem.equality_constraints(z, x0, ref)
    problem.equality_jacobian(z, ref)
    problem.inequality_constraints(z, ref)
    problem.inequality_jacobian(z, ref)


def _time_mode(problem, mode, pts, x0, ref):
    problem.set_codegen(mode)
    # warm pass off the clock: kernel build/compile + allocator effects
    _linearize_block(problem, pts[0], x0, ref)
    best = float("inf")
    for _ in range(REPEATS):
        t0 = perf_counter()
        for z in pts:
            _linearize_block(problem, z, x0, ref)
        best = min(best, perf_counter() - t0)
    kernel = problem.codegen_stats().kernel
    return best, kernel


def _report(rows):
    banner(f"fused linearize codegen: {ROBOT} N={HORIZON}, {POINTS} points")
    base = rows["off"][0]
    print(f"{'mode':>8} {'kernel':>12} {'time':>9} {'speedup':>8}")
    for mode, (t, kernel) in rows.items():
        print(f"{mode:>8} {kernel:>12} {t * 1e3:>7.1f}ms {base / t:>7.2f}x")


def _gate(threshold):
    if not c_available():
        pytest.skip("no C compiler / cffi here: codegen stays interpreted")
    bench, problem, x0, pts = _setup()
    rows = {
        "off": _time_mode(problem, "off", pts, x0, bench.ref),
        "on": _time_mode(problem, "on", pts, x0, bench.ref),
    }
    _report(rows)
    assert rows["off"][1] == "interpreted"
    assert rows["on"][1] == "fused-c"

    ratio = rows["off"][0] / rows["on"][0]
    if ratio < threshold:
        # one fresh re-measure before failing: a transient co-tenant can
        # depress a single timing window
        rows["on"] = _time_mode(problem, "on", pts, x0, bench.ref)
        rows["off"] = _time_mode(problem, "off", pts, x0, bench.ref)
        ratio = rows["off"][0] / rows["on"][0]
        _report(rows)
    assert ratio >= threshold, f"C kernel only {ratio:.2f}x over interpreted"


def test_linearize_codegen_speedup():
    _gate(2.0)


@pytest.mark.slow
def test_linearize_codegen_c_tier_speedup():
    _gate(5.0)
