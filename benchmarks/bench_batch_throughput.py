"""Batched vs scalar MPC solve throughput (the `repro.batch` tentpole).

Sweeps batch size B over {1, 4, 16, 64} on two robots, solving B
perturbed instances of the benchmark problem cold-start through

* the scalar path: one :class:`InteriorPointSolver` solve per instance
  (what the serve engine's inline backend does), and
* the batched path: one :class:`BatchSolver` call over all B lanes.

Reported figure of merit is solves/sec; the acceptance gate is the
batched path at B=16 clearing 2x the scalar path on at least one robot.

The B=1 rows compare a one-lane ``BatchSolver`` call with the scalar
solve (batched-lane solves/s / scalar solves/s) on MobileRobot N=8,
CartPole N=20 and Quadrotor N=8.  Both sides run the one QP loop
(``solve_qp`` is ``solve_qp_batch`` at one lane), so the rows measure the
linearizer (the vectorized batch sweep against the problem's own
evaluators, or its fused C kernel) and the driver overhead around it —
timed the way the
end-to-end harness times a tick (``benchmarks/e2e/measure.py``): each
instance keeps its quietest reading over several replays, each replay
normalised by the machine speed its reference kernel showed.  They are
printed, not gated.

Deliberately free of pytest-benchmark: the CI batch-smoke job runs on a
bare numpy+pytest install, so timing is plain ``perf_counter`` over a
fixed, seeded instance set (see conftest's randomness policy).
"""

import importlib.util
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

from conftest import banner, make_rng
from repro.batch import BatchSolver, available_backends, solve_qp_batch
from repro.robots import build_benchmark

BATCH_SIZES = (1, 4, 16, 64)
#: Device-scale lane counts for the per-backend QP sweep (slow lane).
LARGE_BATCH_SIZES = (256, 1024, 4096)
ROBOTS = (("MobileRobot", 8), ("CartPole", 20))
X0_NOISE = 0.02
#: robots of the B=1 ratio rows, and their instances x replays
B1_ROBOTS = (("MobileRobot", 8), ("CartPole", 20), ("Quadrotor", 8))
B1_INSTANCES, B1_REPLAYS = 6, 4


def _measure_module():
    """``benchmarks/e2e/measure.py``, the harness's timing normalisation."""
    path = Path(__file__).resolve().parent / "e2e" / "measure.py"
    spec = importlib.util.spec_from_file_location("e2e_measure", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _instances(bench, problem, B, rng):
    x0 = np.asarray(bench.x0, dtype=float)
    return np.stack(
        [x0 + X0_NOISE * rng.standard_normal(problem.nx) for _ in range(B)]
    )


def _measure(robot, horizon, bench, problem, scalar, batch, ref, B, rng):
    X0 = _instances(bench, problem, B, rng)
    refs = [ref] * B if ref is not None else None

    t0 = perf_counter()
    results, report = batch.solve(X0, refs=refs)
    t_batch = perf_counter() - t0

    t0 = perf_counter()
    s_results = [scalar.solve(X0[i], ref=ref) for i in range(B)]
    t_scalar = perf_counter() - t0

    # Same fates lane-for-lane, or the comparison is meaningless.
    agree = sum(r.status == s.status for r, s in zip(results, s_results))
    return {
        "robot": robot,
        "horizon": horizon,
        "B": B,
        "batch_sps": B / t_batch,
        "scalar_sps": B / t_scalar,
        "speedup": t_scalar / t_batch,
        "qp_efficiency": report.qp_efficiency,
        "status_agree": agree / B,
    }


def _setup(robot, horizon, offset):
    bench = build_benchmark(robot)
    problem = bench.transcribe(horizon=horizon)
    scalar = bench.make_solver(problem)
    batch = BatchSolver(problem, scalar.options)
    ref = bench.ref if problem.nref else None
    rng = make_rng(offset=900 + offset)

    # Warm both code paths once (imports, caches) off the clock.
    warm = _instances(bench, problem, 2, rng)
    batch.solve(warm, refs=[ref] * 2 if ref is not None else None)
    scalar.solve(warm[0], ref=ref)
    return bench, problem, scalar, batch, ref, rng


def run_sweep():
    rows = []
    for offset, (robot, horizon) in enumerate(ROBOTS):
        ctx = _setup(robot, horizon, offset)
        for B in BATCH_SIZES:
            rows.append(_measure(robot, horizon, *ctx[:5], B, ctx[5]))
    return rows


def remeasure_at(B):
    """Fresh B-lane measurement per robot (retry lane for the CI gate)."""
    rows = []
    for offset, (robot, horizon) in enumerate(ROBOTS):
        ctx = _setup(robot, horizon, 100 + offset)
        rows.append(_measure(robot, horizon, *ctx[:5], B, ctx[5]))
    return rows


def test_batch_throughput():
    rows = run_sweep()
    banner("repro.batch: batched vs scalar solve throughput")
    print(
        f"{'robot':>12} {'N':>3} {'B':>4} {'batch/s':>9} {'scalar/s':>9} "
        f"{'speedup':>8} {'qp_eff':>7} {'agree':>6}"
    )
    for r in rows:
        print(
            f"{r['robot']:>12} {r['horizon']:>3} {r['B']:>4} "
            f"{r['batch_sps']:>9.1f} {r['scalar_sps']:>9.1f} "
            f"{r['speedup']:>7.2f}x {r['qp_efficiency']:>6.0%} "
            f"{r['status_agree']:>6.0%}"
        )

    # Batched and scalar solves must meet the same fate on (nearly) every
    # lane; roundoff may flip a borderline lane's final iteration.
    for r in rows:
        assert r["status_agree"] >= 0.9, r

    # Acceptance gate: >= 2x over the scalar inline path at B=16 on at
    # least one robot.  One fresh re-measure before failing — a transient
    # co-tenant on a shared runner can depress a single timing window.
    at_16 = [r for r in rows if r["B"] == 16]
    best = max(r["speedup"] for r in at_16)
    if best < 2.0:
        retry = remeasure_at(16)
        for r in retry:
            print(
                f"retry {r['robot']:>12} B=16: {r['speedup']:.2f}x "
                f"({r['batch_sps']:.1f} vs {r['scalar_sps']:.1f} solves/s)"
            )
        best = max(best, max(r["speedup"] for r in retry))
    assert best >= 2.0, f"batched speedup at B=16 only {best:.2f}x"

    # Throughput must not collapse as B grows on the fast robot.
    mobile = [r for r in rows if r["robot"] == "MobileRobot"]
    assert mobile[-1]["batch_sps"] > mobile[0]["batch_sps"]


def b1_ratio(robot, horizon, offset):
    """One robot's B=1 row: quietest normalised seconds per solve of a
    one-lane ``BatchSolver`` call and of the scalar solve, over the same
    cold instances; the ratio is batched-lane solves/s over scalar — one
    QP loop on both sides, so linearizer and driver overhead."""
    measure = _measure_module()
    bench, problem, scalar, batch, ref, rng = _setup(robot, horizon, offset)
    X0 = _instances(bench, problem, B1_INSTANCES, rng)
    refs = [ref] if ref is not None else None
    best = {"batch": [np.inf] * B1_INSTANCES, "scalar": [np.inf] * B1_INSTANCES}
    for _replay in range(B1_REPLAYS):
        kernel, raw = [], {"batch": [], "scalar": []}
        for i in range(B1_INSTANCES):
            measure.sample_kernel(kernel)
            t0 = perf_counter()
            batch.solve(X0[i : i + 1], refs=refs)
            raw["batch"].append(perf_counter() - t0)
            t0 = perf_counter()
            scalar.solve(X0[i], ref=ref)
            raw["scalar"].append(perf_counter() - t0)
        speed = measure.machine_speed(kernel)
        for path, times in raw.items():
            best[path] = [min(b, t * speed) for b, t in zip(best[path], times)]
    t_batch = sum(best["batch"]) / B1_INSTANCES
    t_scalar = sum(best["scalar"]) / B1_INSTANCES
    return {
        "robot": robot,
        "horizon": horizon,
        "batch_ms": 1e3 * t_batch,
        "scalar_ms": 1e3 * t_scalar,
        "ratio": t_scalar / t_batch,
    }


def test_b1_lane_throughput_ratio():
    """The B=1 rows: linearizer and driver overhead (printed, not gated)."""
    rows = [
        b1_ratio(robot, horizon, 200 + offset)
        for offset, (robot, horizon) in enumerate(B1_ROBOTS)
    ]
    banner(
        "repro.batch: one batched lane vs the scalar solve (B=1, one QP "
        "loop: linearizer + driver overhead)"
    )
    print(
        f"{'robot':>12} {'N':>3} {'lane ms':>9} {'scalar ms':>10} "
        f"{'ratio':>6}   (quietest of {B1_REPLAYS}, normalised ms)"
    )
    for r in rows:
        print(
            f"{r['robot']:>12} {r['horizon']:>3} {r['batch_ms']:>9.2f} "
            f"{r['scalar_ms']:>10.2f} {r['ratio']:>6.2f}"
        )
    assert all(np.isfinite(r["ratio"]) and r["ratio"] > 0.0 for r in rows)


def _qp_stack(B, rng):
    """B perturbed replicas of MobileRobot's first QP subproblem.

    A full SQP solve at B=4096 is minutes of CPU; one QP iteration-capped
    batch is the device-scale unit of work the backends actually differ
    on, and it keeps the slow lane under a minute per backend.
    """
    bench = build_benchmark("MobileRobot")
    problem = bench.transcribe(horizon=8)
    solver = bench.make_solver(problem)
    (H, g, G, b, J, d, bw), _perm = solver.first_qp_subproblem(
        bench.x0, bench.ref
    )
    rep = lambda M: np.repeat(np.asarray(M, dtype=float)[None], B, axis=0)
    g_stack = rep(g)
    g_stack += 0.01 * rng.standard_normal(g_stack.shape)
    args = tuple(
        None if M is None else rep(M) for M in (H, G, b, J, d)
    )
    return (args[0], g_stack) + args[1:], bw


@pytest.mark.slow
def test_backend_throughput_large_batches():
    """Device-scale QP sweep: B in {256, 1024, 4096}, one column per
    registered array backend (numpy always; torch when importable)."""
    backends = available_backends()
    rng = make_rng(offset=950)

    rows = []
    for B in LARGE_BATCH_SIZES:
        qp_args, bw = _qp_stack(B, rng)
        row = {"B": B}
        for name in backends:
            # One off-the-clock warm call per (backend, B) for allocator
            # and kernel-compile effects, then the timed solve.
            solve_qp_batch(*qp_args, bandwidth=bw, backend=name)
            t0 = perf_counter()
            res = solve_qp_batch(*qp_args, bandwidth=bw, backend=name)
            row[name] = B / (perf_counter() - t0)
            row[f"{name}_converged"] = sum(
                s == "converged" for s in res.status
            ) / B
        rows.append(row)

    banner("repro.batch: per-backend QP throughput at device-scale B")
    head = f"{'B':>6}" + "".join(f" {n + ' qp/s':>16}" for n in backends)
    print(head)
    for row in rows:
        print(
            f"{row['B']:>6}"
            + "".join(f" {row[n]:>16.1f}" for n in backends)
        )
    if "torch" not in backends:
        print("(torch not importable here, column omitted)")

    for row in rows:
        for name in backends:
            assert row[f"{name}_converged"] >= 0.99, (name, row)
    # Vectorization must keep paying off: per-lane cost at B=4096 must
    # not exceed 3x the per-lane cost at B=256 on any backend.
    for name in backends:
        assert rows[-1][name] > rows[0][name] / 3.0, name
