"""Stage-blocked vs. dense KKT factorization on the QP hot loop.

The acceptance benchmark of the stage-ordered solve path: solve the
quadrotor's first SQP subproblem (horizon N >= 30) once with the bandwidth
hint — the stage-blocked step, ``Phi``'s stage blocks factored as one
stack and the Schur complement banded — and once through the dense
kernels, on byte-identical QP data, and report per-phase wall time plus
measured-vs-cost-model flops from :class:`repro.mpc.qp.QPStats`.  The
hinted path must be at least 3x faster and — with the active-set polish —
land on the same solution to 1e-8.

The two sides are not the same kernel: the hinted path's blocks and tiles
are LAPACK ``potrf`` + an LU inverse (:func:`repro.mpc.banded.cholesky_tiles`
/ :func:`~repro.mpc.banded.tril_inverse`), while the dense path is the
from-scratch column Cholesky of :mod:`repro.mpc.linalg`.  So the >= 3x gate
measures the stage step on LAPACK against the from-scratch dense kernel,
not the structure alone; the flop rows below still compare the two
algorithms on the cost model's terms.
"""

from dataclasses import replace
from time import perf_counter

import numpy as np

from conftest import banner
from repro.mpc.banded import coupling_components, flop_counts_banded_cholesky
from repro.mpc.linalg import flop_counts_cholesky, flop_counts_substitution
from repro.mpc.qp import solve_qp
from repro.robots import build_benchmark

HORIZON = 30
REPEATS = 2  # best-of to damp scheduler noise


def _best_time(fn):
    best, out = float("inf"), None
    for _ in range(REPEATS):
        t0 = perf_counter()
        out = fn()
        best = min(best, perf_counter() - t0)
    return best, out


def test_banded_vs_dense_quadrotor():
    bench = build_benchmark("Quadrotor")
    problem = bench.transcribe(horizon=HORIZON)
    solver = bench.make_solver(problem)
    qp_args, qperm = solver.first_qp_subproblem(bench.x0, bench.ref)
    H, g, G, b, J, d, bw = qp_args
    # The conformance harness's options for a cold-start subproblem
    # (repro.conform.paths.CaseContext): at the solver's default 1e-8 / 50
    # iterations this QP stalls on both paths — each needs the
    # regularization ladder mid-solve — so neither converges and there is
    # no solution to compare.  The 1e-8 agreement below is on the polished
    # active-set solution, not on the stopping tolerance.
    opt = replace(
        solver.options.qp, polish=True, tolerance=1e-6, max_iterations=400
    )

    t_banded, res_b = _best_time(
        lambda: solve_qp(H, g, G, b, J, d, opt, bandwidth=bw)
    )
    t_dense, res_d = _best_time(lambda: solve_qp(H, g, G, b, J, d, opt))

    banner(f"Quadrotor first SQP subproblem, N={HORIZON} (n={H.shape[0]})")
    for label, t, r in (("stage", t_banded, res_b), ("dense", t_dense, res_d)):
        s = r.stats
        print(
            f"{label:>7s}: {t * 1e3:8.1f} ms  it={r.iterations:3d}  "
            f"mode={s.mode:6s}  factor {s.factorize_time * 1e3:7.1f} ms / "
            f"{s.factor_flops / 1e6:8.1f} Mflop   substitute "
            f"{s.substitute_time * 1e3:7.1f} ms / "
            f"{s.substitute_flops / 1e6:8.1f} Mflop"
        )
    print(
        f"speedup: {t_dense / t_banded:.2f}x wall, "
        f"{res_d.stats.factor_flops / res_b.stats.factor_flops:.1f}x factor "
        f"flops, bandwidths phi={res_b.stats.phi_bandwidth} "
        f"schur={res_b.stats.schur_bandwidth} (ceiling {bw})"
    )

    # Both paths converge to the same polished solution.
    assert res_b.converged and res_d.converged
    scale = 1.0 + float(np.max(np.abs(res_d.x)))
    assert float(np.max(np.abs(res_b.x - res_d.x))) <= 1e-8 * scale

    # The hinted path actually ran the stage step and is >= 3x faster.
    assert res_b.stats.mode in ("banded", "mixed")
    assert res_b.stats.banded_factorizations > 0
    assert res_d.stats.mode == "dense"
    assert t_dense / t_banded >= 3.0

def test_flop_meter_matches_cost_model():
    """The metered flop totals equal the closed-form kernel cost model and
    show the O(n^3) -> O(N s^3) drop against the dense path."""
    bench = build_benchmark("Quadrotor")
    problem = bench.transcribe(horizon=HORIZON)
    solver = bench.make_solver(problem)
    qp_args, _ = solver.first_qp_subproblem(bench.x0, bench.ref)
    H, g, G, b, J, d, bw = qp_args
    opt = replace(solver.options.qp, max_iterations=3)

    res_b = solve_qp(H, g, G, b, J, d, opt, bandwidth=bw)
    res_d = solve_qp(H, g, G, b, J, d, opt)
    assert res_b.stats.factorizations == res_d.stats.factorizations

    # Without polish or retries the loop factorizes Phi (one dense
    # Cholesky per coupling component) and the Schur complement (p x p, at
    # its structural bandwidth) exactly once per iteration.
    p = G.shape[0]
    sizes = np.unique(coupling_components(H, J), return_counts=True)[1]
    its = res_b.stats.factorizations // 2
    expected = its * (
        sum(sum(flop_counts_cholesky(k).values()) for k in sizes)
        + sum(
            flop_counts_banded_cholesky(
                p, res_b.stats.schur_bandwidth
            ).values()
        )
    )
    assert res_b.stats.retries == 0
    assert res_b.stats.factor_flops == expected
    assert res_b.stats.substitute_flops > sum(
        sum(flop_counts_substitution(k).values()) for k in sizes
    )

    # Dense factorization flops dominate the banded ones by an order of
    # magnitude at this size (n=641, band ~ 27).
    assert res_d.stats.factor_flops > 10 * res_b.stats.factor_flops
