"""The linearize scatter against its own oracles, on every group provider.

The differential suites (``test_codegen_equivalence``, conform
``codegen_linearize``, ``test_scalar_fused_matches_interpreted``) compare
*kernels* against per-knot interpreted evaluation; the placement of the
evaluated stacks into ``grad / H / g_eq / G / h / J`` is shared by both
sides of those comparisons, so it is checked here independently: central
differences of the value functions, a naive dense Gauss-Newton sum built in
this file, and lane-alone vs lane-in-batch.  The task carries all six task
row kinds (running state / running input / terminal, equality and
inequality), running and terminal penalties and per-knot references — no
Table III robot has an equality row.
"""

import numpy as np
import pytest

from repro.batch import BatchLinearizer
from repro.codegen import c_available
from repro.mpc import (
    Constraint,
    Penalty,
    RobotModel,
    Task,
    TranscribedProblem,
    VarSpec,
)
from repro.symbolic import Var, compile_function, cos, diff, sin
from tests.test_batch_transcription import NoUfuncBackend

N = 4


@pytest.fixture(scope="module")
def shared_root(tmp_path_factory):
    return tmp_path_factory.mktemp("cgcache")


@pytest.fixture(autouse=True)
def _module_cache(shared_root, monkeypatch):
    """One store root for the module: the Skater kernel compiles once."""
    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(shared_root))
    monkeypatch.delenv("REPRO_CODEGEN", raising=False)


def build(move_block=1):
    x, v, a, b = Var("x"), Var("v"), Var("a"), Var("b")
    r0, r1 = Var("r0"), Var("r1")
    model = RobotModel(
        "Skater",
        states=[VarSpec("x", -10.0, 10.0), VarSpec("v", -3.0)],
        inputs=[VarSpec("a", -1.0, 1.0), VarSpec("b", upper=2.0)],
        dynamics={"x": v * cos(x) + 0.3 * b, "v": a - 0.1 * v * v + sin(x)},
    )
    task = Task(
        "all_rows",
        model,
        penalties=[
            Penalty("track", x - r0, 5.0, "running"),
            Penalty("mix", v * a + sin(b) - r1, 1.5, "running"),
            Penalty("effort", a + 0.5 * b, 0.1, "running"),
            Penalty("final", x * v - r0, 10.0, "terminal"),
            Penalty("rest", v + r1, 2.0, "terminal"),
        ],
        constraints=[
            Constraint("envelope", v * v + x * a, upper=4.0),
            Constraint("mixer", a + b * b, lower=-1.0, upper=1.5),
            Constraint("dock", x * v, lower=-2.0, timing="terminal"),
            Constraint("glide", x * b + v - r1, lower=0.2, upper=0.2),
            Constraint("trim", a - 0.5 * b * b, lower=0.1, upper=0.1),
            Constraint("park", x + v * v - r0, lower=1.0, upper=1.0, timing="terminal"),
        ],
        references=["r0", "r1"],
    )
    return TranscribedProblem(
        model, task, horizon=N, dt=0.1, move_block=move_block
    )


def lanes_for(problem, B, seed=0):
    rng = np.random.default_rng(seed)
    Z = 0.4 * rng.standard_normal((B, problem.nz))
    X0 = 0.4 * rng.standard_normal((B, problem.nx))
    R = 0.5 * rng.standard_normal((B, N + 1, 2))  # per-lane, per-knot
    return Z, X0, R


NAMES = (
    "objective",
    "objective_gradient",
    "objective_gauss_newton",
    "equality_constraints",
    "equality_jacobian",
    "inequality_constraints",
    "inequality_jacobian",
)
SCALAR = {
    "interpreted": "off",
    "fused-c": "on",
    "interpreted-blocked": "off",
    "fused-c-blocked": "on",
}
BATCH = {
    "batch-vectorized": None,
    "batch-interpreted": NoUfuncBackend,
    "batch-vectorized-blocked": None,
}
needs_c = pytest.mark.skipif(not c_available(), reason="no C compiler here")
PROVIDERS = [
    pytest.param(p, marks=needs_c) if p.startswith("fused-c") else p
    for p in (*SCALAR, *BATCH)
]


def evaluator(provider):
    """``(problem, evaluate)``; ``evaluate(name, Z, X0, R)`` returns the lane
    stack of one output through ``provider`` (``-blocked``: at
    ``move_block = 2``, so two stages share each input knot)."""
    problem = build(move_block=2 if provider.endswith("-blocked") else 1)
    if provider in SCALAR:
        problem.set_codegen(SCALAR[provider])

        def evaluate(name, Z, X0, R):
            fn = getattr(problem, name)
            return np.stack(
                [
                    fn(z, x0, r) if name == "equality_constraints" else fn(z, r)
                    for z, x0, r in zip(Z, X0, R)
                ]
            )

        if provider.startswith("fused"):
            assert problem.codegen_kernels().active
        return problem, evaluate

    backend = BATCH[provider]
    lin = BatchLinearizer(problem, backend=backend and backend("float64"))
    assert lin.vectorized is (backend is None)

    def evaluate(name, Z, X0, R):
        fn = getattr(lin, name)
        out = fn(Z, X0, R) if name == "equality_constraints" else fn(Z, R)
        return np.asarray(out)

    return problem, evaluate


def central_difference(f, Z, eps=1e-6):
    """``d f / d Z`` per lane: ``(B, m, nz)`` from ``f: (B, nz) -> (B, m)``."""
    cols = []
    for i in range(Z.shape[1]):
        step = np.zeros(Z.shape[1])
        step[i] = eps
        cols.append((f(Z + step) - f(Z - step)) / (2 * eps))
    return np.stack(cols, axis=-1)


def check_derivatives(problem, evaluate, B=2):
    Z, X0, R = lanes_for(problem, B, seed=3)
    assert problem._eq_state_rows and problem._eq_input_rows
    assert problem._eq_term_rows and problem._h_state_rows
    assert problem._h_input_rows and problem._h_term_rows
    fd = central_difference(
        lambda Zt: evaluate("objective", Zt, X0, R)[:, None], Z
    )[:, 0]
    np.testing.assert_allclose(
        evaluate("objective_gradient", Z, X0, R), fd, rtol=0, atol=2e-7
    )
    for values, jac in (
        ("equality_constraints", "equality_jacobian"),
        ("inequality_constraints", "inequality_jacobian"),
    ):
        fd = central_difference(lambda Zt: evaluate(values, Zt, X0, R), Z)
        got = evaluate(jac, Z, X0, R)
        assert got.shape == fd.shape
        np.testing.assert_allclose(got, fd, rtol=0, atol=2e-7)


def naive_gauss_newton(problem, z, ref):
    """Dense ``sum_k 2 Jp_k^T W Jp_k`` from symbolic penalty derivatives,
    placed one entry at a time through ``state_slice`` / ``input_slice``."""
    model, task = problem.model, problem.task
    names = list(model.state_names) + [s.name for s in model.inputs]
    xs, us = problem.split(z)
    H = np.zeros((problem.nz, problem.nz))

    def add(penalties, env, index):
        for pen in penalties:
            jac = compile_function(
                [diff(pen.expr, Var(nm)) for nm in index], list(map(Var, env))
            ).call_dict(env)
            for i, nm_i in enumerate(index):
                for j, nm_j in enumerate(index):
                    H[index[nm_i], index[nm_j]] += (
                        2.0 * pen.weight * jac[i] * jac[j]
                    )

    for k in range(problem.N + 1):
        env = dict(zip(task.references, ref[k]))
        env.update(zip(model.state_names, xs[k]))
        sx = problem.state_slice(k)
        index = dict(zip(model.state_names, range(sx.start, sx.stop)))
        if k == problem.N:
            add(task.terminal_penalties, env, index)
            continue
        env.update(zip(names[problem.nx :], us[k]))
        su = problem.input_slice(k)
        index.update(zip(names[problem.nx :], range(su.start, su.stop)))
        add(task.running_penalties, env, index)
    return H


@pytest.mark.parametrize("provider", PROVIDERS)
def test_jacobians_match_central_differences(provider):
    check_derivatives(*evaluator(provider))


@pytest.mark.parametrize("provider", PROVIDERS)
def test_gauss_newton_matches_naive_dense_sum(provider):
    problem, evaluate = evaluator(provider)
    Z, X0, R = lanes_for(problem, 2, seed=4)
    H = evaluate("objective_gauss_newton", Z, X0, R)
    for lane in range(2):
        want = naive_gauss_newton(problem, Z[lane], R[lane])
        np.testing.assert_allclose(H[lane], want, rtol=0, atol=1e-12)


def _all_outputs(provider, Z, X0, R):
    _, evaluate = evaluator(provider)
    return [evaluate(name, Z, X0, R) for name in NAMES]


def test_providers_agree():
    """Same libm, same bits: interpreted == C, and a batch bound to the
    interpreted provider == the scalar lane; across the two libm families
    (per-knot ``math`` vs array ufuncs) to round-off — with and without
    move blocking."""
    for suffix, move_block in (("", 1), ("-blocked", 2)):
        Z, X0, R = lanes_for(build(move_block), 3, seed=5)
        out = {
            p[: len(p) - len(suffix)]: _all_outputs(p, Z, X0, R)
            for p in (*SCALAR, *BATCH)
            if p.endswith("-blocked") == bool(suffix)
            and (not p.startswith("fused-c") or c_available())
        }
        for b in ("batch-interpreted", "fused-c"):
            for name, want, got in zip(NAMES, out["interpreted"], out.get(b, ())):
                assert np.array_equal(want, got), (suffix, b, name)
        for want, got in zip(out["interpreted"], out["batch-vectorized"]):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-11)


@pytest.mark.parametrize("provider", list(BATCH))
def test_lane_in_batch_equals_lane_alone(provider):
    problem, evaluate = evaluator(provider)
    Z, X0, R = lanes_for(problem, 3, seed=6)
    for name in NAMES:
        batch = evaluate(name, Z, X0, R)
        for lane in range(3):
            sl = slice(lane, lane + 1)
            alone = evaluate(name, Z[sl], X0[sl], R[sl])
            assert np.array_equal(batch[sl], alone), (name, lane)


def test_non_finite_lane_stays_in_its_lane():
    problem, evaluate = evaluator("batch-vectorized")
    Z, X0, R = lanes_for(problem, 3, seed=7)
    clean = [evaluate(name, Z, X0, R) for name in NAMES]
    Z[1, 2], Z[1, -1] = np.nan, np.inf
    for name, want in zip(NAMES, clean):
        got = evaluate(name, Z, X0, R)  # no exception
        assert not np.all(np.isfinite(got[1]))
        assert np.array_equal(got[[0, 2]], want[[0, 2]])


@pytest.mark.parametrize("column_map", ["stage_cols", "xcols"])
def test_corrupted_column_map_fails_the_finite_difference_check(column_map):
    """ROADMAP 6(f), linearize: the scatter's oracle must see one column
    index shifted by one."""
    problem, evaluate = evaluator("interpreted")
    check_derivatives(problem, evaluate)
    getattr(problem.lanes, column_map)[1, 0] += 1
    with pytest.raises(AssertionError):
        check_derivatives(problem, evaluate)
