"""Artifact-store behavior: content addressing, corruption, concurrency.

The store is the ``so/<key>/`` cache of compiled kernels — an accelerator,
never a correctness dependency: every test here checks that a bad state
(a shared object that does not load, an unwritable root, two racing
first-compiles) degrades to a clean rebuild or to the interpreted provider
rather than a wrong kernel.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.codegen import (
    ArtifactStore,
    FunctionGroup,
    FusedProblemKernels,
    c_available,
    emit_fused_module,
    module_fingerprint,
)
from repro.codegen.cbackend import build_c_kernel
from repro.robots import build_benchmark
from repro.symbolic.expr import Const, Var

needs_c = pytest.mark.skipif(
    not c_available(), reason="no C compiler / cffi here"
)


def _module(weight: float = 2.0):
    x, u = Var("x"), Var("u")
    groups = [
        FunctionGroup(name="dyn", exprs=(x + Const(0.1) * u,)),
        FunctionGroup(name="cost", exprs=(Const(weight) * x * x + u * u,)),
    ]
    return emit_fused_module([("fused_run_full", groups, ["x", "u"])])


def _check(kern):
    out = kern.call("fused_run_full", [np.array([1.5]), np.array([-0.5])])
    assert abs(out["dyn"][0, 0] - 1.45) < 1e-12
    assert abs(out["cost"][0, 0] - 4.75) < 1e-12


@needs_c
def test_cache_hit_on_identical_key(tmp_path):
    store = ArtifactStore(tmp_path)
    module = _module()
    key = module_fingerprint(module)
    cold = build_c_kernel(module.irs, key, store)
    assert not cold.store_hit
    hit = build_c_kernel(_module().irs, key, store)  # reloaded, not rebuilt
    assert hit.store_hit
    _check(cold)
    _check(hit)
    assert len(list(store.so_dir_for(key).glob("*.so"))) == 1


def test_key_moves_on_dag_change_and_on_shape_change(tmp_path):
    base = module_fingerprint(_module(2.0), extra=("dtype=float64",))
    # a changed weight constant is a different expression DAG
    assert module_fingerprint(_module(3.0), extra=("dtype=float64",)) != base
    # same DAG, different context token
    assert module_fingerprint(_module(2.0), extra=("dtype=float32",)) != base
    # the old entry is simply never consulted for the new key
    store = ArtifactStore(tmp_path)
    assert store.so_dir_for(base) != store.so_dir_for(
        module_fingerprint(_module(3.0), extra=("dtype=float64",))
    )


@needs_c
@pytest.mark.parametrize(
    "corruption",
    [lambda so: b"not a shared object at all", lambda so: so[:100]],
    ids=["garbage", "truncated"],
)
def test_corrupt_artifact_rejected_and_evicted(tmp_path, corruption):
    module = _module()
    key = module_fingerprint(module)
    good = ArtifactStore(tmp_path / "good")
    build_c_kernel(module.irs, key, good)
    (so,) = good.so_dir_for(key).glob("*.so")
    # plant the bad bytes in a second root (never over a loaded object)
    store = ArtifactStore(tmp_path / "bad")
    store.so_dir_for(key).mkdir(parents=True)
    (store.so_dir_for(key) / so.name).write_bytes(corruption(so.read_bytes()))
    rebuilt = build_c_kernel(module.irs, key, store)
    assert not rebuilt.store_hit  # rejected: the compiler ran again
    _check(rebuilt)
    # evicted: the rebuild replaced the bad file, so the next build hits
    assert build_c_kernel(module.irs, key, store).store_hit
    assert len(list(store.so_dir_for(key).glob("*.so"))) == 1


def test_stale_emitter_version_rejected(monkeypatch):
    """The emitter version is part of the key, so an artifact written by
    another version is never consulted."""
    from repro.codegen import emit

    base = module_fingerprint(_module())
    monkeypatch.setattr(emit, "CODEGEN_VERSION", emit.CODEGEN_VERSION + 1)
    assert module_fingerprint(_module()) != base


@needs_c
def test_unwritable_root_tolerated(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("")  # a *file* where the store wants a directory
    bench = build_benchmark("MobileRobot")
    problem = bench.transcribe(horizon=5)
    kernels = FusedProblemKernels(
        problem, "on", store=ArtifactStore(blocker / "cache")
    )
    # nothing compiled, nothing raised: the problem stays interpreted and
    # says why
    assert not kernels.active
    assert kernels.stats.kernel == "interpreted"
    assert kernels.stats.fallback_reason.startswith("build failed: ")


_CHILD = """
import sys
import numpy as np
from repro.codegen import ArtifactStore, FunctionGroup, emit_fused_module, module_fingerprint
from repro.codegen.cbackend import build_c_kernel
from repro.symbolic.expr import Const, Var

x, u = Var("x"), Var("u")
groups = [
    FunctionGroup(name="dyn", exprs=(x + Const(0.1) * u,)),
    FunctionGroup(name="cost", exprs=(Const(2.0) * x * x + u * u,)),
]
module = emit_fused_module([("fused_run_full", groups, ["x", "u"])])
key = module_fingerprint(module)
kern = build_c_kernel(module.irs, key, ArtifactStore(sys.argv[1]))
out = kern.call("fused_run_full", [np.array([1.5]), np.array([-0.5])])
assert abs(out["dyn"][0, 0] - 1.45) < 1e-12, out
assert abs(out["cost"][0, 0] - 4.75) < 1e-12, out
print("OK", key)
"""


@needs_c
def test_concurrent_first_compile_converges(tmp_path):
    """Two processes racing the same cold key must both succeed and leave
    exactly one valid artifact behind (atomic-replace convergence)."""
    script = tmp_path / "child.py"
    script.write_text(_CHILD)
    root = tmp_path / "cache"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    procs = [
        subprocess.Popen(
            [sys.executable, str(script), str(root)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        for _ in range(2)
    ]
    outs = [p.communicate(timeout=180) for p in procs]
    for p, (out, err) in zip(procs, outs):
        assert p.returncode == 0, err
        assert out.startswith("OK ")
    key = outs[0][0].split()[1]
    assert outs[1][0].split()[1] == key

    store = ArtifactStore(root)
    sos = list(store.so_dir_for(key).glob("*.so"))
    assert len(sos) == 1  # racing builders converged on one shared object
    assert not list(store.so_dir_for(key).glob(".build.*"))  # tmpdirs cleaned
