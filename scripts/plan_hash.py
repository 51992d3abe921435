"""Hash what a checkout serves on one seeded pass of a benchmark fleet.

``python scripts/plan_hash.py --root CHECKOUT [--workload W] [--seed S ...]``
imports *that checkout's* ``src/`` and ``benchmarks/e2e/workloads.py``, runs
the workload's set-up and one pass of its ticks, and prints one SHA-256 per
seed over the raw bytes of every served input of every step (in tick and
session order) followed by every session's final plan ``z`` (on
``loop-scalar``: every tick's served input, then each robot's final plan).
Two checkouts
that print the same digest served bit-identical answers — the check a
"same arithmetic, fewer operations" solver change is held to (run it once
with ``--root`` at the parent clone and once at the change).

It first prints a digest of the batched Cholesky's ``_D``/``_Dinv``/``_C``
tile stacks on one seeded banded and one dense stack, the same check for a
change to ``repro.batch.linalg`` that must leave those tilings alone.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from pathlib import Path


def _factor_tiles_digest() -> str:
    import numpy as np
    from repro.batch import BatchCholeskyFactor

    rng = np.random.default_rng(0)
    parts = []
    for n, band in ((30, 3), (12, None)):
        idx = np.arange(n)
        L = np.tril(rng.normal(size=(4, n, n)))
        if band is not None:
            L *= np.subtract.outer(idx, idx) <= band
        L[:, idx, idx] = 1.0 + np.abs(L[:, idx, idx])
        factor = BatchCholeskyFactor(L @ L.transpose(0, 2, 1), band=band, reg=1e-9)
        digest = hashlib.sha256()
        for tiles in (factor._D, factor._Dinv, factor._C):
            digest.update(np.ascontiguousarray(tiles).tobytes())
        parts.append(f"n={n} band={band} sha256={digest.hexdigest()[:16]}")
    return "  ".join(parts)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True, help="checkout to import from")
    parser.add_argument(
        "--workload",
        default="fleet-ragged",
        choices=("fleet-ragged", "fleet-admm", "fleet-sharded", "loop-scalar"),
    )
    parser.add_argument("--seed", type=int, nargs="+", default=[0])
    args = parser.parse_args()

    root = Path(args.root).resolve()
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    for var in ("REPRO_CODEGEN", "REPRO_BENCH_SEED"):
        os.environ.pop(var, None)
    sys.path[:0] = [str(root / "src"), str(root / "benchmarks" / "e2e")]

    import numpy as np
    import repro
    from workloads import WORKLOADS

    if not Path(repro.__file__).resolve().is_relative_to(root):
        raise SystemExit(f"imported {repro.__file__}, not the checkout at {root}")
    print(f"factor-tiles {_factor_tiles_digest()}")
    for seed in args.seed:
        workload = WORKLOADS[args.workload](seed)
        workload.setup()
        workload.begin_pass()
        scalar = workload.layout == "scalar"
        before = workload.counters() if scalar else {}
        digest = hashlib.sha256()
        served = 0
        for index in range(workload.n_ticks):
            _elapsed, steps = workload.tick(index)
            for step in steps:
                if step.failed:
                    raise SystemExit(f"seed {seed} tick {index}: {step.key} failed")
                digest.update(np.ascontiguousarray(step.u, dtype=float).tobytes())
                served += 1
        if scalar:
            controllers = [lane["controller"] for lane in workload.lanes]
        else:
            controllers = [
                workload.engine.get_session(sid).controller
                for sid in workload.lanes
            ]
        for controller in controllers:
            plan = controller.last_result.z
            digest.update(np.ascontiguousarray(plan, dtype=float).tobytes())
        # the pass's solver counters (scalar only: reading a fleet's adds
        # to its metrics), so "same digest" and "same work" are one line
        work = "".join(
            f" {key}={value - before[key]}"
            for key, value in (workload.counters() if scalar else {}).items()
        )
        workload.teardown()
        print(
            f"{args.workload} seed={seed} steps={served} "
            f"plans={len(controllers)} sha256={digest.hexdigest()}{work}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
