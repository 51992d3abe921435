"""Hash what a checkout serves on one seeded pass of a benchmark fleet.

``python scripts/plan_hash.py --root CHECKOUT [--workload W] [--seed S ...]
[--against OTHER]``
imports *that checkout's* ``src/`` and ``benchmarks/e2e/workloads.py``, runs
the workload's set-up and one pass of its ticks, and prints one SHA-256 per
seed over the raw bytes of every served input of every step (in tick and
session order) followed by every session's final plan ``z`` (on
``loop-scalar``: every tick's served input, then each robot's final plan),
and ends the line with the pass's work counters: the solver totals on
``loop-scalar``, the lane-iteration counters of ``FleetMetrics`` on a
fleet.  Two checkouts
that print the same digest served bit-identical answers — the check a
"same arithmetic, fewer operations" solver change is held to (run it once
with ``--root`` at the parent clone and once at the change).

It first prints a digest of the batched Cholesky's ``_D``/``_Dinv``/``_C``
tile stacks on one seeded banded, one dense and one block-mode stack
factored by its coupling components (the stage step's ``Phi`` factor), the
same check for a change to ``repro.batch.linalg`` that must leave those
factors alone.  That
factor is the only blocked Cholesky: the QP step of ``loop-scalar`` is the
one QP loop at one lane (``repro.batch.qp.solve_qp_batch``, called by the
SQP driver ``repro.batch.ipm.solve_lanes``), which factors through it, so
its digest covers a change there too.

``--against OTHER`` re-runs this script in a subprocess with ``--root
OTHER`` and the same workload and seeds, prints both sets of lines, and
exits 1 when any ``sha256=`` field differs: the "digests unchanged" gate
as one command (``--root`` at the change, ``--against`` at a parent clone).
"""

from __future__ import annotations

import argparse
import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path


def _factor_tiles_digest() -> str:
    import numpy as np
    from repro.batch import BatchCholeskyFactor

    rng = np.random.default_rng(0)
    parts = []

    def digest(factor):
        out = hashlib.sha256()
        for tiles in (factor._D, factor._Dinv, factor._C):
            out.update(np.ascontiguousarray(tiles).tobytes())
        return out.hexdigest()[:16]

    for n, band in ((30, 3), (12, None)):
        idx = np.arange(n)
        L = np.tril(rng.normal(size=(4, n, n)))
        if band is not None:
            L *= np.subtract.outer(idx, idx) <= band
        L[:, idx, idx] = 1.0 + np.abs(L[:, idx, idx])
        factor = BatchCholeskyFactor(L @ L.transpose(0, 2, 1), band=band, reg=1e-9)
        parts.append(f"n={n} band={band} sha256={digest(factor)}")
    try:
        factor, widths = _component_factor(rng)
    except ImportError:  # a checkout that predates the component factor
        parts.append("blocks K=3 s=6 components=none")
    else:
        parts.append(f"blocks K=3 s=6 components={widths} sha256={digest(factor)}")
    return "  ".join(parts)


def _component_factor(rng):
    """A seeded ``(4, 3, 6, 6)`` block stack factored by its coupling
    components (block mode with ``parts``, the stage step's ``Phi``
    factor), and the component widths."""
    import numpy as np
    from repro.batch import BatchCholeskyFactor

    try:
        from repro.batch.host import _tile_parts, coupling_components
    except ImportError:  # a checkout whose stage layout lives in repro.mpc
        from repro.mpc.banded import coupling_components
        from repro.mpc.qp import _tile_parts

    K, s = 3, 6
    idx = np.arange(K * s)
    tile = idx // s
    pattern = (rng.random((K * s, K * s)) < 0.15) & (tile[:, None] == tile)
    pattern = pattern | pattern.T
    label = coupling_components(pattern)
    couple = label[:, None] == label[None, :]
    L = np.tril(rng.normal(size=(4, K * s, K * s))) * couple
    L[:, idx, idx] = 1.0 + np.abs(L[:, idx, idx])
    A = L @ L.transpose(0, 2, 1)
    blocks = A.reshape(4, K, s, K, s)[:, np.arange(K), :, np.arange(K), :]
    blocks = blocks.transpose(1, 0, 2, 3)  # (4, K, s, s)
    tiled = _tile_parts(label, idx.reshape(K, s))
    factor = BatchCholeskyFactor(
        blocks, reg=1e-9, parts=[(w, index.ravel()) for w, index in tiled]
    )
    widths = ",".join(f"{w}x{len(index)}" for w, index in tiled)
    return factor, widths


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True, help="checkout to import from")
    parser.add_argument(
        "--workload",
        default="fleet-ragged",
        choices=("fleet-ragged", "fleet-admm", "fleet-sharded", "loop-scalar"),
    )
    parser.add_argument("--seed", type=int, nargs="+", default=[0])
    parser.add_argument(
        "--against",
        help="a second checkout to hash the same way; exit 1 on any difference",
    )
    args = parser.parse_args()
    other = []
    if args.against is not None:
        # the other checkout first, so the two passes never share memory
        other = subprocess.run(
            [
                sys.executable, __file__,
                "--root", args.against,
                "--workload", args.workload,
                "--seed", *map(str, args.seed),
            ],
            stdout=subprocess.PIPE,
            text=True,
            check=True,
        ).stdout.splitlines()
        print(f"== {Path(args.against).resolve()}", *other, sep="\n")
        print(f"== {Path(args.root).resolve()}", flush=True)
    ours = []
    for line in _hash_lines(args):
        print(line, flush=True)
        ours.append(line)
    if args.against is None:
        return 0
    same = _digests(ours) == _digests(other)
    print("digests " + ("identical" if same else "DIFFER"))
    return 0 if same else 1


def _digests(lines):
    return [d for line in lines for d in re.findall(r"sha256=(\S+)", line)]


def _hash_lines(args):
    """Yield the factor-tiles line, then one digest line per seed, for the
    checkout at ``args.root`` (imported into this process)."""
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
    yield f"factor-tiles {_factor_tiles_digest()}"
    for seed in args.seed:
        workload = WORKLOADS[args.workload](seed)
        workload.setup()
        workload.begin_pass()
        scalar = workload.layout == "scalar"
        before = _work(workload)
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
        # the pass's work, so "same digest" and "same work" are one line
        work = "".join(
            f" {key}={value - before[key]}"
            for key, value in _work(workload).items()
        )
        workload.teardown()
        yield (
            f"{args.workload} seed={seed} steps={served} "
            f"plans={len(controllers)} sha256={digest.hexdigest()}{work}"
        )


def _work(workload):
    """Cumulative work counters: ``loop-scalar``'s solver totals, or a
    fleet's ``FleetMetrics`` lane counters — read directly, since a fleet's
    ``counters()`` calls ``collect_solver_stats``, which adds to them."""
    if workload.layout == "scalar":
        return workload.counters()
    metrics = workload.engine.metrics
    return {
        key: getattr(metrics, key)
        for key in ("sqp_lane_iterations", "qp_lane_iterations", "qp_lane_slots")
    }


if __name__ == "__main__":
    sys.exit(main())
