"""Timing one replay of a workload, steadily, on a machine that is not.

Shared VMs run in bursts: measured here, the same deterministic tick takes
20-45 % longer for a minute at a time while a neighbour is busy, and the
speed flips between two states at sub-second scale inside such a phase.
Two devices keep the reported times from following the neighbour:

* every tick index is timed in several replays and keeps its *quietest*
  reading (interference only ever adds time);
* each replay is normalised by the speed the machine showed, during that
  same replay, on a small fixed reference kernel run between the ticks —
  reported milliseconds are milliseconds *at the nominal kernel speed*.

Over 26 back-to-back runs of one seed of ``fleet-ragged`` this took the
inter-quartile spread of ``tick_p50_ms`` from 7.1 % to 3.3 % and its range
from 28 % to 13 %.  The factor and the raw times are printed with each run.
"""

from __future__ import annotations

import hashlib
from functools import cached_property
from time import perf_counter
from typing import Dict, List, Optional

import numpy as np

#: reference-kernel samples taken before every tick (~0.5 ms each)
KERNEL_SAMPLES = 5
#: kernel time on a quiet machine of the class the baseline was recorded on;
#: only fixes the unit, any constant would rank runs alike
NOMINAL_KERNEL_S = 0.52e-3

_A = np.random.default_rng(0).standard_normal((12, 12))
_EYE = 12.0 * np.eye(12)
_V = np.ones(12)


def reference_kernel() -> float:
    """Interpreter work interleaved with small dense numpy/LAPACK calls —
    the instruction mix of the solvers' inner loops, none of their code."""
    acc = 0.0
    for i in range(60):
        m = _A @ _A.T + _EYE
        w = np.linalg.cholesky(m) @ _V
        acc += float(w[0]) + i * i
        acc += len({"k": i, "w": w})
    return acc


def sample_kernel(into: List[float], count: int = KERNEL_SAMPLES) -> None:
    """Time ``count`` runs of the reference kernel, appending to ``into``."""
    for _ in range(count):
        t0 = perf_counter()
        reference_kernel()
        into.append(perf_counter() - t0)


def machine_speed(kernel: List[float]) -> float:
    """Nominal over measured kernel time: < 1 on a slowed machine.

    What is being normalised is long against the machine's speed flips, so
    it sees their time average: the estimate is the *mean* kernel sample,
    each capped at twice the lower decile so a sample that caught an
    interrupt does not count as a slow machine.  (Against pass time over 78
    recorded passes this tracked with slope 1.12 and 3.3 % residual; the
    lower quartile under-corrects with slope 1.37 and 4.1 %.)
    """
    samples = np.asarray(kernel)
    cap = 2.0 * np.percentile(samples, 10)
    return NOMINAL_KERNEL_S / float(np.mean(np.minimum(samples, cap)))


class Pass:
    """One replay of the workload's ticks (read only after ``run_pass``)."""

    def __init__(self, traced: bool):
        self.traced = traced
        #: wall seconds of each tick, as measured
        self.raw: List[float] = []
        self.kernel: List[float] = []
        self.robots: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.graded = 0
        self.counters: Dict[str, float] = {}
        self.window = (0.0, 0.0)
        self.digest = ""

    @cached_property
    def speed(self) -> float:
        return machine_speed(self.kernel)

    @property
    def times(self) -> List[float]:
        """Tick seconds at the nominal kernel speed."""
        speed = self.speed
        return [t * speed for t in self.raw]

    @property
    def wall(self) -> float:
        return sum(self.times)


def run_pass(workload, tracer, plans: Optional[dict]) -> Pass:
    """Rewind to the seeded cold start and time every tick once."""
    out = Pass(traced=tracer is not None)
    digest = hashlib.sha256()
    workload.begin_pass()
    before = workload.counters()
    if tracer is not None:
        tracer.install()
    start = perf_counter()
    try:
        for index in range(workload.n_ticks):
            sample_kernel(out.kernel)
            elapsed, steps = workload.tick(index)
            out.raw.append(elapsed)
            out.robots.append(steps[0].robot)
            for step in steps:
                out.attempted += 1
                out.failed += step.failed
                out.graded += step.grade
                digest.update(step.key.encode())
                digest.update(b"!" if step.u is None else step.u.tobytes())
            if index == 0 and plans is not None:
                plans.update(workload.first_tick_plans())
    finally:
        out.window = (start, perf_counter())
        if tracer is not None:
            tracer.uninstall()
    out.digest = digest.hexdigest()
    after = workload.counters()
    out.counters = {k: after[k] - before[k] for k in after}
    return out


def quietest(passes: List[Pass]) -> List[float]:
    """Per tick, the fastest normalised reading over the replays."""
    return [min(column) for column in zip(*(p.times for p in passes))]
