"""repro — a reproduction of RoboX (ISCA 2018).

RoboX is an end-to-end acceleration solution for robot motion planning and
control: a mathematical DSL for robot models and tasks, a compiler lowering
DSL programs to a Model-Predictive-Control formulation plus primal-dual
interior-point solver, and a programmable accelerator with compute-enabled
interconnects executing the statically scheduled solver.

Package map:

* :mod:`repro.symbolic` — expression DAGs, autodiff, numeric compilation.
* :mod:`repro.mpc` — models, tasks, transcription, the SQP + interior-point
  solver, and the receding-horizon controller.
* :mod:`repro.linearize` — the one lane-batched linearize assembler the
  scalar problem and :mod:`repro.batch` both evaluate through.
* :mod:`repro.robots` — the six Table III benchmark robots.
* :mod:`repro.dsl` — the RoboX language frontend.
* :mod:`repro.compiler` — Program Translator (M-DFG), Algorithm-1 mapping,
  static scheduling, and the 32-bit ISA.
* :mod:`repro.accelerator` — fixed-point datapath, LUTs, cycle simulator.
* :mod:`repro.baselines` — CPU/GPU platform models + reference solvers.
* :mod:`repro.experiments` — regeneration of every paper table and figure.

Quickstart::

    import numpy as np
    from repro.robots import build_benchmark

    bench = build_benchmark("Quadrotor")
    problem = bench.transcribe(horizon=16)
    controller = bench.make_controller(problem)
    u = controller.step(bench.x0, ref=bench.ref)
"""

from repro.errors import ReproError

__version__ = "0.1.0"
__all__ = ["ReproError", "__version__"]
