"""Common scaffolding for the six benchmark robots (Table III).

Each robot module builds a :class:`RobotModel` + :class:`Task` pair and wraps
them in a :class:`RobotBenchmark`, which also carries the default initial
state, reference values and integration step used by the examples, tests and
the benchmark harness.

Counting convention for the reproduced Table III: *Constraints* is the number
of bounded variables (the paper's "physical constraints", expressed via
``lower_bound`` / ``upper_bound`` fields in the DSL) plus the task-specific
``constraint`` declarations; *Penalties* is the number of ``penalty``
declarations.  With this convention the six robots below reproduce the
paper's table exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.mpc.model import RobotModel
from repro.mpc.task import Task
from repro.mpc.transcription import TranscribedProblem

__all__ = ["RobotBenchmark", "table_iii_row"]


@dataclass
class RobotBenchmark:
    """A fully-specified benchmark: model, task, and evaluation defaults."""

    name: str
    model: RobotModel
    task: Task
    #: default initial state for closed-loop runs
    x0: np.ndarray
    #: default reference vector (empty when the task takes no references)
    ref: np.ndarray
    #: control interval in seconds
    dt: float
    #: short description of the system/task pairing (Table III columns)
    system_description: str = ""
    task_description: str = ""
    #: recommended :class:`IPMOptions` overrides for this benchmark (e.g. the
    #: vehicle needs the exact-Hessian hybrid mode and a monotone merit)
    ipm_overrides: Dict[str, object] = field(default_factory=dict)
    #: whether shifted warm starts help this benchmark in closed loop; the
    #: vehicle converges from a fresh rollout guess but not from the shifted
    #: previous solution, so its controller cold-restarts every step
    warm_start: bool = True

    def transcribe(
        self, horizon: int = 32, integrator: str = "rk4"
    ) -> TranscribedProblem:
        """Discretize this benchmark over ``horizon`` steps (paper default 32)."""
        return TranscribedProblem(
            self.model, self.task, horizon=horizon, dt=self.dt, integrator=integrator
        )

    def make_solver(self, problem: TranscribedProblem, **extra):
        """Build an :class:`InteriorPointSolver` with this benchmark's
        recommended options (overridable via ``extra``)."""
        from repro.batch.contract import IPMOptions
        from repro.mpc.ipm import InteriorPointSolver

        kwargs = dict(self.ipm_overrides)
        kwargs.update(extra)
        return InteriorPointSolver(problem, IPMOptions(**kwargs))

    def make_controller(self, problem: TranscribedProblem, **extra):
        """Build an :class:`MPCController` wired per this benchmark."""
        from repro.mpc.controller import MPCController

        return MPCController(
            self.make_solver(problem, **extra), warm_start=self.warm_start
        )

    @property
    def n_states(self) -> int:
        return self.model.n_states

    @property
    def n_inputs(self) -> int:
        return self.model.n_inputs

    @property
    def n_penalties(self) -> int:
        return self.task.n_penalties

    @property
    def n_constraints(self) -> int:
        bounded = sum(
            1 for spec in self.model.states + self.model.inputs if spec.is_bounded
        )
        return bounded + self.task.n_constraints


def table_iii_row(bench: RobotBenchmark) -> Dict[str, object]:
    """One row of the reproduced Table III."""
    return {
        "name": bench.name,
        "system": bench.system_description,
        "task": bench.task_description,
        "states": bench.n_states,
        "inputs": bench.n_inputs,
        "penalties": bench.n_penalties,
        "constraints": bench.n_constraints,
    }
