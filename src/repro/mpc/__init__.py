"""MPC formulation and the one-lane solver facades (paper §II).

Public surface:

* :class:`RobotModel` / :class:`VarSpec` — the ``System`` IR.
* :class:`Task` / :class:`Penalty` / :class:`Constraint` — the ``Task`` IR.
* :class:`TranscribedProblem` — horizon discretization (Eq. 5).
* :class:`InteriorPointSolver` — the Eq. 6 SQP + interior-point solver of
  one problem, the one-lane call of :func:`repro.batch.ipm.solve_lanes`.
* :func:`solve_qp` — one QP, the one-lane call of
  :func:`repro.batch.qp.solve_qp_batch` (or, for
  ``QPOptions(method="admm")``, of
  :func:`repro.firstorder.batch.solve_qp_admm_batch`).
* the from-scratch substitutions (:func:`forward_substitution`,
  :func:`backward_substitution`, :func:`cholesky_solve`) and
  :class:`BandedCholeskyFactor`, the one-lane view of
  :class:`repro.batch.linalg.BatchCholeskyFactor`.
* :class:`MPCController` / :class:`PlantIntegrator` — the receding-horizon
  loop and its plant.

The solver itself is the core, :mod:`repro.batch` and
:mod:`repro.firstorder`, which imports nothing from this package; the
options, results, budgets and health records the facades take and return
are its contract, :mod:`repro.batch.contract`.  :class:`SolveBudget` is
bound here as well, for callers that drive a controller under a budget.
"""

from repro.batch.contract import SolveBudget
from repro.mpc.banded import BandedCholeskyFactor
from repro.mpc.controller import (
    ClosedLoopLog,
    MPCController,
    PlantIntegrator,
    integrate_plant,
)
from repro.mpc.ipm import InteriorPointSolver
from repro.mpc.linalg import (
    backward_substitution,
    cholesky_solve,
    forward_substitution,
)
from repro.mpc.model import RobotModel, VarSpec
from repro.mpc.qp import solve_qp
from repro.mpc.task import RUNNING, TERMINAL, Constraint, Penalty, Task
from repro.mpc.transcription import INTEGRATORS, TranscribedProblem

__all__ = [
    "RobotModel",
    "VarSpec",
    "Task",
    "Penalty",
    "Constraint",
    "RUNNING",
    "TERMINAL",
    "TranscribedProblem",
    "INTEGRATORS",
    "InteriorPointSolver",
    "MPCController",
    "ClosedLoopLog",
    "PlantIntegrator",
    "integrate_plant",
    "SolveBudget",
    "cholesky_solve",
    "forward_substitution",
    "backward_substitution",
    "BandedCholeskyFactor",
    "solve_qp",
]
