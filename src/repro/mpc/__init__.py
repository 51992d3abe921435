"""MPC formulation and primal-dual interior-point solver (paper §II).

Public surface:

* :class:`RobotModel` / :class:`VarSpec` — the ``System`` IR.
* :class:`Task` / :class:`Penalty` / :class:`Constraint` — the ``Task`` IR.
* :class:`TranscribedProblem` — horizon discretization (Eq. 5).
* :class:`InteriorPointSolver` / :class:`IPMOptions` / :class:`IPMResult` —
  the Eq. 6 solver built on Cholesky + substitution (LAPACK tiles through
  the one blocked factor, :class:`repro.batch.linalg.BatchCholeskyFactor`).
* :func:`solve_qp` / :class:`QPOptions` / :class:`QPResult` /
  :class:`QPStats` — the inner Mehrotra IPM with per-phase observability,
  the one-lane call of :func:`repro.batch.qp.solve_qp_batch`.
* the from-scratch dense kernels (:func:`cholesky` and the substitutions)
  and the banded op counts (:func:`bandwidth_of`, ``flop_counts_banded_*``)
  — the accelerator's cost model of the
  stage-ordered factorization path (``Phi``'s stage blocks as one stack,
  the Schur complement banded, ``O(n b^2)``) — and
  :class:`BandedCholeskyFactor`, the one-lane view of
  :class:`repro.batch.linalg.BatchCholeskyFactor`.
* :class:`MPCController` — the receding-horizon loop.
* :class:`SolveBudget` — per-solve deadline / iteration allowances for the
  online serving path (:mod:`repro.serve`).
"""

from repro.mpc.banded import (
    BandedCholeskyFactor,
    bandwidth_of,
    flop_counts_banded_cholesky,
    flop_counts_banded_substitution,
)
from repro.mpc.budget import BudgetClock, SolveBudget
from repro.mpc.health import SolverHealth
from repro.mpc.controller import (
    ClosedLoopLog,
    MPCController,
    PlantIntegrator,
    integrate_plant,
)
from repro.mpc.ipm import InteriorPointSolver, IPMOptions, IPMResult
from repro.mpc.qp import QPOptions, QPResult, QPStats, solve_qp
from repro.mpc.linalg import (
    backward_substitution,
    cholesky,
    cholesky_solve,
    forward_substitution,
)
from repro.mpc.model import RobotModel, VarSpec
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
    "IPMOptions",
    "IPMResult",
    "MPCController",
    "ClosedLoopLog",
    "PlantIntegrator",
    "integrate_plant",
    "SolveBudget",
    "BudgetClock",
    "SolverHealth",
    "cholesky",
    "cholesky_solve",
    "forward_substitution",
    "backward_substitution",
    "bandwidth_of",
    "BandedCholeskyFactor",
    "flop_counts_banded_cholesky",
    "flop_counts_banded_substitution",
    "QPOptions",
    "QPResult",
    "QPStats",
    "solve_qp",
]
