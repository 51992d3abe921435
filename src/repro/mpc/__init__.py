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
* the banded kernels — the from-scratch reference of the stage-ordered
  factorization path (``Phi``'s stage blocks as one stack, the Schur
  complement banded, ``O(n b^2)``), its block partition and tile rule —
  and :class:`BandedCholeskyFactor`, the one-lane view of
  :class:`repro.batch.linalg.BatchCholeskyFactor`.
* :class:`MPCController` — the receding-horizon loop.
* :class:`SolveBudget` — per-solve deadline / iteration allowances for the
  online serving path (:mod:`repro.serve`).
"""

from repro.mpc.banded import (
    BandedCholeskyFactor,
    banded_cholesky,
    banded_cholesky_solve,
    banded_solve,
    bandwidth_of,
    flop_counts_banded_cholesky,
    flop_counts_banded_substitution,
    from_banded,
    to_banded,
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
    solve_symmetric,
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
    "solve_symmetric",
    "banded_cholesky",
    "banded_cholesky_solve",
    "banded_solve",
    "bandwidth_of",
    "to_banded",
    "from_banded",
    "BandedCholeskyFactor",
    "flop_counts_banded_cholesky",
    "flop_counts_banded_substitution",
    "QPOptions",
    "QPResult",
    "QPStats",
    "solve_qp",
]
