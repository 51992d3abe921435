"""The wire format between the serve engine and its shard workers.

The worker entry point, :func:`repro.serve2.shard.shard_solve_group` (one
padded group), speaks it: a solve result crosses the process boundary as
a plain picklable dict, a rejected solve as an error reply whose ``kind``
picks the session's ladder step, and a chaos directive shipped with the
request is executed worker-side before the solve.
"""

from __future__ import annotations

import os
from typing import Dict, Optional

import numpy as np

from repro.errors import ReproError, StateValidationError
from repro.mpc.health import SolverHealth
from repro.mpc.ipm import IPMResult

__all__ = [
    "result_to_dict",
    "result_from_dict",
    "error_reply",
    "run_fault_directive",
]


def result_to_dict(result: IPMResult) -> Dict[str, object]:
    """A lane's result as a picklable dict.  The multipliers stay behind:
    a served result feeds only the session's shifted primal warm start."""
    return {
        "z": result.z,
        "converged": result.converged,
        "iterations": result.iterations,
        "qp_iterations": result.qp_iterations,
        "objective": result.objective,
        "kkt_residual": result.kkt_residual,
        "status": result.status,
        "solve_time": result.solve_time,
        "health": result.health.to_dict() if result.health is not None else None,
    }


def result_from_dict(data: Dict[str, object]) -> IPMResult:
    """Rebuild the :class:`IPMResult` a worker sent as :func:`result_to_dict`."""
    return IPMResult(
        z=np.asarray(data["z"], dtype=float),
        converged=bool(data["converged"]),
        iterations=int(data["iterations"]),
        qp_iterations=int(data["qp_iterations"]),
        objective=float(data["objective"]),
        kkt_residual=float(data["kkt_residual"]),
        status=str(data["status"]),
        solve_time=float(data["solve_time"] or 0.0),
        health=SolverHealth.from_dict(data.get("health")),
    )


def error_reply(exc: ReproError) -> Dict[str, object]:
    """The reply for a solve the worker's solver rejected.

    ``bad_state`` is a rejected *input*, not a solver failure: the session
    must not drop its warm start over it; ``solver_error`` implicates the
    warm start.
    """
    bad_state = isinstance(exc, StateValidationError)
    health = exc.health if bad_state else None
    return {
        "ok": False,
        "kind": "bad_state" if bad_state else "solver_error",
        "error": str(exc),
        "solve_time": None,
        "health": health.to_dict() if health is not None else None,
    }


def run_fault_directive(fault: Optional[Dict[str, object]]) -> None:
    """Execute a chaos directive inside the worker, before the solve:
    ``shard_crash`` hard-kills this process — exactly the failure the
    engine must survive.  (The engine handles ``worker_crash`` and
    ``slow`` itself and never ships them.)"""
    if fault and fault.get("kind") == "shard_crash":
        os._exit(3)  # no cleanup: simulate an OOM-kill / segfault
