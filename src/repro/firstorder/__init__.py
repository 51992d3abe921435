"""First-order (ADMM / ReLU-QP style) QP solver subsystem.

An alternate QP backend alongside the Mehrotra interior-point method of
:mod:`repro.mpc.qp`: an OSQP-style ADMM iteration whose per-iteration work
is matrix-vector products and a clamp against one *cached* factorization of
``P + sigma I + A^T R A`` — re-factored only when the penalty ``rho`` is
rescaled.  The iteration is written once (:mod:`repro.firstorder.batch`),
as batched matmul + clamp over a lane axis through the
:mod:`repro.batch.backend` seam, so it runs device-resident and sync-free
(the ReLU-QP observation: one iteration serves every batch size), with
per-lane convergence masks reusing the masked-lockstep freeze semantics of
:mod:`repro.batch.qp`; the single-QP entry point ``solve_qp_admm``
(:mod:`repro.firstorder.admm`, which also holds the host-side set-up) is
its ``B = 1`` lane.

Select it with ``QPOptions(method="admm")`` (scalar / SQP),
``BatchSolver(qp_method="admm")`` (batched), or ``serve-sim --qp-method
admm`` (end-to-end).  See DESIGN.md for the IPM-vs-ADMM selection guide.

Resilience layer (DESIGN.md "solver resilience"): stiff problems are Ruiz-
equilibrated first (:mod:`repro.firstorder.precond`, gated on the data's
norm spread), a windowed stall detector turns flat residual plateaus into
explicit ``stalled`` verdicts on the :class:`~repro.mpc.qp.ConditioningReport`,
and ``QPOptions(polish=True)`` adds an active-set rescue polish that
recovers machine-precision solutions from stalled/capped iterates.  Solves
that still end without a usable answer are the fallback ladder's input:
SQP drivers retry them with the IPM inside the remaining budget.
"""

from repro.firstorder.admm import solve_qp_admm
from repro.firstorder.batch import solve_qp_admm_batch
from repro.firstorder.precond import ruiz_equilibrate_batch

__all__ = [
    "ruiz_equilibrate_batch",
    "solve_qp_admm",
    "solve_qp_admm_batch",
]
