"""First-order (ADMM / ReLU-QP style) QP solver subsystem.

An alternate QP backend alongside the Mehrotra interior-point loop of
:mod:`repro.batch.qp`: an OSQP-style ADMM iteration whose per-iteration
work is matrix-vector products and a clamp against one *cached*
factorization of ``P + sigma I + A^T R A`` — re-factored only when the
penalty ``rho`` is rescaled.  The iteration is written once
(:mod:`repro.firstorder.batch`), as batched matmul + clamp over a lane
axis through the :mod:`repro.batch.backend` seam, so it runs
device-resident and sync-free (the ReLU-QP observation: one iteration
serves every batch size), with per-lane convergence masks reusing the
masked-lockstep freeze semantics of :mod:`repro.batch.qp`; its host-side
set-up lives in :mod:`repro.firstorder.admm`.  A single QP is its
``B = 1`` lane: :func:`repro.mpc.qp.solve_qp` with
``QPOptions(method="admm")``.

Select it with ``QPOptions(method="admm")`` (scalar / SQP, and
``BatchSolver`` through its ``options.qp``) or ``serve-sim --qp-method
admm`` (end-to-end).  See DESIGN.md for the IPM-vs-ADMM selection guide.
Like :mod:`repro.batch`, this package imports nothing from
:mod:`repro.mpc`: its options and results are the solver contract,
:mod:`repro.batch.contract`.

Resilience layer (DESIGN.md "solver resilience"): stiff problems are Ruiz-
equilibrated first (:mod:`repro.firstorder.precond`, gated on the data's
norm spread), a windowed stall detector turns flat residual plateaus into
explicit ``stalled`` verdicts on the
:class:`~repro.batch.contract.ConditioningReport`, and
``QPOptions(polish=True)`` adds an active-set rescue polish that recovers
machine-precision solutions from stalled/capped iterates.  Solves that
still end without a usable answer are the fallback ladder's input: SQP
drivers retry them with the IPM inside the remaining budget.
"""

from repro.firstorder.batch import solve_qp_admm_batch
from repro.firstorder.precond import ruiz_equilibrate_batch

__all__ = [
    "ruiz_equilibrate_batch",
    "solve_qp_admm_batch",
]
