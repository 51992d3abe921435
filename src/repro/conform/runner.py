"""Conformance orchestration: run cases, compare, shrink, serialize.

For each case, each requested family runs its baseline oracle first; a
baseline that fails to converge marks the case *infeasible* for that family
(the generator occasionally lands on a cold-start QP the dense IPM itself
cannot crack — that is a property of the instance, not a disagreement),
unless the family has an independent method that converges there: a ``qp``
baseline that fails where ``reference_qp`` converges is the oracle's
fault, and the case fails.
Every other path is then compared to the baseline through the tolerance
ledger; a comparison path that fails to converge while the baseline
converged is an automatic failure (error = inf).

Failing cases are shrunk (:mod:`repro.conform.shrink`) and serialized to a
JSON repro file that replays with ``repro conform replay <file>``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Union

from repro.accelerator.fixedpoint import FixedPointFormat, Q14_17
from repro.conform.cases import ConformanceCase, generate_cases
from repro.conform.ledger import Ledger, load_ledger, tolerance_for
from repro.conform.paths import (
    FAMILY_BASELINES,
    PATHS,
    CaseContext,
    PathOutput,
    compare_outputs,
    get_path,
)
from repro.conform.shrink import shrink_case
from repro.errors import ConformanceError, ReproError

__all__ = [
    "PathComparison",
    "CaseOutcome",
    "ConformanceReport",
    "run_case",
    "run_conformance",
    "write_failure_file",
    "replay_file",
]

FORMAT_VERSION = 1


@dataclass
class PathComparison:
    """One path's agreement with its family baseline on one case."""

    path: str
    family: str
    error: float
    tolerance: float
    converged: bool
    ok: bool
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "family": self.family,
            "error": self.error,
            "tolerance": self.tolerance,
            "converged": self.converged,
            "ok": self.ok,
            "note": self.note,
        }


@dataclass
class CaseOutcome:
    """Result of one case across all requested paths."""

    case: ConformanceCase
    status: str  # "pass" | "fail" | "infeasible" | "error"
    comparisons: List[PathComparison] = field(default_factory=list)
    message: str = ""

    @property
    def failing_paths(self) -> List[str]:
        return [c.path for c in self.comparisons if not c.ok]

    def to_dict(self) -> dict:
        return {
            "case": self.case.to_dict(),
            "case_id": self.case.case_id,
            "status": self.status,
            "message": self.message,
            "comparisons": [c.to_dict() for c in self.comparisons],
        }


@dataclass
class ConformanceReport:
    """Aggregate of one conformance sweep."""

    outcomes: List[CaseOutcome]
    paths: List[str]
    fmt: FixedPointFormat
    wall_time_s: float = 0.0
    failure_files: List[str] = field(default_factory=list)

    def _count(self, status: str) -> int:
        return sum(1 for o in self.outcomes if o.status == status)

    @property
    def n_pass(self) -> int:
        return self._count("pass")

    @property
    def n_fail(self) -> int:
        return self._count("fail")

    @property
    def n_infeasible(self) -> int:
        return self._count("infeasible")

    @property
    def n_error(self) -> int:
        return self._count("error")

    @property
    def ok(self) -> bool:
        """True when no case failed or errored (infeasible cases are
        skips: the oracle itself rejected the instance)."""
        return self.n_fail == 0 and self.n_error == 0

    @property
    def idle_paths(self) -> List[str]:
        """Swept paths that ran no comparison in any case (no case was
        supported, or every case's family baseline failed to converge).
        Family baselines never run as comparisons and are not listed."""
        ran = {c.path for o in self.outcomes for c in o.comparisons}
        baselines = set(FAMILY_BASELINES.values())
        return [p for p in self.paths if p not in ran and p not in baselines]

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "paths": self.paths,
            "fixed_point": {
                "word_bits": self.fmt.word_bits,
                "fraction_bits": self.fmt.fraction_bits,
            },
            "counts": {
                "pass": self.n_pass,
                "fail": self.n_fail,
                "infeasible": self.n_infeasible,
                "error": self.n_error,
            },
            "wall_time_s": self.wall_time_s,
            "failure_files": self.failure_files,
            "outcomes": [o.to_dict() for o in self.outcomes],
        }

    def summary(self) -> str:
        lines = [
            f"conformance: {len(self.outcomes)} cases over paths "
            f"{', '.join(self.paths)} ({self.fmt})",
            f"  pass={self.n_pass} fail={self.n_fail} "
            f"infeasible={self.n_infeasible} error={self.n_error} "
            f"in {self.wall_time_s:.1f}s",
        ]
        worst: Dict[str, PathComparison] = {}
        for o in self.outcomes:
            for c in o.comparisons:
                if c.converged and (
                    c.path not in worst or c.error > worst[c.path].error
                ):
                    worst[c.path] = c
        for name, c in sorted(worst.items()):
            lines.append(
                f"  worst {name:14s} err={c.error:9.3e} tol={c.tolerance:9.3e}"
            )
        for o in self.outcomes:
            if o.status in ("fail", "error"):
                detail = o.message or ", ".join(
                    f"{c.path} err={c.error:.3e}>tol={c.tolerance:.3e}"
                    for c in o.comparisons
                    if not c.ok
                )
                lines.append(f"  {o.status.upper()} {o.case.case_id}: {detail}")
        for f in self.failure_files:
            lines.append(f"  repro file: {f}")
        return "\n".join(lines)


def _resolve_paths(paths: Optional[Sequence[str]]) -> List[str]:
    names = list(paths) if paths else list(PATHS)
    for n in names:
        get_path(n)  # raises on unknown
    if not names:
        raise ConformanceError("no conformance paths selected")
    return names


def run_case(
    case: ConformanceCase,
    paths: Optional[Sequence[str]] = None,
    ledger: Optional[Ledger] = None,
    fmt: FixedPointFormat = Q14_17,
) -> CaseOutcome:
    """Run one case through the requested paths and compare via the ledger.

    Family baselines run implicitly whenever any member of their family is
    requested — the oracle is not optional.
    """
    names = _resolve_paths(paths)
    ledger = ledger if ledger is not None else load_ledger()

    try:
        ctx = CaseContext(case, fmt=fmt)
    except ReproError as exc:
        return CaseOutcome(case, "error", message=f"context build failed: {exc}")

    comparisons: List[PathComparison] = []
    families = []
    for n in names:
        fam = get_path(n).family
        if fam not in families:
            families.append(fam)

    feasible_families = 0
    for family in families:
        baseline_name = FAMILY_BASELINES[family]
        members = [
            n
            for n in names
            if get_path(n).family == family
            and n != baseline_name
            and get_path(n).supports(case)
        ]
        try:
            base: PathOutput = get_path(baseline_name).run(ctx)
        except ReproError as exc:
            return CaseOutcome(
                case,
                "error",
                comparisons,
                message=f"baseline {baseline_name} raised: {exc}",
            )
        if not base.converged:
            faulted = (
                family == "qp"
                and get_path("reference_qp").run(ctx).converged
            )
            comparisons.append(
                PathComparison(
                    path=baseline_name,
                    family=family,
                    error=float("inf" if faulted else "nan"),
                    tolerance=float("nan"),
                    converged=False,
                    ok=not faulted,
                    note="baseline did not converge while reference_qp did"
                    if faulted
                    else "baseline did not converge; family skipped",
                )
            )
            continue
        feasible_families += 1
        for name in members:
            tol = tolerance_for(ledger, name, case.robot)
            try:
                out = get_path(name).run(ctx)
            except ReproError as exc:
                comparisons.append(
                    PathComparison(
                        path=name,
                        family=family,
                        error=float("inf"),
                        tolerance=tol,
                        converged=False,
                        ok=False,
                        note=f"raised: {exc}",
                    )
                )
                continue
            if not out.converged:
                err = float("inf")
                note = out.note or "path did not converge while baseline did"
            else:
                err = compare_outputs(ctx, family, out, base)
                note = out.note
            comparisons.append(
                PathComparison(
                    path=name,
                    family=family,
                    error=err,
                    tolerance=tol,
                    converged=out.converged,
                    ok=err <= tol,
                    note=note,
                )
            )

    if any(not c.ok for c in comparisons):
        status = "fail"
    elif feasible_families == 0:
        status = "infeasible"
    else:
        status = "pass"
    return CaseOutcome(case, status, comparisons)


def write_failure_file(
    outcome: CaseOutcome,
    original_case: ConformanceCase,
    paths: Sequence[str],
    fmt: FixedPointFormat,
    out_dir: Union[str, Path],
    shrink_checks: int = 0,
) -> Path:
    """Serialize a (shrunk) failing case to a replayable JSON repro file."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    doc = {
        "version": FORMAT_VERSION,
        "case": outcome.case.to_dict(),
        "original_case": original_case.to_dict(),
        "paths": list(paths),
        "fixed_point": {
            "word_bits": fmt.word_bits,
            "fraction_bits": fmt.fraction_bits,
        },
        "failures": [c.to_dict() for c in outcome.comparisons if not c.ok],
        "shrink_checks": shrink_checks,
    }
    target = out / f"conform_{outcome.case.case_id}.json"
    target.write_text(json.dumps(doc, indent=2) + "\n")
    return target


def replay_file(
    path: Union[str, Path],
    ledger: Optional[Ledger] = None,
    ledger_path: Union[str, Path, None] = None,
) -> CaseOutcome:
    """Re-run a serialized repro file (``repro conform replay``)."""
    p = Path(path)
    if not p.exists():
        raise ConformanceError(f"repro file not found: {p}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConformanceError(f"malformed repro file {p}: {exc}") from None
    if doc.get("version") != FORMAT_VERSION:
        raise ConformanceError(
            f"repro file {p} has version {doc.get('version')!r}; "
            f"expected {FORMAT_VERSION}"
        )
    case = ConformanceCase.from_dict(doc["case"])
    fp = doc.get("fixed_point", {})
    fmt = FixedPointFormat(
        fp.get("word_bits", Q14_17.word_bits),
        fp.get("fraction_bits", Q14_17.fraction_bits),
    )
    if ledger is None:
        ledger = load_ledger(ledger_path)
    return run_case(case, doc.get("paths"), ledger, fmt)


def run_conformance(
    cases: Optional[Sequence[ConformanceCase]] = None,
    n_cases: int = 25,
    seed: int = 0,
    robots: Optional[Sequence[str]] = None,
    paths: Optional[Sequence[str]] = None,
    ledger: Optional[Ledger] = None,
    ledger_path: Union[str, Path, None] = None,
    fmt: FixedPointFormat = Q14_17,
    shrink: bool = True,
    out_dir: Union[str, Path, None] = None,
    max_shrink_checks: int = 24,
) -> ConformanceReport:
    """Run a conformance sweep; shrink + serialize every failing case.

    Either pass explicit ``cases`` or let the seeded generator produce
    ``n_cases`` over ``robots`` (default: Table III six + CartPole).
    """
    t0 = perf_counter()
    names = _resolve_paths(paths)
    if ledger is None:
        ledger = load_ledger(ledger_path)
    if cases is None:
        cases = generate_cases(n_cases, seed=seed, robots=robots)

    outcomes: List[CaseOutcome] = []
    failure_files: List[str] = []
    for case in cases:
        outcome = run_case(case, names, ledger, fmt)
        if outcome.status == "fail":
            failing = outcome.failing_paths
            shrunk_case, checks = case, 0
            if shrink:

                def _still_fails(candidate: ConformanceCase) -> bool:
                    res = run_case(candidate, failing, ledger, fmt)
                    return any(p in res.failing_paths for p in failing)

                shrunk_case, checks = shrink_case(
                    case, _still_fails, max_checks=max_shrink_checks
                )
            final = outcome
            if shrunk_case != case:
                final = run_case(shrunk_case, names, ledger, fmt)
                if final.status != "fail":  # pragma: no cover - paranoia
                    final = outcome
            if out_dir is not None:
                failure_files.append(
                    str(
                        write_failure_file(
                            final, case, names, fmt, out_dir, checks
                        )
                    )
                )
            outcomes.append(final)
        else:
            outcomes.append(outcome)

    return ConformanceReport(
        outcomes=outcomes,
        paths=names,
        fmt=fmt,
        wall_time_s=perf_counter() - t0,
        failure_files=failure_files,
    )
