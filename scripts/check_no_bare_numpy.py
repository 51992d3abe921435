#!/usr/bin/env python
"""Lint: the batch hot path must not touch numpy directly.

Every array op in ``src/repro/batch/{linalg,qp,ipm,transcription}.py``
(and the other device-resident modules listed in ``HOT_PATH``) has to route
through the array-backend seam (``repro.batch.backend``) so
the same code runs device-resident under torch.  A bare
``import numpy`` or ``np.`` call in those modules silently pins the op to
the host and reintroduces per-iteration transfers, so it is a lint error,
not a style nit.  ``backend.py`` itself is the one place numpy is allowed:
it *is* the host reference implementation.

Grep-based on purpose: no AST deps, runs on the bare CI install, and the
failure message points at the exact offending line.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
HOT_PATH = [
    REPO / "src" / "repro" / "batch" / name
    for name in ("linalg.py", "qp.py", "ipm.py", "transcription.py")
] + [
    # the first-order (ADMM) loop is device-resident by the same contract;
    # its host-side setup lives in firstorder/admm.py, which — like
    # backend.py — is allowed bare numpy, as is batch/host.py, the core's
    # host code (structure reads, LAPACK tile kernels, flop meters, fault
    # consults, the active-set polish)
    REPO / "src" / "repro" / "firstorder" / "batch.py",
    # the shared linearize assembler (index maps, scatters, point cache, the
    # fused provider) is what a device runs for every tier; the interpreted
    # and C providers are host-only and live in mpc/transcription.py and
    # codegen/linearizer.py, where bare numpy is allowed
    REPO / "src" / "repro" / "linearize.py",
]

#: anything that binds or uses numpy directly
PATTERNS = (
    re.compile(r"^\s*import\s+numpy\b"),
    re.compile(r"^\s*from\s+numpy\b"),
    re.compile(r"(?<![\w.])np\s*\."),
    re.compile(r"(?<![\w.])numpy\s*\."),
)


def offending_lines(path: Path):
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        code = line.split("#", 1)[0]  # comments may mention numpy freely
        for pat in PATTERNS:
            if pat.search(code):
                yield lineno, line.strip()
                break


def main() -> int:
    failures = []
    for path in HOT_PATH:
        if not path.exists():
            print(f"missing hot-path module: {path}", file=sys.stderr)
            return 2
        failures.extend(
            (path, lineno, line) for lineno, line in offending_lines(path)
        )
    if failures:
        print(
            "bare numpy in the batch hot path (route through the backend "
            "seam, see src/repro/batch/backend.py):",
            file=sys.stderr,
        )
        for path, lineno, line in failures:
            rel = path.relative_to(REPO)
            print(f"  {rel}:{lineno}: {line}", file=sys.stderr)
        return 1
    print(f"ok: no bare numpy in {len(HOT_PATH)} batch hot-path modules")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
