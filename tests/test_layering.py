"""The solver core is imported one way: ``repro.batch`` and
``repro.firstorder`` import nothing from ``repro.mpc``, which imports them
at module level.  Every package imports cleanly when it is the first
``repro`` module a fresh interpreter loads, so no import order hides a
cycle."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True
    )


@pytest.mark.parametrize(
    "package",
    ["repro.batch", "repro.firstorder", "repro.mpc", "repro.serve2", "repro.conform"],
)
def test_package_imports_first_in_a_fresh_interpreter(package):
    done = _run("-c", f"import {package}")
    assert done.returncode == 0, done.stderr


def test_the_core_imports_nothing_from_mpc():
    done = _run(str(ROOT / "scripts" / "check_layering.py"))
    assert done.returncode == 0, done.stderr
