"""Self-test of the benchmark harness on miniature workloads.

Not part of tier-1 (``testpaths`` is ``tests/``); run it with
``python -m pytest benchmarks/e2e/test_harness.py`` after touching anything
under ``benchmarks/e2e/`` or ``BENCHMARK.json``.  ~1 min: ``loop-scalar``
still pays its cold C compile.
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run as harness  # noqa: E402
import spans  # noqa: E402
from layer_metrics import EXACT  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: three ticks per workload (one per robot would be four on loop-scalar)
MINI = {name: {"ticks": 3} for name in WORKLOADS}
MINI["loop-scalar"] = {"ticks_per_robot": 1}
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def mini(name, trace, **kwargs):
    return harness.run(
        name, seed=0, seconds=0, trace=trace, sizes=MINI[name], setup_reps=1, **kwargs
    )


def test_spec_stays_inside_the_contract():
    assert 2 <= len(WORKLOADS) <= 8 and len(set(WORKLOADS)) == len(WORKLOADS)
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(n) for n in names)
    assert all(UNIT.fullmatch(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert set(EXACT) <= {m["name"] for m in SPEC["per_layer"]}
    assert 1 <= SPEC["run_seconds"] <= 60


@pytest.mark.parametrize("name", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(name):
    result = mini(name, trace=False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"]) and metric["value"] > 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(name):
    result = mini(name, trace=True)
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    # every span target resolves at this commit
    assert all(v["value"] is not None for v in result["metrics"].values())
    assert result["metrics"]["trace.coverage"]["value"] >= 0.9
    root = "mpc.controller.step_s" if name == "loop-scalar" else "serve2.engine.tick_s"
    assert result["metrics"][root]["value"] > 0


def test_unresolvable_span_target_degrades_to_null():
    layers = dict(spans.LAYERS)
    layers["batch.qp.solve"] = ("repro.batch.qp:renamed_by_a_refactor",)
    layers["serve2.padding.crop"] = ("repro.serve2.no_such_module:PaddedBinding.crop",)
    result = mini("fleet-ragged", trace=True, layers=layers)
    assert result["correct"]
    assert result["metrics"]["batch.qp.solve_s"]["value"] is None
    assert result["metrics"]["serve2.padding.crop_s"]["value"] is None
    assert result["metrics"]["batch.linalg.factor_s"]["value"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
