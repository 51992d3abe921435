"""Tests for the differential conformance harness (:mod:`repro.conform`).

Fast lane: case/ledger/shrink unit tests plus a small conformance budget on
the two cheapest robots.  The full 25-case sweep over every Table III robot
(the acceptance criterion for the harness) is marked ``slow``.

The mutation tests are the harness's own conformance check: a deliberately
corrupted banded solve, batched solve or shared tile kernel must be caught
against the ledger, shrunk, and serialized to a repro file that replays.
"""

import dataclasses
import json

import numpy as np
import pytest

import repro.batch.host as host_mod
import repro.batch.linalg as batch_linalg
from repro.conform import (
    CASE_HORIZONS,
    DEFAULT_ROBOTS,
    FAMILY_BASELINES,
    FORMAT_VERSION,
    ConformanceCase,
    generate_cases,
    get_path,
    load_ledger,
    path_names,
    relative_error,
    replay_file,
    run_case,
    run_conformance,
    shrink_case,
    supported_paths,
    tolerance_for,
)
from repro.errors import ConformanceError
from repro.robots import BENCHMARK_NAMES, EXTRA_NAMES

LEDGER = load_ledger()

#: Cheapest robots for the fast lane — small state spaces, short solves.
FAST_ROBOTS = ["MobileRobot", "CartPole"]


# ---------------------------------------------------------------- cases ----


class TestCases:
    def test_round_trip(self):
        case = ConformanceCase(
            "Quadrotor", horizon=6, seed=42, x0_scale=0.05, warm=True
        )
        assert ConformanceCase.from_dict(case.to_dict()) == case

    def test_unknown_field_rejected(self):
        with pytest.raises(ConformanceError, match="unknown"):
            ConformanceCase.from_dict({"robot": "CartPole", "horzon": 4})

    def test_missing_robot_rejected(self):
        with pytest.raises(ConformanceError, match="robot"):
            ConformanceCase.from_dict({"horizon": 4})

    def test_horizon_floor(self):
        with pytest.raises(ConformanceError, match="horizon"):
            ConformanceCase("CartPole", horizon=1)

    def test_robot_name_canonicalized(self):
        assert ConformanceCase("cartpole").robot == "CartPole"

    def test_unknown_robot_rejected(self):
        with pytest.raises(Exception):
            ConformanceCase("NotARobot")

    def test_case_id_encodes_knobs(self):
        case = ConformanceCase(
            "CartPole", horizon=4, seed=7, warm=True, drop_constraints=True
        )
        assert case.case_id == "CartPole-N4-s7-warm-nocon"

    def test_generator_deterministic(self):
        a = generate_cases(12, seed=3)
        b = generate_cases(12, seed=3)
        assert a == b
        assert a != generate_cases(12, seed=4)

    def test_generator_round_robin_covers_all_robots(self):
        cases = generate_cases(len(DEFAULT_ROBOTS), seed=0)
        assert {c.robot for c in cases} == set(DEFAULT_ROBOTS)

    def test_generator_horizons_from_menu(self):
        for c in generate_cases(20, seed=1):
            assert c.horizon in CASE_HORIZONS

    def test_generator_rejects_empty_budget(self):
        with pytest.raises(ConformanceError):
            generate_cases(0)


# --------------------------------------------------------------- ledger ----


class TestLedger:
    def test_robot_key_wins_over_default(self):
        ledger = {"p": {"default": 1e-6, "CartPole": 1e-2}}
        assert tolerance_for(ledger, "p", "CartPole") == 1e-2
        assert tolerance_for(ledger, "p", "Quadrotor") == 1e-6

    def test_missing_path_entry_is_an_error(self):
        with pytest.raises(ConformanceError, match="ledger"):
            tolerance_for({}, "new_path", "CartPole")

    def test_checked_in_ledger_covers_every_comparison_path(self):
        for name in path_names():
            if name in FAMILY_BASELINES.values():
                continue  # baselines are the oracle; they have no bound
            assert tolerance_for(LEDGER, name, "CartPole") > 0.0

    def test_every_ledger_row_names_a_path_and_its_robots(self):
        # The other direction: no orphaned rows outlive their path, and
        # every per-robot bound names a robot the generator can draw.
        robots = set(BENCHMARK_NAMES) | set(EXTRA_NAMES) | {"default"}
        for name, row in LEDGER.items():
            assert name in path_names(), name
            assert set(row) <= robots, (name, set(row) - robots)

    def test_relative_error_basics(self):
        assert relative_error([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert relative_error([], []) == 0.0
        assert relative_error([1.0], [1.0, 2.0]) == float("inf")
        assert relative_error([np.nan], [1.0]) == float("inf")

    def test_relative_error_is_relative(self):
        # Same absolute gap, bigger baseline -> smaller error.
        small = relative_error([1.1], [1.0])
        large = relative_error([100.1], [100.0])
        assert large < small


# --------------------------------------------------------------- shrink ----


class TestShrink:
    def test_shrinks_to_lattice_bottom_when_everything_fails(self):
        case = ConformanceCase(
            "CartPole",
            horizon=10,
            seed=5,
            x0_scale=0.1,
            ref_scale=0.05,
            weight_scale=1.7,
            warm=True,
        )
        shrunk, checks = shrink_case(case, lambda c: True)
        assert shrunk.horizon == 2
        assert shrunk.drop_constraints
        assert shrunk.weight_scale == 1.0
        assert not shrunk.warm
        assert shrunk.x0_scale == 0.0 and shrunk.ref_scale == 0.0
        assert shrunk.seed == case.seed  # the seed is never touched
        assert checks > 0

    def test_returns_original_when_nothing_simpler_fails(self):
        case = ConformanceCase("CartPole", horizon=8, warm=True)
        shrunk, _ = shrink_case(case, lambda c: False)
        assert shrunk == case

    def test_keeps_only_transforms_preserving_failure(self):
        # Failure depends on the warm start: everything else must shrink,
        # but the warm flag must survive.
        case = ConformanceCase(
            "CartPole", horizon=10, seed=2, weight_scale=1.5, warm=True
        )
        shrunk, _ = shrink_case(case, lambda c: c.warm)
        assert shrunk.warm
        assert shrunk.horizon == 2
        assert shrunk.weight_scale == 1.0

    def test_check_budget_is_respected(self):
        case = ConformanceCase("CartPole", horizon=10, warm=True)
        calls = []

        def predicate(c):
            calls.append(c)
            return True

        _, checks = shrink_case(case, predicate, max_checks=3)
        assert checks == 3 and len(calls) == 3


# ---------------------------------------------------------------- paths ----


class TestPaths:
    def test_registry_lists_baselines(self):
        names = path_names()
        for baseline in FAMILY_BASELINES.values():
            assert baseline in names

    def test_unknown_path_rejected(self):
        with pytest.raises(ConformanceError, match="unknown"):
            get_path("warp_drive")

    def test_dsl_path_support_is_per_robot(self):
        dsl = get_path("dsl_dynamics")
        assert dsl.supports(ConformanceCase("MobileRobot"))
        assert not dsl.supports(ConformanceCase("CartPole"))
        names = [p.name for p in supported_paths(ConformanceCase("CartPole"))]
        assert "dsl_dynamics" not in names and "dense_kkt" in names


# ------------------------------------------------------------ fast lane ----


class TestFastLane:
    def test_small_budget_all_paths_agree(self):
        report = run_conformance(
            n_cases=4, seed=0, robots=FAST_ROBOTS, ledger=LEDGER
        )
        assert report.ok, report.summary()
        assert report.n_pass + report.n_infeasible == 4
        assert report.failure_files == []

    def test_single_case_comparisons_cover_every_family(self):
        outcome = run_case(
            ConformanceCase("MobileRobot", horizon=4, seed=11), ledger=LEDGER
        )
        assert outcome.status == "pass"
        families = {c.family for c in outcome.comparisons}
        assert families == {"qp", "dynamics", "linearize", "padded"}

    def test_path_subset_runs_only_that_family(self):
        report = run_conformance(
            n_cases=2,
            seed=1,
            robots=["CartPole"],
            paths=["dense_kkt", "banded_kkt"],
            ledger=LEDGER,
        )
        assert report.ok, report.summary()
        for outcome in report.outcomes:
            assert {c.family for c in outcome.comparisons} == {"qp"}

    def test_unknown_path_rejected_up_front(self):
        with pytest.raises(ConformanceError, match="unknown"):
            run_conformance(n_cases=1, paths=["dense_kkt", "nope"], ledger=LEDGER)

    def test_impossible_tolerance_fails_without_shrink(self, tmp_path):
        # A zero tolerance makes any nonzero disagreement a failure; with
        # shrinking disabled the original recipe lands in the repro file.
        ledger = {k: dict(v) for k, v in LEDGER.items()}
        ledger["accel_sim"] = {"default": 0.0}
        report = run_conformance(
            n_cases=1,
            seed=0,
            robots=["CartPole"],
            paths=["float_dynamics", "accel_sim"],
            ledger=ledger,
            shrink=False,
            out_dir=tmp_path,
        )
        assert report.n_fail == 1 and not report.ok
        (repro,) = report.failure_files
        doc = json.loads(open(repro).read())
        assert doc["case"] == doc["original_case"]
        assert doc["shrink_checks"] == 0


# --------------------------------------------------------------- replay ----


class TestReplay:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConformanceError, match="not found"):
            replay_file(tmp_path / "nope.json", ledger=LEDGER)

    def test_malformed_file(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ConformanceError, match="malformed"):
            replay_file(p, ledger=LEDGER)

    def test_version_mismatch(self, tmp_path):
        p = tmp_path / "old.json"
        p.write_text(json.dumps({"version": FORMAT_VERSION + 1, "case": {}}))
        with pytest.raises(ConformanceError, match="version"):
            replay_file(p, ledger=LEDGER)

    def test_replay_of_passing_case(self, tmp_path):
        doc = {
            "version": FORMAT_VERSION,
            "case": ConformanceCase("CartPole", horizon=4, seed=3).to_dict(),
            "paths": ["dense_kkt", "banded_kkt"],
        }
        p = tmp_path / "case.json"
        p.write_text(json.dumps(doc))
        outcome = replay_file(p, ledger=LEDGER)
        assert outcome.status == "pass"


# ------------------------------------------------------------- mutation ----


def _off_by_one_steps(monkeypatch):
    """A subtle indexing-style bug in the banded path alone: the hinted
    lane steps (the diagonal and the stage-block one; the dense path
    forms Phi whole) nudge the first entry of every step."""
    from repro.batch import qp as batch_qp

    for cls in (batch_qp._DiagLaneKKT, batch_qp._StageLaneKKT):
        healthy = cls.solve

        def off_by_one(self, rhs1, re, healthy=healthy):
            dx, dnu = healthy(self, rhs1, re)
            dx[:, 0] += 1e-4 * (1.0 + abs(dx[:, 0]))
            return dx, dnu

        monkeypatch.setattr(cls, "solve", off_by_one)


class TestMutationCheck:
    """The acceptance criterion: an injected banded-solver bug must be
    caught, shrunk, and serialized to a replayable repro file."""

    def test_corrupted_banded_solver_is_caught_and_shrunk(
        self, tmp_path, monkeypatch
    ):
        _off_by_one_steps(monkeypatch)
        report = run_conformance(
            n_cases=2,
            seed=0,
            robots=["MobileRobot"],
            paths=["dense_kkt", "banded_kkt"],
            ledger=LEDGER,
            out_dir=tmp_path,
        )
        assert not report.ok and report.n_fail == 2

        repro = report.failure_files[0]
        doc = json.loads(open(repro).read())
        assert doc["version"] == FORMAT_VERSION
        assert [f["path"] for f in doc["failures"]] == ["banded_kkt"]

        # The shrinker must have simplified the recipe, not grown it.
        shrunk = ConformanceCase.from_dict(doc["case"])
        original = ConformanceCase.from_dict(doc["original_case"])
        assert shrunk.horizon <= original.horizon
        assert doc["shrink_checks"] > 0

        # The repro file reproduces the failure while the bug is live...
        assert replay_file(repro, ledger=LEDGER).status == "fail"

        # ...and passes once the mutation is reverted.
        monkeypatch.undo()
        assert replay_file(repro, ledger=LEDGER).status == "pass"

    def test_corrupted_batched_factor_is_caught_and_shrunk(
        self, tmp_path, monkeypatch
    ):
        # ROADMAP 6f: the batched factor kernel gets the same check.
        # MobileRobot's Phi is exactly diagonal: the lockstep step applies
        # its reciprocal pivots in place (_DiagLaneKKT.solve), and the Schur
        # complement's solve runs on the tile factor — corrupt both, on
        # every lane.  The dense_kkt baseline factors through the oracle
        # factor, which neither touches.
        from repro.batch import qp as batch_qp

        healthy_solve = batch_linalg.BatchCholeskyFactor.solve
        healthy_step = batch_qp._DiagLaneKKT.solve

        def off_by_one_solve(self, b):
            x = healthy_solve(self, b)
            x[:, 0] += 1e-4 * (1.0 + abs(x[:, 0]))
            return x

        def off_by_one_step(self, rhs1, re):
            dx, dnu = healthy_step(self, rhs1, re)
            dx[:, 0] += 1e-4 * (1.0 + abs(dx[:, 0]))
            return dx, dnu

        monkeypatch.setattr(
            batch_linalg.BatchCholeskyFactor, "solve", off_by_one_solve
        )
        monkeypatch.setattr(batch_qp._DiagLaneKKT, "solve", off_by_one_step)
        report = run_conformance(
            n_cases=2,
            seed=0,
            robots=["MobileRobot"],
            paths=["dense_kkt", "batch_qp"],
            ledger=LEDGER,
            out_dir=tmp_path,
        )
        assert not report.ok and report.n_fail == 2

        repro = report.failure_files[0]
        doc = json.loads(open(repro).read())
        assert doc["version"] == FORMAT_VERSION
        assert [f["path"] for f in doc["failures"]] == ["batch_qp"]

        shrunk = ConformanceCase.from_dict(doc["case"])
        original = ConformanceCase.from_dict(doc["original_case"])
        assert shrunk.horizon <= original.horizon
        assert doc["shrink_checks"] > 0

        assert replay_file(repro, ledger=LEDGER).status == "fail"
        monkeypatch.undo()
        assert replay_file(repro, ledger=LEDGER).status == "pass"

    def test_corrupted_tile_kernel_fails_both_factor_paths(
        self, tmp_path, monkeypatch
    ):
        # ROADMAP 6f: the host tile kernel is defined once and the one
        # blocked factor calls it for every hinted step, so one patch at
        # that definition must fail the banded path and the batched one
        # (the dense_kkt baseline's oracle factor never calls it).
        # MobileRobot's Schur complement is where the tiles run (its Phi
        # takes the diagonal lanes).
        healthy_inverse = host_mod.tril_inverse

        def transposed_inverse(L):
            return np.swapaxes(healthy_inverse(L), -1, -2)

        monkeypatch.setattr(host_mod, "tril_inverse", transposed_inverse)
        report = run_conformance(
            n_cases=2,
            seed=0,
            robots=["MobileRobot"],
            paths=["dense_kkt", "banded_kkt", "batch_qp"],
            ledger=LEDGER,
            out_dir=tmp_path,
        )
        assert not report.ok and report.n_fail == 2

        repro = report.failure_files[0]
        doc = json.loads(open(repro).read())
        assert [f["path"] for f in doc["failures"]] == ["banded_kkt", "batch_qp"]

        shrunk = ConformanceCase.from_dict(doc["case"])
        original = ConformanceCase.from_dict(doc["original_case"])
        assert shrunk.horizon <= original.horizon
        assert doc["shrink_checks"] > 0

        assert replay_file(repro, ledger=LEDGER).status == "fail"
        monkeypatch.undo()
        assert replay_file(repro, ledger=LEDGER).status == "pass"

    def test_corrupted_block_factor_fails_the_stage_step(
        self, tmp_path, monkeypatch
    ):
        # ROADMAP 7f: the stage step's block-diagonal factor is the one
        # factor's block mode.  The mutation is an off-by-one in the block
        # index (block k is applied block k-1's inverse factor); Quadrotor's
        # Phi has stage blocks (a diagonal Phi, MobileRobot's, is factored
        # in place and never reaches block mode).
        healthy = batch_linalg.BatchCholeskyFactor._factor_blocks

        def shifted_blocks(self, M, finite, reg_fill):
            healthy(self, M, finite, reg_fill)
            self._Dinv = np.roll(self._Dinv, 1, axis=1)

        monkeypatch.setattr(
            batch_linalg.BatchCholeskyFactor, "_factor_blocks", shifted_blocks
        )
        report = run_conformance(
            n_cases=2,
            seed=0,
            robots=["Quadrotor"],
            paths=["dense_kkt", "banded_kkt"],
            ledger=LEDGER,
            out_dir=tmp_path,
        )
        assert not report.ok and report.n_fail == 2

        repro = report.failure_files[0]
        doc = json.loads(open(repro).read())
        assert [f["path"] for f in doc["failures"]] == ["banded_kkt"]

        shrunk = ConformanceCase.from_dict(doc["case"])
        original = ConformanceCase.from_dict(doc["original_case"])
        assert shrunk.horizon <= original.horizon
        assert doc["shrink_checks"] > 0

        assert replay_file(repro, ledger=LEDGER).status == "fail"
        monkeypatch.undo()
        assert replay_file(repro, ledger=LEDGER).status == "pass"

    def test_a_stalled_oracle_fails_the_family(self, monkeypatch):
        # ROADMAP 4(c): the qp oracle may decline a case only where the
        # independent reference_qp declines it too.  The mutation shrinks
        # every dense step a thousandfold, so dense_kkt runs out of
        # iterations on every case without raising; reference_qp and the
        # stage step never call it.
        from repro.batch import qp as batch_qp

        healthy = batch_qp._DenseLaneKKT.solve

        def stalled(self, rhs1, re):
            dx, dnu = healthy(self, rhs1, re)
            return 1e-3 * dx, None if dnu is None else 1e-3 * dnu

        monkeypatch.setattr(batch_qp._DenseLaneKKT, "solve", stalled)
        sweep = dict(
            n_cases=2,
            seed=0,
            robots=["MobileRobot"],
            paths=["dense_kkt", "banded_kkt"],
            ledger=LEDGER,
            shrink=False,
        )
        report = run_conformance(**sweep)
        assert report.n_fail == 2 and report.n_infeasible == 0
        for outcome in report.outcomes:
            assert outcome.failing_paths == ["dense_kkt"]
        monkeypatch.undo()
        assert run_conformance(**sweep).n_pass == 2


# ------------------------------------------------------------ full sweep ---


@pytest.mark.slow
def test_full_acceptance_sweep():
    """The checked-in ledger holds for 25 seeded cases over every robot."""
    report = run_conformance(n_cases=25, seed=0, ledger=LEDGER)
    assert report.ok, report.summary()
    assert report.n_pass >= 20  # infeasible draws are rare, failures zero
