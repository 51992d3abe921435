"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_solve_defaults(self):
        args = build_parser().parse_args(["solve", "MobileRobot"])
        assert args.horizon == 16
        assert args.steps == 10

    def test_compile_flags(self):
        args = build_parser().parse_args(
            ["compile", "Quadrotor", "--cus", "64", "--no-interconnect"]
        )
        assert args.cus == 64
        assert args.no_interconnect

    def test_table_choice_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table", "7"])

    def test_figure_choice_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "3"])

    def test_serve_sim_defaults(self):
        args = build_parser().parse_args(["serve-sim"])
        assert args.sessions == 20
        assert args.ticks == 20
        assert args.deadline_ms == 50.0
        assert args.workers == 0
        assert args.engine == "v1"
        assert args.robots is None
        assert not args.json

    def test_serve_sim_backend_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve-sim", "--shard-backend", "mpi"])

    def test_serve_sim_qp_method(self):
        args = build_parser().parse_args(["serve-sim"])
        assert args.qp_method == "ipm"
        args = build_parser().parse_args(
            ["serve-sim", "--qp-method", "admm"]
        )
        assert args.qp_method == "admm"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve-sim", "--qp-method", "sgd"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "MobileRobot" in out and "Hexacopter" in out

    def test_table3(self, capsys):
        assert main(["table", "3"]) == 0
        assert "penalties" in capsys.readouterr().out

    def test_table4(self, capsys):
        assert main(["table", "4"]) == 0
        out = capsys.readouterr().out
        assert "RoboX" in out and "Tesla K40" in out

    def test_solve_runs_closed_loop(self, capsys):
        code = main(["solve", "MobileRobot", "--horizon", "8", "--steps", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "final state" in out
        assert out.count("step") >= 3

    def test_solve_unknown_benchmark(self, capsys):
        assert main(["solve", "WarpDrive"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_solve_json_output_parses(self, capsys):
        code = main(
            ["solve", "MobileRobot", "--horizon", "8", "--steps", "3", "--json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["benchmark"] == "MobileRobot"
        assert doc["horizon"] == 8
        assert len(doc["steps"]) == 3
        step = doc["steps"][0]
        assert {
            "step",
            "objective",
            "iterations",
            "qp_iterations",
            "converged",
            "status",
            "kkt_residual",
            "solve_time_s",
            "input",
        } <= set(step)
        assert step["solve_time_s"] > 0
        totals = doc["totals"]
        assert totals["solves"] == 3
        assert totals["sqp_iterations"] >= 3
        assert totals["converged_steps"] == sum(
            1 for s in doc["steps"] if s["converged"]
        )
        assert len(doc["final_state"]) > 0

    def test_compile_prints_schedule(self, capsys):
        code = main(
            ["compile", "MobileRobot", "--horizon", "8", "--cus", "16",
             "--cus-per-cc", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cycles / IPM iteration" in out
        assert "M-DFG nodes" in out

    def test_compile_ablation_flag(self, capsys):
        main(
            ["compile", "MobileRobot", "--horizon", "8", "--cus", "16",
             "--cus-per-cc", "4"]
        )
        base = capsys.readouterr().out
        main(
            ["compile", "MobileRobot", "--horizon", "8", "--cus", "16",
             "--cus-per-cc", "4", "--no-interconnect"]
        )
        ablated = capsys.readouterr().out

        def cycles(text):
            line = next(l for l in text.splitlines() if "cycles" in l)
            return float(line.split(":")[1].strip().replace(",", ""))

        assert cycles(ablated) > cycles(base)

    def test_compile_unknown_benchmark(self, capsys):
        assert main(["compile", "WarpDrive"]) == 2


class TestServeSim:
    def test_unknown_robot_rejected(self, capsys):
        assert main(["serve-sim", "--robots", "WarpDrive,MobileRobot"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_small_fleet_completes(self, capsys, tmp_path):
        trace = str(tmp_path / "trace.jsonl")
        code = main(
            [
                "serve-sim",
                "--sessions",
                "2",
                "--ticks",
                "2",
                "--robots",
                "MobileRobot",
                "--horizon",
                "6",
                "--deadline-ms",
                "200",
                "--trace",
                trace,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "serve summary" in out
        assert "sessions:        2" in out
        assert "solve latency" in out
        # JSONL trace: 2 session records + 4 steps + 2 ticks + 1 summary.
        with open(trace) as fh:
            records = [json.loads(line) for line in fh]
        types = [r["type"] for r in records]
        assert types.count("session") == 2
        assert types.count("step") == 4
        assert types.count("tick") == 2
        assert types.count("summary") == 1

    def test_admm_fleet_completes(self, capsys):
        code = main(
            [
                "serve-sim",
                "--sessions",
                "1",
                "--ticks",
                "2",
                "--robots",
                "MobileRobot",
                "--horizon",
                "5",
                "--deadline-ms",
                "500",
                "--qp-method",
                "admm",
                "--json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["crashed"] == []
        assert doc["metrics"]["fleet"]["steps"] == 2

    def test_json_report(self, capsys):
        code = main(
            [
                "serve-sim",
                "--sessions",
                "1",
                "--ticks",
                "1",
                "--robots",
                "MobileRobot",
                "--horizon",
                "6",
                "--deadline-ms",
                "200",
                "--json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["sessions"] == 1
        assert doc["crashed"] == []
        assert doc["metrics"]["fleet"]["steps"] == 1


class TestChaos:
    def test_unreachable_solver_faults_exit_2(self, capsys):
        code = main(["chaos", "--schedule", "solver", "--engine", "v2"])
        assert code == 2
        assert "solver-layer faults" in capsys.readouterr().err


class TestBackends:
    def test_lists_variants_and_conform_paths(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "numpy" in out and "(selected)" in out
        assert "numpy, numpy:float32, numpy:float64" in out
        # numpy owns the unsuffixed batch paths, never the accelerators'.
        assert "batch_qp" in out and "batch_admm" in out
        assert "batch_qp_torch" not in out.split("absent")[0]
        # Absent accelerators are reported, jax included.
        for name in ("torch", "cupy", "jax"):
            from repro.batch import available_backends

            if name not in available_backends():
                assert f"{name}" in out and "absent" in out


class TestConform:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["conform", "run"])
        assert args.cases == 25 and args.seed == 0
        assert args.paths is None and args.robots is None
        assert args.out_dir == "conform/failures"
        assert not args.no_shrink and not args.json

    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["conform"])

    def test_paths_listing(self, capsys):
        assert main(["conform", "paths"]) == 0
        out = capsys.readouterr().out
        assert "dense_kkt" in out and "[baseline]" in out
        assert "accel_sim" in out
        assert "admm_qp" in out and "batch_admm" in out

    def test_paths_family_filter(self, capsys):
        assert main(["conform", "paths", "--family", "qp"]) == 0
        out = capsys.readouterr().out
        assert "dense_kkt" in out and "admm_qp" in out
        assert "accel_sim" not in out

    def test_paths_unknown_family_exits_2(self, capsys):
        assert main(["conform", "paths", "--family", "qqp"]) == 2
        err = capsys.readouterr().err
        assert "qp" in err and "dynamics" in err

    def test_run_small_budget(self, capsys, tmp_path):
        code = main(
            [
                "conform",
                "run",
                "--cases",
                "2",
                "--seed",
                "0",
                "--robots",
                "MobileRobot",
                "--paths",
                "dense_kkt,banded_kkt",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "pass=2" in out and "fail=0" in out

    def test_run_json_report(self, capsys, tmp_path):
        code = main(
            [
                "conform",
                "run",
                "--cases",
                "1",
                "--robots",
                "CartPole",
                "--paths",
                "float_dynamics,accel_sim",
                "--out-dir",
                str(tmp_path),
                "--json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert doc["counts"]["pass"] == 1
        assert doc["fixed_point"] == {"word_bits": 32, "fraction_bits": 17}

    def test_run_unknown_path_exits_2(self, capsys, tmp_path):
        code = main(
            ["conform", "run", "--paths", "warp_drive", "--out-dir", str(tmp_path)]
        )
        assert code == 2
        assert "unknown path" in capsys.readouterr().err

    def test_bad_fxp_bits_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "conform",
                    "run",
                    "--cases",
                    "1",
                    "--fxp-bits",
                    "banana",
                    "--out-dir",
                    str(tmp_path),
                ]
            )

    def test_replay_missing_file_exits_2(self, capsys, tmp_path):
        code = main(["conform", "replay", str(tmp_path / "nope.json")])
        assert code == 2
        assert "not found" in capsys.readouterr().err
