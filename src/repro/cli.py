"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    The six Table III benchmarks and their model/task parameters.
``solve BENCHMARK``
    Run closed-loop MPC for one benchmark and print the trajectory summary.
``compile BENCHMARK``
    Compile one benchmark to the accelerator and print the schedule summary.
``table {3,4}``
    Print a reproduced paper table.
``figure {5,...,12}``
    Print a reproduced paper figure (9-12 sweep to N = 1024; takes longer).
``serve-sim``
    Run the multi-session serving runtime against simulated plants:
    deadline-budgeted solves, graceful degradation, fleet telemetry, on
    the async continuous-batching engine (batched group solves, EDF
    scheduling, horizon bucketing, sharded fleets).  Exits non-zero when
    any session crashed (the serve2-smoke gate).
``backends``
    List the registered array backends for the batch kernels (numpy is
    always present; torch appears when importable) and how to select one
    (a ``backend=`` argument or ``serve-sim --array-backend``).
``chaos``
    Run a fault-injection campaign (see :mod:`repro.faults`): a scripted
    schedule of sensor/solver/serve faults against a live fleet, followed
    by recovery-invariant checks.  Exits non-zero when any invariant
    fails (the chaos-smoke gate).
``conform``
    Differential conformance harness (see :mod:`repro.conform`):
    ``conform run`` sweeps randomized cases through every registered
    numeric path against the tolerance ledger (exits non-zero on any
    disagreement; failing cases are shrunk and serialized), ``conform
    replay FILE`` re-runs a serialized failure, ``conform paths`` lists
    the registered paths.
"""

from __future__ import annotations

import argparse
import json
import sys
from time import perf_counter
from typing import List, Optional

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    from repro.batch.contract import QP_METHODS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="RoboX reproduction: DSL-to-accelerator MPC toolchain",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the Table III benchmarks")

    p_solve = sub.add_parser("solve", help="run closed-loop MPC for a benchmark")
    p_solve.add_argument("benchmark", help="benchmark name (see `repro list`)")
    p_solve.add_argument("--horizon", type=int, default=16, help="MPC horizon N")
    p_solve.add_argument("--steps", type=int, default=10, help="closed-loop steps")
    p_solve.add_argument(
        "--json",
        action="store_true",
        help="emit one machine-readable JSON document instead of text",
    )

    p_compile = sub.add_parser(
        "compile", help="compile a benchmark to the accelerator"
    )
    p_compile.add_argument("benchmark")
    p_compile.add_argument("--horizon", type=int, default=32)
    p_compile.add_argument("--cus", type=int, default=256, help="compute units")
    p_compile.add_argument(
        "--cus-per-cc", type=int, default=8, help="CUs per compute cluster"
    )
    p_compile.add_argument(
        "--bandwidth",
        type=float,
        default=16.0,
        help="off-chip bandwidth in bytes/cycle",
    )
    p_compile.add_argument(
        "--no-interconnect",
        action="store_true",
        help="disable the compute-enabled interconnect (Fig. 10 ablation)",
    )

    p_table = sub.add_parser("table", help="print a reproduced paper table")
    p_table.add_argument("number", type=int, choices=(3, 4))

    p_fig = sub.add_parser("figure", help="print a reproduced paper figure")
    p_fig.add_argument("number", type=int, choices=tuple(range(5, 13)))

    p_serve = sub.add_parser(
        "serve-sim",
        help="simulate the multi-session MPC serving runtime",
    )
    p_serve.add_argument(
        "--sessions", type=int, default=20, help="fleet size (default 20)"
    )
    p_serve.add_argument(
        "--ticks", type=int, default=20, help="control periods to simulate"
    )
    p_serve.add_argument(
        "--robots",
        default=None,
        help="comma-separated benchmark names cycled across sessions "
        "(default: MobileRobot,MicroSat,Quadrotor)",
    )
    p_serve.add_argument("--horizon", type=int, default=8, help="MPC horizon N")
    p_serve.add_argument(
        "--horizons",
        default=None,
        help="comma-separated per-session horizons cycled across the fleet "
        "(overrides --horizon; mixed horizons exercise horizon bucketing)",
    )
    p_serve.add_argument(
        "--arrival-jitter",
        type=float,
        default=0.0,
        help="per-tick probability in [0,1) that a session's request "
        "arrives late (seeded; models ragged arrivals)",
    )
    p_serve.add_argument(
        "--robot-mix",
        choices=("cycle", "sample"),
        default="cycle",
        help="how sessions draw from --robots: deterministic cycle "
        "(default) or seeded sampling",
    )
    p_serve.add_argument(
        "--shards",
        type=int,
        default=1,
        help="number of solver shards (sessions are placed by "
        "(robot, bucket) batch key)",
    )
    p_serve.add_argument(
        "--shard-backend",
        choices=("inline", "process"),
        default="inline",
        help="where shard solves run (process = real worker processes, "
        "killable by chaos)",
    )
    p_serve.add_argument(
        "--max-batch",
        type=int,
        default=64,
        help="max lanes fused into one batched solve",
    )
    p_serve.add_argument(
        "--max-queue",
        type=int,
        default=None,
        help="admission-control queue depth (default: unbounded)",
    )
    p_serve.add_argument(
        "--rungs",
        default=None,
        help="comma-separated horizon bucket rungs, e.g. 8,16,32 "
        "(default: engine ladder)",
    )
    p_serve.add_argument(
        "--deadline-ms",
        type=float,
        default=50.0,
        help="per-step solve deadline in milliseconds; 0 disables budgeting",
    )
    p_serve.add_argument(
        "--degrade-after",
        type=int,
        default=3,
        help="consecutive fallbacks before a session is marked degraded",
    )
    p_serve.add_argument(
        "--array-backend",
        default=None,
        metavar="NAME[:DTYPE]",
        help="array backend for the batched lanes, e.g. torch or "
        "numpy:float32 (default: numpy; see `repro backends`)",
    )
    p_serve.add_argument(
        "--qp-method",
        choices=QP_METHODS,
        default="ipm",
        help="inner QP solver for every fleet session: 'ipm' "
        "(interior-point, default) or 'admm' (first-order, cached "
        "factorization + warm-started iterations)",
    )
    p_serve.add_argument(
        "--trace", default=None, help="write a JSONL trace to this path"
    )
    p_serve.add_argument(
        "--seed",
        type=int,
        default=None,
        help="fleet RNG seed (default: $REPRO_BENCH_SEED, then 0)",
    )
    p_serve.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable report instead of the text summary",
    )

    sub.add_parser(
        "backends",
        help="list the registered array backends for the batch kernels",
    )

    p_chaos = sub.add_parser(
        "chaos",
        help="run a fault-injection campaign with recovery invariants",
    )
    p_chaos.add_argument(
        "--robot",
        default="cartpole",
        help="benchmark name, case-insensitive; Table III robots plus the "
        "CartPole extra (default: cartpole)",
    )
    p_chaos.add_argument(
        "--schedule",
        default="smoke",
        help="builtin fault schedule: smoke, sensor, solver, serve, mixed, "
        "resilience, shards (default: smoke)",
    )
    p_chaos.add_argument(
        "--shards",
        type=int,
        default=1,
        help="solver shard count (pair --schedule shards with >= 2: "
        "shard_crash needs a survivor to hand off to)",
    )
    p_chaos.add_argument(
        "--shard-backend",
        choices=("inline", "process"),
        default="inline",
        help="where shard solves run (process = killable workers)",
    )
    p_chaos.add_argument(
        "--sessions", type=int, default=3, help="fleet size (default 3)"
    )
    p_chaos.add_argument(
        "--ticks", type=int, default=40, help="campaign length in ticks"
    )
    p_chaos.add_argument("--horizon", type=int, default=8, help="MPC horizon N")
    p_chaos.add_argument(
        "--deadline-ms",
        type=float,
        default=50.0,
        help="per-step solve deadline in milliseconds; 0 disables budgeting",
    )
    p_chaos.add_argument(
        "--degrade-after",
        type=int,
        default=3,
        help="consecutive fallbacks before a session is marked degraded",
    )
    p_chaos.add_argument(
        "--qp-method",
        choices=QP_METHODS,
        default="ipm",
        help="QP method the fleet starts on; admm arms the rescue ladder "
        "(pair with --schedule resilience)",
    )
    p_chaos.add_argument(
        "--trace", default=None, help="write a JSONL trace to this path"
    )
    p_chaos.add_argument(
        "--seed", type=int, default=0, help="fault schedule / fleet RNG seed"
    )
    p_chaos.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable report instead of the text summary",
    )

    p_conform = sub.add_parser(
        "conform",
        help="differential conformance harness over the numeric paths",
    )
    conform_sub = p_conform.add_subparsers(dest="conform_command", required=True)

    c_run = conform_sub.add_parser(
        "run", help="sweep randomized cases through the registered paths"
    )
    c_run.add_argument(
        "--cases", type=int, default=25, help="case budget (default 25)"
    )
    c_run.add_argument("--seed", type=int, default=0, help="generator seed")
    c_run.add_argument(
        "--paths",
        default=None,
        help="comma-separated path names (default: all registered; see "
        "`repro conform paths`)",
    )
    c_run.add_argument(
        "--robots",
        default=None,
        help="comma-separated benchmark names, case-insensitive "
        "(default: the six Table III robots plus CartPole)",
    )
    c_run.add_argument(
        "--fxp-bits",
        default=None,
        metavar="WORD:FRACTION",
        help="fixed-point width for the accelerator path, e.g. 32:17 "
        "(default: the paper's Q14.17)",
    )
    c_run.add_argument(
        "--ledger", default=None, help="tolerance ledger path override"
    )
    c_run.add_argument(
        "--out-dir",
        default="conform/failures",
        help="directory for shrunk failure repro files",
    )
    c_run.add_argument(
        "--no-shrink",
        action="store_true",
        help="serialize failing cases without shrinking them first",
    )
    c_run.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable report instead of the text summary",
    )

    c_replay = conform_sub.add_parser(
        "replay", help="re-run a serialized failure case file"
    )
    c_replay.add_argument("file", help="repro JSON written by `conform run`")
    c_replay.add_argument(
        "--ledger", default=None, help="tolerance ledger path override"
    )
    c_replay.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable outcome instead of the text summary",
    )

    c_paths = conform_sub.add_parser(
        "paths", help="list the registered numeric paths"
    )
    c_paths.add_argument(
        "--family",
        default=None,
        help="only list paths of this family, e.g. qp, dynamics, accel",
    )

    return parser


def _parse_fxp_bits(spec):
    from repro.accelerator import FixedPointFormat, Q14_17

    if not spec:
        return Q14_17
    try:
        word, _, fraction = spec.partition(":")
        return FixedPointFormat(int(word), int(fraction))
    except ValueError:
        raise SystemExit(
            f"invalid --fxp-bits {spec!r}; expected WORD:FRACTION, e.g. 32:17"
        )


def _cmd_conform(args) -> int:
    from repro.conform import path_names, replay_file, run_conformance
    from repro.errors import ReproError
    from repro.robots import resolve

    if args.conform_command == "paths":
        from repro.conform import PATHS

        family = getattr(args, "family", None)
        shown = 0
        for name, path in PATHS.items():
            if family is not None and path.family != family:
                continue
            tag = " [baseline]" if path.baseline else ""
            print(f"{name:18s} {path.family:9s} {path.description}{tag}")
            shown += 1
        if family is not None and not shown:
            families = sorted({p.family for p in PATHS.values()})
            print(
                f"no paths in family {family!r}; families: "
                f"{', '.join(families)}",
                file=sys.stderr,
            )
            return 2
        return 0

    if args.conform_command == "replay":
        try:
            outcome = replay_file(args.file, ledger_path=args.ledger)
        except ReproError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        if args.json:
            print(json.dumps(outcome.to_dict(), indent=2))
        else:
            print(f"{outcome.case.case_id}: {outcome.status}")
            for c in outcome.comparisons:
                mark = "ok " if c.ok else "FAIL"
                print(
                    f"  {mark} {c.path:15s} err={c.error:9.3e} "
                    f"tol={c.tolerance:9.3e}"
                    + (f"  ({c.note})" if c.note else "")
                )
        return 0 if outcome.status in ("pass", "infeasible") else 1

    # conform run
    try:
        paths = (
            [p.strip() for p in args.paths.split(",") if p.strip()]
            if args.paths
            else None
        )
        robots = (
            [resolve(r.strip()) for r in args.robots.split(",") if r.strip()]
            if args.robots
            else None
        )
        if paths is not None:
            known = set(path_names())
            unknown = [p for p in paths if p not in known]
            if unknown:
                print(
                    f"unknown path(s) {', '.join(unknown)}; registered: "
                    f"{', '.join(sorted(known))}",
                    file=sys.stderr,
                )
                return 2
        report = run_conformance(
            n_cases=args.cases,
            seed=args.seed,
            robots=robots,
            paths=paths,
            ledger_path=args.ledger,
            fmt=_parse_fxp_bits(args.fxp_bits),
            shrink=not args.no_shrink,
            out_dir=args.out_dir,
        )
    except ReproError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.summary())
    idle = report.idle_paths if paths is not None else []
    if idle:
        print(
            f"no comparison ran for --paths {', '.join(idle)}: no case "
            "supported them, or their family baseline never converged",
            file=sys.stderr,
        )
        return 1
    return 0 if report.ok else 1


def _cmd_list() -> int:
    from repro.experiments import render_table, table3

    print(render_table(table3(), "Table III benchmarks"))
    return 0


def _cmd_solve(args) -> int:
    from repro.mpc.controller import PlantIntegrator
    from repro.robots import BENCHMARK_NAMES, build_benchmark

    if args.benchmark not in BENCHMARK_NAMES:
        print(
            f"unknown benchmark {args.benchmark!r}; choose from "
            f"{', '.join(BENCHMARK_NAMES)}",
            file=sys.stderr,
        )
        return 2

    as_json = getattr(args, "json", False)
    bench = build_benchmark(args.benchmark)
    problem = bench.transcribe(horizon=args.horizon)
    controller = bench.make_controller(problem)
    plant = PlantIntegrator(problem)
    x = bench.x0.copy()
    if not as_json:
        print(
            f"{bench.name}: {bench.system_description} / {bench.task_description}"
        )
        print(f"horizon N={args.horizon}, dt={problem.dt}s, nz={problem.nz}")
    steps = []
    for step in range(args.steps):
        t0 = perf_counter()
        u = controller.step(x, ref=bench.ref)
        solve_time = perf_counter() - t0
        x = plant.advance(x, u, problem.dt, 4)
        res = controller.last_result
        if as_json:
            steps.append(
                {
                    "step": step,
                    "objective": res.objective,
                    "iterations": res.iterations,
                    "qp_iterations": res.qp_iterations,
                    "converged": res.converged,
                    "status": res.status,
                    "kkt_residual": res.kkt_residual,
                    "solve_time_s": solve_time,
                    "input": u.tolist(),
                }
            )
        else:
            print(
                f"  step {step:3d}: iters={res.iterations:3d} "
                f"kkt={res.kkt_residual:8.2e} obj={res.objective:10.4f} "
                f"|u|max={np.abs(u).max():8.4f}"
            )
    if as_json:
        stats = controller.solver.stats
        doc = {
            "benchmark": bench.name,
            "horizon": args.horizon,
            "dt": problem.dt,
            "nz": problem.nz,
            "steps": steps,
            "final_state": x.tolist(),
            "totals": {
                "solves": stats["solves"],
                "sqp_iterations": stats["sqp_iterations"],
                "qp_iterations": stats["qp_iterations"],
                "solve_time_s": sum(s["solve_time_s"] for s in steps),
                "linearize_time_s": stats["linearize_time"],
                "factorize_time_s": stats["factorize_time"],
                "substitute_time_s": stats["substitute_time"],
                "converged_steps": sum(1 for s in steps if s["converged"]),
            },
        }
        print(json.dumps(doc, indent=2))
    else:
        print(f"final state: {np.array2string(x, precision=4)}")
    return 0


def _cmd_serve_sim(args) -> int:
    from repro.errors import ReproError
    from repro.robots import BENCHMARK_NAMES, EXTRA_NAMES
    from repro.serve import DEFAULT_ROBOTS, LoadConfig, run_load

    robots = (
        tuple(r.strip() for r in args.robots.split(",") if r.strip())
        if args.robots
        else DEFAULT_ROBOTS
    )
    known = (*BENCHMARK_NAMES, *EXTRA_NAMES)
    unknown = [r for r in robots if r not in known]
    if unknown:
        print(
            f"unknown benchmark(s) {', '.join(unknown)}; choose from "
            f"{', '.join(known)}",
            file=sys.stderr,
        )
        return 2

    if args.array_backend is not None:
        from repro.batch import get_backend

        try:
            get_backend(args.array_backend)
        except ReproError as exc:
            print(str(exc), file=sys.stderr)
            return 2

    def _int_list(text, flag):
        try:
            vals = tuple(int(v) for v in text.split(",") if v.strip())
        except ValueError:
            raise ReproError(f"{flag} wants comma-separated ints, got {text!r}")
        if not vals:
            raise ReproError(f"{flag} must name at least one value")
        return vals

    try:
        horizons = (
            _int_list(args.horizons, "--horizons") if args.horizons else None
        )
        rungs = _int_list(args.rungs, "--rungs") if args.rungs else None
    except ReproError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    try:
        config = LoadConfig(
            sessions=args.sessions,
            ticks=args.ticks,
            robots=robots,
            horizon=args.horizon,
            horizons=horizons,
            deadline_s=args.deadline_ms / 1e3 if args.deadline_ms > 0 else None,
            degrade_after=args.degrade_after,
            seed=args.seed,
            arrival_jitter=args.arrival_jitter,
            robot_mix=args.robot_mix,
            shards=args.shards,
            shard_backend=args.shard_backend,
            rungs=rungs,
            max_batch=args.max_batch,
            max_queue=args.max_queue,
            array_backend=args.array_backend,
            qp_method=args.qp_method,
            trace_path=args.trace,
        )
        report = run_load(config)
    except ReproError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.summary())
        print(
            f"wall time:       {report.wall_time_s:.1f}s "
            f"({report.metrics.fleet.steps / max(report.wall_time_s, 1e-9):.1f} "
            "solves/s)"
        )
        if report.plant_resets:
            print(f"plant resets:    {report.plant_resets}")
        if report.trace_path:
            print(f"trace:           {report.trace_path}")
    if report.crashed:
        print(
            f"CRASHED sessions: {', '.join(report.crashed)}", file=sys.stderr
        )
        return 1
    return 0


def _cmd_backends() -> int:
    from repro.batch import available_backends, get_backend
    from repro.conform import PATHS

    names = available_backends()
    # The *_torch* batch paths belong to torch; every other batch path
    # (batch_qp_numpy_float32 included) runs on the numpy reference.
    batch_paths = sorted(p for p in PATHS if p.startswith("batch_"))
    owned = {
        "numpy": [p for p in batch_paths if "_torch" not in p],
        "torch": [p for p in batch_paths if "_torch" in p],
    }
    for name in names:
        xp = get_backend(name)
        kind = "device" if xp.is_device else "host"
        mark = " (default)" if name == "numpy" else ""
        print(f"{name:10s} {kind:6s} dtype={xp.dtype_name}{mark}")
        print(f"{'':10s} variants: {name}, {name}:float32, {name}:float64")
        print(f"{'':10s} conform paths: {', '.join(owned[name])}")
    if "torch" not in names:
        print(f"{'torch':10s} absent (not importable in this environment)")
    print(
        "\nselect with a backend= argument or "
        "`repro serve-sim --array-backend NAME[:float32]`"
    )
    return 0


def _cmd_chaos(args) -> int:
    from repro.errors import ReproError
    from repro.faults import BUILTIN_SCHEDULES, CampaignConfig, run_campaign
    from repro.robots import resolve

    try:
        robot = resolve(args.robot)
    except ReproError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.schedule not in BUILTIN_SCHEDULES:
        print(
            f"unknown schedule {args.schedule!r}; choose from "
            f"{', '.join(BUILTIN_SCHEDULES)}",
            file=sys.stderr,
        )
        return 2

    config = CampaignConfig(
        robot=robot,
        schedule=args.schedule,
        sessions=args.sessions,
        ticks=args.ticks,
        horizon=args.horizon,
        deadline_s=args.deadline_ms / 1e3 if args.deadline_ms > 0 else None,
        degrade_after=args.degrade_after,
        qp_method=args.qp_method,
        seed=args.seed,
        shards=args.shards,
        shard_backend=args.shard_backend,
        trace_path=args.trace,
    )
    try:
        report = run_campaign(config)
    except ReproError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.summary())
        print(f"wall time:       {report.wall_time_s:.1f}s")
        if report.trace_path:
            print(f"trace:           {report.trace_path}")
    if not report.ok:
        print(
            "FAILED invariants: "
            + ", ".join(k for k, v in report.invariants.items() if not v),
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_compile(args) -> int:
    from repro.compiler import MachineConfig, compile_problem
    from repro.robots import BENCHMARK_NAMES, build_benchmark

    if args.benchmark not in BENCHMARK_NAMES:
        print(
            f"unknown benchmark {args.benchmark!r}; choose from "
            f"{', '.join(BENCHMARK_NAMES)}",
            file=sys.stderr,
        )
        return 2

    machine = MachineConfig(
        n_cus=args.cus,
        cus_per_cc=min(args.cus_per_cc, args.cus),
        bandwidth_bytes_per_cycle=args.bandwidth,
        compute_enabled_interconnect=not args.no_interconnect,
    )
    bench = build_benchmark(args.benchmark)
    problem = bench.transcribe(horizon=args.horizon)
    graph, pm, sched = compile_problem(problem, machine)

    print(f"{bench.name} at N={args.horizon} on {machine.n_cus} CUs")
    print(f"  M-DFG nodes:            {len(graph)}")
    print(f"  aggregation plans:      {len(pm.aggregation)}")
    print(f"  communication volume:   {pm.communication_volume()}")
    print(f"  encoded instructions:   {sched.instruction_count}")
    print(f"  cycles / IPM iteration: {sched.cycles_per_iteration:,.0f}")
    print(
        f"  time / IPM iteration:   "
        f"{sched.seconds_per_iteration() * 1e6:.2f} us at "
        f"{machine.frequency_ghz:g} GHz"
    )
    return 0


def _cmd_table(args) -> int:
    from repro.experiments import render_table, table3, table4

    if args.number == 3:
        print(render_table(table3(), "Table III"))
    else:
        print(render_table(table4(), "Table IV"))
    return 0


def _cmd_figure(args) -> int:
    from repro.experiments import (
        figure5,
        figure6,
        figure7,
        figure8,
        figure9,
        figure10,
        figure11,
        figure12,
        render_figure,
    )

    figures = {
        5: figure5,
        6: figure6,
        7: figure7,
        8: figure8,
        9: figure9,
        10: figure10,
        11: figure11,
        12: figure12,
    }
    print(render_figure(figures[args.number]()))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "solve":
        return _cmd_solve(args)
    if args.command == "compile":
        return _cmd_compile(args)
    if args.command == "table":
        return _cmd_table(args)
    if args.command == "figure":
        return _cmd_figure(args)
    if args.command == "serve-sim":
        return _cmd_serve_sim(args)
    if args.command == "backends":
        return _cmd_backends()
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "conform":
        return _cmd_conform(args)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
