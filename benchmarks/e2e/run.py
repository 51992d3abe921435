"""One seeded run of one workload: ``run.py --workload W --seed N --seconds S --trace 0|1``.

``--trace 0`` measures the end-to-end metrics with no tracing installed;
``--trace 1`` wraps the layer boundaries (see ``spans.py``) and reports the
per-layer metrics.  Either way the run checks its outputs, prints every
metric by name with its unit, and ends with one JSON object on the last
line of stdout.  Exit status is non-zero when a check fails.

Timing on a shared machine: the same deterministic ticks are replayed for
``--seconds`` seconds and each tick keeps its quietest reading (interference
only ever adds time), then percentiles are taken over the ticks.  See
README.md for the definitions and the reasons.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse
import functools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SCRATCH = ROOT / ".bench_tmp"

#: cold set-ups per run (median reported).  ``loop-scalar`` pays ~9 s of C
#: compilation per set-up, so it can afford only one inside the time cap.
SETUP_REPS = {"loop-scalar": 1, "fleet-ragged": 3, "fleet-admm": 3, "fleet-sharded": 3}
#: reference-kernel samples (~0.5 ms each) at every set-up pause point
SETUP_KERNEL_SAMPLES = 20


def pin_environment() -> Path:
    """Pin threads, clear the program's env knobs, and keep every temp file
    inside the checkout.  Must run before numpy is imported."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    for var in ("REPRO_CODEGEN", "REPRO_ARRAY_BACKEND", "REPRO_BENCH_SEED"):
        os.environ.pop(var, None)
    SCRATCH.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run.", dir=SCRATCH))
    os.environ["TMPDIR"] = str(run_dir)
    tempfile.tempdir = str(run_dir)
    return run_dir


def fresh_codegen_cache(run_dir: Path) -> None:
    """Point the artifact store at an empty directory, so emit + compile
    are paid (and counted) by the set-up that follows."""
    os.environ["REPRO_CODEGEN_CACHE"] = tempfile.mkdtemp(prefix="codegen.", dir=run_dir)


def fingerprint() -> Dict[str, object]:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    compiler = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
    try:
        import cffi  # noqa: F401

        have_cffi = True
    except ImportError:
        have_cffi = False
    return {
        "commit": commit or "unknown (not a git checkout)",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor() or "unknown",
        "c_compiler": compiler or "MISSING",
        "cffi": have_cffi,
    }


def peak_rss_mb() -> List[float]:
    """Peak resident set, in MiB, of this process and of the largest child
    it waited for (a shard worker, or the forked compiler driver during
    set-up).  Linux reports ``ru_maxrss`` in KiB."""
    return [
        resource.getrusage(who).ru_maxrss / 1024.0
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ]


def end_to_end(passes, setup_times, setup_speed, import_s) -> Dict[str, dict]:
    import numpy
    from measure import quietest

    best = quietest(passes)
    answered = passes[0].attempted - passes[0].failed
    # like the tick times, seconds at the nominal reference-kernel speed
    setup_s = setup_speed * (import_s + statistics.median(setup_times))
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "solves_per_s": {"value": answered / sum(best), "unit": "1/s"},
        "tick_p50_ms": {"value": 1e3 * float(numpy.percentile(best, 50)), "unit": "ms"},
        "peak_rss_mb": {"value": sum(peak_rss_mb()), "unit": "MiB"},
    }


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    sizes: Optional[dict] = None,
    layers: Optional[dict] = None,
    setup_reps: Optional[int] = None,
) -> Dict[str, object]:
    """Set up, measure and check one workload; returns the result object."""
    run_dir = pin_environment()
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    try:
        import checks
        import layer_metrics
        from measure import machine_speed, run_pass, sample_kernel
        from spans import Tracer
        from workloads import WORKLOADS

        import_s = time.perf_counter() - _PROCESS_START
        say = functools.partial(print, flush=True)
        fp = fingerprint()
        say(f"workload {name} seed {seed} seconds {seconds} trace {int(trace)}")
        say("fingerprint " + json.dumps(fp, sort_keys=True))
        if fp["c_compiler"] == "MISSING" or not fp["cffi"]:
            say(
                "WARNING: NO C COMPILER OR NO CFFI - the fused-c tier cannot build; "
                "setup_s and loop-scalar are a different experiment on this machine"
            )

        workload = WORKLOADS[name](seed, **(sizes or {}))
        probes = (
            {layer_metrics.PAYLOAD_LAYER: layer_metrics.payload_probe}
            if workload.process_shards
            else {}
        )
        tracer = Tracer(layers, probes) if trace else None
        reps = 1 if trace else (setup_reps or SETUP_REPS[name])
        setup_times: List[float] = []
        setup_window = (0.0, 0.0)
        # the machine's speed while setting up: the reference kernel is
        # sampled at the workload's pause points, off the set-up clock
        setup_kernel: List[float] = []
        paused = 0.0

        def pause() -> None:
            nonlocal paused
            t0 = time.perf_counter()
            sample_kernel(setup_kernel, SETUP_KERNEL_SAMPLES)
            paused += time.perf_counter() - t0

        try:
            for rep in range(reps):
                fresh_codegen_cache(run_dir)
                if tracer is not None:
                    tracer.install()
                paused = 0.0
                start = time.perf_counter()
                try:
                    workload.setup(pause)
                finally:
                    setup_window = (start, time.perf_counter())
                    if tracer is not None:
                        tracer.uninstall()
                setup_times.append(setup_window[1] - start - paused)
                if rep < reps - 1:
                    workload.teardown()
            pause()
            setup_speed = machine_speed(setup_kernel)
            tiers = {
                key: problem.codegen_stats().kernel
                for key, problem in sorted(workload.problems().items())
            }
            say("codegen tiers " + json.dumps(tiers, sort_keys=True))

            # Replay the identical ticks; the count is fixed by --seconds and
            # the workload's nominal pass time, not by this machine's clock,
            # so every run of a workload takes its best of the same number
            # of readings - except on a machine so slowed (1.6x and more)
            # that --seconds are used up early: the driver's time cap for
            # all runs is sized for --seconds.  Traced runs alternate
            # untraced/traced passes so both see the same machine.
            stride = 2 if trace else 1
            replays = stride * max(
                1, round(seconds / (stride * workload.nominal_pass_s))
            )
            passes = []
            plans: dict = {}
            measuring = time.perf_counter()
            for number in range(replays):
                used = time.perf_counter() - measuring
                if number >= 2 and number % stride == 0 and used >= seconds:
                    break
                traced = trace and number % 2 == 1
                passes.append(
                    run_pass(
                        workload,
                        tracer if traced else None,
                        plans if not passes else None,
                    )
                )

            problems = checks.replay(passes)
            problems += checks.tallies(workload, passes)
            problems += checks.plans_agree(workload, plans)
            codegen = layer_metrics.codegen_counters(workload) if trace else None
        finally:
            workload.teardown()

        attempted = sum(p.attempted for p in passes)
        failed = sum(p.failed for p in passes)
        if trace:
            metrics = layer_metrics.per_layer(
                workload, passes, tracer, setup_window, codegen
            )
        else:
            metrics = end_to_end(passes, setup_times, setup_speed, import_s)
        say(
            f"passes {len(passes)} ticks/pass {workload.n_ticks} "
            f"steps/tick {workload.steps_per_tick} "
            f"timed ticks n={sum(len(p.raw) for p in passes)} "
            f"attempted {attempted} failed {failed}"
        )
        say(
            f"set-ups {len(setup_times)}: import {import_s:.3f} s + raw s "
            + " ".join(f"{t:.3f}" for t in setup_times)
            + f"; machine speed {setup_speed:.3f}"
        )
        say(
            "machine speed per pass (nominal/measured reference kernel) "
            + " ".join(f"{p.speed:.3f}" for p in passes)
            + "; raw pass wall s "
            + " ".join(f"{sum(p.raw):.3f}" for p in passes)
        )
        own, child = peak_rss_mb()
        say(f"peak rss: self {own:.1f} MiB, largest waited child {child:.1f} MiB")
        for key, metric in metrics.items():
            value = metric["value"]
            shown = "null" if value is None else f"{value:.6g}"
            say(f"  {key:44s} {shown:>14s} {metric['unit']}")
        for problem in problems:
            say(f"CHECK FAILED: {problem}")
        return {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        tempfile.tempdir = None  # the directory it named is gone
        os.environ.pop("TMPDIR", None)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run is using it


def main(argv: Optional[List[str]] = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"run.py: no program to measure: {ROOT / 'src' / 'repro'} is missing",
            file=sys.stderr,
        )
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
