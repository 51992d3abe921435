"""Run the whole suite several times and hold the sets against each other.

``repeat.py --sets 2`` runs every workload of BENCHMARK.json untraced and
traced, twice, and prints per workload x end-to-end metric both values,
their relative difference (signed so that positive means the later set is
worse) and the metric's bound.  It exits non-zero when a pair disagrees by
more than its bound, when a † counter (``layer_metrics.EXACT``) differs at
all, or when any run fails its own checks.

With ``--seeds N`` each set runs N seeds per workload and a set's value is
the median over them; the spread (inter-quartile range over the median) is
printed too.  That is the acceptance test the driver applies to the
benchmark itself.  ``--out`` writes everything to a JSON file;
``baseline.json`` is ``repeat.py --sets 2 --out baseline.json`` at the commit
that introduced the benchmark.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from layer_metrics import EXACT  # noqa: E402


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]  # fmt: skip
    started = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{' '.join(command)} printed no result (exit {done.returncode})")
    result["exit"] = done.returncode
    result["wall_s"] = time.perf_counter() - started
    if not result["correct"] or done.returncode:
        sys.stderr.write("\n".join(l for l in lines if l.startswith("CHECK FAILED")) + "\n")
    return result


def spread(values: List[float]) -> float:
    """Inter-quartile range as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worsening(first: float, later: float, better: str) -> float:
    """Relative change from ``first`` to ``later``, positive = worse."""
    change = (later - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seeds", type=int, default=1, help="seeds per set and workload")
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument(
        "--workloads",
        default=",".join(w["name"] for w in spec["workloads"]),
        help="comma-separated subset",
    )
    parser.add_argument("--out", help="write every run and the verdicts to this JSON file")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))

    runs: Dict[str, List[dict]] = {w: [] for w in workloads}
    all_correct = True
    for number in range(args.sets):
        for workload in workloads:
            untraced = [one_run(workload, seed, args.seconds, 0) for seed in seeds]
            traced = one_run(workload, seeds[0], args.seconds, 1)
            all_correct &= all(r["correct"] and not r["exit"] for r in untraced + [traced])
            runs[workload].append({"untraced": untraced, "traced": traced})
            print(
                f"set {number + 1} {workload}: "
                f"{sum(r['wall_s'] for r in untraced + [traced]):.0f} s",
                file=sys.stderr,
                flush=True,
            )

    verdicts = []
    ok = all_correct
    print(f"{'workload':14s} {'metric':14s} " + " ".join(f"{'set ' + str(i + 1):>12s}" for i in range(args.sets)) + f" {'spread':>8s} {'worse by':>9s} {'bound':>6s}")
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            per_set = [
                [r["metrics"][name]["value"] for r in s["untraced"]]
                for s in runs[workload]
            ]
            medians = [statistics.median(v) for v in per_set]
            widest = max(spread(v) for v in per_set)
            worst = max(
                (worsening(medians[0], m, metric["better"]) for m in medians[1:]),
                default=0.0,
            )
            fine = worst <= metric["bound"] and (
                name == "setup_s" or widest <= metric["bound"]
            )
            ok &= fine
            verdicts.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": metric["unit"],
                    "set_medians": medians,
                    "spread": widest,
                    "worse_by": worst,
                    "bound": metric["bound"],
                    "ok": fine,
                }
            )
            print(
                f"{workload:14s} {name:14s} "
                + " ".join(f"{m:12.5g}" for m in medians)
                + f" {widest:8.3f} {worst:+9.3f} {metric['bound']:6.2f}"
                + ("" if fine else "  <-- OUT OF BOUND")
            )
        first = runs[workload][0]["traced"]["metrics"]
        for later in runs[workload][1:]:
            for name in EXACT:
                a, b = first[name]["value"], later["traced"]["metrics"][name]["value"]
                if a != b:
                    ok = False
                    print(f"{workload:14s} {name}: {a} != {b}  <-- COUNTER DOES NOT REPEAT")
    if not all_correct:
        print("at least one run failed its own checks")
    if args.out:
        Path(args.out).write_text(
            json.dumps(
                {"sets": args.sets, "seeds": seeds, "seconds": args.seconds,
                 "ok": ok, "verdicts": verdicts, "runs": runs},
                indent=1, sort_keys=True,
            )
            + "\n"
        )  # fmt: skip
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
