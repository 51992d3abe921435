"""Per-layer metrics of a traced run: span self times, call counts, and the
program's own public counters (marked † in README.md; they repeat exactly).

Every metric is emitted on every workload.  ``0`` means the layer did no
work on this workload; ``None`` means a span target no longer resolves.
"""

from __future__ import annotations

import pickle
import statistics
from typing import Dict, Optional

import numpy as np

from measure import quietest
from workloads import SCALAR_ROBOTS

#: metric -> layers whose self time (``_s``) or call count (``_n``) it sums,
#: over the measured ticks of the quietest traced pass
TICK_SPANS = {
    "mpc.controller.step_s": ("mpc.controller.step",),
    "mpc.ipm.solve_s": ("mpc.ipm.solve",),
    "mpc.transcription.linearize_s": ("mpc.transcription.linearize",),
    "mpc.transcription.linearize_n": ("mpc.transcription.linearize",),
    "mpc.qp.solve_s": ("mpc.qp.solve",),
    "mpc.banded.factor_s": ("mpc.banded.factor",),
    "mpc.banded.factor_n": ("mpc.banded.factor",),
    "mpc.banded.substitute_s": ("mpc.banded.substitute",),
    "mpc.banded.substitute_n": ("mpc.banded.substitute",),
    "mpc.linalg.factor_s": ("mpc.linalg.factor",),
    "serve2.engine.tick_s": ("serve2.engine.tick",),
    "serve2.scheduler.s": ("serve2.scheduler.push", "serve2.scheduler.pop_group"),
    "serve2.scheduler.groups_n": ("serve2.scheduler.pop_group",),
    "serve.session.payload_s": ("serve.session.payload",),
    "serve.session.absorb_s": ("serve.session.absorb",),
    "serve2.padding.pad_s": ("serve2.padding.pad",),
    "serve2.padding.crop_s": ("serve2.padding.crop",),
    "batch.ipm.solve_s": ("batch.ipm.solve",),
    "batch.transcription.linearize_s": ("batch.transcription.linearize",),
    "batch.qp.solve_s": ("batch.qp.solve",),
    "batch.linalg.factor_s": ("batch.linalg.factor",),
    "batch.linalg.substitute_s": ("batch.linalg.substitute",),
    "firstorder.batch.solve_s": ("firstorder.batch.solve",),
    "firstorder.precond.s": ("firstorder.precond",),
}
#: the same, over the (single, cold) set-up of the traced run
SETUP_SPANS = {
    "mpc.transcription.build_s": ("mpc.transcription.build",),
    "symbolic.compile_s": ("symbolic.compile",),
    "codegen.warm_s": ("codegen.warm",),
}
PAYLOAD_LAYER = "serve2.padding.pad"
#: † metrics: read from the program's public stats (or tallied from its
#: outputs), a pure function of the seed — two runs must agree exactly
EXACT = (
    "mpc.ipm.sqp_iters",
    "mpc.qp.qp_iters",
    "mpc.qp.factorizations",
    "mpc.qp.factor_flops",
    "codegen.store_hits",
    "serve2.padding.waste_share",
    "serve2.padding.padded_lanes",
    "batch.ipm.sqp_lane_iters",
    "batch.qp.qp_lane_iters",
    "batch.mean_lanes",
    "batch.sqp_lane_eff",
    "batch.qp_lane_eff",
    "batch.linalg.factorizations",
    "firstorder.method_fallbacks",
    "serve.group_fallback_lanes",
    "steps.fail_rate",
    "steps.grade_share",
)


def payload_probe(payload) -> float:
    """What a process shard would put on the pipe for this lane."""
    return float(len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)))


def codegen_counters(workload) -> Dict[str, float]:
    """† ``CodegenStats`` of every native problem (read before teardown)."""
    stats = [p.codegen_stats() for p in workload.problems().values()]
    return {
        "codegen.emit_s": sum(s.emit_time for s in stats),
        "codegen.compile_s": sum(s.compile_time for s in stats),
        "codegen.store_hits": sum(bool(s.store_hit) for s in stats),
    }


def _unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_ms") or "_ms." in name:
        return "ms"
    if name.endswith(("_share", "_eff", "_rate", ".coverage")):
        return "share"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_flops"):
        return "flop"
    if name.endswith("mean_lanes"):
        return "lanes"
    return "count"


def _ratio(num: float, den: float, empty: float = 0.0) -> float:
    return num / den if den else empty


def per_layer(workload, passes, tracer, setup_window, codegen) -> Dict[str, dict]:
    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    quiet = min(traced, key=lambda p: p.wall)
    # tick spans are normalised like the tick times they add up to
    ticks = {
        layer: (seconds * quiet.speed, calls)
        for layer, (seconds, calls) in tracer.self_times(*quiet.window).items()
    }
    setup = tracer.self_times(*setup_window)
    values: Dict[str, Optional[float]] = {}

    def from_spans(table, selfs):
        for metric, layers in table.items():
            if any(layer in tracer.unresolved for layer in layers):
                values[metric] = None
                continue
            column = 1 if metric.endswith("_n") else 0
            values[metric] = float(sum(selfs.get(l, (0.0, 0))[column] for l in layers))

    from_spans(TICK_SPANS, ticks)
    from_spans(SETUP_SPANS, setup)

    # † counters: a layer that did not run on this workload counted nothing
    c = quiet.counters
    counted = dict.fromkeys(EXACT, 0.0)
    if workload.layout == "scalar":
        counted.update(
            {
                "mpc.ipm.sqp_iters": c["sqp_iters"],
                "mpc.qp.qp_iters": c["qp_iters"],
                "mpc.qp.factorizations": c["factorizations"],
                "mpc.qp.factor_flops": c["factor_flops"],
            }
        )
    else:
        counted.update(
            {
                "batch.ipm.sqp_lane_iters": c["sqp_lane_iterations"],
                "batch.qp.qp_lane_iters": c["qp_lane_iterations"],
                "batch.mean_lanes": _ratio(c["batched_lanes"], c["batch_solves"]),
                "batch.sqp_lane_eff": _ratio(
                    c["sqp_lane_iterations"], c["sqp_lane_slots"], 1.0
                ),
                "batch.qp_lane_eff": _ratio(
                    c["qp_lane_iterations"], c["qp_lane_slots"], 1.0
                ),
                "batch.linalg.factorizations": c["factorizations"],
                "serve2.padding.waste_share": _ratio(c["padding_waste_sum"], c["steps"]),
                "serve2.padding.padded_lanes": c["padded_lanes"],
                "firstorder.method_fallbacks": c["method_fallbacks"],
                "serve.group_fallback_lanes": c["group_fallback_lanes"],
            }
        )
    values.update({name: float(value) for name, value in counted.items()})
    values.update(codegen)
    values["steps.fail_rate"] = quiet.failed / quiet.attempted
    values["steps.grade_share"] = quiet.graded / quiet.attempted

    # time the parent spent outside every span below the tick call: on
    # process shards that is blocking on the workers (pickle + pipe +
    # remote solve); in-process there is nobody to wait for
    below_root = sum(
        seconds
        for layer, (seconds, _) in ticks.items()
        if layer not in ("serve2.engine.tick", "mpc.controller.step")
    )
    values["serve2.shard.wait_s"] = (
        quiet.wall - below_root if workload.process_shards else 0.0
    )
    values["serve2.shard.payload_bytes"] = float(
        sum(
            value
            for layer, at, value in tracer.probed
            if layer == PAYLOAD_LAYER and quiet.window[0] <= at < quiet.window[1]
        )
    )

    best_untraced = quietest(untraced)
    scalar = workload.layout == "scalar"  # a fleet tick belongs to no one robot
    for robot in SCALAR_ROBOTS:
        mine = [t for t, r in zip(best_untraced, untraced[0].robots) if r == robot]
        values[f"mpc.controller.tick_p50_ms.{robot}"] = (
            1e3 * statistics.median(mine) if scalar and mine else 0.0
        )

    # a tail over 20 ticks has 2 samples beyond it and moves 12-20 % with
    # the seed alone: reported, but not a bounded end-to-end metric
    values["tick.p90_ms"] = 1e3 * float(np.percentile(best_untraced, 90))
    values["trace.coverage"] = sum(s for s, _ in ticks.values()) / quiet.wall
    base = statistics.median(best_untraced)
    values["trace.overhead_share"] = (
        statistics.median(quietest(traced)) - base
    ) / base
    return {
        name: {"value": value, "unit": _unit(name)}
        for name, value in sorted(values.items())
    }
