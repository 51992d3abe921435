"""Slow-lane serve2 soak: fleet-scale session churn and sharded chaos.

The fast serve2 suites prove the mechanisms (padding equivalence, EDF
order, shard handoff) on small fleets; this lane proves they *survive
scale*: ten thousand sessions churned through one engine in admission
waves must leave the fleet healthy — the p99 consecutive-deadline-miss
streak stays below the degrade threshold, no session crashes, and no
state leaks between waves — and the batch-efficiency edge of bucketing
over exact-key grouping must hold on a mixed seeded load.  Session count
scales with ``REPRO_SOAK_SESSIONS`` (default 10000).

Run with ``PYTHONPATH=src python -m pytest tests/test_serve2_soak.py -m slow``.
"""

import os

import numpy as np
import pytest

from repro.faults import CampaignConfig, FaultSchedule, FaultSpec, run_campaign
from repro.mpc import MPCController
from repro.serve import (
    ACTIVE,
    DEGRADED,
    ControlSession,
    LoadConfig,
    SessionConfig,
    run_load,
)
from repro.serve2 import AsyncServeEngine, Serve2Config
from tests.test_serve_session import ScriptedSolver, cart  # noqa: F401

pytestmark = pytest.mark.slow

#: total sessions churned through the soak engine (env-overridable so the
#: full 10k run stays a CI/slow-lane decision, not a local-dev tax)
SOAK_SESSIONS = int(os.environ.get("REPRO_SOAK_SESSIONS", "10000"))
WAVE = 500
TICKS_PER_WAVE = 4
DEGRADE_AFTER = 3
#: per-step deadline-miss probability fed to the scripted fleet; at 8% the
#: expected p99 max-streak over 4 steps is 2, comfortably under the ladder
MISS_P = 0.08

X = np.zeros(2)


def _script(rng) -> list:
    return [
        "deadline" if rng.random() < MISS_P else "ok"
        for _ in range(TICKS_PER_WAVE)
    ]


def test_soak_churn_p99_miss_streak_below_degrade(cart):
    """10k sessions in admission waves: p99 miss streak < degrade_after."""
    rng = np.random.default_rng([int(os.environ.get("REPRO_BENCH_SEED", "0")), 0x50A1])
    engine = AsyncServeEngine(
        Serve2Config(max_sessions=WAVE, shards=4, rungs=(8,))
    )
    waves = max(1, SOAK_SESSIONS // WAVE)
    streaks: list = []
    served = 0
    try:
        for wave in range(waves):
            sids = []
            for i in range(WAVE):
                session = ControlSession(
                    f"w{wave}-s{i}",
                    SessionConfig(
                        robot="Cart",
                        deadline_s=0.05,
                        degrade_after=DEGRADE_AFTER,
                    ),
                    MPCController(ScriptedSolver(cart, _script(rng))),
                )
                sids.append(engine.add_session(session))
            # Admission lazily evicts the previous wave's closed sessions,
            # so the table (and shard-affinity map) stays wave-sized
            # forever instead of accreting all 10k.
            assert len(engine.sessions) == WAVE
            assert len(engine._affinity) == WAVE
            streak = {sid: 0 for sid in sids}
            peak = {sid: 0 for sid in sids}
            for _ in range(TICKS_PER_WAVE):
                report = engine.tick({sid: (X, None) for sid in sids})
                assert report.stepped == len(sids)
                for sid, out in report.outcomes.items():
                    if out.reason == "deadline":
                        streak[sid] += 1
                        peak[sid] = max(peak[sid], streak[sid])
                    else:
                        streak[sid] = 0
            assert not engine.crashed_sessions()
            # A tail session that strings degrade_after misses together is
            # *supposed* to degrade — the fleet-health gate is the p99
            # streak below, not zero degradations.  Crashes are never ok.
            assert all(
                state in (ACTIVE, DEGRADED)
                for state in engine.session_states().values()
            )
            streaks.extend(peak.values())
            served += len(sids)
            for sid in sids:
                engine.close_session(sid)
    finally:
        engine.shutdown()

    assert served == waves * WAVE
    p99 = float(np.percentile(streaks, 99))
    assert p99 < DEGRADE_AFTER, (
        f"p99 deadline-miss streak {p99} breached degrade_after="
        f"{DEGRADE_AFTER} over {served} sessions"
    )
    # the engine actually saw the whole churn
    assert engine.metrics.fleet.steps == served * TICKS_PER_WAVE


def test_soak_batch_efficiency_v2_strictly_above_v1():
    """Mixed-robot ragged loadgen soak, identical seeded load twice
    through v2: bucketing onto one rung must batch strictly wider than
    rungs equal to the native horizons (the retired v1 backend's exact-key
    grouping), and the fleet must stay un-degraded (every miss streak
    below the ladder)."""
    seed = int(os.environ.get("REPRO_BENCH_SEED", "0"))
    common = dict(
        sessions=16,
        ticks=10,
        robots=("CartPole", "MobileRobot"),
        horizons=(5, 6, 7, 8),
        deadline_s=1.0,
        seed=seed,
        arrival_jitter=0.1,
    )
    common.update(engine="v2", max_batch=16)
    v1 = run_load(LoadConfig(rungs=(5, 6, 7, 8), **common))
    v2 = run_load(LoadConfig(rungs=(8,), **common))
    assert not v1.crashed and not v2.crashed
    # jitter is drawn from the same seeded stream: identical arrivals
    assert v1.metrics.fleet.steps == v2.metrics.fleet.steps
    assert v2.metrics.mean_batch > v1.metrics.mean_batch
    assert v1.metrics.padded_lanes == 0 < v2.metrics.padded_lanes
    # no session strung degrade_after misses together under the deadline
    assert v2.metrics.fleet.degraded_transitions == 0


def test_soak_sharded_chaos_process_backend():
    """Shard chaos with *real* worker processes: a shard is shot twice
    mid-campaign and every session must ride the handoff to a survivor,
    with the fleet fully active once the schedule clears."""
    schedule = FaultSchedule(
        specs=(
            FaultSpec("shard_crash", start=6, stop=8, sessions=(0,)),
            FaultSpec("slow_worker", start=3, stop=7, magnitude=0.001),
            FaultSpec("worker_crash", start=10, stop=12, sessions=(1,)),
        ),
        seed=0,
        name="shard-soak",
    )
    rep = run_campaign(
        CampaignConfig(
            robot="CartPole",
            schedule=schedule,
            sessions=6,
            ticks=30,
            deadline_s=1.0,
            engine="v2",
            shards=2,
            shard_backend="process",
            seed=0,
        )
    )
    assert rep.uncaught is None
    assert rep.ok, rep.violations
    assert rep.fired["shard_crash"] > 0
    assert rep.invariants["shard_handoff"]
    assert rep.metrics.shard_handoffs > 0
    assert rep.metrics.shard_respawns >= 1
    assert all(state == ACTIVE for state in rep.session_states.values())
