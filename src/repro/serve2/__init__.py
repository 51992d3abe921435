"""repro.serve2: the async continuous-batching serve engine.

``serve2`` is the engine behind :func:`repro.serve.run_load`, the chaos
campaign and ``repro serve-sim``; it borrows the structure of modern LLM
serving stacks:

* sessions submit :class:`~repro.serve2.scheduler.SolveRequest`\\ s to a
  central queue on an asyncio event loop (:mod:`repro.serve2.engine`);
* a batch former buckets compatible sessions per robot and *pads*
  shorter horizons up to configured rungs so near-miss horizons co-batch
  (:mod:`repro.serve2.bucketing`, :mod:`repro.serve2.padding`) — padded
  lanes are cropped back and proven equivalent to the unpadded scalar
  solve by the ``padded`` conformance family;
* dispatch is earliest-deadline-first within the slack implied by each
  session's ``SolveBudget``, with admission control and load shedding
  driven by live deadline-headroom telemetry
  (:mod:`repro.serve2.scheduler`);
* solves run on sharded arenas with session→shard affinity and shard
  handoff on worker death (:mod:`repro.serve2.shard`).
"""

from repro.serve2.bucketing import DEFAULT_RUNGS, HorizonBuckets
from repro.serve2.engine import AsyncServeEngine, Serve2Config, TickReport
from repro.serve2.padding import (
    PAD_RUN,
    PAD_TERM,
    PaddedBinding,
    crop_result,
    gate_columns,
    pad_reference,
    pad_warm_start,
    padded_task,
)
from repro.serve2.scheduler import EDFScheduler, SolveRequest
from repro.serve2.shard import Shard

__all__ = [
    "DEFAULT_RUNGS",
    "HorizonBuckets",
    "AsyncServeEngine",
    "Serve2Config",
    "TickReport",
    "PAD_RUN",
    "PAD_TERM",
    "PaddedBinding",
    "padded_task",
    "gate_columns",
    "pad_reference",
    "pad_warm_start",
    "crop_result",
    "EDFScheduler",
    "SolveRequest",
    "Shard",
]
