"""Controller Compiler, stage 2: static scheduling and cycle estimation.

Turns the :class:`ProgramMap` + M-DFG into the three static schedules the
architecture consumes (compute, interconnect, memory) and computes the cycle
cost of one solver iteration under an explicit machine model:

**Machine model** (matches §V and Table IV):

* ``n_cus`` CUs in clusters of ``cus_per_cc``; every CU issues one ALU
  operation per cycle through a 3-stage pipeline (dependent ops see the
  3-cycle latency, independent ops pipeline at II=1).
* One shared bus per CC (one transfer per cycle, multicast counts once) and
  compute-enabled single-hop links between neighboring CUs.
* A compute-enabled tree-bus across CCs: a cross-cluster aggregation of
  ``w`` partials costs ``ceil(log2)`` hop levels when the interconnect ALUs
  are enabled; without them the same reduction lowers to CU adds plus bus
  transfers (the Figure 10 ablation).
* A memory access engine streaming ``bandwidth_bytes_per_cycle`` from
  off-chip memory, overlapped with compute (per-phase cost is
  ``max(compute, memory)``); data resident in the 512 KB on-chip SRAM is
  free, larger working sets stream.

**Phase cost.** For an expression phase (template repeated ``repeat`` times
per iteration — instances are independent across horizon stages, so they
pipeline), the cycle cost is the classic list-scheduling bound

    max(work / CUs, comm / buses, critical_path x latency)

and the solver's macro kernels use per-kernel closed forms with their serial
bottlenecks (a Cholesky's column recurrence, a triangular solve's row
recurrence) modeled explicitly — these produce the CU-count plateau of
Figure 11.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.compiler.isa import (
    AggFunction,
    CommInstr,
    ComputeInstr,
    MemInstr,
    Namespace,
)
from repro.compiler.mapping import ProgramMap, map_mdfg
from repro.compiler.mdfg import MDFG, MDFGNode, NodeType, kernel_op_counts
from repro.errors import ScheduleError

__all__ = ["MachineConfig", "PhaseCost", "StaticSchedule", "Scheduler"]

#: pipeline depth of a CU (access / compute / write, §V)
_CU_LATENCY = 3
#: cycles for one hop of the shared bus
_BUS_HOP = 1
#: extra cycles per tree-bus level (hop + register)
_TREE_HOP = 1
#: bytes per data word (32-bit fixed point)
_WORD = 4


@dataclass(frozen=True)
class MachineConfig:
    """RoboX accelerator design point (defaults = Table IV)."""

    n_cus: int = 256
    cus_per_cc: int = 8
    frequency_ghz: float = 1.0
    #: peak off-chip bandwidth, bytes per cycle (128 Gb/s at 1 GHz = 16 B/c)
    bandwidth_bytes_per_cycle: float = 16.0
    onchip_sram_bytes: int = 512 * 1024
    compute_enabled_interconnect: bool = True
    total_power_watts: float = 3.4
    #: achieved fraction of peak MACs inside the solver kernels (load
    #: imbalance, bank conflicts, pipeline bubbles around the recurrences)
    kernel_efficiency: float = 0.6

    def __post_init__(self):
        if self.n_cus < 1:
            raise ScheduleError("n_cus must be >= 1")
        if self.cus_per_cc < 1:
            raise ScheduleError("cus_per_cc must be >= 1")

    @property
    def n_ccs(self) -> int:
        return max(1, math.ceil(self.n_cus / self.cus_per_cc))

    @property
    def tree_depth(self) -> int:
        return max(1, math.ceil(math.log2(max(self.n_ccs, 2))))


@dataclass
class PhaseCost:
    """Cycle breakdown of one phase of a solver iteration."""

    phase: str
    compute_cycles: float
    comm_cycles: float
    memory_cycles: float
    critical_path: float

    @property
    def cycles(self) -> float:
        # Compute and communication are overlapped by the static schedule up
        # to the resource bound; memory streaming overlaps both.
        return max(
            max(self.compute_cycles, self.comm_cycles, self.critical_path),
            self.memory_cycles,
        )


@dataclass
class StaticSchedule:
    """The compiled artifact: instruction streams + cycle model."""

    machine: MachineConfig
    phase_costs: List[PhaseCost] = field(default_factory=list)
    #: encoded 32-bit words per engine
    compute_stream: List[int] = field(default_factory=list)
    comm_stream: List[int] = field(default_factory=list)
    memory_stream: List[int] = field(default_factory=list)
    #: the operation/data/communication/aggregation maps this was built from
    program_map: Optional[ProgramMap] = None

    @property
    def cycles_per_iteration(self) -> float:
        return sum(pc.cycles for pc in self.phase_costs)

    def seconds_per_iteration(self) -> float:
        return self.cycles_per_iteration / (self.machine.frequency_ghz * 1e9)

    def phase(self, name: str) -> PhaseCost:
        for pc in self.phase_costs:
            if pc.phase == name:
                return pc
        raise ScheduleError(f"no phase {name!r} in schedule")

    @property
    def instruction_count(self) -> int:
        return (
            len(self.compute_stream)
            + len(self.comm_stream)
            + len(self.memory_stream)
        )


class Scheduler:
    """Builds the static schedule for one M-DFG on one machine config."""

    def __init__(self, machine: MachineConfig):
        self.machine = machine

    # ------------------------------------------------------------------------------
    def schedule(self, graph: MDFG, program_map: Optional[ProgramMap] = None) -> StaticSchedule:
        m = self.machine
        if program_map is None:
            program_map = map_mdfg(graph, m.n_cus, m.cus_per_cc)
        sched = StaticSchedule(machine=m, program_map=program_map)

        for phase in graph.phases():
            nodes = graph.by_phase(phase)
            expr_nodes = [
                n
                for n in nodes
                if n.type in (NodeType.SCALAR, NodeType.VECTOR, NodeType.GROUP)
            ]
            kernel_nodes = [n for n in nodes if n.type == NodeType.KERNEL]
            if expr_nodes:
                sched.phase_costs.append(
                    self._cost_expression_phase(graph, phase, expr_nodes)
                )
            for kn in kernel_nodes:
                sched.phase_costs.append(self._cost_kernel(kn))

        self._emit_streams(graph, program_map, sched)
        return sched

    # -- expression-phase cost ------------------------------------------------------
    def _cost_expression_phase(
        self, graph: MDFG, phase: str, nodes: List[MDFGNode]
    ) -> PhaseCost:
        m = self.machine
        repeat = max(n.repeat for n in nodes)

        # ALU work: one op per SCALAR, `width` per VECTOR; GROUP work runs in
        # the interconnect when enabled, on the CUs when not (Fig. 10).
        alu_ops = 0.0
        comm_ops = 0.0
        agg_cycles = 0.0
        for n in nodes:
            if n.type == NodeType.SCALAR:
                alu_ops += n.repeat
            elif n.type == NodeType.VECTOR:
                alu_ops += n.width * n.repeat
            elif n.type == NodeType.GROUP:
                w = n.width
                if m.compute_enabled_interconnect:
                    # Partials reduce in-flight: neighbor hops chain inside a
                    # CC, the tree-bus combines across CCs.  Each CC's hops
                    # form an independent reduction resource, so waves from
                    # different horizon stages proceed concurrently.
                    agg_cycles += (
                        math.ceil(math.log2(max(w, 2))) * _TREE_HOP * n.repeat
                    ) / m.n_ccs
                else:
                    # Lowered to CU adds + explicit gather/scatter transfers
                    # over the shared buses.
                    alu_ops += (w - 1) * n.repeat
                    comm_ops += 2 * (w - 1) * n.repeat

        # Cross-CU operand traffic recorded by the mapper applies per repeat.
        # (A phase's share is approximated by its fraction of the ops.)
        comm_ops += sum(1 for n in nodes if n.type == NodeType.SCALAR) * 0.3 * repeat

        # Dependence depth of one template instance (instances pipeline).
        depth = self._phase_depth(graph, nodes)

        compute = alu_ops / m.n_cus
        comm = comm_ops / m.n_ccs
        critical = depth * _CU_LATENCY + (
            agg_cycles / max(repeat, 1)
        )  # one instance's aggregation latency
        # Memory: stream per-stage operands (inputs) and results once per
        # repeat; small stage working sets stay on chip, so only a fraction
        # touches DRAM.  Counted precisely in the solver kernels where the
        # big matrices live; here the traffic is the stage I/O.
        n_io = sum(1 for n in nodes if n.type == NodeType.SCALAR) // 4 + 1
        memory = (n_io * repeat * _WORD) / m.bandwidth_bytes_per_cycle

        # Aggregation waves hold the (single) tree-bus resource serially.
        comm = max(comm, agg_cycles)
        return PhaseCost(
            phase=phase,
            compute_cycles=compute,
            comm_cycles=comm,
            memory_cycles=memory,
            critical_path=critical,
        )

    def _phase_depth(self, graph: MDFG, nodes: List[MDFGNode]) -> int:
        ids = {n.id for n in nodes}
        depth: Dict[int, int] = {}
        longest = 0
        for n in nodes:  # construction order is topological
            d = 1 + max(
                (depth.get(pid, 0) for pid in n.parents if pid in ids), default=0
            )
            depth[n.id] = d
            longest = max(longest, d)
        return longest

    # -- kernel cost ---------------------------------------------------------------------
    def _cost_kernel(self, node: MDFGNode) -> PhaseCost:
        m = self.machine
        counts = kernel_op_counts(node.op, node.params)
        macs = counts.get("mul", 0) + counts.get("add", 0)
        divs = counts.get("div", 0)
        sqrts = counts.get("sqrt", 0)
        p = node.params

        if node.op in ("cholesky", "cholesky_banded"):
            n = p["n"]
            band = min(p.get("band", n), n)
            # Column recurrence: each of the n columns has a serial
            # sqrt+divide step; the per-column update only exposes
            # ~band^2/2 parallel MACs, so wide machines hit the recurrence.
            per_column_par = max(1.0, min(m.n_cus, band * band / 2.0))
            critical = n * (_CU_LATENCY + 2)
            compute = macs / per_column_par + sqrts
            if not m.compute_enabled_interconnect:
                # Column dot-product reductions fall back onto the CUs and
                # pay gather/scatter round trips over the shared buses.
                compute *= 1.55
                critical *= 1.4
        elif node.op in ("trsolve", "trsolve_banded"):
            n, nrhs = p["n"], p.get("nrhs", 1)
            band = min(p.get("band", n), n)
            # Row recurrence serial in n; parallelism = band x nrhs per row.
            per_row_par = max(1.0, min(m.n_cus, band * nrhs))
            critical = n * _CU_LATENCY
            compute = macs / per_row_par
            if not m.compute_enabled_interconnect:
                compute *= 1.55
                critical *= 1.4
        elif node.op == "block_outer":
            compute = macs / m.n_cus
            dim = p["dim"]
            if m.compute_enabled_interconnect:
                critical = math.ceil(math.log2(max(dim, 2))) * _TREE_HOP + _CU_LATENCY
            else:
                compute *= 1.55
                critical = math.ceil(math.log2(max(dim, 2))) * 2 * _CU_LATENCY
        elif node.op == "matmul":
            kk = p["k"]
            compute = macs / m.n_cus
            if m.compute_enabled_interconnect:
                # Inner-product reductions ride the interconnect.
                critical = math.ceil(math.log2(max(kk, 2))) * _TREE_HOP + _CU_LATENCY
            else:
                compute *= 1.55  # reduction adds execute on the CUs
                critical = math.ceil(math.log2(max(kk, 2))) * 2 * _CU_LATENCY
        else:  # matvec / axpy / dot
            compute = macs / m.n_cus
            width = p.get("n", p.get("m", 1))
            if m.compute_enabled_interconnect:
                critical = math.ceil(math.log2(max(width, 2))) * _TREE_HOP + _CU_LATENCY
            else:
                compute *= 1.55
                critical = math.ceil(math.log2(max(width, 2))) * 2 * _CU_LATENCY

        # Memory streaming: operand matrices beyond the SRAM stream from
        # DRAM.  Bytes touched ~ one read of each operand + one write of the
        # result per kernel invocation.
        touched = self._kernel_bytes(node)
        resident = min(touched, m.onchip_sram_bytes)
        streamed = max(touched - resident, 0) + 0.1 * resident
        memory = streamed / m.bandwidth_bytes_per_cycle

        compute /= m.kernel_efficiency
        # Operand staging over the CC buses; banded/blocked kernels keep
        # operands CC-local, so only a fraction of MACs cause bus traffic.
        comm = macs / (m.n_ccs * 8.0)
        return PhaseCost(
            phase=f"solver:{node.op}",
            compute_cycles=compute * node.repeat,
            comm_cycles=comm * node.repeat,
            memory_cycles=memory * node.repeat,
            critical_path=critical * node.repeat,
        )

    def _kernel_bytes(self, node: MDFGNode) -> float:
        p = node.params
        if node.op == "cholesky":
            return p["n"] * p["n"] * _WORD
        if node.op == "cholesky_banded":
            return p["n"] * min(p["band"], p["n"]) * _WORD
        if node.op == "trsolve":
            return (p["n"] * p["n"] / 2 + p["n"] * p.get("nrhs", 1)) * _WORD
        if node.op == "trsolve_banded":
            return (
                p["n"] * min(p["band"], p["n"]) + p["n"] * p.get("nrhs", 1)
            ) * _WORD
        if node.op == "block_outer":
            return p["blocks"] * (p["rows"] * p["dim"] + p["dim"] * p["dim"]) * _WORD
        if node.op == "matmul":
            return (
                p["m"] * p["k"] + p["k"] * p["n"] + p["m"] * p["n"]
            ) * _WORD
        if node.op == "matvec":
            return (p["m"] * p["n"] + p["n"] + p["m"]) * _WORD
        return 2 * p.get("n", 1) * _WORD

    # -- instruction stream emission ----------------------------------------------------
    def _emit_streams(
        self, graph: MDFG, pm: ProgramMap, sched: StaticSchedule
    ) -> None:
        """Emit representative encoded streams for the three engines.

        One compute instruction per mapped op (queue form), one comm
        instruction per communication-map entry and per aggregation, and a
        load/store pair per INPUT/output region.  These streams are what the
        accelerator simulator executes.
        """
        ns_cycle = [Namespace.STATE, Namespace.INPUT, Namespace.GRADIENT, Namespace.INTERM]
        for cu, ops in enumerate(pm.operations):
            for i, node_id in enumerate(ops):
                node = graph.nodes[node_id]
                op = node.op if node.op in ("add", "sub", "mul", "div") else node.op
                instr = ComputeInstr(
                    function=op,
                    dest_ns=Namespace.INTERM,
                    src1_ns=ns_cycle[i % len(ns_cycle)],
                    src1_index=i % 8,
                    src2_ns=Namespace.INTERM,
                    src2_index=(i + 1) % 8,
                    vector=(node.type == NodeType.VECTOR),
                    repeat=min(node.width, 63) if node.type == NodeType.VECTOR else 0,
                )
                sched.compute_stream.append(instr.encode())

        for (src, _dst), dests in pm.communication.items():
            src_cu = pm.placement[src]
            for dest in dests:
                instr = CommInstr(
                    kind="unicast",
                    src_cu=src_cu % pm.cus_per_cc,
                    src_cc=min(pm.cc_of(src_cu), 31),
                    dest_cu=dest % pm.cus_per_cc,
                    dest_cc=min(pm.cc_of(dest), 31),
                )
                sched.comm_stream.append(instr.encode())

        for plan in pm.aggregation.values():
            kind = "cu_agg" if plan.level == "intra_cc" else "cc_agg"
            first = plan.cus[0]
            sched.comm_stream.append(
                CommInstr(
                    kind=kind,
                    src_cu=first % pm.cus_per_cc,
                    src_cc=min(pm.cc_of(first), 31),
                    mask=min((1 << min(plan.width, 8)) - 1, 0xFF),
                    agg=plan.func,
                ).encode()
            )

        # Memory schedule: one burst load per 16 inputs, final store, EOC.
        n_inputs = sum(1 for n in graph.nodes if n.type == NodeType.INPUT)
        offset = 0
        for _ in range(max(1, n_inputs // 16)):
            sched.memory_stream.append(
                MemInstr(
                    kind="load",
                    namespace=Namespace.STATE,
                    offset=offset % (1 << 16),
                    burst=16,
                ).encode()
            )
            offset += 16
        sched.memory_stream.append(
            MemInstr(kind="store", namespace=Namespace.GRADIENT, burst=16).encode()
        )
        sched.memory_stream.append(MemInstr(kind="end").encode())
