"""Macro dataflow graph (M-DFG) of the MPC control algorithm (paper §VII).

Node vocabulary follows the paper: elementary / nonlinear operations are
``SCALAR`` nodes; operations defined over a range interval are ``VECTOR``
nodes; group aggregations are ``GROUP`` nodes (internally an array node plus
the aggregation to perform).  On top of these expression-level nodes, the
Program Translator emits *macro kernel* nodes for the structured linear
algebra of the interior-point solver (Cholesky factorizations, triangular
substitutions, matrix products): representing an ``n^3`` factorization op by
op would defeat the purpose of a *macro* DFG, so kernels carry their
parameterized operation mix instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.batch.host import flop_counts_cholesky, flop_counts_substitution
from repro.errors import CompilerError

__all__ = ["NodeType", "MDFGNode", "MDFG", "KERNELS", "kernel_op_counts"]


class NodeType:
    INPUT = "INPUT"  # data source (state/input/reference/solver memory)
    CONST = "CONST"
    SCALAR = "SCALAR"  # one elementary/nonlinear operation
    VECTOR = "VECTOR"  # the same operation over `width` independent lanes
    GROUP = "GROUP"  # aggregation (ADD/MUL/MIN/MAX) over `width` operands
    KERNEL = "KERNEL"  # macro linear-algebra kernel


#: supported macro kernels and their parameter names
KERNELS = {
    "cholesky": ("n",),
    "cholesky_banded": ("n", "band"),
    "trsolve": ("n", "nrhs"),
    "trsolve_banded": ("n", "band", "nrhs"),
    "block_outer": ("blocks", "rows", "dim"),
    "matmul": ("m", "n", "k"),
    "matvec": ("m", "n"),
    "axpy": ("n",),
    "dot": ("n",),
}


def kernel_op_counts(kind: str, params: Dict[str, int]) -> Dict[str, int]:
    """Exact primitive-op mix of one macro kernel invocation.

    The banded variants model the sparsity-exploiting structure of stagewise
    MPC solvers (the paper's HPMPC baseline): the KKT matrix of a horizon-N
    problem is block-banded with half-bandwidth ``band ~ 2 nx + nu``, so a
    factorization costs ``~ n band^2 / 2`` multiply-adds instead of ``n^3/3``.
    """
    if kind == "cholesky":
        return flop_counts_cholesky(params["n"])
    if kind == "cholesky_banded":
        n, b = params["n"], params["band"]
        b = min(b, n)
        mac = n * b * (b + 1) // 2
        return {"mul": mac, "add": mac, "div": n * b, "sqrt": n}
    if kind == "trsolve":
        return flop_counts_substitution(params["n"], params.get("nrhs", 1))
    if kind == "trsolve_banded":
        n, b, nrhs = params["n"], params["band"], params.get("nrhs", 1)
        b = min(b, n)
        mac = n * b * nrhs
        return {"mul": mac, "add": mac, "div": n * nrhs}
    if kind == "block_outer":
        # blocks x (rows x dim)^T W (rows x dim) accumulations.
        blocks, rows, dim = params["blocks"], params["rows"], params["dim"]
        mac = blocks * rows * dim * dim
        return {"mul": mac, "add": mac}
    if kind == "matmul":
        m, n, k = params["m"], params["n"], params["k"]
        return {"mul": m * n * k, "add": m * n * (k - 1) if k > 1 else 0}
    if kind == "matvec":
        m, n = params["m"], params["n"]
        return {"mul": m * n, "add": m * (n - 1) if n > 1 else 0}
    if kind == "axpy":
        return {"mul": params["n"], "add": params["n"]}
    if kind == "dot":
        n = params["n"]
        return {"mul": n, "add": n - 1 if n > 1 else 0}
    raise CompilerError(f"unknown kernel {kind!r}")


@dataclass
class MDFGNode:
    """One M-DFG vertex."""

    id: int
    type: str
    #: operation name for SCALAR/VECTOR (add, mul, sin, ...), aggregation
    #: function for GROUP (add, mul, min, max), kernel kind for KERNEL
    op: str = ""
    #: lane count for VECTOR, reduced-operand count for GROUP
    width: int = 1
    #: ids of predecessor nodes
    parents: Tuple[int, ...] = ()
    #: which phase of the control algorithm this node belongs to
    phase: str = ""
    #: kernel parameters (KERNEL nodes only)
    params: Dict[str, int] = field(default_factory=dict)
    #: source variable name (INPUT nodes) or constant value (CONST nodes)
    label: str = ""
    #: how many times this node executes per solver iteration (stage
    #: templates repeat across the horizon)
    repeat: int = 1

    def op_counts(self) -> Dict[str, int]:
        """Primitive-op histogram of ONE execution of this node."""
        if self.type == NodeType.SCALAR:
            return {self.op: 1}
        if self.type == NodeType.VECTOR:
            return {self.op: self.width}
        if self.type == NodeType.GROUP:
            # A width-w aggregation performs w-1 pairwise combines.
            return {self.op: max(self.width - 1, 0)}
        if self.type == NodeType.KERNEL:
            return kernel_op_counts(self.op, self.params)
        return {}


class MDFG:
    """A macro dataflow graph with phase bookkeeping."""

    def __init__(self, name: str = "mdfg"):
        self.name = name
        self.nodes: List[MDFGNode] = []
        self._input_index: Dict[str, int] = {}

    # -- construction -------------------------------------------------------------
    def _add(self, node: MDFGNode) -> int:
        self.nodes.append(node)
        return node.id

    def add_input(self, label: str, phase: str = "") -> int:
        """Add (or reuse) a named data-source node."""
        if label in self._input_index:
            return self._input_index[label]
        node = MDFGNode(
            id=len(self.nodes), type=NodeType.INPUT, label=label, phase=phase
        )
        self._input_index[label] = node.id
        return self._add(node)

    def add_const(self, value: float, phase: str = "") -> int:
        node = MDFGNode(
            id=len(self.nodes), type=NodeType.CONST, label=repr(value), phase=phase
        )
        return self._add(node)

    def add_scalar(self, op: str, parents: Sequence[int], phase: str = "", repeat: int = 1) -> int:
        self._check_parents(parents)
        node = MDFGNode(
            id=len(self.nodes),
            type=NodeType.SCALAR,
            op=op,
            parents=tuple(parents),
            phase=phase,
            repeat=repeat,
        )
        return self._add(node)

    def add_vector(
        self, op: str, width: int, parents: Sequence[int], phase: str = "", repeat: int = 1
    ) -> int:
        if width < 1:
            raise CompilerError(f"vector width must be >= 1, got {width}")
        self._check_parents(parents)
        node = MDFGNode(
            id=len(self.nodes),
            type=NodeType.VECTOR,
            op=op,
            width=width,
            parents=tuple(parents),
            phase=phase,
            repeat=repeat,
        )
        return self._add(node)

    def add_group(
        self, op: str, parents: Sequence[int], phase: str = "", repeat: int = 1
    ) -> int:
        if op not in ("add", "mul", "min", "max"):
            raise CompilerError(
                f"group aggregation must be one of add/mul/min/max, got {op!r}"
            )
        if not parents:
            raise CompilerError("group node needs at least one operand")
        self._check_parents(parents)
        node = MDFGNode(
            id=len(self.nodes),
            type=NodeType.GROUP,
            op=op,
            width=len(parents),
            parents=tuple(parents),
            phase=phase,
            repeat=repeat,
        )
        return self._add(node)

    def add_kernel(
        self,
        kind: str,
        params: Dict[str, int],
        parents: Sequence[int] = (),
        phase: str = "",
        repeat: int = 1,
    ) -> int:
        if kind not in KERNELS:
            raise CompilerError(f"unknown kernel {kind!r}; known: {sorted(KERNELS)}")
        missing = [p for p in KERNELS[kind] if p not in params]
        if missing:
            raise CompilerError(f"kernel {kind!r} missing parameters {missing}")
        self._check_parents(parents)
        node = MDFGNode(
            id=len(self.nodes),
            type=NodeType.KERNEL,
            op=kind,
            parents=tuple(parents),
            phase=phase,
            params=dict(params),
            repeat=repeat,
        )
        return self._add(node)

    def _check_parents(self, parents: Sequence[int]) -> None:
        for pid in parents:
            if not 0 <= pid < len(self.nodes):
                raise CompilerError(f"parent id {pid} does not exist")

    # -- queries ---------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.nodes)

    def by_phase(self, phase: str) -> List[MDFGNode]:
        return [n for n in self.nodes if n.phase == phase]

    def phases(self) -> Tuple[str, ...]:
        seen: List[str] = []
        for n in self.nodes:
            if n.phase and n.phase not in seen:
                seen.append(n.phase)
        return tuple(seen)

    def total_op_counts(self, phase: Optional[str] = None) -> Dict[str, int]:
        """Primitive-op histogram per solver iteration (repeats included)."""
        total: Dict[str, int] = {}
        for n in self.nodes:
            if phase is not None and n.phase != phase:
                continue
            for op, count in n.op_counts().items():
                total[op] = total.get(op, 0) + count * n.repeat
        return total

    def topological_order(self) -> List[MDFGNode]:
        """Nodes in dependency order (construction order is already topo
        because parents must exist when a node is added)."""
        return list(self.nodes)

    def validate(self) -> None:
        """Check structural invariants (parent ordering, ids contiguous)."""
        for i, n in enumerate(self.nodes):
            if n.id != i:
                raise CompilerError(f"node id mismatch at position {i}")
            for pid in n.parents:
                if pid >= i:
                    raise CompilerError(
                        f"node {i} depends on later node {pid} (not a DAG)"
                    )

    def __repr__(self) -> str:
        return f"MDFG({self.name!r}, nodes={len(self.nodes)}, phases={self.phases()})"
