"""Shared exception hierarchy for the repro package.

Every subsystem raises exceptions derived from :class:`ReproError` so callers
can catch toolchain failures with a single ``except`` clause while still being
able to distinguish DSL errors from solver or accelerator errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro toolchain."""


class SymbolicError(ReproError):
    """Malformed symbolic expression or unsupported operation."""


class DifferentiationError(SymbolicError):
    """An expression could not be differentiated."""


class ModelError(ReproError):
    """Inconsistent robot model definition (states, inputs, dynamics)."""


class TaskError(ReproError):
    """Inconsistent task definition (penalties, constraints)."""


class TranscriptionError(ReproError):
    """The MPC problem could not be transcribed over the horizon."""


class VectorizationError(TranscriptionError):
    """A compiled stage function could not be re-bound to an array backend
    (missing ufunc twin, malformed generated source, backend rejection).

    The batch linearizer catches exactly this to bind the interpreted group
    provider instead; any other exception from vectorization is a genuine
    bug and propagates."""


class CodegenError(ReproError):
    """Fused-kernel emission or build failure (codegen subsystem).

    Raised when a DAG contains an op with no emitted spelling, a constant
    that cannot cross into C, or the C compiler exits non-zero (the message
    carries its stderr tail) — callers drop to the interpreted provider
    instead of crashing."""


class SolverError(ReproError):
    """The interior-point solver failed (singular KKT, divergence, ...)."""


class StateValidationError(SolverError):
    """A solve was rejected before it started: the measured state (or other
    caller-supplied data) contained non-finite entries.

    Carries the structured :class:`~repro.batch.contract.SolverHealth`
    report on ``health`` so callers (the serving session, telemetry) can
    distinguish numerical poison at the *input* from a failure inside the
    solver.
    """

    def __init__(self, message: str, health=None):
        super().__init__(message)
        self.health = health


class DSLError(ReproError):
    """Base class for DSL frontend failures."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"line {line}, col {column}: {message}"
        super().__init__(message)


class LexerError(DSLError):
    """Invalid character or malformed token in a RoboX program."""


class ParseError(DSLError):
    """Syntactically invalid RoboX program."""


class SemanticError(DSLError):
    """Well-formed program with inconsistent meaning (undefined names, ...)."""


class CompilerError(ReproError):
    """Program Translator / Controller Compiler failure."""


class MappingError(CompilerError):
    """Algorithm-1 mapping could not place an operation."""


class ScheduleError(CompilerError):
    """Static schedule construction failed."""


class ISAError(CompilerError):
    """Instruction encode/decode failure."""


class AcceleratorError(ReproError):
    """Simulator configuration or execution failure."""


class FixedPointError(AcceleratorError):
    """Fixed-point overflow or invalid format."""


class BaselineError(ReproError):
    """Baseline platform model failure."""


class ConformanceError(ReproError):
    """Differential conformance harness failure (bad case, unknown path,
    malformed tolerance ledger)."""


class ServeError(ReproError):
    """Serving-runtime failure (session lifecycle, engine configuration)."""


class AdmissionError(ServeError):
    """The serving engine rejected a new session (capacity exhausted)."""


class SessionStateError(ServeError):
    """Operation invalid for the session's current lifecycle state."""
