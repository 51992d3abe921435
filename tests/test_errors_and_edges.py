"""Tests for the exception hierarchy and cross-module edge cases."""

import numpy as np
import pytest

from repro.errors import (
    AcceleratorError,
    CompilerError,
    DSLError,
    LexerError,
    ModelError,
    ParseError,
    ReproError,
    SemanticError,
    SolverError,
    SymbolicError,
    TaskError,
    TranscriptionError,
)


class TestHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            SymbolicError,
            ModelError,
            TaskError,
            TranscriptionError,
            SolverError,
            DSLError,
            CompilerError,
            AcceleratorError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)
        with pytest.raises(ReproError):
            raise exc("boom")

    def test_dsl_errors_derive_from_dsl_error(self):
        assert issubclass(LexerError, DSLError)
        assert issubclass(ParseError, DSLError)
        assert issubclass(SemanticError, DSLError)

    def test_dsl_error_position_formatting(self):
        err = ParseError("bad token", line=7, column=3)
        assert "line 7" in str(err)
        assert err.line == 7
        assert err.column == 3

    def test_dsl_error_without_position(self):
        err = SemanticError("just a message")
        assert str(err) == "just a message"


class TestAssemblerEdgeCases:
    def test_unknown_phase_rejected(self):
        from repro.accelerator import assemble
        from repro.compiler import map_mdfg, translate
        from repro.robots import build_benchmark

        p = build_benchmark("MobileRobot").transcribe(horizon=2)
        g = translate(p)
        pm = map_mdfg(g, 4, 2)
        with pytest.raises(AcceleratorError, match="no nodes in phase"):
            assemble(g, pm, "imaginary_phase")

    def test_cost_phase_assembles_and_runs(self):
        from repro.accelerator import AcceleratorSimulator, assemble
        from repro.compiler import map_mdfg, translate
        from repro.robots import build_benchmark

        p = build_benchmark("MobileRobot").transcribe(horizon=2)
        g = translate(p)
        pm = map_mdfg(g, 4, 2)
        program = assemble(g, pm, "cost")
        inputs = {name: 0.25 for name in program.input_slots}
        res = AcceleratorSimulator().run(program, inputs)
        assert res.cycles > 0
        assert all(np.isfinite(v) for v in res.outputs.values())


class TestSolverEdgeCases:
    def test_equality_only_problem(self):
        """A model with no bounds and no task constraints: n_ineq = 0."""
        from repro.mpc import (
            InteriorPointSolver,
            Penalty,
            RobotModel,
            Task,
            TranscribedProblem,
            VarSpec,
        )
        from repro.symbolic import Var

        model = RobotModel(
            "Free",
            states=[VarSpec("x")],
            inputs=[VarSpec("u")],
            dynamics={"x": Var("u")},
        )
        task = Task(
            "go",
            model,
            penalties=[
                Penalty("p", Var("x") - 1.0, 5.0),
                Penalty("e", Var("u"), 0.1),
            ],
        )
        p = TranscribedProblem(model, task, horizon=6, dt=0.2)
        assert p.n_ineq == 0
        res = InteriorPointSolver(p).solve(np.zeros(1))
        assert res.converged
        assert res.lam is None

    def test_horizon_one(self):
        from repro.mpc import (
            InteriorPointSolver,
            Penalty,
            RobotModel,
            Task,
            TranscribedProblem,
            VarSpec,
        )
        from repro.symbolic import Var

        model = RobotModel(
            "Tiny",
            states=[VarSpec("x")],
            inputs=[VarSpec("u", -1.0, 1.0)],
            dynamics={"x": Var("u")},
        )
        task = Task("hold", model, penalties=[Penalty("p", Var("x"))])
        p = TranscribedProblem(model, task, horizon=1, dt=0.1)
        res = InteriorPointSolver(p).solve(np.array([0.5]))
        assert res.z.shape == (p.nz,)

    def test_solver_reports_unconverged_honestly(self):
        from repro.batch.contract import IPMOptions
        from repro.mpc import InteriorPointSolver
        from repro.robots import build_benchmark

        b = build_benchmark("Quadrotor")
        p = b.transcribe(horizon=6)
        res = InteriorPointSolver(p, IPMOptions(max_iterations=1)).solve(
            b.x0, ref=b.ref
        )
        assert not res.converged
        assert res.iterations == 1
