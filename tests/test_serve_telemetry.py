"""Tests for serving telemetry: histograms, fleet metrics, JSONL traces."""

import io
import json

import numpy as np
import pytest

from repro.serve import (
    FleetMetrics,
    Histogram,
    SessionMetrics,
    StepOutcome,
    TraceWriter,
    render_summary,
)


def outcome(**kwargs):
    kwargs.setdefault("session_id", "s0")
    kwargs.setdefault("u", np.zeros(1))
    kwargs.setdefault("status", "ok")
    kwargs.setdefault("solve_time", 0.01)
    kwargs.setdefault("sqp_iterations", 2)
    kwargs.setdefault("qp_iterations", 6)
    return StepOutcome(**kwargs)


class TestHistogram:
    def test_empty(self):
        h = Histogram()
        assert h.count == 0
        assert h.mean == 0.0
        assert h.percentile(50) == 0.0

    def test_basic_stats(self):
        h = Histogram()
        for v in (0.001, 0.01, 0.1):
            h.record(v)
        assert h.count == 3
        assert h.sum == pytest.approx(0.111)
        assert h.max == pytest.approx(0.1)
        assert h.mean == pytest.approx(0.037)

    def test_percentile_ordering_and_bounds(self):
        h = Histogram()
        for v in np.linspace(1e-4, 1e-1, 200):
            h.record(float(v))
        p50, p90, p99 = h.percentile(50), h.percentile(90), h.percentile(99)
        assert p50 <= p90 <= p99 <= h.max

    def test_percentile_never_exceeds_max(self):
        h = Histogram()
        h.record(0.043)  # lands mid-bin; the upper edge is above the max
        assert h.percentile(99) == pytest.approx(0.043)

    def test_out_of_range_values_survive(self):
        h = Histogram(lo=1e-3, hi=1.0)
        h.record(1e-9)  # below the first edge
        h.record(50.0)  # above the last edge
        assert h.count == 2
        assert h.percentile(99) == pytest.approx(50.0)

    def test_merge(self):
        a, b = Histogram(), Histogram()
        a.record(0.01)
        b.record(0.1)
        b.record(0.2)
        a.merge(b)
        assert a.count == 3
        assert a.max == pytest.approx(0.2)
        assert a.sum == pytest.approx(0.31)

    def test_merge_rejects_different_binning(self):
        with pytest.raises(ValueError):
            Histogram().merge(Histogram(bins_per_decade=3))

    def test_to_dict_keys(self):
        d = Histogram().to_dict()
        assert set(d) == {"count", "mean", "p50", "p90", "p99", "max"}


class TestSessionMetrics:
    def test_merge_adds_counters(self):
        a, b = SessionMetrics(), SessionMetrics()
        a.steps, a.ok = 3, 2
        a.fallbacks_shifted = 1
        b.steps, b.ok = 2, 1
        b.fallbacks_hold = 1
        a.merge(b)
        assert a.steps == 5
        assert a.ok == 3
        assert a.fallbacks == 2


class TestFleetMetrics:
    def test_ok_step(self):
        m = FleetMetrics()
        m.observe_step("s0", outcome())
        assert m.fleet.ok == 1
        assert m.session("s0").ok == 1
        assert m.fleet.solve_latency.count == 1
        assert m.fleet.sqp_iterations == 2
        assert m.fleet.qp_iterations == 6

    def test_partial_accept_counted(self):
        m = FleetMetrics()
        m.observe_step("s0", outcome(partial=True, reason="deadline"))
        assert m.fleet.ok == 1
        assert m.fleet.partial_accepts == 1
        assert m.fleet.deadline_misses == 1

    def test_fallback_rungs_split(self):
        m = FleetMetrics()
        m.observe_step(
            "s0",
            outcome(status="fallback_shifted", fallback=True, reason="deadline"),
        )
        m.observe_step(
            "s0",
            outcome(
                status="fallback_hold", fallback=True, reason="solver_error"
            ),
        )
        assert m.fleet.fallbacks_shifted == 1
        assert m.fleet.fallbacks_hold == 1
        assert m.fleet.deadline_misses == 1
        assert m.fleet.solver_errors == 1
        assert m.fleet.ok == 0

    def test_crash_and_degraded_transition(self):
        m = FleetMetrics()
        m.observe_step("s0", outcome(status="crashed", reason="crashed"))
        m.observe_step(
            "s1",
            outcome(
                status="fallback_hold",
                fallback=True,
                reason="diverged",
                degraded_transition=True,
            ),
        )
        assert m.fleet.crashes == 1
        assert m.fleet.divergences == 1
        assert m.fleet.degraded_transitions == 1

    def test_per_session_isolation(self):
        m = FleetMetrics()
        m.observe_step("a", outcome(session_id="a"))
        m.observe_step(
            "b",
            outcome(session_id="b", status="fallback_hold", fallback=True),
        )
        assert m.session("a").ok == 1 and m.session("a").fallbacks == 0
        assert m.session("b").ok == 0 and m.session("b").fallbacks == 1
        assert m.fleet.steps == 2

    def test_solver_phase_absorption(self):
        m = FleetMetrics()
        m.absorb_solver_stats({"factorize_time": 1.5, "factorizations": 7})
        m.absorb_solver_stats({"factorize_time": 0.5, "unrelated_key": 99})
        assert m.phase_totals["factorize_time"] == pytest.approx(2.0)
        assert m.phase_totals["factorizations"] == 7
        assert "unrelated_key" not in m.phase_totals

    def test_to_dict_round_trips_through_json(self):
        m = FleetMetrics()
        m.observe_step("s0", outcome())
        m.observe_tick()
        doc = json.loads(json.dumps(m.to_dict()))
        assert doc["fleet"]["steps"] == 1
        assert doc["ticks"] == 1
        assert "s0" in doc["sessions"]


class TestTraceWriter:
    def test_writes_parseable_jsonl(self):
        buf = io.StringIO()
        with TraceWriter(buf) as trace:
            trace.emit("session", session="s0", robot="Cart")
            trace.emit("step", tick=1, solve_time=np.float64(0.01), ok=np.bool_(True))
            trace.emit("summary", u=np.arange(3))
        lines = [json.loads(l) for l in buf.getvalue().splitlines()]
        assert [l["type"] for l in lines] == ["session", "step", "summary"]
        assert lines[1]["solve_time"] == pytest.approx(0.01)
        assert lines[1]["ok"] is True
        assert lines[2]["u"] == [0, 1, 2]
        assert trace.records == 3

    def test_file_sink(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with TraceWriter(path) as trace:
            trace.emit("tick", tick=1)
        with open(path) as fh:
            assert json.loads(fh.readline())["tick"] == 1

    def test_unserializable_value_raises(self):
        with pytest.raises(TypeError):
            TraceWriter(io.StringIO()).emit("x", bad=object())


class TestRenderSummary:
    def test_contains_the_load_bearing_lines(self):
        m = FleetMetrics()
        m.observe_step("s0", outcome())
        m.observe_step(
            "s1",
            outcome(
                session_id="s1",
                status="fallback_shifted",
                fallback=True,
                reason="deadline",
            ),
        )
        m.observe_tick()
        text = render_summary(m, {"s0": "active", "s1": "degraded"})
        assert "serve summary" in text
        assert "1 active, 1 degraded" in text
        assert "fallbacks=1" in text
        assert "deadline_misses=1" in text
        assert "p50=" in text and "p99=" in text
        assert "banded_factorizations" in text
        assert "input_stops=0" in text
        assert "qp_warm_starts=0" in text
