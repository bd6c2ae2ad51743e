"""Tests for analysis metrics/tables and the runtime substrate."""

import pytest

from repro.analysis import (Series, crossover_x, format_cell, geometric_mean,
                            parallel_efficiency, render_table, speedup)
from repro.runtime.clock import SimClock
from repro.runtime.instrument import WorkCounters
from repro.runtime.trace import Trace


class TestMetrics:
    def test_speedup(self):
        assert speedup(10.0, 2.0) == pytest.approx(5.0)
        with pytest.raises(ValueError):
            speedup(1.0, 0.0)

    def test_parallel_efficiency(self):
        assert parallel_efficiency(12.0, 1.0, 12) == pytest.approx(1.0)

    def test_series_validation(self):
        with pytest.raises(ValueError):
            Series("x", (1.0, 2.0), (1.0,))

    def test_crossover(self):
        # a dips to b at x=2 and stays at-or-below from there on.
        a = Series.build("a", [1, 2, 3, 4], [5, 4, 2, 1])
        b = Series.build("b", [1, 2, 3, 4], [4, 4, 3, 2])
        assert crossover_x(a, b) == 2
        # strict win only from x=3.
        c = Series.build("c", [1, 2, 3, 4], [5, 4.5, 2, 1])
        assert crossover_x(c, b) == 3

    def test_crossover_never(self):
        a = Series.build("a", [1, 2], [5, 5])
        b = Series.build("b", [1, 2], [1, 1])
        assert crossover_x(a, b) is None

    def test_crossover_requires_shared_grid(self):
        a = Series.build("a", [1, 2], [1, 1])
        b = Series.build("b", [1, 3], [1, 1])
        with pytest.raises(ValueError):
            crossover_x(a, b)

    def test_geometric_mean(self):
        assert geometric_mean([1, 100]) == pytest.approx(10.0)
        with pytest.raises(ValueError):
            geometric_mean([0.0, 1.0])


class TestTables:
    def test_render_alignment(self):
        out = render_table(["name", "value"], [["a", 1.5], ["bb", 20.25]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert len(set(len(l) for l in lines)) == 1  # aligned widths

    def test_special_values(self):
        assert format_cell(float("inf")) == "OOM"
        assert format_cell(float("nan")) == "--"
        assert format_cell(0.5) == "0.5"

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            render_table(["a"], [[1, 2]])

    def test_title(self):
        out = render_table(["h"], [[1]], title="T")
        assert out.splitlines()[0] == "T"


class TestClock:
    def test_advance(self):
        clock = SimClock()
        assert clock.advance(1.5) == 1.5
        assert clock.advance(0.5) == 2.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1.0)

    def test_advance_to_never_backwards(self):
        clock = SimClock(now=5.0)
        clock.advance_to(3.0)
        assert clock.now == 5.0
        clock.advance_to(7.0)
        assert clock.now == 7.0


class TestCounters:
    def test_add_and_copy(self):
        a = WorkCounters(exact_pairs=5, far_evals=1)
        b = WorkCounters(exact_pairs=3, nodes_visited=2)
        c = a.copy()
        a.add(b)
        assert a.exact_pairs == 8 and a.nodes_visited == 2
        assert c.exact_pairs == 5  # copy untouched

    def test_iadd(self):
        a = WorkCounters(hist_pairs=1)
        a += WorkCounters(hist_pairs=2)
        assert a.hist_pairs == 3

    def test_merged(self):
        parts = [WorkCounters(exact_pairs=i) for i in range(5)]
        assert WorkCounters.merged(parts).exact_pairs == 10

    def test_total_ops(self):
        c = WorkCounters(exact_pairs=1, far_evals=2, hist_pairs=3,
                         nodes_visited=4)
        assert c.total_ops() == 10


class TestTrace:
    def test_record_and_query(self):
        t = Trace()
        t.record(0.0, "steal", 1, {"victim": 2})
        t.record(1.0, "task_start", 0)
        assert t.count("steal") == 1
        assert len(t.by_kind("task_start")) == 1
        assert len(t) == 2

    def test_disabled(self):
        t = Trace(enabled=False)
        t.record(0.0, "steal", 1)
        assert len(t) == 0

    def test_iteration(self):
        t = Trace()
        t.record(0.0, "a", 0)
        assert [e.kind for e in t] == ["a"]
