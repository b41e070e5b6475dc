"""Tests for the experiment result containers and rendering."""

import pytest

from repro.experiments import ExperimentResult, Series, ascii_chart
from repro.experiments.results import crossover


class TestSeries:
    def test_add_and_accessors(self):
        s = Series("s")
        s.add(1, 10)
        s.add(2, 20)
        assert s.xs == [1, 2]
        assert s.ys == [10, 20]
        assert s.y_at(2) == 20

    def test_y_at_missing_raises(self):
        s = Series("s")
        s.add(1, 10)
        with pytest.raises(KeyError):
            s.y_at(99)

    def test_is_increasing_after(self):
        s = Series("s")
        for x, y in [(1, 5), (2, 3), (4, 4), (8, 6)]:
            s.add(x, y)
        assert s.is_increasing_after(2)
        assert not s.is_increasing_after(1)
        # A single tail point can't establish a trend.
        assert not s.is_increasing_after(8)


class TestCrossover:
    def test_finds_first_win(self):
        a = [(4, 10), (16, 8), (64, 7), (256, 7)]
        b = [(4, 20), (16, 10), (64, 6), (256, 3)]
        assert crossover(a, b) == 64

    def test_none_when_never_wins(self):
        a = [(1, 1), (2, 1)]
        b = [(1, 2), (2, 2)]
        assert crossover(a, b) is None

    def test_disjoint_grids_rejected(self):
        with pytest.raises(ValueError):
            crossover([(1, 1)], [(2, 2)])


class TestExperimentResult:
    def _exp(self):
        return ExperimentResult(exp_id="x", title="T", paper_reference="ref")

    def test_checks_accumulate(self):
        exp = self._exp()
        exp.add_check("a", True)
        exp.add_check("b", False)
        assert exp.checks == {"a": True, "b": False}
        assert not exp.all_checks_pass

    def test_all_checks_pass_when_empty(self):
        assert self._exp().all_checks_pass

    def test_series_lookup(self):
        exp = self._exp()
        s = Series("curve")
        exp.series.append(s)
        assert exp.series_by_label("curve") is s
        with pytest.raises(KeyError):
            exp.series_by_label("ghost")

    def test_to_text_includes_everything(self):
        exp = self._exp()
        s = Series("curve")
        s.add(1, 100)
        s.add(2, 50)
        exp.series.append(s)
        exp.rows.append({"k": "v"})
        exp.notes.append("a note")
        exp.add_check("shape holds", True)
        exp.add_check("other", False)
        text = exp.to_text()
        for fragment in ("== x: T ==", "ref", "curve", "k=v", "a note",
                         "[PASS] shape holds", "[FAIL] other"):
            assert fragment in text


class TestAsciiChart:
    def test_empty_series_gives_empty_chart(self):
        assert ascii_chart([]) == ""
        assert ascii_chart([Series("s")]) == ""

    def test_degenerate_ranges_give_empty_chart(self):
        s = Series("s")
        s.add(1, 5)
        s.add(1, 5)
        assert ascii_chart([s]) == ""

    def test_chart_contains_marks_and_legend(self):
        a, b = Series("alpha"), Series("beta")
        for x in range(5):
            a.add(x, x * 10)
            b.add(x, 50 - x * 10)
        chart = ascii_chart([a, b])
        assert "o=alpha" in chart
        assert "x=beta" in chart
        grid_lines = chart.splitlines()[1:-1]
        assert any("o" in line for line in grid_lines)
        assert any("x" in line for line in grid_lines)

    def test_too_many_series_skipped(self):
        many = []
        for i in range(11):
            s = Series(f"s{i}")
            s.add(0, 0)
            s.add(1, i + 1)
            many.append(s)
        assert ascii_chart(many) == ""
