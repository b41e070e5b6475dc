"""Tests for the markdown report generator."""

import pytest

from repro.experiments import ExperimentResult, Series
from repro.experiments.report import render_markdown, render_summary_table


def _result(exp_id="fig9", all_pass=True):
    res = ExperimentResult(exp_id=exp_id, title="Demo experiment",
                           paper_reference="Figure 9 [made up]")
    s = Series("curveA")
    s.add(1, 100.0)
    s.add(2, 50.0)
    res.series.append(s)
    res.rows.append({"P": 4, "time": 12.5})
    res.notes.append("a caveat")
    res.add_check("first claim", True)
    res.add_check("second claim", all_pass)
    return res


class TestSummaryTable:
    def test_pass_and_fail_rows(self):
        table = render_summary_table({
            "a": _result("a", all_pass=True),
            "b": _result("b", all_pass=False),
        })
        assert "| a | Demo experiment | 2/2 | PASS |" in table
        assert "| b | Demo experiment | 1/2 | **FAIL** |" in table


class TestRenderMarkdown:
    def test_contains_all_sections(self):
        text = render_markdown({"fig9": _result()}, quick=True,
                               timestamp="2026-07-05T00:00:00")
        assert "# Reproduction report" in text
        assert "quick (scaled-down)" in text
        assert "## fig9: Demo experiment" in text
        assert "curveA" in text
        assert "(1, 100.0); (2, 50.0)" in text
        assert "- [x] first claim" in text
        assert "> a caveat" in text
        assert "2026-07-05" in text

    def test_check_counts_in_header(self):
        text = render_markdown({"a": _result(all_pass=False)}, quick=False)
        assert "**1/2**" in text
        assert "full (paper-scale)" in text

    def test_failed_check_unchecked_box(self):
        text = render_markdown({"a": _result(all_pass=False)}, quick=True)
        assert "- [ ] second claim" in text


def _patch_registry(monkeypatch, fakes):
    """Swap the experiment registry for the whole-experiment ``fakes``."""
    import repro.experiments.registry as registry

    monkeypatch.setattr(registry, "EXPERIMENTS", {
        exp_id: registry.one_point(exp_id, fn)
        for exp_id, fn in fakes.items()})


class TestCLIReport:
    def test_report_command_writes_file(self, tmp_path, capsys, monkeypatch):
        from repro import cli

        _patch_registry(monkeypatch,
                        {"table1": lambda quick=False: _result("table1")})
        out = tmp_path / "r.md"
        assert cli.main(["report", "-o", str(out), "--quick",
                         "--no-cache"]) == 0
        assert out.exists()
        assert "# Reproduction report" in out.read_text()

    def test_report_command_signals_failures(self, tmp_path, monkeypatch):
        from repro import cli

        _patch_registry(monkeypatch,
                        {"x": lambda quick=False: _result(
                            "x", all_pass=False)})
        out = tmp_path / "r.md"
        assert cli.main(["report", "-o", str(out), "--no-cache"]) == 1
