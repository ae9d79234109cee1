"""Unit tests for the statistics helpers and the table renderer."""

from __future__ import annotations

import pytest

from repro.analysis import percentile, ratio, render_table, summarize
from repro.core import AnalysisError


class TestPercentile:
    def test_basic(self):
        values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        assert percentile(values, 0.0) == 1
        assert percentile(values, 1.0) == 10
        assert percentile(values, 0.5) == pytest.approx(5.5)

    def test_interpolation(self):
        assert percentile([1, 2], 0.25) == pytest.approx(1.25)

    def test_single_value(self):
        assert percentile([42], 0.9) == 42

    def test_errors(self):
        with pytest.raises(AnalysisError):
            percentile([], 0.5)
        with pytest.raises(AnalysisError):
            percentile([1], 1.5)


class TestSummarize:
    def test_summary_fields(self):
        summary = summarize([1, 2, 3, 4, 100])
        assert summary.count == 5
        assert summary.minimum == 1
        assert summary.maximum == 100
        assert summary.total == 110
        assert summary.mean == pytest.approx(22.0)
        assert summary.median == 3
        assert summary.p99 >= summary.p95 >= summary.median

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            summarize([])


class TestRatios:
    def test_ratio(self):
        assert ratio(10, 4) == 2.5
        assert ratio(10, 0) == 0.0


class TestRenderTable:
    def test_alignment_and_title(self):
        output = render_table(
            ["mechanism", "bytes"],
            [["dvv", 336], ["client_vv", 2535]],
            title="metadata",
        )
        lines = output.splitlines()
        assert lines[0] == "metadata"
        assert "mechanism" in lines[2]
        assert any("dvv" in line and "336" in line for line in lines)
        # numeric column is right aligned: both value columns end aligned
        dvv_line = next(line for line in lines if line.startswith("dvv"))
        client_line = next(line for line in lines if line.startswith("client_vv"))
        assert len(dvv_line) == len(client_line)

    def test_float_formatting_and_bools(self):
        output = render_table(["m", "v", "ok"], [["x", 1.23456, True]], float_digits=3)
        assert "1.235" in output
        assert "yes" in output
