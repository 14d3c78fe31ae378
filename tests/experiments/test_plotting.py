"""Tests for the ASCII chart renderer."""

import math

from repro.experiments.plotting import GAP_MARKER, ascii_chart


class TestAsciiChart:
    def test_single_series_renders_markers(self):
        chart = ascii_chart({"a": [(1, 1.0), (2, 2.0), (3, 3.0)]})
        assert chart.count("o") >= 3
        assert "legend: o a" in chart

    def test_multiple_series_distinct_markers(self):
        chart = ascii_chart({"a": [(1, 1.0)], "b": [(2, 2.0)]})
        assert "o a" in chart and "x b" in chart

    def test_axis_labels(self):
        chart = ascii_chart(
            {"a": [(1, 0.0), (10, 5.0)]}, x_label="MTBE", y_label="dB"
        )
        assert chart.startswith("dB")
        assert "MTBE" in chart

    def test_log_x_axis(self):
        chart = ascii_chart(
            {"a": [(100, 1.0), (100_000, 2.0)]}, log_x=True
        )
        assert "100" in chart and "100,000" in chart

    def test_nonfinite_values_skipped(self):
        chart = ascii_chart({"a": [(1, math.inf), (2, 1.0)]})
        assert "legend" in chart

    def test_all_nonfinite_handled(self):
        assert "no finite data" in ascii_chart({"a": [(1, math.nan)]})

    def test_constant_series_handled(self):
        chart = ascii_chart({"a": [(1, 5.0), (2, 5.0)]})
        assert "legend" in chart

    def test_bounds_printed(self):
        chart = ascii_chart({"a": [(0, -3.5), (1, 7.5)]})
        assert "7.5" in chart and "-3.5" in chart

    def test_nan_cell_renders_gap_marker(self):
        chart = ascii_chart({"a": [(1, 1.0), (2, math.nan), (3, 3.0)]})
        assert GAP_MARKER in chart
        assert f"{GAP_MARKER} missing" in chart

    def test_gap_extends_x_range(self):
        # The missing point sits beyond every finite x: the axis must
        # stretch to show the gap instead of clipping it away.
        chart = ascii_chart({"a": [(1, 1.0), (2, 2.0), (10, math.inf)]})
        assert GAP_MARKER in chart
        assert "10" in chart.splitlines()[-2]  # x-bounds line

    def test_no_gap_marker_without_missing_cells(self):
        chart = ascii_chart({"a": [(1, 1.0), (2, 2.0)]})
        assert GAP_MARKER not in chart

    def test_gap_marker_under_log_x(self):
        chart = ascii_chart(
            {"a": [(1_000, 1.0), (10_000, math.nan), (100_000, 2.0)]},
            log_x=True,
        )
        assert GAP_MARKER in chart

