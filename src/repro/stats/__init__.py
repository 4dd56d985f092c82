"""Statistics substrate: latency distributions, time series, tables."""

from .dashboard import render_dashboard, sparkline
from .percentiles import LatencyRecorder, nearest_rank, percentile, summarize
from .tables import format_heatmap, format_series, format_table
from .timeseries import StepSeries, TimeSeries

__all__ = [
    "LatencyRecorder",
    "StepSeries",
    "TimeSeries",
    "format_heatmap",
    "format_series",
    "format_table",
    "render_dashboard",
    "sparkline",
    "nearest_rank",
    "percentile",
    "summarize",
]
