"""Tests for the statistics substrate."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats import (
    LatencyRecorder,
    StepSeries,
    TimeSeries,
    format_heatmap,
    format_series,
    format_table,
    nearest_rank,
    percentile,
    summarize,
)


# -- percentiles -----------------------------------------------------------

def test_percentile_basic():
    xs = list(range(1, 101))
    assert percentile(xs, 0.5) == pytest.approx(50.5)
    assert percentile(xs, 0.0) == 1
    assert percentile(xs, 1.0) == 100


def test_percentile_validation():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 1.5)


def test_nearest_rank_basic():
    xs = list(range(100, 0, -1))
    assert nearest_rank(xs, 0.5) == 50
    assert nearest_rank(xs, 0.95) == 95
    assert nearest_rank(xs, 0.0) == 1
    assert nearest_rank(xs, 1.0) == 100
    with pytest.raises(ValueError):
        nearest_rank([], 0.5)
    with pytest.raises(ValueError):
        nearest_rank([1.0], 1.5)


@settings(max_examples=200, deadline=None)
@given(xs=st.lists(st.floats(min_value=0, max_value=1e6),
                   min_size=1, max_size=200),
       p=st.one_of(st.sampled_from([0.0, 0.5, 0.95, 0.99, 1.0]),
                   st.floats(min_value=0.0, max_value=1.0)))
def test_property_nearest_rank_is_inverted_cdf(xs, p):
    expected = np.quantile(np.asarray(xs), p, method="inverted_cdf")
    assert nearest_rank(xs, p) == float(expected)


def test_summarize_fields():
    s = summarize([1.0, 2.0, 3.0, 4.0])
    assert s["count"] == 4
    assert s["mean"] == pytest.approx(2.5)
    assert s["p50"] == pytest.approx(2.5)
    with pytest.raises(ValueError):
        summarize([])


@settings(max_examples=30, deadline=None)
@given(xs=st.lists(st.floats(min_value=0, max_value=1e6),
                   min_size=1, max_size=50))
def test_property_percentiles_ordered(xs):
    assert percentile(xs, 0.5) <= percentile(xs, 0.9) <= percentile(xs, 0.99)


# -- latency recorder --------------------------------------------------------

def test_recorder_warmup_excluded():
    rec = LatencyRecorder(warmup=10.0)
    rec.record(5.0, 100.0)   # during warm-up
    rec.record(15.0, 1.0)
    assert rec.count == 2
    assert list(rec.samples()) == [1.0]


def test_recorder_window_queries():
    rec = LatencyRecorder()
    for t in range(10):
        rec.record(float(t), float(t))
    assert list(rec.samples(start=3, end=5)) == [3.0, 4.0]
    assert rec.mean(start=3, end=5) == pytest.approx(3.5)


def test_recorder_throughput():
    rec = LatencyRecorder()
    for t in range(100):
        rec.record(t * 0.1, 0.01)
    assert rec.throughput(start=0.0, end=10.0) == pytest.approx(10.0, rel=0.05)


def test_recorder_timeseries_nan_for_empty_buckets():
    rec = LatencyRecorder()
    rec.record(0.5, 1.0)
    rec.record(2.5, 2.0)
    series = rec.timeseries(bucket=1.0, p=0.5, start=0.0, end=3.0)
    assert len(series) == 3
    assert series[0][1] == 1.0
    assert math.isnan(series[1][1])
    assert series[2][1] == 2.0


def test_recorder_rejects_negative_latency():
    with pytest.raises(ValueError):
        LatencyRecorder().record(0.0, -1.0)


# -- time series -----------------------------------------------------------

def test_timeseries_monotone_time_enforced():
    ts = TimeSeries("x")
    ts.record(1.0, 5.0)
    with pytest.raises(ValueError):
        ts.record(0.5, 6.0)


def test_timeseries_bucketed_mean_and_max():
    ts = TimeSeries("x")
    for t, v in [(0.1, 1.0), (0.9, 3.0), (1.5, 10.0)]:
        ts.record(t, v)
    mean = ts.bucketed(1.0, end=2.0, agg="mean")
    assert mean[0] == (0.0, 2.0)
    assert mean[1] == (1.0, 10.0)
    mx = ts.bucketed(1.0, end=2.0, agg="max")
    assert mx[0] == (0.0, 3.0)


def test_timeseries_last_and_empty():
    ts = TimeSeries("x")
    with pytest.raises(ValueError):
        ts.last()
    ts.record(1.0, 2.0)
    assert ts.last() == 2.0
    assert math.isnan(ts.mean_in(5.0, 6.0))


# -- step series ------------------------------------------------------------

def test_step_series_value_at():
    ss = StepSeries(initial=1.0)
    ss.set(10.0, 3.0)
    assert ss.value_at(5.0) == 1.0
    assert ss.value_at(10.0) == 3.0
    assert ss.value_at(99.0) == 3.0


def test_step_series_integral_instance_hours():
    ss = StepSeries(initial=2.0)
    ss.set(10.0, 4.0)
    # [0,10): 2 * 10 = 20; [10,20): 4 * 10 = 40.
    assert ss.integral(0.0, 20.0) == pytest.approx(60.0)
    assert ss.integral(5.0, 15.0) == pytest.approx(2 * 5 + 4 * 5)
    with pytest.raises(ValueError):
        ss.integral(5.0, 1.0)


def test_step_series_monotone_time():
    ss = StepSeries(initial=0.0, start=5.0)
    with pytest.raises(ValueError):
        ss.set(1.0, 2.0)


# -- tables ------------------------------------------------------------------

def test_format_table_aligns_and_validates():
    out = format_table(["a", "bb"], [[1, 2.34567], ["x", "y"]], title="T")
    lines = out.splitlines()
    assert lines[0] == "T"
    assert "2.346" in out
    with pytest.raises(ValueError):
        format_table(["a"], [[1, 2]])


def test_format_heatmap_shades():
    out = format_heatmap(["r1", "r2"], ["c1", "c2"],
                         [[1.0, 10.0], [100.0, 1000.0]])
    lines = out.splitlines()
    assert lines[0].startswith("r1 |")
    # Larger values get brighter shades; nan renders as '?'.
    out_nan = format_heatmap(["r"], ["c", "c2"],
                             [[float("nan"), 5.0]])
    assert "?" in out_nan
    with pytest.raises(ValueError):
        format_heatmap(["r"], ["c"], [[float("nan")]])


def test_format_series_columns():
    out = format_series("s", [1, 2], [10.0, 20.0], "qps", "p99")
    assert "qps" in out and "p99" in out
    with pytest.raises(ValueError):
        format_series("s", [1], [1, 2])
