"""Tests for deterministic random streams and distributions."""

import math
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import RandomStreams, ZipfSampler


def test_streams_are_deterministic_across_instances():
    a = RandomStreams(seed=7)
    b = RandomStreams(seed=7)
    assert [a.exponential("x", 1.0) for _ in range(5)] == \
        [b.exponential("x", 1.0) for _ in range(5)]


def test_streams_differ_by_name_and_seed():
    rs = RandomStreams(seed=7)
    xs = [rs.exponential("x", 1.0) for _ in range(5)]
    ys = [rs.exponential("y", 1.0) for _ in range(5)]
    assert xs != ys
    other = RandomStreams(seed=8)
    assert xs != [other.exponential("x", 1.0) for _ in range(5)]


def test_streams_independent_of_draw_order():
    """Drawing from stream 'a' must not perturb stream 'b'."""
    rs1 = RandomStreams(seed=3)
    _ = [rs1.exponential("a", 1.0) for _ in range(100)]
    b_after = rs1.exponential("b", 1.0)
    rs2 = RandomStreams(seed=3)
    b_direct = rs2.exponential("b", 1.0)
    assert b_after == b_direct


def test_exponential_mean_converges():
    rs = RandomStreams(seed=1)
    xs = [rs.exponential("m", 2.0) for _ in range(20000)]
    assert statistics.mean(xs) == pytest.approx(2.0, rel=0.05)


def test_lognormal_mean_and_cv():
    rs = RandomStreams(seed=2)
    xs = [rs.lognormal("ln", mean=5.0, cv=0.7) for _ in range(30000)]
    m = statistics.mean(xs)
    cv = statistics.stdev(xs) / m
    assert m == pytest.approx(5.0, rel=0.05)
    assert cv == pytest.approx(0.7, rel=0.1)


def test_lognormal_zero_cv_is_deterministic():
    rs = RandomStreams(seed=2)
    assert rs.lognormal("d", mean=3.0, cv=0.0) == 3.0


def test_lognormal_rejects_bad_mean():
    rs = RandomStreams(seed=2)
    with pytest.raises(ValueError):
        rs.lognormal("d", mean=0.0, cv=1.0)


def test_choice_weighted_respects_weights():
    rs = RandomStreams(seed=5)
    picks = [rs.choice_weighted("c", ["a", "b"], [9.0, 1.0])
             for _ in range(5000)]
    share_a = picks.count("a") / len(picks)
    assert share_a == pytest.approx(0.9, abs=0.03)


def test_zipf_rank_zero_most_popular():
    rs = RandomStreams(seed=6)
    sampler = rs.zipf("z", n=100, s=1.2)
    counts = [0] * 100
    for _ in range(20000):
        counts[sampler.sample()] += 1
    assert counts[0] == max(counts)
    assert counts[0] > 4 * counts[50]


def test_zipf_uniform_when_s_zero():
    rs = RandomStreams(seed=6)
    sampler = rs.zipf("z0", n=10, s=0.0)
    for rank in range(10):
        assert sampler.probability(rank) == pytest.approx(0.1)


def test_zipf_invalid_args():
    rs = RandomStreams(seed=6)
    with pytest.raises(ValueError):
        rs.zipf("bad", n=0, s=1.0)
    with pytest.raises(ValueError):
        rs.zipf("bad", n=5, s=-1.0)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=1, max_value=200),
       s=st.floats(min_value=0.0, max_value=3.0))
def test_property_zipf_probabilities_sum_to_one(n, s):
    rs = RandomStreams(seed=11)
    sampler = ZipfSampler(n, s, rs.stream("prop"))
    total = sum(sampler.probability(r) for r in range(n))
    assert math.isclose(total, 1.0, rel_tol=1e-9)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=2, max_value=200),
       s=st.floats(min_value=0.1, max_value=3.0))
def test_property_zipf_probabilities_monotone(n, s):
    rs = RandomStreams(seed=12)
    sampler = ZipfSampler(n, s, rs.stream("mono"))
    probs = [sampler.probability(r) for r in range(n)]
    assert all(probs[i] >= probs[i + 1] - 1e-12 for i in range(n - 1))
