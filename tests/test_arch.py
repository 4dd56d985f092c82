"""Tests for platforms, DVFS, the top-down core model, attribution."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import (
    ArchTraits,
    CoreModel,
    FrequencyModel,
    LANGUAGE_TRAITS,
    THUNDERX,
    XEON,
    XEON_1P8,
    Platform,
    instruction_breakdown,
    scaled_time,
    service_breakdown,
    weighted_breakdown,
)
from repro.services.datastores import memcached, mongodb, nginx, recommender, xapian_search
from repro.services.monolith import _monolith_service


# -- platforms -----------------------------------------------------------

def test_platform_validation():
    with pytest.raises(ValueError):
        Platform("bad", 0, 2.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        Platform("bad", 4, 2.0, 3.0, 1.0)  # min > nominal
    with pytest.raises(ValueError):
        Platform("bad", 4, 2.0, 1.0, 0.0)


def test_thunderx_weaker_per_thread_than_xeon_at_same_freq():
    assert THUNDERX.core_speed(1.8) < XEON.core_speed(1.8)
    assert THUNDERX.cores_per_server > XEON.cores_per_server


def test_xeon_1p8_matches_capped_xeon():
    assert XEON_1P8.core_speed(1.8) == pytest.approx(XEON.core_speed(1.8))


# -- DVFS ----------------------------------------------------------------

def test_scaled_time_compute_bound_scales_inverse_freq():
    t = scaled_time(1.0, sensitivity=1.0, freq_ghz=1.25,
                    nominal_freq_ghz=2.5)
    assert t == pytest.approx(2.0)


def test_scaled_time_io_bound_insensitive():
    t = scaled_time(1.0, sensitivity=0.0, freq_ghz=1.0,
                    nominal_freq_ghz=2.5)
    assert t == pytest.approx(1.0)


def test_scaled_time_validation():
    with pytest.raises(ValueError):
        scaled_time(-1.0, 0.5, 1.0, 2.0)
    with pytest.raises(ValueError):
        scaled_time(1.0, 1.5, 1.0, 2.0)
    with pytest.raises(ValueError):
        scaled_time(1.0, 0.5, 0.0, 2.0)


def test_frequency_model_cap_clamps():
    fm = FrequencyModel(2.5, 1.0)
    assert fm.cap(0.5) == 1.0
    assert fm.cap(3.5) == 2.5
    assert fm.cap(1.7) == 1.7
    assert fm.uncap() == 2.5


@settings(max_examples=40, deadline=None)
@given(beta=st.floats(min_value=0.0, max_value=1.0),
       freq=st.floats(min_value=1.0, max_value=2.5))
def test_property_slowdown_at_least_one(beta, freq):
    """Reducing frequency can never speed a service up."""
    fm = FrequencyModel(2.5, 1.0)
    fm.cap(freq)
    assert fm.slowdown(beta) >= 1.0 - 1e-12


@settings(max_examples=40, deadline=None)
@given(freq=st.floats(min_value=1.0, max_value=2.5))
def test_property_higher_beta_more_sensitive(freq):
    fm = FrequencyModel(2.5, 1.0)
    fm.cap(freq)
    assert fm.slowdown(1.0) >= fm.slowdown(0.5) >= fm.slowdown(0.0)


# -- core model ----------------------------------------------------------

def test_traits_validation():
    with pytest.raises(ValueError):
        ArchTraits(icache_footprint_kb=0)
    with pytest.raises(ValueError):
        ArchTraits(kernel_share=1.2)
    with pytest.raises(ValueError):
        ArchTraits(kernel_share=0.6, library_share=0.6)


def test_breakdown_sums_to_one():
    model = CoreModel()
    for traits in LANGUAGE_TRAITS.values():
        b = model.breakdown(traits)
        total = (b.frontend + b.bad_speculation + b.backend + b.retiring)
        assert total == pytest.approx(1.0)
        assert b.retiring >= 0.05


def test_monolith_has_highest_l1i_mpki():
    """Fig. 11 anchor: the monolith's MPKI dwarfs the microservices'."""
    model = CoreModel()
    mono = model.l1i_mpki(_monolith_service().traits)
    assert mono > 60
    small = model.l1i_mpki(ArchTraits(icache_footprint_kb=40,
                                      kernel_share=0.1))
    assert small < 15
    assert mono > 4 * small


def test_known_tiers_land_in_paper_ranges():
    model = CoreModel()
    mpki_nginx = model.l1i_mpki(nginx().traits)
    mpki_mc = model.l1i_mpki(memcached("mc").traits)
    mpki_mongo = model.l1i_mpki(mongodb("mongo").traits)
    assert 15 < mpki_nginx < 45
    assert 10 < mpki_mc < 40
    assert 25 < mpki_mongo < 60


def test_search_high_ipc_recommender_low_ipc():
    """Fig. 10 anchor: xapian search IPC > 1, ML recommender < 0.5."""
    model = CoreModel()
    assert model.ipc(xapian_search().traits) > 1.0
    assert model.ipc(recommender().traits) < 0.5


def test_frontend_dominates_for_network_heavy_tiers():
    model = CoreModel()
    b = model.breakdown(memcached("mc").traits)
    assert b.frontend > b.bad_speculation
    assert b.frontend > 0.25


@settings(max_examples=40, deadline=None)
@given(fp=st.floats(min_value=16, max_value=2048))
def test_property_mpki_monotone_in_footprint(fp):
    model = CoreModel()
    a = model.l1i_mpki(ArchTraits(icache_footprint_kb=fp))
    b = model.l1i_mpki(ArchTraits(icache_footprint_kb=fp * 1.5))
    assert b >= a - 1e-9


# -- attribution -----------------------------------------------------------

def test_service_breakdown_shares():
    b = service_breakdown(ArchTraits(kernel_share=0.4, library_share=0.3))
    assert b.os == pytest.approx(0.4)
    assert b.libs == pytest.approx(0.3)
    assert b.user == pytest.approx(0.3)


def test_weighted_breakdown_weights_by_cpu_time():
    traits = {
        "kernel-heavy": ArchTraits(kernel_share=0.8, library_share=0.1),
        "user-heavy": ArchTraits(kernel_share=0.1, library_share=0.1),
    }
    mostly_kernel = weighted_breakdown(
        {"kernel-heavy": 9.0, "user-heavy": 1.0}, traits)
    mostly_user = weighted_breakdown(
        {"kernel-heavy": 1.0, "user-heavy": 9.0}, traits)
    assert mostly_kernel.os > mostly_user.os


def test_weighted_breakdown_rejects_zero_time():
    with pytest.raises(ValueError):
        weighted_breakdown({"a": 0.0}, {"a": ArchTraits()})


def test_instruction_breakdown_shifts_away_from_kernel():
    """Kernel code retires fewer instructions per cycle, so the I bar
    shows less OS share than the C bar (Fig. 14's C vs I asymmetry)."""
    cycles = service_breakdown(ArchTraits(kernel_share=0.5,
                                          library_share=0.2))
    instructions = instruction_breakdown(cycles)
    assert instructions.os < cycles.os
    assert instructions.os + instructions.user + instructions.libs == \
        pytest.approx(1.0)
