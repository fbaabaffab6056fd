"""MachineConfig validation and derived quantities."""

import pytest

from repro import ConfigError, MachineConfig, MODEL0, PRODUCTION, STITCHWELD
from repro.config import MAX_CACHE_LINES, MAX_IM_WORDS, MAX_STORAGE_WORDS


def test_production_defaults_match_paper():
    assert PRODUCTION.cycle_ns == 60.0       # section 1: 60 ns microcycle
    assert PRODUCTION.im_size == 4096        # 4K x 34-bit IM chips
    assert PRODUCTION.storage_cycle == 8     # one munch per 8 cycles
    assert PRODUCTION.cache_hit_cycles == 2  # two-cycle cache latency
    assert PRODUCTION.num_base_registers == 32
    assert PRODUCTION.bypass_enabled


def test_stitchweld_is_faster():
    assert STITCHWELD.cycle_ns == 50.0


def test_model0_lacks_bypass():
    assert not MODEL0.bypass_enabled


def test_num_pages():
    assert PRODUCTION.num_pages == 64


def test_seconds_conversion():
    assert PRODUCTION.seconds(1_000_000) == pytest.approx(0.06)


def test_bandwidth_conversion():
    # 16 words of 16 bits in 8 cycles at 60 ns = 533 Mbit/s (section 6.2.1).
    assert PRODUCTION.megabits_per_second(256, 8) == pytest.approx(533.3, abs=0.1)


def test_bandwidth_zero_cycles_rejected():
    with pytest.raises(ConfigError):
        PRODUCTION.megabits_per_second(16, 0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"cycle_ns": 0},
        {"cycle_ns": -5},
        {"im_size": 1000},
        {"page_size": 48},
        {"page_size": 128},
        {"page_size": 8192},
        {"cache_lines": 10, "cache_ways": 3},
        {"cache_hit_cycles": 0},
        {"miss_penalty": 1},
        {"storage_cycle": 0},
        {"storage_words": 0},
        {"storage_words": MAX_STORAGE_WORDS + 16},
        {"storage_words": 2 ** 40},
        {"task_grain": 4},
        {"im_size": MAX_IM_WORDS * 2},
        {"im_size": 1 << 30},
        {"cache_lines": 0, "cache_ways": 1},
        {"cache_lines": MAX_CACHE_LINES * 2, "cache_ways": 2},
        {"cache_lines": 1 << 30, "cache_ways": 2},
        {"num_base_registers": 33},
        {"base_register_bits": 29},
    ],
)
def test_invalid_configs_rejected(kwargs):
    with pytest.raises(ConfigError):
        MachineConfig(**kwargs)


def test_storage_stops_at_the_real_machines_eight_megabytes():
    assert MAX_STORAGE_WORDS == 4 * 1024 * 1024
    MachineConfig(storage_words=MAX_STORAGE_WORDS)


def test_allocation_bounds_admit_the_largest_real_and_swept_sizes():
    assert MAX_IM_WORDS == PRODUCTION.im_size == 4096
    MachineConfig(cache_lines=MAX_CACHE_LINES, cache_ways=2)


def test_page_size_must_divide_im():
    with pytest.raises(ConfigError):
        MachineConfig(im_size=4096, page_size=4096 * 2)
