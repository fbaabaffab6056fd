"""The memory pipeline: timing, MEMDATA, faults, and fast I/O."""

import pytest

from repro import DeviceError, MachineConfig, PRODUCTION
from repro.fault.plan import FaultKind
from repro.mem.map import FLAG_REFERENCED, PAGE_SHIFT
from repro.mem.pipeline import (
    FAULT_BOUNDS,
    FAULT_MAP,
    FAULT_WRITE_PROTECT,
    MemorySystem,
)
from repro.types import MUNCH_WORDS


def make(**kw):
    config = MachineConfig(**kw) if kw else PRODUCTION
    mem = MemorySystem(config)
    mem.identity_map(64)
    return mem


def advance(mem, cycles):
    for _ in range(cycles):
        mem.tick()


class RecordingPort:
    def __init__(self):
        self.delivered = []
        self.supply_value = [7] * MUNCH_WORDS

    def fast_deliver(self, address, words):
        self.delivered.append((address, list(words)))

    def fast_supply(self, address):
        return list(self.supply_value)


def test_cache_hit_latency():
    mem = make()
    mem.storage.write_word(0x10, 0xABCD)
    # First fetch misses; data ready after the miss penalty.
    assert mem.start_fetch(0, 0, 0x10)
    assert not mem.md_ready(0)
    advance(mem, mem.config.miss_penalty)
    assert mem.md_ready(0)
    assert mem.read_md(0) == 0xABCD
    # Second fetch of the same munch hits: ready in 2 cycles.
    assert mem.start_fetch(0, 0, 0x11)
    advance(mem, 1)
    assert not mem.md_ready(0)
    advance(mem, 1)
    assert mem.md_ready(0)


def test_md_is_most_recent_fetch():
    mem = make()
    mem.storage.write_word(1, 111)
    mem.storage.write_word(2, 222)
    mem.start_fetch(0, 0, 1)
    advance(mem, mem.config.miss_penalty)
    mem.start_fetch(0, 0, 2)
    advance(mem, mem.config.cache_hit_cycles)
    assert mem.read_md(0) == 222


def test_md_is_per_task():
    mem = make()
    mem.storage.write_word(1, 111)
    mem.storage.write_word(2, 222)
    mem.start_fetch(0, 0, 1)
    mem.start_fetch(5, 0, 2)
    advance(mem, mem.config.miss_penalty + mem.config.storage_cycle)
    assert mem.read_md(0) == 111
    assert mem.read_md(5) == 222


def test_store_then_fetch_roundtrip():
    mem = make()
    assert mem.start_store(0, 0, 0x20, 0x1234)
    mem.start_fetch(0, 0, 0x20)
    advance(mem, mem.config.miss_penalty)
    assert mem.read_md(0) == 0x1234


def test_store_writes_back_on_eviction():
    mem = make(cache_lines=2, cache_ways=1, storage_words=1 << 16)
    mem.identity_map(64)
    mem.start_store(0, 0, 0, 0xAAAA)
    # Evict munch 0 by filling the two munches that alias its set.
    mem.start_fetch(0, 0, 2 * MUNCH_WORDS)
    mem.start_fetch(0, 0, 4 * MUNCH_WORDS)
    assert mem.storage.read_word(0) == 0xAAAA


def test_map_fault_latches():
    mem = make()
    mem.start_fetch(0, 0, 0xFFFF)  # beyond the 64 mapped pages
    assert mem.fault_flags & FAULT_MAP
    assert mem.md_ready(0)  # faulting refs complete immediately with MD=0
    assert mem.read_md(0) == 0
    assert mem.read_faults(clear=True) & FAULT_MAP
    assert mem.fault_flags == 0


def test_write_protect_fault():
    mem = MemorySystem(PRODUCTION)
    mem.translator.identity_map(4, write_protected_pages=4)
    mem.start_store(0, 0, 0x10, 1)
    assert mem.fault_flags & FAULT_WRITE_PROTECT


def test_bounds_fault():
    mem = MemorySystem(MachineConfig(storage_words=1 << 12))
    mem.translator.identity_map(64)  # map exceeds storage
    mem.start_fetch(0, 0, 0)
    assert mem.fault_flags == 0
    mem.translator.write_base_low(1, 1 << 13)
    mem.start_fetch(0, 1, 0)
    assert mem.fault_flags & FAULT_BOUNDS


def test_fastio_fetch_delivers_munch():
    mem = make()
    for i in range(MUNCH_WORDS):
        mem.storage.write_word(0x40 + i, 0x900 + i)
    port = RecordingPort()
    assert mem.start_fastio_fetch(3, 0, 0x40, port)
    assert not port.delivered  # one storage cycle in flight
    advance(mem, mem.config.storage_cycle)
    assert port.delivered == [(0x40, [0x900 + i for i in range(MUNCH_WORDS)])]


def test_fastio_fetch_holds_while_storage_busy():
    mem = make()
    port = RecordingPort()
    assert mem.start_fastio_fetch(3, 0, 0, port)
    assert not mem.start_fastio_fetch(3, 0, MUNCH_WORDS, port)  # Hold
    advance(mem, mem.config.storage_cycle)
    assert mem.start_fastio_fetch(3, 0, MUNCH_WORDS, port)


def test_fastio_fetch_sees_dirty_cache_data():
    mem = make()
    mem.start_store(0, 0, 0x40, 0xCAFE)  # dirty in cache, not storage
    advance(mem, mem.config.storage_cycle * 4)
    port = RecordingPort()
    mem.start_fastio_fetch(3, 0, 0x40, port)
    advance(mem, mem.config.storage_cycle * 2)
    assert port.delivered[0][1][0] == 0xCAFE


def test_fastio_store_invalidates_cache():
    mem = make()
    mem.start_fetch(0, 0, 0x40)  # bring the munch into the cache
    advance(mem, mem.config.miss_penalty)
    port = RecordingPort()
    port.supply_value = [0xBEE0 + i for i in range(MUNCH_WORDS)]
    mem.start_fastio_store(3, 0, 0x40, port)
    assert mem.storage.read_word(0x41) == 0xBEE1
    # A subsequent processor fetch must see the device data.
    mem.start_fetch(0, 0, 0x41)
    advance(mem, mem.config.miss_penalty + mem.config.storage_cycle)
    assert mem.read_md(0) == 0xBEE1


def test_counters_accumulate():
    mem = make()
    mem.start_fetch(0, 0, 0)
    mem.start_fetch(0, 0, 1)
    assert mem.counters.cache_misses == 1
    assert mem.counters.cache_hits == 1
    assert mem.counters.memory_fetches == 2


def test_debug_read_keeps_map_side_effects():
    """A debug read translates like any reference: it sets the page's
    referenced bit and consumes an armed one-shot fault exactly once."""
    mem = make()
    page = 300 >> PAGE_SHIFT
    assert not mem.translator.map_read(page) & FLAG_REFERENCED
    mem.debug_read(300)
    assert mem.translator.map_read(page) & FLAG_REFERENCED
    mem.translator.inject_next = FaultKind.MAP
    with pytest.raises(DeviceError):
        mem.debug_read(300)
    assert mem.translator.inject_next is None
    assert mem.debug_read(300) == 0


def test_debug_read_of_an_unmapped_va_raises():
    mem = make()
    with pytest.raises(DeviceError):
        mem.debug_read(64 << 8)  # the first page past the identity map


def test_debug_rw_coherent_with_cache():
    mem = make()
    mem.start_store(0, 0, 5, 42)  # cache copy
    assert mem.debug_read(5) == 42
    mem.debug_write(5, 43)
    mem.start_fetch(0, 0, 5)
    advance(mem, mem.config.miss_penalty)
    assert mem.read_md(0) == 43
