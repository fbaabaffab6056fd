"""Property-based lock-down of the set-associative cache.

A tiny cache (2 sets x 2 ways) in front of a small storage is driven
with random sequences of reads, writes, flushes, fast-I/O stores, and
invalidations -- exactly the operation mix the memory pipeline issues --
and compared against a flat reference model where every write is
immediately and permanently visible.  LRU, write-back, write-allocate,
``flush_munch`` and ``invalidate_munch`` all have to cooperate for the
coherent view (cache copy if present, else storage) to match the model
after every step.
"""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PRODUCTION
from repro.mem.cache import Cache
from repro.mem.pipeline import MemorySystem
from repro.mem.storage import Storage
from repro.types import MUNCH_WORDS

LINES = 4
WAYS = 2
STORAGE_WORDS = 8 * MUNCH_WORDS  # 8 munches over 2 sets: heavy eviction


def build():
    return Cache(LINES, WAYS), Storage(STORAGE_WORDS), [0] * STORAGE_WORDS


def ensure_filled(cache, storage, address):
    """The pipeline's write-allocate path: fill on miss, write back victims."""
    if not cache.contains(address):
        writeback = cache.fill(address, storage.read_munch(address))
        if writeback is not None:
            victim_address, victim_words = writeback
            storage.write_munch(victim_address, victim_words)


def coherent_read(cache, storage, address):
    """What the machine would observe: cache copy first, else storage."""
    if cache.contains(address):
        return cache.read_word(address)
    return storage.read_word(address)


addresses = st.integers(min_value=0, max_value=STORAGE_WORDS - 1)
values = st.integers(min_value=0, max_value=0xFFFF)

operations = st.one_of(
    st.tuples(st.just("read"), addresses, st.just(0)),
    st.tuples(st.just("write"), addresses, values),
    st.tuples(st.just("flush"), addresses, st.just(0)),
    st.tuples(st.just("fastio_store"), addresses, values),
    st.tuples(st.just("invalidate"), addresses, st.just(0)),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(operations, min_size=1, max_size=60))
def test_cache_matches_flat_model(ops):
    cache, storage, model = build()
    for op, address, value in ops:
        if op == "read":
            ensure_filled(cache, storage, address)
            assert cache.read_word(address) == model[address]
        elif op == "write":
            ensure_filled(cache, storage, address)
            cache.write_word(address, value)
            model[address] = value
        elif op == "flush":
            # Fast-I/O read consistency: a dirty copy reaches storage,
            # the line stays valid and clean.
            flushed = cache.flush_munch(address)
            if flushed is not None:
                storage.write_munch(address, flushed)
            base = Storage.munch_base(address)
            assert storage.read_munch(address) == model[base : base + MUNCH_WORDS]
        elif op == "fastio_store":
            # Fast-I/O write: a device munch goes straight to storage
            # and any cached copy is dropped.
            words = [(value + i) & 0xFFFF for i in range(MUNCH_WORDS)]
            storage.write_munch(address, words)
            cache.invalidate_munch(address)
            base = Storage.munch_base(address)
            model[base : base + MUNCH_WORDS] = words
        else:  # invalidate a *clean* line (dropping dirty data diverges)
            line = cache.lookup(address)
            if line is not None and not line.dirty:
                cache.invalidate_munch(address)
        # The machine-visible view always matches the flat model.
        assert coherent_read(cache, storage, address) == model[address]

    # Full sweep: every word still coherent once the dust settles.
    for address in range(STORAGE_WORDS):
        assert coherent_read(cache, storage, address) == model[address]
    valid, dirty = cache.stats()
    assert valid <= LINES and dirty <= valid


@settings(max_examples=40, deadline=None)
@given(st.lists(addresses, min_size=1, max_size=40))
def test_lru_keeps_the_most_recent_way(probes):
    """After any probe sequence, the most recently touched munch of each
    set is still resident (LRU never evicts the newest line)."""
    cache, storage, _ = build()
    last_touched = {}
    for address in probes:
        ensure_filled(cache, storage, address)
        cache.read_word(address)
        index, _ = cache._locate(address)
        last_touched[index] = address
    for address in last_touched.values():
        assert cache.contains(address)


@settings(max_examples=40, deadline=None)
@given(addresses, values, addresses)
def test_writeback_preserves_dirty_data_across_eviction(address, value, other):
    """A dirty word survives any eviction chain: force the victim out by
    filling its whole set, then read the word back coherently."""
    cache, storage, _ = build()
    ensure_filled(cache, storage, address)
    cache.write_word(address, value)
    # Fill the victim's set with enough distinct munches to evict it.
    index, _ = cache._locate(address)
    evicted = 0
    munch = Storage.munch_base(other)
    while evicted <= WAYS:
        munch = (munch + MUNCH_WORDS) % STORAGE_WORDS
        candidate_index, _ = cache._locate(munch)
        if candidate_index == index and munch != Storage.munch_base(address):
            ensure_filled(cache, storage, munch)
            evicted += 1
    assert coherent_read(cache, storage, address) == value


def lru_state(cache):
    return cache._clock, [[line.lru for line in ways] for ways in cache.sets]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(addresses, values), max_size=20),
       st.lists(addresses, min_size=1, max_size=30))
def test_single_probe_read_matches_the_reference(writes, probes):
    """``MemorySystem.debug_read`` probes the cache once; it must return
    what :func:`coherent_read` returns and leave the same clock and LRU
    (a hit bumps both, a miss touches neither)."""
    cache, storage, _ = build()
    for address, value in writes:
        ensure_filled(cache, storage, address)
        cache.write_word(address, value)
    mem = MemorySystem(PRODUCTION)
    mem.identity_map(1)  # one page covers the whole tiny storage
    mem.cache, mem.storage = copy.deepcopy((cache, storage))
    for address in probes:
        assert mem.debug_read(address) == coherent_read(cache, storage, address)
        assert lru_state(mem.cache) == lru_state(cache)
