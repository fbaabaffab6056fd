"""The v2 architectural view and the v3 cache and map columns.

State format v3 stores the cache and the page map as run-coded int
columns, but :func:`~repro.supervise.architectural_json` -- which
``arch_hash`` hashes, the benchmark's pinned identity -- renders them
in their format v2 layout (DESIGN.md section 5.4).  The reference
below is frozen: the v2 ``Cache.state_dict`` and
``AddressTranslator.state_dict`` records, built from the live columns
and map, spliced into a snapshot and passed through the v2
``architectural_json``.  Every
machine kind a session can hold must render the same bytes both ways.

The rest checks that crafted envelopes fail cleanly: run counts that
claim more map entries or cache words than the machine holds are
refused before anything is allocated, so is a cache set holding two
valid lines with one tag, and a v2 envelope is refused by name.
"""

import pytest

from repro.config import TIERS
from repro.core.counters import RECOVERY_FIELDS
from repro.errors import ServiceError, StateError
from repro.fault.plan import FaultKind
from repro.mem.cache import Cache
from repro.perf.workloads import SESSION_WORKLOADS
from repro.service import Session
from repro.service.loadtest import FAULT_TEMPLATE
from repro.service.session import booted_workload
from repro.state import (
    STATE_FORMAT_VERSION,
    MachineState,
    canonical_json,
    parse_canonical_json,
)
from repro.supervise import architectural_json
from repro.types import MUNCH_WORDS
from tests.test_lifecycle_model import _attach_display


# --- the frozen format v2 reference encoder -----------------------------------


def v2_cache_state(cache):
    """Format v2's ``Cache.state_dict``: every line as a record, read
    from the live columns (line ``i`` is way ``i % ways`` of set
    ``i // ways``)."""
    ways = cache.ways
    return {
        "clock": cache.clock,
        "sets": [
            [
                {
                    "valid": bool(cache.flags[line] & 1),
                    "dirty": bool(cache.flags[line] & 2),
                    "tag": cache.tag[line],
                    "words": cache.words[line * MUNCH_WORDS : (line + 1) * MUNCH_WORDS],
                    "lru": cache.lru[line],
                }
                for line in range(index * ways, (index + 1) * ways)
            ]
            for index in range(cache.num_sets)
        ],
    }


def v2_translator_state(translator):
    """Format v2's ``AddressTranslator.state_dict``: one list per page,
    read from the live map (each entry ``real_page << 4 | flags``)."""
    inject = translator.inject_next
    return {
        "bases": list(translator.bases),
        "map": {
            page: [
                entry >> 4,
                bool(entry & 1),
                bool(entry & 2),
                bool(entry & 4),
                bool(entry & 8),
            ]
            for page, entry in translator.map.items()
        },
        "inject_next": inject.value if inject is not None else None,
    }


def v2_architectural_json(cpu):
    """Format v2's ``architectural_json`` of *cpu*'s snapshot."""
    data = dict(cpu.snapshot().data)
    mem = dict(data["mem"])
    mem["cache"] = v2_cache_state(cpu.memory.cache)
    mem["translator"] = v2_translator_state(cpu.memory.translator)
    data["mem"] = mem
    data["version"] = 2
    data.pop("config", None)
    data.pop("fault", None)
    core = dict(data["core"])
    counters = dict(core["counters"])
    for name in RECOVERY_FIELDS:
        counters.pop(name, None)
    core["counters"] = counters
    data["core"] = core
    return canonical_json(data)


def assert_v2_view(cpu):
    """The live and the parsed snapshot both render the v2 bytes."""
    expected = v2_architectural_json(cpu)
    snap = cpu.snapshot()
    assert architectural_json(snap) == expected
    assert architectural_json(MachineState.from_json(snap.to_json())) == expected


# --- the v2 view on every machine a session holds -----------------------------


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("name", sorted(SESSION_WORKLOADS))
def test_arch_view_is_v2_at_every_tier(name, tier):
    session = Session.build(name)
    session.cpu.tier = tier
    assert_v2_view(session.cpu)
    session.run_slice(2500)
    assert_v2_view(session.cpu)


@pytest.mark.parametrize("name", sorted(SESSION_WORKLOADS))
def test_arch_view_is_v2_on_a_supervised_faulted_machine(name):
    session = Session.build(
        name, fault=dict(FAULT_TEMPLATE, seed=101), supervise=True,
        checkpoint_interval=500,
    )
    for _ in range(3):
        session.run_slice(800)
        assert_v2_view(session.cpu)
    # The armed one-shot map fault is part of the translator section.
    session.cpu.memory.translator.inject_next = FaultKind.WRITE_PROTECT
    assert_v2_view(session.cpu)


@pytest.mark.parametrize("name", sorted(SESSION_WORKLOADS))
def test_arch_view_is_v2_on_a_display_band_machine(name):
    booted = booted_workload(name, ())
    _attach_display(booted.cpu)
    booted.cpu.run(1500)
    assert_v2_view(booted.cpu)


# --- crafted envelopes fail cleanly --------------------------------------------


def _parsed_state():
    session = Session.build("mesa_loop_sum")
    session.run_slice(600)
    return session.cpu, MachineState.from_json(session.cpu.snapshot().to_json())


@pytest.mark.parametrize("section, column, runs", [
    ("translator", "page_gap", [[1, 10 ** 12]]),
    ("translator", "page_gap", [[0, 1], [1, 1 << 20]]),
    ("translator", "real_offset", [[0, 10 ** 12]]),
    ("translator", "flags", [[1, 2 ** 63]]),
    ("cache", "words", [[0, 10 ** 12]]),
    ("cache", "words", [[0, 512 * 16 + 1]]),
    ("cache", "words", [[0, 512 * 16 - 1]]),
    ("cache", "tag", [[-1, 10 ** 12]]),
    ("cache", "lru", [[0, True]]),
])
def test_run_count_amplification_is_refused_before_allocating(section, column, runs):
    """A few bytes of runs cannot claim more entries than the machine
    holds: the counts are checked before any list is built."""
    cpu, state = _parsed_state()
    state.data["mem"][section][column] = {"__rle__": runs}
    with pytest.raises(StateError, match="run"):
        cpu.fork(state)


@pytest.mark.parametrize("gaps, flags, match", [
    ([3, 0], [1, 1], "rise strictly"),
    ([-1, 2], [1, 1], "rise strictly"),
    ([1 << 20], [1], "virtual pages"),
    ([0], [16], "flags"),
    ([0], [-1], "flags"),
])
def test_malformed_map_columns_are_refused(gaps, flags, match):
    cpu, state = _parsed_state()
    state.data["mem"]["translator"].update(
        page_gap=gaps, real_offset=[0] * len(gaps), flags=flags
    )
    with pytest.raises(StateError, match=match):
        cpu.fork(state)


def test_a_refused_cache_state_leaves_the_lines_alone():
    cache = Cache(lines=8, ways=2)
    cache.fill(0x40, list(range(16)))
    before = canonical_json(cache.state_dict())
    for bad in (
        dict(cache.state_dict(), words={"__rle__": [[0, 10 ** 12]]}),
        dict(cache.state_dict(), flags=[0, 4, 0, 0, 0, 0, 0, 0]),
        dict(cache.state_dict(), tag=[0] * 7),
        # munch 4 valid in both ways of set 0
        dict(cache.state_dict(), tag=[1, 1] + [-1] * 6, flags=[1, 1] + [0] * 6),
    ):
        with pytest.raises(StateError):
            cache.load_state(bad)
        assert canonical_json(cache.state_dict()) == before


def test_a_tag_valid_in_two_ways_is_refused():
    """Two valid lines of one set with one tag are refused: which one a
    probe found would depend on the order of the ways."""
    cpu, state = _parsed_state()
    cache = cpu.memory.cache
    line = next(iter(cache.resident.values()))
    other = line ^ 1  # the other way of its 2-way set
    tags = list(cache.tag)
    flags = list(cache.flags)
    tags[other], flags[other] = tags[line], 1
    state.data["mem"]["cache"].update(tag=tags, flags=flags)
    with pytest.raises(StateError, match="two valid lines with one tag"):
        cpu.fork(state)
    # The same lines with the duplicate not valid load.
    flags[other] = 0
    state.data["mem"]["cache"].update(flags=flags)
    cpu.fork(state)


def test_a_v2_envelope_is_refused_by_name():
    """An envelope saved by format v2 is a ServiceError naming both
    format versions, not a misread machine."""
    session = Session.build("mesa_loop_sum")
    session.run_slice(900)
    data = parse_canonical_json(session.suspend())
    machine = data["machine"]
    machine["version"] = 2
    machine["mem"]["cache"] = v2_cache_state(session.cpu.memory.cache)
    machine["mem"]["translator"] = v2_translator_state(session.cpu.memory.translator)
    envelope = canonical_json(data) + "\n"
    with pytest.raises(ServiceError, match=f"v2 .* v{STATE_FORMAT_VERSION}"):
        Session.resume(envelope)
