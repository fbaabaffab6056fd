"""Virtual address formation and the page map."""

import pytest

from repro.config import MachineConfig
from repro.core.processor import Processor
from repro.mem.map import AddressTranslator, MapEntry, PAGE_WORDS


def make():
    return AddressTranslator(num_base_registers=32, base_register_bits=28)


def test_virtual_address_is_base_plus_displacement():
    tr = make()
    tr.write_base_low(3, 0x1000)
    assert tr.virtual_address(3, 0x0234) == 0x1234


def test_base_high_bits():
    tr = make()
    tr.write_base_low(0, 0x5678)
    tr.write_base_high(0, 0x0123)
    assert tr.read_base(0) == 0x01235678 & ((1 << 28) - 1)


def test_base_truncated_to_28_bits():
    tr = make()
    tr.write_base_high(1, 0xFFFF)
    assert tr.read_base(1) < (1 << 28)


def test_displacement_wraps_16_bits():
    tr = make()
    assert tr.virtual_address(0, 0x1_0005) == 5


def test_translate_identity():
    tr = make()
    tr.identity_map(4)
    assert tr.translate(0x123, write=False) == 0x123
    assert tr.translate(3 * PAGE_WORDS + 7, write=True) == 3 * PAGE_WORDS + 7


def test_translate_unmapped_faults():
    tr = make()
    tr.identity_map(2)
    assert tr.translate(2 * PAGE_WORDS, write=False) is None


def test_write_protect():
    tr = make()
    tr.identity_map(4, write_protected_pages=2)
    assert tr.translate(10, write=False) == 10
    assert tr.translate(10, write=True) is None
    assert tr.translate(2 * PAGE_WORDS, write=True) == 2 * PAGE_WORDS


def test_referenced_and_dirty_bits():
    tr = make()
    tr.identity_map(1)
    entry = tr.entry_for(0)
    assert not entry.referenced and not entry.dirty
    tr.translate(0, write=False)
    assert entry.referenced and not entry.dirty
    tr.translate(0, write=True)
    assert entry.dirty


def test_map_entry_encoding_roundtrip():
    entry = MapEntry(real_page=0x123, valid=True, write_protected=True, dirty=True)
    assert MapEntry.decode(entry.encode()) == entry


def test_map_write_read_via_words():
    tr = make()
    tr.map_write(5, MapEntry(real_page=9, valid=True).encode())
    assert tr.map_read(5) == MapEntry(real_page=9, valid=True).encode()
    assert tr.map_read(99) == 0


def test_invalid_entry_faults():
    tr = make()
    tr.map_write(0, MapEntry(real_page=1, valid=False).encode())
    assert tr.translate(0, write=False) is None


def test_identity_map_stops_at_the_virtual_pages():
    """With 16-bit base registers a VA names 256 pages; storage's 4096
    are not all mapped, and the machine snapshots and forks."""
    cpu = Processor(MachineConfig(base_register_bits=16))
    cpu.memory.identity_map()
    translator = cpu.memory.translator
    assert translator.virtual_pages == 256
    assert sorted(translator.map) == list(range(256))
    assert cpu.fork().snapshot() == cpu.snapshot()
