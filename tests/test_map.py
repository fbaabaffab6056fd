"""Virtual address formation and the page map."""

import pytest

from repro.config import MachineConfig
from repro.core.processor import Processor
from repro.mem.map import (
    FLAG_DIRTY,
    FLAG_REFERENCED,
    FLAG_VALID,
    FLAG_WRITE_PROTECT,
    PAGE_WORDS,
    AddressTranslator,
)


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
    assert tr.map_read(0) & (FLAG_REFERENCED | FLAG_DIRTY) == 0
    tr.translate(0, write=False)
    assert tr.map_read(0) & (FLAG_REFERENCED | FLAG_DIRTY) == FLAG_REFERENCED
    tr.translate(0, write=True)
    assert tr.map_read(0) & FLAG_DIRTY


def test_map_word_roundtrip():
    """Every flag pattern, at real pages 0 and 0xFFF, survives the map
    word both ways, and the entry translates as its flags say."""
    flag_bits = (FLAG_VALID, FLAG_WRITE_PROTECT, FLAG_DIRTY, FLAG_REFERENCED)
    for pattern in range(16):
        for real_page in (0, 0xFFF):
            encoded = real_page | sum(
                bit for index, bit in enumerate(flag_bits) if pattern >> index & 1
            )
            tr = make()
            tr.map_write(5, encoded)
            assert tr.map_read(5) == encoded
            valid = encoded & FLAG_VALID
            expected = real_page * PAGE_WORDS + 7 if valid else None
            assert tr.translate(5 * PAGE_WORDS + 7, write=False) == expected
            assert tr.map_read(5) == encoded | (FLAG_REFERENCED if valid else 0)
            writable = valid and not encoded & FLAG_WRITE_PROTECT
            assert tr.translate(5 * PAGE_WORDS + 7, write=True) == (
                expected if writable else None
            )
            if writable:
                assert tr.map_read(5) & FLAG_DIRTY


def test_map_write_read_via_words():
    tr = make()
    tr.map_write(5, FLAG_VALID | 9)
    assert tr.map_read(5) == FLAG_VALID | 9
    assert tr.map_read(99) == 0


def test_invalid_entry_faults():
    tr = make()
    tr.map_write(0, 1)  # real page 1, not valid
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
