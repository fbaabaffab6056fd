"""The instruction fetch unit in isolation."""

import pytest

from repro import EmulatorError, PRODUCTION
from repro.emulators import bcpl, lisp, mesa, smalltalk
from repro.ifu.decoder import DecodeEntry, DecodeTable, OperandKind
from repro.ifu.ifu import Ifu
from repro.mem.pipeline import MemorySystem


def make_table():
    table = DecodeTable("test")
    table.define(0x01, DecodeEntry("NOP", "op.nop"))
    table.define(0x02, DecodeEntry("LIT", "op.lit", OperandKind.BYTE))
    table.define(0x03, DecodeEntry("LITS", "op.lits", OperandKind.SIGNED_BYTE))
    table.define(0x04, DecodeEntry("JMP", "op.jmp", OperandKind.WORD))
    table.define(0x05, DecodeEntry("PAIR", "op.pair", OperandKind.PAIR))
    return table


DISPATCH = {"op.nop": 100, "op.lit": 110, "op.lits": 120, "op.jmp": 130, "op.pair": 140}


def make_ifu(byte_stream):
    mem = MemorySystem(PRODUCTION)
    mem.identity_map(16)
    padded = list(byte_stream) + [0] * (len(byte_stream) % 2)
    for i in range(0, len(padded), 2):
        mem.storage.write_word(i // 2, (padded[i] << 8) | padded[i + 1])
    ifu = Ifu(mem)
    ifu.load_table(make_table(), DISPATCH)
    return ifu


def run_until_ready(ifu, limit=20):
    for _ in range(limit):
        if ifu.dispatch_ready:
            return
        ifu.tick()
    raise AssertionError("IFU never became ready")


# --- decode tables -----------------------------------------------------------

def test_table_rejects_duplicates():
    table = make_table()
    with pytest.raises(EmulatorError):
        table.define(0x01, DecodeEntry("X", "op.x"))
    with pytest.raises(EmulatorError):
        table.define(0x10, DecodeEntry("NOP", "op.other"))


def test_table_opcode_lookup():
    table = make_table()
    assert table.opcode("LIT") == 0x02
    with pytest.raises(EmulatorError):
        table.opcode("NOSUCH")


def test_entry_lengths():
    table = make_table()
    assert table.entry(0x01).length == 1
    assert table.entry(0x02).length == 2
    assert table.entry(0x04).length == 3


@pytest.mark.parametrize("isa", [bcpl, lisp, mesa, smalltalk],
                         ids=lambda isa: isa.__name__.rsplit(".", 1)[-1])
def test_precomputed_operand_count_matches_the_operand_kind(isa):
    table = isa.build_decode_table()
    for opcode in table.defined_opcodes():
        entry = table.entry(opcode)
        assert entry.operand_bytes == entry.operands.length
        assert entry.length == 1 + entry.operands.length


def test_operand_values():
    entry = DecodeEntry("X", "op", OperandKind.SIGNED_BYTE)
    assert entry.operand_values([0x80]) == [0xFF80]
    entry = DecodeEntry("X2", "op", OperandKind.WORD)
    assert entry.operand_values([0x12, 0x34]) == [0x1234]
    entry = DecodeEntry("X3", "op", OperandKind.PAIR)
    assert entry.operand_values([1, 2]) == [1, 2]


def test_load_table_checks_dispatches():
    ifu = Ifu(MemorySystem(PRODUCTION))
    with pytest.raises(EmulatorError):
        ifu.load_table(make_table(), {"op.nop": 1})


# --- stream behaviour ---------------------------------------------------------

def test_dispatch_sequence():
    ifu = make_ifu([0x01, 0x02, 0x2A, 0x01])
    ifu.start(0)
    run_until_ready(ifu)
    assert ifu.take_dispatch() == 100
    assert ifu.pc == 1
    run_until_ready(ifu)
    assert ifu.take_dispatch() == 110
    assert ifu.read_operand() == 0x2A
    assert ifu.pc == 3
    run_until_ready(ifu)
    assert ifu.take_dispatch() == 100


def test_operand_consumption():
    ifu = make_ifu([0x05, 7, 9])
    ifu.start(0)
    run_until_ready(ifu)
    ifu.take_dispatch()
    assert ifu.read_operand() == 7
    ifu.consume_operand()
    assert ifu.read_operand() == 9
    ifu.consume_operand()
    assert not ifu.operand_ready
    with pytest.raises(EmulatorError):
        ifu.read_operand()


def test_signed_operand_sign_extends():
    ifu = make_ifu([0x03, 0xFE])
    ifu.start(0)
    run_until_ready(ifu)
    ifu.take_dispatch()
    assert ifu.read_operand() == 0xFFFE


def test_jump_flushes_and_costs_cycles():
    ifu = make_ifu([0x01, 0x01, 0x01, 0x01, 0x04, 0x00, 0x00])
    ifu.start(0)
    run_until_ready(ifu)
    ifu.take_dispatch()
    ifu.jump(4)
    assert not ifu.dispatch_ready  # the buffer was flushed
    cycles = 0
    while not ifu.dispatch_ready:
        ifu.tick()
        cycles += 1
    assert cycles >= 2  # refill + decode: the taken-branch penalty
    assert ifu.take_dispatch() == 130


def test_steady_state_is_back_to_back():
    """Simple macroinstructions dispatch every cycle once the buffer runs
    ahead -- the 'simple macroinstruction in one cycle' requirement."""
    ifu = make_ifu([0x01] * 16)
    ifu.start(0)
    run_until_ready(ifu)
    for _ in range(6):
        ifu.take_dispatch()
        ifu.tick()
        assert ifu.dispatch_ready


def test_undefined_opcode_raises_only_when_reached():
    ifu = make_ifu([0x01, 0xEE])
    ifu.start(0)
    run_until_ready(ifu)
    ifu.take_dispatch()  # fine: prefetch into 0xEE must not raise here
    for _ in range(4):
        ifu.tick()
    with pytest.raises(EmulatorError):
        ifu.dispatch_ready  # noqa: B018 - property with a deliberate raise


def test_reset_stops_prefetch():
    ifu = make_ifu([0x01, 0x01])
    ifu.start(0)
    run_until_ready(ifu)
    ifu.reset()
    assert not ifu.running
    assert not ifu.dispatch_ready
