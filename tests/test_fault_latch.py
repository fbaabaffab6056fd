"""Pin tests for the fault-latch lifecycle (DESIGN.md section 5.2).

The memory system latches fault conditions into a per-machine flag word
that microcode inspects two ways: ``B <- FAULTS`` (FF ``EXTB_FAULTS``)
peeks without side effects, while FF ``READ_FAULTS`` reads the word and
clears every latched condition -- memory flags and the stack error byte
together.  The bit layout is part of the microcode ABI::

    0x001 map fault          0x008..0x400 stack errors (overflow 3:0,
    0x002 write-protect                    underflow 7:4, shifted by 3)
    0x004 bounds             0x800 storage (uncorrectable ECC)

Every test runs under both cycle implementations: the latch is
architectural state and must behave identically.
"""

import dataclasses

import pytest

from repro import Assembler, FF, Processor
from repro.config import INTERPRETED, PRODUCTION, MachineConfig
from repro.fault import FaultConfig
from repro.mem.map import FLAG_VALID, FLAG_WRITE_PROTECT
from repro.mem.pipeline import (
    FAULT_BOUNDS,
    FAULT_MAP,
    FAULT_STORAGE,
    FAULT_WRITE_PROTECT,
)

CONFIGS = (("interp", INTERPRETED), ("plan", PRODUCTION))

STACK0_OVERFLOW = 0x1 << 3
STACK0_UNDERFLOW = 0x10 << 3


def run(build, config=PRODUCTION, pages=4, prepare=None, max_cycles=10_000):
    asm = Assembler(config)
    build(asm)
    asm.halt()
    cpu = Processor(config)
    cpu.load_image(asm.assemble())
    cpu.memory.identity_map(pages)
    if prepare is not None:
        prepare(cpu)
    cpu.run(max_cycles)
    return cpu


def unmapped_fetch(asm):
    """A fetch from VA 0xFF00, which no test maps: latches FAULT_MAP."""
    asm.register("va", 1)
    asm.emit(r="va", b=0xFF00, alu="B", load="RM")
    asm.emit(r="va", a="RM", fetch=True)


def trace_faults(asm, reads):
    """Emit a sequence of peek ('extb') / read-and-clear ('read') traces."""
    for how in reads:
        if how == "extb":
            asm.emit(b="FAULTS", alu="B", load="T")
        else:
            asm.emit(ff=FF.READ_FAULTS, load="T")
        asm.emit(b="T", ff=FF.TRACE)


@pytest.mark.parametrize("name,config", CONFIGS)
def test_extb_peeks_read_faults_clears(name, config):
    """The full lifecycle: latch, peek twice (idempotent), read-and-clear
    once, and both views are empty afterwards."""

    def build(asm):
        unmapped_fetch(asm)
        trace_faults(asm, ["extb", "extb", "read", "extb", "read"])

    cpu = run(build, config)
    assert cpu.console.trace == [
        FAULT_MAP,  # peek sees the latch...
        FAULT_MAP,  # ...and does not disturb it
        FAULT_MAP,  # read-and-clear returns the same word
        0,          # peek after the clear: empty
        0,          # and so is a second read
    ]


@pytest.mark.parametrize("name,config", CONFIGS)
def test_stack_bits_sit_above_memory_bits(name, config):
    """Stack-0 overflow lands at 0x8, underflow at 0x80, and READ_FAULTS
    clears the stack byte together with the memory flags."""

    def build(asm):
        asm.emit(b=0x3F, alu="B", load="T")
        asm.emit(b="T", ff=FF.STACKPTR_B)   # STACKPTR to the very top
        asm.emit(stack=1)                   # push past it: overflow
        unmapped_fetch(asm)                 # and a memory fault alongside
        trace_faults(asm, ["read", "read"])

    cpu = run(build, config)
    assert cpu.console.trace == [FAULT_MAP | STACK0_OVERFLOW, 0]

    def build_underflow(asm):
        asm.emit(stack=-1)                  # pop an empty stack 0
        trace_faults(asm, ["read", "read"])

    cpu = run(build_underflow, config)
    assert cpu.console.trace == [STACK0_UNDERFLOW, 0]


@pytest.mark.parametrize("name,config", CONFIGS)
def test_write_protect_and_bounds_bits(name, config):
    """A store to a protected page latches 0x2; a reference that maps
    beyond physical storage latches 0x4."""
    small = dataclasses.replace(config, storage_words=1 << 12)

    def prepare(cpu):
        translator = cpu.memory.translator
        translator.map_write(8, FLAG_VALID | FLAG_WRITE_PROTECT | 1)
        translator.map_write(9, FLAG_VALID | 0x7F0)

    def build(asm):
        asm.register("va", 1)
        asm.emit(r="va", b=0x0800, alu="B", load="RM")
        asm.emit(r="va", a="RM", b=0x1200, alu="B", store=True)
        trace_faults(asm, ["read"])
        asm.emit(r="va", b=0x0900, alu="B", load="RM")
        asm.emit(r="va", a="RM", fetch=True)   # maps to RA 0x7F000: out of range
        trace_faults(asm, ["read"])

    cpu = run(build, small, prepare=prepare)
    assert cpu.console.trace == [FAULT_WRITE_PROTECT, FAULT_BOUNDS]
    # The protected page was never written.
    assert cpu.memory.storage.read_word(0x100) == 0


@pytest.mark.parametrize("name,config", CONFIGS)
def test_storage_fault_merges_at_0x800(name, config):
    """An uncorrectable ECC event latches FAULT_STORAGE above the stack
    byte, and READ_FAULTS clears it like any other flag."""
    faulted = dataclasses.replace(
        config,
        fault_injection=FaultConfig(seed=3, storage_uncorrectable=1, last_cycle=0),
    )

    def build(asm):
        asm.register("va", 1)
        asm.emit(r="va", b=0x0040, alu="B", load="RM")
        asm.emit(r="va", a="RM", fetch=True)   # miss -> storage read -> ECC event
        trace_faults(asm, ["extb", "read", "read"])

    cpu = run(build, faulted)
    assert cpu.console.trace == [FAULT_STORAGE, FAULT_STORAGE, 0]
    assert cpu.counters.ecc_uncorrected == 1
    assert cpu.counters.faults_latched == 1


@pytest.mark.parametrize("name,config", CONFIGS)
def test_faulting_reference_completes_with_zero_md(name, config):
    """A faulting reference must not leave its task wedged: it completes
    immediately, MEMDATA reads as zero, and nothing holds."""

    def build(asm):
        unmapped_fetch(asm)
        asm.emit(b="MD", alu="B", load="T")   # immediately after the fault
        asm.emit(b="T", ff=FF.TRACE)

    cpu = run(build, config)
    assert cpu.console.trace == [0]
    assert cpu.counters.held_cycles == 0
    assert not cpu.memory.task_busy(0)
    assert cpu.memory.fault_flags == FAULT_MAP  # still latched until read
