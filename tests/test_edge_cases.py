"""Edge cases and error paths across the substrates."""

import copy
import os

import pytest

from repro import Assembler, ConfigError, DeviceError, EmulatorError, Processor
from repro.io.device import Device, LoopbackDevice
from repro.mem.storage import Storage
from repro.types import MUNCH_WORDS


# --- storage ------------------------------------------------------------------

def test_storage_requires_munch_multiple():
    with pytest.raises(ConfigError):
        Storage(100)  # not a multiple of 16


def test_storage_load_bounds():
    storage = Storage(64)
    with pytest.raises(ConfigError):
        storage.load(60, [0] * 8)
    storage.load(0, [1, 2, 3])
    assert storage.dump(0, 3) == [1, 2, 3]


def test_storage_write_munch_length():
    storage = Storage(64)
    with pytest.raises(ConfigError):
        storage.write_munch(0, [0] * 8)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_storage_written_in_a_forked_child_is_its_own():
    """Workers are forked from a parent holding machines: a child's
    storage writes must not reach the parent's image."""
    storage = Storage(64)
    storage.write_word(5, 7)
    pid = os.fork()
    if pid == 0:
        storage.write_word(5, 9)
        os._exit(0)
    os.waitpid(pid, 0)
    assert storage.read_word(5) == 7


def test_storage_deepcopy_is_independent():
    storage = Storage(64)
    storage.load(0, [1, 2, 3])
    clone = copy.deepcopy(storage)
    clone.write_word(1, 9)
    assert storage.dump(0, 3) == [1, 2, 3] and clone.dump(0, 3) == [1, 9, 3]
    assert clone.state_dict() != storage.state_dict()


def test_storage_munch_base():
    assert Storage.munch_base(0x123) == 0x120
    assert Storage.munch_base(0x120) == 0x120


# --- device framework --------------------------------------------------------------

def test_device_without_task_cannot_request():
    device = LoopbackDevice(task=None)
    with pytest.raises(DeviceError, match="no task"):
        device.request_service()


def test_device_base_registers_unimplemented():
    device = Device("stub", task=5, io_address=0x70)
    with pytest.raises(DeviceError):
        device.read_register(0)
    with pytest.raises(DeviceError):
        device.write_register(0, 1)
    with pytest.raises(DeviceError):
        device.fast_deliver(0, [0] * MUNCH_WORDS)
    with pytest.raises(DeviceError):
        device.fast_supply(0)


def test_device_task_range_checked():
    with pytest.raises(DeviceError):
        Device("bad", task=0, io_address=0x70)
    with pytest.raises(DeviceError):
        Device("bad", task=16, io_address=0x70)


def test_loopback_fast_port_roundtrip():
    device = LoopbackDevice(task=None)
    words = list(range(MUNCH_WORDS))
    device.fast_deliver(0x40, words)
    assert device.fast_supply(0x40) == words
    assert device.fast_supply(0x80) == [0] * MUNCH_WORDS
    with pytest.raises(DeviceError):
        device.fast_deliver(0, [1, 2, 3])


# --- IFU configuration errors ------------------------------------------------------

def test_ifu_start_without_table():
    cpu = Processor()
    with pytest.raises(EmulatorError, match="decode table"):
        cpu.ifu.start(0)


# --- memory fault latch polarity -----------------------------------------------------

def test_read_faults_nonclearing():
    cpu = Processor()
    cpu.memory.identity_map(2)
    cpu.memory.start_fetch(0, 0, 0xF000)  # unmapped
    assert cpu.memory.read_faults(clear=False) != 0
    assert cpu.memory.read_faults(clear=False) != 0  # still latched
    assert cpu.memory.read_faults(clear=True) != 0
    assert cpu.memory.read_faults(clear=False) == 0


# --- assembler misc -------------------------------------------------------------------

def test_registers_bulk_define_and_conflict():
    asm = Assembler()
    asm.registers({"a": 1, "b": 2})
    asm.register("a", 1)  # same mapping: fine
    from repro import AssemblyError

    with pytest.raises(AssemblyError):
        asm.registers({"a": 3})


def test_empty_program_assembles():
    asm = Assembler()
    image = asm.assemble()
    assert len(image) == 0
    assert asm.report.pages_used == 0
    assert asm.report.utilization == 1.0


def test_counters_in_processor_track_slow_io():
    from repro import FF

    asm = Assembler()
    asm.emit(b=0x10, alu="B", load="T")
    asm.emit(b="T", ff=FF.IOADDRESS_B)
    asm.emit(b=1, alu="B", load="T")
    asm.emit(b="T", ff=FF.OUTPUT)
    asm.emit(b="INPUT", alu="B", load="T")
    asm.halt()
    cpu = Processor()
    cpu.load_image(asm.assemble())
    cpu.attach_device(LoopbackDevice(task=None, io_address=0x10))
    cpu.run(100)
    assert cpu.counters.slowio_words_out == 1
    assert cpu.counters.slowio_words_in == 1
