"""Whole-machine integration: the emulator computing while three device
controllers multiplex the same processor -- the Dorado's reason for
being (section 4)."""

import pytest

from repro.emulators.isa import BytecodeAssembler
from repro.emulators.mesa import FRAMES_VA, build_mesa_machine
from repro.io.disk import DISK_TASK, DiskController, DiskGeometry, disk_microcode
from repro.io.display import DISPLAY_TASK, DisplayController, display_fast_microcode
from repro.io.network import NETWORK_TASK, NetworkController, network_microcode
from repro.types import MUNCH_WORDS

BITMAP_VA = 0x6000
DISK_BUF_VA = 0x7000
NET_BUF_VA = 0x7800


def build_full_machine():
    ctx = build_mesa_machine(
        extra_microcode=[disk_microcode, display_fast_microcode, network_microcode]
    )
    cpu = ctx.cpu
    disk = DiskController(DiskGeometry(sectors=4, words_per_sector=128))
    display = DisplayController(munch_interval_cycles=16)
    net = NetworkController()
    cpu.attach_device(disk)
    cpu.attach_device(display)
    cpu.attach_device(net)
    return ctx, disk, display, net


def mesa_sum_program(ctx, n):
    b = BytecodeAssembler(ctx.table)
    b.op("LIT", 0); b.op("SL", 0)
    b.op("LITW", n); b.op("SL", 1)
    b.label("loop")
    b.op("LL", 0); b.op("LL", 1); b.op("ADD"); b.op("SL", 0)
    b.op("LL", 1); b.op("LIT", 1); b.op("SUB"); b.op("SL", 1)
    b.op("LL", 1); b.op("JNZ", "loop")
    b.op("HALT")
    ctx.load_program(b.assemble())


def test_emulator_with_three_io_tasks():
    ctx, disk, display, net = build_full_machine()
    cpu = ctx.cpu
    mesa_sum_program(ctx, 800)

    sector = [(i * 11 + 3) & 0xFFFF for i in range(128)]
    disk.fill_sector(1, sector)
    for i in range(48 * MUNCH_WORDS):
        cpu.memory.debug_write(BITMAP_VA + i, i & 0xFFFF)
    packet = [(0x7000 + i) & 0xFFFF for i in range(48)]
    net.inject_packet(packet)

    disk.begin_read(cpu, sector=1, buffer_va=DISK_BUF_VA)
    display.begin_band(cpu, BITMAP_VA, 48)
    net.begin_receive(cpu, buffer_va=NET_BUF_VA, packet_words=48)

    cpu.run(2_000_000)
    # Let any trailing device work finish after the emulator halts.
    for _ in range(200_000):
        if disk.done and display.done and net.done:
            break
        cpu.halted = False
        cpu.step()
        cpu.halted = True

    # Every consumer got the right data.
    assert ctx.memory_word(FRAMES_VA + 2) == (800 * 801 // 2) & 0xFFFF
    assert [cpu.memory.debug_read(DISK_BUF_VA + i) for i in range(128)] == sector
    assert [cpu.memory.debug_read(NET_BUF_VA + i) for i in range(48)] == packet
    assert disk.done and display.done and net.done
    assert display.underruns == 0

    # All four tasks actually shared the processor.
    counters = cpu.counters
    for task in (0, NETWORK_TASK, DISK_TASK, DISPLAY_TASK):
        assert counters.task_cycles[task] > 0, f"task {task} never ran"
    assert counters.task_switches > 50
    # The emulator loop ran traced next to the devices.
    assert cpu._traces.failures == []
    assert cpu._traces.stats()["traced_cycles"] > counters.cycles // 2


def test_io_barely_slows_the_emulator():
    """Processor sharing: the emulator pays only a small tax while three
    controllers stream (sections 4 and 5.7)."""
    ctx_alone, *_ = (build_mesa_machine(),)
    mesa_sum_program(ctx_alone, 400)
    alone = ctx_alone.run(2_000_000)
    assert ctx_alone.halted

    ctx, disk, display, net = build_full_machine()
    cpu = ctx.cpu
    mesa_sum_program(ctx, 400)
    disk.fill_sector(0, [0] * 128)
    net.inject_packet([0] * 32)
    disk.begin_read(cpu, sector=0, buffer_va=DISK_BUF_VA)
    display.begin_band(cpu, BITMAP_VA, 32)
    net.begin_receive(cpu, buffer_va=NET_BUF_VA, packet_words=32)
    combined = ctx.run(2_000_000)
    assert ctx.halted

    io_cycles = sum(
        cpu.counters.task_cycles[t] for t in (NETWORK_TASK, DISK_TASK, DISPLAY_TASK)
    )
    assert io_cycles > 0
    # The emulator finishes within the time of (its own work + the I/O
    # cycles) -- no scheduling overhead beyond the stolen cycles.
    assert combined <= alone + io_cycles + 50


def test_repeated_transfers_reuse_tasks():
    ctx, disk, display, net = build_full_machine()
    cpu = ctx.cpu
    mesa_sum_program(ctx, 50)
    ctx.run(2_000_000)

    for round_number in range(3):
        data = [(round_number * 1000 + i) & 0xFFFF for i in range(128)]
        disk.fill_sector(2, data)
        disk.begin_read(cpu, sector=2, buffer_va=DISK_BUF_VA)
        cpu.run_until(lambda m: disk.done, max_cycles=300_000)
        assert disk.done
        assert [cpu.memory.debug_read(DISK_BUF_VA + i) for i in range(128)] == data


def test_fastio_data_visible_to_emulator_memory():
    """Fast I/O writes storage directly; the cache must never serve
    stale munches afterwards (section 5.8 consistency)."""
    ctx, disk, display, net = build_full_machine()
    cpu = ctx.cpu
    mesa_sum_program(ctx, 10)
    ctx.run(2_000_000)
    # Prime the cache with the munch, then transmit it over the network
    # after the emulator modified it.
    cpu.memory.start_fetch(0, 0, NET_BUF_VA)
    for _ in range(40):
        cpu.memory.tick()
    for i in range(16):
        cpu.memory.debug_write(NET_BUF_VA + i, 0x4400 + i)
    net.begin_transmit(cpu, buffer_va=NET_BUF_VA, packet_words=16)
    cpu.halted = False
    cpu.run_until(lambda m: net.done, max_cycles=300_000)
    assert net.tx_words == [0x4400 + i for i in range(16)]


def test_grand_tour_with_timer():
    """Five concurrent tasks: emulator + disk + display + network +
    timer, with correctness checks on every stream."""
    from repro.io.timer import TIMER_TASK, TimerDevice, timer_microcode

    ctx = build_mesa_machine(
        extra_microcode=[
            disk_microcode, display_fast_microcode, network_microcode,
            timer_microcode,
        ]
    )
    cpu = ctx.cpu
    mesa_sum_program(ctx, 1200)

    disk = DiskController(DiskGeometry(sectors=2, words_per_sector=128))
    display = DisplayController(munch_interval_cycles=16)
    net = NetworkController()
    timer = TimerDevice(interval_cycles=500)
    for device in (disk, display, net, timer):
        cpu.attach_device(device)

    sector = [(5 * i + 2) & 0xFFFF for i in range(128)]
    disk.fill_sector(0, sector)
    packet = [(9 * i) & 0xFFFF for i in range(64)]
    net.inject_packet(packet)

    disk.begin_read(cpu, sector=0, buffer_va=DISK_BUF_VA)
    display.begin_band(cpu, BITMAP_VA, 64)
    net.begin_receive(cpu, buffer_va=NET_BUF_VA, packet_words=64)
    timer.start(cpu, counter_va=0x7F00)

    cpu.run(3_000_000)
    for _ in range(300_000):
        if disk.done and display.done and net.done:
            break
        cpu.halted = False
        cpu.step()
        cpu.halted = True

    assert ctx.memory_word(FRAMES_VA + 2) == (1200 * 1201 // 2) & 0xFFFF
    assert [cpu.memory.debug_read(DISK_BUF_VA + i) for i in range(128)] == sector
    assert [cpu.memory.debug_read(NET_BUF_VA + i) for i in range(64)] == packet
    assert display.underruns == 0
    ticks = cpu.memory.debug_read(0x7F00)
    assert ticks >= cpu.counters.cycles // 500 - 3
    for task in (0, TIMER_TASK, NETWORK_TASK, DISK_TASK, DISPLAY_TASK):
        assert cpu.counters.task_cycles[task] > 0, f"task {task} never ran"
