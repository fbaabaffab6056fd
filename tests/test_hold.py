"""Hold semantics (section 5.7): dead time that other tasks can absorb."""

import pytest

from repro import Assembler, FF, MachineConfig, MicrocodeCrash, Processor


def test_hold_is_counted_not_executed():
    """A held instruction is a 'no-op, jump to self': no effects."""
    asm = Assembler()
    asm.register("addr", 1)
    asm.register("acc", 2)
    asm.emit(r="addr", b=0x0200, alu="B", load="RM")
    asm.emit(r="addr", a="RM", fetch=True)            # cold miss
    asm.emit(r="acc", a="MD", alu="A", load="RM")     # held until data
    asm.emit(r="acc", b="RM", ff=FF.TRACE)
    asm.halt()
    cpu = Processor()
    cpu.load_image(asm.assemble())
    cpu.memory.identity_map(8)
    cpu.memory.storage.write_word(0x200, 0x77)
    cpu.run(1000)
    assert cpu.console.trace == [0x77]
    # Roughly the miss penalty of held cycles, counted separately.
    assert cpu.counters.held_cycles >= cpu.config.miss_penalty - 3
    assert cpu.counters.instructions < cpu.counters.cycles


def test_hold_releases_processor_to_higher_task():
    """While task 0 is held on a miss, a woken I/O task runs in the
    dead cycles and task 0's instruction restarts afterwards."""
    asm = Assembler()
    asm.register("addr", 1)
    asm.register("acc", 2)
    asm.emit(r="addr", b=0x0200, alu="B", load="RM")
    asm.emit(r="addr", a="RM", fetch=True)
    asm.emit(r="acc", a="MD", alu="A", load="RM")     # long hold
    asm.emit(r="acc", b="RM", ff=FF.TRACE)
    asm.halt()
    asm.label("io")
    asm.emit(b="TASK", alu="B", load="T")
    asm.emit(b="T", ff=FF.TRACE, block=True, goto="io")
    cpu = Processor()
    cpu.load_image(asm.assemble())
    cpu.memory.identity_map(8)
    cpu.memory.storage.write_word(0x200, 0x55)
    cpu.pipe.write_tpc(9, cpu.address_of("io"))

    # Wake task 9 once task 0 is holding.
    ran = 0
    while not cpu.halted and ran < 1000:
        cpu.step()
        ran += 1
        if cpu.counters.held_cycles == 2:
            cpu.pipe.set_wakeup(9)
        if cpu.counters.task_instructions[9] == 2:
            cpu.pipe.clear_wakeup(9)
    assert cpu.halted
    # The I/O task ran inside the hold window (possibly twice, since the
    # raw wakeup stayed latched) and traced before task 0's data arrived.
    assert cpu.console.trace[0] == 9
    assert cpu.console.trace[-1] == 0x55
    assert cpu.counters.task_cycles[9] > 0


def test_fastio_holds_while_storage_busy():
    asm = Assembler()
    asm.emit(idle=True)
    asm.label("io")
    asm.emit(r=0, a="RM", fetch="fast", block=False)
    asm.emit(r=0, a="RM", fetch="fast")  # storage busy: holds ~8 cycles
    asm.emit(ff=FF.HALT, idle=True)
    cpu = Processor()
    cpu.load_image(asm.assemble())
    cpu.memory.identity_map(8)

    class Port:
        task = 9
        io_address = 0x99
        register_count = 1
        attention = False
        explicit_notify = False

        def attach(self, machine):
            pass

        def tick(self, machine, granted):
            pass

        def fast_deliver(self, address, words):
            pass

    cpu.attach_device(Port())
    cpu.regs.write_rbase(9, 0)
    cpu.regs.write_rm_absolute(0, 0)
    cpu.boot(cpu.address_of("io"), task=9)
    cpu.run(200)
    assert cpu.halted
    assert cpu.counters.held_cycles >= cpu.config.storage_cycle - 2


def test_nextmacro_holds_until_ifu_ready():
    from repro.emulators.mesa import build_mesa_machine
    from repro.emulators.isa import BytecodeAssembler

    ctx = build_mesa_machine()
    b = BytecodeAssembler(ctx.table)
    b.op("JMP", "target")
    for _ in range(4):
        b.op("NOP")
    b.label("target")
    b.op("HALT")
    ctx.load_program(b.assemble())
    ctx.run(1000)
    assert ctx.halted
    # The taken jump flushed the IFU: the NEXTMACRO held a few cycles.
    assert ctx.cpu.counters.held_cycles >= 2


def test_runaway_hold_is_detected():
    """Using MEMDATA with no fetch ever issued would hold forever; the
    simulator turns that microcoding bug into a crash."""
    import repro.core.processor as procmod

    asm = Assembler()
    asm.emit(a="MD", alu="A", load="T", idle=True)
    old_limit = procmod.HOLD_LIMIT
    procmod.HOLD_LIMIT = 100
    try:
        # The machine takes the module limit when it is built: compiled
        # code folds it in as part of the machine's composition.
        cpu = Processor()
        cpu.load_image(asm.assemble())
        with pytest.raises(MicrocodeCrash, match="held"):
            cpu.run(10_000)
    finally:
        procmod.HOLD_LIMIT = old_limit


def test_clocks_keep_running_during_hold():
    """Pending register writes land even while the successor holds."""
    asm = Assembler()
    asm.register("addr", 1)
    asm.register("x", 2)
    asm.emit(r="addr", b=0x0300, alu="B", load="RM")
    asm.emit(r="addr", a="RM", fetch=True)
    asm.emit(r="x", b=0x11, alu="B", load="RM")   # staged write...
    asm.emit(a="MD", alu="A", load="T")            # ...lands while this holds
    asm.emit(r="x", b="RM", ff=FF.TRACE)
    asm.halt()
    cpu = Processor()
    cpu.load_image(asm.assemble())
    cpu.memory.identity_map(8)
    cpu.run(1000)
    assert cpu.console.trace == [0x11]
