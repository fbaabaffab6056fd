"""The pipeline tracer."""

from repro import Assembler, FF, Processor
from repro.perf.tracing import PipelineTracer


def traced_machine():
    asm = Assembler()
    asm.register("addr", 1)
    asm.emit(r="addr", b=0x0200, alu="B", load="RM")
    asm.emit(r="addr", a="RM", fetch=True)
    asm.emit(a="MD", alu="A", load="T")  # long hold on the cold miss
    asm.halt()
    cpu = Processor()
    cpu.load_image(asm.assemble())
    cpu.memory.identity_map(8)
    return cpu


def test_records_every_cycle():
    cpu = traced_machine()
    tracer = PipelineTracer(cpu).install()
    cpu.run(1000)
    assert len(tracer.records) == cpu.counters.cycles
    assert tracer.tasks_seen() == [0]


def test_hold_windows_detected():
    cpu = traced_machine()
    tracer = PipelineTracer(cpu).install()
    cpu.run(1000)
    windows = tracer.hold_windows(0)
    assert len(windows) == 1
    start, length = windows[0]
    assert length == cpu.counters.held_cycles
    assert length >= cpu.config.miss_penalty - 3


def test_cycles_and_holds_match_counters():
    cpu = traced_machine()
    tracer = PipelineTracer(cpu).install()
    cpu.run(1000)
    assert tracer.cycles_by_task()[0] == cpu.counters.task_cycles[0]
    assert tracer.holds_by_task()[0] == cpu.counters.task_held[0]


def test_timeline_renders_marks():
    cpu = traced_machine()
    tracer = PipelineTracer(cpu).install()
    cpu.run(1000)
    text = tracer.timeline(width=40, labels={0: "emulator"})
    assert "emulator" in text
    assert "#" in text and "h" in text


def test_bounded_recording():
    cpu = traced_machine()
    tracer = PipelineTracer(cpu, max_records=10).install()
    cpu.run(1000)
    assert len(tracer.records) == 10
    assert tracer.records[-1].cycle == cpu.counters.cycles - 1


def test_hold_windows_survive_task_interleaving():
    """A multiplexed machine must not split a task's hold window.

    Task 0 takes repeated cold-miss holds while a disk read runs; the
    disk task's cycles land *inside* task 0's hold windows (that overlap
    is the point of Hold, E9).  hold_windows(0) must see one window per
    miss, sized by task 0's own held cycles only.
    """
    from repro.io.disk import DISK_TASK, DiskController, DiskGeometry, disk_microcode

    asm = Assembler()
    asm.register("addr", 1)
    asm.emit(r="addr", b=0x0400, alu="B", load="RM")
    asm.emit(count=15)
    asm.label("loop")
    asm.emit(r="addr", a="RM", fetch=True)
    asm.emit(a="MD", alu="A", load="T")  # cold miss: long hold each time
    asm.emit(r="addr", a="RM", b=0x20, alu="ADD", load="RM",
             branch=("COUNT", "loop", "done"))
    asm.label("done")
    asm.emit(idle=True)
    disk_microcode(asm)
    cpu = Processor()
    cpu.load_image(asm.assemble())
    cpu.memory.identity_map(64)
    disk = DiskController(DiskGeometry(sectors=2, words_per_sector=32))
    cpu.attach_device(disk)
    disk.fill_sector(0, list(range(32)))
    tracer = PipelineTracer(cpu).install()
    disk.begin_read(cpu, sector=0, buffer_va=0x2000)
    cpu.run_until(lambda m: disk.done, max_cycles=50_000)

    assert set(tracer.tasks_seen()) == {0, DISK_TASK}
    windows = tracer.hold_windows(0)
    # Every one of task 0's held cycles is inside exactly one window.
    assert sum(length for _, length in windows) == cpu.counters.task_held[0]
    # The test is non-vacuous: at least one window really was interleaved
    # (two consecutive held task-0 cycles with a disk cycle between them).
    disk_cycles = {r.cycle for r in tracer.records if r.task == DISK_TASK}
    held0 = [r.cycle for r in tracer.records if r.task == 0 and r.held]
    assert any(
        b - a > 1 and any(a < c < b for c in disk_cycles)
        for a, b in zip(held0, held0[1:])
    ), "no disk cycle interleaved a hold window; the scenario is too tame"


def test_multitask_timeline():
    from repro.io.disk import DISK_TASK, DiskController, DiskGeometry, disk_microcode

    asm = Assembler()
    asm.emit(idle=True)
    disk_microcode(asm)
    cpu = Processor()
    cpu.load_image(asm.assemble())
    cpu.memory.identity_map(64)
    disk = DiskController(DiskGeometry(sectors=2, words_per_sector=32))
    cpu.attach_device(disk)
    disk.fill_sector(0, list(range(32)))
    tracer = PipelineTracer(cpu).install()
    disk.begin_read(cpu, sector=0, buffer_va=0x2000)
    cpu.run_until(lambda m: disk.done, max_cycles=20_000)
    assert set(tracer.tasks_seen()) == {0, DISK_TASK}
    text = tracer.timeline()
    assert f"task {DISK_TASK}" in text
