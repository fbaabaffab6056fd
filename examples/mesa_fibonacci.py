#!/usr/bin/env python
"""Byte-code emulation: recursive Fibonacci on the Mesa emulator.

The paper's headline workload class: Mesa byte codes fetched and decoded
by the IFU, executed by task-0 microcode, with function calls through
FC/ENTER/RET frames.  The per-opcode profile printed at the end is the
paper's Table-1-style data (section 7): loads cost 1-2
microinstructions, calls cost tens.
"""

from repro.emulators.isa import BytecodeAssembler
from repro.emulators.mesa import FRAMES_VA, build_mesa_machine
from repro.perf.measure import OpcodeProfiler

N = 14


def main() -> None:
    ctx = build_mesa_machine()
    b = BytecodeAssembler(ctx.table)

    # main: push N, call fib, store the result in local 0, halt.
    b.op("LITW", N); b.op("FC", "fib"); b.op("SL", 0); b.op("HALT")

    # fib(n): if n < 2 return n else fib(n-1) + fib(n-2)
    b.label("fib")
    b.op("ENTER", 1)
    b.op("LL", 0); b.op("LIT", 2); b.op("SUB"); b.op("JNEG", "base")
    b.op("LL", 0); b.op("LIT", 1); b.op("SUB"); b.op("FC", "fib"); b.op("SL", 1)
    b.op("LL", 0); b.op("LIT", 2); b.op("SUB"); b.op("FC", "fib")
    b.op("LL", 1); b.op("ADD"); b.op("RET")
    b.label("base")
    b.op("LL", 0); b.op("RET")

    ctx.load_program(b.assemble())
    profiler = OpcodeProfiler(ctx.cpu)
    cycles = ctx.run(5_000_000)

    result = ctx.memory_word(FRAMES_VA + 2)
    dispatches = ctx.cpu.ifu.dispatches
    print(f"fib({N}) = {result}")
    print(f"{dispatches} byte codes in {cycles} microcycles "
          f"({cycles / dispatches:.2f} cycles/byte-code, "
          f"{ctx.cpu.config.seconds(cycles) * 1e3:.2f} ms of machine time)")
    print()
    print("per-opcode cost (microinstructions / cycles, mean):")
    for name, stats in sorted(profiler.table().items()):
        print(f"  {name:6s} x{stats.dispatches:5d}  "
              f"{stats.mean_microinstructions:6.2f} uinst  "
              f"{stats.mean_cycles:6.2f} cycles")
    assert result == 377


if __name__ == "__main__":
    main()
