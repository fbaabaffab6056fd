#!/usr/bin/env python
"""The full toolchain: source language -> byte codes -> microcode -> cycles.

Section 3 of the paper: "the Dorado is optimized for the execution of
languages that are compiled into a stream of byte codes."  This example
compiles a small program (a prime sieve) with the mini-Mesa compiler,
runs it on the simulated machine, and prints the per-opcode cost profile
-- the whole stack the paper describes, from source text down to 60 ns
microcycles.
"""

from repro.emulators.compiler import compile_source
from repro.emulators.isa import BytecodeAssembler
from repro.emulators.mesa import build_mesa_machine
from repro.perf.measure import OpcodeProfiler

SOURCE = """
# Count primes below n with a sieve at mem[0x4800...].
proc count_primes(n) {
    var i = 2;
    while i < n { mem[0x4800 + i] = 1; i = i + 1; }
    i = 2;
    while i < n {
        if mem[0x4800 + i] {
            var j = i + i;
            while j < n { mem[0x4800 + j] = 0; j = j + i; }
        }
        i = i + 1;
    }
    var count = 0;
    i = 2;
    while i < n {
        if mem[0x4800 + i] { count = count + 1; }
        i = i + 1;
    }
    return count;
}

proc main() {
    trace(count_primes(200));
}
"""


def main() -> None:
    ctx = build_mesa_machine()
    out = BytecodeAssembler(ctx.table)
    compile_source(SOURCE, out)
    stream = out.assemble()
    print(f"compiled to {len(stream)} byte-code bytes")

    ctx.load_program(stream)
    profiler = OpcodeProfiler(ctx.cpu)
    cycles = ctx.run(10_000_000)
    assert ctx.halted

    print(f"primes below 200: {ctx.cpu.console.trace[0]} (expected 46)")
    dispatches = ctx.cpu.ifu.dispatches
    print(f"{dispatches} byte codes in {cycles} cycles "
          f"({cycles / dispatches:.2f} cycles/byte-code, "
          f"{ctx.cpu.config.seconds(cycles) * 1e3:.2f} ms of machine time)")
    print("\nhottest opcodes:")
    table = sorted(profiler.table().items(),
                   key=lambda kv: kv[1].cycles, reverse=True)
    for name, stats in table[:8]:
        print(f"  {name:7s} x{stats.dispatches:6d}  "
              f"{stats.mean_microinstructions:5.2f} uinst  "
              f"{stats.mean_cycles:5.2f} cycles")
    assert ctx.cpu.console.trace == [46]


if __name__ == "__main__":
    main()
