#!/usr/bin/env python
"""The Lisp emulator: 32-bit tagged items, CONS cells, deep-bound calls.

Builds a list with CONS, maps a function over it (calls with BIND and
RETL unwinding), and shows why the paper reports Lisp operations at
5-20 microinstructions and calls around 200 where Mesa needs 1-2 and
~50 -- every item is two words, the stack lives in memory, and every
primitive checks tags at run time.
"""

from repro.emulators.isa import BytecodeAssembler
from repro.emulators.lisp import (
    TAG_INT,
    build_lisp_machine,
    define_function,
    set_symbol_value,
    symbol_operand,
    symbol_value,
)
from repro.perf.measure import OpcodeProfiler

# Symbols: 0 = list, 1 = total, 2 = x (the lambda variable), 3 = double (fn)
S_LIST, S_TOTAL, S_X = (symbol_operand(i) for i in range(3))
FN_DOUBLE = 3


def main() -> None:
    ctx = build_lisp_machine()
    b = BytecodeAssembler(ctx.table)

    # Build the list (5 4 3 2 1) with CONS.
    b.op("NILP"); b.op("SLV", S_LIST)
    b.op("LIN", 5); b.op("SLV", symbol_operand(4))  # counter in symbol 4
    b.label("build")
    b.op("LLV", symbol_operand(4)); b.op("LLV", S_LIST); b.op("CONS")
    b.op("SLV", S_LIST)
    b.op("LLV", symbol_operand(4)); b.op("LIN", 1); b.op("SUBL")
    b.op("SLV", symbol_operand(4))
    b.op("LLV", symbol_operand(4)); b.op("JZL", "sum")
    b.op("JMPL", "build")

    # total = sum of (double x) over the list.
    b.label("sum")
    b.op("LIN", 0); b.op("SLV", S_TOTAL)
    b.label("loop")
    b.op("LLV", S_LIST); b.op("JNIL", "done")
    b.op("LLV", S_LIST); b.op("CAR")
    b.op("CALLL", symbol_operand(FN_DOUBLE))      # (double (car list))
    b.op("LLV", S_TOTAL); b.op("ADDL"); b.op("SLV", S_TOTAL)
    b.op("LLV", S_LIST); b.op("CDR"); b.op("SLV", S_LIST)
    b.op("JMPL", "loop")
    b.label("done")
    b.op("HALTL")

    # (defun double (x) (+ x x))
    b.label("double")
    b.op("BIND", S_X)
    b.op("LLV", S_X); b.op("LLV", S_X); b.op("ADDL")
    b.op("RETL")

    ctx.load_program(b.assemble())
    define_function(ctx, FN_DOUBLE, b.address_of("double"))
    set_symbol_value(ctx, 2, TAG_INT, 0)

    profiler = OpcodeProfiler(ctx.cpu)
    cycles = ctx.run(5_000_000)
    tag, total = symbol_value(ctx.cpu, 1)
    print(f"(reduce + (mapcar double '(5 4 3 2 1))) = {total}  [tag {tag}]")
    print(f"{cycles} microcycles, "
          f"{cycles / ctx.cpu.ifu.dispatches:.1f} cycles per byte code")
    print()
    print("the 32-bit-items tax, per opcode class (mean microinstructions):")
    for name in ("LLV", "SLV", "CAR", "CDR", "CONS", "ADDL", "CALLL", "BIND", "RETL"):
        stats = profiler.mean(name)
        if stats.dispatches:
            print(f"  {name:6s} {stats.mean_microinstructions:6.1f}")
    assert (tag, total) == (TAG_INT, 2 * (5 + 4 + 3 + 2 + 1))


if __name__ == "__main__":
    main()
