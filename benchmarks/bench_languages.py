"""Cross-language comparison: the same algorithm on all four emulators.

Section 7's emulator discussion boils down to: the same source-level
computation costs wildly different amounts depending on the language's
run-time model.  Here fib(11) runs as (a) a compiled mini-Mesa program,
(b) a compiled mini-Interlisp program, (c) hand-assembled BCPL, and the
counter workload runs as Smalltalk sends -- the full cost spectrum, on
identical hardware, measured in 60 ns microcycles.
"""

import pytest

from repro.emulators.bcpl import build_bcpl_machine, static_value
from repro.emulators.compiler import run_source
from repro.emulators.isa import BytecodeAssembler
from repro.emulators.lispc import run_lisp

FIB_N = 11
FIB_EXPECTED = 89

MESA_FIB = f"""
proc fib(n) {{
    if n < 2 {{ return n; }}
    return fib(n - 1) + fib(n - 2);
}}
proc main() {{ trace(fib({FIB_N})); }}
"""

LISP_FIB = f"""
(defun fib (n)
  (if (zerop n) 0
      (if (zerop (- n 1)) 1
          (+ (fib (- n 1)) (fib (- n 2))))))
(trace (fib {FIB_N}))
"""


def bcpl_fib_iterative():
    """BCPL gets the iterative version: its accumulator model has no
    cheap recursion (exactly why PARC moved on from it)."""
    ctx = build_bcpl_machine()
    b = BytecodeAssembler(ctx.table)
    # statics: 0=a, 1=b, 2=i, 3=t
    b.op("LDI", 0); b.op("STA", 0)
    b.op("LDI", 1); b.op("STA", 1)
    b.op("LDI", FIB_N); b.op("STA", 2)
    b.label("loop")
    b.op("LDA", 0); b.op("ADDA", 1); b.op("STA", 3)
    b.op("LDA", 1); b.op("STA", 0)
    b.op("LDA", 3); b.op("STA", 1)
    b.op("LDA", 2); b.op("DECA"); b.op("STA", 2)
    b.op("JNZA", "loop")
    b.op("HALTA")
    ctx.load_program(b.assemble())
    return ctx


def test_mesa_fib(benchmark):
    def run():
        ctx = run_source(MESA_FIB)
        assert ctx.cpu.console.trace == [FIB_EXPECTED]
        return ctx.cpu.counters.cycles

    cycles = benchmark(run)
    print(f"\nMesa fib({FIB_N}): {cycles} cycles")


def test_lisp_fib(benchmark):
    def run():
        ctx = run_lisp(LISP_FIB)
        assert ctx.cpu.console.trace == [FIB_EXPECTED]
        return ctx.cpu.counters.cycles

    cycles = benchmark(run)
    print(f"\nLisp fib({FIB_N}): {cycles} cycles")


def test_bcpl_fib(benchmark):
    def run():
        ctx = bcpl_fib_iterative()
        ctx.run(1_000_000)
        assert static_value(ctx.cpu, 0) == FIB_EXPECTED
        return ctx.cpu.counters.cycles

    cycles = benchmark(run)
    print(f"\nBCPL fib({FIB_N}) (iterative): {cycles} cycles")


def test_language_cost_spectrum():
    """The architectural claim: identical computation, Lisp several
    times dearer than Mesa (paper: ~4x on calls, 2.5-5x overall)."""
    mesa = run_source(MESA_FIB).cpu.counters.cycles
    lisp = run_lisp(LISP_FIB).cpu.counters.cycles
    ratio = lisp / mesa
    print(f"\nfib({FIB_N}): Mesa {mesa} cycles, Lisp {lisp} cycles "
          f"-> {ratio:.1f}x")
    assert 2.0 <= ratio <= 8.0


SMALLTALK_COUNTER = """
class Counter [
    | count |
    bump: n  [ count := count + n. ^self ]
    value: _ [ ^count ]
]
main [
    c := new Counter.
    i := 20.
    "twenty sends"
    c bump: 1. c bump: 1. c bump: 1. c bump: 1. c bump: 1.
    c bump: 1. c bump: 1. c bump: 1. c bump: 1. c bump: 1.
    c bump: 1. c bump: 1. c bump: 1. c bump: 1. c bump: 1.
    c bump: 1. c bump: 1. c bump: 1. c bump: 1. c bump: 1.
    trace: (c value: 0).
]
"""


def test_smalltalk_sends(benchmark):
    from repro.emulators.stc import run_smalltalk

    def run():
        ctx, _ = run_smalltalk(SMALLTALK_COUNTER)
        assert ctx.cpu.console.trace == [20]
        return ctx.cpu.counters.cycles

    cycles = benchmark(run)
    print(f"\nSmalltalk: 21 sends in {cycles} cycles "
          f"({cycles / 21:.0f} cycles/send incl. dispatch)")
