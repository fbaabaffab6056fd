"""The Lisp emulator: tagged items, runtime checks, binding discipline."""

import pytest

from repro import MicrocodeCrash
from repro.emulators.isa import BytecodeAssembler
from repro.emulators.lisp import (
    TAG_INT,
    TAG_NIL,
    TAG_PAIR,
    build_lisp_machine,
    build_list,
    define_function,
    set_symbol_value,
    stack_top,
    symbol_operand,
    symbol_value,
)


def run_program(build, setup=None, max_cycles=500_000):
    ctx = build_lisp_machine()
    b = BytecodeAssembler(ctx.table)
    build(b)
    ctx.load_program(b.assemble())
    if setup:
        setup(ctx)
    ctx.run(max_cycles)
    assert ctx.halted
    return ctx


def test_push_literal_is_two_words():
    ctx = run_program(lambda b: [b.op("LIN", 42), b.op("HALTL")])
    assert stack_top(ctx) == (TAG_INT, 42)


def test_push_nil():
    ctx = run_program(lambda b: [b.op("NILP"), b.op("HALTL")])
    assert stack_top(ctx) == (TAG_NIL, 0)


def test_symbol_load_store():
    def build(b):
        b.op("LIN", 7); b.op("SLV", symbol_operand(2))
        b.op("LLV", symbol_operand(2)); b.op("SLV", symbol_operand(3))
        b.op("HALTL")

    ctx = run_program(build)
    assert symbol_value(ctx.cpu, 2) == (TAG_INT, 7)
    assert symbol_value(ctx.cpu, 3) == (TAG_INT, 7)


def test_addition_with_checks():
    def build(b):
        b.op("LIN", 30); b.op("LIN", 12); b.op("ADDL"); b.op("SLV", 0)
        b.op("HALTL")

    assert symbol_value(run_program(build).cpu, 0) == (TAG_INT, 42)


def test_subtraction_order():
    def build(b):
        b.op("LIN", 50); b.op("LIN", 8); b.op("SUBL"); b.op("SLV", 0)
        b.op("HALTL")

    assert symbol_value(run_program(build).cpu, 0) == (TAG_INT, 42)


def test_add_traps_on_non_integer():
    def build(b):
        b.op("NILP"); b.op("LIN", 1); b.op("ADDL"); b.op("HALTL")

    ctx = build_lisp_machine()
    b = BytecodeAssembler(ctx.table)
    build(b)
    ctx.load_program(b.assemble())
    with pytest.raises(MicrocodeCrash):
        ctx.run(10_000)


def test_car_cdr_walk():
    def build(b):
        b.op("LLV", symbol_operand(0)); b.op("CAR"); b.op("SLV", symbol_operand(1))
        b.op("LLV", symbol_operand(0)); b.op("CDR"); b.op("CAR")
        b.op("SLV", symbol_operand(2))
        b.op("HALTL")

    def setup(ctx):
        head = build_list(ctx, [10, 20, 30])
        set_symbol_value(ctx, 0, TAG_PAIR, head)

    ctx = run_program(build, setup=setup)
    assert symbol_value(ctx.cpu, 1) == (TAG_INT, 10)
    assert symbol_value(ctx.cpu, 2) == (TAG_INT, 20)


def test_car_of_int_traps():
    ctx = build_lisp_machine()
    b = BytecodeAssembler(ctx.table)
    b.op("LIN", 5); b.op("CAR"); b.op("HALTL")
    ctx.load_program(b.assemble())
    with pytest.raises(MicrocodeCrash):
        ctx.run(10_000)


def test_cons_builds_cells():
    def build(b):
        b.op("LIN", 1); b.op("NILP"); b.op("CONS")
        b.op("SLV", symbol_operand(0))
        b.op("LLV", symbol_operand(0)); b.op("CAR"); b.op("SLV", symbol_operand(1))
        b.op("LLV", symbol_operand(0)); b.op("CDR"); b.op("SLV", symbol_operand(2))
        b.op("HALTL")

    ctx = run_program(build)
    tag, _ = symbol_value(ctx.cpu, 0)
    assert tag == TAG_PAIR
    assert symbol_value(ctx.cpu, 1) == (TAG_INT, 1)
    assert symbol_value(ctx.cpu, 2) == (TAG_NIL, 0)


def test_jnil_taken_and_not():
    def build(b):
        b.op("NILP"); b.op("JNIL", "was_nil")
        b.op("LIN", 0); b.op("SLV", 0); b.op("HALTL")
        b.label("was_nil")
        b.op("LIN", 5); b.op("JNIL", "bad")   # an int is not nil
        b.op("LIN", 1); b.op("SLV", 0); b.op("HALTL")
        b.label("bad")
        b.op("LIN", 9); b.op("SLV", 0); b.op("HALTL")

    assert symbol_value(run_program(build).cpu, 0) == (TAG_INT, 1)


def test_call_binds_and_restores():
    sx, sy = symbol_operand(2), symbol_operand(3)

    def build(b):
        b.op("LIN", 8); b.op("LIN", 9)
        b.op("CALLL", symbol_operand(4))
        b.op("SLV", 0)
        b.op("HALTL")
        b.label("fn")
        b.op("BIND", sy); b.op("BIND", sx)
        b.op("LLV", sx); b.op("LLV", sy); b.op("ADDL")
        b.op("RETL")

    def setup(ctx):
        # define_function needs the label's byte address; re-derive it.
        b2 = BytecodeAssembler(ctx.table)
        build(b2)
        define_function(ctx, 4, b2.address_of("fn"))
        set_symbol_value(ctx, 2, TAG_INT, 1111)
        set_symbol_value(ctx, 3, TAG_INT, 2222)

    ctx = run_program(build, setup=setup)
    assert symbol_value(ctx.cpu, 0) == (TAG_INT, 17)
    assert symbol_value(ctx.cpu, 2) == (TAG_INT, 1111)  # deep-bound values restored
    assert symbol_value(ctx.cpu, 3) == (TAG_INT, 2222)


def test_nested_calls_rebind():
    sn = symbol_operand(2)

    def build(b):
        b.op("LIN", 3)
        b.op("CALLL", symbol_operand(4))
        b.op("SLV", 0)
        b.op("HALTL")
        # fn(n): if n == 0 return 0 else return fn(n-1) + n
        b.label("fn")
        b.op("BIND", sn)
        b.op("LLV", sn); b.op("JZL", "base")
        b.op("LLV", sn); b.op("LIN", 1); b.op("SUBL")
        b.op("CALLL", symbol_operand(4))
        b.op("LLV", sn); b.op("ADDL")
        b.op("RETL")
        b.label("base")
        b.op("LIN", 0)
        b.op("RETL")

    def setup(ctx):
        b2 = BytecodeAssembler(ctx.table)
        build(b2)
        define_function(ctx, 4, b2.address_of("fn"))
        set_symbol_value(ctx, 2, TAG_INT, 0xDEAD)

    ctx = run_program(build, setup=setup)
    assert symbol_value(ctx.cpu, 0) == (TAG_INT, 6)       # 3+2+1
    assert symbol_value(ctx.cpu, 2) == (TAG_INT, 0xDEAD)  # fully unwound


def test_call_of_non_function_traps():
    ctx = build_lisp_machine()
    b = BytecodeAssembler(ctx.table)
    b.op("CALLL", symbol_operand(5)); b.op("HALTL")
    ctx.load_program(b.assemble())
    # Symbol 5's function cell is zeroed: tag != CODE.
    with pytest.raises(MicrocodeCrash):
        ctx.run(10_000)


def test_lisp_costs_dwarf_mesa():
    """Section 7's qualitative claim: Lisp's 32-bit items and checks make
    everything several times more expensive than Mesa."""
    from repro.perf.measure import OpcodeProfiler

    ctx = build_lisp_machine()
    b = BytecodeAssembler(ctx.table)
    for _ in range(10):
        b.op("LLV", symbol_operand(1))
        b.op("SLV", symbol_operand(1))
    b.op("HALTL")
    ctx.load_program(b.assemble())
    set_symbol_value(ctx, 1, TAG_INT, 5)
    prof = OpcodeProfiler(ctx.cpu)
    ctx.run(100_000)
    assert prof.mean("LLV").mean_microinstructions >= 5
    assert prof.mean("SLV").mean_microinstructions >= 5


# --- destructive list surgery and predicates (extensions) -------------------

def test_rplaca_mutates_cell():
    def build(b):
        b.op("LLV", symbol_operand(0))   # the pair
        b.op("LIN", 99)                   # new car
        b.op("RPLACA")
        b.op("SLV", symbol_operand(1))    # the pair comes back
        b.op("LLV", symbol_operand(1)); b.op("CAR"); b.op("SLV", symbol_operand(2))
        b.op("HALTL")

    def setup(ctx):
        head = build_list(ctx, [1, 2])
        set_symbol_value(ctx, 0, TAG_PAIR, head)

    ctx = run_program(build, setup=setup)
    assert symbol_value(ctx.cpu, 2) == (TAG_INT, 99)
    tag, _ = symbol_value(ctx.cpu, 1)
    assert tag == TAG_PAIR


def test_rplacd_relinks_list():
    def build(b):
        b.op("LLV", symbol_operand(0))
        b.op("NILP")
        b.op("RPLACD")                    # truncate after the first cell
        b.op("SLV", symbol_operand(1))
        b.op("LLV", symbol_operand(1)); b.op("CDR"); b.op("SLV", symbol_operand(2))
        b.op("HALTL")

    def setup(ctx):
        head = build_list(ctx, [7, 8, 9])
        set_symbol_value(ctx, 0, TAG_PAIR, head)

    ctx = run_program(build, setup=setup)
    assert symbol_value(ctx.cpu, 2) == (TAG_NIL, 0)


def test_rplaca_on_non_pair_traps():
    ctx = build_lisp_machine()
    b = BytecodeAssembler(ctx.table)
    b.op("LIN", 5); b.op("LIN", 6); b.op("RPLACA"); b.op("HALTL")
    ctx.load_program(b.assemble())
    with pytest.raises(MicrocodeCrash):
        ctx.run(10_000)


def test_atom_predicate():
    def build(b):
        b.op("LIN", 5); b.op("ATOM"); b.op("SLV", symbol_operand(1))
        b.op("LLV", symbol_operand(0)); b.op("ATOM"); b.op("SLV", symbol_operand(2))
        b.op("NILP"); b.op("ATOM"); b.op("SLV", symbol_operand(3))
        b.op("HALTL")

    def setup(ctx):
        head = build_list(ctx, [1])
        set_symbol_value(ctx, 0, TAG_PAIR, head)

    ctx = run_program(build, setup=setup)
    assert symbol_value(ctx.cpu, 1) == (TAG_INT, 1)   # integers are atoms
    assert symbol_value(ctx.cpu, 2) == (TAG_INT, 0)   # pairs are not
    assert symbol_value(ctx.cpu, 3) == (TAG_INT, 1)   # NIL is an atom
