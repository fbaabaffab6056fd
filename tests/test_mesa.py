"""The Mesa emulator, opcode by opcode."""

import pytest

from repro import MicrocodeCrash
from repro.emulators.isa import BytecodeAssembler
from repro.emulators.mesa import (
    FRAMES_VA,
    FRAME_SIZE,
    build_mesa_machine,
    field_spec,
    insert_spec,
)


def run_program(build, max_cycles=200_000, setup=None):
    ctx = build_mesa_machine()
    b = BytecodeAssembler(ctx.table)
    build(b)
    ctx.load_program(b.assemble())
    if setup:
        setup(ctx)
    ctx.run(max_cycles)
    assert ctx.halted, "program did not halt"
    return ctx


def local(ctx, n):
    return ctx.memory_word(FRAMES_VA + 2 + n)


def test_lit_and_store():
    ctx = run_program(lambda b: [b.op("LIT", 42), b.op("SL", 0), b.op("HALT")])
    assert local(ctx, 0) == 42


def test_litw_pushes_16_bit():
    ctx = run_program(lambda b: [b.op("LITW", 0xBEEF), b.op("SL", 1), b.op("HALT")])
    assert local(ctx, 1) == 0xBEEF


def test_ll_roundtrip():
    def build(b):
        b.op("LITW", 0x1234); b.op("SL", 3)
        b.op("LL", 3); b.op("SL", 4)
        b.op("HALT")

    ctx = run_program(build)
    assert local(ctx, 4) == 0x1234


@pytest.mark.parametrize(
    "op,a,b,expected",
    [
        ("ADD", 5, 7, 12),
        ("SUB", 9, 3, 6),
        ("SUB", 3, 9, 0xFFFA),
        ("AND", 0xF0F0, 0xFF00, 0xF000),
        ("OR", 0xF0F0, 0x0F00, 0xFFF0),
        ("XOR", 0xFF00, 0x0FF0, 0xF0F0),
    ],
)
def test_binops(op, a, b, expected):
    def build(asm):
        asm.op("LITW", a); asm.op("LITW", b); asm.op(op); asm.op("SL", 0)
        asm.op("HALT")

    assert local(run_program(build), 0) == expected


def test_unary_ops():
    def build(b):
        b.op("LIT", 9); b.op("INC"); b.op("SL", 0)
        b.op("LIT", 5); b.op("NEG"); b.op("SL", 1)
        b.op("LITW", 0x00FF); b.op("NOT"); b.op("SL", 2)
        b.op("HALT")

    ctx = run_program(build)
    assert local(ctx, 0) == 10
    assert local(ctx, 1) == 0xFFFB
    assert local(ctx, 2) == 0xFF00


def test_dup_drop():
    def build(b):
        b.op("LIT", 3); b.op("DUP"); b.op("ADD"); b.op("SL", 0)
        b.op("LIT", 1); b.op("LIT", 2); b.op("DROP"); b.op("SL", 1)
        b.op("HALT")

    ctx = run_program(build)
    assert local(ctx, 0) == 6
    assert local(ctx, 1) == 1


def test_globals():
    from repro.emulators.mesa import GLOBALS_VA

    def build(b):
        b.op("LG", 5); b.op("SL", 0)
        b.op("LIT", 77); b.op("SG", 6)
        b.op("HALT")

    def setup(ctx):
        ctx.set_memory_word(GLOBALS_VA + 5, 0x5150)

    ctx = run_program(build, setup=setup)
    assert local(ctx, 0) == 0x5150
    assert ctx.memory_word(GLOBALS_VA + 6) == 77


@pytest.mark.parametrize("value,taken", [(0, True), (1, False)])
def test_jz(value, taken):
    def build(b):
        b.op("LIT", value); b.op("JZ", "yes")
        b.op("LIT", 0); b.op("SL", 0); b.op("HALT")
        b.label("yes")
        b.op("LIT", 1); b.op("SL", 0); b.op("HALT")

    assert local(run_program(build), 0) == (1 if taken else 0)


def test_jneg():
    def build(b):
        b.op("LIT", 3); b.op("LIT", 5); b.op("SUB"); b.op("JNEG", "neg")
        b.op("LIT", 0); b.op("SL", 0); b.op("HALT")
        b.label("neg")
        b.op("LIT", 1); b.op("SL", 0); b.op("HALT")

    assert local(run_program(build), 0) == 1


def test_field_read_write():
    record = 0x3200

    def build(b):
        b.op("SETF", field_spec(5, 4))
        b.op("LITW", record); b.op("RF", 0); b.op("SL", 0)
        b.op("LIT", 0x9)
        b.op("SETF", insert_spec(10, 4))
        b.op("LITW", record)
        b.op("WF", 1)
        b.op("HALT")

    def setup(ctx):
        ctx.set_memory_word(record, 0b0110_1010_1110_0001)
        ctx.set_memory_word(record + 1, 0x0000)

    ctx = run_program(build, setup=setup)
    assert local(ctx, 0) == (0b0110_1010_1110_0001 >> 5) & 0xF
    assert ctx.memory_word(record + 1) == 0x9 << 10


def test_field_write_preserves_other_bits():
    record = 0x3300

    def build(b):
        b.op("LIT", 0x3)
        b.op("SETF", insert_spec(4, 2))
        b.op("LITW", record)
        b.op("WF", 0)
        b.op("HALT")

    def setup(ctx):
        ctx.set_memory_word(record, 0xFFFF)

    ctx = run_program(build, setup=setup)
    assert ctx.memory_word(record) == 0xFFFF  # wrote 0b11 into a field of ones


def test_array_load_store():
    base = 0x3400

    def build(b):
        b.op("LITW", base); b.op("LIT", 3); b.op("AL"); b.op("SL", 0)
        b.op("LITW", base); b.op("LIT", 7); b.op("LITW", 0x1234); b.op("AS")
        b.op("HALT")

    def setup(ctx):
        ctx.set_memory_word(base + 3, 0xABCD)

    ctx = run_program(build, setup=setup)
    assert local(ctx, 0) == 0xABCD
    assert ctx.memory_word(base + 7) == 0x1234


def test_call_passes_args_through_enter():
    def build(b):
        b.op("LIT", 11); b.op("LIT", 22); b.op("FC", "f"); b.op("SL", 0)
        b.op("HALT")
        b.label("f")
        b.op("ENTER", 2)          # locals[0]=11, locals[1]=22
        b.op("LL", 0); b.op("LL", 1); b.op("SUB"); b.op("RET")

    assert local(run_program(build), 0) == (11 - 22) & 0xFFFF


def test_nested_calls_restore_frames():
    def build(b):
        b.op("LITW", 100); b.op("SL", 0)
        b.op("FC", "outer"); b.op("SL", 1)
        b.op("LL", 0); b.op("SL", 2)   # local 0 must be intact
        b.op("HALT")
        b.label("outer")
        b.op("ENTER0")
        b.op("LIT", 5); b.op("FC", "inner"); b.op("RET")
        b.label("inner")
        b.op("ENTER", 1)
        b.op("LL", 0); b.op("INC"); b.op("RET")

    ctx = run_program(build)
    assert local(ctx, 1) == 6
    assert local(ctx, 2) == 100


def test_recursion_depth():
    def build(b):
        b.op("LITW", 30); b.op("FC", "down"); b.op("SL", 0); b.op("HALT")
        b.label("down")
        b.op("ENTER", 1)
        b.op("LL", 0); b.op("JZ", "base")
        b.op("LL", 0); b.op("LIT", 1); b.op("SUB"); b.op("FC", "down")
        b.op("INC"); b.op("RET")
        b.label("base")
        b.op("LIT", 0); b.op("RET")

    assert local(run_program(build), 0) == 30


def test_frame_overflow_traps():
    def build(b):
        b.label("forever")
        b.op("FC", "forever")  # infinite recursion, no returns

    ctx = build_mesa_machine()
    b = BytecodeAssembler(ctx.table)
    build(b)
    ctx.load_program(b.assemble())
    with pytest.raises(MicrocodeCrash, match="breakpoint"):
        ctx.run(200_000)


def test_fib_reference():
    def build(b):
        b.op("LITW", 14); b.op("FC", "fib"); b.op("SL", 0); b.op("HALT")
        b.label("fib")
        b.op("ENTER", 1)
        b.op("LL", 0); b.op("LIT", 2); b.op("SUB"); b.op("JNEG", "base")
        b.op("LL", 0); b.op("LIT", 1); b.op("SUB"); b.op("FC", "fib"); b.op("SL", 1)
        b.op("LL", 0); b.op("LIT", 2); b.op("SUB"); b.op("FC", "fib")
        b.op("LL", 1); b.op("ADD"); b.op("RET")
        b.label("base")
        b.op("LL", 0); b.op("RET")

    assert local(run_program(build, max_cycles=1_000_000), 0) == 377


def test_microinstruction_budget_for_loads():
    """E1 in miniature: LL is 2 microinstructions, SL is 1."""
    from repro.perf.measure import OpcodeProfiler

    ctx = build_mesa_machine()
    b = BytecodeAssembler(ctx.table)
    for _ in range(20):
        b.op("LL", 0)
        b.op("SL", 1)
    b.op("HALT")
    ctx.load_program(b.assemble())
    prof = OpcodeProfiler(ctx.cpu)
    ctx.run(100_000)
    assert prof.mean("LL").mean_microinstructions == pytest.approx(2.0)
    assert prof.mean("SL").mean_microinstructions == pytest.approx(1.0)


# --- hardware multiply/divide and shifter opcodes (extensions) -------------

@pytest.mark.parametrize("a,b", [(123, 45), (0, 99), (255, 255), (1000, 65)])
def test_mul_uses_hardware_steps(a, b):
    def build(bb):
        bb.op("LITW", a); bb.op("LITW", b); bb.op("MUL"); bb.op("SL", 0)
        bb.op("HALT")

    assert local(run_program(build), 0) == (a * b) & 0xFFFF


@pytest.mark.parametrize("a,b", [(1000, 7), (65535, 255), (5, 9), (100, 1)])
def test_div_and_mod(a, b):
    def build(bb):
        bb.op("LITW", a); bb.op("LITW", b); bb.op("DIV"); bb.op("SL", 0)
        bb.op("LITW", a); bb.op("LITW", b); bb.op("MOD"); bb.op("SL", 1)
        bb.op("HALT")

    ctx = run_program(build)
    assert local(ctx, 0) == a // b
    assert local(ctx, 1) == a % b


@pytest.mark.parametrize(
    "op,a,b,expected",
    [("LT", 3, 5, 1), ("LT", 5, 3, 0), ("LT", 4, 4, 0),
     ("EQ", 4, 4, 1), ("EQ", 4, 5, 0)],
)
def test_comparisons(op, a, b, expected):
    def build(bb):
        bb.op("LITW", a); bb.op("LITW", b); bb.op(op); bb.op("SL", 0)
        bb.op("HALT")

    assert local(run_program(build), 0) == expected


def test_shift_opcodes():
    from repro.emulators.mesa import rot_spec, shl_spec, shr_spec

    def build(bb):
        bb.op("SETF", shl_spec(3)); bb.op("LITW", 0x00FF); bb.op("SHIFT"); bb.op("SL", 0)
        bb.op("SETF", shr_spec(3)); bb.op("LITW", 0x00FF); bb.op("SHIFT"); bb.op("SL", 1)
        bb.op("SETF", rot_spec(8)); bb.op("LITW", 0x12AB); bb.op("SHIFT"); bb.op("SL", 2)
        bb.op("HALT")

    ctx = run_program(build)
    assert local(ctx, 0) == (0x00FF << 3) & 0xFFFF
    assert local(ctx, 1) == 0x00FF >> 3
    assert local(ctx, 2) == 0xAB12


def test_bubble_sort_program():
    """A composite kernel: arrays, comparisons, nested loops."""
    from repro.perf.workloads import mesa_bubble_sort

    workload = mesa_bubble_sort(12, seed=5)
    workload.run(3_000_000)
