"""The BCPL and Smalltalk emulators."""

import pytest

from repro import MicrocodeCrash
from repro.emulators.bcpl import build_bcpl_machine, set_static, static_value
from repro.emulators.isa import BytecodeAssembler
from repro.emulators.smalltalk import (
    ObjectMemory,
    build_smalltalk_machine,
    ivar_operand,
)


# --- BCPL -------------------------------------------------------------------

def run_bcpl(build, setup=None, max_cycles=100_000):
    ctx = build_bcpl_machine()
    b = BytecodeAssembler(ctx.table)
    build(b)
    ctx.load_program(b.assemble())
    if setup:
        setup(ctx)
    ctx.run(max_cycles)
    assert ctx.halted
    return ctx


def test_bcpl_load_store():
    def build(b):
        b.op("LDI", 0x1234); b.op("STA", 0)
        b.op("LDA", 0); b.op("STA", 1)
        b.op("HALTA")

    ctx = run_bcpl(build)
    assert static_value(ctx.cpu, 0) == 0x1234
    assert static_value(ctx.cpu, 1) == 0x1234


def test_bcpl_arithmetic():
    def build(b):
        b.op("LDI", 10); b.op("ADDA", 5); b.op("STA", 0)
        b.op("LDA", 0); b.op("SUBA", 6); b.op("STA", 1)
        b.op("LDA", 1); b.op("INCA"); b.op("DECA"); b.op("DECA"); b.op("STA", 2)
        b.op("HALTA")

    def setup(ctx):
        set_static(ctx, 5, 32)
        set_static(ctx, 6, 2)

    ctx = run_bcpl(build, setup=setup)
    assert static_value(ctx.cpu, 0) == 42
    assert static_value(ctx.cpu, 1) == 40
    assert static_value(ctx.cpu, 2) == 39


def test_bcpl_conditional_jumps():
    def build(b):
        b.op("LDI", 2); b.op("STA", 0)
        b.label("loop")
        b.op("LDA", 0); b.op("DECA"); b.op("STA", 0)
        b.op("JNZA", "loop")
        b.op("LDI", 0xAA); b.op("STA", 1)
        b.op("HALTA")

    assert static_value(run_bcpl(build).cpu, 1) == 0xAA


def test_bcpl_call_return():
    def build(b):
        b.op("LDI", 5)
        b.op("CALLA", "addone")
        b.op("STA", 0)
        b.op("HALTA")
        b.label("addone")
        b.op("INCA")
        b.op("RETA")

    assert static_value(run_bcpl(build).cpu, 0) == 6


def test_bcpl_nested_calls():
    def build(b):
        b.op("LDI", 1)
        b.op("CALLA", "f")
        b.op("STA", 0)
        b.op("HALTA")
        b.label("f")
        b.op("CALLA", "g")
        b.op("INCA")
        b.op("RETA")
        b.label("g")
        b.op("INCA")
        b.op("RETA")

    assert static_value(run_bcpl(build).cpu, 0) == 3


# --- Smalltalk -----------------------------------------------------------------

SEL_GET = 3
SEL_ADD = 7


def smalltalk_counter_machine(sends):
    ctx = build_smalltalk_machine()
    om = ObjectMemory(ctx)
    cls = om.make_class({SEL_GET: 0, SEL_ADD: 0})
    counter = om.make_instance(cls, [100])
    b = BytecodeAssembler(ctx.table)
    b.op("PUSHC", sends)
    b.label("loop")
    b.op("DUPS"); b.op("JZS", "end")
    b.op("PUSHC", counter); b.op("PUSHC", 3); b.op("SEND1", SEL_ADD); b.op("DROPS")
    b.op("PUSHC", 1); b.op("SUBS")
    b.op("JMPS", "loop")
    b.label("end")
    b.op("HALTS")
    b.label("madd")
    b.op("PUSHA")
    b.op("PUSHIV", ivar_operand(0)); b.op("ADDS"); b.op("STIV", ivar_operand(0))
    b.op("PUSHR"); b.op("RETS")
    ctx.load_program(b.assemble())
    om.set_method(cls, SEL_ADD, b.address_of("madd"))
    return ctx, om, counter


def test_send_dispatches_through_dictionary():
    ctx, om, counter = smalltalk_counter_machine(sends=4)
    ctx.run(100_000)
    assert ctx.halted
    assert om.ivar(ctx.cpu, counter, 0) == 100 + 4 * 3


def test_send_returns_receiver():
    ctx = build_smalltalk_machine()
    om = ObjectMemory(ctx)
    cls = om.make_class({SEL_GET: 0})
    obj = om.make_instance(cls, [7])
    b = BytecodeAssembler(ctx.table)
    b.op("PUSHC", obj); b.op("PUSHC", 0); b.op("SEND1", SEL_GET)
    b.op("HALTS")
    b.label("mget")
    b.op("PUSHIV", ivar_operand(0))  # the argument stays in the frame
    b.op("RETS")
    ctx.load_program(b.assemble())
    om.set_method(cls, SEL_GET, b.address_of("mget"))
    ctx.run(100_000)
    assert ctx.halted
    assert ctx.cpu.stack.read_top() == 7  # result left on the eval stack


def test_message_not_understood_traps():
    ctx = build_smalltalk_machine()
    om = ObjectMemory(ctx)
    cls = om.make_class({SEL_GET: 0})
    obj = om.make_instance(cls, [0])
    b = BytecodeAssembler(ctx.table)
    b.op("PUSHC", obj); b.op("PUSHC", 0); b.op("SEND1", 99)
    b.op("HALTS")
    ctx.load_program(b.assemble())
    with pytest.raises(MicrocodeCrash):
        ctx.run(10_000)


def test_send_cost_scales_with_probe_depth():
    """Dictionary scan: later selectors cost more microinstructions."""
    from repro.perf.measure import OpcodeProfiler

    costs = {}
    for position in (0, 3):
        ctx = build_smalltalk_machine()
        om = ObjectMemory(ctx)
        selectors = {i + 20: 0 for i in range(position)}
        selectors[SEL_ADD] = 0
        cls = om.make_class(selectors)
        obj = om.make_instance(cls, [0])
        b = BytecodeAssembler(ctx.table)
        b.op("PUSHC", obj); b.op("PUSHC", 1); b.op("SEND1", SEL_ADD)
        b.op("HALTS")
        b.label("m")
        b.op("PUSHR"); b.op("RETS")
        ctx.load_program(b.assemble())
        om.set_method(cls, SEL_ADD, b.address_of("m"))
        prof = OpcodeProfiler(ctx.cpu)
        ctx.run(100_000)
        costs[position] = prof.mean("SEND1").mean_microinstructions
    assert costs[3] > costs[0]


def test_inherited_method_found_in_superclass():
    """A subclass without the selector dispatches to its parent's method."""
    ctx = build_smalltalk_machine()
    om = ObjectMemory(ctx)
    parent = om.make_class({SEL_ADD: 0})
    child = om.make_class({SEL_GET: 0}, superclass=parent)
    obj = om.make_instance(child, [5])
    b = BytecodeAssembler(ctx.table)
    b.op("PUSHC", obj); b.op("PUSHC", 7); b.op("SEND1", SEL_ADD)
    b.op("HALTS")
    b.label("madd")
    b.op("PUSHA")
    b.op("PUSHIV", ivar_operand(0)); b.op("ADDS"); b.op("STIV", ivar_operand(0))
    b.op("PUSHR"); b.op("RETS")
    ctx.load_program(b.assemble())
    om.set_method(parent, SEL_ADD, b.address_of("madd"))
    ctx.run(100_000)
    assert ctx.halted
    assert om.ivar(ctx.cpu, obj, 0) == 12  # the inherited method ran on the child


def test_override_shadows_superclass():
    ctx = build_smalltalk_machine()
    om = ObjectMemory(ctx)
    parent = om.make_class({SEL_ADD: 0})
    child = om.make_class({SEL_ADD: 0}, superclass=parent)
    obj = om.make_instance(child, [0])
    b = BytecodeAssembler(ctx.table)
    b.op("PUSHC", obj); b.op("PUSHC", 1); b.op("SEND1", SEL_ADD)
    b.op("HALTS")
    b.label("parent_m")   # would set 100
    b.op("PUSHC", 100); b.op("STIV", ivar_operand(0))
    b.op("PUSHR"); b.op("RETS")
    b.label("child_m")    # adds the argument
    b.op("PUSHA")
    b.op("PUSHIV", ivar_operand(0)); b.op("ADDS"); b.op("STIV", ivar_operand(0))
    b.op("PUSHR"); b.op("RETS")
    ctx.load_program(b.assemble())
    om.set_method(parent, SEL_ADD, b.address_of("parent_m"))
    om.set_method(child, SEL_ADD, b.address_of("child_m"))
    ctx.run(100_000)
    assert ctx.halted
    assert om.ivar(ctx.cpu, obj, 0) == 1   # the override ran, not the parent


def test_dnu_walks_whole_chain_before_trapping():
    ctx = build_smalltalk_machine()
    om = ObjectMemory(ctx)
    grandparent = om.make_class({SEL_GET: 0})
    parent = om.make_class({}, superclass=grandparent)
    child = om.make_class({}, superclass=parent)
    obj = om.make_instance(child, [0])
    b = BytecodeAssembler(ctx.table)
    b.op("PUSHC", obj); b.op("PUSHC", 0); b.op("SEND1", 99)
    b.op("HALTS")
    ctx.load_program(b.assemble())
    with pytest.raises(MicrocodeCrash):
        ctx.run(100_000)


def test_send_cost_scales_with_hierarchy_depth():
    from repro.perf.measure import OpcodeProfiler

    costs = {}
    for depth in (0, 3):
        ctx = build_smalltalk_machine()
        om = ObjectMemory(ctx)
        cls = om.make_class({SEL_ADD: 0})
        root = cls
        for _ in range(depth):
            cls = om.make_class({}, superclass=cls)
        obj = om.make_instance(cls, [0])
        b = BytecodeAssembler(ctx.table)
        b.op("PUSHC", obj); b.op("PUSHC", 1); b.op("SEND1", SEL_ADD)
        b.op("HALTS")
        b.label("m")
        b.op("PUSHR"); b.op("RETS")
        ctx.load_program(b.assemble())
        om.set_method(root, SEL_ADD, b.address_of("m"))
        prof = OpcodeProfiler(ctx.cpu)
        ctx.run(100_000)
        costs[depth] = prof.mean("SEND1").mean_microinstructions
    assert costs[3] > costs[0] + 10  # each hop costs real microinstructions


def test_bcpl_vector_indexing():
    """LDX: the static holds a vector base, AC the subscript."""
    from repro.emulators.bcpl import STATICS_VA

    def build(b):
        b.op("LDI", 3)          # AC = subscript 3
        b.op("LDX", 4)          # AC = vec[3]
        b.op("STA", 0)
        b.op("HALTA")

    def setup(ctx):
        set_static(ctx, 4, 0x2000)       # the vector base (absolute VA)
        for i in range(8):
            ctx.set_memory_word(0x2000 + i, 0x900 + i)

    ctx = run_bcpl(build, setup=setup)
    assert static_value(ctx.cpu, 0) == 0x903


def test_bcpl_vector_sum_loop():
    def build(b):
        b.op("LDI", 0); b.op("STA", 0)    # total
        b.op("LDI", 5); b.op("STA", 1)    # i
        b.label("loop")
        b.op("LDA", 1); b.op("DECA"); b.op("STA", 1)  # i-1 as subscript
        b.op("LDA", 1)
        b.op("LDX", 4)                     # vec[i-1]
        b.op("ADDA", 0); b.op("STA", 0)
        b.op("LDA", 1); b.op("JNZA", "loop")
        b.op("HALTA")

    def setup(ctx):
        set_static(ctx, 4, 0x2100)
        for i in range(5):
            ctx.set_memory_word(0x2100 + i, 10 + i)

    ctx = run_bcpl(build, setup=setup)
    assert static_value(ctx.cpu, 0) == sum(10 + i for i in range(5))
