"""The Interlisp-style emulator (section 7).

"Lisp deals with 32 bit items and keeps its stack in memory, so two
loads and two stores are done in a basic data transfer operation ...
Note that Lisp does runtime checking of parameters ... Function calls
take ... about 200 [microinstructions] for Lisp."

Every Lisp item is two 16-bit words -- a tag and a value -- and the
evaluation stack lives in main memory, so even a literal push is two
Stores and a variable load is two Fetches plus two Stores.  CAR/CDR/CONS
check tags at run time and trap on type errors.  The call discipline is
Interlisp-style shallow binding with save/restore: CALLL pushes a return
frame, each BIND saves the symbol's old value cell on the stack before
installing the argument, and RETL unwinds the frame restoring every
binding -- which is where the paper's ~200-microinstruction calls come
from (we measure ~100-150 for 2-3 arguments; see EXPERIMENTS.md).

Tags: 0 = integer, 1 = pair, 2 = symbol, 3 = NIL, 4 = code, 5 = return
frame, 6 = saved binding.
"""

from __future__ import annotations

from ..asm.assembler import Assembler
from ..config import MachineConfig, PRODUCTION
from ..core.functions import FF
from ..core.processor import Processor
from ..ifu.decoder import DecodeEntry, DecodeTable, OperandKind
from .isa import EmulatorContext, build_machine

# --- memory layout (word addresses) -------------------------------------
CODE_VA = 0x0000
SYMBOLS_VA = 0x2000   #: 4 words per symbol: value tag/val, function tag/val
STACK_VA = 0x4000     #: the in-memory evaluation (value) stack, grows up
STACK_LIMIT = 0x57F0
CONTROL_VA = 0x5800   #: return frames and saved bindings, grows up
CONTROL_LIMIT = 0x5FF0
HEAP_VA = 0x6000      #: cons cells: car tag/val, cdr tag/val

# --- tags -------------------------------------------------------------------
TAG_INT = 0
TAG_PAIR = 1
TAG_SYM = 2
TAG_NIL = 3
TAG_CODE = 4
TAG_RETF = 5
TAG_SAVE = 6

# --- task-0 RM register allocation ---------------------------------------------
REG_SP = 0    #: evaluation stack pointer (VA)
REG_HP = 1    #: heap allocation pointer (VA)
REG_SYB = 2   #: symbol table base (VA)
REG_SLIM = 3  #: stack limit
REG_TAG = 4   #: item tag
REG_VAL = 5   #: item value
REG_CELL = 6  #: scratch cell pointer
REG_RT = 7    #: result/argument tag (held across pops)
REG_RV = 8    #: result/argument value
REG_CP = 9    #: control stack pointer (frames + saved bindings)
REG_CLIM = 10  #: control stack limit


def symbol_operand(index: int) -> int:
    """The byte-code operand addressing symbol *index* (4-word stride)."""
    return index * 4


def build_decode_table() -> DecodeTable:
    table = DecodeTable("lisp")
    B, W, N = OperandKind.BYTE, OperandKind.WORD, OperandKind.NONE
    ops = [
        (0x01, "LIN", "lsp.op.lin", W),     # push integer literal
        (0x02, "NILP", "lsp.op.nilp", N),   # push NIL
        (0x03, "SYMP", "lsp.op.symp", B),   # push a symbol item
        (0x10, "LLV", "lsp.op.llv", B),     # push symbol value (operand = 4*sym)
        (0x11, "SLV", "lsp.op.slv", B),     # pop into symbol value
        (0x20, "CAR", "lsp.op.car", N),
        (0x21, "CDR", "lsp.op.cdr", N),
        (0x22, "CONS", "lsp.op.cons", N),
        (0x23, "ADDL", "lsp.op.addl", N),
        (0x24, "SUBL", "lsp.op.subl", N),
        (0x25, "RPLACA", "lsp.op.rplaca", N),
        (0x26, "RPLACD", "lsp.op.rplacd", N),
        (0x27, "ATOM", "lsp.op.atom", N),
        (0x30, "JMPL", "lsp.op.jmpl", W),
        (0x31, "JNIL", "lsp.op.jnil", W),   # pop; jump if NIL
        (0x32, "JZL", "lsp.op.jzl", W),     # pop int; jump if zero
        (0x50, "CALLL", "lsp.op.calll", B),  # call via symbol function cell
        (0x51, "BIND", "lsp.op.bind", B),    # pop arg into symbol, saving old
        (0x52, "RETL", "lsp.op.retl", N),    # pop result, unwind bindings
        (0x60, "TRACEL", "lsp.op.tracel", N),  # pop; value word to the trace
        (0x61, "DROPL", "lsp.op.dropl", N),    # pop and discard
        (0xFF, "HALTL", "lsp.op.halt", N),
    ]
    for opcode, name, dispatch, kind in ops:
        table.define(opcode, DecodeEntry(name, dispatch, kind))
    return table


def emit_microcode(asm: Assembler) -> None:
    asm.registers(
        {
            "lsp.sp": REG_SP, "lsp.hp": REG_HP, "lsp.syb": REG_SYB,
            "lsp.slim": REG_SLIM, "lsp.tag": REG_TAG, "lsp.val": REG_VAL,
            "lsp.cell": REG_CELL, "lsp.rt": REG_RT, "lsp.rv": REG_RV,
            "lsp.cp": REG_CP, "lsp.clim": REG_CLIM,
        }
    )

    # --- microsubroutines (task-specific LINK, section 6.2.3) -------------
    # pop: take the top item off the memory stack into (tag, val).
    asm.label("lsp.pop")
    asm.emit(r="lsp.sp", a="RM", b=2, alu="SUB", load="RM")
    asm.emit(r="lsp.sp", a="RM", fetch=True)
    asm.emit(r="lsp.sp", a="RM", alu="INC", load="T")
    asm.emit(r="lsp.tag", a="MD", alu="A", load="RM")
    asm.emit(a="T", fetch=True)
    asm.emit(r="lsp.val", a="MD", alu="A", load="RM", ret=True)

    # push: put (tag, val) onto the memory stack.
    asm.label("lsp.push")
    asm.emit(r="lsp.sp", b="RM", alu="B", load="T")
    asm.emit(r="lsp.tag", b="RM", a="T", store=True, alu="INC", load="T")
    asm.emit(r="lsp.val", b="RM", a="T", store=True, alu="INC", load="T")
    asm.emit(r="lsp.sp", b="T", alu="B", load="RM", ret=True)

    # cpop/cpush: the same shapes against the control stack, which keeps
    # frames and bindings out of the value stack.
    asm.label("lsp.cpop")
    asm.emit(r="lsp.cp", a="RM", b=2, alu="SUB", load="RM")
    asm.emit(r="lsp.cp", a="RM", fetch=True)
    asm.emit(r="lsp.cp", a="RM", alu="INC", load="T")
    asm.emit(r="lsp.tag", a="MD", alu="A", load="RM")
    asm.emit(a="T", fetch=True)
    asm.emit(r="lsp.val", a="MD", alu="A", load="RM", ret=True)

    asm.label("lsp.cpush")
    asm.emit(r="lsp.cp", b="RM", alu="B", load="T")
    asm.emit(r="lsp.tag", b="RM", a="T", store=True, alu="INC", load="T")
    asm.emit(r="lsp.val", b="RM", a="T", store=True, alu="INC", load="T")
    asm.emit(r="lsp.cp", b="T", alu="B", load="RM", ret=True)

    # --- literals: a push is two Stores (the 32-bit-item tax) ---------------
    asm.label("lsp.op.lin")
    asm.emit(r="lsp.sp", a="RM", b=TAG_INT, store=True, alu="INC", load="RM")
    asm.emit(r="lsp.sp", a="RM", b="IFUDATA", store=True, alu="INC", load="RM",
             nextmacro=True)

    asm.label("lsp.op.nilp")
    asm.emit(r="lsp.sp", a="RM", b=TAG_NIL, store=True, alu="INC", load="RM")
    asm.emit(r="lsp.sp", a="RM", b=0, store=True, alu="INC", load="RM",
             nextmacro=True)

    asm.label("lsp.op.symp")
    asm.emit(r="lsp.sp", a="RM", b=TAG_SYM, store=True, alu="INC", load="RM")
    asm.emit(r="lsp.sp", a="RM", b="IFUDATA", store=True, alu="INC", load="RM",
             nextmacro=True)

    # --- variable access: "two loads and two stores ... in a basic data
    # transfer operation" ----------------------------------------------------
    asm.label("lsp.op.llv")
    asm.emit(r="lsp.syb", a="RM", b="IFUDATA", alu="ADD", load="T")
    asm.emit(a="T", fetch=True)                      # value tag
    asm.emit(a="T", alu="INC", load="T")
    asm.emit(r="lsp.sp", a="RM", b="MD", store=True, alu="INC", load="RM")
    asm.emit(a="T", fetch=True)                      # value word
    asm.emit(r="lsp.sp", a="RM", b="MD", store=True, alu="INC", load="RM",
             nextmacro=True)

    asm.label("lsp.op.slv")
    asm.emit(r="lsp.syb", a="RM", b="IFUDATA", alu="ADD", load="T")
    asm.emit(r="lsp.cell", b="T", alu="B", load="RM")
    asm.emit(call="lsp.pop")
    asm.emit(r="lsp.cell", b="RM", alu="B", load="T")
    asm.emit(r="lsp.tag", b="RM", a="T", store=True, alu="INC", load="T")
    asm.emit(r="lsp.val", b="RM", a="T", store=True, nextmacro=True)

    # --- list primitives, with runtime type checks -----------------------------
    for name, offset in [("car", 0), ("cdr", 2)]:
        asm.label(f"lsp.op.{name}")
        asm.emit(call="lsp.pop")
        asm.emit(r="lsp.tag", a="RM", b=TAG_PAIR, alu="XOR",
                 branch=("NONZERO", f"lsp.{name}_trap", f"lsp.{name}_ok"))
        asm.label(f"lsp.{name}_trap")
        asm.emit(ff=FF.BREAKPOINT, idle=True)
        asm.label(f"lsp.{name}_ok")
        if offset:
            asm.emit(r="lsp.val", a="RM", b=offset, alu="ADD", load="T")
        else:
            asm.emit(r="lsp.val", b="RM", alu="B", load="T")
        asm.emit(a="T", fetch=True)
        asm.emit(a="T", alu="INC", load="T")
        asm.emit(r="lsp.tag", a="MD", alu="A", load="RM")
        asm.emit(a="T", fetch=True)
        asm.emit(r="lsp.val", a="MD", alu="A", load="RM")
        asm.emit(call="lsp.push")
        asm.emit(nextmacro=True)

    # CONS: pop cdr then car, build a cell at HP, push the pair.
    asm.label("lsp.op.cons")
    asm.emit(call="lsp.pop")                                   # cdr
    asm.emit(r="lsp.hp", a="RM", b=2, alu="ADD", load="T")
    asm.emit(r="lsp.tag", b="RM", a="T", store=True, alu="INC", load="T")
    asm.emit(r="lsp.val", b="RM", a="T", store=True)
    asm.emit(call="lsp.pop")                                   # car
    asm.emit(r="lsp.hp", b="RM", alu="B", load="T")
    asm.emit(r="lsp.tag", b="RM", a="T", store=True, alu="INC", load="T")
    asm.emit(r="lsp.val", b="RM", a="T", store=True)
    asm.emit(r="lsp.tag", b=TAG_PAIR, alu="B", load="RM")      # result item
    asm.emit(r="lsp.hp", b="RM", alu="B", load="T")
    asm.emit(r="lsp.val", b="T", alu="B", load="RM")
    asm.emit(r="lsp.hp", a="RM", b=4, alu="ADD", load="RM")
    asm.emit(call="lsp.push")
    asm.emit(nextmacro=True)

    # Integer arithmetic with tag checks on both operands.
    for name, aluop in [("addl", "ADD"), ("subl", "SUB")]:
        asm.label(f"lsp.op.{name}")
        asm.emit(call="lsp.pop")                               # rhs
        asm.emit(r="lsp.tag", a="RM", alu="A",
                 branch=("NONZERO", f"lsp.{name}_trap", f"lsp.{name}_ok1"))
        asm.label(f"lsp.{name}_trap")
        asm.emit(ff=FF.BREAKPOINT, idle=True)
        asm.label(f"lsp.{name}_ok1")
        asm.emit(r="lsp.val", b="RM", alu="B", load="T")
        asm.emit(r="lsp.rv", b="T", alu="B", load="RM")        # stash rhs value
        asm.emit(call="lsp.pop")                               # lhs
        asm.emit(r="lsp.tag", a="RM", alu="A",
                 branch=("NONZERO", f"lsp.{name}_trap2", f"lsp.{name}_ok2"))
        asm.label(f"lsp.{name}_trap2")
        asm.emit(ff=FF.BREAKPOINT, idle=True)
        asm.label(f"lsp.{name}_ok2")
        asm.emit(r="lsp.rv", b="RM", alu="B", load="T")
        # lhs in val (A), rhs in T (B): ADD = A+B, SUB = A-B.
        asm.emit(r="lsp.val", a="RM", b="T", alu=aluop, load="RM")
        asm.emit(call="lsp.push")
        asm.emit(nextmacro=True)

    # RPLACA/RPLACD: pop the new value and the pair, store into the cell
    # (with the pair type check), push the pair back -- destructive list
    # surgery, tag-checked like everything in Lisp.
    for name, offset in [("rplaca", 0), ("rplacd", 2)]:
        asm.label(f"lsp.op.{name}")
        asm.emit(call="lsp.pop")                           # new value
        asm.emit(r="lsp.tag", b="RM", alu="B", load="T")
        asm.emit(r="lsp.rt", b="T", alu="B", load="RM")
        asm.emit(r="lsp.val", b="RM", alu="B", load="T")
        asm.emit(r="lsp.rv", b="T", alu="B", load="RM")
        asm.emit(call="lsp.pop")                           # the pair
        asm.emit(r="lsp.tag", a="RM", b=TAG_PAIR, alu="XOR",
                 branch=("NONZERO", f"lsp.{name}_trap", f"lsp.{name}_ok"))
        asm.label(f"lsp.{name}_trap")
        asm.emit(ff=FF.BREAKPOINT, idle=True)
        asm.label(f"lsp.{name}_ok")
        if offset:
            asm.emit(r="lsp.val", a="RM", b=offset, alu="ADD", load="T")
        else:
            asm.emit(r="lsp.val", b="RM", alu="B", load="T")
        asm.emit(r="lsp.rt", b="RM", a="T", store=True, alu="INC", load="T")
        asm.emit(r="lsp.rv", b="RM", a="T", store=True)
        asm.emit(call="lsp.push")                          # pair back on stack
        asm.emit(nextmacro=True)

    # ATOM: pop an item, push integer 1 if it is not a pair, else 0.
    asm.label("lsp.op.atom")
    asm.emit(call="lsp.pop")
    asm.emit(r="lsp.tag", a="RM", b=TAG_PAIR, alu="XOR",
             branch=("NONZERO", "lsp.atom_t", "lsp.atom_f"))
    asm.label("lsp.atom_t")
    asm.emit(r="lsp.val", b=1, alu="B", load="RM", goto="lsp.atom_push")
    asm.label("lsp.atom_f")
    asm.emit(r="lsp.val", b=0, alu="B", load="RM")
    asm.label("lsp.atom_push")
    asm.emit(r="lsp.tag", b=TAG_INT, alu="B", load="RM")
    asm.emit(call="lsp.push")
    asm.emit(nextmacro=True)

    # --- jumps ------------------------------------------------------------------
    asm.label("lsp.op.jmpl")
    asm.emit(a="IFUDATA", alu="A", ff=FF.IFU_JUMP)
    asm.emit(nextmacro=True)

    for name in ("jnil", "jzl"):
        asm.label(f"lsp.op.{name}")
        asm.emit(call="lsp.pop")
        if name == "jnil":
            asm.emit(r="lsp.tag", a="RM", b=TAG_NIL, alu="XOR",
                     branch=("ZERO", f"lsp.{name}_t", f"lsp.{name}_f"))
        else:
            asm.emit(r="lsp.val", a="RM", alu="A",
                     branch=("ZERO", f"lsp.{name}_t", f"lsp.{name}_f"))
        asm.label(f"lsp.{name}_t")
        asm.emit(a="IFUDATA", alu="A", ff=FF.IFU_JUMP)
        asm.emit(nextmacro=True)
        asm.label(f"lsp.{name}_f")
        asm.emit(nextmacro=True)

    # --- the call discipline -------------------------------------------------------
    # CALLL sym: fetch the function cell, type-check it, push the return
    # frame, check for stack overflow, and redirect the IFU.
    asm.label("lsp.op.calll")
    asm.emit(r="lsp.syb", a="RM", b="IFUDATA", alu="ADD", load="T")
    asm.emit(a="T", b=2, alu="ADD", load="T")        # -> function cell
    asm.emit(a="T", fetch=True)                       # fn tag
    asm.emit(a="T", alu="INC", load="T")
    asm.emit(r="lsp.tag", a="MD", alu="A", load="RM")
    asm.emit(a="T", fetch=True)                       # fn value (entry byte PC)
    asm.emit(r="lsp.tag", a="RM", b=TAG_CODE, alu="XOR",
             branch=("NONZERO", "lsp.call_trap", "lsp.call_ok"))
    asm.label("lsp.call_trap")
    asm.emit(ff=FF.BREAKPOINT, idle=True)
    asm.label("lsp.call_ok")
    asm.emit(r="lsp.cp", b="RM", alu="B", load="T")
    asm.emit(b=TAG_RETF, a="T", store=True, alu="INC", load="T")
    asm.emit(b="IFUPC", a="T", store=True, alu="INC", load="T")
    asm.emit(r="lsp.cp", b="T", alu="B", load="RM")
    asm.emit(r="lsp.clim", a="RM", b="T", alu="SUB",
             branch=("NEG", "lsp.ovf_trap", "lsp.call_go"))
    asm.label("lsp.ovf_trap")
    asm.emit(ff=FF.BREAKPOINT, idle=True)
    asm.label("lsp.call_go")
    asm.emit(a="MD", alu="A", ff=FF.IFU_JUMP)
    asm.emit(nextmacro=True)

    # BIND sym: pop the argument from the value stack, save the symbol's
    # old value (plus a SAVE marker) on the control stack, install the
    # argument in the value cell.
    asm.label("lsp.op.bind")
    asm.emit(r="lsp.syb", a="RM", b="IFUDATA", alu="ADD", load="T")
    asm.emit(r="lsp.cell", b="T", alu="B", load="RM")
    asm.emit(call="lsp.pop")                          # argument -> tag/val
    asm.emit(r="lsp.tag", b="RM", alu="B", load="T")
    asm.emit(r="lsp.rt", b="T", alu="B", load="RM")   # stash arg tag
    asm.emit(r="lsp.val", b="RM", alu="B", load="T")
    asm.emit(r="lsp.rv", b="T", alu="B", load="RM")   # stash arg value
    asm.emit(r="lsp.cell", b="RM", alu="B", load="T")
    asm.emit(a="T", fetch=True)                       # old tag
    asm.emit(a="T", alu="INC", load="T")
    asm.emit(r="lsp.tag", a="MD", alu="A", load="RM")
    asm.emit(a="T", fetch=True)                       # old value
    asm.emit(r="lsp.val", a="MD", alu="A", load="RM")
    asm.emit(call="lsp.cpush")                        # saved (oldtag, oldval)
    asm.emit(r="lsp.cp", b="RM", alu="B", load="T")   # then the SAVE marker
    asm.emit(b=TAG_SAVE, a="T", store=True, alu="INC", load="T")
    asm.emit(r="lsp.cell", b="RM", a="T", store=True, alu="INC", load="T")
    asm.emit(r="lsp.cp", b="T", alu="B", load="RM")
    asm.emit(r="lsp.cell", b="RM", alu="B", load="T")  # install the argument
    asm.emit(r="lsp.rt", b="RM", a="T", store=True, alu="INC", load="T")
    asm.emit(r="lsp.rv", b="RM", a="T", store=True, nextmacro=True)

    # RETL: unwind the control stack, restoring every saved binding,
    # until the return frame; the result stays put on the value stack.
    asm.label("lsp.op.retl")
    asm.emit(goto="lsp.unwind")
    asm.label("lsp.unwind")
    asm.emit(call="lsp.cpop")                         # frame entry
    asm.emit(r="lsp.tag", a="RM", b=TAG_RETF, alu="XOR",
             branch=("ZERO", "lsp.ret_found", "lsp.ret_save"))
    asm.label("lsp.ret_save")                         # restore one binding
    asm.emit(r="lsp.val", b="RM", alu="B", load="T")
    asm.emit(r="lsp.cell", b="T", alu="B", load="RM")
    asm.emit(call="lsp.cpop")                         # the saved old value
    asm.emit(r="lsp.cell", b="RM", alu="B", load="T")
    asm.emit(r="lsp.tag", b="RM", a="T", store=True, alu="INC", load="T")
    asm.emit(r="lsp.val", b="RM", a="T", store=True, goto="lsp.unwind")
    asm.label("lsp.ret_found")
    asm.emit(r="lsp.val", b="RM", alu="B", ff=FF.IFU_JUMP)  # resume caller
    asm.emit(nextmacro=True)

    asm.label("lsp.op.tracel")
    asm.emit(call="lsp.pop")
    asm.emit(r="lsp.val", b="RM", ff=FF.TRACE, nextmacro=True)

    asm.label("lsp.op.dropl")
    asm.emit(r="lsp.sp", a="RM", b=2, alu="SUB", load="RM", nextmacro=True)

    asm.label("lsp.op.halt")
    asm.emit(ff=FF.HALT, idle=True)


def _init(ctx: EmulatorContext) -> None:
    cpu = ctx.cpu
    cpu.regs.write_rbase(0, 0)
    cpu.regs.write_membase(0, 0)
    cpu.memory.translator.write_base_low(0, 0)
    cpu.regs.write_rm_absolute(REG_SP, STACK_VA)
    cpu.regs.write_rm_absolute(REG_HP, HEAP_VA)
    cpu.regs.write_rm_absolute(REG_SYB, SYMBOLS_VA)
    cpu.regs.write_rm_absolute(REG_SLIM, STACK_LIMIT)
    cpu.regs.write_rm_absolute(REG_CP, CONTROL_VA)
    cpu.regs.write_rm_absolute(REG_CLIM, CONTROL_LIMIT)


def define_function(ctx: EmulatorContext, symbol: int, entry_byte: int) -> None:
    """Install a code pointer in a symbol's function cell."""
    base = SYMBOLS_VA + 4 * symbol
    ctx.set_memory_word(base + 2, TAG_CODE)
    ctx.set_memory_word(base + 3, entry_byte)


def set_symbol_value(ctx: EmulatorContext, symbol: int, tag: int, value: int) -> None:
    base = SYMBOLS_VA + 4 * symbol
    ctx.set_memory_word(base, tag)
    ctx.set_memory_word(base + 1, value)


def symbol_value(cpu: Processor, symbol: int):
    """(tag, value) of *symbol* on machine *cpu*."""
    base = SYMBOLS_VA + 4 * symbol
    return cpu.memory.debug_read(base), cpu.memory.debug_read(base + 1)


def stack_top(ctx: EmulatorContext):
    """(tag, value) of the item on top of the in-memory stack."""
    sp = ctx.cpu.regs.read_rm_absolute(REG_SP)
    return ctx.memory_word(sp - 2), ctx.memory_word(sp - 1)


def build_list(ctx: EmulatorContext, values) -> int:
    """Build a cons list of integers in the heap; returns the head cell VA.

    Host-side setup (the workload generator's job); advances the heap
    pointer so CONS keeps working afterwards.
    """
    hp = ctx.cpu.regs.read_rm_absolute(REG_HP)
    head_tag, head_val = TAG_NIL, 0
    for value in reversed(list(values)):
        cell = hp
        hp += 4
        ctx.set_memory_word(cell, TAG_INT)
        ctx.set_memory_word(cell + 1, value & 0xFFFF)
        ctx.set_memory_word(cell + 2, head_tag)
        ctx.set_memory_word(cell + 3, head_val)
        head_tag, head_val = TAG_PAIR, cell
    ctx.cpu.regs.write_rm_absolute(REG_HP, hp)
    return head_val if head_tag == TAG_PAIR else 0


def build_lisp_machine(
    config: MachineConfig = PRODUCTION, extra_microcode=()
) -> EmulatorContext:
    """A booted Dorado running the Lisp emulator."""
    return build_machine(
        "lsp",
        build_decode_table(),
        emit_microcode,
        _init,
        CODE_VA,
        config=config,
        extra_microcode=extra_microcode,
    )
