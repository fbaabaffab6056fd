"""The BCPL (Alto-style) emulator.

The Dorado "only needs to run [the Alto software] somewhat faster than
the Alto can" (section 3), so the BCPL instruction set gets the simplest
emulator: a single accumulator, statics behind a base register, and a
small return-address stack.  "A typical microinstruction sequence for a
load or store instruction takes only one or two microinstructions in
Mesa (or BCPL)" -- here STA is one microinstruction and LDA is two.
"""

from __future__ import annotations

from ..asm.assembler import Assembler
from ..config import MachineConfig, PRODUCTION
from ..core.functions import FF
from ..core.processor import Processor
from ..ifu.decoder import DecodeEntry, DecodeTable, OperandKind
from .isa import EmulatorContext, build_machine

CODE_VA = 0x0000
STATICS_VA = 0x3000   #: statics page; operands index into it
#: displacement (within the statics base) of the return-address stack
RETSTACK_DISP = 0xE0

MB_STATIC = 2

REG_AC = 0   #: the accumulator
REG_SP = 1   #: return-stack displacement


def build_decode_table() -> DecodeTable:
    table = DecodeTable("bcpl")
    B, W, N = OperandKind.BYTE, OperandKind.WORD, OperandKind.NONE
    ops = [
        (0x01, "LDI", "bcp.op.ldi", W),    # AC <- literal
        (0x02, "LDA", "bcp.op.lda", B),    # AC <- static n
        (0x03, "STA", "bcp.op.sta", B),    # static n <- AC
        (0x04, "LDX", "bcp.op.ldx", B),    # AC <- M[static n + AC] (vectors)
        (0x10, "ADDA", "bcp.op.adda", B),  # AC += static n
        (0x11, "SUBA", "bcp.op.suba", B),
        (0x12, "INCA", "bcp.op.inca", N),
        (0x13, "DECA", "bcp.op.deca", N),
        (0x20, "JMPA", "bcp.op.jmpa", W),
        (0x21, "JZA", "bcp.op.jza", W),    # jump if AC == 0
        (0x22, "JNZA", "bcp.op.jnza", W),
        (0x30, "CALLA", "bcp.op.calla", W),
        (0x31, "RETA", "bcp.op.reta", N),
        (0xFF, "HALTA", "bcp.op.halt", N),
    ]
    for opcode, name, dispatch, kind in ops:
        table.define(opcode, DecodeEntry(name, dispatch, kind))
    return table


def emit_microcode(asm: Assembler) -> None:
    asm.registers({"bcp.ac": REG_AC, "bcp.sp": REG_SP})

    asm.label("bcp.op.ldi")
    asm.emit(r="bcp.ac", a="IFUDATA", alu="A", load="RM", nextmacro=True)

    asm.label("bcp.op.lda")
    asm.emit(fetch=True, a="IFUDATA")
    asm.emit(r="bcp.ac", a="MD", alu="A", load="RM", nextmacro=True)

    # LDX: vector indexing, Alto style -- the static holds the vector
    # base, AC the subscript.
    asm.label("bcp.op.ldx")
    asm.emit(fetch=True, a="IFUDATA")                 # the base pointer
    asm.emit(r="bcp.ac", a="MD", b="RM", alu="ADD", load="T", membase=0)
    asm.emit(a="T", fetch=True)
    asm.emit(r="bcp.ac", a="MD", alu="A", load="RM", membase=MB_STATIC,
             nextmacro=True)

    # STA: one microinstruction, like the paper's Mesa/BCPL claim.
    asm.label("bcp.op.sta")
    asm.emit(r="bcp.ac", store=True, a="IFUDATA", b="RM", nextmacro=True)

    for name, aluop in [("adda", "ADD"), ("suba", "SUB")]:
        asm.label(f"bcp.op.{name}")
        asm.emit(fetch=True, a="IFUDATA")
        asm.emit(r="bcp.ac", a="RM", b="MD", alu=aluop, load="RM", nextmacro=True)

    asm.label("bcp.op.inca")
    asm.emit(r="bcp.ac", a="RM", alu="INC", load="RM", nextmacro=True)
    asm.label("bcp.op.deca")
    asm.emit(r="bcp.ac", a="RM", alu="DEC", load="RM", nextmacro=True)

    asm.label("bcp.op.jmpa")
    asm.emit(a="IFUDATA", alu="A", ff=FF.IFU_JUMP)
    asm.emit(nextmacro=True)

    for name, cond in [("jza", "ZERO"), ("jnza", "NONZERO")]:
        asm.label(f"bcp.op.{name}")
        asm.emit(r="bcp.ac", a="RM", alu="A",
                 branch=(cond, f"bcp.{name}_t", f"bcp.{name}_f"))
        asm.label(f"bcp.{name}_t")
        asm.emit(a="IFUDATA", alu="A", ff=FF.IFU_JUMP)
        asm.emit(nextmacro=True)
        asm.label(f"bcp.{name}_f")
        asm.emit(nextmacro=True)

    asm.label("bcp.op.calla")
    asm.emit(r="bcp.sp", a="RM", b="IFUPC", store=True, alu="INC", load="RM")
    asm.emit(a="IFUDATA", alu="A", ff=FF.IFU_JUMP)
    asm.emit(nextmacro=True)

    asm.label("bcp.op.reta")
    asm.emit(r="bcp.sp", a="RM", alu="DEC", load="RM")
    asm.emit(r="bcp.sp", a="RM", fetch=True)
    asm.emit(a="MD", alu="A", ff=FF.IFU_JUMP)
    asm.emit(nextmacro=True)

    asm.label("bcp.op.halt")
    asm.emit(ff=FF.HALT, idle=True)


def _init(ctx: EmulatorContext) -> None:
    cpu = ctx.cpu
    cpu.regs.write_rbase(0, 0)
    cpu.regs.write_membase(0, MB_STATIC)
    cpu.memory.translator.write_base_low(0, 0)
    cpu.memory.translator.write_base_low(MB_STATIC, STATICS_VA)
    cpu.regs.write_rm_absolute(REG_AC, 0)
    cpu.regs.write_rm_absolute(REG_SP, RETSTACK_DISP)


def static_value(cpu: Processor, index: int) -> int:
    """Static *index* on machine *cpu*."""
    return cpu.memory.debug_read(STATICS_VA + index)


def set_static(ctx: EmulatorContext, index: int, value: int) -> None:
    ctx.set_memory_word(STATICS_VA + index, value)


def build_bcpl_machine(
    config: MachineConfig = PRODUCTION, extra_microcode=()
) -> EmulatorContext:
    """A booted Dorado running the BCPL (Alto) emulator."""
    return build_machine(
        "bcp",
        build_decode_table(),
        emit_microcode,
        _init,
        CODE_VA,
        config=config,
        extra_microcode=extra_microcode,
    )
