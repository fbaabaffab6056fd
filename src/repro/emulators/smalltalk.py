"""The Smalltalk emulator.

Smalltalk-76 execution is dominated by message sends: every send looks
the receiver's class up, probes the class's method dictionary for the
selector, walks up the superclass chain on a miss, and activates the
found method (Ingalls, reference [4]).  Our subset keeps exactly that
shape: objects are ``[class, ivars...]`` records, classes are
``[superclass, nmethods, sel, entry, sel, entry, ...]`` records searched
linearly by the SEND1 microcode, and activation pushes a ``[saved
receiver, return PC, argument]`` frame (the method reads its argument
with PUSHA).  A send costs ~30 microinstructions plus
~5 per dictionary probe and ~10 per superclass hop -- message-send-heavy
code runs tens of microinstructions per byte code, the expensive end of
the paper's emulator spectrum.
"""

from __future__ import annotations

from typing import Dict, List

from ..asm.assembler import Assembler
from ..config import MachineConfig, PRODUCTION
from ..core.functions import FF
from ..core.processor import Processor
from ..ifu.decoder import DecodeEntry, DecodeTable, OperandKind
from .isa import EmulatorContext, build_machine

CODE_VA = 0x0000
OBJECTS_VA = 0x3000
FRAMES_VA = 0x5000

REG_RCVR = 0  #: current receiver oop
REG_FP = 1    #: activation frame pointer
REG_TMP = 2   #: method-dictionary size scratch
REG_NR = 3    #: new receiver during a send
REG_ARG = 4   #: the argument during a send
REG_SEL = 5   #: the selector, latched for the dictionary probes
REG_CLS = 6   #: the class being searched
REG_SUP = 7   #: its superclass (for the miss path)


def ivar_operand(index: int) -> int:
    """PUSHIV/STIV operand for instance variable *index* (skip the class word)."""
    return index + 1


def build_decode_table() -> DecodeTable:
    table = DecodeTable("smalltalk")
    B, W, N = OperandKind.BYTE, OperandKind.WORD, OperandKind.NONE
    ops = [
        (0x01, "PUSHC", "stk.op.pushc", W),   # push literal / oop
        (0x02, "PUSHR", "stk.op.pushr", N),   # push the receiver
        (0x03, "PUSHIV", "stk.op.pushiv", B),  # push instance variable
        (0x04, "STIV", "stk.op.stiv", B),     # pop into instance variable
        (0x05, "PUSHA", "stk.op.pusha", N),   # push the activation's argument
        (0x40, "TRACES", "stk.op.traces", N),  # pop to the console trace
        (0x10, "ADDS", "stk.op.adds", N),
        (0x11, "SUBS", "stk.op.subs", N),
        (0x12, "DUPS", "stk.op.dups", N),
        (0x13, "DROPS", "stk.op.drops", N),
        (0x20, "JMPS", "stk.op.jmps", W),
        (0x21, "JZS", "stk.op.jzs", W),
        (0x30, "SEND1", "stk.op.send1", B),   # one-argument message send
        (0x31, "RETS", "stk.op.rets", N),
        (0xFF, "HALTS", "stk.op.halt", N),
    ]
    for opcode, name, dispatch, kind in ops:
        table.define(opcode, DecodeEntry(name, dispatch, kind))
    return table


def emit_microcode(asm: Assembler) -> None:
    asm.registers(
        {"stk.rcvr": REG_RCVR, "stk.fp": REG_FP, "stk.tmp": REG_TMP,
         "stk.nr": REG_NR, "stk.arg": REG_ARG, "stk.sel": REG_SEL,
         "stk.cls": REG_CLS, "stk.sup": REG_SUP}
    )

    asm.label("stk.op.pushc")
    asm.emit(stack=1, a="IFUDATA", alu="A", load="RM", nextmacro=True)

    asm.label("stk.op.pushr")
    asm.emit(r="stk.rcvr", b="RM", alu="B", load="T")
    asm.emit(stack=1, a="T", alu="A", load="RM", nextmacro=True)

    asm.label("stk.op.pushiv")
    asm.emit(r="stk.rcvr", a="RM", b="IFUDATA", alu="ADD", load="T")
    asm.emit(a="T", fetch=True)
    asm.emit(stack=1, a="MD", alu="A", load="RM", nextmacro=True)

    asm.label("stk.op.stiv")
    asm.emit(r="stk.rcvr", a="RM", b="IFUDATA", alu="ADD", load="T")
    asm.emit(stack=-1, b="RM", a="T", store=True, nextmacro=True)

    # PUSHA: the argument lives in the activation frame at FP+2.
    asm.label("stk.op.pusha")
    asm.emit(r="stk.fp", a="RM", b=2, alu="ADD", load="T")
    asm.emit(a="T", fetch=True)
    asm.emit(stack=1, a="MD", alu="A", load="RM", nextmacro=True)

    asm.label("stk.op.traces")
    asm.emit(stack=-1, b="RM", alu="B", load="T")
    asm.emit(b="T", ff=FF.TRACE, nextmacro=True)

    for name, aluop in [("adds", "ADD"), ("subs", "SUB")]:
        asm.label(f"stk.op.{name}")
        asm.emit(stack=-1, b="RM", alu="B", load="T")
        asm.emit(stack=0, a="RM", b="T", alu=aluop, load="RM", nextmacro=True)

    asm.label("stk.op.dups")
    asm.emit(stack=1, a="RM", alu="A", load="RM", nextmacro=True)
    asm.label("stk.op.drops")
    asm.emit(stack=-1, nextmacro=True)

    asm.label("stk.op.jmps")
    asm.emit(a="IFUDATA", alu="A", ff=FF.IFU_JUMP)
    asm.emit(nextmacro=True)

    asm.label("stk.op.jzs")
    asm.emit(stack=-1, b="RM", alu="B", load="T")
    asm.emit(a="T", alu="A", branch=("ZERO", "stk.jzs_t", "stk.jzs_f"))
    asm.label("stk.jzs_t")
    asm.emit(a="IFUDATA", alu="A", ff=FF.IFU_JUMP)
    asm.emit(nextmacro=True)
    asm.label("stk.jzs_f")
    asm.emit(nextmacro=True)

    # SEND1 sel: pop arg and receiver, look the selector up in the
    # receiver's class dictionary (linear probe), walking the superclass
    # chain on a miss, then activate the method.
    asm.label("stk.op.send1")
    asm.emit(a="IFUDATA", alu="A", load="T")                 # latch the selector
    asm.emit(r="stk.sel", b="T", alu="B", load="RM")
    asm.emit(stack=-1, b="RM", alu="B", load="T")            # arg
    asm.emit(r="stk.arg", b="T", alu="B", load="RM")
    asm.emit(stack=-1, b="RM", alu="B", load="T")            # receiver oop
    asm.emit(r="stk.nr", b="T", alu="B", load="RM")
    asm.emit(a="T", fetch=True)                               # its class
    asm.emit(a="MD", alu="A", load="T")                       # T -> class object
    asm.label("stk.lookup")
    asm.emit(a="T", fetch=True)                               # superclass
    asm.emit(a="T", alu="INC", load="T")
    asm.emit(r="stk.sup", a="MD", alu="A", load="RM")
    asm.emit(a="T", fetch=True)                               # nmethods
    asm.emit(r="stk.tmp", a="MD", alu="DEC", load="RM")       # probes remaining
    asm.emit(r="stk.tmp", a="RM", alu="A",
             branch=("NEG", "stk.empty", "stk.scan"))         # 0 methods?
    asm.label("stk.empty")
    asm.emit(goto="stk.miss")
    asm.label("stk.scan")
    asm.emit(r="stk.tmp", b="RM", ff=FF.COUNT_B)
    asm.label("stk.probe")
    asm.emit(a="T", alu="INC", load="T")                      # -> selector k
    asm.emit(a="T", fetch=True)
    asm.emit(r="stk.sel", a="MD", b="RM", alu="XOR",
             branch=("ZERO", "stk.found", "stk.next"))
    asm.label("stk.next")
    asm.emit(a="T", alu="INC", load="T",
             branch=("COUNT", "stk.probe_more", "stk.miss"))
    asm.label("stk.probe_more")
    asm.emit(goto="stk.probe")
    asm.label("stk.miss")                                      # try the superclass
    asm.emit(r="stk.sup", a="RM", alu="A",
             branch=("ZERO", "stk.dnu", "stk.super"))
    asm.label("stk.dnu")
    asm.emit(ff=FF.BREAKPOINT, idle=True)  # messageNotUnderstood
    asm.label("stk.super")
    asm.emit(r="stk.sup", b="RM", alu="B", load="T", goto="stk.lookup")
    asm.label("stk.found")
    asm.emit(a="T", alu="INC", load="T")
    asm.emit(a="T", fetch=True)                               # method entry
    asm.emit(r="stk.fp", a="RM", b=3, alu="ADD", load="RM_T")  # new frame
    asm.emit(r="stk.rcvr", b="RM", a="T", store=True, alu="INC", load="T")
    asm.emit(b="IFUPC", a="T", store=True, alu="INC", load="T")
    asm.emit(r="stk.arg", b="RM", a="T", store=True)          # frame[2] = arg
    asm.emit(r="stk.nr", b="RM", alu="B", load="T")
    asm.emit(r="stk.rcvr", b="T", alu="B", load="RM")
    asm.emit(a="MD", alu="A", ff=FF.IFU_JUMP)
    asm.emit(nextmacro=True)

    # RETS: pop the activation frame (the result stays on the eval stack).
    asm.label("stk.op.rets")
    asm.emit(r="stk.fp", b="RM", alu="B", load="T")
    asm.emit(a="T", fetch=True)                               # saved receiver
    asm.emit(a="T", alu="INC", load="T")
    asm.emit(r="stk.rcvr", a="T", fetch=True, b="MD", alu="B", load="RM")
    asm.emit(r="stk.fp", a="RM", b=3, alu="SUB", load="RM")
    asm.emit(a="MD", alu="A", ff=FF.IFU_JUMP)                 # return PC
    asm.emit(nextmacro=True)

    asm.label("stk.op.halt")
    asm.emit(ff=FF.HALT, idle=True)


def _init(ctx: EmulatorContext) -> None:
    cpu = ctx.cpu
    cpu.regs.write_rbase(0, 0)
    cpu.regs.write_membase(0, 0)
    cpu.memory.translator.write_base_low(0, 0)
    cpu.regs.write_rm_absolute(REG_FP, FRAMES_VA)
    cpu.stack.select_stack(0)


class ObjectMemory:
    """Host-side allocator for the Smalltalk object world."""

    def __init__(self, ctx: EmulatorContext) -> None:
        self.ctx = ctx
        self.next_va = OBJECTS_VA

    def _alloc(self, words: List[int]) -> int:
        va = self.next_va
        for i, w in enumerate(words):
            self.ctx.set_memory_word(va + i, w)
        self.next_va += len(words)
        return va

    def make_class(self, methods: Dict[int, int], superclass: int = 0) -> int:
        """A class: superclass pointer plus {selector: entry} dictionary."""
        words = [superclass, len(methods)]
        for selector, entry in methods.items():
            words.extend([selector, entry])
        return self._alloc(words)

    def set_method(self, class_va: int, selector: int, entry: int) -> None:
        """Patch a method entry by selector (for post-assembly fixup)."""
        count = self.ctx.memory_word(class_va + 1)
        for k in range(count):
            if self.ctx.memory_word(class_va + 2 + 2 * k) == selector:
                self.ctx.set_memory_word(class_va + 3 + 2 * k, entry)
                return
        raise KeyError(f"selector {selector} not in class {class_va:#x}")

    def make_instance(self, class_va: int, ivars: List[int]) -> int:
        return self._alloc([class_va] + list(ivars))

    @staticmethod
    def ivar(cpu: Processor, oop: int, index: int) -> int:
        """Instance variable *index* of object *oop* on machine *cpu*."""
        return cpu.memory.debug_read(oop + 1 + index)


def build_smalltalk_machine(
    config: MachineConfig = PRODUCTION, extra_microcode=()
) -> EmulatorContext:
    """A booted Dorado running the Smalltalk emulator."""
    return build_machine(
        "stk",
        build_decode_table(),
        emit_microcode,
        _init,
        CODE_VA,
        config=config,
        extra_microcode=extra_microcode,
    )
