"""The 16-bit ALU and the ALUFM operation map.

Section 6.3.3: "ALUFM: a 16 word memory which maps the four-bit ALUOp
field into the six bits required to control the ALU."  We model the six
control bits as a function selector plus a carry-in selector, and keep
the map writeable (FF ``ALUFM_WRITE``) exactly as the hardware does.

The ALU produces, besides the 16-bit output, the carry-out, signed
overflow, zero, and negative indications that feed the branch
conditions; carry-out is also latched per task so multi-precision
arithmetic can use ``CarryIn.SAVED``.

:func:`compute` is the interpreter's ALU and the reference for the
compiled tiers: the trace compiler (:mod:`repro.core.tracecache`)
inlines a slot's ALUFM entry into the code it generates, so an
``ALUFM_WRITE`` drops that code rather than anything here.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, List, Optional

from ..errors import EncodingError
from ..types import WORD_MASK, bit, word


class AluFunc(enum.IntEnum):
    """ALU function (4 of the 6 ALUFM control bits)."""

    A_PLUS_B = 0
    A_MINUS_B = 1
    B_MINUS_A = 2
    A_AND_B = 3
    A_OR_B = 4
    A_XOR_B = 5
    A_ONLY = 6
    B_ONLY = 7
    NOT_B = 8
    A_PLUS_1 = 9
    A_MINUS_1 = 10
    A_AND_NOT_B = 11
    ZERO = 12
    B_PLUS_1 = 13
    NOT_A = 14
    A_OR_NOT_B = 15


class CarryIn(enum.IntEnum):
    """Carry-in selector (the remaining 2 ALUFM control bits)."""

    ZERO = 0
    ONE = 1
    SAVED = 2  #: the task's latched carry-out from its previous ALU op


@dataclass(frozen=True)
class AluControl:
    """The six bits of ALU control stored in one ALUFM word."""

    func: AluFunc
    carry_in: CarryIn = CarryIn.ZERO

    def encode(self) -> int:
        """Pack into the 6-bit ALUFM word (function in the low 4 bits)."""
        return int(self.func) | (int(self.carry_in) << 4)

    @staticmethod
    def decode(bits: int) -> "AluControl":
        if not 0 <= bits < 64:
            raise EncodingError(f"ALUFM word {bits:#x} does not fit in 6 bits")
        return _ALUFM_WORDS[bits]


#: Every 6-bit ALUFM word decoded once (carry-in 3 means SAVED too):
#: ``AluControl`` is frozen, so ALUFM loads -- every fork and restore --
#: and writes share these.
_ALUFM_WORDS = tuple(
    AluControl(AluFunc(bits & 0xF), CarryIn(min(bits >> 4, CarryIn.SAVED)))
    for bits in range(64)
)


@dataclass(frozen=True)
class AluResult:
    """Everything the ALU reports for one operation."""

    value: int
    carry: bool
    overflow: bool
    #: Whether the adder produced this result.  Only arithmetic
    #: operations latch the per-task saved carry; logical operations
    #: leave it alone, so multi-precision sequences survive interleaved
    #: register moves (section 6.3.3's COUNT/Q-style idioms).
    arithmetic: bool = True

    @property
    def zero(self) -> bool:
        return self.value == 0

    @property
    def negative(self) -> bool:
        return bool(self.value & 0x8000)


#: The standard ALUFM contents loaded at machine bootstrap.  Microcode
#: names operations by ALUFM index; these cover the paper's common cases
#: (add, subtract, logicals, pass-throughs, increments, and the
#: carry-linked forms for multi-precision arithmetic).
STANDARD_ALUFM = [
    AluControl(AluFunc.A_PLUS_B),                   # 0  A+B
    AluControl(AluFunc.A_MINUS_B),                  # 1  A-B
    AluControl(AluFunc.B_MINUS_A),                  # 2  B-A
    AluControl(AluFunc.A_AND_B),                    # 3  A and B
    AluControl(AluFunc.A_OR_B),                     # 4  A or B
    AluControl(AluFunc.A_XOR_B),                    # 5  A xor B
    AluControl(AluFunc.A_ONLY),                     # 6  A
    AluControl(AluFunc.B_ONLY),                     # 7  B
    AluControl(AluFunc.NOT_B),                      # 8  not B
    AluControl(AluFunc.A_PLUS_1),                   # 9  A+1
    AluControl(AluFunc.A_MINUS_1),                  # 10 A-1
    AluControl(AluFunc.A_PLUS_B, CarryIn.SAVED),    # 11 A+B+saved carry
    AluControl(AluFunc.A_MINUS_B, CarryIn.SAVED),   # 12 A-B-1+saved carry
    AluControl(AluFunc.A_AND_NOT_B),                # 13 A and not B
    AluControl(AluFunc.ZERO),                       # 14 0
    AluControl(AluFunc.B_PLUS_1),                   # 15 B+1
]

#: Symbolic names for the standard ALUFM slots, used by the assembler.
STANDARD_OPS = {
    "ADD": 0,
    "SUB": 1,
    "RSUB": 2,
    "AND": 3,
    "OR": 4,
    "XOR": 5,
    "A": 6,
    "B": 7,
    "NOTB": 8,
    "INC": 9,
    "DEC": 10,
    "ADDC": 11,
    "SUBC": 12,
    "ANDNOT": 13,
    "ZERO": 14,
    "BINC": 15,
}


def _adder(a: int, b: int, carry_in: int) -> AluResult:
    total = a + b + carry_in
    value = total & WORD_MASK
    carry = total > WORD_MASK
    overflow = bit(a, 15) == bit(b, 15) and bit(value, 15) != bit(a, 15)
    return AluResult(value, carry, overflow, arithmetic=True)


def compute(control: AluControl, a: int, b: int, saved_carry: bool) -> AluResult:
    """Run one ALU operation on 16-bit operands.

    Subtraction is implemented, as in the hardware, by adding the one's
    complement with a carry-in of one; ``CarryIn.SAVED`` substitutes the
    task's latched carry for the constant, which makes slot 12
    (``A-B-1+carry``) the correct low-to-high multi-precision subtract.
    """
    a = word(a)
    b = word(b)
    func = control.func
    if control.carry_in == CarryIn.SAVED:
        cin = 1 if saved_carry else 0
    else:
        cin = int(control.carry_in)

    if func == AluFunc.A_PLUS_B:
        return _adder(a, b, cin)
    if func == AluFunc.A_MINUS_B:
        # A + not B + 1; SAVED replaces the +1 for multi-precision.
        borrow_cin = cin if control.carry_in == CarryIn.SAVED else 1
        return _adder(a, (~b) & WORD_MASK, borrow_cin)
    if func == AluFunc.B_MINUS_A:
        return _adder(b, (~a) & WORD_MASK, 1)
    if func == AluFunc.A_PLUS_1:
        return _adder(a, 0, 1)
    if func == AluFunc.A_MINUS_1:
        return _adder(a, WORD_MASK, 0)
    if func == AluFunc.B_PLUS_1:
        return _adder(b, 0, 1)

    # Logical operations: no carry or overflow.
    if func == AluFunc.A_AND_B:
        return AluResult(a & b, False, False, arithmetic=False)
    if func == AluFunc.A_OR_B:
        return AluResult(a | b, False, False, arithmetic=False)
    if func == AluFunc.A_XOR_B:
        return AluResult(a ^ b, False, False, arithmetic=False)
    if func == AluFunc.A_ONLY:
        return AluResult(a, False, False, arithmetic=False)
    if func == AluFunc.B_ONLY:
        return AluResult(b, False, False, arithmetic=False)
    if func == AluFunc.NOT_B:
        return AluResult((~b) & WORD_MASK, False, False, arithmetic=False)
    if func == AluFunc.NOT_A:
        return AluResult((~a) & WORD_MASK, False, False, arithmetic=False)
    if func == AluFunc.A_AND_NOT_B:
        return AluResult(a & ~b & WORD_MASK, False, False, arithmetic=False)
    if func == AluFunc.A_OR_NOT_B:
        return AluResult((a | (~b & WORD_MASK)) & WORD_MASK, False, False, arithmetic=False)
    if func == AluFunc.ZERO:
        return AluResult(0, False, False, arithmetic=False)
    raise EncodingError(f"unknown ALU function {func!r}")


class Alu:
    """The ALU together with its writeable ALUFM map."""

    def __init__(self) -> None:
        self._alufm: List[AluControl] = list(STANDARD_ALUFM)
        #: Called after every ALUFM write and load: compiled code
        #: inlines the ALUFM (``Processor._recompose``).
        self.on_write: Optional[Callable[[], None]] = None

    def control(self, aluop: int) -> AluControl:
        """The ALUFM entry selected by a 4-bit ALUOp field."""
        return self._alufm[aluop & 0xF]

    def write_alufm(self, aluop: int, bits: int) -> None:
        """FF ``ALUFM_WRITE``: replace an ALUFM word (low 6 bits of B)."""
        self._alufm[aluop & 0xF] = AluControl.decode(bits & 0x3F)
        if self.on_write is not None:
            self.on_write()

    def run(self, aluop: int, a: int, b: int, saved_carry: bool) -> AluResult:
        """Execute the operation named by ALUOp on operands A and B."""
        return compute(self.control(aluop), a, b, saved_carry)

    # --- snapshot protocol (DESIGN.md section 5.4) -------------------------

    def state_dict(self) -> dict:
        """The ALUFM map as its 6-bit encodings."""
        return {"alufm": [c.encode() for c in self._alufm]}

    def load_state(self, state: dict) -> None:
        self._alufm = [AluControl.decode(bits) for bits in state["alufm"]]
        if self.on_write is not None:
            self.on_write()
