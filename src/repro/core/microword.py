"""The 34-bit Dorado microinstruction.

Section 6.3.1 of the paper gives the field widths:

=============  ====  ==============================================
Field          Bits  Purpose
=============  ====  ==============================================
RAddress        4    Addresses the register bank RM (with RBASE),
                     or encodes the stack-pointer delta for STACK
                     operations.
ALUOp           4    Selects the ALU operation via ALUFM, or
                     controls the shifter.
BSelect         3    Source for the B bus, including constants.
LoadControl     3    Controls loading of results into RM and T.
ASelect         3    Source for the A bus; starts memory references.
Block           1    Blocks an I/O task; selects a stack operation
                     for task 0.
FF              8    Catchall for specifying functions.
NextControl     8    Specifies how to compute NEXTPC.
=============  ====  ==============================================

The paper fixes the widths and the semantics but not the bit-level
encodings; the encodings chosen here are documented in DESIGN.md and
preserve every constraint the paper calls out (constant byte forms,
even/odd branch pairs, one FF operation per instruction, ...).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..errors import EncodingError
from ..types import BYTE_MASK

#: Total bits in a microinstruction (section 6.3.1).
MICROWORD_BITS = 34


class BSel(enum.IntEnum):
    """B-bus source (the 3-bit BSelect field).

    The four ``CONST_*`` values implement the section 5.9 constant
    scheme: FF supplies one byte, and two BSelect bits give the other
    byte's position and fill, so "most 16 bit constants can be
    specified in one microinstruction".
    """

    RM = 0        #: the addressed RM register (or STACK during a stack op)
    T = 1         #: the task-specific T register
    Q = 2         #: the multiply/divide aid
    EXTB = 3      #: an external source selected by FF (MEMDATA, IFUDATA, ...)
    CONST_LZ = 4  #: constant: FF in the low byte, high byte all zeroes
    CONST_HZ = 5  #: constant: FF in the high byte, low byte all zeroes
    CONST_LO = 6  #: constant: FF in the low byte, high byte all ones
    CONST_HO = 7  #: constant: FF in the high byte, low byte all ones

    @property
    def is_constant(self) -> bool:
        """Whether this BSelect consumes FF as constant data."""
        return self >= BSel.CONST_LZ


def constant_value(bsel: "BSel", ff: int) -> int:
    """The 16-bit constant produced by a ``CONST_*`` BSelect and FF byte."""
    ff &= BYTE_MASK
    if bsel == BSel.CONST_LZ:
        return ff
    if bsel == BSel.CONST_HZ:
        return ff << 8
    if bsel == BSel.CONST_LO:
        return 0xFF00 | ff
    if bsel == BSel.CONST_HO:
        return (ff << 8) | 0x00FF
    raise EncodingError(f"{bsel!r} is not a constant BSelect")


class ASel(enum.IntEnum):
    """A-bus source and memory-reference start (the 3-bit ASelect field).

    MEMADDRESS is a copy of the A bus (section 6.3.2), so the variants
    that start a memory reference also say what drives A.  Store data is
    taken from the B bus.
    """

    RM = 0        #: the addressed RM register (or STACK during a stack op)
    T = 1         #: the task-specific T register
    IFUDATA = 2   #: the current macroinstruction operand from the IFU
    MEMDATA = 3   #: the memory word most recently fetched by this task
    RM_FETCH = 4  #: A = RM; start a memory fetch at that address
    RM_STORE = 5  #: A = RM; store B at that address
    T_FETCH = 6   #: A = T; start a memory fetch
    T_STORE = 7   #: A = T; store B

    @property
    def starts_fetch(self) -> bool:
        return self in (ASel.RM_FETCH, ASel.T_FETCH)

    @property
    def starts_store(self) -> bool:
        return self in (ASel.RM_STORE, ASel.T_STORE)

    @property
    def starts_reference(self) -> bool:
        return self >= ASel.RM_FETCH

    @property
    def uses_memdata(self) -> bool:
        return self == ASel.MEMDATA

    @property
    def uses_ifudata(self) -> bool:
        return self == ASel.IFUDATA


class LoadControl(enum.IntEnum):
    """Result destination (the 3-bit LoadControl field)."""

    NONE = 0   #: discard RESULT (side effects only)
    T = 1      #: T <- RESULT
    RM = 2     #: RM[addressed] <- RESULT (or STACK during a stack op)
    RM_T = 3   #: both RM and T <- RESULT

    @property
    def loads_t(self) -> bool:
        return self in (LoadControl.T, LoadControl.RM_T)

    @property
    def loads_rm(self) -> bool:
        return self in (LoadControl.RM, LoadControl.RM_T)


class Condition(enum.IntEnum):
    """The eight branch conditions (section 5.5).

    A true condition ORs a one into the low bit of NEXTPC about half way
    into the instruction fetch cycle; false targets therefore live at
    even addresses and true targets at the following odd address.
    ``COUNT_NONZERO`` has the section 6.3.3 side effect: COUNT is
    decremented whenever the condition is tested.
    """

    ALU_ZERO = 0       #: ALU output == 0
    ALU_NONZERO = 1    #: ALU output != 0
    ALU_NEG = 2        #: ALU output has the sign bit set
    CARRY = 3          #: ALU carry-out
    COUNT_NONZERO = 4  #: COUNT != 0; decrements COUNT as a side effect
    R_ODD = 5          #: low bit of RESULT
    IOATN = 6          #: I/O attention line from the addressed device
    OVERFLOW = 7       #: ALU signed overflow


class NextType(enum.IntEnum):
    """Top two bits of NextControl: the instruction-sequencing type."""

    GOTO = 0    #: jump within the page (cross-page with FF JumpPage)
    BRANCH = 1  #: conditional branch to an even/odd pair
    CALL = 2    #: like GOTO, but LINK <- THISPC + 1
    MISC = 3    #: returns, dispatches, NextMacro -- see :class:`Misc`


class Misc(enum.IntEnum):
    """Payload values for ``NextType.MISC``."""

    RETURN = 0       #: NEXTPC <- LINK (and LINK <- THISPC + 1, section 6.2.3)
    NEXTMACRO = 1    #: NEXTPC from the IFU's dispatch address; holds if not ready
    DISPATCH8 = 2    #: NEXTPC <- page base + FF DispatchBase + (B & 7)
    DISPATCH256 = 3  #: NEXTPC <- 256-word region from FF + (B & 255)
    CALL_FF = 4      #: long call: NEXTPC <- FF JumpPage target, LINK <- THISPC+1
    RETURN_CALL = 5  #: coroutine swap: NEXTPC <- LINK, LINK <- THISPC + 1
    IDLE = 6         #: jump to self (used by the idle loop / testing)
    NOTIFY = 7       #: NEXTPC <- THISPC + 1, notify console (breakpoint hook)


class NextControl:
    """Helpers for packing and unpacking the 8-bit NextControl field."""

    TYPE_SHIFT = 6
    PAYLOAD_MASK = 0x3F

    @staticmethod
    def pack(kind: NextType, payload: int) -> int:
        if not 0 <= payload <= NextControl.PAYLOAD_MASK:
            raise EncodingError(f"NextControl payload {payload} does not fit in 6 bits")
        return (int(kind) << NextControl.TYPE_SHIFT) | payload

    @staticmethod
    def kind(nc: int) -> NextType:
        return NextType((nc >> NextControl.TYPE_SHIFT) & 0x3)

    @staticmethod
    def payload(nc: int) -> int:
        return nc & NextControl.PAYLOAD_MASK

    @staticmethod
    def branch(condition: Condition, pair: int) -> int:
        """A BRANCH NextControl: 3-bit condition + 3-bit in-page pair."""
        if not 0 <= pair <= 7:
            raise EncodingError(
                f"branch pair {pair} needs FF BranchPair (only pairs 0-7 fit in NextControl)"
            )
        return NextControl.pack(NextType.BRANCH, (int(condition) << 3) | pair)

    @staticmethod
    def branch_condition(nc: int) -> Condition:
        return Condition((nc >> 3) & 0x7)

    @staticmethod
    def branch_pair(nc: int) -> int:
        return nc & 0x7


# Field layout within the 34-bit word, most significant field first:
# rsel(4) aluop(4) bsel(3) lc(3) asel(3) block(1) ff(8) nc(8)
_RSEL_SHIFT = 30
_ALUOP_SHIFT = 26
_BSEL_SHIFT = 23
_LC_SHIFT = 20
_ASEL_SHIFT = 17
_BLOCK_SHIFT = 16
_FF_SHIFT = 8
_NC_SHIFT = 0


def _check(name: str, value: int, width: int) -> int:
    if not 0 <= value < (1 << width):
        raise EncodingError(f"{name}={value} does not fit in {width} bits")
    return value


@dataclass(frozen=True)
class MicroInstruction:
    """One decoded microinstruction.

    This is the architectural view; :meth:`encode` and :meth:`decode`
    round-trip through the packed 34-bit representation that lives in
    the IM chips.
    """

    rsel: int = 0
    aluop: int = 0
    bsel: BSel = BSel.RM
    lc: LoadControl = LoadControl.NONE
    asel: ASel = ASel.RM
    block: bool = False
    ff: int = 0
    nc: int = 0

    def __post_init__(self) -> None:
        _check("rsel", self.rsel, 4)
        _check("aluop", self.aluop, 4)
        _check("bsel", int(self.bsel), 3)
        _check("lc", int(self.lc), 3)
        _check("asel", int(self.asel), 3)
        _check("ff", self.ff, 8)
        _check("nc", self.nc, 8)

    def encode(self) -> int:
        """Pack into the 34-bit IM representation."""
        return (
            (self.rsel << _RSEL_SHIFT)
            | (self.aluop << _ALUOP_SHIFT)
            | (int(self.bsel) << _BSEL_SHIFT)
            | (int(self.lc) << _LC_SHIFT)
            | (int(self.asel) << _ASEL_SHIFT)
            | (int(self.block) << _BLOCK_SHIFT)
            | (self.ff << _FF_SHIFT)
            | (self.nc << _NC_SHIFT)
        )

    @staticmethod
    def decode(bits: int) -> "MicroInstruction":
        """Unpack a 34-bit IM word."""
        if not 0 <= bits < (1 << MICROWORD_BITS):
            raise EncodingError(f"microword {bits:#x} does not fit in {MICROWORD_BITS} bits")
        lc_bits = (bits >> _LC_SHIFT) & 0x7
        if lc_bits > int(LoadControl.RM_T):
            raise EncodingError(f"reserved LoadControl encoding {lc_bits}")
        return MicroInstruction(
            rsel=(bits >> _RSEL_SHIFT) & 0xF,
            aluop=(bits >> _ALUOP_SHIFT) & 0xF,
            bsel=BSel((bits >> _BSEL_SHIFT) & 0x7),
            lc=LoadControl(lc_bits),
            asel=ASel((bits >> _ASEL_SHIFT) & 0x7),
            block=bool((bits >> _BLOCK_SHIFT) & 0x1),
            ff=(bits >> _FF_SHIFT) & 0xFF,
            nc=(bits >> _NC_SHIFT) & 0xFF,
        )

    @property
    def next_type(self) -> NextType:
        return NextControl.kind(self.nc)

    @property
    def stack_delta(self) -> int:
        """The signed stack-pointer adjustment encoded in RAddress.

        During a stack operation (Block bit set on task 0), the
        RAddress field "tells how much to increment or decrement
        STACKPTR" (section 6.3.3); we interpret the 4 bits as two's
        complement, -8..+7.
        """
        return self.rsel - 16 if self.rsel & 0x8 else self.rsel

    def describe(self) -> str:
        """A one-line human-readable rendering, for traces."""
        parts = [f"r{self.rsel:X}", f"alu{self.aluop:X}", self.bsel.name, self.asel.name]
        if self.lc != LoadControl.NONE:
            parts.append(f"load={self.lc.name}")
        if self.block:
            parts.append("BLOCK")
        if self.ff:
            parts.append(f"ff={self.ff:#04x}")
        kind = self.next_type
        if kind == NextType.BRANCH:
            cond = NextControl.branch_condition(self.nc)
            parts.append(f"BR[{cond.name}]p{NextControl.branch_pair(self.nc)}")
        elif kind == NextType.MISC:
            payload = NextControl.payload(self.nc)
            parts.append(f"{Misc(payload >> 3).name}.{payload & 7}")
        else:
            parts.append(f"{kind.name}:{NextControl.payload(self.nc)}")
        return " ".join(parts)
