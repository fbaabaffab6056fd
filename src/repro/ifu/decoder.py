"""IFU decode tables.

Each emulated instruction set loads a 256-entry table mapping opcode
bytes to a microstore **dispatch address** (where the emulator microcode
for that byte code begins), the instruction **length** in bytes, and the
**operand** treatment for the IFUDATA bus.  In the real machine this
table was RAM inside the IFU, loaded by microcode; here emulators build
a :class:`DecodeTable` with symbolic dispatch labels and resolve them
against the assembled microcode image.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import EmulatorError
from ..types import word


class OperandKind(enum.Enum):
    """How the bytes after the opcode reach the processor on IFUDATA."""

    NONE = "none"          #: no operand bytes
    BYTE = "byte"          #: one byte, zero-extended
    SIGNED_BYTE = "sbyte"  #: one byte, sign-extended
    WORD = "word"          #: two bytes, big-endian, as one 16-bit operand
    PAIR = "pair"          #: two bytes, delivered as two successive operands

    @property
    def length(self) -> int:
        """Operand bytes consumed from the stream."""
        if self is OperandKind.NONE:
            return 0
        if self in (OperandKind.BYTE, OperandKind.SIGNED_BYTE):
            return 1
        return 2


@dataclass(frozen=True)
class DecodeEntry:
    """One opcode's decode information."""

    name: str              #: mnemonic, for traces
    dispatch: str          #: microcode label of the handler
    operands: OperandKind = OperandKind.NONE
    #: ``operands.length``, computed once: the IFU reads it every decode.
    operand_bytes: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "operand_bytes", self.operands.length)

    @property
    def length(self) -> int:
        """Total instruction length in bytes, including the opcode."""
        return 1 + self.operand_bytes

    def operand_values(self, raw: List[int]) -> List[int]:
        """The IFUDATA word(s) produced from the raw operand bytes."""
        if self.operands is OperandKind.NONE:
            return []
        if self.operands is OperandKind.BYTE:
            return [raw[0]]
        if self.operands is OperandKind.SIGNED_BYTE:
            value = raw[0]
            return [word(value - 256 if value & 0x80 else value)]
        if self.operands is OperandKind.WORD:
            return [word((raw[0] << 8) | raw[1])]
        return [raw[0], raw[1]]  # PAIR


#: How the IFU forms IFUDATA from operand bytes ``b1, b2`` (None: no
#: operand): ``[b1]``, ``[b1]`` sign-extended, ``[b1 << 8 | b2]`` and
#: ``[b1, b2]``, as :meth:`DecodeEntry.operand_values` does.
BYTE_FORM, SIGNED_BYTE_FORM, WORD_FORM, PAIR_FORM = range(4)
_FORMS = {
    OperandKind.NONE: None,
    OperandKind.BYTE: BYTE_FORM,
    OperandKind.SIGNED_BYTE: SIGNED_BYTE_FORM,
    OperandKind.WORD: WORD_FORM,
    OperandKind.PAIR: PAIR_FORM,
}

#: One opcode resolved for the IFU: its entry, operand byte count,
#: operand form and handler microaddress.
Decoded = Tuple[DecodeEntry, int, Optional[int], int]


class DecodeTable:
    """A 256-entry opcode decode table with symbolic dispatch labels."""

    def __init__(self, isa_name: str) -> None:
        self.isa_name = isa_name
        self._entries: List[Optional[DecodeEntry]] = [None] * 256
        self._by_name: Dict[str, int] = {}
        #: The last :meth:`resolve`: its dispatch addresses and result.
        self._resolved: Optional[Tuple[Dict[str, int], List[Optional[Decoded]]]] = None

    def define(self, opcode: int, entry: DecodeEntry) -> None:
        if not 0 <= opcode <= 255:
            raise EmulatorError(f"opcode {opcode} out of range")
        if self._entries[opcode] is not None:
            raise EmulatorError(f"{self.isa_name}: opcode {opcode:#04x} defined twice")
        if entry.name in self._by_name:
            raise EmulatorError(f"{self.isa_name}: mnemonic {entry.name!r} defined twice")
        self._entries[opcode] = entry
        self._by_name[entry.name] = opcode
        self._resolved = None

    def entry(self, opcode: int) -> DecodeEntry:
        found = self._entries[opcode & 0xFF]
        if found is None:
            raise EmulatorError(
                f"{self.isa_name}: undefined opcode {opcode & 0xFF:#04x} in instruction stream"
            )
        return found

    def resolve(self, dispatch_addresses: Dict[str, int]) -> List[Optional[Decoded]]:
        """Every opcode resolved against handler microaddresses.

        Index *opcode* holds ``(entry, operand bytes, operand form,
        address)``, or None where the table defines none.  The last
        result is kept, so the machines forked from one image share one
        list (256 entries, never changed) instead of resolving again.
        """
        if self._resolved is not None and self._resolved[0] == dispatch_addresses:
            return self._resolved[1]
        missing = [l for l in self.dispatch_labels() if l not in dispatch_addresses]
        if missing:
            raise EmulatorError(f"unresolved dispatch labels: {missing}")
        decoded = [
            None if entry is None else (
                entry,
                entry.operand_bytes,
                _FORMS[entry.operands],
                dispatch_addresses[entry.dispatch],
            )
            for entry in self._entries
        ]
        self._resolved = (dict(dispatch_addresses), decoded)
        return decoded

    def opcode(self, name: str) -> int:
        """The opcode assigned to a mnemonic (for byte-code assemblers)."""
        try:
            return self._by_name[name]
        except KeyError:
            raise EmulatorError(f"{self.isa_name}: unknown mnemonic {name!r}") from None

    def defined_opcodes(self) -> List[int]:
        return [i for i, e in enumerate(self._entries) if e is not None]

    def dispatch_labels(self) -> List[str]:
        """All handler labels the microcode must define."""
        return sorted({e.dispatch for e in self._entries if e is not None})
