"""Bootstrap: microcode that loads microcode.

The Dorado's microstore is writeable and the machine was brought up
"from the bottom": a small resident loader could pull a microprogram
image out of main memory (where the console, or the disk task, had put
it), write it into IM through the folded TPIMOUT paths (section 6.2.3),
and jump into it via LINK.  This module provides exactly that: a
12-instruction resident loader, the image-to-memory encoding, and a
helper that stages an assembled :class:`~repro.asm.program.Image` for
booting.

Boot-table format in memory (one word each)::

    [ im_address, low16, mid16, high2 ] ... repeated ...
    0xFFFF, entry_address

A microinstruction cannot live at IM address 0xFFFF (the store is 4K),
so the sentinel is unambiguous.

The loader's IM writes land through the console's staging path
(``IM_ADDR_B`` / ``IM_WRITE_*``), which reports every completed write
to the processor so it drops the slot's compiled steps (DESIGN.md
section 5.1) -- freshly loaded microcode is never
shadowed by a stale decode, even when the loader overwrites itself.
"""

from __future__ import annotations

from typing import List

from ..core.functions import FF
from .assembler import Assembler
from .program import Image

#: RM registers used by the loader (task 0 bank).
REG_PTR = 8   #: walks the boot table in memory

#: End-of-table sentinel (not a valid IM address).
SENTINEL = 0xFFFF


def boot_loader_microcode(asm: Assembler) -> None:
    """Emit the resident loader at label ``boot.load``.

    Expects RM register 8 to point at the boot table (virtual address)
    and MEMBASE 0 to map it; ends by jumping into the loaded program.
    """
    asm.register("boot.ptr", REG_PTR)

    asm.label("boot.load")
    asm.emit(r="boot.ptr", a="RM", fetch=True, alu="INC", load="RM")
    asm.emit(a="MD", alu="A", load="T")                     # IM address or sentinel
    asm.emit(a="T", b=SENTINEL, alu="XOR",
             branch=("ZERO", "boot.done", "boot.write"))
    asm.label("boot.write")
    asm.emit(b="T", ff=FF.IM_ADDR_B)
    for write_ff in (FF.IM_WRITE_LO, FF.IM_WRITE_MID):
        asm.emit(r="boot.ptr", a="RM", fetch=True, alu="INC", load="RM")
        asm.emit(a="MD", alu="A", load="T")
        asm.emit(b="T", ff=write_ff)
    asm.emit(r="boot.ptr", a="RM", fetch=True, alu="INC", load="RM")
    asm.emit(a="MD", alu="A", load="T")
    asm.emit(b="T", ff=FF.IM_WRITE_HI, goto="boot.load")
    asm.label("boot.done")
    asm.emit(r="boot.ptr", a="RM", fetch=True)              # entry address
    asm.emit(a="MD", alu="A", load="T")
    asm.emit(b="T", ff=FF.LINK_B)                           # LINK <- entry
    asm.emit(ret=True)                                       # ...and go


def encode_for_boot(image: Image, entry_label: str) -> List[int]:
    """Flatten an assembled image into the boot-table word format."""
    words: List[int] = []
    for address, inst in sorted(image.words.items()):
        bits = inst.encode()
        words.extend(
            [address, bits & 0xFFFF, (bits >> 16) & 0xFFFF, (bits >> 32) & 0x3]
        )
    words.append(SENTINEL)
    words.append(image.address_of(entry_label))
    return words


def stage_boot(machine, image: Image, entry_label: str, table_va: int) -> None:
    """Put *image* in memory at *table_va* and aim the loader at it.

    After this, booting the machine at ``boot.load`` loads the image
    into the control store and transfers to *entry_label*.
    """
    words = encode_for_boot(image, entry_label)
    machine.memory.storage.load(table_va, words)
    machine.regs.write_rbase(0, 0)
    machine.regs.write_membase(0, 0)
    machine.regs.write_rm_absolute(REG_PTR, table_va)
