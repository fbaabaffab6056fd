"""A keyboard: the polled, attention-driven kind of device.

Not every Dorado device earned a task: low-rate input (the keyboard, the
mouse buttons) raised the **I/O attention** line and was polled by
emulator microcode through the IOATN branch condition (section 6.3.3's
condition 6 here).  This device exercises that other half of the slow
I/O protocol: no wakeups, no task -- just IOATN and INPUT from task 0.
"""

from __future__ import annotations

from typing import List, Optional

from ..asm.assembler import Assembler
from ..core.functions import FF
from ..errors import DeviceError
from ..state import int_array
from ..types import word
from .device import Device

KEYBOARD_IO_ADDRESS = 0x60


class KeyboardDevice(Device):
    """Host-injected keystrokes, drained through INPUT under IOATN."""

    def __init__(self, io_address: int = KEYBOARD_IO_ADDRESS) -> None:
        super().__init__("keyboard", task=None, io_address=io_address,
                         register_count=1)
        self.queue: List[int] = []

    # --- host side ---------------------------------------------------------

    def press(self, code: int) -> None:
        self.queue.append(word(code))
        self.attention = True

    def type_text(self, text: str) -> None:
        for ch in text:
            self.press(ord(ch))

    # --- snapshot protocol (DESIGN.md section 5.4) -------------------------

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["queue"] = list(self.queue)
        return state

    def load_state(self, state: dict) -> None:
        super().load_state(state)
        self.queue = int_array(state["queue"])

    # --- bus ------------------------------------------------------------------

    def read_register(self, offset: int) -> int:
        if offset != 0:
            raise DeviceError(f"keyboard: no register {offset}")
        if not self.queue:
            return 0
        code = self.queue.pop(0)
        self.attention = bool(self.queue)
        return code


def keyboard_microcode(asm: Assembler, io_address: int = KEYBOARD_IO_ADDRESS) -> None:
    """CALLable routines for the polling protocol.

    ``kbd.init``  -- point IOADDRESS at the keyboard; returns.
    ``kbd.getch`` -- spin on IOATN until a key is ready, read it into T,
    return.  The spin is the classic busy-wait: on the real machine the
    emulator polled between macroinstructions.
    """
    asm.label("kbd.init")
    asm.emit(b=io_address, alu="B", load="T")
    asm.emit(b="T", ff=FF.IOADDRESS_B, ret=True)

    asm.label("kbd.getch")
    asm.emit(branch=("IOATN", "kbd.got", "kbd.wait"))
    asm.label("kbd.wait")
    asm.emit(goto="kbd.getch")
    asm.label("kbd.got")
    asm.emit(b="INPUT", alu="B", load="T", ret=True)
