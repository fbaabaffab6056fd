"""The data-section register file (section 6.3.3).

Two kinds of state live here:

* **Shared registers** -- RM (256 general-purpose words addressed by
  RBASE + RAddress), COUNT, Q, SHIFTCTL, RBASE, STACKPTR, MEMBASE.
  These belong to whatever task is running; the paper notes that COUNT
  and Q "are normally used only by task 0" but can be borrowed if
  saved and restored.

* **Task-specific registers** -- T, IOADDRESS, RBASE, MEMBASE, the saved
  ALU carry, and (in the control section) TPC and LINK.  They are
  implemented, as in the hardware, as small memories indexed by task
  number, which is what makes a task switch free of save/restore work
  (section 5.3).  RBASE and MEMBASE are task-specific so each device
  controller owns a 16-register slice of RM and its own address base
  without save/restore, which the shared-processor design requires.
"""

from __future__ import annotations

from typing import List

from ..state import int_array
from ..types import NUM_TASKS, WORD_MASK, word

RM_SIZE = 256


class RegisterFile:
    """All data-section registers except the STACK memory."""

    def __init__(self) -> None:
        self.rm: List[int] = [0] * RM_SIZE
        self.t: List[int] = [0] * NUM_TASKS
        self.ioaddress: List[int] = [0] * NUM_TASKS
        self.saved_carry: List[bool] = [False] * NUM_TASKS
        self.rbase: List[int] = [0] * NUM_TASKS
        self.membase: List[int] = [0] * NUM_TASKS
        self.count = 0
        self.q = 0
        self.shiftctl = 0

    # --- RM addressing ---------------------------------------------------

    def rm_address(self, task: int, rsel: int) -> int:
        """Full 8-bit RM address: RBASE supplies the high four bits.

        "RM addressing requires eight bits.  Four come from the RAddress
        field in the microword, and the other four are supplied from
        RBASE." (section 6.3.3)
        """
        return ((self.rbase[task & 0xF] & 0xF) << 4) | (rsel & 0xF)

    def read_rm(self, task: int, rsel: int) -> int:
        return self.rm[self.rm_address(task, rsel)]

    def write_rm(self, task: int, rsel: int, value: int) -> None:
        self.rm[self.rm_address(task, rsel)] = word(value)

    def read_rm_absolute(self, address: int) -> int:
        """Console/debug access by full 8-bit address."""
        return self.rm[address & 0xFF]

    def write_rm_absolute(self, address: int, value: int) -> None:
        self.rm[address & 0xFF] = word(value)

    # --- task-specific registers ------------------------------------------

    def read_t(self, task: int) -> int:
        return self.t[task & 0xF]

    def write_t(self, task: int, value: int) -> None:
        self.t[task & 0xF] = word(value)

    def read_ioaddress(self, task: int) -> int:
        return self.ioaddress[task & 0xF]

    def write_ioaddress(self, task: int, value: int) -> None:
        self.ioaddress[task & 0xF] = word(value)

    # --- small shared registers --------------------------------------------

    def write_count(self, value: int) -> None:
        self.count = word(value)

    def decrement_count(self) -> None:
        """The COUNT_NONZERO side effect (section 6.3.3)."""
        self.count = (self.count - 1) & WORD_MASK

    def write_q(self, value: int) -> None:
        self.q = word(value)

    def write_shiftctl(self, value: int) -> None:
        self.shiftctl = word(value)

    def read_rbase(self, task: int) -> int:
        return self.rbase[task & 0xF]

    def write_rbase(self, task: int, value: int) -> None:
        self.rbase[task & 0xF] = value & 0xF

    def read_membase(self, task: int) -> int:
        return self.membase[task & 0xF]

    def write_membase(self, task: int, value: int) -> None:
        self.membase[task & 0xF] = value & 0x1F

    # --- snapshot protocol (DESIGN.md section 5.4) -------------------------

    def state_dict(self) -> dict:
        """Every data-section register, as plain data (no aliasing)."""
        return {
            "rm": list(self.rm),
            "t": list(self.t),
            "ioaddress": list(self.ioaddress),
            "saved_carry": list(self.saved_carry),
            "rbase": list(self.rbase),
            "membase": list(self.membase),
            "count": self.count,
            "q": self.q,
            "shiftctl": self.shiftctl,
        }

    def load_state(self, state: dict) -> None:
        self.rm = int_array(state["rm"], RM_SIZE)
        self.t = list(state["t"])
        self.ioaddress = list(state["ioaddress"])
        self.saved_carry = [bool(v) for v in state["saved_carry"]]
        self.rbase = list(state["rbase"])
        self.membase = list(state["membase"])
        self.count = state["count"]
        self.q = state["q"]
        self.shiftctl = state["shiftctl"]
