"""The console processor interface (section 6.2.3).

"Another computer (either a separate microcomputer or an Alto) serves as
the console processor for the Dorado; it is interfaced via the CPREG and
a very small number of control signals."  The console is how microcode
is loaded, the machine initialized, and microprograms debugged; we model
it as an object with those powers plus a trace buffer the FF ``TRACE``
function appends to (our stand-in for the microprogram debugger's
logging).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..errors import EncodingError
from ..state import int_array
from .microword import MicroInstruction


class Console:
    """CPREG, the IM write paths, and debug facilities."""

    def __init__(self, im_size: int) -> None:
        self.im_size = im_size
        self.cpreg = 0
        self.trace: List[int] = []
        self.notifications: List[int] = []  # PCs of NOTIFY instructions
        self._im_address_latch = 0
        self._im_partial = 0
        #: Called with the IM address after every completed microstore
        #: write, so the processor can invalidate its execution-plan
        #: cache for that slot (DESIGN.md section 5).
        self.on_im_write: Optional[Callable[[int], None]] = None

    # --- microcode-side paths (FF functions) ------------------------------

    def latch_im_address(self, value: int) -> None:
        """FF ``IM_ADDR_B``."""
        self._im_address_latch = value % self.im_size
        self._im_partial = 0

    def im_write_low(self, value: int) -> None:
        """FF ``IM_WRITE_LO``: bits 15:0 of the staged microword."""
        self._im_partial = (self._im_partial & ~0xFFFF) | (value & 0xFFFF)

    def im_write_mid(self, value: int) -> None:
        """FF ``IM_WRITE_MID``: bits 31:16."""
        self._im_partial = (self._im_partial & ~(0xFFFF << 16)) | ((value & 0xFFFF) << 16)

    def im_write_high(self, value: int, im: List[Optional[MicroInstruction]]) -> None:
        """FF ``IM_WRITE_HI``: bits 33:32, completing the write.

        The three-step staging mirrors the "somewhat tortuous" folded
        data paths the paper describes for writing the microstore.
        """
        self._im_partial = (self._im_partial & 0xFFFFFFFF) | ((value & 0x3) << 32)
        im[self._im_address_latch] = MicroInstruction.decode(self._im_partial)
        if self.on_im_write is not None:
            self.on_im_write(self._im_address_latch)

    def im_read(self, piece: int, im: List[Optional[MicroInstruction]]) -> int:
        """FF ``IM_READ_*``: a 16-bit piece of the latched IM word.

        Reading uninitialized words returns zero, as cleared RAM would.
        """
        inst = im[self._im_address_latch]
        bits = inst.encode() if inst is not None else 0
        return (bits >> (16 * piece)) & 0xFFFF

    def record_trace(self, value: int) -> None:
        """FF ``TRACE``: append a word to the trace buffer."""
        self.trace.append(value)

    def record_notify(self, pc: int) -> None:
        """A NOTIFY next-control executed at *pc*."""
        self.notifications.append(pc)

    # --- host-side conveniences ----------------------------------------------

    def clear(self) -> None:
        self.trace.clear()
        self.notifications.clear()

    def pop_trace(self) -> List[int]:
        """Drain and return the trace buffer."""
        values = list(self.trace)
        self.trace.clear()
        return values

    # --- snapshot protocol (DESIGN.md section 5.4) -------------------------

    def state_dict(self) -> dict:
        """CPREG, both debug buffers, and the staged IM write latches.

        ``on_im_write`` is a hook, not state; ``im_size`` is config.
        """
        return {
            "cpreg": self.cpreg,
            "trace": list(self.trace),
            "notifications": list(self.notifications),
            "im_address_latch": self._im_address_latch,
            "im_partial": self._im_partial,
        }

    def load_state(self, state: dict) -> None:
        self.cpreg = state["cpreg"]
        self.trace = int_array(state["trace"])
        self.notifications = int_array(state["notifications"])
        self._im_address_latch = state["im_address_latch"]
        self._im_partial = state["im_partial"]
