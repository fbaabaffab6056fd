"""The display controller (sections 5.8, 6.2.1, 7).

"The Dorado supports raster scan displays which are refreshed from a
full bitmap in main storage."  The controller uses the **fast I/O
system**: its microcode starts one 16-word munch IOFetch per wakeup --
two microinstructions, so at the full 530 Mbit/s memory bandwidth (a
munch every 8-cycle storage cycle) the display consumes 25% of the
processor (section 6.2.1).  A second microcode variant implements the
"simpler design" the paper rejects, where the device must be notified
explicitly and the grain is three instructions (37.5%) -- experiment E5.

The monitor itself is modelled as a pixel-word consumer with an
underrun counter: if microcode cannot keep the FIFO fed, the screen
would glitch, and the counter says so.
"""

from __future__ import annotations

from typing import List

from ..asm.assembler import Assembler
from ..core.functions import FF
from ..errors import DeviceError
from ..state import int_array
from ..types import MUNCH_WORDS, word
from .device import Device

REG_PTR = 0   #: bitmap munch pointer
REG_CNT = 1   #: munches remaining in the band
REG_ST = 2    #: status/notify code

#: Slow-I/O register offsets (the display uses both I/O systems,
#: per the paper's Figure 1 discussion: pixels over fast I/O, cursor
#: and control over the IODATA bus).
IOREG_STATUS = 0
IOREG_CURSOR_X = 1
IOREG_CURSOR_Y = 2

STATUS_DONE = 1
STATUS_NOTIFY = 2

DISPLAY_TASK = 15        #: highest priority: missed data glitches the screen
DISPLAY_IO_ADDRESS = 0x30


class DisplayController(Device):
    """A raster display refreshed over the fast I/O system."""

    def __init__(
        self,
        task: int = DISPLAY_TASK,
        io_address: int = DISPLAY_IO_ADDRESS,
        munch_interval_cycles: int = 8,
        fifo_munches: int = 4,
        explicit_notify: bool = False,
    ) -> None:
        super().__init__(
            "display", task, io_address, register_count=3, explicit_notify=explicit_notify
        )
        self.cursor_x = 0
        self.cursor_y = 0
        self.munch_interval_cycles = munch_interval_cycles
        self.fifo_capacity_words = fifo_munches * MUNCH_WORDS
        self.fifo: List[int] = []
        self.pixels_consumed = 0
        self.underruns = 0
        self.munches_outstanding = 0  #: requested from microcode, not yet delivered
        self.munches_to_request = 0
        self.active = False
        self.done = False
        self._timer = 0

    # --- snapshot protocol (DESIGN.md section 5.4) -------------------------

    def state_dict(self) -> dict:
        state = super().state_dict()
        state.update(
            cursor_x=self.cursor_x,
            cursor_y=self.cursor_y,
            fifo=list(self.fifo),
            pixels_consumed=self.pixels_consumed,
            underruns=self.underruns,
            munches_outstanding=self.munches_outstanding,
            munches_to_request=self.munches_to_request,
            active=self.active,
            done=self.done,
            timer=self._timer,
            beam_on=getattr(self, "_beam_on", False),
        )
        return state

    def load_state(self, state: dict) -> None:
        super().load_state(state)
        self.cursor_x = state["cursor_x"]
        self.cursor_y = state["cursor_y"]
        self.fifo = int_array(state["fifo"])
        self.pixels_consumed = state["pixels_consumed"]
        self.underruns = state["underruns"]
        self.munches_outstanding = state["munches_outstanding"]
        self.munches_to_request = state["munches_to_request"]
        self.active = bool(state["active"])
        self.done = bool(state["done"])
        self._timer = state["timer"]
        self._beam_on = bool(state["beam_on"])

    # --- host-side control -----------------------------------------------------

    def begin_band(self, machine, bitmap_va: int, munches: int, entry: str = None) -> None:
        """Refresh *munches* 16-word munches starting at *bitmap_va*.

        Sets up the display task's registers (the console's job) and
        starts pacing wakeups at the munch interval.
        """
        if entry is None:
            entry = "disp3.loop" if self.explicit_notify else "disp.loop"
        machine.regs.write_rbase(self.task, self.task)
        machine.regs.write_ioaddress(self.task, self.io_address)
        machine.regs.write_membase(self.task, 0)
        machine.regs.write_t(self.task, MUNCH_WORDS)  # the pointer stride
        bank = self.task * 16
        machine.regs.write_rm_absolute(bank + REG_PTR, bitmap_va)
        machine.regs.write_rm_absolute(bank + REG_CNT, munches)
        machine.regs.write_rm_absolute(bank + REG_ST, STATUS_NOTIFY)
        machine.pipe.write_tpc(self.task, machine.address_of(entry))
        self.fifo = []
        self.pixels_consumed = 0
        self.underruns = 0
        self.munches_outstanding = 0
        self.munches_to_request = munches
        self.active = True
        self.done = False
        self._beam_on = False  # the beam waits for a small prefill
        self._timer = 1  # first request on the next cycle

    # --- device clock --------------------------------------------------------------

    def poll(self, machine) -> None:
        if not self.active:
            return
        self._timer -= 1
        if self._timer <= 0:
            self._timer = self.munch_interval_cycles
            # The beam starts once the retrace prefill is in (two munches
            # or the whole band, whichever is smaller).
            if not self._beam_on:
                prefill = min(2 * MUNCH_WORDS, self.fifo_capacity_words)
                if len(self.fifo) >= prefill or self.munches_to_request == 0:
                    self._beam_on = True
            # The beam consumes a munch worth of pixels per interval.
            if self._beam_on:
                if len(self.fifo) >= MUNCH_WORDS:
                    del self.fifo[:MUNCH_WORDS]
                    self.pixels_consumed += MUNCH_WORDS
                elif self.munches_to_request == 0 and self.munches_outstanding == 0:
                    pass  # band finished, FIFO drained
                else:
                    self.underruns += 1
            # Ask microcode for the next munch.
            if self.munches_to_request > 0 and len(self.fifo) < self.fifo_capacity_words:
                self.munches_to_request -= 1
                self.munches_outstanding += 1
                self.request_service(1)
        # Band complete: every munch requested, delivered, and scanned.
        if (
            self.munches_to_request == 0
            and self.munches_outstanding == 0
            and not self.fifo
        ):
            self.active = False
            self.done = True

    def fast_deliver(self, address: int, words: List[int]) -> None:
        self.fifo.extend(word(w) for w in words)
        self.munches_outstanding -= 1

    # --- bus registers ------------------------------------------------------------------

    def read_register(self, offset: int) -> int:
        if offset == IOREG_STATUS:
            return 1 if self.done else 0
        if offset == IOREG_CURSOR_X:
            return self.cursor_x
        if offset == IOREG_CURSOR_Y:
            return self.cursor_y
        raise DeviceError(f"display: no readable register {offset}")

    def write_register(self, offset: int, value: int) -> None:
        if offset == IOREG_STATUS:
            if value == STATUS_NOTIFY:
                self.notify()
            elif value == STATUS_DONE:
                self.active = False
                self.done = True
                self.attention = True
            return
        if offset == IOREG_CURSOR_X:
            self.cursor_x = value
            return
        if offset == IOREG_CURSOR_Y:
            self.cursor_y = value
            return
        raise DeviceError(f"display: no writable register {offset}")


def display_fast_microcode(asm: Assembler) -> None:
    """Emit both display microcode variants into *asm*.

    ``disp.loop`` -- the real Dorado's two-instruction grain: one
    instruction starts the munch IOFetch *and* advances the pointer by
    16 (T holds the stride); the second counts, blocks, and branches.

    ``disp3.loop`` -- the rejected three-instruction protocol, where the
    middle instruction explicitly notifies the controller (an OUTPUT to
    the status register) before the task may block.
    """
    asm.registers({"dsp.ptr": REG_PTR, "dsp.cnt": REG_CNT, "dsp.st": REG_ST})

    # --- two-cycle grain (the shipped design) -----------------------------
    asm.label("disp.loop")
    asm.emit(r="dsp.ptr", a="RM", b="T", alu="ADD", load="RM", fetch="fast")
    asm.emit(
        r="dsp.cnt", a="RM", alu="DEC", load="RM", block=True,
        branch=("NONZERO", "disp.loop", "disp.done"),
    )
    asm.label("disp.done")
    asm.emit(b=1, alu="B", load="T")  # build STATUS_DONE in T (FF is data here)
    asm.emit(b="T", ff=FF.OUTPUT, block=True, goto="disp.idle")

    # --- three-cycle grain (the section 6.2.1 alternative) --------------------
    asm.label("disp3.loop")
    asm.emit(r="dsp.ptr", a="RM", b="T", alu="ADD", load="RM", fetch="fast")
    asm.emit(r="dsp.st", b="RM", ff=FF.OUTPUT)  # explicit wakeup removal
    asm.emit(
        r="dsp.cnt", a="RM", alu="DEC", load="RM", block=True,
        branch=("NONZERO", "disp3.loop", "disp3.done"),
    )
    asm.label("disp3.done")
    asm.emit(b=1, alu="B", load="T")
    asm.emit(b="T", ff=FF.OUTPUT, block=True, goto="disp.idle")

    asm.label("disp.idle")
    asm.emit(block=True, goto="disp.idle")
