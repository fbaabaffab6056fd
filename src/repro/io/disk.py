"""The disk controller and its microcode (section 7).

"I/O devices with transfer rates up to 10 megabits/sec are handled by
the processor via the IODATA and IOADDRESS busses.  The microcode for
the disk takes three cycles to transfer two words each way; thus the 10
megabit/sec disk consumes 5% of the processor."

The controller hardware is a word FIFO clocked at the disk's data rate
(one 16-bit word per ~27 cycles is 9.9 Mbit/s at 60 ns) plus a
status/command register.  The microcode moves one word per
microinstruction -- "both the memory reference and the I/O transfer can
be specified in a single instruction" (section 5.8) -- so a wakeup
services two words in three cycles in the read direction.  The write
direction costs four cycles for two words in our model, because a
fetched word must age two cycles in the memory pipeline before IODATA
can take it (see EXPERIMENTS.md, E3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..asm.assembler import Assembler
from ..core.functions import FF
from ..errors import DeviceError, StateError
from ..state import int_array
from ..types import word
from .device import Device

#: Microcode register allocation within the disk task's RM bank.
REG_PTR = 0   #: buffer pointer (virtual address displacement)
REG_CNT = 1   #: remaining word pairs
REG_ST = 2    #: status code to OUTPUT on completion

STATUS_DONE = 1

#: Default task and bus address for the disk.
DISK_TASK = 13
DISK_IO_ADDRESS = 0x20


@dataclass(frozen=True)
class DiskGeometry:
    """Synthetic drive parameters."""

    sectors: int = 64
    words_per_sector: int = 256
    word_interval_cycles: int = 27  #: ~9.9 Mbit/s at 60 ns/cycle
    spare_sectors: int = 2          #: replacement pool for bad sectors
    max_retries: int = 4            #: retry budget per transfer error
    retry_backoff_cycles: int = 32  #: wait between retry attempts

    def __post_init__(self) -> None:
        if self.words_per_sector % 2:
            raise DeviceError("words_per_sector must be even (two words per wakeup)")
        if self.spare_sectors < 0 or self.max_retries < 0:
            raise DeviceError("spare_sectors and max_retries cannot be negative")
        if self.retry_backoff_cycles < 1:
            raise DeviceError("retry_backoff_cycles must be at least 1")


class DiskController(Device):
    """An 80 MB-class removable disk, scaled down and synthesized."""

    def __init__(
        self,
        geometry: DiskGeometry = DiskGeometry(),
        task: int = DISK_TASK,
        io_address: int = DISK_IO_ADDRESS,
    ) -> None:
        super().__init__("disk", task, io_address, register_count=2)
        self.geometry = geometry
        self.surface: List[List[int]] = [
            [0] * geometry.words_per_sector
            for _ in range(geometry.sectors + geometry.spare_sectors)
        ]
        self.mode = "idle"
        self.sector = 0
        self.word_index = 0
        self.requested_words = 0
        self.fifo: List[int] = []
        self.done = False
        self.hard_error = False
        #: Bad-sector table: logical sector -> spare physical sector.
        self.remap: Dict[int, int] = {}
        self._next_spare = geometry.sectors
        self._timer = 0
        self._done_wakeup_sent = False
        self._injector = None
        self._fail_remaining = 0   #: failures left in the current error
        self._error_attempts = 0   #: attempts burned on the current error

    def attach(self, machine) -> None:
        super().attach(machine)
        self._injector = machine.memory.injector

    # --- snapshot protocol (DESIGN.md section 5.4) -------------------------

    def state_dict(self) -> dict:
        state = super().state_dict()
        state.update(
            surface=[list(sector) for sector in self.surface],
            mode=self.mode,
            sector=self.sector,
            word_index=self.word_index,
            requested_words=self.requested_words,
            fifo=list(self.fifo),
            done=self.done,
            hard_error=self.hard_error,
            remap=dict(self.remap),
            next_spare=self._next_spare,
            timer=self._timer,
            done_wakeup_sent=self._done_wakeup_sent,
            fail_remaining=self._fail_remaining,
            error_attempts=self._error_attempts,
            unclaimed=getattr(self, "_unclaimed", 0),
        )
        return state

    def load_state(self, state: dict) -> None:
        super().load_state(state)
        surface = state["surface"]
        if len(surface) != len(self.surface):
            raise StateError(
                f"disk snapshot has {len(surface)} sectors; "
                f"this drive has {len(self.surface)}"
            )
        words = self.geometry.words_per_sector
        self.surface = [int_array(sector, words) for sector in surface]
        self.mode = state["mode"]
        self.sector = state["sector"]
        self.word_index = state["word_index"]
        self.requested_words = state["requested_words"]
        self.fifo = int_array(state["fifo"])
        self.done = bool(state["done"])
        self.hard_error = bool(state["hard_error"])
        self.remap = dict(state["remap"])
        self._next_spare = state["next_spare"]
        self._timer = state["timer"]
        self._done_wakeup_sent = bool(state["done_wakeup_sent"])
        self._fail_remaining = state["fail_remaining"]
        self._error_attempts = state["error_attempts"]
        self._unclaimed = state["unclaimed"]

    # --- host-side surface access ------------------------------------------

    def _physical(self, sector: int) -> int:
        """Logical sector to physical, through the bad-sector table."""
        return self.remap.get(sector, sector)

    def fill_sector(self, sector: int, values: List[int]) -> None:
        if len(values) != self.geometry.words_per_sector:
            raise DeviceError("fill_sector needs a full sector of words")
        self.surface[self._physical(sector)] = [word(v) for v in values]

    def read_sector_image(self, sector: int) -> List[int]:
        return list(self.surface[self._physical(sector)])

    # --- transfer setup (the console pokes registers and TPC) -----------------

    def _setup(self, machine, buffer_va: int, entry: str) -> None:
        machine.regs.write_rbase(self.task, self.task)
        machine.regs.write_ioaddress(self.task, self.io_address)
        machine.regs.write_membase(self.task, 0)
        bank = self.task * 16
        machine.regs.write_rm_absolute(bank + REG_PTR, buffer_va)
        machine.regs.write_rm_absolute(bank + REG_CNT, self.geometry.words_per_sector // 2)
        machine.regs.write_rm_absolute(bank + REG_ST, STATUS_DONE)
        machine.pipe.write_tpc(self.task, machine.address_of(entry))

    def begin_read(self, machine, sector: int, buffer_va: int) -> None:
        """Start a sector read into memory at *buffer_va*."""
        if self.mode != "idle":
            raise DeviceError("disk transfer already in progress")
        self._setup(machine, buffer_va, "disk.read_loop")
        self.mode = "read"
        self.sector = sector
        self.word_index = 0
        self.fifo = []
        self.done = False
        self.hard_error = False
        self._fail_remaining = 0
        self._error_attempts = 0
        self._done_wakeup_sent = False
        self._unclaimed = 0
        self._timer = self.geometry.word_interval_cycles

    def begin_write(self, machine, sector: int, buffer_va: int) -> None:
        """Start a sector write from memory at *buffer_va*."""
        if self.mode != "idle":
            raise DeviceError("disk transfer already in progress")
        self._setup(machine, buffer_va, "disk.write_prime")
        self.mode = "write"
        self.sector = sector
        self.word_index = 0
        self.requested_words = 0
        self.fifo = []
        self.done = False
        self.hard_error = False
        self._fail_remaining = 0
        self._error_attempts = 0
        self._done_wakeup_sent = False
        self._timer = self.geometry.word_interval_cycles
        # The priming instruction needs one unit of service to run.
        self.request_service(1)

    # --- transfer errors: bounded retry, then remap (fault injection) ---------

    def _transfer_ok(self, machine) -> bool:
        """Gate one surface word transfer through the injected-error model.

        A due :class:`~repro.fault.plan.FaultKind.DISK_TRANSFER` event
        makes the next ``arg`` attempts fail; each failure costs one
        ``retry_backoff_cycles`` wait.  An error outlasting the
        ``max_retries`` budget marks the sector bad and degrades
        gracefully: the transfer continues on a spare sector (see
        :meth:`_give_up`).  Returns False while a retry is pending.
        """
        if self._injector is None:
            return True
        if self._fail_remaining == 0:
            event = self._injector.disk_error_due()
            if event is None:
                return True
            self._fail_remaining = max(1, event.arg)
            self._error_attempts = 0
        self._fail_remaining -= 1
        self._error_attempts += 1
        machine.counters.disk_retries += 1
        if self._error_attempts > self.geometry.max_retries:
            self._fail_remaining = 0
            self._give_up(machine)
            return True
        self._injector.record(
            "disk", "retry", self.sector,
            f"attempt {self._error_attempts} failed at word {self.word_index}",
        )
        self._timer = self.geometry.retry_backoff_cycles
        return False

    def _give_up(self, machine) -> None:
        """Retry budget exhausted: the sector is bad.  Degrade, don't die."""
        logical = self.sector
        spare = self._next_spare
        if spare >= len(self.surface):
            self.hard_error = True
            self._injector.record(
                "disk", "hard_error", logical, "spare pool exhausted"
            )
            return
        self._next_spare += 1
        # Carry over whatever already landed on the dying sector so a
        # partially-written transfer finishes intact on the spare.
        self.surface[spare] = list(self.surface[self._physical(logical)])
        self.remap[logical] = spare
        machine.counters.disk_remaps += 1
        if self.mode == "read":
            # The data under the failed word could not be read reliably;
            # the remap protects future writes, and the status register
            # tells the host this transfer is suspect.
            self.hard_error = True
            self._injector.record(
                "disk", "remap", logical,
                f"read unreliable; sector remapped to spare {spare}",
            )
        else:
            self._injector.record(
                "disk", "remap", logical,
                f"write continues on spare {spare}",
            )

    # --- device clock -----------------------------------------------------------

    def poll(self, machine) -> None:
        if self.mode == "read":
            self._timer -= 1
            if self._timer <= 0 and self.word_index < self.geometry.words_per_sector:
                if self._transfer_ok(machine):
                    self.fifo.append(self.surface[self._physical(self.sector)][self.word_index])
                    self.word_index += 1
                    self._unclaimed += 1
                    self._timer = self.geometry.word_interval_cycles
            # Each request claims exactly the two words that triggered
            # it, so a burst resumed after preemption can never race a
            # fresh request for the same data.
            if self._unclaimed >= 2:
                self._unclaimed -= 2
                self.request_service(1)
            # All words consumed by microcode: one last wakeup runs the
            # done path (the task blocked with TPC at disk.read_done).
            if (
                self.word_index >= self.geometry.words_per_sector
                and not self.fifo
                and not self._done_wakeup_sent
                and self._service_pending == 0 and not self._was_granted
            ):
                self._done_wakeup_sent = True
                self.request_service(1)
        elif self.mode == "write":
            self._timer -= 1
            if self._timer <= 0 and self.fifo and self.word_index < self.geometry.words_per_sector:
                if self._transfer_ok(machine):
                    self.surface[self._physical(self.sector)][self.word_index] = self.fifo.pop(0)
                    self.word_index += 1
                    self._timer = self.geometry.word_interval_cycles
            want_more = self.requested_words < self.geometry.words_per_sector
            if want_more and len(self.fifo) <= 2 and self._service_pending == 0 and not self._was_granted:
                self.request_service(1)
                self.requested_words += 2
            elif (
                not want_more
                and not self._done_wakeup_sent
                and self._service_pending == 0 and not self._was_granted
            ):
                self._done_wakeup_sent = True
                self.request_service(1)

    # --- bus registers --------------------------------------------------------------

    def read_register(self, offset: int) -> int:
        if offset == 0:
            if not self.fifo:
                raise DeviceError("disk data FIFO underrun (microcode/pacing bug)")
            return self.fifo.pop(0)
        if offset == 1:
            return (
                (1 if self.done else 0)
                | (2 if self.mode != "idle" else 0)
                | (4 if self.hard_error else 0)
            )
        raise DeviceError(f"disk: no register {offset}")

    def write_register(self, offset: int, value: int) -> None:
        if offset == 0:
            self.fifo.append(word(value))
            return
        if offset == 1:
            if value == STATUS_DONE:
                if self.mode == "read":
                    self.mode = "idle"
                    self.done = True
                elif self.mode == "write":
                    # Microcode is done fetching; the surface finishes
                    # absorbing the FIFO at the data rate.
                    self.mode = "write_drain"
                self.attention = True
            return
        raise DeviceError(f"disk: no register {offset}")

    def tick(self, machine, granted: bool) -> None:
        super().tick(machine, granted)
        if self.mode == "write_drain":
            self._timer -= 1
            if self._timer <= 0 and self.fifo and self.word_index < self.geometry.words_per_sector:
                if self._transfer_ok(machine):
                    self.surface[self._physical(self.sector)][self.word_index] = self.fifo.pop(0)
                    self.word_index += 1
                    self._timer = self.geometry.word_interval_cycles
            if not self.fifo or self.word_index >= self.geometry.words_per_sector:
                self.mode = "idle"
                self.done = True


def disk_microcode(asm: Assembler, io_address: int = DISK_IO_ADDRESS) -> None:
    """Emit the disk task's microcode into *asm*.

    Read direction -- the paper's three cycles for two words: each word
    moves device-to-memory in a single microinstruction (Store with the
    INPUT word on B, while the ALU bumps the buffer pointer), and the
    third instruction counts, blocks, and branches.

    Write direction -- four cycles for two words: T buffers one word so
    each fetch is two cycles old before OUTPUT uses it.
    """
    asm.registers({"dsk.ptr": REG_PTR, "dsk.cnt": REG_CNT, "dsk.st": REG_ST})

    # --- read: device -> memory ---------------------------------------------
    asm.label("disk.read_loop")
    asm.emit(r="dsk.ptr", a="RM", b="INPUT", store=True, alu="INC", load="RM")
    asm.emit(r="dsk.ptr", a="RM", b="INPUT", store=True, alu="INC", load="RM")
    asm.emit(
        r="dsk.cnt", a="RM", alu="DEC", load="RM", block=True,
        branch=("NONZERO", "disk.read_loop", "disk.read_done"),
    )
    # Completion: point IOADDRESS at the status register, then OUTPUT the
    # done code.  (The retarget takes two instructions because a literal
    # on B and the IOADDRESS_B function both need FF -- section 5.5.)
    asm.label("disk.read_done")
    asm.emit(b=io_address + 1, alu="B", load="T")
    asm.emit(b="T", ff=FF.IOADDRESS_B)
    asm.emit(r="dsk.st", b="RM", ff=FF.OUTPUT, block=True, goto="disk.idle")

    # --- write: memory -> device -----------------------------------------------
    # Prime: fetch word 0 so MD is loaded when the loop first runs.
    asm.label("disk.write_prime")
    asm.emit(r="dsk.ptr", a="RM", fetch=True, alu="INC", load="RM",
             block=True, goto="disk.write_loop")
    # Invariant entering the loop: MD = word[p], ptr = p + 1.
    asm.label("disk.write_loop")
    asm.emit(r="dsk.ptr", a="RM", fetch=True, b="MD", alu="B", load="T")
    asm.emit(r="dsk.ptr", a="RM", b="T", ff=FF.OUTPUT, alu="INC", load="RM")
    asm.emit(r="dsk.ptr", a="RM", fetch=True, ff=FF.OUTPUT_MD, alu="INC", load="RM")
    asm.emit(
        r="dsk.cnt", a="RM", alu="DEC", load="RM", block=True,
        branch=("NONZERO", "disk.write_loop", "disk.write_done"),
    )
    asm.label("disk.write_done")
    asm.emit(b=io_address + 1, alu="B", load="T")
    asm.emit(b="T", ff=FF.IOADDRESS_B)
    asm.emit(r="dsk.st", b="RM", ff=FF.OUTPUT, block=True, goto="disk.idle")

    # --- idle: woken spuriously, just block again -------------------------------
    asm.label("disk.idle")
    asm.emit(block=True, goto="disk.idle")
