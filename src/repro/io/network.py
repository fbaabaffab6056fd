"""A network interface controller.

The Dorado's research environment hung off "an interface to a high
bandwidth communication network" (section 2).  This model is an
Ethernet-class interface on the slow I/O system: the host injects
packets, the controller paces their words into a FIFO at line rate, and
the network task's microcode -- the same one-word-per-instruction shape
as the disk's -- stores them into a ring of receive buffers.  Transmit
drains a memory buffer back out.  Its purpose in the reproduction is to
be a *second* concurrent I/O task, so benchmarks can show several
controllers multiplexing the processor with the emulator (experiment
E9 and the examples).
"""

from __future__ import annotations

from typing import List, Optional

from ..asm.assembler import Assembler
from ..core.functions import FF
from ..errors import DeviceError
from ..state import int_array
from ..types import word
from .device import Device

REG_PTR = 0
REG_CNT = 1
REG_ST = 2

STATUS_DONE = 1

NETWORK_TASK = 11
NETWORK_IO_ADDRESS = 0x40


class NetworkController(Device):
    """Receive-and-transmit interface with host-injected packets."""

    def __init__(
        self,
        task: int = NETWORK_TASK,
        io_address: int = NETWORK_IO_ADDRESS,
        word_interval_cycles: int = 16,  #: ~16.7 Mbit/s at 60 ns
    ) -> None:
        super().__init__("network", task, io_address, register_count=2)
        self.word_interval_cycles = word_interval_cycles
        self.rx_queue: List[List[int]] = []   #: packets awaiting reception
        self.rx_current: List[int] = []
        self.fifo: List[int] = []
        self.tx_words: List[int] = []          #: words transmitted onto the wire
        self.tx_expected = 0
        self.tx_requested = 0
        self.rx_remaining = 0
        self.mode = "idle"
        self.packets_received = 0
        self.done = False
        self._timer = 0
        self._done_wakeup_sent = False

    # --- snapshot protocol (DESIGN.md section 5.4) -------------------------

    def state_dict(self) -> dict:
        state = super().state_dict()
        state.update(
            rx_queue=[list(packet) for packet in self.rx_queue],
            rx_current=list(self.rx_current),
            fifo=list(self.fifo),
            tx_words=list(self.tx_words),
            tx_expected=self.tx_expected,
            tx_requested=self.tx_requested,
            rx_remaining=self.rx_remaining,
            mode=self.mode,
            packets_received=self.packets_received,
            done=self.done,
            timer=self._timer,
            done_wakeup_sent=self._done_wakeup_sent,
            unclaimed=getattr(self, "_unclaimed", 0),
        )
        return state

    def load_state(self, state: dict) -> None:
        super().load_state(state)
        self.rx_queue = [int_array(packet) for packet in state["rx_queue"]]
        self.rx_current = int_array(state["rx_current"])
        self.fifo = int_array(state["fifo"])
        self.tx_words = int_array(state["tx_words"])
        self.tx_expected = state["tx_expected"]
        self.tx_requested = state["tx_requested"]
        self.rx_remaining = state["rx_remaining"]
        self.mode = state["mode"]
        self.packets_received = state["packets_received"]
        self.done = bool(state["done"])
        self._timer = state["timer"]
        self._done_wakeup_sent = bool(state["done_wakeup_sent"])
        self._unclaimed = state["unclaimed"]

    # --- host-side wire ---------------------------------------------------

    def inject_packet(self, words: List[int]) -> None:
        """Queue a packet on the (simulated) wire."""
        if len(words) % 2:
            raise DeviceError("packets must be an even number of words")
        self.rx_queue.append([word(w) for w in words])

    # --- transfer setup ---------------------------------------------------------

    def _setup(self, machine, buffer_va: int, count_pairs: int, entry: str) -> None:
        machine.regs.write_rbase(self.task, self.task)
        machine.regs.write_ioaddress(self.task, self.io_address)
        machine.regs.write_membase(self.task, 0)
        bank = self.task * 16
        machine.regs.write_rm_absolute(bank + REG_PTR, buffer_va)
        machine.regs.write_rm_absolute(bank + REG_CNT, count_pairs)
        machine.regs.write_rm_absolute(bank + REG_ST, STATUS_DONE)
        machine.pipe.write_tpc(self.task, machine.address_of(entry))

    def begin_receive(self, machine, buffer_va: int, packet_words: int) -> None:
        """Arm reception of the next *packet_words*-word packet."""
        if self.mode != "idle":
            raise DeviceError("network transfer already in progress")
        if packet_words % 2:
            raise DeviceError(
                "network receive must be an even number of words: the rx "
                f"microcode loop stores word pairs ({packet_words} armed)"
            )
        self._setup(machine, buffer_va, packet_words // 2, "net.rx_loop")
        self.mode = "rx"
        self.fifo = []
        self.done = False
        self._unclaimed = 0
        # A packet longer than the previous arm leaves its tail in
        # rx_current; a fresh arm must never replay it into this packet.
        self.rx_current = []
        self.rx_remaining = packet_words
        self._done_wakeup_sent = False
        self._timer = self.word_interval_cycles

    def begin_transmit(self, machine, buffer_va: int, packet_words: int) -> None:
        """Transmit *packet_words* words from memory onto the wire."""
        if self.mode != "idle":
            raise DeviceError("network transfer already in progress")
        if packet_words % 2:
            raise DeviceError(
                "network transmit must be an even number of words: the tx "
                f"microcode loop fetches word pairs ({packet_words} armed)"
            )
        self._setup(machine, buffer_va, packet_words // 2, "net.tx_prime")
        self.mode = "tx"
        self.fifo = []
        self.tx_words = []
        self.tx_expected = packet_words
        self.tx_requested = 0
        self.done = False
        self._done_wakeup_sent = False
        self._timer = self.word_interval_cycles
        self.request_service(1)  # run the priming fetch

    # --- device clock --------------------------------------------------------------

    def poll(self, machine) -> None:
        if self.mode == "rx":
            # Invariant (re-armed in begin_receive): wire words only sit
            # in rx_current while this arm still wants them.
            assert not self.rx_current or self.rx_remaining > 0, (
                "network: stale rx_current words survived across receives"
            )
            if not self.rx_current and self.rx_queue and self.rx_remaining > 0:
                self.rx_current = self.rx_queue.pop(0)
            self._timer -= 1
            if self._timer <= 0 and self.rx_current and self.rx_remaining > 0:
                self.fifo.append(self.rx_current.pop(0))
                self.rx_remaining -= 1
                self._unclaimed += 1
                self._timer = self.word_interval_cycles
                if self.rx_remaining == 0:
                    # Over-long wire packet: truncate at the armed length
                    # rather than letting the tail bleed into the next
                    # receive.
                    self.rx_current = []
            # Claim accounting: see repro/io/disk.py.
            if self._unclaimed >= 2:
                self._unclaimed -= 2
                self.request_service(1)
            if (
                self.rx_remaining == 0
                and not self.fifo
                and not self._done_wakeup_sent
                and self._service_pending == 0 and not self._was_granted
            ):
                self._done_wakeup_sent = True
                self.request_service(1)
        elif self.mode == "tx":
            self._timer -= 1
            if self._timer <= 0 and self.fifo:
                self.tx_words.append(self.fifo.pop(0))
                self._timer = self.word_interval_cycles
            requested_all = self.tx_requested >= self.tx_expected
            if not requested_all and len(self.fifo) <= 2 and self._service_pending == 0 and not self._was_granted:
                self.request_service(1)
                # Each service unit fetches one word pair; clamp so the
                # device counter can never run ahead of the microcode's.
                self.tx_requested = min(self.tx_requested + 2, self.tx_expected)
            elif (
                requested_all
                and not self._done_wakeup_sent
                and self._service_pending == 0 and not self._was_granted
            ):
                self._done_wakeup_sent = True
                self.request_service(1)
        elif self.mode == "tx_drain":
            self._timer -= 1
            if self._timer <= 0 and self.fifo:
                self.tx_words.append(self.fifo.pop(0))
                self._timer = self.word_interval_cycles
            if not self.fifo:
                self.mode = "idle"
                self.done = True

    # --- bus registers ------------------------------------------------------------------

    def read_register(self, offset: int) -> int:
        if offset == 0:
            if not self.fifo:
                # Diagnosable in the PR 5 failure-taxonomy style: enough
                # device context to triage without a live machine.
                cycle = self.machine.now if self.machine is not None else 0
                raise DeviceError(
                    f"network RX FIFO underrun (task {self.task}, "
                    f"cycle {cycle}, mode {self.mode}, "
                    f"rx_remaining {self.rx_remaining}, "
                    f"tx {self.tx_requested}/{self.tx_expected} words "
                    f"requested, {self._service_pending} service unit(s) "
                    "pending)"
                )
            return self.fifo.pop(0)
        if offset == 1:
            return 1 if self.done else 0
        raise DeviceError(f"network: no register {offset}")

    def write_register(self, offset: int, value: int) -> None:
        if offset == 0:
            self.fifo.append(word(value))
            return
        if offset == 1:
            if value == STATUS_DONE:
                if self.mode == "rx":
                    self.mode = "idle"
                    self.done = True
                    self.packets_received += 1
                elif self.mode == "tx":
                    self.mode = "tx_drain"
                self.attention = True
            return
        raise DeviceError(f"network: no register {offset}")


def network_microcode(asm: Assembler, io_address: int = NETWORK_IO_ADDRESS) -> None:
    """Emit the network task's microcode (same shapes as the disk's)."""
    asm.registers({"net.ptr": REG_PTR, "net.cnt": REG_CNT, "net.st": REG_ST})

    asm.label("net.rx_loop")
    asm.emit(r="net.ptr", a="RM", b="INPUT", store=True, alu="INC", load="RM")
    asm.emit(r="net.ptr", a="RM", b="INPUT", store=True, alu="INC", load="RM")
    asm.emit(
        r="net.cnt", a="RM", alu="DEC", load="RM", block=True,
        branch=("NONZERO", "net.rx_loop", "net.rx_done"),
    )
    asm.label("net.rx_done")
    asm.emit(b=io_address + 1, alu="B", load="T")
    asm.emit(b="T", ff=FF.IOADDRESS_B)
    asm.emit(r="net.st", b="RM", ff=FF.OUTPUT, block=True, goto="net.idle")

    asm.label("net.tx_prime")
    asm.emit(r="net.ptr", a="RM", fetch=True, alu="INC", load="RM",
             block=True, goto="net.tx_loop")
    asm.label("net.tx_loop")
    asm.emit(r="net.ptr", a="RM", fetch=True, b="MD", alu="B", load="T")
    asm.emit(r="net.ptr", a="RM", b="T", ff=FF.OUTPUT, alu="INC", load="RM")
    asm.emit(r="net.ptr", a="RM", fetch=True, ff=FF.OUTPUT_MD, alu="INC", load="RM")
    asm.emit(
        r="net.cnt", a="RM", alu="DEC", load="RM", block=True,
        branch=("NONZERO", "net.tx_loop", "net.tx_done"),
    )
    asm.label("net.tx_done")
    asm.emit(b=io_address + 1, alu="B", load="T")
    asm.emit(b="T", ff=FF.IOADDRESS_B)
    asm.emit(r="net.st", b="RM", ff=FF.OUTPUT, block=True, goto="net.idle")

    asm.label("net.idle")
    asm.emit(block=True, goto="net.idle")
