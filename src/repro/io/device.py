"""Device-controller base machinery.

A Dorado device controller is mostly microcode: the hardware half
(modelled by :class:`Device`) is little more than FIFOs, a couple of
registers on the IOADDRESS/IODATA busses, a wakeup line, and perhaps a
fast-I/O port.  The base class implements the section 6.2.1 wakeup
protocol:

* the controller raises its wakeup line when it has work
  (:meth:`request_service`);
* it observes NEXT, and when it sees its task has been given the
  processor it drops the line -- at the earliest opportunity the
  pipeline allows, which is during the task's first instruction --
  "unless it needs more than one unit of service";
* with ``explicit_notify=True`` the controller instead keeps the line up
  until microcode notifies it through a register write: the "simpler
  design" of section 6.2.1 whose grain is three cycles instead of two
  (experiment E5).
"""

from __future__ import annotations

from typing import List, Optional

from ..errors import DeviceError
from ..state import int_array
from ..types import MUNCH_WORDS, word


class Device:
    """Base class for device controllers.

    Subclasses override :meth:`poll` (called every cycle) and the
    register accessors; high-bandwidth devices also override the fast
    port methods.
    """

    def __init__(
        self,
        name: str,
        task: Optional[int],
        io_address: int,
        register_count: int = 2,
        explicit_notify: bool = False,
    ) -> None:
        if task is not None and not 1 <= task <= 15:
            raise DeviceError(f"device task {task} out of range 1..15")
        self.name = name
        self.task = task
        self.io_address = io_address
        self.register_count = register_count
        self.explicit_notify = explicit_notify
        self.attention = False
        self.machine = None
        self._pending_raises: List[int] = []  # cycle each unit was requested
        self._was_granted = False

    # --- lifecycle -----------------------------------------------------------

    def attach(self, machine) -> None:
        self.machine = machine

    def tick(self, machine, granted: bool) -> None:
        """One cycle of device time.

        *granted* is true while the processor's NEXT selects this
        device's task.  Seeing that, the controller retires a pending
        request and (when no more units are wanted) drops the wakeup --
        but only a request raised at least two cycles earlier can be
        retired, because "it takes a minimum of two cycles from the time
        a wakeup changes to the time the change can affect the running
        task" (section 6.2.1): a grant observed sooner must belong to an
        older request.
        """
        if granted and not self.explicit_notify:
            self._retire_seen_request(machine.now)
        self._was_granted = granted
        self.poll(machine)

    def _retire_seen_request(self, now: int) -> None:
        if self._pending_raises and self._pending_raises[0] <= now - 2:
            self._pending_raises.pop(0)
            if not self._pending_raises:
                self.machine.pipe.clear_wakeup(self.task)

    def poll(self, machine) -> None:
        """Subclass hook: advance internal device state by one cycle."""

    # --- the wakeup protocol ----------------------------------------------------

    def request_service(self, units: int = 1) -> None:
        """Raise the wakeup line for *units* units of service."""
        if self.task is None:
            raise DeviceError(f"{self.name} has no task to wake")
        now = self.machine.now if self.machine is not None else 0
        self._pending_raises.extend([now] * units)
        self.machine.pipe.set_wakeup(self.task)

    @property
    def _service_pending(self) -> int:
        """Units requested and not yet retired."""
        return len(self._pending_raises)

    def withdraw_requests(self) -> None:
        """Drop all outstanding requests (level-semantics wakeups).

        Controllers whose wakeup means "N units are ready right now"
        must drop the line when that stops being true -- e.g. when a
        preempted service burst resumes and consumes the units a fresh
        request was counting on.
        """
        self._pending_raises.clear()
        if self.task is not None and self.machine is not None:
            self.machine.pipe.clear_wakeup(self.task)

    def notify(self) -> None:
        """Explicit notification from microcode (the grain-3 protocol)."""
        if self._pending_raises:
            self._pending_raises.pop(0)
        if not self._pending_raises:
            self.machine.pipe.clear_wakeup(self.task)

    # --- snapshot protocol (DESIGN.md section 5.4) -------------------------

    def state_dict(self) -> dict:
        """Wakeup-protocol state common to every controller.

        Subclasses extend this dict with their own FIFOs and timers.
        Construction parameters (name, task, bus address) and the
        ``machine`` back-pointer are wiring, not state; the pending
        raise timestamps are absolute cycle numbers, consistent because
        the machine clock is restored alongside.
        """
        return {
            "attention": self.attention,
            "pending_raises": list(self._pending_raises),
            "was_granted": self._was_granted,
        }

    def load_state(self, state: dict) -> None:
        self.attention = bool(state["attention"])
        self._pending_raises = list(state["pending_raises"])
        self._was_granted = bool(state["was_granted"])

    # --- slow I/O registers -------------------------------------------------------

    def read_register(self, offset: int) -> int:
        raise DeviceError(f"{self.name}: register {offset} is not readable")

    def write_register(self, offset: int, value: int) -> None:
        raise DeviceError(f"{self.name}: register {offset} is not writable")

    # --- fast I/O port --------------------------------------------------------------

    def fast_deliver(self, address: int, words: List[int]) -> None:
        raise DeviceError(f"{self.name} has no fast-I/O input port")

    def fast_supply(self, address: int) -> List[int]:
        raise DeviceError(f"{self.name} has no fast-I/O output port")


class LoopbackDevice(Device):
    """A trivially simple device for tests and the quickstart example.

    Register 0 is a word FIFO: writes push, reads pop.  Register 1 reads
    the FIFO depth.  The fast port stores munches in a dictionary.  The
    host (test) side can queue input words and ask for a wakeup burst.
    """

    def __init__(self, task: Optional[int] = None, io_address: int = 0x10) -> None:
        super().__init__("loopback", task, io_address, register_count=2)
        self.fifo: List[int] = []
        self.munches = {}

    def read_register(self, offset: int) -> int:
        if offset == 0:
            return self.fifo.pop(0) if self.fifo else 0
        if offset == 1:
            return len(self.fifo)
        raise DeviceError(f"loopback: no register {offset}")

    def write_register(self, offset: int, value: int) -> None:
        if offset == 0:
            self.fifo.append(word(value))
            self.attention = True
            return
        if offset == 1:
            self.attention = False
            if self.explicit_notify:
                self.notify()
            return
        raise DeviceError(f"loopback: no register {offset}")

    def fast_deliver(self, address: int, words: List[int]) -> None:
        if len(words) != MUNCH_WORDS:
            raise DeviceError("loopback fast port expects whole munches")
        self.munches[address] = list(words)

    def fast_supply(self, address: int) -> List[int]:
        return list(self.munches.get(address, [0] * MUNCH_WORDS))

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["fifo"] = list(self.fifo)
        state["munches"] = {
            address: list(words) for address, words in self.munches.items()
        }
        return state

    def load_state(self, state: dict) -> None:
        super().load_state(state)
        self.fifo = int_array(state["fifo"])
        self.munches = {
            address: list(words) for address, words in state["munches"].items()
        }
