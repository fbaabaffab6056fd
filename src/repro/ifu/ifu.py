"""The instruction fetch unit.

Behavioral model with the timing that matters to the processor:

* **Steady state**: the buffer runs ahead of execution (one word -- two
  bytes -- fetched per cycle into a six-byte buffer), so NextMacro finds
  a decoded dispatch ready and a simple macroinstruction executes in a
  single microinstruction with no stall -- the paper's headline
  "can execute a simple macroinstruction in one cycle".
* **After a jump** (FF ``IFU_JUMP``): the buffer is flushed; bytes
  arrive a word per cycle, plus a decode cycle, so the next NextMacro
  holds for a few cycles -- the taken-branch penalty.

The IFU reads the byte stream through its own memory port.  Code is
read coherently (through the cache image) but untimed; the contention
this ignores is small because the buffer amortizes one word fetch over
one-or-more-byte instructions.  Self-modifying macro code is not
supported (it wasn't meaningfully supported on the real machine either:
the IFU buffer there was equally unaware of stores).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..errors import EmulatorError
from ..types import word
from .decoder import DecodeEntry, DecodeTable

#: Bytes of lookahead buffer (the real IFU buffered six bytes).
BUFFER_BYTES = 6


class Ifu:
    """The instruction fetch unit, clocked by :meth:`tick`."""

    def __init__(self, memory, decode_cycles: int = 1, code_membase: int = 0) -> None:
        self.memory = memory
        self.decode_cycles = decode_cycles
        self.code_membase = code_membase
        self.table: Optional[DecodeTable] = None
        self._dispatch_addresses: Dict[str, int] = {}
        self.now = 0
        self.running = False
        self.pc = 0             # byte address of the next undispatched instruction
        self._buffered = 0      # byte address one past the buffered prefix
        self._ready_at = 0      # cycle when the head instruction is decoded
        self._head: Optional[DecodeEntry] = None
        self._head_opcode: Optional[int] = None  # the byte _head came from
        self._head_invalid = False
        self._head_operands: List[int] = []
        self._current_operands: List[int] = []  # IFUDATA for the executing macro
        self.dispatches = 0     # macroinstructions dispatched (for stats)
        # First-class dispatch observation point: called as
        # ``dispatch_hook(entry, address)`` after each take_dispatch,
        # with the consumed DecodeEntry and its handler microaddress.
        # None (one check per dispatch) when nobody listens.  Managed by
        # the instrumentation bus so profilers never have to
        # monkey-patch take_dispatch.
        self.dispatch_hook: Optional[Callable[[DecodeEntry, int], None]] = None

    # --- configuration ---------------------------------------------------

    def load_table(self, table: DecodeTable, dispatch_addresses: Dict[str, int]) -> None:
        """Install an ISA's decode table with resolved handler addresses."""
        missing = [l for l in table.dispatch_labels() if l not in dispatch_addresses]
        if missing:
            raise EmulatorError(f"unresolved dispatch labels: {missing}")
        self.table = table
        self._dispatch_addresses = dict(dispatch_addresses)

    # --- control from microcode -------------------------------------------

    def start(self, byte_pc: int) -> None:
        """Point the IFU at a byte stream and begin prefetching."""
        if self.table is None:
            raise EmulatorError("IFU started with no decode table loaded")
        self.running = True
        self.jump(byte_pc)

    def jump(self, byte_pc: int) -> None:
        """FF ``IFU_JUMP``: redirect the stream, flushing the buffer."""
        self.pc = word(byte_pc)
        self._buffered = self.pc
        self._head = None
        self._head_invalid = False
        self._head_operands = []

    def reset(self) -> None:
        """FF ``IFU_RESET``: stop prefetching."""
        self.running = False
        self._head = None
        self._head_invalid = False
        self._head_operands = []
        self._current_operands = []

    def flush_buffers(self) -> None:
        """Forget all prefetch progress: buffered prefix, head, operands.

        Like :meth:`jump` at the current PC, but also drops any pending
        IFUDATA -- the reset path :meth:`Processor.boot` uses so a
        re-booted machine carries no residue from a prior run.
        """
        self._buffered = self.pc
        self._head = None
        self._head_invalid = False
        self._head_operands = []
        self._current_operands = []

    # --- clock ------------------------------------------------------------

    def tick(self) -> None:
        """One cycle of prefetch and decode."""
        self.now += 1
        if not self.running:
            return
        if self._buffered - self.pc < BUFFER_BYTES:
            self._buffered += 2  # one word of the stream per cycle
        if self._head is None:
            self._try_decode()

    def _byte(self, address: int) -> int:
        """A byte of the macro code stream (big-endian within words).

        Each call is one coherent read, with its side effects: the map
        entry's referenced bit and, on a cache hit, an LRU bump.
        """
        memory = self.memory
        bases = memory.translator.bases
        w = memory.debug_read(bases[self.code_membase % len(bases)] + (address >> 1))
        return (w >> 8) & 0xFF if (address & 1) == 0 else w & 0xFF

    def _try_decode(self) -> None:
        pc = self.pc
        if self._buffered <= pc:
            return
        try:
            opcode = self._byte(pc)
            entry = self.table.entry(opcode)
        except EmulatorError:
            # Prefetch ran into bytes that are not instructions (e.g.
            # past a HALT).  Harmless unless actually dispatched.
            self._head_invalid = True
            return
        self._head_invalid = False
        count = entry.operand_bytes
        if self._buffered < pc + 1 + count:
            return
        self._head = entry
        self._head_opcode = opcode
        self._head_operands = (
            entry.operand_values([self._byte(pc + 1 + i) for i in range(count)])
            if count else []
        )
        self._ready_at = self.now + self.decode_cycles

    # --- processor interface -------------------------------------------------

    @property
    def dispatch_ready(self) -> bool:
        """Whether NextMacro would proceed this cycle without Hold."""
        if self.running and self._head_invalid:
            raise EmulatorError(
                f"macro execution reached an undefined opcode at byte PC {self.pc:#x}"
            )
        return self.running and self._head is not None and self.now >= self._ready_at

    def take_dispatch(self) -> int:
        """Consume the decoded head instruction; returns its microaddress.

        After this, :attr:`pc` is the byte address of the *following*
        macroinstruction (what EXTB_IFUPC reads -- the return address for
        calls) and the consumed instruction's operands are current on
        IFUDATA.
        """
        assert self.dispatch_ready, "take_dispatch without dispatch_ready"
        entry = self._head
        self._current_operands = self._head_operands
        self.pc = word(self.pc + 1 + entry.operand_bytes)
        self._head = None
        self._head_operands = []
        self.dispatches += 1
        self._try_decode()  # decode of the successor overlaps execution
        address = self._dispatch_addresses[entry.dispatch]
        if self.dispatch_hook is not None:
            self.dispatch_hook(entry, address)
        return address

    @property
    def operand_ready(self) -> bool:
        return bool(self._current_operands)

    def read_operand(self) -> int:
        """IFUDATA: "as each operand is used, the IFU provides the next"."""
        if not self._current_operands:
            raise EmulatorError("microcode read IFUDATA with no operand pending")
        return self._current_operands[0]

    def consume_operand(self) -> None:
        """Advance past the current operand (called on instruction commit)."""
        if self._current_operands:
            self._current_operands.pop(0)

    # --- snapshot protocol (DESIGN.md section 5.4) -------------------------

    def state_dict(self) -> dict:
        """Stream position, buffer fill, and the decoded head.

        The decode table, dispatch addresses, and dispatch hook are
        mechanism, not state; the head :class:`DecodeEntry` is named by
        the opcode byte it was decoded from and re-decoded through the
        installed table on load.  Memory is not read: a code-byte read
        would set a referenced bit or bump a cache line's LRU.
        """
        head_opcode = self._head_opcode if self._head is not None else None
        return {
            "now": self.now,
            "running": self.running,
            "pc": self.pc,
            "buffered": self._buffered,
            "ready_at": self._ready_at,
            "head_opcode": head_opcode,
            "head_invalid": self._head_invalid,
            "head_operands": list(self._head_operands),
            "current_operands": list(self._current_operands),
            "dispatches": self.dispatches,
        }

    def load_state(self, state: dict) -> None:
        head_opcode = state["head_opcode"]
        if head_opcode is not None and self.table is None:
            from ..errors import StateError
            raise StateError(
                "IFU snapshot carries a decoded head but no decode table "
                "is loaded on this machine"
            )
        self.now = state["now"]
        self.running = bool(state["running"])
        self.pc = state["pc"]
        self._buffered = state["buffered"]
        self._ready_at = state["ready_at"]
        self._head = (
            self.table.entry(head_opcode) if head_opcode is not None else None
        )
        self._head_opcode = head_opcode
        self._head_invalid = bool(state["head_invalid"])
        self._head_operands = list(state["head_operands"])
        self._current_operands = list(state["current_operands"])
        self.dispatches = state["dispatches"]
