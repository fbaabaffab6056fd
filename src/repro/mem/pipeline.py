"""The memory-system pipeline: timing, Hold, and per-task MEMDATA.

This is the face the processor sees (section 5.7): references start
from microinstructions and complete on their own schedule; "the memory
keeps track of when data is ready" and the processor consults
:meth:`MemorySystem.md_ready` / the ``start_*`` return values to decide
Hold.  Nothing here ever blocks the simulation -- a reference that
cannot start simply reports it, and the held instruction retries.

Timing model (constants from :class:`~repro.config.MachineConfig`):

* cache hit: MEMDATA ready ``cache_hit_cycles`` after the Fetch;
* cache miss: storage is occupied for one ``storage_cycle`` starting
  when it is free, and MEMDATA is ready ``miss_penalty`` cycles after
  the reference starts (plus any wait for storage);
* dirty evictions and fast-I/O cache flushes occupy storage for one
  additional cycle each;
* at most one reference per task is outstanding; a new storage
  reference can start each storage cycle ("fully segmented
  pipelining", section 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..config import MachineConfig
from ..errors import DeviceError
from ..fault.injector import FaultInjector
from ..fault.plan import FaultKind, InjectionPlan
from ..types import MUNCH_WORDS, NUM_TASKS, word
from ..core.counters import Counters
from .cache import LINE_DIRTY, LINE_VALID, Cache
from .fastio import FastPort, FastTransfer
from .map import ENTRY_VALID, PAGE_SHIFT, AddressTranslator
from .storage import Storage

# Fault-latch bits (FF READ_FAULTS / EXTB_FAULTS).  The stack-error
# byte (overflow in 3:0, underflow in 7:4) is merged in by the
# processor at bit 3, occupying 0x8..0x400; the storage (double-bit
# ECC) bit sits above it.
FAULT_MAP = 0x1
FAULT_WRITE_PROTECT = 0x2
FAULT_BOUNDS = 0x4
FAULT_STORAGE = 0x800


@dataclass
class _TaskRef:
    """Per-task reference state (the task-specific MEMDATA register)."""

    busy_until: int = 0   #: cycle when the task may start another reference
    md_ready_at: int = 0  #: cycle when MEMDATA becomes usable
    md_value: int = 0
    md_valid: bool = False

    def state_dict(self) -> dict:
        return {
            "busy_until": self.busy_until,
            "md_ready_at": self.md_ready_at,
            "md_value": self.md_value,
            "md_valid": self.md_valid,
        }

    def load_state(self, state: dict) -> None:
        self.busy_until = state["busy_until"]
        self.md_ready_at = state["md_ready_at"]
        self.md_value = state["md_value"]
        self.md_valid = bool(state["md_valid"])


class MemorySystem:
    """Cache + map + storage behind the Hold-based interface."""

    def __init__(self, config: MachineConfig, counters: Optional[Counters] = None) -> None:
        self.config = config
        self.counters = counters if counters is not None else Counters()
        self.translator = AddressTranslator(
            config.num_base_registers, config.base_register_bits
        )
        self.cache = Cache(config.cache_lines, config.cache_ways)
        self.storage = Storage(config.storage_words)
        self.now = 0
        self.fault_flags = 0
        self._storage_busy_until = 0
        self._refs = [_TaskRef() for _ in range(NUM_TASKS)]
        self._fast_in_flight: List[FastTransfer] = []
        #: Called with the latched bits whenever a fault latches; the
        #: processor installs the fault-task wakeup here.
        self.on_fault: Optional[callable] = None
        # Fault injection (DESIGN.md section 5.2): None by default, so
        # the timed paths below pay only an `is not None` test.
        if config.fault_injection is not None:
            self.injector: Optional[FaultInjector] = FaultInjector(
                InjectionPlan.from_config(config.fault_injection), self.counters
            )
            self.injector.bind(
                clock=lambda: self.now,
                on_uncorrectable=lambda: self._fault(FAULT_STORAGE),
            )
            self.storage.ecc = self.injector.ecc
        else:
            self.injector = None

    # --- cycle advance -------------------------------------------------------

    def tick(self) -> None:
        """Advance one machine cycle; complete due fast-I/O deliveries."""
        self.now += 1
        if self._fast_in_flight:
            due = [t for t in self._fast_in_flight if t.complete_at <= self.now]
            if due:
                self._fast_in_flight = [
                    t for t in self._fast_in_flight if t.complete_at > self.now
                ]
                for transfer in due:
                    transfer.deliver()

    # --- fault latch -----------------------------------------------------------

    def _fault(self, bits: int) -> None:
        self.fault_flags |= bits
        self.counters.faults_latched += 1
        if self.on_fault is not None:
            self.on_fault(bits)

    def read_faults(self, clear: bool) -> int:
        value = self.fault_flags
        if clear:
            self.fault_flags = 0
        return value

    # --- storage occupancy -------------------------------------------------------

    def _claim_storage(self, cycles: int = 1) -> int:
        """Occupy storage for *cycles* storage-cycles; returns start time."""
        start = max(self.now, self._storage_busy_until)
        self._storage_busy_until = start + cycles * self.config.storage_cycle
        return start

    @property
    def storage_busy(self) -> bool:
        return self._storage_busy_until > self.now

    # --- processor references (slow path, through the cache) -----------------

    def task_busy(self, task: int) -> bool:
        """True while the task's latest reference is still in the pipe."""
        return self._refs[task].busy_until > self.now

    def start_fetch(self, task: int, membase: int, displacement: int) -> bool:
        """Begin a Fetch; always proceeds (the cache takes a ref per cycle).

        MEMDATA rebinds to this, the most recent, fetch; data from a
        still-outstanding earlier fetch that was never used is simply
        lost, as on the real machine -- "MEMDATA has the value of the
        memory word most recently fetched by the current task".
        """
        ref = self._refs[task]
        va = self.translator.virtual_address(membase, displacement)
        injected = None
        if self.injector is not None:
            injected = self.injector.memory_fault_due(write=False, address=va)
            if injected is FaultKind.BOUNDS:
                self.counters.memory_fetches += 1
                self._fault(FAULT_BOUNDS)
                self._complete_fault(ref)
                return True
            if injected is not None:
                self.translator.inject_next = injected
        ra = self.translator.translate(va, write=False)
        self.counters.memory_fetches += 1
        if ra is None:
            self._fault(FAULT_MAP)
            self._complete_fault(ref)
            return True
        if not self.storage.in_range(ra):
            self._fault(FAULT_BOUNDS)
            self._complete_fault(ref)
            return True
        cache = self.cache
        line = cache.lookup(ra)
        if line is not None:
            self.counters.cache_hits += 1
            value = cache.words[line * MUNCH_WORDS + ra % MUNCH_WORDS]
            ready = self.now + self.config.cache_hit_cycles
        else:
            self.counters.cache_misses += 1
            start = self._fill_line(ra)
            value = cache.read_word(ra)
            ready = start + self.config.miss_penalty
        ref.md_value = value
        ref.md_ready_at = ready
        ref.md_valid = True
        ref.busy_until = ready
        return True

    def start_store(self, task: int, membase: int, displacement: int, data: int) -> bool:
        """Begin a Store of *data*; stores never hold (write buffering)."""
        ref = self._refs[task]
        va = self.translator.virtual_address(membase, displacement)
        injected = None
        if self.injector is not None:
            injected = self.injector.memory_fault_due(write=True, address=va)
            if injected is FaultKind.BOUNDS:
                self.counters.memory_stores += 1
                self._fault(FAULT_BOUNDS)
                self._complete_fault(ref)
                return True
            if injected is not None:
                self.translator.inject_next = injected
        ra = self.translator.translate(va, write=True)
        self.counters.memory_stores += 1
        if ra is None:
            if injected is FaultKind.MAP:
                bits = FAULT_MAP
            elif injected is FaultKind.WRITE_PROTECT:
                bits = FAULT_WRITE_PROTECT
            else:
                entry = self.translator.map.get(va >> PAGE_SHIFT, 0)
                bits = FAULT_WRITE_PROTECT if entry & ENTRY_VALID else FAULT_MAP
            self._fault(bits)
            self._complete_fault(ref)
            return True
        if not self.storage.in_range(ra):
            self._fault(FAULT_BOUNDS)
            self._complete_fault(ref)
            return True
        cache = self.cache
        line = cache.lookup(ra)
        if line is not None:
            self.counters.cache_hits += 1
            cache.words[line * MUNCH_WORDS + ra % MUNCH_WORDS] = word(data)
            cache.flags[line] = LINE_VALID | LINE_DIRTY
            ref.busy_until = self.now + 1
        else:
            self.counters.cache_misses += 1
            start = self._fill_line(ra)
            cache.write_word(ra, data)
            ref.busy_until = start + self.config.miss_penalty
        return True

    def _fill_line(self, ra: int) -> int:
        """Fetch the munch holding *ra* from storage into the cache.

        Returns the cycle at which the storage reference started.  A
        dirty victim costs one more storage cycle for its write-back.
        """
        start = self._claim_storage()
        self.counters.storage_reads += 1
        writeback = self.cache.fill(ra, self.storage.read_munch(ra))
        if writeback is not None:
            victim_address, victim_words = writeback
            self.storage.write_munch(victim_address, victim_words)
            self.counters.storage_writes += 1
            self._claim_storage()
        return start

    def _complete_fault(self, ref: _TaskRef) -> None:
        """A faulting reference completes immediately with MD = 0."""
        ref.md_value = 0
        ref.md_ready_at = self.now
        ref.md_valid = True
        ref.busy_until = self.now

    # --- MEMDATA ----------------------------------------------------------------

    def md_ready(self, task: int) -> bool:
        """Whether using MEMDATA would proceed without Hold."""
        ref = self._refs[task]
        return ref.md_valid and ref.md_ready_at <= self.now

    def read_md(self, task: int) -> int:
        """The task's MEMDATA.  Callers must have checked :meth:`md_ready`."""
        return self._refs[task].md_value

    def ref_state(self, task: int) -> tuple:
        """(md_valid, md_ready_at, storage_busy_until) for diagnostics.

        Thin alias over the snapshot protocol: the same facts, drawn
        from :meth:`_TaskRef.state_dict`, in the historical tuple shape.
        """
        ref = self._refs[task].state_dict()
        return ref["md_valid"], ref["md_ready_at"], self._storage_busy_until

    # --- snapshot protocol (DESIGN.md section 5.4) -------------------------

    def state_dict(self, port_index=None) -> dict:
        """Pipeline timing state plus the translator/cache/storage images.

        In-flight fast transfers hold references to device ports, which
        plain data cannot carry; *port_index* maps a port object to its
        machine device index (:meth:`Processor.snapshot` supplies it).
        The counters are owned by the processor and the injector is
        captured separately, so neither appears here; ``on_fault`` is a
        hook, not state.
        """
        if self._fast_in_flight and port_index is None:
            from ..errors import StateError
            raise StateError(
                "fast I/O transfers are in flight; snapshotting them "
                "requires a port_index mapping"
            )
        return {
            "now": self.now,
            "fault_flags": self.fault_flags,
            "storage_busy_until": self._storage_busy_until,
            "refs": [ref.state_dict() for ref in self._refs],
            "fast_in_flight": [
                t.state_dict(port_index) for t in self._fast_in_flight
            ],
            "translator": self.translator.state_dict(),
            "cache": self.cache.state_dict(),
            "storage": self.storage.state_dict(),
        }

    def load_state(self, state: dict, port_of=None) -> None:
        if state["fast_in_flight"] and port_of is None:
            from ..errors import StateError
            raise StateError(
                "snapshot carries in-flight fast I/O transfers; restoring "
                "them requires a port_of mapping"
            )
        self.now = state["now"]
        self.fault_flags = state["fault_flags"]
        self._storage_busy_until = state["storage_busy_until"]
        for ref, ref_state in zip(self._refs, state["refs"]):
            ref.load_state(ref_state)
        self._fast_in_flight = [
            FastTransfer.from_state(t, port_of) for t in state["fast_in_flight"]
        ]
        self.translator.load_state(state["translator"])
        self.cache.load_state(state["cache"])
        self.storage.load_state(state["storage"])

    # --- fast I/O (section 5.8) ---------------------------------------------------

    def start_fastio_fetch(
        self, task: int, membase: int, displacement: int, port: FastPort
    ) -> bool:
        """IOFetch: munch from storage to the device, bypassing the cache.

        Returns False (Hold) while storage is busy; the delivery to the
        device completes one storage cycle after it starts.
        """
        if port is None:
            raise DeviceError("IOFetch requires a fast-I/O port")
        if self.storage_busy:
            return False
        va = self.translator.virtual_address(membase, displacement)
        ra = self.translator.translate(va, write=False)
        if ra is None or not self.storage.in_range(ra):
            self._fault(FAULT_MAP if ra is None else FAULT_BOUNDS)
            return True
        # Consistency: a dirty cached copy must reach storage first.
        flushed = self.cache.flush_munch(ra)
        if flushed is not None:
            self.storage.write_munch(ra, flushed)
            self.counters.storage_writes += 1
            self._claim_storage()
        start = self._claim_storage()
        self.counters.storage_reads += 1
        self.counters.fastio_munches += 1
        words = self.storage.read_munch(ra)
        self._fast_in_flight.append(
            FastTransfer(
                complete_at=start + self.config.storage_cycle,
                port=port,
                address=Storage.munch_base(ra),
                words=words,
            )
        )
        return True

    def start_fastio_store(
        self, task: int, membase: int, displacement: int, port: FastPort
    ) -> bool:
        """IOStore: munch from the device to storage, invalidating the cache."""
        if port is None:
            raise DeviceError("IOStore requires a fast-I/O port")
        if self.storage_busy:
            return False
        va = self.translator.virtual_address(membase, displacement)
        ra = self.translator.translate(va, write=True)
        if ra is None or not self.storage.in_range(ra):
            self._fault(FAULT_MAP if ra is None else FAULT_BOUNDS)
            return True
        words = port.fast_supply(Storage.munch_base(ra))
        if len(words) != MUNCH_WORDS:
            raise DeviceError(f"fast port supplied {len(words)} words, expected {MUNCH_WORDS}")
        self._claim_storage()
        self.storage.write_munch(ra, [word(w) for w in words])
        self.counters.storage_writes += 1
        self.counters.fastio_munches += 1
        self.cache.invalidate_munch(ra)
        return True

    # --- setup/debug helpers -------------------------------------------------------

    def identity_map(self, pages: Optional[int] = None) -> None:
        """Map storage straight through (the usual test/emulator setup)."""
        if pages is None:
            pages = self.config.storage_words >> PAGE_SHIFT
        self.translator.identity_map(pages)

    def debug_read(self, va: int) -> int:
        """Untimed coherent read: cache copy if present, else storage."""
        ra = self.translator.translate(va, write=False)
        if ra is None or not self.storage.in_range(ra):
            raise DeviceError(f"debug_read: unmapped VA {va:#x}")
        # One probe: a hit bumps the line's LRU, a miss touches nothing.
        line = self.cache.lookup(ra)
        if line is not None:
            return self.cache.words[line * MUNCH_WORDS + ra % MUNCH_WORDS]
        return self.storage.read_word(ra)

    def debug_write(self, va: int, value: int) -> None:
        """Untimed coherent write: updates the cache copy if present."""
        ra = self.translator.translate(va, write=True)
        if ra is None or not self.storage.in_range(ra):
            raise DeviceError(f"debug_write: unmapped VA {va:#x}")
        if self.cache.contains(ra):
            self.cache.write_word(ra, value)
        else:
            self.storage.write_word(ra, value)
