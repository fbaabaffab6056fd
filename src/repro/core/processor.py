"""The Dorado processor: one object, one ``step()`` per 60 ns cycle.

This wires the data section (ALU, shifter, RM/T/STACK, small registers),
the control section (NEXTPC, LINK, the task pipeline), the memory
system, the IFU, and the I/O device models into the synchronous machine
of the paper.  The step order inside a cycle follows Figures 2 and 3:

1. fetch the microinstruction at THISTASK's PC;
2. evaluate **Hold** (section 5.7) -- a held instruction becomes
   "no-operation, jump to self" but every clock keeps running;
3. if not held, execute: operand reads (through the **bypass** network,
   section 5.6), ALU/shifter, memory-reference start, late branch
   conditions, FF side effects, NEXTPC;
4. write TPC, make the NEXT decision (Block / preemption), publish NEXT
   to device controllers;
5. tick the devices, memory pipeline, and IFU;
6. run stage 1 of the task pipeline (arbitrate wakeups) for next cycle.

Register writeback is modelled with a one-instruction-deep pending
latch: the paper's Model 1 bypasses RESULT into the operand muxes, so an
instruction normally sees its predecessor's results; with
``config.bypass_enabled`` False the latch is not consulted and reads one
instruction deep return stale data -- the Model 0 behaviour whose
"subtle bugs and significant loss of performance" section 5.6 recounts.

The microword's semantics are written twice: here, in
:meth:`Processor._step_interp`, the interpretive reference that
re-decodes the microword's fields every cycle, and in the trace
compiler (:mod:`repro.core.tracecache`), which generates specialized
Python from them.  The live ``Processor.tier`` (initially
``config.tier``) picks what runs: ``"interp"`` the reference,
``"plan"`` each slot's compiled one-cycle step, looked up per
``(task, pc)`` in the machine's step table (DESIGN.md section 5.1), and
``"traced"`` the steps plus compiled hot regions inside ``run()``
(DESIGN.md section 5.6).  All three are bit-identical in architectural
state, counters, and cycle counts, which
``tests/test_fastpath_parity.py`` enforces.

Observability hangs off one slot, ``trace_hook``: the instrumentation
bus (:attr:`Processor.instruments`, DESIGN.md section 5.3) compiles any
number of named subscribers -- the tracer and the opcode profiler --
into that hook, restoring ``None`` when the last one detaches, and a
cycle observed by a hook always runs through the reference.  Held
cycles are attributed by cause (storage busy / MEMDATA wait / IFU
wait) in :class:`~repro.core.counters.Counters.hold_causes`,
identically on every tier.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import weakref
from typing import Callable, Dict, List, Optional, Tuple

from ..config import MachineConfig, PRODUCTION
from ..errors import ConfigError, DeviceError, EncodingError, HoldTimeout, MicrocodeCrash, StateError
from ..mem.pipeline import MemorySystem
from ..ifu.ifu import Ifu
from ..state import STATE_FORMAT_VERSION, MachineState, config_signature, restore_allowance
from ..types import EMULATOR_TASK, word
from . import functions
from .alu import Alu
from .console import Console
from .counters import (
    HOLD_CAUSE_NAMES, HOLD_IFU, HOLD_MD, HOLD_NONE, HOLD_STORAGE, Counters,
)
from .functions import FF
from .microword import (
    ASel,
    BSel,
    Condition,
    MicroInstruction,
    Misc,
    NextControl,
    NextType,
    constant_value,
)
from .nextpc import ControlSection, NextOutcome
from .plancache import MicrostoreImage
from .registers import RegisterFile
from .tracecache import CodeFamily, Composition, TraceCache
from .shifter import ShiftControl, shift, shift_masked
from .stack import StackUnit
from .taskpipe import TaskPipeline

#: Key space of the bypass latch (``Processor._pending``): RM addresses
#: are their own 0..255 keys; task *t*'s T register is ``T_KEY_BASE + t``.
T_KEY_BASE = 256

#: Consecutive held cycles after which the simulator declares livelock.
HOLD_LIMIT = 100_000

# Fault bits merged into the FF READ_FAULTS / EXTB_FAULTS word.
FAULT_STACK_SHIFT = 3  # stack error byte sits above the memory fault bits

#: What restore checks a snapshot's config against, once per config (a
#: machine's is fixed when it is built); a snapshot emits a fresh one.
_signature = functools.lru_cache(maxsize=64)(config_signature)


def _weak_hook(machine: "Processor", method: Callable) -> Callable:
    """``method(machine, *args)`` as a hook that holds *machine* weakly
    (a no-op once the machine is gone)."""
    ref = weakref.ref(machine)

    def hook(*args) -> None:
        target = ref()
        if target is not None:
            method(target, *args)

    return hook


class Processor:
    """A complete simulated Dorado."""

    def __init__(self, config: MachineConfig = PRODUCTION) -> None:
        self.config = config
        self.counters = Counters()
        self.regs = RegisterFile()
        self.stack = StackUnit()
        self.alu = Alu()
        self.pipe = TaskPipeline()
        self.control = ControlSection(config)
        self.memory = MemorySystem(config, self.counters)
        self.ifu = Ifu(self.memory, decode_cycles=config.ifu_decode_cycles)
        self.console = Console(config.im_size)
        self.tier = config.tier
        # What the plan and traced tiers run (DESIGN.md sections 5.1 and
        # 5.6): the table of compiled steps, filled per (task, pc) on
        # first fetch, and the compiled regions, both the fork family's
        # for the machine's composition.  Mechanism: never snapshotted.
        # The MicrostoreImage funnels every IM write path (console,
        # bootstrap loader, load_image, direct pokes) into
        # _invalidate_im; every other fact the code depends on is in
        # the composition (_recompose).
        self._traces = TraceCache()
        self._family = CodeFamily()
        self._composition: Optional[Composition] = None
        # The snapshot's IM section, kept until an IM write: mechanism,
        # so a cached section has the same bytes as a fresh walk.
        self._im_section: Optional[Dict[int, int]] = None
        # Nothing the machine owns refers back to it strongly (DESIGN.md
        # 5.12), so the IM- and ALUFM-write hooks reach it through a
        # weak reference.
        self.alu.on_write = _weak_hook(self, Processor._recompose)
        on_im_write = _weak_hook(self, Processor._invalidate_im)
        self.im: MicrostoreImage = MicrostoreImage(config.im_size, on_im_write)
        self.console.on_im_write = on_im_write
        self.symbols: Dict[str, int] = {}
        self.this_pc = 0
        self.halted = False
        self.now = 0
        # The raw per-cycle hook: (now, pc, inst, held).  None when nobody
        # is listening -- both cycle implementations pay exactly one
        # ``is None`` check.  The slot belongs to the instrumentation bus
        # (``self.instruments``), which compiles its subscribers into it.
        self.trace_hook: Optional[Callable[[int, int, MicroInstruction, bool], None]] = None
        self._instruments = None
        # Bypass latch, from the previous instruction: RM address -> value
        # for RM writes, T_KEY_BASE + task -> value for T writes.
        self._pending: Dict[int, int] = {}
        self._devices: List[object] = []
        self._device_by_address: Dict[int, object] = {}
        self._device_by_task: Dict[int, object] = {}
        self._published_next = EMULATOR_TASK
        self._consecutive_holds = 0
        # Fault plumbing (DESIGN.md section 5.2): an optional per-config
        # hold limit for the watchdog, and fault-task delivery -- the
        # wakeup line follows the fault latch, dropping when microcode
        # reads FF READ_FAULTS.
        self._hold_limit = config.hold_limit
        self._fault_task = config.fault_task
        if config.fault_task is not None:
            self.memory.on_fault = _weak_hook(self, Processor._on_memory_fault)
        self._recompose()

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------

    def load_image(self, image) -> None:
        """Install an assembled microcode image (see :mod:`repro.asm`).

        Task 0 is pointed at the image's entry (its first-emitted
        instruction); :meth:`boot` overrides that for other layouts.
        """
        words = list(self.im)
        for address, inst in image.words.items():
            words[address] = inst
        # One slice write: the machine leaves its fork family once, not
        # once per word.
        self.im[:] = words
        self.symbols.update(image.symbols)
        self.boot(getattr(image, "entry", 0))

    @property
    def devices(self):
        """The attached device controllers, in attachment order."""
        return tuple(self._devices)

    def attach_device(self, device) -> None:
        """Register a device controller.

        The device claims a window on the IOADDRESS bus and, if it has a
        task, the right to raise that task's wakeup line.
        """
        for offset in range(device.register_count):
            address = device.io_address + offset
            if address in self._device_by_address:
                raise DeviceError(f"IOADDRESS {address:#x} claimed twice")
            self._device_by_address[address] = device
        if device.task is not None:
            if device.task in self._device_by_task:
                raise DeviceError(f"task {device.task} claimed twice")
            if device.task == EMULATOR_TASK:
                raise DeviceError("task 0 belongs to the emulator")
            if device.task == self._fault_task:
                raise DeviceError(
                    f"task {device.task} is the fault task; a device "
                    "sharing it would fight over the wakeup line"
                )
            self._device_by_task[device.task] = device
        self._devices.append(device)
        device.attach(self)
        self._recompose()

    def boot(self, pc: int = 0, task: int = EMULATOR_TASK) -> None:
        """Point a task at *pc* and make it the running task.

        Re-booting a machine that has already run must not leak the
        previous program's in-flight state into the new one: the bypass
        latch (a result the old program staged but never committed), the
        Hold watchdog count, the IFU's buffered prefetch bytes, any
        latched memory-fault bits, and the fault injector's schedule
        cursors and trace are all cleared here -- so back-to-back
        booted runs under one injector see the identical fault plan.
        """
        if isinstance(pc, str):
            pc = self.symbols[pc]
        self.pipe.write_tpc(task, pc)
        self.pipe.this_task = task
        self.this_pc = pc
        self.halted = False
        self._pending.clear()
        self._consecutive_holds = 0
        self.ifu.flush_buffers()
        self.memory.fault_flags = 0
        if self.memory.injector is not None:
            self.memory.injector.reset()

    def address_of(self, label: str) -> int:
        return self.symbols[label]

    @property
    def fault_injector(self):
        """The machine's fault injector, or None when injection is off."""
        return self.memory.injector

    @property
    def instruments(self):
        """The machine's instrumentation bus (created on first use).

        See :class:`repro.perf.instrument.InstrumentationBus`: named
        subscribers on the ``cycle`` and ``dispatch`` channels, and
        install/uninstall that compiles down to ``trace_hook`` and
        ``Ifu.dispatch_hook`` so an idle bus costs nothing.
        """
        if self._instruments is None:
            from ..perf.instrument import InstrumentationBus

            self._instruments = InstrumentationBus(self)
        return self._instruments

    # ------------------------------------------------------------------
    # snapshot / restore / fork (DESIGN.md section 5.4)
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """The core section's architectural state, as plain data.

        Covers the processor proper: pipeline position, the bypass
        latch, and every data/control-section component.  The IM, the
        memory system, the IFU, and the devices have their own sections
        in :meth:`snapshot` -- and the compiled code, hooks, and the
        instrumentation bus are mechanism, deliberately absent.
        """
        return {
            "this_pc": self.this_pc,
            "halted": self.halted,
            "now": self.now,
            "pending": dict(self._pending),
            "published_next": self._published_next,
            "consecutive_holds": self._consecutive_holds,
            "regs": self.regs.state_dict(),
            "stack": self.stack.state_dict(),
            "alu": self.alu.state_dict(),
            "pipe": self.pipe.state_dict(),
            "control": self.control.state_dict(),
            "console": self.console.state_dict(),
            "counters": self.counters.state_dict(),
        }

    def load_state(self, state: dict) -> None:
        self.this_pc = state["this_pc"]
        self.halted = bool(state["halted"])
        self.now = state["now"]
        self._pending = dict(state["pending"])
        self._published_next = state["published_next"]
        self._consecutive_holds = state["consecutive_holds"]
        self.regs.load_state(state["regs"])
        self.stack.load_state(state["stack"])
        self.alu.load_state(state["alu"])
        self.pipe.load_state(state["pipe"])
        self.control.load_state(state["control"])
        self.console.load_state(state["console"])
        # In place: the Counters object is shared with the MemorySystem.
        self.counters.load_state(state["counters"])

    def _port_index(self, port) -> int:
        """A fast-I/O port's serializable identity: its device index."""
        for index, device in enumerate(self._devices):
            if device is port:
                return index
        raise StateError(
            "in-flight fast I/O targets a port that is not an attached "
            "device; snapshot cannot name it"
        )

    def snapshot(self):
        """Capture the complete machine as a :class:`~repro.state.MachineState`.

        The snapshot is self-contained plain data -- safe to hold across
        further stepping, serialize with ``save()``, or apply to another
        machine built with an equal config.
        """
        data = {
            "version": STATE_FORMAT_VERSION,
            "config": config_signature(self.config),
            "im": dict(self._encoded_im()),
            "core": self.state_dict(),
            "mem": self.memory.state_dict(port_index=self._port_index),
            "ifu": self.ifu.state_dict(),
            "io": [device.state_dict() for device in self._devices],
            "fault": (
                self.memory.injector.state_dict()
                if self.memory.injector is not None
                else None
            ),
        }
        return MachineState(data)

    def _encoded_im(self) -> Dict[int, int]:
        """The occupied IM slots' encodings, walked once per IM write."""
        if self._im_section is None:
            self._im_section = {
                address: inst.encode()
                for address, inst in enumerate(self.im)
                if inst is not None
            }
        return self._im_section

    def restore(self, state) -> None:
        """Apply a snapshot taken on this machine or an identical twin.

        Raises :class:`~repro.errors.StateError` when the snapshot's
        version, config signature, device roster, or fault plan does not
        match this machine, or when its arrays with no fixed length hold
        more than :data:`~repro.state.MAX_RESTORE_WORDS` words in total.
        IM slots whose stored encoding equals the current word are left
        untouched, so a restore that rewrites no slot keeps the machine
        in its fork family, running its tables (for the snapshot's
        ALUFM).
        """
        data = state.data if isinstance(state, MachineState) else state
        self._check_state(data)
        with restore_allowance():
            self._load_snapshot(data)

    def _check_state(self, data: dict) -> None:
        """Refuse a snapshot this machine cannot take (see :meth:`restore`)."""
        if data["version"] != STATE_FORMAT_VERSION:
            raise StateError(
                f"snapshot format v{data['version']} != "
                f"supported v{STATE_FORMAT_VERSION}"
            )
        if data["config"] != _signature(self.config):
            raise StateError(
                "snapshot was taken on a machine with a different config"
            )
        if len(data["io"]) != len(self._devices):
            raise StateError(
                f"snapshot has {len(data['io'])} devices; "
                f"this machine has {len(self._devices)}"
            )
        if (data["fault"] is not None) != (self.memory.injector is not None):
            raise StateError(
                "snapshot and machine disagree about fault injection"
            )
        if not all(type(a) is int and 0 <= a < len(self.im) for a in data["im"]):
            raise StateError("snapshot IM has an address outside this machine's IM")

    def _load_snapshot(self, data: dict, fault: bool = True) -> None:
        """Load a checked snapshot (*fault* False: keep the injector's own)."""
        # Only slots occupied in either image can differ.
        stored_im = data["im"]
        im = self.im
        current = self._encoded_im()
        for address in set(stored_im).union(current):
            stored = stored_im.get(address)
            if stored != current.get(address):
                im[address] = (
                    MicroInstruction.decode(stored) if stored is not None else None
                )

        self.load_state(data["core"])
        self.memory.load_state(data["mem"], port_of=lambda i: self._devices[i])
        self.ifu.load_state(data["ifu"])
        for device, device_state in zip(self._devices, data["io"]):
            device.load_state(device_state)
        if fault and self.memory.injector is not None:
            self.memory.injector.load_state(data["fault"])
        # A recording in flight describes the trajectory just replaced.
        self._traces.abort_recording()

    def fork(self, state=None, config: Optional[MachineConfig] = None) -> "Processor":
        """A fully independent copy of this machine, mid-run.

        The clone shares no architectural state with the original: it
        gets its own registers, memory, devices, and fault cursors,
        built from a :meth:`snapshot` and deep copies of the device
        models.  Stepping either machine cannot perturb the other.  It
        joins this machine's fork family (:class:`~repro.core.
        tracecache.CodeFamily`) and runs the family's step and region
        tables for its own composition, which compiled code cannot
        perturb either: it takes the machine it runs as an argument.

        The clone is built for *config* (default: this machine's), which
        may differ from it only in ``fault_injection`` (else
        :class:`~repro.errors.ConfigError`); under another plan the
        clone's injector starts fresh, as a machine built for it does.
        Given *state* (a snapshot of a machine built for *config*), the
        clone is restored from it instead of from this machine's own
        snapshot -- one restore where a fork and a restore pay two.
        """
        config = config or self.config
        if dataclasses.replace(config, fault_injection=self.config.fault_injection) != self.config:
            raise ConfigError("a fork may change only the fault plan of its parent's config")
        clone = Processor(config)
        clone.symbols = dict(self.symbols)
        # MicroInstruction objects are immutable; sharing the words is
        # safe, and restore() will not need to re-decode any of them.
        # One slice write: one notification, to still-empty tables.
        clone.im[:] = self.im
        # Same words, same encodings; IM writes replace the section
        # rather than edit it, so the two machines may share it.
        clone._im_section = self._encoded_im()
        if self.ifu.table is not None:
            clone.ifu.load_table(self.ifu.table, self.ifu._dispatch_addresses)
        for device in self._devices:
            clone.attach_device(self._clone_device(device))
        # With this ALUFM the clone has this machine's composition, and
        # so its table pair, whatever either's fault plan: generated code
        # reads the plan as data.  A restore that rewrites a slot takes
        # the clone out of the family again.
        clone.alu.load_state(self.alu.state_dict())
        clone._family = self._family
        clone._traces.use(*self._family.table(clone._composition))
        if state is None:  # our own snapshot: no checks
            clone._load_snapshot(self.snapshot().data, fault=config == self.config)
        else:
            clone.restore(state)
        return clone

    @staticmethod
    def _clone_device(device):
        """Deep-copy a device model without dragging the machine along.

        Devices hold back-references to the processor (``machine``) and,
        when faulted, to the shared injector; both are detached for the
        copy and re-established by ``attach_device`` / restore.
        """
        machine = getattr(device, "machine", None)
        injector = getattr(device, "_injector", None)
        try:
            if machine is not None:
                device.machine = None
            if injector is not None:
                device._injector = None
            clone = copy.deepcopy(device)
        finally:
            if machine is not None:
                device.machine = machine
            if injector is not None:
                device._injector = injector
        return clone

    # ------------------------------------------------------------------
    # the machine cycle
    # ------------------------------------------------------------------

    def step(self) -> None:
        """Advance the whole machine by one microcycle."""
        if self.tier == "interp":
            self._step_interp()
        else:
            self._step_compiled()

    def _step_compiled(self) -> None:
        """One cycle on the plan and traced tiers: the slot's compiled step.

        A cycle observed by a ``trace_hook`` steps through the reference
        implementation instead.
        """
        cache = self._traces
        if self.trace_hook is not None:
            cache.interp_cycles += 1
            self._step_interp()
            return
        task = self.pipe.this_task
        pc = self.this_pc
        entry = cache.steps.get((task, pc)) or cache.fill(self, task, pc)
        entry[0](self, 1)

    def _step_interp(self) -> None:
        """One cycle, interpretively: re-decode every microword field.

        This is the reference implementation; the steps and regions the
        trace compiler generates must remain observationally identical
        to it.
        """
        task = self.pipe.this_task
        pc = self.this_pc
        inst = self.im[pc]
        if inst is None:
            raise MicrocodeCrash(f"task {task} fetched uninitialized microstore at {pc:#o}")

        hold_cause = self._check_hold(inst, task)
        held = hold_cause != HOLD_NONE
        if held:
            self._consecutive_holds += 1
            if self._consecutive_holds > (self._hold_limit or HOLD_LIMIT):
                raise self._hold_timeout(task, pc, hold_cause)
            self.counters.hold_causes[hold_cause - 1] += 1
            next_pc = pc  # "no operation, jump to self"
            blocked = False
            self._commit_pending()  # clocks keep running (section 5.7)
        else:
            self._consecutive_holds = 0
            next_pc, blocked = self._execute(inst, task, pc)

        self.counters.record_cycle(task, held)
        if self.trace_hook is not None:
            self.trace_hook(self.now, pc, inst, held)

        # TPC is written every cycle with THISTASKNEXTPC (section 6.2.2).
        self.pipe.write_tpc(task, next_pc)
        nxt = self.pipe.decide_next(blocked)
        if blocked:
            self.counters.blocks += 1
        if nxt != task:
            self.counters.task_switches += 1
        self.this_pc = self.pipe.read_tpc(nxt)

        # Devices observe the NEXT published at the end of the *previous*
        # cycle; this one-cycle lag is what gives the two-instruction
        # minimum of section 6.2.1 before a wakeup can be dropped.
        granted_task = self._published_next
        self._published_next = nxt
        for device in self._devices:
            device.tick(self, granted=(granted_task == device.task))

        self.memory.tick()
        self.ifu.tick()
        self.now += 1
        self.pipe.arbitrate()

    def run(self, max_cycles: int = 1_000_000) -> int:
        """Step until FF ``HALT`` or *max_cycles*; returns cycles used."""
        if self.tier == "traced":
            return self._run_traced(max_cycles)
        # The hot loop: bind the cycle implementation and the counters
        # once instead of re-resolving them a million times.
        step = self._step_interp if self.tier == "interp" else self._step_compiled
        counters = self.counters
        start = counters.cycles
        limit = start + max_cycles
        while not self.halted and counters.cycles < limit:
            step()
        return counters.cycles - start

    def _run_traced(self, max_cycles: int) -> int:
        """The ``run()`` hot loop with the compiled-trace tier engaged.

        Executes a cached trace whenever the machine stands at a trace
        entry, runs the slot's step everywhere else, and feeds the trace
        cache's hot-region detector from the steps' back edges and from
        the pcs traces exit to.  Traces are confined
        to ``run()`` on purpose: ``run_until`` evaluates its predicate
        between *every* cycle, and ``step()`` is the single-cycle
        debugging interface -- both stay strictly per-cycle.
        """
        counters = self.counters
        start = counters.cycles
        limit = start + max_cycles
        cache = self._traces
        traces = cache.traces
        step = self._step_compiled
        pipe = self.pipe
        # While the loop runs, a switch of the machine's tables (FF
        # IM_WRITE_HI or ALUFM_WRITE, in a step) sets cache._rec_key, and
        # the loop rebinds `traces` in its recording branch.
        cache.running = True
        try:
            while not self.halted and counters.cycles < limit:
                task = pipe.this_task
                pc = self.this_pc
                hook = self.trace_hook
                if hook is None and cache._rec_key is None:
                    fn = traces.get((task, pc))
                    if fn is not None:
                        cache.entries += 1
                        before = counters.cycles
                        fn(self, limit - before)
                        ran = counters.cycles - before
                        if ran:
                            cache.traced_cycles += ran
                            # A side exit: where a trace leaves off is a
                            # region head too.
                            cache.heat((pipe.this_task, self.this_pc))
                            continue
                        # Zero progress: a fast-mode entry guard failed or
                        # the budget is smaller than one loop iteration.
                        # Fall through to the slot's step so run() always
                        # advances.
                        cache.stalls += 1
                held_before = counters.held_cycles
                step()
                if hook is not None:
                    # Instrumented cycles are invisible to the detector: a
                    # recording that spanned them would have gaps.
                    if cache._rec_key is not None:
                        cache.abort_recording()
                        traces = cache.traces
                    continue
                if counters.held_cycles != held_before:
                    continue  # a held cycle is "no-op, jump to self": no edge
                new_pc = self.this_pc
                if cache._rec_key is not None:
                    traces = cache.traces
                    cache.record_step(self, task, pc, pipe.this_task, new_pc)
                elif pipe.this_task == task and new_pc <= pc:
                    # A back edge: the classic hot-region signal (loops and
                    # re-entered service routines both produce one).
                    cache.heat((task, new_pc))
        finally:
            cache.running = False
        return counters.cycles - start

    def run_until(self, predicate: Callable[["Processor"], bool], max_cycles: int = 1_000_000) -> int:
        """Step until *predicate(self)* or *max_cycles*; returns cycles used."""
        step = self._step_interp if self.tier == "interp" else self._step_compiled
        counters = self.counters
        start = counters.cycles
        limit = start + max_cycles
        while not predicate(self) and counters.cycles < limit:
            step()
        return counters.cycles - start

    def _recompose(self) -> None:
        """Recompute the :class:`Composition` compiled code is keyed on
        (DESIGN.md section 5.1); when it changed, run the fork family's
        tables for the new one."""
        config = self.config
        composition = Composition(
            bypass=config.bypass_enabled,
            hold_limit=self._hold_limit or HOLD_LIMIT,
            im_mask=self.control.im_mask,
            page_size=self.control.page_size,
            hit_cycles=config.cache_hit_cycles,
            nbases=config.num_base_registers,
            alufm=tuple(control.encode() for control in self.alu._alufm),
            device_tasks=tuple(device.task for device in self._devices),
            fault_task=self._fault_task is not None,
        )
        if composition != self._composition:
            self._composition = composition
            self._traces.use(*self._family.table(composition))

    def _invalidate_im(self, index) -> None:
        """An IM slot (or slice) was written: the machine no longer holds
        its fork family's words, so it leaves for a family of its own."""
        self._im_section = None
        self._family = CodeFamily()
        self._traces.use(*self._family.table(self._composition))

    # ------------------------------------------------------------------
    # hold evaluation (section 5.7)
    # ------------------------------------------------------------------

    def _check_hold(self, inst: MicroInstruction, task: int) -> int:
        """The Hold decision: a HOLD_* cause code, HOLD_NONE to proceed."""
        ff = inst.ff
        ff_is_function = not inst.bsel.is_constant

        if inst.asel.starts_reference:
            if ff_is_function and ff in (FF.IOFETCH, FF.IOSTORE):
                if self.memory.storage_busy:
                    return HOLD_STORAGE

        uses_md = inst.asel.uses_memdata or (
            ff_is_function
            and ff in (FF.SHIFT_MASKMD, FF.EXTB_MEMDATA, FF.OUTPUT_MD, FF.A_MD)
        )
        if uses_md and not self.memory.md_ready(task):
            return HOLD_MD

        if NextControl.kind(inst.nc) == NextType.MISC:
            payload = NextControl.payload(inst.nc)
            if Misc(payload >> 3) == Misc.NEXTMACRO and not self.ifu.dispatch_ready:
                return HOLD_IFU
        return HOLD_NONE

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def _execute(self, inst: MicroInstruction, task: int, pc: int) -> Tuple[int, bool]:
        regs = self.regs
        ff = inst.ff
        ff_is_function = not inst.bsel.is_constant
        stack_op = inst.block and task == EMULATOR_TASK
        consumed_ifu_operand = False
        # Every MD use sees the value as of this instruction's operand
        # fetch, even if the instruction also starts a new reference.
        md_before = self.memory.read_md(task)

        # --- operand reads (first half cycle), through the bypass network.
        if stack_op:
            rm_value = self.stack.read_top()
        else:
            rm_value = self._read_rm(task, inst.rsel)
        t_value = self._read_t(task)

        # --- B bus.
        if inst.bsel.is_constant:
            b_value = constant_value(inst.bsel, ff)
        elif inst.bsel == BSel.RM:
            b_value = rm_value
        elif inst.bsel == BSel.T:
            b_value = t_value
        elif inst.bsel == BSel.Q:
            b_value = regs.q
        else:  # EXTB: FF names the external source.
            b_value = self._read_extb(task, ff)
            if ff == FF.EXTB_IFUDATA:
                consumed_ifu_operand = True

        # --- A bus (MEMADDRESS is a copy of A).
        if ff_is_function and ff == FF.A_Q:
            a_value = regs.q
        elif ff_is_function and ff == FF.A_IFUDATA:
            a_value = self.ifu.read_operand()
            consumed_ifu_operand = True
        elif ff_is_function and ff == FF.A_MD:
            a_value = md_before
        elif inst.asel in (ASel.RM, ASel.RM_FETCH, ASel.RM_STORE):
            a_value = rm_value
        elif inst.asel in (ASel.T, ASel.T_FETCH, ASel.T_STORE):
            a_value = t_value
        elif inst.asel == ASel.IFUDATA:
            a_value = self.ifu.read_operand()
            consumed_ifu_operand = True
        else:  # MEMDATA
            a_value = self.memory.read_md(task)

        # Operand reads are done: the previous instruction's results (if
        # any) land in the RAMs now -- writeback occupies the half cycle
        # after the successor's operand fetch (Figure 2).
        self._commit_pending()

        # --- ALU (second half of this cycle + first half of the next).
        alu_res = self.alu.run(inst.aluop, a_value, b_value, regs.saved_carry[task])
        if alu_res.arithmetic:
            regs.saved_carry[task] = alu_res.carry

        # --- RESULT bus: ALU output unless an FF source overrides it.
        result = alu_res.value
        if ff_is_function:
            override = self._result_override(
                task, ff, rm_value, t_value, a_value, b_value, alu_res.value
            )
            if override is not None:
                result = override

        # --- memory reference start (address = A, store data = B).
        if inst.asel.starts_reference:
            self._start_reference(inst, task, a_value, b_value, ff_is_function)

        # --- late branch condition (ORed into NEXTPC's low bit).
        condition_taken = False
        if NextControl.kind(inst.nc) == NextType.BRANCH:
            condition_taken = self._evaluate_condition(
                NextControl.branch_condition(inst.nc), task, alu_res, result
            )

        # --- FF side effects.
        if ff_is_function:
            self._apply_ff(inst, task, ff, b_value, a_value, result, md_before)

        # --- NEXTPC.
        next_result = self.control.compute(
            inst, pc, task, condition_taken, b_value, ff_is_function
        )
        if next_result.outcome == NextOutcome.NEXT_MACRO:
            if consumed_ifu_operand:
                self.ifu.consume_operand()
                consumed_ifu_operand = False
            next_pc = self.ifu.take_dispatch()
        else:
            next_pc = next_result.target
            if next_result.notify_console:
                self.console.record_notify(pc)
        if consumed_ifu_operand:
            self.ifu.consume_operand()

        # --- writeback: stage this instruction's result in the latch.
        if stack_op:
            self.stack.adjust(inst.stack_delta)
            if inst.lc.loads_rm:
                self.stack.write_top(result)
            if inst.lc.loads_t:
                self._pending[T_KEY_BASE + task] = result
        else:
            if inst.lc.loads_rm:
                self._pending[regs.rm_address(task, inst.rsel)] = result
            if inst.lc.loads_t:
                self._pending[T_KEY_BASE + task] = result

        blocked = inst.block and task != EMULATOR_TASK
        return next_pc, blocked

    # --- bypass (section 5.6) ---------------------------------------------

    def _read_rm(self, task: int, rsel: int) -> int:
        address = self.regs.rm_address(task, rsel)
        if self.config.bypass_enabled:
            pending = self._pending.get(address)
            if pending is not None:
                return pending
        return self.regs.rm[address]

    def _read_t(self, task: int) -> int:
        if self.config.bypass_enabled:
            pending = self._pending.get(T_KEY_BASE + task)
            if pending is not None:
                return pending
        return self.regs.read_t(task)

    def _commit_pending(self) -> None:
        regs = self.regs
        for key, value in self._pending.items():
            if key < T_KEY_BASE:
                regs.rm[key] = value
            else:
                regs.write_t(key - T_KEY_BASE, value)
        self._pending.clear()

    # --- EXTB sources -----------------------------------------------------

    def _read_extb(self, task: int, ff: int) -> int:
        if ff == FF.INPUT:
            device, offset = self._addressed_device(task)
            self.counters.slowio_words_in += 1
            return word(device.read_register(offset))
        if ff == FF.EXTB_MEMDATA:
            return self.memory.read_md(task)
        if ff == FF.EXTB_IFUDATA:
            return self.ifu.read_operand()
        if ff == FF.EXTB_CPREG:
            return self.console.cpreg
        if ff == FF.EXTB_FAULTS:
            return self._fault_word(clear=False)
        if ff == FF.EXTB_LINK:
            return word(self.control.read_link(task))
        if ff == FF.EXTB_IFUPC:
            return word(self.ifu.pc)
        if ff == FF.EXTB_THISTASK:
            return task
        raise EncodingError(
            f"BSelect=EXTB with FF {functions.describe(ff)} (not an EXTB selector)"
        )

    def _addressed_device(self, task: int):
        address = self.regs.read_ioaddress(task)
        device = self._device_by_address.get(address)
        if device is None:
            raise DeviceError(f"no device at IOADDRESS {address:#x} (task {task})")
        return device, address - device.io_address

    # --- RESULT overrides ----------------------------------------------------

    def _result_override(
        self,
        task: int,
        ff: int,
        rm_value: int,
        t_value: int,
        a_value: int,
        b_value: int,
        alu_value: int,
    ) -> Optional[int]:
        if ff in (FF.SHIFT_OUT, FF.SHIFT_MASKZ, FF.SHIFT_MASKMD):
            # One decode of the live SHIFTCTL covers all three shift paths.
            control = ShiftControl.decode(self.regs.shiftctl)
            if ff == FF.SHIFT_OUT:
                return shift(control, rm_value, t_value)
            if ff == FF.SHIFT_MASKZ:
                return shift_masked(control, rm_value, t_value, 0)
            return shift_masked(control, rm_value, t_value, self.memory.read_md(task))
        if ff == FF.READ_SHIFTCTL:
            return self.regs.shiftctl
        if ff == FF.RESULT_LSH:
            return (alu_value << 1) & 0xFFFF
        if ff == FF.RESULT_RSH:
            return (alu_value >> 1) & 0xFFFF
        if ff == FF.READ_COUNT:
            return self.regs.count
        if ff == FF.READ_RBASE:
            return self.regs.read_rbase(task)
        if ff == FF.READ_STACKPTR:
            return self.stack.pointer
        if ff == FF.READ_MEMBASE:
            return self.regs.read_membase(task)
        if ff == FF.READ_MAP:
            va = self.memory.translator.virtual_address(
                self.regs.read_membase(task), a_value
            )
            return self.memory.translator.map_read(va >> 8)
        if ff == FF.READ_FAULTS:
            return self._fault_word(clear=True)
        if ff == FF.READ_IOADDRESS:
            return self.regs.read_ioaddress(task)
        if ff == FF.READ_TPC:
            return self.pipe.read_tpc((b_value >> 12) & 0xF)
        if ff == FF.IM_READ_LO:
            return self.console.im_read(0, self.im)
        if ff == FF.IM_READ_MID:
            return self.console.im_read(1, self.im)
        if ff == FF.IM_READ_HI:
            return self.console.im_read(2, self.im)
        return None

    def _fault_word(self, clear: bool) -> int:
        value = self.memory.read_faults(clear) | (
            self.stack.error_flags() << FAULT_STACK_SHIFT
        )
        if clear:
            self.stack.clear_errors()
            if self._fault_task is not None:
                # The wakeup line follows the fault latch.
                self.pipe.clear_wakeup(self._fault_task)
        return word(value)

    # --- fault-task delivery and the Hold watchdog -----------------------------

    def _on_memory_fault(self, bits: int) -> None:
        self.pipe.set_wakeup(self._fault_task)

    def _hold_timeout(self, task: int, pc: int, hold_cause: int = 0) -> HoldTimeout:
        """Build the diagnosable watchdog error (section 5.7 livelock)."""
        md_valid, md_ready_at, storage_busy_until = self.memory.ref_state(task)
        cause_name = (
            HOLD_CAUSE_NAMES[hold_cause - 1]
            if 1 <= hold_cause <= len(HOLD_CAUSE_NAMES) else None
        )
        return HoldTimeout(
            task=task,
            pc=pc,
            cycle=self.now,
            holds=self._consecutive_holds,
            md_valid=md_valid,
            md_ready_at=md_ready_at,
            storage_busy_until=storage_busy_until,
            hold_cause=cause_name,
        )

    # --- memory-reference start ----------------------------------------------

    def _start_reference(
        self,
        inst: MicroInstruction,
        task: int,
        a_value: int,
        b_value: int,
        ff_is_function: bool,
    ) -> None:
        membase = self.regs.read_membase(task)
        fast = ff_is_function and inst.ff in (FF.IOFETCH, FF.IOSTORE)
        if fast:
            port = self._device_by_task.get(task)
            if port is None:
                raise DeviceError(f"task {task} started fast I/O with no device attached")
            if inst.ff == FF.IOFETCH:
                if not inst.asel.starts_fetch:
                    raise EncodingError("IOFETCH requires a Fetch ASelect")
                ok = self.memory.start_fastio_fetch(task, membase, a_value, port)
            else:
                if not inst.asel.starts_store:
                    raise EncodingError("IOSTORE requires a Store ASelect")
                ok = self.memory.start_fastio_store(task, membase, a_value, port)
        elif inst.asel.starts_fetch:
            ok = self.memory.start_fetch(task, membase, a_value)
        else:
            ok = self.memory.start_store(task, membase, a_value, b_value)
        assert ok, "reference start was pre-checked by _check_hold"

    # --- branch conditions -------------------------------------------------------

    def _evaluate_condition(
        self, condition: Condition, task: int, alu_res, result: int
    ) -> bool:
        if condition == Condition.ALU_ZERO:
            return alu_res.zero
        if condition == Condition.ALU_NONZERO:
            return not alu_res.zero
        if condition == Condition.ALU_NEG:
            return alu_res.negative
        if condition == Condition.CARRY:
            return alu_res.carry
        if condition == Condition.COUNT_NONZERO:
            taken = self.regs.count != 0
            self.regs.decrement_count()  # side effect (section 6.3.3)
            return taken
        if condition == Condition.R_ODD:
            return bool(result & 1)
        if condition == Condition.IOATN:
            device = self._device_by_address.get(self.regs.read_ioaddress(task))
            return bool(device is not None and device.attention)
        if condition == Condition.OVERFLOW:
            return alu_res.overflow
        raise EncodingError(f"unknown condition {condition!r}")

    # --- FF side effects -----------------------------------------------------------

    def _apply_ff(
        self,
        inst: MicroInstruction,
        task: int,
        ff: int,
        b: int,
        a: int,
        result: int,
        md_before: int,
    ) -> None:
        regs = self.regs

        if ff == FF.NOP or ff in (FF.A_Q, FF.A_IFUDATA, FF.A_MD, FF.IOFETCH, FF.IOSTORE):
            return
        if functions.is_membase_small(ff):
            regs.write_membase(task, functions.bank_argument(ff))
            return
        if functions.is_count_small(ff):
            regs.write_count(functions.bank_argument(ff))
            return
        if functions.is_branch_pair(ff) or functions.is_jump_page(ff):
            return  # consumed by the NEXTPC calculation

        if ff == FF.SHIFTCTL_B:
            regs.write_shiftctl(b)
        elif ff == FF.Q_B:
            regs.write_q(b)
        elif ff == FF.MULSTEP:
            self._multiply_step(task, inst.aluop, a)
        elif ff == FF.DIVSTEP:
            self._divide_step(task, inst.aluop, a)
        elif ff == FF.COUNT_B:
            regs.write_count(b)
        elif ff == FF.RBASE_B:
            regs.write_rbase(task, b)
        elif ff == FF.STACKPTR_B:
            self.stack.write_pointer(b)
        elif ff == FF.MEMBASE_B:
            regs.write_membase(task, b)
        elif ff == FF.ALUFM_WRITE:
            self.alu.write_alufm(inst.aluop, b)
        elif ff == FF.BASE_LO_B:
            self.memory.translator.write_base_low(regs.read_membase(task), b)
        elif ff == FF.BASE_HI_B:
            self.memory.translator.write_base_high(regs.read_membase(task), b)
        elif ff == FF.MAP_WRITE:
            va = self.memory.translator.virtual_address(regs.read_membase(task), a)
            self.memory.translator.map_write(va >> 8, b)
        elif ff == FF.CACHE_FLUSH:
            self._cache_flush(task, a)
        elif ff == FF.IOADDRESS_B:
            regs.write_ioaddress(task, b)
        elif ff == FF.OUTPUT:
            device, offset = self._addressed_device(task)
            device.write_register(offset, b)
            self.counters.slowio_words_out += 1
        elif ff == FF.OUTPUT_MD:
            device, offset = self._addressed_device(task)
            device.write_register(offset, md_before)
            self.counters.slowio_words_out += 1
        elif ff == FF.LINK_B:
            self.control.write_link(task, b)
        elif ff == FF.IFU_JUMP:
            self.ifu.jump(result)
        elif ff == FF.IFU_RESET:
            self.ifu.reset()
        elif ff == FF.CPREG_B:
            self.console.cpreg = word(b)
        elif ff == FF.WAKEUP_B:
            self.pipe.set_wakeup_mask(b)
        elif ff == FF.READY_B:
            self.pipe.set_ready_mask(b)
        elif ff == FF.BREAKPOINT:
            raise MicrocodeCrash(f"breakpoint executed at {self.this_pc:#o} (task {task})")
        elif ff == FF.TRACE:
            self.console.record_trace(b)
        elif ff == FF.HALT:
            self.halted = True
        elif ff == FF.IM_ADDR_B:
            self.console.latch_im_address(b)
        elif ff == FF.IM_WRITE_LO:
            self.console.im_write_low(b)
        elif ff == FF.IM_WRITE_MID:
            self.console.im_write_mid(b)
        elif ff == FF.IM_WRITE_HI:
            self.console.im_write_high(b, self.im)
        elif ff == FF.TPC_B:
            self.pipe.write_tpc((b >> 12) & 0xF, b & 0xFFF)
        elif ff in functions.RESULT_SOURCES or ff in functions.EXTB_SELECTORS:
            pass  # handled at operand/result time
        else:
            raise EncodingError(f"unimplemented FF function {functions.describe(ff)}")

    def _cache_flush(self, task: int, a_value: int) -> None:
        translator = self.memory.translator
        va = translator.virtual_address(self.regs.read_membase(task), a_value)
        ra = translator.translate(va, write=False)
        if ra is None:
            return
        flushed = self.memory.cache.flush_munch(ra)
        if flushed is not None:
            self.memory.storage.write_munch(ra, flushed)
            self.counters.storage_writes += 1
        self.memory.cache.invalidate_munch(ra)

    # --- multiply/divide steps (section 6.3.3: Q) -----------------------------

    def _multiply_step(self, task: int, aluop: int, a_value: int) -> None:
        """One step of 16x16 multiply.

        With the multiplicand on A and the running high partial product
        reaching the ALU, the hardware conditionally adds (on Q's low
        bit) and shifts RESULT:Q right one place.  Microcode runs 16 of
        these; the product ends up high half in the accumulator
        register, low half in Q.  The conditional add and the double
        shift both happen here; the instruction's ALU result is ignored.
        """
        regs = self.regs
        acc = self._read_t(task)  # convention: T holds the high partial product
        if regs.q & 1:
            total = acc + a_value
        else:
            total = acc
        carry = (total >> 16) & 1
        total &= 0xFFFF
        new_q = ((total & 1) << 15) | (regs.q >> 1)
        new_acc = (carry << 15) | (total >> 1)
        regs.write_q(new_q)
        self._pending[T_KEY_BASE + task] = word(new_acc)

    def _divide_step(self, task: int, aluop: int, a_value: int) -> None:
        """One non-restoring-free step of 32/16 divide.

        T:Q holds the running remainder:quotient; A has the divisor.
        Shift T:Q left; if the shifted remainder covers the divisor,
        subtract and set the new quotient bit (Q's low bit).
        """
        regs = self.regs
        rem = self._read_t(task)
        q = regs.q
        shifted = ((rem << 1) | (q >> 15)) & 0x1FFFF
        q = (q << 1) & 0xFFFF
        if shifted >= a_value:
            shifted -= a_value
            q |= 1
        regs.write_q(q)
        self._pending[T_KEY_BASE + task] = word(shifted)
