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

Two implementations of the cycle coexist:

* :meth:`Processor._step_interp` -- the interpretive reference, which
  re-decodes the microword's fields every cycle; and
* :meth:`Processor._step_plan` -- the fast path, which executes
  per-slot :class:`~repro.core.plancache.ExecutionPlan` objects compiled
  on first fetch and invalidated on IM writes (DESIGN.md section 5).

The live ``Processor.tier`` (initially ``config.tier``) selects between
them: ``"interp"`` the first, ``"plan"`` the second, and ``"traced"``
the second plus compiled traces inside ``run()`` (DESIGN.md section
5.6).  All three are bit-identical in architectural state, counters,
and cycle counts, which ``tests/test_fastpath_parity.py`` enforces.

Observability hangs off one slot: both cycle implementations end with a
single ``trace_hook is None`` check, and the instrumentation bus
(:attr:`Processor.instruments`, DESIGN.md section 5.3) compiles any
number of named subscribers -- the tracer and the opcode profiler --
into that hook, restoring ``None`` when the last one detaches.  Held cycles are attributed by cause (storage busy / MEMDATA
wait / IFU wait) in :class:`~repro.core.counters.Counters.hold_causes`,
identically on both paths.
"""

from __future__ import annotations

import copy
import weakref
from typing import Callable, Dict, List, Optional, Tuple

from ..config import MachineConfig, PRODUCTION
from ..errors import DeviceError, EncodingError, HoldTimeout, MicrocodeCrash
from ..mem.pipeline import MemorySystem
from ..ifu.ifu import Ifu
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
    LoadControl,
    MicroInstruction,
    Misc,
    NextControl,
    NextType,
    constant_value,
)
from .nextpc import ControlSection, NextOutcome
from .plancache import (
    A_IFU,
    A_MD,
    A_Q,
    A_RM,
    A_T,
    B_CONST,
    B_Q,
    B_RM,
    B_T,
    EXTB_CPREG,
    EXTB_IFUDATA,
    EXTB_IFUPC,
    EXTB_LINK,
    EXTB_MD,
    EXTB_THISTASK,
    NEXT_BRANCH,
    NEXT_CALL,
    NEXT_DISPATCH8,
    NEXT_DISPATCH256,
    NEXT_MACRO,
    NEXT_NOTIFY,
    NEXT_RETURN,
    NEXT_STATIC,
    REF_FETCH,
    REF_IOFETCH,
    REF_IOSTORE,
    REF_STORE,
    RES_LSH,
    RES_RSH,
    RES_SHIFT_MASKMD,
    RES_SHIFT_MASKZ,
    RES_SHIFT_OUT,
    ExecutionPlan,
    MicrostoreImage,
    compile_plan,
)
from .registers import RegisterFile
from .tracecache import TraceCache
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
        # Plans are compiled per IM slot on first fetch and dropped when
        # the slot is rewritten; the MicrostoreImage funnels every write
        # path (console, bootstrap loader, load_image, direct pokes)
        # into _invalidate_plan.
        self._plans: List[Optional[ExecutionPlan]] = [None] * config.im_size
        self.tier = config.tier
        # The compiled-trace tier (DESIGN.md section 5.6) sits on top of
        # the plan cache and shares its invalidation choke point; the
        # cache object itself is mechanism (never snapshotted, never
        # shared across fork()).
        self._traces = TraceCache()
        # Nothing the machine owns refers back to it strongly (DESIGN.md
        # 5.12), so the IM-write hook reaches it through a weak reference.
        on_im_write = _weak_hook(self, Processor._invalidate_plan)
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

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------

    def load_image(self, image) -> None:
        """Install an assembled microcode image (see :mod:`repro.asm`).

        Task 0 is pointed at the image's entry (its first-emitted
        instruction); :meth:`boot` overrides that for other layouts.
        """
        for address, inst in image.words.items():
            self.im[address] = inst
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
        # Compiled traces bind the device roster (tick unrolling, fast
        # I/O ports, IOATN): a roster change invalidates them.
        self._traces.invalidate_all()

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
        in :meth:`snapshot` -- and the plan cache, hooks, and the
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
        from ..errors import StateError

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
        from ..state import STATE_FORMAT_VERSION, MachineState, config_signature

        data = {
            "version": STATE_FORMAT_VERSION,
            "config": config_signature(self.config),
            "im": {
                address: inst.encode()
                for address, inst in enumerate(self.im)
                if inst is not None
            },
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

    def restore(self, state) -> None:
        """Apply a snapshot taken on this machine or an identical twin.

        Raises :class:`~repro.errors.StateError` when the snapshot's
        version, config signature, device roster, or fault plan does not
        match this machine.  IM slots whose stored encoding equals the
        current word are left untouched, so a warm restore keeps its
        compiled plans.
        """
        from ..errors import StateError
        from ..state import STATE_FORMAT_VERSION, MachineState, config_signature

        data = state.data if isinstance(state, MachineState) else state
        if data["version"] != STATE_FORMAT_VERSION:
            raise StateError(
                f"snapshot format v{data['version']} != "
                f"supported v{STATE_FORMAT_VERSION}"
            )
        if data["config"] != config_signature(self.config):
            raise StateError(
                "snapshot was taken on a machine with a different config"
            )
        if len(data["io"]) != len(self._devices):
            raise StateError(
                f"snapshot has {len(data['io'])} devices; "
                f"this machine has {len(self._devices)}"
            )
        injector = self.memory.injector
        if (data["fault"] is not None) != (injector is not None):
            raise StateError(
                "snapshot and machine disagree about fault injection"
            )

        # Only slots occupied in either image can differ.
        stored_im = data["im"]
        im = self.im
        if not all(type(a) is int and 0 <= a < len(im) for a in stored_im):
            raise StateError("snapshot IM has an address outside this machine's IM")
        occupied = set(stored_im)
        occupied.update(a for a, inst in enumerate(im) if inst is not None)
        for address in occupied:
            stored = stored_im.get(address)
            cur = im[address]
            if stored != (cur.encode() if cur is not None else None):
                im[address] = (
                    MicroInstruction.decode(stored) if stored is not None else None
                )

        self.load_state(data["core"])
        self.memory.load_state(data["mem"], port_of=lambda i: self._devices[i])
        self.ifu.load_state(data["ifu"])
        for device, device_state in zip(self._devices, data["io"]):
            device.load_state(device_state)
        if injector is not None:
            injector.load_state(data["fault"])
        # Compiled traces are dropped on every restore (even a warm one
        # that kept its plans): they bind register/ref objects that
        # load_state may have replaced, and the protocol's byte-identity
        # guarantee is simplest to audit when a restored machine always
        # re-warms from the plan path.
        self._traces.invalidate_all()

    def fork(self, state=None) -> "Processor":
        """A fully independent copy of this machine, mid-run.

        The clone shares nothing mutable with the original: it gets its
        own registers, memory, devices, and fault cursors, built from a
        :meth:`snapshot` and deep copies of the device models.  Stepping
        either machine cannot perturb the other.

        Given *state* (a snapshot of this machine or an identical twin),
        the clone is restored from it instead of from this machine's own
        snapshot: the same program and devices, that state -- one restore
        where a fork followed by a restore would pay two.
        """
        snap = self.snapshot() if state is None else state
        clone = Processor(self.config)
        clone.symbols = dict(self.symbols)
        # MicroInstruction objects are immutable; sharing the words is
        # safe, and restore() will not need to re-decode any of them.
        for address, inst in enumerate(self.im):
            if inst is not None:
                clone.im[address] = inst
        if self.ifu.table is not None:
            clone.ifu.load_table(self.ifu.table, self.ifu._dispatch_addresses)
        for device in self._devices:
            clone.attach_device(self._clone_device(device))
        clone.restore(snap)
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
            self._step_plan()

    def _step_interp(self) -> None:
        """One cycle, interpretively: re-decode every microword field.

        This is the reference implementation; :meth:`_step_plan` must
        remain observationally identical to it.
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
        step = self._step_interp if self.tier == "interp" else self._step_plan
        counters = self.counters
        start = counters.cycles
        limit = start + max_cycles
        while not self.halted and counters.cycles < limit:
            step()
        return counters.cycles - start

    def _run_traced(self, max_cycles: int) -> int:
        """The ``run()`` hot loop with the compiled-trace tier engaged.

        Executes a cached trace whenever the machine stands at a trace
        entry, plan-steps everywhere else, and feeds the trace cache's
        hot-region detector from the plain steps' back edges and from
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
        step = self._step_plan
        pipe = self.pipe
        memory = self.memory
        while not self.halted and counters.cycles < limit:
            task = pipe.this_task
            pc = self.this_pc
            hook = self.trace_hook
            if hook is None and cache._rec_key is None and not memory.fault_flags:
                fn = traces.get((task, pc))
                if fn is not None:
                    cache.entries += 1
                    before = counters.cycles
                    fn(self, limit - before)
                    ran = counters.cycles - before
                    if ran:
                        cache.traced_cycles += ran
                        if not memory.fault_flags:
                            # A side exit: where a trace leaves off is a
                            # region head too.
                            cache.heat((pipe.this_task, self.this_pc))
                        continue
                    # Zero progress: a fast-mode entry guard failed or
                    # the budget is smaller than one loop iteration.
                    # Fall through to a plan step so run() always
                    # advances.
                    cache.stalls += 1
            held_before = counters.held_cycles
            step()
            if hook is not None:
                # Instrumented cycles are invisible to the detector: a
                # recording that spanned them would have gaps.
                if cache._rec_key is not None:
                    cache.abort_recording()
                continue
            if counters.held_cycles != held_before:
                continue  # a held cycle is "no-op, jump to self": no edge
            new_pc = self.this_pc
            if cache._rec_key is not None:
                cache.record_step(self, task, pc, pipe.this_task, new_pc)
            elif pipe.this_task == task and new_pc <= pc:
                # A back edge: the classic hot-region signal (loops and
                # re-entered service routines both produce one).
                cache.heat((task, new_pc))
        return counters.cycles - start

    def run_until(self, predicate: Callable[["Processor"], bool], max_cycles: int = 1_000_000) -> int:
        """Step until *predicate(self)* or *max_cycles*; returns cycles used."""
        step = self._step_interp if self.tier == "interp" else self._step_plan
        counters = self.counters
        start = counters.cycles
        limit = start + max_cycles
        while not predicate(self) and counters.cycles < limit:
            step()
        return counters.cycles - start

    # ------------------------------------------------------------------
    # the execution-plan fast path (DESIGN.md section 5)
    # ------------------------------------------------------------------

    def _invalidate_plan(self, index) -> None:
        """Drop the compiled plan(s) for a rewritten IM slot.

        Compiled traces span many slots and fold plan fields into
        generated source, so any IM write drops the whole trace cache
        (hot counts, blacklist and in-flight recordings included) --
        simple, and trivially stale-proof.
        """
        if isinstance(index, slice):
            for i in range(*index.indices(len(self._plans))):
                self._plans[i] = None
        else:
            self._plans[index] = None
        self._traces.invalidate_all()

    def _get_plan(self, pc: int, task: int) -> ExecutionPlan:
        """The slot's plan, compiling it on this first fetch."""
        inst = self.im[pc]
        if inst is None:
            raise MicrocodeCrash(f"task {task} fetched uninitialized microstore at {pc:#o}")
        plan = compile_plan(inst, pc, self.control)
        self._plans[pc] = plan
        return plan

    def _step_plan(self) -> None:
        """One cycle through the plan cache.

        Same observable behaviour as :meth:`_step_interp`, with decode
        hoisted to compile time and the cycle tail (counters, TPC, the
        NEXT decision, clock ticks, arbitration) inlined.
        """
        pipe = self.pipe
        task = pipe.this_task
        pc = self.this_pc
        plan = self._plans[pc]
        if plan is None:
            plan = self._get_plan(pc, task)
        memory = self.memory

        # --- Hold (section 5.7); mirrors _check_hold, cause included.
        held = False
        if not plan.hold_none:
            if plan.hold_fastio and memory.storage_busy:
                held = True
                hold_cause = HOLD_STORAGE
            elif plan.hold_md and not memory.md_ready(task):
                held = True
                hold_cause = HOLD_MD
            elif plan.hold_nextmacro and not self.ifu.dispatch_ready:
                held = True
                hold_cause = HOLD_IFU
        if held:
            self._consecutive_holds += 1
            if self._consecutive_holds > (self._hold_limit or HOLD_LIMIT):
                raise self._hold_timeout(task, pc, hold_cause)
            self.counters.hold_causes[hold_cause - 1] += 1
            next_pc = pc  # "no operation, jump to self"
            blocked = False
            if self._pending:
                self._commit_pending()  # clocks keep running (section 5.7)
        else:
            self._consecutive_holds = 0
            next_pc, blocked = self._execute_plan(plan, task, pc)

        counters = self.counters
        counters.cycles += 1
        counters.task_cycles[task] += 1
        if held:
            counters.held_cycles += 1
            counters.task_held[task] += 1
        else:
            counters.instructions += 1
            counters.task_instructions[task] += 1
        if self.trace_hook is not None:
            self.trace_hook(self.now, pc, plan.inst, held)

        # TPC is written every cycle with THISTASKNEXTPC (section 6.2.2);
        # then the NEXT decision (TaskPipeline.decide_next, inlined).
        tpc = pipe.tpc
        tpc[task] = next_pc
        best = pipe.best_task
        if blocked:
            counters.blocks += 1
            pipe.ready &= ~(1 << task)
            nxt = best
        elif best > task:
            pipe.ready |= 1 << task
            nxt = best
        else:
            nxt = task
        pipe.ready &= ~(1 << nxt)
        pipe.this_task = nxt
        if nxt != task:
            counters.task_switches += 1
        self.this_pc = tpc[nxt]

        # Devices observe the NEXT published at the end of the *previous*
        # cycle (the two-instruction minimum of section 6.2.1).
        granted_task = self._published_next
        self._published_next = nxt
        for device in self._devices:
            device.tick(self, granted=(granted_task == device.task))

        # Clock the memory and the IFU; both reduce to now += 1 when
        # nothing is in flight.
        if memory._fast_in_flight:
            memory.tick()
        else:
            memory.now += 1
        ifu = self.ifu
        if ifu.running:
            ifu.tick()
        else:
            ifu.now += 1
        self.now += 1

        # Stage 1 of the task pipeline (TaskPipeline.arbitrate, inlined).
        requests = pipe.lines | pipe.ready
        best = requests.bit_length() - 1 if requests else EMULATOR_TASK
        pipe.best_task = best
        pipe.best_pc = tpc[best]

    def _execute_plan(self, plan: ExecutionPlan, task: int, pc: int) -> Tuple[int, bool]:
        """Execute one compiled instruction; mirrors :meth:`_execute`."""
        regs = self.regs
        memory = self.memory
        pending = self._pending
        bypass = self.config.bypass_enabled
        ff = plan.ff
        stack_op = plan.block and task == EMULATOR_TASK
        # Every MD use sees the value as of this instruction's operand
        # fetch, even if the instruction also starts a new reference.
        md_before = memory._refs[task].md_value

        # --- operand reads (first half cycle), through the bypass network.
        if stack_op:
            rm_value = self.stack.read_top()
        else:
            rm_addr = ((regs.rbase[task] & 0xF) << 4) | plan.rsel
            rm_value = pending.get(rm_addr) if bypass else None
            if rm_value is None:
                rm_value = regs.rm[rm_addr]
        t_value = pending.get(T_KEY_BASE + task) if bypass else None
        if t_value is None:
            t_value = regs.t[task]

        # --- B bus.
        b_kind = plan.b_kind
        if b_kind == B_CONST:
            b_value = plan.b_const
        elif b_kind == B_RM:
            b_value = rm_value
        elif b_kind == B_T:
            b_value = t_value
        elif b_kind == B_Q:
            b_value = regs.q
        else:  # EXTB: the plan names the external source.
            extb = plan.extb_kind
            if extb == EXTB_MD:
                b_value = md_before
            elif extb == EXTB_IFUDATA:
                b_value = self.ifu.read_operand()
            elif extb == EXTB_CPREG:
                b_value = self.console.cpreg
            elif extb == EXTB_LINK:
                b_value = word(self.control.link[task])
            elif extb == EXTB_IFUPC:
                b_value = word(self.ifu.pc)
            elif extb == EXTB_THISTASK:
                b_value = task
            else:  # INPUT, FAULTS, or a mis-encoded selector
                b_value = self._read_extb(task, ff)

        # --- A bus (MEMADDRESS is a copy of A).
        a_kind = plan.a_kind
        if a_kind == A_RM:
            a_value = rm_value
        elif a_kind == A_T:
            a_value = t_value
        elif a_kind == A_MD:
            a_value = md_before
        elif a_kind == A_IFU:
            a_value = self.ifu.read_operand()
        else:  # A_Q
            a_value = regs.q

        # Operand reads are done: the previous instruction's results (if
        # any) land in the RAMs now (Figure 2).
        if pending:
            rm = regs.rm
            t = regs.t
            for key, value in pending.items():
                if key < T_KEY_BASE:
                    rm[key] = value
                else:
                    t[key - T_KEY_BASE] = value & 0xFFFF
            pending.clear()

        # --- ALU (direct-dispatch closure; same facts as AluResult).
        alu_value, carry, overflow, arithmetic = self.alu.fast_ops[plan.aluop](
            a_value, b_value, regs.saved_carry[task]
        )
        if arithmetic:
            regs.saved_carry[task] = carry

        # --- RESULT bus: ALU output unless an FF source overrides it.
        result = alu_value
        res_kind = plan.res_kind
        if res_kind:
            if res_kind == RES_SHIFT_OUT:
                result = shift(ShiftControl.decode(regs.shiftctl), rm_value, t_value)
            elif res_kind == RES_SHIFT_MASKZ:
                result = shift_masked(
                    ShiftControl.decode(regs.shiftctl), rm_value, t_value, 0
                )
            elif res_kind == RES_SHIFT_MASKMD:
                result = shift_masked(
                    ShiftControl.decode(regs.shiftctl), rm_value, t_value, md_before
                )
            elif res_kind == RES_LSH:
                result = (alu_value << 1) & 0xFFFF
            elif res_kind == RES_RSH:
                result = (alu_value >> 1) & 0xFFFF
            else:  # RES_OTHER: the READ_* family
                override = self._result_override(
                    task, ff, rm_value, t_value, a_value, b_value, alu_value
                )
                if override is not None:
                    result = override

        # --- memory reference start (address = A, store data = B).
        ref_kind = plan.ref_kind
        if ref_kind:
            membase = regs.membase[task]
            if ref_kind == REF_FETCH:
                memory.start_fetch(task, membase, a_value)
            elif ref_kind == REF_STORE:
                memory.start_store(task, membase, a_value, b_value)
            elif ref_kind == REF_IOFETCH:
                port = self._device_by_task.get(task)
                if port is None:
                    raise DeviceError(
                        f"task {task} started fast I/O with no device attached"
                    )
                memory.start_fastio_fetch(task, membase, a_value, port)
            elif ref_kind == REF_IOSTORE:
                port = self._device_by_task.get(task)
                if port is None:
                    raise DeviceError(
                        f"task {task} started fast I/O with no device attached"
                    )
                memory.start_fastio_store(task, membase, a_value, port)
            else:  # REF_BAD: raise the exact interpretive error
                self._start_reference(plan.inst, task, a_value, b_value, plan.ff_is_function)

        # --- late branch condition (ORed into NEXTPC's low bit).
        condition_taken = False
        cond = plan.cond
        if cond >= 0:
            if cond == 0:  # ALU_ZERO
                condition_taken = alu_value == 0
            elif cond == 1:  # ALU_NONZERO
                condition_taken = alu_value != 0
            elif cond == 2:  # ALU_NEG
                condition_taken = alu_value >= 0x8000
            elif cond == 3:  # CARRY
                condition_taken = carry
            elif cond == 4:  # COUNT_NONZERO, with the decrement side effect
                condition_taken = regs.count != 0
                regs.count = (regs.count - 1) & 0xFFFF
            elif cond == 5:  # R_ODD
                condition_taken = bool(result & 1)
            elif cond == 7:  # OVERFLOW
                condition_taken = overflow
            else:  # IOATN
                device = self._device_by_address.get(regs.ioaddress[task])
                condition_taken = bool(device is not None and device.attention)

        # --- FF side effects.
        if plan.ff_effect:
            self._apply_ff(plan.inst, task, ff, b_value, a_value, result, md_before)

        # --- NEXTPC (targets precomputed per slot; see compile_plan).
        consumed = plan.consumes_ifu
        next_kind = plan.next_kind
        if next_kind == NEXT_STATIC:
            next_pc = plan.next_target
        elif next_kind == NEXT_BRANCH:
            next_pc = plan.next_target | (1 if condition_taken else 0)
        elif next_kind == NEXT_MACRO:
            if consumed:
                self.ifu.consume_operand()
                consumed = False
            next_pc = self.ifu.take_dispatch()
        elif next_kind == NEXT_CALL:
            self.control.link[task] = plan.link_value
            next_pc = plan.next_target
        elif next_kind == NEXT_RETURN:
            link = self.control.link
            next_pc = link[task]
            link[task] = plan.link_value
        elif next_kind == NEXT_DISPATCH8:
            next_pc = (plan.next_target + (b_value & 0x7)) & self.control.im_mask
        elif next_kind == NEXT_DISPATCH256:
            next_pc = (plan.next_target + (b_value & 0xFF)) & self.control.im_mask
        elif next_kind == NEXT_NOTIFY:
            next_pc = plan.next_target
            self.console.record_notify(pc)
        else:  # NEXT_BAD: mis-encoded; the reference path raises
            self.control.compute(
                plan.inst, pc, task, condition_taken, b_value, plan.ff_is_function
            )
            raise AssertionError("NEXT_BAD plan failed to raise")
        if consumed:
            self.ifu.consume_operand()

        # --- writeback: stage this instruction's result in the latch.
        # The RM address is recomputed because an FF (RBASE_B) may have
        # changed RBASE this very instruction.
        if stack_op:
            self.stack.adjust(plan.stack_delta)
            if plan.loads_rm:
                self.stack.write_top(result)
            if plan.loads_t:
                pending[T_KEY_BASE + task] = result
        else:
            if plan.loads_rm:
                pending[((regs.rbase[task] & 0xF) << 4) | plan.rsel] = result
            if plan.loads_t:
                pending[T_KEY_BASE + task] = result

        return next_pc, plan.block and task != EMULATOR_TASK

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
            # Compiled traces inline ALUFM semantics into generated
            # code; rewriting an ALU operation drops them all.
            self._traces.invalidate_all()
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
