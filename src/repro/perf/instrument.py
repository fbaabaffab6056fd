"""The instrumentation bus: composable, zero-cost-when-empty observability.

The Dorado was debugged and tuned without scope probes -- section 4's
console and the section 7 tables came from microcode counters and
traces.  The simulator's equivalents (:class:`~repro.perf.tracing.
PipelineTracer`, :class:`~repro.perf.measure.OpcodeProfiler`, the fault
injector's trace) used to fight over a single mutable
``Processor.trace_hook`` slot: installing one silently dropped another,
and the profiler additionally monkey-patched ``Ifu.take_dispatch`` with
no teardown.  Following the cycle-accurate-simulator-generation
literature (Reshadi & Dutt, PAPERS.md), instrumentation is now a
first-class layer with a hard rule: **when nothing is attached, the hot
loop pays exactly one ``is None`` check per cycle** -- the same check
the PR 1 plan-cache fast path already carried.

:class:`InstrumentationBus` (one per machine, created lazily by
``Processor.instruments``) keeps *named* subscribers in deterministic
installation order and fans events out to per-kind channels:

``cycle``
    every machine cycle: ``cb(now, task, pc, inst, held)``.  ``inst``
    is the fetched :class:`~repro.core.microword.MicroInstruction` and
    ``task`` the task that executed (or held) this cycle.
``dispatch``
    every IFU NextMacro dispatch: ``cb(now, entry, address)`` with the
    :class:`~repro.ifu.decoder.DecodeEntry` being dispatched and its
    handler microaddress.  Delivered through ``Ifu.dispatch_hook`` --
    no monkey-patching, so detach can never strand a wrapper.
``hold_start`` / ``hold_end``
    derived from the cycle stream per task: ``cb(now, task, pc)`` when
    a task's first held cycle is observed, ``cb(now, task, pc, length)``
    on its first non-held cycle afterwards (*length* = held cycles in
    the span).  Spans are per-task: another task running in between
    does not close a window.
``task_switch``
    ``cb(now, previous_task, task)`` when the executing task changes
    between consecutive cycles.
``fault``
    ``cb(record)`` for every :class:`~repro.fault.plan.FaultRecord`
    the injector appends to its trace (no-op on machines without
    fault injection).

The bus *compiles* the subscriber set into the machine's three
single-callable attachment points (``Processor.trace_hook``,
``Ifu.dispatch_hook``, ``FaultInjector.on_record``) on every
install/uninstall.  A hook assigned directly by outside code (the
pre-bus idiom) is captured as a *foreign* hook and chained after the
bus's subscribers, so legacy callers keep working; when the last
subscriber detaches, the foreign hook -- or ``None`` -- is restored
exactly.

:func:`metrics_snapshot` is the structured export built on the same
counters the bus observes: every :class:`~repro.core.counters.Counters`
field, per-task utilization, and hold-cause attribution, as one
JSON-serializable dict (``python -m repro --metrics-json`` writes it).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Tuple

#: Channel names, in the order install() accepts them.  The last four
#: are the recovery channels (DESIGN.md 5.5): they are *published* by
#: the recovery supervisor through :meth:`InstrumentationBus.publish`
#: rather than compiled into the machine's hook slots, so subscribing
#: to them costs the hot loop nothing.
CHANNELS = (
    "cycle", "dispatch", "hold_start", "hold_end", "task_switch", "fault",
    "check_fail", "rollback", "replay", "degrade",
)


class InstrumentationBus:
    """Named multi-subscriber event fan-out for one machine.

    Subscribers are invoked in installation order; installing and
    uninstalling recompiles the machine's hook slots, so the
    zero-subscriber state is literally ``trace_hook is None`` -- the
    plan-cache fast path is untouched when nobody is listening.
    """

    def __init__(self, machine) -> None:
        self.machine = machine
        self._subs: Dict[str, Dict[str, Callable]] = {}
        self._auto = 0
        # Hooks found installed by outside code, chained after ours.
        self._foreign_cycle: Optional[Callable] = None
        self._foreign_dispatch: Optional[Callable] = None
        self._foreign_fault: Optional[Callable] = None
        # The compiled hooks we own (to tell ours from foreign ones).
        self._owned_cycle: Optional[Callable] = None
        self._owned_dispatch: Optional[Callable] = None
        self._owned_fault: Optional[Callable] = None
        # Derived-event state (hold spans per task, last executing task).
        self._last_task: Optional[int] = None
        self._open_holds: Dict[int, List[int]] = {}
        self._hold_start_subs: Tuple[Callable, ...] = ()
        self._hold_end_subs: Tuple[Callable, ...] = ()
        self._task_switch_subs: Tuple[Callable, ...] = ()

    # ------------------------------------------------------------------
    # subscriber management
    # ------------------------------------------------------------------

    def install(
        self,
        name: Optional[str] = None,
        *,
        cycle: Optional[Callable] = None,
        dispatch: Optional[Callable] = None,
        hold_start: Optional[Callable] = None,
        hold_end: Optional[Callable] = None,
        task_switch: Optional[Callable] = None,
        fault: Optional[Callable] = None,
        check_fail: Optional[Callable] = None,
        rollback: Optional[Callable] = None,
        replay: Optional[Callable] = None,
        degrade: Optional[Callable] = None,
    ) -> str:
        """Attach a named subscriber; returns its (possibly generated) name.

        At least one channel callback is required.  Names must be
        unique while installed -- reinstalling under a live name is an
        error, which keeps ordering deterministic and teardown exact.
        """
        channels = {
            key: cb
            for key, cb in zip(
                CHANNELS,
                (cycle, dispatch, hold_start, hold_end, task_switch, fault,
                 check_fail, rollback, replay, degrade),
            )
            if cb is not None
        }
        if not channels:
            raise ValueError("install() needs at least one channel callback")
        if name is None:
            self._auto += 1
            name = f"sub{self._auto}"
        if name in self._subs:
            raise ValueError(f"subscriber {name!r} is already installed")
        self._subs[name] = channels
        self._recompile()
        return name

    def uninstall(self, name: str) -> None:
        """Detach one subscriber and recompile the hook slots."""
        if name not in self._subs:
            raise KeyError(f"no subscriber named {name!r}")
        del self._subs[name]
        self._recompile()

    def uninstall_all(self) -> None:
        self._subs.clear()
        self._recompile()

    def names(self) -> Tuple[str, ...]:
        """Installed subscriber names, in installation (= delivery) order."""
        return tuple(self._subs)

    def __contains__(self, name: str) -> bool:
        return name in self._subs

    def __len__(self) -> int:
        return len(self._subs)

    def publish(self, channel: str, *args) -> None:
        """Deliver an out-of-band event to a channel's subscribers.

        Used by layers *above* the machine cycle -- the recovery
        supervisor publishes ``check_fail``/``rollback``/``replay``/
        ``degrade`` here.  Publishing to a channel with no subscribers
        is free; publishing to an unknown channel is an error.
        """
        if channel not in CHANNELS:
            raise ValueError(f"unknown channel {channel!r}")
        for cb in self._channel(channel):
            cb(*args)

    # ------------------------------------------------------------------
    # compilation: subscriber set -> the machine's three hook slots
    # ------------------------------------------------------------------

    def _channel(self, key: str) -> Tuple[Callable, ...]:
        return tuple(cbs[key] for cbs in self._subs.values() if key in cbs)

    def _recompile(self) -> None:
        machine = self.machine

        # --- cycle channel (and the derived channels built on it) -----
        current = machine.trace_hook
        if current is not None and current is not self._owned_cycle:
            self._foreign_cycle = current  # assigned directly; keep it chained
        self._hold_start_subs = self._channel("hold_start")
        self._hold_end_subs = self._channel("hold_end")
        self._task_switch_subs = self._channel("task_switch")
        derived = bool(
            self._hold_start_subs or self._hold_end_subs or self._task_switch_subs
        )
        sinks: List[Callable] = list(self._channel("cycle"))
        if derived:
            sinks.append(self._derived_tick)
        else:
            self._last_task = None
            self._open_holds.clear()
        foreign = self._foreign_cycle
        if not sinks:
            machine.trace_hook = foreign
            self._owned_cycle = None
        else:
            pipe = machine.pipe
            if foreign is None and len(sinks) == 1:
                only = sinks[0]

                def hook(now, pc, inst, held, _cb=only, _pipe=pipe):
                    _cb(now, _pipe.this_task, pc, inst, held)

            else:
                subs = tuple(sinks)

                def hook(now, pc, inst, held, _subs=subs, _pipe=pipe, _prev=foreign):
                    task = _pipe.this_task
                    for cb in _subs:
                        cb(now, task, pc, inst, held)
                    if _prev is not None:
                        _prev(now, pc, inst, held)

            machine.trace_hook = hook
            self._owned_cycle = hook

        # --- dispatch channel (Ifu.dispatch_hook) ---------------------
        ifu = machine.ifu
        current = ifu.dispatch_hook
        if current is not None and current is not self._owned_dispatch:
            self._foreign_dispatch = current
        d_subs = self._channel("dispatch")
        foreign_d = self._foreign_dispatch
        if not d_subs:
            ifu.dispatch_hook = foreign_d
            self._owned_dispatch = None
        else:

            def dispatch_hook(entry, address, _subs=d_subs, _m=machine, _prev=foreign_d):
                now = _m.now
                for cb in _subs:
                    cb(now, entry, address)
                if _prev is not None:
                    _prev(entry, address)

            ifu.dispatch_hook = dispatch_hook
            self._owned_dispatch = dispatch_hook

        # --- fault channel (FaultInjector.on_record) ------------------
        injector = machine.fault_injector
        if injector is not None:
            current = injector.on_record
            if current is not None and current is not self._owned_fault:
                self._foreign_fault = current
            f_subs = self._channel("fault")
            foreign_f = self._foreign_fault
            if not f_subs:
                injector.on_record = foreign_f
                self._owned_fault = None
            else:

                def fault_hook(record, _subs=f_subs, _prev=foreign_f):
                    for cb in _subs:
                        cb(record)
                    if _prev is not None:
                        _prev(record)

                injector.on_record = fault_hook
                self._owned_fault = fault_hook

    # ------------------------------------------------------------------
    # derived events, synthesized from the cycle stream
    # ------------------------------------------------------------------

    def _derived_tick(self, now, task, pc, inst, held) -> None:
        last = self._last_task
        if last is not None and last != task:
            for cb in self._task_switch_subs:
                cb(now, last, task)
        self._last_task = task
        span = self._open_holds.get(task)
        if held:
            if span is None:
                self._open_holds[task] = [now, 1]
                for cb in self._hold_start_subs:
                    cb(now, task, pc)
            else:
                span[1] += 1
        elif span is not None:
            del self._open_holds[task]
            for cb in self._hold_end_subs:
                cb(now, task, pc, span[1])


# --------------------------------------------------------------------------
# the structured metrics snapshot
# --------------------------------------------------------------------------


def metrics_snapshot(machine, include_fault_trace: bool = True) -> dict:
    """Everything the counters know, as one JSON-serializable dict.

    Layout: raw ``counters`` (every :class:`~repro.core.counters.
    Counters` field), ``tasks`` keyed by task number with per-task
    cycles/instructions/held/utilization, ``holds`` with the per-cause
    attribution (storage-busy vs MEMDATA wait vs IFU wait), ``ifu``
    dispatch statistics, ``tiers`` with the trace cache's statistics
    (cycles run inside traces among them; mechanism, never in
    ``Counters``), and -- on fault-injected machines -- the ``faults``
    section with the full trace.
    """
    counters = machine.counters
    config = machine.config
    total = counters.cycles
    tasks = {}
    for task, cycles in enumerate(counters.task_cycles):
        if cycles:
            tasks[str(task)] = {
                "cycles": cycles,
                "instructions": counters.task_instructions[task],
                "held": counters.task_held[task],
                "utilization": cycles / total if total else 0.0,
            }
    snapshot = {
        "schema": "repro.metrics/1",
        "machine": {
            "cycle_ns": config.cycle_ns,
            "plan_cache_enabled": config.plan_cache_enabled,
            "simulated_seconds": config.seconds(total),
        },
        "counters": dataclasses.asdict(counters),
        "tasks": tasks,
        "holds": counters.hold_attribution(),
        "ifu": {"dispatches": machine.ifu.dispatches, "byte_pc": machine.ifu.pc},
        "tiers": {"trace_enabled": machine._trace_enabled, **machine._traces.stats()},
        "subscribers": list(machine.instruments.names()),
    }
    injector = machine.fault_injector
    if injector is not None:
        faults = {"pending": injector.pending}
        if include_fault_trace:
            faults["trace"] = [dataclasses.asdict(r) for r in injector.trace]
        snapshot["faults"] = faults
    return snapshot
