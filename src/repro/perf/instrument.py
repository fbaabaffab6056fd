"""The instrumentation bus: composable, zero-cost-when-empty observability.

The Dorado was debugged and tuned without scope probes -- section 4's
console and the section 7 tables came from microcode counters and
traces.  The simulator's equivalents (:class:`~repro.perf.tracing.
PipelineTracer` and :class:`~repro.perf.measure.OpcodeProfiler`) share
the machine's hook slots through this bus; a machine that is only run
-- supervised or not -- has no subscriber, so ``run()`` keeps its
compiled-trace tier.  Following the cycle-accurate-simulator-generation literature
(Reshadi & Dutt, PAPERS.md), it keeps a hard rule: **when nothing is
attached, the hot loop pays exactly one ``is None`` check per cycle**
-- the same check the plan-cache fast path already carries.

:class:`InstrumentationBus` (one per machine, created lazily by
``Processor.instruments``) keeps *named* subscribers in deterministic
installation order on two channels:

``cycle``
    every machine cycle: ``cb(now, task, pc, inst, held)``.  ``inst``
    is the fetched :class:`~repro.core.microword.MicroInstruction` and
    ``task`` the task that executed (or held) this cycle.
``dispatch``
    every IFU NextMacro dispatch: ``cb(now, entry, address)`` with the
    :class:`~repro.ifu.decoder.DecodeEntry` being dispatched and its
    handler microaddress.  Delivered through ``Ifu.dispatch_hook`` --
    no monkey-patching, so detach can never strand a wrapper.

The bus *compiles* the subscriber set into the machine's two
single-callable slots (``Processor.trace_hook``, ``Ifu.dispatch_hook``)
on every install/uninstall; the slots belong to the bus, and with no
subscribers both are ``None``.  Every other event already has one
record: hold spans and task switches in the tracer's records
(``PipelineTracer.hold_windows``) and ``Counters``, injected faults in
``FaultInjector.trace``, recovery actions in ``Counters`` and
``Supervisor.log``.

:func:`metrics_snapshot` is the structured export built on the same
counters: every :class:`~repro.core.counters.Counters` field, per-task
utilization, and hold-cause attribution, as one JSON-serializable dict
(``python -m repro --metrics-json`` writes it).
"""

from __future__ import annotations

import dataclasses
import weakref
from typing import Callable, Dict, Optional, Tuple


class InstrumentationBus:
    """Named multi-subscriber event fan-out for one machine.

    Subscribers are invoked in installation order; installing and
    uninstalling recompiles the machine's hook slots, so the
    zero-subscriber state is literally ``trace_hook is None`` -- the
    plan-cache fast path is untouched when nobody is listening.
    """

    def __init__(self, machine) -> None:
        # The machine owns its bus: a weak back-reference keeps the
        # pair acyclic (DESIGN.md 5.12).
        self._machine = weakref.ref(machine)
        self._subs: Dict[str, Dict[str, Callable]] = {}
        self._auto = 0

    @property
    def machine(self):
        return self._machine()

    # ------------------------------------------------------------------
    # subscriber management
    # ------------------------------------------------------------------

    def install(
        self,
        name: Optional[str] = None,
        *,
        cycle: Optional[Callable] = None,
        dispatch: Optional[Callable] = None,
    ) -> str:
        """Attach a named subscriber; returns its (possibly generated) name.

        At least one channel callback is required.  Names must be
        unique while installed -- reinstalling under a live name is an
        error, which keeps ordering deterministic and teardown exact.
        """
        channels = {
            key: cb
            for key, cb in (("cycle", cycle), ("dispatch", dispatch))
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

    def __len__(self) -> int:
        return len(self._subs)

    # ------------------------------------------------------------------
    # compilation: subscriber set -> the machine's two hook slots
    # ------------------------------------------------------------------

    def _channel(self, key: str) -> Tuple[Callable, ...]:
        return tuple(cbs[key] for cbs in self._subs.values() if key in cbs)

    def _recompile(self) -> None:
        machine = self.machine
        pipe = machine.pipe

        cycle = self._channel("cycle")
        if not cycle:
            machine.trace_hook = None
        elif len(cycle) == 1:

            def hook(now, pc, inst, held, _cb=cycle[0], _pipe=pipe):
                _cb(now, _pipe.this_task, pc, inst, held)

            machine.trace_hook = hook
        else:

            def hook(now, pc, inst, held, _subs=cycle, _pipe=pipe):
                task = _pipe.this_task
                for cb in _subs:
                    cb(now, task, pc, inst, held)

            machine.trace_hook = hook

        dispatch = self._channel("dispatch")
        if not dispatch:
            machine.ifu.dispatch_hook = None
        else:

            def dispatch_hook(
                entry, address, _subs=dispatch, _m=weakref.proxy(machine)
            ):
                now = _m.now
                for cb in _subs:
                    cb(now, entry, address)

            machine.ifu.dispatch_hook = dispatch_hook


# --------------------------------------------------------------------------
# the structured metrics snapshot
# --------------------------------------------------------------------------


def metrics_snapshot(machine, include_fault_trace: bool = True) -> dict:
    """Everything the counters know, as one JSON-serializable dict.

    Layout: raw ``counters`` (every :class:`~repro.core.counters.
    Counters` field), ``tasks`` keyed by task number with per-task
    cycles/instructions/held/utilization, ``holds`` with the per-cause
    attribution (storage-busy vs MEMDATA wait vs IFU wait), ``ifu``
    dispatch statistics, ``tiers`` with the live ``tier`` (a supervisor
    degrade sets it to ``"interp"``, whatever the config says) and the
    trace cache's statistics (cycles run inside traces among
    them; mechanism, never in ``Counters``), and -- on fault-injected
    machines -- the ``faults`` section with the full trace.
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
            "simulated_seconds": config.seconds(total),
        },
        "counters": dataclasses.asdict(counters),
        "tasks": tasks,
        "holds": counters.hold_attribution(),
        "ifu": {"dispatches": machine.ifu.dispatches, "byte_pc": machine.ifu.pc},
        "tiers": {
            "tier": machine.tier,
            **machine._traces.stats(),
        },
        "subscribers": list(machine.instruments.names()),
    }
    injector = machine.fault_injector
    if injector is not None:
        faults = {"pending": injector.pending}
        if include_fault_trace:
            faults["trace"] = [dataclasses.asdict(r) for r in injector.trace]
        snapshot["faults"] = faults
    return snapshot
