"""Per-macroinstruction-class profiling.

The paper's section 7 reports emulator costs per *class* of
macroinstruction ("a load or store instruction takes only one or two
microinstructions in Mesa, and five in Lisp...").  The
:class:`OpcodeProfiler` measures exactly that: it watches the IFU
dispatch stream and attributes every executed (and held) task-0 cycle to
the macroinstruction whose handler is running.

The profiler is a subscriber on the machine's instrumentation bus
(:class:`~repro.perf.instrument.InstrumentationBus`): it listens on the
``dispatch`` channel (the IFU's first-class ``dispatch_hook`` -- no
monkey-patching of ``take_dispatch``) and the ``cycle`` channel, so it
composes with a :class:`~repro.perf.tracing.PipelineTracer` or any
other subscriber in either attach order, and :meth:`uninstall` leaves
the machine exactly as found.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ..emulators.isa import EmulatorContext
from ..types import EMULATOR_TASK


@dataclass
class SimulationRate:
    """Wall-clock speed of the simulator itself over one scenario."""

    cycles: int      #: simulated machine cycles the scenario executed
    seconds: float   #: host wall-clock time of the best run

    @property
    def cycles_per_second(self) -> float:
        return self.cycles / self.seconds if self.seconds > 0 else 0.0


def measure_staged_rate(
    stage: Callable[[], Callable[[], int]], repeats: int = 3
) -> SimulationRate:
    """Time only the *run* phase of a two-phase scenario.

    *stage* builds a fresh machine (assembling microcode, loading
    images, arming devices) and returns a zero-arg run callable that
    simulates and returns the cycle count; only that callable is timed.
    Build cost is identical whichever cycle implementation runs, so
    excluding it keeps a tier comparison about the tiers -- corebench
    reports build cost separately through its warm-start row.  Best of
    *repeats*, each on a fresh machine.
    """
    if repeats < 1:
        raise ValueError("repeats must be at least 1")

    def timed_run() -> SimulationRate:
        run = stage()
        start = time.perf_counter()
        cycles = run()
        return SimulationRate(cycles=cycles, seconds=time.perf_counter() - start)

    best = timed_run()
    for _ in range(repeats - 1):
        candidate = timed_run()
        if candidate.seconds < best.seconds:
            best = candidate
    return best


@dataclass
class OpcodeStats:
    """Accumulated cost of one opcode class."""

    dispatches: int = 0
    microinstructions: int = 0
    cycles: int = 0  #: includes held cycles (memory/IFU waits)

    @property
    def mean_microinstructions(self) -> float:
        return self.microinstructions / self.dispatches if self.dispatches else 0.0

    @property
    def mean_cycles(self) -> float:
        return self.cycles / self.dispatches if self.dispatches else 0.0


class OpcodeProfiler:
    """Attribute task-0 execution to macroinstruction classes.

    Constructing one attaches it (the historical behaviour benchmarks
    rely on); :meth:`uninstall` detaches it and restores the bus and
    IFU hook state exactly.  The microinstruction that *performs* the
    NextMacro is charged to the instruction it finishes.
    """

    def __init__(self, ctx: EmulatorContext) -> None:
        self.ctx = ctx
        self.stats: Dict[str, OpcodeStats] = {}
        self._current: Optional[str] = None
        self._pending_name: Optional[str] = None
        self._installed = False
        self._name: Optional[str] = None
        self.install()

    def install(self) -> "OpcodeProfiler":
        if not self._installed:
            self._name = self.ctx.cpu.instruments.install(
                cycle=self._on_cycle, dispatch=self._on_dispatch
            )
            self._installed = True
        return self

    def uninstall(self) -> None:
        if self._installed:
            self.ctx.cpu.instruments.uninstall(self._name)
            self._installed = False
            self._name = None

    # --- bus subscribers ----------------------------------------------------

    def _on_dispatch(self, now: int, entry, address: int) -> None:
        del now, address
        self._pending_name = entry.name

    def _on_cycle(self, now: int, task: int, pc: int, inst, held: bool) -> None:
        del now, pc, inst
        name = self._current
        if name is not None and task == EMULATOR_TASK:
            stats = self.stats.setdefault(name, OpcodeStats())
            stats.cycles += 1
            if not held:
                stats.microinstructions += 1
        if self._pending_name is not None and not held:
            # The dispatch we saw during this cycle takes effect now.
            nxt = self._pending_name
            self._pending_name = None
            self._current = nxt
            self.stats.setdefault(nxt, OpcodeStats()).dispatches += 1

    # --- results ------------------------------------------------------------

    def table(self) -> Dict[str, OpcodeStats]:
        return dict(self.stats)

    def mean(self, name: str) -> OpcodeStats:
        return self.stats.get(name, OpcodeStats())

    def class_cycles(self, names) -> float:
        total_c = sum(self.stats[n].cycles for n in names if n in self.stats)
        total_d = sum(self.stats[n].dispatches for n in names if n in self.stats)
        return total_c / total_d if total_d else 0.0
