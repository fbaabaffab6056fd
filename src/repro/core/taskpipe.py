"""The task-switching pipeline (sections 5.1-5.3, 6.2.1).

Sixteen fixed-priority tasks share the processor; device controllers
raise **wakeup** lines, a priority encoder arbitrates, and the winner's
task-specific program counter (TPC) is fetched -- all in hardware, so a
context switch costs nothing.  This module models the registers of
Figure 3:

* ``lines`` -- the raw wakeup request wires from device controllers
  (task 0's line is permanently asserted: "Task 0 requests service from
  the processor at all times, but with the lowest priority");
* ``ready`` -- the READY register: preempted tasks, plus tasks
  explicitly readied by the FF ``READY_B`` function;
* the **BESTNEXTTASK/BESTNEXTPC** latch pair, loaded by
  :meth:`arbitrate` once per cycle -- the interface between the two
  pipe stages, which is what makes a wakeup take two cycles to affect
  the running task;
* ``tpc`` -- the task-specific program counters, written every cycle
  with THISTASKNEXTPC (section 6.2.2).

The decision rule of section 6.2.1: "The NEXT bus normally gets the
larger of BESTNEXTTASK and THISTASK"; the Block bit makes NEXT get
BESTNEXTTASK unconditionally (unless the instruction is held).
"""

from __future__ import annotations

from typing import List, Tuple

from ..types import EMULATOR_TASK, NUM_TASKS


class TaskPipeline:
    """Wakeup latches, priority encoder, TPC, and the NEXT decision."""

    def __init__(self) -> None:
        self.lines = 1 << EMULATOR_TASK  # task 0 always requests service
        self.ready = 0
        self.tpc: List[int] = [0] * NUM_TASKS
        # The stage-boundary latches (BESTNEXTTASK / BESTNEXTPC).
        self.best_task = EMULATOR_TASK
        self.best_pc = 0
        self.this_task = EMULATOR_TASK

    # --- wakeup lines (driven by device controllers) ----------------------

    def set_wakeup(self, task: int) -> None:
        """Assert a device's wakeup request line."""
        self.lines |= 1 << (task & 0xF)

    def clear_wakeup(self, task: int) -> None:
        """Drop a wakeup line (task 0's can never drop)."""
        if task != EMULATOR_TASK:
            self.lines &= ~(1 << (task & 0xF))

    def set_wakeup_mask(self, mask: int) -> None:
        """FF ``WAKEUP_B``: microcode-raised wakeups (test/notify aid)."""
        self.lines |= mask & 0xFFFF

    def set_ready_mask(self, mask: int) -> None:
        """FF ``READY_B``: "A task can be explicitly made ready"."""
        self.ready |= mask & 0xFFFF

    # --- the two pipe stages ----------------------------------------------

    def arbitrate(self) -> None:
        """Stage 1: latch requests, pick the highest priority, read TPC.

        Called once at the end of every machine cycle; the result sits
        in the BESTNEXTTASK/BESTNEXTPC latches and is consumed by
        :meth:`decide_next` one cycle later, giving the two-cycle
        wakeup-to-run latency of Figure 3.
        """
        requests = self.lines | self.ready
        # Highest priority = highest task number (section 5.1).
        self.best_task = requests.bit_length() - 1 if requests else EMULATOR_TASK
        self.best_pc = self.tpc[self.best_task]

    def decide_next(self, blocked: bool) -> int:
        """Stage 2: the NEXT decision at the end of an instruction.

        *blocked* is true when the executing instruction carried the
        Block bit (on an I/O task) and was not held.  Returns the task
        that owns the next cycle, and updates READY: a preempted task is
        remembered for resumption, a blocking task is forgotten, and a
        task being dispatched has its READY request satisfied (so a
        stale BESTNEXTTASK cannot re-run it after it blocks).
        """
        current = self.this_task
        if blocked:
            self.ready &= ~(1 << current)
            nxt = self.best_task
        elif self.best_task > current:
            self.ready |= 1 << current
            nxt = self.best_task
        else:
            nxt = current
        self.ready &= ~(1 << nxt)
        self.this_task = nxt
        return nxt

    # --- TPC ---------------------------------------------------------------

    def read_tpc(self, task: int) -> int:
        return self.tpc[task & 0xF]

    def write_tpc(self, task: int, value: int) -> None:
        self.tpc[task & 0xF] = value

    def snapshot(self) -> Tuple[int, int, int]:
        """(lines, ready, best_task) -- for tests and the console."""
        return (self.lines, self.ready, self.best_task)

    # --- snapshot protocol (DESIGN.md section 5.4) -------------------------

    def state_dict(self) -> dict:
        return {
            "lines": self.lines,
            "ready": self.ready,
            "tpc": list(self.tpc),
            "best_task": self.best_task,
            "best_pc": self.best_pc,
            "this_task": self.this_task,
        }

    def load_state(self, state: dict) -> None:
        self.lines = state["lines"]
        self.ready = state["ready"]
        self.tpc = list(state["tpc"])
        self.best_task = state["best_task"]
        self.best_pc = state["best_pc"]
        self.this_task = state["this_task"]
