"""The machine-check sanitizer: cheap microarchitectural invariants.

The Dorado checked itself continuously -- parity on every internal
memory, ECC on storage, a dedicated high-priority fault task (sections
4.3 and 6 of the paper).  The simulator's equivalent is a registry of
*invariant checks* over the live machine, swept every ``check_interval``
cycles by the recovery supervisor between ``run()`` chunks, so a
supervised machine runs the same execution path as any other.  Nothing
here may perturb the machine: every check reads internal structures
directly (``cache.sets``, ``storage.dump``) instead of going through
accessors that update LRU clocks or consume scheduled fault events, so
a sanitized run is cycle-for-cycle and byte-for-byte identical to an
unsanitized one.

The invariant catalogue (DESIGN.md section 5.5):

``cache``
    Structural well-formedness of every line (tag, LRU stamp, word
    count and width) plus the write-back coherence rule: a *valid,
    clean* line's words equal the storage munch it caches.  An
    uncorrectable ECC event violates exactly this -- the corrupted
    munch is installed clean in the cache while storage still holds the
    true bits -- so this check is the sanitizer's storage-corruption
    detector.
``map``
    Every :class:`~repro.mem.map.MapEntry` is well-formed: real page
    within ``REAL_PAGE_MASK``, boolean flags.
``registers``
    RM, T, Q, COUNT and the stack words are 16 bits; RBASE is 4; the
    stack pointer is 8.
``taskpipe``
    The wakeup lines are 16 bits with task 0's line permanently set
    (the paper's "task 0 always requests service"), the running and
    best tasks are in range, and every TPC addresses the control store.
``ifu``
    The prefetch buffer invariant ``0 <= buffered - pc <= 7`` (the
    6-byte buffer plus the word-fetch overshoot) and 16-bit operands.
``plans``
    Every compiled :class:`~repro.core.plancache.ExecutionPlan` still
    agrees with the IM slot it was compiled from (same object or same
    34-bit encoding).  Skipped when the machine runs interpretively --
    a degraded machine must not keep tripping on plans it no longer
    executes.

A failed :meth:`~MachineCheckSanitizer.sweep` raises
:class:`~repro.errors.CorruptionDetected` carrying every failure, after
counting ``Counters.checks_failed`` -- the recovery supervisor turns
that into a rollback.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..errors import CorruptionDetected
from ..mem.map import REAL_PAGE_MASK
from ..types import MUNCH_WORDS

#: Buffer-occupancy slack: BUFFER_BYTES plus the one-byte overshoot a
#: word-aligned fetch can add (mirrors repro.ifu.ifu.BUFFER_BYTES).
_IFU_BUFFER_SLACK = 7


@dataclass(frozen=True)
class CheckFailure:
    """One violated invariant: which check, and what it saw."""

    check: str
    detail: str

    def __str__(self) -> str:
        return f"{self.check}: {self.detail}"


class MachineCheckSanitizer:
    """The invariant catalogue over one machine.

    Holds no schedule: whoever runs the machine decides when to sweep
    (:class:`~repro.supervise.Supervisor`, every ``check_interval``
    cycles).  The machine does not refer to its sanitizer.
    """

    def __init__(self, machine) -> None:
        self.machine = machine
        self.sweeps = 0

    def sweep(self) -> None:
        """Run every check; on failure raise :class:`CorruptionDetected`
        with the task and microaddress about to run, at cycle ``now``."""
        failures = self.run_checks()
        if failures:
            machine = self.machine
            machine.counters.checks_failed += len(failures)
            raise CorruptionDetected(
                failures,
                task=machine.pipe.this_task,
                pc=machine.this_pc,
                cycle=machine.now,
            )

    # ------------------------------------------------------------------
    # the catalogue
    # ------------------------------------------------------------------

    def run_checks(self) -> List[CheckFailure]:
        """One full sweep; returns every violated invariant (empty = clean)."""
        self.sweeps += 1
        failures: List[CheckFailure] = []
        self._check_cache(failures)
        self._check_map(failures)
        self._check_registers(failures)
        self._check_taskpipe(failures)
        self._check_ifu(failures)
        self._check_plans(failures)
        return failures

    def _check_cache(self, failures: List[CheckFailure]) -> None:
        memory = self.machine.memory
        cache = memory.cache
        storage = memory.storage  # dump, not read_munch: that consumes ECC events
        num_sets = cache.num_sets
        for index, cache_set in enumerate(cache.sets):
            for way, line in enumerate(cache_set):
                if not line.valid:
                    continue
                where = f"set {index} way {way}"
                if line.tag < 0:
                    failures.append(CheckFailure("cache", f"{where}: negative tag"))
                    continue
                if len(line.words) != MUNCH_WORDS:
                    failures.append(CheckFailure(
                        "cache", f"{where}: {len(line.words)} words in a munch"))
                    continue
                if any(not 0 <= w <= 0xFFFF for w in line.words):
                    failures.append(CheckFailure(
                        "cache", f"{where}: word out of 16-bit range"))
                    continue
                if line.dirty:
                    continue
                base = (line.tag * num_sets + index) * MUNCH_WORDS
                if base + MUNCH_WORDS > storage.size:
                    failures.append(CheckFailure(
                        "cache", f"{where}: tag addresses past end of storage"))
                    continue
                if line.words != storage.dump(base, MUNCH_WORDS):
                    failures.append(CheckFailure(
                        "cache",
                        f"{where}: clean line disagrees with storage "
                        f"munch at {base:#x}",
                    ))

    def _check_map(self, failures: List[CheckFailure]) -> None:
        for va_page, entry in self.machine.memory.translator.map.items():
            if not 0 <= entry.real_page <= REAL_PAGE_MASK:
                failures.append(CheckFailure(
                    "map",
                    f"VA page {va_page:#x}: real page {entry.real_page:#x} "
                    f"exceeds {REAL_PAGE_MASK:#x}",
                ))

    def _check_registers(self, failures: List[CheckFailure]) -> None:
        regs = self.machine.regs
        stack = self.machine.stack
        if any(not 0 <= v <= 0xFFFF for v in regs.rm):
            failures.append(CheckFailure("registers", "RM word out of 16-bit range"))
        if any(not 0 <= v <= 0xFFFF for v in regs.t):
            failures.append(CheckFailure("registers", "T word out of 16-bit range"))
        if not 0 <= regs.q <= 0xFFFF:
            failures.append(CheckFailure("registers", f"Q = {regs.q:#x}"))
        if not 0 <= regs.count <= 0xFFFF:
            failures.append(CheckFailure("registers", f"COUNT = {regs.count:#x}"))
        if any(not 0 <= v <= 0xF for v in regs.rbase):
            failures.append(CheckFailure("registers", "RBASE exceeds 4 bits"))
        if not 0 <= stack.pointer <= 0xFF:
            failures.append(CheckFailure(
                "registers", f"stack pointer = {stack.pointer:#x}"))
        if any(not 0 <= v <= 0xFFFF for v in stack.memory):
            failures.append(CheckFailure(
                "registers", "stack word out of 16-bit range"))

    def _check_taskpipe(self, failures: List[CheckFailure]) -> None:
        pipe = self.machine.pipe
        im_size = self.machine.config.im_size
        if not pipe.lines & 1:
            failures.append(CheckFailure(
                "taskpipe", "task 0 wakeup line dropped (must stay set)"))
        if not 0 <= pipe.lines <= 0xFFFF:
            failures.append(CheckFailure(
                "taskpipe", f"wakeup lines = {pipe.lines:#x}"))
        if not 0 <= pipe.ready <= 0xFFFF:
            failures.append(CheckFailure(
                "taskpipe", f"ready lines = {pipe.ready:#x}"))
        for label, task in (("this", pipe.this_task), ("best", pipe.best_task)):
            if not 0 <= task <= 15:
                failures.append(CheckFailure(
                    "taskpipe", f"{label}_task = {task}"))
        for task, pc in enumerate(pipe.tpc):
            if not 0 <= pc < im_size:
                failures.append(CheckFailure(
                    "taskpipe", f"TPC[{task}] = {pc:#o} outside the control store"))

    def _check_ifu(self, failures: List[CheckFailure]) -> None:
        ifu = self.machine.ifu
        occupancy = ifu._buffered - ifu.pc
        if not 0 <= occupancy <= _IFU_BUFFER_SLACK:
            failures.append(CheckFailure(
                "ifu",
                f"buffer occupancy {occupancy} outside "
                f"[0, {_IFU_BUFFER_SLACK}] (pc {ifu.pc:#x}, "
                f"buffered to {ifu._buffered:#x})",
            ))
        for name, operands in (
            ("head", ifu._head_operands), ("current", ifu._current_operands),
        ):
            if any(not 0 <= v <= 0xFFFF for v in operands):
                failures.append(CheckFailure(
                    "ifu", f"{name} operand out of 16-bit range"))

    def _check_plans(self, failures: List[CheckFailure]) -> None:
        machine = self.machine
        if machine.tier == "interp":
            return
        im = machine.im
        for pc, plan in enumerate(machine._plans):
            if plan is None:
                continue
            inst = im[pc]
            if inst is None:
                failures.append(CheckFailure(
                    "plans", f"plan cached for empty IM slot {pc:#o}"))
            elif plan.inst is not inst and plan.inst.encode() != inst.encode():
                failures.append(CheckFailure(
                    "plans",
                    f"plan at {pc:#o} was compiled from a different "
                    f"microword than the IM holds",
                ))
