"""Performance counters.

The real Dorado was measured with oscilloscopes and microcode counters;
the simulator just counts.  Everything the benchmarks report -- task
occupancy, hold cycles, cache behaviour, words moved over each bus -- is
derived from one :class:`Counters` instance attached to the processor.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List

from ..types import NUM_TASKS

#: Hold-cause codes, as returned by ``Processor._check_hold`` and mirrored
#: by the compiled hold flags of execution plans (the priority order is the
#: hardware's: a fast-I/O start blocked by busy storage, then MEMDATA not
#: ready, then NextMacro with no decoded dispatch).
HOLD_NONE = 0
HOLD_STORAGE = 1
HOLD_MD = 2
HOLD_IFU = 3

#: ``Counters.hold_causes`` index -> human-readable cause name.
HOLD_CAUSE_NAMES = ("storage_busy", "md_wait", "ifu_wait")

#: Counter fields owned by the recovery supervisor (DESIGN.md 5.5).
#: These describe the *supervision* of a run, not its architectural
#: trajectory, so byte-identity comparisons strip them
#: (:func:`repro.supervise.architectural_json`) and a rollback
#: preserves them across ``restore``.
RECOVERY_FIELDS = ("checks_failed", "rollbacks", "replays", "degrades")


@dataclass
class Counters:
    """Event counts accumulated over a simulation run."""

    cycles: int = 0
    instructions: int = 0
    held_cycles: int = 0
    task_switches: int = 0
    blocks: int = 0
    task_cycles: List[int] = field(default_factory=lambda: [0] * NUM_TASKS)
    task_held: List[int] = field(default_factory=lambda: [0] * NUM_TASKS)
    task_instructions: List[int] = field(default_factory=lambda: [0] * NUM_TASKS)
    cache_hits: int = 0
    cache_misses: int = 0
    storage_reads: int = 0
    storage_writes: int = 0
    fastio_munches: int = 0
    slowio_words_in: int = 0
    slowio_words_out: int = 0
    memory_fetches: int = 0
    memory_stores: int = 0
    faults_injected: int = 0
    faults_latched: int = 0
    ecc_corrected: int = 0
    ecc_uncorrected: int = 0
    disk_retries: int = 0
    disk_remaps: int = 0
    #: Held cycles by cause, indexed HOLD_STORAGE-1 / HOLD_MD-1 / HOLD_IFU-1
    #: (see HOLD_CAUSE_NAMES); the three sum to ``held_cycles``.
    hold_causes: List[int] = field(default_factory=lambda: [0, 0, 0])
    #: Recovery-supervisor bookkeeping (RECOVERY_FIELDS): sanitizer
    #: checks tripped, checkpoints rolled back to, replays launched,
    #: and compiled-steps -> interpreter degradations.
    checks_failed: int = 0
    rollbacks: int = 0
    replays: int = 0
    degrades: int = 0

    def record_cycle(self, task: int, held: bool) -> None:
        self.cycles += 1
        self.task_cycles[task] += 1
        if held:
            self.held_cycles += 1
            self.task_held[task] += 1
        else:
            self.instructions += 1
            self.task_instructions[task] += 1

    def hold_attribution(self) -> Dict[str, int]:
        """Held cycles by cause: why did the machine wait?"""
        attribution = dict(zip(HOLD_CAUSE_NAMES, self.hold_causes))
        attribution["total"] = self.held_cycles
        return attribution

    def occupancy(self, task: int) -> float:
        """Fraction of all cycles spent running (or held in) *task*."""
        if self.cycles == 0:
            return 0.0
        return self.task_cycles[task] / self.cycles

    @property
    def hit_rate(self) -> float:
        refs = self.cache_hits + self.cache_misses
        return self.cache_hits / refs if refs else 1.0

    def delta(self, earlier: "Counters") -> "Counters":
        """Counter differences since an earlier snapshot of *self*."""
        return Counters(
            cycles=self.cycles - earlier.cycles,
            instructions=self.instructions - earlier.instructions,
            held_cycles=self.held_cycles - earlier.held_cycles,
            task_switches=self.task_switches - earlier.task_switches,
            blocks=self.blocks - earlier.blocks,
            task_cycles=[a - b for a, b in zip(self.task_cycles, earlier.task_cycles)],
            task_held=[a - b for a, b in zip(self.task_held, earlier.task_held)],
            task_instructions=[
                a - b for a, b in zip(self.task_instructions, earlier.task_instructions)
            ],
            cache_hits=self.cache_hits - earlier.cache_hits,
            cache_misses=self.cache_misses - earlier.cache_misses,
            storage_reads=self.storage_reads - earlier.storage_reads,
            storage_writes=self.storage_writes - earlier.storage_writes,
            fastio_munches=self.fastio_munches - earlier.fastio_munches,
            slowio_words_in=self.slowio_words_in - earlier.slowio_words_in,
            slowio_words_out=self.slowio_words_out - earlier.slowio_words_out,
            memory_fetches=self.memory_fetches - earlier.memory_fetches,
            memory_stores=self.memory_stores - earlier.memory_stores,
            faults_injected=self.faults_injected - earlier.faults_injected,
            faults_latched=self.faults_latched - earlier.faults_latched,
            ecc_corrected=self.ecc_corrected - earlier.ecc_corrected,
            ecc_uncorrected=self.ecc_uncorrected - earlier.ecc_uncorrected,
            disk_retries=self.disk_retries - earlier.disk_retries,
            disk_remaps=self.disk_remaps - earlier.disk_remaps,
            hold_causes=[a - b for a, b in zip(self.hold_causes, earlier.hold_causes)],
            checks_failed=self.checks_failed - earlier.checks_failed,
            rollbacks=self.rollbacks - earlier.rollbacks,
            replays=self.replays - earlier.replays,
            degrades=self.degrades - earlier.degrades,
        )

    # --- snapshot protocol (DESIGN.md section 5.4) -------------------------

    def state_dict(self) -> Dict[str, object]:
        """Every counter field as plain data, list fields copied."""
        state: Dict[str, object] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            state[f.name] = list(value) if isinstance(value, list) else value
        return state

    def load_state(self, state: Dict[str, object]) -> None:
        for f in fields(self):
            value = state[f.name]
            setattr(self, f.name, list(value) if isinstance(value, list) else value)

    def copy(self) -> "Counters":
        """Thin alias over the snapshot protocol."""
        fresh = Counters()
        fresh.load_state(self.state_dict())
        return fresh

    def summary(self) -> Dict[str, float]:
        """A flat dict of the headline numbers, for reports."""
        return {
            "cycles": self.cycles,
            "instructions": self.instructions,
            "held_cycles": self.held_cycles,
            "task_switches": self.task_switches,
            "cache_hit_rate": self.hit_rate,
            "storage_reads": self.storage_reads,
            "storage_writes": self.storage_writes,
            "fastio_munches": self.fastio_munches,
            "faults_injected": self.faults_injected,
            "faults_latched": self.faults_latched,
            "ecc_corrected": self.ecc_corrected,
            "ecc_uncorrected": self.ecc_uncorrected,
            "disk_retries": self.disk_retries,
            "disk_remaps": self.disk_remaps,
            "checks_failed": self.checks_failed,
            "rollbacks": self.rollbacks,
            "replays": self.replays,
            "degrades": self.degrades,
        }
