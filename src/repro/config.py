"""Machine configuration.

One :class:`MachineConfig` instance parameterizes an entire simulated
Dorado.  The defaults model the production (Model 1, multiwire) machine
described in the paper; the fields exist so benchmarks can explore the
design space the paper discusses: the stitchweld prototype's 50 ns
cycle (section 6.4), the Model 0's missing bypass paths (section 5.6),
and the three-cycle task grain of the rejected simpler design
(section 6.2.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import ConfigError
from .fault.plan import FaultConfig


#: Main storage of the largest real machine: "up to 4 storage modules
#: ... for a maximum of 8 megabytes" (section 1), 4M 16-bit words.
MAX_STORAGE_WORDS = 1 << 22

#: The real machine's control store: 4K x 34-bit high-speed RAM
#: (section 6.4).
MAX_IM_WORDS = 4096

#: The largest cache any experiment sweeps.  Like every size bound here,
#: it stops a config read from an envelope from sizing a huge build.
MAX_CACHE_LINES = 1024


@dataclass(frozen=True)
class MachineConfig:
    """Static parameters of a simulated Dorado.

    Attributes:
        cycle_ns: Microcycle length in nanoseconds.  60 for the
            production multiwire machine, 50 for the stitchweld
            prototype (paper sections 1 and 6.4).
        im_size: Words of microinstruction memory.  The Dorado shipped
            with 4K x 34-bit high-speed RAM (section 6.4).
        page_size: Words per control-store page for the NEXTPC scheme
            (section 5.5).  Must divide ``im_size`` and be a power of 2.
        bypass_enabled: When False the processor behaves like the
            Model 0: an instruction reading a register written by its
            immediate predecessor sees the *old* value (section 5.6).
        cache_lines: Number of cache lines; each holds one 16-word munch.
        cache_ways: Set associativity of the cache.
        cache_hit_cycles: Cycles from Fetch to data ready on a hit
            ("a cache which delivers a word in two cycles", section 3).
        storage_cycle: Cycles per main-storage cycle; one munch can
            start per storage cycle ("one every eight cycles -- the
            cycle time of our storage RAMs", section 6.2.1).
        miss_penalty: Cycles from Fetch to data ready on a cache miss
            (storage access plus transport; Clark et al. report roughly
            this figure for the real machine).
        num_base_registers: Memory base registers used for virtual
            address formation (MEMBASE is 5 bits: 32 of them).
        base_register_bits: Width of a base register (28-bit virtual
            addresses, section 6.3.2).
        storage_words: Words of main storage (up to 4 modules / 8 MB =
            4M words in the real machine; simulations default smaller).
        ifu_decode_cycles: Cycles for the IFU to decode a buffered byte
            into a dispatch address.
        task_grain: Minimum instructions a woken task executes before
            its Block takes effect.  2 on the real machine; 3 models the
            "simpler design" rejected in section 6.2.1.
        plan_cache_enabled: When True (the default) the simulator
            compiles each fetched IM word into a decoded execution plan
            and runs plans instead of re-interrogating microword fields
            every cycle.  Purely a simulator-speed knob: architectural
            state and cycle counts are bit-identical either way (the
            differential suite in ``tests/test_fastpath_parity.py``
            enforces this), and plans are invalidated whenever an IM
            word is rewritten (console write paths, bootstrap loader,
            or direct ``im[...]`` assignment).
        trace_cache_enabled: When True (the default) the simulator
            additionally detects hot runs of execution plans and
            compiles them into specialized Python traces executed from
            the ``run()`` hot loop (:mod:`repro.core.tracecache`).
            Requires ``plan_cache_enabled``; like it, this is purely a
            simulator-speed knob -- the three-way differential matrix
            in ``tests/test_fastpath_parity.py`` proves interp, plan
            and traced execution bit-identical -- and traces are
            dropped on any IM write, on ``restore()``, and on
            ``attach_device()``.
        fault_injection: When set, the machine builds a deterministic
            :class:`~repro.fault.injector.FaultInjector` from this
            seeded :class:`~repro.fault.plan.FaultConfig` and delivers
            its events into storage, the map, and the disk controller
            (DESIGN.md section 5.2).  None (the default) leaves every
            fault path untouched.
        fault_task: Task woken when a memory fault latches, modelling
            the real machine's fault-task delivery.  The wakeup is a
            level: it follows the fault latch and drops when microcode
            reads FF ``READ_FAULTS``.  None disables delivery.
        hold_limit: Consecutive held cycles before the Hold watchdog
            raises :class:`~repro.errors.HoldTimeout`.  None uses the
            module default (``processor.HOLD_LIMIT``).
    """

    cycle_ns: float = 60.0
    im_size: int = 4096
    page_size: int = 64
    bypass_enabled: bool = True
    cache_lines: int = 512
    cache_ways: int = 2
    cache_hit_cycles: int = 2
    storage_cycle: int = 8
    miss_penalty: int = 26
    num_base_registers: int = 32
    base_register_bits: int = 28
    storage_words: int = 1 << 20
    ifu_decode_cycles: int = 1
    task_grain: int = 2
    plan_cache_enabled: bool = True
    trace_cache_enabled: bool = True
    fault_injection: Optional[FaultConfig] = None
    fault_task: Optional[int] = None
    hold_limit: Optional[int] = None

    def __post_init__(self) -> None:
        if self.cycle_ns <= 0:
            raise ConfigError(f"cycle_ns must be positive, got {self.cycle_ns}")
        if self.im_size <= 0 or self.im_size & (self.im_size - 1):
            raise ConfigError(f"im_size must be a power of two, got {self.im_size}")
        if self.im_size > MAX_IM_WORDS:
            raise ConfigError(f"im_size cannot exceed {MAX_IM_WORDS}, got {self.im_size}")
        if self.page_size <= 0 or self.page_size & (self.page_size - 1):
            raise ConfigError(f"page_size must be a power of two, got {self.page_size}")
        if self.im_size % self.page_size:
            raise ConfigError("page_size must divide im_size")
        if self.page_size > 64:
            raise ConfigError(
                "page_size cannot exceed 64: the 6-bit NextControl payload "
                "addresses at most 64 words per page (section 5.5)"
            )
        if not 0 < self.cache_lines <= MAX_CACHE_LINES:
            raise ConfigError(f"cache_lines must be 1..{MAX_CACHE_LINES}")
        if self.cache_ways <= 0 or self.cache_lines % self.cache_ways:
            raise ConfigError("cache_ways must divide cache_lines")
        if self.num_base_registers > 32:
            raise ConfigError("num_base_registers cannot exceed 32 (MEMBASE is 5 bits)")
        if self.base_register_bits > 28:
            raise ConfigError("base_register_bits cannot exceed 28 (28-bit addresses)")
        if self.cache_hit_cycles < 1:
            raise ConfigError("cache_hit_cycles must be at least 1")
        if self.miss_penalty < self.cache_hit_cycles:
            raise ConfigError("miss_penalty cannot beat a cache hit")
        if self.storage_cycle < 1:
            raise ConfigError("storage_cycle must be at least 1")
        if not 0 < self.storage_words <= MAX_STORAGE_WORDS:
            raise ConfigError(
                f"storage_words must be 1..{MAX_STORAGE_WORDS} (8 MB, the "
                f"real machine's maximum), got {self.storage_words}"
            )
        if self.task_grain not in (2, 3):
            raise ConfigError("task_grain models only the 2- and 3-cycle designs")
        if self.fault_task is not None and not 1 <= self.fault_task <= 15:
            raise ConfigError(
                "fault_task must be a device-priority task (1..15); "
                "task 0 belongs to the emulator"
            )
        if self.hold_limit is not None and self.hold_limit < 1:
            raise ConfigError("hold_limit must be at least 1")

    @property
    def num_pages(self) -> int:
        """Number of control-store pages."""
        return self.im_size // self.page_size

    def seconds(self, cycles: int) -> float:
        """Convert a cycle count to seconds of simulated machine time."""
        return cycles * self.cycle_ns * 1e-9

    def megabits_per_second(self, bits: int, cycles: int) -> float:
        """Bandwidth achieved moving *bits* in *cycles*, in Mbit/s."""
        if cycles <= 0:
            raise ConfigError("bandwidth over zero cycles is undefined")
        return bits / (cycles * self.cycle_ns * 1e-9) / 1e6


#: The production Dorado (Model 1, multiwire boards).
PRODUCTION = MachineConfig()

#: The stitchwelded laboratory prototype: same design, 50 ns cycle.
STITCHWELD = MachineConfig(cycle_ns=50.0)

#: The Model 0, which lacked some bypass paths (section 5.6).
MODEL0 = MachineConfig(bypass_enabled=False)

#: The production machine with the simulator's plan cache disabled:
#: every cycle re-decodes microword fields.  Only useful as the
#: reference side of differential tests and benchmarks.
INTERPRETED = MachineConfig(plan_cache_enabled=False, trace_cache_enabled=False)

#: The production machine running on decoded execution plans but with
#: the compiled-trace tier off: the middle rung of the three-way
#: differential ladder (interp / plan / traced) and the baseline the
#: traced tier's speedup is measured against.
PLAN_ONLY = MachineConfig(trace_cache_enabled=False)
