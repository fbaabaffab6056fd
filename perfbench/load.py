"""Seeded load generator: the only source of the benchmark's inputs.

Every input the program receives -- session names, workloads, argument
sizes, fault templates -- is a pure function of ``--seed`` and the
workload profile.  Sizes come from fixed grids and fault seeds from a
fixed pool, so every session the generator can emit has a serial
reference pinned in ``reference.json`` (written by ``pin.py``).

The stream is endless and comes in *blocks*: each block holds every
rotation workload once (plus the profile's corebench stages), shuffled,
each at one of its two candidate sizes.  The seed therefore moves which size a
session gets, the session order and which sessions carry faults, while
the work in every block stays nearly the same from seed to seed -- the
property that lets runs on ten different seeds agree within the
benchmark's bounds.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import random
from typing import Any, Dict, Iterator, List, Optional, Tuple

#: The seed the benchmark runs by default, and one kept out of all tuning
#: of the grids below; a claimed gain must also hold on the held-out seed.
DEFAULT_SEED = 1
HELD_OUT_SEED = 8191

#: The load test's session rotation (``repro.service.loadtest.ROTATION``):
#: one workload per emulator family plus the hardware-multiply kernel.
#: Copied rather than imported so that the benchmark's inputs stay fixed
#: when the load test changes.
ROTATION = (
    "mesa_loop_sum",
    "lisp_list_sum",
    "bcpl_loop_sum",
    "smalltalk_counter",
    "mesa_mul_kernel",
)

#: The size argument of each rotation workload's builder.
SIZE_ARG = {
    "mesa_loop_sum": "n",
    "lisp_list_sum": "n",
    "bcpl_loop_sum": "n",
    "smalltalk_counter": "sends",
    "mesa_mul_kernel": "iters",
}

#: The load test's recoverable fault template (one ECC double-bit error
#: and one spurious map fault early in the run), copied for the same
#: reason as ROTATION.  A faulted session adds a seed from FAULT_SEEDS.
FAULT_TEMPLATE = {
    "storage_uncorrectable": 1,
    "map_faults": 1,
    "first_cycle": 0,
    "last_cycle": 2200,
}

#: Fault-plan seeds a faulted session may draw.  ``pin.py`` proves that
#: every faulted spec built from them recovers under supervision.
FAULT_SEEDS = (101, 202, 303)

#: The corebench stages core_run adds to its session mix.
STAGES = ("E2_bitblt_copy", "E4_display_fast_io")


@dataclasses.dataclass(frozen=True)
class Profile:
    """One workload's fixed parameters (README.md says why each was chosen)."""

    name: str
    #: Per rotation workload: (size, step); a session draws size or
    #: size + step.
    grids: Dict[str, Tuple[int, int]]
    slice_cycles: int
    #: Stream entries in the traced pass (whole blocks).
    trace_entries: int
    #: Sessions that complete before the timed window opens.
    warmup: int
    fault_every: int = 0
    stages: Tuple[str, ...] = ()
    workers: int = 0            # 0: sessions run in-process, no fleet
    capacity: int = 0
    in_flight: int = 0
    checkpoint_every: int = 0
    #: Supervision knobs of faulted sessions (the load test's values).
    checkpoint_interval: int = 600
    max_retries: int = 4

    def sizes(self, workload: str, tiny: bool = False) -> Tuple[int, ...]:
        size, step = self.grids[workload]
        return (max(2, size // 20),) if tiny else (size, size + step)


PROFILES: Dict[str, Profile] = {
    "core_run": Profile(
        name="core_run",
        grids={
            "mesa_loop_sum": (4000, 400),
            "lisp_list_sum": (1400, 100),
            "bcpl_loop_sum": (6000, 500),
            "smalltalk_counter": (1800, 150),
            "mesa_mul_kernel": (2700, 250),
        },
        slice_cycles=20_000,
        trace_entries=7,
        warmup=2,
        stages=STAGES,
    ),
    "fleet_churn": Profile(
        name="fleet_churn",
        grids={
            "mesa_loop_sum": (160, 20),
            "lisp_list_sum": (27, 3),
            "bcpl_loop_sum": (240, 30),
            "smalltalk_counter": (48, 6),
            "mesa_mul_kernel": (80, 10),
        },
        slice_cycles=1200,
        trace_entries=5,
        warmup=2,
        fault_every=3,
        workers=2,
        capacity=1,
        in_flight=2,
        checkpoint_every=8,
    ),
    "fleet_resident": Profile(
        name="fleet_resident",
        grids={
            "mesa_loop_sum": (2700, 200),
            "lisp_list_sum": (440, 30),
            "bcpl_loop_sum": (4000, 300),
            "smalltalk_counter": (820, 50),
            "mesa_mul_kernel": (1320, 80),
        },
        slice_cycles=12_000,
        trace_entries=10,
        warmup=2,
        workers=2,
        capacity=16,
        in_flight=6,
        checkpoint_every=4,
    ),
}


def spec_key(workload: str, size: Optional[int], fault_seed: Optional[int],
             slice_cycles: int) -> str:
    """The reference-table key of one session (or stage) spec."""
    return f"{workload}:{size}:{fault_seed or 0}:{slice_cycles}"


def fault_for(fault_seed: Optional[int]) -> Optional[Dict[str, int]]:
    return None if fault_seed is None else dict(FAULT_TEMPLATE, seed=fault_seed)


def _rng(seed: int, profile: str) -> random.Random:
    digest = hashlib.sha256(f"perfbench/{profile}/{seed}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _block(profile: Profile, rng: random.Random,
           tiny: bool) -> List[Tuple[str, Optional[int]]]:
    block: List[Tuple[str, Optional[int]]] = [
        (workload, rng.choice(profile.sizes(workload, tiny)))
        for workload in ROTATION
    ]
    block.extend((stage, None) for stage in profile.stages)
    rng.shuffle(block)
    return block


def stream(profile: Profile, seed: int,
           tiny: bool = False) -> Iterator[Dict[str, Any]]:
    """The endless seeded session stream of *profile*."""
    rng = _rng(seed, profile.name)
    sessions = 0
    index = itertools.count()
    while True:
        for workload, size in _block(profile, rng, tiny):
            fault_seed = None
            if size is not None:
                sessions += 1
                if profile.fault_every and sessions % profile.fault_every == 0:
                    fault_seed = rng.choice(FAULT_SEEDS)
            yield {
                "name": f"s{next(index):05d}",
                "workload": workload,
                "stage": size is None,
                "args": {} if size is None else {SIZE_ARG[workload]: size},
                "fault": fault_for(fault_seed),
                "key": spec_key(workload, size, fault_seed,
                                profile.slice_cycles),
            }


def all_specs(profile: Profile, tiny: bool = False
              ) -> Iterator[Tuple[str, Optional[int], Optional[int]]]:
    """Every (workload, size, fault seed) the stream can emit."""
    for workload in ROTATION:
        for size in profile.sizes(workload, tiny):
            yield workload, size, None
            if profile.fault_every:
                for fault_seed in FAULT_SEEDS:
                    yield workload, size, fault_seed
    for stage in profile.stages:
        yield stage, None, None
