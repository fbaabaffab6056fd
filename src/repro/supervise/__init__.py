"""Self-checking, self-healing execution (DESIGN.md section 5.5).

Three layers close the loop from detection to recovery:

* :class:`~repro.supervise.sanitize.MachineCheckSanitizer` -- cheap
  microarchitectural invariants, swept over the live machine.
* :class:`~repro.supervise.supervisor.Supervisor` -- sweeps between
  ``run()`` chunks, periodic checkpoints, failure classification, bounded
  rollback-to-last-good-and-replay, compiled-steps -> interpreter
  degradation.
* :func:`~repro.supervise.diverge.find_divergence` -- lockstep
  differential comparison of the two cycle implementations on forks of
  the live machine.

:func:`architectural_json` is the comparison basis the acceptance
tests use: the canonical JSON of a snapshot with everything that
legitimately differs between a supervised and an unsupervised run
stripped -- the config signature (fault plan, cycle-path selection),
the fault section (cursors and trace), and the recovery counters.
What remains is the machine's architectural trajectory, which recovery
is required to preserve exactly.
"""

from __future__ import annotations

from itertools import accumulate

from ..core.counters import RECOVERY_FIELDS
from ..state import MachineState, canonical_json, int_array
from ..types import MUNCH_WORDS
from .diverge import DivergenceReport, find_divergence
from .sanitize import CheckFailure, MachineCheckSanitizer
from .supervisor import Supervisor

__all__ = [
    "CheckFailure",
    "DivergenceReport",
    "MachineCheckSanitizer",
    "Supervisor",
    "architectural_json",
    "find_divergence",
]


def architectural_json(state) -> str:
    """Canonical JSON of *state* minus supervision-variant sections.

    The text is the format v2 rendering: the cache and the map appear
    in their v2 layout (one record per cache line, one five-field entry
    per mapped page) under ``"version": 2``.  ``arch_hash`` hashes this
    view, so it is the benchmark's pinned identity and the one place
    the v2 layout lives; a format bump does not move it (DESIGN.md
    5.4).  The input snapshot is not mutated.
    """
    data = state.data if isinstance(state, MachineState) else state
    core = dict(data["core"])
    counters = dict(core["counters"])
    for name in RECOVERY_FIELDS:
        counters.pop(name, None)
    core["counters"] = counters
    mem = data["mem"]
    mem_texts = {
        key: canonical_json(value)
        for key, value in mem.items()
        if key not in ("cache", "translator")
    }
    mem_texts["cache"] = _v2_cache(mem["cache"], data["config"]["cache_ways"])
    mem_texts["translator"] = _v2_translator(mem["translator"])
    texts = {
        key: canonical_json(value)
        for key, value in data.items()
        if key not in ("config", "fault", "core", "mem", "version")
    }
    texts["core"] = canonical_json(core)
    texts["mem"] = _object(mem_texts)
    texts["version"] = "2"
    return _object(texts)


def _object(texts) -> str:
    """A canonical JSON object from its members' canonical texts.

    State keys are identifiers or stringified ints, so none needs
    escaping.
    """
    return "{" + ",".join(f'"{key}":{texts[key]}' for key in sorted(texts)) + "}"


def _column(data, length=None):
    """A state column as a list: a live list as it is, runs expanded."""
    return data if type(data) is list else int_array(data, length)


_BOOL = ("false", "true")


def _v2_cache(cache, ways: int) -> str:
    """The cache section as format v2 wrote it: sets of line records."""
    tags = _column(cache["tag"])
    flags = _column(cache["flags"], len(tags))
    lru = _column(cache["lru"], len(tags))
    words = list(map(str, _column(cache["words"], len(tags) * MUNCH_WORDS)))
    munches = (
        ",".join(words[start : start + MUNCH_WORDS])
        for start in range(0, len(words), MUNCH_WORDS)
    )
    lines = [
        f'{{"dirty":{_BOOL[flag >> 1 & 1]},"lru":{stamp},"tag":{tag},'
        f'"valid":{_BOOL[flag & 1]},"words":[{munch}]}}'
        for tag, flag, stamp, munch in zip(tags, flags, lru, munches)
    ]
    sets = ",".join(
        "[" + ",".join(lines[start : start + ways]) + "]"
        for start in range(0, len(lines), ways)
    )
    return f'{{"clock":{cache["clock"]},"sets":[{sets}]}}'


#: A v2 map entry's four flags, after its real page, by packed flags.
_MAP_FLAGS = [
    "," + ",".join(_BOOL[flags >> bit & 1] for bit in range(4)) + "]"
    for flags in range(16)
]


def _v2_translator(translator) -> str:
    """The translator section as format v2 wrote it: a page-keyed map."""
    gaps = _column(translator["page_gap"])
    offsets = _column(translator["real_offset"], len(gaps))
    flags = _column(translator["flags"], len(gaps))
    pages = list(accumulate(gaps))
    # '"' sorts below every digit, so the entries sort as their keys do.
    entries = sorted(
        f'"{page}":[{page + offset}{_MAP_FLAGS[flag]}'
        for page, offset, flag in zip(pages, offsets, flags)
    )
    return _object({
        "bases": canonical_json(translator["bases"]),
        "inject_next": canonical_json(translator["inject_next"]),
        "map": "{" + ",".join(entries) + "}",
    })
