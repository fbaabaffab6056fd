"""The processor cache.

Section 3: "There is also a cache which has a latency of two cycles, and
can deliver a word every cycle."  Lines hold one 16-word munch; the
cache is set-associative with LRU replacement and write-back/write-
allocate policy (dirty munches return to storage on eviction), matching
the memory-system paper.  The fast I/O system deliberately bypasses this
cache; :meth:`flush_munch` and :meth:`invalidate_munch` keep it
consistent when fast I/O touches a munch the cache holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import List, Optional, Tuple

from ..errors import ConfigError, StateError
from ..state import int_array
from ..types import MUNCH_WORDS, word


@dataclass
class CacheLine:
    valid: bool = False
    dirty: bool = False
    tag: int = -1
    words: List[int] = field(default_factory=lambda: [0] * MUNCH_WORDS)
    lru: int = 0


class Cache:
    """Set-associative munch cache with write-back and LRU."""

    def __init__(self, lines: int, ways: int) -> None:
        if lines <= 0 or ways <= 0 or lines % ways:
            raise ConfigError(f"cannot build {lines} lines as {ways} ways")
        self.num_sets = lines // ways
        self.ways = ways
        self.sets: List[List[CacheLine]] = [
            [CacheLine() for _ in range(ways)] for _ in range(self.num_sets)
        ]
        #: The same lines, set by set: the order of the state columns.
        self._lines: List[CacheLine] = list(chain.from_iterable(self.sets))
        self._clock = 0

    def _locate(self, address: int) -> Tuple[int, int]:
        """(set index, tag) for a real word address."""
        munch = address // MUNCH_WORDS
        return munch % self.num_sets, munch // self.num_sets

    def lookup(self, address: int) -> Optional[CacheLine]:
        """The line holding *address*, updating LRU, or None on miss."""
        munch = address // MUNCH_WORDS
        tag = munch // self.num_sets
        for line in self.sets[munch % self.num_sets]:
            if line.valid and line.tag == tag:
                self._clock += 1
                line.lru = self._clock
                return line
        return None

    def contains(self, address: int) -> bool:
        index, tag = self._locate(address)
        return any(line.valid and line.tag == tag for line in self.sets[index])

    def read_word(self, address: int) -> int:
        """Word read on a known hit."""
        line = self.lookup(address)
        assert line is not None, "read_word requires a hit"
        return line.words[address % MUNCH_WORDS]

    def write_word(self, address: int, value: int) -> None:
        """Word write on a known hit; marks the line dirty."""
        line = self.lookup(address)
        assert line is not None, "write_word requires a hit"
        line.words[address % MUNCH_WORDS] = word(value)
        line.dirty = True

    def fill(self, address: int, words: List[int]) -> Optional[Tuple[int, List[int]]]:
        """Install a munch, evicting the LRU way.

        Returns ``(victim_base_address, victim_words)`` when a dirty
        munch must be written back to storage, else None.
        """
        index, tag = self._locate(address)
        victim = min(self.sets[index], key=lambda line: line.lru)
        writeback = None
        if victim.valid and victim.dirty:
            victim_munch = victim.tag * self.num_sets + index
            writeback = (victim_munch * MUNCH_WORDS, list(victim.words))
        victim.valid = True
        victim.dirty = False
        victim.tag = tag
        victim.words = [word(w) for w in words]
        self._clock += 1
        victim.lru = self._clock
        return writeback

    def flush_munch(self, address: int) -> Optional[List[int]]:
        """Write-back-and-keep: returns the words if the line was dirty.

        Used before a fast-I/O read of a munch the cache holds dirty, so
        the device sees current data.
        """
        line = self.lookup(address)
        if line is None or not line.dirty:
            return None
        line.dirty = False
        return list(line.words)

    def invalidate_munch(self, address: int) -> bool:
        """Drop the line holding *address* (after a fast-I/O write)."""
        index, tag = self._locate(address)
        for line in self.sets[index]:
            if line.valid and line.tag == tag:
                line.valid = False
                line.dirty = False
                return True
        return False

    def invalidate_all(self) -> None:
        for cache_set in self.sets:
            for line in cache_set:
                line.valid = False
                line.dirty = False

    def stats(self) -> Tuple[int, int]:
        """(valid lines, dirty lines) -- for tests."""
        valid = sum(line.valid for s in self.sets for line in s)
        dirty = sum(line.dirty for s in self.sets for line in s)
        return valid, dirty

    # --- snapshot protocol (DESIGN.md section 5.4) -------------------------

    def state_dict(self) -> dict:
        """The LRU clock plus every line as flat int columns.

        Lines run set by set, way by way: ``flags`` packs valid | dirty<<1,
        and ``words`` holds each line's munch in turn.  A mostly idle
        cache is a few runs per column in canonical JSON.
        """
        lines = self._lines
        return {
            "clock": self._clock,
            "tag": [line.tag for line in lines],
            "flags": [line.valid | line.dirty << 1 for line in lines],
            "lru": [line.lru for line in lines],
            "words": list(chain.from_iterable(line.words for line in lines)),
        }

    def load_state(self, state: dict) -> None:
        """Fill the existing lines from the columns.

        Every column is checked against this cache's geometry (runs
        before they expand) before any line changes.
        """
        count = len(self._lines)
        tags = int_array(state["tag"], count)
        flags = int_array(state["flags"], count)
        lru = int_array(state["lru"], count)
        words = int_array(state["words"], count * MUNCH_WORDS)
        if not 0 <= min(flags) <= max(flags) <= 3:
            raise StateError("cache line flags outside valid | dirty << 1")
        self._clock = state["clock"]
        for index, line in enumerate(self._lines):
            line.valid = bool(flags[index] & 1)
            line.dirty = bool(flags[index] & 2)
            line.tag = tags[index]
            line.lru = lru[index]
            start = index * MUNCH_WORDS
            line.words = words[start : start + MUNCH_WORDS]
