"""The processor cache.

Section 3: "There is also a cache which has a latency of two cycles, and
can deliver a word every cycle."  Lines hold one 16-word munch; the
cache is set-associative with LRU replacement and write-back/write-
allocate policy (dirty munches return to storage on eviction), matching
the memory-system paper.  The fast I/O system deliberately bypasses this
cache; :meth:`flush_munch` and :meth:`invalidate_munch` keep it
consistent when fast I/O touches a munch the cache holds.

Like the hardware's tag, flag and data arrays, the cache is flat
columns, one entry per line, set by set and way by way: line ``i`` is
way ``i % ways`` of set ``i // ways`` and holds ``words[16*i : 16*i+16]``.
These columns are exactly what a snapshot stores (DESIGN.md section 5.4).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..errors import ConfigError, StateError
from ..state import int_array
from ..types import MUNCH_WORDS, word

#: Bits of the ``flags`` column.
LINE_VALID = 1
LINE_DIRTY = 2


class Cache:
    """Set-associative munch cache with write-back and LRU."""

    def __init__(self, lines: int, ways: int) -> None:
        if lines <= 0 or ways <= 0 or lines % ways:
            raise ConfigError(f"cannot build {lines} lines as {ways} ways")
        self.num_sets = lines // ways
        self.ways = ways
        self.clock = 0
        self.tag = [-1] * lines
        self.flags = [0] * lines
        self.lru = [0] * lines
        self.words = [0] * (lines * MUNCH_WORDS)
        #: munch -> line, for every valid line: a probe is one lookup.
        self.resident: Dict[int, int] = {}

    def _locate(self, address: int) -> Tuple[int, int]:
        """(set index, tag) for a real word address."""
        munch = address // MUNCH_WORDS
        return munch % self.num_sets, munch // self.num_sets

    def lookup(self, address: int) -> Optional[int]:
        """The line holding *address*, updating LRU, or None on miss."""
        line = self.resident.get(address // MUNCH_WORDS)
        if line is not None:
            self.clock += 1
            self.lru[line] = self.clock
        return line

    def contains(self, address: int) -> bool:
        return address // MUNCH_WORDS in self.resident

    def read_word(self, address: int) -> int:
        """Word read on a known hit."""
        line = self.lookup(address)
        assert line is not None, "read_word requires a hit"
        return self.words[line * MUNCH_WORDS + address % MUNCH_WORDS]

    def write_word(self, address: int, value: int) -> None:
        """Word write on a known hit; marks the line dirty."""
        line = self.lookup(address)
        assert line is not None, "write_word requires a hit"
        self.words[line * MUNCH_WORDS + address % MUNCH_WORDS] = word(value)
        self.flags[line] = LINE_VALID | LINE_DIRTY

    def fill(self, address: int, words: List[int]) -> Optional[Tuple[int, List[int]]]:
        """Install a munch, evicting the LRU way.

        Returns ``(victim_base_address, victim_words)`` when a dirty
        munch must be written back to storage, else None.
        """
        index, tag = self._locate(address)
        first = index * self.ways
        victim = min(range(first, first + self.ways), key=self.lru.__getitem__)
        start = victim * MUNCH_WORDS
        writeback = None
        if self.flags[victim] & LINE_VALID:
            victim_munch = self.tag[victim] * self.num_sets + index
            del self.resident[victim_munch]
            if self.flags[victim] & LINE_DIRTY:
                writeback = (
                    victim_munch * MUNCH_WORDS,
                    self.words[start : start + MUNCH_WORDS],
                )
        self.flags[victim] = LINE_VALID
        self.tag[victim] = tag
        self.words[start : start + MUNCH_WORDS] = [word(w) for w in words]
        self.clock += 1
        self.lru[victim] = self.clock
        self.resident[address // MUNCH_WORDS] = victim
        return writeback

    def flush_munch(self, address: int) -> Optional[List[int]]:
        """Write-back-and-keep: returns the words if the line was dirty.

        Used before a fast-I/O read of a munch the cache holds dirty, so
        the device sees current data.
        """
        line = self.lookup(address)
        if line is None or not self.flags[line] & LINE_DIRTY:
            return None
        self.flags[line] = LINE_VALID
        start = line * MUNCH_WORDS
        return self.words[start : start + MUNCH_WORDS]

    def invalidate_munch(self, address: int) -> bool:
        """Drop the line holding *address* (after a fast-I/O write)."""
        line = self.resident.pop(address // MUNCH_WORDS, None)
        if line is None:
            return False
        self.flags[line] = 0
        return True

    def invalidate_all(self) -> None:
        self.flags[:] = [0] * len(self.flags)
        self.resident.clear()

    def stats(self) -> Tuple[int, int]:
        """(valid lines, dirty lines) -- for tests."""
        valid = sum(flags & LINE_VALID for flags in self.flags)
        dirty = sum(flags >> 1 for flags in self.flags)
        return valid, dirty

    # --- snapshot protocol (DESIGN.md section 5.4) -------------------------

    def state_dict(self) -> dict:
        """The LRU clock plus copies of the columns.

        ``flags`` packs valid | dirty<<1.  A mostly idle cache is a few
        runs per column in canonical JSON.
        """
        return {
            "clock": self.clock,
            "tag": list(self.tag),
            "flags": list(self.flags),
            "lru": list(self.lru),
            "words": list(self.words),
        }

    def load_state(self, state: dict) -> None:
        """Check the columns against this cache's geometry, then take them.

        Runs are checked before they expand, and a set holding two valid
        lines with one tag is refused (a probe could find either), all
        before anything changes.
        """
        count = len(self.tag)
        tags = int_array(state["tag"], count)
        flags = int_array(state["flags"], count)
        lru = int_array(state["lru"], count)
        words = int_array(state["words"], count * MUNCH_WORDS)
        if not 0 <= min(flags) <= max(flags) <= LINE_VALID | LINE_DIRTY:
            raise StateError("cache line flags outside valid | dirty << 1")
        ways, num_sets = self.ways, self.num_sets
        valid = [line for line in range(count) if flags[line] & LINE_VALID]
        resident = {tags[line] * num_sets + line // ways: line for line in valid}
        if len(resident) != len(valid):
            raise StateError("a cache set holds two valid lines with one tag")
        self.clock = state["clock"]
        self.tag, self.flags, self.lru, self.words = tags, flags, lru, words
        self.resident = resident
