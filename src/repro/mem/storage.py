"""Main storage.

"In addition there are up to 4 storage modules, with about 300 16K or
64K RAMS ... for a maximum of 8 megabytes" (section 1).  Storage is
organized in 16-word munches; "The maximum rate at which storage
references can be made is one every eight cycles (this is the cycle
time of our storage RAMS)" (section 6.2.1) -- the timing lives in
:mod:`repro.mem.pipeline`; this module is the RAM array itself.
"""

from __future__ import annotations

from array import array
from itertools import groupby
from typing import List, Sequence, Set

from ..errors import ConfigError, StateError
from ..state import RLE_KEY, RLE_MIN, checked_runs
from ..types import MUNCH_WORDS, word
from .map import PAGE_SHIFT, PAGE_WORDS


class Storage:
    """A flat array of 16-bit words, addressed by real address."""

    def __init__(self, words: int) -> None:
        if words <= 0 or words % MUNCH_WORDS:
            raise ConfigError(f"storage size {words} must be a positive multiple of {MUNCH_WORDS}")
        self.size = words
        #: 16-bit words in an ``array``: a quarter of a list's memory,
        #: and nothing for the cyclic garbage collector to traverse.
        self._data = _zeros(words)
        #: Every page (``address >> PAGE_SHIFT``) that may hold a nonzero
        #: word; all other pages are zero.  Snapshots walk these alone.
        self._touched: Set[int] = set()
        #: Optional ECC model on the munch read path; the memory system
        #: installs an :class:`~repro.fault.injector.EccFilter` here
        #: when fault injection is configured.  The stored data is never
        #: modified -- errors happen "on the wires".
        self.ecc = None

    def in_range(self, address: int) -> bool:
        return 0 <= address < self.size

    def read_word(self, address: int) -> int:
        return self._data[address]

    def write_word(self, address: int, value: int) -> None:
        self._data[address] = word(value)
        self._touched.add(address >> PAGE_SHIFT)

    @staticmethod
    def munch_base(address: int) -> int:
        """The first word address of the munch containing *address*."""
        return address & ~(MUNCH_WORDS - 1)

    def read_munch(self, address: int) -> List[int]:
        """The 16 words of the munch containing *address*."""
        base = self.munch_base(address)
        data = self._data[base : base + MUNCH_WORDS].tolist()
        if self.ecc is not None:
            data = self.ecc.filter_read(base, data)
        return data

    def write_munch(self, address: int, values: Sequence[int]) -> None:
        if len(values) != MUNCH_WORDS:
            raise ConfigError(f"a munch is {MUNCH_WORDS} words, got {len(values)}")
        base = self.munch_base(address)
        self._data[base : base + MUNCH_WORDS] = array("H", [word(v) for v in values])
        self._touched.add(base >> PAGE_SHIFT)

    def load(self, address: int, values: Sequence[int]) -> None:
        """Bulk image load (program/bitmap setup; not a timed operation)."""
        if address < 0 or address + len(values) > self.size:
            raise ConfigError(
                f"load of {len(values)} words at {address} exceeds storage of {self.size}"
            )
        words = array("H", [word(v) for v in values])
        self._data[address : address + len(words)] = words
        self._touched.update(_pages(address, address + len(values)))

    def dump(self, address: int, count: int) -> List[int]:
        """Bulk image read (for tests and verification)."""
        return self._data[address : address + count].tolist()

    # --- snapshot protocol (DESIGN.md section 5.4) -------------------------

    def state_dict(self) -> dict:
        """The RAM image; ``ecc`` is a hook, ``size`` is config.

        The image is given in canonical JSON's run form, built from the
        touched pages alone with zero runs between them, so its cost
        follows what the machine wrote rather than the storage size.
        The runs equal those of the dense image, so the canonical bytes
        do too; an image too short for run coding stays a list.
        """
        if self.size < RLE_MIN:
            return {"data": self._data.tolist()}
        data = self._data
        runs: List[List[int]] = []
        covered = 0
        for page in sorted(self._touched):
            start = page << PAGE_SHIFT
            if start > covered:
                _append_run(runs, 0, start - covered)
            covered = min(start + PAGE_WORDS, self.size)
            for value, group in groupby(data[start:covered]):
                _append_run(runs, value, len(list(group)))
        if covered < self.size:
            _append_run(runs, 0, self.size - covered)
        return {"data": {RLE_KEY: runs}}

    def load_state(self, state: dict) -> None:
        """Load an image in run form or as a dense list of words.

        Images can come from outside the program (suspend envelopes,
        saved states), so both forms are checked: runs, and their total
        against the storage size, before any is loaded; a list page by
        page, skipping pages of zeros.  A parsed state carries the runs.
        """
        data = state["data"]
        if isinstance(data, dict):
            self._load_runs(data[RLE_KEY])
        else:
            self._load_words(data)

    def _load_runs(self, runs) -> None:
        runs = checked_runs(runs, self.size)
        image = _zeros(self.size)
        touched: Set[int] = set()
        start = 0
        for value, count in runs:
            end = start + count
            if value:
                if not 0 <= value <= 0xFFFF:
                    raise StateError(f"storage word {value!r} is not 16 bits")
                image[start:end] = array("H", [value]) * count
                touched.update(_pages(start, end))
            start = end
        self._data = image
        self._touched = touched

    def _load_words(self, data) -> None:
        if len(data) != self.size:
            raise ConfigError(
                f"storage image of {len(data)} words does not fit a "
                f"{self.size}-word array"
            )
        image = _zeros(self.size)
        touched: Set[int] = set()
        for start in range(0, self.size, PAGE_WORDS):
            page = data[start : start + PAGE_WORDS]
            if page.count(0) == len(page):
                continue
            if (
                set(map(type, page)) != {int}
                or min(page) < 0
                or max(page) > 0xFFFF
            ):
                raise StateError(
                    f"storage page at {start:#x} holds a word that is not "
                    f"a 16-bit int"
                )
            image[start : start + len(page)] = array("H", page)
            touched.add(start >> PAGE_SHIFT)
        self._data = image
        self._touched = touched


def _zeros(words: int) -> array:
    """A storage image of *words* zero words."""
    return array("H", [0]) * words


def _pages(start: int, end: int) -> range:
    """The pages holding the words at ``start .. end - 1``."""
    return range(start >> PAGE_SHIFT, (end + PAGE_WORDS - 1) >> PAGE_SHIFT)


def _append_run(runs: List[List[int]], value: int, count: int) -> None:
    """Add *count* copies of *value*, extending the last run if it matches."""
    if runs and runs[-1][0] == value:
        runs[-1][1] += count
    else:
        runs.append([value, count])
