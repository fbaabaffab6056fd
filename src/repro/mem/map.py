"""Virtual address formation and the page map.

Section 6.3.2: "MEMADDRESS provides a sixteen bit displacement, which is
added to a 28 bit base register in the memory system to form a virtual
address."  MEMBASE (5 bits) selects one of 32 base registers.  The
virtual address is then translated by a page map to a real storage
address; the map holds per-page write-protect and valid bits, and
latches dirty/referenced bits the way the real map hardware did.

Each entry is one int, ``real_page << 4 | flags``, with the flag bits
of the snapshot's map column (DESIGN.md section 5.4): valid |
write_protected<<1 | dirty<<2 | referenced<<3.  The real page is kept
as written, unmasked, so the sanitizer can see a corrupted one.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Dict, Optional

from ..errors import ConfigError, StateError
from ..state import int_array
from ..types import word

#: Words per virtual/real page for map purposes.
PAGE_WORDS = 256
PAGE_SHIFT = 8

#: Map-entry flag bits, as packed into the 16-bit word microcode sees
#: through FF ``READ_MAP`` / ``MAP_WRITE``.
FLAG_VALID = 0x8000
FLAG_WRITE_PROTECT = 0x4000
FLAG_DIRTY = 0x2000
FLAG_REFERENCED = 0x1000
REAL_PAGE_MASK = 0x0FFF

#: Bits of a live map entry's low nibble.
ENTRY_VALID = 1
ENTRY_WRITE_PROTECTED = 2
ENTRY_DIRTY = 4
ENTRY_REFERENCED = 8

#: The map word's flag nibble (valid, write-protect, dirty, referenced
#: from bit 15 down) read backwards is the entry's flag nibble (valid,
#: write_protected, dirty, referenced from bit 0 up); reversing four
#: bits is its own inverse, so one table converts both ways.
_REVERSED = [int(f"{nibble:04b}"[::-1], 2) for nibble in range(16)]


class AddressTranslator:
    """Base registers plus the page map."""

    def __init__(self, num_base_registers: int, base_register_bits: int) -> None:
        if num_base_registers <= 0:
            raise ConfigError("need at least one base register")
        self._base_mask = (1 << base_register_bits) - 1
        self.bases = [0] * num_base_registers
        #: virtual page -> ``real_page << 4 | flags``.
        self.map: Dict[int, int] = {}
        #: One-shot injected fault, armed by the memory pipeline right
        #: before a timed reference translates (fault injection,
        #: DESIGN.md section 5.2).  A spurious map or write-protect
        #: fault makes this one translation fail as if the map RAM had
        #: misread; the entry itself is untouched, so the next
        #: reference succeeds.  Untimed debug reads never see it.
        self.inject_next = None

    # --- base registers ----------------------------------------------------

    def write_base_low(self, index: int, value: int) -> None:
        """FF ``BASE_LO_B``: the low 16 bits of a base register."""
        index %= len(self.bases)
        self.bases[index] = (self.bases[index] & ~0xFFFF | word(value)) & self._base_mask

    def write_base_high(self, index: int, value: int) -> None:
        """FF ``BASE_HI_B``: the bits above 16 of a base register."""
        index %= len(self.bases)
        low = self.bases[index] & 0xFFFF
        self.bases[index] = ((word(value) << 16) | low) & self._base_mask

    def read_base(self, index: int) -> int:
        return self.bases[index % len(self.bases)]

    def virtual_address(self, membase: int, displacement: int) -> int:
        """VA = base register + 16-bit displacement (section 6.3.2)."""
        bases = self.bases
        return (bases[membase % len(bases)] + (displacement & 0xFFFF)) & self._base_mask

    # --- the page map --------------------------------------------------------

    def map_write(self, virtual_page: int, encoded: int) -> None:
        """FF ``MAP_WRITE``: install a map entry from its 16-bit word."""
        value = word(encoded)
        self.map[virtual_page] = (value & REAL_PAGE_MASK) << 4 | _REVERSED[value >> 12]

    def map_read(self, virtual_page: int) -> int:
        """FF ``READ_MAP``: the entry's 16-bit word (zero when absent)."""
        entry = self.map.get(virtual_page)
        if entry is None:
            return 0
        return _REVERSED[entry & 15] << 12 | (entry >> 4) & REAL_PAGE_MASK

    def translate(self, va: int, write: bool) -> Optional[int]:
        """VA to real address, or None on a map/write-protect fault.

        Sets the referenced bit on any successful translation and the
        dirty bit on a successful write, as the map hardware does.
        """
        if self.inject_next is not None:
            self.inject_next = None
            return None
        page = va >> PAGE_SHIFT
        entry = self.map.get(page)
        if entry is None or not entry & ENTRY_VALID:
            return None
        if write:
            if entry & ENTRY_WRITE_PROTECTED:
                return None
            self.map[page] = entry | ENTRY_DIRTY | ENTRY_REFERENCED
        else:
            self.map[page] = entry | ENTRY_REFERENCED
        return (entry >> 4 << PAGE_SHIFT) | (va & (PAGE_WORDS - 1))

    # --- snapshot protocol (DESIGN.md section 5.4) -------------------------

    def state_dict(self) -> dict:
        """Base registers, the map as columns, and the one-shot armed fault.

        The map's entries run in page order as three int columns: the
        gap from the previous page (the first from page 0), ``real_page
        - page``, and the entry's flag nibble.  An identity-mapped clean
        map is a few runs per column in canonical JSON.
        """
        inject = self.inject_next
        gaps, offsets, flags = [], [], []
        previous = 0
        for page, entry in sorted(self.map.items()):
            gaps.append(page - previous)
            offsets.append((entry >> 4) - page)
            flags.append(entry & 15)
            previous = page
        return {
            "bases": list(self.bases),
            "page_gap": gaps,
            "real_offset": offsets,
            "flags": flags,
            "inject_next": inject.value if inject is not None else None,
        }

    @property
    def virtual_pages(self) -> int:
        """How many pages a virtual address can name."""
        return (self._base_mask >> PAGE_SHIFT) + 1

    def load_state(self, state: dict) -> None:
        """Rebuild the map from its columns, checked before it changes.

        The map holds at most :attr:`virtual_pages` entries, at strictly
        increasing pages below that count.
        """
        limit = self.virtual_pages
        gaps = int_array(state["page_gap"], limit=limit)
        offsets = int_array(state["real_offset"], len(gaps))
        flags = int_array(state["flags"], len(gaps))
        pages = list(accumulate(gaps))
        if pages and (
            gaps[0] < 0 or min(gaps[1:], default=1) < 1 or pages[-1] >= limit
        ):
            raise StateError(
                f"map pages do not rise strictly from 0 below the {limit} "
                f"virtual pages"
            )
        if flags and not 0 <= min(flags) <= max(flags) <= 15:
            raise StateError("map entry flags outside their four bits")
        self.bases = list(state["bases"])
        self.map = {
            page: (page + offset) << 4 | packed
            for page, offset, packed in zip(pages, offsets, flags)
        }
        inject = state["inject_next"]
        if inject is None:
            self.inject_next = None
        else:
            from ..fault.plan import FaultKind
            self.inject_next = FaultKind(inject)

    def identity_map(self, pages: int, write_protected_pages: int = 0) -> None:
        """Map virtual pages 0..pages-1 straight through (setup helper).

        Pages no virtual address can name are left out: with narrow base
        registers, storage can hold more pages than a VA reaches.
        """
        for page in range(min(pages, self.virtual_pages)):
            self.map[page] = page << 4 | ENTRY_VALID | (
                ENTRY_WRITE_PROTECTED if page < write_protected_pages else 0
            )
