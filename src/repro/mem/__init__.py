"""The Dorado memory system substrate (Clark et al., reference [1]).

The processor paper depends on a memory system with a cache ("delivers
a word in two cycles, and can deliver a word every cycle"), a map from
16-bit displacements plus 28-bit base registers to real storage, main
storage that cycles every eight processor cycles, and a fast-I/O path
that moves 16-word munches between storage and devices without
polluting the cache.  This subpackage implements all of it.
"""

from .cache import Cache
from .map import AddressTranslator
from .pipeline import MemorySystem
from .storage import Storage

__all__ = ["AddressTranslator", "Cache", "MemorySystem", "Storage"]
