"""The hardware stacks (section 6.3.3).

"STACK: a memory addressed by the STACKPTR register.  A word can be read
or written, and STACKPTR adjusted up or down, in one microinstruction.
If STACK is used in a microinstruction, it replaces any use of RM, and
the RAddress field in the microinstruction tells how much to increment
or decrement STACKPTR.  The 256 word memory is divided into four 64 word
stacks, with independent underflow and overflow checking."

STACKPTR is eight bits: the top two select a stack, the low six a word
within it.  Our one-microinstruction semantics (see DESIGN.md):

* the **read** side of the instruction sees the word at the *old*
  STACKPTR (so ``pop`` = read, delta -1);
* STACKPTR is then adjusted by the RAddress delta;
* the **write** side (LoadControl RM) stores at the *new* STACKPTR
  (so ``push`` = delta +1, write).

Overflow/underflow: a delta that carries out of the six-bit word index
(wrapping within the same stack) latches that stack's error flag, which
microcode reads through the fault register.  The hardware wraps the
pointer; so do we.
"""

from __future__ import annotations

from typing import List

from ..state import int_array
from ..types import word

STACK_WORDS = 256
STACKS = 4
WORDS_PER_STACK = STACK_WORDS // STACKS


class StackUnit:
    """The 256-word stack memory, STACKPTR, and the four error flags."""

    def __init__(self) -> None:
        self.memory: List[int] = [0] * STACK_WORDS
        self.pointer = 0  # 8 bits: stack(2) | word(6)
        self.overflow: List[bool] = [False] * STACKS
        self.underflow: List[bool] = [False] * STACKS

    @property
    def stack_number(self) -> int:
        return (self.pointer >> 6) & 0x3

    @property
    def word_index(self) -> int:
        return self.pointer & 0x3F

    def write_pointer(self, value: int) -> None:
        """FF ``STACKPTR_B``: load the full 8-bit pointer."""
        self.pointer = value & 0xFF

    def read_top(self) -> int:
        """The word STACK currently addresses (the read side)."""
        return self.memory[self.pointer]

    def adjust(self, delta: int) -> None:
        """Move STACKPTR by the RAddress delta, latching errors.

        The stack-select bits are unaffected: arithmetic wraps within
        the 64-word stack, and wrap direction decides which error flag
        is set ("independent underflow and overflow checking").
        """
        old_index = self.word_index
        new_index = (old_index + delta) & 0x3F
        raw = old_index + delta
        if raw > 0x3F:
            self.overflow[self.stack_number] = True
        elif raw < 0:
            self.underflow[self.stack_number] = True
        self.pointer = (self.pointer & 0xC0) | new_index

    def write_top(self, value: int) -> None:
        """Store at the (post-adjust) STACKPTR (the write side)."""
        self.memory[self.pointer] = word(value)

    def error_flags(self) -> int:
        """Pack the eight error bits: overflow in 3:0, underflow in 7:4."""
        value = 0
        for i in range(STACKS):
            if self.overflow[i]:
                value |= 1 << i
            if self.underflow[i]:
                value |= 1 << (4 + i)
        return value

    def clear_errors(self) -> None:
        self.overflow = [False] * STACKS
        self.underflow = [False] * STACKS

    @property
    def any_error(self) -> bool:
        return any(self.overflow) or any(self.underflow)

    def select_stack(self, number: int) -> None:
        """Point STACKPTR at the base of stack *number* (setup helper)."""
        self.pointer = (number & 0x3) << 6

    def depth(self) -> int:
        """Words on the current stack (its word index)."""
        return self.word_index

    # --- snapshot protocol (DESIGN.md section 5.4) -------------------------

    def state_dict(self) -> dict:
        return {
            "memory": list(self.memory),
            "pointer": self.pointer,
            "overflow": list(self.overflow),
            "underflow": list(self.underflow),
        }

    def load_state(self, state: dict) -> None:
        self.memory = int_array(state["memory"], STACK_WORDS)
        self.pointer = state["pointer"]
        self.overflow = [bool(v) for v in state["overflow"]]
        self.underflow = [bool(v) for v in state["underflow"]]
