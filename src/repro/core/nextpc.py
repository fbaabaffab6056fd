"""NEXTPC computation (sections 5.5 and 6.2.2).

The Dorado divides the microstore into pages and encodes the successor
as a type field plus a few in-page address bits, instead of carrying a
full next address in every microword: "substantially fewer bits to
control microsequencing than a horizontal encoding would require (in
the Dorado, 8 bits instead of about 16)".  FF can supply "part of a
jump address" for cross-page transfers and far branch pairs.

Conditional branches OR the (late-arriving) condition into the low bit
of NEXTPC, so false targets sit at even addresses and true targets at
the next odd address -- with the consequences for microcode placement
that :mod:`repro.asm.placer` deals with.

This module owns the task-specific LINK registers and the pure address
arithmetic; the processor evaluates conditions and consults the IFU.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional

from ..config import MachineConfig
from ..errors import EncodingError
from ..types import NUM_TASKS
from . import functions
from .microword import MicroInstruction, Misc, NextControl, NextType


class NextOutcome(enum.Enum):
    """What the processor must do with a computed successor."""

    JUMP = "jump"            #: NEXTPC is in :attr:`NextResult.target`
    NEXT_MACRO = "nextmacro"  #: take the IFU dispatch (may Hold)


@dataclass(frozen=True)
class NextResult:
    outcome: NextOutcome
    target: int = 0
    notify_console: bool = False


class ControlSection:
    """Page arithmetic, LINK registers, and the NEXTPC calculation."""

    def __init__(self, config: MachineConfig) -> None:
        self.config = config
        self.page_size = config.page_size
        self.im_mask = config.im_size - 1
        self.link: List[int] = [0] * NUM_TASKS

    def page_base(self, pc: int) -> int:
        return pc & ~(self.page_size - 1)

    def _local(self, pc: int, offset: int) -> int:
        return self.page_base(pc) | (offset & (self.page_size - 1))

    def _far(self, page: int, offset: int) -> int:
        return ((page * self.page_size) | (offset & (self.page_size - 1))) & self.im_mask

    def _goto_target(self, inst: MicroInstruction, pc: int, ff_is_function: bool) -> int:
        offset = NextControl.payload(inst.nc)
        if ff_is_function and functions.is_jump_page(inst.ff):
            return self._far(functions.bank_argument(inst.ff), offset)
        return self._local(pc, offset)

    def compute(
        self,
        inst: MicroInstruction,
        pc: int,
        task: int,
        condition_taken: bool,
        b_value: int,
        ff_is_function: bool = True,
    ) -> NextResult:
        """The NEXTPC for one executing (not held) instruction.

        *ff_is_function* is false when BSelect made FF constant data, in
        which case it can supply no JumpPage/BranchPair assist.  Side
        effects on LINK follow section 6.2.3: LINK is "loaded with the
        value THISPC+1 on every microcode call or return", and FF
        ``LINK_B`` elsewhere lets microcode build subroutine stacks.
        """
        kind = NextControl.kind(inst.nc)
        payload = NextControl.payload(inst.nc)

        if kind == NextType.GOTO:
            return NextResult(NextOutcome.JUMP, self._goto_target(inst, pc, ff_is_function))

        if kind == NextType.CALL:
            self.link[task] = (pc + 1) & self.im_mask
            return NextResult(NextOutcome.JUMP, self._goto_target(inst, pc, ff_is_function))

        if kind == NextType.BRANCH:
            if ff_is_function and functions.is_branch_pair(inst.ff):
                pair = functions.bank_argument(inst.ff)
            else:
                pair = NextControl.branch_pair(inst.nc)
            false_target = self.page_base(pc) + pair * 2
            # The condition ORs into the low bit of NEXTPC (section 5.5).
            return NextResult(
                NextOutcome.JUMP, false_target | (1 if condition_taken else 0)
            )

        # MISC: payload = code(3) | arg(3).
        code = Misc(payload >> 3)
        arg = payload & 0x7
        if code in (Misc.RETURN, Misc.RETURN_CALL):
            target = self.link[task]
            self.link[task] = (pc + 1) & self.im_mask
            return NextResult(NextOutcome.JUMP, target)
        if code == Misc.NEXTMACRO:
            return NextResult(NextOutcome.NEXT_MACRO)
        if code == Misc.DISPATCH8:
            target = self.page_base(pc) + arg * 8 + (b_value & 0x7)
            return NextResult(NextOutcome.JUMP, target & self.im_mask)
        if code == Misc.DISPATCH256:
            if not (ff_is_function and functions.is_jump_page(inst.ff)):
                raise EncodingError("DISPATCH256 requires FF JumpPage for the region")
            region = (functions.bank_argument(inst.ff) * self.page_size) & ~0xFF
            return NextResult(NextOutcome.JUMP, (region + (b_value & 0xFF)) & self.im_mask)
        if code == Misc.CALL_FF:
            if not (ff_is_function and functions.is_jump_page(inst.ff)):
                raise EncodingError("CALL_FF requires FF JumpPage")
            self.link[task] = (pc + 1) & self.im_mask
            return NextResult(
                NextOutcome.JUMP, self._far(functions.bank_argument(inst.ff), arg)
            )
        if code == Misc.IDLE:
            return NextResult(NextOutcome.JUMP, pc)
        if code == Misc.NOTIFY:
            return NextResult(
                NextOutcome.JUMP, (pc + 1) & self.im_mask, notify_console=True
            )
        raise EncodingError(f"unhandled MISC code {code!r}")

    # --- snapshot protocol (DESIGN.md section 5.4) -------------------------

    def state_dict(self) -> dict:
        """Only LINK is state; the page arithmetic is config-derived."""
        return {"link": list(self.link)}

    def load_state(self, state: dict) -> None:
        self.link = list(state["link"])

    def read_link(self, task: int) -> int:
        return self.link[task & 0xF]

    def write_link(self, task: int, value: int) -> None:
        """FF ``LINK_B``: "LINK can also be loaded from a data bus"."""
        self.link[task & 0xF] = value & self.im_mask
