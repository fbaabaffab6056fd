"""Automatic placement of microinstructions onto control-store pages.

Section 5.5 describes the deal the Dorado made for its 8-bit
NextControl: the microstore is paged, conditional branch targets must
sit in even/odd pairs, cross-page transfers borrow FF, and an assembler
"which can fit the instructions onto pages appropriately" eats the
complexity.  Section 7 reports the payoff: "the automatic placer filled
99.9% of the available memory when called upon to place an essentially
full microstore."

The constraints, in our encoding (DESIGN.md section 2):

* a GOTO/CALL whose FF is busy must land in its target's page (a free
  FF can carry a ``JumpPage`` assist instead);
* a conditional branch and its two targets always share a page; the
  false target sits at an even offset with the true target at the next
  odd offset; pairs 8..31 need a free FF for the ``BranchPair`` assist;
* the eight targets of a DISPATCH8 occupy an 8-aligned run of eight
  words in the dispatcher's page;
* a CALL's continuation is THISPC+1 (LINK is "loaded with the value
  THISPC+1 on every microcode call", section 6.2.3), so the
  instruction emitted after a call must be placed immediately after it
  -- the "special subroutine locations" of section 7;
* an instruction may be the target of at most one branch pair --
  "several conditional branches cannot have same target; when this
  case arises the target must be duplicated."

Placement is: union-find the hard same-page constraints into clusters,
first-fit-decreasing clusters into pages (validating the even/odd and
alignment layout as part of fitting), then patch NextControl payloads
and FF assists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..config import MachineConfig
from ..core import functions
from ..core.microword import MicroInstruction, Misc, NextControl, NextType
from ..errors import PlacementError
from .program import ControlKind, Image, SourceOp


@dataclass
class PlacementReport:
    """What the placer did -- the section 7 utilization experiment."""

    instructions: int
    pages_used: int
    page_size: int
    ff_assists: int  #: JumpPage/BranchPair codes the placer added

    @property
    def capacity_used(self) -> int:
        return self.pages_used * self.page_size

    @property
    def utilization(self) -> float:
        """Placed words over the capacity of the pages consumed."""
        if self.capacity_used == 0:
            return 1.0
        return self.instructions / self.capacity_used


class _UnionFind:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


@dataclass
class _Cluster:
    """Instructions that must share a page, with their layout shapes."""

    members: List[int] = field(default_factory=list)
    pairs: List[Tuple[int, int, bool]] = field(default_factory=list)  # (f, t, low_required)
    runs: List[List[int]] = field(default_factory=list)  # dispatch runs of 8
    chains: List[List[int]] = field(default_factory=list)  # call continuations
    singles: List[int] = field(default_factory=list)

    @property
    def words(self) -> int:
        return len(self.members)


class _Page:
    """One page's occupancy during layout."""

    def __init__(self, number: int, size: int) -> None:
        self.number = number
        self.size = size
        self.used = [False] * size

    @property
    def free_words(self) -> int:
        return self.used.count(False)

    def take_pair(self, low_required: bool) -> Optional[int]:
        """Claim an even/odd pair; returns the even offset or None."""
        limit = 16 if low_required else self.size
        for even in range(0, limit, 2):
            if not self.used[even] and not self.used[even + 1]:
                self.used[even] = self.used[even + 1] = True
                return even
        return None

    def take_run(self, length: int, align: int) -> Optional[int]:
        for start in range(0, self.size - length + 1, align):
            if not any(self.used[start : start + length]):
                for i in range(start, start + length):
                    self.used[i] = True
                return start
        return None

    def take_single(self) -> Optional[int]:
        # Fill from the top so low offsets stay free for constrained pairs.
        for offset in range(self.size - 1, -1, -1):
            if not self.used[offset]:
                self.used[offset] = True
                return offset
        return None

    def release(self, offsets: Sequence[int]) -> None:
        for offset in offsets:
            self.used[offset] = False


def _resolve(label: str, labels: Dict[str, int], op: SourceOp) -> int:
    try:
        return labels[label]
    except KeyError:
        where = f" (emitted at {op.source_line})" if op.source_line else ""
        raise PlacementError(f"undefined label {label!r}{where}") from None


def _build_clusters(
    ops: Sequence[SourceOp], labels: Dict[str, int]
) -> List[_Cluster]:
    n = len(ops)
    uf = _UnionFind(n)
    pair_of: Dict[int, Tuple[int, int]] = {}  # member -> (f, t)
    pair_low: Dict[Tuple[int, int], bool] = {}
    runs: List[List[int]] = []
    in_run: Set[int] = set()

    # CALL continuations: the op emitted after a call runs at THISPC+1,
    # so it must be placed adjacently.  Build maximal chains.
    follows: Dict[int, int] = {}
    for i, op in enumerate(ops):
        if op.control.kind in (ControlKind.CALL, ControlKind.CORETURN):
            if i + 1 >= n:
                raise PlacementError(
                    f"op {i} is a CALL/CORETURN with no continuation after it"
                )
            follows[i] = i + 1
            uf.union(i, i + 1)
    chain_heads = [i for i in follows if i - 1 not in follows]
    chains: List[List[int]] = []
    in_chain: Set[int] = set()
    for head in sorted(chain_heads):
        chain = [head]
        while chain[-1] in follows:
            chain.append(follows[chain[-1]])
        chains.append(chain)
        in_chain.update(chain)

    for i, op in enumerate(ops):
        spec = op.control
        if spec.kind in (ControlKind.GOTO, ControlKind.CALL):
            j = _resolve(spec.target, labels, op)
            if not op.ff_free:
                uf.union(i, j)
        elif spec.kind == ControlKind.BRANCH:
            f = _resolve(spec.false_target, labels, op)
            t = _resolve(spec.true_target, labels, op)
            if f == t:
                raise PlacementError(
                    f"branch at op {i} has identical true/false targets; use GOTO"
                )
            key = (f, t)
            for member in key:
                existing = pair_of.get(member)
                if existing is not None and existing != key:
                    raise PlacementError(
                        f"op {member} is a target of two different branch pairs; "
                        "duplicate the target instruction (section 5.5)"
                    )
            pair_of[f] = key
            pair_of[t] = key
            pair_low[key] = pair_low.get(key, False) or not op.ff_free
            uf.union(i, f)
            uf.union(i, t)
        elif spec.kind == ControlKind.DISPATCH8:
            targets = [_resolve(l, labels, op) for l in spec.dispatch_targets]
            if len(targets) != 8:
                raise PlacementError(f"DISPATCH8 at op {i} needs exactly 8 targets")
            if len(set(targets)) != 8:
                raise PlacementError(f"DISPATCH8 at op {i} has duplicate targets")
            for j in targets:
                if j in in_run:
                    raise PlacementError(
                        f"op {j} belongs to two dispatch runs; duplicate it"
                    )
                in_run.add(j)
                uf.union(i, j)
            runs.append(targets)
        elif spec.kind == ControlKind.NOTIFY:
            raise PlacementError(
                "NOTIFY sequencing is not placeable; use the FF TRACE function"
            )

    conflict = in_run & set(pair_of)
    if conflict:
        raise PlacementError(
            f"ops {sorted(conflict)[:4]} are both branch-pair and dispatch targets; "
            "duplicate them"
        )
    conflict = in_chain & set(pair_of)
    if conflict:
        raise PlacementError(
            f"ops {sorted(conflict)[:4]} are both branch-pair targets and CALL "
            "continuations; insert a GOTO to separate the roles"
        )
    conflict = in_chain & in_run
    if conflict:
        raise PlacementError(
            f"ops {sorted(conflict)[:4]} are both dispatch targets and CALL "
            "continuations; insert a GOTO to separate the roles"
        )

    clusters: Dict[int, _Cluster] = {}
    for i in range(n):
        clusters.setdefault(uf.find(i), _Cluster()).members.append(i)

    seen_pairs: Set[Tuple[int, int]] = set()
    for root, cluster in clusters.items():
        for i in cluster.members:
            pair = pair_of.get(i)
            if pair is not None and pair not in seen_pairs:
                seen_pairs.add(pair)
                cluster.pairs.append((pair[0], pair[1], pair_low[pair]))
        placed_in_shape = {m for p in cluster.pairs for m in p[:2]}
        for run in runs:
            if uf.find(run[0]) == root:
                cluster.runs.append(run)
                placed_in_shape.update(run)
        for chain in chains:
            if uf.find(chain[0]) == root:
                cluster.chains.append(chain)
                placed_in_shape.update(chain)
        cluster.singles = [m for m in cluster.members if m not in placed_in_shape]
    return list(clusters.values())


def _layout_cluster(cluster: _Cluster, page: _Page) -> Optional[Dict[int, int]]:
    """Try to lay a cluster into a page; returns op -> offset, or None."""
    taken: List[int] = []
    result: Dict[int, int] = {}

    def fail() -> None:
        page.release(taken)

    for run in cluster.runs:
        start = page.take_run(8, 8)
        if start is None:
            fail()
            return None
        taken.extend(range(start, start + 8))
        for k, member in enumerate(run):
            result[member] = start + k
    # Call chains: consecutive, no alignment requirement.
    for chain in sorted(cluster.chains, key=len, reverse=True):
        start = page.take_run(len(chain), 1)
        if start is None:
            fail()
            return None
        taken.extend(range(start, start + len(chain)))
        for k, member in enumerate(chain):
            result[member] = start + k
    # Constrained (low) pairs first, then free pairs.
    for f, t, low in sorted(cluster.pairs, key=lambda p: not p[2]):
        even = page.take_pair(low)
        if even is None:
            fail()
            return None
        taken.extend((even, even + 1))
        result[f] = even
        result[t] = even + 1
    for member in cluster.singles:
        offset = page.take_single()
        if offset is None:
            fail()
            return None
        taken.append(offset)
        result[member] = offset
    return result


def place(
    ops: Sequence[SourceOp],
    config: MachineConfig,
    base_page: int = 0,
) -> Tuple[Image, PlacementReport]:
    """Assign addresses, patch successors, and encode a program."""
    labels: Dict[str, int] = {}
    for i, op in enumerate(ops):
        for label in op.labels:
            if label in labels:
                raise PlacementError(f"label {label!r} defined twice")
            labels[label] = i

    clusters = _build_clusters(ops, labels)
    page_size = config.page_size
    for cluster in clusters:
        if cluster.words > page_size:
            raise PlacementError(
                f"a same-page cluster of {cluster.words} instructions exceeds the "
                f"{page_size}-word page; break it up with FF-free transfers"
            )

    # FF JumpPage carries only 6 bits, so cross-page transfers can reach
    # pages 0..63 regardless of page size: the placer never allocates
    # beyond them (with 64-word pages this is the whole 4K store).
    max_pages = min(config.num_pages, 64) - base_page
    pages: List[_Page] = []
    address_of_op: Dict[int, int] = {}

    for cluster in sorted(clusters, key=lambda c: c.words, reverse=True):
        placed = False
        for page in pages:
            if page.free_words < cluster.words:
                continue
            layout = _layout_cluster(cluster, page)
            if layout is not None:
                for member, offset in layout.items():
                    address_of_op[member] = page.number * page_size + offset
                placed = True
                break
        if not placed:
            if len(pages) >= max_pages:
                raise PlacementError(
                    f"program needs more than {max_pages} pages from page {base_page}"
                )
            page = _Page(base_page + len(pages), page_size)
            pages.append(page)
            layout = _layout_cluster(cluster, page)
            if layout is None:
                raise PlacementError(
                    f"cluster of {cluster.words} words cannot be laid out in an "
                    f"empty page (pair/alignment conflict)"
                )
            for member, offset in layout.items():
                address_of_op[member] = page.number * page_size + offset
            placed = True

    words, assists = _encode(ops, labels, address_of_op, config)
    symbols = {label: address_of_op[i] for label, i in labels.items()}
    image = Image(
        words=words,
        symbols=symbols,
        im_size=config.im_size,
        entry=address_of_op[0] if ops else 0,
    )
    report = PlacementReport(
        instructions=len(ops),
        pages_used=len(pages),
        page_size=page_size,
        ff_assists=assists,
    )
    return image, report


def _encode(
    ops: Sequence[SourceOp],
    labels: Dict[str, int],
    address_of_op: Dict[int, int],
    config: MachineConfig,
) -> Tuple[Dict[int, MicroInstruction], int]:
    page_size = config.page_size
    words: Dict[int, MicroInstruction] = {}
    assists = 0

    for i, op in enumerate(ops):
        address = address_of_op[i]
        page_base = address & ~(page_size - 1)
        ff = op.ff
        spec = op.control

        if spec.kind in (ControlKind.GOTO, ControlKind.CALL):
            target = address_of_op[labels[spec.target]]
            offset = target & (page_size - 1)
            if (target & ~(page_size - 1)) != page_base:
                if not op.ff_free:
                    raise PlacementError(
                        f"internal: cross-page transfer at {address} with busy FF"
                    )
                ff = functions.jump_page(target // page_size)
                assists += 1
            kind = NextType.GOTO if spec.kind == ControlKind.GOTO else NextType.CALL
            nc = NextControl.pack(kind, offset)
        elif spec.kind == ControlKind.BRANCH:
            f_addr = address_of_op[labels[spec.false_target]]
            t_addr = address_of_op[labels[spec.true_target]]
            assert t_addr == f_addr + 1 and f_addr % 2 == 0, "pair layout violated"
            assert (f_addr & ~(page_size - 1)) == page_base, "branch page violated"
            pair = (f_addr - page_base) // 2
            if pair <= 7:
                nc = NextControl.branch(spec.condition, pair)
            else:
                if not op.ff_free:
                    raise PlacementError(
                        f"internal: far branch pair at {address} with busy FF"
                    )
                ff = functions.branch_pair(pair)
                assists += 1
                nc = NextControl.pack(
                    NextType.BRANCH, (int(spec.condition) << 3) | 0
                )
        elif spec.kind == ControlKind.RET:
            nc = NextControl.pack(NextType.MISC, int(Misc.RETURN) << 3)
        elif spec.kind == ControlKind.CORETURN:
            nc = NextControl.pack(NextType.MISC, int(Misc.RETURN_CALL) << 3)
        elif spec.kind == ControlKind.NEXTMACRO:
            nc = NextControl.pack(NextType.MISC, int(Misc.NEXTMACRO) << 3)
        elif spec.kind == ControlKind.DISPATCH8:
            base = address_of_op[labels[spec.dispatch_targets[0]]]
            assert base % 8 == 0 and (base & ~(page_size - 1)) == page_base
            arg = (base - page_base) // 8
            nc = NextControl.pack(NextType.MISC, (int(Misc.DISPATCH8) << 3) | arg)
        elif spec.kind == ControlKind.IDLE:
            nc = NextControl.pack(NextType.MISC, int(Misc.IDLE) << 3)
        else:
            raise PlacementError(f"unplaceable control kind {spec.kind!r}")

        words[address] = MicroInstruction(
            rsel=op.rsel,
            aluop=op.aluop,
            bsel=op.bsel,
            lc=op.lc,
            asel=op.asel,
            block=op.block,
            ff=ff,
            nc=nc,
        )
    return words, assists
