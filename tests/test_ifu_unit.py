"""The instruction fetch unit in isolation."""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import EmulatorError, PRODUCTION
from repro.emulators import bcpl, lisp, mesa, smalltalk
from repro.errors import DeviceError, DoradoError
from repro.fault.plan import FaultKind
from repro.ifu.decoder import WORD_FORM, DecodeEntry, DecodeTable, OperandKind
from repro.ifu.ifu import BUFFER_BYTES, Ifu
from repro.mem.map import ENTRY_REFERENCED, ENTRY_VALID, PAGE_WORDS
from repro.mem.pipeline import MemorySystem
from repro.types import MUNCH_WORDS


def make_table():
    table = DecodeTable("test")
    table.define(0x01, DecodeEntry("NOP", "op.nop"))
    table.define(0x02, DecodeEntry("LIT", "op.lit", OperandKind.BYTE))
    table.define(0x03, DecodeEntry("LITS", "op.lits", OperandKind.SIGNED_BYTE))
    table.define(0x04, DecodeEntry("JMP", "op.jmp", OperandKind.WORD))
    table.define(0x05, DecodeEntry("PAIR", "op.pair", OperandKind.PAIR))
    return table


DISPATCH = {"op.nop": 100, "op.lit": 110, "op.lits": 120, "op.jmp": 130, "op.pair": 140}


def make_ifu(byte_stream):
    mem = MemorySystem(PRODUCTION)
    mem.identity_map(16)
    padded = list(byte_stream) + [0] * (len(byte_stream) % 2)
    for i in range(0, len(padded), 2):
        mem.storage.write_word(i // 2, (padded[i] << 8) | padded[i + 1])
    ifu = Ifu(mem)
    ifu.load_table(make_table(), DISPATCH)
    return ifu


def run_until_ready(ifu, limit=20):
    for _ in range(limit):
        if ifu.dispatch_ready:
            return
        ifu.tick()
    raise AssertionError("IFU never became ready")


# --- decode tables -----------------------------------------------------------

def test_table_rejects_duplicates():
    table = make_table()
    with pytest.raises(EmulatorError):
        table.define(0x01, DecodeEntry("X", "op.x"))
    with pytest.raises(EmulatorError):
        table.define(0x10, DecodeEntry("NOP", "op.other"))


def test_table_opcode_lookup():
    table = make_table()
    assert table.opcode("LIT") == 0x02
    with pytest.raises(EmulatorError):
        table.opcode("NOSUCH")


def test_entry_lengths():
    table = make_table()
    assert table.entry(0x01).length == 1
    assert table.entry(0x02).length == 2
    assert table.entry(0x04).length == 3


@pytest.mark.parametrize("isa", [bcpl, lisp, mesa, smalltalk],
                         ids=lambda isa: isa.__name__.rsplit(".", 1)[-1])
def test_precomputed_operand_count_matches_the_operand_kind(isa):
    table = isa.build_decode_table()
    for opcode in table.defined_opcodes():
        entry = table.entry(opcode)
        assert entry.operand_bytes == entry.operands.length
        assert entry.length == 1 + entry.operands.length


def test_operand_values():
    entry = DecodeEntry("X", "op", OperandKind.SIGNED_BYTE)
    assert entry.operand_values([0x80]) == [0xFF80]
    entry = DecodeEntry("X2", "op", OperandKind.WORD)
    assert entry.operand_values([0x12, 0x34]) == [0x1234]
    entry = DecodeEntry("X3", "op", OperandKind.PAIR)
    assert entry.operand_values([1, 2]) == [1, 2]


def test_load_table_checks_dispatches():
    ifu = Ifu(MemorySystem(PRODUCTION))
    with pytest.raises(EmulatorError):
        ifu.load_table(make_table(), {"op.nop": 1})


def test_resolved_table_is_shared_until_the_table_or_addresses_change():
    """One resolution per table: IFUs loading it with the same handler
    addresses (forks of one image) share it; other addresses, or a
    later definition, resolve afresh."""
    table = make_table()
    first, second = Ifu(MemorySystem(PRODUCTION)), Ifu(MemorySystem(PRODUCTION))
    first.load_table(table, DISPATCH)
    second.load_table(table, dict(DISPATCH))
    assert second._decoded is first._decoded
    assert first._decoded[0x04] == (table.entry(0x04), 2, WORD_FORM, 130)
    assert first._decoded[0xEE] is None
    moved = dict(DISPATCH, **{"op.jmp": 131})
    assert table.resolve(moved)[0x04][3] == 131
    table.define(0x06, DecodeEntry("NOP2", "op.nop"))
    assert table.resolve(moved)[0x06] == (table.entry(0x06), 0, None, 100)


# --- stream behaviour ---------------------------------------------------------

def test_dispatch_sequence():
    ifu = make_ifu([0x01, 0x02, 0x2A, 0x01])
    ifu.start(0)
    run_until_ready(ifu)
    assert ifu.take_dispatch() == 100
    assert ifu.pc == 1
    run_until_ready(ifu)
    assert ifu.take_dispatch() == 110
    assert ifu.read_operand() == 0x2A
    assert ifu.pc == 3
    run_until_ready(ifu)
    assert ifu.take_dispatch() == 100


def test_operand_consumption():
    ifu = make_ifu([0x05, 7, 9])
    ifu.start(0)
    run_until_ready(ifu)
    ifu.take_dispatch()
    assert ifu.read_operand() == 7
    ifu.consume_operand()
    assert ifu.read_operand() == 9
    ifu.consume_operand()
    assert not ifu.operand_ready
    with pytest.raises(EmulatorError):
        ifu.read_operand()


def test_signed_operand_sign_extends():
    ifu = make_ifu([0x03, 0xFE])
    ifu.start(0)
    run_until_ready(ifu)
    ifu.take_dispatch()
    assert ifu.read_operand() == 0xFFFE


def test_jump_flushes_and_costs_cycles():
    ifu = make_ifu([0x01, 0x01, 0x01, 0x01, 0x04, 0x00, 0x00])
    ifu.start(0)
    run_until_ready(ifu)
    ifu.take_dispatch()
    ifu.jump(4)
    assert not ifu.dispatch_ready  # the buffer was flushed
    cycles = 0
    while not ifu.dispatch_ready:
        ifu.tick()
        cycles += 1
    assert cycles >= 2  # refill + decode: the taken-branch penalty
    assert ifu.take_dispatch() == 130


def test_steady_state_is_back_to_back():
    """Simple macroinstructions dispatch every cycle once the buffer runs
    ahead -- the 'simple macroinstruction in one cycle' requirement."""
    ifu = make_ifu([0x01] * 16)
    ifu.start(0)
    run_until_ready(ifu)
    for _ in range(6):
        ifu.take_dispatch()
        ifu.tick()
        assert ifu.dispatch_ready


def test_undefined_opcode_raises_only_when_reached():
    ifu = make_ifu([0x01, 0xEE])
    ifu.start(0)
    run_until_ready(ifu)
    ifu.take_dispatch()  # fine: prefetch into 0xEE must not raise here
    for _ in range(4):
        ifu.tick()
    with pytest.raises(EmulatorError):
        ifu.dispatch_ready  # noqa: B018 - property with a deliberate raise


def test_reset_stops_prefetch():
    ifu = make_ifu([0x01, 0x01])
    ifu.start(0)
    run_until_ready(ifu)
    ifu.reset()
    assert not ifu.running
    assert not ifu.dispatch_ready


# --- the word path against the per-byte path ----------------------------------
#
# A decode reads each code word once and replays the effects one read
# per byte would have had; ``_try_decode_bytes`` is that per-byte read.
# Twin IFUs over twin memories, one decoding each way, must leave the
# same map, cache clock and LRU stamps, decode state and exception.

#: Storage for the twins: 16 identity-mapped pages.
_SMALL = dataclasses.replace(PRODUCTION, storage_words=16 * PAGE_WORDS)

#: The page whose last word the crossing cases end at; the next page is
#: the one a draw may unmap, invalidate, point out of storage or alias.
_CODE_PAGE = 2

#: What becomes of the virtual page after the code page.
_NEXT_PAGE = ("mapped", "unmapped", "invalid", "out_of_range", "alias")


@dataclasses.dataclass(frozen=True)
class _DecodeCase:
    base: int            #: code base register (a word address)
    cross_va: int        #: the word after this one is on another line
    pc_word: int         #: the PC's word relative to cross_va (-1, 0, 1)
    odd: int             #: the PC's byte within its word
    fill: int            #: bytes buffered past the PC
    words: tuple         #: code words at cross_va - 1 .. cross_va + 2
    resident: tuple      #: per word above: whether its munch is cached
    stale: tuple         #: per word: whether the cached copy is byte-swapped
    next_page: str       #: one of _NEXT_PAGE
    inject: bool         #: a one-shot map fault armed
    steps: tuple         #: after the first decode, per step: take the
                         #: dispatch if one is ready (True), else tick


#: Code bytes: the five opcodes (one per operand kind), an undefined
#: one, and operand bytes with the sign bit set.
_code_byte = st.sampled_from([0x04, 0x05, 0x02, 0x03, 0x01, 0xEE, 0x80])


@st.composite
def _decode_cases(draw):
    crossing = draw(st.sampled_from(["page", "munch", "inside"]))
    if crossing == "page":
        cross_va = (_CODE_PAGE + 1) * PAGE_WORDS - 1
    elif crossing == "munch":
        cross_va = _CODE_PAGE * PAGE_WORDS + MUNCH_WORDS * draw(st.integers(1, 15)) - 1
    else:
        cross_va = _CODE_PAGE * PAGE_WORDS + MUNCH_WORDS * draw(st.integers(0, 14)) + 7
    words = tuple(
        draw(_code_byte) << 8 | draw(_code_byte) for _ in range(4)
    )
    return _DecodeCase(
        base=draw(st.sampled_from([0, 5, PAGE_WORDS])),
        cross_va=cross_va,
        pc_word=draw(st.integers(-1, 1)),
        odd=draw(st.integers(0, 1)),
        fill=draw(st.integers(0, BUFFER_BYTES)),
        words=words,
        resident=tuple(draw(st.booleans()) for _ in range(4)),
        stale=tuple(draw(st.booleans()) for _ in range(4)),
        next_page=draw(st.sampled_from(_NEXT_PAGE)),
        inject=draw(st.integers(0, 9)) == 0,
        steps=tuple(draw(st.lists(st.booleans(), min_size=2, max_size=8))),
    )


def _twin(case: _DecodeCase, per_byte: bool) -> Ifu:
    """The case's machine; *per_byte* makes every decode read by byte."""
    mem = MemorySystem(_SMALL)
    mem.identity_map()
    translator = mem.translator
    next_page = _CODE_PAGE + 1
    if case.next_page == "unmapped":
        del translator.map[next_page]
    elif case.next_page == "invalid":
        translator.map[next_page] = next_page << 4
    elif case.next_page == "out_of_range":
        translator.map[next_page] = 40 << 4 | ENTRY_VALID
    elif case.next_page == "alias":
        translator.map[next_page] = _CODE_PAGE << 4 | ENTRY_VALID
    code = []  # (real address, word, resident, stale) of each readable word
    for i, value in enumerate(case.words):
        ra = translator.translate(case.cross_va - 1 + i, write=False)
        if ra is not None and mem.storage.in_range(ra):
            code.append((ra, value, case.resident[i], case.stale[i]))
            mem.storage.write_word(ra, value)
    for ra, value, resident, stale in code:
        if resident and not mem.cache.contains(ra):
            mem.cache.fill(ra, mem.storage.read_munch(ra))
        if resident and stale:
            mem.cache.write_word(ra, (value & 0xFF) << 8 | value >> 8)
    for page in translator.map:  # no read so far shows
        translator.map[page] &= ~ENTRY_REFERENCED
    translator.bases[0] = case.base
    ifu = Ifu(mem)
    ifu.load_table(make_table(), DISPATCH)
    ifu.start(2 * (case.cross_va + case.pc_word - case.base) + case.odd)
    ifu._buffered = ifu.pc + case.fill
    if case.inject:
        translator.inject_next = FaultKind.MAP
    if per_byte:
        ifu._try_decode = ifu._try_decode_bytes
    return ifu


def _observed(ifu: Ifu):
    mem = ifu.memory
    head = ifu._head
    return (
        dict(mem.translator.map),
        mem.translator.inject_next,
        mem.cache.clock,
        list(mem.cache.lru),
        ifu.state_dict(),
        head,
        ifu._head_address if head is not None else None,
    )


def _outcome(action):
    try:
        return ("ok", action())
    except DoradoError as exc:
        return (type(exc).__name__, str(exc))


def _check_word_path(case: _DecodeCase) -> bool:
    """Assert the twins agree throughout; whether one decoded operands."""
    words, reference = _twin(case, False), _twin(case, True)
    operands = False
    for twin_step in (None,) + case.steps:
        results = []
        for ifu in (words, reference):
            if twin_step is None:
                results.append(_outcome(ifu._try_decode))
            elif twin_step and ifu._head is not None and ifu.now >= ifu._ready_at:
                results.append(_outcome(ifu.take_dispatch))
            else:
                results.append(_outcome(ifu.tick))
            results.append(_observed(ifu))
        assert results[:2] == results[2:]
        head = words._head
        operands = operands or head is not None and head.operand_bytes > 0
        if results[0][0] != "ok":
            break
    return operands


def _crossing(**fields) -> _DecodeCase:
    """A case whose PC is at the word before a crossing, fully buffered."""
    case = dict(
        base=0, cross_va=(_CODE_PAGE + 1) * PAGE_WORDS - 1, pc_word=0, odd=0,
        fill=BUFFER_BYTES, words=(0, 0, 0, 0), resident=(True,) * 4,
        stale=(False,) * 4, next_page="mapped", inject=False, steps=(),
    )
    case.update(fields)
    return _DecodeCase(**case)


def _lines(ifu: Ifu, *vas):
    """The cache line holding each code word (all identity-mapped here)."""
    translator = ifu.memory.translator
    return [ifu.memory.cache.resident[(translator.map[va >> 8] >> 4 << 8 | va & 0xFF) // MUNCH_WORDS]
            for va in vas]


def test_even_word_operand_across_a_munch_bumps_each_byte():
    # JMP 0x1234: opcode and high byte end one munch, the low byte
    # starts the next; the clock grows by 3 and each line keeps its
    # last byte's stamp.
    cross = _CODE_PAGE * PAGE_WORDS + MUNCH_WORDS - 1
    case = _crossing(cross_va=cross, words=(0, 0x0412, 0x3400, 0))
    ifu = _twin(case, False)
    first, second = _lines(ifu, cross, cross + 1)
    clock = ifu.memory.cache.clock
    ifu._try_decode()
    cache = ifu.memory.cache
    assert ifu._head.name == "JMP" and ifu._head_operands == [0x1234]
    assert (cache.clock, cache.lru[first], cache.lru[second]) == (clock + 3, clock + 2, clock + 3)
    assert _check_word_path(case)


def test_odd_pair_across_a_page_translates_both_pages():
    # PAIR 7, 9 at an odd PC: the opcode ends page 2, both operands
    # start page 3, which maps to real page 9.
    case = _crossing(odd=1, words=(0, 0x0005, 0x0709, 0))
    ifu = _twin(case, False)
    translator = ifu.memory.translator
    translator.map[_CODE_PAGE + 1] = 9 << 4 | ENTRY_VALID
    ifu.memory.storage.write_word(9 * PAGE_WORDS, 0x0709)
    ifu.memory.cache.fill(9 * PAGE_WORDS, ifu.memory.storage.read_munch(9 * PAGE_WORDS))
    first, second = _lines(ifu, case.cross_va, case.cross_va + 1)
    clock = ifu.memory.cache.clock
    ifu._try_decode()
    cache = ifu.memory.cache
    assert ifu._head.name == "PAIR" and ifu._head_operands == [7, 9]
    assert (cache.clock, cache.lru[first], cache.lru[second]) == (clock + 3, clock + 1, clock + 3)
    assert translator.map[_CODE_PAGE] & ENTRY_REFERENCED
    assert translator.map[_CODE_PAGE + 1] & ENTRY_REFERENCED


@pytest.mark.parametrize("next_page", ["unmapped", "invalid", "out_of_range"])
def test_operand_on_an_unreadable_page_raises_as_the_byte_path_does(next_page):
    case = _crossing(words=(0, 0x0412, 0x3400, 0), next_page=next_page)
    ifu = _twin(case, False)
    with pytest.raises(DeviceError, match="debug_read: unmapped VA"):
        ifu._try_decode()
    # The opcode and high byte were read, the head set, the operands not.
    assert ifu._head.name == "JMP" and ifu._head_operands == []
    assert _check_word_path(case) is True


def test_armed_map_fault_is_consumed_by_the_opcode_read():
    case = _crossing(pc_word=-1, words=(0x0101, 0x0101, 0, 0), inject=True)
    ifu = _twin(case, False)
    with pytest.raises(DeviceError):
        ifu._try_decode()
    assert ifu.memory.translator.inject_next is None
    assert not ifu.memory.translator.map[_CODE_PAGE] & ENTRY_REFERENCED
    _check_word_path(case)


def test_each_waiting_decode_reads_the_opcode_again():
    # JMP needs three bytes; with one buffered, every decode reads the
    # opcode again (one bump each) until the tick that buffers the rest.
    case = _crossing(pc_word=-1, fill=1, words=(0x0412, 0x3400, 0, 0),
                     steps=(False, False))
    ifu = _twin(case, False)
    (line,) = _lines(ifu, case.cross_va - 1)
    clock = ifu.memory.cache.clock
    ifu._try_decode()
    ifu._try_decode()
    assert ifu._head is None and ifu.memory.cache.clock == clock + 2
    ifu.tick()
    assert ifu._head.name == "JMP" and ifu._head_operands == [0x1234]
    assert ifu.memory.cache.clock == ifu.memory.cache.lru[line] == clock + 5
    assert _check_word_path(case)


def _assert_word_path_equals_byte_path(examples: int, derandomize: bool) -> None:
    decoded_operands = []

    @settings(max_examples=examples, derandomize=derandomize, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_decode_cases())
    def word_path_equals_byte_path(case):
        decoded_operands.append(_check_word_path(case))

    word_path_equals_byte_path()
    # Not vacuous: a good share of draws decode an instruction whose
    # operands the word path assembled.
    assert sum(decoded_operands) >= 0.25 * len(decoded_operands)


def test_word_path_equals_byte_path():
    _assert_word_path_equals_byte_path(examples=150, derandomize=True)


@pytest.mark.slow
def test_word_path_equals_byte_path_long():
    _assert_word_path_equals_byte_path(examples=5000, derandomize=False)
