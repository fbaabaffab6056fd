"""A model of the session lifecycle: every path a machine's state can
take -- sliced runs, suspend and resume at any tier, restore onto a
fresh machine, rewind in place, fork, repeated snapshots, a sibling
session run alongside, an IM write -- must end where an uninterrupted
run on the interpretive tier ends.

The invariant, checked after every rule on the machine the rule
touched: ``counters.summary()`` and ``architectural_json`` equal those
of the subject's *reference*, the same session built on the ``interp``
tier and granted the same slices (and, for a rewind or an ALUFM
change, restored to its own copy of the same state).

Compiled steps and regions are shared process-wide by every machine of
one composition (DESIGN.md section 5.1), so one example opens several
subjects that run the *same microcode*: fault-free, faulted and
supervised under the loadtest's ``FAULT_TEMPLATE`` (seeds 101, 202 and
303), and with a display refreshing a band over fast I/O.  A fault plan
is data the generated code reads, not part of the composition: the
faulted kinds share the clean kind's composition and so its code, which
must act on each plan exactly as the interpreter does.  The display's
composition differs, and a key that missed a fact would hand it code
generated for another; the invariant would catch either.  The sessions
of one template share its fork family's tables (DESIGN.md section 5.6):
a sibling session records regions the subject then enters, a fork into
another fault plan runs its parent's tables, and an IM write must take
the writer out of the family.  Workload arguments are drawn from each
builder's ``@arg_ranges``, and one rule checks that requests outside
them are refused.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    precondition,
    rule,
)

from repro.asm.assembler import Assembler
from repro.config import TIERS
from repro.core.alu import AluControl, AluFunc, CarryIn
from repro.errors import DoradoError, ServiceError
from repro.fault import FaultConfig
from repro.io.display import DisplayController, display_fast_microcode
from repro.perf.workloads import SESSION_WORKLOADS
from repro.service import Session
from repro.service.loadtest import FAULT_TEMPLATE
from repro.service.session import booted_workload
from repro.state import MachineState
from repro.supervise import architectural_json

#: The builders that declare their arguments.
BUILDERS = sorted(
    name for name, builder in SESSION_WORKLOADS.items()
    if getattr(builder, "arg_ranges", None)
)

#: The subject kinds: one composition each, all running the same
#: microcode.
KINDS = ("clean", "fault101", "fault202", "fault303", "display")

#: The display's microcode goes into the IM's last page, which no
#: emulator image reaches; its band is long enough to keep it fetching
#: for every cycle an example runs.
DISPLAY_PAGE = 63
DISPLAY_BAND_VA = 0x8000
DISPLAY_BAND_MUNCHES = 2048

MAX_SUBJECTS = 3


def _bounded(low, high):
    return st.integers(
        -(1 << 31) if low is None else low, (1 << 31) if high is None else high
    )


def _attach_display(cpu) -> None:
    """Load the display's fast-I/O microcode into *cpu*'s last IM page,
    attach a display and start it refreshing a band."""
    asm = Assembler(cpu.config)
    display_fast_microcode(asm)
    image = asm.assemble()
    base = DISPLAY_PAGE * cpu.config.page_size
    assert max(image.words) < cpu.config.page_size
    assert all(cpu.im[base + address] is None for address in image.words)
    for address, inst in image.words.items():
        cpu.im[base + address] = inst
    for label, address in image.symbols.items():
        cpu.symbols[label] = base + address
    display = DisplayController()
    cpu.attach_device(display)
    display.begin_band(cpu, DISPLAY_BAND_VA, DISPLAY_BAND_MUNCHES)


def _session(workload: str, args: dict, kind: str, tier: str) -> Session:
    """A fresh session of *kind* on *tier*."""
    if kind == "display":
        booted = booted_workload(workload, tuple(sorted(args.items())))
        _attach_display(booted.cpu)
        session = Session(
            "display", booted, spec={"workload": workload, "args": dict(args)}
        )
    else:
        fault = None
        if kind != "clean":
            fault = dict(FAULT_TEMPLATE, seed=int(kind[len("fault"):]))
        session = Session.build(workload, args=args, fault=fault)
    session.cpu.tier = tier
    return session


def _state(cpu):
    return cpu.counters.summary(), architectural_json(cpu.snapshot())


class Subject:
    """One machine under test and its interpretive reference."""

    def __init__(self, workload: str, args: dict, kind: str, tier: str) -> None:
        self.workload = workload
        self.args = args
        self.kind = kind
        self.session = _session(workload, args, kind, tier)
        self.reference = _session(workload, args, kind, "interp")

    def fresh(self, tier: str) -> Session:
        return _session(self.workload, self.args, self.kind, tier)

    def check(self) -> None:
        assert _state(self.session.cpu) == _state(self.reference.cpu)

    @property
    def failed(self) -> bool:
        return self.session.failure is not None


def _run_both(a, b, run) -> None:
    """Run *run* on *a* and on *b*: both must raise alike or not at all."""
    outcomes = []
    for target in (a, b):
        try:
            run(target)
            outcomes.append(None)
        except DoradoError as exc:
            outcomes.append(type(exc).__name__)
    assert outcomes[0] == outcomes[1]


def _args(data, workload: str) -> dict:
    """Workload arguments drawn from the builder's declared ranges."""
    ranges = SESSION_WORKLOADS[workload].arg_ranges
    return data.draw(st.fixed_dictionaries(
        {name: _bounded(low, high) for name, (low, high) in ranges.items()}
    ))


INDEX = st.integers(0, MAX_SUBJECTS - 1)
CYCLES = st.integers(1, 1000)


class LifecycleModel(RuleBasedStateMachine):
    """Each rule takes one subject through a lifecycle transition and
    then grants it a slice, so the code the transition left the machine
    with runs at once; the invariant is checked after both."""

    def __init__(self) -> None:
        super().__init__()
        self.subjects = []

    @initialize(
        data=st.data(),
        workload=st.sampled_from(BUILDERS),
        kinds=st.lists(
            st.sampled_from(KINDS), min_size=2, max_size=MAX_SUBJECTS, unique=True
        ),
    )
    def open_subjects(self, data, workload, kinds):
        for kind in kinds:
            subject = Subject(workload, _args(data, workload), kind, "traced")
            subject.check()
            self.subjects.append(subject)

    def _pick(self, index) -> Subject:
        return self.subjects[index % len(self.subjects)]

    @staticmethod
    def _slice(subject: Subject, cycles: int) -> None:
        """Grant *subject* and its reference a slice and check them."""
        _run_both(
            subject.session, subject.reference, lambda s: s.run_slice(cycles)
        )
        subject.check()

    def _run(self, subject: Subject, cycles: int) -> None:
        """:meth:`_slice`; a session that failed is retired, not reused."""
        self._slice(subject, cycles)
        if subject.failed:
            self.subjects.remove(subject)

    # --- the lifecycle ----------------------------------------------------

    @precondition(lambda self: self.subjects)
    @rule(index=INDEX, cycles=CYCLES)
    def run_slice(self, index, cycles):
        self._run(self._pick(index), cycles)

    @precondition(lambda self: any(s.kind != "display" for s in self.subjects))
    @rule(index=INDEX, tier=st.sampled_from(TIERS), cycles=CYCLES)
    def suspend_and_resume(self, index, tier, cycles):
        candidates = [s for s in self.subjects if s.kind != "display"]
        subject = candidates[index % len(candidates)]
        envelope = subject.session.suspend()
        subject.session = Session.resume(envelope)
        subject.session.cpu.tier = tier
        assert subject.session.suspend() == envelope
        self._run(subject, cycles)

    @precondition(lambda self: self.subjects)
    @rule(index=INDEX, tier=st.sampled_from(TIERS), cycles=CYCLES)
    def restore_onto_fresh_machine(self, index, tier, cycles):
        subject = self._pick(index)
        state = MachineState.from_json(subject.session.cpu.snapshot().to_json())
        subject.session = subject.fresh(tier)
        subject.session.load(state)
        self._run(subject, cycles)

    @precondition(lambda self: self.subjects)
    @rule(index=INDEX, cycles=CYCLES)
    def rewind_in_place(self, index, cycles):
        """Snapshot, run, restore the snapshot on the same machine and
        run the same stretch again."""
        subject = self._pick(index)
        states = [s.cpu.snapshot() for s in (subject.session, subject.reference)]
        self._run(subject, cycles)
        if subject.failed:
            return
        subject.session.load(states[0])
        subject.reference.load(states[1])
        self._run(subject, cycles)

    @precondition(lambda self: self.subjects)
    @rule(
        index=INDEX,
        tier=st.sampled_from(TIERS),
        seed=st.sampled_from((None, 101, 202, 303)),
        cycles=CYCLES,
    )
    def fork_and_step_the_clone(self, index, tier, seed, cycles):
        """Fork the subject into a fault plan (*seed*; None: no plan),
        whatever its own: the clone runs its parent's tables."""
        subject = self._pick(index)
        before = subject.session.cpu.snapshot()
        fault = None if seed is None else FaultConfig(**dict(FAULT_TEMPLATE, seed=seed))
        config = dataclasses.replace(subject.session.cpu.config, fault_injection=fault)
        clone = subject.session.cpu.fork(config=config)
        clone.tier = tier
        assert clone._traces.traces is subject.session.cpu._traces.traces
        twin = subject.reference.cpu.fork(config=config)
        twin.tier = "interp"
        _run_both(clone, twin, lambda cpu: cpu.run(cycles))
        assert _state(clone) == _state(twin)
        assert subject.session.cpu.snapshot() == before
        self._run(subject, cycles)

    @precondition(lambda self: self.subjects)
    @rule(index=INDEX)
    def snapshot_twice(self, index):
        subject = self._pick(index)
        first = subject.session.cpu.snapshot()
        second = subject.session.cpu.snapshot()
        assert first.to_json() == second.to_json()
        subject.check()

    @precondition(lambda self: self.subjects)
    @rule(
        index=INDEX,
        aluop=st.integers(0, 15),
        bits=st.sampled_from(
            sorted({AluControl(f, c).encode() for f in AluFunc for c in CarryIn})
        ),
        cycles=CYCLES,
    )
    def restore_a_rewritten_alufm(self, index, aluop, bits, cycles):
        """Restore the subject's own state with one ALUFM word changed:
        the machine's compiled code inlines the old one."""
        subject = self._pick(index)
        for session in (subject.session, subject.reference):
            data = session.cpu.snapshot().data
            data["core"]["alu"]["alufm"][aluop] = bits
            session.load(MachineState(data))
        self._run(subject, cycles)

    @precondition(lambda self: self.subjects)
    @rule(index=INDEX, tier=st.sampled_from(TIERS), cycles=CYCLES)
    def run_a_sibling_alongside(self, index, tier, cycles):
        """Open another session of the subject's workload, arguments and
        kind -- a fork of the same template -- and run it a slice before
        and after the subject's."""
        subject = self._pick(index)
        sibling = Subject(subject.workload, subject.args, subject.kind, tier)
        self._slice(sibling, cycles)
        self._run(subject, cycles)
        self._slice(sibling, cycles)

    @precondition(lambda self: self.subjects)
    @rule(index=INDEX, slot=st.integers(0, 1 << 16), cycles=CYCLES)
    def rewrite_an_im_slot_with_its_own_word(self, index, slot, cycles):
        """Write an occupied IM slot's own word back into it: the IM
        write choke point fires, and nothing the machine does changes."""
        subject = self._pick(index)
        for session in (subject.session, subject.reference):
            im = session.cpu.im
            occupied = [a for a, inst in enumerate(im) if inst is not None]
            address = occupied[slot % len(occupied)]
            im[address] = im[address]
        self._run(subject, cycles)

    # --- the refusal ------------------------------------------------------

    @rule(data=st.data(), builder=st.sampled_from(BUILDERS))
    def open_outside_the_declared_arguments(self, data, builder):
        ranges = SESSION_WORKLOADS[builder].arg_ranges
        name = data.draw(st.sampled_from(sorted(ranges)))
        low, high = ranges[name]
        bad = [{"no_such_argument": 1}, {name: True}, {name: str(low or 0)}]
        if low is not None:
            bad.append({name: low - 1})
        if high is not None:
            bad.append({name: high + 1})
        args = data.draw(st.sampled_from(bad))
        with pytest.raises(ServiceError):
            Session.build(builder, args=args)


_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

#: The tier-1 slice.
TestLifecycleModel = LifecycleModel.TestCase
TestLifecycleModel.settings = settings(
    max_examples=10, stateful_step_count=10, derandomize=True, **_SETTINGS
)


@pytest.mark.slow
class TestLifecycleModelLong(LifecycleModel.TestCase):
    settings = settings(max_examples=400, stateful_step_count=20, **_SETTINGS)
