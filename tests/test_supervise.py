"""The machine-check layer and recovery supervisor (DESIGN.md section 5.5).

The contract under test, end to end: a seeded fault plan that reliably
breaks an unsupervised run must complete under the
:class:`~repro.supervise.Supervisor` -- with at least one
rollback-and-replay -- and converge to a final state byte-identical to
the clean run's.  Around that demo, this file pins each layer
separately:

* the sanitizer's invariant catalogue trips on manufactured corruption
  and stays silent on a healthy machine;
* supervision of a fault-free machine perturbs nothing: identical
  cycle counts and architectural state on every benchmark workload;
* recovery is deterministic (Hypothesis: repeat runs and both cycle
  implementations converge identically);
* the retry budget is enforced (``UnrecoverableFault``);
* the differential divergence detector finds a corrupted execution
  plan and acquits a clean machine;
* a plan-implicating failure degrades the machine to the interpreter
  and the run still completes correctly;
* the CLI and corebench surfaces behave (exit codes, recovery report,
  fault-trace diagnosis, a baseline missing a section failing).
"""

import dataclasses
import functools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Assembler,
    HoldTimeout,
    Processor,
)
from repro.config import INTERPRETED, PRODUCTION
from repro.core.counters import RECOVERY_FIELDS
from repro.errors import (
    CorruptionDetected,
    TransientFault,
    UnrecoverableFault,
)
from repro.fault import FaultConfig
from repro.mem.map import REAL_PAGE_MASK
from repro.perf.instrument import metrics_snapshot
from repro.perf.report import DEMO_CHECKPOINT_INTERVAL, demo_fault_config
from repro.perf.workloads import ALL_WORKLOADS, mesa_loop_sum
from repro.service import Session
from repro.service.loadtest import FAULT_TEMPLATE, ROTATION
from repro.types import MUNCH_WORDS
from repro.supervise import (
    MachineCheckSanitizer,
    Supervisor,
    architectural_json,
    find_divergence,
)


def _demo_config(**overrides):
    return dataclasses.replace(
        PRODUCTION, fault_injection=demo_fault_config(), **overrides
    )


def _clean_clean_line(cpu):
    """Some valid, clean cache line of a machine that has run a while.

    The workloads dirty most of what they touch, so when no clean line
    survived, one dirty line is written back by hand -- exactly what the
    cache's own write-back would eventually do, so the machine stays
    coherent and the line becomes eligible for the coherence check.
    """
    cache = cpu.memory.cache
    for cache_set in cache.sets:
        for line in cache_set:
            if line.valid and not line.dirty:
                return line
    for index, cache_set in enumerate(cache.sets):
        for line in cache_set:
            if line.valid:
                base = (line.tag * cache.num_sets + index) * MUNCH_WORDS
                cpu.memory.storage.write_munch(base, line.words)
                line.dirty = False
                return line
    raise AssertionError("the workload left no valid cache line at all")


# --------------------------------------------------------------------------
# The end-to-end demo: detect, roll back, replay, converge
# --------------------------------------------------------------------------


def test_demo_fault_plan_breaks_the_unsupervised_run():
    workload = mesa_loop_sum(200, config=_demo_config())
    cpu = workload.ctx.cpu
    cpu.run(50_000)
    assert cpu.halted, "the faults corrupt data, they do not wedge the machine"
    assert not workload.verify()
    assert cpu.fault_injector.trace, "the plan must actually have fired"


def test_supervised_run_recovers_and_matches_the_clean_run():
    clean = mesa_loop_sum(200)
    clean_cycles = clean.run()

    workload = mesa_loop_sum(200, config=_demo_config())
    cpu = workload.ctx.cpu
    supervisor = Supervisor(
        cpu, checkpoint_interval=DEMO_CHECKPOINT_INTERVAL, max_retries=3
    )
    cycles = supervisor.run(max_cycles=50_000)

    assert cpu.halted and workload.verify()
    assert cycles == clean_cycles, "replayed cycles must not inflate the clock"
    assert cpu.counters.rollbacks >= 1
    assert cpu.counters.replays >= 1
    assert any(e["event"] == "rollback" for e in supervisor.log)
    assert any(e["event"] == "replay" for e in supervisor.log)
    assert architectural_json(cpu.snapshot()) == architectural_json(
        clean.ctx.cpu.snapshot()
    )


# --------------------------------------------------------------------------
# Determinism of recovery itself
# --------------------------------------------------------------------------


@settings(max_examples=4, deadline=None)
@given(interval=st.integers(300, 2400))
def test_recovery_is_deterministic_across_repeats(interval):
    """Same plan, same interval -- byte-identical full final state."""
    finals = []
    for _ in range(2):
        workload = mesa_loop_sum(200, config=_demo_config())
        supervisor = Supervisor(
            workload.ctx.cpu, checkpoint_interval=interval, max_retries=4
        )
        supervisor.run(max_cycles=50_000)
        assert workload.ctx.cpu.halted and workload.verify()
        finals.append(workload.ctx.cpu.snapshot().to_json())
    assert finals[0] == finals[1]


def test_recovery_converges_identically_on_both_cycle_paths():
    finals = []
    for tier in ("traced", "interp"):
        workload = mesa_loop_sum(200, config=_demo_config(tier=tier))
        supervisor = Supervisor(
            workload.ctx.cpu,
            checkpoint_interval=DEMO_CHECKPOINT_INTERVAL,
            max_retries=3,
        )
        supervisor.run(max_cycles=50_000)
        assert workload.ctx.cpu.halted and workload.verify()
        finals.append(architectural_json(workload.ctx.cpu.snapshot()))
    assert finals[0] == finals[1]


# --------------------------------------------------------------------------
# Zero perturbation: supervision of a healthy machine changes nothing
# --------------------------------------------------------------------------


#: Sweeps a clean supervised run makes (checkpoint_interval=1900,
#: check_interval=256): one per 256 cycles run, wherever the chunks and
#: checkpoints fall.
CLEAN_SWEEPS = {
    "bcpl_loop_sum": 12,
    "lisp_call_kernel": 21,
    "lisp_cons_kernel": 32,
    "lisp_list_sum": 29,
    "mesa_bubble_sort": 33,
    "mesa_fib": 89,
    "mesa_field_kernel": 15,
    "mesa_loop_sum": 18,
    "mesa_mul_kernel": 7,
    "smalltalk_counter": 15,
}


@pytest.mark.parametrize("name", sorted(ALL_WORKLOADS))
def test_supervision_is_invisible_on_a_clean_run(name):
    """Empty fault plan, sanitizer on: cycle- and state-identical."""
    empty = dataclasses.replace(
        PRODUCTION, fault_injection=FaultConfig(seed=11)
    )
    bare = ALL_WORKLOADS[name](config=empty)
    bare_cycles = bare.run()

    supervised = ALL_WORKLOADS[name](config=empty)
    supervisor = Supervisor(
        supervised.ctx.cpu, checkpoint_interval=1900, check_interval=256
    )
    cycles = supervisor.run(max_cycles=5_000_000)

    assert cycles == bare_cycles
    assert supervised.verify()
    assert supervisor.log == []
    assert supervised.ctx.cpu.counters.rollbacks == 0
    assert supervisor.sanitizer.sweeps == CLEAN_SWEEPS[name]
    assert architectural_json(supervised.ctx.cpu.snapshot()) == (
        architectural_json(bare.ctx.cpu.snapshot())
    )


@pytest.mark.parametrize(
    "interval, sweeps, rollbacks",
    [(DEMO_CHECKPOINT_INTERVAL, 23, 2), (300, 21, 2), (1000, 22, 1)],
)
def test_sweep_cadence_counts_replayed_cycles(interval, sweeps, rollbacks):
    """A run that rolls back sweeps once per 256 cycles *run*, replayed
    cycles included: 4807 forward cycles plus each replayed slice."""
    workload = mesa_loop_sum(200, config=_demo_config())
    supervisor = Supervisor(
        workload.ctx.cpu, checkpoint_interval=interval, max_retries=3
    )
    supervisor.run(max_cycles=50_000)
    assert workload.verify()
    assert workload.ctx.cpu.counters.rollbacks == rollbacks
    assert supervisor.sanitizer.sweeps == sweeps


# --------------------------------------------------------------------------
# Supervised sessions run the production path: compiled traces included
# --------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _clean_interp_run(workload):
    session = Session.build(workload, config=INTERPRETED)
    session.run()
    counters = session.cpu.counters.summary()
    return counters, architectural_json(session.cpu.snapshot())


def _trajectory(counters):
    """``counters.summary()`` minus the supervision record."""
    return {k: v for k, v in counters.items() if k not in RECOVERY_FIELDS}


@pytest.mark.parametrize("churned", [False, True], ids=["resident", "churned"])
@pytest.mark.parametrize("seed", [101, 202, 303])
@pytest.mark.parametrize("workload", ROTATION)
def test_supervised_session_runs_traced_and_matches_clean_interp(
    workload, seed, churned
):
    """A faulted, supervised session -- kept resident, or suspended and
    resumed between 1200-cycle slices -- converges to the clean
    interpreted run and spends its cycles in compiled traces."""
    session = Session.build(workload, fault=dict(FAULT_TEMPLATE, seed=seed))
    assert session.supervise
    traced = 0  # summed over every machine of the session's life
    while not session.halted:
        assert session.run_slice(1200).cycles > 0
        if churned and not session.halted:
            traced += session.cpu._traces.stats()["traced_cycles"]
            session = Session.resume(session.suspend())
    traced += session.cpu._traces.stats()["traced_cycles"]
    assert session.verify()
    counters, arch = _clean_interp_run(workload)
    assert _trajectory(session.cpu.counters.summary()) == _trajectory(counters)
    assert architectural_json(session.cpu.snapshot()) == arch
    assert traced > 0, "a supervised session must run compiled traces"


# --------------------------------------------------------------------------
# The invariant catalogue, check by check
# --------------------------------------------------------------------------


@pytest.fixture
def ran_machine():
    workload = mesa_loop_sum(60)
    cpu = workload.ctx.cpu
    cpu.run(1200)
    return cpu


def _failed_checks(cpu):
    return {f.check for f in MachineCheckSanitizer(cpu).run_checks()}


def test_sanitizer_passes_a_healthy_machine(ran_machine):
    assert MachineCheckSanitizer(ran_machine).run_checks() == []


def test_sanitizer_catches_clean_line_storage_disagreement(ran_machine):
    line = _clean_clean_line(ran_machine)
    line.words[0] ^= 0x0004  # the uncorrectable-ECC signature
    failures = MachineCheckSanitizer(ran_machine).run_checks()
    assert any(
        f.check == "cache" and "disagrees with storage" in f.detail
        for f in failures
    )


def test_sanitizer_catches_cache_word_out_of_range(ran_machine):
    line = _clean_clean_line(ran_machine)
    line.words[3] = 0x1_0000
    assert "cache" in _failed_checks(ran_machine)


def test_sanitizer_catches_map_entry_out_of_range(ran_machine):
    entry = next(iter(ran_machine.memory.translator.map.values()))
    entry.real_page = REAL_PAGE_MASK + 1
    assert "map" in _failed_checks(ran_machine)


def test_sanitizer_catches_register_corruption(ran_machine):
    ran_machine.regs.rm[5] = 0x12345
    assert "registers" in _failed_checks(ran_machine)


def test_sanitizer_catches_stack_pointer_corruption(ran_machine):
    ran_machine.stack.pointer = 0x100
    assert "registers" in _failed_checks(ran_machine)


def test_sanitizer_catches_dropped_task0_wakeup(ran_machine):
    ran_machine.pipe.lines &= 0xFFFE
    assert "taskpipe" in _failed_checks(ran_machine)


def test_sanitizer_catches_tpc_outside_control_store(ran_machine):
    ran_machine.pipe.write_tpc(7, ran_machine.config.im_size)
    assert "taskpipe" in _failed_checks(ran_machine)


def test_sanitizer_catches_ifu_buffer_overrun(ran_machine):
    ran_machine.ifu._buffered = ran_machine.ifu.pc + 100
    assert "ifu" in _failed_checks(ran_machine)


def test_sanitizer_catches_plan_im_disagreement(ran_machine):
    cpu = ran_machine
    pc = cpu.this_pc
    plan = cpu._plans[pc]
    assert plan is not None, "the running microword must be compiled by now"
    donor = next(
        inst
        for address in range(cpu.config.im_size)
        if (inst := cpu.im[address]) is not None
        and inst.encode() != cpu.im[pc].encode()
    )
    plan.inst = donor
    failures = MachineCheckSanitizer(cpu).run_checks()
    assert any(f.check == "plans" for f in failures)

    # A degraded (interpreter-only) machine skips the plans check: it
    # must not keep tripping on plans it no longer executes.
    cpu.tier = "interp"
    assert "plans" not in _failed_checks(cpu)


def test_sweep_raises_corruption_detected_and_counts(ran_machine):
    cpu = ran_machine
    line = _clean_clean_line(cpu)
    line.words[0] ^= 0x0004
    with pytest.raises(CorruptionDetected) as caught:
        MachineCheckSanitizer(cpu).sweep()
    error = caught.value
    assert error.failures and error.failures[0].startswith("cache")
    assert error.cycle is not None
    assert (error.task, error.pc, error.cycle) == (
        cpu.pipe.this_task, cpu.this_pc, cpu.now,
    ), "a sweep describes the end-of-cycle state it saw"
    assert cpu.counters.checks_failed >= 1
    assert "machine check failed" in str(error)


def test_check_interval_must_be_positive(ran_machine):
    with pytest.raises(ValueError):
        Supervisor(ran_machine, check_interval=0)


# --------------------------------------------------------------------------
# Retry budget and the failure taxonomy
# --------------------------------------------------------------------------


def test_retry_exhaustion_raises_unrecoverable_with_backoff():
    """Corruption captured *inside* the checkpoint can never replay
    clean; the budget must exhaust."""
    cpu = mesa_loop_sum(60).ctx.cpu
    cpu.run(600)
    line = _clean_clean_line(cpu)
    line.words[0] ^= 0x0004  # poisoned before the first checkpoint

    supervisor = Supervisor(
        cpu,
        checkpoint_interval=400,
        max_retries=3,
        check_interval=16,
    )
    with pytest.raises(UnrecoverableFault) as caught:
        supervisor.run(max_cycles=10_000)
    error = caught.value
    assert isinstance(error.__cause__, CorruptionDetected)
    assert "after 3 rollback attempts" in str(error)
    assert cpu.counters.rollbacks == 3


def test_structural_errors_are_not_retried():
    from repro.errors import StateError

    cpu = mesa_loop_sum(60).ctx.cpu
    supervisor = Supervisor(cpu, checkpoint_interval=200)

    class Boom(StateError):
        pass

    def explode(n):
        raise Boom("experiment bug, not machine corruption")

    cpu.run = explode
    with pytest.raises(Boom):
        supervisor.run(max_cycles=1000)
    assert cpu.counters.rollbacks == 0


def test_supervisor_parameter_validation():
    cpu = mesa_loop_sum(60).ctx.cpu
    with pytest.raises(ValueError):
        Supervisor(cpu, checkpoint_interval=0)
    with pytest.raises(ValueError):
        Supervisor(cpu, max_retries=-1)


def test_transient_fault_context_formatting():
    fault = TransientFault(
        "boom", task=3, pc=0o21, cycle=99, hold_cause="md_wait"
    )
    message = str(fault)
    for fragment in ("task 3", "upc 0o21", "cycle 99", "hold cause md_wait"):
        assert fragment in message
    assert TransientFault("bare").args[0] == "bare"


def test_hold_timeout_carries_the_hold_cause():
    watched = dataclasses.replace(PRODUCTION, hold_limit=64)
    asm = Assembler(watched)
    asm.emit(b="MD", alu="B", load="T")  # never-ready reference
    asm.halt()
    cpu = Processor(watched)
    cpu.load_image(asm.assemble())
    cpu.memory.identity_map(4)
    with pytest.raises(HoldTimeout) as caught:
        cpu.run(10_000)
    error = caught.value
    assert error.hold_cause == "md_wait"
    assert "last hold cause md_wait" in str(error)
    assert error.task == 0 and error.cycle < 200


# --------------------------------------------------------------------------
# Differential divergence detection and degradation
# --------------------------------------------------------------------------


def test_find_divergence_acquits_a_healthy_machine(ran_machine):
    assert find_divergence(ran_machine, window=800) is None


def test_find_divergence_convicts_a_corrupted_plan(ran_machine):
    cpu = ran_machine
    before = cpu.snapshot().to_json()
    corrupted = 0
    for plan in cpu._plans:
        if plan is not None:
            plan.loads_t = not plan.loads_t
            plan.loads_rm = not plan.loads_rm
            corrupted += 1
    assert corrupted, "the workload must have compiled something"
    report = find_divergence(cpu, window=2000)
    assert report is not None
    assert report.diffs and report.cycle >= cpu.now
    assert "divergence at cycle" in str(report)
    # The detector works on forks; the machine itself never moved.
    assert cpu.snapshot().to_json() == before


def test_plan_implicating_corruption_degrades_to_interpreter():
    workload = mesa_loop_sum(200)
    cpu = workload.ctx.cpu
    cpu.run(600)

    # A corrupted compiled plan: wrong source microword (trips the
    # sanitizer's plans check) and wrong behaviour (confirms under the
    # differential detector).  The IM itself stays correct, so the
    # interpreter path is the cure.
    pc = cpu.this_pc
    plan = cpu._plans[pc]
    assert plan is not None
    donor = next(
        inst
        for address in range(cpu.config.im_size)
        if (inst := cpu.im[address]) is not None
        and inst.encode() != cpu.im[pc].encode()
    )
    plan.inst = donor
    plan.loads_t = not plan.loads_t
    plan.loads_rm = not plan.loads_rm

    supervisor = Supervisor(
        cpu, checkpoint_interval=600, max_retries=5, check_interval=64
    )
    supervisor.run(max_cycles=50_000)

    assert cpu.halted and workload.verify()
    assert cpu.tier == "interp"
    assert cpu.counters.degrades >= 1
    degrade = next(e for e in supervisor.log if e["event"] == "degrade")
    assert degrade["first_diff"]
    # The metrics export reports the tier running now, not the config.
    assert metrics_snapshot(cpu)["tiers"]["tier"] == "interp"


# --------------------------------------------------------------------------
# CLI: the self-healing run and the diagnosed failure
# --------------------------------------------------------------------------


def _demo_plan_file(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(dataclasses.asdict(demo_fault_config())))
    return str(path)


def test_cli_supervised_clean_run_prints_a_clean_report(capsys):
    from repro.__main__ import main

    assert main(["--workload", "mesa_loop_sum", "--supervise"]) == 0
    out = capsys.readouterr().out
    assert "verified" in out
    assert "recovery report" in out
    assert "the run was clean" in out


def test_cli_supervised_fault_plan_recovers(tmp_path, capsys):
    from repro.__main__ import main

    rc = main([
        "--workload", "mesa_loop_sum",
        "--fault-plan", _demo_plan_file(tmp_path),
        "--supervise", "--checkpoint-interval",
        str(DEMO_CHECKPOINT_INTERVAL),
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "verified" in out
    assert "rollback" in out and "replay" in out


def test_cli_unsupervised_fault_plan_fails_diagnosed(tmp_path, capsys):
    from repro.__main__ import main

    rc = main([
        "--workload", "mesa_loop_sum",
        "--fault-plan", _demo_plan_file(tmp_path),
    ])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAILED:" in out
    assert "at task" in out and "cycle" in out
    assert "fault trace" in out and "ecc_uncorrectable" in out


def test_cli_rejects_a_malformed_fault_plan(tmp_path, capsys):
    from repro.__main__ import main

    bad = tmp_path / "bad.json"
    bad.write_text('{"no_such_field": 1}')
    with pytest.raises(SystemExit):
        main(["--workload", "mesa_loop_sum", "--fault-plan", str(bad)])
    assert "fault plan" in capsys.readouterr().err


def test_cli_supervision_flags_need_a_workload(capsys):
    from repro.__main__ import main

    with pytest.raises(SystemExit):
        main(["--supervise"])
    assert "--workload" in capsys.readouterr().err


# --------------------------------------------------------------------------
# corebench: the supervised-overhead scenario and baseline tolerance
# --------------------------------------------------------------------------


def test_supervised_bench_reports_parity_and_overhead():
    from repro.perf.corebench import SUPERVISED_OVERHEAD_LIMIT, run_supervised_bench

    row = run_supervised_bench(repeats=1)
    assert row["simulated_cycles"] > 0
    assert row["overhead_limit"] == SUPERVISED_OVERHEAD_LIMIT


def test_corebench_baseline_gates_supervised_overhead(tmp_path, monkeypatch, capsys):
    """The wall-clock bound lives in the baseline comparison: a run over
    SUPERVISED_OVERHEAD_LIMIT fails ``--baseline``, not the bench."""
    from repro.perf import corebench

    row = {"simulated_cycles": 10, "bare_seconds": 1.0,
           "supervised_seconds": 9.0, "overhead_factor": 9.0,
           "overhead_limit": corebench.SUPERVISED_OVERHEAD_LIMIT}
    e1 = {"simulated_cycles": 1, "before_cycles_per_second": 1,
          "after_cycles_per_second": 1, "traced_cycles_per_second": 1,
          "speedup": 1.0, "traced_speedup": 1.0}
    monkeypatch.setattr(corebench, "run_corebench", lambda repeats: {"E1": e1})
    monkeypatch.setattr(corebench, "run_warmstart_bench", lambda repeats: {
        "simulated_cycles": 5, "cold_seconds": 1.0,
        "warm_restore_seconds": 1.0, "warm_speedup": 1.0})
    monkeypatch.setattr(corebench, "run_supervised_bench", lambda repeats: row)
    base = tmp_path / "base.json"
    assert corebench.main(["--output", str(base), "--repeats", "1"]) == 0
    args = ["--output", str(tmp_path / "again.json"), "--repeats", "1",
            "--baseline", str(base)]
    capsys.readouterr()
    assert corebench.main(args) == 1
    assert "9.00x exceeds the 8.0x budget" in capsys.readouterr().out
    row["overhead_factor"] = corebench.SUPERVISED_OVERHEAD_LIMIT
    assert corebench.main(args) == 0


def test_corebench_baseline_missing_sections_skip_with_warning(tmp_path, capsys):
    """A baseline lacking a section is a mismatch, not a skip: there is
    one baseline format, and ``BENCH_core.json`` has every section."""
    from repro.perf.corebench import main

    out = tmp_path / "bench.json"
    assert main(["--output", str(out), "--repeats", "1"]) == 0
    report = json.loads(out.read_text())
    assert "supervised_overhead" in report

    del report["supervised_overhead"]
    del report["warm_start"]
    old = tmp_path / "old.json"
    old.write_text(json.dumps(report))
    capsys.readouterr()
    rc = main([
        "--output", str(tmp_path / "again.json"), "--repeats", "1",
        "--baseline", str(old), "--tolerance", "0.9",
    ])
    text = capsys.readouterr().out
    assert rc == 1
    assert "BASELINE MISMATCH: warm_start: missing from" in text
    assert "BASELINE MISMATCH: supervised_overhead: missing from" in text
    assert "OK" not in text
