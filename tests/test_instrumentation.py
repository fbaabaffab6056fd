"""The instrumentation bus: composition, zero-cost idle, metrics export.

These lock down the observability-layer contract: multiple named
subscribers compose in either attach order with identical results,
attaching observers never perturbs the simulated machine, and the
zero-subscriber state is literally ``trace_hook is None`` (the plan
cache's fast path).
"""

import dataclasses
import json

import pytest

from repro import Assembler, Processor
from repro.config import INTERPRETED, PRODUCTION, MachineConfig
from repro.fault import FaultConfig
from repro.ifu.ifu import Ifu
from repro.perf.corebench import compare_to_baseline, run_corebench
from repro.perf.instrument import metrics_snapshot
from repro.perf.measure import OpcodeProfiler
from repro.perf.tracing import PipelineTracer
from repro.perf.workloads import mesa_loop_sum


def miss_machine():
    """Task 0 takes one long cold-miss hold (traced_machine's kernel)."""
    asm = Assembler()
    asm.register("addr", 1)
    asm.emit(r="addr", b=0x0200, alu="B", load="RM")
    asm.emit(r="addr", a="RM", fetch=True)
    asm.emit(a="MD", alu="A", load="T")
    asm.halt()
    cpu = Processor()
    cpu.load_image(asm.assemble())
    cpu.memory.identity_map(8)
    return cpu


# --------------------------------------------------------------------------
# subscriber management
# --------------------------------------------------------------------------

def test_install_requires_a_channel():
    cpu = miss_machine()
    with pytest.raises(ValueError):
        cpu.instruments.install("empty")


def test_duplicate_live_name_rejected():
    cpu = miss_machine()
    cpu.instruments.install("probe", cycle=lambda *a: None)
    with pytest.raises(ValueError):
        cpu.instruments.install("probe", cycle=lambda *a: None)


def test_uninstall_unknown_name_raises():
    cpu = miss_machine()
    with pytest.raises(KeyError):
        cpu.instruments.uninstall("ghost")


def test_names_report_installation_order():
    cpu = miss_machine()
    bus = cpu.instruments
    bus.install("b", cycle=lambda *a: None)
    bus.install("a", cycle=lambda *a: None)
    assert bus.names() == ("b", "a")
    assert len(bus) == 2
    bus.uninstall("b")
    assert bus.names() == ("a",)
    bus.uninstall_all()
    assert len(bus) == 0


# --------------------------------------------------------------------------
# the zero-subscriber fast path and pristine teardown
# --------------------------------------------------------------------------

def test_idle_bus_leaves_hooks_none():
    w = mesa_loop_sum(20)
    cpu = w.cpu
    assert cpu.trace_hook is None and cpu.ifu.dispatch_hook is None

    tracer = PipelineTracer(cpu).install()
    profiler = OpcodeProfiler(w.cpu)
    assert cpu.trace_hook is not None and cpu.ifu.dispatch_hook is not None

    profiler.uninstall()
    tracer.uninstall()
    assert cpu.trace_hook is None
    assert cpu.ifu.dispatch_hook is None
    assert len(cpu.instruments) == 0


def test_profiler_does_not_monkey_patch_take_dispatch():
    w = mesa_loop_sum(20)
    profiler = OpcodeProfiler(w.cpu)
    # The dispatch feed is the IFU's first-class hook, never a wrapper
    # shadowing the bound method.
    assert "take_dispatch" not in w.cpu.ifu.__dict__
    assert type(w.cpu.ifu).take_dispatch is Ifu.take_dispatch
    w.run()
    profiler.uninstall()
    assert "take_dispatch" not in w.cpu.ifu.__dict__


def test_uninstall_is_idempotent_and_reinstallable():
    cpu = miss_machine()
    tracer = PipelineTracer(cpu).install()
    tracer.uninstall()
    tracer.uninstall()  # second detach is a no-op, not an error
    tracer.install()
    cpu.run(1000)
    assert len(tracer.records) == cpu.counters.cycles
    tracer.uninstall()
    assert cpu.trace_hook is None


# --------------------------------------------------------------------------
# composition: tracer + profiler, either order, same answers
# --------------------------------------------------------------------------

def _profiled_run(attach):
    """Run mesa_loop_sum(50) with observers attached per *attach*."""
    w = mesa_loop_sum(50)
    cpu = w.cpu
    tracer = profiler = None
    for kind in attach:
        if kind == "tracer":
            tracer = PipelineTracer(cpu).install()
        else:
            profiler = OpcodeProfiler(w.cpu)
    cycles = w.run()
    return cycles, tracer, profiler


def test_compose_either_order():
    cycles_t, tracer_alone, _ = _profiled_run(["tracer"])
    cycles_p, _, profiler_alone = _profiled_run(["profiler"])
    cycles_tp, tracer_tp, profiler_tp = _profiled_run(["tracer", "profiler"])
    cycles_pt, tracer_pt, profiler_pt = _profiled_run(["profiler", "tracer"])

    assert cycles_t == cycles_p == cycles_tp == cycles_pt
    # The profiler's table is identical alone and composed, both orders.
    assert profiler_tp.stats == profiler_alone.stats
    assert profiler_pt.stats == profiler_alone.stats
    # The tracer's records are identical alone and composed, both orders.
    assert list(tracer_tp.records) == list(tracer_alone.records)
    assert list(tracer_pt.records) == list(tracer_alone.records)


def test_observers_do_not_perturb_the_machine():
    bare = mesa_loop_sum(50)
    bare_cycles = bare.run()

    observed = mesa_loop_sum(50)
    tracer = PipelineTracer(observed.cpu).install()
    profiler = OpcodeProfiler(observed.cpu)
    observed_cycles = observed.run()
    tracer.uninstall()
    profiler.uninstall()

    assert observed_cycles == bare_cycles
    assert dataclasses.asdict(observed.cpu.counters) == dataclasses.asdict(
        bare.cpu.counters
    )


# --------------------------------------------------------------------------
# hold-cause attribution, on both cycle implementations
# --------------------------------------------------------------------------

def test_hold_causes_sum_and_parity():
    runs = {}
    for label, config in [("interp", INTERPRETED), ("plan", PRODUCTION)]:
        w = mesa_loop_sum(60, config=config)
        w.run()
        runs[label] = w.cpu.counters
    for counters in runs.values():
        assert sum(counters.hold_causes) == counters.held_cycles
        assert counters.held_cycles > 0
    assert runs["interp"].hold_causes == runs["plan"].hold_causes
    attribution = runs["plan"].hold_attribution()
    assert attribution["total"] == runs["plan"].held_cycles
    assert set(attribution) == {"storage_busy", "md_wait", "ifu_wait", "total"}


def test_cold_miss_attributed_to_md_wait():
    from repro.core.counters import HOLD_MD

    cpu = miss_machine()
    cpu.run(1000)
    causes = cpu.counters.hold_causes
    assert causes[HOLD_MD - 1] == cpu.counters.held_cycles > 0


# --------------------------------------------------------------------------
# the metrics snapshot and the CLI
# --------------------------------------------------------------------------

def test_metrics_snapshot_round_trips_as_json():
    w = mesa_loop_sum(50)
    w.run()
    snapshot = metrics_snapshot(w.cpu)
    decoded = json.loads(json.dumps(snapshot))
    assert decoded["schema"] == "repro.metrics/1"
    counters = w.cpu.counters
    assert decoded["counters"]["cycles"] == counters.cycles
    assert decoded["holds"]["total"] == counters.held_cycles
    assert decoded["tasks"]["0"]["utilization"] == 1.0
    assert decoded["ifu"]["dispatches"] == w.cpu.ifu.dispatches
    assert "tier" not in decoded["machine"]
    tiers = decoded["tiers"]
    assert tiers == w.cpu._traces.stats() | {"tier": "traced"}
    assert 0 < tiers["traced_cycles"] <= counters.cycles
    assert tiers["stalls"] <= tiers["entries"]
    assert "faults" not in decoded  # no injector on a clean machine


def test_metrics_snapshot_includes_fault_section():
    config = MachineConfig(
        fault_injection=FaultConfig(seed=11, storage_correctable=1, last_cycle=0)
    )
    w = mesa_loop_sum(100, config=config)
    w.run()
    snapshot = json.loads(json.dumps(metrics_snapshot(w.cpu)))
    assert snapshot["faults"]["pending"] == 0
    assert snapshot["faults"]["trace"], "the injected fault must be in the trace"


def test_cli_profiles_and_writes_metrics(tmp_path, capsys):
    from repro.__main__ import main

    out = tmp_path / "metrics.json"
    rc = main([
        "--workload", "mesa_loop_sum", "--trace", "--profile",
        "--metrics-json", str(out),
    ])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "per-opcode-class costs" in printed
    assert "dispatches" in printed and "cycles/disp" in printed
    assert "cycles 0.." in printed  # the timeline rendered
    metrics = json.loads(out.read_text())
    assert metrics["workload"]["name"] == "mesa_loop_sum"
    assert metrics["counters"]["cycles"] == metrics["workload"]["cycles"]


@pytest.mark.parametrize("supervise", [[], ["--supervise"]], ids=["bare", "supervised"])
def test_cli_metrics_json_alone_keeps_the_traced_tier(tmp_path, capsys, supervise):
    """Writing metrics attaches no observer, so the run enters traces."""
    from repro.__main__ import main

    out = tmp_path / "metrics.json"
    assert main(["--workload", "mesa_loop_sum", "--metrics-json", str(out),
                 *supervise]) == 0
    metrics = json.loads(out.read_text())
    assert metrics["tiers"]["tier"] == "traced"
    assert metrics["tiers"]["traced_cycles"] > 0
    assert metrics["subscribers"] == []


def test_cli_rejects_observers_without_workload(capsys):
    from repro.__main__ import main

    with pytest.raises(SystemExit):
        main(["--profile"])
    assert "--workload" in capsys.readouterr().err


def test_cli_no_trace_runs_plan_only(capsys):
    from repro.__main__ import main

    rc = main(["--workload", "mesa_loop_sum", "--no-trace"])
    assert rc == 0
    assert "4807 cycles, verified" in capsys.readouterr().out
    with pytest.raises(SystemExit):
        main(["--no-trace"])
    assert "--workload" in capsys.readouterr().err


def test_cli_saves_and_loads_machine_state(tmp_path, capsys):
    from repro.__main__ import main

    state = tmp_path / "machine.json"
    rc = main(["--workload", "mesa_loop_sum", "--save-state", str(state)])
    assert rc == 0
    assert "saved" in capsys.readouterr().out
    assert state.exists()

    # Reload the finished machine: it verifies again without re-running.
    rc = main(["--workload", "mesa_loop_sum", "--load-state", str(state)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "restored" in printed
    assert "0 cycles, verified" in printed


def test_cli_loads_a_state_saved_at_another_tier(tmp_path, capsys):
    from repro.__main__ import main

    state = tmp_path / "machine.json"
    rc = main(["--workload", "mesa_loop_sum", "--no-trace",
               "--save-state", str(state)])
    assert rc == 0
    capsys.readouterr()
    # The default (traced) machine takes the plan tier's snapshot.
    rc = main(["--workload", "mesa_loop_sum", "--load-state", str(state)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "restored" in printed and "0 cycles, verified" in printed


@pytest.mark.parametrize("problem", ["missing", "malformed", "config"])
def test_cli_diagnoses_an_unloadable_state(tmp_path, capsys, problem):
    from repro.__main__ import main

    state = tmp_path / "machine.json"
    if problem == "malformed":
        state.write_text('{"version": 2')
    elif problem == "config":
        snap = mesa_loop_sum(10).cpu.snapshot()
        snap.data["config"] = dict(snap.data["config"], cycle_ns=50.0)
        snap.save(state)
    rc = main(["--workload", "mesa_loop_sum", "--load-state", str(state)])
    assert rc == 1
    out = capsys.readouterr().out
    assert out.startswith(f"FAILED: cannot load state {state}")
    assert "Traceback" not in out


def test_cli_rejects_state_flags_without_workload(capsys):
    from repro.__main__ import main

    with pytest.raises(SystemExit):
        main(["--save-state", "x.json"])
    assert "--workload" in capsys.readouterr().err


# --------------------------------------------------------------------------
# corebench: the zero-subscriber pin and baseline comparison
# --------------------------------------------------------------------------

def test_corebench_runs_with_identical_cycle_counts():
    results = run_corebench(repeats=1)
    assert set(results) == {"E1_mesa_loop_sum", "E2_bitblt_copy", "E4_display_fast_io"}
    for row in results.values():
        assert row["simulated_cycles"] > 0
        assert row["speedup"] > 0
        assert row["traced_speedup"] > 0
        assert row["traced_cycles_per_second"] > 0


def _fixed_bench_rows(monkeypatch, *, cycles=1000, overhead=2.0):
    """Stand fixed rows in for the three wall-clock benches ``main`` runs.

    The CLI's report and baseline logic is what is under test here; the
    timings themselves are host noise (the CI ``parity`` job runs the
    real benches against ``BENCH_core.json``).
    """
    from repro.perf import corebench

    row = {
        "simulated_cycles": cycles,
        "before_cycles_per_second": 1000,
        "after_cycles_per_second": 5000,
        "traced_cycles_per_second": 8000,
        "speedup": 5.0,
        "traced_speedup": 1.6,
    }
    monkeypatch.setattr(corebench, "run_corebench", lambda repeats: {
        name: dict(row) for name in corebench.SCENARIOS
    })
    monkeypatch.setattr(corebench, "run_warmstart_bench", lambda repeats: {
        "simulated_cycles": 4807, "cold_seconds": 0.2,
        "warm_restore_seconds": 0.01, "warm_speedup": 20.0,
    })
    monkeypatch.setattr(corebench, "run_supervised_bench", lambda repeats: {
        "simulated_cycles": 4807, "bare_seconds": 0.1,
        "supervised_seconds": 0.1 * overhead, "overhead_factor": overhead,
        "overhead_limit": corebench.SUPERVISED_OVERHEAD_LIMIT,
    })


def test_corebench_cli_writes_report_and_checks_baseline(
    tmp_path, capsys, monkeypatch
):
    from repro.perf.corebench import main

    _fixed_bench_rows(monkeypatch)
    out = tmp_path / "bench.json"
    assert main(["--output", str(out), "--repeats", "1"]) == 0
    report = json.loads(out.read_text())
    assert set(report["workloads"]) == {
        "E1_mesa_loop_sum", "E2_bitblt_copy", "E4_display_fast_io",
    }
    warm = report["warm_start"]
    assert warm["simulated_cycles"] > 0
    assert warm["warm_restore_seconds"] > 0
    # A rerun compared against its own fresh output must pass: cycles are
    # deterministic and the speedup floor tolerates timing noise.
    again = tmp_path / "bench2.json"
    rc = main([
        "--output", str(again), "--repeats", "1",
        "--baseline", str(out), "--tolerance", "0.9",
    ])
    assert rc == 0
    assert "baseline" in capsys.readouterr().out


@pytest.mark.parametrize("change, message", [
    ({"cycles": 1001}, "simulated cycles changed"),
    ({"overhead": 9.0}, "exceeds the 8.0x budget"),
])
def test_corebench_cli_rejects_a_changed_baseline(
    tmp_path, capsys, monkeypatch, change, message
):
    from repro.perf.corebench import main

    _fixed_bench_rows(monkeypatch)
    out = tmp_path / "bench.json"
    assert main(["--output", str(out), "--repeats", "1"]) == 0
    _fixed_bench_rows(monkeypatch, **change)
    rc = main([
        "--output", str(tmp_path / "bench2.json"), "--repeats", "1",
        "--baseline", str(out), "--tolerance", "0.9",
    ])
    assert rc == 1
    assert message in capsys.readouterr().out


def test_compare_to_baseline_flags_regressions():
    traced = {"traced_speedup": 1.0}
    base = {
        "E1": {"simulated_cycles": 100, "speedup": 2.0, **traced},
        "E2": {"simulated_cycles": 200, "speedup": 4.0, **traced},
        "E3": {"simulated_cycles": 300, "speedup": 1.5, **traced},
    }
    good = {
        "E1": {"simulated_cycles": 100, "speedup": 1.9, **traced},
        "E2": {"simulated_cycles": 200, "speedup": 3.1, **traced},
        "E3": {"simulated_cycles": 300, "speedup": 1.6, **traced},
    }
    assert compare_to_baseline(good, base, tolerance=0.35) == []

    bad = {
        "E1": {"simulated_cycles": 101, "speedup": 2.0, **traced},  # drift
        "E2": {"simulated_cycles": 200, "speedup": 1.0, **traced},  # perf
    }                                                               # E3 gone
    problems = compare_to_baseline(bad, base, tolerance=0.35)
    assert len(problems) == 3
    assert any("cycles changed" in p for p in problems)
    assert any("regressed" in p for p in problems)
    assert any("missing" in p for p in problems)


def test_compare_to_baseline_checks_traced_tier():
    base = {"E2": {"simulated_cycles": 200, "speedup": 4.0, "traced_speedup": 3.0}}
    good = {"E2": {"simulated_cycles": 200, "speedup": 4.0, "traced_speedup": 2.2}}
    assert compare_to_baseline(good, base, tolerance=0.35) == []

    bad = {"E2": {"simulated_cycles": 200, "speedup": 4.0, "traced_speedup": 1.5}}
    problems = compare_to_baseline(bad, base, tolerance=0.35)
    assert problems and "traced_speedup regressed" in problems[0]

    # A baseline lacking the traced column is a mismatch, not a skip.
    old_base = {"E2": {"simulated_cycles": 200, "speedup": 4.0}}
    problems = compare_to_baseline(bad, old_base, tolerance=0.35)
    assert problems == ["E2: baseline lacks the traced_speedup column"]
