"""CLI flag matrix: every --no-trace/--supervise/--save-state combo.

Runs ``python -m repro`` in-process across the full 2x2x2 product of
the tier flag, the supervisor flag, and state saving -- plus the
fault-plan combinations -- asserting that the simulated cycle count is
flag-invariant (the tiers and the supervisor are simulator furniture,
not machine behaviour) and that each flag's artifact appears.  The
``repro.exp`` command line gets the same treatment underneath.
"""

import json

import pytest

from repro.__main__ import main as repro_main
from repro.exp.__main__ import main as exp_main

#: mesa_loop_sum's pinned production cycle count (tests/goldens.json).
MESA_CYCLES = json.loads(
    (__import__("pathlib").Path(__file__).parent / "goldens.json").read_text()
)["matrix_cycles"]["mesa_loop_sum@production"]

DEMO_PLAN = {
    "seed": 39,
    "storage_uncorrectable": 1,
    "map_faults": 1,
    "first_cycle": 0,
    "last_cycle": 2200,
}


@pytest.fixture
def fault_plan(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(DEMO_PLAN))
    return str(path)


@pytest.mark.parametrize("no_trace", [False, True], ids=["traced", "no-trace"])
@pytest.mark.parametrize("supervise", [False, True], ids=["bare", "supervised"])
@pytest.mark.parametrize("save_state", [False, True], ids=["nosave", "save"])
def test_flag_combinations_run_verified(
    tmp_path, capsys, no_trace, supervise, save_state
):
    argv = ["--workload", "mesa_loop_sum"]
    if no_trace:
        argv.append("--no-trace")
    if supervise:
        argv += ["--supervise", "--checkpoint-interval", "600"]
    state_path = tmp_path / "state.json"
    if save_state:
        argv += ["--save-state", str(state_path)]

    assert repro_main(argv) == 0
    out = capsys.readouterr().out
    # The cycle count is the machine's, whatever the simulator flags.
    assert f"mesa_loop_sum: {MESA_CYCLES} cycles, verified" in out
    assert ("recovery report" in out) == supervise
    if supervise:
        assert "(no recovery actions; the run was clean)" in out
    assert state_path.exists() == save_state
    if save_state:
        snapshot = json.loads(state_path.read_text())
        assert snapshot  # canonical JSON machine state, non-empty


@pytest.mark.parametrize("no_trace", [False, True], ids=["traced", "no-trace"])
def test_fault_plan_with_supervision_recovers(
    capsys, fault_plan, no_trace
):
    argv = ["--workload", "mesa_loop_sum", "--supervise",
            "--checkpoint-interval", "600", "--fault-plan", fault_plan]
    if no_trace:
        argv.append("--no-trace")
    assert repro_main(argv) == 0
    out = capsys.readouterr().out
    assert f"mesa_loop_sum: {MESA_CYCLES} cycles, verified" in out
    assert "rollback" in out  # the demo plan forces real recoveries


def test_fault_plan_without_supervision_is_diagnosed(capsys, fault_plan):
    rc = repro_main(
        ["--workload", "mesa_loop_sum", "--fault-plan", fault_plan]
    )
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAILED" in out
    assert "fault trace" in out


def test_load_state_then_supervise_finishes_midrun_checkpoint(
    tmp_path, capsys
):
    """Restore a mid-run checkpoint and finish it under the Supervisor.

    This is the fleet's recovery-after-migration path: a session
    suspended mid-run resumes on a fresh machine and runs supervised to
    completion, landing on the golden cycle count.
    """
    from repro.perf.workloads import mesa_loop_sum

    donor = mesa_loop_sum()
    donor.cpu.run(3000)
    assert not donor.cpu.halted  # genuinely mid-run
    checkpoint = tmp_path / "mid.json"
    donor.cpu.snapshot().save(checkpoint)

    metrics = tmp_path / "metrics.json"
    assert repro_main([
        "--workload", "mesa_loop_sum",
        "--load-state", str(checkpoint),
        "--supervise", "--checkpoint-interval", "600",
        "--metrics-json", str(metrics),
    ]) == 0
    out = capsys.readouterr().out
    assert f"restored {checkpoint} (cycle 3000)" in out
    assert "recovery report" in out
    snapshot = json.loads(metrics.read_text())
    # The machine finishes exactly where an uninterrupted run would...
    assert snapshot["counters"]["cycles"] == MESA_CYCLES
    # ...and the reported run covers only the post-restore work.
    assert snapshot["workload"]["cycles"] == MESA_CYCLES - 3000
    assert f"mesa_loop_sum: {MESA_CYCLES - 3000} cycles, verified" in out


def test_load_state_supervise_resumes_faulted_recovery(
    tmp_path, capsys, fault_plan
):
    """A faulted run checkpointed mid-recovery finishes under --supervise."""
    import dataclasses

    from repro.config import PRODUCTION
    from repro.fault.plan import FaultConfig
    from repro.perf.workloads import mesa_loop_sum
    from repro.supervise import Supervisor

    config = dataclasses.replace(
        PRODUCTION, fault_injection=FaultConfig(**DEMO_PLAN)
    )
    donor = mesa_loop_sum(config=config)
    Supervisor(
        donor.cpu, checkpoint_interval=600, max_retries=3
    ).run(max_cycles=1500)
    assert not donor.cpu.halted
    checkpoint = tmp_path / "mid-faulted.json"
    donor.cpu.snapshot().save(checkpoint)

    metrics = tmp_path / "metrics.json"
    assert repro_main([
        "--workload", "mesa_loop_sum",
        "--fault-plan", fault_plan,
        "--load-state", str(checkpoint),
        "--supervise", "--checkpoint-interval", "600",
        "--metrics-json", str(metrics),
    ]) == 0
    out = capsys.readouterr().out
    assert f"restored {checkpoint}" in out
    assert "verified" in out and "recovery report" in out
    # Recovery converges: the finished machine sits on the clean count.
    snapshot = json.loads(metrics.read_text())
    assert snapshot["counters"]["cycles"] == MESA_CYCLES


def test_save_then_load_state_roundtrip(tmp_path, capsys):
    state = tmp_path / "end.json"
    assert repro_main(["--workload", "mesa_loop_sum",
                       "--save-state", str(state)]) == 0
    assert repro_main(["--workload", "mesa_loop_sum",
                       "--load-state", str(state)]) == 0
    out = capsys.readouterr().out
    assert f"restored {state}" in out


def test_flags_require_workload():
    with pytest.raises(SystemExit):
        repro_main(["--no-trace"])


# --------------------------------------------------------------------------
# the repro.exp command line
# --------------------------------------------------------------------------

def test_exp_list_names_everything(capsys):
    assert exp_main(["list"]) == 0
    out = capsys.readouterr().out
    for expected in ("demo", "ablation", "monte_carlo",
                     "production", "model0", "bypass_kernel_padded"):
        assert expected in out


def test_exp_run_describe_is_canonical_and_seeded(capsys):
    assert exp_main(["run", "demo", "--describe"]) == 0
    plan = json.loads(capsys.readouterr().out)
    assert plan["seed"] == 11  # the factory's own default seed
    assert len(plan["cells"]) == 18
    assert exp_main(["run", "demo", "--describe", "--seed", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 5


def test_exp_run_report_diff_cycle(tmp_path, capsys):
    """run -> artifact -> report -> rerun -> diff, all through the CLI."""
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    base = ["run", "monte_carlo", "--seeds", "2", "--workers", "2",
            "--no-goldens"]
    assert exp_main(base + ["--output", str(first)]) == 0
    assert exp_main(base + ["--output", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    capsys.readouterr()

    assert exp_main(["report", str(first)]) == 0
    out = capsys.readouterr().out
    assert "PASSED" in out and "fault campaign" in out

    assert exp_main(["diff", str(first), str(second)]) == 0
    assert "identical" in capsys.readouterr().out

    doc = json.loads(first.read_text())
    cell = next(iter(doc["cells"]))
    doc["cells"][cell]["measurements"]["cycles"] += 1
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(doc))
    assert exp_main(["diff", str(first), str(tampered)]) == 1
    assert "cycles" in capsys.readouterr().out


def test_exp_run_unknown_matrix_errors(capsys):
    assert exp_main(["run", "nonesuch"]) == 2
    assert "unknown matrix" in capsys.readouterr().err
