"""The experiment-matrix harness: identity, determinism, fan-out.

Fast tests use the bypass-kernel corner of the grid (cells of ~50
simulated cycles); the full demo matrix -- 18 cells of emulator
workloads with supervised fault recovery -- carries the ``matrix`` and
``slow`` markers and runs in the dedicated CI job.
"""

import dataclasses
import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import PRODUCTION, MachineConfig
from repro.exp import (
    CONFIG_VARIANTS,
    ConvergenceEvaluator,
    ExperimentMatrix,
    GoldenPinEvaluator,
    HoldAccountingEvaluator,
    ScenarioSpec,
    TierParityEvaluator,
    ablation_matrix,
    canonical_dumps,
    clear_boot_cache,
    config_hash,
    demo_matrix,
    derive_seed,
    diff_results,
    execute_cell,
    hash_payload,
    monte_carlo_matrix,
)
from repro.exp.campaigns import DEMO_FAULT_TEMPLATE

GOLDENS = json.loads(
    (pathlib.Path(__file__).parent / "goldens.json").read_text()
)


def kernel_matrix(seed=3):
    """The fast grid: two kernels x two variants, one cell excluded."""
    return ExperimentMatrix.cartesian(
        "kernel_test",
        workloads=("bypass_kernel", "bypass_kernel_padded"),
        variants=("production", "model0"),
        seed=seed,
    )


# --------------------------------------------------------------------------
# config hashing (Hypothesis)
# --------------------------------------------------------------------------

_payloads = st.dictionaries(
    st.text(min_size=1, max_size=12),
    st.one_of(st.integers(), st.booleans(), st.text(max_size=8), st.none()),
    min_size=1,
    max_size=8,
)


@given(_payloads)
def test_hash_payload_stable_under_key_reordering(payload):
    reordered = dict(reversed(list(payload.items())))
    assert hash_payload(payload) == hash_payload(reordered)


@given(_payloads, st.integers())
def test_hash_payload_distinct_across_value_change(payload, nonce):
    key = sorted(payload)[0]
    changed = dict(payload)
    changed[key] = ("changed", payload[key], nonce)
    assert hash_payload(changed) != hash_payload(payload)


_CONFIG_FIELDS = [f.name for f in dataclasses.fields(MachineConfig)]


@settings(max_examples=50)
@given(st.sampled_from(_CONFIG_FIELDS), st.integers(min_value=1, max_value=1 << 20))
def test_config_hash_distinct_across_any_field_change(field, value):
    """Changing any single field of the signature changes the hash.

    The mutation happens on the signature payload (MachineConfig itself
    validates many fields, e.g. power-of-two sizes; the hashing layer
    must be sensitive to every field regardless).
    """
    from repro.exp.configs import config_signature_payload

    base = config_signature_payload(PRODUCTION)
    changed = dict(base)
    changed[field] = value if base[field] != value else value + 1
    assert hash_payload(changed) != hash_payload(base)


def test_config_hash_sensitive_to_each_registered_variant_knob():
    """Every named variant's defining knob shows up in its hash."""
    base = config_hash(PRODUCTION)
    for name, v in CONFIG_VARIANTS.items():
        if name != "production":
            assert v.hash != base, name


def test_variant_hashes_all_distinct():
    hashes = {v.hash for v in CONFIG_VARIANTS.values()}
    assert len(hashes) == len(CONFIG_VARIANTS)


# --------------------------------------------------------------------------
# scenario specs
# --------------------------------------------------------------------------

def test_spec_roundtrips_through_dict():
    spec = ScenarioSpec.faulted(
        "mesa_loop_sum", "production", DEMO_FAULT_TEMPLATE, seed=42
    )
    assert ScenarioSpec.from_dict(spec.to_dict()) == spec
    assert ScenarioSpec.from_dict(spec.to_dict()).cell_id == spec.cell_id


def test_faulted_spec_rejects_bad_fault_fields_early():
    with pytest.raises(TypeError):
        ScenarioSpec.faulted(
            "mesa_loop_sum", "production", {"no_such_fault_knob": 1}, seed=1
        )


def test_derive_seed_is_stable_and_spread():
    a = derive_seed(11, "mesa_loop_sum", "production", 0)
    assert a == derive_seed(11, "mesa_loop_sum", "production", 0)
    assert a != derive_seed(11, "mesa_loop_sum", "production", 1)
    assert a != derive_seed(12, "mesa_loop_sum", "production", 0)
    assert 0 < a < 1 << 31


def test_matrix_rejects_duplicate_cells():
    spec = ScenarioSpec.clean("bypass_kernel", "production")
    with pytest.raises(ValueError, match="duplicate"):
        ExperimentMatrix("dup", [spec, spec])


def test_cartesian_excludes_bypass_needing_cells_explicitly():
    matrix = kernel_matrix()
    ids = {spec.pin_key for spec in matrix.cells}
    assert "bypass_kernel@model0" not in ids
    assert matrix.excluded == [{
        "workload": "bypass_kernel", "variant": "model0",
        "reason": "workload microcode requires bypass paths "
                  "(not Model-0 safe)",
    }]
    # exclusions are part of the matrix identity
    bigger = ExperimentMatrix("kernel_test", matrix.cells, seed=matrix.seed)
    assert bigger.hash != matrix.hash


# --------------------------------------------------------------------------
# running: determinism, fan-out, crash handling
# --------------------------------------------------------------------------

def test_kernel_matrix_passes_and_reruns_byte_identical():
    clear_boot_cache()
    first = kernel_matrix().run()
    assert first["passed"], canonical_dumps(first)
    second = kernel_matrix().run()
    assert canonical_dumps(first) == canonical_dumps(second)
    assert diff_results(first, second) == []


def test_worker_fanout_matches_inline_byte_identically():
    inline = kernel_matrix().run()
    fanned = kernel_matrix().run(workers=2)
    assert canonical_dumps(inline) == canonical_dumps(fanned)


def test_crashing_cell_fails_cell_not_matrix():
    good = ScenarioSpec.clean("bypass_kernel", "production")
    bad = ScenarioSpec.clean("no_such_workload", "production")
    matrix = ExperimentMatrix("crash", [good, bad])
    result = matrix.run(workers=2)
    by_status = {row["status"] for row in result["cells"].values()}
    assert by_status == {"ok", "failed"}
    failed = result["cells"][bad.cell_id]
    assert failed["measurements"] is None
    assert "no_such_workload" in failed["error"]
    assert not result["passed"]
    assert result["aggregate"]["failed_cell_ids"] == [bad.cell_id]


def test_killed_worker_raises_worker_crashed(monkeypatch):
    """A worker SIGKILLed mid-cell is diagnosed, not an eternal hang.

    The matrix runs in a forked child joined with a timeout, so a hang
    fails the test instead of wedging the suite.
    """
    import multiprocessing
    import os
    import signal

    from repro.exp import matrix as matrix_module

    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("needs a forking platform")
    matrix = kernel_matrix()
    victim = matrix.cells[1].cell_id  # the first cell handed to worker 1
    real_execute = matrix_module.execute_cell

    def dying_execute(spec):
        if spec.cell_id == victim:
            os.kill(os.getpid(), signal.SIGKILL)
        return real_execute(spec)

    # Patched before any fork: the matrix's workers inherit it.
    monkeypatch.setattr(matrix_module, "execute_cell", dying_execute)

    def attempt(conn):
        try:
            matrix.run(workers=2)
            conn.send(("returned",))
        except Exception as exc:
            conn.send((type(exc).__name__, getattr(exc, "worker", None),
                       getattr(exc, "op", None),
                       getattr(exc, "sessions", None)))

    ctx = multiprocessing.get_context("fork")
    reader, writer = ctx.Pipe(duplex=False)
    child = ctx.Process(target=attempt, args=(writer,))
    child.start()
    writer.close()
    try:
        assert reader.poll(10), "the matrix hung on a dead worker"
        outcome = reader.recv()
    finally:
        child.kill()
        child.join()
    assert outcome == ("WorkerCrashed", 1, "cell", (victim,))


def test_golden_pins_checked_when_provided():
    pins = GOLDENS["matrix_cycles"]
    result = kernel_matrix().run(goldens=pins)
    golden_checks = [c for c in result["checks"]
                     if c["evaluator"] == "golden_pins"]
    assert len(golden_checks) == 3  # the three non-excluded kernel cells
    assert all(c["passed"] for c in golden_checks)

    wrong = dict(pins)
    wrong["bypass_kernel@production"] = 1
    result = kernel_matrix().run(goldens=wrong)
    assert not result["passed"]


def test_boot_cache_forks_leave_pristine_machine_untouched():
    clear_boot_cache()
    spec = ScenarioSpec.clean("bypass_kernel", "production")
    first = execute_cell(spec)
    second = execute_cell(spec)  # runs on forks of the same boot
    assert first == second


# --------------------------------------------------------------------------
# evaluator units (synthetic results; no simulation)
# --------------------------------------------------------------------------

def _clean_row(workload="w", variant="v", cycles=100, arch="aa"):
    tiers = {t: {"cycles": cycles, "arch_hash": arch}
             for t in ("interp", "plan", "traced")}
    return {
        "status": "ok", "error": None,
        "spec": {"workload": workload, "variant": variant, "args": {},
                 "fault": None, "seed": 0},
        "measurements": {
            "kind": "clean", "tiers": tiers, "cycles": cycles,
            "arch_hash": arch,
            "metrics": {"held_cycles": 4, "hold_causes": {"a": 3, "b": 1}},
        },
    }


def _faulted_row(workload="w", variant="v", cycles=100, arch="aa",
                 recovered=True):
    return {
        "status": "ok", "error": None,
        "spec": {"workload": workload, "variant": variant, "args": {},
                 "fault": {"map_faults": 1}, "seed": 9},
        "measurements": {
            "kind": "faulted", "recovered": recovered,
            "failure": None if recovered else "did not halt",
            "cycles": cycles, "arch_hash": arch,
            "recovery": {"rollbacks": 1, "replays": 1, "degrades": 0,
                         "checks_failed": 1},
            "metrics": {"held_cycles": 4, "hold_causes": {"a": 4}},
        },
    }


def test_tier_parity_evaluator_flags_divergence():
    row = _clean_row()
    row["measurements"]["tiers"]["plan"]["cycles"] = 101
    result = {"cells": {"c1": row}}
    checks = {c["check"]: c["passed"]
              for c in TierParityEvaluator().evaluate(result)}
    assert checks == {"tier_cycles_equal": False, "tier_state_identical": True}


def test_convergence_evaluator_pairs_faulted_with_clean():
    result = {"cells": {
        "clean": _clean_row(cycles=100, arch="aa"),
        "faulted": _faulted_row(cycles=100, arch="aa"),
        "diverged": _faulted_row(variant="v2", cycles=105, arch="bb"),
    }}
    result["cells"]["diverged"]["spec"]["variant"] = "v"
    checks = {(c["cell"], c["check"]): c["passed"]
              for c in ConvergenceEvaluator().evaluate(result)}
    assert checks[("faulted", "converges_to_clean")] is True
    assert checks[("diverged", "converges_to_clean")] is False


def test_convergence_evaluator_fails_without_counterpart():
    result = {"cells": {"faulted": _faulted_row()}}
    checks = {c["check"]: c for c in ConvergenceEvaluator().evaluate(result)}
    assert checks["converges_to_clean"]["passed"] is False
    assert "no clean counterpart" in checks["converges_to_clean"]["detail"]


def test_hold_accounting_evaluator_sums_causes():
    good = {"cells": {"c": _clean_row()}}
    assert all(c["passed"]
               for c in HoldAccountingEvaluator().evaluate(good))
    bad = {"cells": {"c": _clean_row()}}
    bad["cells"]["c"]["measurements"]["metrics"]["hold_causes"]["a"] = 9
    assert not all(c["passed"]
                   for c in HoldAccountingEvaluator().evaluate(bad))


def test_golden_pin_evaluator_judges_only_pinned_cells():
    result = {"cells": {"c": _clean_row(workload="w", variant="v")}}
    assert GoldenPinEvaluator({"other@x": 5}).evaluate(result) == []
    checks = GoldenPinEvaluator({"w@v": 100}).evaluate(result)
    assert [c["passed"] for c in checks] == [True]
    checks = GoldenPinEvaluator({"w@v": 99}).evaluate(result)
    assert [c["passed"] for c in checks] == [False]


# --------------------------------------------------------------------------
# the full demo grid (the CI matrix job's tier)
# --------------------------------------------------------------------------

@pytest.mark.matrix
@pytest.mark.slow
def test_demo_matrix_end_to_end_with_fanout():
    """The acceptance grid: 18 cells, 2 workers, all invariants prove.

    Every clean cell shows three-tier parity and hits its golden pin;
    every faulted cell recovers under supervision and converges
    byte-identically to its clean counterpart; a rerun reproduces the
    artifact byte for byte.
    """
    pins = GOLDENS["matrix_cycles"]
    matrix = demo_matrix()
    assert len(matrix.cells) == 18 and not matrix.excluded
    result = matrix.run(workers=2, goldens=pins)
    assert result["passed"], canonical_dumps(result)
    kinds = {c["check"] for c in result["checks"]}
    assert kinds == {
        "tier_cycles_equal", "tier_state_identical", "golden_cycles",
        "recovered", "converges_to_clean", "hold_causes_sum",
    }
    campaign = result["aggregate"]["campaign"]
    assert len(campaign) == 9
    assert all(g["recovery_rate"] == 1.0 for g in campaign.values())
    rerun = demo_matrix().run(workers=2, goldens=pins)
    assert canonical_dumps(result) == canonical_dumps(rerun)


@pytest.mark.matrix
@pytest.mark.slow
def test_ablation_matrix_passes_golden_pins():
    result = ablation_matrix().run(
        workers=2, goldens=GOLDENS["matrix_cycles"]
    )
    assert result["passed"], canonical_dumps(result)


@pytest.mark.matrix
@pytest.mark.slow
def test_monte_carlo_campaign_recovers_every_seed():
    matrix = monte_carlo_matrix(seeds=10)
    result = matrix.run(workers=2)
    assert result["passed"], canonical_dumps(result)
    (group,) = result["aggregate"]["campaign"].values()
    assert group["cells"] == 10
    assert group["recovery_rate"] == 1.0
