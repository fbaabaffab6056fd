"""The deterministic multi-Dorado cluster (DESIGN.md section 5.8).

Fabric mechanics, the lockstep-epoch coordinator, the relay-ring demo
workload end to end, and the cluster's replay guarantees: same seed ->
byte-identical canonical snapshot, whatever the worker count, and
snapshot -> restore -> resume converging to the uninterrupted run.
"""

import json
import subprocess
import sys

import pytest

from repro.cluster import (
    CLUSTER_FORMAT_VERSION,
    Cluster,
    ClusterState,
    Fabric,
    RingRelay,
    build_ring_cluster,
    build_ring_template,
    ring_epoch_budget,
    ring_payload,
)
from repro.cluster.__main__ import main as cluster_main
from repro.errors import ConfigError, StateError
from repro.fault.plan import FaultConfig


@pytest.fixture(scope="module")
def template():
    """One booted machine with the network task; forked, never run."""
    return build_ring_template()


def run_ring(template, nodes=3, laps=2, seed=11, workers=1, **kw):
    cluster = build_ring_cluster(
        nodes, laps=laps, seed=seed, template=template, **kw
    )
    cluster.run(max_epochs=ring_epoch_budget(nodes, laps), workers=workers)
    return cluster


# --- the fabric --------------------------------------------------------------


def test_fabric_rejects_bad_geometry():
    with pytest.raises(ConfigError, match="at least one node"):
        Fabric(0)
    with pytest.raises(ConfigError, match="not conservative"):
        Fabric(2, hop_latency=0)
    with pytest.raises(ConfigError, match="outside"):
        Fabric(2, links={0: 2})
    with pytest.raises(ConfigError, match="no outgoing link"):
        Fabric(2, links={0: 1}).send(1, [1, 2], epoch=0)


def test_fabric_hop_latency_is_conservative():
    """A packet sent during epoch E is invisible until epoch E+latency."""
    fabric = Fabric(2, hop_latency=2)
    fabric.send(0, [1, 2], epoch=5)
    assert fabric.due(5) == [] and fabric.due(6) == []
    arrived = fabric.due(7)
    assert [p.words for p in arrived] == [(1, 2)]
    assert arrived[0].dst == 1
    assert fabric.due(7) == []          # popped, not re-delivered
    assert fabric.packets_delivered == 1


def test_fabric_delivery_order_is_total():
    """Same-epoch arrivals sort by sequence number, never send order."""
    fabric = Fabric(4, hop_latency=1, links={i: 0 for i in range(4)})
    for src in (3, 1, 2):
        fabric.send(src, [src], epoch=0)
    assert [p.seq for p in fabric.due(1)] == [0, 1, 2]


def test_fabric_state_roundtrip_and_topology_refusals():
    fabric = Fabric(3, hop_latency=2)
    fabric.send(0, [7, 8], epoch=0)
    fabric.send(1, [9, 10], epoch=1)
    fabric.due(2)
    state = fabric.state_dict()

    clone = Fabric(3, hop_latency=2)
    clone.load_state(state)
    assert clone.state_dict() == state
    assert [p.seq for p in clone.in_flight] == [1]

    with pytest.raises(StateError, match="3 nodes"):
        Fabric(2, hop_latency=2).load_state(state)
    with pytest.raises(StateError, match="different topology"):
        Fabric(3, hop_latency=1).load_state(state)


# --- the ring, end to end ----------------------------------------------------


def test_ring_three_nodes_verifies(template):
    """The acceptance workload: payload survives 2 laps over 3 nodes."""
    cluster = run_ring(template)
    origin = cluster.nodes[0].program
    assert origin.done and origin.verified, origin.failures
    assert origin.packets_sent == 2 and origin.packets_received == 2
    report = cluster.report()
    # 2 laps x 3 hops, every one over the fabric.
    assert report["fabric"]["packets_delivered"] == 6
    assert report["fabric"]["in_flight"] == 0
    assert report["total_cycles"] == sum(
        row["cycles"] for row in report["nodes"]
    )
    for row in report["nodes"]:
        assert row["packets_received"] == 2


def test_ring_single_node_loops_back(template):
    """n=1 degenerates to a self-loop: the wire feeds the sender."""
    cluster = run_ring(template, nodes=1, laps=1)
    origin = cluster.nodes[0].program
    assert origin.done and origin.verified, origin.failures


def test_ring_payload_is_seeded():
    assert ring_payload(11, 0, 16) == ring_payload(11, 0, 16)
    assert ring_payload(11, 0, 16) != ring_payload(12, 0, 16)
    assert ring_payload(11, 0, 16) != ring_payload(11, 1, 16)
    assert all(0 <= w <= 0xFFFF for w in ring_payload(11, 0, 16))


def test_cluster_builder_refusals(template):
    with pytest.raises(ConfigError, match="programs"):
        Cluster.from_template(template, 2, [RingRelay()])
    with pytest.raises(ConfigError, match="nonexistent node"):
        build_ring_cluster(
            2, template=template, fault_plans={5: FaultConfig(seed=1)}
        )
    with pytest.raises(ConfigError, match="epoch_cycles"):
        build_ring_cluster(1, template=template, epoch_cycles=0)
    with pytest.raises(ConfigError, match="fabric was built for"):
        Cluster([], Fabric(1))


# --- replay guarantees -------------------------------------------------------


def test_rerun_is_byte_identical(template):
    first = run_ring(template).snapshot().to_json()
    second = run_ring(template).snapshot().to_json()
    assert first == second


def test_worker_fanout_matches_inline(template):
    """The acceptance gate: fork-based fan-out changes nothing."""
    inline = run_ring(template).snapshot().to_json()
    fanned = run_ring(template, workers=3).snapshot().to_json()
    assert inline == fanned


def test_killed_worker_raises_worker_crashed(template):
    """A worker SIGKILLed mid-run is diagnosed: worker, op, its nodes."""
    import os
    import signal
    import time

    from repro.errors import WorkerCrashed
    from repro.workers import can_fork

    if not can_fork():
        pytest.skip("needs a forking platform")
    cluster = build_ring_cluster(4, laps=2, seed=11, template=template)
    program = cluster.nodes[1].program
    real_step = program.step
    calls = []

    def dying_step(node):
        calls.append(node.index)  # runs in the forked worker owning node 1
        if len(calls) == 3:
            os.kill(os.getpid(), signal.SIGKILL)
        return real_step(node)

    program.step = dying_step  # patched before the fork: workers inherit it
    started = time.monotonic()
    with pytest.raises(WorkerCrashed) as info:
        cluster.run(max_epochs=ring_epoch_budget(4, 2), workers=2)
    assert time.monotonic() - started < 10
    assert info.value.worker == 1
    assert info.value.op == "epoch"
    assert info.value.sessions == ("1", "3")  # the nodes worker 1 owns


def test_snapshot_restore_resume_converges(template):
    """Mid-run snapshot -> restore into a fresh cluster -> same end state."""
    reference = run_ring(template)
    final_json = reference.snapshot().to_json()
    total_epochs = reference.epoch

    probe = build_ring_cluster(3, laps=2, seed=11, template=template)
    probe.run(max_epochs=total_epochs // 2)
    assert not probe.done                  # genuinely mid-run
    mid = ClusterState.from_json(probe.snapshot().to_json())

    resumed = build_ring_cluster(3, laps=2, seed=11, template=template)
    resumed.restore(mid)
    resumed.run(max_epochs=ring_epoch_budget(3, 2))
    assert resumed.snapshot().to_json() == final_json


def test_cluster_fork_is_independent(template):
    probe = build_ring_cluster(3, laps=2, seed=11, template=template)
    probe.run(max_epochs=3)
    clone = probe.fork()
    frozen = probe.snapshot().to_json()
    clone.run(max_epochs=ring_epoch_budget(3, 2))
    assert clone.done and clone.nodes[0].program.verified
    assert probe.snapshot().to_json() == frozen


def test_cluster_state_save_load_roundtrip(template, tmp_path):
    state = run_ring(template).snapshot()
    path = tmp_path / "ring.json"
    state.save(path)
    loaded = ClusterState.load(path)
    assert loaded == state
    assert loaded.to_json() == state.to_json()
    assert loaded.epoch == state.epoch and loaded.num_nodes == 3


def test_restore_refusals(template):
    state = run_ring(template).snapshot()

    with pytest.raises(StateError, match="cluster_version"):
        ClusterState.from_json("{}")
    with pytest.raises(StateError, match="malformed"):
        ClusterState.from_json("not json")

    wrong_size = build_ring_cluster(2, template=template)
    with pytest.raises(StateError, match="3 nodes"):
        wrong_size.restore(state)

    versioned = ClusterState(dict(state.data, cluster_version=99))
    with pytest.raises(StateError, match=f"v{CLUSTER_FORMAT_VERSION}"):
        build_ring_cluster(3, template=template).restore(versioned)

    swapped = build_ring_cluster(3, template=template)
    swapped.nodes[2].program = swapped.nodes[0].program
    with pytest.raises(StateError, match="ring_relay"):
        swapped.restore(state)


# --- per-node fault plans ----------------------------------------------------


def test_faulted_ring_still_verifies_and_replays(template):
    """Correctable-only per-node plans: ECC absorbs every hit."""
    plans = {
        i: FaultConfig(seed=100 + i, storage_correctable=3,
                       first_cycle=0, last_cycle=2000)
        for i in range(3)
    }
    first = run_ring(template, fault_plans=plans)
    origin = first.nodes[0].program
    assert origin.done and origin.verified, origin.failures
    injected = sum(n.cpu.counters.faults_injected for n in first.nodes)
    assert injected > 0
    second = run_ring(template, fault_plans=plans)
    assert first.snapshot().to_json() == second.snapshot().to_json()


def test_fault_plans_differ_per_node(template):
    plans = {
        i: FaultConfig(seed=100 + i, storage_correctable=2,
                       first_cycle=0, last_cycle=2000)
        for i in range(2)
    }
    cluster = build_ring_cluster(3, template=template, fault_plans=plans)
    armed = [n.cpu.memory.injector.plan.events for n in cluster.nodes[:2]]
    assert armed[0] and armed[1] and armed[0] != armed[1]
    # Node 2 got no plan and stays clean.
    clean_injector = cluster.nodes[2].cpu.memory.injector
    assert clean_injector is None or not clean_injector.plan.events


# --- CLI + exp-matrix integration --------------------------------------------


def test_cli_run_and_bench(tmp_path, capsys):
    state_path = tmp_path / "ring.json"
    bench_path = tmp_path / "bench.json"
    assert cluster_main([
        "run", "--nodes", "3", "--laps", "1",
        "--save-state", str(state_path),
    ]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["fabric"]["packets_delivered"] == 3
    assert ClusterState.load(state_path).num_nodes == 3

    assert cluster_main([
        "bench", "--nodes", "1,2", "--laps", "1",
        "--output", str(bench_path),
    ]) == 0
    bench = json.loads(bench_path.read_text())
    assert [row["nodes"] for row in bench["scaling"]] == [1, 2]
    assert all(row["verified"] for row in bench["scaling"])
    assert all(row["cycles_per_second"] > 0 for row in bench["scaling"])


def test_cli_module_entry_point(tmp_path):
    """python -m repro.cluster, as CI invokes it."""
    out = subprocess.run(
        [sys.executable, "-m", "repro.cluster", "run",
         "--nodes", "2", "--laps", "1",
         "--save-state", str(tmp_path / "s.json")],
        capture_output=True, text=True, check=True,
    )
    assert json.loads(out.stdout)["fabric"]["packets_delivered"] == 2


def test_exp_cluster_cell_clean_and_faulted():
    from repro.exp import (
        CLUSTER_FAULT_TEMPLATE,
        CLUSTER_WORKLOAD,
        ClusterEvaluator,
        ScenarioSpec,
        execute_cell,
    )

    clean = execute_cell(
        ScenarioSpec.clean(CLUSTER_WORKLOAD, "production",
                           args={"nodes": 2, "laps": 1})
    )
    assert clean["kind"] == "cluster" and clean["verified"]
    assert clean["packets_delivered"] == 2
    rerun = execute_cell(
        ScenarioSpec.clean(CLUSTER_WORKLOAD, "production",
                           args={"nodes": 2, "laps": 1})
    )
    assert rerun["cluster_hash"] == clean["cluster_hash"]

    faulted = execute_cell(ScenarioSpec.faulted(
        CLUSTER_WORKLOAD, "production", CLUSTER_FAULT_TEMPLATE,
        seed=77, args={"nodes": 2, "laps": 1},
    ))
    assert faulted["verified"] and faulted["faults_injected"] > 0

    rows = {
        clean["cluster_hash"]: {"status": "ok", "measurements": clean},
        faulted["cluster_hash"]: {"status": "ok", "measurements": faulted},
    }
    checks = ClusterEvaluator().evaluate({"cells": rows})
    assert checks and all(c["passed"] for c in checks)


@pytest.mark.slow
def test_exp_cluster_matrix_end_to_end():
    """The named `cluster` campaign: node sweep + all-nodes-faulted cell."""
    from repro.exp import cluster_matrix

    result = cluster_matrix().run()
    assert result["passed"], result["evaluations"]
    kinds = [row["measurements"]["nodes"]
             for row in result["cells"].values() if row["status"] == "ok"]
    assert sorted(kinds) == [1, 2, 3, 4]
