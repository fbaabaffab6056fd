"""N full Dorados in conservative lockstep (DESIGN.md section 5.8).

A :class:`Cluster` owns N complete machines -- each one a
:meth:`~repro.core.processor.Processor.fork` of a single booted
template -- plus the :class:`~repro.cluster.fabric.Fabric` between
their network controllers and one *program* per node (the host-software
state machine that arms transfers and harvests completed ones).

Time advances in **epochs**.  One epoch is, in this exact order:

1. every packet due this epoch is injected into its destination's
   network controller rx queue;
2. every node runs exactly ``epoch_cycles`` machine cycles;
3. every node's program is stepped, in node-index order, and any
   packets it harvested off the tx wire are handed to the fabric.

Because the fabric's hop latency is at least one epoch, nothing a node
sends can reach a peer inside the epoch that sent it -- so the nodes
within an epoch are causally independent and may be simulated in any
order, on any number of worker processes, with byte-identical results.
The worker mode exploits exactly that: forked workers own disjoint node
subsets, the coordinator keeps the fabric and performs all sends in
node-index order, and the cluster snapshot comes out the same whether
``workers`` was 1 or N.

The cluster-wide snapshot (:class:`ClusterState`) is a vector of
:class:`~repro.state.MachineState` payloads plus the fabric and program
state, serialized with the repo's canonical JSON -- save -> load ->
save round-trips byte-identically, and restore/fork work mid-run.
"""

from __future__ import annotations

import copy
import dataclasses
import multiprocessing
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..core.counters import HOLD_CAUSE_NAMES
from ..errors import ConfigError, StateError
from ..fault.injector import FaultInjector
from ..fault.plan import FaultConfig, InjectionPlan
from ..io.network import NetworkController
from ..mem.pipeline import FAULT_STORAGE
from ..state import MachineState, canonical_json, parse_canonical_json
from .fabric import Fabric

#: Version stamp of the cluster snapshot layout; the per-node payloads
#: carry their own STATE_FORMAT_VERSION and are checked by restore().
CLUSTER_FORMAT_VERSION = 1


def arm_fault_plan(cpu, fault_config: FaultConfig) -> None:
    """Give a forked machine its own seeded fault plan, in place.

    ``Processor.fork()`` clones the clean template, so a per-node plan
    cannot ride in through the constructor; instead the node's config
    is replaced (fault plans are config, so snapshots of the armed node
    refuse machines armed differently) and the injector is wired
    exactly as :class:`~repro.mem.pipeline.MemorySystem` wires one at
    construction: clock on the memory pipeline, uncorrectable errors
    into the storage fault latch, the ECC filter onto storage.
    """
    config = dataclasses.replace(cpu.config, fault_injection=fault_config)
    cpu.config = config
    memory = cpu.memory
    memory.config = config
    injector = FaultInjector(InjectionPlan.from_config(fault_config), cpu.counters)
    injector.bind(
        clock=lambda: memory.now,
        on_uncorrectable=lambda: memory._fault(FAULT_STORAGE),
    )
    memory.injector = injector
    memory.storage.ecc = injector.ecc
    # Traces compiled before arming would bypass the new ECC filter.
    cpu._traces.invalidate_all()


class Node:
    """One cluster member: a machine, its network controller, its program."""

    def __init__(self, index: int, cpu, program) -> None:
        self.index = index
        self.cpu = cpu
        self.program = program
        nets = [d for d in cpu.devices if isinstance(d, NetworkController)]
        if len(nets) != 1:
            raise ConfigError(
                f"cluster node {index} needs exactly one NetworkController "
                f"(found {len(nets)})"
            )
        self.net = nets[0]


class ClusterState:
    """The whole cluster as plain data: epoch, fabric, N machines, programs."""

    def __init__(self, data: Dict[str, Any]) -> None:
        self.data = data

    @property
    def epoch(self) -> int:
        return self.data["epoch"]

    @property
    def num_nodes(self) -> int:
        return len(self.data["nodes"])

    def __eq__(self, other: object) -> bool:
        """Same cluster state means same canonical bytes, as for machines."""
        return isinstance(other, ClusterState) and self.to_json() == other.to_json()

    def __repr__(self) -> str:
        return f"ClusterState(nodes={self.num_nodes}, epoch={self.epoch})"

    def to_json(self) -> str:
        """Canonical JSON: the same cluster state always yields the same bytes."""
        return canonical_json(self.data)

    @classmethod
    def from_json(cls, text: str) -> "ClusterState":
        data = parse_canonical_json(text)
        if not isinstance(data, dict) or "cluster_version" not in data:
            raise StateError("cluster-state JSON lacks a cluster_version field")
        return cls(data)

    def save(self, path) -> None:
        with open(path, "w") as f:
            f.write(self.to_json())
            f.write("\n")

    @classmethod
    def load(cls, path) -> "ClusterState":
        with open(path) as f:
            return cls.from_json(f.read())


class Cluster:
    """N machines, one fabric, advanced in conservative lockstep epochs."""

    def __init__(self, nodes: Sequence[Node], fabric: Fabric,
                 epoch_cycles: int = 800) -> None:
        if len(nodes) != fabric.num_nodes:
            raise ConfigError(
                f"{len(nodes)} nodes but the fabric was built for "
                f"{fabric.num_nodes}"
            )
        if epoch_cycles < 1:
            raise ConfigError("epoch_cycles must be positive")
        self.nodes = list(nodes)
        self.fabric = fabric
        self.epoch_cycles = epoch_cycles
        self.epoch = 0

    @classmethod
    def from_template(
        cls,
        template,
        num_nodes: int,
        programs: Sequence,
        *,
        epoch_cycles: int = 800,
        hop_latency: int = 1,
        links: Optional[Dict[int, int]] = None,
        fault_plans: Optional[Dict[int, FaultConfig]] = None,
    ) -> "Cluster":
        """Build N nodes by forking one booted *template* machine.

        *programs* supplies one program per node; *fault_plans*
        optionally maps node indices to per-node seeded
        :class:`~repro.fault.plan.FaultConfig` plans (every other node
        stays clean).
        """
        if len(programs) != num_nodes:
            raise ConfigError(f"{num_nodes} nodes need {num_nodes} programs, "
                              f"got {len(programs)}")
        plans = fault_plans or {}
        for index in plans:
            if not 0 <= index < num_nodes:
                raise ConfigError(f"fault plan for nonexistent node {index}")
        nodes = []
        for index in range(num_nodes):
            cpu = template.fork()
            plan = plans.get(index)
            if plan is not None:
                arm_fault_plan(cpu, plan)
            nodes.append(Node(index, cpu, programs[index]))
        return cls(nodes, Fabric(num_nodes, hop_latency, links),
                   epoch_cycles=epoch_cycles)

    # ------------------------------------------------------------------
    # the lockstep epoch
    # ------------------------------------------------------------------

    @property
    def done(self) -> bool:
        """True when every non-passive program has finished."""
        active = [n for n in self.nodes if not n.program.passive]
        return bool(active) and all(n.program.done for n in active)

    def _deliver_due(self) -> None:
        for packet in self.fabric.due(self.epoch):
            self.nodes[packet.dst].net.inject_packet(list(packet.words))

    def run_epoch(self) -> None:
        """Advance the whole cluster by exactly one epoch, inline."""
        self._deliver_due()
        for node in self.nodes:
            node.cpu.run(self.epoch_cycles)
        for node in self.nodes:
            for words in node.program.step(node):
                self.fabric.send(node.index, words, self.epoch)
        self.epoch += 1

    def run(self, max_epochs: int, workers: int = 1) -> int:
        """Run until done or *max_epochs*; returns the epochs advanced.

        ``workers > 1`` fans the nodes out over forked worker
        processes; the result is byte-identical to the inline run.
        """
        if (
            workers > 1
            and len(self.nodes) > 1
            and "fork" in multiprocessing.get_all_start_methods()
        ):
            return self._run_forked(max_epochs, workers)
        start = self.epoch
        while not self.done and self.epoch - start < max_epochs:
            self.run_epoch()
        return self.epoch - start

    # ------------------------------------------------------------------
    # fork-based fan-out
    # ------------------------------------------------------------------

    def _run_forked(self, max_epochs: int, workers: int) -> int:
        """The epoch loop with nodes spread over forked workers.

        Workers own disjoint node subsets (round-robin by index) and
        inherit them through fork.  Per epoch, the coordinator ships
        each worker its nodes' due packets, the worker runs its nodes
        and steps their programs, and the coordinator performs the
        resulting ``fabric.send`` calls in node-index order -- the one
        total order the fabric ever sees, regardless of which worker
        answered first.  After the loop, each worker ships its nodes'
        snapshots back and the coordinator restores them into its own
        (stale since the fork) node objects.
        """
        workers = min(workers, len(self.nodes))
        owned = {
            w: [i for i in range(len(self.nodes)) if i % workers == w]
            for w in range(workers)
        }
        ctx = multiprocessing.get_context("fork")
        pipes = []
        procs = []
        for w in range(workers):
            parent_end, child_end = ctx.Pipe()
            proc = ctx.Process(
                target=_cluster_worker, args=(child_end, self, owned[w]),
                daemon=True,
            )
            proc.start()
            child_end.close()
            pipes.append(parent_end)
            procs.append(proc)

        done_flags = {n.index: bool(n.program.done) for n in self.nodes}
        passive = {n.index: bool(n.program.passive) for n in self.nodes}
        active = [i for i, p in passive.items() if not p]
        start = self.epoch
        try:
            while self.epoch - start < max_epochs:
                if active and all(done_flags[i] for i in active):
                    break
                deliver: Dict[int, List[List[int]]] = {}
                for packet in self.fabric.due(self.epoch):
                    deliver.setdefault(packet.dst, []).append(list(packet.words))
                for w in range(workers):
                    pipes[w].send({
                        "cmd": "epoch",
                        "deliver": [(i, deliver.get(i, [])) for i in owned[w]],
                    })
                sends: List = []
                for w in range(workers):
                    reply = pipes[w].recv()
                    sends.extend(reply["sent"])
                    done_flags.update(reply["done"])
                for index, packets in sorted(sends):
                    for words in packets:
                        self.fabric.send(index, words, self.epoch)
                self.epoch += 1
            for pipe in pipes:
                pipe.send({"cmd": "collect"})
            for pipe in pipes:
                for index, machine_data, program_state in pipe.recv():
                    node = self.nodes[index]
                    node.cpu.restore(MachineState(machine_data))
                    node.program.load_state(program_state)
        finally:
            for pipe in pipes:
                try:
                    pipe.send({"cmd": "exit"})
                    pipe.close()
                except (BrokenPipeError, OSError):
                    pass
            for proc in procs:
                proc.join(timeout=30)
                if proc.is_alive():
                    proc.terminate()
        return self.epoch - start

    # ------------------------------------------------------------------
    # snapshot / restore / fork
    # ------------------------------------------------------------------

    def snapshot(self) -> ClusterState:
        return ClusterState({
            "cluster_version": CLUSTER_FORMAT_VERSION,
            "epoch": self.epoch,
            "epoch_cycles": self.epoch_cycles,
            "fabric": self.fabric.state_dict(),
            "nodes": [node.cpu.snapshot().data for node in self.nodes],
            "programs": [
                {"kind": node.program.kind, "state": node.program.state_dict()}
                for node in self.nodes
            ],
        })

    def restore(self, state: ClusterState) -> None:
        data = state.data if isinstance(state, ClusterState) else state
        if data["cluster_version"] != CLUSTER_FORMAT_VERSION:
            raise StateError(
                f"cluster snapshot format v{data['cluster_version']} != "
                f"supported v{CLUSTER_FORMAT_VERSION}"
            )
        if len(data["nodes"]) != len(self.nodes):
            raise StateError(
                f"snapshot has {len(data['nodes'])} nodes; "
                f"this cluster has {len(self.nodes)}"
            )
        for node, entry in zip(self.nodes, data["programs"]):
            if entry["kind"] != node.program.kind:
                raise StateError(
                    f"node {node.index} runs program {node.program.kind!r}; "
                    f"snapshot has {entry['kind']!r}"
                )
        self.fabric.load_state(data["fabric"])
        self.epoch = data["epoch"]
        self.epoch_cycles = data["epoch_cycles"]
        for node, machine_data, entry in zip(
            self.nodes, data["nodes"], data["programs"]
        ):
            node.cpu.restore(MachineState(machine_data))
            node.program.load_state(entry["state"])

    def fork(self) -> "Cluster":
        """A fully independent copy of the whole cluster, mid-run."""
        clone = Cluster(
            [
                Node(n.index, n.cpu.fork(), copy.deepcopy(n.program))
                for n in self.nodes
            ],
            copy.deepcopy(self.fabric),
            epoch_cycles=self.epoch_cycles,
        )
        clone.epoch = self.epoch
        return clone

    # ------------------------------------------------------------------
    # the cluster report
    # ------------------------------------------------------------------

    def report(self) -> Dict[str, Any]:
        """Per-node instrumentation rolled into one plain-data report."""
        per_node = []
        for node in self.nodes:
            c = node.cpu.counters
            per_node.append({
                "node": node.index,
                "cycles": c.cycles,
                "instructions": c.instructions,
                "held_cycles": c.held_cycles,
                "hold_causes": dict(zip(HOLD_CAUSE_NAMES, c.hold_causes)),
                "task_switches": c.task_switches,
                "network_task_cycles": c.task_cycles[node.net.task],
                "packets_received": node.net.packets_received,
                "slowio_words_in": c.slowio_words_in,
                "slowio_words_out": c.slowio_words_out,
                "faults_injected": c.faults_injected,
                "program": {
                    "kind": node.program.kind,
                    "passive": bool(node.program.passive),
                    "done": bool(node.program.done),
                },
            })
        return {
            "epoch": self.epoch,
            "epoch_cycles": self.epoch_cycles,
            "total_cycles": sum(entry["cycles"] for entry in per_node),
            "fabric": {
                "packets_sent": self.fabric.packets_sent,
                "words_sent": self.fabric.words_sent,
                "packets_delivered": self.fabric.packets_delivered,
                "in_flight": len(self.fabric.in_flight),
            },
            "nodes": per_node,
        }


def _cluster_worker(conn, cluster: Cluster, indices: List[int]) -> None:
    """Worker-process loop: epochs for an owned node subset.

    Runs in a forked child, so ``cluster`` is the parent's object graph
    at fork time; only the owned nodes are ever touched here, and their
    final state travels back as snapshot data on "collect".
    """
    nodes = [cluster.nodes[i] for i in indices]
    while True:
        msg = conn.recv()
        cmd = msg["cmd"]
        if cmd == "epoch":
            for index, packets in msg["deliver"]:
                net = cluster.nodes[index].net
                for words in packets:
                    net.inject_packet(list(words))
            for node in nodes:
                node.cpu.run(cluster.epoch_cycles)
            sent = []
            done = {}
            for node in nodes:
                outs = node.program.step(node)
                sent.append((node.index, [list(w) for w in outs]))
                done[node.index] = bool(node.program.done)
            conn.send({"sent": sent, "done": done})
        elif cmd == "collect":
            conn.send([
                (node.index, node.cpu.snapshot().data, node.program.state_dict())
                for node in nodes
            ])
        else:  # "exit"
            conn.close()
            return
