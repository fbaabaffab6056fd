"""N full Dorados in conservative lockstep (DESIGN.md section 5.8).

A :class:`Cluster` owns N complete machines -- each one a
:meth:`~repro.core.processor.Processor.fork` of a single booted
template -- plus the :class:`~repro.cluster.fabric.Fabric` between
their network controllers and one *program* per node (the host-software
state machine that arms transfers and harvests completed ones).

Time advances in **epochs**.  In one epoch, every node's
:func:`step_node`, in node-index order:

1. injects the packets due to it into its network controller rx queue;
2. runs it exactly ``epoch_cycles`` machine cycles;
3. steps its program; packets it harvested go to the fabric.

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
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.counters import HOLD_CAUSE_NAMES
from ..errors import ConfigError, StateError
from ..fault.injector import FaultInjector
from ..fault.plan import FaultConfig, InjectionPlan
from ..io.network import NetworkController
from ..mem.pipeline import FAULT_STORAGE
from ..state import MachineState, canonical_json, parse_canonical_json
from ..workers import Worker, can_fork
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


def step_node(
    node: "Node", packets: Sequence[List[int]], cycles: int
) -> Tuple[List[List[int]], bool]:
    """One node's epoch (inline or in a worker): inject, run, step.
    Returns the packets its program harvested and whether it is done."""
    for words in packets:
        node.net.inject_packet(list(words))
    node.cpu.run(cycles)
    sent = [list(words) for words in node.program.step(node)]
    return sent, bool(node.program.done)


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

    def _due(self) -> Dict[int, List[List[int]]]:
        """This epoch's due packets, grouped by destination node."""
        due: Dict[int, List[List[int]]] = {}
        for packet in self.fabric.due(self.epoch):
            due.setdefault(packet.dst, []).append(list(packet.words))
        return due

    def run_epoch(self) -> None:
        """Advance the whole cluster by exactly one epoch, inline."""
        due = self._due()
        for node in self.nodes:
            sent, _ = step_node(node, due.get(node.index, ()), self.epoch_cycles)
            for words in sent:
                self.fabric.send(node.index, words, self.epoch)
        self.epoch += 1

    def run(self, max_epochs: int, workers: int = 1) -> int:
        """Run until done or *max_epochs*; returns the epochs advanced.

        ``workers > 1`` fans the nodes out over forked worker
        processes; the result is byte-identical to the inline run.
        """
        if workers > 1 and len(self.nodes) > 1 and can_fork():
            return self._run_forked(max_epochs, workers)
        start = self.epoch
        while not self.done and self.epoch - start < max_epochs:
            self.run_epoch()
        return self.epoch - start

    # ------------------------------------------------------------------
    # fork-based fan-out
    # ------------------------------------------------------------------

    def _serve_nodes(self, message: Dict[str, Any]) -> List:
        """Worker handler (``self`` is the cluster as forked): ``epoch``
        steps the listed nodes, ``collect`` ships their final state."""
        if message["op"] == "epoch":
            return [
                (index, *step_node(self.nodes[index], packets,
                                   self.epoch_cycles))
                for index, packets in message["items"]
            ]
        return [
            (index, self.nodes[index].cpu.snapshot().data,
             self.nodes[index].program.state_dict())
            for (index,) in message["items"]
        ]

    def _run_forked(self, max_epochs: int, workers: int) -> int:
        """The epoch loop with nodes spread over forked workers.

        Workers own disjoint node subsets (round-robin by index).  The
        coordinator ships each its nodes' due packets and performs the
        resulting ``fabric.send`` calls in node-index order, the one
        total order the fabric ever sees.  Afterwards the workers' node
        snapshots are restored into the (stale since the fork) nodes
        here.  A worker that dies raises ``WorkerCrashed``.
        """
        count = min(workers, len(self.nodes))
        owned = [range(w, len(self.nodes), count) for w in range(count)]
        pool = [Worker(self._serve_nodes, index=w) for w in range(count)]
        done_flags = {n.index: bool(n.program.done) for n in self.nodes}
        active = [n.index for n in self.nodes if not n.program.passive]
        start = self.epoch
        try:
            while self.epoch - start < max_epochs:
                if active and all(done_flags[i] for i in active):
                    break
                due = self._due()
                for worker, indices in zip(pool, owned):
                    worker.send({"op": "epoch", "items": [
                        (i, due.get(i, [])) for i in indices
                    ]})
                sends: List = []
                for worker in pool:
                    for index, sent, done in worker.recv():
                        sends.append((index, sent))
                        done_flags[index] = done
                for index, sent in sorted(sends):
                    for words in sent:
                        self.fabric.send(index, words, self.epoch)
                self.epoch += 1
            for worker, indices in zip(pool, owned):
                worker.send({"op": "collect", "items": [(i,) for i in indices]})
            for worker in pool:
                for index, machine_data, program_state in worker.recv():
                    node = self.nodes[index]
                    node.cpu.restore(MachineState(machine_data))
                    node.program.load_state(program_state)
        finally:
            for worker in pool:
                worker.close()
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

