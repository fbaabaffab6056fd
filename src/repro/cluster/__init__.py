"""A deterministic multi-Dorado cluster (DESIGN.md section 5.8).

N complete machines -- each a fork of one booted template -- exchange
packets through their network controllers over a shared
:class:`Fabric`, advanced in conservative lockstep epochs so every run
replays byte-identically from one seed, independent of host scheduling
and worker count.  The cluster snapshot is a vector of per-machine
``MachineState`` payloads plus the fabric, in the repo's canonical
JSON.

Quickstart::

    from repro.cluster import build_ring_cluster, ring_epoch_budget
    cluster = build_ring_cluster(3, laps=2)
    cluster.run(max_epochs=ring_epoch_budget(3, 2))
    assert cluster.nodes[0].program.verified
    print(cluster.snapshot().to_json())

or from the shell::

    python -m repro.cluster run --nodes 3 --laps 2 --save-state ring.json
    python -m repro.cluster bench --nodes 1,2,4 --output BENCH_cluster.json
"""

from .cluster import (
    CLUSTER_FORMAT_VERSION,
    Cluster,
    ClusterState,
    Node,
)
from .fabric import Fabric, Packet
from .programs import (
    RX_BUFFER_VA,
    TX_BUFFER_VA,
    RingOrigin,
    RingRelay,
    build_ring_cluster,
    build_ring_template,
    ring_epoch_budget,
    ring_payload,
)

__all__ = [
    "CLUSTER_FORMAT_VERSION",
    "Cluster",
    "ClusterState",
    "Fabric",
    "Node",
    "Packet",
    "RX_BUFFER_VA",
    "RingOrigin",
    "RingRelay",
    "TX_BUFFER_VA",
    "build_ring_cluster",
    "build_ring_template",
    "ring_epoch_budget",
    "ring_payload",
]
