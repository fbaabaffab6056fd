"""The deterministic packet fabric between Dorados.

The paper's machine hung off "an interface to a high bandwidth
communication network" (section 2); this module is the wire between N
simulated machines.  A :class:`Fabric` moves whole packets -- the word
lists a :class:`~repro.io.network.NetworkController` put on its tx wire
-- to the receiving node's rx queue, with a fixed latency measured in
*lockstep epochs* (DESIGN.md section 5.8), never in host time.

Everything is plain data and total orders: packets carry a global
sequence number, delivery sorts on (deliver_epoch, seq), and the
coordinator performs every ``send``/``due`` call in node-index order,
so the fabric's behaviour is a pure function of the cluster's seed --
independent of worker count, host scheduling, or hash ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import ConfigError, StateError
from ..state import int_array
from ..types import word


@dataclass(frozen=True)
class Packet:
    """One packet in flight: plain data, totally ordered by ``seq``."""

    seq: int
    src: int
    dst: int
    words: Tuple[int, ...]
    sent_epoch: int
    deliver_epoch: int

    def state_dict(self) -> dict:
        return {
            "seq": self.seq,
            "src": self.src,
            "dst": self.dst,
            "words": list(self.words),
            "sent_epoch": self.sent_epoch,
            "deliver_epoch": self.deliver_epoch,
        }

    @classmethod
    def from_state(cls, state: dict) -> "Packet":
        return cls(
            seq=state["seq"],
            src=state["src"],
            dst=state["dst"],
            words=tuple(int_array(state["words"])),
            sent_epoch=state["sent_epoch"],
            deliver_epoch=state["deliver_epoch"],
        )


class Fabric:
    """Point-to-point links with a fixed per-hop epoch latency.

    ``links`` maps each source node to the destination its tx wire
    feeds; the default is the unidirectional ring ``i -> (i+1) % n``
    (node 0's wire loops back to itself when ``n == 1``).  The hop
    latency must be at least one epoch: a packet sent during epoch E is
    delivered at the top of epoch ``E + hop_latency``, which is what
    makes the lockstep *conservative* -- nothing sent in an epoch can
    influence any node until every node has finished that epoch.
    """

    def __init__(
        self,
        num_nodes: int,
        hop_latency: int = 1,
        links: Optional[Dict[int, int]] = None,
    ) -> None:
        if num_nodes < 1:
            raise ConfigError("a fabric needs at least one node")
        if hop_latency < 1:
            raise ConfigError(
                "hop latency below one epoch would let a packet arrive "
                "inside the epoch that sent it (not conservative)"
            )
        self.num_nodes = num_nodes
        self.hop_latency = hop_latency
        if links is None:
            links = {i: (i + 1) % num_nodes for i in range(num_nodes)}
        for src, dst in links.items():
            if not (0 <= src < num_nodes and 0 <= dst < num_nodes):
                raise ConfigError(f"link {src}->{dst} names a node outside 0..{num_nodes - 1}")
        self.links = dict(links)
        self._in_flight: List[Packet] = []
        self._next_seq = 0
        self.packets_sent = 0
        self.words_sent = 0
        self.packets_delivered = 0

    # --- the wire -----------------------------------------------------------

    def send(self, src: int, words: List[int], epoch: int) -> Packet:
        """Accept a packet from *src*'s tx wire during *epoch*."""
        dst = self.links.get(src)
        if dst is None:
            raise ConfigError(f"node {src} has no outgoing link")
        packet = Packet(
            seq=self._next_seq,
            src=src,
            dst=dst,
            words=tuple(word(w) for w in words),
            sent_epoch=epoch,
            deliver_epoch=epoch + self.hop_latency,
        )
        self._next_seq += 1
        self.packets_sent += 1
        self.words_sent += len(packet.words)
        self._in_flight.append(packet)
        return packet

    def due(self, epoch: int) -> List[Packet]:
        """Pop every packet deliverable at the top of *epoch*, in order."""
        arrived = sorted(
            (p for p in self._in_flight if p.deliver_epoch <= epoch),
            key=lambda p: (p.deliver_epoch, p.seq),
        )
        if arrived:
            delivered = {p.seq for p in arrived}
            self._in_flight = [p for p in self._in_flight if p.seq not in delivered]
            self.packets_delivered += len(arrived)
        return arrived

    @property
    def in_flight(self) -> List[Packet]:
        return sorted(self._in_flight, key=lambda p: p.seq)

    # --- snapshot protocol (DESIGN.md section 5.4) ----------------------------

    def state_dict(self) -> dict:
        return {
            "num_nodes": self.num_nodes,
            "hop_latency": self.hop_latency,
            "links": dict(self.links),
            "in_flight": [p.state_dict() for p in self.in_flight],
            "next_seq": self._next_seq,
            "packets_sent": self.packets_sent,
            "words_sent": self.words_sent,
            "packets_delivered": self.packets_delivered,
        }

    def load_state(self, state: dict) -> None:
        if state["num_nodes"] != self.num_nodes:
            raise StateError(
                f"fabric snapshot is for {state['num_nodes']} nodes; "
                f"this fabric has {self.num_nodes}"
            )
        if state["hop_latency"] != self.hop_latency or dict(state["links"]) != self.links:
            raise StateError("fabric snapshot was taken on a different topology")
        self._in_flight = [Packet.from_state(p) for p in state["in_flight"]]
        self._next_seq = state["next_seq"]
        self.packets_sent = state["packets_sent"]
        self.words_sent = state["words_sent"]
        self.packets_delivered = state["packets_delivered"]
