"""Seeded inputs for the sink benchmark's workloads.

Everything here runs before any timed section.  A seed picks the key
material, the report contents and every node's random stream (so which
forwarders mark which packet).  It does not move the moles or the
reporters: where they sit sets how much work a packet costs (path
length, how many routes cross the forwarding mole, the size of the
precedence graph), and a geometry drawn per seed made the run-to-run
spread measure the draw instead of the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.adversary.attacks import MarkAlteringAttack
from repro.adversary.moles import ForwardingMole
from repro.crypto.keys import KeyStore
from repro.crypto.mac import HmacProvider
from repro.marking.base import NodeContext
from repro.marking.pnm import PNMMarking
from repro.net.topology import Topology, grid_topology
from repro.packets.packet import MarkedPacket
from repro.routing.base import RoutingTable
from repro.routing.tree import build_routing_tree
from repro.sim.behaviors import HonestForwarder
from repro.sim.sources import BogusReportSource, HonestReportSource

#: Grid side of the wire workloads' deployment: 400 nodes, 399 keyed sensors.
GRID_SIDE = 20
#: The source mole sits exactly this many hops out, so every seed gives a
#: path of ``MOLE_HOPS - 1`` forwarders.
MOLE_HOPS = 15
#: PNM marking probability, about 3 marks per path (Sec. 5 calibration):
#: 13 honest forwarders mark 2.8 times per packet on average.
MARK_PROB = 3.0 / (MOLE_HOPS - 1)
#: Honest reporters added by ``many-reporters``, all at least this far out.
REPORTERS = 64
REPORTER_MIN_HOPS = 10


@dataclass
class WireInputs:
    """A deployment plus the batches one closed-loop client sends.

    Attributes:
        topology: the grid the sink serves.
        master_secret: the deployment secret the sink derives keys from.
        batches: ``(packets, delivering_node)`` pairs in send order.
        moles: the source mole and the colluding forwarding mole.
    """

    topology: Topology
    master_secret: bytes
    batches: list[tuple[list[MarkedPacket], int]]
    moles: frozenset[int]


class _Forwarding:
    """Every node's forwarding behaviour, with per-node random streams."""

    def __init__(
        self,
        topology: Topology,
        routing: RoutingTable,
        keystore: KeyStore,
        seed: int,
        mole: int,
    ):
        self.routing = routing
        scheme = PNMMarking(mark_prob=MARK_PROB)
        provider = HmacProvider()
        self.behaviors: dict[int, HonestForwarder | ForwardingMole] = {}
        for node in topology.sensor_nodes():
            ctx = NodeContext(
                node_id=node,
                key=keystore[node],
                provider=provider,
                rng=random.Random(f"{seed}:node:{node}"),
            )
            if node == mole:
                self.behaviors[node] = ForwardingMole(
                    ctx, scheme, MarkAlteringAttack(target="first", field="mac")
                )
            else:
                self.behaviors[node] = HonestForwarder(ctx, scheme)

    def deliver(self, packet: MarkedPacket, source: int) -> tuple[MarkedPacket, int]:
        """Carry ``packet`` from ``source`` to the sink; returns it and its last hop."""
        forwarders = self.routing.forwarders_between(source)
        for node in forwarders:
            forwarded = self.behaviors[node].forward(packet)
            assert forwarded is not None, "no behaviour here drops packets"
            packet = forwarded
        return packet, forwarders[-1]


def mole_pair(
    topology: Topology, routing: RoutingTable, hops: int
) -> tuple[int, int]:
    """A source mole ``hops`` out and a forwarding mole mid-way along its path.

    The source is the middle one of the nodes at that distance, in ID order.
    """
    candidates = [
        node for node in topology.sensor_nodes() if routing.hop_count(node) == hops
    ]
    source = candidates[len(candidates) // 2]
    forwarders = routing.forwarders_between(source)
    return source, forwarders[len(forwarders) // 2]


def spread_out(nodes: list[int], count: int) -> list[int]:
    """``count`` of ``nodes`` (in ID order) at even strides."""
    return [nodes[index * len(nodes) // count] for index in range(count)]


def build_wire_inputs(
    workload: str, seed: int, packets: int, batch_size: int
) -> WireInputs:
    """Inputs for ``mole-hunt`` (mole traffic only) or ``many-reporters``.

    ``many-reporters`` interleaves the mole's reports round-robin with
    those of :data:`REPORTERS` honest sources.  Batches group packets by
    delivering node (a batch frame names one), keeping stream order.
    """
    topology = grid_topology(GRID_SIDE, GRID_SIDE)
    routing = build_routing_tree(topology)
    master_secret = b"sinkbench-" + str(seed).encode()
    keystore = KeyStore.from_master_secret(master_secret, topology.sensor_nodes())
    source_mole, forwarding_mole = mole_pair(topology, routing, MOLE_HOPS)
    forwarding = _Forwarding(topology, routing, keystore, seed, forwarding_mole)

    sources: list[BogusReportSource | HonestReportSource] = [
        BogusReportSource(
            source_mole,
            topology.position(source_mole),
            random.Random(f"{seed}:source:{source_mole}"),
        )
    ]
    if workload == "many-reporters":
        # Honest routes avoid the forwarding mole, so only the mole's own
        # reports arrive tampered.
        far = [
            node
            for node in topology.sensor_nodes()
            if routing.hop_count(node) >= REPORTER_MIN_HOPS
            and forwarding_mole not in routing.path_to_sink(node)
            and node != source_mole
        ]
        for node in spread_out(far, REPORTERS):
            sources.append(
                HonestReportSource(
                    node,
                    topology.position(node),
                    random.Random(f"{seed}:source:{node}"),
                )
            )

    pending: dict[int, list[MarkedPacket]] = {}
    batches: list[tuple[list[MarkedPacket], int]] = []
    for index in range(packets):
        source = sources[index % len(sources)]
        packet, delivering = forwarding.deliver(
            source.next_packet(timestamp=index), source.node_id
        )
        group = pending.setdefault(delivering, [])
        group.append(packet)
        if len(group) == batch_size:
            batches.append((group, delivering))
            pending[delivering] = []
    return WireInputs(
        topology=topology,
        master_secret=master_secret,
        batches=batches,
        moles=frozenset({source_mole, forwarding_mole}),
    )
