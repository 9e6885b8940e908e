"""The ``field-sim`` workload: an in-process deployment with watchdogs.

A 16x16 ``NetworkSimulation`` with a ``WatchdogLayer``.  A source mole
fabricates reports, a colluding forwarding mole on its path alters the
most upstream MAC, and 24 honest sources spread over the rest of
the field generate background traffic at six times the mole's rate in total.  Only reports claiming the
mole's region reach the sink (the Sec. 7 suspicious-traffic predicate),
so the wire and service layers are bypassed: the simulation calls
``TracebackSink.receive`` directly.

One timed interval is one simulated second followed by a verdict query,
calibrated by the slices around it.  The probe is the sink's busy time in
that interval: its ``receive`` calls plus the verdict query, which is how
long a query arriving with that second's traffic waits for an answer,
since the sink runs inline.  (The verdict query alone takes well under a
millisecond; calibration cannot hold so short a timing steady.)
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from repro.adversary.attacks import MarkAlteringAttack
from repro.adversary.moles import ForwardingMole
from repro.crypto.keys import KeyStore
from repro.crypto.mac import HmacProvider
from repro.marking.base import NodeContext
from repro.marking.pnm import PNMMarking
from repro.net.links import LinkModel
from repro.net.overhear import OverhearModel
from repro.net.topology import Topology, grid_topology
from repro.packets.packet import MarkedPacket
from repro.routing.tree import build_routing_tree
from repro.sim.behaviors import HonestForwarder
from repro.sim.network import NetworkSimulation
from repro.sim.sources import BogusReportSource, HonestReportSource
from repro.traceback.sink import TracebackSink
from repro.watchdog import WatchdogLayer

from inputs import mole_pair, spread_out
from measure import Calibrator, SpanRecorder

GRID_SIDE = 16
MOLE_HOPS = 12
MARK_PROB = 3.0 / (MOLE_HOPS - 1)
BACKGROUND_SOURCES = 24
#: Mole reports per simulated second; the background sources together
#: send six times as many.
MOLE_RATE = 20.0
BACKGROUND_FACTOR = 6.0
#: Reports whose claimed location lies within this distance of the mole
#: are suspicious and fed to the sink; background sources lie outside it.
REGION_RADIUS = 2.5
#: Traffic is scheduled for this many simulated seconds, more than any run uses.
HORIZON_S = 5000.0


class RecordingSink(TracebackSink):
    """A sink that keeps what it received and how long receiving took.

    ``received`` feeds the serial reference check; ``busy_s`` is the wall
    time spent inside :meth:`receive`.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.received: list[tuple[MarkedPacket, int]] = []
        self.busy_s = 0.0

    def receive(self, packet, delivering_node):
        self.received.append((packet, delivering_node))
        start = time.perf_counter()
        try:
            return super().receive(packet, delivering_node)
        finally:
            self.busy_s += time.perf_counter() - start


@dataclass
class Field:
    """A built deployment, ready to step."""

    net: NetworkSimulation
    sink: RecordingSink
    topology: Topology
    master_secret: bytes
    moles: frozenset[int]


def build_field(seed: int, watchdog: bool = True) -> Field:
    """Build the deployment for ``seed`` (this is what ``setup_s`` times)."""
    topology = grid_topology(GRID_SIDE, GRID_SIDE)
    routing = build_routing_tree(topology)
    master_secret = b"sinkbench-field-" + str(seed).encode()
    keystore = KeyStore.from_master_secret(master_secret, topology.sensor_nodes())
    provider = HmacProvider()
    scheme = PNMMarking(mark_prob=MARK_PROB)

    source_mole, forwarding_mole = mole_pair(topology, routing, MOLE_HOPS)
    region = topology.position(source_mole)

    def ctx(node: int) -> NodeContext:
        return NodeContext(
            node_id=node,
            key=keystore[node],
            provider=provider,
            rng=random.Random(f"{seed}:node:{node}"),
        )

    behaviors: dict[int, HonestForwarder | ForwardingMole] = {
        node: HonestForwarder(ctx(node), scheme) for node in topology.sensor_nodes()
    }
    behaviors[forwarding_mole] = ForwardingMole(
        ctx(forwarding_mole), scheme, MarkAlteringAttack(target="first", field="mac")
    )

    def suspicious(packet: MarkedPacket) -> bool:
        x, y = packet.report.location
        return (x - region[0]) ** 2 + (y - region[1]) ** 2 <= REGION_RADIUS**2

    sink = RecordingSink(scheme, keystore, provider, topology)
    layer = (
        WatchdogLayer(
            OverhearModel(topology), rng=random.Random(f"{seed}:watchdog")
        )
        if watchdog
        else None
    )
    net = NetworkSimulation(
        topology=topology,
        routing=routing,
        behaviors=behaviors,
        sink=sink,
        link=LinkModel(base_delay=0.001),
        rng=random.Random(f"{seed}:links"),
        suspicious=suspicious,
        watchdog=layer,
    )
    net.add_periodic_source(
        BogusReportSource(source_mole, region, random.Random(f"{seed}:mole")),
        interval=1.0 / MOLE_RATE,
        count=int(HORIZON_S * MOLE_RATE),
    )
    outside = [
        node
        for node in topology.sensor_nodes()
        if topology.distance(node, source_mole) > REGION_RADIUS
        and node not in (source_mole, forwarding_mole)
    ]
    background_interval = BACKGROUND_SOURCES / (BACKGROUND_FACTOR * MOLE_RATE)
    for index, node in enumerate(spread_out(outside, BACKGROUND_SOURCES)):
        net.add_periodic_source(
            HonestReportSource(
                node, topology.position(node), random.Random(f"{seed}:src:{node}")
            ),
            interval=background_interval,
            count=int(HORIZON_S / background_interval),
            start=background_interval * index / BACKGROUND_SOURCES,
        )
    return Field(
        net=net,
        sink=sink,
        topology=topology,
        master_secret=master_secret,
        moles=frozenset({source_mole, forwarding_mole}),
    )


@dataclass
class FieldResult:
    """Raw and calibrated figures of one field-sim phase."""

    interval_ms: list[float] = field(default_factory=list)
    probe_ms: list[float] = field(default_factory=list)
    interval_ref_s: list[float] = field(default_factory=list)
    interval_wall_s: list[float] = field(default_factory=list)
    interval_pkts: list[int] = field(default_factory=list)
    factors: list[float] = field(default_factory=list)
    intervals: int = 0
    detect_pkts: int | None = None
    loop_wall_s: float = 0.0
    cal: Calibrator = field(default_factory=Calibrator)


def run_field(
    built: Field,
    ref_seconds: float,
    recorder: SpanRecorder | None = None,
    intervals: int | None = None,
) -> FieldResult:
    """Step one simulated second at a time until the budget is spent.

    The budget is ``ref_seconds`` of calibrated time, or exactly
    ``intervals`` simulated seconds when given.
    """
    net = built.net
    out = FieldResult()
    spent = 0.0
    start = time.perf_counter()
    out.cal.before()
    while (spent < ref_seconds) if intervals is None else (out.intervals < intervals):
        if recorder is not None:
            recorder.trace = out.intervals
            root = recorder.open("bench.interval")
        delivered_before = len(net.delivered)
        busy_before = built.sink.busy_s
        t0 = time.perf_counter()
        net.sim.run(until=float(out.intervals + 1))
        t1 = time.perf_counter()
        verdict = built.sink.verdict()
        t2 = time.perf_counter()
        if recorder is not None:
            recorder.close(root)
        ref = out.cal.after(t2 - t0)
        factor = ref / (t2 - t0)
        out.factors.append(factor)
        out.intervals += 1
        spent += ref
        out.interval_wall_s.append(t2 - t0)
        out.interval_ref_s.append(ref)
        out.interval_ms.append((t1 - t0) * factor * 1000.0)
        busy = built.sink.busy_s - busy_before + (t2 - t1)
        out.probe_ms.append(busy * factor * 1000.0)
        out.interval_pkts.append(len(net.delivered) - delivered_before)
        suspect = verdict.suspect
        if suspect is None or not (suspect.members & built.moles):
            out.detect_pkts = None
        elif out.detect_pkts is None:
            out.detect_pkts = built.sink.packets_received
    out.loop_wall_s = time.perf_counter() - start
    return out
