"""Traceback under churn: delivery, repair, and false accusations.

The paper's guarantees are proved for a static network (Section 2.1).
This sweep quantifies what survives when the network churns: nodes crash
and recover on a seeded schedule (:mod:`repro.faults`), routes repair
around dead hops, and the sink must not mistake benign drop sites for
moles.

For each churn rate the sweep runs the same grid workload twice:

* **honest** -- every node runs the protocol faithfully.  Reported:
  delivery ratio, packets killed by faults, route repairs, and the
  honest-node **false-accusation rate** from
  :func:`repro.faults.attribution.accusation_report`.  Benign faults
  cannot forge MACs and every drop site is fault-explained, so this rate
  must be exactly 0.0 at every churn rate -- the claim the property
  suite (``tests/test_properties/test_faults_precision.py``) fuzzes.
* **mole** -- one mid-path forwarder runs a mark-altering attack
  (invalid MACs: tamper evidence).  Reported: whether the sink still
  identifies a suspect and whether the suspect neighborhood contains the
  mole (the paper's one-hop localization), plus the false-accusation
  rate with the mole excluded from the honest set.

The deployment itself is :func:`run_churn`, which ``algebraic-sweep``
shares with its own topology, schemes and convergence probe.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass

from repro.adversary.attacks import Attack, MarkAlteringAttack
from repro.adversary.moles import ForwardingMole
from repro.crypto.keys import KeyStore
from repro.crypto.mac import HmacProvider
from repro.experiments.presets import QUICK, Preset
from repro.experiments.tables import FigureResult
from repro.faults import FaultInjector, FaultSchedule, accusation_report, attribute_drops
from repro.marking.base import MarkingScheme, NodeContext
from repro.marking.pnm import PNMMarking
from repro.net.links import LinkModel
from repro.net.topology import Topology, grid_topology
from repro.routing.repair import RepairingRoutingTable
from repro.sim.behaviors import HonestForwarder
from repro.sim.metrics import MetricsCollector
from repro.sim.network import NetworkSimulation
from repro.sim.sources import HonestReportSource
from repro.obs.profiling import get_default_provider
from repro.sim.tracing import PacketTracer
from repro.traceback.sink import TracebackSink

__all__ = ["run", "run_churn", "ChurnOutcome", "CHURN_RATES"]

#: Crash events per sensor per unit virtual time, swept low to high.
CHURN_RATES = (0.0, 0.05, 0.15, 0.3)

# (grid side, packets injected) per preset.
_WORKLOADS = {"ci": (4, 40), "quick": (5, 100), "full": (6, 240)}

_INTERVAL = 0.05  # seconds between injections
_MASTER = b"faults-sweep-master"


@dataclass(frozen=True)
class ChurnOutcome:
    """What one churned deployment produced (see :func:`run_churn`)."""

    delivery_ratio: float
    faulted: int
    repairs: int
    crashes: int
    false_rate: float
    identified: bool
    localized: bool
    ingest: object | None


def run_churn(
    topology: Topology,
    keystore: KeyStore,
    scheme: MarkingScheme,
    sink: TracebackSink,
    *,
    packets: int,
    churn_rate: float,
    seed: int,
    rng_prefix: str,
    node_rng_prefix: str,
    attack: Attack | None = None,
    ingest: Callable[[RepairingRoutingTable, int], object] | None = None,
) -> ChurnOutcome:
    """One simulated deployment under one churn rate, on repairing routes.

    The injector is the sensor farthest from the sink; it sends
    ``packets`` reports while a seeded crash/recover schedule churns every
    other node.  With ``attack`` set, the forwarder halfway along the
    injector's initial route runs it as a mole.  ``ingest`` builds the
    simulator's ingest adapter from the routing table and the injector's
    id (``None`` delivers straight to ``sink``); the built adapter comes
    back as :attr:`ChurnOutcome.ingest`.

    Random streams are named ``{node_rng_prefix}:{node}`` per node and
    ``{rng_prefix}:link|churn|src:...`` for the rest, so a sweep's
    streams, and therefore its table, do not depend on the other sweeps
    sharing this runner.
    """
    routing = RepairingRoutingTable(topology)
    provider = HmacProvider()
    source_id = max(
        topology.sensor_nodes(), key=lambda node: (routing.hop_count(node), node)
    )
    path = routing.path_to_sink(source_id)
    mole_id = path[len(path) // 2] if attack is not None else None

    def ctx(node_id: int) -> NodeContext:
        return NodeContext(
            node_id=node_id,
            key=keystore[node_id],
            provider=provider,
            rng=random.Random(f"{node_rng_prefix}:{node_id}"),
        )

    behaviors: dict[int, object] = {
        nid: HonestForwarder(ctx(nid), scheme) for nid in topology.sensor_nodes()
    }
    if mole_id is not None:
        behaviors[mole_id] = ForwardingMole(ctx(mole_id), scheme, attack)

    adapter = ingest(routing, source_id) if ingest is not None else None
    # The span bridge engages only under an observed run (``--obs-dir``);
    # the NOOP provider carries no tracer, so spans stay off by default.
    tracer = PacketTracer(spans=get_default_provider().tracer)
    sim = NetworkSimulation(
        topology=topology,
        routing=routing,
        behaviors=behaviors,
        sink=sink,
        link=LinkModel(base_delay=0.001),
        rng=random.Random(f"{rng_prefix}:link:{seed}"),
        metrics=MetricsCollector(),
        tracer=tracer,
        ingest=adapter,
    )

    duration = packets * _INTERVAL
    protect = {source_id} | ({mole_id} if mole_id is not None else set())
    schedule = FaultSchedule.random_churn(
        topology,
        rate=churn_rate,
        duration=duration,
        rng=random.Random(f"{rng_prefix}:churn:{seed}:{churn_rate}"),
        protect=protect,
    )
    injector = FaultInjector(sim, schedule)
    injector.arm()

    source = HonestReportSource(
        source_id,
        topology.position(source_id),
        random.Random(f"{rng_prefix}:src:{seed}"),
    )
    sim.add_periodic_source(source, interval=_INTERVAL, count=packets)
    sim.run()

    attribution = attribute_drops(tracer, injector)
    moles = frozenset({mole_id}) if mole_id is not None else frozenset()
    report = accusation_report(sink, attribution, moles=moles)

    verdict = sink.verdict()
    localized = (
        mole_id is not None
        and verdict.identified
        and verdict.suspect is not None
        and mole_id in verdict.suspect.members
    )
    return ChurnOutcome(
        delivery_ratio=sim.metrics.delivery_ratio(),
        faulted=sim.metrics.packets_faulted,
        repairs=attribution.repairs,
        crashes=injector.counts().get("crash", 0),
        false_rate=report.false_accusation_rate,
        identified=verdict.identified,
        localized=localized,
        ingest=adapter,
    )


def _run_once(
    grid_side: int,
    packets: int,
    churn_rate: float,
    seed: int,
    mole: bool,
) -> ChurnOutcome:
    """One PNM deployment on the 8-neighborhood grid under one churn rate."""
    topology = grid_topology(grid_side, grid_side, sink_at="corner")
    keystore = KeyStore.from_master_secret(_MASTER, topology.sensor_nodes())
    scheme = PNMMarking(mark_prob=0.5)
    sink = TracebackSink(scheme, keystore, HmacProvider(), topology)
    return run_churn(
        topology,
        keystore,
        scheme,
        sink,
        packets=packets,
        churn_rate=churn_rate,
        seed=seed,
        rng_prefix="faults",
        node_rng_prefix=f"faults:{seed}",
        attack=MarkAlteringAttack(target="first", field="mac") if mole else None,
    )


def run(preset: Preset = QUICK) -> FigureResult:
    """Sweep churn rates; tabulate delivery, repair, and accusation outcomes."""
    grid_side, packets = _WORKLOADS[preset.name]
    rows = []
    all_honest_clean = True
    for rate in CHURN_RATES:
        honest = _run_once(grid_side, packets, rate, preset.seed, mole=False)
        attacked = _run_once(grid_side, packets, rate, preset.seed, mole=True)
        all_honest_clean = all_honest_clean and honest.false_rate == 0.0
        rows.append(
            [
                rate,
                honest.crashes,
                round(honest.delivery_ratio, 3),
                honest.faulted,
                honest.repairs,
                round(honest.false_rate, 3),
                attacked.identified,
                attacked.localized,
                round(attacked.false_rate, 3),
            ]
        )
    notes = [
        f"preset={preset.name}; {grid_side}x{grid_side} grid, {packets} packets "
        f"per run, PNM mark_prob=0.5, repairing routes (retry+backoff)",
        "honest runs: benign churn only -- false-accusation rate must be 0.0 "
        f"at every rate (observed: {'yes' if all_honest_clean else 'NO'})",
        "mole runs: one mid-path mark-altering mole; 'localized' means the "
        "suspect neighborhood contains the mole (one-hop precision)",
    ]
    return FigureResult(
        figure_id="faults-sweep",
        title="Traceback under churn: delivery, repair, false accusations",
        columns=[
            "churn_rate",
            "crashes",
            "delivery_ratio",
            "faulted",
            "repairs",
            "false_acc_rate",
            "mole_identified",
            "mole_localized",
            "false_acc_rate_mole",
        ],
        rows=rows,
        notes=notes,
    )
