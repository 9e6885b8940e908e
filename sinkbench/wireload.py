"""The wire workloads: one client process, two loopback connections.

``SinkClient`` (ingest connection) → ``SinkServer`` → ``SinkIngestService``
→ ``TracebackSink``, all in one asyncio loop with ``workers=0``.  The
client runs a closed loop: it writes a batch, then a PING on the second
(probe) connection while that batch is in flight, and sends the next batch
only after both replies are back.  Each batch-plus-probe is one timed
interval, calibrated by the slice that follows it.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

from repro.crypto.keys import KeyStore
from repro.crypto.mac import HmacProvider
from repro.faults.attribution import DropAttribution, build_accusation_report
from repro.marking.pnm import PNMMarking
from repro.packets.packet import MarkedPacket
from repro.service.ingest import SinkIngestService
from repro.traceback.sink import TracebackSink
from repro.wire.client import SinkClient
from repro.wire.errors import WireError
from repro.wire.frames import FrameType, encode_frame
from repro.wire.messages import WireVerdict, encode_batch
from repro.wire.server import SinkServer

from inputs import MARK_PROB, WireInputs
from measure import Calibrator, SpanRecorder

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 15


@dataclass
class Stack:
    """One live sink stack and its two client connections."""

    sink: TracebackSink
    service: SinkIngestService
    server: SinkServer
    ingest: SinkClient
    probe: SinkClient

    async def close(self) -> None:
        await self.ingest.close()
        await self.probe.close()
        await self.server.close()
        self.service.close(drain=False)


def _scheme() -> PNMMarking:
    return PNMMarking(mark_prob=MARK_PROB)


async def build_stack(inputs: WireInputs, capacity: int) -> Stack:
    """Derive keys, build sink, service and server, listen, and PING once."""
    topology = inputs.topology
    keystore = KeyStore.from_master_secret(
        inputs.master_secret, topology.sensor_nodes()
    )
    scheme = _scheme()
    sink = TracebackSink(scheme, keystore, HmacProvider(), topology)
    service = SinkIngestService(sink, capacity=capacity, workers=0)
    server = SinkServer(service, scheme.fmt)
    await server.start()
    ingest = SinkClient("127.0.0.1", server.port, retries=0)
    probe = SinkClient("127.0.0.1", server.port, retries=0)
    await ingest.connect()
    await probe.connect()
    await probe.ping()
    return Stack(sink, service, server, ingest, probe)


async def _timed(coro):
    start = time.perf_counter()
    result = await coro
    return result, start, time.perf_counter()


@dataclass
class LoopResult:
    """Raw and calibrated figures of one closed-loop phase."""

    sent: list[tuple[list[MarkedPacket], int]] = field(default_factory=list)
    replies: list[WireVerdict] = field(default_factory=list)
    batch_ms: list[float] = field(default_factory=list)
    probe_ms: list[float] = field(default_factory=list)
    interval_ref_s: list[float] = field(default_factory=list)
    interval_wall_s: list[float] = field(default_factory=list)
    interval_pkts: list[int] = field(default_factory=list)
    batches: int = 0
    probes: int = 0
    rejected_batches: int = 0
    failed_probes: int = 0
    detect_pkts: int | None = None
    loop_wall_s: float = 0.0
    cal: Calibrator = field(default_factory=Calibrator)
    factors: list[float] = field(default_factory=list)


async def closed_loop(
    stack: Stack,
    batches: list[tuple[list[MarkedPacket], int]],
    ref_seconds: float,
    moles: frozenset[int],
    recorder: SpanRecorder | None = None,
    max_batches: int | None = None,
) -> LoopResult:
    """Send batches until ``ref_seconds`` of calibrated time are spent.

    With ``max_batches``, send exactly that many instead (the traced
    phase repeats the untraced phase's work).  The budget is counted in
    reference seconds so that a slow host does the same work as a fast
    one: on this workload each batch costs more as the sink's evidence
    grows, so a wall-clock budget would let host speed move the figures.

    A batch answered with an ERROR frame and a PING without its echo are
    failures; neither stops the loop.  ``detect_pkts`` is the count of
    accepted packets at the first reply from which every later reply's
    suspect neighbourhood holds a mole.
    """
    fmt = _scheme().fmt
    out = LoopResult()
    delivered = 0
    spent = 0.0
    start = time.perf_counter()
    out.cal.before()
    for packets, delivering in batches:
        if max_batches is None and spent >= ref_seconds:
            break
        if max_batches is not None and out.batches >= max_batches:
            break
        if recorder is not None:
            recorder.trace = out.batches
            root = recorder.open("bench.batch")
        t0 = time.perf_counter()
        send = asyncio.ensure_future(
            _timed(stack.ingest.send_batch(packets, delivering, fmt))
        )
        await asyncio.sleep(0)  # the batch frame is written before the PING
        ping = asyncio.ensure_future(_timed(stack.probe.ping()))
        send_result, ping_result = await asyncio.gather(
            send, ping, return_exceptions=True
        )
        wall = time.perf_counter() - t0
        if recorder is not None:
            recorder.close(root)
        out.batches += 1
        out.probes += 1
        ref = out.cal.after(wall)
        spent += ref
        factor = ref / wall
        out.factors.append(factor)
        out.interval_wall_s.append(wall)
        out.interval_ref_s.append(ref)
        for result in (send_result, ping_result):
            if isinstance(result, BaseException) and not isinstance(
                result, WireError
            ):
                raise result
        if isinstance(send_result, WireError):
            out.rejected_batches += 1
            out.interval_pkts.append(0)
        else:
            reply, sent_at, done_at = send_result
            out.sent.append((packets, delivering))
            out.replies.append(reply)
            out.batch_ms.append((done_at - sent_at) * factor * 1000.0)
            out.interval_pkts.append(len(packets))
            delivered += len(packets)
            caught = bool(moles & set(reply.suspect_members))
            if not caught:
                out.detect_pkts = None
            elif out.detect_pkts is None:
                out.detect_pkts = delivered
        if isinstance(ping_result, WireError):
            out.failed_probes += 1
        else:
            _, sent_at, done_at = ping_result
            out.probe_ms.append((done_at - sent_at) * factor * 1000.0)
    out.loop_wall_s = time.perf_counter() - start
    return out


def reference_verdicts(
    inputs: WireInputs,
    sent: list[tuple[list[MarkedPacket], int]],
    checkpoints: set[int],
) -> tuple[TracebackSink, dict[int, WireVerdict]]:
    """Serial in-process reference: ``TracebackSink.receive`` on the sent packets.

    Returns the sink after every sent batch and the verdict after each
    batch count in ``checkpoints``.
    """
    keystore = KeyStore.from_master_secret(
        inputs.master_secret, inputs.topology.sensor_nodes()
    )
    sink = TracebackSink(_scheme(), keystore, HmacProvider(), inputs.topology)
    verdicts: dict[int, WireVerdict] = {}
    for count, (packets, delivering) in enumerate(sent, start=1):
        for packet in packets:
            sink.receive(packet, delivering)
        if count in checkpoints:
            verdicts[count] = WireVerdict.from_verdict(sink.verdict())
    return sink, verdicts


def accusation_checks(
    sink: TracebackSink, moles: frozenset[int]
) -> dict[str, bool]:
    """The paper's guarantees on a reference sink's final verdict.

    ``mole_in_suspect``: a ground-truth mole lies in the suspect
    neighbourhood.  ``no_false_accusation``: the accusation built from the
    verdict (tamper evidence required, as in :mod:`repro.faults`) names
    no honest node outside the moles' one-hop neighbourhoods -- Theorem
    2's precision unit -- so the honest false-accusation rate is 0.0.
    """
    verdict = sink.verdict()
    suspect = verdict.suspect
    near = set(moles)
    for mole in moles:
        near |= sink.topology.closed_neighborhood(mole)
    report = build_accusation_report(
        verdict=verdict,
        tampered_packets=sink.tampered_packets,
        topology=sink.topology,
        attribution=DropAttribution(),
        moles=frozenset(near),
    )
    return {
        "mole_in_suspect": suspect is not None and bool(suspect.members & moles),
        "no_false_accusation": report.false_accusation_rate == 0.0,
    }


async def measure_setup(
    inputs: WireInputs, capacity: int
) -> tuple[list[float], list[float], Stack]:
    """Build :data:`SETUPS` stacks, timing each.

    Returns the reference and wall seconds of each set-up, and the last stack.
    """
    cal = Calibrator()
    cal.before()
    ref: list[float] = []
    wall: list[float] = []
    stack: Stack | None = None
    for _ in range(SETUPS):
        if stack is not None:
            await stack.close()
        t0 = time.perf_counter()
        stack = await build_stack(inputs, capacity)
        wall.append(time.perf_counter() - t0)
        ref.append(cal.after(wall[-1]))
    assert stack is not None
    return ref, wall, stack


def batch_frame_bytes(sent: list[tuple[list[MarkedPacket], int]]) -> int:
    """Bytes the server reads for these batches (frames as sent)."""
    fmt = _scheme().fmt
    return sum(
        len(encode_frame(FrameType.BATCH, encode_batch(packets, delivering, fmt)))
        for packets, delivering in sent
    )
