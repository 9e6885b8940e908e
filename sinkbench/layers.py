"""Per-layer tracing: which public calls are wrapped, and what they yield.

The traced run replaces layer entry points with timing wrappers from
this file (no span code lives in the program), runs the workload, and
restores them.  Each wrapped call becomes a span; HMAC calls are too many
to keep one by one, so they are counted and timed as leaves of the span
that made them.
"""

from __future__ import annotations

import repro.wire.client as wire_client
import repro.wire.server as wire_server
from repro.crypto.mac import HmacProvider
from repro.marking.base import MarkingScheme
from repro.marking.pnm import PNMMarking
from repro.service.ingest import SinkIngestService
from repro.sim.engine import Simulator
from repro.traceback.sink import TracebackSink
from repro.traceback.verify import PacketVerifier
from repro.wire.frames import FrameDecoder

from measure import SpanRecorder, self_times

#: ``(owner, attribute, span name)`` wrapped on every workload.
SINK_CALLS = [
    (PNMMarking, "build_resolution_table", "marking.table"),
    (PacketVerifier, "verify", "traceback.verify"),
    (TracebackSink, "ingest", "traceback.ingest"),
    (TracebackSink, "verdict", "traceback.verdict"),
]
#: Wrapped only on the wire workloads.
WIRE_CALLS = [
    (SinkIngestService, "submit_batch", "service.admit"),
    (SinkIngestService, "flush", "service.flush"),
    (wire_server, "decode_batch", "wire.decode"),
    (wire_server, "encode_verdict", "wire.reply_encode"),
    (wire_server, "encode_frame", "wire.frame"),
    (wire_client, "encode_batch", "wire.frame"),
    (wire_client, "encode_frame", "wire.frame"),
    (wire_client, "decode_verdict", "wire.frame"),
    (FrameDecoder, "feed", "wire.frame"),
]
#: Wrapped only on field-sim.
SIM_CALLS = [
    (Simulator, "run", "sim.run"),
    (TracebackSink, "receive", "traceback.receive"),
    (MarkingScheme, "on_forward", "marking.on_forward"),
]
HMAC_LEAF = "crypto.hmac"


def install(recorder: SpanRecorder, wire: bool) -> None:
    """Wrap the layer calls a workload makes (undo with ``recorder.restore``)."""
    for owner, attr, name in SINK_CALLS + (WIRE_CALLS if wire else SIM_CALLS):
        recorder.wrap(owner, attr, name)
    recorder.wrap(HmacProvider, "mac", HMAC_LEAF, leaf=True)
    recorder.wrap(HmacProvider, "anon_id", HMAC_LEAF, leaf=True)


class Breakdown:
    """Calibrated per-span-name totals of a traced phase.

    ``factors[trace]`` scales the spans of root ``trace`` from wall to
    reference seconds (the factor of the interval they ran in).
    """

    def __init__(self, recorder: SpanRecorder, factors: list[float]):
        spans = recorder.spans
        selfs = self_times(spans)
        self.count: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.leaf_s = 0.0
        self.root_s = 0.0
        self.root_self_s = 0.0
        self.raw_root_s = 0.0
        for span, own in zip(spans, selfs, strict=True):
            factor = factors[span.trace]
            duration = (span.end - span.start) * factor
            self.count[span.name] = self.count.get(span.name, 0) + 1
            self.total_s[span.name] = self.total_s.get(span.name, 0.0) + duration
            self.self_s[span.name] = self.self_s.get(span.name, 0.0) + own * factor
            self.leaf_s += span.leaf_s * factor
            if span.parent is None:
                self.root_s += duration
                self.root_self_s += own * factor
                self.raw_root_s += span.end - span.start
        self.hmac_calls = recorder.counts.get(HMAC_LEAF, 0)

    def n(self, name: str) -> int:
        return self.count.get(name, 0)

    def total(self, name: str) -> float:
        return self.total_s.get(name, 0.0)

    def share(self, name: str) -> float:
        """Inclusive time of ``name`` calls as a share of traced wall time."""
        return self.total(name) / self.root_s

    @property
    def coverage(self) -> float:
        """Share of the roots' time that wrapped calls cover."""
        return 1.0 - self.root_self_s / self.root_s


def per_call(total: float, calls: int, scale: float) -> float:
    """``total`` seconds over ``calls``, in units of ``1/scale`` seconds (0 if none)."""
    return total * scale / calls if calls else 0.0


def layer_metrics(b: Breakdown, pkts: int, batches: int) -> dict[str, float]:
    """The per-layer metrics every workload reports (0 where a layer is idle)."""
    us, ms = 1e6, 1e3
    return {
        "crypto.hmac_calls_per_pkt": b.hmac_calls / pkts,
        "crypto.hmac_us_per_call": per_call(b.leaf_s, b.hmac_calls, us),
        "crypto.share": b.leaf_s / b.root_s,
        "marking.table_builds_per_pkt": b.n("marking.table") / pkts,
        "marking.table_ms_per_build": per_call(
            b.total("marking.table"), b.n("marking.table"), ms
        ),
        "marking.table_share": b.share("marking.table"),
        "marking.on_forward_us": per_call(
            b.total("marking.on_forward"), b.n("marking.on_forward"), us
        ),
        "marking.on_forward_share": b.share("marking.on_forward"),
        "traceback.verify_us_per_pkt": b.total("traceback.verify") * us / pkts,
        "traceback.verify_share": b.share("traceback.verify"),
        "traceback.ingest_us_per_pkt": b.total("traceback.ingest") * us / pkts,
        "traceback.receive_share": b.share("traceback.receive"),
        "traceback.verdict_ms_per_call": per_call(
            b.total("traceback.verdict"), b.n("traceback.verdict"), ms
        ),
        "traceback.verdict_calls": float(b.n("traceback.verdict")),
        "traceback.verdict_share": b.share("traceback.verdict"),
        "service.admit_us_per_batch": per_call(
            b.total("service.admit"), batches if b.n("service.admit") else 0, us
        ),
        "service.flush_ms_per_batch": per_call(
            b.total("service.flush"), batches if b.n("service.flush") else 0, ms
        ),
        "service.self_share": (
            b.self_s.get("service.admit", 0.0) + b.self_s.get("service.flush", 0.0)
        )
        / b.root_s,
        "wire.decode_us_per_pkt": b.total("wire.decode") * us / pkts,
        "wire.reply_encode_us": per_call(
            b.total("wire.reply_encode"), b.n("wire.reply_encode"), us
        ),
        "wire.codec_share": (
            b.total("wire.decode") + b.total("wire.reply_encode") + b.total("wire.frame")
        )
        / b.root_s,
        "sim.self_ms_per_pkt": b.self_s.get("sim.run", 0.0) * ms / pkts,
        "sim.self_share": b.self_s.get("sim.run", 0.0) / b.root_s,
        "trace.coverage": b.coverage,
    }
