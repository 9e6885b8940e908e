"""Property: the ingest service is observationally identical to the sink.

For any packet stream — arbitrary path lengths, arbitrary per-packet mark
tampering — feeding the packets through ``SinkIngestService`` (with the
resolver cache, drained in batches of any size) must produce
byte-identical results to calling ``TracebackSink.receive`` serially:
same ``TracebackVerdict``, same precedence edge set, same per-packet
accounting.  This is the contract that makes the service a drop-in
replacement rather than an approximation.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.keys import KeyStore
from repro.crypto.mac import HmacProvider
from repro.marking.pnm import PNMMarking
from repro.net.topology import linear_path_topology
from repro.packets.packet import MarkedPacket
from repro.packets.report import Report
from repro.service import SinkIngestService
from repro.traceback.sink import TracebackSink
from tests.conftest import mark_through_path

PROVIDER = HmacProvider()
SCHEME = PNMMarking(mark_prob=1.0)


def tampered(packet: MarkedPacket, mark_index: int) -> MarkedPacket:
    """Corrupt one mark's MAC, as a forwarding mole would."""
    marks = list(packet.marks)
    mark = marks[mark_index]
    marks[mark_index] = mark.__class__(
        id_field=mark.id_field,
        mac=bytes([mark.mac[0] ^ 0x5A]) + mark.mac[1:],
    )
    return packet.with_marks(tuple(marks))


@st.composite
def packet_streams(draw):
    """A linear deployment plus a stream of (possibly tampered) packets."""
    n_forwarders = draw(st.integers(min_value=2, max_value=5))
    topology, _source = linear_path_topology(n_forwarders)
    store = KeyStore.from_master_secret(b"prop-svc", topology.sensor_nodes())
    forwarders = list(range(1, n_forwarders + 1))

    count = draw(st.integers(min_value=1, max_value=8))
    packets = []
    for t in range(count):
        packet = MarkedPacket(
            report=Report(event=b"prop", location=(5.0, 5.0), timestamp=t)
        )
        packet = mark_through_path(SCHEME, store, PROVIDER, forwarders, packet)
        tamper_at = draw(
            st.one_of(
                st.none(),
                st.integers(min_value=0, max_value=n_forwarders - 1),
            )
        )
        if tamper_at is not None:
            packet = tampered(packet, tamper_at)
        packets.append(packet)
    return topology, store, packets, n_forwarders


def assert_matches_serial(sink, serial, verdict):
    assert verdict == serial.verdict()
    assert set(sink.precedence.to_networkx().edges) == set(
        serial.precedence.to_networkx().edges
    )
    assert sink.packets_received == serial.packets_received
    assert sink.tampered_packets == serial.tampered_packets
    assert sink.chains_with_marks == serial.chains_with_marks


class TestServiceEquivalence:
    @given(scenario=packet_streams())
    @settings(max_examples=25, deadline=None)
    def test_service_matches_serial_sink(self, scenario):
        topology, store, packets, n_forwarders = scenario
        delivering = n_forwarders

        serial = TracebackSink(SCHEME, store, PROVIDER, topology)
        for packet in packets:
            serial.receive(packet, delivering)

        sink = TracebackSink(SCHEME, store, PROVIDER, topology)
        service = SinkIngestService(sink, capacity=len(packets))
        try:
            for packet in packets:
                assert service.submit(packet, delivering)
            verdict = service.verdict()
        finally:
            service.close()

        assert_matches_serial(sink, serial, verdict)
        assert service.stats().processed == len(packets)

    @given(
        scenario=packet_streams(),
        batch=st.integers(min_value=1, max_value=9),
        interleave=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_any_batch_boundaries_match_serial_sink(
        self, scenario, batch, interleave
    ):
        """Draining via ``process_batch(max_packets=k)`` for any ``k``.

        With ``interleave`` a batch drains after every submit, so batches
        straddle the arrival stream; otherwise the whole stream queues
        first and drains in ``k``-sized slices.
        """
        topology, store, packets, n_forwarders = scenario
        delivering = n_forwarders

        serial = TracebackSink(SCHEME, store, PROVIDER, topology)
        for packet in packets:
            serial.receive(packet, delivering)

        sink = TracebackSink(SCHEME, store, PROVIDER, topology)
        service = SinkIngestService(sink, capacity=len(packets))
        batches = 0
        try:
            for packet in packets:
                assert service.submit(packet, delivering)
                if interleave and service.process_batch(max_packets=batch):
                    batches += 1
            while service.process_batch(max_packets=batch):
                batches += 1
            stats = service.stats()
            verdict = sink.verdict()
        finally:
            service.close()

        assert_matches_serial(sink, serial, verdict)
        assert stats.processed == stats.accepted == len(packets)
        assert stats.batches == batches
        assert stats.queue["taken"] == len(packets)
        assert stats.verify_latency["count"] == len(packets)
        if not interleave:
            assert batches == -(-len(packets) // batch)
