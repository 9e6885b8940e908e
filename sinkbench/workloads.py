"""The three workloads: run one, check it, and name its metrics.

Each ``run_*`` function returns an :class:`Outcome` whose ``metrics`` use
the names declared in ``BENCHMARK.json``: the end-to-end set for an
untraced run, the per-layer set for a traced one.  Every timing is in
reference seconds (see :mod:`measure`); raw wall-clock figures go to
``Outcome.log`` only.

A traced run has an untraced phase first, then repeats the same work with
the layer calls wrapped, so the difference between the two is the tracing
overhead.  ``field-sim`` adds a third traced phase without the watchdog
layer, whose cost is the difference.
"""

from __future__ import annotations

import asyncio
import gc
import time
from dataclasses import dataclass, field
from statistics import median

from repro.crypto.keys import KeyStore
from repro.crypto.mac import HmacProvider
from repro.traceback.sink import TracebackSink
from repro.wire.messages import WireVerdict

import fieldsim
import layers
import wireload
from inputs import build_wire_inputs
from measure import Calibrator, Span, SpanRecorder, peak_rss_mb, percentile

WIRE_WORKLOADS = {
    # name: (batch size, packets generated per reference second of budget)
    "mole-hunt": (32, 2500),
    "many-reporters": (4, 1500),
}
#: Ingest queue bound of the benchmarked service: room for several batches.
QUEUE_CAPACITY = 1024
#: The traced run fails when wrapped calls cover less of the traced time.
MIN_COVERAGE = 0.9


@dataclass
class Outcome:
    """What one run produced."""

    checks: dict[str, bool]
    attempted: int
    failed: int
    metrics: dict[str, float]
    log: dict[str, object] = field(default_factory=dict)
    spans: list[Span] = field(default_factory=list)


def _timing_metrics(
    pkts: int, ref_s: float, batch_ms: list[float], probe_ms: list[float]
) -> tuple[dict[str, float], dict[str, int]]:
    """The end-to-end timings, and the sample count behind each percentile."""
    metrics = {"pkts_per_s": pkts / ref_s}
    samples = {}
    for prefix, values in (("batch", batch_ms), ("probe", probe_ms)):
        for pct in (50, 90):
            name = f"{prefix}_p{pct}_ms"
            metrics[name], samples[name] = percentile(values, pct)
    return metrics, samples


def _raw_log(cal: Calibrator, wall_s: list[float], pkts: list[int], loop_wall: float):
    return {
        "raw_pkts_per_s": sum(pkts) / sum(wall_s),
        "raw_interval_p50_ms": median(wall_s) * 1e3,
        "cal_ops_per_s_median": median(cal.rates),
        "cal_ops_per_s_min": min(cal.rates),
        "cal_ops_per_s_max": max(cal.rates),
        "cal_share": cal.slice_s / loop_wall,
        "intervals": len(wall_s),
        "loop_wall_s": loop_wall,
    }


# Wire workloads -------------------------------------------------------------


def tally(phases: list[wireload.LoopResult], mismatches: int) -> tuple[int, int]:
    """``(attempted, failed)`` operations over closed-loop phases.

    Each batch, each probe and each phase's final verdict check is one
    operation; a rejected batch, a probe without its echo and a verdict
    that differs from the serial reference are the failures.
    """
    attempted = sum(p.batches + p.probes for p in phases) + len(phases)
    failed = sum(p.rejected_batches + p.failed_probes for p in phases) + mismatches
    return attempted, failed


def run_wire(name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    """``mole-hunt`` or ``many-reporters`` through the loopback sink stack."""
    batch_size, pool_rate = WIRE_WORKLOADS[name]
    inputs = build_wire_inputs(name, seed, int(seconds * pool_rate), batch_size)
    # The packet pool is the load generator's, not the server's: keep the
    # collector from rescanning it during the timed loop.
    gc.collect()
    gc.freeze()
    return asyncio.run(_run_wire(inputs, seconds, trace))


async def _run_wire(inputs, seconds: float, trace: bool) -> Outcome:
    setup_ref, setup_wall, stack = await wireload.measure_setup(
        inputs, QUEUE_CAPACITY
    )
    budget = seconds / 2 if trace else seconds
    try:
        loop = await wireload.closed_loop(stack, inputs.batches, budget, inputs.moles)
    finally:
        await stack.close()
    rss = peak_rss_mb()
    phases = [loop]
    recorder = None
    if trace:
        stack = await wireload.build_stack(inputs, QUEUE_CAPACITY)
        recorder = SpanRecorder()
        layers.install(recorder, wire=True)
        try:
            traced = await wireload.closed_loop(
                stack,
                inputs.batches,
                budget,
                inputs.moles,
                recorder=recorder,
                max_batches=loop.batches,
            )
        finally:
            recorder.restore()
            await stack.close()
        phases.append(traced)

    # Checks, outside every timed section.
    # Phases send the same batches in the same order, so one serial pass
    # over the longest stream checks every phase at its own length.
    longest = max((phase.sent for phase in phases), key=len)
    reference, verdicts = wireload.reference_verdicts(
        inputs, longest, {len(phase.sent) for phase in phases}
    )
    checks = wireload.accusation_checks(reference, inputs.moles)
    mismatches = 0
    for phase in phases:
        final = phase.replies[-1] if phase.replies else None
        same_stream = phase.sent == longest[: len(phase.sent)]
        if not same_stream or final is None or final != verdicts[len(phase.sent)]:
            mismatches += 1
    checks["verdict_matches_serial"] = mismatches == 0
    attempted, failed = tally(phases, mismatches)
    log = _raw_log(loop.cal, loop.interval_wall_s, loop.interval_pkts, loop.loop_wall_s)
    log.update(
        batches=loop.batches,
        pool_exhausted=loop.batches == len(inputs.batches),
        detect_pkts=loop.detect_pkts,
        error_rate=failed / attempted,
        setup_wall_s=setup_wall,
    )

    if not trace:
        metrics, samples = _timing_metrics(
            sum(loop.interval_pkts), sum(loop.interval_ref_s), loop.batch_ms, loop.probe_ms
        )
        metrics["setup_s"] = median(setup_ref)
        metrics["rss_mb"] = rss
        log["samples"] = samples
        return Outcome(checks, attempted, failed, metrics, log)

    assert recorder is not None
    traced = phases[1]
    pkts = sum(traced.interval_pkts)
    breakdown = layers.Breakdown(recorder, traced.factors)
    metrics = layers.layer_metrics(breakdown, pkts, traced.batches)
    cache = stack.service.cache.stats() if stack.service.cache is not None else {}
    metrics.update(
        {
            "traceback.fallbacks_per_pkt": stack.sink.fallback_searches / pkts,
            "traceback.detect_pkts": float(traced.detect_pkts or 0),
            "service.hot_hit_rate": cache.get("hot_hit_rate", 0.0),
            "service.table_hit_rate": cache.get("table_hit_rate", 0.0),
            "service.shed_batches": float(traced.rejected_batches),
            "wire.bytes_rx_per_pkt": wireload.batch_frame_bytes(traced.sent) / pkts,
            "wire.frames_rx": float(traced.batches + traced.probes),
            "sim.events_per_pkt": 0.0,
            "watchdog.cost_share": 0.0,
            "bench.cal_ops_per_s": median(traced.cal.rates),
            "bench.cal_share": loop.cal.slice_s / loop.loop_wall_s,
            "bench.trace_overhead": sum(traced.interval_ref_s)
            / sum(loop.interval_ref_s)
            - 1.0,
        }
    )
    checks["trace_coverage"] = breakdown.coverage >= MIN_COVERAGE
    log["traced_raw_root_s"] = breakdown.raw_root_s
    return Outcome(checks, attempted, failed, metrics, log, recorder.spans)


# field-sim ------------------------------------------------------------------


def _field_setup(seed: int) -> tuple[list[float], list[float], fieldsim.Field]:
    """Build the deployment :data:`wireload.SETUPS` times, timing each."""
    cal = Calibrator()
    cal.before()
    ref: list[float] = []
    wall: list[float] = []
    built = None
    for _ in range(wireload.SETUPS):
        t0 = time.perf_counter()
        built = fieldsim.build_field(seed)
        wall.append(time.perf_counter() - t0)
        ref.append(cal.after(wall[-1]))
    assert built is not None
    return ref, wall, built


def _field_checks(built: fieldsim.Field) -> tuple[dict[str, bool], int]:
    """Serial reference on the packets the simulated sink received."""
    keystore = KeyStore.from_master_secret(
        built.master_secret, built.topology.sensor_nodes()
    )
    reference = TracebackSink(
        built.sink.verifier.scheme, keystore, HmacProvider(), built.topology
    )
    for packet, delivering in built.sink.received:
        reference.receive(packet, delivering)
    checks = wireload.accusation_checks(reference, built.moles)
    match = WireVerdict.from_verdict(reference.verdict()) == WireVerdict.from_verdict(
        built.sink.verdict()
    )
    checks["verdict_matches_serial"] = match
    return checks, 0 if match else 1


def run_field(seed: int, seconds: float, trace: bool) -> Outcome:
    """``field-sim``: the in-process deployment with the watchdog layer."""
    setup_ref, setup_wall, built = _field_setup(seed)
    budget = seconds / 3 if trace else seconds
    gc.collect()
    gc.freeze()
    run = fieldsim.run_field(built, budget)
    rss = peak_rss_mb()
    checks, mismatches = _field_checks(built)
    attempted = 2 * run.intervals + 1
    log = _raw_log(run.cal, run.interval_wall_s, run.interval_pkts, run.loop_wall_s)
    log.update(detect_pkts=run.detect_pkts, setup_wall_s=setup_wall)

    if not trace:
        metrics, samples = _timing_metrics(
            sum(run.interval_pkts), sum(run.interval_ms) / 1e3, run.interval_ms, run.probe_ms
        )
        metrics["setup_s"] = median(setup_ref)
        metrics["rss_mb"] = rss
        log.update(samples=samples, error_rate=mismatches / attempted)
        return Outcome(checks, attempted, mismatches, metrics, log)

    phases = {}
    for label, watchdog in (("traced", True), ("no_watchdog", False)):
        again = fieldsim.build_field(seed, watchdog=watchdog)
        gc.collect()
        gc.freeze()
        recorder = SpanRecorder()
        layers.install(recorder, wire=False)
        try:
            result = fieldsim.run_field(
                again, budget, recorder=recorder, intervals=run.intervals
            )
        finally:
            recorder.restore()
        phase_checks, phase_mismatches = _field_checks(again)
        for key, ok in phase_checks.items():
            checks[key] = checks[key] and ok
        mismatches += phase_mismatches
        attempted += 2 * result.intervals + 1
        phases[label] = (again, result, recorder)

    built, traced, recorder = phases["traced"]
    no_wd = phases["no_watchdog"][1]
    pkts = sum(traced.interval_pkts)
    breakdown = layers.Breakdown(recorder, traced.factors)
    metrics = layers.layer_metrics(breakdown, pkts, traced.intervals)
    metrics.update(
        {
            "traceback.fallbacks_per_pkt": built.sink.fallback_searches / pkts,
            "traceback.detect_pkts": float(traced.detect_pkts or 0),
            "service.hot_hit_rate": 0.0,
            "service.table_hit_rate": 0.0,
            "service.shed_batches": 0.0,
            "wire.bytes_rx_per_pkt": 0.0,
            "wire.frames_rx": 0.0,
            "sim.events_per_pkt": built.net.sim.events_processed / pkts,
            "watchdog.cost_share": 1.0
            - sum(no_wd.interval_ms) / sum(traced.interval_ms),
            "bench.cal_ops_per_s": median(traced.cal.rates),
            "bench.cal_share": run.cal.slice_s / run.loop_wall_s,
            "bench.trace_overhead": sum(traced.interval_ref_s)
            / sum(run.interval_ref_s)
            - 1.0,
        }
    )
    checks["trace_coverage"] = breakdown.coverage >= MIN_COVERAGE
    log.update(error_rate=mismatches / attempted, traced_raw_root_s=breakdown.raw_root_s)
    return Outcome(checks, attempted, mismatches, metrics, log, recorder.spans)


def run(name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    """Run workload ``name``."""
    if name == "field-sim":
        return run_field(seed, seconds, trace)
    return run_wire(name, seed, seconds, trace)
