"""Tests for the benchmark's own helpers and its failure accounting.

Run from the repository root: ``python3 -m pytest sinkbench -q``.
"""

import asyncio

import pytest

import measure
import wireload
import workloads
from inputs import build_wire_inputs
from measure import (
    MIN_TAIL,
    REFERENCE_OPS_PER_S,
    Calibrator,
    Span,
    percentile,
    self_times,
    to_reference,
)


class TestPercentile:
    def test_needs_ten_samples_beyond_the_rank(self):
        with pytest.raises(ValueError, match="99 samples has 9 beyond"):
            percentile([float(i) for i in range(99)], 90)
        value, count = percentile([float(i) for i in range(100)], 90)
        assert (value, count) == (89.0, 100)

    def test_nearest_rank_on_unsorted_samples(self):
        samples = [float(i) for i in range(20, 0, -1)]
        assert percentile(samples, 50) == (10.0, 20)

    def test_too_few_for_a_median(self):
        with pytest.raises(ValueError):
            percentile([1.0] * (2 * MIN_TAIL - 1), 50)


class TestCalibration:
    def test_scaling_is_proportional_to_slice_rate(self):
        assert to_reference(0.5, REFERENCE_OPS_PER_S) == pytest.approx(0.5)
        assert to_reference(0.5, 2 * REFERENCE_OPS_PER_S) == pytest.approx(1.0)
        assert to_reference(0.5, REFERENCE_OPS_PER_S / 4) == pytest.approx(0.125)

    def test_interval_uses_the_slices_on_both_sides(self, monkeypatch):
        rates = iter([100_000.0, 300_000.0, 500_000.0])
        monkeypatch.setattr(measure, "calibration_slice", lambda: next(rates))
        cal = Calibrator()
        cal.before()
        first = cal.after(1.0)
        second = cal.after(2.0)
        assert first == pytest.approx(200_000.0 / REFERENCE_OPS_PER_S)
        assert second == pytest.approx(2.0 * 400_000.0 / REFERENCE_OPS_PER_S)
        assert cal.rates == [100_000.0, 300_000.0, 500_000.0]

    def test_first_interval_without_opening_slice(self, monkeypatch):
        monkeypatch.setattr(measure, "calibration_slice", lambda: 50_000.0)
        assert Calibrator().after(4.0) == pytest.approx(
            4.0 * 50_000.0 / REFERENCE_OPS_PER_S
        )

    def test_real_slice_reports_a_rate(self):
        assert measure.calibration_slice(50) > 0


class TestSelfTime:
    def test_duration_minus_union_of_children(self):
        spans = [
            Span("root", 0.0, 10.0, None, 0),
            Span("a", 1.0, 3.0, 0, 0),
            Span("b", 2.0, 5.0, 0, 0),  # overlaps a: counted once
            Span("c", 8.0, 12.0, 0, 0),  # clipped to the parent's end
            Span("grandchild", 1.5, 2.5, 1, 0),
        ]
        selfs = self_times(spans)
        assert selfs[0] == pytest.approx(10.0 - (4.0 + 2.0))
        assert selfs[1] == pytest.approx(2.0 - 1.0)
        assert selfs[2] == pytest.approx(3.0)
        assert selfs[4] == pytest.approx(1.0)

    def test_leaf_time_is_subtracted(self):
        spans = [
            Span("root", 0.0, 4.0, None, 0, leaf_s=0.5),
            Span("child", 1.0, 2.0, 0, 0, leaf_s=0.25),
        ]
        assert self_times(spans) == pytest.approx([2.5, 0.75])

    def test_recorder_nests_and_restores(self):
        class Layer:
            def outer(self):
                return self.inner() + 1

            def inner(self):
                return 1

        recorder = measure.SpanRecorder()
        recorder.wrap(Layer, "outer", "outer")
        recorder.wrap(Layer, "inner", "inner", leaf=True)
        root = recorder.open("root")
        assert Layer().outer() == 2
        recorder.close(root)
        recorder.restore()
        assert [s.name for s in recorder.spans] == ["root", "outer"]
        assert recorder.spans[1].parent == 0
        assert recorder.counts == {"inner": 1}
        assert Layer.outer.__name__ == "outer" and "wrapper" not in repr(Layer.inner)


def _loop(capacity: int, batches: int):
    inputs = build_wire_inputs("mole-hunt", 3, 32 * batches, 32)

    async def drive():
        stack = await wireload.build_stack(inputs, capacity)
        try:
            return await wireload.closed_loop(
                stack, inputs.batches, 60.0, inputs.moles, max_batches=batches
            )
        finally:
            await stack.close()

    return inputs, asyncio.run(drive())


class TestErrorRate:
    def test_correct_run_fails_nothing(self):
        inputs, loop = _loop(capacity=workloads.QUEUE_CAPACITY, batches=3)
        _, verdicts = wireload.reference_verdicts(inputs, loop.sent, {3})
        mismatches = int(loop.replies[-1] != verdicts[3])
        assert workloads.tally([loop], mismatches) == (7, 0)

    def test_backpressure_is_counted(self):
        # A queue smaller than one batch sheds every batch whole.
        _, loop = _loop(capacity=8, batches=3)
        assert loop.rejected_batches == 3
        assert loop.failed_probes == 0
        attempted, failed = workloads.tally([loop], mismatches=1)
        assert (attempted, failed) == (7, 4)
