"""Measurement helpers: percentiles, host calibration, spans and self time.

Nothing here imports ``repro``; the calibration slice in particular must
exercise only the standard library, so a change to the program cannot
move the yardstick it is measured with.
"""

from __future__ import annotations

import hashlib
import hmac
import math
import resource
import sys
import time
from dataclasses import dataclass, field

#: Operations per calibration slice: one HMAC-SHA256 plus ``_CAL_INSERTS`` dict inserts each.
CAL_OPS = 300
#: Fixed reference rate (ops/s) of the calibration slice.  A timed interval
#: of ``w`` wall seconds followed by a slice measuring ``r`` ops/s counts as
#: ``w * r / REFERENCE_OPS_PER_S`` reference seconds: the time the interval
#: would have taken on a host that runs the slice at exactly this rate.
REFERENCE_OPS_PER_S = 200_000.0
#: A percentile is reported only with at least this many samples above it.
MIN_TAIL = 10

#: Dict inserts per HMAC: the benchmarked layers are as much interpreter
#: work as hashing, and a slice of pure HMAC over-corrected them.
_CAL_INSERTS = 8
_CAL_KEY = b"sinkbench-calibration-key-000000"
_CAL_MSG = b"sinkbench calibration message: a report plus a few marks" * 2


def percentile(samples: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank ``pct`` percentile of ``samples`` and the sample count.

    Raises:
        ValueError: when fewer than :data:`MIN_TAIL` samples lie beyond
            the percentile's rank, so the value would rest on a handful
            of outliers.
    """
    if not 0 < pct <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {pct}")
    count = len(samples)
    rank = max(1, math.ceil(pct / 100.0 * count))
    beyond = count - rank
    if beyond < MIN_TAIL:
        raise ValueError(
            f"p{pct:g} of {count} samples has {beyond} beyond it; "
            f"need at least {MIN_TAIL}"
        )
    return sorted(samples)[rank - 1], count


def calibration_slice(ops: int = CAL_OPS) -> float:
    """Run the fixed stdlib slice once and return its rate in ops/s."""
    table: dict[tuple[int, int], bytes] = {}
    new = hmac.new
    sha256 = hashlib.sha256
    start = time.perf_counter()
    for index in range(ops):
        digest = new(_CAL_KEY, _CAL_MSG, sha256).digest()
        for slot in range(_CAL_INSERTS):
            table[index, slot] = digest
    elapsed = time.perf_counter() - start
    return ops / elapsed


def to_reference(wall_s: float, cal_ops_per_s: float) -> float:
    """Scale ``wall_s`` measured next to a slice running at ``cal_ops_per_s``."""
    return wall_s * cal_ops_per_s / REFERENCE_OPS_PER_S


@dataclass
class Calibrator:
    """Runs a slice after each timed interval and keeps the raw figures.

    An interval is scaled by the mean rate of the slices on either side of
    it: the one that ended the previous interval and the one that follows
    it.  Host speed drifts on the scale of an interval, so bracketing it
    tracks the drift better than either slice alone.  Slices never overlap
    a timed interval.

    Attributes:
        rates: slice rate (ops/s) after each interval.
        slice_s: wall seconds spent in slices.
    """

    rates: list[float] = field(default_factory=list)
    slice_s: float = 0.0

    def _slice(self) -> float:
        start = time.perf_counter()
        rate = calibration_slice()
        self.slice_s += time.perf_counter() - start
        return rate

    def before(self) -> None:
        """Run the slice that opens the first interval (optional)."""
        self.rates.append(self._slice())

    def after(self, wall_s: float) -> float:
        """Calibrate the interval that just ended; returns reference seconds."""
        rate = self._slice()
        bracket = (rate + self.rates[-1]) / 2.0 if self.rates else rate
        self.rates.append(rate)
        return to_reference(wall_s, bracket)


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return peak / (1024.0 * 1024.0) if sys.platform == "darwin" else peak / 1024.0


# Spans ---------------------------------------------------------------------


@dataclass
class Span:
    """One timed call: ``parent`` is an index into the recorder's spans.

    ``leaf_s`` is time spent in aggregated leaf calls made directly from
    this span; leaves are counted and timed but not kept one by one.
    """

    name: str
    start: float
    end: float
    parent: int | None
    trace: int
    leaf_s: float = 0.0


def covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, start), min(b, end)) for a, b in intervals if b > start and a < end
    )
    total = 0.0
    run_start = run_end = None
    for a, b in clipped:
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its children and leaves cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [
        (span.end - span.start)
        - covered(children[index], span.start, span.end)
        - span.leaf_s
        for index, span in enumerate(spans)
    ]


class SpanRecorder:
    """Keeps spans in memory; the caller writes them out once at exit.

    Spans nest by call order: a wrapped call's parent is the innermost
    span open when it starts.  Only one request is in flight at a time in
    this benchmark, so every span opened while a root is open belongs to
    that root's trace.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.trace = 0
        self.counts: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            Span(name, time.perf_counter(), 0.0, parent, self.trace)
        )
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        popped = self._stack.pop()
        assert popped == index, "spans must close in reverse order"

    def leaf(self, name: str, elapsed: float) -> None:
        """Account one aggregated leaf call to the innermost open span."""
        self.counts[name] = self.counts.get(name, 0) + 1
        if self._stack:
            self.spans[self._stack[-1]].leaf_s += elapsed

    def wrap(self, owner: object, attr: str, name: str, leaf: bool = False) -> None:
        """Replace ``owner.attr`` with a timing wrapper (see :meth:`restore`)."""
        original = getattr(owner, attr)
        recorder = self
        clock = time.perf_counter
        if leaf:

            def wrapper(*args, **kwargs):
                start = clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    recorder.leaf(name, clock() - start)

        else:

            def wrapper(*args, **kwargs):
                index = recorder.open(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    recorder.close(index)

        self._patched.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        for owner, attr, original in reversed(self._patched):
            if original is None:
                delattr(owner, attr)  # it was inherited
            else:
                setattr(owner, attr, original)
        self._patched = []
