"""Process-local pipeline telemetry: registry, instruments, flight spans.

The streaming pipeline (delta build → engine fold → view folds → lazy
aggregate flush → cached query dispatch) had exactly one observable
number before this module: end-to-end bench wall clock.  This is the
substrate every layer reports through instead:

* :class:`MetricsRegistry` — one per process (or per service), handing
  out monotonic :class:`Counter`\\ s, :class:`Gauge`\\ s, and
  fixed-bucket :class:`Histogram`\\ s keyed by ``(name, labels)``.
  Instruments are plain slotted objects mutated in place — no
  per-observation allocation — and a registry constructed with
  ``enabled=False`` hands out shared do-nothing singletons, so a
  disabled pipeline pays one attribute check per instrumented site and
  nothing else (``benchmarks/bench_obs_overhead.py`` pins ≤1.01×).
* :class:`FlightRecorder` — a bounded ring buffer of recent span
  records (per-block ingest spans, per-query dispatch spans, subscriber
  failures), the post-mortem dump for "what just happened": cheap
  enough to leave on, bounded so a long-lived server never grows it.
  Timed sites prebind their instruments and guard ``perf_counter``
  behind ``registry.enabled``.

Metric names are dotted stage paths (``ingest.fanout_seconds``), labels
a small keyword set (``subscriber="engine"``); the full catalogue lives
in ``docs/metrics.md``.  Everything here is process-local and
thread-unsafe by design — the serving tier that needs cross-process
scrape semantics (ROADMAP open item 1) will layer on top, reusing the
request-id convention :func:`next_request_id` establishes.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections import deque


def _latency_buckets() -> tuple[float, ...]:
    """Log-spaced 1-2.5-5 second buckets from 1µs to 10s (24 bounds)."""
    bounds: list[float] = []
    for exponent in range(-6, 2):
        for mantissa in (1.0, 2.5, 5.0):
            bounds.append(mantissa * 10.0 ** exponent)
    return tuple(bounds)


LATENCY_BUCKETS = _latency_buckets()
"""Default histogram bounds for durations in seconds."""

COUNT_BUCKETS = tuple(
    float(mantissa * 10 ** exponent)
    for exponent in range(0, 7)
    for mantissa in (1, 2, 5)
)
"""Default histogram bounds for sizes/counts (1 .. 5e6)."""


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value, set outright."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def set(self, value) -> None:
        self.value = value


class Histogram:
    """Fixed-bucket distribution with count/sum/min/max accounting.

    ``bounds`` are upper bucket edges (ascending); an observation lands
    in the first bucket whose bound is >= the value, or the overflow
    bucket past the last bound.  Percentiles interpolate linearly inside
    the winning bucket — coarse by construction, but allocation-free on
    the observe path and plenty for "which stage ate the time".
    """

    __slots__ = ("bounds", "counts", "count", "total", "min", "max")

    def __init__(self, bounds: tuple[float, ...] = LATENCY_BUCKETS) -> None:
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def percentile(self, q: float) -> float | None:
        """Approximate ``q``-th percentile (``q`` in 0..100)."""
        if not self.count:
            return None
        target = self.count * q / 100.0
        seen = 0
        for position, bucket_count in enumerate(self.counts):
            if not bucket_count:
                continue
            if seen + bucket_count < target:
                seen += bucket_count
                continue
            lower = (
                self.bounds[position - 1]
                if position
                else (self.min if self.min is not None else 0.0)
            )
            upper = (
                self.bounds[position]
                if position < len(self.bounds)
                else (self.max if self.max is not None else lower)
            )
            lower = min(max(lower, self.min or lower), upper)
            fraction = (target - seen) / bucket_count
            return lower + (upper - lower) * min(max(fraction, 0.0), 1.0)
        return self.max

    @property
    def mean(self) -> float | None:
        return self.total / self.count if self.count else None

    def summary(self) -> dict:
        """Plain-data summary for snapshots and dumps."""
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }


class _NullInstrument:
    """The shared do-nothing twin a disabled registry hands out."""

    __slots__ = ()
    value = 0

    def inc(self, amount: int = 1) -> None:
        pass

    def set(self, value) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class FlightRecorder:
    """Bounded ring buffer of recent span records.

    Each record is a plain dict (``kind`` plus whatever fields the
    recording site attaches — height, stage, seconds, request_id, ...).
    The deque bound makes it a *flight recorder*: always the most recent
    window, never unbounded growth, dumpable after the fact.
    """

    __slots__ = ("enabled", "_spans")

    def __init__(self, capacity: int = 512, *, enabled: bool = True) -> None:
        self.enabled = enabled
        self._spans: deque[dict] = deque(maxlen=capacity)

    def record(self, kind: str, **fields) -> None:
        if not self.enabled:
            return
        fields["kind"] = kind
        self._spans.append(fields)

    def __len__(self) -> int:
        return len(self._spans)

    def dump(self) -> list[dict]:
        """The retained spans, oldest first (copies of the ring)."""
        return [dict(span) for span in self._spans]


class MetricsRegistry:
    """Instrument factory + snapshot point for one pipeline's telemetry.

    Instruments are keyed by ``(name, sorted label items)`` and created
    on first use; repeated lookups return the same object, so hot sites
    can prebind (``hist = registry.histogram(...)`` once, ``observe``
    per event).  ``enabled=False`` turns every factory into a return of
    the shared no-op singleton and the flight recorder into a no-op —
    the true-off mode whose cost is one branch per site.
    """

    def __init__(
        self, *, enabled: bool = True, flight_capacity: int = 512
    ) -> None:
        self.enabled = enabled
        self.flight = FlightRecorder(flight_capacity, enabled=enabled)
        self._counters: dict[tuple, Counter] = {}
        self._gauges: dict[tuple, Gauge] = {}
        self._gauge_fns: dict[tuple, object] = {}
        self._histograms: dict[tuple, Histogram] = {}

    # -- instrument factories ------------------------------------------

    @staticmethod
    def _key(name: str, labels: dict) -> tuple:
        # Most instruments carry zero or one label: skip the sort.
        items = tuple(labels.items())
        return (name, items if len(items) < 2 else tuple(sorted(items)))

    def counter(self, name: str, **labels) -> Counter:
        if not self.enabled:
            return _NULL_INSTRUMENT
        key = self._key(name, labels)
        found = self._counters.get(key)
        if found is None:
            found = self._counters[key] = Counter()
        return found

    def gauge(self, name: str, **labels) -> Gauge:
        if not self.enabled:
            return _NULL_INSTRUMENT
        key = self._key(name, labels)
        found = self._gauges.get(key)
        if found is None:
            found = self._gauges[key] = Gauge()
        return found

    def gauge_fn(self, name: str, fn, **labels) -> None:
        """Register a sampled gauge: ``fn()`` is read at snapshot time.

        The wiring for values something else already maintains (cache
        hit/miss counts, queue depths) — zero per-operation cost, always
        current when dumped.
        """
        if not self.enabled:
            return
        self._gauge_fns[self._key(name, labels)] = fn

    def histogram(
        self, name: str, *, buckets: tuple[float, ...] = LATENCY_BUCKETS,
        **labels,
    ) -> Histogram:
        if not self.enabled:
            return _NULL_INSTRUMENT
        key = self._key(name, labels)
        found = self._histograms.get(key)
        if found is None:
            found = self._histograms[key] = Histogram(buckets)
        return found

    # -- timing ---------------------------------------------------------

    # -- snapshot --------------------------------------------------------

    @staticmethod
    def _format_key(key: tuple) -> str:
        name, labels = key
        if not labels:
            return name
        rendered = ",".join(f"{k}={v}" for k, v in labels)
        return f"{name}{{{rendered}}}"

    def snapshot(self) -> dict:
        """Structured plain-data snapshot of every instrument.

        Keys render Prometheus-style (``name{label=value}``); histogram
        values are :meth:`Histogram.summary` dicts.  Sampled gauges are
        read here, so the snapshot is current as of the call.
        """
        gauges = {
            self._format_key(key): gauge.value
            for key, gauge in self._gauges.items()
        }
        for key, fn in self._gauge_fns.items():
            gauges[self._format_key(key)] = fn()
        return {
            "enabled": self.enabled,
            "counters": {
                self._format_key(key): counter.value
                for key, counter in self._counters.items()
            },
            "gauges": gauges,
            "histograms": {
                self._format_key(key): histogram.summary()
                for key, histogram in self._histograms.items()
            },
        }

    def total_seconds(self, name: str) -> float:
        """Summed histogram totals across every label set of ``name``.

        The sum-consistency edge: per-stage histograms must account for
        the wall clock they decompose
        (``benchmarks/bench_obs_overhead.py`` pins ingest ≥90%).
        """
        return sum(
            histogram.total
            for (metric, _labels), histogram in self._histograms.items()
            if metric == name
        )


NULL_REGISTRY = MetricsRegistry(enabled=False)
"""The shared disabled registry: the default everywhere a ``metrics``
argument is omitted, so uninstrumented pipelines run the exact disabled
code path the overhead bench pins."""


_REQUEST_IDS = itertools.count(1)


def next_request_id() -> str:
    """Process-unique request ids (``req-1``, ``req-2``, ...).

    The convention batch query dispatch stamps onto flight-recorder
    spans today and the future HTTP tier will mint per inbound request.
    """
    return f"req-{next(_REQUEST_IDS)}"
